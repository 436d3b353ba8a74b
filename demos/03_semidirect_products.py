"""Semidirect products q = g x V*: brackets, moment map, index, b(q).

Given a module V of g, the dual V* sits inside q as an abelian ideal with
[x, zeta] the contragredient action.  The key numerics: the index of q
(corank of the Kirillov form at a generic dual point, sampled in two
independent batches), the invariant-degree bound b(q) = (dim q + ind q)/2,
and the consistency identity relating ind q to stabilisers on the module
side.
"""

from semicov.lie import adjoint_rep, sl, stabiliser, stabiliser_sample
from semicov.poly import CheckContext
from semicov.semidirect import (
    DualPoint,
    SemidirectProduct,
    b_of,
    coadjoint_unipotent,
    index_estimate,
    kirillov_rank,
    moment_map,
    rais_consistency,
)


def main() -> None:
    rep = adjoint_rep(sl(3))
    q = SemidirectProduct(rep, name="sl3 acting on its dual copy")
    print("q =", q)
    print("dim q =", q.dim, "= dim g + dim V =", q.dim_g, "+", q.dim_v)
    ok, witness = q.lie.check_jacobi()
    print("Jacobi on q:", ok)

    print()
    print("== index and b(q), sampled exactly ==")
    ctx = CheckContext(seed=0, samples=20)  # one seed, count and bound for every estimate
    est = index_estimate(q.lie, ctx)
    print("index estimate:", est.index, "(max Kirillov rank %d, stabilised=%s)"
          % (est.max_rank, est.stabilised))
    print("b(q) = (dim + ind)/2 =", b_of(q.lie, ctx))

    print()
    print("== moment map and unipotent coadjoint moves ==")
    v = [1, 0, 0, 0, 1, 0, 0, 2]
    zeta = [0, 1, 0, 0, 0, 1, 0, 0]
    print("mu(v, zeta) =", moment_map(q, v, zeta))
    eta = DualPoint(xi=[1, 0, 0, 0, 0, 0, 0, 1], v=v)
    moved = coadjoint_unipotent(q, zeta, eta)
    print("eta.xi after the unipotent move:", moved.xi)
    print("module part is untouched:", moved.v == eta.v)
    print("Kirillov rank at eta:", kirillov_rank(q.lie, eta.combined()),
          "(even, as it must be)")

    print()
    print("== index consistency against the module side ==")
    sample = stabiliser_sample(rep, ctx, "demo")
    _, t = sample.minimal[0]
    report = rais_consistency(q, t, sample.abelian, est, ctx)
    predicted = report.dim_v - report.dim_g + report.stab_dim + report.stab_index
    print("ind q =", report.index_q)
    print("dim V - dim g + dim g_x + ind g_x =", predicted)
    print("agree:", report.consistent, "(generic stabiliser abelian: %s)" % report.stab_abelian)
    if sample.proved and sample.abelian:
        # Rais: no Kirillov form ranks above 2(dim g - dim t), so a batch stops there
        bounded = index_estimate(q.lie, ctx, 2 * (q.dim_g - t.dim))
        print("index with the Rais bound: %d, after %d of %d Kirillov ranks"
              % (bounded.index, len(bounded.ranks), bounded.drawn))

    print()
    print("== stabiliser feeding the identity ==")
    s = stabiliser(rep, v)
    print("dim g_x at the sampled point:", s.dim)


if __name__ == "__main__":
    main()
