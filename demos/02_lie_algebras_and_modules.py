"""Classical Lie algebras, products, and finite-dimensional modules.

An algebra is stored as sparse structure constants over Q, usually derived
from a concrete matrix basis; modules are stored as one action matrix per
basis element.  Everything composable: products, duals, tensor and
exterior powers, sub- and lifted representations.
"""

from semicov.lie import (
    adjoint_rep,
    defining,
    ext_power,
    gl,
    is_abelian,
    lift_factor,
    product,
    sl,
    so,
    sp,
    stabiliser,
    stabiliser_sample,
    tensor,
)
from semicov.linalg import Matrix
from semicov.poly import CheckContext


def main() -> None:
    print("== classical algebras from matrix bases ==")
    for g in (sl(3), gl(3), so(4), sp(4)):
        print("%-8s dim %d" % (g.name, g.dim))

    print()
    print("== structure constants and Jacobi ==")
    g = sl(2)
    print("sl2 basis:", [b.rows for b in g.basis])
    for (a, b), entry in sorted(g.brackets.items()):
        print("  [e%d, e%d] = %s" % (a, b, entry))
    ok, witness = g.check_jacobi()
    print("Jacobi identity holds:", ok)

    print()
    print("== products and modules ==")
    gg = product(sl(2), sl(2), sl(2))
    print(gg.name, "dim", gg.dim)
    lifted = [lift_factor(gg, i, defining(sl(2))) for i in range(3)]
    cube = tensor(tensor(lifted[0], lifted[1]), lifted[2])
    print("2x2x2 cube module over the product: dim_v =", cube.dim_v)

    adj = adjoint_rep(sl(3))
    print("adjoint module of sl3: dim_v =", adj.dim_v)
    phi2 = ext_power(defining(sp(6)), 2)
    print("second exterior power of the sp6 defining module: dim_v =", phi2.dim_v)

    print()
    print("== stabilisers ==")
    v = [1, 0, 0, 0, 1, 0, 0, 2]  # a regular element of sl3, as coordinates
    s = stabiliser(adj, v)
    print("stabiliser dimension at a regular point:", s.dim)
    print("abelian:", is_abelian(sl(3), s))
    sample = stabiliser_sample(adj, CheckContext(seed=1, samples=20), "demo")
    _, t = sample.minimal[0]
    print("stabiliser of the first of 20 sampled points: dim", t.dim,
          "- proved generic on its fixed-point slice:", sample.proved)
    print("min over all 20 sampled points (computed on demand):",
          min(s.dim for _, s in sample.pairs))


if __name__ == "__main__":
    main()
