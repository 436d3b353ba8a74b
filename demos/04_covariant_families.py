"""Covariant families: kernel membership, equivariance, lifts, brackets.

A covariant is a polynomial map F: V -> g.  The two properties that drive
everything downstream:

* F lies in the kernel of phi, phi(F)(v) = F(v) . v, exactly when F(v)
  always stabilises v;
* such an F lifts to a polynomial F-hat on the dual of q = g x V* that is
  invariant under the unipotent moves, and kernel members have
  Poisson-commuting lifts.

Shown on the 2x2x2 coordinate cube (three sl2 factors) and the triple
matrix-pair family, whose distinguished sl2 rearranges the members as an
irreducible ladder.
"""

from fractions import Fraction

from semicov.catalog import cubic_construction, tri_sl_construction
from semicov.catalog.families import cubic_combination
from semicov.covariants import (
    act_on_components,
    equivariance_check,
    express_in_span,
    kernel_phi_check,
    poisson_commute_check,
    weight_under,
)
from semicov.poly import CheckContext
from semicov.semidirect import SemidirectProduct


def main() -> None:
    print("== the cube: kernel membership is a linear condition ==")
    cons = cubic_construction()
    rep = cons.module
    for coeffs in [(1, -1, 0), (0, 1, -1), (2, -1, -1), (1, 1, 1), (1, 0, 0)]:
        f = cubic_combination(rep, *coeffs, name="F%s" % (coeffs,))
        res = kernel_phi_check(f, CheckContext("exact"))
        print("  coefficients %-12s kernel: %s" % (coeffs, res.verdict))
    print("(membership holds exactly when the coefficients sum to zero)")

    print()
    print("== equivariance and commuting lifts ==")
    f1, f2 = cons.family
    print("full equivariance of F1:", equivariance_check(f1, ctx=CheckContext("exact")).verdict)
    q = SemidirectProduct(rep, name="cube")
    pb = poisson_commute_check(q, [f1, f2], CheckContext(samples=20))
    print("lifted brackets {F1-hat, F2-hat} at 20 sampled dual points:", pb.verdict)

    print()
    print("== the triple family: an sl2 ladder of covariants ==")
    tri = tri_sl_construction(3)
    f0, f1 = tri.family
    dim = tri.algebra.dim
    e = [0] * dim
    fv = [0] * dim
    h = [0] * dim
    e[16], fv[17], h[18] = 1, 1, 1
    print("h-weight of F0:", weight_under(f0, h))
    print("h-weight of F1:", weight_under(f1, h))
    print("e * F0 in terms of F1:", express_in_span(act_on_components(f0, e), [f1.components]))
    print("f * F1 in terms of F0:", express_in_span(act_on_components(f1, fv), [f0.components]))
    print("f * F0 vanishes:", all(p.is_zero() for p in act_on_components(f0, fv)))
    print("equivariance over the two big factors:",
          equivariance_check(f0, tri.scope, CheckContext("exact")).verdict)
    broken = equivariance_check(f0, tri.complement, CheckContext("exact"))
    print("equivariance over the mixing sl2:", broken.verdict, "(a witness direction exists)")


if __name__ == "__main__":
    main()
