"""Exact rational linear algebra: the arithmetic layer everything sits on.

Every verification in this package runs over the rationals -- matrices of
Fractions or of sparse multivariate polynomials, fraction-free elimination,
Faddeev-LeVerrier characteristic polynomials (which divide only by the
integers 1..n).  No floats ever enter a verdict.
"""

from fractions import Fraction

from semicov.linalg import Matrix, adjugate, char_poly, det, rank, solve
from semicov.poly import MultiPoly


def main() -> None:
    print("== matrices over Q ==")
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    print("m =", m.rows)
    print("det(m) =", det(m))
    print("rank(m) =", rank(m))
    print("adjugate(m) @ m =", (adjugate(m) * m).rows)

    print()
    print("== exact solving ==")
    rhs = [Fraction(1), Fraction(0), Fraction(1, 2)]
    x = solve(m, rhs)
    print("solve(m, [1, 0, 1/2]) =", x)
    print("residual =", [sum(r[j] * x[j] for j in range(3)) - b for r, b in zip(m.rows, rhs)])

    print()
    print("== characteristic polynomial (Faddeev-LeVerrier, exact over Q) ==")
    cp = char_poly(m)
    print("char_poly(m) coefficients (leading first):", cp)

    print()
    print("== sparse multivariate polynomials ==")
    x0, x1, x2 = MultiPoly.variables(3)
    p = (x0 + x1) * (x0 - x1) + x2 ** 2
    print("(x0+x1)(x0-x1) + x2^2 =", p)
    q = p * p - p
    print("p^2 - p has", len(q.terms), "terms, degree", q.degree())

    print()
    print("== polynomial matrices ==")
    pm = Matrix([[x0, x1], [x1, x2]])
    print("det of a symbolic symmetric 2x2:", det(pm))
    print("its adjugate:", [[str(e) for e in row] for row in adjugate(pm).rows])


if __name__ == "__main__":
    main()
