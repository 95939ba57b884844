"""Exact linear algebra over the rational-function field.

Matrix inversion clears row denominators and runs fraction-free Gaussian
elimination with the Bareiss recurrence on integer polynomial entries
(every division is exact in Z[x]), picking pivots by a fewest-terms
heuristic; back substitution then happens over expressions, whose
canonicalization keeps the results reduced.
"""

from .errors import DegenerateCoframeError
from .expression import Expression
from .poly import Poly, poly_gcd


def invert_matrix(rows):
    """Inverse and determinant of a square Expression matrix.

    Raises DegenerateCoframeError when the determinant is identically zero.
    """
    n = len(rows)
    chart = rows[0][0].chart
    table = rows[0][0].table

    # clear denominators row by row: A = diag(1/s_i) * P
    left = []
    scales = []
    for row in rows:
        s = Poly.const(1)
        for e in row:
            g = poly_gcd(s, e.den)
            s = s * (e.den.exact_div(g) if not g.is_const else e.den)
        left.append([e.num * s.exact_div(e.den) for e in row])
        scales.append(s)

    # augment with diag(scales): the solution of P X = diag(s) is A^{-1}
    right = [[Poly.zero()] * n for _ in range(n)]
    for i in range(n):
        right[i][i] = scales[i]
    width = 2 * n
    m = [left[i] + right[i] for i in range(n)]

    sign = 1
    prev = Poly.const(1)
    for k in range(n):
        pivot_row = None
        best = None
        for i in range(k, n):
            if not m[i][k].is_zero:
                size = len(m[i][k])
                if best is None or size < best:
                    best = size
                    pivot_row = i
        if pivot_row is None:
            raise DegenerateCoframeError("matrix is singular")
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        piv = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, width):
                num = piv * m[i][j] - mik * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = Poly.zero()
        prev = piv

    det_poly = m[n - 1][n - 1]
    if det_poly.is_zero:
        raise DegenerateCoframeError("matrix is singular")

    def expr(p):
        return Expression(p, Poly.const(1), chart, table)

    det = expr(det_poly) * sign
    for s in scales:
        det = det / expr(s)

    # back substitution over expressions
    inv = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(n - 1, -1, -1):
            acc = expr(m[i][n + j])
            for l in range(i + 1, n):
                acc = acc - expr(m[i][l]) * inv[l][j]
            inv[i][j] = acc / expr(m[i][i])
    return inv, det


def identity_check(a, b):
    """Residuals of a·b − I as a flat list (all should be zero)."""
    n = len(a)
    out = []
    for i in range(n):
        for j in range(n):
            acc = None
            for k in range(n):
                term = a[i][k] * b[k][j]
                acc = term if acc is None else acc + term
            if i == j:
                acc = acc - 1
            out.append(acc)
    return out
