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
            if not (e.den.is_const and e.den.const_value() == 1):
                g = poly_gcd(s, e.den)
                s = s * (e.den.exact_div(g) if not g.is_const else e.den)
        left.append([e.num * s.exact_div(e.den) if not e.num.is_zero else e.num for e in row])
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
        pivot_cols = [(j, m[k][j]) for j in range(k + 1, width) if not m[k][j].is_zero]
        for i in range(k + 1, n):
            mik = m[i][k]
            row = m[i]
            # zero entries stay zero: only products that are not zero are formed
            for j in range(k + 1, width):
                if not row[j].is_zero:
                    row[j] = piv * row[j]
            if not mik.is_zero:
                for j, mkj in pivot_cols:
                    row[j] = row[j] - mik * mkj
            if not prev.is_const or prev.const_value() != 1:
                for j in range(k + 1, width):
                    if not row[j].is_zero:
                        row[j] = row[j].exact_div(prev)
            row[k] = Poly.zero()
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
                if not m[i][l].is_zero and not inv[l][j].is_zero:
                    acc = acc - expr(m[i][l]) * inv[l][j]
            inv[i][j] = acc / expr(m[i][i])
    return inv, det

