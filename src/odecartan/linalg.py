"""Exact linear algebra over the rational-function field.

Matrix inversion is Gauss–Jordan elimination on ``[A | I]`` in Expression
arithmetic, whose canonical form keeps every entry reduced.  The pivot of
each column is the sparsest remaining row, so a matrix that is triangular
after a row permutation (every coframe and metric the program inverts)
gets no fill in its left block.
"""

from .errors import DegenerateCoframeError


def _pivot_key(row, k, n):
    """Nonzeros of ``row`` in columns k..n-1, then the pivot's term count."""
    e = row[k]
    return sum(not x.is_zero for x in row[k:n]), len(e.num) + len(e.den)


def invert_matrix(rows):
    """Inverse and determinant of a square Expression matrix.

    Raises DegenerateCoframeError when the determinant is identically zero.
    """
    n = len(rows)
    zero = rows[0][0].with_value(0)
    one = rows[0][0].with_value(1)
    m = [list(row) + [one if j == i else zero for j in range(n)] for i, row in enumerate(rows)]
    det = one
    for k in range(n):
        live = [i for i in range(k, n) if not m[i][k].is_zero]
        if not live:
            raise DegenerateCoframeError("matrix is singular")
        p = min(live, key=lambda i: _pivot_key(m[i], k, n))
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        piv = m[k][k]
        det = det * piv
        m[k] = [e if e.is_zero else e / piv for e in m[k]]
        # columns before k of the pivot row are already zero
        pivot_cols = [(j, e) for j, e in enumerate(m[k]) if j > k and not e.is_zero]
        for i in range(n):
            f = m[i][k]
            if i == k or f.is_zero:
                continue
            row = m[i]
            for j, e in pivot_cols:
                row[j] = row[j] - f * e
            row[k] = zero
    return [row[n:] for row in m], det
