"""Petrov classification of the Weyl tensor in split signature.

At an exact rational point the Weyl endomorphism W acts on the 6-space of
2-forms; the Hodge star (orientation dx^dy^dz^dt) squares to +1 there and
is trace-free, so its +1 and -1 eigenspaces are real and 3-dimensional.
Since W commutes with the star, X = W(I ± star) is twice W's block on one
eigenspace and zero on the other, and each half is labelled from X on the
whole 6-space, with no eigenspace basis: the traces of X^2 and X^3 give the
block's characteristic polynomial (Newton's identities), its discriminant
decides root multiplicity, double roots are rational, and the Jordan
structure is read from whether X^2 or (X - r)(X - s)X vanishes.  X is
scaled to an integer matrix first; no floating point enters anywhere.

A family member's W, g^-1 and det are never built as its own tensors:
they are the curvature tensors of the generic member's metric (opaque A'
and B'; ``report._generic_evidence``) read at the point extended with the
values of the jets of A' and B', taken from the member's A and B.
"""

from collections import namedtuple
from fractions import Fraction
from math import isqrt, lcm

from .errors import PetrovDegeneracyError, SingularEvaluationError

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# Levi-Civita sign eps_abmn of each pair (a, b) followed by its complement
# (m, n) = PAIRS[5 - i], the only entries the Hodge star reads
_STAR_SIGN = (1, -1, 1, 1, -1, 1)


def _mat(n, m=None):
    return [[0] * (m or n) for _ in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = _mat(n, m)
    for i in range(n):
        for l in range(k):
            ail = a[i][l]
            if ail:
                row = b[l]
                ri = out[i]
                for j in range(m):
                    if row[j]:
                        ri[j] += ail * row[j]
    return out


def mat_is_zero(a):
    return all(v == 0 for row in a for v in row)


def identity(n):
    out = _mat(n)
    for i in range(n):
        out[i][i] = 1
    return out


def _sqrt_fraction(value):
    if value <= 0:
        raise PetrovDegeneracyError("volume density must be positive at the point")
    rn = _isqrt_exact(value.numerator)
    rd = _isqrt_exact(value.denominator)
    if rn is None or rd is None:
        raise PetrovDegeneracyError("volume density is not a perfect rational square")
    return Fraction(rn, rd)


def _isqrt_exact(n):
    r = isqrt(n)
    return r if r * r == n else None


def jet_expressions(tensors, functions):
    """{rendered name: expression} for each jet symbol among the values
    ``weyl_operator_at`` reads: its function's expression in
    ``functions`` (keyed by function name), differentiated along the
    jet's index."""
    exprs = [tensors.det, *(e for row in tensors.ginv for e in row)]
    exprs += [tensors.weyl_down[a][b][m][n] for a, b in PAIRS for m, n in PAIRS]
    jets = {}
    for sym in {s for e in exprs for s in e.symbols() if not s.is_coordinate}:
        expr = functions[sym.name]
        for coord in sym.index:
            expr = expr.differentiate(coord)
        jets[sym.render()] = expr
    return jets


def weyl_operator_at(tensors, point, jets=None):
    """Weyl endomorphism and Hodge star on 2-forms, as exact 6x6 matrices.

    Basis: coordinate 2-forms dx^a ∧ dx^b over the increasing pairs.
    ``jets`` (from ``jet_expressions``) extends the point with the value
    of each jet symbol, so opaque-coefficient tensors give the values of
    the metric with their functions substituted.  With the 2x2 minors
    G[mn][cd] = g^mc g^nd - g^nc g^md of g^-1, W^ab_cd is
    Σ_{m<n} W_abmn G[mn][cd] (W_abmn = -W_abnm), and the star's entry is
    vol · ε_abmn G[mn][cd] for the pair (m, n) complementary to (a, b).
    """
    powers = {}
    values = dict(point)
    try:
        for name, expr in (jets or {}).items():
            values[name] = expr.evaluate(point, powers)
        ginv = [[e.evaluate(values, powers) for e in row] for row in tensors.ginv]
        gdet = tensors.det.evaluate(values, powers)
        weyl = [
            [tensors.weyl_down[a][b][m][n].evaluate(values, powers) for m, n in PAIRS]
            for a, b in PAIRS
        ]
    except SingularEvaluationError as exc:
        raise PetrovDegeneracyError(str(exc)) from exc
    vol = _sqrt_fraction(gdet)

    # integer numerators over one denominator for g^-1 and one per row of
    # W, so each cell is built as a single Fraction
    dg = lcm(*(v.denominator for row in ginv for v in row))
    gi = [[v.numerator * (dg // v.denominator) for v in row] for row in ginv]
    minors = [
        [gi[m][c] * gi[n][d] - gi[n][c] * gi[m][d] for c, d in PAIRS] for m, n in PAIRS
    ]
    den = dg * dg
    weyl_op = []
    for w in weyl:
        dw = lcm(*(v.denominator for v in w))
        wi = [v.numerator * (dw // v.denominator) for v in w]
        cell_den = dw * den
        weyl_op.append(
            [Fraction(sum(wi[p] * minors[p][col] for p in range(6)), cell_den) for col in range(6)]
        )
    star = [
        [vol * sign / den * g for g in minors[5 - i]] for i, sign in enumerate(_STAR_SIGN)
    ]
    return weyl_op, star


def classify_traceless(m):
    """Petrov label of a trace-free operator over the algebraic closure.

    ``m`` is a 3x3 block B, or a 6x6 operator similar to cB ⊕ 0 for a
    rational c ≠ 0 (as W(I ± star) is, with c = 2); the label is B's:
    distinct roots -> I; double root, non-diagonalizable -> II;
    double root, diagonalizable -> D; triple root with minimal degree 3
    -> III; minimal degree 2 -> N; zero matrix -> O.
    """
    if mat_is_zero(m):
        return "O"
    n = len(m)
    if sum(m[i][i] for i in range(n)) != 0:
        raise PetrovDegeneracyError("block is not trace-free")
    # the label does not change under scaling: clear denominators
    den = lcm(*(v.denominator for row in m for v in row))
    a = [[v.numerator * (den // v.denominator) for v in row] for row in m]
    a2 = mat_mul(a, a)
    t2 = sum(a2[i][i] for i in range(n))
    t3 = sum(a2[i][j] * a[j][i] for i in range(n) for j in range(n))
    # char(la) = la^3 + p la + q of the nonzero block, with p = e2 = -t2/2
    # and q = -e3 = -t3/3 by Newton's identities; the discriminant
    # -4p^3 - 27q^2 is (t2^3 - 6 t3^2)/2
    if t2 ** 3 != 6 * t3 ** 2:
        return "I"
    if t2 == 0:  # then t3 == 0: triple root 0
        return "N" if mat_is_zero(a2) else "III"
    # double root r = -t3/t2 and simple root s = -2r, both nonzero since
    # p != 0; the block is diagonalizable iff (a - r)(a - s) vanishes on
    # it, and the trailing factor a kills the zero block of a 6x6 operator.
    # t2^2 (a - r)(a - s) a = t2^2 a^3 - t2 t3 a^2 - 2 t3^2 a
    a3 = mat_mul(a2, a)
    c3, c2, c1 = t2 * t2, -t2 * t3, -2 * t3 * t3
    diagonalizable = all(
        c3 * a3[i][j] + c2 * a2[i][j] + c1 * a[i][j] == 0 for i in range(n) for j in range(n)
    )
    return "D" if diagonalizable else "II"


class PetrovPointResult(namedtuple("PetrovPointResult", "point label_plus label_minus")):
    """Petrov labels of the Weyl endomorphism at one exact rational point
    (a dict) on the +1 ("self-dual") and -1 ("anti-self-dual") Hodge
    eigenspaces."""

    __slots__ = ()

    @property
    def unordered(self):
        return frozenset((self.label_plus, self.label_minus))


def classify_at_point(tensors, point, jets=None):
    """Petrov labels at ``point``; ``jets`` as in ``weyl_operator_at``."""
    weyl_op, star = weyl_operator_at(tensors, point, jets)
    if mat_mul(star, star) != identity(6):
        raise PetrovDegeneracyError("Hodge star does not square to +1 at the point")
    ws = mat_mul(weyl_op, star)
    if ws != mat_mul(star, weyl_op):
        raise PetrovDegeneracyError("Weyl operator does not commute with the Hodge star")
    plus, minus = (
        classify_traceless(
            [[w + sign * v for w, v in zip(wrow, vrow)] for wrow, vrow in zip(weyl_op, ws)]
        )
        for sign in (1, -1)
    )
    return PetrovPointResult(dict(point), plus, minus)
