"""Petrov classification of the Weyl tensor in split signature.

At an exact rational point the Weyl endomorphism acts on the 6-space of
2-forms; the Hodge star (orientation dx^dy^dz^dt) squares to +1 there, so
the split into its +1 and -1 eigenspaces is real.  Each 3x3 trace-free
block is classified by the degeneracy of its characteristic and minimal
polynomials over the rationals: the discriminant decides root
multiplicity, and double roots are rational, so diagonalizability is a
finite exact check.  No floating point enters anywhere.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .errors import PetrovDegeneracyError, SingularEvaluationError

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# Levi-Civita symbol values for the 24 permutations of (0,1,2,3)
_EPSILON = {}


def _build_epsilon():
    from itertools import permutations

    for perm in permutations(range(4)):
        sign = 1
        seq = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if seq[i] > seq[j]:
                    sign = -sign
        _EPSILON[perm] = sign


_build_epsilon()


def _mat(n, m=None):
    return [[Fraction(0)] * (m or n) for _ in range(n)]


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


def mat_sub(a, b):
    return [[a[i][j] - b[i][j] for j in range(len(a[0]))] for i in range(len(a))]


def mat_is_zero(a):
    return all(v == 0 for row in a for v in row)


def identity(n):
    out = _mat(n)
    for i in range(n):
        out[i][i] = Fraction(1)
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


def jet_expressions(metric, tensors, functions):
    """{rendered name: expression} for each jet symbol among the values
    ``weyl_operator_at`` reads: its function's expression in
    ``functions`` (keyed by function name), differentiated along the
    jet's index."""
    exprs = [metric.det, *(e for row in metric.ginv for e in row)]
    exprs += [tensors.weyl_down[a][b][m][n] for a, b in PAIRS for m, n in PAIRS]
    jets = {}
    for sym in {s for e in exprs for s in e.symbols() if not s.is_coordinate}:
        expr = functions[sym.name]
        for coord in sym.index:
            expr = expr.differentiate(coord)
        jets[sym.render()] = expr
    return jets


def weyl_operator_at(metric, tensors, point, jets=None):
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
        ginv = [[e.evaluate(values, powers) for e in row] for row in metric.ginv]
        gdet = metric.det.evaluate(values, powers)
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
    star = []
    for a, b in PAIRS:
        m, n = (i for i in range(4) if i not in (a, b))
        scale = vol * _EPSILON[a, b, m, n] / den
        star.append([scale * g for g in minors[PAIRS.index((m, n))]])
    return weyl_op, star


def eigenspace_basis(star, sign):
    """Three independent columns of I + sign·star, exact.

    These span the eigenspace of the projector (I + sign·star)/2; the
    block ``restrict_operator`` solves for is the same for any uniform
    scaling of the basis, so the halving is left out.
    """
    cols = [[sign * star[i][j] + (1 if i == j else 0) for i in range(6)] for j in range(6)]
    basis = []
    rows_used = []
    reduced = []
    for col in cols:
        v = list(col)
        for pivot_row, b in zip(rows_used, reduced):
            factor = v[pivot_row]
            if factor:
                v = [v[i] - factor * b[i] for i in range(6)]
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            continue
        scale = v[pivot]
        v = [x / scale for x in v]
        rows_used.append(pivot)
        reduced.append(v)
        basis.append(col)
        if len(basis) == 3:
            break
    if len(basis) != 3:
        raise PetrovDegeneracyError("Hodge eigenspace is not 3-dimensional at the point")
    return [[basis[j][i] for j in range(3)] for i in range(6)]  # 6x3


def restrict_operator(op, basis):
    """The 3x3 matrix of ``op`` on the span of ``basis`` (exact solve)."""
    image = mat_mul(op, basis)  # 6x3
    # solve basis · M = image by Gaussian elimination on the 6x3 system
    n, k = 6, 3
    aug = [basis[i] + image[i] for i in range(n)]
    pivots = []
    row = 0
    for col in range(k):
        pr = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if pr is None:
            raise PetrovDegeneracyError("eigenbasis degenerated at the point")
        aug[row], aug[pr] = aug[pr], aug[row]
        scale = aug[row][col]
        aug[row] = [v / scale for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [aug[r][c] - f * aug[row][c] for c in range(len(aug[r]))]
        pivots.append(row)
        row += 1
    for r in range(row, n):
        if any(aug[r][k:]):
            raise PetrovDegeneracyError("operator does not preserve the eigenspace")
    return [aug[i][k:] for i in range(k)]


def classify_traceless(m):
    """Petrov label of a 3x3 trace-free block over the algebraic closure.

    distinct roots -> I; double root, non-diagonalizable -> II;
    double root, diagonalizable -> D; triple root with minimal degree 3
    -> III; minimal degree 2 -> N; zero matrix -> O.
    """
    if mat_is_zero(m):
        return "O"
    trace = sum(m[i][i] for i in range(3))
    if trace != 0:
        raise PetrovDegeneracyError("block is not trace-free")
    # char(la) = la^3 + p la + q  for trace-free m
    e2 = (
        m[0][0] * m[1][1] - m[0][1] * m[1][0]
        + m[0][0] * m[2][2] - m[0][2] * m[2][0]
        + m[1][1] * m[2][2] - m[1][2] * m[2][1]
    )
    e3 = _det3(m)
    p, q = e2, -e3
    disc = -4 * p ** 3 - 27 * q ** 2
    if disc != 0:
        return "I"
    if p == 0 and q == 0:
        m2 = mat_mul(m, m)
        return "N" if mat_is_zero(m2) else "III"
    # double root r and simple root s = -2r are rational
    r = Fraction(-3) * q / (2 * p)
    s = -2 * r
    lhs = mat_mul(mat_sub(m, _scaled_identity(r)), mat_sub(m, _scaled_identity(s)))
    return "D" if mat_is_zero(lhs) else "II"


def _scaled_identity(v):
    out = _mat(3)
    for i in range(3):
        out[i][i] = Fraction(v)
    return out


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


@dataclass(frozen=True)
class PetrovPointResult:
    """The Weyl endomorphism at one exact rational point, restricted to
    the +1 ("self-dual") and -1 ("anti-self-dual") Hodge eigenspaces:
    the two trace-free 3x3 blocks and their Petrov labels."""

    point: dict
    label_plus: str
    label_minus: str
    block_plus: tuple
    block_minus: tuple

    @property
    def unordered(self):
        return frozenset((self.label_plus, self.label_minus))


def classify_at_point(metric, tensors, point, jets=None):
    """Petrov labels at ``point``; ``jets`` as in ``weyl_operator_at``."""
    weyl_op, star = weyl_operator_at(metric, tensors, point, jets)
    if not mat_is_zero(mat_sub(mat_mul(star, star), identity(6))):
        raise PetrovDegeneracyError("Hodge star does not square to +1 at the point")
    if not mat_is_zero(mat_sub(mat_mul(weyl_op, star), mat_mul(star, weyl_op))):
        raise PetrovDegeneracyError("Weyl operator does not commute with the Hodge star")
    blocks = {}
    labels = {}
    for sign, key in ((1, "plus"), (-1, "minus")):
        basis = eigenspace_basis(star, sign)
        block = restrict_operator(weyl_op, basis)
        blocks[key] = tuple(tuple(row) for row in block)
        labels[key] = classify_traceless(block)
    return PetrovPointResult(
        dict(point), labels["plus"], labels["minus"], blocks["plus"], blocks["minus"]
    )
