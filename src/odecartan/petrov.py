"""Petrov classification of the Weyl tensor in split signature.

The Weyl endomorphism W acts on the 6-space of 2-forms; the Hodge star
(orientation dx^dy^dz^dt) squares to +1 there and is trace-free, so its
+1 and -1 eigenspaces are real and 3-dimensional.  Since W commutes with
the star, X = W(I ± star) is twice W's block on one eigenspace and zero on
the other, and each half is labelled from X on the whole 6-space, with no
eigenspace basis: the traces of X^2 and X^3 give the block's
characteristic polynomial (Newton's identities), its discriminant decides
root multiplicity, and the Jordan structure is read from whether X^2 or
(X - r)(X - s)X vanishes.

All of that is done once, symbolically, by ``label_rule``: det G must be
a positive rational square constant, star^2 = I and [W, star] = 0 must
hold identically, and the traces of X^2 and X^3 must be rational
constants.  Each half's label is then a constant, or it is decided by
whether a few expressions vanish at the point.  For the cubic family the
caller derives the rule with the generic member's tensors and keeps it in
``report._generic_evidence``: the plus half is D everywhere, and the
minus half is D exactly where R = -A'_x t + B'_y z + A'_xx - B'_yy
vanishes and II elsewhere (split signature Petrov types as in P. R. Law,
"Neutral Einstein metrics in four dimensions", J. Math. Phys. 32, 1991).
``classify_at_point`` evaluates a rule it is given: it only checks, by
the rule's probes, that the tensors can be evaluated at the point, and
reads the labels.

A family member's tensors are never built.  ``LabelRule.put_in`` puts
the jets of A' and B', taken from the member's A and B
(``jet_expressions``, the helper the family's closed forms read their
jets from too), into the generic rule once per request: the member's
own rule tests its R at a point, and probes only the jets whose
denominators are not constant.
"""

from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .errors import PetrovDegeneracyError, SingularEvaluationError

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# Levi-Civita sign eps_abmn of each pair (a, b) followed by its complement
# (m, n) = PAIRS[5 - i], the only entries the Hodge star reads
_STAR_SIGN = (1, -1, 1, 1, -1, 1)


def jet_expressions(symbols, functions):
    """{rendered name: expression} for each jet symbol in ``symbols``
    (coordinates are skipped): its function's expression in ``functions``
    (keyed by function name), differentiated along the jet's index.  Each
    derivative is taken once, from the jet one index shorter.  The Petrov
    stage asks for the jets of a rule (``LabelRule.symbols``), and a family
    request for those of the generic family's closed forms, which
    ``Expression.put_in`` puts in."""
    derived = {}

    def jet(name, index):
        expr = derived.get((name, index))
        if expr is None:
            expr = jet(name, index[:-1]).differentiate(index[-1]) if index else functions[name]
            derived[name, index] = expr
        return expr

    return {s.render(): jet(s.name, s.index) for s in symbols if not s.is_coordinate}


def _product(a, b):
    zero = a[0][0].with_value(0)
    return [
        [sum((a[i][k] * b[k][j] for k in range(6) if not a[i][k].is_zero), zero) for j in range(6)]
        for i in range(6)
    ]


def hodge_operators(tensors):
    """(W, star): the Weyl endomorphism and the Hodge star on 2-forms as
    6x6 matrices of expressions.

    Basis: coordinate 2-forms dx^a ∧ dx^b over the increasing pairs.  With
    the 2x2 minors G[mn][cd] = g^mc g^nd - g^nc g^md of g^-1, W^ab_cd is
    Σ_{m<n} W_abmn G[mn][cd] (W_abmn = -W_abnm), and the star's entry is
    vol · ε_abmn G[mn][cd] for the pair (m, n) complementary to (a, b),
    with vol = sqrt(det G).  Raises PetrovDegeneracyError unless det G is
    a positive rational square.
    """
    det = tensors.det
    if not det.is_rational_constant or det.const_value() <= 0:
        raise PetrovDegeneracyError("det G is not a positive rational constant")
    value = det.const_value()
    rn, rd = isqrt(value.numerator), isqrt(value.denominator)
    if rn * rn != value.numerator or rd * rd != value.denominator:
        raise PetrovDegeneracyError("det G is not a perfect rational square")
    vol = Fraction(rn, rd)
    g = tensors.ginv
    minors = [[g[m][c] * g[n][d] - g[n][c] * g[m][d] for c, d in PAIRS] for m, n in PAIRS]
    zero = det.with_value(0)
    weyl = [
        [
            sum(
                (tensors.weyl_down[a][b][m][n] * minors[p][col] for p, (m, n) in enumerate(PAIRS)),
                zero,
            )
            for col in range(6)
        ]
        for a, b in PAIRS
    ]
    star = [[vol * sign * e for e in minors[5 - i]] for i, sign in enumerate(_STAR_SIGN)]
    return weyl, star


def _nonzero_entries(matrix):
    """The distinct nonzero entries of ``matrix``: it vanishes at a point
    exactly where all of them do."""
    return tuple(dict.fromkeys(e for row in matrix for e in row if not e.is_zero))


def _half_rule(x):
    """Label rule of one half X = W(I ± star): (steps, default), where the
    label at a point is that of the first step (tests, label) whose tests
    all vanish there, or ``default``.  A step with no tests always holds,
    so it ends the rule."""
    if not _nonzero_entries(x):
        return (), "O"
    if not sum((x[i][i] for i in range(6)), x[0][0].with_value(0)).is_zero:
        raise PetrovDegeneracyError("block is not trace-free")
    x2 = _product(x, x)
    t2 = sum((x2[i][i] for i in range(6)), x[0][0].with_value(0))
    t3 = sum((x2[i][j] * x[j][i] for i in range(6) for j in range(6)), t2.with_value(0))
    if not (t2.is_rational_constant and t3.is_rational_constant):
        raise PetrovDegeneracyError("the traces of X^2 and X^3 are not constant")
    t2, t3 = t2.const_value(), t3.const_value()
    # char(la) = la^3 + p la + q of the nonzero block, with p = e2 = -t2/2
    # and q = -e3 = -t3/3 by Newton's identities; the discriminant
    # -4p^3 - 27q^2 is (t2^3 - 6 t3^2)/2
    if t2 ** 3 != 6 * t3 ** 2:
        return (), "I"
    if t2 == 0:  # then t3 == 0: triple root 0, and X may vanish at a point
        steps = [(_nonzero_entries(x), "O"), (_nonzero_entries(x2), "N")]
        default = "III"
    else:
        # double root r = -t3/t2 and simple root s = -2r, both nonzero; the
        # block is diagonalizable iff (X - r)(X - s) vanishes on it, and the
        # trailing factor X kills the zero block:
        # t2^2 (X - r)(X - s) X = t2^2 X^3 - t2 t3 X^2 - 2 t3^2 X
        x3 = _product(x2, x)
        c3, c2, c1 = t2 * t2, -t2 * t3, -2 * t3 * t3
        test = [[c3 * u + c2 * v + c1 * w for u, v, w in zip(*rows)] for rows in zip(x3, x2, x)]
        steps, default = [(_nonzero_entries(test), "D")], "II"
    for i, (tests, label) in enumerate(steps):
        if not tests:
            return tuple(steps[:i]), label
    return tuple(steps), default


class LabelRule(namedtuple("LabelRule", "probes plus minus")):
    """Petrov labels of curvature tensors as a rule to evaluate at points.

    ``probes`` are the entries of g^-1, det G and W, in the order a point
    evaluation reads them, that read a symbol or have a non-constant
    denominator no earlier entry does: where they evaluate, every entry
    does, and where one fails, it fails as the full evaluation would.
    A member's rule from ``put_in`` probes its jets instead.  ``plus``
    and ``minus`` are the two halves' (steps, default) from
    ``_half_rule``."""

    __slots__ = ()

    def symbols(self):
        """The symbols the probes read.  A rule from ``label_rule`` probes
        every symbol its entries read, so its jets are the ones
        ``jet_expressions`` must give ``put_in``."""
        return {s for e in self.probes for s in e.symbols()}

    def put_in(self, jets):
        """The member's own rule: each test with ``jets`` (``{rendered
        name: Expression}``, from ``jet_expressions``) put in once, all
        sharing one ``powers`` dict, and as probes the jets whose
        denominators are not constant, in ``jets`` order.  A test's
        denominator divides a product of the jets' denominators, so where
        the probes evaluate every test does, and a point is skipped where
        a jet's value is, with the same reason.  Raises ValueError if a
        probe of this rule has a non-constant denominator, whose pole the
        member's probes would not see."""
        if not all(e.den.is_const for e in self.probes):
            raise ValueError("a probe of the rule has a non-constant denominator")
        powers = {}
        halves = [
            (tuple((tuple(t.put_in(jets, powers) for t in ts), label) for ts, label in steps), d)
            for steps, d in (self.plus, self.minus)
        ]
        return LabelRule(tuple(e for e in jets.values() if not e.den.is_const), *halves)


def label_rule(tensors):
    """The ``LabelRule`` of ``tensors``, derived symbolically; raises
    PetrovDegeneracyError if one of its premises fails."""
    weyl, star = hodge_operators(tensors)
    one, zero = tensors.det.with_value(1), tensors.det.with_value(0)
    if _product(star, star) != [[one if i == j else zero for j in range(6)] for i in range(6)]:
        raise PetrovDegeneracyError("Hodge star does not square to +1")
    ws = _product(weyl, star)
    if ws != _product(star, weyl):
        raise PetrovDegeneracyError("Weyl operator does not commute with the Hodge star")
    plus, minus = (
        _half_rule([[w + sign * v for w, v in zip(wrow, vrow)] for wrow, vrow in zip(weyl, ws)])
        for sign in (1, -1)
    )
    probes, names, dens = [], set(), set()
    entries = (
        [e for row in tensors.ginv for e in row]
        + [tensors.det]
        + [tensors.weyl_down[a][b][m][n] for a, b in PAIRS for m, n in PAIRS]
    )
    for e in entries:
        den = set() if e.den.is_const else {e.den}
        if not (e.symbols() <= names and den <= dens):
            names |= e.symbols()
            dens |= den
            probes.append(e)
    return LabelRule(tuple(probes), plus, minus)


def _label(half, values, powers):
    steps, default = half
    for tests, label in steps:
        if all(t.evaluate(values, powers) == 0 for t in tests):
            return label
    return default


class PetrovPointResult(namedtuple("PetrovPointResult", "point label_plus label_minus")):
    """Petrov labels of the Weyl endomorphism at one exact rational point
    (a dict) on the +1 ("self-dual") and -1 ("anti-self-dual") Hodge
    eigenspaces."""

    __slots__ = ()

    @property
    def unordered(self):
        return frozenset((self.label_plus, self.label_minus))


def classify_at_point(rule, point):
    """Petrov labels at ``point`` from ``rule``, a ``LabelRule``: of a
    family member when ``rule`` is the generic rule with the member's
    jets put in (``LabelRule.put_in``).  The probes and the tests share
    one ``powers`` dict, and each evaluation builds one ``Fraction``
    (``Expression.evaluate``).  Raises PetrovDegeneracyError when a probe
    or a test cannot be evaluated at the point: a symbol without a value
    or a vanishing denominator."""
    powers = {}
    try:
        for e in rule.probes:
            e.evaluate(point, powers)
        labels = _label(rule.plus, point, powers), _label(rule.minus, point, powers)
    except SingularEvaluationError as exc:
        raise PetrovDegeneracyError(str(exc)) from exc
    return PetrovPointResult(dict(point), *labels)
