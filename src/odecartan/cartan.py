"""The 6-manifold picture: invariant coframe, structure invariants, the
Einstein-reduction conditions, the cubic family and its invariants.

Everything here hangs off a third-order right-hand side F(x, y, p, q) with
F_qq not identically zero.  The invariant coframe is constructed in the
chart (x, y, p, q, alpha, gamma); its six exterior derivatives must fit a
fixed quadratic pattern whose thirteen scalar coefficients a..s are the
fiber-preserving invariants of the ODE.  The fit is overdetermined and is
verified slot by slot, which also polices the coframe construction itself.
Once the pattern holds, d(tau) for the null-adapted basis tau = M theta is
fixed too: it is the pattern pushed through the constant M, a table of
constants built once per process.  The closed-form differentials and the
connection checks read that table, with no second exterior derivative on
the chart.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache

from .errors import (
    DegenerateOdeError,
    FamilyRejectionError,
    StructureConsistencyError,
)
from .expression import Expression
from .forms import Coframe, DifferentialForm, add_term, is_zero, pair_minors, wedge_key, wedge_sum
from .symbols import J2_CHART, M_ADAPTED_CHART, P_CHART, Sym

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
SIXTH = Fraction(1, 6)

STRUCTURE_NAMES = ("a", "b", "c", "e", "f", "g", "h", "k", "l", "m", "n", "r", "s")

# Coframe positions: 0..3 the four horizontal forms, 4..5 the two
# connection forms.
_T1, _T2, _T3, _T4, _G1, _G2 = range(6)


class OdeProblem:
    """A third-order ODE right-hand side with the nondegeneracy F_qq ≠ 0.

    Inputs are expected in the normal form in which the second-derivative
    coefficient has no additive shift in p (sigma = 0); the toolkit checks
    and rejects rather than transforms (see ``family_detect``).
    """

    def __init__(self, rhs):
        if rhs.chart is not J2_CHART:
            rhs = rhs.on_chart(J2_CHART)
        fqq = rhs.differentiate("q").differentiate("q")
        if fqq.is_zero:
            raise DegenerateOdeError("F_qq is identically zero")
        self.F = rhs
        self.Fqq = fqq
        self._cache = {}

    def _memo(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def coframe(self):
        return self._memo("coframe", lambda: invariant_coframe(self))

    def structure(self):
        """a..s from the committed generic table, with no coframe.  The chart
        extraction, ``structure_functions`` on ``coframe()``, is the table's
        generator, the ``conn`` stage's pattern gate and the tests' oracle."""
        from .invariant_table import structure_from_jets

        return self._memo("structure", lambda: structure_from_jets(self.F))

    def tau(self):
        return self._memo("tau", lambda: tau_basis(self.coframe()))


def invariant_K(prob):
    """The scalar K built from the first and second partials of F."""
    F = prob.F
    Fq = F.differentiate("q")
    p, q = (Expression.coordinate(c, F.chart) for c in "pq")
    return (
        SIXTH
        * (
            Fq.differentiate("x")
            + p * Fq.differentiate("y")
            + q * Fq.differentiate("p")
            + F * F.differentiate("q").differentiate("q")
        )
        - Fraction(1, 9) * Fq * Fq
        - HALF * F.differentiate("p")
    )


def base_coframe(prob, chart=J2_CHART):
    """The four contact forms of the ODE on the second jet space."""
    F = prob.F.on_chart(chart)
    dx, dy, dp, dq = (DifferentialForm.d_coord(chart, c) for c in "xypq")
    p, q = (Expression.coordinate(c, chart) for c in "pq")
    return (
        dy - dx.scale(p),
        dp - dx.scale(q),
        dq - dx.scale(F),
        dx,
    )


def invariant_coframe(prob):
    """The six invariant 1-forms on the chart (x, y, p, q, alpha, gamma).

    Two display readings of the third form and the first connection form
    circulate; only one satisfies the structure-equation pattern, and the
    consistency check in ``structure_functions`` is the arbiter.  This is
    the reading that passes:

      * the third form carries the square of F_qq in its prefactor and
        groups the middle coefficient as (gamma - F_q/3);
      * the first connection form ends in  d(alpha)/alpha - gamma dx.

    The test suite builds the other reading (F_qq unsquared,
    (gamma - 1/3)F_q, and a -(gamma/alpha) d(alpha) tail) and shows that it
    fails the consistency check.
    """
    chart = P_CHART
    F = prob.F.on_chart(chart)
    w1, w2, w3, w4 = base_coframe(prob, chart)
    dalpha = DifferentialForm.d_coord(chart, "alpha")
    dgamma = DifferentialForm.d_coord(chart, "gamma")
    alpha = Expression.coordinate("alpha", chart)
    gamma = Expression.coordinate("gamma", chart)

    Fq = F.differentiate("q")
    Fp = F.differentiate("p")
    Fqq = Fq.differentiate("q")
    Fqy = Fq.differentiate("y")
    Fqqq = Fqq.differentiate("q")
    Fqqp = Fqq.differentiate("p")
    Fqqy = Fqq.differentiate("y")
    K = invariant_K(prob).on_chart(chart)
    Kq = K.differentiate("q")
    Kp = K.differentiate("p")

    theta1 = w1.scale(alpha)
    theta2 = (w2 + w1.scale(gamma)).scale(SIXTH * Fqq)

    theta3 = (
        w3 + w2.scale(gamma - THIRD * Fq) + w1.scale(HALF * gamma * gamma + K)
    ).scale(Fqq * Fqq / (36 * alpha))

    theta4 = w4.scale(6 * alpha / Fqq)

    omega1_w1 = (
        -Fqqq * gamma * gamma
        + (Fraction(2, 3) * Fqqq * Fq + THIRD * Fqq * Fqq + 2 * Fqqp) * gamma
        + Fqq * Kq
        + 2 * Fqqq * K
        - 2 * Fqqy
    ) / Fqq
    omega1 = w1.scale(omega1_w1) - w4.scale(gamma) + dalpha.scale(1 / alpha)

    omega2 = (
        w4.scale(-(SIXTH / alpha) * Fqq * (HALF * gamma * gamma + THIRD * Fq * gamma + K))
        + w2.scale(
            (SIXTH / alpha)
            * (-HALF * Fqqq * gamma * gamma + (THIRD * Fqqq * Fq + Fqqp) * gamma + Fqqq * K - Fqqy)
        )
        + w1.scale(
            (SIXTH / alpha)
            * (
                -HALF * Fqqq * gamma ** 3
                + (SIXTH * Fqq * Fqq + THIRD * Fqqq * Fq + Fqqp) * gamma * gamma
                + (Fqq * Kq - Fqqy + Fqqq * K) * gamma
                - THIRD * Fqq * Fqy
                - Fqq * Kp
                - THIRD * Fqq * Fq * Kq
                + THIRD * Fqq * Fqq * K
            )
        )
        + dgamma.scale(SIXTH * Fqq / alpha)
    )

    return Coframe([theta1, theta2, theta3, theta4, omega1, omega2])


# Expected pattern of the coframe differentials: for each of the six
# exterior derivatives, the coefficient of basis_i ∧ basis_j (i < j) is an
# affine function  const + Σ mult · invariant.  Slots not listed are zero.
_AFFINE = lambda const=0, **mults: (Fraction(const), {k: Fraction(v) for k, v in mults.items()})

STRUCTURE_PATTERN = {
    0: {
        (_T1, _G1): _AFFINE(-1),
        (_T2, _T4): _AFFINE(-1),
    },
    1: {
        (_T1, _G2): _AFFINE(-1),
        (_T2, _T3): _AFFINE(a=-1),
        (_T2, _T4): _AFFINE(b=-1),
        (_T3, _T4): _AFFINE(-1),
    },
    2: {
        (_T2, _G2): _AFFINE(-1),
        (_T3, _G1): _AFFINE(1),
        (_T2, _T3): _AFFINE(-2, c=2),
        (_T1, _T4): _AFFINE(e=-1),
        (_T3, _T4): _AFFINE(b=-2),
    },
    3: {
        (_T4, _G1): _AFFINE(-1),
        (_T1, _T4): _AFFINE(f=-1),
        (_T2, _T4): _AFFINE(2, c=-1),
        (_T3, _T4): _AFFINE(a=-1),
    },
    4: {
        (_T1, _G2): _AFFINE(2, c=-2),
        (_T4, _G2): _AFFINE(1),
        (_T1, _T2): _AFFINE(g=1),
        (_T1, _T3): _AFFINE(h=1),
        (_T1, _T4): _AFFINE(k=1),
        (_T2, _T4): _AFFINE(f=-1),
    },
    5: {
        (_G1, _G2): _AFFINE(-1),
        (_T3, _G2): _AFFINE(a=1),
        (_T4, _G2): _AFFINE(b=1),
        (_T1, _T2): _AFFINE(l=1),
        (_T1, _T3): _AFFINE(m=1),
        (_T1, _T4): _AFFINE(n=1),
        (_T2, _T3): _AFFINE(r=1),
        (_T2, _T4): _AFFINE(s=1),
        (_T3, _T4): _AFFINE(f=-1),
    },
}


def affine_value(affine, values):
    """const + Σ mult · values[name]: a Fraction while no term is added."""
    value, mults = affine
    for name, mult in mults.items():
        if mult:
            value = value + mult * values[name]
    return value


# Slot that defines each invariant during extraction (equation, slot, solver)
_DEFINING_SLOTS = {
    "a": (1, (_T2, _T3), lambda v: -v),
    "b": (1, (_T2, _T4), lambda v: -v),
    "c": (3, (_T2, _T4), lambda v: 2 - v),
    "e": (2, (_T1, _T4), lambda v: -v),
    "f": (3, (_T1, _T4), lambda v: -v),
    "g": (4, (_T1, _T2), lambda v: v),
    "h": (4, (_T1, _T3), lambda v: v),
    "k": (4, (_T1, _T4), lambda v: v),
    "l": (5, (_T1, _T2), lambda v: v),
    "m": (5, (_T1, _T3), lambda v: v),
    "n": (5, (_T1, _T4), lambda v: v),
    "r": (5, (_T2, _T3), lambda v: v),
    "s": (5, (_T2, _T4), lambda v: v),
}


class StructureFunctions(namedtuple("StructureFunctions", STRUCTURE_NAMES)):
    """The thirteen scalar invariants, as expressions on the 6-chart."""

    __slots__ = ()

    def all_zero(self):
        return all(v.is_zero for v in self)


def structure_functions(cf):
    """Extract a..s from the coframe ``cf`` and verify the full
    overdetermined pattern.

    Raises StructureConsistencyError when any of the ninety coefficient
    slots disagrees with the pattern; a mismatch means the coframe in use
    does not satisfy its defining structure equations.
    """
    tables = [cf.expand_2(f.exterior_derivative()) for f in cf.forms]
    zero = Expression.number(0, cf.chart)

    values = {}
    for name, (eq, slot, solve) in _DEFINING_SLOTS.items():
        values[name] = solve(tables[eq].get(slot, zero))

    mismatches = []
    for eq in range(6):
        pattern = STRUCTURE_PATTERN[eq]
        for i in range(6):
            for j in range(i + 1, 6):
                actual = tables[eq].get((i, j), zero)
                residual = actual - affine_value(pattern.get((i, j), (0, {})), values)
                if not residual.is_zero:
                    mismatches.append(((eq, i, j), residual))
    if mismatches:
        (eq, i, j), res = mismatches[0]
        raise StructureConsistencyError(
            f"{len(mismatches)} slot(s) off the structure pattern; first: "
            f"equation {eq}, slot ({i},{j}), residual {res.render()}"
        )
    return StructureFunctions(**values)


# The constant change of basis tau = M theta: _TAU[i][a] is the coefficient
# of coframe form a in (tau1, tau2, tau3, tau4, gamma1, gamma2)[i].
_TAU = (
    (2, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 2, 0, 0, 1),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 2, 0, 0, 1, 0),
)

# Its inverse: _TAU_INV[a][i] is the coefficient of tau form i in coframe
# form a (theta1 = (tau1 - tau4)/2, theta2 = (gamma2 - gamma1)/2, ...).
_TAU_INV = (
    (HALF, 0, 0, -HALF, 0, 0),
    (0, 0, 0, 0, -HALF, HALF),
    (0, -HALF, HALF, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 1, 0, 0, 0, 0),
)

# theta_b ∧ theta_c = Σ m · tau_l ∧ tau_r, with m the 2x2 minors of M^-1.
_THETA_TO_TAU = pair_minors([[(l, v) for l, v in enumerate(r) if v] for r in _TAU_INV])


def tau_basis(cf):
    """Constant-coefficient change of basis to the null-adapted coframe:
    the six forms (tau1, tau2, tau3, tau4, gamma1, gamma2) as a tuple."""
    zero = DifferentialForm.zero(cf.chart, 1)
    return tuple(
        sum((f if m == 1 else f.scale(m) for f, m in zip(cf.forms, row) if m), zero)
        for row in _TAU
    )


class ConditionVerdict(namedtuple("ConditionVerdict", "name residual")):
    """One named condition and its residual Expression."""

    __slots__ = ()

    @property
    def holds(self):
        return self.residual.is_zero


class ConditionReport(namedtuple("ConditionReport", "verdicts")):
    """The ten scalar conditions under which the coframe differentials
    reduce to a metric connection with horizontal curvature."""

    __slots__ = ()

    @property
    def all_hold(self):
        return all(v.holds for v in self.verdicts)


def check_einstein_conditions(sf):
    named = [
        ("c = 0", sf.c),
        ("l = 0", sf.l),
        ("r = 0", sf.r),
        ("s = 0", sf.s),
        ("m = 0", sf.m),
        ("a = 0", sf.a),
        ("g = 0", sf.g),
        ("f + b = 0", sf.f + sf.b),
        ("b = 0", sf.b),
        ("h = 0", sf.h),
    ]
    return ConditionReport(tuple(ConditionVerdict(n, r) for n, r in named))


# -- the cubic family -------------------------------------------------------


class FamilyData(namedtuple("FamilyData", "problem A B C")):
    """Right-hand side of the reducible form
    (3/2) q^2/p + A(x,y) p^3 + C(x,y) p^2 + B(x,y) p: its OdeProblem and
    the coefficient Expressions A, B, C."""

    __slots__ = ()

    def coefficients_on(self, chart):
        return (
            self.A.on_chart(chart),
            self.B.on_chart(chart),
            self.C.on_chart(chart),
        )


def _depends_on(e, *coords):
    return any(not e.differentiate(c).is_zero for c in coords)


def family_detect(prob):
    """Match F against the reducible cubic form, or raise with a reason.

    Detection is syntactic on the canonical form; an additive shift
    sigma(x,y) in the denominator p + sigma is reported, never removed.
    """
    F = prob.F
    q = Expression.coordinate("q", J2_CHART)
    p = Expression.coordinate("p", J2_CHART)

    S = prob.Fqq
    if _depends_on(S, "q"):
        raise FamilyRejectionError(
            FamilyRejectionError.WRONG_Q_DEPENDENCE,
            "F is not quadratic in q",
        )
    shift = 3 / S - p
    if not shift.is_zero:
        if _depends_on(shift, "p", "q"):
            raise FamilyRejectionError(
                FamilyRejectionError.WRONG_Q_DEPENDENCE,
                "the q^2 coefficient is not 3/(2p)",
            )
        raise FamilyRejectionError(
            FamilyRejectionError.SIGMA_TERM_PRESENT,
            f"sigma = {shift.render()} has not been normalized away",
        )
    linear = F.differentiate("q") - S * q
    if not linear.is_zero:
        raise FamilyRejectionError(
            FamilyRejectionError.WRONG_Q_DEPENDENCE,
            "a term linear in q is present",
        )
    R = F - Fraction(3, 2) * q * q / p

    A = SIXTH * R.differentiate("p").differentiate("p").differentiate("p")
    if _depends_on(A, "p", "q"):
        raise FamilyRejectionError(
            FamilyRejectionError.COEFFICIENT_DEPENDS_ON_PQ,
            "the cubic coefficient depends on p or q",
        )
    C = HALF * (R.differentiate("p").differentiate("p") - 6 * A * p)
    if _depends_on(C, "p", "q"):
        raise FamilyRejectionError(
            FamilyRejectionError.COEFFICIENT_DEPENDS_ON_PQ,
            "the quadratic coefficient depends on p or q",
        )
    B = R.differentiate("p") - 3 * A * p * p - 2 * C * p
    if _depends_on(B, "p", "q"):
        raise FamilyRejectionError(
            FamilyRejectionError.COEFFICIENT_DEPENDS_ON_PQ,
            "the linear coefficient depends on p or q",
        )
    if not (R - (A * p ** 3 + C * p * p + B * p)).is_zero:
        raise FamilyRejectionError(
            FamilyRejectionError.COEFFICIENT_DEPENDS_ON_PQ,
            "a remainder term outside A p^3 + C p^2 + B p is present",
        )
    return FamilyData(prob, A, B, C)


# Names of the opaque A, B and C in ``generic_family``: ``SymbolTable.declare``
# never accepts them, so they cannot meet a request's own functions.
GENERIC_COEFFICIENTS = ("A'", "B'", "C'")


@cache
def generic_family():
    """``FamilyData`` of F' = (3/2) q^2/p + A' p^3 + C' p^2 + B' p, with A',
    B', C' opaque in x and y.  Its denominators are monomials in alpha and
    p, so putting in a member's A, B, C is a ring homomorphism and an
    identity verified for F' holds for every member.  Built on first use
    and shared for the life of the process: callers must not mutate it."""
    A, B, C = (Expression.from_sym(Sym(n, ("x", "y")), J2_CHART) for n in GENERIC_COEFFICIENTS)
    p, q = (Expression.coordinate(c, J2_CHART) for c in "pq")
    rhs = Fraction(3, 2) * q * q / p + A * p ** 3 + C * p * p + B * p
    return FamilyData(OdeProblem(rhs), A, B, C)


def adapted_chart_map():
    """Substitution realizing the re-coordinatization gamma = z p,
    q = p (t - z p) of the 6-chart."""
    z, t, p = (Expression.coordinate(c, M_ADAPTED_CHART) for c in "ztp")
    return {"gamma": z * p, "q": p * (t - z * p)}


def to_adapted(obj):
    """Pull a P-chart expression or form over to the adapted chart."""
    mapping = adapted_chart_map()
    if isinstance(obj, DifferentialForm):
        return obj.pullback(mapping, M_ADAPTED_CHART)
    return obj.substitute(mapping, M_ADAPTED_CHART)


class KneInvariants(namedtuple("KneInvariants", "k n e")):
    """The three surviving invariants of the cubic family, on the adapted
    chart where their closed forms live."""

    __slots__ = ()

    def all_zero(self):
        return all(v.is_zero for v in self)


def family_invariants(fd):
    """Closed forms of k, n, e in the coordinates (x, y, z, t, alpha, p)."""
    chart = M_ADAPTED_CHART
    A, B, C = fd.coefficients_on(chart)
    alpha, p, z, t = (Expression.coordinate(c, chart) for c in ("alpha", "p", "z", "t"))
    k = -C / (4 * alpha ** 2 * p)
    n = (C.differentiate("y") - z * C - 2 * A.differentiate("x")) / (8 * alpha ** 3 * p)
    e = HALF * n + (t * C + 2 * B.differentiate("y") - C.differentiate("x")) / (
        16 * alpha ** 3 * p * p
    )
    return KneInvariants(k, n, e)


def family_structure(kne):
    """a..s of a cubic-family member from its closed forms ``kne``
    (``family_invariants``): k, n and e pulled back to the P chart by
    z = gamma/p, t = q/p + gamma (the inverse of ``adapted_chart_map``),
    every other invariant 0.  On ``generic_family()`` this is the committed
    generic table's a..s, an identity the suite proves; the generic
    member's denominators are monomials in alpha and p, so it holds for
    every member."""
    gamma, p, q = (Expression.coordinate(c, P_CHART) for c in ("gamma", "p", "q"))
    mapping = {"z": gamma / p, "t": q / p + gamma}
    values = dict.fromkeys(STRUCTURE_NAMES, Expression.number(0, P_CHART))
    values.update((name, v.substitute(mapping, P_CHART)) for name, v in kne._asdict().items())
    return StructureFunctions(**values)


def family_invariants_residuals(fd, kne, sf=None):
    """The closed forms ``kne`` (``family_invariants(fd)``) minus the
    invariants ``sf``, pulled to the adapted chart; all three must vanish.
    ``sf`` defaults to ``fd.problem.structure()``, the committed generic
    table, so this checks the closed forms against it.  The ``inv`` stage
    passes ``family_structure(kne)``, for which the residuals vanish by
    the identity the suite proves on ``generic_family()``."""
    if sf is None:
        sf = fd.problem.structure()
    return {name: to_adapted(getattr(sf, name)) - value for name, value in kne._asdict().items()}


# -- full and reduced differential tables -----------------------------------

# Exact transcription of the closed-form differentials of the tau basis for
# arbitrary admissible F.  Entries: (affine coefficient, left, right) for
# coefficient · basis_left ∧ basis_right.
APPENDIX_TABLE = {
    _T1: [
        (_AFFINE(1), _G1, _T1),
        (_AFFINE(c=HALF), _G1, _T4),
        (_AFFINE(c=-HALF), _G2, _T4),
        (_AFFINE(f=HALF), _T4, _T1),
        (_AFFINE(a=-HALF), _T4, _T2),
        (_AFFINE(a=HALF), _T4, _T3),
    ],
    _T2: [
        (_AFFINE(l=Fraction(1, 4)), _G1, _T1),
        (_AFFINE(-1, r=Fraction(1, 4)), _G1, _T2),
        (_AFFINE(r=Fraction(-1, 4)), _G1, _T3),
        (_AFFINE(l=Fraction(-1, 4), s=-HALF), _G1, _T4),
        (_AFFINE(l=Fraction(-1, 4)), _G2, _T1),
        (_AFFINE(r=Fraction(-1, 4)), _G2, _T2),
        (_AFFINE(r=Fraction(1, 4)), _G2, _T3),
        (_AFFINE(l=Fraction(1, 4), s=HALF), _G2, _T4),
        (_AFFINE(m=Fraction(1, 4)), _T2, _T1),
        (_AFFINE(m=Fraction(-1, 4)), _T3, _T1),
        (_AFFINE(n=-HALF), _T4, _T1),
        (_AFFINE(a=HALF), _T3, _T2),
        (_AFFINE(m=Fraction(1, 4), f=-HALF, b=1), _T4, _T2),
        (_AFFINE(f=HALF, m=Fraction(-1, 4)), _T4, _T3),
    ],
    _T3: [
        (_AFFINE(l=Fraction(1, 4)), _G1, _T1),
        (_AFFINE(c=1, r=Fraction(1, 4)), _G1, _T2),
        (_AFFINE(c=-1, r=Fraction(-1, 4)), _G1, _T3),
        (_AFFINE(l=Fraction(-1, 4), s=-HALF), _G1, _T4),
        # sign forced by the structure equations (mirrors the second row's
        # -l/4 entry); see tests/test_cartan.py::test_appendix_is_derived
        (_AFFINE(l=Fraction(-1, 4)), _G2, _T1),
        (_AFFINE(c=-1, r=Fraction(-1, 4)), _G2, _T2),
        (_AFFINE(-1, c=1, r=Fraction(1, 4)), _G2, _T3),
        (_AFFINE(l=Fraction(1, 4), s=HALF), _G2, _T4),
        (_AFFINE(m=Fraction(1, 4)), _T2, _T1),
        (_AFFINE(m=Fraction(-1, 4)), _T3, _T1),
        (_AFFINE(e=1, n=-HALF), _T4, _T1),
        (_AFFINE(a=HALF), _T3, _T2),
        (_AFFINE(m=Fraction(1, 4), b=-1, f=-HALF), _T4, _T2),
        (_AFFINE(b=2, f=HALF, m=Fraction(-1, 4)), _T4, _T3),
    ],
    _T4: [
        (_AFFINE(c=HALF), _G1, _T4),
        (_AFFINE(1, c=-HALF), _G2, _T4),
        (_AFFINE(f=HALF), _T4, _T1),
        (_AFFINE(a=-HALF), _T4, _T2),
        (_AFFINE(a=HALF), _T4, _T3),
    ],
    _G1: [
        (_AFFINE(g=Fraction(1, 4)), _G1, _T1),
        (_AFFINE(f=HALF, g=Fraction(-1, 4)), _G1, _T4),
        (_AFFINE(g=Fraction(-1, 4)), _G2, _T1),
        (_AFFINE(g=Fraction(1, 4), f=-HALF), _G2, _T4),
        (_AFFINE(-1, h=Fraction(1, 4), c=1), _T2, _T1),
        (_AFFINE(h=Fraction(-1, 4)), _T3, _T1),
        (_AFFINE(k=-HALF), _T4, _T1),
        (_AFFINE(h=Fraction(1, 4), c=1), _T4, _T2),
        (_AFFINE(h=Fraction(-1, 4)), _T4, _T3),
    ],
    _G2: [
        (_AFFINE(g=Fraction(1, 4)), _G1, _T1),
        (_AFFINE(a=-HALF), _G1, _T2),
        (_AFFINE(a=HALF), _G1, _T3),
        (_AFFINE(b=1, f=HALF, g=Fraction(-1, 4)), _G1, _T4),
        (_AFFINE(g=Fraction(-1, 4)), _G2, _T1),
        (_AFFINE(a=HALF), _G2, _T2),
        (_AFFINE(a=-HALF), _G2, _T3),
        (_AFFINE(g=Fraction(1, 4), b=-1, f=-HALF), _G2, _T4),
        (_AFFINE(h=Fraction(1, 4), c=1), _T2, _T1),
        (_AFFINE(h=Fraction(-1, 4)), _T3, _T1),
        (_AFFINE(k=-HALF), _T4, _T1),
        (_AFFINE(h=Fraction(1, 4), c=1), _T4, _T2),
        (_AFFINE(1, h=Fraction(-1, 4)), _T4, _T3),
    ],
}

def _restricted(table, keep):
    """``table`` with the multipliers of the invariants in ``keep`` only:
    rows that share a slot merged, oriented left < right, and zero rows
    dropped."""
    out = {}
    for i, rows in table.items():
        slots = {}
        for (const, mults), left, right in rows:
            sign, slot = wedge_key((left,), (right,))
            acc = slots.setdefault(slot, [Fraction(0), {}])
            acc[0] += sign * const
            for name in keep:
                add_term(acc[1], name, sign * mults.get(name, 0))
        out[i] = [
            ((const, mults), left, right)
            for (left, right), (const, mults) in slots.items()
            if const or mults
        ]
    return out


# Differentials once the ten reduction conditions hold: they zero every
# invariant except k, n and e.
REDUCED_TABLE = _restricted(APPENDIX_TABLE, ("k", "n", "e"))

# Differentials of the maximally symmetric model (all invariants zero),
# exhibiting the product Lie-algebra structure.
FLAT_TABLE = _restricted(APPENDIX_TABLE, ())


@cache
def tau_differential_table():
    """d(tau_i) in the tau^tau basis as ``{i: {(l, r): affine in a..s}}``
    with l < r: the structure pattern pushed through tau = M theta and the
    2x2 minors of M^-1.  It is exact for every F with F_qq ≠ 0: the
    chart extraction verifies all ninety pattern slots for its F, and
    regenerating the generic table verifies them once for every F.  Built
    on first use and shared for the life of the process: callers must not
    mutate it."""
    rows = {
        i: [
            ((m * minor * const, {n: m * minor * v for n, v in mults.items()}), l, r)
            for eq, m in enumerate(row)
            if m
            for theta_slot, (const, mults) in STRUCTURE_PATTERN[eq].items()
            for (l, r), minor in _THETA_TO_TAU[theta_slot].items()
        ]
        for i, row in enumerate(_TAU)
    }
    return {
        i: {(l, r): affine for affine, l, r in merged}
        for i, merged in _restricted(rows, STRUCTURE_NAMES).items()
    }


def _nonzero(coeffs):
    return {key: c for key, c in coeffs.items() if not is_zero(c)}


def residual_table(table):
    """d(tau_i) from ``tau_differential_table`` minus ``table``'s rows (a row
    with its wedge reversed is negated), merged per tau^tau slot: the
    residual of each slot as an affine map in a..s."""
    derived = tau_differential_table()
    return _restricted(
        {
            i: [(aff, l, r) for (l, r), aff in derived[i].items()]
            + [(aff, right, left) for aff, left, right in rows]
            for i, rows in table.items()
        },
        STRUCTURE_NAMES,
    )


@cache
def _appendix_residual_table():
    """``residual_table(APPENDIX_TABLE)``, merged once per process.  It has
    no rows: the appendix is the derived table (``test_appendix_is_derived``)."""
    return residual_table(APPENDIX_TABLE)


def differential_residuals(prob, residuals, sf=None):
    """d(tau_i) minus the tabulated right-hand side, for each tau form:
    ``residuals`` (from ``residual_table``) evaluated on the invariants
    ``sf``, by default ``prob.structure()``.  A nonzero coefficient becomes
    a chart form Σ c · tau_l ∧ tau_r through ``prob.tau()``; a residual
    with none is the zero 2-form on the 6-chart.
    """
    if sf is None:
        sf = prob.structure()
    values = sf._asdict()
    out = []
    for i in range(6):
        coeffs = _nonzero({(l, r): affine_value(aff, values) for aff, l, r in residuals[i]})
        out.append(
            wedge_sum(prob.tau(), coeffs)
            if coeffs
            else DifferentialForm.zero(P_CHART, 2)
        )
    return out


def verify_appendix(prob, sf=None):
    """Residuals of the six closed-form differentials for arbitrary F,
    read from ``tau_differential_table``; ``sf`` as in
    ``differential_residuals``."""
    return differential_residuals(prob, _appendix_residual_table(), sf)
