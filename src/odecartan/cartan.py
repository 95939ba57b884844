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
constants built once per process.  The connection checks read that table,
with no second exterior derivative on the chart.
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
from .forms import Coframe, DifferentialForm, add_term, is_zero, pair_minors
from .poly import Poly
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
        rhs = rhs.on_chart(J2_CHART)
        fq = rhs.differentiate("q")
        fqq = fq.differentiate("q")
        if fqq.is_zero:
            raise DegenerateOdeError("F_qq is identically zero")
        self.F = rhs
        self.Fq, self.Fqq = fq, fqq
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

        return self._memo("structure", lambda: structure_from_jets(self))

    def tau(self):
        return self._memo("tau", lambda: tau_basis(self.coframe()))


def invariant_K(prob):
    """The scalar K built from the first and second partials of F."""
    F, Fq = prob.F, prob.Fq
    p, q = (Expression.coordinate(c, F.chart) for c in "pq")
    return (
        SIXTH
        * (
            Fq.differentiate("x")
            + p * Fq.differentiate("y")
            + q * Fq.differentiate("p")
            + F * prob.Fqq
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
    w1, w2, w3, w4 = base_coframe(prob, chart)
    dalpha = DifferentialForm.d_coord(chart, "alpha")
    dgamma = DifferentialForm.d_coord(chart, "gamma")
    alpha = Expression.coordinate("alpha", chart)
    gamma = Expression.coordinate("gamma", chart)

    Fq, Fqq = prob.Fq.on_chart(chart), prob.Fqq.on_chart(chart)
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


def _defining_slots():
    """{invariant: (equation, slot, const, mult)}: the first slot in pattern
    order whose coefficient is const + mult · that invariant, mult ±1; its
    value defines the invariant during extraction."""
    out = {}
    for eq, slots in STRUCTURE_PATTERN.items():
        for slot, (const, mults) in slots.items():
            if len(mults) == 1:
                ((name, mult),) = mults.items()
                if mult in (1, -1):
                    out.setdefault(name, (eq, slot, const, mult))
    return out


_DEFINING_SLOTS = _defining_slots()


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
    for name, (eq, slot, const, mult) in _DEFINING_SLOTS.items():
        v = tables[eq].get(slot, zero)
        if const:
            v = v - const
        values[name] = v if mult == 1 else -v

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
    the coefficient Expressions A, B, C.  ``problem`` must be the ODE of
    exactly these coefficients: ``family_invariants`` and
    ``curvature.family_metric`` keep what they build on it."""

    __slots__ = ()

    def coefficients_on(self, chart):
        return (
            self.A.on_chart(chart),
            self.B.on_chart(chart),
            self.C.on_chart(chart),
        )


def _depends_on(e, *coords):
    """Whether e (an ``Expression`` or a ``Poly``) reads a coordinate in
    ``coords`` or a jet of a function of one: on a reduced fraction the
    total derivative along a coordinate vanishes exactly when no such
    symbol occurs."""
    return any(c in s.reads for s in e.symbols() for c in coords)


@cache
def _family_q_terms():
    """3/p, 3q/p and 3/2 q^2/p: a member's F_qq, F_q and q part."""
    p, q = (Expression.coordinate(c, J2_CHART) for c in "pq")
    fqq = 3 / p
    return fqq, fqq * q, HALF * fqq * q * q


def family_detect(prob):
    """Match F against the reducible cubic form, or raise with a reason.

    Detection reads the canonical form and takes no derivative; an
    additive shift sigma(x,y) in the denominator p + sigma is reported,
    never removed.  Once F_qq = 3/p and F_q = 3q/p, R = F - 3/2 q^2/p reads
    no q, and its cubic coefficient A = R_ppp/6 reads neither p nor q
    exactly when R is a polynomial of degree at most 3 in p over a ring
    free of p: integrating A three times along p gives R = A p^3 + C p^2
    + B p + D with C, B, D free of p, and conversely.  Canonical form is
    unique, so R's reduced denominator then reads no p and its numerator's
    coefficients in p are those of A, C, B and D over it.
    """
    S = prob.Fqq
    if _depends_on(S, "q"):
        raise FamilyRejectionError(
            FamilyRejectionError.WRONG_Q_DEPENDENCE,
            "F is not quadratic in q",
        )
    fqq, fq, q_part = _family_q_terms()
    if S != fqq:
        shift = 3 / S - Expression.coordinate("p", J2_CHART)
        if _depends_on(shift, "p", "q"):
            raise FamilyRejectionError(
                FamilyRejectionError.WRONG_Q_DEPENDENCE,
                "the q^2 coefficient is not 3/(2p)",
            )
        raise FamilyRejectionError(
            FamilyRejectionError.SIGMA_TERM_PRESENT,
            f"sigma = {shift.render()} has not been normalized away",
        )
    if prob.Fq != fq:
        raise FamilyRejectionError(
            FamilyRejectionError.WRONG_Q_DEPENDENCE,
            "a term linear in q is present",
        )
    R = prob.F - q_part
    # the split takes out the coordinate p, but a jet of a function of p
    # can still occur in a coefficient or in the denominator
    coeffs = R.num.coeffs_in(J2_CHART.sym("p"))
    if (max(coeffs, default=0) > 3 or _depends_on(R.den, "p")
            or any(_depends_on(c, "p") for c in coeffs.values())):
        raise FamilyRejectionError(
            FamilyRejectionError.COEFFICIENT_DEPENDS_ON_PQ,
            "the cubic coefficient depends on p or q",
        )
    if 0 in coeffs:
        raise FamilyRejectionError(
            FamilyRejectionError.COEFFICIENT_DEPENDS_ON_PQ,
            "a remainder term outside A p^3 + C p^2 + B p is present",
        )
    A, C, B = (Expression(coeffs.get(k, Poly.zero()), R.den, J2_CHART) for k in (3, 2, 1))
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
    """Closed forms of k, n, e in the coordinates (x, y, z, t, alpha, p),
    built once per ``fd.problem`` and kept on it."""

    def build():
        chart = M_ADAPTED_CHART
        A, B, C = fd.coefficients_on(chart)
        alpha, p, z, t = (Expression.coordinate(c, chart) for c in ("alpha", "p", "z", "t"))
        k = -C / (4 * alpha ** 2 * p)
        n = (C.differentiate("y") - z * C - 2 * A.differentiate("x")) / (8 * alpha ** 3 * p)
        e = HALF * n + (t * C + 2 * B.differentiate("y") - C.differentiate("x")) / (
            16 * alpha ** 3 * p * p
        )
        return KneInvariants(k, n, e)

    return fd.problem._memo("family_invariants", build)


def family_structure(kne):
    """a..s of a cubic-family member from its closed forms ``kne``
    (``family_invariants``): k, n and e pulled back to the P chart by
    z = gamma/p, t = q/p + gamma (the inverse of ``adapted_chart_map``),
    every other invariant 0.  On ``generic_family()`` this is the committed
    generic table's a..s, an identity the suite proves; the generic
    member's denominators are monomials in alpha and p, so it holds for
    every member.  So a request reads it once per process, on
    ``family_invariants(generic_family())`` (``report._generic_closed_forms``),
    and puts its member's jets in; on a member it is the suite's oracle.
    ``to_adapted`` undoes this pullback for every k, n, e (proven in
    ``tests/test_cartan.py``), so the ``inv`` stage states
    ``matches_extraction`` without recomputing it."""
    gamma, p, q = (Expression.coordinate(c, P_CHART) for c in ("gamma", "p", "q"))
    mapping = {"z": gamma / p, "t": q / p + gamma}
    values = dict.fromkeys(STRUCTURE_NAMES, Expression.number(0, P_CHART))
    values.update((name, v.substitute(mapping, P_CHART)) for name, v in kne._asdict().items())
    return StructureFunctions(**values)


# -- the derived differential table -------------------------------------------


@cache
def tau_differential_table():
    """d(tau_i) in the tau^tau basis as ``{i: {(l, r): affine in a..s}}``
    with l < r: the structure pattern pushed through tau = M theta and the
    2x2 minors of M^-1.  It is exact for every F with F_qq ≠ 0: the
    chart extraction verifies all ninety pattern slots for its F, and
    regenerating the generic table verifies them once for every F.  Built
    on first use and shared for the life of the process: callers must not
    mutate it."""
    table = {}
    for i, row in enumerate(_TAU):
        slots = {}
        for eq, m in enumerate(row):
            if not m:
                continue
            for theta_slot, (const, mults) in STRUCTURE_PATTERN[eq].items():
                for slot, minor in _THETA_TO_TAU[theta_slot].items():
                    acc = slots.setdefault(slot, [Fraction(0), {}])
                    acc[0] += m * minor * const
                    for name, mult in mults.items():
                        add_term(acc[1], name, m * minor * mult)
        table[i] = {slot: (const, mults) for slot, (const, mults) in slots.items() if const or mults}
    return table


def _nonzero(coeffs):
    return {key: c for key, c in coeffs.items() if not is_zero(c)}
