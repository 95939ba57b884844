"""Checks that only the tests use: chart-level oracles and property
residuals.

The connection oracle is the chart-level path: it builds both connections
as matrices of 1-forms on the adapted chart and computes torsion,
dGamma + Gamma ∧ Gamma, expansions and the Ricci contraction with the
chart's exterior derivative, wedge and ``Coframe.expand_2``.  The program
reads the same checks as coefficient algebra in the tau ∧ tau basis
(``odecartan.connection``); the tests compare the two form by form.

Two Petrov oracles check the program's label rule (``odecartan.petrov``),
which the generic record (``report._generic_evidence``) derives
symbolically once per process.  The 6x6 oracle is
the program's former point path: W and the Hodge star evaluated to exact
6x6 matrices at each point and each half labelled from the traces of its
powers (``point_labels``).  The eigenspace oracle solves an exact basis
of each Hodge eigenspace and the 3x3 block of the Weyl operator on it.

The family stages read one member with opaque A', B', C'
(``cartan.generic_family``), whose evidence ``report._generic_evidence``
builds once per process.  Each of their report sections is checked against
the request's own path, which the program no longer takes: the Einstein and
Petrov sections against the specialised metric's own curvature, classified
by the 6x6 oracle (the program reads the generic curvature tensors' label
rule at jet-extended points), the metric and connection sections against
``metric_from_family``, its metric's determinant and both connection
reports on the member's own ``FamilyData`` (the program reads the generic
member's residuals).

The cross-check of the family's closed forms k, n, e against the
committed table (``family_invariants_residuals``) lives here too, since
no request reads it.  So does the paper's appendix: its closed-form
differentials of the tau basis as transcribed by hand (``APPENDIX_TABLE``),
that table restricted to the reduced and the flat case (``REDUCED_TABLE``,
``FLAT_TABLE``), and their oracle (``chart_level_residuals``), which takes
d(tau_i) on the chart with the real exterior derivative and subtracts the
table's wedges of tau forms.  The program derives the same table from the
structure pattern (``cartan.tau_differential_table``); the suite proves
the two equal.

The rejected display reading of the invariant coframe is built here too
(``printed_display_coframe``), so the tests can show that the structure
pattern refuses it.

The family detector by calculus (``derivative_family_detect``) is the one
the program took before it read the cubic family off F's canonical form:
A = R_ppp/6 with R = F - 3/2 q^2/p, then C and B from R_pp and R_p.  The
tests compare ``cartan.family_detect`` with it.

The reduced-jet oracle (``reduced_jet_structure``) is the table path the
program took before its jets were factored: every jet a reduced
``Expression``, a coprime base over the jet denominators, and a
``Fraction`` walk over the table.  The tests compare the program's
``invariant_table.structure_from_jets`` with it.  Each invariant there is
reduced as the table path reduced it before its reduction was certified
(``normalized_over_base``): one ``_normalize`` of the whole fraction,
against which the tests check ``invariant_table._reduced``.
"""

import random
from fractions import Fraction
from math import isqrt, lcm

from odecartan.cartan import (
    _AFFINE,
    _G1,
    _G2,
    _T1,
    _T2,
    _T3,
    _T4,
    _depends_on,
    HALF,
    SIXTH,
    FamilyData,
    OdeProblem,
    StructureFunctions,
    base_coframe,
    family_detect,
    family_invariants,
    invariant_coframe,
    to_adapted,
)
from odecartan.connection import (
    BLOCK_METRIC,
    CARTAN_CONNECTION,
    METRIC_CONNECTION,
    CartanConnectionReport,
    MetricConnectionReport,
    cartan_connection_report,
    metric_connection_report,
)
from odecartan.curvature import (
    DIM,
    adapted_tau,
    curvature_tensors,
    einstein_residual,
    family_metric,
    metric_from_family,
)
from odecartan.errors import (
    ChartError,
    DegenerateOdeError,
    FamilyRejectionError,
    PetrovDegeneracyError,
    SingularEvaluationError,
)
from odecartan.expression import Expression
from odecartan.forms import Coframe, DifferentialForm
from odecartan.invariant_table import _generic_table, coprime_base, factor_over
from odecartan.linalg import invert_matrix
from odecartan.parse import parse_expression
from odecartan.petrov import PAIRS, _STAR_SIGN, PetrovPointResult
from odecartan.poly import Poly, monomial
from odecartan.symbols import J2_CHART, M_ADAPTED_CHART, P_CHART, SymbolTable

# -- the chart-level connection oracle ----------------------------------------


def _zero_form(degree=1):
    return DifferentialForm.zero(M_ADAPTED_CHART, degree)


def _coframe(prob):
    return Coframe(list(adapted_tau(prob)))


def connection_matrix(fd, table):
    """Gamma^i_j = Σ_a c · tau_a on the adapted chart, from a coefficient
    table in the format of ``METRIC_CONNECTION``."""
    prob = fd.problem
    forms = adapted_tau(prob)
    values = family_invariants(fd)._asdict()
    zero = Expression.number(0, M_ADAPTED_CHART)
    out = [[_zero_form() for _ in range(4)] for _ in range(4)]
    for (i, j), row in table.items():
        for a, (const, mults) in row.items():
            c = zero + const
            for name, mult in mults.items():
                c = c + mult * values[name]
            out[i][j] = out[i][j] + forms[a].scale(c)
    return out


def displayed_metric_connection(fd):
    """The displayed 4x4 matrix of metric connection 1-forms."""
    t1, _, _, t4, g1, g2 = adapted_tau(fd.problem)
    kne = family_invariants(fd)
    n, e = kne.n, kne.e
    off = t1.scale(-HALF * n) + t4.scale(e - HALF * n)
    zero = _zero_form()
    return [
        [-g1, zero, zero, zero],
        [zero, g1, zero, off],
        [-off, zero, g2, zero],
        [zero, zero, zero, -g2],
    ]


def displayed_cartan_connection(fd):
    """The displayed so(2,2)-valued connection in the tau basis."""
    t1, t2, t3, t4, g1, g2 = adapted_tau(fd.problem)
    zero = _zero_form()
    half_sum = (g1 + g2 + t4).scale(HALF)
    return [
        [-half_sum, zero, t1, t4.scale(-HALF)],
        [zero, half_sum, g2.scale(-1) + t3 - t4.scale(HALF), t2.scale(-HALF)],
        [t2.scale(HALF), t4.scale(HALF), (g1 - g2 - t4).scale(HALF), zero],
        [g2 - t3 + t4.scale(HALF), t1.scale(-1), zero, (g2 - g1 + t4).scale(HALF)],
    ]


def _matrix_wedge_product(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = None
            for k in range(n):
                term = a[i][k].wedge(b[k][j])
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def curvature_matrix(connection):
    """dGamma + Gamma ∧ Gamma for a matrix of 1-forms."""
    n = len(connection)
    wedge = _matrix_wedge_product(connection, connection)
    return [
        [connection[i][j].exterior_derivative() + wedge[i][j] for j in range(n)]
        for i in range(n)
    ]


def _lowered_symmetric_part(gamma):
    lowered = [
        [
            sum(
                (gamma[k][j].scale(BLOCK_METRIC[i][k]) for k in range(4)),
                _zero_form(),
            )
            for j in range(4)
        ]
        for i in range(4)
    ]
    return [lowered[i][j] + lowered[j][i] for i in range(4) for j in range(i, 4)]


def expected_curvature_entries(fd):
    """The displayed non-vanishing curvature 2-forms, with the frame
    derivative combination n4/2 + e1 - n1/2 along the dual frame."""
    prob = fd.problem
    tau = adapted_tau(prob)
    cf = _coframe(prob)
    t1, t2, t3, t4 = tau[:4]
    kne = family_invariants(fd)
    k, n, e = kne.k, kne.n, kne.e
    n1 = cf.frame_derivatives(n)[0]
    n4 = cf.frame_derivatives(n)[3]
    e1 = cf.frame_derivatives(e)[0]
    combo = HALF * n4 + e1 - HALF * n1

    t12 = t1.wedge(t2)
    t14 = t1.wedge(t4)
    t34 = t3.wedge(t4)
    zero2 = _zero_form(2)
    expected = [[zero2 for _ in range(4)] for _ in range(4)]
    expected[0][0] = -t12 - t14.scale(HALF * k)
    expected[1][1] = t12 + t14.scale(HALF * k)
    expected[1][3] = t12.scale(HALF * k) + t14.scale(combo) - t34.scale(HALF * k)
    expected[2][0] = -t12.scale(HALF * k) - t14.scale(combo) + t34.scale(HALF * k)
    expected[2][2] = t14.scale(HALF * k) - t34
    expected[3][3] = -t14.scale(HALF * k) + t34
    return expected


def expected_cartan_curvature(fd):
    """Constant matrix times tau1 ∧ tau4."""
    prob = fd.problem
    tau = adapted_tau(prob)
    kne = family_invariants(fd)
    k, n, e = kne.k, kne.n, kne.e
    t14 = tau[0].wedge(tau[3])
    zero2 = _zero_form(2)
    ex = [[zero2 for _ in range(4)] for _ in range(4)]
    ex[0][0] = t14.scale(-HALF * k)
    ex[1][1] = t14.scale(HALF * k)
    ex[1][2] = t14.scale(HALF * (-k + n - 2 * e))
    ex[1][3] = t14.scale(-Fraction(1, 4) * n)
    ex[2][0] = t14.scale(Fraction(1, 4) * n)
    ex[3][0] = t14.scale(HALF * (k - n + 2 * e))
    return ex


def chart_metric_connection_report(fd, table=METRIC_CONNECTION):
    prob = fd.problem
    taus = adapted_tau(prob)[:4]
    gamma = connection_matrix(fd, table)

    torsion = []
    for i in range(4):
        acc = taus[i].exterior_derivative()
        for j in range(4):
            acc = acc + gamma[i][j].wedge(taus[j])
        torsion.append(acc)

    curv = curvature_matrix(gamma)
    expected = expected_curvature_entries(fd)
    curvature_residuals = [curv[i][j] - expected[i][j] for i in range(4) for j in range(4)]

    cf = _coframe(prob)
    expansions = [[cf.expand_2(curv[i][j]) for j in range(4)] for i in range(4)]
    zero = Expression.number(0, M_ADAPTED_CHART)
    horizontality = [
        coeff
        for i in range(4)
        for j in range(4)
        for (a, b), coeff in expansions[i][j].items()
        if b >= 4
    ]
    ricci = []
    for i in range(4):
        for j in range(4):
            acc = zero
            for k in range(4):
                if k < j:
                    acc = acc + expansions[k][i].get((k, j), zero)
                elif k > j:
                    acc = acc - expansions[k][i].get((j, k), zero)
            ricci.append(acc + BLOCK_METRIC[i][j])

    return MetricConnectionReport(
        torsion_residuals=tuple(torsion),
        antisymmetry_residuals=tuple(_lowered_symmetric_part(gamma)),
        curvature_residuals=tuple(curvature_residuals),
        horizontality_residuals=tuple(horizontality),
        ricci_residuals=tuple(ricci),
    )


def chart_cartan_connection_report(fd, table=CARTAN_CONNECTION):
    prob = fd.problem
    omega = connection_matrix(fd, table)
    curv = curvature_matrix(omega)
    expected = expected_cartan_curvature(fd)
    return CartanConnectionReport(
        algebra_residuals=tuple(_lowered_symmetric_part(omega)),
        curvature_residuals=tuple(curv[i][j] - expected[i][j] for i in range(4) for j in range(4)),
        invariants_zero=family_invariants(fd).all_zero(),
        curvature_zero=all(curv[i][j].is_zero for i in range(4) for j in range(4)),
    )


def ricci_formalism_residuals(fd, tensors):
    """Coordinate Ricci, pulled up to the 6-chart, minus the frame-side
    Ricci (minus the block metric) expressed through the tau forms.

    The first four adapted coordinates coincide with the quotient chart,
    so the pullback of a quotient tensor just reuses its components on
    those axes and vanishes on the vertical ones.
    """
    prob = fd.problem
    tau = adapted_tau(prob)
    zero = Expression.number(0, M_ADAPTED_CHART)
    dim = M_ADAPTED_CHART.dim

    def comp(form, axis):
        return form.comps.get((axis,), zero)

    out = []
    for a in range(dim):
        for b in range(dim):
            rhs = zero
            for i in range(4):
                for j in range(4):
                    gij = BLOCK_METRIC[i][j]
                    if gij:
                        rhs = rhs - comp(tau[i], a) * comp(tau[j], b) * gij
            lhs = (
                tensors.ricci[a][b].on_chart(M_ADAPTED_CHART)
                if a < 4 and b < 4
                else zero
            )
            out.append(lhs - rhs)
    return out


# -- curvature identities -----------------------------------------------------


def first_bianchi_residuals(tensors):
    out = []
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                for l in range(DIM):
                    out.append(
                        tensors.riemann_down[i][j][k][l]
                        + tensors.riemann_down[i][k][l][j]
                        + tensors.riemann_down[i][l][j][k]
                    )
    return out


def weyl_trace_residuals(tensors):
    """All contractions of the Weyl tensor with the inverse metric."""
    zero = tensors.det.with_value(0)
    out = []
    for j in range(DIM):
        for l in range(DIM):
            acc = zero
            for i in range(DIM):
                for k in range(DIM):
                    if not tensors.ginv[i][k].is_zero:
                        acc = acc + tensors.ginv[i][k] * tensors.weyl_down[i][j][k][l]
            out.append(acc)
    return out


def signature_at(metric, point):
    """(positive, negative) inertia from leading principal minors.

    Requires every leading minor to be nonzero at the point (Jacobi's
    criterion); raises otherwise.  The minors are running products of
    the pivots of one elimination without row exchanges, so a zero
    pivot is exactly a vanishing leading minor.
    """
    a = [[metric.g[i][j].evaluate(point) for j in range(DIM)] for i in range(DIM)]
    minors = [Fraction(1)]
    for k in range(DIM):
        pivot = a[k][k]
        if pivot == 0:
            raise SingularEvaluationError("a leading principal minor vanishes at the point")
        minors.append(minors[-1] * pivot)
        for i in range(k + 1, DIM):
            f = a[i][k] / pivot
            if f:
                a[i] = [a[i][j] - f * a[k][j] for j in range(DIM)]
    changes = sum(1 for i in range(DIM) if minors[i] * minors[i + 1] < 0)
    return DIM - changes, changes


# -- the 6x6 Petrov oracle ------------------------------------------------------
#
# The program's point path before it derived a symbolic label rule
# (``odecartan.petrov.label_rule``): at each point, W, g^-1 and det G
# evaluated to exact 6x6 matrices, the star^2 = I and [W, star] = 0 checks
# made on them, and each half labelled from the integer-scaled operator.


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


def weyl_operator_at(tensors, point, jets=None):
    """Weyl endomorphism and Hodge star on 2-forms, as exact 6x6 matrices.

    Basis: coordinate 2-forms dx^a ∧ dx^b over the increasing pairs.
    ``jets`` (from ``odecartan.petrov.jet_expressions``) extends the point
    with the value of each jet symbol, so opaque-coefficient tensors give
    the values of the metric with their functions substituted.  With the 2x2 minors
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


def point_labels(tensors, point, jets=None):
    """Petrov labels at ``point`` from the exact 6x6 operators;
    ``jets`` as in ``weyl_operator_at``."""
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


# -- the eigenspace Petrov oracle ---------------------------------------------


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
        row += 1
    for r in range(row, n):
        if any(aug[r][k:]):
            raise PetrovDegeneracyError("operator does not preserve the eigenspace")
    return [aug[i][k:] for i in range(k)]


# -- the family's closed forms and the appendix tables -------------------------


def family_invariants_residuals(fd, kne):
    """The closed forms ``kne`` (``family_invariants(fd)``) minus the
    committed generic table's k, n, e of ``fd`` (``fd.problem.structure()``),
    pulled to the adapted chart; all three must vanish: the cross-check of
    the closed forms against the table."""
    sf = fd.problem.structure()
    return {name: to_adapted(getattr(sf, name)) - value for name, value in kne._asdict().items()}


# The paper's closed-form differentials of the tau basis for arbitrary
# admissible F, transcribed by hand.  Entries: (affine coefficient, left,
# right) for coefficient · basis_left ∧ basis_right.
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


def restricted(table, keep):
    """``table`` with the multipliers of the invariants in ``keep`` only."""
    return {
        i: [((const, {n: v for n, v in mults.items() if n in keep}), left, right)
            for (const, mults), left, right in rows]
        for i, rows in table.items()
    }


# Differentials once the ten reduction conditions hold: they zero every
# invariant except k, n and e.
REDUCED_TABLE = restricted(APPENDIX_TABLE, ("k", "n", "e"))

# Differentials of the maximally symmetric model (all invariants zero),
# exhibiting the product Lie-algebra structure.
FLAT_TABLE = restricted(APPENDIX_TABLE, ())


def chart_level_residuals(tau, table, sf):
    """d(tau_i) taken on the chart minus ``table``'s rows, each row's wedge
    of tau forms built on the chart with its coefficient evaluated on the
    invariants ``sf``."""
    chart = tau[0].chart
    zero = Expression.number(0, chart)
    values = sf._asdict()
    out = []
    for i in range(6):
        rhs = DifferentialForm.zero(chart, 2)
        for (const, mults), left, right in table[i]:
            coeff = zero + const
            for name, mult in mults.items():
                coeff = coeff + mult * values[name]
            if not coeff.is_zero:
                rhs = rhs + tau[left].wedge(tau[right]).scale(coeff)
        out.append(tau[i].exterior_derivative() - rhs)
    return out


# -- the member's own family sections ------------------------------------------


def member_family(A, B, C):
    """``FamilyData`` of (3/2) q^2/p + A p^3 + C p^2 + B p for coefficients
    on the jet chart, with that ODE's own ``OdeProblem``:
    ``family_invariants`` and ``family_metric`` keep what they build on
    the problem, so a changed coefficient needs a problem of its own."""
    p, q = (Expression.coordinate(c, J2_CHART) for c in "pq")
    rhs = Fraction(3, 2) * q * q / p + A * p ** 3 + C * p * p + B * p
    return FamilyData(OdeProblem(rhs), A, B, C)


def derivative_family_detect(prob):
    """``cartan.family_detect`` by derivatives: the same checks and
    reasons, with A, C and B read off R_ppp, R_pp and R_p."""
    q, p = (Expression.coordinate(c, J2_CHART) for c in "qp")
    S = prob.Fqq
    if _depends_on(S, "q"):
        raise FamilyRejectionError(
            FamilyRejectionError.WRONG_Q_DEPENDENCE, "F is not quadratic in q")
    shift = 3 / S - p
    if not shift.is_zero:
        if _depends_on(shift, "p", "q"):
            raise FamilyRejectionError(
                FamilyRejectionError.WRONG_Q_DEPENDENCE, "the q^2 coefficient is not 3/(2p)")
        raise FamilyRejectionError(
            FamilyRejectionError.SIGMA_TERM_PRESENT,
            f"sigma = {shift.render()} has not been normalized away")
    if not (prob.Fq - S * q).is_zero:
        raise FamilyRejectionError(
            FamilyRejectionError.WRONG_Q_DEPENDENCE, "a term linear in q is present")
    R = prob.F - Fraction(3, 2) * q * q / p
    Rp = R.differentiate("p")
    Rpp = Rp.differentiate("p")
    A = SIXTH * Rpp.differentiate("p")
    if _depends_on(A, "p", "q"):
        raise FamilyRejectionError(
            FamilyRejectionError.COEFFICIENT_DEPENDS_ON_PQ,
            "the cubic coefficient depends on p or q")
    C = HALF * (Rpp - 6 * A * p)
    B = Rp - 3 * A * p * p - 2 * C * p
    if not (R - (A * p ** 3 + C * p * p + B * p)).is_zero:
        raise FamilyRejectionError(
            FamilyRejectionError.COEFFICIENT_DEPENDS_ON_PQ,
            "a remainder term outside A p^3 + C p^2 + B p is present")
    return FamilyData(prob, A, B, C)


def _request_family(request):
    """The ``FamilyData`` of a family request's own right-hand side."""
    table = SymbolTable()
    for name, args in request.opaque.items():
        table.declare(name, args)
    return family_detect(OdeProblem(parse_expression(request.ode, J2_CHART, table)))


def own_sections(request):
    """The ``metric`` and ``connection`` report sections of a family
    request, from the member's own 6-space: ``metric_from_family``, the
    determinant of its metric and both connection reports on its own
    ``FamilyData``.  The program reads the residuals and det G of the
    generic member once per process instead."""
    family = _request_family(request)
    metric, proj = metric_from_family(family)
    mrep, crep = metric_connection_report(family), cartan_connection_report(family)
    metric_section = {
        "run": True,
        "components": [[e.render() for e in row] for row in metric.g],
        "determinant": invert_matrix(metric.g)[1].render(),
        "projectability": {
            "projects": proj.projects,
            "vertical_residuals": [e.render() for e in proj.vertical_residuals],
            "invariance_residuals": [e.render() for e in proj.invariance_residuals],
            "match_residuals": [e.render() for e in proj.match_residuals],
        },
    }
    connection_section = {
        "run": True,
        "metric_connection": {
            "torsion_zero": all(r.is_zero for r in mrep.torsion_residuals),
            "antisymmetry_zero": all(r.is_zero for r in mrep.antisymmetry_residuals),
            "curvature_matches": all(r.is_zero for r in mrep.curvature_residuals),
            "horizontal": all(r.is_zero for r in mrep.horizontality_residuals),
            "ricci_is_minus_metric": all(r.is_zero for r in mrep.ricci_residuals),
            "torsion_residuals": [f.render() for f in mrep.torsion_residuals],
            "ricci_residuals": [e.render() for e in mrep.ricci_residuals],
        },
        "cartan_connection": {
            "algebra_valued": all(r.is_zero for r in crep.algebra_residuals),
            "curvature_matches": all(r.is_zero for r in crep.curvature_residuals),
            "invariants_zero": crep.invariants_zero,
            "curvature_zero": crep.curvature_zero,
            "flatness_matches_invariants": crep.flatness_matches_invariants,
            "algebra_residuals": [f.render() for f in crep.algebra_residuals],
        },
    }
    return metric_section, connection_section


def specialised_sections(request):
    """The ``einstein_residual_zero`` and ``petrov`` report sections of a
    family request, from the specialised metric's own curvature:
    ``family_metric`` of the family with the request's specialisations put
    in for A and B, then ``curvature_tensors`` and ``einstein_residual`` on
    it, classified by ``point_labels`` at the seeded points the program
    draws.  The program
    reads one opaque-A', B' geometry at jet-extended points instead."""
    family, table = _request_family(request), SymbolTable()
    A, B = (
        parse_expression(request.specializations[name], J2_CHART, table)
        if name in request.specializations
        else getattr(family, name)
        for name in ("A", "B")
    )
    metric = family_metric(member_family(A, B, family.C))
    tensors = curvature_tensors(metric)
    residual = einstein_residual(metric, tensors)
    einstein = {
        "run": True,
        "verdict": all(r.is_zero for row in residual for r in row),
        "residual_components": [residual[i][j].render() for i in range(DIM) for j in range(i, DIM)],
        "scalar_curvature": tensors.scalar.render(),
    }

    rng = random.Random(request.seed)
    results, skipped = [], []
    for _ in range(max(50, 40 * request.points)):
        if len(results) == request.points:
            break
        point = {c: Fraction(rng.randint(-100, 100), rng.randint(1, 100)) for c in "xyzt"}
        as_json = {k: str(v) for k, v in sorted(point.items())}
        try:
            r = point_labels(tensors, point)
        except PetrovDegeneracyError as exc:
            skipped.append({"point": as_json, "reason": str(exc)})
        else:
            results.append({"point": as_json, "label_plus": r.label_plus, "label_minus": r.label_minus})
    labels = {(r["label_plus"], r["label_minus"]) for r in results}
    consistent = len(labels) == 1
    d_eigenspace = None
    if consistent:
        (plus, minus), = labels
        d_eigenspace = {(True, False): "plus", (False, True): "minus", (True, True): "both"}.get(
            (plus == "D", minus == "D")
        )
    petrov = {
        "run": True,
        "specializations": dict(sorted(request.specializations.items())),
        "points": results,
        "labels": sorted(f"{a}+{b}" for a, b in labels),
        "consistent_assignment": consistent,
        "d_eigenspace": d_eigenspace,
        "skipped_points": skipped,
    }
    return einstein, petrov


# -- bases, coframes and matrices ---------------------------------------------


def printed_display_coframe(prob):
    """The other display reading of ``cartan.invariant_coframe``, which
    fails the structure pattern: F_qq unsquared in the third form's
    prefactor, (gamma - 1/3) F_q as its middle coefficient, and a
    -(gamma/alpha) d(alpha) tail on the first connection form in place of
    d(alpha)/alpha - gamma dx.  Built from the passing reading's forms."""
    forms = list(invariant_coframe(prob).forms)
    _, w2, _, w4 = base_coframe(prob, P_CHART)
    Fq = prob.F.on_chart(P_CHART).differentiate("q")
    Fqq = Fq.differentiate("q")
    alpha, gamma = (Expression.coordinate(c, P_CHART) for c in ("alpha", "gamma"))
    # (gamma - 1/3) F_q - (gamma - F_q/3) = gamma (F_q - 1)
    forms[2] = forms[2].scale(1 / Fqq) + w2.scale(gamma * (Fq - 1) * Fqq / (36 * alpha))
    dalpha = DifferentialForm.d_coord(P_CHART, "alpha")
    forms[4] = forms[4] + w4.scale(gamma) - dalpha.scale((1 + gamma) / alpha)
    return Coframe(forms)


def tau_from_theta_residuals(cf, tau):
    """Round trip tau-basis -> original coframe; all residuals must vanish."""
    t1, t2, t3, t4, g1, g2 = tau
    th1, th2, th3, th4, om1, om2 = cf.forms
    return [
        (t1 - t4).scale(HALF) - th1,
        (g2 - g1).scale(HALF) - th2,
        (t3 - t2).scale(HALF) - th3,
        t4 - th4,
        g1 - om1,
        t2 - om2,
    ]


def expand_1(cf, form):
    """Coefficients c with form = Σ c_i · coframe_i."""
    if form.degree != 1 or form.chart is not cf.chart:
        raise ChartError("expected a 1-form on the coframe chart")
    zero = Expression.number(0, cf.chart)
    v = [form.comps.get((j,), zero) for j in range(cf.dim)]
    return [
        sum((v[j] * cf.inverse[j][i] for j in range(cf.dim)), zero)
        for i in range(cf.dim)
    ]


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


def duality_residuals(cf):
    """Pairing coframe_i(frame_j) − δ_ij for every i, j."""
    return identity_check(cf.matrix, cf.inverse)


# -- the reduced-jet oracle of the table path ----------------------------------


def reduced_jet_structure(F):
    """a..s of y''' = F (F_qq ≠ 0) from ``generic_structure``, with no
    coframe: each jet of G' becomes F differentiated along its index.

    The jet denominators, with the numerator of F_qq, get a coprime base
    (``coprime_base``), so a jet is r · P · Π b^v: a rational r, a
    polynomial P (1 for F_qq, which the denominators hold) and integer
    exponents v over the base.  Each invariant skips a term that holds a
    zero jet, sums the terms that share their exponents v, brings each
    sum to the least exponents over the base, multiplies numerators as
    ``Poly`` with no GCD, and reduces once.
    """
    indices, qq, table = _generic_table()
    derived = {(): F.on_chart(J2_CHART)}

    def jet(index):
        if index not in derived:
            derived[index] = jet(index[:-1]).differentiate(index[-1])
        return derived[index]

    jets = [jet(i) for i in indices]
    if jets[qq].is_zero:
        raise DegenerateOdeError("F_qq is identically zero")
    polys = [j.den for j in jets if not j.is_zero] + [jets[qq].num]
    base = coprime_base(polys)
    factored = {p: factor_over(p, base) for p in dict.fromkeys(polys)}

    def part(j):
        c, e = factored[j.den]
        return j.num, Fraction(1, c), [-k for k in e]

    parts = [None if j.is_zero else part(j) for j in jets]
    (cn, en), (cd, ed) = factored[jets[qq].num], factored[jets[qq].den]
    parts[qq] = (None, Fraction(cn, cd), [a - b for a, b in zip(en, ed)])

    powers = {}

    def power(f, k):
        key = (id(f), k)
        if key not in powers:
            powers[key] = f ** k
        return powers[key]

    values = {}
    for name, (den_coeff, alpha_power, terms) in table.items():
        by_exponents = {}
        for coeff, mono, key, _ in terms:
            if all(parts[j] is not None for j, _ in key):
                r, v, factors = Fraction(coeff), [0] * len(base), []
                for j, k in key:
                    pj, rj, vj = parts[j]
                    r *= rj ** k
                    v = [a + k * b for a, b in zip(v, vj)]
                    if pj is not None:
                        factors.append(power(pj, k))
                by_exponents.setdefault(tuple(v), []).append((r, mono, factors))
        least = [min((v[i] for v in by_exponents), default=0) for i in range(len(base))]
        scale = lcm(*(r.denominator for group in by_exponents.values() for r, _, _ in group))
        num = Poly.zero()
        for v, group in by_exponents.items():
            total = Poly.zero()
            for r, mono, factors in group:
                product = Poly({mono: r.numerator * (scale // r.denominator)})
                for f in sorted(factors, key=len):
                    product = product * f
                total = total + product
            for b, e, m in zip(base, v, least):
                total = total * power(b, e - m)
            num = num + total
        for b, m in zip(base, least):
            if m > 0:
                num = num * power(b, m)
        values[name] = normalized_over_base(
            num, den_coeff * scale, alpha_power, base, [max(-m, 0) for m in least]
        )
    return StructureFunctions(**values)


def normalized_over_base(num, coeff, alpha_power, base, exponents):
    """num / (coeff · alpha^alpha_power · Π base_i^exponents_i) on the P
    chart, reduced as the table path reduced each invariant before its
    reduction was certified: the whole denominator expanded and
    ``Expression``'s ``_normalize`` taking one GCD with it.  The tests
    compare ``invariant_table._reduced`` with it."""
    den = Poly({monomial(((P_CHART.sym("alpha"), alpha_power),)): coeff})
    for b, e in zip(base, exponents):
        den = den * b**e
    return Expression(num, den, P_CHART)


# -- fibre-preserving transformations -------------------------------------------


def _total_x(e):
    """D0 e = de/dx + p de/dy + q de/dp, the total x-derivative on the jet chart."""
    p, q = (Expression.coordinate(c, e.chart) for c in "pq")
    return e.differentiate("x") + p * e.differentiate("y") + q * e.differentiate("p")


def prolonged_change(X, Y):
    """The change x~ = X(x), y~ = Y(x, y) (X, Y on the jet chart) prolonged
    to the jets, as the substitution {x: X, y: Y, p: p~, q: q~}: with
    X' = dX/dx, p~ = D0 Y / X' and q~ = D0 p~ / X'."""
    dX = X.differentiate("x")
    pt = _total_x(Y) / dX
    return {"x": X, "y": Y, "p": pt, "q": _total_x(pt) / dX}


def fibre_transform(F, X, Y):
    """The right-hand side F1 of y''' = F written in new coordinates
    x~ = X(x), y~ = Y(x, y) (F, X, Y on the jet chart): y~''' =
    F(X, Y, p~, q~) (``prolonged_change``) becomes y''' = F1 with
    F1 = (X' F(X, Y, p~, q~) - D0 q~) X'^2 / Y_y."""
    change = prolonged_change(X, Y)
    dX = X.differentiate("x")
    return (dX * F.substitute(change) - _total_x(change["q"])) * dX * dX / Y.differentiate("y")
