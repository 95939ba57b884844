"""The 6-manifold pipeline: coframe, invariants, conditions, the family."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from odecartan import (
    DegenerateOdeError,
    Expression,
    FamilyRejectionError,
    J2_CHART,
    M_ADAPTED_CHART,
    P_CHART,
    StructureConsistencyError,
    SymbolTable,
    parse_expression,
)
from odecartan import cartan, connection
from odecartan import report as report_module
from odecartan.cartan import (
    GENERIC_COEFFICIENTS,
    STRUCTURE_NAMES,
    STRUCTURE_PATTERN,
    KneInvariants,
    OdeProblem,
    base_coframe,
    check_einstein_conditions,
    family_detect,
    family_invariants,
    family_structure,
    generic_family,
    invariant_K,
    invariant_coframe,
    structure_functions,
    to_adapted,
)
from odecartan.curvature import family_metric
from odecartan.errors import SingularSubstitutionError
from odecartan.forms import DifferentialForm
from odecartan.petrov import jet_expressions
from odecartan.report import AnalysisRequest, analyze
from tests.conftest import FAMILY_TEXT, XY_CHART, ExpressionSampler, make_problem
from tests.oracles import (
    APPENDIX_TABLE,
    FLAT_TABLE,
    REDUCED_TABLE,
    chart_level_residuals,
    derivative_family_detect,
    family_invariants_residuals,
    fibre_transform,
    member_family,
    printed_display_coframe,
    prolonged_change,
    tau_from_theta_residuals,
)


_AFFINE = cartan._AFFINE
_T1, _T2, _T3, _T4, _G1, _G2 = range(6)

# The reduced and flat tables as transcribed from the paper, before
# ``tests/oracles.py`` generated them from APPENDIX_TABLE: the expected values.
REDUCED_TRANSCRIPTION = {
    _T1: [(_AFFINE(1), _G1, _T1)],
    _T2: [(_AFFINE(-1), _G1, _T2), (_AFFINE(n=Fraction(1, 2)), _T1, _T4)],
    _T3: [(_AFFINE(-1), _G2, _T3), (_AFFINE(n=Fraction(1, 2), e=-1), _T1, _T4)],
    _T4: [(_AFFINE(1), _G2, _T4)],
    _G1: [(_AFFINE(1), _T1, _T2), (_AFFINE(k=Fraction(1, 2)), _T1, _T4)],
    _G2: [(_AFFINE(k=Fraction(1, 2)), _T1, _T4), (_AFFINE(-1), _T3, _T4)],
}

FLAT_TRANSCRIPTION = {
    _T1: [(_AFFINE(1), _G1, _T1)],
    _T2: [(_AFFINE(-1), _G1, _T2)],
    _T3: [(_AFFINE(-1), _G2, _T3)],
    _T4: [(_AFFINE(1), _G2, _T4)],
    _G1: [(_AFFINE(1), _T1, _T2)],
    _G2: [(_AFFINE(1), _T4, _T3)],
}


def merged_table(table):
    """{form: {(l, r) with l < r: (const, {invariant: nonzero mult})}},
    rows on one slot summed and zero slots dropped."""
    out = {}
    for i, rows in table.items():
        slots = {}
        for (const, mults), left, right in rows:
            sign = 1 if left < right else -1
            c, m = slots.get((min(left, right), max(left, right)), (0, {}))
            m = dict(m)
            for name, mult in mults.items():
                m[name] = m.get(name, 0) + sign * mult
            slots[min(left, right), max(left, right)] = (c + sign * const, m)
        out[i] = {
            slot: (c, {n: v for n, v in m.items() if v})
            for slot, (c, m) in slots.items()
            if c or any(m.values())
        }
    return out


def _appendix_residuals(prob):
    """The paper's table checked on the chart, its invariants read from
    the committed table."""
    return chart_level_residuals(prob.tau(), APPENDIX_TABLE, prob.structure())


def _perturbed_appendix_table():
    """APPENDIX_TABLE with one affine coefficient changed and rows added to
    two other forms, so that three of the six residuals are nonzero."""
    t1, t3, t4, g1, g2 = 0, 2, 3, 4, 5
    table = {i: list(rows) for i, rows in APPENDIX_TABLE.items()}
    (const, mults), left, right = table[t1][1]
    table[t1][1] = ((const + 1, dict(mults, k=Fraction(3))), left, right)
    table[g1].append(((Fraction(-2), {"e": Fraction(1, 3)}), g2, t3))
    table[t4].append(((Fraction(1, 2), {}), t3, t1))
    return table


class TestOdeProblem:
    def test_degenerate_rhs_rejected(self):
        table = SymbolTable()
        with pytest.raises(DegenerateOdeError):
            OdeProblem(parse_expression("y", J2_CHART, table))

    def test_q_squared_is_admissible(self):
        prob = make_problem("q^2")
        assert prob.Fqq.render() == "2"

    def test_keeps_its_first_and_second_q_derivatives(self):
        prob = make_problem("3/2*q^2/p + x*q*p^3 + y/(p+1)")
        assert prob.Fq == prob.F.differentiate("q")
        assert prob.Fqq == prob.F.differentiate("q").differentiate("q")
        assert prob.Fq.render() == "(p^4*x + 3*q)/p"


class TestBaseCoframe:
    def test_zero_rhs(self):
        prob = make_problem("q^2")  # admissible problem, but build forms for F=0 by hand
        table = SymbolTable()
        zero_prob = OdeProblem.__new__(OdeProblem)  # bypass F_qq check for this display test
        zero_prob.F = parse_expression("0", J2_CHART, table)
        w1, w2, w3, w4 = base_coframe(zero_prob)
        from odecartan.forms import DifferentialForm

        assert w3 == DifferentialForm.d_coord(J2_CHART, "q")

    def test_flat_omega3(self, flat_problem):
        w1, w2, w3, w4 = base_coframe(flat_problem)
        from odecartan.forms import DifferentialForm

        dq = DifferentialForm.d_coord(J2_CHART, "x")
        F = flat_problem.F
        expected = DifferentialForm.d_coord(J2_CHART, "q") - dq.scale(F)
        assert w3 == expected

    def test_volume_form(self, flat_problem):
        w1, w2, w3, w4 = base_coframe(flat_problem)
        from odecartan.forms import DifferentialForm

        vol = w1.wedge(w2).wedge(w3).wedge(w4)
        dx, dy, dp, dq = (
            DifferentialForm.d_coord(J2_CHART, c) for c in J2_CHART.coords
        )
        expected = dy.wedge(dp).wedge(dq).wedge(dx)
        assert vol == expected or vol == -expected
        assert not vol.is_zero


class TestInvariantScalar:
    def test_zero_rhs(self):
        table = SymbolTable()
        prob = OdeProblem.__new__(OdeProblem)  # bypass the F_qq check; F, F_q, F_qq are all 0
        prob.F = prob.Fq = prob.Fqq = parse_expression("0", J2_CHART, table)
        assert invariant_K(prob).is_zero

    def test_flat_model(self, flat_problem):
        assert invariant_K(flat_problem).is_zero

    def test_family_with_zero_coefficients(self):
        prob = make_problem("3/2*q^2/p + 0*p^3")
        assert invariant_K(prob).is_zero


class TestInvariantCoframe:
    def test_flat_theta2(self, flat_problem):
        cf = flat_problem.coframe()
        w1, w2, _, _ = base_coframe(flat_problem, P_CHART)
        p = Expression.coordinate("p", P_CHART)
        gamma = Expression.coordinate("gamma", P_CHART)
        expected = (w2 + w1.scale(gamma)).scale(1 / (2 * p))
        assert (cf.forms[1] - expected).is_zero

    def test_flat_theta4(self, flat_problem):
        cf = flat_problem.coframe()
        from odecartan.forms import DifferentialForm

        alpha = Expression.coordinate("alpha", P_CHART)
        p = Expression.coordinate("p", P_CHART)
        dx = DifferentialForm.d_coord(P_CHART, "x")
        assert (cf.forms[3] - dx.scale(2 * alpha * p)).is_zero

    def test_determinant_not_identically_zero(self, flat_problem, family_problem, qcube_problem):
        for prob in (flat_problem, family_problem, qcube_problem):
            assert not prob.coframe().det.is_zero

    def test_integrability_d_squared(self, family_problem):
        for f in family_problem.coframe().forms:
            assert f.exterior_derivative().exterior_derivative().is_zero

    def test_printed_display_fails_the_structure_pattern(self, flat_problem):
        printed = printed_display_coframe(flat_problem)
        with pytest.raises(StructureConsistencyError):
            structure_functions(printed)

    def test_frozen_display_passes_the_structure_pattern(self, flat_problem):
        sf = structure_functions(invariant_coframe(flat_problem))
        assert sf.all_zero()


class TestStructureFunctions:
    def test_flat_model_all_vanish(self, flat_problem):
        assert structure_functions(flat_problem.coframe()).all_zero()

    def test_family_conditions(self, family_problem, family_data):
        sf = structure_functions(family_problem.coframe())
        report = check_einstein_conditions(sf)
        assert report.all_hold
        # the surviving invariants in the raw chart
        assert sf.k.render() == "-C/(4*alpha^2*p)"
        assert not sf.n.is_zero and not sf.e.is_zero

    def test_family_invariants_match_extraction(self, family_data):
        kne = family_invariants(family_data)
        residuals = family_invariants_residuals(family_data, kne)
        assert all(r.is_zero for r in residuals.values())
        sf = structure_functions(family_data.problem.coframe())
        assert all(to_adapted(getattr(sf, n)) == v for n, v in kne._asdict().items())

    def test_qcube_fails_some_condition(self, qcube_problem):
        report = check_einstein_conditions(structure_functions(qcube_problem.coframe()))
        assert not report.all_hold
        failing = [v.name for v in report.verdicts if not v.holds]
        assert failing
        for v in report.verdicts:
            assert v.holds == v.residual.is_zero

    def test_extraction_consistent_for_stress_inputs(self):
        # the overdetermined pattern holds for generic admissible F
        for text in ("q^2", "q^3*y + x*p", "q^3 + y*p"):
            prob = make_problem(text)
            structure_functions(prob.coframe())  # raises on any inconsistent slot

    def test_polynomial_denominators_stay_tractable(self):
        # shifted denominator: every coframe coefficient is a genuine
        # rational function, exercising the full GCD machinery
        prob = make_problem("3/2*q^2/(p+1) + p")
        structure_functions(prob.coframe())
        assert all(r.is_zero for r in _appendix_residuals(prob))

    def test_condition_verdicts_carry_residuals(self, qcube_problem):
        report = check_einstein_conditions(structure_functions(qcube_problem.coframe()))
        for v in report.verdicts:
            assert v.residual is not None


class TestTauBasis:
    def test_round_trip_is_identity(self, family_problem):
        cf = family_problem.coframe()
        tau = family_problem.tau()
        assert all(r.is_zero for r in tau_from_theta_residuals(cf, tau))

    @pytest.mark.parametrize(
        "generated, transcription",
        [(REDUCED_TABLE, REDUCED_TRANSCRIPTION), (FLAT_TABLE, FLAT_TRANSCRIPTION)],
        ids=["reduced", "flat"],
    )
    def test_generated_tables_match_transcriptions(self, generated, transcription):
        assert merged_table(generated) == merged_table(transcription)

    def test_flat_differentials(self, flat_problem):
        residuals = chart_level_residuals(flat_problem.tau(), FLAT_TABLE, flat_problem.structure())
        assert all(r.is_zero for r in residuals)

    def test_family_reduced_differentials(self, family_problem):
        residuals = chart_level_residuals(
            family_problem.tau(), REDUCED_TABLE, family_problem.structure())
        assert all(r.is_zero for r in residuals)

    def test_family_tau4_is_null_form(self, family_data):
        from odecartan.curvature import adapted_tau
        from odecartan.forms import DifferentialForm

        tau = adapted_tau(family_data.problem)
        alpha = Expression.coordinate("alpha", M_ADAPTED_CHART)
        p = Expression.coordinate("p", M_ADAPTED_CHART)
        dx = DifferentialForm.d_coord(M_ADAPTED_CHART, "x")
        assert (tau[3] - dx.scale(2 * alpha * p)).is_zero

    def test_full_null_coframe_display(self, family_data):
        from odecartan.curvature import adapted_tau
        from odecartan.forms import DifferentialForm

        prob = family_data.problem
        ch = M_ADAPTED_CHART
        A, B, C = family_data.coefficients_on(ch)
        alpha = Expression.coordinate("alpha", ch)
        p = Expression.coordinate("p", ch)
        z = Expression.coordinate("z", ch)
        t = Expression.coordinate("t", ch)
        dx, dy = (DifferentialForm.d_coord(ch, c) for c in ("x", "y"))
        dz, dt = (DifferentialForm.d_coord(ch, c) for c in ("z", "t"))
        expected = [
            dy.scale(2 * alpha),
            (dx.scale(C) + dy.scale(2 * A - z * z) + dz.scale(2)).scale(1 / (4 * alpha)),
            (dx.scale(-(t * t + 2 * B)) + dy.scale(-C) + dt.scale(2)).scale(
                1 / (4 * alpha * p)
            ),
            dx.scale(2 * alpha * p),
        ]
        tau = adapted_tau(prob)
        for computed, shown in zip(tau[:4], expected):
            assert (computed - shown).is_zero


_OVER_Y_PLUS_1 = "3/2*q^2/p + x/(y+1)*p^3 + (x + y)*p"


class TestFamilyDetect:
    def test_flat_model_accepted_with_zero_coefficients(self, flat_problem):
        fd = family_detect(flat_problem)
        assert fd.A.is_zero and fd.B.is_zero and fd.C.is_zero

    def test_opaque_family_accepted(self, family_data):
        assert family_data.A.render() == "A"
        assert family_data.B.render() == "B"
        assert family_data.C.render() == "C"

    def test_rational_coefficients_accepted(self):
        prob = make_problem("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        fd = family_detect(prob)
        assert fd.A.render() == "x*y"
        assert fd.C.is_zero
        assert fd.B.render() == "x + y"

    def test_shifted_denominator_rejected_with_reason(self):
        prob = make_problem("3/2*q^2/(p+1) + p")
        with pytest.raises(FamilyRejectionError) as err:
            family_detect(prob)
        assert err.value.reason == FamilyRejectionError.SIGMA_TERM_PRESENT
        assert "1" in err.value.detail

    def test_opaque_shift_rejected(self):
        table = SymbolTable()
        table.declare("S", ("x", "y"))
        prob = OdeProblem(
            parse_expression("3/2*q^2/(p + S(x,y))", J2_CHART, table)
        )
        with pytest.raises(FamilyRejectionError) as err:
            family_detect(prob)
        assert err.value.reason == FamilyRejectionError.SIGMA_TERM_PRESENT

    def test_wrong_q_dependence_rejected(self):
        for text in ("q^2", "q^3 + y*p", "3/2*q^2/p + q"):
            with pytest.raises(FamilyRejectionError) as err:
                family_detect(make_problem(text))
            assert err.value.reason == FamilyRejectionError.WRONG_Q_DEPENDENCE

    def test_bad_coefficient_rejected(self):
        for text in ("3/2*q^2/p + p^4", "3/2*q^2/p + 1", "3/2*q^2/p + 1/p"):
            with pytest.raises(FamilyRejectionError) as err:
                family_detect(make_problem(text))
            assert err.value.reason == FamilyRejectionError.COEFFICIENT_DEPENDS_ON_PQ

    def test_coefficient_that_reads_only_a_jet_of_p_rejected(self):
        """The cubic coefficient of 3/2 q^2/p + U(x,p) is U_ppp/6: no
        coordinate, but a jet of a function of p, so it depends on p."""
        table = SymbolTable()
        table.declare("U", ("x", "p"))
        prob = OdeProblem(parse_expression("3/2*q^2/p + U(x,p)", J2_CHART, table))
        with pytest.raises(FamilyRejectionError) as err:
            family_detect(prob)
        assert err.value.detail == "the cubic coefficient depends on p or q"

    @pytest.mark.parametrize("text, name, args, detail", [
        # a denominator with no coordinate p, but T reads p
        ("3/2*q^2/p + 1/T(p)", "T", ("p",), "the cubic coefficient depends on p or q"),
        ("3/2*q^2/p + U(x,y)", "U", ("x", "y"),
         "a remainder term outside A p^3 + C p^2 + B p is present"),
    ])
    def test_opaque_term_rejected_with_its_detail(self, text, name, args, detail):
        table = SymbolTable()
        table.declare(name, args)
        with pytest.raises(FamilyRejectionError) as err:
            family_detect(OdeProblem(parse_expression(text, J2_CHART, table)))
        assert err.value.detail == detail

    def test_coefficients_over_a_denominator_free_of_p_accepted(self):
        fd = family_detect(make_problem(_OVER_Y_PLUS_1))
        assert fd.A.render() == "x/(y + 1)"
        assert fd.C.is_zero
        assert fd.B.render() == "x + y"

    @pytest.mark.parametrize("text, declare", [(FAMILY_TEXT, "ABC"), (_OVER_Y_PLUS_1, "")])
    def test_detection_takes_no_derivative(self, monkeypatch, text, declare):
        """The family is read off F's canonical form: once ``OdeProblem``
        holds F_q and F_qq, ``family_detect`` differentiates nothing."""
        prob = make_problem(text, declare=declare)
        calls = []
        real = Expression.differentiate

        def counted(self, coord):
            calls.append(coord)
            return real(self, coord)

        monkeypatch.setattr(Expression, "differentiate", counted)
        family_detect(prob)
        monkeypatch.undo()
        assert calls == []


# one input per reachable rejection in ``family_detect``, with its (reason, detail)
REACHABLE_REJECTIONS = [
    ("q^3 + y*p", FamilyRejectionError.WRONG_Q_DEPENDENCE, "F is not quadratic in q"),
    ("q^2", FamilyRejectionError.WRONG_Q_DEPENDENCE, "the q^2 coefficient is not 3/(2p)"),
    ("3/2*q^2/(p+1)", FamilyRejectionError.SIGMA_TERM_PRESENT,
     "sigma = 1 has not been normalized away"),
    ("3/2*q^2/p + q", FamilyRejectionError.WRONG_Q_DEPENDENCE, "a term linear in q is present"),
    ("3/2*q^2/p + p^4", FamilyRejectionError.COEFFICIENT_DEPENDS_ON_PQ,
     "the cubic coefficient depends on p or q"),
    ("3/2*q^2/p + 1", FamilyRejectionError.COEFFICIENT_DEPENDS_ON_PQ,
     "a remainder term outside A p^3 + C p^2 + B p is present"),
]


@pytest.mark.parametrize("text, reason, detail", REACHABLE_REJECTIONS,
                         ids=[t for t, _, _ in REACHABLE_REJECTIONS])
def test_each_reachable_rejection_carries_its_reason_and_detail(text, reason, detail):
    with pytest.raises(FamilyRejectionError) as err:
        family_detect(make_problem(text))
    assert (err.value.reason, err.value.detail) == (reason, detail)


# R's terms: c * x^i * y^j * p^k * J / D, with J 1 or a jet of T(p) or
# U(x,p), and D 1, free of p, or reading p only through a jet
_R_TERMS = st.lists(
    st.tuples(
        st.fractions(-3, 3, max_denominator=4).filter(bool),
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(-1, 4),
        st.sampled_from(("1", "1", "1", "T", "T_p", "T_pp", "U", "U_x", "U_p", "U_pp")),
        st.sampled_from(("1", "1", "1", "y+1", "x+y", "T", "U")),
    ),
    max_size=4,
)


def _r_problem(terms):
    table = SymbolTable()
    table.declare("T", ("p",))
    table.declare("U", ("x", "p"))
    x, y, p = (Expression.coordinate(c, J2_CHART) for c in "xyp")
    F = parse_expression("3/2*q^2/p", J2_CHART, table)
    for c, i, j, k, jet, den in terms:
        F = F + c * x**i * y**j * p**k * parse_expression(f"({jet})/({den})", J2_CHART, table)
    return OdeProblem(F)


@given(_R_TERMS)
@settings(max_examples=200, deadline=None)
def test_an_accepted_member_has_coefficients_free_of_p_and_q(terms):
    """F = 3/2 q^2/p + R with R free of q: an accepted F has A, B, C with
    zero total derivatives along p and q, and a rejected one fails the
    cubic or the remainder check, the only ones that read R."""
    try:
        fd = family_detect(_r_problem(terms))
    except FamilyRejectionError as exc:
        assert (exc.reason, exc.detail) in {(r, d) for _, r, d in REACHABLE_REJECTIONS[4:]}
    else:
        for coeff in (fd.A, fd.B, fd.C):
            assert coeff.differentiate("p").is_zero and coeff.differentiate("q").is_zero


def _detected(detect, prob):
    try:
        fd = detect(prob)
    except FamilyRejectionError as exc:
        return exc.reason, exc.detail
    return fd.A, fd.B, fd.C


@given(_R_TERMS)
@example([(Fraction(1), 0, 0, 3, "1", "T")])  # A = 1/T(p) reads p through a jet
@example([(Fraction(1), 1, 0, 3, "1", "y+1"), (Fraction(2), 0, 1, 1, "1", "x+y")])
@settings(max_examples=200, deadline=None)
def test_the_coefficient_detector_agrees_with_the_derivative_one(terms):
    """``family_detect`` reads A, C, B off R's numerator by powers of p;
    the derivative detector reads them off R_ppp, R_pp and R_p.  Both give
    the same rejection, or the same coefficients."""
    prob = _r_problem(terms)
    assert _detected(family_detect, prob) == _detected(derivative_family_detect, prob)


# (F, X, Y): y''' = F in the coordinates x~ = X(x), y~ = Y(x, y)
MEMBER = "3/2*q^2/p + x*y*p^3 + (x+y)*p"
FIBRE_CASES = [
    (MEMBER, "x", "y+x"),
    (MEMBER, "2*x", "2*y"),
    (MEMBER, "x", "y*(1+x)"),
    ("3/2*q^2/p", "x+1", "2*y+x"),
    ("3/2*q^2/p", "x", "y+x^2"),
    ("q^2/(p+1)", "2*x", "y+x"),
    ("q^2/(p+1)", "x", "y^2"),
    ("q^2 + y*p", "x+1", "x*y"),
    ("q^2 + y*p", "x", "2*y"),
]


def _fibre_image(F, X, Y):
    return fibre_transform(*(parse_expression(t, J2_CHART, SymbolTable()) for t in (F, X, Y)))


def _vanishing_and_verdicts(text):
    data = analyze(AnalysisRequest(ode=text, stages=("cond",))).data
    values = data["structure_functions"]["values"]
    verdicts = data["conditions"]["verdicts"]
    return {n for n, v in values.items() if v == "0"}, {n: v["holds"] for n, v in verdicts.items()}


@pytest.mark.parametrize("F, X, Y", FIBRE_CASES)
def test_a_fibre_preserving_change_keeps_the_vanishing_invariants_and_verdicts(F, X, Y):
    """The invariants a..s are relative invariants of fibre-preserving
    changes, so which of them vanish, and so the ten condition verdicts,
    are the same for F and its image."""
    assert _fibre_image(F, "x", "y") == parse_expression(F, J2_CHART, SymbolTable())
    before = _vanishing_and_verdicts(F)
    assert len(before[1]) == 10
    assert _vanishing_and_verdicts(_fibre_image(F, X, Y).render()) == before


@pytest.mark.parametrize("X, Y, terms", [("x", "y+x", 19), ("x", "y*(1+x)", 47)])
def test_a_disguised_member_is_rejected_with_its_sigma_term(X, Y, terms):
    """Detection is syntactic: a member in other coordinates has a shifted
    q^2 denominator, which is reported, never normalized away."""
    image = _fibre_image(MEMBER, X, Y)
    assert len(image.num) + len(image.den) == terms
    family = analyze(AnalysisRequest(ode=image.render(), stages=("inv",))).data["family"]
    assert family["reason"] == FamilyRejectionError.SIGMA_TERM_PRESENT


_SMALL = st.integers(-2, 2)

# X = a x + b with a != 0, Y = c(x) y + d(x) with c != 0, c and d of degree
# at most 1: an invertible fibre-preserving change.
_FIBRE_CHANGES = st.builds(
    lambda a, b, c, d: (f"{a}*x + {b}", f"({c[0]} + {c[1]}*x)*y + {d[0]} + {d[1]}*x"),
    _SMALL.filter(bool),
    _SMALL,
    st.tuples(_SMALL, _SMALL).filter(any),
    st.tuples(_SMALL, _SMALL),
)

# Family members, rational A among them, and the rational workload's shapes.
_FIBRE_SOURCES = st.one_of(
    st.builds(
        "3/2*q^2/p + ({})*p^3 + ({})*p^2 + ({})*p".format,
        st.sampled_from(("x*y", "x + y", "y^2", "x/(y+1)", "y/(x+1)", "0")),
        st.sampled_from(("0", "x", "y")),
        st.sampled_from(("x + y", "x*y", "3*y", "x^2")),
    ),
    st.builds("{}q^2/(p+{})".format, st.sampled_from(("", "2*")), st.integers(1, 3)),
    st.builds(
        "3/2*q^2/(p+{0}) + {1}p".format, st.integers(1, 3), st.sampled_from(("", "2*", "3*"))
    ),
    st.builds(
        "3/2*q^2/(p+{0}) + {1}*(p+{0})^3".format,
        st.integers(1, 3),
        st.sampled_from(("x", "2*x", "x^2")),
    ),
)


@settings(max_examples=40, deadline=None)
@given(_FIBRE_SOURCES, _FIBRE_CHANGES)
def test_random_fibre_preserving_changes_pull_the_invariants_back(F, change):
    """Under x~ = X(x), y~ = Y(x, y) the invariants of the image are those
    of F composed with the change lifted to the 6-manifold.  So the same
    invariants vanish, the ten verdicts agree, and every ratio of two
    invariants that reads neither alpha nor gamma is a function on the jet
    chart that pulls back exactly: its value for the image is its value
    for F at (X, Y, p~, q~)."""
    X, Y = (parse_expression(t, J2_CHART, SymbolTable()) for t in change)
    F0 = parse_expression(F, J2_CHART, SymbolTable())
    before = OdeProblem(F0).structure()
    after = OdeProblem(fibre_transform(F0, X, Y)).structure()
    assert [v.is_zero for v in after] == [v.is_zero for v in before]
    verdicts = [[v.holds for v in check_einstein_conditions(sf).verdicts] for sf in (before, after)]
    assert verdicts[0] == verdicts[1]
    lift = prolonged_change(X, Y)
    nonzero = [i for i, v in enumerate(before) if not v.is_zero]
    for i, j in itertools.combinations(nonzero, 2):
        ratio = before[i] / before[j]
        if not cartan._depends_on(ratio, "alpha", "gamma"):
            image = (after[i] / after[j]).on_chart(J2_CHART)
            assert image == ratio.on_chart(J2_CHART).substitute(lift), (i, j)


class TestFamilyInvariants:
    def test_zero_quadratic_coefficient_kills_k(self):
        prob = make_problem("3/2*q^2/p + x*p^3")
        kne = family_invariants(family_detect(prob))
        assert kne.k.is_zero

    def test_n_with_only_quadratic_coefficient(self):
        table = SymbolTable()
        table.declare("C", ("x", "y"))
        prob = OdeProblem(
            parse_expression("3/2*q^2/p + C(x,y)*p^2", J2_CHART, table)
        )
        kne = family_invariants(family_detect(prob))
        ch = M_ADAPTED_CHART
        C = parse_expression("C", ch, table)
        z = Expression.coordinate("z", ch)
        alpha = Expression.coordinate("alpha", ch)
        p = Expression.coordinate("p", ch)
        expected = (C.differentiate("y") - z * C) / (8 * alpha ** 3 * p)
        assert (kne.n - expected).is_zero

    def test_to_adapted_undoes_the_family_pullback(self):
        """``family_structure``'s map z = gamma/p, t = q/p + gamma followed
        by ``to_adapted`` gives back z and t, and both maps fix x, y, alpha,
        p and the jets.  A substitution is a ring homomorphism, so the
        composite is the identity on the adapted chart and
        ``to_adapted(family_structure(kne).X) == kne.X`` for every k, n, e:
        the ``inv`` stage's ``extraction_residuals`` are 0 by this identity."""
        table = SymbolTable()
        table.declare("A", ("x", "y"))
        ch = M_ADAPTED_CHART
        z, t = (Expression.coordinate(c, ch) for c in "zt")
        rest = parse_expression("x*y^2*A_x/(alpha^3*p)", ch, table)
        for kne in (KneInvariants(z, t, rest), family_invariants(generic_family())):
            sf = family_structure(kne)
            for name, value in kne._asdict().items():
                assert to_adapted(getattr(sf, name)) == value
            assert all(getattr(sf, n).is_zero for n in STRUCTURE_NAMES if n not in "kne")
        pulled = family_structure(KneInvariants(z, t, rest))
        assert (pulled.k.render(), pulled.n.render()) == ("gamma/p", "(gamma*p + q)/p")

    def test_cross_check_against_extraction_symbolically(self, family_data):
        residuals = family_invariants_residuals(family_data, family_invariants(family_data))
        for name in ("k", "n", "e"):
            assert residuals[name].is_zero


def _put_in_member(A, B, C):
    """k, n, e, a..s and the metric components a request reads for the
    member with coefficients A, B, C: the generic family's closed forms
    (``report._generic_closed_forms``) with the member's jets put in."""
    forms = report_module._generic_closed_forms()
    jets = jet_expressions(forms.jets, dict(zip(GENERIC_COEFFICIENTS, (A, B, C))))
    powers = {}
    return (
        [e.put_in(jets, powers) for e in forms.kne],
        [e.put_in(jets, powers) for e in forms.structure],
        [[e.put_in(jets, powers) for e in row] for row in forms.metric],
    )


def _assert_put_in_matches_derivation(fd):
    """The put-in equals ``family_invariants`` → ``family_structure`` →
    ``family_metric`` on the member, byte for byte and chart for chart."""
    kne = family_invariants(fd)
    expected = (list(kne), list(family_structure(kne)), family_metric(fd).g)
    got = _put_in_member(fd.A, fd.B, fd.C)
    for ours, theirs in zip(got[:2] + tuple(got[2]), expected[:2] + tuple(expected[2])):
        assert [e.render() for e in ours] == [e.render() for e in theirs]
        assert [e.chart for e in ours] == [e.chart for e in theirs]


def _members(seed, kind, count):
    """``count`` coefficient triples drawn on (x, y): polynomial (over an
    integer), rational, or reading the opaque ``S(x,y)``."""
    table = SymbolTable()
    opaque = (table.declare("S", ("x", "y")),) if kind == "opaque" else ()
    gen = ExpressionSampler(XY_CHART, seed, opaque)

    def draw():
        while True:
            e = gen.expression(2)
            if kind == "opaque" or (kind == "polynomial") == e.den.is_const:
                return e.on_chart(J2_CHART)

    return [member_family(draw(), draw(), draw()) for _ in range(count)]


class TestMemberPutIn:
    """A request's k, n, e, a..s and metric are the generic family's
    closed forms with its jets put in (``Expression.put_in``); the
    derivation on the member is the oracle."""

    @pytest.mark.parametrize("kind", ["polynomial", "rational", "opaque"])
    def test_random_members(self, kind):
        for fd in _members({"polynomial": 11, "rational": 12, "opaque": 13}[kind], kind, 25):
            _assert_put_in_matches_derivation(fd)

    @pytest.mark.parametrize(
        "text",
        [
            # the four family members with a pole in A of the benchmark
            "3/2*q^2/p + x/(y+1)*p^3 + (x + y)*p",
            "3/2*q^2/p + x/(y+1)*p^3 + x*y*p",
            "3/2*q^2/p + y/(x+1)*p^3 + (x + y)*p",
            "3/2*q^2/p + y/(x+1)*p^3 + x*y*p",
            "3/2*q^2/p + 1/(x-y)*p^3 + x/(y^2+1)*p^2 + A(x,y)/(x+1)*p",
            "3/2*q^2/p",
            "3/2*q^2/p + x/2*p^3 + (x+y)/3*p^2 + y/6*p",
        ],
    )
    def test_fixed_members(self, text):
        fd = family_detect(make_problem(text, declare=("A",)))
        _assert_put_in_matches_derivation(fd)

    def test_a_vanishing_image_denominator_raises(self):
        """A jet in a denominator whose image is 0 is refused, as
        ``substitute`` refuses a vanishing denominator."""
        table = SymbolTable()
        table.declare("A", ("x", "y"))
        e = parse_expression("x/A(x,y)", J2_CHART, table)
        with pytest.raises(SingularSubstitutionError):
            e.put_in({"A": Expression.number(0, J2_CHART)})
        assert e.put_in({"A": parse_expression("x*y", J2_CHART, table)}).render() == "1/y"
        assert e.put_in({}) is e


class TestAppendix:
    @pytest.mark.parametrize(
        "problem_fixture",
        ["flat_problem", "family_problem", "qcube_problem"],
    )
    def test_residuals_vanish(self, problem_fixture, request):
        prob = request.getfixturevalue(problem_fixture)
        residuals = _appendix_residuals(prob)
        assert all(r.is_zero for r in residuals)

    @pytest.mark.parametrize(
        "source",
        [
            "flat_problem",
            "family_problem",
            "qcube_problem",
            "q^3*y + x*p",
            "3/2*q^2/(p+1) + 2*p",
        ],
    )
    def test_the_chart_oracle_refuses_a_perturbed_table(self, source, request):
        """The oracle is not vacuous: on each input it gives six zero
        residuals for the paper's table and three nonzero ones for a
        table with one coefficient changed and two rows added."""
        if source.endswith("_problem"):
            prob = request.getfixturevalue(source)
        else:
            prob = make_problem(source)
        sf = structure_functions(prob.coframe())
        assert all(r.is_zero for r in chart_level_residuals(prob.tau(), APPENDIX_TABLE, sf))
        perturbed = chart_level_residuals(prob.tau(), _perturbed_appendix_table(), sf)
        assert [f.is_zero for f in perturbed] == [False, True, True, False, False, True]

    def test_residuals_vanish_for_stress_input(self):
        prob = make_problem("q^3*y + x*p")
        assert all(r.is_zero for r in _appendix_residuals(prob))

    def test_the_appendix_stage_states_its_identity(self, monkeypatch):
        """``appendix`` reports the residuals the chart-level oracle gives
        for the paper's table on every F, without building
        ``tau_differential_table``: with it patched to raise, a non-family
        report is unchanged."""
        request = AnalysisRequest(ode="3/2*q^2/(p+1) + p", stages=("inv", "cond", "appendix"))
        expected = analyze(request)
        residuals = [f.render() for f in _appendix_residuals(make_problem(request.ode))]
        assert expected.data["appendix_residuals"]["residuals"] == residuals == ["0"] * 6

        def refuse(*args, **kwargs):
            raise AssertionError("the appendix stage recomputed its identity")

        for module in (cartan, report_module, connection):
            monkeypatch.setattr(module, "tau_differential_table", refuse, raising=False)
        report = analyze(request)
        assert report.stage_errors == {}
        assert (report.verdicts, report.exit_code) == (expected.verdicts, expected.exit_code)
        del report.data["timings"], expected.data["timings"]
        assert report.data == expected.data

    def test_appendix_is_derived(self):
        """The closed-form differential table is the exact transcription of
        the structure pattern through the constant change of basis."""
        half = Fraction(1, 2)
        theta_in_tau = [
            [half, 0, 0, -half, 0, 0],
            [0, 0, 0, 0, -half, half],
            [0, -half, half, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 0],
        ]
        dtau_from_dtheta = [
            [2, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 2, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 2, 0, 0, 1, 0],
        ]

        def aff_add(a, b):
            const = a[0] + b[0]
            mults = dict(a[1])
            for kk, vv in b[1].items():
                mults[kk] = mults.get(kk, Fraction(0)) + vv
            return const, {kk: vv for kk, vv in mults.items() if vv}

        def aff_scale(a, s):
            return a[0] * s, {kk: vv * s for kk, vv in a[1].items() if vv * s}

        zero = (Fraction(0), {})

        def theta_wedge(i, j):
            out = {}
            for a in range(6):
                for b in range(6):
                    coef = theta_in_tau[i][a] * theta_in_tau[j][b]
                    if coef == 0 or a == b:
                        continue
                    key, sgn = ((a, b), 1) if a < b else ((b, a), -1)
                    out[key] = out.get(key, Fraction(0)) + sgn * coef
            return {k: v for k, v in out.items() if v}

        derived = []
        for row in dtau_from_dtheta:
            slots = {}
            for eq, mult in enumerate(row):
                if not mult:
                    continue
                for (i, j), aff in STRUCTURE_PATTERN[eq].items():
                    for key, coef in theta_wedge(i, j).items():
                        slots[key] = aff_add(
                            slots.get(key, zero), aff_scale(aff, coef * mult)
                        )
            derived.append({k: v for k, v in slots.items() if v != zero})

        assert tuple(tuple(row) for row in dtau_from_dtheta) == cartan._TAU
        assert [cartan.tau_differential_table()[i] for i in range(6)] == derived

        transcribed = []
        for idx in range(6):
            slots = {}
            for aff, left, right in APPENDIX_TABLE[idx]:
                key, sgn = ((left, right), 1) if left < right else ((right, left), -1)
                slots[key] = aff_add(slots.get(key, zero), aff_scale(aff, Fraction(sgn)))
            transcribed.append({k: v for k, v in slots.items() if v != zero})

        assert derived == transcribed
