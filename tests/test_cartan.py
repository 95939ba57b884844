"""The 6-manifold pipeline: coframe, invariants, conditions, the family."""

from fractions import Fraction

import pytest

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
from odecartan import cartan
from odecartan.cartan import (
    APPENDIX_TABLE,
    FLAT_TABLE,
    REDUCED_TABLE,
    STRUCTURE_NAMES,
    STRUCTURE_PATTERN,
    OdeProblem,
    base_coframe,
    check_einstein_conditions,
    differential_residuals,
    family_detect,
    family_invariants,
    family_invariants_residuals,
    invariant_K,
    invariant_coframe,
    residual_table,
    structure_functions,
    verify_appendix,
)
from odecartan.forms import DifferentialForm
from tests.conftest import make_problem
from tests.oracles import printed_display_coframe, tau_from_theta_residuals


def chart_level_residuals(tau, table, sf=None):
    """Reference oracle for ``differential_residuals``: d(tau_i) taken on
    the chart, minus the table's wedges of tau forms built on the chart."""
    chart = tau[0].chart
    zero = Expression.number(0, chart)
    values = sf._asdict() if sf is not None else dict.fromkeys(STRUCTURE_NAMES, zero)
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


_AFFINE = cartan._AFFINE
_T1, _T2, _T3, _T4, _G1, _G2 = range(6)

# The reduced and flat tables as transcribed from the paper, before
# ``cartan`` generated them from APPENDIX_TABLE: the expected values.
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
        prob = OdeProblem.__new__(OdeProblem)
        prob.F = parse_expression("0", J2_CHART, table)
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
        assert flat_problem.structure().all_zero()

    def test_family_conditions(self, family_problem, family_data):
        sf = family_problem.structure()
        report = check_einstein_conditions(sf)
        assert report.all_hold
        # the surviving invariants in the raw chart
        assert sf.k.render() == "-C/(4*alpha^2*p)"
        assert not sf.n.is_zero and not sf.e.is_zero

    def test_family_invariants_match_extraction(self, family_data):
        residuals = family_invariants_residuals(family_data, family_invariants(family_data))
        assert all(r.is_zero for r in residuals.values())

    def test_qcube_fails_some_condition(self, qcube_problem):
        report = check_einstein_conditions(qcube_problem.structure())
        assert not report.all_hold
        failing = [v.name for v in report.verdicts if not v.holds]
        assert failing
        for v in report.verdicts:
            assert v.holds == v.residual.is_zero

    def test_extraction_consistent_for_stress_inputs(self):
        # the overdetermined pattern holds for generic admissible F
        for text in ("q^2", "q^3*y + x*p", "q^3 + y*p"):
            prob = make_problem(text)
            prob.structure()  # raises on any inconsistent slot

    def test_polynomial_denominators_stay_tractable(self):
        # shifted denominator: every coframe coefficient is a genuine
        # rational function, exercising the full GCD machinery
        prob = make_problem("3/2*q^2/(p+1) + p")
        prob.structure()
        assert all(r.is_zero for r in verify_appendix(prob))

    def test_condition_verdicts_carry_residuals(self, qcube_problem):
        report = check_einstein_conditions(qcube_problem.structure())
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
        # generated rows are already merged and oriented
        for i, rows in generated.items():
            slots = [(left, right) for _, left, right in rows]
            assert all(left < right for left, right in slots)
            assert len(set(slots)) == len(slots)
            assert all(const or any(mults.values()) for (const, mults), _, _ in rows)

    def test_flat_differentials(self, flat_problem):
        residuals = differential_residuals(flat_problem, residual_table(FLAT_TABLE))
        assert all(r.is_zero for r in residuals)

    def test_family_reduced_differentials(self, family_problem):
        residuals = differential_residuals(family_problem, residual_table(REDUCED_TABLE))
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

    def test_cross_check_against_extraction_symbolically(self, family_data):
        residuals = family_invariants_residuals(family_data, family_invariants(family_data))
        for name in ("k", "n", "e"):
            assert residuals[name].is_zero


class TestAppendix:
    @pytest.mark.parametrize(
        "problem_fixture",
        ["flat_problem", "family_problem", "qcube_problem"],
    )
    def test_residuals_vanish(self, problem_fixture, request):
        prob = request.getfixturevalue(problem_fixture)
        residuals = verify_appendix(prob)
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
    def test_theta_basis_residuals_match_chart_oracle(self, source, request):
        if source.endswith("_problem"):
            prob = request.getfixturevalue(source)
        else:
            prob = make_problem(source)
        sf = prob.structure()
        perturbed = _perturbed_appendix_table()
        for table in (APPENDIX_TABLE, perturbed):
            fast = differential_residuals(prob, residual_table(table))
            oracle = chart_level_residuals(prob.tau(), table, sf)
            assert [repr(f) for f in fast] == [repr(f) for f in oracle]
        assert [f.is_zero for f in fast] == [False, True, True, False, False, True]

    def test_appendix_merge_is_built_once_and_empty(self):
        merged = cartan._appendix_residual_table()
        assert merged is cartan._appendix_residual_table()
        assert merged == residual_table(APPENDIX_TABLE) == {i: [] for i in range(6)}

    def test_residuals_vanish_for_stress_input(self):
        prob = make_problem("q^3*y + x*p")
        assert all(r.is_zero for r in verify_appendix(prob))

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
