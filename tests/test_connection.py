"""Connection and curvature verifications on the 6-space."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from odecartan import cartan, connection
from odecartan.cartan import family_detect, family_invariants
from odecartan.connection import (
    BLOCK_METRIC,
    CARTAN_CONNECTION,
    METRIC_CONNECTION,
    cartan_connection_report,
    metric_connection_report,
)
from odecartan.curvature import adapted_tau
from odecartan.errors import SymbolCollisionError
from odecartan.expression import Expression
from odecartan.forms import Coframe, wedge_sum
from odecartan.report import AnalysisRequest, _generic_evidence, analyze
from odecartan.symbols import SymbolTable
from tests.conftest import FAMILY_OPAQUE, FAMILY_TEXT, XY_CHART, make_problem
from tests.oracles import (
    chart_cartan_connection_report,
    chart_metric_connection_report,
    connection_matrix,
    displayed_cartan_connection,
    displayed_metric_connection,
    expected_cartan_curvature,
    own_sections,
    ricci_formalism_residuals,
)
from tests.oracles import expected_curvature_entries as oracle_expected_curvature


@pytest.fixture(scope="module")
def family_reports(family_data):
    return metric_connection_report(family_data), cartan_connection_report(family_data)


class TestMetricConnection:
    def test_annihilates_the_horizontal_coframe(self, family_reports):
        mrep, _ = family_reports
        assert all(r.is_zero for r in mrep.torsion_residuals)

    def test_lowered_connection_is_antisymmetric(self, family_reports):
        mrep, _ = family_reports
        assert all(r.is_zero for r in mrep.antisymmetry_residuals)

    def test_curvature_matches_displayed_list(self, family_reports):
        mrep, _ = family_reports
        assert all(r.is_zero for r in mrep.curvature_residuals)

    def test_curvature_is_horizontal(self, family_reports):
        mrep, _ = family_reports
        assert all(r.is_zero for r in mrep.horizontality_residuals)

    def test_ricci_contraction_is_minus_block_metric(self, family_reports):
        mrep, _ = family_reports
        assert all(r.is_zero for r in mrep.ricci_residuals)

    def test_flat_curvature_entries_reduce(self):
        fd = family_detect(make_problem("3/2*q^2/p"))
        expected = expected_cartan_curvature(fd)
        # vanishing invariants collapse the displayed matrix entirely
        assert all(expected[i][j].is_zero for i in range(4) for j in range(4))
        mrep = metric_connection_report(fd)
        assert mrep.all_zero

    def test_specialized_family_all_checks(self):
        fd = family_detect(make_problem("3/2*q^2/p + x*y*p^3 + 3*p^2 + (x+y)*p"))
        mrep = metric_connection_report(fd)
        assert mrep.all_zero


class TestFormalismConsistency:
    def test_coordinate_and_frame_ricci_agree(self, family_data, family_metric_tensors):
        _, _, tensors = family_metric_tensors
        residuals = ricci_formalism_residuals(family_data, tensors)
        assert all(r.is_zero for r in residuals)


class TestCartanConnection:
    def test_algebra_valued_against_block_metric(self, family_reports):
        _, crep = family_reports
        assert all(r.is_zero for r in crep.algebra_residuals)

    def test_curvature_matches_displayed_matrix(self, family_reports):
        _, crep = family_reports
        assert all(r.is_zero for r in crep.curvature_residuals)

    def test_family_with_invariants_is_not_flat(self, family_reports):
        _, crep = family_reports
        assert not crep.invariants_zero
        assert not crep.curvature_zero
        assert crep.flatness_matches_invariants

    def test_flat_model_has_zero_curvature(self):
        fd = family_detect(make_problem("3/2*q^2/p"))
        crep = cartan_connection_report(fd)
        assert crep.invariants_zero and crep.curvature_zero
        assert crep.all_zero

    def test_flatness_iff_invariants_on_specializations(self):
        cases = [
            ("3/2*q^2/p", True),
            ("3/2*q^2/p + 5*p^2", False),          # C nonzero: k survives
            ("3/2*q^2/p + x*p^3", False),           # A_x nonzero: n survives
            ("3/2*q^2/p + y^2*p", False),           # B_y nonzero: e survives
            ("3/2*q^2/p + 7*p^3 + 2*p", True),      # constant A, B: all vanish
        ]
        for text, flat in cases:
            fd = family_detect(make_problem(text))
            crep = cartan_connection_report(fd)
            kne = family_invariants(fd)
            assert kne.all_zero() is flat
            assert crep.curvature_zero is flat
            assert crep.flatness_matches_invariants

    def test_displayed_entry_for_generic_coefficients(self, family_data):
        # the (2,4) slot of the displayed curvature carries -n/4
        from odecartan.curvature import adapted_tau

        expected = expected_cartan_curvature(family_data)
        tau = adapted_tau(family_data.problem)
        kne = family_invariants(family_data)
        t14 = tau[0].wedge(tau[3])
        from fractions import Fraction

        assert (expected[1][3] - t14.scale(-Fraction(1, 4) * kne.n)).is_zero

    def test_block_metric_shape(self):
        assert BLOCK_METRIC == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


# -- the coefficient path against the chart-level oracle ----------------------

ORACLE_CASES = {
    "flat": "3/2*q^2/p",
    "opaque": None,
    "specialised": "3/2*q^2/p + x*y*p^3 + 3*p^2 + (x+y)*p",
    "pole": "3/2*q^2/p + x/(y+1)*p^3 + (x+y)*p",
}
METRIC_GROUPS = (
    "torsion_residuals",
    "antisymmetry_residuals",
    "curvature_residuals",
    "horizontality_residuals",
    "ricci_residuals",
)
CARTAN_GROUPS = ("algebra_residuals", "curvature_residuals")


@pytest.fixture(scope="module", params=list(ORACLE_CASES), ids=list(ORACLE_CASES))
def oracle_family(request, family_data):
    text = ORACLE_CASES[request.param]
    return family_data if text is None else family_detect(make_problem(text))


def assert_same_reports(new, old, groups):
    for group in groups:
        ours, theirs = getattr(new, group), getattr(old, group)
        assert len(ours) == len(theirs), group
        for a, b in zip(ours, theirs):
            assert a == b, group
    assert new.all_zero == old.all_zero


def assert_same_renderings(new, old, group):
    ours = [f.render() for f in getattr(new, group)]
    assert ours == [f.render() for f in getattr(old, group)]
    return ours


class TestAgainstChartOracle:
    def test_metric_connection_form_by_form(self, oracle_family):
        new = metric_connection_report(oracle_family)
        old = chart_metric_connection_report(oracle_family)
        assert_same_reports(new, old, METRIC_GROUPS)
        assert_same_renderings(new, old, "torsion_residuals")
        assert new.all_zero

    def test_cartan_connection_form_by_form(self, oracle_family):
        new = cartan_connection_report(oracle_family)
        old = chart_cartan_connection_report(oracle_family)
        assert_same_reports(new, old, CARTAN_GROUPS)
        assert_same_renderings(new, old, "algebra_residuals")
        assert (new.invariants_zero, new.curvature_zero) == (old.invariants_zero, old.curvature_zero)
        assert new.flatness_matches_invariants == old.flatness_matches_invariants
        assert new.all_zero

    def test_tables_reproduce_the_displayed_matrices(self, oracle_family):
        for table, displayed in (
            (METRIC_CONNECTION, displayed_metric_connection(oracle_family)),
            (CARTAN_CONNECTION, displayed_cartan_connection(oracle_family)),
        ):
            built = connection_matrix(oracle_family, table)
            assert all(built[i][j] == displayed[i][j] for i in range(4) for j in range(4))

    def test_expected_entries_map_back_to_the_displayed_forms(self, oracle_family):
        prob = oracle_family.problem
        forms = adapted_tau(prob)
        kne = family_invariants(oracle_family)
        frame = Coframe(list(forms))
        dn, de = frame.frame_derivatives(kne.n), frame.frame_derivatives(kne.e)
        for ours, theirs in (
            (
                connection.expected_curvature_entries(kne, dn, de),
                oracle_expected_curvature(oracle_family),
            ),
            (connection.expected_cartan_curvature(kne), expected_cartan_curvature(oracle_family)),
        ):
            for i in range(4):
                for j in range(4):
                    assert wedge_sum(forms, ours.get((i, j), {})) == theirs[i][j]

    def test_tau_differentials_match_the_chart(self, oracle_family):
        prob = oracle_family.problem
        tau = adapted_tau(prob)
        for form, coeffs in zip(tau, connection.adapted_tau_differentials(prob)):
            assert wedge_sum(tau, coeffs) == form.exterior_derivative()


class TestOneGenericFamily:
    """``metric`` and ``conn`` read the residuals of one member with opaque
    A', B', C' (``cartan.generic_family``); the member's own 6-space
    (``tests/oracles.py``) is the reference for their report sections."""

    def test_the_generic_member_is_a_member_with_reserved_names(self):
        fd = cartan.generic_family()
        detected = family_detect(fd.problem)
        assert (detected.A, detected.B, detected.C) == (fd.A, fd.B, fd.C)
        for name in cartan.GENERIC_COEFFICIENTS:
            with pytest.raises(SymbolCollisionError):
                SymbolTable().declare(name, ("x", "y"))

    def test_denominators_are_monomials_in_alpha_and_p(self):
        """The premise that makes putting in a member's A, B, C a ring
        homomorphism: no denominator holds a jet of A', B' or C'."""
        fd = cartan.generic_family()
        prob = fd.problem
        frame = Coframe(list(adapted_tau(prob)))
        tensors = _generic_evidence().tensors
        groups = {
            "coframe inverse": [e for row in prob.coframe().inverse for e in row],
            "adapted dual frame": [e for row in frame.inverse for e in row] + [frame.det],
            "d(tau)": [c for d_tau in connection.adapted_tau_differentials(prob)
                       for c in d_tau.values() if isinstance(c, Expression)],
            "k, n, e": list(family_invariants(fd)),
            "generic g^-1": [e for row in tensors.ginv for e in row] + [tensors.det],
        }
        assert len(groups["d(tau)"]) > 0
        for group, exprs in groups.items():
            for e in exprs:
                assert {s.name for s in e.den.symbols()} <= {"alpha", "p"}, group
                assert len(e.den.terms) == 1, group

    @pytest.mark.parametrize(
        "ode, opaque, specs, flat",
        [
            ("3/2*q^2/p", {}, {}, True),
            (FAMILY_TEXT, FAMILY_OPAQUE, {}, False),
            ("3/2*q^2/p + x/(y+1)*p^3 + (x + y)*p", {}, {}, False),
            # a concrete A specialised anyway: these sections read the member's own A
            ("3/2*q^2/p + x*y*p^3 + 3*p^2 + (x+y)*p", {}, {"A": "y^2"}, False),
            ("3/2*q^2/p + 7*p^3 + 2*p", {}, {}, True),
        ],
        ids=["flat", "opaque", "pole", "specialised", "constant"],
    )
    def test_stage_sections(self, ode, opaque, specs, flat):
        request = AnalysisRequest(
            ode=ode, opaque=opaque, stages=("metric", "conn"), specializations=specs
        )
        connection_section = assert_sections_match_own_reports(request)
        cartan_section = connection_section["cartan_connection"]
        assert cartan_section["invariants_zero"] is cartan_section["curvature_zero"] is flat

    @given(st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_rational_members(self, sampler, seed):
        gen = sampler(seed=seed, chart=XY_CHART)
        A, B, C = (gen.expression().render() for _ in range(3))
        assert_sections_match_own_reports(
            AnalysisRequest(ode=f"3/2*q^2/p + ({A})*p^3 + ({C})*p^2 + ({B})*p", stages=("metric", "conn"))
        )


def assert_sections_match_own_reports(request):
    report = analyze(request)
    metric_section, connection_section = own_sections(request)
    assert report.data["metric"] == metric_section
    assert report.data["connection"] == connection_section
    assert report.exit_code == 0
    return connection_section


def test_theta_wedges_in_the_tau_basis(family_problem):
    theta = family_problem.coframe().forms
    tau = family_problem.tau()
    for (b, c), minors in cartan._THETA_TO_TAU.items():
        assert wedge_sum(tau, minors) == theta[b].wedge(theta[c])


def test_tau_matrix_inverse():
    from odecartan.cartan import _TAU, _TAU_INV

    for i in range(6):
        for j in range(6):
            assert sum(_TAU[i][k] * _TAU_INV[k][j] for k in range(6)) == (i == j)


class TestPerturbedTables:
    """One coefficient changed in each connection: the residuals are
    nonzero, so the map back to chart forms is exercised."""

    TEXT = "3/2*q^2/p + x*y*p^3 + 3*p^2 + (x+y)*p"

    def perturbed(self, table, entry, a, value):
        out = {ij: dict(row) for ij, row in table.items()}
        out[entry][a] = value
        return out

    def test_metric_connection(self, monkeypatch):
        from odecartan.cartan import _AFFINE, _T1

        fd = family_detect(make_problem(self.TEXT))
        table = self.perturbed(METRIC_CONNECTION, (1, 3), _T1, _AFFINE(n=-1))
        monkeypatch.setattr(connection, "METRIC_CONNECTION", table)
        new = metric_connection_report(fd)
        old = chart_metric_connection_report(fd, table)
        assert_same_reports(new, old, METRIC_GROUPS)
        rendered = assert_same_renderings(new, old, "torsion_residuals")
        assert rendered[1] != "0"
        assert not all(r.is_zero for r in new.antisymmetry_residuals)
        assert not all(r.is_zero for r in new.curvature_residuals)
        assert not new.all_zero

    def test_cartan_connection(self, monkeypatch):
        from odecartan.cartan import _AFFINE, _T1

        fd = family_detect(make_problem(self.TEXT))
        table = self.perturbed(CARTAN_CONNECTION, (0, 2), _T1, _AFFINE(2))
        monkeypatch.setattr(connection, "CARTAN_CONNECTION", table)
        new = cartan_connection_report(fd)
        old = chart_cartan_connection_report(fd, table)
        assert_same_reports(new, old, CARTAN_GROUPS)
        rendered = assert_same_renderings(new, old, "algebra_residuals")
        assert any(r != "0" for r in rendered)
        assert not all(r.is_zero for r in new.curvature_residuals)
        assert (new.curvature_zero, old.curvature_zero) == (False, False)
        assert not new.all_zero
