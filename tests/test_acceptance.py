"""Acceptance criteria.

Every criterion is exact (canonical zero over the rationals); tolerances
are never numeric.  Each test prints a single PASS line with its measured
runtime; run with ``pytest -s tests/test_acceptance.py`` to see them.
"""

import time
from fractions import Fraction

import pytest

from odecartan import Expression, J2_CHART, SymbolTable
from odecartan.cartan import (
    check_einstein_conditions,
    family_detect,
    family_invariants,
    structure_functions,
)
from odecartan.connection import cartan_connection_report, metric_connection_report
from odecartan.curvature import curvature_tensors, einstein_residual, family_metric
from odecartan.forms import Coframe, DifferentialForm, wedge_sum
from odecartan.petrov import classify_at_point, label_rule
from tests.conftest import ExpressionSampler, make_problem
from tests.oracles import (
    APPENDIX_TABLE,
    FLAT_TABLE,
    chart_level_residuals,
    duality_residuals,
    family_invariants_residuals,
)

_clock = time.perf_counter


def _report(number, label, started):
    print(f"ACCEPTANCE {number} [PASS] {label} ({_clock() - started:.2f}s)")


def _chart_extraction(prob):
    """The chart extraction's invariants, which must render as the table's."""
    sf = structure_functions(prob.coframe())
    table = prob.structure()
    assert [v.render() for v in sf] == [v.render() for v in table], "table and chart must agree"
    return sf


def test_criterion_1_flat_model(flat_problem):
    started = _clock()
    sf = _chart_extraction(flat_problem)
    assert sf.all_zero(), "every structure function must be canonical zero"
    residuals = chart_level_residuals(flat_problem.tau(), FLAT_TABLE, flat_problem.structure())
    assert all(r.is_zero for r in residuals), "flat differentials must match term for term"
    _report(1, "flat model: 13 invariants vanish, product-algebra differentials hold", started)


def test_criterion_2_family_conditions(family_problem, family_data):
    started = _clock()
    sf = _chart_extraction(family_problem)
    report = check_einstein_conditions(sf)
    assert report.all_hold, [v.name for v in report.verdicts if not v.holds]
    assert len(report.verdicts) == 10
    residuals = family_invariants_residuals(family_data, family_invariants(family_data))
    assert all(r.is_zero for r in residuals.values())
    _report(2, "cubic family: ten conditions hold, closed-form k,n,e match extraction", started)


def test_criterion_3_einstein_identity(family_metric_tensors):
    started = _clock()
    metric, _, tensors = family_metric_tensors
    residual = einstein_residual(metric, tensors)
    independent = [residual[i][j] for i in range(4) for j in range(i, 4)]
    assert len(independent) == 10
    assert all(r.is_zero for r in independent)
    assert tensors.scalar == -4
    _report(3, "Einstein identity Ric(G) = -G with opaque coefficients; scalar -4", started)


@pytest.mark.parametrize(
    "label, ode_text, expected_pair",
    [
        ("generic xy, x+y", "3/2*q^2/p + x*y*p^3 + (x+y)*p", frozenset(("II", "D"))),
        ("separable y^2, x^2", "3/2*q^2/p + y^2*p^3 + x^2*p", frozenset(("D",))),
        ("zero, zero", "3/2*q^2/p", frozenset(("D",))),
    ],
)
def test_criterion_4_petrov_dichotomy(label, ode_text, expected_pair):
    started = _clock()
    import random

    fd = family_detect(make_problem(ode_text))
    metric = family_metric(fd)
    rule = label_rule(curvature_tensors(metric))
    rng = random.Random(20257)
    results = []
    attempts = 0
    while len(results) < 5 and attempts < 200:
        attempts += 1
        point = {
            c: Fraction(rng.randint(-100, 100), rng.randint(1, 100))
            for c in ("x", "y", "z", "t")
        }
        try:
            results.append(classify_at_point(rule, point))
        except Exception:
            continue
    assert len(results) == 5, "need five generic sample points"
    assert all(r.unordered == expected_pair for r in results)
    d_sides = {
        side
        for r in results
        for side in (("plus",) if r.label_plus == "D" else ())
        + (("minus",) if r.label_minus == "D" else ())
    }
    if expected_pair == frozenset(("II", "D")):
        assert len(d_sides) == 1, "the D factor must stay on one Hodge eigenspace"
    _report(4, f"Petrov dichotomy at 5 exact points: {label}", started)


def test_criterion_5_connection_on_the_bundle(family_data):
    started = _clock()
    rep = metric_connection_report(family_data)
    assert all(r.is_zero for r in rep.torsion_residuals), "d tau + Gamma ^ tau"
    assert all(r.is_zero for r in rep.antisymmetry_residuals), "lowered antisymmetry"
    assert all(r.is_zero for r in rep.curvature_residuals), "sixteen curvature entries"
    assert all(r.is_zero for r in rep.horizontality_residuals)
    assert all(r.is_zero for r in rep.ricci_residuals), "Ricci contraction is minus the block metric"
    _report(5, "bundle connection: torsion, antisymmetry, curvature list, Ricci", started)


def test_criterion_6_cartan_connection(family_data, flat_problem):
    started = _clock()
    rep = cartan_connection_report(family_data)
    assert all(r.is_zero for r in rep.algebra_residuals), "lowered connection antisymmetric"
    assert all(r.is_zero for r in rep.curvature_residuals), "curvature matches entry for entry"
    flat_rep = cartan_connection_report(family_detect(flat_problem))
    assert flat_rep.curvature_zero and flat_rep.invariants_zero
    assert rep.flatness_matches_invariants and flat_rep.flatness_matches_invariants
    _report(6, "so(2,2) Cartan connection: algebra, curvature display, flatness", started)


def test_criterion_7_closed_form_differentials(flat_problem, family_problem, qcube_problem):
    started = _clock()
    for prob in (flat_problem, family_problem, qcube_problem):
        residuals = chart_level_residuals(prob.tau(), APPENDIX_TABLE, prob.structure())
        assert len(residuals) == 6
        assert all(r.is_zero for r in residuals)
    _report(7, "closed-form differentials hold for all three inputs", started)


def test_criterion_8_property_suites(family_problem):
    started = _clock()
    table = SymbolTable()
    gen = ExpressionSampler(J2_CHART, seed=60601,
                            opaque=(table.declare("A", ("x", "y")),))

    def coordinate(name):
        return DifferentialForm.d_coord(J2_CHART, name)

    def random_form(degree):
        if degree == 0:
            return DifferentialForm.scalar(gen.expression(1))
        form = DifferentialForm.zero(J2_CHART, 1)
        for coord in J2_CHART.coords:
            form = form + coordinate(coord).scale(gen.expression(1))
        return form

    # d∘d = 0 on generated forms of degree 0 and 1
    for _ in range(25):
        for degree in (0, 1):
            f = random_form(degree)
            assert f.exterior_derivative().exterior_derivative().is_zero

    # graded Leibniz rule on 100 random pairs
    for _ in range(100):
        deg_f = gen.rng.choice((0, 1))
        f = random_form(deg_f)
        g = random_form(gen.rng.choice((0, 1)))
        sign = -1 if deg_f % 2 else 1
        lhs = f.wedge(g).exterior_derivative()
        rhs = f.exterior_derivative().wedge(g) + f.wedge(g.exterior_derivative()).scale(sign)
        assert (lhs - rhs).is_zero

    # expansion / reconstruction round-trips on a non-coordinate coframe
    p = Expression.coordinate("p", J2_CHART)
    q = Expression.coordinate("q", J2_CHART)
    cf = Coframe(
        [
            coordinate("x"),
            coordinate("y") + coordinate("x").scale(p),
            coordinate("p") - coordinate("x").scale(q),
            coordinate("q").scale(2) + coordinate("y").scale(p * q),
        ]
    )
    for _ in range(10):
        coeffs = {
            (i, j): gen.expression(1) for i in range(4) for j in range(i + 1, 4)
        }
        back = cf.expand_2(wedge_sum(cf.forms, coeffs))
        assert all((back[s] - c).is_zero for s, c in coeffs.items())

    # frame / coframe duality for every coframe the pipeline builds
    for frame in (cf, family_problem.coframe()):
        assert all(r.is_zero for r in duality_residuals(frame))

    # mixed-partial commutation, including opaque symbols
    for _ in range(40):
        e = gen.expression(2)
        assert (
            e.differentiate("x").differentiate("y")
            - e.differentiate("y").differentiate("x")
        ).is_zero

    _report(8, "property suites: d∘d, Leibniz x100, round-trips, duality, mixed partials", started)
