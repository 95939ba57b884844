"""The committed generic invariant table and the requests that read it.

``odecartan/generic_structure.py`` holds a..s of y''' = G'(x, y, p, q),
G' opaque.  Regenerating it builds the coframe of G' and verifies all ninety
pattern slots, so the byte-for-byte comparison below is the pattern check
for every F with F_qq ≠ 0; a hand edit to any entry fails it.  Every
request, in the cubic family or outside it, reads the table with its own
jets put in (``OdeProblem.structure()``) and builds no coframe; the chart
extraction, ``structure_functions`` on the problem's coframe, is the
oracle.  A family member's request reads its own closed-form k, n, e
pulled back to the P chart instead (``cartan.family_structure``); the
table on the generic member proves that identity for every member.

The table path reads F's jets in factored form (``factored_jets``); the
former path, with every jet a reduced ``Expression`` and a ``Fraction``
walk, is the reduced-jet oracle (``tests.oracles.reduced_jet_structure``),
and each factored jet is checked against the ``differentiate`` chain.  The
coprime base it builds with no derivative of F is checked against the base
of F's differentiated jets (``tests.oracles.derivative_base``).
"""

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from odecartan import J2_CHART, Chart, Expression, SymbolTable, parse_expression
from odecartan import cartan, connection, curvature, expression, invariant_table, poly
from odecartan import report as report_module
from odecartan.cartan import (
    STRUCTURE_NAMES,
    OdeProblem,
    family_detect,
    family_invariants,
    family_structure,
    generic_family,
    structure_functions,
)
from odecartan.errors import DegenerateOdeError, FamilyRejectionError
from odecartan.forms import DifferentialForm
from odecartan.poly import Poly
from odecartan.report import AnalysisRequest, analyze, emit_report
from tests.conftest import ExpressionSampler
from odecartan.symbols import P_CHART
from tests.oracles import derivative_base, normalized_over_base, reduced_jet_structure
from tests.test_digests import workloads

COMMITTED = Path(invariant_table.__file__).with_name("generic_structure.py")


def _renders(sf):
    return {name: getattr(sf, name).render() for name in STRUCTURE_NAMES}


def _assert_table_matches_chart(rhs):
    """The table path gives the chart extraction's invariants, byte for byte."""
    prob = OdeProblem(rhs)
    table_path = invariant_table.structure_from_jets(prob)
    assert _renders(table_path) == _renders(structure_functions(prob.coframe()))


def test_the_committed_table_is_regenerated_byte_for_byte(tmp_path):
    target = tmp_path / "generic_structure.py"
    text = invariant_table.write_generic_table(target)
    assert target.read_text(encoding="utf-8") == text
    assert COMMITTED.read_text(encoding="utf-8") == text


def test_the_decoded_table_has_41_jets_and_787_terms():
    indices, qq, table = invariant_table._generic_table()
    assert len(indices) == 41 and indices[qq] == ("q", "q")
    assert tuple(table) == STRUCTURE_NAMES
    assert sum(len(terms) for _, _, terms in table.values()) == 787


@pytest.mark.parametrize(
    "text",
    [
        "q^3/(p+y) + x*q/(p-x) + 1/(x+y)",
        "q^2/(p+S(x,y)) + y*q",
        "H(x,y,p,q)",
        "3/2*q^2/(2*p+2) + x*p",
        # members of the cubic family: flat, opaque and with a pole in y
        "3/2*q^2/p",
        "3/2*q^2/p + A(x,y)*p^3 + C(x,y)*p^2 + B(x,y)*p",
        "3/2*q^2/p + x/(y+1)*p^3 + (x+y)*p",
    ],
)
def test_the_table_path_matches_the_chart_extraction(text):
    table = SymbolTable()
    for name in ("S", "A", "B", "C"):
        table.declare(name, ("x", "y"))
    table.declare("H", ("x", "y", "p", "q"))
    _assert_table_matches_chart(parse_expression(text, J2_CHART, table))


# Denominators are drawn without q: with q in the denominator the chart
# extraction of a depth-1 sample took up to 44 s, against at most 1.6 s
# here (about 0.4 s on average, so 60 examples take about 30 s).
_NO_Q = Chart("XYP", ("x", "y", "p"))


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_the_table_path_matches_the_chart_on_random_rational_f(seed):
    """F = (q^2 E1 + E2) / E3: E1 and E2 depth-1 samples over x, y, p, q
    and an opaque S(x, y), E3 a nonzero depth-1 sample over x, y, p, S."""
    table = SymbolTable()
    S = table.declare("S", ("x", "y"))
    gen = ExpressionSampler(J2_CHART, seed, (S,))
    den = ExpressionSampler(_NO_Q, seed + 1, (S,)).expression(1)
    assume(not den.is_zero)
    q = Expression.coordinate("q", J2_CHART)
    rhs = (q * q * gen.expression(1) + gen.expression(1)) / den.on_chart(J2_CHART)
    try:
        family_detect(OdeProblem(rhs))
    except DegenerateOdeError:
        assume(False)
    except FamilyRejectionError:
        with _reductions_checked():
            _assert_table_matches_chart(rhs)
    else:
        assume(False)


_XY = Chart("XY", ("x", "y"))


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_the_table_path_matches_the_chart_on_random_family_members(seed):
    """F = 3/2 q^2/p + A p^3 + C p^2 + B p with A, B, C depth-3 samples over
    x, y and an opaque S(x, y), so no denominator holds q (the chart
    extraction takes about 25 ms per example)."""
    table = SymbolTable()
    S = table.declare("S", ("x", "y"))
    gen = ExpressionSampler(_XY, seed, (S,))
    A, B, C = (gen.expression(3).on_chart(J2_CHART) for _ in range(3))
    p, q = (Expression.coordinate(c, J2_CHART) for c in "pq")
    rhs = Fraction(3, 2) * q * q / p + A * p**3 + C * p * p + B * p
    family_detect(OdeProblem(rhs))  # raises if rhs left the family
    _assert_table_matches_chart(rhs)


def test_the_table_on_the_generic_member_is_its_pulled_back_closed_forms():
    """The identity a family member's ``inv`` reads: on ``generic_family()``
    (opaque A', B', C') the table gives k, n, e as ``family_invariants``
    pulled back to the P chart and every other invariant as 0.  The
    generic member's denominators are monomials in alpha and p, so putting
    in a member's A, B, C keeps it."""
    fd = generic_family()
    table = invariant_table.structure_from_jets(fd.problem)
    pulled_back = family_structure(family_invariants(fd))
    assert _renders(table) == _renders(pulled_back)
    assert {n for n in STRUCTURE_NAMES if not getattr(table, n).is_zero} == {"k", "n", "e"}


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_a_family_request_reports_the_tables_invariants(seed):
    """F = 3/2 q^2/p + A p^3 + C p^2 + B p with A, B, C depth-2 samples over
    x, y and an opaque S(x, y): ``analyze`` reads the pulled-back closed
    forms, and they render as the table's invariants of F."""
    table = SymbolTable()
    S = table.declare("S", ("x", "y"))
    gen = ExpressionSampler(_XY, seed, (S,))
    A, B, C = (gen.expression(2).on_chart(J2_CHART) for _ in range(3))
    p, q = (Expression.coordinate(c, J2_CHART) for c in "pq")
    rhs = Fraction(3, 2) * q * q / p + A * p**3 + C * p * p + B * p
    report = analyze(AnalysisRequest(ode=rhs.render(), opaque={"S": ("x", "y")}, stages=("inv",)))
    assert report.data["family"]["accepted"] is True
    assert report.data["invariants_kne"]["matches_extraction"] is True
    assert report.data["structure_functions"]["values"] == _renders(OdeProblem(rhs).structure())


def test_structure_reads_the_table_with_q_in_a_denominator(monkeypatch):
    """``OdeProblem.structure()`` builds no coframe for a non-family F whose
    denominator holds q, and gives the chart extraction's invariants."""
    prob = OdeProblem(parse_expression("q^2/(p+q)", J2_CHART, SymbolTable()))
    with pytest.raises(FamilyRejectionError):
        family_detect(prob)

    def refuse(prob):
        raise AssertionError("a coframe was built")

    monkeypatch.setattr(cartan, "invariant_coframe", refuse)
    sf = prob.structure()
    assert prob.structure() is sf and not sf.all_zero()
    monkeypatch.undo()
    assert _renders(sf) == _renders(structure_functions(prob.coframe()))


@pytest.mark.parametrize(
    "ode, opaque, verdicts",
    [
        ("3/2*q^2/(p+1) + 2*p", {}, {"inv": True, "cond": False, "appendix": True}),
        ("3/2*q^2/p", {}, {"inv": True, "cond": True, "appendix": True}),
        (
            "3/2*q^2/p + A(x,y)*p^3 + C(x,y)*p^2 + B(x,y)*p",
            {n: ("x", "y") for n in "ABC"},
            {"inv": True, "cond": True, "appendix": True},
        ),
        ("3/2*q^2/p + x/(y+1)*p^3 + (x+y)*p", {}, {"inv": True, "cond": True, "appendix": True}),
    ],
)
def test_a_request_builds_no_coframe(monkeypatch, ode, opaque, verdicts):
    def refuse(prob):
        raise AssertionError("a coframe was built")

    monkeypatch.setattr(cartan, "invariant_coframe", refuse)
    report = analyze(AnalysisRequest(ode=ode, opaque=opaque, stages=("inv", "cond", "appendix")))
    assert report.stage_errors == {}
    assert report.verdicts == verdicts
    if report.data["family"]["accepted"]:
        assert report.data["invariants_kne"]["matches_extraction"] is True


_FAMILY_REQUESTS = {
    "flat": AnalysisRequest(ode="3/2*q^2/p", stages=("all",)),
    "opaque": AnalysisRequest(
        ode="3/2*q^2/p + A(x,y)*p^3 + C(x,y)*p^2 + B(x,y)*p",
        opaque={n: ("x", "y") for n in "ABC"},
        stages=("inv", "cond", "metric", "einstein", "conn", "appendix"),
    ),
    "generic": AnalysisRequest(
        ode="3/2*q^2/p + A(x,y)*p^3 + C(x,y)*p^2 + B(x,y)*p",
        opaque={n: ("x", "y") for n in "ABC"},
        stages=("all",),
        specializations={"A": "x*y", "B": "y^2 + x"},
    ),
}


def _without_timings(report):
    """The emitted JSON with its wall-clock section dropped, keys in order."""
    data = json.loads(emit_report(report))
    del data["timings"]
    return json.dumps(data)


@pytest.mark.parametrize("kind", sorted(_FAMILY_REQUESTS))
def test_a_family_request_recomputes_no_identity(monkeypatch, kind):
    """``matches_extraction`` and ``curvature_zero`` are committed
    identities (``test_to_adapted_undoes_the_family_pullback``,
    ``test_the_displayed_curvature_vanishes_exactly_with_k_n_e``): once the
    generic record is built, a family request pulls nothing to the adapted
    chart, builds no displayed curvature and reads no zero test of a
    generic connection residual, and its report is unchanged."""
    request = _FAMILY_REQUESTS[kind]
    expected = analyze(request)
    assert expected.exit_code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a family request recomputed an identity")

    evidence = report_module._generic_evidence()
    generic = {
        id(r)
        for rep in (evidence.metric_connection, evidence.cartan_connection[:2])
        for group in rep
        for r in group
    }
    for cls in (Expression, DifferentialForm):
        zero_test = cls.is_zero.fget

        def guarded(self, zero_test=zero_test):
            if id(self) in generic:
                raise AssertionError("a family request re-read a generic connection residual")
            return zero_test(self)

        monkeypatch.setattr(cls, "is_zero", property(guarded))

    for module, name in [
        (cartan, "to_adapted"),
        (connection, "expected_cartan_curvature"),
        (connection, "to_adapted"),
        (curvature, "to_adapted"),
    ]:
        monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(report_module, name, refuse, raising=False)
    report = analyze(request)
    assert report.stage_errors == {}
    assert report.exit_code == 0
    assert _without_timings(report) == _without_timings(expected)


@pytest.mark.parametrize("kind", sorted(_FAMILY_REQUESTS))
def test_a_family_request_derives_no_closed_form(monkeypatch, kind):
    """A member's k, n, e, a..s and metric are the generic family's closed
    forms with its jets put in: once the first request has built them
    (``report._generic_closed_forms``), ``family_invariants``,
    ``family_structure`` and ``family_metric`` are off the request path,
    and a second request gives the same report."""
    request = _FAMILY_REQUESTS[kind]
    expected = analyze(request)
    assert expected.exit_code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a family request derived a closed form")

    for module, name in [
        (cartan, "family_invariants"),
        (cartan, "family_structure"),
        (curvature, "family_metric"),
    ]:
        monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(report_module, name, refuse)
    report = analyze(request)
    assert report.stage_errors == {}
    assert _without_timings(report) == _without_timings(expected)


def test_an_inv_only_family_request_builds_no_generic_evidence(monkeypatch):
    """``inv`` and ``cond`` of a family member read the closed forms alone:
    the metric, curvature and connection record is not built for them."""

    def refuse():
        raise AssertionError("an inv-only request built the generic evidence")

    monkeypatch.setattr(report_module, "_generic_evidence", refuse)
    request = _FAMILY_REQUESTS["opaque"]
    report = analyze(AnalysisRequest(ode=request.ode, opaque=request.opaque,
                                      stages=("inv", "cond", "appendix")))
    assert report.stage_errors == {}
    assert report.exit_code == 0
    assert report.data["invariants_kne"]["k"] == "-C/(4*alpha^2*p)"


def _parse(text):
    table = SymbolTable()
    table.declare("S", ("x", "y"))
    table.declare("H", ("x", "y", "p", "q"))
    return parse_expression(text, J2_CHART, table)


@contextmanager
def _reductions_checked(forced_zero=False):
    """Every ``invariant_table._reduced`` call inside must give the
    oracle's numerator and denominator (``normalized_over_base``).  With
    ``forced_zero`` each call runs again with the evaluator reporting 0
    everywhere, so every certified element is trial-divided: the result
    must not change, because a zero is trusted to prove nothing."""
    reduce = invariant_table._reduced

    def checked(num, coeff, alpha_power, base, points, exponents, power):
        out = reduce(num, coeff, alpha_power, base, points, exponents, power)
        expected = normalized_over_base(num, coeff, alpha_power, base, exponents)
        assert (out.num, out.den) == (expected.num, expected.den)
        if forced_zero:
            with mock.patch.object(invariant_table, "_residue", lambda p, point: 0):
                again = reduce(num, coeff, alpha_power, base, points, exponents, power)
            assert (again.num, again.den) == (expected.num, expected.den)
        return out

    with mock.patch.object(invariant_table, "_reduced", checked):
        yield


def _assert_matches_the_reduced_jet_oracle(rhs, forced_zero=False):
    with _reductions_checked(forced_zero):
        sf = invariant_table.structure_from_jets(OdeProblem(rhs))
    oracle = reduced_jet_structure(rhs)
    assert all(getattr(sf, n) == getattr(oracle, n) for n in STRUCTURE_NAMES)
    assert _renders(sf) == _renders(oracle)


def _assert_factored_jets_match_the_chain(rhs):
    """Each factored jet N / (c · Π b^e) is F's ``differentiate`` chain along
    its index, for all 41 indices, and F_qq is cn/cd · Π b^v."""
    indices = invariant_table._generic_table()[0]
    base, _, jets, (cn, cd, v) = invariant_table.factored_jets(OdeProblem(rhs), indices)
    assert len(jets) == 41
    f = rhs.on_chart(J2_CHART)
    for index, jet in zip(indices, jets):
        chain = f
        for z in index:
            chain = chain.differentiate(z)
        if jet is None:
            assert chain.is_zero, index
            continue
        n, c, e = jet
        den = Poly.const(c)
        for b, k in zip(base, e):
            den = den * b**k
        assert not n.is_zero and Expression(n, den, J2_CHART) == chain, index
    fqq = Expression.number(Fraction(cn, cd), J2_CHART)
    for b, k in zip(base, v):
        fqq = fqq * Expression(b, Poly.const(1), J2_CHART) ** k
    assert fqq == f.differentiate("q").differentiate("q")


_ORACLE_CASES = [
    "q^3/(p+y) + x*q/(p-x) + 1/(x+y)",
    "(q^2+x)/((p+1)^2*(p+x)) + y/(p^2-x^2)",
    "q^2/(p+x) + y*q/(p^2+1)",
    "q^2/(p+S(x,y)) + y*q",
    "H(x,y,p,q)",
    "q^2/(p+1)^3 + x/(y^2+1)",
    "q^2",
    "q^3 + y*p",
]


@pytest.mark.parametrize("text", _ORACLE_CASES)
def test_the_table_path_matches_the_reduced_jet_oracle(text):
    _assert_matches_the_reduced_jet_oracle(_parse(text), forced_zero=True)


def test_a_plan_holds_the_live_terms_of_its_dead_jet_mask():
    """For every dead-jet mask met by the ``rational`` benchmark domain and
    the oracle cases, ``_plan`` holds exactly the table's terms that read
    no zero jet (``mask & dead == 0``), in table order, each key split into
    its power of G'_qq and its other pairs; the plan cache is bounded."""
    indices, qq, table = invariant_table._generic_table()
    masks = set()
    for text in {r.ode for r in workloads.domain("rational")} | set(_ORACLE_CASES):
        jets = invariant_table.factored_jets(OdeProblem(_parse(text)), indices)[2]
        masks.add(sum(1 << j for j, jet in enumerate(jets) if jet is None))
    assert len(masks) > 1
    for dead in masks:
        keys, invariants = invariant_table._plan(dead)
        assert tuple(name for name, *_ in invariants) == STRUCTURE_NAMES
        joined = [tuple(sorted(pairs + ((qq, kqq),))) if kqq else pairs for kqq, pairs in keys]
        for name, den_coeff, alpha_power, used, terms in invariants:
            table_den, table_alpha, table_terms = table[name]
            assert (den_coeff, alpha_power) == (table_den, table_alpha)
            assert [(c, m, joined[k]) for c, m, k in terms] == [
                (c, m, key) for c, m, key, mask in table_terms if not mask & dead]
            assert used == tuple(dict.fromkeys(k for _, _, k in terms))
    assert isinstance(invariant_table._plan.cache_info().maxsize, int)


@pytest.mark.parametrize("text", _ORACLE_CASES)
def test_the_factored_jets_match_the_differentiate_chain(text):
    _assert_factored_jets_match_the_chain(_parse(text))


@pytest.mark.parametrize("text", ["q + x*p", "x*q/(p+1) + S(x,y)", "y*p^2/(x+1) + H(x,y,p,q)*0"])
def test_the_table_path_refuses_a_zero_f_qq(text):
    """The table path reads an ``OdeProblem``, which refuses F_qq = 0."""
    with pytest.raises(DegenerateOdeError):
        OdeProblem(_parse(text))


# Factors of the drawn denominators: linear and quadratic in p, in x and y
# only, with the opaque S(x, y), and with q.  A product of three factors, or
# a factor in q over depth-1 numerators, took the oracle 0.8-2 s per example
# on average; these shapes take about 0.1-0.3 s.
_FACTORS = ("p+1", "p+x", "p-x+2", "x+y", "p^2+1", "p+S(x,y)", "y^2+1")
_Q_FACTORS = ("p+q", "q+x", "q+S(x,y)", "p*q+1")


@st.composite
def _denominators(draw):
    """(denominator, numerator depth): a monomial, a repeated factor or two
    distinct factors over depth-1 numerators, or a factor in q over leaves."""
    kind = draw(st.sampled_from(("monomial", "repeated", "distinct", "q")))
    if kind == "monomial":
        exponents = draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
        coeff = draw(st.integers(1, 3))
        return "*".join([str(coeff)] + [f"{c}^{e}" for c, e in zip("xypq", exponents) if e]), 1
    if kind == "repeated":
        return f"({draw(st.sampled_from(_FACTORS))})^{draw(st.integers(2, 3))}", 1
    if kind == "distinct":
        pair = draw(st.lists(st.sampled_from(_FACTORS), min_size=2, max_size=2, unique=True))
        return "*".join(f"({f})" for f in pair), 1
    return draw(st.sampled_from(_Q_FACTORS)), 0


def _random_rhs(seed, den):
    """F = (q^2 E1 + E2) / den, E1 and E2 samples over x, y, p, q and the
    opaque S(x, y) of the drawn depth."""
    (text, depth) = den
    table = SymbolTable()
    S = table.declare("S", ("x", "y"))
    gen = ExpressionSampler(J2_CHART, seed, (S,))
    q = Expression.coordinate("q", J2_CHART)
    numerator = q * q * gen.expression(depth) + gen.expression(depth)
    rhs = numerator / parse_expression(text, J2_CHART, table)
    assume(not rhs.differentiate("q").differentiate("q").is_zero)
    return rhs


@given(st.integers(0, 2**32), _denominators())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_the_table_path_matches_the_reduced_jet_oracle_on_random_f(seed, den):
    _assert_matches_the_reduced_jet_oracle(_random_rhs(seed, den))


@given(st.integers(0, 2**32), _denominators())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_the_factored_jets_match_the_differentiate_chain_on_random_f(seed, den):
    _assert_factored_jets_match_the_chain(_random_rhs(seed, den))


def _on_p_chart(text):
    return parse_expression(text, P_CHART, SymbolTable()).num


# (base elements, numerator, exponents over the base, which elements are
# certified): a reducible element of degree 1 in q, whose coefficients
# share p+x+y, with N a multiple of one factor; an element that divides N
# more than once, fully and partly; the monomial element p; and the three
# together.
_CONSTRUCTED = [
    (["(p+x+y)*(p+x+y-2*q)"], "(p+x+y)*(q^2+alpha*x) - (p+x+y)^2*y", [2], [False]),
    (["(p+x+y)*(p+x+y-2*q)"], "(p+x+y-2*q)^3*(p+x+y)*(x+1)", [2], [False]),
    (["p+x+y"], "(p+x+y)^3*(q+alpha)", [2], [True]),
    (["p+x+y"], "(p+x+y)^2*(q+alpha) - 4*(p+x+y)^3", [4], [True]),
    (["p"], "p^2*q + 3*p^3*alpha", [3], [True]),
    (
        ["(p+x+y)*(p+x+y-2*q)", "q+x", "p"],
        "(p+x+y)*(q+x)^2*p*(alpha+y) + (p+x+y)^2*(q+x)^3*p^2",
        [1, 3, 2],
        [False, True, True],
    ),
]


@pytest.mark.parametrize("elements, numerator, exponents, certified", _CONSTRUCTED)
@pytest.mark.parametrize("forced_zero", [False, True])
def test_the_reduction_over_a_constructed_base_matches_the_oracle(
    elements, numerator, exponents, certified, forced_zero
):
    """``_reduced`` on a constructed base gives ``_normalize``'s result.  A
    degree-1 element whose coefficients share a factor gets no certificate.
    With ``forced_zero`` the evaluator reports 0 everywhere, and the result
    must not change."""
    base = [_on_p_chart(b) for b in elements]
    points = [invariant_table._certificate(b) for b in base]
    assert [p is not None for p in points] == certified
    num = _on_p_chart(numerator)
    expected = normalized_over_base(num, -6, 2, base, exponents)
    with mock.patch.object(invariant_table, "_residue",
                           (lambda p, point: 0) if forced_zero else invariant_table._residue):
        out = invariant_table._reduced(num, -6, 2, base, points, exponents,
                                       lambda i, k: base[i] ** k)
    assert (out.num, out.den) == (expected.num, expected.den)


def test_the_table_path_takes_no_derivative_of_f(monkeypatch):
    """F_q and F_qq ≠ 0 come from the ``OdeProblem``, which derived and
    checked them; every other jet, F_x, F_y and F_p included, comes from
    F's factored form by the quotient rule, so ``structure_from_jets``
    calls no ``Expression.differentiate``."""
    prob = OdeProblem(_parse("q^2/(p+1) + y*p"))
    along, real = [], Expression.differentiate

    def recorded(self, coord):
        along.append(coord)
        return real(self, coord)

    monkeypatch.setattr(Expression, "differentiate", recorded)
    invariant_table.structure_from_jets(prob)
    monkeypatch.undo()
    assert along == []


def test_a_coordinate_f_does_not_read_takes_no_step(monkeypatch):
    """``3/2*q^2/(p+2) + 3*p`` reads neither x nor y: every jet along them
    is zero with no quotient-rule step, and the base takes no derivative
    of F's denominator along them, so ``factored_jets`` makes no
    ``_total_deriv_poly`` call along x or y."""
    prob = OdeProblem(_parse("3/2*q^2/(p+2) + 3*p"))
    indices = invariant_table._generic_table()[0]
    along, real = [], Expression._total_deriv_poly

    def recorded(self, p, coord):
        along.append(coord)
        return real(self, p, coord)

    monkeypatch.setattr(Expression, "_total_deriv_poly", recorded)
    jets = invariant_table.factored_jets(prob, indices)[2]
    monkeypatch.undo()
    assert along and not {"x", "y"} & set(along)
    assert all(jet is None for i, jet in zip(indices, jets) if {"x", "y"} & set(i))


def _assert_the_base_is_the_derivative_base(rhs):
    """``factored_jets`` builds its base from F's denominator and its GCD
    with each of its derivatives, not from F_x, F_y and F_p: the same
    elements as ``derivative_base``, each once."""
    prob = OdeProblem(rhs)
    base = invariant_table.factored_jets(prob, invariant_table._generic_table()[0])[0]
    expected = derivative_base(prob)
    assert len(base) == len(set(base)) and set(base) == set(expected), (base, expected)


# Denominators that need the split of F's denominator by its GCD with a
# derivative: a repeated factor, two factors of which only one reads a
# coordinate, and both.
_SPLIT_CASES = [
    "q^2/(p+1)^2",
    "q^2/((p+1)*(p+x)) + y",
    "q^2/((p+1)^2*(x+y)^3) + p",
    "q^2 + 1/(p+x)^2",
    "(q^2+x)/((p+1)^2*(p+x)) + y/(p^2-x^2)",
]

# The inputs whose canonical output is large (ROADMAP, "Baseline").
_LARGE_OUTPUT_CASES = [
    "q^2/(p+x+y)",
    "q^2/(p+y+q)",
    "q^3/(p+y) + x*q/(p-x) + 1/(x+y)",
    "q^2/(p+x+y+q)",
    "q^2/(p+x+y+q)^2",
    "(-q^3 + q^2*y - S(x,y) - y)/(S(x,y) + q - x + y)",
]


@pytest.mark.parametrize(
    "text",
    sorted(set(_ORACLE_CASES + _SPLIT_CASES + _LARGE_OUTPUT_CASES)
           | {r.ode for r in workloads.domain("rational")}),
)
def test_the_base_matches_the_derivative_base(text):
    _assert_the_base_is_the_derivative_base(_parse(text))


@given(st.integers(0, 2**32), _denominators())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_the_base_matches_the_derivative_base_on_random_f(seed, den):
    _assert_the_base_is_the_derivative_base(_random_rhs(seed, den))


def test_the_certified_path_takes_no_gcd_and_no_failed_division(monkeypatch):
    """On ``3/2*q^2/(p+2) + 3*p`` the base is [p+2], which is certified:
    once ``coprime_base`` has returned, ``structure_from_jets`` takes no
    GCD and no exact division by p+2 that fails."""
    rhs = _parse("3/2*q^2/(p+2) + 3*p")
    bases, gcds, failed = [], [], []
    real_base, real_gcd, real_div = invariant_table.coprime_base, poly.poly_gcd, Poly.exact_div

    def recorded_base(polys):
        bases.append(real_base(polys))
        return bases[-1]

    def counted_gcd(a, b):
        if bases:
            gcds.append((a, b))
        return real_gcd(a, b)

    def counted_div(self, other):
        quotient = real_div(self, other)
        if bases and quotient is None and other in bases[0]:
            failed.append((self, other))
        return quotient

    monkeypatch.setattr(invariant_table, "coprime_base", recorded_base)
    monkeypatch.setattr(poly, "poly_gcd", counted_gcd)
    monkeypatch.setattr(expression, "poly_gcd", counted_gcd)
    monkeypatch.setattr(Poly, "exact_div", counted_div)
    sf = invariant_table.structure_from_jets(OdeProblem(rhs))
    monkeypatch.undo()
    assert bases == [[Poly.var(J2_CHART.sym("p")) + Poly.const(2)]]
    assert gcds == [] and failed == []
    assert _renders(sf) == _renders(reduced_jet_structure(rhs))


_HASH_SEED_PROBE = """
import json
from odecartan import J2_CHART, SymbolTable, parse_expression, invariant_table
from odecartan.cartan import OdeProblem
from odecartan.poly import Poly
from odecartan.symbols import Sym

calls = []
real_div = Poly.exact_div
Poly.exact_div = lambda self, other: calls.append(len(self)) or real_div(self, other)
table = SymbolTable()
table.declare("S", ("x", "y"))
prob = OdeProblem(parse_expression("q^2/(p+S(x,y)) + y*q/(x*p+1)", J2_CHART, table))
base, points, _, _ = invariant_table.factored_jets(prob, invariant_table._generic_table()[0])
sf = invariant_table.structure_from_jets(prob)
print(json.dumps({
    "base": [repr(b) for b in base],
    "points": [p and sorted((s.render(), v) for s, v in p.items() if isinstance(s, Sym))
               for p in points],
    "divisions": calls,
    "invariants": [v.render() for v in sf],
}))
"""


def test_the_certificates_do_not_depend_on_the_hash_seed():
    """The evaluation points, the divisions tried and the invariants are
    the same under two hash seeds: symbols are ordered by ``Sym.key`` and
    each point is drawn from ``Sym.key``, never from ``hash``."""
    outputs = [
        subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONHASHSEED=seed), check=True, timeout=120).stdout
        for seed in ("1", "2")
    ]
    assert all(json.loads(outputs[0])["points"]) and outputs[0] == outputs[1]
