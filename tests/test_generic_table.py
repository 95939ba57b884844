"""The committed generic invariant table and the requests that read it.

``odecartan/generic_structure.py`` holds a..s of y''' = G'(x, y, p, q),
G' opaque.  Regenerating it builds the coframe of G' and verifies all ninety
pattern slots, so the byte-for-byte comparison below is the pattern check
for every F with F_qq ≠ 0; a hand edit to any entry fails it.  Every
request, in the cubic family or outside it, reads the table with its own
jets put in (``OdeProblem.structure()``) and builds no coframe; the chart
extraction, ``structure_functions`` on the problem's coframe, is the
oracle.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from odecartan import J2_CHART, Chart, Expression, SymbolTable, parse_expression
from odecartan import cartan, invariant_table
from odecartan.cartan import STRUCTURE_NAMES, OdeProblem, family_detect, structure_functions
from odecartan.errors import DegenerateOdeError, FamilyRejectionError
from odecartan.report import AnalysisRequest, analyze
from tests.conftest import ExpressionSampler

COMMITTED = Path(invariant_table.__file__).with_name("generic_structure.py")


def _renders(sf):
    return {name: getattr(sf, name).render() for name in STRUCTURE_NAMES}


def _assert_table_matches_chart(rhs):
    """The table path gives the chart extraction's invariants, byte for byte."""
    table_path = invariant_table.structure_from_jets(rhs)
    assert _renders(table_path) == _renders(structure_functions(OdeProblem(rhs).coframe()))


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
