"""The Expression layer against independent oracles: sympy's
``cancel``/``diff``/``subs`` on sampled expressions, sympy's ``expand`` on
the one sparse product (``Poly.__mul__``, ``poly.add_product``), sympy's
``grlex`` on the one term order (``Poly.sorted_terms``, ``Poly.leading``),
sympy's ``Poly.as_dict`` on the split by powers of one symbol
(``Poly.coeffs_in``), a
hypothesis round trip through the parser and the renderer, and
``evaluate`` against a term-by-term ``Fraction`` sum."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from odecartan import J2_CHART, P_CHART, SymbolTable, parse_expression
from odecartan.errors import (
    ExpressionSyntaxError,
    SingularEvaluationError,
    SingularSubstitutionError,
)
from odecartan.expression import _normalize
from odecartan import poly
from odecartan.poly import Poly, add_product, factors, monomial
from odecartan.symbols import Sym
from tests.conftest import ExpressionSampler
from tests.test_expression import assert_canonical


def _sympy_poly(poly, sympy):
    out = sympy.Integer(0)
    for mono, c in poly.terms.items():
        term = sympy.Integer(c)
        for sym, k, _ in factors(mono):
            term *= sympy.Symbol(sym.render()) ** k
        out += term
    return out


def _sympy(e, sympy):
    return _sympy_poly(e.num, sympy) / _sympy_poly(e.den, sympy)


def _assert_reduced_like_cancel(num, den, sympy):
    """num/den is sympy's cancelled fraction up to one rational constant."""
    n, d = _sympy_poly(num, sympy), _sympy_poly(den, sympy)
    if n == 0:
        assert den.is_const and den.const_value() == 1
        return
    cn, cd = sympy.fraction(sympy.cancel(n / d))
    ratio_n = sympy.cancel(n / cn)
    ratio_d = sympy.cancel(d / cd)
    assert ratio_n.is_number and ratio_d.is_number and ratio_n == ratio_d
    assert sympy.gcd(n, d).is_number


def test_normalize_matches_cancel(sampler):
    sympy = pytest.importorskip("sympy")
    gen = sampler(seed=4242)
    for _ in range(60):
        a, b, c = gen.expression(2), gen.expression(2), gen.expression(1)
        # a common factor that _normalize has to find and divide out
        num, den = _normalize(a.num * c.num * b.den, a.den * c.num * b.num)
        if c.num.is_zero or b.num.is_zero:
            continue
        _assert_reduced_like_cancel(num, den, sympy)
        expected = sympy.cancel(_sympy(a, sympy) / _sympy(b, sympy))
        got = _sympy_poly(num, sympy) / _sympy_poly(den, sympy)
        assert sympy.cancel(got - expected) == 0


def test_arithmetic_is_canonical_like_cancel(sampler):
    """Like ``cancel`` up to one rational constant, and a sum or difference
    (which may skip ``_normalize``) canonical exactly, so that 1/2 + 1/4 is
    3/4 and not 6/8."""
    sympy = pytest.importorskip("sympy")
    gen = sampler(seed=515)
    for _ in range(60):
        a, b = gen.expression(2), gen.expression(2)
        for e in (a + b, a - b, a * b):
            _assert_reduced_like_cancel(e.num, e.den, sympy)
        assert_canonical(a + b)
        assert_canonical(a - b)


def test_differentiate_matches_diff(sampler):
    sympy = pytest.importorskip("sympy")
    gen = sampler(seed=777)
    for _ in range(60):
        e = gen.expression(3)
        coord = gen.rng.choice(J2_CHART.coords)
        ours = _sympy(e.differentiate(coord), sympy)
        theirs = sympy.diff(_sympy(e, sympy), sympy.Symbol(coord))
        assert sympy.cancel(ours - theirs) == 0


def test_substitute_matches_subs(sampler):
    sympy = pytest.importorskip("sympy")
    gen = sampler(seed=1313)
    checked = 0
    for _ in range(60):
        e = gen.expression(2)
        names = gen.rng.sample(J2_CHART.coords, 2)
        images = {name: gen.expression(1) for name in names}
        try:
            ours = e.substitute(images)
        except SingularSubstitutionError:
            continue
        theirs = _sympy(e, sympy).subs(
            {sympy.Symbol(n): _sympy(v, sympy) for n, v in images.items()}, simultaneous=True
        )
        assert sympy.cancel(_sympy(ours, sympy) - theirs) == 0
        _assert_reduced_like_cancel(ours.num, ours.den, sympy)
        checked += 1
    assert checked > 40


# -- the one sparse product against sympy's expand ---------------------------

_XYP = sorted((J2_CHART.sym(c) for c in "xyp"), key=lambda s: s.key)
_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3).map(lambda exps: monomial(zip(_XYP, exps))),
    st.integers(-4, 4).filter(bool),
    max_size=5,
).map(Poly)


_X, _Y, _P = (Poly.var(J2_CHART.sym(c)) for c in "xyp")


@given(_POLYS, _POLYS, _POLYS)
@example(_X + _Y, _X - _Y, _X * _X)  # the cross terms cancel
@example(_X + _Y, _X - _Y, _Y * _Y - _X * _X + _P)  # and so do terms of out
@settings(max_examples=150, deadline=None)
def test_the_product_matches_expand(f, g, h):
    """``Poly.__mul__`` and ``poly.add_product`` into a non-empty term dict
    give sympy's expanded product, store no zero coefficient, and leave
    their operands as they were."""
    sympy = pytest.importorskip("sympy")
    before = (dict(f.terms), dict(g.terms))
    product = sympy.expand(_sympy_poly(f, sympy) * _sympy_poly(g, sympy))
    out = dict(h.terms)
    assert add_product(out, f.terms, g.terms) is out
    for got, expected in ((f * g, product), (Poly(out), product + _sympy_poly(h, sympy))):
        assert all(got.terms.values())
        assert sympy.expand(_sympy_poly(got, sympy) - expected) == 0
    assert (f.terms, g.terms) == before


# -- the one term order against sympy's grlex ----------------------------------

_GENS = sorted(
    [P_CHART.sym(c) for c in P_CHART.coords]
    + [Sym("A", "xy"), Sym("A", "xy", "x"), Sym("A", "xy", "xy"), Sym("B", "y", "y")],
    key=lambda s: s.key,
)
_MIXED_POLYS = st.dictionaries(
    st.dictionaries(st.sampled_from(_GENS), st.integers(1, 3), max_size=3).map(
        lambda mono: monomial(mono.items())
    ),
    st.integers(-4, 4).filter(bool),
    min_size=1,
    max_size=6,
).map(Poly)
_ALPHA, _GAMMA, _A, _B_Y = (Poly.var(s) for s in (P_CHART.sym("alpha"), P_CHART.sym("gamma"),
                                                   Sym("A", "xy"), Sym("B", "y", "y")))


@given(_MIXED_POLYS)
@example(_ALPHA * _GAMMA - _A * _P + _B_Y * _B_Y)  # one degree, three lex steps
@settings(max_examples=150, deadline=None)
def test_the_term_order_is_grlex(f):
    """``Poly.sorted_terms`` lists the terms as sympy's ``grlex`` does with
    the generators in ``Sym.key`` order, and ``Poly.leading`` is the first."""
    sympy = pytest.importorskip("sympy")
    index = {s.key: i for i, s in enumerate(_GENS)}

    def exponents(mono):
        out = [0] * len(_GENS)
        for s, k, _ in factors(mono):
            out[index[s.key]] = k
        return tuple(out)

    gens = [sympy.Symbol(s.render()) for s in _GENS]
    expected = sympy.Poly(_sympy_poly(f, sympy), *gens).terms(order="grlex")
    got = [(exponents(m), c) for m, c in f.sorted_terms()]
    assert got == expected
    lead, c = f.leading()
    assert (exponents(lead), c) == expected[0]


# -- the split by powers of one symbol against sympy's as_dict ------------------

_FRESH = Sym("Fresh", ("x",))  # no polynomial reads it, so it takes no slot


@given(st.one_of(_MIXED_POLYS, st.just(Poly.zero())), st.sampled_from(_GENS + [_FRESH]))
@example(Poly.zero(), P_CHART.sym("p"))
@example(_A * _ALPHA + Poly.const(3), P_CHART.sym("p"))  # reads no p
@example(_A * _P * _P - _P + _ALPHA, _FRESH)
@settings(max_examples=150, deadline=None)
def test_coeffs_in_matches_as_dict(f, sym):
    """``Poly.coeffs_in`` splits f by powers of one symbol as sympy's
    ``Poly(f, sym).as_dict()`` does, into coefficients that do not read it,
    and a symbol with no slot is met without taking one."""
    sympy = pytest.importorskip("sympy")
    got = f.coeffs_in(sym)
    expected = sympy.Poly(_sympy_poly(f, sympy), sympy.Symbol(sym.render())).as_dict()
    assert {(e,): _sympy_poly(c, sympy) for e, c in got.items()} == expected
    assert all(c.terms and sym not in c.symbols() for c in got.values())
    assert poly._slot(_FRESH, create=False) is None


# -- parse -> render -> parse -------------------------------------------------

_LEAVES = st.one_of(
    st.sampled_from(["x", "y", "p", "q", "A(x,y)", "A_x", "A_xy", "B(y)", "B_yy"]),
    st.integers(0, 12).map(str),
)


def _combine(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda s: f"-({s})"),
    )


_TEXTS = st.recursive(_LEAVES, _combine, max_leaves=10)


@given(_TEXTS)
@settings(max_examples=150, deadline=None)
def test_parse_render_round_trip(text):
    table = SymbolTable()
    table.declare("A", ("x", "y"))
    table.declare("B", ("y",))
    try:
        e = parse_expression(text, J2_CHART, table)
    except ExpressionSyntaxError:
        assume(False)
    rendered = e.render()
    again = parse_expression(rendered, J2_CHART, table)
    assert again == e
    assert again.num.terms == e.num.terms and again.den.terms == e.den.terms
    assert again.render() == rendered


# -- evaluate against a term-by-term Fraction sum ------------------------------

_S = SymbolTable().declare("S", ("x", "y"))
_NAMES = (*J2_CHART.coords, "S", "S_x")
_VALUES = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


def _fraction_sum(poly, point):
    """``poly`` at ``point``, one ``Fraction`` per term, in term order;
    raises KeyError on the first symbol without a value."""
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        term = Fraction(coeff)
        for sym, k, _ in factors(mono):
            term *= Fraction(point[sym.render()]) ** k
        total += term
    return total


def _oracle_evaluate(e, point):
    """(value, None) or (None, (exception class, message)) as the contract
    states: the numerator first, then the denominator, then its zero test."""
    try:
        num = _fraction_sum(e.num, point)
        den = _fraction_sum(e.den, point)
    except KeyError as exc:
        return None, (SingularEvaluationError, f"symbol {exc.args[0]!r} has no assigned value")
    if den == 0:
        return None, (SingularEvaluationError, "denominator vanishes at the point")
    return num / den, None


def _outcome(e, point, powers=None):
    try:
        value = e.evaluate(point, powers)
    except SingularEvaluationError as exc:
        return None, (type(exc), str(exc))
    assert type(value) is Fraction
    return value, None


@given(
    seed=st.integers(0, 10 ** 6),
    point=st.fixed_dictionaries({}, optional={n: _VALUES for n in _NAMES}),
)
@settings(max_examples=200, deadline=None)
def test_evaluate_matches_a_fraction_sum(seed, point):
    """Values, exceptions and messages of ``Expression.evaluate`` equal a
    term-by-term ``Fraction`` sum at int and ``Fraction`` points, also with
    one ``powers`` dict shared by several expressions at the point."""
    gen = ExpressionSampler(J2_CHART, seed, (_S, _S.derived("x")))
    exprs = [gen.expression(2) for _ in range(3)]
    powers = {}
    for e in exprs:
        expected = _oracle_evaluate(e, point)
        assert _outcome(e, point) == expected
        assert _outcome(e, point, powers) == expected


def test_evaluate_checks_the_numerator_first():
    """A symbol without a value is reported from the numerator before the
    denominator is read, and a vanishing denominator only once both have
    values."""
    table = SymbolTable()
    e = parse_expression("x/(y - 1)", J2_CHART, table)
    for point, message in [
        ({"y": 1}, "symbol 'x' has no assigned value"),
        ({"x": 2}, "symbol 'y' has no assigned value"),
        ({"x": 2, "y": 1}, "denominator vanishes at the point"),
    ]:
        with pytest.raises(SingularEvaluationError) as caught:
            e.evaluate(point)
        assert str(caught.value) == message
    assert e.evaluate({"x": 3, "y": Fraction(5, 2)}) == 2
    assert type(e.evaluate({"x": 3, "y": 2})) is Fraction


def test_evaluate_matches_subs(sampler):
    sympy = pytest.importorskip("sympy")
    gen = sampler(seed=2718, opaque_names=("S",))
    rng = gen.rng
    checked = 0
    for _ in range(60):
        e = gen.expression(3)
        point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for n in (*J2_CHART.coords, "S")}
        theirs = _sympy(e, sympy).subs({sympy.Symbol(n): sympy.Rational(v.numerator, v.denominator)
                                        for n, v in point.items()})
        if not theirs.is_finite:
            with pytest.raises(SingularEvaluationError):
                e.evaluate(point)
            continue
        assert e.evaluate(point) == Fraction(int(theirs.p), int(theirs.q))
        checked += 1
    assert checked > 40
