"""Expression kernel: parsing, canonical forms, calculus, evaluation."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from odecartan import (
    ChartError,
    Expression,
    ExpressionSyntaxError,
    J2_CHART,
    M_ADAPTED_CHART,
    P_CHART,
    BUILT_IN_CHARTS,
    SingularEvaluationError,
    SingularSubstitutionError,
    SymbolCollisionError,
    SymbolTable,
    UnknownSymbolError,
    parse_expression,
)
from odecartan.errors import ExponentOverflowError, OdeCartanError
from odecartan.poly import EXPONENT_LIMIT, Poly, factors, poly_gcd


@pytest.fixture()
def table():
    return SymbolTable()


def assert_canonical(e):
    """Nonzero integer coefficients, no shared monomial factor, coprime
    contents, positive leading denominator."""
    num, den = e.num.terms.values(), e.den.terms.values()
    assert all(type(c) is int and c for c in num)
    assert all(type(c) is int and c for c in den)
    assert poly_gcd(Poly({e.num.mono_content(): 1}), Poly({e.den.mono_content(): 1})).is_const
    assert gcd(gcd(*num), gcd(*den)) == 1
    assert e.den.leading()[1] > 0


class TestCharts:
    def test_three_built_in_charts(self):
        names = [c.name for c in BUILT_IN_CHARTS]
        assert names == ["J2", "P", "M"]
        assert J2_CHART.coords == ("x", "y", "p", "q")
        assert P_CHART.coords == ("x", "y", "p", "q", "alpha", "gamma")
        assert M_ADAPTED_CHART.coords == ("x", "y", "z", "t", "alpha", "p")

    def test_repeated_coordinates_rejected(self):
        from odecartan import Chart

        with pytest.raises(ChartError):
            Chart("bad", ("x", "x"))


class TestParsing:
    def test_flat_rhs_canonical_fraction(self, table):
        e = parse_expression("3/2*q^2/p", J2_CHART, table)
        ((mono_num, coeff_num),) = e.num.terms.items()
        assert coeff_num == 3 and [(s.name, k) for s, k, _ in factors(mono_num)] == [("q", 2)]
        ((mono_den, coeff_den),) = e.den.terms.items()
        assert coeff_den == 2 and [(s.name, k) for s, k, _ in factors(mono_den)] == [("p", 1)]

    def test_algebraic_identity_collapses_to_zero(self, table):
        e = parse_expression("(p+q)^2 - p^2 - 2*p*q - q^2", J2_CHART, table)
        assert e.is_zero

    def test_family_rhs_parses(self, table):
        for name in ("A", "B", "C"):
            table.declare(name, ("x", "y"))
        e = parse_expression(
            "3/2*q^2/p + A(x,y)*p^3 + C(x,y)*p^2 + B(x,y)*p", J2_CHART, table
        )
        assert not e.is_zero
        assert {s.name for s in e.symbols()} == {"A", "B", "C", "p", "q"}

    def test_syntax_error_carries_position(self, table):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("p + * q", J2_CHART, table)
        assert err.value.position == 4

    @pytest.mark.parametrize("text", ["²", "3²*q", "q^²", "٣*q"])
    def test_a_digit_outside_ascii_is_a_syntax_error(self, table, text):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression(text, J2_CHART, table)

    def test_unknown_symbol(self, table):
        with pytest.raises(UnknownSymbolError):
            parse_expression("w + 1", J2_CHART, table)

    def test_division_by_literal_zero(self, table):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("1/0", J2_CHART, table)
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("p/(q - q)", J2_CHART, table)

    def test_whitespace_insignificant(self, table):
        a = parse_expression("  3/2 * q ^ 2 / p ", J2_CHART, table)
        b = parse_expression("3/2*q^2/p", J2_CHART, table)
        assert a == b

    def test_negative_exponent_is_syntax_error(self, table):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("p^-1", J2_CHART, table)

    def test_render_round_trip(self, table):
        table.declare("A", ("x", "y"))
        texts = [
            "3/2*q^2/p",
            "-(p+q)^2/(3*p*q)",
            "A(x,y)*p - A_x*q + 7/5",
            "1/(p^2 + q)",
        ]
        for text in texts:
            e = parse_expression(text, J2_CHART, table)
            again = parse_expression(e.render(), J2_CHART, table)
            assert e == again


class TestParserLimits:
    """Deep nesting is refused with a position; literals and coefficients
    of any length parse and render."""

    @pytest.mark.parametrize("text", [
        "(" * 260 + "q^2" + ")" * 260,
        "-" * 900 + "q^2",
        "(-" * 51 + "q" + ")" * 51,
    ])
    def test_nesting_beyond_the_limit_is_a_syntax_error(self, table, text):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression(text, J2_CHART, table)
        assert info.value.position == 100

    def test_nesting_at_the_limit_parses(self, table):
        q = Expression.coordinate("q", J2_CHART)
        assert parse_expression("(" * 100 + "q" + ")" * 100, J2_CHART, table) == q
        assert parse_expression("-" * 100 + "q", J2_CHART, table) == q

    def test_a_long_literal_parses_to_its_value(self, table):
        e = parse_expression("1" + "0" * 4999, J2_CHART, table)
        assert e == Expression.number(10 ** 4999, J2_CHART)
        assert e.render() == "1" + "0" * 4999

    @pytest.mark.parametrize("text", ["(2^4000)^4*q^2", "7" * 4000 + "*" + "9" * 4000 + "*q^2"])
    def test_long_coefficients_render_and_parse_back(self, table, text):
        fqq = parse_expression(text, J2_CHART, table).differentiate("q").differentiate("q")
        assert len(fqq.render()) > 4300
        assert parse_expression(fqq.render(), J2_CHART, table) == fqq

    # Exponents stay at most 3: nothing bounds the cost of a large exponent yet.
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(
        wraps=st.lists(st.sampled_from(["(", "-"]), max_size=300),
        digits=st.integers(1, 6000),
        seed=st.integers(0, 2 ** 32),
        exponent=st.sampled_from(["", "^0", "^1", "^2", "^3"]),
        tail=st.sampled_from(["", "*q", "/p", ")", "+"]),
    )
    def test_deep_or_long_input_parses_or_is_a_syntax_error(
        self, wraps, digits, seed, exponent, tail
    ):
        literal = str(seed % 9 + 1) + str(seed) * (digits // len(str(seed)) + 1)
        text = literal[:digits] + exponent + tail
        for w in reversed(wraps):
            text = "(" + text + ")" if w == "(" else "-" + text
        try:
            e = parse_expression(text, J2_CHART, SymbolTable())
        except ExpressionSyntaxError:
            assert len(wraps) > 100 or tail in (")", "+")
            return
        assert isinstance(e, Expression)
        assert parse_expression(e.render(), J2_CHART, SymbolTable()) == e


class TestOpaqueFunctions:
    def test_declare_and_use(self, table):
        table.declare("A", ("x", "y"))
        e = parse_expression("A(x,y)", J2_CHART, table)
        d = e.differentiate("x")
        assert d.render() == "A_x"
        assert d.differentiate("y") == e.differentiate("y").differentiate("x")

    def test_derivative_by_absent_argument_is_zero(self, table):
        table.declare("A", ("y",))
        e = parse_expression("A(y)", J2_CHART, table)
        assert e.differentiate("x").is_zero

    def test_two_functions_are_independent(self, table):
        table.declare("A", ("x", "y"))
        table.declare("B", ("x", "y"))
        e = parse_expression("A(x,y) - B(x,y)", J2_CHART, table)
        assert not e.is_zero

    def test_name_collision_rejected(self, table):
        table.declare("A", ("x", "y"))
        with pytest.raises(SymbolCollisionError):
            table.declare("A", ("x",))
        with pytest.raises(SymbolCollisionError):
            table.declare("p", ("x",))

    def test_empty_argument_list_rejected(self, table):
        with pytest.raises(SymbolCollisionError):
            table.declare("A", ())

    def test_mixed_partials_share_a_symbol(self, table):
        table.declare("A", ("x", "y"))
        e = parse_expression("A(x,y)", J2_CHART, table)
        xy = e.differentiate("x").differentiate("y")
        yx = e.differentiate("y").differentiate("x")
        assert xy.render() == "A_xy"
        assert (xy - yx).is_zero

    def test_derivative_names_parse_back(self, table):
        table.declare("A", ("x", "y"))
        assert parse_expression("A_yx", J2_CHART, table).render() == "A_xy"


class TestDifferentiate:
    def test_power_rule(self, table):
        e = parse_expression("3/2*q^2/p", J2_CHART, table)
        assert e.differentiate("q").render() == "3*q/p"

    def test_chain_rule_on_opaque(self, table):
        table.declare("A", ("x", "y"))
        e = parse_expression("A(x,y)*p^3", J2_CHART, table)
        assert e.differentiate("y").render() == "A_y*p^3"

    def test_quotient_rule(self, table):
        e = parse_expression("q/p", J2_CHART, table)
        assert e.differentiate("p").render() == "-q/(p^2)"

    def test_unknown_coordinate_rejected(self, table):
        e = parse_expression("q", J2_CHART, table)
        with pytest.raises(ChartError):
            e.differentiate("z")

    def test_flat_model_invariant_scalar_vanishes(self, table):
        # independent oracle: assembled by hand from the partials
        F = parse_expression("3/2*q^2/p", J2_CHART, table)
        Fq = F.differentiate("q")
        p = Expression.coordinate("p", J2_CHART)
        q = Expression.coordinate("q", J2_CHART)
        K = (
            Fraction(1, 6)
            * (
                Fq.differentiate("x")
                + p * Fq.differentiate("y")
                + q * Fq.differentiate("p")
                + F * Fq.differentiate("q")
            )
            - Fraction(1, 9) * Fq ** 2
            - Fraction(1, 2) * F.differentiate("p")
        )
        assert K.is_zero

    def test_fqq_of_flat_model_is_not_zero(self, table):
        F = parse_expression("3/2*q^2/p", J2_CHART, table)
        fqq = F.differentiate("q").differentiate("q")
        assert not fqq.is_zero
        assert fqq.render() == "3/p"


class TestSubstitute:
    def test_inverse_of_adapted_chart_map(self, table):
        e = parse_expression("gamma/p", P_CHART, table)
        z = Expression.coordinate("z", M_ADAPTED_CHART)
        p = Expression.coordinate("p", M_ADAPTED_CHART)
        t = Expression.coordinate("t", M_ADAPTED_CHART)
        out = e.substitute({"gamma": z * p, "q": p * (t - z * p)}, M_ADAPTED_CHART)
        assert out.render() == "z"

    def test_singular_substitution_rejected(self, table):
        from odecartan import SingularSubstitutionError

        e = parse_expression("1/p", J2_CHART, table)
        with pytest.raises(SingularSubstitutionError):
            e.substitute({"p": 0})

    def test_zero_stays_zero_under_substitution(self, table):
        # K of the family with A=B=C=0 is zero; the chart change keeps it zero
        from odecartan.cartan import OdeProblem, invariant_K

        prob = OdeProblem(parse_expression("3/2*q^2/p", J2_CHART, table))
        K = invariant_K(prob).on_chart(P_CHART)
        z = Expression.coordinate("z", M_ADAPTED_CHART)
        p = Expression.coordinate("p", M_ADAPTED_CHART)
        t = Expression.coordinate("t", M_ADAPTED_CHART)
        out = K.substitute({"gamma": z * p, "q": p * (t - z * p)}, M_ADAPTED_CHART)
        assert out.is_zero

    def test_substituting_an_opaque_argument_rejected(self, table):
        table.declare("A", ("x", "y"))
        e = parse_expression("A(x,y)*q", J2_CHART, table)
        y = Expression.coordinate("y", J2_CHART)
        with pytest.raises(ChartError):
            e.substitute({"x": y * y})


# (expression, its chart, {coordinate: image}, the images' chart)
_SUBSTITUTIONS = {
    # p is missing from the y term, and its image has a non-constant denominator
    "padded-term": ("(x*p^2 + y)/(q + 1)", J2_CHART, {"p": "(x + 1)/(y - 2)"}, J2_CHART),
    "only-in-denominator": ("x/(p^2 + y)", J2_CHART, {"p": "y/(x + 1)"}, J2_CHART),
    # family_structure's map: both images over p
    "shared-denominator": (
        "(z^2*t + alpha)/(z + t*p)", M_ADAPTED_CHART, {"z": "gamma/p", "t": "q/p + gamma"}, P_CHART,
    ),
    "jet-passes-through": ("(A_x*p^2 + A*q)/(p - A_y)", J2_CHART, {"p": "q/(x + 1)"}, J2_CHART),
    "zero-image": ("(x*p + y)/(q + 1)", J2_CHART, {"p": "0"}, J2_CHART),
    "cancelling": ("(p^2 - q^2)/(p*y + q*y)", J2_CHART, {"p": "x*q", "q": "x - q"}, J2_CHART),
}


class TestSubstituteAgainstSympy:
    """The one-pass substitution (each term padded by the images'
    denominators, one normalisation) against sympy's ``subs``."""

    @pytest.mark.parametrize("case", sorted(_SUBSTITUTIONS))
    def test_matches_subs_and_is_canonical(self, table, case):
        from tests.test_expression_oracles import _assert_reduced_like_cancel, _sympy

        sympy = pytest.importorskip("sympy")
        table.declare("A", ("x", "y"))
        text, chart, mapping, target = _SUBSTITUTIONS[case]
        e = parse_expression(text, chart, table)
        images = {name: parse_expression(v, target, table) for name, v in mapping.items()}
        ours = e.substitute(images, target)
        theirs = _sympy(e, sympy).subs(
            {sympy.Symbol(n): _sympy(v, sympy) for n, v in images.items()}, simultaneous=True
        )
        assert ours.chart is target
        assert sympy.cancel(_sympy(ours, sympy) - theirs) == 0
        _assert_reduced_like_cancel(ours.num, ours.den, sympy)
        assert_canonical(ours)

    def test_an_image_of_zero_that_kills_the_denominator_is_refused(self, table):
        e = parse_expression("x/(p*q + p)", J2_CHART, table)
        with pytest.raises(SingularSubstitutionError):
            e.substitute({"p": Expression.number(0, J2_CHART)})
        with pytest.raises(SingularSubstitutionError):
            e.substitute({"q": parse_expression("-1", J2_CHART, table)})


class TestEvaluate:
    def test_exact_value(self, table):
        e = parse_expression("3/2*q^2/p", J2_CHART, table)
        assert e.evaluate({"p": 2, "q": 2}) == 3

    def test_pole_rejected(self, table):
        e = parse_expression("1/p", J2_CHART, table)
        with pytest.raises(SingularEvaluationError):
            e.evaluate({"p": 0})

    def test_family_invariant_sample(self, table):
        table.declare("C", ("x", "y"))
        e = parse_expression("-C/(4*alpha^2*p)", P_CHART, table)
        assert e.evaluate({"C": 4, "alpha": 1, "p": 1}) == -1
        assert e.render() == "-C/(4*alpha^2*p)"

    def test_shared_powers_give_the_same_values(self, table):
        point = {"x": Fraction(-3, 4), "y": 5, "p": Fraction(7, 2), "q": Fraction(1, 9)}
        powers = {}
        for text in ("x^2*y/(p + 1) - q^3", "3/2*q^2/p + x^2*p^3", "(x - y)^3/(2*q)"):
            e = parse_expression(text, J2_CHART, table)
            expected = e.substitute(point).const_value()
            assert e.evaluate(point) == expected
            assert e.evaluate(point, powers) == expected
            assert type(e.evaluate(point, powers)) is Fraction

    def test_unassigned_symbol_rejected(self, table):
        e = parse_expression("p*q", J2_CHART, table)
        with pytest.raises(SingularEvaluationError):
            e.evaluate({"p": 1})


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "**": operator.pow}


@pytest.mark.parametrize("other", [1.5, None, "q"], ids=["float", "None", "str"])
@pytest.mark.parametrize("op", list(_OPERATORS))
def test_an_unsupported_operand_gives_the_usual_type_error(op, other):
    """``other op e`` for the four reflected operators, ``e ** other`` for a
    non-int power: the error is Python's own, naming the operator."""
    e = Expression.coordinate("q", J2_CHART)
    left, right = (e, other) if op == "**" else (other, e)
    with pytest.raises(TypeError) as info:
        _OPERATORS[op](left, right)
    assert "Expression" in str(info.value)
    if not isinstance(other, str):
        assert f"for {op}" in str(info.value)


class TestCanonicalProperties:
    def test_equal_values_share_bit_identical_canonical_forms(self, table):
        pairs = [
            ("q/p + q/p", "2*q/p"),
            ("(p^2 - q^2)/(p - q)", "p + q"),
            ("3/2*q^2/p", "3*q^2/(2*p)"),
            ("1/(2*p) - 1/(3*p)", "1/(6*p)"),
        ]
        for left, right in pairs:
            a = parse_expression(left, J2_CHART, table)
            b = parse_expression(right, J2_CHART, table)
            assert a.num.terms == b.num.terms
            assert a.den.terms == b.den.terms

    def test_commutativity_soundness_200_pairs(self, sampler):
        gen = sampler(seed=20240, opaque_names=("A", "B"))
        for _ in range(200):
            e1 = gen.expression(2)
            e2 = gen.expression(2)
            assert (e1 * e2 - e2 * e1).is_zero

    def test_product_rule_on_random_samples(self, sampler):
        gen = sampler(seed=977, opaque_names=("A",))
        for _ in range(60):
            e1 = gen.expression(2)
            e2 = gen.expression(2)
            coord = gen.rng.choice(J2_CHART.coords)
            lhs = (e1 * e2).differentiate(coord)
            rhs = e1.differentiate(coord) * e2 + e1 * e2.differentiate(coord)
            assert (lhs - rhs).is_zero

    def test_mixed_partials_commute(self, sampler):
        gen = sampler(seed=1231, opaque_names=("A", "B"))
        for _ in range(40):
            e = gen.expression(2)
            xy = e.differentiate("x").differentiate("y")
            yx = e.differentiate("y").differentiate("x")
            assert (xy - yx).is_zero

    def test_substitute_then_evaluate_matches_composition(self, sampler):
        gen = sampler(seed=555)
        table = SymbolTable()
        values = {"x": Fraction(3, 2), "y": Fraction(-1, 3), "p": Fraction(5), "q": Fraction(2, 7)}
        image = parse_expression("p^2 + 1", J2_CHART, table)
        for _ in range(40):
            e = gen.expression(2)
            substituted = e.substitute({"q": image})
            composed = dict(values)
            composed["q"] = image.evaluate(values)
            try:
                direct = e.evaluate(composed)
            except SingularEvaluationError:
                continue
            assert substituted.evaluate(values) == direct

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arithmetic_calculus_and_substitution_stay_canonical(self, sampler, seed):
        gen = sampler(seed=seed, opaque_names=("A",))
        e = gen.expression(2)
        assert_canonical(e)
        assert_canonical(gen.expression(2) * e - gen.expression(1) / (e * e + 1))
        for coord in J2_CHART.coords:
            assert_canonical(e.differentiate(coord))
        try:
            image = e.substitute({"q": gen.expression(1), "p": gen.expression(1)})
        except SingularSubstitutionError:
            return
        assert_canonical(image)

    def test_constant_denominators_other_than_one(self, table):
        x, y, p = (Expression.coordinate(c, J2_CHART) for c in "xyp")
        cases = {
            "x/3": (x / 2) * Fraction(2, 3),
            "(x - y)/6": x / 6 - y / 6,
            "-x/6": x / -6,
            "(-x - 2*y)/3": (2 * x + 4 * y) / -6,
            "x": (x / 2) * 2,
            # sums: over denominators that share an integer or a polynomial
            # factor, and over coprime ones (where no GCD is taken)
            "(2*x + y)/4": x / 2 + y / 4,
            "(3*x + 2*y)/6": x / 2 + y / 3,
            "(2*p + 1)/(2*p^2 + 2*p)": 1 / (2 * p + 2) + 1 / (2 * p),
            "(p + 1)/(p^2)": 1 / p + 1 / p**2,
            "(2*p + 3)/(p^2 + 3*p + 2)": 1 / (p + 1) + 1 / (p + 2),
        }
        for text, e in cases.items():
            assert_canonical(e)
            assert e.render() == text
            assert e == parse_expression(text, J2_CHART, table)

    def test_zero_operands_build_no_throwaway_expression(self, monkeypatch):
        """``v + 0``, ``0 + v``, ``v - 0`` and ``0 - v`` build no
        ``Expression`` for the zero, and ``v * 0`` builds only its result;
        the results are what they were."""
        v = parse_expression("x/(y + 1)", J2_CHART, SymbolTable())
        zero, minus_v = v.with_value(0), -v
        built = []
        real = Expression.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            real(self, *args, **kwargs)

        monkeypatch.setattr(Expression, "__init__", counting)
        for z in (0, Fraction(0)):
            for case, result, inits in [
                (lambda: v + z, v, 0),
                (lambda: z + v, v, 0),
                (lambda: v - z, v, 0),
                (lambda: z - v, minus_v, 1),
                (lambda: v * z, zero, 1),
                (lambda: z * v, zero, 1),
                (lambda: zero * z, zero, 0),
            ]:
                built.clear()
                assert case() == result
                assert len(built) == inits

    def test_constant_operands_take_the_short_paths(self):
        x = Expression.coordinate("x", J2_CHART)
        assert x - 0 is x
        p = (x * x + 3 * x).num
        assert p * Poly.const(1) is p and Poly.const(1) * p is p
        assert (Poly.const(-2) * p).terms == {m: -2 * c for m, c in p.terms.items()}
        assert (p * Poly.const(-2)).terms == {m: -2 * c for m, c in p.terms.items()}

    def test_rational_constant_value_is_a_fraction(self):
        value = Expression.number(Fraction(1, 3), J2_CHART).const_value()
        assert type(value) is Fraction and value == Fraction(1, 3)

    def test_product_with_zero_is_zero_on_the_same_chart(self):
        x = Expression.coordinate("x", J2_CHART)
        zero = Expression.number(0, J2_CHART)
        for product in (x * 0, 0 * x, x * zero, zero * x):
            assert isinstance(product, Expression)
            assert product.chart is J2_CHART
            assert product == 0 and product.is_zero

    @given(st.integers(-40, 40), st.integers(1, 12), st.integers(-9, 9))
    @settings(max_examples=60, deadline=None)
    def test_rational_constants_behave_like_fractions(self, num, den, shift):
        table = SymbolTable()
        value = Fraction(num, den)
        e = Expression.number(value, J2_CHART) + shift
        assert e.is_rational_constant
        assert e.const_value() == value + shift

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_power_laws(self, m, n):
        table = SymbolTable()
        p = Expression.coordinate("p", J2_CHART)
        q = Expression.coordinate("q", J2_CHART)
        base = p + 2 * q
        assert (base ** m * base ** n - base ** (m + n)).is_zero

    @given(st.integers(-40, 40), st.integers(1, 12),
           st.sampled_from(["p + q", "x*p - 2*y", "q^2 + 3", "p^2 - q^2"]),
           st.sampled_from(["1", "p", "x + y", "p + 2*q"]))
    @settings(max_examples=60, deadline=None)
    def test_equal_implies_equal_hash(self, num, den, factor, other):
        table = SymbolTable()
        value = Fraction(num, den)
        constant = parse_expression(f"({num})*({factor})/(({den})*({factor}))", J2_CHART, table)
        values = [Expression.number(value, J2_CHART), value]
        if value.denominator == 1:
            values.append(int(value))
        for v in values:
            assert constant == v
            assert hash(constant) == hash(v)
        left = parse_expression(f"({other})*({factor})/(({factor})*({den}))", J2_CHART, table)
        right = parse_expression(f"({other})/{den}", J2_CHART, table)
        assert left == right
        assert hash(left) == hash(right)


class TestPolyInternals:
    def test_equal_fractions_share_one_canonical_form(self):
        table = SymbolTable()
        reduced = parse_expression("(p + q)/(p + 2*q)", J2_CHART, table)
        unreduced = parse_expression("(p + q)^2/((p + q)*(p + 2*q))", J2_CHART, table)
        assert reduced == unreduced
        assert hash(reduced) == hash(unreduced)
        assert reduced.render() == unreduced.render() == "(p + q)/(p + 2*q)"

    def test_prs_fallback_matches_heuristic(self):
        from odecartan import poly

        table = SymbolTable()
        factors = ["p + q", "p - 2*q + 1", "x*p + y", "q^2 - x*y", "alpha*gamma + 3",
                   "gamma - p", "y^3 + 2"]
        checked = 0
        for common in factors:
            for j, left in enumerate(factors):
                for right in factors[j + 1:]:
                    if common in (left, right):
                        continue
                    a = parse_expression(f"({common})*({left})^2", P_CHART, table).num
                    b = parse_expression(f"({common})^2*({right})", P_CHART, table).num
                    gcd = poly.poly_gcd(a, b)
                    expected = parse_expression(common, P_CHART, table).num
                    assert gcd.exact_div(expected) is not None
                    assert expected.exact_div(gcd) is not None
                    # both algorithms give it, up to sign
                    shifts = poly._ordered(poly._support(a.terms) | poly._support(b.terms))[0]
                    f, g = a.div_int(a.content()).terms, b.div_int(b.content()).terms
                    negated = {m: -c for m, c in gcd.terms.items()}
                    assert poly._heu_gcd(f, g, shifts)[0] in (gcd.terms, negated)
                    assert poly._gcd_recursive(f, g, shifts) in (gcd.terms, negated)
                    checked += 1
        assert checked == 105

    def test_exact_division_detects_inexact(self):
        table = SymbolTable()
        a = parse_expression("p^2 - q^2", J2_CHART, table).num
        b = parse_expression("p + q", J2_CHART, table).num
        c = parse_expression("p + 2*q", J2_CHART, table).num
        assert a.exact_div(b) is not None
        assert a.exact_div(c) is None

    def test_exact_division_by_a_constant_is_over_the_integers(self):
        table = SymbolTable()
        p = parse_expression("p", J2_CHART, table).num
        two = Poly.const(2)
        assert (p + Poly.const(1)).exact_div(two) is None
        assert (p * two + two).exact_div(two) == p + Poly.const(1)

    def test_zero_polynomial_is_empty(self):
        assert Poly.zero().is_zero
        assert not Poly.const(3).is_zero


class TestExponentLimit:
    """An exponent field holds ``EXPONENT_LIMIT`` and never wraps: one more
    raises ``ExponentOverflowError`` instead of spilling into the next symbol."""

    def test_the_largest_exponent_multiplies_renders_and_reparses(self):
        table = SymbolTable()
        p, q = (parse_expression(c, J2_CHART, table) for c in "pq")
        top = p ** EXPONENT_LIMIT
        assert top == p ** (EXPONENT_LIMIT - 1) * p
        both = top * q ** EXPONENT_LIMIT
        assert both.render() == f"p^{EXPONENT_LIMIT}*q^{EXPONENT_LIMIT}"
        for e in (top, both, both / (q * (p + 1))):
            assert parse_expression(e.render(), J2_CHART, table) == e
        ((mono, _),) = both.num.terms.items()
        assert [(s.name, k) for s, k, _ in factors(mono)] == [
            ("p", EXPONENT_LIMIT), ("q", EXPONENT_LIMIT)]
        assert (both.differentiate("p") / both).render() == f"{EXPONENT_LIMIT}/p"

    def test_one_more_raises_and_spills_into_no_neighbour(self):
        table = SymbolTable()
        p, q = (parse_expression(c, J2_CHART, table).num for c in "pq")
        top = p ** EXPONENT_LIMIT
        ((p_mono, _),) = p.terms.items()
        assert issubclass(ExponentOverflowError, OdeCartanError)
        for overflow in (
            lambda: p ** (EXPONENT_LIMIT + 1),
            lambda: (p + Poly.const(1)) ** (EXPONENT_LIMIT + 1),
            lambda: (p * q + q * q) ** (EXPONENT_LIMIT // 2 + 1),
            lambda: top.mul_mono(p_mono),
            lambda: top * p,
            lambda: (top + q) * (p * q + Poly.const(1)),
            lambda: (q ** EXPONENT_LIMIT * top) * (q * p),
        ):
            with pytest.raises(ExponentOverflowError):
                overflow()
        # the product just below the limit keeps both symbols apart
        half = p ** (EXPONENT_LIMIT // 2)
        assert (half * half * p).render() == f"p^{EXPONENT_LIMIT}"
        assert ((half * q) * (half * p)).render() == f"p^{EXPONENT_LIMIT}*q"
