"""Polynomial GCD against two independent oracles: sympy and divisibility."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from odecartan import P_CHART
from odecartan.invariant_table import coprime_base, factor_over
from odecartan.poly import Poly, factors, monomial, poly_gcd

SYMS = sorted(P_CHART.sym(c) for c in P_CHART.coords)


def _poly(terms):
    """Poly from ``{exponent tuple over SYMS: int}``."""
    return Poly({monomial(zip(SYMS, m)): c for m, c in terms.items() if c})


def _random_poly(rng, nvars, nterms, degree, coeff):
    used = rng.sample(range(len(SYMS)), nvars)
    terms = {}
    for _ in range(nterms):
        m = [0] * len(SYMS)
        for i in used:
            m[i] = rng.randint(0, degree)
        terms[tuple(m)] = rng.choice([-1, 1]) * rng.randint(1, coeff)
    return _poly(terms)


def _to_sympy(poly, sympy):
    gens = [sympy.Symbol(s.name) for s in SYMS]
    index = {s.key: g for s, g in zip(SYMS, gens)}
    out = sympy.Integer(0)
    for m, c in poly.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k, _ in factors(m):
            term *= index[s.key] ** k
        out += term
    return out


def test_gcd_matches_sympy_on_random_products():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20240)
    for _ in range(60):
        g, a, b = (_random_poly(rng, rng.randint(1, 4), rng.randint(1, 4), 2, 12)
                   for _ in range(3))
        left, right = g * a, g * b
        ours = poly_gcd(left, right)
        theirs = sympy.gcd(_to_sympy(left, sympy), _to_sympy(right, sympy))
        assert sympy.cancel(_to_sympy(ours, sympy) / theirs).is_number
        _, lc = ours.leading()
        assert lc > 0
        assert ours.content() == 1


_monomials = st.tuples(*[st.integers(0, 2)] * len(SYMS))
_small_polys = st.dictionaries(_monomials, st.integers(-9, 9), min_size=1, max_size=4).map(_poly)


@given(_small_polys, _small_polys, _small_polys)
@settings(max_examples=120, deadline=None)
def test_gcd_divides_both_and_is_greatest(g, a, b):
    left, right = g * a, g * b
    h = poly_gcd(left, right)
    assert left.exact_div(h) is not None
    assert right.exact_div(h) is not None
    if not g.is_zero and not (left.is_zero and right.is_zero):
        # g | h over Q[x]: by Gauss's lemma, g's primitive part divides h in Z[x]
        assert h.exact_div(g.div_int(g.content())) is not None


@given(st.lists(_small_polys, min_size=1, max_size=4), st.lists(st.integers(0, 2), min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_coprime_base_refines_every_product(factors, exponents):
    polys = [f for f in factors if not f.is_zero]
    product = Poly.const(1)
    for f, e in zip(polys, exponents):
        product = product * f ** e
    polys.append(product)
    base = coprime_base(polys)
    for i, b in enumerate(base):
        assert not b.is_const and b.content() == 1 and b.leading()[1] > 0
        assert all(poly_gcd(b, other).is_const for other in base[i + 1:])
    for p in polys:
        c, powers = factor_over(p, base)
        product = Poly.const(c)
        for b, e in zip(base, powers):
            product = product * b ** e
        assert product == p


def test_factor_over_refuses_a_zero_polynomial_and_a_constant_element():
    x = Poly.var(SYMS[0])
    with pytest.raises(ValueError):
        factor_over(Poly.zero(), [x])
    with pytest.raises(ValueError):
        factor_over(Poly.const(3), [Poly.const(1)])

