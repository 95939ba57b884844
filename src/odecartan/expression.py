"""Canonical rational functions over a chart.

An ``Expression`` is a reduced fraction of expanded polynomials with
integer coefficients of coprime content and a positive-leading-coefficient
denominator.  Differentiation treats jet symbols formally: the partial of
``A`` with multi-index ``I`` by a coordinate in its argument list is the
symbol with multi-index ``I + (coord,)``; by any other coordinate it is
zero.  Expressions are immutable and safe to share between threads.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_

from .errors import (
    ChartError,
    SingularEvaluationError,
    SingularSubstitutionError,
)
from .poly import Poly, _needs_parens_as_denominator, add_product, canonical_tail, poly_gcd
from .poly import factors, mask


class Expression:
    __slots__ = ("num", "den", "chart")

    def __init__(self, num, den, chart, _normalized=False):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den
        self.chart = chart

    # -- constructors ---------------------------------------------------

    @classmethod
    def number(cls, value, chart):
        # an int or a Fraction is already in lowest terms
        return cls(Poly.const(value.numerator), Poly.const(value.denominator), chart,
                   _normalized=True)

    @classmethod
    def coordinate(cls, name, chart):
        return cls(Poly.var(chart.sym(name)), Poly.const(1), chart)

    @classmethod
    def from_sym(cls, sym, chart):
        for a in sym.reads:
            chart.axis(a)
        return cls(Poly.var(sym), Poly.const(1), chart)

    def _wrap(self, num, den, normalized=False):
        return Expression(num, den, self.chart, _normalized=normalized)

    def with_value(self, value):
        return Expression.number(value, self.chart)

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_rational_constant(self):
        return self.num.is_const and self.den.is_const

    def const_value(self):
        if not self.is_rational_constant:
            raise ValueError("expression is not a rational constant")
        return Fraction(self.num.const_value(), self.den.const_value())

    def __eq__(self, other):
        if not isinstance(other, Expression):
            if isinstance(other, (int, Fraction)):
                other = self.with_value(other)
            else:
                return NotImplemented
        # canonical form is unique
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a rational constant equals the int or Fraction of its value
        if self.is_rational_constant:
            return hash(self.const_value())
        return hash((self.num, self.den))

    def symbols(self):
        return self.num.symbols() | self.den.symbols()

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Expression):
            if other.chart is not self.chart:
                raise ChartError(
                    f"operands on different charts: {self.chart.name} vs {other.chart.name}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.with_value(other)
        return None

    # a zero int or Fraction is answered before coercion, which would build
    # an Expression to throw away

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) and not other:
            return self
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            return self._wrap(self.num + other.num, self.den)
        g = poly_gcd(self.den, other.den)
        if g.is_const and gcd(self.den.content(), other.den.content()) == 1:
            # Henrici: b and d are coprime (the content test, as poly_gcd
            # ignores contents), so every prime factor of b·d divides just
            # one of them and not a·d + c·b, and the sum is already reduced
            return self._wrap(self.num * other.den + other.num * self.den,
                              self.den * other.den, normalized=True)
        db = other.den.exact_div(g)
        da = self.den.exact_div(g)
        return self._wrap(self.num * db + other.num * da, self.den * db)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(-self.num, self.den, normalized=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)) and not other:
            return self
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            return self
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and not other:
            return self if self.is_zero else self.with_value(0)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return self
        if other.is_zero:
            return other
        return self._wrap(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero expression")
        return self._wrap(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return self.with_value(1)
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return self._wrap(self.den ** (-n), self.num ** (-n))
        return self._wrap(self.num ** n, self.den ** n)

    # -- calculus ----------------------------------------------------------

    def _total_deriv_poly(self, poly, coord):
        """d(poly)/d(coord) with the jet chain rule, as a polynomial."""
        coord_sym = self.chart.sym(coord)
        out = poly.deriv(coord_sym)
        for s in poly.symbols():
            if not s.is_coordinate and coord in s.args:
                out = out + poly.deriv(s) * Poly.var(s.derived(coord))
        return out

    def differentiate(self, coord):
        """Formal partial derivative along a chart coordinate."""
        self.chart.axis(coord)
        dn = self._total_deriv_poly(self.num, coord)
        dd = self._total_deriv_poly(self.den, coord)
        if dd.is_zero:
            return self._wrap(dn, self.den)
        return self._wrap(dn * self.den - self.num * dd, self.den * self.den)

    # -- substitution and evaluation ----------------------------------------

    def on_chart(self, chart):
        """Reinterpret on a chart containing every coordinate in use."""
        if chart is self.chart:
            return self
        for s in self.symbols():
            for a in s.reads:
                chart.axis(a)
        return Expression(self.num, self.den, chart, _normalized=True)

    def substitute(self, mapping, target_chart=None):
        """Simultaneous substitution of coordinates by expressions.

        ``mapping`` sends coordinate names of this chart to expressions on
        ``target_chart`` (defaults to this chart).  Jet symbols pass
        through untouched, so any coordinate appearing in a present jet
        symbol's arguments must either be unmapped or map to itself.

        The numerator and the denominator are each put over the lcm of the
        images' denominators in one pass (``_subst_poly``, as in
        ``put_in``), and the quotient is normalised once: canonical form is
        unique, so this is the value of substituting term by term.
        """
        target = target_chart or self.chart
        for name in mapping:
            self.chart.axis(name)
        images = {}
        for name, image in mapping.items():
            if isinstance(image, (int, Fraction)):
                image = Expression.number(image, target)
            if image.chart is not target:
                raise ChartError("substituted expression lives on the wrong chart")
            images[name] = image
        for s in self.symbols():
            if s.is_coordinate:
                if s.name not in images:
                    target.axis(s.name)
            else:
                for a in s.args:
                    target.axis(a)
                    img = images.get(a)
                    if img is not None and img != Expression.coordinate(a, target):
                        raise ChartError(
                            f"cannot substitute {a!r}: it is an argument of {s.name!r}"
                        )
        return self._substituted(images, {}, target)

    def put_in(self, jets, powers=None):
        """This expression with each jet symbol named in ``jets``
        (``{rendered name: Expression}``, as ``petrov.jet_expressions``
        gives) replaced by its expression, on this chart.  The images may
        read only coordinates of this chart and symbols ``jets`` does not
        name.

        ``powers``, a dict shared by put-ins of the same ``jets``, keeps
        each symbol's image and each power product of images once it is
        built.  The numerator and the denominator are each summed term by
        term over those products (``_subst_poly``), and the quotient is
        normalised once: canonical form is unique, so this is the value of
        the substitution.
        """
        return self._substituted(jets, {} if powers is None else powers, self.chart)

    def _substituted(self, images, powers, chart):
        """``images`` put in (``_subst_poly``), as an expression on ``chart``."""
        num = _subst_poly(self.num, images, powers)
        den = _subst_poly(self.den, images, powers)
        if num is None and den is None:
            return self.on_chart(chart)
        nn, nd = num or (self.num, _ONE)
        dn, dd = den or (self.den, _ONE)
        if dn.is_zero:
            raise SingularSubstitutionError("denominator vanishes identically after substitution")
        return Expression(nn * dd, nd * dn, chart)

    def evaluate(self, point, powers=None):
        """Exact rational value at an assignment ``{rendered name: Fraction}``.

        ``powers``, a dict shared by evaluations at the same point, keeps
        each symbol power once it is built.  The numerator and the
        denominator are each summed as integers over one integer
        denominator, the numerator first, and one ``Fraction`` is built for
        their quotient.
        """
        if powers is None:
            powers = {}
        nn, nd = _eval_poly(self.num, point, powers)
        dn, dd = _eval_poly(self.den, point, powers)
        if dn == 0:
            raise SingularEvaluationError("denominator vanishes at the point")
        return Fraction(nn * dd, nd * dn)

    # -- rendering -----------------------------------------------------------

    def render(self):
        """Canonical text in the input grammar (re-parseable)."""
        if self.num.is_zero:
            return "0"
        num = self.num.render()
        if self.den == _ONE:
            return num
        den = self.den.render()
        if len(self.num) > 1:
            num = f"({num})"
        if _needs_parens_as_denominator(self.den):
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"Expression({self.render()})"


def _normalize(num, den):
    if num.is_zero:
        return num, Poly.const(1)
    if den == _ONE:
        return num, den  # an integral numerator over 1 is canonical
    if len(den) > 1 and len(num) > 1:
        g = poly_gcd(num, den)
        if not g.is_const:
            num = num.exact_div(g)
            den = den.exact_div(g)
    # with a monomial operand the GCD is a monomial times an integer,
    # which the tail takes out
    return canonical_tail(num, den)


_ONE = Poly.const(1)
_MASK = object()  # the key of a ``powers`` dict's masks of the symbols seen and put in


def _subst_poly(poly, images, powers):
    """``poly`` with each symbol whose rendered name ``images`` maps put in
    (``Expression.substitute`` and ``Expression.put_in``), as polynomials
    N, D with N/D its value; None when it reads no such symbol.

    ``powers`` keeps each symbol's image (None when it is kept) and the
    ``poly.mask`` of the symbols seen and of those put in, so that a
    monomial's put-in part is ``m & mask``.  Terms are grouped by that
    part, whose power product P/Q is built once per ``powers``.  D is the
    lcm of the groups' Q, and each group's terms are multiplied by its
    P·(D/Q) into one sum in place (``poly.add_product``): with polynomial
    images D is 1, and no GCD is taken."""
    seen, put = powers.get(_MASK, (0, 0))
    used = reduce(or_, poly.terms, 0)
    if used | seen != seen:
        syms = poly.symbols()
        put |= mask(s for s in syms if powers.setdefault(s, images.get(s.render())) is not None)
        powers[_MASK] = seen | mask(syms), put
    if not used & put:
        return None
    groups = {}
    for mono, coeff in poly.terms.items():
        key = mono & put
        groups.setdefault(key, {})[mono ^ key] = coeff
    parts = [(rest, *_group_power(key, powers)) for key, rest in groups.items()]
    den = parts[0][2]
    for _, _, d in parts[1:]:
        if d != den:
            den = den * d.exact_div(poly_gcd(den, d))
    out = {}
    for rest, num, d in parts:
        if d != den:
            num = num * den.exact_div(d)
        add_product(out, rest, num.terms)
    return Poly(out), den


def _group_power(key, powers):
    """(P, Q): the product of the images' powers in the monomial ``key``
    is P/Q; kept in ``powers``."""
    out = powers.get(key)
    if out is None:
        num = den = _ONE
        for s, e, _ in factors(key):
            image = powers[s]
            num = num * image.num ** e
            den = den * image.den ** e
        out = powers[key] = (num, den)
    return out


def _eval_poly(poly, point, powers):
    """(n, d): ``poly`` at the point is n/d.  Each term is an integer
    numerator over an integer denominator, summed over their lcm."""
    if poly.is_const:
        return poly.const_value(), 1
    nums, dens = [], []
    for mono, coeff in poly.terms.items():
        n, d = coeff, 1
        for s, e, part in factors(mono):
            f = powers.get(part)
            if f is None:
                name = s.render()
                if name not in point:
                    raise SingularEvaluationError(f"symbol {name!r} has no assigned value")
                value = point[name]
                if not isinstance(value, (int, Fraction)):
                    value = Fraction(value)
                f = powers[part] = (value.numerator ** e, value.denominator ** e)
            n *= f[0]
            d *= f[1]
        nums.append(n)
        dens.append(d)
    den = lcm(*dens)
    return sum([n * (den // d) for n, d in zip(nums, dens)]), den
