"""Sparse multivariate polynomials over the integers.

A ``Poly`` maps monomials to nonzero ``int`` coefficients, and a monomial
is one packed ``int``: the exponent of the symbol in slot i is the
16-bit field at bit 16·i, so the product of two monomials is their sum
and the constant monomial is 0.  A field holds exponents up to
``EXPONENT_LIMIT`` (2^15 − 1); its top bit is a guard, which a sum past
the limit sets, and a product (``add_product``, ``Poly.mul_mono``) or a
power that would pass it raises ``ExponentOverflowError`` instead of
spilling into the next field.

The slots come from one registry per process, keyed by a symbol's
``(name, args, index)``, so two requests that declare one name with
different arguments get distinct slots; the chart coordinates take the
lowest slots.  A symbol met for the first time takes the next slot under
a lock, and only then, so polynomials stay safe to share between
threads.  Slot numbers depend on the order in which a process meets its
symbols, so nothing visible reads them: the term order is graded
lexicographic over ``Sym.key``, and ``Poly.sorted_terms``,
``Poly.leading`` and ``Poly.render`` (the one writer of the input
grammar) decode before they compare.  Other modules build a monomial with
``monomial``, read one with ``factors``, split one with a ``mask`` and
multiply through ``add_product``; only this module knows the layout.
``int_to_digits`` and ``int_from_digits`` convert integers of any size
for the renderer and the parser.

``poly_gcd`` is exact for every input, with no size limit, so reduced
fractions are canonical.  It works on the term dicts over its operands'
symbols in ``Sym.key`` order: the heuristic GCD (GCDHEU) of Char, Geddes
and Gonnet answers by integer evaluation, ``math.gcd`` and interpolation,
checked by exact trial division, and Brown's primitive pseudo-remainder
sequence answers when it fails.  ``Poly.exact_div`` divides exactly in
Z[x] with the same routine, taking leading terms in the order of the
packed ints, which is a lex order over the slots.  Exact division and
the pseudo-remainder subtract each multiple of the divisor through
``add_product``, the one multiply-accumulate.
"""

from functools import lru_cache, reduce
from math import gcd as int_gcd, isqrt
from operator import or_
from threading import Lock

from .errors import ExponentOverflowError
from .symbols import BUILT_IN_CHARTS, METRIC_CHART

_WIDTH = 16
_FIELD = (1 << _WIDTH) - 1
EXPONENT_LIMIT = (1 << (_WIDTH - 1)) - 1

_SLOTS = {}  # (name, args, index) -> slot
_SYMS = []  # slot -> Sym
_GUARDS = 0  # the guard bit of every slot in use
_LOWS = 0  # the lowest bit of every slot in use
_LOCK = Lock()


def _slot(sym, create=True):
    key = (sym.name, sym.args, sym.index)
    slot = _SLOTS.get(key)
    if slot is None and create:
        global _GUARDS, _LOWS
        with _LOCK:
            slot = _SLOTS.get(key)
            if slot is None:
                slot = len(_SYMS)
                _SYMS.append(sym)
                _GUARDS |= 1 << (slot * _WIDTH + _WIDTH - 1)
                _LOWS |= 1 << (slot * _WIDTH)
                _SLOTS[key] = slot
    return slot


for _chart in BUILT_IN_CHARTS + (METRIC_CHART,):
    for _name in _chart.coords:
        _slot(_chart.sym(_name))


def _overflow():
    return ExponentOverflowError(f"an exponent exceeds {EXPONENT_LIMIT}")


def monomial(powers):
    """The monomial of ``(Sym, exponent)`` pairs of distinct symbols."""
    m = 0
    for s, e in powers:
        if e > EXPONENT_LIMIT:
            raise _overflow()
        m |= e << (_slot(s) * _WIDTH)
    return m


def mask(syms):
    """The bits of ``syms`` in a monomial: m & mask(syms) is m's part in them."""
    return reduce(or_, (_FIELD << (_slot(s) * _WIDTH) for s in syms), 0)


@lru_cache(maxsize=1024)
def factors(m):
    """``(sym, exponent, part)`` for each symbol of the monomial m, in
    ``Sym.key`` order; ``part`` is the monomial sym^exponent."""
    shifts, syms, _ = _ordered(_occupied(m))
    return tuple((s, (m >> i) & _FIELD, m & (_FIELD << i)) for i, s in zip(shifts, syms))


@lru_cache(maxsize=1024)
def _mono_text(m):
    return "*".join(s.render() + (f"^{e}" if e > 1 else "") for s, e, _ in factors(m))


def _occupied(m):
    """The guard bits of the fields that are nonzero in m."""
    return ((m | _GUARDS) - _LOWS) & _GUARDS


def _top(m):
    """The largest exponent in the monomial m."""
    return max((f[1] for f in factors(m)), default=0)


@lru_cache(maxsize=512)
def _ordered(occupied):
    """(bit offsets, symbols, their set) of the slots whose guard bits
    ``occupied`` sets, in ``Sym.key`` order."""
    slots = []
    while occupied:
        low = occupied & -occupied
        slots.append(low.bit_length() // _WIDTH - 1)
        occupied ^= low
    slots.sort(key=lambda i: (_SYMS[i].key, _SYMS[i].args))
    syms = tuple(_SYMS[i] for i in slots)
    return tuple(i * _WIDTH for i in slots), syms, frozenset(syms)


def _support(terms):
    return _occupied(reduce(or_, terms, 0))


def _at_least(a, b, guards):
    """Every bit of the fields where a's exponent is at least b's."""
    ge = ((a | guards) - b) & guards
    return ge | (ge - (ge >> (_WIDTH - 1)))


def _field_min(a, b):
    """The monomial gcd of a and b."""
    take_b = _at_least(a, b, _GUARDS)
    return (b & take_b) | (a & ~take_b)


def _mono_content(terms):
    if 0 in terms:
        return 0
    it = iter(terms)
    g = next(it, 0)
    for m in it:
        if not g:
            break
        g = _field_min(g, m)
    return g


def _field_max(a, b):
    """The monomial lcm of a and b."""
    take_a = _at_least(a, b, _GUARDS)
    return (a & take_a) | (b & ~take_a)


def _degrees(terms):
    """Each field the largest exponent in the monomials of ``terms``."""
    return reduce(_field_max, terms)


def _grlex(terms):
    """Sort key of the graded-lex order over ``Sym.key`` on the monomials
    of ``terms``."""
    shifts = _ordered(_support(terms))[0]

    def key(m):
        e = [(m >> i) & _FIELD for i in shifts]
        return sum(e), e

    return key


class Poly:
    """Immutable expanded polynomial: ``{monomial: nonzero int}``."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def const(cls, value):
        return cls({0: value} if value else {})

    @classmethod
    def var(cls, sym):
        return cls({1 << (_slot(sym) * _WIDTH): 1})

    # -- predicates and views ------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self):
        return self.terms.get(0, 0)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def symbols(self):
        return _ordered(_support(self.terms))[2]

    def leading(self):
        """Leading (graded-lex greatest) term as ``(monomial, coeff)``."""
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        m = max(self.terms, key=_grlex(self.terms))
        return m, self.terms[m]

    def sorted_terms(self):
        if len(self.terms) < 2:
            return list(self.terms.items())
        key = _grlex(self.terms)
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]), reverse=True)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly(out)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return Poly.zero()
        if len(other.terms) > len(self.terms) or self.is_const:
            self, other = other, self
        if other.is_const:
            c = other.const_value()
            return self if c == 1 else Poly({m: v * c for m, v in self.terms.items()})
        return Poly(add_product({}, self.terms, other.terms))

    def mul_mono(self, mono):
        return Poly(add_product({}, self.terms, {mono: 1}))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        # a monomial's squarings raise at the first field past the limit;
        # a longer power would raise only at its last, largest squaring, so
        # its largest exponent, n times this one's, is checked first
        if n > 1 and len(self.terms) > 1 and _top(_degrees(self.terms)) * n > EXPONENT_LIMIT:
            raise _overflow()
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus -------------------------------------------------------

    def deriv(self, sym):
        """Formal partial derivative with respect to a single symbol."""
        slot = _slot(sym, create=False)
        if slot is None:
            return Poly.zero()
        i = slot * _WIDTH
        one = 1 << i
        # distinct monomials stay distinct, and c*e is never 0
        return Poly({m - one: c * ((m >> i) & _FIELD)
                     for m, c in self.terms.items() if (m >> i) & _FIELD})

    # -- structure ------------------------------------------------------

    def coeffs_in(self, sym):
        """self as univariate in ``sym``: ``{exponent: Poly free of sym}``."""
        slot = _slot(sym, create=False)
        if slot is None:
            return {0: self} if self.terms else {}
        return {e: Poly(t) for e, t in _coeffs_in(self.terms, slot * _WIDTH).items()}

    def content(self):
        """Positive gcd of the coefficients (1 for the zero polynomial)."""
        return int_gcd(*self.terms.values()) or 1

    def div_int(self, c):
        """Quotient by a nonzero int that divides every coefficient."""
        if c == 1:
            return self
        return Poly({m: v // c for m, v in self.terms.items()})

    def mono_content(self):
        return _mono_content(self.terms)

    def div_mono(self, mono):
        if not mono:
            return self
        return Poly({m - mono: c for m, c in self.terms.items()})

    def exact_div(self, other):
        """Exact quotient self/other in Z[x], or None when there is none."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return Poly.zero()
        q = _exact_div(self.terms, other.terms)
        return None if q is None else Poly(q)

    def render(self):
        """Canonical text in the input grammar (re-parseable), terms in
        decreasing graded-lex order."""
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            mono_txt = _mono_text(mono)
            mag = abs(coeff)
            if not mono_txt:
                body = int_to_digits(mag)
            elif mag == 1:
                body = mono_txt
            else:
                body = f"{int_to_digits(mag)}*{mono_txt}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self.render()})"


def add_product(out, f, g):
    """Add f·g (``Poly`` term dicts) into the term dict ``out`` in place,
    dropping a term that cancels; return ``out``.  Raises
    ExponentOverflowError when an exponent of the product passes
    ``EXPONENT_LIMIT``."""
    guards = _GUARDS
    for m2, c2 in g.items():
        for m1, c1 in f.items():
            m = m1 + m2
            if m & guards:
                raise _overflow()
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def canonical_tail(num, den):
    """num/den over their shared monomial and integer content, with the
    denominator's leading coefficient positive: the last step of a
    canonical fraction once any polynomial GCD is out
    (``expression._normalize``, ``invariant_table._reduced``)."""
    shared = den.mono_content()
    if shared:
        shared = _field_min(num.mono_content(), shared)
        num, den = num.div_mono(shared), den.div_mono(shared)
    c = int_gcd(num.content(), den.content())
    if den.leading()[1] < 0:
        c = -c
    return num.div_int(c), den.div_int(c)


def poly_gcd(a, b):
    """Exact primitive multivariate GCD with a positive leading coefficient.

    Monomial factors count: ``poly_gcd(p*(p+1), p*(p+2))`` is ``p``.  The
    zero, constant and monomial cases and operands with no symbol in common
    are answered directly.  Otherwise both operands lose their monomial
    and integer contents; the heuristic GCD (``_heu_gcd``) answers almost
    always, and Brown's primitive pseudo-remainder sequence
    (``_gcd_recursive``) when it fails, both over the operands' symbols in
    ``Sym.key`` order.
    """
    if a.is_zero:
        return _primitive_poly(b) if not b.is_zero else Poly.const(1)
    if b.is_zero:
        return _primitive_poly(a)
    if a.is_const or b.is_const:
        return Poly.const(1)
    ma, mb = a.mono_content(), b.mono_content()
    mono = _field_min(ma, mb)
    if len(a) == 1 or len(b) == 1:
        return Poly({mono: 1})
    a, b = a.div_mono(ma), b.div_mono(mb)
    sa, sb = _support(a.terms), _support(b.terms)
    if not sa & sb:
        return Poly({mono: 1})
    shifts = _ordered(sa | sb)[0]
    f, g = _primitive(a.terms), _primitive(b.terms)
    try:
        h = _heu_gcd(f, g, shifts)[0]
    except _HeuristicFailed:
        h = _gcd_recursive(f, g, shifts)
    h = _primitive_poly(Poly(h))
    return h.mul_mono(mono) if mono else h


def _primitive_poly(p):
    p = p.div_int(p.content())
    return -p if p.leading()[1] < 0 else p


# CPython refuses to convert between int and str beyond
# sys.get_int_max_str_digits() digits (4300 by default, never set below
# 640); pieces this short always convert.
_PIECE_DIGITS = 600
_PIECE_BOUND = 10 ** _PIECE_DIGITS


def int_from_digits(text):
    """``int(text)`` for a string of decimal digits of any length."""
    if len(text) <= _PIECE_DIGITS:
        return int(text)
    half = len(text) // 2
    return int_from_digits(text[:-half]) * 10 ** half + int_from_digits(text[-half:])


def int_to_digits(n):
    """``str(n)`` for a nonnegative int of any size."""
    if n < _PIECE_BOUND:
        return str(n)
    # half is at most half of n's digit count, so the high part is nonzero
    half = int(n.bit_length() * 0.30103) // 2
    high, low = divmod(n, 10 ** half)
    return int_to_digits(high) + int_to_digits(low).zfill(half)


def _needs_parens_as_denominator(poly):
    if len(poly) > 1:
        return True
    ((mono, coeff),) = poly.terms.items()
    if not mono:
        return False  # bare integer
    if coeff != 1:
        return True
    # anything but one symbol to the first power
    return bool(mono & (mono - 1)) or (mono.bit_length() - 1) % _WIDTH != 0


# -- term dicts in the GCD ------------------------------------------------
#
# The GCD and exact division work on ``Poly`` term dicts.  A variable is
# the bit offset of its field; ``shifts`` lists the variables of a GCD in
# ``Sym.key`` order.


def _degree(f, i):
    return max((m >> i) & _FIELD for m in f)


def _primitive(f):
    c = int_gcd(*f.values())
    return f if c == 1 else {m: v // c for m, v in f.items()}


def _exact_div(f, g):
    """Exact quotient f/g of term dicts, or None when g does not divide f."""
    top, dg = _degrees(f), _degrees(g)
    guards = _GUARDS
    if _at_least(top, dg, guards) & guards != guards:
        return None
    # every term of the quotient lies in the box [0, bound]
    bound = top - dg
    if len(g) == 1:
        ((gm, gc),) = g.items()
        quot = {}
        for m, c in f.items():
            qc, r = divmod(c, gc)
            if r or _at_least(m, gm, guards) & guards != guards:
                return None
            quot[m - gm] = qc
        return quot
    lm = max(g)
    lc = g[lm]
    rem = dict(f)
    quot = {}
    while rem:
        rm = max(rem)
        if _at_least(rm, lm, guards) & guards != guards:
            return None
        qm = rm - lm
        if _at_least(bound, qm, guards) & guards != guards:
            return None
        qc, r = divmod(rem[rm], lc)
        if r:
            return None
        quot[qm] = qc
        # qm <= bound, so no exponent of the product passes f's
        add_product(rem, g, {qm: -qc})
    return quot


# -- heuristic GCD ----------------------------------------------------------


class _HeuristicFailed(Exception):
    pass


_HEU_ATTEMPTS = 6


def _heu_gcd(f, g, shifts):
    """GCDHEU (Char, Geddes and Gonnet 1989) on nonzero term dicts over
    the variables ``shifts``.

    Returns ``(h, f/h, g/h)`` with h = gcd(f, g) up to sign.  The first
    variable is evaluated at an integer xi, the GCD of the images is taken
    recursively (``math.gcd`` once no variable is left), and h is read back
    from the symmetric xi-adic digits of that image (or f/h or g/h from
    the cofactor images).  A candidate is kept only when exact division
    proves it divides both operands; since xi exceeds twice the smaller
    norm plus two, it is then the GCD.  Raises ``_HeuristicFailed`` when no
    evaluation point verifies.
    """
    if not shifts:
        a, b = f[0], g[0]
        h = int_gcd(a, b)
        return {0: h}, {0: a // h}, {0: b // h}
    c = int_gcd(*f.values(), *g.values())
    if c != 1:
        f = {m: v // c for m, v in f.items()}
        g = {m: v // c for m, v in g.items()}
    i, rest = shifts[0], shifts[1:]
    # xi > 2*min(|f|, |g|) + 2 is what makes a verified candidate the GCD,
    # so unlike some variants xi is not capped at 99*sqrt of that bound
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_ATTEMPTS):
        ff = _eval_at(f, i, xi)
        gg = _eval_at(g, i, xi)
        if ff and gg:
            hh, cff, cfg = _heu_gcd(ff, gg, rest)
            h = _primitive(_interpolate(hh, i, xi))
            cf = _exact_div(f, h)
            if cf is not None:
                cg = _exact_div(g, h)
                if cg is not None:
                    return _scale(h, c), cf, cg
            cf = _interpolate(cff, i, xi)
            h = _exact_div(f, cf)
            if h is not None:
                cg = _exact_div(g, h)
                if cg is not None:
                    return _scale(h, c), cf, cg
            cg = _interpolate(cfg, i, xi)
            h = _exact_div(g, cg)
            if h is not None:
                cf = _exact_div(f, h)
                if cf is not None:
                    return _scale(h, c), cf, cg
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    raise _HeuristicFailed


def _scale(f, c):
    return f if c == 1 else {m: v * c for m, v in f.items()}


def _eval_at(f, i, xi):
    """f at variable i = xi: a term dict free of variable i."""
    powers = [1]
    for _ in range(_degree(f, i)):
        powers.append(powers[-1] * xi)
    out = {}
    for m, c in f.items():
        e = (m >> i) & _FIELD
        k = m - (e << i)
        v = out.get(k, 0) + c * powers[e]
        if v:
            out[k] = v
        else:
            del out[k]
    return out


def _interpolate(h, i, xi):
    """Term dict whose coefficients in variable i (absent from h) are the
    symmetric xi-adic digits of h's coefficients."""
    out = {}
    half = xi // 2
    e = 0
    while h:
        if e > EXPONENT_LIMIT:
            raise _HeuristicFailed
        rest = {}
        for m, c in h.items():
            c, digit = divmod(c, xi)
            if digit > half:
                digit -= xi
                c += 1
            if digit:
                out[m + (e << i)] = digit
            if c:
                rest[m] = c
        h = rest
        e += 1
    return out


# -- primitive pseudo-remainder sequence --------------------------------------


def _gcd_recursive(f, g, shifts):
    """GCD of nonzero term dicts by Brown's primitive PRS.

    The main variable is the shared variable of least degree, ties going
    to the first of ``shifts``, so the choice never depends on hashing.
    """
    c = int_gcd(*f.values(), *g.values())
    mf, mg = _mono_content(f), _mono_content(g)
    mono = _field_min(mf, mg)
    f = _primitive({m - mf: v for m, v in f.items()})
    g = _primitive({m - mg: v for m, v in g.items()})
    shared = [(min(df, dg), n) for n, i in enumerate(shifts)
              if (df := _degree(f, i)) and (dg := _degree(g, i))]
    h = _prs(f, g, shifts, shifts[min(shared)[1]]) if shared else {0: 1}
    return _scale({m + mono: v for m, v in h.items()}, c)


def _prs(f, g, shifts, i):
    cont = _gcd_recursive(_content_in(f, i, shifts), _content_in(g, i, shifts), shifts)
    f = _primitive_in(f, i, shifts)
    g = _primitive_in(g, i, shifts)
    if _degree(f, i) < _degree(g, i):
        f, g = g, f
    while True:
        r = _prem(f, g, i)
        if not r:
            return add_product({}, cont, g)
        f, g = g, _primitive_in(r, i, shifts)
        if _degree(g, i) == 0:
            return cont


def _coeffs_in(f, i):
    """f as univariate in variable i: ``{exponent: term dict free of i}``."""
    out = {}
    for m, c in f.items():
        e = (m >> i) & _FIELD
        out.setdefault(e, {})[m - (e << i)] = c
    return out


def _content_in(f, i, shifts):
    coeffs = iter(_coeffs_in(f, i).values())
    h = next(coeffs)
    for p in coeffs:
        h = _gcd_recursive(h, p, shifts)
    return h


def _primitive_in(f, i, shifts):
    return _exact_div(f, _content_in(f, i, shifts))


def _prem(a, b, i):
    """Pseudo-remainder of a by b in variable i."""
    cb = _coeffs_in(b, i)
    db = max(cb)
    lb = cb[db]
    rem = _coeffs_in(a, i)
    d = max(rem)
    while rem and d >= db:
        # rem <- lb*rem - lr*b*x_i^(d-db), lr the leading coefficient of rem
        neg = {m: -c for m, c in rem[d].items()}
        new = {e: add_product({}, p, lb) for e, p in rem.items()}
        for e, p in cb.items():
            add_product(new.setdefault(e + d - db, {}), p, neg)
        del new[d]
        rem = {e: p for e, p in new.items() if p}
        d = max(rem, default=-1)
    out = {}
    for e, p in rem.items():
        for m, c in p.items():
            out[m + (e << i)] = c
    return out
