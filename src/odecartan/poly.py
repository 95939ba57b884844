"""Sparse multivariate polynomials over the integers.

Monomials are tuples of ``(Sym, exponent)`` pairs sorted by the global
symbol order; the term order of ``Poly`` is graded lexicographic, and
``mono_cmp`` is its one implementation.  The expanded form is canonical,
so the zero test is decisive.  Coefficients are ``int``: rational
functions keep their denominators in ``Expression``.  ``Poly.render`` is
the one writer of the input grammar (``Expression.render`` builds a
fraction's text from it); ``int_to_digits`` and ``int_from_digits``
convert integers of any size for it and for the parser.

``poly_gcd`` is exact for every input, with no size limit, so reduced
fractions are canonical.  It works on sparse integer maps: the heuristic
GCD (GCDHEU) of Char, Geddes and Gonnet answers by integer evaluation,
``math.gcd`` and interpolation, checked by exact trial division, and
Brown's primitive pseudo-remainder sequence answers when it fails.
``Poly.exact_div`` divides the same integer maps, exactly in Z[x].
"""

from math import gcd as int_gcd, isqrt
from operator import add, sub

ONE_MONO = ()


def mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        s1, e1 = m1[i]
        s2, e2 = m2[j]
        if s1.key == s2.key:
            out.append((s1, e1 + e2))
            i += 1
            j += 1
        elif s1.key < s2.key:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_div(m1, m2):
    """Exact monomial quotient, or None when m2 does not divide m1."""
    if not m2:
        return m1
    out = []
    i = j = 0
    while j < len(m2):
        if i >= len(m1):
            return None
        s1, e1 = m1[i]
        s2, e2 = m2[j]
        if s1.key == s2.key:
            if e1 < e2:
                return None
            if e1 > e2:
                out.append((s1, e1 - e2))
            i += 1
            j += 1
        elif s1.key < s2.key:
            out.append(m1[i])
            i += 1
        else:
            return None
    out.extend(m1[i:])
    return tuple(out)


def mono_gcd(m1, m2):
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        s1, e1 = m1[i]
        s2, e2 = m2[j]
        if s1.key == s2.key:
            out.append((s1, min(e1, e2)))
            i += 1
            j += 1
        elif s1.key < s2.key:
            i += 1
        else:
            j += 1
    return tuple(out)


def mono_degree(m):
    return sum(e for _, e in m)


def mono_cmp(m1, m2):
    """Graded-lex comparison; smaller symbol key dominates in the lex step."""
    d1 = mono_degree(m1)
    d2 = mono_degree(m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    i = j = 0
    while i < len(m1) and j < len(m2):
        s1, e1 = m1[i]
        s2, e2 = m2[j]
        if s1.key == s2.key:
            if e1 != e2:
                return 1 if e1 > e2 else -1
            i += 1
            j += 1
        elif s1.key < s2.key:
            return 1
        else:
            return -1
    if i < len(m1):
        return 1
    if j < len(m2):
        return -1
    return 0


class _MonoKey:
    __slots__ = ("m",)

    def __init__(self, m):
        self.m = m

    def __lt__(self, other):
        return mono_cmp(self.m, other.m) < 0


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
        return cls({ONE_MONO: value} if value else {})

    @classmethod
    def var(cls, sym):
        return cls({((sym, 1),): 1})

    # -- predicates and views ------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and ONE_MONO in self.terms)

    def const_value(self):
        return self.terms.get(ONE_MONO, 0)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def symbols(self):
        out = set()
        for m in self.terms:
            for s, _ in m:
                out.add(s)
        return out

    def leading(self):
        """Leading (graded-lex greatest) term as ``(monomial, coeff)``."""
        m = max(self.terms, key=_MonoKey)
        return m, self.terms[m]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _MonoKey(kv[0]), reverse=True)

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
        return Poly({mono_mul(m, mono): c for m, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
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
        out = {}
        for m, c in self.terms.items():
            for i, (s, e) in enumerate(m):
                if s.key == sym.key:
                    if e == 1:
                        nm = m[:i] + m[i + 1:]
                    else:
                        nm = m[:i] + ((s, e - 1),) + m[i + 1:]
                    # distinct monomials stay distinct, and c*e is never 0
                    out[nm] = c * e
                    break
        return Poly(out)

    # -- structure ------------------------------------------------------

    def content(self):
        """Positive gcd of the coefficients (1 for the zero polynomial)."""
        return int_gcd(*self.terms.values()) or 1

    def div_int(self, c):
        """Quotient by a nonzero int that divides every coefficient."""
        if c == 1:
            return self
        return Poly({m: v // c for m, v in self.terms.items()})

    def mono_content(self):
        it = iter(self.terms)
        try:
            g = next(it)
        except StopIteration:
            return ONE_MONO
        for m in it:
            if not g:
                return ONE_MONO
            g = mono_gcd(g, m)
        return g

    def div_mono(self, mono):
        if not mono:
            return self
        return Poly({mono_div(m, mono): c for m, c in self.terms.items()})

    def exact_div(self, other):
        """Exact quotient self/other in Z[x], or None when there is none."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return Poly.zero()
        if other.is_const:
            c = other.const_value()
            if any(v % c for v in self.terms.values()):
                return None
            return self.div_int(c)
        # by Gauss's lemma the quotient is integral exactly when the
        # primitive parts divide and the contents do
        syms = sorted(self.symbols() | other.symbols())
        f, cf = _to_int(self, syms)
        g, cg = _to_int(other, syms)
        if cf % cg:
            return None
        q = _exact_div(f, g)
        return None if q is None else _from_int(q, syms, cf // cg)

    def render(self):
        """Canonical text in the input grammar (re-parseable), terms in
        decreasing graded-lex order."""
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            mono_txt = _render_mono(mono)
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
    dropping a term that cancels; return ``out``."""
    for m2, c2 in g.items():
        for m1, c1 in f.items():
            m = mono_mul(m1, m2)
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
        shared = mono_gcd(num.mono_content(), shared)
        num, den = num.div_mono(shared), den.div_mono(shared)
    c = int_gcd(num.content(), den.content())
    if den.leading()[1] < 0:
        c = -c
    return num.div_int(c), den.div_int(c)


def poly_gcd(a, b):
    """Exact primitive multivariate GCD with a positive leading coefficient.

    Monomial factors count: ``poly_gcd(p*(p+1), p*(p+2))`` is ``p``.  The
    zero, constant and monomial cases and operands with no symbol in common
    are answered directly.  Otherwise both operands become primitive
    integer maps over their symbols (see ``_to_int``); the heuristic GCD
    (``_heu_gcd``) answers almost always, and Brown's primitive
    pseudo-remainder sequence (``_gcd_recursive``) when it fails.
    """
    if a.is_zero:
        return _primitive_poly(b) if not b.is_zero else Poly.const(1)
    if b.is_zero:
        return _primitive_poly(a)
    if a.is_const or b.is_const:
        return Poly.const(1)
    if len(a) == 1 or len(b) == 1:
        g = mono_gcd(a.mono_content(), b.mono_content())
        return Poly({g: 1})
    ma, mb = a.mono_content(), b.mono_content()
    mono = mono_gcd(ma, mb)
    a, b = a.div_mono(ma), b.div_mono(mb)
    sa, sb = a.symbols(), b.symbols()
    if sa.isdisjoint(sb):
        return Poly({mono: 1})
    syms = sorted(sa | sb)
    f, g = _to_int(a, syms)[0], _to_int(b, syms)[0]
    try:
        h = _heu_gcd(f, g)[0]
    except _HeuristicFailed:
        h = _gcd_recursive(f, g)
    h = _primitive_poly(_from_int(h, syms, 1))
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


def _render_mono(mono):
    return "*".join(s.render() + (f"^{e}" if e > 1 else "") for s, e in mono)


def _needs_parens_as_denominator(poly):
    if len(poly) > 1:
        return True
    ((mono, coeff),) = poly.terms.items()
    if not mono:
        return False  # bare integer
    if coeff != 1:
        return True
    return len(mono) > 1 or mono[0][1] > 1


# -- integer maps ---------------------------------------------------------
#
# In the GCD and in exact division a polynomial is a sparse map
# {exponent tuple: nonzero int}.
# Position i of every tuple is the exponent of the i-th symbol in key order;
# exact division takes leading terms in the lex order of these tuples.


def _to_int(p, syms):
    """(F, c) with p = c*F: F a primitive integer map over ``syms`` (sorted,
    covering p's symbols) and c = ``p.content()``."""
    index = {s.key: i for i, s in enumerate(syms)}
    c = p.content()
    zero = [0] * len(syms)
    out = {}
    for m, v in p.terms.items():
        e = zero[:]
        for s, k in m:
            e[index[s.key]] = k
        out[tuple(e)] = v // c
    return out, c


def _from_int(h, syms, scale):
    """Poly of the int ``scale`` times the integer map h."""
    return Poly({
        tuple([(syms[i], k) for i, k in enumerate(m) if k]): scale * c
        for m, c in h.items()
    })


def _degrees(f):
    return tuple(map(max, zip(*f)))


def _mono_content(f):
    return tuple(map(min, zip(*f)))


def _div_mono(f, mono):
    if not any(mono):
        return f
    return {tuple(map(sub, m, mono)): c for m, c in f.items()}


def _mul_mono(f, mono):
    if not any(mono):
        return f
    return {tuple(map(add, m, mono)): c for m, c in f.items()}


def _primitive(f):
    c = int_gcd(*f.values())
    return f if c == 1 else {m: v // c for m, v in f.items()}


def _mul(f, g):
    out = {}
    for m2, c2 in g.items():
        for m1, c1 in f.items():
            m = tuple(map(add, m1, m2))
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def _exact_div(f, g):
    """Exact quotient f/g of integer maps, or None when g does not divide f."""
    bound = tuple(map(sub, _degrees(f), _degrees(g)))
    if min(bound) < 0:
        return None
    if len(g) == 1:
        ((gm, gc),) = g.items()
        quot = {}
        for m, c in f.items():
            qm = tuple(map(sub, m, gm))
            qc, r = divmod(c, gc)
            if r or min(qm) < 0:
                return None
            quot[qm] = qc
        return quot
    lm = max(g)
    lc = g[lm]
    rem = dict(f)
    quot = {}
    while rem:
        rm = max(rem)
        qm = tuple(map(sub, rm, lm))
        # every term of the quotient lies in the box [0, bound]
        if min(qm) < 0 or min(map(sub, bound, qm)) < 0:
            return None
        qc, r = divmod(rem[rm], lc)
        if r:
            return None
        quot[qm] = qc
        for m, c in g.items():
            m = tuple(map(add, qm, m))
            c = rem.get(m, 0) - qc * c
            if c:
                rem[m] = c
            else:
                del rem[m]
    return quot


# -- heuristic GCD ----------------------------------------------------------


class _HeuristicFailed(Exception):
    pass


_HEU_ATTEMPTS = 6


def _heu_gcd(f, g):
    """GCDHEU (Char, Geddes and Gonnet 1989) on nonzero integer maps.

    Returns ``(h, f/h, g/h)`` with h = gcd(f, g) up to sign.  The first
    variable is evaluated at an integer xi, the GCD of the images is taken
    recursively (``math.gcd`` once no variable is left), and h is read back
    from the symmetric xi-adic digits of that image (or f/h or g/h from
    the cofactor images).  A candidate is kept only when exact division
    proves it divides both operands; since xi exceeds twice the smaller
    norm plus two, it is then the GCD.  Raises ``_HeuristicFailed`` when no
    evaluation point verifies.
    """
    if () in f:
        a, b = f[()], g[()]
        h = int_gcd(a, b)
        return {(): h}, {(): a // h}, {(): b // h}
    c = int_gcd(*f.values(), *g.values())
    if c != 1:
        f = {m: v // c for m, v in f.items()}
        g = {m: v // c for m, v in g.items()}
    # xi > 2*min(|f|, |g|) + 2 is what makes a verified candidate the GCD,
    # so unlike some variants xi is not capped at 99*sqrt of that bound
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_ATTEMPTS):
        ff = _eval_first(f, xi)
        gg = _eval_first(g, xi)
        if ff and gg:
            hh, cff, cfg = _heu_gcd(ff, gg)
            h = _primitive(_interpolate(hh, xi))
            cf = _exact_div(f, h)
            if cf is not None:
                cg = _exact_div(g, h)
                if cg is not None:
                    return _scale(h, c), cf, cg
            cf = _interpolate(cff, xi)
            h = _exact_div(f, cf)
            if h is not None:
                cg = _exact_div(g, h)
                if cg is not None:
                    return _scale(h, c), cf, cg
            cg = _interpolate(cfg, xi)
            h = _exact_div(g, cg)
            if h is not None:
                cf = _exact_div(f, h)
                if cf is not None:
                    return _scale(h, c), cf, cg
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    raise _HeuristicFailed


def _scale(f, c):
    return f if c == 1 else {m: v * c for m, v in f.items()}


def _eval_first(f, xi):
    """f at first variable = xi: an integer map over one variable fewer."""
    powers = [1]
    for _ in range(max(m[0] for m in f)):
        powers.append(powers[-1] * xi)
    out = {}
    for m, c in f.items():
        k = m[1:]
        v = out.get(k, 0) + c * powers[m[0]]
        if v:
            out[k] = v
        else:
            del out[k]
    return out


def _interpolate(h, xi):
    """Map whose coefficients in the new first variable are the symmetric
    xi-adic digits of h's coefficients."""
    out = {}
    half = xi // 2
    i = 0
    while h:
        rest = {}
        for m, c in h.items():
            c, digit = divmod(c, xi)
            if digit > half:
                digit -= xi
                c += 1
            if digit:
                out[(i, *m)] = digit
            if c:
                rest[m] = c
        h = rest
        i += 1
    return out


# -- primitive pseudo-remainder sequence --------------------------------------


def _gcd_recursive(f, g):
    """GCD of nonzero integer maps by Brown's primitive PRS.

    The main variable is the shared symbol of least degree, ties going to
    the first in symbol order, so the choice never depends on hashing.
    """
    c = int_gcd(*f.values(), *g.values())
    mono = tuple(map(min, _mono_content(f), _mono_content(g)))
    f = _primitive(_div_mono(f, _mono_content(f)))
    g = _primitive(_div_mono(g, _mono_content(g)))
    shared = [(min(df, dg), i)
              for i, (df, dg) in enumerate(zip(_degrees(f), _degrees(g))) if df and dg]
    if shared:
        h = _prs(f, g, min(shared)[1])
    else:
        h = {(0,) * len(mono): 1}
    return _scale(_mul_mono(h, mono), c)


def _prs(f, g, i):
    cont = _gcd_recursive(_content_in(f, i), _content_in(g, i))
    f = _primitive_in(f, i)
    g = _primitive_in(g, i)
    if _degrees(f)[i] < _degrees(g)[i]:
        f, g = g, f
    while True:
        r = _prem(f, g, i)
        if not r:
            return _mul(cont, g)
        f, g = g, _primitive_in(r, i)
        if _degrees(g)[i] == 0:
            return cont


def _coeffs_in(f, i):
    """f as univariate in variable i: ``{exponent: map with position i zero}``."""
    out = {}
    for m, c in f.items():
        out.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1:]] = c
    return out


def _content_in(f, i):
    coeffs = iter(_coeffs_in(f, i).values())
    h = next(coeffs)
    for p in coeffs:
        h = _gcd_recursive(h, p)
    return h


def _primitive_in(f, i):
    return _exact_div(f, _content_in(f, i))


def _prem(a, b, i):
    """Pseudo-remainder of a by b in variable i."""
    cb = _coeffs_in(b, i)
    db = max(cb)
    lb = cb[db]
    rem = _coeffs_in(a, i)
    d = max(rem)
    while rem and d >= db:
        lr = rem[d]
        # rem <- lb*rem - lr*b*x_i^(d-db)
        new = {e: _mul(p, lb) for e, p in rem.items()}
        for e, p in cb.items():
            shifted = new.setdefault(e + d - db, {})
            for m, c in _mul(p, lr).items():
                c = shifted.get(m, 0) - c
                if c:
                    shifted[m] = c
                else:
                    del shifted[m]
        del new[d]
        rem = {e: p for e, p in new.items() if p}
        d = max(rem, default=-1)
    out = {}
    for e, p in rem.items():
        for m, c in p.items():
            out[m[:i] + (e,) + m[i + 1:]] = c
    return out
