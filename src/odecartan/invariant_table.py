"""The committed invariant table of the generic right-hand side, and the
structure invariants of any F read from it.

``write_generic_table`` derives a..s of y''' = G'(x, y, p, q), G' opaque,
on the chart, verifying all ninety pattern slots, and writes them to the
generated module ``generic_structure`` as one JSON string.  Every
denominator there is a monomial in alpha and G'_qq, so putting in the
jets of an F with F_qq ≠ 0 for those of G' is a ring homomorphism:
``structure_from_jets`` gives F's invariants with no coframe, and
``OdeProblem.structure()`` reads every F's invariants this way.
The test suite regenerates the table and compares it byte for byte, so
the pattern check runs there, once, for every such F.

F's jets are kept in factored form N/(c·Π b^e) over one pairwise coprime
base per F (``factored_jets``), and each invariant is reduced over that
base, not by a GCD with its whole denominator (``_reduced``).  Every jet
but F_q and F_qq, which ``OdeProblem`` checked, comes from its parent by
the quotient rule on that form, so F is never differentiated here; a jet
along a coordinate F does not read is zero with no step.  The base is
built over F's denominator D and each gcd(D, ∂_z D) (Yun, SYMSAC 1976),
which splits off D's repeated factors and the factors that read z.  A base
element b = c1·v + c0 with c1, c0 coprime is irreducible; one evaluation
of N modulo a 61-bit prime at a seeded point of b = 0 then proves b ∤ N
when it is nonzero (``_certificate``, ``_quotient``).  The evaluation is
trusted only in that exact direction: a zero falls through to exact
division, so no result depends on the point.  Any other element takes
``poly.poly_gcd`` with N one copy at a time.  ``_reduced`` ends with
``poly.canonical_tail``, the tail of ``expression._normalize``.

The walk reads the table through ``_plan`` of F's dead-jet mask, built
once per mask and process: the terms that read no zero jet and their
distinct keys.  Each key's integers, exponents over the base, product of
one-term jet powers and list of multi-term jet powers are read once per
request.  A term is then one ``poly.add_product`` of one-term dicts into
a group keyed by its exponents over the base and then by its multi-term
jets; each inner group is multiplied by its multi-term powers once, and
each exponent group by its base shift once.  Every product of term dicts
goes through ``poly.add_product``, so an exponent overflow raises there.  The
table decodes straight to ``poly`` monomials (``poly.monomial``), and the
residues read them through ``poly.factors``; no function here knows the
monomial layout.

This module and the table load on first use; ``import odecartan`` loads
neither.  They are loaded by ``OdeProblem.structure()``, which the
``inv`` stage calls only for an F outside the cubic family (a member
reads its pulled-back closed forms, ``cartan.family_structure``), and by
the generator and the tests.  A process that serves only family members
never loads them.  Loaded late, the module must bind no function that
``perfbench/spans.py`` wraps by name: it reads ``poly.poly_gcd`` on its
module, and builds ``Expression``s rather than calling ``_normalize``;
``add_product`` and ``canonical_tail`` are not wrapped.
"""

import json
import os
import random
from functools import cache, lru_cache
from math import gcd, lcm

from . import poly
from .cartan import OdeProblem, StructureFunctions, structure_functions
from .errors import StructureConsistencyError
from .expression import Expression
from .poly import Poly, _primitive_poly, add_product, canonical_tail, factors, monomial
from .symbols import J2_CHART, P_CHART, Sym

# Name of the opaque right-hand side G'(x, y, p, q) whose invariants
# ``generic_structure`` holds: ``SymbolTable.declare`` never accepts it.
GENERIC_RHS = "G'"

_TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "generic_structure.py")

_TABLE_HEADER = '''"""Structure invariants a..s of the third-order ODE whose right-hand side
is G'(x, y, p, q), with G' opaque.

Generated by ``odecartan.invariant_table.write_generic_table``, which
builds the invariant coframe of G' and verifies all ninety structure
pattern slots; do not edit.  ``TABLE`` is JSON: ``symbols`` lists the six
coordinates of the P chart, then the derivative index of each jet of G'
(``""`` for G' itself).  Each invariant is ``num / den``, and each term of
either is ``[coefficient, symbol, exponent, symbol, exponent, ...]``,
symbols by position in ``symbols``.  Every ``den`` is a monomial in alpha
and G'_qq.
"""

TABLE = r"""'''


def write_generic_table(path=_TABLE_PATH):
    """Derive a..s of y''' = G'(x, y, p, q), with G' opaque, on the chart
    and write them to ``path`` as the module ``generic_structure``; return
    its text.  ``structure_functions`` verifies all ninety pattern slots on
    the way, and its StructureConsistencyError propagates.  Putting a
    request's jets in is a ring homomorphism only if every denominator is
    a monomial in alpha and G'_qq (F_qq ≠ 0 is checked first), so anything
    else is refused too."""
    g = Sym(GENERIC_RHS, J2_CHART.coords)
    sf = structure_functions(OdeProblem(Expression.from_sym(g, J2_CHART)).coframe())
    jets = sorted({s for v in sf for s in v.symbols() if not s.is_coordinate})
    position = {s: i for i, s in enumerate([P_CHART.sym(c) for c in P_CHART.coords] + jets)}
    allowed = {P_CHART.sym("alpha"), g.derived("q").derived("q")}

    def terms(p):
        return [[c, *(n for s, e, _ in factors(m) for n in (position[s], e))]
                for m, c in p.sorted_terms()]

    entries = []
    for name, v in sf._asdict().items():
        if len(v.den) != 1 or not v.den.symbols() <= allowed:
            raise StructureConsistencyError(
                f"the denominator of {name} is not a monomial in alpha and G'_qq"
            )
        num = ",\n".join(json.dumps(t) for t in terms(v.num))
        entries.append(f'"{name}": {{"den": {json.dumps(terms(v.den)[0])}, "num": [\n{num}]}}')
    symbols = list(P_CHART.coords) + ["".join(s.index) for s in jets]
    text = (
        _TABLE_HEADER
        + f'{{"symbols": {json.dumps(symbols)},\n"invariants": {{\n'
        + ",\n".join(entries)
        + '}}"""\n'
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def coprime_base(polys):
    """Pairwise coprime primitive polynomials, each with a positive leading
    coefficient, of which every one of ``polys`` is an integer times a
    product of powers (see ``factor_over``): factor refinement (Bach,
    Driscoll and Shallit, "Factor refinement", J. Algorithms 1993).  An
    element that shares a factor g with a base element b is replaced, with
    b, by b/g, g and itself over g; the total degree drops at every split.
    ``factored_jets`` builds one base per F, over F's denominator, its GCDs
    with its derivatives and the parts of F_q and F_qq; every jet's
    denominator is a product of powers of its elements."""
    base = []
    todo = list(dict.fromkeys(p for p in polys if not p.is_const))
    while todo:
        f = todo.pop()
        if f.is_const:
            continue
        f = _primitive_poly(f)
        if f in base:
            continue
        for i, b in enumerate(base):
            g = poly.poly_gcd(f, b)
            if not g.is_const:
                del base[i]
                todo += [b.exact_div(g), g, f.exact_div(g)]
                break
        else:
            base.append(f)
    return base


def factor_over(p, base, points=None):
    """(c, [e_1, ...]) with p = c * Π base_i^e_i, c an int; p must factor
    over ``base`` (from ``coprime_base`` of a list holding p).  ``points``
    holds each element's ``_certificate`` (None where it has none), so
    that an element that does not divide p is ruled out without a failed
    division.  Raises ValueError for a zero p or a constant base element,
    whose powers never stop dividing."""
    if p.is_zero or any(b.is_const for b in base):
        raise ValueError("only a nonzero polynomial factors over nonconstant elements")
    exponents = []
    for b, point in zip(base, points or [None] * len(base)):
        e = 0
        while (q := _quotient(p, b, point)) is not None:
            p, e = q, e + 1
        exponents.append(e)
    if not p.is_const:
        raise ValueError("polynomial does not factor over the base")
    return p.const_value(), exponents


# Divisibility certificates evaluate modulo this Mersenne prime.
_PRIME = (1 << 61) - 1


@cache
def _value(sym):
    """``sym``'s coordinate at every certificate's point, drawn from a
    generator seeded by ``Sym.key``: it never depends on the hash seed."""
    return random.Random(repr(sym.key)).randrange(1, _PRIME)


def _residue(p, point):
    """p modulo ``_PRIME`` at ``point``, a dict from ``Sym`` to value; a
    symbol it lacks takes ``_value``.  ``point`` also keeps the value of
    each monomial and symbol power read, keyed by the monomial."""
    total = 0
    for mono, c in p.terms.items():
        x = point.get(mono)
        if x is None:
            x = 1
            for s, e, part in factors(mono):
                y = point.get(part)
                if y is None:
                    y = point[part] = pow(point[s] if s in point else _value(s), e, _PRIME)
                x = x * y % _PRIME
            point[mono] = x
        total += c * x % _PRIME
    return total % _PRIME


def _certificate(b):
    """A point of b = 0 modulo ``_PRIME`` when b = c1·v + c0, v the first
    symbol in ``Sym.key`` order of degree 1 in b, with c1 and c0 coprime:
    then b is irreducible (Gauss's lemma), and a nonzero value of N at the
    point proves b ∤ N (if b | N, N vanishes wherever b does).  None for
    any other b, or when c1 vanishes at the point.  A b of degree 1 in v
    whose coefficients share a factor is reducible, as (p+x+y)(p+x+y-2q)
    is in q, and gets None."""
    v = min((s for s in b.symbols() if s not in b.deriv(s).symbols()), default=None)
    if v is None:
        return None
    c1 = b.deriv(v)
    c0 = b - c1.mul_mono(monomial(((v, 1),)))
    if not (c1.is_const or (c0.is_const and not c0.is_zero) or poly.poly_gcd(c1, c0).is_const):
        return None
    point = {}
    lead = _residue(c1, point)
    if not lead:
        return None
    point[v] = -_residue(c0, point) * pow(lead, -1, _PRIME) % _PRIME
    return point


def _quotient(N, b, point):
    """N / b when the base element b divides N, else None.  ``point`` is
    b's ``_certificate``: a nonzero residue of N there proves b ∤ N with no
    division, and only a zero falls through to ``exact_div``, so the
    certificate is trusted only in its exact direction.  With no point,
    N is trial-divided."""
    if point is not None and _residue(N, point):
        return None
    return N.exact_div(b)


def _reduced(num, coeff, alpha_power, base, points, exponents, power):
    """num / (coeff · alpha^alpha_power · Π base_i^exponents_i) as a
    canonical ``Expression`` on the P chart, with no GCD of the whole
    fraction: the base is pairwise coprime, so the GCD is Π gcd(num,
    b^E).  A certified element (``_certificate``) is irreducible and is
    divided out while ``_quotient`` finds it; any other element takes
    ``poly.poly_gcd(num, b)`` one copy at a time, and stops at the first
    constant GCD.  ``power(i, k)`` is base_i^k.  ``poly.canonical_tail``,
    which ends ``_normalize`` too, then takes out the monomial content
    (alpha and any monomial element in one pass) and the integer content,
    and fixes the sign."""
    if num.is_zero:
        return Expression(num, Poly.const(1), P_CHART, _normalized=True)
    den = Poly({monomial(((P_CHART.sym("alpha"), alpha_power),)): coeff})
    for i, e in enumerate(exponents):
        b, point = base[i], points[i]
        if len(b) == 1:
            pass  # a monomial element is left to the monomial content
        elif point is not None:
            while e and (q := _quotient(num, b, point)) is not None:
                num, e = q, e - 1
        else:
            while e and not (g := poly.poly_gcd(num, b)).is_const:
                num, den, e = num.exact_div(g), den * b.exact_div(g), e - 1
        if e:
            den = den * power(i, e)
    return Expression(*canonical_tail(num, den), P_CHART, _normalized=True)


def _add_chain(out, terms, factors):
    """Add ``terms`` · Π ``factors`` (``Poly`` term dicts, at least one
    factor) into the term dict ``out`` by ``poly.add_product``, the last
    factor straight into ``out``; return ``out``."""
    for f in factors[:-1]:
        terms = add_product({}, terms, f)
    return add_product(out, terms, factors[-1])


@cache
def _generic_table():
    """``generic_structure.TABLE`` decoded once per process: the jet
    indices of G', the position of G'_qq among them, and for each
    invariant its denominator's constant, its power of alpha and its
    numerator terms ``(coefficient, monomial in the coordinates, jets,
    mask)``, the monomial built by ``poly.monomial``.  ``jets`` is a tuple
    of (jet position, exponent); G'_qq's power in the denominator is
    folded into it as a negative exponent.  ``mask`` has bit j set for
    each jet position j that ``jets`` reads."""
    from .generic_structure import TABLE

    data = json.loads(TABLE)
    names = data["symbols"]
    ncoord = P_CHART.dim
    coords = [P_CHART.sym(c) for c in names[:ncoord]]
    indices = [tuple(i) for i in names[ncoord:]]
    qq = indices.index(("q", "q"))
    alpha = names.index("alpha")
    shared = {}  # one tuple per distinct value: the table stays resident

    def share(value):
        return shared.setdefault(value, value)

    decoded = {}  # (power of G'_qq in den, term's symbols) -> (monomial, jets)
    table = {}
    for name, entry in data["invariants"].items():
        den = dict(zip(entry["den"][1::2], entry["den"][2::2]))
        shift = den.get(qq + ncoord, 0)
        terms = []
        for coeff, *symbols in entry["num"]:
            key = (shift, *symbols)
            hit = decoded.get(key)
            if hit is None:
                mono, jets = [], {qq: -shift}
                for s, e in zip(symbols[::2], symbols[1::2]):
                    if s < ncoord:
                        mono.append((coords[s], e))
                    else:
                        jets[s - ncoord] = jets.get(s - ncoord, 0) + e
                jets = share(tuple(sorted(share(je) for je in jets.items() if je[1])))
                hit = decoded[key] = (monomial(mono), jets, sum(1 << j for j, _ in jets))
            terms.append((coeff, *hit))
        table[name] = (entry["den"][0], den.get(alpha, 0), terms)
    return indices, qq, table


@lru_cache(maxsize=24)
def _plan(dead):
    """The table's live terms for the dead-jet mask ``dead`` (bit j set
    where jet j is zero), built once per mask and process and shared by
    every caller, so it holds only tuples: ``(keys, invariants)``.  ``keys``
    lists each distinct live key once, as (power of G'_qq, the other (jet,
    power) pairs).  ``invariants`` holds (name, denominator constant, power
    of alpha, the indices in ``keys`` its terms read, its terms
    ``(coefficient, monomial, index in keys)``) per invariant; the terms
    are those of the table with ``mask & dead == 0``, in table order.
    A plan kept 8 KB for the pole shape (71 keys, 125 terms) and 102 KB
    with no jet dead (473 keys, 787 terms; tracemalloc), so the cache keeps
    at most 24 plans, under 2.5 MB."""
    qq, table = _generic_table()[1:]
    index, invariants = {}, []
    for name, (den_coeff, alpha_power, terms) in table.items():
        live = tuple((coeff, mono, index.setdefault(key, len(index)))
                     for coeff, mono, key, mask in terms if not mask & dead)
        used = tuple(dict.fromkeys(k for *_, k in live))
        invariants.append((name, den_coeff, alpha_power, used, live))
    keys = tuple((dict(key).get(qq, 0), tuple(p for p in key if p[0] != qq)) for key in index)
    return keys, tuple(invariants)


def factored_jets(prob, indices):
    """(base, points, jets, (cn, cd, v)) for the ``OdeProblem`` ``prob``,
    with no GCD per jet and no derivative of F: F, F_q and F_qq ≠ 0 are
    read from ``prob``.  ``base`` is coprime over F's denominator D, gcd(D,
    ∂_z D) for each coordinate z where ∂_z D is not constant (the split of
    D's repeated factors and of factors that read z from those that do
    not), F_q's and F_qq's denominators and F_qq's numerator: the base of
    the reduced denominators of F, its first derivatives and F_qq.
    ``points[i]`` is base_i's ``_certificate``, derived once here;
    ``jets[i]`` is None where the jet along ``indices[i]`` is zero, else
    (N, c, e) with that jet N / (c · Π base_j^e_j); F_qq = cn/cd · Π
    base_j^v_j.  Every other jet comes from its parent by the quotient
    rule, raising only exponents of base elements with a nonzero
    derivative; N then loses each base element of positive exponent while
    it divides N, and shares no content with c.  A jet whose last index is
    a coordinate that no symbol of F reads (``Sym.reads``) is zero with no
    step, since derivatives commute.  A certified element that does not
    divide N is ruled out by one evaluation (``_quotient``), never by a
    failed division."""
    F, fqq, D = prob.F, prob.Fqq, prob.F.den
    reads = {a for s in F.symbols() for a in s.reads}
    dD = [F._total_deriv_poly(D, z) for z in "xypq" if z in reads]
    base = coprime_base([D, *(poly.poly_gcd(D, d) for d in dD if not d.is_const),
                         prob.Fq.den, fqq.den, fqq.num])
    points = [_certificate(b) for b in base]
    memo = {i: (r.num, *factor_over(r.den, base, points))
            for i, r in {(): F, ("q",): prob.Fq, ("q", "q"): fqq}.items()}
    slope = cache(lambda i, z: F._total_deriv_poly(base[i], z))

    def step(N, c, e, z):
        num, done, e = F._total_deriv_poly(N, z), Poly.const(1), list(e)
        for i, k in enumerate(e):
            if k and not slope(i, z).is_zero:
                # d(N/(c·Π b^e)) = (N' - N·Σ e_i b_i'/b_i) / (c·Π b^e)
                num = num * base[i] - N * (Poly.const(k) * slope(i, z) * done)
                done, e[i] = done * base[i], k + 1
        if num.is_zero:
            return None
        for i, k in enumerate(e):
            while k and (quotient := _quotient(num, base[i], points[i])) is not None:
                num, k = quotient, k - 1
            e[i] = k
        g = gcd(num.content(), c)
        return num.div_int(g), c // g, e

    def jet(index):
        if index not in memo:
            parent = jet(index[:-1]) if index[-1] in reads else None
            memo[index] = parent and step(*parent, index[-1])
        return memo[index]

    (cn, en), (_, cd, ed) = factor_over(fqq.num, base, points), memo["q", "q"]
    return base, points, [jet(i) for i in indices], (cn, cd, [a - b for a, b in zip(en, ed)])


def structure_from_jets(prob):
    """a..s of the ``OdeProblem`` ``prob`` from ``generic_structure``, with
    no coframe: each jet of G' becomes F's jet in the form of
    ``factored_jets`` and F_qq a monomial over the base.  The terms that
    read no zero jet come from ``_plan`` of the dead-jet mask.  Each of
    its keys is read once per request: the integers n and d, the exponents
    v over the base, the product of its one-term jet powers as one term,
    and its multi-term jet powers.  Each invariant scales its terms to one
    integer ``lcm`` of the d, and adds each term, one ``poly.add_product``
    of one-term dicts, into a group keyed by v and then by the multi-term
    (jet, power) pairs.  Each inner group is multiplied by its multi-term
    powers once, each v group by its base shift to the least exponents
    once, and ``_reduced`` reduces the sum over the base: a certified base
    element leaves the denominator only where exact division proves it
    divides, and is ruled out by one evaluation elsewhere; no GCD of the
    whole fraction is taken."""
    indices, _, _ = _generic_table()
    base, points, jets, (cn, cd, vqq) = factored_jets(prob, indices)
    keys, invariants = _plan(sum(1 << j for j, jet in enumerate(jets) if jet is None))
    power = cache(lambda i, k: base[i] ** k)
    jet_power = cache(lambda j, k: jets[j][0] ** k)
    per_key = []
    for kqq, pairs in keys:
        n, d = (cn, cd) if kqq > 0 else (cd, cn)
        n, d, v, one, several = n ** abs(kqq), d ** abs(kqq), [kqq * e for e in vqq], {}, []
        for j, k in pairs:
            N, c, e = jets[j]
            d *= c**k
            for i, ei in enumerate(e):
                v[i] -= k * ei
            if len(N.terms) > 1:
                several.append((j, k))
            else:
                term = jet_power(j, k).terms
                one = add_product({}, one, term) if one else term
        per_key.append((n, d, tuple(v), one or {0: 1}, tuple(several)))

    values = {}
    for name, den_coeff, alpha_power, used, terms in invariants:
        scale = lcm(*(per_key[k][1] for k in used))
        least = tuple(map(min, zip(*(per_key[k][2] for k in used))))
        num, groups, into = {}, {}, {}
        for k in used:
            n, d, v, one, several = per_key[k]
            group = groups.setdefault(v, {(): num if v == least else {}})
            into[k] = group.setdefault(several, {}), n * (scale // d), one
        for coeff, mono, k in terms:
            target, factor, one = into[k]
            add_product(target, {mono: coeff * factor}, one)
        for v, group in groups.items():
            total = group[()]
            for several, inner in group.items():
                if inner is not total:
                    _add_chain(total, inner,
                               sorted((jet_power(j, k).terms for j, k in several), key=len))
            if total is not num:
                _add_chain(num, total, [power(i, e - m).terms
                                        for i, (e, m) in enumerate(zip(v, least)) if e != m])
        raised = [power(i, m).terms for i, m in enumerate(least) if m > 0]
        if raised:
            num = _add_chain({}, num, raised)
        values[name] = _reduced(Poly(num), den_coeff * scale, alpha_power, base, points,
                                [max(-m, 0) for m in least], power)
    return StructureFunctions(**values)
