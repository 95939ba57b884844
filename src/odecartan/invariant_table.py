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

This module and the table load on first use; ``import odecartan`` loads
neither.  They are loaded by ``OdeProblem.structure()``, which the
``inv`` stage calls only for an F outside the cubic family (a member
reads its pulled-back closed forms, ``cartan.family_structure``), and by
the generator and the tests.  A process that serves only family members
never loads them.  Loaded late, the module must bind no function that
``perfbench/spans.py`` wraps by name: it reads ``poly.poly_gcd`` on its
module, and builds ``Expression``s rather than calling ``_normalize``.
"""

import json
import os
from fractions import Fraction
from functools import cache
from math import lcm

from . import poly
from .cartan import OdeProblem, StructureFunctions, structure_functions
from .errors import DegenerateOdeError, StructureConsistencyError
from .expression import Expression
from .poly import Poly, _primitive_poly
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
        return [[c, *(n for s, e in m for n in (position[s], e))] for m, c in p.sorted_terms()]

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
    b, by b/g, g and itself over g; the total degree drops at every split."""
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


def factor_over(p, base):
    """(c, [e_1, ...]) with p = c * Π base_i^e_i, c an int; p must factor
    over ``base`` (from ``coprime_base`` of a list holding p)."""
    exponents = []
    for b in base:
        e = 0
        q = p.exact_div(b)
        while q is not None:
            p, e = q, e + 1
            q = p.exact_div(b)
        exponents.append(e)
    if not p.is_const:
        raise ValueError("polynomial does not factor over the base")
    return p.const_value(), exponents


@cache
def _generic_table():
    """``generic_structure.TABLE`` decoded once per process: the jet
    indices of G', the position of G'_qq among them, and for each
    invariant its denominator's constant, its power of alpha and its
    numerator terms ``(coefficient, monomial in the coordinates, jets)``.
    ``jets`` is a tuple of (jet position, exponent); G'_qq's power in the
    denominator is folded into it as a negative exponent."""
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
                hit = decoded[key] = (share(tuple(mono)), jets)
            terms.append((coeff, *hit))
        table[name] = (entry["den"][0], den.get(alpha, 0), terms)
    return indices, qq, table


def structure_from_jets(F):
    """a..s of y''' = F (F_qq ≠ 0) from ``generic_structure``, with no
    coframe: each jet of G' becomes F differentiated along its index.

    The jet denominators, with the numerator of F_qq, get a coprime base
    (``coprime_base``), so a jet is r · P · Π b^v: a rational r, a
    polynomial P (1 for F_qq, which the denominators hold) and integer
    exponents v over the base.  Each invariant skips a term that holds a
    zero jet, sums the terms that share their exponents v, brings each
    sum to the least exponents over the base, multiplies numerators as
    ``Poly`` with no GCD, and reduces once.
    """
    indices, qq, table = _generic_table()
    derived = {(): F.on_chart(J2_CHART)}

    def jet(index):
        if index not in derived:
            derived[index] = jet(index[:-1]).differentiate(index[-1])
        return derived[index]

    jets = [jet(i) for i in indices]
    if jets[qq].is_zero:
        raise DegenerateOdeError("F_qq is identically zero")
    polys = [j.den for j in jets if not j.is_zero] + [jets[qq].num]
    base = coprime_base(polys)
    factored = {p: factor_over(p, base) for p in dict.fromkeys(polys)}

    def part(j):
        c, e = factored[j.den]
        return j.num, Fraction(1, c), [-k for k in e]

    parts = [None if j.is_zero else part(j) for j in jets]
    (cn, en), (cd, ed) = factored[jets[qq].num], factored[jets[qq].den]
    parts[qq] = (None, Fraction(cn, cd), [a - b for a, b in zip(en, ed)])

    powers = {}

    def power(f, k):
        key = (id(f), k)
        if key not in powers:
            powers[key] = f ** k
        return powers[key]

    alpha = P_CHART.sym("alpha")
    values = {}
    for name, (den_coeff, alpha_power, terms) in table.items():
        by_exponents = {}
        for coeff, mono, key in terms:
            if all(parts[j] is not None for j, _ in key):
                r, v, factors = Fraction(coeff), [0] * len(base), []
                for j, k in key:
                    pj, rj, vj = parts[j]
                    r *= rj ** k
                    v = [a + k * b for a, b in zip(v, vj)]
                    if pj is not None:
                        factors.append(power(pj, k))
                by_exponents.setdefault(tuple(v), []).append((r, mono, factors))
        least = [min((v[i] for v in by_exponents), default=0) for i in range(len(base))]
        scale = lcm(*(r.denominator for group in by_exponents.values() for r, _, _ in group))
        num = Poly.zero()
        for v, group in by_exponents.items():
            total = Poly.zero()
            for r, mono, factors in group:
                product = Poly({mono: r.numerator * (scale // r.denominator)})
                for f in sorted(factors, key=len):
                    product = product * f
                total = total + product
            for b, e, m in zip(base, v, least):
                total = total * power(b, e - m)
            num = num + total
        den = Poly.const(den_coeff * scale).mul_mono(((alpha, alpha_power),) if alpha_power else ())
        for b, m in zip(base, least):
            if m > 0:
                num = num * power(b, m)
            else:
                den = den * power(b, -m)
        values[name] = Expression(num, den, P_CHART)
    return StructureFunctions(**values)
