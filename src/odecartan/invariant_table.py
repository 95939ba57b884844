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
from functools import cache
from math import gcd, lcm
from operator import add

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
    b, by b/g, g and itself over g; the total degree drops at every split.
    ``factored_jets`` builds one base per F, over seven polynomials; every
    jet's denominator is a product of powers of its elements."""
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
    over ``base`` (from ``coprime_base`` of a list holding p).  Raises
    ValueError for a zero p or a constant base element, whose powers never
    stop dividing."""
    if p.is_zero or any(b.is_const for b in base):
        raise ValueError("only a nonzero polynomial factors over nonconstant elements")
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
    numerator terms ``(coefficient, monomial in the coordinates, jets,
    mask)``.  ``jets`` is a tuple of (jet position, exponent); G'_qq's
    power in the denominator is folded into it as a negative exponent.
    ``mask`` has bit j set for each jet position j that ``jets`` reads."""
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
                hit = decoded[key] = (share(tuple(mono)), jets, sum(1 << j for j, _ in jets))
            terms.append((coeff, *hit))
        table[name] = (entry["den"][0], den.get(alpha, 0), terms)
    return indices, qq, table


def factored_jets(F, indices):
    """(base, jets, (cn, cd, v)) for F with F_qq ≠ 0, with no GCD per jet:
    ``base`` is coprime over the reduced denominators of F, F_x, F_y, F_p,
    F_q and F_qq and F_qq's numerator; ``jets[i]`` is None where the jet
    along ``indices[i]`` is zero, else (N, c, e) with that jet N / (c · Π
    base_j^e_j); F_qq = cn/cd · Π base_j^v_j.  Every jet past those six
    comes from its parent by the quotient rule, raising only exponents of
    base elements with a nonzero derivative; N is then trial-divided by
    the base elements of positive exponent and shares no content with c."""
    F = F.on_chart(J2_CHART)
    reduced = {(): F, **{(z,): F.differentiate(z) for z in J2_CHART.coords}}
    fqq = reduced["q", "q"] = reduced["q",].differentiate("q")
    if fqq.is_zero:
        raise DegenerateOdeError("F_qq is identically zero")
    base = coprime_base([r.den for r in reduced.values()] + [fqq.num])
    memo = {i: None if r.is_zero else (r.num, *factor_over(r.den, base))
            for i, r in reduced.items()}
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
            while k and (quotient := num.exact_div(base[i])) is not None:
                num, k = quotient, k - 1
            e[i] = k
        g = gcd(num.content(), c)
        return num.div_int(g), c // g, e

    def jet(index):
        if index not in memo:
            parent = jet(index[:-1])
            memo[index] = parent and step(*parent, index[-1])
        return memo[index]

    (cn, en), (_, cd, ed) = factor_over(fqq.num, base), memo["q", "q"]
    return base, [jet(i) for i in indices], (cn, cd, [a - b for a, b in zip(en, ed)])


def structure_from_jets(F):
    """a..s of y''' = F (F_qq ≠ 0) from ``generic_structure``, with no
    coframe: each jet of G' becomes F's jet in the form of ``factored_jets``
    and F_qq a monomial over the base.  Each invariant skips a term that
    reads a zero jet (``mask``), reads each (jet, power) pair's integers,
    exponents over the base and ``Poly`` power once per request, sums the
    terms that share exponents over one integer ``lcm``, brings each sum to
    the least exponents, multiplies numerators as ``Poly`` with no GCD,
    and reduces once."""
    indices, qq, table = _generic_table()
    base, jets, (cn, cd, vqq) = factored_jets(F, indices)
    power = cache(lambda i, k: base[i] ** k)

    @cache
    def part(j, k):
        if j == qq:
            n, d = (cn, cd) if k > 0 else (cd, cn)
            return n ** abs(k), d ** abs(k), tuple(k * v for v in vqq), None
        N, c, e = jets[j]
        return 1, c**k, tuple(-k * v for v in e), N**k

    alpha = P_CHART.sym("alpha")
    zero = (0,) * len(base)
    dead = sum(1 << j for j, jet in enumerate(jets) if jet is None)
    values = {}
    for name, (den_coeff, alpha_power, terms) in table.items():
        by_exponents = {}
        for coeff, mono, key, mask in terms:
            if not mask & dead:
                n, d, v, factors = coeff, 1, zero, []
                for j, k in key:
                    pn, pd, pv, pp = part(j, k)
                    n, d, v = n * pn, d * pd, tuple(map(add, v, pv))
                    if pp is not None:
                        factors.append(pp)
                by_exponents.setdefault(v, []).append((n, d, mono, factors))
        least = [min((v[i] for v in by_exponents), default=0) for i in range(len(base))]
        scale = lcm(*(d for group in by_exponents.values() for _, d, _, _ in group))
        num = Poly.zero()
        for v, group in by_exponents.items():
            total = Poly.zero()
            for n, d, mono, factors in group:
                product = Poly({mono: n * (scale // d)})
                for f in sorted(factors, key=len):
                    product = product * f
                total = total + product
            for i, (e, m) in enumerate(zip(v, least)):
                if e != m:
                    total = total * power(i, e - m)
            num = num + total
        den = Poly.const(den_coeff * scale).mul_mono(((alpha, alpha_power),) if alpha_power else ())
        for i, m in enumerate(least):
            if m > 0:
                num = num * power(i, m)
            elif m < 0:
                den = den * power(i, -m)
        values[name] = Expression(num, den, P_CHART)
    return StructureFunctions(**values)
