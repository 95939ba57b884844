"""Exterior algebra of differential forms on a chart.

A form of degree k stores a sparse map from strictly increasing k-tuples
of coordinate positions to Expression coefficients; zero coefficients are
never stored, so equal forms have equal component tables.  Degree 0 forms
use the empty tuple as their single key.
"""

from bisect import bisect_left
from fractions import Fraction

from .errors import ChartError, DegenerateCoframeError
from .expression import Expression
from .linalg import invert_matrix


def is_zero(c):
    """Whether a coefficient vanishes: an int, a Fraction or an Expression."""
    return c.is_zero if isinstance(c, Expression) else not c


def add_term(acc, key, term):
    """acc[key] += term: a zero term is not stored, and a key whose sum cancels is dropped."""
    if not is_zero(term):
        total = acc[key] + term if key in acc else term
        if is_zero(total):
            del acc[key]
        else:
            acc[key] = total


def wedge_key(i1, i2):
    """Sign and merged tuple for dx^{i1} ∧ dx^{i2} (each tuple strictly
    increasing), or None if they share an index."""
    sign = 1
    out = list(i1)
    for axis in i2:
        lo = bisect_left(out, axis)
        if lo < len(out) and out[lo] == axis:
            return None
        if (len(out) - lo) & 1:
            sign = -sign
        out.insert(lo, axis)
    return sign, tuple(out)


def add_wedge(acc, i1, i2, c, *factors):
    """acc += c · Π factors · dx^{i1} ∧ dx^{i2}: the product is formed only
    when the tuples share no index, and is negated or stored only if nonzero."""
    merged = wedge_key(i1, i2)
    if merged is None:
        return
    sign, key = merged
    for f in factors:
        c = c * f
    if not is_zero(c):
        add_term(acc, key, c if sign > 0 else -c)


class DifferentialForm:
    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart, degree, comps, _clean=False):
        if not 0 <= degree <= chart.dim:
            raise ChartError(f"degree {degree} out of range on chart {chart.name}")
        if not _clean:
            comps = {idx: c for idx, c in comps.items() if not c.is_zero}
        self.chart = chart
        self.degree = degree
        self.comps = comps

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, chart, degree):
        return cls(chart, degree, {}, _clean=True)

    @classmethod
    def scalar(cls, expr):
        return cls(expr.chart, 0, {(): expr})

    @classmethod
    def d_coord(cls, chart, coord):
        one = Expression.number(1, chart)
        return cls(chart, 1, {(chart.axis(coord),): one}, _clean=True)

    # -- helpers ----------------------------------------------------------

    def _check_mate(self, other):
        if self.chart is not other.chart:
            raise ChartError("forms on different charts")
        if self.degree != other.degree:
            raise ChartError("forms of different degree")

    @property
    def is_zero(self):
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return (self - other).is_zero

    __hash__ = None  # mutable-looking container; keep forms unhashable

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        self._check_mate(other)
        comps = dict(self.comps)
        for idx, c in other.comps.items():
            add_term(comps, idx, c)
        return DifferentialForm(self.chart, self.degree, comps, _clean=True)

    def __neg__(self):
        return DifferentialForm(
            self.chart, self.degree,
            {idx: -c for idx, c in self.comps.items()}, _clean=True,
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        if isinstance(factor, (int, Fraction)):
            factor = Expression.number(factor, self.chart)
        if factor.is_zero:
            return DifferentialForm.zero(self.chart, self.degree)
        return DifferentialForm(
            self.chart, self.degree,
            {idx: c * factor for idx, c in self.comps.items()},
        )

    # -- graded products ------------------------------------------------------

    def wedge(self, other):
        if self.chart is not other.chart:
            raise ChartError("forms on different charts")
        degree = self.degree + other.degree
        if degree > self.chart.dim:
            raise ChartError("wedge degree exceeds chart dimension")
        comps = {}
        for i1, c1 in self.comps.items():
            for i2, c2 in other.comps.items():
                add_wedge(comps, i1, i2, c1, c2)
        return DifferentialForm(self.chart, degree, comps, _clean=True)

    def exterior_derivative(self):
        if self.degree >= self.chart.dim:
            raise ChartError("exterior derivative exceeds chart dimension")
        comps = {}
        for idx, c in self.comps.items():
            for axis, coord in enumerate(self.chart.coords):
                if axis not in idx:  # dx^axis ∧ dx^idx would vanish
                    add_wedge(comps, (axis,), idx, c.differentiate(coord))
        return DifferentialForm(self.chart, self.degree + 1, comps, _clean=True)

    def pullback(self, mapping, target):
        """Pull back along the map sending this chart's coordinates to the
        given expressions on ``target`` (missing entries default to the
        same-named coordinate).  The map must be generically invertible;
        validity is the caller's concern (see ``change_chart``)."""
        images = _chart_images(self.chart, mapping, target)
        differentials = {
            coord: DifferentialForm.scalar(images[coord]).exterior_derivative()
            for coord in self.chart.coords
        }
        out = DifferentialForm.zero(target, self.degree)
        for idx, c in self.comps.items():
            coeff = c.substitute(images, target)
            if coeff.is_zero:
                continue
            term = DifferentialForm.scalar(coeff)
            for axis in idx:
                term = term.wedge(differentials[self.chart.coords[axis]])
            out = out + term
        return out

    def render(self):
        """The terms "(coefficient) dx^dy" joined by " + ", or "0"."""
        if not self.comps:
            return "0"
        bits = []
        for idx in sorted(self.comps):
            names = "^".join(f"d{self.chart.coords[a]}" for a in idx) or "1"
            bits.append(f"({self.comps[idx].render()}) {names}")
        return " + ".join(bits)

    def __repr__(self):
        return f"Form({self.render()})"


def _chart_images(source, mapping, target):
    """The image on ``target`` of each coordinate of ``source`` under a
    chart map: an unmapped coordinate goes to the same-named one, an int or
    a Fraction to a constant, an Expression to itself."""
    images = {}
    for coord in source.coords:
        image = mapping.get(coord)
        if image is None:
            image = Expression.coordinate(coord, target)
        elif isinstance(image, (int, Fraction)):
            image = Expression.number(image, target)
        images[coord] = image
    return images


def change_chart(form, mapping, target):
    """Pullback with a symbolic check that the map is generically
    invertible: it must preserve dimension and have a
    not-identically-zero Jacobian."""
    if form.chart.dim != target.dim:
        raise ChartError("chart map must preserve dimension")
    images = _chart_images(form.chart, mapping, target)
    rows = [[images[coord].differentiate(c) for c in target.coords] for coord in form.chart.coords]
    try:
        invert_matrix(rows)
    except DegenerateCoframeError:
        raise ChartError("chart map is identically singular") from None
    return form.pullback(images, target)


def pair_minors(vectors):
    """For each pair i < j of sparse vectors a = vectors[i], b = vectors[j]
    (lists of ``(index, value)``, zero values left out), the nonzero 2x2
    minors ``{(k, l): a_k b_l - a_l b_k}`` over k < l."""
    out = {}
    for i, a in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            row = {}
            for k, x in a:
                for l, y in vectors[j]:
                    add_wedge(row, (k,), (l,), x, y)
            out[(i, j)] = row
    return out


def wedge_sum(forms, coeffs):
    """Σ c · forms[i] ∧ forms[j] over the ``{(i, j): c}`` entries."""
    first = forms[0]
    out = DifferentialForm.zero(first.chart, 2)
    for (i, j), c in coeffs.items():
        if isinstance(c, (int, Fraction)):
            c = Expression.number(c, first.chart)
        if c.is_zero:
            continue
        out = out + forms[i].wedge(forms[j]).scale(c)
    return out


class Coframe:
    """An ordered set of n independent 1-forms on an n-dimensional chart.

    The coefficient matrix and its inverse over the rational-function
    field are computed once at construction; everything downstream
    (expansions, dual frame, frame derivatives) reads the cache.  The 2x2
    minors of the inverse, which every 2-form expansion reads, are built
    on the first expansion and kept.
    """

    __slots__ = ("chart", "forms", "matrix", "inverse", "det", "_minors")

    def __init__(self, forms):
        chart = forms[0].chart
        if len(forms) != chart.dim:
            raise DegenerateCoframeError("coframe needs one form per dimension")
        for f in forms:
            if f.degree != 1 or f.chart is not chart:
                raise DegenerateCoframeError("coframe entries must be 1-forms on one chart")
        self.chart = chart
        self.forms = tuple(forms)
        zero = Expression.number(0, chart)
        self.matrix = [
            [f.comps.get((j,), zero) for j in range(chart.dim)] for f in self.forms
        ]
        self.inverse, self.det = invert_matrix(self.matrix)
        self._minors = None

    @property
    def dim(self):
        return self.chart.dim

    def frame_vector(self, i):
        """Components of the i-th dual frame vector in the coordinate basis."""
        return [self.inverse[j][i] for j in range(self.dim)]

    def frame_derivatives(self, scalar):
        """Directional derivatives of a scalar along every dual frame
        vector; each coordinate partial is taken once."""
        if scalar.chart is not self.chart:
            raise ChartError("scalar lives on a different chart")
        partials = [(j, scalar.differentiate(c)) for j, c in enumerate(self.chart.coords)]
        partials = [(j, ds) for j, ds in partials if not ds.is_zero]
        out = []
        for i in range(self.dim):
            acc = Expression.number(0, self.chart)
            for j, ds in partials:
                if not self.inverse[j][i].is_zero:
                    acc = acc + self.inverse[j][i] * ds
            out.append(acc)
        return out

    def _pair_minors(self):
        """{(i, j): {(k, l): frame_i^k frame_j^l - frame_i^l frame_j^k}} for
        i < j, k < l, with zero minors left out."""
        if self._minors is None:
            self._minors = pair_minors([
                [(k, e) for k, e in enumerate(self.frame_vector(i)) if not e.is_zero]
                for i in range(self.dim)
            ])
        return self._minors

    def expand_2(self, form):
        """Coefficients c with form = Σ_{i<j} c[(i,j)] · coframe_i ∧ coframe_j."""
        if form.degree != 2 or form.chart is not self.chart:
            raise ChartError("expected a 2-form on the coframe chart")
        zero = Expression.number(0, self.chart)
        out = {}
        for slot, row in self._pair_minors().items():
            acc = zero
            for idx, w in form.comps.items():
                pair = row.get(idx)
                if pair is not None:
                    acc = acc + w * pair
            out[slot] = acc
        return out
