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


def _wedge_indices(i1, i2):
    """Sign and merged tuple for dx^{i1} ∧ dx^{i2}, or None if they collide."""
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


class DifferentialForm:
    __slots__ = ("chart", "table", "degree", "comps")

    def __init__(self, chart, table, degree, comps, _clean=False):
        if not 0 <= degree <= chart.dim:
            raise ChartError(f"degree {degree} out of range on chart {chart.name}")
        if not _clean:
            comps = {idx: c for idx, c in comps.items() if not c.is_zero}
        self.chart = chart
        self.table = table
        self.degree = degree
        self.comps = comps

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, chart, table, degree):
        return cls(chart, table, degree, {}, _clean=True)

    @classmethod
    def scalar(cls, expr):
        return cls(expr.chart, expr.table, 0, {(): expr})

    @classmethod
    def d_coord(cls, chart, table, coord):
        one = Expression.number(1, chart, table)
        return cls(chart, table, 1, {(chart.axis(coord),): one}, _clean=True)

    # -- helpers ----------------------------------------------------------

    def _check_mate(self, other):
        if self.chart is not other.chart:
            raise ChartError("forms on different charts")
        if self.degree != other.degree:
            raise ChartError("forms of different degree")

    @property
    def is_zero(self):
        return not self.comps

    def coefficient(self, *coords):
        idx = tuple(self.chart.axis(c) for c in coords)
        return self.comps.get(idx, Expression.number(0, self.chart, self.table))

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
            if idx in comps:
                s = comps[idx] + c
                if s.is_zero:
                    del comps[idx]
                else:
                    comps[idx] = s
            else:
                comps[idx] = c
        return DifferentialForm(self.chart, self.table, self.degree, comps, _clean=True)

    def __neg__(self):
        return DifferentialForm(
            self.chart, self.table, self.degree,
            {idx: -c for idx, c in self.comps.items()}, _clean=True,
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        if isinstance(factor, (int, Fraction)):
            factor = Expression.number(factor, self.chart, self.table)
        if factor.is_zero:
            return DifferentialForm.zero(self.chart, self.table, self.degree)
        return DifferentialForm(
            self.chart, self.table, self.degree,
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
                merged = _wedge_indices(i1, i2)
                if merged is None:
                    continue
                sign, idx = merged
                term = c1 * c2
                if sign < 0:
                    term = -term
                if idx in comps:
                    s = comps[idx] + term
                    if s.is_zero:
                        del comps[idx]
                    else:
                        comps[idx] = s
                else:
                    if not term.is_zero:
                        comps[idx] = term
        return DifferentialForm(self.chart, self.table, degree, comps, _clean=True)

    def exterior_derivative(self):
        if self.degree >= self.chart.dim:
            raise ChartError("exterior derivative exceeds chart dimension")
        comps = {}
        for idx, c in self.comps.items():
            for axis, coord in enumerate(self.chart.coords):
                dc = c.differentiate(coord)
                if dc.is_zero:
                    continue
                merged = _wedge_indices((axis,), idx)
                if merged is None:
                    continue
                sign, nidx = merged
                term = dc if sign > 0 else -dc
                if nidx in comps:
                    s = comps[nidx] + term
                    if s.is_zero:
                        del comps[nidx]
                    else:
                        comps[nidx] = s
                else:
                    comps[nidx] = term
        return DifferentialForm(self.chart, self.table, self.degree + 1, comps, _clean=True)

    def pullback(self, mapping, target):
        """Pull back along the map sending this chart's coordinates to the
        given expressions on ``target`` (missing entries default to the
        same-named coordinate).  The map must be generically invertible;
        validity is the caller's concern (see ``change_chart``)."""
        images = {}
        for coord in self.chart.coords:
            image = mapping.get(coord)
            if image is None:
                image = Expression.coordinate(coord, target, self.table)
            elif isinstance(image, (int, Fraction)):
                image = Expression.number(image, target, self.table)
            images[coord] = image
        differentials = {
            coord: DifferentialForm.scalar(images[coord]).exterior_derivative()
            for coord in self.chart.coords
        }
        subst = {c: images[c] for c in self.chart.coords}
        out = DifferentialForm.zero(target, self.table, self.degree)
        for idx, c in self.comps.items():
            coeff = c.substitute(subst, target)
            if coeff.is_zero:
                continue
            term = DifferentialForm.scalar(coeff)
            for axis in idx:
                term = term.wedge(differentials[self.chart.coords[axis]])
            out = out + term
        return out

    def __repr__(self):
        if not self.comps:
            return "Form(0)"
        bits = []
        for idx in sorted(self.comps):
            names = "^".join(f"d{self.chart.coords[a]}" for a in idx) or "1"
            bits.append(f"({self.comps[idx].render()}) {names}")
        return "Form(" + " + ".join(bits) + ")"


def change_chart(form, mapping, target):
    """Pullback with a symbolic check that the map is generically invertible."""
    jacobian_nonsingular(form.chart, mapping, target, form.table)
    return form.pullback(mapping, target)


def jacobian_nonsingular(source, mapping, target, table):
    """Raise unless the chart map has a not-identically-zero Jacobian."""
    if source.dim != target.dim:
        raise ChartError("chart map must preserve dimension")
    rows = []
    for coord in source.coords:
        image = mapping.get(coord)
        if image is None:
            image = Expression.coordinate(coord, target, table)
        elif isinstance(image, (int, Fraction)):
            image = Expression.number(image, target, table)
        rows.append([image.differentiate(c) for c in target.coords])
    try:
        invert_matrix(rows)
    except DegenerateCoframeError:
        raise ChartError("chart map is identically singular") from None


class Coframe:
    """An ordered set of n independent 1-forms on an n-dimensional chart.

    The coefficient matrix and its inverse over the rational-function
    field are computed once at construction; everything downstream
    (expansions, dual frame, frame derivatives) reads the cache.
    """

    __slots__ = ("chart", "table", "forms", "matrix", "inverse", "det")

    def __init__(self, forms):
        first = forms[0]
        chart = first.chart
        if len(forms) != chart.dim:
            raise DegenerateCoframeError("coframe needs one form per dimension")
        for f in forms:
            if f.degree != 1 or f.chart is not chart:
                raise DegenerateCoframeError("coframe entries must be 1-forms on one chart")
        self.chart = chart
        self.table = first.table
        self.forms = tuple(forms)
        zero = Expression.number(0, chart, self.table)
        self.matrix = [
            [f.comps.get((j,), zero) for j in range(chart.dim)] for f in self.forms
        ]
        self.inverse, self.det = invert_matrix(self.matrix)

    @property
    def dim(self):
        return self.chart.dim

    def frame_vector(self, i):
        """Components of the i-th dual frame vector in the coordinate basis."""
        return [self.inverse[j][i] for j in range(self.dim)]

    def frame_derivative(self, scalar, i):
        """Directional derivative of a scalar along the i-th dual frame vector."""
        if scalar.chart is not self.chart:
            raise ChartError("scalar lives on a different chart")
        acc = Expression.number(0, self.chart, self.table)
        for j, coord in enumerate(self.chart.coords):
            ds = scalar.differentiate(coord)
            if not ds.is_zero:
                acc = acc + self.inverse[j][i] * ds
        return acc

    def expand_1(self, form):
        """Coefficients c with form = Σ c_i · coframe_i."""
        if form.degree != 1 or form.chart is not self.chart:
            raise ChartError("expected a 1-form on the coframe chart")
        zero = Expression.number(0, self.chart, self.table)
        v = [form.comps.get((j,), zero) for j in range(self.dim)]
        return [
            sum((v[j] * self.inverse[j][i] for j in range(self.dim)), zero)
            for i in range(self.dim)
        ]

    def expand_2(self, form):
        """Coefficients c with form = Σ_{i<j} c[(i,j)] · coframe_i ∧ coframe_j."""
        if form.degree != 2 or form.chart is not self.chart:
            raise ChartError("expected a 2-form on the coframe chart")
        zero = Expression.number(0, self.chart, self.table)
        n = self.dim
        frames = [self.frame_vector(i) for i in range(n)]
        out = {}
        for i in range(n):
            for j in range(i + 1, n):
                acc = zero
                for (k, l), w in form.comps.items():
                    pair = frames[i][k] * frames[j][l] - frames[i][l] * frames[j][k]
                    acc = acc + w * pair
                out[(i, j)] = acc
        return out

    def reconstruct_2(self, coeffs):
        out = DifferentialForm.zero(self.chart, self.table, 2)
        for (i, j), c in coeffs.items():
            if isinstance(c, (int, Fraction)):
                c = Expression.number(c, self.chart, self.table)
            if c.is_zero:
                continue
            out = out + self.forms[i].wedge(self.forms[j]).scale(c)
        return out

    def duality_residuals(self):
        """Pairing coframe_i(frame_j) − δ_ij for every i, j."""
        from .linalg import identity_check

        return identity_check(self.matrix, self.inverse)
