"""Tensor calculus on the 4-manifold quotient.

Index conventions, frozen here and validated by the tests against the
structure-equation picture:

    Christoffel   G^i_jk = 1/2 g^il (d_j g_lk + d_k g_lj - d_l g_jk)
    Riemann       R^i_jkl = d_k G^i_lj - d_l G^i_kj + G^i_km G^m_lj - G^i_lm G^m_kj
    Ricci         Ric_ij = R^k_ikj
    Weyl          trace correction with 1/2 and 1/6 in four dimensions

The quotient metric of the cubic family is split signature with unit
determinant, Einstein with cosmological constant -1.  ``family_geometry``
builds that metric, its tensors and its Einstein residual once per
process, with A and B the opaque functions A'(x, y) and B'(x, y); every
member's values follow from them by putting in its own A and B.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache

from .cartan import HALF, adapted_chart_map
from .errors import ChartError
from .expression import Expression
from .linalg import invert_matrix
from .symbols import METRIC_CHART, M_ADAPTED_CHART, Sym, SymbolTable

DIM = 4


class Metric4:
    """Symmetric nondegenerate metric on the chart (x, y, z, t)."""

    __slots__ = ("chart", "table", "g", "ginv", "det")

    def __init__(self, components, table):
        chart = METRIC_CHART
        for i in range(DIM):
            for j in range(DIM):
                if not (components[i][j] - components[j][i]).is_zero:
                    raise ChartError("metric components must be symmetric")
        self.chart = chart
        self.table = table
        self.g = [[components[i][j] for j in range(DIM)] for i in range(DIM)]
        self.ginv, self.det = invert_matrix(self.g)


def _metric(A, B, table):
    """G = -(t^2 + 2B) dx^2 + 2 dt dx + (2A - z^2) dy^2 + 2 dz dy on
    (x, y, z, t), for A and B on that chart."""
    chart = METRIC_CHART
    z = Expression.coordinate("z", chart, table)
    t = Expression.coordinate("t", chart, table)
    zero = Expression.number(0, chart, table)
    one = Expression.number(1, chart, table)
    g = [[zero for _ in range(DIM)] for _ in range(DIM)]
    g[0][0] = -(t * t + 2 * B)
    g[0][3] = g[3][0] = one
    g[1][1] = 2 * A - z * z
    g[1][2] = g[2][1] = one
    return Metric4(g, table)


def family_metric(fd):
    """The quotient metric of the cubic family on (x, y, z, t);
    the quadratic coefficient C drops out entirely."""
    A, B, _ = fd.coefficients_on(METRIC_CHART)
    return _metric(A, B, fd.problem.table)


# Names of the opaque A and B in ``family_geometry``: ``SymbolTable.declare``
# never accepts them, so they cannot meet a request's own functions.
GENERIC_COEFFICIENTS = ("A'", "B'")


@cache
def family_geometry():
    """(metric, curvature tensors, Einstein residual) of the family metric
    with A and B the opaque functions A'(x, y) and B'(x, y).

    det G = 1, so g^-1 and every tensor are polynomials in z, t and the
    jets of A' and B'.  Putting in a member's A, B and their derivatives is
    a ring homomorphism: the residual is every member's, and the tensors at
    a point extended with the jets' values are the member's values there.
    Built on first use and shared for the life of the process: callers must
    not mutate it."""
    table = SymbolTable()
    A, B = (
        Expression.from_sym(Sym(name, ("x", "y")), METRIC_CHART, table)
        for name in GENERIC_COEFFICIENTS
    )
    metric = _metric(A, B, table)
    tensors = curvature_tensors(metric)
    return metric, tensors, einstein_residual(metric, tensors)


class ProjectabilityReport(
    namedtuple("ProjectabilityReport", "vertical_residuals invariance_residuals match_residuals")
):
    """Evidence that the degenerate bilinear form on the 6-space descends
    to the displayed quotient metric: its components along d(alpha) and
    d(p), the alpha- and p-derivatives of all its components, and its 4x4
    block minus the displayed metric."""

    __slots__ = ()

    @property
    def projects(self):
        return all(
            r.is_zero
            for group in (self.vertical_residuals, self.invariance_residuals, self.match_residuals)
            for r in group
        )


def tilde_metric_components(fd):
    """The bilinear form 2 tau1 tau2 + 2 tau3 tau4 on the adapted 6-chart."""
    prob = fd.problem
    tau = adapted_tau(prob)
    n = M_ADAPTED_CHART.dim
    zero = Expression.number(0, M_ADAPTED_CHART, prob.table)

    def comp(form, axis):
        return form.comps.get((axis,), zero)

    t1, t2, t3, t4 = tau[:4]
    out = [[zero for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[a][b] = (
                comp(t1, a) * comp(t2, b)
                + comp(t2, a) * comp(t1, b)
                + comp(t3, a) * comp(t4, b)
                + comp(t4, a) * comp(t3, b)
            )
    return out


def adapted_tau(prob):
    """Tau basis pulled over to the chart (x, y, z, t, alpha, p), cached."""

    def build():
        mapping = adapted_chart_map(prob.table)
        return tuple(f.pullback(mapping, M_ADAPTED_CHART) for f in prob.tau())

    return prob._memo("adapted_tau", build)


def metric_from_family(fd):
    """Displayed quotient metric plus the projectability evidence."""
    prob = fd.problem
    table = prob.table
    gt = tilde_metric_components(fd)
    n = M_ADAPTED_CHART.dim
    vertical_axes = (M_ADAPTED_CHART.axis("alpha"), M_ADAPTED_CHART.axis("p"))

    vertical = []
    for a in range(n):
        for b in range(n):
            if a in vertical_axes or b in vertical_axes:
                vertical.append(gt[a][b])
    invariance = []
    for a in range(n):
        for b in range(a, n):
            invariance.append(gt[a][b].differentiate("alpha"))
            invariance.append(gt[a][b].differentiate("p"))

    metric = family_metric(fd)
    match = []
    for i in range(DIM):
        for j in range(DIM):
            displayed = metric.g[i][j].on_chart(M_ADAPTED_CHART)
            match.append(gt[i][j] - displayed)

    report = ProjectabilityReport(tuple(vertical), tuple(invariance), tuple(match))
    return metric, report


CurvatureTensors = namedtuple(
    "CurvatureTensors", "christoffel riemann_up riemann_down ricci scalar weyl_down"
)
CurvatureTensors.__doc__ = """Nested tuples indexed as christoffel[i][j][k] (upper, lower, lower;
symmetric in j, k), riemann_up[i][j][k][l], riemann_down[i][j][k][l],
ricci[i][j] and weyl_down[i][j][k][l]; the scalar curvature is an
Expression."""


def curvature_tensors(metric):
    g = metric.g
    ginv = metric.ginv
    zero = Expression.number(0, metric.chart, metric.table)
    coords = metric.chart.coords

    dg = [
        [[g[i][j].differentiate(coords[k]) for k in range(DIM)] for j in range(DIM)]
        for i in range(DIM)
    ]

    chr_ = [[[zero for _ in range(DIM)] for _ in range(DIM)] for _ in range(DIM)]
    for i in range(DIM):
        for j in range(DIM):
            for k in range(j, DIM):
                acc = zero
                for l in range(DIM):
                    if ginv[i][l].is_zero:
                        continue
                    acc = acc + ginv[i][l] * (dg[l][k][j] + dg[l][j][k] - dg[j][k][l])
                val = HALF * acc
                chr_[i][j][k] = val
                chr_[i][k][j] = val

    dchr = [
        [
            [[chr_[i][j][k].differentiate(coords[m]) for m in range(DIM)] for k in range(DIM)]
            for j in range(DIM)
        ]
        for i in range(DIM)
    ]

    riem = [[[[zero for _ in range(DIM)] for _ in range(DIM)] for _ in range(DIM)] for _ in range(DIM)]
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                for l in range(k + 1, DIM):
                    acc = dchr[i][l][j][k] - dchr[i][k][j][l]
                    for m in range(DIM):
                        acc = acc + chr_[i][k][m] * chr_[m][l][j] - chr_[i][l][m] * chr_[m][k][j]
                    riem[i][j][k][l] = acc
                    riem[i][j][l][k] = -acc

    riem_down = [
        [
            [
                [
                    sum((g[i][m] * riem[m][j][k][l] for m in range(DIM) if not g[i][m].is_zero), zero)
                    for l in range(DIM)
                ]
                for k in range(DIM)
            ]
            for j in range(DIM)
        ]
        for i in range(DIM)
    ]

    ricci = [[zero for _ in range(DIM)] for _ in range(DIM)]
    for i in range(DIM):
        for j in range(DIM):
            acc = zero
            for k in range(DIM):
                acc = acc + riem[k][i][k][j]
            ricci[i][j] = acc

    scalar = zero
    for i in range(DIM):
        for j in range(DIM):
            if not ginv[i][j].is_zero:
                scalar = scalar + ginv[i][j] * ricci[i][j]

    weyl = [[[[zero for _ in range(DIM)] for _ in range(DIM)] for _ in range(DIM)] for _ in range(DIM)]
    sixth_scalar = scalar * Fraction(1, 6)
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                for l in range(k + 1, DIM):
                    acc = (
                        riem_down[i][j][k][l]
                        - HALF
                        * (
                            g[i][k] * ricci[j][l]
                            - g[i][l] * ricci[j][k]
                            + g[j][l] * ricci[i][k]
                            - g[j][k] * ricci[i][l]
                        )
                        + sixth_scalar * (g[i][k] * g[j][l] - g[i][l] * g[j][k])
                    )
                    weyl[i][j][k][l] = acc
                    weyl[i][j][l][k] = -acc

    return CurvatureTensors(
        christoffel=_freeze(chr_),
        riemann_up=_freeze(riem),
        riemann_down=_freeze(riem_down),
        ricci=_freeze(ricci),
        scalar=scalar,
        weyl_down=_freeze(weyl),
    )


def _freeze(nested):
    if isinstance(nested, list):
        return tuple(_freeze(x) for x in nested)
    return nested


def einstein_residual(metric, tensors, cosmological=Fraction(-1)):
    """Ric_ij - Lambda g_ij; identically zero for the family metrics at
    Lambda = -1."""
    return tuple(
        tuple(tensors.ricci[i][j] - cosmological * metric.g[i][j] for j in range(DIM))
        for i in range(DIM)
    )
