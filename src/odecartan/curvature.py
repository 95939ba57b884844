"""Tensor calculus on the 4-manifold quotient.

Index conventions, frozen here and validated by the tests against the
structure-equation picture:

    Christoffel   G^i_jk = 1/2 g^il (d_j g_lk + d_k g_lj - d_l g_jk)
    Riemann       R^i_jkl = d_k G^i_lj - d_l G^i_kj + G^i_km G^m_lj - G^i_lm G^m_kj
    Ricci         Ric_ij = R^k_ikj
    Weyl          trace correction with 1/2 and 1/6 in four dimensions

The quotient metric of the cubic family is split signature with unit
determinant, Einstein with cosmological constant -1, and it projects from
the 6-space.  These are identities in A, B, C, verified once per process
on ``cartan.generic_family`` (opaque A', B', C'): ``metric_from_family``
and ``curvature_tensors`` of that member hold every member's values
(``report._generic_evidence``).
"""

from collections import namedtuple
from fractions import Fraction

from .cartan import HALF, to_adapted
from .errors import ChartError
from .expression import Expression
from .linalg import invert_matrix
from .symbols import METRIC_CHART, M_ADAPTED_CHART

DIM = 4


class Metric4:
    """Symmetric metric on the chart (x, y, z, t); ``curvature_tensors``
    inverts it."""

    __slots__ = ("g",)

    def __init__(self, components):
        for i in range(DIM):
            for j in range(DIM):
                if not (components[i][j] - components[j][i]).is_zero:
                    raise ChartError("metric components must be symmetric")
        self.g = [[components[i][j] for j in range(DIM)] for i in range(DIM)]


def family_metric(fd):
    """The quotient metric of the cubic family on (x, y, z, t),
    G = -(t^2 + 2B) dx^2 + 2 dt dx + (2A - z^2) dy^2 + 2 dz dy;
    the quadratic coefficient C drops out entirely.  A request reads it
    once per process, on ``generic_family()``, and puts its member's jets
    in (``report._generic_closed_forms``).  Built once per ``fd.problem``
    and kept on it: callers must not mutate it."""

    def build():
        A, B, _ = fd.coefficients_on(METRIC_CHART)
        z, t = (Expression.coordinate(c, METRIC_CHART) for c in "zt")
        zero, one = (Expression.number(v, METRIC_CHART) for v in (0, 1))
        g = [[zero for _ in range(DIM)] for _ in range(DIM)]
        g[0][0] = -(t * t + 2 * B)
        g[0][3] = g[3][0] = one
        g[1][1] = 2 * A - z * z
        g[1][2] = g[2][1] = one
        return Metric4(g)

    return fd.problem._memo("family_metric", build)


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
    axes = range(M_ADAPTED_CHART.dim)
    zero = Expression.number(0, M_ADAPTED_CHART)
    t1, t2, t3, t4 = ([f.comps.get((a,), zero) for a in axes] for f in adapted_tau(fd.problem)[:4])
    return [[t1[a] * t2[b] + t2[a] * t1[b] + t3[a] * t4[b] + t4[a] * t3[b] for b in axes] for a in axes]


def adapted_tau(prob):
    """Tau basis pulled over to the chart (x, y, z, t, alpha, p), cached."""
    return prob._memo("adapted_tau", lambda: tuple(to_adapted(f) for f in prob.tau()))


def metric_from_family(fd):
    """Displayed quotient metric plus the projectability evidence."""
    gt = tilde_metric_components(fd)
    metric = family_metric(fd)
    axes = range(M_ADAPTED_CHART.dim)
    vertical = (M_ADAPTED_CHART.axis("alpha"), M_ADAPTED_CHART.axis("p"))
    report = ProjectabilityReport(
        tuple(gt[a][b] for a in axes for b in axes if a in vertical or b in vertical),
        tuple(gt[a][b].differentiate(c) for a in axes for b in axes[a:] for c in ("alpha", "p")),
        tuple(
            gt[i][j] - metric.g[i][j].on_chart(M_ADAPTED_CHART) for i in range(DIM) for j in range(DIM)
        ),
    )
    return metric, report


CurvatureTensors = namedtuple(
    "CurvatureTensors", "ginv det christoffel riemann_up riemann_down ricci scalar weyl_down"
)
CurvatureTensors.__doc__ = """The inverse metric ginv[i][j] (a list of rows) and the determinant
of g; nested tuples indexed as christoffel[i][j][k] (upper, lower, lower;
symmetric in j, k), riemann_up[i][j][k][l], riemann_down[i][j][k][l],
ricci[i][j] and weyl_down[i][j][k][l]; the scalar curvature is an
Expression."""


def curvature_tensors(metric):
    """Raises DegenerateCoframeError if det g is identically zero."""
    g = metric.g
    ginv, det = invert_matrix(g)
    zero = Expression.number(0, METRIC_CHART)
    coords = METRIC_CHART.coords

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
        ginv=ginv,
        det=det,
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


def einstein_residual(metric, tensors):
    """Ric_ij - Lambda g_ij at the cosmological constant Lambda = -1;
    identically zero for the family metrics."""
    return tuple(
        tuple(tensors.ricci[i][j] + metric.g[i][j] for j in range(DIM)) for i in range(DIM)
    )
