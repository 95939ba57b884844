"""Quotient metric, curvature tensors, the Einstein identity."""

from fractions import Fraction

import pytest

from odecartan import Expression, METRIC_CHART, SymbolTable, parse_expression
from odecartan.cartan import family_detect
from odecartan.errors import SingularEvaluationError
from odecartan.curvature import (
    Metric4,
    curvature_tensors,
    einstein_residual,
    family_metric,
    metric_from_family,
)
from tests.conftest import make_problem
from tests.oracles import first_bianchi_residuals, signature_at, weyl_trace_residuals

DIM = 4


def flat_block_metric():
    zero = Expression.number(0, METRIC_CHART)
    one = Expression.number(1, METRIC_CHART)
    g = [[zero for _ in range(DIM)] for _ in range(DIM)]
    g[0][3] = g[3][0] = one
    g[1][2] = g[2][1] = one
    return Metric4(g)


class TestMetric:
    def test_zero_coefficient_specialization(self):
        fd = family_detect(make_problem("3/2*q^2/p"))
        metric = family_metric(fd)
        z = Expression.coordinate("z", METRIC_CHART)
        t = Expression.coordinate("t", METRIC_CHART)
        assert metric.g[0][0] == -(t * t)
        assert metric.g[1][1] == -(z * z)
        assert metric.g[0][3] == 1 and metric.g[1][2] == 1

    def test_determinant_is_one_with_opaque_coefficients(self, family_data):
        assert curvature_tensors(family_metric(family_data)).det == 1

    def test_signature_split(self, family_data):
        metric = family_metric(family_data)
        point = {"x": 1, "y": 2, "z": Fraction(1, 3), "t": 4, "A": 5, "B": Fraction(-2, 7)}
        assert signature_at(metric, point) == (2, 2)

    def test_signature_of_a_constant_metric(self):
        table = SymbolTable()
        rows = [[2, 1, 0, 0], [1, -1, 0, 0], [0, 0, 3, 1], [0, 0, 1, 1]]
        g = [[Expression.number(v, METRIC_CHART) for v in row] for row in rows]
        # leading minors 2, -3, -9, -6: one sign change
        assert signature_at(Metric4(g), {}) == (3, 1)

    @pytest.mark.parametrize(
        "point",
        [
            {"x": 1, "y": 2, "z": 1, "t": 2, "A": 3, "B": -2},  # g_00 = 0
            {"x": 1, "y": 2, "z": 2, "t": 1, "A": 2, "B": 3},  # 2x2 leading minor 0
        ],
    )
    def test_signature_needs_nonzero_leading_minors(self, family_data, point):
        metric = family_metric(family_data)
        with pytest.raises(SingularEvaluationError, match="leading principal minor vanishes"):
            signature_at(metric, point)

    def test_projectability(self, family_metric_tensors):
        _, projectability, _ = family_metric_tensors
        assert projectability.projects
        assert all(r.is_zero for r in projectability.vertical_residuals)
        assert all(r.is_zero for r in projectability.invariance_residuals)
        assert all(r.is_zero for r in projectability.match_residuals)

    def test_symmetry_enforced(self):
        table = SymbolTable()
        zero = Expression.number(0, METRIC_CHART)
        one = Expression.number(1, METRIC_CHART)
        g = [[zero for _ in range(DIM)] for _ in range(DIM)]
        g[0][1] = one  # no matching g[1][0]
        g[0][3] = g[3][0] = one
        g[1][2] = g[2][1] = one
        from odecartan import ChartError

        with pytest.raises(ChartError):
            Metric4(g)


class TestCurvature:
    def test_flat_block_metric_is_flat(self):
        table = SymbolTable()
        metric = flat_block_metric()
        tensors = curvature_tensors(metric)
        assert all(
            tensors.riemann_up[i][j][k][l].is_zero
            for i in range(DIM)
            for j in range(DIM)
            for k in range(DIM)
            for l in range(DIM)
        )
        assert tensors.scalar.is_zero

    def test_flat_block_metric_is_not_einstein_at_minus_one(self):
        table = SymbolTable()
        metric = flat_block_metric()
        tensors = curvature_tensors(metric)
        residual = einstein_residual(metric, tensors)
        # Ric + G = G for the curvature-free metric
        assert all(
            (residual[i][j] - metric.g[i][j]).is_zero for i in range(DIM) for j in range(DIM)
        )
        assert any(not residual[i][j].is_zero for i in range(DIM) for j in range(DIM))

    def test_family_einstein_identity_with_opaque_coefficients(self, family_metric_tensors):
        metric, _, tensors = family_metric_tensors
        residual = einstein_residual(metric, tensors)
        assert all(residual[i][j].is_zero for i in range(DIM) for j in range(DIM))

    def test_scalar_curvature_is_minus_four(self, family_metric_tensors):
        _, _, tensors = family_metric_tensors
        assert tensors.scalar == -4

    def test_specialized_family_is_einstein(self):
        fd = family_detect(make_problem("3/2*q^2/p + x*y*p^3 + (x+y)*p"))
        metric = family_metric(fd)
        tensors = curvature_tensors(metric)
        residual = einstein_residual(metric, tensors)
        assert all(residual[i][j].is_zero for i in range(DIM) for j in range(DIM))

    def test_riemann_antisymmetry_last_pair(self, family_metric_tensors):
        _, _, tensors = family_metric_tensors
        for i in range(DIM):
            for j in range(DIM):
                for k in range(DIM):
                    for l in range(DIM):
                        assert (
                            tensors.riemann_down[i][j][k][l]
                            + tensors.riemann_down[i][j][l][k]
                        ).is_zero

    def test_first_bianchi(self, family_metric_tensors):
        _, _, tensors = family_metric_tensors
        assert all(r.is_zero for r in first_bianchi_residuals(tensors))

    def test_ricci_symmetric(self, family_metric_tensors):
        _, _, tensors = family_metric_tensors
        for i in range(DIM):
            for j in range(DIM):
                assert (tensors.ricci[i][j] - tensors.ricci[j][i]).is_zero

    def test_weyl_totally_trace_free(self, family_metric_tensors):
        _, _, tensors = family_metric_tensors
        assert all(r.is_zero for r in weyl_trace_residuals(tensors))

    def test_einstein_implies_scalar_minus_four(self):
        # two independent specializations of the identity
        for text in ("3/2*q^2/p + y^2*p^3 + x^2*p", "3/2*q^2/p"):
            fd = family_detect(make_problem(text))
            metric = family_metric(fd)
            tensors = curvature_tensors(metric)
            residual = einstein_residual(metric, tensors)
            assert all(residual[i][j].is_zero for i in range(DIM) for j in range(DIM))
            assert tensors.scalar == -4

    def test_christoffel_symmetry(self, family_metric_tensors):
        _, _, tensors = family_metric_tensors
        for i in range(DIM):
            for j in range(DIM):
                for k in range(DIM):
                    assert (
                        tensors.christoffel[i][j][k] - tensors.christoffel[i][k][j]
                    ).is_zero
