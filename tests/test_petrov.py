"""Exact Petrov classification on the Hodge eigenspaces."""

import random
from fractions import Fraction

import pytest

from odecartan import SymbolTable
from odecartan.cartan import family_detect
from odecartan.curvature import curvature_tensors, family_metric
from odecartan.errors import PetrovDegeneracyError
from odecartan.petrov import (
    PAIRS,
    classify_at_point,
    classify_traceless,
    eigenspace_basis,
    identity,
    mat_is_zero,
    mat_mul,
    mat_sub,
    weyl_operator_at,
)
from tests.conftest import make_problem

POINTS = [
    {"x": Fraction(2), "y": Fraction(3), "z": Fraction(5, 2), "t": Fraction(7, 3)},
    {"x": Fraction(-1), "y": Fraction(4), "z": Fraction(1, 3), "t": Fraction(9, 5)},
    {"x": Fraction(5, 7), "y": Fraction(-2), "z": Fraction(3), "t": Fraction(-1, 2)},
    {"x": Fraction(11, 3), "y": Fraction(1, 5), "z": Fraction(-4), "t": Fraction(6)},
    {"x": Fraction(-3, 2), "y": Fraction(8, 3), "z": Fraction(2, 7), "t": Fraction(13, 4)},
]


def family_setup(text):
    fd = family_detect(make_problem(text))
    metric = family_metric(fd)
    return metric, curvature_tensors(metric)


def F(*args):
    return [[Fraction(v) for v in row] for row in args]


class TestBlockClassifier:
    def test_zero_matrix(self):
        assert classify_traceless(F([0, 0, 0], [0, 0, 0], [0, 0, 0])) == "O"

    def test_distinct_real_roots(self):
        assert classify_traceless(F([1, 0, 0], [0, 2, 0], [0, 0, -3])) == "I"

    def test_complex_pair_counts_as_distinct(self):
        # eigenvalues i, -i, 0: distinct over the algebraic closure
        assert classify_traceless(F([0, -1, 0], [1, 0, 0], [0, 0, 0])) == "I"

    def test_diagonalizable_double_root(self):
        assert classify_traceless(F([1, 0, 0], [0, 1, 0], [0, 0, -2])) == "D"

    def test_nondiagonalizable_double_root(self):
        assert classify_traceless(F([1, 1, 0], [0, 1, 0], [0, 0, -2])) == "II"

    def test_triple_root_full_jordan(self):
        assert classify_traceless(F([0, 1, 0], [0, 0, 1], [0, 0, 0])) == "III"

    def test_triple_root_minimal_degree_two(self):
        assert classify_traceless(F([0, 1, 0], [0, 0, 0], [0, 0, 0])) == "N"

    def test_trace_check(self):
        with pytest.raises(PetrovDegeneracyError):
            classify_traceless(F([1, 0, 0], [0, 1, 0], [0, 0, 1]))


def reference_weyl_operator(metric, tensors, point):
    """The Weyl endomorphism on 2-forms from all 256 evaluated components."""
    ginv = metric.evaluate_inverse(point)
    weyl = [
        [
            [[tensors.weyl_down[i][j][k][l].evaluate(point) for l in range(4)] for k in range(4)]
            for j in range(4)
        ]
        for i in range(4)
    ]
    return [
        [
            sum(
                (weyl[a][b][m][n] * ginv[m][c] * ginv[n][d] for m in range(4) for n in range(4)),
                Fraction(0),
            )
            for c, d in PAIRS
        ]
        for a, b in PAIRS
    ]


class TestWeylOperator:
    def test_matches_full_evaluation_at_seeded_points(self):
        metric, tensors = family_setup("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        rng = random.Random(7)
        for _ in range(5):
            point = {
                c: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for c in ("x", "y", "z", "t")
            }
            weyl_op, _ = weyl_operator_at(metric, tensors, point)
            assert not mat_is_zero(weyl_op)
            assert weyl_op == reference_weyl_operator(metric, tensors, point)


class TestHodgeStar:
    def test_star_squares_to_plus_one(self):
        metric, tensors = family_setup("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        for point in POINTS[:3]:
            _, star = weyl_operator_at(metric, tensors, point)
            assert mat_is_zero(mat_sub(mat_mul(star, star), identity(6)))

    def test_eigenspaces_are_three_dimensional(self):
        metric, tensors = family_setup("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        _, star = weyl_operator_at(metric, tensors, POINTS[0])
        for sign in (1, -1):
            basis = eigenspace_basis(star, sign)
            assert len(basis) == 6 and len(basis[0]) == 3

    def test_blocks_are_trace_free(self):
        from odecartan.petrov import restrict_operator

        metric, tensors = family_setup("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        weyl_op, star = weyl_operator_at(metric, tensors, POINTS[0])
        for sign in (1, -1):
            block = restrict_operator(weyl_op, eigenspace_basis(star, sign))
            assert sum(block[i][i] for i in range(3)) == 0


class TestClassification:
    def test_generic_coefficients_give_two_and_d(self):
        metric, tensors = family_setup("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        results = [classify_at_point(metric, tensors, pt) for pt in POINTS]
        assert all(r.unordered == frozenset(("II", "D")) for r in results)
        d_sides = {("plus" if r.label_plus == "D" else "minus") for r in results}
        assert len(d_sides) == 1  # the D factor stays on one eigenspace

    def test_separable_coefficients_give_d_plus_d(self):
        metric, tensors = family_setup("3/2*q^2/p + y^2*p^3 + x^2*p")
        for pt in POINTS:
            r = classify_at_point(metric, tensors, pt)
            assert (r.label_plus, r.label_minus) == ("D", "D")

    def test_zero_coefficients_give_d_plus_d(self):
        metric, tensors = family_setup("3/2*q^2/p")
        for pt in POINTS:
            r = classify_at_point(metric, tensors, pt)
            assert (r.label_plus, r.label_minus) == ("D", "D")

    def test_conformally_flat_block_metric_is_o_plus_o(self):
        from odecartan.curvature import Metric4
        from odecartan import Expression, METRIC_CHART

        table = SymbolTable()
        zero = Expression.number(0, METRIC_CHART, table)
        one = Expression.number(1, METRIC_CHART, table)
        g = [[zero for _ in range(4)] for _ in range(4)]
        g[0][3] = g[3][0] = one
        g[1][2] = g[2][1] = one
        metric = Metric4(g, table)
        tensors = curvature_tensors(metric)
        r = classify_at_point(metric, tensors, POINTS[0])
        assert (r.label_plus, r.label_minus) == ("O", "O")

    def test_label_stability_across_points(self):
        metric, tensors = family_setup("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        labels = {
            (r.label_plus, r.label_minus)
            for r in (classify_at_point(metric, tensors, pt) for pt in POINTS)
        }
        assert len(labels) == 1

    def test_unassigned_symbol_rejected(self, family_data):
        metric = family_metric(family_data)  # still opaque
        tensors = curvature_tensors(metric)
        with pytest.raises(PetrovDegeneracyError):
            classify_at_point(metric, tensors, POINTS[0])
