"""Shared fixtures.

The expensive symbolic pipelines (coframe construction, structure-function
extraction, curvature of the opaque-coefficient metric) are session-scoped
so the whole suite pays for them once.
"""

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from odecartan import J2_CHART, Chart, Expression, SymbolTable, parse_expression
from odecartan.cartan import OdeProblem, family_detect

# The CLI tests start child interpreters; they import odecartan from this
# checkout as the test process does (``pythonpath`` in pyproject.toml).
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

FAMILY_TEXT = "3/2*q^2/p + A(x,y)*p^3 + C(x,y)*p^2 + B(x,y)*p"
FAMILY_OPAQUE = {"A": ("x", "y"), "B": ("x", "y"), "C": ("x", "y")}
# the chart of the family coefficients, for sampling them
XY_CHART = Chart("XY", ("x", "y"))


def make_problem(text, declare=()):
    table = SymbolTable()
    for name in declare:
        table.declare(name, ("x", "y"))
    return OdeProblem(parse_expression(text, J2_CHART, table))


@pytest.fixture(scope="session")
def flat_problem():
    return make_problem("3/2*q^2/p")


@pytest.fixture(scope="session")
def family_problem():
    return make_problem(FAMILY_TEXT, declare=("A", "B", "C"))


@pytest.fixture(scope="session")
def family_data(family_problem):
    return family_detect(family_problem)


@pytest.fixture(scope="session")
def qcube_problem():
    return make_problem("q^3 + y*p")


@pytest.fixture(scope="session")
def family_metric_tensors(family_data):
    from odecartan.curvature import curvature_tensors, metric_from_family

    metric, projectability = metric_from_family(family_data)
    tensors = curvature_tensors(metric)
    return metric, projectability, tensors


class ExpressionSampler:
    """Seeded random expressions from the input grammar, for property tests."""

    def __init__(self, chart, seed, opaque=()):
        self.chart = chart
        self.rng = random.Random(seed)
        self.opaque = tuple(opaque)

    def leaf(self):
        choice = self.rng.randrange(6)
        if choice == 0:
            return Expression.number(
                Fraction(self.rng.randint(-5, 5), self.rng.randint(1, 4)),
                self.chart,
            )
        if choice == 1 and self.opaque:
            return Expression.from_sym(
                self.rng.choice(self.opaque), self.chart
            )
        name = self.rng.choice(self.chart.coords)
        return Expression.coordinate(name, self.chart)

    def expression(self, depth=3):
        if depth == 0:
            return self.leaf()
        op = self.rng.randrange(5)
        if op == 0:
            return self.expression(depth - 1) + self.expression(depth - 1)
        if op == 1:
            return self.expression(depth - 1) - self.expression(depth - 1)
        if op == 2:
            return self.expression(depth - 1) * self.expression(depth - 1)
        if op == 3:
            denominator = self.expression(depth - 1)
            if denominator.is_zero:
                denominator = denominator + 1
            return self.expression(depth - 1) / denominator
        return self.expression(depth - 1) ** self.rng.randint(0, 2)


@pytest.fixture()
def sampler():
    def build(seed, chart=J2_CHART, opaque_names=()):
        table = SymbolTable()
        opaque = tuple(table.declare(n, ("x", "y")) for n in opaque_names)
        return ExpressionSampler(chart, seed, opaque)

    return build
