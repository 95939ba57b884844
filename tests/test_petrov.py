"""Exact Petrov classification on the Hodge eigenspaces.

The program labels a point from a rule it derives once per tensors object
(``odecartan.petrov.label_rule``).  The 6x6 oracle of ``tests/oracles.py``,
the former point path, and the eigenspace oracle check it; sympy's Jordan
form checks the 6x6 oracle's classifier.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from odecartan import J2_CHART, METRIC_CHART, Expression, Sym, SymbolTable, parse_expression
from odecartan import petrov
from odecartan.cartan import GENERIC_COEFFICIENTS, FamilyData, family_detect
from odecartan.curvature import Metric4, curvature_tensors, family_metric, metric_from_family
from odecartan.errors import PetrovDegeneracyError
from odecartan.petrov import PAIRS, classify_at_point, hodge_operators, jet_expressions, label_rule
from odecartan.report import AnalysisRequest, _generic_evidence, analyze
from tests.conftest import FAMILY_OPAQUE, FAMILY_TEXT, XY_CHART, make_problem
from tests.oracles import (
    classify_traceless,
    eigenspace_basis,
    identity,
    mat_is_zero,
    mat_mul,
    point_labels,
    restrict_operator,
    specialised_sections,
    weyl_operator_at,
)

POINTS = [
    {"x": Fraction(2), "y": Fraction(3), "z": Fraction(5, 2), "t": Fraction(7, 3)},
    {"x": Fraction(-1), "y": Fraction(4), "z": Fraction(1, 3), "t": Fraction(9, 5)},
    {"x": Fraction(5, 7), "y": Fraction(-2), "z": Fraction(3), "t": Fraction(-1, 2)},
    {"x": Fraction(11, 3), "y": Fraction(1, 5), "z": Fraction(-4), "t": Fraction(6)},
    {"x": Fraction(-3, 2), "y": Fraction(8, 3), "z": Fraction(2, 7), "t": Fraction(13, 4)},
]


def family_setup(text):
    return curvature_tensors(family_metric(family_detect(make_problem(text))))


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


# trace-free 3x3 blocks, one of each Petrov type
TYPED_BLOCKS = {
    "O": F([0, 0, 0], [0, 0, 0], [0, 0, 0]),
    "I": F([1, 0, 0], [0, 2, 0], [0, 0, -3]),
    "II": F([1, 1, 0], [0, 1, 0], [0, 0, -2]),
    "D": F([1, 0, 0], [0, 1, 0], [0, 0, -2]),
    "III": F([0, 1, 0], [0, 0, 1], [0, 0, 0]),
    "N": F([0, 1, 0], [0, 0, 0], [0, 0, 0]),
}


def mat_add(a, b):
    return [[u + v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


def unipotent(entries, lower):
    """I + N, with N strictly lower (or upper) triangular filled row by row
    from ``entries``, and its inverse Σ_k (-N)^k (N is nilpotent)."""
    n = len(entries)
    nil = [[entries[i][j] if (j < i if lower else j > i) else 0 for j in range(n)] for i in range(n)]
    neg = [[-v for v in row] for row in nil]
    inverse, power = identity(n), identity(n)
    for _ in range(n - 1):
        power = mat_mul(power, neg)
        inverse = mat_add(inverse, power)
    return mat_add(identity(n), nil), inverse


def conjugate(m, lower, upper):
    """P m P^-1 for P = (I + L)(I + U) built by ``unipotent``."""
    l, l_inv = unipotent(lower, True)
    u, u_inv = unipotent(upper, False)
    p, p_inv = mat_mul(l, u), mat_mul(u_inv, l_inv)
    assert mat_mul(p, p_inv) == identity(len(m))
    return mat_mul(mat_mul(p, m), p_inv)


def padded(block, scale):
    """scale·block ⊕ 0_3 on Q^6, the shape W(I ± star) has in an
    eigenbasis of the star."""
    out = [[0] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            out[i][j] = scale * block[i][j]
    return out


FIXED_LOWER = [[Fraction((3 * i + j) % 5 - 2, j + 1) for j in range(6)] for i in range(6)]
FIXED_UPPER = [[Fraction((i + 2 * j) % 4 - 1, i + 2) for j in range(6)] for i in range(6)]


class TestSixBySixOperators:
    """W(I ± star) on the whole 6-space is similar to 2B ⊕ 0_3 for W's block B
    on one eigenspace; the classifier reads B's label off it."""

    @pytest.mark.parametrize("label", sorted(TYPED_BLOCKS))
    @pytest.mark.parametrize("scale", [Fraction(2), Fraction(-3, 7)])
    def test_conjugated_direct_sum_keeps_the_block_label(self, label, scale):
        x = conjugate(padded(TYPED_BLOCKS[label], scale), FIXED_LOWER, FIXED_UPPER)
        if label != "O":
            assert sum(1 for row in x for v in row if v) > 18  # no longer block-shaped
        assert classify_traceless(x) == label

    def test_trace_check_on_the_six_space(self):
        x = conjugate(padded(F([1, 0, 0], [0, 1, 0], [0, 0, 1]), 2), FIXED_LOWER, FIXED_UPPER)
        with pytest.raises(PetrovDegeneracyError):
            classify_traceless(x)


def jordan_label(block):
    """Petrov label of a trace-free 3x3 block from sympy's Jordan form."""
    sympy = pytest.importorskip("sympy")
    _, j = sympy.Matrix(block).jordan_form()
    roots = {j[i, i] for i in range(3)}
    chains = sum(1 for i in range(2) if j[i, i + 1] != 0)
    if len(roots) == 3:
        return "I"
    if len(roots) == 2:
        return "II" if chains else "D"
    return ("O", "N", "III")[chains]


_small = st.integers(-2, 2)


def _square(n):
    return st.lists(st.lists(_small, min_size=n, max_size=n), min_size=n, max_size=n)


@given(
    a=_small,
    b=_small,
    upper=st.lists(_small, min_size=3, max_size=3),
    inner=_square(3),
    outer=_square(6),
    scale=st.sampled_from([Fraction(2), Fraction(-1), Fraction(5, 3)]),
)
@settings(max_examples=80, deadline=None)
def test_labels_match_jordan_form_of_random_conjugates(a, b, upper, inner, outer, scale):
    """B = S T S^-1 for an upper triangular T with eigenvalues a, b, -a-b:
    the small range makes repeated roots and Jordan chains common.  S and
    the 6x6 conjugator take their strict lower and upper triangles from
    one drawn square each."""
    t = F([a, upper[0], upper[1]], [0, b, upper[2]], [0, 0, -a - b])
    block = conjugate(t, inner, inner)
    label = jordan_label(block)
    assert classify_traceless(block) == label
    assert classify_traceless(conjugate(padded(block, scale), outer, outer)) == label


def reference_weyl_operator(tensors, point):
    """The Weyl endomorphism on 2-forms from all 256 evaluated components."""
    ginv = [[e.evaluate(point) for e in row] for row in tensors.ginv]
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
        tensors = family_setup("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        rng = random.Random(7)
        for _ in range(5):
            point = {
                c: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for c in ("x", "y", "z", "t")
            }
            weyl_op, _ = weyl_operator_at(tensors, point)
            assert not mat_is_zero(weyl_op)
            assert weyl_op == reference_weyl_operator(tensors, point)


class TestHodgeStar:
    def test_star_squares_to_plus_one(self):
        tensors = family_setup("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        for point in POINTS[:3]:
            _, star = weyl_operator_at(tensors, point)
            assert mat_mul(star, star) == identity(6)

    def test_eigenspaces_are_three_dimensional(self):
        tensors = family_setup("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        _, star = weyl_operator_at(tensors, POINTS[0])
        for sign in (1, -1):
            basis = eigenspace_basis(star, sign)
            assert len(basis) == 6 and len(basis[0]) == 3

    def test_blocks_are_trace_free(self):
        tensors = family_setup("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        weyl_op, star = weyl_operator_at(tensors, POINTS[0])
        for sign in (1, -1):
            block = restrict_operator(weyl_op, eigenspace_basis(star, sign))
            assert sum(block[i][i] for i in range(3)) == 0


class TestClassification:
    def test_generic_coefficients_give_two_and_d(self):
        tensors = family_setup("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        results = [classify_at_point(tensors, pt) for pt in POINTS]
        assert all(r.unordered == frozenset(("II", "D")) for r in results)
        d_sides = {("plus" if r.label_plus == "D" else "minus") for r in results}
        assert len(d_sides) == 1  # the D factor stays on one eigenspace

    def test_separable_coefficients_give_d_plus_d(self):
        tensors = family_setup("3/2*q^2/p + y^2*p^3 + x^2*p")
        for pt in POINTS:
            r = classify_at_point(tensors, pt)
            assert (r.label_plus, r.label_minus) == ("D", "D")

    def test_zero_coefficients_give_d_plus_d(self):
        tensors = family_setup("3/2*q^2/p")
        for pt in POINTS:
            r = classify_at_point(tensors, pt)
            assert (r.label_plus, r.label_minus) == ("D", "D")

    def test_conformally_flat_block_metric_is_o_plus_o(self):
        zero = Expression.number(0, METRIC_CHART)
        one = Expression.number(1, METRIC_CHART)
        g = [[zero for _ in range(4)] for _ in range(4)]
        g[0][3] = g[3][0] = one
        g[1][2] = g[2][1] = one
        tensors = curvature_tensors(Metric4(g))
        r = classify_at_point(tensors, POINTS[0])
        assert (r.label_plus, r.label_minus) == ("O", "O")
        assert label_rule(tensors)[1:] == (((), "O"), ((), "O"))
        for pt in POINTS:
            assert point_outcome(tensors, pt) == _oracle_outcome(tensors, pt) == (pt, "O", "O")

    def test_label_stability_across_points(self):
        tensors = family_setup("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        labels = {
            (r.label_plus, r.label_minus)
            for r in (classify_at_point(tensors, pt) for pt in POINTS)
        }
        assert len(labels) == 1

    def test_unassigned_symbol_rejected(self, family_data):
        tensors = curvature_tensors(family_metric(family_data))  # still opaque
        with pytest.raises(PetrovDegeneracyError):
            classify_at_point(tensors, POINTS[0])


def point_outcome(tensors, point, jets=None):
    """Point and labels, or the reason the point is skipped."""
    try:
        r = classify_at_point(tensors, point, jets)
    except PetrovDegeneracyError as exc:
        return str(exc)
    return r.point, r.label_plus, r.label_minus


def seeded_points(seed, count=8):
    rng = random.Random(seed)
    return [
        {c: Fraction(rng.randint(-100, 100), rng.randint(1, 100)) for c in ("x", "y", "z", "t")}
        for _ in range(count)
    ]


class TestJetExtendedPoints:
    """The opaque-coefficient Weyl tensor read at points extended with jet
    values against the specialised metric's own curvature (the oracle)."""

    @pytest.mark.parametrize(
        "specs",
        [
            {"A": "x*y", "B": "x + y"},
            {"A": "y^2", "B": "x^2 - 3"},
            {"A": "x/(y+1)", "B": "x + y"},
        ],
        ids=["generic", "separable", "pole"],
    )
    def test_opaque_tensors_match_specialised_metric(self, family_metric_tensors, family_data, specs):
        _, _, tensors = family_metric_tensors
        table = SymbolTable()
        values = {n: parse_expression(t, J2_CHART, table) for n, t in specs.items()}
        fd = FamilyData(family_data.problem, values["A"], values["B"], family_data.C)
        oracle_tensors = curvature_tensors(family_metric(fd))
        jets = jet_expressions(tensors, values)
        assert {"A", "A_x", "A_xx", "B", "B_y", "B_yy"} <= set(jets)
        points = seeded_points(3) + [
            {"x": Fraction(2), "y": Fraction(-1), "z": Fraction(1, 3), "t": Fraction(5)},
            {"x": Fraction(-7, 4), "y": Fraction(-1), "z": Fraction(3), "t": Fraction(1, 2)},
        ]
        outcomes = [point_outcome(tensors, pt, jets) for pt in points]
        assert outcomes == [point_outcome(oracle_tensors, pt) for pt in points]
        skipped = [o for o in outcomes if isinstance(o, str)]
        if "/(y+1)" in specs["A"]:
            assert skipped == ["denominator vanishes at the point"] * 2
        else:
            assert not skipped
        assert all(o[0] == pt for o, pt in zip(outcomes, points) if not isinstance(o, str))

    def test_flat_model_needs_no_jets(self):
        fd = family_detect(make_problem("3/2*q^2/p"))
        metric, _ = metric_from_family(fd)
        tensors = curvature_tensors(metric)
        assert jet_expressions(tensors, {}) == {}
        oracle_tensors = curvature_tensors(family_metric(fd))
        for pt in seeded_points(5):
            outcome = point_outcome(tensors, pt, {})
            assert outcome == point_outcome(oracle_tensors, pt)
            assert outcome[1:3] == ("D", "D")

    @pytest.mark.parametrize(
        "specs",
        [
            {"A": "x*y", "B": "x + y"},
            {"A": "y^2", "B": "x^2 - 3"},
            {"A": "x/(y+1)", "B": "x + y"},
        ],
        ids=["generic", "separable", "pole"],
    )
    def test_blocks_match_halved_projector(self, family_metric_tensors, family_data, specs):
        """The eigenspace oracle's block, on the halved and the unhalved
        basis, gets the label ``classify_at_point`` reads off the traces."""
        _, _, tensors = family_metric_tensors
        table = SymbolTable()
        values = {n: parse_expression(t, J2_CHART, table) for n, t in specs.items()}
        jets = jet_expressions(tensors, values)
        for pt in seeded_points(3):
            result = classify_at_point(tensors, pt, jets)
            weyl_op, star = weyl_operator_at(tensors, pt, jets)
            for sign, label in ((1, result.label_plus), (-1, result.label_minus)):
                for basis in (halved_projector_basis(star, sign), eigenspace_basis(star, sign)):
                    assert classify_traceless(restrict_operator(weyl_op, basis)) == label


def assert_sections_match_oracle(request):
    report = analyze(request)
    einstein, petrov = specialised_sections(request)
    assert report.data["einstein_residual_zero"] == einstein
    assert report.data["petrov"] == petrov
    return petrov


class TestOneFamilyGeometry:
    """``einstein`` and ``petrov`` read one opaque-A', B' geometry; the
    specialised metric's own curvature (``tests/oracles.py``) is the
    reference for their report sections."""

    @pytest.mark.parametrize(
        "ode, opaque, specs, seed, labels",
        [
            # an opaque A(x,y) specialised to y^2, beside a concrete B = x: D+D
            ("3/2*q^2/p + A(x,y)*p^3 + x*p", {"A": ("x", "y")}, {"A": "y^2"}, 0, ["D+D"]),
            # A(y) specialised by a function of x and y, which has an A_x
            ("3/2*q^2/p + A(y)*p^3 + x*p", {"A": ("y",)}, {"A": "x*y"}, 0, ["D+II"]),
            ("3/2*q^2/p + x/(y+1)*p^3 + (x + y)*p", {}, {}, 0, ["D+II"]),
            # seed 217 draws a point on the pole y = -1
            ("3/2*q^2/p + x/(y+1)*p^3 + (x + y)*p", {}, {}, 217, ["D+II"]),
            ("3/2*q^2/p", {}, {}, 0, ["D+D"]),
        ],
        ids=["opaque-beside-concrete", "narrow-arguments", "pole", "pole-skipped-point", "flat"],
    )
    def test_sections_match_the_specialised_metric(self, ode, opaque, specs, seed, labels):
        request = AnalysisRequest(
            ode=ode, opaque=opaque, stages=("einstein", "petrov"), specializations=specs, seed=seed
        )
        petrov = assert_sections_match_oracle(request)
        assert petrov["labels"] == labels
        assert len(petrov["skipped_points"]) == (seed == 217)

    @pytest.mark.parametrize(
        "ode, opaque, name",
        [
            # A mixes the opaque function with a concrete term
            ("3/2*q^2/p + (A(x,y)+x)*p^3", {"A": ("x", "y")}, "A"),
            # A is concrete: the specialisation has no opaque function to replace
            ("3/2*q^2/p + x*p^3", {}, "A"),
            # B is a multiple of the opaque function
            ("3/2*q^2/p + A(x,y)*p^3 + 2*B(x,y)*p", {"A": ("x", "y"), "B": ("x", "y")}, "B"),
        ],
        ids=["mixed", "concrete", "multiple"],
    )
    def test_only_an_opaque_coefficient_is_specialized(self, ode, opaque, name):
        """A specialisation replaces a coefficient only where that
        coefficient is exactly the opaque function of its name; otherwise
        the stage is refused and names the coefficient.  (It used to
        replace the whole coefficient: the mixed request reported D+D,
        although 3/2*q^2/p + (x+y)*p^3, the ODE with y put in for A(x,y),
        is D+II.)"""
        specs = {"A": "y", "B": "x"} if name == "B" else {"A": "y"}
        report = analyze(
            AnalysisRequest(ode=ode, opaque=opaque, stages=("petrov",), specializations=specs)
        )
        error = report.stage_errors["petrov"]
        assert error["code"] == "bad-specialization"
        assert f"coefficient {name} is " in error["message"]
        assert report.data["petrov"] == {"run": False} and report.exit_code == 2

    @given(st.integers(0, 2**32), st.integers(0, 3))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_rational_members_match_the_specialised_metric(self, sampler, seed, petrov_seed):
        gen = sampler(seed=seed, chart=XY_CHART)
        specs = {"A": gen.expression().render(), "B": gen.expression().render()}
        assert_sections_match_oracle(
            AnalysisRequest(
                ode=FAMILY_TEXT,
                opaque=FAMILY_OPAQUE,
                stages=("einstein", "petrov"),
                specializations=specs,
                seed=petrov_seed,
            )
        )


def halved_projector_basis(star, sign):
    """Three independent columns of the projector (I + sign·star)/2."""
    eye = identity(6)
    proj = [[(eye[i][j] + sign * star[i][j]) / 2 for j in range(6)] for i in range(6)]
    basis = []
    reduced = []
    for j in range(6):
        col = [proj[i][j] for i in range(6)]
        v = list(col)
        for pivot_row, b in reduced:
            if v[pivot_row]:
                v = [v[i] - v[pivot_row] * b[i] for i in range(6)]
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            continue
        reduced.append((pivot, [x / v[pivot] for x in v]))
        basis.append(col)
        if len(basis) == 3:
            break
    return [[basis[j][i] for j in range(3)] for i in range(6)]


def _product(a, b):
    zero = a[0][0].with_value(0)
    return [[sum((a[i][k] * b[k][j] for k in range(6)), zero) for j in range(6)] for i in range(6)]


def _trace(m):
    return sum((m[i][i] for i in range(6)), m[0][0].with_value(0))


def _generic_jets(texts):
    table = SymbolTable()
    functions = {n: parse_expression(t, XY_CHART, table) for n, t in zip(GENERIC_COEFFICIENTS, texts)}
    return jet_expressions(_generic_evidence().tensors, functions)


def _oracle_outcome(tensors, point, jets=None):
    try:
        r = point_labels(tensors, point, jets)
    except PetrovDegeneracyError as exc:
        return str(exc)
    return r.point, r.label_plus, r.label_minus


class TestLabelRule:
    """The rule ``classify_at_point`` evaluates, and the 6x6 oracle it must match."""

    def test_generic_identities(self):
        """On the generic member's tensors: det G = 1, star^2 = I and
        [W, star] = 0; for both halves X = W(I ± star), tr X^2 = 8/3 and
        tr X^3 = -16/9; the D test t2^2 X^3 - t2 t3 X^2 - 2 t3^2 X vanishes
        for X+, and every entry of X-'s is 0 or (512/27) R with
        R = -A'_x t + B'_y z + A'_xx - B'_yy."""
        tensors = _generic_evidence().tensors
        assert tensors.det == 1
        weyl, star = hodge_operators(tensors)
        assert _product(star, star) == identity(6)
        ws = _product(weyl, star)
        assert ws == _product(star, weyl)

        def jet(name, *index):
            return Expression.from_sym(Sym(name, ("x", "y"), index), METRIC_CHART)

        t, z = (Expression.coordinate(c, METRIC_CHART) for c in "tz")
        r = -jet("A'", "x") * t + jet("B'", "y") * z + jet("A'", "x", "x") - jet("B'", "y", "y")
        t2, t3 = Fraction(8, 3), Fraction(-16, 9)
        for sign in (1, -1):
            x = [[w + sign * v for w, v in zip(wr, vr)] for wr, vr in zip(weyl, ws)]
            x2 = _product(x, x)
            x3 = _product(x2, x)
            assert _trace(x2) == t2 and _trace(x3) == t3
            test = {
                t2 * t2 * u - t2 * t3 * v - 2 * t3 * t3 * w
                for rows in zip(x3, x2, x)
                for u, v, w in zip(*rows)
            }
            assert test == ({0} if sign == 1 else {0, Fraction(512, 27) * r})
        # so the rule: D on the plus half; D where R = 0, else II, on the minus half
        rule = label_rule(tensors)
        assert rule.plus == ((), "D")
        assert rule.minus == ((((Fraction(512, 27) * r,), "D"),), "II")

    @pytest.mark.parametrize("label", sorted(TYPED_BLOCKS))
    def test_half_rules_match_the_oracle_classifier(self, label):
        """Each Petrov type, as a constant 6x6 operator similar to 2B ⊕ 0
        and as that operator times the coordinate x, which vanishes at
        x = 0: the rule's label where x = 1 is the oracle's, and O where
        x = 0."""
        x_coord = Expression.coordinate("x", METRIC_CHART)
        op = conjugate(padded(TYPED_BLOCKS[label], Fraction(2)), FIXED_LOWER, FIXED_UPPER)
        constant = [[Expression.number(v, METRIC_CHART) for v in row] for row in op]
        scaled = [[x_coord * e for e in row] for row in constant]
        assert petrov._label(petrov._half_rule(constant), {}, {}) == classify_traceless(op)
        if label in ("O", "N", "III"):  # traces 0: the rule tests X and X^2 at the point
            for value, expected in ((1, label), (0, "O")):
                assert petrov._label(petrov._half_rule(scaled), {"x": value}, {}) == expected
        else:  # t2 = tr X^2 is not constant
            with pytest.raises(PetrovDegeneracyError, match="not constant"):
                petrov._half_rule(scaled)

    def test_the_rule_is_cached_for_the_same_object_only(self, monkeypatch):
        tensors = family_setup("3/2*q^2/p + x*y*p^3 + (x+y)*p")
        derived = []
        monkeypatch.setattr(petrov, "label_rule", lambda t: derived.append(t) or label_rule(t))
        for pt in POINTS:
            classify_at_point(tensors, pt)
        assert derived == [tensors]
        copy = tensors._replace()
        assert copy == tensors and copy is not tensors
        classify_at_point(copy, POINTS[0])
        assert len(derived) == 2 and derived[1] is copy

    @pytest.mark.parametrize(
        "det, reason",
        [
            ("-1", "det G is not a positive rational constant"),
            ("2", "det G is not a perfect rational square"),
            ("x^2", "det G is not a positive rational constant"),
        ],
    )
    def test_a_failed_premise_raises_at_every_point(self, det, reason):
        tensors = family_setup("3/2*q^2/p")
        tensors = tensors._replace(det=parse_expression(det, METRIC_CHART, SymbolTable()))
        for pt in POINTS[:2]:
            with pytest.raises(PetrovDegeneracyError, match=reason):
                classify_at_point(tensors, pt)

    def test_opaque_tensors_raise_with_the_oracle_reason(self, family_metric_tensors):
        _, _, tensors = family_metric_tensors
        for pt in POINTS[:2]:
            reason = point_outcome(tensors, pt)
            assert reason == _oracle_outcome(tensors, pt)
            assert reason.endswith("has no assigned value")

    def test_a_pole_of_the_coefficient_alone_skips_the_point(self):
        """A = 1/(y+1): A_x and A_xx vanish identically, so at y = -1 only
        the value of A itself is singular; the point is still skipped, with
        the oracle's reason."""
        jets = _generic_jets(("1/(y+1)", "x"))
        assert jets["A'_x"].is_zero and jets["A'_xx"].is_zero
        tensors = _generic_evidence().tensors
        pole = {"x": Fraction(2), "y": Fraction(-1), "z": Fraction(1, 3), "t": Fraction(5)}
        assert point_outcome(tensors, pole, jets) == _oracle_outcome(tensors, pole, jets)
        assert point_outcome(tensors, pole, jets) == "denominator vanishes at the point"
        for pt in POINTS:
            assert point_outcome(tensors, pt, jets) == _oracle_outcome(tensors, pt, jets)

    @given(st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_rational_members_match_the_oracle(self, sampler, seed):
        """The generic tensors' rule at jet-extended points against the 6x6
        oracle on the same tensors and jets, for random rational A and B;
        the small point range often meets a pole of A or B."""
        gen = sampler(seed=seed, chart=XY_CHART)
        texts = (gen.expression().render(), gen.expression().render())
        jets = _generic_jets(texts)
        tensors = _generic_evidence().tensors
        rng = random.Random(seed)
        for _ in range(4):
            pt = {c: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for c in "xyzt"}
            assert point_outcome(tensors, pt, jets) == _oracle_outcome(tensors, pt, jets)
