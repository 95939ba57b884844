"""Exterior algebra: wedge, exterior derivative, chart changes, coframes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odecartan import (
    ChartError,
    DegenerateCoframeError,
    Expression,
    J2_CHART,
    M_ADAPTED_CHART,
    P_CHART,
)
from odecartan.forms import (
    Coframe,
    DifferentialForm,
    add_term,
    add_wedge,
    change_chart,
    pair_minors,
    wedge_key,
    wedge_sum,
)
from tests.oracles import duality_residuals, expand_1


def d(chart, coord):
    return DifferentialForm.d_coord(chart, coord)


def coordinate_coframe(chart):
    return Coframe([d(chart, c) for c in chart.coords])


class TestWedge:
    def test_square_is_zero(self):
        dx = d(J2_CHART, "x")
        assert dx.wedge(dx).is_zero

    def test_antisymmetry(self):
        dx, dy = d(J2_CHART, "x"), d(J2_CHART, "y")
        assert (dx.wedge(dy) + dy.wedge(dx)).is_zero

    def test_contact_form_against_dx(self):
        dx, dy = d(J2_CHART, "x"), d(J2_CHART, "y")
        p = Expression.coordinate("p", J2_CHART)
        w1 = dy - dx.scale(p)
        assert w1.wedge(dx) == dy.wedge(dx)

    def test_chart_mismatch_rejected(self):
        with pytest.raises(ChartError):
            d(J2_CHART, "x").wedge(d(P_CHART, "x"))

    def test_degree_overflow_rejected(self):
        dx, dy, dp, dq = (d(J2_CHART, c) for c in "xypq")
        vol = dx.wedge(dy).wedge(dp).wedge(dq)
        with pytest.raises(ChartError):
            vol.wedge(dx)

    def test_graded_commutativity_of_two_forms(self):
        dx, dy, dp, dq = (d(J2_CHART, c) for c in J2_CHART.coords)
        q = Expression.coordinate("q", J2_CHART)
        a = dx.wedge(dy).scale(q) + dp.wedge(dq)
        b = dx.wedge(dp) + dy.wedge(dq).scale(q ** 2)
        assert (a.wedge(b) - b.wedge(a)).is_zero  # 2-forms commute


def _parity(seq):
    """The sign of the permutation that sorts ``seq`` (distinct entries)."""
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return -1 if inversions % 2 else 1


class _Unmultipliable:
    def __mul__(self, other):
        raise AssertionError("a product was formed on a shared index")

    __rmul__ = __mul__


class TestSparseMaps:
    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, 7), max_size=5), st.sets(st.integers(0, 7), max_size=5))
    def test_wedge_key_sign_is_the_parity_of_the_sorting_permutation(self, a, b):
        i1, i2 = tuple(sorted(a)), tuple(sorted(b))
        expected = None if a & b else (_parity(i1 + i2), tuple(sorted(a | b)))
        assert wedge_key(i1, i2) == expected

    def test_add_wedge_forms_no_product_on_a_shared_index(self):
        acc = {}
        add_wedge(acc, (0, 2), (2,), _Unmultipliable(), _Unmultipliable())
        add_wedge(acc, (1,), (1,), 3, _Unmultipliable())
        assert acc == {}
        add_wedge(acc, (2,), (0,), Fraction(3), Fraction(1, 2))
        assert acc == {(0, 2): Fraction(-3, 2)}

    def test_a_term_that_cancels_removes_its_key(self):
        x = Expression.coordinate("x", J2_CHART)
        acc = {}
        add_term(acc, (0, 1), x)
        add_wedge(acc, (1,), (0,), x)
        assert acc == {}
        add_term(acc, "k", Fraction(1, 2))
        add_term(acc, "k", Fraction(-1, 2))
        add_term(acc, "z", 0)
        assert acc == {}

    def test_pair_minors_returns_no_zero_minor(self):
        x = Expression.coordinate("x", J2_CHART)
        one, two = (Expression.number(v, J2_CHART) for v in (1, 2))
        minors = pair_minors([[(0, x), (1, x)], [(0, two), (1, two)], [(0, one), (2, one)]])
        assert minors == {
            (0, 1): {},
            (0, 2): {(0, 1): -x, (0, 2): x, (1, 2): x},
            (1, 2): {(0, 1): -2, (0, 2): 2, (1, 2): 2},
        }
        assert pair_minors([[(0, 1), (1, 1)], [(0, 2), (1, 2)]]) == {(0, 1): {}}


class TestExteriorDerivative:
    def test_contact_form(self):
        dx, dy, dp = (d(J2_CHART, c) for c in ("x", "y", "p"))
        p = Expression.coordinate("p", J2_CHART)
        w1 = dy - dx.scale(p)
        assert w1.exterior_derivative() == dx.wedge(dp)

    def test_q_dx(self):
        dx, dq = d(J2_CHART, "x"), d(J2_CHART, "q")
        q = Expression.coordinate("q", J2_CHART)
        assert dx.scale(q).exterior_derivative() == dq.wedge(dx)

    def test_d_never_differentiates_along_its_own_index(self, monkeypatch):
        """dx^a ∧ dx^I vanishes for an axis a in I, so d differentiates each
        coefficient only along the axes outside its index."""
        dx, dy, dp, dq = (d(J2_CHART, c) for c in "xypq")
        x, y, p, q = (Expression.coordinate(c, J2_CHART) for c in "xypq")
        form = dx.wedge(dy).scale(x * y * p * q) + dp.wedge(dq).scale(x * q)
        calls = []
        original = Expression.differentiate

        def recording(self, coord):
            calls.append((self.render(), coord))
            return original(self, coord)

        monkeypatch.setattr(Expression, "differentiate", recording)
        derived = form.exterior_derivative()
        monkeypatch.undo()
        assert sorted(calls) == sorted(
            [((x * y * p * q).render(), c) for c in "pq"] + [((x * q).render(), c) for c in "xy"]
        )
        expected = (
            dp.wedge(dx).wedge(dy).scale(x * y * q)
            + dq.wedge(dx).wedge(dy).scale(x * y * p)
            + dx.wedge(dp).wedge(dq).scale(q)
        )
        assert derived == expected

    def test_d_squared_on_random_one_forms(self, sampler):
        gen = sampler(seed=4242, opaque_names=("A",))
        for _ in range(30):
            coeffs = [gen.expression(2) for _ in J2_CHART.coords]
            form = DifferentialForm.zero(J2_CHART, 1)
            for c, coord in zip(coeffs, J2_CHART.coords):
                form = form + d(J2_CHART, coord).scale(c)
            assert form.exterior_derivative().exterior_derivative().is_zero

    def test_d_squared_on_scalars(self, sampler):
        gen = sampler(seed=77, opaque_names=("A", "B"))
        for _ in range(30):
            f = DifferentialForm.scalar(gen.expression(2))
            assert f.exterior_derivative().exterior_derivative().is_zero

    def test_graded_leibniz_100_pairs(self, sampler):
        gen = sampler(seed=31415, opaque_names=("A",))
        for i in range(100):
            deg_f = gen.rng.choice((0, 1))
            def random_form(degree):
                if degree == 0:
                    return DifferentialForm.scalar(gen.expression(1))
                form = DifferentialForm.zero(J2_CHART, 1)
                for coord in J2_CHART.coords:
                    form = form + d(J2_CHART, coord).scale(gen.expression(1))
                return form
            f = random_form(deg_f)
            g = random_form(gen.rng.choice((0, 1)))
            lhs = f.wedge(g).exterior_derivative()
            sign = -1 if deg_f % 2 else 1
            rhs = f.exterior_derivative().wedge(g) + f.wedge(g.exterior_derivative()).scale(sign)
            assert (lhs - rhs).is_zero


class TestChartChange:
    def test_pullback_of_dq_under_adapted_map(self):
        from odecartan.cartan import adapted_chart_map

        dq = d(P_CHART, "q")
        out = change_chart(dq, adapted_chart_map(), M_ADAPTED_CHART)
        ch = M_ADAPTED_CHART
        p = Expression.coordinate("p", ch)
        z = Expression.coordinate("z", ch)
        t = Expression.coordinate("t", ch)
        expected = (
            d(ch, "p").scale(t - 2 * z * p)
            + d(ch, "t").scale(p)
            - d(ch, "z").scale(p * p)
        )
        assert out == expected

    def test_identity_map(self):
        q = Expression.coordinate("q", J2_CHART)
        f = d(J2_CHART, "x").scale(q) + d(J2_CHART, "p")
        assert change_chart(f, {}, J2_CHART) == f

    def test_singular_map_rejected(self):
        zero = Expression.number(0, J2_CHART)
        with pytest.raises(ChartError, match="^chart map is identically singular$"):
            change_chart(d(J2_CHART, "x"), {"x": zero}, J2_CHART)

    def test_a_map_that_changes_dimension_is_rejected(self):
        with pytest.raises(ChartError, match="^chart map must preserve dimension$"):
            change_chart(d(P_CHART, "q"), {}, J2_CHART)

    def test_tau1_of_family_pulls_back_to_null_form(self, family_data):
        # the first null-coframe entry collapses to 2 alpha dy
        from odecartan.curvature import adapted_tau

        tau = adapted_tau(family_data.problem)
        alpha = Expression.coordinate("alpha", M_ADAPTED_CHART)
        expected = d(M_ADAPTED_CHART, "y").scale(2 * alpha)
        assert tau[0] == expected


class TestCoframe:
    def test_identity_expansion(self):
        cf = coordinate_coframe(J2_CHART)
        f = d(J2_CHART, "x").wedge(d(J2_CHART, "y"))
        coeffs = cf.expand_2(f)
        assert coeffs[(0, 1)] == 1
        assert all(c.is_zero for slot, c in coeffs.items() if slot != (0, 1))

    def test_duality(self):
        cf = coordinate_coframe(P_CHART)
        assert all(r.is_zero for r in duality_residuals(cf))

    def test_frame_derivative_coordinate_directions(self):
        cf = coordinate_coframe(J2_CHART)
        x = Expression.coordinate("x", J2_CHART)
        assert cf.frame_derivatives(x * x)[0].render() == "2*x"
        for j, coord in enumerate(J2_CHART.coords):
            s = Expression.coordinate(coord, J2_CHART)
            for i in range(4):
                expected = 1 if i == j else 0
                assert cf.frame_derivatives(s)[i] == Expression.number(
                    expected, J2_CHART
                )

    def test_expand_reconstruct_round_trip(self, sampler):
        gen = sampler(seed=808)
        # a mildly sheared coframe
        dx, dy, dp, dq = (d(J2_CHART, c) for c in J2_CHART.coords)
        p = Expression.coordinate("p", J2_CHART)
        q = Expression.coordinate("q", J2_CHART)
        cf = Coframe([dx, dy + dx.scale(p), dp - dx.scale(q), dq.scale(2) + dy.scale(p * q)])
        for _ in range(10):
            coeffs = {}
            for i in range(4):
                for j in range(i + 1, 4):
                    coeffs[(i, j)] = gen.expression(1)
            form = wedge_sum(cf.forms, coeffs)
            back = cf.expand_2(form)
            for slot, c in coeffs.items():
                assert (back[slot] - c).is_zero
            assert (wedge_sum(cf.forms, back) - form).is_zero

    def test_expansion_of_one_forms(self):
        dx, dy, dp, dq = (d(J2_CHART, c) for c in J2_CHART.coords)
        p = Expression.coordinate("p", J2_CHART)
        cf = Coframe([dx, dy + dx.scale(p), dp, dq])
        f = dy.scale(p) + dx
        coeffs = expand_1(cf, f)
        rebuilt = DifferentialForm.zero(J2_CHART, 1)
        for c, form in zip(coeffs, cf.forms):
            rebuilt = rebuilt + form.scale(c)
        assert rebuilt == f

    def test_degenerate_coframe_rejected(self):
        dx = d(J2_CHART, "x")
        dy = d(J2_CHART, "y")
        dp = d(J2_CHART, "p")
        with pytest.raises(DegenerateCoframeError):
            Coframe([dx, dy, dp, dx + dy])

    def test_invariant_coframe_determinant_not_zero(self, flat_problem, family_problem, qcube_problem):
        for prob in (flat_problem, family_problem, qcube_problem):
            assert not prob.coframe().det.is_zero

    def test_frame_field_duality(self, family_problem):
        cf = family_problem.coframe()
        assert all(r.is_zero for r in duality_residuals(cf))

    def test_frame_field_apply_matches_frame_derivative(self):
        cf = coordinate_coframe(J2_CHART)
        x = Expression.coordinate("x", J2_CHART)
        q = Expression.coordinate("q", J2_CHART)
        s = x * x * q
        for i, coord in enumerate(J2_CHART.coords):
            assert (cf.frame_derivatives(s)[i] - s.differentiate(coord)).is_zero


class TestInvertMatrix:
    def test_random_matrices_invert(self, sampler):
        from odecartan.linalg import invert_matrix
        from tests.oracles import identity_check

        gen = sampler(seed=99)
        for _ in range(5):
            rows = [[gen.expression(1) for _ in range(3)] for _ in range(3)]
            try:
                inv, det = invert_matrix(rows)
            except DegenerateCoframeError:
                continue
            assert all(r.is_zero for r in identity_check(rows, inv))
            assert not det.is_zero

    def test_known_inverse(self):
        p = Expression.coordinate("p", J2_CHART)
        one = Expression.number(1, J2_CHART)
        zero = Expression.number(0, J2_CHART)
        from odecartan.linalg import invert_matrix

        inv, det = invert_matrix([[p, one], [zero, p]])
        assert det == p * p
        assert inv[0][0] == 1 / p
        assert inv[0][1] == -1 / (p * p)
        assert inv[1][1] == 1 / p


def _rational_matrix(gen, n):
    """An n x n matrix of sampled leaves; every row carries one entry over a
    denominator that is not a monomial."""
    x = Expression.coordinate("x", J2_CHART)
    rows = [[gen.leaf() for _ in range(n)] for _ in range(n)]
    for row in rows:
        row[gen.rng.randrange(n)] = gen.expression(1) / (x + gen.leaf() ** 2 + 1)
    return rows


class TestInverseOracle:
    """Inverse and determinant against sympy's ``Matrix.inv`` and ``det``."""

    def test_inverse_and_det_match_sympy(self, sampler):
        sympy = pytest.importorskip("sympy")
        from odecartan.linalg import invert_matrix
        from tests.test_expression_oracles import _sympy

        gen = sampler(seed=1414)
        matrices = [_rational_matrix(gen, n) for n in (2, 2, 3, 3, 4)]
        # a zero (0, 0) entry forces a row swap, which flips det's sign
        matrices[0][0][0] = matrices[2][0][0] = matrices[0][0][0].with_value(0)
        assert any(len(e.den) > 1 for rows in matrices for row in rows for e in row)
        for rows in matrices:
            inv, det = invert_matrix(rows)
            theirs = sympy.Matrix([[_sympy(e, sympy) for e in row] for row in rows])
            # elimination over sympy's fraction field: the default method
            # takes seconds on these entries
            assert sympy.cancel(_sympy(det, sympy) - theirs.det(method="domain-ge")) == 0
            expected = theirs.inv()
            for i, row in enumerate(inv):
                for j, e in enumerate(row):
                    assert sympy.cancel(_sympy(e, sympy) - expected[i, j]) == 0

    def test_dependent_rows_are_singular(self, sampler):
        from odecartan.linalg import invert_matrix

        gen = sampler(seed=1415)
        rows = _rational_matrix(gen, 3)
        factor = gen.expression(1) / (Expression.coordinate("y", J2_CHART) + 2)
        rows[1] = [factor * e for e in rows[0]]
        with pytest.raises(DegenerateCoframeError, match="singular"):
            invert_matrix(rows)


def _triangular_after_permutation(rows):
    """At each column in order, some unused row has exactly one nonzero in
    the remaining columns, in that column."""
    unused = list(range(len(rows)))
    for k in range(len(rows)):
        hits = [
            i for i in unused
            if not rows[i][k].is_zero and sum(not e.is_zero for e in rows[i][k:]) == 1
        ]
        if not hits:
            return False
        unused.remove(hits[0])
    return True


class TestInvertedMatricesAreTriangular:
    """Every matrix the program inverts is lower triangular in the chart's
    coordinate order after a row permutation, so the sparsest-row pivot of
    ``invert_matrix`` gets no fill in its left block."""

    def test_the_helper_rejects_a_full_matrix(self):
        x = Expression.coordinate("x", J2_CHART)
        one = x.with_value(1)
        assert not _triangular_after_permutation([[one, one], [one, x]])
        assert _triangular_after_permutation([[x, one], [one, x.with_value(0)]])

    @pytest.mark.parametrize(
        "text", ["3/2*q^2/p", "q^2", "q^3/(p+y) + x*q/(p-x) + 1/(x+y)"]
    )
    def test_theta_coframe(self, text):
        from tests.conftest import make_problem

        assert _triangular_after_permutation(make_problem(text).coframe().matrix)

    def test_family_metric_and_adapted_tau_coframe(self):
        from odecartan.cartan import generic_family
        from odecartan.curvature import adapted_tau, family_metric

        fd = generic_family()
        assert _triangular_after_permutation(family_metric(fd).g)
        assert _triangular_after_permutation(Coframe(adapted_tau(fd.problem)).matrix)
