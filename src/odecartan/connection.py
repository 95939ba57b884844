"""Connection and curvature checks on the 6-space for the cubic family.

Two pictures are verified against closed-form displays, both in the
adapted chart (x, y, z, t, alpha, p):

  * the metric connection: a 4x4 matrix of 1-forms annihilating the
    horizontal coframe, antisymmetric when lowered with the constant
    block metric, whose curvature reproduces a six-entry list involving
    frame derivatives of the invariants, and whose Ricci contraction is
    minus the block metric;

  * the so(2,2) Cartan connection: a 4x4 matrix built linearly from the
    coframe whose curvature collapses to a constant matrix times
    tau1 ∧ tau4, vanishing precisely when k = n = e = 0.

Each connection is a table of coefficients in the tau basis, each
coefficient affine in k, n, e, so every check is coefficient algebra in the
tau_a ∧ tau_b basis (a < b), with no exterior derivative, wedge or
expansion on the chart:

  * d(tau_i) is ``cartan.tau_differential_table``, the structure pattern
    pushed through tau = M theta, evaluated on the chart extraction's
    invariants carried to the adapted chart; for ``generic_family`` that
    extraction, with its ninety-slot check, is the stage's pattern gate;
  * d(c tau_a) = Σ_b X_b(c) tau_b ∧ tau_a + c d(tau_a), with X_b the frame
    dual to tau;
  * Gamma ∧ Gamma is products of coefficients.

A residual the report renders as a form is mapped back to a chart form
through the adapted tau forms, and only when it is nonzero.

Every residual is an identity in A, B, C, so the ``conn`` stage builds
both reports once per process, for ``cartan.generic_family``.  The
displayed Cartan curvature (``expected_cartan_curvature``) vanishes
exactly when k = n = e = 0, an identity the suite proves, so the stage
reads a request's flatness off its own k, n, e with no curvature built.
"""

from collections import namedtuple
from fractions import Fraction

from .cartan import _AFFINE, _G1, _G2, _T1, _T2, _T3, _T4, HALF, _nonzero, affine_value
from .cartan import family_invariants, structure_functions, tau_differential_table, to_adapted
from .curvature import adapted_tau
from .expression import Expression
from .forms import Coframe, DifferentialForm, add_term, add_wedge, wedge_sum
from .symbols import M_ADAPTED_CHART

# Constant coefficients of the degenerate bilinear form in the tau basis.
BLOCK_METRIC = (
    (0, 1, 0, 0),
    (1, 0, 0, 0),
    (0, 0, 0, 1),
    (0, 0, 1, 0),
)

# Gamma^i_j = Σ_a c · tau_a, with c = const + Σ mult · invariant:
# {(i, j): {a: (const, {invariant: mult})}}; entries not listed are zero.
METRIC_CONNECTION = {
    (0, 0): {_G1: _AFFINE(-1)},
    (1, 1): {_G1: _AFFINE(1)},
    (1, 3): {_T1: _AFFINE(n=-HALF), _T4: _AFFINE(e=1, n=-HALF)},
    (2, 0): {_T1: _AFFINE(n=HALF), _T4: _AFFINE(e=-1, n=HALF)},
    (2, 2): {_G2: _AFFINE(1)},
    (3, 3): {_G2: _AFFINE(-1)},
}

# The so(2,2)-valued connection: constant coefficients.
CARTAN_CONNECTION = {
    (0, 0): {_T4: _AFFINE(-HALF), _G1: _AFFINE(-HALF), _G2: _AFFINE(-HALF)},
    (0, 2): {_T1: _AFFINE(1)},
    (0, 3): {_T4: _AFFINE(-HALF)},
    (1, 1): {_T4: _AFFINE(HALF), _G1: _AFFINE(HALF), _G2: _AFFINE(HALF)},
    (1, 2): {_T3: _AFFINE(1), _T4: _AFFINE(-HALF), _G2: _AFFINE(-1)},
    (1, 3): {_T2: _AFFINE(-HALF)},
    (2, 0): {_T2: _AFFINE(HALF)},
    (2, 1): {_T4: _AFFINE(HALF)},
    (2, 2): {_T4: _AFFINE(-HALF), _G1: _AFFINE(HALF), _G2: _AFFINE(-HALF)},
    (3, 0): {_T3: _AFFINE(-1), _T4: _AFFINE(HALF), _G2: _AFFINE(1)},
    (3, 1): {_T1: _AFFINE(-1)},
    (3, 3): {_T4: _AFFINE(HALF), _G1: _AFFINE(-HALF), _G2: _AFFINE(HALF)},
}

# The tau^tau slots along gamma1 or gamma2, which a horizontal 2-form leaves empty.
_VERTICAL_SLOTS = tuple((l, r) for l in range(6) for r in range(l + 1, 6) if r >= _G1)


def adapted_tau_differentials(prob):
    """d(tau_i) in the tau^tau basis of the adapted chart, one
    ``{(l, r): coefficient}`` dict per tau form, zero coefficients left
    out: ``tau_differential_table`` evaluated on the chart extraction's
    invariants, each nonzero one carried to the adapted chart once."""

    def build():
        values = {
            name: 0 if v.is_zero else to_adapted(v)
            for name, v in structure_functions(prob.coframe())._asdict().items()
        }
        return [
            _nonzero({slot: affine_value(aff, values) for slot, aff in d_tau.items()})
            for d_tau in tau_differential_table().values()
        ]

    return prob._memo("adapted_tau_differentials", build)


class _TauAlgebra:
    """One connection table evaluated on a family instance: its
    coefficients, their frame derivatives, and the checks on them."""

    def __init__(self, fd, table, kne):
        self.prob = fd.problem
        self.table = table
        self.zero = Expression.number(0, M_ADAPTED_CHART)
        self.values = kne._asdict()
        self.dtau = adapted_tau_differentials(self.prob)
        self.frame = None  # the adapted tau forms as a Coframe, built on first use
        self.derivs = {}
        self.gamma = {}
        for ij, row in table.items():
            entry = _nonzero({a: affine_value(aff, self.values) for a, aff in row.items()})
            if entry:
                self.gamma[ij] = entry

    def frame_derivatives(self, name):
        """X_b(invariant) for b = 0..5: the coframe's inverse is the dual frame."""
        if name not in self.derivs:
            value = self.values[name]
            if value.is_zero:
                self.derivs[name] = [self.zero] * 6
            else:
                self.frame = self.frame or Coframe(adapted_tau(self.prob))
                self.derivs[name] = self.frame.frame_derivatives(value)
        return self.derivs[name]

    def curvature(self):
        """Omega^i_j = dGamma^i_j + Σ_k Gamma^i_k ∧ Gamma^k_j as 4x4
        ``{(l, r): coefficient}`` dicts, zero coefficients left out, where
        d(c tau_a) = Σ_b X_b(c) tau_b ∧ tau_a + c d(tau_a)."""
        omega = [[{} for _ in range(4)] for _ in range(4)]
        for (i, j), row in self.table.items():
            for a, (_, mults) in row.items():
                for name, mult in mults.items():
                    for b, x in enumerate(self.frame_derivatives(name)):
                        if not x.is_zero:
                            add_wedge(omega[i][j], (b,), (a,), mult, x)
        for (i, k), left in self.gamma.items():
            for a, c in left.items():
                for slot, w in self.dtau[a].items():
                    add_term(omega[i][k], slot, c * w)
            for j in range(4):
                for a, c1 in left.items():
                    for b, c2 in self.gamma.get((k, j), {}).items():
                        add_wedge(omega[i][j], (a,), (b,), c1, c2)
        return [
            [{slot: self.zero + c for slot, c in entry.items()} for entry in row] for row in omega
        ]

    def torsion(self):
        """d(tau^i) + Gamma^i_j ∧ tau^j for the four horizontal forms."""
        out = [dict(self.dtau[i]) for i in range(4)]
        for (i, j), entry in self.gamma.items():
            for a, c in entry.items():
                add_wedge(out[i], (a,), (j,), c)
        return [self.form(t, 2) for t in out]

    def lowered_symmetric_part(self):
        """g_ik Gamma^k_j + g_jk Gamma^k_i for i <= j."""
        out = []
        for i in range(4):
            for j in range(i, 4):
                acc = {}
                for (k, col), entry in self.gamma.items():
                    mult = BLOCK_METRIC[i][k] * (col == j) + BLOCK_METRIC[j][k] * (col == i)
                    if mult:
                        for a, c in entry.items():
                            add_term(acc, a, mult * c)
                out.append(self.form(acc, 1))
        return out

    def difference(self, computed, expected):
        """Entry by entry ``computed - expected``."""
        out = []
        for i in range(4):
            for j in range(4):
                acc = dict(computed[i][j])
                for slot, c in expected.get((i, j), {}).items():
                    add_term(acc, slot, -c)
                out.append(self.form(acc, 2))
        return out

    def form(self, coeffs, degree):
        """Σ c · tau_a or Σ c · tau_l ∧ tau_r as a chart form; only a
        nonzero residual pays for the chart work."""
        zero = DifferentialForm.zero(M_ADAPTED_CHART, degree)
        if not coeffs:
            return zero
        taus = adapted_tau(self.prob)
        if degree == 2:
            return wedge_sum(taus, coeffs)
        return sum((taus[a].scale(c) for a, c in coeffs.items()), zero)


class MetricConnectionReport(
    namedtuple(
        "MetricConnectionReport",
        "torsion_residuals antisymmetry_residuals curvature_residuals"
        " horizontality_residuals ricci_residuals",
    )
):
    """Tuples of residuals: d tau^i + Gamma^i_j ∧ tau^j; the symmetric part
    of the lowered connection; the 16 curvature entries against the
    displayed list; the curvature's coefficients along G1, G2; and
    Ric_ij + the block metric."""

    __slots__ = ()

    @property
    def all_zero(self):
        return all(r.is_zero for group in self for r in group)


def expected_curvature_entries(kne, dn, de):
    """The displayed non-vanishing curvature 2-forms as
    ``{(i, j): {(l, r): coefficient}}``, with the frame derivative
    combination n4/2 + e1 - n1/2 (``dn``, ``de``: derivatives of n and e
    along the dual frame)."""
    hk = HALF * kne.k
    combo = HALF * dn[_T4] + de[_T1] - HALF * dn[_T1]
    t12, t14, t34 = (_T1, _T2), (_T1, _T4), (_T3, _T4)
    return {
        (0, 0): {t12: -1, t14: -hk},
        (1, 1): {t12: 1, t14: hk},
        (1, 3): {t12: hk, t14: combo, t34: -hk},
        (2, 0): {t12: -hk, t14: -combo, t34: hk},
        (2, 2): {t14: hk, t34: -1},
        (3, 3): {t14: -hk, t34: 1},
    }


def metric_connection_report(fd):
    kne = family_invariants(fd)
    alg = _TauAlgebra(fd, METRIC_CONNECTION, kne)
    zero = alg.zero
    curv = alg.curvature()
    expected = expected_curvature_entries(
        kne, alg.frame_derivatives("n"), alg.frame_derivatives("e")
    )
    ricci = []
    for i in range(4):
        for j in range(4):
            acc = zero + BLOCK_METRIC[i][j]
            for k in range(4):
                if k < j:
                    acc = acc + curv[k][i].get((k, j), zero)
                elif k > j:
                    acc = acc - curv[k][i].get((j, k), zero)
            ricci.append(acc)
    return MetricConnectionReport(
        torsion_residuals=tuple(alg.torsion()),
        antisymmetry_residuals=tuple(alg.lowered_symmetric_part()),
        curvature_residuals=tuple(alg.difference(curv, expected)),
        horizontality_residuals=tuple(
            entry.get(slot, zero) for row in curv for entry in row for slot in _VERTICAL_SLOTS
        ),
        ricci_residuals=tuple(ricci),
    )


# -- the so(2,2) Cartan connection ------------------------------------------


class CartanConnectionReport(
    namedtuple(
        "CartanConnectionReport",
        "algebra_residuals curvature_residuals invariants_zero curvature_zero",
    )
):
    """The symmetric part of the lowered connection and the 16 curvature
    entries against the displayed matrix, as residuals; whether
    k = n = e = 0 for this family instance, and whether the computed
    curvature vanishes."""

    __slots__ = ()

    @property
    def all_zero(self):
        return all(
            r.is_zero
            for group in (self.algebra_residuals, self.curvature_residuals)
            for r in group
        ) and self.flatness_matches_invariants

    @property
    def flatness_matches_invariants(self):
        return self.invariants_zero == self.curvature_zero


def expected_cartan_curvature(kne):
    """Constant matrix times tau1 ∧ tau4, as ``{(i, j): {(0, 3): coefficient}}``."""
    k, n, e = kne.k, kne.n, kne.e
    t14 = (_T1, _T4)
    return {
        (0, 0): {t14: -HALF * k},
        (1, 1): {t14: HALF * k},
        (1, 2): {t14: HALF * (-k + n - 2 * e)},
        (1, 3): {t14: -Fraction(1, 4) * n},
        (2, 0): {t14: Fraction(1, 4) * n},
        (3, 0): {t14: HALF * (k - n + 2 * e)},
    }


def cartan_connection_report(fd):
    kne = family_invariants(fd)
    alg = _TauAlgebra(fd, CARTAN_CONNECTION, kne)
    curv = alg.curvature()
    return CartanConnectionReport(
        algebra_residuals=tuple(alg.lowered_symmetric_part()),
        curvature_residuals=tuple(alg.difference(curv, expected_cartan_curvature(kne))),
        invariants_zero=kne.all_zero(),
        curvature_zero=all(not entry for row in curv for entry in row),
    )
