"""End-to-end analysis: run requested stages in dependency order and
assemble an auditable report.

One table, ``_STAGE_TABLE``, lists the stages in execution order: each
entry's name, aliases, dependencies, whether it needs the cubic family,
the stages it implies, and a run function that fills its report section
and returns its verdict.  Name validation, dependency resolution, family
gating, dependency failures and the verdict rule all read it; one
``except`` in ``analyze`` maps a failed stage's exception to its code.

Every verdict in the report sits next to the residuals that justify it,
rendered in the input grammar so they can be re-checked independently.
Reports are deterministic for a fixed request and seed, except for the
wall-clock timings section.
"""

import json
import math
import random
import time
from collections import namedtuple
from fractions import Fraction
from functools import cache

from .cartan import (
    GENERIC_COEFFICIENTS,
    KneInvariants,
    OdeProblem,
    STRUCTURE_NAMES,
    StructureFunctions,
    check_einstein_conditions,
    family_detect,
    family_invariants,
    family_structure,
    generic_family,
)
from .connection import cartan_connection_report, metric_connection_report
from .curvature import curvature_tensors, einstein_residual, family_metric, metric_from_family
from .errors import (
    DegenerateOdeError,
    ExponentOverflowError,
    ExpressionSyntaxError,
    FamilyRejectionError,
    OdeCartanError,
    PetrovDegeneracyError,
    SymbolCollisionError,
    UnknownSymbolError,
)
from .expression import Expression
from .parse import parse_expression
from .petrov import classify_at_point, jet_expressions, label_rule
from .symbols import J2_CHART, SymbolTable

CONVENTIONS = {
    "ricci": "Ric_ij = R^k_ikj with R^i_jkl = d_k G^i_lj - d_l G^i_kj + G^i_km G^m_lj - G^i_lm G^m_kj",
    "orientation": "volume form dx^dy^dz^dt; 'plus' labels the +1 eigenspace of the Hodge star",
    "lowered_connection": "antisymmetry is checked as g_ij w^j_k + g_kj w^j_i = 0",
    "coframe_display": "third coframe form carries the squared second q-derivative prefactor and groups its middle coefficient as (gamma - F_q/3); first connection form ends in d(alpha)/alpha - gamma dx; both forced by the structure equations",
    "cosmological_constant": "-1",
}


class AnalysisInputError(OdeCartanError):
    """Unusable request: nothing can run (exit code 2)."""

    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


def _mapping(value, field, code):
    """A mapping, or (name, value) pairs, as a dict; anything else is refused with ``code``."""
    try:
        return dict(value)
    except (TypeError, ValueError):
        raise AnalysisInputError(code, f"{field} must be a mapping, got {value!r}") from None


class AnalysisRequest:
    """One request: the right-hand side's text, opaque functions (name ->
    tuple of args), stage names, specialisations (name -> expression
    text), the number of Petrov points and their seed."""

    def __init__(
        self, ode, opaque=(), stages=("inv", "cond"), specializations=(), points=5, seed=0
    ):
        self.ode, self.opaque, self.stages = ode, _mapping(opaque, "opaque", "bad-opaque"), stages
        self.specializations = _mapping(specializations, "specializations", "bad-specialization")
        self.points, self.seed = points, seed

    def normalized_stages(self):
        """Canonical stage names in request order, duplicates dropped;
        every name is checked, including those next to ``all``, and at
        least one must be given."""
        if not isinstance(self.stages, (list, tuple)) or not all(
            isinstance(s, str) for s in self.stages
        ):
            raise AnalysisInputError(
                "bad-stage", f"stages must be a list or tuple of names, got {self.stages!r}"
            )
        names = [s.strip().lower() for s in self.stages]
        if not names:
            raise AnalysisInputError("bad-stage", "no stage requested")
        for s in names:
            if s != "all" and s not in _BY_NAME:
                raise AnalysisInputError("bad-stage", f"unknown stage {s!r}")
        if "all" in names:
            return STAGES
        return tuple(dict.fromkeys(_BY_NAME[s].name for s in names))


class AnalysisReport(namedtuple("AnalysisReport", "data verdicts stage_errors")):
    """The report document, stage -> bool for populated, requested stages,
    and stage -> {code, message}."""

    __slots__ = ()

    @property
    def exit_code(self):
        if self.data.get("error") or self.stage_errors:
            return 2
        return 0 if all(self.verdicts.values()) else 1


class _State:
    """One request's inputs and what its stages leave for later ones."""

    def __init__(self, request, report, prob, specializations):
        self.request, self.report, self.prob = request, report, prob
        self.specializations = specializations  # name -> parsed Expression
        self.family = self.kne = None  # FamilyData and its k, n, e; None outside the family
        self.jets = None  # the family's jets, by rendered name of the generic jet
        self.powers = {}  # what ``put_in`` keeps of those jets' images
        self.sf = None  # the invariants a..s, once ``inv`` has run

    def put_in(self, expr):
        """A closed form of ``generic_family()`` with this member's jets put in."""
        return expr.put_in(self.jets, self.powers)


_ClosedForms = namedtuple("_ClosedForms", "kne structure metric jets")


@cache
def _generic_closed_forms():
    """The closed forms of ``generic_family()`` (opaque A', B', C'), as
    ``family_invariants``, ``family_structure`` and ``family_metric`` derive
    them: k, n, e on the adapted chart, a..s (that k, n, e pulled back to
    the P chart, every other invariant 0) and the metric components, with
    the jet symbols they read.  Each is a polynomial in those jets over a
    monomial in alpha and p, so a member's own are these with its jets put
    in (``_State.put_in``).  Built on first use and shared for the life of
    the process: callers must not mutate it.  ``_generic_evidence`` is not
    built, and neither is the generic invariant table."""
    family = generic_family()
    kne = family_invariants(family)
    structure = family_structure(kne)
    metric = tuple(tuple(row) for row in family_metric(family).g)
    read = (*kne, *structure, *(e for row in metric for e in row))
    jets = frozenset(s for e in read for s in e.symbols() if not s.is_coordinate)
    return _ClosedForms(kne, structure, metric, jets)


def _run_inv(st):
    """The invariants a..s, kept on the request state for ``cond`` and
    ``appendix``; no request builds a coframe.

    A family member's are its own closed-form k, n, e pulled back to the P
    chart, with every other invariant 0: ``family_structure`` of
    ``generic_family()``, kept in ``_generic_closed_forms``, with the
    member's jets put in.  ``tests/test_generic_table.py`` proves that
    identity on ``generic_family()`` against the committed table, and the
    generic member's denominators make it every member's.  Its
    ``extraction_residuals`` (all 0) and ``matches_extraction`` (true)
    state a committed identity, not a per-request check: ``to_adapted``
    undoes that pullback for every k, n, e, which
    ``test_to_adapted_undoes_the_family_pullback`` in
    ``tests/test_cartan.py`` proves.  Any other F reads the committed
    generic table (``OdeProblem.structure()``), whose ninety pattern slots
    the suite verifies once for every F with F_qq ≠ 0; a process that
    serves only family members never loads it."""
    if st.family is None:
        sf = st.prob.structure()
    else:
        sf = StructureFunctions(*map(st.put_in, _generic_closed_forms().structure))
    st.sf = sf
    st.report["structure_functions"] = {
        "run": True,
        "consistent": True,
        "values": {n: getattr(sf, n).render() for n in STRUCTURE_NAMES},
    }
    if st.family is not None:
        section = st.report["invariants_kne"]
        section["extraction_residuals"] = dict.fromkeys("kne", "0")
        section["matches_extraction"] = True
    return True


def _run_cond(st):
    cond = check_einstein_conditions(st.sf)
    st.report["conditions"] = {
        "run": True,
        "verdicts": {
            v.name: {"residual": v.residual.render(), "holds": v.holds}
            for v in cond.verdicts
        },
        "all_hold": cond.all_hold,
    }
    return cond.all_hold


_GenericEvidence = namedtuple(
    "_GenericEvidence",
    "tensors label_rule metric_connection cartan_connection"
    " metric_section einstein_section connection_section",
)

# the metric connection's verdicts, one per residual group of its report
_METRIC_CONNECTION_KEYS = (
    "torsion_zero", "antisymmetry_zero", "curvature_matches", "horizontal", "ricci_is_minus_metric",
)


@cache
def _generic_evidence():
    """The family stages' evidence, from one metric of ``generic_family``
    (opaque A', B', C'): its curvature tensors (g^-1 and det G among
    them), the Petrov ``label_rule`` of those tensors, both connection
    reports, and the rendered sections of ``metric`` (det G and the
    projectability evidence), ``einstein`` (the Einstein residual and the
    scalar curvature) and ``conn``.  Each is a polynomial identity in the
    jets of A', B' and C', so it is every member's.  Built on first use
    and shared for the life of the process: callers must not mutate it,
    and a report takes its sections through ``_copied``."""
    family = generic_family()
    metric, projectability = metric_from_family(family)
    tensors = curvature_tensors(metric)
    residual = einstein_residual(metric, tensors)
    mrep, crep = metric_connection_report(family), cartan_connection_report(family)
    metric_section = {
        "determinant": tensors.det.render(),
        "projectability": {
            "projects": projectability.projects,
            "vertical_residuals": [e.render() for e in projectability.vertical_residuals],
            "invariance_residuals": [e.render() for e in projectability.invariance_residuals],
            "match_residuals": [e.render() for e in projectability.match_residuals],
        },
    }
    einstein_section = {
        "verdict": all(r.is_zero for row in residual for r in row),
        "residual_components": [residual[i][j].render() for i in range(4) for j in range(i, 4)],
        "scalar_curvature": tensors.scalar.render(),
    }
    connection_section = (
        {
            **{k: all(r.is_zero for r in g) for k, g in zip(_METRIC_CONNECTION_KEYS, mrep)},
            "torsion_residuals": [f.render() for f in mrep.torsion_residuals],
            "ricci_residuals": [e.render() for e in mrep.ricci_residuals],
        },
        {
            "algebra_valued": all(r.is_zero for r in crep.algebra_residuals),
            "curvature_matches": all(r.is_zero for r in crep.curvature_residuals),
            # set per request, both from its k, n, e (``_run_conn``): so they match
            "invariants_zero": None,
            "curvature_zero": None,
            "flatness_matches_invariants": True,
            "algebra_residuals": [f.render() for f in crep.algebra_residuals],
        },
    )
    return _GenericEvidence(
        tensors, label_rule(tensors), mrep, crep, metric_section, einstein_section,
        connection_section,
    )


def _copied(section):
    """A section of ``_generic_evidence`` with its lists and dicts copied,
    so a report shares none with the generic record."""
    return {
        k: _copied(v) if isinstance(v, dict) else list(v) if isinstance(v, list) else v
        for k, v in section.items()
    }


def _member_metric(st):
    """The request's metric components: ``family_metric`` of
    ``generic_family()``, kept in ``_generic_closed_forms``, with the
    member's jets put in."""
    return [[st.put_in(e) for e in row] for row in _generic_closed_forms().metric]


def _run_metric(st):
    """The request's own metric components next to the generic record's
    det G and projectability evidence, which are every member's."""
    section = _copied(_generic_evidence().metric_section)
    st.report["metric"] = {
        "run": True,
        "components": [[e.render() for e in row] for row in _member_metric(st)],
        **section,
    }
    return section["projectability"]["projects"]


def _run_einstein(st):
    """Ric + G and the scalar curvature of ``_generic_evidence``: both are
    polynomials in the jets of A' and B', so putting in this request's A
    and B gives its own, and the verdict is exact for every member."""
    evidence = _generic_evidence()
    section = _copied(evidence.einstein_section)
    st.report["einstein_residual_zero"] = {"run": True, **section}
    return section["verdict"] and evidence.tensors.scalar == -4


def _point_to_json(point):
    return {k: str(v) for k, v in sorted(point.items())}


def _parsed_specializations(request, parse):
    """Each specialisation read by ``parse``: only A, B or C, and only in
    x and y.  C is not in the metric, but a bad one is refused too."""
    out = {}
    for name, text in request.specializations.items():
        if name not in ("A", "B", "C"):
            raise AnalysisInputError(
                "bad-specialization", f"{name!r} is not a family coefficient"
            )
        if not isinstance(text, str):
            raise AnalysisInputError(
                "bad-specialization", f"specialization of {name} must be text, got {text!r}"
            )
        try:
            value = parse(text)
        except (ExpressionSyntaxError, UnknownSymbolError, ExponentOverflowError) as exc:
            raise AnalysisInputError("bad-specialization", str(exc)) from exc
        bad = [s.render() for s in value.symbols() if s.name not in ("x", "y")]
        if bad:
            raise AnalysisInputError(
                "bad-specialization",
                f"specialization of {name} may only use x and y, found {bad}",
            )
        out[name] = value
    return out


# the Hodge eigenspace whose label is D, by (plus label is D, minus label is D)
_D_EIGENSPACE = {(True, False): "plus", (False, True): "minus", (True, True): "both"}


def _specialized(st, name):
    """The family's coefficient ``name`` (A, B or C), or the request's
    specialisation of it.  Only a coefficient that is exactly the opaque
    function of that name can be specialised; any other is refused with
    ``bad-specialization``."""
    coefficient = getattr(st.family, name)
    if name not in st.specializations:
        return coefficient
    opaque = [s for s in coefficient.symbols() if s.name == name and not s.index]
    if opaque and coefficient == Expression.from_sym(opaque[0], coefficient.chart):
        return st.specializations[name]
    raise AnalysisInputError(
        "bad-specialization",
        f"coefficient {name} is {coefficient.render()}, not the opaque function {name}; "
        "only an opaque coefficient can be specialized",
    )


def _run_petrov(st):
    """Petrov labels at seeded exact points of the specialised metric.

    ``classify_at_point`` evaluates the label rule that ``_generic_evidence``
    derives once per process from the generic tensors (opaque A' and B'):
    D on the plus half, and on the minus half D where
    -A'_x t + B'_y z + A'_xx - B'_yy vanishes and II elsewhere.  Each
    point is extended with each jet symbol's value, the specialised A or B
    differentiated along the jet's index, and is skipped where a jet,
    g^-1, det G or W cannot be evaluated.  C is not in the metric, but
    its specialisation is checked like theirs.
    """
    request = st.request
    A, B, _ = (_specialized(st, name) for name in "ABC")
    leftover = sorted({s.render() for c in (A, B) for s in c.symbols() if not s.is_coordinate})
    if leftover:
        raise AnalysisInputError(
            "petrov-needs-specialization",
            f"metric still contains opaque symbols {leftover}; "
            "provide rational specializations for A and B",
        )
    rule = _generic_evidence().label_rule
    jets = jet_expressions(rule.symbols(), dict(zip(GENERIC_COEFFICIENTS, (A, B))))
    rng = random.Random(request.seed)
    results, skipped = [], []
    for _ in range(max(50, 40 * request.points)):
        if len(results) == request.points:
            break
        point = {c: Fraction(rng.randint(-100, 100), rng.randint(1, 100)) for c in "xyzt"}
        try:
            results.append(classify_at_point(rule, point, jets))
        except PetrovDegeneracyError as exc:
            skipped.append({"point": _point_to_json(point), "reason": str(exc)})
    if len(results) < request.points:
        raise PetrovDegeneracyError(
            f"could not find {request.points} admissible sample points"
        )
    labels = {(r.label_plus, r.label_minus) for r in results}
    consistent = len(labels) == 1
    d_eigenspace = _D_EIGENSPACE.get(tuple(x == "D" for x in min(labels))) if consistent else None
    st.report["conventions"]["d_eigenspace"] = d_eigenspace
    st.report["petrov"] = {
        "run": True,
        "specializations": dict(sorted(request.specializations.items())),
        "points": [
            {"point": _point_to_json(r.point), "label_plus": r.label_plus, "label_minus": r.label_minus}
            for r in results
        ],
        "labels": sorted({f"{a}+{b}" for a, b in labels}),
        "consistent_assignment": consistent,
        "d_eigenspace": d_eigenspace,
        "skipped_points": skipped,
    }
    return consistent


def _run_conn(st):
    """The connection section of ``_generic_evidence``, with this request's
    own k, n, e for the flatness verdict: the generic curvature residual
    vanishes identically, so the curvature is the displayed matrix, whose
    entries vanish together exactly when k = n = e = 0
    (``test_the_displayed_curvature_vanishes_exactly_with_k_n_e`` in
    ``tests/test_connection.py``).  So ``curvature_zero`` is
    ``invariants_zero``."""
    metric, cartan = _generic_evidence().connection_section
    flat = st.kne.all_zero()
    cartan = {**cartan, "invariants_zero": flat, "curvature_zero": flat}
    st.report["connection"] = {
        "run": True, "metric_connection": _copied(metric), "cartan_connection": _copied(cartan),
    }
    return all(metric[k] for k in _METRIC_CONNECTION_KEYS) and all(
        cartan[k] for k in ("algebra_valued", "curvature_matches"))


def _run_appendix(st):
    """The six closed-form differentials' residuals, stated.  The identity:
    the paper's appendix table equals ``cartan.tau_differential_table``,
    the structure pattern pushed through tau = M theta
    (``test_appendix_is_derived`` in ``tests/test_cartan.py``), so d(tau_i)
    minus the table's right-hand side is the zero 2-form six times for
    every F and every a..s (``TestAppendix`` there checks it with the
    chart-level oracle).  No request builds ``tau_differential_table``.
    The stage still needs ``inv``, so its report shows the request's own
    invariants next to the verdict."""
    st.report["appendix_residuals"] = {"run": True, "residuals": ["0"] * 6, "all_zero": True}
    return True


class _Stage:
    """One row of the stage table.  ``run(state)`` fills the stage's report
    section and returns its verdict.  The stages in ``needs`` run first,
    and when one fails this one does too; those in ``implies`` run
    whenever this one does and report a verdict whenever it is requested."""

    def __init__(self, name, run, aliases=(), needs=(), family_only=False, implies=()):
        self.name, self.run, self.aliases = name, run, aliases
        self.needs, self.family_only, self.implies = needs, family_only, implies


# Execution order.  The condition verdicts are a free byproduct of
# extraction, so ``inv`` implies ``cond``: it runs whenever ``inv`` does and
# reports a verdict whenever ``inv`` is requested.  The family stages read
# ``_generic_evidence``, built once per process for ``generic_family``
# (opaque A', B', C'), whose chart extraction verifies the ninety pattern
# slots that d(tau) in ``conn`` rests on.  ``einstein`` and ``petrov`` still
# need ``metric``, so the report shows the request's own metric next to
# their verdicts; ``conn`` still needs ``inv``, so it shows the request's
# own invariants next to its verdict.
_STAGE_TABLE = (
    _Stage("inv", _run_inv, aliases=("invariants",), implies=("cond",)),
    _Stage("cond", _run_cond, aliases=("conditions",), needs=("inv",)),
    _Stage("metric", _run_metric, family_only=True),
    _Stage("einstein", _run_einstein, needs=("metric",), family_only=True),
    _Stage("petrov", _run_petrov, needs=("metric",), family_only=True),
    _Stage("conn", _run_conn, aliases=("connection",), needs=("inv",), family_only=True),
    _Stage("appendix", _run_appendix, needs=("inv",)),
)

STAGES = tuple(s.name for s in _STAGE_TABLE)

_BY_NAME = {n: s for s in _STAGE_TABLE for n in (s.name, *s.aliases)}


def _closure(requested):
    """Requested stages with their needs and implied stages, in table order."""
    out = set()

    def add(name):
        if name not in out:
            out.add(name)
            for other in _BY_NAME[name].needs + _BY_NAME[name].implies:
                add(other)

    for name in requested:
        add(name)
    return [s for s in _STAGE_TABLE if s.name in out]


def _error_code(exc):
    if isinstance(exc, AnalysisInputError):
        return exc.code
    if isinstance(exc, PetrovDegeneracyError):
        return "petrov-degenerate"
    if isinstance(exc, ExponentOverflowError):
        return "exponent-overflow"
    return "stage-failed"


def analyze(request):
    """Run the pipeline and return an AnalysisReport."""
    requested = request.normalized_stages()
    for code, name in (("bad-points", "points"), ("bad-seed", "seed")):
        value = getattr(request, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise AnalysisInputError(code, f"{name} must be an integer, got {value!r}")
    if request.points < 1:
        raise AnalysisInputError("bad-points", f"points must be at least 1, got {request.points}")
    if not isinstance(request.ode, str):
        raise AnalysisInputError("bad-ode", f"ode must be expression text, got {request.ode!r}")
    timings = {}
    verdicts = {}
    stage_errors = {}

    table = SymbolTable()
    for name, args in request.opaque.items():
        if not (
            isinstance(name, str)
            and isinstance(args, (list, tuple))
            and all(isinstance(a, str) for a in args)
        ):
            raise AnalysisInputError(
                "bad-opaque",
                f"opaque {name!r}: need a str name and a list or tuple of str args, got {args!r}",
            )
        if not set(args) <= set(J2_CHART.coords) or len(set(args)) < len(args):
            raise AnalysisInputError(
                "bad-opaque",
                f"opaque {name!r}: arguments must be distinct among x, y, p, q, got {list(args)!r}",
            )
        try:
            table.declare(name, tuple(args))
        except SymbolCollisionError as exc:
            raise AnalysisInputError("bad-opaque", str(exc)) from exc
    specializations = _parsed_specializations(
        request, lambda text: parse_expression(text, J2_CHART, table))

    report = {
        "input": {
            "ode": request.ode,
            "opaque": {n: list(a) for n, a in request.opaque.items()},
            "stages": list(requested),
            "specializations": dict(sorted(request.specializations.items())),
            "points": request.points,
            "seed": request.seed,
        },
        "fqq_nonzero": None,
        "structure_functions": {"run": False},
        "conditions": {"run": False},
        "family": None,
        "invariants_kne": {"run": False},
        "metric": {"run": False},
        "einstein_residual_zero": {"run": False},
        "petrov": {"run": False},
        "connection": {"run": False},
        "appendix_residuals": {"run": False},
        "timings": timings,
        "conventions": dict(CONVENTIONS),
    }

    # a parse failure, F_qq = 0 or an exponent past the limit before the
    # stages ends the request with its error; a stage's own overflow is
    # that stage's error
    try:
        prob = OdeProblem(parse_expression(request.ode, J2_CHART, table))
        report["fqq_nonzero"] = {"verdict": True, "fqq": prob.Fqq.render()}

        # family detection always runs; it is cheap and the report requires it
        state = _State(request, report, prob, specializations)
        try:
            family = state.family = family_detect(prob)
        except FamilyRejectionError as exc:
            report["family"] = {
                "accepted": False,
                "reason": exc.reason,
                "detail": exc.detail,
            }
        else:
            report["family"] = {
                "accepted": True,
                "A": family.A.render(),
                "B": family.B.render(),
                "C": family.C.render(),
            }
            forms = _generic_closed_forms()
            state.jets = jet_expressions(
                forms.jets, dict(zip(GENERIC_COEFFICIENTS, (family.A, family.B, family.C)))
            )
            kne = state.kne = KneInvariants(*map(state.put_in, forms.kne))
            report["invariants_kne"] = {
                "run": True,
                "k": kne.k.render(),
                "n": kne.n.render(),
                "e": kne.e.render(),
            }
    except (ExpressionSyntaxError, UnknownSymbolError) as exc:
        report["error"] = {"code": "parse-error", "message": str(exc)}
        report["fqq_nonzero"] = {"verdict": False, "fqq": None}
        return AnalysisReport(report, verdicts, {"parse": report["error"]})
    except DegenerateOdeError as exc:
        report["fqq_nonzero"] = {"verdict": False, "fqq": "0"}
        report["error"] = {"code": "degenerate-ode", "message": str(exc)}
        return AnalysisReport(report, verdicts, {"ode": report["error"]})
    except ExponentOverflowError as exc:
        report["error"] = {"code": "exponent-overflow", "message": str(exc)}
        return AnalysisReport(report, verdicts, {"ode": report["error"]})

    with_verdict = set(requested).union(*(_BY_NAME[s].implies for s in requested))
    for stage in _closure(requested):
        broken_deps = [d for d in stage.needs if d in stage_errors]
        if stage.family_only and state.family is None:
            stage_errors[stage.name] = {
                "code": "family-rejected",
                "message": "a family-only stage was requested but "
                + report["family"]["reason"],
            }
        elif broken_deps:
            stage_errors[stage.name] = {
                "code": "dependency-failed",
                "message": f"stage {broken_deps[0]!r} did not complete",
            }
        else:
            started = time.perf_counter()
            try:
                verdict = stage.run(state)
                if stage.name in with_verdict:
                    verdicts[stage.name] = verdict
            except OdeCartanError as exc:
                stage_errors[stage.name] = {"code": _error_code(exc), "message": str(exc)}
            finally:
                timings[stage.name] = round(time.perf_counter() - started, 6)

    return AnalysisReport(report, verdicts, stage_errors)


_escape = json.encoder.encode_basestring_ascii


def _json_text(value, indent=""):
    """``json.dumps(value, indent=2)``, byte for byte, for a value nested at
    ``indent``.  ``json`` takes its pure-Python encoder whenever ``indent``
    is set; this writes what a report holds (dicts with ``str`` keys,
    lists, strings, ints, finite floats, booleans and None) directly, with
    the C escaper ``json`` uses for ``ensure_ascii``.  Anything else goes
    to ``json.dumps``, which writes it or raises, re-indented: JSON puts no
    raw newline inside a string."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        parts = [_json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        try:  # a key that is not a str, or a value json refuses: json.dumps decides
            parts = [_escape(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        except TypeError:
            pass
        else:
            return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def emit_report(report, fmt="json"):
    """Serialize a report; JSON is the stable machine interface, written as
    ``json.dumps(report.data, indent=2)`` would write it."""
    if fmt == "json":
        return _json_text(report.data) + "\n"
    if fmt == "text":
        return _text_view(report)
    raise AnalysisInputError("bad-format", f"unknown format {fmt!r}")


def _text_view(report):
    d = report.data
    lines = []
    lines.append(f"ODE: y''' = {d['input']['ode']}")
    if d.get("error"):
        lines.append(f"ERROR [{d['error']['code']}]: {d['error']['message']}")
        return "\n".join(lines) + "\n"
    fqq = d["fqq_nonzero"]
    lines.append(f"F_qq = {fqq['fqq']}  (nonzero: {fqq['verdict']})")
    fam = d["family"]
    if fam["accepted"]:
        lines.append(f"family: accepted  A={fam['A']}  B={fam['B']}  C={fam['C']}")
    else:
        lines.append(f"family: rejected ({fam['reason']}; {fam['detail']})")
    if d["structure_functions"].get("run"):
        vals = d["structure_functions"]["values"]
        nonzero = {k: v for k, v in vals.items() if v != "0"}
        lines.append(
            "structure functions: all zero" if not nonzero else f"structure functions: {nonzero}"
        )
    if d["conditions"].get("run"):
        lines.append(f"reduction conditions hold: {d['conditions']['all_hold']}")
    if d["invariants_kne"].get("run"):
        kne = d["invariants_kne"]
        lines.append(f"invariants: k={kne['k']}  n={kne['n']}  e={kne['e']}")
        if "matches_extraction" in kne:
            lines.append(f"invariants match extraction: {kne['matches_extraction']}")
    if d["metric"].get("run"):
        lines.append(
            f"metric determinant: {d['metric']['determinant']}; projects: "
            f"{d['metric']['projectability']['projects']}"
        )
    if d["einstein_residual_zero"].get("run"):
        e = d["einstein_residual_zero"]
        lines.append(
            f"Einstein (Ric = -G): {e['verdict']}; scalar curvature {e['scalar_curvature']}"
        )
    if d["petrov"].get("run"):
        p = d["petrov"]
        lines.append(
            f"Petrov labels {p['labels']} at {len(p['points'])} points; "
            f"stable: {p['consistent_assignment']}"
        )
    if d["connection"].get("run"):
        m, c = d["connection"]["metric_connection"], d["connection"]["cartan_connection"]
        lines.append(f"metric connection checks: {all(m[k] for k in _METRIC_CONNECTION_KEYS)}")
        cartan_holds = (
            c["algebra_valued"] and c["curvature_matches"] and c["flatness_matches_invariants"]
        )
        lines.append(f"cartan connection checks: {cartan_holds}")
    if d["appendix_residuals"].get("run"):
        lines.append(f"closed-form differentials hold: {d['appendix_residuals']['all_zero']}")
    for stage, err in sorted(report.stage_errors.items()):
        lines.append(f"stage {stage} error [{err['code']}]: {err['message']}")
    lines.append(f"exit code: {report.exit_code}")
    return "\n".join(lines) + "\n"
