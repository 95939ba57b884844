"""The command-line interface and the JSON report contract."""

import json
import subprocess
import sys

import pytest

from collections import Counter

from odecartan import cartan, connection, curvature, forms, linalg
from odecartan import report as report_module
from odecartan.cli import main
from odecartan.report import AnalysisRequest, analyze, emit_report
from odecartan.symbols import METRIC_CHART, M_ADAPTED_CHART

REQUIRED_KEYS = [
    "input",
    "fqq_nonzero",
    "structure_functions",
    "conditions",
    "family",
    "invariants_kne",
    "metric",
    "einstein_residual_zero",
    "petrov",
    "connection",
    "appendix_residuals",
    "timings",
    "conventions",
]

FAMILY_ARGS = [
    "--ode",
    "3/2*q^2/p + A(x,y)*p^3 + C(x,y)*p^2 + B(x,y)*p",
    "--opaque",
    "A:x,y",
    "--opaque",
    "B:x,y",
    "--opaque",
    "C:x,y",
]


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "odecartan", "analyze", *args],
        capture_output=True,
        text=True,
    )
    return proc


class TestExitCodes:
    def test_flat_model_full_pipeline_green(self):
        proc = run_cli("--ode", "3/2*q^2/p", "--stages", "all")
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["fqq_nonzero"]["verdict"] is True
        assert all(v == "0" for v in data["structure_functions"]["values"].values())
        assert data["einstein_residual_zero"]["verdict"] is True
        assert data["petrov"]["labels"] == ["D+D"]
        assert data["connection"]["cartan_connection"]["curvature_zero"] is True

    def test_non_family_invariants_only(self):
        proc = run_cli("--ode", "q^2", "--stages", "inv")
        data = json.loads(proc.stdout)
        assert data["structure_functions"]["run"] is True
        assert data["conditions"]["all_hold"] is False
        assert data["family"]["accepted"] is False
        assert data["metric"]["run"] is False
        assert proc.returncode == 1  # a requested verdict (conditions) is false

    def test_degenerate_rhs_is_a_precondition_error(self):
        proc = run_cli("--ode", "y", "--stages", "inv")
        assert proc.returncode == 2
        data = json.loads(proc.stdout)
        assert data["error"]["code"] == "degenerate-ode"
        assert data["fqq_nonzero"]["verdict"] is False

    def test_parse_failure(self):
        proc = run_cli("--ode", "3*//q", "--stages", "inv")
        assert proc.returncode == 2
        data = json.loads(proc.stdout)
        assert data["error"]["code"] == "parse-error"

    def test_family_stage_on_non_family_input(self):
        proc = run_cli("--ode", "q^2", "--stages", "metric")
        assert proc.returncode == 2

    def test_petrov_without_specialization_errors(self):
        proc = run_cli(*FAMILY_ARGS, "--stages", "petrov")
        assert proc.returncode == 2

    def test_full_family_pipeline(self):
        proc = run_cli(
            *FAMILY_ARGS,
            "--stages",
            "all",
            "--specialize",
            "A=x*y",
            "--specialize",
            "B=x+y",
            "--seed",
            "11",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        data = json.loads(proc.stdout)
        assert data["conditions"]["all_hold"] is True
        assert data["invariants_kne"]["matches_extraction"] is True
        assert data["petrov"]["labels"] == ["D+II"]
        assert data["appendix_residuals"]["all_zero"] is True


    @pytest.mark.parametrize("text", ["-q^2", "-3/2*q^2/p"])
    def test_an_ode_that_begins_with_a_minus(self, text):
        spaced = run_cli("--ode", text, "--stages", "inv")
        joined = run_cli(f"--ode={text}", "--stages", "inv")
        assert spaced.returncode == joined.returncode == 1  # runs to its verdicts
        assert spaced.stderr == joined.stderr == ""
        one, two = json.loads(spaced.stdout), json.loads(joined.stdout)
        one["timings"] = two["timings"] = None
        assert one == two
        assert one["input"]["ode"] == text

    @pytest.mark.parametrize("option, code", [("--o", 2), ("--od", 1), ("--ode", 1)])
    def test_every_spelling_of_ode_takes_a_text_that_begins_with_a_minus(
        self, capsys, option, code
    ):
        """``--od``, the abbreviation that argparse accepts, reads the next
        argument as ``--od=TEXT`` does, even when it begins with a minus;
        the ambiguous ``--o`` is refused either way."""
        outcomes = []
        for argv in ([option, "-q^2"], [f"{option}=-q^2"]):
            try:
                exit_code = main(["analyze", *argv, "--stages", "inv"])
            except SystemExit as exc:
                exit_code = exc.code
            out = capsys.readouterr().out
            data = json.loads(out) if out else None
            if data:
                data["timings"] = None
            outcomes.append((exit_code, data))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == code


class TestReportContract:
    def test_required_keys_always_present(self):
        for args in (["--ode", "3/2*q^2/p"], ["--ode", "q^2", "--stages", "inv"]):
            data = json.loads(run_cli(*args).stdout)
            for key in REQUIRED_KEYS:
                assert key in data, key

    def test_round_trip(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("--ode", "3/2*q^2/p", "--stages", "inv,cond", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        data = json.loads(out.read_text())
        assert json.loads(json.dumps(data)) == data

    def test_expressions_reparse(self):
        from odecartan import J2_CHART, P_CHART, SymbolTable, parse_expression

        data = json.loads(
            run_cli(*FAMILY_ARGS, "--stages", "inv").stdout
        )
        table = SymbolTable()
        for name, args in data["input"]["opaque"].items():
            table.declare(name, tuple(args))
        parse_expression(data["input"]["ode"], J2_CHART, table)
        for text in data["structure_functions"]["values"].values():
            parse_expression(text, P_CHART, table)

    def test_family_report_renders_invariant(self):
        data = json.loads(run_cli(*FAMILY_ARGS, "--stages", "inv").stdout)
        assert data["invariants_kne"]["k"] == "-C/(4*alpha^2*p)"

    def test_determinism_modulo_timings(self):
        args = [
            *FAMILY_ARGS,
            "--stages",
            "inv,cond,appendix",
            "--seed",
            "3",
        ]
        one = json.loads(run_cli(*args).stdout)
        two = json.loads(run_cli(*args).stdout)
        one["timings"] = two["timings"] = None
        assert one == two

    def test_emit_is_deterministic_for_a_fixed_report(self):
        request = AnalysisRequest(ode="3/2*q^2/p", stages=("inv", "cond"))
        report = analyze(request)
        assert emit_report(report, "json") == emit_report(report, "json")

    def test_text_format(self):
        proc = run_cli("--ode", "3/2*q^2/p", "--stages", "inv", "--format", "text")
        assert "structure functions: all zero" in proc.stdout

    def test_conventions_documented(self):
        data = json.loads(run_cli("--ode", "3/2*q^2/p").stdout)
        conventions = data["conventions"]
        assert "Ric_ij = R^k_ikj" in conventions["ricci"]
        assert "dx^dy^dz^dt" in conventions["orientation"]
        assert conventions["cosmological_constant"] == "-1"


class TestStageIsolation:
    def test_disabling_a_stage_preserves_other_output(self):
        small = json.loads(run_cli("--ode", "3/2*q^2/p", "--stages", "inv").stdout)
        full = json.loads(run_cli("--ode", "3/2*q^2/p", "--stages", "all").stdout)
        assert small["structure_functions"] == full["structure_functions"]
        assert small["conditions"] == full["conditions"]
        assert small["family"] == full["family"]

    def test_bad_stage_name(self):
        proc = run_cli("--ode", "3/2*q^2/p", "--stages", "bogus")
        assert proc.returncode == 2


class TestPythonApi:
    def test_analyze_without_cli(self):
        report = analyze(AnalysisRequest(ode="3/2*q^2/p", stages=("all",)))
        assert report.exit_code == 0
        assert report.data["petrov"]["d_eigenspace"] == "both"

    def test_verdicts_only_for_requested_stages(self):
        report = analyze(AnalysisRequest(ode="q^2", stages=("inv",)))
        assert set(report.verdicts) == {"inv", "cond"}


FAMILY_REQUEST = dict(
    ode="3/2*q^2/p + A(x,y)*p^3 + C(x,y)*p^2 + B(x,y)*p",
    opaque={"A": ("x", "y"), "B": ("x", "y"), "C": ("x", "y")},
    specializations={"A": "x*y", "B": "x + y"},
    seed=11,
)


# four members, each running every stage: two specialised, a pole and flat
FOUR_MEMBERS = [
    AnalysisRequest(stages=("all",), **FAMILY_REQUEST),
    AnalysisRequest(
        stages=("all",), **dict(FAMILY_REQUEST, specializations={"A": "x^2 - y", "B": "3*y"})
    ),
    AnalysisRequest(ode="3/2*q^2/p + x/(y+1)*p^3 + (x + y)*p", stages=("all",)),
    AnalysisRequest(ode="3/2*q^2/p", stages=("all",)),
]


class TestPetrovStage:
    def test_petrov_alone_matches_all_stages(self):
        alone = analyze(AnalysisRequest(stages=("petrov",), **FAMILY_REQUEST))
        full = analyze(AnalysisRequest(stages=("all",), **FAMILY_REQUEST))
        assert alone.data["petrov"]["run"] is True
        assert alone.data["petrov"] == full.data["petrov"]
        assert alone.exit_code == full.exit_code == 0

    def test_all_stages_compute_the_curvature_once(self, monkeypatch):
        """The curvature is built once per process, not per request: after
        the generic evidence's cache is cleared, four members run every
        stage, the evidence is built once, ``curvature_tensors`` runs once,
        and its inverse of the generic metric is the one 4x4
        ``METRIC_CHART`` matrix inverted: no request inverts its own."""
        calls, inverted = [], []
        original = report_module.curvature_tensors
        original_inverse = linalg.invert_matrix

        def counting(metric):
            calls.append(metric)
            return original(metric)

        def counting_inverse(rows):
            inverted.append((len(rows), rows[0][0].chart))
            return original_inverse(rows)

        monkeypatch.setattr(report_module, "curvature_tensors", counting)
        for module in (linalg, forms, curvature):
            monkeypatch.setattr(module, "invert_matrix", counting_inverse)
        report_module._generic_evidence.cache_clear()
        reports = [analyze(r) for r in FOUR_MEMBERS]
        assert [r.exit_code for r in reports] == [0] * 4
        assert [r.data["petrov"]["labels"] for r in reports] == [["D+II"]] * 3 + [["D+D"]]
        assert [r.data["metric"]["determinant"] for r in reports] == ["1"] * 4
        assert len(calls) == 1
        assert [c for c in inverted if c[1] is METRIC_CHART] == [(4, METRIC_CHART)]
        assert report_module._generic_evidence.cache_info().misses == 1

    def test_all_stages_build_the_generic_evidence_once(self, monkeypatch):
        """The projectability evidence and both connection reports are built
        once per process, for the generic member: after the caches are
        cleared, four members run every stage, and the adapted tau forms
        (six pullbacks), the 6x6 adapted inverse and the connection algebra
        of each table are built once."""
        calls = Counter()

        def counting(owner, name, key=lambda *args: True):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[name] += bool(key(*args))
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("metric_from_family", "metric_connection_report", "cartan_connection_report"):
            counting(report_module, name)
        counting(connection, "_TauAlgebra")
        counting(forms.DifferentialForm, "pullback", lambda form, mapping, target: target is M_ADAPTED_CHART)
        counting(forms, "invert_matrix", lambda rows: rows[0][0].chart is M_ADAPTED_CHART)
        for cached in (cartan.generic_family, report_module._generic_evidence):
            cached.cache_clear()
        reports = [analyze(r) for r in FOUR_MEMBERS]
        assert [r.exit_code for r in reports] == [0] * 4
        assert calls == {
            "metric_from_family": 1,
            "metric_connection_report": 1,
            "cartan_connection_report": 1,
            "_TauAlgebra": 2,
            "pullback": 6,
            "invert_matrix": 1,
        }

    @pytest.mark.parametrize(
        "ode, opaque, specs, concrete, labels",
        [
            # an opaque A(x,y) beside a concrete B is replaced by the
            # separable y^2 (D+D); a concrete A cannot be specialised
            (
                "3/2*q^2/p + A(x,y)*p^3 + x*p",
                {"A": ("x", "y")},
                {"A": "y^2"},
                "3/2*q^2/p + y^2*p^3 + x*p",
                ["D+D"],
            ),
            # A(y) specialised by a function of x and y is replaced as well,
            # although the jet calculus of A(y) has no A_x
            (
                "3/2*q^2/p + A(y)*p^3 + x*p",
                {"A": ("y",)},
                {"A": "x*y"},
                "3/2*q^2/p + x*y*p^3 + x*p",
                ["D+II"],
            ),
        ],
        ids=["opaque-beside-concrete", "narrow-arguments"],
    )
    def test_replaced_coefficient_matches_the_concrete_family(
        self, ode, opaque, specs, concrete, labels
    ):
        special = analyze(
            AnalysisRequest(ode=ode, opaque=opaque, stages=("petrov",), specializations=specs)
        )
        direct = analyze(AnalysisRequest(ode=concrete, stages=("petrov",)))
        special_petrov = dict(special.data["petrov"], specializations=None)
        direct_petrov = dict(direct.data["petrov"], specializations=None)
        assert special_petrov == direct_petrov
        assert special_petrov["labels"] == labels

    def test_missing_specialization_names_the_symbols(self):
        request = dict(FAMILY_REQUEST, specializations={"A": "x*y"})
        report = analyze(AnalysisRequest(stages=("petrov",), **request))
        error = report.stage_errors["petrov"]
        assert error["code"] == "petrov-needs-specialization"
        assert "['B']" in error["message"]


def test_runtime_imports_only_the_standard_library():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import odecartan\n"
        "report = odecartan.analyze(odecartan.AnalysisRequest(ode='3/2*q^2/p', stages=('all',)))\n"
        "assert report.exit_code == 0, report.stage_errors\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(loaded)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "odecartan" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"odecartan"}
    assert not loaded & {"dataclasses", "inspect"}


def test_family_requests_leave_the_invariant_table_unloaded():
    """All-stage ``flat`` and ``generic`` family requests read their
    invariants from the closed forms, so a process that serves only family
    members never loads the generic table; a non-family request loads it."""
    code = (
        "import sys\n"
        "import odecartan\n"
        "TABLE = {'odecartan.invariant_table', 'odecartan.generic_structure'}\n"
        "family = 'A(x,y)*p^3 + C(x,y)*p^2 + B(x,y)*p'\n"
        "for ode, opaque, specs in (\n"
        "    ('3/2*q^2/p', {}, {}),\n"
        "    ('3/2*q^2/p + ' + family, {n: ('x', 'y') for n in 'ABC'}, {'A': 'x*y', 'B': 'x + y'}),\n"
        "):\n"
        "    report = odecartan.analyze(odecartan.AnalysisRequest(\n"
        "        ode=ode, opaque=opaque, stages=('all',), specializations=specs))\n"
        "    assert report.exit_code == 0, report.stage_errors\n"
        "    assert not TABLE & set(sys.modules), ode\n"
        "report = odecartan.analyze(odecartan.AnalysisRequest(ode='q^2/(p+1)'))\n"
        "assert report.exit_code in (0, 1), report.stage_errors\n"
        "assert TABLE <= set(sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
