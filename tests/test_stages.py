"""The stage table: names and aliases, dependencies, family gating, the
verdict rule and the stage error codes."""

import json
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from odecartan import cartan, invariant_table
from odecartan import report as report_module
from odecartan.errors import OdeCartanError, PetrovDegeneracyError, StructureConsistencyError
from odecartan.report import (
    STAGES,
    AnalysisInputError,
    AnalysisReport,
    AnalysisRequest,
    analyze,
    emit_report,
)
from tests.oracles import printed_display_coframe
from tests.test_cli import run_cli

FLAT = "3/2*q^2/p"


def stages_of(*names):
    return AnalysisRequest(ode=FLAT, stages=names).normalized_stages()


class TestStageNames:
    def test_aliases_map_to_canonical_names(self):
        assert stages_of("invariants", "conditions", "connection") == ("inv", "cond", "conn")

    def test_case_and_whitespace_are_ignored(self):
        assert stages_of(" Invariants", "CONDITIONS ", "\tConnection\n") == (
            "inv",
            "cond",
            "conn",
        )

    def test_repeated_names_and_aliases_are_deduplicated(self):
        assert stages_of("conn", "inv", "connection", "INV", "invariants") == ("conn", "inv")

    def test_all_expands_to_every_stage(self):
        assert stages_of("inv", "all") == STAGES

    def test_report_input_lists_canonical_names(self):
        report = analyze(AnalysisRequest(ode=FLAT, stages=("Invariants", "inv", "appendix")))
        assert report.data["input"]["stages"] == ["inv", "appendix"]
        assert report.data["appendix_residuals"]["run"] is True

    @pytest.mark.parametrize("names", [("all", "bogus"), ("bogus", "all")])
    def test_every_name_is_validated(self, names):
        with pytest.raises(AnalysisInputError) as info:
            stages_of(*names)
        assert info.value.code == "bad-stage"
        assert "'bogus'" in str(info.value)

    @pytest.mark.parametrize("stages", ["all,bogus", "bogus,all"])
    def test_cli_rejects_a_bad_name_next_to_all(self, stages):
        proc = run_cli("--ode", FLAT, "--stages", stages)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert '"bad-stage"' in proc.stderr

    def test_cli_help_lists_the_stages(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert ",".join(STAGES) in proc.stdout


class TestVerdictRule:
    def test_cond_alone_runs_inv_without_its_verdict(self):
        report = analyze(AnalysisRequest(ode=FLAT, stages=("cond",)))
        assert set(report.verdicts) == {"cond"}
        assert report.data["structure_functions"]["run"] is True

    def test_dependencies_run_without_verdicts(self):
        report = analyze(AnalysisRequest(ode=FLAT, stages=("conn",)))
        assert set(report.verdicts) == {"conn"}
        assert list(report.data["timings"]) == ["inv", "cond", "conn"]
        assert report.exit_code == 0


class TestStageErrors:
    def test_failed_stage_fails_its_dependents_only(self, monkeypatch):
        def broken(state):
            raise OdeCartanError("metric construction failed")

        monkeypatch.setattr(report_module, "_member_metric", broken)
        report = analyze(AnalysisRequest(ode=FLAT, stages=("all",)))
        errors = report.stage_errors
        assert errors["metric"] == {
            "code": "stage-failed",
            "message": "metric construction failed",
        }
        for stage in ("einstein", "petrov"):
            assert errors[stage]["code"] == "dependency-failed"
            assert "'metric'" in errors[stage]["message"]
        assert set(errors) == {"metric", "einstein", "petrov"}
        assert {"inv", "cond", "conn", "appendix"} <= set(report.verdicts)
        for key in ("structure_functions", "conditions", "appendix_residuals"):
            assert report.data[key]["run"] is True
        assert report.data["metric"]["run"] is False
        assert "einstein" not in report.data["timings"]
        assert report.exit_code == 2

    def test_petrov_degeneracy_has_its_own_code(self, monkeypatch):
        def degenerate(rule, point, jets):
            raise PetrovDegeneracyError("pole at the sample point")

        monkeypatch.setattr(report_module, "classify_at_point", degenerate)
        report = analyze(AnalysisRequest(ode=FLAT, stages=("petrov",)))
        assert report.stage_errors["petrov"]["code"] == "petrov-degenerate"
        assert report.data["petrov"]["run"] is False
        assert report.exit_code == 2

    def test_family_stages_on_a_non_family_input(self):
        report = analyze(AnalysisRequest(ode="q^2", stages=("metric", "conn")))
        errors = report.stage_errors
        assert set(errors) == {"metric", "conn"}
        for err in errors.values():
            assert err["code"] == "family-rejected"
            assert report.data["family"]["reason"] in err["message"]
        assert report.data["structure_functions"]["run"] is True
        assert "metric" not in report.data["timings"]
        assert report.exit_code == 2

    def test_bad_specialization(self):
        proc = run_cli(
            "--ode", FLAT, "--stages", "petrov", "--specialize", "D=x", "--format", "text"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["code"] == "bad-specialization"


class TestPatternGate:
    """``appendix`` and ``conn`` read d(tau) from the structure pattern, so
    neither may give a verdict unless that pattern was verified.  Every
    request's ``inv`` reads the generic table, whose pattern is verified
    once, when the table is generated.  ``conn`` also reads the evidence of
    ``generic_family``, whose chart extraction verifies the pattern in the
    process that builds it."""

    @pytest.mark.parametrize("ode, stage", [("3/2*q^2/p + x*y*p^3 + (x+y)*p", "conn")])
    def test_a_coframe_off_the_pattern_gives_no_verdict(self, monkeypatch, ode, stage):
        # both caches hold a coframe: clear them so the patched one is
        # built, and again so that it does not outlive this test
        report_module._generic_evidence.cache_clear()
        cartan.generic_family.cache_clear()
        monkeypatch.setattr(cartan, "invariant_coframe", printed_display_coframe)
        try:
            report = analyze(AnalysisRequest(ode=ode, stages=(stage,)))
        finally:
            report_module._generic_evidence.cache_clear()
            cartan.generic_family.cache_clear()
        errors = report.stage_errors
        assert "inv" not in errors
        assert errors[stage]["code"] == "stage-failed"
        assert "structure pattern" in errors[stage]["message"]
        assert report.verdicts == {}
        assert report.exit_code == 2

    def test_a_coframe_off_the_pattern_generates_no_table(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cartan, "invariant_coframe", printed_display_coframe)
        target = tmp_path / "generic_structure.py"
        with pytest.raises(StructureConsistencyError, match="structure pattern"):
            invariant_table.write_generic_table(target)
        assert not target.exists()


class TestRequestValidation:
    def test_an_empty_stage_list_is_rejected(self):
        with pytest.raises(AnalysisInputError) as info:
            analyze(AnalysisRequest(ode="q^2", stages=()))
        assert info.value.code == "bad-stage"

    @pytest.mark.parametrize("stages", [",", ""])
    def test_cli_rejects_an_empty_stage_list(self, stages):
        proc = run_cli("--ode", "q^2", "--stages", stages)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["code"] == "bad-stage"

    @pytest.mark.parametrize("name, text", [("D", "x"), ("A", "p"), ("A", "x+"), ("A", "x^40000")])
    def test_a_bad_specialization_is_rejected_without_petrov(self, name, text):
        with pytest.raises(AnalysisInputError) as info:
            analyze(AnalysisRequest(ode=FLAT, stages=("inv",), specializations={name: text}))
        assert info.value.code == "bad-specialization"
        proc = run_cli("--ode", FLAT, "--stages", "inv", "--specialize", f"{name}={text}")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == {
            "code": "bad-specialization",
            "message": str(info.value),
        }

    @pytest.mark.parametrize("text", ["(" * 260 + "q^2" + ")" * 260, "-" * 900 + "q^2"])
    def test_too_deep_nesting_is_refused(self, text):
        report = analyze(AnalysisRequest(ode=text, stages=("inv",)))
        assert report.exit_code == 2
        assert report.data["error"]["code"] == "parse-error"
        proc = run_cli("--ode=" + text, "--stages", "inv")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["code"] == "parse-error"
        with pytest.raises(AnalysisInputError) as info:
            analyze(AnalysisRequest(ode=FLAT, stages=("inv",), specializations={"A": text}))
        assert info.value.code == "bad-specialization"
        proc = run_cli("--ode", FLAT, "--stages", "inv", "--specialize", "A=" + text)
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"]["code"] == "bad-specialization"

    # past the exponent limit (32767) in the parser, in F_q's denominator
    # (OdeProblem) and in 3/F_qq - p (family_detect)
    @pytest.mark.parametrize("text", ["q^2*p^32768", "q^3/(q+p^20000)", "q^2*p^32767"])
    def test_an_exponent_overflow_in_the_ode_ends_with_a_report(self, text):
        report = analyze(AnalysisRequest(ode=text, stages=("inv",)))
        assert report.exit_code == 2
        assert report.data["error"]["code"] == "exponent-overflow"
        assert "32767" in report.data["error"]["message"]
        assert report.stage_errors == {"ode": report.data["error"]}

    def test_long_literals_and_coefficients_are_analyzed(self):
        long = "3" * 5000
        request = AnalysisRequest(
            ode=f"(2^4000)^4*q^2 + {long}*p", stages=("inv",), specializations={"A": long + "*x"}
        )
        report = analyze(request)
        assert report.exit_code == 1  # runs to its verdicts: the conditions fail
        with localcontext() as ctx:
            ctx.prec = 6000
            assert report.data["fqq_nonzero"]["fqq"] == str(Decimal(2) ** 16001)
        assert len(emit_report(report, "text")) > 4300

    @pytest.mark.parametrize("points", [0, -2])
    def test_points_below_one_are_rejected_before_any_stage(self, points):
        with pytest.raises(AnalysisInputError) as info:
            analyze(AnalysisRequest(ode=FLAT, stages=("petrov",), points=points))
        assert info.value.code == "bad-points"

    @pytest.mark.parametrize("stages", ["inv", b"inv", ("inv", 3), None], ids=repr)
    def test_stages_that_are_not_a_list_of_names_are_rejected(self, stages):
        with pytest.raises(AnalysisInputError) as info:
            analyze(AnalysisRequest(ode=FLAT, stages=stages))
        assert info.value.code == "bad-stage"
        assert "list or tuple of names" in str(info.value)

    @pytest.mark.parametrize(
        "field, value, code",
        [
            ("points", "3", "bad-points"),
            ("points", True, "bad-points"),
            ("points", 2.0, "bad-points"),
            ("seed", "7", "bad-seed"),
            ("seed", True, "bad-seed"),
            ("seed", 7.0, "bad-seed"),
        ],
        ids=repr,
    )
    def test_a_points_or_seed_that_is_not_an_int_is_rejected(self, field, value, code):
        with pytest.raises(AnalysisInputError) as info:
            analyze(AnalysisRequest(ode=FLAT, stages=("petrov",), **{field: value}))
        assert info.value.code == code
        assert str(info.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_cli_rejects_points_below_one(self, points):
        proc = run_cli("--ode", FLAT, "--stages", "petrov", "--points", points)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["code"] == "bad-points"

    @pytest.mark.parametrize(
        "flag, first, second, code",
        [
            ("--specialize", "A=x*y", "A=y^2", "bad-specialization"),
            ("--opaque", "A:x,y", "A:x", "bad-opaque"),
        ],
    )
    def test_cli_rejects_a_repeated_name(self, flag, first, second, code):
        proc = run_cli(
            "--ode", "3/2*q^2/p + A(x,y)*p^3", "--opaque", "A:x,y", "--stages", "petrov",
            flag, first, flag, second,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["code"] == code

    @pytest.mark.parametrize(
        "declaration, name, args",
        [
            (" :x,y", "", ("x", "y")),
            ("A B:x,y", "A B", ("x", "y")),
            ("A:x,w", "A", ("x", "w")),
            ("x:x,y", "x", ("x", "y")),
            ("A':x,y", "A'", ("x", "y")),
            ("A:alpha", "A", ("alpha",)),
            ("A:z", "A", ("z",)),
            ("A:x,x", "A", ("x", "x")),
        ],
        ids=[
            "empty-name", "not-an-identifier", "unknown-argument", "coordinate-name", "primed-name",
            "fibre-argument", "adapted-chart-argument", "repeated-argument",
        ],
    )
    def test_a_bad_opaque_declaration_is_rejected(self, declaration, name, args):
        with pytest.raises(AnalysisInputError) as info:
            analyze(AnalysisRequest(ode=FLAT, opaque={name: args}))
        assert info.value.code == "bad-opaque"
        proc = run_cli("--ode", FLAT, "--opaque", declaration)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["code"] == "bad-opaque"

    def test_an_ode_that_is_not_text_is_rejected(self):
        with pytest.raises(AnalysisInputError) as info:
            analyze(AnalysisRequest(ode=3))
        assert info.value.code == "bad-ode"

    @pytest.mark.parametrize(
        "opaque", [{3: ("x",)}, {"A": 5}, {"A": "xy"}, {"A": ("x", 3)}], ids=repr
    )
    def test_a_wrongly_typed_opaque_declaration_is_rejected(self, opaque):
        with pytest.raises(AnalysisInputError) as info:
            analyze(AnalysisRequest(ode=FLAT, opaque=opaque))
        assert info.value.code == "bad-opaque"

    @pytest.mark.parametrize("text", [3, None], ids=repr)
    def test_a_specialization_that_is_not_text_is_rejected(self, text):
        with pytest.raises(AnalysisInputError) as info:
            analyze(AnalysisRequest(ode=FLAT, stages=("inv",), specializations={"A": text}))
        assert info.value.code == "bad-specialization"

    @pytest.mark.parametrize("item", [" =x", "=x", "A=", "A= ", "A"])
    def test_cli_rejects_an_empty_specialization(self, item):
        proc = run_cli("--ode", FLAT, "--stages", "inv", "--specialize", item)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["code"] == "bad-specialization"

    @pytest.mark.parametrize(
        "field, value, code",
        [
            ("opaque", None, "bad-opaque"),
            ("opaque", "xy", "bad-opaque"),
            ("specializations", None, "bad-specialization"),
            ("specializations", ("ab", ""), "bad-specialization"),
        ],
        ids=repr,
    )
    def test_a_field_that_is_not_a_mapping_is_rejected(self, field, value, code):
        with pytest.raises(AnalysisInputError) as info:
            analyze(AnalysisRequest(ode=FLAT, stages=("inv",), **{field: value}))
        assert info.value.code == code
        assert str(info.value) == f"{field} must be a mapping, got {value!r}"

    def test_out_into_a_missing_directory(self, tmp_path):
        out = tmp_path / "missing" / "report.json"
        proc = run_cli("--ode", FLAT, "--out", str(out))
        assert proc.returncode == 2
        assert proc.stdout == ""
        error = json.loads(proc.stderr)["error"]
        assert error["code"] == "bad-out"
        assert str(out) in error["message"]
        assert not out.exists()


README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# Names and texts that some field accepts, so that valid values are drawn too.
_NAME = st.sampled_from(
    ["inv", "all", "petrov", "conn", "A", "B", "C", "x", "y", "x*y", "q^2", "3/2*q^2/p", ""]
)
_HASHABLE = st.one_of(st.none(), st.integers(), st.text(max_size=4), _NAME)
_LEAF = st.one_of(_HASHABLE, st.booleans(), st.floats(allow_nan=False), st.binary(max_size=3))
# Any value a caller could put in a request field: scalars, and lists,
# tuples, dicts and sets of them.
ANY_VALUE = st.one_of(
    _LEAF,
    st.lists(_NAME, min_size=1, max_size=3),
    st.recursive(
        _LEAF,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(_HASHABLE, inner, max_size=3),
            st.frozensets(_HASHABLE, max_size=3),
            st.dictionaries(_NAME, st.one_of(_NAME, st.lists(_NAME, max_size=2).map(tuple))),
        ),
        max_leaves=10,
    ),
)

# Text built from the grammar's tokens, with A(x,y) declared: token runs,
# which mostly do not parse; well-formed expressions, which mostly have
# F_qq = 0; and well-formed right-hand sides with a q^2 term or of the
# cubic family's shape, which run the stages.
_ATOM = st.one_of(
    st.sampled_from(["x", "y", "p", "q", "A", "A_x", "A_y", "A_xy", "A(x,y)"]),
    st.integers(0, 99).map(str),
)


def _expressions(atom, max_leaves):
    return st.recursive(
        atom,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
            inner.map(lambda e: f"({e})"),
            inner.map(lambda e: f"-{e}"),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
        ),
        max_leaves=max_leaves,
    )


_WELL_FORMED = _expressions(_ATOM, 8)
_IN_XY = _expressions(
    st.one_of(st.sampled_from(["x", "y", "A", "A_x", "A(x,y)"]), st.integers(0, 9).map(str)), 3
)
ODE_TEXT = st.one_of(
    st.lists(
        st.one_of(_ATOM, st.sampled_from(["+", "-", "*", "/", "^", "(", ")", ","])), max_size=12
    ).map("".join),
    _WELL_FORMED,
    st.tuples(_WELL_FORMED, _WELL_FORMED).map(lambda t: f"({t[0]})*q^2+{t[1]}"),
    st.tuples(_IN_XY, _IN_XY, _IN_XY).map(
        lambda t: f"3/2*q^2/p+({t[0]})*p^3+({t[1]})*p^2+({t[2]})*p"
    ),
)


def _report_or_listed_refusal(**fields):
    """Build the request and analyze it: a report, or an AnalysisInputError
    whose code the README lists, is the only way out."""
    try:
        report = analyze(AnalysisRequest(**fields))
    except AnalysisInputError as exc:
        assert f"`{exc.code}`" in README, exc.code
    else:
        assert isinstance(report, AnalysisReport)
        assert report.exit_code in (0, 1, 2)


class TestRequestProperties:
    # ``points`` is read only by petrov, and nothing bounds its cost, so it
    # stays at most 3 wherever petrov can run: the base request runs petrov
    # with 3 points, and the ``points`` field varies only with ``inv``.
    BASE = dict(ode=FLAT, opaque={}, stages=("inv", "petrov"), specializations={}, points=3, seed=0)

    @pytest.mark.parametrize(
        "field", ["ode", "opaque", "stages", "specializations", "points", "seed"]
    )
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(value=ANY_VALUE)
    def test_any_field_value_gives_a_report_or_a_listed_code(self, field, value):
        fields = dict(self.BASE, **{field: value})
        if field == "points":
            fields["stages"] = ("inv",)
        _report_or_listed_refusal(**fields)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(text=ODE_TEXT)
    def test_grammar_text_gives_a_report_or_a_listed_code(self, text):
        for stages in (("inv",), ("inv", "cond", "appendix"), ("all",)):
            _report_or_listed_refusal(
                ode=text, opaque={"A": ("x", "y")}, stages=stages, points=3
            )
