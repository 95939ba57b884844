"""Recorded report digests of every in-process request.

``perfbench/digests.json`` holds the sha256 of every benchmark request's
report, without its wall-clock ``timings``, and ``perfbench/check.py``
computes it.  Here every request of the ``family``, ``rational`` and
``cli`` workloads (``workloads.domain``, 214 requests once de-duplicated:
the family shapes at every Petrov seed, the non-family
``inv,cond,appendix`` shapes, and the ``cli`` requests in both formats
with its exit-2 paths) runs in process and must give its recorded digest,
so a change that alters the content or key order of any of those
reports fails the suite, not only the benchmark.  A digest is taken of
the parsed document dumped again (``check.digest``), so it does not see
separators, indentation or escaping; the bytes of every JSON document
are checked here against ``json.dumps(data, indent=2)``.  The wrappers
of the benchmark's ``--trace`` mode (``perfbench/spans.py``) must still
find every target they name and leave a report unchanged.  The
``perfbench`` modules are loaded read-only.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import odecartan

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """``perfbench/<name>.py`` as a module, writing no bytecode beside it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load("workloads")
check = _load("check")
spans = _load("spans")


def _in_process_requests():
    """Every request of every workload's domain, once each."""
    return list(dict.fromkeys(r for w in workloads.WORKLOADS for r in workloads.domain(w)))


def _request_id(req):
    detail = " ".join(text for _, text in req.specializations) or req.ode
    # a non-family F runs under two stage lists in the cli workload
    stages = f" [{req.stages}]" if req.kind == "non-family" else ""
    return f"{req.kind}[{detail}] seed {req.seed}" + stages + (" text" if req.fmt == "text" else "")


@pytest.fixture(scope="module")
def digests():
    return check.load_digests()


@pytest.mark.parametrize("req", _in_process_requests(), ids=_request_id)
def test_family_report_matches_its_recorded_digest(req, digests):
    report = odecartan.analyze(req.analysis_request(odecartan))
    document = odecartan.emit_report(report, req.fmt)
    assert check.problems(req, report.exit_code, document, digests) == []


@pytest.mark.parametrize(
    "req", [r for r in _in_process_requests() if r.fmt == "json"], ids=_request_id
)
def test_json_document_is_json_dumps_with_indent_2(req):
    report = odecartan.analyze(req.analysis_request(odecartan))
    assert odecartan.emit_report(report, "json") == json.dumps(report.data, indent=2) + "\n"


def test_traced_report_equals_the_untraced_one():
    req = workloads.generic(workloads.GENERIC_A[0], workloads.GENERIC_B[0], seed=0)
    untraced = odecartan.analyze(req.analysis_request(odecartan))
    tracer = spans.Tracer()
    try:
        tracer.install()
        traced = odecartan.analyze(req.analysis_request(odecartan))
    finally:
        tracer.restore()
    assert tracer.leaks() == []
    assert tracer.counts["report.analyze_calls"] == 1
    for report in (traced, untraced):
        del report.data["timings"]
    assert traced == untraced


# -- the slot registry: symbols met in any order give the same reports --------

_CHILD = (
    "import json, sys\n"
    "import odecartan\n"
    "out = []\n"
    "for spec in json.load(sys.stdin):\n"
    "    report = odecartan.analyze(odecartan.AnalysisRequest(**spec))\n"
    "    report.data['timings'] = {}\n"
    "    out.append(odecartan.emit_report(report))\n"
    "json.dump(out, sys.stdout)\n"
)


def _spec(req):
    return {"ode": req.ode, "opaque": dict(req.opaque), "stages": req.stages.split(","),
            "specializations": dict(req.specializations), "seed": req.seed}


def _child_reports(specs, hash_seed=0):
    """The JSON report of each request of ``specs``, ``timings`` emptied,
    from one fresh interpreter that runs them in order."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(specs),
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_one_name_declared_with_different_arguments_keeps_its_own():
    """A request that declares ``S(x)`` after one that declared ``S(x,y)``
    in the same process writes what a fresh interpreter writes for it: the
    slot registry is keyed by name, arguments and index, not by
    ``Sym.key``."""
    specs = [{"ode": ode, "opaque": {"S": args}, "stages": ["inv", "cond"]}
             for ode, args in (("q^2/(p + S) + S*p", ["x", "y"]), ("q^2/(p + S) + y*S", ["x"]))]
    together = _child_reports(specs)
    assert together == [_child_reports([spec])[0] for spec in specs]
    assert "S_y" in together[0] and "S_y" not in together[1]


def test_reports_do_not_depend_on_the_order_symbols_are_met():
    """Interpreters that meet the symbols in different orders (the
    ``rational`` domain forwards, reversed, and after a family request
    with opaque coefficients), at two hash seeds, write byte-identical
    reports."""
    rational = [_spec(r) for r in dict.fromkeys(workloads.domain("rational"))]
    first = _spec(workloads.opaque_family())
    expected = _child_reports(rational)
    for hash_seed in (0, 1):
        assert _child_reports(rational, hash_seed) == expected
        assert _child_reports(rational[::-1], hash_seed)[::-1] == expected
        assert _child_reports([first] + rational, hash_seed)[1:] == expected
