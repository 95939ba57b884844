"""Recorded report digests of every in-process request.

``perfbench/digests.json`` holds the sha256 of every benchmark request's
report, without its wall-clock ``timings``, and ``perfbench/check.py``
computes it.  Here every request of the ``family`` and ``rational``
workloads (``workloads.domain``, 153 requests: the family shapes at every
Petrov seed, and the non-family ``inv,cond,appendix`` shapes) runs in
process and must give its recorded digest, so a change that alters the
bytes of any of those reports fails the suite, not only the benchmark.
Three requests of the ``cli`` workload pin the text view too, whose
metric and connection lines are read off the same sections.  The wrappers
of the benchmark's ``--trace`` mode (``perfbench/spans.py``) must still
find every target they name and leave a report unchanged.  The
``perfbench`` modules are loaded read-only.
"""

import importlib.util
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
    """Every request of the ``family`` and ``rational`` domains, once each."""
    return list(dict.fromkeys(workloads.domain("family") + workloads.domain("rational")))


def _text_requests():
    """flat and two generic pairs of the ``cli`` workload, in the text format."""
    a, b, seeds = workloads.GENERIC_A, workloads.GENERIC_B, workloads.PETROV_SEEDS
    return [
        workloads.flat(0, "text"),
        workloads.generic(a[1], b[2], seeds[3], fmt="text"),
        workloads.generic(a[3], b[0], seeds[1], fmt="text"),
    ]


def _request_id(req):
    detail = " ".join(text for _, text in req.specializations) or req.ode
    return f"{req.kind}[{detail}] seed {req.seed}" + (" text" if req.fmt == "text" else "")


@pytest.fixture(scope="module")
def digests():
    return check.load_digests()


@pytest.mark.parametrize("req", _in_process_requests() + _text_requests(), ids=_request_id)
def test_family_report_matches_its_recorded_digest(req, digests):
    report = odecartan.analyze(req.analysis_request(odecartan))
    document = odecartan.emit_report(report, req.fmt)
    assert check.problems(req, report.exit_code, document, digests) == []


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
