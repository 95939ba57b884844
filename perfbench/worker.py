"""One benchmark worker: a fresh interpreter started by ``run.py``.

    python3 perfbench/worker.py {setup|run|trace} WORKLOAD SEED SECONDS TRACE_DIR

``setup`` imports odecartan, builds the request set, prints "ready" and
exits (``run.py`` times it).  ``run`` sends whole passes over the request
set, one request at a time, until SECONDS have passed, and times each
request with no instrumentation.  ``trace`` sends one pass with the
per-layer wrappers installed.  Both print one JSON line at the end.

Between requests, after the request's objects are dropped, the worker
times the reference kernel (in a fresh interpreter for the cli workload),
so each request time can be divided by the mean of the kernel times just
before and just after it.
"""

import gc
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import refkernel  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, merge  # noqa: E402

import odecartan  # noqa: E402  (on PYTHONPATH, set by run.py)

WARMUP = workloads.Request("warmup", "3/2*q^2/p", "inv,cond")
# A CLI request that runs longer has hung; it is killed and counted as
# failed.  With a timeout, subprocess reads the pipes until the child closes
# them and only then polls for its exit, so the time stays exact.
CHILD_TIMEOUT_S = 60


def _cli_child(argv, trace_out=None):
    """Command line for one ``odecartan analyze`` process; with ``trace_out``
    the process runs the same CLI under the wrappers (``tracecli.py``)."""
    if trace_out is None:
        return [sys.executable, "-m", "odecartan", *argv]
    return [sys.executable, os.path.join(HERE, "tracecli.py"), trace_out, *argv]


class Worker:
    def __init__(self, workload, seed):
        self.workload = workload
        self.requests = workloads.requests(workload, seed)
        # a process is measured against a process, in-process work in process
        self.reference = refkernel.timed_process if workload == "cli" else refkernel.timed_kernel
        self.digests = check.load_digests()
        self.failures = []
        self.attempted = 0

    def send(self, req, trace_out=None):
        """Send one request; returns (seconds, exit code, document)."""
        if self.workload == "cli":
            start = time.perf_counter()
            proc = subprocess.run(_cli_child(req.argv(), trace_out), cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S, check=False)
            seconds = time.perf_counter() - start
            return seconds, proc.returncode, proc.stdout
        start = time.perf_counter()
        report = odecartan.analyze(req.analysis_request(odecartan))
        document = odecartan.emit_report(report, req.fmt)
        return time.perf_counter() - start, report.exit_code, document

    def one(self, req, trace_out=None):
        """Send and check one request; returns its seconds (None on failure)."""
        self.attempted += 1
        try:
            seconds, code, document = self.send(req, trace_out)
        except Exception as exc:  # a request that raises is a failed request
            self.failures.append({"kind": req.kind, "request": req.key, "why": [repr(exc)]})
            return None
        why = check.problems(req, code, document, self.digests)
        if why:
            self.failures.append({"kind": req.kind, "request": req.key, "why": why})
        return seconds

    def one_pass(self, kernel_times, trace_out=None, tracer=None):
        """Send every request once; returns
        [(index, kind, seconds, kernel before, kernel after)]."""
        samples = []
        for i, req in enumerate(self.requests):
            if tracer is not None:
                tracer.request = i
            seconds = self.one(req, trace_out and os.path.join(trace_out, f"{i}"))
            gc.collect()
            kernel_times.append(self.reference())
            if seconds is not None:
                samples.append((i, req.kind, seconds, kernel_times[-2], kernel_times[-1]))
        return samples

    def warm_up(self):
        self.reference()
        if self.workload == "cli":
            subprocess.run(_cli_child(WARMUP.argv()), cwd=ROOT, capture_output=True,
                           timeout=CHILD_TIMEOUT_S, check=False)
        else:
            odecartan.emit_report(odecartan.analyze(WARMUP.analysis_request(odecartan)))
        gc.collect()
        return [self.reference()]


def _peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(worker, seconds):
    """Whole passes until ``seconds`` have passed and at least
    ``workloads.SAMPLE_PASSES`` passes are done; one pass if ``seconds`` is 0."""
    kernel_times = worker.warm_up()
    passes = []
    deadline = time.perf_counter() + seconds
    least = workloads.SAMPLE_PASSES[worker.workload] if seconds else 1
    while len(passes) < least or time.perf_counter() < deadline:
        passes.append(worker.one_pass(kernel_times))
    return {"passes": passes}


def trace(worker, trace_dir):
    kernel_times = worker.warm_up()
    os.makedirs(trace_dir, exist_ok=True)
    if worker.workload == "cli":
        # each child installs the wrappers itself and writes <i>.json
        samples = worker.one_pass(kernel_times, trace_out=trace_dir)
        agg = {}
        for i in range(len(worker.requests)):
            with open(os.path.join(trace_dir, f"{i}.json"), encoding="utf-8") as fh:
                merge(agg, json.load(fh))
    else:
        tracer = Tracer()
        tracer.install()
        try:
            samples = worker.one_pass(kernel_times, tracer=tracer)
        finally:
            tracer.restore()
        agg = tracer.results()
        tracer.write_spans(os.path.join(trace_dir, "spans.tsv"))
    return {"passes": [samples], "layers": agg}


def main(argv):
    mode, workload, seed, seconds, trace_dir = argv
    if mode == "setup":
        workloads.requests(workload, int(seed))
        print("ready", flush=True)
        return 0
    worker = Worker(workload, int(seed))
    if mode == "run":
        out = run(worker, float(seconds))
    else:
        out = trace(worker, trace_dir)
    out.update(
        attempted=worker.attempted,
        failures=worker.failures,
        peak_rss_mb=_peak_rss_mb(workload),
        hash_seed=os.environ.get("PYTHONHASHSEED"),
        requests=[r.key for r in worker.requests],
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
