"""odecartan benchmark.

    python3 perfbench/run.py --workload {family,rational,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; odecartan is imported from ./src.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  Each metric is printed by name with its unit, and the
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Every worker is a fresh interpreter with PYTHONHASHSEED pinned (set
iteration order, and with it the GCD's choice of main variable and the
layer counts, depend on it).  Latencies are in "ref" units: request time
divided by the stdlib reference kernel timed next to it (refkernel.py);
raw seconds and ``ref_kernel_s`` are printed beside each.  A worker that
runs past its time limit is killed and the run is reported as failed.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
HASH_SEED = "0"
SETUP_SAMPLES = 9
# setup_s is given in seconds at the speed where the reference process
# (refkernel.timed_process) takes this long: its median on the 2-core
# x86-64 machine, Python 3.11, where the benchmark was defined.
REF_PROCESS_S = 0.1
# A worker is killed, and the run fails, when it takes longer than
# --seconds plus this many seconds for each pass it may have to finish:
# about three times the slowest pass measured on that machine (5, 12 and
# 6 s for family, rational and cli, reference timings included), and short
# enough that a run at the usual --seconds 20 ends within three minutes.
PASS_CEILING_S = {"family": 15, "rational": 30, "cli": 15}

sys.path.insert(0, HERE)
import refkernel  # noqa: E402
import workloads  # noqa: E402

# per-layer metric -> (unit, figure taken from the traced pass)
LAYER_METRICS = {
    "poly.gcd_calls": ("count", lambda a: a["poly.gcd_calls"]),
    "poly.gcd_s": ("s", lambda a: a["poly.gcd_s"]),
    "poly.gcd_share": ("share", lambda a: a["poly.gcd_s"] / a["report.analyze_s"]),
    "poly.gcd_nontrivial_ratio": ("ratio", lambda a: a["poly.gcd_nontrivial"] / a["poly.gcd_calls"]),
    "poly.gcd_max_terms": ("terms", lambda a: a["poly.gcd_max_terms"]),
    "poly.mul_calls": ("count", lambda a: a["poly.mul_calls"]),
    "poly.mul_self_s": ("s", lambda a: a["poly.mul_self_s"]),
    "expression.new_calls": ("count", lambda a: a["expression.new_calls"]),
    "expression.normalize_self_s": ("s", lambda a: a["expression.normalize_self_s"]),
    "expression.max_terms": ("terms", lambda a: a["expression.max_terms"]),
    "expression.differentiate_calls": ("count", lambda a: a["expression.differentiate_calls"]),
    "linalg.invert_calls": ("count", lambda a: a["linalg.invert_calls"]),
    "linalg.invert_s": ("s", lambda a: a["linalg.invert_s"]),
    "forms.d_calls": ("count", lambda a: a["forms.d_calls"]),
    "forms.d_s": ("s", lambda a: a["forms.d_s"]),
    "forms.wedge_calls": ("count", lambda a: a["forms.wedge_calls"]),
    "forms.wedge_s": ("s", lambda a: a["forms.wedge_s"]),
    "forms.expand_2_calls": ("count", lambda a: a["forms.expand_2_calls"]),
    "forms.expand_2_s": ("s", lambda a: a["forms.expand_2_s"]),
    "curvature.metric_calls": ("count", lambda a: a["curvature.metric_calls"]),
    "curvature.tensors_calls": ("count", lambda a: a["curvature.tensors_calls"]),
    "curvature.tensors_s": ("s", lambda a: a["curvature.tensors_s"]),
    "petrov.points_classified": (
        "count", lambda a: a["petrov.classify_calls"] - a.get("petrov.classify_raised", 0)),
    "petrov.points_skipped": ("count", lambda a: a.get("petrov.classify_raised", 0)),
    "petrov.classify_s": ("s", lambda a: a["petrov.classify_s"]),
    "connection.metric_report_s": ("s", lambda a: a["connection.metric_report_s"]),
    "connection.cartan_report_s": ("s", lambda a: a["connection.cartan_report_s"]),
    "parse.calls": ("count", lambda a: a["parse_calls"]),
    "parse.s": ("s", lambda a: a["parse_s"]),
    "report.emit_s": ("s", lambda a: a["report.emit_s"]),
    "report.bytes": ("B", lambda a: a["report.bytes"]),
}
LAYER_METRICS.update({
    f"stage.{stage}_s": ("s", lambda a, k=f"stage.{stage}_s": a.get(k, 0.0))
    for stage in ("pre", "inv", "cond", "metric", "einstein", "petrov", "conn", "appendix")
})
# Figures that must repeat exactly between two traced runs at one hash
# seed.  report.bytes is left out: the JSON holds the wall-clock timings.
EXACT = ("_calls", "_raised", "max_terms", "poly.gcd_nontrivial", "trace.patched", "trace.leaked")


def worker(mode, args, seconds, trace_dir=""):
    """Run one worker to the end; returns its JSON result.  Raises
    ``subprocess.TimeoutExpired`` once the worker and its children are
    killed for running past the limit."""
    cmd = [sys.executable, WORKER, mode, args.workload, str(args.seed), str(seconds), trace_dir]
    least = workloads.SAMPLE_PASSES[args.workload] if seconds else 1
    # a pass that starts just before the deadline still runs to its end
    limit = seconds + (least + 1) * PASS_CEILING_S[args.workload]
    # its own session, so that a cli worker's child is killed with it
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker {mode} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def time_to_ready(cmd):
    """Seconds from starting ``cmd`` until it prints its first line."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"{cmd[1:]} did not become ready (exit {proc.returncode})")
    return seconds


def setup_time(args):
    """Median set-up time: raw seconds, and in seconds at the reference
    speed (each set-up divided by the mean of the reference-process times
    just before and just after it, times ``REF_PROCESS_S``)."""
    cmd = [sys.executable, WORKER, "setup", args.workload, str(args.seed), "0", ""]
    refs, raw, scaled = [refkernel.timed_process()], [], []
    for _ in range(SETUP_SAMPLES):
        raw.append(time_to_ready(cmd))
        refs.append(refkernel.timed_process())
        scaled.append(raw[-1] / ((refs[-2] + refs[-1]) / 2) * REF_PROCESS_S)
    return statistics.median(scaled), statistics.median(raw), statistics.median(refs)


def tail(values):
    """(percentile, value): the highest percentile with >= 10 samples beyond
    it (nearest rank); the maximum when there are 10 samples or fewer."""
    v = sorted(values)
    n = len(v)
    for p in range(99, 0, -1):
        k = math.ceil(p * n / 100) - 1
        if n - 1 - k >= 10:
            return p, v[k]
    return 100, v[-1]


def latency(result, sample_passes):
    """Reference-normalised latency figures of a worker result.

    Percentiles are over the first ``sample_passes`` passes.  ``pass`` sums,
    over the requests of the set, each request's median over all passes:
    one slow sample moves it less than it moves a median of pass sums."""
    ref, raw, kern, by_kind = [], [], [], {}
    per_request = {}
    for i, samples in enumerate(result["passes"]):
        for index, kind, seconds, before, after in samples:
            k = (before + after) / 2
            per_request.setdefault(index, []).append((seconds / k, seconds))
            if i < sample_passes:
                ref.append(seconds / k)
                raw.append(seconds)
                kern.append(k)
                by_kind.setdefault(kind, []).append(seconds / k)
    p, tail_value = tail(ref)
    return {
        "n": len(ref),
        "p50": statistics.median(ref),
        "p50_raw": statistics.median(raw),
        "tail_p": p,
        "tail": tail_value,
        "tail_raw": tail(raw)[1],
        "pass": sum(statistics.median(r for r, _ in v) for v in per_request.values()),
        "pass_raw": sum(statistics.median(s for _, s in v) for v in per_request.values()),
        "passes": len(result["passes"]),
        "kernel": statistics.median(kern),
        "by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
    }


def end_to_end(args):
    setup, setup_raw, setup_ref = setup_time(args)
    result = worker("run", args, args.seconds)
    n_requests = len(result["requests"])
    lat = latency(result, workloads.SAMPLE_PASSES[args.workload])
    attempted, failures = result["attempted"], result["failures"]
    k = lat["kernel"]
    print(f"workload {args.workload} seed {args.seed}: {n_requests} requests per pass, "
          f"{lat['passes']} passes, n={lat['n']}, PYTHONHASHSEED={result['hash_seed']}")
    print(f"latency_p50_ref  {lat['p50']:.4f} ref  (raw {lat['p50_raw']:.4f} s, "
          f"ref_kernel_s {k:.5f} s)")
    print(f"latency_tail_ref {lat['tail']:.4f} ref  (p{lat['tail_p']} of n={lat['n']}; "
          f"raw {lat['tail_raw']:.4f} s, ref_kernel_s {k:.5f} s)")
    print(f"pass_ref         {lat['pass']:.3f} ref  ({n_requests} requests; raw "
          f"{lat['pass_raw']:.3f} s, ref_kernel_s {k:.5f} s)")
    print("  median by kind: " + ", ".join(f"{kind} {v:.2f}" for kind, v in lat["by_kind"].items()))
    print(f"setup_s          {setup:.4f} s  (at the reference speed, median of "
          f"{SETUP_SAMPLES}; raw {setup_raw:.4f} s, reference process {setup_ref:.4f} s "
          f"against {REF_PROCESS_S} s)")
    print(f"peak_rss_mb      {result['peak_rss_mb']:.1f} MB")
    ok = (attempted - len(failures)) / attempted
    print(f"ok_share         {ok:.4f}  (failed_share {len(failures)}/{attempted})")
    metrics = {
        "latency_p50_ref": (lat["p50"], "ref"),
        "latency_tail_ref": (lat["tail"], "ref"),
        "pass_ref": (lat["pass"], "ref"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_share": (ok, "share"),
    }
    return attempted, failures, metrics, result["requests"]


def cli_start_costs():
    """Median seconds of a bare interpreter and of ``import odecartan``."""
    def run(code):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        return time.perf_counter() - start

    bare = statistics.median(run("pass") for _ in range(SETUP_SAMPLES))
    imported = statistics.median(run("import odecartan") for _ in range(SETUP_SAMPLES))
    return bare, imported - bare


def per_layer(args):
    untraced = worker("run", args, 0)
    n_requests = len(untraced["requests"])
    traced = [worker("trace", args, 0, os.path.join(TRACE_DIR, f"{args.workload}-{r}"))
              for r in "ab"]
    attempted, failures = untraced["attempted"], untraced["failures"]
    for t in traced:
        attempted += t["attempted"]
        failures += t["failures"]
    a, b = (t["layers"] for t in traced)
    exact = sorted(k for k in set(a) | set(b) if any(k.endswith(e) for e in EXACT))
    differ = [k for k in exact if a.get(k) != b.get(k)]
    if differ:
        failures.append({"kind": "trace", "why": [f"{k}: {a.get(k)} vs {b.get(k)}" for k in differ]})
    if a.get("trace.leaked") or b.get("trace.leaked") or not a.get("trace.patched"):
        failures.append({"kind": "trace", "why": ["wrappers not installed or not removed"]})
    base = latency(untraced, 1)
    traced_pass = statistics.mean(latency(t, 1)["pass"] for t in traced)
    interpreter, imports = cli_start_costs()
    metrics = {}
    for name, (unit, figure) in LAYER_METRICS.items():
        metrics[name] = (statistics.mean((figure(a), figure(b))), unit)
    metrics["cli.interpreter_s"] = (interpreter, "s")
    metrics["cli.import_s"] = (imports, "s")
    metrics["ref_kernel_s"] = (base["kernel"], "s")
    metrics["trace.overhead_ratio"] = (traced_pass / base["pass"], "ratio")
    print(f"workload {args.workload} seed {args.seed}: one traced pass of {n_requests} "
          f"requests, twice; PYTHONHASHSEED={untraced['hash_seed']}; "
          f"{len(exact)} exact counts compared, {len(differ)} differ; "
          f"{a['trace.patched']} bindings patched, {a['trace.leaked']} left after restore")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    return attempted, failures, metrics, untraced["requests"]


def seed_selftest(workload, seed, worker_keys):
    """The same seed must give the same request set, here and in the worker
    (another process, another hash seed), and other seeds others (the cli
    set has few variants, so two neighbouring seeds may agree)."""
    def keys(s):
        return tuple(r.key for r in workloads.requests(workload, s))
    if not keys(seed) == keys(seed) == tuple(worker_keys):
        return ["one seed gave two different request sets"]
    if all(keys(seed + d) == keys(seed) for d in range(1, 9)):
        return [f"seeds {seed} to {seed + 8} gave the same request set"]
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "odecartan", "__init__.py")):
        sys.exit(f"odecartan sources not found under {SRC}")
    # inherited by every worker, CLI child and reference process
    os.environ.update(PYTHONPATH=SRC, PYTHONHASHSEED=HASH_SEED)
    try:
        attempted, failures, metrics, worker_keys = (per_layer if args.trace else end_to_end)(args)
    except subprocess.TimeoutExpired as exc:
        print(f"FAILED timeout: worker {exc.cmd[2]} killed after {exc.timeout:.0f} s")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return
    failures += [{"kind": "selftest", "why": [w]}
                 for w in seed_selftest(args.workload, args.seed, worker_keys)]
    for f in failures:
        print(f"FAILED {f.get('kind')}: {f.get('request', '')} {'; '.join(f['why'])}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
