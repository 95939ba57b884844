"""The benchmark's traced pass runs cleanly on every workload.

``perfbench/run.py --trace 1`` reads each per-layer figure from the layer
keys of one traced pass, so a layer that the pass no longer reaches, or a
wrapper that no longer finds its target, fails the whole run.  Each
workload runs in its own worker process, as ``run.py`` starts it: the
per-process caches are then built inside the traced pass.
"""

import json
import os
import subprocess
import sys

import pytest

from tests.test_digests import PERFBENCH, _load

ROOT = PERFBENCH.parent
RUN = _load("run")


@pytest.mark.parametrize("workload", RUN.workloads.WORKLOADS)
def test_one_traced_pass_yields_every_layer_figure(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=RUN.HASH_SEED,
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "trace", workload, "1", "0", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    layers = result["layers"]
    assert layers["trace.patched"] > 0
    assert layers["trace.leaked"] == 0
    for name, (_, figure) in RUN.LAYER_METRICS.items():
        try:
            figure(layers)
        except (KeyError, ZeroDivisionError) as exc:
            pytest.fail(f"{name} does not compute on the {workload} layers: {exc!r}")
