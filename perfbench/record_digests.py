"""Record the report digest of every request any seed can produce.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run once at the commit that defines the benchmark; ``digests.json`` then
pins every report (minus ``timings``) byte for byte, which is the
"same behaviour" contract later changes are held to.  Re-record only in a
change whose purpose is to alter reports, and say so in that change.  It
also prints each request's seconds and any disagreement with the paper's
facts (recorded all the same: a digest pins behaviour, it does not bless it).
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

import odecartan  # noqa: E402


def main():
    digests = {}
    for workload in workloads.WORKLOADS:
        for req in workloads.domain(workload):
            if req.key in digests:
                continue
            start = time.perf_counter()
            report = odecartan.analyze(req.analysis_request(odecartan))
            document = odecartan.emit_report(report, req.fmt)
            seconds = time.perf_counter() - start
            digests[req.key] = check.digest(report.exit_code, document, req.fmt)
            why = check.problems(req, report.exit_code, document, digests)
            print(f"{workload:9s} {seconds:7.3f}s {req.kind:12s} {req.key}", flush=True)
            for line in why:
                print(f"    DISAGREES: {line}", flush=True)
    with open(check.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {check.DIGESTS_PATH}")


if __name__ == "__main__":
    main()
