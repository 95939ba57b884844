"""``odecartan analyze`` with the per-layer wrappers installed.

    python3 perfbench/tracecli.py OUT_PREFIX analyze ARGS...

Behaves as ``python -m odecartan analyze ARGS...`` (same output, same exit
code) and writes the per-layer figures to OUT_PREFIX.json and the spans
to OUT_PREFIX.tsv.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402

import odecartan  # noqa: E402,F401
import odecartan.cli  # noqa: E402


def main(out_prefix, argv):
    tracer = Tracer()
    tracer.install()
    try:
        code = odecartan.cli.main(argv)
    finally:
        tracer.restore()
        with open(out_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(tracer.results(), fh)
        tracer.write_spans(out_prefix + ".tsv")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
