"""Seeded request sets of the three workloads.

A workload seed picks one request set; a run sends that set again and
again (one "pass" at a time).  Every request a seed can produce comes
from a small finite domain (``domain(workload)``), so the report digest
of each one can be recorded once (``record_digests.py``) and checked on
every run.

Why these workloads (README.md has the full map):

* ``family``   the paper's main path: the cubic family, flat, opaque and
               specialised.  Pipeline, forms and curvature work dominate;
               ``poly_gcd`` is a fraction of a percent.
* ``rational`` right-hand sides with non-monomial denominators, where
               ``poly_gcd`` and its pseudo-remainder sequence take most of
               the time.  Only shapes that finish at the seed commit.
* ``cli``      one fresh ``python -m odecartan analyze`` per request, both
               output formats and the three exit-2 paths: what a command
               line user pays, including interpreter start and import.
"""

import json
import random
from dataclasses import dataclass, field

FAMILY_ODE = "3/2*q^2/p + A(x,y)*p^3 + C(x,y)*p^2 + B(x,y)*p"
FAMILY_OPAQUE = (("A", ("x", "y")), ("B", ("x", "y")), ("C", ("x", "y")))
OPAQUE_STAGES = "inv,cond,metric,einstein,conn,appendix"

# Specialisations of the family.  "generic" pairs have A depending on x
# and B on y (paper: Petrov type D+II); "separable" pairs are A(y), B(x)
# (paper: D+D).
GENERIC_A = ("x*y", "x + y", "x^2 - y", "2*x*y + 1")
GENERIC_B = ("x + y", "y^2 + x", "3*y")
SEPARABLE_A = ("y^2", "y", "2*y^2 + 1", "y^2 - y")
SEPARABLE_B = ("x^2", "x", "x^2 - 3", "2*x + 1")
PETROV_SEEDS = (0, 1, 2, 3)

# Shapes with non-monomial denominators that finish at the seed commit.
# Costs there, on one core: POLE 2.5-3.5 s, POLE_LINEAR 1.3-2 s, SHIFTED and
# FAMILY_POLE 0.45-0.7 s.  Denominators stay monic in p and shifts stay in
# x: "3/2*q^2/(2*p+1) + p" and "3/2*q^2/(p+1) + y*(p+1)^3" ran for over 25 s
# (README.md lists what is left out).
POLE = tuple(f"{c}q^2/(p+{b})" for c in ("", "2*") for b in (1, 2, 3))
POLE_LINEAR = tuple(f"3/2*q^2/(p+{b}) + {d}p" for b in (1, 2, 3) for d in ("", "2*", "3*"))
SHIFTED = tuple(f"3/2*q^2/(p+{b}) + x*(p+{b})^3" for b in (1, 2, 3)) + (
    "3/2*q^2/(p+1) + 2*x*(p+1)^3",
    "3/2*q^2/(p+1) + x^2*(p+1)^3",
)
# The cubic family with a non-monomial denominator in A, run through every
# stage, so the curvature, Petrov and connection layers also see rational
# coefficients on this workload.
FAMILY_POLE = tuple(
    f"3/2*q^2/p + {a}*p^3 + {b}*p"
    for a in ("x/(y+1)", "y/(x+1)")
    for b in ("(x + y)", "x*y")
)
RATIONAL_STAGES = "inv,cond,appendix"

CLI_PARSE_ERRORS = ("3*//q", "q^", "(p+q", "p*$q")


@dataclass(frozen=True)
class Request:
    """One request plus the facts its answer must show."""

    kind: str
    ode: str
    stages: str
    opaque: tuple = ()
    specializations: tuple = ()
    seed: int = 0
    fmt: str = "json"
    exit_code: int = 0
    facts: tuple = field(default=(), compare=False)

    def argv(self):
        """Arguments of ``odecartan analyze`` for this request."""
        args = ["analyze", "--ode", self.ode, "--stages", self.stages]
        for name, params in self.opaque:
            args += ["--opaque", f"{name}:{','.join(params)}"]
        for name, text in self.specializations:
            args += ["--specialize", f"{name}={text}"]
        return args + ["--seed", str(self.seed), "--format", self.fmt]

    @property
    def key(self):
        """Stable identifier, used to look up the recorded digest."""
        return json.dumps(self.argv())

    def analysis_request(self, odecartan):
        return odecartan.AnalysisRequest(
            ode=self.ode,
            opaque=dict(self.opaque),
            stages=tuple(self.stages.split(",")),
            specializations=dict(self.specializations),
            seed=self.seed,
        )


def _family(kind, ode, stages, specs=(), seed=0, fmt="json", opaque=FAMILY_OPAQUE, petrov=None):
    facts = ["family"]
    if petrov:
        facts.append("petrov:" + petrov)
    return Request(kind, ode, stages, opaque, tuple(specs), seed, fmt, 0, tuple(facts))


def flat(seed=0, fmt="json"):
    return _family("flat", "3/2*q^2/p", "all", seed=seed, fmt=fmt, opaque=(), petrov="D+D")


def opaque_family():
    return _family("opaque", FAMILY_ODE, OPAQUE_STAGES)


def generic(a, b, seed, fmt="json"):
    return _family("generic", FAMILY_ODE, "all", (("A", a), ("B", b)), seed, fmt, petrov="D+II")


def separable(a, b, seed, fmt="json"):
    return _family("separable", FAMILY_ODE, "all", (("A", a), ("B", b)), seed, fmt, petrov="D+D")


def rational(kind, ode, seed=0):
    """Non-family shapes: the conditions fail (exit 1) unless the shape is
    the family after the point change y -> y - b*x (exit 0)."""
    if kind == "family-pole":
        return _family(kind, ode, "all", seed=seed, opaque=(), petrov="D+II")
    held = kind == "shifted"
    return Request(kind, ode, RATIONAL_STAGES, exit_code=0 if held else 1,
                   facts=("conditions:" + ("hold" if held else "fail"),))


def non_family(ode, fmt, stages="inv,cond"):
    return Request("non-family", ode, stages, fmt=fmt, exit_code=1,
                   facts=("conditions:fail",))


def error(kind, ode, stages, code):
    return Request(kind, ode, stages, exit_code=2, facts=("error:" + code,))


def requests(workload, seed):
    """The request set of one pass, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "family":
        # Every generic pair, each with Petrov points from the seed: which
        # pairs a seed drew would otherwise move the tail by several %.
        out = [flat(rng.choice(PETROV_SEEDS)), opaque_family()]
        out += [generic(a, b, rng.choice(PETROV_SEEDS)) for a in GENERIC_A for b in GENERIC_B]
        a, b = rng.choice(SEPARABLE_A), rng.choice(SEPARABLE_B)
        out.append(separable(a, b, rng.choice(PETROV_SEEDS)))
        rng.shuffle(out)
        return out
    if workload == "rational":
        # Five of the eight requests are 3/2*q^2/(p+b) + d*p, whose costs
        # agree within noise, so the median and the tail (n = 32, p68) fall
        # inside that class for every seed.
        out = [
            rational("shifted", rng.choice(SHIFTED)),
            rational("family-pole", rng.choice(FAMILY_POLE), rng.choice(PETROV_SEEDS)),
            rational("pole", rng.choice(POLE)),
        ]
        out += [rational("pole-linear", ode) for ode in rng.sample(POLE_LINEAR, 5)]
        rng.shuffle(out)
        return out
    if workload == "cli":
        a, b = rng.choice(GENERIC_A), rng.choice(GENERIC_B)
        spec_seed = rng.choice(PETROV_SEEDS)
        out = []
        for fmt in ("json", "text"):
            out += [
                flat(0, fmt),
                non_family("q^2", fmt),
                non_family("q^3 + y*p", fmt),
                non_family("q^3 + y*p", fmt, "inv"),
                generic(a, b, spec_seed, fmt),
            ]
        out += [
            error("parse-error", rng.choice(CLI_PARSE_ERRORS), "inv", "parse-error"),
            error("degenerate", "y", "inv", "degenerate-ode"),
            error("family-stage", "q^2", "metric", "family-rejected"),
        ]
        rng.shuffle(out)
        return out
    raise ValueError(f"unknown workload {workload!r}")


def domain(workload):
    """Every request ``requests(workload, seed)`` can return, for any seed."""
    if workload == "family":
        out = [flat(s) for s in PETROV_SEEDS] + [opaque_family()]
        out += [generic(a, b, s) for a in GENERIC_A for b in GENERIC_B for s in PETROV_SEEDS]
        out += [separable(a, b, s) for a in SEPARABLE_A for b in SEPARABLE_B for s in PETROV_SEEDS]
        return out
    if workload == "rational":
        shapes = (("pole", POLE), ("pole-linear", POLE_LINEAR), ("shifted", SHIFTED),
                  ("family-pole", FAMILY_POLE))
        out = [rational(kind, ode) for kind, pool in shapes for ode in pool]
        return out + [rational("family-pole", ode, s) for ode in FAMILY_POLE
                      for s in PETROV_SEEDS[1:]]
    if workload == "cli":
        out = []
        for fmt in ("json", "text"):
            out += [flat(0, fmt), non_family("q^2", fmt), non_family("q^3 + y*p", fmt),
                    non_family("q^3 + y*p", fmt, "inv")]
            out += [generic(a, b, s, fmt) for a in GENERIC_A for b in GENERIC_B
                    for s in PETROV_SEEDS]
        out += [error("parse-error", t, "inv", "parse-error") for t in CLI_PARSE_ERRORS]
        out += [error("degenerate", "y", "inv", "degenerate-ode"),
                error("family-stage", "q^2", "metric", "family-rejected")]
        return out
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("family", "rational", "cli")

# Latency percentiles are taken over exactly this many whole passes, so the
# sample count n, and with it the tail percentile, is the same in every run
# (n = passes x requests per pass: 90, 32 and 65).  A run takes at least
# this many passes: 20-55 s on one core.  More passes make the figures of a
# run steadier; these keep the longest run under a minute.
SAMPLE_PASSES = {"family": 6, "rational": 4, "cli": 5}
