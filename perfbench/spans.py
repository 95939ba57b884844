"""Per-layer tracing, installed from outside the package.

``Tracer.install`` wraps the public functions of each odecartan layer.  A
module function is replaced in every loaded odecartan module that bound
it by name (``from .poly import poly_gcd`` makes a second binding in
``expression`` and ``linalg``), a method on its class.  ``restore`` puts
every original object back and ``leaks`` proves it, so no wrapper can
reach a timed run.

Three kinds of wrapper:

* span:  records (request, id, parent id, name, start, end) in memory;
         self time is a span's duration minus its child spans.
* timer: call count and total time only, for the hottest function
         (``Poly.__mul__``, ~70k calls per rational request), where a span
         per call would cost more than the call.
* count: call count only.
"""

import os
import sys
import time
from collections import defaultdict

_MARK = "_perfbench_wraps"


def _gcd_after(tracer, args, result):
    a, b = args
    tracer.counts["poly.gcd_nontrivial"] += not result.is_const
    tracer.peak("poly.gcd_max_terms", max(len(a), len(b)))


def _expression_after(tracer, args, result):
    self = args[0]
    tracer.peak("expression.max_terms", len(self.num) + len(self.den))


def _emit_after(tracer, args, result):
    tracer.counts["report.bytes"] += len(result.encode())


def _analyze_after(tracer, args, result, seconds):
    timings = result.data["timings"]
    for stage, t in timings.items():
        tracer.times[f"stage.{stage}_s"] += t
    tracer.times["stage.pre_s"] += seconds - sum(timings.values())


# (module, attribute or Class.method, kind, metric prefix, options)
TARGETS = (
    ("poly", "poly_gcd", "span", "poly.gcd", {"outermost": True, "after": _gcd_after}),
    ("poly", "Poly.__mul__", "timer", "poly.mul", {}),
    ("expression", "Expression.__init__", "count", "expression.new",
     {"after": _expression_after}),
    ("expression", "_normalize", "span", "expression.normalize", {}),
    ("expression", "Expression.differentiate", "count", "expression.differentiate", {}),
    ("linalg", "invert_matrix", "span", "linalg.invert", {}),
    ("forms", "DifferentialForm.exterior_derivative", "span", "forms.d", {}),
    ("forms", "DifferentialForm.wedge", "span", "forms.wedge", {}),
    ("forms", "Coframe.expand_2", "span", "forms.expand_2", {}),
    ("curvature", "metric_from_family", "span", "curvature.metric", {}),
    ("curvature", "curvature_tensors", "span", "curvature.tensors", {}),
    ("petrov", "classify_at_point", "span", "petrov.classify", {}),
    ("connection", "metric_connection_report", "span", "connection.metric_report", {}),
    ("connection", "cartan_connection_report", "span", "connection.cartan_report", {}),
    ("parse", "parse_expression", "span", "parse", {}),
    ("report", "emit_report", "span", "report.emit", {"after": _emit_after}),
    ("report", "analyze", "span", "report.analyze", {"after_timed": _analyze_after}),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.maxima = defaultdict(int)
        self.request = 0
        self._stack = []
        self._patches = []

    def peak(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, outermost=False, after=None, after_timed=None):
        tracer = self
        clock = time.perf_counter
        depth = [0]

        def wrapper(*args, **kwargs):
            if outermost and depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            tracer.counts[name + "_calls"] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + "_raised"] += 1
                raise
            finally:
                end = clock()
                tracer._stack.pop()
                depth[0] -= 1
                tracer.spans[sid] = (tracer.request, sid, parent, name, start, end)
            if after is not None:
                after(tracer, args, result)
            if after_timed is not None:
                after_timed(tracer, args, result, end - start)
            return result

        return wrapper

    def _timer(self, name, fn):
        counts, times, clock = self.counts, self.times, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name + "_self_s"] += clock() - start
                counts[name + "_calls"] += 1

        return wrapper

    def _count(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts[name + "_calls"] += 1
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every target in every odecartan module that bound it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "odecartan" or n.startswith("odecartan."))]
        for mod_name, attr, kind, name, options in TARGETS:
            home = sys.modules["odecartan." + mod_name]
            if kind == "span":
                make = lambda fn: self._span(name, fn, **options)  # noqa: E731
            elif kind == "timer":
                make = lambda fn: self._timer(name, fn)  # noqa: E731
            else:
                make = lambda fn: self._count(name, fn, **options)  # noqa: E731
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(home, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, make(original))
                continue
            original = getattr(home, attr)
            wrapper = make(original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(wrapper, _MARK, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def leaks(self):
        """Attributes that are not the original object again (should be [])."""
        out = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
               if o.__dict__.get(a) is not orig]
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("odecartan"):
                continue
            owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if hasattr(value, _MARK):
                        out.append(f"{name}.{getattr(owner, '__name__', '')}.{attr}")
        return sorted(set(out))

    # -- results ---------------------------------------------------------------

    def results(self):
        """Additive per-layer figures: counts and times sum, ``*max_terms``
        take the maximum (see ``merge``).  ``<span>_s`` is inclusive time,
        counted for spans with no ancestor of the same name; ``*_self_s``
        subtracts child spans.  ``trace.leaked`` must be 0."""
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        child = defaultdict(float)
        for span in self.spans:
            _, _, parent, _, start, end = span
            if parent >= 0:
                child[parent] += end - start
        for span in self.spans:
            _, sid, parent, name, start, end = span
            self_time[name + "_self_s"] += (end - start) - child[sid]
            p = parent
            while p >= 0 and self.spans[p][3] != name:
                p = self.spans[p][2]
            if p < 0:
                inclusive[name + "_s"] += end - start
        out = {}
        out.update(self.counts)
        out.update(self.times)
        out.update(inclusive)
        out.update(self_time)
        out.update(self.maxima)
        out["trace.patched"] = len(self._patches)
        out["trace.leaked"] = len(self.leaks())
        return out

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tid\tparent\tname\tstart\tend\n")
            for span in self.spans:
                fh.write("\t".join(str(x) for x in span) + "\n")


def merge(into, agg):
    for name, value in agg.items():
        if name.endswith("max_terms"):
            into[name] = max(into.get(name, 0), value)
        else:
            into[name] = into.get(name, 0) + value
    return into
