"""Checks each answer against the paper's facts and against the report
digest recorded at the seed commit.

The facts come from the paper, not from the program: the structure
pattern holds and the closed-form differentials have zero residual for
every F; on the cubic family the ten conditions hold, det G = 1,
Ric = -G with scalar curvature -4, the bilinear form projects and the
connection verdicts are true; the Petrov labels are D+II for generic A, B
and D+D for A(y), B(x).  The digest covers the whole report apart from
its wall-clock ``timings`` (the byte-determinism contract).
"""

import hashlib
import json
import os
import re

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

_CONNECTION_VERDICTS = {
    "metric_connection": ("torsion_zero", "antisymmetry_zero", "curvature_matches",
                          "horizontal", "ricci_is_minus_metric"),
    "cartan_connection": ("algebra_valued", "curvature_matches", "flatness_matches_invariants"),
}


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(exit_code, document, fmt):
    """sha256 of the exit code and the report without ``timings``."""
    if fmt == "json":
        data = json.loads(document)
        data.pop("timings", None)
        document = json.dumps(data, indent=2) + "\n"
    return hashlib.sha256(f"{exit_code}\n{document}".encode()).hexdigest()


def _json_view(data, req):
    """The facts a JSON report shows, as {fact: observed value}."""
    v = {}
    if data.get("error"):
        v["error"] = data["error"]["code"]
        return v
    if _runs(req, "metric") and not data["metric"]["run"] and not data["family"]["accepted"]:
        v["error"] = "family-rejected"
    if data["structure_functions"].get("run"):
        v["structure"] = data["structure_functions"]["consistent"]
    if data["conditions"].get("run"):
        v["conditions"] = data["conditions"]["all_hold"]
    if data["appendix_residuals"].get("run"):
        v["appendix"] = data["appendix_residuals"]["all_zero"]
    if "matches_extraction" in data["invariants_kne"]:
        v["kne"] = data["invariants_kne"]["matches_extraction"]
    if data["metric"].get("run"):
        v["det"] = data["metric"]["determinant"]
        v["projects"] = data["metric"]["projectability"]["projects"]
    if data["einstein_residual_zero"].get("run"):
        e = data["einstein_residual_zero"]
        v["einstein"] = e["verdict"]
        v["scalar"] = e["scalar_curvature"]
    if data["connection"].get("run"):
        c = data["connection"]
        v["connection"] = all(c[part][k] for part, keys in _CONNECTION_VERDICTS.items()
                              for k in keys)
    if data["petrov"].get("run"):
        v["petrov"] = data["petrov"]["labels"]
    return v


_TEXT_FACTS = (
    ("error", re.compile(r"^ERROR \[([^\]]+)\]"), str),
    ("error", re.compile(r"^stage metric error \[([^\]]+)\]"), str),
    ("structure", re.compile(r"^structure functions: "), None),
    ("conditions", re.compile(r"^reduction conditions hold: (\w+)"), "bool"),
    ("appendix", re.compile(r"^closed-form differentials hold: (\w+)"), "bool"),
    ("kne", re.compile(r"^invariants match extraction: (\w+)"), "bool"),
    ("det", re.compile(r"^metric determinant: (.+); projects: \w+$"), str),
    ("projects", re.compile(r"^metric determinant: .+; projects: (\w+)$"), "bool"),
    ("einstein", re.compile(r"^Einstein \(Ric = -G\): (\w+);"), "bool"),
    ("scalar", re.compile(r"^Einstein \(Ric = -G\): \w+; scalar curvature (.+)$"), str),
    ("metric-conn", re.compile(r"^metric connection checks: (\w+)"), "bool"),
    ("cartan-conn", re.compile(r"^cartan connection checks: (\w+)"), "bool"),
    ("petrov", re.compile(r"^Petrov labels (\[.*\]) at"), "list"),
    ("exit", re.compile(r"^exit code: (\d+)"), int),
)


def _text_view(document):
    v = {}
    for line in document.splitlines():
        for fact, pattern, kind in _TEXT_FACTS:
            m = pattern.match(line)
            if not m:
                continue
            if kind is None:
                v[fact] = True
            elif kind == "bool":
                v[fact] = m.group(1) == "True"
            elif kind == "list":
                v[fact] = json.loads(m.group(1).replace("'", '"'))
            else:
                v[fact] = kind(m.group(1))
    if "metric-conn" in v:
        v["connection"] = v.pop("metric-conn") and v.pop("cartan-conn", False)
    return v


def _runs(req, stage):
    return req.stages == "all" or stage in req.stages.split(",")


def _expected(req):
    """The facts the paper fixes for this request."""
    want = {}
    for fact in req.facts:
        name, _, value = fact.partition(":")
        if name == "error":
            return {"error": value}
        if name == "conditions":
            want["conditions"] = value == "hold"
        elif name == "petrov":
            want["petrov"] = [value]
        elif name == "family":
            want.update(conditions=True, kne=True)
            if _runs(req, "metric"):
                want.update(det="1", projects=True)
            if _runs(req, "einstein"):
                want.update(einstein=True, scalar="-4")
            if _runs(req, "conn"):
                want["connection"] = True
    want["structure"] = True
    if _runs(req, "appendix"):
        want["appendix"] = True
    return want


def _same_petrov(seen, want):
    """Petrov labels compared as unordered pairs of block types."""
    def pairs(labels):
        return sorted(tuple(sorted(label.split("+"))) for label in labels)
    return isinstance(seen, list) and pairs(seen) == pairs(want)


def problems(req, exit_code, document, digests):
    """Reasons the answer is wrong; an empty list means it is right."""
    out = []
    if exit_code != req.exit_code:
        out.append(f"exit code {exit_code}, expected {req.exit_code}")
    try:
        seen = _json_view(json.loads(document), req) if req.fmt == "json" else _text_view(document)
        got = digest(exit_code, document, req.fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return out + [f"unreadable report: {exc!r}"]
    if req.fmt == "text" and seen.get("exit", exit_code) != exit_code:
        out.append(f"text report says exit code {seen['exit']}, process gave {exit_code}")
    for fact, want in _expected(req).items():
        have = seen.get(fact)
        ok = _same_petrov(have, want) if fact == "petrov" else have == want
        if not ok:
            out.append(f"{fact}: {have!r}, paper says {want!r}")
    recorded = digests.get(req.key)
    if recorded is None:
        out.append("no digest recorded for this request")
    elif recorded != got:
        out.append("report differs from the digest recorded at the seed commit")
    return out
