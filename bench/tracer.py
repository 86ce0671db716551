"""Spans around calls into maxper's public functions, from outside.

The library is not edited.  ``Tracer.install`` replaces each traced
function with a wrapper in every maxper module that binds it, so calls
the library makes to itself (``cases.detect_period``, ``synth.period_of``,
``detect.iterate`` and so on) are traced as well.  A wrapper records one
span (name, start, end, parent span, item id) in flat arrays and adds
work counts computed from the call's arguments and return value.

A span's self time is its duration minus the durations of its direct
child spans; one thread runs everything, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter


def _n_arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_detect(c, args, kwargs, result):
    closed = hasattr(result, "period")
    c["detect.steps"] += result.period if closed else result.steps
    c["detect.closed"] += closed


def _count_rotation(c, args, kwargs, result):
    c["detect.least_rotation_index.elements"] += len(_n_arg(args, kwargs, 0, "values"))


def _count_verify(c, args, kwargs, result):
    c["detect.verify_certificate.ok"] += bool(result)


def _count_iterate(c, args, kwargs, result):
    c["orbit.iterate.steps"] += abs(_n_arg(args, kwargs, 1, "n"))


def _count_cli(c, args, kwargs, result):
    # The benchmark gives every cli.main call a fresh StringIO as stdout.
    getvalue = getattr(sys.stdout, "getvalue", None)
    if getvalue is not None:
        c["cli.stdout_bytes"] += len(getvalue().encode())


def _count_decompositions(c, args, kwargs, result):
    c["perset.candidates"] += _n_arg(args, kwargs, 0, "n") // 10
    c["perset.decompositions"] += len(result)


def _count_trace(c, args, kwargs, result):
    c["cases.blocks"] += len(result.blocks)
    c["cases.closed"] += result.status.value == "closed"


def _count_survey(c, args, kwargs, result):
    c["survey.samples"] += _n_arg(args, kwargs, 0, "config").samples


#: (module, attribute, counter) of every traced function.  The span name
#: is "module.attribute", except that classmethod from_json is
#: "detect.from_json".
TRACED = (
    ("cli", "main", _count_cli),
    ("orbit", "parse_state", None),
    ("orbit", "scale", None),
    ("orbit", "clear_denominators", None),
    ("orbit", "iterate", _count_iterate),
    ("orbit", "orbit_values", None),
    ("detect", "detect_period", _count_detect),
    ("detect", "period_of", None),
    ("detect", "least_rotation_index", _count_rotation),
    ("detect", "verify_certificate", _count_verify),
    ("detect", "PeriodCertificate.from_json", None),
    ("synth", "synthesize", None),
    ("synth", "build_gcd_route", None),
    ("cases", "trace_cycle", _count_trace),
    ("cases", "classify", None),
    ("cases", "block_evolve", None),
    ("perset", "contains", None),
    ("perset", "witness", None),
    ("perset", "periods_in_range", None),
    ("perset", "admissible_decompositions", _count_decompositions),
    ("survey", "run_survey", _count_survey),
    ("survey", "conjecture_member", None),
    ("survey", "combination_member", None),
)


def span_name(module, attr):
    return f"{module}.{attr.rpartition('.')[2]}"


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_units():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, attr, _ in TRACED:
        name = span_name(module, attr)
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [
        ("detect.steps", "count", "lower"),
        ("detect.steps_per_s", "1/s", "higher"),
        ("detect.closed_ratio", "ratio", "higher"),
        ("detect.least_rotation_index.elements", "count", "lower"),
        ("detect.verify_certificate.ok_ratio", "ratio", "higher"),
        ("orbit.iterate.steps", "count", "lower"),
        ("cli.stdout_bytes", "B", "lower"),
        ("cases.blocks", "count", "lower"),
        ("cases.closed_ratio", "ratio", "higher"),
        ("perset.candidates", "count", "lower"),
        ("perset.hit_ratio", "ratio", "higher"),
        ("survey.samples", "count", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return out


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.item = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.current_item = -1
        self._stack = []
        self._patches = []

    def begin(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.item.append(self.current_item)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        begin, finish, counts = self.begin, self.finish, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap every traced function wherever a maxper module binds it."""
        modules = [package] + [getattr(package, m) for m in
                               ("cli", "orbit", "detect", "cases", "perset", "synth", "survey")]
        for module, attr, count in TRACED:
            name = span_name(module, attr)
            home = getattr(package, module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(name, original.__func__, count))
                self._patches.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, count)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self):
        """Per span name: (calls, total self time in seconds)."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls, self_s = Counter(), Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        return calls, self_s

    def metrics(self, untraced_wall, traced_wall):
        calls, self_s = self.self_times()
        c = self.counts
        values = {}
        for module, attr, _ in TRACED:
            name = span_name(module, attr)
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
        values.update({
            "detect.steps": c["detect.steps"],
            "detect.steps_per_s": _ratio(c["detect.steps"], self_s["detect.detect_period"]),
            "detect.closed_ratio": _ratio(c["detect.closed"], calls["detect.detect_period"]),
            "detect.least_rotation_index.elements": c["detect.least_rotation_index.elements"],
            "detect.verify_certificate.ok_ratio":
                _ratio(c["detect.verify_certificate.ok"], calls["detect.verify_certificate"]),
            "orbit.iterate.steps": c["orbit.iterate.steps"],
            "cli.stdout_bytes": c["cli.stdout_bytes"],
            "cases.blocks": c["cases.blocks"],
            "cases.closed_ratio": _ratio(c["cases.closed"], calls["cases.trace_cycle"]),
            "perset.candidates": c["perset.candidates"],
            "perset.hit_ratio": _ratio(c["perset.decompositions"], c["perset.candidates"]),
            "survey.samples": c["survey.samples"],
            "trace.spans": len(self.start),
            "trace.overhead_frac": _ratio(traced_wall - untraced_wall, untraced_wall),
        })
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in per_layer_units()}

    def write(self, path):
        """All spans as gzipped TSV: name, item, parent, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\titem\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.item[i]}\t"
                          f"{self.parent[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
