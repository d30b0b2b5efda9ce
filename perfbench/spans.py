"""Spans around calls into the program, for the traced run only.

``Tracer.install`` replaces each target with a wrapper at the name its
callers look up (``planner.retract`` is what ``plan`` calls, not
``retraction.retract``), so nothing in the program changes and untraced runs
carry no wrapper at all.  Each wrapper records one span: operation number,
span id, parent span id, name, start, end and a size note taken from the
result.  Spans stay in memory and are written out when the run ends.  A
target that no longer exists is skipped and listed as missing; metrics of a
span name with no target left read 0 and are flagged as absent.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# The six verification suites, each timed by a span of the benchmark's own.
SUITES = ("collision", "partition", "retraction", "continuity", "termination", "roundtrip")


def _plan_note(p):
    return (len(p.path.segments), p.domain.name, p.hop_count)


def _segments_note(path):
    return len(path.segments)


# (module, attribute its callers look up, span name, size note of the result)
TARGETS = (
    ("fig8plan.planner", "plan", "planner.plan", _plan_note),
    ("fig8plan.cli", "plan", "planner.plan", _plan_note),
    ("fig8plan.verify", "plan", "planner.plan", _plan_note),
    ("fig8plan.planner", "validate_plan", "planner.validate_plan", None),
    ("fig8plan.cli", "validate_plan", "planner.validate_plan", None),
    ("fig8plan.planner", "plan_to_json", "planner.plan_to_json", None),
    ("fig8plan.cli", "plan_to_json", "planner.plan_to_json", None),
    ("fig8plan.planner", "retract", "retraction.retract", None),
    ("fig8plan.verify", "retract", "retraction.retract", None),
    ("fig8plan.planner", "plan_steps", "planner.plan_steps", None),
    ("fig8plan.verify", "plan_steps", "planner.plan_steps", None),
    ("fig8plan.planner", "steps_to_legs", "spine.steps_to_legs", None),
    ("fig8plan.verify", "steps_to_legs", "spine.steps_to_legs", None),
    ("fig8plan.planner", "path_from_legs", "geometry.path_from_legs", _segments_note),
    ("fig8plan.retraction", "path_from_legs", "geometry.path_from_legs", _segments_note),
    ("fig8plan.verify", "path_from_legs", "geometry.path_from_legs", _segments_note),
    ("fig8plan.planner", "path_min_separation", "geometry.path_min_separation", None),
    ("fig8plan.verify", "path_min_separation", "geometry.path_min_separation", None),
    ("fig8plan.cli", "parse_position", "geometry.parse_position", None),
    ("fig8plan.cli", "render_svg", "render.render_svg", len),
    ("fig8plan.verify", "gamma_oracle", "verify.gamma_oracle", None),
    ("fig8plan.verify", "chain_oracle", "verify.chain_oracle", None),
    ("fig8plan.verify", "path_sup_distance", "verify.path_sup_distance", None),
)


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self.present: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, note in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, note))
            self._patched.append((module, attr, fn))
            self.present.add(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _open(self) -> int:
        sid = next(self._ids)
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, t0, t1, note) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self.op, sid, parent, name, t0, t1, note))

    def _wrap(self, fn, name, note):
        clock, open_, close = time.perf_counter, self._open, self._close

        def wrapper(*args, **kwargs):
            sid = open_()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(sid, name, t0, clock(), None)
                raise
            t1 = clock()
            try:
                size = note(result) if note else None
            except (AttributeError, TypeError):
                size = None  # the result changed shape; the span still counts
            close(sid, name, t0, t1, size)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        sid = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, t0, time.perf_counter(), None)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans) -> dict:
    """Per span name: calls, inclusive and self seconds, sizes, and plan facts.

    Self time is a span's duration minus the durations of its direct
    children; calls in one thread nest, so children never overlap.
    """
    child_time = defaultdict(float)
    parent_of, name_of = {}, {}
    for _, sid, parent, name, t0, t1, _ in spans:
        parent_of[sid] = parent
        name_of[sid] = name
        if parent is not None:
            child_time[parent] += t1 - t0
    calls, incl, self_time, sizes = Counter(), defaultdict(float), defaultdict(float), defaultdict(int)
    built = defaultdict(int)
    plans = []
    for _, sid, parent, name, t0, t1, note in spans:
        calls[name] += 1
        incl[name] += t1 - t0
        self_time[name] += t1 - t0 - child_time[sid]
        if note is None:
            continue
        if name == "planner.plan":
            plans.append((sid, note))
            continue
        sizes[name] += note
        if name == "geometry.path_from_legs":
            up = parent
            while up is not None and name_of[up] != "planner.plan":
                up = parent_of[up]
            if up is not None:
                built[up] += note
    return {
        "calls": calls,
        "incl": incl,
        "self": self_time,
        "sizes": sizes,
        "plans": [(note, built[sid]) for sid, note in plans],
    }


# Per-layer metrics read off the spans: (metric, kind, span name, unit).
# Values are per unit of work: a plan request, an in-process CLI call or a
# round of all six suites.
_SPAN_METRICS = (
    ("retraction.retract.calls", "calls", "retraction.retract", "count"),
    ("retraction.retract.self_us", "self", "retraction.retract", "us"),
    ("geometry.path_from_legs.calls", "calls", "geometry.path_from_legs", "count"),
    ("geometry.path_from_legs.us", "incl", "geometry.path_from_legs", "us"),
    ("planner.plan.self_us", "self", "planner.plan", "us"),
    ("planner.plan_steps.us", "incl", "planner.plan_steps", "us"),
    ("spine.steps_to_legs.us", "incl", "spine.steps_to_legs", "us"),
    ("planner.validate_plan.self_us", "self", "planner.validate_plan", "us"),
    ("geometry.path_min_separation.us", "incl", "geometry.path_min_separation", "us"),
    ("planner.plan_to_json.us", "incl", "planner.plan_to_json", "us"),
    ("geometry.parse_position.us", "incl", "geometry.parse_position", "us"),
    ("render.render_svg.us", "incl", "render.render_svg", "us"),
    ("verify.gamma_oracle.us", "incl", "verify.gamma_oracle", "us"),
    ("verify.chain_oracle.us", "incl", "verify.chain_oracle", "us"),
    ("verify.path_sup_distance.calls", "calls", "verify.path_sup_distance", "count"),
) + tuple((f"verify.{name}.s", "incl_s", f"verify.{name}", "s") for name in SUITES)

FAIL_KINDS = ("ContractError", "DomainError", "CollisionError", "SingularityError", "other", "check")

LAYER_UNITS = {
    **{m: unit for m, _, _, unit in _SPAN_METRICS},
    "geometry.segments_per_plan": "count",
    "geometry.segments_kept_ratio": "ratio",
    "planner.json_bytes": "bytes",
    "planner.domain_share.U1": "share",
    "planner.domain_share.U2": "share",
    "planner.domain_share.U3": "share",
    "planner.hops_mean": "count",
    "render.svg_bytes": "bytes",
    **{f"fail.{kind}": "count" for kind in FAIL_KINDS},
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_share": "share",
    "trace.targets_missing": "count",
}


def layer_metrics(tracer: Tracer, units: int, extra: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric as {name: (value, unit)}, and the absent names.

    ``units`` is the number of requests, calls or rounds traced; ``extra``
    holds the values measured outside the spans (failure counts, JSON bytes,
    CLI probes, overhead).  Metrics the workload never reaches read 0.
    """
    s = summarize(tracer.spans)
    per = 1.0 / max(units, 1)
    values = dict.fromkeys(LAYER_UNITS, 0.0)
    absent = []
    for metric, kind, span, _ in _SPAN_METRICS:
        if span not in tracer.present and kind != "incl_s":
            absent.append(metric)
        if kind == "calls":
            values[metric] = s["calls"][span] * per
        elif kind == "incl_s":
            values[metric] = s["incl"][span] * per
        else:
            values[metric] = s[kind][span] * per * 1e6
    plans = s["plans"]
    if plans:
        final = sum(note[0] for note, _ in plans)
        built = sum(b for _, b in plans)
        values["geometry.segments_per_plan"] = final / len(plans)
        values["geometry.segments_kept_ratio"] = final / built if built else 0.0
        domains = Counter(note[1] for note, _ in plans)
        for d in ("U1", "U2", "U3"):
            values[f"planner.domain_share.{d}"] = domains[d] / len(plans)
        values["planner.hops_mean"] = sum(note[2] for note, _ in plans) / len(plans)
    renders = s["calls"]["render.render_svg"]
    if renders:
        values["render.svg_bytes"] = s["sizes"]["render.render_svg"] / renders
    values["trace.targets_missing"] = float(len(tracer.missing))
    values.update(extra)
    return {m: (values[m], unit) for m, unit in LAYER_UNITS.items()}, absent
