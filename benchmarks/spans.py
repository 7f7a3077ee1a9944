"""Span recorder that traces memwalk from outside the package.

For a traced run the recorder rebinds public functions at their module
attributes. The verifiers, the CLI and the oracle look these names up
through module globals (``montecarlo.run_ensemble``, ``theory.exact_moments``,
``oracle.enumerate_paths`` ...), so internal calls are caught as well as the
benchmark's own. Spans stay in memory; ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import time
from dataclasses import dataclass

from memwalk import cli, model, montecarlo, oracle, theory, urn
from workloads import WIDE

# verify tags the benchmark runs; each gets its own per-layer metrics
TAGS = tuple(spec.tag for spec in WIDE)


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    pass_id: int
    start: int
    end: int = 0
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


def _table_mib(table) -> float:
    arrays = (table.steps, table.mean_counts, table.counts_second, table.mean_position, table.position_cov)
    return sum(a.nbytes for a in arrays) / 2**20


# name -> (module, attrs(bound arguments, result) or None). Functions with a
# None counter are not bound to their signature, which keeps the per-call
# cost low for the scalar samplers.
_TRACED = {
    "cli.main": (cli, None),
    "montecarlo.verify": (montecarlo, lambda a, r: {"tag": a["tag"]}),
    "montecarlo.run_ensemble": (montecarlo, lambda a, r: {
        "replica_steps": a["replicas"] * a["n_steps"],
        "call": {k: a[k] for k in ("params", "init", "checkpoints", "replicas", "seed", "workers", "retain_samples")},
    }),
    "montecarlo.cross_time_covariance": (montecarlo, None),
    "theory.exact_moments": (theory, lambda a, r: {"steps": a["n_max"], "table_mib": _table_mib(r)}),
    "theory.limit_moments": (theory, lambda a, r: {"recursion_steps": r.n_final}),
    "oracle.exact_marginals": (oracle, lambda a, r: {"paths": a["params"].K ** a["n"]}),
    "oracle.enumerate_paths": (oracle, None),
    "oracle.walk_count_law": (oracle, None),
    "oracle.urn_count_law": (oracle, lambda a, r: {"support": len(r)}),
    "model.step": (model, None),
    "urn.urn_step": (urn, None),
}


class Recorder:
    """Collects spans while installed; ``pass_id`` tags the current pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent, self.pass_id, time.perf_counter_ns())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = counter(bound.arguments, result)
            return result

        return traced

    def __enter__(self) -> "Recorder":
        for name, (module, counter) in _TRACED.items():
            attr = name.split(".", 1)[1]
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, counter))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                attrs = {k: v for k, v in (s.attrs or {}).items() if k != "call"}
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "pass": s.pass_id,
                    "start_ns": s.start, "end_ns": s.end, "attrs": attrs,
                }) + "\n")


def _self_seconds(spans: list[Span]) -> dict[int, float]:
    """Duration minus the time covered by direct children.

    Spans of one pass come from a single thread and nest, so the direct
    children of a span never overlap and their durations simply add up.
    """
    child = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return {s.id: s.seconds - child[s.id] for s in spans}


def _pass_metrics(spans: list[Span]) -> dict[str, float]:
    by_id = {s.id: s for s in spans}
    self_s = _self_seconds(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.seconds for s in named(name))

    def count(name, key):
        return sum(s.attrs[key] for s in named(name))

    def per(value, n, scale=1e9):
        return value / n * scale if n else 0.0

    def verify_tag(span):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "montecarlo.verify":
                return span.attrs["tag"]
        return None

    m: dict[str, float] = {}
    runs = named("montecarlo.run_ensemble")
    m["montecarlo.run_ensemble.s"] = total("montecarlo.run_ensemble")
    m["montecarlo.run_ensemble.calls"] = len(runs)
    m["montecarlo.run_ensemble.replica_steps"] = count("montecarlo.run_ensemble", "replica_steps")
    for tag in TAGS:
        mine = [s for s in runs if verify_tag(s) == tag]
        m[f"montecarlo.run_ensemble.ns_per_replica_step.{tag}"] = per(
            sum(s.seconds for s in mine), sum(s.attrs["replica_steps"] for s in mine))
    for tag in TAGS:
        m[f"montecarlo.verify.s.{tag}"] = sum(
            s.seconds for s in named("montecarlo.verify") if s.attrs["tag"] == tag)
    m["montecarlo.verify.self_s"] = sum(self_s[s.id] for s in named("montecarlo.verify"))
    m["montecarlo.cross_time_covariance.self_s"] = sum(
        self_s[s.id] for s in named("montecarlo.cross_time_covariance"))

    m["theory.exact_moments.s"] = total("theory.exact_moments")
    m["theory.exact_moments.steps"] = count("theory.exact_moments", "steps")
    m["theory.exact_moments.ns_per_step"] = per(m["theory.exact_moments.s"], m["theory.exact_moments.steps"])
    m["theory.exact_moments.table_mib"] = max(
        (s.attrs["table_mib"] for s in named("theory.exact_moments")), default=0.0)
    m["theory.limit_moments.s"] = total("theory.limit_moments")
    m["theory.limit_moments.recursion_steps"] = count("theory.limit_moments", "recursion_steps")

    m["oracle.exact_marginals.s"] = total("oracle.exact_marginals")
    m["oracle.exact_marginals.paths"] = count("oracle.exact_marginals", "paths")
    m["oracle.exact_marginals.ns_per_path"] = per(m["oracle.exact_marginals.s"], m["oracle.exact_marginals.paths"])
    m["oracle.enumerate_paths.s"] = total("oracle.enumerate_paths")
    m["oracle.walk_count_law.s"] = total("oracle.walk_count_law")
    m["oracle.urn_count_law.s"] = total("oracle.urn_count_law")
    m["oracle.urn_count_law.support"] = count("oracle.urn_count_law", "support")

    for name in ("model.step", "urn.urn_step"):
        calls = len(named(name))
        m[f"{name}.calls"] = calls
        m[f"{name}.ns_per_call"] = per(total(name), calls)

    m["cli.main.s"] = total("cli.main")
    m["cli.main.self_s"] = sum(self_s[s.id] for s in named("cli.main"))
    return m


def layer_metrics(recorder: Recorder, passes) -> dict[str, float]:
    """Median over the given traced passes of each per-pass layer metric."""
    per_pass = [_pass_metrics([s for s in recorder.spans if s.pass_id == p]) for p in passes]
    return {k: statistics.median(pm[k] for pm in per_pass) for k in per_pass[0]}


def ensemble_calls(recorder: Recorder, pass_id: int) -> list[dict]:
    """Arguments of every ``run_ensemble`` call made in one pass."""
    return [s.attrs["call"] for s in recorder.spans
            if s.pass_id == pass_id and s.name == "montecarlo.run_ensemble"]


def fixed_seconds(calls: list[dict], workers: int | None = None, repeats: int = 3) -> float:
    """Median time of the pass's ensemble calls replayed at ``n_steps=1``.

    What remains at one step is stream seeding, allocation, the pool and
    the first step. ``workers`` overrides each call's worker count.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for call in calls:
            args = dict(call, n_steps=1, checkpoints=[1])
            if workers is not None:
                args["workers"] = workers
            montecarlo.run_ensemble(**args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
