"""Per-layer metrics of the traced passes, and what each should move.

``CATALOG`` is the single list of per-layer metrics: name, unit, better
direction, the end-to-end metric a change in that layer should move, and
the workload where it should show.  ``BENCHMARK.json``'s ``per_layer``
section lists the same names, units and directions (the benchmark's test
checks that they agree).

Self times are medians over the traced passes.  Counts (events, resumes,
calls, tuples, messages, bytes) are exact and identical in every pass;
the benchmark checks that they are.  Metrics that do not apply to a
workload (``fleet.*`` outside the fleet) report 0.
"""

from __future__ import annotations

import statistics
from collections.abc import Callable
from typing import Any

from tracer import ACTORS

E2E_WALL = "wall_s"
ALL = "all"

#: (name, unit, better, moves end-to-end metric, on workload)
CATALOG: list[tuple[str, str, str, str, str]] = [
    ("sim.events", "count", "lower", E2E_WALL, "workload-poisson"),
    ("sim.events_per_query", "count", "lower", E2E_WALL, "workload-poisson"),
    ("sim.events_per_host_s", "1/s", "higher", E2E_WALL, "workload-poisson"),
    ("sim.kernel_self_s", "s", "lower", E2E_WALL, "workload-poisson"),
]
CATALOG += [
    (f"core.{actor}.{what}", unit, "lower", E2E_WALL, "workload-poisson")
    for actor in ACTORS
    for what, unit in (("resumes", "count"), ("self_s", "s"))
]
CATALOG += [
    ("core.ticker.share", "frac", "lower", E2E_WALL, "workload-poisson"),
    ("core.spill.self_s", "s", "lower", E2E_WALL, "fleet-contended"),
    ("core.spill_tuples", "count", "lower", E2E_WALL, "fleet-contended"),
    ("core.split_moved_tuples", "count", "lower", E2E_WALL, "fleet-contended"),
    ("core.reshuffle_moved_tuples", "count", "lower", E2E_WALL, "fleet-contended"),
    ("core.probe_dup_tuples", "count", "lower", E2E_WALL, "fleet-contended"),
    ("core.pool.denials", "count", "lower", E2E_WALL, "fleet-contended"),
    ("core.pool.grants", "count", "lower", E2E_WALL, "fleet-contended"),
    ("cluster.net.messages", "count", "lower", E2E_WALL, "workload-poisson"),
    ("cluster.net.bytes", "bytes", "lower", E2E_WALL, "workload-poisson"),
    ("cluster.disk.ops", "count", "lower", E2E_WALL, "fleet-contended"),
    ("cluster.disk.bytes", "bytes", "lower", E2E_WALL, "fleet-contended"),
    ("cluster.net.send.calls", "count", "lower", E2E_WALL, "workload-poisson"),
    ("cluster.net.send.self_s", "s", "lower", E2E_WALL, "workload-poisson"),
    ("cluster.net.send.steps_per_message", "count", "lower", E2E_WALL,
     "workload-poisson"),
    ("cluster.net.deliver.resumes", "count", "lower", E2E_WALL, "workload-poisson"),
    ("cluster.net.deliver.self_s", "s", "lower", E2E_WALL, "workload-poisson"),
]
CATALOG += [
    (f"hashing.{op}.{what}", unit, "lower", "tuples_per_s", "fleet-contended")
    for op, whats in (("probe", "calls tuples self_s"), ("insert", "calls tuples self_s"),
                      ("finalize", "self_s"), ("route", "calls tuples self_s"),
                      ("extract", "tuples self_s"), ("posmap", "self_s"))
    for what in whats.split()
    for unit in ("s" if what == "self_s" else "count",)
]
CATALOG += [
    ("data.gen.tuples", "count", "lower", E2E_WALL, "fleet-contended"),
    ("data.gen.self_s", "s", "lower", E2E_WALL, "fleet-contended"),
    ("data.chunkbuf.self_s", "s", "lower", E2E_WALL, "fleet-contended"),
    ("seqjoin.match_count.self_s", "s", "lower", E2E_WALL, "fleet-contended"),
    ("obs.record.calls", "count", "lower", E2E_WALL, "workload-poisson"),
    ("obs.record.self_s", "s", "lower", E2E_WALL, "workload-poisson"),
    ("obs.harvest.self_s", "s", "lower", E2E_WALL, "workload-poisson"),
    ("obs.snapshot.self_s", "s", "lower", "peak_rss_mb", "fleet-contended"),
    ("obs.merge.self_s", "s", "lower", E2E_WALL, "fleet-contended"),
    ("workload.generate.self_s", "s", "lower", "setup_s", ALL),
    ("workload.assemble.self_s", "s", "lower", E2E_WALL, ALL),
    ("fleet.shard_wall_max_s", "s", "lower", E2E_WALL, "fleet-contended"),
    ("fleet.shard_wall_min_s", "s", "lower", E2E_WALL, "fleet-contended"),
    ("fleet.imbalance", "ratio", "lower", E2E_WALL, "fleet-contended"),
    ("fleet.overhead_s", "s", "lower", E2E_WALL, "fleet-contended"),
    ("trace.driver_self_s", "s", "lower", E2E_WALL, ALL),
    ("trace.wall_s", "s", "lower", "none", ALL),
    ("trace.overhead_frac", "frac", "lower", "none", ALL),
]

#: span keys whose self time a ``*.self_s`` metric reports
_SELF_KEYS = {
    "sim.kernel_self_s": "sim.kernel",
    "trace.driver_self_s": "trace.driver",
    "cluster.net.send.self_s": "cluster.net.send",
    "cluster.net.deliver.self_s": "cluster.net.deliver",
}


def _med(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(w: Any, untraced: list[tuple[float, Any]],
                  traced: list[tuple[Any, Any]]) -> dict[str, tuple[float, str]]:
    """Every CATALOG metric for one workload: ``untraced`` holds
    ``(wall_s, PassResult)``, ``traced`` holds ``(PassResult, Totals)``."""
    totals = [t for _, t in traced]
    first = totals[0]
    counters = traced[0][0].counters
    untraced_wall = _med([wall for wall, _ in untraced])
    events = counters["sim.events"]
    resumes = {a: first.calls.get(f"core.{a}", 0) for a in ACTORS}
    all_resumes = sum(resumes.values()) + first.calls.get("cluster.net.deliver", 0)
    sends = first.starts.get("cluster.net.send", 0)

    def self_s(key: str) -> float:
        return _med([t.self_s.get(key, 0.0) for t in totals])

    def fleet(f: Callable[[dict[int, float], float], float]) -> float:
        return _med([f(p.shard_walls, wall) for wall, p in untraced if p.shard_walls])

    if any(p.shard_walls for _, p in untraced):
        # Shards run concurrently; the untraced reference for the traced
        # in-process replay is the summed worker time.
        reference_wall = fleet(lambda sw, _: sum(sw.values()))
    else:
        reference_wall = untraced_wall
    values: dict[str, float] = {
        "sim.events": events,
        "sim.events_per_query": events / len(w.query_ids),
        "sim.events_per_host_s": events / untraced_wall,
        "core.ticker.share": resumes["ticker"] / all_resumes if all_resumes else 0.0,
        "cluster.net.send.calls": sends,
        "cluster.net.send.steps_per_message":
            first.calls.get("cluster.net.send", 0) / sends if sends else 0.0,
        "cluster.net.deliver.resumes": first.calls.get("cluster.net.deliver", 0),
        "fleet.shard_wall_max_s": fleet(lambda sw, _: max(sw.values())),
        "fleet.shard_wall_min_s": fleet(lambda sw, _: min(sw.values())),
        "fleet.imbalance": fleet(
            lambda sw, _: max(sw.values()) * len(sw) / sum(sw.values())),
        "fleet.overhead_s": fleet(lambda sw, wall: wall - max(sw.values())),
        "trace.wall_s": _med([t.wall_s for t in totals]),
        "trace.overhead_frac": _med([t.wall_s for t in totals]) / reference_wall - 1.0,
    }
    for actor in ACTORS:
        values[f"core.{actor}.resumes"] = resumes[actor]
    out: dict[str, tuple[float, str]] = {}
    for name, unit, *_ in CATALOG:
        if name not in values:
            prefix, _, what = name.rpartition(".")
            if name in counters:
                values[name] = counters[name]
            elif name in _SELF_KEYS:
                values[name] = self_s(_SELF_KEYS[name])
            elif what == "self_s":
                values[name] = self_s(prefix)
            elif what == "calls":
                values[name] = first.calls.get(prefix, 0)
            elif what == "tuples":
                values[name] = first.tuples.get(prefix, 0)
            else:
                raise KeyError(f"no rule computes per-layer metric {name}")
        out[name] = (float(values[name]), unit)
    return out
