"""The benchmark's workloads and the simulated answer each pass must give.

A workload is built from a seed (the set-up the benchmark times), then
run as *passes*.  Each pass returns a :class:`PassResult`: per-query match
counts and digests of the simulated outputs (phase times, nodes used,
communication counters), plus the exact cost counters of the pass.  The
digests are the model's answer; they are compared, never timed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import repro
import repro.obs
import repro.workload
from repro.config import (
    Algorithm,
    ClusterSpec,
    FleetConfig,
    QueryMixEntry,
    WorkloadConfig,
)
from repro.core.messages import Hop
from repro.workload.fleet import _cohort_workload

#: registry counters summed (over every label) into the exact counters
_REGISTRY_COUNTERS = {
    "sim.events": ("sim.events_executed",),
    "cluster.net.messages": ("net.sent_messages",),
    "cluster.net.bytes": ("net.sent_bytes",),
    "cluster.disk.ops": ("disk.ops",),
    "cluster.disk.bytes": ("disk.bytes_written", "disk.bytes_read"),
}


def digest_of(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class QueryOutcome:
    matches: int
    #: oracle match count (validated passes only)
    reference: int | None
    digest: str


@dataclass
class PassResult:
    queries: dict[int, QueryOutcome]
    #: exact, noise-free cost counters of the whole pass
    counters: dict[str, int]
    #: pass-level digest (every query digest, plus the merged fleet view)
    digest: str
    #: queries lost to a shard failure or an unclean fleet exit
    lost: set[int] = field(default_factory=set)
    #: fleet only: worker wall seconds by shard
    shard_walls: dict[int, float] = field(default_factory=dict)


def _join_payload(res: Any) -> dict[str, Any]:
    """Simulated outputs of one JoinRunResult."""
    return {
        "algorithm": res.config.algorithm.value,
        "times": dataclasses.asdict(res.times),
        "matches": res.matches,
        "nodes_used": res.nodes_used,
        "comm": dataclasses.asdict(res.comm),
        "n_splits": res.n_splits,
        "split_moved_tuples": res.split_moved_tuples,
        "reshuffle_moved_tuples": res.reshuffle_moved_tuples,
        "spilled": [res.spilled_r_tuples, res.spilled_s_tuples],
        "expansion_trace": res.expansion_trace,
    }


def _stats_payload(stats: dict[str, Any]) -> dict[str, Any]:
    """A QueryStats dict minus the oracle field (absent when unvalidated)."""
    return {k: v for k, v in stats.items() if k != "reference_matches"}


def _registry_counters(metrics: list[dict[str, Any]]) -> dict[str, int]:
    totals = dict.fromkeys(_REGISTRY_COUNTERS, 0)
    for inst in metrics:
        if inst["type"] != "counter":
            continue
        for key, names in _REGISTRY_COUNTERS.items():
            if inst["name"] in names:
                totals[key] += int(inst["value"])
    return totals


def _snapshot_counters(snapshot: Any) -> dict[str, int]:
    return {
        key: int(sum(snapshot.counter_total(n) for n in names))
        for key, names in _REGISTRY_COUNTERS.items()
    }


def _protocol_counters(results: list[Any], pool: dict[str, Any]) -> dict[str, int]:
    return {
        "core.spill_tuples": sum(r.spilled_r_tuples + r.spilled_s_tuples for r in results),
        "core.split_moved_tuples": sum(r.split_moved_tuples for r in results),
        "core.reshuffle_moved_tuples": sum(r.reshuffle_moved_tuples for r in results),
        "core.probe_dup_tuples": sum(
            r.comm.tuples_by_hop.get(Hop.PROBE_DUP, 0) for r in results),
        "core.pool.denials": int(pool.get("denials", 0)),
        "core.pool.grants": int(pool.get("grants", 0)),
    }


def _add(total: dict[str, int], part: dict[str, int]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def _stats_dicts(res: Any, ids: list[int] | None = None) -> list[dict[str, Any]]:
    """QueryStats dicts of one WorkloadResult; ``ids`` maps local query ids
    to global ones (fleet cohorts)."""
    out = []
    for q in res.queries:
        d = q.to_dict()
        if ids is not None:
            d["query"] = ids[q.query]
        out.append(d)
    return out


def _workload_counters(res: Any) -> dict[str, int]:
    counters = _registry_counters(res.metrics)
    counters.update(_protocol_counters(res.results, res.pool))
    return counters


def _pass_digest(queries: dict[int, QueryOutcome], extra: Any = None) -> str:
    return digest_of({"queries": [queries[q].digest for q in sorted(queries)],
                      "extra": extra})


class Workload:
    """Base: ``setup`` is what ``setup_s`` times; ``run`` is one pass."""

    name = ""
    default_seed = 0
    why = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: R+S tuples joined per pass (real, post-scale)
        self.input_tuples = 0
        #: query ids every pass must answer
        self.query_ids: list[int] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, validate: bool) -> PassResult:
        raise NotImplementedError

    def traced_body(self) -> PassResult:
        """What the traced pass runs (the untraced pass by default)."""
        return self.run(validate=False)

    def _count_inputs(self, cfg: WorkloadConfig) -> None:
        specs = repro.workload.generate_workload(cfg)
        self.query_ids = [s.query_id for s in specs]
        for s in specs:
            w = repro.workload.query_run_config(cfg, s).workload
            self.input_tuples += w.real_r_tuples + w.real_s_tuples


class WorkloadPoisson(Workload):
    """The ROADMAP workload (defaults plus 4 qps), fewer queries."""

    name = "workload-poisson"
    default_seed = 20040607
    why = ("16 hybrid 2M x 2M queries, Poisson 4 qps on a 24-node pool: "
           "kernel, actor resumes and sends dominate; pool idle, tickers "
           "poll for nothing")
    N_QUERIES = 16

    def setup(self) -> None:
        self.cfg = WorkloadConfig(n_queries=self.N_QUERIES, arrival_rate_qps=4.0,
                                  seed=self.seed)
        self._count_inputs(self.cfg)

    def run(self, validate: bool) -> PassResult:
        res = repro.run_workload(self.cfg, validate=validate)
        queries = {
            d["query"]: QueryOutcome(
                d["matches"], d["reference_matches"],
                digest_of({"stats": _stats_payload(d), "join": _join_payload(jr)}))
            for d, jr in zip(_stats_dicts(res), res.results)
        }
        return PassResult(queries, _workload_counters(res), _pass_digest(queries))


class FleetContended(Workload):
    """A contended Poisson trace through the OS-process sharded fleet."""

    name = "fleet-contended"
    default_seed = 7
    why = ("64 mixed queries at 16 qps, 4 cohorts on 2 worker processes, "
           "6-node pools with scarce memory: denials, spills, busy links, "
           "plus spawn, pipes and snapshot merge")
    N_QUERIES = 64
    N_COHORTS = 4
    N_SHARDS = 2
    MIX = ((2, Algorithm.HYBRID), (1, Algorithm.SPLIT),
           (1, Algorithm.REPLICATE), (1, Algorithm.OUT_OF_CORE))

    def setup(self) -> None:
        workload = WorkloadConfig(
            n_queries=self.N_QUERIES,
            arrival_rate_qps=16.0,
            seed=self.seed,
            mix=tuple(QueryMixEntry(weight=w, algorithm=a, initial_nodes=2)
                      for w, a in self.MIX),
            cluster=ClusterSpec(n_sources=2, n_potential_nodes=6,
                                hash_memory_bytes=50 * 1024 * 1024),
        )
        self.cfg = FleetConfig(workload=workload, n_cohorts=self.N_COHORTS,
                               n_shards=self.N_SHARDS)
        self._count_inputs(workload)

    def _fleet_pass(self, res: Any) -> tuple[dict[int, QueryOutcome], str]:
        queries = {
            d["query"]: QueryOutcome(d["matches"], d["reference_matches"],
                                     digest_of({"stats": _stats_payload(d)}))
            for d in res.queries
        }
        merged = res.to_dict()
        del merged["wall"]
        merged["queries"] = [_stats_payload(d) for d in merged["queries"]]
        return queries, _pass_digest(queries, merged)

    def run(self, validate: bool) -> PassResult:
        res = repro.workload.run_fleet(self.cfg, validate=validate)
        queries, digest = self._fleet_pass(res)
        # A failed shard or an invalid query fails the whole pass.
        lost = set(self.query_ids) if res.exit_code else set()
        counters = {}
        if res.snapshot is not None:
            counters = _snapshot_counters(res.snapshot)
        counters["core.spill_tuples"] = sum(
            d["spilled_r_tuples"] + d["spilled_s_tuples"] for d in res.queries)
        counters["core.pool.denials"] = sum(int(c.pool["denials"]) for c in res.cohorts)
        counters["core.pool.grants"] = sum(int(c.pool["grants"]) for c in res.cohorts)
        return PassResult(queries, counters, digest, lost=lost,
                          shard_walls=dict(res.wall_s_by_shard))

    def traced_body(self) -> PassResult:
        """Replay every cohort in this process, the way a fleet worker
        runs it, and merge the snapshots the way the fleet parent does.
        The fleet's determinism contract makes the replay's digest equal
        to the real fleet's; the benchmark checks that it does."""
        wl = repro.workload
        specs = wl.generate_workload(self.cfg.workload)
        cohorts = []
        counters: dict[str, int] = {}
        for ci, group in enumerate(wl.partition_cohorts(specs, self.cfg.n_cohorts)):
            if not group:
                continue
            sub, local, ids = _cohort_workload(self.cfg.workload, ci, group)
            res = wl.run_workload(sub, validate=False, specs=local)
            _add(counters, _workload_counters(res))
            cohorts.append(wl.CohortResult(
                cohort=ci, shard=0, query_ids=tuple(ids),
                queries=tuple(_stats_dicts(res, ids)),
                makespan_s=res.makespan_s, pool=dict(res.pool),
                pool_utilization=res.pool_utilization, all_valid=res.all_valid,
                snapshot=repro.obs.Snapshot.from_json(res.snapshot.to_json()),
                spans_dropped=res.spans_dropped, edges_dropped=res.edges_dropped,
            ))
        merged = wl.FleetResult(
            config=self.cfg, cohorts=cohorts, failures=[],
            snapshot=repro.obs.merge_snapshots([c.snapshot for c in cohorts]),
            wall_s=0.0, wall_s_by_shard={},
        )
        queries, digest = self._fleet_pass(merged)
        return PassResult(queries, counters, digest)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (WorkloadPoisson, FleetContended)
}
