"""Pinned digests of simulated outcomes across the tick machinery.

Every run below exercises one way a ``PollTick`` can matter: the
scheduler's counting drain (each algorithm), the shared pool's recruit
deadline (a contended workload with timeout denials), the scheduler's
recruit-ack deadline and backoff, the standby's dead-man timer, and the
probe-recovery tick wait.  Each digest is a sha256 over the run's
simulated outcome — the result fields, the metrics registry and the
phase timeline — with the three counters excluded that measure kernel
work rather than model behaviour: ``sim.events_executed``,
``mailbox.messages`` and ``lockdep.waits_tracked`` (a tick nobody can
act on is never delivered, so it neither runs an event nor ends a wait).

A digest that moves means the simulated system behaved differently.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

import numpy as np
import pytest

from repro.config import (
    MTUPLES,
    Algorithm,
    ClusterSpec,
    QueryMixEntry,
    WorkloadConfig,
)
from repro.core import run_join
from repro.faults import CrashSpec, FaultPlan
from repro.workload import run_workload
from tests.conftest import small_cluster, small_config, small_workload

#: counters that measure kernel work, not simulated behaviour
EXCLUDED_METRICS = {"sim.events_executed", "mailbox.messages",
                    "lockdep.waits_tracked"}
#: result fields that hold no simulated outcome (config echo, live logs)
EXCLUDED_FIELDS = {"config", "tracer", "causal", "timeline", "metrics",
                   "snapshot"}


def _plain(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if f.name not in EXCLUDED_FIELDS}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _metrics(metrics: list[dict]) -> list:
    return [_plain(m) for m in metrics if m["name"] not in EXCLUDED_METRICS]


def _timeline(timeline: Any) -> Any:
    if timeline is None:
        return None
    return [_plain(s) for s in timeline.spans]


def join_outcome(res: Any) -> dict:
    return {
        "result": _plain(res),
        "metrics": _metrics(res.metrics),
        "timeline": _timeline(res.timeline),
    }


def digest(outcome: Any) -> str:
    text = json.dumps(outcome, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def membership_plan(**kw: Any) -> FaultPlan:
    return FaultPlan(membership=True, heartbeat_interval_s=0.01, **kw)


# ---------------------------------------------------------------------------
# single joins
# ---------------------------------------------------------------------------

FAULT_FREE = {
    Algorithm.SPLIT: "8dbd7e630d3dd192",
    Algorithm.REPLICATE: "f9a5df43800da04d",
    Algorithm.HYBRID: "78f8344e5bb72a39",
    Algorithm.OUT_OF_CORE: "1f4bd56dfea97f2a",
}


@pytest.mark.parametrize("algorithm", list(FAULT_FREE), ids=lambda a: a.value)
def test_fault_free_join(algorithm):
    res = run_join(small_config(algorithm, workload=small_workload(sigma=1e-5)))
    assert res.matches == res.reference_matches
    assert digest(join_outcome(res)) == FAULT_FREE[algorithm]


def test_recruit_ack_timeouts_and_backoff():
    """Crashed pool nodes never ack ActivateJoin: two ack deadlines expire,
    the scheduler backs off between candidates, then degrades to spill."""
    plan = FaultPlan(crashes=tuple(
        CrashSpec(node=n, at_time=0.0) for n in (2, 3)
    ))
    res = run_join(small_config(
        Algorithm.SPLIT, workload=small_workload(sigma=1e-5),
        cluster=small_cluster(pool=4), faults=plan,
    ))
    assert res.matches == res.reference_matches
    assert res.spilled_r_tuples > 0
    assert digest(join_outcome(res)) == "30e85cb74640f07d"


def test_scheduler_kill_standby_takeover():
    """The standby's dead-man timer fires and it finishes the query."""
    res = run_join(small_config(
        Algorithm.HYBRID, workload=small_workload(sigma=1e-5),
        faults=membership_plan(kill_scheduler_at=0.03),
    ))
    assert res.matches == res.reference_matches
    failovers = [m for m in res.metrics if m["name"] == "sched.failover_count"]
    assert sum(m["value"] for m in failovers) == 1
    assert digest(join_outcome(res)) == "62605e50fbc8cfe8"


def test_scheduler_kill_on_a_drain_grid_point():
    """The kill lands exactly on a drain-poll grid point (0.03 on a
    0.01 grid): the primary's final tick must follow that instant's tick,
    as a loop that polls every step would have ordered them."""
    res = run_join(small_config(
        Algorithm.OUT_OF_CORE, workload=small_workload(sigma=1e-5),
        faults=membership_plan(kill_scheduler_at=0.03),
    ))
    assert res.matches == res.reference_matches
    assert digest(join_outcome(res)) == "9e758299a973c53c"


def test_probe_phase_crash_recovery():
    """A working node dies mid-probe; recovery waits on ticks while the
    replacement confirms the rebuilt range."""
    res = run_join(small_config(
        Algorithm.HYBRID, workload=small_workload(sigma=1e-5),
        faults=membership_plan(crashes=(CrashSpec(node=0, at_phase="probe"),)),
    ))
    assert res.matches == res.reference_matches
    cycles = [m for m in res.metrics if m["name"] == "sched.recovery_cycles"]
    assert sum(m["value"] for m in cycles) >= 1
    assert digest(join_outcome(res)) == "c262e0c22bb687b3"


# ---------------------------------------------------------------------------
# contended workload (pool deadlines)
# ---------------------------------------------------------------------------


def test_contended_workload():
    """The CI workload smoke: 4 queries on a 6-node pool with scarce
    memory, so parked recruits time out and queries degrade to spill."""
    cfg = WorkloadConfig(
        n_queries=4,
        arrival_times=(0.0, 0.05, 0.1, 0.15),
        seed=7,
        mix=(QueryMixEntry(weight=1.0, algorithm=Algorithm.HYBRID,
                           r_tuples=2 * MTUPLES, s_tuples=2 * MTUPLES,
                           initial_nodes=2),),
        cluster=ClusterSpec(n_sources=2, n_potential_nodes=6,
                            hash_memory_bytes=50 * 1024 * 1024),
        scale=0.02,
    )
    res = run_workload(cfg)
    assert res.all_valid
    assert res.pool["denials_by_reason"].get("timeout", 0) > 0
    outcome = {
        "result": res.to_dict(),
        "metrics": _metrics(res.metrics),
        "timeline": _timeline(res.timeline),
        "queries": [join_outcome(r) for r in res.results],
    }
    assert digest(outcome) == "12dd1d7a240f22e3"
