"""Streaming observability: sketches, rings, reservoirs, snapshots.

Unit coverage for :mod:`repro.obs.streaming` plus the workload-level
contracts the subsystem exists for: budgeted runs shed records *loudly*
(drop counters, never silent truncation), unbudgeted runs are
byte-for-byte unchanged, and shard snapshots merge into exactly what one
collector would have seen.
"""

import json
import math
import random

import numpy as np
import pytest

from repro.config import ObsConfig
from repro.core import run_join
from repro.obs import (
    ObsBudget,
    QuantileSketch,
    ReservoirSample,
    Snapshot,
    SpanLog,
    StreamingCollector,
    TimeSeriesRing,
    merge_snapshots,
)
from repro.workload import run_workload
from repro.workload.results import _percentiles

from .conftest import small_config
from .test_workload import AMPLE_MEMORY, wl_config


# ----------------------------------------------------------------------
# QuantileSketch
# ----------------------------------------------------------------------
def exact_quantile(values, q):
    """The rank convention the sketch documents: floor(q * (n - 1))."""
    return float(np.percentile(values, q * 100, method="lower"))


def test_sketch_error_bound_on_skewed_data():
    rng = np.random.default_rng(11)
    values = rng.zipf(1.5, size=5000).astype(float)
    sk = QuantileSketch()
    for v in values:
        sk.add(v)
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        exact = exact_quantile(values, q)
        assert abs(sk.quantile(q) - exact) <= sk.alpha * abs(exact)


def test_sketch_merge_equals_single_sketch():
    rng = random.Random(3)
    values = [rng.lognormvariate(0, 2) for _ in range(2000)]
    whole = QuantileSketch()
    parts = [QuantileSketch() for _ in range(4)]
    for i, v in enumerate(values):
        whole.add(v)
        parts[i % 4].add(v)
    merged = parts[0].merge(parts[1]).merge(parts[2]).merge(parts[3])
    assert merged == whole
    assert merged.count == whole.count == len(values)


def test_sketch_handles_negatives_and_zero():
    sk = QuantileSketch()
    for v in (-10.0, -1.0, 0.0, 1.0, 10.0):
        sk.add(v)
    assert sk.quantile(0.0) == pytest.approx(-10.0, rel=0.01)
    assert sk.quantile(1.0) == pytest.approx(10.0, rel=0.01)
    assert abs(sk.quantile(0.5)) <= 1e-12


def test_sketch_rejects_non_finite():
    sk = QuantileSketch()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            sk.add(bad)


def test_sketch_collapse_keeps_upper_quantiles():
    sk = QuantileSketch(max_bins=32)
    values = [1.001 ** i for i in range(5000)]  # thousands of distinct bins
    for v in values:
        sk.add(v)
    assert sk.collapsed
    # The collapse folds *low* buckets; the tail stays within the bound.
    exact = exact_quantile(values, 0.99)
    assert abs(sk.quantile(0.99) - exact) <= sk.alpha * abs(exact)


def test_sketch_roundtrip_and_mean():
    sk = QuantileSketch()
    for v in (1.0, 2.0, 3.0, 4.0):
        sk.add(v)
    back = QuantileSketch.from_dict(sk.to_dict())
    assert back == sk
    assert sk.mean == pytest.approx(2.5)


def test_sketch_merge_requires_matching_shape():
    with pytest.raises(ValueError):
        QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))


# ----------------------------------------------------------------------
# TimeSeriesRing
# ----------------------------------------------------------------------
def test_ring_buckets_and_eviction():
    ring = TimeSeriesRing(resolution_s=1.0, n_buckets=4)
    for t in range(10):
        ring.observe(float(t), float(t))
    assert ring.count == 10  # count tracks every observation ever seen
    assert ring.evicted == 6  # ...but only the newest 4 buckets survive
    indices = [idx for idx, _ in ring.series()]
    assert indices == [6, 7, 8, 9]


def test_ring_merge_commutes_and_checks_resolution():
    a = TimeSeriesRing(resolution_s=0.5, n_buckets=8)
    b = TimeSeriesRing(resolution_s=0.5, n_buckets=8)
    for t in (0.1, 0.6, 1.2):
        a.observe(t, 1.0)
    for t in (0.4, 2.0):
        b.observe(t, 2.0)
    assert a.merge(b) == b.merge(a)
    with pytest.raises(ValueError):
        a.merge(TimeSeriesRing(resolution_s=1.0, n_buckets=8))


# ----------------------------------------------------------------------
# ReservoirSample
# ----------------------------------------------------------------------
def test_reservoir_is_insert_order_invariant():
    items = [(f"item{i:04d}", float(i % 7), {"i": i}) for i in range(200)]
    a = ReservoirSample(sample=16, outliers=4)
    b = ReservoirSample(sample=16, outliers=4)
    for ident, w, p in items:
        a.add(ident, w, p)
    for ident, w, p in reversed(items):
        b.add(ident, w, p)
    assert a == b
    assert a.dropped == 200 - len(a)


def test_reservoir_always_keeps_heaviest():
    r = ReservoirSample(sample=8, outliers=2)
    for i in range(100):
        r.add(f"small{i}", 1.0, None)
    r.add("huge", 1000.0, None)
    r.add("big", 500.0, None)
    assert "huge" in r and "big" in r


def test_reservoir_merge_equals_single_feed():
    items = [(f"k{i}", float((i * 37) % 11), i) for i in range(300)]
    single = ReservoirSample(sample=12, outliers=3)
    left = ReservoirSample(sample=12, outliers=3)
    right = ReservoirSample(sample=12, outliers=3)
    for i, (ident, w, p) in enumerate(items):
        single.add(ident, w, p)
        (left if i % 2 else right).add(ident, w, p)
    assert left.merge(right) == single == right.merge(left)
    assert single.total == 300


# ----------------------------------------------------------------------
# ObsBudget
# ----------------------------------------------------------------------
def test_obs_budget_floors_and_minimum():
    tiny = ObsBudget.from_bytes(4096)
    assert tiny.span_sample >= 32 and tiny.span_outliers >= 8
    assert tiny.ring_buckets >= 16 and tiny.sketch_bins >= 64
    with pytest.raises(ValueError):
        ObsBudget.from_bytes(4095)
    big = ObsBudget.from_bytes(1 << 20)
    assert big.span_sample > tiny.span_sample


# ----------------------------------------------------------------------
# Snapshot
# ----------------------------------------------------------------------
def _snap(shard, t, counters, latencies=()):
    sk = QuantileSketch()
    for v in latencies:
        sk.add(v)
    sketches = {"workload.query_latency_s": sk} if latencies else {}
    return Snapshot(t=t, shards=(shard,), counters=dict(counters),
                    sketches=sketches)


def test_snapshot_merge_laws():
    a = _snap("shardA", 5.0, {"x": 2, "y|k=1": 3}, latencies=[1.0, 2.0])
    b = _snap("shardB", 7.0, {"x": 5, "z": 1}, latencies=[3.0])
    ab, ba = a.merge(b), b.merge(a)
    assert ab.to_json() == ba.to_json()
    assert ab.t == 7.0
    assert ab.shards == ("shardA", "shardB")
    assert ab.counters == {"x": 7, "y|k=1": 3, "z": 1}
    assert ab.counter_total("y") == 3  # label variants fold in
    assert ab.sketches["workload.query_latency_s"].count == 3


def test_snapshot_json_roundtrip_is_byte_stable():
    snap = _snap("shard0", 1.5, {"b": 2, "a": 1}, latencies=[0.5, 0.25])
    text = snap.to_json()
    again = Snapshot.from_json(text)
    assert again.to_json() == text
    assert json.loads(text)["kind"] == "repro-snapshot"


def test_snapshot_rejects_foreign_documents():
    with pytest.raises(ValueError):
        Snapshot.from_dict({"kind": "something-else", "v": 1})


def test_merge_snapshots_folds_any_grouping():
    snaps = [_snap(f"s{i}", float(i), {"n": i}) for i in range(1, 5)]
    folded = merge_snapshots(snaps)
    paired = merge_snapshots([snaps[0].merge(snaps[1]),
                              snaps[2].merge(snaps[3])])
    assert folded.to_json() == paired.to_json()
    assert folded.counters["n"] == 10


# ----------------------------------------------------------------------
# StreamingCollector
# ----------------------------------------------------------------------
def test_collector_snapshots_are_frozen():
    clock = [0.0]
    col = StreamingCollector(clock=lambda: clock[0])
    col.observe("m", 1.0)
    first = col.snapshot()
    col.observe("m", 100.0)
    clock[0] = 9.0
    second = col.snapshot()
    assert first.sketches["m"].count == 1  # later observes don't leak back
    assert second.sketches["m"].count == 2
    assert second.counters["obs.snapshots_emitted"] == 2


# ----------------------------------------------------------------------
# workload integration
# ----------------------------------------------------------------------
def test_percentiles_of_empty_list_is_empty_dict():
    # Regression: this used to hand numpy an empty array (ValueError) or,
    # worse, fabricate NaN placeholders.
    assert _percentiles([], (50, 90, 99)) == {}


def test_percentiles_track_exact_within_sketch_bound():
    values = [float(v) for v in range(1, 200)]
    pcts = _percentiles(values, (50, 90, 99))
    for q, key in ((0.50, "p50"), (0.90, "p90"), (0.99, "p99")):
        exact = exact_quantile(values, q)
        assert abs(pcts[key] - exact) <= 0.01 * exact


def test_unbudgeted_workload_report_is_unchanged():
    res = run_workload(wl_config(n_queries=2, pool=8, memory=AMPLE_MEMORY))
    assert "obs" not in res.to_dict()
    assert not any(i["name"].startswith("obs.") for i in res.metrics)
    assert res.spans_dropped == 0 and res.edges_dropped == 0
    assert res.snapshot is not None  # the snapshot itself always exists
    assert "obs:" not in res.summary()


def test_budgeted_workload_sheds_loudly_but_answers_exactly():
    base = run_workload(wl_config(n_queries=6, pool=8, memory=AMPLE_MEMORY))
    cfg = wl_config(n_queries=6, pool=8, memory=AMPLE_MEMORY,
                    obs=ObsConfig(budget_bytes=4096))
    res = run_workload(cfg)
    # observability is a pure observer: identical answers and timings
    assert [q.matches for q in res.queries] == [
        q.matches for q in base.queries
    ]
    assert res.makespan_s == base.makespan_s
    # ... but the budget visibly shed spans (6 queries >> the ~40-span
    # floor) and the report says so
    assert res.spans_dropped > 0
    obs = res.to_dict()["obs"]
    assert obs["budget_bytes"] == 4096
    assert obs["spans_dropped"] == res.spans_dropped
    assert "obs: budget shed" in res.summary()
    assert res.snapshot.counter_total("obs.spans_dropped") == res.spans_dropped


def test_unbudgeted_single_query_keeps_plain_logs():
    res = run_join(small_config())
    assert not any(i["name"].startswith("obs.") for i in res.metrics)


def test_two_shard_split_merges_to_exact_counters():
    """The acceptance contract: a seeded workload split across two
    independent simulators merges via Snapshot.merge() into exact
    counters and in-bound latency quantiles."""
    shard_a = run_workload(wl_config(
        n_queries=2, pool=8, memory=AMPLE_MEMORY,
        obs=ObsConfig(shard="shardA"),
    ))
    shard_b = run_workload(wl_config(
        n_queries=3, pool=8, memory=AMPLE_MEMORY, seed=13,
        obs=ObsConfig(shard="shardB"),
    ))
    merged = shard_a.snapshot.merge(shard_b.snapshot)
    assert merged.to_json() == shard_b.snapshot.merge(
        shard_a.snapshot
    ).to_json()
    assert merged.shards == ("shardA", "shardB")
    # every catalogued counter is reported exactly: key-union sum
    for key in set(shard_a.snapshot.counters) | set(shard_b.snapshot.counters):
        assert merged.counters[key] == (
            shard_a.snapshot.counters.get(key, 0)
            + shard_b.snapshot.counters.get(key, 0)
        )
    assert merged.counter_total("workload.queries") == 5
    # latency quantiles of the merged sketch stay within the documented
    # bound of the exact combined order statistics
    latencies = [q.latency_s for q in shard_a.queries + shard_b.queries]
    for q in (0.5, 0.9, 0.99):
        exact = exact_quantile(latencies, q)
        got = merged.quantile("workload.query_latency_s", q)
        assert abs(got - exact) <= 0.01 * abs(exact)


def test_final_snapshot_is_deterministic():
    cfg = wl_config(n_queries=3, pool=8, memory=AMPLE_MEMORY,
                    obs=ObsConfig(budget_bytes=32768))
    one = run_workload(cfg).snapshot.to_json()
    two = run_workload(cfg).snapshot.to_json()
    assert one == two


def test_live_interval_emits_periodic_snapshots():
    seen = []
    cfg = wl_config(n_queries=2, pool=8, memory=AMPLE_MEMORY,
                    obs=ObsConfig(live_interval_s=0.05))
    res = run_workload(cfg, on_snapshot=seen.append)
    assert seen, "expected at least one periodic snapshot"
    assert all(isinstance(s, Snapshot) for s in seen)
    assert [s.t for s in seen] == sorted(s.t for s in seen)
    emitted = res.snapshot.counter_total("obs.snapshots_emitted")
    # final snapshot counts itself on top of the periodic ones
    assert emitted == len(seen) + 1
    # periodic snapshots merge cleanly into the final one
    folded = merge_snapshots([*seen, res.snapshot])
    assert folded.counter_total("workload.queries") == 2


def test_bounded_span_log_drops_shortest_first():
    log = SpanLog(sample=4, outliers=2)
    for i in range(50):
        log.add("track", f"op{i}", float(i), float(i) + 0.001 * (i + 1))
    log.add("track", "slow", 100.0, 200.0)
    assert log.dropped == 51 - len(log.spans)
    assert any(s.name == "slow" for s in log.spans)  # heaviest survives
    assert [s.t0 for s in log.spans] == sorted(s.t0 for s in log.spans)
