"""Unit tests for configuration, validation, and the co-scaling rule."""

import pytest

from repro.config import (
    Algorithm,
    ClusterSpec,
    CostModel,
    Distribution,
    MTUPLES,
    PoolPolicy,
    QueryMixEntry,
    RunConfig,
    SplitPolicy,
    WorkloadConfig,
    WorkloadSpec,
)
from repro.faults import CrashSpec, FaultPlan


def test_algorithm_expanding_flag():
    assert Algorithm.SPLIT.is_expanding
    assert Algorithm.REPLICATE.is_expanding
    assert Algorithm.HYBRID.is_expanding
    assert not Algorithm.OUT_OF_CORE.is_expanding


def test_workload_real_counts_scale():
    wl = WorkloadSpec(r_tuples=10 * MTUPLES, s_tuples=20 * MTUPLES,
                      chunk_tuples=10_000, scale=0.01)
    assert wl.real_r_tuples == 100_000
    assert wl.real_s_tuples == 200_000
    assert wl.real_chunk_tuples == 100
    assert wl.chunk_bytes == 100 * wl.tuple_bytes


def test_workload_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(tuple_bytes=8)  # smaller than the two 64-bit fields
    with pytest.raises(ValueError):
        WorkloadSpec(scale=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(scale=1.5)
    with pytest.raises(ValueError):
        WorkloadSpec(chunk_tuples=0)


def test_cost_model_derived_times():
    cost = CostModel(net_bandwidth=10e6, disk_bandwidth=5e6, disk_seek=0.01)
    assert cost.wire_time(10e6) == pytest.approx(1.0)
    assert cost.disk_time(5e6) == pytest.approx(1.01)


def test_cost_model_scaling_rule():
    cost = CostModel()
    half = cost.scaled(0.5)
    # fixed per-op costs shrink with scale
    assert half.net_latency == pytest.approx(cost.net_latency * 0.5)
    assert half.net_per_message_cpu == pytest.approx(
        cost.net_per_message_cpu * 0.5)
    assert half.disk_seek == pytest.approx(cost.disk_seek * 0.5)
    # per-byte / per-tuple costs are untouched
    assert half.net_bandwidth == cost.net_bandwidth
    assert half.cpu_insert_tuple == cost.cpu_insert_tuple
    assert half.disk_bandwidth == cost.disk_bandwidth
    # receive window is counted in chunks: scale-invariant
    assert half.recv_window_chunks == cost.recv_window_chunks
    assert cost.scaled(1.0) is cost


def test_cluster_spec_scaling_shrinks_memory_and_costs():
    spec = ClusterSpec(hash_memory_bytes=1000,
                       node_memory_overrides=((3, 2000),))
    scaled = spec.scaled(0.1)
    assert scaled.hash_memory_bytes == 100
    assert scaled.memory_of(3) == 200
    assert scaled.memory_of(0) == 100
    assert scaled.cost.disk_seek == pytest.approx(spec.cost.disk_seek * 0.1)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(initial_nodes=0)
    with pytest.raises(ValueError):
        RunConfig(initial_nodes=25, cluster=ClusterSpec(n_potential_nodes=24))
    with pytest.raises(ValueError):
        RunConfig(hash_positions=8, cluster=ClusterSpec(n_potential_nodes=24))


def test_run_config_effective_cluster_scales_with_workload():
    cfg = RunConfig(workload=WorkloadSpec(scale=0.5))
    eff = cfg.effective_cluster
    assert eff.hash_memory_bytes == ClusterSpec().hash_memory_bytes // 2
    assert cfg.effective_drain_poll == pytest.approx(0.010 * 0.5)


def test_default_calibration_sixteen_nodes_hold_ten_million_tuples():
    """Figure 2's anchor: 16 nodes' budget just covers 10M 100-byte tuples."""
    wl = WorkloadSpec()  # 10M x 100B
    spec = ClusterSpec()
    per_node_tuples = spec.hash_memory_bytes // wl.tuple_bytes
    assert 14 * per_node_tuples < wl.r_tuples <= 16 * per_node_tuples


def test_split_policy_enum_values():
    assert SplitPolicy("bisect") is SplitPolicy.TARGETED_BISECT
    assert SplitPolicy("linear") is SplitPolicy.LINEAR_POINTER
    assert SplitPolicy("linear_mod") is SplitPolicy.LINEAR_MOD
    assert RunConfig().split_policy is SplitPolicy.TARGETED_BISECT


def test_distribution_enum_roundtrip():
    assert Distribution("uniform") is Distribution.UNIFORM
    assert Distribution("gaussian") is Distribution.GAUSSIAN
    assert Distribution("zipf") is Distribution.ZIPF


def test_pool_policy_enum_values():
    assert PoolPolicy("fifo") is PoolPolicy.FIFO
    assert PoolPolicy("fair") is PoolPolicy.FAIR_SHARE
    assert PoolPolicy("deficit") is PoolPolicy.MEMORY_DEFICIT
    assert WorkloadConfig().policy is PoolPolicy.FIFO


def test_query_mix_entry_validation():
    with pytest.raises(ValueError):
        QueryMixEntry(weight=0)
    with pytest.raises(ValueError):
        QueryMixEntry(weight=-1.5)
    with pytest.raises(ValueError):
        QueryMixEntry(r_tuples=0)
    with pytest.raises(ValueError):
        QueryMixEntry(initial_nodes=0)
    with pytest.raises(ValueError):
        QueryMixEntry(tuple_bytes=8)  # cannot hold the two u64 fields


def test_workload_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(n_queries=0)
    with pytest.raises(ValueError):
        WorkloadConfig(arrival_rate_qps=0.0)
    with pytest.raises(ValueError):
        WorkloadConfig(arrival_rate_qps=-2.0)
    with pytest.raises(ValueError):
        WorkloadConfig(mix=())
    with pytest.raises(ValueError):
        WorkloadConfig(fair_share_cap=0)
    with pytest.raises(ValueError):
        WorkloadConfig(grant_timeout_s=0.0)
    with pytest.raises(ValueError):
        WorkloadConfig(grant_timeout_s=float("inf"))
    # trace length must match the query count, entries must be >= 0
    with pytest.raises(ValueError):
        WorkloadConfig(n_queries=3, arrival_times=(0.0, 1.0))
    with pytest.raises(ValueError):
        WorkloadConfig(n_queries=2, arrival_times=(0.0, -1.0))
    # a trace overrides the rate, so a bogus rate is then irrelevant
    cfg = WorkloadConfig(n_queries=2, arrival_times=(0.0, 1.0),
                         arrival_rate_qps=-1.0)
    assert cfg.arrival_times == (0.0, 1.0)
    # a mix entry may not want more initial nodes than the pool holds
    with pytest.raises(ValueError):
        WorkloadConfig(
            mix=(QueryMixEntry(initial_nodes=9),),
            cluster=ClusterSpec(n_potential_nodes=8),
        )


def test_workload_config_fault_restrictions():
    with pytest.raises(ValueError):
        WorkloadConfig(faults=FaultPlan(ack_drop_prob=0.05))
    with pytest.raises(ValueError):
        WorkloadConfig(faults=FaultPlan(
            crashes=(CrashSpec(node=1, at_phase="build"),)
        ))
    # at_time crashes and link drops are the supported workload faults
    cfg = WorkloadConfig(faults=FaultPlan(
        drop_prob=0.01, crashes=(CrashSpec(node=1, at_time=0.5),)
    ))
    assert cfg.faults is not None and cfg.faults.active


def test_workload_config_effective_grant_timeout():
    assert WorkloadConfig(grant_timeout_s=1.25).effective_grant_timeout \
        == pytest.approx(1.25)
    derived = WorkloadConfig(scale=0.02)
    assert derived.effective_grant_timeout == pytest.approx(
        200.0 * 0.010 * 0.02)


# ----------------------------------------------------------------------
# data shape: what draw_values would otherwise reject mid-run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kw", [
    dict(distribution=Distribution.ZIPF, zipf_s=0.5),
    dict(distribution=Distribution.ZIPF, zipf_s=1.0),
    dict(distribution=Distribution.GAUSSIAN, gauss_sigma=0.0),
    dict(distribution=Distribution.GAUSSIAN, gauss_sigma=-1.0),
    # S's overrides are checked like R's
    dict(s_distribution=Distribution.GAUSSIAN, s_gauss_sigma=-0.1),
    dict(distribution=Distribution.GAUSSIAN, s_gauss_sigma=0.0),
    dict(s_distribution=Distribution.ZIPF, zipf_s=1.0),
], ids=["zipf-0.5", "zipf-1", "sigma-0", "sigma-neg", "s-sigma-neg",
        "s-override-0", "s-zipf-1"])
def test_workload_spec_rejects_undrawable_skew(kw):
    with pytest.raises(ValueError):
        WorkloadSpec(**kw)


def test_workload_spec_ignores_parameters_of_unused_distributions():
    # a sigma or exponent that no relation draws from is never used
    assert WorkloadSpec(gauss_sigma=-1.0, zipf_s=0.5).distribution \
        is Distribution.UNIFORM
    assert WorkloadSpec(distribution=Distribution.ZIPF, zipf_s=1.2,
                        gauss_sigma=0.0).zipf_s == 1.2


def test_mix_entry_shares_the_workload_spec_data_checks():
    with pytest.raises(ValueError, match="gauss_sigma"):
        QueryMixEntry(distribution=Distribution.GAUSSIAN, gauss_sigma=-1.0)
    with pytest.raises(ValueError, match="tuple_bytes"):
        QueryMixEntry(tuple_bytes=8)
    entry = QueryMixEntry(distribution=Distribution.GAUSSIAN,
                          gauss_sigma=0.01, tuple_bytes=200)
    spec = entry.spec(scale=0.5, seed=3)
    assert (spec.gauss_sigma, spec.tuple_bytes, spec.scale, spec.seed) == (
        0.01, 200, 0.5, 3)


@pytest.mark.parametrize("kw", [
    dict(n_sources=0), dict(n_potential_nodes=0), dict(hash_memory_bytes=0),
], ids=["no-sources", "no-pool", "no-memory"])
def test_cluster_spec_validation(kw):
    with pytest.raises(ValueError):
        ClusterSpec(**kw)


def test_output_pair_bytes_is_one_r_and_one_s_tuple():
    assert RunConfig().output_pair_bytes == 200
    assert RunConfig(
        workload=WorkloadSpec(tuple_bytes=400)
    ).output_pair_bytes == 800
