"""Run driver: wire the actors, run the simulation, assemble the result.

This is the public entry point::

    from repro import run_join, RunConfig, Algorithm

    result = run_join(RunConfig(algorithm=Algorithm.HYBRID, initial_nodes=4))
    print(result.summary())

The driver also validates the run end-to-end by default: the distributed
match count must equal the sequential oracle on the identical relations,
and the network must conserve bytes.

The assembly half (`assemble_result`) is shared with the multi-tenant
workload driver (:mod:`repro.workload`), which runs many of these
pipelines inside one simulator and turns each scheduler outcome into a
per-query :class:`JoinRunResult` with the same code path.
"""

from __future__ import annotations

from ..config import Algorithm, RunConfig
from ..data import materialize_relation
from ..obs import (
    PHASE_NAMES,
    SCHEDULER_TRACK,
    PhaseTimeline,
    harvest_network,
    harvest_nodes,
    harvest_simulator,
)
from ..seqjoin import match_count
from ..sim import Simulator
from .context import RunContext
from .datasource import DataSourceProcess
from .joinnode import JoinProcess
from .messages import Hop
from .results import JoinRunResult, NodeLoad, NodeUtilization, PhaseTimes
from .scheduler import SchedulerOutcome, SchedulerProcess

__all__ = ["run_join", "assemble_result", "spawn_query_pipeline"]


def spawn_query_pipeline(
    ctx: RunContext, *, spawn_joins: bool = True,
) -> SchedulerProcess:
    """Spawn one query's scheduler + sources (+ optionally all join nodes).

    Single-query mode spawns a JoinProcess for the entire potential pool up
    front.  Workload mode passes ``spawn_joins=False``: join processes are
    created lazily, one per pool *grant*, by the workload driver's adopt
    callback — a dormant shared node must not be bound to any one query.
    Returns the scheduler process object; its spawned simulation process is
    available as ``ctx.sim`` process return value via the caller's spawn.
    """
    scheduler = SchedulerProcess(ctx)
    scheduler.proc = ctx.sim.spawn(
        scheduler.run(), name=f"scheduler-q{ctx.query}"
    )

    # Control-plane fault tolerance (single-query mode only): a standby
    # scheduler that passively replicates state and takes over on primary
    # silence.  The driver reads the query outcome from whichever of the
    # two actually finished it.
    scheduler.backup = None
    if (
        spawn_joins
        and ctx.faults is not None
        and ctx.faults.plan.membership_active
        and ctx.backup_node is not None
    ):
        from .membership import BackupSchedulerProcess

        backup = BackupSchedulerProcess(ctx)
        backup.proc = ctx.sim.spawn(backup.run(), name="sched-backup")
        scheduler.backup = backup

    if spawn_joins:
        auto_spill = ctx.cfg.algorithm is Algorithm.OUT_OF_CORE
        joins = [
            JoinProcess(ctx, j, auto_spill=auto_spill)
            for j in range(ctx.n_potential)
        ]
        join_procs = {}
        for jp in joins:
            join_procs[jp.index] = ctx.sim.spawn(jp.run(), name=f"join{jp.index}")
        if ctx.faults is not None:
            ctx.faults.attach_scheduler(scheduler.proc)
            ctx.faults.attach_joins(join_procs, {jp.index: jp for jp in joins})
            ctx.faults.start()

    sources = [
        DataSourceProcess(ctx, s, scheduler.router) for s in range(ctx.n_sources)
    ]
    for sp in sources:
        ctx.sim.spawn(sp.run(), name=f"src{sp.index}-q{ctx.query}")
    return scheduler


def assemble_result(
    ctx: RunContext,
    outcome: SchedulerOutcome,
    validate: bool,
    span_track: str = SCHEDULER_TRACK,
) -> JoinRunResult:
    """Turn a finished scheduler outcome into a validated JoinRunResult.

    Phase times are measured from ``outcome.t_start`` (nonzero in workload
    mode, where a query's pipeline starts at its arrival time), so the
    per-query latency accounting is arrival-relative while the span
    timeline keeps absolute simulated time.
    """
    cfg = ctx.cfg
    # Fold the probe-side replica duplicates into the hop accounting.
    if outcome.probe_dup_tuples:
        ctx.comm.tuples_by_hop[Hop.PROBE_DUP] = outcome.probe_dup_tuples

    times = PhaseTimes(
        build_s=outcome.t_build - outcome.t_start,
        reshuffle_s=outcome.t_reshuffle - outcome.t_build,
        probe_s=outcome.t_probe - outcome.t_reshuffle,
        ooc_pass_s=outcome.t_ooc - outcome.t_probe,
    )

    # Scheduler-track phase spans come straight from the outcome stamps, so
    # the chrome trace's phase lanes agree with PhaseTimes by construction.
    boundaries = (
        outcome.t_start, outcome.t_build, outcome.t_reshuffle,
        outcome.t_probe, outcome.t_ooc,
    )
    for name, t0, t1 in zip(PHASE_NAMES, boundaries, boundaries[1:]):
        if t1 > t0 or name == "build":
            ctx.spans.add(span_track, name, t0, t1)

    reports = outcome.final_reports
    loads = [
        NodeLoad(
            node=j,
            stored_tuples=r.stored_tuples,
            activated_at=r.activated_at,
            peak_memory=r.peak_memory,
            spilled_r_tuples=r.spilled_r_tuples,
        )
        for j, r in sorted(reports.items())
    ]
    matches = sum(r.matches for r in reports.values())

    reference = None
    if validate:
        r_values = materialize_relation(cfg.workload, "R", ctx.n_sources)
        s_values = materialize_relation(cfg.workload, "S", ctx.n_sources)
        reference = match_count(r_values, s_values)
        if matches != reference:
            raise AssertionError(
                f"join result mismatch: distributed={matches} oracle={reference} "
                f"({cfg.algorithm.value}, initial={cfg.initial_nodes})"
            )
        stored_total = sum(l.stored_tuples for l in loads)
        spilled_total = sum(r.spilled_r_tuples for r in reports.values())
        if stored_total + spilled_total != r_values.size:
            raise AssertionError(
                f"build tuples lost: stored={stored_total} spilled={spilled_total} "
                f"generated={r_values.size}"
            )

    result = JoinRunResult(
        config=cfg,
        times=times,
        matches=matches,
        reference_matches=reference,
        comm=ctx.comm,
        loads=loads,
        nodes_used=len(outcome.activated),
        expansion_trace=list(outcome.expansion_trace),
        n_splits=outcome.n_splits,
        split_moved_tuples=outcome.split_moved_tuples,
        # Split time (Figure 5): serialized relief-cycle overhead plus the
        # wall time of the actual split transfers on the join nodes.
        split_busy_s=outcome.split_busy_s
        + sum(r.split_transfer_s for r in reports.values()),
        reshuffle_moved_tuples=outcome.reshuffle_moved_tuples,
        overcommit_bytes=sum(r.overcommit_bytes for r in reports.values()),
        spilled_r_tuples=sum(r.spilled_r_tuples for r in reports.values()),
        spilled_s_tuples=sum(r.spilled_s_tuples for r in reports.values()),
        output_tuples=sum(r.output_tuples for r in reports.values()),
        output_spilled_tuples=sum(
            r.output_spilled_tuples for r in reports.values()
        ),
        output_sink_nodes=sum(
            1 for r in reports.values() if r.is_output_sink
        ),
        timeline=PhaseTimeline(ctx.spans.spans),
        tracer=ctx.tracer,
        causal=ctx.causal,
    )
    if validate and cfg.materialize_output:
        kept = result.output_tuples + result.output_spilled_tuples
        if kept != matches:
            raise AssertionError(
                f"materialized output lost: kept={kept} matches={matches}"
            )
    return result


def run_join(cfg: RunConfig, validate: bool = True) -> JoinRunResult:
    """Execute one simulated parallel join under ``cfg``.

    ``validate=True`` additionally computes the exact join cardinality with
    the sequential reference and raises ``AssertionError`` on any mismatch
    or conservation violation — the whole-system invariant the test suite
    leans on.  Pass ``validate=False`` for large benchmark sweeps where the
    oracle's O((|R|+|S|) log |R|) cost is unwanted.
    """
    sim = Simulator()
    ctx = RunContext(sim, cfg)
    scheduler = spawn_query_pipeline(ctx)

    sim.run()

    outcome = scheduler.proc.value
    if outcome is None and scheduler.backup is not None:
        # The primary was killed (or deposed): the standby owns the result.
        outcome = scheduler.backup.outcome
    if outcome is None:
        raise RuntimeError(
            "query did not complete: scheduler produced no outcome "
            "(primary crashed with no standby takeover?)"
        )
    ctx.cluster.network.assert_conserved()

    harvest_simulator(ctx.metrics, sim)
    harvest_network(ctx.metrics, ctx.cluster.network)
    harvest_nodes(ctx.metrics, ctx.cluster.all_nodes)
    ctx.metrics.close()

    result = assemble_result(ctx, outcome, validate)
    result.metrics = ctx.metrics.snapshot()

    total = sim.now
    if total > 0:
        reports = outcome.final_reports
        tracked = [
            (f"src{s}", node)
            for s, node in enumerate(ctx.cluster.source_nodes)
        ] + [(f"join{j}", ctx.join_node(j)) for j in sorted(reports)]
        for track, node in tracked:
            result.utilization.append(NodeUtilization(
                node=node.node_id,
                role=node.role,
                track=track,
                cpu=node.cpu.busy_time / total,
                tx=node.tx.busy_time / total,
                rx=node.rx.busy_time / total,
                disk=node.disk.busy_time / total,
            ))

    return result
