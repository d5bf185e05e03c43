"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Eleven commands:

* ``run``     — one simulated join, printing the phase/traffic summary.
* ``workload`` — many concurrent joins over one shared node pool, with
  admission control and per-query latency/queueing percentiles.
* ``fleet``   — the workload sharded across OS worker processes by
  deterministic query cohorts, merged back into one fleet-wide result
  (shard-count invariant; see ``docs/FLEET.md``).
* ``sweep``   — a grid of runs (algorithms x initial nodes), as a table.
* ``figures`` — regenerate the paper's figures (or a subset) and print /
  save the reproduction reports.
* ``trace``   — run one join and export its execution trace (Chrome
  ``trace_event`` JSON for chrome://tracing / Perfetto, or JSONL).
* ``metrics`` — run one join and dump the metrics registry snapshot.
* ``explain`` — run one join and print the causal critical-path /
  bottleneck report (see ``docs/OBSERVABILITY.md``).
* ``bench-diff`` — compare two ``BENCH_*.json`` baselines or two
  observability snapshots (``--snapshot-out`` files; auto-detected);
  nonzero exit on regressions beyond the threshold (the CI perf gate).
* ``tail``    — render a ``--snapshot-out`` JSONL snapshot stream as
  per-snapshot progress lines plus a final-state digest.
* ``lint``    — run the repo's own static-analysis passes (determinism,
  protocol exhaustiveness, metrics-catalogue sync, fault safety); see
  ``docs/STATIC_ANALYSIS.md``.

Examples::

    python -m repro run --algorithm hybrid --initial-nodes 4
    python -m repro run --algorithm split --sigma 0.0001 --trace
    python -m repro workload --queries 6 --pool 8 --policy fair
    python -m repro workload --mix hybrid:2:2:2:2 --mix ooc:1:4:4:2 --format json
    python -m repro workload --queries 8 --live --obs-budget 65536 \\
        --snapshot-out run.snap.jsonl
    python -m repro fleet --queries 200 --shards 4 --arrival-profile bursty
    python -m repro tail run.snap.jsonl
    python -m repro sweep --initial-nodes 1,2,4,8,16
    python -m repro figures --only fig02 fig10 --out reports.md
    python -m repro trace --algorithm hybrid --format chrome --out trace.json
    python -m repro metrics --algorithm split --format table
    python -m repro explain --algorithm replicate --sigma 0.05
    python -m repro bench-diff BENCH_2.json BENCH_new.json --threshold 2
    python -m repro lint
    python -m repro lint --format json src/repro/core
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Sequence
from dataclasses import replace
from typing import Any

from .analysis import format_table
from .config import (
    Algorithm,
    ClusterSpec,
    Distribution,
    FleetConfig,
    MTUPLES,
    ObsConfig,
    PoolPolicy,
    QueryMixEntry,
    RunConfig,
    SplitPolicy,
    Topology,
    WorkloadConfig,
    WorkloadSpec,
)
from .core import run_join
from .faults import FaultPlan, FaultPlanError, crash_specs_from_cli
from .obs import Snapshot, metrics_to_jsonl

__all__ = ["main", "build_parser"]


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r-tuples", type=float, default=10.0, metavar="M",
                   help="build relation size in millions of tuples "
                        "(paper units; default 10)")
    p.add_argument("--s-tuples", type=float, default=10.0, metavar="M",
                   help="probe relation size in millions of tuples")
    p.add_argument("--tuple-bytes", type=int, default=100)
    p.add_argument("--sigma", type=float, default=None,
                   help="Gaussian skew (fraction of the value range); "
                        "omit for uniform data")
    p.add_argument("--zipf", type=float, default=None, metavar="S",
                   help="Zipf exponent (> 1); mutually exclusive with "
                        "--sigma")
    p.add_argument("--chunk-tuples", type=int, default=10_000)
    p.add_argument("--scale", type=float, default=WorkloadSpec().scale,
                   help="down-scaling factor (default 1/50); 1.0 = full size")
    p.add_argument("--seed", type=int, default=WorkloadSpec().seed)


def _add_cluster_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--initial-nodes", type=str, default="4",
                   help="initial join nodes; a comma list sweeps (sweep "
                        "command only)")
    p.add_argument("--pool", type=int, default=24,
                   help="potential join nodes (default 24)")
    p.add_argument("--sources", type=int, default=4,
                   help="data-source nodes (default 4)")
    p.add_argument("--node-memory-mb", type=float, default=64.0,
                   help="hash-table budget per node in MB (default 64)")
    p.add_argument("--topology", default="switched",
                   choices=[t.value for t in Topology],
                   help="interconnect: switched ports or one shared hub")
    p.add_argument("--sources-from-disk", action="store_true",
                   help="sources read relations from disk instead of "
                        "generating them")


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fault-plan", metavar="PATH",
                   help="JSON fault plan (see docs/FAULTS.md for the schema)")
    p.add_argument("--drop-prob", type=float, default=None, metavar="P",
                   help="drop every inter-node message with probability P "
                        "(sender retransmits; overrides the plan's value)")
    p.add_argument("--crash-node", action="append", default=[],
                   metavar="N[@T|@phase:NAME]",
                   help="fail-stop a pool node: pool index, optionally at "
                        "sim time T or on phase entry (build/reshuffle/"
                        "probe/ooc); repeatable.  Crashing a *working* node "
                        "requires the membership layer (--membership or any "
                        "control-plane knob), which recovers its hash range")
    p.add_argument("--membership", action="store_true",
                   help="arm the control-plane fault-tolerance layer "
                        "(heartbeat failure detector + standby scheduler; "
                        "see docs/FAULTS.md)")
    p.add_argument("--heartbeat-interval", type=float, default=None,
                   metavar="S",
                   help="heartbeat period in simulated seconds (implies "
                        "--membership; suspect/confirm timeouts derive "
                        "from it unless pinned in the fault plan)")
    p.add_argument("--kill-scheduler-at", type=float, default=None,
                   metavar="T",
                   help="fail-stop the primary scheduler at sim time T "
                        "(implies --membership; the standby takes over)")
    p.add_argument("--lockdep", action="store_true",
                   help="arm the runtime deadlock detector (sim-time "
                        "wait-for graph over resources, mailboxes, "
                        "barriers and latches; pure observer, on by "
                        "default under pytest — see "
                        "docs/STATIC_ANALYSIS.md)")


def _faults(args: argparse.Namespace) -> FaultPlan | None:
    """Fold the fault CLI flags into one plan.

    Returns ``None`` when no fault flag was given, which keeps the run on
    the exact fault-free code path (no injector is constructed at all).
    """
    plan = FaultPlan.from_file(args.fault_plan) if args.fault_plan else None
    if args.drop_prob is not None:
        plan = replace(plan or FaultPlan(), drop_prob=args.drop_prob)
    if args.membership:
        plan = replace(plan or FaultPlan(), membership=True)
    if args.heartbeat_interval is not None:
        plan = replace(plan or FaultPlan(),
                       heartbeat_interval_s=args.heartbeat_interval)
    if args.kill_scheduler_at is not None:
        plan = replace(plan or FaultPlan(),
                       kill_scheduler_at=args.kill_scheduler_at)
    if args.crash_node:
        plan = (plan or FaultPlan()).with_crashes(
            *crash_specs_from_cli(args.crash_node)
        )
    return plan


def _parse_arrival_times(text: str | None) -> tuple[float, ...]:
    """Parse ``--arrival-times``: comma-separated floats, whitespace and
    empty segments (e.g. a trailing comma) tolerated; a non-numeric
    segment raises a ValueError that names the flag."""
    if not text:
        return ()
    times = []
    for segment in text.split(","):
        segment = segment.strip()
        if not segment:
            continue
        try:
            times.append(float(segment))
        except ValueError:
            raise ValueError(
                f"--arrival-times: {segment!r} is not a number (expected "
                f"a comma-separated list like 1.0,2.5,4.0)"
            ) from None
    return tuple(times)


def _workload(args: argparse.Namespace) -> WorkloadSpec:
    # --zipf and --sigma are rejected as a pair up front (see main()), so
    # the branches below never silently discard a skew request.
    if args.zipf is not None:
        dist, sigma = Distribution.ZIPF, 0.001
    elif args.sigma is not None:
        dist, sigma = Distribution.GAUSSIAN, args.sigma
    else:
        dist, sigma = Distribution.UNIFORM, 0.001
    return WorkloadSpec(
        r_tuples=int(args.r_tuples * MTUPLES),
        s_tuples=int(args.s_tuples * MTUPLES),
        tuple_bytes=args.tuple_bytes,
        distribution=dist,
        gauss_sigma=sigma,
        zipf_s=args.zipf if args.zipf is not None else 1.1,
        chunk_tuples=args.chunk_tuples,
        scale=args.scale,
        seed=args.seed,
    )


def _cluster(args: argparse.Namespace) -> ClusterSpec:
    return ClusterSpec(
        n_sources=args.sources,
        n_potential_nodes=args.pool,
        hash_memory_bytes=int(args.node_memory_mb * 1024 * 1024),
        topology=Topology(args.topology),
    )


def _config(args: argparse.Namespace, algorithm: Algorithm,
            initial_nodes: int, force_trace: bool = False) -> RunConfig:
    return RunConfig(
        algorithm=algorithm,
        initial_nodes=initial_nodes,
        workload=_workload(args),
        cluster=_cluster(args),
        split_policy=SplitPolicy(args.split_policy),
        materialize_output=args.materialize_output,
        probe_expansion=args.probe_expansion,
        sources_from_disk=args.sources_from_disk,
        trace=args.trace or force_trace,
        trace_buffer=args.trace_buffer,
        faults=_faults(args),
        lockdep=args.lockdep,
    )


def _refuse_overwrite(path: str | None, force: bool, command: str) -> bool:
    """True when ``path`` exists and ``--force`` was not given.

    Checked before the simulation runs, so a collision fails in
    milliseconds instead of after the join completes — and an existing
    export is never clobbered by a fat-fingered re-run.
    """
    import os

    if path and os.path.exists(path) and not force:
        print(f"{command}: refusing to overwrite existing {path}; "
              f"pass --force to replace it", file=sys.stderr)
        return True
    return False


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    algorithm = Algorithm(args.algorithm)
    initial = int(args.initial_nodes.split(",")[0])
    cfg = _config(args, algorithm, initial)
    res = run_join(cfg, validate=not args.no_validate)
    print(res.summary())
    t = res.times
    scale = cfg.workload.scale
    print(f"\nphases (paper-scale s): build={t.build_s / scale:.1f} "
          f"reshuffle={t.reshuffle_s / scale:.1f} "
          f"probe={t.probe_s / scale:.1f} ooc={t.ooc_pass_s / scale:.1f} "
          f"total={res.paper_scale_total_s:.1f}")
    if args.trace:
        print("\ntrace:")
        print(res.tracer.format())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    algorithms = (
        list(Algorithm) if args.algorithms == "all"
        else [Algorithm(a) for a in args.algorithms.split(",")]
    )
    initials = [int(x) for x in args.initial_nodes.split(",")]
    rows = []
    for k in initials:
        row: list[object] = [k]
        for algorithm in algorithms:
            cfg = _config(args, algorithm, k)
            res = run_join(cfg, validate=not args.no_validate)
            row.append(round(res.paper_scale_total_s, 1))
        rows.append(row)
    print(format_table(
        ["initial nodes"] + [a.value for a in algorithms], rows
    ))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from .bench import FigureHarness

    harness = FigureHarness(scale=args.scale, validate=not args.no_validate)
    available = {
        "fig02": harness.fig02, "fig03": harness.fig03,
        "fig04": harness.fig04, "fig05": harness.fig05,
        "fig06": harness.fig06, "fig07": harness.fig07,
        "fig08": harness.fig08, "fig09": harness.fig09,
        "fig10": harness.fig10, "fig11": harness.fig11,
        "fig12": harness.fig12, "fig13": harness.fig13,
        "model": harness.model_validation,
    }
    # --json alone snapshots the fig02 baseline without rendering reports;
    # combined with --only it does both (the sweep is memoized and shared).
    wanted = args.only or ([] if args.json else list(available))
    unknown = [w for w in wanted if w not in available]
    if unknown:
        print(f"unknown figures: {unknown}; choose from "
              f"{sorted(available)}", file=sys.stderr)
        return 2
    import os

    csv_paths = (
        [os.path.join(args.csv_dir, f"{name}.csv") for name in wanted]
        if args.csv_dir else []
    )
    for path in (args.out, args.json, *csv_paths):
        if _refuse_overwrite(path, args.force, "figures"):
            return 2
    reports = []
    for name in wanted:
        report = available[name]()
        reports.append(report)
        print(report.render())
        print()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(r.to_markdown() for r in reports))
        print(f"wrote {args.out}")
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        for name, report in zip(wanted, reports):
            path = os.path.join(args.csv_dir, f"{name}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(report.to_csv())
        print(f"wrote {len(reports)} csv files to {args.csv_dir}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(harness.baseline(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json} (fig02 baseline)")
    return 0 if all(r.all_passed for r in reports) else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import chrome_trace, trace_to_jsonl

    if _refuse_overwrite(args.out, args.force, "trace"):
        return 2
    algorithm = Algorithm(args.algorithm)
    initial = int(args.initial_nodes.split(",")[0])
    cfg = _config(args, algorithm, initial, force_trace=True)
    res = run_join(cfg, validate=not args.no_validate)
    if args.format == "chrome":
        payload = json.dumps(chrome_trace(res), indent=1) + "\n"
    else:
        lines = list(trace_to_jsonl(res.tracer))
        payload = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.out} ({args.format})")
        print()
        print(res.timeline.render())
    else:
        print(payload, end="")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    if _refuse_overwrite(args.out, args.force, "metrics"):
        return 2
    algorithm = Algorithm(args.algorithm)
    initial = int(args.initial_nodes.split(",")[0])
    cfg = _config(args, algorithm, initial)
    res = run_join(cfg, validate=not args.no_validate)
    if args.format == "jsonl":
        payload = "\n".join(metrics_to_jsonl(res.metrics))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"wrote {args.out} ({len(res.metrics)} instruments)")
        else:
            print(payload)
        return 0
    rows = []
    for inst in res.metrics:
        # The table view hides instruments that never fired (the registry
        # eagerly instruments every pool node); --format jsonl keeps them.
        labels = ",".join(f"{k}={v}" for k, v in sorted(inst["labels"].items()))
        if inst["type"] == "counter":
            if not inst["value"]:
                continue
            value = f"{inst['value']:g}"
        elif inst["type"] == "gauge":
            if inst["samples"] == 0:
                continue
            value = f"last={inst['last']:g} high={inst['high']:g}"
        else:
            if not inst["total_seconds"]:
                continue
            value = (f"mean={inst['time_weighted_mean']:.3f} "
                     f"high={inst['high']:g}")
        rows.append([inst["name"], labels, inst["type"], value])
    table = format_table(["metric", "labels", "type", "value"], rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        print(f"wrote {args.out} ({len(rows)} active instruments)")
    else:
        print(table)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from .obs import explain

    if _refuse_overwrite(args.out, args.force, "explain"):
        return 2
    algorithm = Algorithm(args.algorithm)
    initial = int(args.initial_nodes.split(",")[0])
    cfg = _config(args, algorithm, initial)
    res = run_join(cfg, validate=not args.no_validate)
    report = explain(res)
    if args.format == "json":
        payload = json.dumps(report.to_dict(), indent=1) + "\n"
    else:
        payload = report.to_text() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.out} ({args.format})")
    else:
        print(payload, end="")
    return 0


def _parse_mix_entry(text: str) -> QueryMixEntry:
    """``ALG[:WEIGHT[:R_M[:S_M[:INITIAL[:SIGMA]]]]]`` -> QueryMixEntry.

    Sizes are in millions of tuples (paper units); a sixth field turns the
    entry Gaussian-skewed with that sigma.  Example: ``hybrid:2:10:10:4``.
    """
    parts = text.split(":")
    if not 1 <= len(parts) <= 6:
        raise ValueError(
            f"mix entry {text!r}: expected ALG[:WEIGHT[:R_M[:S_M"
            f"[:INITIAL[:SIGMA]]]]]"
        )
    alg = Algorithm(parts[0])
    weight = float(parts[1]) if len(parts) > 1 else 1.0
    r_m = float(parts[2]) if len(parts) > 2 else 2.0
    s_m = float(parts[3]) if len(parts) > 3 else r_m
    initial = int(parts[4]) if len(parts) > 4 else 2
    sigma = float(parts[5]) if len(parts) > 5 else None
    return QueryMixEntry(
        weight=weight,
        algorithm=alg,
        r_tuples=int(r_m * MTUPLES),
        s_tuples=int(s_m * MTUPLES),
        initial_nodes=initial,
        distribution=(
            Distribution.GAUSSIAN if sigma is not None
            else Distribution.UNIFORM
        ),
        gauss_sigma=sigma if sigma is not None else 0.001,
    )


def _workload_config(
    args: argparse.Namespace, plan: FaultPlan | None
) -> WorkloadConfig:
    """Fold the shared workload CLI flags into a :class:`WorkloadConfig`
    (raises ValueError exactly like the dataclass validators)."""
    live = args.live or args.live_interval is not None
    mix = tuple(_parse_mix_entry(m) for m in args.mix) if args.mix else (
        QueryMixEntry(initial_nodes=2),
    )
    obs = ObsConfig(
        budget_bytes=args.obs_budget,
        live_interval_s=(
            (args.live_interval if args.live_interval is not None
             else 25.0 * args.scale)
            if live else None
        ),
    )
    return WorkloadConfig(
        n_queries=args.queries,
        arrival_rate_qps=args.arrival_rate,
        arrival_times=_parse_arrival_times(args.arrival_times),
        seed=args.seed,
        mix=mix,
        policy=PoolPolicy(args.policy),
        fair_share_cap=args.fair_share_cap,
        grant_timeout_s=args.grant_timeout,
        cluster=ClusterSpec(
            n_sources=args.sources,
            n_potential_nodes=args.pool,
            hash_memory_bytes=int(args.node_memory_mb * 1024 * 1024),
            topology=Topology(args.topology),
        ),
        scale=args.scale,
        trace=args.trace,
        faults=plan,
        lockdep=args.lockdep,
        obs=obs,
    )


def _check_membership(plan: FaultPlan | None, command: str) -> bool:
    """True (with a message) when the single-query-only control-plane
    fault layer was requested from a multi-query command."""
    if plan is not None and plan.membership_active:
        print(f"{command}: the control-plane fault-tolerance layer "
              "(--membership / --heartbeat-interval / --kill-scheduler-at) "
              "is single-query only; see docs/FAULTS.md",
              file=sys.stderr)
        return True
    return False


def _refuse_workload_outputs(args: argparse.Namespace, command: str) -> bool:
    return any(
        _refuse_overwrite(path, args.force, command)
        for path in (args.out, args.metrics_out, args.baseline,
                     args.snapshot_out)
    )


def _run_with_snapshots(
    args: argparse.Namespace,
    run: Callable[[Callable[[Snapshot], None]], Any],
    stream: str,
) -> Any:
    """Call ``run(on_snapshot)`` with the live telemetry both multi-query
    commands share: one progress line per periodic snapshot (``--live``),
    optionally streamed to a JSONL file (``--snapshot-out``; `repro tail`
    renders it).  The final snapshot is always appended last, so the
    file's last line is the run's end state — what bench-diff compares.
    """
    live = args.live or args.live_interval is not None
    snap_fh = None
    if args.snapshot_out:
        snap_fh = open(args.snapshot_out, "w", encoding="utf-8")

    def on_snapshot(snap: Snapshot) -> None:
        if live:
            print(f"live: {snap.describe()}")
        if snap_fh is not None:
            snap_fh.write(snap.to_json() + "\n")
            snap_fh.flush()

    try:
        res = run(on_snapshot)
        if res.snapshot is not None:
            on_snapshot(res.snapshot)
    finally:
        if snap_fh is not None:
            snap_fh.close()
    if args.snapshot_out:
        print(f"wrote {args.snapshot_out} ({stream})")
    return res


def _write_workload_outputs(
    args: argparse.Namespace, res: Any, wl: WorkloadConfig, *,
    benchmark: str, series: str, p99: float,
) -> None:
    """The report (``--format``/``--out``), ``--metrics-out`` JSONL and
    the ``--baseline`` document of a workload or fleet run."""
    if args.format == "json":
        payload = json.dumps(res.to_dict(), indent=1) + "\n"
    else:
        payload = res.summary() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.out} ({args.format})")
    else:
        print(payload, end="")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            for line in metrics_to_jsonl(res.metrics):
                fh.write(line + "\n")
        print(f"wrote {args.metrics_out} ({len(res.metrics)} instruments)")
    if args.baseline:
        # bench-diff's schema keys are fixed (total_s / build_s); for a
        # workload they carry makespan and p99 latency respectively.
        base = {
            "benchmark": benchmark,
            "scale": wl.scale,
            "series": {
                series: {
                    str(wl.n_queries): {
                        "total_s": res.makespan_s,
                        "build_s": p99,
                    }
                }
            },
        }
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(base, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.baseline} ({benchmark} baseline)")


def cmd_workload(args: argparse.Namespace) -> int:
    from .workload import run_workload

    plan = _faults(args)
    if _check_membership(plan, "workload"):
        return 2
    try:
        cfg = _workload_config(args, plan)
    except ValueError as exc:
        print(f"workload: {exc}", file=sys.stderr)
        return 2
    if _refuse_workload_outputs(args, "workload"):
        return 2
    res = _run_with_snapshots(
        args,
        lambda on_snapshot: run_workload(
            cfg, validate=not args.no_validate, on_snapshot=on_snapshot
        ),
        "snapshot stream",
    )
    _write_workload_outputs(
        args, res, cfg, benchmark="workload", series=cfg.policy.value,
        p99=res.latency_percentiles()["p99"],
    )
    if args.trace:
        print("\ntrace:")
        print(res.tracer.format())
    return 0 if res.all_valid else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    from .workload import profile_arrivals, run_fleet

    plan = _faults(args)
    if _check_membership(plan, "fleet"):
        return 2
    try:
        wl = _workload_config(args, plan)
        if args.arrival_profile != "poisson":
            wl = replace(
                wl, arrival_times=profile_arrivals(args.arrival_profile, wl)
            )
        cfg = FleetConfig(
            workload=wl,
            n_cohorts=args.cohorts,
            n_shards=args.shards,
            worker_timeout_s=args.worker_timeout,
        )
    except ValueError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    if _refuse_workload_outputs(args, "fleet"):
        return 2
    # Each live line and stream entry carries the *merged* fleet-wide
    # snapshot (latest per cohort, folded with the snapshot merge laws),
    # so tailing the JSONL mid-run shows progress across all workers.
    res = _run_with_snapshots(
        args,
        lambda on_snapshot: run_fleet(
            cfg, validate=not args.no_validate, on_snapshot=on_snapshot
        ),
        "merged snapshot stream",
    )
    for failure in res.failures:
        print(f"fleet: shard {failure.shard} failed ({failure.kind}, "
              f"cohorts {list(failure.cohorts)}): {failure.detail}",
              file=sys.stderr)
    # The series name carries the arrival profile so one baseline file
    # can hold curves for several profiles side by side.
    _write_workload_outputs(
        args, res, wl, benchmark="fleet",
        series=f"{args.arrival_profile}-{wl.policy.value}",
        p99=res.latency_percentiles().get("p99", 0.0),
    )
    return res.exit_code


def cmd_bench_diff(args: argparse.Namespace) -> int:
    from .bench import (
        BaselineError,
        diff_baselines,
        diff_snapshots,
        is_snapshot_doc,
        load_baseline,
        load_document,
    )

    try:
        old_doc = load_document(args.old)
        new_doc = load_document(args.new)
        old_snap, new_snap = is_snapshot_doc(old_doc), is_snapshot_doc(new_doc)
        if old_snap != new_snap:
            kinds = [
                "snapshot" if s else "figure baseline"
                for s in (old_snap, new_snap)
            ]
            print(f"bench-diff: cannot compare a {kinds[0]} ({args.old}) "
                  f"against a {kinds[1]} ({args.new})", file=sys.stderr)
            return 2
        if old_snap:
            diff = diff_snapshots(
                Snapshot.from_dict(old_doc), Snapshot.from_dict(new_doc),
                threshold_pct=args.threshold,
            )
        else:
            old = load_baseline(args.old)
            new = load_baseline(args.new)
            diff = diff_baselines(old, new, threshold_pct=args.threshold)
    except (BaselineError, ValueError) as exc:
        print(f"bench-diff: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(diff.to_dict(), indent=1))
    else:
        print(diff.to_text())
    return 0 if diff.ok else 1


def cmd_tail(args: argparse.Namespace) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        print(f"tail: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    if not lines:
        print(f"tail: {args.path}: empty snapshot stream", file=sys.stderr)
        return 2
    snaps = []
    for lineno, line in enumerate(lines, 1):
        try:
            snaps.append(Snapshot.from_json(line))
        except ValueError as exc:
            print(f"tail: {args.path}:{lineno}: {exc}", file=sys.stderr)
            return 2
    for snap in snaps:
        print(snap.describe())
    last = snaps[-1]
    rows = [[name, f"{value:g}"]
            for name, value in sorted(last.counters.items()) if value]
    for name, sk in sorted(last.sketches.items()):
        if not sk.count:
            continue
        pcts = sk.percentiles((50, 90, 99))
        rows.append([
            name,
            f"p50={pcts['p50']:g} p90={pcts['p90']:g} p99={pcts['p99']:g} "
            f"(n={sk.count})",
        ])
    print()
    print(f"final snapshot: {len(snaps)} snapshot(s), "
          f"shards={','.join(last.shards)}, "
          f"{len(last.spans)} sampled spans "
          f"({last.spans.dropped} shed)")
    print(format_table(["metric", "value"], rows))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import textwrap
    from pathlib import Path

    from .checkers import (
        FRAMEWORK_EXPLANATIONS,
        LintError,
        all_checkers,
        report_json,
        report_sarif,
        report_text,
        rule_counts,
        run_lint,
    )

    # Force registration so listings and explanations match a real run.
    from .checkers import passes  # noqa: F401

    if args.list:
        for cls in all_checkers():
            print(f"{cls.name}: {', '.join(cls.rules)}")
        return 0
    if args.explain:
        index: dict[str, str] = dict(FRAMEWORK_EXPLANATIONS)
        for cls in all_checkers():
            index.update(cls.explanations)
        text = index.get(args.explain)
        if text is None:
            print(f"lint: unknown rule {args.explain!r}; known rules:\n  "
                  + "\n  ".join(sorted(index)), file=sys.stderr)
            return 2
        print(f"{args.explain}:")
        print(textwrap.fill(text, width=76, initial_indent="  ",
                            subsequent_indent="  "))
        return 0
    root = Path(args.root) if args.root else Path.cwd()
    try:
        violations = run_lint(root, paths=args.paths or None,
                              select=args.select)
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        report_json(violations, sys.stdout)
    elif args.format == "sarif":
        report_sarif(violations, sys.stdout)
    else:
        report_text(violations, sys.stdout)
    if args.baseline:
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                base = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"lint: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        allowed = base.get("rules", {})
        current = rule_counts(violations)
        regressed = {r: (allowed.get(r, 0), n) for r, n in current.items()
                     if n > allowed.get(r, 0)}
        if regressed:
            for rule, (old, new) in sorted(regressed.items()):
                print(f"baseline: {rule}: {new} finding(s) > {old} allowed "
                      f"by {args.baseline}", file=sys.stderr)
            return 1
        print(f"baseline: ok — no rule above its count in {args.baseline}")
        return 0
    return 1 if violations else 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Expanding Hash-based Join Algorithms (HPDC 2004) — "
                    "simulated reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    _add_workload_args(common)
    _add_cluster_args(common)
    _add_fault_args(common)
    common.add_argument("--split-policy", default="bisect",
                        choices=[p.value for p in SplitPolicy])
    common.add_argument("--materialize-output", action="store_true",
                        help="keep join output pairs in node memory")
    common.add_argument("--probe-expansion", action="store_true",
                        help="recruit output-sink nodes on probe overflow "
                             "(paper footnote 1)")
    common.add_argument("--no-validate", action="store_true",
                        help="skip the sequential-oracle check")
    common.add_argument("--trace", action="store_true",
                        help="collect and print the protocol trace")
    common.add_argument("--trace-buffer", type=int, default=None,
                        metavar="N",
                        help="keep only the most recent N trace records "
                             "(bounded-buffer mode; default unbounded)")

    p_run = sub.add_parser("run", parents=[common],
                           help="run one simulated join")
    p_run.add_argument("--algorithm", default="hybrid",
                       choices=[a.value for a in Algorithm])
    p_run.set_defaults(func=cmd_run)

    def _add_workload_cli(p: argparse.ArgumentParser) -> None:
        # Flags shared verbatim by `workload` (in-process) and `fleet`
        # (OS-process sharded) — both fold into one WorkloadConfig.
        p.add_argument("--queries", type=int, default=4,
                       help="number of concurrent queries (default 4)")
        p.add_argument("--arrival-rate", type=float, default=0.5,
                       metavar="QPS",
                       help="Poisson arrival rate in queries per simulated "
                            "second (default 0.5)")
        p.add_argument("--arrival-times", metavar="T0,T1,...",
                       help="explicit arrival trace (simulated seconds, one "
                            "per query; overrides --arrival-rate)")
        p.add_argument("--mix", action="append", default=[],
                       metavar="ALG[:W[:R_M[:S_M[:K[:SIGMA]]]]]",
                       help="weighted query class: algorithm, weight, "
                            "relation sizes in Mtuples, initial nodes, "
                            "optional Gaussian sigma; repeatable (default "
                            "one 2Mx2M hybrid class on 2 nodes)")
        p.add_argument("--policy", default="fifo",
                       choices=[p.value for p in PoolPolicy],
                       help="pool arbitration policy (default fifo)")
        p.add_argument("--fair-share-cap", type=int, default=4, metavar="N",
                       help="max pool nodes one query may hold beyond its "
                            "admission grant (fair policy only; default 4)")
        p.add_argument("--grant-timeout", type=float, default=None,
                       metavar="S",
                       help="deny a parked recruit after S simulated "
                            "seconds (default: scale-derived)")
        p.add_argument("--pool", type=int, default=24,
                       help="shared join nodes in the pool (default 24)")
        p.add_argument("--sources", type=int, default=2,
                       help="data-source nodes per query (default 2)")
        p.add_argument("--node-memory-mb", type=float, default=64.0,
                       help="hash-table budget per node in MB (default 64)")
        p.add_argument("--topology", default="switched",
                       choices=[t.value for t in Topology])
        p.add_argument("--scale", type=float, default=WorkloadSpec().scale,
                       help="down-scaling factor (default 1/50)")
        p.add_argument("--seed", type=int, default=WorkloadConfig().seed)
        _add_fault_args(p)
        p.add_argument("--no-validate", action="store_true",
                       help="skip the per-query sequential-oracle check")
        p.add_argument("--trace", action="store_true",
                       help="collect and print the protocol trace")
        p.add_argument("--format", default="text", choices=["text", "json"])
        p.add_argument("--out", help="write here instead of stdout")
        p.add_argument("--metrics-out", metavar="PATH",
                       help="also dump the shared metrics registry as JSONL")
        p.add_argument("--baseline", metavar="PATH",
                       help="write a bench-diff-compatible baseline "
                            "(total_s=makespan, build_s=p99 latency)")
        p.add_argument("--live", action="store_true",
                       help="print one progress line per periodic "
                            "observability snapshot (simulated-clock "
                            "cadence; see docs/OBSERVABILITY.md)")
        p.add_argument("--live-interval", type=float, default=None,
                       metavar="S",
                       help="snapshot cadence in simulated seconds "
                            "(implies --live; default 25*scale)")
        p.add_argument("--obs-budget", type=int, default=None,
                       metavar="BYTES",
                       help="cap observability memory: bounded span "
                            "sampling, ring buffers and sketch bins sized "
                            "to this many bytes (min 4096; shed records "
                            "are counted, never silent)")
        p.add_argument("--snapshot-out", metavar="PATH",
                       help="append each snapshot as one JSON line "
                            "(final snapshot last; render with "
                            "'repro tail PATH', compare with "
                            "'repro bench-diff')")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing --out/--metrics-out/"
                            "--baseline/--snapshot-out files")

    p_wl = sub.add_parser(
        "workload",
        help="run many concurrent joins against one shared node pool",
    )
    _add_workload_cli(p_wl)
    p_wl.set_defaults(func=cmd_workload)

    p_fleet = sub.add_parser(
        "fleet",
        help="shard one workload trace across OS worker processes and "
             "merge the results (docs/FLEET.md)",
    )
    _add_workload_cli(p_fleet)
    p_fleet.add_argument("--shards", type=int, default=2, metavar="N",
                         help="worker processes to launch (default 2; "
                              "results are shard-count invariant)")
    p_fleet.add_argument("--cohorts", type=int, default=8, metavar="N",
                         help="deterministic partition count — part of the "
                              "model, not the parallelism (default 8)")
    p_fleet.add_argument("--worker-timeout", type=float, default=600.0,
                         metavar="S",
                         help="wall-clock seconds of worker silence before "
                              "the shard is killed and reported as failed "
                              "(default 600)")
    p_fleet.add_argument("--arrival-profile", default="poisson",
                         choices=["poisson", "diurnal", "bursty"],
                         help="named arrival trace: the config's Poisson "
                              "process, a sinusoidal day/night rate, or "
                              "on-off bursts (default poisson)")
    p_fleet.set_defaults(func=cmd_fleet)

    p_tail = sub.add_parser(
        "tail",
        help="render a --snapshot-out JSONL snapshot stream",
    )
    p_tail.add_argument("path", metavar="SNAPSHOT.jsonl",
                        help="snapshot stream written by "
                             "'repro workload --snapshot-out'")
    p_tail.set_defaults(func=cmd_tail)

    p_trace = sub.add_parser(
        "trace", parents=[common],
        help="run one join and export its execution trace",
    )
    p_trace.add_argument("--algorithm", default="hybrid",
                         choices=[a.value for a in Algorithm])
    p_trace.add_argument("--format", default="chrome",
                         choices=["chrome", "jsonl"],
                         help="chrome trace_event JSON (chrome://tracing / "
                              "Perfetto) or JSONL records")
    p_trace.add_argument("--out", help="write here instead of stdout "
                                       "(also prints the phase timeline)")
    p_trace.add_argument("--force", action="store_true",
                         help="overwrite an existing --out file")
    p_trace.set_defaults(func=cmd_trace)

    p_metrics = sub.add_parser(
        "metrics", parents=[common],
        help="run one join and dump the metrics registry",
    )
    p_metrics.add_argument("--algorithm", default="hybrid",
                           choices=[a.value for a in Algorithm])
    p_metrics.add_argument("--format", default="table",
                           choices=["table", "jsonl"])
    p_metrics.add_argument("--out",
                           help="write here instead of stdout (either format)")
    p_metrics.add_argument("--force", action="store_true",
                           help="overwrite an existing --out file")
    p_metrics.set_defaults(func=cmd_metrics)

    p_explain = sub.add_parser(
        "explain", parents=[common],
        help="run one join and print the critical-path bottleneck report",
    )
    p_explain.add_argument("--algorithm", default="hybrid",
                           choices=[a.value for a in Algorithm])
    p_explain.add_argument("--format", default="text",
                           choices=["text", "json"])
    p_explain.add_argument("--out", help="write here instead of stdout")
    p_explain.add_argument("--force", action="store_true",
                           help="overwrite an existing --out file")
    p_explain.set_defaults(func=cmd_explain)

    p_bdiff = sub.add_parser(
        "bench-diff",
        help="compare two BENCH_*.json baselines; exit 1 on regressions",
    )
    p_bdiff.add_argument("old", help="baseline JSON (the reference)")
    p_bdiff.add_argument("new", help="candidate JSON to compare against it")
    p_bdiff.add_argument("--threshold", type=float, default=1.0,
                         metavar="PCT",
                         help="regression threshold in percent (default 1)")
    p_bdiff.add_argument("--format", default="text",
                         choices=["text", "json"])
    p_bdiff.set_defaults(func=cmd_bench_diff)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="grid of runs: algorithms x initial nodes")
    p_sweep.add_argument("--algorithms", default="all",
                         help='comma list or "all"')
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figures", help="regenerate the paper's figures")
    p_fig.add_argument("--only", nargs="*", metavar="figNN",
                       help="subset, e.g. --only fig02 fig10")
    p_fig.add_argument("--out", help="write markdown reports to this file")
    p_fig.add_argument("--csv-dir", help="write one CSV per figure here")
    p_fig.add_argument("--json", metavar="PATH",
                       help="write the machine-readable fig02 baseline "
                            "(total/build s per algorithm x initial nodes) "
                            "for regression tracking; alone, skips the "
                            "figure reports")
    p_fig.add_argument("--scale", type=float, default=WorkloadSpec().scale)
    p_fig.add_argument("--no-validate", action="store_true")
    p_fig.add_argument("--force", action="store_true",
                       help="overwrite existing --out/--csv-dir/--json files")
    p_fig.set_defaults(func=cmd_figures)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo's static-analysis passes (determinism, "
             "protocol, metrics sync, fault safety, resource safety, "
             "wait graph)",
    )
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files/directories to lint (default: src/repro "
                             "under --root)")
    p_lint.add_argument("--root", default=None,
                        help="repo root for repo-relative scoping "
                             "(default: current directory)")
    p_lint.add_argument("--format", default="text",
                        choices=["text", "json", "sarif"],
                        help="text, machine-readable json (stable rule-id "
                             "counts), or SARIF 2.1.0 for code scanning")
    p_lint.add_argument("--select", nargs="*", metavar="RULE",
                        help="restrict to pass names or rule-id prefixes, "
                             "e.g. determinism or det-")
    p_lint.add_argument("--list", action="store_true",
                        help="list registered passes and their rule ids")
    p_lint.add_argument("--explain", metavar="RULE",
                        help="print the long-form rationale for one rule id "
                             "and exit")
    p_lint.add_argument("--baseline", metavar="PATH",
                        help="gate against a committed --format json "
                             "document (LINT_BASE.json): exit 1 only when "
                             "some rule exceeds its baselined count")
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "zipf", None) is not None:
        if getattr(args, "sigma", None) is not None:
            parser.error(
                "--zipf and --sigma are mutually exclusive skew knobs; "
                "pass exactly one"
            )
        if args.zipf <= 1.0:
            parser.error(f"--zipf exponent must be > 1, got {args.zipf}")
    try:
        return args.func(args)
    except FaultPlanError as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
