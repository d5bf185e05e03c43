"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Eleven commands; ``repro -h`` lists them and ``docs/API.md`` shows their
flags.  Each flag is declared once (on a parent parser its subcommands
share) and defaults to the config field it sets; the config dataclasses
own every value check.

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
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import replace
from typing import Any, NoReturn, TypeVar

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
from .core import JoinRunResult, run_join
from .faults import FaultPlan, FaultPlanError, crash_specs_from_cli
from .obs import Snapshot, metrics_to_jsonl

__all__ = ["main", "build_parser"]

_T = TypeVar("_T")

MIB = 1024 * 1024


class _Refusal(Exception):
    """Declined before simulating: ``command: message`` on stderr, exit 2."""


def _configured(args: argparse.Namespace, build: Callable[[], _T]) -> _T:
    """Build a command's configs before it simulates anything.

    This is the one config-error path: a ``ValueError`` from the config
    dataclasses (or from folding flags into them, or an unreadable
    ``--fault-plan`` file) prints one ``command: message`` line on stderr
    and exits 2.  Errors raised once a simulation runs are not caught
    here and propagate.
    """
    try:
        return build()
    except (ValueError, OSError) as exc:
        _config_error(args, exc)


def _config_error(args: argparse.Namespace, exc: Exception) -> NoReturn:
    print(f"{args.command}: {exc}", file=sys.stderr)
    raise SystemExit(2) from None


def _refuse_overwrite(args: argparse.Namespace, *paths: str | None) -> None:
    """Refuse an existing output file unless ``--force`` was given.

    Checked before the simulation runs, so a collision fails in
    milliseconds instead of after the join completes — and an existing
    export is never clobbered by a fat-fingered re-run.
    """
    for path in paths:
        if path and os.path.exists(path) and not args.force:
            raise _Refusal(f"refusing to overwrite existing {path}; "
                           f"pass --force to replace it")


def _write_or_print(args: argparse.Namespace, payload: str, note: str) -> None:
    """Write ``payload`` to ``--out`` (announced with ``note``) or print it."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.out} ({note})")
    else:
        print(payload, end="")


# ----------------------------------------------------------------------
# flags -> configs
# ----------------------------------------------------------------------
def _faults(args: argparse.Namespace) -> FaultPlan | None:
    """Fold the fault CLI flags into one plan.

    Returns ``None`` when no fault flag was given, which keeps the run on
    the exact fault-free code path (no injector is constructed at all).
    """
    plan = FaultPlan.from_file(args.fault_plan) if args.fault_plan else None
    overrides: dict[str, Any] = {
        name: value for name, value in (
            ("drop_prob", args.drop_prob),
            ("membership", args.membership or None),
            ("heartbeat_interval_s", args.heartbeat_interval),
            ("kill_scheduler_at", args.kill_scheduler_at),
        ) if value is not None
    }
    if overrides:
        plan = replace(plan or FaultPlan(), **overrides)
    if args.crash_node:
        plan = (plan or FaultPlan()).with_crashes(
            *crash_specs_from_cli(args.crash_node)
        )
    return plan


def _cluster_spec(args: argparse.Namespace) -> ClusterSpec:
    return ClusterSpec(
        n_sources=args.sources,
        n_potential_nodes=args.pool,
        hash_memory_bytes=int(args.node_memory_mb * MIB),
        topology=Topology(args.topology),
    )


def _data_spec(args: argparse.Namespace) -> WorkloadSpec:
    skew: dict[str, Any] = {}
    if args.zipf is not None and args.sigma is not None:
        raise ValueError("--zipf and --sigma are mutually exclusive skew "
                         "knobs; pass exactly one")
    if args.zipf is not None:
        skew = {"distribution": Distribution.ZIPF, "zipf_s": args.zipf}
    elif args.sigma is not None:
        skew = {"distribution": Distribution.GAUSSIAN,
                "gauss_sigma": args.sigma}
    return WorkloadSpec(
        r_tuples=int(args.r_tuples * MTUPLES),
        s_tuples=int(args.s_tuples * MTUPLES),
        tuple_bytes=args.tuple_bytes,
        chunk_tuples=args.chunk_tuples,
        scale=args.scale,
        seed=args.seed,
        **skew,
    )


def _initial_nodes(args: argparse.Namespace, sweep: bool = False) -> list[int]:
    counts = [int(k) for k in args.initial_nodes.split(",")]
    if len(counts) > 1 and not sweep:
        raise ValueError(f"--initial-nodes takes a comma list only on "
                         f"sweep, got {args.initial_nodes}")
    return counts


def _join_config(args: argparse.Namespace, algorithm: Algorithm,
                 initial_nodes: int, trace: bool = False) -> RunConfig:
    return RunConfig(
        algorithm=algorithm,
        initial_nodes=initial_nodes,
        workload=_data_spec(args),
        cluster=_cluster_spec(args),
        split_policy=SplitPolicy(args.split_policy),
        materialize_output=args.materialize_output,
        probe_expansion=args.probe_expansion,
        sources_from_disk=args.sources_from_disk,
        trace=args.trace or trace,
        trace_buffer=args.trace_buffer,
        faults=_faults(args),
        lockdep=args.lockdep,
    )


def _parse_arrival_times(text: str | None) -> tuple[float, ...]:
    """Parse ``--arrival-times``: comma-separated floats, whitespace and
    empty segments (e.g. a trailing comma) tolerated; a non-numeric
    segment is refused with a message that names the flag."""
    times = []
    for segment in (text or "").split(","):
        segment = segment.strip()
        if not segment:
            continue
        try:
            times.append(float(segment))
        except ValueError:
            raise _Refusal(
                f"--arrival-times: {segment!r} is not a number (expected "
                f"a comma-separated list like 1.0,2.5,4.0)"
            ) from None
    return tuple(times)


def _parse_mix_entry(text: str) -> QueryMixEntry:
    """``ALG[:WEIGHT[:R_M[:S_M[:INITIAL[:SIGMA]]]]]`` -> QueryMixEntry.

    Sizes are in millions of tuples (paper units); a sixth field turns the
    entry Gaussian-skewed with that sigma.  Omitted fields keep the
    :class:`QueryMixEntry` defaults (``S_M`` defaults to ``R_M``).
    Example: ``hybrid:2:10:10:4``.
    """
    parts = text.split(":")
    if not 1 <= len(parts) <= 6:
        raise ValueError(
            f"mix entry {text!r}: expected ALG[:WEIGHT[:R_M[:S_M"
            f"[:INITIAL[:SIGMA]]]]]"
        )
    fields: dict[str, Any] = {"algorithm": Algorithm(parts[0])}
    if len(parts) > 1:
        fields["weight"] = float(parts[1])
    if len(parts) > 2:
        fields["r_tuples"] = fields["s_tuples"] = int(float(parts[2]) * MTUPLES)
    if len(parts) > 3:
        fields["s_tuples"] = int(float(parts[3]) * MTUPLES)
    if len(parts) > 4:
        fields["initial_nodes"] = int(parts[4])
    if len(parts) > 5:
        fields["distribution"] = Distribution.GAUSSIAN
        fields["gauss_sigma"] = float(parts[5])
    return QueryMixEntry(**fields)


def _workload_config(args: argparse.Namespace) -> WorkloadConfig:
    """Fold the flags ``workload`` and ``fleet`` share into one config."""
    plan = _faults(args)
    if plan is not None and plan.membership_active:
        raise _Refusal(
            "the control-plane fault-tolerance layer (--membership / "
            "--heartbeat-interval / --kill-scheduler-at) is single-query "
            "only; see docs/FAULTS.md"
        )
    return WorkloadConfig(
        n_queries=args.queries,
        arrival_rate_qps=args.arrival_rate,
        arrival_times=_parse_arrival_times(args.arrival_times),
        seed=args.seed,
        mix=tuple(map(_parse_mix_entry, args.mix)) or WorkloadConfig.mix,
        policy=PoolPolicy(args.policy),
        fair_share_cap=args.fair_share_cap,
        grant_timeout_s=args.grant_timeout,
        cluster=_cluster_spec(args),
        scale=args.scale,
        trace=args.trace,
        faults=plan,
        lockdep=args.lockdep,
        obs=ObsConfig(
            budget_bytes=args.obs_budget,
            live_interval_s=(
                args.live_interval if args.live_interval is not None
                else 25.0 * args.scale if args.live else None
            ),
        ),
    )


def _fleet_config(args: argparse.Namespace) -> FleetConfig:
    from .workload import profile_arrivals

    wl = _workload_config(args)
    if args.arrival_profile != "poisson":
        wl = replace(
            wl, arrival_times=profile_arrivals(args.arrival_profile, wl)
        )
    return FleetConfig(
        workload=wl,
        n_cohorts=args.cohorts,
        n_shards=args.shards,
        worker_timeout_s=args.worker_timeout,
    )


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _run_single(args: argparse.Namespace, trace: bool = False) -> JoinRunResult:
    """The prelude of ``run``, ``trace``, ``metrics`` and ``explain``:
    refuse an existing ``--out``, build the config, run the join."""
    _refuse_overwrite(args, getattr(args, "out", None))
    cfg = _configured(args, lambda: _join_config(
        args, Algorithm(args.algorithm), _initial_nodes(args)[0], trace
    ))
    return run_join(cfg, validate=not args.no_validate)


def cmd_run(args: argparse.Namespace) -> int:
    res = _run_single(args)
    print(res.summary())
    t = res.times
    scale = res.config.workload.scale
    print(f"\nphases (paper-scale s): build={t.build_s / scale:.1f} "
          f"reshuffle={t.reshuffle_s / scale:.1f} "
          f"probe={t.probe_s / scale:.1f} ooc={t.ooc_pass_s / scale:.1f} "
          f"total={res.paper_scale_total_s:.1f}")
    if args.trace:
        print("\ntrace:")
        print(res.tracer.format())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    def grid() -> tuple[list[Algorithm], list[tuple[int, list[RunConfig]]]]:
        algorithms = (
            list(Algorithm) if args.algorithms == "all"
            else [Algorithm(a) for a in args.algorithms.split(",")]
        )
        return algorithms, [(k, [_join_config(args, a, k) for a in algorithms])
                            for k in _initial_nodes(args, sweep=True)]

    # every cell is validated before the first one runs
    algorithms, cells = _configured(args, grid)
    rows = [
        [k] + [round(run_join(cfg, validate=not args.no_validate)
                     .paper_scale_total_s, 1) for cfg in cfgs]
        for k, cfgs in cells
    ]
    print(format_table(["initial nodes"] + [a.value for a in algorithms], rows))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from .bench import FigureHarness

    # the harness builds one config per cell; check its one knob up front
    _configured(args, lambda: WorkloadSpec(scale=args.scale))
    harness = FigureHarness(scale=args.scale, validate=not args.no_validate)
    available = {f"fig{n:02d}": getattr(harness, f"fig{n:02d}")
                 for n in range(2, 14)}
    available["model"] = harness.model_validation
    # --json alone snapshots the fig02 baseline without rendering reports;
    # combined with --only it does both (the sweep is memoized and shared).
    wanted = args.only or ([] if args.json else list(available))
    unknown = [w for w in wanted if w not in available]
    if unknown:
        raise _Refusal(f"unknown figures: {unknown}; choose from "
                       f"{sorted(available)}")
    csv_paths = (
        [os.path.join(args.csv_dir, f"{name}.csv") for name in wanted]
        if args.csv_dir else []
    )
    _refuse_overwrite(args, args.out, args.json, *csv_paths)
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
        for path, report in zip(csv_paths, reports):
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

    res = _run_single(args, trace=True)
    if args.format == "chrome":
        payload = json.dumps(chrome_trace(res), indent=1) + "\n"
    else:
        payload = "".join(line + "\n" for line in trace_to_jsonl(res.tracer))
    _write_or_print(args, payload, args.format)
    if args.out:
        print()
        print(res.timeline.render())
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    res = _run_single(args)
    if args.format == "jsonl":
        _write_or_print(args, "\n".join(metrics_to_jsonl(res.metrics)) + "\n",
                        f"{len(res.metrics)} instruments")
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
    _write_or_print(args, table + "\n", f"{len(rows)} active instruments")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from .obs import explain

    report = explain(_run_single(args))
    if args.format == "json":
        payload = json.dumps(report.to_dict(), indent=1) + "\n"
    else:
        payload = report.to_text() + "\n"
    _write_or_print(args, payload, args.format)
    return 0


def _run_with_snapshots(
    args: argparse.Namespace, run: Callable[..., Any], cfg: Any, stream: str,
) -> Any:
    """Refuse existing output files, then call ``run(cfg, validate=...,
    on_snapshot=...)`` with the live telemetry both multi-query commands
    share: one progress line per periodic snapshot (``--live``),
    optionally streamed to a JSONL file (``--snapshot-out``; `repro tail`
    renders it).  The final snapshot is always appended last, so the
    file's last line is the run's end state — what bench-diff compares.
    """
    _refuse_overwrite(args, args.out, args.metrics_out, args.baseline,
                      args.snapshot_out)
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
        res = run(cfg, validate=not args.no_validate, on_snapshot=on_snapshot)
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
    _write_or_print(args, payload, args.format)
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

    cfg = _configured(args, lambda: _workload_config(args))
    res = _run_with_snapshots(args, run_workload, cfg, "snapshot stream")
    _write_workload_outputs(
        args, res, cfg, benchmark="workload", series=cfg.policy.value,
        p99=res.latency_percentiles()["p99"],
    )
    if args.trace:
        print("\ntrace:")
        print(res.tracer.format())
    return 0 if res.all_valid else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    from .workload import run_fleet

    cfg = _configured(args, lambda: _fleet_config(args))
    # Each live line and stream entry carries the *merged* fleet-wide
    # snapshot (latest per cohort, folded with the snapshot merge laws),
    # so tailing the JSONL mid-run shows progress across all workers.
    res = _run_with_snapshots(args, run_fleet, cfg, "merged snapshot stream")
    for failure in res.failures:
        print(f"fleet: shard {failure.shard} failed ({failure.kind}, "
              f"cohorts {list(failure.cohorts)}): {failure.detail}",
              file=sys.stderr)
    # The series name carries the arrival profile so one baseline file
    # can hold curves for several profiles side by side.
    _write_workload_outputs(
        args, res, cfg.workload, benchmark="fleet",
        series=f"{args.arrival_profile}-{cfg.workload.policy.value}",
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
            raise _Refusal(f"cannot compare a {kinds[0]} ({args.old}) "
                           f"against a {kinds[1]} ({args.new})")
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
        raise _Refusal(str(exc)) from None
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
        raise _Refusal(f"cannot read {args.path}: {exc}") from None
    if not lines:
        raise _Refusal(f"{args.path}: empty snapshot stream")
    snaps = []
    for lineno, line in enumerate(lines, 1):
        try:
            snaps.append(Snapshot.from_json(line))
        except ValueError as exc:
            raise _Refusal(f"{args.path}:{lineno}: {exc}") from None
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
            raise _Refusal(f"unknown rule {args.explain!r}; known rules:\n  "
                           + "\n  ".join(sorted(index)))
        print(f"{args.explain}:")
        print(textwrap.fill(text, width=76, initial_indent="  ",
                            subsequent_indent="  "))
        return 0
    root = Path(args.root) if args.root else Path.cwd()
    try:
        violations = run_lint(root, paths=args.paths or None,
                              select=args.select)
    except LintError as exc:
        raise _Refusal(str(exc)) from None
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
            raise _Refusal(
                f"cannot read baseline {args.baseline}: {exc}"
            ) from None
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
def _add_simulation_args(p: argparse.ArgumentParser, sources: int) -> None:
    """Flags of every command that simulates (single joins, ``workload``,
    ``fleet``); only the default of ``--sources`` differs between them."""
    p.add_argument("--pool", type=int, default=ClusterSpec.n_potential_nodes,
                   help="potential join nodes (default %(default)s)")
    p.add_argument("--sources", type=int, default=sources,
                   help="data-source nodes per query (default %(default)s)")
    p.add_argument("--node-memory-mb", type=float,
                   default=ClusterSpec.hash_memory_bytes / MIB,
                   help="hash-table budget per node in MB "
                        "(default %(default)s)")
    p.add_argument("--topology", default=ClusterSpec.topology.value,
                   choices=[t.value for t in Topology],
                   help="interconnect: switched ports or one shared hub")
    p.add_argument("--seed", type=int, default=WorkloadSpec.seed)
    p.add_argument("--trace", action="store_true",
                   help="collect and print the protocol trace")


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


def _add_join_args(p: argparse.ArgumentParser) -> None:
    """Flags of the single-join commands (run, sweep, trace, metrics,
    explain) beyond the shared simulation and fault flags."""
    p.add_argument("--initial-nodes", type=str,
                   default=str(RunConfig.initial_nodes),
                   help="initial join nodes; a comma list sweeps (sweep "
                        "command only)")
    p.add_argument("--r-tuples", type=float,
                   default=WorkloadSpec.r_tuples / MTUPLES, metavar="M",
                   help="build relation size in millions of tuples "
                        "(paper units; default %(default)s)")
    p.add_argument("--s-tuples", type=float,
                   default=WorkloadSpec.s_tuples / MTUPLES, metavar="M",
                   help="probe relation size in millions of tuples")
    p.add_argument("--tuple-bytes", type=int, default=WorkloadSpec.tuple_bytes)
    p.add_argument("--sigma", type=float, default=None,
                   help="Gaussian skew (fraction of the value range); "
                        "omit for uniform data")
    p.add_argument("--zipf", type=float, default=None, metavar="S",
                   help="Zipf exponent (> 1); mutually exclusive with "
                        "--sigma")
    p.add_argument("--chunk-tuples", type=int,
                   default=WorkloadSpec.chunk_tuples)
    p.add_argument("--sources-from-disk", action="store_true",
                   help="sources read relations from disk instead of "
                        "generating them")
    p.add_argument("--split-policy", default=RunConfig.split_policy.value,
                   choices=[s.value for s in SplitPolicy])
    p.add_argument("--materialize-output", action="store_true",
                   help="keep join output pairs in node memory")
    p.add_argument("--probe-expansion", action="store_true",
                   help="recruit output-sink nodes on probe overflow "
                        "(paper footnote 1)")
    p.add_argument("--trace-buffer", type=int, default=None, metavar="N",
                   help="keep only the most recent N trace records "
                        "(bounded-buffer mode; default unbounded)")


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    """Flags ``workload`` (in-process) and ``fleet`` (OS-process sharded)
    share; both fold them into one WorkloadConfig."""
    p.add_argument("--queries", type=int, default=WorkloadConfig.n_queries,
                   help="number of concurrent queries (default %(default)s)")
    p.add_argument("--arrival-rate", type=float,
                   default=WorkloadConfig.arrival_rate_qps, metavar="QPS",
                   help="Poisson arrival rate in queries per simulated "
                        "second (default %(default)s)")
    p.add_argument("--arrival-times", metavar="T0,T1,...",
                   help="explicit arrival trace (simulated seconds, one "
                        "per query; overrides --arrival-rate)")
    p.add_argument("--mix", action="append", default=[],
                   metavar="ALG[:W[:R_M[:S_M[:K[:SIGMA]]]]]",
                   help="weighted query class: algorithm, weight, "
                        "relation sizes in Mtuples, initial nodes, "
                        "optional Gaussian sigma; repeatable (default "
                        "one 2Mx2M hybrid class on 2 nodes)")
    p.add_argument("--policy", default=WorkloadConfig.policy.value,
                   choices=[q.value for q in PoolPolicy],
                   help="pool arbitration policy (default %(default)s)")
    p.add_argument("--fair-share-cap", type=int,
                   default=WorkloadConfig.fair_share_cap, metavar="N",
                   help="max pool nodes one query may hold beyond its "
                        "admission grant (fair policy only; default "
                        "%(default)s)")
    p.add_argument("--grant-timeout", type=float, default=None, metavar="S",
                   help="deny a parked recruit after S simulated "
                        "seconds (default: scale-derived)")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--metrics-out", metavar="PATH",
                   help="also dump the shared metrics registry as JSONL")
    p.add_argument("--baseline", metavar="PATH",
                   help="write a bench-diff-compatible baseline "
                        "(total_s=makespan, build_s=p99 latency)")
    p.add_argument("--live", action="store_true",
                   help="print one progress line per periodic "
                        "observability snapshot (simulated-clock "
                        "cadence; see docs/OBSERVABILITY.md)")
    p.add_argument("--live-interval", type=float, default=None, metavar="S",
                   help="snapshot cadence in simulated seconds "
                        "(implies --live; default 25*scale)")
    p.add_argument("--obs-budget", type=int, default=None, metavar="BYTES",
                   help="cap observability memory: bounded span "
                        "sampling, ring buffers and sketch bins sized "
                        "to this many bytes (min 4096; shed records "
                        "are counted, never silent)")
    p.add_argument("--snapshot-out", metavar="PATH",
                   help="append each snapshot as one JSON line "
                        "(final snapshot last; render with "
                        "'repro tail PATH', compare with "
                        "'repro bench-diff')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Expanding Hash-based Join Algorithms (HPDC 2004) — "
                    "simulated reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each flag is declared once, on a parent parser (or in one helper)
    # that every subcommand taking it inherits.
    def parent(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    validated = parent()
    validated.add_argument("--scale", type=float, default=WorkloadSpec.scale,
                           help="down-scaling factor (default 1/50); "
                                "1.0 = full size")
    validated.add_argument("--no-validate", action="store_true",
                           help="skip the sequential-oracle check")
    output = parent()
    output.add_argument("--out", help="write the output to this file")
    output.add_argument("--force", action="store_true",
                        help="overwrite existing output files")
    faults = parent()
    _add_fault_args(faults)

    join = parent(validated, faults)
    _add_simulation_args(join, sources=ClusterSpec.n_sources)
    _add_join_args(join)
    one_join = parent(join)
    one_join.add_argument("--algorithm", default=RunConfig.algorithm.value,
                          choices=[a.value for a in Algorithm])

    multi = parent(validated, faults, output)
    _add_simulation_args(multi, sources=2)
    _add_workload_args(multi)

    sub.add_parser("run", parents=[one_join],
                   help="run one simulated join").set_defaults(func=cmd_run)

    sub.add_parser(
        "workload", parents=[multi],
        help="run many concurrent joins against one shared node pool",
    ).set_defaults(func=cmd_workload)

    p_fleet = sub.add_parser(
        "fleet", parents=[multi],
        help="shard one workload trace across OS worker processes and "
             "merge the results (docs/FLEET.md)",
    )
    p_fleet.add_argument("--shards", type=int, default=FleetConfig.n_shards,
                         metavar="N",
                         help="worker processes to launch (default "
                              "%(default)s; results are shard-count "
                              "invariant)")
    p_fleet.add_argument("--cohorts", type=int, default=FleetConfig.n_cohorts,
                         metavar="N",
                         help="deterministic partition count — part of the "
                              "model, not the parallelism (default "
                              "%(default)s)")
    p_fleet.add_argument("--worker-timeout", type=float,
                         default=FleetConfig.worker_timeout_s, metavar="S",
                         help="wall-clock seconds of worker silence before "
                              "the shard is killed and reported as failed "
                              "(default %(default)s)")
    p_fleet.add_argument("--arrival-profile", default="poisson",
                         choices=["poisson", "diurnal", "bursty"],
                         help="named arrival trace: the config's Poisson "
                              "process, a sinusoidal day/night rate, or "
                              "on-off bursts (default %(default)s)")
    p_fleet.set_defaults(func=cmd_fleet)

    p_tail = sub.add_parser(
        "tail",
        help="render a --snapshot-out JSONL snapshot stream",
    )
    p_tail.add_argument("path", metavar="SNAPSHOT.jsonl",
                        help="snapshot stream written by "
                             "'repro workload --snapshot-out'")
    p_tail.set_defaults(func=cmd_tail)

    for name, func, formats, summary in (
        ("trace", cmd_trace, ["chrome", "jsonl"],
         "run one join and export its execution trace: Chrome "
         "trace_event JSON (chrome://tracing / Perfetto) or JSONL records; "
         "with --out the phase timeline is printed too"),
        ("metrics", cmd_metrics, ["table", "jsonl"],
         "run one join and dump the metrics registry"),
        ("explain", cmd_explain, ["text", "json"],
         "run one join and print the critical-path bottleneck report"),
    ):
        p = sub.add_parser(name, parents=[one_join, output], help=summary)
        p.add_argument("--format", default=formats[0], choices=formats)
        p.set_defaults(func=func)

    p_bdiff = sub.add_parser(
        "bench-diff",
        help="compare two BENCH_*.json baselines; exit 1 on regressions",
    )
    p_bdiff.add_argument("old", help="baseline JSON (the reference)")
    p_bdiff.add_argument("new", help="candidate JSON to compare against it")
    p_bdiff.add_argument("--threshold", type=float, default=1.0,
                         metavar="PCT",
                         help="regression threshold in percent "
                              "(default %(default)s)")
    p_bdiff.add_argument("--format", default="text",
                         choices=["text", "json"])
    p_bdiff.set_defaults(func=cmd_bench_diff)

    p_sweep = sub.add_parser("sweep", parents=[join],
                             help="grid of runs: algorithms x initial nodes")
    p_sweep.add_argument("--algorithms", default="all",
                         help='comma list or "all"')
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figures", parents=[validated, output],
                           help="regenerate the paper's figures")
    p_fig.add_argument("--only", nargs="*", metavar="figNN",
                       help="subset, e.g. --only fig02 fig10")
    p_fig.add_argument("--csv-dir", help="write one CSV per figure here")
    p_fig.add_argument("--json", metavar="PATH",
                       help="write the machine-readable fig02 baseline "
                            "(total/build s per algorithm x initial nodes) "
                            "for regression tracking; alone, skips the "
                            "figure reports")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Refusal as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except FaultPlanError as exc:
        # a crash target outside the pool is found when the join attaches
        # its nodes, before the first event runs
        _config_error(args, exc)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
