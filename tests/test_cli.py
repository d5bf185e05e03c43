"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def small_args(extra):
    """Keep CLI test runs tiny and fast."""
    return extra + [
        "--r-tuples", "0.004", "--s-tuples", "0.004",
        "--scale", "1.0", "--chunk-tuples", "200",
        "--pool", "8", "--sources", "2", "--node-memory-mb", "0.04",
    ]


def test_run_command_prints_summary(capsys):
    rc = main(small_args(["run", "--algorithm", "hybrid",
                          "--initial-nodes", "2"]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "hybrid" in out
    assert "phases (paper-scale s)" in out


def test_run_command_with_trace(capsys):
    rc = main(small_args(["run", "--algorithm", "split",
                          "--initial-nodes", "2", "--trace"]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "trace:" in out
    assert "memory_full" in out


def test_run_command_skew_and_policy(capsys):
    rc = main(small_args(["run", "--algorithm", "split",
                          "--initial-nodes", "2", "--sigma", "0.001",
                          "--split-policy", "linear"]))
    assert rc == 0


def test_run_zipf_with_output_materialization(capsys):
    rc = main(small_args(["run", "--algorithm", "replicate",
                          "--initial-nodes", "2", "--zipf", "1.2",
                          "--materialize-output", "--probe-expansion"]))
    assert rc == 0


def test_sweep_command_builds_table(capsys):
    rc = main(small_args(["sweep", "--initial-nodes", "2,4",
                          "--algorithms", "split,ooc"]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "initial nodes" in out and "split" in out and "ooc" in out
    assert len(out.strip().splitlines()) == 4  # header + rule + 2 rows


def test_figures_command_rejects_unknown(capsys):
    rc = main(["figures", "--only", "fig99"])
    assert rc == 2
    assert "unknown figures" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_no_validate_flag(capsys):
    rc = main(small_args(["run", "--algorithm", "ooc",
                          "--initial-nodes", "2", "--no-validate"]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "MISMATCH" not in out


def test_zipf_and_sigma_together_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(small_args(["run", "--zipf", "1.2", "--sigma", "0.001"]))
    assert exc.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_zipf_exponent_must_exceed_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(small_args(["run", "--zipf", "1.0"]))
    assert exc.value.code == 2
    assert "must be > 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--initial-nodes", "30"],
    ["run", "--trace-buffer", "0"],
    ["run", "--pool", "0"],
    ["run", "--sigma", "-1"],
    ["run", "--initial-nodes", "2,4"],
    ["sweep", "--initial-nodes", "1,30", "--algorithms", "ooc"],
    ["workload", "--mix", "hybrid:1:0.1:0.1:2:-1"],
], ids=" ".join)
def test_bad_config_exits_2_with_one_line_before_simulating(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no cell ran, not even sweep's valid first
    assert len(captured.err.strip().splitlines()) == 1, captured.err
    assert "Traceback" not in captured.err
    assert captured.err.startswith(f"{argv[0]}: ")


def test_value_error_inside_a_run_propagates(monkeypatch):
    # only config building turns a ValueError into exit 2
    import repro.cli as cli

    def fail_mid_run(cfg, validate=True):
        raise ValueError("mid-run failure")

    monkeypatch.setattr(cli, "run_join", fail_mid_run)
    with pytest.raises(ValueError, match="mid-run failure"):
        main(small_args(["run", "--initial-nodes", "2"]))


def test_trace_command_writes_chrome_json(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    rc = main(small_args(["trace", "--algorithm", "split",
                          "--initial-nodes", "2", "--out", str(out)]))
    assert rc == 0
    doc = json.loads(out.read_text())
    phs = {e["ph"] for e in doc["traceEvents"]}
    assert {"M", "X", "i"} <= phs
    printed = capsys.readouterr().out
    assert "scheduler" in printed  # phase timeline report follows the write


def test_trace_command_jsonl_to_stdout(capsys):
    import json

    rc = main(small_args(["trace", "--algorithm", "hybrid",
                          "--initial-nodes", "2", "--format", "jsonl"]))
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert lines and all("category" in json.loads(ln) for ln in lines)


def test_trace_command_respects_trace_buffer(capsys):
    import json

    rc = main(small_args(["trace", "--algorithm", "split",
                          "--initial-nodes", "2", "--format", "jsonl",
                          "--trace-buffer", "5"]))
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert len(lines) == 5
    assert all(json.loads(ln) for ln in lines)


def test_metrics_command_table_and_jsonl(capsys):
    rc = main(small_args(["metrics", "--algorithm", "split",
                          "--initial-nodes", "2"]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "hash.inserted_tuples" in out and "mailbox.depth" in out

    import json

    rc = main(small_args(["metrics", "--algorithm", "split",
                          "--initial-nodes", "2", "--format", "jsonl"]))
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert rc == 0
    names = {json.loads(ln)["name"] for ln in lines}
    assert "sim.events_executed" in names


def test_metrics_out_writes_table_like_stdout(tmp_path, capsys):
    """--out must honor the table format too, not just jsonl, and the
    file contents must match what stdout would have shown."""
    rc = main(small_args(["metrics", "--algorithm", "split",
                          "--initial-nodes", "2"]))
    stdout_table = capsys.readouterr().out
    assert rc == 0

    out = tmp_path / "metrics.txt"
    rc = main(small_args(["metrics", "--algorithm", "split",
                          "--initial-nodes", "2", "--out", str(out)]))
    printed = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in printed and "active instruments" in printed
    assert out.read_text() == stdout_table  # deterministic run, same table
    assert "net.in_flight_peak" in stdout_table


def test_explain_command_text(capsys):
    rc = main(small_args(["explain", "--algorithm", "replicate",
                          "--initial-nodes", "2", "--sigma", "0.05"]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "ranked bottlenecks" in out
    assert "probe broadcast" in out  # skewed replication amplifies probes
    assert "phases (duration, top critical contributor, skew)" in out


def test_explain_command_json_out(tmp_path, capsys):
    import json

    out = tmp_path / "explain.json"
    rc = main(small_args(["explain", "--algorithm", "split",
                          "--initial-nodes", "2", "--format", "json",
                          "--out", str(out)]))
    printed = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in printed
    doc = json.loads(out.read_text())
    assert doc["algorithm"] == "split"
    assert doc["critical_path"], "path must be non-empty"
    assert doc["critical_path_total_s"] == pytest.approx(
        doc["makespan_s"], rel=0.01
    )


# ----------------------------------------------------------------------
# overwrite guards (--force)
# ----------------------------------------------------------------------
def test_metrics_out_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "metrics.txt"
    out.write_text("precious\n")
    rc = main(small_args(["metrics", "--out", str(out)]))
    err = capsys.readouterr().err
    assert rc == 2
    assert "refusing to overwrite" in err and "--force" in err
    assert out.read_text() == "precious\n"  # untouched
    rc = main(small_args(["metrics", "--out", str(out), "--force"]))
    assert rc == 0
    assert out.read_text() != "precious\n"


def test_trace_out_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "trace.json"
    out.write_text("{}")
    rc = main(small_args(["trace", "--out", str(out)]))
    err = capsys.readouterr().err
    assert rc == 2
    assert "refusing to overwrite" in err
    assert out.read_text() == "{}"


def test_explain_out_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "explain.json"
    out.write_text("precious")
    rc = main(small_args(["explain", "--out", str(out)]))
    assert rc == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert out.read_text() == "precious"


def test_figures_out_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "reports.md"
    out.write_text("precious")
    rc = main(["figures", "--only", "fig02", "--out", str(out)])
    assert rc == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert out.read_text() == "precious"


def test_workload_outputs_refuse_overwrite_without_force(tmp_path, capsys):
    # every workload writer flag goes through the same guard, before any
    # simulation work happens
    for flag in ("--out", "--metrics-out", "--baseline", "--snapshot-out"):
        target = tmp_path / f"wl{flag}.json"
        target.write_text("precious")
        rc = main(["workload", "--queries", "1", flag, str(target)])
        assert rc == 2, flag
        assert "refusing to overwrite" in capsys.readouterr().err
        assert target.read_text() == "precious"


def test_fleet_outputs_refuse_overwrite_without_force(tmp_path, capsys):
    target = tmp_path / "fleet.snap.jsonl"
    target.write_text("precious")
    rc = main(["fleet", "--queries", "1", "--snapshot-out", str(target)])
    assert rc == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert target.read_text() == "precious"


# ----------------------------------------------------------------------
# live telemetry: --live / --snapshot-out / tail / snapshot bench-diff
# ----------------------------------------------------------------------
def wl_args(extra):
    """A tiny three-query workload (sizes in Mtuples via --mix)."""
    return extra + [
        "--queries", "3", "--mix", "hybrid:1:0.004:0.004:2",
        "--arrival-times", "0,0.05,0.1", "--scale", "1.0",
        "--pool", "8", "--sources", "2", "--seed", "7",
    ]


def test_workload_live_snapshot_stream(tmp_path, capsys):
    import json as _json

    snap_path = tmp_path / "run.snap.jsonl"
    rc = main(wl_args(["workload", "--live", "--live-interval", "0.05",
                       "--obs-budget", "4096",
                       "--snapshot-out", str(snap_path)]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "live: t=" in out
    lines = [ln for ln in snap_path.read_text().splitlines() if ln.strip()]
    assert len(lines) >= 2  # periodic snapshot(s) + the final one
    for line in lines:
        assert _json.loads(line)["kind"] == "repro-snapshot"

    rc = main(["tail", str(snap_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "final snapshot" in out
    assert "workload.query_latency_s" in out

    # a snapshot stream self-diffs clean through bench-diff
    rc = main(["bench-diff", str(snap_path), str(snap_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


def test_fleet_command_end_to_end(tmp_path, capsys):
    import json as _json

    snap_path = tmp_path / "fleet.snap.jsonl"
    out_path = tmp_path / "fleet.json"
    rc = main(wl_args(["fleet", "--shards", "2", "--cohorts", "2",
                       "--format", "json", "--out", str(out_path),
                       "--snapshot-out", str(snap_path)]))
    printed = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in printed
    doc = _json.loads(out_path.read_text())
    assert doc["n_queries"] == 3
    assert doc["all_valid"] is True and doc["partial"] is False
    assert doc["wall"]["n_shards"] == 2
    assert [q["query"] for q in doc["queries"]] == [0, 1, 2]
    lines = [ln for ln in snap_path.read_text().splitlines() if ln.strip()]
    assert lines  # final merged snapshot is always appended
    final = _json.loads(lines[-1])
    assert final["kind"] == "repro-snapshot"
    # the merged snapshot carries every cohort's shard tag
    assert set(final["shards"]) == {"cohort0", "cohort1"}

    # the stream renders through `repro tail` like a workload stream
    rc = main(["tail", str(snap_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "final snapshot" in out


def test_bench_diff_rejects_mixed_document_kinds(tmp_path, capsys):
    snap = tmp_path / "snap.json"
    snap.write_text('{"kind": "repro-snapshot", "v": 1, "t": 0, '
                    '"shards": ["s"], "counters": {}, "gauges": {}, '
                    '"histograms": {}, "sketches": {}, "rings": {}, '
                    '"spans": {"sample": 1, "outliers": 0, "total": 0, '
                    '"items": []}}\n')
    rc = main(["bench-diff", str(snap), "BENCH_2.json"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot compare" in err


def test_tail_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    rc = main(["tail", str(bad)])
    assert rc == 2
    assert "bad.jsonl:1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["workload", "fleet"])
def test_workload_and_fleet_write_all_four_files(command, tmp_path, capsys):
    """--out, --metrics-out, --baseline and --snapshot-out each carry the
    run they name: the baseline's makespan and p99 match the report, the
    final snapshot counts every query, and the metrics JSONL is the run's
    registry (the shared model registry for a workload, the fleet's own
    wall-clock telemetry for a fleet)."""
    import json as _json

    paths = {k: tmp_path / f"{command}.{k}"
             for k in ("out", "metrics-out", "baseline", "snapshot-out")}
    extra = [command, "--format", "json", "--live-interval", "0.05"]
    if command == "fleet":
        extra += ["--shards", "2", "--cohorts", "2"]
    for flag, path in paths.items():
        extra += [f"--{flag}", str(path)]
    rc = main(wl_args(extra))
    printed = capsys.readouterr().out
    assert rc == 0

    doc = _json.loads(paths["out"].read_text())
    assert doc["n_queries"] == 3 and doc["all_valid"] is True

    metrics = [_json.loads(ln) for ln in
               paths["metrics-out"].read_text().splitlines()]
    assert f"wrote {paths['metrics-out']} ({len(metrics)} instruments)" in printed
    by_name = {m["name"]: m for m in metrics}
    if command == "workload":
        assert by_name["workload.makespan_s"]["last"] == doc["makespan_s"]
    else:
        assert by_name["fleet.shards_launched"]["value"] == 2

    series = "fifo" if command == "workload" else "poisson-fifo"
    assert _json.loads(paths["baseline"].read_text()) == {
        "benchmark": command,
        "scale": 1.0,
        "series": {series: {"3": {"total_s": doc["makespan_s"],
                                  "build_s": doc["latency"]["p99"]}}},
    }
    wording = "workload" if command == "workload" else "fleet"
    assert f"wrote {paths['baseline']} ({wording} baseline)" in printed

    snaps = [_json.loads(ln) for ln in
             paths["snapshot-out"].read_text().splitlines()]
    assert len(snaps) >= 2  # periodic snapshot(s), then the final one
    assert all(s["kind"] == "repro-snapshot" for s in snaps)
    final = snaps[-1]
    assert final["counters"]["workload.queries|algorithm=hybrid"] == 3
    assert final["t"] == max(s["t"] for s in snaps)
    stream = ("snapshot stream" if command == "workload"
              else "merged snapshot stream")
    assert f"wrote {paths['snapshot-out']} ({stream})" in printed
    assert printed.count("live: t=") == len(snaps)
