"""Tiny-size checks of the benchmark itself.

Run from the repository root::

    python3 -m pytest hostbench/test_hostbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from layers import CATALOG, layer_metrics  # noqa: E402
from tracer import LayerTracer, actor_of  # noqa: E402
from workloads import WORKLOADS, FleetContended, WorkloadPoisson  # noqa: E402


class TinyPoisson(WorkloadPoisson):
    N_QUERIES = 3


class TinyFleet(FleetContended):
    N_QUERIES = 6


@pytest.mark.parametrize("cls", [TinyPoisson, TinyFleet])
def test_trace_tiles_restores_and_keeps_the_answer(cls):
    w = cls(seed=11)
    w.setup()
    plain = w.run(validate=False)
    tracer = LayerTracer()
    p, totals = tracer.run(w.traced_body)

    assert totals.restored and tracer.restored()
    assert totals.tiling_error <= 1e-9 * totals.wall_s + 1e-12
    assert totals.self_s["sim.kernel"] > 0
    # The traced pass gives the untraced pass's simulated answer.
    assert p.digest == plain.digest
    assert {k: p.counters[k] for k in plain.counters} == plain.counters

    # ... and a second traced pass repeats every exact count.
    _, again = LayerTracer().run(w.traced_body)
    assert (again.calls, again.tuples, again.starts) == (
        totals.calls, totals.tuples, totals.starts)

    metrics = layer_metrics(w, [(1.0, plain)], [(p, totals)])
    assert [name for name, *_ in CATALOG] == list(metrics)
    assert metrics["sim.events"][0] == plain.counters["sim.events"]


def test_validated_pass_matches_the_oracle():
    w = TinyPoisson(seed=3)
    w.setup()
    ref = w.run(validate=True)
    plain = w.run(validate=False)
    for qid, q in ref.queries.items():
        assert q.reference == q.matches == plain.queries[qid].matches
        assert q.digest == plain.queries[qid].digest


def test_actor_classes():
    assert actor_of("net:src0-q1->join3") == "net"
    assert actor_of("pool-ticker") == actor_of("drain-ticker") == "ticker"
    assert actor_of("pool") == "pool"
    assert actor_of("scheduler-q4") == "scheduler"
    assert actor_of("src1-q0") == "source"
    assert actor_of("join7-q2") == actor_of("xfer:join1->join2") == "join"
    assert actor_of("query3") == actor_of("workload-supervisor") == "runner"


def test_benchmark_json_lists_the_catalog():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in CATALOG]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "workload-poisson",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
