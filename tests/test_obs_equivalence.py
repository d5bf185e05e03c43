"""Pinned digests of the observability outputs a user can produce.

Two runs are pinned, each through the outputs its users read:

* the CI ``observability`` smoke join (split, 2 initial nodes,
  0.01M x 0.01M tuples, scale 1.0, an 8-node pool with 0.1 MB per node):
  the Chrome trace JSON, the ``explain`` JSON and the metrics JSONL, each
  written by the CLI command that produces it;
* the CI contended 4-query workload under three observability settings
  (unbudgeted, a 4096-byte budget, and the periodic snapshot emitter):
  ``WorkloadResult.to_dict()``, ``summary()``, the metrics JSONL, every
  periodic snapshot and the final ``Snapshot.to_json()``.

Each digest is a sha256 over the exact bytes, so a refactor of the span
and causal recorders, the budget arithmetic or the snapshot builder that
moves any byte of any output fails here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.config import (
    MTUPLES,
    Algorithm,
    ClusterSpec,
    ObsConfig,
    QueryMixEntry,
    WorkloadConfig,
)
from repro.obs import metrics_to_jsonl
from repro.workload import run_workload

SMOKE_ARGS = [
    "--algorithm", "split", "--initial-nodes", "2",
    "--r-tuples", "0.01", "--s-tuples", "0.01", "--scale", "1.0",
    "--pool", "8", "--node-memory-mb", "0.1",
]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# single join: the CI observability smoke
# ---------------------------------------------------------------------------

SMOKE = {
    "trace": "dd7d4b50bdce1ea7",
    "explain": "03ad7a155fe960c3",
    "metrics": "1f704557877fe8ae",
}

SMOKE_COMMANDS = {
    "trace": ["trace"],
    "explain": ["explain", "--format", "json"],
    "metrics": ["metrics", "--format", "jsonl"],
}


@pytest.mark.parametrize("output", list(SMOKE))
def test_smoke_join_output(output, tmp_path, capsys):
    path = tmp_path / f"{output}.out"
    rc = main(SMOKE_COMMANDS[output] + SMOKE_ARGS + ["--out", str(path)])
    capsys.readouterr()
    assert rc == 0
    assert digest(path.read_text(encoding="utf-8")) == SMOKE[output]


# ---------------------------------------------------------------------------
# the CI contended workload under three observability settings
# ---------------------------------------------------------------------------

SETTINGS = {
    "unbudgeted": ObsConfig(),
    "budget4096": ObsConfig(budget_bytes=4096),
    "live": ObsConfig(live_interval_s=0.5),
}

WORKLOAD = {
    "unbudgeted": {
        "to_dict": "06220eef6069c14d",
        "summary": "4da5f1ee8b82ce67",
        "metrics": "eaa05c551fdc6096",
        "snapshots": "90869494ca0de84e",
    },
    "budget4096": {
        "to_dict": "db070fd9f04b3e25",
        "summary": "cd9eaff9a71f1639",
        "metrics": "7a451fe5358f3efe",
        "snapshots": "74e821760c5367af",
    },
    "live": {
        "to_dict": "3d38559d102d5c11",
        "summary": "6cb77ada4c9ed90a",
        "metrics": "ca7e247b7d463a94",
        "snapshots": "d68eeff12355cc17",
    },
}


def contended_workload(obs: ObsConfig) -> WorkloadConfig:
    return WorkloadConfig(
        n_queries=4,
        arrival_times=(0.0, 0.05, 0.1, 0.15),
        seed=7,
        mix=(QueryMixEntry(weight=1.0, algorithm=Algorithm.HYBRID,
                           r_tuples=2 * MTUPLES, s_tuples=2 * MTUPLES,
                           initial_nodes=2),),
        cluster=ClusterSpec(n_sources=2, n_potential_nodes=6,
                            hash_memory_bytes=50 * 1024 * 1024),
        scale=0.02,
        obs=obs,
    )


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_contended_workload_outputs(setting):
    periodic = []
    res = run_workload(contended_workload(SETTINGS[setting]),
                       on_snapshot=lambda s: periodic.append(s.to_json()))
    assert res.all_valid
    assert res.snapshot is not None
    assert bool(periodic) == (setting == "live")
    assert bool(res.spans_dropped) == (setting == "budget4096")
    got = {
        "to_dict": digest(json.dumps(res.to_dict(), indent=1)),
        "summary": digest(res.summary()),
        "metrics": digest("\n".join(metrics_to_jsonl(res.metrics))),
        "snapshots": digest("\n".join(periodic + [res.snapshot.to_json()])),
    }
    assert got == WORKLOAD[setting]
