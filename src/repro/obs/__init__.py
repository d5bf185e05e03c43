"""Observability: structured metrics, span timelines, trace/metrics export.

This package is the measurement substrate for the whole reproduction.
Every layer publishes into one :class:`MetricsRegistry` per run — the
simulator (events executed), the network (bytes per (src, dst, kind)),
disks (bytes/ops per node), memory accounts (usage timelines with
high-water marks), mailboxes (queue depths), the hash stores (inserted
tuples / matches) and the scheduler (relief-cycle latencies, drain
rounds).  Phase and transfer *spans* land in a :class:`SpanLog` and are
attached to ``JoinRunResult`` as a :class:`PhaseTimeline`, exportable as
JSONL or Chrome ``trace_event`` JSON (``chrome://tracing`` / Perfetto).
Network sends additionally land in a :class:`CausalLog` — a causal DAG of
``send -> deliver`` edges with parent provenance — from which
:func:`explain` extracts the makespan's critical path and a ranked
bottleneck report (``repro explain``).

Deliberately dependency-free: ``repro.obs`` imports nothing from the rest
of ``repro``, so the simulation substrate, the cluster model and the join
protocol can all publish into it without import cycles.  See
``docs/OBSERVABILITY.md`` for the metric catalogue and CLI usage.
"""

from .causality import CausalLog, MessageEdge
from .critpath import ExplainReport, PathStep, critical_path, explain
from .export import (
    chrome_trace,
    metrics_to_jsonl,
    trace_to_jsonl,
)
from .harvest import harvest_network, harvest_nodes, harvest_simulator
from .metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    TimeWeightedHistogram,
)
from .reservoir import ReservoirSample
from .streaming import (
    ObsBudget,
    QuantileSketch,
    Snapshot,
    StreamingCollector,
    TimeSeriesRing,
    merge_snapshots,
)
from .timeline import (
    PHASE_NAMES,
    SCHEDULER_TRACK,
    PhaseTimeline,
    Span,
    SpanLog,
)

__all__ = [
    "CausalLog",
    "Counter",
    "ExplainReport",
    "PHASE_NAMES",
    "SCHEDULER_TRACK",
    "Gauge",
    "MessageEdge",
    "MetricsRegistry",
    "ObsBudget",
    "PathStep",
    "PhaseTimeline",
    "QuantileSketch",
    "ReservoirSample",
    "Snapshot",
    "Span",
    "SpanLog",
    "StreamingCollector",
    "TimeSeriesRing",
    "TimeWeightedHistogram",
    "chrome_trace",
    "critical_path",
    "explain",
    "harvest_network",
    "harvest_nodes",
    "harvest_simulator",
    "merge_snapshots",
    "metrics_to_jsonl",
    "trace_to_jsonl",
]
