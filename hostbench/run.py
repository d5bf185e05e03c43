"""Host-time benchmark of the simulator: end-to-end and per layer.

Run from the repository root::

    python3 hostbench/run.py --workload workload-poisson
    python3 hostbench/run.py --workload fleet-contended --seed 3 --trace 1

One invocation measures one workload (see ``workloads.py``) in a fresh
process:

1. untraced passes run back to back for ``--seconds``; ``wall_s`` is their
   median.  Between them, set-up (imports, configs, ``generate_workload``)
   is timed in fresh interpreters spread evenly through the window;
   ``setup_s`` is their median.  With ``--trace 1`` traced passes
   alternate with the untraced ones instead, and the per-layer metrics of
   ``layers.py`` are reported;
2. the validated pass runs last, with the sequential oracle on, so its
   memory stays out of ``peak_rss_mb``.  Every timed or traced pass must
   reproduce its per-query match counts and simulated-output digests, or
   those queries count as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Simulated time is the model's
answer and appears only inside the digests, never as a metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh-interpreter set-ups timed per invocation (setup_s is the median),
#: spread evenly through the window so they see the same host as the passes
SETUP_SAMPLES = 15


def _import_repro() -> None:
    """Put this checkout's ``src`` first on the path and make sure that is
    the ``repro`` that loads; anything else would time the wrong code."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"hostbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"hostbench: imported repro from {repro.__file__}, not {SRC}")


def _setup_seconds(workload: str, seed: int) -> float:
    """Wall seconds of a fresh interpreter that imports, configures and
    generates the workload, then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
    # which would round every sample up to the next poll.
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def _peak_rss_mb() -> tuple[float, float]:
    """Peak RSS in MiB of this process and of its largest reaped child (a
    fleet worker, or a set-up interpreter, which does a subset of this
    process's work).  Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0


def _reap_resource_tracker() -> None:
    """Stop the helper process that spawn-context fleet workers start and
    wait for it, so that no process outlives the benchmark."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _collected(run_pass: Callable[[], Any]) -> Any:
    """Run a pass and collect its cyclic garbage inside the timing, so the
    pass pays for its own garbage instead of a random later one."""
    result = run_pass()
    gc.collect()
    return result


class Window:
    """The timed passes of one invocation and what went wrong in them."""

    def __init__(self) -> None:
        self.untraced: list[tuple[float, Any]] = []   # (wall_s, PassResult)
        self.traced: list[tuple[Any, Any]] = []       # (PassResult, Totals)
        self.setup: list[float] = []                  # set-up wall seconds
        self.errors: list[str] = []
        self.raised = 0

    def traced_next(self, trace: bool) -> bool:
        return trace and len(self.traced) < len(self.untraced)

    def run(self, w: Any, seconds: float, trace: bool) -> None:
        """Passes back to back until the next one would end past
        ``seconds``; at least one of each kind.  Untraced, set-ups are
        timed between the passes, one per ``seconds / SETUP_SAMPLES``."""
        from tracer import LayerTracer

        def setup_owed(elapsed: float) -> int:
            if trace:
                return 0
            due = min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * elapsed / seconds))
            return due - len(self.setup)

        t_start = time.perf_counter()
        while True:
            if setup_owed(time.perf_counter() - t_start) > 0:
                self.setup.append(_setup_seconds(w.name, w.seed))
                continue
            try:
                if self.traced_next(trace):
                    p, totals = LayerTracer().run(lambda: _collected(w.traced_body))
                    self.traced.append((p, totals))
                    if not totals.restored:
                        self.errors.append("a wrapped function was not restored")
                    if totals.tiling_error > 1e-6 * max(totals.wall_s, 1.0):
                        self.errors.append(f"self times miss the traced wall by "
                                           f"{totals.tiling_error:.3g} s")
                else:
                    t0 = time.perf_counter()
                    p = _collected(lambda: w.run(validate=False))
                    self.untraced.append((time.perf_counter() - t0, p))
            except Exception:  # a pass that raises fails all its queries
                traceback.print_exc()
                self.errors.append("a pass raised (traceback on stderr)")
                self.raised += 1
                return
            if not self.untraced or (trace and not self.traced):
                continue
            if self.traced_next(trace):
                walls = [t.wall_s for _, t in self.traced]
            else:
                walls = [wall for wall, _ in self.untraced]
            next_end = time.perf_counter() - t_start + statistics.median(walls)
            if self.setup:  # leave room for the set-ups still owed
                next_end += (SETUP_SAMPLES - len(self.setup)) * statistics.median(self.setup)
            if next_end > seconds:
                break
        while setup_owed(seconds) > 0:
            self.setup.append(_setup_seconds(w.name, w.seed))

    def check(self, reference: Any, n_queries: int) -> int:
        """Failed queries against the validated ``reference`` (None when it
        raised); appends to ``errors`` any exact counter that moved."""
        passes = [p for _, p in self.untraced] + [p for p, _ in self.traced]
        failed = n_queries * self.raised
        for p in passes:
            if reference is None:
                failed += n_queries
                continue
            bad = set(p.lost)
            for qid, ref in reference.queries.items():
                got = p.queries.get(qid)
                if got is None or got.matches != ref.reference or got.digest != ref.digest:
                    bad.add(qid)
            failed += len(bad)
            for key in sorted(set(p.counters) & set(reference.counters)):
                if p.counters[key] != reference.counters[key]:
                    self.errors.append(
                        f"{key}: {p.counters[key]} != {reference.counters[key]}")
        for _, t in self.traced[1:]:
            first = self.traced[0][1]
            if (t.calls, t.tuples, t.starts) != (first.calls, first.tuples, first.starts):
                self.errors.append("span counts differ between traced passes")
        return failed


def measure(args: argparse.Namespace) -> int:
    from layers import CATALOG, layer_metrics
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed)
    w.setup()
    if args.setup_only:
        return 0

    window = Window()
    window.run(w, args.seconds, bool(args.trace))
    if not window.untraced or (args.trace and not window.traced):
        print("hostbench: no pass completed", file=sys.stderr)
        return 1
    rss_own, rss_worker = _peak_rss_mb()
    try:
        reference = w.run(validate=True)
    except Exception:  # the oracle disagreed or the run broke
        traceback.print_exc()
        window.errors.append("the validated pass raised (traceback on stderr)")
        reference = None
    if reference is not None and reference.lost:
        window.errors.append(f"the validated pass lost queries {sorted(reference.lost)}")

    n_queries = len(w.query_ids)
    attempted = n_queries * (len(window.untraced) + len(window.traced) + window.raised)
    failed = window.check(reference, n_queries)
    walls = [wall for wall, _ in window.untraced]
    if args.trace:
        metrics = layer_metrics(w, window.untraced, window.traced)
        samples = {name: f"{len(window.traced)} traced passes; should move {moves} on {on}"
                   for name, _, _, moves, on in CATALOG}
    else:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": (wall, "s"),
            "tuples_per_s": (w.input_tuples / wall, "1/s"),
            "setup_s": (statistics.median(window.setup), "s"),
            "peak_rss_mb": (max(rss_own, rss_worker), "MiB"),
        }
        samples = {
            "wall_s": f"median of {len(walls)} passes: "
                      + " ".join(f"{x:.3f}" for x in walls),
            "tuples_per_s": f"median of {len(walls)} passes",
            "setup_s": f"median of {len(window.setup)} set-ups: "
                       + " ".join(f"{x:.3f}" for x in window.setup),
            "peak_rss_mb": f"largest process: parent {rss_own:.1f}, "
                           f"largest child {rss_worker:.1f}",
        }

    print(f"hostbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    digest = reference.digest[:16] if reference else "none"
    print(f"  digest {digest} ({n_queries} queries, {w.input_tuples} input tuples per pass)")
    for e in window.errors:
        print(f"  ERROR {e}")
    print(f"  {'failed_frac':<40} {failed / attempted:>16.6g} {'frac':<6} "
          f"{failed}/{attempted} queries")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit:<6} {samples[name]}")
    print(json.dumps({
        "correct": failed == 0 and not window.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    _import_repro()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed
    try:
        return measure(args)
    finally:
        _reap_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
