"""Outside-in span tracer for the simulator's layers.

:class:`LayerTracer` wraps public functions of ``repro`` at runtime (no
source file is touched) and attributes host time to them.  Every wrapped
call or generator resume is a *span*; a span's self time is its duration
minus the spans nested in it, so the self times of all keys plus the
root's residue sum to the traced wall time exactly (the trace "tiles" the
pass).  Spans are aggregated as they close (a float stack and a few
dicts) instead of being stored, which keeps a pass of a million spans small.

Three wrapper shapes cover every entry point:

* plain calls (``NodeHashStore.probe``, ``match_count``, ...);
* generator proxies for ``yield from`` helpers (``Network.send``,
  ``SpillStore.write_r``) and for every simulation process, installed
  through a wrapped ``Simulator.spawn`` and keyed by actor class from the
  process name;
* an iterator proxy that also counts the tuples it yields
  (``RelationStream.batches``).

``run`` installs the wrappers, runs one pass, puts every original object
back (``restored`` proves it) and returns the pass's :class:`Totals`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

perf = time.perf_counter

#: process-name prefix -> actor class (first match wins; see actor_of)
ACTOR_PREFIXES = (
    ("net:", "net"),
    ("pool-ticker", "ticker"),
    ("drain-ticker", "ticker"),
    ("pool", "pool"),
    ("scheduler", "scheduler"),
    ("sched-backup", "scheduler"),
    ("membership", "scheduler"),
    ("src", "source"),
    ("join", "join"),
    ("xfer:", "join"),
    ("out:", "join"),
)
ACTORS = ("source", "scheduler", "join", "pool", "ticker", "runner")


def actor_of(name: str) -> str:
    """Actor class of a simulation process, from the name it was spawned
    with.  Query runners, the workload supervisor and any helper the
    table does not name count as ``runner``."""
    for prefix, actor in ACTOR_PREFIXES:
        if name.startswith(prefix):
            return actor
    return "runner"


def _size(values: Any) -> int:
    return int(getattr(values, "size", 0))


def _chunks_size(chunks: Any) -> int:
    return sum(_size(c) for c in chunks)


class LayerTracer:
    """Host-time attribution by span key (see module docstring)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.tuples: dict[str, int] = defaultdict(int)
        #: generator-function invocations (one per ``Network.send`` call)
        self.starts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = [0.0]
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # span shapes
    # ------------------------------------------------------------------
    def _close(self, key: str, t0: float) -> None:
        dt = perf() - t0
        stack = self._stack
        child = stack.pop()
        stack[-1] += dt
        self.self_s[key] += dt - child

    def call(self, fn: Callable, key: str,
             count: Callable[[tuple, Any], int] | None = None) -> Callable:
        """Wrap a plain function.  Calls (and tuples, via ``count(args,
        result)``) are counted only at the outermost level of ``key``, so
        a delegating overload is not counted twice; time is exact at any
        depth."""
        depth = self._depth
        calls = self.calls
        tuples = self.tuples
        stack = self._stack
        close = self._close

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outer = depth[key] == 0
            depth[key] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(key, t0)
                depth[key] -= 1
            if outer:
                calls[key] += 1
                if count is not None:
                    tuples[key] += count(args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def gen(self, inner: Iterator, key: str, count_items: bool = False) -> Any:
        """Generator proxy: each resume of ``inner`` is one span of
        ``key`` (``calls[key]`` counts resumes).  Values sent and
        exceptions thrown in are forwarded, so ``yield from`` and
        ``Process`` drive it exactly like the original."""
        stack = self._stack
        close = self._close
        calls = self.calls
        tuples = self.tuples
        send: Any = None
        exc: BaseException | None = None
        while True:
            stack.append(0.0)
            t0 = perf()
            try:
                if exc is None:
                    item = inner.send(send)
                else:
                    item = inner.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                close(key, t0)
                calls[key] += 1
            if count_items:
                tuples[key] += _size(item)
            try:
                send = yield item
                exc = None
            except BaseException as thrown:  # GeneratorExit included
                send, exc = None, thrown

    def gen_fn(self, fn: Callable, key: str, count_items: bool = False) -> Callable:
        """Wrap a generator function so every generator it returns is
        proxied under ``key``."""
        gen = self.gen
        starts = self.starts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            starts[key] += 1
            return gen(fn(*args, **kwargs), key, count_items)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_method(self, cls: type, name: str, wrap: Callable) -> None:
        value = cls.__dict__.get(name)
        if value is not None and not getattr(value, "__isabstractmethod__", False):
            self._set(cls, name, wrap(value))

    def patch_function(self, fn: Callable, wrapped: Callable) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it
        (``from x import f`` copies the binding into the importer)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def install(self) -> None:
        from repro import core, data, hashing, obs, seqjoin, sim
        from repro.cluster import Network
        from repro.core import driver as core_driver
        from repro.workload import generator

        self.patch_method(sim.Simulator, "run", lambda f: self.call(f, "sim.kernel"))
        orig_spawn = sim.Simulator.__dict__["spawn"]
        gen = self.gen

        def spawn(simulator: Any, generator_: Any, name: str = "") -> Any:
            name = name or getattr(generator_, "__name__", "process")
            actor = actor_of(name)
            key = "cluster.net.deliver" if actor == "net" else f"core.{actor}"
            return orig_spawn(simulator, gen(generator_, key), name=name)

        self._set(sim.Simulator, "spawn", spawn)

        self.patch_method(Network, "send", lambda f: self.gen_fn(f, "cluster.net.send"))
        for name in ("write_r", "write_s", "final_passes"):
            self.patch_method(core.SpillStore, name, lambda f: self.gen_fn(f, "core.spill"))

        store = hashing.NodeHashStore
        self.patch_method(store, "probe", lambda f: self.call(
            f, "hashing.probe", lambda a, r: _size(a[1])))
        self.patch_method(store, "insert_chunks", lambda f: self.call(
            f, "hashing.insert", lambda a, r: _chunks_size(a[1])))
        self.patch_method(store, "finalize", lambda f: self.call(f, "hashing.finalize"))
        self.patch_method(store, "extract_where", lambda f: self.call(
            f, "hashing.extract", lambda a, r: _size(r)))
        for cls in (hashing.Router, hashing.RangeRouter, hashing.LinearHashRouter):
            for name in ("partition_build", "partition_probe", "probe_groups"):
                self.patch_method(cls, name, lambda f: self.call(
                    f, "hashing.route", lambda a, r: _size(a[1])))
        self.patch_method(hashing.PositionMap, "__call__",
                          lambda f: self.call(f, "hashing.posmap"))

        self.patch_method(data.RelationStream, "batches",
                          lambda f: self.gen_fn(f, "data.gen", count_items=True))
        for name in ("append", "pop_full_chunk", "pop_all", "drain_everything"):
            self.patch_method(data.ChunkBuffer, name,
                              lambda f: self.call(f, "data.chunkbuf"))

        self.patch_function(seqjoin.match_count,
                            self.call(seqjoin.match_count, "seqjoin.match_count"))

        for name in ("inc", "observe", "set_gauge"):
            self.patch_method(obs.MetricsRegistry, name,
                              lambda f: self.call(f, "obs.record"))
        self.patch_method(obs.StreamingCollector, "observe",
                          lambda f: self.call(f, "obs.record"))
        for fn in (obs.harvest_simulator, obs.harvest_network, obs.harvest_nodes):
            self.patch_function(fn, self.call(fn, "obs.harvest"))
        self.patch_method(obs.MetricsRegistry, "snapshot",
                          lambda f: self.call(f, "obs.snapshot"))
        self.patch_method(obs.StreamingCollector, "snapshot",
                          lambda f: self.call(f, "obs.snapshot"))
        self.patch_method(obs.Snapshot, "merge", lambda f: self.call(f, "obs.merge"))

        self.patch_function(generator.generate_workload, self.call(
            generator.generate_workload, "workload.generate"))
        self.patch_function(core_driver.assemble_result, self.call(
            core_driver.assemble_result, "workload.assemble"))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)

    def restored(self) -> bool:
        """True when every patched attribute holds its original again."""
        return all(owner.__dict__[name] is original
                   for owner, name, original in self._patches)

    # ------------------------------------------------------------------
    # the traced pass
    # ------------------------------------------------------------------
    def run(self, fn: Callable[[], Any]) -> tuple[Any, Totals]:
        """Run ``fn`` with the wrappers installed; returns ``fn``'s
        result and a frozen copy of the pass's totals.  The root's residue
        (time in no wrapped span: driver bodies, the benchmark's own
        bookkeeping) lands in ``trace.driver`` so that the self times sum
        to the wall time.  The copy matters: a proxied generator that the
        garbage collector closes later still reports into this tracer."""
        self.install()
        try:
            t0 = perf()
            try:
                result = fn()
            finally:
                wall = perf() - t0
        finally:
            self.uninstall()
        if len(self._stack) != 1:
            raise RuntimeError(f"unbalanced span stack: {self._stack!r}")
        self.self_s["trace.driver"] += wall - self._stack[0]
        self._stack[0] = 0.0
        return result, Totals(wall, dict(self.self_s), dict(self.calls),
                              dict(self.tuples), dict(self.starts),
                              self.restored())


@dataclass(frozen=True)
class Totals:
    """One traced pass, aggregated by span key."""

    wall_s: float
    self_s: dict[str, float]
    #: calls of plain wrappers, resumes of generator proxies
    calls: dict[str, int]
    tuples: dict[str, int]
    starts: dict[str, int]
    #: every wrapped attribute held its original again after the pass
    restored: bool

    @property
    def tiling_error(self) -> float:
        """``|sum of self times - wall|``: zero up to float rounding."""
        return abs(sum(self.self_s.values()) - self.wall_s)
