"""Discrete-event simulation kernel.

A self-contained, deterministic event loop in the style of SimPy: the
simulation advances by popping the earliest scheduled :class:`Event` off a
priority queue and running its callbacks.  Generator-based processes (see
:mod:`repro.sim.process`) suspend themselves by yielding events and are
resumed from an event callback.

Determinism: events scheduled for the same timestamp fire in scheduling
order (FIFO), enforced by a monotonically increasing sequence number used as
a tie-breaker in the heap.  Given identical seeds, two runs produce
identical traces.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable
from typing import Any

from .errors import DeadlockError, SimulationError

__all__ = ["Event", "Timeout", "Simulator", "PENDING"]


class _Pending:
    """Sentinel for 'this event has no value yet'."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*; it becomes *triggered* once given a value via
    :meth:`succeed` or an exception via :meth:`fail` and scheduled on the
    simulator queue.  When the simulator pops it, the event is *processed*:
    its callbacks run exactly once, in registration order.

    Events are the only synchronization primitive the kernel knows about;
    mailboxes, resources and processes are all built on top of them.
    """

    __slots__ = (
        "sim", "callbacks", "parent",
        "_value", "_exc", "_scheduled", "_processed",
    )

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: callables invoked with this event once it is processed
        self.callbacks: list[Callable[[Event], None]] | None = []
        #: optional provenance tag: the event being processed when this one
        #: was triggered (see :attr:`Simulator.current_event`).  Purely
        #: observational — the kernel never reads it — and opt-in, so the
        #: common case keeps no back-references alive.  Stampers must keep
        #: chains bounded (e.g. mailboxes tag hand-offs one hop deep).
        self.parent: Event | None = None
        self._value: Any = PENDING
        self._exc: BaseException | None = None
        self._scheduled = False
        self._processed = False

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception and is queued to fire."""
        return self._scheduled

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if not self._scheduled:
            raise SimulationError("event has not been triggered yet")
        return self._exc is None

    @property
    def value(self) -> Any:
        """The event's value (raises the failure exception if it failed)."""
        if self._exc is not None:
            raise self._exc
        if self._value is PENDING:
            raise SimulationError("event has no value yet")
        return self._value

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> Event:
        """Schedule this event to fire successfully after ``delay``."""
        if self._scheduled:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> Event:
        """Schedule this event to fire with an exception after ``delay``."""
        if self._scheduled:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exc = exc
        self._value = None
        self.sim._schedule(self, delay)
        return self

    def cancel(self) -> None:
        """Withdraw a triggered event before it fires.

        Its callbacks never run, and the simulator discards it without
        advancing the clock or counting it as processed.  Meant for
        private timers (see :meth:`Simulator.at`) that nothing else waits
        on: a waiter on a cancelled event is never resumed.
        """
        if self._processed:
            raise SimulationError(f"{self!r} already processed")
        self.callbacks = None

    def add_callback(self, fn: Callable[[Event], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately —
        this keeps late waiters correct without racy re-checks.
        """
        if self._processed:
            fn(self)
        else:
            assert self.callbacks is not None
            self.callbacks.append(fn)

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self._scheduled
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: Simulator, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.succeed(value, delay=delay)


class Simulator:
    """The event loop.

    Usage::

        sim = Simulator()
        sim.spawn(my_generator_fn(sim))     # see repro.sim.process
        sim.run()
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        #: (fire time, seq, event, time it was scheduled at)
        self._queue: list[tuple[float, int, Event, float]] = []
        self._seq = 0
        #: number of processes currently alive (maintained by Process)
        self._active_processes = 0
        self._processed_events = 0
        #: processes that died with an exception (maintained by Process)
        self._failed_processes: list = []
        self._current_event: Event | None = None
        self._current_born = 0.0
        #: process whose generator is executing right now (maintained by
        #: Process._advance); sync primitives use it to attribute waits
        self._current_process: Any | None = None
        #: optional runtime deadlock detector (see repro.sim.lockdep);
        #: the sync primitives report blocking transitions to it when set
        self.lockdep: Any | None = None

    # ------------------------------------------------------------------
    # time & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (for tests/diagnostics)."""
        return self._processed_events

    @property
    def current_event(self) -> Event | None:
        """The event whose callbacks are running right now (None between
        steps).  Provenance stampers use it to set :attr:`Event.parent`."""
        return self._current_event

    @property
    def current_born(self) -> float | None:
        """The simulated time at which the event being processed was
        scheduled (None between steps).  Among events firing at the same
        instant, one scheduled earlier fires first."""
        return None if self._current_event is None else self._current_born

    @property
    def current_process(self) -> Any | None:
        """The process whose generator is executing right now (None when
        no process is on the stack, e.g. during setup code).  Lockdep uses
        it to attribute a blocking wait to its owner."""
        return self._current_process

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._push(event, self._now + delay)

    def _push(self, event: Event, when: float) -> None:
        event._scheduled = True
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, event, self._now))

    def event(self) -> Event:
        """Create a fresh pending event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def at(self, when: float, value: Any = None) -> Event:
        """Create an event firing at the absolute simulated time ``when``.

        The fire time is exactly ``when``; ``timeout(when - now)`` would
        fire at ``now + (when - now)``, which can round to a neighbouring
        float.  Grid-aligned timers (:mod:`repro.sim.ticks`) rely on this,
        and on :meth:`Event.cancel` to withdraw a timer they re-plan.
        """
        if when < self._now:
            raise ValueError(
                f"cannot schedule into the past (when={when}, now={self._now})"
            )
        event = Event(self)
        event._value = value
        self._push(event, when)
        return event

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next event, or ``inf`` when the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (a cancelled one is just dropped)."""
        when, _, event, born = heapq.heappop(self._queue)
        if event.callbacks is None:
            return  # cancelled: no time passes, nothing runs
        assert when >= self._now, "event queue went backwards"
        self._now = when
        self._processed_events += 1
        self._current_event = event
        self._current_born = born
        try:
            event._run_callbacks()
        finally:
            self._current_event = None

    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or simulated time exceeds ``until``.

        Raises :class:`DeadlockError` if processes are still alive when the
        queue drains — that always indicates a protocol bug (a process is
        waiting on an event nobody will ever trigger).
        """
        if until is not None and until < self._now:
            raise ValueError(
                f"run(until={until}) would move time backwards (now={self._now})"
            )
        while self._queue:
            if until is not None and self.peek() > until:
                self._now = until
                return
            self.step()
            if self._failed_processes:
                # Fail fast: an unobserved process death would otherwise
                # show up only as a mysterious livelock or deadlock later.
                # Several processes can fail in one step (e.g. a barrier
                # releasing multiple waiters): raise the first *unobserved*
                # failure; observed ones propagate to their waiters.
                for proc in self._failed_processes:
                    if not proc.callbacks and proc._exc is not None:
                        self._failed_processes.clear()
                        raise proc._exc
                self._failed_processes.clear()
        if self._active_processes > 0:
            msg = (
                f"event queue empty but {self._active_processes} "
                "process(es) still waiting"
            )
            if self.lockdep is not None:
                report = self.lockdep.render_stall_report()
                if report:
                    msg = f"{msg}\n{report}"
            raise DeadlockError(msg)

    # Convenience used by Process
    def spawn(self, generator: Iterable, name: str = "") -> Any:
        """Start a generator as a simulation process (see Process)."""
        from .process import Process

        return Process(self, generator, name=name)
