"""Grid-aligned, on-demand poll ticks.

Polling actors (the scheduler's counting drain, the shared pool's recruit
deadlines, the standby scheduler's dead-man timer) act on a tick message
in their mailbox.  :class:`PollTicks` produces those ticks on a fixed
grid — first tick one ``interval`` after creation, then
``t_k = t_{k-1} + interval`` by float accumulation — but puts a tick into
the mailbox only when it can matter:

* the owner is busy (no getter is blocked on the mailbox): the tick
  queues and the owner reads it later, in whatever state it is in then;
* the owner is blocked and its predicate ``due(t_k)`` says a tick now can
  change its state.

Any other tick is skipped.  An owner's state changes only when it takes a
non-tick message, so a skipped tick is one it would have taken and
ignored.  After a skip the source stays silent until the first grid
point at or after the next put into the mailbox by anyone else, or — when
``due`` answered ``False`` (a deadline is pending) rather than ``None``
(only a message can help) — until the first grid point where ``due``
holds, whichever comes first.

Same-instant order follows a polling loop that puts every tick: tick
``k`` counts as scheduled at grid point ``k-1``, so it comes after the
events scheduled before that point and before those scheduled after it.
A put or a :meth:`~PollTicks.stop` that lands exactly on a grid point
the source has not visited is resolved by that rule, using the kernel's
:attr:`~repro.sim.Simulator.current_born`.

:meth:`PollTicks.stop` ends the source after one final tick at the next
grid point, which the owner receives whatever its state (a polling loop
that checks its stop flag after each tick fires exactly one more).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from .kernel import Event, Simulator
from .sync import Mailbox

__all__ = ["PollTicks"]


class PollTicks:
    """On-demand ticks on a fixed grid into one actor's mailbox.

    ``due(t)`` is consulted only while the owner is blocked on
    ``mailbox``: ``True`` when a tick at time ``t`` can change the
    owner's state, ``False`` when not at ``t`` but at some later grid
    point (a deadline is pending), ``None`` when only a message can.
    ``tick`` is the message put; the source claims the mailbox's
    ``put_probe`` to hear other traffic.
    """

    def __init__(
        self,
        sim: Simulator,
        mailbox: Mailbox,
        interval: float,
        due: Callable[[float], bool | None],
        tick: Any,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"tick interval must be > 0, got {interval}")
        self.sim = sim
        self.mailbox = mailbox
        self.interval = interval
        self._due = due
        self._tick = tick
        #: first grid point not yet visited, and the grid point before it
        self._prev = sim.now
        self._next = sim.now + interval
        #: grid point of the planned visit; None while dormant
        self._wake: float | None = None
        self._timer: Event | None = None
        #: set by stop(); the final tick is still to come
        self.stopped = False
        mailbox.put_probe = self._poke
        self._plan(self._next)

    def stop(self) -> None:
        """Fire one final tick at the next grid point, then end."""
        if self.stopped:
            return
        self.stopped = True
        if self._catch_up():
            self._advance()  # this instant's tick came before the stop
        self._plan_next()

    # ------------------------------------------------------------------
    def _plan(self, when: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._wake = when
        self._timer = self.sim.at(when)
        self._timer.add_callback(self._visit)

    def _plan_next(self) -> None:
        if self._wake != self._next:
            self._plan(self._next)

    def _advance(self) -> None:
        self._prev = self._next
        self._next += self.interval

    def _catch_up(self) -> bool:
        """Skip the grid points before now; True when an unvisited grid
        point is now and its tick comes before the event being processed
        (it was due before that event was scheduled)."""
        now = self.sim.now
        while self._next < now:
            self._advance()
        born = self.sim.current_born
        return self._next == now and born is not None and born >= self._prev

    def _poke(self, item: Any) -> None:
        """Another put is about to land in the mailbox."""
        if item is self._tick or self.stopped:
            return
        if self._catch_up():
            # This instant's tick precedes the put: a polling loop would
            # already have put it, so put it first.
            self.mailbox.put(self._tick)
            self._advance()
        self._plan_next()

    def _visit(self, _event: Event) -> None:
        now = self.sim.now
        self._wake = self._timer = None
        self._prev, self._next = now, now + self.interval
        if self.stopped:
            self.mailbox.put(self._tick)
            if self.mailbox.put_probe == self._poke:
                self.mailbox.put_probe = None
            return
        due = self._due(now) if self.mailbox.waiting else True
        if due:
            self.mailbox.put(self._tick)
            self._plan(self._next)
        elif due is False:
            t = self._next
            while (due := self._due(t)) is False:
                t += self.interval
            if due:
                self._plan(t)
