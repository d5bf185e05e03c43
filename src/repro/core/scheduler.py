"""The scheduler actor (paper §4.1.1).

Coordinates the whole join: activates the initial join nodes, answers
memory-full reports by running the configured expansion strategy (one
relief cycle at a time — the generalization of the paper's barrier split
pointer), synchronizes the phase transitions (build -> [reshuffle] ->
probe -> [OOC passes] -> shutdown), and detects phase completion with a
counting drain protocol:

    a phase's data flow is drained when, over two consecutive polling
    rounds, every counter is unchanged AND
        chunks sent by sources + chunks emitted by join nodes
            == chunks received == chunks processed
    AND no node is busy, no relief is pending and no split is in flight.

Any message still on the wire leaves the sums unequal (it was counted by
its sender's report but not its receiver's), and any message sent after a
node's report changes that node's counters by the next round — so two
identical balanced rounds imply an empty network.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Callable, Generator, Iterator
from typing import Any

import numpy as np

from ..faults import UnrecoverableFaultError
from ..hashing import LinearHashRouter, RangeRouter, Router, partition_range_by_counts
from ..sim import Interrupt, PollTicks
from .context import RunContext
from .messages import (
    ActivateAck,
    ActivateJoin,
    CountRequest,
    CountVector,
    DeathVerdict,
    Depose,
    FinalReport,
    FinalizePass,
    HeartbeatAck,
    MemoryFull,
    NodeLost,
    NodeLostAck,
    OutputRedirect,
    PassDone,
    PollTick,
    QueryDone,
    RecruitDeny,
    RecruitGrant,
    RecruitRequest,
    ReliefAck,
    ReliefPing,
    ReplayDone,
    ReplayOrder,
    ReshuffleDone,
    RouteUpdate,
    SchedulerFailover,
    SpillOrder,
    SplitDone,
    ReshuffleOrder,
    Shutdown,
    SourceDone,
    StartProbe,
    StateSync,
    StatusReport,
    StatusRequest,
)
from .strategy import make_strategy

__all__ = ["SchedulerProcess", "SchedulerOutcome"]


class _NodeDied(Exception):
    """Internal control flow: a DeathVerdict surfaced in dispatch.

    Raised out of ``_dispatch_common`` so whatever protocol wait is in
    progress unwinds to the phase loop, which runs the recovery cycle —
    recovery must never run from the middle of a relief decision."""

    def __init__(self, node: int) -> None:
        super().__init__(f"join node {node} declared dead")
        self.node = node


class _Deposed(Exception):
    """Internal control flow: the standby took over while we were alive
    (a dead-man false positive).  The old primary stands down silently."""


@dataclass
class SchedulerOutcome:
    """Raw facts the driver turns into a JoinRunResult."""

    t_start: float = 0.0
    t_build: float = 0.0
    t_reshuffle: float = 0.0
    t_probe: float = 0.0
    t_ooc: float = 0.0
    n_splits: int = 0
    split_moved_tuples: int = 0
    split_busy_s: float = 0.0
    reshuffle_moved_tuples: int = 0
    expansion_trace: list[tuple[float, int]] = field(default_factory=list)
    final_reports: dict[int, FinalReport] = field(default_factory=dict)
    probe_dup_tuples: int = 0
    activated: list[int] = field(default_factory=list)


class SchedulerProcess:
    """Drive with ``sim.spawn(proc.run())``; outcome in ``proc.outcome``."""

    def __init__(self, ctx: RunContext) -> None:
        self.ctx = ctx
        self.cfg = ctx.cfg
        self.node = ctx.scheduler_node
        self.outcome = SchedulerOutcome()
        #: the spawned simulation process (set by spawn_query_pipeline)
        self.proc: Any = None
        self.strategy = make_strategy(self, self.cfg)

        # node pools (paper: working / full / potential join nodes).
        # In workload mode (ctx.pool set) the private potential pool is
        # empty: every expansion node comes from the shared pool actor, and
        # the initial nodes are whatever the admission grant handed us.
        self.pool_client = ctx.pool
        initial = (
            list(ctx.initial_join_nodes)
            if ctx.initial_join_nodes is not None
            else list(range(self.cfg.initial_nodes))
        )
        self.working: list[int] = list(initial)
        self.full_nodes: list[int] = []
        self.potential: list[int] = (
            []
            if self.pool_client is not None
            else list(range(self.cfg.initial_nodes, ctx.n_potential))
        )
        self.activated: list[int] = list(self.working)
        #: reporter -> parked-backlog bytes from its last MemoryFull
        #: (forwarded to the shared pool's MEMORY_DEFICIT policy)
        self._full_deficit: dict[int, int] = {}
        self._active_deficit = 0

        self.router: Router = self.strategy.make_initial_router(list(self.working))
        self._version = 0

        # relief machinery
        self.full_queue: deque[int] = deque()
        #: reporter -> causal edge of its queued MemoryFull (provenance for
        #: the relief messages sent on its behalf)
        self._full_edges: dict[int, int | None] = {}
        self.relief_active = False
        #: nodes degraded to disk spilling (pool exhausted / atomic range)
        self.spilled_nodes: set[int] = set()
        #: pool nodes that never acked their ActivateJoin (presumed dead)
        self.dead_nodes: list[int] = []
        # Recruit-ack timeout (simulated seconds), applied only under fault
        # injection — on a fault-free run an ack cannot be lost, so waiting
        # without a deadline is always correct.  The derived default must
        # dominate the worst case for a *healthy* recruit: its receive port
        # can hold at most the credit window of data chunks ahead of the
        # ActivateJoin, so a generous multiple of one chunk's wire time is
        # safe at every workload scale.
        plan = ctx.cfg.faults
        wl = self.cfg.workload
        chunk_wire = ctx.cost.net_latency + ctx.cost.wire_time(
            wl.chunk_tuples * wl.tuple_bytes
        )
        self._recruit_timeout_s = (
            plan.recruit_timeout_s
            if plan is not None and plan.recruit_timeout_s is not None
            else 16.0 * chunk_wire + 20.0 * self.cfg.effective_drain_poll
        )
        self._recruit_backoff_max_s = (
            plan.recruit_backoff_max_s
            if plan is not None and plan.recruit_backoff_max_s is not None
            else 8.0 * self._recruit_timeout_s
        )

        # source bookkeeping.  Chunk counts are kept *per destination* so
        # the drain balance can exclude chunks sent to a node later
        # declared dead (its mailbox absorbed them without retiring them).
        self._source_done: dict[str, set[int]] = {"R": set(), "S": set()}
        self._source_chunk_maps: dict[str, dict[int, int]] = {"R": {}, "S": {}}

        # control-plane fault tolerance (repro.core.membership)
        #: pool indices declared dead — excluded from routing, polling and
        #: the sent-side of the drain balance
        self.fenced: set[int] = set()
        #: in-flight relief/recovery decision, WAL-replicated to the backup
        self._pending: tuple = ()
        #: live nodes participating in the pending decision (purge set on
        #: a mid-decision death; primary-local, recomputed on re-drive)
        self._pending_parties: tuple[int, ...] = ()
        #: reporter whose relief cycle a recovery unwind abandoned
        self._abandoned_reporter: int | None = None
        self._recovering = False
        self._sync_seq = 0
        #: (recovery_id, source, relation) of absorbed ReplayDones
        self._replay_seen: set[tuple[int, int, str]] = set()
        #: ActivateAcks consumed by _dispatch_common while another await
        #: held the main loop (e.g. a recovery during initial activation)
        self._stray_activate_acks: set[int] = set()
        #: heartbeat failure detector (armed by _start_background)
        self.membership: Any = None
        self._membership_proc: Any = None

        # drain polling
        self._poll_token = 0
        self._round_reports: dict[int, StatusReport] = {}
        self._round_nodes: tuple[int, ...] = ()
        self._prev_round: dict[int, tuple] | None = None
        self._drained = False
        self._phase = "build"
        #: drain-poll tick source (armed by _start_background)
        self._ticks: PollTicks | None = None
        #: deadline of the tick-bounded wait in progress, if any
        self._tick_deadline: float | None = None
        #: blocked in a build/probe drain loop (see _phase_recv)
        self._polling = False

    # ------------------------------------------------------------------
    # helpers used by strategies
    # ------------------------------------------------------------------
    def next_version(self) -> int:
        self._version += 1
        return self._version

    def _pick_candidate(self) -> int | None:
        """Remove and return the potential node with the most available
        memory (paper's selection rule); ties broken by lowest pool index."""
        if not self.potential:
            return None
        spec = self.ctx.cfg.effective_cluster
        best = max(self.potential, key=lambda j: (spec.memory_of(j), -j))
        self.potential.remove(best)
        return best

    def _acquire_candidate(self, phase: str) -> Generator[Any, Any, int | None]:
        """One expansion candidate: from the private potential pool, or —
        in workload mode — by asking the shared pool actor.

        The pool path sends a :class:`RecruitRequest` carrying the current
        relief cycle's memory deficit and blocks for the pool's verdict.
        Exactly one response (grant or deny) exists per request, so the
        wait cannot leak pool messages into other dispatch sites.  On a
        grant the node is adopted first (the workload driver resets it and
        spawns this query's JoinProcess) so the subsequent ActivateJoin
        finds a live actor; on a deny the caller degrades to the OOC spill
        path, exactly as it would on private-pool exhaustion.
        """
        pc = self.pool_client
        if pc is None:
            return self._pick_candidate()
        yield from self.ctx.send(
            self.node, pc.node,
            RecruitRequest(
                query=pc.query_id, want=1, admission=False,
                deficit_bytes=self._active_deficit, phase=phase,
            ),
        )
        while True:
            msg = yield from self.node.mailbox.recv()
            if isinstance(msg, RecruitGrant) and msg.query == pc.query_id:
                cand = msg.nodes[0]
                pc.adopt(cand)
                return cand
            if isinstance(msg, RecruitDeny) and msg.query == pc.query_id:
                self.ctx.trace("recruit_denied", "scheduler",
                               reason=msg.reason, phase=phase)
                self.ctx.metrics.inc("sched.recruit_denied", 1,
                                     reason=msg.reason)
                return None
            self._dispatch_common(msg)

    def recruit_node(
        self, make_activate: Callable[[int], ActivateJoin], phase: str = "build",
        parent: int | None = None,
    ) -> Generator[Any, Any, int | None]:
        """Acknowledged recruitment with failure handling.

        Picks a candidate from the potential pool, sends it the
        ``ActivateJoin`` built by ``make_activate(candidate)``, and waits
        for its :class:`ActivateAck`.  If no ack arrives within the recruit
        timeout (a simulated-seconds deadline checked on drain-poll ticks),
        the candidate is presumed dead: it is excluded from the pool for
        good, the scheduler backs off exponentially (capped), and a
        *different* candidate is tried.  Returns the recruited pool index,
        or ``None`` when the pool is exhausted — the caller then degrades
        to the OOC spill path (``ExpansionStrategy.fallback_spill``).

        A live recruit whose ack merely arrived late becomes a "zombie":
        activated but unknown to the pools.  Its stale ack is ignored by
        ``_dispatch_common`` and its FinalReport is accepted (but not
        awaited) at shutdown, so correctness is unaffected either way.
        """
        backoff = self._recruit_timeout_s / 2.0
        while True:
            cand = yield from self._acquire_candidate(phase)
            if cand is None:
                self.ctx.trace("pool_exhausted", "scheduler", phase=phase)
                return None
            yield from self.send_to_join(cand, make_activate(cand),
                                         parent=parent)
            if (yield from self._await_activate_ack(cand)):
                self.working.append(cand)
                self.activated.append(cand)
                self.outcome.expansion_trace.append((self.ctx.sim.now, cand))
                return cand
            self.dead_nodes.append(cand)
            self.ctx.metrics.inc("faults_recruit_failures", 1, phase=phase)
            self.ctx.metrics.inc("retries_total", 1, kind="recruit")
            self.ctx.trace("recruit_timeout", "scheduler",
                           node=cand, phase=phase)
            yield from self._await_backoff(backoff)
            backoff = min(backoff * 2.0, self._recruit_backoff_max_s)

    def _await_activate_ack(self, cand: int) -> Generator[Any, Any, bool]:
        """Wait for ``cand``'s ActivateAck; False once the deadline passes.

        Without an injector there is no deadline: acks cannot be lost, so
        unbounded waiting is always correct and can never misdeclare a
        busy-but-healthy recruit dead."""
        deadline = (
            None if self.ctx.faults is None
            else self.ctx.sim.now + self._recruit_timeout_s
        )
        with self._ticks_due_at(deadline):
            while True:
                msg = yield from self.node.mailbox.recv()
                if isinstance(msg, ActivateAck) and msg.node == cand:
                    return True
                if isinstance(msg, PollTick):
                    if deadline is not None and self.ctx.sim.now >= deadline:
                        return False
                    continue
                self._dispatch_common(msg)

    def _await_backoff(self, seconds: float) -> Generator[Any, Any, None]:
        """Idle until ``seconds`` from now (measured on drain-poll ticks),
        still absorbing other traffic."""
        deadline = self.ctx.sim.now + seconds
        with self._ticks_due_at(deadline):
            while self.ctx.sim.now < deadline:
                msg = yield from self.node.mailbox.recv()
                if not isinstance(msg, PollTick):
                    self._dispatch_common(msg)

    def mark_full(self, node: int) -> None:
        """Move a node from the working to the full list (replication)."""
        if node in self.working:
            self.working.remove(node)
        if node not in self.full_nodes:
            self.full_nodes.append(node)

    def record_split(self, moved: int, busy: float) -> None:
        self.outcome.n_splits += 1
        self.outcome.split_moved_tuples += moved
        self.outcome.split_busy_s += busy

    def send_to_join(self, j: int, msg: Any,
                     parent: int | None = None) -> Generator[Any, Any, None]:
        yield from self.ctx.send(self.node, self.ctx.join_node(j), msg,
                                 parent=parent)

    def broadcast_to_sources(self, msg: Any) -> Generator[Any, Any, None]:
        for s in range(self.ctx.n_sources):
            yield from self.ctx.send(self.node, self.ctx.source_node(s), msg)

    # ------------------------------------------------------------------
    # message waiting with background dispatch
    # ------------------------------------------------------------------
    def await_message(self, match: Callable[[Any], bool]) -> Generator[Any, Any, Any]:
        """Wait for a message satisfying ``match``; everything else goes
        through the common dispatcher (so relief cycles never starve the
        rest of the protocol)."""
        while True:
            msg = yield from self.node.mailbox.recv()
            if match(msg):
                return msg
            self._dispatch_common(msg)

    def await_relief_ack(self, reporter: int) -> Generator[Any, Any, ReliefAck]:
        return (
            yield from self.await_message(
                lambda m: isinstance(m, ReliefAck) and m.node == reporter
            )
        )

    def _dispatch_common(self, msg: Any) -> None:
        """Messages that may arrive at any time, handled statelessly."""
        if isinstance(msg, MemoryFull):
            if msg.node in self.fenced:
                return  # a dead node's parting words
            if msg.node not in self.full_queue:
                self.full_queue.append(msg.node)
            # Remember the MemoryFull's causal edge: the relief cycle runs
            # later (the queue is serialized), after the scheduler has
            # dequeued other messages, so the implicit cause would be wrong.
            self._full_edges[msg.node] = self.ctx.causal.cause_of("scheduler")
            self._full_deficit[msg.node] = msg.deficit_bytes
            self._prev_round = None
        elif isinstance(msg, SourceDone):
            # Idempotent: a SchedulerFailover makes sources re-announce.
            if msg.source not in self._source_done[msg.relation]:
                self._source_done[msg.relation].add(msg.source)
                chunk_map = self._source_chunk_maps[msg.relation]
                for dest, n in msg.chunks_sent.items():
                    chunk_map[dest] = chunk_map.get(dest, 0) + n
                if msg.relation == "S":
                    self.outcome.probe_dup_tuples += msg.dup_tuples
        elif isinstance(msg, HeartbeatAck):
            if self.membership is not None:
                self.membership.note_ack(msg)
        elif isinstance(msg, DeathVerdict):
            if msg.node in self.fenced or msg.node not in self.activated:
                pass  # already recovered, or never part of this query
            elif self._recovering:
                raise UnrecoverableFaultError(
                    f"join node {msg.node} declared dead while recovering "
                    "from an earlier failure — concurrent working-node "
                    "failures are out of scope (docs/FAULTS.md)"
                )
            else:
                raise _NodeDied(msg.node)
        elif isinstance(msg, ReplayDone):
            self._note_replay_done(msg)
        elif isinstance(msg, NodeLostAck):
            pass  # late ack from a recovery fan-out that already completed
        elif isinstance(msg, Depose):
            raise _Deposed()
        elif isinstance(msg, ReliefAck):
            # Un-awaited ack: the relief cycle that requested it was
            # abandoned by a recovery unwind.  Re-queue if still stuck.
            if (msg.still_full and msg.node in self.activated
                    and msg.node not in self.fenced
                    and msg.node not in self.full_queue):
                self.full_queue.append(msg.node)
                self._prev_round = None
        elif isinstance(msg, (SplitDone, PassDone)):
            self.ctx.trace("stale_ack", "scheduler",
                           kind=type(msg).__name__)
        elif isinstance(msg, StatusReport):
            # Reports may land while a relief cycle holds the main loop —
            # still collect them, or the in-flight poll round would never
            # complete and polling would stop for good.  The stability
            # evaluation re-checks relief/queue state before declaring a
            # phase drained.
            self._collect_report(msg)
        elif isinstance(msg, ActivateAck):
            # Either a recruit we timed out on answering after all (alive
            # but excluded from the pools — a zombie whose FinalReport is
            # accepted at shutdown regardless), or an initial node's ack
            # landing while a recovery holds the main loop; the initial-
            # activation await drains the stray set.
            self._stray_activate_acks.add(msg.node)
            self.ctx.trace("stale_activate_ack", "scheduler", node=msg.node)
        elif isinstance(msg, PollTick):
            pass  # ticks matter only to a phase loop or a deadline wait
        else:
            raise RuntimeError(f"scheduler: unexpected message {msg!r}")

    def _source_sent(self, relation: str) -> int:
        """Chunks the sources count as sent, minus those addressed to
        fenced nodes (absorbed by a tombstone, never to be retired).
        Purged-but-live survivors are *not* fenced here: they stay
        activated and retire their traffic, so their receipts balance."""
        return sum(
            n for dest, n in self._source_chunk_maps[relation].items()
            if dest not in self.fenced
        )

    def _note_replay_done(self, msg: ReplayDone) -> None:
        """Fold a replay's chunk counts into the drain balance, once."""
        key = (msg.recovery_id, msg.source, msg.relation)
        if key in self._replay_seen:
            return
        self._replay_seen.add(key)
        chunk_map = self._source_chunk_maps[msg.relation]
        for dest, n in msg.chunks_sent.items():
            chunk_map[dest] = chunk_map.get(dest, 0) + n
        self._prev_round = None

    # ------------------------------------------------------------------
    # state replication to the standby (write-ahead)
    # ------------------------------------------------------------------
    def sync_backup(self) -> Generator[Any, Any, None]:
        """Ship a state snapshot to the standby scheduler.

        No-op without a standby (the fault-free path sends nothing), and
        after a takeover (the standby does not re-replicate to itself)."""
        backup = self.ctx.backup_node
        if backup is None or backup is self.node:
            return
        self._sync_seq += 1
        yield from self.ctx.send(
            self.node, backup,
            StateSync(
                sync_seq=self._sync_seq, phase=self._phase,
                router=self.router, version=self._version,
                activated=tuple(self.activated),
                fenced=tuple(sorted(self.fenced)),
                pending=self._pending,
            ),
        )

    def wal_decision(
        self, pending: tuple, parties: tuple[int, ...] = ()
    ) -> Generator[Any, Any, None]:
        """Record an in-flight decision *before* acting on it, so the
        standby can re-drive it idempotently after a takeover."""
        self._pending = tuple(pending)
        self._pending_parties = tuple(parties)
        yield from self.sync_backup()

    def clear_decision(self) -> Generator[Any, Any, None]:
        if not self._pending and not self._pending_parties:
            return
        self._pending = ()
        self._pending_parties = ()
        yield from self.sync_backup()

    # ------------------------------------------------------------------
    # main run
    # ------------------------------------------------------------------
    def run(self) -> Generator[Any, Any, SchedulerOutcome | None]:
        try:
            return (yield from self._run_fresh())
        except Interrupt:
            # Injected crash: die silently mid-protocol.  Background loops
            # are flag-stopped — the silence is what the standby detects.
            self._halt_background()
            self.ctx.trace("scheduler_crashed", "scheduler",
                           phase=self._phase)
            return None
        except _Deposed:
            self._halt_background()
            self.ctx.trace("scheduler_deposed", "scheduler")
            return None
        except _NodeDied as e:
            raise UnrecoverableFaultError(
                f"join node {e.node} declared dead during the {self._phase} "
                "phase — working-node recovery is supported only in the "
                "build and probe phases (docs/FAULTS.md)"
            ) from e

    def _run_fresh(
        self, failover: bool = False
    ) -> Generator[Any, Any, SchedulerOutcome]:
        ctx = self.ctx
        self.outcome.t_start = ctx.sim.now
        # Ticks first: the initial-activation ack timeout counts them.
        self._start_background()
        if failover:
            yield from self._announce_failover()
        self._notify_faults("build")
        # Activate the initial working join nodes and await their acks.
        # Initial nodes are not replaceable (the initial router is fixed
        # before activation), so a missing ack here is unrecoverable —
        # unlike mid-run recruits, which retry a different pool node.
        if isinstance(self.router, RangeRouter):
            for rng, chain in self.router.entries:
                yield from self.send_to_join(
                    chain[0], ActivateJoin(chain[0], hash_range=rng)
                )
        else:  # linear hashing: one bucket per initial node
            for b, j in enumerate(self.router.bucket_nodes):  # type: ignore[attr-defined]
                yield from self.send_to_join(j, ActivateJoin(j, bucket=b))
        yield from self._await_initial_acks(set(self.activated))
        yield from self.sync_backup()
        return (yield from self._run_from("build"))

    def _run_from(self, phase: str) -> Generator[Any, Any, SchedulerOutcome]:
        """Drive the query from ``phase`` to completion (fresh run, or a
        standby resuming after a takeover)."""
        ctx = self.ctx
        if phase == "build":
            yield from self._build_phase()
            self.outcome.t_build = ctx.sim.now
            ctx.trace("phase", "scheduler", phase="build_done")

            if self.strategy.needs_reshuffle:
                self._phase = "reshuffle"
                yield from self.sync_backup()
                self._notify_faults("reshuffle")
                yield from self._reshuffle_phase()
            self.outcome.t_reshuffle = ctx.sim.now
            ctx.trace("phase", "scheduler", phase="reshuffle_done")
            self._notify_faults("probe")

        yield from self._probe_phase()
        self.outcome.t_probe = ctx.sim.now
        ctx.trace("phase", "scheduler", phase="probe_done")

        self._phase = "ooc"
        yield from self.sync_backup()
        self._notify_faults("ooc")
        yield from self._ooc_pass_phase()
        self.outcome.t_ooc = ctx.sim.now
        ctx.trace("phase", "scheduler", phase="ooc_done")

        yield from self._shutdown()
        self.outcome.activated = list(self.activated)
        return self.outcome

    def _start_background(self) -> None:
        """Arm the drain-poll ticks and (when armed) the failure detector.

        Both stop together: a crashed or deposed primary stops them, and
        that silence is exactly what the standby's dead-man timer and the
        joins' ping loss observe.  Ticks run on the scheduler node, so
        they never cross the network."""
        ctx = self.ctx
        self._ticks = PollTicks(
            ctx.sim, self.node.mailbox, self.cfg.effective_drain_poll,
            self._tick_due, PollTick(),
        )
        if (ctx.faults is not None and ctx.faults.plan.membership_active
                and ctx.backup_node is not None):
            from .membership import Membership

            self.membership = Membership(self)
            self._membership_proc = ctx.sim.spawn(
                self.membership.loop(self._ticks), name="membership"
            )

    def _tick_due(self, t: float) -> bool | None:
        """Whether a PollTick at time ``t`` can change anything, asked
        while the scheduler is blocked on its mailbox (see PollTicks): at
        a deadline wait's deadline, or in a drain loop that is ready to
        start a poll round.  Every other wait ignores ticks."""
        if self._tick_deadline is not None:
            return t >= self._tick_deadline
        return (self._polling and self._ready_to_poll()) or None

    def _phase_recv(self) -> Generator[Any, Any, Any]:
        """A drain loop's receive: the one wait where a PollTick can
        start a poll round."""
        self._polling = True
        try:
            return (yield from self.node.mailbox.recv())
        finally:
            self._polling = False

    @contextmanager
    def _ticks_due_at(self, deadline: float | None) -> Iterator[None]:
        """Mark a wait that a PollTick at or after ``deadline`` ends, so
        the tick source delivers that tick (``None`` marks nothing)."""
        outer = self._tick_deadline
        if deadline is not None:
            self._tick_deadline = deadline
        try:
            yield
        finally:
            self._tick_deadline = outer

    def _halt_background(self) -> None:
        if self._ticks is not None:
            self._ticks.stop()
        # The flag only covers the detector's idle path: a ping that is
        # mid-send when the primary dies would wait on the dead node's
        # CPU forever.  Interrupt it out of the send (it treats the
        # Interrupt as a clean stop).
        proc = self._membership_proc
        if proc is not None and proc.is_alive:
            proc.interrupt(cause=("membership_halt",))

    def _notify_faults(self, phase: str) -> None:
        """Synchronous phase-entry hook for phase-triggered crash specs."""
        if self.ctx.faults is not None:
            self.ctx.faults.notify_phase(phase)

    def _await_initial_acks(self, pending: set[int]) -> Generator[Any, Any, None]:
        timeout = self._recruit_timeout_s
        if self.ctx.faults is not None and self.membership is not None:
            # The failure detector subsumes this deadline: a dead initial
            # node is *recoverable* (confirmed death → recovery cycle), so
            # give the detector time to reach its verdict first.
            timeout = max(
                timeout,
                self.membership.timing.confirm
                + 4.0 * self.membership.timing.interval,
            )
        deadline = (
            None if self.ctx.faults is None else self.ctx.sim.now + timeout
        )
        while pending:
            pending -= self._stray_activate_acks
            if not pending:
                return
            with self._ticks_due_at(deadline):
                msg = yield from self.node.mailbox.recv()
            if isinstance(msg, ActivateAck) and msg.node in pending:
                pending.discard(msg.node)
                if deadline is not None:  # progress: extend the deadline
                    deadline = self.ctx.sim.now + timeout
            elif isinstance(msg, PollTick):
                if deadline is not None and self.ctx.sim.now >= deadline:
                    raise UnrecoverableFaultError(
                        f"initial join node(s) {sorted(pending)} never "
                        "acknowledged activation — without the membership "
                        "layer initial nodes cannot be replaced (the "
                        "routing table is fixed before activation); fault "
                        "plans may only crash not-yet-recruited pool nodes "
                        "(docs/FAULTS.md)"
                    )
            else:
                try:
                    self._dispatch_common(msg)
                except _NodeDied as e:
                    # An initial node died before confirming activation:
                    # recover it like any working-node death — its range
                    # moves to a fresh recruit and the sources replay.
                    yield from self._handle_node_death(e.node)
                    pending.discard(e.node)
                    if deadline is not None:
                        deadline = self.ctx.sim.now + timeout

    # ------------------------------------------------------------------
    # build phase
    # ------------------------------------------------------------------
    def _build_phase(self) -> Generator[Any, Any, None]:
        self._phase = "build"
        self._drained = False
        self._prev_round = None
        while not self._drained:
            try:
                # Relief first: expansion requests outrank polling.
                while self.full_queue:
                    reporter = self.full_queue.popleft()
                    yield from self._relief_cycle(reporter)
                msg = yield from self._phase_recv()
                yield from self._dispatch_phase(msg)
            except _NodeDied as e:
                yield from self._handle_node_death(e.node)

    def _handle_node_death(self, dead: int) -> Generator[Any, Any, None]:
        """Recover from a confirmed death, then repair collateral damage:
        a reporter whose relief cycle the unwind abandoned is re-queued
        (it still sits on a parked backlog nobody will ping it about)."""
        victim = self._abandoned_reporter
        self._abandoned_reporter = None
        parties = self._pending_parties
        yield from self._recovery_cycle(dead, parties=parties)
        if (victim is not None and victim != dead
                and victim in self.activated
                and victim not in self.fenced
                and victim not in self.full_queue):
            self.full_queue.append(victim)

    def _relief_cycle(self, reporter: int) -> Generator[Any, Any, None]:
        assert not self.relief_active, "relief cycles are serialized"
        self.relief_active = True
        self._abandoned_reporter = reporter
        self._prev_round = None
        t0 = self.ctx.sim.now
        self.ctx.metrics.inc("sched.relief_cycles", 1, phase="build")
        self._active_deficit = self._full_deficit.pop(reporter, 0)
        try:
            # Re-check first: an earlier split in this queue may already
            # have relieved the reporter (round-robin pointer policies
            # split buckets other than the overflowing one).
            yield from self.send_to_join(
                reporter, ReliefPing(),
                parent=self._full_edges.pop(reporter, None),
            )
            ack = yield from self.await_relief_ack(reporter)
            if not ack.still_full:
                self._abandoned_reporter = None
                return
            ack = yield from self.strategy.expand(reporter)
            self._abandoned_reporter = None
            if ack.still_full:
                self.full_queue.append(reporter)
        finally:
            self.relief_active = False
            self._active_deficit = 0
            self.ctx.metrics.set_gauge(
                "sched.relief_latency_s", self.ctx.sim.now - t0, phase="build"
            )

    def _dispatch_phase(self, msg: Any) -> Generator[Any, Any, None]:
        """Main-loop dispatch for build/probe phases."""
        if isinstance(msg, PollTick):
            if self._ready_to_poll():
                yield from self._start_poll_round()
        elif isinstance(msg, StatusReport):
            self._collect_report(msg)
        else:
            self._dispatch_common(msg)

    def _ready_to_poll(self) -> bool:
        relation = "R" if self._phase == "build" else "S"
        return (
            len(self._source_done[relation]) == self.ctx.n_sources
            and not self.full_queue
            and not self.relief_active
            and not self._round_nodes  # no round already in flight
        )

    def _start_poll_round(self) -> Generator[Any, Any, None]:
        self._poll_token += 1
        self._round_reports = {}
        self._round_nodes = tuple(self.activated)
        self.ctx.metrics.inc("sched.drain_rounds", 1, phase=self._phase)
        for j in self._round_nodes:
            yield from self.send_to_join(j, StatusRequest(self._poll_token))

    def _collect_report(self, report: StatusReport) -> None:
        if report.token != self._poll_token or report.node not in self._round_nodes:
            return  # stale round
        self._round_reports[report.node] = report
        if len(self._round_reports) < len(self._round_nodes):
            return
        # Round complete: evaluate stability.
        nodes = self._round_nodes
        self._round_nodes = ()
        if self.full_queue or self.relief_active or set(nodes) != set(self.activated):
            self._prev_round = None
            return
        snapshot = {
            j: (
                r.received_build, r.processed_build, r.emitted_build,
                r.received_probe, r.processed_probe, r.busy,
            )
            for j, r in self._round_reports.items()
        }
        if any(r.busy for r in self._round_reports.values()):
            self._prev_round = snapshot
            return
        if self._phase == "build":
            sent = self._source_sent("R") + sum(
                r.emitted_build for r in self._round_reports.values()
            )
            received = sum(r.received_build for r in self._round_reports.values())
            processed = sum(r.processed_build for r in self._round_reports.values())
        else:
            # emitted_probe covers output-sink forwarding (footnote 1)
            sent = self._source_sent("S") + sum(
                r.emitted_probe for r in self._round_reports.values()
            )
            received = sum(r.received_probe for r in self._round_reports.values())
            processed = sum(r.processed_probe for r in self._round_reports.values())
        balanced = sent == received == processed
        if balanced and self._prev_round == snapshot:
            self._drained = True
        self._prev_round = snapshot

    # ------------------------------------------------------------------
    # reshuffle phase (hybrid)
    # ------------------------------------------------------------------
    def _reshuffle_phase(self) -> Generator[Any, Any, None]:
        router = self.router
        assert isinstance(router, RangeRouter)
        groups = router.replicated_groups()
        # A group whose active replica spilled to disk cannot be reshuffled:
        # the disk-resident tuples cannot move, so the range must stay
        # replicated (probe broadcast reaches memory parts and the spill).
        members = [
            (rng, chain) for rng, chain in groups
            if not (set(chain) & self.spilled_nodes)
        ]
        frozen = [
            (rng, chain) for rng, chain in groups
            if set(chain) & self.spilled_nodes
        ]
        if not members:
            return
        ctx = self.ctx

        # 1. Gather per-position counts from every replica-chain member.
        expected = sum(len(chain) for _, chain in members)
        for rng, chain in members:
            for j in chain:
                yield from self.send_to_join(j, CountRequest(rng.lo, rng.hi))
        vectors: dict[int, np.ndarray] = {}
        while len(vectors) < expected:
            msg = yield from self.await_message(lambda m: isinstance(m, CountVector))
            vectors[msg.node] = msg.counts

        # 2. Greedy contiguous cut per group; dispatch redistribution orders.
        new_entries: list[tuple] = [
            (rng, chain) for rng, chain in router.entries if len(chain) == 1
        ]
        new_entries.extend(frozen)
        n_orders = 0
        for rng, chain in members:
            total = np.zeros(rng.width, dtype=np.int64)
            for j in chain:
                total += vectors[j]
            cuts = partition_range_by_counts(rng, total, len(chain))
            assignments = tuple(zip(chain, cuts))
            order = ReshuffleOrder(assignments=assignments)
            for j in chain:
                yield from self.send_to_join(j, order)
                n_orders += 1
            for j, cut in assignments:
                if cut is not None:
                    new_entries.append((cut, (j,)))
            ctx.trace("reshuffle_cut", "scheduler", range=str(rng),
                      parts=[str(c) for c in cuts])

        # 3. Await completion acknowledgements.
        done = 0
        while done < n_orders:
            msg = yield from self.await_message(
                lambda m: isinstance(m, ReshuffleDone)
            )
            self.outcome.reshuffle_moved_tuples += msg.moved_tuples
            done += 1

        # 4. Drain the redistribution traffic, then install the new table.
        self._phase = "build"
        self._drained = False
        self._prev_round = None
        while not self._drained:
            msg = yield from self._phase_recv()
            yield from self._dispatch_phase(msg)

        new_entries.sort(key=lambda e: e[0].lo)
        self.router = RangeRouter(
            positions=router.positions,
            entries=tuple(new_entries),
            version=self.next_version(),
        )

    # ------------------------------------------------------------------
    # probe phase
    # ------------------------------------------------------------------
    def _probe_phase(self) -> Generator[Any, Any, None]:
        # Phase entry is WAL'd *before* the StartProbe fan-out; on a
        # failover inside that window the standby re-sends both
        # broadcasts, which receivers absorb idempotently.
        self._phase = "probe"
        yield from self.sync_backup()
        probe_router = self.strategy.probe_router()
        # Join nodes first: an S chunk must never outrun the phase switch.
        for j in self.activated:
            yield from self.send_to_join(j, StartProbe(router=None))
        yield from self.broadcast_to_sources(StartProbe(router=probe_router))
        self._drained = False
        self._prev_round = None
        while not self._drained:
            try:
                # Probe-phase expansion (footnote 1): a node whose
                # materialized output overflowed asks for an output sink.
                while self.full_queue:
                    reporter = self.full_queue.popleft()
                    yield from self._probe_relief_cycle(reporter)
                msg = yield from self._phase_recv()
                yield from self._dispatch_phase(msg)
            except _NodeDied as e:
                yield from self._handle_node_death(e.node)

    def _probe_relief_cycle(self, reporter: int) -> Generator[Any, Any, None]:
        assert not self.relief_active, "relief cycles are serialized"
        self.relief_active = True
        self._abandoned_reporter = reporter
        self._prev_round = None
        t0 = self.ctx.sim.now
        self.ctx.metrics.inc("sched.relief_cycles", 1, phase="probe")
        self._active_deficit = self._full_deficit.pop(reporter, 0)
        try:
            new_node = yield from self.recruit_node(
                lambda j: ActivateJoin(j, phase="probe", output_sink=True),
                phase="probe",
                parent=self._full_edges.pop(reporter, None),
            )
            if new_node is None:
                self.spilled_nodes.add(reporter)
                self.ctx.trace("output_spill_order", "scheduler",
                               reporter=reporter)
                yield from self.send_to_join(reporter, SpillOrder())
            else:
                yield from self.send_to_join(
                    reporter, OutputRedirect(new_node=new_node)
                )
                self.ctx.trace("expand_output_sink", "scheduler",
                               reporter=reporter, new_node=new_node)
            yield from self.await_relief_ack(reporter)
            self._abandoned_reporter = None
        finally:
            self.relief_active = False
            self._active_deficit = 0
            self.ctx.metrics.set_gauge(
                "sched.relief_latency_s", self.ctx.sim.now - t0, phase="probe"
            )

    # ------------------------------------------------------------------
    # working-node crash recovery (repro.core.membership)
    # ------------------------------------------------------------------
    def _recovery_cycle(
        self, dead: int, target: int | None = None,
        parties: tuple[int, ...] = (), redrive: bool = False,
    ) -> Generator[Any, Any, None]:
        """Recover from a confirmed working-node death.

        Replica chains hold disjoint temporal segments, so survivors of
        the dead node's chain cannot serve the range alone: they are
        *purged* (quarantined, segment dropped, matches zeroed) and the
        whole range collapses onto one fresh ``target``, which the data
        sources re-stream from their replay cursors.  The dead node
        itself is also told to purge — "fencing the living": if the
        verdict was false, the live node self-quarantines instead of
        double-counting matches; if it was true, the tombstone ignores it.

        The decision is WAL'd (``("recover", dead, target)``) with the
        recruited target pinned, and every step is idempotent keyed on
        ``recovery_id == dead``, so a standby can re-drive the cycle
        mid-flight after a primary failover.
        """
        ctx = self.ctx
        if dead in self.fenced and not redrive:
            return
        if self._phase not in ("build", "probe"):
            raise UnrecoverableFaultError(
                f"join node {dead} declared dead during the {self._phase} "
                "phase — working-node recovery is supported only in the "
                "build and probe phases (docs/FAULTS.md)"
            )
        self._recovering = True
        self._pending = ()
        self._pending_parties = ()
        t0 = ctx.sim.now
        ctx.metrics.inc("sched.recovery_cycles", 1, phase=self._phase)
        ctx.trace("recovery_begin", "scheduler", dead=dead,
                  phase=self._phase, redrive=redrive)
        try:
            # 1. Fence locally.  Abandon any in-flight poll round: it may
            # include the dead node, whose report will never arrive.
            self._round_nodes = ()
            self._round_reports = {}
            self._prev_round = None
            self.fenced.add(dead)
            if dead in self.activated:
                self.activated.remove(dead)
            if dead in self.working:
                self.working.remove(dead)
            if dead in self.full_nodes:
                self.full_nodes.remove(dead)
            if dead not in self.dead_nodes:
                self.dead_nodes.append(dead)
            while dead in self.full_queue:
                self.full_queue.remove(dead)
            self._full_edges.pop(dead, None)
            self._full_deficit.pop(dead, None)
            self.spilled_nodes.discard(dead)

            # Purge set: live chain co-members of the dead node's entries,
            # plus live participants of an interrupted relief decision
            # (their half of the data motion is unaccounted for).
            purge: set[int] = set()
            if isinstance(self.router, RangeRouter):
                for _rng, chain in self.router.entries:
                    if dead in chain:
                        purge.update(chain)
            purge.discard(dead)
            purge.update(p for p in parties if p != dead)
            purge &= set(self.activated)
            self.spilled_nodes -= purge
            for p in sorted(purge):
                # a purged node sheds its backlog wholesale — cancel relief
                while p in self.full_queue:
                    self.full_queue.remove(p)
                self._full_deficit.pop(p, None)
                self._full_edges.pop(p, None)

            lost = {dead} | purge
            owners = self.router.owners()
            if not (lost & owners):
                raise UnrecoverableFaultError(
                    f"join node {dead} died but owns no hash range (an "
                    "output sink, or a recruit outside the routing table) "
                    "— recovery for materialized-output state is out of "
                    "scope (docs/FAULTS.md)"
                )

            # 2. Recruit the replacement (pinned and re-used on re-drive).
            slot = self._takeover_slot(lost)
            if target is not None and target not in self.activated:
                target = None  # un-synced zombie of a dead primary
            if target is None:
                if isinstance(self.router, RangeRouter):
                    target = yield from self.recruit_node(
                        lambda j: ActivateJoin(j, hash_range=slot),
                        phase=self._phase,
                    )
                else:
                    target = yield from self.recruit_node(
                        lambda j: ActivateJoin(j, bucket=slot),
                        phase=self._phase,
                    )
                if target is None:
                    raise UnrecoverableFaultError(
                        f"pool exhausted while replacing dead join node "
                        f"{dead} — its hash range has no home"
                    )

            # 3. WAL the decision with the target pinned.
            yield from self.wal_decision(("recover", dead, target))

            # 4. Disseminate: every live node fences the dead peer's
            # global id (late in-flight chunks are retired, its counter
            # contributions subtracted at report time); chain co-members
            # purge.  The dead node itself gets an unawaited purge order
            # (fencing the living, see docstring).
            live = list(self.activated)
            for j in live:
                yield from self.send_to_join(
                    j, NodeLost(dead=dead, purge=(j in purge))
                )
            yield from self.send_to_join(dead, NodeLost(dead=dead, purge=True))
            acked: set[int] = set()
            while not set(live) <= acked:
                msg = yield from self.await_message(
                    lambda m: isinstance(m, NodeLostAck)
                )
                acked.add(msg.node)

            # 5. Collapse the routing entries onto the target.
            self.router = self.router.with_takeover(
                lost, target, self.next_version()
            )
            self.strategy.adopt_router(self.router, self.activated)

            # 6-7. Flip the sources and re-stream the lost range.  The
            # ReplayOrder carries the takeover table: the source installs
            # it and replays in one atomic step, so no live chunk can
            # slip to the target between the two (double delivery).
            if self._phase == "build":
                yield from self.broadcast_to_sources(
                    ReplayOrder(relation="R", target=target,
                                recovery_id=dead, router=self.router)
                )
            else:
                yield from self._probe_recovery(dead, target)

            # 8. Done: clear the WAL and force fresh drain rounds.
            yield from self.clear_decision()
            self._prev_round = None
            ctx.trace("recovery_done", "scheduler", dead=dead,
                      target=target, purged=sorted(purge))
            ctx.metrics.set_gauge(
                "sched.recovery_latency_s", ctx.sim.now - t0,
                phase=self._phase,
            )
        finally:
            self._recovering = False

    def _takeover_slot(self, lost: set[int]) -> Any:
        """The hash range (or bucket) the recovery target will own —
        computed *before* the router flips, mirroring what
        ``with_takeover`` will collapse the lost entries into."""
        if isinstance(self.router, RangeRouter):
            affected = [
                rng for rng, chain in self.router.entries
                if set(chain) & lost
            ]
            for prev, nxt in zip(affected, affected[1:]):
                if prev.hi != nxt.lo:
                    raise UnrecoverableFaultError(
                        f"lost nodes {sorted(lost)} own non-contiguous "
                        "ranges — a single takeover target cannot adopt "
                        "them (docs/FAULTS.md)"
                    )
            from ..hashing import HashRange

            return HashRange(affected[0].lo, affected[-1].hi)
        assert isinstance(self.router, LinearHashRouter)
        buckets = [
            b for b, n in enumerate(self.router.bucket_nodes) if n in lost
        ]
        return buckets[0]

    def _degrade_full_target(
        self, target: int
    ) -> Generator[Any, Any, None]:
        """Relieve a recovery target that outgrew its memory mid-replay.

        The re-streamed range can exceed one node's budget (the dead
        node had spilled, or it headed a replica chain whose purged
        co-members each stored a disjoint segment).  There is no pool
        headroom to split into during a recovery, so the target is
        degraded to disk spilling — same answer, out-of-core speed."""
        if target not in self.full_queue:
            return
        while target in self.full_queue:
            self.full_queue.remove(target)
        self._full_deficit.pop(target, None)
        self._full_edges.pop(target, None)
        yield from self.send_to_join(target, SpillOrder())
        yield from self.await_relief_ack(target)
        self.spilled_nodes.add(target)

    def _probe_recovery(
        self, dead: int, target: int
    ) -> Generator[Any, Any, None]:
        """Probe-phase re-streaming, sequenced so the target never probes
        before it holds the rebuilt range.

        The build stream is replayed to the target under the takeover
        router while live S traffic still flows under the *old* table
        (the dead node's copies are absorbed by its tombstone; purged
        survivors retire theirs without probing).  Only once the target
        confirms it processed every replayed chunk is it flipped to
        probing and the sources' table updated; the S replay that follows
        the RouteUpdate on each source link (per-pair FIFO) then covers
        every probe tuple of the range, exactly once."""
        ctx = self.ctx
        yield from self.broadcast_to_sources(
            ReplayOrder(relation="R", target=target, recovery_id=dead,
                        router=self.router)
        )
        done: set[int] = set()
        expected_chunks = 0
        while len(done) < ctx.n_sources:
            # Fullness must be serviced *while* awaiting the replay
            # receipts: a full target parks chunks holding its receive
            # credits, which blocks the replaying sources — waiting for
            # their ReplayDone first would deadlock the recovery.
            yield from self._degrade_full_target(target)
            msg = yield from self.node.mailbox.recv()
            if (isinstance(msg, ReplayDone) and msg.relation == "R"
                    and msg.recovery_id == dead and msg.source not in done):
                done.add(msg.source)
                expected_chunks += sum(msg.chunks_sent.values())
                self._note_replay_done(msg)
            else:
                self._dispatch_common(msg)
        while True:
            yield from self._degrade_full_target(target)
            self._poll_token += 1
            tok = self._poll_token
            yield from self.send_to_join(target, StatusRequest(tok))
            rep = yield from self.await_message(
                lambda m: (isinstance(m, StatusReport) and m.token == tok
                           and m.node == target)
            )
            if (rep.processed_build >= expected_chunks and not rep.busy
                    and target not in self.full_queue):
                break
            with self._ticks_due_at(ctx.sim.now):  # the next tick
                yield from self.await_message(
                    lambda m: isinstance(m, PollTick)
                )
        yield from self.send_to_join(target, StartProbe(router=None))
        yield from self.broadcast_to_sources(
            ReplayOrder(relation="S", target=target, recovery_id=dead,
                        router=self.router)
        )

    # ------------------------------------------------------------------
    # standby takeover (repro.core.membership drives this)
    # ------------------------------------------------------------------
    def adopt_snapshot(self, sync: StateSync | None) -> str:
        """Install a replicated snapshot; returns the phase to resume.

        Pools are inferred rather than synced: full nodes are the
        non-tail members of replica chains, working nodes the rest, and
        the potential pool is everything never activated nor fenced."""
        if sync is None:
            return "fresh"
        if sync.router is not None:
            self.router = sync.router
        self._version = max(self._version, sync.version)
        self.activated = list(sync.activated)
        self.fenced = set(sync.fenced)
        self.dead_nodes = sorted(self.fenced)
        full: set[int] = set()
        if isinstance(self.router, RangeRouter):
            for _rng, chain in self.router.entries:
                full.update(chain[:-1])
        self.full_nodes = [j for j in self.activated if j in full]
        self.working = [j for j in self.activated if j not in full]
        if self.pool_client is None:
            used = set(self.activated) | self.fenced
            self.potential = [
                j for j in range(self.ctx.n_potential) if j not in used
            ]
        self._pending = tuple(sync.pending)
        self._phase = sync.phase
        self.strategy.adopt_router(self.router, self.activated)
        return sync.phase

    def resume_after_takeover(
        self, sync: StateSync | None
    ) -> Generator[Any, Any, SchedulerOutcome | None]:
        """Standby entry point: adopt the snapshot and finish the query."""
        try:
            phase = self.adopt_snapshot(sync)
            if phase == "fresh":
                # The primary died before its first sync: nothing has been
                # decided yet, so a from-scratch run is idempotent (initial
                # ActivateJoins are re-acked by already-active nodes).  The
                # re-announcements still matter: a node that filled up
                # reported MemoryFull to the dead primary.
                return (yield from self._run_fresh(failover=True))
            self._start_background()
            if phase not in ("build", "probe"):
                raise UnrecoverableFaultError(
                    f"scheduler failover during the {phase} phase is not "
                    "supported (docs/FAULTS.md)"
                )
            yield from self._announce_failover()
            yield from self._redrive_pending()
            return (yield from self._run_from(phase))
        except _Deposed:
            self._halt_background()
            return None
        except _NodeDied as e:
            raise UnrecoverableFaultError(
                f"join node {e.node} declared dead during the "
                f"{self._phase} phase — working-node recovery is supported "
                "only in the build and probe phases (docs/FAULTS.md)"
            ) from e

    def _announce_failover(self) -> Generator[Any, Any, None]:
        """Make everyone re-announce what the primary took to its grave:
        sources re-send SourceDone and completed ReplayDones, full joins
        re-send MemoryFull for their parked backlogs."""
        for s in range(self.ctx.n_sources):
            yield from self.ctx.send(
                self.node, self.ctx.source_node(s),
                SchedulerFailover(new_scheduler=self.node.node_id),
            )
        for j in self.activated:
            yield from self.send_to_join(
                j, SchedulerFailover(new_scheduler=self.node.node_id)
            )

    def _redrive_pending(self) -> Generator[Any, Any, None]:
        """Idempotently re-drive the decision the primary WAL'd but may
        not have finished."""
        pending = self._pending
        if not pending:
            return
        self.ctx.trace("redrive", "scheduler", pending=list(pending))
        if pending[0] == "recover":
            dead, target = int(pending[1]), int(pending[2])
            yield from self._recovery_cycle(dead, target=target, redrive=True)
            return
        ack = yield from self.strategy.redrive(pending)
        yield from self.clear_decision()
        if (ack is not None and ack.still_full
                and ack.node in self.activated
                and ack.node not in self.full_queue):
            self.full_queue.append(ack.node)

    # ------------------------------------------------------------------
    # OOC passes & shutdown
    # ------------------------------------------------------------------
    def _ooc_pass_phase(self) -> Generator[Any, Any, None]:
        for j in self.activated:
            yield from self.send_to_join(j, FinalizePass())
        done = 0
        while done < len(self.activated):
            yield from self.await_message(lambda m: isinstance(m, PassDone))
            done += 1

    def _shutdown(self) -> Generator[Any, Any, None]:
        self._halt_background()
        for s in range(self.ctx.n_sources):
            yield from self.ctx.send(
                self.node, self.ctx.source_node(s), Shutdown()
            )
        # Stand the standby down, or its dead-man timer outlives the query.
        backup = self.ctx.backup_node
        if backup is not None and backup is not self.node:
            yield from self.ctx.send(self.node, backup, Shutdown())
        # Private mode shuts down the whole pool (dormant nodes just exit);
        # workload mode only owns its granted nodes — shutting down the
        # shared pool's dormant nodes would kill other queries' capacity.
        if self.pool_client is None:
            targets = list(range(self.ctx.n_potential))
        else:
            targets = sorted(set(self.activated) | set(self.dead_nodes))
        for j in targets:
            yield from self.send_to_join(j, Shutdown())
        # Wait until every *known-activated* node reported.  Set inclusion,
        # not a count: a zombie recruit (timed out but actually alive) also
        # sends a FinalReport, which must not terminate this loop early.
        while not set(self.activated) <= set(self.outcome.final_reports):
            msg = yield from self.await_message(
                lambda m: isinstance(m, FinalReport)
            )
            self.outcome.final_reports[msg.node] = msg
        if self.pool_client is not None:
            # Release only nodes known alive and owned: zombies (granted
            # but never acked) and timed-out recruits stay leaked — the
            # pool shrinks, exactly as real hardware would.
            released = tuple(sorted(self.activated))
            yield from self.ctx.send(
                self.node, self.pool_client.node,
                QueryDone(query=self.pool_client.query_id, released=released),
            )

