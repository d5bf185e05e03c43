"""The shared resource-pool actor (``repro.workload`` multi-tenancy).

One :class:`ResourcePoolProcess` owns every dormant join node of the
cluster and arbitrates them between concurrent queries — the paper's
"additional resources become available" made literal: a node is available
to a query exactly when no other query holds it.

Two request flavours arrive as :class:`~repro.core.messages.RecruitRequest`:

* **admission** (``admission=True``): a freshly arrived query asks for its
  ``initial_nodes``.  Admissions park in strict FIFO with head-of-line
  blocking and are never denied — the wait *is* the workload's queueing
  delay.  Head-of-line nodes are reserved: a recruit is only granted from
  nodes in excess of the oldest parked admission's need, so admissions can
  neither starve nor idle the pool.
* **recruit** (``admission=False``): a running query's scheduler asks for
  one expansion node mid-relief.  Recruits park under the configured
  :class:`~repro.config.PoolPolicy` and carry a deadline
  (``grant_timeout_s``); an expired or policy-capped request gets a
  :class:`~repro.core.messages.RecruitDeny`, and the scheduler degrades
  the reporter to the out-of-core spill path — denial is backpressure,
  never an error.

The finite recruit deadline is what makes the whole workload deadlock-free:
a denied query finishes via spilling, its :class:`QueryDone` releases its
nodes, and parked admissions proceed.

Determinism: requests are ordered by an arrival sequence number, grants
pick the free node with the most memory (lowest index tie-break — the same
rule as ``SchedulerProcess._pick_candidate``), and deadlines are checked on
:class:`~repro.core.messages.PollTick` ticks from the pool's own
:class:`~repro.sim.PollTicks` grid, so no state depends on anything but
simulation event order.  The grid delivers a tick to an idle pool only
when a parked recruit is past its deadline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable, Generator
from typing import Any

from ..config import PoolPolicy
from ..cluster import Node
from ..sim import PollTicks
from .messages import (
    PollTick,
    QueryDone,
    RecruitDeny,
    RecruitGrant,
    RecruitRequest,
    Shutdown,
)

__all__ = ["PoolClient", "PoolStats", "ResourcePoolProcess"]


@dataclass
class PoolClient:
    """Per-query handle to the shared pool, carried on the query's
    :class:`~repro.core.context.RunContext` (``ctx.pool``).

    ``adopt`` is the workload driver's callback that resets a granted node
    and spawns this query's :class:`~repro.core.joinnode.JoinProcess` on
    it — join processes are lazy in workload mode, created only on grant.
    """

    node: Node
    query_id: int
    adopt: Callable[[int], None]


@dataclass
class PoolStats:
    """End-of-run pool accounting (also published as ``pool.*`` metrics)."""

    requests: int = 0
    admissions: int = 0
    grants: int = 0
    denials: int = 0
    denials_by_query: dict[int, int] = field(default_factory=dict)
    denials_by_reason: dict[str, int] = field(default_factory=dict)
    crashed_nodes: list[int] = field(default_factory=list)
    leaked_nodes: list[int] = field(default_factory=list)
    peak_in_use: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "admissions": self.admissions,
            "grants": self.grants,
            "denials": self.denials,
            "denials_by_query": dict(self.denials_by_query),
            "denials_by_reason": dict(self.denials_by_reason),
            "crashed_nodes": list(self.crashed_nodes),
            "leaked_nodes": list(self.leaked_nodes),
            "peak_in_use": self.peak_in_use,
        }


@dataclass
class _Parked:
    """One pending request with its arrival order and deadline."""

    seq: int
    req: RecruitRequest
    enqueued_at: float
    deadline: float | None  # None: admissions never expire


class ResourcePoolProcess:
    """Drive with ``sim.spawn(pool.run())``; stats in ``pool.stats``."""

    def __init__(
        self,
        sim: Any,
        network: Any,
        node: Node,
        free_nodes: list[int],
        sched_nodes: dict[int, Node],
        *,
        policy: PoolPolicy,
        fair_share_cap: int,
        grant_timeout_s: float,
        poll_interval: float,
        memory_of: Callable[[int], int] = lambda j: 0,
        metrics: Any = None,
        trace: Callable[..., None] | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node = node
        self.free: list[int] = list(free_nodes)
        self.sched_nodes = dict(sched_nodes)
        self.policy = policy
        self.fair_share_cap = fair_share_cap
        self.grant_timeout_s = grant_timeout_s
        self.poll_interval = poll_interval
        self.memory_of = memory_of
        self.metrics = metrics
        self._trace = trace
        self.total_nodes = len(self.free)

        self.stats = PoolStats()
        #: query -> pool nodes it currently holds (grant order)
        self.held: dict[int, list[int]] = {}
        #: query -> how many of its held nodes were its admission grant
        self._admitted_count: dict[int, int] = {}
        self.crashed: list[int] = []
        self._admission_q: deque[_Parked] = deque()
        self._recruit_q: list[_Parked] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def trace(self, event: str, **fields: Any) -> None:
        if self._trace is not None:
            self._trace(event, "pool", **fields)

    def _sample_levels(self) -> None:
        if self.metrics is None:
            return
        in_use = self._in_use
        self.metrics.set_gauge("pool.free_nodes", len(self.free))
        self.metrics.observe("pool.nodes_in_use", in_use)
        if in_use > self.stats.peak_in_use:
            self.stats.peak_in_use = in_use

    @property
    def _in_use(self) -> int:
        return sum(len(nodes) for nodes in self.held.values())

    def _take_best(self) -> int:
        """Free node with the most memory, lowest index tie-break — the
        same selection rule as the private-pool ``_pick_candidate``."""
        best = max(self.free, key=lambda j: (self.memory_of(j), -j))
        self.free.remove(best)
        return best

    def _extra_held(self, query: int) -> int:
        """Nodes ``query`` holds beyond its admission grant."""
        return len(self.held.get(query, [])) - self._admitted_count.get(query, 0)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> Generator[Any, Any, PoolStats]:
        # Ticks run on the pool node, so they never cross the network.
        ticks = PollTicks(self.sim, self.node.mailbox, self.poll_interval,
                          self._tick_due, PollTick())
        self._sample_levels()
        while True:
            msg = yield from self.node.mailbox.recv()
            if isinstance(msg, RecruitRequest):
                yield from self._on_request(msg)
            elif isinstance(msg, QueryDone):
                yield from self._on_query_done(msg)
            elif isinstance(msg, PollTick):
                yield from self._expire_recruits()
                yield from self._serve()
            elif isinstance(msg, Shutdown):
                break
            else:
                raise RuntimeError(f"pool: unexpected message {msg!r}")
        ticks.stop()
        # Held-but-never-released nodes (zombie recruits) are leaked.
        for query in sorted(self.held):
            for j in self.held[query]:
                self.stats.leaked_nodes.append(j)
        self._sample_levels()
        return self.stats

    def _tick_due(self, t: float) -> bool | None:
        """An idle pool acts on a tick only to deny an expired recruit
        (see PollTicks); admissions never expire."""
        if not self._recruit_q:
            return None
        return any(
            p.deadline is not None and t >= p.deadline
            for p in self._recruit_q
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _on_request(self, req: RecruitRequest) -> Generator[Any, Any, None]:
        self.stats.requests += 1
        now = self.sim.now
        parked = _Parked(self._seq, req, now, None)
        self._seq += 1
        if self.metrics is not None:
            self.metrics.inc("pool.recruit_requests", 1,
                             admission=str(req.admission).lower())
        if req.admission:
            self._admission_q.append(parked)
            self.trace("pool_admission_request", query=req.query,
                       want=req.want)
        else:
            if (
                self.policy is PoolPolicy.FAIR_SHARE
                and self._extra_held(req.query) >= self.fair_share_cap
            ):
                yield from self._deny(parked, "fair_share_cap")
                return
            parked.deadline = now + self.grant_timeout_s
            self._recruit_q.append(parked)
            self.trace("pool_recruit_request", query=req.query,
                       phase=req.phase, deficit=req.deficit_bytes)
        yield from self._serve()

    def _on_query_done(self, msg: QueryDone) -> Generator[Any, Any, None]:
        released = [j for j in msg.released if j not in self.crashed]
        for j in released:
            held = self.held.get(msg.query, [])
            if j in held:
                held.remove(j)
                self.free.append(j)
        self.held.pop(msg.query, None)
        self._admitted_count.pop(msg.query, None)
        self.trace("pool_release", query=msg.query, released=len(released),
                   free=len(self.free))
        if self.metrics is not None:
            self.metrics.inc("pool.releases", len(released))
        self._sample_levels()
        yield from self._serve()

    # ------------------------------------------------------------------
    # arbitration
    # ------------------------------------------------------------------
    def _serve(self) -> Generator[Any, Any, None]:
        # Admissions first: strict FIFO with head-of-line blocking.
        while self._admission_q and len(self.free) >= self._admission_q[0].req.want:
            parked = self._admission_q.popleft()
            nodes = [self._take_best() for _ in range(parked.req.want)]
            self.stats.admissions += 1
            self._admitted_count[parked.req.query] = len(nodes)
            if self.metrics is not None:
                self.metrics.set_gauge(
                    "pool.admission_wait_s", self.sim.now - parked.enqueued_at
                )
            yield from self._grant(parked, nodes)
        # Recruits only from nodes beyond the oldest admission's need.
        reserve = self._admission_q[0].req.want if self._admission_q else 0
        while self._recruit_q and len(self.free) > reserve:
            parked = self._pick_recruit()
            if parked is None:
                break
            self._recruit_q.remove(parked)
            yield from self._grant(parked, [self._take_best()])

    def _pick_recruit(self) -> _Parked | None:
        """Next parked recruit under the configured policy, or None when
        no parked request is currently eligible."""
        if self.policy is PoolPolicy.MEMORY_DEFICIT:
            candidates = sorted(
                self._recruit_q, key=lambda p: (p.req.deficit_bytes, p.seq)
            )
        else:
            candidates = sorted(self._recruit_q, key=lambda p: p.seq)
        for parked in candidates:
            if (
                self.policy is PoolPolicy.FAIR_SHARE
                and self._extra_held(parked.req.query) >= self.fair_share_cap
            ):
                continue  # holdings grew while parked; deadline handles it
            return parked
        return None

    def _grant(self, parked: _Parked, nodes: list[int]) -> Generator[Any, Any, None]:
        query = parked.req.query
        self.held.setdefault(query, []).extend(nodes)
        self.stats.grants += len(nodes)
        if self.metrics is not None:
            self.metrics.inc("pool.recruit_grants", len(nodes))
        self._sample_levels()
        self.trace("pool_grant", query=query, nodes=list(nodes),
                   waited=self.sim.now - parked.enqueued_at)
        yield from self.network.send(
            self.node, self.sched_nodes[query],
            RecruitGrant(query=query, nodes=tuple(nodes)),
        )

    def _deny(self, parked: _Parked, reason: str) -> Generator[Any, Any, None]:
        query = parked.req.query
        self.stats.denials += 1
        self.stats.denials_by_query[query] = (
            self.stats.denials_by_query.get(query, 0) + 1
        )
        self.stats.denials_by_reason[reason] = (
            self.stats.denials_by_reason.get(reason, 0) + 1
        )
        if self.metrics is not None:
            self.metrics.inc("pool.recruit_denials", 1, reason=reason)
        self.trace("pool_deny", query=query, reason=reason)
        yield from self.network.send(
            self.node, self.sched_nodes[query],
            RecruitDeny(query=query, reason=reason),
        )

    def _expire_recruits(self) -> Generator[Any, Any, None]:
        now = self.sim.now
        expired = [
            p for p in self._recruit_q
            if p.deadline is not None and now >= p.deadline
        ]
        for parked in expired:
            self._recruit_q.remove(parked)
            yield from self._deny(parked, "timeout")

    # ------------------------------------------------------------------
    # faults (workload chaos: crash a node still sitting in the pool)
    # ------------------------------------------------------------------
    def crash_node(self, j: int) -> None:
        """Fail-stop a *pool-resident* (dormant, unheld) node.

        Called by the workload driver's crash timers.  A node currently
        held by a query is out of the supported crash model (it may hold
        join state) — the crash is recorded as a no-op, mirroring
        ``FaultInjector._fire_crash`` on an already-dead target.
        """
        if j in self.free:
            self.free.remove(j)
            self.crashed.append(j)
            self.stats.crashed_nodes.append(j)
            if self.metrics is not None:
                self.metrics.inc("pool.node_crashes", 1)
            self.trace("pool_node_crash", node=j)
            self._sample_levels()
        else:
            self.trace("pool_crash_noop", node=j)
