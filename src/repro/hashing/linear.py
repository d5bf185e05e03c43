"""Scheduler-side linear-hashing directory (split-based algorithm, §4.2.1).

Implements the Litwin/Larson scheme the paper adopts from Amin et al.:
buckets are addressed by the hash-function pair ``(h_i, h_{i+1})`` where
``h_i(p) = p mod (n0 * 2^i)``; a **split pointer** names the next bucket to
split; a **barrier split pointer** trails it and guarantees that a bucket
is never asked to split while a split is in flight and that at most two
hash functions are active simultaneously.

The directory is pure bookkeeping — the scheduler process drives it and the
owning join node performs the actual tuple movement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .routing import LinearHashRouter

__all__ = ["SplitTicket", "LinearHashDirectory"]


@dataclass(frozen=True)
class SplitTicket:
    """One in-flight split: bucket ``bucket`` (owned by ``owner_node``)
    splits into (bucket, new_bucket) at hash level ``level``; the new bucket
    lands on ``new_node``."""

    bucket: int
    new_bucket: int
    owner_node: int
    new_node: int
    level: int
    modulus: int  # n0 * 2**level at the time of the split


class LinearHashDirectory:
    """Bucket -> node map plus split-pointer state."""

    def __init__(self, n0: int, initial_nodes: list[int]) -> None:
        if n0 != len(initial_nodes):
            raise ValueError("need exactly one initial node per initial bucket")
        if n0 < 1:
            raise ValueError("n0 must be >= 1")
        self.n0 = n0
        self.level = 0
        self.split_pointer = 0
        #: trails split_pointer; equal when no split is in flight
        self.barrier_pointer = 0
        self.bucket_nodes: list[int] = list(initial_nodes)
        self._in_flight: SplitTicket | None = None
        self.completed_splits = 0

    # ------------------------------------------------------------------
    @property
    def modulus(self) -> int:
        """Current ``m = n0 * 2**level``."""
        return self.n0 << self.level

    @property
    def n_buckets(self) -> int:
        return len(self.bucket_nodes)

    @property
    def split_in_progress(self) -> bool:
        return self._in_flight is not None

    @property
    def next_new_bucket(self) -> int:
        """Bucket id the *next* ``begin_split`` will create.

        Buckets grow densely (``modulus + split_pointer``), so the id is
        known before a recruit is chosen — which lets the scheduler run
        acked recruitment (retrying different candidates) and commit the
        directory only once the recruit confirmed it is alive.
        """
        if self._in_flight is not None:
            raise RuntimeError("split already in progress (barrier pointer held)")
        return self.modulus + self.split_pointer

    # ------------------------------------------------------------------
    def begin_split(self, new_node: int) -> SplitTicket:
        """Start splitting the bucket at the split pointer onto ``new_node``.

        The barrier pointer stays put until :meth:`complete_split`, so a
        second ``begin_split`` before completion is a protocol error.
        """
        if self._in_flight is not None:
            raise RuntimeError("split already in progress (barrier pointer held)")
        m = self.modulus
        bucket = self.split_pointer
        ticket = SplitTicket(
            bucket=bucket,
            new_bucket=m + bucket,
            owner_node=self.bucket_nodes[bucket],
            new_node=new_node,
            level=self.level,
            modulus=m,
        )
        self._in_flight = ticket
        # Advance the split pointer immediately (next split targets the next
        # bucket); the barrier pointer advances only on completion.
        self.split_pointer += 1
        return ticket

    @classmethod
    def from_router(cls, router: LinearHashRouter) -> LinearHashDirectory:
        """Rebuild directory state from a routing snapshot.

        Used by the backup scheduler after a takeover: snapshots are only
        taken while no split is in flight, so ``barrier == split`` pointer
        and a pending split decision can be re-driven with ``begin_split``.
        """
        d = cls(router.n0, list(router.bucket_nodes[: router.n0]))
        d.level = router.level
        d.split_pointer = router.split_pointer
        d.barrier_pointer = router.split_pointer
        d.bucket_nodes = list(router.bucket_nodes)
        return d

    def complete_split(self, ticket: SplitTicket) -> None:
        """Record a finished split (the 'done' message from the bucket)."""
        if self._in_flight is not ticket:
            raise RuntimeError("completing a split that is not in flight")
        self._in_flight = None
        assert ticket.new_bucket == len(self.bucket_nodes), "buckets grow densely"
        self.bucket_nodes.append(ticket.new_node)
        self.barrier_pointer += 1
        self.completed_splits += 1
        if self.split_pointer == self.modulus:
            # A full level of splits completed: double the modulus.
            self.level += 1
            self.split_pointer = 0
            self.barrier_pointer = 0

    # ------------------------------------------------------------------
    def router(self, version: int) -> LinearHashRouter:
        """Routing snapshot reflecting completed splits only."""
        if self._in_flight is not None:
            raise RuntimeError("cannot snapshot while a split is in flight")
        return LinearHashRouter(
            n0=self.n0,
            level=self.level,
            split_pointer=self.split_pointer,
            bucket_nodes=tuple(self.bucket_nodes),
            version=version,
        )

    def check_invariants(self) -> None:
        """Structural invariants (exercised by property tests)."""
        m = self.modulus
        assert 0 <= self.split_pointer < m or (self.split_pointer == m and self.split_in_progress)
        expected = m + self.split_pointer - (1 if self.split_in_progress else 0)
        assert len(self.bucket_nodes) == expected, (
            f"bucket count {len(self.bucket_nodes)} != {expected}"
        )
        assert self.barrier_pointer <= self.split_pointer or self.split_pointer == 0
