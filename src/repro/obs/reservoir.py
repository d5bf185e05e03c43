"""Deterministic, mergeable bottom-k sampling.

:class:`ReservoirSample` keeps a bounded, insert-order-invariant sample of
weighted records.  ``SpanLog`` uses one when it is given a capacity, and
snapshots carry one for their sampled spans.

Like the rest of ``repro.obs`` this module imports nothing from the rest
of ``repro`` and nothing beyond the stdlib.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from typing import Any

__all__ = ["ReservoirSample"]


def _priority(ident: str) -> int:
    """Deterministic sampling priority: a keyed content hash.

    Never Python's builtin ``hash()`` — that is salted per interpreter
    run and would make sampling (and snapshot bytes) irreproducible.
    """
    digest = hashlib.blake2b(ident.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ReservoirSample:
    """Bottom-k-by-hash sample plus an always-keep heavy-outlier set.

    The retained set is *canonical*: after every insert it equals
    ``bottom(sample)`` of the offered idents by ``(priority, ident)``
    union ``top(outliers)`` by ``(-weight, priority, ident)``.  Because
    that is a pure function of the offered set, insertion order never
    matters and ``a.merge(b)`` retains exactly what a single reservoir
    offered ``a ∪ b`` would — the property that makes shard samples
    combinable.  ``dropped`` counts offered-but-shed records.
    """

    __slots__ = ("sample", "outliers", "total", "_items")

    def __init__(self, sample: int, outliers: int = 0) -> None:
        if sample < 1:
            raise ValueError(f"reservoir sample must be >= 1, got {sample}")
        if outliers < 0:
            raise ValueError(f"outlier count must be >= 0, got {outliers}")
        self.sample = int(sample)
        self.outliers = int(outliers)
        self.total = 0
        #: ident -> (priority, weight, payload)
        self._items: dict[str, tuple[int, float, Any]] = {}

    def add(self, ident: str, weight: float, payload: Any) -> None:
        self.total += 1
        if ident not in self._items:
            self._items[ident] = (_priority(ident), float(weight), payload)
            self._trim()

    def extend(self, records: Iterable[tuple[str, float, Any]]) -> None:
        """Offer ``(ident, weight, payload)`` records, trimming once at the
        end: the retained set depends only on the set offered."""
        for ident, weight, payload in records:
            self.total += 1
            if ident not in self._items:
                self._items[ident] = (_priority(ident), float(weight), payload)
        self._trim()

    def _trim(self) -> None:
        if len(self._items) <= self.sample:
            return
        by_priority = sorted(self._items.items(),
                             key=lambda kv: (kv[1][0], kv[0]))
        keep = {k for k, _ in by_priority[: self.sample]}
        if self.outliers:
            by_weight = sorted(self._items.items(),
                               key=lambda kv: (-kv[1][1], kv[1][0], kv[0]))
            keep.update(k for k, _ in by_weight[: self.outliers])
        if len(keep) < len(self._items):
            self._items = {k: v for k, v in self._items.items() if k in keep}

    def merge(self, other: ReservoirSample) -> ReservoirSample:
        if (self.sample, self.outliers) != (other.sample, other.outliers):
            raise ValueError(
                "cannot merge reservoirs with different capacities: "
                f"({self.sample},{self.outliers}) vs "
                f"({other.sample},{other.outliers})"
            )
        out = ReservoirSample(self.sample, self.outliers)
        out.total = self.total + other.total
        out._items = dict(self._items)
        for k, v in other._items.items():
            out._items.setdefault(k, v)
        out._trim()
        return out

    @property
    def dropped(self) -> int:
        return self.total - len(self._items)

    def kept(self) -> list[tuple[str, float, Any]]:
        """Retained ``(ident, weight, payload)`` in priority order."""
        return [(k, v[1], v[2])
                for k, v in sorted(self._items.items(),
                                   key=lambda kv: (kv[1][0], kv[0]))]

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, ident: str) -> bool:
        return ident in self._items

    def to_dict(self) -> dict[str, Any]:
        return {
            "sample": self.sample,
            "outliers": self.outliers,
            "total": self.total,
            "items": [
                {"ident": ident, "weight": weight, "payload": payload}
                for ident, weight, payload in self.kept()
            ],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> ReservoirSample:
        out = cls(d["sample"], d["outliers"])
        for item in d["items"]:
            out._items[item["ident"]] = (
                _priority(item["ident"]),
                float(item["weight"]),
                item["payload"],
            )
        out.total = int(d["total"])
        out._trim()
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReservoirSample):
            return NotImplemented
        return self.to_dict() == other.to_dict()
