"""Per-batch kernel step profiles (thread-local, near-zero cost when off).

The engines (compiled C step loop, dense engine, workload engine) each
run an event/step loop whose shape — how many steps it took, how many
node retirements it processed, how full the lanes were — is exactly the
information a latency trace needs at its leaves and the `/metrics`
endpoint needs to aggregate.  This module is the collection
substrate: an engine calls :func:`record_kernel_batch` once per batch run,
and the call is a no-op (one ``getattr`` on a ``threading.local``) unless
the caller wrapped the run in :func:`collect_kernel_stats` — the same
disarmed-cheapness contract the PR 6 fault points follow.

Semantics of the counters (uniform across engines):

``steps``
    Iterations of the engine's main loop.  For the compiled C kernel it is
    the total number of retire windows summed over lanes (the C loop
    advances one lane at a time); the dense engine records one single-lane
    batch per simulation, counted the same way; for the workload engine
    it is the number of event-loop iterations.
``events``
    Node retirements processed (every node retires exactly once, so for a
    complete run this equals the total node count of the batch).
``lane_steps``
    Sum over steps of the number of active lanes — ``lane_steps / steps``
    is the mean number of lanes each step advanced, and
    ``lane_steps / (steps * lanes)`` the mean lane occupancy in ``[0, 1]``
    (1.0 means every lane advanced on every step; the C kernel is
    per-lane, so its occupancy is ``1 / lanes`` by construction and honest
    about it).

Collectors are thread-local: the facade wraps each engine call of a batch
in one collector and hands the merged profile to the trace span and the
metrics registry.  Worker *processes* (``jobs=N``) do not propagate their
collectors back — the facade serves requests serially per batch, so the
service path is always covered.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional

__all__ = [
    "KernelBatchStats",
    "KernelStatsCollector",
    "collect_kernel_stats",
    "record_kernel_batch",
]

_STATE = threading.local()


@dataclass(frozen=True)
class KernelBatchStats:
    """Step profile of one kernel batch run."""

    engine: str  # "compiled" | "dense" | "workload.reference"
    lanes: int
    steps: int
    events: int
    lane_steps: int

    @property
    def mean_active_lanes(self) -> float:
        """Mean number of lanes advanced per step."""
        return self.lane_steps / self.steps if self.steps else 0.0

    @property
    def occupancy(self) -> float:
        """Mean fraction of lanes active per step, in ``[0, 1]``."""
        if not self.steps or not self.lanes:
            return 0.0
        return self.lane_steps / (self.steps * self.lanes)

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "lanes": self.lanes,
            "steps": self.steps,
            "events": self.events,
            "lane_steps": self.lane_steps,
            "occupancy": self.occupancy,
        }


class KernelStatsCollector:
    """Accumulates the :class:`KernelBatchStats` of one logical operation."""

    def __init__(self) -> None:
        self.batches: List[KernelBatchStats] = []

    def record(self, stats: KernelBatchStats) -> None:
        self.batches.append(stats)

    def merged(self) -> Optional[dict]:
        """One aggregate profile over every recorded batch (None if empty).

        ``occupancy`` is the lane-step-weighted mean across batches —
        equivalently ``sum(lane_steps) / sum(steps * lanes)``.
        """
        if not self.batches:
            return None
        lanes = sum(b.lanes for b in self.batches)
        steps = sum(b.steps for b in self.batches)
        events = sum(b.events for b in self.batches)
        lane_steps = sum(b.lane_steps for b in self.batches)
        capacity = sum(b.steps * b.lanes for b in self.batches)
        return {
            "engines": sorted({b.engine for b in self.batches}),
            "batches": len(self.batches),
            "lanes": lanes,
            "steps": steps,
            "events": events,
            "lane_steps": lane_steps,
            "occupancy": lane_steps / capacity if capacity else 0.0,
        }


def record_kernel_batch(
    engine: str, *, lanes: int, steps: int, events: int, lane_steps: int
) -> None:
    """Record one batch run on the active collector (no-op without one)."""
    collector = getattr(_STATE, "collector", None)
    if collector is not None:
        collector.record(
            KernelBatchStats(
                engine=engine,
                lanes=int(lanes),
                steps=int(steps),
                events=int(events),
                lane_steps=int(lane_steps),
            )
        )


@contextmanager
def collect_kernel_stats() -> Iterator[KernelStatsCollector]:
    """Collect every kernel batch run on this thread inside the block."""
    collector = KernelStatsCollector()
    previous = getattr(_STATE, "collector", None)
    _STATE.collector = collector
    try:
        yield collector
    finally:
        _STATE.collector = previous
