"""Online multi-instance workloads on one shared platform.

Everything below :mod:`repro.simulation.batch` evaluates a *single* DAG job
in isolation -- the static regime of the paper's schedulability analysis.
This module opens the dynamic regime: **streams** of job instances with
release times contend for one shared platform (``m`` host cores plus the
accelerator pool), and the metrics of interest become per-instance response
times, deadline-miss ratios and backlog trajectories rather than a single
makespan.

Model
-----
* A :class:`JobStream` couples a :class:`~repro.core.task.DagTask` with an
  arrival process (:mod:`repro.generator.arrivals`) and an optional relative
  deadline (defaulting to the task's own constrained deadline, then to its
  period).
* :func:`build_workload` unrolls streams over a horizon into a flat list of
  :class:`JobInstance` records ordered by ``(release, stream, index)``.
  Releases at or past the horizon are dropped.
* The simulator is the natural multi-instance extension of the single-job
  reference engine (:mod:`repro.simulation.engine`): every instance is a
  block of nodes in one *shared global node space*, and all instances feed
  one work-conserving scheduler over a **shared capacity pool** -- they
  contend for the same host cores and accelerator devices instead of
  simulating independently.

Event-loop specification
------------------------
Each step advances time to the earliest pending event, then processes the
three phases in a fixed order:

1. **advance** ``t`` to ``min(earliest running finish, next release)``;
2. **retire** every running node with ``finish <= t + 1e-12`` in
   ``(finish, start sequence)`` order, freeing its resource and propagating
   its successors in CSR creation order (a successor becomes ready at its
   *decisive* -- last -- in-degree decrement); newly-ready zero-WCET nodes
   complete instantly through the FIFO cascade of the reference engine;
3. **release** every instance with ``release <= t + 1e-12`` (retirements
   first at coinciding instants), seeding its source nodes in creation
   order at ``ready = release``;
4. **start** ready nodes work-conservingly: host queue first while host
   cores are free, then each device queue in device order.

Ready-queue keys per policy family (``policy_vector_kind``): *fifo* orders
by ``(ready time, global node index)`` -- the global index extends the
single-job creation-order tie-break across instances (earlier release, then
earlier stream, goes first); *lifo* by ``(-arrival,)``; *static* by
``(per-node key, arrival)``; *random* by ``(seeded draw, arrival)``, where
arrival stamps count non-instant enqueues across the whole workload and the
draw pool is pre-drawn once (``Generator.random(k)`` consumes the bit
stream exactly like ``k`` scalar draws).

Engine
------
:func:`simulate_workload` is one scalar engine: a heap-based Python event
loop, deliberately written like :func:`repro.simulation.engine.simulate`
so a single-instance workload released at 0 reproduces
``simulate_makespan`` bit for bit, and well-separated instances of one
task each reproduce it too (``tests/test_workload.py`` checks both).
:func:`simulate_workload_reference` is the same function under the name
the answer oracles import.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..core.compiled import compile_task
from ..core.exceptions import SimulationError
from ..core.task import DagTask
from ..generator.arrivals import ArrivalProcess
from .engine import _as_platform, _device_assignment
from .kernel_stats import record_kernel_batch
from .platform import Platform
from .schedulers import (
    VECTOR_FIFO,
    VECTOR_LIFO,
    VECTOR_RANDOM,
    VECTOR_STATIC,
    BreadthFirstPolicy,
    SchedulingPolicy,
    policy_vector_kind,
)

__all__ = [
    "JobInstance",
    "JobStream",
    "WorkloadResult",
    "build_workload",
    "resolve_workload_backend",
    "simulate_workload",
    "simulate_workload_reference",
]

#: Same completion-coincidence tolerance as every other engine in the repo.
_TIE = 1e-12


# ----------------------------------------------------------------------
# Workload model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobInstance:
    """One released job: a task instance with an absolute release time."""

    task: DagTask
    release: float
    deadline: Optional[float] = None  # absolute; None = no deadline
    stream: int = 0
    index: int = 0


@dataclass(frozen=True)
class JobStream:
    """A stream of job instances of one task under an arrival process.

    ``deadline`` is *relative* (response-time budget per instance); when
    omitted it defaults to the task's constrained deadline, then to its
    period (the implicit-deadline model), then to "no deadline".
    """

    task: DagTask
    arrivals: ArrivalProcess
    deadline: Optional[float] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.deadline is not None and not (
            math.isfinite(self.deadline) and self.deadline > 0
        ):
            raise ValueError(
                f"relative deadline must be finite and > 0, got {self.deadline}"
            )

    def relative_deadline(self) -> Optional[float]:
        """The effective relative deadline of every instance of the stream."""
        if self.deadline is not None:
            return float(self.deadline)
        if self.task.deadline is not None:
            return float(self.task.deadline)
        if self.task.period is not None:
            return float(self.task.period)
        return None

    def instances(
        self,
        horizon: float,
        stream: int = 0,
        jobs: Optional[int] = None,
    ) -> list[JobInstance]:
        """Unroll the stream over ``[0, horizon)`` (releases past it drop)."""
        relative = self.relative_deadline()
        return [
            JobInstance(
                task=self.task,
                release=float(release),
                deadline=None if relative is None else float(release) + relative,
                stream=stream,
                index=index,
            )
            for index, release in enumerate(
                self.arrivals.release_times(horizon, jobs=jobs)
            )
        ]


def build_workload(
    streams: Sequence[JobStream],
    horizon: float,
    jobs: Optional[int] = None,
) -> list[JobInstance]:
    """Flatten ``streams`` over ``[0, horizon)`` into simulation order.

    Instances are ordered by ``(release, stream, index)``; this order *is*
    the global node-space order of the simulators, so it also settles FIFO
    tie-breaking between instances released at the same instant (earlier
    stream first, then earlier instance).
    """
    instances = [
        instance
        for stream_index, stream in enumerate(streams)
        for instance in stream.instances(horizon, stream=stream_index, jobs=jobs)
    ]
    instances.sort(key=lambda job: (job.release, job.stream, job.index))
    return instances


# ----------------------------------------------------------------------
# Result container
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadResult:
    """Per-instance outcome of one workload simulation.

    All arrays are indexed by workload order (the order of
    :func:`build_workload`).  ``deadlines`` holds absolute deadlines with
    ``+inf`` for "no deadline"; a miss is ``completion > deadline`` with no
    tolerance -- deadlines are model inputs, not simulated floats.
    """

    releases: np.ndarray
    completions: np.ndarray
    deadlines: np.ndarray
    streams: np.ndarray
    indices: np.ndarray

    @property
    def count(self) -> int:
        return int(self.releases.size)

    @property
    def response_times(self) -> np.ndarray:
        return self.completions - self.releases

    @property
    def missed(self) -> np.ndarray:
        return self.completions > self.deadlines

    def miss_ratio(self) -> float:
        return float(self.missed.mean()) if self.count else 0.0

    def makespan(self) -> float:
        """Completion of the last instance (0 for an empty workload)."""
        return float(self.completions.max()) if self.count else 0.0

    def mean_response(self) -> float:
        return float(self.response_times.mean()) if self.count else 0.0

    def max_response(self) -> float:
        return float(self.response_times.max()) if self.count else 0.0

    def backlog(self) -> tuple[np.ndarray, np.ndarray]:
        """Backlog trajectory: (event times, instances in flight after each).

        The backlog at time ``t`` is the number of instances released at or
        before ``t`` that have not yet completed.  Completions tie-break
        releases at coinciding event times (the simulators retire before
        they release), so an instance handed over back-to-back contributes
        no spurious peak.
        """
        if not self.count:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        times = np.concatenate([self.releases, self.completions])
        deltas = np.concatenate(
            [
                np.ones(self.count, dtype=np.int64),
                -np.ones(self.count, dtype=np.int64),
            ]
        )
        # Stable sort with completions (the -1 deltas) first at equal times.
        order = np.lexsort((-deltas, times))
        times = times[order]
        levels = np.cumsum(deltas[order])
        # Collapse coinciding event times to the last (settled) level.
        keep = np.append(times[1:] > times[:-1], True)
        return times[keep], levels[keep]

    def peak_backlog(self) -> int:
        _, levels = self.backlog()
        return int(levels.max()) if levels.size else 0

    def summary(self) -> dict:
        """JSON-style aggregate view (the service payload's core)."""
        return {
            "instances": self.count,
            "makespan": self.makespan(),
            "miss_ratio": self.miss_ratio(),
            "mean_response": self.mean_response(),
            "max_response": self.max_response(),
            "peak_backlog": self.peak_backlog(),
        }


# ----------------------------------------------------------------------
# Problem preparation (input canonicalisation, no scheduling logic)
# ----------------------------------------------------------------------
class _WorkloadProblem:
    """The concatenated global node space of one workload.

    Pure data: per-instance compiled CSRs stitched together with global
    offsets, the shared platform's capacity, per-node device targets, the
    policy's key family and -- for the stochastic family -- the pre-drawn
    priority pool.  The event loop consumes this and nothing else.
    """

    def __init__(
        self,
        workload: Sequence[JobInstance],
        platform: Union[Platform, int],
        policy: Optional[SchedulingPolicy],
        offload_enabled: bool,
    ) -> None:
        self.platform = _as_platform(platform)
        self.policy = policy if policy is not None else BreadthFirstPolicy()
        kind = policy_vector_kind(self.policy)
        if kind is None:
            raise SimulationError(
                f"workload simulation requires a vectorisable built-in "
                f"policy; {type(self.policy).__name__} has no vector kind"
            )
        self.kind = kind
        self.instances = list(workload)
        self.cores = self.platform.host_cores
        self.devices = self.platform.accelerators

        compiled = [compile_task(job.task) for job in self.instances]
        counts = np.array([c.node_count for c in compiled], dtype=np.int64)
        self.node_off = np.zeros(len(compiled) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.node_off[1:])
        total = int(self.node_off[-1])
        self.total_nodes = total

        self.wcet = np.empty(total, dtype=np.float64)
        self.device = np.full(total, -1, dtype=np.int64)
        self.in_degree0 = np.empty(total, dtype=np.int64)
        succ_parts: list[np.ndarray] = []
        ptr_parts: list[np.ndarray] = []
        static_parts: list[np.ndarray] = []
        edge_base = 0
        for job, view, base in zip(
            self.instances, compiled, self.node_off[:-1]
        ):
            n = view.node_count
            base = int(base)
            self.wcet[base : base + n] = view.wcet
            self.in_degree0[base : base + n] = view.in_degree_array
            assignment = _device_assignment(
                job.task, self.platform, offload_enabled, None
            )
            for node, dev in assignment.items():
                self.device[base + view.index[node]] = dev
            succ_parts.append(view.succ_idx_array + base)
            ptr_parts.append(view.succ_ptr_array[:-1] + edge_base)
            edge_base += int(view.succ_ptr_array[-1])
            if kind == VECTOR_STATIC:
                static_parts.append(
                    np.asarray(self.policy.vector_keys(view), dtype=np.float64)
                )
        self.succ_idx = (
            np.concatenate(succ_parts) if succ_parts else np.empty(0, np.int64)
        )
        self.succ_ptr = np.empty(total + 1, dtype=np.int64)
        if ptr_parts:
            self.succ_ptr[:-1] = np.concatenate(ptr_parts)
        self.succ_ptr[-1] = edge_base
        self.static_keys = (
            np.concatenate(static_parts)
            if static_parts
            else np.empty(0, np.float64)
        )
        # One draw per non-instant node, assigned in arrival-stamp order --
        # identical to per-arrival scalar draws (see vector_draws).
        if kind == VECTOR_RANDOM:
            self.draw_pool = self.policy.vector_draws(
                int(np.count_nonzero(self.wcet))
            )
        else:
            self.draw_pool = np.empty(0, dtype=np.float64)

        self.releases = np.array(
            [job.release for job in self.instances], dtype=np.float64
        )
        if np.any(self.releases[1:] < self.releases[:-1]):
            raise SimulationError(
                "workload instances must be ordered by release time; "
                "use build_workload()"
            )
        self.deadlines = np.array(
            [
                math.inf if job.deadline is None else float(job.deadline)
                for job in self.instances
            ],
            dtype=np.float64,
        )

    def result(self, finish: np.ndarray) -> WorkloadResult:
        """Fold per-node finish times into the per-instance result."""
        count = len(self.instances)
        if count:
            completions = np.maximum.reduceat(finish, self.node_off[:-1])
        else:
            completions = np.empty(0, dtype=np.float64)
        return WorkloadResult(
            releases=self.releases.copy(),
            completions=completions,
            deadlines=self.deadlines.copy(),
            streams=np.array(
                [job.stream for job in self.instances], dtype=np.int64
            ),
            indices=np.array(
                [job.index for job in self.instances], dtype=np.int64
            ),
        )


# ----------------------------------------------------------------------
# Event loop
# ----------------------------------------------------------------------
def _reference_finish_times(problem: _WorkloadProblem) -> np.ndarray:
    """Heap-based scalar event loop over the shared global node space."""
    kind = problem.kind
    wcet = problem.wcet
    succ_ptr, succ_idx = problem.succ_ptr, problem.succ_idx
    device = problem.device
    static_keys = problem.static_keys
    draw_pool = problem.draw_pool
    releases = problem.releases
    node_off = problem.node_off

    total = problem.total_nodes
    in_degree = problem.in_degree0.copy()
    ready_time = np.zeros(total, dtype=np.float64)
    finish_time = np.zeros(total, dtype=np.float64)
    remaining = total

    free_cores = problem.cores
    device_free = [True] * problem.devices
    ready_host: list[tuple] = []
    ready_device: list[list[tuple]] = [[] for _ in range(problem.devices)]
    running: list[tuple] = []  # (finish, start_seq, node, device or -1)

    arrival = 0
    start_seq = 0

    def key_of(node: int, ready: float, stamp: int) -> tuple:
        if kind == VECTOR_FIFO:
            return (ready, node)
        if kind == VECTOR_LIFO:
            return (-stamp,)
        if kind == VECTOR_STATIC:
            return (static_keys[node], stamp)
        return (draw_pool[stamp - 1], stamp)

    def enqueue(node: int, when: float) -> None:
        """Queue one newly-ready node, resolving instant cascades FIFO."""
        nonlocal arrival, remaining
        pending = deque(((node, when),))
        while pending:
            current, at = pending.popleft()
            if wcet[current] == 0.0:
                finish_time[current] = at
                remaining -= 1
                newly: list[tuple[int, float]] = []
                for s in succ_idx[succ_ptr[current] : succ_ptr[current + 1]]:
                    if at > ready_time[s]:
                        ready_time[s] = at
                    in_degree[s] -= 1
                    if in_degree[s] == 0:
                        newly.append((s, ready_time[s]))
                pending.extend(newly)
                continue
            arrival += 1
            entry = (key_of(current, at, arrival), current, at)
            if device[current] >= 0:
                heapq.heappush(ready_device[device[current]], entry)
            else:
                heapq.heappush(ready_host, entry)

    def start_ready(now: float) -> None:
        nonlocal free_cores, start_seq
        while free_cores > 0 and ready_host:
            _, node, _ = heapq.heappop(ready_host)
            free_cores -= 1
            start_seq += 1
            heapq.heappush(running, (now + wcet[node], start_seq, node, -1))
        for dev in range(problem.devices):
            queue = ready_device[dev]
            while device_free[dev] and queue:
                _, node, _ = heapq.heappop(queue)
                device_free[dev] = False
                start_seq += 1
                heapq.heappush(running, (now + wcet[node], start_seq, node, dev))

    release_ptr = 0
    instance_count = len(problem.instances)
    steps = 0
    while remaining > 0:
        steps += 1
        next_finish = running[0][0] if running else math.inf
        next_release = (
            releases[release_ptr] if release_ptr < instance_count else math.inf
        )
        now = min(next_finish, next_release)
        if math.isinf(now):
            raise SimulationError(
                "workload simulation deadlocked: nodes remain but nothing "
                "is running and no release is pending"
            )
        # Retire phase: (finish, start-sequence) order, like the heap of the
        # single-job reference engine.
        while running and running[0][0] <= now + _TIE:
            fin, _, node, dev = heapq.heappop(running)
            finish_time[node] = fin
            remaining -= 1
            if dev < 0:
                free_cores += 1
            else:
                device_free[dev] = True
            newly = []
            for s in succ_idx[succ_ptr[node] : succ_ptr[node + 1]]:
                if fin > ready_time[s]:
                    ready_time[s] = fin
                in_degree[s] -= 1
                if in_degree[s] == 0:
                    newly.append((s, ready_time[s]))
            for ready_node, when in newly:
                enqueue(ready_node, when)
        # Release phase (after retirements at coinciding instants): seed
        # each instance's sources in creation order at ready = release.
        while (
            release_ptr < instance_count
            and releases[release_ptr] <= now + _TIE
        ):
            base, stop = node_off[release_ptr], node_off[release_ptr + 1]
            release = releases[release_ptr]
            for node in range(base, stop):
                if problem.in_degree0[node] == 0:
                    ready_time[node] = release
                    enqueue(int(node), float(release))
            release_ptr += 1
        start_ready(now)

    record_kernel_batch(
        "workload.reference",
        lanes=1,
        steps=steps,
        events=total,
        lane_steps=steps,
    )
    return finish_time


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def resolve_workload_backend(backend: str = "auto") -> str:
    """The engine ``simulate_workload`` runs for a backend name.

    Kept for callers that still name a backend (the benchmark's layer
    counters).  There is one workload engine, so ``auto`` and
    ``reference`` both resolve to ``"reference"``; any other name,
    including the deleted ``numpy`` engine, is rejected.
    """
    if backend in ("auto", "reference"):
        return "reference"
    raise ValueError(
        f"unknown workload backend {backend!r}; valid backends: auto, reference"
    )


def simulate_workload(
    workload: Sequence[JobInstance],
    platform: Union[Platform, int],
    policy: Optional[SchedulingPolicy] = None,
    offload_enabled: bool = True,
) -> WorkloadResult:
    """Simulate a workload of released job instances on one shared platform.

    All instances contend for the same ``m`` host cores and accelerator
    devices under one work-conserving scheduler (the module's event-loop
    specification, run by a heap-based scalar loop); the result carries
    per-instance completion times and the derived response-time /
    deadline-miss / backlog metrics.  A single-instance workload released
    at 0 reproduces :func:`~repro.simulation.engine.simulate_makespan` bit
    for bit.
    """
    problem = _WorkloadProblem(workload, platform, policy, offload_enabled)
    return problem.result(_reference_finish_times(problem))


#: The same engine under the name the answer oracles import.
simulate_workload_reference = simulate_workload
