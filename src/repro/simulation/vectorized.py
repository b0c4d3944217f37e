"""Batched makespans through the compiled C kernel.

A figure-6 sweep runs *thousands* of independent simulations -- one per
``(task, platform, policy)`` cell.  This module turns every cell into a
*lane*, concatenates the lanes into one flat global node space (node
offsets, WCETs, a globally rebased CSR, initial in-degrees, device
assignments, per-lane resources and priority-family codes) and runs them
all in **one** call of the C step loop in :mod:`repro.simulation._kernels`.
Mixed policy families are fine; the kernel switches per lane.

Policy families
---------------
The kernel understands the four priority families of the built-in policies
(:func:`repro.simulation.schedulers.policy_vector_kind`):

* ``fifo`` (breadth-first): key ``(ready time, creation index)``;
* ``static`` (critical-path/shortest/longest/fixed-priority): key
  ``(static per-node value, arrival index)`` with the per-node values from
  :meth:`~repro.simulation.schedulers.SchedulingPolicy.vector_keys`;
* ``lifo`` (depth-first): key ``(-arrival,)``;
* ``random``: key ``(draw, arrival)`` with the draws *pre-consumed* from the
  policy's stream (``Generator.random(k)`` consumes the bit stream exactly
  like ``k`` scalar draws, one draw per non-instant arrival, so the stream
  semantics of the scalar engines are preserved; when one policy instance
  serves several cells, the draws are consumed in cell order).

Custom or subclassed policies have no vector kind and are rejected with
:class:`ValueError`; :func:`repro.simulation.batch.simulate_many` serves
those cells with the dense engine instead.

Availability
------------
The entry points below need the compiled kernel and raise
:class:`RuntimeError` (naming the reason) when it cannot be built -- no C
compiler, or ``REPRO_COMPILED=0``.  :func:`~repro.simulation.batch.
simulate_many` checks first and serves everything with the dense engine on
such hosts.

Bit-identity contract
---------------------
Every lane returns **exactly** the makespan of
``simulate(...).makespan()`` for its cell -- same floats, same
tie-breaking -- independent of the other lanes in the batch.  The property
suite in ``tests/test_vectorized_engine.py`` enforces identity against both
scalar engines across all seven registered policies, original and
transformed DAGs, multi-device assignments and offload modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from ..core.compiled import CompiledTask, compile_task
from ..core.graph import NodeId
from ..core.task import DagTask
from . import _kernels
from .engine import _as_platform, _device_assignment
from .platform import Platform
from .schedulers import (
    VECTOR_RANDOM,
    VECTOR_STATIC,
    BreadthFirstPolicy,
    SchedulingPolicy,
    policy_vector_kind,
)

__all__ = [
    "VectorCell",
    "simulate_makespans_vectorized",
    "simulate_column_vectorized",
    "simulate_makespan_compiled",
]


@dataclass(frozen=True)
class VectorCell:
    """One simulation of a kernel batch (a *lane*).

    Mirrors the parameters of :func:`repro.simulation.engine.simulate`; the
    optional ``compiled`` view lets batch drivers compile once per task and
    share the view across every cell of that task.
    """

    task: DagTask
    platform: Union[Platform, int]
    policy: Optional[SchedulingPolicy] = None
    offload_enabled: bool = True
    device_assignment: Optional[Mapping[NodeId, int]] = None
    compiled: Optional[CompiledTask] = None


@dataclass
class _Lane:
    """Resolved per-cell inputs (internal)."""

    compiled: CompiledTask
    platform: Platform
    kind: str
    assigned: np.ndarray  # (n,) device per node, -1 = host
    static_keys: Optional[np.ndarray] = None  # static kind
    draws: Optional[np.ndarray] = None  # random kind


def _require_kernel() -> None:
    if not _kernels.compiled_available():
        raise RuntimeError(
            "compiled kernel unavailable: "
            f"{_kernels.compiled_unavailable_reason()}"
        )


def _vector_kind(policy: SchedulingPolicy) -> str:
    kind = policy_vector_kind(policy)
    if kind is None:
        raise ValueError(
            f"policy {type(policy).__name__!r} has no vector kind; "
            "simulate it with the dense engine instead"
        )
    return kind


def _run_lanes(lanes: Sequence[_Lane]) -> np.ndarray:
    """Makespans of ``lanes``, in input order, from one native call."""
    B = len(lanes)
    if B == 0:
        return np.empty(0, dtype=np.float64)
    ns = np.array([len(lane.compiled.nodes) for lane in lanes], dtype=np.int64)
    node_off = np.concatenate(([0], np.cumsum(ns)))
    N = int(node_off[-1])
    es = np.array(
        [len(lane.compiled.succ_idx) for lane in lanes], dtype=np.int64
    )
    edge_off = np.concatenate(([0], np.cumsum(es)))
    if N:
        wcet = np.concatenate([lane.compiled.wcet for lane in lanes]).astype(
            np.float64, copy=False
        )
        ptr = np.concatenate(
            [lane.compiled.succ_ptr_array[:-1] for lane in lanes]
            + [edge_off[-1:]]
        )
        ptr[:-1] += np.repeat(edge_off[:-1], ns)
        if edge_off[-1]:
            idx = np.concatenate(
                [lane.compiled.succ_idx_array for lane in lanes]
            )
            idx += np.repeat(node_off[:-1], es)
        else:
            idx = np.empty(0, dtype=np.int64)
        in_degree = np.concatenate(
            [lane.compiled.in_degree_array for lane in lanes]
        )
        assigned = np.concatenate([lane.assigned for lane in lanes])
    else:
        wcet = np.empty(0, dtype=np.float64)
        ptr = np.zeros(1, dtype=np.int64)
        idx = np.empty(0, dtype=np.int64)
        in_degree = np.empty(0, dtype=np.int64)
        assigned = np.empty(0, dtype=np.int64)

    static_key = np.zeros(N, dtype=np.float64)
    draw_off = np.zeros(B, dtype=np.int64)
    draw_parts: list[np.ndarray] = []
    total_draws = 0
    kind_codes = np.empty(B, dtype=np.int64)
    for i, lane in enumerate(lanes):
        kind_codes[i] = _kernels.KIND_CODES[lane.kind]
        draw_off[i] = total_draws
        if lane.kind == VECTOR_STATIC:
            static_key[node_off[i] : node_off[i + 1]] = lane.static_keys
        elif lane.kind == VECTOR_RANDOM:
            draws = np.asarray(lane.draws, dtype=np.float64)
            if len(draws):
                draw_parts.append(draws)
                total_draws += len(draws)
    draws_flat = (
        np.concatenate(draw_parts)
        if draw_parts
        else np.empty(0, dtype=np.float64)
    )
    host_cores = np.array(
        [lane.platform.host_cores for lane in lanes], dtype=np.int64
    )
    accelerators = np.array(
        [lane.platform.accelerators for lane in lanes], dtype=np.int64
    )
    return _kernels.run_lanes(
        node_off,
        wcet,
        ptr,
        idx,
        in_degree,
        assigned,
        static_key,
        draws_flat,
        draw_off,
        host_cores,
        accelerators,
        kind_codes,
    )


def _prepare_lane(cell: VectorCell) -> _Lane:
    task = cell.task
    platform = _as_platform(cell.platform)
    compiled = cell.compiled if cell.compiled is not None else compile_task(task)
    policy = cell.policy if cell.policy is not None else BreadthFirstPolicy()
    kind = _vector_kind(policy)
    assignment = _device_assignment(
        task, platform, cell.offload_enabled, cell.device_assignment
    )
    n = len(compiled.nodes)
    assigned = np.full(n, -1, dtype=np.int64)
    for node, device in assignment.items():
        assigned[compiled.index[node]] = device
    lane = _Lane(compiled=compiled, platform=platform, kind=kind, assigned=assigned)
    if kind == VECTOR_STATIC:
        lane.static_keys = np.asarray(
            policy.vector_keys(compiled), dtype=np.float64
        )
    elif kind == VECTOR_RANDOM:
        # One draw per non-instant node (each is enqueued exactly once);
        # consuming them here, in cell order, preserves the stream semantics
        # of the scalar engines.
        lane.draws = policy.vector_draws(int(np.count_nonzero(compiled.wcet)))
    return lane


def simulate_column_vectorized(
    entries: Sequence[tuple[DagTask, Optional[CompiledTask]]],
    platforms: Sequence[Union[Platform, int]],
    policy: SchedulingPolicy,
    offload_enabled: bool = True,
) -> np.ndarray:
    """Makespans of a ``task x platform`` grid under one vectorisable policy.

    The batch-construction fast path of
    :func:`repro.simulation.batch.simulate_many`: per-task preparation (the
    compiled view, the device-assignment array, static priority keys) is
    done once and shared across the whole platform axis, instead of once
    per cell as the generic :class:`VectorCell` API does.  Lanes run in
    ``(task, platform)`` order, so a stateful :class:`RandomPolicy` consumes
    its stream exactly like the scalar engines' nested loops.  Returns an
    array of shape ``(len(entries), len(platforms))``.
    """
    kind = _vector_kind(policy)
    _require_kernel()
    platform_list = [_as_platform(platform) for platform in platforms]
    if not platform_list:
        raise ValueError("simulate_column_vectorized needs at least one platform")
    lanes: list[_Lane] = []
    for task, compiled in entries:
        if compiled is None:
            compiled = compile_task(task)
        static = (
            np.asarray(policy.vector_keys(compiled), dtype=np.float64)
            if kind == VECTOR_STATIC
            else None
        )
        nonzero = (
            int(np.count_nonzero(compiled.wcet)) if kind == VECTOR_RANDOM else 0
        )
        # The resolved assignment does not depend on the platform, only its
        # validation does: resolve once, re-validate (and surface the exact
        # error) only for platforms that cannot satisfy it.
        assignment = _device_assignment(
            task, platform_list[0], offload_enabled, None
        )
        max_device = max(assignment.values(), default=-1)
        assigned = np.full(len(compiled.nodes), -1, dtype=np.int64)
        for node, device in assignment.items():
            assigned[compiled.index[node]] = device
        for platform in platform_list:
            if max_device >= platform.accelerators:
                _device_assignment(task, platform, offload_enabled, None)
            lane = _Lane(
                compiled=compiled,
                platform=platform,
                kind=kind,
                assigned=assigned,
                static_keys=static,
            )
            if kind == VECTOR_RANDOM:
                lane.draws = policy.vector_draws(nonzero)
            lanes.append(lane)
    if not lanes:
        return np.empty((0, len(platform_list)))
    # Lanes already sit in (task, platform) order == the output order.
    return _run_lanes(lanes).reshape(len(entries), len(platform_list))


def simulate_makespans_vectorized(cells: Sequence[VectorCell]) -> np.ndarray:
    """Makespans of many independent simulations, in cell order.

    Every makespan is bit-identical to ``simulate(...).makespan()`` for the
    same cell; all policy families run in one native call.  Raises
    :class:`ValueError` for policies without a vector kind (custom or
    subclassed policies -- use the dense engine for those).
    """
    _require_kernel()
    return _run_lanes([_prepare_lane(cell) for cell in cells])


def simulate_makespan_compiled(
    task: DagTask,
    platform: Union[Platform, int],
    policy: Optional[SchedulingPolicy] = None,
    offload_enabled: bool = True,
    device_assignment: Optional[Mapping[NodeId, int]] = None,
    *,
    compiled: Optional[CompiledTask] = None,
) -> float:
    """Single-cell convenience wrapper around the compiled kernel.

    Same parameters and bit-identity contract as
    :func:`repro.simulation.dense.simulate_makespan_dense`; mainly useful
    for tests and for cross-checking the kernel one cell at a time (use
    :func:`~repro.simulation.batch.simulate_many` for sweeps).
    """
    return float(
        simulate_makespans_vectorized(
            [
                VectorCell(
                    task=task,
                    platform=platform,
                    policy=policy,
                    offload_enabled=offload_enabled,
                    device_assignment=device_assignment,
                    compiled=compiled,
                )
            ]
        )[0]
    )
