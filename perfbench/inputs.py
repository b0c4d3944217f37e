"""Seeded request inputs of the wire workloads, generated before timing.

Every input derives from the workload seed and nothing else.  Paper-sized
tasks come from the paper's own generator preset (``LARGE_TASKS_FIG6``,
n in [100, 250]); fresh variants of them redraw every WCET, which gives a
task nobody has sent before (a new fingerprint, a new answer) for the cost
of one array draw instead of a whole structure generation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.generator import LARGE_TASKS_FIG6, SMALL_TASKS
from repro.generator.config import OffloadConfig
from repro.generator.offload import select_offloaded_node
from repro.generator.random_dag import DagStructureGenerator
from repro.io.json_io import task_to_dict

__all__ = ["Request", "keepalive_inputs", "fresh_inputs"]

#: Small integer tasks of the ``/makespan`` requests: the exact oracle is
#: cheap on n <= 12, C <= 20 (n <= 20 with C <= 100 is heavy-tailed up to
#: minutes per instance).
MAKESPAN_TASKS = replace(SMALL_TASKS, n_min=3, n_max=12, c_max=20)
POLICIES = ("breadth-first", "depth-first", "longest-first")
ANALYSE_CORES = [2, 4, 8, 16]
#: One fresh-cold block: its exact request mix, shuffled per block.
FRESH_BLOCK = {"/simulate": 30, "/analyse": 15, "/makespan": 4, "/workload": 1}
FRESH_BLOCK_SIZE = sum(FRESH_BLOCK.values())


@dataclass
class Request:
    """One request: endpoint path and the JSON document it posts."""

    path: str
    document: dict


class _Generator:
    """Task documents drawn from one seeded stream, timed for the ledger."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.generated = 0
        self.generate_s = 0.0
        self._seen: set = set()

    def task(self, config, name: str) -> dict:
        generator = DagStructureGenerator(config, self.rng)
        started = time.perf_counter()
        task = generator.generate_task(name=name)
        self.generate_s += time.perf_counter() - started
        self.generated += 1
        return task_to_dict(select_offloaded_node(task, OffloadConfig(), self.rng))

    def unique(self, document: dict) -> bool:
        """Whether the task (structure + WCETs + offloaded node) is new."""
        key = json.dumps(
            [document["nodes"], document["edges"], document["offloaded_node"]],
            sort_keys=True,
        )
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def variant(self, base: dict, fractional: bool) -> dict:
        """``base`` with every WCET redrawn from the preset's range."""
        low, high = LARGE_TASKS_FIG6.c_min, LARGE_TASKS_FIG6.c_max
        while True:
            count = len(base["nodes"])
            if fractional:
                draws = np.round(self.rng.uniform(low, high, count), 2).tolist()
            else:
                draws = self.rng.integers(low, high + 1, count).tolist()
            document = dict(base, nodes=dict(zip(base["nodes"], draws)))
            if self.unique(document):
                return document

    def small(self, name: str) -> dict:
        while True:
            document = self.task(MAKESPAN_TASKS, name)
            if self.unique(document):
                return document


def _workload_document(gen: _Generator, bases: list, fractional: bool) -> dict:
    """Two streams of one shared period, five releases each (ten in all)."""
    picks = gen.rng.choice(len(bases), size=2, replace=False)
    tasks = [gen.variant(bases[index], fractional) for index in picks]
    cores = 4
    volume = max(sum(task["nodes"].values()) for task in tasks)
    period = round(float(volume / cores * gen.rng.uniform(0.8, 1.5)), 3)
    return {
        "streams": [
            {
                "task": task,
                "arrivals": {
                    "kind": "periodic",
                    "period": period,
                    "offset": offset,
                    "jitter": 0.0,
                    "seed": 0,
                },
            }
            for task, offset in zip(tasks, (0.0, period / 2))
        ],
        "horizon": 5 * period,
        "cores": cores,
        "accelerators": 1,
        "policy": "breadth-first",
    }


def keepalive_inputs(seed: int) -> tuple[list[Request], _Generator]:
    """The hot cycle: 16 paper tasks, ~3 ``/simulate`` to 1 ``/analyse``.

    Four small ``/makespan`` tasks and two ``/workload`` documents ride
    along so every request class is timed on this workload too; the
    warm-up pass caches all of them before the timed window.
    """
    gen = _Generator(np.random.default_rng([seed, 1]))
    tasks = [gen.task(LARGE_TASKS_FIG6, f"hot_{index}") for index in range(16)]
    cycle: list[Request] = []
    for task in tasks:
        for cores in (2, 4, 8):
            cycle.append(Request("/simulate", {
                "task": task, "cores": cores, "accelerators": 1,
                "policy": "breadth-first",
            }))
        cycle.append(Request("/analyse", {
            "task": task, "cores": ANALYSE_CORES, "include_naive": True,
        }))
    for index in range(4):
        cycle.append(Request("/makespan", {
            "task": gen.small(f"hot_small_{index}"), "cores": 2,
            "accelerators": 1, "method": "auto",
        }))
    for _ in range(2):
        cycle.append(Request("/workload", _workload_document(gen, tasks, False)))
    order = gen.rng.permutation(len(cycle))
    return [cycle[index] for index in order], gen


def fresh_inputs(seed: int, blocks: int) -> tuple[list[list[Request]], _Generator]:
    """``blocks`` shuffled blocks of :data:`FRESH_BLOCK`, every task new.

    ``/simulate`` and ``/analyse`` post WCET variants of 64 paper-sized
    structures; ``/workload`` posts two streams of such variants with
    fractional WCETs; ``/makespan`` posts a freshly generated small task.
    """
    gen = _Generator(np.random.default_rng([seed, 2]))
    bases = [gen.task(LARGE_TASKS_FIG6, f"fresh_{index}") for index in range(64)]
    kinds = [path for path, count in FRESH_BLOCK.items() for _ in range(count)]
    out: list[list[Request]] = []
    for block_index in range(blocks):
        block: list[Request] = []
        for position in gen.rng.permutation(len(kinds)):
            path = kinds[position]
            if path == "/simulate":
                base = bases[gen.rng.integers(len(bases))]
                block.append(Request(path, {
                    "task": gen.variant(base, False),
                    "cores": int(gen.rng.choice((2, 4, 8))),
                    "accelerators": 1,
                    "policy": POLICIES[gen.rng.integers(len(POLICIES))],
                }))
            elif path == "/analyse":
                base = bases[gen.rng.integers(len(bases))]
                block.append(Request(path, {
                    "task": gen.variant(base, False),
                    "cores": ANALYSE_CORES,
                    "include_naive": True,
                }))
            elif path == "/makespan":
                block.append(Request(path, {
                    "task": gen.small(f"fresh_small_{block_index}"),
                    "cores": 2, "accelerators": 1, "method": "auto",
                }))
            else:
                block.append(Request(path, _workload_document(gen, bases, True)))
        out.append(block)
    return out, gen
