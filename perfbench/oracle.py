"""Reference answers computed in-process by engines independent of the server.

``/simulate`` is checked against the reference trace engine
(``simulate(...).makespan()``), ``/analyse`` against ``analyse`` per core
count, ``/makespan`` against ``minimum_makespan`` and ``/workload`` against
the scalar ``simulate_workload_reference``.  Every engine in the repo is
contracted to be bit-identical to these references, so answers are
compared exactly.
"""

from __future__ import annotations

from repro.analysis.heterogeneous import analyse
from repro.generator.arrivals import arrival_from_dict
from repro.ilp.makespan import minimum_makespan
from repro.io.json_io import task_from_dict
from repro.simulation.engine import simulate
from repro.simulation.platform import Platform
from repro.simulation.schedulers import policy_by_name
from repro.simulation.workload import (
    JobStream,
    build_workload,
    simulate_workload_reference,
)

__all__ = ["reference", "matches"]


def _platform(document: dict) -> Platform:
    return Platform(document["cores"], document.get("accelerators", 1))


def reference(path: str, document: dict):
    """The expected answer of one request, in a comparable form."""
    if path == "/simulate":
        task = task_from_dict(document["task"])
        policy = policy_by_name(document.get("policy", "breadth-first"))
        return simulate(task, _platform(document), policy).makespan()
    if path == "/analyse":
        task = task_from_dict(document["task"])
        return {
            cores: {name: result.bound for name, result in analyse(task, cores).items()}
            for cores in document["cores"]
        }
    if path == "/makespan":
        task = task_from_dict(document["task"])
        return minimum_makespan(
            task, document["cores"], document.get("accelerators", 1)
        ).makespan
    if path == "/workload":
        streams = [
            JobStream(
                task=task_from_dict(spec["task"]),
                arrivals=arrival_from_dict(spec["arrivals"]),
            )
            for spec in document["streams"]
        ]
        result = simulate_workload_reference(
            build_workload(streams, document["horizon"]),
            _platform(document),
            policy_by_name(document.get("policy", "breadth-first")),
        )
        return [float(value) for value in result.completions]
    raise ValueError(f"no reference for {path}")


def matches(path: str, expected, payload) -> bool:
    """Whether a response payload carries exactly the expected answer."""
    if not isinstance(payload, dict):
        return False
    if path == "/simulate":
        return payload.get("makespan") == expected
    if path == "/analyse":
        got = {
            entry["cores"]: {
                name: method["bound"] for name, method in entry["methods"].items()
            }
            for entry in payload.get("bounds", [])
        }
        return got == expected
    if path == "/makespan":
        return (
            payload.get("makespan") == expected
            and payload.get("optimal") is True
            and payload.get("degraded") is False
        )
    if path == "/workload":
        rows = payload.get("per_instance", [])
        return [row["completion"] for row in rows] == expected
    return False
