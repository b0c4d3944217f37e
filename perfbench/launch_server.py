"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/launch_server.py <repro serve flags>``.  The
wrappers are installed where the server's code looks each layer up, then
control passes to :func:`repro.service.http.main`.  When the server has
drained (SIGTERM/SIGINT), one line ``PERFBENCH-SPANS <json>`` with the
span aggregates is printed on standard output; SIGUSR1 prints the same
line at any time, so a client can take the difference over a window.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

import repro.core.compiled as compiled  # noqa: E402
import repro.service.facade as facade  # noqa: E402
import repro.service.http as http  # noqa: E402
from repro.service.cache import ResultCache  # noqa: E402
from repro.simulation.workload import resolve_workload_backend  # noqa: E402

from perfbench.spans import Recorder, install  # noqa: E402

SPANS_PREFIX = "PERFBENCH-SPANS "


def _path_of(args, kwargs) -> str:
    return args[0].path.partition("?")[0]


def _count(key, size):
    def observe(recorder, args, kwargs, result):
        recorder.count(key, size(args, kwargs, result))
    return observe


def _observe_workload(recorder, args, kwargs, result):
    recorder.count("workload.instances", len(args[0]))
    backend = resolve_workload_backend(kwargs.get("backend", "auto"))
    recorder.count("workload.numpy_calls", backend == "numpy")


def install_server_spans(recorder: Recorder) -> None:
    """Wrap every server layer the ledger attributes time to."""
    handler = http._RequestHandler
    service = facade.EvaluationService
    # Handler thread: one root span per POST, classed by its path.
    install(recorder, handler, "do_POST", "http.request", root=_path_of)
    install(recorder, handler, "_read_document", "json_io.parse")
    install(recorder, handler, "_send_json", "http.write")
    install(recorder, http, "task_from_dict", "json_io.decode")
    for name in ("submit_simulation", "submit_analysis", "submit_makespan",
                 "submit_workload"):
        install(recorder, service, name, "facade.submit")
    install(recorder, facade, "task_fingerprint", "fingerprint.task")
    install(recorder, compiled, "compile_graph", "compiled.compile")
    install(recorder, ResultCache, "get", "cache.lookup")
    install(recorder, service, "_wait", "batching.wait")
    # Batcher worker thread: the flush and the engines it calls.
    install(recorder, service, "_execute_batch", "batching.flush")
    install(recorder, ResultCache, "put", "cache.put")
    install(recorder, facade, "simulate_many", "simulation.engine",
            observe=_count("simulation.lanes", lambda a, k, r: r.size))
    install(recorder, facade, "analyse_many", "analysis.engine",
            observe=_count("analysis.tasks", lambda a, k, r: len(r)))
    install(recorder, facade, "minimum_makespans_many", "ilp.solve",
            observe=_count("ilp.tasks", lambda a, k, r: len(r)))
    install(recorder, facade, "simulate_workload", "workload.simulate",
            observe=_observe_workload)


def main(argv=None) -> int:
    recorder = Recorder()
    install_server_spans(recorder)

    def dump(*_: object) -> None:
        print(SPANS_PREFIX + json.dumps(recorder.snapshot()), flush=True)

    signal.signal(signal.SIGUSR1, dump)
    code = http.main(argv)
    dump()
    return code


if __name__ == "__main__":
    sys.exit(main())
