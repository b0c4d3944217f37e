"""The paper sweep: three experiment drivers called in-process, serially.

Each pass runs ``run_figure6(paper_scale())``, ``run_workload_schedulability()``
and ``run_figure7`` at the golden scale of ``tests/test_figure7_golden.py``,
and compares each document with its committed golden.  The drivers' inputs
are fixed by the goldens' own seeds, so the workload seed does not change
them.

An *operation* of this workload is one call from a driver into an engine
entry point (``simulate_many``, ``analyse_many``, ``minimum_makespans_many``,
``simulate_workload``): the same four request classes the service answers,
here with zero service overhead.  Their boundaries are timed in every run;
the traced run adds the per-layer wrappers.

The untraced run reports its times, all but ``setup_s``, at a fixed host
speed.  On a shared 2-vCPU VM the same pass takes anywhere from 6 to 13 s as
neighbours come and go, in spells of a minute or more, longer than a run.
So :class:`Workers` times a fixed piece of reference work
(:func:`reference_seconds`, none of the repository's code) between the
worker calls of a pass, and scales each call's time, and the times of the
operations inside it, by ``REFERENCE_S / reference``: the time the call
would take on a host that runs the reference in :data:`REFERENCE_S`.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import repro.core.compiled as compiled
import repro.experiments.figure6 as figure6
import repro.experiments.figure7 as figure7
import repro.experiments.workload as workload_experiment
import repro.generator.sweep as sweep_generator
from repro.experiments.config import ExperimentScale, paper_scale
from repro.generator.random_dag import DagStructureGenerator
from repro.ilp.batch import oracle_cache_clear
from repro.simulation.kernel_stats import collect_kernel_stats
from repro.simulation.workload import resolve_workload_backend

from perfbench.spans import Recorder, install
from perfbench.wire import child_env

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = {
    "figure6": ROOT / "tests" / "data" / "figure6_paper_golden.json",
    "workload_sched": ROOT / "benchmarks" / "results" / "workload_schedulability.json",
    "figure7": ROOT / "tests" / "data" / "figure7_golden.json",
}
#: The scale ``tests/test_figure7_golden.py`` pins its golden at.
FIGURE7_GOLDEN_SCALE = ExperimentScale(
    dags_per_point=3,
    core_counts=(2,),
    fractions=[0.05, 0.3],
    small_task_fractions=[0.05, 0.2, 0.4],
    ilp_node_range=(3, 9),
    ilp_wcet_max=6,
    ilp_time_limit=None,
    seed=2018,
)
FIGURE7_REPEATS = 10
#: What a researcher's process imports before the first driver call.
_PROBE = (
    "import repro.experiments.figure6, repro.experiments.figure7, "
    "repro.experiments.workload\n"
    "from repro.simulation._kernels import load_kernel\n"
    "assert load_kernel() is not None\n"
    "print('ready', flush=True)\n"
)

#: What the reference work takes on the host state the sweep's times are
#: scaled to: about its time on a quiet 2-vCPU Xeon VM.
REFERENCE_S = 0.005

__all__ = ["setup_seconds", "reference_seconds", "Workers", "Operations",
           "run_pass", "install_layer_spans"]


def reference_seconds() -> float:
    """Time of a fixed pure-Python workload: how fast the host runs now.

    An integer loop and a topological sort of a 1500-node random DAG held in
    dicts and lists: the interpreter and allocator work the drivers do,
    without any of the repository's code, so no change to the repository
    moves it.  Both parts together track the sweep's slow-downs; either
    alone tracks only some of its calls.  The collector is off while it
    runs: a full collection of the sweep's heap would land in it.
    """
    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    total = 0
    for value in range(30_000):
        total += value * value
    rng = random.Random(7)
    successors = {node: [] for node in range(1500)}
    for node in range(1, 1500):
        for _ in range(3):
            successors[rng.randrange(node)].append(node)
    indegree = dict.fromkeys(successors, 0)
    for targets in successors.values():
        for target in targets:
            indegree[target] += 1
    ready = sorted(node for node, degree in indegree.items() if degree == 0)
    while ready:
        for target in successors[ready.pop()]:
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    elapsed = time.perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


def setup_seconds() -> float:
    """Process start until the drivers are imported and the kernel loaded.

    Wall time, not scaled: a new process's start-up does not follow the
    reference work.
    """
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _PROBE], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE,
                          text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - started
        probe.stdout.read()
        if probe.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError("driver import probe failed")
    return elapsed


class Workers:
    """Per pass, every worker call's time and the references around it.

    The drivers hand almost all their work to ``parallel_map`` as worker
    functions: figure 6's chunk generator and per-point evaluation, the
    workload sweep's per-cell evaluation; a figure 7 run at its golden
    scale is one short call.  Every pass makes the same calls in the same
    order.  A reference is timed before each call and once more after the
    pass; a call is scaled by the mean of the references either side of it,
    and what a pass spends outside the calls (the drivers' glue) by the
    median reference of the pass.
    """

    FUNCTIONS = (
        (sweep_generator, "_generate_chunk"),
        (figure6, "_evaluate_point"),
        (workload_experiment, "_evaluate_point"),
        (figure7, "run_figure7"),
    )

    def __init__(self) -> None:
        #: Per pass: the calls' seconds, and the references (one more).
        self.seconds: list = []
        self.references: list = []
        reference_seconds()  # the first run of a process is a cold one
        for module, name in self.FUNCTIONS:
            self._wrap(module, name)

    def start_pass(self) -> None:
        self.seconds.append([])
        self.references.append([])

    def end_pass(self) -> None:
        self.references[-1].append(reference_seconds())

    def running(self) -> tuple:
        """(pass, call) of the worker call running now."""
        return len(self.seconds) - 1, len(self.seconds[-1])

    def scale(self, where: tuple) -> float:
        """``REFERENCE_S`` over the references either side of a call."""
        references = self.references[where[0]]
        return 2 * REFERENCE_S / (references[where[1]] + references[where[1] + 1])

    def scaled(self, walls: list) -> list:
        """Each pass's seconds at reference speed, given its wall times.

        The reference work itself is left out: it is the benchmark's.
        """
        scaled = []
        for index, (seconds, wall) in enumerate(zip(self.seconds, walls)):
            references = self.references[index]
            glue = wall - sum(seconds) - sum(references[:-1])
            scaled.append(
                sum(value * self.scale((index, call))
                    for call, value in enumerate(seconds))
                + glue * REFERENCE_S / statistics.median(references))
        return scaled

    def _wrap(self, module, name: str) -> None:
        original = getattr(module, name)

        def timed(*args, **kwargs):
            self.references[-1].append(reference_seconds())
            started = time.perf_counter()
            result = original(*args, **kwargs)
            self.seconds[-1].append(time.perf_counter() - started)
            return result

        timed.__wrapped__ = original
        setattr(module, name, timed)


class Operations:
    """Latency of every driver-to-engine call, by request class.

    Each latency is stored with ``locate()``'s answer when it is taken: the
    enclosing worker call, whose scale it later takes.
    """

    CLASSES = {
        "/simulate": (figure6, "simulate_many"),
        "/analyse": (figure7, "analyse_many"),
        "/makespan": (figure7, "minimum_makespans_many"),
        "/workload": (workload_experiment, "simulate_workload"),
    }

    def __init__(self, locate) -> None:
        self.latencies: dict = {path: [] for path in self.CLASSES}
        self._locate = locate
        for path, (module, name) in self.CLASSES.items():
            self._wrap(module, name, self.latencies[path])

    def per_operation(self, passes: int, scale) -> dict:
        """Each operation's median latency over the passes, by class.

        Every pass makes the same calls in the same order, so the i-th call
        of a class is the same computation in every pass.  Quantiles taken
        over these medians do not depend on how many passes fit the window.
        Each latency is first multiplied by ``scale`` of where it was taken.
        """
        medians = {}
        for path, samples in self.latencies.items():
            series = [latency * scale(where) for latency, where in samples]
            per_pass = len(series) // passes
            medians[path] = [statistics.median(series[index::per_pass])
                             for index in range(per_pass)]
        return medians

    def _wrap(self, module, name: str, sink: list) -> None:
        original = getattr(module, name)

        def timed(*args, **kwargs):
            started = time.perf_counter()
            result = original(*args, **kwargs)
            sink.append((time.perf_counter() - started, self._locate()))
            return result

        timed.__wrapped__ = original
        setattr(module, name, timed)


def run_pass(goldens: dict) -> tuple[dict, int, int]:
    """One sweep: per-driver seconds, documents checked, mismatches.

    Figure 7 at its golden scale takes milliseconds and makes one
    ``analyse_many`` and one ``minimum_makespans_many`` call, so a pass runs
    it :data:`FIGURE7_REPEATS` times to give those request classes enough
    samples; its seconds are the total of the repeats.
    """
    seconds = {"figure7": 0.0}
    checked = mismatches = 0
    for name, call, repeats in (
        ("figure6", lambda: figure6.run_figure6(paper_scale()), 1),
        ("workload_sched", workload_experiment.run_workload_schedulability, 1),
        ("figure7", lambda: figure7.run_figure7(FIGURE7_GOLDEN_SCALE),
         FIGURE7_REPEATS),
    ):
        for _ in range(repeats):
            oracle_cache_clear()  # each run pays the oracle, as a fresh process does
            started = time.perf_counter()
            document = call().to_dict()
            seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - started
            checked += 1
            mismatches += document != goldens[name]
    return seconds, checked, mismatches


def load_goldens() -> dict:
    return {name: json.loads(path.read_text(encoding="utf-8"))
            for name, path in GOLDENS.items()}


def _kernel_observer(name: str):
    """Wrap ``figure6.simulate_many`` so each call's kernel batches count."""
    original = getattr(figure6, name)

    def wrapped(*args, **kwargs):
        with collect_kernel_stats() as collector:
            result = original(*args, **kwargs)
        wrapped.batches.extend(collector.batches)
        wrapped.calls.append((result.size, sorted({b.engine for b in collector.batches})))
        return result

    wrapped.batches, wrapped.calls = [], []
    wrapped.__wrapped__ = original
    setattr(figure6, name, wrapped)
    return wrapped


def install_layer_spans(recorder: Recorder):
    """Per-layer wrappers of the traced sweep; returns the kernel observer."""
    observer = _kernel_observer("simulate_many")
    install(recorder, figure6, "simulate_many", "simulation.engine")
    install(recorder, figure7, "analyse_many", "analysis.engine",
            observe=lambda r, a, k, res: r.count("analysis.tasks", len(res)))

    def observe_solve(recorder, args, kwargs, results):
        recorder.count("ilp.tasks", len(results))
        recorder.count("ilp.explored_states", sum(
            result.engine_stats.get("explored_states", 0) for result in results))
        recorder.count("ilp.degraded", sum(result.degraded for result in results))

    install(recorder, figure7, "minimum_makespans_many", "ilp.solve",
            observe=observe_solve)

    def observe_workload(recorder, args, kwargs, result):
        instances = args[0]
        recorder.count("workload.instances", len(instances))
        recorder.count("workload.numpy_calls", resolve_workload_backend(
            kwargs.get("backend", "auto")) == "numpy")
        tasks = {id(job.task): job.task for job in instances}.values()
        wcets = [float(task.graph.wcet(node)) for task in tasks
                 for node in task.graph.nodes()]
        recorder.count("workload.nodes", len(wcets))
        recorder.count("workload.fractional_nodes",
                       sum(value != int(value) for value in wcets))

    install(recorder, workload_experiment, "simulate_workload",
            "workload.simulate", observe=observe_workload)
    install(recorder, DagStructureGenerator, "generate_task", "generator.task")
    install(recorder, compiled, "compile_graph", "compiled.compile")
    return observer
