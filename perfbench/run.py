"""The repository's benchmark: wire latency, the paper sweep, a layer ledger.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload keepalive-hot --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

``keepalive-hot``  cache hits over persistent HTTP/1.1 connections
``fresh-cold``     never-seen tasks through ``ServiceClient`` (fresh
                   connection per call): every request runs an engine
``paper-sweep``    the figure 6 / workload / figure 7 drivers in-process

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` splits the window into an untraced and a traced half and
prints every per-layer metric (layers a workload does not exercise read 0).
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, sweep, wire  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402

from repro.simulation._kernels import load_kernel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Per-class ledger tolerance: client latency and the sum of the stage
#: self times (client + wire gap + server spans) may differ by at most
#: this share of the latency, or this many milliseconds, whichever is more.
LEDGER_SHARE, LEDGER_FLOOR_MS = 0.05, 0.1
SETUP_REPEATS = 3
#: fresh-cold requests generated per second of window (all clients); a
#: client that runs out fails the run loudly rather than reusing a task.
FRESH_RATE_CAP = 160


def quantile(values, q: float) -> float:
    """``q``-quantile (0..1) by linear interpolation; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return quantile(list(values), 0.5)


def host_reference_ms(repeats: int = 5) -> float:
    """Median time of the sweep's reference work: how fast the host runs now.

    CPU-bound figures follow the host's speed, which drifts on shared
    machines; this control lets a reader tell such drift from a change.
    """
    return median(sweep.reference_seconds() for _ in range(repeats)) * 1e3


def latency_metrics(samples, seconds: float) -> dict:
    ok = [s for s in samples if s.status == 200]
    values = {
        "throughput_rps": len(ok) / seconds,
        "latency_p50_ms": quantile([s.latency for s in ok], 0.5) * 1e3,
        "latency_p99_ms": quantile([s.latency for s in ok], 0.99) * 1e3,
    }
    for path in wire.POST_PATHS:
        values[f"{path[1:]}_p50_ms"] = quantile(
            [s.latency for s in ok if s.request.path == path], 0.5) * 1e3
    return values


# ----------------------------------------------------------------------
# Wire workloads
# ----------------------------------------------------------------------
class WireWorkload:
    """Inputs and client factories of one wire workload."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        if name == "keepalive-hot":
            self.cycle, self.gen = inputs.keepalive_inputs(seed)
        else:
            per_client = int(seconds * FRESH_RATE_CAP / wire.CLIENTS)
            blocks_per_client = per_client // inputs.FRESH_BLOCK_SIZE + 2
            self.blocks, self.gen = inputs.fresh_inputs(
                seed, wire.CLIENTS * blocks_per_client)

    def warmup(self, port: int) -> wire.Window:
        """Untimed: fills the cache (keepalive-hot) or finishes lazy set-up."""
        if self.name == "keepalive-hot":
            share = len(self.cycle) // wire.CLIENTS
            workers = [wire.keepalive_worker(port, self.cycle, k * share)
                       for k in range(wire.CLIENTS)]
            limit = -(-len(self.cycle) // wire.CLIENTS)
            return wire.run_window(workers, 600.0, limit)
        workers = [wire.fresh_worker(port, self.blocks[k:k + 1])
                   for k in range(wire.CLIENTS)]
        return wire.run_window(workers, 600.0, inputs.FRESH_BLOCK_SIZE)

    def timed(self, port: int, seconds: float, recorder=None,
              part: int = 0) -> wire.Window:
        if self.name == "keepalive-hot":
            share = len(self.cycle) // wire.CLIENTS
            workers = [wire.keepalive_worker(port, self.cycle, k * share, recorder)
                       for k in range(wire.CLIENTS)]
        else:
            # Blocks 0..CLIENTS-1 warmed up; the rest split by part and client.
            rest = self.blocks[wire.CLIENTS:]
            half = len(rest) // 2
            rest = rest if part == 0 else (rest[:half] if part == 1 else rest[half:])
            workers = [wire.fresh_worker(port, rest[k::wire.CLIENTS], recorder)
                       for k in range(wire.CLIENTS)]
        return wire.run_window(workers, seconds)


def _phase(load: WireWorkload, server: wire.Server, seconds: float,
           recorder=None, part: int = 0):
    warm = load.warmup(server.port)
    if recorder is not None:
        wire.install_client_spans(recorder)
        server.mark()
    before = wire.snapshot(server)
    window = load.timed(server.port, seconds, recorder, part)
    after = wire.snapshot(server)
    if recorder is not None:
        server.mark()
    traces = server.get("/traces?limit=200")["traces"] if recorder else []
    return warm, window, wire.MetricsDelta(before, after), traces


def _counts(phase: str, window: wire.Window, wrong: int, errors: int) -> dict:
    sent = len(window.samples)
    return {f"phase.{phase}.sent": sent,
            f"phase.{phase}.succeeded": sent - errors - wrong,
            f"phase.{phase}.failed": errors + wrong}


class Shutdowns:
    """The server stops of one run: SIGTERM-to-exit seconds and failures."""

    def __init__(self) -> None:
        self.seconds: list = []
        self.failures: list = []

    def stop(self, server: wire.Server) -> float:
        try:
            elapsed = server.stop()
        except wire.ShutdownTimeout as error:
            self.failures.append(str(error))
            elapsed = error.elapsed
        self.seconds.append(elapsed)
        return elapsed


def run_wire(name: str, seed: int, seconds: float, trace: bool):
    load = WireWorkload(name, seed, seconds)
    shutdowns = Shutdowns()
    values: dict = {}
    checked = []
    if not trace:
        setups = []
        for repeat in range(SETUP_REPEATS - 1):
            with wire.Server(f"setup{repeat}") as probe:
                setups.append(probe.start())
                shutdowns.stop(probe)
        with wire.Server("main") as server:
            setups.append(server.start())
            warm, window, delta, _ = _phase(load, server, seconds)
            values["peak_rss_mb"] = server.peak_rss_mb()
            shutdowns.stop(server)
        values.update(latency_metrics(window.samples, window.seconds))
        values["setup_s"] = median(setups)
        values["sweep_s"] = median(window.passes)
        checked = [("warmup", warm), ("timed", window)]
        report = {"samples": len(window.samples), "passes": len(window.passes),
                  "window_s": window.seconds,
                  "cache_hits": delta.stat("cache", "hits"),
                  "cache_misses": delta.stat("cache", "misses")}
    else:
        values, checked, report = _traced_wire(load, seconds, shutdowns)
    # Every server stop is an operation too: one that hangs fails.
    attempted, failed, wrong_total = len(shutdowns.seconds), len(shutdowns.failures), 0
    if shutdowns.failures:
        report["shutdown_failures"] = shutdowns.failures
    for phase, window in checked:
        errors, wrong = wire.check_answers(window.samples)
        attempted += len(window.samples)
        failed += errors + wrong
        wrong_total += wrong
        if phase in ("warmup", "timed"):
            values.update(_counts(phase, window, wrong, errors))
    values["failed_ratio"] = failed / attempted
    values["generator.task_ms"] = load.gen.generate_s / load.gen.generated * 1e3
    correct = wrong_total == 0 and report.get("ledger_ok", True)
    return values, attempted, failed, correct, report


def _traced_wire(load: WireWorkload, seconds: float, shutdowns: Shutdowns):
    """Untraced half on ``repro serve``, traced half on the launcher."""
    half = seconds / 2
    with wire.Server("plain") as plain:
        plain.start()
        warm_a, window_a, _, _ = _phase(load, plain, half, part=1)
        shutdowns.stop(plain)
    recorder = Recorder()
    with wire.Server("traced", traced=True) as traced:
        traced.start()
        warm, window, delta, traces = _phase(load, traced, half, recorder, part=2)
        shutdown_s = shutdowns.stop(traced)
        server_spans = wire.span_delta(*traced.spans()[:2])
    values, report = ledger(window, delta, Spans(recorder.snapshot()),
                            Spans(server_spans))
    untraced_p50 = quantile([s.latency for s in window_a.samples if s.status == 200], 0.5)
    traced_p50 = quantile([s.latency for s in window.samples if s.status == 200], 0.5)
    values["tracing.overhead_ms"] = (traced_p50 - untraced_p50) * 1e3
    values["http.shutdown_s"] = shutdown_s
    posts = [t for t in traces if t["name"] == "http.request"]
    values["tracing.spans_per_request"] = (
        statistics.mean(t["spans"] for t in posts) if posts else 0.0)
    values["tracing.ring_bytes"] = delta.s1["tracing"]["ring_bytes"]
    checked = [("warmup", warm), ("timed", window), ("untraced-warmup", warm_a),
               ("untraced", window_a)]
    return values, checked, report


class Spans:
    """Queries over one span snapshot (``perfbench.spans`` aggregates)."""

    def __init__(self, snapshot: dict) -> None:
        self.rows = snapshot["spans"]
        self.counters = snapshot["counters"]

    def _select(self, name=None, cls=...):
        return [row for row in self.rows
                if (name is None or row["name"] == name)
                and (cls is ... or row["cls"] == cls)]

    def total(self, name, key="total_s", cls=...) -> float:
        return sum(row[key] for row in self._select(name, cls))

    def count(self, name, cls=...) -> int:
        return sum(row["count"] for row in self._select(name, cls))

    def in_requests(self, name, key="total_s") -> float:
        """Seconds of ``name`` spent inside client requests (POST classes)."""
        return sum(self.total(name, key, path) for path in wire.POST_PATHS)

    def per_call_ms(self, name, key="total_s") -> float:
        return _ratio_ms(self.total(name, key), self.count(name))

    def per_counter_ms(self, name, counter) -> float:
        return _ratio_ms(self.total(name), self.counters.get(counter, 0))

    def counter_per_call(self, counter, name) -> float:
        calls = self.count(name)
        return self.counters.get(counter, 0) / calls if calls else 0.0

    def by_class(self, cls) -> dict:
        return {row["name"]: row["self_s"] for row in self._select(cls=cls)}


def ledger(window: wire.Window, delta: wire.MetricsDelta, client: Spans,
           server: Spans):
    """Per-layer values and the per-class latency ledger of a traced window."""
    samples = window.samples
    requests = len(samples)
    report: dict = {"classes": {}, "ledger_ok": True,
                    "tolerance": f"max({LEDGER_SHARE:.0%} of latency, "
                                 f"{LEDGER_FLOOR_MS} ms)"}
    gap_s = residual_s = handler_s = 0.0
    handled = 0
    for path in wire.POST_PATHS:
        mine = [s for s in samples if s.request.path == path]
        if not mine:
            continue
        n = len(mine)
        latency = sum(s.latency for s in mine) / n
        client_self = {name: client.total(name, cls=path) / n
                       for name in ("client.encode", "client.connect", "client.decode")}
        _, _, seconds, count = delta.histogram("repro_http_request_seconds",
                                               endpoint=path)
        handler = seconds / count if count else 0.0
        server_self = {name: value / n
                       for name, value in server.by_class(path).items()}
        gap = latency - sum(client_self.values()) - handler
        residual = latency - sum(client_self.values()) - gap - sum(server_self.values())
        ok = (count == n == server.count("http.request", cls=path)
              and abs(residual) <= max(LEDGER_SHARE * latency, LEDGER_FLOOR_MS / 1e3))
        report["ledger_ok"] &= ok
        gap_s += gap * n
        handler_s += seconds
        handled += count
        residual_s = max(residual_s, abs(residual))
        report["classes"][path] = {
            "requests": n, "latency_ms": latency * 1e3, "handler_ms": handler * 1e3,
            "wire_gap_ms": gap * 1e3, "residual_ms": residual * 1e3, "ok": ok,
            "stages_ms": {name: value * 1e3 for name, value in
                          {**client_self, **server_self}.items()},
        }
    hits = delta.stat("cache", "hits")
    lookups = hits + delta.stat("cache", "misses")
    misses = lookups - hits
    connects = sum(client.count("client.connect", path) for path in wire.POST_PATHS)
    attempts = sum(client.count("client.attempt", path) for path in wire.POST_PATHS)
    makespans = [s.payload for s in samples
                 if s.request.path == "/makespan" and s.status == 200]
    workload_wcets = [
        value for s in samples if s.request.path == "/workload"
        for stream in s.request.document["streams"]
        for value in stream["task"]["nodes"].values()]
    values = {
        "client.connect_ms": client.in_requests("client.connect") / requests * 1e3,
        "client.encode_ms": client.in_requests("client.encode") / requests * 1e3,
        "client.retries": max(0, attempts - requests),
        "http.handler_ms": _ratio_ms(handler_s, handled),
        "http.wire_gap_ms": gap_s / requests * 1e3,
        "http.non2xx": delta.counter(
            "repro_http_responses_total",
            keep=lambda labels: labels.get("endpoint") in wire.POST_PATHS
            and not str(labels.get("status")).startswith("2")),
        "json_io.parse_ms": server.per_call_ms("json_io.parse", "self_s"),
        "json_io.decode_ms": server.per_call_ms("json_io.decode"),
        "fingerprint.task_ms": server.per_call_ms("fingerprint.task"),
        "compiled.compile_ms": server.per_call_ms("compiled.compile"),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.lookups": lookups,
        "cache.puts": server.count("cache.put"),
        "cache.evictions": delta.stat("cache", "evictions"),
        "cache.bytes": delta.s1["cache"]["bytes"],
        "batching.queue_wait_p50_ms": delta.quantile(
            "repro_service_queue_wait_seconds", 0.5) * 1e3,
        "batching.queue_wait_p99_ms": delta.quantile(
            "repro_service_queue_wait_seconds", 0.99) * 1e3,
        "batching.batch_size": _mean_of(delta, "repro_service_batch_size"),
        "batching.flushes": delta.counter("repro_service_batch_flushes_total"),
        "batching.shed": delta.counter("repro_service_batch_shed_total"),
        "facade.submit_self_ms": server.per_call_ms("facade.submit", "self_s"),
        "facade.cells_per_miss": (
            delta.counter("repro_service_evaluated_cells_total") / misses
            if misses else 0.0),
        "facade.inflight_joins": delta.counter("repro_service_inflight_joins_total"),
        "simulation.engine_ms": server.per_call_ms("simulation.engine"),
        "simulation.lanes_per_call": server.counter_per_call(
            "simulation.lanes", "simulation.engine"),
        "simulation.calls_dense": delta.counter(
            "repro_service_sim_engine_total", engine="dense"),
        "simulation.calls_lockstep": delta.counter(
            "repro_service_sim_engine_total", engine="lockstep"),
        "simulation.calls_compiled": delta.counter(
            "repro_service_sim_engine_total", engine="compiled"),
        "kernels.steps": delta.counter("repro_kernel_steps_total"),
        "kernels.lane_occupancy": _mean_of(delta, "repro_kernel_lane_occupancy"),
        "analysis.task_ms": server.per_counter_ms("analysis.engine", "analysis.tasks"),
        "analysis.tasks": server.counters.get("analysis.tasks", 0),
        "ilp.solve_ms": server.per_counter_ms("ilp.solve", "ilp.tasks"),
        "ilp.explored_states": (
            statistics.mean(p["engine_stats"].get("explored_states", 0)
                            for p in makespans) if makespans else 0.0),
        "ilp.degraded": delta.counter("repro_service_degraded_total"),
        "workload.simulate_ms": server.per_call_ms("workload.simulate"),
        "workload.instances": server.counter_per_call(
            "workload.instances", "workload.simulate"),
        "workload.backend": server.counter_per_call(
            "workload.numpy_calls", "workload.simulate"),
        "ledger.residual_ms": residual_s * 1e3,
        "share.cache_hit": hits / lookups if lookups else 0.0,
        "share.keepalive": max(0.0, 1.0 - max(connects, attempts) / requests),
        "share.fractional_wcet": _fractional_share(workload_wcets),
    }
    return values, report


def _mean_of(delta: wire.MetricsDelta, name: str) -> float:
    _, _, total, count = delta.histogram(name)
    return total / count if count else 0.0


def _ratio_ms(seconds: float, count: float) -> float:
    return seconds / count * 1e3 if count else 0.0


def _fractional_share(wcets: list) -> float:
    """Share of WCETs that are not whole numbers (0 when there are none)."""
    return (sum(float(value) != int(value) for value in wcets) / len(wcets)
            if wcets else 0.0)


# ----------------------------------------------------------------------
# Paper sweep
# ----------------------------------------------------------------------
def run_sweep(seconds: float, trace: bool):
    """The paper sweep; untraced, every time but setup_s at reference speed.

    See :mod:`perfbench.sweep` for the scaling; the report line also holds
    each pass's wall seconds, the reference work included.
    """
    goldens = sweep.load_goldens()
    values: dict = {}
    report: dict = {}
    workers = None
    if not trace:
        workers = sweep.Workers()
        values["setup_s"] = median(
            sweep.setup_seconds() for _ in range(SETUP_REPEATS))
        operations = sweep.Operations(locate=workers.running)
    passes, attempted, mismatches = _sweep_window(
        goldens, seconds / 2 if trace else seconds, workers)
    if trace:
        recorder = Recorder()
        observer = sweep.install_layer_spans(recorder)
        untraced = [sum(p.values()) for p in passes]
        traced_passes, traced_checked, traced_mismatches = _sweep_window(
            goldens, seconds / 2)
        attempted += traced_checked
        mismatches += traced_mismatches
        values.update(_sweep_layers(Spans(recorder.snapshot()), observer,
                                    traced_passes))
        values["tracing.overhead_ms"] = (
            median([sum(p.values()) for p in traced_passes])
            - median(untraced)) * 1e3
        passes = passes + traced_passes
    else:
        calls = sum(len(series) for series in operations.latencies.values())
        medians = operations.per_operation(len(passes), workers.scale)
        everything = [value for series in medians.values() for value in series]
        scaled = workers.scaled([sum(p.values()) for p in passes])
        values.update({
            "throughput_rps": calls / sum(scaled),
            "latency_p50_ms": quantile(everything, 0.5) * 1e3,
            "latency_p99_ms": quantile(everything, 0.99) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sweep_s": median(scaled),
        })
        for path, series in medians.items():
            values[f"{path[1:]}_p50_ms"] = quantile(series, 0.5) * 1e3
        report["operations"] = {path: len(series)
                                for path, series in operations.latencies.items()}
        report["scaled_passes_s"] = [round(value, 4) for value in scaled]
    report["passes"] = [{k: round(v, 4) for k, v in p.items()} for p in passes]
    values["failed_ratio"] = mismatches / attempted
    return values, attempted, mismatches, mismatches == 0, report


def _sweep_window(goldens: dict, seconds: float, workers=None):
    """Whole passes while the next one still fits ``seconds`` (at least one).

    Each pass starts from an empty collector, so its full collections fall
    on the same calls in every pass; one of them takes up to 0.3 s.
    """
    passes, checked, mismatches = [], 0, 0
    started = time.perf_counter()
    while True:
        gc.collect()
        if workers is not None:
            workers.start_pass()
        seconds_by_driver, documents, wrong = sweep.run_pass(goldens)
        if workers is not None:
            workers.end_pass()
        passes.append(seconds_by_driver)
        checked += documents
        mismatches += wrong
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            return passes, checked, mismatches


def _sweep_layers(spans: Spans, observer, passes) -> dict:
    engines = [engine for _, used in observer.calls for engine in (used or ["dense"])]
    capacity = sum(batch.steps * batch.lanes for batch in observer.batches)
    return {
        "compiled.compile_ms": spans.per_call_ms("compiled.compile"),
        "simulation.engine_ms": spans.per_call_ms("simulation.engine"),
        "simulation.lanes_per_call": (
            statistics.mean(size for size, _ in observer.calls)
            if observer.calls else 0.0),
        "simulation.calls_dense": engines.count("dense"),
        "simulation.calls_lockstep": engines.count("lockstep"),
        "simulation.calls_compiled": engines.count("compiled"),
        "kernels.steps": sum(batch.steps for batch in observer.batches),
        "kernels.lane_occupancy": (
            sum(batch.lane_steps for batch in observer.batches) / capacity
            if capacity else 0.0),
        "analysis.task_ms": spans.per_counter_ms("analysis.engine", "analysis.tasks"),
        "analysis.tasks": spans.counters.get("analysis.tasks", 0),
        "ilp.solve_ms": spans.per_counter_ms("ilp.solve", "ilp.tasks"),
        "ilp.explored_states": (
            spans.counters.get("ilp.explored_states", 0) / spans.counters["ilp.tasks"]
            if spans.counters.get("ilp.tasks") else 0.0),
        "ilp.degraded": spans.counters.get("ilp.degraded", 0),
        "workload.simulate_ms": spans.per_call_ms("workload.simulate"),
        "workload.instances": spans.counter_per_call(
            "workload.instances", "workload.simulate"),
        "workload.backend": spans.counter_per_call(
            "workload.numpy_calls", "workload.simulate"),
        "share.fractional_wcet": (
            spans.counters.get("workload.fractional_nodes", 0)
            / spans.counters["workload.nodes"]
            if spans.counters.get("workload.nodes") else 0.0),
        "generator.task_ms": spans.per_call_ms("generator.task"),
        "experiments.figure6_s": median([p["figure6"] for p in passes]),
        "experiments.workload_sched_s": median(
            [p["workload_sched"] for p in passes]),
        "experiments.figure7_s": (
            median([p["figure7"] for p in passes]) / sweep.FIGURE7_REPEATS),
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if load_kernel() is None:  # builds the kernel once per checkout, untimed
        raise RuntimeError("the compiled simulation kernel is unavailable")
    reference_before = host_reference_ms()
    if args.workload == "paper-sweep":
        values, attempted, failed, correct, report = run_sweep(
            args.seconds, bool(args.trace))
    else:
        values, attempted, failed, correct, report = run_wire(
            args.workload, args.seed, args.seconds, bool(args.trace))
    reference_after = host_reference_ms()
    values["host.reference_ms"] = (reference_before + reference_after) / 2
    report["host_reference_ms"] = [reference_before, reference_after]
    declared = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    names = {metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
    unknown = set(values) - names
    if unknown:
        raise RuntimeError(f"undeclared metrics computed: {sorted(unknown)}")
    metrics = {}
    for metric in declared:
        if args.trace == 0 and metric["name"] not in values:
            raise RuntimeError(f"end-to-end metric {metric['name']} not measured")
        metrics[metric["name"]] = {"value": float(values.get(metric["name"], 0.0)),
                                   "unit": metric["unit"]}
    print(json.dumps({"report": report}, default=str))
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
