"""The wire workloads: a ``repro serve`` subprocess and closed-loop clients.

One benchmark process drives the server with at most ``nproc`` client
threads (two on the reference machine).  ``keepalive-hot`` clients each
hold one persistent HTTP/1.1 connection (stdlib ``http.client``, as any
session-based client does); ``fresh-cold`` clients use the shipped
:class:`~repro.service.client.ServiceClient`, which opens a fresh
connection per call.  The server's own ``/metrics`` and ``/stats`` are
snapshotted around every timed window and reported as deltas.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.exceptions import ServiceError
from repro.service import client as service_client
from repro.service.client import ServiceClient

from perfbench import oracle
from perfbench.inputs import Request
from perfbench.launch_server import SPANS_PREFIX
from perfbench.spans import Recorder, install, json_shim

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HOST = "127.0.0.1"
CLIENTS = min(2, os.cpu_count() or 1)
POST_PATHS = ("/simulate", "/analyse", "/makespan", "/workload")

__all__ = ["Server", "ShutdownTimeout", "Sample", "Window", "run_window", "keepalive_worker",
           "fresh_worker", "check_answers", "install_client_spans",
           "MetricsDelta", "CLIENTS", "POST_PATHS", "child_env", "span_delta",
           "snapshot"]


def child_env() -> dict:
    """Environment of every child: the checkout's sources, its kernel cache."""
    env = dict(os.environ)
    path = str(ROOT / "src")
    env["PYTHONPATH"] = path + (os.pathsep + env["PYTHONPATH"]
                                if env.get("PYTHONPATH") else "")
    env["REPRO_KERNEL_CACHE"] = str(ROOT / ".bench_build" / "kernels")
    env["PYTHONFAULTHANDLER"] = "1"  # SIGABRT dumps stacks (Server.stop)
    return env


class ShutdownTimeout(RuntimeError):
    """A server that did not end after SIGTERM; ``elapsed`` until killed."""

    def __init__(self, elapsed: float, message: str) -> None:
        super().__init__(message)
        self.elapsed = elapsed


class Server:
    """One ``repro serve`` child with its default service flags.

    ``traced=True`` starts it through ``perfbench/launch_server.py``, which
    installs the span wrappers before handing over to the same ``main``.
    """

    def __init__(self, tag: str, traced: bool = False) -> None:
        BUILD.mkdir(parents=True, exist_ok=True)
        self.traced = traced
        name = f"{os.getpid()}-{tag}"  # concurrent runs never share files
        self.port_file = BUILD / f"port-{name}"
        self.log_path = BUILD / f"server-{name}.log"
        self.proc = None
        self.port = None

    def start(self, timeout: float = 120.0) -> float:
        """Spawn the server; seconds from spawn to the first 200 of /health."""
        self.port_file.unlink(missing_ok=True)
        if self.traced:
            command = [sys.executable, str(ROOT / "perfbench" / "launch_server.py")]
        else:
            command = [sys.executable, "-m", "repro", "serve"]
        command += ["--port", "0", "--port-file", str(self.port_file)]
        with open(self.log_path, "w", encoding="utf-8") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT,
            )
        while time.perf_counter() - started < timeout:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}:\n"
                    + self.log_path.read_text(encoding="utf-8")
                )
            if self.port is None:
                text = self.port_file.read_text() if self.port_file.exists() else ""
                if text.endswith("\n"):
                    self.port = int(text)
            if self.port is not None and self._healthy():
                return time.perf_counter() - started
            time.sleep(0.002)
        self.kill()
        raise RuntimeError("server did not become healthy in time")

    def _healthy(self) -> bool:
        connection = http.client.HTTPConnection(HOST, self.port, timeout=5)
        try:
            connection.request("GET", "/health")
            return connection.getresponse().status == 200
        except OSError:
            return False
        finally:
            connection.close()

    def get(self, path: str) -> dict:
        request = urllib.request.Request(
            f"http://{HOST}:{self.port}{path}",
            headers={"Accept": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read())

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) so far, in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> float:
        """SIGTERM and wait for the drain; seconds until the process ended.

        A server still running ``timeout`` seconds later gets SIGABRT, so
        the fault handler writes every thread's stack into its log, and is
        then killed; :class:`ShutdownTimeout` carries the log's tail.
        """
        started = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGABRT)
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.kill()
            tail = self.log_path.read_text(encoding="utf-8")[-4000:]
            raise ShutdownTimeout(
                time.perf_counter() - started,
                f"server still running {timeout:g} s after SIGTERM:\n{tail}")
        elapsed = time.perf_counter() - started
        if code != 0:
            raise RuntimeError(f"server exited with {code} on SIGTERM")
        return elapsed

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, *exc_info: object) -> None:
        """Kill a server still running; keep the log only of a failure."""
        self.kill()
        self.port_file.unlink(missing_ok=True)
        if exc_type is None and self.proc is not None and self.proc.returncode == 0:
            self.log_path.unlink(missing_ok=True)

    def spans(self) -> list:
        """Every span snapshot a traced server printed, oldest first."""
        return [
            json.loads(line[len(SPANS_PREFIX):])
            for line in self.log_path.read_text(encoding="utf-8").splitlines()
            if line.startswith(SPANS_PREFIX)
        ]

    def mark(self, timeout: float = 30.0) -> None:
        """Have a traced server print a span snapshot, and wait for it."""
        expected = len(self.spans()) + 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        while len(self.spans()) < expected:
            if time.perf_counter() > deadline:
                raise RuntimeError("traced server did not answer SIGUSR1")
            time.sleep(0.005)


def span_delta(first: dict, last: dict) -> dict:
    """Aggregates of span snapshot ``last`` minus those of ``first``."""
    before = {(row["cls"], row["name"]): row for row in first["spans"]}
    rows = []
    for row in last["spans"]:
        old = before.get((row["cls"], row["name"]))
        if old is not None:
            row = dict(row, **{key: row[key] - old[key]
                               for key in ("count", "total_s", "self_s")})
        if row["count"]:
            rows.append(row)
    counters = {key: value - first["counters"].get(key, 0)
                for key, value in last["counters"].items()}
    return {"spans": rows, "counters": counters}


# ----------------------------------------------------------------------
# Closed-loop clients
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One request as the client saw it."""

    request: Request
    latency: float
    status: int
    payload: object


@dataclass
class Window:
    """Every sample of one phase, plus the wall time of its passes."""

    samples: list
    seconds: float
    passes: list = field(default_factory=list)


def _post(connection: http.client.HTTPConnection, request: Request,
          recorder) -> Sample:
    started = time.perf_counter()
    context = recorder.span("client.request", request.path) if recorder else nullcontext()
    with context:
        body = json.dumps(request.document).encode("utf-8")
        try:
            connection.request("POST", request.path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            data = response.read()
            status = response.status
            payload = json.loads(data) if status == 200 else None
        except (OSError, http.client.HTTPException):
            connection.close()
            status, payload = 0, None
    return Sample(request, time.perf_counter() - started, status, payload)


def keepalive_worker(port: int, requests: list, offset: int, recorder=None):
    """One persistent connection cycling ``requests`` from ``offset``."""
    def run(end: float, limit: int) -> tuple[list, list]:
        connection = http.client.HTTPConnection(HOST, port, timeout=300)
        samples, marks = [], [time.perf_counter()]
        index = offset
        try:
            while time.perf_counter() < end and len(samples) < limit:
                samples.append(_post(connection, requests[index % len(requests)],
                                     recorder))
                index += 1
                if (index - offset) % len(requests) == 0:
                    marks.append(time.perf_counter())
        finally:
            connection.close()
        return samples, marks
    return run


def _call(client: ServiceClient, request: Request) -> dict:
    document = request.document
    if request.path == "/simulate":
        return {"makespan": client.simulate(
            document["task"], document["cores"], document["accelerators"],
            policy=document["policy"])}
    if request.path == "/analyse":
        return client.analyse(document["task"], document["cores"],
                              include_naive=document["include_naive"])
    if request.path == "/makespan":
        return client.makespan(document["task"], document["cores"],
                               document["accelerators"],
                               method=document["method"])
    return client.workload(document["streams"], document["horizon"],
                           document["cores"], document["accelerators"],
                           policy=document["policy"])


def fresh_worker(port: int, blocks: list, recorder=None):
    """``ServiceClient`` calls over ``blocks``: a fresh connection each."""
    def run(end: float, limit: int) -> tuple[list, list]:
        client = ServiceClient(HOST, port, timeout=300)
        samples, marks = [], [time.perf_counter()]
        for block in blocks:
            for request in block:
                if time.perf_counter() >= end or len(samples) >= limit:
                    return samples, marks
                started = time.perf_counter()
                context = (recorder.span("client.request", request.path)
                           if recorder else nullcontext())
                try:
                    with context:
                        payload, status = _call(client, request), 200
                except ServiceError:
                    payload, status = None, 500
                samples.append(Sample(request, time.perf_counter() - started,
                                      status, payload))
            marks.append(time.perf_counter())
        if len(samples) < limit:
            raise RuntimeError("fresh-cold ran out of pre-generated requests")
        return samples, marks
    return run


def run_window(workers: list, seconds: float, limit: int = 10**9) -> Window:
    """Run the closed-loop workers together for ``seconds`` (or ``limit``
    requests each) and gather their samples."""
    results: list = [None] * len(workers)
    errors: list = []
    start = threading.Barrier(len(workers) + 1)
    end_holder: list = []

    def body(index: int, worker) -> None:
        start.wait()
        try:
            results[index] = worker(end_holder[0], limit)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=body, args=(index, worker), daemon=True)
               for index, worker in enumerate(workers)]
    for thread in threads:
        thread.start()
    began = time.perf_counter()
    end_holder.append(began + seconds)
    start.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    if errors:
        raise errors[0]
    samples = [sample for result in results for sample in result[0]]
    passes = [after - before for result in results
              for before, after in zip(result[1], result[1][1:])]
    return Window(samples, elapsed, passes)


def check_answers(samples: list) -> tuple[int, int]:
    """(errors, wrong answers) of ``samples`` against the references."""
    expected: dict = {}
    errors = wrong = 0
    for sample in samples:
        if sample.status != 200:
            errors += 1
            continue
        key = id(sample.request)
        if key not in expected:
            expected[key] = oracle.reference(sample.request.path,
                                             sample.request.document)
        if not oracle.matches(sample.request.path, expected[key], sample.payload):
            wrong += 1
    return errors, wrong


def install_client_spans(recorder: Recorder) -> None:
    """Client-side spans: encode/decode, connect, and attempts per call."""
    global json
    json = json_shim(recorder, json, "client.encode", "client.decode")
    service_client.json = json_shim(recorder, json, "client.encode",
                                    "client.decode")
    install(recorder, http.client.HTTPConnection, "connect", "client.connect")
    install(recorder, ServiceClient, "_request_once", "client.attempt")


# ----------------------------------------------------------------------
# Server counters: /metrics and /stats deltas over a window
# ----------------------------------------------------------------------


class MetricsDelta:
    """Differences of the server's own counters between two snapshots."""

    def __init__(self, before: tuple, after: tuple) -> None:
        (self.m0, self.s0), (self.m1, self.s1) = before, after

    @staticmethod
    def _series(doc: dict, kind: str, name: str, match: dict, keep=None) -> list:
        return [
            series for series in doc[kind].get(name, {}).get("series", [])
            if all(series["labels"].get(key) == value
                   for key, value in match.items())
            and (keep is None or keep(series["labels"]))
        ]

    def counter(self, name: str, keep=None, **match) -> float:
        """Delta of a counter over the series whose labels match."""
        def total(doc):
            return sum(s["value"]
                       for s in self._series(doc, "counters", name, match, keep))
        return total(self.m1) - total(self.m0)

    def histogram(self, name: str, **match) -> tuple[list, list, float, int]:
        """(bucket bounds, delta counts, delta sum, delta count)."""
        buckets = self.m1["histograms"].get(name, {}).get("buckets", [])
        counts = [0] * (len(buckets) + 1)
        total, count = 0.0, 0
        for sign, doc in ((1, self.m1), (-1, self.m0)):
            for series in self._series(doc, "histograms", name, match):
                counts = [c + sign * v for c, v in zip(counts, series["counts"])]
                total += sign * series["sum"]
                count += sign * series["count"]
        return buckets, counts, total, count

    def quantile(self, name: str, q: float, **match) -> float:
        """Rank-interpolated quantile of the delta histogram."""
        buckets, counts, _, count = self.histogram(name, **match)
        if not count:
            return 0.0
        rank, cumulative = q * count, 0
        for index, bucket_count in enumerate(counts):
            if not bucket_count:
                continue
            previous, cumulative = cumulative, cumulative + bucket_count
            if cumulative >= rank:
                lower = buckets[index - 1] if index else 0.0
                upper = buckets[index] if index < len(buckets) else lower
                return lower + (upper - lower) * (rank - previous) / bucket_count
        return buckets[-1]

    def stat(self, *path: str) -> float:
        def read(doc):
            for key in path:
                doc = doc[key]
            return doc
        return read(self.s1) - read(self.s0)


def snapshot(server: Server) -> tuple:
    return server.get("/metrics"), server.get("/stats")
