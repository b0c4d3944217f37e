"""Service-layer workload requests plus a simulation-grouping regression.

Covers:

* ``submit_workload`` through the micro-batch facade (fingerprint cache,
  per-instance payload, metrics accounting);
* the ``POST /workload`` HTTP endpoint and ``ServiceClient.workload``;
* a regression test that a sparse task x platform burst evaluates exactly
  one cell per request.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.exceptions import ServiceError
from repro.generator.arrivals import PeriodicArrivals, TraceArrivals
from repro.service import EvaluationService, ServiceClient, start_server
from repro.service.facade import workload_payload
from repro.simulation.engine import simulate_makespan
from repro.simulation.platform import Platform
from repro.simulation.schedulers import policy_by_name
from repro.simulation.workload import (
    JobStream,
    build_workload,
    simulate_workload,
)

from strategies import make_random_heterogeneous_task, make_random_host_task

FAST_BATCHING = dict(flush_interval=0.05, quiet_interval=0.001)


def _streams():
    return [
        JobStream(
            task=make_random_heterogeneous_task(31, 0.3, n_max=18, c_max=9),
            arrivals=PeriodicArrivals(period=25.0, jitter=4.0, seed=1),
            deadline=60.0,
        ),
        JobStream(
            task=make_random_host_task(32, n_max=14, c_max=9),
            arrivals=TraceArrivals([0.0, 5.0, 40.0]),
        ),
    ]


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------
class TestFacadeWorkload:
    def test_matches_direct_simulation(self):
        streams = _streams()
        with EvaluationService(**FAST_BATCHING) as service:
            payload = service.submit_workload(streams, 150.0, Platform(2, 1))
        workload = build_workload(streams, 150.0)
        direct = simulate_workload(
            workload, Platform(2, 1), policy_by_name("breadth-first")
        )
        assert payload == workload_payload(direct)
        assert payload["instances"] == direct.count
        assert len(payload["per_instance"]) == direct.count
        entry = payload["per_instance"][0]
        assert {
            "stream",
            "index",
            "release",
            "completion",
            "response",
            "deadline",
            "missed",
        } <= set(entry)

    def test_identical_requests_hit_the_cache(self):
        streams = _streams()
        with EvaluationService(**FAST_BATCHING) as service:
            first = service.submit_workload(streams, 150.0, 2)
            second = service.submit_workload(streams, 150.0, 2)
            stats = service.stats()
            assert first == second
            assert stats["requests"]["workload"] == 2
            assert stats["cache"]["hits"] >= 1
            assert stats["engine"]["by_engine"]["workload.reference"] >= 1

    def test_random_policy_requires_seed(self):
        streams = _streams()
        with EvaluationService(**FAST_BATCHING) as service:
            with pytest.raises(ValueError):
                service.submit_workload(streams, 100.0, 2, policy="random")
            seeded = service.submit_workload(
                streams, 100.0, 2, policy="random", policy_seed=5
            )
            assert seeded["instances"] > 0

    def test_validation_errors(self):
        with EvaluationService(**FAST_BATCHING) as service:
            with pytest.raises(ValueError):
                service.submit_workload([], 100.0, 2)
            with pytest.raises(ValueError):
                service.submit_workload(_streams(), -1.0, 2)


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def http_service():
    service = EvaluationService(**FAST_BATCHING)
    server, thread = start_server(service, port=0)
    client = ServiceClient(port=server.port, timeout=120)
    yield service, server, client
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    service.close()


class TestWorkloadHTTP:
    def test_round_trip_matches_facade(self, http_service):
        service, _, client = http_service
        streams = _streams()
        wire = client.workload(
            [
                {
                    "task": stream.task,
                    "arrivals": stream.arrivals,
                    "deadline": stream.deadline,
                }
                for stream in streams
            ],
            150.0,
            cores=2,
            accelerators=1,
        )
        expected = service.submit_workload(streams, 150.0, Platform(2, 1))
        assert wire == expected

    def test_arrivals_accepted_as_documents(self, http_service):
        _, _, client = http_service
        task = make_random_host_task(33, n_max=12)
        from_object = client.workload(
            [{"task": task, "arrivals": PeriodicArrivals(period=20.0)}], 80.0
        )
        from_document = client.workload(
            [
                {
                    "task": task,
                    "arrivals": {
                        "kind": "periodic",
                        "period": 20.0,
                        "offset": 0.0,
                        "jitter": 0.0,
                        "seed": 0,
                    },
                }
            ],
            80.0,
        )
        assert from_object == from_document

    def test_bad_requests_are_400(self, http_service):
        _, _, client = http_service
        with pytest.raises(ServiceError):
            client._request("/workload", {"streams": [], "horizon": 10.0})
        with pytest.raises(ServiceError):
            client._request(
                "/workload",
                {"streams": [{"task": {}, "arrivals": {"kind": "nope"}}]},
            )

    def test_unknown_path_lists_workload_endpoint(self, http_service):
        _, server, _ = http_service
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/nope", timeout=10
            )
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert "POST /workload" in body["endpoints"]


# ----------------------------------------------------------------------
# Regression: a sparse burst evaluates one cell per request
# ----------------------------------------------------------------------
class TestSparseGridFallback:
    def test_fallback_wastes_no_cells_and_keeps_answers(self):
        # A diagonal-ish burst under one policy: 3 task rows x 3 platform
        # columns for only 4 requests.  Grouping by platform runs one task
        # column per platform, so exactly one cell is evaluated per request
        # (a task x platform grid would evaluate 9).
        tasks = [
            make_random_heterogeneous_task(50 + s, 0.2, n_max=20)
            for s in range(3)
        ]
        platforms = [Platform(2, 1), Platform(4, 1), Platform(8, 1)]
        burst = [
            (tasks[0], platforms[0]),
            (tasks[0], platforms[1]),
            (tasks[1], platforms[2]),
            (tasks[2], platforms[2]),
        ]
        service = EvaluationService(flush_interval=30.0, quiet_interval=10.0)
        with ThreadPoolExecutor(len(burst)) as pool:
            futures = [
                pool.submit(
                    service.submit_simulation, task, platform, timeout=60
                )
                for task, platform in burst
            ]
            while service.stats()["batching"]["pending"] < len(burst):
                time.sleep(0.001)
            service.close(timeout=60)
            results = [future.result(60) for future in futures]
        expected = [
            simulate_makespan(task, platform, policy_by_name("breadth-first"))
            for task, platform in burst
        ]
        assert results == expected
        stats = service.stats()
        assert stats["batching"]["batches"] == 1
        # No wasted cells.
        assert stats["engine"]["evaluated_cells"] == len(burst)
