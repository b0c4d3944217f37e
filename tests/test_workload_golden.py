"""Golden regression test for the schedulability-under-load curve.

The expected curve is committed under
``benchmarks/results/workload_schedulability.json``.  The sweep exercises
the whole online-workload stack -- seeded stream-task generation, jittered
periodic arrivals, ``build_workload`` unrolling, and the shared-capacity
workload simulator -- so a bit-identical golden pins all of it:
any change to draws, event ordering, or float evaluation order shows up
here.  The sweep must also be bit-identical under ``--jobs`` (each
(utilisation, policy) cell is a deterministic seeded simulation).

Regenerate the golden file (after an *intentional* change) with::

    PYTHONPATH=src python tests/test_workload_golden.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.workload import (
    POLICIES,
    UTILISATION_GRID,
    run_workload_schedulability,
)

GOLDEN_PATH = (
    Path(__file__).parent.parent
    / "benchmarks"
    / "results"
    / "workload_schedulability.json"
)


def _run(jobs=None) -> dict:
    return run_workload_schedulability(jobs=jobs).to_dict()


class TestWorkloadGolden:
    def test_matches_golden_curve(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert _run() == golden

    def test_bit_identical_under_jobs(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert _run(jobs=2) == golden

    def test_curve_shape(self):
        """Structural sanity of the committed curve itself.

        A valid schedulability curve is a miss *ratio* (within [0, 1])
        that is zero while the platform keeps up and high once the
        offered load exceeds capacity -- the knee is the whole point of
        the experiment, so its presence is asserted, not just the shape
        of the container.
        """
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        series = golden["series"]
        assert [entry["label"] for entry in series] == list(POLICIES)
        for entry in series:
            assert entry["x"] == list(UTILISATION_GRID)
            ratios = entry["y"]
            assert all(0.0 <= ratio <= 1.0 for ratio in ratios)
            # Underloaded left edge keeps every deadline ...
            assert ratios[0] == 0.0
            # ... and past saturation the stream backlog compounds.
            assert ratios[-1] > 0.25
        # Every sweep point simulates the same released-instance count
        # (the horizon scales with the mean period by construction).
        instances = golden["metadata"]["instances_per_point"]
        assert len(set(instances)) == 1 and instances[0] > 0


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(_run(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"golden curve written to {GOLDEN_PATH}")
    else:
        print(__doc__)
