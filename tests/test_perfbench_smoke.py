"""The benchmark harness still runs on the library: one checked operation
per workload, so a change under src/ cannot break perfbench unnoticed."""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_first_operation_of_each_workload():
    start = time.perf_counter()
    for name in sorted(WORKLOADS):
        w = WORKLOADS[name]
        first = next(w.rounds(1))[0]
        _, _, done = run.run_rounds(w, iter([[first]]), NullTracer(), max_rounds=1)
        assert len(done) == 1 and not run.failures(done), (name, run.failures(done))
    assert time.perf_counter() - start < 5
