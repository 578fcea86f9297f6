"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Record  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _inputs(name, seed):
    return [(op.kind, op.inputs, op.cell) for op in next(WORKLOADS[name].rounds(seed))]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_percentile_is_nearest_rank():
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    assert run.percentile(range(1, 101), 90) == 90
    assert run.percentile(range(1, 11), 90) == 9
    assert run.percentile(range(1, 12), 90) == 10  # ceil(9.9) = 10th smallest
    assert run.percentile([3, 1, 2], 100) == 3
    assert run.percentile([3, 1, 2], 0) == 1


class _Flaky:
    """Three operations: one passes, one fails its check, one raises."""

    name = "flaky"

    def rounds(self, seed):
        while True:
            yield [Op("ok", {}), Op("bad", {}), Op("raises", {})]

    def run(self, op, tr):
        if op.kind == "raises":
            raise ArithmeticError("boom")
        return tr.call("x.y", str, op.kind), Record({"kind": op.kind})

    def check(self, op, rec):
        return ["wrong answer"] if rec.values["kind"] == "bad" else []


def test_failed_operations_are_counted_not_dropped():
    w = _Flaky()
    _, rounds, done = run.run_rounds(w, w.rounds(0), NullTracer(), max_rounds=2)
    failures = run.failures(done)
    assert rounds == 2 and len(done) == 6
    assert len(failures) == 4
    assert sum("wrong answer" in f for f in failures) == 2
    assert sum("ArithmeticError" in f for f in failures) == 2


def test_span_self_time_excludes_children():
    tr = Tracer()
    tr.begin_op("op", 0)
    tr.call("outer", lambda: tr.call("inner", sum, range(1000)))
    tr.end_op()
    summary = tr.summary()
    spans = {s[0]: s for s in tr.spans}
    inner = spans["inner"][2] - spans["inner"][1]
    outer = spans["outer"][2] - spans["outer"][1]
    assert summary["outer"] == (1, pytest.approx(outer - inner))
    assert spans["inner"][3] == tr.spans.index(spans["outer"])
    assert all(s[4] == 0 for s in tr.spans)


def test_first_round_digest_repeats():
    w = WORKLOADS["echelon"]
    digests = []
    for _ in range(2):
        _, _, done = run.run_rounds(w, w.rounds(3), NullTracer(), max_rounds=1)
        assert not run.failures(done)
        digests.append(run.output_digest(done))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "echelon", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert all(NAME.fullmatch(name) for name in metrics)
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in declared
    }
