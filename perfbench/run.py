"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload coset --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The workload runs closed-loop from one caller, in this process, with no
threads: whole rounds of operations (see workloads.py) until ``--seconds``
of timed wall clock have passed and at least 100 operations are done, so
that ten of them lie beyond the 90th percentile. Outputs are checked after
the timed loop. With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` a traced run carries the per-layer
ones and writes its spans to perfbench/out/. The line before it holds the
run metadata and the digest of the first round's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100  # nearest-rank p90 of 100 samples leaves 10 beyond it
SETUP_PROBES = 5
CALIBRATION_LOOPS = 1_000_000

SPAN_NAMES = (
    "subgroups.hnf",
    "subgroups.saturate",
    "subgroups.kernel_lattice_at_level",
    "subgroups.kernel_count_at_level",
    "subgroups.orthogonal_complement",
    "subgroups.sum_and_intersection",
    "subgroups.degree_surrogate",
    "mordell_weil.minimal_coset",
    "mordell_weil.nt_height",
    "reductions.classify_point",
    "reductions.gamma_to_torsion_variety",
    "reductions.transverse_lift",
    "enumeration.brute_force_minimal_coset",
    "enumeration.enumerate_subgroups",
    "siegel.small_solution",
    "siegel.complete_to_square",
    "bounds.evaluate_bound",
    "bounds.exponent_identities",
    "serialize.parse_matrix_text",
    "serialize.module_spec_from_json_dict",
    "serialize.dumps_canonical",
    "cli.main",
)


def percentile(values, p: float):
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop, to make machine drift visible."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i & 7
    return time.perf_counter() - start


@dataclass
class Done:
    """One attempted operation; ``text`` is kept for the first round only."""

    round: int
    kind: str
    cell: tuple
    seconds: float
    failure: str | None
    flags: dict
    text: str | None


def _attempt(workload, op, tracer, op_id):
    """Run one operation, timed; then, untimed, check its outputs. Returns
    (seconds, output text, failure or None, flags)."""
    tracer.begin_op(f"op.{workload.name}", op_id)
    start = time.perf_counter()
    try:
        text, record = workload.run(op, tracer)
        failure = None
    except Exception:  # a failed operation is counted, not fatal
        text, record, failure = None, None, traceback.format_exc(limit=-2)
    seconds = time.perf_counter() - start
    tracer.end_op()
    if record is not None:
        try:
            failure = "; ".join(workload.check(op, record)) or None
        except Exception:
            failure = traceback.format_exc(limit=-2)
    return seconds, text, failure, record.flags if record is not None else {}


def run_rounds(workload, rounds, tracer, seconds=0.0, min_ops=0, max_rounds=None):
    """Run whole rounds until the operations have taken ``seconds`` of wall
    clock and ``min_ops`` are done, or exactly ``max_rounds`` rounds. Only
    the operations are timed, not building a round's inputs or checking
    outputs. Returns (timed seconds, rounds run, [Done])."""
    done, elapsed, k = [], 0.0, 0
    while k < max_rounds if max_rounds is not None else (
        k == 0 or elapsed < seconds or len(done) < min_ops
    ):
        for op in next(rounds):
            dt, text, failure, flags = _attempt(workload, op, tracer, len(done))
            done.append(Done(k, op.kind, op.cell, dt, failure, flags, text if k == 0 else None))
            elapsed += dt
        k += 1
    return elapsed, k, done


def failures(done) -> list[str]:
    return [f"op {i} ({d.kind} {d.cell}): {d.failure}" for i, d in enumerate(done) if d.failure]


def ops_per_s(done) -> float:
    """Median over rounds of the round's checked operations per second of
    its timed wall clock. Every round asks for the same work, so the median
    round stands for the run without the weight of a cold first round or a
    burst of load on the machine depending on how many rounds fit."""
    ok, timed = {}, {}
    for d in done:
        ok[d.round] = ok.get(d.round, 0) + (d.failure is None)
        timed[d.round] = timed.get(d.round, 0.0) + d.seconds
    return statistics.median(ok[k] / timed[k] for k in ok)


def output_digest(done) -> str:
    """SHA-256 over the canonical outputs of the first round, in order."""
    h = hashlib.sha256()
    for d in done:
        if d.text is not None:
            h.update(d.text.encode())
    return h.hexdigest()


def flag_count(done, flag: str) -> tuple[int, int]:
    """(operations where ``flag`` is true, operations that set it)."""
    seen = [d.flags[flag] for d in done if flag in d.flags]
    return sum(seen), len(seen)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _child(args: list[str]) -> dict:
    """Run this script in a fresh process; return its last stdout line as JSON."""
    cmd = [sys.executable, str(Path(__file__))] + args
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child run {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(name: str, seed: int) -> list[float]:
    """Launch-to-first-operation wall time of fresh workload processes."""
    out = []
    for _ in range(SETUP_PROBES):
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        ready = _child(["--workload", name, "--seed", str(seed), "--child", "setup"])["ready"]
        out.append(ready - launched)
    return out


def commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(workload, seed: int, seconds: float):
    from spans import NullTracer

    setups = setup_seconds(workload.name, seed)
    elapsed, _, done = run_rounds(workload, workload.rounds(seed), NullTracer(), seconds, MIN_OPS)
    failed = failures(done)
    times = [d.seconds for d in done]
    metrics = {
        "ops_per_s": metric(ops_per_s(done), "1/s"),
        "op_p50_ms": metric(percentile(times, 50) * 1e3, "ms"),
        "op_p90_ms": metric(percentile(times, 90) * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "timed_s": elapsed,
        "op_samples": len(times),
        "beyond_p90": len(times) - math.ceil(0.9 * len(times)),
        "setup_probes_s": setups,
    }
    return done, failed, metrics, info


def per_layer(workload, seed: int, seconds: float):
    """A traced run of half the time, then an untraced run of the same rounds
    in a fresh process, so both start with cold caches."""
    from spans import Tracer, intlattice_probes, order_probes
    from toran.serialize import parse_matrix_text
    from workloads import WORKLOADS

    tracer = Tracer()
    elapsed, n_rounds, done = run_rounds(workload, workload.rounds(seed), tracer, seconds / 2)
    untraced = _child(["--workload", workload.name, "--seed", str(seed),
                       "--child", "untraced", "--rounds", str(n_rounds)])

    metrics = {}
    spans = tracer.summary()
    for name in SPAN_NAMES:
        calls, self_s = spans.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_s"] = metric(self_s, "s")

    # kernel probes: order arithmetic on the workload's own elements (the
    # echelon matrices of this seed when it has none), integer lattices on
    # the rank-2N models of the echelon matrices of this seed
    echelon_round = [op for op in next(WORKLOADS["echelon"].rounds(seed)) if op.kind == "matrix"]
    elements = list(workload.order_elements(next(workload.rounds(seed)))) or list(
        WORKLOADS["echelon"].order_elements(echelon_round)
    )
    probes = order_probes(elements)
    probes.update(intlattice_probes([parse_matrix_text(op.inputs["matrix"]) for op in echelon_round]))
    for name, value in probes.items():
        metrics[name] = metric(value, "us")

    compared, total = flag_count(done, "enumeration.oracle_compared")
    metrics["enumeration.oracle_compared"] = metric(compared, "count")
    metrics["enumeration.oracle_skipped"] = metric(total - compared, "count")
    metrics["enumeration.oracle_compared_ratio"] = metric(compared / total if total else 0.0, "ratio")
    for flag in ("siegel.cert_holds", "bounds.value_exact"):
        hits, total = flag_count(done, flag)
        metrics[f"{flag}_ratio"] = metric(hits / total if total else 0.0, "ratio")
    # traced ops_per_s / untraced ops_per_s over the same operations
    metrics["trace.overhead_ratio"] = metric(untraced["timed_s"] / elapsed, "ratio")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload.name}-{seed}.json"
    trace_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                      "spans": tracer.spans}))
    info = {
        "timed_s": elapsed,
        "untraced_timed_s": untraced["timed_s"],
        "rounds": n_rounds,
        "op_samples": len(done),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return done, failures(done), metrics, info


def child_main(args, workload) -> None:
    """The fresh processes that setup_seconds and per_layer start."""
    from spans import NullTracer

    rounds = workload.rounds(args.seed)
    if args.child == "setup":
        next(rounds)  # the first round's inputs are built before its first operation
        print(json.dumps({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}))
        return
    elapsed, _, _ = run_rounds(workload, rounds, NullTracer(), max_rounds=args.rounds)
    print(json.dumps({"timed_s": elapsed}))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["coset", "echelon", "siegel", "bounds"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--child", choices=["setup", "untraced"], help=argparse.SUPPRESS)
    p.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "toran" / "__init__.py").is_file():
        print(f"error: no toran sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # Exact bound values reach 10^4 decimal digits (mw_field is 3^(16 N^4)),
    # above the int-to-str limit of 4300 digits that CPython has had since
    # 3.10.7, so printing them raises ValueError; lift it for this process.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.child:
        child_main(args, workload)
        return 0

    calibration_start = calibration_s()
    run = per_layer if args.trace else end_to_end
    done, failed, metrics, info = run(workload, args.seed, args.seconds)
    meta = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine_settings": "none: no CPU pinning, no cache dropping, no machine setting changed",
        "calibration_s": {"start": calibration_start, "end": calibration_s()},
        "output_digest": output_digest(done),
        "failed_ops_ratio": len(failed) / len(done),
        "failures": failed[:5],
        **info,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
