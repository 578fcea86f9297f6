"""Spans around the benchmark's calls into toran, and kernel probes.

A span has a name, a start, an end, the span that was open when it began,
and the id of the operation it belongs to. Spans stay in memory until the
run ends. A span's self time is its duration minus the durations of its
direct children; calls nest strictly, so the children never overlap.
"""

from __future__ import annotations

import statistics
import time
from itertools import islice

from toran.intlattice import det_int, hnf_int, snf_int
from toran.orders import canonical_residue, euclid_div, gcd
from toran.subgroups import integer_model


class NullTracer:
    """Calls straight through; the untraced runs use this."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, name, op_id):
        pass

    def end_op(self):
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []
        self._op_id = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op_id])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def begin_op(self, name, op_id):
        self._op_id = op_id
        self._open(name)

    def end_op(self):
        self._close()
        self._op_id = None

    def summary(self) -> dict:
        """name -> (calls, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child_time[i])
        return out


def _per_call_us(fn, args_list, repeats: int = 5) -> float:
    """Median over repeats of the mean wall time of one call, in microseconds."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        samples.append((time.perf_counter() - start) / len(args_list))
    return statistics.median(samples) * 1e6


def order_probes(elements, pairs: int = 400) -> dict:
    """Time order arithmetic on consecutive pairs of the given elements."""
    elems = list(islice((e for e in elements if not e.is_zero()), 2 * pairs + 1))
    pool = [(x, y) for x, y in zip(elems, elems[1:]) if x.disc == y.disc]
    return {
        "orders.mul_us": _per_call_us(lambda x, y: x * y, pool),
        "orders.euclid_div_us": _per_call_us(euclid_div, pool),
        "orders.canonical_residue_us": _per_call_us(canonical_residue, pool),
        "orders.gcd_us": _per_call_us(gcd, pool),
    }


def intlattice_probes(matrices) -> dict:
    """Time the integer kernels on the rank-2N models of the given matrices;
    det_int gets the leading square 2r x 2r block of each model."""
    models = [integer_model(list(m.rows), m.disc, m.N) for m in matrices]
    squares = [[row[: len(model)] for row in model] for model in models]
    return {
        "intlattice.hnf_int_us": _per_call_us(hnf_int, [(m,) for m in models]),
        "intlattice.snf_int_us": _per_call_us(snf_int, [(m,) for m in models]),
        "intlattice.det_int_us": _per_call_us(det_int, [(s,) for s in squares]),
    }
