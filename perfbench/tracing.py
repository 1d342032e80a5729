"""Span tracing of holdfix's public functions, installed from outside the package.

Each traced function is replaced, under every name a holdfix module binds it
to, by a wrapper that records a span: name, start, end, parent span and the
benchmark's current op id. Callers resolve those names at call time, so
their calls go through the wrapper. `Signal` is a class; its `__init__` is
wrapped instead, which keeps the type itself (and isinstance) untouched.
Spans stay in memory until `summary` folds them into per-function metrics.

Counter hooks run before a span opens. Their cost is charged to the parent
span as hidden time, so it inflates the parent's total but not its self time.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import defaultdict

import numpy as np

# Layer module -> public functions wrapped in that module.
LAYERS = {
    "signals": ("gen_bandlimited", "ideal_lowpass", "add_noise", "sample_train", "snr_db", "Signal"),
    "kernels": ("kernel_from_id", "interpolate", "frequency_response"),
    "modular": ("reconstruct", "modulation_kernel", "passband_gain"),
    "optimizer": ("assemble_system", "solve_coefficients", "store_coeffs", "load_coeffs"),
    "bench": ("run_module_sweep", "run_noise_sweep", "run_trial", "write_csv"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Span record fields.
_NAME, _START, _END, _PARENT, _OP, _HIDDEN = range(6)


def _digest(array) -> bytes:
    return hashlib.blake2b(memoryview(np.ascontiguousarray(array)), digest_size=16).digest()


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._clock = time.perf_counter
        self._tap_mults = 0
        self._interp_calls = 0
        self._interp_repeats = 0
        self._seen_inputs: set[tuple] = set()
        self._rank_deficient = 0

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                hook_start = clock()
                before(*args, **kwargs)
                if stack:
                    spans[stack[-1]][_HIDDEN] += clock() - hook_start
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count_interpolate(self, train, kernel, *_, **__):
        try:
            samples = train.samples
            taps = kernel.taps
            key = (kernel.id, kernel.period, kernel.origin, _digest(taps), _digest(samples))
            mults = int(np.count_nonzero(taps)) * len(samples)
        except (AttributeError, TypeError, ValueError):
            return
        self._interp_calls += 1
        self._tap_mults += mults
        if key in self._seen_inputs:
            self._interp_repeats += 1
        else:
            self._seen_inputs.add(key)

    def _count_solution(self, solution):
        if getattr(solution, "rank_deficient", False):
            self._rank_deficient += 1

    def install(self) -> None:
        """Wrap every listed function that exists; absent ones report zeros."""
        hooks = {
            "kernels.interpolate": (self._count_interpolate, None),
            "optimizer.solve_coefficients": (None, self._count_solution),
        }
        modules = [m for n, m in sorted(sys.modules.items()) if n == "holdfix" or n.startswith("holdfix.")]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"holdfix.{layer}")
            for fn_name in names:
                span_name = f"{layer}.{fn_name}"
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                before, after = hooks.get(span_name, (None, None))
                if isinstance(original, type):
                    original.__init__ = self.wrap(span_name, original.__init__, before, after)
                    continue
                wrapped = self.wrap(span_name, original, before, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def summary(self) -> dict[str, float]:
        """Per-function calls, total and self seconds, plus the counters."""
        covered = defaultdict(float)
        for span in self.spans:
            if span[_PARENT] >= 0:
                covered[span[_PARENT]] += span[_END] - span[_START]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for index, span in enumerate(self.spans):
            name = span[_NAME]
            duration = span[_END] - span[_START]
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += duration
            out[f"{name}.self_s"] += duration - covered[index] - span[_HIDDEN]
        out["kernels.interpolate.tap_mults"] = self._tap_mults
        out["kernels.interpolate.repeat_share"] = (
            self._interp_repeats / self._interp_calls if self._interp_calls else 0.0
        )
        out["optimizer.solve_coefficients.rank_deficient"] = self._rank_deficient
        return out

    def dump(self) -> dict:
        """Spans as columns, for writing out at exit."""
        names = sorted({span[_NAME] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "name": [index[s[_NAME]] for s in self.spans],
            "start": [s[_START] for s in self.spans],
            "end": [s[_END] for s in self.spans],
            "parent": [s[_PARENT] for s in self.spans],
            "op": [s[_OP] for s in self.spans],
        }
