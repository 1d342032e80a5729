"""Hold-type interpolation kernels and their application to sample trains.

Built-in kernels: the nth-order hold (`hold:<n>`, the (n+1)-fold
self-convolution of a rectangle) and its orders 0 and 1: causal sample-and-hold
(`sh`) and zero-phase linear interpolation (`li`). Taps always sum to the hold
period, so dividing a replica sum by the period gives unit DC gain.
`InterpKernel` is the one check of a usable kernel: it also bounds the taps'
absolute sum by _TAP_SUM_RTOL * T / eps (7.2e7 at T = 16), past which rounding
can hide whether they sum to T. So no kernel's response |H(k)| overflows.

Convolution is circular (the whole analysis lives on N-point DFTs) and
polyphase: only the phases mod T that hold a nonzero sample are convolved, so
a sample train (one live phase) costs taps*N/T multiply-adds, not taps*N.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .signals import FieldError, Signal, as_int, check_grid

__all__ = [
    "InterpKernel",
    "sh_kernel",
    "li_kernel",
    "nth_order_hold",
    "custom_kernel",
    "kernel_from_id",
    "interpolate",
    "frequency_response",
]

_TAP_SUM_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class InterpKernel:
    """Impulse response of an interpolator.

    `taps[origin]` is the lag-zero value. The sample-and-hold kernel is
    causal (origin 0, matching hardware); higher-order holds are centred so
    their frequency response stays as close to zero-phase as the tap count
    allows.
    """

    taps: np.ndarray
    origin: int
    period: int
    id: str

    def __post_init__(self):
        taps = np.array(self.taps, dtype=float)
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("kernel taps must be a non-empty 1-D sequence")
        origin = as_int(self.origin, "origin")
        if not 0 <= origin < taps.size:
            raise ValueError(f"origin {origin} outside taps [0, {taps.size})")
        period = as_int(self.period, "T", 1, "hold period")
        limit = _TAP_SUM_RTOL * period / np.finfo(float).eps
        if not np.abs(taps / limit).sum() <= 1.0:  # scaled, so huge taps cannot overflow
            raise ValueError(f"kernel taps' absolute sum is not finite or exceeds {limit:.3g}")
        total = float(taps.sum())
        if abs(total - period) > _TAP_SUM_RTOL * period:
            raise ValueError(
                f"kernel taps sum to {total!r}, expected the hold period {period}"
            )
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "period", period)


def _hold(order: int, period: int, kernel_id: str) -> InterpKernel:
    check_grid(period=period)  # before np.ones sizes an array with it
    taps = np.ones(period)
    for _ in range(order):  # normalized at each step, so no order overflows
        taps = np.convolve(taps, np.ones(period)) / period
    origin = 0 if order == 0 else (taps.size - 1) // 2
    # high orders underflow their edge taps to exactly 0: keep the nonzero run
    first, last = np.flatnonzero(taps)[[0, -1]].tolist()
    return InterpKernel(taps[first : last + 1], origin - first, period, kernel_id)


def sh_kernel(period: int) -> InterpKernel:
    """Causal sample-and-hold, the order-0 hold: hold each sample for `period` steps."""
    return _hold(0, period, "sh")


def li_kernel(period: int) -> InterpKernel:
    """Zero-phase linear interpolator, the order-1 hold: symmetric triangle with peak 1."""
    return _hold(1, period, "li")


def nth_order_hold(order: int, period: int) -> InterpKernel:
    """(order+1)-fold self-convolution of the length-`period` rectangle.

    Order 0 is the sample-and-hold, order 1 the linear triangle. Beyond
    order 1 the kernel is smoother but no longer interpolating.
    """
    order = as_int(order, "order", 0, "hold order")
    return _hold(order, period, f"hold:{order}")


def custom_kernel(path: str | Path, period: int) -> InterpKernel:
    """Load taps from a UTF-8 text file: lines of whitespace-separated values and one
    line `origin=<int>`. A refusal is a `ValueError` naming the file and any bad line."""
    origin = None
    values: list[float] = []
    text = Path(path).read_text(encoding="utf-8", errors="replace")  # not UTF-8: a bad line
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("origin=") and origin is not None:
            raise ValueError(f"{path}, line {number}: a second 'origin=' line; give only one")
        try:
            if stripped.startswith("origin="):
                origin = int(stripped[len("origin=") :])
            elif stripped:
                values.extend(float(token) for token in stripped.split())
        except ValueError:
            raise ValueError(f"{path}, line {number}: expected whitespace-separated taps "
                             "or one 'origin=<int>' line") from None
    if origin is None:
        raise ValueError(f"{path}: missing 'origin=<int>' line")
    try:
        return InterpKernel(np.array(values), origin, period, f"custom:{path}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def kernel_from_id(kernel_id: str, period: int) -> InterpKernel:
    """Build a kernel from its textual id: sh | li | hold:<n> | custom:<path>.

    Raises `FieldError` on field kernel_id for an unusable id or an unreadable
    or malformed kernel file.
    """
    check_grid(period=period)
    try:
        if kernel_id == "sh":
            return sh_kernel(period)
        if kernel_id == "li":
            return li_kernel(period)
        if kernel_id.startswith("hold:"):
            try:
                order = int(kernel_id[len("hold:") :])
            except ValueError:
                raise ValueError(f"bad hold order in kernel id {kernel_id!r}") from None
            return nth_order_hold(order, period)
        if kernel_id.startswith("custom:"):
            return custom_kernel(kernel_id[len("custom:") :], period)
        raise ValueError(f"unknown kernel id {kernel_id!r}")
    except (OSError, ValueError) as exc:
        raise FieldError(str(exc), "kernel_id") from exc


def interpolate_array(train: np.ndarray, kernel: InterpKernel) -> np.ndarray:
    """`interpolate` of every sample train along the last axis of `train`."""
    n, period, taps = train.shape[-1], kernel.period, kernel.taps
    check_grid(n, period, taps=taps.size, role="kernel")
    phases = train.reshape(*train.shape[:-1], n // period, period)
    out = np.zeros(phases.shape)
    for p in np.flatnonzero(phases.reshape(-1, period).any(axis=0)).tolist():
        first = p - kernel.origin  # output offset of tap 0 from an input on phase p
        for k in range(first // period, (first + taps.size - 1) // period + 1):
            r = max(first - k * period, 0)  # block k: taps lo.. land on output phases r..
            lo = r + k * period - first
            block = taps[lo : lo + period - r]
            out[..., r : r + block.size] += np.roll(phases[..., p], k, axis=-1)[..., None] * block
    return out.reshape(train.shape)


def interpolate(train: Signal, kernel: InterpKernel) -> Signal:
    """Circular convolution of a sample train with the kernel taps.

    Taps are shifted so the origin tap lands on each retained sample, which
    makes interpolating kernels (sh, li) reproduce the train's values at the
    sample positions exactly. Each live phase is applied as about taps/T
    blocks of consecutive taps in ascending shift, so every output sums its
    nonzero products in tap order, like a tap-by-tap `np.roll` loop: trains
    give bit-identical results (several live phases: another rounding order).
    """
    return Signal(interpolate_array(train.samples, kernel))


def frequency_response(kernel: InterpKernel, n: int) -> np.ndarray:
    """N-point DFT of the origin-aligned, zero-padded kernel taps.

    H(k) = sum_m taps[m] exp(-i 2 pi k (m - origin) / n); H(0) equals the
    hold period by the tap-sum normalization.
    """
    check_grid(n, taps=kernel.taps.size)
    padded = np.zeros(n)
    padded[(np.arange(kernel.taps.size) - kernel.origin) % n] = kernel.taps
    return np.fft.fft(padded)
