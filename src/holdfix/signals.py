"""Band-limited test signals, ideal lowpass filtering, sampling and SNR.

Frequency-domain convention used across the package: forward DFT
X(k) = sum_n x[n] exp(-i 2 pi k n / N) with no scaling; the inverse carries
the 1/N factor. A passband of half-width K keeps bins [0, K] and [N-K, N-1]
and zeroes everything in between.

All operations are pure and all values are immutable after construction, so
they are safe to share between threads. The `*_array` functions are the
array-level cores behind the `Signal` functions: they work along the last
axis, so one call processes a stack of equal-length signals with exactly the
arithmetic of one call per signal. `check_grid` holds the grid checks that
every module shares, and `as_int` the one integer rule of every grid value.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldError",
    "Signal",
    "Passband",
    "check_grid",
    "max_modules",
    "max_passband",
    "ideal_lowpass",
    "gen_bandlimited",
    "sample_train",
    "add_noise",
    "snr_db",
]


@dataclass(frozen=True, eq=False)
class Signal:
    """Finite real-valued sample sequence; the carrier for every pipeline stage."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("Signal needs a 1-D sequence of at least 2 samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("Signal samples must all be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class Passband:
    """Half-width of a symmetric DFT passband, in bins."""

    half_width_bins: int

    def __post_init__(self):
        k = as_int(self.half_width_bins, "K", 0, "passband half-width")
        object.__setattr__(self, "half_width_bins", k)


class FieldError(ValueError):
    """A `ValueError` naming the field at fault: a coefficient-file field (T, N,
    K, M, kernel_id, coefficients, residual), seed, snr, a kernel's origin or
    hold order, or a `SweepSpec` field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def as_int(value, field: str, least: int | None = None, noun: str | None = None) -> int:
    """`value` as an int >= `least` (2.7 is not truncated), else `FieldError` on `field`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise FieldError(f"{noun or field} must be an integer, got {value!r}", field) from None
    if least is not None and value < least:
        raise FieldError(f"{noun or field} must be >= {least}, got {value}", field)
    return value


def max_modules(period: int) -> int:
    """Largest usable module count for a hold period: floor(period / 2)."""
    return as_int(period, "T", 1, "hold period") // 2


def max_passband(n: int, period: int) -> int:
    """Largest passband half-width below the sampling Nyquist bin: floor(N / 2T) - 1."""
    return as_int(n, "N", 1, "length") // (2 * as_int(period, "T", 1, "hold period")) - 1


def check_grid(
    n: int | None = None,
    period: int | None = None,
    *,
    band: Passband | None = None,
    modules: int | None = None,
    fewest_modules: int = 0,
    taps: int | None = None,
    guard_fraction: float | None = None,
    role: str = "hold",
) -> None:
    """Raise `FieldError` unless the given parts of an N-point grid fit.

    N >= 1, the `role` period (hold, sampling, kernel or module) >= 1 and
    `modules` in fewest_modules..floor(period/2), each an integer (`as_int`);
    the period divides N; the passband half-width is at most N/2, or given a
    period `max_passband(N, T)`, below the sampling Nyquist bin; a kernel of
    `taps` taps fits in N; the SNR guard fraction dropped at each end lies in
    [0, 0.5). A band that is not a `Passband` is refused on K. Parts left at
    None are not checked, but a band or taps need N.
    """
    if band is not None and not isinstance(band, Passband):
        raise FieldError(f"passband must be a Passband, got {band!r}", "K")
    if n is not None or band is not None or taps is not None:
        n = as_int(n, "N", 1, "length")
    if period is not None:
        period = as_int(period, "T", 1, f"{role} period")
        if n is not None and n % period:
            raise FieldError(f"{role} period {period} does not divide length {n}", "N")
    if band is not None and period is not None and band.half_width_bins > max_passband(n, period):
        nyquist = max_passband(n, period) + 1  # 0 when N < 2T: no band fits, so N is at fault
        raise FieldError(f"signal passband {band.half_width_bins} must stay below the sampling "
                         f"Nyquist bin {nyquist}", "K" if nyquist else "N")
    if band is not None and band.half_width_bins > n // 2:
        raise FieldError(
            f"passband half-width {band.half_width_bins} exceeds N/2 = {n // 2}", "K"
        )
    if modules is not None:
        modules = as_int(modules, "M", fewest_modules, "module count")
        cap = max_modules(period)
        if modules > cap:
            # cosine j + T/2 aliases onto cosine j, so further modules only distort
            raise FieldError(
                f"{modules} modules exceed the maximum {cap}: floor(period/2) is "
                f"the maximum for period {period}",
                "M",
            )
    if taps is not None and taps > n:
        raise FieldError(f"kernel has {taps} taps but the signal only {n} samples", "N")
    if guard_fraction is not None and not 0.0 <= guard_fraction < 0.5:
        raise FieldError(f"guard_fraction must lie in [0, 0.5), got {guard_fraction}",
                         "guard_fraction")


def lowpass_array(samples: np.ndarray, band: Passband) -> np.ndarray:
    """`ideal_lowpass` of every signal along the last axis of `samples`."""
    n = samples.shape[-1]
    check_grid(n, band=band)
    return np.fft.irfft(np.fft.rfft(samples)[..., : band.half_width_bins + 1], n=n)


def ideal_lowpass(x: Signal, band: Passband) -> Signal:
    """Zero every DFT bin outside the passband and transform back.

    Retained bins are left untouched, so filtering is a projection: applying
    it twice equals applying it once, and an already band-limited signal
    passes through unchanged.
    """
    return Signal(lowpass_array(x.samples, band))


def normal_array(n: int, seeds, sigma: float = 1.0) -> np.ndarray:
    """`default_rng(seed).normal(0.0, sigma, n)` for each of `seeds`, one row per seed."""
    n = as_int(n, "N", 2, "length")
    seeds = [as_int(seed, "seed", 0) for seed in seeds]
    return np.stack([np.random.default_rng(seed).normal(0.0, sigma, n) for seed in seeds])


def bandlimited_array(n: int, band: Passband, sigma: float, seeds) -> np.ndarray:
    """`gen_bandlimited` at each of `seeds`, one row per seed."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return lowpass_array(normal_array(n, seeds, sigma), band)


def gen_bandlimited(n: int, band: Passband, sigma: float, seed: int) -> Signal:
    """White Gaussian noise of std `sigma`, ideally lowpass filtered to `band`.

    Deterministic per seed; power is not renormalized after filtering.
    """
    return Signal(bandlimited_array(n, band, sigma, [seed])[0])


def sample_array(samples: np.ndarray, period: int) -> np.ndarray:
    """`sample_train` of every signal along the last axis of `samples`."""
    check_grid(samples.shape[-1], period, role="sampling")
    train = np.zeros(samples.shape)
    train[..., ::period] = samples[..., ::period]
    return train


def sample_train(x: Signal, period: int) -> Signal:
    """Keep every `period`-th sample and zero the rest; length is preserved."""
    return Signal(sample_array(x.samples, period))


def noise_array(samples: np.ndarray, draw: np.ndarray, target_snr_db: float) -> np.ndarray:
    """`add_noise` of every signal along the last axis of `samples`.

    `draw` holds standard-normal draws (`normal_array`) shaped like `samples`;
    it does not depend on the SNR, so a caller adding noise at several SNRs
    draws it once. The one noise rule: input SNR s scales the draw by
    sqrt(power * 10^(-s/10)), power being each signal's mean square; a
    zero-power signal raises `ValueError`, and an s that is not finite, or
    whose noise energy N * power * 10^(-s/10) is not, raises `FieldError` on snr.
    """
    if not math.isfinite(target_snr_db):
        raise FieldError(f"target SNR {target_snr_db} dB is not finite", "snr")
    power = np.mean(samples**2, axis=-1)
    if np.any(power == 0.0):
        raise ValueError("cannot scale noise against a zero-power signal")
    with np.errstate(over="ignore"):  # an overflowing ratio or energy reads as inf
        ratio = np.float64(10.0) ** (-target_snr_db / 10.0)
        if not np.all(np.isfinite(samples.shape[-1] * power * ratio)):  # the noise energy
            raise FieldError(
                f"noise energy at target SNR {target_snr_db} dB is beyond float range", "snr"
            )
    return samples + np.sqrt(power * ratio)[..., None] * draw


def add_noise(x: Signal, target_snr_db: float, seed: int) -> Signal:
    """Add white Gaussian noise at the requested SNR against x's power (`noise_array`).

    The noise is full band: it models input-side disturbances injected before
    any sampling. Deterministic per seed.
    """
    draw = normal_array(len(x), [seed])[0]
    return Signal(noise_array(x.samples, draw, target_snr_db))


def snr_db_array(
    reference: np.ndarray, estimate: np.ndarray, guard_fraction: float
) -> np.ndarray:
    """`snr_db` of every signal pair along the last axis of two equal-shape arrays."""
    if reference.shape != estimate.shape:
        raise ValueError(
            f"length mismatch: reference {reference.shape} vs estimate {estimate.shape}"
        )
    check_grid(guard_fraction=guard_fraction)
    n = reference.shape[-1]
    guard = int(guard_fraction * n + 1e-9)  # fp-safe floor
    if n - 2 * guard <= 0:
        raise FieldError(f"guard {guard} per end leaves no interior samples", "guard_fraction")
    ref = reference[..., guard : n - guard]
    err = ref - estimate[..., guard : n - guard]
    # (..., 1, n) @ (..., n, 1) gives each row's np.dot(row, row), bit for bit
    err_powers = (err[..., None, :] @ err[..., :, None]).ravel().tolist()
    ref_powers = (ref[..., None, :] @ ref[..., :, None]).ravel().tolist()
    # math.log10, not np.log10: the two differ in the last bit on some hosts
    out = [
        math.inf if err_power == 0.0
        else -math.inf if ref_power == 0.0
        else 10.0 * math.log10(ref_power / err_power)
        for err_power, ref_power in zip(err_powers, ref_powers)
    ]
    return np.array(out).reshape(ref.shape[:-1])


def snr_db(reference: Signal, estimate: Signal, guard_fraction: float) -> float:
    """SNR in dB over the interior window of the two signals.

    floor(guard_fraction * N) samples are dropped from EACH end before the
    ratio sum(ref^2) / sum((ref - est)^2) is formed. Returns +inf when the
    interior error is exactly zero.
    """
    return float(snr_db_array(reference.samples, estimate.samples, guard_fraction))
