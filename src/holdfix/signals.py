"""Band-limited test signals, ideal lowpass filtering, sampling and SNR.

Frequency-domain convention used across the package: forward DFT
X(k) = sum_n x[n] exp(-i 2 pi k n / N) with no scaling; the inverse carries
the 1/N factor. A passband of half-width K keeps bins [0, K] and [N-K, N-1]
and zeroes everything in between.

All operations are pure and all values are immutable after construction, so
they are safe to share between threads. The `*_array` functions are the
array-level cores behind the `Signal` functions: they work along the last
axis, so one call processes a stack of equal-length signals with exactly the
arithmetic of one call per signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Signal",
    "Passband",
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
        k = int(self.half_width_bins)
        if k < 0:
            raise ValueError("passband half-width must be non-negative")
        object.__setattr__(self, "half_width_bins", k)


def _band_bins(n: int, band: Passband) -> int:
    k = band.half_width_bins
    if k > n // 2:
        raise ValueError(f"passband half-width {k} exceeds N/2 = {n // 2}")
    return k


def lowpass_array(samples: np.ndarray, band: Passband) -> np.ndarray:
    """`ideal_lowpass` of every signal along the last axis of `samples`."""
    n = samples.shape[-1]
    k = _band_bins(n, band)
    spectrum = np.fft.rfft(samples)
    spectrum[..., k + 1 :] = 0.0
    return np.fft.irfft(spectrum, n=n)


def ideal_lowpass(x: Signal, band: Passband) -> Signal:
    """Zero every DFT bin outside the passband and transform back.

    Retained bins are left untouched, so filtering is a projection: applying
    it twice equals applying it once, and an already band-limited signal
    passes through unchanged.
    """
    return Signal(lowpass_array(x.samples, band))


def gen_bandlimited(n: int, band: Passband, sigma: float, seed: int) -> Signal:
    """White Gaussian noise of std `sigma`, ideally lowpass filtered to `band`.

    Deterministic per seed; power is not renormalized after filtering.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.default_rng(seed)
    raw = Signal(rng.normal(0.0, sigma, n))
    return ideal_lowpass(raw, band)


def sample_array(samples: np.ndarray, period: int) -> np.ndarray:
    """`sample_train` of every signal along the last axis of `samples`."""
    n = samples.shape[-1]
    if period < 1:
        raise ValueError("sampling period must be >= 1")
    if n % period:
        raise ValueError(f"sampling period {period} does not divide length {n}")
    train = np.zeros(samples.shape)
    train[..., ::period] = samples[..., ::period]
    return train


def sample_train(x: Signal, period: int) -> Signal:
    """Keep every `period`-th sample and zero the rest; length is preserved."""
    return Signal(sample_array(x.samples, period))


def add_noise(x: Signal, target_snr_db: float, seed: int) -> Signal:
    """Add white Gaussian noise scaled for the requested SNR against x's power.

    The noise is full band: it models input-side disturbances injected before
    any sampling. Deterministic per seed.
    """
    if not math.isfinite(target_snr_db):
        raise ValueError("target SNR must be finite")
    power = float(np.mean(x.samples**2))
    if power == 0.0:
        raise ValueError("cannot scale noise against a zero-power signal")
    noise_std = math.sqrt(power * 10.0 ** (-target_snr_db / 10.0))
    rng = np.random.default_rng(seed)
    return Signal(x.samples + rng.normal(0.0, noise_std, len(x)))


def snr_db_array(
    reference: np.ndarray, estimate: np.ndarray, guard_fraction: float
) -> np.ndarray:
    """`snr_db` of every signal pair along the last axis of two equal-shape arrays."""
    if reference.shape != estimate.shape:
        raise ValueError(
            f"length mismatch: reference {reference.shape} vs estimate {estimate.shape}"
        )
    if not 0.0 <= guard_fraction < 0.5:
        raise ValueError("guard_fraction must lie in [0, 0.5)")
    n = reference.shape[-1]
    guard = int(guard_fraction * n + 1e-9)  # fp-safe floor
    if n - 2 * guard <= 0:
        raise ValueError(f"guard {guard} per end leaves no interior samples")
    ref = reference[..., guard : n - guard]
    err = ref - estimate[..., guard : n - guard]
    out = np.empty(ref.shape[:-1])
    for i in np.ndindex(out.shape):
        err_power = float(np.dot(err[i], err[i]))
        ref_power = float(np.dot(ref[i], ref[i]))
        if err_power == 0.0:
            out[i] = math.inf
        elif ref_power == 0.0:
            out[i] = -math.inf
        else:
            out[i] = 10.0 * math.log10(ref_power / err_power)
    return out


def snr_db(reference: Signal, estimate: Signal, guard_fraction: float) -> float:
    """SNR in dB over the interior window of the two signals.

    floor(guard_fraction * N) samples are dropped from EACH end before the
    ratio sum(ref^2) / sum((ref - est)^2) is formed. Returns +inf when the
    interior error is exactly zero.
    """
    return float(snr_db_array(reference.samples, estimate.samples, guard_fraction))
