"""Cosine-module mixing: reconstruction of hold-interpolated trains.

Reconstruction multiplies the interpolated signal by a periodic bank of
harmonic cosines ("modules") and lowpass filters the product, folding the
sampling replicas back onto the baseband. All-ones weights give the
classical method. The comb weights (all ones with the last halved for even
periods) collapse the bank to `period` times a periodic impulse train, which
recovers signals interpolated by sh or li exactly.

At most floor(period/2) modules are usable: the cosine at harmonic
j + period/2 aliases onto the one at harmonic j (with alternating sign), so
further modules only distort the bank.

In the frequency domain weight j scales the folded replica pair
H(k - j N/T) + H(k + j N/T) of the kernel response H, so the passband gain
is affine in the weights. `replica_system` gathers those pairs and the
unity-gain deficit with one FFT per kernel and grid, at floor(T/2) modules on
bins 0..K, and every M reads the first M columns. `passband_gain`,
`error_metric` and the optimizer's design system all read that gather. It is
kept, read-only, in a least-recently-used cache of _SYSTEM_CACHE_SIZE (16)
entries of about 4N bytes (256 KiB at N = 65536), keyed on the kernel's taps
and origin (never its id, so a rewritten custom kernel file is rebuilt),
period, N and K: the package's only design cache. Solved weights are not
cached, since a solve from cached columns is one small lstsq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import InterpKernel, frequency_response
from .signals import FieldError, Passband, Signal, as_int, check_grid, lowpass_array, max_modules

__all__ = [
    "ModuleCoeffs",
    "max_modules",
    "classical_coeffs",
    "comb_coeffs",
    "module_bank",
    "reconstruct",
    "replica_system",
    "passband_energy",
    "passband_gain",
    "error_metric",
]

# Replica systems kept by `replica_system`: one per (kernel, period) of the
# benchmark design grid.
_SYSTEM_CACHE_SIZE = 16


@dataclass(frozen=True)
class ModuleCoeffs:
    """Weights c_1..c_M of the cosine modules for one hold period."""

    period: int
    c: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "period", as_int(self.period, "T"))
        try:  # a string is a sequence too, but of characters, not weights
            if isinstance(self.c, (str, bytes, bytearray)):
                raise TypeError
            weights = tuple(float(v) for v in self.c)
        except (TypeError, ValueError):
            raise FieldError(f"module weights must be a sequence of real numbers, got {self.c!r}",
                             "coefficients") from None
        check_grid(period=self.period, modules=len(weights))
        if not all(math.isfinite(v) for v in weights):
            raise FieldError("module weights must all be finite", "coefficients")
        object.__setattr__(self, "c", weights)

    @property
    def modules(self) -> int:
        return len(self.c)


def classical_coeffs(period: int, modules: int) -> ModuleCoeffs:
    """Unit weights: the classical module bank (every cosine multiplied by 2)."""
    check_grid(period=period, modules=modules)
    return ModuleCoeffs(period, (1.0,) * modules)


def comb_coeffs(period: int) -> ModuleCoeffs:
    """Weights whose module bank equals `period` times an impulse train.

    Ones at all floor(period/2) modules; even periods halve the last weight
    (the Nyquist-harmonic cosine is its own alias pair).
    """
    c = [1.0] * max_modules(period)
    if period % 2 == 0:
        c[-1] = 0.5
    return ModuleCoeffs(period, tuple(c))


def module_bank(coeffs: ModuleCoeffs) -> np.ndarray:
    """One period of the module bank, 1 + sum_j 2 c_j cos(2 pi j t / period)."""
    period = coeffs.period
    t = np.arange(period)
    one_period = np.ones(period)
    for j, weight in enumerate(coeffs.c, start=1):
        one_period += 2.0 * weight * np.cos(2.0 * np.pi * j * t / period)
    return one_period


def reconstruct_array(samples: np.ndarray, bank: np.ndarray, band: Passband) -> np.ndarray:
    """`reconstruct` of every signal along the last axis of `samples`, given
    one period of the module bank (`module_bank`)."""
    n, period = samples.shape[-1], bank.size
    check_grid(n, period, band=band, role="module")
    periods = samples.reshape(samples.shape[:-1] + (n // period, period))
    return lowpass_array((periods * bank).reshape(samples.shape), band)


def reconstruct(s: Signal, coeffs: ModuleCoeffs, band: Passband) -> Signal:
    """Module-mix `s` and lowpass filter the product to `band`. Linear in s."""
    return Signal(reconstruct_array(s.samples, module_bank(coeffs), band))


@lru_cache(maxsize=_SYSTEM_CACHE_SIZE)
def _replica_system(
    taps: bytes, origin: int, period: int, n: int, k_max: int
) -> tuple[np.ndarray, np.ndarray]:
    kernel = InterpKernel(np.frombuffer(taps), origin, period, "replica system")
    normalized = frequency_response(kernel, n) / period
    k, j = np.arange(k_max + 1)[:, None], np.arange(1, max_modules(period) + 1)
    shift = n // period
    pairs = normalized[(k - j * shift) % n] + normalized[(k + j * shift) % n]
    deficit = 1.0 - normalized[: k_max + 1]
    system = (np.vstack([pairs.real, pairs.imag]), np.concatenate([deficit.real, deficit.imag]))
    # bin 0, the one self-conjugate bin below N/2, is exactly real: zero the FFT's rounding
    for array in system:
        array[k_max + 1] = 0.0
        array[0] *= math.sqrt(0.5)  # the row weight `replica_system` states
        array.setflags(write=False)
    return system


def replica_system(
    kernel: InterpKernel, n: int, band: Passband
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only, real-stacked `(pairs, deficit)` of `kernel` on bins k = 0..K < N/(2T).

    Column j-1 of pairs holds (H(k - j N/T) + H(k + j N/T))/T for
    j = 1..floor(T/2), deficit holds 1 - H(k)/T; rows 0..K are the real
    parts, rows K+1..2K+1 the imaginary parts. Row 0 is weighted by sqrt(1/2):
    the replica-sum error counts bin 0 once and bins 1..K twice (as k and -k),
    so least squares on these rows minimizes half of it. A pair is (1/T) times
    the DFT of taps * 2 cos(2 pi j t / T); for even T and j = T/2 both shifts
    hit one bin and the pair doubles, which is why the comb weights halve it.
    """
    check_grid(n, kernel.period, band=band)
    return _replica_system(
        kernel.taps.tobytes(), kernel.origin, kernel.period, n, band.half_width_bins
    )


def passband_energy(stacked: np.ndarray) -> float:
    """Full-passband energy of a real-stacked vector weighted as `replica_system`'s rows."""
    per_bin = (stacked.reshape(2, -1) ** 2).sum(axis=0)  # |bin k|^2, k = 0..K, bin 0 halved
    return float(2.0 * (per_bin[0] + per_bin[1:].sum()))


def stacked_error(pairs: np.ndarray, deficit: np.ndarray, coeffs: ModuleCoeffs) -> np.ndarray:
    """Real-stacked G(k) - 1 on bins 0..K of a replica system: pairs[:, :M] @ c - deficit."""
    return pairs[:, : coeffs.modules] @ np.array(coeffs.c) - deficit


def _replica_error(
    kernel: InterpKernel, coeffs: ModuleCoeffs, n: int, band: Passband
) -> np.ndarray:
    """`stacked_error` of `coeffs` on `kernel`'s `replica_system`."""
    if coeffs.period != kernel.period:
        raise ValueError(
            f"kernel period {kernel.period} does not match coefficient period {coeffs.period}"
        )
    return stacked_error(*replica_system(kernel, n, band), coeffs)


def passband_gain(
    kernel: InterpKernel, coeffs: ModuleCoeffs, n: int, band: Passband
) -> np.ndarray:
    """Effective passband transfer function G(k), returned for k = -K..K.

    G(k) = (1/period) * sum_{j=-M..M} c_|j| H((k - j n/period) mod n) with
    c_0 = 1, that is 1 + pairs @ c - deficit from `replica_system` on bins
    0..K, mirrored to the negative bins as G(-k) = conj(G(k)) (the taps are
    real). Reconstruction of a signal band-limited inside the sampling
    Nyquist bin, the only band `check_grid` accepts here, satisfies
    X_hat(k) = G(k) X(k), so unit gain on the band means perfect recovery.
    """
    error = _replica_error(kernel, coeffs, n, band).reshape(2, -1)
    error[0, 0] /= math.sqrt(0.5)  # undo the weight on row 0, the real part of bin 0
    gain = 1.0 + (error[0] + 1j * error[1])
    return np.concatenate([np.conj(gain[:0:-1]), gain])


def error_metric(
    kernel: InterpKernel, coeffs: ModuleCoeffs, n: int, band: Passband
) -> float:
    """Replica-sum error sum_{k=-K..K} |G(k) - 1|^2.

    The magnitude square makes the metric meaningful for causal kernels,
    whose responses are complex; for zero-phase kernels it reduces to a plain
    square. It is the `passband_energy` of `stacked_error`, the residual that
    `optimizer.solve_coefficients` stores, scored on its system's own arrays.
    """
    return passband_energy(_replica_error(kernel, coeffs, n, band))
