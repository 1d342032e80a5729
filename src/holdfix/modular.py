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
H(k - j N/T) + H(k + j N/T) of the kernel response H. `replica_matrix`
builds those pairs; `passband_gain` and the optimizer's design system are
both read off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import InterpKernel, frequency_response
from .signals import Passband, Signal, check_grid, lowpass_array, max_modules

__all__ = [
    "ModuleCoeffs",
    "max_modules",
    "classical_coeffs",
    "comb_coeffs",
    "modulation_kernel",
    "reconstruct",
    "replica_matrix",
    "passband_gain",
    "error_metric",
]


@dataclass(frozen=True)
class ModuleCoeffs:
    """Weights c_1..c_M of the cosine modules for one hold period."""

    period: int
    c: tuple[float, ...]

    def __post_init__(self):
        weights = tuple(float(v) for v in self.c)
        check_grid(period=self.period, modules=len(weights))
        if not all(math.isfinite(v) for v in weights):
            raise ValueError("module weights must all be finite")
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

    Even periods use the full budget with the last weight halved (the
    Nyquist-harmonic cosine is its own alias pair); odd periods need no
    halving.
    """
    if period % 2 == 0:
        c = (1.0,) * (period // 2 - 1) + (0.5,)
    else:
        c = (1.0,) * ((period - 1) // 2)
    return ModuleCoeffs(period, c)


def module_bank(coeffs: ModuleCoeffs) -> np.ndarray:
    """One period of the module bank, 1 + sum_j 2 c_j cos(2 pi j t / period)."""
    period = coeffs.period
    t = np.arange(period)
    one_period = np.ones(period)
    for j, weight in enumerate(coeffs.c, start=1):
        one_period += 2.0 * weight * np.cos(2.0 * np.pi * j * t / period)
    return one_period


def modulation_kernel(coeffs: ModuleCoeffs, n: int) -> Signal:
    """Periodic module bank m[t] = 1 + sum_j 2 c_j cos(2 pi j t / period).

    One period is evaluated and tiled, so periodicity is exact; the mean over
    any full period is 1.
    """
    period = coeffs.period
    check_grid(n, period, role="module")
    return Signal(np.tile(module_bank(coeffs), n // period))


def reconstruct_array(samples: np.ndarray, bank: np.ndarray, band: Passband) -> np.ndarray:
    """`reconstruct` of every signal along the last axis of `samples`, given
    one period of the module bank (`module_bank`)."""
    n, period = samples.shape[-1], bank.size
    check_grid(n, period, role="module")
    periods = samples.reshape(samples.shape[:-1] + (n // period, period))
    return lowpass_array((periods * bank).reshape(samples.shape), band)


def reconstruct(s: Signal, coeffs: ModuleCoeffs, band: Passband) -> Signal:
    """Module-mix `s` and lowpass filter the product to `band`. Linear in s."""
    return Signal(reconstruct_array(s.samples, module_bank(coeffs), band))


def replica_matrix(
    kernel: InterpKernel, n: int, bins: np.ndarray, modules: int
) -> tuple[np.ndarray, np.ndarray]:
    """`(base, pairs)` at the integer DFT `bins` k (taken mod N): base = H(k)/T
    and column j-1 of pairs = (H(k - j N/T) + H(k + j N/T))/T, j = 1..modules.

    A pair is (1/T) times the DFT of taps * 2 cos(2 pi j t / T). For even T
    and j = T/2 both shifts hit one bin and the pair doubles, which is why
    the comb weights halve that term.
    """
    period = kernel.period
    check_grid(n, period, modules=modules)
    normalized = frequency_response(kernel, n) / period
    shift = n // period
    bins = np.asarray(bins)
    k, j = bins[:, None], np.arange(1, modules + 1)
    pairs = normalized[(k - j * shift) % n] + normalized[(k + j * shift) % n]
    return normalized[bins % n], pairs


def passband_gain(
    kernel: InterpKernel, coeffs: ModuleCoeffs, n: int, band: Passband
) -> np.ndarray:
    """Effective passband transfer function G(k), returned for k = -K..K.

    G(k) = (1/period) * sum_{j=-M..M} c_|j| H((k - j n/period) mod n) with
    c_0 = 1, that is base + pairs @ c from `replica_matrix`. Reconstruction
    of a signal band-limited inside the sampling Nyquist bin satisfies
    X_hat(k) = G(k) X(k), so unit gain on the band means perfect recovery.
    """
    if coeffs.period != kernel.period:
        raise ValueError(
            f"kernel period {kernel.period} does not match coefficient period {coeffs.period}"
        )
    check_grid(n, band=band)
    k_max = band.half_width_bins
    base, pairs = replica_matrix(kernel, n, np.arange(-k_max, k_max + 1), coeffs.modules)
    return base + pairs @ np.array(coeffs.c)


def error_metric(
    kernel: InterpKernel, coeffs: ModuleCoeffs, n: int, band: Passband
) -> float:
    """Replica-sum error sum_{k=-K..K} |G(k) - 1|^2.

    The magnitude square makes the metric meaningful for causal kernels,
    whose responses are complex; for zero-phase kernels it reduces to a plain
    square.
    """
    gain = passband_gain(kernel, coeffs, n, band)
    return float(np.sum(np.abs(gain - 1.0) ** 2))
