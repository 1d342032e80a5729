"""Test oracles: `modular.replica_system`'s replica responses built one
module at a time, as the optimizer and `passband_gain` once built them, and
a direct-sum DFT."""

import math

import numpy as np

from holdfix.kernels import frequency_response
from holdfix.modular import max_modules


def dft_naive(x):
    """O(N^2) direct-sum DFT, independent of np.fft."""
    n = len(x)
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * kk * k / n)) for kk in k])


def loop_replicas(kernel, n, bins):
    """H(k)/T and the folded replica pairs (H(k - jN/T) + H(k + jN/T))/T,
    j = 1..floor(T/2), on `bins`, one module at a time.

    The system's bin-0 rule is applied: bin 0 is its own conjugate and the
    taps are real, so H(0)/T and every pair at bin 0 are exactly real, and
    the FFT's rounding on their imaginary parts (about 1e-17 for some custom
    kernels) is zeroed, as `replica_system` zeroes it.
    """
    normalized = frequency_response(kernel, n) / kernel.period
    bins, shift = np.asarray(bins), n // kernel.period
    base = normalized[bins % n]
    pairs = np.empty((bins.size, max_modules(kernel.period)), dtype=complex)
    for j in range(1, pairs.shape[1] + 1):
        pairs[:, j - 1] = normalized[(bins - j * shift) % n] + normalized[(bins + j * shift) % n]
    base.imag[bins == 0] = 0.0
    pairs.imag[bins == 0] = 0.0
    return base, pairs


def loop_system(kernel, n, k_max, modules):
    """The real-stacked (matrix, target) that `assemble_system` gives: the first
    M pairs and the deficit 1 - H(k)/T on bins 0..K, real rows over imaginary,
    with row 0 (bin 0, counted once where bins 1..K count twice) weighted by sqrt(1/2)."""
    base, pairs = loop_replicas(kernel, n, np.arange(k_max + 1))
    pairs, deficit = pairs[:, :modules], 1.0 - base
    system = np.vstack([pairs.real, pairs.imag]), np.concatenate([deficit.real, deficit.imag])
    for array in system:
        array[0] *= math.sqrt(0.5)
    return system
