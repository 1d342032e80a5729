"""Deterministic sweep harness: module-count and input-noise experiments.

Every trial is a pure function of (master_seed, trial_index): the test
signal is seeded with master_seed + trial_index and, when an input SNR is
requested, the injected noise with that value plus _NOISE_SEED_OFFSET.
Results are therefore identical whatever order or grouping trials run in.
Each sweep builds its kernel once and solves the optimized weights of each
distinct (method, modules) pair once, reading the columns off the cached
`modular.replica_system` of that kernel and grid; the harness keeps no cache of
its own. `method_coeffs` is the one place a (method, modules) pair becomes
weights: comb weights exist only at their own count floor(T/2), so both
sweeps list comb once, at that count, whatever modules the spec requests.

Sweeps reuse each trial's signals across rows. Trials run in chunks of
_TRIAL_CHUNK (8) where a stacked (8, N) float array fits in _CHUNK_BYTES
(16 MiB, so up to N = 2^18), and one at a time above. Per chunk, one batched
call generates all clean signals; a noise sweep also draws each trial's
standard-normal noise and computes its signal power once, and every noise
level only rescales that draw. Per input level (clean or one noise SNR) the
chunk is sampled and interpolated once into a (chunk, N) array of held
signals. Each (method, modules) row then only mixes that array with its
module bank, lowpass filters it and scores all its trials in one
`snr_db_array` call. The array cores are the ones behind `gen_bandlimited`,
`add_noise`, `sample_train`, `interpolate`, `reconstruct` and `snr_db`, so
every value is bit-identical to running the trial alone; `run_trial` is the
engine applied to one trial. The median
build time of the three headline CSVs is the `latency_p50_ms` that
`perfbench/run.py --workload headline` reports.

Per-trial SNRs of +inf (exact recovery) are clamped to SNR_CLAMP_DB before
averaging; finite values above the clamp are clamped too, so no output ever
exceeds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import InterpKernel, interpolate_array, kernel_from_id
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
    as_int,
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
# gain up to N = 2^17; all 100 headline trials at once add 14 MB of peak RSS.
# Past _CHUNK_BYTES per stacked array the gain is gone and only memory grows
# (8 trials at N = 2^20 add 340 MB), so such chunks hold one trial.
_TRIAL_CHUNK = 8
_CHUNK_BYTES = 16 << 20


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
        object.__setattr__(self, "n", as_int(self.n, "N"))
        object.__setattr__(self, "period", as_int(self.period, "T"))
        object.__setattr__(self, "modules", tuple(as_int(m, "M") for m in self.modules))
        if self.noise_snrs_db is not None:
            object.__setattr__(self, "noise_snrs_db", tuple(map(float, self.noise_snrs_db)))
        check_grid(self.n, self.period, guard_fraction=self.guard_fraction)
        if not self.methods:
            raise FieldError("at least one method is required", "methods")
        unknown = sorted(set(self.methods) - set(METHODS))
        if unknown:
            raise FieldError(f"unknown methods {unknown}; choose from {list(METHODS)}", "methods")
        if not self.modules:
            raise FieldError("at least one module count is required", "M")
        for m in self.modules:
            check_grid(period=self.period, modules=m, fewest_modules=1)
        object.__setattr__(self, "trials", as_int(self.trials, "trials", 1))
        object.__setattr__(self, "master_seed", as_int(self.master_seed, "master_seed", 0))
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


def method_coeffs(
    method: str, kernel: InterpKernel, n: int, modules: int, band: Passband
) -> ModuleCoeffs:
    """Weights of `method` (classical, comb or optimized) for `modules` modules.

    Comb weights exist only at their own count floor(T/2); any other
    `modules` raises `FieldError` on M. With zero modules there is nothing
    to weight or solve, so classical and optimized both give the empty set.
    """
    if method == "comb":
        coeffs = comb_coeffs(kernel.period)
        if modules != coeffs.modules:
            raise FieldError(f"comb weights have {coeffs.modules} modules at period "
                             f"{kernel.period}, not {modules}", "M")
        return coeffs
    if method == "classical" or modules == 0:
        return classical_coeffs(kernel.period, modules)
    if method == "optimized":
        return solve_coefficients(assemble_system(kernel, n, modules, band)).coeffs
    raise ValueError(f"unknown method {method!r}")


# One sweep row: (method, modules, input SNR in dB or None for clean).
_Cell = tuple[str, int, float | None]


def _raw_snrs(spec: SweepSpec, cells: list[_Cell], trials: range) -> np.ndarray:
    """Raw output SNRs in dB (maybe +inf), shape (len(cells), len(trials))."""
    kernel = kernel_from_id(spec.kernel_id, spec.period)
    banks = {
        (method, modules): module_bank(method_coeffs(method, kernel, spec.n, modules, spec.k_sig))
        for method, modules in dict.fromkeys(cell[:2] for cell in cells)
    }
    cells_at_level: dict[float | None, list[int]] = {}
    for index, (_, _, level) in enumerate(cells):
        cells_at_level.setdefault(level, []).append(index)
    noisy = any(level is not None for level in cells_at_level)
    out = np.empty((len(cells), len(trials)))
    chunk = _TRIAL_CHUNK if 8 * _TRIAL_CHUNK * spec.n <= _CHUNK_BYTES else 1
    for start in range(0, len(trials), chunk):
        columns = slice(start, start + chunk)
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
                restored = reconstruct_array(held, banks[cells[index][:2]], spec.k_sig)
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


def _sweep(spec: SweepSpec, levels: tuple[float | None, ...]) -> list[SweepRow]:
    """Rows ordered by (method, modules, level); comb sits at its own count."""
    cells = [
        (method, modules, level)
        for method in sorted(set(spec.methods))
        for modules in (
            [comb_coeffs(spec.period).modules] if method == "comb" else sorted(set(spec.modules))
        )
        for level in levels
    ]
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

    Rows are ordered by (method, modules). Comb contributes a single row at
    its own count floor(T/2), whatever the requested modules list says.
    """
    return _sweep(spec, (None,))


def run_noise_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Noisy-input sweep at a fixed module count over the requested SNRs.

    Noise is injected into the band-limited signal before sampling. Rows are
    grouped by method (alphabetical) and follow the requested SNR order.
    Classical and optimized rows use the requested count; comb rows use its
    own count floor(T/2), as in the module sweep.
    """
    if not spec.noise_snrs_db:
        raise FieldError("noise sweep needs a non-empty noise_snrs_db list", "snr")
    if len(set(spec.modules)) != 1:
        raise FieldError("noise sweep uses exactly one module count", "M")
    return _sweep(spec, spec.noise_snrs_db)


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
