"""Least-squares design of module weights from kernel replica responses.

The passband gain is affine in the module weights: weight j scales the
folded replica pair H((k - j n/T)) + H((k + j n/T)). Sampling those pairs on
the non-negative passband bins (`modular.replica_matrix`) and stacking real
and imaginary parts gives an overdetermined real system A c = b whose
least-squares solution minimizes the replica-sum error. Negative bins are
conjugate duplicates of positive ones for real-tapped kernels, so they are
folded into the residual bookkeeping (weight 2 on every k >= 1 term)
instead of the matrix.

Column j of the system does not depend on M, so the system for M modules is
exactly the first M columns of the one for floor(T/2). `assemble_system`
builds that full system once per kernel and grid and keeps it, read-only, in
a least-recently-used cache of _SYSTEM_CACHE_SIZE (16) entries keyed on the
kernel's taps and origin (never its id, so a rewritten custom kernel file is
rebuilt), period, N and K. An entry holds about 4N bytes (256 KiB at
N = 65536). A `DesignSystem` holds the entry's own read-only arrays, its
matrix a view of the first M columns, so nothing is copied per call and every
M is bit-identical to a fresh build. This cache, `_full_system`, is the
package's only design cache: solved weights are not cached, since a solve
from cached columns is one small lstsq. `solve_coefficients` refuses a system
with a non-finite entry, and `CoeffSolution` a residual not finite and >= 0.

Solved weights depend only on the kernel, not on any signal, so they are
persisted to a small JSON lookup table and reused.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .kernels import InterpKernel
from .modular import ModuleCoeffs, replica_matrix
from .signals import FieldError, Passband, check_grid, max_modules

__all__ = [
    "DesignSystem",
    "CoeffSolution",
    "CoeffFileError",
    "assemble_system",
    "solve_coefficients",
    "store_coeffs",
    "load_coeffs",
    "check_solution_matches",
    "COEFF_SCHEMA",
]

COEFF_SCHEMA = "holdfix-coeffs/1"

# Full replica systems kept by `assemble_system`: one per (kernel, period) of
# the benchmark design grid.
_SYSTEM_CACHE_SIZE = 16


class CoeffFileError(FieldError):
    """Raised when a coefficient lookup file is unusable or mismatched.

    `field` names the file field at fault (kernel_id, T, N, K, M,
    coefficients, ...) when there is one.
    """


@dataclass(frozen=True, eq=False)
class DesignSystem:
    """Real-stacked least-squares system for the module weights.

    Rows 0..K of `matrix` hold the real parts of the folded replica
    responses on bins 0..K, rows K+1..2K+1 the imaginary parts; `target`
    stacks the matching parts of the unity-gain deficit 1 - H(k)/period.
    """

    matrix: np.ndarray
    target: np.ndarray
    kernel_id: str
    period: int
    n: int
    passband: int


@dataclass(frozen=True)
class CoeffSolution:
    """Solved module weights plus the replica-sum error at the solution."""

    coeffs: ModuleCoeffs
    residual: float
    kernel_id: str
    n: int
    passband: int
    rank_deficient: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.residual) and self.residual >= 0.0):
            raise ValueError(f"residual must be finite and >= 0, got {self.residual!r}")


def assemble_system(
    kernel: InterpKernel, n: int, modules: int, band: Passband
) -> DesignSystem:
    """Build the stacked system whose LS solution minimizes the replica error.

    Minimizing ||matrix @ c - target||^2 over real c minimizes
    sum_{k=0..K} |row_k . c - beta_k|^2 with beta_k = 1 - H(k)/period.

    The matrix is the first `modules` columns of the cached floor(T/2)-module
    system of this kernel and grid (see the module docstring): at most 16
    systems of about 4N bytes each are kept.
    """
    check_grid(n, kernel.period, band=band, modules=modules, fewest_modules=1)
    k_max = band.half_width_bins
    matrix, target = _full_system(kernel.taps.tobytes(), kernel.origin, kernel.period, n, k_max)
    return DesignSystem(
        matrix=matrix[:, :modules],
        target=target,
        kernel_id=kernel.id,
        period=kernel.period,
        n=n,
        passband=k_max,
    )


@lru_cache(maxsize=_SYSTEM_CACHE_SIZE)
def _full_system(
    taps: bytes, origin: int, period: int, n: int, k_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (matrix, target) at floor(period/2) modules over bins 0..k_max."""
    kernel = InterpKernel(np.frombuffer(taps), origin, period, "replica system")
    # an overflowing kernel response is refused by `solve_coefficients`
    with np.errstate(over="ignore", invalid="ignore"):
        base, rows = replica_matrix(kernel, n, np.arange(k_max + 1), max_modules(period))
        deficit = 1.0 - base
    system = (np.vstack([rows.real, rows.imag]), np.concatenate([deficit.real, deficit.imag]))
    for array in system:
        array.setflags(write=False)
    return system


def solve_coefficients(system: DesignSystem) -> CoeffSolution:
    """Minimum-norm least-squares solve of the stacked system.

    The reported residual is in full-passband units: the bin-0 term counted
    once plus twice every k >= 1 term, matching `error_metric` evaluated at
    the returned coefficients. A rank-deficient matrix still yields the
    minimum-norm solution, flagged rather than silently returned.
    """
    matrix, target = system.matrix, system.target
    # LAPACK would print DLASCL errors on a non-finite entry and return garbage
    if not (np.isfinite(matrix).all() and np.isfinite(target).all()):
        raise ValueError("design system entries must all be finite")
    modules = matrix.shape[1]
    c, _, rank, _ = np.linalg.lstsq(matrix, target, rcond=None)
    half = matrix.shape[0] // 2
    # an overflowing residual is refused by `CoeffSolution`
    with np.errstate(over="ignore", invalid="ignore"):
        stacked_residual = matrix @ c - target
        per_bin = stacked_residual[:half] ** 2 + stacked_residual[half:] ** 2
        residual = float(per_bin[0] + 2.0 * per_bin[1:].sum())
    return CoeffSolution(
        coeffs=ModuleCoeffs(system.period, tuple(float(v) for v in c)),
        residual=residual,
        kernel_id=system.kernel_id,
        n=system.n,
        passband=system.passband,
        rank_deficient=rank < modules,
    )


def store_coeffs(solution: CoeffSolution, path: str | Path) -> None:
    """Write the solution as a JSON lookup file, replacing `path` atomically.

    Floats are serialized with shortest round-tripping decimal text, so a
    load returns bit-equal values.
    """
    payload = {
        "schema": COEFF_SCHEMA,
        "kernel_id": solution.kernel_id,
        "T": solution.coeffs.period,
        "N": solution.n,
        "K": solution.passband,
        "M": solution.coeffs.modules,
        "coefficients": list(solution.coeffs.c),
        "residual": solution.residual,
    }
    path = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError as exc:  # name the file asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


_REQUIRED_FIELDS = ("kernel_id", "T", "N", "K", "M", "coefficients", "residual")
# Smallest valid value of each integer field.
_INT_FIELDS = {"T": 1, "N": 1, "K": 0, "M": 0}


def load_coeffs(path: str | Path) -> CoeffSolution:
    """Read a coefficient lookup file written by `store_coeffs`.

    Every field is type-checked; a malformed file raises `CoeffFileError`
    naming the field instead of a raw conversion error, and a file that cannot
    be read or is not UTF-8 JSON raises it too.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise CoeffFileError(f"{path}: not a readable JSON file: {exc}") from exc
    if not isinstance(data, dict):
        raise CoeffFileError(f"{path}: expected a JSON object, got {type(data).__name__}")
    schema = data.get("schema")
    if schema != COEFF_SCHEMA:
        raise CoeffFileError(
            f"{path}: unsupported schema {schema!r}, expected {COEFF_SCHEMA!r}", "schema"
        )
    for field in _REQUIRED_FIELDS:
        if field not in data:
            raise CoeffFileError(f"{path}: missing field {field!r}", field)
    # JSON numbers load as exactly int or float; type() also rejects bool.
    if type(data["kernel_id"]) is not str:
        raise CoeffFileError(f"{path}: field 'kernel_id' must be a string", "kernel_id")
    for field, minimum in _INT_FIELDS.items():
        value = data[field]
        if type(value) is not int or value < minimum:
            raise CoeffFileError(
                f"{path}: field {field!r} must be an integer >= {minimum}, got {value!r}", field
            )
    values = data["coefficients"]
    if type(values) is not list or not all(type(v) in (int, float) for v in values):
        raise CoeffFileError(f"{path}: field 'coefficients' must be a list of numbers", "coefficients")
    if type(data["residual"]) not in (int, float):
        raise CoeffFileError(f"{path}: field 'residual' must be a number", "residual")
    if data["M"] != len(values):
        raise CoeffFileError(
            f"{path}: M = {data['M']} but {len(values)} coefficients present", "M"
        )
    try:
        coeffs = ModuleCoeffs(data["T"], values)
    except (ValueError, OverflowError) as exc:  # OverflowError: an int too big for a float
        raise CoeffFileError(f"{path}: field 'coefficients': {exc}", "coefficients") from exc
    try:
        return CoeffSolution(
            coeffs=coeffs,
            residual=float(data["residual"]),
            kernel_id=data["kernel_id"],
            n=data["N"],
            passband=data["K"],
        )
    except (ValueError, OverflowError) as exc:
        raise CoeffFileError(f"{path}: field 'residual': {exc}", "residual") from exc


def check_solution_matches(
    solution: CoeffSolution, kernel_id: str, period: int, *, n: int, passband: int
) -> None:
    """Refuse coefficients solved for a different kernel, hold period, signal
    length N or passband half-width K."""
    expected = (
        ("kernel_id", "kernel", solution.kernel_id, kernel_id),
        ("T", "period", solution.coeffs.period, period),
        ("N", "length N", solution.n, n),
        ("K", "passband K", solution.passband, passband),
    )
    for field, label, solved, wanted in expected:
        if solved != wanted:
            raise CoeffFileError(
                f"coefficients were solved for {label} {solved!r}, not {wanted!r}", field
            )
