"""Least-squares design of module weights from kernel replica responses.

The passband gain is affine in the module weights: weight j scales the
folded replica pair H((k - j n/T)) + H((k + j n/T)). Sampling those pairs on
the non-negative passband bins (`modular.replica_matrix`) and stacking real
and imaginary parts gives an overdetermined real system A c = b whose
least-squares solution minimizes the replica-sum error. Negative bins are
conjugate duplicates of positive ones for real-tapped kernels, so they are
folded into the residual bookkeeping (weight 2 on every k >= 1 term)
instead of the matrix.

Solved weights depend only on the kernel, not on any signal, so they are
persisted to a small JSON lookup table and reused.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import InterpKernel
from .modular import ModuleCoeffs, replica_matrix
from .signals import FieldError, Passband, check_grid

__all__ = [
    "DesignSystem",
    "CoeffSolution",
    "CoeffFileError",
    "replica_response",
    "assemble_system",
    "solve_coefficients",
    "store_coeffs",
    "load_coeffs",
    "check_solution_matches",
    "COEFF_SCHEMA",
]

COEFF_SCHEMA = "holdfix-coeffs/1"


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

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        target = np.array(self.target, dtype=float)
        if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(target))):
            raise ValueError("design system entries must all be finite")
        if matrix.ndim != 2 or target.ndim != 1 or matrix.shape[0] != target.size:
            raise ValueError("matrix and target shapes disagree")
        matrix.setflags(write=False)
        target.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "target", target)


@dataclass(frozen=True)
class CoeffSolution:
    """Solved module weights plus the replica-sum error at the solution."""

    coeffs: ModuleCoeffs
    residual: float
    kernel_id: str
    n: int
    passband: int
    rank_deficient: bool = False


def replica_response(kernel: InterpKernel, n: int, j: int, k: int) -> complex:
    """Folded normalized response H((k - j n/T))/T + H((k + j n/T))/T at bin k,
    for 1 <= j <= T/2: entry (k, j) of `modular.replica_matrix`."""
    check_grid(period=kernel.period, modules=j, fewest_modules=1)
    _, pairs = replica_matrix(kernel, n, np.array([k]), j)
    return complex(pairs[0, j - 1])


def assemble_system(
    kernel: InterpKernel, n: int, modules: int, band: Passband
) -> DesignSystem:
    """Build the stacked system whose LS solution minimizes the replica error.

    Minimizing ||matrix @ c - target||^2 over real c minimizes
    sum_{k=0..K} |row_k . c - beta_k|^2 with beta_k = 1 - H(k)/period.
    """
    check_grid(n, kernel.period, band=band, modules=modules, fewest_modules=1)
    k_max = band.half_width_bins
    base, rows = replica_matrix(kernel, n, np.arange(k_max + 1), modules)
    deficit = 1.0 - base
    return DesignSystem(
        matrix=np.vstack([rows.real, rows.imag]),
        target=np.concatenate([deficit.real, deficit.imag]),
        kernel_id=kernel.id,
        period=kernel.period,
        n=n,
        passband=k_max,
    )


def solve_coefficients(system: DesignSystem) -> CoeffSolution:
    """Minimum-norm least-squares solve of the stacked system.

    The reported residual is in full-passband units: the bin-0 term counted
    once plus twice every k >= 1 term, matching `error_metric` evaluated at
    the returned coefficients. A rank-deficient matrix still yields the
    minimum-norm solution, flagged rather than silently returned.
    """
    matrix, target = system.matrix, system.target
    modules = matrix.shape[1]
    c, _, rank, _ = np.linalg.lstsq(matrix, target, rcond=None)
    stacked_residual = matrix @ c - target
    half = matrix.shape[0] // 2
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
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
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
    naming the field instead of a raw conversion error.
    """
    with open(path) as fh:
        data = json.load(fh)
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
    except ValueError as exc:
        raise CoeffFileError(f"{path}: field 'coefficients': {exc}", "coefficients") from exc
    return CoeffSolution(
        coeffs=coeffs,
        residual=float(data["residual"]),
        kernel_id=data["kernel_id"],
        n=data["N"],
        passband=data["K"],
    )


def check_solution_matches(
    solution: CoeffSolution,
    kernel_id: str,
    period: int,
    *,
    n: int | None = None,
    passband: int | None = None,
) -> None:
    """Refuse coefficients solved for a different kernel, hold period, signal
    length N or passband half-width K. N and K are checked when given."""
    expected = (
        ("kernel_id", "kernel", solution.kernel_id, kernel_id),
        ("T", "period", solution.coeffs.period, period),
        ("N", "length N", solution.n, n),
        ("K", "passband K", solution.passband, passband),
    )
    for field, label, solved, wanted in expected:
        if wanted is not None and solved != wanted:
            raise CoeffFileError(
                f"coefficients were solved for {label} {solved!r}, not {wanted!r}", field
            )
