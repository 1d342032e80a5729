"""Least-squares design of module weights from kernel replica responses.

The design system is `modular.replica_system`: the real-stacked replica
pairs and unity-gain deficit on bins 0..K, whose least-squares solution
minimizes the replica-sum error (negative bins are conjugates of positive
ones, so `modular.passband_energy` counts every k >= 1 term twice). A
`DesignSystem` holds that cache's own read-only arrays, its matrix a view of
the first M columns, and the stored residual is exactly `modular.error_metric`
at the stored weights. `solve_coefficients` refuses a hand-built system with
a non-finite entry.

Solved weights depend only on the kernel, not on any signal, so they are
persisted to a small JSON lookup table and reused. A `CoeffSolution` owns the
value rules (T, N and K are ints on a grid that passes `check_grid`, M is at
most floor(T/2), the kernel id is a string, the residual finite and >= 0), so
`load_coeffs` only parses and type-checks JSON, and a file loads exactly when
`store_coeffs` could have written it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kernels import InterpKernel
from .modular import ModuleCoeffs, passband_energy, replica_system
from .signals import FieldError, Passband, as_int, check_grid

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


class CoeffFileError(FieldError):
    """Raised when a coefficient lookup file is unusable or mismatched.

    `field` names the file field at fault (kernel_id, T, N, K, M,
    coefficients, ...) when there is one.
    """


@dataclass(frozen=True, eq=False)
class DesignSystem:
    """Real-stacked least-squares system for the module weights: `matrix` is
    the first M columns of `modular.replica_system`'s pairs, `target` its deficit."""

    matrix: np.ndarray
    target: np.ndarray
    kernel_id: str
    period: int
    n: int
    passband: int


@dataclass(frozen=True)
class CoeffSolution:
    """Solved module weights plus the replica-sum error at the solution; a grid,
    residual or kernel id that its file could not hold raises `FieldError`."""

    coeffs: ModuleCoeffs
    residual: float
    kernel_id: str
    n: int
    passband: int
    rank_deficient: bool = field(default=False, compare=False)  # files do not keep it

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n, "N"))
        object.__setattr__(self, "passband", as_int(self.passband, "K"))
        if not isinstance(self.kernel_id, str):
            raise FieldError(f"kernel_id must be a string, got {self.kernel_id!r}", "kernel_id")
        check_grid(self.n, self.coeffs.period, band=Passband(self.passband))
        residual = float(self.residual)
        if not (math.isfinite(residual) and residual >= 0.0):
            raise FieldError(f"residual must be finite and >= 0, got {residual!r}", "residual")
        object.__setattr__(self, "residual", residual)


def assemble_system(
    kernel: InterpKernel, n: int, modules: int, band: Passband
) -> DesignSystem:
    """Build the stacked system whose LS solution minimizes the replica error.

    Minimizing ||matrix @ c - target||^2 over real c minimizes
    sum_{k=0..K} |row_k . c - beta_k|^2 with beta_k = 1 - H(k)/period. The
    arrays are views of the cached `modular.replica_system`, not copies.
    """
    check_grid(n, kernel.period, band=band, modules=modules, fewest_modules=1)
    matrix, target = replica_system(kernel, n, band)
    return DesignSystem(
        matrix=matrix[:, :modules],
        target=target,
        kernel_id=kernel.id,
        period=kernel.period,
        n=as_int(n, "N"),  # an int, as in the CoeffSolution solved from it
        passband=band.half_width_bins,
    )


def solve_coefficients(system: DesignSystem) -> CoeffSolution:
    """Minimum-norm least-squares solve of the stacked system.

    The reported residual is the `passband_energy` of the stacked error,
    exactly `error_metric` evaluated at the returned coefficients. A
    rank-deficient matrix still yields the minimum-norm solution, flagged
    rather than silently returned.
    """
    matrix, target = system.matrix, system.target
    # LAPACK would print DLASCL errors on a non-finite entry and return garbage
    if not (np.isfinite(matrix).all() and np.isfinite(target).all()):
        raise ValueError("design system entries must all be finite")
    c, _, rank, _ = np.linalg.lstsq(matrix, target, rcond=None)
    return CoeffSolution(
        coeffs=ModuleCoeffs(system.period, tuple(float(v) for v in c)),
        residual=passband_energy(matrix @ c - target),
        kernel_id=system.kernel_id,
        n=system.n,
        passband=system.passband,
        rank_deficient=rank < matrix.shape[1],
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
        try:
            with os.fdopen(fd, "w") as fh:  # dumps: json.dump's pure-Python encoder is slower
                fh.write(json.dumps(payload) + "\n")
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
    except OSError as exc:  # name the file asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


# Each field's JSON type as `store_coeffs` writes it, checked with type(),
# which also refuses bool, and an int where a float belongs.
_FIELD_TYPES = {
    "kernel_id": (str, "a string"),
    **dict.fromkeys(("T", "N", "K", "M"), (int, "an integer")),
    "coefficients": (list, "a list of floats"),
    "residual": (float, "a float"),
}


def load_coeffs(path: str | Path) -> CoeffSolution:
    """Read a coefficient lookup file written by `store_coeffs`.

    A file that is unreadable, not UTF-8 JSON, of another schema, or whose
    fields break their JSON type or a `CoeffSolution` rule raises
    `CoeffFileError`, naming the field at fault when there is one.
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
    for field, (kind, noun) in _FIELD_TYPES.items():
        if field not in data:
            raise CoeffFileError(f"{path}: missing field {field!r}", field)
        value = data[field]
        if type(value) is not kind or (kind is list and any(type(v) is not float for v in value)):
            raise CoeffFileError(f"{path}: field {field!r} must be {noun}", field)
    values = data["coefficients"]
    if data["M"] != len(values):
        raise CoeffFileError(
            f"{path}: M = {data['M']} but {len(values)} coefficients present", "M"
        )
    try:
        return CoeffSolution(
            coeffs=ModuleCoeffs(data["T"], values),
            residual=data["residual"],
            kernel_id=data["kernel_id"],
            n=data["N"],
            passband=data["K"],
        )
    except FieldError as exc:  # a value rule of the record, on its own field
        raise CoeffFileError(f"{path}: field {exc.field!r}: {exc}", exc.field) from exc


def check_solution_matches(
    solution: CoeffSolution, kernel_id: str, period: int, *, n: int, passband: int,
    modules: int | None = None,
) -> None:
    """Refuse coefficients solved for a different kernel, hold period, signal
    length N, passband half-width K or, when `modules` is given, module count M."""
    expected = (
        ("kernel_id", "kernel", solution.kernel_id, kernel_id),
        ("T", "period", solution.coeffs.period, period),
        ("N", "length N", solution.n, n),
        ("K", "passband K", solution.passband, passband),
        ("M", "module count M", solution.coeffs.modules, modules),
    )
    for field, label, solved, wanted in expected:
        if wanted is not None and solved != wanted:
            raise CoeffFileError(
                f"coefficients were solved for {label} {solved!r}, not {wanted!r}", field
            )
