"""Command-line front end: weight solving, reconstruction demos and sweeps.

Exit codes: 0 on success, 2 on flag or validation errors, 1 on runtime
errors. Flag defaults mirror the benchmark defaults (length 2048, period 16,
trials 100, guard 0.10, passband length/(2*period) - 1), so a bare
`holdfix sweep-modules --kernel sh` runs the headline module-count
experiment.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    METHODS,
    SweepSpec,
    run_module_sweep,
    run_noise_sweep,
    write_csv,
)
from .kernels import InterpKernel, interpolate, kernel_from_id
from .modular import ModuleCoeffs, classical_coeffs, comb_coeffs, max_modules, reconstruct
from .optimizer import (
    CoeffFileError,
    assemble_system,
    check_solution_matches,
    load_coeffs,
    solve_coefficients,
    store_coeffs,
)
from .signals import Passband, gen_bandlimited, noise_power_ratio, sample_train, snr_db

__all__ = ["main"]


class UsageError(Exception):
    """Flag-level validation failure; maps to exit code 2."""


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kernel", default="sh",
                     help="kernel id: sh | li | hold:<n> | custom:<path>")
    sub.add_argument("--period", type=int, default=16,
                     help="hold/sampling period in samples")
    sub.add_argument("--length", type=int, default=2048,
                     help="signal length N (must be divisible by --period)")
    sub.add_argument("--passband", type=int, default=None,
                     help="passband half-width in bins (default length/(2*period) - 1)")


def _add_sweep_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--methods", default="classical,optimized",
                     help="comma-separated subset of classical,comb,optimized")
    sub.add_argument("--trials", type=int, default=100, help="trials per row")
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--guard", type=float, default=0.10,
                     help="fraction of samples ignored at each end for SNR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holdfix",
        description="Reconstruct band-limited signals from hold-type "
                    "interpolations via weighted cosine-module mixing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve optimal module weights for a kernel")
    _add_grid_flags(p)
    p.add_argument("--modules", type=int, required=True, help="module count M")
    p.add_argument("--out", required=True, help="output coefficient JSON path")

    p = sub.add_parser("reconstruct",
                       help="reconstruct a generated test signal and print its SNR")
    _add_grid_flags(p)
    p.add_argument("--method", required=True, choices=["classical", "optimized", "comb"],
                   help="weighting method")
    p.add_argument("--modules", type=int, default=None,
                   help="module count M (default period/2)")
    p.add_argument("--coeff-file", default=None,
                   help="use weights from this coefficient JSON instead of solving")
    p.add_argument("--seed", type=int, default=0, help="test-signal seed")
    p.add_argument("--guard", type=float, default=0.10,
                   help="fraction of samples ignored at each end for SNR")

    p = sub.add_parser("sweep-modules", help="clean-signal sweep over module counts")
    _add_grid_flags(p)
    _add_sweep_flags(p)
    p.add_argument("--modules", default=None,
                   help="module counts: a..b range or comma list (default 1..period/2)")
    p.add_argument("--out", default="modules-sweep.csv", help="output CSV path")

    p = sub.add_parser("sweep-noise", help="noisy-input sweep at a fixed module count")
    _add_grid_flags(p)
    _add_sweep_flags(p)
    p.add_argument("--modules", type=int, default=5,
                   help="module count M used for every row")
    p.add_argument("--snrs", default="0,10,20,30,40,50,60,70,80",
                   help="comma-separated input SNRs in dB")
    p.add_argument("--out", default="noise-sweep.csv", help="output CSV path")

    p = sub.add_parser("show-kernel", help="print a kernel's taps and origin")
    p.add_argument("--kernel", default="sh",
                   help="kernel id: sh | li | hold:<n> | custom:<path>")
    p.add_argument("--period", type=int, default=16,
                   help="hold/sampling period in samples")

    return parser


def _kernel_for(args) -> InterpKernel:
    if args.period < 1:
        raise UsageError(f"--period must be >= 1, got {args.period}")
    try:
        return kernel_from_id(args.kernel, args.period)
    except ValueError as exc:
        raise UsageError(f"--kernel: {exc}") from exc


def _check_grid(args) -> None:
    if args.length < 2:
        raise UsageError(f"--length must be >= 2, got {args.length}")
    if args.length % args.period:
        raise UsageError(
            f"--length {args.length} is not divisible by --period {args.period}"
        )


def _default_passband(args) -> int:
    nyquist_bin = args.length // (2 * args.period)
    k = args.passband if args.passband is not None else nyquist_bin - 1
    if k < 0:
        raise UsageError(
            f"--passband {k} is negative (is --length too small for --period?)"
        )
    return k


def _check_cap(modules: int, period: int, flag: str = "--modules") -> None:
    cap = max_modules(period)
    if modules > cap:
        raise UsageError(
            f"{flag} {modules} exceeds the maximum {cap} modules for --period {period}"
        )
    if modules < 0:
        raise UsageError(f"{flag} must be >= 0, got {modules}")


def _parse_module_list(text: str, period: int) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            values = list(range(int(lo_text), int(hi_text) + 1))
        else:
            values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise UsageError(f"--modules: cannot parse {text!r} (use a..b or m1,m2,...)") from None
    if not values:
        raise UsageError("--modules: empty list")
    for m in values:
        _check_cap(m, period)
        if m < 1:
            raise UsageError(f"--modules entries must be >= 1, got {m}")
    return tuple(values)


def _parse_methods(text: str) -> tuple[str, ...]:
    methods = tuple(tok for tok in text.split(",") if tok)
    unknown = sorted(set(methods) - set(METHODS))
    if unknown:
        raise UsageError(f"--methods: unknown {unknown}; choose from {list(METHODS)}")
    if not methods:
        raise UsageError("--methods: empty list")
    return methods


def _parse_snrs(text: str) -> tuple[float, ...]:
    try:
        snrs = tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise UsageError(f"--snrs: cannot parse {text!r} as comma-separated dB values") from None
    if not snrs:
        raise UsageError("--snrs: empty list")
    for snr in snrs:
        try:
            noise_power_ratio(snr)
        except ValueError as exc:
            raise UsageError(f"--snrs: {exc}") from None
    return snrs


def _check_guard(guard: float) -> None:
    if not 0.0 <= guard < 0.5:
        raise UsageError(f"--guard must lie in [0, 0.5), got {guard}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")


def cmd_solve(args) -> int:
    kernel = _kernel_for(args)
    _check_grid(args)
    k = _default_passband(args)
    if k > args.length // 2:
        raise UsageError(f"--passband {k} exceeds --length/2 = {args.length // 2}")
    _check_cap(args.modules, args.period)
    if args.modules < 1:
        raise UsageError(f"--modules must be >= 1, got {args.modules}")
    solution = solve_coefficients(assemble_system(kernel, args.length, args.modules, Passband(k)))
    store_coeffs(solution, args.out)
    if solution.rank_deficient:
        print("warning: design system is rank deficient; minimum-norm solution stored",
              file=sys.stderr)
    print(f"kernel {kernel.id} period {args.period} modules {args.modules}: "
          f"residual {solution.residual:.6e}")
    print(f"wrote {args.out}")
    return 0


# Coefficient-file field -> the flag that sets it on the command line.
_GRID_FLAGS = {"kernel_id": "--kernel", "T": "--period", "N": "--length", "K": "--passband"}


def cmd_reconstruct(args) -> int:
    kernel = _kernel_for(args)
    _check_grid(args)
    k = _default_passband(args)
    _check_guard(args.guard)
    _check_seed(args.seed)
    modules = args.modules if args.modules is not None else max_modules(args.period)
    _check_cap(modules, args.period)

    if args.coeff_file is not None:
        solution = load_coeffs(args.coeff_file)
        try:
            check_solution_matches(solution, kernel.id, args.period, n=args.length, passband=k)
        except CoeffFileError as exc:
            raise CoeffFileError(f"{_GRID_FLAGS[exc.field]}: {exc}", exc.field) from exc
        coeffs = solution.coeffs
    elif args.method == "classical":
        coeffs = classical_coeffs(args.period, modules)
    elif args.method == "comb":
        coeffs = comb_coeffs(args.period)
    elif modules == 0:
        coeffs = ModuleCoeffs(args.period, ())
    else:
        coeffs = solve_coefficients(
            assemble_system(kernel, args.length, modules, Passband(k))
        ).coeffs

    band = Passband(k)
    clean = gen_bandlimited(args.length, band, 1.0, args.seed)
    held = interpolate(sample_train(clean, args.period), kernel)
    restored = reconstruct(held, coeffs, band)
    print(f"snr_db {snr_db(clean, restored, args.guard):.6f}")
    return 0


def _sweep_spec(args, modules: tuple[int, ...], snrs: tuple[float, ...] | None) -> SweepSpec:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    _check_seed(args.seed)
    try:
        return SweepSpec(
            kernel_id=args.kernel,
            period=args.period,
            n=args.length,
            k_sig=Passband(_default_passband(args)),
            methods=_parse_methods(args.methods),
            modules=modules,
            trials=args.trials,
            master_seed=args.seed,
            noise_snrs_db=snrs,
            guard_fraction=args.guard,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_sweep_modules(args) -> int:
    _kernel_for(args)
    _check_grid(args)
    _check_guard(args.guard)
    if args.modules is None:
        cap = max_modules(args.period)
        if cap < 1:
            raise UsageError(f"--period {args.period} admits no modules")
        modules = tuple(range(1, cap + 1))
    else:
        modules = _parse_module_list(args.modules, args.period)
    rows = run_module_sweep(_sweep_spec(args, modules, None))
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_sweep_noise(args) -> int:
    _kernel_for(args)
    _check_grid(args)
    _check_guard(args.guard)
    _check_cap(args.modules, args.period)
    if args.modules < 1:
        raise UsageError(f"--modules must be >= 1, got {args.modules}")
    snrs = _parse_snrs(args.snrs)
    rows = run_noise_sweep(_sweep_spec(args, (args.modules,), snrs))
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_show_kernel(args) -> int:
    kernel = _kernel_for(args)
    print(f"id {kernel.id}")
    print(f"period {kernel.period}")
    print(f"origin {kernel.origin}")
    print("taps " + " ".join(f"{tap:.12g}" for tap in kernel.taps))
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "reconstruct": cmd_reconstruct,
    "sweep-modules": cmd_sweep_modules,
    "sweep-noise": cmd_sweep_noise,
    "show-kernel": cmd_show_kernel,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
