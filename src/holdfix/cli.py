"""Command-line front end: weight solving, reconstruction demos and sweeps.

Exit codes: 0 on success, 2 on flag or validation errors, 1 on runtime
errors and on a coefficient file that does not fit the flags. The library
validates its inputs and raises `FieldError` naming the field at fault;
`main` maps each field to its flag in one table, `_FLAGS`, so every such
message names the flag. The parser is built once per process, on the first
`main` call, and holds no per-call state. The flag defaults are the headline
setup (length 2048, period 16, trials 100, guard 0.10, passband
length/(2*period) - 1, classical and optimized weights):
`scripts/run_benchmarks.py` writes the headline CSVs by running bare
`sweep-modules --kernel sh`, `sweep-modules --kernel li` and
`sweep-noise --kernel sh`, and `tests/test_golden.py` pins those defaults.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .bench import (
    METHODS,
    SweepSpec,
    method_coeffs,
    run_module_sweep,
    run_noise_sweep,
    write_csv,
)
from .kernels import interpolate, kernel_from_id
from .modular import max_modules, passband_energy, reconstruct
from .optimizer import (
    CoeffFileError,
    assemble_system,
    check_solution_matches,
    load_coeffs,
    solve_coefficients,
    store_coeffs,
)
from .signals import (FieldError, Passband, check_grid, gen_bandlimited, max_passband,
                      sample_train, snr_db)

__all__ = ["main"]

# Field named by a validation error -> the flag that sets it.
_FLAGS = {
    "kernel_id": "--kernel", "T": "--period", "N": "--length", "K": "--passband",
    "M": "--modules", "method": "--method", "methods": "--methods", "trials": "--trials",
    "seed": "--seed", "master_seed": "--seed", "guard_fraction": "--guard", "snr": "--snrs",
    "coeff_file": "--coeff-file",
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="holdfix",
        description="Reconstruct band-limited signals from hold-type "
                    "interpolations via weighted cosine-module mixing.",
    )
    # Flag groups shared by several subcommands, each flag defined once.
    kernel_flags = argparse.ArgumentParser(add_help=False)
    kernel_flags.add_argument("--kernel", default="sh",
                              help="kernel id: sh | li | hold:<n> | custom:<path>")
    kernel_flags.add_argument("--period", type=int, default=16,
                              help="hold/sampling period in samples")
    grid_flags = argparse.ArgumentParser(add_help=False, parents=[kernel_flags])
    grid_flags.add_argument("--length", type=int, default=2048,
                            help="signal length N (must be divisible by --period)")
    grid_flags.add_argument("--passband", type=int, default=None,
                            help="passband half-width in bins (default length/(2*period) - 1)")
    trial_flags = argparse.ArgumentParser(add_help=False)
    trial_flags.add_argument("--seed", type=int, default=0,
                             help="master seed of the test signals")
    trial_flags.add_argument("--guard", type=float, default=0.10,
                             help="fraction of samples ignored at each end for SNR")
    sweep_flags = argparse.ArgumentParser(add_help=False, parents=[grid_flags])
    sweep_flags.add_argument("--methods", default="classical,optimized",
                             help=f"comma-separated subset of {','.join(METHODS)}")
    sweep_flags.add_argument("--trials", type=int, default=100, help="trials per row")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[grid_flags],
                       help="solve optimal module weights for a kernel")
    p.add_argument("--modules", type=int, required=True, help="module count M")
    p.add_argument("--out", required=True, help="output coefficient JSON path")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("reconstruct", parents=[grid_flags, trial_flags],
                       help="reconstruct a generated test signal and print its SNR")
    p.add_argument("--method", required=True, choices=METHODS, help="weighting method")
    p.add_argument("--modules", type=int, default=None,
                   help="module count M (default period/2)")
    p.add_argument("--coeff-file", default=None,
                   help="use weights from this coefficient JSON instead of solving")
    p.set_defaults(run=cmd_reconstruct)

    p = sub.add_parser("sweep-modules", parents=[sweep_flags, trial_flags],
                       help="clean-signal sweep over module counts")
    p.add_argument("--modules", default=None,
                   help="module counts: a..b range or comma list (default 1..period/2)")
    p.add_argument("--out", default="modules-sweep.csv", help="output CSV path")
    p.set_defaults(run=cmd_sweep_modules)

    p = sub.add_parser("sweep-noise", parents=[sweep_flags, trial_flags],
                       help="noisy-input sweep at a fixed module count")
    p.add_argument("--modules", type=int, default=5,
                   help="module count M used for every row")
    p.add_argument("--snrs", default="0,10,20,30,40,50,60,70,80",
                   help="comma-separated input SNRs in dB")
    p.add_argument("--out", default="noise-sweep.csv", help="output CSV path")
    p.set_defaults(run=cmd_sweep_noise)

    p = sub.add_parser("show-kernel", parents=[kernel_flags],
                       help="print a kernel's taps and origin")
    p.set_defaults(run=cmd_show_kernel)

    return parser


def _default_passband(args) -> int:
    if args.passband is not None:
        return args.passband  # `Passband` refuses a negative one
    k = max_passband(args.length, args.period)
    if k < 0:
        raise FieldError(f"passband half-width {k} is negative "
                         "(is --length too small for --period?)", "K")
    return k


def _parse_module_list(text: str, period: int) -> tuple[int, ...]:
    try:
        if ".." not in text:
            return tuple(int(tok) for tok in text.split(",") if tok)
        lo, hi = (int(tok) for tok in text.split("..", 1))
    except ValueError:
        raise FieldError(f"cannot parse {text!r} (use a..b or m1,m2,...)", "M") from None
    for end in (lo, hi):  # refuse a huge range before listing it
        check_grid(period=period, modules=end, fewest_modules=1)
    return tuple(range(lo, hi + 1))  # `SweepSpec` refuses an empty list


def _parse_snrs(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise FieldError(f"cannot parse {text!r} as comma-separated dB values", "snr") from None


def cmd_solve(args) -> int:
    kernel = kernel_from_id(args.kernel, args.period)
    band = Passband(_default_passband(args))
    system = assemble_system(kernel, args.length, args.modules, band)
    solution = solve_coefficients(system)
    store_coeffs(solution, args.out)
    if solution.rank_deficient:
        # many rank-deficient systems still fit exactly, to within rounding
        floor = sys.float_info.epsilon * passband_energy(system.target)
        if solution.residual > floor:
            print("warning: design system is rank deficient; minimum-norm solution stored",
                  file=sys.stderr)
    print(f"kernel {kernel.id} period {args.period} modules {args.modules}: "
          f"residual {solution.residual:.6e}")
    print(f"wrote {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    kernel = kernel_from_id(args.kernel, args.period)
    band = Passband(_default_passband(args))
    modules = args.modules if args.modules is not None else max_modules(args.period)
    check_grid(args.length, args.period, band=band, modules=modules)
    if args.coeff_file is not None:
        if args.method != "optimized":
            raise CoeffFileError(
                f"a coefficient file holds optimized weights, not {args.method!r} ones", "method"
            )
        try:
            solution = load_coeffs(args.coeff_file)
        except CoeffFileError as exc:  # the file itself is at fault, not a grid flag
            raise CoeffFileError(str(exc), "coeff_file") from exc
        check_solution_matches(solution, kernel.id, args.period, n=args.length,
                               passband=band.half_width_bins, modules=args.modules)
        coeffs = solution.coeffs
    else:
        coeffs = method_coeffs(args.method, kernel, args.length, modules, band)

    clean = gen_bandlimited(args.length, band, 1.0, args.seed)
    held = interpolate(sample_train(clean, args.period), kernel)
    restored = reconstruct(held, coeffs, band)
    print(f"snr_db {snr_db(clean, restored, args.guard):.6f}")
    return 0


def _run_sweep(args, sweep, modules: tuple[int, ...], snrs: tuple[float, ...] | None) -> int:
    rows = sweep(SweepSpec(
        kernel_id=args.kernel,
        period=args.period,
        n=args.length,
        k_sig=Passband(_default_passband(args)),
        methods=tuple(tok for tok in args.methods.split(",") if tok),
        modules=modules,
        trials=args.trials,
        master_seed=args.seed,
        noise_snrs_db=snrs,
        guard_fraction=args.guard,
    ))
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_sweep_modules(args) -> int:
    if args.modules is None:
        cap = max_modules(args.period)
        if cap < 1:
            raise FieldError(f"period {args.period} admits no modules", "T")
        modules = tuple(range(1, cap + 1))
    else:
        modules = _parse_module_list(args.modules, args.period)
    return _run_sweep(args, run_module_sweep, modules, None)


def cmd_sweep_noise(args) -> int:
    return _run_sweep(args, run_noise_sweep, (args.modules,), _parse_snrs(args.snrs))


def cmd_show_kernel(args) -> int:
    kernel = kernel_from_id(args.kernel, args.period)
    print(f"id {kernel.id}")
    print(f"period {kernel.period}")
    print(f"origin {kernel.origin}")
    print("taps " + " ".join(f"{tap:.12g}" for tap in kernel.taps))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except FieldError as exc:
        flag = _FLAGS.get(exc.field)
        print(f"error: {flag}: {exc}" if flag else f"error: {exc}", file=sys.stderr)
        # a coefficient file that does not fit the flags is a runtime error
        return 1 if isinstance(exc, CoeffFileError) else 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
