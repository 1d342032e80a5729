import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from holdfix import kernels
from holdfix.bench import METHODS, SweepSpec, run_trial
from holdfix.cli import build_parser, main
from holdfix.kernels import custom_kernel, kernel_from_id
from holdfix.modular import (
    ModuleCoeffs,
    classical_coeffs,
    error_metric,
    max_modules,
    passband_gain,
    reconstruct,
    replica_system,
)
from holdfix.optimizer import (
    CoeffFileError,
    CoeffSolution,
    assemble_system,
    load_coeffs,
    solve_coefficients,
    store_coeffs,
)
from holdfix.signals import (
    FieldError,
    Passband,
    Signal,
    gen_bandlimited,
    ideal_lowpass,
    max_passband,
)


def run_cli(*argv):
    return main(list(argv))


class TestSolve:
    def test_writes_comb_weight_for_sh2(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = run_cli("solve", "--kernel", "sh", "--period", "2", "--modules", "1",
                       "--length", "64", "--out", str(out))
        assert code == 0
        solution = load_coeffs(out)
        assert solution.coeffs.c[0] == pytest.approx(0.5, abs=1e-12)
        assert solution.residual < 1e-18
        assert "residual" in capsys.readouterr().out

    def test_file_fields(self, tmp_path):
        out = tmp_path / "c.json"
        run_cli("solve", "--kernel", "li", "--period", "8", "--modules", "2",
                "--length", "256", "--out", str(out))
        data = json.loads(out.read_text())
        assert data["schema"] == "holdfix-coeffs/1"
        assert data["kernel_id"] == "li" and data["T"] == 8 and data["M"] == 2

    def test_cap_violation_exits_2(self, tmp_path, capsys):
        code = run_cli("solve", "--kernel", "sh", "--period", "4", "--modules", "3",
                       "--length", "64", "--out", str(tmp_path / "c.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "maximum 2" in err and "--modules" in err

    @pytest.mark.parametrize("taps, modules, command", [
        ("1e300 -1e300 16", "8", "solve"),
        ("1e308 -1e308 16", "2", "solve"),
        ("1e300 -1e300 16", "1..8", "sweep-modules"),
    ], ids=["1e300 -1e300 16-8", "1e308 -1e308 16-2", "sweep-modules"])
    def test_overflowing_kernel_exits_2_without_file(self, taps, modules, command, tmp_path,
                                                     capsys):
        kernel_file = tmp_path / "taps.txt"
        kernel_file.write_text(f"{taps}\norigin=0\n")
        out = tmp_path / "c.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(command, "--kernel", f"custom:{kernel_file}", "--period", "16",
                           "--modules", modules, "--length", "256", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --kernel: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("taps, modules", [("1e300 -1e300 16", "8"),
                                               ("1e308 -1e308 16", "2")])
    def test_overflowing_kernel_prints_no_numpy_warning(self, taps, modules, tmp_path, capsys):
        kernel_file = tmp_path / "taps.txt"
        kernel_file.write_text(f"{taps}\norigin=0\n")
        out = tmp_path / "c.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("solve", "--kernel", f"custom:{kernel_file}", "--period", "16",
                           "--modules", modules, "--length", "512", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --kernel: {kernel_file}: "
            "kernel taps' absolute sum is not finite or exceeds 7.21e+07\n"
        )
        assert not out.exists()

    def test_rank_warning_only_where_rounding_cannot_explain_residual(self, tmp_path, capsys):
        # sh at M = 7 is rank deficient but solved to round-off; hold:2 at M = 8 is not
        for kernel, modules, warned in (("sh", "7", False), ("hold:2", "8", True)):
            code = run_cli("solve", "--kernel", kernel, "--period", "16", "--modules", modules,
                           "--length", "65536", "--out", str(tmp_path / "c.json"))
            assert code == 0
            system = assemble_system(kernel_from_id(kernel, 16), 65536, int(modules),
                                     Passband(2047))
            assert solve_coefficients(system).rank_deficient
            err = capsys.readouterr().err
            assert ("design system is rank deficient" in err) is warned

    def test_missing_out_directory_names_out_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run_cli("solve", "--modules", "3", "--out", "nodir/c.json")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(": 'nodir/c.json'\n")
        assert list(tmp_path.iterdir()) == []

    def test_divisibility_exits_2(self, tmp_path, capsys):
        code = run_cli("solve", "--kernel", "sh", "--period", "3", "--modules", "1",
                       "--length", "64", "--out", str(tmp_path / "c.json"))
        assert code == 2
        assert "--length" in capsys.readouterr().err

    def test_solve_into_a_directory_names_it(self, tmp_path, capsys):
        target = tmp_path / "target"
        target.mkdir()
        code = run_cli("solve", "--modules", "2", "--length", "64", "--period", "4",
                       "--out", str(target))
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{target}'\n"
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []


class TestReconstruct:
    def test_matches_direct_library_call(self, capsys):
        code = run_cli("reconstruct", "--kernel", "li", "--period", "8",
                       "--length", "1024", "--method", "classical",
                       "--modules", "3", "--seed", "9")
        assert code == 0
        printed = float(capsys.readouterr().out.split()[-1])
        spec = SweepSpec(kernel_id="li", period=8, n=1024, k_sig=Passband(63),
                         methods=("classical",), modules=(3,), trials=1,
                         master_seed=9)
        assert printed == pytest.approx(run_trial(spec, "classical", 3, None, 0), abs=1e-6)

    def test_comb_reports_huge_snr(self, capsys):
        code = run_cli("reconstruct", "--kernel", "sh", "--period", "8",
                       "--length", "512", "--method", "comb", "--seed", "1")
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("snr_db ")
        value = out.split()[-1]
        assert value == "inf" or float(value) >= 200.0

    @pytest.mark.parametrize("kernel", ["sh", "li"])
    def test_comb_accepts_its_own_count(self, kernel, capsys):
        # any other --modules exits 2 (see ERROR_TABLE); floor(8/2) is the default
        grid = ("--kernel", kernel, "--period", "8", "--length", "512", "--method", "comb")
        assert run_cli("reconstruct", *grid) == 0
        default = capsys.readouterr().out
        assert run_cli("reconstruct", *grid, "--modules", "4") == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("kernel", ["sh", "li"])
    def test_coeff_file_roundtrip(self, kernel, tmp_path, capsys):
        out = tmp_path / "c.json"
        run_cli("solve", "--kernel", kernel, "--period", "8", "--modules", "4",
                "--length", "512", "--out", str(out))
        capsys.readouterr()
        code = run_cli("reconstruct", "--kernel", kernel, "--period", "8",
                       "--length", "512", "--method", "optimized",
                       "--coeff-file", str(out), "--seed", "2")
        assert code == 0
        value = capsys.readouterr().out.split()[-1]
        assert value == "inf" or float(value) >= 200.0

    def test_coeff_file_kernel_mismatch_fails(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        run_cli("solve", "--kernel", "sh", "--period", "8", "--modules", "2",
                "--length", "512", "--out", str(out))
        capsys.readouterr()
        code = run_cli("reconstruct", "--kernel", "li", "--period", "8",
                       "--length", "512", "--method", "optimized",
                       "--coeff-file", str(out))
        assert code == 1
        assert "kernel" in capsys.readouterr().err

    def test_coeff_file_length_mismatch_fails(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        run_cli("solve", "--kernel", "sh", "--modules", "5", "--out", str(out))
        capsys.readouterr()
        code = run_cli("reconstruct", "--kernel", "sh", "--length", "256",
                       "--method", "optimized", "--coeff-file", str(out))
        assert code == 1
        assert "--length" in capsys.readouterr().err

    def test_malformed_coeff_file_names_coeff_file_flag(self, tmp_path, capsys):
        # the file's M is wrong; --modules is not at fault
        out = tmp_path / "c.json"
        run_cli("solve", "--kernel", "sh", "--modules", "5", "--out", str(out))
        data = json.loads(out.read_text())
        data["M"] = 4
        out.write_text(json.dumps(data))
        capsys.readouterr()
        code = run_cli("reconstruct", "--method", "optimized", "--coeff-file", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --coeff-file: ")

    def test_coeff_file_not_json_names_coeff_file_flag(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        out.write_text("{bad")
        code = run_cli("reconstruct", "--method", "optimized", "--coeff-file", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --coeff-file: ") and "Expecting" in err

    @pytest.mark.parametrize("flags, flag", [
        (["--method", "classical"], "--method"),
        (["--method", "comb", "--modules", "1"], "--method"),
        (["--method", "optimized", "--modules", "1"], "--modules"),
    ])
    def test_coeff_file_refuses_other_method_or_modules(self, flags, flag, tmp_path, capsys):
        out = tmp_path / "c.json"
        run_cli("solve", "--kernel", "sh", "--modules", "3", "--out", str(out))
        capsys.readouterr()
        code = run_cli("reconstruct", *flags, "--coeff-file", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        code = run_cli("reconstruct", "--method", "optimized", "--modules", "3",
                       "--coeff-file", str(out))
        assert code == 0  # the file's own M is accepted

    def test_optimized_zero_modules_uses_empty_weights(self, capsys):
        code = run_cli("reconstruct", "--method", "optimized", "--modules", "0")
        assert code == 0
        printed = float(capsys.readouterr().out.split()[-1])
        spec = SweepSpec(kernel_id="sh", period=16, n=2048, k_sig=Passband(63),
                         methods=("classical",), modules=(1,), trials=1, master_seed=0)
        assert printed == pytest.approx(run_trial(spec, "classical", 0, None, 0), abs=1e-6)

    @pytest.mark.parametrize("residual", [float("nan"), -1.0])
    def test_coeff_file_bad_residual_names_coeff_file_flag(self, residual, tmp_path, capsys):
        out = tmp_path / "c.json"
        run_cli("solve", "--kernel", "sh", "--modules", "5", "--out", str(out))
        data = json.loads(out.read_text())
        data["residual"] = residual
        out.write_text(json.dumps(data))
        capsys.readouterr()
        code = run_cli("reconstruct", "--method", "optimized", "--coeff-file", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --coeff-file: ") and "'residual'" in err

    def test_coeff_file_impossible_grid_names_coeff_file_flag(self, tmp_path, capsys):
        # T = 16 does not divide the file's N: the file is at fault, not --length
        out = tmp_path / "c.json"
        run_cli("solve", "--kernel", "sh", "--modules", "5", "--out", str(out))
        data = json.loads(out.read_text())
        data["N"] = 2050
        out.write_text(json.dumps(data))
        capsys.readouterr()
        code = run_cli("reconstruct", "--method", "optimized", "--modules", "5",
                       "--coeff-file", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --coeff-file: ") and "field 'N'" in err

    def test_coeff_file_null_coefficients_fails(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        run_cli("solve", "--kernel", "sh", "--modules", "5", "--out", str(out))
        data = json.loads(out.read_text())
        data["coefficients"] = None
        out.write_text(json.dumps(data))
        capsys.readouterr()
        code = run_cli("reconstruct", "--kernel", "sh", "--method", "optimized",
                       "--coeff-file", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert "'coefficients'" in err and "NoneType" not in err


@pytest.mark.parametrize("command", [
    ["sweep-modules", "--modules", "1..8", "--methods", "classical,optimized", "--trials", "2"],
    ["sweep-noise", "--modules", "5", "--trials", "2"],
    ["reconstruct", "--method", "optimized"],
])
def test_each_command_reads_custom_kernel_once(command, tmp_path, monkeypatch, capsys):
    taps = tmp_path / "taps.txt"
    taps.write_text(" ".join(["1"] * 16) + "\norigin=0\n")
    reads = []

    def counting_custom_kernel(path, period):
        reads.append(path)
        return custom_kernel(path, period)

    monkeypatch.setattr(kernels, "custom_kernel", counting_custom_kernel)
    out = [] if command[0] == "reconstruct" else ["--out", str(tmp_path / "s.csv")]
    code = run_cli(*command, "--kernel", f"custom:{taps}", "--period", "16",
                   "--length", "512", *out)
    assert code == 0
    assert reads == [str(taps)]


class TestSweeps:
    def test_module_sweep_deterministic_bytes(self, tmp_path):
        args = ["sweep-modules", "--kernel", "sh", "--period", "4", "--length", "256",
                "--modules", "1..2", "--trials", "3", "--seed", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("modules, message", [
        ("1..1000000000000", "1000000000000 modules exceed the maximum 8: "
                             "floor(period/2) is the maximum for period 16"),
        ("-1000000000000..1", "module count must be >= 1, got -1000000000000"),
    ])
    def test_huge_module_range_refused_before_listing(self, modules, message, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run_cli("sweep-modules", f"--modules={modules}", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"error: --modules: {message}\n"
        assert not out.exists()

    def test_module_sweep_comma_list(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli("sweep-modules", "--kernel", "sh", "--period", "8",
                       "--length", "256", "--modules", "1,3", "--trials", "2",
                       "--methods", "classical", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[1].startswith("classical,1,clean,")

    def test_module_cap_cited(self, tmp_path, capsys):
        code = run_cli("sweep-modules", "--kernel", "sh", "--period", "4",
                       "--length", "256", "--modules", "3", "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "maximum 2" in capsys.readouterr().err

    @pytest.mark.parametrize("modules, methods, second", [
        ("2", "classical,optimized", "optimized,2,"),
        ("1", "classical,comb", "comb,2,"),  # comb runs at its own count floor(4/2)
    ], ids=["optimized", "comb"])
    def test_noise_sweep(self, modules, methods, second, tmp_path):
        out = tmp_path / "n.csv"
        code = run_cli("sweep-noise", "--kernel", "sh", "--period", "4",
                       "--length", "256", "--modules", modules, "--snrs", "0,30",
                       "--methods", methods, "--trials", "2", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 2 methods x 2 SNRs
        assert lines[1].startswith(f"classical,{modules},0.000000,")
        assert lines[3].startswith(second) and lines[4].startswith(second)

    def test_bad_methods_flag(self, tmp_path, capsys):
        code = run_cli("sweep-modules", "--kernel", "sh", "--period", "4",
                       "--length", "256", "--methods", "classical,magic",
                       "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "--methods" in capsys.readouterr().err

    def test_bad_snrs_flag(self, tmp_path, capsys):
        code = run_cli("sweep-noise", "--kernel", "sh", "--period", "4",
                       "--length", "256", "--modules", "2", "--snrs", "ten",
                       "--out", str(tmp_path / "n.csv"))
        assert code == 2
        assert "--snrs" in capsys.readouterr().err

    @pytest.mark.parametrize("snrs", ["-4000", "nan", "inf", "0,-inf"])
    def test_nonfinite_or_overflowing_snrs_exit_2(self, snrs, tmp_path, capsys):
        out = tmp_path / "n.csv"
        code = run_cli("sweep-noise", "--kernel", "sh", "--period", "4",
                       "--length", "256", "--modules", "2", f"--snrs={snrs}",
                       "--trials", "2", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "--snrs" in err and "out of range" not in err
        assert not out.exists()

    def test_snr_near_float_limit_still_runs(self, tmp_path):
        # noise energy about 1e302 at the default grid: large, but finite
        out = tmp_path / "n.csv"
        code = run_cli("sweep-noise", "--snrs=-3000", "--trials", "2", "--out", str(out))
        assert code == 0

    def test_large_positive_snr_still_runs(self, tmp_path):
        # 10^(-SNR/10) underflows to zero noise, which is a valid clean input
        out = tmp_path / "n.csv"
        code = run_cli("sweep-noise", "--kernel", "sh", "--period", "4",
                       "--length", "256", "--modules", "2", "--snrs=4000",
                       "--trials", "2", "--out", str(out))
        assert code == 0

    @pytest.mark.parametrize("command", [
        ["reconstruct", "--method", "comb"],
        ["sweep-modules", "--modules", "1..2"],
        ["sweep-noise", "--modules", "2"],
    ])
    def test_negative_seed_exits_2(self, command, tmp_path, capsys):
        out = [] if command[0] == "reconstruct" else ["--out", str(tmp_path / "s.csv")]
        code = run_cli(*command, "--kernel", "sh", "--period", "4", "--length", "256",
                       "--seed", "-1", *out)
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["sweep-modules", "--modules", "1..2"],
        ["sweep-noise", "--modules", "2"],
    ])
    def test_zero_trials_exits_2(self, command, tmp_path, capsys):
        code = run_cli(*command, "--kernel", "sh", "--period", "4", "--length", "256",
                       "--trials", "0", "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "--trials" in capsys.readouterr().err


class TestUnusableKernel:
    COMMANDS = {
        "solve": ["--modules", "2", "--length", "256"],
        "reconstruct": ["--method", "optimized", "--length", "256"],
        "sweep-modules": ["--trials", "3", "--length", "256"],
        "sweep-noise": ["--trials", "3", "--length", "256"],
        "show-kernel": [],
    }

    @pytest.mark.parametrize("taps", ["1e308 -1e308 16", "1e300 -1e300 16"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_command_refuses_it_naming_kernel(self, command, taps, tmp_path, capsys):
        kernel_file = tmp_path / "taps.txt"
        kernel_file.write_text(f"{taps}\norigin=0\n")
        argv = [command, "--kernel", f"custom:{kernel_file}", "--period", "16",
                *self.COMMANDS[command]]
        if command in ("solve", "sweep-modules", "sweep-noise"):
            argv += ["--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(*argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: --kernel: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == ["taps.txt"]

    def test_high_order_hold_is_an_ordinary_long_kernel(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("show-kernel", "--kernel", "hold:300", "--period", "16") == 0
            assert "taps " in capsys.readouterr().out
            code = run_cli("solve", "--kernel", "hold:300", "--period", "16", "--modules", "2",
                           "--out", str(tmp_path / "c.json"))
            assert code == 2
            assert capsys.readouterr().err.startswith("error: --length: kernel has 4464 taps")
            assert not (tmp_path / "c.json").exists()
            assert run_cli("solve", "--kernel", "hold:300", "--period", "16", "--modules", "2",
                           "--length", "4464", "--out", str(tmp_path / "c.json")) == 0

    def test_accepted_spread_runs_without_warnings_or_nan(self, tmp_path, capsys):
        kernel_file = tmp_path / "taps.txt"
        kernel_file.write_text("3.6e7 -3.6e7 16\norigin=0\n")
        grid = ["--kernel", f"custom:{kernel_file}", "--period", "16", "--length", "256"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("solve", *grid, "--modules", "8",
                           "--out", str(tmp_path / "c.json")) == 0
            assert run_cli("reconstruct", *grid, "--method", "optimized") == 0
            for command in ("sweep-modules", "sweep-noise"):
                assert run_cli(command, *grid, "--trials", "3", "--methods",
                               "classical,comb,optimized",
                               "--out", str(tmp_path / f"{command}.csv")) == 0
        assert "nan" not in capsys.readouterr().out
        for command in ("sweep-modules", "sweep-noise"):
            assert "nan" not in (tmp_path / f"{command}.csv").read_text()


class TestPassbandHint:
    def test_explicit_negative_passband_gives_no_length_hint(self, capsys):
        assert run_cli("reconstruct", "--method", "comb", "--passband", "-5") == 2
        assert capsys.readouterr().err == (
            "error: --passband: passband half-width must be >= 0, got -5\n"
        )

    def test_default_passband_blames_length(self, capsys):
        assert run_cli("reconstruct", "--method", "comb", "--length", "16") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --passband: ")
        assert "(is --length too small for --period?)" in err


class TestOnePassbandRule:
    """Every entry point where a band meets a hold period accepts K up to
    `max_passband(N, T)` and refuses K + 1 on K; a band alone may reach N/2."""

    @staticmethod
    def library_calls(kernel, n, band):
        period, modules = kernel.period, max_modules(kernel.period)
        coeffs = classical_coeffs(period, modules)
        return {
            "replica_system": lambda: replica_system(kernel, n, band),
            "passband_gain": lambda: passband_gain(kernel, coeffs, n, band),
            "error_metric": lambda: error_metric(kernel, coeffs, n, band),
            "assemble_system": lambda: assemble_system(kernel, n, modules, band),
            "CoeffSolution": lambda: CoeffSolution(coeffs, 0.0, kernel.id, n,
                                                   band.half_width_bins),
            "SweepSpec": lambda: SweepSpec(kernel.id, period, n, band, ("classical",),
                                           (modules,), 1, 0),
            "reconstruct": lambda: reconstruct(Signal(np.ones(n)), coeffs, band),
        }

    @pytest.mark.parametrize("kernel_id", ["sh", "li", "hold:2"])
    @pytest.mark.parametrize("period", [2, 3, 8, 16])
    @pytest.mark.parametrize("blocks", [2, 64])
    def test_accepts_max_passband_and_refuses_one_more(
        self, kernel_id, period, blocks, tmp_path, capsys
    ):
        kernel = kernel_from_id(kernel_id, period)
        # hold:2 is longer than 2T from T = 3 on: take the shortest grid that holds it
        n = period * max(blocks, -(-kernel.taps.size // period))
        k_max = max_passband(n, period)
        assert k_max == n // period // 2 - 1
        grid = ["--kernel", kernel_id, "--period", str(period), "--length", str(n)]
        modules = ["--modules", str(max_modules(period))]

        for call in self.library_calls(kernel, n, Passband(k_max)).values():
            call()
        coeff_file = tmp_path / "c.json"
        assert run_cli("solve", *grid, *modules, "--passband", str(k_max),
                       "--out", str(coeff_file)) == 0
        assert load_coeffs(coeff_file).passband == k_max
        for method in METHODS:
            assert run_cli("reconstruct", *grid, "--passband", str(k_max),
                           "--method", method) == 0
        capsys.readouterr()

        for name, call in self.library_calls(kernel, n, Passband(k_max + 1)).items():
            with pytest.raises(FieldError) as info:
                call()
            assert info.value.field == "K", name
            assert str(info.value) == (
                f"signal passband {k_max + 1} must stay below the sampling Nyquist bin {k_max + 1}"
            ), name
        data = json.loads(coeff_file.read_text())
        data["K"] = k_max + 1
        coeff_file.write_text(json.dumps(data))
        with pytest.raises(CoeffFileError) as info:
            load_coeffs(coeff_file)
        assert info.value.field == "K"

        refused = tmp_path / "refused.json"
        commands = [["solve", *modules, "--out", str(refused)]]
        commands += [["reconstruct", "--method", method] for method in METHODS]
        for command in commands:
            assert run_cli(*command, *grid, "--passband", str(k_max + 1)) == 2
            assert capsys.readouterr().err.startswith("error: --passband: ")
        assert not refused.exists()

    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    def test_band_alone_reaches_half_the_length(self, n):
        band = Passband(n // 2)
        x = gen_bandlimited(n, band, 1.0, 0)
        np.testing.assert_allclose(ideal_lowpass(x, band).samples, x.samples, atol=1e-12)
        too_wide = Passband(n // 2 + 1)
        for call in (lambda: ideal_lowpass(x, too_wide),
                     lambda: gen_bandlimited(n, too_wide, 1.0, 0)):
            with pytest.raises(FieldError, match=f"exceeds N/2 = {n // 2}") as info:
                call()
            assert info.value.field == "K"


# Each row: a command line whose validation must fail, and the flag at fault.
ERROR_TABLE = [
    ("reconstruct --method comb --passband 5000", "--passband"),
    ("reconstruct --method optimized --passband 5000", "--passband"),
    ("solve --modules 5 --passband 5000", "--passband"),
    ("solve --kernel hold:3 --period 16 --length 32 --modules 1", "--length"),
    ("reconstruct --method comb --kernel hold:3 --period 16 --length 32", "--length"),
    ("reconstruct --method optimized --kernel hold:3 --period 16 --length 32", "--length"),
    ("sweep-modules --kernel hold:3 --period 16 --length 48 --trials 2", "--length"),
    ("sweep-modules --kernel hold:3 --period 16 --length 48 --trials 2 --methods classical",
     "--length"),
    ("sweep-modules --passband 100 --trials 2", "--passband"),
    ("sweep-noise --passband 100 --trials 2", "--passband"),
    ("sweep-noise --snrs=-3080 --trials 2", "--snrs"),
    ("sweep-noise --snrs=-3065 --trials 2", "--snrs"),
    ("solve --kernel sh --period 4 --modules 3 --length 64", "--modules"),
    ("solve --kernel sh --period 3 --modules 1 --length 64", "--length"),
    ("solve --modules 0", "--modules"),
    ("solve --modules 1 --period 0", "--period"),
    ("solve --modules 1 --period 2 --length -4 --passband 0", "--length"),
    ("solve --modules 1 --kernel hold:x", "--kernel"),
    ("reconstruct --method comb --modules 99", "--modules"),
    ("reconstruct --method classical --modules -1", "--modules"),
    ("reconstruct --method comb --guard 0.7", "--guard"),
    ("reconstruct --method comb --length 32 --period 16 --guard 0.49999999999999994", "--guard"),
    ("reconstruct --method comb --modules 3 --period 8", "--modules"),
    ("reconstruct --method comb --length 100", "--length"),
    ("reconstruct --method comb --period 1 --length 1 --passband 0", "--length"),
    ("sweep-modules --kernel sh --period 4 --length 256 --modules 3", "--modules"),
    ("sweep-modules --modules 0 --trials 2", "--modules"),
    ("sweep-modules --modules 1..x", "--modules"),
    ("sweep-modules --period 1 --length 64", "--period"),
    ("sweep-modules --methods classical,magic", "--methods"),
    ("sweep-modules --guard 0.5", "--guard"),
    ("sweep-modules --length 100", "--length"),
    ("sweep-modules --period 2 --length -4 --passband 0", "--length"),
    ("sweep-modules --passband -1", "--passband"),
    ("reconstruct --method comb --passband -5", "--passband"),
    ("sweep-modules --modules , --trials 2", "--modules"),
    ("sweep-noise --modules 9", "--modules"),
    ("sweep-noise --snrs ten", "--snrs"),
    ("sweep-noise --snrs=", "--snrs"),
    ("show-kernel --kernel sinc", "--kernel"),
    ("solve --modules 1 --kernel custom:no-such-taps.txt", "--kernel"),
    ("show-kernel --period 0", "--period"),
]


@pytest.mark.parametrize("command, flag", ERROR_TABLE, ids=[row[0] for row in ERROR_TABLE])
def test_validation_error_exits_2_naming_flag(command, flag, tmp_path, capsys):
    argv = command.split()
    if argv[0] in ("solve", "sweep-modules", "sweep-noise"):
        argv += ["--out", str(tmp_path / "out")]
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {flag}: ")
    for raw in ("Traceback", "math domain error", "numpy", "negative dimensions",
                "non-negative integer", "out of range", "Warning"):
        assert raw not in err
    assert not (tmp_path / "out").exists()


class TestShowKernel:
    def test_prints_taps_and_origin(self, capsys):
        code = run_cli("show-kernel", "--kernel", "hold:2", "--period", "4")
        assert code == 0
        out = capsys.readouterr().out
        assert "origin" in out and "taps" in out and "hold:2" in out

    def test_unknown_kernel_exits_2(self, capsys):
        code = run_cli("show-kernel", "--kernel", "sinc", "--period", "4")
        assert code == 2
        assert "--kernel" in capsys.readouterr().err


class TestParser:
    def test_unknown_flag_rejected(self, capsys):
        code = run_cli("show-kernel", "--kernel", "sh", "--period", "4", "--bogus", "1")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "sweep-modules" in capsys.readouterr().out

    # Each subcommand's options: (type, default); type None is a string.
    OPTIONS = {
        "solve": {
            "--kernel": (None, "sh"), "--period": (int, 16), "--length": (int, 2048),
            "--passband": (int, None), "--modules": (int, None), "--out": (None, None),
        },
        "reconstruct": {
            "--kernel": (None, "sh"), "--period": (int, 16), "--length": (int, 2048),
            "--passband": (int, None), "--method": (None, None), "--modules": (int, None),
            "--coeff-file": (None, None), "--seed": (int, 0), "--guard": (float, 0.10),
        },
        "sweep-modules": {
            "--kernel": (None, "sh"), "--period": (int, 16), "--length": (int, 2048),
            "--passband": (int, None), "--methods": (None, "classical,optimized"),
            "--trials": (int, 100), "--seed": (int, 0), "--guard": (float, 0.10),
            "--modules": (None, None), "--out": (None, "modules-sweep.csv"),
        },
        "sweep-noise": {
            "--kernel": (None, "sh"), "--period": (int, 16), "--length": (int, 2048),
            "--passband": (int, None), "--methods": (None, "classical,optimized"),
            "--trials": (int, 100), "--seed": (int, 0), "--guard": (float, 0.10),
            "--modules": (int, 5), "--snrs": (None, "0,10,20,30,40,50,60,70,80"),
            "--out": (None, "noise-sweep.csv"),
        },
        "show-kernel": {"--kernel": (None, "sh"), "--period": (int, 16)},
    }

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_options_types_and_defaults(self, command):
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actions = subparsers.choices[command]._actions
        options = {
            action.option_strings[-1]: (action.type, action.default)
            for action in actions
            if action.option_strings != ["-h", "--help"]
        }
        assert options == self.OPTIONS[command]
        assert all(len(action.option_strings) == 1 for action in actions[1:])
        required = {a.option_strings[0] for a in actions if a.required}
        assert required == {"solve": {"--modules", "--out"},
                            "reconstruct": {"--method"}}.get(command, set())
        if command == "reconstruct":
            (method,) = [a for a in actions if a.option_strings == ["--method"]]
            assert method.choices == METHODS  # the one list of methods, in its order

    def test_methods_help_lists_the_method_tuple(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep-modules", "--help"])
        assert ",".join(METHODS) in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_enumerates_every_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        help_text = capsys.readouterr().out
        for flag in self.OPTIONS[command]:
            assert flag in help_text


class TestRepeatedCalls:
    """`main` reuses one parser per process; no call may see another's flags."""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_bare_solve_after_flagged_solve_gets_defaults(self, tmp_path, capsys):
        first, second = tmp_path / "li.json", tmp_path / "sh.json"
        assert run_cli("solve", "--kernel", "li", "--period", "8", "--length", "1024",
                       "--passband", "50", "--modules", "3", "--out", str(first)) == 0
        assert run_cli("solve", "--modules", "3", "--out", str(second)) == 0
        data = json.loads(second.read_text())
        assert (data["kernel_id"], data["T"], data["N"], data["K"], data["M"]) == \
            ("sh", 16, 2048, 63, 3)

    @pytest.mark.parametrize("failing", [
        ("solve", "--modules", "3", "--bogus", "1"),
        ("solve", "--period", "3", "--length", "64", "--modules", "1"),
        ("solve", "--help"),
    ], ids=["unknown-flag", "validation", "help"])
    def test_call_after_early_exit_runs_normally(self, failing, tmp_path, capsys):
        assert run_cli(*failing, "--out", str(tmp_path / "bad.json")) == \
            (0 if "--help" in failing else 2)
        out = tmp_path / "c.json"
        assert run_cli("solve", "--kernel", "li", "--period", "8", "--length", "256",
                       "--modules", "2", "--out", str(out)) == 0
        assert load_coeffs(out).coeffs.modules == 2
        assert not (tmp_path / "bad.json").exists()

    def test_comb_after_coeff_file_sees_no_coeff_file(self, tmp_path, capsys):
        grid = ("--kernel", "li", "--period", "8", "--length", "1024", "--modules", "3")
        coeff_file = tmp_path / "c.json"
        run_cli("solve", *grid, "--out", str(coeff_file))
        assert run_cli("reconstruct", *grid, "--method", "optimized",
                       "--coeff-file", str(coeff_file)) == 0
        capsys.readouterr()
        # comb runs at its own count floor(T/2) = 4, so the grid's --modules 3 is dropped
        assert run_cli("reconstruct", *grid[:-2], "--method", "comb") == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("snr_db ")
        assert build_parser().parse_args(["reconstruct", "--method", "comb"]).coeff_file is None

    def test_cached_parser_writes_same_file_as_fresh_parser(self, tmp_path, capsys):
        argv = ["solve", "--kernel", "hold:2", "--period", "8", "--length", "512",
                "--modules", "3", "--out"]
        cached, fresh = tmp_path / "cached.json", tmp_path / "fresh.json"
        assert run_cli(*argv, str(cached)) == 0
        args = build_parser.__wrapped__().parse_args([*argv, str(fresh)])
        assert args.run(args) == 0
        assert cached.read_bytes() == fresh.read_bytes()


class TestImport:
    def test_cli_import_adds_no_hmac(self):
        # hmac (with _hashlib) costs milliseconds of a process that never draws a signal.
        # numpy 1.x imports numpy.random, and with it secrets and hmac, inside `import numpy`,
        # so only the modules that holdfix adds after numpy are counted.
        src = str(Path(kernels.__file__).resolve().parents[1])
        code = ("import sys, numpy; before = set(sys.modules); import holdfix.cli; "
                "print(sorted({'hmac', 'secrets'} & (set(sys.modules) - before)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert proc.stdout.strip() == "[]"


class TestModuleEntryPoint:
    @pytest.mark.parametrize("snrs", ["-4000", "nan"])
    def test_refuses_overflowing_or_nonfinite_noise_level(self, snrs, tmp_path):
        # `python -m holdfix.cli` runs the `__main__` guard, which passes main's code to exit
        out = tmp_path / "bad-snrs.csv"
        proc = subprocess.run([sys.executable, "-m", "holdfix.cli", "sweep-noise",
                               f"--snrs={snrs}", "--trials", "2", "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "--snrs" in proc.stderr
        assert not out.exists()
