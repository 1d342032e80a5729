import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holdfix import optimizer
from holdfix.kernels import InterpKernel, kernel_from_id, li_kernel, sh_kernel
from holdfix.modular import (
    ModuleCoeffs,
    classical_coeffs,
    error_metric,
    max_modules,
    replica_matrix,
)
from holdfix.optimizer import (
    COEFF_SCHEMA,
    CoeffFileError,
    CoeffSolution,
    assemble_system,
    check_solution_matches,
    load_coeffs,
    solve_coefficients,
    store_coeffs,
)
from holdfix.signals import Passband


def dft_naive(x):
    n = len(x)
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * kk * k / n)) for kk in k])


GRID = [
    (kernel_id, period, modules)
    for kernel_id in ("sh", "li", "hold:2")
    for period in (4, 8, 16)
    for modules in range(1, period // 2 + 1)
]


class TestReplicaResponse:
    """Folded replica responses: entries (k, j) of `replica_matrix`."""

    def test_sh2_pair_collapses_to_one_bin(self):
        n = 64
        w = np.exp(-2j * np.pi / n)
        for k in (0, 1, 5, 17, 31):
            _, pairs = replica_matrix(sh_kernel(2), n, np.array([k]), 1)
            value = pairs[0, 0]
            assert value == pytest.approx(1.0 - w**k, abs=1e-12)

    def test_matches_modulated_taps_dft(self):
        # the folded pair equals (1/T) * DFT of taps * 2cos(2 pi j t / T)
        kernel = sh_kernel(2)
        n = 16
        aligned = np.zeros(n)
        aligned[(np.arange(kernel.taps.size) - kernel.origin) % n] = kernel.taps
        modulated = aligned * 2.0 * np.cos(np.pi * np.arange(n))
        oracle = dft_naive(modulated) / kernel.period
        _, pairs = replica_matrix(kernel, n, np.arange(n), 1)
        for k in range(n):
            assert pairs[k, 0] == pytest.approx(
                oracle[k], abs=1e-11
            )

    def test_li2_null_at_nyquist_shift(self):
        _, pairs = replica_matrix(li_kernel(2), 8, np.array([0]), 1)
        assert pairs[0, 0] == pytest.approx(0.0, abs=1e-13)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            replica_matrix(sh_kernel(4), 64, np.array([0]), 3)


class TestAssembleSystem:
    def test_dimensions(self):
        system = assemble_system(sh_kernel(8), 256, 2, Passband(15))
        assert system.matrix.shape == (32, 2)
        assert system.target.shape == (32,)

    def test_dc_target_is_zero(self):
        for period in (2, 4, 16):
            system = assemble_system(sh_kernel(period), 64 * period, 1, Passband(7))
            assert system.target[0] == pytest.approx(0.0, abs=1e-12)

    def test_imag_block_zero_at_dc(self):
        system = assemble_system(sh_kernel(4), 64, 2, Passband(7))
        half = system.matrix.shape[0] // 2
        np.testing.assert_allclose(system.matrix[half], 0.0, atol=1e-12)
        assert system.target[half] == pytest.approx(0.0, abs=1e-12)

    def test_li2_dc_row_vanishes(self):
        system = assemble_system(li_kernel(2), 8, 1, Passband(1))
        np.testing.assert_allclose(system.matrix[0], 0.0, atol=1e-13)
        # the weight is pinned by the k=1 row alone, and it is the comb weight
        solution = solve_coefficients(system)
        assert solution.coeffs.c[0] == pytest.approx(0.5, abs=1e-12)

    def test_module_count_bounds(self):
        with pytest.raises(ValueError):
            assemble_system(sh_kernel(4), 64, 3, Passband(7))
        with pytest.raises(ValueError):
            assemble_system(sh_kernel(4), 64, 0, Passband(7))

    def test_systems_are_read_only_views_of_one_cached_system(self):
        one = assemble_system(sh_kernel(8), 256, 1, Passband(15))
        two = assemble_system(sh_kernel(8), 256, 2, Passband(15))
        assert np.shares_memory(one.matrix, two.matrix)
        assert np.shares_memory(one.target, two.target)
        for array in (one.matrix, one.target, two.matrix, two.target):
            assert not array.flags.writeable


def cache_case_kernel(name, period):
    """sh, li, hold:2, or one of two custom kernels sharing one path but not
    taps: "custom-a" has the sh taps at origin T-1, "custom-b" a ramp."""
    if name == "custom-a":
        return InterpKernel(np.ones(period), period - 1, period, "custom:/shared/taps.txt")
    if name == "custom-b":
        ramp = np.arange(1.0, period + 1.0)
        return InterpKernel(ramp * (period / ramp.sum()), 0, period, "custom:/shared/taps.txt")
    return kernel_from_id(name, period)


@st.composite
def cache_calls(draw):
    """(kernel name, T, N, K, M) of one `assemble_system` call."""
    name = draw(st.sampled_from(["sh", "li", "hold:2", "custom-a", "custom-b"]))
    # few grids, so that calls revisit cached systems and kernels collide
    period = draw(st.sampled_from([3, 4, 6]))
    n = period * draw(st.sampled_from([4, 8]))
    k_max = draw(st.sampled_from([0, n // 4, n // 2]))
    modules = draw(st.integers(1, max_modules(period)))
    return name, period, n, k_max, modules


class TestSystemCache:
    """`assemble_system` serves every M from a cached floor(T/2)-module system."""

    @settings(deadline=None, max_examples=60)
    @given(calls=st.lists(cache_calls(), min_size=1, max_size=40))
    @example(calls=[("custom-a", 4, 16, 3, 1), ("custom-b", 4, 16, 3, 1)])
    @example(calls=[("sh", 4, 16, 3, 2), ("sh", 4, 16, 3, 1), ("sh", 4, 16, 5, 1)])
    def test_matches_uncached_build(self, calls):
        optimizer._full_system.cache_clear()
        for name, period, n, k_max, modules in calls:
            kernel = cache_case_kernel(name, period)
            system = assemble_system(kernel, n, modules, Passband(k_max))
            base, pairs = replica_matrix(kernel, n, np.arange(k_max + 1), modules)
            deficit = 1.0 - base
            assert np.array_equal(system.matrix, np.vstack([pairs.real, pairs.imag]))
            assert np.array_equal(system.target, np.concatenate([deficit.real, deficit.imag]))
            assert system.kernel_id == kernel.id
            info = optimizer._full_system.cache_info()
            assert info.currsize <= optimizer._SYSTEM_CACHE_SIZE == info.maxsize
            full = optimizer._full_system(kernel.taps.tobytes(), kernel.origin, period, n, k_max)
            assert full[0].shape[1] == max_modules(period)
            assert not (full[0].flags.writeable or full[1].flags.writeable)

    def test_bounded_at_sixteen_systems(self):
        optimizer._full_system.cache_clear()
        for period in range(2, 20):
            assemble_system(sh_kernel(period), 4 * period, 1, Passband(1))
        assert optimizer._full_system.cache_info().currsize == 16


class TestSolve:
    def test_sh2_recovers_comb_weight(self):
        solution = solve_coefficients(assemble_system(sh_kernel(2), 64, 1, Passband(15)))
        assert solution.coeffs.c[0] == pytest.approx(0.5, abs=1e-12)
        assert solution.residual < 1e-20
        assert not solution.rank_deficient

    def test_sh4_full_budget_recovers_comb(self):
        system = assemble_system(sh_kernel(4), 64, 2, Passband(7))
        assert np.linalg.matrix_rank(system.matrix) == 2
        solution = solve_coefficients(system)
        np.testing.assert_allclose(solution.coeffs.c, [1.0, 0.5], atol=1e-12)
        assert solution.residual < 1e-18

    def test_sh16_single_weight_beats_classical_and_scan(self):
        kernel = sh_kernel(16)
        band = Passband(31)
        solution = solve_coefficients(assemble_system(kernel, 1024, 1, band))
        e_classical = error_metric(kernel, classical_coeffs(16, 1), 1024, band)
        assert solution.residual < e_classical
        scan_best = min(
            error_metric(kernel, ModuleCoeffs(16, (float(c),)), 1024, band)
            for c in np.arange(0.0, 2.0001, 1e-3)
        )
        assert solution.residual <= scan_best + 1e-12

    @pytest.mark.parametrize("kernel_id, period, modules", GRID)
    def test_normal_equations(self, kernel_id, period, modules):
        kernel = kernel_from_id(kernel_id, period)
        n = 64 * period
        system = assemble_system(kernel, n, modules, Passband(n // (2 * period) - 1))
        c = np.asarray(solve_coefficients(system).coeffs.c)
        lhs = np.linalg.norm(system.matrix.T @ (system.matrix @ c - system.target))
        rhs = np.linalg.norm(system.matrix.T @ system.target)
        assert lhs <= 1e-8 * max(rhs, 1e-300)

    @pytest.mark.parametrize("kernel_id, period, modules", GRID)
    def test_dominates_classical(self, kernel_id, period, modules):
        kernel = kernel_from_id(kernel_id, period)
        n = 64 * period
        band = Passband(n // (2 * period) - 1)
        solved = solve_coefficients(assemble_system(kernel, n, modules, band)).coeffs
        assert error_metric(kernel, solved, n, band) <= (
            error_metric(kernel, classical_coeffs(period, modules), n, band) + 1e-12
        )

    # Near-rank-deficient systems (condition number >= 1e10) solve to weights
    # around 1e10; evaluating the metric there cancels ~|c| * eps per bin, so
    # float64 cannot reach the tight agreement achievable elsewhere.
    ILL_CONDITIONED = {("hold:2", 16, 6), ("hold:2", 16, 7), ("hold:2", 16, 8)}

    @pytest.mark.parametrize("kernel_id, period, modules", GRID)
    def test_residual_consistent_with_metric(self, kernel_id, period, modules):
        kernel = kernel_from_id(kernel_id, period)
        n = 64 * period
        band = Passband(n // (2 * period) - 1)
        solution = solve_coefficients(assemble_system(kernel, n, modules, band))
        metric = error_metric(kernel, solution.coeffs, n, band)
        if (kernel_id, period, modules) in self.ILL_CONDITIONED:
            assert solution.residual == pytest.approx(metric, rel=1e-4)
        else:
            assert solution.residual == pytest.approx(metric, rel=1e-10, abs=1e-20)

    @pytest.mark.parametrize("kernel_id", ["sh", "li"])
    @pytest.mark.parametrize("period", [2, 4, 8, 16])
    def test_exact_at_full_budget(self, kernel_id, period):
        kernel = kernel_from_id(kernel_id, period)
        n = 64 * period
        band = Passband(n // (2 * period) - 1)
        solution = solve_coefficients(
            assemble_system(kernel, n, max_modules(period), band)
        )
        assert solution.residual < 1e-16

    def test_perturbation_optimality(self):
        rng = np.random.default_rng(11)
        for kernel_id, period, modules in (("sh", 8, 2), ("li", 16, 3), ("hold:2", 8, 4)):
            kernel = kernel_from_id(kernel_id, period)
            n = 64 * period
            band = Passband(n // (2 * period) - 1)
            solved = solve_coefficients(assemble_system(kernel, n, modules, band)).coeffs
            base = error_metric(kernel, solved, n, band)
            for _ in range(20):
                delta = rng.normal(size=modules)
                delta *= 1e-3 / np.linalg.norm(delta)
                nearby = ModuleCoeffs(period, tuple(np.asarray(solved.c) + delta))
                assert error_metric(kernel, nearby, n, band) >= base - 1e-15

    def test_unit_weights_reproduce_classical(self):
        solved = solve_coefficients(assemble_system(sh_kernel(8), 256, 3, Passband(15)))
        ones = ModuleCoeffs(8, (1.0,) * 3)
        assert classical_coeffs(8, 3).c == ones.c
        assert error_metric(sh_kernel(8), ones, 256, Passband(15)) == error_metric(
            sh_kernel(8), classical_coeffs(8, 3), 256, Passband(15)
        )
        assert len(solved.coeffs.c) == 3

    @pytest.mark.parametrize("part", ["matrix", "target"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_nonfinite_system_before_lapack(self, part, bad, capfd):
        system = assemble_system(sh_kernel(4), 64, 2, Passband(7))
        array = np.array(getattr(system, part))
        array[1] = bad
        hand_built = replace(system, **{part: array})
        with pytest.raises(ValueError, match="design system entries must all be finite"):
            solve_coefficients(hand_built)
        assert "DLASCL" not in capfd.readouterr().err

    @pytest.mark.parametrize("taps, modules", [([1e300, -1e300, 16.0], 8),
                                               ([1e308, -1e308, 16.0], 2)])
    def test_refuses_overflowing_residual(self, taps, modules):
        # the weights are finite, but the replica-sum error overflows to inf
        kernel = InterpKernel(taps, 0, 16, "custom:huge")
        with np.errstate(over="ignore", invalid="ignore"):
            system = assemble_system(kernel, 256, modules, Passband(7))
            with pytest.raises(ValueError, match="residual must be finite"):
                solve_coefficients(system)

    @pytest.mark.parametrize("residual", [float("nan"), float("inf"), -1.0])
    def test_solution_residual_must_be_finite_and_non_negative(self, residual):
        with pytest.raises(ValueError, match="residual must be finite and >= 0"):
            CoeffSolution(ModuleCoeffs(4, (1.0,)), residual, "sh", 64, 7)

    def test_rank_deficient_flagged_minimum_norm(self):
        # flat single-tap kernel: every replica response is the constant 2
        flat = InterpKernel([4.0], 0, 4, "custom:flat")
        solution = solve_coefficients(assemble_system(flat, 64, 2, Passband(7)))
        assert solution.rank_deficient
        np.testing.assert_allclose(solution.coeffs.c, [0.0, 0.0], atol=1e-12)


class TestCoeffStore:
    def _solution(self):
        return solve_coefficients(assemble_system(sh_kernel(4), 64, 2, Passband(7)))

    def test_roundtrip_bit_equal(self, tmp_path):
        solution = self._solution()
        path = tmp_path / "coeffs.json"
        store_coeffs(solution, path)
        loaded = load_coeffs(path)
        assert loaded.coeffs.c == solution.coeffs.c
        assert loaded.coeffs.period == solution.coeffs.period
        assert loaded.residual == solution.residual
        assert loaded.kernel_id == solution.kernel_id
        assert loaded.n == solution.n
        assert loaded.passband == solution.passband

    def test_file_schema_fields(self, tmp_path):
        path = tmp_path / "coeffs.json"
        store_coeffs(self._solution(), path)
        data = json.loads(path.read_text())
        assert data["schema"] == COEFF_SCHEMA
        assert set(data) == {
            "schema", "kernel_id", "T", "N", "K", "M", "coefficients", "residual",
        }
        assert data["M"] == len(data["coefficients"])

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "coeffs.json"
        store_coeffs(self._solution(), path)
        data = json.loads(path.read_text())
        data["schema"] = "holdfix-coeffs/0"
        path.write_text(json.dumps(data))
        with pytest.raises(CoeffFileError, match="holdfix-coeffs/0"):
            load_coeffs(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "coeffs.json"
        store_coeffs(self._solution(), path)
        data = json.loads(path.read_text())
        del data["coefficients"]
        path.write_text(json.dumps(data))
        with pytest.raises(CoeffFileError, match="coefficients"):
            load_coeffs(path)

    def test_inconsistent_module_count_rejected(self, tmp_path):
        path = tmp_path / "coeffs.json"
        store_coeffs(self._solution(), path)
        data = json.loads(path.read_text())
        data["M"] = 5
        path.write_text(json.dumps(data))
        with pytest.raises(CoeffFileError):
            load_coeffs(path)

    @pytest.mark.parametrize("field, value", [
        ("coefficients", None),
        ("coefficients", 0.5),
        ("coefficients", ["0.5", 0.25]),
        ("coefficients", [True, 0.25]),
        ("coefficients", [float("nan"), 0.25]),
        ("T", "4"),
        ("T", 4.0),
        ("T", 0),
        ("N", None),
        ("K", 7.5),
        ("M", "2"),
        ("kernel_id", 7),
        ("residual", None),
        ("residual", float("nan")),
        ("residual", float("inf")),
        ("residual", -1.0),
        pytest.param("residual", 10**400, id="residual-huge-int"),
        pytest.param("coefficients", [10**400, 0.25], id="coefficients-huge-int"),
    ])
    def test_malformed_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "coeffs.json"
        store_coeffs(self._solution(), path)
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(CoeffFileError, match=field) as info:
            load_coeffs(path)
        assert info.value.field == field

    def test_missing_directory_names_the_requested_path(self, tmp_path):
        path = tmp_path / "nodir" / "coeffs.json"
        with pytest.raises(FileNotFoundError) as info:
            store_coeffs(self._solution(), path)
        assert info.value.filename == str(path)
        assert list(tmp_path.iterdir()) == []

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(CoeffFileError, match="JSON object"):
            load_coeffs(path)

    @pytest.mark.parametrize("content", [b"{bad", b'{"schema": "\xff"}'])
    def test_undecodable_file_rejected(self, tmp_path, content):
        path = tmp_path / "coeffs.json"
        path.write_bytes(content)
        with pytest.raises(CoeffFileError, match="not a readable JSON file"):
            load_coeffs(path)

    def test_grid_mismatch_rejected(self, tmp_path):
        path = tmp_path / "coeffs.json"
        store_coeffs(self._solution(), path)  # solved at N=64, K=7
        loaded = load_coeffs(path)
        with pytest.raises(CoeffFileError, match="length N 64, not 128") as info:
            check_solution_matches(loaded, "sh", 4, n=128, passband=7)
        assert info.value.field == "N"
        with pytest.raises(CoeffFileError, match="passband K 7, not 5") as info:
            check_solution_matches(loaded, "sh", 4, n=64, passband=5)
        assert info.value.field == "K"
        check_solution_matches(loaded, "sh", 4, n=64, passband=7)

    def test_kernel_and_period_mismatch_rejected(self, tmp_path):
        path = tmp_path / "coeffs.json"
        store_coeffs(self._solution(), path)
        loaded = load_coeffs(path)
        with pytest.raises(CoeffFileError, match="kernel"):
            check_solution_matches(loaded, "li", 4, n=64, passband=7)
        with pytest.raises(CoeffFileError, match="period"):
            check_solution_matches(loaded, "sh", 8, n=64, passband=7)
        check_solution_matches(loaded, "sh", 4, n=64, passband=7)  # the matching case passes
