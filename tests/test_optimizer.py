import json
import os
import stat
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holdfix import modular
from holdfix.kernels import InterpKernel, kernel_from_id, li_kernel, sh_kernel
from holdfix.modular import (
    ModuleCoeffs,
    classical_coeffs,
    error_metric,
    max_modules,
    replica_system,
)
from holdfix.optimizer import (
    COEFF_SCHEMA,
    CoeffFileError,
    CoeffSolution,
    DesignSystem,
    assemble_system,
    check_solution_matches,
    load_coeffs,
    solve_coefficients,
    store_coeffs,
)
from holdfix.signals import FieldError, Passband, check_grid, max_passband

from replica_oracle import loop_system


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


def unstack(stacked):
    """Complex bins 0..K of a real-stacked array (real rows, then imaginary)."""
    real, imag = np.split(stacked, 2)
    return real + 1j * imag


class TestReplicaResponse:
    """Folded replica responses: the columns of `replica_system`, unstacked."""

    def test_sh2_pair_collapses_to_one_bin(self):
        n = 128  # K = 31 lies below the sampling Nyquist bin 32
        w = np.exp(-2j * np.pi / n)
        pairs = unstack(replica_system(sh_kernel(2), n, Passband(31))[0])
        for k in (0, 1, 5, 17, 31):
            assert pairs[k, 0] == pytest.approx(1.0 - w**k, abs=1e-12)
        with pytest.raises(FieldError) as info:  # at N = 64 the sampling Nyquist bin is 16
            replica_system(sh_kernel(2), 64, Passband(31))
        assert info.value.field == "K"

    def test_matches_modulated_taps_dft(self):
        # the folded pair equals (1/T) * DFT of taps * 2cos(2 pi j t / T)
        kernel = sh_kernel(2)
        n = 16 * kernel.period  # bins 0..7 lie below the sampling Nyquist bin 8
        aligned = np.zeros(n)
        aligned[(np.arange(kernel.taps.size) - kernel.origin) % n] = kernel.taps
        modulated = aligned * 2.0 * np.cos(np.pi * np.arange(n))
        oracle = dft_naive(modulated) / kernel.period
        pairs = unstack(replica_system(kernel, n, Passband(max_passband(n, 2)))[0])
        for k in range(max_passband(n, 2) + 1):
            assert pairs[k, 0] == pytest.approx(
                oracle[k], abs=1e-11
            )
        for n, k_max in ((32, 8), (16, 8)):  # at or above the sampling Nyquist bin
            with pytest.raises(FieldError) as info:
                replica_system(kernel, n, Passband(k_max))
            assert info.value.field == "K"

    def test_li2_null_at_nyquist_shift(self):
        pairs = unstack(replica_system(li_kernel(2), 8, Passband(0))[0])
        assert pairs[0, 0] == pytest.approx(0.0, abs=1e-13)

    def test_index_bounds(self):
        assert replica_system(sh_kernel(4), 64, Passband(7))[0].shape == (16, 2)
        with pytest.raises(ValueError):
            replica_system(sh_kernel(4), 64, Passband(33))


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
    n = period * draw(st.sampled_from([4, 8, 12]))  # 48 at T = 4: custom kernels round Im of bin 0
    # K past max_passband (up to N/2) must be refused, and leave the cache as it was
    k_max = draw(st.sampled_from([0, 1, max_passband(n, period), n // 4, n // 2]))
    modules = draw(st.integers(1, max_modules(period)))
    return name, period, n, k_max, modules


class TestSystemCache:
    """`assemble_system` serves every M from a cached floor(T/2)-module system."""

    @settings(deadline=None, max_examples=60)
    @given(calls=st.lists(cache_calls(), min_size=1, max_size=40))
    @example(calls=[("custom-a", 4, 32, 3, 1), ("custom-b", 4, 32, 3, 1)])
    # the FFT leaves Im of pair bin 0 at 2.8e-17 (custom-a, column 1) and
    # 5.6e-17 (custom-b, column 2), which the system zeroes
    @example(calls=[("custom-a", 4, 48, 5, 1)])
    @example(calls=[("custom-b", 4, 48, 5, 2)])
    @example(calls=[("sh", 4, 48, 3, 2), ("sh", 4, 48, 3, 1), ("sh", 4, 48, 5, 1)])
    @example(calls=[("sh", 4, 16, 3, 1), ("sh", 4, 16, 5, 1)])  # K > max_passband = 1
    def test_matches_uncached_build(self, calls):
        modular._replica_system.cache_clear()
        for name, period, n, k_max, modules in calls:
            kernel = cache_case_kernel(name, period)
            if k_max > max_passband(n, period):
                before = modular._replica_system.cache_info()
                with pytest.raises(FieldError) as info:
                    assemble_system(kernel, n, modules, Passband(k_max))
                assert info.value.field == "K"
                assert modular._replica_system.cache_info() == before
                continue
            system = assemble_system(kernel, n, modules, Passband(k_max))
            matrix, target = loop_system(kernel, n, k_max, modules)
            assert np.array_equal(system.matrix, matrix)
            assert np.array_equal(system.target, target)
            assert system.kernel is kernel
            info = modular._replica_system.cache_info()
            assert info.currsize <= modular._SYSTEM_CACHE_SIZE == info.maxsize
            full = replica_system(kernel, n, Passband(k_max))
            assert full[0].shape[1] == max_modules(period)
            assert not (full[0].flags.writeable or full[1].flags.writeable)

    def test_one_cache_read_per_design_solve(self):
        # the solve scores its weights on the system's arrays, not a second lookup
        def reads():
            info = modular._replica_system.cache_info()
            return info.hits + info.misses

        before = reads()
        solve_coefficients(assemble_system(sh_kernel(16), 2048, 5, Passband(63)))
        assert reads() == before + 1

    def test_bounded_at_sixteen_systems(self):
        modular._replica_system.cache_clear()
        for period in range(2, 20):
            assemble_system(sh_kernel(period), 4 * period, 1, Passband(1))
        assert modular._replica_system.cache_info().currsize == 16


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

    @pytest.mark.parametrize("kernel_id, period, modules", GRID)
    def test_residual_consistent_with_metric(self, kernel_id, period, modules):
        kernel = kernel_from_id(kernel_id, period)
        n = 64 * period
        band = Passband(n // (2 * period) - 1)
        solution = solve_coefficients(assemble_system(kernel, n, modules, band))
        assert solution.residual == error_metric(kernel, solution.coeffs, n, band)

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
    def test_arrays_come_only_from_the_cache(self, part):
        system = assemble_system(sh_kernel(4), 64, 2, Passband(7))
        other = np.zeros_like(getattr(system, part))
        with pytest.raises(ValueError, match=part):
            replace(system, **{part: other})
        with pytest.raises(TypeError, match=part):
            DesignSystem(sh_kernel(4), 64, 2, Passband(7), **{part: other})
        # a replaced request reads the cache again
        one = replace(system, modules=1)
        assert one.matrix.shape == (16, 1) and np.shares_memory(one.matrix, system.matrix)

    @pytest.mark.parametrize("residual", [float("nan"), float("inf"), -1.0])
    def test_solution_residual_must_be_finite_and_non_negative(self, residual):
        with pytest.raises(ValueError, match="residual must be finite and >= 0"):
            CoeffSolution(ModuleCoeffs(4, (1.0,)), residual, "sh", 64, 7)

    @pytest.mark.parametrize("period, n, passband, field", [
        (4, 0, 0, "N"),
        (16, 100, 7, "N"),  # T = 16 does not divide N
        (4, 64, 40, "K"),  # above N/2 = 32
        (4, 64, 8, "K"),  # at the sampling Nyquist bin 64 / (2 * 4)
        (4, 64, -1, "K"),
    ])
    def test_solution_refuses_impossible_grid(self, period, n, passband, field):
        with pytest.raises(FieldError) as info:
            CoeffSolution(ModuleCoeffs(period, (1.0,)), 0.0, "sh", n, passband)
        assert info.value.field == field

    @pytest.mark.parametrize("kernel_id, n, passband, field", [
        ("sh", 64.0, 7, "N"),
        ("sh", 64, 7.0, "K"),
        ("sh", 64, 2.7, "K"),
        (5, 64, 7, "kernel_id"),
    ])
    def test_solution_refuses_what_its_file_would(self, kernel_id, n, passband, field):
        # `store_coeffs` would write "N": 64.0 or "kernel_id": 5, which `load_coeffs` refuses
        with pytest.raises(FieldError) as info:
            CoeffSolution(ModuleCoeffs(4, (0.5,)), 0.0, kernel_id, n, passband)
        assert info.value.field == field

    def test_rank_deficient_flagged_minimum_norm(self):
        # flat single-tap kernel: every replica response is the constant 2
        flat = InterpKernel([4.0], 0, 4, "custom:flat")
        solution = solve_coefficients(assemble_system(flat, 64, 2, Passband(7)))
        assert solution.rank_deficient
        np.testing.assert_allclose(solution.coeffs.c, [0.0, 0.0], atol=1e-12)


FILE_FIELDS = ("schema", "kernel_id", "T", "N", "K", "M", "coefficients", "residual")

# Any JSON value: null, bool, string, list, object, small, negative and huge
# ints, and floats including nan and inf.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.integers(-3, 80),
    st.integers(-(10**500), 10**500),
    st.floats(),
    st.lists(st.floats(), max_size=4),
    st.lists(st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


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

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
    def test_file_mode_follows_the_umask(self, tmp_path, umask):
        # as a plain open(path, "w") gives a new file, for a new and a rewritten one
        path = tmp_path / "coeffs.json"
        saved = os.umask(umask)
        try:
            store_coeffs(self._solution(), path)
            created = stat.S_IMODE(path.stat().st_mode)
            path.chmod(0o644)
            store_coeffs(self._solution(), path)
            rewritten = stat.S_IMODE(path.stat().st_mode)
        finally:
            os.umask(saved)
        assert created == rewritten == 0o666 & ~umask
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_replace_names_the_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "coeffs.json"
        path.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError) as info:
            store_coeffs(self._solution(), path)
        assert info.value.filename == str(path)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("kernel_id", ["sh", "li", "hold:2", "hold:3"])
    @pytest.mark.parametrize("period", [8, 16])
    def test_stored_solve_loads_equal_whatever_its_rank(self, tmp_path, kernel_id, period):
        # the file does not keep rank_deficient (set at T = 16, M = 7 and 8), so
        # equality must not compare it
        kernel, n, path = kernel_from_id(kernel_id, period), 2048, tmp_path / "coeffs.json"
        flags = []
        for modules in range(1, max_modules(period) + 1):
            solution = solve_coefficients(
                assemble_system(kernel, n, modules, Passband(n // (2 * period) - 1))
            )
            store_coeffs(solution, path)
            assert load_coeffs(path) == solution
            flags.append(solution.rank_deficient)
        assert any(flags) == (period == 16)

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
        ("N", 66),  # T = 4 does not divide it
        ("K", 7.5),
        ("K", 40),  # above N/2 = 32
        ("M", "2"),
        ("kernel_id", 7),
        ("residual", None),
        ("residual", float("nan")),
        ("residual", float("inf")),
        ("residual", -1.0),
        pytest.param("residual", 10**400, id="residual-huge-int"),
        pytest.param("coefficients", [10**400, 0.25], id="coefficients-huge-int"),
        ("coefficients", [1, 0.25]),  # `store_coeffs` writes floats only
        ("residual", 0),
        ("K", 8),  # at the sampling Nyquist bin 64 / (2 * 4)
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

    @pytest.mark.parametrize("changes, field", [
        ({"T": 10**400}, "N"),  # T does not divide N = 64
        ({"M": 3, "coefficients": [0.5, 0.25, 0.125]}, "M"),  # above floor(T/2) = 2
    ])
    def test_value_rule_named_by_its_own_field(self, tmp_path, changes, field):
        path = tmp_path / "coeffs.json"
        store_coeffs(self._solution(), path)
        data = json.loads(path.read_text())
        data.update(changes)
        path.write_text(json.dumps(data))
        with pytest.raises(CoeffFileError, match=f"field '{field}'") as info:
            load_coeffs(path)
        assert info.value.field == field

    @settings(deadline=None, max_examples=300)
    @given(field=st.sampled_from(FILE_FIELDS), value=JSON_VALUES)
    @example(field="N", value=66)
    @example(field="K", value=40)
    @example(field="T", value=10**400)
    @example(field="T", value=8)
    @example(field="coefficients", value=[0.5, float("nan")])
    @example(field="residual", value=float("inf"))
    def test_fuzzed_field_is_named_or_round_trips(self, field, value):
        """Any JSON value in any field: the load is refused naming a file field,
        or it gives a solution on a valid grid that stores back byte-identically."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "coeffs.json"
            store_coeffs(self._solution(), path)
            data = json.loads(path.read_text())
            data[field] = value
            text = json.dumps(data) + "\n"
            path.write_text(text)
            try:
                loaded = load_coeffs(path)
            except CoeffFileError as exc:
                assert exc.field in FILE_FIELDS
                return
            check_grid(loaded.n, loaded.coeffs.period, band=Passband(loaded.passband),
                       modules=loaded.coeffs.modules)
            store_coeffs(loaded, path)
            assert path.read_text() == text

    @settings(deadline=None, max_examples=300)
    @given(
        kernel_id=st.text(max_size=8),
        period=st.integers(-1, 40),
        blocks=st.integers(-1, 40),
        extra=st.sampled_from([0, 0, 1]),
        passband=st.integers(-1, 400),
        weights=st.lists(st.floats(), max_size=6),
        residual=st.one_of(st.floats(), st.integers(-3, 10**6)),
        integer=st.sampled_from([int, np.int64, np.int32]),
    )
    def test_every_constructed_solution_round_trips(
        self, kernel_id, period, blocks, extra, passband, weights, residual, integer
    ):
        # numpy ints are stored as plain JSON integers
        try:
            solution = CoeffSolution(ModuleCoeffs(integer(period), weights), residual, kernel_id,
                                     integer(period * blocks + extra), integer(passband))
        except FieldError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "coeffs.json"
            store_coeffs(solution, path)
            assert load_coeffs(path) == solution

    def test_failed_rename_names_the_requested_path(self, tmp_path):
        path = tmp_path / "target"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            store_coeffs(self._solution(), path)
        assert info.value.filename == str(path)
        assert list(tmp_path.iterdir()) == [path]  # no temp file left beside it
        assert list(path.iterdir()) == []

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

    def test_module_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "coeffs.json"
        store_coeffs(self._solution(), path)
        loaded = load_coeffs(path)
        m = loaded.coeffs.modules
        with pytest.raises(CoeffFileError, match=f"module count M {m}, not {m - 1}") as info:
            check_solution_matches(loaded, "sh", 4, n=64, passband=7, modules=m - 1)
        assert info.value.field == "M"
        # the other fields are checked first
        with pytest.raises(CoeffFileError) as info:
            check_solution_matches(loaded, "sh", 4, n=128, passband=7, modules=m - 1)
        assert info.value.field == "N"
        check_solution_matches(loaded, "sh", 4, n=64, passband=7, modules=m)
