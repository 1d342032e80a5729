import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holdfix import bench
from holdfix.bench import (
    CSV_HEADER,
    METHODS,
    SNR_CLAMP_DB,
    SweepRow,
    SweepSpec,
    method_coeffs,
    run_module_sweep,
    run_noise_sweep,
    run_trial,
    write_csv,
)
from holdfix.kernels import interpolate, kernel_from_id
from holdfix.modular import classical_coeffs, comb_coeffs, reconstruct
from holdfix.optimizer import assemble_system, solve_coefficients
from holdfix.signals import (
    FieldError,
    Passband,
    add_noise,
    gen_bandlimited,
    sample_train,
    snr_db,
)

NOISE_SEED_OFFSET = 1 << 20  # documented: noise seed = trial seed + 2**20


def small_spec(**overrides):
    base = dict(
        kernel_id="sh",
        period=4,
        n=256,
        k_sig=Passband(31),
        methods=("classical", "optimized"),
        modules=(1, 2),
        trials=5,
        master_seed=0,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestKernelsUpToTheTapBound:
    """A custom kernel whose taps spread up to `InterpKernel`'s bound keeps
    every downstream number finite, with no numpy warning."""

    @settings(deadline=None, max_examples=25)
    @given(period=st.sampled_from([2, 4, 8, 16]), share=st.floats(0.0, 1.0),
           order=st.permutations([0, 1, 2]), origin=st.integers(0, 2))
    def test_system_and_sweep_stay_finite(self, tmp_path_factory, period, share, order, origin):
        bound = 1e-9 * period / np.finfo(float).eps  # 7.2e7 at T = 16
        spread = share * (bound - period) / 2
        taps = np.array([spread, -spread, float(period)])[list(order)]
        kernel_file = tmp_path_factory.mktemp("kernel") / "taps.txt"
        kernel_file.write_text(" ".join(repr(float(t)) for t in taps) + f"\norigin={origin}\n")
        kernel_id = f"custom:{kernel_file}"
        n = 32 * period
        spec = small_spec(kernel_id=kernel_id, period=period, n=n,
                          k_sig=Passband(n // (2 * period) - 1), methods=METHODS,
                          modules=tuple(range(1, period // 2 + 1)), trials=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            system = assemble_system(kernel_from_id(kernel_id, period), n, period // 2,
                                     spec.k_sig)
            rows = run_module_sweep(spec)
        assert np.isfinite(system.matrix).all() and np.isfinite(system.target).all()
        assert all(np.isfinite(row.mean_output_snr_db) for row in rows)


class TestSweepSpec:
    def test_divisibility(self):
        with pytest.raises(ValueError):
            small_spec(n=250)

    def test_module_cap_cites_bound(self):
        with pytest.raises(ValueError, match="maximum for period 4"):
            small_spec(modules=(3,))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown methods"):
            small_spec(methods=("classical", "magic"))

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            small_spec(trials=0)

    def test_master_seed_non_negative(self):
        with pytest.raises(ValueError, match="master_seed"):
            small_spec(master_seed=-1)

    def test_signal_band_stays_inside_sampling_nyquist(self):
        with pytest.raises(ValueError):
            small_spec(k_sig=Passband(32))

    def test_guard_range(self):
        with pytest.raises(ValueError):
            small_spec(guard_fraction=0.5)


class TestRunTrial:
    def test_comb_recovery_is_exact(self):
        spec = small_spec(kernel_id="sh", period=8, n=512, k_sig=Passband(31),
                          methods=("comb",), modules=(4,), trials=1)
        for trial in range(5):
            snr = run_trial(spec, "comb", 4, None, trial)
            assert min(snr, SNR_CLAMP_DB) >= 200.0

    def test_deterministic(self):
        spec = small_spec()
        a = run_trial(spec, "optimized", 2, 25.0, 3)
        b = run_trial(spec, "optimized", 2, 25.0, 3)
        assert a == b

    def test_trial_depends_only_on_index(self):
        # schedule independence: value for index 5 is the same whether or not
        # other trials ran first
        spec = small_spec()
        alone = run_trial(spec, "classical", 1, None, 5)
        _ = [run_trial(spec, "classical", 1, None, i) for i in range(5)]
        assert run_trial(spec, "classical", 1, None, 5) == alone

    def test_no_modules_is_worse_than_one(self):
        spec = small_spec(kernel_id="sh", period=16, n=2048, k_sig=Passband(63),
                          modules=(1,), trials=20)
        m0 = np.mean([run_trial(spec, "classical", 0, None, i) for i in range(20)])
        m1 = np.mean([run_trial(spec, "classical", 1, None, i) for i in range(20)])
        assert m0 < m1

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_trial(small_spec(), "magic", 1, None, 0)

    @pytest.mark.parametrize("modules", [0, 1])
    def test_comb_refuses_other_counts(self, modules):
        with pytest.raises(FieldError) as info:
            run_trial(small_spec(methods=("comb",)), "comb", modules, None, 0)
        assert info.value.field == "M"


class TestMethodCoeffs:
    @pytest.mark.parametrize("period", [1, 2, 5, 8])
    def test_comb_exists_only_at_its_own_count(self, period):
        kernel, band = kernel_from_id("sh", period), Passband(0)
        own = period // 2
        assert method_coeffs("comb", kernel, 8 * period, own, band) == comb_coeffs(period)
        for modules in {0, own - 1, own + 1, period} - {own}:
            with pytest.raises(FieldError, match=f"not {modules}$") as info:
                method_coeffs("comb", kernel, 8 * period, modules, band)
            assert info.value.field == "M"

    def test_rewritten_custom_kernel_gets_fresh_weights(self, tmp_path):
        path = tmp_path / "taps.txt"
        kernel_id = f"custom:{path}"
        path.write_text("1 1 1 1\norigin=0\n")
        before = method_coeffs("optimized", kernel_from_id(kernel_id, 4), 256, 2, Passband(31))
        path.write_text("0.25 0.5 0.75 1 0.75 0.5 0.25\norigin=3\n")
        after = method_coeffs("optimized", kernel_from_id(kernel_id, 4), 256, 2, Passband(31))
        fresh = solve_coefficients(
            assemble_system(kernel_from_id(kernel_id, 4), 256, 2, Passband(31))
        ).coeffs
        assert after.c == fresh.c
        assert after.c != before.c


class TestModuleSweep:
    def test_row_grid_and_order(self):
        spec = small_spec(methods=("optimized", "classical"), modules=(2, 1), trials=2)
        rows = run_module_sweep(spec)
        assert [(r.method, r.modules) for r in rows] == [
            ("classical", 1), ("classical", 2), ("optimized", 1), ("optimized", 2),
        ]
        assert all(r.input_snr_db is None and r.trials == 2 for r in rows)

    def test_single_trial_has_zero_std(self):
        rows = run_module_sweep(small_spec(trials=1))
        assert all(r.std_output_snr_db == 0.0 for r in rows)

    def test_comb_contributes_one_row_at_implied_count(self):
        spec = small_spec(methods=("comb",), modules=(1, 2), trials=2)
        rows = run_module_sweep(spec)
        assert len(rows) == 1
        assert rows[0].method == "comb" and rows[0].modules == 2

    def test_optimized_dominates_classical(self):
        spec = small_spec(trials=10)
        rows = run_module_sweep(spec)
        classical = {r.modules: r.mean_output_snr_db for r in rows if r.method == "classical"}
        optimized = {r.modules: r.mean_output_snr_db for r in rows if r.method == "optimized"}
        for m in (1, 2):
            assert optimized[m] >= classical[m] - 0.1

    def test_optimized_full_budget_matches_comb(self):
        spec = small_spec(kernel_id="li", period=8, n=512, k_sig=Passband(31),
                          methods=("comb", "optimized"), modules=(4,), trials=5)
        rows = run_module_sweep(spec)
        means = {r.method: r.mean_output_snr_db for r in rows}
        assert means["optimized"] == pytest.approx(means["comb"], abs=1e-6)

    def test_clamp_bounds_all_outputs(self):
        spec = small_spec(kernel_id="sh", period=8, n=512, k_sig=Passband(31),
                          methods=("comb", "optimized"), modules=(4,), trials=5)
        for row in run_module_sweep(spec):
            assert row.mean_output_snr_db <= SNR_CLAMP_DB


class TestNoiseSweep:
    def test_rows_and_monotonicity(self):
        spec = small_spec(modules=(2,), trials=5,
                          noise_snrs_db=(0.0, 20.0, 40.0))
        rows = run_noise_sweep(spec)
        assert [(r.method, r.input_snr_db) for r in rows] == [
            ("classical", 0.0), ("classical", 20.0), ("classical", 40.0),
            ("optimized", 0.0), ("optimized", 20.0), ("optimized", 40.0),
        ]
        assert all(r.trials == 5 and r.modules == 2 for r in rows)
        for method in ("classical", "optimized"):
            means = [r.mean_output_snr_db for r in rows if r.method == method]
            assert means == sorted(means)

    def test_comb_rows_sit_at_own_count(self):
        # the requested count applies to classical only; comb stays at floor(8/2)
        spec = small_spec(kernel_id="li", period=8, n=256, k_sig=Passband(11),
                          methods=("classical", "comb"), modules=(3,), trials=10,
                          noise_snrs_db=(10.0, 40.0))
        rows = run_noise_sweep(spec)
        assert [(r.method, r.modules) for r in rows] == [
            ("classical", 3), ("classical", 3), ("comb", 4), ("comb", 4),
        ]
        for row in rows[2:]:
            snrs = np.minimum(
                [run_trial(spec, "comb", 4, row.input_snr_db, i) for i in range(spec.trials)],
                SNR_CLAMP_DB,
            )
            assert (row.mean_output_snr_db, row.std_output_snr_db) == (
                float(snrs.mean()), float(snrs.std())
            )

    def test_requires_noise_list(self):
        with pytest.raises(ValueError):
            run_noise_sweep(small_spec(modules=(2,)))

    def test_requires_single_module_count(self):
        spec = small_spec(modules=(1, 2), noise_snrs_db=(10.0,))
        with pytest.raises(ValueError):
            run_noise_sweep(spec)


class TestWriteCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_row_format(self, tmp_path):
        row = SweepRow("classical", 3, None, 42.123456, 1.0, 100)
        path = tmp_path / "out.csv"
        write_csv([row], path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "classical,3,clean,42.123456,1.000000,100"

    def test_noise_row_format(self, tmp_path):
        row = SweepRow("optimized", 5, 10.0, 55.5, 0.25, 7)
        path = tmp_path / "out.csv"
        write_csv([row], path)
        assert path.read_text().splitlines()[1] == "optimized,5,10.000000,55.500000,0.250000,7"

    def test_byte_identical_for_identical_rows(self, tmp_path):
        rows = run_module_sweep(small_spec(trials=2))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows, a)
        write_csv(run_module_sweep(small_spec(trials=2)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError, match="sweep CSV"):
            write_csv([], tmp_path / "missing_dir" / "out.csv")


def oracle_trial(spec, method, modules, input_snr_db, trial):
    """One trial through the public pipeline, one call per stage."""
    seed = spec.master_seed + trial
    kernel = kernel_from_id(spec.kernel_id, spec.period)
    if method == "classical":
        coeffs = classical_coeffs(spec.period, modules)
    elif method == "comb":
        coeffs = comb_coeffs(spec.period)
    else:
        coeffs = solve_coefficients(
            assemble_system(kernel, spec.n, modules, spec.k_sig)
        ).coeffs
    clean = gen_bandlimited(spec.n, spec.k_sig, 1.0, seed)
    source = clean
    if input_snr_db is not None:
        source = add_noise(clean, input_snr_db, seed + NOISE_SEED_OFFSET)
    held = interpolate(sample_train(source, spec.period), kernel)
    restored = reconstruct(held, coeffs, spec.k_sig)
    return snr_db(clean, restored, spec.guard_fraction)


def oracle_row(spec, method, modules, input_snr_db):
    snrs = np.array([
        min(SNR_CLAMP_DB, oracle_trial(spec, method, modules, input_snr_db, i))
        for i in range(spec.trials)
    ])
    return SweepRow(method, modules, input_snr_db, float(snrs.mean()),
                    float(snrs.std()), spec.trials)


@st.composite
def sweep_cases(draw):
    """SweepSpec fields other than trials; noise_snrs_db None means a module sweep."""
    period = draw(st.sampled_from([2, 4, 8]))
    n = period * draw(st.integers(4, 24))  # hold:2 has 3*period - 2 taps
    cap = period // 2
    noise = draw(st.none() | st.lists(st.floats(-10.0, 80.0), min_size=1, max_size=3))
    if noise is None:
        modules = draw(st.lists(st.integers(1, cap), min_size=1, max_size=cap, unique=True))
    else:
        modules = [draw(st.integers(1, cap))]
    return dict(
        kernel_id=draw(st.sampled_from(["sh", "li", "hold:2"])),
        period=period,
        n=n,
        k_sig=Passband(draw(st.integers(0, n // (2 * period) - 1))),
        methods=tuple(draw(st.lists(st.sampled_from(METHODS), min_size=1, unique=True))),
        modules=tuple(modules),
        master_seed=draw(st.integers(0, 10**6)),
        noise_snrs_db=None if noise is None else tuple(noise),
    )


_LI_ALL_METHODS = dict(kernel_id="li", period=8, n=128, k_sig=Passband(5),
                       methods=METHODS, modules=(1, 4), master_seed=3,
                       noise_snrs_db=None)


class TestEngineMatchesPublicPipeline:
    """Sweeps and run_trial equal, bit for bit, the per-trial public pipeline."""

    @settings(deadline=None, max_examples=40)
    @given(case=sweep_cases(), trials=st.integers(1, 20), chunk=st.integers(1, 8))
    @example(case=_LI_ALL_METHODS, trials=5, chunk=None)  # fewer trials than one chunk
    @example(case=_LI_ALL_METHODS, trials=8, chunk=None)  # exactly one chunk
    @example(case=dict(_LI_ALL_METHODS, modules=(3,), noise_snrs_db=(10.0, 30.0)),
             trials=13, chunk=None)  # not a multiple of the chunk
    @example(case=dict(_LI_ALL_METHODS, n=1 << 19, modules=(4,)),
             trials=2, chunk=None)  # past the byte bound: one trial per chunk
    def test_sweep_rows_and_trials(self, case, trials, chunk):
        # drawn cases run `chunk` trials per chunk; None keeps the real constants
        size = bench._TRIAL_CHUNK if chunk is None else chunk
        with mock.patch.object(bench, "_TRIAL_CHUNK", size):
            spec = SweepSpec(**case, trials=trials)
            if spec.noise_snrs_db is None:
                levels = [None]
                rows = run_module_sweep(spec)
            else:
                levels = list(spec.noise_snrs_db)
                rows = run_noise_sweep(spec)
            expected = []
            for method in sorted(set(spec.methods)):
                # both sweeps list comb once, at its own count floor(T/2)
                counts = sorted(spec.modules)
                if method == "comb":
                    counts = [comb_coeffs(spec.period).modules]
                expected += [oracle_row(spec, method, m, level) for m in counts for level in levels]
            assert rows == expected

            trial = trials - 1
            for method, modules in [("classical", 0)] + [(r.method, r.modules) for r in rows]:
                assert run_trial(spec, method, modules, levels[-1], trial) == oracle_trial(
                    spec, method, modules, levels[-1], trial
                )
