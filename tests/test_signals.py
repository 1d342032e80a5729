import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holdfix.bench import SweepSpec
from holdfix.kernels import frequency_response, interpolate_array, kernel_from_id, li_kernel, sh_kernel
from holdfix.modular import ModuleCoeffs, comb_coeffs, modulation_kernel, passband_gain, reconstruct_array
from holdfix.optimizer import assemble_system
from holdfix.signals import (
    FieldError,
    Passband,
    Signal,
    add_noise,
    bandlimited_array,
    gen_bandlimited,
    ideal_lowpass,
    noise_array,
    noise_power_ratio,
    lowpass_array,
    normal_array,
    sample_array,
    sample_train,
    snr_db,
    snr_db_array,
)


def finite_signals(sizes=(4, 8, 12, 16, 32)):
    return st.sampled_from(sizes).flatmap(
        lambda n: arrays(
            np.float64,
            n,
            elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        )
    ).map(Signal)


class TestSignalType:
    def test_rejects_short(self):
        with pytest.raises(ValueError):
            Signal([1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Signal([1.0, np.nan, 2.0])
        with pytest.raises(ValueError):
            Signal([1.0, np.inf])

    def test_immutable(self):
        x = Signal([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            x.samples[0] = 5.0

    def test_passband_rejects_negative(self):
        with pytest.raises(ValueError):
            Passband(-1)


class TestIdealLowpass:
    def test_dc_preserved(self):
        x = Signal([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(ideal_lowpass(x, Passband(0)).samples, x.samples)

    def test_out_of_band_tone_removed(self):
        n = np.arange(8)
        x = Signal(np.cos(2 * np.pi * n / 4))  # energy only at bins 2 and 6
        y = ideal_lowpass(x, Passband(1))
        np.testing.assert_allclose(y.samples, np.zeros(8), atol=1e-14)

    def test_full_band_passthrough(self):
        rng = np.random.default_rng(3)
        x = Signal(rng.normal(size=16))
        y = ideal_lowpass(x, Passband(8))
        np.testing.assert_allclose(y.samples, x.samples, rtol=0, atol=1e-12)

    def test_band_out_of_range(self):
        with pytest.raises(ValueError):
            ideal_lowpass(Signal(np.ones(8)), Passband(5))

    def test_passband_bins_untouched(self):
        rng = np.random.default_rng(4)
        x = Signal(rng.normal(size=32))
        y = ideal_lowpass(x, Passband(5))
        fx, fy = np.fft.fft(x.samples), np.fft.fft(y.samples)
        keep = np.r_[0:6, 27:32]
        np.testing.assert_allclose(fy[keep], fx[keep], rtol=1e-12, atol=1e-12)
        zeroed = np.r_[6:27]
        np.testing.assert_allclose(fy[zeroed], 0, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(x=finite_signals(), frac=st.floats(0, 1))
    def test_idempotent_and_energy(self, x, frac):
        band = Passband(int(frac * (len(x) // 2)))
        once = ideal_lowpass(x, band)
        twice = ideal_lowpass(once, band)
        scale = np.linalg.norm(once.samples) + 1e-30
        assert np.linalg.norm(twice.samples - once.samples) <= 1e-12 * max(scale, 1.0)
        assert np.sum(once.samples**2) <= np.sum(x.samples**2) * (1 + 1e-12) + 1e-12

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_projection_of_bandlimited(self, seed):
        x = gen_bandlimited(32, Passband(5), 1.0, seed)
        y = ideal_lowpass(x, Passband(5))
        np.testing.assert_allclose(y.samples, x.samples, rtol=0, atol=1e-12)


class TestGenBandlimited:
    def test_full_band_matches_raw_noise(self):
        x = gen_bandlimited(16, Passband(8), 1.0, 7)
        raw = np.random.default_rng(7).normal(0.0, 1.0, 16)
        np.testing.assert_allclose(np.fft.fft(x.samples), np.fft.fft(raw), atol=1e-12)

    def test_stopband_is_zero(self):
        x = gen_bandlimited(16, Passband(3), 1.0, 7)
        spectrum = np.fft.fft(x.samples)
        assert np.all(np.abs(spectrum[4:13]) < 1e-12)

    def test_variance_matches_retained_bin_count(self):
        # E[var] = sigma^2 (2K+1)/N; checked as an average over 24 seeds
        n, k = 4096, 1023
        expected = (2 * k + 1) / n
        ratios = [
            np.var(gen_bandlimited(n, Passband(k), 1.0, seed).samples) / expected
            for seed in range(24)
        ]
        assert abs(np.mean(ratios) - 1.0) < 0.10
        assert max(abs(r - 1.0) for r in ratios) < 0.10

    def test_deterministic(self):
        a = gen_bandlimited(64, Passband(10), 2.0, 123)
        b = gen_bandlimited(64, Passband(10), 2.0, 123)
        assert np.array_equal(a.samples, b.samples)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            gen_bandlimited(16, Passband(3), 0.0, 1)
        with pytest.raises(ValueError):
            gen_bandlimited(16, Passband(3), -1.0, 1)

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.sampled_from([2, 8, 64, 2048]),
        frac=st.floats(0.0, 1.0),
        sigma=st.floats(0.01, 100.0),
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=9),
    )
    def test_batched_rows_equal_single_calls(self, n, frac, sigma, seeds):
        band = Passband(int(frac * (n // 2)))
        stack = bandlimited_array(n, band, sigma, seeds)
        assert stack.shape == (len(seeds), n)
        for row, seed in zip(stack, seeds):
            assert np.array_equal(row, gen_bandlimited(n, band, sigma, seed).samples)


class TestSampleTrain:
    @pytest.mark.parametrize(
        "x, period, expected",
        [
            ([5, 6, 7, 8], 2, [5, 0, 7, 0]),
            ([5, 6, 7, 8], 1, [5, 6, 7, 8]),
            ([1, 2, 3, 4, 5, 6], 3, [1, 0, 0, 4, 0, 0]),
        ],
    )
    def test_examples(self, x, period, expected):
        np.testing.assert_array_equal(
            sample_train(Signal(x), period).samples, np.asarray(expected, dtype=float)
        )

    def test_divisibility(self):
        with pytest.raises(ValueError):
            sample_train(Signal(np.ones(10)), 4)

    @settings(deadline=None, max_examples=30)
    @given(x=finite_signals(sizes=(4, 8, 12)), y=finite_signals(sizes=(4, 8, 12)))
    def test_linear_and_idempotent(self, x, y):
        if len(x) != len(y):
            return
        period = 2
        both = sample_train(Signal(2.0 * x.samples - 3.0 * y.samples), period)
        combo = 2.0 * sample_train(x, period).samples - 3.0 * sample_train(y, period).samples
        np.testing.assert_allclose(both.samples, combo, rtol=1e-12, atol=1e-12)
        once = sample_train(x, period)
        np.testing.assert_array_equal(sample_train(once, period).samples, once.samples)


class TestAddNoise:
    def test_300db_is_negligible(self):
        x = gen_bandlimited(4096, Passband(1000), 1.0, 5)
        y = add_noise(x, 300.0, 11)
        rel = np.mean((y.samples - x.samples) ** 2) / np.mean(x.samples**2)
        assert rel < 1e-29

    def test_deterministic(self):
        x = gen_bandlimited(64, Passband(10), 1.0, 1)
        a = add_noise(x, 15.0, 42)
        b = add_noise(x, 15.0, 42)
        assert np.array_equal(a.samples, b.samples)

    def test_hits_target_snr(self):
        x = gen_bandlimited(4096, Passband(1000), 1.0, 99)
        for seed in range(20):
            measured = snr_db(x, add_noise(x, 20.0, seed), 0.0)
            assert abs(measured - 20.0) < 0.5

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            add_noise(Signal(np.zeros(8)), 10.0, 0)

    def test_nonfinite_target_rejected(self):
        x = Signal(np.ones(8))
        with pytest.raises(ValueError):
            add_noise(x, float("inf"), 0)

    @pytest.mark.parametrize("target", [-4000.0, float("nan"), float("-inf")])
    def test_unrepresentable_noise_raises_value_error(self, target):
        x = Signal(np.ones(8))
        with pytest.raises(ValueError, match="SNR"):
            add_noise(x, target, 0)
        with pytest.raises(ValueError, match="SNR"):
            noise_array(x.samples, np.mean(x.samples**2), normal_array(8, [0])[0], target)

    def test_noise_std_overflow_raises_value_error(self):
        # the power ratio itself is finite; times the signal's power it is not
        x = Signal(np.full(8, 1e100))
        assert np.isfinite(noise_power_ratio(-3000.0))
        with pytest.raises(ValueError, match="beyond float range"):
            add_noise(x, -3000.0, 0)

    def test_noise_energy_overflow_raises_field_error(self):
        # std 1e154 is finite, but 8 samples of it square to an energy past float range
        x = Signal(np.full(8, 1e100))
        with pytest.raises(FieldError, match="beyond float range") as info:
            add_noise(x, -1080.0, 0)
        assert info.value.field == "snr"

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.sampled_from([2, 8, 64, 2048]),
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=6),
        target=st.floats(-20.0, 120.0),
        noise_seed=st.integers(0, 2**32),
    )
    def test_shared_draw_rows_equal_add_noise(self, n, seeds, target, noise_seed):
        # one draw row per trial, reused at every SNR, as the sweep engine does;
        # == treats -0.0 and 0.0 alike (0.0 + s*z against s*z)
        clean = bandlimited_array(n, Passband(n // 4), 1.0, seeds)
        noise_seeds = [noise_seed + i for i in range(len(seeds))]
        noisy = noise_array(clean, np.mean(clean**2, axis=-1), normal_array(n, noise_seeds), target)
        for row, x, seed in zip(noisy, clean, noise_seeds):
            assert np.array_equal(row, add_noise(Signal(x), target, seed).samples)


class TestSnrDb:
    def test_identical_gives_inf(self):
        x = Signal([1.0, 2.0, 3.0, 4.0])
        assert snr_db(x, x, 0.1) == float("inf")

    def test_zero_estimate_gives_zero_db(self):
        x = Signal([1.0, -2.0, 3.0, -4.0])
        zero = Signal(np.zeros(4))
        assert snr_db(x, zero, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_guard_drops_each_end(self):
        ref = Signal([1, 0, 0, 0, 0, 0, 0, 0, 0, 1e3])
        est = np.array(ref.samples)
        est[0] = 2.0
        assert snr_db(ref, Signal(est), 0.1) == float("inf")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            snr_db(Signal(np.ones(4)), Signal(np.ones(6)), 0.0)

    def test_guard_range(self):
        x = Signal(np.ones(8))
        with pytest.raises(ValueError):
            snr_db(x, x, 0.5)
        with pytest.raises(ValueError):
            snr_db(x, x, -0.01)

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.sampled_from([4, 7, 40, 1024]),
        guard=st.sampled_from([0.0, 0.1, 0.25]),
        seed=st.integers(0, 2**32),
        scale=st.floats(1e-6, 1.0),
    )
    def test_stack_equals_per_row(self, n, guard, seed, scale):
        rng = np.random.default_rng(seed)
        reference = rng.normal(size=(3, 2, n))
        estimate = reference + scale * rng.normal(size=(3, 2, n))
        estimate[0, 1] = reference[0, 1]  # exact recovery: +inf
        reference[2, 0] = 0.0  # zero reference: -inf
        stack = snr_db_array(reference, estimate, guard)
        assert stack.shape == (3, 2)
        assert stack[0, 1] == float("inf") and stack[2, 0] == -float("inf")
        g = int(guard * n + 1e-9)
        for i, j in np.ndindex(3, 2):
            row = snr_db(Signal(reference[i, j]), Signal(estimate[i, j]), guard)
            assert stack[i, j] == row
            ref = reference[i, j, g : n - g]
            err = ref - estimate[i, j, g : n - g]
            if (i, j) not in [(0, 1), (2, 0)]:  # per-pair np.dot form, bit for bit
                assert row == 10.0 * math.log10(np.dot(ref, ref) / np.dot(err, err))

    def test_decreasing_in_perturbation_amplitude(self):
        rng = np.random.default_rng(6)
        x = Signal(rng.normal(size=40))
        bump = np.zeros(40)
        bump[10:30] = rng.normal(size=20)
        values = [
            snr_db(x, Signal(x.samples + a * bump), 0.1) for a in (0.1, 0.3, 1.0, 3.0)
        ]
        assert all(earlier > later for earlier, later in zip(values, values[1:]))


def _spec(**overrides):
    fields = dict(kernel_id="sh", period=4, n=256, k_sig=Passband(31), methods=("classical",),
                  modules=(1,), trials=1, master_seed=0)
    return SweepSpec(**{**fields, **overrides})


@pytest.mark.parametrize("call, field", [
    (lambda: sample_array(np.ones(10), 4), "N"),
    (lambda: sample_array(np.ones(8), 0), "T"),
    (lambda: lowpass_array(np.ones(8), Passband(5)), "K"),
    (lambda: interpolate_array(np.ones((2, 10)), sh_kernel(4)), "N"),
    (lambda: interpolate_array(np.ones(4), li_kernel(4)), "N"),
    (lambda: frequency_response(li_kernel(4), 4), "N"),
    (lambda: reconstruct_array(np.ones(10), np.ones(4), Passband(1)), "N"),
    (lambda: modulation_kernel(comb_coeffs(4), 10), "N"),
    (lambda: ModuleCoeffs(4, (1.0, 1.0, 1.0)), "M"),
    (lambda: passband_gain(sh_kernel(4), comb_coeffs(4), 64, Passband(40)), "K"),
    (lambda: passband_gain(sh_kernel(4), comb_coeffs(4), 66, Passband(7)), "N"),
    (lambda: assemble_system(sh_kernel(4), 64, 3, Passband(7)), "M"),
    (lambda: assemble_system(sh_kernel(4), 64, 0, Passband(7)), "M"),
    (lambda: assemble_system(sh_kernel(4), 64, 1, Passband(33)), "K"),
    (lambda: kernel_from_id("sinc", 4), "kernel_id"),
    (lambda: kernel_from_id("hold:-1", 4), "kernel_id"),
    (lambda: kernel_from_id("sh", 0), "T"),
    (lambda: gen_bandlimited(64, Passband(7), 1.0, -1), "seed"),
    (lambda: gen_bandlimited(1, Passband(0), 1.0, 0), "N"),
    (lambda: snr_db_array(np.ones(8), np.ones(8), 0.5), "guard_fraction"),
    (lambda: noise_power_ratio(float("nan")), "snr"),
    (lambda: _spec(n=250), "N"),
    (lambda: _spec(modules=(3,)), "M"),
    (lambda: _spec(k_sig=Passband(32)), "K"),
    (lambda: _spec(methods=()), "methods"),
    (lambda: _spec(trials=0), "trials"),
    (lambda: _spec(master_seed=-1), "master_seed"),
    (lambda: _spec(guard_fraction=0.5), "guard_fraction"),
])
def test_validation_errors_name_their_field(call, field):
    with pytest.raises(FieldError) as info:
        call()
    assert info.value.field == field
