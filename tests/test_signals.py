import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holdfix.bench import SweepSpec
from holdfix.kernels import (
    InterpKernel,
    frequency_response,
    interpolate_array,
    kernel_from_id,
    li_kernel,
    nth_order_hold,
    sh_kernel,
)
from holdfix.modular import (
    ModuleCoeffs,
    classical_coeffs,
    comb_coeffs,
    passband_gain,
    reconstruct,
    reconstruct_array,
)
from holdfix.optimizer import assemble_system
from holdfix.signals import (
    FieldError,
    Passband,
    Signal,
    add_noise,
    bandlimited_array,
    check_grid,
    gen_bandlimited,
    ideal_lowpass,
    noise_array,
    lowpass_array,
    max_modules,
    max_passband,
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

    @pytest.mark.parametrize("shape, k", [((8, 2048), 63), ((2**17,), 2047), ((2047,), 100),
                                          ((3, 64), 0), ((16,), 8)])
    def test_bit_identical_to_zeroing_the_dropped_bins(self, shape, k):
        x = np.random.default_rng(k).standard_normal(shape)
        spectrum = np.fft.rfft(x)
        spectrum[..., k + 1 :] = 0.0
        assert np.array_equal(lowpass_array(x, Passband(k)), np.fft.irfft(spectrum, n=shape[-1]))

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

    @pytest.mark.parametrize("target", [-4000.0, float("nan"), float("-inf"), float("inf")])
    def test_unrepresentable_noise_raises_value_error(self, target):
        x = Signal(np.ones(8))
        for call in (lambda: add_noise(x, target, 0),
                     lambda: noise_array(x.samples, normal_array(8, [0])[0], target)):
            with pytest.raises(FieldError, match="SNR") as info:
                call()
            assert info.value.field == "snr"

    def test_noise_std_overflow_raises_value_error(self):
        # -3000 dB is usable against unit power; against the power of 1e100
        # samples the noise energy is past float range
        assert np.all(np.isfinite(add_noise(Signal(np.ones(8)), -3000.0, 0).samples))
        x = Signal(np.full(8, 1e100))
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
        noisy = noise_array(clean, normal_array(n, noise_seeds), target)
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
    (lambda: reconstruct(Signal(np.ones(10)), comb_coeffs(4), Passband(1)), "N"),
    (lambda: reconstruct(Signal(np.ones(64)), comb_coeffs(4), Passband(8)), "K"),
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
    (lambda: add_noise(Signal(np.ones(8)), float("nan"), 0), "snr"),
    (lambda: _spec(n=250), "N"),
    (lambda: _spec(modules=(3,)), "M"),
    (lambda: _spec(k_sig=Passband(32)), "K"),
    (lambda: _spec(n=4, k_sig=Passband(0)), "N"),  # N < 2T: no passband fits
    (lambda: check_grid(4, 4, band=Passband(0)), "N"),
    (lambda: check_grid(8, 4, band=Passband(1)), "K"),
    # a band or a kernel's taps are measured against N, so they need it
    pytest.param(lambda: check_grid(band=Passband(3)), "N", id="check_grid-band-without-N"),
    pytest.param(lambda: check_grid(taps=3), "N", id="check_grid-taps-without-N"),
    (lambda: _spec(methods=()), "methods"),
    (lambda: _spec(trials=0), "trials"),
    (lambda: _spec(master_seed=-1), "master_seed"),
    (lambda: _spec(guard_fraction=0.5), "guard_fraction"),
    (lambda: snr_db_array(np.ones(2), np.ones(2), 0.49999999999999994), "guard_fraction"),
    (lambda: _spec(modules=()), "M"),
    (lambda: Passband(-1), "K"),
    # a count that is not integral is refused, never truncated
    pytest.param(lambda: Passband(2.7), "K", id="Passband-2.7"),
    pytest.param(lambda: ModuleCoeffs(4.0, (0.5,)), "T", id="ModuleCoeffs-period-4.0"),
    pytest.param(lambda: _spec(modules=(2.5,)), "M", id="SweepSpec-modules-2.5"),
    pytest.param(lambda: _spec(trials=2.5), "trials", id="SweepSpec-trials-2.5"),
    pytest.param(lambda: _spec(master_seed=1.5), "master_seed", id="SweepSpec-master_seed-1.5"),
    pytest.param(lambda: _spec(n=2048.0), "N", id="SweepSpec-n-2048.0"),
    pytest.param(lambda: _spec(period=16.0), "T", id="SweepSpec-period-16.0"),
    pytest.param(lambda: normal_array(8, [1.5]), "seed", id="normal_array-seed-1.5"),
    pytest.param(lambda: check_grid(period=4, modules=1.5), "M", id="check_grid-modules-1.5"),
    pytest.param(lambda: classical_coeffs(4, 1.5), "M", id="classical_coeffs-modules-1.5"),
    pytest.param(lambda: assemble_system(sh_kernel(4), 64, 1.5, Passband(7)), "M",
                 id="assemble_system-modules-1.5"),
    pytest.param(lambda: assemble_system(sh_kernel(4), 64.0, 1, Passband(7)), "N",
                 id="assemble_system-n-64.0"),
    pytest.param(lambda: sample_array(np.ones(8), 2.0), "T", id="sample_array-period-2.0"),
    pytest.param(lambda: max_modules(4.0), "T", id="max_modules-4.0"),
    pytest.param(lambda: max_passband(64, 4.0), "T", id="max_passband-period-4.0"),
    pytest.param(lambda: max_passband(64.0, 4), "N", id="max_passband-n-64.0"),
    pytest.param(lambda: comb_coeffs(4.0), "T", id="comb_coeffs-4.0"),
    pytest.param(lambda: sh_kernel(4.0), "T", id="sh_kernel-4.0"),
    pytest.param(lambda: li_kernel(4.0), "T", id="li_kernel-4.0"),
    pytest.param(lambda: nth_order_hold(2, 4.0), "T", id="nth_order_hold-period-4.0"),
    pytest.param(lambda: nth_order_hold(2.5, 4), "order", id="nth_order_hold-order-2.5"),
    pytest.param(lambda: InterpKernel(np.ones(4), 0, 4.0, "x"), "T", id="InterpKernel-period-4.0"),
    pytest.param(lambda: InterpKernel(np.ones(4), 0.5, 4, "x"), "origin",
                 id="InterpKernel-origin-0.5"),
    pytest.param(lambda: kernel_from_id("sh", 16.0), "T", id="kernel_from_id-period-16.0"),
])
def test_validation_errors_name_their_field(call, field):
    with pytest.raises(FieldError) as info:
        call()
    assert info.value.field == field



def _custom_kernel_with_origin(tmp_dir, origin):
    path = tmp_dir / "taps.txt"
    path.write_text(f"1 1 1 1\norigin={origin!r}\n")
    return kernel_from_id(f"custom:{path}", 4)


def _grid_calls(period, modules, order, origin, tmp_dir):
    """Every grid entry point as (name, call, field, good): `call(v)` passes v
    as one integer argument, `good` is a valid value of it and the others are
    valid at `period`. A bad value must raise `FieldError` on `field`."""
    n, some = 8 * period, max(modules, 1)
    return [
        ("check_grid N", lambda v: check_grid(v), "N", n),
        ("check_grid T", lambda v: check_grid(n, v), "T", period),
        ("check_grid M", lambda v: check_grid(period=period, modules=v), "M", modules),
        ("max_modules", max_modules, "T", period),
        ("max_passband N", lambda v: max_passband(v, period), "N", n),
        ("max_passband T", lambda v: max_passband(n, v), "T", period),
        ("classical_coeffs T", lambda v: classical_coeffs(v, modules), "T", period),
        ("classical_coeffs M", lambda v: classical_coeffs(period, v), "M", modules),
        ("comb_coeffs", comb_coeffs, "T", period),
        ("ModuleCoeffs", lambda v: ModuleCoeffs(v, (0.5,) * modules), "T", period),
        ("sample_array", lambda v: sample_array(np.arange(float(n)), v), "T", period),
        ("InterpKernel origin", lambda v: InterpKernel(np.ones(period), v, period, "x"),
         "origin", origin),
        ("InterpKernel T", lambda v: InterpKernel(np.ones(period), origin, v, "x"), "T", period),
        ("sh_kernel", sh_kernel, "T", period),
        ("li_kernel", li_kernel, "T", period),
        ("nth_order_hold order", lambda v: nth_order_hold(v, period), "order", order),
        ("nth_order_hold T", lambda v: nth_order_hold(order, v), "T", period),
        ("kernel_from_id T", lambda v: kernel_from_id("li", v), "T", period),
        # a hold order or origin inside a kernel id is text: refused on the id
        ("kernel_from_id order", lambda v: kernel_from_id(f"hold:{v!r}", period),
         "kernel_id", None),
        ("kernel_from_id origin", lambda v: _custom_kernel_with_origin(tmp_dir, v),
         "kernel_id", None),
        ("assemble_system N", lambda v: assemble_system(sh_kernel(period), v, some, Passband(0)),
         "N", n),
        ("assemble_system M", lambda v: assemble_system(sh_kernel(period), n, v, Passband(0)),
         "M", some),
    ]


def _same(a, b):
    """True when two entry-point results are equal bit for bit, down to the
    type of every field (an np.int64 period is not the int one)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


_NON_INTEGERS = st.one_of(
    st.floats(),
    st.floats(-1e3, 1e3).map(np.float64),
    st.integers(-20, 20).map(float),  # integral floats are refused too, never truncated
)


class TestGridValuesAreIntegers:
    """N, T, M, a kernel origin and a hold order are integers at every entry point."""

    @settings(deadline=None, max_examples=60)
    @given(period=st.integers(1, 8), data=st.data(), value=_NON_INTEGERS)
    def test_non_integers_raise_field_error(self, tmp_path_factory, period, data, value):
        modules = data.draw(st.integers(0, period // 2))
        tmp_dir = tmp_path_factory.mktemp("grid")
        for name, call, field, _ in _grid_calls(period, modules, 2, 0, tmp_dir):
            with pytest.raises(FieldError) as info:
                call(value)
            assert info.value.field == field, name

    @settings(deadline=None, max_examples=30)
    @given(period=st.integers(2, 8), data=st.data())  # assemble_system needs a module
    def test_numpy_integers_match_plain_ints(self, tmp_path_factory, period, data):
        modules = data.draw(st.integers(0, period // 2))
        order = data.draw(st.integers(0, 4))
        origin = data.draw(st.integers(0, period - 1))
        for name, call, _, good in _grid_calls(period, modules, order, origin, None):
            if good is not None:
                assert _same(call(np.int64(good)), call(good)), name
