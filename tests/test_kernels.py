import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holdfix.kernels import (
    InterpKernel,
    custom_kernel,
    frequency_response,
    interpolate,
    interpolate_array,
    kernel_from_id,
    li_kernel,
    nth_order_hold,
    sh_kernel,
)
from holdfix.signals import Passband, Signal, gen_bandlimited, sample_array, sample_train


def dft_naive(x):
    """O(N^2) direct-sum DFT, independent of np.fft."""
    n = len(x)
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * kk * k / n)) for kk in k])


def roll_oracle(train, kernel):
    """Tap-by-tap circular convolution: one full-length np.roll per nonzero tap."""
    out = np.zeros(train.shape)
    for m, tap in enumerate(kernel.taps):
        if tap != 0.0:
            out += tap * np.roll(train, m - kernel.origin, axis=-1)
    return out


def scaled_kernel(raw, origin, period):
    """InterpKernel with the zero pattern and signs of `raw`, scaled to sum `period`."""
    raw = np.asarray(raw, dtype=float)
    return InterpKernel(raw * (period / raw.sum()), origin, period, "custom:test")


@st.composite
def kernels(draw, period):
    """Built-in kernels, or custom taps with zeros, negatives and any origin."""
    builtin = draw(st.sampled_from(["sh", "li", "hold:0", "hold:1", "hold:2", "hold:3", None]))
    if builtin is not None:
        return kernel_from_id(builtin, period)
    size = draw(st.integers(1, 3 * period + 1))
    tap = st.sampled_from([0.0, -1.0]) | st.floats(-2, 2, allow_subnormal=False)
    raw = np.array(draw(st.lists(tap, min_size=size, max_size=size)))
    if abs(raw.sum()) < 0.25:
        raw[draw(st.integers(0, size - 1))] += 1.0
    origin = draw(st.sampled_from([0, size - 1]) | st.integers(0, size - 1))
    return scaled_kernel(raw, origin, period)


@st.composite
def interpolate_cases(draw):
    """(kernel, signals, phase per row): N = blocks * T >= taps, 1-D or (rows, N)."""
    period = draw(st.sampled_from([1, 2, 3, 4, 8, 16, 32]))
    kernel = draw(kernels(period))
    blocks = max(draw(st.integers(1, 6)), -(-kernel.taps.size // period))
    rows = draw(st.sampled_from([None, 1, 2, 3]))
    shape = (blocks * period,) if rows is None else (rows, blocks * period)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    x[rng.random(shape) < 0.1] = 0.0
    phases = draw(st.lists(st.integers(0, period - 1), min_size=rows or 1, max_size=rows or 1))
    return kernel, x, phases


class TestPolyphaseMatchesOracle:
    """interpolate_array equals the tap-by-tap np.roll loop."""

    @settings(deadline=None, max_examples=150)
    @given(case=interpolate_cases())
    @example(case=(li_kernel(32), np.arange(1.0, 193.0).reshape(3, 64), [0, 5, 31]))
    def test_trains_bit_identical(self, case):
        kernel, x, phases = case
        train = sample_array(x, kernel.period)
        assert np.array_equal(interpolate_array(train, kernel), roll_oracle(train, kernel))
        # each row's train moved to its own phase: one live phase per row,
        # several across the batch
        rows = train.reshape(len(phases), -1)
        moved = np.stack([np.roll(row, p) for row, p in zip(rows, phases)]).reshape(x.shape)
        assert np.array_equal(interpolate_array(moved, kernel), roll_oracle(moved, kernel))

    @settings(deadline=None, max_examples=100)
    @given(case=interpolate_cases())
    def test_full_phase_inputs_agree_to_rounding(self, case):
        # all phases live: the same sum in another order, so a tolerance set
        # from float64 rounding (at most ~100 terms), not bit equality
        kernel, x, _ = case
        out = interpolate_array(x, kernel)
        expected = roll_oracle(x, kernel)
        scale = np.abs(kernel.taps).sum() * np.abs(x).max(initial=0.0)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("period", [1, 2, 3, 4, 8, 16, 32])
    @pytest.mark.parametrize(
        "raw, origin",
        [
            ([0.0, 2.0, -1.0, 0.0, 3.0], 0),  # zero first and last taps, origin first
            ([0.0, 2.0, -1.0, 0.0, 3.0], 4),  # origin on the last (zero) tap
            ([1.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.5, 2.0], 4),  # run of zeros past T
        ],
    )
    def test_custom_kernels_on_trains(self, period, raw, origin):
        kernel = scaled_kernel(raw, origin, period)
        n = period * max(4, -(-len(raw) // period))
        train = sample_array(np.random.default_rng(period).standard_normal((2, n)), period)
        assert np.array_equal(interpolate_array(train, kernel), roll_oracle(train, kernel))
        assert np.array_equal(interpolate_array(train[0], kernel), roll_oracle(train[0], kernel))


class TestPolyphaseEdges:
    def test_kernel_as_long_as_signal(self):
        # taps.size == N: the kernel wraps all the way round the circle
        rng = np.random.default_rng(5)
        for period, n, origin in [(4, 8, 3), (4, 8, 0), (4, 8, 7), (3, 12, 6), (1, 5, 2)]:
            kernel = scaled_kernel(rng.uniform(0.1, 1.0, n), origin, period)
            train = sample_array(rng.standard_normal((2, n)), period)
            assert np.array_equal(interpolate_array(train, kernel), roll_oracle(train, kernel))
            x = rng.standard_normal(n)
            np.testing.assert_allclose(interpolate_array(x, kernel), roll_oracle(x, kernel),
                                       rtol=1e-12, atol=1e-12 * np.abs(x).sum())

    @pytest.mark.parametrize("kernel_id", ["sh", "li", "hold:2"])
    def test_period_one_every_phase_live(self, kernel_id):
        # T=1 has a single phase, so even a dense input is bit-identical
        kernel = kernel_from_id(kernel_id, 1)
        x = np.random.default_rng(1).standard_normal((3, 16))
        assert np.array_equal(interpolate_array(x, kernel), roll_oracle(x, kernel))
        assert np.array_equal(interpolate(Signal(x[0]), kernel).samples, roll_oracle(x[0], kernel))

    @pytest.mark.parametrize("zero_phase", [0, 1])
    @pytest.mark.parametrize("kernel_id", ["sh", "li", "hold:2", "hold:3"])
    def test_one_exactly_zero_phase(self, kernel_id, zero_phase):
        kernel = kernel_from_id(kernel_id, 2)
        x = np.random.default_rng(2).standard_normal((2, 32))
        x[..., zero_phase::2] = 0.0
        assert np.array_equal(interpolate_array(x, kernel), roll_oracle(x, kernel))


class TestKernelType:
    def test_taps_sum_must_match_period(self):
        with pytest.raises(ValueError):
            InterpKernel([1.0, 1.0], 0, 3, "bad")

    def test_origin_bounds(self):
        with pytest.raises(ValueError):
            InterpKernel([1.0, 1.0], 2, 2, "bad")
        with pytest.raises(ValueError):
            InterpKernel([1.0, 1.0], -1, 2, "bad")

    def test_nonfinite_taps(self):
        with pytest.raises(ValueError):
            InterpKernel([np.nan, 2.0], 0, 2, "bad")

    def test_empty_taps(self):
        with pytest.raises(ValueError):
            InterpKernel([], 0, 1, "bad")

    def test_tap_spread_up_to_the_rounding_bound_is_accepted(self):
        # the bound at T = 16 is 1e-9 * 16 / eps = 7.2e7; these taps spread 7.2e7 + 16
        kernel = InterpKernel([3.6e7, -3.6e7, 16.0], 0, 16, "custom:spread")
        assert kernel.taps.sum() == 16.0

    @pytest.mark.parametrize("taps", [[1e300, -1e300, 16.0], [1e308, -1e308, 16.0],
                                      [3.7e7, -3.7e7, 16.0], [np.inf, 16.0]])
    def test_tap_spread_past_the_rounding_bound_is_refused(self, taps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="absolute sum is not finite or exceeds 7.21e"):
                InterpKernel(taps, 0, 16, "custom:huge")


class TestBuiltins:
    @pytest.mark.parametrize("period", [1, 2, 3, 5, 16])
    def test_sh(self, period):
        k = sh_kernel(period)
        np.testing.assert_array_equal(k.taps, np.ones(period))
        assert k.origin == 0 and k.id == "sh"

    def test_li_small(self):
        k = li_kernel(2)
        np.testing.assert_allclose(k.taps, [0.5, 1.0, 0.5])
        assert k.origin == 1
        k1 = li_kernel(1)
        np.testing.assert_allclose(k1.taps, [1.0])
        assert k1.origin == 0

    @pytest.mark.parametrize("period", [2, 3, 4, 8])
    def test_li_geometry(self, period):
        k = li_kernel(period)
        assert k.taps.size == 2 * period - 1
        assert k.taps[k.origin] == 1.0
        np.testing.assert_allclose(k.taps, k.taps[::-1])

    def test_hold_zero_equals_sh(self):
        hold = nth_order_hold(0, 5)
        sh = sh_kernel(5)
        np.testing.assert_array_equal(hold.taps, sh.taps)
        assert hold.origin == sh.origin
        assert hold.id == "hold:0"

    def test_hold_one_is_triangle(self):
        k = nth_order_hold(1, 2)
        np.testing.assert_allclose(k.taps, [0.5, 1.0, 0.5])
        assert k.taps.sum() == pytest.approx(2.0)

    def test_hold_two(self):
        k = nth_order_hold(2, 2)
        np.testing.assert_allclose(k.taps, [0.25, 0.75, 0.75, 0.25])
        assert k.taps.sum() == pytest.approx(2.0)

    def test_bad_order(self):
        with pytest.raises(ValueError, match=r"^hold order must be >= 0, got -1$"):
            nth_order_hold(-1, 4)

    def test_sh_and_li_are_the_order_zero_and_one_holds(self):
        for period in range(1, 65):
            for kernel, order in ((sh_kernel(period), 0), (li_kernel(period), 1)):
                hold = nth_order_hold(order, period)
                assert np.array_equal(kernel.taps, hold.taps) and kernel.origin == hold.origin
            assert np.array_equal(sh_kernel(period).taps, np.ones(period))
            # li taps are the correctly rounded k/T; 1 - |j|/T, which cancels in
            # its small edge taps, is within eps/2 of them
            lag = np.abs(np.arange(2 * period - 1) - (period - 1))
            taps = li_kernel(period).taps
            assert np.array_equal(taps, (period - lag) / period)
            assert np.all(np.abs(taps - (1.0 - lag / period)) <= np.finfo(float).eps / 2)
            if period & (period - 1) == 0:  # exact at every power-of-two period
                assert np.array_equal(taps, 1.0 - lag / period)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("period", [2, 4, 8, 16, 32, 64])
    def test_hold_taps_match_one_final_normalization(self, order, period):
        # normalizing by T at each convolution is exact at power-of-two periods
        taps = np.ones(period)
        for _ in range(order):
            taps = np.convolve(taps, np.ones(period))
        assert np.array_equal(nth_order_hold(order, period).taps, taps / float(period) ** order)

    def test_high_orders_do_not_overflow(self):
        kernel = nth_order_hold(300, 16)
        # 301 * 15 + 1 = 4516 taps before the 26 underflowed zeros at each edge
        assert kernel.taps.size == 4464 and kernel.origin == 2231
        assert np.all(np.isfinite(kernel.taps))
        assert kernel.taps[0] > 0 and kernel.taps[-1] > 0
        assert kernel.taps.sum() == pytest.approx(16.0, rel=1e-12)

    @pytest.mark.parametrize("kernel_id", ["sh", "li", "hold:0", "hold:2", "hold:3"])
    @pytest.mark.parametrize("period", [2, 4, 8])
    def test_taps_sum_to_period(self, kernel_id, period):
        k = kernel_from_id(kernel_id, period)
        assert k.taps.sum() == pytest.approx(period, rel=1e-12)


class TestKernelFromId:
    def test_grammar(self):
        assert kernel_from_id("sh", 4).id == "sh"
        assert kernel_from_id("li", 4).id == "li"
        assert kernel_from_id("hold:2", 4).id == "hold:2"

    def test_unknown(self):
        with pytest.raises(ValueError):
            kernel_from_id("sinc", 4)

    def test_bad_hold_order(self):
        with pytest.raises(ValueError):
            kernel_from_id("hold:x", 4)

    def test_custom_file(self, tmp_path):
        path = tmp_path / "taps.txt"
        path.write_text("0.5 1.0 0.5\norigin=1\n")
        k = kernel_from_id(f"custom:{path}", 2)
        np.testing.assert_allclose(k.taps, [0.5, 1.0, 0.5])
        assert k.origin == 1
        assert k.id == f"custom:{path}"

    def test_custom_missing_origin(self, tmp_path):
        path = tmp_path / "taps.txt"
        path.write_text("1.0 1.0\n")
        with pytest.raises(ValueError):
            custom_kernel(path, 2)

    def test_custom_wrong_sum(self, tmp_path):
        path = tmp_path / "taps.txt"
        path.write_text("1.0 1.0\norigin=0\n")
        with pytest.raises(ValueError):
            custom_kernel(path, 3)


class TestInterpolate:
    def test_sh_holds(self):
        out = interpolate(Signal([5, 0, 7, 0]), sh_kernel(2))
        np.testing.assert_allclose(out.samples, [5, 5, 7, 7])

    def test_li_midpoints_wrap(self):
        out = interpolate(Signal([5, 0, 7, 0]), li_kernel(2))
        np.testing.assert_allclose(out.samples, [5, 6, 7, 6])

    def test_identity(self):
        x = Signal([1.0, -2.0, 3.0, 4.0])
        out = interpolate(x, sh_kernel(1))
        np.testing.assert_allclose(out.samples, x.samples)

    def test_divisibility(self):
        message = re.escape("kernel period 4 does not divide length 10")
        with pytest.raises(ValueError, match=message):
            interpolate(Signal(np.ones(10)), sh_kernel(4))
        with pytest.raises(ValueError, match=message):
            interpolate_array(np.ones((3, 10)), sh_kernel(4))

    def test_taps_longer_than_signal(self):
        message = re.escape("kernel has 7 taps but the signal only 4 samples")
        with pytest.raises(ValueError, match=message):
            interpolate(Signal(np.ones(4)), li_kernel(4))
        with pytest.raises(ValueError, match=message):
            interpolate_array(np.ones((3, 4)), li_kernel(4))

    @settings(deadline=None, max_examples=30)
    @given(
        u=arrays(np.float64, 16, elements=st.floats(-100, 100, allow_nan=False)),
        v=arrays(np.float64, 16, elements=st.floats(-100, 100, allow_nan=False)),
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
    )
    def test_linear(self, u, v, a, b):
        kernel = li_kernel(4)
        mixed = interpolate(Signal(a * u + b * v), kernel)
        combo = a * interpolate(Signal(u), kernel).samples + b * interpolate(
            Signal(v), kernel
        ).samples
        np.testing.assert_allclose(mixed.samples, combo, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("make", [sh_kernel, li_kernel])
    @pytest.mark.parametrize("period", [2, 4, 8])
    def test_interpolating_at_sample_points(self, make, period):
        n = 8 * period
        x = gen_bandlimited(n, Passband(n // (2 * period) - 1), 1.0, 17)
        held = interpolate(sample_train(x, period), make(period))
        np.testing.assert_allclose(
            held.samples[::period], x.samples[::period], rtol=1e-12, atol=1e-12
        )


class TestFrequencyResponse:
    def test_unit_impulse(self):
        resp = frequency_response(sh_kernel(1), 8)
        np.testing.assert_allclose(resp, np.ones(8), atol=1e-14)

    def test_li2_four_point(self):
        resp = frequency_response(li_kernel(2), 4)
        np.testing.assert_allclose(resp, [2, 1, 0, 1], atol=1e-14)

    @pytest.mark.parametrize("kernel_id", ["sh", "li", "hold:2"])
    def test_matches_naive_dft(self, kernel_id):
        kernel = kernel_from_id(kernel_id, 4)
        n = 16
        aligned = np.zeros(n)
        aligned[(np.arange(kernel.taps.size) - kernel.origin) % n] = kernel.taps
        np.testing.assert_allclose(
            frequency_response(kernel, n), dft_naive(aligned), atol=1e-11
        )

    @pytest.mark.parametrize("period", [2, 4, 8])
    def test_sh_nulls_at_replica_bins(self, period):
        n = 16 * period
        resp = frequency_response(sh_kernel(period), n)
        for j in range(1, period):
            assert abs(resp[j * n // period]) < 1e-10

    @pytest.mark.parametrize("kernel_id", ["sh", "li", "hold:0", "hold:2"])
    def test_dc_equals_period(self, kernel_id):
        kernel = kernel_from_id(kernel_id, 6)
        assert frequency_response(kernel, 48)[0] == pytest.approx(6.0, rel=1e-12)

    def test_zero_phase_kernels_are_real(self):
        # li (any period) and odd-length holds with centred origin
        for kernel in (li_kernel(3), li_kernel(8), nth_order_hold(2, 3)):
            resp = frequency_response(kernel, 24)
            assert np.max(np.abs(resp.imag)) < 1e-12

    def test_taps_longer_than_n(self):
        with pytest.raises(ValueError):
            frequency_response(li_kernel(4), 4)
