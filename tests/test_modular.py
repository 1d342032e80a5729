import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holdfix.kernels import (
    InterpKernel,
    interpolate,
    kernel_from_id,
    li_kernel,
    sh_kernel,
)
from holdfix.modular import (
    ModuleCoeffs,
    classical_coeffs,
    comb_coeffs,
    error_metric,
    max_modules,
    module_bank,
    passband_gain,
    reconstruct,
    replica_system,
)
from holdfix.optimizer import assemble_system, load_coeffs, solve_coefficients, store_coeffs
from holdfix.signals import (
    FieldError,
    Passband,
    Signal,
    gen_bandlimited,
    ideal_lowpass,
    max_passband,
    sample_train,
)

from replica_oracle import loop_replicas, loop_system


class TestMaxModules:
    @pytest.mark.parametrize("period, cap", [(1, 0), (2, 1), (3, 1), (4, 2), (16, 8)])
    def test_values(self, period, cap):
        assert max_modules(period) == cap

    def test_bad_period(self):
        with pytest.raises(ValueError):
            max_modules(0)


class TestCoeffs:
    def test_classical(self):
        assert classical_coeffs(16, 3).c == (1.0, 1.0, 1.0)
        assert classical_coeffs(16, 0).c == ()

    def test_classical_cap_violation(self):
        with pytest.raises(ValueError, match="maximum 2"):
            classical_coeffs(4, 3)

    def test_constructor_cap(self):
        with pytest.raises(ValueError):
            ModuleCoeffs(4, (1.0, 1.0, 1.0))

    def test_nonfinite_weights(self):
        with pytest.raises(ValueError):
            ModuleCoeffs(8, (1.0, float("nan")))

    @pytest.mark.parametrize(
        "period, expected",
        [(2, (0.5,)), (4, (1.0, 0.5)), (3, (1.0,)), (16, (1.0,) * 7 + (0.5,)), (1, ())],
    )
    def test_comb(self, period, expected):
        assert comb_coeffs(period).c == expected


class TestModulationKernel:
    """The periodic modulation kernel m[t]; `module_bank` gives one period."""

    def test_empty_weights_give_ones(self):
        out = module_bank(ModuleCoeffs(4, ()))
        np.testing.assert_array_equal(out, np.ones(4))

    def test_half_weight_pair(self):
        out = module_bank(ModuleCoeffs(2, (0.5,)))
        np.testing.assert_allclose(out, [2, 0], atol=1e-15)

    def test_two_unit_weights(self):
        out = module_bank(ModuleCoeffs(4, (1.0, 1.0)))
        np.testing.assert_allclose(out, [5, -1, 1, -1], atol=1e-14)

    def test_comb_kernel_is_scaled_impulse_train(self):
        for period in (2, 3, 4, 8, 16):
            expected = np.zeros(period)
            expected[0] = period
            np.testing.assert_allclose(module_bank(comb_coeffs(period)), expected, atol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(
        period=st.sampled_from([2, 4, 6, 8]),
        weights=st.lists(st.floats(-3, 3), min_size=0, max_size=2),
    )
    def test_unit_mean(self, period, weights):
        coeffs = ModuleCoeffs(period, tuple(weights[: period // 2]))
        assert np.mean(module_bank(coeffs)) == pytest.approx(1.0, abs=1e-12)


class TestReconstruct:
    @pytest.mark.parametrize("make", [sh_kernel, li_kernel])
    @pytest.mark.parametrize("period", [2, 3, 4, 8, 16])
    def test_comb_recovers_bandlimited_exactly(self, make, period):
        n = 64 * period
        band = Passband(n // (2 * period) - 1)
        x = gen_bandlimited(n, band, 1.0, 7)
        held = interpolate(sample_train(x, period), make(period))
        out = reconstruct(held, comb_coeffs(period), band)
        rel = np.linalg.norm(out.samples - x.samples) / np.linalg.norm(x.samples)
        assert rel < 1e-9

    def test_no_modules_is_plain_lowpass(self):
        x = gen_bandlimited(64, Passband(20), 1.0, 3)
        band = Passband(7)
        out = reconstruct(x, ModuleCoeffs(4, ()), band)
        np.testing.assert_allclose(
            out.samples, ideal_lowpass(x, band).samples, atol=1e-14
        )

    def test_linear(self):
        rng = np.random.default_rng(8)
        s1, s2 = Signal(rng.normal(size=32)), Signal(rng.normal(size=32))
        coeffs = comb_coeffs(4)
        band = Passband(3)
        mixed = reconstruct(Signal(2.0 * s1.samples - 0.5 * s2.samples), coeffs, band)
        combo = (
            2.0 * reconstruct(s1, coeffs, band).samples
            - 0.5 * reconstruct(s2, coeffs, band).samples
        )
        np.testing.assert_allclose(mixed.samples, combo, atol=1e-12)


class TestPassbandGain:
    def test_sh2_comb_is_unity(self):
        gain = passband_gain(sh_kernel(2), comb_coeffs(2), 64, Passband(15))
        np.testing.assert_allclose(gain, np.ones(31), atol=1e-13)

    def test_no_modules_dc(self):
        gain = passband_gain(sh_kernel(6), ModuleCoeffs(6, ()), 48, Passband(0))
        assert gain.shape == (1,)
        assert gain[0] == pytest.approx(1.0, abs=1e-13)

    def test_sh4_classical_dc(self):
        gain = passband_gain(sh_kernel(4), classical_coeffs(4, 2), 64, Passband(0))
        assert gain[0] == pytest.approx(1.0, abs=1e-13)

    def test_shape_and_symmetry(self):
        k_max = 7
        gain = passband_gain(sh_kernel(4), classical_coeffs(4, 1), 64, Passband(k_max))
        assert gain.shape == (2 * k_max + 1,)
        # real taps make G(-k) the conjugate of G(k)
        np.testing.assert_allclose(gain[:k_max], np.conj(gain[:k_max:-1]), atol=1e-13)

    def test_period_mismatch(self):
        with pytest.raises(ValueError):
            passband_gain(sh_kernel(4), comb_coeffs(2), 64, Passband(7))


class TestErrorMetric:
    @pytest.mark.parametrize("kernel_id", ["sh", "li"])
    @pytest.mark.parametrize("period", [2, 3, 4, 8, 16])
    def test_comb_exactness(self, kernel_id, period):
        kernel = kernel_from_id(kernel_id, period)
        n = 64 * period
        band = Passband(n // (2 * period) - 1)
        assert error_metric(kernel, comb_coeffs(period), n, band) < 1e-20

    def test_identity_interpolator(self):
        assert error_metric(sh_kernel(1), ModuleCoeffs(1, ()), 32, Passband(10)) == 0.0

    def test_optimized_beats_classical_beats_nothing(self):
        kernel = sh_kernel(4)
        band = Passband(7)
        e_classical = error_metric(kernel, classical_coeffs(4, 1), 64, band)
        opt1 = solve_coefficients(assemble_system(kernel, 64, 1, band)).coeffs
        opt2 = solve_coefficients(assemble_system(kernel, 64, 2, band)).coeffs
        e_opt1 = error_metric(kernel, opt1, 64, band)
        e_opt2 = error_metric(kernel, opt2, 64, band)
        assert e_classical > e_opt1 > e_opt2
        assert e_opt2 < 1e-20
        # 1-D grid scan oracle: no single weight does better than the solve
        scan = min(
            error_metric(kernel, ModuleCoeffs(4, (float(c),)), 64, band)
            for c in np.arange(0.0, 2.0001, 1e-3)
        )
        assert e_opt1 <= scan + 1e-12


class TestAliasingCap:
    @pytest.mark.parametrize("period", [4, 8])
    def test_module_past_half_period_aliases(self, period):
        n = np.arange(4 * period)
        for j in (1, 2, 3):
            lhs = np.cos(2 * (j + period / 2) * np.pi * n / period)
            rhs = (-1.0) ** n * np.cos(2 * j * np.pi * n / period)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def _diagonal_example(kernel_id, period):
    """A band-limited input on the widest passband, with seeded weights in [-1, 1]."""
    n = 32 * period
    band = Passband(max_passband(n, period))
    weights = np.random.default_rng(21).uniform(-1, 1, size=max_modules(period))
    x = gen_bandlimited(n, band, 1.0, 5).samples
    return kernel_from_id(kernel_id, period), n, band, tuple(weights), x


@st.composite
def diagonal_cases(draw):
    """Built-in or custom kernels, any weights in [-3, 3] and full-band inputs."""
    period = draw(st.integers(1, 16))
    kernel_id = draw(st.sampled_from(["sh", "li", "hold:2", "hold:3", "custom"]))
    if kernel_id == "custom":
        size = draw(st.integers(1, 3 * period + 1))
        raw = np.array(draw(st.lists(st.floats(-2, 2), min_size=size, max_size=size)))
        if abs(raw.sum()) < 0.25:  # keep the scaled taps' absolute sum modest
            raw[draw(st.integers(0, size - 1))] += 1.0
        origin = draw(st.integers(0, size - 1))
        kernel = InterpKernel(raw * (period / raw.sum()), origin, period, "custom:random")
    else:
        kernel = kernel_from_id(kernel_id, period)
    n = period * draw(st.integers(max(2, -(-kernel.taps.size // period)), 32))
    band = Passband(draw(st.integers(0, max_passband(n, period))))
    weights = draw(st.lists(st.floats(-3, 3), max_size=max_modules(period)))
    # samples 0 or 1e-3..1 in size, so no product of the pipeline is subnormal
    sample = st.just(0.0) | st.floats(1e-3, 1) | st.floats(-1, -1e-3)
    x = 10.0 ** draw(st.floats(-3, 3)) * draw(arrays(float, n, elements=sample))
    return kernel, n, band, tuple(weights), x


def check_gain_synthesis(case):
    """FFT(reconstruct(interpolate(train))) = T G(k) FFT(train) on bins -K..K, and 0
    elsewhere, for any input x, band-limited or not.

    Why: DFT(interpolate(train)) = H(k) DFT(train), and DFT(train) repeats every
    N/T bins, so the module bank, which adds copies shifted by +-jN/T weighted
    by c_j, turns bin k into sum_{j=-M..M} c_|j| H(k - jN/T) DFT(train)(k) =
    T G(k) DFT(train)(k) (c_0 = 1); the lowpass then keeps bins -K..K.

    Tolerance: a bin of a DFT is at most the l1 norm of its signal, and
    `interpolate` grows the l1 norm by at most ||taps||_1, the bank by at most
    max|bank| <= 1 + 2 sum|c_j|; likewise |T G(k)| <= ||taps||_1 (1 + 2 sum|c_j|)
    and |FFT(train)(k)| <= ||train||_1. So every bin on either side is at most
    B = ||taps||_1 (1 + 2 sum|c_j|) ||train||_1. Each stage rounds at about eps
    of the magnitudes it sums, and the FFTs (the kernel response behind G, the
    lowpass's rfft and irfft, the FFT here) do so over log2(N) butterfly
    levels, so the error per bin is of order C eps log2(N) B. This is a
    rounding model, not a worst-case bound. Over the grids drawn here the
    largest error found, by hypothesis targeting and by single-sample inputs
    on every (T, N, K), is 0.95 of the bound at C = 1 (T = 1, a bare lowpass),
    so C = 2. N keeps prime factors <= 31: at a large prime N the FFT switches
    to Bluestein's algorithm and the error grows past log2(N) (4.7 at N = 193).
    """
    kernel, n, band, weights, x = case
    period, k_max = kernel.period, band.half_width_bins
    coeffs = ModuleCoeffs(period, weights)
    train = sample_train(Signal(x), period)
    restored = reconstruct(interpolate(train, kernel), coeffs, band)

    bins = np.arange(-k_max, k_max + 1) % n
    expected = np.zeros(n, dtype=complex)
    gain = passband_gain(kernel, coeffs, n, band)
    expected[bins] = period * gain * np.fft.fft(train.samples)[bins]
    error = np.max(np.abs(np.fft.fft(restored.samples) - expected))
    spread = 1.0 + 2.0 * sum(abs(w) for w in weights)
    mass = np.abs(kernel.taps).sum() * spread * np.abs(train.samples).sum()
    assert error <= 2.0 * np.finfo(float).eps * np.log2(n) * mass


class TestFrequencyTimeEquivalence:
    @pytest.mark.parametrize("kernel_id, period", [("sh", 4), ("li", 4), ("hold:2", 8)])
    def test_time_domain_matches_gain_synthesis(self, kernel_id, period):
        check_gain_synthesis(_diagonal_example(kernel_id, period))

    @settings(deadline=None, max_examples=200)
    @given(case=diagonal_cases())
    def test_time_domain_matches_gain_synthesis_for_any_input(self, case):
        check_gain_synthesis(case)


def negative_tap_kernel(period):
    taps = np.concatenate([[-0.25], np.ones(period), [0.25]])
    return InterpKernel(taps, 1, period, "custom:negative-tap")


@st.composite
def replica_cases(draw):
    period = draw(st.sampled_from([2, 3, 4, 8, 16, 32]))
    kernel_id = draw(st.sampled_from(["sh", "li", "hold:2", "custom"]))
    kernel = (negative_tap_kernel(period) if kernel_id == "custom"
              else kernel_from_id(kernel_id, period))
    n = period * draw(st.integers(max(2, -(-kernel.taps.size // period)), 12))
    modules = draw(st.integers(0, max_modules(period)))
    k_max = draw(st.integers(0, max_passband(n, period)))
    weights = draw(st.lists(st.floats(-5, 5), min_size=modules, max_size=modules))
    # a band from the sampling Nyquist bin up to N/2, which every entry point refuses
    refused = Passband(draw(st.integers(max_passband(n, period) + 1, n // 2)))
    return kernel, n, modules, Passband(k_max), weights, refused


def assert_refused(call):
    with pytest.raises(FieldError) as info:
        call()
    assert info.value.field == "K"


class TestReplicaMatrixMatchesLoop:
    @settings(deadline=None, max_examples=150)
    @given(case=replica_cases())
    def test_gain_system_and_response_match_loop(self, case):
        kernel, n, modules, band, weights, refused = case
        k_max = band.half_width_bins
        gain, pairs = loop_replicas(kernel, n, np.arange(-k_max, k_max + 1))
        for j, weight in enumerate(weights, start=1):
            gain += weight * pairs[:, j - 1]
        got = passband_gain(kernel, ModuleCoeffs(kernel.period, weights), n, band)
        bound = 1e-13 * (1.0 + sum(abs(w) for w in weights))
        assert np.max(np.abs(got - gain)) <= bound

        if modules >= 1:
            system = assemble_system(kernel, n, modules, band)
            matrix, target = loop_system(kernel, n, k_max, modules)
            assert np.array_equal(system.matrix, matrix)
            assert np.array_equal(system.target, target)
            assert_refused(lambda: assemble_system(kernel, n, modules, refused))
        coeffs = ModuleCoeffs(kernel.period, weights)
        assert_refused(lambda: passband_gain(kernel, coeffs, n, refused))
        assert_refused(lambda: replica_system(kernel, n, refused))


class TestOneReplicaSystem:
    """The gain, the metric and the solver read one gather, so they agree exactly."""

    @settings(deadline=None, max_examples=100)
    @given(case=replica_cases())
    def test_symmetric_gain_and_stored_residual_is_metric(self, case):
        kernel, n, modules, band, weights, refused = case
        coeffs = ModuleCoeffs(kernel.period, weights)
        gain = passband_gain(kernel, coeffs, n, band)
        assert np.array_equal(gain, np.conj(gain[::-1]))
        assert_refused(lambda: error_metric(kernel, coeffs, n, refused))
        if modules >= 1:
            solution = solve_coefficients(assemble_system(kernel, n, modules, band))
            assert solution.residual == error_metric(kernel, solution.coeffs, n, band)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "coeffs.json"
                store_coeffs(solution, path)
                loaded = load_coeffs(path)
            assert error_metric(kernel, loaded.coeffs, n, band) == loaded.residual

    @pytest.mark.parametrize("k_max", [0, 1])
    def test_self_conjugate_rows_are_exactly_real(self, k_max):
        # the FFT of hold:2 at T = 2, N = 10 leaves about 1e-17 of imaginary
        # rounding on bin 0, which real taps make exactly real
        kernel, band = kernel_from_id("hold:2", 2), Passband(k_max)
        pairs, deficit = replica_system(kernel, 10, band)
        assert not pairs[k_max + 1].any() and not deficit[k_max + 1]  # Im of bin 0
        gain = passband_gain(kernel, ModuleCoeffs(2, (0.7,)), 10, band)
        assert gain[k_max].imag == 0.0
        # bin N/2 = 5, the other self-conjugate bin, lies past the sampling Nyquist bin 2
        assert_refused(lambda: replica_system(kernel, 10, Passband(5)))
