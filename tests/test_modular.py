import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holdfix.kernels import (
    InterpKernel,
    frequency_response,
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
    modulation_kernel,
    passband_gain,
    reconstruct,
    replica_matrix,
)
from holdfix.optimizer import assemble_system, solve_coefficients
from holdfix.signals import Passband, Signal, gen_bandlimited, ideal_lowpass, sample_train


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
    def test_empty_weights_give_ones(self):
        out = modulation_kernel(ModuleCoeffs(4, ()), 8)
        np.testing.assert_array_equal(out.samples, np.ones(8))

    def test_half_weight_pair(self):
        out = modulation_kernel(ModuleCoeffs(2, (0.5,)), 4)
        np.testing.assert_allclose(out.samples, [2, 0, 2, 0], atol=1e-15)

    def test_two_unit_weights(self):
        out = modulation_kernel(ModuleCoeffs(4, (1.0, 1.0)), 4)
        np.testing.assert_allclose(out.samples, [5, -1, 1, -1], atol=1e-14)

    def test_comb_kernel_is_scaled_impulse_train(self):
        for period in (2, 3, 4, 8, 16):
            out = modulation_kernel(comb_coeffs(period), 4 * period).samples
            expected = np.zeros(4 * period)
            expected[::period] = period
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_divisibility(self):
        with pytest.raises(ValueError):
            modulation_kernel(ModuleCoeffs(3, (1.0,)), 8)

    @settings(deadline=None, max_examples=30)
    @given(
        period=st.sampled_from([2, 4, 6, 8]),
        weights=st.lists(st.floats(-3, 3), min_size=0, max_size=2),
        reps=st.integers(2, 4),
    )
    def test_periodic_and_unit_mean(self, period, weights, reps):
        coeffs = ModuleCoeffs(period, tuple(weights[: period // 2]))
        out = modulation_kernel(coeffs, reps * period).samples
        np.testing.assert_array_equal(out[:period], out[period : 2 * period])
        assert np.mean(out[:period]) == pytest.approx(1.0, abs=1e-12)


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


class TestFrequencyTimeEquivalence:
    @pytest.mark.parametrize("kernel_id, period", [("sh", 4), ("li", 4), ("hold:2", 8)])
    def test_time_domain_matches_gain_synthesis(self, kernel_id, period):
        n = 32 * period
        kernel = kernel_from_id(kernel_id, period)
        band = Passband(n // (2 * period) - 1)
        k_max = band.half_width_bins
        rng = np.random.default_rng(21)
        weights = tuple(rng.uniform(-1, 1, size=max_modules(period)))
        coeffs = ModuleCoeffs(period, weights)

        x = gen_bandlimited(n, band, 1.0, 5)
        held = interpolate(sample_train(x, period), kernel)
        time_domain = reconstruct(held, coeffs, band)

        gain = passband_gain(kernel, coeffs, n, band)
        spectrum = np.zeros(n, dtype=complex)
        x_spec = np.fft.fft(x.samples)
        for i, k in enumerate(range(-k_max, k_max + 1)):
            spectrum[k % n] = gain[i] * x_spec[k % n]
        freq_domain = np.fft.ifft(spectrum).real

        rel = np.linalg.norm(time_domain.samples - freq_domain) / np.linalg.norm(
            freq_domain
        )
        assert rel < 1e-9


def loop_replicas(kernel, n, bins):
    """Oracle: the normalized response and the folded replica pairs, built one
    module at a time as the optimizer and passband_gain once did."""
    normalized = frequency_response(kernel, n) / kernel.period
    shift = n // kernel.period
    pairs = np.empty((bins.size, max_modules(kernel.period)), dtype=complex)
    for j in range(1, pairs.shape[1] + 1):
        pairs[:, j - 1] = normalized[(bins - j * shift) % n] + normalized[(bins + j * shift) % n]
    return normalized, pairs


def negative_tap_kernel(period):
    taps = np.concatenate([[-0.25], np.ones(period), [0.25]])
    return InterpKernel(taps, 1, period, "custom:negative-tap")


@st.composite
def replica_cases(draw):
    period = draw(st.sampled_from([2, 3, 4, 8, 16, 32]))
    kernel_id = draw(st.sampled_from(["sh", "li", "hold:2", "custom"]))
    kernel = (negative_tap_kernel(period) if kernel_id == "custom"
              else kernel_from_id(kernel_id, period))
    n = period * draw(st.integers(-(-kernel.taps.size // period), 12))
    modules = draw(st.integers(0, max_modules(period)))
    k_max = draw(st.integers(0, n // 2))
    weights = draw(st.lists(st.floats(-5, 5), min_size=modules, max_size=modules))
    return kernel, n, modules, Passband(k_max), weights


class TestReplicaMatrixMatchesLoop:
    @settings(deadline=None, max_examples=150)
    @given(case=replica_cases(), k=st.integers(-10**6, 10**6))
    def test_gain_system_and_response_match_loop(self, case, k):
        kernel, n, modules, band, weights = case
        k_max = band.half_width_bins
        normalized, pairs = loop_replicas(kernel, n, np.arange(-k_max, k_max + 1))

        gain = normalized[np.arange(-k_max, k_max + 1) % n].astype(complex)
        for j, weight in enumerate(weights, start=1):
            gain += weight * pairs[:, j - 1]
        got = passband_gain(kernel, ModuleCoeffs(kernel.period, weights), n, band)
        bound = 1e-13 * (1.0 + sum(abs(w) for w in weights))
        assert np.max(np.abs(got - gain)) <= bound

        if modules >= 1:
            system = assemble_system(kernel, n, modules, band)
            rows = pairs[k_max:, :modules]  # bins 0..K
            deficit = 1.0 - normalized[np.arange(k_max + 1)]
            assert np.array_equal(system.matrix, np.vstack([rows.real, rows.imag]))
            assert np.array_equal(system.target, np.concatenate([deficit.real, deficit.imag]))

        # any bin, inside the passband or not, negative or beyond N
        _, pairs_at_k = loop_replicas(kernel, n, np.array([k]))
        for j in range(1, max_modules(kernel.period) + 1):
            _, entry = replica_matrix(kernel, n, np.array([k]), j)
            assert entry[0, j - 1] == pairs_at_k[0, j - 1]
