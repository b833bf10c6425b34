"""Grids, spectral calculus, functionals, and the orbital semi-distance."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

import mchwave as mw
from mchwave import DomainError
from mchwave.evolve import seeded_perturbation
from mchwave.field import _orbit_distance

from conftest import augmented, inner_h1, lyapunov, random_smooth, semidistance


class TestGridAndField:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            mw.PeriodicGrid(-1.0, 64)
        with pytest.raises(DomainError):
            mw.PeriodicGrid(1.0, 15)
        with pytest.raises(DomainError):
            mw.PeriodicGrid(1.0, 33)  # odd

    def test_field_shape_and_finiteness(self):
        g = mw.PeriodicGrid(2 * math.pi, 16)
        with pytest.raises(DomainError):
            mw.PeriodicField(g, np.ones(17))
        with pytest.raises(DomainError):
            mw.PeriodicField(g, np.full(16, np.nan))

    def test_cross_grid_arithmetic_rejected(self):
        g1 = mw.PeriodicGrid(2 * math.pi, 16)
        g2 = mw.PeriodicGrid(2 * math.pi, 32)
        with pytest.raises(DomainError):
            _ = mw.PeriodicField(g1, np.ones(16)) + mw.PeriodicField(g2, np.ones(32))

    def test_sample_constant_and_mode(self):
        g = mw.PeriodicGrid(2 * math.pi, 16)
        ones = mw.sample(lambda x: 1.0 + 0.0 * x, g)
        assert np.all(ones.values == 1.0)
        mode = mw.sample(lambda x: np.sin(2 * np.pi * x / g.L), g)
        assert np.allclose(mode.values, np.sin(g.nodes), atol=1e-15)

    def test_sample_scalar_function(self):
        # f gets the node array: a scalar-only function is refused, and a
        # result of the wrong shape is refused by the field
        g = mw.PeriodicGrid(2 * math.pi, 16)
        with pytest.raises(TypeError):
            mw.sample(math.cos, g)
        with pytest.raises(DomainError):
            mw.sample(lambda x: 1.0, g)

    def test_sample_nonfinite_rejected(self):
        g = mw.PeriodicGrid(2 * math.pi, 16)
        with pytest.raises(DomainError):
            mw.sample(lambda x: np.where(x == g.nodes[3], np.inf, 1.0), g)


class TestDerivative:
    def test_single_mode(self):
        g = mw.PeriodicGrid(6.0, 64)
        u = mw.sample(lambda x: np.sin(2 * np.pi * x / g.L), g)
        d = mw.derivative(u)
        expected = (2 * np.pi / g.L) * np.cos(2 * np.pi * g.nodes / g.L)
        assert np.max(np.abs(d.values - expected)) < 1e-12

    def test_constant_derivative_zero(self):
        g = mw.PeriodicGrid(3.0, 32)
        assert np.max(np.abs(mw.derivative(mw.sample(lambda x: 4.2 + 0 * x, g)).values)) == 0.0

    def test_composition_matches_second_order(self):
        # oracle: the symbol -kappa^2 with the Nyquist mode zeroed, as each
        # first derivative zeroes it
        g = mw.PeriodicGrid(2 * math.pi, 64)
        rng = np.random.default_rng(6)
        u = random_smooth(g, rng, modes=10)
        twice = mw.derivative(mw.derivative(u))
        symbol = -g.wavenumbers() ** 2
        symbol[-1] = 0.0
        second = np.fft.irfft(symbol * np.fft.rfft(u.values), g.n)
        assert np.max(np.abs(twice.values - second)) < 1e-10

    def test_third_order(self):
        g = mw.PeriodicGrid(2 * math.pi, 64)
        u = mw.sample(lambda x: np.sin(3 * x), g)
        d3 = mw.derivative(mw.derivative(mw.derivative(u)))
        assert np.max(np.abs(d3.values + 27 * np.cos(3 * g.nodes))) < 1e-10

    def test_order_validation(self):
        # first order only: higher orders are compositions
        g = mw.PeriodicGrid(2 * math.pi, 16)
        with pytest.raises(TypeError):
            mw.derivative(mw.sample(lambda x: 0 * x, g), 2)

    def test_held_spectrum_is_used(self, fft_calls):
        # derivative and helmholtz_inverse read the field's held rfft,
        # bit-identical to transforming its values afresh
        g = mw.PeriodicGrid(2 * math.pi, 64)
        u = random_smooth(g, np.random.default_rng(8), modes=10)
        kap = g.wavenumbers()
        spec = np.fft.rfft(u.values)
        fft_calls.clear()
        d, h = mw.derivative(u), mw.helmholtz_inverse(u)
        assert len(fft_calls) == 3  # one rfft, two irfft
        symbol = 1j * kap
        symbol[-1] = 0.0
        assert np.array_equal(d.values, np.fft.irfft(symbol * spec, g.n))
        assert np.array_equal(h.values, np.fft.irfft(spec / (1.0 + kap * kap), g.n))

    def test_sampled_wave_second_derivative_matches_analytic(self, wave05):
        grid = mw.PeriodicGrid(wave05.L, 256)
        phi, _, phi2 = mw.profile(wave05, grid.nodes)
        spectral = mw.derivative(mw.derivative(mw.PeriodicField(grid, phi)))
        assert np.max(np.abs(spectral.values - phi2)) < 1e-8


class TestIntegrate:
    def test_full_period_sine(self):
        g = mw.PeriodicGrid(2 * math.pi, 32)
        assert abs(mw.integrate(mw.sample(np.sin, g))) < 1e-14

    def test_constant(self):
        g = mw.PeriodicGrid(5.0, 32)
        assert mw.integrate(mw.sample(lambda x: 1.0 + 0 * x, g)) == pytest.approx(5.0, rel=1e-15)

    def test_dn_squared_mean_value(self, wave05):
        # int_0^L dn^2(2Kx/L) dx = L E/K, cross-checked by adaptive quadrature
        big_k, big_e = mw.complete_k_e(wave05.k)
        g = mw.PeriodicGrid(wave05.L, 256)
        dn2 = mw.sample(lambda x: mw.jacobi(2 * big_k * x / wave05.L, wave05.k)[2] ** 2, g)
        val = mw.integrate(dn2)
        assert abs(val - wave05.L * big_e / big_k) < 1e-10
        oracle, _ = quad(lambda x: mw.jacobi(2 * big_k * x / wave05.L, wave05.k)[2] ** 2,
                         0.0, wave05.L, epsabs=1e-12, limit=200)
        assert abs(val - oracle) < 1e-9


class TestFunctionals:
    def test_constant_state(self):
        g = mw.PeriodicGrid(2 * math.pi, 32)
        kappa = 0.7
        e, f, v = mw.functionals(mw.sample(lambda x: kappa + 0 * x, g))
        big_l = 2 * math.pi
        assert e == pytest.approx(-kappa**4 * big_l / 4, rel=1e-14)
        assert f == pytest.approx(kappa**2 * big_l / 2, rel=1e-14)
        assert v == pytest.approx(kappa * big_l, rel=1e-14)

    def test_zero_state(self):
        g = mw.PeriodicGrid(2 * math.pi, 32)
        assert mw.functionals(mw.sample(lambda x: 0.0 * x, g)) == (0.0, 0.0, 0.0)

    def test_spectral_convergence(self, wave05):
        f256 = np.array(mw.functionals(mw.sample_wave(wave05, mw.PeriodicGrid(wave05.L, 256))))
        f512 = np.array(mw.functionals(mw.sample_wave(wave05, mw.PeriodicGrid(wave05.L, 512))))
        assert np.max(np.abs(f256 - f512)) < 1e-10

    def test_translation_invariance(self, wave05):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        rng = np.random.default_rng(8)
        base = np.array(mw.functionals(phi))
        for _ in range(5):
            s = rng.uniform(0, wave05.L)
            shifted = np.array(mw.functionals(mw.fractional_shift(phi, s)))
            assert np.max(np.abs(shifted - base)) < 1e-10


class TestAugmented:
    def test_zero_state(self):
        g = mw.PeriodicGrid(2 * math.pi, 32)
        assert augmented(mw.sample(lambda x: 0.0 * x, g), 0.7, 0.3) == 0.0

    def test_wave_is_critical_point(self, wave05):
        # the Gateaux derivative of G at phi vanishes
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        rng = np.random.default_rng(9)
        eps = 1e-5
        for _ in range(5):
            v = random_smooth(g, rng)
            gp = augmented(phi + eps * v, wave05.c, wave05.A)
            gm = augmented(phi + (-eps) * v, wave05.c, wave05.A)
            assert abs((gp - gm) / (2 * eps)) < 1e-6 * mw.h1_norm(v)

    def test_shift_invariance(self, wave05):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        g_phi = augmented(phi, wave05.c, wave05.A)
        for s in (0.3, 2.11, 11.7):
            assert abs(augmented(mw.fractional_shift(phi, s), wave05.c, wave05.A)
                       - g_phi) < 1e-10


@pytest.fixture(scope="module")
def q_coeffs(wave05):
    d = mw.params_dk(wave05.k, wave05.L)
    return (d.dA_dk, d.dc_dk)


class TestLyapunov:
    def test_zero_at_wave(self, wave05, q_coeffs):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        assert abs(lyapunov(phi, wave05, 1e3, q_coeffs)) < 1e-14

    def test_zero_on_orbit(self, wave05, q_coeffs):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        shifted = mw.fractional_shift(phi, 4.321)
        assert abs(lyapunov(shifted, wave05, 1e3, q_coeffs)) < 1e-12

    def test_positive_near_orbit(self, wave05, q_coeffs):
        # empirical probe of the coercivity bound B >= D rho^2: positive on
        # 100 random unit-H^1 directions, with a uniform lower bound on
        # B / rho^2 across them
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        rng = np.random.default_rng(10)
        delta = 1e-3
        ratios = []
        for _ in range(100):
            v = random_smooth(g, rng)
            v = (1.0 / mw.h1_norm(v)) * v
            u = phi + delta * v
            val = lyapunov(u, wave05, 1e3, q_coeffs)
            assert val > 0.0
            rho, _ = semidistance(u, wave05)
            ratios.append(val / rho**2)
        assert min(ratios) > 1e-4

    def test_quadratic_near_orbit(self, wave05, q_coeffs):
        # B behaves as a quadratic form in the perturbation size
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        rng = np.random.default_rng(21)
        for _ in range(5):
            v = random_smooth(g, rng)
            v = (1.0 / mw.h1_norm(v)) * v
            b1 = lyapunov(phi + 1e-3 * v, wave05, 1e3, q_coeffs)
            b2 = lyapunov(phi + 5e-4 * v, wave05, 1e3, q_coeffs)
            assert b1 / b2 == pytest.approx(4.0, rel=0.2)

    def test_weight_must_be_positive(self, wave05, q_coeffs):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        with pytest.raises(DomainError):
            lyapunov(phi, wave05, 0.0, q_coeffs)


class TestSemidistance:
    def test_zero_at_wave(self, wave05):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        rho, shift = semidistance(phi, wave05)
        assert rho < 1e-10

    def test_exact_translate(self, wave05):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        rng = np.random.default_rng(12)
        for _ in range(3):
            s = rng.uniform(0, wave05.L)
            rho, shift = semidistance(mw.fractional_shift(phi, s), wave05)
            assert rho < 1e-9
            assert min(abs(shift - s), wave05.L - abs(shift - s)) < 1e-7

    def test_infimum_bound(self, wave05):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        rng = np.random.default_rng(13)
        for _ in range(5):
            u = phi + 0.1 * random_smooth(g, rng)
            rho, _ = semidistance(u, wave05)
            diff = u - phi
            assert rho <= mw.h1_norm(diff) + 1e-12

    def test_invariance_under_shifting_the_candidate(self, wave05):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        rng = np.random.default_rng(14)
        u = phi + 0.05 * random_smooth(g, rng)
        rho0, _ = semidistance(u, wave05)
        for s in (0.7, 5.3):
            rho_s, _ = semidistance(mw.fractional_shift(u, s), wave05)
            assert abs(rho_s - rho0) < 1e-9

    @pytest.mark.parametrize("k, big_l", [(0.5, 6 * math.pi), (0.3, 4 * math.pi)])
    @settings(max_examples=20)
    @given(frac=st.floats(0.0, 1.0, exclude_max=True), eps=st.floats(0.0, 1e-2),
           seed=st.integers(0, 2**16))
    def test_matches_independent_minimization(self, k, big_l, frac, eps, seed):
        # oracle: a dense scan of the exact objective over 8n shifts, then
        # bounded scalar minimizations around the best one; the second,
        # re-centred on the first, gets below minimize_scalar's
        # sqrt(eps) * |x| stopping floor
        p = mw.wave_params(k, big_l)
        g = mw.PeriodicGrid(p.L, 128)
        phi = mw.sample_wave(p, g)
        u = mw.fractional_shift(phi, frac * p.L) + eps * seeded_perturbation(g, seed)

        def objective(y):
            diff = u - mw.fractional_shift(phi, y)
            return inner_h1(diff, diff)

        step = p.L / (8 * g.n)
        y_ref = step * np.argmin([objective(j * step) for j in range(8 * g.n)])
        for half_width in (step, 1e-6 * step):
            res = minimize_scalar(lambda t, y=y_ref: objective(y + t),
                                  bounds=(-half_width, half_width), method="bounded",
                                  options={"xatol": 1e-14 * p.L})
            y_ref += res.x
        rho_ref = math.sqrt(max(res.fun, 0.0))
        rho, shift = _orbit_distance(u, phi)
        assert abs(rho - rho_ref) <= 1e-9 * rho_ref + 1e-12
        gap = (shift - y_ref) % p.L
        assert min(gap, p.L - gap) <= 1e-8 * p.L

    def test_fft_calls_per_monitor_point(self, wave05, fft_calls):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        u = mw.fractional_shift(phi, 2.5) + 1e-3 * seeded_perturbation(g, 1)
        fft_calls.clear()
        _orbit_distance(u, phi)
        assert len(fft_calls) == 5

    def test_newton_diagnostics_logged(self, wave05, caplog):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        u = mw.fractional_shift(phi, 2.5) + 1e-3 * seeded_perturbation(g, 1)
        with caplog.at_level(logging.DEBUG, logger="mchwave.field"):
            _orbit_distance(u, phi)
        [record] = caplog.records
        assert "Newton iterations" in record.getMessage()
        assert "bisection" in record.getMessage()

    def test_grid_period_mismatch(self, wave05):
        g = mw.PeriodicGrid(5.0, 64)
        with pytest.raises(DomainError):
            semidistance(mw.sample(lambda x: 0 * x, g), wave05)


class TestHelpers:
    def test_fractional_shift_exactness(self):
        g = mw.PeriodicGrid(2 * math.pi, 64)
        u = mw.sample(lambda x: np.sin(3 * x) + 0.5 * np.cos(5 * x), g)
        s = 0.4321
        shifted = mw.fractional_shift(u, s)
        expected = np.sin(3 * (g.nodes + s)) + 0.5 * np.cos(5 * (g.nodes + s))
        assert np.max(np.abs(shifted.values - expected)) < 1e-13

    def test_helmholtz_inverse_symbol(self):
        g = mw.PeriodicGrid(2 * math.pi, 64)
        for m in (1, 3, 7):
            u = mw.sample(lambda x: np.cos(m * x), g)
            out = mw.helmholtz_inverse(u)
            assert np.max(np.abs(out.values - np.cos(m * g.nodes) / (1 + m * m))) < 1e-14

    def test_h1_norm_matches_momentum(self, wave05):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        _, f, _ = mw.functionals(phi)
        assert mw.h1_norm(phi) == pytest.approx(math.sqrt(2.0 * f), rel=1e-12)
