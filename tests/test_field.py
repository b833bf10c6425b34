"""Grids, spectral calculus, functionals, and the orbital semi-distance."""

import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

import mchwave as mw
from mchwave import DomainError, evolve
from mchwave.evolve import seeded_perturbation
from mchwave.field import _orbit_distance

from conftest import (augmented, functionals_grid, helmholtz_inverse, inner_h1, integrate,
                      lyapunov, orbit_distance_grid, random_smooth, semidistance)


class TestGridAndField:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            mw.PeriodicGrid(-1.0, 64)
        with pytest.raises(DomainError):
            mw.PeriodicGrid(1.0, 15)
        with pytest.raises(DomainError):
            mw.PeriodicGrid(1.0, 33)  # odd

    @pytest.mark.parametrize("n", [64.0, np.float64(64), np.int64(64)],
                             ids=["float", "float64", "int64"])
    def test_grid_size_must_be_an_integer(self, n):
        # a float size is refused by the grid, not by a slice deep in linop;
        # a numpy integer is a grid size like any int
        runs = (lambda size: mw.PeriodicGrid(1.0, size).n,
                lambda size: mw.morse_check(0.5, 6 * math.pi, n=size),
                lambda size: mw.krein_index(0.999, n=size))
        for make in runs:
            if isinstance(n, np.integer):
                assert make(n) == make(64)
            else:
                with pytest.raises(DomainError, match="even integer"):
                    make(n)

    def test_field_shape_and_finiteness(self):
        # a scalar, of shape (), is a wrong shape too
        g = mw.PeriodicGrid(2 * math.pi, 16)
        for values in (np.ones(17), 1.0):
            with pytest.raises(DomainError):
                mw.PeriodicField(g, values)
        with pytest.raises(DomainError):
            mw.PeriodicField(g, np.full(16, np.nan))

    def test_complex_values_refused(self):
        # numpy would drop the imaginary part with a ComplexWarning; a zero
        # imaginary part is refused too
        g = mw.PeriodicGrid(2 * math.pi, 16)
        for values in ((1 + 2j) * np.ones(16), np.ones(16, dtype=complex)):
            with pytest.raises(DomainError, match="real"):
                mw.PeriodicField(g, values)

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("make", [
        lambda flag: mw.PeriodicGrid(1.0, flag),
        lambda flag: mw.EvolutionConfig(dt=0.1, t_end=1.0, monitor_every=flag),
        lambda flag: seeded_perturbation(mw.PeriodicGrid(2 * math.pi, 16), flag),
    ], ids=["grid_size", "monitor_every", "seed"])
    def test_bool_is_not_an_integer(self, make, flag):
        # bool is a numbers.Integral, so True would pass as 1 and False as 0
        with pytest.raises(DomainError, match="integer"):
            make(flag)

    def test_cross_grid_arithmetic_rejected(self):
        g1 = mw.PeriodicGrid(2 * math.pi, 16)
        g2 = mw.PeriodicGrid(2 * math.pi, 32)
        with pytest.raises(DomainError):
            _ = mw.PeriodicField(g1, np.ones(16)) + mw.PeriodicField(g2, np.ones(32))

    def test_sample_constant_and_mode(self):
        g = mw.PeriodicGrid(2 * math.pi, 16)
        ones = mw.PeriodicField(g, 1.0 + 0.0 * g.nodes)
        assert np.all(ones.values == 1.0)
        mode = mw.PeriodicField(g, np.sin(2 * np.pi * g.nodes / g.L))
        assert np.allclose(mode.values, np.sin(g.nodes), atol=1e-15)

    def test_sample_nonfinite_rejected(self):
        g = mw.PeriodicGrid(2 * math.pi, 16)
        with pytest.raises(DomainError):
            mw.PeriodicField(g, np.where(g.nodes == g.nodes[3], np.inf, 1.0))


class TestDerivative:
    def test_single_mode(self):
        g = mw.PeriodicGrid(6.0, 64)
        u = mw.PeriodicField(g, np.sin(2 * np.pi * g.nodes / g.L))
        d = mw.derivative(u)
        expected = (2 * np.pi / g.L) * np.cos(2 * np.pi * g.nodes / g.L)
        assert np.max(np.abs(d.values - expected)) < 1e-12

    def test_constant_derivative_zero(self):
        g = mw.PeriodicGrid(3.0, 32)
        assert np.max(np.abs(mw.derivative(mw.PeriodicField(g, 4.2 + 0 * g.nodes)).values)) == 0.0

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
        u = mw.PeriodicField(g, np.sin(3 * g.nodes))
        d3 = mw.derivative(mw.derivative(mw.derivative(u)))
        assert np.max(np.abs(d3.values + 27 * np.cos(3 * g.nodes))) < 1e-10

    def test_order_validation(self):
        # first order only: higher orders are compositions
        g = mw.PeriodicGrid(2 * math.pi, 16)
        with pytest.raises(TypeError):
            mw.derivative(mw.PeriodicField(g, 0 * g.nodes), 2)

    def test_held_spectrum_is_used(self, fft_calls):
        # derivative and helmholtz_inverse read the field's held rfft,
        # bit-identical to transforming its values afresh
        g = mw.PeriodicGrid(2 * math.pi, 64)
        u = random_smooth(g, np.random.default_rng(8), modes=10)
        kap = g.wavenumbers()
        spec = np.fft.rfft(u.values)
        fft_calls.clear()
        d, h = mw.derivative(u), helmholtz_inverse(u)
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
        assert abs(integrate(mw.PeriodicField(g, np.sin(g.nodes)))) < 1e-14

    def test_constant(self):
        g = mw.PeriodicGrid(5.0, 32)
        assert integrate(mw.PeriodicField(g, 1.0 + 0 * g.nodes)) == pytest.approx(5.0, rel=1e-15)

    def test_dn_squared_mean_value(self, wave05):
        # int_0^L dn^2(2Kx/L) dx = L E/K, cross-checked by adaptive quadrature
        big_k, big_e = mw.complete_k_e(wave05.k)
        g = mw.PeriodicGrid(wave05.L, 256)
        dn2 = mw.PeriodicField(g, mw.jacobi(2 * big_k * g.nodes / wave05.L, wave05.k)[2] ** 2)
        val = integrate(dn2)
        assert abs(val - wave05.L * big_e / big_k) < 1e-10
        oracle, _ = quad(lambda x: mw.jacobi(2 * big_k * x / wave05.L, wave05.k)[2] ** 2,
                         0.0, wave05.L, epsabs=1e-12, limit=200)
        assert abs(val - oracle) < 1e-9


class TestFunctionals:
    def test_constant_state(self):
        g = mw.PeriodicGrid(2 * math.pi, 32)
        kappa = 0.7
        e, f, v = mw.functionals(mw.PeriodicField(g, kappa + 0 * g.nodes))
        big_l = 2 * math.pi
        assert e == pytest.approx(-kappa**4 * big_l / 4, rel=1e-14)
        assert f == pytest.approx(kappa**2 * big_l / 2, rel=1e-14)
        assert v == pytest.approx(kappa * big_l, rel=1e-14)

    def test_zero_state(self):
        g = mw.PeriodicGrid(2 * math.pi, 32)
        assert mw.functionals(mw.PeriodicField(g, 0.0 * g.nodes)) == (0.0, 0.0, 0.0)

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


    @settings(max_examples=40)
    @given(n=st.sampled_from([16, 64, 256]), rows=st.integers(1, 6), modes=st.integers(1, 8),
           mean=st.floats(-2.0, 2.0), seed=st.integers(0, 2**16))
    def test_stacked_records_match_physical_space_oracles(self, n, rows, modes, mean, seed):
        # a run's records as the pass after its loop computes them, from the
        # held spectra of random smooth fields: E, F and V against the
        # trapezoid sums, each within 1e-13 of the sums of the absolute
        # values of its integrand, and the spectral rho within 1e-13
        # relative of the full-FFT oracle's
        g = mw.PeriodicGrid(7.3, n)
        rng = np.random.default_rng(seed)
        modes = min(modes, n // 2 - 1)
        states = [mw.PeriodicField(g, mean + random_smooth(g, rng, modes).values)
                  for _ in range(rows)]
        phi = random_smooth(g, rng, modes)
        values, efv = evolve._recorded_values(states[0], [u.spectrum for u in states])
        assert values.shape == (rows, n) and np.array_equal(values[0], states[0].values)
        for u, row, efv_row in zip(states, values, efv):
            fld = mw.PeriodicField(g, row)
            oracle, scale = functionals_grid(fld)
            assert np.all(np.abs(efv_row - oracle) <= 1e-13 * scale)
            rho, rho_grid = _orbit_distance(u.spectrum, phi)[0], orbit_distance_grid(fld, phi)[0]
            assert abs(rho - rho_grid) <= 1e-13 * rho_grid


class TestAugmented:
    def test_zero_state(self):
        g = mw.PeriodicGrid(2 * math.pi, 32)
        assert augmented(mw.PeriodicField(g, 0.0 * g.nodes), 0.7, 0.3) == 0.0

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
    s = mw.stability_index(wave05.k, wave05.L)
    return (s.dA_dk, s.dc_dk)


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


def _assert_matches_oracle(u: mw.PeriodicField, phi: mw.PeriodicField) -> None:
    """rho within 4 eps ||phi||_H1 of the physical-space oracle's, and the
    shift in [0, L) within 1e-8 L of its shift."""
    rho, shift = _orbit_distance(u.spectrum, phi)
    rho_grid, shift_grid = orbit_distance_grid(u, phi)
    assert abs(rho - rho_grid) <= 4.0 * np.finfo(float).eps * mw.h1_norm(phi)
    assert 0.0 <= shift < u.grid.L
    gap = (shift - shift_grid) % u.grid.L
    assert min(gap, u.grid.L - gap) <= 1e-8 * u.grid.L


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

    @pytest.mark.parametrize("s", [None, 1e-15, -1e-15, 1e-13, -1e-13])
    def test_at_and_next_to_the_reference(self, wave05, s):
        # u = phi, or phi shifted by rounding-sized s: rho is rounding, and
        # the shift lies in [0, L) next to s mod L, where a Newton step of
        # -1e-50 taken mod L would round to L itself
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        u = phi if s is None else mw.fractional_shift(phi, s)
        rho, shift = _orbit_distance(u.spectrum, phi)
        assert rho <= 1e-13 * mw.h1_norm(phi)
        assert 0.0 <= shift < g.L
        gap = (shift - (s or 0.0)) % g.L
        assert min(gap, g.L - gap) <= 1e-8 * g.L

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
        p = mw.wave_at(k, big_l)[0]
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
        rho, shift = _orbit_distance(u.spectrum, phi)
        assert abs(rho - rho_ref) <= 1e-9 * rho_ref + 1e-12
        gap = (shift - y_ref) % p.L
        assert min(gap, p.L - gap) <= 1e-8 * p.L

    @settings(max_examples=100)
    @given(k=st.floats(0.1, 0.75), big_l=st.floats(3.2 * math.pi, 10 * math.pi),
           n=st.sampled_from([64, 128, 256, 512]), log_eps=st.floats(-7.0, -1.0),
           frac=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**16))
    def test_matches_physical_space_oracle(self, k, big_l, n, log_eps, frac, seed):
        # oracle: the full-FFT correlation and the trapezoid H^1 norm of
        # u - phi(. + y*); both distances are sums of squares, so they agree
        # to rounding of phi's size at any perturbation size
        assume(mw.validity(k, big_l).all_ok)
        p = mw.wave_at(k, big_l)[0]
        g = mw.PeriodicGrid(p.L, n)
        phi = mw.sample_wave(p, g)
        u = mw.fractional_shift(phi, frac * p.L) + 10.0**log_eps * seeded_perturbation(g, seed)
        _assert_matches_oracle(u, phi)

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_matches_oracle_with_nyquist_content(self, n):
        # white noise carries every mode, where a wave's Nyquist mode is at
        # rounding: that mode's weight, its rotation as a cosine and its
        # share of C at the grid shifts all show here
        rng = np.random.default_rng(n)
        g = mw.PeriodicGrid(5.0, n)
        for _ in range(10):
            phi = mw.PeriodicField(g, rng.standard_normal(n))
            noise = mw.PeriodicField(g, 0.3 * rng.standard_normal(n))
            u = mw.fractional_shift(phi, rng.uniform(0.0, g.L)) + noise
            _assert_matches_oracle(u, phi)

    def test_fft_calls_per_monitor_point(self, wave05, fft_calls):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        u = mw.fractional_shift(phi, 2.5) + 1e-3 * seeded_perturbation(g, 1)
        fft_calls.clear()
        _orbit_distance(u.spectrum, phi)
        assert fft_calls == ["rfft", "irfft"]  # u's spectrum, then C at the grid shifts
        fft_calls.clear()
        _orbit_distance(u.spectrum, phi)
        assert fft_calls == ["irfft"]  # u's spectrum is held now, as phi's was

    def test_newton_diagnostics_logged(self, wave05, caplog):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        u = mw.fractional_shift(phi, 2.5) + 1e-3 * seeded_perturbation(g, 1)
        with caplog.at_level(logging.DEBUG, logger="mchwave.field"):
            _orbit_distance(u.spectrum, phi)
        [record] = caplog.records
        assert "Newton iterations" in record.getMessage()
        assert "bisection" in record.getMessage()

    def test_bisection_where_the_cross_term_is_flat(self, caplog):
        # a constant u has C' = 0 at every shift, so Newton never steps and the
        # bracket is bisected; rho^2 = ||0.3||^2 + ||cos||^2, both in H^1
        g = mw.PeriodicGrid(2 * math.pi, 64)
        u = mw.PeriodicField(g, np.full(64, 0.3))
        phi = mw.PeriodicField(g, np.cos(g.nodes))
        with caplog.at_level(logging.DEBUG, logger="mchwave.field"):
            rho, shift = _orbit_distance(u.spectrum, phi)
        [record] = caplog.records
        assert "bisection used: True" in record.getMessage()
        assert rho == pytest.approx(math.sqrt(0.09 * 2 * math.pi + 2 * math.pi), rel=1e-13)
        assert 0.0 <= shift < g.L

    def test_grid_period_mismatch(self, wave05):
        g = mw.PeriodicGrid(5.0, 64)
        with pytest.raises(DomainError):
            semidistance(mw.PeriodicField(g, 0 * g.nodes), wave05)


class TestHelpers:
    def test_fractional_shift_exactness(self):
        g = mw.PeriodicGrid(2 * math.pi, 64)
        u = mw.PeriodicField(g, np.sin(3 * g.nodes) + 0.5 * np.cos(5 * g.nodes))
        s = 0.4321
        shifted = mw.fractional_shift(u, s)
        expected = np.sin(3 * (g.nodes + s)) + 0.5 * np.cos(5 * (g.nodes + s))
        assert np.max(np.abs(shifted.values - expected)) < 1e-13

    def test_helmholtz_inverse_symbol(self):
        g = mw.PeriodicGrid(2 * math.pi, 64)
        for m in (1, 3, 7):
            u = mw.PeriodicField(g, np.cos(m * g.nodes))
            out = helmholtz_inverse(u)
            assert np.max(np.abs(out.values - np.cos(m * g.nodes) / (1 + m * m))) < 1e-14

    def test_h1_norm_matches_momentum(self, wave05):
        g = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, g)
        _, f, _ = mw.functionals(phi)
        assert mw.h1_norm(phi) == pytest.approx(math.sqrt(2.0 * f), rel=1e-12)
