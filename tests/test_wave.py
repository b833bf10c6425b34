"""Wave construction: parameter maps, profiles, residuals, derivatives."""

import ast
import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import mchwave as mw
from mchwave import DomainError
from mchwave.wave import _closed_forms, _energy, _params_from_k_l, _waves

from conftest import AccuracyError, a_closed_form, fd_dk


class TestWaveParams:
    def test_constant_limit(self):
        # k -> 0 at L = 2 pi degenerates to a = -1, b = -2, c = 1, A = 0
        p = mw.constant_wave(2.0 * math.pi)
        assert p.a == pytest.approx(-1.0, abs=1e-12)
        assert p.b == pytest.approx(-2.0, abs=1e-12)
        assert p.c == pytest.approx(1.0, abs=1e-12)
        assert p.A == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("big_l", [2.2 * math.pi, 3 * math.pi, 6 * math.pi,
                                       14 * math.pi])
    def test_constant_wave_is_k0_closed_form(self, big_l):
        # the general closed forms at K = E = pi/2 reproduce the k = 0
        # formulas bit for bit
        L = big_l
        root = math.sqrt(9.0 * L**4 - 128.0 * math.pi**4)
        head = 32.0 * math.pi**4 / (1.5 * L * L + 0.5 * root)  # 1.5 L^2 - root / 2
        c = head / (L * L)
        a = -(8.0 * math.pi**2 + head) / (3.0 * L * L)
        p = mw.constant_wave(L)
        assert (p.a, p.b, p.c, p.A) == (a, -8.0 * math.pi**2 / (L * L), c, -a**3 + c * a)

    @pytest.mark.parametrize("big_l", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_constant_wave_bad_period(self, big_l):
        with pytest.raises(DomainError):
            mw.constant_wave(big_l)
        rep = mw.validity(0.0, big_l)
        assert not rep.discriminant_ok and not rep.all_ok
        assert math.isnan(rep.ineq_i_value) and math.isnan(rep.ineq_ii_margin)

    def test_amplitude_formula(self, wave05):
        big_k = mw.complete_k_e(0.5)[0]
        assert wave05.b == pytest.approx(-32.0 * big_k**2 / (36.0 * math.pi**2), rel=1e-14)
        assert wave05.b == pytest.approx(-0.2559376934375863, rel=1e-12)

    def test_discriminant_failure(self):
        assert mw.validity(0.9, math.pi).discriminant_ok is False
        with pytest.raises(DomainError):
            mw.wave_params(0.9, math.pi)

    def test_modulus_domain(self):
        for k in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                mw.wave_params(k, 6.0 * math.pi)

    @pytest.mark.parametrize("big_l", [2e51, 3e51, 1e60, 1e80])
    def test_huge_period_is_a_domain_error(self, big_l):
        # L**7 overflows above DBL_MAX^(1/7), about 1.087e44, L**4 in the
        # coefficients above about 1e77: an OverflowError before
        with pytest.raises(DomainError, match="too large"):
            mw.wave_params(0.5, big_l)

    @pytest.mark.parametrize("k,big_l", [(0.5, 1e-200), (0.5, 5e-324), (0.5, 1e300),
                                         (0.5, -1e300), (1e200, 10.0), (-1e300, 10.0)])
    def test_extreme_inputs_are_refused_without_warnings(self, k, big_l):
        # the closed forms work on arrays and must neither overflow nor divide
        # by zero where they refuse a cell (RuntimeWarnings fail the suite)
        rep = mw.validity(k, big_l)
        assert not rep.discriminant_ok and not rep.all_ok
        assert math.isnan(rep.ineq_i_value) and math.isnan(rep.ineq_ii_margin)
        with pytest.raises(DomainError):
            mw.wave_params(k, big_l)

    @pytest.mark.parametrize("k", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("big_l", [20.0, 1e2, 1e3, 1e4, 1e5])
    def test_speed_does_not_cancel_at_long_periods(self, k, big_l):
        # oracle: c = X / (2 (3 + sqrt(9 - X))), X = 2048 K^4 (1 - k^2 + k^4) / L^4,
        # the root of c^2 - 3c + X/4 = 0 free of the cancelling subtraction
        # 1.5 L^2 - sqrt(Delta)/2
        x = 2048.0 * mw.complete_k_e(k)[0] ** 4 * (1.0 - k * k + k**4) / big_l**4
        expected = x / (2.0 * (3.0 + math.sqrt(9.0 - x)))
        c = mw.wave_params(k, big_l).c
        assert abs(c - expected) <= 1e-14 * expected
        assert c > 0.0

    def test_param_bounds_on_grid(self):
        for k in np.linspace(0.05, 0.8, 10):
            for big_l in np.linspace(3 * math.pi, 10 * math.pi, 10):
                p = mw.wave_params(float(k), float(big_l))
                assert p.b < 0.0
                assert 0.0 < p.c < 1.5

    def test_integration_constant_cross_check(self):
        # the published long closed form, evaluated on the whole 10 x 10 grid
        # in one call, agrees with the ODE evaluation
        ks, ls = np.meshgrid(np.linspace(0.05, 0.8, 10), np.linspace(3 * math.pi, 10 * math.pi, 10))
        closed = a_closed_form(ks, ls)[0]
        ode = np.array([mw.wave_params(k, big_l).A for k, big_l in zip(ks.flat, ls.flat)])
        assert np.max(np.abs(ode - closed.ravel())) < 1e-8

    @pytest.mark.parametrize("window", [(0.01, 0.2, 3 * math.pi, 6 * math.pi),
                                        (0.05, 0.8, 6 * math.pi, 10 * math.pi)])
    def test_integration_constant_within_rounding_floor(self, window):
        # both criterion-5 windows at 20 x 20: in every cell with a wave, A
        # from the ODE is within 1e3 rounding floors of the long form.  The
        # bound is that sharp: 1e-9 added to A (which a gate of 1e-8
        # max(1, |A|) misses) breaks it, the floor being about 5.6e-16
        k0, k1, l0, l1 = window
        ks = np.repeat(np.linspace(k0, k1, 20), 20)
        ls = np.tile(np.linspace(l0, l1, 20), 20)
        (a, _, _, ode, _, _), _, reason = _waves(ks, ls)
        has_wave = ~np.isnan(a)
        assert np.count_nonzero(reason == "") > 0 and np.all(has_wave[reason == ""])
        closed, floor = (v[has_wave] for v in a_closed_form(ks, ls))
        assert np.all(np.abs(ode[has_wave] - closed) <= 1e3 * floor)
        closed, floor = a_closed_form(0.5, 20.0)
        assert 1e-16 < floor < 1e-15
        assert abs(mw.wave_params(0.5, 20.0).A + 1e-9 - closed) > 1e3 * floor


class TestProfile:
    def test_constant_profile(self):
        p = mw.constant_wave(2.0 * math.pi)
        x = np.linspace(0, p.L, 40)
        phi, phi1, phi2 = mw.profile(p, x)
        assert np.allclose(phi, p.a, atol=1e-14)
        assert np.allclose(phi1, 0.0, atol=1e-14)
        assert np.allclose(phi2, 0.0, atol=1e-14)

    def test_minimum_at_origin(self, wave05):
        p = wave05
        big_k, big_e = mw.complete_k_e(p.k)
        phi0 = mw.profile(p, 0.0)[0]
        assert phi0 == pytest.approx(p.a + p.b * (1.0 - big_e / big_k), rel=1e-14)
        x = np.linspace(0, p.L, 257)
        assert phi0 <= np.min(mw.profile(p, x)[0]) + 1e-14

    def test_periodicity(self, wave05):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, wave05.L, 50)
        a0 = mw.profile(wave05, x)[0]
        a1 = mw.profile(wave05, x + wave05.L)[0]
        assert np.max(np.abs(a1 - a0)) < 1e-12

    def test_derivatives_match_finite_differences(self, wave05):
        x = np.linspace(0.1, wave05.L, 20)
        h = 1e-6
        phi, phi1, phi2 = mw.profile(wave05, x)
        num1 = (mw.profile(wave05, x + h)[0] - mw.profile(wave05, x - h)[0]) / (2 * h)
        num2 = (mw.profile(wave05, x + h)[1] - mw.profile(wave05, x - h)[1]) / (2 * h)
        assert np.max(np.abs(phi1 - num1)) < 1e-8
        assert np.max(np.abs(phi2 - num2)) < 1e-8

    def test_mean_is_a(self):
        for k, big_l in [(0.2, 4 * math.pi), (0.5, 6 * math.pi), (0.75, 9 * math.pi)]:
            p = mw.wave_params(k, big_l)
            grid = mw.PeriodicGrid(p.L, 256)
            phi = mw.sample_wave(p, grid)
            assert abs(mw.integrate(phi) / p.L - p.a) < 1e-10


class TestSnoidalForm:
    def test_constant_limit_degenerates(self):
        p = mw.constant_wave(2.0 * math.pi)
        sp = mw.snoidal_form(p)
        assert sp.beta == pytest.approx(0.0, abs=1e-15)
        assert sp.alpha == pytest.approx(p.a, abs=1e-12)

    def test_amplitude_equals_range(self, wave05):
        sp = mw.snoidal_form(wave05)
        x = np.arange(2048) * (wave05.L / 2048)
        phi = mw.profile(wave05, x)[0]
        assert np.max(phi) - np.min(phi) == pytest.approx(sp.beta, rel=1e-9)

    def test_pointwise_agreement(self, wave05):
        sp = mw.snoidal_form(wave05)
        x = np.arange(512) * (wave05.L / 512)
        big_k = mw.complete_k_e(wave05.k)[0]
        sn = mw.jacobi(2.0 * big_k * x / wave05.L, wave05.k)[0]
        phi_sn = sp.alpha + sp.beta * sn * sn
        phi_dn = mw.profile(wave05, x)[0]
        assert np.max(np.abs(phi_sn - phi_dn)) < 1e-12


class TestOdeResidual:
    def test_exact_solution_grid(self):
        for k in np.linspace(0.05, 0.8, 10):
            for big_l in np.linspace(3 * math.pi, 10 * math.pi, 10):
                p = mw.wave_params(float(k), float(big_l))
                assert mw.ode_residual(p, 512) < 1e-8

    def test_constant_wave_residual(self):
        assert mw.ode_residual(mw.constant_wave(2.0 * math.pi), 64) < 1e-14

    def test_offset_constant_shifts_residual(self, wave05):
        shifted = dataclasses.replace(wave05, A=wave05.A + 1.0)
        assert mw.ode_residual(shifted, 64) == pytest.approx(1.0, rel=1e-10)

    def test_sample_count_precondition(self, wave05):
        with pytest.raises(DomainError):
            mw.ode_residual(wave05, 8)


class TestValidity:
    def test_good_wave(self):
        rep = mw.validity(0.5, 6.0 * math.pi)
        assert rep.discriminant_ok and rep.all_ok
        assert rep.ineq_i_value < 0.0
        assert rep.ineq_ii_margin < 0.0

    def test_constant_boundary_case(self):
        # at k -> 0, L = 2 pi the first inequality sits exactly on 0
        rep = mw.validity(0.0, 2.0 * math.pi)
        assert abs(rep.ineq_i_value) < 1e-12

    def test_discriminant_failure_reported(self):
        rep = mw.validity(0.9, math.pi)
        assert not rep.discriminant_ok
        assert not rep.all_ok
        assert math.isnan(rep.ineq_i_value)

    @pytest.mark.parametrize("big_l", [2e51, 3e51, 1e60, 1e80])
    def test_huge_period_is_reported_not_raised(self, big_l):
        assert not mw.validity(0.5, big_l).all_ok

    def test_all_ok_is_conjunction(self):
        for (k, big_l) in [(0.5, 6 * math.pi), (0.8, 8 * math.pi), (0.9, math.pi)]:
            rep = mw.validity(k, big_l)
            expected = (rep.discriminant_ok and rep.ineq_i_value < 0.0
                        and rep.ineq_ii_margin < 0.0)
            assert rep.all_ok == expected

    @staticmethod
    def check_margin_against_sampling(rep, p):
        # oracle: the profile on 4096 nodes plus the point L/2, where the
        # closed-form margin places the maximum
        x = np.append(np.arange(4096) * (p.L / 4096), 0.5 * p.L)
        sampled = float(np.max(mw.profile(p, x)[0] - p.c))
        assert rep.ineq_ii_margin == pytest.approx(sampled, rel=1e-12, abs=1e-14)
        assert rep.all_ok == (rep.ineq_i_value < 0.0 and sampled < 0.0)

    @given(k=st.floats(0.01, 0.99), big_l=st.floats(2 * math.pi, 14 * math.pi))
    def test_margin_matches_dense_sampling(self, k, big_l):
        # valid and invalid draws; those without a wave have no profile
        rep = mw.validity(k, big_l)
        assume(rep.discriminant_ok)
        self.check_margin_against_sampling(rep, mw.wave_params(k, big_l))

    @pytest.mark.parametrize("big_l", [2.2 * math.pi, 2.5 * math.pi, 3 * math.pi,
                                       4 * math.pi, 6 * math.pi, 7.3 * math.pi,
                                       10 * math.pi, 14 * math.pi])
    def test_constant_wave_margin(self, big_l):
        rep = mw.validity(0.0, big_l)
        self.check_margin_against_sampling(rep, mw.constant_wave(big_l))
        # c^2 - 3c + 32 pi^4 / L^4 vanishes identically: the boundary, never valid
        assert rep.ineq_i_value == 0.0
        assert not rep.all_ok

    def test_above_k1_fails_second_inequality(self):
        # at k = 0.8 with L in the second scan range, phi - c > 0 somewhere
        rep = mw.validity(0.8, 8.0 * math.pi)
        assert rep.discriminant_ok
        assert rep.ineq_ii_margin > 0.0
        assert not rep.all_ok


class TestMomentumClosedForm:
    @pytest.mark.parametrize("k", [0.05, 0.3, 0.7])
    def test_matches_sampled_functional(self, k):
        # the spectral quadrature of the sampled profile is exact to
        # rounding for this smooth periodic integrand
        for big_l in (4.0 * math.pi, 7.0 * math.pi):
            p = mw.wave_params(k, big_l)
            sampled = mw.functionals(mw.sample_wave(p, mw.PeriodicGrid(big_l, 256)))[1]
            assert _closed_forms(k, big_l)[4] == pytest.approx(sampled, rel=1e-13)

    def test_real_k_reproduces_wave_params(self):
        p = mw.wave_params(0.4, 6.0 * math.pi)
        assert _closed_forms(p.k, p.L)[:4] == (p.a, p.b, p.c, p.A)


class TestEnergyClosedForm:
    @pytest.mark.parametrize("k,big_l", [(0.3, 4 * math.pi), (0.5, 6 * math.pi),
                                         (0.9, 20.0), (0.985, 34.9)])
    def test_matches_sampled_functional(self, k, big_l):
        p = mw.wave_params(k, big_l)
        sampled = mw.functionals(mw.sample_wave(p, mw.PeriodicGrid(big_l, 1024)))[0]
        a, b, _, big_k, big_e = _params_from_k_l(k, big_l)
        assert _energy(a, b, k, big_k, big_e, big_l) == pytest.approx(sampled, rel=1e-12)


class TestParamDerivatives:
    def test_db_dk_analytic(self):
        # b = -32 K^2 / L^2 so db/dk = -64 K K' / L^2 with the classical K'
        k, big_l = 0.5, 6.0 * math.pi
        d = mw.params_dk(k, big_l)
        big_k, big_e = mw.complete_k_e(k)
        dk_dk = (big_e - (1 - k * k) * big_k) / (k * (1 - k * k))
        expected = -64.0 * big_k * dk_dk / big_l**2
        assert d.db_dk == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("k", [0.05, 0.3, 0.7, 0.9])
    def test_exact_db_dk_matches_dlmf(self, k):
        # dK/dk = (E - k'^2 K) / (k k'^2), DLMF 19.4.1; the exact path
        # takes no step
        big_l = 8.0 * math.pi
        d = mw.params_dk(k, big_l)
        big_k, big_e = mw.complete_k_e(k)
        dk_dk = (big_e - (1 - k * k) * big_k) / (k * (1 - k * k))
        assert d.db_dk == pytest.approx(-64.0 * big_k * dk_dk / big_l**2, rel=1e-9)

    def test_dc_dk_vanishes_at_small_k(self):
        vals = [abs(mw.params_dk(k, 2.0 * math.pi).dc_dk) for k in (0.2, 0.1, 0.05)]
        assert vals[0] > vals[1] > vals[2]
        # cubic decay: halving k shrinks the derivative about eightfold
        assert vals[0] / vals[1] == pytest.approx(8.0, rel=0.3)
        assert vals[1] / vals[2] == pytest.approx(8.0, rel=0.3)

    def test_step_halving_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            k = rng.uniform(0.1, 0.7)
            big_l = rng.uniform(4 * math.pi, 9 * math.pi)
            d1, d2 = (fd_dk(lambda kk: np.array(_closed_forms(kk, big_l)), k, h)[:4]
                      for h in (1e-3, 5e-4))
            for a, b in zip(d1, d2):  # da, db, dc, dA
                assert abs(a - b) <= 0.01 * max(abs(a), abs(b), 1e-9)

    def test_exact_path_domain_errors(self):
        for k, big_l in [(0.0, 6.0 * math.pi), (1.0, 6.0 * math.pi), (0.5, 0.0),
                         (0.5, math.nan), (0.9, math.pi)]:  # the last has Delta < 0
            with pytest.raises(DomainError):
                mw.params_dk(k, big_l)

    def test_one_derivative_path(self):
        # every k-derivative is the complex step of wave._dk, and A comes
        # from the wave ODE alone; the FD ladder, the long form for A and the
        # functionals' wrappers are the tests' oracles (conftest), which no
        # module of the package defines or names, and no public function
        # takes a step
        oracles = {"fd_dk", "AccuracyError", "_a_closed_form", "semidistance", "inner_h1",
                   "augmented", "lyapunov"}
        named = [(path.name, getattr(node, field))
                 for path in Path(mw.__file__).parent.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 for field in ("name", "id", "attr", "asname", "arg")
                 if getattr(node, field, None) in oracles]
        assert named == []
        for fn in (mw.params_dk, mw.stability_index, mw.index_scan, mw.d_second):
            assert "h" not in inspect.signature(fn).parameters
        assert len(dataclasses.fields(mw.ParamDerivatives)) == 4

    def test_gate_failure_raises(self):
        # a kink just off the evaluation point breaks Richardson consistency
        with pytest.raises(AccuracyError):
            fd_dk(lambda k: np.array([abs(k - 0.5003)]), 0.5, 1e-3)
