"""Stability index, Morse identities, zero-mean branch, Krein machinery."""

import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

import mchwave as mw
from mchwave import DomainError
from mchwave.cli import EXIT_OK, dispatch
from mchwave.indices import _branch_state, _zero_mean_l, classify, zero_mean_period

from conftest import AccuracyError, fd_dk, fd_index


class TestStabilityIndex:
    def test_negative_at_figure_points(self):
        # spot values inside both plotted parameter windows
        assert mw.stability_index(0.1, 5 * math.pi).I < 0.0
        assert mw.stability_index(0.5, 8 * math.pi).I < 0.0

    def test_components_compose(self):
        s = mw.stability_index(0.3, 5 * math.pi)
        assert s.I == pytest.approx(s.dA_dk * s.dV_dk - s.dc_dk * s.dF_dk, rel=1e-14)
        assert s.valid

    def test_dv_dk_is_l_da_dk(self):
        # the mean-level identity V(phi) = a L ties the two index forms together
        k, big_l = 0.4, 6 * math.pi
        grid = mw.PeriodicGrid(big_l, 256)
        for kk in (0.35, 0.4, 0.45):
            p = mw.wave_params(kk, big_l)
            v = mw.functionals(mw.sample_wave(p, grid))[2]
            assert abs(v - p.a * big_l) < 1e-12

        s = mw.stability_index(k, big_l)

        def v_of(kk: float) -> np.ndarray:
            phi = mw.sample_wave(mw.wave_params(kk, big_l), grid)
            return np.array([mw.functionals(phi)[2]])

        dv_direct = float(fd_dk(v_of, k, 1e-3)[0])
        # FD of quadrature-rounded values carries ~eps/h noise, so the two
        # derivative routes can only be certified to 1e-9 here
        assert abs(dv_direct - s.dV_dk) < 1e-9

    def test_step_halving_consistency(self):
        a = fd_index(0.3, 7 * math.pi, 1e-3)[0]
        b = fd_index(0.3, 7 * math.pi, 5e-4)[0]
        assert abs(a - b) < 0.01 * max(abs(a), abs(b))

    @given(k=st.floats(0.02, 0.9), big_l=st.floats(3 * math.pi, 10 * math.pi))
    def test_exact_matches_fd_ladder(self, k, big_l):
        # the FD side carries the error (h^4 truncation plus rounding / h).
        # a is a difference of O(L^2) terms, so its FD values carry about
        # eps L^2 / h ~ 1e-10 of rounding noise, which near k = 0.02 exceeds
        # 1e-4 of da/dk; hence the absolute floor on that component only
        assume(mw.validity(k, big_l).all_ok)
        exact = mw.stability_index(k, big_l)
        _, fd_da, fd_dc, fd_dv, fd_df = fd_index(k, big_l, 1e-3)
        assert exact.dV_dk / big_l == pytest.approx(fd_dv / big_l, rel=1e-4, abs=1e-9)
        for name, fd in (("dA_dk", fd_da), ("dc_dk", fd_dc), ("dF_dk", fd_df)):
            assert getattr(exact, name) == pytest.approx(fd, rel=1e-4)

    @given(k=st.floats(0.02, 0.9), big_l=st.floats(3 * math.pi, 10 * math.pi))
    def test_dF_dk_matches_sampled_momentum_ladder(self, k, big_l):
        # independent oracle for the momentum formula: the FD ladder over F
        # of the profile sampled on 256 nodes (spectral quadrature)
        assume(mw.validity(k, big_l).all_ok)
        grid = mw.PeriodicGrid(big_l, 256)

        def sampled_f(kk: float) -> np.ndarray:
            phi = mw.sample_wave(mw.wave_params(kk, big_l), grid)
            return np.array([mw.functionals(phi)[1]])

        fd = float(fd_dk(sampled_f, k, 1e-3)[0])
        assert mw.stability_index(k, big_l).dF_dk == pytest.approx(fd, rel=1e-4)

    def test_exact_path_cost(self, count_calls):
        # no profile sampling, and one real plus one complex-step K/E
        # evaluation
        jacobi_calls = count_calls(mw.elliptic.jacobi)
        k_e_calls = count_calls(mw.elliptic.complete_k_e)
        s = mw.stability_index(0.3, 5 * math.pi)
        assert s.valid and s.I < 0.0
        assert len(jacobi_calls) == 0
        assert len(k_e_calls) <= 2

    def test_exact_path_domain_error(self):
        for k in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(DomainError):
                mw.stability_index(k, 6 * math.pi)

    def test_invalid_wave_gets_no_index(self):
        # (0.8, 8 pi) exists but violates phi - c < 0
        s = mw.stability_index(0.8, 8 * math.pi)
        assert not s.valid
        assert math.isnan(s.I)


class TestIndexScan:
    def test_small_grids_all_negative(self):
        for (k0, k1, l0, l1) in [(0.02, 0.2, 3 * math.pi, 6 * math.pi),
                                 (0.05, 0.7, 6 * math.pi, 10 * math.pi)]:
            samples, summary = mw.index_scan(k0, k1, l0, l1, 5, 5)
            assert summary.count_positive == 0
            assert summary.max_I < 0.0

    def test_single_cell_matches_pointwise(self):
        samples, summary = mw.index_scan(0.3, 0.3, 5 * math.pi, 5 * math.pi, 1, 1)
        assert len(samples) == 1
        direct = mw.stability_index(0.3, 5 * math.pi)
        assert samples[0].I == pytest.approx(direct.I, rel=1e-12)
        assert summary.min_I == summary.max_I

    def test_invalid_cells_flagged(self):
        # the k = 0.8 row of the second window violates phi - c < 0
        samples, summary = mw.index_scan(0.8, 0.8, 7 * math.pi, 9 * math.pi, 1, 3)
        assert summary.count_invalid == summary.count_cells == 3
        assert all(not s.valid and math.isnan(s.I) for s in samples)

    def test_fd_gate_cell_gets_exact_index(self):
        # just above the discriminant boundary at k = 0.5 (L = 6.21614) the
        # square-root singularity of Delta sits within reach of the h = 1e-3
        # stencil, so the FD oracle's step-halving gate fails; the exact
        # derivatives give I there
        k, big_l = 0.5, 6.2173
        with pytest.raises(AccuracyError):
            fd_index(k, big_l, 1e-3)
        assert np.isnan(fd_index(np.array([k]), np.array([big_l]), 1e-3)).all()
        [cell], _ = mw.index_scan(k, k, big_l, big_l, 1, 1)
        assert cell.valid and math.isfinite(cell.I) and cell.I < 0.0

    def test_fd_gate_passes_at_small_modulus(self):
        # at (0.01, 11.519...) the gate used to fail on the AGM's rounding
        # (E off by up to 650 eps): R(h) and R(h/2) of da/dk were 2% apart,
        # now 1.2e-4; the ladder agrees with the exact derivatives there,
        # and its gate passes at every valid cell of the window
        window = (0.01, 0.2, 3 * math.pi, 6 * math.pi)
        k, big_l = 0.01, 11.519173063162574
        exact = mw.stability_index(k, big_l)
        for name, fd in zip(("dA_dk", "dc_dk", "dV_dk", "dF_dk"), fd_index(k, big_l, 1e-3)[1:]):
            assert fd == pytest.approx(getattr(exact, name), rel=1e-3)
        samples, summary = mw.index_scan(*window, 10, 10)
        valid = [s for s in samples if s.valid]
        assert any(s.k == k and s.L == big_l for s in valid)
        fd_i = fd_index(np.array([s.k for s in valid]), np.array([s.L for s in valid]), 1e-3)[0]
        assert np.all(fd_i < 0.0)  # False at a NaN cell
        invalid = sum(1 for s in samples if not mw.validity(s.k, s.L).all_ok)
        assert summary.count_invalid == invalid
        assert summary.count_positive == 0

    def test_deterministic(self):
        s1, _ = mw.index_scan(0.1, 0.3, 4 * math.pi, 6 * math.pi, 3, 3)
        s2, _ = mw.index_scan(0.1, 0.3, 4 * math.pi, 6 * math.pi, 3, 3)
        assert [(a.k, a.L, a.I) for a in s1] == [(b.k, b.L, b.I) for b in s2]

    def test_range_validation(self):
        with pytest.raises(DomainError):
            mw.index_scan(0.5, 0.2, 3.0, 4.0, 2, 2)
        for nk, nL in [(0, 2), (2, 0), (0, -3)]:
            with pytest.raises(DomainError):
                mw.index_scan(0.2, 0.5, 3.0 * math.pi, 4.0 * math.pi, nk, nL)
        # an infinite L_max used to give NaN and inf periods (and a warning)
        with pytest.raises(DomainError):
            mw.index_scan(0.2, 0.5, 3.0 * math.pi, math.inf, 2, 2)

    def test_huge_periods_are_invalid_cells(self):
        samples, summary = mw.index_scan(0.3, 0.3, 5 * math.pi, 1e60, 1, 3)
        assert [s.valid for s in samples] == [True, False, False]
        assert summary.count_invalid == 2

    @pytest.mark.parametrize("cell,reason", [
        ((0.3, 1e60), "overflow"),        # L**7 overflows
        ((0.3, 1e80), "overflow"),        # L**7, and L**4 of the coefficients, overflow
        ((0.9, math.pi), "discriminant"),
        ((0.8, 8 * math.pi), "ineq_ii"),
        ((1.0 - 1e-13, 6 * math.pi), "domain"),  # above MODULUS_CUTOFF
        ((0.5, 6 * math.pi), ""),
    ])
    def test_reason_of_each_cell(self, cell, reason):
        k, big_l = cell
        [sample], summary = mw.index_scan(k, k, big_l, big_l, 1, 1)
        assert sample.reason == reason and sample.valid == (reason == "")
        assert summary.invalid_reasons == ({reason: 1} if reason else {})

    def test_reasons_counted(self):
        samples, summary = mw.index_scan(0.8, 0.8, 7 * math.pi, 9 * math.pi, 1, 3)
        assert [s.reason for s in samples] == ["ineq_ii"] * 3
        samples, summary = mw.index_scan(0.3, 0.3, 5 * math.pi, 1e60, 1, 3)
        assert [s.reason for s in samples] == ["", "overflow", "overflow"]
        assert summary.invalid_reasons == {"overflow": 2}

    @pytest.mark.parametrize("cell", [(0.3, 1e50), (0.5, 2e44)])
    def test_overflow_once_l7_overflows(self, cell):
        # above DBL_MAX^(1/7) ~ 1.087e44 the cell is refused; below 1.37e51,
        # where the long form for A overflowed, it used to be valid with I
        # and dA/dk underflowed to 0.0
        k, big_l = cell
        with pytest.raises(DomainError, match="too large"):
            mw.wave_params(k, big_l)
        [sample], summary = mw.index_scan(k, k, big_l, big_l, 1, 1)
        assert sample.reason == "overflow" and not sample.valid
        assert summary.invalid_reasons == {"overflow": 1}

    def test_index_measured_just_below_the_overflow_bound(self):
        # I scales as L^-7, so just below the bound it is still a normal float
        s = mw.stability_index(0.3, 0.99 * sys.float_info.max ** (1.0 / 7.0))
        assert s.valid and math.isfinite(s.I) and s.I < 0.0

    @pytest.mark.parametrize("nk,nL", [(1, 1), (10, 10), (25, 4)])
    def test_one_array_pass(self, count_calls, nk, nL):
        # one real K/E evaluation (validity margins) and one complex
        # one (the four derivatives), whatever the grid size; no Jacobi
        # function, no profile
        k_e_calls = count_calls(mw.elliptic.complete_k_e)
        jacobi_calls = count_calls(mw.elliptic.jacobi)
        profile_calls = count_calls(mw.wave.profile)
        samples, _ = mw.index_scan(0.05, 0.8, 6 * math.pi, 10 * math.pi, nk, nL)
        assert len(samples) == nk * nL
        assert [np.iscomplexobj(args[0]) for args in k_e_calls] == [False, True]
        assert jacobi_calls == [] and profile_calls == []


WINDOWS = [(0.01, 0.2, 3 * math.pi, 6 * math.pi), (0.05, 0.8, 6 * math.pi, 10 * math.pi)]


@st.composite
def sub_windows(draw):
    k0, k1, l0, l1 = WINDOWS[draw(st.integers(0, 1))]
    u = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
    v = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
    return (k0 + u[0] * (k1 - k0), k0 + u[1] * (k1 - k0), l0 + v[0] * (l1 - l0),
            l0 + v[1] * (l1 - l0), draw(st.integers(1, 6)), draw(st.integers(1, 6)))


@settings(max_examples=40)
@given(window=sub_windows())
def test_scan_cells_are_single_cells(window):
    # a scan and a single cell run the same array pass: field for field, bit
    # for bit (repr round-trips every float), and NaN exactly where the
    # single cell has no valid wave
    samples, _ = mw.index_scan(*window)
    for cell in samples:
        single = mw.stability_index(cell.k, cell.L)
        assert repr(cell) == repr(single)
        assert math.isnan(cell.I) == (not single.valid)


class TestMorseCheck:
    @pytest.mark.parametrize("k,L", [(0.5, 6 * math.pi), (0.3, 5 * math.pi),
                                     (0.7, 4 * math.pi)])
    def test_identities_at_waves(self, k, L):
        rep = mw.morse_check(k, L)
        assert rep.n_L == 1 and rep.z_L == 1
        assert abs(rep.pairing) > 1e-10
        assert rep.n_identity_holds and rep.z_identity_holds
        # nonzero pairing forces a simple restricted kernel
        assert rep.z_Y0_direct == 1

    def test_constant_limit_deflated(self):
        rep = mw.morse_check(0.0, 2 * math.pi, n=128)
        assert rep.n_L == 1 and rep.z_L == 2
        assert rep.pairing == pytest.approx(-math.pi, abs=1e-8)
        # n(L|Y0) = n(L) - n(pairing) - z(pairing) = 1 - 1 - 0 = 0
        assert rep.n_Y0_predicted == 0 and rep.n_Y0_direct == 0
        assert rep.z_identity_holds


class TestZeroMeanPeriod:
    def test_no_root_at_small_modulus(self):
        # the mean level stays negative at every period
        assert zero_mean_period(0.1) is None

    def test_root_found_at_high_modulus(self):
        l_star = zero_mean_period(0.985)
        assert l_star is not None
        assert abs(mw.wave_params(0.985, l_star).a) < 1e-10
        # the sampled profile has (almost) zero mean there
        p = mw.wave_params(0.985, l_star)
        phi = mw.sample_wave(p, mw.PeriodicGrid(p.L, 256))
        assert abs(mw.integrate(phi) / p.L) < 1e-9

    @pytest.mark.parametrize("k", [0.5, 0.98, 1.0 - 1e-8, 1.0 - 1e-10, 1.0 - 1e-13])
    def test_no_branch_outside_its_window(self, k):
        # R <= 0 below k = 0.98038; R^2 >= 512 Q, so Delta(k, L*) <= 0, near 1
        assert zero_mean_period(k) is None

    @pytest.mark.parametrize("k", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_modulus_outside_unit_interval_raises(self, k):
        for fn in (zero_mean_period, mw.d_second, mw.krein_index):
            with pytest.raises(DomainError):
                fn(k)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.98046, 1.0 - 1e-7))
    def test_mean_changes_sign_at_the_root(self, k):
        # a rises through 0 at L*: the root is the branch, not a stray value
        l_star = zero_mean_period(k)
        assert l_star is not None
        assert mw.wave_params(k, l_star * (1.0 - 1e-8)).a < 0.0
        assert mw.wave_params(k, l_star * (1.0 + 1e-8)).a > 0.0

    def test_elementwise_over_real_and_complex_moduli(self):
        ks = np.array([0.5, 0.985, 0.999, 1.0 - 1e-13])
        l_star = _zero_mean_l(ks)
        assert np.isnan(l_star[[0, 3]]).all()
        assert l_star[1] == zero_mean_period(0.985)
        assert l_star[2] == zero_mean_period(0.999)
        # the complex step through the closed form against the FD oracle
        dl_dk = np.imag(_zero_mean_l(ks[1:3] + 1e-30j)) / 1e-30
        oracle = fd_dk(lambda kk: _zero_mean_l(kk)[None], ks[1:3], 1e-5)[0]
        assert dl_dk == pytest.approx(oracle, rel=1e-6)


class TestDSecond:
    def test_absent_branch_returns_none(self):
        assert mw.d_second(0.5) is None

    def test_branch_values_and_crosschecks(self):
        rep = mw.d_second(0.985)
        assert rep is not None
        assert rep.L_star == pytest.approx(34.9136, rel=1e-4)
        # the chain-rule shortcut d'(c) = F(phi) misses the period-variation
        # term on this branch; the direct value differs by ~1.7%
        assert rep.d_prime_direct == pytest.approx(rep.d_prime, rel=0.03)
        # central difference of the direct d'(c) over c, from k +- 1e-3
        step = 1e-3
        hi, lo = mw.d_second(0.985 + step), mw.d_second(0.985 - step)
        d2_fd = (hi.d_prime_direct - lo.d_prime_direct) / (2.0 * step) / rep.dc_dk
        assert d2_fd == pytest.approx(rep.d_second, rel=0.05)
        assert rep.dc_dk > 0.0
        # the FD oracle over the branch
        dc_dk, df_dk = fd_dk(lambda kk: np.array(_branch_state(kk)[1:3]), 0.985, 2.5e-4)
        assert rep.d_second == pytest.approx(df_dk / dc_dk, rel=1e-6)

    def test_period_variation_term_explains_gap(self):
        # d'(c)_direct - F = L'(c) * ([e + c f](0) - A phi(0)) with the
        # energy/momentum densities evaluated at the profile minimum
        k, h = 0.985, 2.5e-4
        rep = mw.d_second(k)
        l_hi = zero_mean_period(k + h)
        l_lo = zero_mean_period(k - h)
        c_hi = mw.wave_params(k + h, l_hi).c
        c_lo = mw.wave_params(k - h, l_lo).c
        dl_dc = (l_hi - l_lo) / (c_hi - c_lo)
        p = mw.wave_params(k, rep.L_star)
        phi0 = mw.profile(p, 0.0)[0]
        density = -(phi0**4) / 4.0 + p.c * 0.5 * phi0**2
        predicted = dl_dc * (density - p.A * phi0)
        assert rep.d_prime_direct - rep.d_prime == pytest.approx(predicted, rel=0.01)


class TestBranchOracle:
    """50-digit mpmath oracle for the zero-mean branch: L* by a bracketed
    root of a(k, L), d''(c) by differentiating c and F along it."""

    @staticmethod
    def coeffs(k, big_l):
        # mpmath's ellipk/ellipe take the parameter m = k^2
        m = k * k
        big_k, big_e = mp.ellipk(m), mp.ellipe(m)
        root = mp.sqrt(9 * big_l**4 - 2048 * big_k**4 * (1 - m + m * m))
        half_root = root / 2
        a = -(-32 * (2 - m) * big_k**2 + 96 * big_e * big_k + 3 * big_l**2 / 2
              - half_root) / (3 * big_l**2)
        b = -32 * big_k**2 / big_l**2
        c = (3 * big_l**2 / 2 - half_root) / big_l**2
        return a, b, c, big_k, big_e

    def l_star(self, k):
        # a < 0 just above the discriminant boundary; step out to a sign change
        m = k * k
        lo = (2048 * mp.ellipk(m) ** 4 * (1 - m + m * m) / 9) ** mp.mpf(0.25)
        lo, hi = lo * (1 + mp.mpf(10) ** -40), lo * mp.mpf(1.01)

        def mean(big_l):
            return self.coeffs(k, big_l)[0]

        while mean(hi) < 0:
            lo, hi = hi, hi * mp.mpf(1.1)
        return mp.findroot(mean, (lo, hi), solver="anderson")

    def speed(self, k):
        return self.coeffs(k, self.l_star(k))[2]

    def momentum(self, k):
        # (1/2) int phi^2 + phi'^2 by quadrature over the amplitude t,
        # sn = sin t, cn = cos t, dn = sqrt(1 - m sin^2 t), du = dt / dn
        big_l = self.l_star(k)
        a, b, _, big_k, big_e = self.coeffs(k, big_l)
        m, omega = k * k, 2 * big_k / big_l

        def integrand(t):
            sn, cn = mp.sin(t), mp.cos(t)
            dn = mp.sqrt(1 - m * sn**2)
            phi = a + b * (dn**2 - big_e / big_k)
            dphi = -2 * m * b * omega * sn * cn * dn
            return (phi**2 + dphi**2) / dn

        return big_l / (2 * big_k) * mp.quad(integrand, [0, mp.pi / 2])

    @pytest.mark.parametrize("k", [0.981, 0.985, 0.995, 0.999, 0.999999])
    def test_closed_form_root_and_complex_step_d_second(self, k):
        rep = mw.d_second(k)
        with mp.workdps(50):
            kk = mp.mpf(k)
            l_star = self.l_star(kk)
            d2 = mp.diff(self.momentum, kk) / mp.diff(self.speed, kk)
            assert rep.L_star == pytest.approx(float(l_star), rel=1e-13)
            assert rep.d_second == pytest.approx(float(d2), rel=1e-9)


class TestKrein:
    def test_bad_grid_size_raises(self):
        # n reaches only the operator grid of morse_check, which refuses 15
        with pytest.raises(DomainError):
            mw.krein_index(0.985, n=15)

    def test_default_path_samples_nothing(self, count_calls):
        # the branch and its k-derivatives are closed forms, one real and one
        # complex-step K/E evaluation; the one profile sampling is the
        # operator of morse_check
        jacobi_calls = count_calls(mw.elliptic.jacobi)
        profile_calls = count_calls(mw.wave.profile)
        k_e_calls = count_calls(mw.elliptic.complete_k_e)

        def k_e_kinds():
            kinds = ["complex" if np.iscomplexobj(args[0]) else "real" for args in k_e_calls]
            k_e_calls.clear()
            return kinds

        assert mw.d_second(0.985) is not None
        assert (len(jacobi_calls), len(profile_calls)) == (0, 0)
        assert k_e_kinds() == ["real", "complex"]
        rep = mw.krein_index(0.985, n=128)
        assert rep.z_L == 1
        # the branch, then the wave at (k, L*) and its profile
        assert k_e_kinds() == ["real", "complex", "real", "real"]
        assert len(profile_calls) == 1 and len(jacobi_calls) == 1

    def test_period_is_computed_not_given(self):
        # L* follows from k in closed form: no entry point takes a bracket
        for fn, params in ((zero_mean_period, ["k"]), (mw.d_second, ["k"]),
                           (mw.krein_index, ["k", "n"])):
            assert list(inspect.signature(fn).parameters) == params

    def test_only_a_singular_branch_reads_indeterminate(self, monkeypatch):
        def singular(*args, **kwargs):
            raise mw.SingularError("dc/dk = 0")

        monkeypatch.setattr(mw.indices, "d_second", singular)
        assert mw.krein_index(0.985).classification == "indeterminate"

        def failure(*args, **kwargs):
            raise mw.NumericalError("any other failure")

        monkeypatch.setattr(mw.indices, "d_second", failure)
        with pytest.raises(mw.NumericalError):
            mw.krein_index(0.985)

    def test_refuses_a_kernel_that_is_not_simple(self, monkeypatch):
        # morse_check deflates any kernel; the K_Ham formula needs a simple one
        def double_kernel(k, L, n=256):
            return mw.MorseReport(n_L=1, z_L=2, pairing=-1.0, n_Y0_direct=0, z_Y0_direct=2,
                                  n_Y0_predicted=0, z_Y0_predicted=2)

        monkeypatch.setattr(mw.indices, "morse_check", double_kernel)
        with pytest.raises(mw.RankError, match="kernel dimension 2"):
            mw.krein_index(0.985, n=128)

    def test_branch_absent_indeterminate(self):
        rep = mw.krein_index(0.5)
        assert rep.classification == "indeterminate"
        assert math.isnan(rep.pairing)

    def test_zero_mean_branch_report_consistent(self):
        # at the only existing branch phi - c changes sign, the principal
        # part is indefinite, and the counting setting collapses; the
        # report must stay internally consistent and refuse a verdict
        rep = mw.krein_index(0.985, n=128)
        assert rep.z_L == 1
        assert rep.n_L > 1
        d_count = 1 if rep.D < 0 else 0
        assert rep.K_Ham == rep.n_L_Y0 - d_count
        assert rep.classification == "indeterminate"

    def test_classification_rules(self):
        # the three sign cases discussed for the Krein count
        assert classify(1, pairing=2.0, big_d=-3.0) == "stable"      # d''(c) > 0
        assert classify(1, pairing=2.0, big_d=3.0) == "unstable"     # d''(c) < 0
        assert classify(0, pairing=-2.0, big_d=3.0) == "stable"      # cautionary case
        assert classify(1, pairing=0.0, big_d=-3.0) == "indeterminate"
        assert classify(1, pairing=2.0, big_d=0.0) == "indeterminate"
        # the difference count is what decides, not n(L|Y0) alone
        assert classify(2, pairing=2.0, big_d=-3.0) == "unstable"
        assert classify(3, pairing=2.0, big_d=3.0) == "indeterminate"


def test_one_decomposition_per_operator(monkeypatch, tmp_path):
    # each entry point decomposes the n x n operator once, as its even
    # (n/2 + 1) and odd (n/2 - 1) parity blocks (eigenvalues, counts, zero
    # tolerance and pairing share them); the even block without its mean
    # mode is taken from the even eigenpairs, with no solve of its own
    sizes = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, **kwargs):
            sizes.append(a.shape[0])
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    mw.morse_check(0.5, 6 * math.pi)
    assert sorted(sizes) == [127, 129]
    sizes.clear()
    mw.krein_index(0.985, n=128)
    assert sorted(sizes) == [63, 65]
    sizes.clear()
    assert dispatch(["spectrum", "--k", "0.5", "--L", "6pi", "--n", "128",
                     "--out-dir", str(tmp_path)]) == EXIT_OK
    assert sorted(sizes) == [63, 65]
