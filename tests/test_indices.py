"""Stability index, Morse identities, zero-mean branch, Krein machinery."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from mpmath import mp

import mchwave as mw
from mchwave import AccuracyError, DomainError
from mchwave.cli import EXIT_OK, dispatch
from mchwave.indices import classify, zero_mean_period


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

        from mchwave.wave import fd_dk
        dv_direct = float(fd_dk(v_of, k, 1e-3)[0])
        # FD of quadrature-rounded values carries ~eps/h noise, so the two
        # derivative routes can only be certified to 1e-9 here
        assert abs(dv_direct - s.dV_dk) < 1e-9

    def test_step_halving_consistency(self):
        a = mw.stability_index(0.3, 7 * math.pi, h=1e-3)
        b = mw.stability_index(0.3, 7 * math.pi, h=5e-4)
        assert abs(a.I - b.I) < 0.01 * max(abs(a.I), abs(b.I))

    def test_stencil_domain_error(self):
        with pytest.raises(DomainError):
            mw.stability_index(0.82, 2.4 * math.pi, h=2e-2)

    @given(k=st.floats(0.02, 0.9), big_l=st.floats(3 * math.pi, 10 * math.pi))
    def test_exact_matches_fd_ladder(self, k, big_l):
        # the FD side carries the error (h^4 truncation plus rounding / h).
        # a is a difference of O(L^2) terms, so its FD values carry about
        # eps L^2 / h ~ 1e-10 of rounding noise, which near k = 0.02 exceeds
        # 1e-4 of da/dk; hence the absolute floor on that component only
        assume(mw.validity(k, big_l).all_ok)
        exact = mw.stability_index(k, big_l)
        fd = mw.stability_index(k, big_l, h=1e-3)
        assert exact.dV_dk / big_l == pytest.approx(fd.dV_dk / big_l, rel=1e-4, abs=1e-9)
        for name in ("dA_dk", "dc_dk", "dF_dk"):
            assert getattr(exact, name) == pytest.approx(getattr(fd, name), rel=1e-4)

    @given(k=st.floats(0.02, 0.9), big_l=st.floats(3 * math.pi, 10 * math.pi))
    def test_dF_dk_matches_sampled_momentum_ladder(self, k, big_l):
        # independent oracle for the momentum formula: the FD ladder over F
        # of the profile sampled on 256 nodes (spectral quadrature)
        assume(mw.validity(k, big_l).all_ok)
        grid = mw.PeriodicGrid(big_l, 256)

        def sampled_f(kk: float) -> np.ndarray:
            phi = mw.sample_wave(mw.wave_params(kk, big_l), grid)
            return np.array([mw.functionals(phi)[1]])

        from mchwave.wave import fd_dk
        fd = float(fd_dk(sampled_f, k, 1e-3)[0])
        assert mw.stability_index(k, big_l).dF_dk == pytest.approx(fd, rel=1e-4)

    def test_exact_path_cost(self, count_calls):
        # no profile sampling, no finite differences, and one real plus
        # one complex-step K/E evaluation
        jacobi_calls = count_calls(mw.elliptic.jacobi)
        fd_calls = count_calls(mw.wave.fd_dk)
        k_e_calls = count_calls(mw.elliptic.complete_k_e)
        s = mw.stability_index(0.3, 5 * math.pi)
        assert s.valid and s.I < 0.0
        assert len(jacobi_calls) == 0 and len(fd_calls) == 0
        assert len(k_e_calls) <= 2

    def test_exact_path_domain_error(self):
        for k in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(DomainError):
                mw.stability_index(k, 6 * math.pi)

    def test_nan_fd_step_fails_the_stencil_check(self):
        # every comparison with NaN is False, so the stencil check used to
        # pass it on to the elliptic kernel
        with pytest.raises(DomainError, match="FD stencil"):
            mw.stability_index(0.5, 6 * math.pi, h=math.nan)

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
        # at k = 0.01 the FD ladder's step-halving gate fails, so this cell
        # of the 10 x 10 scan was NaN; the exact derivatives give I there
        window = (0.01, 0.2, 3 * math.pi, 6 * math.pi)
        k, big_l = 0.01, 11.519173063162574
        with pytest.raises(AccuracyError):
            mw.stability_index(k, big_l, h=1e-3)
        samples, summary = mw.index_scan(*window, 10, 10)
        cell = next(s for s in samples if s.k == k and s.L == big_l)
        assert cell.valid and math.isfinite(cell.I) and cell.I < 0.0
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

    @pytest.mark.parametrize("h", [math.nan, math.inf, -1e-3, 0.0])
    def test_bad_fd_step_raises_before_any_cell(self, h, count_calls):
        # each cell used to turn the step's DomainError into an anonymous NaN
        cells = count_calls(mw.indices.stability_index)
        with pytest.raises(DomainError, match="FD step"):
            mw.index_scan(0.2, 0.5, 3.0 * math.pi, 4.0 * math.pi, 2, 2, h=h)
        assert cells == []

    def test_huge_periods_are_invalid_cells(self):
        samples, summary = mw.index_scan(0.3, 0.3, 5 * math.pi, 1e60, 1, 3)
        assert [s.valid for s in samples] == [True, False, False]
        assert summary.count_invalid == 2


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
        # the mean level stays negative through the bracket
        assert zero_mean_period(0.1, (3 * math.pi, 20 * math.pi)) is None

    def test_root_found_at_high_modulus(self):
        l_star = zero_mean_period(0.985, (12.5, 200.0))
        assert l_star is not None
        assert abs(mw.wave_params(0.985, l_star).a) < 1e-10
        # the sampled profile has (almost) zero mean there
        p = mw.wave_params(0.985, l_star)
        phi = mw.sample_wave(p, mw.PeriodicGrid(p.L, 256))
        assert abs(mw.integrate(phi) / p.L) < 1e-9

    def test_bracket_leaving_domain(self):
        with pytest.raises(DomainError):
            zero_mean_period(0.985, (5.0, 40.0))  # lower end has Delta < 0

    def test_bad_bracket(self):
        with pytest.raises(DomainError):
            zero_mean_period(0.5, (10.0, 3.0))


class TestDSecond:
    def test_absent_branch_returns_none(self):
        assert mw.d_second(0.5, (4 * math.pi, 12 * math.pi)) is None

    def test_branch_values_and_crosschecks(self):
        rep = mw.d_second(0.985, (12.5, 200.0))
        assert rep is not None
        assert rep.L_star == pytest.approx(34.9136, rel=1e-4)
        # the chain-rule shortcut d'(c) = F(phi) misses the period-variation
        # term on this branch; the direct FD value differs by ~1.7%
        assert rep.d_prime_fd == pytest.approx(rep.d_prime, rel=0.03)
        assert rep.d_second_fd == pytest.approx(rep.d_second, rel=0.05)
        assert rep.dc_dk > 0.0

    def test_period_variation_term_explains_gap(self):
        # d'(c)_fd - F = L'(c) * ([e + c f](0) - A phi(0)) with the
        # energy/momentum densities evaluated at the profile minimum
        k, h = 0.985, 2.5e-4
        rep = mw.d_second(k, (12.5, 200.0), h=h)
        l_hi = zero_mean_period(k + h, (12.5, 200.0))
        l_lo = zero_mean_period(k - h, (12.5, 200.0))
        c_hi = mw.wave_params(k + h, l_hi).c
        c_lo = mw.wave_params(k - h, l_lo).c
        dl_dc = (l_hi - l_lo) / (c_hi - c_lo)
        p = mw.wave_params(k, rep.L_star)
        phi0 = mw.profile(p, 0.0)[0]
        density = -(phi0**4) / 4.0 + p.c * 0.5 * phi0**2
        predicted = dl_dc * (density - p.A * phi0)
        assert rep.d_prime_fd - rep.d_prime == pytest.approx(predicted, rel=0.01)


class TestBranchOracle:
    """50-digit mpmath oracle for the zero-mean branch at k = 0.985."""

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
        return mp.findroot(lambda big_l: self.coeffs(k, big_l)[0], mp.mpf(34.9))

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

    def test_newton_root_and_complex_step_d_second(self):
        rep = mw.d_second(0.985, (12.5, 200.0))
        with mp.workdps(50):
            k = mp.mpf(0.985)
            l_star = self.l_star(k)
            d2 = mp.diff(self.momentum, k) / mp.diff(self.speed, k)
            assert rep.L_star == pytest.approx(float(l_star), rel=1e-12)
            assert rep.d_second == pytest.approx(float(d2), rel=1e-9)


class TestKrein:
    def test_bad_grid_size_raises(self):
        # n reaches only the operator grid of morse_check, which refuses 15
        with pytest.raises(DomainError):
            mw.krein_index(0.985, (12.5, 200.0), n=15)

    def test_default_path_samples_nothing(self, count_calls):
        # the branch, its k-derivatives and both cross-checks are closed
        # forms; the one profile sampling is the operator of morse_check
        jacobi_calls = count_calls(mw.elliptic.jacobi)
        profile_calls = count_calls(mw.wave.profile)
        fd_calls = count_calls(mw.wave.fd_dk)
        solves = count_calls(mw.indices.zero_mean_period)
        assert mw.d_second(0.985, (12.5, 200.0)) is not None
        assert (len(jacobi_calls), len(profile_calls), len(fd_calls)) == (0, 0, 0)
        # the root at k and the two at k +- step of the cross-check
        assert len(solves) == 3
        solves.clear()
        rep = mw.krein_index(0.985, (12.5, 200.0), n=128)
        assert rep.z_L == 1
        assert len(fd_calls) == 0 and len(solves) == 3
        assert len(profile_calls) == 1 and len(jacobi_calls) == 1

    @pytest.mark.parametrize("bracket", [(12.5, 34.92), (34.9, 34.92)])
    def test_bracket_only_has_to_hold_the_root(self, bracket):
        # L* = 34.9136 at k = 0.985 moves by about 4 over the stencil step
        # 1e-3; the stencil points follow the branch, not the bracket
        wide = mw.d_second(0.985, (12.5, 200.0))
        tight = mw.d_second(0.985, bracket)
        assert tight.L_star == pytest.approx(wide.L_star, rel=1e-12)
        assert tight.d_second == pytest.approx(wide.d_second, rel=1e-10)
        assert tight.d_second_fd == pytest.approx(wide.d_second_fd, rel=1e-8)
        assert mw.d_second(0.985, bracket, h=2.5e-4).d_second == pytest.approx(
            wide.d_second, rel=1e-6)
        rep = mw.krein_index(0.985, bracket, n=128)
        assert rep.D == pytest.approx(-wide.d_second, rel=1e-10)
        assert rep.K_Ham == mw.krein_index(0.985, (12.5, 200.0), n=128).K_Ham

    def test_only_a_singular_branch_reads_indeterminate(self, monkeypatch):
        def singular(*args, **kwargs):
            raise mw.SingularError("dc/dk = 0")

        monkeypatch.setattr(mw.indices, "d_second", singular)
        assert mw.krein_index(0.985, (12.5, 200.0)).classification == "indeterminate"

        def no_convergence(*args, **kwargs):
            raise mw.NumericalError("zero-mean Newton iteration did not converge")

        monkeypatch.setattr(mw.indices, "d_second", no_convergence)
        with pytest.raises(mw.NumericalError):
            mw.krein_index(0.985, (12.5, 200.0))

    def test_refuses_a_kernel_that_is_not_simple(self, monkeypatch):
        # morse_check deflates any kernel; the K_Ham formula needs a simple one
        def double_kernel(k, L, n=256):
            return mw.MorseReport(n_L=1, z_L=2, pairing=-1.0, n_Y0_direct=0, z_Y0_direct=2,
                                  n_Y0_predicted=0, z_Y0_predicted=2)

        monkeypatch.setattr(mw.indices, "morse_check", double_kernel)
        with pytest.raises(mw.RankError, match="kernel dimension 2"):
            mw.krein_index(0.985, (12.5, 200.0), n=128)

    def test_branch_absent_indeterminate(self):
        rep = mw.krein_index(0.5, (4 * math.pi, 12 * math.pi))
        assert rep.classification == "indeterminate"
        assert math.isnan(rep.pairing)

    def test_zero_mean_branch_report_consistent(self):
        # at the only existing branch phi - c changes sign, the principal
        # part is indefinite, and the counting setting collapses; the
        # report must stay internally consistent and refuse a verdict
        rep = mw.krein_index(0.985, (12.5, 200.0), n=128)
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
    mw.krein_index(0.985, (12.5, 200.0), n=128)
    assert sorted(sizes) == [63, 65]
    sizes.clear()
    assert dispatch(["spectrum", "--k", "0.5", "--L", "6pi", "--n", "128",
                     "--out-dir", str(tmp_path)]) == EXIT_OK
    assert sorted(sizes) == [63, 65]
