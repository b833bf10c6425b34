"""Wave construction: parameter maps, profiles, residuals, derivatives."""

import ast
import dataclasses
import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mchwave as mw
from mchwave import DomainError
from mchwave.cli import dispatch
from mchwave.elliptic import MODULUS_CUTOFF
from mchwave.indices import _index_cells
from mchwave.wave import _closed_forms, _energy, _k_e_or_nan, _waves

from conftest import (AccuracyError, a_closed_form, closed_form_dk, closed_forms, fd_dk,
                      integrate, wave_oracle)

# mchwave.__all__: the public classes and functions; no submodule
PUBLIC_NAMES = [
    "AssemblyError", "BlowUpError", "DSecondReport", "DomainError", "EvolutionConfig",
    "IndexSample", "KreinReport", "LinearGrowthReport", "MchError", "MorseReport",
    "NumericalError", "OperatorMatrix", "PairingReport", "PeriodicField", "PeriodicGrid",
    "RankError", "ScanSummary", "SingularError", "SnoidalParams", "SpectralReport",
    "StabilityRunReport", "ValidityReport", "WaveParams", "assemble_l", "complete_k_e",
    "d_second", "derivative", "evolution_spectrum", "fractional_shift", "functionals",
    "h1_norm", "index_scan", "inv_one_pairing", "jacobi", "krein_index", "linearized_run",
    "morse_check", "ode_residual", "operator_for", "orbital_experiment", "profile",
    "restricted_spectrum", "run", "sample_wave", "snoidal_form", "spectrum",
    "stability_index", "suggested_dt", "validity", "wave_at", "zero_mean_period",
]


def names_in_package(names: set) -> list:
    """(module, name) for each identifier of ``names`` that a module of the
    package defines or names."""
    return [(path.name, getattr(node, field))
            for path in Path(mw.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            for field in ("name", "id", "attr", "asname", "arg")
            if getattr(node, field, None) in names]


class TestWaveParams:
    def test_constant_limit(self):
        # k -> 0 at L = 2 pi degenerates to a = -1, b = -2, c = 1, A = 0
        p = mw.wave_at(0.0, 2.0 * math.pi)[0]
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
        p = mw.wave_at(0.0, L)[0]
        assert (p.a, p.b, p.c, p.A) == (a, -8.0 * math.pi**2 / (L * L), c, -a**3 + c * a)

    @pytest.mark.parametrize("big_l", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_constant_wave_bad_period(self, big_l):
        with pytest.raises(DomainError):
            mw.wave_at(0.0, big_l)[0]
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
            mw.wave_at(0.9, math.pi)

    def test_modulus_domain(self):
        for k in (1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                mw.wave_at(k, 6.0 * math.pi)

    @pytest.mark.parametrize("big_l", [2e51, 3e51, 1e60, 1e80])
    def test_huge_period_is_a_domain_error(self, big_l):
        # L**7 overflows above DBL_MAX^(1/7), about 1.087e44, L**4 in the
        # coefficients above about 1e77: an OverflowError before
        with pytest.raises(DomainError, match="too large"):
            mw.wave_at(0.5, big_l)

    @pytest.mark.parametrize("k,big_l", [(0.5, 1e-200), (0.5, 5e-324), (0.5, 1e300),
                                         (0.5, -1e300), (1e200, 10.0), (-1e300, 10.0)])
    def test_extreme_inputs_are_refused_without_warnings(self, k, big_l):
        # the closed forms work on arrays and must neither overflow nor divide
        # by zero where they refuse a cell (RuntimeWarnings fail the suite)
        rep = mw.validity(k, big_l)
        assert not rep.discriminant_ok and not rep.all_ok
        assert math.isnan(rep.ineq_i_value) and math.isnan(rep.ineq_ii_margin)
        with pytest.raises(DomainError):
            mw.wave_at(k, big_l)

    @pytest.mark.parametrize("k", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("big_l", [20.0, 1e2, 1e3, 1e4, 1e5])
    def test_speed_does_not_cancel_at_long_periods(self, k, big_l):
        # oracle: c = X / (2 (3 + sqrt(9 - X))), X = 2048 K^4 (1 - k^2 + k^4) / L^4,
        # the root of c^2 - 3c + X/4 = 0 free of the cancelling subtraction
        # 1.5 L^2 - sqrt(Delta)/2
        x = 2048.0 * mw.complete_k_e(k)[0] ** 4 * (1.0 - k * k + k**4) / big_l**4
        expected = x / (2.0 * (3.0 + math.sqrt(9.0 - x)))
        c = mw.wave_at(k, big_l)[0].c
        assert abs(c - expected) <= 1e-14 * expected
        assert c > 0.0

    def test_param_bounds_on_grid(self):
        for k in np.linspace(0.05, 0.8, 10):
            for big_l in np.linspace(3 * math.pi, 10 * math.pi, 10):
                p = mw.wave_at(float(k), float(big_l))[0]
                assert p.b < 0.0
                assert 0.0 < p.c < 1.5

    def test_integration_constant_cross_check(self):
        # the published long closed form, evaluated on the whole 10 x 10 grid
        # in one call, agrees with the ODE evaluation
        ks, ls = np.meshgrid(np.linspace(0.05, 0.8, 10), np.linspace(3 * math.pi, 10 * math.pi, 10))
        closed = a_closed_form(ks, ls)[0]
        ode = np.array([mw.wave_at(k, big_l)[0].A for k, big_l in zip(ks.flat, ls.flat)])
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
        (a, _, _, ode), _, reason = _waves(ks, ls)
        has_wave = ~np.isnan(a)
        assert np.count_nonzero(reason == "") > 0 and np.all(has_wave[reason == ""])
        closed, floor = (v[has_wave] for v in a_closed_form(ks, ls))
        assert np.all(np.abs(ode[has_wave] - closed) <= 1e3 * floor)
        closed, floor = a_closed_form(0.5, 20.0)
        assert 1e-16 < floor < 1e-15
        assert abs(mw.wave_at(0.5, 20.0)[0].A + 1e-9 - closed) > 1e3 * floor


class TestProfile:
    def test_constant_profile(self):
        p = mw.wave_at(0.0, 2.0 * math.pi)[0]
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
            p = mw.wave_at(k, big_l)[0]
            grid = mw.PeriodicGrid(p.L, 256)
            phi = mw.sample_wave(p, grid)
            assert abs(integrate(phi) / p.L - p.a) < 1e-10


class TestSnoidalForm:
    def test_constant_limit_degenerates(self):
        p = mw.wave_at(0.0, 2.0 * math.pi)[0]
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
                p = mw.wave_at(float(k), float(big_l))[0]
                assert mw.ode_residual(p, 512) < 1e-8

    def test_constant_wave_residual(self):
        assert mw.ode_residual(mw.wave_at(0.0, 2.0 * math.pi)[0], 64) < 1e-14

    def test_offset_constant_shifts_residual(self, wave05):
        shifted = dataclasses.replace(wave05, A=wave05.A + 1.0)
        assert mw.ode_residual(shifted, 64) == pytest.approx(1.0, rel=1e-10)

    def test_sample_count_precondition(self, wave05):
        with pytest.raises(DomainError):
            mw.ode_residual(wave05, 8)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 16.5])
    def test_sample_count_not_an_integer_refused(self, wave05, n):
        # nan and inf used to raise an untyped ValueError from np.arange, and
        # 16.5 was accepted
        with pytest.raises(DomainError, match="integer"):
            mw.ode_residual(wave05, n)
        assert mw.ode_residual(wave05, 17) < 1e-8


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
               1e-300, 1e300, -1e300, 1.0, MODULUS_CUTOFF, 1.0 - 1e-13, 1.087e44, 1.1e44]
ANY_MODULUS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats(0.0, 1.0))
ANY_PERIOD = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats(0.0, 60.0))


def documented_reason(k: float, big_l: float, rep) -> str:
    """The reason of (k, L) by the rules of the mchwave.wave docstring, in
    their order: domain, overflow, discriminant (Delta from complete_k_e),
    then the first margin of ``rep`` that is not negative."""
    if not (0.0 <= k <= MODULUS_CUTOFF and 0.0 < big_l < math.inf):
        return "domain"
    try:
        big_l**7
    except OverflowError:
        return "overflow"
    big_k, k2 = mw.complete_k_e(k)[0], k * k
    if not 9.0 * big_l**4 - 2048.0 * big_k**4 * (1.0 - k2 + k2 * k2) > 0.0:
        return "discriminant"
    return ("ineq_i" if not rep.ineq_i_value < 0.0
            else "ineq_ii" if not rep.ineq_ii_margin < 0.0 else "")


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
        self.check_margin_against_sampling(rep, mw.wave_at(k, big_l)[0])

    @pytest.mark.parametrize("big_l", [2.2 * math.pi, 2.5 * math.pi, 3 * math.pi,
                                       4 * math.pi, 6 * math.pi, 7.3 * math.pi,
                                       10 * math.pi, 14 * math.pi])
    def test_constant_wave_margin(self, big_l):
        rep = mw.validity(0.0, big_l)
        self.check_margin_against_sampling(rep, mw.wave_at(0.0, big_l)[0])
        # c^2 - 3c + 32 pi^4 / L^4 vanishes identically: the boundary, never valid
        assert rep.ineq_i_value == 0.0
        assert not rep.all_ok

    def test_above_k1_fails_second_inequality(self):
        # at k = 0.8 with L in the second scan range, phi - c > 0 somewhere
        rep = mw.validity(0.8, 8.0 * math.pi)
        assert rep.discriminant_ok
        assert rep.ineq_ii_margin > 0.0
        assert not rep.all_ok

    @settings(max_examples=200)
    @given(cells=st.lists(st.tuples(ANY_MODULUS, ANY_PERIOD), min_size=1, max_size=6))
    def test_reason_follows_the_documented_rules(self, cells):
        # any floats, non-finite, signed zeros, subnormals and huge ones among
        # them: validity neither raises nor warns and names the first rule of
        # the module docstring that fails; wave_at refuses exactly the cells
        # without a wave, and the index pass gives every cell of one array
        # the same reason
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = []
            for k, big_l in cells:
                rep = mw.validity(k, big_l)
                expected.append(documented_reason(k, big_l, rep))
                assert rep.reason == expected[-1]
                if expected[-1] in ("domain", "overflow", "discriminant"):
                    with pytest.raises(DomainError):
                        mw.wave_at(k, big_l)
                else:
                    assert mw.wave_at(k, big_l)[1].reason == expected[-1]
            samples = _index_cells(*(np.array(v, float) for v in zip(*cells)))
        for sample, reason in zip(samples, expected):
            assert sample.reason == reason or (reason, sample.reason) == ("", "underflow")


class TestMomentumClosedForm:
    @pytest.mark.parametrize("k", [0.05, 0.3, 0.7])
    def test_matches_sampled_functional(self, k):
        # the spectral quadrature of the sampled profile is exact to
        # rounding for this smooth periodic integrand
        for big_l in (4.0 * math.pi, 7.0 * math.pi):
            p = mw.wave_at(k, big_l)[0]
            sampled = mw.functionals(mw.sample_wave(p, mw.PeriodicGrid(big_l, 256)))[1]
            assert closed_forms(k, big_l)[4] == pytest.approx(sampled, rel=1e-13)

    def test_real_k_reproduces_wave_at(self):
        p = mw.wave_at(0.4, 6.0 * math.pi)[0]
        assert closed_forms(p.k, p.L)[:4] == (p.a, p.b, p.c, p.A)


class TestEnergyClosedForm:
    @pytest.mark.parametrize("k,big_l", [(0.3, 4 * math.pi), (0.5, 6 * math.pi),
                                         (0.9, 20.0), (0.985, 34.9)])
    def test_matches_sampled_functional(self, k, big_l):
        p = mw.wave_at(k, big_l)[0]
        sampled = mw.functionals(mw.sample_wave(p, mw.PeriodicGrid(big_l, 1024)))[0]
        big_k, big_e = mw.complete_k_e(k)
        a, b = _closed_forms(k, big_l, big_k, big_e)[:2]
        assert _energy(a, b, k, big_k, big_e, big_l) == pytest.approx(sampled, rel=1e-12)


# Cells (k, L / pi) of the 50-digit oracle over k in [0.01, 0.99]: valid
# waves, then waves the second margin refuses (no cell there fails the first).
ORACLE_VALID = [(k, big_l) for k in (0.01, 0.03, 0.1, 0.3, 0.5, 0.7) for big_l in (3, 8, 30)] + [
    (0.8, 3), (0.8, 4), (0.9, 3), (0.9, 4), (0.95, 4), (0.99, 4.5), (0.99, 5)]
ORACLE_INEQ_II = [(0.8, 6), (0.8, 30), (0.9, 8), (0.95, 10), (0.99, 6), (0.99, 30)]
# Relative error bounds against the oracle over ORACLE_VALID, about 3x the
# worst error measured: a 1.1e-15, b 3.1e-16, c 5.9e-16, A 3.8e-14 (at
# (0.7, 30 pi)), F 1.0e-15, E 6.4e-14, I 3.0e-11, the margins 3.8e-16.  A
# is held relative to the size of its ODE terms at x = L/2, |A| + |phi|^3 +
# |c phi|, and each margin to the size of its terms: the terms cancel.  I's
# bound is set by k = 0.01, where its terms cancel (ROADMAP item 9); from
# k = 0.1 up its error is below 1e-13.
ORACLE_BOUNDS = {"a": 4e-15, "b": 1e-15, "c": 2e-15, "A": 1e-13, "F": 4e-15, "E": 2e-13,
                 "I": 1e-10, "margins": 1e-15}


class TestClosedFormOracle:
    """The floats of the closed forms against the 50-digit transcription of
    ``conftest.wave_oracle``: its K, E and period means come from mpmath."""

    @staticmethod
    def cells(cells) -> tuple:
        return np.array([k for k, _ in cells]), np.array([big_l for _, big_l in cells]) * math.pi

    def test_valid_cells_match(self):
        ks, ls = self.cells(ORACLE_VALID)
        big_k, big_e = _k_e_or_nan(ks)
        forms = _closed_forms(ks, ls, big_k, big_e)
        energy = _energy(forms[0], forms[1], ks, big_k, big_e, ls)
        waves, margins, reason = _waves(ks, ls)
        assert reason.tolist() == [""] * len(ks)
        index = [mw.stability_index(k, big_l).I for k, big_l in zip(ks.tolist(), ls.tolist())]
        worst = dict.fromkeys(ORACLE_BOUNDS, 0.0)
        for i, (k, big_l) in enumerate(zip(ks.tolist(), ls.tolist())):
            o = wave_oracle(k, big_l)
            phi_mid = o.ineq_ii + o.c
            scale = {"A": abs(o.A) + abs(phi_mid) ** 3 + abs(o.c * phi_mid)}
            ours = dict(zip("abcAF", (float(v[i]) for v in forms)), E=float(energy[i]),
                        I=index[i])
            assert [float(v[i]) for v in waves] == [ours[name] for name in "abcA"]
            for name, value in ours.items():
                ref = getattr(o, name)
                worst[name] = max(worst[name],
                                  float(abs(value - ref) / scale.get(name, abs(ref))))
            # each margin against the size of its terms
            for value, ref, size in zip(margins, (o.ineq_i, o.ineq_ii), (
                    o.c * o.c + 3 * abs(o.c) + 32 * math.pi**4 / big_l**4,
                    abs(o.a) + abs(o.b) + abs(o.c))):
                assert value[i] < 0.0 and ref < 0
                worst["margins"] = max(worst["margins"], float(abs(value[i] - ref) / size))
        assert all(worst[name] <= bound for name, bound in ORACLE_BOUNDS.items()), worst

    def test_refused_margin_has_the_oracle_sign(self):
        ks, ls = self.cells(ORACLE_INEQ_II)
        _, (ineq_i, ineq_ii), reason = _waves(ks, ls)
        assert reason.tolist() == ["ineq_ii"] * len(ks)
        for i, (k, big_l) in enumerate(zip(ks.tolist(), ls.tolist())):
            o = wave_oracle(k, big_l)
            assert (ineq_i[i] < 0.0, ineq_ii[i] < 0.0) == (o.ineq_i < 0, o.ineq_ii < 0)


class TestParamDerivatives:
    def test_db_dk_analytic(self):
        # b = -32 K^2 / L^2 so db/dk = -64 K K' / L^2 with the classical K'
        k, big_l = 0.5, 6.0 * math.pi
        db_dk = closed_form_dk(k, big_l)[1]
        big_k, big_e = mw.complete_k_e(k)
        dk_dk = (big_e - (1 - k * k) * big_k) / (k * (1 - k * k))
        expected = -64.0 * big_k * dk_dk / big_l**2
        assert db_dk == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("k", [0.05, 0.3, 0.7, 0.9])
    def test_exact_db_dk_matches_dlmf(self, k):
        # dK/dk = (E - k'^2 K) / (k k'^2), DLMF 19.4.1; the exact path
        # takes no step
        big_l = 8.0 * math.pi
        db_dk = closed_form_dk(k, big_l)[1]
        big_k, big_e = mw.complete_k_e(k)
        dk_dk = (big_e - (1 - k * k) * big_k) / (k * (1 - k * k))
        assert db_dk == pytest.approx(-64.0 * big_k * dk_dk / big_l**2, rel=1e-9)

    def test_dc_dk_vanishes_at_small_k(self):
        vals = [abs(closed_form_dk(k, 2.0 * math.pi)[2]) for k in (0.2, 0.1, 0.05)]
        assert vals[0] > vals[1] > vals[2]
        # cubic decay: halving k shrinks the derivative about eightfold
        assert vals[0] / vals[1] == pytest.approx(8.0, rel=0.3)
        assert vals[1] / vals[2] == pytest.approx(8.0, rel=0.3)

    def test_step_halving_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            k = rng.uniform(0.1, 0.7)
            big_l = rng.uniform(4 * math.pi, 9 * math.pi)
            d1, d2 = (fd_dk(lambda kk: np.array(closed_forms(kk, big_l)), k, h)[:4]
                      for h in (1e-3, 5e-4))
            for a, b in zip(d1, d2):  # da, db, dc, dA
                assert abs(a - b) <= 0.01 * max(abs(a), abs(b), 1e-9)

    def test_exact_path_domain_errors(self):
        # wave_at refuses the cells where the exact path has no wave
        for k, big_l in [(1.0, 6.0 * math.pi), (0.5, 0.0), (0.5, math.nan),
                         (0.9, math.pi)]:  # the last has Delta < 0
            with pytest.raises(DomainError):
                mw.wave_at(k, big_l)

    def test_one_derivative_path(self):
        # every k-derivative is the complex step of wave._dk, and A comes
        # from the wave ODE alone; the FD ladder, the long form for A and the
        # functionals' wrappers are the tests' oracles (conftest), which no
        # module of the package defines or names, and no public function
        # takes a step
        oracles = {"fd_dk", "AccuracyError", "_a_closed_form", "semidistance", "inner_h1",
                   "augmented", "lyapunov"}
        assert names_in_package(oracles) == []
        for fn in (mw.stability_index, mw.index_scan, mw.d_second):
            assert "h" not in inspect.signature(fn).parameters

    def test_no_second_entry_points(self):
        # the grid-space right side, the scalar derivative wrapper and the L^2
        # pairing re-entered code the laboratory calls another way, as did the
        # command line's usage exit and cell formatter, and the aliases
        # wave_params (wave_at without its report) and sample (a PeriodicField
        # of f(grid.nodes)); the tests' stand-ins live in conftest
        deleted = {"rhs", "params_dk", "ParamDerivatives", "inner_l2", "UsageExit", "_fmt",
                   "wave_params", "sample"}
        assert names_in_package(deleted) == []
        assert not deleted & set(mw.__all__)

    def test_fourier_symbols_come_from_the_grid_tables(self):
        # kappa and i kappa~ are read from PeriodicGrid.rfft_tables; only the
        # module that builds those tables names the wavenumbers
        users = {name for name, _ in names_in_package({"wavenumbers"})}
        assert users == {"field.py"}

    def test_public_names_are_pinned(self):
        # a new export is a deliberate edit of this list
        assert mw.__all__ == PUBLIC_NAMES

    def test_one_wave_entry_point(self):
        # a wave and its verdict come from wave_at (validity is its other
        # face); the entry points it replaced are gone
        deleted = {"constant_wave", "constant_or_wave", "_wave_and_validity", "_one_wave",
                   "_nonconstant_wave", "_refuse", "_validity_report", "_refusal", "_power"}
        assert names_in_package(deleted) == []
        assert "wave_at" in mw.__all__ and "constant_wave" not in mw.__all__

    def test_one_run_report(self):
        # a run's recorded values and times live in its StabilityRunReport
        # alone, as arrays with no fields built for them, and the run
        # artifacts have one writer
        assert names_in_package({"Trajectory", "_run_report_rows", "_with_spectrum",
                                 "_recorded_fields", "_pad_spectrum"}) == []
        assert "Trajectory" not in mw.__all__
        names = {f.name for f in dataclasses.fields(mw.StabilityRunReport)}
        assert "values" in names and "fields" not in names

    def test_stepping_state_is_plain_data(self):
        # a run's stepping state holds its right side, its bound and its
        # (symbol, pair) candidates, and no cache: each pair carries its own
        # target and step-size law
        assert names_in_package({"_Frame"}) == []
        assert [f.name for f in dataclasses.fields(mw.evolve._Stepping)] == [
            "f", "bounded", "candidates"]
        assert (mw.evolve._RK4.tol, mw.evolve._DP54.tol) == (mw.evolve.STEP_TOL,
                                                             mw.evolve.PAIR_TOL)

    def test_field_oracles_are_the_tests_own(self):
        # the trapezoid integral, the Helmholtz inverse and the physical-space
        # orbit distance are oracles in conftest, which no module of the
        # package defines or names
        assert names_in_package({"integrate", "helmholtz_inverse", "orbit_distance_grid"}) == []

    def test_gate_failure_raises(self):
        # a kink just off the evaluation point breaks Richardson consistency
        with pytest.raises(AccuracyError):
            fd_dk(lambda k: np.array([abs(k - 0.5003)]), 0.5, 1e-3)


@pytest.mark.parametrize("call", [
    lambda out: mw.wave_at(0.5, 6.0 * math.pi),
    lambda out: mw.validity(0.5, 6.0 * math.pi),
    lambda out: mw.morse_check(0.5, 6.0 * math.pi, n=64),
    lambda out: dispatch(["wave", "--k", "0.5", "--L", "6pi", "--out-dir", str(out)]),
], ids=["wave_at", "validity", "morse_check", "cli_wave"])
def test_one_wave_pass(call, count_calls, tmp_path):
    # each entry point evaluates the closed forms and the validity margins once
    passes = count_calls(mw.wave._waves)
    call(tmp_path)
    assert len(passes) == 1
