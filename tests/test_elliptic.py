"""Elliptic kernel against quadrature oracles and classical identities."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ellipe, ellipj, ellipk

from mchwave import DomainError, complete_k_e, elliptic, jacobi, profile, wave_at


def k_quadrature(k: float) -> float:
    """Adaptive quadrature of the defining K integral (independent oracle).

    quad is pushed to its roundoff floor, well below the 1e-12 assertion
    tolerance; the floor warning is expected.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                      0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
    return val


def e_quadrature(k: float) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                      0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
    return val


class TestCompleteIntegrals:
    def test_k_zero(self):
        assert complete_k_e(0.0)[0] == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_e_endpoints(self):
        assert complete_k_e(0.0)[1] == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_k_half_frozen(self):
        # frozen from the quadrature oracle
        assert complete_k_e(0.5)[0] == pytest.approx(1.6857503548125963, abs=1e-12)

    def test_e_half_frozen(self):
        assert complete_k_e(0.5)[1] == pytest.approx(1.4674622093394272, abs=1e-12)

    @pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_agm_matches_quadrature(self, k):
        big_k, big_e = complete_k_e(k)
        assert abs(big_k - k_quadrature(k)) < 1e-12
        assert abs(big_e - e_quadrature(k)) < 1e-12

    def test_k_monotone_increasing(self):
        ks = np.linspace(0.0, 0.995, 60)
        vals = [complete_k_e(k)[0] for k in ks]
        assert np.all(np.diff(vals) > 0)

    def test_e_monotone_decreasing_and_below_k(self):
        ks = np.linspace(0.0, 0.995, 60)
        big_k, big_e = complete_k_e(ks)
        assert np.all(np.diff(big_e) < 0)
        assert np.all(big_e <= big_k)

    def test_k_domain_errors(self):
        for k in (1.0, -0.1, 1.0 - 1e-13):  # the last inside the rejection band
            with pytest.raises(DomainError):
                complete_k_e(k)

    def test_e_domain_errors(self):
        # one modulus rule for every entry point, checked on Re k; NaN fails
        for k in (-1e-9, 1.0 + 1e-9, math.nan, 1.0 + 1e-30j, np.array([0.5, -1e-9 + 1e-30j])):
            with pytest.raises(DomainError):
                complete_k_e(k)

    @pytest.mark.parametrize("k", [0.1, 0.5, 0.9])
    def test_legendre_relation(self, k):
        kp = math.sqrt(1.0 - k * k)
        (big_k, big_e), (big_kp, big_ep) = complete_k_e(k), complete_k_e(kp)
        lhs = big_e * big_kp + big_ep * big_k - big_k * big_kp
        assert abs(lhs - math.pi / 2.0) < 1e-10

    def test_combined_matches_separate(self):
        # a scalar modulus gives Python floats, equal to the array element
        big_k, big_e = complete_k_e(0.37)
        assert type(big_k) is float and type(big_e) is float
        arr_k, arr_e = complete_k_e(np.array([0.37]))
        assert (big_k, big_e) == (arr_k[0], arr_e[0])


class TestAgmStopRule:
    """The AGM ladder stops at |c_n| <= eps |a_n|.  An absolute stop at
    1e-17 lay below half an ulp of a_n, so for about a quarter of the moduli
    it ran all 64 steps and each step added rounding to E."""

    EPS = np.finfo(float).eps

    def test_k_e_within_4_eps_of_scipy(self):
        ks = np.concatenate([np.linspace(0.0, 0.995, 4001), [0.13, 0.16, 0.964]])
        big_k, big_e = complete_k_e(ks)
        assert np.max(np.abs(big_k / ellipk(ks * ks) - 1.0)) <= 4.0 * self.EPS
        assert np.max(np.abs(big_e / ellipe(ks * ks) - 1.0)) <= 4.0 * self.EPS
        for k in (0.13, 0.16, 0.964):  # moduli the absolute stop never stopped at
            big_k, big_e = complete_k_e(k)
            assert abs(big_k / ellipk(k * k) - 1.0) <= 4.0 * self.EPS
            assert abs(big_e / ellipe(k * k) - 1.0) <= 4.0 * self.EPS

    def test_array_elements_do_not_depend_on_each_other(self):
        # each element freezes at its own stop, so its value is the scalar one
        ks = np.linspace(0.0, 0.995, 200)
        big_k, big_e = complete_k_e(ks)
        assert all((big_k[i], big_e[i]) == complete_k_e(float(k)) for i, k in enumerate(ks))

    def test_complex_step_de_dk(self):
        # dE/dk = (E - K) / k, DLMF 19.4.2
        ks = np.linspace(0.1, 0.995, 2000)
        big_k, big_e = complete_k_e(ks)
        de_dk = complete_k_e(ks + 1e-30j)[1].imag / 1e-30
        assert np.max(np.abs(de_dk / ((big_e - big_k) / ks) - 1.0)) < 1e-13

    def test_one_ladder_per_call(self, monkeypatch):
        # K, E and sn, cn, dn all read the one ladder, run once per call; a
        # wave profile reads K, E and the descent off one ladder too
        calls = []
        agm = elliptic._agm
        monkeypatch.setattr(elliptic, "_agm", lambda k: calls.append(k.size) or agm(k))
        complete_k_e(np.linspace(0.0, 0.99, 7))
        assert calls == [7]
        jacobi(np.linspace(0.0, 10.0, 64), 0.5)
        assert calls == [7, 1]
        p = wave_at(0.5, 6 * math.pi)[0]
        calls.clear()
        profile(p, np.linspace(0.0, p.L, 64))
        assert calls == [1]

    def test_jacobi_ladder_steps(self, monkeypatch):
        # one arcsin per ladder step; the absolute stop made 63 at k = 0.13
        calls = []
        arcsin = np.arcsin
        monkeypatch.setattr(np, "arcsin", lambda *a: calls.append(1) or arcsin(*a))
        jacobi(np.linspace(0.0, 10.0, 512), 0.13)
        assert len(calls) <= 6

    def test_jacobi_matches_mpmath(self):
        mpmath.mp.dps = 30
        u = np.linspace(-20.0, 20.0, 41)
        for k in (0.05, 0.13, 0.16, 0.5, 0.9, 0.964, 0.99):
            m = mpmath.mpf(k) ** 2
            for name, vals in zip(("sn", "cn", "dn"), jacobi(u, k)):
                ref = [float(mpmath.ellipfun(name, mpmath.mpf(x), m=m)) for x in u]
                assert np.max(np.abs(vals - ref)) < 1e-14

    def test_jacobi_matches_scipy(self):
        # scipy's ellipj is itself off by up to 1.2e-14 in sn and 3.2e-14 in
        # dn on this grid (against mpmath), so it is held to 5e-14
        u = np.linspace(-20.0, 20.0, 2001)
        for k in np.linspace(0.0, 0.99, 100):
            sn, cn, dn, _ = ellipj(u, k * k)
            for ours, ref in zip(jacobi(u, k), (sn, cn, dn)):
                assert np.max(np.abs(ours - ref)) < 5e-14


class TestJacobi:
    def test_origin(self):
        for k in (0.0, 0.3, 0.8):
            assert jacobi(0.0, k) == (0.0, 1.0, 1.0)

    def test_circular_degeneration(self):
        u = np.linspace(-5, 5, 41)
        sn, cn, dn = jacobi(u, 0.0)
        assert np.allclose(sn, np.sin(u), atol=1e-15)
        assert np.allclose(cn, np.cos(u), atol=1e-15)
        assert np.allclose(dn, 1.0, atol=1e-15)

    @settings(max_examples=200)
    @given(k=st.floats(0.0, 0.999))
    def test_quarter_period(self, k):
        # (sn, cn, dn)(K) = (1, 0, k'); at most 2.8e-16 off over 2000 moduli
        sn, cn, dn = jacobi(complete_k_e(k)[0], k)
        assert abs(sn - 1.0) <= 1e-15
        assert abs(cn) <= 1e-15
        assert abs(dn - math.sqrt(1.0 - k * k)) <= 1e-15

    def test_periodicity(self):
        k = 0.6
        big_k = complete_k_e(k)[0]
        u = np.linspace(0, 2, 17)
        sn0, _, dn0 = jacobi(u, k)
        sn4, _, _ = jacobi(u + 4.0 * big_k, k)
        _, _, dn2 = jacobi(u + 2.0 * big_k, k)
        assert np.max(np.abs(sn4 - sn0)) < 1e-11
        assert np.max(np.abs(dn2 - dn0)) < 1e-11

    def test_pythagorean_identities_random(self):
        rng = np.random.default_rng(2024)
        u = rng.uniform(-20.0, 20.0, 1000)
        k = rng.uniform(0.0, 0.99, 1000)
        worst_sc = worst_kd = 0.0
        for ki in np.unique(np.round(k, 2)):
            sn, cn, dn = jacobi(u, float(ki))
            worst_sc = max(worst_sc, float(np.max(np.abs(sn * sn + cn * cn - 1.0))))
            worst_kd = max(worst_kd, float(np.max(np.abs(ki * ki * sn * sn + dn * dn - 1.0))))
        assert worst_sc < 1e-12
        assert worst_kd < 1e-12

    def test_parity(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(-10, 10, 200)
        for k in (0.1, 0.5, 0.95):
            sn_p, cn_p, dn_p = jacobi(u, k)
            sn_m, cn_m, dn_m = jacobi(-u, k)
            assert np.max(np.abs(sn_m + sn_p)) < 1e-12
            assert np.max(np.abs(cn_m - cn_p)) < 1e-12
            assert np.max(np.abs(dn_m - dn_p)) < 1e-12

    def test_derivative_of_sn(self):
        # (d/du) sn = cn dn, against central differences
        rng = np.random.default_rng(11)
        u = rng.uniform(-5, 5, 100)
        h = 1e-5
        for k in (0.3, 0.7):
            sn_p = jacobi(u + h, k)[0]
            sn_m = jacobi(u - h, k)[0]
            _, cn, dn = jacobi(u, k)
            assert np.max(np.abs((sn_p - sn_m) / (2 * h) - cn * dn)) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jacobi(1.0, 1.0)
        with pytest.raises(DomainError):
            jacobi(1.0, -0.2)
        with pytest.raises(DomainError):
            jacobi(math.inf, 0.5)
        with pytest.raises(DomainError):
            jacobi(math.nan, 0.5)

    def test_one_real_modulus(self):
        # complete_k_e takes complex and array moduli; jacobi takes one real modulus
        for k in (0.3 + 0j, np.array([0.3, 0.4]), np.array([0.3]), np.complex128(0.3)):
            with pytest.raises(DomainError, match="one real modulus"):
                jacobi(0.5, k)
        assert jacobi(0.5, np.array(0.3)) == jacobi(0.5, 0.3)
        p, _ = wave_at(0.5, 6.0 * math.pi)
        assert profile(p, 1.0) == profile(dataclasses.replace(p, k=np.array(0.5)), 1.0)
