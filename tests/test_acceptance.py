"""Acceptance criteria, one test per criterion.

Each test enforces the stated tolerances and runtime budget and prints a
single pass line (visible with ``pytest -s``).  Failures surface as
ordinary assertion errors.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import mchwave as mw
from mchwave.evolve import seeded_perturbation

from conftest import dense_evolution_eigenvalues, lowest_eigenvectors


def report(num: int, desc: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.1f}s"
    print(f"\nACCEPTANCE {num}: PASS ({elapsed:.2f}s < {budget:.0f}s) - {desc}")


def test_criterion_1_elliptic_kernel():
    t0 = time.perf_counter()
    for k in (0.1, 0.3, 0.5, 0.7, 0.9):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)  # quad roundoff floor
            k_oracle, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                               0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
            e_oracle, _ = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                               0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
        assert abs(mw.complete_k(k) - k_oracle) < 1e-12
        assert abs(mw.complete_e(k) - e_oracle) < 1e-12
        kp = math.sqrt(1.0 - k * k)
        legendre = (mw.complete_e(k) * mw.complete_k(kp)
                    + mw.complete_e(kp) * mw.complete_k(k)
                    - mw.complete_k(k) * mw.complete_k(kp))
        assert abs(legendre - math.pi / 2.0) < 1e-10
    report(1, "K, E vs quadrature oracle to 1e-12; Legendre to 1e-10", t0, 1.0)


def test_criterion_2_exact_solutions():
    t0 = time.perf_counter()
    for k in np.linspace(0.05, 0.8, 10):
        for big_l in np.linspace(3 * math.pi, 10 * math.pi, 10):
            p = mw.wave_params(float(k), float(big_l))
            assert p.b < 0.0
            assert 0.0 < p.c < 1.5
            assert mw.ode_residual(p, 512) < 1e-8
            grid = mw.PeriodicGrid(p.L, 256)
            phi = mw.sample_wave(p, grid)
            assert abs(mw.integrate(phi) / p.L - p.a) < 1e-10
            sp = mw.snoidal_form(p)
            x = np.arange(512) * (p.L / 512)
            big_k = mw.complete_k(p.k)
            sn = mw.jacobi(2.0 * big_k * x / p.L, p.k)[0]
            diff = sp.alpha + sp.beta * sn * sn - mw.profile(p, x)[0]
            assert np.max(np.abs(diff)) < 1e-12
    report(2, "10x10 grid: residual < 1e-8, mean = a, sn/dn forms agree", t0, 30.0)


def test_criterion_3_constant_limit(op_constant_128):
    t0 = time.perf_counter()
    rep = mw.spectrum(op_constant_128)
    expected = np.sort(np.array(
        [2.0 * m * m - 2.0 for m in
         [0] + [m for mm in range(1, 64) for m in (mm, mm)] + [64]]))
    assert np.max(np.abs(rep.eigenvalues - expected)) < 1e-8
    restricted = mw.restricted_spectrum(op_constant_128)
    assert np.max(np.abs(restricted.eigenvalues - expected[1:])) < 1e-8
    pair = mw.inv_one_pairing(op_constant_128)
    assert pair.value == pytest.approx(-math.pi, abs=1e-8)
    # Morse identity with integers: n(L|Y0) = n(L) - n(pairing) - z(pairing)
    n_pair = 1 if pair.value < 0 else 0
    assert restricted.n_neg == rep.n_neg - n_pair - 0 == 0
    report(3, "constant case: {2m^2-2} spectrum, pairing -pi, 0 = 1 - 1 - 0", t0, 5.0)


def test_criterion_4_spectral_counts(wave05, op05_256, op05_512):
    t0 = time.perf_counter()
    rep256 = mw.spectrum(op05_256)
    assert rep256.n_neg == 1
    assert rep256.z_dim == 1
    # the negative eigenvalue is simple: the next one up is the kernel
    assert rep256.eigenvalues[0] < -rep256.tol < 0 < rep256.eigenvalues[2]
    kernel_vec = lowest_eigenvectors(op05_256)[:, 1]
    grid = mw.PeriodicGrid(wave05.L, 256)
    phi1 = mw.profile(wave05, grid.nodes)[1]
    assert abs(np.dot(kernel_vec, phi1 / np.linalg.norm(phi1))) > 0.999999
    rep512 = mw.spectrum(op05_512)
    assert (rep512.n_neg, rep512.z_dim) == (1, 1)
    report(4, "one simple negative eigenvalue, kernel = span(phi'), stable in n", t0, 20.0)


def test_criterion_5_index_scans():
    t0 = time.perf_counter()
    windows = [(0.01, 0.2, 3 * math.pi, 6 * math.pi),
               (0.05, 0.8, 6 * math.pi, 10 * math.pi)]
    min_valid = (390, 350)
    for window, floor in zip(windows, min_valid):
        samples, summary = mw.index_scan(*window, 20, 20, h=1e-3)
        valid = [s for s in samples if s.valid]
        assert len(valid) >= floor
        assert summary.count_positive == 0
        assert summary.max_I < 0.0
        # per-cell FD consistency on every valid cell: rescan at h/2
        halved, _ = mw.index_scan(*window, 20, 20, h=5e-4)
        for a, b in zip(samples, halved):
            if a.valid and b.valid:
                assert abs(a.I - b.I) <= 0.01 * max(abs(a.I), abs(b.I))
                assert b.I < 0.0
    report(5, "20x20 scans over both plotted windows: I < 0 on every valid cell", t0, 300.0)


def test_criterion_6_morse_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    checked = 0
    while checked < 10:
        k = float(rng.uniform(0.1, 0.75))
        big_l = float(rng.uniform(3.2 * math.pi, 10 * math.pi))
        if not mw.validity(k, big_l).all_ok:
            continue
        rep = mw.morse_check(k, big_l)
        assert abs(rep.pairing) > 1e-10
        assert rep.n_Y0_direct == rep.n_Y0_predicted
        assert rep.z_Y0_direct == rep.z_Y0_predicted
        checked += 1
    report(6, "zero-mean Morse identities hold at 10 random valid points", t0, 120.0)


def test_criterion_7_evolution_exactness(wave05):
    t0 = time.perf_counter()
    grid = mw.PeriodicGrid(wave05.L, 256)
    phi = mw.sample_wave(wave05, grid)
    dt = mw.suggested_dt(phi, speed=wave05.c)
    traj, rep = mw.run(phi, mw.EvolutionConfig(dt=dt, t_end=5.0, monitor_every=20))
    assert rep.terminated == "completed"
    worst = 0.0
    for t, fld in zip(traj.times, traj.fields):
        exact = mw.fractional_shift(phi, -wave05.c * t)
        worst = max(worst, float(np.max(np.abs(fld.values - exact.values))))
    assert worst < 1e-5
    for drift in (rep.drift_E, rep.drift_F, rep.drift_V):
        assert np.max(np.abs(drift)) < 1e-7
    # fourth-order drift decay, measured where truncation dominates rounding:
    # the pure wave's drift sits at the rounding floor, so superpose a
    # resolved perturbation to make the truncation error visible
    pert = mw.PeriodicField(grid, 0.2 * np.sin(2 * np.pi * grid.nodes / grid.L)
                            + 0.1 * np.cos(4 * np.pi * grid.nodes / grid.L))
    u0 = phi + pert
    drifts = []
    for dt_c in (0.1, 0.05):
        _, r = mw.run(u0, mw.EvolutionConfig(dt=dt_c, t_end=10.0, monitor_every=10**9))
        drifts.append(abs(r.drift_F[-1]))
    assert 8.0 < drifts[0] / drifts[1] < 32.0
    report(7, f"wave propagation exact to {worst:.1e}; drift ratio "
              f"{drifts[0] / drifts[1]:.1f}x under dt halving", t0, 120.0)


def test_criterion_8_orbital_stability(wave05):
    t0 = time.perf_counter()
    grid = mw.PeriodicGrid(wave05.L, 256)
    dt = mw.suggested_dt(mw.sample_wave(wave05, grid), speed=wave05.c)
    cfg = mw.EvolutionConfig(dt=dt, t_end=50.0, monitor_every=25)
    delta = 1e-3
    rep = mw.orbital_experiment(wave05, delta, seed=42, cfg=cfg)
    assert rep.terminated == "completed"
    sup_rho = float(np.max(rep.rho))
    assert sup_rho < 20.0 * delta
    rep_half = mw.orbital_experiment(wave05, 0.5 * delta, seed=42, cfg=cfg)
    ratio = sup_rho / float(np.max(rep_half.rho))
    assert 1.5 < ratio < 3.0
    report(8, f"sup rho = {sup_rho / delta:.2f} delta; halving delta shrinks it "
              f"{ratio:.2f}x", t0, 300.0)


def test_criterion_9_spectral_temporal_crosscheck(wave05):
    t0 = time.perf_counter()
    # the exact wave is spectrally stable: max Re sits below the 0.01
    # threshold, so the growth-match clause is exercised on a generic
    # unstable coefficient set instead
    jl_w = mw.evolution_spectrum(mw.operator_for(wave05, 256))
    assert float(np.max(jl_w.eigenvalues.real)) < 0.01

    grid = mw.PeriodicGrid(2 * math.pi, 64)
    x = grid.nodes
    phi = mw.PeriodicField(grid, -1.0 + 0.3 * np.cos(x))
    ph2 = mw.PeriodicField(grid, -0.019 * np.cos(x) - 1.515 * np.sin(2 * x)
                           - 2.929 * np.cos(3 * x))
    op = mw.assemble_l(phi, ph2, 0.2)
    # not even coefficients: target and radius from the dense J oracle
    expected = dense_evolution_eigenvalues(op)
    target = float(np.max(expected.real))
    assert target > 0.01
    radius = float(np.max(np.abs(expected)))
    rep = mw.linearized_run(seeded_perturbation(grid, seed=3), op,
                            mw.EvolutionConfig(dt=2.0 / radius, t_end=24.0,
                                               monitor_every=200))
    assert abs(rep.rate_tail - target) / target < 0.10

    p0 = mw.constant_wave(2 * math.pi)
    op_c = mw.operator_for(p0, 64)
    grid_c = op_c.grid
    radius_c = float(np.max(np.abs(mw.evolution_spectrum(op_c).eigenvalues)))
    v0 = mw.PeriodicField(grid_c, np.cos(2 * grid_c.nodes) + 0.5 * np.sin(3 * grid_c.nodes))
    rep_c = mw.linearized_run(v0, op_c, mw.EvolutionConfig(dt=0.2 / radius_c, t_end=2.0,
                                                           monitor_every=1000))
    assert abs(rep_c.norms[-1] / rep_c.norms[0] - 1.0) < 1e-8
    report(9, f"growth rate {rep.rate_tail:.3f} vs eigenvalue {target:.3f}; "
              "constant case norm-conserving", t0, 120.0)
