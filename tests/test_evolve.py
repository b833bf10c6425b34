"""Time integration: exactness, conservation, equivariance, experiments."""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import mchwave as mw
from mchwave import DomainError, evolve
from mchwave.evolve import (TERMINATED_BLOWUP, TERMINATED_COMPLETED,
                            TERMINATED_INSTABILITY, _RhsOperator, seeded_perturbation)
from mchwave.field import _orbit_distance

from conftest import (dense_evolution_eigenvalues, dense_matrix, dp54_companion, fsal_companion,
                      grid_rhs, helmholtz_diff_matrix, helmholtz_inverse, pad_spectrum,
                      random_smooth, reference_run, round_trip)


def _truncate_spectrum(spec: np.ndarray, m: int, n: int) -> np.ndarray:
    """Project an rfft spectrum from m grid points back to n (m > n)."""
    out = spec[: n // 2 + 1].copy()
    out[n // 2] = 2.0 * spec[n // 2].real  # +-n/2 alias onto the grid cosine
    return out


def _six_transform_rhs(u: mw.PeriodicField, pad: int) -> np.ndarray:
    """The right side as three separate zero-padded lifts to pad * n nodes,
    u**3, and an explicit truncation: six transforms per evaluation."""
    g = u.grid
    n, m = g.n, pad * g.n
    kap = g.wavenumbers()
    sym_d1 = 1j * kap
    sym_d1[-1] = 0.0

    def to_fine(spec):
        return np.fft.irfft(pad_spectrum(spec, n, m), m) * (m / n)

    spec = np.fft.rfft(u.values)
    u_f, ux_f, uxx_f = to_fine(spec), to_fine(sym_d1 * spec), to_fine(-(kap * kap) * spec)
    w_f = u_f * uxx_f + 0.5 * ux_f * ux_f - u_f**3
    w_spec = _truncate_spectrum(np.fft.rfft(w_f), m, n) * (n / m)
    return np.fft.irfft(sym_d1 / (1.0 + kap * kap) * w_spec, n)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            mw.EvolutionConfig(dt=0.0, t_end=1.0)
        with pytest.raises(DomainError):
            mw.EvolutionConfig(dt=0.1, t_end=-1.0)
        # at dt = 1e-310, t_end / dt is inf, which round() used to raise on
        for dt, t_end in [(math.inf, 1.0), (math.nan, 1.0), (0.1, math.inf),
                          (0.1, math.nan), (1e-310, 1.0)]:
            with pytest.raises(DomainError, match="finite"):
                mw.EvolutionConfig(dt=dt, t_end=t_end)
        with pytest.raises(DomainError):
            mw.EvolutionConfig(dt=0.1, t_end=1.0, monitor_every=0)
        # a count that is not an integer used to raise a bare TypeError, or
        # with adaptive steps to space the records by 2.5 dt
        for every in (2.5, np.float64(3.0)):
            with pytest.raises(DomainError, match="integer"):
                mw.EvolutionConfig(dt=0.1, t_end=1.0, monitor_every=every)

    def test_steps_land_on_t_end(self):
        assert mw.EvolutionConfig(dt=0.3, t_end=1.0).steps == (3, 1.0 / 3)
        assert mw.EvolutionConfig(dt=5.0, t_end=1.0).steps == (1, 1.0)

    def test_fixed_dt_floor(self):
        # a fixed dt below suggested_dt(u0) / MAX_REFINE is refused before a
        # step, as an adaptive interval past MAX_REFINE times its dt steps is
        # blow-up; at the floor the run goes
        g = mw.PeriodicGrid(2 * math.pi, 32)
        u0 = mw.PeriodicField(g, 0.5 + 0.4 * np.sin(g.nodes))
        floor = mw.suggested_dt(u0) / evolve.MAX_REFINE
        rep = mw.run(u0, mw.EvolutionConfig(dt=floor, t_end=2 * floor))
        assert rep.terminated == TERMINATED_COMPLETED and rep.steps == 2
        with pytest.raises(DomainError, match="MAX_REFINE"):
            mw.run(u0, mw.EvolutionConfig(dt=np.nextafter(floor, 0.0), t_end=2 * floor))

    @pytest.mark.parametrize("linear", [False, True], ids=["run", "linearized_run"])
    def test_record_cap(self, monkeypatch, wave05, linear):
        # a plan of more than MAX_RECORDS records, the one at t = 0 included,
        # is refused before a step; at the cap the run goes
        monkeypatch.setattr(evolve, "MAX_RECORDS", 4)
        grid = mw.PeriodicGrid(wave05.L, 64)

        def planned(t_end):
            cfg = mw.EvolutionConfig(dt=0.1, t_end=t_end, monitor_every=2)
            if linear:
                return mw.linearized_run(seeded_perturbation(grid, seed=3),
                                         mw.operator_for(wave05, 64), cfg)
            return mw.run(mw.sample_wave(wave05, grid), cfg)

        assert len(planned(0.6).times) == 4  # at 0, 2, 4 and 6 steps of 0.1
        with pytest.raises(DomainError, match="above MAX_RECORDS = 4"):
            planned(0.7)

    def test_suggested_dt(self):
        g = mw.PeriodicGrid(2 * math.pi, 64)
        u = mw.PeriodicField(g, 0.3 * np.sin(g.nodes))
        assert mw.suggested_dt(u) == pytest.approx(0.5 * g.spacing, rel=1e-12)
        assert mw.suggested_dt(u, speed=2.0) == pytest.approx(
            0.5 * g.spacing / 2.3, rel=1e-12)
        # max(1, umax + |nan|) is 1, so NaN used to read as speed 0, and an
        # infinite speed gave dt = 0
        for speed in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="speed"):
                mw.suggested_dt(u, speed=speed)


class TestRhs:
    def test_constants_are_equilibria(self):
        g = mw.PeriodicGrid(2 * math.pi, 64)
        u = mw.PeriodicField(g, 0.7 + 0 * g.nodes)
        assert np.max(np.abs(grid_rhs(u))) == 0.0

    def test_smoothing_symbol_composition(self):
        # the combined symbol equals derivative-after-Helmholtz-inverse
        g = mw.PeriodicGrid(2 * math.pi, 64)
        rng = np.random.default_rng(3)
        w = random_smooth(g, rng, modes=12)
        op = _RhsOperator(g)
        combined = np.fft.irfft(op.sym_smooth * np.fft.rfft(w.values), g.n)
        two_step = mw.derivative(helmholtz_inverse(w)).values
        assert np.max(np.abs(combined - two_step)) < 1e-13

    def test_coarse_nodes_at_any_pad(self, monkeypatch, wave05):
        # the blow-up bound reads 2u at the coarse nodes off the fine grid,
        # every DEALIAS_PAD-th node: at a pad of 4 it used to read 2n values,
        # half of them between the nodes; the right side is the pad-2 one
        grid = mw.PeriodicGrid(wave05.L, 64)
        u = mw.sample_wave(wave05, grid) + 1e-2 * seeded_perturbation(grid, seed=2)
        f2 = _RhsOperator(grid)(u.spectrum)
        monkeypatch.setattr(evolve, "DEALIAS_PAD", 4)
        op = _RhsOperator(grid)
        f4 = op(u.spectrum)
        assert op.m == 4 * grid.n and op.u2_coarse.shape == (grid.n,)
        rounding = np.finfo(float).eps * np.max(np.abs(u.values))
        assert np.max(np.abs(op.u2_coarse - 2.0 * u.values)) <= 8.0 * rounding
        assert np.max(np.abs(f4 - f2)) <= 1e-15 * np.max(np.abs(f2))

    def test_rhs_has_zero_mean(self):
        g = mw.PeriodicGrid(6 * math.pi, 128)
        rng = np.random.default_rng(4)
        u = mw.PeriodicField(g, -0.5 + 0 * g.nodes) + 0.3 * random_smooth(g, rng)
        assert abs(np.mean(grid_rhs(u))) < 1e-15

    def test_dealiasing_pad_consistency(self):
        # the fixed pad 2 must agree with a pad-3 reference on resolved data
        # (both alias-free)
        g = mw.PeriodicGrid(2 * math.pi, 64)
        rng = np.random.default_rng(5)
        u = mw.PeriodicField(g, -0.8 + 0 * g.nodes) + 0.2 * random_smooth(g, rng, modes=8)
        assert np.max(np.abs(grid_rhs(u) - _six_transform_rhs(u, 3))) < 1e-14

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("pad", [2, 3])
    def test_fused_matches_six_transform_reference(self, n, pad):
        # the fused two-transform right side against the six-transform
        # reference on pad * n nodes
        g = mw.PeriodicGrid(6 * math.pi, n)
        rng = np.random.default_rng(n + pad)
        # every mode up to Nyquist is excited, so the padding's Nyquist split counts
        u = mw.PeriodicField(g, -0.6 + 0 * g.nodes) + 0.3 * random_smooth(g, rng, modes=n // 2)
        ref = _six_transform_rhs(u, pad)
        out = np.fft.irfft(_RhsOperator(g)(u.spectrum), n)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_two_transforms_per_evaluation(self, fft_calls):
        g = mw.PeriodicGrid(6 * math.pi, 256)
        op = _RhsOperator(g)
        spec = random_smooth(g, np.random.default_rng(7)).spectrum
        fft_calls.clear()
        op(spec)
        assert fft_calls == ["irfft", "rfft"]

    def test_resampling_round_trip(self):
        g = mw.PeriodicGrid(2 * math.pi, 32)
        u = np.sin(3 * g.nodes) + 0.3 * np.cos(7 * g.nodes)
        spec = np.fft.rfft(u)
        fine = np.fft.irfft(pad_spectrum(spec, 32, 64), 64) * 2.0
        x_fine = np.arange(64) * (2 * math.pi / 64)
        assert np.max(np.abs(fine - (np.sin(3 * x_fine) + 0.3 * np.cos(7 * x_fine)))) < 1e-13
        back = np.fft.irfft(_truncate_spectrum(np.fft.rfft(fine), 64, 32) * 0.5, 32)
        assert np.max(np.abs(back - u)) < 1e-13


class TestRun:
    def test_constant_equilibrium(self):
        g = mw.PeriodicGrid(2 * math.pi, 64)
        u0 = mw.PeriodicField(g, 0.4 + 0 * g.nodes)
        rep = mw.run(u0, mw.EvolutionConfig(dt=0.05, t_end=1.0))
        assert rep.terminated == TERMINATED_COMPLETED
        assert np.max(np.abs(rep.values[-1] - 0.4)) < 1e-14
        assert np.max(np.abs(rep.drift_F)) < 1e-14

    def test_traveling_wave_propagation(self, wave05):
        grid = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, grid)
        dt = mw.suggested_dt(phi, speed=wave05.c)
        rep = mw.run(phi, mw.EvolutionConfig(dt=dt, t_end=3.0, monitor_every=20))
        worst = 0.0
        for t, row in zip(rep.times, rep.values):
            exact = mw.fractional_shift(phi, -wave05.c * t)
            worst = max(worst, float(np.max(np.abs(row - exact.values))))
        assert worst < 1e-10
        assert np.max(np.abs(rep.drift_F)) < 1e-12
        assert np.max(np.abs(rep.drift_E)) < 1e-10
        assert np.max(np.abs(rep.drift_V)) < 1e-10

    def test_mean_exactly_conserved(self, wave05):
        grid = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, grid)
        rng = np.random.default_rng(6)
        u0 = phi + 0.1 * random_smooth(grid, rng)
        rep = mw.run(u0, mw.EvolutionConfig(dt=0.05, t_end=2.0))
        v0 = mw.functionals(mw.PeriodicField(grid, rep.values[0]))[2]
        v1 = mw.functionals(mw.PeriodicField(grid, rep.values[-1]))[2]
        assert abs(v1 - v0) < 1e-12

    def test_conservation_order_in_dt(self, wave05):
        grid = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, grid)
        pert = mw.PeriodicField(grid, 0.2 * np.sin(2 * np.pi * grid.nodes / grid.L)
                                + 0.1 * np.cos(4 * np.pi * grid.nodes / grid.L))
        u0 = phi + pert
        drifts = []
        for dt in (0.1, 0.05):
            rep = mw.run(u0, mw.EvolutionConfig(dt=dt, t_end=10.0,
                                                   monitor_every=10**9))
            drifts.append(abs(rep.drift_F[-1]))
        assert 8.0 < drifts[0] / drifts[1] < 32.0

    def test_translation_equivariance(self, wave05):
        grid = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, grid)
        u0 = phi + mw.PeriodicField(grid, 0.05 * np.sin(2 * np.pi * grid.nodes / grid.L))
        s = 1.7
        cfg = mw.EvolutionConfig(dt=0.03, t_end=1.5, monitor_every=10**9)
        t1 = mw.run(u0, cfg)
        t2 = mw.run(mw.fractional_shift(u0, s), cfg)
        shifted = mw.fractional_shift(mw.PeriodicField(grid, t1.values[-1]), s)
        assert np.max(np.abs(t2.values[-1] - shifted.values)) < 1e-8

    def test_instability_of_too_large_dt_is_recorded(self, wave05):
        grid = mw.PeriodicGrid(wave05.L, 256)
        phi = mw.sample_wave(wave05, grid)
        rep = mw.run(phi, mw.EvolutionConfig(dt=1.0, t_end=50.0))
        assert rep.terminated == TERMINATED_BLOWUP

    def test_blowup_threshold_trips(self, monkeypatch):
        # momentum conservation keeps the sup bounded, so exceeding a
        # threshold below the initial amplitude exercises the recording
        monkeypatch.setattr(evolve, "BLOWUP_THRESHOLD", 0.6)
        g = mw.PeriodicGrid(2 * math.pi, 64)
        u0 = mw.PeriodicField(g, 0.5 + 0.4 * np.sin(g.nodes))
        rep = mw.run(u0, mw.EvolutionConfig(dt=0.01, t_end=5.0, monitor_every=1))
        assert rep.terminated == TERMINATED_BLOWUP
        assert rep.times[-1] < 5.0

    @pytest.mark.parametrize("kwargs", [
        {"delta": 1e-3, "reference": None}, {"delta": -math.inf},
        {"delta": -1.0}, {"delta": -5e-324},
        {"delta": math.nan}, {"delta": math.inf}, {"delta": -1e-3},
    ])
    def test_detection_inputs_validated(self, kwargs):
        # delta = nan used to switch detection off silently; the smallest
        # negative double is refused like any other negative delta
        p = mw.wave_at(0.5, 6 * math.pi)[0]
        u0 = mw.sample_wave(p, mw.PeriodicGrid(p.L, 64))
        with pytest.raises(DomainError):
            mw.run(u0, mw.EvolutionConfig(dt=0.05, t_end=1.0),
                   **{"reference": u0, **kwargs})

    def test_detection_needs_a_reference(self, wave05):
        # without a reference rho is never recorded, so delta used to be ignored
        u0 = mw.sample_wave(wave05, mw.PeriodicGrid(wave05.L, 64))
        with pytest.raises(DomainError, match="reference"):
            mw.run(u0, mw.EvolutionConfig(dt=0.05, t_end=1.0), delta=1e-3)

    def test_reference_on_another_grid_raises(self, wave05):
        u0 = mw.sample_wave(wave05, mw.PeriodicGrid(wave05.L, 64))
        phi = mw.sample_wave(wave05, mw.PeriodicGrid(wave05.L, 128))
        with pytest.raises(DomainError, match="different grids"):
            mw.run(u0, mw.EvolutionConfig(dt=0.05, t_end=1.0), reference=phi)

    def test_threshold_exceeded_at_start_ends_run(self, wave05, monkeypatch):
        # rho(0) is about delta, far above 0.1 delta: the t = 0 sample decides
        monkeypatch.setattr(evolve, "RHO_FACTOR", 0.1)
        grid = mw.PeriodicGrid(wave05.L, 64)
        phi = mw.sample_wave(wave05, grid)
        u0 = phi + 1e-3 * seeded_perturbation(grid, 3)
        rep = mw.run(u0, mw.EvolutionConfig(dt=0.05, t_end=1.0), reference=phi,
                     delta=1e-3)
        assert rep.terminated == TERMINATED_INSTABILITY
        assert list(rep.times) == [0.0] and rep.values.shape == (1, grid.n)
        assert rep.rho[0] > 0.1 * 1e-3


def grid_state_run(u0, cfg, p, delta):
    """The orbit run with the grid values as RK4 state: every stage is the
    grid-space right side ``grid_rhs``.  Returns the verdict, the monitor
    times, rho and the relative drifts of (E, F, V)."""
    grid = u0.grid
    n_steps = max(1, round(cfg.t_end / cfg.dt))
    dt = cfg.t_end / n_steps
    phi = mw.sample_wave(p, grid)
    base = np.array(mw.functionals(u0))
    times, rho, drifts = [], [], []

    def f(values):
        return grid_rhs(mw.PeriodicField(grid, values))

    def detected(t, values):
        fld = mw.PeriodicField(grid, values)
        times.append(t)
        drifts.append((np.array(mw.functionals(fld)) - base) / np.abs(base))
        rho.append(_orbit_distance(fld.spectrum, phi)[0])
        return rho[-1] > evolve.RHO_FACTOR * delta

    values = u0.values
    verdict = TERMINATED_INSTABILITY if detected(0.0, values) else TERMINATED_COMPLETED
    for step in range(1, n_steps + 1):
        if verdict != TERMINATED_COMPLETED:
            break
        k1 = f(values)
        k2 = f(values + 0.5 * dt * k1)
        k3 = f(values + 0.5 * dt * k2)
        k4 = f(values + dt * k3)
        values = values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.max(np.abs(values)) <= evolve.BLOWUP_THRESHOLD:
            verdict = TERMINATED_BLOWUP
        elif (step % cfg.monitor_every == 0 or step == n_steps) and detected(step * dt, values):
            verdict = TERMINATED_INSTABILITY
    return verdict, np.array(times), np.array(rho), np.array(drifts)


class TestSpectralState:
    @pytest.mark.parametrize("k, big_l", [(0.5, 6 * math.pi), (0.3, 4 * math.pi),
                                          (0.7, 9 * math.pi)])
    def test_matches_grid_state_loop(self, k, big_l):
        p = mw.wave_at(k, big_l)[0]
        grid = mw.PeriodicGrid(p.L, 256)
        phi = mw.sample_wave(p, grid)
        u0 = phi + 1e-3 * seeded_perturbation(grid, seed=2)
        cfg = mw.EvolutionConfig(dt=mw.suggested_dt(phi, speed=p.c), t_end=10.0,
                                 monitor_every=25)
        rep = mw.run(u0, cfg, reference=phi, delta=1e-3)
        verdict, times, rho, drifts = grid_state_run(u0, cfg, p, 1e-3)
        assert rep.terminated == verdict
        assert np.array_equal(rep.times, times) and len(times) > 2
        assert np.all(np.abs(rep.rho - rho) <= 1e-11 * rho)
        run_drifts = np.column_stack((rep.drift_E, rep.drift_F, rep.drift_V))
        assert np.max(np.abs(run_drifts - drifts)) <= 1e-13

    def test_eight_transforms_per_step(self, fft_calls, wave05):
        # the two runs of each kind differ by unmonitored steps (20 fixed ones)
        # and nothing else: right sides of two transforms each, four an RK4
        # step and six a pair's, and no coarse inverse transform; the
        # integrating factor takes none
        grid = mw.PeriodicGrid(wave05.L, 64)
        for adaptive in (False, True):
            counts, steps, sides = [], [], []
            for t_end in (1.0, 2.0):
                # spectrum not yet held; the perturbation makes the adaptive runs
                # differ (the wave alone meets the target in one step of either)
                u0 = mw.sample_wave(wave05, grid) + 1e-2 * seeded_perturbation(grid, seed=2)
                fft_calls.clear()
                rep = mw.run(u0, mw.EvolutionConfig(dt=0.05, t_end=t_end, monitor_every=10**9,
                                                       adaptive=adaptive))
                assert rep.terminated == TERMINATED_COMPLETED
                assert list(rep.times) == [0.0, t_end]
                counts.append(len(fft_calls))
                steps.append(rep.steps)
                sides.append(rep.rhs_calls)
            assert steps[1] > steps[0] and (adaptive or steps[1] - steps[0] == 20)
            assert counts[1] - counts[0] == 2 * (sides[1] - sides[0])
            assert adaptive or sides[1] - sides[0] == 4 * (steps[1] - steps[0])

    def test_one_transform_per_record(self, fft_calls, monkeypatch):
        # outside the steps a record takes one FFT call, C at the grid shifts
        # of its held spectrum; after the loop the records' values and their
        # u_x for E take one batched inverse transform each, in one block
        # here; u0's rfft and the first slope take three more
        advance, inside = evolve._advance, []

        def counted_advance(*args):
            before = len(fft_calls)
            out = advance(*args)
            inside.append(len(fft_calls) - before)
            return out

        monkeypatch.setattr(evolve, "_advance", counted_advance)
        phi, u0, cfg = _orbit_start(0.5, 6 * math.pi)
        assert phi.spectrum is not None  # held, as across an orbit run's records
        fft_calls.clear()
        rep = mw.run(u0, dataclasses.replace(cfg, t_end=2.0, monitor_every=5, adaptive=True),
                     reference=phi)
        assert rep.terminated == TERMINATED_COMPLETED and len(rep.times) > 5
        assert len(fft_calls) - sum(inside) == len(rep.times) + 2 + 3

    def test_record_pass_keeps_the_peak_memory(self, wave05):
        # 2001 records of n = 1024 hold 31.3 MiB of values and spectra.  The
        # bound, 1.5 MiB above that (32.8 MiB), is the peak of records made
        # one at a time, each with its field, rfft and functionals; the pass
        # after the loop holds each spectrum once, its scratch arrays are a
        # block's size, and the report keeps the values alone, 15.6 MiB,
        # with its other arrays in the 0.25 MiB of slack
        grid = mw.PeriodicGrid(wave05.L, 1024)
        phi = mw.sample_wave(wave05, grid)
        u0 = phi + 1e-3 * seeded_perturbation(grid, seed=2)
        assert phi.spectrum is not None
        dt = mw.suggested_dt(phi, speed=wave05.c)
        cfg = mw.EvolutionConfig(dt=dt, t_end=2000 * dt, monitor_every=1)
        tracemalloc.start()
        try:
            rep = mw.run(u0, cfg, reference=phi, delta=1e-3)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.terminated == TERMINATED_COMPLETED and rep.values.shape == (2001, grid.n)
        held = len(rep.times) * (8 * grid.n + 16 * (grid.n // 2 + 1))
        assert held == pytest.approx(31.3 * 2**20, rel=1e-3)
        assert peak <= held + 1.5 * 2**20
        assert kept <= 8 * len(rep.times) * grid.n + 0.25 * 2**20

    def test_four_right_sides_per_step(self, monkeypatch, wave05):
        # run evaluates a step's first stage before it calls _rk_step, so the
        # right sides of a step are those between consecutive _rk_step returns,
        # and one more, the slope of the last state, completes its estimate:
        # four for RK4 and six for the pair; the fixed run records its state
        # between steps 10 and 11, and the adaptive run's one interval, where
        # u0 crosses zero, starts with a trial of all four candidates
        step, call = evolve._rk_step, _RhsOperator.__call__
        sides, at_return, pairs = [], [0], []

        def counted_step(f, pair, *args):
            out = step(f, pair, *args)
            at_return.append(len(sides))
            pairs.append(pair)
            return out

        def counted_call(self, spec):
            sides.append(spec)
            return call(self, spec)

        monkeypatch.setattr(evolve, "_rk_step", counted_step)
        monkeypatch.setattr(_RhsOperator, "__call__", counted_call)
        for p, adaptive, every in ((wave05, False, 10),
                                   (mw.wave_at(0.693, 3.6 * math.pi)[0], True, 10**9)):
            grid = mw.PeriodicGrid(p.L, 64)
            phi = mw.sample_wave(p, grid)
            u0 = phi + 1e-2 * seeded_perturbation(grid, seed=2)
            sides.clear()
            pairs.clear()
            del at_return[1:]
            rep = mw.run(u0, mw.EvolutionConfig(dt=0.05, t_end=1.0, monitor_every=every,
                                                adaptive=adaptive), reference=phi)
            assert rep.terminated == TERMINATED_COMPLETED and (adaptive or rep.steps == 20)
            assert len(pairs) == rep.steps
            assert {pair.rhs_per_step for pair in pairs} == ({4, 6} if adaptive else {4})
            assert list(np.diff(at_return)) == [pair.rhs_per_step for pair in pairs]
            assert len(sides) == rep.rhs_calls == sum(pair.rhs_per_step for pair in pairs) + 1


def _assert_same_run(rep, rep_ref):
    assert rep.terminated == rep_ref.terminated and rep.steps == rep_ref.steps
    assert np.array_equal(rep.times, rep_ref.times)
    assert (rep.rho is None) == (rep_ref.rho is None)
    assert rep.rho is None or np.array_equal(rep.rho, rep_ref.rho)
    for name in ("drift_E", "drift_F", "drift_V"):
        assert np.array_equal(getattr(rep, name), getattr(rep_ref, name))
    assert np.array_equal(rep.values, rep_ref.values)


class TestBitwiseOracle:
    """``run`` against ``conftest.reference_run``, its first plain form: the
    rescaled in-place product and the blow-up check on the next first
    stage must change no bit of any record."""

    @pytest.mark.parametrize("monitor_every", [1, 25])
    @pytest.mark.parametrize("k, big_l", [(0.5, 6 * math.pi), (0.3, 4 * math.pi),
                                          (0.7, 9 * math.pi)])
    def test_perturbed_waves(self, k, big_l, monitor_every):
        p = mw.wave_at(k, big_l)[0]
        grid = mw.PeriodicGrid(p.L, 256)
        phi = mw.sample_wave(p, grid)
        u0 = phi + 1e-3 * seeded_perturbation(grid, seed=2)
        cfg = mw.EvolutionConfig(dt=mw.suggested_dt(phi, speed=p.c), t_end=2.0,
                                 monitor_every=monitor_every)
        got = mw.run(u0, cfg, reference=phi, delta=1e-3)
        assert got.terminated == TERMINATED_COMPLETED and len(got.times) > 2
        _assert_same_run(got, reference_run(u0, cfg, reference=phi, delta=1e-3))

    def test_blowup_at_large_dt(self, wave05):
        grid = mw.PeriodicGrid(wave05.L, 256)
        u0 = mw.sample_wave(wave05, grid)
        cfg = mw.EvolutionConfig(dt=1.0, t_end=50.0)
        got = mw.run(u0, cfg, reference=u0)
        assert got.terminated == TERMINATED_BLOWUP
        _assert_same_run(got, reference_run(u0, cfg, reference=u0))

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_rk4_step_is_the_textbook_step(self, wave05, n):
        # one lab-frame RK4 step through the tableau loop, its first stage N
        # being f itself, is the textbook
        # y + (h/6) (k1 + 2 k2 + 2 k3 + k4) bit for bit, and its estimate row
        # (0, 0, 0, 1) returns k4, but for the sign of a zero entry: 0 k1 +
        # ... + k4 adds a -0.0 of k4 to +0.0.  The weights 1 and 2 give exact
        # products, so the state's bits rest on b @ z summing them in the
        # order j = 0 .. 3, as the BLAS behind numpy's matmul must
        grid = mw.PeriodicGrid(wave05.L, n)
        u0 = mw.sample_wave(wave05, grid) + 1e-3 * seeded_perturbation(grid, seed=2)
        f, spec = _RhsOperator(grid), u0.spectrum
        k1, lab = f(spec), np.zeros(n // 2 + 1, dtype=complex)
        for h in [r * mw.suggested_dt(u0) for r in (0.25, 1.0, 2.0)]:
            k2 = f(spec + 0.5 * h * k1)
            k3 = f(spec + 0.5 * h * k2)
            k4 = f(spec + h * k3)
            textbook = spec + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            es = {c: (e, e.conj()) for c in evolve._RK4.nodes for e in (np.exp(c * h * lab),)}
            y1, err = evolve._rk_step(f, evolve._RK4, spec, k1, h, lab, es)
            assert np.array_equal(y1.view(np.uint64), textbook.view(np.uint64))
            assert np.array_equal(err, k4)

    def test_threshold_crossed_at_unmonitored_step(self, monkeypatch, wave05):
        # the peak starts half a node off the grid and drifts onto a node, so
        # max |u| grows by ~2.6e-7 a step: a threshold 5e-6 above its start
        # is crossed near step 20 of 60, none of them monitored, and far
        # beyond the rounding by which the two readings of u differ
        rk_step, steps = evolve._rk_step, []

        def counted_step(*args):
            steps.append(None)
            return rk_step(*args)

        grid = mw.PeriodicGrid(wave05.L, 64)
        phi = mw.sample_wave(wave05, grid)
        u0 = mw.fractional_shift(phi, 0.5 * grid.spacing)
        monkeypatch.setattr(evolve, "BLOWUP_THRESHOLD", float(np.max(np.abs(u0.values))) + 5e-6)
        cfg = mw.EvolutionConfig(dt=0.05, t_end=3.0, monitor_every=10**9)
        monkeypatch.setattr(evolve, "_rk_step", counted_step)
        got = mw.run(u0, cfg, reference=phi)
        assert got.terminated == TERMINATED_BLOWUP and list(got.times) == [0.0]
        _assert_same_run(got, reference_run(u0, cfg, reference=phi))
        # the records cannot show where the run stopped: monitored at every
        # step, the oracle records each step before the crossing, and run
        # must have stepped exactly to it
        every = mw.EvolutionConfig(dt=0.05, t_end=3.0, monitor_every=1)
        crossing = len(reference_run(u0, every, reference=phi).times)
        assert 10 < crossing < 50 and len(steps) == crossing

    def test_non_finite_state_is_blowup(self, monkeypatch):
        # a step of 1e100 overflows a stage, so the state after step 1 is not
        # finite; step 1 is not monitored, and the first stage of step 2 reads it
        rk_step, states = evolve._rk_step, []

        def kept_step(*args):
            states.append(rk_step(*args))
            return states[-1]

        monkeypatch.setattr(evolve, "_rk_step", kept_step)
        g = mw.PeriodicGrid(2 * math.pi, 32)
        u0 = mw.PeriodicField(g, 0.5 + 0.4 * np.sin(g.nodes))
        cfg = mw.EvolutionConfig(dt=1e100, t_end=2e100, monitor_every=10**9)
        got = mw.run(u0, cfg)
        assert len(states) == 1 and not np.isfinite(states[0][0]).all()
        assert got.terminated == TERMINATED_BLOWUP
        _assert_same_run(got, reference_run(u0, cfg))


def _orbit_start(k, big_l, n=256, delta=1e-3):
    """The wave (k, L) sampled on n nodes, phi, an orbit run's
    u0 = phi + delta w, seed 2, and the fixed-step config at the suggested
    dt, t = 10, monitored every 25."""
    p = mw.wave_at(k, big_l)[0]
    grid = mw.PeriodicGrid(p.L, n)
    phi = mw.sample_wave(p, grid)
    u0 = phi + delta * seeded_perturbation(grid, seed=2)
    cfg = mw.EvolutionConfig(dt=mw.suggested_dt(phi, speed=p.c), t_end=10.0,
                             monitor_every=25)
    return phi, u0, cfg


def _stepping_at_the_mean(u0, lawson):
    """The stepping state of an adaptive run from u0 and its frame's symbol:
    the mean's, which ``conftest.fsal_companion`` rebuilds, or the lab's, 0."""
    st = evolve._stepping(u0.grid, float(np.mean(u0.values)))
    return st, st.candidates[0 if lawson else -1][0]


def predicted_right_sides(pair, target, span, h, est):
    """The right sides that a trial step of h of ``pair``, with estimate
    est, predicts for an interval of ``span``: its right sides a step times
    ceil(span / h'), h' = 0.9 h (target / est)^(1/p) being the step that
    meets its target; +inf for a non-finite est."""
    if not math.isfinite(est):
        return math.inf
    h_next = 0.9 * h * (target / est) ** (1.0 / pair.p) if est else math.inf
    return pair.rhs_per_step * max(1, math.ceil(span / h_next))


class TestStepControl:
    @pytest.mark.parametrize("h", [0.8, 0.4, 0.2])
    def test_estimate_is_the_companion_distance(self, h):
        # one step of h: its estimate per unit time times h is the RMS
        # distance to the independently formed order-3 companion
        _, u0, _ = _orbit_start(0.5, 6 * math.pi)
        rep = mw.run(u0, mw.EvolutionConfig(dt=h, t_end=h, monitor_every=1))
        y1, y_star = fsal_companion(u0, h)
        distance = math.sqrt(np.mean((y1 - y_star) ** 2))
        rounding = np.finfo(float).eps * math.sqrt(np.mean(y1 ** 2))
        assert rep.steps == 1 and distance > 1e3 * rounding
        assert abs(rep.max_error_estimate * h - distance) <= 4.0 * rounding

    def test_estimate_is_fourth_order(self):
        _, u0, _ = _orbit_start(0.5, 6 * math.pi)
        est = [mw.run(u0, mw.EvolutionConfig(dt=h, t_end=h)).max_error_estimate * h
               for h in (0.4, 0.2)]
        assert 16.0 * 0.8 <= est[0] / est[1] <= 16.0 * 1.2

    @pytest.mark.parametrize("h", [0.5, 0.25])
    def test_lawson_estimate_is_the_companion_distance(self, monkeypatch, h):
        # an adaptive run of one interval of h, below the first count's step
        # 0.25 (L/n) / max |u0 - ubar| ~ 0.56, takes one integrating-factor
        # step, and with no target it is not redone: its estimate is the
        # companion distance of the oracle's textbook Lawson step
        monkeypatch.setattr(evolve._RK4, "tol", math.inf)
        _, u0, _ = _orbit_start(0.5, 6 * math.pi)
        rep = mw.run(u0, mw.EvolutionConfig(dt=h, t_end=h, adaptive=True))
        y1, y_star = fsal_companion(u0, h, lawson=True)
        distance = math.sqrt(np.mean((y1 - y_star) ** 2))
        rounding = np.finfo(float).eps * math.sqrt(np.mean(y1 ** 2))
        assert rep.steps == 1 and distance > 1e3 * rounding
        assert abs(rep.max_error_estimate * h - distance) <= 4.0 * rounding

    def test_lawson_estimate_is_fourth_order(self, monkeypatch):
        monkeypatch.setattr(evolve._RK4, "tol", math.inf)
        _, u0, _ = _orbit_start(0.5, 6 * math.pi)
        reps = [mw.run(u0, mw.EvolutionConfig(dt=h, t_end=h, adaptive=True)) for h in (0.5, 0.25)]
        assert [rep.steps for rep in reps] == [1, 1]
        est = [rep.max_error_estimate * h for rep, h in zip(reps, (0.5, 0.25))]
        assert 16.0 * 0.8 <= est[0] / est[1] <= 16.0 * 1.2

    def test_constant_field_is_exact(self):
        # lambda vanishes at the mean mode, and N at a constant: each step of
        # the integrating factor leaves the spectrum, and every record, as it was
        g = mw.PeriodicGrid(2 * math.pi, 64)
        u0 = mw.PeriodicField(g, 0.3 + 0 * g.nodes)
        rep = mw.run(u0, mw.EvolutionConfig(dt=0.05, t_end=1.0, monitor_every=2, adaptive=True))
        assert rep.terminated == TERMINATED_COMPLETED and rep.values.shape == (11, g.n)
        assert np.array_equal(rep.values, np.tile(u0.values, (11, 1)))

    def test_mean_conserved_to_rounding(self):
        # E = 1 and N = 0 at the mean mode, so the mean moves only by the
        # rounding of each record's inverse transform
        phi, u0, cfg = _orbit_start(0.144, 3.736 * math.pi)
        rep = mw.run(u0, dataclasses.replace(cfg, adaptive=True), reference=phi)
        assert rep.terminated == TERMINATED_COMPLETED and len(rep.times) > 2
        assert np.max(np.abs(rep.drift_V)) <= 4.0 * np.finfo(float).eps

    @pytest.mark.parametrize("k, big_l, most", [(0.144, 3.736 * math.pi, 22),
                                                (0.411, 3.536 * math.pi, 71),
                                                (0.693, 3.6 * math.pi, 372),
                                                (0.667, 3.27 * math.pi, 521)])
    def test_integrating_factor_step_counts(self, k, big_l, most):
        # classical RK4 steps under the same control take 298, 404, 555 and
        # 721 here; the first two runs keep the mean's frame, 18 and 58
        # steps, and the last two, whose u0 crosses zero, took 298 and 417
        # with the frame chosen per interval: the bounds are those counts
        # plus 25 %, so dropping the linear part, or keeping it only where
        # it slows every node of u0, fails them.  With RK4 alone the runs,
        # which keep a winning trial step, take 18, 58, 294 and 413, and
        # with the pair among the candidates 18, 24, 94 and 133
        phi, u0, cfg = _orbit_start(k, big_l)
        rep = mw.run(u0, dataclasses.replace(cfg, adaptive=True), reference=phi, delta=1e-3)
        assert rep.terminated == TERMINATED_COMPLETED
        assert rep.steps <= most

    def test_frame_choice_over_a_long_run(self):
        # the mean's frame gains first and then loses here: to t = 100 it
        # takes 5617 RK4 steps, classical ones under the same control 898,
        # the run that chooses the frame per interval 731, and the one that
        # chooses the pair too 513
        phi, u0, cfg = _orbit_start(0.730, 4.92 * math.pi)
        rep = mw.run(u0, dataclasses.replace(cfg, t_end=100.0, adaptive=True), reference=phi,
                     delta=1e-3)
        assert rep.terminated == TERMINATED_COMPLETED
        assert rep.steps < 898

    def test_frame_chosen_per_interval(self, monkeypatch, advance_calls):
        # an adaptive run starts in the mean's frame with RK4; an interval of
        # 3 or more steps, more than at the last choice, first takes one step
        # of each candidate, RK4 and the pair in each frame, and the run goes
        # on with the one of the fewest predicted right sides.  u0 crosses
        # zero at (0.693, 3.6 pi) and (0.667, 3.27 pi), and both go on with
        # the pair's factored steps; at (0.667, 3.27 pi) the lab's frame wins
        # near t = 8, so the steps outside the trials are of both frames.
        # Fixed steps are classical RK4, and a u0 whose mean is rounding, on
        # the zero-mean branch, trials the lab frame's two candidates
        step, steps = evolve._rk_step, []

        def spied_step(f, pair, values, n1, h, lam, es):
            steps.append((bool(lam.any()), pair is evolve._DP54, advance_calls[-1].trial))
            return step(f, pair, values, n1, h, lam, es)

        monkeypatch.setattr(evolve, "_rk_step", spied_step)

        def kinds(u0, cfg):
            steps.clear()
            rep = mw.run(u0, cfg)
            assert rep.terminated == TERMINATED_COMPLETED and len(steps) == rep.steps
            return ({(lawson, dp) for lawson, dp, trial in steps if not trial},
                    {(lawson, dp) for lawson, dp, trial in steps if trial})

        every = {(True, False), (True, True), (False, False), (False, True)}
        _, u0, cfg = _orbit_start(0.693, 3.6 * math.pi)
        u = u0.values
        assert not np.all(np.abs(u - np.mean(u)) < np.abs(u))
        assert kinds(u0, dataclasses.replace(cfg, t_end=1.0, adaptive=True)) == ({(True, True)},
                                                                                every)
        assert kinds(u0, dataclasses.replace(cfg, t_end=1.0)) == ({(False, False)}, set())
        _, u0, cfg = _orbit_start(0.667, 3.27 * math.pi)
        assert kinds(u0, dataclasses.replace(cfg, adaptive=True)) == (
            {(True, True), (False, True)}, every)
        _, u0, cfg = _orbit_start(0.999, mw.indices.zero_mean_period(0.999))
        assert abs(np.mean(u0.values)) <= mw.linop._zero_tol(u0.values)
        assert kinds(u0, dataclasses.replace(cfg, t_end=1.0, adaptive=True)) == (
            {(False, True)}, {(False, False), (False, True)})

    @pytest.mark.parametrize("k, big_l, lawson", [(0.144, 3.736 * math.pi, True),
                                                  (0.5, 6 * math.pi, True),
                                                  (0.693, 3.6 * math.pi, False),
                                                  (0.9, 4 * math.pi, False)])
    def test_integrating_factor_only_where_it_slows_every_node(self, monkeypatch, advance_calls,
                                                               k, big_l, lawson):
        # where |u0 - ubar| < |u0| at every node the mean's frame slows every
        # node, the planned counts stay below 3, and every step is a factored
        # RK4 step with no trial; elsewhere, as where u0 crosses zero, each
        # trial steps RK4 and then the pair in the mean's frame, and then in
        # the lab's, and the steps after it take the candidate whose trial
        # predicts the fewest right sides for the interval, the first on a tie
        step, kinds = evolve._rk_step, []

        def spied_step(f, pair, values, n1, h, lam, es):
            kinds.append((bool(lam.any()), pair))
            return step(f, pair, values, n1, h, lam, es)

        monkeypatch.setattr(evolve, "_rk_step", spied_step)
        _, u0, cfg = _orbit_start(k, big_l)
        u = u0.values
        assert bool(np.all(np.abs(u - np.mean(u)) < np.abs(u))) == lawson
        cfg = dataclasses.replace(cfg, t_end=1.0, adaptive=True)
        rep = mw.run(u0, cfg)
        assert rep.terminated == TERMINATED_COMPLETED and len(kinds) == rep.steps
        trials = [i for i, call in enumerate(advance_calls) if call.trial]
        assert bool(trials) != lawson
        if lawson:
            assert set(kinds) == {(True, evolve._RK4)}
        n_steps, dt = cfg.steps
        targets = {evolve._RK4: evolve.STEP_TOL, evolve._DP54: evolve.PAIR_TOL}
        for i in trials[::4]:
            group, chosen = advance_calls[i:i + 4], advance_calls[i + 4]
            assert [(c.lam.any(), c.pair, c.trial) for c in group] == [
                (True, evolve._RK4, True), (True, evolve._DP54, True),
                (False, evolve._RK4, True), (False, evolve._DP54, True)]
            # the interval: as many accepted attempts come before its trial
            s0 = cfg.monitor_every * sum(
                1 for c in advance_calls[:i] if not c.trial and c.est <= targets[c.pair])
            span = (min(s0 + cfg.monitor_every, n_steps) - s0) * dt
            costs = [predicted_right_sides(c.pair, targets[c.pair], span, c.h, c.est)
                     for c in group]
            best = group[costs.index(min(costs))]
            assert (chosen.lam.any(), chosen.pair) == (best.lam.any(), best.pair)
            assert not chosen.trial

    def test_trials_match_the_oracles(self, advance_calls):
        # each trial steps from the interval's first state with the slope the
        # run holds, f in every frame: it must be a fresh right side's bit for
        # bit, as must the first slope after a switch, and the trial's
        # estimate times h the distance of conftest's textbook step, RK4 or
        # Dormand-Prince, to its companion.  The pair's trial distances lie
        # closer to rounding, 23 to 3.7e3 times it here: the pair's oracle
        # test holds them at larger h
        phi, u0, cfg = _orbit_start(0.667, 3.27 * math.pi)
        rep = mw.run(u0, dataclasses.replace(cfg, adaptive=True), reference=phi)
        assert rep.terminated == TERMINATED_COMPLETED
        grid, eps = u0.grid, np.finfo(float).eps
        trials = [call for call in advance_calls if call.trial]
        kept = [call for call in advance_calls if not call.trial]
        switches = [b for a, b in zip(kept, kept[1:])
                    if (a.lam.any(), a.pair) != (b.lam.any(), b.pair)]
        assert len(switches) == 1 and len(trials) >= 8
        for call in trials + switches:
            assert np.array_equal(call.k1, _RhsOperator(grid)(call.spec))
        for call in trials:
            oracle = dp54_companion if call.pair is evolve._DP54 else fsal_companion
            y1, y_star = oracle(mw.PeriodicField(grid, np.fft.irfft(call.spec, grid.n)), call.h,
                                lawson=bool(call.lam.any()))
            distance = math.sqrt(np.mean((y1 - y_star) ** 2))
            rounding = eps * math.sqrt(np.mean(y1 ** 2))
            assert distance > (10.0 if call.pair is evolve._DP54 else 1e3) * rounding
            assert abs(call.est * call.h - distance) <= 4.0 * rounding

    def test_interval_after_a_trial_is_stepped_whole(self, advance_calls):
        # a trial keeps only its estimates: after each group of trial steps the
        # interval is stepped whole from the state and slope the trials
        # stepped from, with the count the winner's estimate plans, q steps
        # of span / q
        phi, u0, cfg = _orbit_start(0.9, 4 * math.pi)
        rep = mw.run(u0, dataclasses.replace(cfg, adaptive=True), reference=phi)
        assert rep.terminated == TERMINATED_COMPLETED
        n_steps, dt = cfg.steps
        targets = {evolve._RK4: evolve.STEP_TOL, evolve._DP54: evolve.PAIR_TOL}
        group, groups = [], 0
        for i, call in enumerate(advance_calls):
            if call.trial:
                group.append(call)
                continue
            if group:
                winner = next(c for c in group if c.lam is call.lam and c.pair is call.pair)
                s0 = cfg.monitor_every * sum(
                    1 for c in advance_calls[:i] if not c.trial and c.est <= targets[c.pair])
                span = (min(s0 + cfg.monitor_every, n_steps) - s0) * dt
                h_next = 0.9 * winner.h * (targets[winner.pair] / winner.est) ** (
                    1.0 / winner.pair.p)
                q = max(1, math.ceil(span / min(2.0 * winner.h, h_next)))
                for c in group:
                    assert np.array_equal(call.spec, c.spec) and np.array_equal(call.k1, c.k1)
                assert (call.q, call.h) == (q, span / q)
                group, groups = [], groups + 1
        assert groups > 0

    @pytest.mark.parametrize("lawson", [False, True], ids=["lab", "lawson"])
    @pytest.mark.parametrize("h", [0.4, 0.2])
    @pytest.mark.parametrize("name", ["_DP54", "_RK4"])
    def test_tableau_step_matches_the_textbook_oracles(self, name, h, lawson):
        # one step of h of a pair through the tableau loop of _rk_step, in
        # the lab's frame and the mean's: its state is the textbook step's
        # to rounding, and its estimate times h the distance of that step to
        # its companion
        pair = getattr(evolve, name)
        oracle = dp54_companion if name == "_DP54" else fsal_companion
        _, u0, _ = _orbit_start(0.693, 3.6 * math.pi)
        st, lam = _stepping_at_the_mean(u0, lawson)
        spec = u0.spectrum
        end, _, est, taken = evolve._advance(st, lam, pair, spec, st.f(spec), 1, h, math.inf)
        y1, y_hat = oracle(u0, h, lawson=lawson)
        rounding = np.finfo(float).eps * math.sqrt(np.mean(y1 ** 2))
        distance = math.sqrt(np.mean((y1 - y_hat) ** 2))
        assert taken == 1 and distance > 1e3 * rounding
        assert np.max(np.abs(np.fft.irfft(end, u0.grid.n) - y1)) <= 8.0 * rounding
        assert abs(est * h - distance) <= 4.0 * rounding

    @pytest.mark.parametrize("lawson", [False, True], ids=["lab", "lawson"])
    def test_pair_estimate_is_fifth_order(self, lawson):
        # the pair's estimate per unit time is of order 4 in h, so one step's
        # is of order 5: halving h divides it by 32
        _, u0, _ = _orbit_start(0.693, 3.6 * math.pi)
        st, lam = _stepping_at_the_mean(u0, lawson)
        spec = u0.spectrum
        est = [evolve._advance(st, lam, evolve._DP54, spec, st.f(spec), 1, h, math.inf)[2] * h
               for h in (0.4, 0.2)]
        assert 32.0 * 0.8 <= est[0] / est[1] <= 32.0 * 1.2

    @pytest.mark.parametrize("k, big_l", [(0.5, 6 * math.pi), (0.667, 3.27 * math.pi),
                                          (0.9, 4 * math.pi)])
    def test_mean_frame_rk4_step_matches_the_lawson_oracle(self, k, big_l):
        # the mean frame's RK4 step: its state y1 is the textbook Lawson
        # step's to rounding, and its estimate times h that step's companion
        # distance
        _, u0, _ = _orbit_start(k, big_l)
        st, lam = _stepping_at_the_mean(u0, lawson=True)
        spec, h = u0.spectrum, 0.4
        end, _, est, taken = evolve._advance(st, lam, evolve._RK4, spec, st.f(spec), 1, h,
                                             math.inf)
        y1, y_star = fsal_companion(u0, h, lawson=True)
        rounding = np.finfo(float).eps * math.sqrt(np.mean(y1 ** 2))
        distance = math.sqrt(np.mean((y1 - y_star) ** 2))
        assert taken == 1 and distance > 1e3 * rounding
        assert np.max(np.abs(np.fft.irfft(end, u0.grid.n) - y1)) <= 8.0 * rounding
        assert abs(est * h - distance) <= 4.0 * rounding

    @pytest.mark.parametrize("k, big_l", [(0.5, 6 * math.pi), (0.667, 3.27 * math.pi)])
    def test_lawson_factors_formed_once_per_h(self, monkeypatch, advance_calls, k, big_l):
        # each _advance call forms its frame's factors E_c for its one h:
        # one complex exp per node of its pair, for all of its q steps, and
        # none is kept for the next call.  Adaptive, (0.5, 6 pi) steps RK4
        # alone in the mean's frame, (0.667, 3.27 pi) both pairs in both
        # frames after its trials; a fixed-dt run steps RK4 in the lab's
        # frame, one call an interval.  With no reference, no other complex
        # exp is taken
        exp, complex_exps = np.exp, []

        def counted(x, *args, **kwargs):
            if np.iscomplexobj(x):
                complex_exps.append(len(advance_calls) - 1)  # the call it falls in
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counted)
        _, u0, cfg = _orbit_start(k, big_l)
        for adaptive in (True, False):
            complex_exps.clear()
            advance_calls.clear()
            rep = mw.run(u0, dataclasses.replace(cfg, adaptive=adaptive))
            assert rep.terminated == TERMINATED_COMPLETED and len(advance_calls) > 1
            assert complex_exps == [i for i, c in enumerate(advance_calls)
                                    for _ in c.pair.nodes]
        assert {(c.lam.any(), c.pair, c.h) for c in advance_calls} == {
            (False, evolve._RK4, cfg.steps[1])}
        assert len(complex_exps) == len(advance_calls) * len(evolve._RK4.nodes)

    def test_branch_right_side_count(self):
        # on the zero-mean branch a run is in the lab's frame; at (0.999, L*)
        # RK4 steps under the same control take 15397 right sides to t = 10,
        # and the run that trials the pair 3713: the bound is that count
        # plus 25 %
        phi, u0, cfg = _orbit_start(0.999, mw.indices.zero_mean_period(0.999))
        rep = mw.run(u0, dataclasses.replace(cfg, adaptive=True), reference=phi, delta=1e-3)
        assert rep.terminated == TERMINATED_COMPLETED
        assert rep.rhs_calls <= 4641

    @pytest.mark.parametrize("k, big_l", [(0.5, 6 * math.pi), (0.9, 4 * math.pi),
                                          (0.7, 9 * math.pi)])
    def test_default_dt_accuracy(self, k, big_l):
        phi, u0, cfg = _orbit_start(k, big_l)
        rep = mw.run(u0, dataclasses.replace(cfg, adaptive=True), reference=phi, delta=1e-3)
        fixed = mw.run(u0, cfg, reference=phi, delta=1e-3)
        # the reference: an eighth of the landed step, monitored at the same times
        fine = mw.EvolutionConfig(dt=cfg.steps[1] / 8, t_end=cfg.t_end,
                                  monitor_every=8 * cfg.monitor_every)
        ref = mw.run(u0, fine, reference=phi, delta=1e-3)
        assert rep.terminated == fixed.terminated == ref.terminated == TERMINATED_COMPLETED
        assert np.array_equal(rep.times, fixed.times) and len(ref.times) == len(rep.times)
        assert np.max(np.abs(rep.rho - ref.rho)) <= 1e-8 * 1e-3
        for drift in (rep.drift_E, rep.drift_F, rep.drift_V):
            assert np.max(np.abs(drift)) < 1e-7
        assert 0.0 < rep.max_error_estimate <= evolve.STEP_TOL

    def test_overflowing_field_is_blowup(self):
        # the cube of 1e120 overflows in the first step: its estimate is NaN;
        # t_end is a few steps, as t_end = 1 plans 1e121 records
        g = mw.PeriodicGrid(2 * math.pi, 32)
        u0 = mw.PeriodicField(g, 1e120 * np.sin(g.nodes))
        dt = mw.suggested_dt(u0)
        cfg = mw.EvolutionConfig(dt=dt, t_end=4 * dt, monitor_every=1, adaptive=True)
        rep = mw.run(u0, cfg)
        assert rep.terminated == TERMINATED_BLOWUP and list(rep.times) == [0.0]
        assert rep.steps == 1
        # a huge but finite u0 at a dt not derived from it: the first count,
        # span / (0.25 (L/n) / max |u0 - ubar|), is inf at 1e308 and, where
        # the mean overflows to inf, a division by zero at 1.7e308; neither
        # can be formed, so the run is blow-up before its first step
        cfg = mw.EvolutionConfig(dt=0.01, t_end=1.0, adaptive=True)
        for amplitude in (1e308, 1.7e308):
            rep = mw.run(mw.PeriodicField(g, amplitude * np.sin(g.nodes)), cfg)
            assert rep.terminated == TERMINATED_BLOWUP and list(rep.times) == [0.0]
            assert rep.steps == 0

    def test_overflow_in_both_trials_is_blowup(self):
        # u0 has a mean, and an interval of 4 steps starts with the trials;
        # the cube of 1e120 overflows in all four, RK4 and the pair in both
        # frames, and the run ends there; t_end is a few intervals, as t_end = 1
        # plans 5e120 records
        g = mw.PeriodicGrid(2 * math.pi, 32)
        u0 = mw.PeriodicField(g, 1e120 * (np.sin(g.nodes) + 0.5))
        dt = mw.suggested_dt(u0)
        cfg = mw.EvolutionConfig(dt=dt, t_end=8 * dt, monitor_every=3, adaptive=True)
        rep = mw.run(u0, cfg)
        assert rep.terminated == TERMINATED_BLOWUP and list(rep.times) == [0.0]
        assert rep.steps == 4 and rep.rhs_calls == 1 + 2 * (4 + 6)

    @pytest.mark.parametrize("lab", [True, False])
    def test_nan_in_one_trial_alone_is_no_blowup(self, monkeypatch, lab):
        # a test double gives one frame's trials, RK4's and the pair's, a NaN
        # estimate and leaves the other's finite: the run goes on in the other
        # frame and completes;
        # a NaN in the lab's trial used to win the comparison and end the run
        # at t = 0
        advance = evolve._advance

        def one_trial_nan(f, lam, pair, spec, k1, q, h, tol):
            out = advance(f, lam, pair, spec, k1, q, h, tol)
            trial = q == 1 and tol == math.inf
            return (None, out[1], math.nan, out[3]) if lam.any() != lab and trial else out

        monkeypatch.setattr(evolve, "_advance", one_trial_nan)
        _, u0, cfg = _orbit_start(0.693, 3.6 * math.pi)
        rep = mw.run(u0, dataclasses.replace(cfg, t_end=1.0, adaptive=True))
        assert rep.terminated == TERMINATED_COMPLETED and rep.times[-1] == 1.0
        assert 0.0 < rep.max_error_estimate <= evolve.STEP_TOL

    def test_trial_past_the_bound_loses(self, monkeypatch, advance_calls):
        # a test double scales every lab-frame trial step, RK4's and the
        # pair's, by 1e3 and gives it a zero estimate: the blow-up check reads
        # that state, so its trial estimates +inf and the run goes on in the
        # mean's frame, 14 steps; unchecked, the zero estimate would win, and
        # the run would step in the lab's, 87
        step = evolve._rk_step

        def blown_lab_trial(f, pair, values, n1, h, lam, es):
            out, err = step(f, pair, values, n1, h, lam, es)
            if advance_calls[-1].trial and not lam.any():
                out = 1e3 * out
                err = f(out) - lam * out  # N at the step's end: the estimate is 0
            return out, err

        monkeypatch.setattr(evolve, "_rk_step", blown_lab_trial)
        phi, _, cfg = _orbit_start(0.693, 3.6 * math.pi)
        u0 = phi + 1e-3 * seeded_perturbation(phi.grid, seed=1)
        rep = mw.run(u0, dataclasses.replace(cfg, t_end=1.0, adaptive=True))
        assert rep.terminated == TERMINATED_COMPLETED and rep.times[-1] == 1.0
        lab_trials = [c.est for c in advance_calls if c.trial and not c.lam.any()]
        assert lab_trials and all(est == math.inf for est in lab_trials)
        assert all(c.lam.any() for c in advance_calls if not c.trial)

    def test_refinement_past_the_cap_is_blowup(self, monkeypatch):
        # no step meets a target of 1e-300, so the first interval is refined
        # until its count passes MAX_REFINE times its count of dt steps
        monkeypatch.setattr(evolve._RK4, "tol", 1e-300)
        _, u0, cfg = _orbit_start(0.5, 6 * math.pi, n=64)
        rep = mw.run(u0, dataclasses.replace(cfg, adaptive=True))
        assert rep.terminated == TERMINATED_BLOWUP and list(rep.times) == [0.0]
        assert rep.steps == 1

    def test_threshold_crossed_inside_an_interval(self, monkeypatch, wave05):
        # as in TestBitwiseOracle, the peak starts half a node off the grid:
        # max |u| crosses a threshold 5e-6 above its start near t = 1, peaks
        # as the wave's crest passes a node, and is back below it when the
        # crest is half a node past it, near t = 33, the one monitor time
        grid = mw.PeriodicGrid(wave05.L, 64)
        u0 = mw.fractional_shift(mw.sample_wave(wave05, grid), 0.5 * grid.spacing)
        cfg = mw.EvolutionConfig(dt=0.05, t_end=33.0, monitor_every=10**9, adaptive=True)
        threshold = float(np.max(np.abs(u0.values))) + 5e-6
        rep = mw.run(u0, cfg)
        assert rep.terminated == TERMINATED_COMPLETED
        assert np.max(np.abs(rep.values[-1])) < threshold
        monkeypatch.setattr(evolve, "BLOWUP_THRESHOLD", threshold)
        rep = mw.run(u0, cfg)
        assert rep.terminated == TERMINATED_BLOWUP and list(rep.times) == [0.0]


BRANCH_999 = (0.999, mw.indices.zero_mean_period(0.999))


class TestReversibility:
    """``conftest.round_trip``, the run there, reflected, and back: a global
    error witness of each method that rests on no finer run."""

    @pytest.mark.parametrize("methods", ["rk4", "pair"])
    @pytest.mark.parametrize("k, big_l", [(0.5, 6 * math.pi), (0.9, 4 * math.pi), BRANCH_999])
    def test_round_trip_within_the_target(self, monkeypatch, k, big_l, methods):
        # the trial chooses from one method alone: RK4's round trips are
        # 2.5e-13, 2.6e-13 and 5.3e-15 here, and the pair's 9.0e-15, 1.2e-11
        # and 1.3e-13
        monkeypatch.setattr(evolve, "_METHODS",
                            (evolve._RK4,) if methods == "rk4" else (evolve._DP54,))
        _, u0, cfg = _orbit_start(k, big_l)
        assert round_trip(u0, dataclasses.replace(cfg, adaptive=True)) <= evolve.STEP_TOL * 10.0

    @pytest.mark.parametrize("k, big_l", [(0.9, 4 * math.pi), BRANCH_999])
    def test_round_trip_where_the_trial_chooses_the_pair(self, advance_calls, k, big_l):
        _, u0, cfg = _orbit_start(k, big_l)
        assert round_trip(u0, dataclasses.replace(cfg, adaptive=True)) <= evolve.STEP_TOL * 10.0
        assert any(c.pair is evolve._DP54 for c in advance_calls if not c.trial)

    @pytest.mark.parametrize("j", range(6))
    def test_wrong_pair_weight_fails(self, monkeypatch, j):
        # a test double moves one weight b_j of the carried solution by 1e-3
        # and keeps the error weights: the steps' estimates still meet the
        # pair's target in the mean's frame, where N is small, and the run
        # completes, but its round trip is 5e-10 to 1.4e-9
        wrong = copy.copy(evolve._DP54)
        wrong.b = wrong.b.copy()
        wrong.b[j] += 1e-3
        monkeypatch.setattr(evolve, "_DP54", wrong)
        monkeypatch.setattr(evolve, "_METHODS", (wrong,))
        _, u0, cfg = _orbit_start(0.5, 6 * math.pi)
        assert round_trip(u0, dataclasses.replace(cfg, adaptive=True)) > evolve.STEP_TOL * 10.0


def _unstable_operator():
    """L for generic coefficients on 64 nodes, not even, whose J L has the
    unstable pair 0.624 +- 0.814i: criterion 9's."""
    grid = mw.PeriodicGrid(2 * math.pi, 64)
    x = grid.nodes
    phi = mw.PeriodicField(grid, -1.0 + 0.3 * np.cos(x))
    ph2 = mw.PeriodicField(grid, -0.019 * np.cos(x) - 1.515 * np.sin(2 * x)
                           - 2.929 * np.cos(3 * x))
    return mw.assemble_l(phi, ph2, 0.2)


class TestLinearizedRun:
    def test_constant_case_norm_conserved(self):
        p = mw.wave_at(0.0, 2 * math.pi)[0]
        grid = mw.PeriodicGrid(p.L, 64)
        x = grid.nodes
        v0 = mw.PeriodicField(grid, np.cos(2 * x) + 0.5 * np.sin(3 * x))
        phi, _, phi2 = mw.profile(p, grid.nodes)
        op = mw.assemble_l(mw.PeriodicField(grid, phi), mw.PeriodicField(grid, phi2), p.c)
        radius = float(np.max(np.abs(mw.evolution_spectrum(op).eigenvalues)))
        rep = mw.linearized_run(v0, op, mw.EvolutionConfig(dt=0.2 / radius, t_end=2.0,
                                                           monitor_every=1000))
        assert abs(rep.norms[-1] / rep.norms[0] - 1.0) < 1e-8

    def test_four_transforms_per_right_side(self, fft_calls):
        # J L on a spectrum: p u_x and q u are formed on the grid, one
        # inverse and one forward transform each, and no other
        op = _unstable_operator()
        rhs = evolve._linear_rhs(op)
        spec = seeded_perturbation(op.grid, seed=3).spectrum
        fft_calls.clear()
        rhs(spec)
        assert fft_calls == ["irfft", "rfft", "irfft", "rfft"]

    def test_growth_rate_matches_eigenvalue(self):
        # generic coefficients with a genuinely unstable pair (0.624 +- 0.814i);
        # they are not even, so target and radius come from the dense J oracle
        op = _unstable_operator()
        expected = dense_evolution_eigenvalues(op)
        target = float(np.max(expected.real))
        assert target > 0.5
        radius = float(np.max(np.abs(expected)))
        rep = mw.linearized_run(seeded_perturbation(op.grid, seed=3), op,
                                mw.EvolutionConfig(dt=2.0 / radius, t_end=24.0,
                                                   monitor_every=200))
        assert abs(rep.rate_tail - target) / target < 0.1

    def test_kernel_direction_is_frozen(self, wave05):
        grid = mw.PeriodicGrid(wave05.L, 128)
        phi, phi1, phi2 = mw.profile(wave05, grid.nodes)
        op = mw.assemble_l(mw.PeriodicField(grid, phi), mw.PeriodicField(grid, phi2), wave05.c)
        radius = float(np.max(np.abs(mw.evolution_spectrum(op).eigenvalues)))
        v0 = mw.PeriodicField(grid, phi1)
        cfg = mw.EvolutionConfig(dt=2.0 / radius, t_end=1.0, monitor_every=10**9)
        rep = mw.linearized_run(v0, op, cfg)
        # L phi' = 0, so the evolution leaves phi' untouched
        assert abs(rep.norms[-1] - rep.norms[0]) < 1e-8 * rep.norms[0]

    @pytest.mark.parametrize("k, big_l", [(0.5, 6 * math.pi), (0.3, 4 * math.pi),
                                          (0.7, 9 * math.pi)])
    def test_generator_is_the_flow_derivative(self, k, big_l):
        # oracle: the derivative of the nonlinear right side plus the frame
        # speed c dx, at the wave along a band-limited v, is J L v; against
        # dx L v it is off by O(1) relative.  The flow is cubic in u, so the
        # Richardson pair of central differences is exact up to rounding
        p = mw.wave_at(k, big_l)[0]
        grid = mw.PeriodicGrid(p.L, 128)
        phi = mw.sample_wave(p, grid).values
        v = random_smooth(grid, np.random.default_rng(5)).values
        v /= np.max(np.abs(v))
        rhs_op = _RhsOperator(grid)

        def central(eps):
            spec_p, spec_m = np.fft.rfft(phi + eps * v), np.fft.rfft(phi - eps * v)
            moving = p.c * 1j * grid.wavenumbers() * (spec_p - spec_m)
            return np.fft.irfft(rhs_op(spec_p) - rhs_op(spec_m) + moving, grid.n) / (2.0 * eps)

        frechet = (4.0 * central(5e-3) - central(1e-2)) / 3.0
        op = mw.operator_for(p, 128)
        generator = np.fft.irfft(evolve._linear_rhs(op)(np.fft.rfft(v)), grid.n)
        assert np.linalg.norm(frechet - generator) <= 1e-9 * np.linalg.norm(generator)
        lv = np.fft.irfft(mw.linop._apply_l(op, np.fft.rfft(v)), grid.n)
        dx_l = mw.derivative(mw.PeriodicField(grid, lv)).values
        assert np.linalg.norm(frechet - dx_l) > np.linalg.norm(frechet)

    def test_adaptive_config_refused(self, wave05):
        # the linearized steps are fixed; adaptive used to be ignored silently
        grid = mw.PeriodicGrid(wave05.L, 64)
        with pytest.raises(DomainError, match="adaptive"):
            mw.linearized_run(seeded_perturbation(grid, seed=3), mw.operator_for(wave05, 64),
                              mw.EvolutionConfig(dt=0.1, t_end=1.0, adaptive=True))

    def test_blowup_raises_its_own_error(self, wave05):
        # steps of 50 lose finiteness; numpy's overflow warnings, errors under
        # this suite, must not stand in for BlowUpError
        grid = mw.PeriodicGrid(wave05.L, 64)
        with pytest.raises(mw.BlowUpError, match="lost finiteness"):
            mw.linearized_run(seeded_perturbation(grid, seed=3), mw.operator_for(wave05, 64),
                              mw.EvolutionConfig(dt=50.0, t_end=5000.0))

    def test_operator_on_another_grid_refused(self, wave05):
        grid = mw.PeriodicGrid(wave05.L, 64)
        with pytest.raises(DomainError, match="operator grid"):
            mw.linearized_run(seeded_perturbation(grid, seed=3), mw.operator_for(wave05, 128),
                              mw.EvolutionConfig(dt=0.1, t_end=1.0))

    @pytest.mark.parametrize("unstable", [True, False], ids=["criterion-9", "wave05"])
    def test_norms_match_the_matrix_exponential(self, wave05, unstable):
        # independent oracle: sqrt(L / n) ||expm(t J A) v0|| at every record, J
        # and the grid matrix A of L dense.  Measured: 4.3e-7 relative on
        # criterion 9's run, whose norm grows 1.07e6x, and 7.5e-9 at (0.5, 6 pi),
        # n = 64, recorded at every step; the bounds are three times those
        if unstable:
            op = _unstable_operator()
            radius = float(np.max(np.abs(dense_evolution_eigenvalues(op))))
            cfg, bound = mw.EvolutionConfig(dt=2.0 / radius, t_end=24.0, monitor_every=200), 1.3e-6
        else:
            op = mw.operator_for(wave05, 64)
            radius = float(np.max(np.abs(mw.evolution_spectrum(op).eigenvalues)))
            cfg, bound = mw.EvolutionConfig(dt=0.5 / radius, t_end=10.0, monitor_every=1), 2.3e-8
        v0 = seeded_perturbation(op.grid, seed=3)
        rep = mw.linearized_run(v0, op, cfg)
        ja = helmholtz_diff_matrix(op.grid) @ dense_matrix(op)
        v = v0.values - np.mean(v0.values)
        exact = [math.sqrt(op.grid.spacing) * np.linalg.norm(scipy.linalg.expm(t * ja) @ v)
                 for t in rep.times]
        assert len(rep.times) > 3
        assert np.max(np.abs(rep.norms / exact - 1.0)) <= bound

    def test_steps_through_the_one_loop(self, wave05, advance_calls):
        # the linearized flow is stepped by run's interval loop: fixed RK4
        # steps in the lab's frame with no target, one _advance call an interval
        grid = mw.PeriodicGrid(wave05.L, 64)
        cfg = mw.EvolutionConfig(dt=0.1, t_end=2.0, monitor_every=5)
        rep = mw.linearized_run(seeded_perturbation(grid, seed=3), mw.operator_for(wave05, 64),
                                cfg)
        assert len(advance_calls) == len(rep.times) - 1 == 4
        for call in advance_calls:
            assert not call.lam.any() and call.pair is evolve._RK4 and call.tol == math.inf
            assert (call.q, call.h) == (5, cfg.steps[1])

    @pytest.mark.parametrize("value", [1.0, 0.3])
    def test_constant_field_has_no_growth_rate(self, wave05, value):
        grid = mw.PeriodicGrid(wave05.L, 64)
        v0 = mw.PeriodicField(grid, np.full(64, value))
        with pytest.raises(DomainError, match="zero-mean"):
            mw.linearized_run(v0, mw.operator_for(wave05, 64),
                              mw.EvolutionConfig(dt=0.1, t_end=1.0))


@pytest.fixture(scope="module")
def phi05(wave05):
    """The wave at (0.5, 6 pi) sampled on 256 nodes."""
    return mw.sample_wave(wave05, mw.PeriodicGrid(wave05.L, 256))


class TestOrbitalExperiment:
    def test_zero_delta_stays_on_orbit(self, wave05, phi05):
        # the unperturbed run is evolve's, run from phi; orbital_experiment
        # always perturbs
        dt = mw.suggested_dt(phi05, speed=wave05.c)
        cfg = mw.EvolutionConfig(dt=dt, t_end=5.0, monitor_every=25)
        with pytest.raises(DomainError, match="above"):
            mw.orbital_experiment(phi05, 0.0, seed=1, cfg=cfg)
        rep = mw.run(phi05, cfg, reference=phi05)
        assert rep.terminated == TERMINATED_COMPLETED
        assert np.max(rep.rho) < 1e-8

    def test_seeded_perturbation_normalized(self):
        g = mw.PeriodicGrid(6 * math.pi, 256)
        w = seeded_perturbation(g, seed=11)
        assert mw.h1_norm(w) == pytest.approx(1.0, rel=1e-12)
        w2 = seeded_perturbation(g, seed=11)
        assert np.array_equal(w.values, w2.values)

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_seeded_perturbation_is_the_cosine_sum(self, n):
        # oracle: sum_m a_m cos(kappa_m x) + b_m sin(kappa_m x) on the nodes,
        # one normal drawn at a time in the order a_1, b_1, a_2, ..., scaled
        # to unit H^1; the one irfft agrees to rounding
        g = mw.PeriodicGrid(5.3, n)
        for seed in (0, 7, 2**40):
            rng = np.random.default_rng(seed)
            vals = np.zeros(n)
            for m in range(1, min(8, n // 4) + 1):
                arg = 2.0 * math.pi * m * g.nodes / g.L
                vals += rng.standard_normal() * np.cos(arg) + rng.standard_normal() * np.sin(arg)
            oracle = mw.PeriodicField(g, vals)
            oracle = (1.0 / mw.h1_norm(oracle)) * oracle
            w = seeded_perturbation(g, seed)
            assert np.max(np.abs(w.values - oracle.values)) <= 1e-14 * np.max(np.abs(oracle.values))

    def test_seeded_perturbation_negative_seed(self, phi05):
        with pytest.raises(DomainError):
            seeded_perturbation(mw.PeriodicGrid(6 * math.pi, 256), -1)
        # a seed that is not an integer used to raise numpy's TypeError
        with pytest.raises(DomainError, match="integer"):
            seeded_perturbation(mw.PeriodicGrid(6 * math.pi, 256), 1.5)
        cfg = mw.EvolutionConfig(dt=0.1, t_end=1.0)
        for seed in (-1, 1.5):
            with pytest.raises(DomainError, match="integer"):
                mw.orbital_experiment(phi05, 0.0, seed=seed, cfg=cfg)

    def test_small_perturbation_stays_close(self, wave05, phi05):
        dt = mw.suggested_dt(phi05, speed=wave05.c)
        cfg = mw.EvolutionConfig(dt=dt, t_end=10.0, monitor_every=25)
        rep = mw.orbital_experiment(phi05, 1e-3, seed=42, cfg=cfg)
        assert rep.terminated == TERMINATED_COMPLETED
        assert np.max(rep.rho) < 20e-3

    def test_instability_detection_trips(self, wave05, phi05, monkeypatch):
        # rho/delta sits near 1 on this orbit, so a factor below that must
        # terminate the run early with the detection verdict
        monkeypatch.setattr(evolve, "RHO_FACTOR", 0.5)
        dt = mw.suggested_dt(phi05, speed=wave05.c)
        rep = mw.orbital_experiment(phi05, 1e-3, seed=42,
                                    cfg=mw.EvolutionConfig(dt=dt, t_end=5.0,
                                                           monitor_every=5))
        assert rep.terminated == TERMINATED_INSTABILITY
        assert rep.times[-1] < 5.0
        assert rep.rho[-1] > 0.5 * 1e-3

    def test_instability_detection_trips_after_a_step(self, monkeypatch, advance_calls):
        # at (0.9, 4 pi), where the run goes on with the pair, rho / delta
        # grows from 0.996 at t = 0 to 1.10 at t = 5: a factor between the two
        # ends the run at a record after t = 0, the first above it
        p = mw.wave_at(0.9, 4 * math.pi)[0]
        phi = mw.sample_wave(p, mw.PeriodicGrid(p.L, 256))
        cfg = mw.EvolutionConfig(dt=mw.suggested_dt(phi, speed=p.c), t_end=5.0, monitor_every=25,
                                 adaptive=True)
        ratio = mw.orbital_experiment(phi, 1e-3, seed=42, cfg=cfg).rho / 1e-3
        assert ratio[0] < 1.0 < 1.05 < ratio.max()
        assert any(c.pair is evolve._DP54 for c in advance_calls if not c.trial)
        factor = 0.5 * (ratio[0] + ratio.max())
        monkeypatch.setattr(evolve, "RHO_FACTOR", factor)
        rep = mw.orbital_experiment(phi, 1e-3, seed=42, cfg=cfg)
        first = int(np.argmax(ratio > factor))
        assert rep.terminated == TERMINATED_INSTABILITY
        assert len(rep.times) == first + 1 and rep.times[-1] > 0.0
        assert np.array_equal(rep.rho / 1e-3, ratio[:first + 1])

    @pytest.mark.parametrize("delta, refused", [(1e-320, True), (1e-18, True), (1e-12, False)])
    def test_perturbation_below_rounding_refused(self, wave05, phi05, delta, refused):
        # rho's rounding floor (~5e-15 here) used to read as instability at
        # delta = 1e-18 and 1e-320; delta w must move phi beyond _zero_tol
        cfg = mw.EvolutionConfig(dt=mw.suggested_dt(phi05, speed=wave05.c), t_end=2.0,
                                 monitor_every=25, adaptive=True)
        if refused:
            with pytest.raises(DomainError, match="rounding"):
                mw.orbital_experiment(phi05, delta, seed=0, cfg=cfg)
        else:
            rep = mw.orbital_experiment(phi05, delta, seed=0, cfg=cfg)
            assert rep.terminated == TERMINATED_COMPLETED
            assert np.max(rep.rho) < 20 * delta

    def test_delta_validation(self, phi05):
        with pytest.raises(DomainError):
            mw.orbital_experiment(phi05, -1.0, seed=0,
                                  cfg=mw.EvolutionConfig(dt=0.1, t_end=1.0))

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_nonfinite_delta_rejected(self, phi05, delta):
        with pytest.raises(DomainError):
            mw.orbital_experiment(phi05, delta, seed=0,
                                  cfg=mw.EvolutionConfig(dt=0.1, t_end=1.0))
