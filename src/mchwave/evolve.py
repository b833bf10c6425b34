"""Pseudospectral time evolution and the orbital-stability experiment.

The equation is integrated in its smoothed form

    u_t = d/dx (1 - d^2/dx^2)^{-1} (u u_xx + u_x^2 / 2 - u^3),

whose x-derivative reproduces u u_xxx + 2 u_x u_xx - 3 u^2 u_x exactly,
so this is the original flow written through its Hamiltonian structure.
The operator symbol i kappa / (1 + kappa^2) is bounded, which keeps the
stiffness effectively first order and classical RK4 stable with
dt ~ L / n.

Nonlinear products are formed in physical space on a grid refined by the
fixed factor 2, enough to fully dealias cubic terms, and truncated back.
The RK4 state is the rfft spectrum of u, so one right side costs two FFT
calls: one batched inverse transform that lifts u, u_x and u_xx to the
fine grid together (their symbols, the zero padding and the amplitude
scale are tabulated once per grid), and a forward transform of the
product u (u_xx - u^2) + u_x^2 / 2, whose coarse modes times the
smoothing symbol are the result.  One inverse transform per step gives
the grid values for the blow-up check and the monitors: nine FFT calls
per step.
The right side is an exact x-derivative, so the discrete mean of u is
conserved to rounding.

Blow-up is a recorded outcome, not an exception: the underlying flow is
only conditionally globally well-posed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, DomainError
from .field import (PeriodicField, PeriodicGrid, _orbit_distance, functionals,
                    h1_norm, sample_wave)
from .linop import OperatorMatrix, _apply_l, _zero_tol
from .wave import WaveParams

TERMINATED_COMPLETED = "completed"
TERMINATED_BLOWUP = "blowup"
TERMINATED_INSTABILITY = "instability_detected"

# Fine-grid factor of the nonlinear products: with 2n nodes the cubic
# terms of modes up to n/2 alias only onto modes the truncation drops.
DEALIAS_PAD = 2
# A run whose max |u| leaves this bound is recorded as blow-up.
BLOWUP_THRESHOLD = 100.0


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-stepping and monitoring knobs for one run."""

    dt: float
    t_end: float
    monitor_every: int = 10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise DomainError(f"dt must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise DomainError(f"t_end must be finite and positive, got {self.t_end}")
        if self.monitor_every < 1:
            raise DomainError(f"monitor_every must be >= 1, got {self.monitor_every}")


@dataclass(frozen=True)
class StabilityRunReport:
    """Diagnostics sampled along a run.

    Drifts are relative to the t = 0 values of E, F, V; ``rho`` is the
    orbital semi-distance to the reference wave (None when no reference
    was supplied).
    """

    times: np.ndarray
    rho: np.ndarray | None
    drift_E: np.ndarray
    drift_F: np.ndarray
    drift_V: np.ndarray
    terminated: str


@dataclass(frozen=True)
class Trajectory:
    """Field snapshots at the monitor times."""

    times: list[float]
    fields: list[PeriodicField]


@dataclass(frozen=True)
class LinearGrowthReport:
    """L^2 norm history of a linearized run and its empirical growth rates.

    ``rate`` is log(||v(T)|| / ||v(0)||) / T; ``rate_tail`` measures the
    same over the second half of the run, where transients have decayed.
    """

    times: np.ndarray
    norms: np.ndarray
    rate: float
    rate_tail: float


def suggested_dt(u0: PeriodicField, speed: float = 0.0) -> float:
    """Default step 0.5 (L/n) / max(1, ||u0||_inf + speed)."""
    umax = float(np.max(np.abs(u0.values)))
    return 0.5 * u0.grid.spacing / max(1.0, umax + abs(speed))


def _pad_spectrum(spec: np.ndarray, n: int, m: int) -> np.ndarray:
    """Zero-pad an rfft spectrum from n to m grid points (m > n, both even)."""
    out = np.zeros(m // 2 + 1, dtype=complex)
    out[: n // 2 + 1] = spec
    out[n // 2] *= 0.5  # split the Nyquist cosine between +-n/2
    return out


class _RhsOperator:
    """Precomputed spectral machinery for the smoothed right side, acting on
    rfft spectra: n/2 + 1 coefficients of u in, those of u_t out.

    ``lift`` stacks the symbols 1, i kappa and -kappa^2 as they act on the
    coarse rfft spectrum, with the zero padding's Nyquist halving and the
    m / n amplitude scale folded in, so one batched inverse transform of
    ``lift * spec`` gives u, u_x and u_xx on the fine grid.
    """

    def __init__(self, grid: PeriodicGrid):
        self.n = grid.n
        self.m = DEALIAS_PAD * grid.n
        kap = grid.wavenumbers()
        sym_d1 = 1j * kap
        sym_d1[-1] = 0.0
        self.sym_smooth = sym_d1 / (1.0 + kap * kap)
        half = self.n // 2 + 1
        syms = (np.ones(half), sym_d1, -(kap * kap))
        self.lift = (self.m / self.n) * np.stack([_pad_spectrum(s, self.n, self.m)[:half]
                                                  for s in syms])
        self.sym_out = self.sym_smooth * (self.n / self.m)
        self._fine_spec = np.zeros((3, self.m // 2 + 1), dtype=complex)

    def __call__(self, spec: np.ndarray) -> np.ndarray:
        half = self.n // 2 + 1
        np.multiply(self.lift, spec, out=self._fine_spec[:, :half])
        u_f, ux_f, uxx_f = np.fft.irfft(self._fine_spec, self.m)
        w_f = u_f * (uxx_f - u_f * u_f) + 0.5 * ux_f * ux_f
        # sym_out vanishes at the Nyquist mode, where the fine spectrum would
        # fold +-n/2 onto the grid cosine, so the coarse slice is exact
        out = self.sym_out * np.fft.rfft(w_f)[:half]
        if not np.isfinite(out).all():
            raise BlowUpError("non-finite value in right-side evaluation")
        return out


def rhs(u: PeriodicField) -> PeriodicField:
    """One evaluation of the smoothed right side dx (1-dx^2)^{-1}(...)."""
    op = _RhsOperator(u.grid)
    return PeriodicField(u.grid, np.fft.irfft(op(u.spectrum), u.grid.n))


def _rk4_step(f, values: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(values)
    k2 = f(values + 0.5 * dt * k1)
    k3 = f(values + 0.5 * dt * k2)
    k4 = f(values + dt * k3)
    return values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def run(u0: PeriodicField, cfg: EvolutionConfig,
        reference: WaveParams | None = None, delta: float | None = None,
        rho_factor: float = 50.0) -> tuple[Trajectory, StabilityRunReport]:
    """Integrate the flow from u0 with RK4, recording drift diagnostics.

    dt is adjusted (at most fractionally) so an integer number of steps
    lands exactly on t_end.  When a ``reference`` wave is supplied the
    orbital semi-distance rho(u(t), phi) is recorded too, and if
    ``delta`` is given the run halts with ``instability_detected`` once
    rho exceeds rho_factor * delta, at t = 0 included; delta = 0 or None
    turns detection off.  Blow-up (non-finite values or ||u||_inf beyond
    ``BLOWUP_THRESHOLD`` = 100) is recorded, not raised.

    Raises:
        DomainError: if delta is not finite and >= 0, or rho_factor is not
            finite and > 0.
    """
    if delta is not None and not (math.isfinite(delta) and delta >= 0.0):
        raise DomainError(f"delta must be finite and >= 0, got {delta}")
    if not (math.isfinite(rho_factor) and rho_factor > 0.0):
        raise DomainError(f"rho_factor must be finite and > 0, got {rho_factor}")
    n_steps = max(1, round(cfg.t_end / cfg.dt))
    dt = cfg.t_end / n_steps
    op = _RhsOperator(u0.grid)
    phi_ref = sample_wave(reference, u0.grid) if reference is not None else None

    e0, f0, v0 = functionals(u0)
    scale = np.array([max(abs(e0), 1e-300), max(abs(f0), 1e-300), max(abs(v0), 1e-300)])

    times: list[float] = []
    fields: list[PeriodicField] = []
    rho_list: list[float] = []
    drifts: list[np.ndarray] = []

    def record(t: float, values: np.ndarray) -> str | None:
        fld = PeriodicField(u0.grid, values)
        times.append(t)
        fields.append(fld)
        e, f, v = functionals(fld)
        drifts.append(np.array([(e - e0), (f - f0), (v - v0)]) / scale)
        if phi_ref is not None:
            r = _orbit_distance(fld, phi_ref)[0]
            rho_list.append(r)
            if delta and r > rho_factor * delta:
                return TERMINATED_INSTABILITY
        return None

    spec = np.fft.rfft(u0.values)
    terminated = record(0.0, u0.values) or TERMINATED_COMPLETED
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            if terminated != TERMINATED_COMPLETED:
                break
            try:
                spec = _rk4_step(op, spec, dt)
            except BlowUpError:
                terminated = TERMINATED_BLOWUP
                break
            values = np.fft.irfft(spec, u0.grid.n)
            if not (np.max(np.abs(values)) <= BLOWUP_THRESHOLD):  # NaN fails too
                terminated = TERMINATED_BLOWUP
                break
            if step % cfg.monitor_every == 0 or step == n_steps:
                terminated = record(step * dt, values) or TERMINATED_COMPLETED

    drift_arr = np.array(drifts)
    report = StabilityRunReport(
        times=np.array(times),
        rho=np.array(rho_list) if phi_ref is not None else None,
        drift_E=drift_arr[:, 0], drift_F=drift_arr[:, 1], drift_V=drift_arr[:, 2],
        terminated=terminated,
    )
    return Trajectory(times=times, fields=fields), report


def _linear_rhs(lop: OperatorMatrix):
    """The right side v -> J L v of :func:`linearized_run` on grid values:
    L v by FFT, then the symbol i kappa / (1 + kappa^2), Nyquist entry 0."""
    n, kap = lop.grid.n, lop.grid.wavenumbers()
    symbol = 1j * np.append(kap[:-1], 0.0) / (1.0 + kap * kap)
    return lambda v: np.fft.irfft(symbol * np.fft.rfft(_apply_l(lop, v)), n)


def linearized_run(v0: PeriodicField, lop: OperatorMatrix,
                   cfg: EvolutionConfig) -> LinearGrowthReport:
    """Integrate v_t = J L v, J = dx (1 - dx^2)^{-1}: the linearization of the
    flow :func:`run` integrates, at the wave and in the frame moving with it.

    ``lop`` is L on the grid of v0, for a wave ``operator_for(p, n)``; its
    coefficients need not be even: the right side applies L by FFT and
    forms no matrix.  The mean of v0 is removed, and J L keeps it zero.
    Norms are L^2(0, L).

    Raises:
        DomainError: if the operator's grid is not v0's, or v0 has no
            zero-mean part above rounding (its growth rate is undefined).
    """
    grid = v0.grid
    if lop.grid != grid:
        raise DomainError("operator grid does not match the initial field")
    values = v0.values - np.mean(v0.values)
    if np.max(np.abs(values)) <= _zero_tol(v0.values):
        raise DomainError("v0 has no zero-mean part: its growth rate is undefined")
    n_steps = max(1, round(cfg.t_end / cfg.dt))
    dt = cfg.t_end / n_steps
    w = math.sqrt(grid.spacing)

    times = [0.0]
    norms = [w * float(np.linalg.norm(values))]
    f = _linear_rhs(lop)
    for step in range(1, n_steps + 1):
        values = _rk4_step(f, values, dt)
        if not np.all(np.isfinite(values)):
            raise BlowUpError(f"linearized run lost finiteness at step {step}")
        if step % cfg.monitor_every == 0 or step == n_steps:
            times.append(step * dt)
            norms.append(w * float(np.linalg.norm(values)))

    times_arr = np.array(times)
    norms_arr = np.array(norms)
    total = cfg.t_end
    rate = math.log(norms_arr[-1] / norms_arr[0]) / total
    i_half = int(np.searchsorted(times_arr, 0.5 * total))
    i_half = min(i_half, len(times_arr) - 2)
    span = times_arr[-1] - times_arr[i_half]
    rate_tail = math.log(norms_arr[-1] / norms_arr[i_half]) / span if span > 0 else rate
    return LinearGrowthReport(times=times_arr, norms=norms_arr, rate=rate,
                              rate_tail=rate_tail)


def seeded_perturbation(grid: PeriodicGrid, seed: int) -> PeriodicField:
    """Unit-H^1 random field on the modes 1 .. min(8, n/4), reproducible by seed."""
    rng = np.random.default_rng(seed)
    x = grid.nodes
    vals = np.zeros(grid.n)
    top = min(8, grid.n // 4)
    for m in range(1, top + 1):
        arg = 2.0 * math.pi * m * x / grid.L
        vals += rng.standard_normal() * np.cos(arg) + rng.standard_normal() * np.sin(arg)
    fld = PeriodicField(grid, vals)
    return (1.0 / h1_norm(fld)) * fld


def orbital_experiment(p: WaveParams, delta: float, seed: int,
                       cfg: EvolutionConfig, n: int = 256,
                       rho_factor: float = 50.0) -> StabilityRunReport:
    """Evolve phi + delta * w for a seeded unit-H^1 perturbation w.

    Samples rho(u(t), phi) along the run; terminates with
    ``instability_detected`` if rho exceeds rho_factor * delta.  delta and
    rho_factor are validated by :func:`run`.
    """
    grid = PeriodicGrid(p.L, n)
    u0 = sample_wave(p, grid)
    if delta > 0.0:
        u0 = u0 + delta * seeded_perturbation(grid, seed)
    _, report = run(u0, cfg, reference=p, delta=delta, rho_factor=rho_factor)
    return report
