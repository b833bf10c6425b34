"""Periodic grids, spectral calculus, conserved functionals, and the
orbital semi-distance.

A :class:`PeriodicField` carries samples of an L-periodic function on a
uniform grid.  Differentiation is Fourier (exact for band-limited data),
integration is the trapezoid rule, which is spectrally accurate for
smooth periodic integrands.  The H^1 inner product used throughout is
the one induced by the momentum functional: ||v||^2 = int v^2 + v_x^2.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError
from .wave import WaveParams, profile

logger = logging.getLogger(__name__)


def check_grid_size(n: int) -> None:
    """DomainError unless n is an even grid size of at least 16."""
    if n < 16 or n % 2 != 0:
        raise DomainError(f"grid size must be even and >= 16, got {n}")


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid of n nodes x_j = j L / n on [0, L); n even, >= 16."""

    L: float
    n: int

    def __post_init__(self) -> None:
        if not (self.L > 0.0) or not math.isfinite(self.L):
            raise DomainError(f"grid period must be positive, got {self.L}")
        check_grid_size(self.n)

    @property
    def spacing(self) -> float:
        return self.L / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * (self.L / self.n)

    def wavenumbers(self) -> np.ndarray:
        """rfft wavenumbers 2 pi m / L, m = 0 .. n/2."""
        return 2.0 * math.pi * np.arange(self.n // 2 + 1) / self.L


@dataclass(frozen=True)
class PeriodicField:
    """Real samples of an L-periodic function on a :class:`PeriodicGrid`; a
    field is never mutated, so ``spectrum`` (its rfft) is computed once and held."""

    grid: PeriodicGrid
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise DomainError(
                f"values shape {vals.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @cached_property
    def spectrum(self) -> np.ndarray:
        spec = np.fft.rfft(self.values)
        spec.flags.writeable = False
        return spec

    def _check_same_grid(self, other: "PeriodicField") -> None:
        if self.grid != other.grid:
            raise DomainError("fields live on different grids and cannot be combined")

    def __add__(self, other: "PeriodicField") -> "PeriodicField":
        self._check_same_grid(other)
        return PeriodicField(self.grid, self.values + other.values)

    def __sub__(self, other: "PeriodicField") -> "PeriodicField":
        self._check_same_grid(other)
        return PeriodicField(self.grid, self.values - other.values)

    def __rmul__(self, scalar: float) -> "PeriodicField":
        return PeriodicField(self.grid, float(scalar) * self.values)


def sample(f: Callable, grid: PeriodicGrid) -> PeriodicField:
    """Sample a vectorized function, f(nodes) -> values, on the grid nodes."""
    return PeriodicField(grid, f(grid.nodes))


def sample_wave(p: WaveParams, grid: PeriodicGrid) -> PeriodicField:
    """Sample the wave profile phi on the grid."""
    if not np.isclose(grid.L, p.L, rtol=1e-12, atol=0.0):
        raise DomainError(f"grid period {grid.L} does not match wave period {p.L}")
    return PeriodicField(grid, np.asarray(profile(p, grid.nodes)[0]))


def derivative(u: PeriodicField) -> PeriodicField:
    """Spectral x-derivative; the Nyquist mode is zeroed (its derivative is
    not representable on an even grid)."""
    symbol = 1j * u.grid.wavenumbers()
    symbol[-1] = 0.0
    return PeriodicField(u.grid, np.fft.irfft(symbol * u.spectrum, u.grid.n))


def integrate(u: PeriodicField) -> float:
    """Trapezoid rule over one period: (L/n) sum u_j."""
    return float(u.grid.spacing * np.sum(u.values))


def helmholtz_inverse(u: PeriodicField) -> PeriodicField:
    """(1 - d^2/dx^2)^{-1} u via its Fourier symbol 1 / (1 + kappa^2)."""
    kap = u.grid.wavenumbers()
    spec = u.spectrum / (1.0 + kap * kap)
    return PeriodicField(u.grid, np.fft.irfft(spec, u.grid.n))


def inner_l2(u: PeriodicField, v: PeriodicField) -> float:
    u._check_same_grid(v)
    return float(u.grid.spacing * np.dot(u.values, v.values))


def _h1_square(u: PeriodicField) -> float:
    """||u||^2_H1 = int u^2 + u_x^2, with u differentiated once."""
    ux = derivative(u)
    return inner_l2(u, u) + inner_l2(ux, ux)


def h1_norm(u: PeriodicField) -> float:
    return math.sqrt(max(_h1_square(u), 0.0))


def functionals(u: PeriodicField) -> tuple[float, float, float]:
    """The three conserved quantities (E, F, V) of the flow.

    E = -int [u^4/4 + u u_x^2 / 2], F = (1/2) int u^2 + u_x^2, V = int u,
    with u_x from spectral differentiation.
    """
    ux = derivative(u).values
    w = u.grid.spacing
    vals = u.values
    e = -w * float(np.sum(0.25 * vals**4 + 0.5 * vals * ux * ux))
    f = 0.5 * w * float(np.sum(vals * vals + ux * ux))
    v = w * float(np.sum(vals))
    return e, f, v


def fractional_shift(u: PeriodicField, s: float) -> PeriodicField:
    """u(. + s) by Fourier phase multiplication; exact for band-limited u.

    The Nyquist mode is phase-shifted with its cosine interpretation kept
    real, so shifted fields stay real for any fractional s.
    """
    kap = u.grid.wavenumbers()
    spec = u.spectrum
    shifted = spec * np.exp(1j * kap * s)
    # the Nyquist coefficient represents a pure cosine; rotate it as such
    shifted[-1] = spec[-1] * math.cos(kap[-1] * s)
    return PeriodicField(u.grid, np.fft.irfft(shifted, u.grid.n))


def _orbit_distance(u: PeriodicField, phi: PeriodicField) -> tuple[float, float]:
    """min over y of ||u - phi(. + y)||_H1 and the minimizing shift.

    The squared distance is ||u||^2 + ||phi||^2 - 2 C(y), where the H^1
    cross-correlation C(y) = Re sum_j c_j exp(-i kappa_j y) is a
    trigonometric polynomial with c_j = w_j u_hat_j conj(phi_hat_j) L / n^2,
    and ||u||^2 = sum_j w_j |u_hat_j|^2 L / n^2 (likewise phi) comes from
    the same spectra.  Coarse stage: C at all n grid shifts in one FFT of
    the c_j.  Fine stage: a safeguarded Newton iteration on C'(y) = 0,
    with C' and C'' summed from the same series (O(n) per step, no FFT),
    kept inside the bracket of the best grid shift +- L/n and bisecting it
    whenever C'' >= 0 or a step leaves it, until |dy| < 1e-10 L.
    The distance is then the exact objective at the optimum, not the
    cancelling sum.  phi_hat and the shifted phi come from ``phi.spectrum``,
    so a reference held across calls is transformed once.
    """
    u._check_same_grid(phi)
    n, big_l = u.grid.n, u.grid.L
    kap = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / big_l
    weight = 1.0 + kap * kap
    weight[n // 2] = 1.0  # derivatives zero the Nyquist mode; match _h1_square
    u_hat = np.fft.fft(u.values)
    phi_hat = np.concatenate((phi.spectrum, np.conj(phi.spectrum[-2:0:-1])))
    coef = weight * u_hat * np.conj(phi_hat) * (big_l / n**2)
    # <u, phi(.+y_j)>_H1 for every grid shift y_j = j L / n in one pass.
    cross = np.fft.fft(coef).real
    norm_u2 = float(np.dot(weight, np.abs(u_hat) ** 2)) * (big_l / n**2)
    norm_p2 = float(np.dot(weight, np.abs(phi_hat) ** 2)) * (big_l / n**2)

    def slope_curvature(y: float) -> tuple[float, float]:
        terms = coef * np.exp(-1j * kap * y)
        return float(np.dot(kap, terms.imag)), -float(np.dot(kap * kap, terms.real))

    j_best = int(np.argmax(cross))
    y0 = j_best * big_l / n
    lo, hi = y0 - big_l / n, y0 + big_l / n
    tol = 1e-10 * big_l
    y_star, bisected = y0, False
    for iterations in range(1, 101):  # bisection alone meets tol in < 64 steps
        slope, curv = slope_curvature(y_star)
        # C rises where C' > 0, so its maximum lies on that side of y_star
        lo, hi = (y_star, hi) if slope > 0.0 else (lo, y_star)
        if curv < 0.0 and lo <= y_star - slope / curv <= hi:
            y_next = y_star - slope / curv
        else:
            y_next, bisected = 0.5 * (lo + hi), True
        step, y_star = y_next - y_star, y_next
        if abs(step) < tol:
            break
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("orbit distance: %d Newton iterations, |C'(y*)| = %.3e, bisection used: %s",
                     iterations, abs(slope_curvature(y_star)[0]), bisected)
    diff = u - fractional_shift(phi, y_star)
    val_star = _h1_square(diff)
    val_grid = norm_u2 + norm_p2 - 2.0 * float(cross[j_best])
    if val_grid < val_star:
        val_star, y_star = val_grid, y0
    return math.sqrt(max(val_star, 0.0)), y_star % big_l
