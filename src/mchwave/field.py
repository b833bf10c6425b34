"""Periodic grids, spectral calculus, conserved functionals, and the
orbital semi-distance.

A :class:`PeriodicField` carries samples of an L-periodic function on a
uniform grid and holds their rfft.  Differentiation is Fourier (exact
for band-limited data), integrals are trapezoid sums, spectrally
accurate for smooth periodic integrands, and the H^1 norm induced by
the momentum functional, ||v||^2 = int v^2 + v_x^2, is summed from the
rfft by Parseval.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .wave import WaveParams, profile

logger = logging.getLogger(__name__)


def check_grid_size(n: int) -> None:
    """DomainError unless n is an even integer (numpy's too, not a bool) of at least 16."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 16 or n % 2 != 0:
        raise DomainError(f"grid size must be an even integer >= 16, got {n!r}")


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

    @cached_property
    def rfft_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only tables on the rfft modes m = 0 .. n/2: kappa, i kappa
        with the Nyquist entry zeroed (not representable on an even grid),
        and the H^1 Parseval weights w, 2 (1 + kappa^2) off modes 0 and n/2
        and 1 at both: ||u||^2_H1 = (L / n^2) sum_m w_m |u_hat_m|^2."""
        kap = self.wavenumbers()
        d1 = 1j * kap
        d1[-1] = 0.0
        weight = 2.0 * (1.0 + kap * kap)
        weight[0] = weight[-1] = 1.0
        for table in (kap, d1, weight):
            table.flags.writeable = False
        return kap, d1, weight


@dataclass(frozen=True)
class PeriodicField:
    """Real samples of an L-periodic function on a :class:`PeriodicGrid`; a
    field is never mutated, so ``spectrum`` (its rfft) is computed once and held."""

    grid: PeriodicGrid
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if np.iscomplexobj(vals):
            raise DomainError("field values must be real")
        vals = np.asarray(vals, dtype=float)
        if vals.shape != (self.grid.n,):
            raise DomainError(
                f"values shape {vals.shape} does not match grid size {self.grid.n}"
            )
        if not np.isfinite(vals).all():
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


def sample_wave(p: WaveParams, grid: PeriodicGrid) -> PeriodicField:
    """Sample the wave profile phi on the grid."""
    if not np.isclose(grid.L, p.L, rtol=1e-12, atol=0.0):
        raise DomainError(f"grid period {grid.L} does not match wave period {p.L}")
    return PeriodicField(grid, np.asarray(profile(p, grid.nodes)[0]))


def derivative(u: PeriodicField) -> PeriodicField:
    """Spectral x-derivative; the Nyquist mode is zeroed."""
    return PeriodicField(u.grid, np.fft.irfft(u.grid.rfft_tables[1] * u.spectrum, u.grid.n))


def _h1_square(spec: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """||u||^2_H1 = int u^2 + u_x^2 as the Parseval sum over u's rfft ``spec``,
    one for each row of a stack of spectra."""
    power = np.abs(spec)
    power *= power
    power *= grid.rfft_tables[2]
    return (grid.L / grid.n**2) * power.sum(axis=-1)


def h1_norm(u: PeriodicField) -> float:
    return math.sqrt(_h1_square(u.spectrum, u.grid))


def _functionals(values: np.ndarray, spec: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """(E, F, V) of each row of a stack of fields on ``grid``, from their
    values and rfft spectra: one row of three for each field."""
    ux = np.fft.irfft(grid.rfft_tables[1] * spec, grid.n)
    # the density u u_x^2 / 2 + u^4 / 4 in two arrays of the stack's size:
    # a pass over a run's records takes a block of rows at a time
    density = values * ux
    density *= ux
    density *= 0.5
    quartic = np.multiply(values, values, out=ux)
    quartic *= quartic
    quartic *= 0.25
    density += quartic
    efv = np.empty(spec.shape[:-1] + (3,))
    efv[..., 0] = -grid.spacing * density.sum(axis=-1)
    efv[..., 1] = 0.5 * _h1_square(spec, grid)
    efv[..., 2] = grid.spacing * spec[..., 0].real
    return efv


def functionals(u: PeriodicField) -> tuple[float, float, float]:
    """The three conserved quantities (E, F, V) of the flow.

    E = -int [u^4/4 + u u_x^2 / 2], a trapezoid sum with u_x from spectral
    differentiation; F = (1/2) int u^2 + u_x^2, half the Parseval sum of
    ``h1_norm``; V = int u, the mean mode of the rfft.  A field is the
    one-row case of the pass over a run's records (``evolve.run``), which
    takes the same code on a stack of them.
    """
    return tuple(_functionals(u.values, u.spectrum, u.grid).tolist())


def fractional_shift(u: PeriodicField, s: float) -> PeriodicField:
    """u(. + s) by Fourier phase multiplication; exact for band-limited u.

    The Nyquist mode is phase-shifted with its cosine interpretation kept
    real, so shifted fields stay real for any fractional s.
    """
    return PeriodicField(u.grid, np.fft.irfft(_shifted(u.spectrum, u.grid, s), u.grid.n))


def _shifted(spec: np.ndarray, grid: PeriodicGrid, s: float) -> np.ndarray:
    """The rfft ``spec`` of u on ``grid`` rotated to that of u(. + s)."""
    kap = grid.rfft_tables[0]
    shifted = spec * np.exp(1j * kap * s)
    # the Nyquist coefficient represents a pure cosine; rotate it as such
    shifted[-1] = spec[-1] * math.cos(kap[-1] * s)
    return shifted


def _orbit_distance(u_hat: np.ndarray, phi: PeriodicField) -> tuple[float, float]:
    """min over y of ||u - phi(. + y)||_H1 and the minimizing shift in [0, L),
    for u given by its rfft ``u_hat`` on phi's grid: a run's held state.

    Sums run over the rfft half-spectra, with the grid's H^1 Parseval
    weights w_m; no field of u is built.  The H^1 cross-correlation C(y) =
    <u, phi(. + y)>_H1 is Re sum_m c_m exp(i kappa_m y), with
    c_m = w_m conj(u_hat_m) phi_hat_m L / n^2.  Coarse stage: C at all n
    grid shifts in one irfft.  Fine stage: a safeguarded Newton iteration
    on C'(y) = 0, with C' and C'' summed from the series in one product
    (no FFT), from the vertex of the parabola through C at the best grid
    shift and its two neighbours, kept inside the bracket of that shift
    +- L/n and bisecting it whenever C'' >= 0 or a step leaves it, until
    |dy| < 1e-10 L.  The distance is then the Parseval sum of ``h1_norm``
    over the coefficients u_hat_m - phi_hat_m exp(i kappa_m y*), the
    Nyquist mode rotated as a cosine (:func:`fractional_shift`): a sum of
    squares, not the cancelling ||u||^2 + ||phi||^2 - 2 C.
    """
    grid = phi.grid
    n, big_l = grid.n, grid.L
    kap, _, weight = grid.rfft_tables
    phi_hat = phi.spectrum
    coef = np.conj(u_hat)
    coef *= phi_hat
    coef *= (big_l / n**2) * weight
    # irfft sums the modes 0 < m < n/2 twice, as their weights already do:
    # halve the coefficients there, and C(j L / n) is n irfft(.)_j
    grid_coef = (0.5 * n) * coef
    grid_coef[0] *= 2.0
    grid_coef[-1] *= 2.0
    cross = np.fft.irfft(grid_coef, n)
    terms = np.empty((2, coef.size), dtype=complex)  # kappa c and kappa^2 c
    np.multiply(kap, coef, out=terms[0])
    np.multiply(kap, terms[0], out=terms[1])

    def slope_curvature(y: float) -> tuple[float, float]:
        slope, curv = (terms @ np.exp((1j * y) * kap)).tolist()
        return -slope.imag, -curv.real

    j = int(np.argmax(cross))
    y0 = j * big_l / n
    lo, hi = y0 - big_l / n, y0 + big_l / n
    tol = 1e-10 * big_l
    # start at the vertex of the parabola through C at the best grid shift
    # and its neighbours, within L / 2n of it as C there is the largest
    left, mid, right = cross[[j - 1, j, (j + 1) % n]].tolist()
    bend = left - 2.0 * mid + right
    y_star = y0 + (0.5 * big_l / n) * (left - right) / bend if bend < 0.0 else y0
    bisected = False
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
    dist = math.sqrt(_h1_square(u_hat - _shifted(phi_hat, grid, y_star), grid))
    shift = y_star % big_l  # a step of -1e-50 from y = 0 lands on L itself
    return dist, (shift if shift < big_l else 0.0)
