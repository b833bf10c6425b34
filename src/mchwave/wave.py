"""Explicit periodic traveling waves and their parameter maps.

A wave is the dnoidal profile

    phi(x) = a + b * (dn^2(2 K(k) x / L; k) - E(k)/K(k)),

traveling at speed c and solving

    (phi - c) phi'' + phi'^2 / 2 - phi^3 + c phi = A.

Given the modulus k and period L, the coefficients (a, b, c) come from
closed forms in K(k) and E(k); they exist only where the discriminant

    Delta(k, L) = 9 L^4 - 2048 K(k)^4 (1 - k^2 + k^4)

is positive ("period large enough").  The integration constant A is
evaluated from the wave equation itself at x = 0, where the profile sits
at its minimum and phi' vanishes.

The momentum F = (1/2) int phi^2 + phi'^2 and the energy
E = -int phi^4/4 + phi phi'^2/2 are closed forms in (k, K, E, L) too, via a
recurrence for the period means of powers of dn^2.  Every k-derivative
takes one path, :func:`_dk`: one complex-step evaluation at k + 1e-30 i
(Squire and Trapp, SIAM Rev. 1998), exact to rounding with no profile
sampling.

The closed forms work elementwise on arrays of cells (k, L), so a scan
evaluates its whole grid in one pass.  Where a cell has no wave they give
NaN instead of raising, and each cell gets a reason code, "" when it has a
valid wave:

- ``domain``: k outside [0, MODULUS_CUTOFF], or L not finite and positive;
- ``overflow``: L**7 overflows a float, L above DBL_MAX^(1/7) ~ 1.087e44
  (the index scales as L^-7, so past that bound it would underflow to 0);
- ``discriminant``: Delta <= 0;
- ``ineq_i``, ``ineq_ii``: a validity margin is not negative;
- ``underflow``: the wave is valid but its index I, named by
  :mod:`mchwave.indices`, is below the smallest normal float (just below
  the ``overflow`` bound, at small k).

Two scalar entry points are the one-element case of that pass:
:func:`wave_at` returns the wave and its :class:`ValidityReport`, admits
k = 0 as the constant wave, and raises the typed error of a refused cell
(an invalid margin is no error); :func:`validity` returns the report alone
and never raises.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elliptic import MODULUS_CUTOFF, _k_e_jacobi, complete_k_e
from .errors import DomainError

# Imaginary step of the complex-step derivatives.  No difference is taken,
# so any step this small gives f'(k) to rounding: the O(h^2) error is far
# below one ulp.
COMPLEX_STEP = 1e-30


@dataclass(frozen=True)
class WaveParams:
    """One exact periodic wave: modulus, period, and ODE coefficients.

    ``a`` is the mean of the profile over a period, ``b < 0`` the dnoidal
    amplitude, ``0 < c < 3/2`` the speed, ``A`` the integration constant.
    """

    k: float
    L: float
    a: float
    b: float
    c: float
    A: float


@dataclass(frozen=True)
class SnoidalParams:
    """Offset and amplitude of the equivalent sn^2 form of a wave."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class ValidityReport:
    """Signed margins of the three conditions a wave must satisfy.

    ``ineq_i_value`` is c^2 - 3c + 32 pi^4 / L^4 (must be < 0) and
    ``ineq_ii_margin`` is the exact max(phi - c), attained at x = L/2
    (must be < 0).  For the constant wave (k = 0) ``ineq_i_value`` is
    exactly 0.0, the boundary, so ``all_ok`` is False.
    When the closed forms refuse (k, L), because (k, L) is outside their
    domain (e.g. ``validity(nan, 6.0)``), Delta <= 0 or L**7 overflows,
    ``discriminant_ok`` is False and the other two margins are NaN.
    ``reason`` is the cell's code of :func:`_waves`, "" for a valid wave.
    """

    discriminant_ok: bool
    ineq_i_value: float
    ineq_ii_margin: float
    all_ok: bool
    reason: str


def _outside(k, L):
    """Where (k, L) leaves the domain of the closed forms, 0 <= Re k <=
    MODULUS_CUTOFF and 0 < Re L < inf (k = 0 is the constant wave)."""
    k_re, l_re = np.asarray(k).real, np.asarray(L).real
    return ~((k_re >= 0.0) & (k_re <= MODULUS_CUTOFF) & (l_re > 0.0) & np.isfinite(L))


def _params_from_k_l(k, L, k_e=None) -> tuple:
    """(a, b, c, K, E) by direct evaluation of the closed forms, elementwise.

    k and L are scalars or arrays that broadcast, real or complex (the
    complex-step derivatives), with Delta > 0 tested on the real part.
    Where (k, L) is outside the domain, L**7 overflows or Delta <= 0, a, b
    and c are NaN; :func:`_waves` names the reason.  ``k_e`` is (K, E) at
    k, if the caller has evaluated them.
    """
    out = _outside(k, L)
    if out.any():  # (0.5, 10) has a wave; it stands in for the cells outside
        k, L, k_e = np.where(out, 0.5, k), np.where(out, 10.0, L), None
    big_k, big_e = complete_k_e(k) if k_e is None else k_e
    k2, big_k2 = k * k, big_k * big_k
    with np.errstate(all="ignore"):  # from overflowing or vanishing powers of L: refused
        k4_q = big_k**4 * (1.0 - k2 + k2 * k2)  # K^4 (1 - k^2 + k^4)
        delta = 9.0 * L**4 - 2048.0 * k4_q
        refused = out | ~np.isfinite(L**7) | (np.real(delta) <= 0.0)
        root = np.sqrt(np.where(refused, 1.0, delta))
        l2 = L * L
        b = -32.0 * big_k2 / l2
        # 1.5 L^2 - sqrt(Delta)/2 without the cancelling subtraction
        head = 512.0 * k4_q / (1.5 * L * L + 0.5 * root)
        c = head / l2
        a = -(-32.0 * (2.0 - k2) * big_k2 + 96.0 * big_e * big_k + head) / (3.0 * L * L)
    if refused.any():
        a, b, c = (np.where(refused, np.nan, v) for v in (a, b, c))
    return a, b, c, big_k, big_e


def _a_from_ode(a, b, c, k, big_k, big_e, L):
    """Integration constant from the wave ODE evaluated at x = 0.

    At the origin sn = 0, cn = dn = 1, so phi' = 0 there and
    A = (phi(0) - c) phi''(0) - phi(0)^3 + c phi(0).  Elementwise, real or
    complex k.
    """
    omega = 2.0 * big_k / L
    phi0 = a + b * (1.0 - big_e / big_k)
    phi2_0 = -2.0 * k * k * b * omega * omega
    return (phi0 - c) * phi2_0 - phi0**3 + c * phi0


def _moments(k, big_k, big_e) -> list:
    """Period means Y_0..Y_4 of y = dn^2(theta); real or complex k.

    Y_0 = 1, Y_1 = E/K; with s = 2 - k^2 and (dy/dtheta)^2 =
    4 (-y^3 + s y^2 - k'^2 y), the period mean of d/dtheta (y^(m+1) y') = 0
    gives Y_{m+2} = [2 s (m+1) Y_{m+1} - k'^2 (2m+1) Y_m] / (2m+3).
    """
    kp2 = 1.0 - k * k
    s = 1.0 + kp2
    ys = [1.0, big_e / big_k]
    for m in range(3):
        ys.append((2.0 * s * (m + 1) * ys[m + 1] - kp2 * (2 * m + 1) * ys[m]) / (2 * m + 3))
    return ys


def _momentum(a, b, k, big_k, big_e, L):
    """Momentum F = (1/2) int phi^2 + phi'^2 over one period, in closed form.

    phi - a = b (y - Y_1) and phi' = b omega y' with omega = 2K/L.  Y_1 and
    Y_2 come from :func:`_moments`, whose recurrence at m = 1 also turns
    <(y')^2> into (4/5)(s Y_2 - 2 k'^2 Y_1).  Real or complex k and L.
    """
    kp2 = 1.0 - k * k
    s = 1.0 + kp2
    y1, y2 = _moments(k, big_k, big_e)[1:3]
    omega = 2.0 * big_k / L
    slope2 = 0.8 * (s * y2 - 2.0 * kp2 * y1)
    return 0.5 * L * (a * a + b * b * (y2 - y1 * y1 + omega * omega * slope2))


def _energy(a, b, k, big_k, big_e, L):
    """Energy E = -int phi^4/4 + phi phi'^2/2 over one period, in closed form.

    With phi = a0 + b y, a0 = a - b Y_1, and (y')^2 = 4 P(y), both
    integrands are quartics in y, averaged with :func:`_moments`.  Real or
    complex k and L.
    """
    kp2 = 1.0 - k * k
    s = 1.0 + kp2
    ys = _moments(k, big_k, big_e)
    a0 = a - b * ys[1]
    quartic = sum(math.comb(4, j) * a0 ** (4 - j) * b**j * ys[j] for j in range(5))
    # <y^m P(y)> for m = 0, 1
    p0, p1 = (-ys[m + 3] + s * ys[m + 2] - kp2 * ys[m + 1] for m in (0, 1))
    omega = 2.0 * big_k / L
    return -L * (0.25 * quartic + 2.0 * b * b * omega * omega * (a0 * p0 + b * p1))


def _closed_forms(k, L) -> tuple:
    """(a, b, c, A, F) from the closed forms in (k, K, E, L), elementwise; k
    real or complex, NaN where :func:`_params_from_k_l` refuses."""
    a, b, c, big_k, big_e = _params_from_k_l(k, L)
    return (a, b, c, _a_from_ode(a, b, c, k, big_k, big_e, L),
            _momentum(a, b, k, big_k, big_e, L))


def _waves(k: np.ndarray, L: np.ndarray) -> tuple:
    """The waves at 1-d arrays of cells (k, L), k real, and their validity:
    (a, b, c, A, K, E), the margins (ineq_i, ineq_ii) of :func:`validity`,
    and the reason per cell.

    The reason is "" for a valid wave; else the refusal of the closed forms
    (``domain``, ``overflow``, ``discriminant``), where a, b, c, A and the
    margins are NaN, or ``ineq_i`` / ``ineq_ii`` for the first margin that
    is not negative.  A comes from the wave ODE.
    """
    a, b, c, big_k, big_e = _params_from_k_l(k, L)
    refused = np.isnan(a)
    with np.errstate(over="ignore", invalid="ignore"):  # L**7 is inf or NaN where it overflows
        reason = np.where(_outside(k, L), "domain", np.where(
            np.isfinite(L**7), "discriminant", "overflow"))
    if refused.any():  # (0.5, 10) stands in, so nothing below overflows or divides by 0
        k, L = np.where(refused, 0.5, k), np.where(refused, 10.0, L)
    a_ode = _a_from_ode(a, b, c, k, big_k, big_e, L)
    # 0 c: exactly 0 for the constant wave, NaN where there is no wave
    ineq_i = np.where(k > 0.0, c * c - 3.0 * c + 32.0 * math.pi**4 / L**4, 0.0 * c)
    ineq_ii = a + b * ((1.0 - k * k) - big_e / big_k) - c
    reason = np.where(refused, reason, np.where(ineq_i < 0.0, np.where(
        ineq_ii < 0.0, "", "ineq_ii"), "ineq_i"))
    return (a, b, c, a_ode, big_k, big_e), (ineq_i, ineq_ii), reason


# Messages of the typed errors :func:`wave_at` raises for a refused cell.
_REFUSED = {
    "domain": f"a wave requires 0 <= k <= {MODULUS_CUTOFF!r} and finite L > 0, "
              "got k={k}, L={L}",
    "overflow": "period L={L} too large for the closed forms: L**7 overflows",
    "discriminant": "period too small for this modulus: Delta(k={k}, L={L}) <= 0",
}


def _cell(k: float, L: float) -> tuple:
    """One :func:`_waves` pass at the cell (k, L): the floats (a, b, c, A)
    and the cell's :class:`ValidityReport`."""
    waves, (ineq_i, ineq_ii), (reason,) = _waves(np.array([k], float), np.array([L], float))
    reason = str(reason)
    report = ValidityReport(reason not in _REFUSED, float(ineq_i[0]), float(ineq_ii[0]),
                            reason == "", reason)
    return [float(v[0]) for v in waves[:4]], report


def wave_at(k: float, L: float) -> tuple[WaveParams, ValidityReport]:
    """The wave at modulus k and period L and its validity report, from one
    :func:`_waves` pass.

    k = 0 (or -0.0, recorded as 0.0) is the constant wave phi = a, the closed
    forms at K = E = pi/2; it exists for finite L > (128/9)^(1/4) pi, and its
    ``ineq_i_value`` is exactly 0.0, so it is never valid.  An invalid margin
    is no error: the report carries it.

    Raises:
        DomainError: where the closed forms refuse (k, L), for a ``domain``,
            ``overflow`` or ``discriminant`` cell.
    """
    k = 0.0 if k == 0.0 else k
    coeffs, report = _cell(k, L)
    if report.reason in _REFUSED:
        raise DomainError(_REFUSED[report.reason].format(k=k, L=L))
    return WaveParams(k, L, *coeffs), report


def profile(p: WaveParams, x):
    """Profile phi and its first two x-derivatives at x (scalar or array).

    Derivatives are analytic, via (dn^2)' = -2 k^2 sn cn dn and the chain
    rule with theta = 2 K x / L.  K, E and sn, cn, dn come from one AGM
    ladder.
    """
    big_k, big_e, sn_cn_dn = _k_e_jacobi(p.k)
    omega = 2.0 * big_k / p.L
    x_arr = np.asarray(x, dtype=float)
    sn, cn, dn = sn_cn_dn(omega * x_arr)
    k2 = p.k * p.k
    phi = p.a + p.b * (dn * dn - big_e / big_k)
    phi1 = -2.0 * k2 * p.b * omega * (sn * cn * dn)
    phi2 = -2.0 * k2 * p.b * omega * omega * (
        (cn * dn) ** 2 - (sn * dn) ** 2 - k2 * (sn * cn) ** 2
    )
    if x_arr.ndim == 0:
        return float(phi), float(phi1), float(phi2)
    return phi, phi1, phi2


def snoidal_form(p: WaveParams) -> SnoidalParams:
    """Coefficients (alpha, beta) with phi = alpha + beta sn^2(2Kx/L; k).

    Follows from dn^2 = 1 - k^2 sn^2: alpha = a + b (1 - E/K) and
    beta = -b k^2 >= 0.
    """
    big_k, big_e = complete_k_e(p.k)
    return SnoidalParams(
        alpha=p.a + p.b * (1.0 - big_e / big_k),
        beta=-p.b * p.k * p.k,
    )


def ode_residual(p: WaveParams, n: int = 512) -> float:
    """Max residual of the wave ODE over n uniform samples of one period;
    DomainError unless n is an integer >= 16."""
    if not isinstance(n, numbers.Integral) or n < 16:
        raise DomainError(f"ode_residual requires an integer n >= 16, got {n!r}")
    x = np.arange(n) * (p.L / n)
    phi, phi1, phi2 = profile(p, x)
    res = (phi - p.c) * phi2 + 0.5 * phi1 * phi1 - phi**3 + p.c * phi - p.A
    return float(np.max(np.abs(res)))


def validity(k: float, L: float) -> ValidityReport:
    """Diagnose whether (k, L) admits a valid wave; never raises.

    Reports the discriminant sign, the value of c^2 - 3c + 32 pi^4 / L^4,
    and max(phi - c), which b < 0 places at x = L/2, where dn^2 = k'^2:
    a + b (k'^2 - E/K) - c.  k = 0 is the constant wave, where E/K = 1.
    All three must be strictly negative margins for ``all_ok``.  The
    constant wave's first value is identically 0, reported as exactly
    0.0, so its ``all_ok`` is False at every L.
    """
    return _cell(k, L)[1]


def _dk(f: Callable, k) -> tuple:
    """d f / dk of a closed form f of the modulus: the one derivative path.

    ``k`` is one modulus or an array of cells, and f maps moduli shaped like
    k to a tuple of components and is analytic in k.  Returns
    Im f(k + i 1e-30) / 1e-30 per component (complex step), exact to
    rounding since nothing is differenced.
    """
    return tuple(np.imag(v) / COMPLEX_STEP for v in f(k + 1j * COMPLEX_STEP))
