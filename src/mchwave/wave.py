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
at its minimum and phi' vanishes; a published long closed form for A is
kept only as a cross-check because it is easy to mistype.

The momentum F = (1/2) int phi^2 + phi'^2 and the energy
E = -int phi^4/4 + phi phi'^2/2 are closed forms in (k, K, E, L) too, via a
recurrence for the period means of powers of dn^2.  Every k-derivative goes
through :func:`_dk`: one complex-step evaluation at k + 1e-30 i (Squire and
Trapp, SIAM Rev. 1998), exact to rounding with no profile sampling, or at an
explicit step h the oracle :func:`fd_dk` (central differences, one Richardson
level, a step-halving gate) over the same real closed forms.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .elliptic import complete_k_e, jacobi
from .errors import AccuracyError, DomainError

logger = logging.getLogger(__name__)

# Agreement target between the two independent computations of A, in units
# of the rounding floor of the closed form (see :func:`_a_closed_form`).
A_CROSSCHECK_FLOORS = 1e3
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
    When the closed forms refuse (k, L), because Delta <= 0 or a power of L
    overflows, ``discriminant_ok`` is False and the other two margins are NaN.
    """

    discriminant_ok: bool
    ineq_i_value: float
    ineq_ii_margin: float
    all_ok: bool


@dataclass(frozen=True)
class ParamDerivatives:
    """k-derivatives of (a, b, c, A) at fixed period, with the FD step used.

    ``step`` is 0.0 for the exact (complex-step) derivatives.
    """

    da_dk: float
    db_dk: float
    dc_dk: float
    dA_dk: float
    step: float


def _power(L, m: int):
    """L**m for a real or complex period; DomainError where it overflows."""
    try:
        return L**m
    except OverflowError as exc:
        raise DomainError(f"period L={L} too large for the closed forms: L**{m} overflows") from exc


def discriminant(k: float, L: float) -> float:
    """Delta(k, L) = 9 L^4 - 2048 K(k)^4 (1 - k^2 + k^4)."""
    big_k, _ = complete_k_e(k)
    return 9.0 * _power(L, 4) - 2048.0 * big_k**4 * (1.0 - k * k + k**4)


def _params_from_k_l(k, L: float) -> tuple:
    """(a, b, c, K, E) by direct evaluation of the closed forms.

    k may be complex (complex-step derivatives); Delta > 0 is then tested
    on the real part.  DomainError where Delta <= 0 or L**4 overflows.
    """
    big_k, big_e = complete_k_e(k)
    delta = 9.0 * _power(L, 4) - 2048.0 * big_k**4 * (1.0 - k * k + k**4)
    if delta.real <= 0.0:
        raise DomainError(
            f"period too small for this modulus: Delta(k={k}, L={L}) = {delta} <= 0"
        )
    root = cmath.sqrt(delta) if isinstance(delta, complex) else math.sqrt(delta)
    b = -32.0 * big_k**2 / (L * L)
    # 1.5 L^2 - sqrt(Delta)/2 without the cancelling subtraction
    head = 512.0 * big_k**4 * (1.0 - k * k + k**4) / (1.5 * L * L + 0.5 * root)
    c = head / (L * L)
    a = -(-32.0 * (2.0 - k * k) * big_k**2 + 96.0 * big_e * big_k + head) / (3.0 * L * L)
    return a, b, c, big_k, big_e


def _a_from_ode(a, b, c, k, big_k, big_e, L: float):
    """Integration constant from the wave ODE evaluated at x = 0.

    At the origin sn = 0, cn = dn = 1, so phi' = 0 there and
    A = (phi(0) - c) phi''(0) - phi(0)^3 + c phi(0).  Real or complex k.
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


def _momentum(a, b, k, big_k, big_e, L: float):
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


def _energy(a, b, k, big_k, big_e, L: float):
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


def _closed_forms(k, L: float) -> tuple:
    """(a, b, c, A, F) from the closed forms in (k, K, E, L); k real or complex."""
    a, b, c, big_k, big_e = _params_from_k_l(k, L)
    return (a, b, c, _a_from_ode(a, b, c, k, big_k, big_e, L),
            _momentum(a, b, k, big_k, big_e, L))


def _a_closed_form(k: float, L: float, big_k: float) -> tuple[float, float]:
    """The published long closed form for A, given K(k), and its rounding floor;
    cross-check only.  DomainError where its terms of order L^6 overflow (L
    above about 1.4e51).

    A = (term1 + term2 + term3 - 27 L^6) / (27 L^6), and the floor is
    eps (|term1| (1 + s / (2 Delta)) + |term2| + |term3| + 27 L^6) / (27 L^6),
    where s / (2 Delta), s the sum of Delta's terms' moduli, is the
    conditioning of sqrt(Delta) in term1.  The sum cancels down to A, and
    away from the discriminant boundary the floor is about 5e-16 absolute:
    at long L, where |A| falls below it, the cross-check is only as sharp
    as the floor.
    """
    k2 = k * k
    l4, l6 = _power(L, 4), _power(L, 6)
    delta = 2048.0 * (-1.0 + k2 - k2 * k2) * big_k**4 + 9.0 * l4
    if delta <= 0.0:
        raise DomainError(f"Delta(k={k}, L={L}) = {delta} <= 0")
    root = math.sqrt(delta)
    k4, k6 = k2 * k2, k2 * k2 * k2
    term1 = (1280.0 * (-1.0 + k2 - k4) * big_k**4 + 9.0 * l4) * root
    term2 = (-16384.0 - 16384.0 * k6 + 24576.0 * k2 + 24576.0 * k4) * big_k**6
    term3 = 6912.0 * L * L * (1.0 - k2 + k4) * big_k**4
    a_closed = (term1 + term2 + term3 - 27.0 * l6) / (27.0 * l6)
    if not math.isfinite(a_closed):
        raise DomainError(f"period L={L} too large for the closed form of A: its terms overflow")
    spread = 2048.0 * (1.0 - k2 + k4) * big_k**4 + 9.0 * l4
    moduli = abs(term1) * (1.0 + 0.5 * spread / delta) + abs(term2) + abs(term3) + 27.0 * l6
    return a_closed, float(np.finfo(float).eps * moduli / (27.0 * l6))


def integration_constant_closed_form(k: float, L: float) -> float:
    """The published long closed form for A; cross-check only."""
    return _a_closed_form(k, L, complete_k_e(k)[0])[0]


def _check_k_l(k: float, L: float) -> None:
    """The domain of the closed forms; k = 0 is the constant wave."""
    if not (0.0 <= k < 1.0 and 0.0 < L < math.inf):
        raise DomainError(f"a wave requires 0 <= k < 1 and finite L > 0, got k={k}, L={L}")


def _wave_k_e(k: float, L: float) -> tuple[WaveParams, float, float]:
    """The wave at (k, L) with the K(k) and E(k) of the AGM run that built it."""
    _check_k_l(k, L)
    a, b, c, big_k, big_e = _params_from_k_l(k, L)
    a_ode = _a_from_ode(a, b, c, k, big_k, big_e, L)
    a_closed, floor = _a_closed_form(k, L, big_k)
    if abs(a_ode - a_closed) > A_CROSSCHECK_FLOORS * floor:
        logger.warning(
            "integration-constant cross-check disagrees at (k=%g, L=%g): "
            "ode=%.17g closed_form=%.17g floor=%.3g", k, L, a_ode, a_closed, floor,
        )
    return WaveParams(k=k, L=L, a=a, b=b, c=c, A=a_ode), big_k, big_e


def wave_params(k: float, L: float) -> WaveParams:
    """Construct the wave at modulus k and period L.

    Requires 0 < k < 1 and Delta(k, L) > 0.  A comes from the wave ODE at
    x = 0; any disagreement with the long closed form beyond 1e3 times its
    rounding floor is logged (a warning, not a failure).
    """
    if k == 0.0:
        raise DomainError("wave_params requires 0 < k < 1; k = 0 is constant_wave")
    return _wave_k_e(k, L)[0]


def constant_wave(L: float) -> WaveParams:
    """The k -> 0 degenerate wave: a constant profile phi = a.

    The closed forms of :func:`wave_params` at k = 0, where K = E = pi/2.
    Exposed for testing; k = 0 itself lies outside the open modulus
    interval of :func:`wave_params`.  Exists for finite L > (128/9)^(1/4) pi.
    """
    return _wave_k_e(0.0, L)[0]


def profile(p: WaveParams, x):
    """Profile phi and its first two x-derivatives at x (scalar or array).

    Derivatives are analytic, via (dn^2)' = -2 k^2 sn cn dn and the chain
    rule with theta = 2 K x / L.
    """
    big_k, big_e = complete_k_e(p.k)
    omega = 2.0 * big_k / p.L
    x_arr = np.asarray(x, dtype=float)
    sn, cn, dn = jacobi(omega * x_arr, p.k)
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
    """Max residual of the wave ODE over n uniform samples of one period."""
    if n < 16:
        raise DomainError(f"ode_residual requires n >= 16, got {n}")
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
    try:
        p, big_k, big_e = _wave_k_e(k, L)
    except DomainError:
        return ValidityReport(False, math.nan, math.nan, False)
    ineq_ii = p.a + p.b * ((1.0 - k * k) - big_e / big_k) - p.c
    ineq_i = p.c * p.c - 3.0 * p.c + 32.0 * math.pi**4 / L**4 if k > 0.0 else 0.0
    all_ok = bool(ineq_i < 0.0 and ineq_ii < 0.0)
    return ValidityReport(True, ineq_i, ineq_ii, all_ok)


def fd_dk(f: Callable[[float], np.ndarray], k: float, h: float) -> np.ndarray:
    """d f / dk by central differences with one Richardson level.

    Evaluates f at k +- h, k +- h/2, k +- h/4 and forms the Richardson
    values R(h) and R(h/2); the two must agree componentwise to 1%
    (components below 1e-9 are exempt, so limits where a derivative
    vanishes do not trip the gate).

    Raises:
        AccuracyError: if the step-halving consistency gate fails.
        DomainError: propagated when the stencil leaves the valid domain.
    """
    evals = {}
    for step in (h, 0.5 * h, 0.25 * h):
        for sgn in (1.0, -1.0):
            evals[sgn * step] = np.asarray(f(k + sgn * step), dtype=float)

    def central(step: float) -> np.ndarray:
        return (evals[step] - evals[-step]) / (2.0 * step)

    def richardson(step: float) -> np.ndarray:
        return (4.0 * central(0.5 * step) - central(step)) / 3.0

    r_coarse = richardson(h)
    r_fine = richardson(0.5 * h)
    scale = np.maximum(np.abs(r_coarse), np.abs(r_fine))
    bad = (scale > 1e-9) & (np.abs(r_coarse - r_fine) > 0.01 * scale)
    if np.any(bad):
        raise AccuracyError(
            f"finite-difference consistency gate failed at k={k} (h={h}): "
            f"R(h)={r_coarse!r} vs R(h/2)={r_fine!r}"
        )
    return r_fine


def _dk(f: Callable, k: float, h: float | None = None) -> tuple[float, ...]:
    """d f / dk of a closed form f of the modulus: the one derivative path.

    With ``h`` None, Im f(k + i 1e-30) / 1e-30 (complex step; f analytic
    in k), exact to rounding since nothing is differenced.  An explicit
    ``h`` selects the oracle, :func:`fd_dk` over the same f at real moduli.

    Raises:
        DomainError: if the FD stencil leaves (0, 1), or from f.
        AccuracyError: if the FD consistency gate fails.
    """
    if h is None:
        return tuple(v.imag / COMPLEX_STEP for v in f(complex(k, COMPLEX_STEP)))
    check_fd_stencil(k, h)
    return tuple(float(v) for v in fd_dk(f, k, h))


def check_fd_stencil(k: float, h: float) -> None:
    """Raise DomainError unless h > 0 and the FD stencil [k - h, k + h] lies
    in (0, 1); a NaN k or h fails too."""
    if not (h > 0.0 and k - h > 0.0 and k + h < 1.0):
        raise DomainError(f"FD stencil [k-h, k+h] leaves (0, 1) for k={k}, h={h}")


def default_fd_step(k: float) -> float:
    """Step keeping the stencil inside (0, 1) and the roundoff benign."""
    return min(1e-3, 0.25 * k, 0.25 * (1.0 - k))


def params_dk(k: float, L: float, h: float | None = None) -> ParamDerivatives:
    """k-derivatives of (a, b, c, A) at fixed L: :func:`_dk` over the closed forms.

    With ``h`` None they are exact (complex step) and ``step`` is 0.0.
    An explicit ``h`` selects the oracle: central differences with one
    Richardson extrapolation level, whose values must move by less than
    1% under h -> h/2.

    Raises:
        DomainError: outside the valid (k, L) domain, or if the FD stencil
            leaves it.
        AccuracyError: if the FD consistency gate fails.
    """
    if k == 0.0:
        raise DomainError("params_dk requires 0 < k < 1")
    _check_k_l(k, L)
    d = _dk(partial(_closed_forms, L=L), k, h)
    return ParamDerivatives(*d[:4], step=0.0 if h is None else h)
