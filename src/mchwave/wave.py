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

One evaluator, :func:`_closed_forms`, maps (k, L, K, E) to (a, b, c, A,
F); every caller takes K and E from one :func:`_k_e_or_nan` call per
pass, NaN for a modulus outside its domain.  It works elementwise on
arrays of cells (k, L), so a scan evaluates its whole grid in one pass.
Where a cell has no wave it gives NaN instead of raising, and each cell
gets a reason code, "" when it has a valid wave:

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


def _k_e_or_nan(k) -> tuple:
    """(K, E) at moduli k, real or complex, from one :func:`complete_k_e`
    call: NaN where Re k leaves [0, MODULUS_CUTOFF] (NaN k included), so
    the closed forms refuse those cells."""
    k_re = np.asarray(k).real
    out = ~((k_re >= 0.0) & (k_re <= MODULUS_CUTOFF))
    if not out.any():
        return complete_k_e(k)
    # 0.5 is a modulus; it stands in for the moduli outside
    return tuple(np.where(out, np.nan, v) for v in complete_k_e(np.where(out, 0.5, k)))


def _moments(kp2, s, y1, top: int) -> list:
    """Period means Y_0..Y_top of y = dn^2(theta), real or complex: the one
    recurrence, to top = 2 for the momentum F and to top = 4 for the energy.

    The caller passes the k'^2 = 1 - k^2, s = 1 + k'^2 and Y_1 = E/K it holds;
    Y_0 = 1.  As (dy/dtheta)^2 = 4 (-y^3 + s y^2 - k'^2 y), the period mean of
    d/dtheta (y^(m+1) y') = 0 gives Y_{m+2} = [2 s (m+1) Y_{m+1} - k'^2 (2m+1) Y_m] / (2m+3).
    """
    ys = [1.0, y1]
    for m in range(top - 1):
        ys.append((2.0 * (m + 1) * s * ys[m + 1] - (2 * m + 1) * kp2 * ys[m]) / (2 * m + 3))
    return ys


def _energy(a, b, k, big_k, big_e, L):
    """Energy E = -int phi^4/4 + phi phi'^2/2 over one period, in closed form.

    With phi = a0 + b y, a0 = a - b Y_1, and (y')^2 = 4 P(y), both
    integrands are quartics in y, averaged with Y_0..Y_4 of :func:`_moments`
    from this k'^2, s and Y_1 = E/K.  Real or complex k and L.
    """
    kp2 = 1.0 - k * k
    s = 1.0 + kp2
    ys = _moments(kp2, s, big_e / big_k, 4)
    a0 = a - b * ys[1]
    quartic = sum(math.comb(4, j) * a0 ** (4 - j) * b**j * ys[j] for j in range(5))
    # <y^m P(y)> for m = 0, 1
    p0, p1 = (-ys[m + 3] + s * ys[m + 2] - kp2 * ys[m + 1] for m in (0, 1))
    omega = 2.0 * big_k / L
    return -L * (0.25 * quartic + 2.0 * b * b * omega * omega * (a0 * p0 + b * p1))


def _closed_forms(k, L, big_k, big_e) -> tuple:
    """(a, b, c, A, F) from the closed forms in (k, K, E, L), elementwise:
    the one evaluator of the wave family.

    k and L are scalars or arrays that broadcast, real or complex (the
    complex-step derivatives), and (K, E) are :func:`_k_e_or_nan` at k.
    All five are NaN where the cell is refused: K is NaN (k outside its
    domain), L is not finite and positive, L**7 overflows or Delta <= 0
    (real parts); :func:`_waves` names the reason.  A comes from the wave ODE at x = 0,
    where sn = 0 and cn = dn = 1, so phi' = 0 and A = (phi(0) - c)
    phi''(0) - phi(0)^3 + c phi(0).  The momentum F = (1/2) int phi^2 +
    phi'^2 has phi - a = b (y - Y_1) and phi' = b omega y' with omega =
    2K/L; its Y_2 is :func:`_moments` to top = 2 from this k'^2, s and Y_1,
    and the recurrence at m = 1 turns <(y')^2> into (4/5)(s Y_2 - 2 k'^2 Y_1).
    """
    with np.errstate(all="ignore"):  # refused cells overflow, divide by 0 or meet NaN
        k2, big_k2 = k * k, big_k * big_k
        k4_q = big_k**4 * (1.0 - k2 + k2 * k2)  # K^4 (1 - k^2 + k^4)
        delta = 9.0 * L**4 - 2048.0 * k4_q
        refused = ~((np.real(L) > 0.0) & np.isfinite(L**7) & (np.real(delta) > 0.0))
        root = np.sqrt(np.where(refused, 1.0, delta))
        l2 = L * L
        b = -32.0 * big_k2 / l2
        # 1.5 L^2 - sqrt(Delta)/2 without the cancelling subtraction
        head = 512.0 * k4_q / (1.5 * L * L + 0.5 * root)
        c = head / l2
        a = -(-32.0 * (2.0 - k2) * big_k2 + 96.0 * big_e * big_k + head) / (3.0 * L * L)
        omega, y1 = 2.0 * big_k / L, big_e / big_k
        phi0 = a + b * (1.0 - y1)
        phi2_0 = -2.0 * k * k * b * omega * omega
        big_a = (phi0 - c) * phi2_0 - phi0**3 + c * phi0
        kp2 = 1.0 - k2
        s = 1.0 + kp2
        y2 = _moments(kp2, s, y1, 2)[2]
        slope2 = 0.8 * (s * y2 - 2.0 * kp2 * y1)
        f = 0.5 * L * (a * a + b * b * (y2 - y1 * y1 + omega * omega * slope2))
    forms = a, b, c, big_a, f
    if refused.any():
        forms = tuple(np.where(refused, np.nan, v) for v in forms)
    return forms


def _waves(k: np.ndarray, L: np.ndarray) -> tuple:
    """The waves at 1-d arrays of cells (k, L), k real, and their validity:
    (a, b, c, A) of :func:`_closed_forms`, the margins (ineq_i, ineq_ii) of
    :func:`validity`, and the reason per cell.

    The reason is "" for a valid wave; else the refusal of the closed forms
    (``domain``, ``overflow``, ``discriminant``), where a, b, c, A and the
    margins are NaN, or ``ineq_i`` / ``ineq_ii`` for the first margin that
    is not negative.
    """
    big_k, big_e = _k_e_or_nan(k)
    a, b, c, a_ode, _ = _closed_forms(k, L, big_k, big_e)
    with np.errstate(all="ignore"):  # refused cells: their margins are NaN
        # 0 c: exactly 0 for the constant wave, NaN where there is no wave
        ineq_i = np.where(k > 0.0, c * c - 3.0 * c + 32.0 * math.pi**4 / L**4, 0.0 * c)
        ineq_ii = a + b * ((1.0 - k * k) - big_e / big_k) - c
        reason = np.where(ineq_i < 0.0, np.where(ineq_ii < 0.0, "", "ineq_ii"), "ineq_i")
        refused = np.isnan(a)
        if refused.any():
            outside = np.isnan(big_k) | ~((L > 0.0) & (L < math.inf))
            reason = np.where(refused, np.where(outside, "domain", np.where(
                np.isfinite(L**7), "discriminant", "overflow")), reason)
    return (a, b, c, a_ode), (ineq_i, ineq_ii), reason


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
    return [float(v[0]) for v in waves], report


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
