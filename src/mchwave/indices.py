"""Stability indices: the Vakhitov-Kolokolov-type index I, the Morse
count identities on the zero-mean subspace, the zero-mean period branch,
d''(c) along it, and the Hamiltonian Krein index.

The index

    I = dA/dk * dV/dk - dc/dk * dF/dk        (at fixed period L)

uses dV/dk = L * da/dk (the profile mean is a, so V(phi) = a L).  Every
k-derivative, at fixed L and along the zero-mean branch a(k, L*(k)) = 0
alike, is :func:`mchwave.wave._dk` over closed forms in (k, K, E, L): a
complex step by default, the finite-difference ladder at an explicit
step h.  Only the operator behind the spectral counts samples a profile.

The sign condition I < 0 is checked as a reproducible assertion over
sampled (k, L) grids; no claim is made beyond the sampled windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Literal

import numpy as np

from . import wave as wave_mod
from .errors import DomainError, MchError, NumericalError, RankError, SingularError
from .field import check_grid_size
from .linop import inv_one_pairing, operator_for, restricted_spectrum, spectrum
from .wave import (COMPLEX_STEP, WaveParams, check_fd_stencil, default_fd_step, validity,
                   wave_params)

Classification = Literal["stable", "unstable", "indeterminate"]

# |pairing| or |D| below this is treated as "needs to be non-zero" failing.
SIGN_FLOOR = 1e-10


@dataclass(frozen=True)
class IndexSample:
    """One evaluation of the stability index with its audit components."""

    k: float
    L: float
    I: float
    valid: bool
    dA_dk: float
    dc_dk: float
    dV_dk: float
    dF_dk: float


@dataclass(frozen=True)
class ScanSummary:
    min_I: float
    max_I: float
    count_positive: int
    count_invalid: int
    count_cells: int


@dataclass(frozen=True)
class MorseReport:
    """Both sides of the zero-mean Morse identities, computed by two routes."""

    n_L: int
    z_L: int
    pairing: float
    n_Y0_direct: int
    z_Y0_direct: int
    n_Y0_predicted: int
    z_Y0_predicted: int

    @property
    def n_identity_holds(self) -> bool:
        return self.n_Y0_direct == self.n_Y0_predicted

    @property
    def z_identity_holds(self) -> bool:
        return self.z_Y0_direct == self.z_Y0_predicted


@dataclass(frozen=True)
class DSecondReport:
    """d'(c) and d''(c) along the zero-mean branch at one modulus."""

    k: float
    L_star: float
    c: float
    dc_dk: float
    d_prime: float          # F(phi), the chain-rule value of d'(c)
    d_prime_fd: float       # direct (dd/dk) / (dc/dk) along the branch, cross-check
    d_second: float         # (dF/dk) / (dc/dk)
    d_second_fd: float      # central difference of d_prime_fd over c, cross-check


@dataclass(frozen=True)
class KreinReport:
    """Counts, pairing, D and the Hamiltonian Krein index classification.

    All numeric fields are NaN (and counts -1) when the zero-mean branch
    does not exist in the bracket or its parametrization by k is
    singular, in which case the classification is ``indeterminate``.
    """

    n_L: int
    n_L_Y0: int
    z_L: int
    z_L_Y0: int
    pairing: float
    D: float
    K_Ham: int
    classification: Classification
    L_star: float = math.nan


def _sign_count(x: float) -> tuple[int, int]:
    """(n, z) of a scalar: one negative eigenvalue, or one zero within SIGN_FLOOR."""
    if abs(x) <= SIGN_FLOOR:
        return 0, 1
    return (1, 0) if x < 0.0 else (0, 0)


def classify(n_y0: int, pairing: float, big_d: float) -> Classification:
    """Krein classification from n(L|Y0), the pairing, and D = -d''(c).

    K_Ham = n(L|Y0) - n(D); unstable at 1, stable at 0, indeterminate
    when the pairing or D sits at zero or the counts fall outside {0, 1}.
    """
    n_d, z_d = _sign_count(big_d)
    k_ham = n_y0 - n_d
    if abs(pairing) <= SIGN_FLOOR or z_d == 1:
        return "indeterminate"
    if k_ham == 1:
        return "unstable"
    if k_ham == 0:
        return "stable"
    return "indeterminate"


def _invalid_sample(k: float, L: float) -> IndexSample:
    return IndexSample(k, L, math.nan, False, math.nan, math.nan, math.nan, math.nan)


def stability_index(k: float, L: float, h: float | None = None) -> IndexSample:
    """Evaluate I = dA/dk dV/dk - dc/dk dF/dk at fixed period.

    An invalid wave (see :func:`mchwave.wave.validity`) gets no index:
    the sample has I = NaN and valid = False.  The derivatives of the
    closed forms for (a, c, A, F) come from :func:`mchwave.wave._dk`:
    exact (complex step) with ``h`` None, the FD oracle at an explicit
    ``h``, all four components sharing one stencil and consistency gate.

    Raises:
        DomainError: if k is outside (0, 1) or the FD stencil leaves it.
        AccuracyError: if the step-halving gate fails.
    """
    if h is not None:
        check_fd_stencil(k, h)
    elif not 0.0 < k < 1.0:
        raise DomainError(f"stability_index requires 0 < k < 1, got k={k}")
    if not validity(k, L).all_ok:
        return _invalid_sample(k, L)
    da_dk, _, dc_dk, dA_dk, dF_dk = wave_mod._dk(partial(wave_mod._closed_forms, L=L), k, h)
    dV_dk = L * da_dk
    idx = dA_dk * dV_dk - dc_dk * dF_dk
    return IndexSample(k=k, L=L, I=idx, valid=True, dA_dk=dA_dk, dc_dk=dc_dk,
                       dV_dk=dV_dk, dF_dk=dF_dk)


def _scan_cell(k: float, L: float, h: float | None) -> IndexSample:
    try:
        return stability_index(k, L, h=h)
    except MchError:
        return _invalid_sample(k, L)


def index_scan(k_min: float, k_max: float, L_min: float, L_max: float,
               nk: int, nL: int, h: float | None = None) -> tuple[list[IndexSample], ScanSummary]:
    """Evaluate the index on an nk x nL grid, flagging invalid cells.

    Cells failing validity (or whose index evaluation raises) are kept in
    the table with I = NaN and valid = False, in (k, L) order, by one
    serial loop.  ``h`` selects the FD oracle (see :func:`stability_index`).
    Bad ranges or sizes, or an ``h`` that is not finite and positive, raise
    DomainError before any cell is evaluated.
    """
    if not (0.0 < k_min <= k_max < 1.0) or not (0.0 < L_min <= L_max):
        raise DomainError("scan ranges must satisfy 0 < k_min <= k_max < 1, 0 < L_min <= L_max")
    if nk < 1 or nL < 1:
        raise DomainError(f"nk and nL must be >= 1, got {nk}, {nL}")
    if h is not None and not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"FD step h must be finite and positive, got {h}")
    ks, Ls = np.linspace(k_min, k_max, nk).tolist(), np.linspace(L_min, L_max, nL).tolist()
    samples = [_scan_cell(k, L, h) for k in ks for L in Ls]
    vals = np.array([s.I for s in samples if s.valid])
    summary = ScanSummary(
        min_I=float(np.min(vals)) if vals.size else math.nan,
        max_I=float(np.max(vals)) if vals.size else math.nan,
        count_positive=int(np.sum(vals > 0.0)) if vals.size else 0,
        count_invalid=sum(1 for s in samples if not s.valid),
        count_cells=len(samples),
    )
    return samples, summary


def morse_check(k: float, L: float, n: int = 256) -> MorseReport:
    """Check the zero-mean Morse identities by two routes.

    Left sides come from the spectrum of the operator compressed to Y0,
    the roots of the secular equation; right sides from the unrestricted
    counts plus the sign of the pairing <L^{-1} 1, 1>, a sum.  Both routes
    read the one even eigendecomposition, so the check compares the two
    computations, not two solves.  All counts use the zero tolerance of
    :mod:`mchwave.linop`.  The pairing deflates the whole computed kernel,
    so the identities are checked at the constant wave's double kernel too.
    """
    op = operator_for(constant_or_wave(k, L), n)
    full = spectrum(op)
    pair = inv_one_pairing(op)
    restr = restricted_spectrum(op)
    n_pair, z_pair = _sign_count(pair.value)
    return MorseReport(
        n_L=full.n_neg, z_L=full.z_dim, pairing=pair.value,
        n_Y0_direct=restr.n_neg, z_Y0_direct=restr.z_dim,
        n_Y0_predicted=full.n_neg - n_pair - z_pair,
        z_Y0_predicted=full.z_dim + z_pair,
    )


def constant_or_wave(k: float, L: float) -> WaveParams:
    """Wave at (k, L), admitting the k = 0 constant-wave limit."""
    if k == 0.0:
        return wave_mod.constant_wave(L)
    return wave_params(k, L)


def _mean_and_slope(k: float, L: float) -> tuple[float, float]:
    """a(k, L) and da/dL from one closed-form evaluation at L + 1e-30 i."""
    a = wave_mod._params_from_k_l(k, complex(L, COMPLEX_STEP))[0]
    return a.real, a.imag / COMPLEX_STEP


def zero_mean_period(k: float, L_bracket: tuple[float, float]) -> float | None:
    """Period L* with a(k, L*) = 0; None when a keeps its sign on the bracket.

    Branch absence is an expected finding (a < 0 throughout the small-k
    region), so a missing root is reported, not raised.  Newton's method
    on a(k, L) (:func:`_mean_and_slope`) starts at the bracket midpoint,
    bisects when a step leaves the sign-change interval, and stops after
    a step below 1e-12 L, which quadratic convergence leaves at rounding.

    Raises:
        DomainError: if not 0 < lo < hi < inf, or an endpoint has no wave.
        NumericalError: no convergence in 100 steps.
    """
    lo, hi = float(L_bracket[0]), float(L_bracket[1])
    if not (0.0 < lo < hi < math.inf):
        raise DomainError(f"bad bracket {L_bracket}")
    try:
        a_lo = wave_params(k, lo).a
        a_hi = wave_params(k, hi).a
    except DomainError as exc:
        raise DomainError(f"bracket endpoint leaves the valid domain: {exc}") from exc
    if a_lo == 0.0:
        return lo
    if a_hi == 0.0:
        return hi
    if a_lo * a_hi > 0.0:
        return None
    x = 0.5 * (lo + hi)
    for _ in range(100):
        a, slope = _mean_and_slope(k, x)
        if a == 0.0:
            return x
        if (a < 0.0) == (a_lo < 0.0):
            lo = x
        else:
            hi = x
        x_new = x - a / slope if slope != 0.0 else math.nan
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-12 * x:
            return x_new
        x = x_new
    raise NumericalError(f"zero-mean Newton iteration did not converge at k={k}")


def _branch_state(k, l_star: float) -> tuple:
    """(L*, c, F, d = E + c F) on the zero-mean branch at modulus k, from
    the real root l_star = L*(Re k); at complex k = k0 + i h, one complex
    Newton step from L*(k0) gives L* - a / a_L, whose imaginary part is
    -h a_k / a_L = h dL*/dk: the branch continued to complex k.
    """
    if isinstance(k, complex):
        l_star -= wave_mod._params_from_k_l(k, l_star)[0] / _mean_and_slope(k.real, l_star)[1]
    a, b, c, big_k, big_e = wave_mod._params_from_k_l(k, l_star)
    f = wave_mod._momentum(a, b, k, big_k, big_e, l_star)
    return l_star, c, f, wave_mod._energy(a, b, k, big_k, big_e, l_star) + c * f


def d_second(k: float, L_bracket: tuple[float, float],
             h: float | None = None) -> DSecondReport | None:
    """d'(c) and d''(c) along the zero-mean branch, or None without a branch.

    d'(c) = F(phi) by the chain rule through the critical-point identity;
    d''(c) = (dF/dk) / (dc/dk), the k-derivatives being :func:`mchwave.wave._dk`
    over :func:`_branch_state` (complex step, or the FD ladder at ``h``).
    Cross-checks: the direct d'(c) = (dd/dk) / (dc/dk), and its central
    difference over dc/dk at k +- (h or ``default_fd_step(k)``).  Stencil
    points k' follow the branch from (k, L*): their root is sought between
    L* and L* + 2 (k' - k) dL*/dk, so ``L_bracket`` need only hold L*.

    Raises:
        DomainError: bad bracket, the FD stencil leaves (0, 1), or the
            branch leaves twice its tangent move inside the stencil.
        SingularError: |dc/dk| below 1e-10 (singular parametrization).
    """
    l_star = zero_mean_period(k, L_bracket)
    if l_star is None:
        return None
    exact = wave_mod._dk(partial(_branch_state, l_star=l_star), k)  # dL*/dk, dc/dk, ...

    def branch(kk) -> tuple:
        ends = sorted((l_star, l_star + 2.0 * (kk.real - k) * exact[0]))
        root = zero_mean_period(kk.real, ends)
        if root is None:
            raise DomainError(f"zero-mean branch lost at k={kk.real}")
        return _branch_state(kk, root)

    _, dc_dk, df_dk, dd_dk = exact if h is None else wave_mod._dk(branch, k, h)
    if abs(dc_dk) < 1e-10:
        raise SingularError(f"singular parametrization: |dc/dk| = {abs(dc_dk)} < 1e-10")
    _, c0, f0, _ = _branch_state(k, l_star)
    step = default_fd_step(k) if h is None else h

    def d_prime_direct(kk: float) -> float:
        _, dc, _, dd = wave_mod._dk(branch, kk)
        return dd / dc

    d2_fd = (d_prime_direct(k + step) - d_prime_direct(k - step)) / (2.0 * step) / dc_dk
    return DSecondReport(k=k, L_star=l_star, c=c0, dc_dk=dc_dk,
                         d_prime=f0, d_prime_fd=dd_dk / dc_dk,
                         d_second=df_dk / dc_dk, d_second_fd=d2_fd)


def krein_index(k: float, L_bracket: tuple[float, float], n: int = 256) -> KreinReport:
    """Hamiltonian Krein index on the zero-mean branch.

    K_Ham = n(L|Y0) - n(D) with D = -d''(c); the wave is classified
    unstable when K_Ham = 1 and stable when K_Ham = 0.  The counts and
    the pairing come from :func:`morse_check` at (k, L*) on n nodes, the
    only use of n.  Classification is ``indeterminate`` when the branch is
    absent, dc/dk is zero, the pairing or D is too close to zero, or the
    counts fall outside the formula's reach.  Other errors propagate; a
    bad n is refused before the branch is sought.
    """
    check_grid_size(n)
    try:
        report = d_second(k, L_bracket)
    except SingularError:  # dc/dk at zero
        report = None
    if report is None:
        return KreinReport(n_L=-1, n_L_Y0=-1, z_L=-1, z_L_Y0=-1,
                           pairing=math.nan, D=math.nan, K_Ham=-1,
                           classification="indeterminate")
    morse = morse_check(k, report.L_star, n)
    if morse.z_L != 1:
        raise RankError(f"kernel dimension {morse.z_L} at (k={k}, L*={report.L_star}); "
                        "the Krein index needs a simple kernel")
    big_d = -report.d_second
    n_d, _ = _sign_count(big_d)
    k_ham = morse.n_Y0_direct - n_d
    cls = classify(morse.n_Y0_direct, morse.pairing, big_d)
    return KreinReport(n_L=morse.n_L, n_L_Y0=morse.n_Y0_direct, z_L=morse.z_L,
                       z_L_Y0=morse.z_Y0_direct, pairing=morse.pairing, D=big_d,
                       K_Ham=k_ham, classification=cls, L_star=report.L_star)
