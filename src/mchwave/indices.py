"""Stability indices: the Vakhitov-Kolokolov-type index I, the Morse
count identities on the zero-mean subspace, the zero-mean period branch,
d''(c) along it, and the Hamiltonian Krein index.

The index

    I = dA/dk * dV/dk - dc/dk * dF/dk        (at fixed period L)

uses dV/dk = L * da/dk (the profile mean is a, so V(phi) = a L).  Every
k-derivative, at fixed L and along the zero-mean branch a(k, L*(k)) = 0
(itself a closed form, :func:`_zero_mean_l`) alike, is
:func:`mchwave.wave._dk`, one complex step over closed forms in
(k, K, E, L).  Only the operator behind the spectral counts samples a
profile.

The sign condition I < 0 is checked as a reproducible assertion over
sampled (k, L) grids; no claim is made beyond the sampled windows.  A scan
evaluates its flattened grid in one array pass, not one cell at a time: one
real evaluation of the closed forms for the validity margins, then one
complex-step evaluation for the four derivatives of the valid cells.
:func:`stability_index` is the one-cell case of the same pass.  A cell
without an index carries the reason :mod:`mchwave.wave` names for it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Literal

import numpy as np

from . import wave as wave_mod
from .elliptic import complete_k_e
from .errors import DomainError, RankError, SingularError
from .field import check_grid_size
from .linop import inv_one_pairing, operator_for, restricted_spectrum, spectrum
from .wave import ValidityReport, WaveParams

Classification = Literal["stable", "unstable", "indeterminate"]

# |pairing| or |D| below this is treated as "needs to be non-zero" failing.
SIGN_FLOOR = 1e-10


@dataclass(frozen=True)
class IndexSample:
    """One evaluation of the stability index with its audit components.

    ``reason`` is "" for a valid cell, else why it has no index (one of the
    codes listed in :mod:`mchwave.wave`); its I and derivatives are then NaN.
    """

    k: float
    L: float
    I: float
    valid: bool
    dA_dk: float
    dc_dk: float
    dV_dk: float
    dF_dk: float
    reason: str = ""


@dataclass(frozen=True)
class ScanSummary:
    """Range and sign count of I over the valid cells; invalid cells by reason."""

    min_I: float
    max_I: float
    count_positive: int
    count_invalid: int
    count_cells: int
    invalid_reasons: dict[str, int]


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
    d_prime_direct: float   # direct (dd/dk) / (dc/dk) along the branch, cross-check
    d_second: float         # (dF/dk) / (dc/dk)


@dataclass(frozen=True)
class KreinReport:
    """Counts, pairing, D and the Hamiltonian Krein index classification.

    All numeric fields are NaN (and counts -1) when the zero-mean branch
    does not exist at k or its parametrization by k is singular, in
    which case the classification is ``indeterminate``.
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


def _index_cells(k: np.ndarray, L: np.ndarray) -> list[IndexSample]:
    """The index at 1-d arrays of cells, in one pass: the validity margins
    of every cell, then the derivatives of the closed forms for (a, c, A, F)
    at the valid ones (:func:`mchwave.wave._dk`)."""
    _, _, reason = wave_mod._waves(k, L)
    live = reason == ""
    da_dk, _, dc_dk, dA_dk, dF_dk = wave_mod._dk(
        partial(wave_mod._closed_forms, L=L[live]), k[live])
    dV_dk = L[live] * da_dk
    cols = np.full((5, k.size), math.nan)
    cols[:, live] = dA_dk * dV_dk - dc_dk * dF_dk, dA_dk, dc_dk, dV_dk, dF_dk
    return [IndexSample(*cell[:3], cell[-1] == "", *cell[3:])
            for cell in zip(k.tolist(), L.tolist(), *cols.tolist(), reason.tolist())]


def stability_index(k: float, L: float) -> IndexSample:
    """Evaluate I = dA/dk dV/dk - dc/dk dF/dk at fixed period.

    An invalid wave (see :func:`mchwave.wave.validity`) gets no index:
    the sample has I = NaN, valid = False and the reason.  The exact
    derivatives of the closed forms for (a, c, A, F) come from
    :func:`mchwave.wave._dk`.  The one-cell case of :func:`index_scan`.

    Raises:
        DomainError: if k is outside (0, 1).
    """
    if not 0.0 < k < 1.0:
        raise DomainError(f"stability_index requires 0 < k < 1, got k={k}")
    return _index_cells(np.array([k], float), np.array([L], float))[0]


def index_scan(k_min: float, k_max: float, L_min: float, L_max: float,
               nk: int, nL: int) -> tuple[list[IndexSample], ScanSummary]:
    """Evaluate the index on an nk x nL grid, flagging invalid cells.

    Cells failing validity are kept in the table with I = NaN, valid =
    False and their reason, in (k, L) order; the summary counts them by
    reason.  All cells go through one array pass (see :func:`_index_cells`).
    Bad ranges, a period bound that is not finite, or bad sizes raise
    DomainError before any cell is evaluated.
    """
    if not (0.0 < k_min <= k_max < 1.0) or not (0.0 < L_min <= L_max < math.inf):
        raise DomainError("scan ranges must satisfy 0 < k_min <= k_max < 1, "
                          "0 < L_min <= L_max < inf")
    if nk < 1 or nL < 1:
        raise DomainError(f"nk and nL must be >= 1, got {nk}, {nL}")
    ks = np.repeat(np.linspace(k_min, k_max, nk), nL)
    ls = np.tile(np.linspace(L_min, L_max, nL), nk)
    samples = _index_cells(ks, ls)
    vals = np.array([s.I for s in samples if s.valid])
    reasons = Counter(s.reason for s in samples if not s.valid)
    summary = ScanSummary(
        min_I=float(np.min(vals)) if vals.size else math.nan,
        max_I=float(np.max(vals)) if vals.size else math.nan,
        count_positive=int(np.sum(vals > 0.0)) if vals.size else 0,
        count_invalid=sum(reasons.values()),
        count_cells=len(samples),
        invalid_reasons=dict(sorted(reasons.items())),
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
    return _wave_and_validity(k, L)[0]


def _wave_and_validity(k: float, L: float) -> tuple[WaveParams, ValidityReport]:
    """:func:`constant_or_wave` and :func:`mchwave.wave.validity` at (k, L),
    from one pass of the closed forms; k = 0 is :func:`mchwave.wave.constant_wave`."""
    return wave_mod._one_wave(0.0 if k == 0.0 else k, L)


def _zero_mean_l(k, k_e=None):
    """L*(k) with a(k, L*) = 0, elementwise, real or complex k; NaN where
    there is no branch.  a = (R - h) / (3 L^2), R = 32 K ((2 - k^2) K - 3 E),
    where h = 512 Q / (1.5 L^2 + sqrt(Delta) / 2), Q = K^4 (1 - k^2 + k^4),
    falls strictly from sqrt(512 Q) at Delta = 0 to 0.  So the one root is
    L*^2 = (R^2 + 512 Q) / (3 R), iff 0 < R < sqrt(512 Q) (real parts).
    ``k_e`` is (K, E) at k, if the caller has evaluated them."""
    out = wave_mod._outside(k, 1.0)
    if out.any():  # 0.5 has no branch; it stands in for the moduli outside
        k, k_e = np.where(out, 0.5, k), None
    big_k, big_e = complete_k_e(k) if k_e is None else k_e
    k2 = k * k
    r = 32.0 * big_k * ((2.0 - k2) * big_k - 3.0 * big_e)
    q512 = 512.0 * big_k**4 * (1.0 - k2 + k2 * k2)
    none = out | (np.real(r) <= 0.0) | (np.real(r) ** 2 >= np.real(q512))
    r = np.where(none, 1.0, r)
    return np.where(none, math.nan, np.sqrt((r * r + q512) / (3.0 * r)))


def zero_mean_period(k: float) -> float | None:
    """Period L* with a(k, L*) = 0 (:func:`_zero_mean_l`); None without a branch.

    Branch absence is an expected finding, so it is reported, not raised:
    L* grows without bound as k falls to about 0.98038 and reaches the
    discriminant boundary near k = 1 - 1.0e-8.

    Raises:
        DomainError: if k is outside (0, 1).
    """
    if not 0.0 < k < 1.0:
        raise DomainError(f"zero_mean_period requires 0 < k < 1, got k={k}")
    l_star = float(_zero_mean_l(k))
    return None if math.isnan(l_star) else l_star


def _branch_state(k) -> tuple:
    """(L*, c, F, d = E + c F) on the zero-mean branch at modulus k, real or
    complex, NaN without a branch: the closed forms at L*(k), so at
    k + 1e-30 i one evaluation carries the branch's k-derivatives.  L* and
    the closed forms share one K/E evaluation where k is in the domain."""
    k_e = None if wave_mod._outside(k, 1.0).any() else complete_k_e(k)
    l_star = _zero_mean_l(k, k_e)
    a, b, c, big_k, big_e = wave_mod._params_from_k_l(k, l_star, k_e)
    f = wave_mod._momentum(a, b, k, big_k, big_e, l_star)
    return l_star, c, f, wave_mod._energy(a, b, k, big_k, big_e, l_star) + c * f


def d_second(k: float) -> DSecondReport | None:
    """d'(c) and d''(c) along the zero-mean branch, or None without a branch.

    d'(c) = F(phi) by the chain rule through the critical-point identity;
    d''(c) = (dF/dk) / (dc/dk), the exact k-derivatives being
    :func:`mchwave.wave._dk` over :func:`_branch_state`.  Cross-check: the
    direct d'(c) = (dd/dk) / (dc/dk) from the same evaluation.

    One real and one complex-step evaluation of the branch, each with one
    K/E evaluation.

    Raises:
        DomainError: if k is outside (0, 1).
        SingularError: |dc/dk| below 1e-10 (singular parametrization).
    """
    if not 0.0 < k < 1.0:
        raise DomainError(f"d_second requires 0 < k < 1, got k={k}")
    l_star, c0, f0, _ = (float(v) for v in _branch_state(k))
    if math.isnan(l_star):
        return None
    _, dc_dk, df_dk, dd_dk = (float(v) for v in wave_mod._dk(_branch_state, k))
    if abs(dc_dk) < 1e-10:
        raise SingularError(f"singular parametrization: |dc/dk| = {abs(dc_dk)} < 1e-10")
    return DSecondReport(k=k, L_star=l_star, c=c0, dc_dk=dc_dk, d_prime=f0,
                         d_prime_direct=dd_dk / dc_dk, d_second=df_dk / dc_dk)


def krein_index(k: float, n: int = 256) -> KreinReport:
    """Hamiltonian Krein index on the zero-mean branch.

    K_Ham = n(L|Y0) - n(D) with D = -d''(c); the wave is classified
    unstable when K_Ham = 1 and stable when K_Ham = 0.  L* comes from k in
    closed form (:func:`zero_mean_period`).  The counts and the pairing
    come from :func:`morse_check` at (k, L*) on n nodes, the only use of n.
    Classification is ``indeterminate`` when the branch is absent, dc/dk is
    zero, the pairing or D is too close to zero, or the counts fall outside
    the formula's reach.  Other errors propagate; a bad n is refused before
    the branch is evaluated, and k outside (0, 1) raises DomainError.
    """
    check_grid_size(n)
    try:
        report = d_second(k)
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
