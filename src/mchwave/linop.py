"""The linearized operator and its spectra, in one orthonormal Fourier basis.

The self-adjoint operator

    L = (phi - c) d^2/dx^2 + phi' d/dx + (c - 3 phi^2 + phi'')

is the Fourier collocation of its divergence form d/dx(p d/dx .) + q,
with p = phi - c and q = c - 3 phi^2 + phi'' sampled on x_j = j L / n.
The sawtooth (Nyquist) mode, which the real first derivative annihilates,
gets the full complex symbol -kappa_N^2 mean(p), so it sits high in the
spectrum instead of in the counting window.

The basis (Hill's method) is the cosine modes sqrt(2/n) s_k cos(kappa_k x),
k = 0 .. n/2 (s_0 = s_{n/2} = 1/sqrt 2, else 1), then the sine modes
sqrt(2/n) sin(kappa_k x), k = 1 .. n/2 - 1.  With p^ = rfft(p)/n,
q^ = rfft(q)/n, (k+m)* = min(k + m, n - k - m) and kappa~ = kappa with its
Nyquist entry 0, this orthogonal change of basis (not an approximation)
gives L = [[E, -C^T], [-C, O]] with

    E_km = s_k s_m [q^_|k-m| + q^_(k+m)* - kappa~_k kappa~_m (p^_|k-m| - p^_(k+m)*)]
           - kappa_N^2 p^_0 at (n/2, n/2),
    O_km = q^_|k-m| - q^_(k+m)* - kappa_k kappa_m (p^_|k-m| + p^_(k+m)*),

by O(n^2) index arithmetic on Re p^, Re q^, and the coupling C on Im p^,
Im q^.  For an even wave C is rounding; above the assembly gate the split
raises :class:`AssemblyError` wherever the blocks are read.  Each block is
solved once (:class:`ParityBlocks`): E with its eigenvectors, which the
pairing and its FFT residual need, and O values-only, at about half the
cost of a full decomposition.

As 1 = sqrt(n) (cosine mode 0), Y0 drops cosine mode 0, and
:func:`inv_one_pairing` reads mode 0 of the even eigenvectors.  No third
solve is made for E[1:, 1:]: with E = V diag(lambda) V^T and z = V[0],
the eigenvalues of a principal minor are the roots of the secular
equation sum_i z_i^2 / (lambda_i - x) = 0 (Golub, SIAM Rev. 15, 1973),
one in each gap between consecutive poles.  A pole with |z_i| <= 8 eps is
itself an eigenvalue of E[1:, 1:] to within 2 |z_i| max |lambda| (the
residual of v_i[1:]), and poles closer than eps max |lambda| are merged
into one whose weight is the sum (LAPACK dlaed2).  Each remaining root is
bisected, shifted to its lower pole, until its bracket is at most
2 eps max |lambda| wide; a wider bracket holds its midpoint strictly
inside, so no denominator vanishes (:func:`_minor_eigenvalues`).  For a
smooth wave z decays like the wave's Fourier coefficients, so 6 to about
100 poles of up to 513 are kept, and the constant wave keeps only the
mean mode's.  On the waves measured, the minor's eigenvalues agree with
a dense solve of E[1:, 1:] to within 4e-15 max |lambda|.

The evolution operator is J L, the linearization at the wave of the flow
:mod:`mchwave.evolve` integrates, with J = dx (1 - dx^2)^{-1} (symbol
i kappa / (1 + kappa^2), Nyquist entry 0).  J sends cosine mode k to
-K_k sine mode k and sine k to K_k cosine k, K_k = kappa_k / (1 + kappa_k^2),
and annihilates cosine modes 0 and n/2.  So on Y0, J L is
[[0, K O], [-K E', 0]] beside the zero row of cosine mode n/2, where E' is
E without cosine modes 0 and n/2, and its eigenvalues are +-sqrt(mu) over
the eigenvalues mu of the half-size M = -K E' K O, with one structural 0
(:func:`evolution_spectrum`).  No n x n matrix is formed.

Zero-eigenvalue policy: :func:`_zero_tol` alone decides what counts as
zero, by one rule with no override: 1e3 eps max |.| of the eigenvalues
counted.  For L, on the five waves named here and 24 random valid ones
in k in [0.05, 0.9], L in [3.2 pi, 12 pi] up to n = 2048, and on the
constant wave up to n = 1024, with Y0 by the secular route: the kernel is
computed at least 9.7e4x below that, and the smallest genuine eigenvalues
sit 880x above (4.27e-6 on Y0 at (k, L) = (0.1, 5 pi), n = 2048) and 42x
above (2.11e-6 at (0.05, 3 pi), n = 2048); 1e-6 radius, which grows like
n^2, would swallow them.  For J L the rule applies to mu directly: the
defective lambda = 0 (phi' and its generalized eigenvector) is one
simple mu = 0, counted twice, and at (0.5, 6 pi), (0.3, 4 pi) and
(0.7, 9 pi) for 64 <= n <= 1024 the next |mu| sits at least 1.2e5x above
the tolerance.  Every report holds its eigenvalues and the tolerance
used, so another threshold is a recount from those two.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import AssemblyError, NumericalError
from .field import PeriodicField, PeriodicGrid
from .wave import WaveParams, profile

logger = logging.getLogger(__name__)

ASYMMETRY_GATE = 1e-8


@dataclass(frozen=True)
class ParityBlocks:
    """The ascending eigenvalues and eigenvectors of the even block E of L in
    cosine coordinates (modes 0 .. n/2), and the ascending eigenvalues of the
    odd block; :func:`restricted_spectrum` takes E[1:, 1:] from them."""

    even_vals: np.ndarray = dc_field(repr=False)
    even_vecs: np.ndarray = dc_field(repr=False)
    odd_vals: np.ndarray = dc_field(repr=False)


@dataclass(frozen=True)
class OperatorMatrix:
    """L on an n-node grid, held as the node values p, q of its
    coefficients; its blocks and its reflection defect are built from their
    spectra on first read (module docstring)."""

    grid: PeriodicGrid
    coefficients: np.ndarray = dc_field(repr=False)

    @cached_property
    def _windows(self) -> tuple[np.ndarray, np.ndarray]:
        """Views c[(k - m) mod n] and c[(k + m) mod n], 0 <= k, m <= n/2, for
        c = p^, q^ (rows) extended from one rfft as Hermitian sequences, so the
        real parts are exactly even and the imaginary parts exactly odd."""
        half = self.grid.n // 2
        spec = np.fft.rfft(self.coefficients, axis=1) / self.grid.n
        full = np.concatenate((spec, np.conj(spec[:, -2:0:-1])), axis=1)
        ext = np.concatenate((full[:, half:], full, full[:, :1]), axis=1)
        win = np.lib.stride_tricks.sliding_window_view(ext, half + 1, axis=1)
        return win[:, : half + 1, ::-1], win[:, half:]

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The even and odd blocks E and O (module docstring); AssemblyError if
        the reflection defect exceeds the gate."""
        if self.reflection_defect > ASYMMETRY_GATE:
            raise AssemblyError(f"reflection defect {self.reflection_defect:.3e} exceeds "
                                f"gate {ASYMMETRY_GATE:.0e}: the coefficients are not even")
        half = self.grid.n // 2
        kap = self.grid.wavenumbers()
        kap_even = np.append(kap[:half], 0.0)
        (p_dif, q_dif), (p_sum, q_sum) = (v.real for v in self._windows)
        even = q_dif + q_sum - np.outer(kap_even, kap_even) * (p_dif - p_sum)
        even *= np.outer(_cosine_weights(half), _cosine_weights(half))
        even[half, half] -= kap[half] ** 2 * p_dif[0, 0]
        p_dif, p_sum, q_dif, q_sum = (a[1:half, 1:half] for a in (p_dif, p_sum, q_dif, q_sum))
        odd = q_dif - q_sum - np.outer(kap[1:half], kap[1:half]) * (p_dif + p_sum)
        return even, odd

    @cached_property
    def reflection_defect(self) -> float:
        """max |C|, C_km = -<sine k, L cosine m> = s_m [b^q_(k+m) + b^q_(k-m) +
        kappa_k kappa~_m (b^p_(k+m) - b^p_(k-m))], b = Im p^, Im q^ extended
        odd: rounding for an even wave, and gated before the split."""
        half = self.grid.n // 2
        kap, inner = self.grid.wavenumbers(), slice(1, half)
        (p_dif, q_dif), (p_sum, q_sum) = (v.imag for v in self._windows)
        coupling = q_sum[inner] + q_dif[inner] + np.outer(
            kap[inner], np.append(kap[:half], 0.0)) * (p_sum[inner] - p_dif[inner])
        return float(np.max(np.abs(coupling * _cosine_weights(half))))

    @cached_property
    def parity(self) -> ParityBlocks:
        """The blocks' spectra, computed once and shared read-only;
        AssemblyError for coefficients that are not even, NumericalError if
        the solver fails."""
        even, odd = self._blocks
        even_vals, even_vecs = _eig(np.linalg.eigh, even)
        blocks = ParityBlocks(even_vals=even_vals, even_vecs=even_vecs,
                              odd_vals=_eig(np.linalg.eigvalsh, odd))
        for arr in vars(blocks).values():
            arr.flags.writeable = False
        return blocks


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues with negative/zero counts and the tolerance used.

    For L, ``eigenvalues`` are real ascending, ``n_neg`` counts those below
    -tol and ``z_dim`` those with modulus <= tol.  For J L
    (:func:`evolution_spectrum`) they are complex, sorted by real then
    imaginary part; ``n_neg`` is k_r, the number of real mu = lambda^2
    above the tolerance (the real unstable pairs), and ``z_dim`` counts
    lambda = 0.  ``tol`` is the policy's, in units of the eigenvalues
    (module docstring), and the counts are a recount of ``eigenvalues`` at
    it.  ``near_zero_gap`` is the separation between the two smallest
    moduli, of lambda for L and of sqrt(mu) for J L: near the constant-wave
    degeneracy the kernel nearly doubles, and the gap makes that visible
    instead of a silent classification.
    """

    eigenvalues: np.ndarray = dc_field(repr=False)
    n_neg: int
    z_dim: int
    tol: float
    near_zero_gap: float
    grid: PeriodicGrid


@dataclass(frozen=True)
class PairingReport:
    """The pairing <L^{-1} 1, 1> from a kernel-deflated solve; ``kernel_dim``
    and ``tol`` are the z_dim and tol of :func:`spectrum`."""

    value: float
    kernel_dim: int
    residual: float
    tol: float


def assemble_l(phi: PeriodicField, phi2: PeriodicField, c: float) -> OperatorMatrix:
    """The self-adjoint linearized operator around a profile.

    ``phi`` and ``phi2`` are the profile and its second derivative, fields
    on one grid (DomainError otherwise; a field is finite by construction).
    Accepts any smooth profile; for a traveling wave phi - c < 0 holds
    pointwise.  Only p and q are formed here; the blocks wait for first use.
    """
    phi._check_same_grid(phi2)
    q_vals = float(c) - 3.0 * phi.values**2 + phi2.values
    return OperatorMatrix(grid=phi.grid, coefficients=np.stack((phi.values - float(c), q_vals)))


def operator_for(p: WaveParams, n: int) -> OperatorMatrix:
    """The operator L around the wave ``p`` sampled on n nodes."""
    grid = PeriodicGrid(p.L, n)
    phi, _, phi2 = profile(p, grid.nodes)
    return assemble_l(PeriodicField(grid, phi), PeriodicField(grid, phi2), p.c)


def _eig(solver, a: np.ndarray):
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc


def _cosine_weights(half: int) -> np.ndarray:
    """s_k, k = 0 .. half: 1/sqrt 2 at 0 and half, 1 between."""
    return np.concatenate(([math.sqrt(0.5)], np.ones(half - 1), [math.sqrt(0.5)]))


def _to_grid(coords: np.ndarray) -> np.ndarray:
    """Grid columns of cosine (rows 0 .. n/2), then sine coordinates (rows
    n/2 + 1 ..) ``coords``, by one inverse real FFT."""
    half = coords.shape[0] // 2
    spec = coords[: half + 1] / _cosine_weights(half)[:, None] + 0j
    spec[1:half] -= 1j * coords[half + 1:]
    return math.sqrt(half) * np.fft.irfft(spec, 2 * half, axis=0)


def _apply_l(m: OperatorMatrix, u: np.ndarray) -> np.ndarray:
    """L u on the grid by FFT: d/dx(p du/dx) + q u, and the Nyquist completion."""
    p_vals, q_vals = m.coefficients
    n, kap = m.grid.n, m.grid.wavenumbers()
    symbol = 1j * np.append(kap[:-1], 0.0)
    u_hat = np.fft.rfft(u)
    flux_hat = symbol * np.fft.rfft(p_vals * np.fft.irfft(symbol * u_hat, n))
    flux_hat[-1] = -(kap[-1] ** 2) * float(np.mean(p_vals)) * u_hat[-1]
    return np.fft.irfft(flux_hat, n) + q_vals * u


def _zero_tol(eigenvalues: np.ndarray) -> float:
    """The zero-eigenvalue tolerance (module docstring): 1e3 eps max |eigenvalue|."""
    radius = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 1.0
    return float(1e3 * np.finfo(float).eps * max(radius, 1e-300))


def _near_zero_gap(moduli: np.ndarray) -> float:
    by_mod = np.sort(moduli)
    return float(by_mod[1] - by_mod[0]) if moduli.size > 1 else math.inf


def _make_report(even_vals: np.ndarray, odd_vals: np.ndarray,
                 grid: PeriodicGrid) -> SpectralReport:
    """Counts over the sorted union of an even and an odd block's eigenvalues."""
    vals = np.sort(np.concatenate((even_vals, odd_vals)))
    tol = _zero_tol(vals)
    return SpectralReport(
        eigenvalues=vals, n_neg=int(np.sum(vals < -tol)), z_dim=int(np.sum(np.abs(vals) <= tol)),
        tol=tol, near_zero_gap=_near_zero_gap(np.abs(vals)), grid=grid,
    )


def spectrum(m: OperatorMatrix) -> SpectralReport:
    """Full spectrum of L with negative/zero counts: the real ascending
    union of its cached parity blocks' eigenvalues."""
    blocks = m.parity
    return _make_report(blocks.even_vals, blocks.odd_vals, m.grid)


def restricted_spectrum(m: OperatorMatrix) -> SpectralReport:
    """Spectrum of L compressed to the zero-mean subspace Y0.

    This is the Morse data of the quadratic form on Y0, spanned by the
    cosine modes but mode 0 (the constant) and by all the sine modes: the
    eigenvalues of the even block without its mean mode, from the cached
    even eigenpairs by the secular equation (module docstring), joined
    with the odd block's.
    """
    blocks = m.parity
    return _make_report(_minor_eigenvalues(blocks.even_vals, blocks.even_vecs[0]),
                        blocks.odd_vals, m.grid)


def _minor_eigenvalues(vals: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix without its first row and
    column, from its ascending eigenvalues ``vals`` and the first entries
    ``head`` of their orthonormal eigenvectors: the deflated poles, and one
    bisected root of the secular equation between each two kept poles
    (module docstring)."""
    eps = np.finfo(float).eps
    scale = float(np.max(np.abs(vals)))
    kept = np.abs(head) > 8.0 * eps
    poles = vals[kept]
    # a run of poles closer than eps scale keeps its first, with the run's weight
    starts = np.flatnonzero(np.diff(poles, prepend=-np.inf) > eps * scale)
    deflated = np.concatenate((vals[~kept], np.delete(poles, starts)))
    weights, poles = np.add.reduceat(head[kept] ** 2, starts), poles[starts]
    # row j: the poles less pole j, so root j lies in (0, shifted[j, j + 1])
    shifted = poles - poles[:-1, None]
    lo, hi = np.zeros(poles.size - 1), np.diagonal(shifted, 1).copy()
    width = 2.0 * eps * scale
    active = np.flatnonzero(hi - lo > width)
    iterations = 0
    while active.size:
        iterations += 1
        mid = 0.5 * (lo[active] + hi[active])
        # the secular function rises from -inf to +inf across the bracket
        above = (1.0 / (shifted[active] - mid[:, None])) @ weights > 0.0
        hi[active[above]] = mid[above]
        lo[active[~above]] = mid[~above]
        active = active[hi[active] - lo[active] > width]
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("Y0 secular solve: kept %d poles, deflated %d, %d bisection iterations, "
                     "widest final bracket %.3e", poles.size, deflated.size, iterations,
                     float(np.max(hi - lo, initial=0.0)))
    return np.sort(np.concatenate((deflated, poles[:-1] + 0.5 * (lo + hi))))


def evolution_spectrum(m: OperatorMatrix) -> SpectralReport:
    """Spectrum of the evolution operator J L on Y0, J = dx (1 - dx^2)^{-1}.

    The n - 1 eigenvalues are +-sqrt(mu) over the eigenvalues mu of the
    half-size M = -K E' K O, and the structural 0 of cosine mode n/2
    (module docstring).  A mu within the zero tolerance gives lambda = 0
    twice; the report's ``tol`` is that tolerance's square root, in lambda
    units.  Raises AssemblyError for coefficients that are not even.
    """
    even, odd = m._blocks
    half = m.grid.n // 2
    kap = m.grid.wavenumbers()[1:half]
    scale = kap / (1.0 + kap * kap)
    mu = _eig(np.linalg.eigvals, -(np.outer(scale, scale) * even[1:half, 1:half]) @ odd)
    tol_mu = _zero_tol(mu)
    zero = np.abs(mu) <= tol_mu
    root = np.where(zero, 0.0, np.sqrt(mu + 0j))
    vals = np.concatenate((root, -root, [0.0])) + 0.0  # + 0.0: no -0.0 from -root
    k_r = int(np.sum((mu.real > tol_mu) & (np.abs(mu.imag) <= tol_mu)))
    return SpectralReport(
        eigenvalues=vals[np.lexsort((vals.imag, vals.real))], n_neg=k_r,
        z_dim=2 * int(np.sum(zero)) + 1, tol=math.sqrt(tol_mu),
        near_zero_gap=_near_zero_gap(np.sqrt(np.abs(mu))), grid=m.grid,
    )


def inv_one_pairing(m: OperatorMatrix) -> PairingReport:
    """The pairing <L^{-1} 1, 1> with the L^2(0, L) inner product.

    Solves L w = 1 on the orthogonal complement of the numerical kernel
    (deflated with the computed kernel eigenvectors, so the solve is
    consistent with the discrete operator) and returns <w, 1>.  As 1 =
    sqrt(n) (cosine mode 0), that is L sum v_i0^2 / lambda_i over the even
    eigenpairs outside the kernel; phi' is odd, and the even block has a
    kernel only at the constant-wave degeneracy, whose double kernel is
    deflated like a simple one.  The kernel and its tolerance are those of
    :func:`spectrum`; the residual max |L w - 1| (1 less its kernel part)
    applies L to the grid form of w by FFT, with no block or dense matrix.
    Raises AssemblyError for coefficients that are not even.
    """
    full = spectrum(m)
    vals, vecs = m.parity.even_vals, m.parity.even_vecs
    kernel = np.abs(vals) <= full.tol
    n, head = m.grid.n, vecs[0]
    inv = np.zeros_like(vals)
    inv[~kernel] = 1.0 / vals[~kernel]
    pairing = m.grid.L * float(np.dot(inv, head * head))
    ones = np.eye(1, n // 2 + 1)[0] - vecs[:, kernel] @ head[kernel]
    cols = math.sqrt(n) * np.column_stack((vecs @ (inv * head), ones))
    w, rhs = _to_grid(np.pad(cols, ((0, n // 2 - 1), (0, 0)))).T
    residual = float(np.max(np.abs(_apply_l(m, w) - rhs)))
    return PairingReport(value=pairing, kernel_dim=full.z_dim, residual=residual, tol=full.tol)
