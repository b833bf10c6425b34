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
raises :class:`AssemblyError`.  Each block is solved once
(:class:`ParityBlocks`).  As 1 = sqrt(n) (cosine mode 0), Y0 drops cosine
mode 0: :func:`restricted_spectrum` solves E[1:, 1:] afresh and
:func:`inv_one_pairing` reads mode 0 of the even eigenvectors.  dx sends
cosine mode k to -kappa_k sine mode k and sine k to kappa_k cosine k, so
dx L (``OperatorMatrix.fourier``, C included) is the rows of L moved to
the other parity and scaled; its cosine rows 0 and n/2 vanish.

Zero-eigenvalue policy: :func:`_zero_tol` alone decides what counts as
zero.  An explicit ``tol`` must be finite and positive; the default scales
with radius = max |lambda| of the eigenvalues counted.  Self-adjoint L:
1e3 eps radius.  Its kernel is computed at least 377x below that (waves up
to n = 2048, the constant wave up to n = 1024), and the smallest genuine
eigenvalue seen, 4.27e-6 on Y0 at (k, L) = (0.1, 5 pi) and n = 2048, sits
880x above; 1e-6 radius, which grows like n^2, would swallow it.  Evolution
dx L: 1e-6 radius, since its zero eigenvalue is defective: on Y0 at
(0.5, 6 pi) its neighbours sit at 2.2e-10 to 1.5e-8 for 64 <= n <= 512.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import AssemblyError, DomainError, NumericalError, RankError
from .field import PeriodicField, PeriodicGrid
from .wave import WaveParams, profile

ASYMMETRY_GATE = 1e-8
# Eigenvector columns a self-adjoint SpectralReport keeps (lowest modes).
KEPT_MODES = 8

OperatorKind = Literal["selfadjoint_L", "evolution_dxL"]


@dataclass(frozen=True)
class ParityBlocks:
    """Eigendecompositions of the even and odd blocks of L: ascending values,
    vectors in cosine (modes 0 .. n/2) and sine (1 .. n/2 - 1) coordinates,
    and E itself, whose E[1:, 1:] :func:`restricted_spectrum` solves."""

    even: np.ndarray = dc_field(repr=False)
    even_vals: np.ndarray = dc_field(repr=False)
    even_vecs: np.ndarray = dc_field(repr=False)
    odd_vals: np.ndarray = dc_field(repr=False)
    odd_vecs: np.ndarray = dc_field(repr=False)


@dataclass(frozen=True)
class OperatorMatrix:
    """L or dx L on an n-node grid, held as the node values p, q of L's
    coefficients; the blocks of L, the coupling C and, for dx L only, the
    n x n matrix ``fourier`` are built from their spectra on first read
    (module docstring)."""

    grid: PeriodicGrid
    kind: OperatorKind
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
        """The even and odd blocks E and O (module docstring)."""
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

    def _coupling(self) -> np.ndarray:
        """C_km = -<sine k, L cosine m> = s_m [b^q_(k+m) + b^q_(k-m) + kappa_k
        kappa~_m (b^p_(k+m) - b^p_(k-m))], b = Im p^, Im q^ extended odd; not
        cached, so an L that never forms dx L keeps no (n/2)^2 array of rounding."""
        half = self.grid.n // 2
        kap, inner = self.grid.wavenumbers(), slice(1, half)
        (p_dif, q_dif), (p_sum, q_sum) = (v.imag for v in self._windows)
        coupling = q_sum[inner] + q_dif[inner] + np.outer(
            kap[inner], np.append(kap[:half], 0.0)) * (p_sum[inner] - p_dif[inner])
        return coupling * _cosine_weights(half)

    @cached_property
    def reflection_defect(self) -> float:
        """max |C|: rounding for an even wave, and gated before the split."""
        return float(np.max(np.abs(self._coupling())))

    @cached_property
    def fourier(self) -> np.ndarray:
        """dx L in the cosine/sine basis (module docstring); DomainError for L."""
        if self.kind != "evolution_dxL":
            raise DomainError("the n x n Fourier matrix is formed only for dx L")
        n, half = self.grid.n, self.grid.n // 2
        (even, odd), coupling = self._blocks, self._coupling()
        kap = self.grid.wavenumbers()[1:half, None]
        dxl = np.zeros((n, n))
        dxl[1:half, : half + 1] = -kap * coupling
        dxl[1:half, half + 1:] = kap * odd
        dxl[half + 1:, : half + 1] = -kap * even[1:half]
        dxl[half + 1:, half + 1:] = kap * coupling.T[1:half]
        return dxl

    @cached_property
    def parity(self) -> ParityBlocks:
        """The blocks' eigendecompositions, computed once and shared read-only;
        DomainError for dx L, AssemblyError if the reflection defect exceeds
        the gate, NumericalError if the solver fails."""
        if self.kind != "selfadjoint_L":
            raise DomainError("parity blocks require a selfadjoint_L operator")
        if self.reflection_defect > ASYMMETRY_GATE:
            raise AssemblyError(f"reflection defect {self.reflection_defect:.3e} exceeds "
                                f"gate {ASYMMETRY_GATE:.0e}: the coefficients are not even")
        even, odd = self._blocks
        even_vals, even_vecs = _eig(np.linalg.eigh, even)
        odd_vals, odd_vecs = _eig(np.linalg.eigh, odd)
        blocks = ParityBlocks(even=even, even_vals=even_vals, even_vecs=even_vecs,
                              odd_vals=odd_vals, odd_vecs=odd_vecs)
        for arr in vars(blocks).values():
            arr.flags.writeable = False
        return blocks


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues with negative/zero counts and the tolerance used.

    ``eigenvalues`` are real ascending for the self-adjoint kind and
    complex (sorted by real part) for the evolution kind.  ``n_neg``
    counts eigenvalues (real parts) below -tol, ``z_dim`` those with
    modulus <= tol; ``tol`` is the caller's or the policy default (module
    docstring).  ``near_zero_gap`` is the separation between the two
    smallest-modulus eigenvalues: near the constant-wave degeneracy the
    kernel nearly doubles, and the gap makes that visible instead of a
    silent classification.  ``eigenvectors`` holds columns for the
    lowest few modes (self-adjoint kind only).
    """

    eigenvalues: np.ndarray = dc_field(repr=False)
    n_neg: int
    z_dim: int
    tol: float
    near_zero_gap: float
    grid: PeriodicGrid
    kind: OperatorKind
    eigenvectors: np.ndarray | None = dc_field(default=None, repr=False)


@dataclass(frozen=True)
class PairingReport:
    """The pairing <L^{-1} 1, 1> from a kernel-deflated solve."""

    value: float
    kernel_dim: int
    residual: float
    tol: float


def _as_values(u, n: int) -> np.ndarray:
    vals = u.values if isinstance(u, PeriodicField) else np.asarray(u, dtype=float)
    if vals.shape != (n,):
        raise DomainError(f"coefficient array has shape {vals.shape}, expected ({n},)")
    if not np.all(np.isfinite(vals)):
        raise DomainError("coefficient values must be finite")
    return vals


def assemble_l(phi, phi2, c: float, grid: PeriodicGrid | None = None) -> OperatorMatrix:
    """The self-adjoint linearized operator around a profile.

    ``phi`` and ``phi2`` are the profile and its second derivative
    (fields or plain arrays; pass ``grid`` with arrays).  Accepts any
    smooth profile; for a traveling wave phi - c < 0 holds pointwise.
    Only p and q are formed here; the blocks wait for first use.
    """
    if grid is None:
        if not isinstance(phi, PeriodicField):
            raise DomainError("assemble_l needs a grid when given plain arrays")
        grid = phi.grid
    phi_vals = _as_values(phi, grid.n)
    q_vals = float(c) - 3.0 * phi_vals**2 + _as_values(phi2, grid.n)
    return OperatorMatrix(grid=grid, kind="selfadjoint_L",
                          coefficients=np.stack((phi_vals - float(c), q_vals)))


def assemble_dxl(phi, phi2, c: float, grid: PeriodicGrid | None = None) -> OperatorMatrix:
    """The evolution operator dx L around a profile (see :func:`assemble_l`)."""
    return evolution_operator(assemble_l(phi, phi2, c, grid))


def evolution_operator(lop: OperatorMatrix) -> OperatorMatrix:
    """The evolution operator dx L of L, sharing L's coefficient spectra."""
    dxl = OperatorMatrix(grid=lop.grid, kind="evolution_dxL", coefficients=lop.coefficients)
    vars(dxl)["_windows"] = lop._windows  # the same p, q: one rfft serves both
    return dxl


def operator_for(p: WaveParams, n: int,
                 kind: OperatorKind = "selfadjoint_L") -> OperatorMatrix:
    """The operator L (or dx L) around the wave ``p`` sampled on n nodes."""
    grid = PeriodicGrid(p.L, n)
    phi, _, phi2 = profile(p, grid.nodes)
    assemble = assemble_l if kind == "selfadjoint_L" else assemble_dxl
    return assemble(PeriodicField(grid, phi), PeriodicField(grid, phi2), p.c)


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


def _from_grid(u: np.ndarray) -> np.ndarray:
    """The coordinates of grid columns ``u`` by one real FFT: the inverse of
    :func:`_to_grid`."""
    half = u.shape[0] // 2
    spec = np.fft.rfft(u, axis=0) / math.sqrt(half)
    return np.concatenate((spec.real * _cosine_weights(half)[:, None], -spec.imag[1:half]))


def _apply_l(m: OperatorMatrix, u: np.ndarray) -> np.ndarray:
    """L u on the grid by FFT: d/dx(p du/dx) + q u, and the Nyquist completion."""
    p_vals, q_vals = m.coefficients
    n, kap = m.grid.n, m.grid.wavenumbers()
    symbol = 1j * np.append(kap[:-1], 0.0)
    u_hat = np.fft.rfft(u)
    flux_hat = symbol * np.fft.rfft(p_vals * np.fft.irfft(symbol * u_hat, n))
    flux_hat[-1] = -(kap[-1] ** 2) * float(np.mean(p_vals)) * u_hat[-1]
    return np.fft.irfft(flux_hat, n) + q_vals * u


def _merge_lowest(even_vals: np.ndarray, even_vecs: np.ndarray,
                  odd_vals: np.ndarray, odd_vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of two blocks' eigenvalues, and grid columns for its
    ``KEPT_MODES`` lowest modes, which are among the lowest of each block."""
    heads = np.concatenate((even_vals[:KEPT_MODES], odd_vals[:KEPT_MODES]))
    lowest = np.argsort(heads, kind="stable")[:KEPT_MODES]
    even, odd = even_vecs[:, :KEPT_MODES], odd_vecs[:, :KEPT_MODES]
    coords = np.block([[even, np.zeros((len(even), odd.shape[1]))],
                       [np.zeros((len(odd), even.shape[1])), odd]])
    return np.sort(np.concatenate((even_vals, odd_vals))), _to_grid(coords[:, lowest])


def _zero_tol(eigenvalues: np.ndarray, kind: OperatorKind, tol: float | None) -> float:
    """The zero-eigenvalue tolerance (see the module docstring): ``tol``
    checked, or the default of ``kind`` scaled by max |eigenvalue|."""
    if tol is not None:
        if not (math.isfinite(tol) and tol > 0.0):
            raise DomainError(f"tolerance must be finite and positive, got {tol}")
        return float(tol)
    radius = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 1.0
    factor = 1e3 * np.finfo(float).eps if kind == "selfadjoint_L" else 1e-6
    return factor * max(radius, 1e-300)


def _make_report(vals: np.ndarray, tol: float | None, grid: PeriodicGrid,
                 kind: OperatorKind, vecs: np.ndarray | None) -> SpectralReport:
    tol = _zero_tol(vals, kind, tol)
    if kind == "evolution_dxL":
        vals = vals[np.lexsort((vals.imag, vals.real))]
    re = vals.real if np.iscomplexobj(vals) else vals
    n_neg = int(np.sum(re < -tol))
    z_dim = int(np.sum(np.abs(vals) <= tol))
    by_mod = np.sort(np.abs(vals))
    gap = float(by_mod[1] - by_mod[0]) if vals.size > 1 else math.inf
    kept = vecs[:, :KEPT_MODES].copy() if vecs is not None else None
    return SpectralReport(
        eigenvalues=vals, n_neg=n_neg, z_dim=z_dim, tol=float(tol),
        near_zero_gap=gap, grid=grid, kind=kind, eigenvectors=kept,
    )


def spectrum(m: OperatorMatrix, tol: float | None = None) -> SpectralReport:
    """Full spectrum with negative/zero counts.

    The self-adjoint kind reads its cached parity blocks and gets the
    real ascending union of both; the evolution kind solves its n x n
    Fourier matrix and gets complex eigenvalues sorted by real part.
    """
    if m.kind == "selfadjoint_L":
        blocks = m.parity
        vals, kept = _merge_lowest(blocks.even_vals, blocks.even_vecs,
                                   blocks.odd_vals, blocks.odd_vecs)
        return _make_report(vals, tol, m.grid, m.kind, kept)
    return _make_report(_eig(np.linalg.eigvals, m.fourier), tol, m.grid, m.kind, None)


def restricted_spectrum(m: OperatorMatrix, tol: float | None = None) -> SpectralReport:
    """Spectrum of the operator compressed to the zero-mean subspace Y0.

    For the self-adjoint kind this is the Morse data of the quadratic
    form on Y0, spanned by the cosine modes but mode 0 (the constant) and
    by all the sine modes: the even block without its mean mode is solved
    afresh and joined with the odd block's eigenvalues.  For the evolution
    kind, Y0 is invariant under dx L (a derivative has zero mean), so the
    Fourier matrix without cosine mode 0 is the true restriction.
    """
    if m.kind == "selfadjoint_L":
        blocks = m.parity
        vals, vecs = _eig(np.linalg.eigh, blocks.even[1:, 1:])
        vecs = np.pad(vecs[:, :KEPT_MODES], ((1, 0), (0, 0)))
        vals, kept = _merge_lowest(vals, vecs, blocks.odd_vals, blocks.odd_vecs)
        return _make_report(vals, tol, m.grid, m.kind, kept)
    return _make_report(_eig(np.linalg.eigvals, m.fourier[1:, 1:]), tol, m.grid, m.kind, None)


def inv_one_pairing(m: OperatorMatrix, tol: float | None = None,
                    allow_multi_kernel: bool = False) -> PairingReport:
    """The pairing <L^{-1} 1, 1> with the L^2(0, L) inner product.

    Solves L w = 1 on the orthogonal complement of the numerical kernel
    (deflated with the computed kernel eigenvectors, so the solve is
    consistent with the discrete operator) and returns <w, 1>.  As 1 =
    sqrt(n) (cosine mode 0), that is L sum v_i0^2 / lambda_i over the even
    eigenpairs outside the kernel; phi' is odd, and the even block has a
    kernel only at the constant-wave degeneracy.  The kernel is counted in
    both blocks; the residual max |L w - 1| (1 less its kernel part)
    applies L to the grid form of w by FFT, with no block or dense matrix.

    Raises:
        DomainError: for an operator of the evolution kind.
        RankError: if the numerical kernel is not one-dimensional and
            ``allow_multi_kernel`` is not set (the counting formulas
            assume a simple kernel; the constant-wave case needs the
            override because its kernel is double).
    """
    blocks = m.parity
    vals, vecs = blocks.even_vals, blocks.even_vecs
    tol = _zero_tol(np.concatenate((vals, blocks.odd_vals)), m.kind, tol)
    kernel = np.abs(vals) <= tol
    k_dim = int(np.sum(kernel)) + int(np.sum(np.abs(blocks.odd_vals) <= tol))
    if k_dim != 1 and not allow_multi_kernel:
        raise RankError(f"kernel dimension {k_dim} (tol={tol:.3e}); expected 1 "
                        "(pass allow_multi_kernel=True to deflate a larger kernel)")
    n, head = m.grid.n, vecs[0]
    inv = np.zeros_like(vals)
    inv[~kernel] = 1.0 / vals[~kernel]
    pairing = m.grid.L * float(np.dot(inv, head * head))
    ones = np.eye(1, n // 2 + 1)[0] - vecs[:, kernel] @ head[kernel]
    cols = math.sqrt(n) * np.column_stack((vecs @ (inv * head), ones))
    w, rhs = _to_grid(np.pad(cols, ((0, n // 2 - 1), (0, 0)))).T
    residual = float(np.max(np.abs(_apply_l(m, w) - rhs)))
    return PairingReport(value=pairing, kernel_dim=k_dim, residual=residual,
                         tol=float(tol))
