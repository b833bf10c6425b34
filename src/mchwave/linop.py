"""Dense discretizations of the linearized operator and its spectra.

The self-adjoint operator

    L = (phi - c) d^2/dx^2 + phi' d/dx + (c - 3 phi^2 + phi'')

is assembled in the equivalent divergence form d/dx((phi - c) d/dx .)
plus the multiplication part, using Fourier differentiation matrices.
The divergence form makes symmetry structural: the first-derivative
matrix is antisymmetric, so any measured asymmetry is pure rounding and
is gated before symmetrization.

One even-grid subtlety: the real Fourier first-derivative matrix
annihilates the sawtooth (Nyquist) mode, which would park a spurious
O(1) eigenvalue of the multiplication part right in the counting window.
Carrying the product through the complex spectral derivative (full
symbol, Nyquist included) and taking the real part is equivalent to
adding the rank-one completion  -kappa_N^2 mean(phi - c) P_N  on the
sawtooth direction; that is what is done here, so the unresolved mode
sits high in the spectrum where it belongs.  For constant coefficients
the assembly then reproduces the Fourier diagonalization exactly.

:func:`operator_for` is the one wave-to-operator factory.  A self-adjoint
:class:`OperatorMatrix` caches one symmetric eigendecomposition, which
:func:`spectrum` and :func:`inv_one_pairing` share; :func:`restricted_spectrum`
keeps its own eigensolve (the independent route of the Morse identity) and
applies its Householder reflection implicitly.

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
class OperatorMatrix:
    """Dense n x n real discretization of L or of dx L."""

    matrix: np.ndarray = dc_field(repr=False)
    grid: PeriodicGrid
    kind: OperatorKind
    asymmetry: float = 0.0

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvector columns, computed once and
        shared read-only; DomainError for the evolution kind, NumericalError
        if the solver fails."""
        if self.kind != "selfadjoint_L":
            raise DomainError("eigh requires a selfadjoint_L operator")
        vals, vecs = _eig(np.linalg.eigh, self.matrix)
        vals.flags.writeable = vecs.flags.writeable = False
        return vals, vecs


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


def fourier_diff_matrix(grid: PeriodicGrid, order: int) -> np.ndarray:
    """Dense real Fourier differentiation matrix of the given order.

    Odd orders zero the Nyquist mode; even orders keep its real symbol.
    """
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    n = grid.n
    kap = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / grid.L
    symbol = (1j * kap) ** order
    if order % 2 == 1:
        symbol[n // 2] = 0.0
    return np.fft.ifft(symbol[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0).real


def _as_values(u, n: int) -> np.ndarray:
    vals = u.values if isinstance(u, PeriodicField) else np.asarray(u, dtype=float)
    if vals.shape != (n,):
        raise DomainError(f"coefficient array has shape {vals.shape}, expected ({n},)")
    return vals


def assemble_l(phi, phi2, c: float, grid: PeriodicGrid | None = None) -> OperatorMatrix:
    """Assemble the self-adjoint linearized operator around a profile.

    ``phi`` and ``phi2`` are the profile and its second derivative
    (fields or plain arrays; pass ``grid`` with arrays).  Accepts any
    smooth profile; for a traveling wave phi - c < 0 holds pointwise.

    Raises:
        AssemblyError: if the pre-symmetrization asymmetry exceeds 1e-8,
            which signals inconsistent phi / phi'' inputs.
    """
    if grid is None:
        if not isinstance(phi, PeriodicField):
            raise DomainError("assemble_l needs a grid when given plain arrays")
        grid = phi.grid
    p_vals = _as_values(phi, grid.n) - float(c)
    q_vals = float(c) - 3.0 * _as_values(phi, grid.n) ** 2 + _as_values(phi2, grid.n)

    n = grid.n
    d1 = fourier_diff_matrix(grid, 1)
    mat = d1 @ (p_vals[:, None] * d1)
    # Rank-one Nyquist completion (see module docstring).
    kap_nyq = math.pi * n / grid.L
    saw = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    mat += (-(kap_nyq**2) * float(np.mean(p_vals)) / n) * np.outer(saw, saw)
    mat[np.arange(n), np.arange(n)] += q_vals

    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > ASYMMETRY_GATE:
        raise AssemblyError(
            f"divergence-form asymmetry {asym:.3e} exceeds gate {ASYMMETRY_GATE:.0e}"
        )
    mat = 0.5 * (mat + mat.T)
    return OperatorMatrix(matrix=mat, grid=grid, kind="selfadjoint_L", asymmetry=asym)


def assemble_dxl(phi, phi2, c: float, grid: PeriodicGrid | None = None) -> OperatorMatrix:
    """Assemble the evolution operator dx L as a product of discrete matrices."""
    return evolution_operator(assemble_l(phi, phi2, c, grid))


def evolution_operator(lop: OperatorMatrix) -> OperatorMatrix:
    """The evolution operator dx L formed from an assembled self-adjoint L."""
    d1 = fourier_diff_matrix(lop.grid, 1)
    return OperatorMatrix(
        matrix=d1 @ lop.matrix, grid=lop.grid, kind="evolution_dxL",
        asymmetry=lop.asymmetry,
    )


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
    """Full dense eigendecomposition with negative/zero counts.

    Self-adjoint matrices read their cached symmetric decomposition and
    get real ascending eigenvalues; evolution matrices a general solver
    and complex eigenvalues sorted by real part.
    """
    if m.kind == "selfadjoint_L":
        vals, vecs = m.eigh
        return _make_report(vals, tol, m.grid, m.kind, vecs)
    return _make_report(_eig(np.linalg.eigvals, m.matrix), tol, m.grid, m.kind, None)


def restricted_spectrum(m: OperatorMatrix, tol: float | None = None) -> SpectralReport:
    """Spectrum of the operator compressed to the zero-mean subspace Y0.

    For the self-adjoint kind this is the Morse data of the quadratic
    form on Y0; for the evolution kind, Y0 is invariant under dx L (a
    derivative has zero mean), so the compression is the true restriction.

    The basis of Y0 is columns 2..n of the reflection Q = I - beta v v^T
    sending 1/sqrt(n) to e_1, never formed: Q M Q = M - v g^T - h v^T with
    h = beta M v - s v, g = beta M^T v - s v, s = beta^2 v^T M v / 2; the
    compression is its trailing block, and kept eigenvectors map back as Q [0; y].
    """
    n = m.grid.n
    v = np.full(n, -1.0 / math.sqrt(n))
    v[0] += 1.0
    beta = 2.0 / float(np.dot(v, v))
    mv = m.matrix @ v
    s = 0.5 * beta * beta * float(np.dot(v, mv))
    h = beta * mv - s * v
    g = beta * (v @ m.matrix) - s * v
    reduced = m.matrix[1:, 1:] - np.outer(v[1:], g[1:])
    reduced -= np.outer(h[1:], v[1:])
    if m.kind == "selfadjoint_L":
        vals, vecs = _eig(np.linalg.eigh, reduced)
        top = vecs[:, :KEPT_MODES]
        kept = np.vstack([np.zeros((1, top.shape[1])), top]) - beta * np.outer(v, v[1:] @ top)
        return _make_report(vals, tol, m.grid, m.kind, kept)
    return _make_report(_eig(np.linalg.eigvals, reduced), tol, m.grid, m.kind, None)


def inv_one_pairing(m: OperatorMatrix, tol: float | None = None,
                    allow_multi_kernel: bool = False) -> PairingReport:
    """The pairing <L^{-1} 1, 1> with the L^2(0, L) inner product.

    Solves L w = 1 on the orthogonal complement of the numerical kernel
    (deflated with the computed kernel eigenvectors, so the solve is
    consistent with the discrete operator) and returns <w, 1>.  The
    constant is orthogonal to the kernel automatically, since the kernel
    direction phi' has zero mean.

    Raises:
        DomainError: for an operator of the evolution kind.
        RankError: if the numerical kernel is not one-dimensional and
            ``allow_multi_kernel`` is not set (the counting formulas
            assume a simple kernel; the constant-wave case needs the
            override because its kernel is double).
    """
    vals, vecs = m.eigh
    tol = _zero_tol(vals, m.kind, tol)
    kernel = np.abs(vals) <= tol
    k_dim = int(np.sum(kernel))
    if k_dim != 1 and not allow_multi_kernel:
        raise RankError(
            f"kernel dimension {k_dim} (tol={tol:.3e}); expected 1 "
            "(pass allow_multi_kernel=True to deflate a larger kernel)"
        )
    n = m.grid.n
    ones = np.ones(n)
    coeff = vecs.T @ ones
    inv = np.zeros_like(vals)
    inv[~kernel] = 1.0 / vals[~kernel]
    w = vecs @ (inv * coeff)
    pairing = (m.grid.L / n) * float(np.dot(w, ones))
    ones_deflated = ones - vecs[:, kernel] @ coeff[kernel]
    residual = float(np.max(np.abs(m.matrix @ w - ones_deflated)))
    return PairingReport(value=pairing, kernel_dim=k_dim, residual=residual,
                         tol=float(tol))
