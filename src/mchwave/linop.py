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

Parity blocks.  The wave is even on the grid x_j = j L / n, so L commutes
with the reflection R: j -> -j mod n.  A self-adjoint
:class:`OperatorMatrix` caches one :class:`ParityBlocks`: the even block in
the basis e_0, (e_j + e_{n-j})/sqrt 2 (1 <= j < n/2), e_{n/2} and the odd
block in the basis (e_j - e_{n-j})/sqrt 2, each formed by index arithmetic
and solved once, so two eigensolves of order about n/2 replace one of order
n.  :func:`spectrum` and :func:`inv_one_pairing` share them; the constant 1
is even, so the pairing is solved in the even block alone.  Y0 splits as
(even block on 1-perp) + (odd block): :func:`restricted_spectrum` keeps its
own eigensolve of the compressed even block (the independent route of the
Morse identity) and reuses the odd eigenvalues, which cancel from both
sides of that identity.  A matrix that is not reflection invariant to
within the assembly gate raises :class:`AssemblyError` instead of being
split.  The evolution operator dx L swaps the two parities and keeps the
dense route.

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
    """Eigendecompositions of the even and odd blocks of a self-adjoint matrix.

    ``even`` is the even block itself ((n/2 + 1) x (n/2 + 1)), which
    :func:`restricted_spectrum` compresses; the eigenvalues are ascending
    and the eigenvector columns are in block coordinates (module docstring).
    """

    even: np.ndarray = dc_field(repr=False)
    even_vals: np.ndarray = dc_field(repr=False)
    even_vecs: np.ndarray = dc_field(repr=False)
    odd_vals: np.ndarray = dc_field(repr=False)
    odd_vecs: np.ndarray = dc_field(repr=False)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense n x n real discretization of L or of dx L.

    ``asymmetry`` is max |A - A^T| before symmetrization, gated at assembly;
    ``reflection_defect`` is max |A - R A R| for the grid reflection R,
    rounding for an even wave, gated before a self-adjoint L is split into
    its parity blocks (module docstring).  Both gates are ``ASYMMETRY_GATE``.
    """

    matrix: np.ndarray = dc_field(repr=False)
    grid: PeriodicGrid
    kind: OperatorKind
    asymmetry: float = 0.0

    @cached_property
    def reflection_defect(self) -> float:
        """max |A - R A R|, measured once; rows 0..n/2 already meet every
        entry or its reflected partner."""
        n = self.grid.n
        mirrored = _mirror(self.matrix)[:, -np.arange(n) % n]
        return float(np.max(np.abs(self.matrix[: n // 2 + 1] - mirrored)))

    @cached_property
    def parity(self) -> ParityBlocks:
        """The even and odd blocks and their eigendecompositions, computed
        once and shared read-only; DomainError for the evolution kind,
        AssemblyError if the reflection defect exceeds the gate,
        NumericalError if the solver fails."""
        if self.kind != "selfadjoint_L":
            raise DomainError("parity blocks require a selfadjoint_L operator")
        if self.reflection_defect > ASYMMETRY_GATE:
            raise AssemblyError(
                f"reflection defect {self.reflection_defect:.3e} exceeds gate "
                f"{ASYMMETRY_GATE:.0e}: the coefficients are not even"
            )
        even, odd = _parity_blocks(self.matrix)
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


def fourier_diff_matrix(grid: PeriodicGrid, order: int) -> np.ndarray:
    """Dense real Fourier differentiation matrix of the given order.

    Odd orders zero the Nyquist mode; even orders keep its real symbol.
    The matrix is the circulant D[i, j] = col[(i - j) mod n] whose first
    column is the inverse FFT of the symbol; row i is a window of the
    doubled first row.
    """
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    n = grid.n
    symbol = (1j * grid.wavenumbers()) ** order
    if order % 2 == 1:
        symbol[-1] = 0.0
    col = np.fft.irfft(symbol, n)
    first_row = col[-np.arange(n) % n]
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(first_row, 2), n)
    return windows[n:0:-1].copy()


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


def _even_weights(n: int) -> np.ndarray:
    """The constant 1 in even coordinates: (1, sqrt 2, ..., sqrt 2, 1)."""
    w = np.full(n // 2 + 1, math.sqrt(2.0))
    w[0] = w[-1] = 1.0
    return w


def _mirror(x: np.ndarray) -> np.ndarray:
    """Rows (-j) mod n, j = 0..n/2, of an n-row array, gathered by slicing."""
    return np.concatenate((x[:1], x[: x.shape[0] // 2 - 1 : -1]))


def _parity_blocks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks E^T A E and O^T A O (module docstring).

    Row and column j of a block fold j onto its mirror n - j, so each
    entry is a signed sum of four entries of A; no product is formed.
    """
    half = a.shape[0] // 2
    mirrored = _mirror(a)
    plus, minus = a[: half + 1] + mirrored, (a[: half + 1] - mirrored)[1:half]
    w = _even_weights(a.shape[0])
    even = (plus.T[: half + 1] + _mirror(plus.T)) * np.outer(0.25 * w, w)
    odd = 0.5 * (minus.T[1:half] - _mirror(minus.T)[1:half])
    return even, odd


def _from_even(y: np.ndarray) -> np.ndarray:
    """Grid columns E y of even-coordinate columns y ((n/2 + 1) x k)."""
    half = y / _even_weights(2 * (y.shape[0] - 1))[:, None]
    return np.vstack((half, half[-2:0:-1]))


def _from_odd(z: np.ndarray) -> np.ndarray:
    """Grid columns O z of odd-coordinate columns z ((n/2 - 1) x k)."""
    half = z / math.sqrt(2.0)
    zero = np.zeros((1, z.shape[1]))
    return np.vstack((zero, half, zero, -half[::-1]))


def _merge_lowest(even_vals: np.ndarray, even_vecs: np.ndarray,
                  odd_vals: np.ndarray, odd_vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of two blocks' eigenvalues, and grid columns for its
    ``KEPT_MODES`` lowest modes, which are among the lowest of each block."""
    heads = np.concatenate((even_vals[:KEPT_MODES], odd_vals[:KEPT_MODES]))
    cols = np.hstack((_from_even(even_vecs[:, :KEPT_MODES]),
                      _from_odd(odd_vecs[:, :KEPT_MODES])))
    kept = cols[:, np.argsort(heads, kind="stable")[:KEPT_MODES]]
    return np.sort(np.concatenate((even_vals, odd_vals))), kept


def _compress(a: np.ndarray, u: np.ndarray):
    """Compression of ``a`` to the complement of the unit vector ``u``.

    The basis is columns 2.. of the reflection Q = I - beta v v^T sending
    u to e_1, never formed: Q A Q = A - v g^T - h v^T with h = beta A v - s v,
    g = beta A^T v - s v, s = beta^2 v^T A v / 2; the compression is its
    trailing block.  Returns it and the map of columns y to Q [0; y].
    """
    v = -u
    v[0] += 1.0
    beta = 2.0 / float(np.dot(v, v))
    av = a @ v
    s = 0.5 * beta * beta * float(np.dot(v, av))
    h = beta * av - s * v
    g = beta * (v @ a) - s * v
    reduced = a[1:, 1:] - np.outer(v[1:], g[1:])
    reduced -= np.outer(h[1:], v[1:])

    def lift(y: np.ndarray) -> np.ndarray:
        return np.vstack([np.zeros((1, y.shape[1])), y]) - beta * np.outer(v, v[1:] @ y)
    return reduced, lift


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

    Self-adjoint matrices read their cached parity blocks and get the
    real ascending union of both; evolution matrices a general dense
    solver and complex eigenvalues sorted by real part.
    """
    if m.kind == "selfadjoint_L":
        blocks = m.parity
        vals, kept = _merge_lowest(blocks.even_vals, blocks.even_vecs,
                                   blocks.odd_vals, blocks.odd_vecs)
        return _make_report(vals, tol, m.grid, m.kind, kept)
    return _make_report(_eig(np.linalg.eigvals, m.matrix), tol, m.grid, m.kind, None)


def restricted_spectrum(m: OperatorMatrix, tol: float | None = None) -> SpectralReport:
    """Spectrum of the operator compressed to the zero-mean subspace Y0.

    For the self-adjoint kind this is the Morse data of the quadratic
    form on Y0: the even block compressed to the complement of 1 (in even
    coordinates w / sqrt(n), w from :func:`_even_weights`), solved afresh,
    joined with the odd block's eigenvalues, since odd vectors have zero
    mean.  For the evolution kind, Y0 is invariant under dx L (a
    derivative has zero mean), so the dense compression along 1 / sqrt(n)
    is the true restriction.  Kept eigenvectors map back to the grid.
    """
    n = m.grid.n
    if m.kind == "selfadjoint_L":
        blocks = m.parity
        reduced, lift = _compress(blocks.even, _even_weights(n) / math.sqrt(n))
        vals, vecs = _eig(np.linalg.eigh, reduced)
        vals, kept = _merge_lowest(vals, lift(vecs[:, :KEPT_MODES]),
                                   blocks.odd_vals, blocks.odd_vecs)
        return _make_report(vals, tol, m.grid, m.kind, kept)
    reduced, _ = _compress(m.matrix, np.full(n, 1.0 / math.sqrt(n)))
    return _make_report(_eig(np.linalg.eigvals, reduced), tol, m.grid, m.kind, None)


def inv_one_pairing(m: OperatorMatrix, tol: float | None = None,
                    allow_multi_kernel: bool = False) -> PairingReport:
    """The pairing <L^{-1} 1, 1> with the L^2(0, L) inner product.

    Solves L w = 1 on the orthogonal complement of the numerical kernel
    (deflated with the computed kernel eigenvectors, so the solve is
    consistent with the discrete operator) and returns <w, 1>.  The
    constant is even, so the solve runs in the even block alone; the
    kernel direction phi' is odd, and the even block has a kernel only at
    the constant-wave degeneracy.  The kernel is counted in both blocks,
    and the residual is measured with the full matrix on the grid.

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
        raise RankError(
            f"kernel dimension {k_dim} (tol={tol:.3e}); expected 1 "
            "(pass allow_multi_kernel=True to deflate a larger kernel)"
        )
    n = m.grid.n
    ones = _even_weights(n)
    coeff = vecs.T @ ones
    inv = np.zeros_like(vals)
    inv[~kernel] = 1.0 / vals[~kernel]
    w = vecs @ (inv * coeff)
    pairing = (m.grid.L / n) * float(np.dot(w, ones))
    ones_deflated = ones - vecs[:, kernel] @ coeff[kernel]
    on_grid = _from_even(np.column_stack((w, ones_deflated)))
    residual = float(np.max(np.abs(m.matrix @ on_grid[:, 0] - on_grid[:, 1])))
    return PairingReport(value=pairing, kernel_dim=k_dim, residual=residual,
                         tol=float(tol))
