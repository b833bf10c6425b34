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
Nyquist entry 0 (kappa and i kappa~ are read from the grid's
``rfft_tables``, as is every symbol here), this orthogonal change of basis
(not an approximation) gives L = [[E, -C^T], [-C, O]] with

    E_km = s_k s_m [q^_|k-m| + q^_(k+m)* - kappa~_k kappa~_m (p^_|k-m| - p^_(k+m)*)]
           - kappa_N^2 p^_0 at (n/2, n/2),
    O_km = q^_|k-m| - q^_(k+m)* - kappa_k kappa_m (p^_|k-m| + p^_(k+m)*),

by O(n^2) index arithmetic on Re p^, Re q^, and the coupling C on Im p^,
Im q^.  All of them are one expression, with dif = |k-m| and sum = (k+m)*,

    W_km [q^_dif + sigma q^_sum - kappa~_k kappa~_m (p^_dif - sigma p^_sum)],

formed by one pass over blocks of rows (``OperatorMatrix._hill_pass``):
E is sigma = +1 on the real parts, every row and column, W = s_k s_m;
O is sigma = -1 on the real parts, rows and columns 1 .. n/2 - 1, W = 1
(kappa_k = kappa~_k there); C is E's expression on the imaginary parts,
rows 1 .. n/2 - 1, W = s_m; and the -K E' K of J L below is E's on rows
and columns 1 .. n/2 - 1, W = -K_k K_m.  A block of rows holds
``BLOCK_ENTRIES`` entries and forms kappa~_k kappa~_m, then W_km, once in
a row buffer, so besides its result a pass allocates two row buffers, not
temporaries the size of E.  max |C| is the reflection defect, rounding
for an even wave: C's own pass forms it, its abs taken in place, and it
is kept as the gate that every solver checks before any block is
assembled, raising :class:`AssemblyError` above it.  Every solve is
values-only and made once (:class:`ParityBlocks`), and no block outlives
its turn: O is assembled, its eigenvalues taken by ``eigvalsh`` and O
released; then E is assembled, its eigenvalues and those of its minor
E[1:, 1:] taken by two ``eigvalsh`` calls, the pairing's system solved
on it, and E released.  So at n = 1024 one block of 2.1 MB and LAPACK's
working copy of it, 4.2 MB, are alive at a time, not E, O and a copy,
6.3 MB.  No eigenvector is formed.

As 1 = sqrt(n) (cosine mode 0), Y0 drops cosine mode 0: L on Y0 is
E[1:, 1:] beside O, and :func:`restricted_spectrum` reads the minor's
eigenvalues.  The pairing's system E w = e_0 is solved in E's turn by one
LU factorization (``solve``), and :func:`inv_one_pairing` reads w: the
pairing is L w_0, and its residual applies L to the spectrum of w by
FFT.  So the Morse identity of :func:`mchwave.indices.morse_check`
compares three independent computations: the eigenvalues of E, those
of E[1:, 1:] and the LU solve.  E has a kernel only at the constant
wave, where cos x is exactly an eigenvector and its diagonal entry
rounds to 0 or eps, so LU may meet a zero pivot.  Where an eigenvalue
of E is within the zero tolerance, the pairing takes the minimum-norm
least-squares solution (``lstsq``) with that tolerance as the
singular-value cutoff; the kernel cos x is orthogonal to the constant,
so the right side has no kernel part.

The evolution operator is J L, the linearization at the wave of the flow
:mod:`mchwave.evolve` integrates, with J = dx (1 - dx^2)^{-1} (symbol
i kappa / (1 + kappa^2), Nyquist entry 0).  J sends cosine mode k to
-K_k sine mode k and sine k to K_k cosine k, K_k = kappa_k / (1 + kappa_k^2),
and annihilates cosine modes 0 and n/2.  So on Y0, J L is
[[0, K O], [-K E', 0]] beside the zero row of cosine mode n/2, where E' is
E without cosine modes 0 and n/2, and its eigenvalues are +-sqrt(mu) over
the eigenvalues mu of the half-size M = -K E' K O, with one structural 0
(:func:`evolution_spectrum`, which forms -K E' K and O anew).  No n x n
matrix is formed.

Zero-eigenvalue policy: :func:`_zero_tol` alone decides what counts as
zero, by one rule with no override: 1e3 eps max |.| of the eigenvalues
counted.  For L, on the five waves named here and 24 random valid ones
in k in [0.05, 0.9], L in [3.2 pi, 12 pi] up to n = 2048, and on the
constant wave up to n = 1024, with Y0 from E[1:, 1:]: the kernel is
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

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import AssemblyError, NumericalError
from .field import PeriodicField, PeriodicGrid
from .wave import WaveParams, profile

ASYMMETRY_GATE = 1e-8
BLOCK_ENTRIES = 2**15  # entries of one block of rows in the assembly pass


@dataclass(frozen=True)
class ParityBlocks:
    """The ascending eigenvalues of the even block E of L in cosine
    coordinates (modes 0 .. n/2), of its minor E[1:, 1:] without the mean
    mode, and of the odd block O, each from its own values-only solve, and
    the solution w of E w = e_0 that :func:`inv_one_pairing` reads, solved
    in E's turn (:attr:`OperatorMatrix.parity`).  No block is kept."""

    even_vals: np.ndarray = dc_field(repr=False)
    minor_vals: np.ndarray = dc_field(repr=False)
    odd_vals: np.ndarray = dc_field(repr=False)
    w: np.ndarray = dc_field(repr=False)


@dataclass(frozen=True)
class OperatorMatrix:
    """L on an n-node grid, held as the node values p, q of its
    coefficients.  Its blocks are assembled when they are solved and
    released after: :attr:`parity` holds one block at a time, O and then
    E, and keeps their spectra and the pairing's solution; the reflection
    defect is kept as the gate checked before either (module docstring)."""

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

    def _hill_pass(self, sigma: int, part, rows: slice, cols: slice,
                   weights: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
        """The one assembly pass (module docstring), a new array: sigma, the
        ``part`` of the windows (np.real or np.imag), ``rows`` x ``cols`` and
        W = outer(*weights) (none: 1), by blocks of BLOCK_ENTRIES entries of
        rows of n/2 + 1.  Every entry takes these operations in this order."""
        half = self.grid.n // 2
        kap = self.grid.rfft_tables[1].imag  # Im i kappa~
        k_r, k_c = kap[rows], kap[cols]
        (p_dif, q_dif), (p_sum, q_sum) = (part(win[:, rows, cols]) for win in self._windows)
        q_op, p_op = (np.add, np.subtract) if sigma > 0 else (np.subtract, np.add)
        out = np.empty(p_dif.shape)
        step = min(half + 1, max(1, BLOCK_ENTRIES // (half + 1)))
        kk, scratch = np.empty((step, len(k_c))), np.empty((step, len(k_c)))
        for top in range(0, len(out), step):
            block = slice(top, min(top + step, len(out)))
            kk_b = np.multiply.outer(k_r[block], k_c, out=kk[: block.stop - top])
            out_b = p_op(p_dif[block], p_sum[block], out=out[block])
            out_b *= kk_b
            s_b = q_op(q_dif[block], q_sum[block], out=scratch[: block.stop - top])
            np.subtract(s_b, out_b, out=out_b)
            if weights is not None:
                out_b *= np.multiply.outer(weights[0][block], weights[1], out=kk_b)
        return out

    def _gate(self) -> None:
        """AssemblyError if the reflection defect exceeds the gate: checked
        before any block is assembled or solved."""
        if self.reflection_defect > ASYMMETRY_GATE:
            raise AssemblyError(f"reflection defect {self.reflection_defect:.3e} exceeds "
                                f"gate {ASYMMETRY_GATE:.0e}: the coefficients are not even")

    def _even_block(self) -> np.ndarray:
        """E, a new array on each call, with no gate."""
        half = self.grid.n // 2
        s = _cosine_weights(half)
        even = self._hill_pass(1, np.real, slice(None), slice(None), (s, s))
        even[half, half] -= self.grid.rfft_tables[0][half] ** 2 * self._windows[0][0, 0, 0].real
        return even

    def _odd_block(self) -> np.ndarray:
        """O, a new array on each call, with no gate."""
        inner = slice(1, self.grid.n // 2)
        return self._hill_pass(-1, np.real, inner, inner, None)

    @cached_property
    def reflection_defect(self) -> float:
        """max |C|, C_km = -<sine k, L cosine m> = s_m [b^q_(k+m) + b^q_(k-m) +
        kappa_k kappa~_m (b^p_(k+m) - b^p_(k-m))], b = Im p^, Im q^ extended
        odd: rounding for an even wave, and the gate before any block.  C's
        own pass, its abs taken in place (module docstring)."""
        half = self.grid.n // 2
        coupling = self._hill_pass(1, np.imag, slice(1, half), slice(None),
                                   (np.ones(half - 1), _cosine_weights(half)))
        return float(np.max(np.abs(coupling, out=coupling)))

    @cached_property
    def parity(self) -> ParityBlocks:
        """The blocks' spectra and the pairing's solution, computed once and
        shared read-only, one block alive at a time: O is assembled, solved
        and released; then E is assembled, solved with its minor, and
        factorized once for w (module docstring), and released.
        AssemblyError for coefficients that are not even, NumericalError if
        the solver fails."""
        self._gate()
        odd_vals = _lapack(np.linalg.eigvalsh, self._odd_block())
        even = self._even_block()
        even_vals = _lapack(np.linalg.eigvalsh, even)
        minor_vals = _lapack(np.linalg.eigvalsh, even[1:, 1:])
        tol = max(_zero_tol(even_vals), _zero_tol(odd_vals))
        e_0 = np.eye(1, len(even))[0]
        if np.any(np.abs(even_vals) <= tol):
            cutoff = tol / float(np.max(np.abs(even_vals)))
            w = _lapack(np.linalg.lstsq, even, e_0, rcond=cutoff)[0]
        else:
            w = _lapack(np.linalg.solve, even, e_0)
        blocks = ParityBlocks(even_vals, minor_vals, odd_vals, w)
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
    """The pairing <L^{-1} 1, 1> from one solve of the even block."""

    value: float
    residual: float


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


def _lapack(solver, *args, **kwargs):
    """``solver(*args, **kwargs)``; NumericalError if LAPACK fails."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{solver.__name__} failed: {exc}") from exc


def _cosine_weights(half: int) -> np.ndarray:
    """s_k, k = 0 .. half: 1/sqrt 2 at 0 and half, 1 between."""
    return np.concatenate(([math.sqrt(0.5)], np.ones(half - 1), [math.sqrt(0.5)]))


def _apply_l(m: OperatorMatrix, u_hat: np.ndarray) -> np.ndarray:
    """The rfft spectrum of L u from that of u by FFT: d/dx(p du/dx) + q u,
    p u_x and q u its grid products, and the Nyquist completion."""
    p_vals, q_vals = m.coefficients
    n, (kap, d1, _) = m.grid.n, m.grid.rfft_tables
    out = d1 * np.fft.rfft(p_vals * np.fft.irfft(d1 * u_hat, n))
    out[-1] = -(kap[-1] ** 2) * float(np.mean(p_vals)) * u_hat[-1]
    out += np.fft.rfft(q_vals * np.fft.irfft(u_hat, n))
    return out


def _zero_tol(eigenvalues: np.ndarray) -> float:
    """The zero-eigenvalue tolerance (module docstring): 1e3 eps max |eigenvalue|."""
    return float(1e3 * np.finfo(float).eps * max(float(np.max(np.abs(eigenvalues))), 1e-300))


def _near_zero_gap(moduli: np.ndarray) -> float:
    by_mod = np.sort(moduli)
    return float(by_mod[1] - by_mod[0])


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
    union of its parity blocks' eigenvalues."""
    return _make_report(m.parity.even_vals, m.parity.odd_vals, m.grid)


def restricted_spectrum(m: OperatorMatrix) -> SpectralReport:
    """Spectrum of L compressed to the zero-mean subspace Y0.

    This is the Morse data of the quadratic form on Y0, spanned by the
    cosine modes but mode 0 (the constant) and by all the sine modes: the
    eigenvalues of the even block without its mean mode, E[1:, 1:], joined
    with the odd block's.
    """
    return _make_report(m.parity.minor_vals, m.parity.odd_vals, m.grid)


def evolution_spectrum(m: OperatorMatrix) -> SpectralReport:
    """Spectrum of the evolution operator J L on Y0, J = dx (1 - dx^2)^{-1}.

    The n - 1 eigenvalues are +-sqrt(mu) over the eigenvalues mu of the
    half-size M = -K E' K O, and the structural 0 of cosine mode n/2
    (module docstring).  A mu within the zero tolerance gives lambda = 0
    twice; the report's ``tol`` is that tolerance's square root, in lambda
    units.  Raises AssemblyError for coefficients that are not even.
    """
    m._gate()
    inner = slice(1, m.grid.n // 2)
    kap = m.grid.rfft_tables[0][inner]
    scale = kap / (1.0 + kap * kap)  # a real division: Im of J's complex symbol rounds apart
    # -K E' K: E's expression on the inner rows and columns, where s x s
    # is 1, weighted by (-K) x K: the bits of -(outer(K, K) * E')
    prod = m._hill_pass(1, np.real, inner, inner, (-scale, scale)) @ m._odd_block()
    mu = _lapack(np.linalg.eigvals, prod)
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

    As 1 = sqrt(n) (cosine mode 0) and phi' is odd, L w = 1 is the even
    system E w = sqrt(n) e_0, and the pairing is L w_0 for E w = e_0, by one
    LU solve.  Where E has an eigenvalue within the zero tolerance (only at
    the constant wave, whose double kernel is deflated like a simple one),
    w is the minimum-norm least-squares solution with the tolerance as its
    cutoff (module docstring).  The tolerance is that of :func:`spectrum`,
    read off both blocks' spectra.  w is solved in E's turn of the
    operator's parity, after O's and before E is released, and kept there;
    this reads it, and the residual max |L w - 1| applies L to the rfft
    spectrum of w by FFT, with no block or dense matrix.  Raises
    AssemblyError for coefficients that are not even.
    """
    n, w = m.grid.n, m.parity.w
    # the rfft of w's grid form sqrt(n) sum_k w_k sqrt(2/n) s_k cos(kappa_k x)
    w_hat = n * math.sqrt(0.5) * w / _cosine_weights(n // 2)
    residual = float(np.max(np.abs(np.fft.irfft(_apply_l(m, w_hat), n) - 1.0)))
    return PairingReport(value=m.grid.L * float(w[0]), residual=residual)
