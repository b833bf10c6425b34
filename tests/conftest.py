import math
import sys
from functools import partial
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from hypothesis import settings

import mchwave as mw
from mchwave import AssemblyError, BlowUpError, DomainError, NumericalError, evolve, linop
from mchwave.evolve import _RhsOperator
from mchwave.field import (_functionals, _orbit_distance, derivative, fractional_shift,
                           functionals, sample_wave)
from mchwave.wave import _closed_forms, _dk, _k_e_or_nan

# Property tests draw the same examples on every run, and a slow machine
# does not fail them on a per-example deadline.
settings.register_profile("mchwave", derandomize=True, deadline=None)
settings.load_profile("mchwave")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` wraps ``fn`` in every mchwave module that binds it
    and returns the list its calls are logged to."""
    def install(fn) -> list:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if (name == "mchwave" or name.startswith("mchwave.")) \
                    and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted)
        return calls
    return install


def _count_numpy_calls(monkeypatch, module, names) -> list:
    """Wrap ``module.<name>`` for each of ``names``; returns the list of names called."""
    calls = []
    for name in names:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def fft_calls(monkeypatch):
    """Wrap numpy.fft.{fft,ifft,rfft,irfft}; returns the list of names called."""
    return _count_numpy_calls(monkeypatch, np.fft, ("fft", "ifft", "rfft", "irfft"))


@pytest.fixture
def eig_calls(monkeypatch):
    """Wrap numpy.linalg.{eigh,eigvalsh,eig,eigvals}; returns the list of names called."""
    return _count_numpy_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh", "eig", "eigvals"))


class AdvanceCall(NamedTuple):
    """One ``evolve._advance`` call: its frame's symbol ``lam`` (the lab's
    is 0, so ``lam.any()`` tells the mean's), its method (``evolve._RK4``
    or ``evolve._DP54``), whether it is a trial (one step with no target),
    the state and slope it starts from, its step, its count, its target
    and the estimate it returns (None until then)."""

    lam: np.ndarray
    pair: object
    trial: bool
    spec: np.ndarray
    k1: np.ndarray
    h: float
    q: int
    tol: float
    est: float | None


@pytest.fixture
def advance_calls(monkeypatch):
    """Wrap evolve._advance; returns the list of its calls as AdvanceCall,
    each appended on entry, so ``advance_calls[-1]`` is the current one."""
    calls, advance = [], evolve._advance

    def spied(st, lam, pair, spec, k1, q, h, tol):
        calls.append(AdvanceCall(lam, pair, q == 1 and tol == math.inf, spec, k1, h, q, tol,
                                 None))
        out = advance(st, lam, pair, spec, k1, q, h, tol)
        calls[-1] = calls[-1]._replace(est=out[2])
        return out

    monkeypatch.setattr(evolve, "_advance", spied)
    return calls


@pytest.fixture(scope="session")
def wave05():
    """The workhorse wave at (k, L) = (0.5, 6 pi)."""
    return mw.wave_at(0.5, 6.0 * np.pi)[0]


@pytest.fixture(scope="session")
def op05_256(wave05):
    return mw.operator_for(wave05, 256)


@pytest.fixture(scope="session")
def op05_512(wave05):
    return mw.operator_for(wave05, 512)


@pytest.fixture(scope="session")
def op_constant_128():
    p = mw.wave_at(0.0, 2.0 * np.pi)[0]
    return mw.operator_for(p, 128)


def random_smooth(grid: mw.PeriodicGrid, rng: np.random.Generator,
                  modes: int = 6) -> mw.PeriodicField:
    """Zero-mean band-limited random field for perturbation tests."""
    vals = np.zeros(grid.n)
    x = grid.nodes
    for m in range(1, modes + 1):
        arg = 2.0 * np.pi * m * x / grid.L
        vals += rng.normal() * np.cos(arg) + rng.normal() * np.sin(arg)
    return mw.PeriodicField(grid, vals)


def diff_matrix(grid: mw.PeriodicGrid) -> np.ndarray:
    """Dense real Fourier first-derivative matrix D1: the symbol i kappa, with
    the Nyquist entry zeroed, applied to the FFT of every unit vector."""
    n = grid.n
    kap = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / grid.L
    symbol = 1j * kap
    symbol[n // 2] = 0.0
    return np.fft.ifft(symbol[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0).real


def helmholtz_diff_matrix(grid: mw.PeriodicGrid) -> np.ndarray:
    """Dense J = dx (1 - dx^2)^{-1}: the symbol i kappa / (1 + kappa^2), with
    the Nyquist entry zeroed, applied to the FFT of every unit vector."""
    n = grid.n
    kap = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / grid.L
    symbol = 1j * kap / (1.0 + kap * kap)
    symbol[n // 2] = 0.0
    return np.fft.ifft(symbol[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0).real


def householder_y0_basis(n: int) -> np.ndarray:
    """Dense orthonormal basis of the zero-mean subspace Y0: the columns
    1 .. n - 1 of the reflection sending 1/sqrt(n) to e_1."""
    v = np.full(n, -1.0 / math.sqrt(n))
    v[0] += 1.0
    return (np.eye(n) - (2.0 / np.dot(v, v)) * np.outer(v, v))[:, 1:]


def dense_evolution_eigenvalues(op) -> np.ndarray:
    """The dense J oracle: the eigenvalues of J L on Y0, from ``eigvals`` of
    Q^T (J A) Q for the grid matrix A of L and the Householder basis Q."""
    basis = householder_y0_basis(op.grid.n)
    return np.linalg.eigvals(basis.T @ helmholtz_diff_matrix(op.grid) @ dense_matrix(op) @ basis)


def dense_matrix(op) -> np.ndarray:
    """The grid collocation matrix of L for the coefficients of ``op``:
    D1 diag(p) D1 + diag(q), the sawtooth mode completed at
    -kappa_N^2 mean(p), symmetrized."""
    p_vals, q_vals = op.coefficients
    n = op.grid.n
    d1 = diff_matrix(op.grid)
    mat = d1 @ (p_vals[:, None] * d1)
    kap_nyq = math.pi * n / op.grid.L
    saw = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    mat += (-(kap_nyq**2) * float(np.mean(p_vals)) / n) * np.outer(saw, saw)
    mat[np.arange(n), np.arange(n)] += q_vals
    return 0.5 * (mat + mat.T)


def to_grid(coords: np.ndarray) -> np.ndarray:
    """Grid columns of cosine (rows 0 .. n/2), then sine coordinates (rows
    n/2 + 1 ..) ``coords``, by one inverse real FFT."""
    half = coords.shape[0] // 2
    spec = coords[: half + 1] / linop._cosine_weights(half)[:, None] + 0j
    spec[1:half] -= 1j * coords[half + 1:]
    return math.sqrt(half) * np.fft.irfft(spec, 2 * half, axis=0)


def from_grid(u: np.ndarray) -> np.ndarray:
    """The cosine/sine coordinates of grid columns ``u`` by one real FFT: the
    inverse of :func:`to_grid`."""
    half = u.shape[0] // 2
    spec = np.fft.rfft(u, axis=0) / math.sqrt(half)
    return np.concatenate((spec.real * linop._cosine_weights(half)[:, None],
                           -spec.imag[1:half]))


def constraint_matrix(op, g: np.ndarray) -> np.ndarray:
    """P_ij = <L^{-1} g_i, g_j> in L^2(0, L) for even grid columns ``g``, the
    wave's [1, phi - phi''] (ROADMAP item 26's matrix, whose P_11 is the
    pairing <L^{-1} 1, 1>): (L/n) G^T E^{-1} G, G the cosine rows 0 .. n/2
    of ``from_grid(g)``, by one solve of the even block E of ``op``."""
    g_hat = from_grid(g)[: op.grid.n // 2 + 1]
    return (op.grid.L / op.grid.n) * g_hat.T @ np.linalg.solve(op._even_block(), g_hat)


def lowest_eigenvectors(op, restricted: bool = False, modes: int = 8) -> np.ndarray:
    """Grid columns of the ``modes`` lowest eigenvectors of L (of L on Y0 if
    ``restricted``), ascending by eigenvalue: one ``eigh`` of each parity
    block of ``op`` (the even one without cosine mode 0 for Y0), mapped to
    the grid by one inverse real FFT.  The program solves only E with its
    vectors, so these are the test's own."""
    even, odd = op._even_block(), op._odd_block()
    even_vals, even_vecs = np.linalg.eigh(even[1:, 1:] if restricted else even)
    if restricted:
        even_vecs = np.pad(even_vecs, ((1, 0), (0, 0)))
    odd_vals, odd_vecs = np.linalg.eigh(odd)
    lowest = np.argsort(np.concatenate((even_vals[:modes], odd_vals[:modes])),
                        kind="stable")[:modes]
    even_vecs, odd_vecs = even_vecs[:, :modes], odd_vecs[:, :modes]
    coords = np.block([[even_vecs, np.zeros((len(even_vecs), odd_vecs.shape[1]))],
                       [np.zeros((len(odd_vecs), even_vecs.shape[1])), odd_vecs]])
    return to_grid(coords[:, lowest])


def reference_defect(op) -> float:
    """``OperatorMatrix.reflection_defect`` as first written, one expression
    with a temporary per operation: the oracle the in-place assembly must
    match bit for bit."""
    half = op.grid.n // 2
    kap, inner = op.grid.wavenumbers(), slice(1, half)
    (p_dif, q_dif), (p_sum, q_sum) = (v.imag for v in op._windows)
    coupling = q_sum[inner] + q_dif[inner] + np.outer(
        kap[inner], np.append(kap[:half], 0.0)) * (p_sum[inner] - p_dif[inner])
    return float(np.max(np.abs(coupling * linop._cosine_weights(half))))


def reference_blocks(op) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks E and O of ``op`` as first written, from
    whole-array expressions, with the AssemblyError of ``op._gate`` above
    the gate: the oracle the in-place assembly must match bit for bit."""
    defect = reference_defect(op)
    if defect > linop.ASYMMETRY_GATE:
        raise AssemblyError(f"reflection defect {defect:.3e} exceeds "
                            f"gate {linop.ASYMMETRY_GATE:.0e}: the coefficients are not even")
    half = op.grid.n // 2
    kap = op.grid.wavenumbers()
    kap_even = np.append(kap[:half], 0.0)
    (p_dif, q_dif), (p_sum, q_sum) = (v.real for v in op._windows)
    even = q_dif + q_sum - np.outer(kap_even, kap_even) * (p_dif - p_sum)
    even *= np.outer(linop._cosine_weights(half), linop._cosine_weights(half))
    even[half, half] -= kap[half] ** 2 * p_dif[0, 0]
    p_dif, p_sum, q_dif, q_sum = (a[1:half, 1:half] for a in (p_dif, p_sum, q_dif, q_sum))
    odd = q_dif - q_sum - np.outer(kap[1:half], kap[1:half]) * (p_dif + p_sum)
    return even, odd


def grid_rhs(u: mw.PeriodicField) -> np.ndarray:
    """The smoothed right side of the flow at u, on the grid nodes."""
    return np.fft.irfft(_RhsOperator(u.grid)(u.spectrum), u.grid.n)


def closed_forms(k, big_l) -> tuple:
    """(a, b, c, A, F) of ``wave._closed_forms`` at cells (k, L), with the
    package's K/E evaluation at k."""
    return _closed_forms(k, big_l, *_k_e_or_nan(k))


def closed_form_dk(k: float, big_l: float) -> tuple[float, float, float, float]:
    """(da, db, dc, dA)/dk at fixed L: the package's one complex-step pass
    over the closed forms, at the single cell (k, L)."""
    ks, ls = np.array([k], float), np.array([big_l], float)
    return tuple(float(v[0]) for v in _dk(partial(closed_forms, big_l=ls), ks)[:4])


class AccuracyError(NumericalError):
    """The step-halving consistency gate of :func:`fd_dk` failed."""


def fd_dk(f, k, h: float) -> np.ndarray:
    """d f / dk by central differences with one Richardson level, cell by cell:
    the tests' oracle for ``wave._dk``.

    ``k`` is one modulus or an array of cells, and ``f`` maps moduli shaped
    like ``k`` to components stacked on a leading axis, NaN where it has no
    value.  fd_dk evaluates f on the six stencil arrays k +- h, k +- h/2 and
    k +- h/4 and forms the Richardson values R(h) and R(h/2); in each cell
    the two must agree componentwise to 1% (components below 1e-9 are
    exempt, so limits where a derivative vanishes do not trip the gate).
    Returns R(h/2), NaN in each cell that fails the gate or where f has no
    value at a stencil point; a scalar ``k`` that fails the gate raises
    AccuracyError.
    """
    central = [(np.asarray(f(k + step), dtype=float) - np.asarray(f(k - step), dtype=float))
               / (2.0 * step) for step in (h, 0.5 * h, 0.25 * h)]
    r_coarse = (4.0 * central[1] - central[0]) / 3.0
    r_fine = (4.0 * central[2] - central[1]) / 3.0
    scale = np.maximum(np.abs(r_coarse), np.abs(r_fine))
    failed = ((scale > 1e-9) & (np.abs(r_coarse - r_fine) > 0.01 * scale)).any(axis=0)
    if np.ndim(k) == 0 and failed:
        raise AccuracyError(
            f"finite-difference consistency gate failed at k={k} (h={h}): "
            f"R(h)={r_coarse!r} vs R(h/2)={r_fine!r}"
        )
    return np.where(failed, np.nan, r_fine)


def fd_index(k, big_l, h: float) -> np.ndarray:
    """The FD oracle of the stability index: :func:`fd_dk` at step h over
    the closed forms, rows (I, dA/dk, dc/dk, dV/dk, dF/dk).  A scalar k
    raises AccuracyError where the step-halving gate fails; over arrays of
    cells such a cell, or one with no wave at a stencil point, is NaN."""
    da, _, dc, big_da, df = fd_dk(lambda kk: np.array(closed_forms(kk, big_l)), k, h)
    dv = big_l * da
    return np.array([big_da * dv - dc * df, big_da, dc, dv, df])


def a_closed_form(k, big_l) -> tuple:
    """The published long closed form for A and its rounding floor,
    elementwise: the oracle for A from the wave ODE.  A is not finite where
    Delta <= 0 or where its terms of order L^6 overflow (L above about 1.4e51).

    A = (term1 + term2 + term3 - 27 L^6) / (27 L^6), and the floor is
    eps (|term1| (1 + s / (2 Delta)) + |term2| + |term3| + 27 L^6) / (27 L^6),
    where s / (2 Delta), s the sum of Delta's terms' moduli, is the
    conditioning of sqrt(Delta) in term1.  The sum cancels down to A, and
    away from the discriminant boundary the floor is about 5e-16 absolute.
    """
    big_k = mw.complete_k_e(k)[0]
    with np.errstate(all="ignore"):  # from overflowing or vanishing powers of L
        k2, big_k4 = k * k, big_k**4
        k4, k6 = k2 * k2, k2 * k2 * k2
        q4, l4, l6 = (1.0 - k2 + k4) * big_k4, big_l**4, 27.0 * big_l**6
        delta = 9.0 * l4 - 2048.0 * q4
        root = np.sqrt(np.where(delta > 0.0, delta, np.nan))
        term1 = (9.0 * l4 - 1280.0 * q4) * root
        term2 = (-16384.0 - 16384.0 * k6 + 24576.0 * k2 + 24576.0 * k4) * big_k4 * big_k * big_k
        term3 = 6912.0 * big_l * big_l * q4
        a_closed = (term1 + term2 + term3 - l6) / l6
        spread = 2048.0 * q4 + 9.0 * l4
        moduli = abs(term1) * (1.0 + 0.5 * spread / delta) + abs(term2) + abs(term3) + l6
        return a_closed, np.finfo(float).eps * moduli / l6


class WaveOracle(NamedTuple):
    """The closed forms of one cell at 50 digits (:func:`wave_oracle`)."""

    a: object
    b: object
    c: object
    A: object
    F: object
    E: object
    ineq_i: object
    ineq_ii: object
    I: object


def _oracle_forms(k, big_l) -> tuple:
    """(a, b, c, A, F, E, ineq_i, ineq_ii) at a complex modulus k and period
    L, in the working precision of mpmath.

    K, E are mpmath's (``ellipk``, ``ellipe`` take m = k^2).  The period means
    Y_j = <dn^(2j)>, Y_0 = 1 and Y_1 = E/K, come from the amplitude integral
    (1/K) int_0^(pi/2) (1 - m sin^2 t)^(j - 1/2) dt = (pi/2) 2F1(1/2 - j,
    1/2; 1; m) / K, not from a recurrence.  With y = dn^2, (dy/dtheta)^2 =
    4 y (1 - y)(y - k'^2).  A is the wave ODE at x = L/2, where y = k'^2,
    phi' = 0 and d^2y/dtheta^2 = 2 k^2 k'^2.
    """
    m = k * k
    kp2 = 1 - m
    big_k, big_e = mpmath.ellipk(m), mpmath.ellipe(m)
    ys = [1, big_e / big_k] + [
        mpmath.pi / 2 * mpmath.hyp2f1(mpmath.mpf(1) / 2 - j, mpmath.mpf(1) / 2, 1, m) / big_k
        for j in (2, 3, 4)]
    root = mpmath.sqrt(9 * big_l**4 - 2048 * big_k**4 * (1 - m + m * m))
    b = -32 * big_k**2 / big_l**2
    c = (3 * big_l**2 - root) / (2 * big_l**2)
    a = -(-32 * (2 - m) * big_k**2 + 96 * big_e * big_k + (3 * big_l**2 - root) / 2) \
        / (3 * big_l**2)
    omega = 2 * big_k / big_l
    # <y^j (dy/dtheta)^2> = 4 <-y^(j+3) + (1 + k'^2) y^(j+2) - k'^2 y^(j+1)>
    slope = [4 * (-ys[j + 3] + (1 + kp2) * ys[j + 2] - kp2 * ys[j + 1]) for j in (0, 1)]
    a0 = a - b * ys[1]  # phi = a0 + b y
    mean_phi2 = a * a + b * b * (ys[2] - ys[1] ** 2)
    momentum = big_l / 2 * (mean_phi2 + b * b * omega**2 * slope[0])
    mean_phi4 = sum(mpmath.binomial(4, j) * a0 ** (4 - j) * b**j * ys[j] for j in range(5))
    mean_phi_slope2 = b * b * omega**2 * (a0 * slope[0] + b * slope[1])
    energy = -big_l * (mean_phi4 / 4 + mean_phi_slope2 / 2)
    phi_mid = a0 + b * kp2
    big_a = (phi_mid - c) * b * omega**2 * 2 * m * kp2 - phi_mid**3 + c * phi_mid
    ineq_i = c * c - 3 * c + 32 * mpmath.pi**4 / big_l**4
    return a, b, c, big_a, momentum, energy, ineq_i, phi_mid - c


def wave_oracle(k: float, big_l: float, step: float = 1e-40) -> WaveOracle:
    """The wave at (k, L) from a 50-digit mpmath transcription of the closed
    forms, and the stability index I = dA/dk dV/dk - dc/dk dF/dk with V = a L:
    the independent oracle of ``wave._closed_forms``, ``_energy`` and the
    index.  One evaluation of :func:`_oracle_forms` at k + i ``step`` gives
    the values as its real parts (off by O(step^2), below the 50 digits) and
    the k-derivatives as its imaginary parts over ``step``."""
    with mpmath.workdps(50):
        big_l = mpmath.mpf(big_l)
        forms = _oracle_forms(mpmath.mpc(k, step), big_l)
        da, _, dc, big_da, df = (mpmath.im(v) / step for v in forms[:5])
        return WaveOracle(*(mpmath.re(v) for v in forms), big_da * big_l * da - dc * df)


def integrate(u: mw.PeriodicField) -> float:
    """Trapezoid rule over one period: (L/n) sum u_j."""
    return float(u.grid.spacing * np.sum(u.values))


def functionals_grid(u: mw.PeriodicField) -> tuple[np.ndarray, np.ndarray]:
    """``functionals`` as first written, all three trapezoid sums over the
    grid values, u_x from spectral differentiation: the oracle of the
    Parseval sums.  Returns (E, F, V) and the same sums over the absolute
    values of their integrands, the scale of their rounding."""
    vals, ux, h = u.values, derivative(u).values, u.grid.spacing
    quartic, cubic = 0.25 * vals**4, 0.5 * vals * ux * ux
    efv = h * np.array([-np.sum(quartic + cubic), 0.5 * np.sum(vals**2 + ux**2), np.sum(vals)])
    scale = h * np.array([np.sum(quartic + np.abs(cubic)), 0.5 * np.sum(vals**2 + ux**2),
                          np.sum(np.abs(vals))])
    return efv, scale


def helmholtz_inverse(u: mw.PeriodicField) -> mw.PeriodicField:
    """(1 - d^2/dx^2)^{-1} u via its Fourier symbol 1 / (1 + kappa^2)."""
    kap = u.grid.wavenumbers()
    spec = u.spectrum / (1.0 + kap * kap)
    return mw.PeriodicField(u.grid, np.fft.irfft(spec, u.grid.n))


def inner_l2(u: mw.PeriodicField, v: mw.PeriodicField) -> float:
    """L^2 pairing int u v as a trapezoid sum."""
    u._check_same_grid(v)
    return float(u.grid.spacing * np.dot(u.values, v.values))


def inner_h1(u: mw.PeriodicField, v: mw.PeriodicField) -> float:
    """H^1 pairing int u v + u_x v_x."""
    return inner_l2(u, v) + inner_l2(derivative(u), derivative(v))


def orbit_distance_grid(u: mw.PeriodicField, phi: mw.PeriodicField) -> tuple[float, float]:
    """``_orbit_distance`` as first written, in physical space: the oracle
    the half-spectrum sums must match to rounding.

    C(y) = Re sum_j c_j exp(-i kappa_j y) over the full FFT of u and phi,
    c_j = w_j u_hat_j conj(phi_hat_j) L / n^2, is evaluated at the n grid
    shifts by one FFT, and the best is refined by the same safeguarded
    Newton iteration.  The distance is the trapezoid H^1 norm of
    u - fractional_shift(phi, y), y* or the best grid shift, whichever is
    smaller; not the cancelling ||u||^2 + ||phi||^2 - 2 C at the grid
    shift, whose rounding, about eps ||phi||^2, swamps rho^2 for rho below
    about 1e-7 ||phi||.
    """
    n, big_l = u.grid.n, u.grid.L
    kap = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / big_l
    weight = 1.0 + kap * kap
    weight[n // 2] = 1.0  # derivatives zero the Nyquist mode
    u_hat, phi_hat = np.fft.fft(u.values), np.fft.fft(phi.values)
    coef = weight * u_hat * np.conj(phi_hat) * (big_l / n**2)
    cross = np.fft.fft(coef).real

    def slope_curvature(y):
        terms = coef * np.exp(-1j * kap * y)
        return float(np.dot(kap, terms.imag)), -float(np.dot(kap * kap, terms.real))

    y0 = int(np.argmax(cross)) * big_l / n
    lo, hi = y0 - big_l / n, y0 + big_l / n
    y_star = y0
    for _ in range(100):
        slope, curv = slope_curvature(y_star)
        lo, hi = (y_star, hi) if slope > 0.0 else (lo, y_star)
        if curv < 0.0 and lo <= y_star - slope / curv <= hi:
            y_next = y_star - slope / curv
        else:
            y_next = 0.5 * (lo + hi)
        step, y_star = y_next - y_star, y_next
        if abs(step) < 1e-10 * big_l:
            break

    def objective(y):
        diff = u - fractional_shift(phi, y)
        return inner_h1(diff, diff)

    val, y_star = min((objective(y_star), y_star), (objective(y0), y0))
    return math.sqrt(val), y_star % big_l


def semidistance(u: mw.PeriodicField, p: mw.WaveParams) -> tuple[float, float]:
    """Orbital semi-distance rho(u, phi) = inf_y ||u - phi(. + y)||_H1 and
    its argmin shift: ``_orbit_distance`` to phi sampled on u's grid."""
    return _orbit_distance(u.spectrum, sample_wave(p, u.grid))


def augmented(u: mw.PeriodicField, c: float, big_a: float) -> float:
    """Augmented functional G(u) = E(u) + c F(u) - A V(u)."""
    e, f, v = functionals(u)
    return e + c * f - big_a * v


def lyapunov(u: mw.PeriodicField, p: mw.WaveParams, big_n: float,
             q_coeffs: tuple[float, float]) -> float:
    """Modified Lyapunov functional B(u) = G(u) - G(phi) + N (Q(u) - Q(phi))^2.

    ``q_coeffs = (dA_dk, dc_dk)`` defines the conserved combination
    Q(u) = dA_dk * V(u) - dc_dk * F(u); ``big_n`` is a positive weight
    (only its existence is guaranteed, not a formula).
    """
    if not (big_n > 0.0):
        raise DomainError(f"lyapunov weight must be positive, got {big_n}")
    da_dk, dc_dk = q_coeffs
    phi = sample_wave(p, u.grid)

    def q_of(w: mw.PeriodicField) -> float:
        _, f, v = functionals(w)
        return da_dk * v - dc_dk * f

    return augmented(u, p.c, p.A) - augmented(phi, p.c, p.A) \
        + big_n * (q_of(u) - q_of(phi)) ** 2


def fsal_companion(u0: mw.PeriodicField, h: float,
                   lawson: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """One textbook RK4 step of h from u0, y1, and its order-3 FSAL
    companion y*, both as grid values: ||y1 - y*|| is the step's error
    estimate.  With ``lawson`` the step is Lawson's integrating-factor RK4
    about the linearization of f at the mean ubar of u0, whose symbol
    lambda = i kappa / (1 + kappa^2) (-ubar kappa^2 - 3 ubar^2), 0 at the
    Nyquist mode, E = exp(lambda h / 2) steps exactly; the stages take
    N = f - lambda y:
        y1 = E^2 y + h (E^2 k1 + 2 E k2 + 2 E k3 + k4) / 6,
        y* = E^2 y + h (E^2 k1 / 6 + E k2 / 3 + E k3 / 3 + N(y1) / 6).
    Without it lambda = 0 and E = 1: classical RK4."""
    f = evolve._RhsOperator(u0.grid)
    kap = u0.grid.wavenumbers()
    ubar = float(np.mean(u0.values)) if lawson else 0.0
    lam = 1j * kap / (1.0 + kap * kap) * (-ubar * kap * kap - 3.0 * ubar * ubar)
    lam[-1] = 0.0
    e = np.exp(0.5 * h * lam)

    def nl(y):
        return f(y) - lam * y

    y = np.fft.rfft(u0.values)
    k1 = nl(y)
    k2 = nl(e * (y + 0.5 * h * k1))
    k3 = nl(e * y + 0.5 * h * k2)
    k4 = nl(e * e * y + h * e * k3)
    y1 = e * e * y + (h / 6.0) * (e * e * k1 + 2.0 * e * k2 + 2.0 * e * k3 + k4)
    y_star = e * e * y + h * (e * e * k1 / 6.0 + e * k2 / 3.0 + e * k3 / 3.0 + nl(y1) / 6.0)
    return np.fft.irfft(y1, u0.grid.n), np.fft.irfft(y_star, u0.grid.n)


def dp54_companion(u0: mw.PeriodicField, h: float,
                   lawson: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """One textbook Dormand-Prince 5(4) step of h from u0 (Hairer, Norsett &
    Wanner, Solving ODEs I, table II.5.2), y1 of order 5 and its order-4
    companion y_hat, both as grid values: ||y1 - y_hat|| is the step's
    error estimate.  With ``lawson`` the step is Lawson's about the
    linearization at the mean of u0, lambda as in :func:`fsal_companion`:
    the textbook step of v' = exp(-t lambda) N(exp(t lambda) v), N = f -
    lambda y, from v = y, and y1 = exp(h lambda) v1.  Without it lambda = 0."""
    f = evolve._RhsOperator(u0.grid)
    kap = u0.grid.wavenumbers()
    ubar = float(np.mean(u0.values)) if lawson else 0.0
    lam = 1j * kap / (1.0 + kap * kap) * (-ubar * kap * kap - 3.0 * ubar * ubar)
    lam[-1] = 0.0

    def g(t, v):
        y = np.exp(t * lam) * v
        return np.exp(-t * lam) * (f(y) - lam * y)

    y = np.fft.rfft(u0.values)
    k1 = g(0.0, y)
    k2 = g(h / 5, y + h * (k1 / 5))
    k3 = g(3 * h / 10, y + h * (3 / 40 * k1 + 9 / 40 * k2))
    k4 = g(4 * h / 5, y + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
    k5 = g(8 * h / 9, y + h * (19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3
                               - 212 / 729 * k4))
    k6 = g(h, y + h * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3 + 49 / 176 * k4
                       - 5103 / 18656 * k5))
    v1 = y + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4 - 2187 / 6784 * k5
                  + 11 / 84 * k6)
    k7 = g(h, v1)
    v_hat = y + h * (5179 / 57600 * k1 + 7571 / 16695 * k3 + 393 / 640 * k4
                     - 92097 / 339200 * k5 + 187 / 2100 * k6 + 1 / 40 * k7)
    e = np.exp(h * lam)
    return np.fft.irfft(e * v1, u0.grid.n), np.fft.irfft(e * v_hat, u0.grid.n)


def reflected(values: np.ndarray) -> np.ndarray:
    """u(-x) at the grid nodes of u, exactly: node j takes the value at node -j mod n."""
    return np.roll(values[::-1], 1)


def round_trip(u0: mw.PeriodicField, cfg) -> float:
    """The reversibility witness of a run's time stepping: the RMS distance
    to u0 of R run(R run(u0)), R the reflection x -> -x, each run to
    cfg.t_end.  The flow maps u(x, t) to u(-x, -t), every term of
    u_t = dx (1 - dx^2)^-1 (u u_xx + u_x^2 / 2 - u^3) flipping sign, and
    the Fourier symbols commute with R, so the exact discrete flow returns
    to u0: the distance measures the stepping's global error, with no finer
    reference run (Hairer, Lubich & Wanner, Geometric Numerical
    Integration, ch. V).  It does not see the grid's truncation."""
    there = mw.run(u0, cfg)
    back = mw.run(mw.PeriodicField(u0.grid, reflected(there.values[-1])), cfg)
    assert there.terminated == back.terminated == evolve.TERMINATED_COMPLETED
    return float(np.sqrt(np.mean((reflected(back.values[-1]) - u0.values) ** 2)))


def pad_spectrum(spec: np.ndarray, n: int, m: int) -> np.ndarray:
    """Zero-pad an rfft spectrum from n to m grid points (m > n, both even)."""
    out = np.zeros(m // 2 + 1, dtype=complex)
    out[: n // 2 + 1] = spec
    out[n // 2] *= 0.5  # split the Nyquist cosine between +-n/2
    return out


def reference_run(u0, cfg, reference=None, delta=0.0):
    """``evolve.run`` as first written, the oracle it must match bit for bit:
    every right side checks its output for finiteness and raises, and every
    step takes the coarse inverse transform and checks max |u| on it.  A
    record keeps that transform's values, its functionals and its rho
    taken one at a time from the state's spectrum.  Returns the
    StabilityRunReport, as ``run`` does."""
    grid = u0.grid
    n, m = grid.n, evolve.DEALIAS_PAD * grid.n
    half = n // 2 + 1
    kap = grid.wavenumbers()
    sym_d1 = 1j * kap
    sym_d1[-1] = 0.0
    sym_out = sym_d1 / (1.0 + kap * kap) * (n / m)
    lift = (m / n) * np.stack([pad_spectrum(s, n, m)[:half]
                               for s in (np.ones(half), sym_d1, -(kap * kap))])
    fine_spec = np.zeros((3, m // 2 + 1), dtype=complex)

    def op(spec):
        np.multiply(lift, spec, out=fine_spec[:, :half])
        u_f, ux_f, uxx_f = np.fft.irfft(fine_spec, m)
        w_f = u_f * (uxx_f - u_f * u_f) + 0.5 * ux_f * ux_f
        out = sym_out * np.fft.rfft(w_f)[:half]
        if not np.isfinite(out).all():
            raise BlowUpError("non-finite value in right-side evaluation")
        return out

    def rk4_step(f, values, dt):
        k1 = f(values)
        k2 = f(values + 0.5 * dt * k1)
        k3 = f(values + 0.5 * dt * k2)
        k4 = f(values + dt * k3)
        return values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n_steps, dt = cfg.steps
    e0, f0, v0 = mw.functionals(u0)
    scale = np.array([max(abs(e0), 1e-300), max(abs(f0), 1e-300), max(abs(v0), 1e-300)])
    times, rows, rho_list, drifts = [], [], [], []

    def record(t, values, spec):
        times.append(t)
        rows.append(values)
        e, f, v = _functionals(values, spec, grid).tolist()
        drifts.append(np.array([(e - e0), (f - f0), (v - v0)]) / scale)
        if reference is not None:
            r = _orbit_distance(spec, reference)[0]
            rho_list.append(r)
            if delta and r > evolve.RHO_FACTOR * delta:
                return evolve.TERMINATED_INSTABILITY
        return None

    spec = np.fft.rfft(u0.values)
    terminated = record(0.0, u0.values, spec) or evolve.TERMINATED_COMPLETED
    taken = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            if terminated != evolve.TERMINATED_COMPLETED:
                break
            taken = step
            try:
                spec = rk4_step(op, spec, dt)
            except BlowUpError:
                terminated = evolve.TERMINATED_BLOWUP
                break
            values = np.fft.irfft(spec, n)
            if not (np.max(np.abs(values)) <= evolve.BLOWUP_THRESHOLD):  # NaN fails too
                terminated = evolve.TERMINATED_BLOWUP
                break
            if step % cfg.monitor_every == 0 or step == n_steps:
                terminated = record(step * dt, values, spec) or evolve.TERMINATED_COMPLETED

    drift_arr = np.array(drifts)
    return evolve.StabilityRunReport(
        times=np.array(times), values=np.array(rows),
        rho=np.array(rho_list) if reference is not None else None,
        drift_E=drift_arr[:, 0], drift_F=drift_arr[:, 1], drift_V=drift_arr[:, 2],
        terminated=terminated, steps=taken, rhs_calls=4 * taken, max_error_estimate=math.nan,
    )
