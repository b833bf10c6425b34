import math
import sys

import numpy as np
import pytest
from hypothesis import settings

import mchwave as mw
from mchwave import AssemblyError, BlowUpError, DomainError, NumericalError, evolve, linop
from mchwave.field import _orbit_distance, derivative, functionals, inner_l2, sample_wave

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


@pytest.fixture(scope="session")
def wave05():
    """The workhorse wave at (k, L) = (0.5, 6 pi)."""
    return mw.wave_params(0.5, 6.0 * np.pi)


@pytest.fixture(scope="session")
def op05_256(wave05):
    return mw.operator_for(wave05, 256)


@pytest.fixture(scope="session")
def op05_512(wave05):
    return mw.operator_for(wave05, 512)


@pytest.fixture(scope="session")
def op_constant_128():
    p = mw.constant_wave(2.0 * np.pi)
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


def lowest_eigenvectors(op, restricted: bool = False, modes: int = 8) -> np.ndarray:
    """Grid columns of the ``modes`` lowest eigenvectors of L (of L on Y0 if
    ``restricted``), ascending by eigenvalue: one ``eigh`` of each parity
    block of ``op`` (the even one without cosine mode 0 for Y0), mapped to
    the grid by one inverse real FFT.  The program solves only E with its
    vectors, so these are the test's own."""
    even, odd = op._blocks
    even_vals, even_vecs = np.linalg.eigh(even[1:, 1:] if restricted else even)
    if restricted:
        even_vecs = np.pad(even_vecs, ((1, 0), (0, 0)))
    odd_vals, odd_vecs = np.linalg.eigh(odd)
    lowest = np.argsort(np.concatenate((even_vals[:modes], odd_vals[:modes])),
                        kind="stable")[:modes]
    even_vecs, odd_vecs = even_vecs[:, :modes], odd_vecs[:, :modes]
    coords = np.block([[even_vecs, np.zeros((len(even_vecs), odd_vecs.shape[1]))],
                       [np.zeros((len(odd_vecs), even_vecs.shape[1])), odd_vecs]])
    return linop._to_grid(coords[:, lowest])


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
    """``OperatorMatrix._blocks`` as first written, the even and odd blocks
    from whole-array expressions, with the same AssemblyError above the
    gate: the oracle the in-place assembly must match bit for bit."""
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
    da, _, dc, big_da, df = fd_dk(
        lambda kk: np.array(mw.wave._closed_forms(kk, big_l)), k, h)
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


def inner_h1(u: mw.PeriodicField, v: mw.PeriodicField) -> float:
    """H^1 pairing int u v + u_x v_x."""
    return inner_l2(u, v) + inner_l2(derivative(u), derivative(v))


def semidistance(u: mw.PeriodicField, p: mw.WaveParams) -> tuple[float, float]:
    """Orbital semi-distance rho(u, phi) = inf_y ||u - phi(. + y)||_H1 and
    its argmin shift: ``_orbit_distance`` to phi sampled on u's grid."""
    return _orbit_distance(u, sample_wave(p, u.grid))


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


def reference_run(u0, cfg, reference=None, delta=None, rho_factor=50.0):
    """``evolve.run`` as first written, the oracle it must match bit for bit:
    every right side checks its output for finiteness and raises, and every
    step takes the coarse inverse transform and checks max |u| on it.
    Returns (Trajectory, StabilityRunReport) as ``run`` does."""
    grid = u0.grid
    n, m = grid.n, evolve.DEALIAS_PAD * grid.n
    half = n // 2 + 1
    kap = grid.wavenumbers()
    sym_d1 = 1j * kap
    sym_d1[-1] = 0.0
    sym_out = sym_d1 / (1.0 + kap * kap) * (n / m)
    lift = (m / n) * np.stack([evolve._pad_spectrum(s, n, m)[:half]
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
    phi_ref = mw.sample_wave(reference, grid) if reference is not None else None
    e0, f0, v0 = mw.functionals(u0)
    scale = np.array([max(abs(e0), 1e-300), max(abs(f0), 1e-300), max(abs(v0), 1e-300)])
    times, fields, rho_list, drifts = [], [], [], []

    def record(t, values):
        fld = mw.PeriodicField(grid, values)
        times.append(t)
        fields.append(fld)
        e, f, v = mw.functionals(fld)
        drifts.append(np.array([(e - e0), (f - f0), (v - v0)]) / scale)
        if phi_ref is not None:
            r = _orbit_distance(fld, phi_ref)[0]
            rho_list.append(r)
            if delta and r > rho_factor * delta:
                return evolve.TERMINATED_INSTABILITY
        return None

    spec = np.fft.rfft(u0.values)
    terminated = record(0.0, u0.values) or evolve.TERMINATED_COMPLETED
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            if terminated != evolve.TERMINATED_COMPLETED:
                break
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
                terminated = record(step * dt, values) or evolve.TERMINATED_COMPLETED

    drift_arr = np.array(drifts)
    report = evolve.StabilityRunReport(
        times=np.array(times),
        rho=np.array(rho_list) if phi_ref is not None else None,
        drift_E=drift_arr[:, 0], drift_F=drift_arr[:, 1], drift_V=drift_arr[:, 2],
        terminated=terminated,
    )
    return evolve.Trajectory(times=times, fields=fields), report
