"""Linearized-operator assembly, spectra, and the deflated pairing."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mchwave as mw
from mchwave import AssemblyError, DomainError, cli, evolve, linop

from conftest import (dense_evolution_eigenvalues, dense_matrix, diff_matrix, from_grid,
                      helmholtz_diff_matrix, helmholtz_inverse, householder_y0_basis,
                      lowest_eigenvectors, random_smooth, reference_blocks, reference_defect,
                      to_grid)


def constant_case_eigenvalues(n: int) -> np.ndarray:
    """Exact spectrum of -2 d^2 - 2 on L = 2 pi with n even grid points.

    Fourier modes m = 0, +-1, ..., +-(n/2 - 1) and the Nyquist n/2.
    """
    ms = [0] + [m for mm in range(1, n // 2) for m in (mm, mm)] + [n // 2]
    return np.sort(np.array([2.0 * m * m - 2.0 for m in ms]))


class TestAssembly:
    def test_symmetry_after_gate(self, op05_256):
        # the n x n matrix rebuilt from the program's blocks in the cosine and
        # sine bases is symmetric and is the collocation matrix of the oracle
        even, odd = op05_256._blocks
        cos_b, sin_b = cosine_basis(256), sine_basis(256)
        m = cos_b @ even @ cos_b.T + sin_b @ odd @ sin_b.T
        scale = np.max(np.abs(m))
        assert np.max(np.abs(m - m.T)) <= 1e-10 * scale
        assert np.max(np.abs(m - dense_matrix(op05_256))) <= 1e-10 * scale
        assert np.array_equal(even, even.T) and np.array_equal(odd, odd.T)

    def test_constant_case_matches_fourier_diagonalization(self, op_constant_128):
        rep = mw.spectrum(op_constant_128)
        assert np.max(np.abs(rep.eigenvalues - constant_case_eigenvalues(128))) < 1e-8

    def test_action_on_constants(self, wave05):
        grid = mw.PeriodicGrid(wave05.L, 256)
        phi, _, phi2 = mw.profile(wave05, grid.nodes)
        op = mw.operator_for(wave05, 256)
        q = wave05.c - 3.0 * phi**2 + phi2
        assert np.max(np.abs(dense_matrix(op) @ np.ones(256) - q)) < 1e-10

    def test_annihilates_wave_derivative(self, wave05, op05_256):
        grid = mw.PeriodicGrid(wave05.L, 256)
        phi1 = mw.profile(wave05, grid.nodes)[1]
        assert np.linalg.norm(dense_matrix(op05_256) @ phi1) / np.linalg.norm(phi1) < 1e-6

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("assemble", [mw.assemble_l])
    def test_refuses_non_finite_coefficients(self, assemble, bad):
        # assemble_l takes fields, and a field refuses non-finite values
        grid = mw.PeriodicGrid(2 * math.pi, 32)
        for which in (0, 1):
            arrays = [np.full(32, -1.0), np.zeros(32)]
            arrays[which][5] = bad
            with pytest.raises(DomainError, match="finite"):
                assemble(*(mw.PeriodicField(grid, a) for a in arrays), 0.2)

    def test_refuses_fields_on_different_grids(self):
        phi = mw.PeriodicField(mw.PeriodicGrid(2 * math.pi, 32), np.full(32, -1.0))
        phi2 = mw.PeriodicField(mw.PeriodicGrid(2 * math.pi, 16), np.zeros(16))
        with pytest.raises(DomainError, match="different grids"):
            mw.assemble_l(phi, phi2, 0.2)

    def test_diff_matrix_on_modes(self):
        grid = mw.PeriodicGrid(2 * math.pi, 32)
        d1 = diff_matrix(grid)
        x = grid.nodes
        assert np.max(np.abs(d1 @ np.sin(3 * x) - 3 * np.cos(3 * x))) < 1e-11
        # antisymmetry makes the divergence form structurally symmetric
        assert np.max(np.abs(d1 + d1.T)) < 1e-12


class TestSpectrum:
    def test_constant_counts_with_double_kernel(self, op_constant_128):
        rep = mw.spectrum(op_constant_128)
        assert rep.n_neg == 1
        assert rep.z_dim == 2  # degenerate limit: cos x and sin x both in the kernel
        assert rep.eigenvalues[0] == pytest.approx(-2.0, abs=1e-9)

    def test_wave_counts(self, op05_256, op05_512):
        for op in (op05_256, op05_512):
            rep = mw.spectrum(op)
            assert rep.n_neg == 1
            assert rep.z_dim == 1

    def test_kernel_vector_is_wave_derivative(self, wave05, op05_256):
        rep = mw.spectrum(op05_256)
        kernel_vec = lowest_eigenvectors(op05_256)[:, rep.n_neg]
        grid = mw.PeriodicGrid(wave05.L, 256)
        phi1 = mw.profile(wave05, grid.nodes)[1]
        cosang = abs(np.dot(kernel_vec, phi1 / np.linalg.norm(phi1)))
        assert cosang > 0.999999

    def test_lowest_eigenvalues_converge(self, op05_256, op05_512):
        lo256 = mw.spectrum(op05_256).eigenvalues[:5]
        lo512 = mw.spectrum(op05_512).eigenvalues[:5]
        assert np.max(np.abs(lo256 - lo512)) < 1e-8

    def test_count_partition(self, op05_256):
        rep = mw.spectrum(op05_256)
        above = int(np.sum(rep.eigenvalues > rep.tol))
        assert rep.n_neg + rep.z_dim + above == 256

    def test_counts_stable_across_tolerances(self, op05_256):
        # the second near-zero eigenvalue (the k -> 0 degeneracy remnant)
        # caps the usable window at ~1e-5 * radius here; another threshold
        # is a recount of the report's own eigenvalues
        vals = mw.spectrum(op05_256).eigenvalues
        radius = float(np.max(np.abs(vals)))
        for factor in (1e-8, 1e-7, 1e-6, 1e-5):
            assert recount(vals, factor * radius) == (1, 1)

    def test_near_zero_gap_reported(self, op05_256):
        rep = mw.spectrum(op05_256)
        # gap between the kernel eigenvalue and its nearest neighbour
        assert rep.near_zero_gap == pytest.approx(3.117e-3, rel=1e-2)

    def test_tol_validation(self, op05_256, op_constant_128, monkeypatch):
        # every report carries the one rule's tolerance: 1e3 eps max |.| of
        # the eigenvalues counted, of mu = lambda^2 for J L (reported in
        # lambda units); the pairing deflates with the spectrum's, the
        # least-squares cutoff at the constant wave's kernel, in the solve
        # that the operator's parity makes once (so on fresh copies here)
        op05_256, op_constant_128 = (linop.OperatorMatrix(op.grid, op.coefficients)
                                     for op in (op05_256, op_constant_128))
        eps = np.finfo(float).eps
        full, restr = mw.spectrum(op05_256), mw.restricted_spectrum(op05_256)
        for rep in (full, restr):
            assert rep.tol == 1e3 * eps * float(np.max(np.abs(rep.eigenvalues)))
        evo = mw.evolution_spectrum(op05_256)
        radius_mu = float(np.max(np.abs(evo.eigenvalues))) ** 2
        assert evo.tol == pytest.approx(math.sqrt(1e3 * eps * radius_mu), rel=1e-12)
        lstsq, cutoffs = np.linalg.lstsq, []
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, rcond: cutoffs.append(rcond) or lstsq(*a, rcond=rcond))
        mw.inv_one_pairing(op05_256)
        assert cutoffs == []
        mw.inv_one_pairing(op_constant_128)
        vals = op_constant_128.parity.even_vals
        assert cutoffs == [mw.spectrum(op_constant_128).tol / float(np.max(np.abs(vals)))]

    def test_constant_derivative_mean_zero(self, wave05):
        grid = mw.PeriodicGrid(wave05.L, 256)
        phi1 = mw.profile(wave05, grid.nodes)[1]
        assert abs(grid.spacing * np.sum(phi1)) < 1e-12


class TestRestrictedSpectrum:
    def test_constant_case_drops_lowest(self, op_constant_128):
        rep = mw.restricted_spectrum(op_constant_128)
        expected = constant_case_eigenvalues(128)[1:]  # remove the -2 of mode 0
        assert np.max(np.abs(rep.eigenvalues - expected)) < 1e-8
        assert rep.n_neg == 0
        assert rep.z_dim == 2

    def test_wave_counts(self, op05_256):
        rep = mw.restricted_spectrum(op05_256)
        assert rep.n_neg == 1
        assert rep.z_dim == 1

    # the ids keep the names the two operators had before J L replaced dx L
    @pytest.mark.parametrize("evolution", [False, True], ids=["selfadjoint_L", "evolution_dxL"])
    @pytest.mark.parametrize("n", [128, 256])
    def test_matches_dense_householder_compression(self, wave05, evolution, n):
        # oracle: the dense basis Q[:, 1:] of the reflection sending
        # 1/sqrt(n) to e_1, and the explicit compression Q^T M Q
        op = mw.operator_for(wave05, n)
        basis = householder_y0_basis(n)
        assert np.max(np.abs(basis.T @ basis - np.eye(n - 1))) < 1e-12
        assert np.max(np.abs(basis.T @ np.ones(n))) < 1e-12
        if evolution:
            assert_matches_dense_evolution(op)
            return
        mat = dense_matrix(op)
        dense = basis.T @ mat @ basis
        rep = mw.restricted_spectrum(op)
        radius = float(np.max(np.abs(rep.eigenvalues)))
        expected = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        assert np.max(np.abs(rep.eigenvalues - expected)) < 1e-10 * radius
        vecs = lowest_eigenvectors(op, restricted=True)
        assert np.max(np.abs(vecs.T @ np.ones(n))) < 1e-12
        assert np.max(np.abs(vecs.T @ vecs - np.eye(vecs.shape[1]))) < 1e-12
        rayleigh = np.einsum("ij,ij->j", vecs, mat @ vecs)
        assert np.max(np.abs(rayleigh - rep.eigenvalues[:vecs.shape[1]])) < 1e-10 * radius


class TestSecularMinor:
    """The Y0 minor E[1:, 1:] on the waves where the secular route it replaced
    was hardest (the ids keep that route's names), against the grid-parity
    oracle: eigenvalues within 1e-13 radius, identical counts and pairing."""

    @pytest.mark.parametrize("n", [256, 1024])
    def test_near_the_zero_mean_period(self, n):
        # k = 0.999 at L*: the even eigenvectors' mean-mode entries decay slowest
        l_star = mw.indices.zero_mean_period(0.999)
        assert_matches_grid_parity(mw.operator_for(mw.wave_at(0.999, l_star)[0], n))

    @pytest.mark.parametrize("n", [256, 512])
    def test_large_k(self, n):
        assert_matches_grid_parity(mw.operator_for(mw.wave_at(0.9, 4 * math.pi)[0], n))

    @pytest.mark.parametrize("n", [16, 128, 1024])
    def test_constant_wave_deflates_all_but_the_mean(self, n):
        # E is diagonal up to rounding, with the kernel cos x: the minor is E
        # without its mean mode, and the pairing takes the least-squares route
        op = mw.operator_for(mw.wave_at(0.0, 2 * math.pi)[0], n)
        assert_matches_grid_parity(op)
        assert mw.spectrum(op).z_dim == 2
        assert mw.inv_one_pairing(op).value == pytest.approx(-math.pi, abs=1e-8)


@settings(max_examples=20)
@given(k=st.floats(0.1, 0.75), big_l=st.floats(3.2 * math.pi, 10 * math.pi),
       n=st.sampled_from([16, 32, 64, 128, 256]))
def test_secular_minor_matches_eigvalsh(k, big_l, n):
    # on the criterion-6 window (the id keeps the secular route's name)
    assume(mw.validity(k, big_l).all_ok)
    assert_matches_grid_parity(mw.operator_for(mw.wave_at(k, big_l)[0], n))


def assert_matches_dense_evolution(op):
    """:func:`mw.evolution_spectrum` against the dense J oracle.  Outside the
    disc |lambda| <= 1e-6 radius both have n - 1 - z_dim eigenvalues, at
    Hausdorff distance < 1e-10 radius; inside it the oracle has exactly
    z_dim.  A bound on the whole spectrum would test the oracle: its
    ``eigvals`` splits the defective zero into 0 and a +- pair near 1e-9."""
    rep = mw.evolution_spectrum(op)
    expected = dense_evolution_eigenvalues(op)
    radius = float(np.max(np.abs(rep.eigenvalues)))
    disc = 1e-6 * radius
    got, want = (v[np.abs(v) > disc] for v in (rep.eigenvalues, expected))
    assert len(got) == len(want) == op.grid.n - 1 - rep.z_dim
    dist = np.abs(got[:, None] - want[None, :])
    assert max(np.max(np.min(dist, axis=0)), np.max(np.min(dist, axis=1))) < 1e-10 * radius
    assert int(np.sum(np.abs(expected) <= disc)) == rep.z_dim


def dense_pairing(op):
    """The deflated solve of <L^{-1} 1, 1> on one full eigendecomposition."""
    vals, vecs = np.linalg.eigh(dense_matrix(op))
    kernel = np.abs(vals) <= linop._zero_tol(vals)
    ones = np.ones(op.grid.n)
    coeff = vecs.T @ ones
    inv = np.zeros_like(vals)
    inv[~kernel] = 1.0 / vals[~kernel]
    w = vecs @ (inv * coeff)
    return (op.grid.L / op.grid.n) * float(np.dot(w, ones)), int(np.sum(kernel))


def recount(vals, tol):
    """(n_neg, z_dim) of real eigenvalues at the threshold tol."""
    return int(np.sum(vals < -tol)), int(np.sum(np.abs(vals) <= tol))


def dense_counts(vals):
    return recount(vals, linop._zero_tol(vals))


class TestParityBlocks:
    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize("k, big_l", [(0.5, 6 * math.pi), (0.3, 4 * math.pi),
                                          (0.7, 9 * math.pi), (0.0, 2 * math.pi)])
    def test_matches_dense_decomposition(self, k, big_l, n):
        # oracle: one full dense eigensolve and the deflated solve on it
        op = mw.operator_for(mw.wave_at(k, big_l)[0], n)
        dense = np.linalg.eigvalsh(dense_matrix(op))
        radius = float(np.max(np.abs(dense)))
        rep = mw.spectrum(op)
        assert np.max(np.abs(rep.eigenvalues - dense)) <= 1e-13 * radius
        assert (rep.n_neg, rep.z_dim) == dense_counts(dense)
        expected, kernel_dim = dense_pairing(op)
        pair = mw.inv_one_pairing(op)
        assert rep.z_dim == kernel_dim
        assert np.sign(pair.value) == np.sign(expected)
        assert abs(pair.value - expected) <= 1e-8 * abs(expected)

    def test_kept_vectors_are_eigenvectors(self, op05_256):
        # the oracle's block vectors on the grid are orthonormal eigenvectors
        # of the dense matrix for the program's values-only eigenvalues
        rep = mw.spectrum(op05_256)
        vecs = lowest_eigenvectors(op05_256)
        assert vecs.shape == (256, 8)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(vecs.shape[1]))) < 1e-12
        radius = float(np.max(np.abs(rep.eigenvalues)))
        resid = dense_matrix(op05_256) @ vecs - vecs * rep.eigenvalues[:vecs.shape[1]]
        assert np.max(np.abs(resid)) < 1e-10 * radius

    def test_three_eigvalsh_and_one_solve_per_operator(self, eig_calls, monkeypatch,
                                                      tmp_path):
        # E, E[1:, 1:] and O are solved values-only, the pairing is one LU
        # solve of E, no eigenvector is formed, and J L adds its one eigvals
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *a, **kw: eig_calls.append("solve") or solve(*a, **kw))
        values_only = ["eigvalsh"] * 3 + ["solve"]
        mw.morse_check(0.5, 6 * math.pi)
        assert sorted(eig_calls) == values_only
        job = ["spectrum", "--k", "0.5", "--L", "6pi", "--n", "128", "--out-dir", str(tmp_path)]
        for extra, added in (([], []), (["--evolution"], ["eigvals"])):
            eig_calls.clear()
            assert cli.dispatch(job + extra) == cli.EXIT_OK
            assert sorted(eig_calls) == sorted(values_only + added)

    def test_one_spectrum_report_per_operator(self, tmp_path, monkeypatch):
        # the reports of L and of L on Y0 read the operator's one set of
        # block spectra, and the pairing reads L's tolerance off the blocks:
        # a morse_check or a spectrum job makes each report once
        op = mw.operator_for(mw.wave_at(0.5, 6 * math.pi)[0], 64)
        full, restr = mw.spectrum(op), mw.restricted_spectrum(op)
        blocks = op.parity
        assert np.array_equal(full.eigenvalues,
                              np.sort(np.concatenate((blocks.even_vals, blocks.odd_vals))))
        assert np.array_equal(restr.eigenvalues,
                              np.sort(np.concatenate((blocks.minor_vals, blocks.odd_vals))))
        assert op.parity is blocks
        # J L assembles its own blocks, the same before and after parity
        before = mw.evolution_spectrum(linop.OperatorMatrix(op.grid, op.coefficients))
        after = mw.evolution_spectrum(op)
        assert np.array_equal(before.eigenvalues, after.eigenvalues)
        assert op.parity is blocks
        make, reports = linop._make_report, []
        monkeypatch.setattr(linop, "_make_report",
                            lambda *a: reports.append(a) or make(*a))
        assert mw.morse_check(0.5, 6 * math.pi).n_L == 1
        assert len(reports) == 2
        reports.clear()
        assert cli.dispatch(["spectrum", "--k", "0.5", "--L", "6pi", "--n", "128",
                             "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        assert len(reports) == 2

    def test_reflection_defect_is_rounding(self, op05_256, op_constant_128):
        for op in (op05_256, op_constant_128):
            assert op.reflection_defect <= 1e-14 * np.max(np.abs(dense_matrix(op)))

    def test_reflection_gate(self, monkeypatch, eig_calls):
        # the non-even coefficients of the growth-rate check (sin 2x in phi'')
        grid = mw.PeriodicGrid(2 * math.pi, 64)
        x = grid.nodes
        phi = mw.PeriodicField(grid, -1.0 + 0.3 * np.cos(x))
        ph2 = mw.PeriodicField(grid, -0.019 * np.cos(x) - 1.515 * np.sin(2 * x)
                               - 2.929 * np.cos(3 * x))
        lop = mw.assemble_l(phi, ph2, 0.2)
        passes = spy_passes(monkeypatch)
        defect = lop.reflection_defect
        assert linop.ASYMMETRY_GATE < defect
        # on one operator whose defect was read first, and on a fresh one
        # each, whose defect a raising solve leaves the same
        for solve in (mw.spectrum, mw.restricted_spectrum, mw.inv_one_pairing,
                      mw.evolution_spectrum):
            fresh = linop.OperatorMatrix(lop.grid, lop.coefficients)
            for op in (lop, fresh):
                with pytest.raises(AssemblyError):
                    solve(op)
            assert fresh.reflection_defect == defect
        # the gate is checked before any block is assembled or solved: the
        # coupling's pass, once per operator, is the only pass, and no
        # eigensolver runs
        assert passes == [np.imag] * 5 and eig_calls == []


@settings(max_examples=8)
@given(k=st.floats(0.05, 0.9), big_l=st.floats(3.2 * math.pi, 12 * math.pi))
def test_parity_counts_match_dense(k, big_l):
    assume(mw.validity(k, big_l).all_ok)
    n = 128
    op = mw.operator_for(mw.wave_at(k, big_l)[0], n)
    full = mw.spectrum(op)
    a = dense_matrix(op)
    assert (full.n_neg, full.z_dim) == dense_counts(np.linalg.eigvalsh(a))
    # the restricted route against the dense Householder basis of Y0
    basis = householder_y0_basis(n)
    restr = mw.restricted_spectrum(op)
    assert (restr.n_neg, restr.z_dim) == dense_counts(
        np.linalg.eigvalsh(basis.T @ a @ basis))


def grid_even_weights(n):
    """The constant 1 in grid-parity even coordinates: (1, sqrt 2, ..., sqrt 2, 1)."""
    w = np.full(n // 2 + 1, math.sqrt(2.0))
    w[0] = w[-1] = 1.0
    return w


def grid_mirror(x):
    """Rows (-j) mod n, j = 0..n/2, of an n-row array."""
    return np.concatenate((x[:1], x[: x.shape[0] // 2 - 1 : -1]))


def grid_parity_blocks(a):
    """The blocks of the dense matrix in the grid bases e_0, (e_j + e_{n-j})/sqrt 2,
    e_{n/2} (even) and (e_j - e_{n-j})/sqrt 2 (odd), folded from four entries each."""
    half = a.shape[0] // 2
    mirrored = grid_mirror(a)
    plus, minus = a[: half + 1] + mirrored, (a[: half + 1] - mirrored)[1:half]
    w = grid_even_weights(a.shape[0])
    even = (plus.T[: half + 1] + grid_mirror(plus.T)) * np.outer(0.25 * w, w)
    odd = 0.5 * (minus.T[1:half] - grid_mirror(minus.T)[1:half])
    return even, odd


def grid_parity_oracle(op):
    """Even, odd and restricted eigenvalues from the dense matrix folded in the
    grid-parity bases; Y0 by the Householder compression of the even block
    along the normalized constant."""
    even, odd = grid_parity_blocks(dense_matrix(op))
    n = op.grid.n
    even_vals = np.linalg.eigvalsh(even)
    odd_vals = np.linalg.eigvalsh(odd)
    v = -grid_even_weights(n) / math.sqrt(n)
    v[0] += 1.0
    basis = (np.eye(n // 2 + 1) - (2.0 / np.dot(v, v)) * np.outer(v, v))[:, 1:]
    restr_vals = np.linalg.eigvalsh(basis.T @ even @ basis)
    return even_vals, odd_vals, np.sort(np.concatenate((restr_vals, odd_vals)))


def block_pairing(op):
    """<L^{-1} 1, 1> by a least-squares solve of the program's even block
    against the cosine-0 coordinate sqrt(n) of 1.  The block is checked
    against the dense oracle on its own; a pairing taken from the dense
    matrix instead carries its rounding times the block's condition number
    (1e-9 to 3e-8 relative at (0.0625, 11), n = 128, depending only on how
    D1 is rounded).  At the constant wave the block is singular (cos x), and
    its diagonal entry can round to exactly 0; the minimum-norm solution
    deflates that kernel, which is orthogonal to the right side."""
    n = op.grid.n
    rhs = np.eye(1, n // 2 + 1)[0] * math.sqrt(n)
    return (op.grid.L / n) * float(np.dot(rhs, np.linalg.lstsq(op._blocks[0], rhs)[0]))


def cosine_basis(n):
    """Orthonormal cosine modes sqrt(2/n) s_k cos(2 pi j k / n), k = 0..n/2, as columns."""
    s = np.ones(n // 2 + 1)
    s[0] = s[-1] = math.sqrt(0.5)
    return math.sqrt(2.0 / n) * s * np.cos(2 * math.pi * np.outer(np.arange(n),
                                                                 np.arange(n // 2 + 1)) / n)


def sine_basis(n):
    """Orthonormal sine modes sqrt(2/n) sin(2 pi j k / n), k = 1..n/2 - 1, as columns."""
    return math.sqrt(2.0 / n) * np.sin(2 * math.pi * np.outer(np.arange(n),
                                                             np.arange(1, n // 2)) / n)


def assert_matches_grid_parity(op):
    even, odd, restricted = grid_parity_oracle(op)
    pairing = block_pairing(op)
    blocks = op.parity
    full, restr = mw.spectrum(op), mw.restricted_spectrum(op)
    radius = float(np.max(np.abs(full.eigenvalues)))
    assert np.max(np.abs(blocks.even_vals - even)) <= 1e-13 * radius
    assert np.max(np.abs(blocks.odd_vals - odd)) <= 1e-13 * radius
    assert np.max(np.abs(restr.eigenvalues - restricted)) <= 1e-13 * radius
    assert (full.n_neg, full.z_dim) == dense_counts(np.sort(np.concatenate((even, odd))))
    assert (restr.n_neg, restr.z_dim) == dense_counts(restricted)
    pair = mw.inv_one_pairing(op)
    assert np.sign(pair.value) == np.sign(pairing)
    assert abs(pair.value - pairing) <= 1e-8 * abs(pairing)


class TestHillBlocks:
    @pytest.mark.parametrize("n", [18, 130, 256, 512, 1024])
    @pytest.mark.parametrize("k, big_l", [(0.5, 6 * math.pi), (0.3, 4 * math.pi),
                                          (0.7, 9 * math.pi), (0.0, 2 * math.pi)])
    def test_matches_grid_parity_blocks(self, k, big_l, n):
        # oracle: the dense collocation matrix folded into grid-parity blocks
        op = mw.operator_for(mw.wave_at(k, big_l)[0], n)
        assert_matches_grid_parity(op)

    def test_blocks_are_the_cosine_and_sine_compressions(self, op05_256):
        # E = C^T A C and O = S^T A S for the dense matrix A and the explicit
        # orthonormal cosine and sine bases; the coupling S^T A C is rounding
        cos_b, sin_b = cosine_basis(256), sine_basis(256)
        a = dense_matrix(op05_256)
        scale = np.max(np.abs(a))
        even, odd = op05_256._blocks
        assert np.max(np.abs(cos_b.T @ a @ cos_b - even)) <= 1e-13 * scale
        assert np.max(np.abs(sin_b.T @ a @ sin_b - odd)) <= 1e-13 * scale
        assert np.max(np.abs(sin_b.T @ a @ cos_b)) <= 1e-13 * scale
        assert np.array_equal(even, even.T) and np.array_equal(odd, odd.T)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reflection_defect_is_the_coupling(self, seed):
        # random non-even coefficients: the defect is the largest entry of
        # S^T A C for the explicit sine and cosine bases
        n = 64
        grid = mw.PeriodicGrid(2 * math.pi, n)
        phi = mw.PeriodicField(
            grid, -1.0 + 0.1 * random_smooth(grid, np.random.default_rng(seed)).values)
        phi2 = random_smooth(grid, np.random.default_rng(seed + 10))
        lop = mw.assemble_l(phi, phi2, 0.2)
        coupling = float(np.max(np.abs(sine_basis(n).T @ dense_matrix(lop) @ cosine_basis(n))))
        assert lop.reflection_defect == pytest.approx(coupling, rel=1e-12)

    @pytest.mark.parametrize("k, big_l", [(0.5, 6 * math.pi), (0.3, 4 * math.pi),
                                          (0.7, 9 * math.pi)])
    def test_residual_matches_dense(self, k, big_l):
        # oracle: w = L^{-1} 1 mapped to the grid by the explicit cosine basis and
        # the dense residual max |A w - 1|; both residuals are rounding, so they
        # agree to 1e-12 of the scale max |A| max |w| of the terms they cancel
        n = 256
        op = mw.operator_for(mw.wave_at(k, big_l)[0], n)
        pair = mw.inv_one_pairing(op)
        vals, vecs = np.linalg.eigh(op._blocks[0])
        head = vecs[0]
        w = math.sqrt(n) * cosine_basis(n) @ (vecs @ (head / vals))
        assert pair.value == pytest.approx(big_l * float(np.dot(head, head / vals)), rel=1e-14)
        a = dense_matrix(op)
        scale = float(np.max(np.abs(a)) * np.max(np.abs(w)))
        assert abs(pair.residual - float(np.max(np.abs(a @ w - 1.0)))) <= 1e-12 * scale
        # the FFT application is the dense matrix on any vector, sawtooth included
        for u in (w, np.random.default_rng(9).standard_normal(n)):
            scale = float(np.max(np.abs(a)) * np.max(np.abs(u)))
            lu = np.fft.irfft(linop._apply_l(op, np.fft.rfft(u)), n)
            assert np.max(np.abs(lu - a @ u)) <= 1e-12 * scale

    def test_nyquist_mode_and_aliased_index(self):
        # constant coefficients p = q = -2 (L = -2 d^2 - 2): both blocks are
        # diagonal, and mode n/2, which the first derivative annihilates, gets
        # the completion -kappa_N^2 p (the k + m = n/2 + n/2 entry folds to 0)
        grid = mw.PeriodicGrid(2 * math.pi, 16)
        lop = mw.assemble_l(mw.PeriodicField(grid, np.full(16, -1.0)),
                            mw.PeriodicField(grid, np.zeros(16)), 1.0)
        even, odd = lop._blocks
        kap = grid.wavenumbers()
        assert np.max(np.abs(even - np.diag(2.0 * kap**2 - 2.0))) <= 1e-13
        assert np.max(np.abs(odd - np.diag(2.0 * kap[1:-1] ** 2 - 2.0))) <= 1e-13


@settings(max_examples=8)
@given(k=st.floats(0.05, 0.9), big_l=st.floats(3.2 * math.pi, 12 * math.pi))
@example(k=0.0625, big_l=11.0)  # near the constant wave: smallest even eigenvalue 7.3e-6
def test_hill_blocks_match_grid_parity(k, big_l):
    assume(mw.validity(k, big_l).all_ok)
    assert_matches_grid_parity(mw.operator_for(mw.wave_at(k, big_l)[0], 128))


@settings(max_examples=8)
@given(k=st.floats(0.1, 0.75), big_l=st.floats(3.2 * math.pi, 10 * math.pi),
       n=st.sampled_from([64, 128, 256]))
def test_values_only_solves_match_grid_parity(k, big_l, n):
    # on the criterion-6 window: the odd block and Y0, solved values-only,
    # against the dense grid-parity oracle at 1e-13 radius, and their counts
    assume(mw.validity(k, big_l).all_ok)
    assert_matches_grid_parity(mw.operator_for(mw.wave_at(k, big_l)[0], n))


@settings(max_examples=12)
@given(k=st.floats(0.1, 0.75), big_l=st.floats(3.2 * math.pi, 10 * math.pi),
       n=st.sampled_from([64, 128, 256]))
def test_counts_are_a_recount_of_the_report(k, big_l, n):
    # on the criterion-6 window: n_neg and z_dim are the recount of the
    # report's own eigenvalues at its own tol, the supported re-threshold
    assume(mw.validity(k, big_l).all_ok)
    op = mw.operator_for(mw.wave_at(k, big_l)[0], n)
    for rep in (mw.spectrum(op), mw.restricted_spectrum(op)):
        assert (rep.n_neg, rep.z_dim) == recount(rep.eigenvalues, rep.tol)


ORACLE_SIZES = (16, 64, 256, 1024)
# (n, rows a block): the default budget, then blocks of 1, 2 and 7 rows, so
# that block edges fall on row 0, on O's first and last rows and on the
# Nyquist row alone (n = 1024 alone spans blocks at the default)
BLOCK_CASES = [(n, None) for n in ORACLE_SIZES] + [(n, rows) for n in ORACLE_SIZES
                                                   for rows in (1, 2, 7)]
BLOCK_IDS = [str(n) if rows is None else f"{n}-rows{rows}" for n, rows in BLOCK_CASES]


def spy_passes(monkeypatch) -> list:
    """Wrap ``OperatorMatrix._hill_pass``; returns the list of the parts
    (np.real or np.imag) that its calls read."""
    parts, hill_pass = [], linop.OperatorMatrix._hill_pass

    def spy(self, sigma, part, *args, **kwargs):
        parts.append(part)
        return hill_pass(self, sigma, part, *args, **kwargs)

    monkeypatch.setattr(linop.OperatorMatrix, "_hill_pass", spy)
    return parts


def set_block_rows(monkeypatch, n, rows):
    """Blocks of ``rows`` rows in the assembly pass at n nodes (None: the default)."""
    if rows is not None:
        monkeypatch.setattr(linop, "BLOCK_ENTRIES", rows * (n // 2 + 1))


def assert_blocks_match_reference(op):
    """The blocks and the defect equal conftest's whole-array expressions
    bit for bit, read in either order: the defect first, and the blocks
    first, which form the defect as their gate before either block."""
    assert op.reflection_defect == reference_defect(op)
    even, odd = op._blocks
    ref_even, ref_odd = reference_blocks(op)
    assert np.array_equal(even, ref_even) and np.array_equal(odd, ref_odd)
    fresh = linop.OperatorMatrix(op.grid, op.coefficients)
    even, odd = fresh._blocks
    assert np.array_equal(even, ref_even) and np.array_equal(odd, ref_odd)
    assert fresh.reflection_defect == reference_defect(op)


class TestInPlaceAssembly:
    @pytest.mark.parametrize("n, rows", BLOCK_CASES, ids=BLOCK_IDS)
    @pytest.mark.parametrize("k, big_l", [(0.0, 2 * math.pi), (0.5, 6 * math.pi),
                                          (0.9, 4 * math.pi), (0.999, None)])
    def test_named_waves(self, monkeypatch, k, big_l, n, rows):
        set_block_rows(monkeypatch, n, rows)
        big_l = mw.zero_mean_period(k) if big_l is None else big_l
        assert_blocks_match_reference(mw.operator_for(mw.wave_at(k, big_l)[0], n))

    @pytest.mark.parametrize("n, rows", BLOCK_CASES, ids=BLOCK_IDS)
    @pytest.mark.parametrize("amplitude", [1e-14, 1.0])
    def test_non_even_coefficients(self, monkeypatch, amplitude, n, rows):
        # an odd part of 1e-14 stays below the gate and is assembled; one of
        # order 1 is refused with the same message and defect
        set_block_rows(monkeypatch, n, rows)
        grid = mw.PeriodicGrid(6 * math.pi, n)
        even = mw.operator_for(mw.wave_at(0.5, 6 * math.pi)[0], n)
        odd_part = amplitude * np.stack([random_smooth(grid, np.random.default_rng(s)).values
                                         for s in (1, 2)])
        op = linop.OperatorMatrix(grid, even.coefficients + odd_part)
        if amplitude < 1e-9:
            assert_blocks_match_reference(op)
            return
        assert op.reflection_defect == reference_defect(op) > linop.ASYMMETRY_GATE
        with pytest.raises(AssemblyError) as ours:
            op._blocks
        with pytest.raises(AssemblyError) as reference:
            reference_blocks(op)
        assert str(ours.value) == str(reference.value)


class Captured(Exception):
    """Raised by an eigensolver stand-in once it holds its matrix."""


@pytest.mark.parametrize("n, rows", BLOCK_CASES, ids=BLOCK_IDS)
@pytest.mark.parametrize("k, big_l", [(0.5, 6 * math.pi), (0.0, 2 * math.pi)])
def test_evolution_product_matches_reference(monkeypatch, k, big_l, n, rows):
    # the M = -K E' K O that evolution_spectrum hands to eigvals, against
    # conftest's whole-array blocks, bit for bit
    set_block_rows(monkeypatch, n, rows)
    op = mw.operator_for(mw.wave_at(k, big_l)[0], n)
    held = []

    def capture(a):
        held.append(a.copy())
        raise Captured

    monkeypatch.setattr(np.linalg, "eigvals", capture)
    with pytest.raises(Captured):
        mw.evolution_spectrum(op)
    half = n // 2
    kap = op.grid.wavenumbers()[1:half]
    scale = kap / (1.0 + kap * kap)
    ref_even, ref_odd = reference_blocks(op)
    assert np.array_equal(held[0], -(np.outer(scale, scale) * ref_even[1:half, 1:half]) @ ref_odd)


@settings(max_examples=20)
@given(k=st.floats(0.1, 0.75), big_l=st.floats(3.2 * math.pi, 10 * math.pi))
def test_in_place_assembly_on_the_criterion_6_window(k, big_l):
    assume(mw.validity(k, big_l).all_ok)
    p = mw.wave_at(k, big_l)[0]
    for n in ORACLE_SIZES:
        assert_blocks_match_reference(mw.operator_for(p, n))


def owned_bytes(arr) -> int:
    """The bytes of the buffer that ``arr`` views: the root of its base chain."""
    while getattr(arr, "base", None) is not None:
        arr = arr.base
    return arr.nbytes


def traced_peak(solve, op) -> int:
    """The tracemalloc peak of ``solve(op)``, in bytes above the start."""
    tracemalloc.start()
    try:
        solve(op)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneBlockAtATime:
    # n = 1024 at (0.5, 6 pi) and at the constant wave, whose pairing takes
    # the least-squares branch.  numpy allocates LAPACK's working copies
    # outside tracemalloc, so the traced peak is the package's arrays alone,
    # whatever the BLAS thread count; a block is (n/2 + 1)^2 doubles
    N = 1024
    BLOCK = (N // 2 + 1) ** 2 * 8
    WAVES = [(0.5, 6 * math.pi), (0.0, 2 * math.pi)]

    @pytest.mark.parametrize("k, big_l", WAVES)
    @pytest.mark.parametrize("solve", [mw.spectrum, mw.restricted_spectrum,
                                       mw.inv_one_pairing,
                                       pytest.param(lambda op: op.reflection_defect,
                                                    id="reflection_defect")])
    def test_solves_hold_one_block(self, solve, k, big_l):
        # parity assembles, solves and releases O, then E: one block and the
        # pass's row buffers at a time (measured 1.34 to 1.40 blocks; both
        # blocks alive, with a row buffer, read 2.36).  The defect alone is
        # the coupling, a block of n/2 - 1 rows, with its abs taken in place
        # (1.34; np.abs into a new array read 2.03)
        op = mw.operator_for(mw.wave_at(k, big_l)[0], self.N)
        assert traced_peak(solve, op) <= 1.6 * self.BLOCK
        blocks = op.parity
        tol = max(linop._zero_tol(blocks.even_vals), linop._zero_tol(blocks.odd_vals))
        assert bool(np.any(np.abs(blocks.even_vals) <= tol)) == (k == 0.0)

    def test_one_coupling_pass_per_operator(self, monkeypatch):
        # the defect is formed once and kept: parity's O and E and J L's
        # -K E' K and O are the only other passes
        passes = spy_passes(monkeypatch)
        op = mw.operator_for(mw.wave_at(0.5, 6 * math.pi)[0], 64)
        for read in (mw.spectrum, mw.restricted_spectrum, mw.inv_one_pairing,
                     mw.evolution_spectrum, lambda op: op.reflection_defect):
            read(op)
        assert passes == [np.imag] + [np.real] * 4

    @pytest.mark.parametrize("k, big_l", WAVES)
    def test_evolution_spectrum_holds_three_blocks(self, k, big_l):
        # -K E' K O from -K E' K, O and their product alone: the assembly
        # pass forms -K E' K with no copy of E' (measured 3.01 blocks; the
        # whole-array expression read 4.01)
        op = mw.operator_for(mw.wave_at(k, big_l)[0], self.N)
        assert traced_peak(mw.evolution_spectrum, op) <= 3.2 * self.BLOCK

    @pytest.mark.parametrize("k, big_l", WAVES)
    def test_no_block_outlives_its_solve(self, k, big_l):
        # after parity (and the reads that follow it) the operator and its
        # parity hold no buffer of (n/2 - 1)^2 doubles or more: the coefficient
        # windows are views of one (2, 3n/2 + 1) array
        op = mw.operator_for(mw.wave_at(k, big_l)[0], self.N)
        mw.inv_one_pairing(op)
        mw.evolution_spectrum(op)
        held = [*vars(op).values(), *vars(op.parity).values()]
        arrays = [a for v in held for a in (v if isinstance(v, tuple) else (v,))
                  if isinstance(a, np.ndarray)]
        assert len(arrays) == 7  # p and q, two windows, three spectra and w
        assert max(owned_bytes(a) for a in arrays) < (self.N // 2 - 1) ** 2 * 8


class TestEvolutionOperator:
    def test_product_structure(self):
        # oracle: J L = Q^T (J A) Q for the dense J and grid matrix A and the
        # explicit cosine and sine bases Q; it is [[0, K O], [-K E, 0]] in the
        # program's blocks, K = kappa / (1 + kappa^2), cosine rows 0 and n/2 zero
        for op in (mw.operator_for(mw.wave_at(0.5, 6 * math.pi)[0], 256),
                   mw.operator_for(mw.wave_at(0.0, 2 * math.pi)[0], 128)):
            n, half = op.grid.n, op.grid.n // 2
            q = np.hstack((cosine_basis(n), sine_basis(n)))
            a = helmholtz_diff_matrix(op.grid) @ dense_matrix(op)
            kap = op.grid.wavenumbers()[1:half, None]
            even, odd = op._blocks
            jl = np.zeros((n, n))
            jl[1:half, half + 1:] = kap / (1.0 + kap**2) * odd
            jl[half + 1:, : half + 1] = -kap / (1.0 + kap**2) * even[1:half]
            assert np.max(np.abs(jl - q.T @ a @ q)) <= 1e-13 * np.max(np.abs(a))

    def test_action_on_constant_vector(self, wave05):
        # J L 1 = J q, from the right side that linearized_run integrates
        grid = mw.PeriodicGrid(wave05.L, 256)
        phi, _, phi2 = mw.profile(wave05, grid.nodes)
        op = mw.assemble_l(mw.PeriodicField(grid, phi), mw.PeriodicField(grid, phi2), wave05.c)
        q = mw.PeriodicField(grid, wave05.c - 3.0 * phi**2 + phi2)
        expected = mw.derivative(helmholtz_inverse(q)).values
        got = np.fft.irfft(evolve._linear_rhs(op)(np.fft.rfft(np.ones(256))), 256)
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_constant_case_purely_imaginary(self):
        rep = mw.evolution_spectrum(mw.operator_for(mw.wave_at(0.0, 2 * math.pi)[0], 128))
        assert np.max(np.abs(rep.eigenvalues.real)) < 1e-8
        # on Y0: i m (2 m^2 - 2) / (1 + m^2) for m = +-1 .. +-63, and the
        # structural 0 of the Nyquist cosine
        expected = np.sort(np.concatenate(
            [[0.0]] + [[s * m * (2.0 * m * m - 2.0) / (1.0 + m * m) for s in (1, -1)]
                       for m in range(1, 64)]))
        assert np.max(np.abs(np.sort(rep.eigenvalues.imag) - expected)) < 1e-7
        assert (rep.n_neg, rep.z_dim) == (0, 3)  # m = +-1 is the double kernel

    def test_hamiltonian_symmetry(self):
        # +-sqrt(mu) is symmetric by construction; the dense J oracle is not
        rng = np.random.default_rng(20)
        for _ in range(3):
            k = rng.uniform(0.2, 0.7)
            big_l = rng.uniform(5 * math.pi, 9 * math.pi)
            assert_matches_dense_evolution(mw.operator_for(mw.wave_at(k, big_l)[0], 128))

    def test_wave_is_spectrally_stable(self, op05_256):
        rep = mw.evolution_spectrum(op05_256)
        assert np.max(np.abs(rep.eigenvalues.real)) < 1e-6
        assert (rep.n_neg, rep.z_dim) == (0, 3)


class TestInvOnePairing:
    def test_constant_case_deflated(self, op_constant_128):
        # the double kernel cos x, sin x is deflated like a simple one
        pair = mw.inv_one_pairing(op_constant_128)
        assert mw.spectrum(op_constant_128).z_dim == 2
        assert pair.value == pytest.approx(-math.pi, abs=1e-8)
        assert pair.residual < 1e-8

    def test_wave_pairing_stable_under_refinement(self, op05_256, op05_512):
        p256 = mw.inv_one_pairing(op05_256)
        p512 = mw.inv_one_pairing(op05_512)
        assert mw.spectrum(op05_256).z_dim == 1
        assert abs(p256.value - p512.value) < 1e-6 * abs(p512.value)
        assert p256.residual < 1e-8


@settings(max_examples=20)
@given(half=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
def test_from_grid_inverts_to_grid(half, seed):
    # the cosine/sine coordinates are orthonormal: the map is exact both ways
    # and preserves the Euclidean norm of every column
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((2 * half, 3))
    coords = from_grid(u)
    assert np.allclose(to_grid(coords), u, rtol=0.0, atol=1e-13 * np.max(np.abs(u)))
    assert np.allclose(np.linalg.norm(coords, axis=0), np.linalg.norm(u, axis=0),
                       rtol=1e-13, atol=0.0)
    assert np.allclose(from_grid(to_grid(coords)), coords,
                       rtol=0.0, atol=1e-13 * np.max(np.abs(coords)))


@settings(max_examples=6)
@given(k=st.floats(0.1, 0.75), big_l=st.floats(3.2 * math.pi, 10 * math.pi))
@example(k=0.5, big_l=6 * math.pi)
@example(k=0.3, big_l=4 * math.pi)
@example(k=0.1, big_l=5 * math.pi)
def test_default_counts_invariant_under_refinement(k, big_l):
    # the default zero tolerance keeps the small genuine eigenvalue beside
    # the kernel (1.2e-5 at (0.1, 5 pi)) out of the kernel at every n, and
    # the zero-mean Morse identities hold at every n
    assume(mw.validity(k, big_l).all_ok)
    p = mw.wave_at(k, big_l)[0]
    counts = set()
    for n in (128, 256, 512, 1024):
        op = mw.operator_for(p, n)
        full, restr = mw.spectrum(op), mw.restricted_spectrum(op)
        pairing = mw.inv_one_pairing(op).value
        n_pair, z_pair = mw.indices._sign_count(pairing)
        assert (restr.n_neg, restr.z_dim) == (full.n_neg - n_pair - z_pair, full.z_dim + z_pair)
        counts.add((full.n_neg, full.z_dim, restr.n_neg, restr.z_dim, pairing > 0.0))
    assert len(counts) == 1
    assert counts.pop()[:2] == (1, 1)


@settings(max_examples=6)
@given(k=st.floats(0.1, 0.75), big_l=st.floats(3.2 * math.pi, 10 * math.pi))
@example(k=0.5, big_l=6 * math.pi)
@example(k=0.3, big_l=4 * math.pi)
@example(k=0.7, big_l=9 * math.pi)
def test_evolution_counts_invariant_under_refinement(k, big_l):
    # the defective zero of J L is one simple mu = 0 at every n: z_dim = 3
    # (phi', its generalized eigenvector and the Nyquist cosine) and no real
    # unstable pair; dx L's 1e-6 radius rule gave z_dim = 5 at n = 512
    assume(mw.validity(k, big_l).all_ok)
    p = mw.wave_at(k, big_l)[0]
    for n in (128, 256, 512, 1024):
        rep = mw.evolution_spectrum(mw.operator_for(p, n))
        assert (rep.n_neg, rep.z_dim) == (0, 3)
