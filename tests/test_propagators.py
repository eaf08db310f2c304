import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from bosegas import lattice
from bosegas.hsfield import contour_shift, wick_rho
from bosegas.lattice import (ModelParams, TimeGrid, TorusGeometry, TwoBodyPotential,
                             _circulant_matrix, _circulant_root, _circulant_spectrum,
                             _plane_waves, _spectral_data, delta_potential,
                             wrapped_gaussian_potential)
from bosegas.loopgas import activity_table
from bosegas.meanfield import wick_constant, z_via_eta
from bosegas.propagators import (_slice_phases, circle_heat_kernel, free_green, free_log_trace,
                                 heat_propagator, ideal_occupation, monodromy_batch)


def monodromy(g, grid, sigma):
    """Reference loop: the product over slices j = n_slices..1 of
    exp(eps Lap/4) diag(exp(-i eps sigma_j)) exp(eps Lap/4), one field of
    shape (n_slices, n_sites)."""
    half = heat_propagator(g, 0.5 * grid.eps)
    gam = np.eye(g.n_sites, dtype=complex)
    for j in range(grid.n_slices):
        gam = half @ (np.exp(-1j * grid.eps * sigma[j])[:, None] * (half @ gam))
    return gam


def test_heat_two_sites():
    # eigenvalues 0 and -4, so the diagonal at t=1 is (1 + e^-2) / 2
    g = TorusGeometry(dimension=1, sites_per_side=2)
    p = heat_propagator(g, 1.0)
    assert p[0, 0] == pytest.approx((1 + np.exp(-2)) / 2, abs=1e-14)
    assert p[0, 1] == pytest.approx((1 - np.exp(-2)) / 2, abs=1e-14)


def test_heat_is_stochastic_semigroup():
    g = TorusGeometry(dimension=2, sites_per_side=3)
    p = heat_propagator(g, 0.7)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p >= -1e-14)
    assert np.allclose(heat_propagator(g, 0.3) @ heat_propagator(g, 0.4), p)


def test_circle_heat_kernel_normalized():
    L, t = 3.0, 0.8
    val, _ = quad(lambda x: circle_heat_kernel(L, t, x, 0.3), 0.0, L)
    assert val == pytest.approx(1.0, abs=1e-10)
    assert circle_heat_kernel(L, t, 0.1, 0.9) == pytest.approx(
        circle_heat_kernel(L, t, 0.9, 0.1))


def test_monodromy_zero_field_is_heat():
    g = TorusGeometry(dimension=1, sites_per_side=3)
    grid = TimeGrid(nu=1.0, n_slices=8)
    gam = monodromy_batch(g, grid, np.zeros((1, 8, 3)))[0]
    assert np.allclose(gam, heat_propagator(g, 1.0), atol=1e-13)


def test_monodromy_second_order_in_step():
    # Strang splitting: error against the exact exponential shrinks like eps^2
    g = TorusGeometry(dimension=1, sites_per_side=3)
    sigma_profile = np.array([0.7, -0.4, 1.1])
    exact = expm(0.5 * g.laplacian_matrix() - 1j * np.diag(sigma_profile))
    errs = []
    for n in (8, 16, 32):
        grid = TimeGrid(nu=1.0, n_slices=n)
        gam = monodromy_batch(g, grid, np.tile(sigma_profile, (1, n, 1)))[0]
        errs.append(np.max(np.abs(gam - exact)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_monodromy_contraction():
    g = TorusGeometry(dimension=1, sites_per_side=4)
    grid = TimeGrid(nu=1.0, n_slices=16)
    rng = np.random.default_rng(0)
    gam = monodromy_batch(g, grid, 3.0 * rng.standard_normal((1, 16, 4)))[0]
    assert np.linalg.norm(gam, 2) <= 1.0 + 1e-12


def test_monodromy_batch_matches_loop():
    # the fused, stacked kernel against the scalar reference: 2 sites, the 3^3
    # torus, one site, and a stack of one field
    grid = TimeGrid(nu=1.0, n_slices=8)
    rng = np.random.default_rng(1)
    for dim, m, S in [(1, 2, 3), (3, 3, 2), (1, 1, 4), (1, 4, 1)]:
        g = TorusGeometry(dimension=dim, sites_per_side=m)
        sig = 2.0 * rng.standard_normal((S, 8, g.n_sites))
        batch = monodromy_batch(g, grid, sig)
        assert batch.shape == (S, g.n_sites, g.n_sites)
        pref = {}
        for j in (1, 5, 7):
            full, pref[j] = monodromy_batch(g, grid, sig, prefix=j)
            assert np.array_equal(full, batch)
        for j in (0, 8):
            # the empty product and the whole period are not prefixes
            with pytest.raises(ValueError, match="prefix must lie in 1..7"):
                monodromy_batch(g, grid, sig, prefix=j)
        for s in range(S):
            assert np.allclose(batch[s], monodromy(g, grid, sig[s]),
                               rtol=0, atol=1e-13)
            for j in (1, 5, 7):
                # eps = 1/8 is exact, so the j-slice grid has the same step
                head = monodromy(g, TimeGrid(nu=j / 8, n_slices=j), sig[s, :j])
                assert np.allclose(pref[j][s], head, rtol=0, atol=1e-13)


def test_a_common_slice_shift_is_a_pure_phase():
    # sigma_j + c_j on every site of slice j multiplies the product over any
    # slices by e^{-i eps sum_j c_j} over those slices, for real and complex c_j
    grid = TimeGrid(nu=1.0, n_slices=8)
    rng = np.random.default_rng(2)
    for dim, m in [(1, 1), (1, 2), (1, 4), (3, 3)]:
        g = TorusGeometry(dimension=dim, sites_per_side=m)
        sig = 2.0 * rng.standard_normal((3, 8, g.n_sites))
        base, head = monodromy_batch(g, grid, sig, prefix=3)
        for c in (3.0 * rng.standard_normal((3, 8)),
                  rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))):
            shifted, shifted_head = monodromy_batch(g, grid, sig + c[:, :, None], prefix=3)
            for got, want, slices in [(shifted, base, 8), (shifted_head, head, 3)]:
                phase = np.exp(-1j * grid.eps * c[:, :slices].sum(axis=1))
                want = phase[:, None, None] * want
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_free_green_single_site():
    # one site: Green function is the geometric sum e^-1 / (1 - e^-1)
    g = TorusGeometry(dimension=1, sites_per_side=1)
    val = free_green(g, 1.0, 1.0)[0, 0]
    assert val == pytest.approx(np.exp(-1) / (1 - np.exp(-1)), abs=1e-14)
    with pytest.raises(ValueError):
        free_green(g, 1.0, 0.0)


def test_ideal_occupation_matches_green_diagonal():
    g = TorusGeometry(dimension=1, sites_per_side=4)
    occ = ideal_occupation(g, 0.8, 1.3)
    assert occ == pytest.approx(free_green(g, 0.8, 1.3)[0, 0], abs=1e-12)


def test_slice_phases_match_the_complex_exp_bit_for_bit():
    # cos and sin written into one complex buffer, against exp(-i eps sigma)
    grid = TimeGrid(nu=1.0, n_slices=8)
    rng = np.random.default_rng(0)
    sigma = rng.standard_normal((300, 8, 3)) * np.array([1.0, 30.0, 3000.0])
    got = np.stack([ph[..., 0].T.copy() for ph in _slice_phases(grid, sigma)], axis=1)
    want = np.exp(-1j * grid.eps * sigma)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a complex stack is a damped phase, exp(-i eps (a + i b))
    z = sigma + 1j * rng.standard_normal(sigma.shape)
    got = np.stack([ph[..., 0].T.copy() for ph in _slice_phases(grid, z)], axis=1)
    assert np.max(np.abs(got / np.exp(-1j * grid.eps * z) - 1.0)) < 1e-13


def test_plane_waves_diagonalize_the_laplacian():
    # the closed-form spectrum in the basis's column order, and the dense
    # eigvalsh as the reference; m = 1 and 2 fold the neighbours onto one site.
    # A random even row r: r[x - y] is diagonal in the same basis, with the
    # Fourier transform of r, and n times the potential's coefficients, its diagonal.
    # _circulant_matrix inverts the spectrum, one matrix per stacked spectrum
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        for m in range(1, 6):
            if m**d > 125:
                continue
            g = TorusGeometry(dimension=d, sites_per_side=m)
            lap = g.laplacian_matrix()
            evals, basis = _spectral_data(g), _plane_waves(m, d)
            assert np.max(np.abs(basis.T @ basis - np.eye(g.n_sites))) <= 1e-12
            assert np.max(np.abs(basis.T @ lap @ basis - np.diag(evals))) <= 1e-12
            assert np.max(np.abs(np.sort(evals) - np.linalg.eigvalsh(lap))) <= 1e-12
            table = g.displacement_table()
            row = rng.standard_normal(g.n_sites)
            row = 0.5 * (row + row[table[0]])  # table[0] is the index of -x
            diag = basis.T @ row[table] @ basis
            spectrum = _circulant_spectrum(g, row)
            assert np.max(np.abs(spectrum - np.diagonal(diag))) <= 1e-12
            assert np.max(np.abs(diag - np.diag(np.diagonal(diag)))) <= 1e-12
            v = TwoBodyPotential(g, row)
            assert np.max(np.abs(g.n_sites * v.fourier_coefficients() - spectrum)) <= 1e-12
            assert np.max(np.abs(_circulant_matrix(g, evals) - lap)) <= 1e-12
            again = _circulant_spectrum(g, _circulant_matrix(g, spectrum)[0])
            assert np.max(np.abs(again - spectrum)) <= 1e-12
            stack = _circulant_matrix(g, np.stack([evals, spectrum, 2.0 * spectrum]))
            assert stack.shape == (3, g.n_sites, g.n_sites)
            want = np.stack([lap, row[table], 2.0 * row[table]])
            assert np.max(np.abs(stack - want)) <= 1e-12


def test_spectra_never_build_the_dense_laplacian(monkeypatch):
    # the 7x7 torus, which no other test builds, so no cache is warm: the
    # spectrum, its consumers, the circulant root and the eta route all run
    # without the dense Laplacian
    def refuse(self):
        raise AssertionError("dense Laplacian built")

    monkeypatch.setattr(TorusGeometry, "laplacian_matrix", refuse)
    g = TorusGeometry(dimension=2, sites_per_side=7)
    evals = _spectral_data(g)
    assert evals.max() == 0.0
    assert np.isfinite(free_log_trace(g, 1.0, 1.0))
    assert wick_constant(g, 1.0) > 0
    assert ideal_occupation(g, 1.0, 1.0) > 0
    v = wrapped_gaussian_potential(g, width=0.7)
    root = _circulant_root(g, v.values)
    assert np.max(np.abs(root @ root - v.matrix())) <= 1e-12
    est = z_via_eta(ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5), g, v, 64, seed=0)
    assert np.isfinite(est.value.real)


def test_spectra_never_build_the_plane_waves(monkeypatch):
    # the 6x6 torus, which no other test builds, so no cache is warm: every
    # caller that reads only the spectrum runs without the dense basis
    def refuse(period, dimension):
        raise AssertionError("plane-wave basis built")

    monkeypatch.setattr(lattice, "_plane_waves", refuse)
    g = TorusGeometry(dimension=2, sites_per_side=6)
    evals = _spectral_data(g)
    assert evals.shape == (36,) and evals.max() == 0.0
    assert np.isfinite(free_log_trace(g, 1.0, 1.0))
    assert wick_constant(g, 1.0) > 0
    assert ideal_occupation(g, 1.0, 1.0) > 0
    params = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=0.3)
    assert contour_shift(params, g, delta_potential(g)) != 0.0
    assert wick_rho(g, 1.0, 1.0) > 0
    assert np.all(activity_table(g, 1.0, 1.0, 4) > 0)


def test_circulant_root_squares_to_the_potential():
    # the wrapped Gaussian has degenerate plane-wave eigenspaces on both tori;
    # the root is symmetric and squares back to v(x - y)
    for d, m in ((2, 4), (3, 3)):
        g = TorusGeometry(dimension=d, sites_per_side=m)
        for width in (0.7, 1.0):
            v = wrapped_gaussian_potential(g, width=width)
            root = _circulant_root(g, v.values)
            assert np.max(np.abs(root - root.T)) <= 1e-12
            assert np.max(np.abs(root @ root - v.matrix())) <= 1e-12
