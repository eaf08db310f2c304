import numpy as np
import pytest
from scipy.special import ndtr

from bosegas.fock import duhamel_exact, gamma1_exact, xi_exact
from bosegas.hsfield import (_duhamel_kernels, _field_weights, _gaussian_control,
                             _kernel_control, _kernel_expansion, _log_det_ratio,
                             _weight_hessian, contour_shift, estimate_duhamel,
                             estimate_xi_rel, sample_sigma, wick_rho)
from bosegas.lattice import (ModelParams, TimeGrid, TorusGeometry, _plane_waves,
                             delta_potential, wrapped_gaussian_potential)
from bosegas.propagators import (free_green, free_log_trace, heat_propagator, ideal_occupation,
                                 monodromy_batch)
from bosegas.records import ExperimentConfig
from bosegas.stats import batch_layout, ratio_estimate
from determinant_identities import det_identity_residual, winding_exponent

G1 = TorusGeometry(dimension=1, sites_per_side=1)
G2 = TorusGeometry(dimension=1, sites_per_side=2)
G22 = TorusGeometry(dimension=2, sites_per_side=2)
GRID = TimeGrid(nu=1.0, n_slices=32)
FREE = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.0)
BENCH = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)


def test_det_identity_scalar():
    assert det_identity_residual(np.array([[2.0]])) < 1e-10


def test_det_identity_complex():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a += 4.0 * np.eye(3)
    assert det_identity_residual(a) < 1e-8


def test_det_identity_rejects_indefinite():
    with pytest.raises(ValueError):
        det_identity_residual(np.diag([1.0, -1.0]))


def test_wick_rho_is_free_occupation():
    for g in (G1, G2):
        assert wick_rho(g, 1.0, 1.0) == pytest.approx(
            free_green(g, 1.0, 1.0)[0, 0])
    cfg = ExperimentConfig.defaults()
    cfg.override("geometry", "sites_per_side", 2)
    cfg.override("model", "kappa0", 0.7)
    cfg.override("model", "rho_mode", "wick")
    assert cfg.model().rho == wick_rho(G2, 1.0, 0.7)


def test_sigma_covariance_empirical():
    # per-slice covariance should be (lam / (nu eps)) v(x - y)
    v = delta_potential(G2)
    rng = np.random.default_rng(1)
    sig = sample_sigma(BENCH, G2, GRID, v, 20000, rng)
    scale = BENCH.lam / (BENCH.nu * GRID.eps)
    flat = sig.reshape(-1, 2)
    emp = flat.T @ flat / len(flat)
    se = scale / np.sqrt(len(flat))
    assert np.all(np.abs(emp - scale * np.eye(2)) < 5 * se * np.sqrt(2) + 1e-3)
    # slices are independent
    cross = np.mean(sig[:, 0, 0] * sig[:, 1, 0])
    assert abs(cross) < 5 * scale / np.sqrt(len(sig))


@pytest.mark.parametrize("n_samples", [2000, 500, 7])
def test_constant_mode_is_stratified_within_each_error_batch(n_samples):
    # Phi(t / sd(t)) of each field's mean t is the uniform its constant mode
    # was drawn from: one per stratum in every batch and in the remainder
    v = delta_potential(G2)
    sig = sample_sigma(BENCH, G2, GRID, v, n_samples, np.random.default_rng(2))
    sd = np.sqrt(BENCH.lam * v.total() / (BENCH.nu**2 * G2.n_sites))
    u = ndtr(sig.mean(axis=(1, 2)) / sd)
    n_batches, b = batch_layout(n_samples)
    blocks = [*u[:n_batches * b].reshape(n_batches, b), u[n_batches * b:]]
    for block in blocks:
        strata = np.sort(np.floor(len(block) * block).astype(int))
        assert np.array_equal(strata, np.arange(len(block)))


@pytest.mark.parametrize("geom, potential, n_slices", [
    (G2, delta_potential, 32),
    (G22, lambda g: wrapped_gaussian_potential(g, width=0.7), 8),
    (TorusGeometry(dimension=3, sites_per_side=3), delta_potential, 8),
], ids=["2 sites", "2x2 torus, Gaussian v", "3^3"])
def test_stratified_draw_keeps_the_field_law(geom, potential, n_slices):
    # in the plane waves over slices and sites, mode (k, p) of the field has
    # variance C(p) = (lam / (nu eps)) vhat(p): the stratified constant mode
    # (0, 0) and a mode (1, p) away from it alike
    v = potential(geom)
    grid = TimeGrid(nu=1.0, n_slices=n_slices)
    sig = sample_sigma(BENCH, geom, grid, v, 4000, np.random.default_rng(3))
    slice_basis = _plane_waves(n_slices, 1)
    site_basis = _plane_waves(geom.sites_per_side, geom.dimension)
    modes = slice_basis.T @ sig @ site_basis
    cov = BENCH.lam / (BENCH.nu * grid.eps) * np.diagonal(site_basis.T @ v.matrix() @ site_basis)
    for k, p in [(0, 0), (1, geom.n_sites - 1)]:
        second = np.mean(modes[:, k, p] ** 2)
        assert abs(second - cov[p]) < 5 * cov[p] * np.sqrt(2 / len(sig)), (k, p, second, cov[p])


def test_stratified_xi_rel_errors_hold_over_many_seeds():
    # 200 seeds of 500 fields on 2 sites: z against the exact trace spreads as
    # t_15 (sd 1.07), which it would not if strata crossed error batches
    v = delta_potential(G2)
    exact = xi_exact(BENCH, G2, v, n_max=20).xi_rel
    ests = [estimate_xi_rel(BENCH, G2, GRID, v, 500, seed=s) for s in range(200)]
    z = np.array([(e.value.real - exact) / e.stderr for e in ests])
    assert 0.85 <= z.std(ddof=1) <= 1.25, z.std(ddof=1)


def test_winding_sum_matches_logdet():
    v = delta_potential(G2)
    rng = np.random.default_rng(3)
    sig = sample_sigma(BENCH, G2, GRID, v, 1, rng)
    gam = monodromy_batch(G2, GRID, sig)[0]
    w, tail = winding_exponent(G2, 1.0, 1.0, gam, l_max=70)
    sign, logabs = np.linalg.slogdet(np.eye(2) - np.exp(-1.0) * gam)
    assert abs(w - (-(np.log(sign) + logabs))) < 1e-12 + tail
    # tail bound honest: enlarging l_max moves the sum by less than it
    w2, _ = winding_exponent(G2, 1.0, 1.0, gam, l_max=90)
    assert abs(w2 - w) <= tail


@pytest.mark.parametrize("geom", [G2, TorusGeometry(dimension=3, sites_per_side=3)])
def test_log_det_ratio_is_the_principal_log_of_the_determinant(geom):
    # fields near a constant level put the phase of det(1 - f Gamma) in all
    # four quadrants at f = e^{-nu (kappa0 - c)} near 1, on 2 sites and 3^3
    nu, kappa0, c = 0.25, 0.3, 0.2
    grid = TimeGrid(nu=nu, n_slices=8)
    rng = np.random.default_rng(4)
    level = np.linspace(-3.0, 3.0, 40) / nu
    sigma = level[:, None, None] + 0.5 * rng.standard_normal((40, 8, geom.n_sites))
    gamma = monodromy_batch(geom, grid, sigma)
    det = np.linalg.det(np.eye(geom.n_sites) - np.exp(-nu * (kappa0 - c)) * gamma)
    assert set(np.floor(np.angle(det) / (0.5 * np.pi)).astype(int)) == {-2, -1, 0, 1}
    want = np.log(det) + free_log_trace(geom, nu, kappa0)
    got = _log_det_ratio(geom, nu, kappa0, gamma, c)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_xi_rel_free_is_exact_one():
    v = delta_potential(G2)
    est = estimate_xi_rel(FREE, G2, GRID, v, 100)
    assert est.value == 1.0 + 0.0j
    assert est.stderr == 0.0
    assert est.extra["gauss_mean"] == 1.0 and est.extra["weights_stderr"] == 0.0


def test_xi_rel_matches_oracle():
    v = delta_potential(G2)
    oracle = xi_exact(BENCH, G2, v, n_max=16).xi_rel
    est = estimate_xi_rel(BENCH, G2, GRID, v, 40000, seed=5)
    assert abs(est.value.real - oracle) < 3 * max(est.stderr_re, 1e-4)
    assert abs(est.value.imag) < 5 * max(est.stderr_im, 1e-4)


def test_xi_rel_reports_avg_sign():
    v = delta_potential(G2)
    est = estimate_xi_rel(BENCH, G2, GRID, v, 2000, seed=4)
    w = est.extra["weights"]
    assert len(w) == 2000
    # the estimate is the mean of w - g + E[g], with g = w(0) exp(s.H s / 2)
    # from the dense Hessian on the same fields
    sigma = sample_sigma(BENCH, G2, GRID, v, 2000, np.random.default_rng(4))
    control = _zero_field_weight(BENCH, G2, v) * np.exp(
        0.5 * _quadratic_form(_dense_hessian(BENCH, G2, GRID, v), sigma))
    assert est.value == pytest.approx(np.mean(w - control + est.extra["gauss_mean"]),
                                      rel=1e-12)
    assert est.extra["weights_stderr"] > est.stderr_re > 0.0
    assert est.extra["mean_abs_weight"] == pytest.approx(np.mean(np.abs(w)),
                                                         rel=1e-12)
    sign = est.extra["avg_sign"]
    assert 0.0 < sign <= 1.0
    assert sign == pytest.approx(abs(np.mean(w)) / est.extra["mean_abs_weight"],
                                 rel=1e-12)
    free = estimate_xi_rel(FREE, G2, GRID, v, 100)
    assert free.extra["avg_sign"] == 1.0


def test_duhamel_free_is_exact():
    v = delta_potential(G2)
    fg = free_green(G2, 1.0, 1.0)
    est = estimate_duhamel(FREE, G2, GRID, v, 0, 1, n_samples=10)
    assert est.value == pytest.approx(fg[0, 1], abs=1e-12)
    assert est.stderr == 0.0
    assert est.extra["gauss_mean"] == est.value.real and est.extra["plain_stderr"] == 0.0
    # unequal times, single site: e^-s / (1 - e^-1)
    v1 = delta_potential(G1)
    est = estimate_duhamel(FREE, G1, GRID, v1, 0, 0, tau=0.5, n_samples=10)
    assert est.value == pytest.approx(np.exp(-0.5) / (1 - np.exp(-1)),
                                      abs=1e-10)


def test_duhamel_free_long_time_is_exact():
    # 3^3 torus at nu = 8: the prefix propagator to tau' = 7/8 nu is so badly
    # conditioned that inverting it missed the closed form by 5e-3 to 8e-3
    g = TorusGeometry(dimension=3, sites_per_side=3)
    p = ModelParams(nu=8.0, kappa0=1.0, lambda0=0.0)
    grid = TimeGrid(nu=8.0, n_slices=64)
    lap_e, lap_v = np.linalg.eigh(g.laplacian_matrix())
    fug = np.exp(-8.0 * p.kappa0)
    for tau in (7.0, 7.5):
        s = tau - 7.0
        occ = np.exp(0.5 * s * lap_e) / (1.0 - fug * np.exp(4.0 * lap_e))
        if s == 0.0:
            occ = occ * fug * np.exp(4.0 * lap_e)  # the one-body matrix
        want = np.exp(-p.kappa0 * s) * ((lap_v * occ) @ lap_v.T)[0, 1]
        est = estimate_duhamel(p, g, grid, delta_potential(g), 0, 1, tau=tau,
                               tau_p=7.0, n_samples=1)
        assert est.value == pytest.approx(want, rel=1e-12)


def test_duhamel_push_through_matches_prefix_inverse():
    # at nu = 1 the prefixes are well conditioned, so P_tau core P_tau'^-1
    # built with the inverse is a sharp per-field reference for the kernels
    # of the rolled fields; on the shifted contour kappa0 -> kappa0 - c
    v = delta_potential(G2)
    c = contour_shift(BENCH, G2, v)
    sigma = sample_sigma(BENCH, G2, GRID, v, 200, np.random.default_rng(3))
    gamma, head = monodromy_batch(G2, GRID, sigma, prefix=8)
    pre = {8: head, 24: monodromy_batch(G2, GRID, sigma, prefix=24)[1]}
    m = np.exp(-(1.0 - c)) * gamma
    resolvent = np.linalg.inv(np.eye(2) - m)
    rolled = np.roll(sigma, -8, axis=1)
    for lag, j_hi, core in [(16, 24, np.exp(-0.5 * (1.0 - c)) * resolvent),
                            (0, 8, m @ resolvent)]:
        want = (pre[j_hi] @ core @ np.linalg.inv(pre[8]))[:, 0, 1]
        got, rolled_gamma = _duhamel_kernels(G2, GRID, rolled, 1.0 - c, 0, 1, lag)
        assert np.max(np.abs(got / want - 1.0)) < 1e-10
        # the rolled monodromy is conjugate to the original: same weights
        assert np.max(np.abs(_field_weights(BENCH, G2, GRID, v, rolled, rolled_gamma, c)
                             / _field_weights(BENCH, G2, GRID, v, sigma, gamma, c) - 1.0)) < 1e-10


def test_duhamel_matches_oracle():
    v = delta_potential(G2)
    want = duhamel_exact(BENCH, G2, v, 16, 0.25, 0, 0.0, 1)
    est = estimate_duhamel(BENCH, G2, GRID, v, 0, 1, tau=0.25,
                           n_samples=40000, seed=6)
    assert abs(est.value.real - want) < 3 * max(est.stderr_re, 1e-4)


def test_duhamel_equal_times_matches_gamma1():
    v = delta_potential(G2)
    want = gamma1_exact(BENCH, G2, v, n_max=16)[0, 0]
    est = estimate_duhamel(BENCH, G2, GRID, v, 0, 0, n_samples=40000, seed=7)
    assert abs(est.value.real - want) < 3 * max(est.stderr_re, 1e-4)


def test_duhamel_domain_checks():
    v = delta_potential(G2)
    with pytest.raises(ValueError):
        estimate_duhamel(FREE, G2, GRID, v, 0, 0, tau=1.0)
    with pytest.raises(ValueError):
        estimate_duhamel(FREE, G2, GRID, v, 0, 0, tau=0.25, tau_p=0.5)
    with pytest.raises(ValueError):
        # off-grid time
        estimate_duhamel(FREE, G2, GRID, v, 0, 0, tau=0.013)


# ---------------------------------------------------------------------------
# shifted contour and conjugation symmetry


@pytest.mark.parametrize("n_species", [1.0, 2.0])
@pytest.mark.parametrize("rho", [0.0, 0.3])
def test_conjugate_field_conjugates_weight_and_kernel(n_species, rho):
    # F(-s) = conj F(s) field by field on the shifted contour, for the weight
    # and the Duhamel kernel alike, so Re F is the average over (s, -s)
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, n_species=n_species, rho=rho)
    v = wrapped_gaussian_potential(G2, width=0.7)
    c = contour_shift(p, G2, v)
    assert c != 0.0
    sigma = sample_sigma(p, G2, GRID, v, 50, np.random.default_rng(8))
    pairs = []
    for s in (sigma, -sigma):
        gamma, head = monodromy_batch(G2, GRID, s, prefix=8)
        m = np.exp(-(1.0 - c)) * gamma
        kernels = (head @ np.linalg.inv(np.eye(2) - m))[:, 0, 1]
        pairs.append((_field_weights(p, G2, GRID, v, s, gamma, c), kernels))
    (w, k), (w_neg, k_neg) = pairs
    assert np.max(np.abs(w.imag)) > 1e-3  # the symmetry is not trivial
    assert np.max(np.abs(w)) <= 1.0  # damping survives the shift
    assert np.max(np.abs(w_neg - w.conj())) <= 1e-12 * np.max(np.abs(w))
    assert np.max(np.abs(k_neg - k.conj())) <= 1e-12 * np.max(np.abs(k))


def test_shifted_weights_are_the_complex_field_weights():
    # the weight at real s and shift c is F(s + i c) of the complex field,
    # times the density ratio p(s + i c) / p(s) of the full slice covariance
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, n_species=2.0, rho=0.3)
    v = wrapped_gaussian_potential(G2, width=0.7)
    sigma = sample_sigma(p, G2, GRID, v, 20, np.random.default_rng(9))
    precision = np.linalg.inv(p.lam / (p.nu * GRID.eps) * v.matrix())

    def log_density(field):
        return -0.5 * np.einsum("stx,xy,sty->s", field, precision, field)

    for c in (contour_shift(p, G2, v), 0.2):
        z = sigma + 1j * c
        direct = _field_weights(p, G2, GRID, v, z, monodromy_batch(G2, GRID, z), 0.0)
        want = direct * np.exp(log_density(z) - log_density(sigma))
        got = _field_weights(p, G2, GRID, v, sigma, monodromy_batch(G2, GRID, sigma), c)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_avg_sign_never_exceeds_one():
    # positive real weights put |<w>| / <|w|> within an ulp of 1, either side
    v = delta_potential(G2)
    for seed in range(16):
        est = estimate_xi_rel(BENCH, G2, GRID, v, 200, seed=seed)
        assert 0.0 < est.extra["avg_sign"] <= 1.0


def test_contour_shift_solves_the_hartree_equation():
    # one species at fixed coupling, and 8 species in meanfield mode, where
    # lam vhat(0) N / nu^2 = lambda0 vhat(0) N / (N + 1)
    v = delta_potential(G2)
    for lambda0, n_species, mode in [(0.5, 1.0, "fixed"), (0.7, 8.0, "meanfield")]:
        for rho, sign in [(0.0, -1.0), (0.3, -1.0), (5.0, 1.0)]:
            p = ModelParams(nu=1.0, kappa0=1.0, lambda0=lambda0, n_species=n_species,
                            coupling_mode=mode, rho=rho)
            c = contour_shift(p, G2, v)
            assert sign * c > 0.0 and c < p.kappa0
            coupling = p.lam * v.total() * n_species
            rhs = -coupling * (ideal_occupation(G2, 1.0, p.kappa0 - c) - rho)
            assert c == pytest.approx(rhs, abs=1e-12)
    # exactly zero without coupling and at the Wick density
    assert contour_shift(FREE, G2, v) == 0.0
    wick = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=wick_rho(G2, 1.0, 1.0))
    assert contour_shift(wick, G2, v) == 0.0


def test_weights_stay_finite_at_high_density():
    # rho = 5 pushes c up towards kappa0
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=5.0)
    v = delta_potential(G2)
    xi = estimate_xi_rel(p, G2, GRID, v, 500, seed=1)
    duh = estimate_duhamel(p, G2, GRID, v, 0, 1, tau=0.25, n_samples=500, seed=1)
    assert 0.0 < xi.extra["contour_shift"] < p.kappa0
    assert np.all(np.isfinite(xi.extra["weights"]))
    assert np.isfinite(xi.value) and np.isfinite(duh.value)
    assert xi.stderr > 0.0 and duh.stderr > 0.0


@pytest.mark.parametrize("geom, rho, n_max", [
    (TorusGeometry(dimension=2, sites_per_side=2), 0.0, 10),
    (G2, 0.3, 16),
], ids=["2x2 torus", "rho 0.3"])
def test_shifted_estimators_match_oracle(geom, rho, n_max):
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=rho)
    v = delta_potential(geom)
    xi = estimate_xi_rel(p, geom, GRID, v, 20000, seed=9)
    duh = estimate_duhamel(p, geom, GRID, v, 0, 1, tau=0.25, n_samples=20000,
                           seed=10)
    assert xi.extra["contour_shift"] == duh.extra["contour_shift"] != 0.0
    for est in (xi, duh):
        assert est.value.imag == 0.0 and est.stderr_im == 0.0
    want = xi_exact(p, geom, v, n_max=n_max).xi_rel
    assert abs(xi.value.real - want) < 4 * xi.stderr_re
    want = duhamel_exact(p, geom, v, n_max, 0.25, 0, 0.0, 1)
    assert abs(duh.value.real - want) < 4 * duh.stderr_re


@pytest.mark.parametrize("geom, n_species", [
    (G2, 2.0), (TorusGeometry(dimension=2, sites_per_side=2), 1.0),
], ids=["2 sites, N 2", "2x2 torus, N 1"])
def test_estimate_xi_rel_matches_oracle_at_low_kappa0(geom, n_species):
    # at kappa0 0.5 the free trace converges slowly in n_max, so the oracle
    # holds only if it divides by the untruncated one
    p = ModelParams(nu=1.0, kappa0=0.5, lambda0=2.0, n_species=n_species)
    v = delta_potential(geom)
    est = estimate_xi_rel(p, geom, GRID, v, 4000, seed=1)
    want = xi_exact(p, geom, v, n_max=8).xi_rel
    assert abs(est.value.real - want) < 4 * est.stderr


# ---------------------------------------------------------------------------
# the Gaussian control variate of estimate_xi_rel


def _dense_hessian(params, geom, grid, v):
    """H[(j, x), (j', x')] = h[(j - j') mod n_slices][x, x'] as one dense matrix."""
    h = _weight_hessian(params, geom, grid, contour_shift(params, geom, v))
    lag = (np.arange(grid.n_slices)[:, None] - np.arange(grid.n_slices)) % grid.n_slices
    dim = grid.n_slices * geom.n_sites
    return h[lag].transpose(0, 2, 1, 3).reshape(dim, dim)


def _quadratic_form(hess, sigma):
    x = sigma.reshape(len(sigma), -1)
    return np.einsum("si,ij,sj->s", x, hess, x)


def _zero_field_weight(params, geom, v, grid=GRID):
    """w(0), from the monodromy of the zero field itself."""
    zero = np.zeros((1, grid.n_slices, geom.n_sites))
    return _field_weights(params, geom, grid, v, zero, monodromy_batch(geom, grid, zero),
                          contour_shift(params, geom, v))[0].real


@pytest.mark.parametrize("geom, rho", [(G2, 0.0), (G22, 0.0), (G2, 0.3)],
                         ids=["2 sites", "2x2 torus", "rho 0.3"])
def test_weight_hessian_matches_finite_differences(geom, rho):
    # central second differences of log F(s + i c) at s = 0 over every pair
    # of field entries, against the closed-form lag blocks
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=rho)
    v = delta_potential(geom)
    c = contour_shift(p, geom, v)
    dim = GRID.n_slices * geom.n_sites
    step = 1e-3 * np.eye(dim)
    a, b = np.triu_indices(dim)
    fields = np.concatenate([sa * step[a] + sb * step[b]
                             for sa, sb in [(1, 1), (1, -1), (-1, 1), (-1, -1)]])
    fields = fields.reshape(-1, GRID.n_slices, geom.n_sites)
    log_f = np.log(_field_weights(p, geom, GRID, v, fields,
                                  monodromy_batch(geom, GRID, fields), c)).reshape(4, -1)
    second = (log_f[0] - log_f[1] - log_f[2] + log_f[3]) / (4 * 1e-3**2)
    hess = _dense_hessian(p, geom, GRID, v)
    assert np.max(np.abs(hess)) > 1e-4  # the Hessian is not trivially small
    assert np.max(np.abs(second.imag)) < 1e-6
    assert np.max(np.abs(second.real - hess[a, b])) < 1e-6
    assert np.allclose(hess, hess.T, rtol=0.0, atol=1e-15)
    assert np.linalg.eigvalsh(hess).max() < 1e-15  # g <= w(0)


@pytest.mark.parametrize("geom, n_slices", [
    (G2, 32), (G22, 32), (TorusGeometry(dimension=1, sites_per_side=3), 15),
    (TorusGeometry(dimension=2, sites_per_side=3), 9),
], ids=["2 sites", "2x2 torus", "3 sites, odd slices", "3x3 torus, odd slices"])
def test_gaussian_control_matches_dense_forms(geom, n_slices):
    # the plane-wave forms against the dense H: the quadratic form per field,
    # and E[g] = w(0) det(1 - C H)^-1/2 against a dense slogdet; the 3-site
    # grids have sin plane waves, and odd slice counts no Nyquist frequency
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=0.3)
    grid = TimeGrid(nu=1.0, n_slices=n_slices)
    v = wrapped_gaussian_potential(geom, width=0.7)
    c = contour_shift(p, geom, v)
    sigma = sample_sigma(p, geom, grid, v, 300, np.random.default_rng(2))
    control, gauss_mean = _gaussian_control(p, geom, grid, v, sigma, c)

    hess = _dense_hessian(p, geom, grid, v)
    w0 = _zero_field_weight(p, geom, v, grid)
    want = w0 * np.exp(0.5 * _quadratic_form(hess, sigma))
    assert np.max(np.abs(control / want - 1.0)) < 1e-12
    cov = np.kron(np.eye(n_slices), p.lam / (p.nu * grid.eps) * v.matrix())
    sign, logdet = np.linalg.slogdet(np.eye(len(hess)) - cov @ hess)
    assert sign == 1.0
    assert gauss_mean == pytest.approx(w0 * np.exp(-0.5 * logdet), rel=1e-12)


@pytest.mark.parametrize("geom, n_max", [(G2, 20), (G22, 10)],
                         ids=["2 sites", "2x2 torus"])
def test_control_variate_errors_are_honest(geom, n_max):
    # seeds 0-119 at the benchmark point: the quoted batch-means error of the
    # corrected mean matches the spread over seeds, and the seed mean sits on
    # the exact trace.  Over 30 seeds a correct estimator fell outside the
    # 25 % window in about 8.5 % of windows; over 120 seeds in none of 166
    v = delta_potential(geom)
    exact = xi_exact(BENCH, geom, v, n_max=n_max)
    ests = [estimate_xi_rel(BENCH, geom, GRID, v, 2000, seed=s) for s in range(120)]
    values = np.array([e.value.real for e in ests])
    spread = values.std(ddof=1)
    quoted = np.sqrt(np.mean([e.stderr**2 for e in ests]))
    assert abs(quoted / spread - 1) < 0.25, (quoted, spread)
    assert abs(values.mean() - exact.xi_rel) < (4 * spread / np.sqrt(len(values))
                                                + exact.truncation_drift * exact.xi_rel)
    # the control variate is what shrinks the error: w alone spreads wider
    assert np.mean([e.extra["weights_stderr"] for e in ests]) > 2 * quoted


# ---------------------------------------------------------------------------
# the second-order control of estimate_duhamel


def _dense_insertions(params, geom, grid, v):
    """M = (1 + S Q)(1 - S Q)^-1 / 2 over (slice, site), Q = e^{-kappa eps} U(eps)."""
    kappa = params.kappa0 - contour_shift(params, geom, v)
    q = np.exp(-kappa * grid.eps) * heat_propagator(geom, grid.eps)
    step = np.kron(np.roll(np.eye(grid.n_slices), 1, axis=0), q)  # slice j-1 -> j
    eye = np.eye(len(step))
    return 0.5 * (eye + step) @ np.linalg.inv(eye - step)


def _dense_kernel_hessian(params, geom, grid, v, x, x_p, lag):
    """k0, a and the Hessian -(eps^2 / k0)(T + T^t) + a a^t of log k, with a dense M."""
    k0, a, left, right, _ = _kernel_expansion(params, geom, grid,
                                              contour_shift(params, geom, v), x, x_p, lag)
    t = left.reshape(-1, 1) * _dense_insertions(params, geom, grid, v) * right.reshape(1, -1)
    a = a.ravel()
    return k0, a, -grid.eps**2 / k0 * (t + t.T) + np.outer(a, a)


def _dense_gaussian_mean(hess, cov, a):
    """E[exp(s.B s / 2) cos(a.s)] over s ~ N(0, C), from a dense slogdet and solve."""
    one = np.eye(len(hess)) - cov @ hess
    sign, logdet = np.linalg.slogdet(one)
    assert sign == 1.0
    return np.exp(-0.5 * logdet - 0.5 * a @ np.linalg.solve(one, cov @ a))


def _slice_covariance(params, grid, v):
    return np.kron(np.eye(grid.n_slices), params.lam / (params.nu * grid.eps) * v.matrix())


@pytest.mark.parametrize("geom, rho, x, x_p, tau, tau_p", [
    (G2, 0.0, 0, 1, 0.25, 0.0), (G22, 0.0, 0, 3, 0.25, 0.0), (G2, 0.3, 0, 1, 0.25, 0.0),
    (G2, 0.0, 0, 1, 0.75, 0.25), (G2, 0.0, 1, 1, 0.25, 0.25), (G2, 0.0, 0, 1, 0.5, 0.5),
], ids=["2 sites", "2x2 torus", "rho 0.3", "tau' 0.25", "equal times, x = x'",
        "equal times, x != x'"])
def test_kernel_expansion_matches_finite_differences(geom, rho, x, x_p, tau, tau_p):
    # central differences of log k at s = 0, in the frame rolled to tau': the
    # gradient is i a, and the Hessian -(eps^2 / k0)(T + T^t) + a a^t with M
    # built densely as (1 + S Q)(1 - S Q)^-1 / 2
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=rho)
    v = delta_potential(geom)
    kappa = p.kappa0 - contour_shift(p, geom, v)
    lag = GRID.slice_index(tau) - GRID.slice_index(tau_p)
    k0, a, hess = _dense_kernel_hessian(p, geom, GRID, v, x, x_p, lag)
    dim = GRID.n_slices * geom.n_sites
    step = 1e-3 * np.eye(dim)

    def log_k(fields):
        fields = fields.reshape(-1, GRID.n_slices, geom.n_sites)
        return np.log(_duhamel_kernels(geom, GRID, fields, kappa, x, x_p, lag)[0])

    assert np.exp(log_k(np.zeros(dim))[0]) == pytest.approx(k0, rel=1e-12)
    first = (log_k(step) - log_k(-step)) / 2e-3
    assert np.max(np.abs(a)) > 1e-2  # the gradient is not trivially small
    assert np.max(np.abs(first.real)) < 1e-6
    assert np.max(np.abs(first.imag - a)) < 1e-6
    i, j = np.triu_indices(dim)
    fields = np.concatenate([si * step[i] + sj * step[j]
                             for si, sj in [(1, 1), (1, -1), (-1, 1), (-1, -1)]])
    log_f = log_k(fields).reshape(4, -1)
    second = (log_f[0] - log_f[1] - log_f[2] + log_f[3]) / (4 * 1e-3**2)
    assert np.max(np.abs(hess)) > 1e-4
    assert np.max(np.abs(second.imag)) < 1e-6
    assert np.max(np.abs(second.real - hess[i, j])) < 1e-6


@pytest.mark.parametrize("geom, n_slices, x, x_p, lag", [
    (TorusGeometry(dimension=1, sites_per_side=3), 15, 0, 1, 4),
    (TorusGeometry(dimension=1, sites_per_side=3), 15, 2, 2, 0),
    (G2, 32, 0, 1, 8), (G22, 8, 0, 3, 3),
], ids=["3 sites, odd slices", "3 sites, equal times", "2 sites", "2x2 torus"])
def test_kernel_control_matches_dense_forms(geom, n_slices, x, x_p, lag):
    # g_n per field against a dense B = H + Hessian of log k, and E[g_n]
    # against a dense slogdet and solve of 1 - C B
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=0.3)
    grid = TimeGrid(nu=1.0, n_slices=n_slices)
    v = wrapped_gaussian_potential(geom, width=0.7)
    c = contour_shift(p, geom, v)
    sigma = sample_sigma(p, geom, grid, v, 300, np.random.default_rng(2))
    control = _gaussian_control(p, geom, grid, v, sigma, c)[0]
    got, got_mean = _kernel_control(p, geom, grid, v, sigma, c, x, x_p, lag, control)

    k0, a, hess_k = _dense_kernel_hessian(p, geom, grid, v, x, x_p, lag)
    hess = _dense_hessian(p, geom, grid, v) + hess_k
    w0 = _zero_field_weight(p, geom, v, grid)
    want = (k0 * w0 * np.exp(0.5 * _quadratic_form(hess, sigma))
            * np.cos(sigma.reshape(len(sigma), -1) @ a))
    assert np.max(np.abs(got / want - 1.0)) < 1e-12
    want_mean = k0 * w0 * _dense_gaussian_mean(hess, _slice_covariance(p, grid, v), a)
    assert got_mean == pytest.approx(want_mean, rel=1e-12)


@pytest.mark.parametrize("geom, n_max, x, x_p, tau", [
    (G2, 20, 0, 1, 0.25), (G2, 20, 0, 0, 0.0), (G22, 12, 0, 1, 0.25), (G22, 12, 0, 0, 0.0),
], ids=["2 sites", "2 sites, equal times", "2x2 torus", "2x2 torus, equal times"])
def test_duhamel_control_errors_are_honest(geom, n_max, x, x_p, tau):
    # seeds 0-119 at the benchmark point: the quoted batch-means error of the
    # corrected ratio matches the spread over seeds, and the seed mean sits on
    # the exact two-point function.  Over 120 seeds the ratio quoted / spread
    # has an sd of about 0.06-0.08, so the 25 % window spans 3-4 of them; over
    # 30 seeds a correct estimator fell outside it in 5-13 % of windows
    v = delta_potential(geom)
    if tau == 0.0:
        exact = gamma1_exact(BENCH, geom, v, n_max=n_max)[x, x_p]
    else:
        exact = duhamel_exact(BENCH, geom, v, n_max, tau, x, 0.0, x_p)
    ests = [estimate_duhamel(BENCH, geom, GRID, v, x, x_p, tau=tau, n_samples=2000, seed=s)
            for s in range(120)]
    values = np.array([e.value.real for e in ests])
    spread = values.std(ddof=1)
    quoted = np.sqrt(np.mean([e.stderr**2 for e in ests]))
    assert abs(quoted / spread - 1) < 0.25, (quoted, spread)
    assert abs(values.mean() - exact) < 4 * spread / np.sqrt(len(values))
    # the controls are what shrink the error: the plain ratio quotes wider
    assert np.mean([e.extra["plain_stderr"] for e in ests]) > 1.5 * quoted


def test_duhamel_at_a_later_tau_p_matches_oracle():
    # the controls of fields rolled to tau' = 0.25: G(0.75, 0; 0.25, 1)
    v = delta_potential(G2)
    want = duhamel_exact(BENCH, G2, v, 20, 0.75, 0, 0.25, 1)
    est = estimate_duhamel(BENCH, G2, GRID, v, 0, 1, tau=0.75, tau_p=0.25,
                           n_samples=20000, seed=12)
    assert est.stderr_re < 0.5 * est.extra["plain_stderr"]
    assert abs(est.value.real - want) < 4 * est.stderr_re


def test_kernel_control_without_a_mean_is_refused(monkeypatch):
    # a gradient a large enough that 1 - C B is indefinite: E[g_n] does not
    # exist, and the estimator says so instead of returning a number
    import bosegas.hsfield as hs

    expansion = hs._kernel_expansion

    def steep(*args):
        k0, a, left, right, m_modes = expansion(*args)
        return k0, 100.0 * a, left, right, m_modes

    monkeypatch.setattr(hs, "_kernel_expansion", steep)
    with pytest.raises(ValueError, match="not positive definite.*x' = 1"):
        estimate_duhamel(BENCH, G2, GRID, delta_potential(G2), 0, 1, tau=0.25,
                         n_samples=100, seed=0)


def test_duhamel_reports_the_sign_and_keeps_its_estimate():
    v = delta_potential(G2)
    est = estimate_duhamel(BENCH, G2, GRID, v, 0, 1, tau=0.25, n_samples=500, seed=11)
    # the estimate is the corrected ratio, recomputed from dense forms on the
    # same fields (at tau' = 0 they need no roll)
    c = contour_shift(BENCH, G2, v)
    sigma = sample_sigma(BENCH, G2, GRID, v, 500, np.random.default_rng(11))
    kernels, gamma = _duhamel_kernels(G2, GRID, sigma, BENCH.kappa0 - c, 0, 1, 8)
    weights = _field_weights(BENCH, G2, GRID, v, sigma, gamma, c)
    numer, weights = (kernels * weights).real, weights.real
    w0 = _zero_field_weight(BENCH, G2, v)
    cov = _slice_covariance(BENCH, GRID, v)
    hess = _dense_hessian(BENCH, G2, GRID, v)
    k0, a, hess_k = _dense_kernel_hessian(BENCH, G2, GRID, v, 0, 1, 8)
    control = w0 * np.exp(0.5 * _quadratic_form(hess, sigma))
    mean = w0 * _dense_gaussian_mean(hess, cov, np.zeros_like(a))
    numer_control = (k0 * w0 * np.exp(0.5 * _quadratic_form(hess + hess_k, sigma))
                     * np.cos(sigma.reshape(500, -1) @ a))
    numer_mean = k0 * w0 * _dense_gaussian_mean(hess + hess_k, cov, a)
    want = ratio_estimate(numer - numer_control + numer_mean, weights - control + mean)
    assert est.value == pytest.approx(want.value, rel=1e-12)
    assert est.stderr_re == pytest.approx(want.stderr_re, rel=1e-9)
    assert est.extra["gauss_mean"] == pytest.approx(numer_mean / mean, rel=1e-12)
    plain = ratio_estimate(numer, weights)
    assert est.extra["plain_stderr"] == pytest.approx(plain.stderr, rel=1e-12)
    assert est.stderr_re < plain.stderr
    assert est.value.imag == 0.0 and est.stderr_im == 0.0
    # at tau' = 0 the fields are those of estimate_xi_rel at the same seed
    w = estimate_xi_rel(BENCH, G2, GRID, v, 500, seed=11).extra["weights"]
    assert est.ess == pytest.approx(plain.ess, rel=1e-12)
    assert est.extra["mean_abs_weight"] == pytest.approx(np.mean(np.abs(w)), rel=1e-12)
    assert est.extra["avg_sign"] == pytest.approx(
        min(1.0, abs(np.mean(w)) / np.mean(np.abs(w))), rel=1e-12)
    free = estimate_duhamel(FREE, G2, GRID, v, 0, 1, n_samples=10)
    assert free.extra["avg_sign"] == free.extra["mean_abs_weight"] == 1.0
