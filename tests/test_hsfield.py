import numpy as np
import pytest

from bosegas.fock import duhamel_exact, gamma1_exact, xi_exact
from bosegas.hsfield import (_field_weights, contour_shift,
                             det_identity_residual, estimate_duhamel,
                             estimate_xi_rel, sample_sigma, wick_rho,
                             winding_exponent)
from bosegas.lattice import (ModelParams, TimeGrid, TorusGeometry,
                             delta_potential, wrapped_gaussian_potential)
from bosegas.propagators import free_green, ideal_occupation, monodromy_batch
from bosegas.records import ExperimentConfig

G1 = TorusGeometry(dimension=1, sites_per_side=1)
G2 = TorusGeometry(dimension=1, sites_per_side=2)
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


def test_xi_rel_free_is_exact_one():
    v = delta_potential(G2)
    est = estimate_xi_rel(FREE, G2, GRID, v, 100)
    assert est.value == 1.0 + 0.0j
    assert est.stderr == 0.0


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
    assert est.value == pytest.approx(np.mean(w), rel=1e-12)
    assert est.extra["mean_abs_weight"] == pytest.approx(np.mean(np.abs(w)),
                                                         rel=1e-12)
    sign = est.extra["avg_sign"]
    assert 0.0 < sign <= 1.0
    assert sign == pytest.approx(abs(est.value) / est.extra["mean_abs_weight"],
                                 rel=1e-12)
    free = estimate_xi_rel(FREE, G2, GRID, v, 100)
    assert free.extra["avg_sign"] == 1.0


def test_duhamel_free_is_exact():
    v = delta_potential(G2)
    fg = free_green(G2, 1.0, 1.0)
    est = estimate_duhamel(FREE, G2, GRID, v, 0, 1, n_samples=10)
    assert est.value == pytest.approx(fg[0, 1], abs=1e-12)
    assert est.stderr == 0.0
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
    # built with the inverse is a sharp per-field reference
    # on the shifted contour: kappa0 -> kappa0 - c, real parts averaged
    v = delta_potential(G2)
    c = contour_shift(BENCH, G2, v)
    sigma = sample_sigma(BENCH, G2, GRID, v, 200, np.random.default_rng(3))
    gamma, pre = monodromy_batch(G2, GRID, sigma, keep_prefixes=[8, 24])
    m = np.exp(-(1.0 - c)) * gamma
    resolvent = np.linalg.inv(np.eye(2) - m)
    weights = _field_weights(BENCH, G2, GRID, v, sigma, gamma, c)
    for tau, j_hi, core in [(0.75, 24, np.exp(-0.5 * (1.0 - c)) * resolvent),
                            (0.25, 8, m @ resolvent)]:
        kernels = (pre[j_hi] @ core @ np.linalg.inv(pre[8]))[:, 0, 1]
        want = np.sum((kernels * weights).real) / np.sum(weights.real)
        est = estimate_duhamel(BENCH, G2, GRID, v, 0, 1, tau=tau, tau_p=0.25,
                               n_samples=200, seed=3)
        assert est.value == pytest.approx(want, rel=1e-10)


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
        gamma, pre = monodromy_batch(G2, GRID, s, keep_prefixes=[8])
        m = np.exp(-(1.0 - c)) * gamma
        kernels = (pre[8] @ np.linalg.inv(np.eye(2) - m))[:, 0, 1]
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
    v = delta_potential(G2)
    for rho, sign in [(0.0, -1.0), (0.3, -1.0), (5.0, 1.0)]:
        p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=rho)
        c = contour_shift(p, G2, v)
        assert sign * c > 0.0 and c < p.kappa0
        rhs = -p.lam * (ideal_occupation(G2, 1.0, p.kappa0 - c) - rho)
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
