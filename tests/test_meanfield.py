import numpy as np
import pytest

from bosegas.hsfield import sample_sigma
from bosegas.lattice import (ModelParams, TimeGrid, TorusGeometry, TwoBodyPotential,
                             delta_potential, wrapped_gaussian_potential)
from bosegas.meanfield import (GIBBS_THIN, field_quadrature_1site,
                               sample_gibbs_field, wick_constant, z_via_eta)
from bosegas.stats import batch_means
from eta_quadrature import action_S_eta, action_S_eta_closed
from field_reference import field_action, two_point

G1 = TorusGeometry(dimension=1, sites_per_side=1)
G2 = TorusGeometry(dimension=1, sites_per_side=2)


def test_wick_constant_values():
    assert wick_constant(G1, 1.0) == pytest.approx(1.0)
    # two sites: modes at kappa and kappa + 2
    assert wick_constant(G2, 1.0) == pytest.approx(0.5 * (1.0 + 1.0 / 3.0))
    with pytest.raises(ValueError):
        wick_constant(G1, 0.0)


def test_field_action_free_quadratic():
    p = ModelParams(nu=1.0, kappa0=2.0, lambda0=0.0)
    phi = np.array([[1.0 + 1.0j, 0.5]])
    # constant-free part: phibar (kappa - Lap/2) phi
    h = field_action(phi, p, G2, delta_potential(G2))
    hmat = 2.0 * np.eye(2) - 0.5 * G2.laplacian_matrix()
    want = float(np.real(phi.conj() @ hmat @ phi.T).item())
    assert h == pytest.approx(want)


def test_field_action_quartic_shift():
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=2.0, rho=0.1)
    v = delta_potential(G1)
    c = wick_constant(G1, 1.0)
    r = 1.3
    phi = np.array([[r + 0.0j]])
    want = r**2 + 0.5 * 2.0 / 2.0 * (r**2 - c - 0.1) ** 2
    assert field_action(phi, p, G1, v) == pytest.approx(want)


def test_gibbs_free_moment():
    # free complex Gaussian: <|phi|^2> = wick constant
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.0)
    chain = sample_gibbs_field(p, G1, delta_potential(G1), steps=6000, seed=0)
    assert not chain.tuning_failed
    mean, se = two_point(chain.samples)
    assert mean.shape == (1, 1, 1, 1)
    assert abs(mean[0, 0, 0, 0] - 1.0) < 5 * se[0, 0, 0, 0]


def test_two_point_errors_match_per_entry_batch_means():
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, n_species=2.0)
    chain = sample_gibbs_field(p, G2, delta_potential(G2), steps=400, seed=2)
    mean, se = two_point(chain.samples)
    assert se.shape == (2, 2, 2, 2)
    for a, x, b, y in np.ndindex(se.shape):
        series = chain.samples[:, a, x].conj() * chain.samples[:, b, y]
        want_mean, s_re, s_im = batch_means(series)
        assert mean[a, x, b, y] == pytest.approx(want_mean, rel=1e-12)
        assert se[a, x, b, y] == pytest.approx(np.hypot(s_re, s_im), rel=1e-12)
        assert se[a, x, b, y] > 0


def test_gibbs_chain_builds_laplacian_once(monkeypatch):
    # the action's matrices are built before the Metropolis loop, not per step
    calls = []
    build = TorusGeometry.laplacian_matrix
    monkeypatch.setattr(TorusGeometry, "laplacian_matrix",
                        lambda self: calls.append(1) or build(self))
    geom = TorusGeometry(dimension=1, sites_per_side=5)
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)
    sample_gibbs_field(p, geom, delta_potential(geom), steps=400, seed=1)
    assert len(calls) <= 1


def test_field_action_several_species():
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, n_species=2.0, rho=0.3)
    v = delta_potential(G2)
    phi = np.array([[0.4 - 1.1j, 0.9 + 0.2j], [-0.3 + 0.5j, 1.2 - 0.7j]])
    hmat = np.eye(2) - 0.5 * G2.laplacian_matrix()
    kinetic = sum(np.real(phi[a].conj() @ hmat @ phi[a]) for a in range(2))
    dens = np.sum(np.abs(phi)**2, axis=0) - 2 * wick_constant(G2, 1.0) - 0.3
    want = kinetic + 0.5 / (2 * 3.0) * dens @ v.matrix() @ dens
    assert field_action(phi, p, G2, v) == pytest.approx(want, rel=1e-12)


def _explicit_action(phi, params, geom, v):
    """h(phi) summed as written: kinetic form plus the shifted density's quartic."""
    hmat = params.kappa0 * np.eye(geom.n_sites) - 0.5 * geom.laplacian_matrix()
    kinetic = float(np.real(np.einsum("ax,xy,ay->", phi.conj(), hmat, phi)))
    dens = (np.sum(np.abs(phi)**2, axis=0)
            - phi.shape[0] * wick_constant(geom, params.kappa0) - params.rho)
    return kinetic + 0.5 * params.lambda0 / (params.n_species + 1.0) * float(
        dens @ v.matrix() @ dens)


@pytest.mark.parametrize("geom, potential, params", [
    (G2, delta_potential, ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, n_species=2.0, rho=0.3)),
    (TorusGeometry(dimension=2, sites_per_side=2), wrapped_gaussian_potential,
     ModelParams(nu=1.0, kappa0=1.0, lambda0=2.0)),
    (TorusGeometry(dimension=3, sites_per_side=3), delta_potential,
     ModelParams(nu=1.0, kappa0=0.2, lambda0=2.0)),
], ids=["2sites_N2_rho0.3", "2x2_gaussian", "27sites"])
@pytest.mark.parametrize("kind", ["zero_density", "large_field"])
def test_field_action_where_the_expanded_quartic_cancels(geom, potential, params, kind):
    # at |phi|^2 = N c + rho per site the quartic's expanded terms cancel to
    # about zero; at |phi| ~ 30 they are each ~ 30^4 times the coupling
    rng = np.random.default_rng(4)
    n_comp, v = int(params.n_species), potential(geom)
    phi = rng.standard_normal((n_comp, geom.n_sites)) + 1j * rng.standard_normal(
        (n_comp, geom.n_sites))
    phi /= np.linalg.norm(phi, axis=0)
    if kind == "zero_density":
        phi *= np.sqrt(n_comp * wick_constant(geom, params.kappa0) + params.rho)
    else:
        phi *= 30.0 * (1.0 + 0.1 * rng.standard_normal(geom.n_sites))
    want = _explicit_action(phi, params, geom, v)
    assert field_action(phi, params, geom, v) == pytest.approx(want, rel=1e-12)


def _complex_state_chain(params, geom, v, steps, seed):
    """Reference Gibbs chain on the complex state phi: two standard_normal
    draws per proposal (real, then imaginary) and an einsum action."""
    rng = np.random.default_rng(seed)
    hmat = -0.5 * geom.laplacian_matrix() + params.kappa0 * np.eye(geom.n_sites)
    c, vmat = wick_constant(geom, params.kappa0), v.matrix()

    def action(phi):
        kinetic = float(np.real(np.einsum("ax,xy,ay->", phi.conj(), hmat, phi)))
        dens = np.sum(np.abs(phi)**2, axis=0) - phi.shape[0] * c - params.rho
        return kinetic + 0.5 * params.lambda0 / (params.n_species + 1.0) * float(
            dens @ vmat @ dens)

    phi = np.zeros((int(params.n_species), geom.n_sites), dtype=complex)
    energy, step = action(phi), 1.0 / np.sqrt(params.kappa0)
    burn = max(200, steps // 5)
    accepted = window = total_acc = 0
    kept = []
    for it in range(burn + steps):
        prop = phi + step * (rng.standard_normal(phi.shape)
                             + 1j * rng.standard_normal(phi.shape))
        e_new = action(prop)
        if np.log(rng.random()) < energy - e_new:
            phi, energy = prop, e_new
            accepted += 1
            if it >= burn:
                total_acc += 1
        window += 1
        if it >= burn:
            if (it - burn) % GIBBS_THIN == 0:
                kept.append(phi)
        elif window == 50:
            rate = accepted / window
            if rate < 0.30:
                step *= 0.7
            elif rate > 0.60:
                step *= 1.4
            accepted = window = 0
    acc = total_acc / steps
    return np.array(kept), acc, step, not (0.05 <= acc <= 0.95)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("geom, params, steps", [
    (G1, ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5), 100),
    (G2, ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, n_species=2.0), 100),
    (G2, ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=0.3), 100),
    # a burn-in under 350 steps (1750 // 5) leaves the step too long here
    # for the chain to accept a move
    (TorusGeometry(dimension=3, sites_per_side=3),
     ModelParams(nu=1.0, kappa0=0.2, lambda0=2.0), 1750),
    # the benchmark's own chain
    (G1, ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5), 1000),
], ids=["1site", "2sites_N2", "2sites_rho0.3", "27sites", "1site_1000steps"])
def test_gibbs_chain_matches_the_complex_state_chain(geom, params, steps, seed):
    # the real (Re, Im) state draws the complex-state chain, bit for bit
    v = delta_potential(geom)
    chain = sample_gibbs_field(params, geom, v, steps, seed=seed)
    samples, acc, step, failed = _complex_state_chain(params, geom, v, steps, seed)
    assert not failed
    assert chain.samples.shape == samples.shape
    assert np.array_equal(chain.samples, samples)
    assert (chain.acceptance, chain.step_size, chain.tuning_failed) == (
        acc, step, failed)


def test_eta_action_zero_field():
    assert action_S_eta_closed(np.zeros(2), G2, 1.0) == pytest.approx(0.0)


def test_eta_action_quadrature_matches_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(3):
        eta = rng.standard_normal(2)
        want = action_S_eta_closed(eta, G2, 1.0)
        got, flag = action_S_eta(eta, G2, 1.0)
        assert not flag
        assert got == pytest.approx(want, abs=1e-7)


def test_eta_action_nonnegative_real_part():
    # Re S = log |det(1 - i R eta)| free of any branch; on 2 sites the phase of
    # det(1 - i R eta) is minus a sum of two arctangents, so the principal
    # angle is Im S - tr(R eta) too
    rng = np.random.default_rng(2)
    r = _r_matrix(G2, 1.0)
    for _ in range(100):
        eta = 3.0 * rng.standard_normal(2)
        s = action_S_eta_closed(eta, G2, 1.0)
        sign, logabs = np.linalg.slogdet(np.eye(2) - 1j * r * eta)
        assert s.real >= -1e-12
        assert s.real == pytest.approx(logabs, rel=1e-12, abs=1e-12)
        assert s.imag == pytest.approx(np.angle(sign) + np.trace(r * eta),
                                       rel=1e-12, abs=1e-12)


def test_z_via_eta_free():
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.0)
    est = z_via_eta(p, G2, delta_potential(G2), 100)
    assert est.value == 1.0 + 0.0j and est.stderr == 0.0


def test_z_via_eta_matches_quadrature():
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)
    v = delta_potential(G1)
    want = field_quadrature_1site(p, v)["z_rel"]
    est = z_via_eta(p, G1, v, 40000, seed=3)
    assert abs(est.value.real - want) < 4 * max(est.stderr_re, 1e-4)


@pytest.mark.parametrize("rho", [0.3, 1.0])
def test_z_via_eta_matches_quadrature_off_zero_density(rho):
    # the shift -rho of the density leaves the phase exp(-i rho sum eta)
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=rho)
    v = delta_potential(G1)
    want = field_quadrature_1site(p, v)["z_rel"]
    est = z_via_eta(p, G1, v, 40000, seed=3)
    assert abs(est.value.real - want) < 4 * est.stderr_re


def test_gibbs_rejects_non_integer_species():
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, n_species=0.5)
    with pytest.raises(ValueError):
        sample_gibbs_field(p, G1, delta_potential(G1), steps=10)


def test_quadrature_free_limit():
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.0)
    out = field_quadrature_1site(p, delta_potential(G1))
    assert out["z_rel"] == pytest.approx(1.0, abs=1e-10)
    assert out["phi2"] == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# the Gaussian control variate g(eta) = exp(-(N/2) eta.Q eta) cos(rho sum eta)

G3 = TorusGeometry(dimension=3, sites_per_side=3)


def _r_matrix(geom, kappa0):
    return np.linalg.inv(kappa0 * np.eye(geom.n_sites) - 0.5 * geom.laplacian_matrix())


def _q_matrix(geom, kappa0):
    return _r_matrix(geom, kappa0) ** 2


def _eta_stack(params, v, samples, seed):
    cov = params.lambda0 / (params.n_species + 1.0) * v.matrix()
    evals, evecs = np.linalg.eigh(cov)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    return np.random.default_rng(seed).standard_normal((samples, len(cov))) @ root.T


@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
def test_gauss_mean_matches_1site_integral(rho):
    from scipy.integrate import quad

    p = ModelParams(nu=1.0, kappa0=0.8, lambda0=0.5, rho=rho)
    q = _q_matrix(G1, 0.8)[0, 0]
    var = 0.5 / 2.0
    want = quad(lambda x: np.exp(-0.5 * q * x * x - 0.5 * x * x / var)
                * np.cos(rho * x), -np.inf, np.inf,
                epsabs=1e-13, epsrel=1e-13)[0] / np.sqrt(2 * np.pi * var)
    got = z_via_eta(p, G1, delta_potential(G1), 10).extra["gauss_mean"]
    assert abs(got - want) < 1e-10


def test_gauss_mean_matches_sampled_mean_on_2x2_torus():
    # a wrapped Gaussian pair potential gives eta a non-diagonal covariance
    from bosegas.lattice import wrapped_gaussian_potential

    geom = TorusGeometry(dimension=2, sites_per_side=2)
    v = wrapped_gaussian_potential(geom)
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=0.3, n_species=2.0)
    etas = _eta_stack(p, v, 10**6, seed=5)
    g = (np.exp(-0.5 * p.n_species * np.sum((etas @ _q_matrix(geom, 1.0)) * etas, axis=1))
         * np.cos(p.rho * etas.sum(axis=1)))
    want = z_via_eta(p, geom, v, 10).extra["gauss_mean"]
    assert abs(g.mean() - want) < 4 * g.std() / np.sqrt(len(g))


@pytest.mark.parametrize("geom, params", [
    (G2, ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)),
    (G3, ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)),
    (G2, ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=0.3)),
    (G2, ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, n_species=2.0)),
    (G2, ModelParams(nu=1.0, kappa0=0.5, lambda0=2.0, n_species=0.5)),
    (G3, ModelParams(nu=1.0, kappa0=0.2, lambda0=2.0, n_species=0.5)),
], ids=["2sites", "27sites", "rho0.3", "N2", "N0.5_2sites", "N0.5_27sites"])
def test_control_variate_matches_plain_weight_mean(geom, params):
    # plain mean of the weights w on an independent eta stack
    v = delta_potential(geom)
    etas = _eta_stack(params, v, 8000, seed=11)
    s_vals = action_S_eta_closed(etas, geom, params.kappa0)
    w = np.exp(-params.n_species * s_vals - 1j * params.rho * etas.sum(axis=1)).real
    plain_se = w.std() / np.sqrt(len(w))
    est = z_via_eta(params, geom, v, 4000, seed=3)
    assert est.value.imag == 0.0
    assert abs(est.value.real - w.mean()) < 4 * np.hypot(est.stderr_re, plain_se)
    assert est.stderr_re < est.extra["weights_stderr"]


@pytest.mark.parametrize("seed", range(5))
def test_control_variate_cuts_the_error_at_the_cli_field_point(seed):
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)
    est = z_via_eta(p, G1, delta_potential(G1), 4000, seed=seed)
    assert est.extra["weights_stderr"] / est.stderr_re >= 3.0


def test_closed_form_eta_action_is_analytic_on_27_sites():
    # this field's det(1 - i R eta) winds past the principal branch; the
    # quadrature follows S analytically from eta = 0, and so does the closed form
    eta = np.sqrt(2.0 / 1.5) * np.random.default_rng(7).standard_normal(27)
    closed = action_S_eta_closed(eta, G3, 0.2)
    analytic, flag = action_S_eta(eta, G3, 0.2)
    assert not flag
    assert analytic.real == pytest.approx(closed.real, abs=1e-7)
    assert analytic.imag == pytest.approx(closed.imag, abs=1e-7)


def test_closed_form_eta_action_follows_the_ray_from_zero():
    # log det(1 - i t R eta) continued in t from 0 to 1: 128 steps unwrap the
    # principal phase of each step, on fields whose determinant winds
    p = ModelParams(nu=1.0, kappa0=0.2, lambda0=2.0, n_species=0.5)
    etas = _eta_stack(p, delta_potential(G3), 2000, seed=0)[:64]
    m = _r_matrix(G3, 0.2) * etas[:, None, :]
    ts = np.arange(1, 129) / 128.0
    sign, logabs = np.linalg.slogdet(np.eye(27) - 1j * ts[:, None, None, None] * m)
    phase = np.unwrap(np.angle(sign), axis=0)[-1]
    ray = logabs[-1] + 1j * (phase + np.einsum("sii->s", m))
    assert np.max(np.abs(action_S_eta_closed(etas, G3, 0.2) - ray)) < 1e-10


def test_z_via_eta_takes_non_integer_species_past_two_sites():
    p = ModelParams(nu=1.0, kappa0=0.2, lambda0=2.0, n_species=0.5)
    est = z_via_eta(p, G3, delta_potential(G3), 100)
    assert np.isfinite(est.value.real) and est.stderr_re > 0.0


def test_both_routes_refuse_a_potential_that_is_not_positive_semidefinite():
    # nearest-neighbour v on the 4-site ring: modes 2 cos q = 2, 0, -2, 0
    g = TorusGeometry(dimension=1, sites_per_side=4)
    v = TwoBodyPotential(g, [0.0, 1.0, 0.0, 1.0])
    params = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        sample_sigma(params, g, TimeGrid(nu=1.0, n_slices=4), v, 10,
                     np.random.default_rng(0))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        z_via_eta(params, g, v, 1000, seed=0)
