import numpy as np
import pytest

from bosegas.lattice import ModelParams, TorusGeometry, delta_potential
from bosegas.meanfield import (action_S_eta, action_S_eta_closed, field_action,
                               field_quadrature_1site, sample_gibbs_field,
                               wick_constant, z_via_eta)
from bosegas.stats import batch_means

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
    mom = np.mean(np.abs(chain.samples) ** 2)
    tau = chain.autocorrelation_time()
    se = np.std(np.abs(chain.samples) ** 2) * np.sqrt(tau / len(chain.samples))
    assert abs(mom - 1.0) < 5 * se
    mean, _ = chain.two_point()
    assert mean.shape == (1, 1, 1, 1)


def test_two_point_errors_match_per_entry_batch_means():
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, n_species=2.0)
    chain = sample_gibbs_field(p, G2, delta_potential(G2), steps=400, seed=2)
    mean, se = chain.two_point()
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
    rng = np.random.default_rng(2)
    for _ in range(100):
        eta = 3.0 * rng.standard_normal(2)
        assert action_S_eta_closed(eta, G2, 1.0).real >= -1e-12


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
    assert est.extra["min_re_S"] >= 0.0


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
