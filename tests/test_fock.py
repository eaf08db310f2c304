import numpy as np
import pytest

from bosegas.fock import (MAX_BASIS, OccupationBasis, build_hamiltonian,
                          duhamel_exact, gamma1_exact, xi_exact)
from bosegas.hsfield import estimate_xi_rel
from bosegas.lattice import (CapacityError, ModelParams, TimeGrid, TorusGeometry,
                             delta_potential)
from bosegas.loopgas import xi_rel_series
from bosegas.propagators import free_green, free_log_trace

G1 = TorusGeometry(dimension=1, sites_per_side=1)
G2 = TorusGeometry(dimension=1, sites_per_side=2)
IDEAL = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.0)


def test_basis_counting():
    basis = OccupationBasis(G2, 1, 4)
    # occupation vectors (n0, n1) with n0 + n1 <= 4
    assert len(basis) == 15
    # 65 states, but their sort codes need 66 base-2 digits: past int64
    with pytest.raises(CapacityError, match="overflow int64"):
        OccupationBasis(TorusGeometry(dimension=3, sites_per_side=4), 1, 1)
    with pytest.raises(CapacityError):
        OccupationBasis(G2, 3, 2)
    with pytest.raises(CapacityError):
        OccupationBasis(TorusGeometry(dimension=2, sites_per_side=2), 2, 40)


def test_annihilator_ccr_below_cutoff():
    basis = OccupationBasis(G1, 1, 6)
    b = basis.annihilator(0).toarray()
    comm = b @ b.T - b.T @ b
    # exact canonical commutator except on the top (truncated) state
    assert np.allclose(np.diag(comm)[:-1], 1.0)
    assert np.allclose(np.diag(b.T @ b), np.arange(7))


def test_hamiltonian_hermitian():
    v = delta_potential(G2)
    op = build_hamiltonian(ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5),
                           G2, v, 8)
    assert op.hermiticity_residual() < 1e-12


def test_xi_ideal_single_site():
    # geometric series: Xi = 1 / (1 - e^-1)
    res = xi_exact(IDEAL, G1, delta_potential(G1), n_max=40)
    assert res.xi == pytest.approx(1.0 / (1 - np.exp(-1)), abs=1e-12)
    assert res.xi_rel == pytest.approx(1.0, abs=1e-12)
    assert not res.drift_warning


def test_xi_ideal_two_sites():
    # mode energies kappa + eps_k = 1 and 3
    want = 1.0 / ((1 - np.exp(-1)) * (1 - np.exp(-3)))
    res = xi_exact(IDEAL, G2, delta_potential(G2), n_max=30)
    assert res.xi == pytest.approx(want, abs=1e-12)
    assert np.exp(free_log_trace(G2, 1.0, 1.0)) == pytest.approx(want, rel=1e-12)


def test_xi_two_species_factorizes_when_free():
    v = delta_potential(G2)
    one = xi_exact(IDEAL, G2, v, n_max=12)
    two = xi_exact(ModelParams(nu=1.0, kappa0=1.0, lambda0=0.0, n_species=2.0),
                   G2, v, n_max=12)
    # truncation couples the species through the shared total-number cutoff,
    # so only agreement at the truncation-tail level is expected
    assert two.xi == pytest.approx(one.xi**2, rel=1e-4)


def test_oracle_rejects_non_integer_species():
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, n_species=1.5)
    with pytest.raises(CapacityError):
        xi_exact(p, G2, delta_potential(G2), n_max=8)


def test_interaction_lowers_xi():
    v = delta_potential(G2)
    free = xi_exact(IDEAL, G2, v, n_max=16)
    inter = xi_exact(ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5), G2, v,
                     n_max=16)
    assert inter.xi < free.xi
    assert 0.0 < inter.xi_rel < 1.0


def test_gamma1_ideal_is_free_green():
    v = delta_potential(G2)
    gam = gamma1_exact(IDEAL, G2, v, n_max=30)
    assert np.allclose(gam, free_green(G2, 1.0, 1.0), atol=1e-10)


def test_duhamel_ideal_spectral_formula():
    # single site: G(s) = e^-s sum_{l>=0} e^-l = e^-s / (1 - e^-1)
    v = delta_potential(G1)
    for s in (0.25, 0.5, 0.75):
        got = duhamel_exact(IDEAL, G1, v, 40, s, 0, 0.0, 0)
        assert got == pytest.approx(np.exp(-s) / (1 - np.exp(-1)), abs=1e-10)


def test_duhamel_equal_times_is_gamma1():
    v = delta_potential(G2)
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)
    gam = gamma1_exact(p, G2, v, n_max=12)
    for x, xp in [(0, 0), (0, 1)]:
        assert duhamel_exact(p, G2, v, 12, 0.0, x, 0.0, xp) == pytest.approx(
            gam[x, xp], abs=1e-10)


def test_duhamel_domain_errors():
    v = delta_potential(G1)
    with pytest.raises(ValueError):
        duhamel_exact(IDEAL, G1, v, 10, 1.0, 0, 0.0, 0)   # tau must be < nu
    with pytest.raises(ValueError):
        duhamel_exact(IDEAL, G1, v, 10, 0.25, 0, 0.5, 0)  # needs tau' <= tau


def test_interacting_benchmark_regression():
    # two sites, on-site coupling 0.5: values pinned by agreement with the
    # auxiliary-field and loop-gas routes
    v = delta_potential(G2)
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)
    res = xi_exact(p, G2, v, n_max=20)
    assert res.xi_rel == pytest.approx(0.848556, abs=5e-6)
    gam = gamma1_exact(p, G2, v, n_max=20)
    assert gam[0, 0] == pytest.approx(0.182975, abs=5e-6)
    assert duhamel_exact(p, G2, v, 20, 0.25, 0, 0.0, 1) == pytest.approx(
        0.247280, abs=5e-6)


def test_xi_rel_divides_by_the_untruncated_free_trace():
    # strong repulsion at kappa0 0.5: Xi converges fast in n_max, the free
    # trace slowly, so a truncated free trace drifts while the reported drift
    # stays tiny; the untruncated one leaves Xi's truncation as the only error
    v = delta_potential(G2)
    p = ModelParams(nu=1.0, kappa0=0.5, lambda0=2.0)
    low, high = xi_exact(p, G2, v, n_max=14), xi_exact(p, G2, v, n_max=18)
    assert abs(low.xi_rel - high.xi_rel) <= low.truncation_drift * low.xi_rel + 1e-12
    free = xi_exact(ModelParams(nu=1.0, kappa0=0.5, lambda0=0.0), G2, v, n_max=14)
    assert low.xi_free == pytest.approx(free.xi, rel=1e-12)


def test_oracle_referees_both_routes_on_the_3x3_torus():
    # the first torus with 3 sites per side, where bonds are not doubled:
    # 2002 states at n_max 5, truncation drift 1.8e-5
    g33 = TorusGeometry(dimension=2, sites_per_side=3)
    v = delta_potential(g33)
    p = ModelParams(nu=1.0, kappa0=2.0, lambda0=0.5)
    res = xi_exact(p, g33, v, n_max=5)
    slack = res.truncation_drift * res.xi_rel
    hs = estimate_xi_rel(p, g33, TimeGrid(nu=1.0, n_slices=8), v, 2000, seed=1)
    assert abs(hs.value.real - res.xi_rel) < 4 * hs.stderr + slack
    loops = xi_rel_series(p, g33, TimeGrid(nu=1.0, n_slices=16), v, 6, 6, 2000, seed=1)
    assert (abs(loops.value.real - res.xi_rel)
            < 4 * loops.stderr + slack + loops.extra["winding_tail"])


def test_capacity_cap_value():
    assert MAX_BASIS <= 10_000  # dense diagonalization stays desk-scale


G22 = TorusGeometry(dimension=2, sites_per_side=2)


def _truncated_free_trace(geom, kappa0, n_species, n_max):
    """Sum over N <= n_max of h_N over the one-particle levels, once per species."""
    levels = np.tile(kappa0 - 0.5 * np.linalg.eigvalsh(geom.laplacian_matrix()),
                     n_species)
    coeffs = np.zeros(n_max + 1)
    coeffs[0] = 1.0
    for e in levels:  # multiply by 1 / (1 - e^-e t), truncated at t^n_max
        for n in range(1, n_max + 1):
            coeffs[n] += np.exp(-e) * coeffs[n - 1]
    return coeffs.sum()


@pytest.mark.parametrize("n_species, n_max", [(1, 10), (2, 5)])
def test_xi_free_torus_is_truncated_closed_form(n_species, n_max):
    # 2 species at n_max = 10 would need 43 758 states, past MAX_BASIS
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.0, n_species=float(n_species))
    res = xi_exact(p, G22, delta_potential(G22), n_max=n_max)
    want = _truncated_free_trace(G22, 1.0, n_species, n_max)
    assert res.xi == pytest.approx(want, rel=1e-12)
    assert res.xi_free == res.xi


def test_kinetic_part_is_one_body_operator():
    p = ModelParams(nu=0.7, kappa0=1.3, lambda0=0.0, n_species=2.0)
    op = build_hamiltonian(p, G22, delta_potential(G22), 3)
    basis = op.basis
    h1 = -0.5 * G22.laplacian_matrix() + p.kappa0 * np.eye(4)
    want = np.zeros_like(op.matrix.toarray())
    for a in range(2):
        b = [basis.annihilator(x, a).toarray() for x in range(4)]
        for x in range(4):
            for y in range(4):
                want += p.nu * h1[x, y] * b[x].T @ b[y]
    assert np.allclose(op.matrix.toarray(), want, rtol=0, atol=1e-13)
    # the number-conserving H has no entries outside its sector blocks
    blocks = np.zeros(op.matrix.shape, dtype=bool)
    for s in basis.sectors:
        blocks[s, s] = True
    assert not np.any(op.matrix.toarray()[~blocks])


def test_truncation_drift_is_top_sector_share():
    p = ModelParams(nu=1.0, kappa0=0.5, lambda0=0.5)
    v = delta_potential(G22)
    top = xi_exact(p, G22, v, n_max=6)
    below = xi_exact(p, G22, v, n_max=5)
    assert top.truncation_drift > 1e-3
    assert top.truncation_drift == pytest.approx(1 - below.xi / top.xi, abs=1e-13)


@pytest.mark.parametrize("geom, params, n_max, n_species", [
    (G2, ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5), 20, 1),
    (G22, ModelParams(nu=1.0, kappa0=2.0, lambda0=0.5, n_species=2.0), 4, 2),
])
def test_duhamel_kms_boundary_is_gamma1(geom, params, n_max, n_species):
    # as tau -> nu the kernel ordering Tr(e^{-(nu-tau)H/nu} b_x e^{-tau H/nu} b_x'^dag)
    # becomes <b_x'^dag b_x>: the cross-sector path meets the in-sector one
    v = delta_potential(geom)
    gam = gamma1_exact(params, geom, v, n_max)
    tau = params.nu * (1 - 1e-9)
    for x in range(geom.n_sites):
        for xp in range(geom.n_sites):
            got = duhamel_exact(params, geom, v, n_max, tau, x, 0.0, xp)
            assert got == pytest.approx(gam[xp, x], abs=1e-8)
