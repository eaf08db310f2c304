"""End-to-end acceptance checks: every route against its oracle, one per test.

Each test prints a single PASS/FAIL line so a plain pytest -s run doubles as a
readable scorecard.
"""

import numpy as np
import pytest

from bosegas.fock import gamma1_exact, xi_exact
from bosegas.hsfield import (estimate_duhamel, estimate_xi_rel, sample_sigma,
                             wick_rho, _log_det_ratio)
from bosegas.lattice import (CirclePotential, ModelParams, TimeGrid,
                             TorusGeometry, delta_potential)
from bosegas.limits import (classical_limit_sweep, largeN_check,
                            meanfield_sweep)
from bosegas.loopgas import xi_rel_series
from bosegas.mayer import log_xi_rel_partial, ursell_coefficient
from bosegas.meanfield import field_quadrature_1site, sample_gibbs_field, z_via_eta
from bosegas.propagators import free_green, monodromy_batch
from determinant_identities import det_identity_residual
from eta_quadrature import action_S_eta_closed
from field_reference import two_point

G2 = TorusGeometry(dimension=1, sites_per_side=2)
V2 = delta_potential(G2)
GRID32 = TimeGrid(nu=1.0, n_slices=32)
BENCH = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)


def _report(name, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_free_gas_exact():
    """All four routes reproduce the ideal gas to 1e-12 with zero variance."""
    free = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.0)
    worst = 0.0
    hs = estimate_xi_rel(free, G2, GRID32, V2, 64)
    worst = max(worst, abs(hs.value - 1.0), hs.stderr)
    lg = xi_rel_series(free, G2, GRID32, V2, 4, 50, 64)
    worst = max(worst, abs(lg.value - 1.0), lg.stderr)
    b2 = ursell_coefficient(2, free, G2, GRID32, V2, 8, 64)
    worst = max(worst, abs(b2.value), b2.stderr)
    mf = z_via_eta(free, G2, V2, 64)
    worst = max(worst, abs(mf.value - 1.0), mf.stderr)
    oracle = xi_exact(free, G2, V2, n_max=35)
    worst = max(worst, abs(oracle.xi_rel - 1.0))
    fg = free_green(G2, 1.0, 1.0)
    worst = max(worst, float(np.max(np.abs(
        gamma1_exact(free, G2, V2, n_max=35) - fg))))
    d = estimate_duhamel(free, G2, GRID32, V2, 0, 1, n_samples=8)
    worst = max(worst, abs(d.value - fg[0, 1]), d.stderr)
    _report("free-gas exactness", worst < 1e-12, f"worst deviation {worst:.2e}")


def test_criterion_hs_vs_oracle():
    """Auxiliary-field Xi_rel within 3 sigma of the exact trace, stable in n_tau."""
    oracle = xi_exact(BENCH, G2, V2, n_max=20).xi_rel
    est = estimate_xi_rel(BENCH, G2, GRID32, V2, 100_000, seed=0)
    dev = abs(est.value.real - oracle)
    sig = max(est.stderr_re, 1e-6)
    est64 = estimate_xi_rel(BENCH, G2, TimeGrid(nu=1.0, n_slices=64), V2,
                            100_000, seed=0)
    drift = abs(est64.value.real - est.value.real) / oracle
    ok = dev < 3 * sig and drift < 0.01
    _report("auxiliary field vs exact trace", ok,
            f"dev {dev:.5f} vs 3 sigma {3 * sig:.5f}, "
            f"slice-doubling drift {100 * drift:.2f}%")


def test_criterion_loopgas_vs_oracle():
    """Loop-gas Xi_rel within 3 sigma of the exact trace."""
    oracle = xi_exact(BENCH, G2, V2, n_max=20).xi_rel
    est = xi_rel_series(BENCH, G2, GRID32, V2, 6, 6, 8000, seed=1)
    dev = abs(est.value.real - oracle)
    sig = max(est.stderr_re, 1e-4)
    ok = dev < 3 * sig and not est.extra["truncation_flag"]
    _report("loop gas vs exact trace", ok,
            f"dev {dev:.5f} vs 3 sigma {3 * sig:.5f}")


def test_criterion_damping_bounds():
    """Xi_rel <= 1 and Re(-D) <= 0 across a coupling/temperature grid."""
    violations = 0
    checked = 0
    rng = np.random.default_rng(4)
    for lam0 in (0.25, 0.5, 1.0):
        for nu in (0.5, 1.0, 2.0):
            p = ModelParams(nu=nu, kappa0=1.0, lambda0=lam0)
            grid = TimeGrid(nu=nu, n_slices=32)
            est = estimate_xi_rel(p, G2, grid, V2, 10_000,
                                  seed=int(rng.integers(1 << 30)))
            if est.value.real > 1.0 + 3 * max(est.stderr_re, 1e-6):
                violations += 1
            sigma = sample_sigma(p, G2, grid, V2, 2000, rng)
            gam = monodromy_batch(G2, grid, sigma)
            dvals = _log_det_ratio(G2, nu, 1.0, gam)
            checked += len(dvals)
            violations += int(np.sum(-dvals.real > 1e-10))
    _report("interaction damping bounds", violations == 0,
            f"{violations} violations over 9 parameter points, "
            f"{checked} field samples")


@pytest.mark.parametrize("route", ["hs", "loopgas", "mayer"])
def test_routes_match_oracle_at_nonzero_density(route):
    """At rho = 0.3 every route reads the shifted model the exact trace sees."""
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=0.3)
    want = xi_exact(p, G2, V2, n_max=20).xi_rel
    allowance = 0.0
    if route == "hs":
        est = estimate_xi_rel(p, G2, GRID32, V2, 20_000, seed=0)
    elif route == "loopgas":
        est = xi_rel_series(p, G2, GRID32, V2, 8, 8, 4000, seed=0)
    else:
        est = log_xi_rel_partial(p, G2, GRID32, V2, 4, 8, 4000, seed=0)
        want = np.log(want)
        allowance = 0.01 * abs(want)  # orders beyond the fourth
    dev = abs(est.value.real - want)
    tol = 4 * est.stderr_re + allowance
    _report(f"{route} at rho = 0.3 vs exact trace", dev < tol,
            f"{est.value.real:.5f} vs {want:.5f}, dev {dev:.5f}, tol {tol:.5f}")


def test_criterion_mayer_partial_sum():
    """Three cluster orders reproduce ln Xi_rel at weak coupling."""
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.25)
    want = np.log(xi_exact(p, G2, V2, n_max=16).xi_rel)
    est = log_xi_rel_partial(p, G2, GRID32, V2, 3, 6, 8000, seed=2)
    dev = abs(est.value.real - want)
    tol = max(0.01 * abs(want), 3 * est.stderr_re)
    free = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.0)
    frees = [ursell_coefficient(n, free, G2, GRID32, V2, 6, 32).value
             for n in (2, 3)]
    ok = dev < tol and all(b == 0.0 for b in frees)
    _report("cluster expansion vs exact trace", ok,
            f"dev {dev:.5f} vs tol {tol:.5f}, free higher orders {frees}")


def test_criterion_classical_limit():
    """Loop gas at shrinking nu approaches the classical point gas."""
    circle = TorusGeometry(dimension=1, mode="circle", circumference=4.0)
    v = CirclePotential(4.0, strength=1.0, width=0.5)
    sweep = classical_limit_sweep(0.5, 0.5, [0.4, 0.2, 0.1, 0.05], circle, v,
                                  samples=4096, seed=1)
    ok = sweep.monotone_decreasing and sweep.final_ok
    _report("classical particle limit", ok,
            "discrepancies " + ", ".join(f"{d:.4f}" for d in sweep.discrepancies)
            + f", final tol {sweep.final_tolerance}")


def test_criterion_meanfield_limit():
    """nu gamma_1 converges to the classical field moment as nu -> 0."""
    sweep = meanfield_sweep(0.5, 1.0, [0.5, 0.25, 0.125, 0.0625],
                            samples=40_000, seed=0)
    # the sweep's reference, the radial quadrature, against a Gibbs chain
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)
    g1 = TorusGeometry(dimension=1, sites_per_side=1)
    v1 = delta_potential(g1)
    mean, err = two_point(sample_gibbs_field(p, g1, v1, 20_000, seed=0).samples)
    gap = mean[0, 0, 0, 0].real - field_quadrature_1site(p, v1)["phi2"]
    cross_check = abs(gap) < 5 * err[0, 0, 0, 0]
    ok = sweep.monotone_decreasing and sweep.final_ok and cross_check
    _report("mean-field limit", ok,
            "discrepancies " + ", ".join(f"{d:.4f}" for d in sweep.discrepancies)
            + f", reference {sweep.extra['reference']:.6f}"
            + f", Gibbs - quadrature {gap:+.4f} +- {err[0, 0, 0, 0]:.4f}")


def test_criterion_large_N():
    """gamma_1 collapses onto the contour-shifted free gas as N grows."""
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.25,
                    rho=wick_rho(G2, 1.0, 1.0))
    sweep = largeN_check(p, G2, GRID32, V2, [4, 16, 64], samples=512, seed=0)
    ok = sweep.monotone_decreasing and sweep.final_ok
    _report("large-N limit", ok,
            "discrepancies " + ", ".join(f"{d:.5f}" for d in sweep.discrepancies)
            + f", 1/N-extrapolated {sweep.extra['extrapolated']:.5f}"
            + f", 3 sigma {sweep.final_tolerance:.5f}")


def test_criterion_det_identity():
    """Resolvent-integral determinant identity on random complex matrices."""
    rng = np.random.default_rng(7)
    worst = 0.0
    tried = 0
    while tried < 100:
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a += 4.5 * np.eye(4)
        if np.linalg.eigvalsh(a + a.conj().T).min() <= 0.1:
            continue
        worst = max(worst, det_identity_residual(a))
        tried += 1
    _report("determinant identity", worst < 1e-8,
            f"max relative residual {worst:.2e} over 100 matrices")


def test_criterion_eta_positivity():
    """Re S(eta) >= 0 everywhere sampled, and S equals log det(1 - i R eta)
    + i tr(R eta) from slogdet (on 2 sites the principal phase is exact);
    eta route matches quadrature."""
    rng = np.random.default_rng(8)
    r = np.linalg.inv(np.eye(2) - 0.5 * G2.laplacian_matrix())
    s_min, s_err = np.inf, 0.0
    for _ in range(1000):
        eta = 2.0 * rng.standard_normal(2)
        s = action_S_eta_closed(eta, G2, 1.0)
        sign, logabs = np.linalg.slogdet(np.eye(2) - 1j * r * eta)
        want = logabs + 1j * (np.angle(sign) + np.trace(r * eta))
        s_min = min(s_min, s.real)
        s_err = max(s_err, abs(s - want) / max(1.0, abs(want)))
    g1 = TorusGeometry(dimension=1, sites_per_side=1)
    v1 = delta_potential(g1)
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)
    est = z_via_eta(p, g1, v1, 40_000, seed=9)
    want = field_quadrature_1site(p, v1)["z_rel"]
    dev = abs(est.value.real - want)
    sig = 3 * max(est.stderr_re, 1e-5)
    ok = s_min >= -1e-12 and s_err <= 1e-12 and dev < sig
    _report("eta-representation positivity", ok,
            f"min Re S {s_min:.3e}, S vs slogdet {s_err:.1e}, "
            f"dev {dev:.5f} vs 3 sigma {sig:.5f}")
