import math

import numpy as np
import pytest
from scipy.integrate import quad

from bosegas.lattice import (CirclePotential, ModelParams, TorusGeometry,
                             UnsupportedModeError, delta_potential)
from bosegas.limits import (MAX_PARTICLES, QUAD_TOL, LimitSweep, activity_to_kappa,
                            classical_xi, largeN_check)

G1 = TorusGeometry(dimension=1, sites_per_side=1)
G2 = TorusGeometry(dimension=1, sites_per_side=2)
CIRCLE4 = TorusGeometry(dimension=1, mode="circle", circumference=4.0)


def test_sweep_verdict_logic():
    good = LimitSweep("nu", [0.4, 0.2], [0.2, 0.05], [0.01, 0.01], 0.1)
    assert good.monotone_decreasing and good.final_ok and good.verdict
    flat = LimitSweep("nu", [0.4, 0.2], [0.2, 0.19], [0.05, 0.05], 0.5)
    assert not flat.monotone_decreasing
    bad_final = LimitSweep("nu", [0.4, 0.2], [0.5, 0.3], [0.01, 0.01], 0.1)
    assert not bad_final.final_ok


def test_classical_xi_circle_free():
    # free circle gas: integral over n positions gives L^n
    L = 4.0
    circle = TorusGeometry(dimension=1, mode="circle", circumference=L)
    v = CirclePotential(L, strength=1.0, width=0.5)
    out = classical_xi(0.3, 0.0, 1.0, circle, v, n_max=4)
    want = sum((0.3 * L)**n / math.factorial(n) for n in range(5))
    assert out["value"] == pytest.approx(want, rel=1e-6)
    assert out["quadrature_converged"]


def test_classical_xi_species_scaling():
    # n_species enters only through z N
    v = CirclePotential(4.0, strength=1.0, width=0.5)
    a = classical_xi(0.4, 0.3, 2.0, CIRCLE4, v, n_max=4)
    b = classical_xi(0.8, 0.3, 1.0, CIRCLE4, v, n_max=4)
    assert a["value"] == pytest.approx(b["value"], rel=1e-12)


def _pair_term(z, lambda0, v, L=4.0):
    # two particles: the integral is L e^{-lambda0 v(0)} int_0^L e^{-lambda0 v(u)} du
    pair, _ = quad(lambda u: np.exp(-lambda0 * v(u)), 0.0, L, epsabs=0.0, epsrel=1e-13,
                   limit=200)
    return 0.5 * z**2 * L * np.exp(-lambda0 * v(0.0)) * pair


@pytest.mark.parametrize("lambda0, width", [(0.5, 0.5), (2.0, 0.5), (0.5, 0.3), (2.0, 0.3)],
                         ids=["0.5", "2.0", "0.5-narrow", "2.0-narrow"])
def test_classical_xi_circle_pair_integral(lambda0, width):
    v = CirclePotential(4.0, strength=1.0, width=width)
    out = classical_xi(0.3, lambda0, 1.0, CIRCLE4, v, n_max=2)
    assert out["per_n"][2] == pytest.approx(_pair_term(0.3, lambda0, v), rel=1e-10)


def test_classical_xi_converged_only_within_its_tolerance():
    # a narrow potential needs the most nodes; the flag may say converged
    # only of a value within QUAD_TOL of the pair integral
    v = CirclePotential(4.0, strength=1.0, width=0.2)
    out = classical_xi(0.3, 0.5, 1.0, CIRCLE4, v, n_max=2)
    error = abs(out["per_n"][2] / _pair_term(0.3, 0.5, v) - 1.0)
    assert not out["quadrature_converged"] or error <= QUAD_TOL


@pytest.mark.parametrize("lambda0", [0.5, 2.0])
def test_classical_xi_narrow_pair_integral_is_flagged_converged(lambda0):
    # two particles form a one-dimensional grid, which may double past 32 nodes
    v = CirclePotential(4.0, strength=1.0, width=0.3)
    out = classical_xi(0.3, lambda0, 1.0, CIRCLE4, v, n_max=2)
    assert out["quadrature_converged"]
    assert abs(out["per_n"][2] / _pair_term(0.3, lambda0, v) - 1.0) <= QUAD_TOL


def test_classical_xi_refuses_a_lattice():
    with pytest.raises(UnsupportedModeError):
        classical_xi(0.5, 0.0, 1.0, G2, delta_potential(G2), n_max=4)


def test_classical_xi_order_cap():
    with pytest.raises(ValueError):
        classical_xi(0.5, 0.0, 1.0, G1, delta_potential(G1), n_max=9)
    with pytest.raises(ValueError, match="above 5"):
        classical_xi(0.5, 0.0, 1.0, CIRCLE4, CirclePotential(4.0), n_max=MAX_PARTICLES + 1)


def test_activity_to_kappa_inverts():
    for z, nu, d in [(0.5, 0.25, 1), (1.2, 0.1, 2)]:
        kappa = activity_to_kappa(z, nu, d)
        assert np.exp(-kappa * nu) * nu**(-0.5 * d) == pytest.approx(z)
    with pytest.raises(ValueError):
        activity_to_kappa(0.0, 1.0, 1)


def test_largeN_requires_increasing_list():
    from bosegas.lattice import TimeGrid

    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.25)
    with pytest.raises(ValueError):
        largeN_check(p, G2, TimeGrid(nu=1.0, n_slices=8),
                     delta_potential(G2), [16, 4], samples=8)


def test_largeN_verdict_is_on_the_1_over_N_extrapolation():
    # d_N = a / N + noise extrapolates to 0 within 3 sigma however large a
    # is; an offset b that survives N -> infinity fails
    from bosegas.limits import _largeN_sweep

    N = [4, 16, 64]
    err = [4e-4, 1e-4, 2.5e-5]
    noise = [1e-4, -1e-4, 2.5e-5]
    saddle = _largeN_sweep(N, [-0.07 / n + e for n, e in zip(N, noise)], err)
    assert saddle.monotone_decreasing and saddle.final_ok and saddle.verdict
    assert saddle.final_discrepancy < 0.1 * saddle.discrepancies[-1]
    offset = _largeN_sweep(N, [-0.07 / n - 0.001 for n in N], err)
    assert offset.monotone_decreasing and not offset.final_ok
    assert offset.extra["extrapolated"] == pytest.approx(-0.001, rel=1e-9)


def test_largeN_extrapolation_takes_out_the_1_over_N2_term():
    # d_N = a / N + c / N^2 extrapolates to 0 through three points; the line
    # through (16, 64) alone reads -c / (16 * 64)
    from bosegas.limits import _largeN_sweep

    N = [4, 16, 64]
    err = [4e-4, 1e-4, 2.5e-5]
    signed = [0.08 / n - 0.068 / n**2 for n in N]
    sweep = _largeN_sweep(N, signed, err)
    assert sweep.extra["extrapolated"] == pytest.approx(0.0, abs=1e-15)
    assert sweep.final_ok
    pair = _largeN_sweep(N[1:], signed[1:], err[1:])
    assert pair.extra["extrapolated"] == pytest.approx(0.068 / 1024, rel=1e-9)


def test_largeN_requires_two_points():
    from bosegas.lattice import TimeGrid

    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.25)
    with pytest.raises(ValueError, match="at least two N values"):
        largeN_check(p, G2, TimeGrid(nu=1.0, n_slices=8),
                     delta_potential(G2), [16], samples=8)
