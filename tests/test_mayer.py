import itertools

import numpy as np
import pytest

from bosegas.fock import xi_exact
from bosegas.lattice import (CapacityError, CirclePotential, ModelParams,
                             TimeGrid, TorusGeometry, delta_potential)
from bosegas.limits import activity_to_kappa
from bosegas.loopgas import (activity_table, free_loop_sum, kappa_eff,
                             xi_rel_series)
from bosegas.mayer import (_pair_matrix, _rooted_sum, log_xi_rel_partial,
                           n_polynomial, ursell_coefficient)

G2 = TorusGeometry(dimension=1, sites_per_side=2)
GRID = TimeGrid(nu=1.0, n_slices=32)
FREE = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.0)
BENCH = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.25)


def _connected(n, edges):
    reach = {0}
    for _ in range(n):
        reach |= {b for a, b in edges if a in reach} | {a for a, b in edges if b in reach}
    return len(reach) == n


def _brute_connected_sum(f):
    """Reference: sum over connected graphs of prod_edges f, by listing them."""
    samples, n, _ = f.shape
    pairs = list(itertools.combinations(range(n), 2))
    total = np.zeros(samples)
    for k in range(n - 1, len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            if _connected(n, edges):
                total += np.prod([f[:, a, b] for a, b in edges], axis=0)
    return total


def _unit_weights(n):
    return np.ones((1, n, n))


def test_connected_graph_counts():
    # unit f: prod_{i in B} (1 + f) - 1 = 2^|B| - 1, so C_n counts graphs
    got = [_rooted_sum(np.log(2.0) * _unit_weights(n), np.expm1)[0]
           for n in (1, 2, 3, 4)]
    assert got == pytest.approx([1, 1, 4, 38], rel=1e-12)


def test_connected_graph_count_order_five():
    got = _rooted_sum(np.log(2.0) * _unit_weights(5), np.expm1)[0]
    assert got == pytest.approx(728, rel=1e-12)


def test_spanning_tree_counts_are_cayley():
    got = [_rooted_sum(_unit_weights(n), np.positive)[0] for n in range(1, 6)]
    assert got == pytest.approx([1, 1, 3, 16, 125], rel=1e-12)


def test_rooted_sum_matches_graph_listing():
    # sampled f at the bench point, which has exact zeros of its own ...
    v = delta_potential(G2)
    act = activity_table(G2, GRID.nu, kappa_eff(BENCH, v), 6)
    rng = np.random.default_rng(5)
    # ... and a synthetic f in (-1, 0] with exact zeros planted
    synth = -rng.uniform(0.0, 1.0, (400, 4, 4))
    synth = np.triu(synth * (rng.uniform(size=synth.shape) < 0.6), 1)
    synth = synth + np.swapaxes(synth, 1, 2)
    for n in (2, 3, 4):
        vpair = _pair_matrix(G2, GRID, v, n, act, 500, rng)
        x = -2.0 * BENCH.lam / BENCH.nu * vpair
        for f, got in ((np.expm1(x), _rooted_sum(x, np.expm1)),
                       (synth[:, :n, :n],
                        _rooted_sum(np.log1p(synth[:, :n, :n]), np.expm1))):
            want = _brute_connected_sum(f)
            assert np.any(want == 0.0)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_cluster_order_capacity():
    with pytest.raises(CapacityError):
        ursell_coefficient(6, BENCH, G2, GRID, delta_potential(G2), 6, 10)


def test_b1_free_is_loop_activity():
    v = delta_potential(G2)
    b1 = ursell_coefficient(1, FREE, G2, GRID, v, 8, 50)
    assert b1.value == pytest.approx(free_loop_sum(G2, 1.0, 1.0, 8), abs=1e-12)
    assert b1.stderr == 0.0


def test_higher_orders_vanish_when_free():
    v = delta_potential(G2)
    for n in (2, 3):
        b = ursell_coefficient(n, FREE, G2, GRID, v, 8, 50)
        assert b.value == 0.0 and b.stderr == 0.0


def test_tree_bound_diagnostic():
    # |full graph product| never exceeds |spanning tree product| for v >= 0
    v = delta_potential(G2)
    b3 = ursell_coefficient(3, BENCH, G2, GRID, v, 6, 400, seed=1)
    assert b3.tree_bound_max <= 1.0 + 1e-12


def test_tree_bound_exceeds_one_when_attractive():
    # f = e^{+2 (lam/nu) |V|} - 1 > 0 breaks Penrose's bound: on three loops
    # that all meet, C_3 = f01 f02 + f01 f12 + f02 f12 + f01 f02 f12 > T_3
    attractive = delta_potential(G2, strength=-1.0)
    b3 = ursell_coefficient(3, BENCH, G2, GRID, attractive, 6, 400, seed=1)
    assert b3.tree_bound_max > 1.0


def test_partial_sum_matches_oracle():
    v = delta_potential(G2)
    want = np.log(xi_exact(BENCH, G2, v, n_max=16).xi_rel)
    est = log_xi_rel_partial(BENCH, G2, GRID, v, 3, 6, 4000, seed=2)
    diff = abs(est.value.real - want)
    assert diff < max(0.01 * abs(want), 4 * est.stderr_re)
    assert set(est.extra["orders"]) == {1, 2, 3}


def test_partial_sum_matches_series_on_circle():
    # same rule as the lattice oracle test; the reference here is the loop
    # series itself, so its error enters sigma
    circle = TorusGeometry(dimension=1, mode="circle", circumference=4.0)
    v = CirclePotential(4.0, strength=1.0, width=0.5)
    grid = TimeGrid(nu=0.4, n_slices=16)
    p = ModelParams(nu=0.4, kappa0=activity_to_kappa(0.5, 0.4, 1), lambda0=0.25)
    series = xi_rel_series(p, circle, grid, v, 6, 5, 2000, seed=2)
    want = np.log(series.value.real)
    est = log_xi_rel_partial(p, circle, grid, v, 3, 5, 500, seed=2)
    sigma = np.hypot(est.stderr_re, series.stderr_re / series.value.real)
    assert abs(est.value.real - want) < 4 * sigma + 0.01 * abs(want)
    assert not series.extra["truncation_flag"]


def test_alternating_order_magnitudes():
    # successive Ursell terms shrink and alternate in sign at weak coupling
    v = delta_potential(G2)
    est = log_xi_rel_partial(BENCH, G2, GRID, v, 3, 6, 2000, seed=3)
    orders = est.extra["orders"]
    assert orders[1][0] > 0 > orders[2][0]
    assert abs(orders[2][0]) > abs(orders[3][0])


def test_n_polynomial_scaling():
    # c_n = b_n / N^n should be N independent at fixed lam
    v = delta_potential(G2)
    c1 = n_polynomial(BENCH, G2, GRID, v, 2, 6, 2000, seed=4)
    p2 = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.25, n_species=2.0)
    c2 = n_polynomial(p2, G2, GRID, v, 2, 6, 2000, seed=4)
    for n in (1, 2):
        se = np.hypot(c1["coefficients"][n][1], c2["coefficients"][n][1])
        assert abs(c1["coefficients"][n][0] - c2["coefficients"][n][0]) \
            < 5 * max(se, 1e-12) + 1e-10
