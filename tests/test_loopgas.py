import numpy as np
import pytest

from bosegas import loopgas, mayer
from bosegas.fock import duhamel_exact, xi_exact
from bosegas.hsfield import estimate_duhamel
from bosegas.lattice import (CirclePotential, ModelParams, TimeGrid,
                             TorusGeometry, delta_potential,
                             wrapped_gaussian_potential)
from bosegas.loopgas import (_bridge_densities, _circle_bridges, _lattice_bridges,
                             _loop_densities, _open_weights,
                             _pair_form, _pair_sum, _winding_tail,
                             activity_table,
                             duhamel_loopgas, free_loop_sum, kappa_eff,
                             xi_rel_series)
from bosegas.propagators import circle_heat_kernel, free_green, heat_propagator
from bosegas.stats import batch_layout
from bridge_reference import (bridges, forward_bridges, loop_densities, path_densities,
                              reference_form)
from pair_reference import loop_interaction_Vnu

G1 = TorusGeometry(dimension=1, sites_per_side=1)
G2 = TorusGeometry(dimension=1, sites_per_side=2)
G22 = TorusGeometry(dimension=2, sites_per_side=2)
G5 = TorusGeometry(dimension=1, sites_per_side=5)
G333 = TorusGeometry(dimension=3, sites_per_side=3)
GRID = TimeGrid(nu=1.0, n_slices=32)
FREE = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.0)
BENCH = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)


def test_free_loop_sum_single_site():
    # one site: Q = sum e^-l / l -> -log(1 - e^-1)
    q = free_loop_sum(G1, 1.0, 1.0, 60)
    assert q == pytest.approx(-np.log(1 - np.exp(-1)), abs=1e-12)


def test_free_loop_sum_is_log_xi():
    # the loop representation of the free gas: Q = log Xi_free
    want = -np.log(1 - np.exp(-1)) - np.log(1 - np.exp(-3))
    assert free_loop_sum(G2, 1.0, 1.0, 80) == pytest.approx(want, abs=1e-12)


def test_activity_table_single_site():
    act = activity_table(G1, 1.0, 2.0, 4)
    want = np.exp(-2.0 * np.arange(1, 5)) / np.arange(1, 5)
    assert np.allclose(act, want)


def test_kappa_eff_counterterm():
    v = delta_potential(G2, strength=1.5)
    p = ModelParams(nu=0.5, kappa0=1.0, lambda0=0.4, n_species=2.0, rho=0.3)
    want = 1.0 - 0.4 * 2.0 * 0.3 * 1.5 / 0.25
    assert kappa_eff(p, v) == pytest.approx(want)
    assert kappa_eff(FREE, v) == FREE.kappa0


def test_bridge_midpoint_marginal():
    # one end-aligned pass over mixed lengths, loops and x != y paths, counted
    # per group: on 64 phases of GRID's step global step g is phase g, so a
    # path of K steps sits on phases 48 - K .. 47, begins on its start, and
    # its midpoint follows the conditional law P(mid = u) ~ p_{T/2}(x, u) p_{T/2}(u, y)
    rng = np.random.default_rng(4)
    groups = [(16, 0, 0), (16, 0, 1), (32, 1, 1), (32, 1, 0), (48, 0, 0), (48, 0, 1)]
    S = 20000
    label = rng.permutation(np.repeat(np.arange(len(groups)), S))
    steps = np.array([groups[i][0] for i in label])
    starts = np.array([groups[i][1] for i in label])
    ends = np.array([groups[i][2] for i in label])
    grid = TimeGrid(nu=2.0, n_slices=64)
    counts = _lattice_bridges(G2, grid, starts, ends, steps, label, 0, rng)
    k_max = 48
    assert grid.eps == GRID.eps and counts.shape == (len(groups), 64, 2)
    for i, (n_steps, x, y) in enumerate(groups):
        assert counts[i, k_max - n_steps, x] == S
        assert np.all(counts[i].sum(axis=1) == S * (np.arange(64) >= k_max - n_steps)
                      * (np.arange(64) < k_max))
        half = heat_propagator(G2, n_steps * GRID.eps / 2)
        probs = half[x, :] * half[:, y]
        probs /= probs.sum()
        frac = counts[i, k_max - n_steps // 2, 0] / S
        se = np.sqrt(probs[0] * (1 - probs[0]) / S)
        assert abs(frac - probs[0]) < 5 * se


def _assert_counts(got, expected):
    """Multinomial cell counts within 5 sigma, sigma floored at one count."""
    var = expected * (1.0 - expected / expected.sum())
    z = (got - expected) / np.sqrt(np.maximum(var, 1.0))
    assert np.max(np.abs(z)) < 5, z


def _assert_bridge_law(geom, eps, x, y, K, pos):
    """Sites pos (S, K) at steps 0..K-1 of S paths x -> y against heat-kernel products.

    Every one-time marginal p_{k eps}(x, u) p_{(K-k) eps}(u, y) / p_{K eps}(x, y)
    and, from three steps, the joint at steps K // 3 and 2K // 3.
    """
    S, n = len(pos), geom.n_sites
    pos = pos.astype(np.intp)
    assert np.all(pos[:, 0] == x)
    p = [heat_propagator(geom, k * eps) for k in range(K + 1)]
    for k in range(1, K):
        _assert_counts(np.bincount(pos[:, k], minlength=n),
                       S * p[k][x] * p[K - k][:, y] / p[K][x, y])
    if K >= 3:
        k1, k2 = K // 3, 2 * K // 3
        joint = p[k1][x][:, None] * p[k2 - k1] * p[K - k2][:, y] / p[K][x, y]
        _assert_counts(np.bincount(pos[:, k1] * n + pos[:, k2], minlength=n * n),
                       S * joint.ravel())


@pytest.mark.parametrize("sampler", ["jumps", "forward"])
@pytest.mark.parametrize("geom, paths", [
    (G1, [(0, 0, 3), (0, 0, 8)]),
    (G5, [(0, 2, 1), (0, 4, 1), (0, 2, 2), (1, 3, 9), (2, 2, 16)]),
    (G22, [(0, 3, 1), (0, 3, 5), (1, 1, 12)]),
    (G333, [(0, 26, 1), (0, 13, 6), (4, 4, 9)]),
], ids=["1 site", "5-site ring", "2x2 torus", "3^3 torus"])
def test_bridges_follow_the_heat_kernel_law(geom, paths, sampler):
    # mixed lengths in one shuffled pass, among them one-step open paths that
    # need two jumps in one step (5 sites) or one per coordinate (tori); the
    # jump pass gives each path its own group, and its counts, one site per
    # counted step, are read back as sites; the forward pass, an independent
    # sampler, returns the sites
    S, eps = 4000, 1.0 / 16
    rng = np.random.default_rng(11)
    label = rng.permutation(np.repeat(np.arange(len(paths)), S))
    starts, ends, steps = (np.array([paths[i][j] for i in label]) for j in range(3))
    k_max = int(steps.max())
    if sampler == "jumps":
        grid = TimeGrid(nu=k_max * eps, n_slices=k_max)
        counts = _lattice_bridges(geom, grid, starts, ends, steps, np.arange(len(label)), 0,
                                  rng)
        on_path = np.arange(k_max) >= k_max - steps[:, None]
        assert np.array_equal(counts.sum(axis=2), on_path.astype(float))
        sites = counts.argmax(axis=2)
    else:
        sites = forward_bridges(geom, starts, ends, steps, eps, rng)
        assert np.all(sites[:, -1] == ends)
    for i, (x, y, K) in enumerate(paths):
        _assert_bridge_law(geom, eps, x, y, K, sites[label == i, k_max - K:k_max])


def test_unreachable_endpoint_raises():
    # a path of no steps cannot move
    with pytest.raises(ValueError, match="endpoint unreachable"):
        _lattice_bridges(G5, GRID, np.array([0]), np.array([2]), np.array([0]),
                         np.array([0]), 0, np.random.default_rng(0))


def test_far_endpoint_is_drawn_from_log_weights():
    # two steps halfway round a 200-site ring: p_{2 eps}(0, 100) ~ 1e-330
    # underflows double precision, yet the pair (100, 0) or (0, 100) of jump
    # counts carries all but ~2e-5 of the law, so the midpoint is 0 plus or
    # minus a Binomial(100, 1/2) count: each way round half the time, at
    # distance 50 +- 5 from the start
    S = 4000
    counts = _lattice_bridges(TorusGeometry(dimension=1, sites_per_side=200), GRID,
                              np.zeros(S, dtype=int), np.full(S, 100), np.full(S, 2),
                              np.arange(S), 0, np.random.default_rng(12))
    assert np.all(counts[:, 0, 0] == 1)
    mid = counts[:, 1].argmax(axis=1)
    assert abs(np.mean(mid > 100) - 0.5) < 5 * 0.5 / np.sqrt(S)
    assert abs(np.mean(np.minimum(mid, 200 - mid)) - 50) < 5 * 5 / np.sqrt(S)


def test_circle_bridge_midpoint_marginal():
    # three step counts on the circle, drawn in increasing order as one
    # bridge pass draws them: each path starts at x, ends on y mod L, and its
    # wrapped midpoint follows p_{T/2}(x, u) p_{T/2}(u, y) over 8 bins (the
    # winding-sector pick matters when T is large against L or x, y sit near
    # opposite sides)
    L, S, n_bins = 4.0, 40000, 8
    grid = TimeGrid(nu=0.4, n_slices=16)
    groups = [(0.3, 2.9, 0.55), (0.3, 0.3, 0.4), (1.0, 3.5, 2.0)]
    rng = np.random.default_rng(5)
    pos = {K: _circle_bridges(L, np.full(S, float(x)), np.full(S, float(y)), K * grid.eps,
                              K, rng)
           for K, x, y in sorted((grid.slice_index(T), x, y) for x, y, T in groups)}
    u = (np.arange(40 * n_bins) + 0.5) * L / (40 * n_bins)
    for x, y, T in groups:
        K = grid.slice_index(T)
        rows = pos[K]
        assert np.all(rows[:, 0] == x)
        assert np.max(np.abs(np.mod(rows[:, -1] - y + L / 2, L) - L / 2)) < 1e-12
        dens = circle_heat_kernel(L, T / 2, x, u) * circle_heat_kernel(L, T / 2, u, y)
        probs = dens.reshape(n_bins, -1).sum(axis=1) / dens.sum()
        counts = np.bincount((np.mod(rows[:, K // 2], L) // (L / n_bins))
                             .astype(int), minlength=n_bins)
        z = (counts - S * probs) / np.sqrt(S * probs * (1 - probs))
        assert np.max(np.abs(z)) < 5, z


@pytest.mark.parametrize("geom, v, ends", [
    (G2, delta_potential(G2), (0, 1)),
    (G22, wrapped_gaussian_potential(G22, width=0.7), (0, 3)),
    (TorusGeometry(dimension=1, mode="circle", circumference=4.0),
     CirclePotential(4.0, strength=1.0, width=0.5), (0.3, 2.9)),
], ids=["2 sites", "2x2 torus", "circle"])
def test_bridge_densities_match_the_padded_layout(geom, v, ends):
    # the one-pass densities equal, bit for bit, those cut out of the padded
    # end-aligned layout from the same draws: groups of 1-4 loops of windings
    # 1-6, and open paths of 16 or 40 steps plus 0-2 periods from slices 0 and 5
    form, ref = _pair_form(geom, v), reference_form(geom, v)
    act = np.ones(6)
    counts = np.random.default_rng(0).integers(1, 5, (3, 40))
    for seed in (1, 2):
        got = _loop_densities(geom, GRID, form, act, counts, np.random.default_rng(seed))
        want = loop_densities(geom, GRID, ref, act, counts, np.random.default_rng(seed))
        assert got.shape == want.shape and np.all(got == want)
    x, y = ends
    starts, stops = np.full(60, x), np.full(60, y)
    for seed, (start, K) in enumerate(((0, 16), (0, 40), (5, 16), (5, 40))):
        steps = K + GRID.n_slices * np.random.default_rng(seed).integers(0, 3, 60)
        got = _bridge_densities(geom, GRID, form, starts, stops, steps, np.arange(60), start,
                                np.random.default_rng(seed))
        want = path_densities(geom, GRID, ref, starts, stops, steps, start,
                              np.random.default_rng(seed))
        assert got.shape == want.shape and np.all(got == want)


def test_circle_mode_sums_match_direct_features():
    # the power recurrence of exp(2 pi i x / L) against direct cos / sin at
    # unwrapped positions up to +-5L, summed per phase from start slice 5
    L, n_tau, start = 4.0, 16, 5
    geom = TorusGeometry(dimension=1, mode="circle", circumference=L)
    density, M = _pair_form(geom, CirclePotential(L, strength=1.0, width=0.5))
    K = (len(M) - 1) // 2
    pos = np.random.default_rng(7).uniform(-5 * L, 5 * L, (6, 37))
    pos[0, :2] = -5 * L, 5 * L
    arg = 2.0 * np.pi / L * pos[..., None] * np.arange(1, K + 1)
    feats = np.concatenate([np.ones(pos.shape + (1,)), np.cos(arg), np.sin(arg)], axis=-1)
    phases = (start + np.arange(pos.shape[1])) % n_tau
    want = np.stack([feats[:, phases == t].sum(axis=1) for t in range(n_tau)], axis=1)
    got = density(pos, start, n_tau)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13


def test_loop_interaction_single_site():
    # every slice doubly occupied: V = (eps/2) * n_tau * l1 * l2 * v(0) ... x2
    v = delta_potential(G1, strength=2.0)
    p1 = (np.zeros(2 * 32 + 1, dtype=int), 0)
    p2 = (np.zeros(3 * 32 + 1, dtype=int), 0)
    got = loop_interaction_Vnu(p1, p2, 32, v, G1, GRID.eps)
    assert got == pytest.approx(0.5 * 2 * 3 * 1.0 * 2.0)  # l l' nu v(0) / 2


def test_loop_interaction_phase_alignment():
    # paths on disjoint phases never interact
    v = delta_potential(G1)
    p1 = (np.zeros(2, dtype=int), 0)
    p2 = (np.zeros(2, dtype=int), 5)
    assert loop_interaction_Vnu(p1, p2, 32, v, G1, GRID.eps) == 0.0


@pytest.mark.parametrize("geom, v, grid, ends, duration", [
    (G2, wrapped_gaussian_potential(G2, width=0.7), GRID, (0, 1), 1.375),
    (TorusGeometry(dimension=1, mode="circle", circumference=4.0),
     CirclePotential(4.0, strength=1.0, width=0.5), TimeGrid(nu=0.4, n_slices=16),
     (0.3, 2.9), 0.55),
])
def test_slice_densities_reproduce_pair_interaction(geom, v, grid, ends, duration):
    # phi_i . M . phi_j summed over phases equals the direct pair sum V_nu,
    # self-pairs included, for the densities of the bridge pass and the
    # positions of the padded reference, which makes the same draws; on the
    # circle the tolerance pins the Fourier cutoff at double precision
    # (dropping modes below 1e-13 v_0 misses it)
    n_tau = grid.n_slices
    x, y = ends
    form = _pair_form(geom, v)
    M = form[1]
    paths, phi = [], []
    for a, b, T, start, seed in ((x, x, grid.nu, 0, 1), (y, y, 2 * grid.nu, 0, 2),
                                 (x, y, duration, 5, 3)):
        one = (np.array([a]), np.array([b]), np.array([grid.slice_index(T)]))
        paths.append((bridges(geom, grid, *one, np.random.default_rng(seed))[0], start))
        phi.append(_bridge_densities(geom, grid, form, *one, np.zeros(1, dtype=int), start,
                                     np.random.default_rng(seed))[0])
    for i, pi in enumerate(paths):
        for j, pj in enumerate(paths):
            want = loop_interaction_Vnu(pi, pj, n_tau, v, geom, grid.eps)
            got = 0.5 * grid.eps * np.einsum("tx,xy,ty->", phi[i], M, phi[j])
            assert abs(got - want) <= 1e-14 * abs(want)


def test_xi_rel_series_free():
    v = delta_potential(G2)
    est = xi_rel_series(FREE, G2, GRID, v, 4, 40, 100)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == 0.0


def test_xi_rel_series_free_raw_series_is_the_truncated_poisson_sum():
    # the closed form carries the raw series the classical sweep reads
    v = delta_potential(G2)
    n_max, l_max = 4, 6
    est = xi_rel_series(FREE, G2, GRID, v, n_max, l_max, 100)
    na = FREE.n_species * est.extra["activity"]
    assert est.extra["raw_value"] == pytest.approx(
        sum(na**n / np.prod(np.arange(1, n + 1)) for n in range(n_max + 1)),
        rel=1e-12)
    assert est.extra["raw_stderr"] == 0.0
    assert est.extra["activity"] == pytest.approx(
        free_loop_sum(G2, 1.0, kappa_eff(FREE, v), l_max), rel=1e-12)


@pytest.mark.parametrize("geom, v", [
    (TorusGeometry(dimension=1, mode="circle", circumference=4.0),
     CirclePotential(4.0, strength=1.0, width=0.5)),
    (G2, wrapped_gaussian_potential(G2, width=0.7)),
], ids=["circle", "lattice"])
def test_pair_sum_matches_the_dense_form(geom, v):
    # the circle's diagonal M is applied as a vector, a full M as a matrix
    _, M = _pair_form(geom, v)
    phi = np.random.default_rng(4).standard_normal((3, 50, 16, len(M)))
    dense = 0.5 * 0.025 * np.einsum("...tx,xy,...ty->...", phi, M, phi)
    got = _pair_sum(phi, M, 0.025)
    assert got.shape == (3, 50)
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_xi_rel_series_matches_oracle():
    v = delta_potential(G2)
    oracle = xi_exact(BENCH, G2, v, n_max=16).xi_rel
    est = xi_rel_series(BENCH, G2, GRID, v, 6, 6, 4000, seed=2)
    assert abs(est.value.real - oracle) < 4 * max(est.stderr_re, 1e-3)
    assert not est.extra["truncation_flag"]


def test_duhamel_loopgas_free():
    v = delta_potential(G2)
    fg = free_green(G2, 1.0, 1.0)
    est = duhamel_loopgas(FREE, G2, GRID, v, 0.0, 0, 0.0, 1, 4, 30, 10)
    assert est.value.real == pytest.approx(fg[0, 1], abs=1e-10)
    # unequal times on one site: e^-s / (1 - e^-1)
    v1 = delta_potential(G1)
    est = duhamel_loopgas(FREE, G1, GRID, v1, 0.5, 0, 0.0, 0, 4, 40, 10)
    assert est.value.real == pytest.approx(np.exp(-0.5) / (1 - np.exp(-1)),
                                           abs=1e-10)


def test_duhamel_loopgas_free_truncates_at_lmax():
    # lam = 0 is the winding sum over l0 <= l_max, like every loop-gas value
    v = delta_potential(G2)
    for tau, tau_p in ((0.5, 0.25), (0.25, 0.25)):
        s = tau - tau_p
        want = sum(np.exp(-FREE.kappa0 * (s + l0)) * heat_propagator(G2, s + l0)[0, 1]
                   for l0 in range(3) if s + l0 > 0)
        est = duhamel_loopgas(FREE, G2, GRID, v, tau, 0, tau_p, 1, 4, 2, 10)
        assert est.value.real == pytest.approx(want, abs=1e-14)
        assert est.stderr_re == 0.0


@pytest.mark.parametrize("tau, x, tau_p, x_p", [
    (0.25, 0.3, 0.0, 2.9), (0.1, 1.0, 0.1, 1.0), (0.35, 0.0, 0.05, 3.7),
], ids=["forward", "equal-time", "wrapping"])
def test_duhamel_loopgas_free_circle_is_the_mode_sum(tau, x, tau_p, x_p):
    # Poisson dual of the wrapped heat kernel:
    # (1/L) sum_k cos(q_k (x - x')) sum_{l0 <= l_max, T > 0} e^{-(kappa0 + q_k^2/2) T}
    L, kappa0, l_max = 4.0, 1.3, 3
    circle = TorusGeometry(dimension=1, mode="circle", circumference=L)
    p = ModelParams(nu=0.4, kappa0=kappa0, lambda0=0.0)
    T = np.array([tau - tau_p + l0 * p.nu for l0 in range(l_max + 1)])
    T = T[T > 0]
    q = 2.0 * np.pi * np.arange(-60, 61) / L
    decay = np.exp(-np.outer(kappa0 + 0.5 * q**2, T)).sum(axis=1)
    want = np.sum(np.cos(q * (x - x_p)) * decay) / L
    est = duhamel_loopgas(p, circle, TimeGrid(nu=p.nu, n_slices=16),
                          CirclePotential(L), tau, x, tau_p, x_p, 4, l_max, 10)
    assert est.value.real == pytest.approx(want, abs=1e-13)
    assert est.stderr_re == 0.0


def test_duhamel_loopgas_matches_oracle():
    v = delta_potential(G2)
    want = duhamel_exact(BENCH, G2, v, 16, 0.25, 0, 0.0, 1)
    est = duhamel_loopgas(BENCH, G2, GRID, v, 0.25, 0, 0.0, 1, 6, 6, 4000,
                          seed=3)
    assert abs(est.value.real - want) < 4 * max(est.stderr_re, 2e-3)


def test_duhamel_domain_check():
    v = delta_potential(G2)
    with pytest.raises(ValueError):
        duhamel_loopgas(FREE, G2, GRID, v, 1.0, 0, 0.0, 0, 4, 6, 10)


@pytest.mark.parametrize("tau, tau_p", [(0.26, 0.0), (0.5, 0.26)])
def test_off_grid_times_raise_in_both_routes(tau, tau_p):
    # eps = 1/32: the open path's duration must be whole steps too
    v = delta_potential(G2)
    with pytest.raises(ValueError, match="slice grid"):
        duhamel_loopgas(BENCH, G2, GRID, v, tau, 0, tau_p, 1, 4, 6, 10)
    with pytest.raises(ValueError, match="slice grid"):
        estimate_duhamel(BENCH, G2, GRID, v, 0, 1, tau=tau, tau_p=tau_p,
                         n_samples=10)


@pytest.mark.parametrize("geom, v, grid", [
    (G2, delta_potential(G2), GRID),
    (TorusGeometry(dimension=1, mode="circle", circumference=4.0),
     CirclePotential(4.0, strength=1.0, width=0.5), TimeGrid(nu=0.4, n_slices=16)),
], ids=["lattice", "circle"])
def test_group_density_is_the_sum_of_its_loops(geom, v, grid):
    # one group of n loops is the same draws as n groups of one loop, and its
    # density is the sum of theirs (windings 1..4 equally likely)
    form = _pair_form(geom, v)
    act = np.ones(4)
    for n in (1, 3, 7):
        whole = _loop_densities(geom, grid, form, act, [n], np.random.default_rng(n))
        parts = _loop_densities(geom, grid, form, act, np.ones(n, dtype=int),
                                np.random.default_rng(n))
        assert whole.shape == (1,) + parts.shape[1:]
        assert np.max(np.abs(whole[0] - parts.sum(axis=0))) <= 1e-12


def test_one_bridge_pass_per_loop_ensemble(monkeypatch):
    calls = []
    bridge_densities = loopgas._bridge_densities

    def counted(*args):
        calls.append(len(args[3]))
        return bridge_densities(*args)

    monkeypatch.setattr(loopgas, "_bridge_densities", counted)
    v = delta_potential(G2)
    xi_rel_series(BENCH, G2, GRID, v, 4, 4, 50, seed=1)
    assert calls == [50 * (1 + 2 + 3 + 4)]
    calls.clear()
    mayer.ursell_coefficient(3, BENCH, G2, GRID, v, 4, 50, seed=1)
    assert calls == [50 * 3]


@pytest.mark.parametrize("geom, nu, kappa", [
    (G2, 1.0, 1.0), (G22, 1.0, 0.8),
    (TorusGeometry(dimension=1, mode="circle", circumference=4.0), 0.4, 2.9),
], ids=["2 sites", "2x2 torus", "circle"])
def test_winding_tail_closed_form(geom, nu, kappa):
    # the activity beyond l_max, against a table run out to 60 windings
    act = activity_table(geom, nu, kappa, 60)
    for l_max in (1, 6):
        assert _winding_tail(geom, nu, kappa, l_max) == pytest.approx(
            act[l_max:].sum(), rel=1e-9, abs=1e-15)
    assert _winding_tail(G2, 1.0, 0.0, 6) == np.inf  # the zero mode condenses


def test_xi_rel_series_reports_its_winding_tail():
    v = delta_potential(G2)
    tail = _winding_tail(G2, 1.0, kappa_eff(BENCH, v), 6)
    for p in (FREE, BENCH):
        est = xi_rel_series(p, G2, GRID, v, 6, 6, 32, seed=0)
        assert est.extra["winding_tail"] == pytest.approx(tail, rel=1e-12)
    assert mayer.log_xi_rel_partial(BENCH, G2, GRID, v, 1, 6, 32).extra[
        "winding_tail"] == pytest.approx(tail, rel=1e-12)


def _capture_windings(monkeypatch):
    """Record each bridge pass's whole periods, steps // n_tau, in row order."""
    passes = []
    bridge_densities = loopgas._bridge_densities

    def capture(geom, grid, form, starts, ends, steps, group, start, rng):
        passes.append(np.asarray(steps) // grid.n_slices)
        return bridge_densities(geom, grid, form, starts, ends, steps, group, start, rng)

    monkeypatch.setattr(loopgas, "_bridge_densities", capture)
    return passes


def _assert_stratified(slots, weights, first):
    """Each slot (row) holds every winding stratum in each batch.

    Windings run first, first + 1, ... with probabilities p = weights / sum.
    A block of k draws (an error batch, or the remainder) puts exactly one
    uniform in each stratum [j / k, (j + 1) / k), so the count of windings up
    to l is k C_l within one draw (C the cdf), and a winding's count is
    k p_l within one draw at each end of its cdf interval.
    """
    p = weights / weights.sum()
    cdf = np.cumsum(p)
    levels = first + np.arange(len(p))
    n_batches, b = batch_layout(slots.shape[1])
    blocks = [slots[:, j * b:(j + 1) * b] for j in range(n_batches)]
    blocks.append(slots[:, n_batches * b:])  # the remainder, one block
    for block in blocks:
        k = block.shape[1]
        if k == 0:
            continue
        counts = (block[..., None] == levels).sum(axis=1)
        assert np.all(counts.sum(axis=1) == k)  # every winding is a valid one
        assert np.all(np.abs(np.cumsum(counts, axis=1) - k * cdf) < 1)
        assert np.all(np.abs(counts - k * p) < 2)


def test_windings_are_stratified_within_each_batch(monkeypatch):
    v = delta_potential(G2)
    act = activity_table(G2, 1.0, kappa_eff(BENCH, v), 6)
    passes = _capture_windings(monkeypatch)
    # 200 samples: 16 batches of 12 and a remainder of 8; 5: batches of one
    for samples in (200, 5):
        # series layout: loop i of the n-loop groups is slot (n, i)
        passes.clear()
        xi_rel_series(BENCH, G2, GRID, v, 3, 6, samples, seed=1)
        rows = np.split(passes[0], np.cumsum([samples * n for n in (1, 2)]))
        slots = np.vstack([w.reshape(samples, n).T for n, w in zip((1, 2, 3), rows)])
        _assert_stratified(slots, act, 1)
        # cluster layout: loop i of every sample is slot i
        passes.clear()
        mayer._pair_matrix(G2, GRID, v, 3, act, samples, np.random.default_rng(2))
        _assert_stratified(passes[0].reshape(3, samples), act, 1)
        # the open path's winding l0 = 0, 1, ... of the Duhamel function
        passes.clear()
        duhamel_loopgas(BENCH, G2, GRID, v, 0.25, 0, 0.0, 1, 3, 6, samples, seed=3)
        _assert_stratified(passes[0][None], _open_weights(BENCH, G2, GRID, v, 0.25,
                                                          0, 1, 6), 0)


def test_stratified_errors_are_honest():
    # seeds 0-29 at the benchmark's series and cluster points: the quoted
    # batch-means error matches the spread over seeds, and the seed mean sits
    # on the exact trace up to the reported truncations
    v = delta_potential(G2)
    xi = xi_exact(BENCH, G2, v, n_max=20).xi_rel
    seeds = range(30)
    series = [xi_rel_series(BENCH, G2, GRID, v, 6, 6, 400, seed=s) for s in seeds]
    cluster = [mayer.log_xi_rel_partial(BENCH, G2, GRID, v, 3, 6, 1000, seed=s)
               for s in seeds]
    for ests, want, allowance in (
            (series, xi, xi * series[0].extra["winding_tail"]),
            (cluster, np.log(xi), 0.01 * abs(np.log(xi)))):
        values = np.array([e.value.real for e in ests])
        spread = values.std(ddof=1)
        quoted = np.sqrt(np.mean([e.stderr**2 for e in ests]))
        assert abs(quoted / spread - 1) < 0.25, (quoted, spread)
        assert abs(values.mean() - want) < 4 * spread / np.sqrt(len(values)) + allowance


def test_loop_routes_match_oracle_on_2x2_torus():
    v = delta_potential(G22)
    grid = TimeGrid(nu=1.0, n_slices=16)
    xi = xi_exact(BENCH, G22, v, n_max=10).xi_rel
    est = xi_rel_series(BENCH, G22, grid, v, 6, 6, 1000, seed=0)
    assert abs(est.value.real - xi) < 4 * est.stderr + xi * est.extra["winding_tail"]
    want = duhamel_exact(BENCH, G22, v, 10, 0.25, 0, 0.0, 1)
    est = duhamel_loopgas(BENCH, G22, grid, v, 0.25, 0, 0.0, 1, 6, 6, 1000, seed=0)
    assert abs(est.value.real - want) < 4 * est.stderr
