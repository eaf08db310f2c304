"""Brownian loop-gas route: bridge sampling, 2-loop interactions, grand series.

The gas is expanded over closed walks that wind l times around the imaginary
time period nu.  A loop of winding l based at u carries activity

    a(u, l) = (e^{-kappa l nu} / l) * p_{l nu}(u, u),

and a configuration of loops interacts through the pair functional V_nu that
couples positions at equal time phases.  The truncated grand-canonical series
over loop number n and winding l is evaluated by direct importance sampling:
loops are drawn from the activity, their windings stratified within each
batch of the batch-means error, so a batch holds every winding in proportion
to its activity and the batches stay independent.  Duhamel functions add one
open path with fixed endpoints, its winding stratified the same way.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammainc, gammaln

from .lattice import ModelParams, TimeGrid, TorusGeometry, check_grid_period
from .propagators import (circle_heat_kernel, free_log_trace, heat_propagator,
                          _spectral_data)
from .stats import (ComplexEstimate, batch_layout, exact_estimate, mean_estimate,
                    ratio_estimate)

__all__ = [
    "kappa_eff",
    "free_loop_sum",
    "activity_table",
    "xi_rel_series",
    "duhamel_loopgas",
]

UNDERFLOW = 1e-300


def kappa_eff(params: ModelParams, v) -> float:
    """Killing rate after absorbing the density counterterm into each line.

    The cross term of the shifted quartic lowers every particle's chemical
    potential by lam * N * rho * (integral of v) / nu^2.
    """
    return params.kappa0 - params.lam * params.n_species * params.rho * v.total() / params.nu**2


def _rho_log_constant(params: ModelParams, geom: TorusGeometry, v) -> float:
    """ln of the shift's constant factor exp(-(lam/2)(N rho / nu)^2 |volume| vbar)."""
    shift = params.n_species * params.rho / params.nu
    return -0.5 * params.lam * shift**2 * _volume(geom) * v.total()


# ---------------------------------------------------------------------------
# geometry: the only place the loop ensemble tells lattice from circle

_MODE_CUTOFF = 1e-17  # circle modes with v_k below this fraction of v_0 are dropped


def _volume(geom: TorusGeometry) -> float:
    return geom.n_sites if geom.mode == "lattice" else geom.circumference


def _diag_heat(geom: TorusGeometry, t: float) -> float:
    """Return-probability density p_t(u, u), site independent."""
    if geom.mode == "lattice":
        evals, _ = _spectral_data(geom)
        return float(np.mean(np.exp(0.5 * t * evals)))
    return circle_heat_kernel(geom.circumference, t, 0.0, 0.0)


def _transition(geom: TorusGeometry, t: float, x, y) -> float:
    """Transition density p_t(x, y)."""
    if geom.mode == "lattice":
        return heat_propagator(geom, t)[x, y]
    return circle_heat_kernel(geom.circumference, t, float(x), float(y))


def _base_points(geom: TorusGeometry, size: int, rng) -> np.ndarray:
    """Uniform base points: sites on the lattice, positions on the circle."""
    if geom.mode == "lattice":
        return rng.integers(geom.n_sites, size=size)
    return rng.random(size) * geom.circumference


def _bridge_densities(geom: TorusGeometry, grid: TimeGrid, form, starts, ends, steps,
                      group, start: int, rng) -> np.ndarray:
    """(G, n_tau, F) slice densities of pinned paths summed per group, one bridge pass.

    Path i takes steps[i] grid steps from starts[i] to ends[i], begins on
    phase start and belongs to group group[i]; the groups run 0..G-1 in
    non-decreasing order, none empty, and the steps agree mod n_tau, so a
    group of several paths is loops of whole periods begun on phase 0.  A
    path's final (pinned) position is left out of its density.  Lattice: one
    forward pass counts each site as it draws it (`_lattice_bridges`).
    Circle: Gaussian bridges, one vectorized group per step count, written
    straight into each group's walk, its paths end to end; walks are
    bucketed by length and each bucket is one `density` call.
    """
    if geom.mode == "lattice":
        return _lattice_bridges(geom, grid, starts, ends, steps, group, start, rng)
    density, M = form
    first = np.cumsum(steps) - steps
    walks = np.empty(first[-1] + steps[-1])
    for K in np.unique(steps):
        rows = np.nonzero(steps == K)[0]
        walks[first[rows, None] + np.arange(K)] = _circle_bridges(
            geom.circumference, starts[rows], ends[rows], K * grid.eps, K, rng)[:, :K]
    length = np.bincount(group, weights=steps).astype(int)
    offset = np.cumsum(length) - length
    phi = np.empty((len(length), grid.n_slices, len(M)))
    for w in np.unique(length):
        rows = np.nonzero(length == w)[0]
        phi[rows] = density(walks[offset[rows, None] + np.arange(w)], start, grid.n_slices)
    return phi


def _pair_form(geom: TorusGeometry, v):
    """Slice-density map and matrix M with sum_{a in A, b in B} v(a - b) = phi(A).M.phi(B).

    Lattice: phi is the visit count per site and M = v(x - y); the map is
    None, because the bridge pass counts each site as it draws it
    (`_lattice_bridges`).  Circle: density(pos, start, n_tau) maps paths pos
    (S, P), whose first position sits on phase start, to their (S, n_tau, F)
    feature sums per phase: the count and the cos / sin (2 pi k x / L) sums
    for k = 1..K, with M = diag(v_0, 2 v_k, 2 v_k) and K taken where the
    Fourier coefficients fall below _MODE_CUTOFF * v_0.  A row may be a group
    walk: loops of whole periods from phase 0 laid end to end, whose density
    is the sum of the loops' densities.  Mode k is the k-th power of one
    exp(2 pi i x / L) per position, summed per phase by folding the
    zero-padded positions into block-major (blocks, S, n_tau) slabs, which is
    the product with the (positions x n_tau) phase one-hot without its
    multiplications by zero.
    """
    if geom.mode == "lattice":
        return None, v.matrix()
    k_max = 32
    vhat = v.fourier_coefficients(k_max)
    while abs(vhat[-1]) > _MODE_CUTOFF * abs(vhat[0]):
        k_max *= 2
        vhat = v.fourier_coefficients(k_max)
    K = int(np.flatnonzero(np.abs(vhat) > _MODE_CUTOFF * abs(vhat[0])).max(initial=0))
    wave = 2.0 * np.pi / geom.circumference

    def mode_sums(pos, start, n_tau):
        S, P = pos.shape
        lead = start % n_tau
        blocks = -(-(lead + P) // n_tau)
        arg = np.zeros((S, blocks * n_tau))
        arg[:, lead:lead + P] = wave * pos
        # block-major (blocks, S, n_tau): the sum over blocks adds whole slabs
        arg = arg.reshape(S, blocks, n_tau).transpose(1, 0, 2)
        z = np.empty((blocks, S, n_tau), dtype=complex)
        np.cos(arg, out=z.real)
        np.sin(arg, out=z.imag)
        z[0, :, :lead] = 0.0  # zero outside the path
        z[-1, :, lead + P - (blocks - 1) * n_tau:] = 0.0
        phi = np.empty((2 * K + 1, S, n_tau))  # feature-major: each mode is one slab
        phi[0] = np.bincount((lead + np.arange(P)) % n_tau, minlength=n_tau)
        zk = z
        for k in range(1, K + 1):
            if k > 1:
                zk = zk * z
            sums = zk.sum(axis=0)
            phi[k] = sums.real
            phi[K + k] = sums.imag
        return phi.transpose(1, 2, 0)

    return mode_sums, np.diag(np.concatenate([vhat[:1], 2.0 * vhat[1:K + 1],
                                              2.0 * vhat[1:K + 1]]))


# ---------------------------------------------------------------------------
# free loop sums


def free_loop_sum(geom: TorusGeometry, nu: float, kappa0: float, l_max: int) -> float:
    """Q = sum_{l <= l_max} (e^{-kappa0 l nu}/l) * (base-point sum of p_{l nu}(u,u)).

    As l_max grows this tends to log Xi_free per species.
    """
    return float(activity_table(geom, nu, kappa0, l_max).sum())


def activity_table(geom: TorusGeometry, nu: float, kappa: float, l_max: int) -> np.ndarray:
    """Total single-loop activity per winding, a_l summed over base points."""
    vol = _volume(geom)
    return np.array([
        np.exp(-kappa * ell * nu) / ell * vol * _diag_heat(geom, ell * nu)
        for ell in range(1, l_max + 1)
    ])


def _winding_tail(geom: TorusGeometry, nu: float, kappa: float, l_max: int) -> float:
    """Single-loop activity beyond winding l_max, the free log trace less sum_{l <= l_max} a_l."""
    return free_log_trace(geom, nu, kappa) - float(activity_table(geom, nu, kappa, l_max).sum())


# ---------------------------------------------------------------------------
# bridge sampling


def _lattice_bridges(geom: TorusGeometry, grid: TimeGrid, starts: np.ndarray,
                     ends: np.ndarray, steps: np.ndarray, group: np.ndarray, start: int,
                     rng: np.random.Generator) -> np.ndarray:
    """(G, n_tau, n_sites) visit counts of pinned site paths per group, one pass for all.

    Exact conditional law; paths as in `_bridge_densities`, group ids in any
    order.  The paths are sorted by length and aligned at their end: at
    global step g every live path has k_max - g steps left, so all of them
    draw the next site from p_eps(cur, .) p_{(k_max - g) eps}(., end) with
    the same kernel power, and they are the leading rows [:m] of the sorted
    batch.  The powers p_{k eps}, k = 0..k_max, come from one spectral stack.
    No position is kept.  Global step g is phase (start + g) mod n_tau, and a
    path of K steps begins on step k_max - K, so on phase start when the step
    counts agree mod n_tau.  The site of each row begun by step g (its start
    point until it draws) becomes a (group, phase, site) cell in one buffer,
    counted by one `bincount`; the pinned final step k_max is never counted.
    """
    n, n_tau = geom.n_sites, grid.n_slices
    k_max = int(steps.max())
    evals, evecs = _spectral_data(geom)
    decay = np.exp(0.5 * grid.eps * np.arange(k_max + 1)[:, None] * evals)
    ker = (evecs * decay[:, None, :]) @ evecs.T
    order = np.argsort(-steps, kind="stable")
    longest = -steps[order]
    sites, ends = starts[order], ends[order]
    if np.any(ker[-longest, sites, ends] < UNDERFLOW):
        raise ValueError("endpoint unreachable: p_T(x, y) underflows")
    live = np.searchsorted(longest, np.arange(k_max + 1) - k_max)
    hop = ker[1].T.copy()  # hop[x, u] = p_eps(u, x)
    lower = np.tril(np.ones((n, n)))  # cdf by GEMM: np.cumsum is slower
    base = group[order] * (n_tau * n)
    cells = np.empty(int(steps.sum()), dtype=np.intp)
    done = 0
    for g in range(k_max):
        if g:
            m = live[g]
            probs = hop.take(sites[:m], axis=1) * ker[k_max - g].take(ends[:m], axis=1)
            cdf = lower @ probs
            sites[:m] = (cdf < rng.random(m) * cdf[-1]).sum(axis=0)
        present = live[g + 1]  # every row of more than k_max - g - 1 steps
        cell = cells[done:done + present]
        np.add(base[:present], sites[:present], out=cell)
        cell += (start + g) % n_tau * n
        done += present
    return np.bincount(cells, minlength=(int(group.max()) + 1) * n_tau * n).reshape(
        -1, n_tau, n).astype(float)


def _circle_bridges(L: float, starts: np.ndarray, ends: np.ndarray, T: float,
                    n_steps: int, rng: np.random.Generator) -> np.ndarray:
    """Continuum bridges on the circle: winding sector, then a Gaussian bridge.

    Positions are returned unwrapped; consumers wrap displacements mod L.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    S = len(starts)
    d0 = np.mod(ends - starts + 0.5 * L, L) - 0.5 * L
    w_cap = int(np.ceil(np.sqrt(2.0 * T * 40.0) / L)) + 1
    w = np.arange(-w_cap, w_cap + 1)
    drift_opts = d0[:, None] + w[None, :] * L
    logw = -(drift_opts**2) / (2.0 * T)
    probs = np.exp(logw - logw.max(axis=1, keepdims=True))
    cdf = np.cumsum(probs, axis=1)
    pick = (cdf < rng.random((S, 1)) * cdf[:, -1:]).sum(axis=1)
    drift = drift_opts[np.arange(S), pick]
    path = np.zeros((S, n_steps + 1))
    np.cumsum(rng.normal(0.0, np.sqrt(T / n_steps), (S, n_steps)), axis=1,
              out=path[:, 1:])
    slope = drift - path[:, -1]  # tilts the Brownian end onto the drift: a bridge
    path += starts[:, None]
    path += slope[:, None] * (np.arange(n_steps + 1) / n_steps)
    return path


# ---------------------------------------------------------------------------
# loop ensemble (batched): one bridge pass draws every path of an ensemble
# straight into the slice densities phi of shape (..., n_tau, F) of its groups,
# and a pair sum is (eps/2) sum_t phi_t . M . phi'_t


def _stratified_uniforms(rng, shape) -> np.ndarray:
    """Uniforms on [0, 1) of the given shape, stratified along the last axis.

    The last axis of length m is cut as `stats.batch_layout(m)`: in each batch
    of b entries, entry j is (perm[j] + U) / b for a random permutation perm
    of 0..b-1, drawn afresh per batch and leading index, so the batch holds
    one uniform in each stratum [k / b, (k + 1) / b) and the batches stay
    independent.  The r remainder entries, which no error batch sees, are
    stratified the same way as one block of r.
    """
    *lead, m = shape
    n_batches, b = batch_layout(m)
    r = m - n_batches * b

    def strata(block_shape):
        keys = rng.random(block_shape)
        return (np.argsort(keys, axis=-1) + rng.random(block_shape)) / block_shape[-1]

    return np.concatenate([strata((*lead, n_batches, b)).reshape(*lead, m - r),
                           strata((*lead, r))], axis=-1)


def _inverse_cdf(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices into weights drawn proportional to them, one per uniform in u."""
    cdf = np.cumsum(weights)
    return np.searchsorted(cdf / cdf[-1], u, side="right")


def _loop_densities(geom, grid, form, act, counts, rng) -> np.ndarray:
    """(G, n_tau, F) slice densities of groups of activity-sampled loops.

    counts is (rows, m), or one row as a 1-D array: row r holds m groups,
    group g counts[r, g] >= 1 loops, and the G = rows * m groups come out in
    row-major order.  The windings of loop i of a row's groups form one slot,
    drawn from the activity by the inverse CDF of `_stratified_uniforms`
    along the row, so in every batch of b groups the count of windings up to
    l is within one loop of b * (a_1 + ... + a_l) / A.  Then the base points,
    and all loops in one `_bridge_densities` pass.  A loop is whole periods
    begun on phase 0, so a group's density is the sum of its loops'.
    """
    counts = np.atleast_2d(counts)
    rows, m = counts.shape
    slots = int(counts.max())
    u = _stratified_uniforms(rng, (rows, slots, m)).transpose(0, 2, 1)
    # loop i of group (r, g), groups row-major and loops in order within each
    W = 1 + _inverse_cdf(act, u[np.arange(slots) < counts[..., None]])
    starts = _base_points(geom, W.size, rng)
    group = np.repeat(np.arange(rows * m), counts.ravel())
    return _bridge_densities(geom, grid, form, starts, starts, W * grid.n_slices,
                             group, 0, rng)


def _pair_sum(phi: np.ndarray, M: np.ndarray, eps: float) -> np.ndarray:
    """(eps/2) sum_t phi_t . M . phi_t per sample, all ordered visit pairs.

    A diagonal M (the circle's Fourier form, a delta potential) is applied as
    the vector of its diagonal, with no (F x F) product per row.
    """
    diag = np.diagonal(M)
    if np.array_equal(M, np.diag(diag)):
        return 0.5 * eps * (np.einsum("...tx,...tx->...x", phi, phi) @ diag)
    return 0.5 * eps * np.einsum("...tx,...tx->...", phi @ M, phi)


def _series_coefficients(n_species: float, A: float, n_max: int) -> np.ndarray:
    """(N A)^n / n! for n = 1..n_max."""
    n = np.arange(1, n_max + 1)
    if n_species * A <= 0:
        return np.zeros(n_max)
    return np.exp(n * np.log(n_species * A) - gammaln(n + 1))


def _loop_groups(geom, grid, form, act, n_max, samples, rng) -> np.ndarray:
    """(n_max, samples, n_tau, F) slice densities of the n-loop groups, n = 1..n_max.

    One `_loop_densities` call: row n holds one group of n loops per sample,
    so a sample's n-loop density is read off its group, never summed from
    per-loop densities, and loop i of the n-loop groups is one winding slot
    stratified over the samples.
    """
    counts = np.repeat(np.arange(1, n_max + 1)[:, None], samples, axis=1)
    return _loop_densities(geom, grid, form, act, counts, rng).reshape(
        n_max, samples, grid.n_slices, len(form[1]))


def xi_rel_series(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                  n_max: int, l_max: int, samples: int, seed: int = 0) -> ComplexEstimate:
    """Xi_rel = const * e^{-N Q(kappa0)} * sum_{n <= n_max} (N^n/n!) I_n.

    I_n is the n-loop integral estimated over activity-sampled loops, with
    windings stratified within each error batch.  The free normalization uses
    the same winding truncation, but the windings it drops carry weight 1
    there and their interaction weight here.  extra["winding_tail"] is N times
    the activity beyond l_max at kappa_eff: 1.9e-4 on 2 sites at kappa0 1,
    lambda0 0.5, n_tau 32, l_max 6, where 3000 seeds put the bias of Xi_rel
    at 1.3e-4 +- 0.15e-4.
    The activity A, the tails and Q are computed once for both branches:
    lam = 0 short-circuits to the closed form const * e^{N (A - Q)} (exact 1
    at rho = 0), whose raw series sum_{n <= n_max} (N A)^n / n! is exact too.
    """
    check_grid_period(grid, params)
    kappa = kappa_eff(params, v)
    act = activity_table(geom, grid.nu, kappa, l_max)
    A = float(act.sum())
    coef = _series_coefficients(params.n_species, A, n_max)
    q0 = free_loop_sum(geom, grid.nu, params.kappa0, l_max)
    # Poisson tail beyond n_max loops: 1 - e^{-NA} sum_{k <= n_max} (NA)^k / k!
    tail = float(gammainc(n_max + 1, params.n_species * A))
    winding_tail = params.n_species * _winding_tail(geom, grid.nu, kappa, l_max)
    const = np.exp(_rho_log_constant(params, geom, v))
    if params.lam == 0.0:
        est = exact_estimate(const * np.exp(params.n_species * (A - q0)), samples,
                             seed=seed)
        raw, raw_se = 1.0 + float(coef.sum()), 0.0
    else:
        form = _pair_form(geom, v)
        phi = _loop_groups(geom, grid, form, act, n_max, samples,
                           np.random.default_rng(seed))
        series = 1.0 + coef @ np.exp(-(params.lam / params.nu)
                                     * _pair_sum(phi, form[1], grid.eps))
        est = mean_estimate(const * np.exp(-params.n_species * q0) * series, seed=seed)
        raw_est = mean_estimate(series)
        raw, raw_se = raw_est.value.real, raw_est.stderr_re
    est.extra.update(
        activity=A,
        q_free=q0,
        tail_rel=tail,
        winding_tail=winding_tail,
        truncation_flag=tail > 1e-2,
        raw_value=raw,
        raw_stderr=raw_se,
    )
    return est


def _open_weights(params, geom, grid, v, s: float, x, x_p, l_max: int):
    """b_l0 = e^{-kappa T} p_T(x, x') for T = s + l0 nu, l0 = 0..l_max."""
    kappa = kappa_eff(params, v)
    out = np.zeros(l_max + 1)
    for l0 in range(l_max + 1):
        T = s + l0 * grid.nu
        if T > 0:
            out[l0] = np.exp(-kappa * T) * _transition(geom, T, x, x_p)
    return out


def duhamel_loopgas(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                    tau: float, x, tau_p: float, x_p, n_max: int, l_max: int,
                    samples: int, seed: int = 0) -> ComplexEstimate:
    """Two-point function from one open path immersed in the loop gas.

    numerator = B E[e^{-(lam/nu) V_0} + sum_n (N A)^n / n! e^{-(lam/nu) V_0n}],
    B = sum_{l0 <= l_max} b_l0 (`_open_weights`), V_0 the open path's
    self-energy and V_0n its pair sum with an n-loop group; denominator the
    loop-only series, loops shared between the two.  The open winding l0 is
    drawn from b by stratified uniforms, like the loops' windings.  lam = 0
    returns B: the winding sum truncated at l_max, like every loop-gas value.
    Equal times drop the l0 = 0 (zero-duration) term, matching the other
    routes' convention.
    """
    check_grid_period(grid, params)
    nu = params.nu
    if not (0.0 <= tau_p <= tau < nu):
        raise ValueError("need 0 <= tau' <= tau < nu")
    s = tau - tau_p
    j_hi, j_lo = grid.slice_index(tau), grid.slice_index(tau_p)
    bvec = _open_weights(params, geom, grid, v, s, x, x_p, l_max)
    B = float(bvec.sum())

    if params.lam == 0.0:
        return exact_estimate(B, samples, seed=seed, extra={"species_diagonal": True})

    rng = np.random.default_rng(seed)
    # sample the open winding l0, then all pinned paths in one bridge pass; at
    # equal times b_0 = 0, so every path takes at least one step
    l0s = _inverse_cdf(bvec, _stratified_uniforms(rng, (samples,)))
    form = _pair_form(geom, v)
    M = form[1]
    phi0 = _bridge_densities(geom, grid, form, np.full(samples, x_p), np.full(samples, x),
                             j_hi - j_lo + l0s * grid.n_slices, np.arange(samples),
                             j_lo, rng)
    act = activity_table(geom, grid.nu, kappa_eff(params, v), l_max)
    A = float(act.sum())
    coef = _series_coefficients(params.n_species, A, n_max)
    phi = _loop_groups(geom, grid, form, act, n_max, samples, rng)
    lam_over_nu = params.lam / nu
    series = 1.0 + coef @ np.exp(-lam_over_nu * _pair_sum(phi, M, grid.eps))
    # n = 0 term with the open path's self-energy
    series_open = np.exp(-lam_over_nu * _pair_sum(phi0, M, grid.eps))
    series_open += coef @ np.exp(-lam_over_nu * _pair_sum(phi + phi0, M, grid.eps))
    est = ratio_estimate(B * series_open, series, seed=seed)
    est.extra.update(species_diagonal=True, open_weight=B,
                     tail_rel=float(gammainc(n_max + 1, params.n_species * A)))
    return est
