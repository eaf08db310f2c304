"""The padded bridge layout, the reference for the fused slice-density pass.

Every ensemble is drawn into one end-aligned (paths, k_max + 1) array padded
with copies of each start point; each path's columns are cut back out and
turned into slice densities per step count (open paths) or per group walk of
loops laid end to end (loop groups).  It makes the same random draws as
`loopgas._bridge_densities`, so the densities must agree bit for bit.
"""

import numpy as np

from bosegas.loopgas import (UNDERFLOW, _base_points, _circle_bridges,
                             _inverse_cdf, _pair_form, _stratified_uniforms)
from bosegas.propagators import _spectral_data


def reference_form(geom, v):
    """(density, M): visit counts per site on the lattice, the circle's own mode sums."""
    if geom.mode != "lattice":
        return _pair_form(geom, v)
    n = geom.n_sites

    def counts(pos, start, n_tau):
        S, P = pos.shape
        phases = (start + np.arange(P)) % n_tau
        cell = (np.arange(S)[:, None] * n_tau + phases) * n + pos
        return np.bincount(cell.ravel(), minlength=S * n_tau * n).reshape(
            S, n_tau, n).astype(float)

    return counts, v.matrix()


def lattice_bridges(geom, starts, ends, steps, eps, rng):
    """End-aligned (S, k_max + 1) site paths, rows in input order, one forward pass."""
    k_max = int(steps.max())
    evals, evecs = _spectral_data(geom)
    decay = np.exp(0.5 * eps * np.arange(k_max + 1)[:, None] * evals)
    ker = (evecs * decay[:, None, :]) @ evecs.T
    order = np.argsort(-steps, kind="stable")
    longest = -steps[order]
    starts, ends = starts[order], ends[order]
    if np.any(ker[-longest, starts, ends] < UNDERFLOW):
        raise ValueError("endpoint unreachable: p_T(x, y) underflows")
    live = np.searchsorted(longest, np.arange(k_max + 1) - k_max)
    hop = ker[1].T.copy()
    lower = np.tril(np.ones((geom.n_sites, geom.n_sites)))
    site = np.min_scalar_type(geom.n_sites - 1)
    pos = np.tile(starts.astype(site), (k_max + 1, 1))
    pos[-1] = ends
    for g in range(1, k_max):
        m = live[g]
        probs = hop.take(pos[g - 1, :m], axis=1) * ker[k_max - g].take(ends[:m], axis=1)
        cdf = lower @ probs
        pos[g, :m] = (cdf < rng.random(m) * cdf[-1]).sum(axis=0)
    out = np.empty((len(steps), k_max + 1), dtype=site)
    out[order] = pos.T
    return out


def bridges(geom, grid, starts, ends, steps, rng):
    """Paths of steps[i] grid steps pinned at starts[i] and ends[i], end-aligned.

    Path i fills columns k_max - steps[i] .. k_max and holds its start point
    in the columns before.
    """
    steps = np.asarray(steps)
    starts = np.asarray(starts)
    ends = np.asarray(ends)
    if geom.mode == "lattice":
        return lattice_bridges(geom, starts, ends, steps, grid.eps, rng)
    k_max = int(steps.max())
    pos = np.repeat(starts.astype(float)[:, None], k_max + 1, axis=1)
    for K in np.unique(steps):
        rows = np.nonzero(steps == K)[0]
        pos[rows, k_max - K:] = _circle_bridges(geom.circumference, starts[rows],
                                                ends[rows], K * grid.eps, K, rng)
    return pos


def path_densities(geom, grid, form, starts, ends, steps, start, rng):
    """(S, n_tau, F) slice densities of pinned paths begun on phase start."""
    density, M = form
    pos = bridges(geom, grid, starts, ends, steps, rng)
    k_end = pos.shape[1] - 1
    phi = np.empty((len(steps), grid.n_slices, len(M)))
    for K in np.unique(steps):
        rows = np.nonzero(steps == K)[0]
        phi[rows] = density(pos[rows, k_end - K:k_end], start, grid.n_slices)
    return phi


def loop_densities(geom, grid, form, act, counts, rng):
    """(G, n_tau, F) slice densities of groups of activity-sampled loops.

    The draws of `loopgas._loop_densities`; each group's loops are cut out of
    the padded layout and laid end to end, and the walks are bucketed by
    total winding, one `density` call per bucket.
    """
    density, M = form
    n_tau = grid.n_slices
    counts = np.atleast_2d(counts)
    rows, m = counts.shape
    slots = int(counts.max())
    u = _stratified_uniforms(rng, (rows, slots, m)).transpose(0, 2, 1)
    W = 1 + _inverse_cdf(act, u[np.arange(slots) < counts[..., None]])
    counts = counts.ravel()
    starts = _base_points(geom, W.size, rng)
    steps = W * n_tau
    pos = bridges(geom, grid, starts, starts, steps, rng)
    k_end = pos.shape[1] - 1
    walks = pos[:, :k_end][np.arange(k_end) >= k_end - steps[:, None]]
    total = np.add.reduceat(W, np.cumsum(counts) - counts)
    offset = (np.cumsum(total) - total) * n_tau
    phi = np.empty((len(counts), n_tau, len(M)))
    for w in np.unique(total):
        rows = np.nonzero(total == w)[0]
        phi[rows] = density(walks[offset[rows, None] + np.arange(w * n_tau)], 0, n_tau)
    return phi
