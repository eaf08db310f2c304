"""The padded bridge layout, the reference for the fused slice-density pass.

Every ensemble is drawn into one end-aligned (paths, k_max + 1) array padded
with copies of each start point; each path's columns are cut back out and
turned into slice densities per step count (open paths) or per group walk of
loops laid end to end (loop groups).  It makes the same random draws as
`loopgas._bridge_densities`, so the densities must agree bit for bit.  The
lattice paths are built one at a time from their jumps; `forward_bridges`
keeps the step-by-step heat-kernel sampler as a second, independent law.
"""

import numpy as np

from bosegas.loopgas import (_base_points, _circle_bridges, _inverse_cdf, _jump_tables,
                             _pair_form, _stratified_uniforms)
from bosegas.lattice import _circulant_matrix, _spectral_data

UNDERFLOW = 1e-300


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
    """End-aligned (S, k_max + 1) site paths, rows in input order, path by path.

    The draws of `loopgas._lattice_bridges`: one uniform per path and
    coordinate picks the coordinate's +1 and -1 jump counts from its table,
    then one uniform u per jump (path by path, coordinate by coordinate, +1
    jumps first) moves the coordinate from step floor(u K) + 1 on.  A table
    depends on the others in its `_jump_tables` call only through their
    common count range, so one table per path and coordinate here is the
    pass's table bit for bit.
    """
    m, d = geom.sites_per_side, geom.dimension
    rate = 0.5 * eps if m > 1 else 0.0
    coords = geom.site_coords()
    k_max = int(steps.max())
    delta = (coords[ends] - coords[starts]) % m
    cdf = _jump_tables(rate * np.repeat(steps, d), m, delta.ravel())
    size = cdf.shape[-1]
    u = rng.random((len(steps), d))
    moves = []
    for i in range(len(steps)):
        for c in range(d):
            plus, minus = divmod(np.searchsorted(cdf[i * d + c].ravel(), u[i, c], side="right"),
                                 size)
            moves += [(i, c, 1)] * plus + [(i, c, -1)] * minus
    pos = np.repeat(coords[starts][:, :, None], k_max + 1, axis=2)
    for (i, c, sign), t in zip(moves, rng.random(len(moves))):
        pos[i, c, k_max - steps[i] + int(t * steps[i]) + 1:] += sign
    return (pos % m * m ** np.arange(d - 1, -1, -1)[:, None]).sum(axis=1)


def forward_bridges(geom, starts, ends, steps, eps, rng):
    """End-aligned (S, k_max + 1) site paths, one forward pass over the grid steps.

    At global step g every path with steps left draws its next site from
    p_eps(cur, .) p_{(k_max - g) eps}(., end), the powers from one spectral
    stack; its own draws, not those of `loopgas._lattice_bridges`.
    """
    k_max = int(steps.max())
    decay = np.exp(0.5 * eps * np.arange(k_max + 1)[:, None] * _spectral_data(geom))
    ker = _circulant_matrix(geom, decay)
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
