"""Cluster expansion of the loop gas: connected graphs, Ursell coefficients.

ln of the grand series is expanded in the number of loops; the order-n term
b_n sums over connected graphs on n labelled vertices, each edge carrying a
pair factor e^{-2(lam/nu) V_nu} - 1 (the 2 because the exponent's ordered
double sum counts every unordered pair twice) and each vertex carrying the
single-loop activity times its self-energy e^{-(lam/nu) V_nu(w, w)}.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .lattice import CapacityError, ModelParams, TimeGrid, TorusGeometry
from .loopgas import (
    GridPath,
    _loop_densities,
    _pair_form,
    activity_table,
    free_loop_sum,
    kappa_eff,
    loop_interaction_Vnu,
)
from .stats import ComplexEstimate, mean_estimate

__all__ = [
    "ClusterGraph",
    "mayer_factor",
    "enumerate_connected",
    "ursell_coefficient",
    "n_polynomial",
    "log_xi_rel_partial",
]

MAX_CLUSTER = 5


@dataclass(frozen=True)
class ClusterGraph:
    """Connected labelled graph with its canonical spanning tree."""

    n: int
    edges: tuple
    spanning_tree: tuple

    def __post_init__(self):
        assert len(self.spanning_tree) == self.n - 1
        assert set(self.spanning_tree) <= set(self.edges)


def _connected(n: int, edges) -> bool:
    seen = {0}
    frontier = [0]
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    while frontier:
        u = frontier.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def _kruskal_tree(n: int, edges) -> tuple:
    """Lexicographically minimal spanning tree (Kruskal over sorted edges)."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree = []
    for a, b in sorted(edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.append((a, b))
    return tuple(tree)


@functools.lru_cache(maxsize=None)
def enumerate_connected(n: int) -> tuple:
    """All connected labelled graphs on n vertices, deterministic order.

    Counts for n = 1..5: 1, 1, 4, 38, 728.  Built once per n and shared.
    """
    if n > MAX_CLUSTER:
        raise CapacityError(f"cluster order {n} exceeds {MAX_CLUSTER}")
    if n < 1:
        raise ValueError("need at least one vertex")
    all_edges = list(itertools.combinations(range(n), 2))
    graphs = []
    for k in range(len(all_edges) + 1):
        for subset in itertools.combinations(all_edges, k):
            if _connected(n, subset):
                graphs.append(ClusterGraph(n=n, edges=tuple(subset),
                                           spanning_tree=_kruskal_tree(n, subset)))
    return tuple(graphs)


def mayer_factor(path1: GridPath, path2: GridPath, params: ModelParams,
                 geom: TorusGeometry, n_tau: int, v) -> float:
    """G = exp(-(lam/nu) V_nu(w, w')) - 1, in (-1, 0] for v >= 0."""
    vval = loop_interaction_Vnu(path1, path2, n_tau, v, geom)
    return float(np.expm1(-params.lam / params.nu * vval))


def _pair_matrix(geom, grid, v, n, act, samples, rng):
    """(samples, n, n) matrix of V_nu(w_i, w_j) for n i.i.d. activity loops."""
    form = _pair_form(geom, v)
    phi = _loop_densities(geom, grid, form, act, (samples, n), rng)
    return 0.5 * grid.eps * np.einsum("sitx,sjtx->sij", phi @ form[1], phi)


@dataclass
class UrsellResult:
    value: float
    stderr: float
    tree_bound_max: float
    n_samples: int


def ursell_coefficient(n: int, params: ModelParams, geom: TorusGeometry,
                       grid: TimeGrid, v, l_max: int, samples: int,
                       seed: int = 0) -> UrsellResult:
    """b_n = (N^n/n!) A^n sum_{connected G} E[prod_edges G * prod_i self_i].

    The tree-bound diagnostic is the largest sampled ratio of |graph product|
    to |spanning-tree product| (non-tree factors majorized by 1), which the
    cluster-convergence argument requires to stay <= 1.
    """
    if n > MAX_CLUSTER:
        raise CapacityError(f"cluster order {n} exceeds {MAX_CLUSTER}")
    kappa = kappa_eff(params, v)
    act = activity_table(geom, grid.nu, kappa, l_max)
    A = float(act.sum())
    prefac = params.n_species**n * A**n / float(np.exp(gammaln(n + 1)))
    if n == 1:
        if params.lam == 0.0:
            return UrsellResult(value=prefac, stderr=0.0, tree_bound_max=0.0,
                                n_samples=samples)
    elif params.lam == 0.0:
        return UrsellResult(value=0.0, stderr=0.0, tree_bound_max=0.0,
                            n_samples=samples)
    rng = np.random.default_rng(seed)
    vpair = _pair_matrix(geom, grid, v, n, act, samples, rng)
    lam_over_nu = params.lam / params.nu
    selfs = np.exp(-lam_over_nu * np.einsum("sii->si", vpair)).prod(axis=1)
    gfac = np.expm1(-2.0 * lam_over_nu * vpair)  # doubled: ordered pair sum
    graph_sum = np.zeros(samples)
    tree_bound = 0.0
    for graph in enumerate_connected(n):
        term = np.ones(samples)
        for a, b in graph.edges:
            term = term * gfac[:, a, b]
        graph_sum += term
        if graph.n >= 2 and len(graph.edges) > len(graph.spanning_tree):
            tree_term = np.ones(samples)
            for a, b in graph.spanning_tree:
                tree_term = tree_term * gfac[:, a, b]
            nz = np.abs(tree_term) > 0
            if np.any(nz):
                tree_bound = max(tree_bound, float(
                    np.max(np.abs(term[nz]) / np.abs(tree_term[nz]))))
    est = mean_estimate(prefac * graph_sum * selfs, seed=seed)
    return UrsellResult(value=est.value.real, stderr=est.stderr_re,
                        tree_bound_max=tree_bound, n_samples=samples)


def log_xi_rel_partial(params: ModelParams, geom: TorusGeometry, grid: TimeGrid,
                       v, n_orders: int, l_max: int, samples: int,
                       seed: int = 0) -> ComplexEstimate:
    """Partial sum sum_{n <= n_orders} b_n - N Q(kappa0), estimating ln Xi_rel.

    Q uses the same winding truncation as the activities so the l_max bias
    cancels against b_1.
    """
    q0 = free_loop_sum(geom, grid.nu, params.kappa0, l_max)
    total, var = -params.n_species * q0, 0.0
    per_order = {}
    for n in range(1, n_orders + 1):
        b = ursell_coefficient(n, params, geom, grid, v, l_max, samples,
                               seed=seed + n)
        total += b.value
        var += b.stderr**2
        per_order[n] = (b.value, b.stderr)
    return ComplexEstimate(value=complex(total), stderr_re=float(np.sqrt(var)),
                           stderr_im=0.0, n_samples=samples, seed=seed,
                           ess=float(samples), extra={"orders": per_order})


def n_polynomial(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                 n_orders: int, l_max: int, samples: int, seed: int = 0) -> dict:
    """Coefficients c_n = b_n / N^n of the species polynomial of ln Xi_rel."""
    coeffs = {}
    for n in range(1, n_orders + 1):
        b = ursell_coefficient(n, params, geom, grid, v, l_max, samples,
                               seed=seed + n)
        coeffs[n] = (b.value / params.n_species**n,
                     b.stderr / params.n_species**n)
    return {"coefficients": coeffs, "coupling_mode": params.coupling_mode}
