"""Cluster expansion of the loop gas: Ursell coefficients by subset recursion.

ln of the grand series is expanded in the number of loops; the order-n term
b_n sums over connected graphs on n labelled vertices, each edge carrying a
pair factor e^{-2(lam/nu) V_nu} - 1 (the 2 because the exponent's ordered
double sum counts every unordered pair twice) and each vertex carrying the
single-loop activity times its self-energy e^{-(lam/nu) V_nu(w, w)}.  No graph
is listed: the connected sum, and the spanning-tree sum of Penrose's
tree-graph bound, come from one recursion over vertex subsets rooted at their
top vertex (Brydges, "A short course on cluster expansions", Les Houches
1984; Penrose, "Convergence of fugacity expansions for classical systems",
1967), vectorized over samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .lattice import CapacityError, ModelParams, TimeGrid, TorusGeometry, check_grid_period
from .loopgas import (
    _loop_densities,
    _pair_form,
    _rho_log_constant,
    _winding_tail,
    activity_table,
    free_loop_sum,
    kappa_eff,
)
from .stats import ComplexEstimate, mean_estimate

__all__ = [
    "ursell_coefficient",
    "n_polynomial",
    "log_xi_rel_partial",
]

MAX_CLUSTER = 5


@lru_cache(maxsize=MAX_CLUSTER)
def _subset_layers(n: int):
    """Bitmask index arrays of `_rooted_sum`, one layer per subset size 2..n.

    Each layer is (sets, top, blocks, rest): every set S of that size, its top
    vertex v, the blocks B (rows) in submask order, and S - B.  All sets of
    size k have 2^(k-2) blocks, so each layer is a regular array.
    """
    layers = []
    for k in range(2, n + 1):
        sets = [s for s in range(1 << n) if s.bit_count() == k]
        top, blocks = [], []
        for s in sets:
            v = s.bit_length() - 1
            u = s ^ (1 << v)
            low = u & -u
            rest = u ^ low
            subs = [rest]  # every submask of the rest of U, down to 0
            while subs[-1]:
                subs.append((subs[-1] - 1) & rest)
            top.append(v)
            blocks.append([b | low for b in subs])
        sets, blocks = np.array(sets), np.array(blocks)
        layers.append((sets, np.array(top)[:, None], blocks, sets[:, None] ^ blocks))
    return layers


def _rooted_sum(x: np.ndarray, link) -> np.ndarray:
    """Sum over connected structures on all n vertices, per sample.

    x is a (samples, n, n) symmetric edge table.  Each structure on a vertex
    set S is rooted at its top vertex v: removing v leaves blocks B of
    U = S - {v}, each a structure of its own, joined to v by the factor
    L_v(B) = link(sum_{i in B} x[:, i, v]).  Over bitmasks, C({v}) = 1 and
    C(S) = sum_{B ∋ min U, B ⊆ U} C(B) L_v(B) C(S - B).  A set needs only
    smaller sets, so all sets of one size are summed in one pass.
    """
    samples, n, _ = x.shape
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    links = link(np.moveaxis(bits @ x, 0, -1))  # (2^n, v, samples)
    c = np.ones((1 << n, samples))
    for sets, top, blocks, rest in _subset_layers(n):
        c[sets] = np.sum(c[blocks] * links[blocks, top] * c[rest], axis=1)
    return c[-1]


def _pair_matrix(geom, grid, v, n, act, samples, rng):
    """(samples, n, n) matrix of V_nu(w_i, w_j) for n activity loops per sample.

    Loop i of every sample is one winding slot of `_loop_densities`, its
    windings stratified over the samples; the n slots are independent.
    """
    form = _pair_form(geom, v)
    phi = _loop_densities(geom, grid, form, act, np.ones((n, samples), dtype=int),
                          rng).reshape(n, samples, grid.n_slices, len(form[1]))
    return 0.5 * grid.eps * np.einsum("istx,jstx->sij", phi @ form[1], phi)


@dataclass
class UrsellResult:
    value: float
    stderr: float
    tree_bound_max: float
    n_samples: int


def ursell_coefficient(n: int, params: ModelParams, geom: TorusGeometry,
                       grid: TimeGrid, v, l_max: int, samples: int,
                       seed: int = 0) -> UrsellResult:
    """b_n = (N^n/n!) A^n E[C_n * prod_i self_i], C_n the connected-graph sum.

    C_n = sum over connected graphs on n loops of prod_edges f, with
    f = e^{-2 (lam/nu) V_nu} - 1, comes from `_rooted_sum` with the link
    factor prod_{i in B} (1 + f_iv) - 1 = expm1(-2 (lam/nu) sum_{i in B} V_iv).
    The same recursion with link sum_{i in B} |f_iv| gives the spanning-tree
    sum T_n = sum_trees prod |f|.  tree_bound_max is the Penrose tree-graph
    ratio max |C_n| / T_n over the samples with T_n > 0 (0 for n = 1); it is
    <= 1 whenever every f lies in [-1, 0], and an attractive f can push it
    above 1.
    """
    check_grid_period(grid, params)
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
    x = -2.0 * lam_over_nu * vpair  # doubled: ordered pair sum
    connected = _rooted_sum(x, np.expm1)
    tree_ratio = 0.0
    if n >= 2:
        trees = _rooted_sum(np.abs(np.expm1(x)), np.positive)
        pos = trees > 0
        tree_ratio = float(np.max(np.abs(connected[pos]) / trees[pos], initial=0.0))
    est = mean_estimate(prefac * connected * selfs, seed=seed)
    return UrsellResult(value=est.value.real, stderr=est.stderr_re,
                        tree_bound_max=tree_ratio, n_samples=samples)


def log_xi_rel_partial(params: ModelParams, geom: TorusGeometry, grid: TimeGrid,
                       v, n_orders: int, l_max: int, samples: int,
                       seed: int = 0) -> ComplexEstimate:
    """Partial sum sum_{n <= n_orders} b_n - N Q(kappa0) + ln const ~ ln Xi_rel.

    Q uses the same winding truncation as the activities; extra["winding_tail"]
    is N times the activity beyond l_max at kappa_eff, the mass that b_1 drops
    before its interaction weights.  const is the density-shift factor of the
    loop series (1 at rho = 0).
    """
    check_grid_period(grid, params)
    q0 = free_loop_sum(geom, grid.nu, params.kappa0, l_max)
    total, var = -params.n_species * q0 + _rho_log_constant(params, geom, v), 0.0
    per_order = {}
    for n in range(1, n_orders + 1):
        b = ursell_coefficient(n, params, geom, grid, v, l_max, samples,
                               seed=seed + n)
        total += b.value
        var += b.stderr**2
        per_order[n] = (b.value, b.stderr)
    return ComplexEstimate(value=complex(total), stderr_re=float(np.sqrt(var)),
                           stderr_im=0.0, n_samples=samples, seed=seed,
                           ess=float(samples),
                           extra={"orders": per_order,
                                  "winding_tail": params.n_species * _winding_tail(
                                      geom, grid.nu, kappa_eff(params, v), l_max)})


def n_polynomial(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                 n_orders: int, l_max: int, samples: int, seed: int = 0) -> dict:
    """Coefficients c_n = b_n / N^n of the species polynomial of ln Xi_rel."""
    orders = log_xi_rel_partial(params, geom, grid, v, n_orders, l_max, samples,
                                seed=seed).extra["orders"]
    coeffs = {n: (value / params.n_species**n, stderr / params.n_species**n)
              for n, (value, stderr) in orders.items()}
    return {"coefficients": coeffs, "coupling_mode": params.coupling_mode}
