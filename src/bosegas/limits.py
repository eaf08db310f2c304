"""Limit-regime experiments: classical particle limit, mean-field limit,
large-N limit.

Each sweep compares a finite-parameter Monte Carlo route against the
appropriate limiting reference and reports per-point discrepancies with a
monotonicity verdict.  The large-N reference is the free gas at the
auxiliary field's contour-shifted fugacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammainc, gammaln

from .hsfield import estimate_duhamel, wick_rho
from .lattice import ModelParams, TimeGrid, TorusGeometry, UnsupportedModeError
from .loopgas import xi_rel_series
from .meanfield import field_quadrature_1site
from .propagators import free_green

__all__ = [
    "LimitSweep",
    "classical_xi",
    "activity_to_kappa",
    "classical_limit_sweep",
    "largeN_check",
    "meanfield_sweep",
]

MAX_PARTICLES = 5      # largest particle number of the classical point gas
MAX_POINTS = 32 ** 4   # grid points at which the circle integral stops doubling
QUAD_TOL = 1e-8        # relative change at which the node doubling stops
CLASSICAL_EPS = 0.025  # target slice width of the classical-limit sweep
MEANFIELD_EPS = 1.0 / 64.0  # slice width shared by every mean-field point


@dataclass
class LimitSweep:
    """Per-point discrepancies of a route against its limiting reference."""

    parameter_name: str
    parameters: list
    discrepancies: list
    errors: list
    final_tolerance: float
    extra: dict = field(default_factory=dict)
    # what final_ok compares with final_tolerance; None means the last
    # discrepancy
    final_discrepancy: float | None = None

    @property
    def monotone_decreasing(self) -> bool:
        """Strict decrease beyond combined 1-sigma errors between neighbours."""
        for k in range(len(self.discrepancies) - 1):
            gap = self.discrepancies[k] - self.discrepancies[k + 1]
            sigma = float(np.hypot(self.errors[k], self.errors[k + 1]))
            if gap <= sigma:
                return False
        return True

    @property
    def final_ok(self) -> bool:
        final = (self.discrepancies[-1] if self.final_discrepancy is None
                 else self.final_discrepancy)
        return final < self.final_tolerance

    @property
    def verdict(self) -> bool:
        return self.monotone_decreasing and self.final_ok


# ---------------------------------------------------------------------------
# classical point gas


def classical_xi(z: float, lambda0: float, n_species: float,
                 geom: TorusGeometry, v, n_max: int) -> dict:
    """Truncated classical grand partition function on the circle, self-terms included.

    Xi_cl = sum_{n <= n_max} ((z N)^n / n!) * integral over n positions of
    exp(-(lambda0/2) sum_{i,j} v(u_i - u_j)), for n_max up to MAX_PARTICLES.
    The integral uses translation invariance (first point fixed, one factor
    of the circumference) and the trapezoid rule on uniform nodes, which
    converges spectrally for the periodic integrand; the node count doubles
    until the change is below QUAD_TOL, or stops before its grid passes
    MAX_POINTS with quadrature_converged False.  tail_rel is the Poisson
    tail of the free gas beyond n_max particles.
    """
    if n_max > MAX_PARTICLES:
        raise ValueError(f"n_max above {MAX_PARTICLES} is not supported")
    if geom.mode == "lattice":
        raise UnsupportedModeError("the classical point gas lives on the circle")
    zn = z * n_species
    per_n = [1.0]
    converged = True
    for n in range(1, n_max + 1):
        integral, ok = _classical_integral_circle(geom.circumference, v, lambda0, n)
        converged = converged and ok
        per_n.append(float(np.exp(n * np.log(zn) - gammaln(n + 1)) * integral))
    return {
        "value": float(sum(per_n)),
        "per_n": per_n,
        "tail_rel": float(gammainc(n_max + 1, zn * geom.circumference)),
        "quadrature_converged": converged,
    }


def _classical_integral_circle(L, v, lambda0, n):
    """Integral over n circle positions of the classical Boltzmann factor.

    Self-terms contribute a constant exp(-(lambda0/2) n v(0)).  The first
    position sits at node 0 and each other runs over M uniform nodes of
    weight L / M; v is taken once on the node differences and gathered for
    every pair.  M starts at 8 and doubles while the M^(n-1) grid stays within MAX_POINTS.
    """
    self_part = np.exp(-0.5 * lambda0 * n * v(0.0))
    if n == 1:
        return L * self_part, True
    prev = None
    m = 8
    while True:
        v_nodes = v(np.arange(m) * (L / m))
        pos = np.indices((1,) + (m,) * (n - 1)).reshape(n, -1)  # first at node 0
        energy = sum(v_nodes[(pos[i] - pos[j]) % m]
                     for i in range(n) for j in range(i + 1, n))
        val = L * self_part * (L / m) ** (n - 1) * float(np.sum(np.exp(-lambda0 * energy)))
        if prev is not None and abs(val - prev) <= QUAD_TOL * max(abs(val), 1.0):
            return val, True
        if (2 * m) ** (n - 1) > MAX_POINTS:
            return val, False
        prev, m = val, 2 * m


def activity_to_kappa(z: float, nu: float, d: int) -> float:
    """kappa(nu) solving e^{-kappa nu} nu^{-d/2} = z, exactly."""
    if z <= 0 or nu <= 0:
        raise ValueError("need z > 0 and nu > 0")
    return float(-np.log(z * nu**(0.5 * d)) / nu)


def classical_limit_sweep(z: float, lambda0: float, nu_list, geom: TorusGeometry,
                          v, n_species: float = 1.0, n_max: int = 5,
                          l_max: int = 5, samples: int = 4096,
                          seed: int = 0) -> LimitSweep:
    """Loop-gas raw series at shrinking nu against the classical point gas.

    The activity schedule e^{-kappa nu} nu^{-d/2} = z makes the winding-1
    loops converge to classical particles with effective fugacity
    z (2 pi)^{-d/2}; both sides are truncated at the same loop/particle
    number so the comparison isolates the nu dependence.
    """
    if list(nu_list) != sorted(nu_list, reverse=True):
        raise ValueError("nu_list must be strictly decreasing")
    d = geom.dimension
    z_eff = z * (2.0 * np.pi)**(-0.5 * d)
    ref = classical_xi(z_eff, lambda0, n_species, geom, v, n_max)
    discs, errs, values = [], [], []
    for k, nu in enumerate(nu_list):
        kappa = activity_to_kappa(z, nu, d)
        n_tau = max(4, int(round(nu / CLASSICAL_EPS)))
        grid = TimeGrid(nu=nu, n_slices=n_tau)
        params = ModelParams(nu=nu, kappa0=kappa, lambda0=lambda0,
                             n_species=n_species)
        est = xi_rel_series(params, geom, grid, v, n_max, l_max, samples,
                            seed=seed + k)
        raw = est.extra["raw_value"]
        raw_se = est.extra["raw_stderr"]
        discs.append(abs(raw - ref["value"]) / ref["value"])
        errs.append(raw_se / ref["value"])
        values.append(raw)
    return LimitSweep(parameter_name="nu", parameters=list(nu_list),
                      discrepancies=discs, errors=errs, final_tolerance=0.05,
                      extra={"reference": ref["value"], "raw_values": values,
                             "z_effective": z_eff})


# ---------------------------------------------------------------------------
# large N


def largeN_check(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                 N_list, samples: int, seed: int = 0) -> LimitSweep:
    """gamma_1(0, 0) at growing species number N against the contour-shifted free gas.

    The coupling is rescaled as lambda0 nu^2 / (N + 1); the reference is
    free_green at the estimate's own contour-shifted rate kappa0 - c(N), the
    Hartree fugacity.  The k-th N draws its fields from seed + k, so the
    points are independent and their errors combine as such in the trend
    and extrapolation checks.  The discrepancy carries genuine 1/N and 1/N^2
    terms, so the final verdict is taken on its extrapolation to 1/N = 0
    (`_largeN_sweep`), which needs two N values and takes the 1/N^2 term out
    with three.
    """
    if list(N_list) != sorted(N_list):
        raise ValueError("N_list must be increasing")
    if len(N_list) < 2:
        raise ValueError("the large-N check extrapolates in 1/N and needs "
                         f"at least two N values, not {len(N_list)}")
    signed, errs, info = [], [], []
    for k, N in enumerate(N_list):
        pN = replace(params, n_species=float(N), coupling_mode="meanfield")
        est = estimate_duhamel(pN, geom, grid, v, 0, 0, n_samples=samples,
                               seed=seed + k)
        c = est.extra["contour_shift"]
        target = free_green(geom, params.nu, params.kappa0 - c)[0, 0]
        signed.append(est.value.real - target)
        errs.append(est.stderr_re)
        info.append({"N": N, "shift": -c, "target": target, "estimate": est.value.real})
    return _largeN_sweep(N_list, signed, errs, info)


def _largeN_sweep(N_list, signed, errs, points=()) -> LimitSweep:
    """Sweep of |d_N| whose final verdict is on the 1/N-extrapolated discrepancy.

    With d_N = b + a / N + c / N^2 + O(1/N^3), b is the value at 1/N = 0 of
    the polynomial in 1/N through the last three points, or the line through
    the last two when only two are given: b = sum_i w_i d_i with the Lagrange
    weights w_i = prod_{j != i} x_j / (x_j - x_i), x = 1/N, and sigma
    propagated from theirs as independent errors; final_ok holds when
    |b| < 3 sigma.  A reference right at N = infinity has b = 0, however
    large a and c are.
    """
    x = 1.0 / np.asarray(N_list[-3:], dtype=float)
    weights = np.array([np.prod(np.delete(x, i) / (np.delete(x, i) - x[i]))
                        for i in range(len(x))])
    extrapolated = float(weights @ np.asarray(signed[-3:]))
    sigma = float(np.sqrt(np.sum((weights * np.asarray(errs[-3:])) ** 2)))
    return LimitSweep(parameter_name="n_species", parameters=list(N_list),
                      discrepancies=[abs(d) for d in signed], errors=list(errs),
                      final_tolerance=3.0 * max(sigma, 1e-12),
                      final_discrepancy=abs(extrapolated),
                      extra={"points": list(points), "extrapolated": extrapolated,
                             "extrapolated_stderr": sigma})


# ---------------------------------------------------------------------------
# mean-field limit


def meanfield_sweep(lambda0: float, kappa0: float, nu_list, samples: int,
                    seed: int = 0) -> LimitSweep:
    """nu * gamma_1 on a single site against the classical field moment.

    Quantum side: auxiliary-field gamma_1 with lambda = lambda0 nu^2 / (N+1)
    and rho at its Wick value; classical side: deterministic radial
    quadrature of the field integral.  The grids share a fixed slice width so
    the Trotter bias is common across the sweep.
    """
    if list(nu_list) != sorted(nu_list, reverse=True):
        raise ValueError("nu_list must be strictly decreasing")
    geom = TorusGeometry(dimension=1, sites_per_side=1)
    from .lattice import delta_potential

    v = delta_potential(geom)
    p_cl = ModelParams(nu=1.0, kappa0=kappa0, lambda0=lambda0, n_species=1.0)
    ref = field_quadrature_1site(p_cl, v)["phi2"]
    discs, errs, info = [], [], []
    for k, nu in enumerate(nu_list):
        n_tau = max(2, int(round(nu / MEANFIELD_EPS)))
        grid = TimeGrid(nu=nu, n_slices=n_tau)
        params = ModelParams(nu=nu, kappa0=kappa0, lambda0=lambda0,
                             n_species=1.0, coupling_mode="meanfield",
                             rho=wick_rho(geom, nu, kappa0))
        est = estimate_duhamel(params, geom, grid, v, 0, 0,
                               n_samples=samples, seed=seed + k)
        scaled = nu * est.value.real
        discs.append(abs(scaled - ref))
        errs.append(nu * est.stderr)
        info.append({"nu": nu, "n_tau": n_tau, "rho": params.rho, "scaled_gamma1": scaled})
    return LimitSweep(parameter_name="nu", parameters=list(nu_list),
                      discrepancies=discs, errors=errs,
                      final_tolerance=3.0 * max(errs[-1], 1e-12) + 0.05,
                      extra={"reference": ref, "points": info})
