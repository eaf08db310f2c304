"""Classical Hartree field theory on the lattice: Gibbs sampling and the
eta-field determinant representation.

The energy functional for a complex N-component field phi is

    h(phi) = sum_x (phibar, (-Lap/2 + kappa0) phi)
           + (lambda0/(2(N+1))) sum_{x,y} (:|phi(x)|^2: - rho) v(x-y) (:|phi(y)|^2: - rho)

with :|phi|^2: = |phi|^2 - N c and c the free covariance diagonal.  The same
partition function can be written as a Gaussian average over a real field eta
with covariance C = (lambda0/(N+1)) v of exp(-N S(eta)), S analytic in eta
with nonnegative real part.  The eta form takes any N >= 0 on any lattice;
the Gibbs chain draws N components and needs an integer N.

The eta average subtracts a Gaussian control variate from each weight and
adds back its exact mean: g(eta) = exp(-(N/2) eta.Q eta) cos(rho sum eta),
Q = R o R with R = (-Lap/2 + kappa0)^-1, is the second-order part of the
weight, and E[g] = det(1 + N C Q)^-1/2 exp(-(rho^2/2) 1.C (1 + N Q C)^-1 1).
Its coefficient is fixed at 1, so the estimate stays unbiased.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import ModelParams, TorusGeometry
from .propagators import _circulant_root, _laplacian, _plane_waves, _spectral_data
from .stats import ComplexEstimate, batch_means, mean_estimate, weight_ess

__all__ = [
    "wick_constant",
    "sample_gibbs_field",
    "FieldChain",
    "z_via_eta",
    "field_quadrature_1site",
]

GIBBS_THIN = 4  # the Gibbs chain keeps every GIBBS_THIN-th state


def wick_constant(geom: TorusGeometry, kappa0: float) -> float:
    """Free covariance diagonal c = [(-Lap/2 + kappa0)^-1]_{xx}, site independent."""
    if kappa0 <= 0:
        raise ValueError("kappa0 must be positive")
    evals, _ = _spectral_data(geom)
    return float(np.mean(1.0 / (kappa0 - 0.5 * evals)))


def _action_terms(params: ModelParams, geom: TorusGeometry, v) -> np.ndarray:
    """h as one quadratic form: h = t.A t for t = (x, x o x, 1), x = (Re phi, Im phi).

    x has 2N n_sites entries (N = int(n_species)).  The density shifted by
    N c + rho is fold (x o x, 1), fold summing each site's 2N squares and
    subtracting N c + rho, so A holds I_2N kron hmat on x and
    coup fold^T v fold on (x o x, 1), with coup = lambda0 / (2(N+1)).
    """
    n_comp, n = int(params.n_species), geom.n_sites
    m = 2 * n_comp * n
    hmat = -0.5 * _laplacian(geom) + params.kappa0 * np.eye(n)
    shift = n_comp * wick_constant(geom, params.kappa0) + params.rho
    fold = np.hstack([np.tile(np.eye(n), 2 * n_comp), np.full((n, 1), -shift)])
    form = np.zeros((2 * m + 1, 2 * m + 1))
    form[:m, :m] = np.kron(np.eye(2 * n_comp), hmat)
    form[m:, m:] = 0.5 * params.lambda0 / (params.n_species + 1.0) * (
        fold.T @ v.matrix() @ fold)
    return form


def _form_energy(t: np.ndarray, form: np.ndarray):
    """h at the state vector t = (x, x o x, 1)."""
    return np.dot(t, np.dot(form, t))


def _energy(x: np.ndarray, params: ModelParams, terms) -> float:
    """h(phi) for the real state x = (Re phi, Im phi) of shape (2, N, n_sites).

    terms is `_action_terms`'s form, which already carries params.
    """
    x = x.ravel()
    return float(_form_energy(np.concatenate([x, x * x, [1.0]]), terms))


@dataclass
class FieldChain:
    """Metropolis chain output for the classical field Gibbs measure."""

    samples: np.ndarray            # (M, N, n_sites) complex, post burn-in
    acceptance: float
    step_size: float
    tuning_failed: bool
    seed: int


def sample_gibbs_field(params: ModelParams, geom: TorusGeometry, v,
                       steps: int, seed: int = 0) -> FieldChain:
    """Random-walk Metropolis targeting exp(-h(phi)) over complex fields.

    The field has one component per species, so N must be a positive
    integer.  The step size is tuned during burn-in toward 30-60% acceptance;
    a final acceptance outside [0.05, 0.95] sets the tuning-failure flag.

    The chain runs on the real state x = (Re phi, Im phi) of shape
    (2, N, n_sites).  Each proposal x + step * standard_normal(x.shape) draws
    the real parts, then the imaginary parts, so a seed gives the same chain
    as a complex-state sampler adding step * (normal + 1j * normal) to phi.

    h is the quadratic form t.A t in t = (x, x o x, 1), A built once per chain
    by `_action_terms`: the quartic term is quadratic in the squares x o x.
    Each step draws the proposal into a reused buffer, writes its squares
    beside it, evaluates h with two dot products and swaps buffers on
    acceptance.
    """
    n_species = params.n_species
    if n_species < 1 or n_species != int(n_species):
        raise ValueError(f"Gibbs sampling needs a positive integer species "
                         f"number, not {n_species}")
    rng = np.random.default_rng(seed)
    shape = (2, int(n_species), geom.n_sites)
    m = 2 * int(n_species) * geom.n_sites
    form = _action_terms(params, geom, v)
    bufs = np.zeros((2, 2 * m + 1))
    bufs[:, -1] = 1.0
    # each state is (t, x, x o x): a buffer t = (x, x o x, 1) and views of its parts
    cur, prop = ((t, t[:m], t[m:-1]) for t in bufs)
    energy = _form_energy(cur[0], form)
    step = 1.0 / np.sqrt(params.kappa0)
    burn = max(200, steps // 5)
    accepted = window = total_acc = 0
    kept = []
    for it in range(burn + steps):
        t, x, sq = prop
        rng.standard_normal(out=x)
        x *= step
        x += cur[1]
        np.multiply(x, x, out=sq)
        e_new = _form_energy(t, form)
        if np.log(rng.random()) < energy - e_new:
            cur, prop, energy = prop, cur, e_new
            accepted += 1
            if it >= burn:
                total_acc += 1
        window += 1
        if it >= burn:
            if (it - burn) % GIBBS_THIN == 0:
                kept.append(cur[1].copy())
        elif window == 50:
            rate = accepted / window
            if rate < 0.30:
                step *= 0.7
            elif rate > 0.60:
                step *= 1.4
            accepted = window = 0
    kept = np.reshape(kept, (-1,) + shape)
    acc = total_acc / max(steps, 1)
    return FieldChain(samples=kept[:, 0] + 1j * kept[:, 1], acceptance=acc,
                      step_size=step, tuning_failed=not (0.05 <= acc <= 0.95),
                      seed=seed)


def _s_eta(etas: np.ndarray, root: np.ndarray):
    """S = log det(1 - i R eta) + i tr(R eta) for eta of shape (..., n_sites), given R^1/2.

    S = sum_k [log1p(l_k^2) / 2 + i (l_k - atan l_k)] over the eigenvalues l_k of
    the real symmetric R^1/2 diag(eta) R^1/2: analytic in eta, Re S >= 0 term by term.
    """
    ls = np.linalg.eigvalsh((root * etas[..., None, :]) @ root)
    return np.sum(0.5 * np.log1p(ls * ls) + 1j * (ls - np.arctan(ls)), axis=-1)


def _resolvent_root(geom: TorusGeometry, kappa0: float) -> np.ndarray:
    """R^1/2 with R = (-Lap/2 + kappa0)^-1, from the Laplacian's eigenbasis."""
    evals, evecs = _spectral_data(geom)
    return (evecs / np.sqrt(kappa0 - 0.5 * evals)) @ evecs.T


def _gaussian_mean(geom: TorusGeometry, q: np.ndarray, cov: np.ndarray,
                   n_species: float, rho: float) -> float:
    """E[exp(-(N/2) eta.Q eta) cos(rho sum eta)] for eta ~ N(0, C), C[x, y] = cov[x - y].

    det(1 + N C Q)^-1/2 exp(-rho^2 1.C (1 + N Q C)^-1 1 / 2) with Q[x, y] =
    q[x - y]: a product over the plane waves, in which 1 is the constant mode.
    """
    cosines = _plane_waves(geom.sites_per_side, geom.dimension)[1]
    c0, q0 = cov.sum(), q.sum()
    quad_form = geom.n_sites * c0 / (1.0 + n_species * c0 * q0)
    log_det = np.sum(np.log1p(n_species * (cov @ cosines) * (q @ cosines)))
    return float(np.exp(-0.5 * log_det - 0.5 * rho**2 * quad_form))


def z_via_eta(params: ModelParams, geom: TorusGeometry, v, samples: int,
              seed: int = 0) -> ComplexEstimate:
    """Relative classical partition function E_eta[exp(-N S(eta) - i rho sum eta)].

    eta is Gaussian with covariance C = (lambda0/(N+1)) v and decouples the
    shifted density :|phi|^2: - rho.  Integrating phi out of the
    :|phi|^2: part leaves exp(-N S(eta)), whose linear term is zero
    identically; the constant shift -rho leaves the phase
    exp(-i rho sum_x eta_x).  Closed-form S keeps this exact per sample.
    S(-eta) = conj S(eta), the phase conjugates too and the Gaussian is even,
    so the mean of the real part w of the weight is the mean of the weight.

    The second-order part of w is a control variate: S(eta) =
    (1/2) eta.Q eta + O(eta^3) with Q = R o R (entrywise), so
    g(eta) = exp(-(N/2) eta.Q eta) cos(rho sum eta) has the closed-form mean
    E[g] = det(1 + N C Q)^-1/2 exp(-(rho^2/2) 1.C (1 + N Q C)^-1 1).
    Each sample is w - g + E[g], with coefficient exactly 1 (none fitted),
    so the estimate stays unbiased; the estimate's imaginary part is 0.
    The ESS is that of the raw weights w.  `extra` carries E[g] as
    `gauss_mean` and the batch-means error of w alone as `weights_stderr`.
    At lambda0 = 0 every eta is 0 and every sample exactly 1.  S is analytic
    in eta (`_s_eta`), so any N >= 0 runs on any lattice; a v that is not PSD raises.
    """
    n_species = params.n_species
    rng = np.random.default_rng(seed)
    scale = params.lambda0 / (n_species + 1.0)
    root = _circulant_root(geom, scale * v.values)
    etas = rng.standard_normal((samples, geom.n_sites)) @ root
    r_root = _resolvent_root(geom, params.kappa0)
    s_vals = _s_eta(etas, r_root)
    phase = params.rho * etas.sum(axis=1)
    weights = np.exp(-n_species * s_vals - 1j * phase).real
    q = (r_root @ r_root) ** 2
    control = (np.exp(-0.5 * n_species * np.sum((etas @ q) * etas, axis=1))
               * np.cos(phase))
    gauss_mean = _gaussian_mean(geom, q[0], scale * v.values, n_species, params.rho)
    est = mean_estimate(weights - control + gauss_mean, seed=seed)
    est.ess = weight_ess(weights)
    est.extra.update(gauss_mean=gauss_mean, weights_stderr=float(batch_means(weights)[1]))
    return est


def field_quadrature_1site(params: ModelParams, v) -> dict:
    """Deterministic radial-quadrature oracle on a single site, N = 1.

    Returns the relative partition function and the moment <|phi|^2> of
    exp(-h) with h(r) = kappa0 r^2 + (lambda0 v(0) / (2(N+1))) (r^2 - c - rho)^2.
    """
    from scipy.integrate import quad

    kappa0 = params.kappa0
    c = 1.0 / kappa0
    lam_cl = params.lambda0 * v.at_origin / (params.n_species + 1.0)

    def weight(r):
        r2 = r * r
        return r * np.exp(-kappa0 * r2 - 0.5 * lam_cl * (r2 - c - params.rho)**2)

    hi = 12.0 / np.sqrt(kappa0)
    z_num = quad(weight, 0.0, hi, epsabs=1e-12, epsrel=1e-12)[0]
    z_den = quad(lambda r: r * np.exp(-kappa0 * r * r), 0.0, hi,
                 epsabs=1e-12, epsrel=1e-12)[0]
    mom = quad(lambda r: r * r * weight(r), 0.0, hi,
               epsabs=1e-12, epsrel=1e-12)[0] / z_num
    return {"z_rel": z_num / z_den, "phi2": mom}
