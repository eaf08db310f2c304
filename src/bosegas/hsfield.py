"""Auxiliary-field determinant estimators for the interacting Bose gas.

The quartic interaction is traded for a Gaussian field sigma with one slice
per time step, independent across slices, and covariance per slice

    cov(sigma_j(x), sigma_j(y)) = (lam / (nu * eps)) * v(x - y).

Each field configuration carries the complex weight

    F(sigma) = exp(i N theta(sigma) - N D(sigma)),

where D is the log-determinant ratio of the phased monodromy against the free
one and theta is the linear counterterm produced by the density shift rho.
Observables are reweighted averages over this ensemble; at lam = 0 the field
is identically zero and every estimator collapses to its exact free value
with zero variance.

The estimators take the same Gaussian integral in three exact ways at once,
at the cost of one field each:

- Shifted contour (Rom, Charutz & Neuhauser, Chem. Phys. Lett. 270, 382
  (1997)).  F is analytic, so the field is evaluated at sigma = s + i c on
  every site and slice, with s drawn as before.  The monodromy scales by
  e^{nu c}, which is a fugacity change kappa0 -> kappa0 - c; theta gains
  i rho c |Lambda|, a real factor e^{-N rho c |Lambda|} of the weight; the
  Gaussian density contributes the ratio
  exp(-i c 1.C^-1 s + c^2 1.C^-1 1 / 2).  c is the root of the
  one-dimensional Hartree equation

      c = -(lam vhat(0) N / nu^2) (nu n(kappa0 - c) - rho),

  with n the per-site ideal occupation: the stationary point of the
  integrand along constant imaginary fields.  The root is unique, lies
  below kappa0, and is 0 at the Wick rho.  Damping at fugacity kappa0 - c
  bounds every shifted weight by the constant-field value e^{g(c)}, and g
  is convex with g(0) = 0, so at its minimum c the weights keep |w| <= 1.
- Conjugation symmetry.  F(-s) = conj F(s), for the shifted weight and the
  Duhamel kernel alike, and the Gaussian is even, so the average of F equals
  the average of Re F: the antithetic mean over the pair (s, -s).  The
  weight stream is real and every estimate has zero imaginary part.
- Gaussian control variate (Glasserman, Monte Carlo Methods in Financial
  Engineering, sec. 4.1; Negele & Orland, Quantum Many-Particle Systems,
  ch. 7), in `estimate_xi_rel`.  Since c is the Hartree saddle, the gradient
  of log F(s + i c) vanishes at s = 0, so log F = log w(0) + s.H s / 2 +
  O(s^3).  The Hessian is the polarization bubble at fugacity kappa0 - c,
  in closed form from the Laplacian's spectrum (`_weight_hessian`):

      H[(j, x), (j', x')] = -N eps^2 [G U(d eps)]_{x x'} [f G U(nu - d eps)]_{x' x},

  d = (j - j') mod n_slices, U(t) = e^{t Lap/2}, f = e^{-nu (kappa0 - c)},
  G = (1 - f U(nu))^-1.  H is real, symmetric and negative semidefinite, so
  g(s) = w(0) exp(s.H s / 2) <= w(0) has the finite mean
  E[g] = w(0) det(1 - C H)^-1/2, the one-loop (RPA) value of Xi_rel.  Each
  sample is w - g + E[g], with coefficient 1: unbiased, and 5-10 times less
  variance at the benchmark points.  H and C are diagonal in plane waves over
  slices and sites, which give s.H s and the determinant without forming H.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lattice import ModelParams, TimeGrid, TorusGeometry
from .propagators import (_spectral_data, hartree_shift, heat_propagator,
                          ideal_occupation, monodromy_batch)
from .stats import (ComplexEstimate, batch_means, exact_estimate, mean_estimate,
                    ratio_estimate, weight_ess)

__all__ = [
    "det_identity_residual",
    "wick_rho",
    "sample_sigma",
    "winding_exponent",
    "contour_shift",
    "estimate_xi_rel",
    "estimate_duhamel",
]

NEGATIVE_EIG_TOL = 1e-10
# fields per block of the control variate's quadratic form: the transformed
# block is reused from cache instead of faulting in a stack-sized array
CONTROL_CHUNK = 256


def det_identity_residual(a: np.ndarray) -> float:
    """Residual of 1/det(A) = exp(int_0^inf tr[(A+t)^-1 - (1+t)^-1] dt).

    Valid whenever A + A^* is positive definite.  The integral is done by
    adaptive quadrature on both real and imaginary parts.
    """
    from scipy.integrate import quad

    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    herm = np.linalg.eigvalsh(a + a.conj().T)
    if herm.min() <= 0:
        raise ValueError("A + A* must be positive definite")

    def integrand(t):
        inv = np.linalg.inv(a + t * np.eye(n))
        return np.trace(inv) - n / (1.0 + t)

    re, _ = quad(lambda t: integrand(t).real, 0.0, np.inf, limit=400)
    im, _ = quad(lambda t: integrand(t).imag, 0.0, np.inf, limit=400)
    lhs = 1.0 / np.linalg.det(a)
    rhs = np.exp(re + 1j * im)
    return float(abs(lhs - rhs) / abs(lhs))


def wick_rho(geom: TorusGeometry, nu: float, kappa0: float) -> float:
    """Density shift nu * gamma1_free(x, x) that cancels the tadpole term.

    Site independent by translation invariance, so it is nu times the
    per-site ideal occupation.
    """
    return nu * ideal_occupation(geom, nu, kappa0)


def _cov_factor(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v) -> np.ndarray:
    """Square root of the per-slice covariance (lam / (nu eps)) v(x-y)."""
    scale = params.lam / (params.nu * grid.eps)
    cov = scale * v.matrix()
    evals, evecs = np.linalg.eigh(cov)
    if evals.min() < -NEGATIVE_EIG_TOL * max(1.0, abs(evals.max())):
        raise ValueError("slice covariance is not positive semidefinite")
    return evecs * np.sqrt(np.clip(evals, 0.0, None))


def sample_sigma(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                 n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of field configurations, shape (n_samples, n_slices, n_sites)."""
    root = _cov_factor(params, geom, grid, v)
    noise = rng.standard_normal((n_samples, grid.n_slices, geom.n_sites))
    return noise @ root.T


def _log_det_ratio(geom: TorusGeometry, nu: float, kappa0: float,
                   gamma_stack: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """log det(1 - e^{-nu (kappa0 - c)} Gamma_s) - log det(1 - e^{-nu kappa0} Gamma_0).

    Gamma_s is the monodromy of the real field s; e^{nu c} Gamma_s is that of
    the shifted field s + i c.
    """
    eye = np.eye(geom.n_sites)
    sign, logabs = np.linalg.slogdet(eye - np.exp(-nu * (kappa0 - shift)) * gamma_stack)
    occ_free = np.exp(-nu * kappa0 + 0.5 * nu * _spectral_data(geom)[0])
    log_free = np.sum(np.log1p(-occ_free))
    return np.log(sign) + logabs - log_free


def winding_exponent(geom: TorusGeometry, nu: float, kappa0: float,
                     gamma: np.ndarray, l_max: int = 64):
    """-log det(1 - e^{-nu kappa0} Gamma) as a winding sum, with its tail bound.

    Returns (partial sum over l = 1..l_max of e^{-nu kappa0 l} tr(Gamma^l) / l,
    geometric bound on the dropped tail).  The bound uses |tr(Gamma^l)| <= n
    for a contraction Gamma.
    """
    fug = np.exp(-nu * kappa0)
    total = 0.0 + 0.0j
    power = np.eye(geom.n_sites, dtype=complex)
    for ell in range(1, l_max + 1):
        power = power @ gamma
        total += fug**ell * np.trace(power) / ell
    tail = geom.n_sites * fug ** (l_max + 1) / ((l_max + 1) * (1.0 - fug))
    return total, float(tail)


def contour_shift(params: ModelParams, geom: TorusGeometry, v) -> float:
    """Imaginary contour shift c of the field, sigma = s + i c on every site and slice.

    The root of c = -(lam vhat(0) N / nu^2) (nu n(kappa0 - c) - rho), with
    vhat(0) = v.total(): -c is the constant-field Hartree shift of the
    fugacity (`propagators.hartree_shift`).  Exactly 0 at lam = 0 and at the
    Wick rho.
    """
    coupling = params.lam * v.total() * params.n_species / params.nu**2
    return 0.0 - hartree_shift(geom, params.nu, params.kappa0, params.rho, coupling)


def _field_weights(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                   sigma: np.ndarray, gamma: np.ndarray, shift: float) -> np.ndarray:
    """Weights F(s + i c) times the Gaussian density ratio, for a real field stack s.

    gamma holds the monodromies of s.  With 1.C^-1 s = nu eps sum(s) / (lam
    vhat(0)) and 1.C^-1 1 = nu^2 |Lambda| / (lam vhat(0)), the Gaussian ratio
    is exp(-i c 1.C^-1 s + c^2 1.C^-1 1 / 2), and theta(s + i c) = theta(s)
    + i rho c |Lambda|.  At c = 0 these are the plain weights exp(i N theta - N D).
    """
    nu, N = params.nu, params.n_species
    dvals = _log_det_ratio(geom, nu, params.kappa0, gamma, shift)
    # exponent i rate eps sum(s) + const - N D; at c = 0, i rate eps sum(s) = i N theta
    precision = nu / (params.lam * v.total())  # C^-1 1 = (precision eps) 1
    rate = N * params.rho / nu - shift * precision
    const = shift * geom.n_sites * (0.5 * shift * precision * nu - N * params.rho)
    return np.exp(1j * rate * grid.eps * sigma.sum(axis=(1, 2)) + const - N * dvals)


def _weight_hessian(params: ModelParams, geom: TorusGeometry, grid: TimeGrid,
                    shift: float) -> np.ndarray:
    """Lag blocks h of the Hessian of log F(s + i c) at s = 0, shape (n_slices, n, n).

    H[(j, x), (j', x')] = h[(j - j') mod n_slices][x, x'], with lag d eps and

        h[d] = -N eps^2 (G U(d eps)) o (f G U(nu - d eps))   (entrywise),

    U(t) = e^{t Lap/2}, f = e^{-nu (kappa0 - c)} and G = (1 - f U(nu))^-1:
    the polarization bubble at fugacity kappa0 - c.  The equal-slice contact
    term is inside h[0], since G = 1 + f G U(nu).  h[d] = h[n_slices - d],
    and every block is real and symmetric.
    """
    evals, evecs = _spectral_data(geom)
    nu, eps = params.nu, grid.eps
    fug = np.exp(-nu * (params.kappa0 - shift))
    green = 1.0 / (1.0 - fug * np.exp(0.5 * nu * evals))
    lags = eps * np.arange(grid.n_slices)[:, None, None]
    forward = (evecs * (green * np.exp(0.5 * lags * evals))) @ evecs.T
    backward = (evecs * (fug * green * np.exp(0.5 * (nu - lags) * evals))) @ evecs.T
    return -params.n_species * eps**2 * forward * backward


@lru_cache(maxsize=16)
def _plane_waves(period: int, dimension: int):
    """Real orthonormal plane waves on a periodic grid, and their cosines.

    The grid has `period` points per side in `dimension` dimensions, in the
    lexicographic order of `TorusGeometry.site_coords`, so that point q is
    also momentum q.  Returns the (n, n) basis, whose columns are
    cos(2 pi q.x / period) for one of each pair q, -q and
    sin(2 pi q.x / period) for each q != -q, normalized, and the (n, n)
    matrix of cos(2 pi q.y / period) for the momentum q of each column.
    Every symmetric translation-invariant M is diagonal in the basis, with
    M[0] @ cosines its diagonal.  Both arrays are read-only.
    """
    axes = np.meshgrid(*([np.arange(period)] * dimension), indexing="ij")
    coords = np.stack([a.ravel() for a in axes], axis=1)
    n = len(coords)
    phase = 2.0 * np.pi / period * (coords @ coords.T)
    mirror = (-coords % period) @ period ** np.arange(dimension - 1, -1, -1)  # index of -q
    cos_q = np.flatnonzero(np.arange(n) <= mirror)
    sin_q = np.flatnonzero(np.arange(n) < mirror)
    norm = np.sqrt(np.where(cos_q < mirror[cos_q], 2.0, 1.0) / n)
    basis = np.concatenate([norm * np.cos(phase[:, cos_q]),
                            np.sqrt(2.0 / n) * np.sin(phase[:, sin_q])], axis=1)
    cosines = np.cos(phase[:, np.concatenate([cos_q, sin_q])])
    basis.flags.writeable = cosines.flags.writeable = False
    return basis, cosines


def _gaussian_control(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                      sigma: np.ndarray, shift: float):
    """Control variate g(s) = w(0) exp(s.H s / 2) per field, and its mean E[g].

    w(0) is the weight at s = 0, where the monodromy is U(nu).  H is block
    circulant and symmetric over slices (`_weight_hessian`), and every block,
    like the slice covariance C, is translation invariant and symmetric over
    sites.  So the product of the plane waves over slices and over sites
    (`_plane_waves`) diagonalizes H and C at once, with entries h(k, p) <= 0
    and C(p).  With z the fields in that basis,

        s.H s = sum h(k, p) z^2,   E[g] = w(0) prod (1 - C(p) h(k, p))^-1/2,

    and the (n_slices n_sites)^2 matrix H is never formed.
    """
    n_slices, n = grid.n_slices, geom.n_sites
    w0 = _field_weights(params, geom, grid, v, np.zeros((1, n_slices, n)),
                        heat_propagator(geom, params.nu)[None], shift)[0].real
    slice_basis, slice_cos = _plane_waves(n_slices, 1)
    site_basis, site_cos = _plane_waves(geom.sites_per_side, geom.dimension)
    h_modes = slice_cos.T @ _weight_hessian(params, geom, grid, shift)[:, 0, :] @ site_cos
    cov_modes = params.lam / (params.nu * grid.eps) * v.matrix()[0] @ site_cos
    log_det = np.sum(np.log1p(-cov_modes * h_modes))
    quad = np.empty(len(sigma))
    for start in range(0, len(sigma), CONTROL_CHUNK):
        z = (slice_basis.T @ sigma[start:start + CONTROL_CHUNK]).reshape(-1, n) @ site_basis
        quad[start:start + CONTROL_CHUNK] = (np.square(z, out=z).reshape(-1, n_slices * n)
                                             @ h_modes.ravel())
    return w0 * np.exp(0.5 * quad), w0 * np.exp(-0.5 * log_det)


def _sign_summary(weights: np.ndarray) -> dict:
    """Mean modulus <|w|> and average sign |<w>| / <|w|> (at most 1) of real weights."""
    mean_abs = float(np.mean(np.abs(weights)))
    return {"mean_abs_weight": mean_abs,
            "avg_sign": min(1.0, abs(float(np.mean(weights))) / mean_abs)}


def estimate_xi_rel(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                    n_samples: int, seed: int = 0) -> ComplexEstimate:
    """Relative partition function Xi / Xi_free as the mean field weight.

    Each weight w is Re F(s + i c) of the shifted contour (module docstring).
    The mean is taken of w - g + E[g], with the Gaussian control variate g of
    `_gaussian_control` at coefficient 1, so the estimate stays unbiased.
    extra carries the raw weight stream w ("weights", all ones at lam = 0),
    its mean modulus ("mean_abs_weight"), its average sign |<w>| / <|w|>
    ("avg_sign", at most 1), the batch-means error of w alone
    ("weights_stderr"), E[g] = w(0) det(1 - C H)^-1/2 ("gauss_mean", the
    one-loop value of Xi_rel; 1 at lam = 0) and c ("contour_shift").  The
    ESS is that of w.  The stream is for callers only: a record keeps the
    estimate's count, mean and batch-means error, never the stream
    (`records.record_from_estimate`).
    """
    shift = contour_shift(params, geom, v)
    if params.lam == 0.0:
        weights = np.ones(n_samples)
        control = gauss_mean = 1.0
    else:
        rng = np.random.default_rng(seed)
        sigma = sample_sigma(params, geom, grid, v, n_samples, rng)
        weights = _field_weights(params, geom, grid, v, sigma,
                                 monodromy_batch(geom, grid, sigma), shift).real
        control, gauss_mean = _gaussian_control(params, geom, grid, v, sigma, shift)
    est = mean_estimate(weights - control + gauss_mean, seed=seed)
    est.ess = weight_ess(weights)
    est.extra.update(_sign_summary(weights), weights=weights,
                     weights_stderr=float(batch_means(weights)[1]),
                     gauss_mean=float(gauss_mean), contour_shift=shift)
    return est


def estimate_duhamel(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                     x: int, x_p: int, tau: float = 0.0, tau_p: float = 0.0,
                     n_samples: int = 10_000, seed: int = 0) -> ComplexEstimate:
    """Two-point function G(tau, x; tau', x') as a reweighted ratio.

    Times must lie on the slice grid with 0 <= tau' <= tau < nu.  Each field
    is rolled to start at slice tau', so its monodromy Gamma' = P_tau' Gamma
    P_tau'^-1 and the propagator U from tau' to tau are products of the field
    itself; the conditional kernel

        k(s) = e^{-kappa0 s} [U (1 - M)^-1]_{x x'},   M = e^{-nu kappa0} Gamma',

    equals P_tau (1 - e^{-nu kappa0} Gamma)^-1 P_tau'^-1 without inverting
    the prefix P_tau' (push-through).  At equal times the identity winding is
    dropped, leaving M (1 - M)^-1.  det(1 - M) is the weight's determinant.

    On the shifted contour U scales by e^{c s} and M by e^{nu c}, so kappa0
    becomes kappa0 - c in k; the ratio averages Re(k w) over Re w with the
    weights of `estimate_xi_rel`.  extra carries c ("contour_shift") and the
    mean modulus ("mean_abs_weight") and average sign ("avg_sign") of the
    weights Re w, as in `estimate_xi_rel`.
    """
    nu = params.nu
    if not (0.0 <= tau_p <= tau < nu):
        raise ValueError("need 0 <= tau' <= tau < nu")
    j_hi = grid.slice_index(tau)
    j_lo = grid.slice_index(tau_p)
    s = tau - tau_p
    shift = contour_shift(params, geom, v)
    kappa = params.kappa0 - shift
    rng = np.random.default_rng(seed)
    n = geom.n_sites
    eye = np.eye(n)
    fug = np.exp(-nu * kappa)

    if params.lam == 0.0:
        # exact free evaluation, zero variance
        sigma = np.zeros((1, grid.n_slices, n))
    else:
        sigma = np.roll(sample_sigma(params, geom, grid, v, n_samples, rng),
                        -j_lo, axis=1)
    gamma, prefixes = monodromy_batch(geom, grid, sigma,
                                      keep_prefixes=[j_hi - j_lo])
    resolvent = np.linalg.solve(eye - fug * gamma, np.broadcast_to(
        np.eye(n, dtype=complex), gamma.shape).copy())
    if s == 0.0:
        core = fug * gamma @ resolvent
    else:
        core = np.exp(-kappa * s) * resolvent
    kernels = (prefixes[j_hi - j_lo] @ core)[:, x, x_p]

    if params.lam == 0.0:
        return exact_estimate(kernels[0], n_samples, seed=seed,
                              extra={**_sign_summary(np.ones(1)), "contour_shift": shift})
    weights = _field_weights(params, geom, grid, v, sigma, gamma, shift)
    est = ratio_estimate((kernels * weights).real, weights.real, seed=seed)
    est.extra.update(_sign_summary(weights.real), contour_shift=shift)
    return est
