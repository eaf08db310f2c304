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

The estimators take the same Gaussian integral in five exact ways at once,
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
- The same control for the Duhamel ratio, in `estimate_duhamel`: the
  numerator sample Re(k w) has its own second-order expansion,
  log(k w) = log(k0 w(0)) + i a.s + s.B s / 2 + O(s^3), and the estimate is
  mean(n - g_n + E[g_n]) / mean(w - g_d + E[g_d]) over the same fields,
  g_d = g above and g_n = k0 w(0) exp(s.B s / 2) cos(a.s).  With G0 the free
  grid Green function at kappa0 - c, L and R its rows from x and columns to
  x' at each phase insertion, a = -eps L o R / k0 and

      B = H - (eps^2 / k0) (T + T^t) + a a^t,   T = diag(L) M diag(R),

  where M, block circulant over slices, chains two insertions:
  M = (1 + S Q)(1 - S Q)^-1 / 2 with Q = e^{-(kappa0 - c) eps} U(eps) and S
  the slice shift.  Its equal-slice block G - 1/2 carries the contact term,
  the second derivative of a single phase.  E[g_n] = k0 w(0)
  det(1 - C B)^-1/2 exp(-a^t (1 - C B)^-1 C a / 2) takes one Cholesky factor
  (`_kernel_control`); E[g_n] / E[g_d] is the one-loop Green function.
- Stratified constant mode (Glasserman, sec. 4.3), in `sample_sigma`.  The
  field's mean t over slices and sites enters the monodromy only as a
  phase, Gamma(s + t) = e^{-i nu t} Gamma(s), and is Gaussian and
  independent of the rest of the field, since the constant vector is an
  eigenvector of the covariance.  It is drawn by inversion from uniforms
  stratified within each error batch, so every batch holds one constant
  mode per equal-probability stratum: each field keeps its law, each batch
  stays an independent estimate, and at the benchmark point the error of
  `estimate_xi_rel` falls by about half and that of `estimate_duhamel` by
  about 60 %.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .lattice import ModelParams, TimeGrid, TorusGeometry, check_grid_period
from .propagators import (_circulant_root, _plane_waves, _spectral_data, free_log_trace,
                          hartree_shift, heat_propagator, ideal_occupation, monodromy_batch)
from .stats import (ComplexEstimate, _stratified_uniforms, batch_means, exact_estimate,
                    mean_estimate, ratio_estimate, weight_ess)

__all__ = [
    "wick_rho",
    "sample_sigma",
    "contour_shift",
    "estimate_xi_rel",
    "estimate_duhamel",
]

# fields per block of the control variate's quadratic form: the transformed
# block is reused from cache instead of faulting in a stack-sized array
CONTROL_CHUNK = 256


def wick_rho(geom: TorusGeometry, nu: float, kappa0: float) -> float:
    """Density shift nu * gamma1_free(x, x) that cancels the tadpole term.

    Site independent by translation invariance, so it is nu times the
    per-site ideal occupation.
    """
    return nu * ideal_occupation(geom, nu, kappa0)


def sample_sigma(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                 n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of field configurations, shape (n_samples, n_slices, n_sites).

    Each field is white noise times the slice covariance's circulant root,
    whose eigenvector the unit constant vector u = 1 / sqrt(n_slices n_sites)
    is.  The noise's component along u is replaced by ndtri of a uniform
    from `stats._stratified_uniforms`, so it is still N(0, 1) and independent
    of the rest, and every field keeps its exact Gaussian law; but within
    each `stats.batch_layout` batch of rows (and within the remainder) the
    constant modes fall one per equal-probability stratum.  The rows are
    therefore not independent: batch means are, so errors of averages over
    the rows hold only under that partition, in row order.
    """
    root = _circulant_root(geom, params.lam / (params.nu * grid.eps) * v.values)
    noise = rng.standard_normal((n_samples, grid.n_slices, geom.n_sites))
    flat = noise.reshape(n_samples, -1)
    scale = 1.0 / np.sqrt(flat.shape[1])
    constant = ndtri(_stratified_uniforms(rng, (n_samples,)))
    flat += ((constant - flat @ np.full(flat.shape[1], scale)) * scale)[:, None]
    return (noise.reshape(-1, geom.n_sites) @ root).reshape(noise.shape)


def _log_det_ratio(geom: TorusGeometry, nu: float, kappa0: float,
                   gamma_stack: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """log det(1 - e^{-nu (kappa0 - c)} Gamma_s) - log det(1 - e^{-nu kappa0} Gamma_0).

    Gamma_s is the monodromy of the real field s; e^{nu c} Gamma_s is that of
    the shifted field s + i c.  The imaginary part is the angle of slogdet's
    unit sign, in (-pi, pi]: its principal branch, which gives the analytic
    weight for an integer N or on at most 2 sites; ROADMAP item 12 lifts this.
    """
    sign, logabs = np.linalg.slogdet(_eye_minus(np.exp(-nu * (kappa0 - shift)), gamma_stack))
    return 1j * np.angle(sign) + logabs + free_log_trace(geom, nu, kappa0)


def _eye_minus(scale: float, gamma_stack: np.ndarray) -> np.ndarray:
    """1 - scale Gamma per field, the bits of np.eye(n) - scale * gamma_stack
    from one stack-sized temporary instead of two."""
    mat = gamma_stack * -scale
    mat += np.eye(gamma_stack.shape[-1])
    return mat


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


def _zero_field_weight(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                       shift: float) -> float:
    """w(0), the weight of the zero field, whose monodromy is U(nu)."""
    zero = np.zeros((1, grid.n_slices, geom.n_sites))
    return _field_weights(params, geom, grid, v, zero,
                          heat_propagator(geom, params.nu)[None], shift)[0].real


def _gaussian_control(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                      sigma: np.ndarray, shift: float):
    """Control variate g(s) = w(0) exp(s.H s / 2) per field, and its mean E[g].

    w(0) is the weight at s = 0, where the monodromy is U(nu).  H is block
    circulant and symmetric over slices (`_weight_hessian`), and every block,
    like the slice covariance C, is translation invariant and symmetric over
    sites.  So the product of the plane waves over slices and over sites
    (`propagators._plane_waves`) diagonalizes H and C at once, with entries
    h(k, p) <= 0 and C(p).  With z the fields in that basis,

        s.H s = sum h(k, p) z^2,   E[g] = w(0) prod (1 - C(p) h(k, p))^-1/2,

    and the (n_slices n_sites)^2 matrix H is never formed.
    """
    n_slices, n = grid.n_slices, geom.n_sites
    w0 = _zero_field_weight(params, geom, grid, v, shift)
    slice_basis, slice_cos = _plane_waves(n_slices, 1)
    site_basis, site_cos = _plane_waves(geom.sites_per_side, geom.dimension)
    h_modes = slice_cos.T @ _weight_hessian(params, geom, grid, shift)[:, 0, :] @ site_cos
    cov_modes = params.lam / (params.nu * grid.eps) * v.values @ site_cos
    log_det = np.sum(np.log1p(-cov_modes * h_modes))
    quad = np.empty(len(sigma))
    for start in range(0, len(sigma), CONTROL_CHUNK):
        z = (slice_basis.T @ sigma[start:start + CONTROL_CHUNK]).reshape(-1, n) @ site_basis
        quad[start:start + CONTROL_CHUNK] = (np.square(z, out=z).reshape(-1, n_slices * n)
                                             @ h_modes.ravel())
    return w0 * np.exp(0.5 * quad), w0 * np.exp(-0.5 * log_det)


def _kernel_expansion(params: ModelParams, geom: TorusGeometry, grid: TimeGrid,
                      shift: float, x: int, x_p: int, lag: int):
    """Second-order data of the Duhamel kernel k at s = 0, in the frame rolled to tau'.

    With kappa = kappa0 - c, f = e^{-nu kappa}, G = (1 - f U(nu))^-1 and the
    free grid Green function G0(d) = e^{-kappa d} U(d) G on (0, nu), wrapped
    by G0(d) = G0(d + nu) for d <= 0: slice j's phase sits at
    t_j = (j + 1/2) eps, the lag is s = lag eps, and

        L[j, y] = G0(s - t_j)[x, y],   R[j, y] = G0(t_j)[y, x'],
        k0 = G0(s)[x, x']  (G0(nu) = G - 1 at equal times),
        a = -eps L o R / k0,

    so that log k has gradient i a at s = 0.  M is block circulant over
    slices with blocks m[d] = G0(d eps) for d >= 1 and m[0] = G - 1/2 (the
    contact term), that is M = (1 + S Q)(1 - S Q)^-1 / 2 with Q =
    e^{-kappa eps} U(eps) and S the cyclic slice shift.  Every block is
    diagonal in the plane waves (`propagators._spectral_data`).  Returns k0,
    a, L, R (each of shape (n_slices, n_sites)) and the diagonals of m[d]
    over the modes, shape (n_slices, n_sites).
    """
    evals, evecs = _spectral_data(geom)
    nu, eps, n_slices = params.nu, grid.eps, grid.n_slices
    kappa = params.kappa0 - shift
    green = 1.0 / (1.0 - np.exp(-nu * kappa + 0.5 * nu * evals))

    def free(d):  # modes of G0(d), for d in (0, nu]
        return np.exp(d * (0.5 * evals - kappa)) * green

    t = eps * (np.arange(n_slices) + 0.5)[:, None]
    left = (evecs[x] * free((lag * eps - t) % nu)) @ evecs.T
    right = (evecs[x_p] * free(t)) @ evecs.T
    k0 = float(evecs[x] @ (free(lag * eps if lag else nu) * evecs[x_p]))
    a = -eps * left * right / k0
    m_modes = free(eps * np.arange(n_slices)[:, None])
    m_modes[0] -= 0.5
    return k0, a, left, right, m_modes


def _kernel_control(params: ModelParams, geom: TorusGeometry, grid: TimeGrid, v,
                    sigma: np.ndarray, shift: float, x: int, x_p: int, lag: int,
                    control: np.ndarray):
    """Control g_n for the Duhamel numerator Re(k w) per field, and its mean E[g_n].

    sigma is rolled to start at tau', and control is `_gaussian_control`'s
    g_d = w(0) exp(s.H s / 2) of the same fields.  With the pieces of
    `_kernel_expansion` and T = diag(L) M diag(R), log(k w) = log(k0 w(0))
    + i a.s + s.B s / 2 + O(s^3), where

        B = H - (eps^2 / k0) (T + T^t) + a a^t,
        g_n = k0 w(0) exp(s.B s / 2) cos(a.s),
        E[g_n] = k0 w(0) det(1 - C B)^-1/2 exp(-a^t (1 - C B)^-1 C a / 2).

    Per field, (L o s).M(R o s) is a sum over the Laplacian modes, in each
    of which M is an n_slices x n_slices circulant.  For the mean, with
    C = R_c R_c^t slice by slice (`_circulant_root`) and b = R_c^t a, one
    Cholesky factor of [[1 - R_c^t (B - a a^t) R_c, b], [b^t, 1]] gives
    det(1 - C B) = det(1 - R_c^t B R_c) and q = b^t (1 - R_c^t (B - a a^t) R_c)^-1 b,
    whence a^t (1 - C B)^-1 C a = q / (1 - q).  The factor exists exactly
    when 1 - R_c^t B R_c is positive definite, which is when E[g_n] exists.
    """
    n_slices, n = grid.n_slices, geom.n_sites
    dim, eps = n_slices * n, grid.eps
    k0, a, left, right, m_modes = _kernel_expansion(params, geom, grid, shift, x, x_p, lag)
    evecs = _spectral_data(geom)[1]
    lags = (np.arange(n_slices)[:, None] - np.arange(n_slices)) % n_slices
    mu = m_modes[lags]  # mu[j, j', p]: mode p of m[j - j']

    # R_c^t (T + T^t) R_c, block (j, j') = sum over modes p of
    # lw[j, p]^t mu[j, j', p] rw[j', p] + rw[j, p]^t mu[j', j, p] lw[j', p],
    # with lw[j] = E^t diag(L_j) root and rw[j] = E^t diag(R_j) root
    root = _circulant_root(geom, params.lam / (params.nu * grid.eps) * v.values)
    lw = evecs.T @ (left[..., None] * root)
    rw = evecs.T @ (right[..., None] * root)
    pairs = np.empty((n_slices, 2 * n, n_slices, n))
    np.multiply(mu.transpose(0, 2, 1)[..., None], rw.transpose(1, 0, 2), out=pairs[:, :n])
    np.multiply(mu.transpose(1, 2, 0)[..., None], lw.transpose(1, 0, 2), out=pairs[:, n:])
    sym = np.concatenate([lw, rw], axis=1).transpose(0, 2, 1) @ pairs.reshape(n_slices, 2 * n, dim)
    bordered = np.empty((dim + 1, dim + 1))
    inner = bordered[:dim, :dim]
    np.multiply(sym.reshape(dim, dim), eps**2 / k0, out=inner)
    del pairs, sym  # on 3^3 each is several MB: free them before the factorization
    hess = root.T @ _weight_hessian(params, geom, grid, shift) @ root
    inner.reshape(n_slices, n, n_slices, n)[...] -= hess[lags].transpose(0, 2, 1, 3)
    inner[np.diag_indices(dim)] += 1.0
    bordered[dim, :dim] = bordered[:dim, dim] = (a @ root).ravel()
    bordered[dim, dim] = 1.0
    try:
        factor = np.linalg.cholesky(bordered)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"1 - C B is not positive definite, so the Duhamel control has no mean: "
            f"x = {x}, x' = {x_p}, lag {lag} of {n_slices} slices, {params}, {geom}") from None
    diag = np.diagonal(factor)
    quad = np.dot(factor[dim, :dim], factor[dim, :dim])
    w0 = _zero_field_weight(params, geom, grid, v, shift)
    mean = k0 * w0 * np.exp(-np.sum(np.log(diag)) - 0.5 * quad / diag[dim] ** 2)

    # (L o s).M(R o s) per field: in each mode, M is a circulant over slices
    def modes(rows, block):  # (rows o s) in Laplacian modes, shape (n_sites, fields, n_slices)
        return (evecs.T @ (rows * block).reshape(-1, n).T).reshape(n, len(block), n_slices)

    circulant = np.ascontiguousarray(mu.transpose(2, 1, 0))
    insert = np.empty(len(sigma))
    for start in range(0, len(sigma), CONTROL_CHUNK):
        block = sigma[start:start + CONTROL_CHUNK]
        form = modes(left, block)
        form *= modes(right, block) @ circulant
        insert[start:start + CONTROL_CHUNK] = form.sum(axis=0).sum(axis=1)
    phase = sigma.reshape(len(sigma), -1) @ a.ravel()
    numer_control = k0 * control * np.exp(0.5 * phase**2 - eps**2 / k0 * insert) * np.cos(phase)
    return numer_control, mean


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
    (`records.record_from_estimate`).  Its rows are stratified like the fields
    (`sample_sigma`), so an error taken from it must use the same batches.
    """
    check_grid_period(grid, params)
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


def _duhamel_kernels(geom: TorusGeometry, grid: TimeGrid, sigma: np.ndarray,
                     kappa: float, x: int, x_p: int, lag: int):
    """Conditional kernels k per field of a stack rolled to start at tau', and Gamma'.

    With M = e^{-nu kappa} Gamma', one column y of (1 - M)^-1 solves
    (1 - M) y = e_{x'}; then k = e^{-kappa s} P[x, :] y at lag s = lag eps,
    with P the product over the first `lag` slices, and k = [M y]_x at equal
    times.
    """
    fug = np.exp(-grid.nu * kappa)
    if lag:
        gamma, head = monodromy_batch(geom, grid, sigma, prefix=lag)
        row = np.exp(-kappa * lag * grid.eps) * head[:, x]
    else:
        gamma = monodromy_batch(geom, grid, sigma)
        row = fug * gamma[:, x]
    unit = np.zeros((len(sigma), geom.n_sites, 1))
    unit[:, x_p] = 1.0
    column = np.linalg.solve(_eye_minus(fug, gamma), unit)[..., 0]
    return np.einsum("si,si->s", row, column), gamma


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
    the prefix P_tau' (push-through), and needs one column of the resolvent
    (`_duhamel_kernels`).  At equal times the identity winding is dropped,
    leaving M (1 - M)^-1.  det(1 - M) is the weight's determinant.

    On the shifted contour U scales by e^{c s} and M by e^{nu c}, so kappa0
    becomes kappa0 - c in k.  The numerator samples are n = Re(k w) and the
    weights w = Re F of `estimate_xi_rel`, and the estimate is

        mean(n - g_n + E[g_n]) / mean(w - g_d + E[g_d])

    over the same fields, with g_d `_gaussian_control` and g_n its
    second-order counterpart for k w (`_kernel_control`), both at coefficient
    1; errors are `ratio_estimate`'s of the corrected streams.  extra carries
    c ("contour_shift"), E[g_n] / E[g_d] ("gauss_mean", the one-loop Green
    function), the error of the plain ratio mean(n) / mean(w)
    ("plain_stderr"), and the mean modulus ("mean_abs_weight") and average
    sign ("avg_sign") of the raw weights; the ESS and the `unreliable` flag
    are the plain ratio's.
    """
    check_grid_period(grid, params)
    nu = params.nu
    if not (0.0 <= tau_p <= tau < nu):
        raise ValueError("need 0 <= tau' <= tau < nu")
    j_lo = grid.slice_index(tau_p)
    lag = grid.slice_index(tau) - j_lo
    shift = contour_shift(params, geom, v)
    kappa = params.kappa0 - shift

    if params.lam == 0.0:
        # exact free evaluation, zero variance
        zero = np.zeros((1, grid.n_slices, geom.n_sites))
        value = _duhamel_kernels(geom, grid, zero, kappa, x, x_p, lag)[0][0]
        return exact_estimate(value, n_samples, seed=seed, extra={
            **_sign_summary(np.ones(1)), "contour_shift": shift,
            "gauss_mean": float(value.real), "plain_stderr": 0.0})
    sigma = sample_sigma(params, geom, grid, v, n_samples, np.random.default_rng(seed))
    if j_lo:
        sigma = np.roll(sigma, -j_lo, axis=1)
    kernels, gamma = _duhamel_kernels(geom, grid, sigma, kappa, x, x_p, lag)
    weights = _field_weights(params, geom, grid, v, sigma, gamma, shift)
    numer = (kernels * weights).real
    weights = weights.real
    control, gauss_mean = _gaussian_control(params, geom, grid, v, sigma, shift)
    numer_control, numer_mean = _kernel_control(params, geom, grid, v, sigma, shift,
                                                x, x_p, lag, control)
    est = ratio_estimate(numer - numer_control + numer_mean,
                         weights - control + gauss_mean, seed=seed)
    plain = ratio_estimate(numer, weights)
    est.ess, est.unreliable = plain.ess, plain.unreliable
    est.extra.update(_sign_summary(weights), contour_shift=shift,
                     gauss_mean=numer_mean / gauss_mean, plain_stderr=plain.stderr)
    return est
