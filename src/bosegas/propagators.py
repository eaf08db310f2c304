"""The torus eigenbasis, heat propagators, monodromies and the free Green matrix.

Every translation-invariant operator on the torus is diagonal in `_plane_waves`."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lattice import TimeGrid, TorusGeometry, UnsupportedModeError

__all__ = [
    "heat_propagator",
    "circle_heat_kernel",
    "monodromy_batch",
    "free_green",
    "free_log_trace",
    "ideal_occupation",
    "hartree_shift",
]

NEGATIVE_EIG_TOL = 1e-10


@lru_cache(maxsize=64)
def _laplacian(geom: TorusGeometry) -> np.ndarray:
    """The lattice Laplacian, built once per geometry; read-only."""
    lap = geom.laplacian_matrix()
    lap.flags.writeable = False
    return lap


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


@lru_cache(maxsize=64)
def _spectral_data(geom: TorusGeometry):
    """Laplacian spectrum sum_i (2 cos q_i - 2) and eigenbasis `_plane_waves`; read-only."""
    basis, cosines = _plane_waves(geom.sites_per_side, geom.dimension)
    evals = _laplacian(geom)[0] @ cosines
    evals.flags.writeable = False
    return evals, basis


def _circulant_root(geom: TorusGeometry, values) -> np.ndarray:
    """Symmetric root basis diag(sqrt(values @ cosines)) basis^t of the matrix values[x - y],
    the same in any basis of a degenerate eigenspace; ValueError if its spectrum is not PSD."""
    basis, cosines = _plane_waves(geom.sites_per_side, geom.dimension)
    spectrum = values @ cosines
    if spectrum.min() < -NEGATIVE_EIG_TOL * max(1.0, abs(spectrum.max())):
        raise ValueError(f"covariance is not positive semidefinite: mode {spectrum.min():.3g}")
    return (basis * np.sqrt(np.clip(spectrum, 0.0, None))) @ basis.T


def heat_propagator(geom: TorusGeometry, t: float) -> np.ndarray:
    """exp(t * Laplacian / 2) as a dense symmetric stochastic matrix."""
    if t < 0:
        raise ValueError("negative time in heat propagator")
    if geom.mode != "lattice":
        raise UnsupportedModeError("use circle_heat_kernel in circle mode")
    evals, evecs = _spectral_data(geom)
    return (evecs * np.exp(0.5 * t * evals)) @ evecs.T


def circle_heat_kernel(circumference: float, t: float, x, y=0.0):
    """Wrapped Gaussian transition density p_t(x, y) on the circle.

    The winding sum is truncated once additional terms drop below 1e-16.
    """
    if t < 0:
        raise ValueError("negative time in heat kernel")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if t == 0:
        raise ValueError("t=0 transition density is a point mass")
    L = circumference
    norm = 1.0 / np.sqrt(2.0 * np.pi * t)
    total = np.zeros(np.broadcast(x, y).shape)
    w = 0
    while True:
        term = norm * np.exp(-((x - y + w * L) ** 2) / (2.0 * t))
        if w != 0:
            term = term + norm * np.exp(-((x - y - w * L) ** 2) / (2.0 * t))
        total = total + term
        if np.all(term < 1e-16) and w > 0:
            break
        w += 1
    if total.shape == ():
        return float(total)
    return total


def _slice_phases(grid: TimeGrid, sigma: np.ndarray):
    """exp(-i eps sigma_j) of a field stack, slice by slice, each of shape (n_sites, S, 1).

    cos and sin are written into the real and imaginary views of one complex
    buffer: for a real stack, the same bits as the complex exp at less cost.
    A complex stack also scales by e^{eps Im sigma}.  Every slice reuses the
    buffer, so each yielded array holds only until the next.
    """
    angle = np.empty((sigma.shape[2], sigma.shape[0]))
    phases = np.empty(angle.shape + (1,), dtype=complex)
    for j in range(grid.n_slices):
        np.multiply(sigma[:, j, :].real.T, -grid.eps, out=angle)
        np.cos(angle, out=phases.real[..., 0])
        np.sin(angle, out=phases.imag[..., 0])
        if np.iscomplexobj(sigma):
            phases *= np.exp(grid.eps * sigma[:, j, :].imag.T)[..., None]
        yield phases


def monodromy_batch(geom: TorusGeometry, grid: TimeGrid, sigma: np.ndarray,
                    prefix: int | None = None) -> np.ndarray:
    """Strang-split time-ordered propagators over one period for a stack of fields.

    sigma has shape (S, n_slices, n_sites), and each field's potential is
    i sigma.  The result, of shape (S, n_sites, n_sites), is per field the
    product over slices j = n_slices..1 of
    exp(eps Lap/4) diag(exp(-i eps sigma_j)) exp(eps Lap/4), a contraction
    (operator norm <= 1) for every real sigma.  The adjacent Strang halves are
    fused: with H = exp(eps Lap/4), K = H^2 and D_j the slice phases,

        Gamma = H D_n K D_{n-1} ... K D_1 H,

    which is n_slices + 1 kinetic products instead of 2 n_slices.  The running
    product R_j = D_j K ... K D_1 H of the whole stack is held as one
    (n_sites, S, n_sites) complex array, so that viewed as real
    (n_sites, 2 S n_sites) each kinetic step is a single real GEMM for all S
    fields, and each phase step is a broadcast multiply by `_slice_phases`.

    Phases are taken relative to site 0: D_j = e^{-i eps sigma_j(0)}
    diag(e^{-i eps (sigma_j - sigma_j(0))}), so row 0 of the running product
    takes no phase step.  The scalar e^{-i eps sum_j sigma_j(0)} commutes with
    every factor: it joins the last slice's phases and multiplies row 0 once.
    The prefix product takes the sum over its own slices, once per field.

    prefix, when given, is a slice count 0 < prefix < n_slices; the return is
    then (result, H R_prefix), the product over the first `prefix` slices,
    for the unequal-time kernels.
    """
    sigma = np.asarray(sigma)
    S = sigma.shape[0]
    if sigma.shape[1:] != (grid.n_slices, geom.n_sites):
        raise ValueError("sigma stack has the wrong slice/site shape")
    if prefix is not None and not 0 < prefix < grid.n_slices:
        raise ValueError(f"prefix must lie in 1..{grid.n_slices - 1}, not {prefix}")
    n = geom.n_sites
    half = heat_propagator(geom, 0.5 * grid.eps)
    full = heat_propagator(geom, grid.eps)

    def flat(stack):
        return stack.view(float).reshape(n, 2 * S * n)

    def leading_half(stack):
        prod = (half @ flat(stack)).view(complex).reshape(n, S, n)
        return prod.transpose(1, 0, 2)

    def common(slices):
        return np.exp(-1j * grid.eps * sigma[:, :slices, 0].sum(axis=1))[:, None]

    run = np.empty((n, S, n), dtype=complex)
    spare = np.empty_like(run)
    total = common(grid.n_slices)
    for j, phase in enumerate(_slice_phases(grid, sigma[:, :, 1:] - sigma[:, :, :1])):
        if j == grid.n_slices - 1:
            phase *= total
        if j == 0:
            run[0] = half[0]
            np.multiply(phase, half[1:, None, :], out=run[1:])
        else:
            if j == prefix:
                head = np.multiply(leading_half(run), common(prefix)[..., None], order="C")
            np.matmul(full, flat(run), out=flat(spare))
            run, spare = spare, run
            run[1:] *= phase
    run[0] *= total
    gam = leading_half(run).copy()
    if prefix is not None:
        return gam, head
    return gam


def free_green(geom: TorusGeometry, nu: float, kappa0: float) -> np.ndarray:
    """Ideal-gas one-body matrix M0 (1 - M0)^-1 with M0 = e^{-nu kappa0} e^{nu Lap/2}.

    Equals the winding sum over l >= 1 of e^{-kappa0 l nu} exp(l nu Lap / 2);
    convergence needs kappa0 > 0.
    """
    if kappa0 <= 0:
        raise ValueError("free Green series diverges unless kappa0 > 0")
    evals, evecs = _spectral_data(geom)
    occ = np.exp(-nu * kappa0 + 0.5 * nu * evals)
    return (evecs * (occ / (1.0 - occ))) @ evecs.T


def free_log_trace(geom: TorusGeometry, nu: float, kappa: float) -> float:
    """log Xi_free = -sum_k log(1 - e^{-nu (kappa - l_k / 2)}) of one species, untruncated.

    l_k: the lattice Laplacian spectrum, or -(2 pi k / L)^2 on the circle for
    every k above rounding.  Infinite when a mode has kappa - l_k / 2 <= 0.
    """
    if geom.mode == "lattice":
        evals, _ = _spectral_data(geom)
    else:
        k_max = int(geom.circumference / (2.0 * np.pi)
                    * np.sqrt(2.0 * (50.0 / nu + max(-kappa, 0.0)))) + 1
        evals = -(2.0 * np.pi * np.arange(-k_max, k_max + 1) / geom.circumference) ** 2
    if np.any(kappa - 0.5 * evals <= 0):
        return float("inf")
    return -float(np.sum(np.log1p(-np.exp(-nu * kappa + 0.5 * nu * evals))))


def ideal_occupation(geom: TorusGeometry, nu: float, kappa: float) -> float:
    """Per-site ideal-gas occupation (1/|Λ|) Σ_k (e^{nu(ε_k + kappa)} - 1)^-1."""
    evals, _ = _spectral_data(geom)
    eps_k = -0.5 * evals
    return float(np.mean(1.0 / (np.exp(nu * (eps_k + kappa)) - 1.0)))


@lru_cache(maxsize=64)
def hartree_shift(geom: TorusGeometry, nu: float, kappa0: float, rho: float,
                  coupling: float) -> float:
    """Root s > -kappa0 of the constant-field Hartree equation
    s = coupling (nu n(kappa0 + s) - rho), with n the per-site ideal occupation.

    For coupling >= 0, f(s) = s - coupling (nu n(kappa0 + s) - rho) increases
    on (-kappa0, inf) from -inf (the zero mode makes n diverge) to +inf, so
    the root is unique.  For f(0) < 0 it lies in [0, -f(0)], since
    n(kappa0 + s) <= n(kappa0) there; otherwise in [-kappa0 + d, 0] for the
    first d = kappa0 / 2^k with f(-kappa0 + d) < 0.  Found by bisection.
    """
    def f(s):
        return s - coupling * (nu * ideal_occupation(geom, nu, kappa0 + s) - rho)

    at_zero = f(0.0)
    if at_zero == 0.0:  # no coupling, or rho = nu n(kappa0)
        return 0.0
    if at_zero < 0.0:
        lo, hi = 0.0, -at_zero
    else:
        lo, hi = -0.5 * kappa0, 0.0
        while f(lo) >= 0.0:
            lo, hi = 0.5 * (lo - kappa0), lo
    while hi - lo > 1e-15 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
