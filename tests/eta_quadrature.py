"""The eta-field action S: its closed form and the quadrature that referees it."""

import numpy as np
from scipy.integrate import quad

from bosegas.meanfield import _resolvent_root, _s_eta

ETA_QUAD_TOL = 1e-9  # absolute and relative tolerance of the S(eta) quadrature


def action_S_eta(eta, geom, kappa0):
    """S(eta) = int_0^inf tr[R_t eta (A + t - i eta)^-1 eta R_t] dt.

    A = -Lap/2 + kappa0, R_t = (A + t)^-1.  Adaptive quadrature; the integrand
    decays like t^-3.  It follows S analytically from eta = 0, so it gives
    the analytic branch of the log det.  Returns (value, precision_flag).
    """
    n = geom.n_sites
    eye = np.eye(n)
    hmat = -0.5 * geom.laplacian_matrix() + kappa0 * eye
    eta = np.asarray(eta, dtype=float)

    def integrand(t):
        rt = np.linalg.inv(hmat + t * eye)
        mid = np.linalg.inv(hmat + t * eye - 1j * np.diag(eta))
        return np.trace(rt @ np.diag(eta) @ mid @ np.diag(eta) @ rt)

    re, ere = quad(lambda t: integrand(t).real, 0.0, np.inf, limit=400,
                   epsabs=ETA_QUAD_TOL, epsrel=ETA_QUAD_TOL)
    im, eim = quad(lambda t: integrand(t).imag, 0.0, np.inf, limit=400,
                   epsabs=ETA_QUAD_TOL, epsrel=ETA_QUAD_TOL)
    flag = max(ere, eim) > 100 * ETA_QUAD_TOL
    return complex(re + 1j * im), flag


def action_S_eta_closed(eta, geom, kappa0):
    """Closed form S(eta) = log det(1 - i R eta) + i tr(R eta), R = (-Lap/2+kappa0)^-1.

    eta of shape (..., n_sites) gives S of the same leading shape: one complex
    number for one field, an array for a stack of them.
    """
    return _s_eta(np.asarray(eta, dtype=float), _resolvent_root(geom, kappa0))
