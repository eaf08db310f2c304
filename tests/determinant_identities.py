"""Two determinant identities of linear algebra, checked by tests only.

No route takes a determinant by the resolvent integral, and the winding series
holds for any matrix of spectral radius below e^{nu kappa0}, so neither can
tell a wrong bosegas from a right one.
"""

import numpy as np
from scipy.integrate import quad


def det_identity_residual(a: np.ndarray) -> float:
    """Residual of 1/det(A) = exp(int_0^inf tr[(A+t)^-1 - (1+t)^-1] dt).

    Valid whenever A + A^* is positive definite.  The integral is done by
    adaptive quadrature on both real and imaginary parts.
    """
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


def winding_exponent(geom, nu: float, kappa0: float, gamma: np.ndarray, l_max: int = 64):
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
