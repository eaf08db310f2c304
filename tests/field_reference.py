"""The classical-field energy of a complex field and the two-point function of a chain."""

import numpy as np

from bosegas.meanfield import _action_terms, _energy
from bosegas.stats import batch_means


def field_action(phi, params, geom, v) -> float:
    """Energy functional h(phi); phi has shape (N, n_sites), complex."""
    phi = np.atleast_2d(np.asarray(phi, dtype=complex))
    return _energy(np.stack([phi.real, phi.imag]), params, _action_terms(params, geom, v))


def two_point(samples):
    """<phibar_a(x) phi_b(y)> of a chain's samples, with batch-means errors per entry."""
    outer = np.einsum("sax,sby->saxby", samples.conj(), samples)
    mean, s_re, s_im = batch_means(outer)
    return mean, np.hypot(s_re, s_im)
