"""Direct-sum pair interaction V_nu, the reference for the batched slice densities."""

import numpy as np


def loop_interaction_Vnu(path1, path2, n_tau, v, geom, eps):
    """V_nu: (eps/2) * sum over equal-phase position pairs of v(x - x').

    Each path is a (positions, start_slice) pair: positions at uniform grid
    times eps apart, the first on time phase start_slice.  Left-endpoint
    quadrature: the final position of each path is excluded.  Self-pairing
    path1 is path2 is allowed and includes the diagonal terms.
    """
    (pos1, start1), (pos2, start2) = path1, path2
    p1 = pos1[:-1]
    p2 = pos2[:-1]
    ph1 = (start1 + np.arange(len(p1))) % n_tau
    ph2 = (start2 + np.arange(len(p2))) % n_tau
    if geom.mode == "lattice":
        vmat = v.matrix()
    total = 0.0
    for t in range(n_tau):
        a = p1[ph1 == t]
        b = p2[ph2 == t]
        if len(a) == 0 or len(b) == 0:
            continue
        if geom.mode == "lattice":
            total += vmat[np.ix_(a, b)].sum()
        else:
            total += v(a[:, None] - b[None, :]).sum()
    return 0.5 * eps * total
