"""Exact grand-canonical traces on a truncated Fock space for tiny lattices.

This is the brute-force oracle the stochastic routes are validated against.
States are occupation vectors over (site, species) modes with a total-particle
cutoff; the Hamiltonian is used in its occupation form, which keeps all
matrices real:

    H = nu * sum_a (b_a^dag, (-Lap/2 + kappa0) b_a)
        + (lam/2) * sum_{x,y} (n_x - N rho / nu) v(x-y) (n_y - N rho / nu)

with n_x the occupation summed over species.  The rho shift sits inside each
species factor of the quartic term, so N species contribute N rho / nu to the
shifted density.

H conserves each species' particle number.  The basis is ordered by sector:
total number N = 0..n_max first, then n_0 (the species-0 number).  H is then
block-diagonal in contiguous sectors, every spectrum is taken block by block,
and the trace at cutoff n_max - 1 is the sum over the sectors with N < n_max.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import CapacityError, ModelParams, TorusGeometry, TwoBodyPotential

__all__ = [
    "OccupationBasis",
    "TruncatedOperator",
    "build_hamiltonian",
    "xi_exact",
    "duhamel_exact",
    "gamma1_exact",
    "ccr_residual",
]

MAX_BASIS = 4000
HERMITICITY_TOL = 1e-12


class OccupationBasis:
    """Occupation vectors in sector order, one slice of `states` per sector.

    Modes are ordered species-major: mode index = a * n_sites + x.
    """

    def __init__(self, geom: TorusGeometry, n_species_int: int, n_max: int):
        if geom.n_sites > 4:
            raise CapacityError("oracle restricted to at most 4 sites")
        if n_species_int not in (1, 2):
            raise CapacityError("oracle supports 1 or 2 integer species")
        self.geom = geom
        self.n_species = n_species_int
        self.n_max = n_max
        self.n_modes = geom.n_sites * n_species_int
        dim = math.comb(n_max + self.n_modes, self.n_modes)
        if dim > MAX_BASIS:
            raise CapacityError(f"basis of {dim} states exceeds {MAX_BASIS}")
        # stars and bars: the gaps before n_modes bars placed among n_max +
        # n_modes slots are the occupations; the slots after the last are unused
        bars = itertools.combinations(range(n_max + self.n_modes), self.n_modes)
        states = np.diff(np.array(list(bars)), axis=1, prepend=-1) - 1
        codes = self._codes(states)
        order = np.argsort(codes)
        self.states, self._sorted_codes = states[order], codes[order]
        _, cuts = np.unique(self._sorted_codes // (n_max + 1) ** self.n_modes,
                            return_index=True)
        self.sectors = [slice(lo, hi) for lo, hi in zip(cuts, [*cuts[1:], len(states)])]

    def __len__(self) -> int:
        return len(self.states)

    def _codes(self, states: np.ndarray) -> np.ndarray:
        """Integer codes that sort by sector (N, n_0), then by occupations."""
        counts = states.reshape(len(states), self.n_species, -1).sum(axis=2)
        digits = np.column_stack([counts.sum(axis=1), counts[:, 0], states])
        return np.ravel_multi_index(digits.T, (self.n_max + 1,) * (self.n_modes + 2))

    def _locate(self, states: np.ndarray) -> np.ndarray:
        """Basis indices of occupation vectors that lie in the basis."""
        return np.searchsorted(self._sorted_codes, self._codes(states))

    def annihilator(self, site: int, species: int = 0) -> np.ndarray:
        """Dense matrix of b_{site, species} in this truncated basis."""
        mode = species * self.geom.n_sites + site
        src = np.flatnonzero(self.states[:, mode])
        lower = self.states[src]
        lower[:, mode] -= 1
        b = np.zeros((len(self), len(self)))
        b[self._locate(lower), src] = np.sqrt(self.states[src, mode])
        return b

    def site_occupations(self) -> np.ndarray:
        """(B, n_sites) total occupation per site, summed over species."""
        occ = self.states.reshape(len(self), self.n_species, self.geom.n_sites)
        return occ.sum(axis=1)


@dataclass
class TruncatedOperator:
    matrix: np.ndarray
    label: str
    basis: OccupationBasis

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.T.conj())))


def _interaction(basis, params, v) -> np.ndarray:
    """Diagonal of the quartic term, one entry per basis state."""
    shift = basis.n_species * params.rho / params.nu
    dens = basis.site_occupations() - shift
    return 0.5 * params.lam * np.einsum("bx,xy,by->b", dens, v.matrix(), dens)


def build_hamiltonian(params: ModelParams, geom: TorusGeometry,
                      v: TwoBodyPotential, n_max: int,
                      n_species_int: int | None = None) -> TruncatedOperator:
    """Dense symmetric Hamiltonian in the occupation basis."""
    if n_species_int is None:
        n_species_int = int(round(params.n_species))
    basis = OccupationBasis(geom, n_species_int, n_max)
    n_sites = geom.n_sites
    h1 = -0.5 * geom.laplacian_matrix() + params.kappa0 * np.eye(n_sites)
    states = basis.states

    H = np.zeros((len(basis), len(basis)))
    # kinetic + chemical-potential part nu * sum_a b^dag h1 b: every state
    # with a particle at y hops it to x at once
    for a in range(n_species_int):
        for x, y in zip(*np.nonzero(h1)):
            mx, my = a * n_sites + x, a * n_sites + y
            src = np.flatnonzero(states[:, my])
            hop = states[src]
            hop[:, my] -= 1
            hop[:, mx] += 1
            amp = np.sqrt(states[src, my] * hop[:, mx])
            H[basis._locate(hop), src] += params.nu * h1[x, y] * amp

    H[np.diag_indices_from(H)] += _interaction(basis, params, v)

    op = TruncatedOperator(matrix=H, label="hamiltonian", basis=basis)
    if op.hermiticity_residual() > HERMITICITY_TOL:
        raise AssertionError("Hamiltonian lost Hermiticity during assembly")
    return op


def _block_spectra(matrix, basis, eig=np.linalg.eigvalsh) -> list:
    """`eig` of each sector block of a sector-block-diagonal matrix."""
    return [eig(matrix[s, s]) for s in basis.sectors]


@dataclass
class XiResult:
    xi: float
    xi_free: float
    xi_rel: float
    truncation_drift: float
    drift_warning: bool


def xi_exact(params: ModelParams, geom: TorusGeometry, v: TwoBodyPotential,
             n_max: int, n_species_int: int | None = None,
             drift_tol: float = 1e-6) -> XiResult:
    """Grand partition function, its free counterpart, and their ratio.

    The truncation drift compares the cutoffs n_max and n_max - 1, which is
    the share of the top sector N = n_max in Xi, and flags the result when it
    exceeds drift_tol.
    """
    op = build_hamiltonian(params, geom, v, n_max, n_species_int)
    weights = np.exp(-np.concatenate(_block_spectra(op.matrix, op.basis)))
    xi = float(weights.sum())
    top = weights[op.basis.states.sum(axis=1) == n_max].sum() if n_max >= 1 else 0.0
    xi_free = xi
    if params.lam != 0.0:
        kinetic = op.matrix.copy()
        kinetic[np.diag_indices_from(kinetic)] -= _interaction(op.basis, params, v)
        xi_free = float(np.exp(-np.concatenate(_block_spectra(kinetic, op.basis))).sum())
    drift = float(top / xi)
    return XiResult(
        xi=xi,
        xi_free=xi_free,
        xi_rel=xi / xi_free,
        truncation_drift=drift,
        drift_warning=drift > drift_tol,
    )


def _eigen_annihilators(params, geom, v, n_max, n_species_int, sites):
    """Block eigenvalues of H and b_x (species 0) in its eigenbasis, per site."""
    from scipy.linalg import block_diag
    op = build_hamiltonian(params, geom, v, n_max, n_species_int)
    evals, evecs = zip(*_block_spectra(op.matrix, op.basis, np.linalg.eigh))
    evals, evecs = np.concatenate(evals), block_diag(*evecs)
    return evals, np.stack([evecs.T @ op.basis.annihilator(x) @ evecs
                            for x in sites])


def duhamel_exact(params: ModelParams, geom: TorusGeometry, v: TwoBodyPotential,
                  n_max: int, tau: float, x: int, tau_p: float, x_p: int,
                  n_species_int: int | None = None) -> float:
    """Imaginary-time-ordered two-point function G(tau, x; tau', x').

    For tau > tau' this is the kernel ordering (annihilator at the later
    time); at tau = tau' it reduces to the one-body matrix <b_x^dag b_x'>.
    Both species indices are taken equal (the off-species function vanishes).
    """
    nu = params.nu
    if not (0.0 <= tau_p <= tau < nu):
        raise ValueError("need 0 <= tau' <= tau < nu")
    evals, (bx, bxp) = _eigen_annihilators(params, geom, v, n_max,
                                           n_species_int, (x, x_p))
    e = evals - evals.min()  # common shift cancels in the ratio
    s = (tau - tau_p) / nu   # evolution over [0, nu) is generated by H / nu
    if s == 0.0:  # equal times: the other operator order, <b_x^dag b_x'>
        bx, bxp = bx.T, bxp.T
    val = np.einsum("i,ij,j,ij->", np.exp(-(1 - s) * e), bx, np.exp(-s * e), bxp)
    return float(val / np.exp(-e).sum())


def gamma1_exact(params: ModelParams, geom: TorusGeometry, v: TwoBodyPotential,
                 n_max: int, n_species_int: int | None = None) -> np.ndarray:
    """Full one-body matrix gamma_1(x, x') = <b_x^dag b_x'>."""
    evals, bs = _eigen_annihilators(params, geom, v, n_max, n_species_int,
                                    range(geom.n_sites))
    w = np.exp(-(evals - evals.min()))
    return np.einsum("xji,yji->xy", bs * w, bs) / w.sum()


@dataclass
class CcrReport:
    protected_residual: float
    top_state_value: float


def ccr_residual(nu: float, n_max: int) -> CcrReport:
    """Commutator [Phi, Phi*] - nu on a single truncated mode.

    Exact (zero residual) on occupations below the cutoff; the top state
    carries the truncation artifact, where the commutator evaluates to
    -nu * n_max instead of +nu.
    """
    dim = n_max + 1
    b = np.diag(np.sqrt(np.arange(1, dim)), k=1)  # annihilator
    comm = nu * (b @ b.T - b.T @ b)
    protected = float(np.max(np.abs(np.diag(comm)[:n_max] - nu))) if n_max > 0 else 0.0
    return CcrReport(protected_residual=protected, top_state_value=float(comm[n_max, n_max]))
