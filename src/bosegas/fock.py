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
block-diagonal in contiguous sectors, and the trace at cutoff n_max - 1 is the
sum over the sectors with N < n_max.  `xi_rel` divides by the untruncated
free trace, so the top sector's share of Xi is its whole truncation error.
Every operator is a sparse CSR array built from one move primitive,
`OccupationBasis.hop`; a dense array exists only for one sector block at a
time, when its spectrum is taken.  The one-body functions use the
block-diagonal Boltzmann operators e^{-p (H - E_0)}, so an annihilator only
ever couples the block pair (N, n_0) -> (N - 1, n_0 - 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .lattice import CapacityError, ModelParams, TorusGeometry, TwoBodyPotential
from .propagators import _spectral_data, free_log_trace

__all__ = [
    "OccupationBasis",
    "TruncatedOperator",
    "build_hamiltonian",
    "xi_exact",
    "duhamel_exact",
    "gamma1_exact",
]

MAX_BASIS = 4000
HERMITICITY_TOL = 1e-12
DRIFT_TOL = 1e-6  # truncation drift above which xi_exact flags its result


class OccupationBasis:
    """Occupation vectors in sector order, one slice of `states` per sector.

    Modes are ordered species-major: mode index = a * n_sites + x.
    """

    def __init__(self, geom: TorusGeometry, n_species: float, n_max: int):
        if n_species not in (1, 2):
            raise CapacityError(f"oracle supports 1 or 2 species, not {n_species}")
        self.geom = geom
        self.n_species = int(n_species)
        self.n_max = n_max
        self.n_modes = geom.n_sites * self.n_species
        dim = math.comb(n_max + self.n_modes, self.n_modes)
        if dim > MAX_BASIS:
            raise CapacityError(f"basis of {dim} states exceeds {MAX_BASIS}")
        if (n_max + 1) ** (self.n_modes + 2) > np.iinfo(np.int64).max:
            raise CapacityError(f"sort codes of {self.n_modes} modes at n_max {n_max} "
                                "overflow int64")
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
        powers = np.arange(self.n_modes + 1, -1, -1, dtype=np.int64)
        return digits @ (self.n_max + 1) ** powers

    def _locate(self, states: np.ndarray) -> np.ndarray:
        """Basis indices of occupation vectors that lie in the basis."""
        return np.searchsorted(self._sorted_codes, self._codes(states))

    def hop(self, dst: int | None, src: int) -> sparse.csr_array:
        """Sparse b_dst^dag b_src between two modes, or b_src alone if dst is None."""
        rows = np.flatnonzero(self.states[:, src])
        moved = self.states[rows]
        amp = moved[:, src].astype(float)
        moved[:, src] -= 1
        if dst is not None:
            moved[:, dst] += 1
            amp *= moved[:, dst]
        return sparse.csr_array((np.sqrt(amp), (self._locate(moved), rows)),
                                shape=(len(self), len(self)))

    def annihilator(self, site: int, species: int = 0) -> sparse.csr_array:
        """Sparse b_{site, species} in this truncated basis."""
        return self.hop(None, species * self.geom.n_sites + site)

    def site_occupations(self) -> np.ndarray:
        """(B, n_sites) total occupation per site, summed over species."""
        occ = self.states.reshape(len(self), self.n_species, self.geom.n_sites)
        return occ.sum(axis=1)


@dataclass
class TruncatedOperator:
    matrix: sparse.csr_array
    basis: OccupationBasis

    def hermiticity_residual(self) -> float:
        return float(abs(self.matrix - self.matrix.T.conj()).max())


def build_hamiltonian(params: ModelParams, geom: TorusGeometry,
                      v: TwoBodyPotential, n_max: int) -> TruncatedOperator:
    """Sparse symmetric Hamiltonian diag(W) + nu sum_a sum_xy h1[x, y] b_x^dag b_y."""
    basis = OccupationBasis(geom, params.n_species, n_max)
    n_sites = geom.n_sites
    h1 = -0.5 * geom.laplacian_matrix() + params.kappa0 * np.eye(n_sites)
    dens = basis.site_occupations() - basis.n_species * params.rho / params.nu
    w = 0.5 * params.lam * np.einsum("bx,xy,by->b", dens, v.matrix(), dens)
    idx = np.arange(len(basis))
    H = sparse.csr_array((w, (idx, idx)), shape=(len(basis), len(basis)))
    for a in range(basis.n_species):
        for x, y in zip(*np.nonzero(h1)):
            H = H + params.nu * h1[x, y] * basis.hop(a * n_sites + x, a * n_sites + y)

    op = TruncatedOperator(matrix=H, basis=basis)
    if op.hermiticity_residual() > HERMITICITY_TOL:
        raise AssertionError("Hamiltonian lost Hermiticity during assembly")
    return op


@dataclass
class XiResult:
    xi: float
    xi_free: float
    xi_rel: float
    truncation_drift: float
    drift_warning: bool


def xi_exact(params: ModelParams, geom: TorusGeometry, v: TwoBodyPotential,
             n_max: int) -> XiResult:
    """Grand partition function Xi, its truncated free counterpart, and Xi / Xi_free.

    xi_rel divides by the untruncated free trace exp(N `free_log_trace`);
    xi_free sums e^{-nu sum_k n_k (kappa0 - l_k / 2)} over the basis read as
    eigenmode occupations, and is xi itself at lam = 0.  The truncation drift,
    the top sector N = n_max's share of Xi, flags the result above DRIFT_TOL.
    """
    op = build_hamiltonian(params, geom, v, n_max)
    states = op.basis.states
    # Tr e^{-H} restricted to each sector block
    traces = np.array([np.exp(-np.linalg.eigvalsh(op.matrix[s, s].toarray())).sum()
                       for s in op.basis.sectors])
    xi = xi_free = float(traces.sum())
    if params.lam != 0.0:
        levels = params.nu * (params.kappa0 - 0.5 * _spectral_data(geom)[0])
        xi_free = float(np.exp(-states @ np.tile(levels, op.basis.n_species)).sum())
    top = [states[s.start].sum() == n_max for s in op.basis.sectors]
    drift = float(traces[top].sum() / xi) if n_max >= 1 else 0.0
    log_free = params.n_species * free_log_trace(geom, params.nu, params.kappa0)
    return XiResult(
        xi=xi,
        xi_free=xi_free,
        xi_rel=xi * math.exp(-log_free),
        truncation_drift=drift,
        drift_warning=drift > DRIFT_TOL,
    )


def _boltzmann(params, geom, v, n_max, powers):
    """Basis, Tr e^{-(H - E0)} and the sparse block-diagonal e^{-p (H - E0)} per p."""
    op = build_hamiltonian(params, geom, v, n_max)
    pairs = [np.linalg.eigh(op.matrix[s, s].toarray()) for s in op.basis.sectors]
    evals = np.concatenate([w for w, _ in pairs])
    e0 = evals.min()  # common shift cancels in every ratio
    ops = [sparse.csr_array(sparse.block_diag(
        [(u * np.exp(-p * (w - e0))) @ u.T for w, u in pairs])) for p in powers]
    return op.basis, float(np.exp(-(evals - e0)).sum()), ops


def duhamel_exact(params: ModelParams, geom: TorusGeometry, v: TwoBodyPotential,
                  n_max: int, tau: float, x: int, tau_p: float, x_p: int) -> float:
    """Imaginary-time-ordered two-point function G(tau, x; tau', x').

    For tau > tau' this is the kernel ordering (annihilator at the later
    time); at tau = tau' it reduces to the one-body matrix <b_x^dag b_x'>.
    Both species indices are taken equal (the off-species function vanishes).
    """
    nu = params.nu
    if not (0.0 <= tau_p <= tau < nu):
        raise ValueError("need 0 <= tau' <= tau < nu")
    s = (tau - tau_p) / nu  # evolution over [0, nu) is generated by H / nu
    if s == 0.0:  # equal times: the other operator order, <b_x^dag b_x'>
        return float(gamma1_exact(params, geom, v, n_max)[x, x_p])
    basis, z, (late, early) = _boltzmann(params, geom, v, n_max, (1 - s, s))
    # Tr(e^{-(1-s)H} b_x e^{-sH} b_x'^dag): b_x only links (N, n_0) to (N-1, n_0-1)
    kernel = late @ basis.annihilator(x) @ early
    return float(kernel.multiply(basis.annihilator(x_p)).sum() / z)


def gamma1_exact(params: ModelParams, geom: TorusGeometry, v: TwoBodyPotential,
                 n_max: int) -> np.ndarray:
    """Full one-body matrix gamma_1(x, x') = <b_x^dag b_x'>."""
    basis, z, (rho,) = _boltzmann(params, geom, v, n_max, (1.0,))
    sites = range(geom.n_sites)
    # Tr(rho b_x^dag b_x') for species 0, with rho symmetric
    return np.array([[rho.multiply(basis.hop(x, y)).sum() for y in sites]
                     for x in sites]) / z
