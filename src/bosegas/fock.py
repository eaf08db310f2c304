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
    """Deterministic (lexicographic) enumeration of occupation vectors.

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
        states = [
            s
            for s in itertools.product(range(n_max + 1), repeat=self.n_modes)
            if sum(s) <= n_max
        ]
        states.sort()
        self.states = np.asarray(states, dtype=np.int64)
        self.index = {tuple(s): i for i, s in enumerate(states)}

    def __len__(self) -> int:
        return len(self.states)

    def annihilator(self, site: int, species: int = 0) -> np.ndarray:
        """Dense matrix of b_{site, species} in this truncated basis."""
        mode = species * self.geom.n_sites + site
        b = np.zeros((len(self), len(self)))
        for i, s in enumerate(self.states):
            n = s[mode]
            if n == 0:
                continue
            t = s.copy()
            t[mode] -= 1
            b[self.index[tuple(t)], i] = np.sqrt(n)
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


def build_hamiltonian(params: ModelParams, geom: TorusGeometry,
                      v: TwoBodyPotential, n_max: int,
                      n_species_int: int | None = None) -> TruncatedOperator:
    """Dense symmetric Hamiltonian in the occupation basis."""
    if n_species_int is None:
        n_species_int = int(round(params.n_species))
    basis = OccupationBasis(geom, n_species_int, n_max)
    n_sites = geom.n_sites
    h1 = -0.5 * geom.laplacian_matrix() + params.kappa0 * np.eye(n_sites)

    H = np.zeros((len(basis), len(basis)))

    # kinetic + chemical-potential part: nu * sum_a b^dag h1 b, built by hopping
    for i, s in enumerate(basis.states):
        occ = s.reshape(n_species_int, n_sites)
        for a in range(n_species_int):
            for y in range(n_sites):
                ny = occ[a, y]
                if ny == 0:
                    continue
                for x in range(n_sites):
                    if h1[x, y] == 0.0:
                        continue
                    t = occ.copy()
                    t[a, y] -= 1
                    amp = np.sqrt(ny * (t[a, x] + 1))
                    t[a, x] += 1
                    j = basis.index[tuple(t.ravel())]
                    H[j, i] += params.nu * h1[x, y] * amp

    # quartic part: diagonal in the occupation basis
    lam = params.lam
    if lam != 0.0:
        vmat = v.matrix()
        shift = n_species_int * params.rho / params.nu
        dens = basis.site_occupations() - shift
        H[np.diag_indices_from(H)] += 0.5 * lam * np.einsum(
            "bx,xy,by->b", dens, vmat, dens
        )

    op = TruncatedOperator(matrix=H, label="hamiltonian", basis=basis)
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
             n_max: int, n_species_int: int | None = None,
             drift_tol: float = 1e-6) -> XiResult:
    """Grand partition function, its free counterpart, and their ratio.

    The truncation drift compares the cutoffs n_max and n_max - 1 and flags
    the result when it exceeds drift_tol.
    """
    if n_species_int is None:
        n_species_int = int(round(params.n_species))

    def trace_exp(nm, interacting):
        if interacting:
            p = params
        else:
            p = ModelParams(nu=params.nu, kappa0=params.kappa0, lambda0=0.0,
                            n_species=params.n_species)
        H = build_hamiltonian(p, geom, v, nm, n_species_int).matrix
        return float(np.sum(np.exp(-np.linalg.eigvalsh(H))))

    xi = trace_exp(n_max, True)
    xi_prev = trace_exp(n_max - 1, True) if n_max >= 1 else xi
    xi_free = trace_exp(n_max, False)
    drift = abs(xi - xi_prev) / xi
    return XiResult(
        xi=xi,
        xi_free=xi_free,
        xi_rel=xi / xi_free,
        truncation_drift=drift,
        drift_warning=drift > drift_tol,
    )


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
    if n_species_int is None:
        n_species_int = int(round(params.n_species))
    op = build_hamiltonian(params, geom, v, n_max, n_species_int)
    evals, evecs = np.linalg.eigh(op.matrix)
    # evolution over tau in [0, nu) is generated by H / nu
    e_hat = evals / nu
    e_hat = e_hat - e_hat.min()  # common shift cancels in the ratio
    s = tau - tau_p
    bx = evecs.T @ op.basis.annihilator(x) @ evecs
    bxp = evecs.T @ op.basis.annihilator(x_p) @ evecs
    xi = np.sum(np.exp(-nu * e_hat))
    if s == 0.0:
        val = np.einsum("i,ji,ji->", np.exp(-nu * e_hat), bx, bxp)
    else:
        w_out = np.exp(-(nu - s) * e_hat)
        w_in = np.exp(-s * e_hat)
        val = np.einsum("i,ij,j,ij->", w_out, bx, w_in, bxp)
    return float(val / xi)


def gamma1_exact(params: ModelParams, geom: TorusGeometry, v: TwoBodyPotential,
                 n_max: int, n_species_int: int | None = None) -> np.ndarray:
    """Full one-body matrix gamma_1(x, x') = <b_x^dag b_x'>."""
    if n_species_int is None:
        n_species_int = int(round(params.n_species))
    op = build_hamiltonian(params, geom, v, n_max, n_species_int)
    evals, evecs = np.linalg.eigh(op.matrix)
    w = np.exp(-(evals - evals.min()))
    xi = w.sum()
    n = geom.n_sites
    gamma = np.zeros((n, n))
    bs = [evecs.T @ op.basis.annihilator(x) @ evecs for x in range(n)]
    for x in range(n):
        for xp in range(n):
            gamma[x, xp] = np.einsum("i,ji,ji->", w, bs[x], bs[xp]) / xi
    return gamma


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
