"""Periodic geometry, two-body potentials, imaginary-time grids and model parameters.

Everything downstream (exact traces, auxiliary-field sampling, loop ensembles)
shares the discretization defined here: a unit-spacing torus in d = 1..3, or a
continuous circle of circumference L_c for the d = 1 continuum experiments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TorusGeometry",
    "TimeGrid",
    "TwoBodyPotential",
    "CirclePotential",
    "ModelParams",
    "PotentialReport",
    "validate_potential",
    "delta_potential",
    "wrapped_gaussian_potential",
]


class CapacityError(Exception):
    """Requested object exceeds the hard size limits of this desk-scale toolkit."""


class UnsupportedModeError(Exception):
    """Operation not defined for this geometry mode (lattice vs circle)."""


@dataclass(frozen=True)
class TorusGeometry:
    """Periodic cube of m sites per side in d dimensions, or a circle.

    mode "lattice": unit spacing, m**d sites, index arithmetic wraps mod m.
    mode "circle": d must be 1; continuous positions on [0, circumference).
    """

    dimension: int
    sites_per_side: int = 1
    mode: str = "lattice"
    circumference: float = 0.0

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        if self.mode not in ("lattice", "circle"):
            raise ValueError("mode must be 'lattice' or 'circle'")
        if self.mode == "lattice" and self.sites_per_side < 1:
            raise ValueError("need at least one site per side")
        if self.mode == "circle":
            if self.dimension != 1:
                raise UnsupportedModeError("circle mode exists only in d=1")
            if self.circumference <= 0:
                raise ValueError("circle needs a positive circumference")

    @property
    def n_sites(self) -> int:
        if self.mode != "lattice":
            raise UnsupportedModeError("site count is a lattice-mode notion")
        return self.sites_per_side**self.dimension

    def site_coords(self) -> np.ndarray:
        """(n_sites, d) integer coordinates in row-major (lexicographic) order."""
        m, d = self.sites_per_side, self.dimension
        grids = np.meshgrid(*([np.arange(m)] * d), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def site_index(self, coord) -> int:
        m, d = self.sites_per_side, self.dimension
        idx = 0
        for c in coord:
            idx = idx * m + (int(c) % m)
        return idx

    def displacement_table(self) -> np.ndarray:
        """(n, n) table of site indices of x - y (mod m per coordinate)."""
        coords = self.site_coords()
        m = self.sites_per_side
        diff = (coords[:, None, :] - coords[None, :, :]) % m
        flat = np.zeros(diff.shape[:2], dtype=np.int64)
        for k in range(self.dimension):
            flat = flat * m + diff[..., k]
        return flat

    def laplacian_matrix(self) -> np.ndarray:
        """Nearest-neighbour lattice Laplacian with periodic wrap-around."""
        if self.mode != "lattice":
            raise UnsupportedModeError("no Laplacian matrix in circle mode")
        n, m, d = self.n_sites, self.sites_per_side, self.dimension
        lap = np.zeros((n, n))
        coords = self.site_coords()
        for i in range(n):
            lap[i, i] = -2.0 * d
            for k in range(d):
                for step in (-1, 1):
                    c = coords[i].copy()
                    c[k] = (c[k] + step) % m
                    lap[i, self.site_index(c)] += 1.0
        # m=1 and m=2 come out right automatically: wrapped steps land on the
        # same site/neighbour twice, matching 2*sum_i(cos(2 pi k_i / m) - 1).
        return lap


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_slices steps covering one imaginary-time period nu."""

    nu: float
    n_slices: int

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.n_slices < 1:
            raise ValueError("need at least one slice")

    @property
    def eps(self) -> float:
        return self.nu / self.n_slices

    def slice_index(self, t: float) -> int:
        """The j with t = j eps; a time off the slice grid raises ValueError."""
        j = t / self.eps
        j_round = int(round(j))
        if abs(j - j_round) > 1e-9:
            raise ValueError(f"time {t} is not on the slice grid (eps = {self.eps})")
        return j_round


def check_grid_period(grid: TimeGrid, params: ModelParams) -> None:
    """Refuse (ValueError) a time grid whose period is not the model's nu."""
    if not math.isclose(grid.nu, params.nu, rel_tol=1e-12):
        raise ValueError(f"time grid period {grid.nu:g} is not the model's nu {params.nu:g}")


# ---------------------------------------------------------------------------
# two-body potentials


@dataclass
class TwoBodyPotential:
    """Even, positive-type potential on the lattice, stored per displacement site."""

    geometry: TorusGeometry
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.geometry.n_sites,):
            raise ValueError("need one value per displacement site")

    def fourier_coefficients(self) -> np.ndarray:
        """DFT coefficients v̂(k) = (1/|Λ|) Σ_x v(x) e^{-ik·x}, real for even v."""
        m, d = self.geometry.sites_per_side, self.geometry.dimension
        cube = self.values.reshape((m,) * d)
        return np.real(np.fft.fftn(cube)).ravel() / self.geometry.n_sites

    def matrix(self) -> np.ndarray:
        """(n, n) matrix v(x - y)."""
        return self.values[self.geometry.displacement_table()]

    @property
    def at_origin(self) -> float:
        return float(self.values[0])

    def total(self) -> float:
        """Lattice stand-in for the volume integral of v."""
        return float(self.values.sum())

    def evenness_residual(self) -> float:
        m, d = self.geometry.sites_per_side, self.geometry.dimension
        cube = self.values.reshape((m,) * d)
        flipped = cube[tuple(np.roll(np.arange(m)[::-1], 1) for _ in range(d))]
        return float(np.max(np.abs(cube - flipped)))


class CirclePotential:
    """Periodized even potential on a circle, v(x) = Σ_w g(x + w L_c).

    Periodizing a positive-type function on the line keeps positive type on
    the circle; the Fourier coefficients are samples of the line transform.
    """

    def __init__(self, circumference: float, strength: float = 1.0, width: float = 0.5):
        self.circumference = circumference
        self.strength = strength
        self.width = width

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        L = self.circumference
        x = np.mod(x + 0.5 * L, L) - 0.5 * L
        total = np.zeros_like(x)
        for w in range(-6, 7):
            total += np.exp(-0.5 * ((x + w * L) / self.width) ** 2)
        return self.strength * total

    @property
    def at_origin(self) -> float:
        return float(self(0.0))

    def fourier_coefficients(self, k_max: int = 32) -> np.ndarray:
        """Coefficients on modes k = 0..k_max; all nonnegative for this family."""
        L, s = self.circumference, self.width
        k = np.arange(k_max + 1)
        return self.strength * s * np.sqrt(2 * np.pi) / L * np.exp(-0.5 * (2 * np.pi * k * s / L) ** 2)

    def total(self) -> float:
        """Integral of v over one period."""
        return float(self.strength * self.width * np.sqrt(2 * np.pi))


def delta_potential(geometry: TorusGeometry, strength: float = 1.0) -> TwoBodyPotential:
    """On-site pseudopotential: v(0) = strength, zero elsewhere."""
    values = np.zeros(geometry.n_sites)
    values[0] = strength
    return TwoBodyPotential(geometry, values)


def wrapped_gaussian_potential(geometry: TorusGeometry, strength: float = 1.0,
                               width: float = 1.0) -> TwoBodyPotential:
    """Periodized Gaussian bump on the lattice; positive type by construction."""
    m, d = geometry.sites_per_side, geometry.dimension
    coords = geometry.site_coords()
    values = np.zeros(geometry.n_sites)
    for shifts in itertools.product(range(-3, 4), repeat=d):
        disp = coords + m * np.asarray(shifts)
        values += np.exp(-0.5 * np.sum((disp / width) ** 2, axis=1))
    return TwoBodyPotential(geometry, strength * values)


@dataclass
class PotentialReport:
    passed: bool
    evenness_residual: float
    min_fourier: float
    value_at_origin: float
    offending_modes: list

    def __bool__(self) -> bool:
        return self.passed


FOURIER_TOLERANCE = 1e-12


def validate_potential(v: TwoBodyPotential) -> PotentialReport:
    """Check evenness, positive type and finiteness; reports, never raises."""
    vhat = v.fourier_coefficients()
    even = v.evenness_residual()
    bad = [int(k) for k in np.flatnonzero(vhat < -FOURIER_TOLERANCE)]
    passed = bool(
        even <= 1e-12
        and not bad
        and np.isfinite(v.at_origin)
    )
    return PotentialReport(
        passed=passed,
        evenness_residual=even,
        min_fourier=float(vhat.min()),
        value_at_origin=v.at_origin,
        offending_modes=bad,
    )


# ---------------------------------------------------------------------------
# model parameters


@dataclass
class ModelParams:
    """Physical knobs and their deterministic derived quantities.

    coupling_mode "fixed" keeps lam = lambda0; "meanfield" rescales it to
    lambda0 * nu^2 / (N + 1) so the classical field theory is the nu -> 0 limit.
    Every route reads rho as given; a config's rho_mode = wick is resolved to
    a number before the model is built.
    """

    nu: float
    kappa0: float
    lambda0: float = 0.0
    n_species: float = 1.0
    coupling_mode: str = "fixed"
    rho: float = 0.0

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.kappa0 <= 0:
            raise ValueError("kappa0 must be positive")
        if self.lambda0 < 0:
            raise ValueError("lambda0 must be nonnegative")
        if self.n_species < 0:
            raise ValueError("species number must be nonnegative")
        if self.coupling_mode not in ("fixed", "meanfield"):
            raise ValueError("coupling_mode must be 'fixed' or 'meanfield'")

    @property
    def lam(self) -> float:
        if self.coupling_mode == "meanfield":
            return self.lambda0 * self.nu**2 / (self.n_species + 1.0)
        return self.lambda0
