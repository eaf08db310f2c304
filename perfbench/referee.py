"""Referee checks that every benchmark job result must pass.

A check compares one job output with an exact value (Fock trace, closed
form, quadrature) or a bound that holds for every sample (damping, effective
sample size).  Checks only read numbers; they never call into bosegas, so a
traced run records no spans for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A stochastic estimate may sit this many of its own standard errors away
# from its referee.  Batch-means errors over 16 batches follow a t law with
# 15 degrees of freedom, for which P(|t| > 6) is about 2e-5 per job.
SIGMA_BOUND = 6.0

# Effective sample size must stay above this share of the samples drawn.
ESS_FRAC_FLOOR = 0.05

# Batches for the benchmark's own batch-means errors, as in bosegas.stats.
N_BATCHES = 16

# Relative slack for a deterministic result against its closed form; the
# references are truncated traces, exact up to rounding.
EXACT_REL_TOL = 1e-10


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def finite(*values) -> Check:
    ok = all(np.all(np.isfinite(v)) for v in values)
    return Check("finite", bool(ok), "values " + ", ".join(f"{v}" for v in values))


def within_sigma(name: str, value, reference, sigma: float,
                 allowance: float = 0.0) -> Check:
    """|value - reference| <= SIGMA_BOUND * sigma + allowance, sigma positive.

    value may be complex: the distance then includes the imaginary part and
    sigma should be the combined standard error.
    """
    dev = abs(value - reference)
    tol = SIGMA_BOUND * sigma + allowance
    ok = math.isfinite(dev) and math.isfinite(sigma) and sigma > 0 and dev <= tol
    return Check(name, bool(ok),
                 f"estimate {value:.6g} vs reference {reference:.6g}: deviation "
                 f"{dev:.3g}, allowed {tol:.3g} ({SIGMA_BOUND:g} x stderr {sigma:.3g}"
                 f" + {allowance:.3g})")


def at_most(name: str, value: float, bound: float) -> Check:
    return Check(name, bool(value <= bound), f"{value:.6g} <= {bound:.6g}")


def exact(name: str, value, reference, rel_tol: float = EXACT_REL_TOL) -> Check:
    dev = float(np.max(np.abs(np.asarray(value) - np.asarray(reference))))
    scale = float(np.max(np.abs(reference)))
    return Check(name, bool(dev <= rel_tol * scale),
                 f"max deviation {dev:.3g} vs {rel_tol:g} x {scale:.6g}")


def flag_clear(name: str, flag: bool) -> Check:
    return Check(name, not flag, f"{name} = {flag}")


def ess_floor(ess: float, n_samples: int, unreliable: bool) -> Check:
    """The package's own reliability flag is clear and ESS/n clears the floor."""
    frac = ess / n_samples
    return Check("ess_floor", bool(not unreliable and frac >= ESS_FRAC_FLOOR),
                 f"ess/n {frac:.4f} (floor {ESS_FRAC_FLOOR}), unreliable={unreliable}")


def batch_stderr(series: np.ndarray) -> float:
    """Standard error of the mean of a correlated series, by batch means."""
    series = np.asarray(series, dtype=float)
    usable = len(series) - len(series) % N_BATCHES
    means = series[:usable].reshape(N_BATCHES, -1).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(N_BATCHES))
