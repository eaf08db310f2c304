"""Estimate containers: batch-means errors and effective sample size.

Every error bar is made here, and so are the uniforms stratified within its
batches (`_stratified_uniforms`).  `records.merge_chains` pools chains from the
count, value and batch-means error that these estimates report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ComplexEstimate",
    "exact_estimate",
    "mean_estimate",
    "ratio_estimate",
    "batch_layout",
    "MIN_BATCHES",
    "ESS_FLOOR",
]

MIN_BATCHES = 16
ESS_FLOOR = 10.0


@dataclass
class ComplexEstimate:
    """A complex-valued Monte Carlo estimate with componentwise standard errors."""

    value: complex
    stderr_re: float
    stderr_im: float
    n_samples: int
    seed: int | None = None
    ess: float = float("nan")
    unreliable: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def stderr(self) -> float:
        return float(np.hypot(self.stderr_re, self.stderr_im))


def batch_layout(n: int) -> tuple[int, int]:
    """(n_batches, batch_size) of the batch-means partition of n samples.

    min(MIN_BATCHES, n) batches of consecutive samples; the remainder of
    n % n_batches trailing samples belongs to no batch.
    """
    if n <= 0:
        raise ValueError("no samples")
    n_batches = min(MIN_BATCHES, n)
    return n_batches, n // n_batches


def _stratified_uniforms(rng, shape) -> np.ndarray:
    """Uniforms on [0, 1) of the given shape, stratified along the last axis.

    The last axis of length m is cut as `batch_layout(m)`: in each batch of b
    entries, entry j is (perm[j] + U) / b for a random permutation perm of
    0..b-1, drawn afresh per batch and leading index, so the batch holds one
    uniform in each stratum [k / b, (k + 1) / b) and the batches stay
    independent.  The r remainder entries, which no error batch sees, are
    stratified the same way as one block of r.  The loop gas draws its
    windings from these, the auxiliary field its constant mode.
    """
    *lead, m = shape
    n_batches, b = batch_layout(m)
    r = m - n_batches * b

    def strata(block_shape):
        keys = rng.random(block_shape)
        return (np.argsort(keys, axis=-1) + rng.random(block_shape)) / block_shape[-1]

    return np.concatenate([strata((*lead, n_batches, b)).reshape(*lead, m - r),
                           strata((*lead, r))], axis=-1)


def _batches(samples: np.ndarray) -> np.ndarray:
    """Means of the `batch_layout` batches along axis 0, remainder left out."""
    n_batches, size = batch_layout(len(samples))
    return samples[:n_batches * size].reshape(n_batches, size,
                                              *samples.shape[1:]).mean(axis=1)


def _spread(batches: np.ndarray):
    """Standard error of the mean of the batch values, per complex component.

    Zero with fewer than two batches.
    """
    m = len(batches)
    zero = np.zeros(batches.shape[1:])[()]  # a scalar for a 1-D series
    if m < 2:
        return zero, zero
    se_re = np.std(batches.real, axis=0, ddof=1) / np.sqrt(m)
    se_im = (np.std(batches.imag, axis=0, ddof=1) / np.sqrt(m)
             if np.iscomplexobj(batches) else zero)
    return se_re, se_im


def batch_means(samples: np.ndarray):
    """Mean and batch-means standard error (per complex component) along axis 0.

    A stack of shape (n, ...) gets the errors of every trailing entry at once.
    """
    samples = np.asarray(samples)
    se_re, se_im = _spread(_batches(samples))
    return samples.mean(axis=0), se_re, se_im


def weight_ess(weights: np.ndarray) -> float:
    """Effective sample size from the modulus spread of complex weights."""
    a = np.abs(np.asarray(weights))
    denom = np.sum(a * a)
    if denom == 0:
        return 0.0
    return float(np.sum(a) ** 2 / denom)


def exact_estimate(value, n_samples: int, seed=None, extra=None) -> ComplexEstimate:
    """A value known in closed form, as an estimate with zero error.

    Every one of the n_samples counts as effective; `unreliable` stays clear.
    """
    return ComplexEstimate(value=complex(value), stderr_re=0.0, stderr_im=0.0,
                           n_samples=n_samples, seed=seed, ess=float(n_samples),
                           extra=dict(extra or {}))


def mean_estimate(samples: np.ndarray, seed=None) -> ComplexEstimate:
    """Plain-mean estimate of complex samples with batch-means errors."""
    samples = np.asarray(samples, dtype=complex)
    mean, se_re, se_im = batch_means(samples)
    return ComplexEstimate(
        value=complex(mean),
        stderr_re=float(se_re),
        stderr_im=float(se_im),
        n_samples=len(samples),
        seed=seed,
        ess=weight_ess(samples),
        unreliable=False,
    )


def ratio_estimate(numerator: np.ndarray, weights: np.ndarray, seed=None) -> ComplexEstimate:
    """Reweighting ratio E[num]/E[w] with batch-means errors on the batch ratios.

    Batches whose weights average to zero are left out of the error.
    """
    numerator = np.asarray(numerator, dtype=complex)
    weights = np.asarray(weights, dtype=complex)
    if numerator.shape != weights.shape:
        raise ValueError("numerator/weight length mismatch")
    num_b, den_b = _batches(numerator), _batches(weights)
    good = den_b != 0
    se_re, se_im = _spread(num_b[good] / den_b[good])
    ess = weight_ess(weights)
    return ComplexEstimate(
        value=complex(numerator.mean() / weights.mean()),
        stderr_re=float(se_re),
        stderr_im=float(se_im),
        n_samples=len(weights),
        seed=seed,
        ess=ess,
        unreliable=ess < ESS_FLOOR,
    )
