import numpy as np
import pytest

from bosegas.records import merge_chains, record_from_estimate
from bosegas.stats import (ComplexEstimate, batch_means, mean_estimate,
                           ratio_estimate, weight_ess)


def test_batch_means_constant_series():
    mean, se_re, se_im = batch_means(np.full(64, 3.0))
    assert mean == 3.0 and se_re == 0.0 and se_im == 0.0


def test_batch_means_coverage():
    # empirical stderr should match sigma/sqrt(n) within 5 standard errors
    rng = np.random.default_rng(0)
    trials = 200
    n = 1600
    devs = []
    for _ in range(trials):
        x = rng.standard_normal(n)
        mean, se, _ = batch_means(x)
        devs.append(mean / se)
    # standardized means should look standard normal
    assert abs(np.mean(devs)) < 5 / np.sqrt(trials)
    assert abs(np.std(devs) - 1.0) < 5 * np.sqrt(1.0 / (2 * trials)) + 0.1


def test_weight_ess():
    assert weight_ess(np.ones(50)) == pytest.approx(50.0)
    w = np.zeros(50)
    w[0] = 1.0
    assert weight_ess(w) == pytest.approx(1.0)
    assert weight_ess(np.zeros(3)) == 0.0


def test_mean_estimate_complex():
    rng = np.random.default_rng(1)
    x = 2.0 + 0.5j + 0.1 * (rng.standard_normal(4096) + 1j * rng.standard_normal(4096))
    est = mean_estimate(x, seed=7)
    assert abs(est.value - (2.0 + 0.5j)) < 5 * est.stderr
    assert est.seed == 7 and est.n_samples == 4096


def test_ratio_estimate_exact_for_constant_weights():
    num = np.arange(32, dtype=float)
    est = ratio_estimate(num, np.full(32, 2.0))
    assert est.value == pytest.approx(num.mean() / 2.0)
    assert not est.unreliable


def test_ratio_estimate_flags_low_ess():
    w = np.zeros(100, dtype=complex)
    w[0] = 1.0
    est = ratio_estimate(np.ones(100, dtype=complex), w)
    assert est.unreliable


def test_empty_input_raises_no_samples():
    for call in (lambda: batch_means(np.array([])),
                 lambda: mean_estimate(np.array([])),
                 lambda: ratio_estimate(np.array([]), np.array([]))):
        with pytest.raises(ValueError, match="no samples"):
            call()


def test_complex_estimate_helpers():
    est = ComplexEstimate(value=1.0, stderr_re=3.0, stderr_im=4.0, n_samples=10)
    assert est.stderr == pytest.approx(5.0)


def _plain_chain(seed, x):
    # a chain record whose error is the plain std / sqrt(n) of its stream
    se = np.std(x.real, ddof=1), np.std(x.imag, ddof=1)
    est = ComplexEstimate(value=x.mean(), stderr_re=se[0] / np.sqrt(len(x)),
                          stderr_im=se[1] / np.sqrt(len(x)), n_samples=len(x),
                          seed=seed)
    return record_from_estimate("hs", {}, est, 0.0)


def _assert_pools_to(pooled, whole):
    assert pooled.n_samples == len(whole)
    assert [pooled.estimate_re, pooled.estimate_im] == pytest.approx(
        [whole.mean().real, whole.mean().imag], rel=1e-12)
    assert [pooled.stderr_re, pooled.stderr_im] == pytest.approx(
        [np.std(c, ddof=1) / np.sqrt(len(whole))
         for c in (whole.real, whole.imag)], rel=1e-12)


def test_moment_accumulator_matches_numpy():
    # pooling chains from count, value and error gives numpy's mean and
    # std / sqrt(N) of the concatenated stream
    rng = np.random.default_rng(2)
    x = rng.standard_normal((500, 2)) @ np.array([1.0, 1j])
    _assert_pools_to(merge_chains(_plain_chain(0, x)), x)
    cuts = np.split(x, [120, 122, 380])
    _assert_pools_to(merge_chains(*[_plain_chain(s, c)
                                    for s, c in enumerate(cuts)]), x)


def test_moment_merge_associative_and_order_free():
    rng = np.random.default_rng(3)
    parts = [k + rng.standard_normal(n) + 1j * (rng.standard_normal(n) - k)
             for k, n in enumerate([100, 37, 263])]
    recs = [_plain_chain(s, x) for s, x in enumerate(parts)]
    whole = np.concatenate(parts)
    for pooled in (merge_chains(*recs), merge_chains(*reversed(recs)),
                   merge_chains(merge_chains(recs[0], recs[1]), recs[2]),
                   merge_chains(recs[2], merge_chains(recs[1], recs[0]))):
        _assert_pools_to(pooled, whole)
