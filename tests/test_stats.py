import numpy as np
import pytest

from bosegas.stats import (ComplexEstimate, MomentAccumulator, batch_means,
                           mean_estimate, ratio_estimate, weight_ess)


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
    assert est.combined_sigma(12.0) == pytest.approx(13.0)


def test_moment_accumulator_matches_numpy():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((500, 2))
    acc = MomentAccumulator(2).add_samples(x)
    assert np.allclose(acc.mean, x.mean(axis=0))
    assert np.allclose(acc.covariance(), np.cov(x.T), atol=1e-12)
    assert np.allclose(acc.mean_stderr(), x.std(axis=0, ddof=1) / np.sqrt(500))


def test_moment_merge_associative_and_order_free():
    rng = np.random.default_rng(3)
    parts = [rng.standard_normal((n, 2)) + k for k, n in enumerate([100, 37, 263])]
    whole = MomentAccumulator(2).add_samples(np.concatenate(parts))
    accs = [MomentAccumulator(2).add_samples(p) for p in parts]
    left = MomentAccumulator(2)
    for a in accs:
        left.merge(MomentAccumulator.from_dict(a.to_dict()))
    right = MomentAccumulator(2)
    for a in reversed(accs):
        right.merge(a)
    for merged in (left, right):
        assert merged.count == whole.count
        assert np.allclose(merged.mean, whole.mean, atol=1e-12)
        assert np.allclose(merged.m2, whole.m2, atol=1e-9)


def test_moment_dict_round_trip():
    acc = MomentAccumulator(2).add_samples(np.random.default_rng(4).standard_normal((20, 2)))
    back = MomentAccumulator.from_dict(acc.to_dict())
    assert back.count == acc.count
    assert np.allclose(back.m2, acc.m2)
