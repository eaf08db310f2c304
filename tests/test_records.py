import configparser
from dataclasses import asdict

import numpy as np
import pytest

from bosegas.records import (SCHEMA_VERSION, ConfigError, ExperimentConfig,
                             ExperimentRecord, MergeError, merge_chains,
                             record_from_estimate)
from bosegas.stats import ComplexEstimate, mean_estimate


def _config(text):
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return ExperimentConfig.from_parser(parser)


def test_defaults_resolve():
    cfg = ExperimentConfig.defaults()
    assert cfg.geometry().n_sites == 1
    assert cfg.model().nu == 1.0
    assert cfg.grid().n_slices == 32
    assert cfg.mc()["chains"] == 1


def test_rho_mode_resolution():
    assert _config("[model]\nrho = 0.3\n").model().rho == 0.3
    with pytest.raises(ConfigError):
        _config("[model]\nrho_mode = guess\n").model()
    with pytest.raises(ConfigError):
        _config("[geometry]\nmode = circle\ncircumference = 4\n"
                "[model]\nrho_mode = wick\n").model()


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        _config("[model]\nnonsense = 1\n")
    with pytest.raises(ConfigError):
        _config("[mystery]\nx = 1\n")
    cfg = ExperimentConfig.defaults()
    with pytest.raises(ConfigError):
        cfg.override("model", "bogus", 3)


def test_bad_values_raise_config_error():
    cfg = _config("[model]\nnu = not-a-number\n")
    with pytest.raises(ConfigError):
        cfg.model()
    cfg = _config("[model]\nkappa0 = -2\n")
    with pytest.raises(ConfigError):
        cfg.model()


def test_partial_section_keeps_other_defaults():
    cfg = _config("[geometry]\nsites_per_side = 2\n")
    assert cfg.geometry().n_sites == 2
    assert cfg.model().kappa0 == 1.0


def _make_record(seed, shift=0.0, n=4096):
    rng = np.random.default_rng(seed)
    x = shift + rng.standard_normal(n) + 1j * rng.standard_normal(n)
    est = mean_estimate(x, seed=seed)
    return record_from_estimate("hs", {"model": {"nu": "1.0"}}, est, 0.01)


def test_record_json_round_trip():
    rec = _make_record(0)
    back = ExperimentRecord.from_json(rec.to_json())
    assert asdict(back) == asdict(rec)
    assert back.schema_version == rec.schema_version


def test_merge_associative():
    recs = [_make_record(s, shift=s * 0.1) for s in range(3)]
    left = merge_chains(merge_chains(recs[0], recs[1]), recs[2])
    right = merge_chains(recs[0], merge_chains(recs[1], recs[2]))
    assert left.estimate_re == pytest.approx(right.estimate_re, abs=1e-12)
    assert left.stderr_re == pytest.approx(right.stderr_re, abs=1e-12)
    assert left.n_samples == right.n_samples == 3 * 4096


def _stream_record(seed, x):
    # a chain whose error is the plain std / sqrt(n) of its stream
    se = np.std(x.real, ddof=1), np.std(x.imag, ddof=1)
    est = ComplexEstimate(value=x.mean(), stderr_re=se[0] / np.sqrt(len(x)),
                          stderr_im=se[1] / np.sqrt(len(x)), n_samples=len(x),
                          seed=seed)
    return record_from_estimate("hs", {}, est, 0.0)


SCHEMA1_LINE = (
    '{"command": "hs", "ess": 480.0, "estimate_im": 0.0, "estimate_re": 0.85, '
    '"extra": {"avg_sign": 1.0}, "moments": {"count": 500, '
    '"m2": [[0.998, 0.0], [0.0, 0.0]], "mean": [0.85, 0.0]}, "n_samples": 500, '
    '"parameters": {}, "schema_version": 1, "seed": 7, "stderr_im": 0.0, '
    '"stderr_re": 0.002, "unreliable": false, "wall_seconds": 0.1}')


def test_schema1_record_still_pools():
    old = ExperimentRecord.from_json(SCHEMA1_LINE)
    assert old.schema_version == 1 and old.n_samples == 500
    new = ExperimentRecord(command="hs", parameters={}, estimate_re=0.85,
                           estimate_im=0.0, stderr_re=0.002, stderr_im=0.0,
                           n_samples=500, ess=480.0, seed=7, unreliable=False,
                           wall_seconds=0.1)
    assert new.schema_version == SCHEMA_VERSION == 2
    assert "moments" not in new.to_json()
    other = _stream_record(8, 0.8 + np.random.default_rng(8).standard_normal(300)
                           + 0j)
    got, want = merge_chains(old, other), merge_chains(new, other)
    assert (got.estimate_re, got.estimate_im, got.stderr_re, got.stderr_im) == (
        want.estimate_re, want.estimate_im, want.stderr_re, want.stderr_im)
    assert got.n_samples == 800


def test_merge_halves_variance():
    a, b = _make_record(1), _make_record(2)
    pooled = merge_chains(a, b)
    avg_se = 0.5 * (a.stderr_re + b.stderr_re)
    # doubling the sample count shrinks the error by about sqrt(2); batch-means
    # vs moment errors differ a little, hence the loose band
    assert pooled.stderr_re == pytest.approx(avg_se / np.sqrt(2), rel=0.2)


def test_merge_rejects_mismatch():
    a = _make_record(1)
    b = _make_record(2)
    b.parameters = {"model": {"nu": "2.0"}}
    with pytest.raises(MergeError):
        merge_chains(a, b)
    with pytest.raises(MergeError):
        merge_chains(a, _make_record(1))  # same seed
    with pytest.raises(MergeError):
        merge_chains()


def test_record_without_samples_still_merges():
    est = mean_estimate(np.full(100, 2.0 + 0.0j), seed=5)
    rec = record_from_estimate("mayer", {}, est, 0.0)
    est2 = mean_estimate(np.full(100, 2.0 + 0.0j), seed=6)
    rec2 = record_from_estimate("mayer", {}, est2, 0.0)
    pooled = merge_chains(rec, rec2)
    assert pooled.estimate_re == pytest.approx(2.0)
    assert pooled.n_samples == 200


def test_merge_pools_only_model_constant_extras():
    # a per-chain figure that happens to agree across chains stays per chain
    a, b = _make_record(1), _make_record(2)
    for rec in (a, b):
        rec.extra.update(contour_shift=-0.13, avg_sign=1.0, raw_stderr=0.0)
    pooled = merge_chains(a, b)
    assert pooled.extra == {"contour_shift": -0.13, "merged_chains": 2}
    assert merge_chains(_make_record(3), _make_record(4)).extra == {"merged_chains": 2}
