import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bosegas
from bosegas.cli import main
from bosegas.records import ExperimentRecord


def test_oracle_default_config(capsys):
    assert main(["oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    # single free site: Xi = 1 / (1 - e^-1)
    assert out["estimate"][0] == pytest.approx(1.581977, abs=1e-5)


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nwhatever = 1\n")
    assert main(["oracle", "--config", str(bad)]) == 2
    missing = tmp_path / "nope.ini"
    assert main(["oracle", "--config", str(missing)]) == 2
    garbled = tmp_path / "garbled.ini"
    garbled.write_text("this is not an ini file")
    assert main(["oracle", "--config", str(garbled)]) == 2


def test_invalid_model_exits_3(tmp_path):
    cfg = tmp_path / "neg.ini"
    cfg.write_text("[model]\nkappa0 = -1\n")
    assert main(["oracle", "--config", str(cfg)]) == 3


def test_capacity_exits_4(tmp_path):
    cfg = tmp_path / "big.ini"
    cfg.write_text("[geometry]\ndimension = 2\nsites_per_side = 2\n"
                   "[truncations]\nn_max = 40\n")
    assert main(["oracle", "--config", str(cfg)]) == 4
    half = tmp_path / "half.ini"
    half.write_text("[model]\nn_species = 1.5\n")
    assert main(["oracle", "--config", str(half)]) == 4


def test_oracle_reads_the_wick_density(tmp_path, capsys):
    from bosegas.fock import xi_exact
    from bosegas.hsfield import wick_rho
    from bosegas.lattice import ModelParams, TorusGeometry, delta_potential

    cfg = tmp_path / "wick.ini"
    cfg.write_text("[geometry]\nsites_per_side = 2\n"
                   "[model]\nlambda0 = 0.5\nrho_mode = wick\n"
                   "[truncations]\nn_max = 12\n")
    out_path = tmp_path / "recs.jsonl"
    assert main(["oracle", "--config", str(cfg), "--out", str(out_path)]) == 0
    geom = TorusGeometry(dimension=1, sites_per_side=2)
    rho = wick_rho(geom, 1.0, 1.0)
    want = xi_exact(ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=rho),
                    geom, delta_potential(geom), n_max=12).xi_rel
    rec = ExperimentRecord.from_json(out_path.read_text())
    assert rec.extra["xi_rel"] == pytest.approx(want, rel=1e-12)
    assert float(rec.parameters["model"]["rho"]) == rho


def test_wick_density_on_the_circle_exits_3(tmp_path):
    cfg = tmp_path / "circle.ini"
    cfg.write_text("[geometry]\nmode = circle\ncircumference = 4\n"
                   "[model]\nlambda0 = 0.5\nrho_mode = wick\n")
    assert main(["loopgas", "--config", str(cfg), "--samples", "10"]) == 3


def test_hs_chains_merge_and_records(tmp_path, capsys):
    cfg = tmp_path / "hs.ini"
    cfg.write_text("[geometry]\nsites_per_side = 2\n"
                   "[model]\nlambda0 = 0.5\n"
                   "[mc]\nsamples = 2000\nchains = 2\nseed = 11\n")
    out_path = tmp_path / "recs.jsonl"
    assert main(["hs", "--config", str(cfg), "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    # two chain records plus the pooled one
    assert len(lines) == 3
    recs = [ExperimentRecord.from_json(t) for t in lines]
    assert {recs[0].seed, recs[1].seed} == {11, 12}
    assert recs[2].n_samples == 4000
    assert recs[2].extra["merged_chains"] == 2
    printed = json.loads(capsys.readouterr().out)
    assert printed["estimate"][0] == pytest.approx(0.8486, abs=0.02)


def test_hs_records_reuse_the_estimate_weights(tmp_path, monkeypatch):
    from bosegas import hsfield
    from bosegas.records import ExperimentConfig

    cfg = tmp_path / "hs.ini"
    cfg.write_text("[geometry]\nsites_per_side = 2\n"
                   "[model]\nlambda0 = 0.5\n"
                   "[mc]\nsamples = 500\nseed = 21\n")
    draws = []
    original = hsfield.sample_sigma

    def counting(*args, **kwargs):
        draws.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hsfield, "sample_sigma", counting)
    out_path = tmp_path / "recs.jsonl"
    assert main(["hs", "--config", str(cfg), "--out", str(out_path),
                 "--chains", "2"]) == 0
    # one field draw per chain: the records reuse the estimator's weights
    assert len(draws) == 2
    monkeypatch.undo()

    conf = ExperimentConfig.from_file(str(cfg))
    geom = conf.geometry()
    recs = [ExperimentRecord.from_json(t)
            for t in out_path.read_text().strip().splitlines()[:2]]
    for rec in recs:
        est = hsfield.estimate_xi_rel(conf.model(), geom, conf.grid(),
                                      conf.potential(geom), 500, seed=rec.seed)
        assert [rec.estimate_re, rec.estimate_im] == pytest.approx(
            [est.value.real, est.value.imag], rel=1e-12, abs=1e-15)
        assert rec.extra["avg_sign"] == est.extra["avg_sign"]


def test_hs_pooled_record_pools_the_chain_estimates(tmp_path):
    # the pooled record merges what each chain's estimate reported: its count,
    # mean and batch-means error
    from bosegas import hsfield
    from bosegas.records import (ExperimentConfig, merge_chains,
                                 record_from_estimate)

    cfg = tmp_path / "hs.ini"
    cfg.write_text("[geometry]\nsites_per_side = 2\n"
                   "[model]\nlambda0 = 0.5\n"
                   "[mc]\nsamples = 500\nseed = 31\n")
    out_path = tmp_path / "recs.jsonl"
    assert main(["hs", "--config", str(cfg), "--out", str(out_path),
                 "--chains", "2"]) == 0
    pooled = ExperimentRecord.from_json(out_path.read_text().strip().splitlines()[-1])
    conf = ExperimentConfig.from_file(str(cfg))
    geom = conf.geometry()
    want = merge_chains(*[
        record_from_estimate("hs", pooled.parameters,
                             hsfield.estimate_xi_rel(conf.model(), geom, conf.grid(),
                                                     conf.potential(geom), 500,
                                                     seed=seed), 0.0)
        for seed in (31, 32)])
    assert pooled.stderr_re == pytest.approx(want.stderr_re, rel=1e-12)
    assert pooled.estimate_re == pytest.approx(want.estimate_re, rel=1e-12)
    assert pooled.n_samples == want.n_samples == 1000


def test_importing_the_cli_leaves_quadrature_unloaded():
    # scipy.integrate, and the scipy.optimize it loads, is imported only by
    # the functions that integrate
    path = [str(Path(bosegas.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import sys, bosegas.cli; print('scipy.integrate' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert run.stdout.strip() == "False"


def test_cli_flag_overrides(capsys):
    assert main(["oracle", "--nmax", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    want = sum(np.exp(-n) for n in range(6))
    assert out["estimate"][0] == pytest.approx(want, abs=1e-10)


def test_cli_reruns_are_deterministic(tmp_path):
    cfg = tmp_path / "hs.ini"
    cfg.write_text("[geometry]\nsites_per_side = 2\n"
                   "[model]\nlambda0 = 0.5\n"
                   "[mc]\nsamples = 500\nseed = 3\n")
    outs = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.jsonl"
        assert main(["hs", "--config", str(cfg), "--out", str(path)]) == 0
        rec = ExperimentRecord.from_json(path.read_text().strip())
        outs.append(rec.deterministic_view())
    assert outs[0] == outs[1]


def test_limit_command_csv(tmp_path, capsys):
    cfg = tmp_path / "lim.ini"
    cfg.write_text("[model]\nlambda0 = 0.5\nkappa0 = 1.0\n"
                   "[mc]\nsamples = 4000\nseed = 0\n"
                   "[limit]\nkind = meanfield\nnu_list = 0.5,0.25\n")
    out_path = tmp_path / "sweep.csv"
    assert main(["limit", "--config", str(cfg), "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["parameter", "discrepancy",
                                   "discrepancy_stderr", "n_samples"]
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 0.5
    # the parameters the sweep ran, beside the CSV
    ran = json.loads((tmp_path / "sweep.csv.json").read_text())
    assert ran["kind"] == "meanfield"
    assert ran["parameters"]["limit"]["nu_list"] == "0.5,0.25"
    assert ran["parameters"]["model"]["lambda0"] == "0.5"
    assert ran["parameters"]["mc"]["samples"] == "4000"


def test_validate_command(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("model, named", [
    ("[geometry]\nsites_per_side = 3\n[model]\nrho = 0.7\nn_species = 3\n", "site, not 3"),
    ("[model]\nn_species = 2\n", "n_species = 1, not 2"),
    ("[model]\nrho = 0.7\n", "rho = 0.7"),
], ids=["found", "species", "rho"])
def test_meanfield_limit_rejects_values_it_would_drop(tmp_path, capsys, model, named):
    # the sweep runs one site, one species and the Wick density at each nu
    cfg = tmp_path / "lim.ini"
    cfg.write_text(model + "[mc]\nsamples = 200\n"
                   "[limit]\nkind = meanfield\nnu_list = 0.5,0.25\n")
    assert main(["limit", "--config", str(cfg)]) == 3
    assert named in capsys.readouterr().err


def test_classical_limit_rejects_nonzero_rho(tmp_path, capsys):
    cfg = tmp_path / "lim.ini"
    cfg.write_text("[model]\nlambda0 = 0.5\nrho = 0.3\n[mc]\nsamples = 64\n"
                   "[truncations]\nn_max = 3\nl_max = 3\n"
                   "[limit]\nkind = classical\nnu_list = 0.4,0.2\n")
    assert main(["limit", "--config", str(cfg)]) == 3
    assert "rho = 0.3" in capsys.readouterr().err


def test_hs_records_carry_the_contour_shift(tmp_path):
    from bosegas.hsfield import contour_shift
    from bosegas.records import ExperimentConfig

    cfg = tmp_path / "hs.ini"
    cfg.write_text("[geometry]\nsites_per_side = 2\n"
                   "[model]\nlambda0 = 0.5\n"
                   "[mc]\nsamples = 200\nchains = 2\nseed = 5\n")
    out_path = tmp_path / "recs.jsonl"
    assert main(["hs", "--config", str(cfg), "--out", str(out_path)]) == 0
    recs = [ExperimentRecord.from_json(t)
            for t in out_path.read_text().strip().splitlines()]
    conf = ExperimentConfig.from_file(str(cfg))
    geom = conf.geometry()
    want = contour_shift(conf.model(), geom, conf.potential(geom))
    # both chains and the pooled record; per-chain figures stay per chain
    assert [r.extra["contour_shift"] for r in recs] == [want] * 3
    assert want < 0.0 and "mean_abs_weight" not in recs[2].extra
    # real weights: the imaginary moments vanish exactly
    for rec in recs:
        assert rec.estimate_im == 0.0 and rec.stderr_im == 0.0


def test_classical_limit_runs_at_zero_coupling(tmp_path, capsys):
    # the defaults have lambda0 = 0, where the loop gas takes its closed form
    cfg = tmp_path / "lim.ini"
    cfg.write_text("[geometry]\nmode = circle\ncircumference = 4.0\n"
                   "[limit]\nkind = classical\nnu_list = 0.4,0.2\n")
    out_path = tmp_path / "sweep.csv"
    assert main(["limit", "--config", str(cfg), "--out", str(out_path)]) == 0
    assert "classical sweep" in capsys.readouterr().out
    assert len(out_path.read_text().strip().splitlines()) == 3


def test_classical_limit_refuses_a_lattice(tmp_path, capsys):
    # a lattice loop returns with probability near 1, so its activity
    # schedule has no classical limit
    cfg = tmp_path / "lim.ini"
    cfg.write_text("[limit]\nkind = classical\nnu_list = 0.4,0.2\n")
    assert main(["limit", "--config", str(cfg)]) == 3
    assert "lattice geometry" in capsys.readouterr().err


def test_largen_limit_needs_two_species_numbers(tmp_path, capsys):
    cfg = tmp_path / "lim.ini"
    cfg.write_text("[geometry]\nsites_per_side = 2\n"
                   "[model]\nlambda0 = 0.25\nrho_mode = wick\n"
                   "[mc]\nsamples = 64\n"
                   "[limit]\nkind = largen\nn_list = 16\n")
    assert main(["limit", "--config", str(cfg)]) == 3
    assert "at least two N values" in capsys.readouterr().err


def test_largen_limit_defaults_report_the_judged_extrapolation(tmp_path, capsys):
    # the default n_list leaves N = 4, with its 1/N^2 term, out of the
    # extrapolated pair
    cfg = tmp_path / "lim.ini"
    cfg.write_text("[geometry]\nsites_per_side = 2\n"
                   "[model]\nlambda0 = 0.25\nrho_mode = wick\n"
                   "[mc]\nsamples = 512\n"
                   "[limit]\nkind = largen\n")
    assert main(["limit", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "final_ok=True" in out
    assert "1/N-extrapolated discrepancy" in out


def test_field_records_carry_the_control_variate(tmp_path):
    cfg = tmp_path / "field.ini"
    cfg.write_text("[model]\nlambda0 = 0.5\n[mc]\nsamples = 2000\n")
    out_path = tmp_path / "recs.jsonl"
    assert main(["field", "--config", str(cfg), "--out", str(out_path)]) == 0
    rec = ExperimentRecord.from_json(out_path.read_text())
    assert rec.extra["gauss_mean"] == pytest.approx(2.0 / 5.0**0.5, rel=1e-12)
    assert rec.extra["weights_stderr"] > rec.stderr_re > 0


def test_field_non_integer_species_past_two_sites_exits_3(tmp_path):
    cfg = tmp_path / "half.ini"
    cfg.write_text("[geometry]\nsites_per_side = 3\n"
                   "[model]\nlambda0 = 0.5\nn_species = 0.5\n")
    assert main(["field", "--config", str(cfg), "--samples", "10"]) == 3
