"""The benchmark workloads: parameter points, exact references and job cycles.

Each workload is a closed loop: one process runs one job at a time, cycling
through a fixed list of job kinds.  A job is one call (or one command line)
into bosegas; its referee runs after the clock stops.  Every call goes
through a module attribute (`hsfield.estimate_xi_rel`, never a name imported
from the module) so that a traced run sees it.

A cycle repeats kinds so that the median and the 90th percentile of job
latency each fall inside one group of similar jobs, not on the edge between
two groups, where they would jump from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from bosegas import cli, fock, hsfield, limits, loopgas, mayer, meanfield
from bosegas.lattice import (CirclePotential, ModelParams, TimeGrid,
                             TorusGeometry, delta_potential)

from . import referee as R

# Target standard error per stochastic job kind, for the time-to-target
# metric tts_s: mean job time x pooled stderr^2 / target^2, summed over kinds.
# The targets put each kind's share of the sum near its share of the jobs,
# so that no rarely-run kind dominates the sum.
TARGET_ERR = {
    "xi2": 1e-3, "duh2": 8.5e-4, "xi27": 5.7e-3, "duh27": 1.4e-3, "cli_hs": 2.3e-3,
    "series2": 1e-3, "lgduh2": 2e-3, "mayer3": 1e-3, "ursell5": 3e-7,
    "circle": 9e-4, "gibbs": 2.5e-2, "cli_field": 1.4e-4,
}

FOCK_NMAX = 20          # 2-site oracle cutoff, truncation drift ~1e-9
TAU, TAU_P = 0.25, 0.0  # unequal-time Duhamel point, both on the slice grid


@dataclass(frozen=True)
class Outcome:
    samples: int            # Monte Carlo samples, as the estimator counts them
    stderr: float | None    # its standard error, None for exact jobs
    checks: tuple


@dataclass(frozen=True)
class Kind:
    name: str
    point: str                      # parameter point, named in failure reports
    run: Callable                   # (ctx, seed) -> raw output; the timed job
    judge: Callable                 # (ctx, raw) -> Outcome; the referee


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable                 # (scratch dir) -> ctx of inputs and references
    cycle: tuple                    # job kinds, in the order one cycle runs them


# ---------------------------------------------------------------------------
# shared inputs, references and command-line helpers


def _bench_params(lambda0: float = 0.5) -> ModelParams:
    return ModelParams(nu=1.0, kappa0=1.0, lambda0=lambda0)


def _torus(dim: int, m: int):
    g = TorusGeometry(dimension=dim, sites_per_side=m)
    return g, delta_potential(g)


def _two_site(ctx):
    """The 2-site benchmark (nu=1, kappa0=1, lambda0=0.5, n_tau=32) and its traces."""
    ctx.params = _bench_params()
    ctx.grid = TimeGrid(nu=1.0, n_slices=32)
    ctx.g2, ctx.v2 = _torus(1, 2)
    ctx.xi2 = fock.xi_exact(ctx.params, ctx.g2, ctx.v2, n_max=FOCK_NMAX)
    ctx.duh2 = fock.duhamel_exact(ctx.params, ctx.g2, ctx.v2, FOCK_NMAX,
                                  TAU, 0, TAU_P, 1)


def _fock_allowance(ctx) -> float:
    return ctx.xi2.truncation_drift * ctx.xi2.xi_rel


def _estimate_outcome(est, *checks) -> Outcome:
    return Outcome(samples=est.n_samples, stderr=est.stderr,
                   checks=(R.finite(est.value, est.stderr), *checks))


def _write_ini(path: Path, sections: dict):
    lines = []
    for sec, vals in sections.items():
        lines.append(f"[{sec}]")
        lines += [f"{k} = {v}" for k, v in vals.items()]
    path.write_text("\n".join(lines) + "\n")


def _cli(argv) -> tuple:
    """Run the command line in-process; returns (exit code, its stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def _printed(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _exit_ok(code) -> R.Check:
    return R.Check("exit_code", code == 0, f"exit code {code}")


POINT1 = "1 site, nu=1, kappa0=1, lambda0=0.5"
POINT2 = "2-site torus, nu=1, kappa0=1, lambda0=0.5, n_tau=32"
POINT27 = "3^3 torus, nu=1, kappa0=1, lambda0=0.5, n_tau=32"

# ---------------------------------------------------------------------------
# aux_field: the auxiliary-field route on 2 and 27 sites, from the library
# and from the command line (which re-draws the weight stream for its records)

XI2_SAMPLES, DUH2_SAMPLES = 2000, 2000
XI27_SAMPLES, DUH27_SAMPLES = 500, 500
HS_SAMPLES, HS_CHAINS = 4000, 2


def _aux_setup(scratch: Path):
    ctx = SimpleNamespace()
    _two_site(ctx)
    ctx.g27, ctx.v27 = _torus(3, 3)
    scratch.mkdir(parents=True, exist_ok=True)
    ctx.hs_ini = scratch / "hs.ini"
    _write_ini(ctx.hs_ini, {
        "geometry": {"dimension": 1, "sites_per_side": 2},
        "model": {"nu": 1.0, "kappa0": 1.0, "lambda0": 0.5},
        "grid": {"n_tau": 32},
        "mc": {"samples": HS_SAMPLES, "chains": HS_CHAINS}})
    ctx.hs_out = scratch / "hs.jsonl"
    return ctx


def _judge_xi2(ctx, est) -> Outcome:
    return _estimate_outcome(
        est, R.ess_floor(est.ess, est.n_samples, est.unreliable),
        R.within_sigma("fock_trace", est.value, ctx.xi2.xi_rel, est.stderr,
                       _fock_allowance(ctx)),
        R.at_most("damping_mean_abs_weight", est.extra["mean_abs_weight"], 1.0 + 1e-12))


def _judge_duh2(ctx, est) -> Outcome:
    return _estimate_outcome(
        est, R.ess_floor(est.ess, est.n_samples, est.unreliable),
        R.within_sigma("fock_duhamel", est.value, ctx.duh2, est.stderr))


def _judge_xi27(ctx, est) -> Outcome:
    return _estimate_outcome(
        est, R.ess_floor(est.ess, est.n_samples, est.unreliable),
        R.at_most("damping_mean_abs_weight", est.extra["mean_abs_weight"], 1.0 + 1e-12),
        R.at_most("damping_xi_rel", est.value.real,
                  1.0 + R.SIGMA_BOUND * est.stderr_re))


def _judge_duh27(ctx, est) -> Outcome:
    return _estimate_outcome(est, R.ess_floor(est.ess, est.n_samples, est.unreliable))


def _run_hs(ctx, seed):
    ctx.hs_out.unlink(missing_ok=True)
    code, text = _cli(["hs", "--config", ctx.hs_ini, "--out", ctx.hs_out,
                       "--seed", seed])
    return code, text, seed


def _judge_hs(ctx, raw) -> Outcome:
    code, text, seed = raw
    if code != 0:
        return Outcome(0, None, (_exit_ok(code),))
    out = _printed(text)
    value = complex(*out["estimate"])
    stderr = math.hypot(*out["stderr"])
    recs = [json.loads(line) for line in ctx.hs_out.read_text().splitlines()]
    merged = recs[-1]
    chains_ok = (len(recs) == HS_CHAINS + 1
                 and sorted(r["seed"] for r in recs[:-1]) == [seed, seed + 1]
                 and merged["n_samples"] == HS_CHAINS * HS_SAMPLES
                 and merged["extra"].get("merged_chains") == HS_CHAINS)
    return Outcome(samples=HS_CHAINS * HS_SAMPLES, stderr=stderr, checks=(
        _exit_ok(code), R.finite(value, stderr),
        R.flag_clear("unreliable", out["unreliable"]),
        R.within_sigma("fock_trace", value, ctx.xi2.xi_rel, stderr,
                       _fock_allowance(ctx)),
        R.Check("chain_merge", chains_ok,
                f"{len(recs)} records, seeds {[r['seed'] for r in recs]}, "
                f"merged n {merged['n_samples']}")))


XI2 = Kind("xi2", f"estimate_xi_rel, {POINT2}, {XI2_SAMPLES} fields",
           lambda c, s: hsfield.estimate_xi_rel(c.params, c.g2, c.grid, c.v2,
                                                XI2_SAMPLES, seed=s),
           _judge_xi2)
DUH2 = Kind("duh2", f"estimate_duhamel G({TAU},0;{TAU_P},1), {POINT2}, "
            f"{DUH2_SAMPLES} fields",
            lambda c, s: hsfield.estimate_duhamel(c.params, c.g2, c.grid, c.v2, 0, 1,
                                                  TAU, TAU_P, DUH2_SAMPLES, seed=s),
            _judge_duh2)
XI27 = Kind("xi27", f"estimate_xi_rel, {POINT27}, {XI27_SAMPLES} fields",
            lambda c, s: hsfield.estimate_xi_rel(c.params, c.g27, c.grid, c.v27,
                                                 XI27_SAMPLES, seed=s),
            _judge_xi27)
DUH27 = Kind("duh27", f"estimate_duhamel G({TAU},0;{TAU_P},1), {POINT27}, "
             f"{DUH27_SAMPLES} fields",
             lambda c, s: hsfield.estimate_duhamel(c.params, c.g27, c.grid, c.v27, 0, 1,
                                                   TAU, TAU_P, DUH27_SAMPLES, seed=s),
             _judge_duh27)
CLI_HS = Kind("cli_hs", f"bosegas hs --chains {HS_CHAINS} --out, {POINT2}, "
              f"{HS_SAMPLES} fields per chain", _run_hs, _judge_hs)

# ---------------------------------------------------------------------------
# loop_field: loop-gas and cluster-expansion routes on the lattice and the
# circle, the classical field, and the exact oracle from the command line

SERIES2_SAMPLES, LGDUH2_SAMPLES = 400, 400
MAYER3_SAMPLES, URSELL5_SAMPLES = 1000, 500
LOOP_NMAX, LOOP_LMAX = 6, 6
MAYER_ORDERS = 3
# Three cluster orders leave a truncation remainder; the package's own
# acceptance criterion allows 1 % of ln Xi_rel for it.
MAYER_TRUNCATION_REL = 0.01

CIRCLE_L, CIRCLE_NU, CIRCLE_Z, CIRCLE_LAMBDA0 = 4.0, 0.4, 0.5, 0.5
CIRCLE_NMAX, CIRCLE_LMAX, CIRCLE_SAMPLES = 4, 5, 768
# At nu = 0.4 the loop gas is not yet at the classical limit; the sweep's
# final tolerance (5 % relative) bounds the remaining discrepancy.
CLASSICAL_REL_TOL = 0.05

FIELD_SAMPLES = 4000
GIBBS_STEPS = 1000
ORACLE_NMAX = 10
EXACT_NMAX = 20
# A truncated free trace differs from the untruncated closed form by the
# weight of states above the cutoff, about 1e-9 at EXACT_NMAX on 2 sites.
FREE_TRUNCATION_TOL = 1e-7


def _truncated_free_trace(geom, nu: float, kappa0: float, n_max: int) -> float:
    """Sum over total occupation N <= n_max of h_N(x_k), x_k = e^{-nu(kappa0 - l_k/2)}."""
    lap_evals = np.linalg.eigvalsh(geom.laplacian_matrix())
    coeffs = np.zeros(n_max + 1)
    coeffs[0] = 1.0
    for x in np.exp(-nu * (kappa0 - 0.5 * lap_evals)):
        powers = x ** np.arange(n_max + 1)
        coeffs = np.array([coeffs[:j + 1] @ powers[j::-1] for j in range(n_max + 1)])
    return float(coeffs.sum())


def _free_one_body(geom, nu: float, kappa0: float, s: float):
    """Closed forms <b_x^dag b_x'> and G(s, x; 0, x') of the free gas, s > 0."""
    evals, evecs = np.linalg.eigh(-0.5 * geom.laplacian_matrix()
                                  + kappa0 * np.eye(geom.n_sites))
    occ = 1.0 / np.expm1(nu * evals)
    gamma1 = (evecs * occ) @ evecs.T
    duhamel = (evecs * (np.exp(-s * evals) / -np.expm1(-nu * evals))) @ evecs.T
    return gamma1, duhamel


def _loop_setup(scratch: Path):
    ctx = SimpleNamespace()
    _two_site(ctx)
    ctx.log_xi2 = math.log(ctx.xi2.xi_rel)
    ctx.circle = TorusGeometry(dimension=1, mode="circle", circumference=CIRCLE_L)
    ctx.vc = CirclePotential(CIRCLE_L, strength=1.0, width=0.5)
    kappa = limits.activity_to_kappa(CIRCLE_Z, CIRCLE_NU, 1)
    ctx.pc = ModelParams(nu=CIRCLE_NU, kappa0=kappa, lambda0=CIRCLE_LAMBDA0)
    ctx.gc = TimeGrid(nu=CIRCLE_NU, n_slices=max(4, round(CIRCLE_NU / 0.025)))
    z_eff = CIRCLE_Z * (2.0 * math.pi) ** -0.5
    ctx.classical = limits.classical_xi(z_eff, CIRCLE_LAMBDA0, 1.0, ctx.circle,
                                        ctx.vc, CIRCLE_NMAX)

    scratch.mkdir(parents=True, exist_ok=True)
    ctx.oracle_ini = scratch / "oracle.ini"
    _write_ini(ctx.oracle_ini, {
        "geometry": {"dimension": 2, "sites_per_side": 2},
        "model": {"nu": 1.0, "kappa0": 1.0, "lambda0": 0.0}})
    g22, _ = _torus(2, 2)
    ctx.oracle_xi = _truncated_free_trace(g22, 1.0, 1.0, ORACLE_NMAX)
    ctx.field_ini = scratch / "field.ini"
    _write_ini(ctx.field_ini, {
        "geometry": {"dimension": 1, "sites_per_side": 1},
        "model": {"nu": 1.0, "kappa0": 1.0, "lambda0": 0.5},
        "mc": {"samples": FIELD_SAMPLES}})
    ctx.g1, ctx.v1 = _torus(1, 1)
    ctx.quadrature = meanfield.field_quadrature_1site(ctx.params, ctx.v1)
    ctx.free = _bench_params(0.0)
    ctx.free_gamma1, free_duh = _free_one_body(ctx.g2, 1.0, 1.0, TAU - TAU_P)
    ctx.free_duh = free_duh[0, 1]
    return ctx


def _judge_series2(ctx, est) -> Outcome:
    return _estimate_outcome(
        est, R.ess_floor(est.ess, est.n_samples, est.unreliable),
        R.flag_clear("truncation_flag", est.extra["truncation_flag"]),
        R.within_sigma("fock_trace", est.value, ctx.xi2.xi_rel, est.stderr,
                       _fock_allowance(ctx)))


def _judge_lgduh2(ctx, est) -> Outcome:
    return _estimate_outcome(
        est, R.ess_floor(est.ess, est.n_samples, est.unreliable),
        R.within_sigma("fock_duhamel", est.value, ctx.duh2, est.stderr))


def _judge_mayer3(ctx, est) -> Outcome:
    return _estimate_outcome(
        est, R.within_sigma("fock_log_trace", est.value, ctx.log_xi2, est.stderr,
                            MAYER_TRUNCATION_REL * abs(ctx.log_xi2)))


def _judge_ursell5(ctx, res) -> Outcome:
    # UrsellResult carries no ESS; its tree-bound diagnostic stands in.
    return Outcome(samples=res.n_samples, stderr=res.stderr, checks=(
        R.finite(res.value, res.stderr),
        R.Check("stderr_positive", bool(res.stderr > 0), f"stderr {res.stderr:.3g}"),
        R.at_most("tree_bound", res.tree_bound_max, 1.0 + 1e-12)))


def _judge_circle(ctx, est) -> Outcome:
    raw, raw_se = est.extra["raw_value"], est.extra["raw_stderr"]
    ref = ctx.classical["value"]
    return _estimate_outcome(
        est, R.ess_floor(est.ess, est.n_samples, est.unreliable),
        R.flag_clear("truncation_flag", est.extra["truncation_flag"]),
        R.within_sigma("classical_limit", raw, ref, raw_se, CLASSICAL_REL_TOL * ref))


def _judge_oracle(ctx, raw) -> Outcome:
    code, text = raw
    checks = [_exit_ok(code)]
    if code == 0:
        checks.append(R.exact("free_trace_closed_form", _printed(text)["estimate"][0],
                              ctx.oracle_xi))
    return Outcome(0, None, tuple(checks))


def _judge_field(ctx, raw) -> Outcome:
    code, text = raw
    if code != 0:
        return Outcome(0, None, (_exit_ok(code),))
    out = _printed(text)
    value = complex(*out["estimate"])
    stderr = math.hypot(*out["stderr"])
    return Outcome(samples=FIELD_SAMPLES, stderr=stderr, checks=(
        _exit_ok(code), R.finite(value, stderr),
        R.flag_clear("unreliable", out["unreliable"]),
        R.within_sigma("quadrature_z_rel", value, ctx.quadrature["z_rel"], stderr)))


def _judge_gibbs(ctx, chain) -> Outcome:
    phi2 = np.sum(np.abs(chain.samples) ** 2, axis=(1, 2))
    mean, se = float(phi2.mean()), R.batch_stderr(phi2)
    steps = max(200, GIBBS_STEPS // 5) + GIBBS_STEPS  # burn-in + kept steps
    return Outcome(samples=steps, stderr=se, checks=(
        R.finite(mean, se), R.flag_clear("tuning_failed", chain.tuning_failed),
        R.within_sigma("quadrature_phi2", mean, ctx.quadrature["phi2"], se)))


def _judge_exact(ctx, raw) -> Outcome:
    gamma1, duh = raw
    return Outcome(0, None, (
        R.exact("free_gamma1_closed_form", gamma1, ctx.free_gamma1, FREE_TRUNCATION_TOL),
        R.exact("free_duhamel_closed_form", duh, ctx.free_duh, FREE_TRUNCATION_TOL)))


SERIES2 = Kind("series2", f"xi_rel_series n_max={LOOP_NMAX} l_max={LOOP_LMAX}, "
               f"{POINT2}, {SERIES2_SAMPLES} samples",
               lambda c, s: loopgas.xi_rel_series(c.params, c.g2, c.grid, c.v2,
                                                  LOOP_NMAX, LOOP_LMAX,
                                                  SERIES2_SAMPLES, seed=s),
               _judge_series2)
LGDUH2 = Kind("lgduh2", f"duhamel_loopgas G({TAU},0;{TAU_P},1) n_max={LOOP_NMAX} "
              f"l_max={LOOP_LMAX}, {POINT2}, {LGDUH2_SAMPLES} samples",
              lambda c, s: loopgas.duhamel_loopgas(c.params, c.g2, c.grid, c.v2,
                                                   TAU, 0, TAU_P, 1, LOOP_NMAX,
                                                   LOOP_LMAX, LGDUH2_SAMPLES, seed=s),
              _judge_lgduh2)
MAYER3 = Kind("mayer3", f"log_xi_rel_partial {MAYER_ORDERS} orders l_max={LOOP_LMAX}, "
              f"{POINT2}, {MAYER3_SAMPLES} samples",
              lambda c, s: mayer.log_xi_rel_partial(c.params, c.g2, c.grid, c.v2,
                                                    MAYER_ORDERS, LOOP_LMAX,
                                                    MAYER3_SAMPLES, seed=s),
              _judge_mayer3)
URSELL5 = Kind("ursell5", f"ursell_coefficient(5) l_max={LOOP_LMAX}, {POINT2}, "
               f"{URSELL5_SAMPLES} samples",
               lambda c, s: mayer.ursell_coefficient(5, c.params, c.g2, c.grid, c.v2,
                                                     LOOP_LMAX, URSELL5_SAMPLES, seed=s),
               _judge_ursell5)
CIRCLE = Kind("circle", f"xi_rel_series on circle L={CIRCLE_L}, nu={CIRCLE_NU}, "
              f"z={CIRCLE_Z}, lambda0={CIRCLE_LAMBDA0}, n_max={CIRCLE_NMAX} "
              f"l_max={CIRCLE_LMAX}, {CIRCLE_SAMPLES} samples",
              lambda c, s: loopgas.xi_rel_series(c.pc, c.circle, c.gc, c.vc,
                                                 CIRCLE_NMAX, CIRCLE_LMAX,
                                                 CIRCLE_SAMPLES, seed=s),
              _judge_circle)
CLI_ORACLE = Kind("cli_oracle", f"bosegas oracle --nmax {ORACLE_NMAX}, 2x2 torus, "
                  "nu=1, kappa0=1, lambda0=0",
                  lambda c, s: _cli(["oracle", "--config", c.oracle_ini,
                                     "--nmax", ORACLE_NMAX]),
                  _judge_oracle)
CLI_FIELD = Kind("cli_field", f"bosegas field, {POINT1}, {FIELD_SAMPLES} samples",
                 lambda c, s: _cli(["field", "--config", c.field_ini, "--seed", s]),
                 _judge_field)
GIBBS = Kind("gibbs", f"sample_gibbs_field, {POINT1}, {GIBBS_STEPS} steps",
             lambda c, s: meanfield.sample_gibbs_field(c.params, c.g1, c.v1,
                                                       GIBBS_STEPS, seed=s),
             _judge_gibbs)
EXACT = Kind("exact", f"gamma1_exact + duhamel_exact G({TAU},0;{TAU_P},1), 2-site "
             f"torus, nu=1, kappa0=1, lambda0=0, n_max={EXACT_NMAX}",
             lambda c, s: (fock.gamma1_exact(c.free, c.g2, c.v2, EXACT_NMAX),
                           fock.duhamel_exact(c.free, c.g2, c.v2, EXACT_NMAX,
                                              TAU, 0, TAU_P, 1)),
             _judge_exact)

WORKLOADS = {w.name: w for w in (
    # 2-site jobs (10 of 14) hold the median; the 90th percentile falls among
    # the 27-site and command-line jobs at the top.
    Workload("aux_field",
             _aux_setup,
             (XI2, DUH2, CLI_HS, XI2, DUH2, DUH27, XI2, DUH2, XI27, XI2, DUH2,
              CLI_HS, XI2, DUH2)),
    # Five 0.1-0.2 s kinds around the median; three circle jobs at the top.
    Workload("loop_field",
             _loop_setup,
             (CLI_FIELD, SERIES2, CIRCLE, EXACT, LGDUH2, CIRCLE, URSELL5, GIBBS,
              CIRCLE, MAYER3, CLI_ORACLE)),
)}
