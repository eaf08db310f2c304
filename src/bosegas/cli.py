"""Command-line orchestration: run experiments, persist records, validate.

Commands
    oracle   exact truncated-trace partition function
    hs       auxiliary-field estimate of Xi_rel
    loopgas  loop-gas series estimate of Xi_rel
    mayer    cluster-expansion partial sum of ln Xi_rel
    field    classical-field partition function via the eta representation
    limit    one of the limit sweeps (classical / meanfield / largen); --out
             writes the CSV and, beside it as <out>.json, the kind, the
             resolved parameters and what the sweep set in their place
             ("ran": the capped n_max of classical, the Wick rho at each nu
             of meanfield)
    validate cross-route invariant suite

Exit codes: 0 success (possibly with statistically flagged records),
2 config parse error, 3 validation error, 4 capacity error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import fock, hsfield, limits, loopgas, mayer, meanfield
from .lattice import CapacityError, TimeGrid
from .records import (ConfigError, ExperimentConfig, merge_chains,
                      record_from_estimate)
from .stats import exact_estimate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CAPACITY = 4


def _resolved_parameters(cfg: ExperimentConfig) -> dict:
    """The config's sections, with model.rho the number every route reads."""
    resolved = {sec: dict(vals) for sec, vals in cfg.raw.items()}
    resolved["model"]["rho"] = repr(cfg.model().rho)
    return resolved


def _estimate(command, cfg, chain_seed):
    """The estimate of one chain of the given command."""
    geom = cfg.geometry()
    params = cfg.model()
    grid = cfg.grid()
    v = cfg.potential(geom)
    mc = cfg.mc()
    trunc = cfg.truncations()
    if command == "oracle":
        res = fock.xi_exact(params, geom, v, n_max=trunc["n_max"])
        est = exact_estimate(res.xi, 1, seed=chain_seed,
                             extra={"xi_rel": res.xi_rel,
                                    "truncation_drift": res.truncation_drift})
        est.unreliable = res.drift_warning
        return est
    if command == "hs":
        return hsfield.estimate_xi_rel(params, geom, grid, v,
                                       n_samples=mc["samples"], seed=chain_seed)
    if command == "loopgas":
        return loopgas.xi_rel_series(params, geom, grid, v, trunc["n_max"],
                                     trunc["l_max"], mc["samples"], seed=chain_seed)
    if command == "mayer":
        return mayer.log_xi_rel_partial(params, geom, grid, v,
                                        min(trunc["n_max"], mayer.MAX_CLUSTER),
                                        trunc["l_max"], mc["samples"], seed=chain_seed)
    if command == "field":
        return meanfield.z_via_eta(params, geom, v, mc["samples"], seed=chain_seed)
    raise ConfigError(f"unknown command {command!r}")


def _run_limit(cfg: ExperimentConfig, out_path):
    kind = cfg.raw["limit"]["kind"]
    geom = cfg.geometry()
    params = cfg.model()
    v = cfg.potential(geom)
    mc = cfg.mc()
    trunc = cfg.truncations()
    # each sweep fixes part of the model itself: a config value it would drop
    # is an error, not a silent default; what it sets instead is recorded
    ran = {}
    if kind == "classical":
        if params.rho != 0.0:
            raise ConfigError("limit kind = classical runs at rho = 0, "
                              f"not rho = {params.rho:g}")
        if geom.mode != "circle":
            raise ConfigError("limit kind = classical runs on the circle, where loops "
                              "have a classical limit, not a lattice geometry")
        ran["n_max"] = min(trunc["n_max"], limits.MAX_PARTICLES)
        sweep = limits.classical_limit_sweep(
            float(cfg.raw["limit"]["z"]), params.lambda0,
            cfg.float_list("limit", "nu_list"), geom, v,
            n_species=params.n_species, n_max=ran["n_max"],
            l_max=trunc["l_max"], samples=mc["samples"], seed=mc["seed"])
    elif kind == "meanfield":
        if geom.mode != "lattice":
            raise ConfigError("limit kind = meanfield runs on one lattice site, not the circle")
        if geom.n_sites != 1:
            raise ConfigError("limit kind = meanfield runs on one lattice site, "
                              f"not {geom.n_sites} sites")
        if params.n_species != 1.0:
            raise ConfigError("limit kind = meanfield runs n_species = 1, "
                              f"not {params.n_species:g}")
        if cfg.raw["model"]["rho_mode"] == "explicit" and params.rho != 0.0:
            raise ConfigError("limit kind = meanfield uses the Wick density at each nu, "
                              f"not rho = {params.rho:g}")
        sweep = limits.meanfield_sweep(params.lambda0, params.kappa0,
                                       cfg.float_list("limit", "nu_list"),
                                       samples=mc["samples"], seed=mc["seed"])
        ran["rho"] = [point["rho"] for point in sweep.extra["points"]]
    elif kind == "largen":
        grid = cfg.grid()
        sweep = limits.largeN_check(params, geom, grid, v,
                                    [int(x) for x in cfg.float_list("limit", "n_list")],
                                    samples=mc["samples"], seed=mc["seed"])
    else:
        raise ConfigError(f"unknown limit kind {kind!r}")
    if out_path:
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter", "discrepancy", "discrepancy_stderr",
                             "n_samples"])
            for p, d, e in zip(sweep.parameters, sweep.discrepancies,
                               sweep.errors):
                writer.writerow([p, d, e, mc["samples"]])
        with open(f"{out_path}.json", "w") as fh:
            json.dump({"kind": kind, "parameters": _resolved_parameters(cfg), "ran": ran},
                      fh, indent=1)
    print(f"{kind} sweep: discrepancies "
          + ", ".join(f"{d:.5f}" for d in sweep.discrepancies)
          + f" | monotone={sweep.monotone_decreasing} final_ok={sweep.final_ok}")
    if kind == "largen":
        print(f"1/N-extrapolated discrepancy {sweep.extra['extrapolated']:+.5f} "
              f"+- {sweep.extra['extrapolated_stderr']:.5f}, "
              f"final_ok needs |.| < {sweep.final_tolerance:.5f}")
    return EXIT_OK


def _run_validate(cfg: ExperimentConfig) -> int:
    from .lattice import (ModelParams, TorusGeometry, delta_potential,
                          validate_potential)
    from .propagators import free_green, ideal_occupation, monodromy_batch

    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))

    g2 = TorusGeometry(dimension=1, sites_per_side=2)
    v2 = delta_potential(g2)
    grid = TimeGrid(nu=1.0, n_slices=16)
    p0 = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.0)
    p = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5)

    check("potential positive type", bool(validate_potential(v2)))

    e0 = hsfield.estimate_xi_rel(p0, g2, grid, v2, 256)
    l0 = loopgas.xi_rel_series(p0, g2, grid, v2, 4, 20, 16)
    check("ideal-gas Xi_rel exact", e0.value == 1.0 and abs(l0.value - 1.0) < 1e-12)

    fg = free_green(g2, 1.0, 1.0)
    d0 = hsfield.estimate_duhamel(p0, g2, grid, v2, 0, 1, n_samples=16)
    check("ideal-gas gamma1 matches free Green",
          abs(d0.value - fg[0, 1]) < 1e-12)

    rng = np.random.default_rng(0)
    sigma = hsfield.sample_sigma(p, g2, grid, v2, 200, rng)
    gam = monodromy_batch(g2, grid, sigma)
    dvals = hsfield._log_det_ratio(g2, 1.0, 1.0, gam)
    check("Re(-D) <= 0 on all samples", bool(np.all(-dvals.real <= 1e-12)))

    g1 = TorusGeometry(dimension=1, sites_per_side=1)
    pf = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5, rho=0.3)  # rho: Im S counts
    field = meanfield.z_via_eta(pf, g1, delta_potential(g1), 4000, seed=1)
    want = meanfield.field_quadrature_1site(pf, delta_potential(g1))["z_rel"]
    z = (field.value.real - want) / field.stderr
    check("eta route matches one-site field quadrature", abs(z) < 4,
          f"{field.value.real:.5f} vs {want:.5f}, z = {z:.2f}")

    oracle = fock.xi_exact(p, g2, v2, n_max=14)
    hs = hsfield.estimate_xi_rel(p, g2, grid, v2, 20000, seed=1)
    sig = max(hs.stderr, 1e-12)
    check("auxiliary field matches exact trace",
          abs(hs.value.real - oracle.xi_rel) < 3 * sig,
          f"{hs.value.real:.5f} vs {oracle.xi_rel:.5f}")

    want = fock.duhamel_exact(p, g2, v2, 14, 0.25, 0, 0.0, 1)
    duh = hsfield.estimate_duhamel(p, g2, grid, v2, 0, 1, tau=0.25, n_samples=4000, seed=1)
    z = abs(duh.value.real - want) / duh.stderr
    check("auxiliary-field G(0.25; 0, 1) matches exact Duhamel", z < 4,
          f"{duh.value.real:.5f} vs {want:.5f}, z = {z:.2f}")

    loops = loopgas.xi_rel_series(p, g2, grid, v2, 6, 8, 2000, seed=1)
    gap = abs(loops.value.real - oracle.xi_rel)
    check("loop gas matches exact trace",
          gap < 4 * loops.stderr + loops.extra["winding_tail"],
          f"{loops.value.real:.5f} vs {oracle.xi_rel:.5f}, z = {gap / loops.stderr:.2f}")

    # free modes decay as e^{-l} and e^{-3l}: b_1 = -log(1 - e^-1) - log(1 - e^-3)
    b1 = mayer.ursell_coefficient(1, p0, g2, grid, v2, 60, 64)
    q = -np.log1p(-np.exp(-1.0)) - np.log1p(-np.exp(-3.0))
    check("first cluster equals single-loop activity", abs(b1.value - q) < 1e-12,
          f"{b1.value:.12f} vs {q:.12f}")

    ph = ModelParams(nu=1.0, kappa0=1.0, lambda0=1.0, rho=0.3)
    c = hsfield.contour_shift(ph, g2, v2)
    gap = abs(c + ph.lam * v2.total() * (ideal_occupation(g2, 1.0, 1.0 - c) - ph.rho))
    check("contour shift solves the Hartree equation", gap < 1e-10,
          f"c = {c:.6f}, residual {gap:.1e}")

    # the oracle's own annihilator: [b, b^dag] = 1 below the cutoff, and the
    # top state carries the truncation artifact -n_max
    b = fock.OccupationBasis(TorusGeometry(dimension=1), 1, 6).annihilator(0)
    comm = (b @ b.T - b.T @ b).diagonal()
    check("commutator exact below cutoff",
          np.max(np.abs(comm[:-1] - 1.0)) < 1e-12 and abs(comm[-1] + 6.0) < 1e-12)

    return EXIT_OK if all(checks) else EXIT_VALIDATION


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bosegas",
        description="equilibrium observables of an interacting Bose gas "
                    "by independent routes")
    parser.add_argument("command", choices=["oracle", "hs", "loopgas", "mayer",
                                            "field", "limit", "validate"])
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--out", help="output path (JSON records / CSV sweeps)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--chains", type=int)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--nmax", type=int)
    parser.add_argument("--lmax", type=int)
    parser.add_argument("--ntau", type=int)
    args = parser.parse_args(argv)

    try:
        cfg = (ExperimentConfig.from_file(args.config) if args.config
               else ExperimentConfig.defaults())
        for section, key, val in [("mc", "seed", args.seed),
                                  ("mc", "chains", args.chains),
                                  ("mc", "samples", args.samples),
                                  ("truncations", "n_max", args.nmax),
                                  ("truncations", "l_max", args.lmax),
                                  ("grid", "n_tau", args.ntau)]:
            if val is not None:
                cfg.override(section, key, val)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        if args.command == "validate":
            return _run_validate(cfg)
        if args.command == "limit":
            return _run_limit(cfg, args.out)
        mc = cfg.mc()
        params = _resolved_parameters(cfg)
        recs = []
        for chain in range(mc["chains"]):
            t0 = time.perf_counter()
            est = _estimate(args.command, cfg, mc["seed"] + chain)
            recs.append(record_from_estimate(args.command, params, est,
                                             time.perf_counter() - t0))
        final = merge_chains(*recs) if len(recs) > 1 else recs[0]
        print(json.dumps({"command": final.command,
                          "estimate": [final.estimate_re, final.estimate_im],
                          "stderr": [final.stderr_re, final.stderr_im],
                          "n": final.n_samples, "ess": final.ess,
                          "unreliable": final.unreliable}))
        if args.out:
            with open(args.out, "a") as fh:
                for r in recs:
                    fh.write(r.to_json() + "\n")
                if len(recs) > 1:
                    fh.write(final.to_json() + "\n")
        return EXIT_OK
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
