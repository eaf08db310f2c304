"""Pool many seeds of each auxiliary-field estimate against the exact trace.

A per-point test at 4 sigma sees a bias only once it is near an error bar;
the mean of z = (estimate - exact) / stderr over S seeds sees one of about
4 / sqrt(S) error bars.  Each quoted error comes from 16 batch means, so an
unbiased route with honest errors gives z the t law with 15 degrees of
freedom: mean 0 and sd sqrt(15 / 13) = 1.07.

Rows: `estimate_xi_rel` against `xi_exact`, and `estimate_duhamel`
G(0.25, 0; 0, 1) against `duhamel_exact`, on 2 sites at n_tau 32 and N 1,
at (kappa0, lambda0) = (1, 0.5) and (0.5, 2).  For each row it prints mean z
with its error, sd z, max |z| and the fraction of estimates flagged
`unreliable`, and it writes all rows as one JSON record.

    PYTHONPATH=src python demos/bias_audit.py --seeds 30 --out bias_audit.json

CI runs 30 seeds per row; run the default 300 by hand before claiming a
change to either estimator.  Exits 1 when a row's |mean z| exceeds 4 of its
errors or its sd z lies outside [0.7, 1.5].
"""

import argparse
import json
import sys

import numpy as np

from bosegas.fock import duhamel_exact, xi_exact
from bosegas.hsfield import estimate_duhamel, estimate_xi_rel
from bosegas.lattice import ModelParams, TimeGrid, TorusGeometry, delta_potential

T15_SD = np.sqrt(15 / 13)
MEAN_Z_ERRORS = 4.0
SD_Z_RANGE = (0.7, 1.5)
N_MAX = 24
TAU = 0.25
SAMPLES = 2000

GEOM = TorusGeometry(dimension=1, sites_per_side=2)
V = delta_potential(GEOM)
GRID = TimeGrid(nu=1.0, n_slices=32)
POINTS = [(1.0, 0.5), (0.5, 2.0)]


def rows():
    """(route, point, exact value, estimate of one seed) for every audited row."""
    for kappa0, lambda0 in POINTS:
        p = ModelParams(nu=1.0, kappa0=kappa0, lambda0=lambda0)
        yield ("HS xi_rel", p, xi_exact(p, GEOM, V, n_max=N_MAX).xi_rel,
               lambda s, p=p: estimate_xi_rel(p, GEOM, GRID, V, SAMPLES, seed=s))
        yield (f"HS G({TAU}, 0; 0, 1)", p, duhamel_exact(p, GEOM, V, N_MAX, TAU, 0, 0.0, 1),
               lambda s, p=p: estimate_duhamel(p, GEOM, GRID, V, 0, 1, tau=TAU,
                                               n_samples=SAMPLES, seed=s))


def audit(route, p, exact, estimate, seeds: int) -> dict:
    ests = [estimate(s) for s in range(seeds)]
    z = np.array([(e.value.real - exact) / e.stderr for e in ests])
    sd = float(z.std(ddof=1))
    row = {"route": route, "kappa0": p.kappa0, "lambda0": p.lambda0, "exact": float(exact),
           "mean_z": float(z.mean()), "mean_z_err": sd / np.sqrt(seeds), "sd_z": sd,
           "max_abs_z": float(np.abs(z).max()),
           "flagged_frac": float(np.mean([e.unreliable for e in ests]))}
    row["ok"] = bool(abs(row["mean_z"]) <= MEAN_Z_ERRORS * row["mean_z_err"]
                     and SD_Z_RANGE[0] <= sd <= SD_Z_RANGE[1])
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=300, help="seeds 0..S-1 per row")
    ap.add_argument("--out", default="bias_audit.json", help="JSON record path")
    args = ap.parse_args(argv)
    if args.seeds < 2:
        ap.error("need at least 2 seeds for a spread")

    print(f"2 sites, n_tau {GRID.n_slices}, {SAMPLES} fields, seeds 0-{args.seeds - 1}; "
          f"an unbiased row has mean z 0 and sd z {T15_SD:.2f} (t_15)")
    results = []
    for route, p, exact, estimate in rows():
        row = audit(route, p, exact, estimate, args.seeds)
        results.append(row)
        print(f"  {route:<20} ({p.kappa0:g}, {p.lambda0:g})  "
              f"mean z {row['mean_z']:+.3f} +- {row['mean_z_err']:.3f}  "
              f"sd z {row['sd_z']:.2f}  max |z| {row['max_abs_z']:.1f}  "
              f"flagged {row['flagged_frac']:.3f}  {'ok' if row['ok'] else 'FAIL'}")
    passed = all(r["ok"] for r in results)
    record = {"kind": "bias_audit", "geometry": "2 sites", "n_tau": GRID.n_slices,
              "n_species": 1.0, "samples": SAMPLES, "seeds": args.seeds,
              "t15_sd": float(T15_SD), "mean_z_errors": MEAN_Z_ERRORS,
              "sd_z_range": list(SD_Z_RANGE), "rows": results, "passed": passed}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"record written to {args.out}; {'all rows pass' if passed else 'a row failed'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
