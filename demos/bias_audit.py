"""Pool many seeds of each estimate against its exact referee.

A per-point test at 4 sigma sees a bias only once it is near an error bar;
the pooled offset mean(x - exact) over S seeds, with its error sd(x) /
sqrt(S) from the spread of the estimates, sees one of about 4 / sqrt(S)
error bars.  The mean of z = (x - exact) / stderr is not that statistic: an
estimate's error correlates with its own quoted error, which pulls the mean
z of an unbiased HS row to about -0.03.  Each quoted error comes from 16
batch means, so honest errors give z the t law with 15 degrees of freedom,
sd sqrt(15 / 13) = 1.07.

Rows, at N 1 and (kappa0, lambda0) = (1, 0.5) and (0.5, 2):

- `estimate_xi_rel` (2000 fields) against `xi_exact`, and
  `estimate_duhamel` G(0.25, 0; 0, 1) (2000 fields) against
  `duhamel_exact`, on 2 sites at n_tau 32;
- the Gibbs chain's <|phi|^2> (`sample_gibbs_field`, 1000 steps, the
  `mean_estimate` of its samples) and `z_via_eta`'s z_rel (4000 samples)
  against `field_quadrature_1site`, on 1 site.

For each row it prints the pooled offset with its error, sd z, max |z|,
corr(error, quoted error) and the fraction of estimates flagged
`unreliable`, and it writes all rows as one JSON record.

    PYTHONPATH=src python demos/bias_audit.py --seeds 30 --out bias_audit.json

CI runs 30 seeds per row; run the default 300 by hand before claiming a
change to any of these estimators.  Exits 1 when a row's |offset| exceeds 4
of its errors or its sd z lies outside [0.7, 1.5].
"""

import argparse
import json
import sys

import numpy as np

from bosegas.fock import duhamel_exact, xi_exact
from bosegas.hsfield import estimate_duhamel, estimate_xi_rel
from bosegas.lattice import ModelParams, TimeGrid, TorusGeometry, delta_potential
from bosegas.meanfield import field_quadrature_1site, sample_gibbs_field, z_via_eta
from bosegas.stats import mean_estimate

T15_SD = np.sqrt(15 / 13)
OFFSET_ERRORS = 4.0
SD_Z_RANGE = (0.7, 1.5)
N_MAX = 24
TAU = 0.25
SAMPLES = 2000
GIBBS_STEPS = 1000
ETA_SAMPLES = 4000

GEOM = TorusGeometry(dimension=1, sites_per_side=2)
V = delta_potential(GEOM)
GRID = TimeGrid(nu=1.0, n_slices=32)
SITE = TorusGeometry(dimension=1, sites_per_side=1)
V_SITE = delta_potential(SITE)
POINTS = [(1.0, 0.5), (0.5, 2.0)]


def gibbs_phi2(p: ModelParams, seed: int):
    """<|phi|^2> of one Gibbs chain on one site, with its batch-means error."""
    chain = sample_gibbs_field(p, SITE, V_SITE, GIBBS_STEPS, seed=seed)
    return mean_estimate(np.sum(np.abs(chain.samples) ** 2, axis=(1, 2)), seed=seed)


def rows():
    """(route, point, exact value, estimate of one seed) for every audited row."""
    for kappa0, lambda0 in POINTS:
        p = ModelParams(nu=1.0, kappa0=kappa0, lambda0=lambda0)
        yield ("HS xi_rel", p, xi_exact(p, GEOM, V, n_max=N_MAX).xi_rel,
               lambda s, p=p: estimate_xi_rel(p, GEOM, GRID, V, SAMPLES, seed=s))
        yield (f"HS G({TAU}, 0; 0, 1)", p, duhamel_exact(p, GEOM, V, N_MAX, TAU, 0, 0.0, 1),
               lambda s, p=p: estimate_duhamel(p, GEOM, GRID, V, 0, 1, tau=TAU,
                                               n_samples=SAMPLES, seed=s))
        quadrature = field_quadrature_1site(p, V_SITE)
        yield ("Gibbs |phi|^2", p, quadrature["phi2"],
               lambda s, p=p: gibbs_phi2(p, s))
        yield ("eta z_rel", p, quadrature["z_rel"],
               lambda s, p=p: z_via_eta(p, SITE, V_SITE, ETA_SAMPLES, seed=s))


def audit(route, p, exact, estimate, seeds: int) -> dict:
    ests = [estimate(s) for s in range(seeds)]
    errors = np.array([e.value.real for e in ests]) - exact
    quoted = np.array([e.stderr for e in ests])
    z = errors / quoted
    sd = float(z.std(ddof=1))
    row = {"route": route, "kappa0": p.kappa0, "lambda0": p.lambda0, "exact": float(exact),
           "offset": float(errors.mean()),
           "offset_err": float(errors.std(ddof=1) / np.sqrt(seeds)), "sd_z": sd,
           "max_abs_z": float(np.abs(z).max()),
           "corr_error_quoted": float(np.corrcoef(errors, quoted)[0, 1]),
           "flagged_frac": float(np.mean([e.unreliable for e in ests]))}
    row["ok"] = bool(abs(row["offset"]) <= OFFSET_ERRORS * row["offset_err"]
                     and SD_Z_RANGE[0] <= sd <= SD_Z_RANGE[1])
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=300, help="seeds 0..S-1 per row")
    ap.add_argument("--out", default="bias_audit.json", help="JSON record path")
    args = ap.parse_args(argv)
    if args.seeds < 2:
        ap.error("need at least 2 seeds for a spread")

    print(f"HS: 2 sites, n_tau {GRID.n_slices}, {SAMPLES} fields; Gibbs: 1 site, "
          f"{GIBBS_STEPS} steps; eta: 1 site, {ETA_SAMPLES} samples; seeds "
          f"0-{args.seeds - 1}; an unbiased row has offset 0 and sd z {T15_SD:.2f} (t_15)")
    results = []
    for route, p, exact, estimate in rows():
        row = audit(route, p, exact, estimate, args.seeds)
        results.append(row)
        print(f"  {route:<20} ({p.kappa0:g}, {p.lambda0:g})  "
              f"offset {row['offset']:+.2e} +- {row['offset_err']:.2e}  "
              f"sd z {row['sd_z']:.2f}  max |z| {row['max_abs_z']:.1f}  "
              f"corr {row['corr_error_quoted']:+.2f}  "
              f"flagged {row['flagged_frac']:.3f}  {'ok' if row['ok'] else 'FAIL'}")
    passed = all(r["ok"] for r in results)
    record = {"kind": "bias_audit", "n_tau": GRID.n_slices, "n_species": 1.0,
              "samples": SAMPLES, "gibbs_steps": GIBBS_STEPS, "eta_samples": ETA_SAMPLES,
              "seeds": args.seeds,
              "t15_sd": float(T15_SD), "offset_errors": OFFSET_ERRORS,
              "sd_z_range": list(SD_Z_RANGE), "rows": results, "passed": passed}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"record written to {args.out}; {'all rows pass' if passed else 'a row failed'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
