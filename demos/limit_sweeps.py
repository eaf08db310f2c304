"""Drive the three limiting regimes and watch the discrepancies shrink.

1. classical particles: loops at shrinking period nu, activity held at
   e^{-kappa nu} nu^{-1/2} = z, against the classical point gas on a circle
   (trapezoid rule, at most 5 particles);
2. mean field: nu * gamma_1 with coupling lambda0 nu^2 / (N+1) against the
   deterministic radial field integral;
3. large N: gamma_1 at growing species number against the free gas at the
   auxiliary field's contour-shifted fugacity, judged on the 1/N
   extrapolation of the last three points.

Exits 1 when any sweep's verdict (monotone decrease and final tolerance)
is False.
"""

import sys

from bosegas.hsfield import wick_rho
from bosegas.lattice import (CirclePotential, ModelParams, TimeGrid,
                             TorusGeometry, delta_potential)
from bosegas.limits import classical_limit_sweep, largeN_check, meanfield_sweep


def show(title, sweep):
    print(title)
    for p, d, e in zip(sweep.parameters, sweep.discrepancies, sweep.errors):
        print(f"  {sweep.parameter_name} = {p:<8g} discrepancy {d:.5f} "
              f"+- {e:.5f}")
    if sweep.final_discrepancy is not None:
        print(f"  final discrepancy {sweep.final_discrepancy:.5f}")
    print(f"  monotone decrease: {sweep.monotone_decreasing}, "
          f"final within tolerance {sweep.final_tolerance:.4g}: {sweep.final_ok}")
    print()
    return sweep.verdict


circle = TorusGeometry(dimension=1, mode="circle", circumference=4.0)
v_circle = CirclePotential(4.0, strength=1.0, width=0.5)
g2 = TorusGeometry(dimension=1, sites_per_side=2)
params = ModelParams(nu=1.0, kappa0=1.0, lambda0=0.25,
                     rho=wick_rho(g2, 1.0, 1.0))
verdicts = [
    show("classical particle limit (circle, z = 0.5, lambda0 = 0.5)",
         classical_limit_sweep(0.5, 0.5, [0.4, 0.2, 0.1, 0.05], circle,
                               v_circle, samples=4096, seed=1)),
    show("mean-field limit (single site, lambda0 = 0.5, kappa0 = 1)",
         meanfield_sweep(0.5, 1.0, [0.5, 0.25, 0.125, 0.0625],
                         samples=40_000, seed=0)),
    show("large-N limit (two sites, lambda0 = 0.25, Wick density)",
         largeN_check(params, g2, TimeGrid(nu=1.0, n_slices=32),
                      delta_potential(g2), [4, 16, 64], samples=512, seed=0)),
]
sys.exit(0 if all(verdicts) else 1)
