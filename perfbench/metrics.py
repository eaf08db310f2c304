"""Metric names, units and the arithmetic that turns job records into metrics."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "samples_per_s": "1/s",
    "tts_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "propagators.self_s": "s",
    "propagators.monodromy_flops": "flop",
    "propagators.monodromy_bytes": "B",
    "hsfield.self_s": "s",
    "hsfield.fields": "count",
    "hsfield.avg_sign": "ratio",
    "hsfield.ess_frac": "ratio",
    "loopgas.self_s": "s",
    "loopgas.loops": "count",
    "loopgas.ess_frac": "ratio",
    "lattice.self_s": "s",
    "lattice.potential_evals": "count",
    "lattice.laplacian_builds": "count",
    "mayer.self_s": "s",
    "mayer.graph_products": "count",
    "fock.self_s": "s",
    "fock.build_s": "s",
    "fock.hamiltonians_built": "count",
    "fock.basis_states": "count",
    "meanfield.self_s": "s",
    "meanfield.field_action_calls": "count",
    "meanfield.acceptance": "ratio",
    "cli.self_s": "s",
    "cli.resampled_fields": "count",
    "records.self_s": "s",
    "records.bytes_written": "B",
    "stats.self_s": "s",
    "limits.self_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass(frozen=True)
class JobRecord:
    job: int
    kind: str
    seed: int
    seconds: float          # at nominal host speed, see speed.py
    raw_seconds: float      # as measured
    samples: int
    stderr: float | None
    failures: tuple         # failed referee checks


def tts_by_kind(jobs, targets: dict) -> dict:
    """Per stochastic kind: mean job time x pooled stderr^2 / target^2."""
    by_kind = defaultdict(list)
    for j in jobs:
        if j.stderr is not None:
            by_kind[j.kind].append(j)
    return {kind: float(np.mean([j.seconds for j in js])
                        * np.mean([j.stderr ** 2 for j in js]) / targets[kind] ** 2)
            for kind, js in by_kind.items()}


def end_to_end(jobs, setup_samples, peak_rss_mb: float, targets: dict) -> dict:
    times = np.array([j.seconds for j in jobs])
    return {
        "setup_s": float(np.median(setup_samples)),
        "job_p50_s": float(np.percentile(times, 50)),
        "job_p90_s": float(np.percentile(times, 90)),
        "samples_per_s": float(sum(j.samples for j in jobs) / times.sum()),
        "tts_s": sum(tts_by_kind(jobs, targets).values()),
        "peak_rss_mb": float(peak_rss_mb),
    }


def with_units(values: dict, units: dict) -> dict:
    """{name: {"value", "unit"}} in the order of `units`; every name must be present."""
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
