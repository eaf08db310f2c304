"""Tests of the benchmark harness itself (not of bosegas).

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics, referee, tracing  # noqa: E402
from perfbench.tracing import Span  # noqa: E402


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_on_synthetic_span_tree():
    # hsfield 1..9 calls propagators 2..5 and stats 6..7, which calls stats
    # 6.25..6.75; a second job calls stats directly at 12..13.
    spans = [
        Span("hsfield.estimate_xi_rel", "hsfield", 1.0, 9.0, -1, "0"),
        Span("propagators.monodromy_batch", "propagators", 2.0, 5.0, 0, "0"),
        Span("stats.mean_estimate", "stats", 6.0, 7.0, 0, "0"),
        Span("stats.batch_means", "stats", 6.25, 6.75, 2, "0"),
        Span("stats.mean_estimate", "stats", 12.0, 13.0, -1, "1"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs["hsfield"] == pytest.approx(8.0 - 3.0 - 1.0)
    assert selfs["propagators"] == pytest.approx(3.0)
    # nested stats spans: 1.0 - 0.5 outer + 0.5 inner + 1.0 second root
    assert selfs["stats"] == pytest.approx(2.0)
    assert sum(selfs.values()) == pytest.approx(8.0 + 1.0)


def test_self_time_clips_overlapping_children():
    spans = [
        Span("a.f", "a", 0.0, 4.0, -1, "0"),
        Span("b.g", "b", 1.0, 3.0, 0, "0"),
        Span("b.h", "b", 2.0, 5.0, 0, "0"),  # overlaps its sibling, ends late
    ]
    assert tracing.self_times(spans)["a"] == pytest.approx(1.0)


def test_connected_graph_counts():
    assert [tracing.connected_graphs(n) for n in range(1, 7)] == [1, 1, 4, 38, 728, 26704]


def test_referee_flags_estimate_shifted_by_many_sigma():
    ref, sigma = 0.8486, 0.003
    assert referee.within_sigma("fock_trace", ref + 2 * sigma, ref, sigma).ok
    shifted = referee.within_sigma("fock_trace", ref + 10 * sigma, ref, sigma)
    assert not shifted.ok
    assert "deviation" in shifted.detail
    complex_shift = referee.within_sigma("fock_trace", complex(ref, 8 * sigma), ref, sigma)
    assert not complex_shift.ok
    # a zero or non-finite error bar can never pass a sigma check
    assert not referee.within_sigma("fock_trace", ref, ref, 0.0).ok
    assert not referee.within_sigma("fock_trace", float("nan"), ref, sigma).ok


def test_referee_bounds_and_flags():
    assert referee.at_most("damping", 0.99, 1.0).ok
    assert not referee.at_most("damping", 1.01, 1.0).ok
    assert not referee.flag_clear("truncation_flag", True).ok
    assert not referee.ess_floor(10.0, 1000, False).ok
    assert not referee.ess_floor(900.0, 1000, True).ok
    assert referee.exact("closed_form", 1.0 + 1e-12, 1.0).ok
    assert not referee.exact("closed_form", 1.0 + 1e-6, 1.0).ok


def test_metric_names_and_units_match_benchmark_json():
    bench = _bench_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER


def test_printed_metrics_cover_exactly_the_declared_names():
    jobs = [metrics.JobRecord(i, "xi2" if i % 2 else "exact", i, 0.1 + 0.01 * i,
                              0.2 + 0.01 * i, 100 if i % 2 else 0,
                              0.01 if i % 2 else None, ())
            for i in range(20)]
    e2e = metrics.with_units(
        metrics.end_to_end(jobs, [1.0, 1.2, 1.1], 100.0, {"xi2": 1e-3}),
        metrics.END_TO_END)
    assert list(e2e) == [m["name"] for m in _bench_json()["end_to_end"]]
    assert all(v["value"] > 0 for v in e2e.values())

    layer = tracing.Tracer().layer_metrics()
    layer["trace.overhead_frac"] = 0.0
    printed = metrics.with_units(layer, metrics.PER_LAYER)
    assert set(printed) == set(layer)
    assert list(printed) == [m["name"] for m in _bench_json()["per_layer"]]


def test_workload_names_match_benchmark_json():
    from perfbench import workloads

    assert [w["name"] for w in _bench_json()["workloads"]] == list(workloads.WORKLOADS)


def _traced_counts(seed):
    from bosegas import hsfield, propagators
    from bosegas.lattice import ModelParams, TimeGrid, TorusGeometry, delta_potential

    g = TorusGeometry(dimension=1, sites_per_side=2)
    original = propagators.monodromy_batch
    with tracing.Tracer() as tr:
        assert hsfield.monodromy_batch is not original
        assert hsfield.monodromy_batch is propagators.monodromy_batch
        tr.job = "0"
        hsfield.estimate_xi_rel(ModelParams(nu=1.0, kappa0=1.0, lambda0=0.5), g,
                                TimeGrid(nu=1.0, n_slices=8), delta_potential(g),
                                64, seed=seed)
    assert hsfield.monodromy_batch is original
    assert propagators.monodromy_batch is original
    return tr


def test_tracer_counts_repeat_and_wrappers_are_removed():
    _traced_counts(5)  # fills the package's spectral cache, as set-up does
    a, b = _traced_counts(5), _traced_counts(5)
    assert dict(a.counts) == dict(b.counts)
    assert a.counts["hsfield.fields"] == 64
    assert a.counts["propagators.monodromy_flops"] == 64 * 8 * (16 * 8 + 6 * 4)
    names = {s.name for s in a.spans}
    assert {"hsfield.estimate_xi_rel", "propagators.monodromy_batch",
            "hsfield.sample_sigma", "stats.mean_estimate"} <= names
    roots = [s for s in a.spans if s.parent == -1]
    assert [s.name for s in roots] == ["hsfield.estimate_xi_rel"]
