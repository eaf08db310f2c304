"""Spans and exact counts around the public functions of the bosegas modules.

`Tracer.install()` replaces every public function of the traced modules with
a recording wrapper wherever a caller looks it up: in the defining module, in
every other bosegas module that imported it by name, and in the package
namespace.  Public methods of the classes those modules define are wrapped on
the class.  `Tracer.uninstall()` puts every original back.

A span is (name, module, start, end, parent, job): parent is the index of the
enclosing span, or -1 for a call made by the harness itself.  Spans stay in
memory until the run ends.  Count metrics are computed from call arguments
and return values at the same boundaries, so they repeat exactly for a given
seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict, namedtuple

import numpy as np

PACKAGE = "bosegas"
MODULES = ("propagators", "hsfield", "loopgas", "lattice", "mayer", "fock",
           "meanfield", "cli", "records", "stats", "limits")

# Dunder methods that are public entry points all the same.
EXTRA_METHODS = {"CirclePotential.__call__"}

ROOT = "bench"

Span = namedtuple("Span", "name module start end parent job")


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Per-module self time: each span's duration minus what its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = defaultdict(float)
    for i, s in enumerate(spans):
        covered = _union_length(children.get(i, ()), s.start, s.end)
        out[s.module] += (s.end - s.start) - covered
    return dict(out)


def connected_graphs(n: int) -> int:
    """Number of connected labelled graphs on n vertices (1, 1, 4, 38, 728, ...)."""
    c = [0, 1]
    for m in range(2, n + 1):
        total = 2 ** math.comb(m, 2)
        total -= sum(math.comb(m - 1, k - 1) * c[k] * 2 ** math.comb(m - k, 2)
                     for k in range(1, m))
        c.append(total)
    return c[n]


# ---------------------------------------------------------------------------
# count hooks: (tracer, bound arguments, return value, caller's module)


def _monodromy_work(tr, S: int, T: int, n: int):
    # Per sample and slice: two complex n x n products (8 flops per complex
    # multiply-add) and one diagonal phase scaling (6 flops per element).
    # Bytes count each product's input and output, the scaling's input,
    # phases and output, and the field slice, with no cache reuse.
    tr.counts["propagators.monodromy_flops"] += S * T * (16 * n**3 + 6 * n**2)
    tr.counts["propagators.monodromy_bytes"] += S * T * (96 * n**2 + 24 * n)


def _hook_monodromy(tr, a, result, caller):
    T, n = np.shape(a["sigma"])
    _monodromy_work(tr, 1, T, n)


def _hook_monodromy_batch(tr, a, result, caller):
    S, T, n = np.shape(a["sigma"])
    _monodromy_work(tr, S, T, n)


def _hook_sample_sigma(tr, a, result, caller):
    key = "cli.resampled_fields" if caller == "cli" else "hsfield.fields"
    tr.counts[key] += int(a["n_samples"])


def _hook_hs_xi(tr, a, est, caller):
    tr.add_ratio("hsfield.ess_frac", est.ess / est.n_samples)
    if "mean_abs_weight" in est.extra:
        tr.add_ratio("hsfield.avg_sign", abs(est.value) / est.extra["mean_abs_weight"])


def _hook_hs_duhamel(tr, a, est, caller):
    tr.add_ratio("hsfield.ess_frac", est.ess / est.n_samples)


def _loop_orders(n_max: int) -> int:
    return n_max * (n_max + 1) // 2


def _hook_series(tr, a, est, caller):
    if a["params"].lam != 0.0:
        tr.counts["loopgas.loops"] += int(a["samples"]) * _loop_orders(a["n_max"])
    tr.add_ratio("loopgas.ess_frac", est.ess / est.n_samples)


def _hook_loop_duhamel(tr, a, est, caller):
    if a["params"].lam != 0.0:
        # the loops of every order plus one open path per sample
        tr.counts["loopgas.loops"] += int(a["samples"]) * (_loop_orders(a["n_max"]) + 1)
    tr.add_ratio("loopgas.ess_frac", est.ess / est.n_samples)


def _hook_potential(tr, a, result, caller):
    tr.counts["lattice.potential_evals"] += int(np.size(a["x"]))


def _hook_laplacian(tr, a, result, caller):
    tr.counts["lattice.laplacian_builds"] += 1


def _hook_ursell(tr, a, result, caller):
    if a["params"].lam != 0.0:
        tr.counts["mayer.graph_products"] += connected_graphs(a["n"]) * int(a["samples"])


def _hook_hamiltonian(tr, a, op, caller):
    tr.counts["fock.hamiltonians_built"] += 1
    tr.counts["fock.basis_states"] += len(op.basis)


def _hook_field_action(tr, a, result, caller):
    tr.counts["meanfield.field_action_calls"] += 1


def _hook_gibbs(tr, a, chain, caller):
    tr.add_ratio("meanfield.acceptance", chain.acceptance)


def _hook_to_json(tr, a, text, caller):
    # The command line writes one line per record.  The printed length of the
    # record's wall-clock field varies from run to run, so it is left out.
    if caller == "cli":
        timing = len(json.dumps(a["self"].wall_seconds))
        tr.counts["records.bytes_written"] += len(text.encode()) + 1 - timing


HOOKS = {
    "propagators.monodromy": _hook_monodromy,
    "propagators.monodromy_batch": _hook_monodromy_batch,
    "hsfield.sample_sigma": _hook_sample_sigma,
    "hsfield.estimate_xi_rel": _hook_hs_xi,
    "hsfield.estimate_duhamel": _hook_hs_duhamel,
    "loopgas.xi_rel_series": _hook_series,
    "loopgas.duhamel_loopgas": _hook_loop_duhamel,
    "lattice.CirclePotential.__call__": _hook_potential,
    "lattice.TorusGeometry.laplacian_matrix": _hook_laplacian,
    "mayer.ursell_coefficient": _hook_ursell,
    "fock.build_hamiltonian": _hook_hamiltonian,
    "meanfield.field_action": _hook_field_action,
    "meanfield.sample_gibbs_field": _hook_gibbs,
    "records.ExperimentRecord.to_json": _hook_to_json,
}


class Tracer:
    """Records spans and counts while installed; restores every original on exit."""

    def __init__(self):
        self.package = importlib.import_module(PACKAGE)
        self.modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        self.job = "setup"
        self.counts = defaultdict(int)
        self._ratios = defaultdict(lambda: [0.0, 0])
        self._records = []
        self._stack = []
        self._patches = []

    # -- bookkeeping used by the hooks

    def add_ratio(self, key: str, value: float):
        acc = self._ratios[key]
        acc[0] += float(value)
        acc[1] += 1

    def ratio(self, key: str) -> float:
        """Mean of the recorded values, 0.0 when the layer never ran."""
        total, n = self._ratios.get(key, (0.0, 0))
        return total / n if n else 0.0

    @property
    def spans(self) -> list:
        return [Span(*r) for r in self._records]

    # -- installing and removing the wrappers

    def _wrap(self, func, name: str, module: str):
        records, stack, clock = self._records, self._stack, time.perf_counter
        hook = HOOKS.get(name)
        sig = inspect.signature(func) if hook else None
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, module, clock(), 0.0, parent, tracer.job]
            stack.append(len(records))
            records.append(rec)
            try:
                result = func(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                caller = records[parent][1] if parent >= 0 else ROOT
                hook(tracer, bound.arguments, result, caller)
            return result

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions = {}
        for short, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[id(obj)] = self._wrap(obj, f"{short}.{name}", short)
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        namespaces = [self.package, *self.modules.values()]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in functions and inspect.isfunction(obj):
                    self._patch(ns, name, functions[id(obj)])
        return self

    def _wrap_methods(self, short: str, cls):
        for attr, val in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if attr.startswith("_") and qual not in EXTRA_METHODS:
                continue
            name = f"{short}.{qual}"
            if inspect.isfunction(val):
                self._patch(cls, attr, self._wrap(val, name, short))
            elif isinstance(val, (classmethod, staticmethod)):
                self._patch(cls, attr, type(val)(self._wrap(val.__func__, name, short)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- per-layer metrics

    def layer_metrics(self) -> dict:
        """Every per-layer metric except the tracing overhead, by name."""
        spans = self.spans
        selfs = self_times(spans)
        out = {f"{m}.self_s": selfs.get(m, 0.0) for m in MODULES}
        out["fock.build_s"] = sum(s.end - s.start for s in spans
                                  if s.name == "fock.build_hamiltonian")
        for key in ("propagators.monodromy_flops", "propagators.monodromy_bytes",
                    "hsfield.fields", "loopgas.loops", "lattice.potential_evals",
                    "lattice.laplacian_builds", "mayer.graph_products",
                    "fock.hamiltonians_built", "fock.basis_states",
                    "meanfield.field_action_calls", "cli.resampled_fields",
                    "records.bytes_written"):
            out[key] = self.counts.get(key, 0)
        for key in ("hsfield.avg_sign", "hsfield.ess_frac", "loopgas.ess_frac",
                    "meanfield.acceptance"):
            out[key] = self.ratio(key)
        return out
