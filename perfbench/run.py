"""Run one benchmark workload against the bosegas sources in this checkout.

    python3 perfbench/run.py --workload aux_field --seed 1 --seconds 50 --trace 0

--trace 0 runs jobs in a closed loop for --seconds and prints the end-to-end
metrics.  --trace 1 runs a fixed list of jobs once untraced and once with
spans around every public bosegas function, and prints the per-layer
metrics.  Every job result goes through its referee; the last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
The exit code is 0 when every check passed, 1 when a check failed, and 2
when the benchmark could not run at all.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3   # set-ups per run: this process plus fresh interpreters
TRACE_CYCLES = 3    # job cycles in a traced run


def _cap_blas_threads():
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print {setup_s} and exit (used to repeat set-up)")
    return p.parse_args(argv)


def _job_seeds(seed: int, stream: int = 0):
    import numpy as np

    rng = np.random.default_rng([stream, seed])
    while True:
        yield int(rng.integers(1, 2**31 - 2))


def _setup(wl, scratch: Path, seed: int):
    """Inputs and references, then one untimed job of each kind as warm-up."""
    ctx = wl.setup(scratch)
    warm = _job_seeds(seed, stream=1)
    for kind in dict.fromkeys(wl.cycle):
        kind.run(ctx, next(warm))
    return ctx


def _setup_seconds() -> float:
    """Set-up time of this process so far, at nominal host speed."""
    from perfbench import speed

    raw = time.perf_counter() - _T0
    return raw * speed.scale([speed.probe() for _ in range(5)])


def _fresh_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _run_jobs(wl, ctx, seeds, *, cycles=None, deadline=None, tracer=None):
    """Whole job cycles until `cycles` are done or `deadline` has passed.

    A speed probe runs before every job and after the last one; each job's
    time is scaled by the probes on either side of it and one beyond each.
    """
    from perfbench import speed
    from perfbench.metrics import JobRecord
    from perfbench.referee import Check
    from perfbench.workloads import Outcome

    runs = []
    probes = [speed.probe()]
    done = 0
    clock = time.perf_counter
    while (cycles is None or done < cycles) and (deadline is None or clock() < deadline):
        for kind in wl.cycle:
            job, seed = len(runs), next(seeds)
            if tracer is not None:
                tracer.job = str(job)
            start = clock()
            try:
                raw = kind.run(ctx, seed)
            except Exception:  # a job that raises is a failed job; keep going
                seconds = clock() - start
                outcome = Outcome(0, None, (Check("raised", False, traceback.format_exc()),))
            else:
                seconds = clock() - start
                try:
                    outcome = kind.judge(ctx, raw)
                except Exception:
                    outcome = Outcome(0, None, (Check("referee_raised", False,
                                                      traceback.format_exc()),))
            failures = tuple(c for c in outcome.checks if not c.ok)
            for c in failures:
                print(f"FAIL workload={wl.name} job={job} kind={kind.name} "
                      f"check={c.name} seed={seed} point=[{kind.point}]: {c.detail}")
            runs.append((job, kind.name, seed, seconds, outcome, failures))
            probes.append(speed.probe())
        done += 1
    return [JobRecord(job, kind, seed,
                      seconds * speed.scale(probes[max(job - 1, 0):job + 3]), seconds,
                      outcome.samples, outcome.stderr, failures)
            for job, kind, seed, seconds, outcome, failures in runs]


def _timed_run(wl, ctx, args, setup_s):
    from perfbench import metrics, workloads

    setups = [setup_s] + [_fresh_setup(wl.name, args.seed)
                          for _ in range(SETUP_REPEATS - 1)]
    deadline = time.perf_counter() + args.seconds
    jobs = _run_jobs(wl, ctx, _job_seeds(args.seed), deadline=deadline)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = metrics.end_to_end(jobs, setups, rss_mb, workloads.TARGET_ERR)
    return metrics.with_units(values, metrics.END_TO_END), jobs


def _traced_run(wl, ctx, args, scratch, env):
    from perfbench import metrics, tracing

    seeds = list(itertools.islice(_job_seeds(args.seed), TRACE_CYCLES * len(wl.cycle)))
    untraced = _run_jobs(wl, ctx, iter(seeds), cycles=TRACE_CYCLES)
    with tracing.Tracer() as tracer:
        tracer.job = "setup"
        traced_ctx = wl.setup(scratch)
        traced = _run_jobs(wl, traced_ctx, iter(seeds), cycles=TRACE_CYCLES,
                           tracer=tracer)
    values = tracer.layer_metrics()
    values["trace.overhead_frac"] = (sum(j.seconds for j in traced)
                                     / sum(j.seconds for j in untraced) - 1.0)
    spans = tracer.spans
    t0 = spans[0].start if spans else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "environment": env, "metrics": values,
        "span_fields": list(tracing.Span._fields),
        "spans": [[s.name, s.module, s.start - t0, s.end - t0, s.parent, s.job]
                  for s in spans]}))
    print(f"trace: {len(spans)} spans written to {path.relative_to(ROOT)}")
    return metrics.with_units(values, metrics.PER_LAYER), untraced + traced


def _summary(jobs, metric_values):
    from perfbench import metrics, workloads

    tts = metrics.tts_by_kind(jobs, workloads.TARGET_ERR)
    for kind in dict.fromkeys(j.kind for j in jobs):
        js = [j for j in jobs if j.kind == kind]
        times = sorted(j.seconds for j in js)
        raw = sorted(j.raw_seconds for j in js)
        print(f"  {kind:12s} jobs {len(js):4d}  median {times[len(times) // 2]:.4f} s"
              f" (measured {raw[len(raw) // 2]:.4f} s)  tts {tts.get(kind, 0.0):8.4f} s"
              f"  failed {sum(1 for j in js if j.failures)}")
    for name, m in metric_values.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "bosegas" / "__init__.py").is_file():
        print(f"bosegas sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import envinfo, workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = OUT_DIR / f"{wl.name}-{os.getpid()}"
    try:
        ctx = _setup(wl, scratch, args.seed)
        setup_s = _setup_seconds()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = envinfo.collect(wl.name, args.seed)
        print(json.dumps({"environment": env}))
        if args.trace:
            metric_values, jobs = _traced_run(wl, ctx, args, scratch, env)
        else:
            metric_values, jobs = _timed_run(wl, ctx, args, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = sum(1 for j in jobs if j.failures)
    _summary(jobs, metric_values)
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs),
                      "failed": failed, "metrics": metric_values}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
