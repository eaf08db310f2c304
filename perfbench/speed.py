"""A fixed CPU probe that expresses measured times at a nominal host speed.

On the 2-vCPU Xeon host used to size this benchmark, CPU speed switches
between states about 1.35x apart, and a state can last from seconds to
several minutes, longer than a whole run.  Raw wall-clock figures then
depend on when a run happened more than on the code.  The harness runs this
probe next to every job and scales each measured time by
PROBE_NOMINAL_S / (local probe time), so a metric reads as seconds on a host
whose probe takes PROBE_NOMINAL_S.  Raw times are kept in the per-kind
summary and in the trace file.
"""

from __future__ import annotations

import time

import numpy as np

# About the probe's time on the host named above.
PROBE_NOMINAL_S = 6.0e-3

_A = np.linspace(0.0, 1.0, 16).reshape(1, 4, 4).repeat(256, axis=0)
_X = np.linspace(-1.0, 1.0, 32768)
_G = (np.random.default_rng(0).standard_normal((48, 27, 27, 2)) @ [1.0, 1.0j]) / 27.0
_H = 0.9 * np.eye(27)


def _work():
    """Interpreter loop, small stacked products, vector transcendentals, and
    batched complex 27 x 27 products, a real matrix applied from the left."""
    s = 0
    for i in range(40000):
        s += i * i
    y = _A
    for _ in range(20):
        y = 0.5 * (_A @ y)
    for _ in range(4):
        np.exp(np.sin(_X))
    z = _G
    for _ in range(3):
        z = _H @ (_G @ z)
    return s


def probe() -> float:
    """Seconds the fixed mix of work in _work takes."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(probe_times) -> float:
    """Factor from measured to nominal seconds, from the probes around a measurement."""
    return PROBE_NOMINAL_S / float(np.median(probe_times))
