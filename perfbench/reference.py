"""A fixed numpy kernel that times the machine, not grflab.

The speed of a shared sandbox drifts: the host alternates between fast and
slow spells, seconds to minutes long, as other tenants load it, so raw
seconds of runs made minutes apart disagree more than the benchmark's bounds
allow. While the timed loop runs, ``sampling`` times one pass of this kernel
every PROBE_INTERVAL_S seconds of wall time, from a SIGALRM handler, so the
timings sample the spells at the moments the operations live through them.
The harness reports operation times in units of their mean: the spells'
share divides out, and a change to grflab moves only the numerator. Raw
seconds stay in the run's report.

The kernel does the kinds of work grflab's hot path does, on a 16^3 field of
3x3 matrices: stencil shifts, a pointwise contraction, an FFT round trip and
pointwise inverses.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

_FIELD = np.random.default_rng(0).standard_normal((16, 16, 16, 3, 3))
_SHIFT = 3.0 * np.eye(3)
# a pass takes about 4 ms on an unloaded 2-vCPU x86-64 host, so sampling
# costs the operations about 2% of their time, which the harness subtracts
PROBE_INTERVAL_S = 0.2


def probe_s():
    """Seconds for one pass of the kernel."""
    a = _FIELD
    t0 = time.perf_counter()
    b = np.roll(a, 1, 0) - np.roll(a, -1, 1) + 0.5 * np.roll(a, 2, 2)
    c = np.einsum("...ij,...jk->...ik", a, b)
    modes = np.fft.fftn(c[..., 0, 0])
    np.fft.ifftn(modes / (1.0 + np.abs(c[..., 1, 1]).sum()))
    np.linalg.inv(c + _SHIFT)
    return time.perf_counter() - t0


@contextlib.contextmanager
def sampling(timings):
    """Append a probe_s() timing to ``timings`` now and every
    PROBE_INTERVAL_S seconds of wall time until the block ends."""

    def sample(signum, frame):
        timings.append(probe_s())

    timings.append(probe_s())
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield timings
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
