"""Host-speed meter for timed regions on a machine whose speed drifts.

On a shared virtual machine the same call can take up to twice as long a
few seconds later, and no counter inside the guest shows why (steal time
stays near zero, and process CPU time tracks wall time).  The meter samples
the host's speed *during* a timed region: an interval timer raises SIGALRM
every PERIOD_S, and the handler times a fixed piece of interpreter work (the
probe, no hardyspec code).  Slow host, slow probe.  The correction is
partial: in some stretches the workloads slow down more than the probe.

A region's time in probe units is its measured time over the mean probe
time during it; `normalized` turns that back into seconds at
NOMINAL_PROBE_S, the probe's time at full speed on the machine the
benchmark was defined on (2-core Xeon VM, Python 3.11).  A per-run estimate
of full speed is no substitute: a run can spend all its time in the slow
state.

Stdlib only, so a fresh process can start the meter before it imports
numpy or hardyspec.
"""

import signal
import statistics
import time

PERIOD_S = 0.01
NOMINAL_PROBE_S = 2.6e-5


def probe():
    acc = 0
    for i in range(400):
        acc += (i * 7) % 13
    return acc


class HostMeter:
    """Context manager: probe times while the region runs land in `samples`."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._tick(None, None)          # so that no region is left without one
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def mean(self):
        return statistics.fmean(self.samples)


def normalized(seconds, probe_mean):
    """A time measured while the probe averaged `probe_mean`, in seconds at
    the nominal full host speed."""
    return seconds * NOMINAL_PROBE_S / probe_mean
