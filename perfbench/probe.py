"""In-process machine-speed probe.

On a shared host the same operation can take twice as long from one second
to the next, because other tenants slow the CPU down.  The probe measures
that slowdown where the work runs: a timer signal interrupts the process
every `INTERVAL` seconds and times a fixed chunk of work in the main
thread.  The chunk mixes plain interpreter arithmetic with numpy scalar
reads and short vector updates, the code mix of the package's hot loops
(coordinate-descent sweeps, latent class EM on small arrays); it runs no
package code, so a faster package does not change it.  A timed window is
then reported two ways:

    net     wall seconds minus the probe's own chunks inside the window
    scaled  net seconds * CHUNK_REF / mean chunk time inside the window,
            i.e. the seconds the window would have taken at the probe speed
            CHUNK_REF, which is this machine's typical speed

The chunks cost about 2% of the time.  Probe samples land between bytecodes,
so a long call into native code delays the next sample but is still covered
by the mean of the samples around it.
"""

import signal
import time

import numpy as np

INTERVAL = 0.1
# median chunk time on the 2-core Xeon sandbox the baselines were taken on
CHUNK_REF = 1.8e-3

_VEC = np.zeros(64)
_COL = np.linspace(0.0, 1.0, 64)


def _chunk() -> float:
    t0 = time.perf_counter()
    s = 0
    for k in range(10_000):
        s += k * k
    for j in range(400):
        x = _VEC[j & 63] * 0.5 + 1.0
        _VEC[:] += _COL * (x * 1e-12)
    return time.perf_counter() - t0


class SpeedProbe:
    def __init__(self):
        self.times = []
        self.chunks = []

    def _sample(self, signum, frame):
        self.times.append(time.perf_counter())
        self.chunks.append(_chunk())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, t0: float, t1: float):
        """(net, scaled) seconds of the window [t0, t1]."""
        inside = [c for t, c in zip(self.times, self.chunks) if t0 <= t < t1]
        net = (t1 - t0) - sum(inside)
        if not inside:  # a window shorter than the interval: nearest samples
            near = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - t0))[:2]
            inside = [self.chunks[i] for i in near] or [CHUNK_REF]
        return net, net * CHUNK_REF * len(inside) / sum(inside)
