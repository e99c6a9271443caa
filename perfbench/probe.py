"""A fixed reference computation that measures the machine's current speed.

The cores the benchmark runs on can be shared: the same pass of the same
inputs has been seen to take anywhere from 0.8x to 1.25x its usual time,
and the slowdown drifts over seconds to minutes.  The worker therefore
runs this probe between operations, spending about ``DUTY`` of the pass's
time on it, and run.py scales each pass's timings by ``NOMINAL_S`` over
the pass's mean probe time.  A slowdown that hits probe and program alike
cancels; the raw timings are printed too.

The probe mirrors the program's inner loop (table-driven finite-field
arithmetic over Python lists plus dict lookups) but does not use invword,
so no change to the program moves it, and it allocates no objects that
the garbage collector tracks beyond loop iterators.
"""

import time

DUTY = 0.03
# mean probe time on the 2-core Intel Xeon the bounds were fixed on
NOMINAL_S = 6.0e-4

_Q = 7
_ADD = [(a + b) % _Q for a in range(_Q) for b in range(_Q)]
_MUL = [(a * b) % _Q for a in range(_Q) for b in range(_Q)]
_N = 8
_ROWS = [[(3 * i + 5 * j + 1) % _Q for j in range(_N)] for i in range(_N)]
_COLS = [[_ROWS[i][j] for i in range(_N)] for j in range(_N)]
_LOOKUP = {k: (k * 2654435761) % 4096 for k in range(4096)}
_REPS = 12


def probe_once():
    """Seconds taken by one fixed run of the reference loop."""
    t = time.perf_counter()
    s = 0
    for _ in range(_REPS):
        for ra in _ROWS:
            for cb in _COLS:
                acc = 0
                for k in range(_N):
                    acc = _ADD[acc * _Q + _MUL[ra[k] * _Q + cb[k]]]
                s = _LOOKUP[(s * 31 + acc) & 4095]
    return time.perf_counter() - t


class Probe:
    """Runs the probe between operations so that its total time stays at
    ``DUTY`` of the measured time, sampling the machine as often as the
    program is timed."""

    def __init__(self):
        self.samples = []
        self._debt = 0.0

    def after(self, worked_s):
        self._debt += worked_s * DUTY
        while self._debt > 0:
            d = probe_once()
            self.samples.append(d)
            self._debt -= d

    def total_s(self):
        return sum(self.samples)
