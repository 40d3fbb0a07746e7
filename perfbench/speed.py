"""Machine speed, read from a fixed calibration timed beside the work.

A shared machine can run slower for minutes at a time: the one this
benchmark was tuned on (2 shared vCPUs of an Intel Xeon at 2.0 GHz) drops
to between 1/1.5 and 1/1.9 of its speed, in CPU time as much as in wall
time, for ten minutes or more.  A run that falls inside such a spell reads
slow in every op, and no statistic taken within the run removes that.  So
each timed interval is also reported at a fixed reference speed: its
seconds times ``REFERENCE_S`` over the calibration's time read around it.

The calibration mixes what framelab ops spend their time on, a pure-Python
loop and small numpy decompositions, because the slow state slows the two
by different factors.  Over five minutes in which raw op times moved by up
to 1.7x, op time over calibration time moved by about 5% (measured with
twice these loop counts).  The calibration is the benchmark's own code, so
a change to framelab that makes an op slower shows in full.

Ops that each start a process need a calibration of their own, because a
process start does not slow with the in-process calibration.
``calibrate_process`` times a child ``python -c "import numpy"`` instead:
an interpreter start and the import that takes most of a framelab
command's time.  Over seven minutes in which the time of one
``python -m framelab`` command moved by 1.75x, the median of 25 such
commands, each over the probe beside it, moved by about 5%; over the
in-process calibration it moved by about 20%.  Shorter probes do not work: a child
``python -S -c pass`` took either about 18 or about 33 ms, in runs of
either, so their median jumped between runs that ran at one speed.  The
probe runs no framelab code, so a change to framelab's imports shows in
full.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PY_LOOPS = 10_000
NP_LOOPS = 20
REFERENCE_S = 1.0e-3  # about the calibration's time at the fast speed of the machine above
PROCESS_REFERENCE_S = 125.0e-3  # about calibrate_process() at that speed

_REAL = np.cos(np.arange(24.0)).reshape(8, 3)
_HERMITIAN = np.array([[4, 1 - 1j, 0, 2j], [1 + 1j, 3, 1, 0], [0, 1, 2, 1 - 1j], [-2j, 0, 1 + 1j, 1]])


def calibrate() -> float:
    """Seconds taken by the fixed calibration, now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PY_LOOPS):
        total += i * i
    for _ in range(NP_LOOPS):
        np.linalg.svd(_REAL, compute_uv=False)
        np.linalg.eigh(_HERMITIAN)
    return time.perf_counter() - t0


def calibrate_process(env: dict, cwd: Path) -> float:
    """Seconds taken by a child that imports numpy, started as the ops' children are, now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=30, check=True)
    return time.perf_counter() - t0


def factor(readings: list[float], reference: float = REFERENCE_S) -> float:
    """The scale from seconds at the speed these readings show to seconds at the reference speed."""
    return reference / statistics.median(readings)
