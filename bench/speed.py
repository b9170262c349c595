"""A fixed probe of how fast this machine runs right now.

On the shared reference machine the same certification takes anywhere
from 0.6x to 1.2x of its usual time, flipping between a fast and a slow
state within seconds and drifting over minutes, so that runs of identical
work differed by up to 1.7x.  The probe is fixed work of the same
kind sipcert does (small numpy arrays driven from Python, plus plain Python
arithmetic) that never touches sipcert.  Runs interleave it with the
operations, and ``run.py`` scales its times by ``REF_S / mean probe``:
reference-speed seconds, which move when the program changes and stay put
when only the machine does.
"""

import time

import numpy as np

REF_S = 0.002  # the probe's median on the reference machine in its usual state
_TABLEAU = np.random.default_rng(0).standard_normal((6, 400))


def _probe():
    t = _TABLEAU.copy()
    acc = 0.0
    for k in range(40):
        reduced = t[0] - 0.1 * t[1:].sum(axis=0)
        col = t[:, int(np.argmin(reduced))].copy()
        t -= 1e-3 * np.outer(col, t[k % 6])
        acc += float(col[0])
    for i in range(5000):
        acc += (i * 0.5) % 7.0
    return acc


def probe_s() -> float:
    """Wall time of one probe, in seconds."""
    start = time.perf_counter()
    _probe()
    return time.perf_counter() - start
