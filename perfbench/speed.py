"""Machine-speed reference: a fixed kernel timed between operations.

On a shared host, neighbours slow this process's memory-heavy Python by
up to 1.7x, for seconds to minutes at a time.  That drift is far larger
than the run-to-run differences the benchmark must resolve.  A fixed
kernel shaped like vallab's hot path (sparse polynomials over F_p in
dicts: multiply, divide, gcd) is timed every SAMPLE_EVERY_S seconds.
Each operation's time is then scaled by REF_S over the kernel's best
time next to it.  The kernel is benchmark code and no vallab change
touches it, so a faster vallab still shows as a smaller scaled time.
REF_S is the kernel's best time on the machine the benchmark was
defined on (Intel Xeon at 2.1 GHz, CPython 3.11), so the scaled values
read as seconds on that machine at its quiet speed.
"""

import bisect
import time

REF_S = 0.0026
SAMPLE_EVERY_S = 0.1
REPEATS = 3                 # a sample is the best of this many kernel runs


def _pmul(a, b, p):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = (out.get(i + j, 0) + x * y) % p
    return {k: v for k, v in out.items() if v}


def _pdivmod(a, b, p):
    a, q = dict(a), {}
    db = max(b)
    inv = pow(b[db], p - 2, p)
    while a and max(a) >= db:
        da = max(a)
        c = a[da] * inv % p
        q[da - db] = c
        for e, x in b.items():
            v = (a.get(e + da - db, 0) - c * x) % p
            if v:
                a[e + da - db] = v
            else:
                a.pop(e + da - db, None)
    return q, a


def kernel():
    """Reduce a running fraction of polynomials over F_7, 60 steps."""
    p = 7
    polys = [{i: (i * s + 1) % p or 1 for i in range(s % 4 + 2)}
             for s in range(1, 13)]
    num, den = {0: 1}, {0: 1}
    for k in range(60):
        num = _pmul(num, polys[(k * 5 + 3) % 12], p) or {0: 1}
        den = _pmul(den, polys[k % 12], p)
        a, b = num, den
        while b:
            a, b = b, _pdivmod(a, b, p)[1]
        num = dict(sorted(_pdivmod(num, a, p)[0].items())) or {0: 1}
        den = _pdivmod(den, a, p)[0] or {0: 1}
    return num


def _timed_best():
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


class Speed:
    """Kernel samples over a run; scales a time span to the reference."""

    def __init__(self):
        self.at = []
        self.best = []

    def sample(self, force=False):
        """Time the kernel, unless the last sample is under SAMPLE_EVERY_S old."""
        if not force and self.at and \
                time.perf_counter() - self.at[-1] < SAMPLE_EVERY_S:
            return
        best = _timed_best()
        self.at.append(time.perf_counter())
        self.best.append(best)

    def factor(self, t0, t1):
        """REF_S over the mean kernel time of the samples bracketing [t0, t1]."""
        i = bisect.bisect_right(self.at, t0) - 1
        j = bisect.bisect_left(self.at, t1)
        near = [self.best[k] for k in (i, j) if 0 <= k < len(self.best)]
        return REF_S * len(near) / sum(near)
