"""A fixed piece of work, timed between operations, that gauges how fast
the machine is running at the moment.

On a shared machine the speed the benchmark gets drifts by a third or more
over minutes, and every timing of a run drifts with it.  Each run times
`job` once before every operation (and before every set-up interpreter)
and scales its timings by REF_MS / (mean time of `job` in that run), so
timings read as if the machine ran `job` in REF_MS: the drift cancels and
a change to the program does not.  `job` does the kind of work the program
does, field arithmetic on Python ints, with the benchmark's own code, so
the program under test cannot change it.
"""

from __future__ import annotations

import statistics
import time

import gf

REF_MS = 3.0  # about what `job` takes on the 2-vCPU VM the benchmark was built on
_FIELD = gf.Field(32)


def job() -> int:
    """A chain of shift-and-add multiplications of 32-bit polynomials.

    Over runs on that VM, this followed the drift of all three workloads
    better than a job of table lookups, tuple building and dict inserts,
    which slowed by up to 60% in phases where the program slowed by 15%."""
    mul = _FIELD.mul
    y = 1
    for i in range(1, 360):
        y = mul(y ^ i, 0x9E3779B9 ^ i) or 1
    return y


def sample() -> float:
    """Milliseconds one run of `job` takes now."""
    t0 = time.perf_counter()
    job()
    return (time.perf_counter() - t0) * 1000.0


def scale(samples: list) -> float:
    """The factor that takes timings made alongside `samples` to REF_MS speed."""
    return REF_MS / statistics.mean(samples)
