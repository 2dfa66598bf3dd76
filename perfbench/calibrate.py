"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same operation takes up to twice as long when other
tenants load the machine, and that load drifts over minutes: medians of raw
times taken minutes apart differ by more than any single run's repeats can
average away.  The benchmark therefore runs this kernel around every timed
operation and divides the operation's time by the kernel's.  The kernel
never touches ``pcs_shaper``, so a change to the package moves only the
numerator.

The kernel does the kinds of work the workloads do: interpreted Python and
numpy calls on M-sized arrays, like the solver's evaluations and projections,
and, for the Monte-Carlo oracles, a pass over a 1M-element array like their
chunks.  Load from other tenants slows these kinds of work by different
factors, so each workload is calibrated with the kernel that matches it.  The
array pass writes to a preallocated array so that it never waits on the
allocator.

The kernel's time over its reference time, ``REFERENCE_S``, is the machine's
current slowdown; an operation's time divided by it is the time the operation
would take on a machine where the kernel takes ``REFERENCE_S``.

The machine's speed also changes within a solve of a second or more, so
while an operation runs, ``Sampling`` also runs the kernel every
``SAMPLE_INTERVAL_S`` from a ``SIGALRM`` handler, and the operation's time
excludes the handler's.

Set-up is mostly imports, whose time does not follow that kernel's, so it
has a kernel of its own: ``import_kernel_s`` imports a fixed set of
standard-library modules, some with C extensions, in a fresh interpreter.
"""
from __future__ import annotations

import signal
import subprocess
import sys
from time import perf_counter

import numpy as np

# typical kernel times, without and with the array pass, and of the import
# kernel, on the 2-core Intel Xeon VM the benchmark was written on (they
# ranged 2.3-4.5 ms, 5-8 ms and 0.10-0.15 s)
REFERENCE_S = {False: 3.0e-3, True: 6.0e-3}
IMPORT_REFERENCE_S = 0.12
KERNEL_RUNS = 2          # kernel runs on each side of a timed operation
SAMPLE_INTERVAL_S = 0.1  # kernel runs during an operation, one per interval

_SMALL = np.linspace(-1.0, 1.0, 64)
_BIG = np.linspace(-1.0, 1.0, 1 << 20)
_OUT = np.empty_like(_BIG)


def calibration_s(array_pass: bool) -> float:
    """Wall time of one run of the reference kernel, with or without its array pass."""
    t0 = perf_counter()
    s = 0.0
    for i in range(10_000):
        s += i * 0.5
    for _ in range(1000):
        s += float(np.exp(_SMALL).sum())
    if array_pass:
        np.exp(_BIG, out=_OUT)
        s += float(_OUT.sum())
    return perf_counter() - t0


def kernel_s(array_pass: bool) -> float:
    """Wall time of ``KERNEL_RUNS`` runs of the kernel, for one side of an operation."""
    return sum(calibration_s(array_pass) for _ in range(KERNEL_RUNS))


_IMPORTS = ("email.mime.multipart, http.client, xml.dom.minidom, decimal, asyncio, "
            "unittest, argparse, logging, csv, sqlite3, tarfile, zipfile, urllib.request, "
            "json, pickle, statistics, fractions, difflib, ast, inspect, dataclasses")


def import_kernel_s() -> float:
    """Time a fresh interpreter takes to import ``_IMPORTS``."""
    code = (f"import time; t = time.perf_counter(); import {_IMPORTS}; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


class Sampling:
    """Run the kernel every ``SAMPLE_INTERVAL_S`` of wall time while in the block.

    ``kernel_s`` sums the kernel runs' times and ``runs`` counts them;
    ``spent_s`` is the whole time spent in the handler, to take off the
    operation's time.
    """

    def __init__(self, array_pass: bool):
        self.array_pass = array_pass
        self.kernel_s, self.runs, self.spent_s = 0.0, 0, 0.0

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.kernel_s += calibration_s(self.array_pass)
        self.runs += 1
        self.spent_s += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def slowdown(before_s: float, after_s: float, during: Sampling, array_pass: bool) -> float:
    """The machine's slowdown from the kernel runs before, during and after an operation."""
    runs = 2 * KERNEL_RUNS + during.runs
    return (before_s + after_s + during.kernel_s) / (runs * REFERENCE_S[array_pass])
