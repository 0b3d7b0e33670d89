"""The machine's speed, measured with fixed reference kernels.

On a shared virtual machine the CPU speed seen by one process drifts by a
factor of up to 1.8 within seconds to minutes.  Every timing the
benchmark reports is therefore scaled by the speed at the time it was
taken.  Ops are scaled by the ``matrices`` kernel: it is timed at the
start of every pass and every ``EVERY_S`` seconds between its ops (never
inside one), and each latency of the pass is multiplied by
NOMINAL / (median kernel time during the pass).  Set-up is scaled by the
``start`` kernel, timed between the set-up processes.

The kernels were chosen by measurement on a 2-vCPU VM: over five minutes
in which the speed drifted by 1.8 times, one op of each workload and
several candidate kernels were timed in turn.  Divided by the
``matrices`` kernel, the 8-second medians of every op kept a spread
(coefficient of variation) of 6 to 8%, against 12 to 15% raw; a kernel
of small dict merges, like the trace engine's own work, moved 1.5 times
as much as the ops did and left 8 to 12%.  The set-up of a workload is
mostly the start of an interpreter and the import of numpy, which the
``start`` kernel repeats; it cut the spread of set-up times from about
20% to 5%.  The kernels do not touch freesb, so a change to the program
moves the reported times in full.  The report keeps the raw times too.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

EVERY_S = 0.2       # sample the speed at most this often during a pass


def _matrices() -> int:
    """Draw normals for a batch of 128 16 x 16 complex matrices and chain
    batched products of them, one step's draws at a time (so the kernel
    adds little to a workload's peak memory)."""
    rng = np.random.default_rng(0)
    acc = x = 0.05 * rng.standard_normal((128, 16, 16)) * (1 + 1j)
    for _ in range(6):
        z = rng.standard_normal((2, 128, 16, 16))
        acc = acc @ x + 0.05 * (z[0] + 1j * z[1])
    return acc.size


def _start() -> int:
    """Start an interpreter that imports numpy."""
    return subprocess.run([sys.executable, "-c", "import numpy"], check=True).returncode


# kernel name -> (function, its time at the reference speed in seconds)
KERNELS = {"matrices": (_matrices, 0.013), "start": (_start, 0.15)}


def sample(kernel: str) -> float:
    """Seconds taken by one run of ``kernel``."""
    fn = KERNELS[kernel][0]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def factor(samples: list[float], kernel: str) -> float:
    """Nominal / median time of ``kernel`` over samples taken while a timing was made."""
    return KERNELS[kernel][1] / statistics.median(samples)
