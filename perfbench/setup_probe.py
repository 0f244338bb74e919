"""Time one fresh-interpreter set-up; print its seconds and the mean time
in milliseconds of the reference kernel, run right after in the same
process for as long as the set-up took.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is ``import agendamech`` plus building the workload's inputs, as a
user's batch job starts. numpy, the program's one dependency, is imported
before the clock starts: on the machine the benchmark was written on, its
import alone took 0.09 s or 0.16 s for minutes at a time, while the rest of
the set-up held its speed. Run from the root of a checkout; ``run.py``
calls this several times per run, scales each set-up by the kernel speed
of the process that ran it, and reports the median.
"""

import sys
import time
from pathlib import Path

import numpy  # noqa: F401
from timing import kernel_mean_ms
from workloads import WORKLOADS

sys.path.insert(0, str(Path.cwd() / "src"))

T0 = time.perf_counter()

import agendamech as am  # noqa: E402

WORKLOADS[sys.argv[1]](am, int(sys.argv[2]))
SETUP_S = time.perf_counter() - T0

print(SETUP_S, kernel_mean_ms(SETUP_S))
