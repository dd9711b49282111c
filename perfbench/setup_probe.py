"""Time one set-up of a benchmark workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <units> <workdir>

Prints the seconds from before the package import to the end of input
construction.  ``run.py`` starts several of these and reports their median, at
reference speed (``yardstick.py``), as ``setup_s``.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports the package: part of what is timed)

name, seed, units, workdir = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4])
workloads.WORKLOADS[name](seed, units, workdir)
print(time.perf_counter() - t0)
