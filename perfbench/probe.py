"""One set-up probe: a fresh interpreter imports nvground and runs a warm-up op.

The workload module imports the nvground package.

Run by run.py as ``python3 perfbench/probe.py <workload> <workdir>``; it
prints ``ready`` when the warm-up op has returned, and run.py times the
interval from starting the process to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](0, Path(sys.argv[2])).warm_up()
print("ready", flush=True)
