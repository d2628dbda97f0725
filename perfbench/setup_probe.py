"""Set-up probe: import levysym, build one workload's inputs, print "ready".

Started by run.py as a fresh interpreter; the time from its start to the
"ready" line is one sample of setup_s.

    python3 perfbench/setup_probe.py <workload> <seed> <full|smoke> <outdir>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4]))
print("ready", flush=True)
