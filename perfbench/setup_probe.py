"""Set up one workload in a fresh interpreter and print "ready".

    python3 perfbench/setup_probe.py <workload> <seed>

`run.py` times each probe from spawn to the "ready" line, so `setup_s`
covers interpreter start, the package import and the workload's set-up.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

if __name__ == "__main__":
    import workloads

    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name].setup(seed, HERE.parent / ".perfbench_out")
    print("ready", flush=True)
