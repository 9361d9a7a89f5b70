"""Set-up probe: import the package, build one workload's inputs, say "ready".

run.py starts this script several times and times each start up to the
"ready" line, which is the set-up a user pays before the first pass.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch-dir>
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports emergence_lab)

WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
print("ready", flush=True)
