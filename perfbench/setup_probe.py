"""Build one workload's inputs in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED [DOCDIR]

Prints `ready <poissonkit.__file__>` once poissonkit is imported and the
inputs are built; run.py times set-up from launch to that line.  With
DOCDIR, the cli workload's documents are then written there.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import poissonkit  # noqa: E402

import workloads  # noqa: E402

built = workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", poissonkit.__file__, flush=True)
if len(sys.argv) > 3:
    workloads.write_documents(built["texts"], sys.argv[3])
