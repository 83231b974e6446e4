"""One cold start: import umbral's CLI and generate the workload's first block.

Run as ``python3 bench/coldstart.py SRC_DIR WORKLOAD SEED``; prints
``ready`` once the first job could be sent.  ``run.py`` times this from
process start to that line to get ``setup_s``.
"""

import sys

sys.path[:0] = [sys.argv[1]]

import umbral.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.block(sys.argv[2], int(sys.argv[3]), 0)
print("ready", flush=True)
