"""Set-up probe: a fresh interpreter imports the command line, builds one
workload's inputs and runs its untimed warm-up pass, then exits.

    python3 perfbench/probe.py <workload> <seed>

run.py times this process from start to exit as one `setup_s` sample.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import staticlab.cli  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), ROOT).warmup()
