"""Set-up probe: a fresh interpreter imports reflectjet and builds the
inputs of one in-process workload, then exits.  `run.py` times whole
runs of this script for `setup_s`.

Usage: python3 perfbench/probe_setup.py WORKLOAD SEED
"""

import sys

import reflectjet  # noqa: F401  (the import is what is being timed)

import workloads

if __name__ == "__main__":
    workloads.InProcess(sys.argv[1], int(sys.argv[2]))
