"""Set-up probe: the work a fresh process does before its first request.

Starts the interpreter, imports graphlab from the checkout's src/, builds the
workload's request list, then prints ``ready``.  run.py times this process
from spawn to that line, which is what a CLI user pays on every invocation.

Usage: python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import graphlab.cli  # noqa: E402,F401  (the import is what is measured)
import workloads  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]))
sys.stdout.write("ready\n")
sys.stdout.flush()
