"""Rewrite references.json from the outputs of the current tree.

    python3 bench/pin.py

Each workload runs once, traced, in a fresh worker process (seed 0; the
outputs do not depend on the seed).  A run whose oracles fail is not
pinned.  Only re-pin when a workload's inputs change on purpose: the
references are what every later version must reproduce.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main():
    refs = {}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--pin",
               *workloads.worker_args(name, 0)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        refs[name] = json.loads(proc.stdout.splitlines()[-1])
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
