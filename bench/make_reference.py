"""Recompute bench/reference_digests.json at the reference seed.

    python3 bench/make_reference.py [--seed 0]

Run it only when a change is meant to alter the program's output, and say
so in the change: the digests are what a run's outputs are checked against.
Every job must still pass its own cross-checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import worker
from run import WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    empty = {"seed": args.seed, "digests": {}}
    digests = {}
    for name in WORKLOADS:
        record = worker.repetition(name, args.seed, "full", "plain", time.monotonic_ns(), empty)
        for job in record["jobs"]:
            if job["failure"] != "no reference digest":
                sys.exit("%s failed: %s" % (job["id"], job["failure"]))
            digests[job["id"]] = job["digest"]
    with open(worker.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
