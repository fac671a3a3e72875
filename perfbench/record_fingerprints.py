"""Record the AUC/AP fingerprints that run.py checks every call against.

    python3 perfbench/record_fingerprints.py --entries 16 [--workload NAME ...]

Runs one run_benchmark call per (workload, entry) for entries 0..N-1 and
rewrites fingerprints.json, keeping the other workloads' entries.  Record
again only for a change that is meant to move reported numbers, and say so
where the change is described.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--entries", type=int, default=16)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    run.pin_blas_threads()
    bihop = run.import_bihop()
    try:
        table = run.load_fingerprints()
    except FileNotFoundError:
        table = {"workloads": {}}
    for name in args.workload or WORKLOADS:
        entries = []
        for seed in range(args.entries):
            summary = bihop.run_benchmark(run.config_for(bihop, WORKLOADS[name], seed))
            entries.append(run.fingerprint_of(summary))
            print(f"{name} entry {seed}: {entries[-1]}", flush=True)
        table["workloads"][name] = entries
    write_table(table)
    return 0


def write_table(table: dict) -> None:
    """JSON with one line per entry, so a re-recorded entry shows as one line."""
    blocks = []
    for name, entries in sorted(table["workloads"].items()):
        rows = ",\n".join("   " + json.dumps(e, sort_keys=True) for e in entries)
        blocks.append(f"  {json.dumps(name)}: [\n{rows}\n  ]")
    with open(run.FINGERPRINTS, "w", encoding="utf-8") as fh:
        fh.write('{\n "workloads": {\n')
        fh.write(",\n".join(blocks))
        fh.write("\n }\n}\n")


if __name__ == "__main__":
    sys.exit(main())
