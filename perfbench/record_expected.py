#!/usr/bin/env python3
"""Record the expected output digests of the cli and fieldlab workloads.

Run once at the commit whose outputs are the reference, then commit the
resulting perfbench/expected.json:

    python3 perfbench/record_expected.py

Each entry is the sha256 of an item's output: for a command, the exit-code
line followed by the report bytes.  Every seeded variant is recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from worker import import_program


def main() -> int:
    workloads = import_program()
    workdir = os.path.join(os.path.dirname(workloads.EXPECTED_PATH), ".work", "record")
    os.makedirs(workdir, exist_ok=True)
    table = {}
    try:
        for workload in workloads.DIGESTED:
            table[workload] = {}
            for variant in range(workloads.VARIANTS):
                entries = {}
                for item in workloads.PASSES[workload](variant, 0, workdir, None):
                    output, ok = item.run()
                    entries[item.id] = workloads.sha256(output)
                    exit_line = b"1\n" if item.id == workloads.FAILING_ITEM else b"0\n"
                    command = workload == "cli" or item.verb == "simulate"
                    if not ok or (command and not output.startswith(exit_line)):
                        print(f"unexpected output: {workload} variant {variant} {item.id}", file=sys.stderr)
                        return 1
                table[workload][str(variant)] = entries
                print(f"{workload} variant {variant}: {len(entries)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
