"""Record the per-cell reference statistics the benchmark checks against.

Usage, from the repository root::

    python3 perfbench/make_reference.py gups-cold [btree-thp-cold ...]

For every seed below ``REFERENCE_SEEDS`` it runs the workload's sweep
once into a fresh cache and stores each cell's walks, total cycles,
fallbacks, miss count and total references in
``perfbench/reference/<workload>.json``. Re-record only when a change is
meant to alter simulated statistics, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import harness
from workloads import REFERENCE_SEEDS, WORKLOADS


def record(name: str, root: str) -> None:
    workload = WORKLOADS[name]
    seeds = {}
    work = os.path.join(root, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="reference-", dir=work)
    try:
        for seed in range(REFERENCE_SEEDS):
            timing, document = harness.run_sweep(
                workload.argv(seed), root,
                os.path.join(scratch, f"{seed}.json"),
                os.path.join(scratch, f"cache-{seed}"),
                os.path.join(scratch, "log.txt"))
            errors = [cell for cell in document["cells"] if "error" in cell]
            if errors:
                raise RuntimeError(f"{name} seed {seed}: error cells "
                                   f"{[harness.cell_key(c) for c in errors]}")
            seeds[str(seed)] = harness.document_stats(document)
            print(f"{name} seed {seed}: {len(seeds[str(seed)])} cells "
                  f"in {timing.wall_s:.1f}s", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(harness.REFERENCE_DIR, exist_ok=True)
    with open(harness.reference_path(name), "w", encoding="utf-8") as out:
        json.dump({"workload": name, "sweep_args": workload.config_args,
                   "stats": list(harness.STAT_NAMES), "seeds": seeds},
                  out, indent=1, sort_keys=True)
        out.write("\n")


def main(names) -> int:
    root = harness.repo_root()
    for name in names or sorted(WORKLOADS):
        record(name, root)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
