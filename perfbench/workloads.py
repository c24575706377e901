"""The benchmark's three sweep workloads.

Each workload is one ``python -m repro sweep`` grid on the numpy-only
backend at ``--scale 512`` with ``--cell-threads 1``. ``cold`` workloads
sweep into a fresh, empty artifact cache every time; the ``warm`` one
populates a cache during set-up and then times a re-sweep served from it.
The reasons each workload is here are in ``perfbench/README.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Designs each environment provides (``python -m repro list``). The
#: per-(env, design) layer metrics are named from this table, so it is
#: fixed here rather than read from the program.
ENV_DESIGNS: Dict[str, Tuple[str, ...]] = {
    "native": ("vanilla", "fpt", "ecpt", "asap", "dmt"),
    "virt": ("vanilla", "shadow", "fpt", "ecpt", "agile", "asap", "dmt",
             "pvdmt"),
    "nested": ("vanilla", "pvdmt"),
}

#: The benchmark seed selects one of this many stored input sets: the
#: sweep receives ``--seed (seed mod REFERENCE_SEEDS)``, so every input
#: a run can draw has a stored reference to check against.
REFERENCE_SEEDS = 16

COMMON_ARGS = ("--scale", "512", "--cell-threads", "1")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweep_args: Tuple[str, ...]
    #: True: populate a cache in set-up and time the warm re-sweep.
    warm: bool = False
    #: Fewest sweeps a run takes the median of, however long they take.
    min_sweeps: int = 1

    @property
    def config_args(self) -> List[str]:
        """The sweep arguments that decide its simulated statistics."""
        return [*COMMON_ARGS, *self.sweep_args]

    def argv(self, sim_seed: int) -> List[str]:
        """The sweep arguments (minus the cache and output paths)."""
        workers = str(min(2, os.cpu_count() or 1))
        return [*self.config_args, "--workers", workers,
                "--seed", str(sim_seed)]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            "gups-cold",
            "GUPS on native, virt and nested, all 15 designs, 4 KB pages, "
            "cold cache: stage-2 replay and ECPT/FPT walker builds dominate",
            ("--env", "native,virt,nested", "--workloads", "GUPS",
             "--pages", "4k", "--nrefs", "16000"),
        ),
        Workload(
            "btree-thp-cold",
            "BTree on native and virt, all 13 designs, THP pages, cold "
            "cache: every layer takes its 2 MB branch, high page reuse",
            ("--env", "native,virt", "--workloads", "BTree",
             "--pages", "thp", "--nrefs", "16000"),
            # a short sweep: a run takes the median of two
            min_sweeps=2,
        ),
        Workload(
            "grid-warm",
            "Canneal and BTree x 3 envs x vanilla/dmt/pvdmt re-swept from a "
            "warm cache: zero replays, machine build and artifact reads "
            "dominate",
            # Two groups on two workers: each group has a worker process
            # (and a CPU) of its own, so which groups share a process,
            # and so peak RSS and the critical path, never vary.
            ("--env", "native,virt,nested", "--workloads", "Canneal,BTree",
             "--designs", "vanilla,dmt,pvdmt", "--pages", "4k",
             "--nrefs", "4000"),
            warm=True,
            min_sweeps=2,
        ),
    )
}
