"""Machine-state pin: the full substrate a simulation builds, hashed.

Each case builds one environment at test scale, then every design's
walker (which builds the ECPT/FPT mirrors and the shadow tables), and
hashes with SHA-256 everything a later replay can observe of the build:
every ``PhysicalMemory`` word store, each radix page table's table index
and mapped pages in insertion order with its write and allocation
counters, each VM's reverse map and exit counters, every buddy
allocator's free state, and the ECPT/FPT layouts. The pinned digests
were recorded before page-table slots were resolved through the table
index and before machine build pre-touched memory in 2 MB runs; both
changes must leave every byte of machine state where it was.

Process ids and VM ids come from process-global counters, so they (and
the ASIDs derived from them) are left out: the digest of a case does not
depend on what ran before it in the same interpreter.
"""

import hashlib
import json

import pytest

from repro.sim.machine import ENVIRONMENTS, SimConfig

WORKLOAD = "BTree"

#: (env, thp) -> SHA-256 of the machine state after every walker build.
PINNED = {
    ("native", False):
        "78aa8d351633b151ac4b313371aea88979150448e05ec1456688fb5a730b4793",
    ("native", True):
        "322672122053279e7cbe03e909d5aec9e0bb5fa3185a921b69a601799fe3b12b",
    ("virt", False):
        "58d1359601f103048e15a6680944fbd1f46641dfcaa24984965cf0643c1dddaa",
    ("virt", True):
        "f8a0c626a84f3876ac0d799621fe0122280aeb6c3985a4654737ff0a347fdc47",
    ("nested", False):
        "6f6e6e2e22e03754e623831540118f669b5bb94d90d2f67388b16edda07866e7",
    ("nested", True):
        "40fb9c8caf45e82ab80279191cefc8e504a8e18401eb76aae9a4708b7e36e5e4",
}


def _memory_state(memory):
    alloc = memory.allocator
    return {
        "words": sorted(memory._words.items()),
        "free_lists": [list(free) for free in alloc.free_lists],
        "allocated": list(alloc._allocated.items()),
        "movable": sorted(alloc._movable),
        "buddy_stats": vars(alloc.stats),
    }


def _page_table_state(pt):
    return {
        "levels": pt.levels,
        "root": pt.root_frame,
        "tables": [[level, key, frame]
                   for (level, key), frame in pt._tables.items()],
        "mapped": [[va, int(size)] for va, size in pt._mapped_pages.items()],
        "pte_writes": pt.stats.pte_writes,
        "tables_allocated": pt.stats.tables_allocated,
        "tables_freed": pt.stats.tables_freed,
    }


def _vm_state(vm):
    return {
        "ept": _page_table_state(vm.ept),
        "reverse": list(vm._reverse.items()),
        "exits": vars(vm.exits),
        "guest": _kernel_state(vm.guest_kernel),
    }


def _kernel_state(kernel):
    return {
        "memory": _memory_state(kernel.memory),
        "processes": [_page_table_state(proc.page_table)
                      for proc in kernel.processes.values()],
    }


def _ecpt_state(ecpt):
    if ecpt is None:
        return None
    return [{"size": int(size), "nbuckets": table.nbuckets,
             "groups": table.groups, "resizes": table.resizes,
             "way_frames": table._way_frames,
             "tags": [list(tags.items()) for tags in table._tags]}
            for size, table in ecpt.tables.items()]


def _fpt_state(fpt):
    if fpt is None:
        return None
    return {"root": fpt.root_frame, "leaves": list(fpt._leaves.items()),
            "huge": list(fpt._huge_tables.items()), "mapped": fpt.mapped}


def machine_state(sim) -> dict:
    """Everything the build left behind, as a JSON-able dict."""
    env = sim.env_name
    if env == "native":
        return {"host": _kernel_state(sim.kernel),
                "ecpt": _ecpt_state(sim._ecpt), "fpt": _fpt_state(sim._fpt)}
    if env == "virt":
        return {
            "host": _kernel_state(sim.host_kernel),
            "vm": _vm_state(sim.vm),
            "spt": _page_table_state(sim._shadow.spt),
            "ecpt": [_ecpt_state(sim._guest_ecpt),
                     _ecpt_state(sim._host_ecpt)],
            "fpt": [_fpt_state(sim._guest_fpt), _fpt_state(sim._host_fpt)],
        }
    nested = sim.nested
    return {
        "host": _kernel_state(sim.host_kernel),
        "l1": _vm_state(nested.l1_vm),
        "l2": _vm_state(nested.l2_vm),
        "spt": _page_table_state(nested.shadow.spt),
    }


def machine_digest(env: str, thp: bool) -> str:
    config = SimConfig(thp=thp).small(nrefs=2_000)
    sim = ENVIRONMENTS[env](WORKLOAD, config)
    for design in sim.designs:
        sim.walker(design)
    blob = json.dumps(machine_state(sim), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


@pytest.mark.parametrize("env,thp", sorted(PINNED),
                         ids=[f"{env}-{'thp' if thp else '4k'}"
                              for env, thp in sorted(PINNED)])
def test_machine_state_matches_pinned_digest(env, thp):
    assert machine_digest(env, thp) == PINNED[(env, thp)]
