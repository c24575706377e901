"""Modeled costs of DMT's OS-side management work (§6.3).

DMT trades infrequent VMA/TEA management for cheap translations; the paper
quantifies the management side on a real, deliberately fragmented machine.
We model each management operation with a calibrated latency and accumulate
them in a ledger so the §6.3 overhead experiment can report totals.

Calibration anchors (from §6.3):

* TEA allocation: 13.27 / 23.73 / 48.07 ms for 50 / 100 / 200 MB in a VM —
  a linear fit gives ~1.8 ms base + ~0.232 ms/MB (see
  :mod:`repro.virt.hypercall`).
* Bare hypercall: 1.88 us single-level, 10.75 us nested.
* End-to-end management totals for Redis (the heaviest workload): ~12 ms
  native, ~120 ms virtualized, ~598 ms nested — environment multipliers of
  roughly 1x / 10x / 50x over native management cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

#: Version of the calibrated cost model (management-op bases, cache/TLB
#: latencies, walk-cost accounting). Bump on ANY change that can alter
#: replayed cycle counts: the stage-2 result cache folds this constant
#: into its content-addressed key, so stale cached cells are never
#: served across a cost-model change. Version 2: each walker owns its
#: ECPT cuckoo-walk cache.
COST_MODEL_VERSION = 2

#: Fixed CPU cost of bookkeeping per management op, microseconds.
#: Anchored to the §6.3 management-overhead measurements: the per-op bases
#: are back-fitted so Redis's op mix reproduces §6.3's ~12 ms native total.
OP_BASE_US = {
    "tea_create": 120.0,       # §6.3 fit: VMA bookkeeping + buddy call
    "tea_delete": 40.0,        # §6.3 fit: teardown is ~1/3 of create
    "tea_expand": 80.0,        # §6.3 fit: in-place growth, no migration
    "tea_split": 100.0,        # §6.3 fit: split on contiguity failure
    "mapping_merge": 90.0,     # §6.3 fit: VMA merge path
    "tea_migrate_page": 3.0,   # per 4 KB of PTEs moved (§6.3 migration slope)
    "register_reload": 0.4,    # §6.2 fit: on-fault register-file refill
    "defrag": 900.0,           # §6.3 fit: compaction episode amortized
}

#: Per-MB cost of zeroing/placing the PTE pages of a freshly created TEA.
#: Slope of the §6.3 TEA-allocation fit (13.27/23.73/48.07 ms at
#: 50/100/200 MB), scaled from VM to native by the environment multiplier.
TEA_TOUCH_US_PER_MB = 55.0


class Environment(enum.Enum):
    """Where management work runs; deeper virtualization costs more.

    Multipliers from the §6.3 end-to-end Redis totals: ~12 ms native,
    ~120 ms virtualized, ~598 ms nested — 1x / 10x / 50x.
    """

    NATIVE = 1.0
    VIRTUALIZED = 10.0
    NESTED = 50.0          # §6.3: 598/12 rounded to the paper's "~50x"


@dataclass
class LedgerEntry:
    op: str
    micros: float
    detail: str = ""


@dataclass
class ManagementLedger:
    """Accumulates modeled DMT-Linux management time."""

    environment: Environment = Environment.NATIVE
    entries: List[LedgerEntry] = field(default_factory=list)

    def record(self, op: str, extra_us: float = 0.0, detail: str = "") -> float:
        base = OP_BASE_US.get(op, 0.0)
        micros = (base + extra_us) * self.environment.value
        self.entries.append(LedgerEntry(op, micros, detail))
        return micros

    @property
    def total_us(self) -> float:
        return sum(entry.micros for entry in self.entries)

    @property
    def total_ms(self) -> float:
        return self.total_us / 1000.0

    def by_op(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for entry in self.entries:
            totals[entry.op] = totals.get(entry.op, 0.0) + entry.micros
        return totals
