"""Trace-driven simulation: TLB filtering + per-design walk replay.

Stage 1 runs a workload's address trace through the two-level TLB
hierarchy once, producing the stream of TLB-miss addresses (with the page
size each translation would install). Stage 2 replays that *same* miss
stream through each translation design's walker, so designs are compared
on identical inputs — the structure of the paper's DynamoRIO methodology
(§5) at simulation scale.

Stage 1 runs on :mod:`repro.sim.tlb_vec`, which batches the
per-reference work with NumPy and runs a chunked state machine over
flat set/way arrays. :func:`tlb_filter_scalar`, the per-reference
:class:`~repro.hw.tlb.TLBHierarchy` loop, is kept as the reference
oracle; the two are bit-identical by construction and by test
(``tests/test_tlb_vec.py``).

Stage 2 has two engines that are bit-identical on every design:
:func:`replay_walks_scalar` (the per-walk oracle) and
:func:`repro.sim.walk_vec.replay_walks_vec` (batched). No setting picks
between them; :func:`replay_walks` derives the engine from facts it can
see, by one rule: the sanitizer is active, the walker has no batched
path (:func:`repro.sim.walk_vec.unsupported_reason` names why), or the
Figure 16 step breakdown was asked for (``collect_steps``: only the
oracle records per-step latencies) → scalar, with the reason recorded
as ``WalkStats.fallback_reason``; otherwise → vec.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch import PageSize
from repro.hw.config import MachineConfig
from repro.hw.tlb import TLBHierarchy
from repro.obs import metrics
from repro.obs import trace as obs_trace
from repro.sim import tlb_vec
from repro.translation.base import Walker

SizeLookup = Callable[[int], PageSize]

#: Page size is uniform within a 2 MB region, so classification memoizes
#: per 2 MB "unit" (VA >> this shift).
_UNIT_SHIFT = int(PageSize.SIZE_2M)


@dataclass
class TLBFilterResult:
    """Stage-1 output: which references missed the TLB hierarchy.

    ``miss_vas`` is an int64 ndarray (the replay fast path and the
    vectorized engine hand arrays around without copying).
    """

    miss_vas: np.ndarray
    total_refs: int

    def __post_init__(self):
        self.miss_vas = np.asarray(self.miss_vas, dtype=np.int64)

    @property
    def miss_count(self) -> int:
        return len(self.miss_vas)

    @property
    def miss_rate(self) -> float:
        return self.miss_count / self.total_refs if self.total_refs else 0.0


class SizeClassifier:
    """Page size of the translation covering a VA (memoized per 2 MB unit).

    The TLB needs the installed translation's page size; under THP a VMA
    mixes 4 KB and 2 MB pages. Page size is uniform within a 2 MB region
    in this simulator, so memoization is exact — and the batch interface
    can classify whole traces with one page-table lookup per unique
    region, sharing the same memo dict as the scalar calls.
    """

    def __init__(self, page_table):
        self._page_table = page_table
        self._cache: Dict[int, PageSize] = {}

    def __call__(self, va: int) -> PageSize:
        size = self._cache.get(va >> _UNIT_SHIFT)
        if size is None:
            return self._classify(va >> _UNIT_SHIFT, va)
        return size

    def _classify(self, unit: int, va: int) -> PageSize:
        found = self._page_table.lookup(va)
        size = found[2] if found is not None else PageSize.SIZE_4K
        self._cache[unit] = size
        return size

    def batch_units(self, units: np.ndarray) -> np.ndarray:
        """Page-size *shifts* for an array of unique 2 MB unit indices."""
        cache = self._cache
        shifts = np.empty(len(units), dtype=np.int64)
        for pos, unit in enumerate(units.tolist()):
            size = cache.get(unit)
            if size is None:
                size = self._classify(unit, unit << _UNIT_SHIFT)
            shifts[pos] = int(size)
        return shifts

    def batch(self, vas: np.ndarray) -> np.ndarray:
        """Per-reference page-size shifts for a whole trace."""
        return tlb_vec.classify_trace(
            np.asarray(vas, dtype=np.int64), self
        )


def make_size_lookup(page_table) -> SizeClassifier:
    """Build the (batch-capable) size classifier for a page table."""
    return SizeClassifier(page_table)


def tlb_accept_rates(machine: MachineConfig, ws_bytes: int,
                     paper_ws_bytes: int) -> Dict[PageSize, float]:
    """Per-page-size TLB hit-acceptance rates for a scaled working set.

    A TLB entry of page size ``p`` covers ``entries * p`` bytes; its raw
    hit rate against a working set is roughly min(1, reach/ws). The
    acceptance rate restores the paper-scale hit rate (DESIGN.md §5).
    """
    entries = machine.l2_stlb.entries
    rates = {}
    for size in PageSize:
        reach = entries * size.bytes
        paper_hit = min(1.0, reach / paper_ws_bytes)
        sim_hit = min(1.0, reach / ws_bytes)
        rates[size] = paper_hit / sim_hit if sim_hit else 1.0
    return rates


def tlb_filter_scalar(
    trace: np.ndarray,
    machine: MachineConfig,
    size_lookup: SizeLookup,
    asid: int = 1,
    accept_rates: Optional[Dict[PageSize, float]] = None,
) -> TLBFilterResult:
    """Reference oracle: the original per-reference scalar TLB model."""
    tlbs = TLBHierarchy.from_machine(machine, accept_rates)
    misses: List[int] = []
    lookup = tlbs.lookup
    fill = tlbs.fill
    for va in trace.tolist():
        size = size_lookup(va)
        if not lookup(asid, va, size):
            misses.append(va)
            fill(asid, va, size)
    return TLBFilterResult(np.asarray(misses, dtype=np.int64), len(trace))


def tlb_filter(
    trace: np.ndarray,
    machine: MachineConfig,
    size_lookup: SizeLookup,
    asid: int = 1,
    accept_rates: Optional[Dict[PageSize, float]] = None,
) -> TLBFilterResult:
    """Run stage 1: return the TLB-miss address stream.

    Runs the batched NumPy engine; :func:`tlb_filter_scalar` is its
    bit-identical oracle.
    """
    with obs_trace.span("stage1.tlb_filter", refs=len(trace)) as sp:
        misses = tlb_vec.filter_misses(trace, machine, size_lookup,
                                       asid=asid, accept_rates=accept_rates)
        result = TLBFilterResult(misses, len(trace))
        if sp is not None:
            sp["misses"] = result.miss_count
        return result


@dataclass
class WalkStats:
    """Stage-2 output for one design."""

    design: str
    walks: int = 0
    total_cycles: int = 0
    fallbacks: int = 0
    ref_count: int = 0
    #: per-position mean breakdown for Figure 16 (tag -> [sum, count])
    step_cycles: Dict[str, List[float]] = field(default_factory=dict)
    #: Which stage-2 engine produced these stats ("scalar" or "vec").
    #: Telemetry only — excluded from equality so parity tests can
    #: compare the engines' WalkStats directly.
    engine: str = field(default="scalar", compare=False)
    #: Why the replay ran on the scalar loop (the
    #: :func:`repro.sim.walk_vec.unsupported_reason` string or
    #: :data:`STEP_COLLECTION_REASON`), or None when the vec engine
    #: ran. Telemetry only, like ``engine``.
    fallback_reason: Optional[str] = field(default=None, compare=False)

    @property
    def mean_latency(self) -> float:
        return self.total_cycles / self.walks if self.walks else 0.0

    @property
    def fallback_rate(self) -> float:
        return self.fallbacks / self.walks if self.walks else 0.0

    def overhead_cycles(self) -> int:
        """Total translation overhead O_sim of §5's model."""
        return self.total_cycles

    def step_breakdown(self) -> Dict[str, float]:
        """Mean cycles per step tag (only populated with record_refs)."""
        return {
            tag: total / count
            for tag, (total, count) in self.step_cycles.items()
        }


#: The ``fallback_reason`` of a step-collecting replay: the batched
#: engines replay only, so the Figure 16 breakdown runs on the oracle.
STEP_COLLECTION_REASON = ("step collection: only the scalar oracle "
                          "records per-step latencies")

#: Misses converted per chunk by the scalar replay loop: slices convert
#: through ``.tolist()`` piecewise instead of materializing the whole
#: miss stream as one Python list up front.
_REPLAY_CHUNK = 1 << 16


def _chunked_ints(vas: np.ndarray, start: int, stop: int):
    """Yield ``vas[start:stop]`` as Python ints, one chunk at a time."""
    for lo in range(start, stop, _REPLAY_CHUNK):
        yield from vas[lo:min(lo + _REPLAY_CHUNK, stop)].tolist()


def replay_walks_scalar(
    walker: Walker,
    miss_vas: Union[np.ndarray, Sequence[int]],
    warmup_fraction: float = 0.1,
    collect_steps: bool = False,
) -> WalkStats:
    """The scalar stage-2 engine: one ``walker.translate`` per miss.

    This loop is the reference oracle every batched engine is tested
    against. The first ``warmup_fraction`` of misses warm the PTE
    caches/PWCs and are excluded from the statistics (the paper's
    simulator similarly measures steady state over
    multi-billion-instruction traces). When ``collect_steps`` is off the
    loop keeps its counters in locals and allocates nothing per walk
    beyond what the walker itself returns.
    """
    vas = np.asarray(miss_vas, dtype=np.int64)
    stats = WalkStats(design=walker.name)
    total = len(vas)
    warmup = int(total * warmup_fraction)
    translate = walker.translate
    for va in _chunked_ints(vas, 0, warmup):
        translate(va)
    if not collect_steps:
        walks = total_cycles = ref_count = fallbacks = 0
        for va in _chunked_ints(vas, warmup, total):
            result = translate(va)
            walks += 1
            total_cycles += result.cycles
            ref_count += len(result.refs)
            if result.fallback:
                fallbacks += 1
        stats.walks = walks
        stats.total_cycles = total_cycles
        stats.ref_count = ref_count
        stats.fallbacks = fallbacks
        return stats
    for va in _chunked_ints(vas, warmup, total):
        result = translate(va)
        stats.walks += 1
        stats.total_cycles += result.cycles
        stats.ref_count += len(result.refs)
        if result.fallback:
            stats.fallbacks += 1
        if result.refs:
            # collapse parallel groups: one logical step per group
            seen_groups: Dict[int, str] = {}
            position = 0
            for ref in result.refs:
                if ref.group >= 0:
                    if ref.group in seen_groups:
                        continue
                    seen_groups[ref.group] = ref.tag
                position += 1
                key = f"{position:02d}:{ref.tag}"
                bucket = stats.step_cycles.setdefault(key, [0.0, 0])
                bucket[0] += ref.latency
                bucket[1] += 1
    return stats


def replay_walks(
    walker: Walker,
    miss_vas: Union[np.ndarray, Sequence[int]],
    warmup_fraction: float = 0.1,
    collect_steps: bool = False,
) -> WalkStats:
    """Run stage 2: replay the miss stream through one design.

    This is the only place an engine is chosen, by the rule in the
    module docstring; the engine follows from the walker and the
    process, never from a setting.
    """
    from repro.sim import walk_vec

    reason = walk_vec.unsupported_reason(walker)
    if reason is None and collect_steps:
        reason = STEP_COLLECTION_REASON
    if reason is None:
        return walk_vec.replay_walks_vec(
            walker, miss_vas, warmup_fraction=warmup_fraction)
    stats = replay_walks_scalar(walker, miss_vas, warmup_fraction,
                                collect_steps)
    stats.fallback_reason = reason
    return stats


class Stage1Cache:
    """Sweep-wide stage-1 memo: trace + TLB-miss stream, computed once.

    Grid cells that share a stage-1 input signature — workload, scale,
    trace length, seed, THP mode, tree depth, MMU-cache scaling — produce
    the same miss stream regardless of environment: the workload layout
    and trace are deterministic in the process address space, and the
    TLB filter sees only virtual addresses and page sizes
    (``tests/test_walk_vec.py`` pins the cross-environment identity).
    A sweep group shares one instance across its environments so the
    trace is generated and TLB-filtered once per (workload, config,
    THP) group instead of once per environment.

    With an :class:`~repro.sim.artifacts.ArtifactCache` attached the
    memo extends across processes and runs: a key absent from the
    in-memory dict is looked up on disk (stage ``"stage1"``, keyed by
    the same signature) before being recomputed, and fresh computations
    are persisted for the next run. The lookup order is memory, disk,
    build.

    ``fetch`` records telemetry: ``last_seconds`` is the stage-1 wall
    time of the entry served (the original compute time when reused)
    and ``last_reused`` whether it avoided a recompute; ``last_source``
    distinguishes ``"memo"`` / ``"disk"`` / ``"computed"``.
    """

    def __init__(self, artifacts=None):
        self._entries: Dict[Tuple, Tuple[TLBFilterResult, float]] = {}
        #: Optional :class:`~repro.sim.artifacts.ArtifactCache`.
        self.artifacts = artifacts
        self._computed = metrics.counter("stage1.computed")
        self._reused = metrics.counter("stage1.reused")
        self.last_seconds = 0.0
        self.last_reused = False
        self.last_source = "none"
        #: Set by a build that already persisted its own entry (the
        #: streaming pipeline commits a *segmented* stage-1 artifact as
        #: it spills miss segments); suppresses the monolithic
        #: ``store_array`` that would otherwise replace that manifest.
        self.last_persisted = False

    @property
    def computed(self) -> int:
        return self._computed.value

    @property
    def reused(self) -> int:
        return self._reused.value

    def fetch(self, key: Tuple,
              build: Callable[[], TLBFilterResult]) -> TLBFilterResult:
        entry = self._entries.get(key)
        if entry is not None:
            self._reused.inc()
            self.last_seconds = entry[1]
            self.last_reused = True
            self.last_source = "memo"
            return entry[0]
        if self.artifacts is not None:
            # mmap: workers replaying the same miss stream share the
            # cache file's pages instead of each materializing a copy.
            loaded = self.artifacts.load_array("stage1", list(key),
                                               mmap=True)
            if loaded is not None:
                miss_vas, meta = loaded
                result = TLBFilterResult(miss_vas,
                                         int(meta.get("total_refs", 0)))
                seconds = float(meta.get("seconds", 0.0))
                self._entries[key] = (result, seconds)
                self._reused.inc()
                self.last_seconds = seconds
                self.last_reused = True
                self.last_source = "disk"
                return result
        start = time.perf_counter()
        self.last_persisted = False
        result = build()
        seconds = time.perf_counter() - start
        self._entries[key] = (result, seconds)
        self._computed.inc()
        self.last_seconds = seconds
        self.last_reused = False
        self.last_source = "computed"
        if self.artifacts is not None and not self.last_persisted:
            self.artifacts.store_array(
                "stage1", list(key), result.miss_vas,
                {"total_refs": result.total_refs, "seconds": seconds})
        return result

    def mark_persisted(self) -> None:
        """Tell the in-flight ``fetch`` its build already hit the disk."""
        self.last_persisted = True


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of the positive entries of ``values``.

    Zero or negative entries cannot enter a geometric mean; silently
    dropping them would let one broken design stat inflate a summary
    unnoticed, so their presence raises a ``RuntimeWarning`` (they are
    still excluded, preserving the historical result).
    """
    raw = np.asarray(list(values), dtype=np.float64)
    arr = raw[raw > 0]
    if arr.size < raw.size:
        warnings.warn(
            f"geomean: discarding {raw.size - arr.size} non-positive "
            f"value(s) out of {raw.size}",
            RuntimeWarning, stacklevel=2,
        )
    if arr.size == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(arr))))
