"""Vectorized stage-2 walk replay (the batched simulation engine).

The scalar stage-2 loop calls ``walker.translate(va)`` once per TLB
miss: every walk allocates a ``WalkRecorder`` and a ``WalkResult``,
re-reads static page-table words, re-derives table indices, and builds
tag strings — even in bulk mode. This module is the batched
replacement, following the :mod:`repro.sim.tlb_vec` pattern:

1. **Planning** (NumPy + one pass): every stage-2 statistic depends
   only on the miss's 4 KB VPN, and the translation structures are
   static during a replay — so :func:`_plan_replay` plans each *unique*
   VPN once, in first-occurrence order (:func:`first_occurrence`). A
   :class:`Plan` precomputes the walk chain's PTE fetch addresses, the
   PWC fill keys/values, and (for DMT) the exact fetch groups the
   register file would issue, captured by running the real
   :class:`~repro.core.fetcher.DMTFetcher` with a recording callback.
   Plans are flat columns of Python ints indexed by plan row.
2. **Chunked state machine**: the sequential, history-dependent state —
   PTE-cache LRU sets, PWC/nested-PWC LRU tables, credit-counter
   thinning — runs in a tight chunked loop over the live flat dicts
   exposed by ``batch_view()`` (:mod:`repro.hw.cache`,
   :mod:`repro.hw.pwc`). Every LRU touch, install, eviction, and
   float credit update replicates the scalar operation in the scalar
   order, so cycles, ref counts, fallbacks, and the post-replay
   cache/PWC state are **bit-identical** to the oracle.

The engine has one job, plain replay. The Figure 16 per-step breakdown
(``collect_steps``) comes from the scalar oracle alone: the stage-2
dispatch resolves a step-collecting replay to
:func:`repro.sim.simulator.replay_walks_scalar`, so no plan carries step
tags and no runner records steps.

Supported walkers (via :meth:`~repro.translation.base.Walker.batch_spec`):
radix native/shadow, radix nested, every DMT/pvDMT variant (register
hit -> direct TEA fetch groups; register miss -> the radix fallback
plan, with the attempt's cache traffic applied uncounted, exactly like
the scalar ``_run``), and the four prior designs — ECPT (hashed-bucket
probing with the walker's live Cuckoo Walk Cache replayed in scalar
order), FPT (fully static flattened two-level plans), Agile Paging
(shadow chain + nested data leaf, split per walk at the guest-leaf
boundary), and ASAP (static prefetch address plans wrapped around the
inner radix plan, with the completion-max cost model). ECPT and FPT
plans compile to a small per-VPN op program (fetch / background probe /
parallel group / CWC-predicted probe step, :class:`_OpProgram`)
replayed by one interpreter that reproduces ``WalkRecorder`` group
episodes bit-for-bit;
``tests/test_walk_vec.py`` pins parity for every design.

:func:`unsupported_reason` names why a walker cannot batch (sanitized
run or missing spec); the stage-2 dispatch
(:func:`repro.sim.simulator.replay_walks`) then runs the scalar loop
and records it as ``WalkStats.fallback_reason`` instead of silently
reporting a scalar replay.

The planning pass preserves lazy first-touch side effects (EPT
backfill, shadow-table extension) by visiting unique VPNs in
first-occurrence order — and, for DMT, by planning register-miss
fallbacks in a second pass over only the VPNs whose attempt fell back,
which is the order the scalar loop would have touched them.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.analysis import sanitizer
from repro.arch import (
    ENTRIES_PER_TABLE,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_SIZE,
    TABLE_INDEX_BITS,
    PageSize,
    level_index,
)
from repro.hw.pwc import cwc_key
from repro.kernel.page_table import PTE_HUGE, PTE_PRESENT, pte_frame
from repro.obs import trace as obs_trace
from repro.translation.base import BatchSpec, MemorySubsystem, Walker

#: Misses processed per chunk; bounds the transient Python-list
#: footprint regardless of miss-stream length.
DEFAULT_CHUNK = 1 << 16

_IDX_MASK = ENTRIES_PER_TABLE - 1
_OFFSET_MASK = PAGE_SIZE - 1
_LEAF_BYTES = {1: PageSize.SIZE_4K.bytes, 2: PageSize.SIZE_2M.bytes,
               3: PageSize.SIZE_1G.bytes}

#: Ints per op row of an ECPT/FPT op program (:class:`_OpProgram`).
OP_WIDTH = 7

#: Chain-node memo sentinels (a table frame may legitimately be 0).
_DEAD = object()    # not-present PTE: the chain ends here
_LEAF = object()    # leaf PTE (level 1 or PS bit)
_NEXT = object()    # interior PTE: payload is the next table's address


def unsupported_reason(walker: Walker) -> Optional[str]:
    """Why ``walker`` cannot take the batched path, or None if it can.

    Every design has a planner, so the only fallbacks left are a
    sanitized run (the sanitizer hooks the scalar structures) and a
    walker exposing no :meth:`~repro.translation.base.Walker.batch_spec`.
    The stage-2 dispatch records this string as
    ``WalkStats.fallback_reason``.
    """
    if sanitizer.active():
        return "sanitizer active: batched replay bypasses its hooks"
    if walker.batch_spec() is None:
        return "walker exposes no batch spec"
    return None


# --------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------- #

@contextmanager
def _gc_paused():
    """Pause the cyclic GC for a block, then restore the caller's setting.

    Planning and replay allocate at a small bounded rate, so pausing
    the collector costs nothing semantically.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def first_occurrence(vpns: np.ndarray) -> Tuple[List[int], np.ndarray]:
    """Unique VPNs in first-occurrence order, plus each miss's plan row.

    Planning must touch lazily populated structures in the order the
    scalar loop would, so plans are built over ``uniq`` in this order
    and row ``p`` of every plan column belongs to ``uniq[p]``;
    ``pidx[i]`` is the row of miss ``i``.
    """
    uniq, first_index, inverse = np.unique(
        vpns, return_index=True, return_inverse=True)
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(uniq.size, dtype=np.int64)
    return uniq[order].tolist(), np.ascontiguousarray(
        rank[inverse.reshape(-1)], dtype=np.int64)


class Plan(NamedTuple):
    """One cell's plan, in the flat column layout the runners read.

    ``cols`` holds the kind's plan columns as Python int lists indexed
    by plan row (see :func:`first_occurrence`) or by the offsets those
    rows hold; the runners index them directly.
    """

    spec: BatchSpec
    cols: tuple
    #: The page-walk cache the walk probes and fills (radix, agile).
    pwc: object = None
    #: DMT: the radix plan over the fallback VPNs; ASAP: the inner
    #: radix plan over the same rows.
    sub: Optional["Plan"] = None
    #: Agile: the shadow chain's top level.
    chain_top: int = 0
    #: ASAP: cycles added to a prefetch completion.
    chain_hop: int = 0

    @property
    def kind(self) -> str:
        return self.spec.kind


def _plan_replay(walker: Walker, uniq_vpns: List[int]) -> Plan:
    """Plan ``walker``'s replay over ``uniq_vpns`` (first-occurrence order).

    The one planning entry of the batched engine: it picks the PWC
    and its depth, runs DMT's second pass over only the VPNs whose
    register attempt fell back, and interleaves ASAP's prefetch plan
    before each VPN's chain, so lazy first-touch side effects happen in
    the scalar loop's order (DESIGN.md §8).
    """
    spec = walker.batch_spec()
    memsys = walker.memsys
    kind = spec.kind
    if kind == "dmt":
        cols, fallback_vpns = _plan_dmt(spec, uniq_vpns)
        fallback = _plan_radix(spec.fallback.batch_spec(), memsys,
                               fallback_vpns)
        return Plan(spec, cols, sub=fallback)
    if kind in ("asap-native", "asap-nested"):
        return _plan_asap(walker, spec, memsys, uniq_vpns)
    if kind == "agile":
        pwc = memsys.pwc
        chain_top = min(pwc.top_level, spec.guest_pt.levels)
        cols = _plan_agile(spec, pwc.top_level, _n_offsets(pwc), chain_top,
                           uniq_vpns)
        return Plan(spec, cols, pwc=pwc, chain_top=chain_top)
    if kind in _OPS_PLANNERS:
        program = _OpProgram()
        _OPS_PLANNERS[kind](spec, uniq_vpns, program)
        return Plan(spec, program.columns())
    return _plan_radix(spec, memsys, uniq_vpns)


def _n_offsets(pwc) -> int:
    return len(pwc.config.entries_per_level)


def _plan_radix(spec: BatchSpec, memsys: MemorySubsystem,
                uniq_vpns: List[int], prefetch=None) -> Plan:
    """A radix-native (host PWC) or radix-nested (guest PWC) plan."""
    if spec.kind == "radix-native":
        pwc = memsys.pwc
        cols = _plan_radix_native(spec.page_table, memsys.caches,
                                  pwc.top_level, _n_offsets(pwc), uniq_vpns)
        return Plan(spec, cols, pwc=pwc)
    pwc = memsys.guest_pwc
    cols = _plan_radix_nested(spec.guest_pt, spec.vm, pwc.top_level,
                              _n_offsets(pwc), uniq_vpns, prefetch)
    return Plan(spec, cols, pwc=pwc)


# --------------------------------------------------------------------- #
# Planners
# --------------------------------------------------------------------- #

def _plan_radix_native(page_table, caches, top_level: int, n_offsets: int,
                       uniq_vpns: List[int]):
    """Column-major native walk chains over a static radix table.

    All per-step quantities a replayed walk needs are precomputed with
    NumPy into flat row-major lists of stride ``top_level``: the cache
    line and set index per hierarchy level (so the hot loop does only
    dict operations, no address arithmetic) and the PWC fill key/value
    (key ``-1`` where the scalar walk would not fill — the leaf step, a
    dead or huge-page terminal, or an offset beyond the PWC depth).
    Page-table reads are pure (``PhysicalMemory.read_word``), one per
    distinct table node via a ``(level, prefix)`` memo, so the
    level-major traversal order cannot diverge from the scalar walk.

    Returns ``(row_base, chain_len, columns)`` with ``columns = (line,
    idx per level ..., fill_key, fill_val)``.
    """
    read = page_table.memory.read_word
    root = page_table.root_frame
    vpn_arr = np.asarray(uniq_vpns, dtype=np.int64)
    n = int(vpn_arr.size)
    lengths = np.zeros(n, dtype=np.int64)
    # Levels sharing a line size (and set count) share one column.
    line_cache: dict = {}
    idx_cache: dict = {}
    line_mats, idx_mats = [], []
    for view in (level.batch_view() for level in caches.levels):
        line_mat = line_cache.get(view.line_shift)
        if line_mat is None:
            line_mat = np.zeros((n, top_level), dtype=np.int64)
            line_cache[view.line_shift] = line_mat
        idx_key = (view.line_shift, view.num_sets)
        idx_mat = idx_cache.get(idx_key)
        if idx_mat is None:
            idx_mat = np.zeros((n, top_level), dtype=np.int64)
            idx_cache[idx_key] = idx_mat
        line_mats.append(line_mat)
        idx_mats.append(idx_mat)
    fkey_mat = np.full((n, top_level), -1, dtype=np.int64)
    fval_mat = np.zeros((n, top_level), dtype=np.int64)

    nodes: dict = {}
    active = np.arange(n)
    frames = np.full(n, root, dtype=np.int64)
    for depth, level in enumerate(range(top_level, 0, -1)):
        shift = TABLE_INDEX_BITS * (level - 1)
        sub = vpn_arr[active]
        index = (sub >> shift) & _IDX_MASK
        addr = (frames << PAGE_SHIFT) + index * PTE_SIZE
        for line_shift, line_mat in line_cache.items():
            line_mat[active, depth] = addr >> line_shift
        for (line_shift, num_sets), idx_mat in idx_cache.items():
            idx_mat[active, depth] = (addr >> line_shift) % num_sets
        lengths[active] = depth + 1
        if level == 1:
            break
        prefix = sub >> shift
        uniq_p, first, inverse = np.unique(
            prefix, return_index=True, return_inverse=True)
        next_frames = np.zeros(uniq_p.size, dtype=np.int64)
        continues = np.zeros(uniq_p.size, dtype=bool)
        addr_list = addr.tolist()
        first_list = first.tolist()
        for j, p in enumerate(uniq_p.tolist()):
            node = nodes.get((level, p))
            if node is None:
                pte = read(addr_list[first_list[j]])
                if not pte & PTE_PRESENT:
                    node = _DEAD
                elif pte & PTE_HUGE:
                    node = _LEAF
                else:
                    node = pte_frame(pte)
                nodes[(level, p)] = node
            if node is not _DEAD and node is not _LEAF:
                continues[j] = True
                next_frames[j] = node
        cont_rows = continues[inverse]
        frame_rows = next_frames[inverse]
        if depth < n_offsets:
            fkey_mat[active, depth] = np.where(cont_rows, prefix, -1)
            fval_mat[active, depth] = np.where(
                cont_rows, frame_rows << PAGE_SHIFT, 0)
        active = active[cont_rows]
        frames = frame_rows[cont_rows]
        if active.size == 0:
            break

    flattened: dict = {}

    def flatten(mat):
        out = flattened.get(id(mat))
        if out is None:
            out = mat.ravel().tolist()
            flattened[id(mat)] = out
        return out

    columns = tuple(flatten(mat)
                    for pair in zip(line_mats, idx_mats) for mat in pair)
    return (list(range(0, n * top_level, top_level)), lengths.tolist(),
            columns + (fkey_mat.ravel().tolist(), fval_mat.ravel().tolist()))


def _host_resolver(vm, haddrs: List[int]):
    """The memoized host resolution of a guest frame, ``gfn -> entry``.

    ``entry = (hfn, start, count)``: the host frame and the EPT fetch
    chain as ``haddrs[start:start + count]`` (appended on first
    resolve). ``vm.gpa_to_hpa`` runs before ``ept.walk_steps`` in
    first-touch order, which reproduces the scalar loop's lazy EPT
    backfill / shadow-table extension sequence exactly (allocation
    order determines addresses).
    """
    gpa_to_hpa = vm.gpa_to_hpa
    ept = vm.ept
    memo = {}

    def resolve(gfn: int):
        entry = memo.get(gfn)
        if entry is None:
            hpa = gpa_to_hpa(gfn << PAGE_SHIFT)   # lazy backing first-touch
            steps = ept.walk_steps(gfn << PAGE_SHIFT)
            entry = (hpa >> PAGE_SHIFT, len(haddrs), len(steps))
            haddrs.extend(step.pte_addr for step in steps)
            memo[gfn] = entry
        return entry

    return resolve


def _plan_radix_nested(guest_pt, vm, top_level: int, n_offsets: int,
                       uniq_vpns: List[int], prefetch=None):
    """2D walk chains: guest dimension + memoized host chains.

    Row ``p`` owns guest-level entries ``e_start[p] .. + e_count[p]``.
    Entry ``k`` is the guest-PTE page's guest frame ``e_gfn`` (the
    nested-PWC key), its host frame ``e_hfn`` (the fill value), the
    host chain ``haddrs[e_rs:e_rs + e_rc]`` replayed on a nested-PWC
    miss, the guest PTE's host address ``e_gpte``, and the guest-PWC
    fill ``(e_fo, e_fk, e_fv)`` (``e_fo = -1``: none). ``d_idx[p]``
    indexes the leaf page's host resolution ``(d_gfn, d_hfn, d_rs,
    d_rc)``, or is ``-1`` for a dead chain.

    ``prefetch`` (ASAP) is called per VPN *before* its chain is
    planned: the scalar ASAP walker issues the prefetch — with its own
    lazy ``gpa_to_hpa`` first-touches — before each walk's resolves.
    """
    gread = guest_pt.memory.read_word
    root_gpa = guest_pt.root_frame << PAGE_SHIFT
    (e_start, e_count, e_gfn, e_hfn, e_gpte, e_fo, e_fk, e_fv, e_rs, e_rc,
     d_idx, d_gfn, d_hfn, d_rs, d_rc) = cols = tuple([] for _ in range(15))
    haddrs: List[int] = []
    resolve = _host_resolver(vm, haddrs)
    nodes = {}
    for vpn in uniq_vpns:
        if prefetch is not None:
            prefetch(vpn)
        first = len(e_gfn)
        e_start.append(first)
        table_gpa = root_gpa
        level = top_level
        while True:
            index = (vpn >> (TABLE_INDEX_BITS * (level - 1))) & _IDX_MASK
            gpte_gpa = table_gpa + index * PTE_SIZE
            gfn = gpte_gpa >> PAGE_SHIFT
            hfn, rs, rc = resolve(gfn)
            e_gfn.append(gfn)
            e_hfn.append(hfn)
            e_gpte.append((hfn << PAGE_SHIFT) | (gpte_gpa & _OFFSET_MASK))
            e_rs.append(rs)
            e_rc.append(rc)

            prefix = vpn >> (TABLE_INDEX_BITS * (level - 1))
            cached = nodes.get((level, prefix))
            if cached is None:
                gpte = gread(gpte_gpa)
                if not gpte & PTE_PRESENT:
                    cached = (_DEAD, 0)
                elif level == 1 or gpte & PTE_HUGE:
                    cached = (_LEAF, (pte_frame(gpte), level))
                else:
                    cached = (_NEXT, pte_frame(gpte) << PAGE_SHIFT)
                nodes[(level, prefix)] = cached
            kind, payload = cached

            if kind is _NEXT:
                offset = top_level - level
                if 0 <= offset < n_offsets:
                    e_fo.append(offset)
                    e_fk.append(prefix)
                    e_fv.append(payload)
                else:
                    e_fo.append(-1)
                    e_fk.append(0)
                    e_fv.append(0)
                table_gpa = payload
                level -= 1
                continue
            e_fo.append(-1)
            e_fk.append(0)
            e_fv.append(0)
            if kind is _LEAF:
                leaf_frame, leaf_level = payload
                data_gpa = (leaf_frame << PAGE_SHIFT) \
                    + ((vpn << PAGE_SHIFT) & (_LEAF_BYTES[leaf_level] - 1))
                dgfn = data_gpa >> PAGE_SHIFT
                dhfn, drs, drc = resolve(dgfn)
                d_idx.append(len(d_gfn))
                d_gfn.append(dgfn)
                d_hfn.append(dhfn)
                d_rs.append(drs)
                d_rc.append(drc)
            else:
                d_idx.append(-1)
            break
        e_count.append(len(e_gfn) - first)
    return cols, haddrs


def _plan_dmt(spec: BatchSpec, uniq_vpns: List[int]):
    """DMT attempt columns, captured from the real fetcher.

    Pass 1 of the DMT planner: run the fetcher's attempt for each unique
    VPN with a *recording* fetch callback (reads only — the register
    file, gTEA tables, and page tables are static during a replay), then
    compress the captured references into parallel groups. The fetcher's
    ``hits``/``fallbacks`` counters are snapshot per attempt into the
    plan as deltas (``dh``/``dfb``) and restored afterwards; the runtime
    applies the deltas once per replayed miss, matching the scalar
    loop's counts.

    Row ``p`` holds ``fell[p]`` (1 when the attempt fell back) and groups
    ``g_start[p] .. + g_count[p]``; group ``g`` fetches ``gaddrs[
    ga_start[g]:ga_start[g] + ga_count[g]]``. ``fb_pidx[p]`` is the row
    in the fallback plan, or -1. Returns ``((cols, gaddrs),
    fallback_vpns)``: the fallback VPNs are in first-occurrence order —
    the order the scalar loop would first hand them to the radix
    fallback walker (pass 2 plans those lazily so lazy page-table side
    effects stay in scalar order and non-fallback VPNs trigger none at
    all).
    """
    fetcher = spec.fetcher
    attempt = spec.attempt
    hits0, fallbacks0 = fetcher.hits, fetcher.fallbacks
    (fell, dh, dfb, g_start, g_count, ga_start, ga_count,
     fb_pidx) = cols = tuple([] for _ in range(8))
    gaddrs: List[int] = []
    events = []

    def record(addr: int, _tag: str, group: int) -> None:
        events.append((addr, group))

    fallback_vpns = []
    for vpn in uniq_vpns:
        del events[:]
        hits_before, fb_before = fetcher.hits, fetcher.fallbacks
        result = attempt(vpn << PAGE_SHIFT, record)
        dh.append(fetcher.hits - hits_before)
        dfb.append(fetcher.fallbacks - fb_before)
        g_start.append(len(ga_start))
        open_id = None
        for addr, group in events:
            if group != open_id:
                ga_start.append(len(gaddrs))
                ga_count.append(0)
                open_id = group
            gaddrs.append(addr)
            ga_count[-1] += 1
        g_count.append(len(ga_start) - g_start[-1])
        if result.fallback:
            fell.append(1)
            fb_pidx.append(len(fallback_vpns))
            fallback_vpns.append(vpn)
        else:
            fell.append(0)
            fb_pidx.append(-1)
    fetcher.hits, fetcher.fallbacks = hits0, fallbacks0
    return (cols, gaddrs), fallback_vpns


class _OpProgram:
    """ECPT/FPT per-VPN op programs in the ``ops_chunk`` column layout.

    Row ``p`` starts at ``base_cycles[p]`` and runs op rows
    ``op_start[p] .. + op_count[p]``. ``ops`` is row-major with
    :data:`OP_WIDTH` ints per op row ``(code, a, b, c, d, e, f)``:

    - ``(0, cycles)`` — ``WalkRecorder.charge``: close the open group,
      add the cycles (the *leading* charge is folded into
      ``base_cycles`` — safe only there, because a charge closes an
      open group episode).
    - ``(1, addr)`` — sequential ``fetch``.
    - ``(2, addr)`` — background ``CacheHierarchy.probe``.
    - ``(3, gid, addr)`` — ``fetch_grouped``: parallel group member,
      the episode costs its slowest member.
    - ``(4, has_hit, cwc_key, way, hit_addr, cand_start, cand_count)`` —
      an ECPT probe step (:meth:`probe_step`) over candidates
      ``cand_addr``/``cand_crit[cand_start:cand_start + cand_count]``.
    """

    def __init__(self):
        self.base_cycles: List[int] = []
        self.op_start: List[int] = []
        self.ops: List[int] = []
        self.cand_addr: List[int] = []
        self.cand_crit: List[int] = []

    def walk(self, base_cycles: int) -> None:
        """Open the next row's program."""
        self.base_cycles.append(base_cycles)
        self.op_start.append(len(self.ops) // OP_WIDTH)

    def op(self, code: int, a: int, b: int = 0) -> None:
        self.ops.extend((code, a, b, 0, 0, 0, 0))

    # dmtlint-domain: va=any -- plans probes for guest (gVA) and host (gPA) ECPTs
    def probe_step(self, ecpt, va: int) -> None:
        """One ECPT probe step compiled to a CWC-probe op (opcode 4).

        The static part — which (size, way) hits, the candidate
        addresses, and which candidate shares the hitting line — is
        resolved at plan time with pure reads (``lookup_way`` /
        ``candidate_probes`` touch only ``PhysicalMemory``). The Cuckoo
        Walk Cache prediction is *dynamic* (it depends on replay
        history), so the op carries the packed CWC key and the true way
        and the runners replay ``CuckooWalkCache.get``/``put`` at run
        time.
        """
        hit_addr = None
        for size, table in ecpt.tables.items():
            found = table.lookup_way(va >> int(size))
            if found is not None:
                hit_addr, _, hit_way = found
                hit_size = size
                break
        hit_line = hit_addr >> 6 if hit_addr is not None else None
        cand_start = len(self.cand_addr)
        matched = False
        for addr, _size, _vpn in ecpt.candidate_probes(va):
            crit = (hit_line is not None and addr >> 6 == hit_line
                    and not matched)
            if crit:
                matched = True
            self.cand_addr.append(addr)
            self.cand_crit.append(1 if crit else 0)
        count = len(self.cand_addr) - cand_start
        if hit_addr is None:
            self.ops.extend((4, 0, 0, -1, 0, cand_start, count))
        else:
            key = cwc_key(int(hit_size), (va >> int(hit_size)) >> 3)
            self.ops.extend((4, 1, key, hit_way, hit_addr, cand_start,
                             count))

    def columns(self) -> tuple:
        """The ``cols`` of :class:`Plan`."""
        ends = self.op_start[1:] + [len(self.ops) // OP_WIDTH]
        op_count = [end - start for start, end in zip(self.op_start, ends)]
        return (self.base_cycles, self.op_start, op_count, self.ops,
                self.cand_addr, self.cand_crit)


def _plan_ecpt_native(spec: BatchSpec, uniq_vpns: List[int],
                      program: _OpProgram) -> None:
    """Native ECPT: hash charge + one probe step per walk."""
    from repro.translation.ecpt import HASH_CYCLES

    ecpt = spec.ecpt
    for vpn in uniq_vpns:
        program.walk(HASH_CYCLES)
        program.probe_step(ecpt, vpn << PAGE_SHIFT)


def _plan_ecpt_nested(spec: BatchSpec, uniq_vpns: List[int],
                      program: _OpProgram) -> None:
    """Nested ECPT: the three sequential steps compiled to one op list.

    Step 1 host-resolves every guest candidate (a full probe step when
    the candidate shares the guest hit's line, background probes
    otherwise), step 2 fetches the resolved guest candidates, step 3
    host-resolves the data page after a fresh hash charge — all
    determined statically except the CWC predictions, which ride in the
    opcode-4 rows. Only the walker's CWC is consulted, and only for
    host probe steps.
    """
    from repro.translation.ecpt import HASH_CYCLES

    guest = spec.ecpt
    host = spec.host_ecpt
    for vpn in uniq_vpns:
        gva = vpn << PAGE_SHIFT
        program.walk(2 * HASH_CYCLES)
        guest_hit = guest.translate(gva)
        g_hit_addr = None
        if guest_hit is not None:
            for size, table in guest.tables.items():
                found = table.lookup(gva >> int(size))
                if found is not None:
                    g_hit_addr = found[0]
                    break
        resolved = []
        for g_addr, _g_size, _g_vpn in guest.candidate_probes(gva):
            critical = g_hit_addr is not None \
                and (g_addr >> 6) == (g_hit_addr >> 6)
            if critical:
                program.probe_step(host, g_addr)
            else:
                for addr, _size, _hvpn in host.candidate_probes(g_addr):
                    program.op(2, addr)
            h = host.translate(g_addr)
            if h is not None:
                resolved.append((g_addr, h[0]))
        if guest_hit is None:
            continue
        gpa, _size = guest_hit
        for g_addr, h_addr in resolved:
            if g_hit_addr is not None \
                    and (g_addr >> 6) == (g_hit_addr >> 6):
                program.op(1, h_addr)
            else:
                program.op(2, h_addr)
        program.op(0, HASH_CYCLES)
        program.probe_step(host, gpa)


def _plan_fpt_native(spec: BatchSpec, uniq_vpns: List[int],
                     program: _OpProgram) -> None:
    """Native FPT: fully static two-reference plans (root + leaf slots).

    The winning leaf slot is identified at plan time exactly like the
    scalar ``_leaf_probe`` (last matching probe wins); the winner — or,
    with no winner, every slot — becomes a grouped fetch, the losers
    background probes.
    """
    fpt = spec.fpt
    read = fpt.memory.read_word
    probe_huge = spec.probe_huge
    for vpn in uniq_vpns:
        va = vpn << PAGE_SHIFT
        program.walk(0)
        program.op(1, fpt.root_entry_addr(va))
        leaf = fpt._leaves.get(fpt.upper_index(va))
        if leaf is None:
            continue
        probes = [(fpt.leaf_entry_addr(leaf, va), PageSize.SIZE_4K)]
        if probe_huge:
            huge = fpt._huge_for(va, create=False)
            if huge is not None:
                probes.append((fpt.huge_entry_addr(huge, va),
                               PageSize.SIZE_2M))
        hit_addr = None
        for addr, size in probes:
            pte = read(addr)
            if pte & PTE_PRESENT and \
                    bool(pte & PTE_HUGE) == (size != PageSize.SIZE_4K):
                hit_addr = addr
        for addr, _size in probes:
            if hit_addr is None or addr == hit_addr:
                program.op(3, 1, addr)
            else:
                program.op(2, addr)


def _plan_fpt_nested(spec: BatchSpec, uniq_vpns: List[int],
                     program: _OpProgram) -> None:
    """Virtualized FPT: eight-reference plans, both dimensions flattened.

    Each host resolution gets a fresh per-walk group id (2, 3, ...);
    group 1 is reserved for the guest-leaf fetches, mirroring the scalar
    walker's distinct-group bookkeeping (absolute ids differ from the
    scalar ``_group_seq`` values, but group ids only need to be distinct
    within a walk — they never leave the recorder).
    """
    guest = spec.fpt
    host = spec.host_fpt
    probe_huge = spec.probe_huge
    gread = guest.memory.read_word
    hread = host.memory.read_word

    def plan_host_resolve(gpa, gid_box):
        program.op(1, host.root_entry_addr(gpa))
        leaf = host._leaves.get(host.upper_index(gpa))
        if leaf is None:
            return None
        gid_box[0] += 1
        gid = gid_box[0]
        probes = [(host.leaf_entry_addr(leaf, gpa), PageSize.SIZE_4K)]
        if probe_huge:
            huge = host._huge_for(gpa, create=False)
            if huge is not None:
                probes.append((host.huge_entry_addr(huge, gpa),
                               PageSize.SIZE_2M))
        hpa = None
        hit_addr = None
        for addr, size in probes:
            pte = hread(addr)
            if pte & PTE_PRESENT and \
                    bool(pte & PTE_HUGE) == (size != PageSize.SIZE_4K):
                hpa = (pte_frame(pte) << PAGE_SHIFT) + (gpa & (size.bytes - 1))
                hit_addr = addr
        for addr, _size in probes:
            if hit_addr is None or addr == hit_addr:
                program.op(3, gid, addr)
            else:
                program.op(2, addr)
        return hpa

    for vpn in uniq_vpns:
        gva = vpn << PAGE_SHIFT
        program.walk(0)
        gid_box = [1]
        root_hpa = plan_host_resolve(guest.root_entry_addr(gva), gid_box)
        if root_hpa is None:
            continue
        program.op(1, root_hpa)
        leaf = guest._leaves.get(guest.upper_index(gva))
        if leaf is None:
            continue
        candidates = [(PageSize.SIZE_4K, guest.leaf_entry_addr(leaf, gva))]
        if probe_huge:
            huge = guest._huge_for(gva, create=False)
            if huge is not None:
                candidates.append((PageSize.SIZE_2M,
                                   guest.huge_entry_addr(huge, gva)))
        slots = []
        for probe_size, entry_gpa in candidates:
            pte = gread(entry_gpa)
            valid = pte & PTE_PRESENT and \
                bool(pte & PTE_HUGE) == (probe_size != PageSize.SIZE_4K)
            slots.append((probe_size, entry_gpa, pte, valid))
        any_valid = any(valid for *_, valid in slots)
        gpa = None
        for probe_size, entry_gpa, pte, valid in slots:
            if any_valid and not valid:
                continue
            entry_hpa = plan_host_resolve(entry_gpa, gid_box)
            if entry_hpa is None:
                continue
            program.op(3, 1, entry_hpa)
            if valid:
                gpa = (pte_frame(pte) << PAGE_SHIFT) \
                    + (gva & (probe_size.bytes - 1))
        if gpa is not None:
            plan_host_resolve(gpa, gid_box)


_OPS_PLANNERS = {
    "ecpt-native": _plan_ecpt_native,
    "ecpt-nested": _plan_ecpt_nested,
    "fpt-native": _plan_fpt_native,
    "fpt-nested": _plan_fpt_nested,
}


def _plan_agile(spec: BatchSpec, top_level: int, n_offsets: int,
                chain_top: int, uniq_vpns: List[int]):
    """Agile Paging: shadow chain + guest leaf + data resolution.

    Row ``p`` owns shadow-chain rows ``ch_start[p] .. + ch_count[p]``
    (fetch ``c_addr``, PWC fill ``(c_fo, c_fk, c_fv)`` with ``c_fo = -1``
    for none), replaying phase 1 including the scalar quirk that a dead
    or huge shadow PTE does *not* stop the descent (the level
    decrements while the table frame stays put). ``leaf_addr[p]`` is the
    guest leaf PTE's host address (``-1`` when the guest mapping is
    absent — the walk ends after the chain) and ``d_idx[p]`` the data
    page's memoized host resolution. Per-VPN plan order (leaf
    ``gpa_to_hpa`` before the data resolve) preserves the scalar
    walker's lazy first-touch sequence.
    """
    guest_pt = spec.guest_pt
    spt = spec.spt
    sread = spt.memory.read_word
    gpa_to_hpa = spec.vm.gpa_to_hpa
    (ch_start, ch_count, c_addr, c_fo, c_fk, c_fv, leaf_addr, d_idx, d_gfn,
     d_hfn, d_rs, d_rc) = cols = tuple([] for _ in range(12))
    haddrs: List[int] = []
    resolve = _host_resolver(spec.vm, haddrs)
    for vpn in uniq_vpns:
        gva = vpn << PAGE_SHIFT
        gsteps = guest_pt.walk_steps(gva)
        leaf_step = gsteps[-1]
        leaf_level = leaf_step.level
        ch_start.append(len(c_addr))
        table_frame = spt.root_frame
        for level in range(chain_top, leaf_level, -1):
            addr = (table_frame << PAGE_SHIFT) + level_index(gva, level) * 8
            pte = sread(addr)
            c_addr.append(addr)
            offset = top_level - level
            if pte & PTE_PRESENT and not pte & PTE_HUGE:
                table_frame = pte_frame(pte)
            else:
                offset = -1
            if 0 <= offset < n_offsets:
                c_fo.append(offset)
                c_fk.append(vpn >> (TABLE_INDEX_BITS * (level - 1)))
                c_fv.append(table_frame << PAGE_SHIFT)
            else:
                c_fo.append(-1)
                c_fk.append(0)
                c_fv.append(0)
        ch_count.append(len(c_addr) - ch_start[-1])
        if not leaf_step.pte_value & PTE_PRESENT:
            leaf_addr.append(-1)
            d_idx.append(-1)
            continue
        leaf_addr.append(gpa_to_hpa(leaf_step.pte_addr))
        data_gpa = (pte_frame(leaf_step.pte_value) << PAGE_SHIFT) \
            + (gva & (_LEAF_BYTES[leaf_level] - 1))
        dgfn = data_gpa >> PAGE_SHIFT
        dhfn, drs, drc = resolve(dgfn)
        d_idx.append(len(d_gfn))
        d_gfn.append(dgfn)
        d_hfn.append(dhfn)
        d_rs.append(drs)
        d_rc.append(drc)
    return cols, haddrs


def _plan_asap(walker: Walker, spec: BatchSpec, memsys: MemorySubsystem,
               uniq_vpns: List[int]) -> Plan:
    """ASAP: per-row prefetch addresses around the inner radix plan.

    ``cols = (pf_start, pf_count, pf_addr)``; the inner plan shares the
    rows. The prefetch addresses are static per VPN (native: the L2/L1
    PTE addresses; nested: the guest L2/L1 entries' host addresses plus
    their EPT leaf entries). Nested prefetch planning performs the
    scalar walker's lazy ``gpa_to_hpa`` first-touches, so it runs
    interleaved with the inner radix-nested planner — before each VPN's
    chain resolves, the order the scalar walk would touch them. Native
    prefetch planning only reads, so it runs as a pass of its own.
    """
    from repro.translation.asap import PREFETCH_LEVELS

    pf_start: List[int] = []
    pf_count: List[int] = []
    pf_addr: List[int] = []
    nested = spec.kind == "asap-nested"
    if nested:
        walk_steps = spec.guest_pt.walk_steps
        gpa_to_hpa = spec.vm.gpa_to_hpa
        ept = spec.vm.ept
    else:
        walk_steps = spec.page_table.walk_steps

    def prefetch(vpn: int) -> None:
        start = len(pf_addr)
        pf_start.append(start)
        for step in walk_steps(vpn << PAGE_SHIFT):
            if step.level not in PREFETCH_LEVELS:
                continue
            if not nested:
                pf_addr.append(step.pte_addr)
                continue
            pf_addr.append(gpa_to_hpa(step.pte_addr))  # lazy first-touch
            for ept_step in ept.walk_steps(step.pte_addr):
                if ept_step.level in PREFETCH_LEVELS:
                    pf_addr.append(ept_step.pte_addr)
        pf_count.append(len(pf_addr) - start)

    inner_spec = spec.inner.batch_spec()
    if nested:
        inner = _plan_radix(inner_spec, memsys, uniq_vpns, prefetch)
    else:
        for vpn in uniq_vpns:
            prefetch(vpn)
        inner = _plan_radix(inner_spec, memsys, uniq_vpns)
    return Plan(spec, (pf_start, pf_count, pf_addr), sub=inner,
                chain_hop=walker.CHAIN_HOP_CYCLES if nested else 0)


# --------------------------------------------------------------------- #
# Flat-state primitives
# --------------------------------------------------------------------- #

def _make_access(caches):
    """The inlined 3-level hierarchy access: ``addr -> latency``.

    Replicates ``CacheHierarchy.access`` (probe L1/L2/LLC in order,
    install into every missed level, charge the satisfying level's
    round trip) over the live set dicts — dict probes keep membership
    *misses* O(1), and misses dominate the PTE-side reference stream.
    Stats accumulate in locals and flush via the returned finalizer.
    Also returns the context tuple ``(views, memory_latency, counters)``
    so the columnar radix runner can inline the same logic over the
    same shared state.
    """
    v1, v2, v3 = (level.batch_view() for level in caches.levels)
    s1, ls1, ns1, a1, lat1 = v1.sets, v1.line_shift, v1.num_sets, v1.assoc, v1.latency
    s2, ls2, ns2, a2, lat2 = v2.sets, v2.line_shift, v2.num_sets, v2.assoc, v2.latency
    s3, ls3, ns3, a3, lat3 = v3.sets, v3.line_shift, v3.num_sets, v3.assoc, v3.latency
    mem_latency = caches.memory_latency
    # hits L1/L2/LLC, misses L1/L2/LLC, memory accesses
    counters = [0, 0, 0, 0, 0, 0, 0]

    def access(addr: int) -> int:
        line1 = addr >> ls1
        idx1 = line1 % ns1
        ways1 = s1.get(idx1)
        if ways1 is not None and line1 in ways1:
            del ways1[line1]
            ways1[line1] = None
            counters[0] += 1
            return lat1
        counters[3] += 1
        line2 = addr >> ls2
        idx2 = line2 % ns2
        ways2 = s2.get(idx2)
        if ways2 is not None and line2 in ways2:
            del ways2[line2]
            ways2[line2] = None
            counters[1] += 1
            latency = lat2
        else:
            counters[4] += 1
            line3 = addr >> ls3
            idx3 = line3 % ns3
            ways3 = s3.get(idx3)
            if ways3 is not None and line3 in ways3:
                del ways3[line3]
                ways3[line3] = None
                counters[2] += 1
                latency = lat3
            else:
                counters[5] += 1
                counters[6] += 1
                latency = mem_latency
                if ways3 is None:
                    s3[idx3] = {line3: None}
                else:
                    if len(ways3) >= a3:
                        del ways3[next(iter(ways3))]
                    ways3[line3] = None
            if ways2 is None:
                s2[idx2] = {line2: None}
            else:
                if len(ways2) >= a2:
                    del ways2[next(iter(ways2))]
                ways2[line2] = None
        if ways1 is None:
            s1[idx1] = {line1: None}
        else:
            if len(ways1) >= a1:
                del ways1[next(iter(ways1))]
            ways1[line1] = None
        return latency

    def finalize() -> None:
        for view, hit_i, miss_i in ((v1, 0, 3), (v2, 1, 4), (v3, 2, 5)):
            view.stats.hits += counters[hit_i]
            view.stats.misses += counters[miss_i]
        caches.memory_accesses += counters[6]

    return access, finalize, ((v1, v2, v3), mem_latency, counters)


def _make_probe(access_ctx) -> Callable[[int], None]:
    """Inlined ``CacheHierarchy.probe``: the no-allocate background access.

    Losing parallel probes (ECPT ways, FPT multi-size slots) consult
    each level in order — LRU-touching and counting hits/misses exactly
    like ``SetAssociativeCache.lookup`` — but install nothing on a full
    miss. Shares the counters (and finalizer) of the ``access`` closure
    built by :func:`_make_access` over the same ``access_ctx``.
    """
    (v1, v2, v3), _mem_latency, counters = access_ctx
    s1, ls1, ns1 = v1.sets, v1.line_shift, v1.num_sets
    s2, ls2, ns2 = v2.sets, v2.line_shift, v2.num_sets
    s3, ls3, ns3 = v3.sets, v3.line_shift, v3.num_sets

    def probe(addr: int) -> None:
        line1 = addr >> ls1
        ways1 = s1.get(line1 % ns1)
        if ways1 is not None and line1 in ways1:
            del ways1[line1]
            ways1[line1] = None
            counters[0] += 1
            return
        counters[3] += 1
        line2 = addr >> ls2
        ways2 = s2.get(line2 % ns2)
        if ways2 is not None and line2 in ways2:
            del ways2[line2]
            ways2[line2] = None
            counters[1] += 1
            return
        counters[4] += 1
        line3 = addr >> ls3
        ways3 = s3.get(line3 % ns3)
        if ways3 is not None and line3 in ways3:
            del ways3[line3]
            ways3[line3] = None
            counters[2] += 1
            return
        counters[5] += 1
        counters[6] += 1

    return probe


def _make_pwc_probe(view) -> Tuple[Callable[[int], int], Callable[[], None]]:
    """Inlined ``PageWalkCache.best_entry`` returning a chain index.

    Probes offsets deepest-first; a hit at offset ``o`` (LRU-touched
    even when credit thinning later rejects it, exactly like the scalar
    ``_LRUTable.get``) resumes the walk at chain index ``o + 1``; a full
    miss starts at index 0 (the root). The cached table *address* is not
    needed — plans precompute every chain address from the static table.
    Also returns ``(order, accept, credit, counters)`` so the fused
    radix-native chunk runner can inline the same probe over the same
    shared state.
    """
    accept = view.accept
    credit = view.credit
    # Deepest-first probe order with the table refs and shifts hoisted
    # (the dict objects are stable; fills mutate them in place).
    order = tuple((view.tables[offset], view.key_shifts[offset] - PAGE_SHIFT,
                   offset)
                  for offset in range(len(view.tables) - 1, -1, -1))
    counters = [0, 0]  # hits, misses

    if accept is None:
        def probe(vpn: int) -> int:
            for table, shift, offset in order:
                key = vpn >> shift
                if key in table:
                    value = table.pop(key)
                    table[key] = value
                    counters[0] += 1
                    return offset + 1
            counters[1] += 1
            return 0
    else:
        def probe(vpn: int) -> int:
            for table, shift, offset in order:
                key = vpn >> shift
                if key in table:
                    value = table.pop(key)
                    table[key] = value
                    credit[offset] += accept[offset]
                    if credit[offset] >= 1.0:
                        credit[offset] -= 1.0
                        counters[0] += 1
                        return offset + 1
            counters[1] += 1
            return 0

    def finalize() -> None:
        view.stats.hits += counters[0]
        view.stats.misses += counters[1]

    return probe, finalize, (order, accept, credit, counters)


# --------------------------------------------------------------------- #
# Runners
# --------------------------------------------------------------------- #

def _make_radix_runner(plan: Plan, memsys: MemorySubsystem,
                       access: Callable[[int], int], access_ctx,
                       finalizers: List[Callable[[], None]],
                       credit_walkers: Tuple = ()):
    """The per-miss radix walk function over a radix ``plan``.

    Returns ``(run, run_many)``. ``run(vpn, p)`` executes one walk of
    plan row ``p``: PWC probe (with LRU touch and credit thinning), the
    remaining chain fetches, and the PWC fills — all against live flat
    state — and returns ``(cycles, nrefs, False)``. For radix-native,
    ``run_many(vpn_list, row_list) -> (cycles, nrefs)`` replays a
    whole chunk with the probe and the cache hierarchy fully inlined
    over ``access_ctx`` (the shared counters behind ``access``), every
    line/set index precomputed, and all counters held in locals that
    flush once per chunk; ``run_many`` is None otherwise. The nested
    path goes through ``access``.

    ``credit_walkers`` names walkers whose walks/cycles counters must
    mirror these walks (the DMT fallback path: the scalar loop records
    each fallback walk on the fallback walker before the DMT walker).
    """
    view = plan.pwc.batch_view()
    probe, probe_fin, probe_ctx = _make_pwc_probe(view)
    finalizers.append(probe_fin)
    tables = view.tables
    capacities = view.capacities
    pwc_latency = memsys.pwc_latency
    run_many = None

    if plan.kind == "radix-native":
        (v1, v2, v3), mem_latency, counters = access_ctx
        row_base, chain_lens, columns = plan.cols
        line1, idx1, line2, idx2, line3, idx3, fkeys, fvals = columns
        s1, a1, lat1 = v1.sets, v1.assoc, v1.latency
        s2, a2, lat2 = v2.sets, v2.assoc, v2.latency
        s3, a3, lat3 = v3.sets, v3.assoc, v3.latency
        porder, paccept, pcredit, pcounters = probe_ctx

        def run(vpn: int, p: int) -> Tuple[int, int, bool]:
            base = row_base[p]
            chain_len = chain_lens[p]
            cycles = pwc_latency
            start = probe(vpn)
            j = base + start
            end = base + chain_len
            while j < end:
                # Inlined CacheHierarchy.access: L1 -> L2 -> LLC -> MEM,
                # LRU touch on hit, install into every missed level.
                l1 = line1[j]
                i1 = idx1[j]
                w1 = s1.get(i1)
                if w1 is not None and l1 in w1:
                    del w1[l1]
                    w1[l1] = None
                    counters[0] += 1
                    latency = lat1
                else:
                    counters[3] += 1
                    l2 = line2[j]
                    i2 = idx2[j]
                    w2 = s2.get(i2)
                    if w2 is not None and l2 in w2:
                        del w2[l2]
                        w2[l2] = None
                        counters[1] += 1
                        latency = lat2
                    else:
                        counters[4] += 1
                        l3 = line3[j]
                        i3 = idx3[j]
                        w3 = s3.get(i3)
                        if w3 is not None and l3 in w3:
                            del w3[l3]
                            w3[l3] = None
                            counters[2] += 1
                            latency = lat3
                        else:
                            counters[5] += 1
                            counters[6] += 1
                            latency = mem_latency
                            if w3 is None:
                                s3[i3] = {l3: None}
                            else:
                                if len(w3) >= a3:
                                    del w3[next(iter(w3))]
                                w3[l3] = None
                        if w2 is None:
                            s2[i2] = {l2: None}
                        else:
                            if len(w2) >= a2:
                                del w2[next(iter(w2))]
                            w2[l2] = None
                    if w1 is None:
                        s1[i1] = {l1: None}
                    else:
                        if len(w1) >= a1:
                            del w1[next(iter(w1))]
                        w1[l1] = None
                cycles += latency
                key = fkeys[j]
                if key >= 0:
                    offset = j - base
                    table = tables[offset]
                    if key in table:
                        del table[key]
                    elif len(table) >= capacities[offset]:
                        del table[next(iter(table))]
                    table[key] = fvals[j]
                j += 1
            return cycles, chain_len - start, False

        def run_many(vpn_list, row_list) -> Tuple[int, int]:
            # One chunk, probe + hierarchy + fills inlined, every
            # counter in a local int flushed once at the end.
            h1 = h2 = h3 = miss1 = miss2 = miss3 = mem = 0
            phits = pmisses = 0
            total_cycles = 0
            refs = 0
            for vpn, p in zip(vpn_list, row_list):
                base = row_base[p]
                chain_len = chain_lens[p]
                start = 0
                hit = False
                for table, shift, offset in porder:
                    key = vpn >> shift
                    if key in table:
                        table[key] = table.pop(key)   # LRU touch
                        if paccept is None:
                            hit = True
                        else:
                            credit = pcredit[offset] + paccept[offset]
                            if credit >= 1.0:
                                pcredit[offset] = credit - 1.0
                                hit = True
                            else:
                                pcredit[offset] = credit
                                continue
                        start = offset + 1
                        break
                if hit:
                    phits += 1
                else:
                    pmisses += 1
                cycles = pwc_latency
                j = base + start
                end = base + chain_len
                while j < end:
                    l1 = line1[j]
                    w1 = s1.get(idx1[j])
                    if w1 is not None and l1 in w1:
                        del w1[l1]
                        w1[l1] = None
                        h1 += 1
                        cycles += lat1
                    else:
                        miss1 += 1
                        l2 = line2[j]
                        i2 = idx2[j]
                        w2 = s2.get(i2)
                        if w2 is not None and l2 in w2:
                            del w2[l2]
                            w2[l2] = None
                            h2 += 1
                            cycles += lat2
                        else:
                            miss2 += 1
                            l3 = line3[j]
                            i3 = idx3[j]
                            w3 = s3.get(i3)
                            if w3 is not None and l3 in w3:
                                del w3[l3]
                                w3[l3] = None
                                h3 += 1
                                cycles += lat3
                            else:
                                miss3 += 1
                                mem += 1
                                cycles += mem_latency
                                if w3 is None:
                                    s3[i3] = {l3: None}
                                else:
                                    if len(w3) >= a3:
                                        del w3[next(iter(w3))]
                                    w3[l3] = None
                            if w2 is None:
                                s2[i2] = {l2: None}
                            else:
                                if len(w2) >= a2:
                                    del w2[next(iter(w2))]
                                w2[l2] = None
                        i1 = idx1[j]
                        if w1 is None:
                            s1[i1] = {l1: None}
                        else:
                            if len(w1) >= a1:
                                del w1[next(iter(w1))]
                            w1[l1] = None
                    key = fkeys[j]
                    if key >= 0:
                        offset = j - base
                        table = tables[offset]
                        if key in table:
                            del table[key]
                        elif len(table) >= capacities[offset]:
                            del table[next(iter(table))]
                        table[key] = fvals[j]
                    j += 1
                total_cycles += cycles
                refs += chain_len - start
            counters[0] += h1
            counters[1] += h2
            counters[2] += h3
            counters[3] += miss1
            counters[4] += miss2
            counters[5] += miss3
            counters[6] += mem
            pcounters[0] += phits
            pcounters[1] += pmisses
            return total_cycles, refs

    else:  # radix-nested
        (e_start, e_count, e_gfn, e_hfn, e_gpte, e_fo, e_fk, e_fv, e_rs, e_rc,
         d_idx, d_gfn, d_hfn, d_rs, d_rc), haddrs = plan.cols
        resolve_host = _make_nested_resolve(memsys, access, haddrs,
                                            finalizers)

        def run(vpn: int, p: int) -> Tuple[int, int, bool]:
            cycles = pwc_latency
            nrefs = 0
            first = e_start[p]
            for k in range(first + probe(vpn), first + e_count[p]):
                hcycles, hrefs = resolve_host(e_gfn[k], e_hfn[k], e_rs[k],
                                              e_rc[k])
                cycles += hcycles + access(e_gpte[k])
                nrefs += hrefs + 1
                offset = e_fo[k]
                if offset >= 0:
                    key = e_fk[k]
                    table = tables[offset]
                    if key in table:
                        del table[key]
                    elif len(table) >= capacities[offset]:
                        del table[next(iter(table))]
                    table[key] = e_fv[k]
            d = d_idx[p]
            if d >= 0:
                hcycles, hrefs = resolve_host(d_gfn[d], d_hfn[d], d_rs[d],
                                              d_rc[d])
                cycles += hcycles
                nrefs += hrefs
            return cycles, nrefs, False

    if not credit_walkers:
        return run, run_many
    # DMT fallback duty: mirror each fallback walk onto the fallback
    # walker's own counters (the scalar loop records through it first).
    acc = [0, 0]

    def tracked(vpn: int, p: int) -> Tuple[int, int, bool]:
        cycles, nrefs, _ = run(vpn, p)
        acc[0] += 1
        acc[1] += cycles
        return cycles, nrefs, False

    def credit_fin() -> None:
        for target in credit_walkers:
            target.walks += acc[0]
            target.total_cycles += acc[1]

    finalizers.append(credit_fin)
    return tracked, None


def _make_nested_resolve(memsys: MemorySubsystem,
                         access: Callable[[int], int], haddrs: List[int],
                         finalizers: List[Callable[[], None]]):
    """Nested-PWC consult + host-chain replay (the scalar ``_host_resolve``).

    ``resolve(gfn, hfn, start, count) -> (cycles, refs)``:
    a thinned-or-not nested-PWC hit costs nothing; a miss fetches
    ``haddrs[start:start + count]`` through the hierarchy, then fills
    the nested PWC *after* the chain, in the scalar order.
    """
    nview = memsys.nested_pwc.batch_view()
    ntable = nview.table
    ncapacity = nview.capacity
    naccept = nview.accept
    # hits, misses; thinning credit (float) written back at finalize
    ncounters = [0, 0]
    ncredit = [nview.owner.credit]

    def resolve(gfn: int, hfn: int, start: int,
                count: int) -> Tuple[int, int]:
        hit = False
        if gfn in ntable:
            cached = ntable.pop(gfn)   # LRU touch, even when thinned
            ntable[gfn] = cached
            if naccept < 1.0:
                credit = ncredit[0] + naccept
                if credit >= 1.0:
                    ncredit[0] = credit - 1.0
                    hit = True
                else:
                    ncredit[0] = credit
            else:
                hit = True
        if hit:
            ncounters[0] += 1
            return 0, 0
        ncounters[1] += 1
        cycles = 0
        for t in range(start, start + count):
            cycles += access(haddrs[t])
        if gfn in ntable:
            del ntable[gfn]
        elif len(ntable) >= ncapacity:
            del ntable[next(iter(ntable))]
        ntable[gfn] = hfn
        return cycles, count

    def nested_fin() -> None:
        nview.stats.hits += ncounters[0]
        nview.stats.misses += ncounters[1]
        nview.owner.credit = ncredit[0]

    finalizers.append(nested_fin)
    return resolve


def _make_dmt_runner(plan: Plan, memsys: MemorySubsystem,
                     access: Callable[[int], int], access_ctx,
                     finalizers: List[Callable[[], None]]):
    """The per-miss DMT run function (register hit or fallback).

    A register hit charges each group's slowest member sequentially
    (``WalkRecorder.fetch_grouped`` semantics); a register miss applies
    the attempt's cache traffic with its latency discarded — exactly
    the scalar ``_run``, which drops the recorder on fallback but keeps
    the cache/PWC mutations — then runs the radix fallback walk, whose
    cycles and refs are the walk's result.
    """
    (fell, dh, dfb, g_start, g_count, ga_start, ga_count,
     fb_pidx), gaddrs = plan.cols
    spec = plan.spec
    fallback_run, _ = _make_radix_runner(
        plan.sub, memsys, access, access_ctx, finalizers,
        credit_walkers=(spec.fallback,) + tuple(plan.sub.spec.extra_walkers))
    fetcher = spec.fetcher
    acc = [0, 0]  # fetcher hits / fallbacks deltas, applied at finalize

    def run(vpn: int, p: int) -> Tuple[int, int, bool]:
        acc[0] += dh[p]
        acc[1] += dfb[p]
        groups = range(g_start[p], g_start[p] + g_count[p])
        if fell[p]:
            for g in groups:
                for t in range(ga_start[g], ga_start[g] + ga_count[g]):
                    access(gaddrs[t])   # mutates caches; cycles discarded
            cycles, nrefs, _ = fallback_run(vpn, fb_pidx[p])
            return cycles, nrefs, True
        cycles = 0
        nrefs = 0
        for g in groups:
            group_max = 0
            for t in range(ga_start[g], ga_start[g] + ga_count[g]):
                latency = access(gaddrs[t])
                if latency > group_max:
                    group_max = latency
            cycles += group_max
            nrefs += ga_count[g]
        return cycles, nrefs, False

    def fetcher_fin() -> None:
        fetcher.hits += acc[0]
        fetcher.fallbacks += acc[1]

    finalizers.append(fetcher_fin)
    return run


def _make_ops_runner(plan: Plan, access: Callable[[int], int],
                     probe: Callable[[int], None], cwc,
                     finalizers: List[Callable[[], None]]):
    """The op-program interpreter shared by the ECPT and FPT designs.

    Runs the op rows of :class:`_OpProgram` against the live hierarchy
    and, for ECPT probe steps (opcode 4), the walker's live Cuckoo Walk
    Cache: replay the prediction, then either the single predicted
    fetch, the mispredict fan-out (critical fetch + losing probes, plus
    the CWC update), or the full-miss fan-out whose completion is a
    grouped fetch of the first candidate (group id 0 — the scalar
    walker's ``id(rec) & 0xFFFF`` symbol, constant within a walk).

    Group episodes replicate ``WalkRecorder`` exactly: a grouped fetch
    with a new gid closes the previous episode (adding its max), fetches
    and charges close any open episode, probes touch nothing, and the
    walk's final episode closes at op-list end.
    """
    base_cycles, op_start, op_count, ops, cand_addr, cand_crit = plan.cols
    centries = cwc._entries
    ccap = cwc.capacity
    ccounters = [0, 0]  # hits, misses

    def run(vpn: int, p: int) -> Tuple[int, int, bool]:
        cycles = base_cycles[p]
        nrefs = 0
        open_gid = -1
        gmax = 0
        first = op_start[p]
        for i in range(OP_WIDTH * first, OP_WIDTH * (first + op_count[p]),
                       OP_WIDTH):
            code = ops[i]
            if code == 2:
                probe(ops[i + 1])
            elif code == 1:
                if open_gid >= 0:
                    cycles += gmax
                    open_gid = -1
                    gmax = 0
                cycles += access(ops[i + 1])
                nrefs += 1
            elif code == 3:
                gid = ops[i + 1]
                if gid != open_gid:
                    if open_gid >= 0:
                        cycles += gmax
                    open_gid = gid
                    gmax = 0
                latency = access(ops[i + 2])
                if latency > gmax:
                    gmax = latency
                nrefs += 1
            elif code == 4:
                cstart = ops[i + 5]
                ccount = ops[i + 6]
                if ops[i + 1]:
                    key = ops[i + 2]
                    way = ops[i + 3]
                    predicted = centries.pop(key, None)
                    if predicted is None:
                        ccounters[1] += 1
                    else:
                        centries[key] = predicted   # LRU touch
                        ccounters[0] += 1
                    if predicted == way:
                        # CWC hit: single targeted probe
                        if open_gid >= 0:
                            cycles += gmax
                            open_gid = -1
                            gmax = 0
                        cycles += access(ops[i + 4])
                        nrefs += 1
                        continue
                    # mispredict: install the true way (CuckooWalkCache.put)
                    if key in centries:
                        centries.pop(key)
                    elif len(centries) >= ccap:
                        centries.pop(next(iter(centries)))
                    centries[key] = way
                    for t in range(cstart, cstart + ccount):
                        if cand_crit[t]:
                            if open_gid >= 0:
                                cycles += gmax
                                open_gid = -1
                                gmax = 0
                            cycles += access(cand_addr[t])
                            nrefs += 1
                        else:
                            probe(cand_addr[t])
                else:
                    # full miss: probe every candidate, completion waits
                    # for the slowest (the grouped first-candidate fetch)
                    for t in range(cstart, cstart + ccount):
                        probe(cand_addr[t])
                    if open_gid != 0:
                        if open_gid >= 0:
                            cycles += gmax
                        open_gid = 0
                        gmax = 0
                    latency = access(cand_addr[cstart])
                    if latency > gmax:
                        gmax = latency
                    nrefs += 1
            else:  # code == 0: charge
                if open_gid >= 0:
                    cycles += gmax
                    open_gid = -1
                    gmax = 0
                cycles += ops[i + 1]
        if open_gid >= 0:
            cycles += gmax
        return cycles, nrefs, False

    def cwc_fin() -> None:
        cwc.hits += ccounters[0]
        cwc.misses += ccounters[1]

    finalizers.append(cwc_fin)
    return run


def _make_agile_runner(plan: Plan, memsys: MemorySubsystem,
                       access: Callable[[int], int],
                       finalizers: List[Callable[[], None]]):
    """Agile Paging: PWC-probed shadow chain + nested data resolution.

    Phase 1 replays like a native radix walk against the *host* PWC
    (including the scalar walker's dead-PTE descent quirk, baked into
    the chain rows); phase 2 is one precomputed guest-leaf fetch; phase
    3 is the nested-PWC consult + memoized host chain, shared with the
    radix-nested runner.
    """
    view = plan.pwc.batch_view()
    probe, probe_fin, _probe_ctx = _make_pwc_probe(view)
    finalizers.append(probe_fin)
    tables = view.tables
    capacities = view.capacities
    pwc_latency = memsys.pwc_latency
    top_level = view.top_level
    chain_top = plan.chain_top
    (ch_start, ch_count, c_addr, c_fo, c_fk, c_fv, leaf_addr, d_idx, d_gfn,
     d_hfn, d_rs, d_rc), haddrs = plan.cols
    resolve_host = _make_nested_resolve(memsys, access, haddrs, finalizers)

    def run(vpn: int, p: int) -> Tuple[int, int, bool]:
        cycles = pwc_latency
        nrefs = 0
        # probe() returns a top_level-relative chain index; clamp to the
        # shadow chain's top (the scalar min(start_level, levels)).
        lvl = top_level - probe(vpn)
        if lvl > chain_top:
            lvl = chain_top
        first = ch_start[p]
        for j in range(first + chain_top - lvl, first + ch_count[p]):
            cycles += access(c_addr[j])
            nrefs += 1
            offset = c_fo[j]
            if offset >= 0:
                key = c_fk[j]
                table = tables[offset]
                if key in table:
                    del table[key]
                elif len(table) >= capacities[offset]:
                    del table[next(iter(table))]
                table[key] = c_fv[j]
        leaf = leaf_addr[p]
        if leaf < 0:
            return cycles, nrefs, False
        cycles += access(leaf)
        d = d_idx[p]
        hcycles, hrefs = resolve_host(d_gfn[d], d_hfn[d], d_rs[d], d_rc[d])
        return cycles + hcycles, nrefs + 1 + hrefs, False

    return run


def _make_asap_runner(walker: Walker, plan: Plan, memsys: MemorySubsystem,
                      access: Callable[[int], int], access_ctx,
                      finalizers: List[Callable[[], None]]):
    """ASAP (native or nested): prefetch cost model over the radix plan.

    The prefetch accesses go through the shared hierarchy (installing
    lines) before the inner walk replays; the walk costs ``max(prefetch
    completion, inner)`` while refs come from the inner walk alone, and the inner walker's own walks/cycles counters mirror
    the inner replays.
    """
    pf_start, pf_count, pf_addr = plan.cols
    chain_hop = plan.chain_hop
    inner_run, _ = _make_radix_runner(plan.sub, memsys, access, access_ctx,
                                      finalizers)
    inner = plan.spec.inner
    acc = [0, 0, 0]  # inner walks, inner cycles, prefetches issued

    def run(vpn: int, p: int) -> Tuple[int, int, bool]:
        worst = 0
        first = pf_start[p]
        count = pf_count[p]
        for t in range(first, first + count):
            latency = access(pf_addr[t])
            if latency > worst:
                worst = latency
        acc[2] += count
        if worst and chain_hop:
            worst += chain_hop
        cycles, nrefs, _ = inner_run(vpn, p)
        acc[0] += 1
        acc[1] += cycles
        return (worst if worst > cycles else cycles), nrefs, False

    def asap_fin() -> None:
        inner.walks += acc[0]
        inner.total_cycles += acc[1]
        walker.prefetches += acc[2]

    finalizers.append(asap_fin)
    return run


def _make_runner(walker: Walker, plan: Plan, access: Callable[[int], int],
                 access_ctx, finalizers: List[Callable[[], None]]):
    """``(run, run_many)`` for ``plan``; ``run_many`` is radix-native only."""
    memsys = walker.memsys
    kind = plan.kind
    if kind == "dmt":
        return _make_dmt_runner(plan, memsys, access, access_ctx,
                                finalizers), None
    if kind in _OPS_PLANNERS:
        return _make_ops_runner(plan, access, _make_probe(access_ctx),
                                memsys.cwc, finalizers), None
    if kind == "agile":
        return _make_agile_runner(plan, memsys, access, finalizers), None
    if kind in ("asap-native", "asap-nested"):
        return _make_asap_runner(walker, plan, memsys, access, access_ctx,
                                 finalizers), None
    return _make_radix_runner(plan, memsys, access, access_ctx, finalizers)


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #

def replay_walks_vec(
    walker: Walker,
    miss_vas,
    warmup_fraction: float = 0.1,
    chunk: int = DEFAULT_CHUNK,
):
    """Batched stage 2: replay a miss stream, bit-identical to scalar.

    Drop-in for :func:`repro.sim.simulator.replay_walks_scalar` on
    walkers with no :func:`unsupported_reason`: same ``WalkStats``
    (cycles, refs, fallbacks), same post-replay cache/PWC/walker state.
    It collects no per-step breakdown — the scalar oracle does. Raises
    ``ValueError`` for unsupported walkers; the stage-2 dispatch routes
    those through the scalar loop.
    """
    from repro.sim.simulator import WalkStats

    reason = unsupported_reason(walker)
    if reason is not None:
        raise ValueError(
            f"walker {walker.name!r} has no batched replay path: {reason} "
            "(use the scalar engine)")
    memsys = walker.memsys

    vas = np.asarray(miss_vas, dtype=np.int64)
    stats = WalkStats(design=walker.name, engine="vec")
    total = int(vas.size)
    if total == 0:
        return stats
    vpns = vas >> PAGE_SHIFT

    with _gc_paused():
        with obs_trace.span("stage2.plan") as sp:
            uniq_ordered, pidx = first_occurrence(vpns)
            plan = _plan_replay(walker, uniq_ordered)
            if sp is not None:
                sp["kind"] = plan.kind
                sp["rows"] = len(uniq_ordered)
        with obs_trace.span("stage2.execute", misses=total):
            access, access_fin, access_ctx = _make_access(memsys.caches)
            finalizers: List[Callable[[], None]] = [access_fin]
            run, run_many = _make_runner(walker, plan, access, access_ctx,
                                         finalizers)

            warmup = int(total * warmup_fraction)
            warm_cycles = 0
            warm_fallbacks = 0
            walks = measured_cycles = refs = fallbacks = 0
            # Chunks reach the runners as memoryviews of the ndarray slices
            # — zero-copy (no Python-list materialization), yet iteration
            # yields native ints, so the runners' dict lookups and shifts
            # skip np.int64 scalar overhead (~25% on the radix fast path).
            for lo, hi in ((0, warmup), (warmup, total)):
                measured = lo == warmup
                for start in range(lo, hi, chunk):
                    stop = min(start + chunk, hi)
                    chunk_vpns = memoryview(vpns[start:stop])
                    chunk_rows = memoryview(pidx[start:stop])
                    if run_many is not None:
                        cycles, nrefs = run_many(chunk_vpns, chunk_rows)
                        if measured:
                            walks += stop - start
                            measured_cycles += cycles
                            refs += nrefs
                        else:
                            warm_cycles += cycles
                    elif not measured:
                        for vpn, p in zip(chunk_vpns, chunk_rows):
                            cycles, _nrefs, fell_back = run(vpn, p)
                            warm_cycles += cycles
                            if fell_back:
                                warm_fallbacks += 1
                    else:
                        for vpn, p in zip(chunk_vpns, chunk_rows):
                            cycles, nrefs, fell_back = run(vpn, p)
                            walks += 1
                            measured_cycles += cycles
                            refs += nrefs
                            if fell_back:
                                fallbacks += 1

    stats.walks = walks
    stats.total_cycles = measured_cycles
    stats.ref_count = refs if memsys.record_refs else 0
    stats.fallbacks = fallbacks

    for finalize in finalizers:
        finalize()
    all_cycles = warm_cycles + measured_cycles
    all_fallbacks = warm_fallbacks + fallbacks
    for target in (walker,) + tuple(plan.spec.extra_walkers):
        target.walks += total
        target.total_cycles += all_cycles
        target.fallbacks += all_fallbacks
    return stats
