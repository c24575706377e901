"""The native kernel engine's entry point and state checkout.

:func:`prepare_replay_native` is the third stage-2 engine, beside the
scalar oracle and the batched (vec) engine; the stage-2 dispatch
(:func:`repro.sim.simulator.prepare_replay`) picks it when the compiled
backend loaded and the cell batches (a step-collecting replay runs on
the scalar oracle instead). It plans through the same entry as the vec
engine (:func:`repro.sim.walk_vec.plan_replay` — same unique-VPN
first-occurrence order, same lazy first-touch side effects), whose
column layout is exactly the chunk kernels' plan arguments, so this
module only wraps the columns with ``np.asarray``.
The kernels of :mod:`repro.sim.kernels.radix` /
:mod:`repro.sim.kernels.designs` then replay the history-dependent
state (cache LRU sets, PWC tables, credit counters, the ECPT cuckoo-walk
cache) over ``array_view()`` snapshots.

Bit-identity contract: identical ``WalkStats`` and identical
post-replay cache/PWC/CWC/walker state versus the scalar oracle, on
both backends (``tests/test_walk_vec.py`` parametrizes the parity
suite over the vec and native engines, calling this module directly,
so the uncompiled kernels stay the parity oracle for kernel logic; the
no-numba CI leg pins the pure-Python backend). Like the vec engine,
the kernels record no steps: step collection always runs on the scalar
oracle.

**Two-phase split (thread-safety contract).** The engine is split
into :func:`prepare_replay_native` — every GIL-bound,
order-dependent step: planning with its lazy first-touch side effects
(shadow-table extension, frame allocation, and therefore cache set
indices) and the per-cell ``array_view()`` state checkout — and
:meth:`PreparedReplay.execute`, which only drives the ``nogil`` kernels
over the state captured at prepare time and writes the results back to
that cell's private walker/memsys objects. Prepare MUST run on one
thread in deterministic cell order; execute may run on any thread,
concurrently with other cells' prepares and executes, because after
checkout a cell shares nothing mutable with the rest of the process
(the miss stream is read-only and memmap-shared). That split is what
lets the sweep's two-level executor overlap cell *k*'s kernels with
cell *k+1*'s planning without giving up bit-identity.
"""

from __future__ import annotations

import numpy as np

from repro.arch import PAGE_SHIFT
from repro.sim import walk_vec
from repro.sim.kernels import backend
from repro.sim.kernels.designs import (
    agile_chunk,
    asap_native_chunk,
    asap_nested_chunk,
    dmt_native_chunk,
    dmt_nested_chunk,
    ops_chunk,
)
from repro.sim.kernels.radix import radix_native_chunk, radix_nested_chunk
from repro.translation.base import MemorySubsystem, Walker


def _ia(seq) -> np.ndarray:
    return np.asarray(seq, dtype=np.int64)


def _arrays(cols) -> tuple:
    """A plan's int-list columns as int64 arrays, nesting preserved."""
    return tuple(_arrays(col) if isinstance(col, tuple) else _ia(col)
                 for col in cols)


# --------------------------------------------------------------------- #
# array_view() state bundles + writeback/flush closures
# --------------------------------------------------------------------- #

def _cache_state(caches):
    """Hierarchy state bundle ``cs`` + views + flush/writeback closure."""
    views = [level.array_view() for level in caches.levels]
    v1, v2, v3 = views
    cp = np.array([v1.line_shift, v1.num_sets, v1.assoc, v1.latency,
                   v2.line_shift, v2.num_sets, v2.assoc, v2.latency,
                   v3.line_shift, v3.num_sets, v3.assoc, v3.latency,
                   caches.memory_latency], dtype=np.int64)
    cc = np.zeros(7, dtype=np.int64)
    cs = (v1.tags, v1.nvalid, v2.tags, v2.nvalid, v3.tags, v3.nvalid,
          cp, cc)

    def finish(_w, _m):
        for view, hit_i, miss_i in ((v1, 0, 3), (v2, 1, 4), (v3, 2, 5)):
            view.stats.hits += int(cc[hit_i])
            view.stats.misses += int(cc[miss_i])
        caches.memory_accesses += int(cc[6])
        for view in views:
            view.writeback()

    return cs, views, finish


def _pwc_state(pwc):
    """PWC state bundle ``ps`` + flush/writeback closure."""
    view = pwc.array_view()
    pflags = np.array([1 if view.has_accept else 0], dtype=np.int64)
    pcnt = np.zeros(2, dtype=np.int64)
    pshift = view.key_shifts - PAGE_SHIFT
    ps = (view.keys, view.vals, view.sizes, view.capacities, pshift,
          pflags, pcnt, view.accept, view.credit)

    def finish(_w, _m):
        view.stats.hits += int(pcnt[0])
        view.stats.misses += int(pcnt[1])
        view.writeback()

    return ps, finish


def _npwc_state(npwc):
    """Nested-PWC state bundle ``ns`` + flush/writeback closure."""
    view = npwc.array_view()
    ncnt = np.zeros(2, dtype=np.int64)
    nflt = np.array([view.accept, view.credit[0]], dtype=np.float64)
    ns = (view.keys, view.vals, view.meta, ncnt, nflt)

    def finish(_w, _m):
        view.stats.hits += int(ncnt[0])
        view.stats.misses += int(ncnt[1])
        view.credit[0] = nflt[1]
        view.writeback()

    return ns, finish


def _cwc_state(cwc):
    """CWC state bundle ``ws`` + flush/writeback closure."""
    view = cwc.array_view()
    ccnt = np.zeros(2, dtype=np.int64)
    ws = (view.keys, view.ways, view.meta, ccnt)

    def finish(_w, _m):
        cwc.hits += int(ccnt[0])
        cwc.misses += int(ccnt[1])
        view.writeback()

    return ws, finish


def _radix_args(plan, memsys: MemorySubsystem, cs, finishers) -> tuple:
    """A radix plan's kernel arguments: columns, state, PWC latency."""
    ps, ps_fin = _pwc_state(plan.pwc)
    finishers.append(ps_fin)
    if plan.kind == "radix-native":
        return _arrays(plan.cols) + (ps, cs, memsys.pwc_latency)
    ns, ns_fin = _npwc_state(memsys.nested_pwc)
    finishers.append(ns_fin)
    return _arrays(plan.cols) + (ps, ns, cs, memsys.pwc_latency)


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #

class PreparedReplay:
    """A planned cell replay whose kernels have not run yet.

    Everything order-dependent already happened in
    :func:`prepare_replay_native`; :meth:`execute` drives the ``nogil``
    kernels over the captured flat arrays and writes results back to
    this cell's private walker/memsys objects, so it is safe on any
    thread, concurrently with other cells. ``execute`` is one-shot —
    a second call returns the same ``WalkStats`` without replaying.
    """

    def __init__(self, stats, total, warmup, out_len, run_range,
                 finishers, walker, extra_walkers, record_refs):
        self.stats = stats
        self._total = total
        self._warmup = warmup
        self._out_len = out_len
        self._run_range = run_range
        self._finishers = finishers
        self._walker = walker
        self._extra_walkers = extra_walkers
        self._record_refs = record_refs
        self._done = False

    def execute(self):
        if self._done:
            return self.stats
        self._done = True
        if self._run_range is None:   # empty miss stream: nothing to run
            return self.stats
        total, warmup = self._total, self._warmup
        out_warm = np.zeros(self._out_len, dtype=np.int64)
        out_meas = np.zeros(self._out_len, dtype=np.int64)
        with walk_vec.gc_paused():
            if warmup > 0:
                self._run_range(0, warmup, out_warm)
            if warmup < total:
                self._run_range(warmup, total, out_meas)
        stats = self.stats
        stats.walks = total - warmup
        stats.total_cycles = int(out_meas[0])
        stats.ref_count = int(out_meas[1]) if self._record_refs else 0
        stats.fallbacks = int(out_meas[2])
        for finish in self._finishers:
            finish(out_warm, out_meas)
        all_cycles = int(out_warm[0] + out_meas[0])
        all_fallbacks = int(out_warm[2] + out_meas[2])
        for target in (self._walker,) + self._extra_walkers:
            target.walks += total
            target.total_cycles += all_cycles
            target.fallbacks += all_fallbacks
        return stats


def prepare_replay_native(
    walker: Walker,
    miss_vas,
    warmup_fraction: float = 0.1,
) -> PreparedReplay:
    """Plan a native-kernel replay; the kernels run in ``execute()``.

    This is the sequential half of the two-phase split documented in
    the module docstring: planning (lazy first-touch side effects
    happen here, in deterministic order) and the ``array_view()`` state
    checkout. The returned :class:`PreparedReplay` owns thread-private
    state only. Raises ``ValueError`` for unsupported walkers, exactly
    like the vec engine.

    Oracle: :func:`repro.sim.simulator.replay_walks_scalar` —
    ``prepare_replay_native(...).execute()`` must return
    bit-identical :class:`WalkStats` and leave identical cache/PWC/
    design state, on any thread.
    """
    from repro.sim.simulator import WalkStats

    reason = walk_vec.unsupported_reason(walker)
    if reason is not None:
        raise ValueError(
            f"walker {walker.name!r} has no batched replay path: {reason} "
            "(use the scalar engine)")
    memsys: MemorySubsystem = walker.memsys
    record_refs = memsys.record_refs

    vas = np.asarray(miss_vas, dtype=np.int64)
    stats = WalkStats(design=walker.name, engine="native")
    if backend.UNAVAILABLE_REASON is not None:
        stats.fallback_reason = backend.UNAVAILABLE_REASON
    total = int(vas.size)
    if total == 0:
        return PreparedReplay(stats, 0, 0, 3, None, [], walker, (),
                              record_refs)
    vpns = vas >> PAGE_SHIFT

    with walk_vec.gc_paused():
        uniq_ordered, pidx = walk_vec.first_occurrence(vpns)
        plan = walk_vec.plan_replay(walker, uniq_ordered)
        cs, _views, cache_fin = _cache_state(memsys.caches)
        finishers = [cache_fin]
        kind = plan.kind
        out_len = 3

        if kind in ("radix-native", "radix-nested"):
            kernel = (radix_native_chunk if kind == "radix-native"
                      else radix_nested_chunk)
            args = _radix_args(plan, memsys, cs, finishers)

        elif kind == "dmt":
            kernel = (dmt_native_chunk if plan.sub.kind == "radix-native"
                      else dmt_nested_chunk)
            args = _arrays(plan.cols) + _radix_args(plan.sub, memsys, cs,
                                                    finishers)
            fetcher = plan.spec.fetcher
            credit_targets = (plan.spec.fallback,) + tuple(
                plan.sub.spec.extra_walkers)

            def dmt_fin(w, m):
                fetcher.hits += int(w[3] + m[3])
                fetcher.fallbacks += int(w[4] + m[4])
                for target in credit_targets:
                    target.walks += int(w[5] + m[5])
                    target.total_cycles += int(w[6] + m[6])

            finishers.append(dmt_fin)
            out_len = 7

        elif kind in ("asap-native", "asap-nested"):
            kernel = (asap_native_chunk if plan.sub.kind == "radix-native"
                      else asap_nested_chunk)
            args = _arrays(plan.cols) + _radix_args(
                plan.sub, memsys, cs, finishers) + (plan.chain_hop,)
            inner = plan.spec.inner

            def asap_fin(w, m):
                inner.walks += int(w[3] + m[3])
                inner.total_cycles += int(w[4] + m[4])
                walker.prefetches += int(w[5] + m[5])

            finishers.append(asap_fin)
            out_len = 6

        elif kind == "agile":
            kernel = agile_chunk
            ps, ps_fin = _pwc_state(plan.pwc)
            ns, ns_fin = _npwc_state(memsys.nested_pwc)
            finishers.extend((ps_fin, ns_fin))
            args = _arrays(plan.cols) + (ps, ns, cs, memsys.pwc_latency,
                                         plan.chain_top, plan.pwc.top_level)

        else:  # ECPT / FPT op programs
            kernel = ops_chunk
            base_cycles, op_start, op_count, ops, cand_addr, cand_crit = \
                plan.cols
            ws, ws_fin = _cwc_state(memsys.cwc)
            finishers.append(ws_fin)
            args = (_ia(base_cycles), _ia(op_start), _ia(op_count),
                    _ia(ops).reshape(-1, walk_vec.OP_WIDTH), _ia(cand_addr),
                    _ia(cand_crit), ws, cs)

    def run_range(lo, hi, out):
        kernel(vpns, pidx, lo, hi, *args, out)

    warmup = int(total * warmup_fraction)
    return PreparedReplay(stats, total, warmup, out_len, run_range,
                          finishers, walker, tuple(plan.spec.extra_walkers),
                          record_refs)
