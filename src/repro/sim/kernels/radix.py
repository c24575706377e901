"""Radix-walk chunk kernels (native/shadow and nested 2D walks).

The per-VPN walk helpers are shared with the DMT fallback path and the
ASAP inner walk (:mod:`repro.sim.kernels.designs`). Plan arguments are
the columns :func:`repro.sim.walk_vec.plan_replay` emits for both
batched engines, so the address streams are identical by construction;
these kernels replay only the history-dependent state (cache LRU, PWC
tables, thinning credits) over the flat arrays, exactly as the vec
runners (``walk_vec._make_radix_runner``) replay it over live dicts.

Output accumulator layout (``out``): ``[cycles, refs, fallbacks]``.
"""

from __future__ import annotations

from repro.sim.kernels.backend import jit
from repro.sim.kernels.primitives import (
    cache_access,
    cache_access_cols,
    npwc_resolve,
    pwc_fill,
    pwc_probe,
)


@jit
def _radix_native_walk(vpn, p, row_base, chain_len, cols, ps, cs,
                       pwc_latency):
    """One native/shadow radix walk; returns (cycles, refs)."""
    line1, idx1, line2, idx2, line3, idx3, fkeys, fvals = cols
    base = row_base[p]
    start = pwc_probe(ps, vpn)
    cycles = pwc_latency
    j = base + start
    end = base + chain_len[p]
    while j < end:
        cycles += cache_access_cols(cs, line1[j], idx1[j], line2[j],
                                    idx2[j], line3[j], idx3[j])
        key = fkeys[j]
        if key >= 0:
            pwc_fill(ps, j - base, key, fvals[j])
        j += 1
    return cycles, chain_len[p] - start


@jit
def _radix_nested_walk(vpn, p, plan, haddrs, ps, ns, cs, pwc_latency):
    """One 2D nested radix walk; returns (cycles, refs)."""
    (e_start, e_count, e_gfn, e_hfn, e_gpte, e_fo, e_fk, e_fv, e_rs, e_rc,
     d_idx, d_gfn, d_hfn, d_rs, d_rc) = plan
    cycles = pwc_latency
    nrefs = 0
    i = pwc_probe(ps, vpn)
    s = e_start[p]
    n = e_count[p]
    while i < n:
        k = s + i
        dc, dr = npwc_resolve(ns, cs, e_gfn[k], e_hfn[k], e_rs[k],
                              e_rc[k], haddrs)
        cycles += dc
        nrefs += dr
        cycles += cache_access(cs, e_gpte[k])
        nrefs += 1
        if e_fo[k] >= 0:
            pwc_fill(ps, e_fo[k], e_fk[k], e_fv[k])
        i += 1
    d = d_idx[p]
    if d >= 0:
        dc, dr = npwc_resolve(ns, cs, d_gfn[d], d_hfn[d], d_rs[d],
                              d_rc[d], haddrs)
        cycles += dc
        nrefs += dr
    return cycles, nrefs


@jit
def radix_native_chunk(vpns, pidx, lo, hi, row_base, chain_len, cols, ps,
                       cs, pwc_latency, out):
    """Replay misses ``[lo, hi)`` of a native/shadow radix walker.

    Oracle: the scalar ``RadixWalker.translate`` loop — PWC probe with
    credit thinning, the remaining chain fetches through the hierarchy,
    and the PWC fills, as the vec radix-native ``run`` replays the same
    plan columns.
    """
    cycles = 0
    refs = 0
    for i in range(lo, hi):
        c, r = _radix_native_walk(vpns[i], pidx[i], row_base, chain_len,
                                  cols, ps, cs, pwc_latency)
        cycles += c
        refs += r
    out[0] += cycles
    out[1] += refs


@jit
def radix_nested_chunk(vpns, pidx, lo, hi, plan, haddrs, ps, ns, cs,
                       pwc_latency, out):
    """Replay misses ``[lo, hi)`` of a nested (2D) radix walker.

    Oracle: the scalar nested ``translate`` — guest-PWC probe, per-level
    nested-PWC consult + host chain + guest-PTE fetch + guest-PWC fill,
    then the data page's host resolution, as the vec radix-nested
    ``run`` replays the same plan columns.
    """
    cycles = 0
    refs = 0
    for i in range(lo, hi):
        c, r = _radix_nested_walk(vpns[i], pidx[i], plan, haddrs, ps, ns,
                                  cs, pwc_latency)
        cycles += c
        refs += r
    out[0] += cycles
    out[1] += refs
