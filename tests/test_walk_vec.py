"""Oracle parity for the batched stage-2 replay engine.

``walk_vec.replay_walks_vec`` must be bit-identical to the scalar
``replay_walks_scalar`` oracle: same :class:`WalkStats`, same
walker/fetcher counters, and the same memory-subsystem state (cache
sets + LRU order, PWC tables + thinning credits, the ECPT cuckoo-walk
cache) after the replay. The batched engine does not collect the
Figure 16 step breakdown: that is the oracle's job, pinned by
``test_fig16_step_breakdown_comes_from_the_oracle``. The stage-2
dispatch (``replay_walks``) derives the engine by one rule, pinned at
the end of this module: scalar with a recorded reason under the
sanitizer, for step collection or when a walker has no batch spec; vec
otherwise.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.registers import RegisterSet
from repro.hw.config import xeon_gold_6138
from repro.sim.machine import ENVIRONMENTS, SimConfig
from repro.sim.simulator import (
    Stage1Cache,
    replay_walks,
    replay_walks_scalar,
)
from repro.sim.sweep import GroupTask, run_group
from repro.sim.walk_vec import replay_walks_vec, unsupported_reason

#: The batched stage-2 engine the parity suite runs against the scalar
#: oracle; each case id names it.
ENGINES = ("vec",)

#: Every (environment, design) pair the batched engine vectorizes —
#: since the ECPT/FPT/Agile/ASAP planners landed, that is the full
#: design grid of all three environments.
SUPPORTED = [
    ("native", "vanilla"), ("native", "fpt"), ("native", "ecpt"),
    ("native", "asap"), ("native", "dmt"),
    ("virt", "vanilla"), ("virt", "shadow"), ("virt", "fpt"),
    ("virt", "ecpt"), ("virt", "agile"), ("virt", "asap"),
    ("virt", "dmt"), ("virt", "pvdmt"),
    ("nested", "vanilla"), ("nested", "pvdmt"),
]

#: DMT flavours and the register set their fetcher consults.
DMT_CASES = [
    ("native", "dmt", RegisterSet.NATIVE),
    ("virt", "dmt", RegisterSet.GUEST),
    ("virt", "pvdmt", RegisterSet.GUEST),
    ("nested", "pvdmt", RegisterSet.NESTED),
]

PARITY_CASES = [(env, design, thp, seed)
                for env, design in SUPPORTED
                for thp in (False, True)
                for seed in ((0, 3) if not thp else (0,))]


def _config(thp=False, seed=0):
    return SimConfig(scale=4096, nrefs=3000, thp=thp, seed=seed,
                     record_refs=True)


def _build_pair(env, design, config, workload="GUPS"):
    """Two independent machines + walkers with identical initial state."""
    env_cls = ENVIRONMENTS[env]
    sim_s, sim_v = env_cls(workload, config), env_cls(workload, config)
    assert np.array_equal(sim_s.tlb.miss_vas, sim_v.tlb.miss_vas)
    return sim_s.walker(design), sim_v.walker(design), sim_s.tlb.miss_vas


def _pwc_state(pwc):
    view = pwc.batch_view()
    return ([tuple(table.items()) for table in view.tables],
            list(view.credit), view.stats)


def _memsys_state(walker):
    """Everything replay mutates, in a directly comparable shape.

    Insertion order IS the LRU order of the set dicts and PWC tables,
    so snapshots keep it (plain dict equality would ignore it).
    """
    memsys = walker.memsys
    state = {
        "caches": [(cache.stats,
                    {idx: tuple(ways) for idx, ways in cache._sets.items()})
                   for cache in memsys.caches.levels],
        "memory_accesses": memsys.caches.memory_accesses,
        "pwc": _pwc_state(memsys.pwc),
        "guest_pwc": _pwc_state(memsys.guest_pwc),
    }
    npwc = memsys.nested_pwc
    view = npwc.batch_view()
    state["nested_pwc"] = (tuple(view.table.items()), npwc.credit, view.stats)
    return state


def _walker_counters(walker):
    return (walker.walks, walker.total_cycles, walker.fallbacks)


def _design_state(walker):
    """Design-side state: the ECPT way predictor and ASAP's counters.

    The walker's cuckoo-walk cache is LRU-ordered like the cache sets,
    so its entry *order* is part of the snapshot; ASAP keeps a prefetch
    count plus a full inner radix walker whose counters the batched
    path must reproduce.
    """
    cwc = walker.memsys.cwc
    state = {"cwc": (tuple(cwc._entries.items()), cwc.hits, cwc.misses)}
    if hasattr(walker, "prefetches"):
        state["prefetches"] = walker.prefetches
    inner = getattr(walker, "_walker", None)
    if inner is not None:
        state["inner"] = _walker_counters(inner)
    return state


def _assert_parity(walker_scalar, walker_vec, miss_vas, engine="vec"):
    stats_scalar = replay_walks_scalar(walker_scalar, miss_vas)
    stats_vec = replay_walks_vec(walker_vec, miss_vas)
    assert stats_scalar.engine == "scalar" and stats_vec.engine == engine
    assert stats_scalar == stats_vec
    assert _walker_counters(walker_scalar) == _walker_counters(walker_vec)
    assert _memsys_state(walker_scalar) == _memsys_state(walker_vec)
    assert _design_state(walker_scalar) == _design_state(walker_vec)
    for attr in ("fetcher", "fallback_walker"):
        scalar_part = getattr(walker_scalar, attr, None)
        vec_part = getattr(walker_vec, attr, None)
        assert (scalar_part is None) == (vec_part is None)
        if scalar_part is None:
            continue
        if attr == "fetcher":
            assert (scalar_part.hits, scalar_part.fallbacks) == \
                (vec_part.hits, vec_part.fallbacks)
        else:
            assert _walker_counters(scalar_part) == _walker_counters(vec_part)
    return stats_scalar


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("env,design,thp,seed", PARITY_CASES)
def test_vec_replay_matches_scalar_oracle(env, design, thp, seed, engine):
    config = _config(thp=thp, seed=seed)
    walker_scalar, walker_vec, miss_vas = _build_pair(env, design, config)
    assert unsupported_reason(walker_scalar) is None
    assert unsupported_reason(walker_vec) is None
    stats = _assert_parity(walker_scalar, walker_vec, miss_vas,
                           engine=engine)
    assert stats.walks > 0 and stats.ref_count > 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("env,design,which", DMT_CASES)
def test_vec_replay_matches_scalar_on_dmt_fallbacks(env, design, which,
                                                    engine):
    """Prune the register file so fetcher misses exercise the fallback."""
    config = _config(seed=3)
    walker_scalar, walker_vec, miss_vas = _build_pair(
        env, design, config, workload="Redis")
    for walker in (walker_scalar, walker_vec):
        register_file = walker.fetcher.register_file
        registers = register_file.registers(which)
        kept = set(sorted(set(r.vma_base for r in registers))[::2])
        register_file.load(which, [r for r in registers
                                   if r.vma_base in kept])
    stats = _assert_parity(walker_scalar, walker_vec, miss_vas,
                           engine=engine)
    assert stats.fallbacks > 0, "pruning must force register misses"


@pytest.mark.parametrize("env,design,pte_share", [
    ("native", "vanilla", None),    # Table 3 default: single-set L1(pte)
    ("native", "vanilla", 0.25),    # wide L1(pte): the multi-set variant
    ("virt", "shadow", None),
])
def test_vec_chunk_runner_matches_scalar_without_step_collection(
        env, design, pte_share):
    """Radix-native replays take the fused chunk runner (inlined probe +
    hierarchy, counters flushed per chunk); a small chunk size exercises
    the flush boundaries, and ``pte_share`` widens L1(pte) from the
    Table 3 single set to many."""
    config = _config(seed=1)
    if pte_share is not None:
        machine = replace(xeon_gold_6138(), pte_cache_share=pte_share)
        config = replace(config, machine=machine)
    walker_scalar, walker_vec, miss_vas = _build_pair(env, design, config)
    if pte_share is not None:
        l1 = walker_vec.memsys.caches.levels[0]
        assert l1.batch_view().num_sets > 1
    stats_scalar = replay_walks_scalar(walker_scalar, miss_vas)
    stats_vec = replay_walks_vec(walker_vec, miss_vas, chunk=512)
    assert stats_vec.engine == "vec"
    assert stats_scalar == stats_vec
    assert _walker_counters(walker_scalar) == _walker_counters(walker_vec)
    assert _memsys_state(walker_scalar) == _memsys_state(walker_vec)


def _sanitized_native_sim():
    return ENVIRONMENTS["native"]("GUPS", replace(_config(), sanitize=True))


def test_auto_engine_falls_back_to_scalar():
    """Every design now has a planner, so the remaining genuine
    fallbacks are environmental — here a sanitized run, whose runtime
    hooks the batched engine would bypass. The dispatch must fall back
    to the scalar oracle, bit-identically, and record why; the vec
    engine called directly must refuse with the same reason."""
    from repro.analysis import sanitizer

    try:
        sim_oracle, sim = _sanitized_native_sim(), _sanitized_native_sim()
        walker = sim.walker("vanilla")
        reason = unsupported_reason(walker)
        assert reason is not None and "sanitizer" in reason
        stats = replay_walks(walker, sim.tlb.miss_vas[:64])
        assert stats.engine == "scalar"
        assert stats.fallback_reason == reason
        assert stats == replay_walks_scalar(sim_oracle.walker("vanilla"),
                                            sim_oracle.tlb.miss_vas[:64])
        with pytest.raises(ValueError, match="sanitizer"):
            replay_walks_vec(sim.walker("vanilla"), sim.tlb.miss_vas[:64])
    finally:
        sanitizer.reset()


@pytest.mark.parametrize("thp", [False, True], ids=["4KB", "THP"])
def test_fig16_step_breakdown_comes_from_the_oracle(thp):
    """Figure 16's one cell, scaled down: a step-collecting run reports
    the scalar engine and why, and the two leaf fetches pvDMT keeps
    (the guest leaf gL1/gL2 and the data host leaf hdL1) dominate the
    nested-walk breakdown, as ``benchmarks/bench_fig16.py`` asserts."""
    config = SimConfig(scale=4096, nrefs=4000, thp=thp, record_refs=True)
    stats = ENVIRONMENTS["virt"]("Redis", config).run(
        "vanilla", collect_steps=True)
    assert stats.engine == "scalar"
    assert "step collection" in stats.fallback_reason
    breakdown = stats.step_breakdown()
    kept = sum(mean for key, mean in breakdown.items()
               if key.endswith((":gL1", ":gL2", ":hdL1")))
    assert kept / sum(breakdown.values()) > 0.40


def test_replay_rejects_unknown_engine():
    """The engine is derived, never chosen: the stage-2 entry point
    takes no ``engine`` argument at all."""
    sim = ENVIRONMENTS["native"]("GUPS", _config())
    with pytest.raises(TypeError, match="engine"):
        replay_walks(sim.walker("vanilla"), sim.tlb.miss_vas[:8],
                     engine="vec")


@pytest.mark.parametrize("case", ["python-backend", "sanitizer",
                                  "step-collection"])
def test_engine_resolution_rule(case):
    """The one resolution rule: vec for a batchable walker on the python
    backend, scalar plus the reason under the sanitizer or for step
    collection."""
    from repro.analysis import sanitizer

    try:
        sim = (_sanitized_native_sim() if case == "sanitizer"
               else ENVIRONMENTS["native"]("GUPS", _config()))
        stats = replay_walks(sim.walker("dmt"), sim.tlb.miss_vas[:64],
                             collect_steps=case == "step-collection")
    finally:
        sanitizer.reset()
    expected = {"python-backend": ("vec", None),
                "sanitizer": ("scalar", "sanitizer"),
                "step-collection": ("scalar", "step collection")}[case]
    engine, reason = expected
    assert stats.engine == engine
    if reason is None:
        assert stats.fallback_reason is None
    else:
        assert reason in stats.fallback_reason


def test_stage1_cache_shares_miss_stream_across_environments():
    """One trace + TLB filter serves native, virt, and nested machines."""
    cache = Stage1Cache()
    config = _config()
    sims = [ENVIRONMENTS[env]("GUPS", config, stage1=cache)
            for env in ("native", "virt", "nested")]
    assert cache.computed == 1 and cache.reused == 2
    assert sims[0].stage1_reused is False
    assert all(sim.stage1_reused for sim in sims[1:])
    for sim in sims[1:]:
        assert np.array_equal(sims[0].tlb.miss_vas, sim.tlb.miss_vas)
        assert sim.stage1_seconds == sims[0].stage1_seconds > 0.0


def test_run_group_reports_stage1_reuse_telemetry(tmp_path):
    artifact_dir = str(tmp_path / "artifacts")
    task = GroupTask(("native", "virt"), "GUPS", False, ("vanilla",),
                     dict(scale=4096, nrefs=3000),
                     artifact_dir=artifact_dir)
    cells = run_group(task)
    assert [cell["env"] for cell in cells] == ["native", "virt"]
    assert [cell["stage1_reused"] for cell in cells] == [False, True]
    assert [cell["stage1_source"] for cell in cells] == ["computed", "memo"]
    assert cells[0]["stage1_seconds"] == cells[1]["stage1_seconds"] > 0.0
    assert all(cell["walk_engine"] == "vec" for cell in cells)
    assert all(cell["stage2_fallback_reason"] is None for cell in cells)
    assert all(cell["group_seconds"] > 0.0 for cell in cells)
    # A rerun of the group (fresh Stage1Cache, as in a new worker or a
    # new process) serves stage 1 from the on-disk artifact cache.
    warm = run_group(task)
    assert warm[0]["stage1_source"] == "disk"
    assert warm[0]["mean_latency"] == cells[0]["mean_latency"]


@pytest.mark.parametrize("env,design", SUPPORTED)
def test_step_collecting_rerun_repeats_the_plain_run(env, design):
    """A second replay of one design in the same simulation starts from
    the same per-walker state as the first: the MMU caches, including
    ECPT's cuckoo-walk cache, belong to the walker's memory subsystem,
    not to the shared translation structures."""
    sim = ENVIRONMENTS[env]("GUPS", _config(seed=3))
    plain = sim.run(design)
    rerun = sim.run(design, collect_steps=True)
    assert (rerun.walks, rerun.total_cycles, rerun.fallbacks) == \
        (plain.walks, plain.total_cycles, plain.fallbacks)


def test_first_occurrence_rows_follow_first_touch():
    """Plan rows are the unique VPNs in first-occurrence order, and each
    miss's row names its own VPN (the scalar loop's touch order)."""
    from repro.sim.walk_vec import first_occurrence

    vpns = np.array([7, 3, 7, 9, 3, 3, 1, 9, 0], dtype=np.int64)
    uniq, pidx = first_occurrence(vpns)
    assert uniq == list(dict.fromkeys(vpns.tolist()))
    assert pidx.dtype == np.int64
    assert [uniq[p] for p in pidx.tolist()] == vpns.tolist()
