"""Two-level executor and stage-2 result cache (DESIGN.md §15).

Thread parity: replaying a machine's designs with ``cell_threads=N``
must be bit-identical to sequential replay — same :class:`WalkStats`
*and* same end state of everything replay mutates (cache sets, PWCs,
the ECPT CWC, ASAP's inner walker), across all fifteen supported
(environment, design) pairs.

Result cache: a warm sweep over a shared artifact directory must serve
every stage-2 cell from disk (zero replays) and emit a byte-identical
document; corrupted payloads evict and recompute; bumping the cost
model version invalidates every cached result.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.hw.config import xeon_gold_6138
from repro.sim.artifacts import ArtifactCache, digest
from repro.sim.machine import (
    ENVIRONMENTS,
    RUNTIME_KNOBS,
    SimConfig,
    _SimulationBase,
)
from repro.sim.simulator import Stage1Cache, WalkStats
from repro.sim.sweep import (
    GroupTask,
    effective_split,
    grid_tasks,
    replay_cells,
    run_design_stats,
    run_group,
    run_sweep,
)

from tests.test_walk_vec import _design_state, _memsys_state

CONFIG = dict(scale=4096, nrefs=2500, seed=3)

#: All fifteen supported (environment, design) pairs.
ALL_PAIRS = [(env, design)
             for env, env_cls in sorted(ENVIRONMENTS.items())
             for design in env_cls.designs]


def _run_cells(sim, designs, cell_threads):
    """{design: (stats, walker)} through the sweep's cell loop.

    Runs :func:`replay_cells` (sequential, or on a ``cell_threads``
    pool) and keeps each cell's walker, captured as the machine builds
    it, so tests can compare the mutated end state, not just the
    returned stats.
    """
    walkers = {}
    build = sim.walker

    def walker(design):
        walkers[design] = build(design)
        return walkers[design]

    sim.walker = walker
    if cell_threads <= 1:
        outcomes = replay_cells(sim, designs)
    else:
        with ThreadPoolExecutor(max_workers=cell_threads) as executor:
            outcomes = replay_cells(sim, designs, executor)
    out = {}
    for design, stats, error, _seconds in outcomes:
        assert error is None, f"{design}: {error!r}"
        out[design] = (stats, walkers[design])
    return out


def test_thread_parity_all_pairs():
    """cell_threads=4 replays all 15 pairs bit-identically to 1."""
    config = SimConfig(**CONFIG)
    stage1 = Stage1Cache()
    for env, env_cls in sorted(ENVIRONMENTS.items()):
        designs = list(env_cls.designs)
        seq = _run_cells(env_cls("GUPS", config, stage1=stage1),
                         designs, cell_threads=1)
        par = _run_cells(env_cls("GUPS", config, stage1=stage1),
                         designs, cell_threads=4)
        for design in designs:
            stats_seq, walker_seq = seq[design]
            stats_par, walker_par = par[design]
            assert stats_seq == stats_par, f"{env}/{design}: stats diverged"
            assert _memsys_state(walker_seq) == _memsys_state(walker_par), \
                f"{env}/{design}: memory-subsystem end state diverged"
            assert _design_state(walker_seq) == _design_state(walker_par), \
                f"{env}/{design}: design end state diverged"
    assert len(ALL_PAIRS) == 15


@pytest.mark.parametrize("env,design", [("native", "vanilla"),
                                        ("native", "dmt"),
                                        ("virt", "pvdmt")])
def test_prepare_replay_native_matches_scalar_oracle(env, design):
    """prepare_replay_native().execute() off-thread == the scalar oracle."""
    from repro.sim.kernels import prepare_replay_native
    from repro.sim.simulator import replay_walks_scalar

    config = SimConfig(**CONFIG)
    stage1 = Stage1Cache()
    oracle_sim = ENVIRONMENTS[env]("GUPS", config, stage1=stage1)
    oracle_walker = oracle_sim.walker(design)
    oracle = replay_walks_scalar(oracle_walker, oracle_sim.tlb.miss_vas)

    sim = ENVIRONMENTS[env]("GUPS", config, stage1=stage1)
    walker = sim.walker(design)
    prepared = prepare_replay_native(walker, sim.tlb.miss_vas)
    with ThreadPoolExecutor(max_workers=1) as pool:
        stats = pool.submit(prepared.execute).result()
    # engine/fallback_reason are compare=False provenance fields; the
    # replayed numbers and the mutated machine state are the contract.
    assert stats == oracle
    assert _memsys_state(walker) == _memsys_state(oracle_walker)
    assert _design_state(walker) == _design_state(oracle_walker)


def test_run_design_stats_matches_sim_run():
    config = SimConfig(**CONFIG)
    stage1 = Stage1Cache()
    env_cls = ENVIRONMENTS["virt"]
    designs = list(env_cls.designs)
    # The oracle is one machine replaying designs in order — cell
    # results legitimately depend on earlier cells' lazy first-touch
    # population of shared structures, which is exactly why prepares
    # stay sequential on the two-level executor.
    oracle_sim = env_cls("GUPS", config, stage1=stage1)
    oracle = {d: oracle_sim.run(d) for d in designs}
    threaded = run_design_stats(env_cls("GUPS", config, stage1=stage1),
                                designs, cell_threads=4)
    assert threaded == oracle


def _stable(cells):
    from repro.sim.jobs import stable_cells

    return stable_cells(cells)


def test_run_group_cell_threads_matches_sequential():
    sequential = GroupTask(("native", "virt"), "GUPS", False,
                           ("vanilla", "dmt"), dict(CONFIG))
    threaded = sequential._replace(cell_threads=4)
    cells_sequential = run_group(sequential)
    cells_threaded = run_group(threaded)
    assert _stable(cells_threaded) == _stable(cells_sequential)
    for cell in cells_threaded:
        assert cell["stage2_source"] == "computed"
        assert cell["group_seconds"] > 0.0
    # the historical 7-tuple (no cell_threads field) is no longer a task
    with pytest.raises(ValueError):
        run_group(tuple(sequential)[:7])


def test_sequential_group_calls_machine_replay_walks_per_computed_cell(
        tmp_path, monkeypatch):
    """Every computed cell replayed sequentially goes through the
    module-global ``repro.sim.machine.replay_walks`` (the hook a traced
    run wraps) and gets WalkStats back; served cells do not replay."""
    import repro.sim.machine as machine

    calls = []
    real = machine.replay_walks

    def counting(*args, **kwargs):
        stats = real(*args, **kwargs)
        calls.append(stats)
        return stats

    monkeypatch.setattr(machine, "replay_walks", counting)
    task = GroupTask(("native", "virt"), "GUPS", False, ("vanilla", "dmt"),
                     dict(CONFIG), artifact_dir=str(tmp_path),
                     cell_threads=1)
    cold = run_group(task)
    assert [c["stage2_source"] for c in cold] == ["computed"] * 4
    assert len(calls) == 4
    assert all(isinstance(stats, WalkStats) for stats in calls)
    warm = run_group(task)
    assert [c["stage2_source"] for c in warm] == ["disk"] * 4
    assert len(calls) == 4


def test_grid_tasks_and_split_carry_cell_threads():
    task = grid_tasks(("native",), ["GUPS"], cell_threads=3)[0]
    assert task.cell_threads == 3
    assert grid_tasks(("native",), ["GUPS"])[0].cell_threads == 1
    assert effective_split(4, 10, 2) == (4, 2)
    assert effective_split(8, 2, None) == (2, 1)


# --------------------------------------------------------------------- #
# stage-2 result cache
# --------------------------------------------------------------------- #

def _sim(artifact_dir, env="native", **overrides):
    kwargs = dict(CONFIG)
    kwargs.update(overrides)
    stage1 = Stage1Cache(artifacts=ArtifactCache(str(artifact_dir)))
    return ENVIRONMENTS[env]("GUPS", SimConfig(**kwargs), stage1=stage1)


def test_result_cache_cold_then_warm(tmp_path, monkeypatch):
    cold = _sim(tmp_path)
    stats_cold = cold.run("dmt")
    assert cold.stage2_source("dmt") == "computed"

    warm = _sim(tmp_path)

    def explode(*args, **kwargs):
        raise AssertionError("warm run must not replay stage 2")

    monkeypatch.setattr("repro.sim.machine.replay_walks", explode)
    stats_warm = warm.run("dmt")
    assert warm.stage2_source("dmt") == "disk"
    assert stats_warm == stats_cold
    assert stats_warm.engine == stats_cold.engine
    assert stats_warm.step_cycles == stats_cold.step_cycles
    assert warm._result_artifacts().result_hits >= 1


def test_result_cache_key_separates_designs_and_config(tmp_path):
    sim = _sim(tmp_path)
    sim.run("dmt")
    other_design = _sim(tmp_path)
    other_design.run("vanilla")
    assert other_design.stage2_source("vanilla") == "computed"
    other_seed = _sim(tmp_path, seed=4)
    other_seed.run("dmt")
    assert other_seed.stage2_source("dmt") == "computed"


def test_result_cache_invalidated_by_cost_model_bump(tmp_path, monkeypatch):
    _sim(tmp_path).run("dmt")
    monkeypatch.setattr("repro.core.costs.COST_MODEL_VERSION", 999)
    bumped = _sim(tmp_path)
    bumped.run("dmt")
    assert bumped.stage2_source("dmt") == "computed"


def test_result_cache_evicts_corrupted_payload(tmp_path):
    sim = _sim(tmp_path)
    stats = sim.run("dmt")
    artifacts = sim._result_artifacts()
    key = sim._stage2_key("dmt", False)
    key_digest = digest("stage2", key)
    sidecar_path = [p for p in tmp_path.rglob("*.json")
                    if key_digest in p.name]
    assert len(sidecar_path) == 1
    sidecar_path = sidecar_path[0]
    doc = json.loads(sidecar_path.read_text())
    doc["payload"]["stats"]["total_cycles"] += 1
    sidecar_path.write_text(json.dumps(doc))

    assert artifacts.load_result("stage2", key) is None
    assert not sidecar_path.exists(), "corrupt entry must be evicted"
    recomputed = _sim(tmp_path)
    assert recomputed.run("dmt") == stats
    assert recomputed.stage2_source("dmt") == "computed"


def _stub_stage2_key(config, design="pvdmt"):
    """The stage-2 key of a virt/Redis machine with ``config``, the miss
    stream's digest fixed so only the config part can vary."""
    stub = SimpleNamespace(config=config, env_name="virt",
                           workload=SimpleNamespace(name="Redis"),
                           _miss_digest=lambda: "ab" * 32)
    return _SimulationBase._stage2_key(stub, design, False)


def test_stage2_key_digest_is_stable():
    """Deriving the key's config part from the dataclass keeps today's
    digests, so existing result-cache entries stay valid."""
    key = _stub_stage2_key(SimConfig(scale=4096, nrefs=3000, seed=3))
    assert digest("stage2", key) == (
        "0032b8760ec340f7c5d9cd362db4e0ee21c303c8c1a3b0b4b94a476ca658e769")


#: A value differing from the default, for every :class:`SimConfig` field.
ALTERED = {
    "scale": 2048, "nrefs": 1234, "seed": 7, "thp": True, "levels": 5,
    "machine": replace(xeon_gold_6138(), pte_cache_share=0.25),
    "warmup_fraction": 0.2, "record_refs": True, "register_count": 8,
    "bubble_threshold": 0.3, "scale_mmu_caches": False, "sanitize": True,
    "stream_chunk": 7000,
}


@pytest.mark.parametrize("name", [f.name for f in fields(SimConfig)])
def test_stage2_key_covers_every_result_field(name):
    """Every field outside ``RUNTIME_KNOBS`` changes the key; a runtime
    knob never does."""
    base = SimConfig()
    altered = replace(base, **{name: ALTERED[name]})
    assert getattr(altered, name) != getattr(base, name)
    changed = _stub_stage2_key(altered) != _stub_stage2_key(base)
    assert changed == (name not in RUNTIME_KNOBS)


def test_sanitize_bypasses_result_cache(tmp_path):
    _sim(tmp_path).run("dmt")
    sanitized = _sim(tmp_path, sanitize=True)
    sanitized.run("dmt")
    assert sanitized.stage2_source("dmt") == "computed"


def test_warm_sweep_serves_stage2_from_disk_byte_identical(tmp_path):
    kwargs = dict(envs=("native",), workloads=["GUPS"],
                  designs=("vanilla", "dmt", "ecpt"), workers=1,
                  artifact_dir=str(tmp_path / "cache"), **CONFIG)
    cold = run_sweep(cell_threads=1, **kwargs)
    warm = run_sweep(cell_threads=2, **kwargs)
    assert [c["stage2_source"] for c in cold["cells"]] == ["computed"] * 3
    assert [c["stage2_source"] for c in warm["cells"]] == ["disk"] * 3
    blob_cold = json.dumps(_stable(cold["cells"]), sort_keys=True)
    blob_warm = json.dumps(_stable(warm["cells"]), sort_keys=True)
    assert blob_warm == blob_cold, \
        "warm sweep must emit a byte-identical stable document"
    assert warm["meta"]["cell_threads"] == 2
    assert warm["meta"]["parallelism"] == 2


# --------------------------------------------------------------------- #
# warm stage-1 artifacts stay memory-mapped (regression pin)
# --------------------------------------------------------------------- #

def test_warm_run_miss_stream_is_memmapped(tmp_path):
    """The warm path must mmap cached traces/miss streams, not copy.

    ``Stage1Cache.fetch`` and ``_generate_trace`` both load with
    ``mmap=True``; this pins that so a plain ``np.load`` regression
    (whole-array copy per warm run) can't sneak back in.
    """
    _sim(tmp_path).run("vanilla")  # populate the artifact cache
    warm = _sim(tmp_path)
    assert warm.stage1_source == "disk"
    backing = warm.tlb.miss_vas
    seen_memmap = isinstance(backing, np.memmap)
    while isinstance(backing, np.ndarray) and backing.base is not None:
        backing = backing.base
        seen_memmap = seen_memmap or isinstance(backing, np.memmap)
    assert seen_memmap, \
        "warm miss stream must stay a view of the on-disk memmap"
