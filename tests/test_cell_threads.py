"""Stage-2 result cache (DESIGN.md §15).

A warm sweep over a shared artifact directory must serve every stage-2
cell from disk (zero replays) and emit a byte-identical document;
corrupted payloads evict and recompute; bumping the cost model version
invalidates every cached result; the key covers every result-bearing
config field; a sanitized run bypasses the cache.

The module name is historical: it once also held the cell-thread
executor tests, and keeps its name so the test ids stay stable.
"""

from __future__ import annotations

import json
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
from repro.sim.sweep import GroupTask, run_group, run_sweep

CONFIG = dict(scale=4096, nrefs=2500, seed=3)


def _stable(cells):
    from repro.sim.jobs import stable_cells

    return stable_cells(cells)


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
                     dict(CONFIG), artifact_dir=str(tmp_path))
    cold = run_group(task)
    assert [c["stage2_source"] for c in cold] == ["computed"] * 4
    assert len(calls) == 4
    assert all(isinstance(stats, WalkStats) for stats in calls)
    warm = run_group(task)
    assert [c["stage2_source"] for c in warm] == ["disk"] * 4
    assert len(calls) == 4


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
    from repro.analysis import sanitizer

    try:
        _sim(tmp_path).run("dmt")
        sanitized = _sim(tmp_path, sanitize=True)
        sanitized.run("dmt")
        assert sanitized.stage2_source("dmt") == "computed"
    finally:
        sanitizer.reset()


def test_warm_sweep_serves_stage2_from_disk_byte_identical(tmp_path):
    kwargs = dict(envs=("native",), workloads=["GUPS"],
                  designs=("vanilla", "dmt", "ecpt"), workers=1,
                  artifact_dir=str(tmp_path / "cache"), **CONFIG)
    cold = run_sweep(**kwargs)
    warm = run_sweep(**kwargs)
    assert [c["stage2_source"] for c in cold["cells"]] == ["computed"] * 3
    assert [c["stage2_source"] for c in warm["cells"]] == ["disk"] * 3
    blob_cold = json.dumps(_stable(cold["cells"]), sort_keys=True)
    blob_warm = json.dumps(_stable(warm["cells"]), sort_keys=True)
    assert blob_warm == blob_cold, \
        "warm sweep must emit a byte-identical stable document"


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
