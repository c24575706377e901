"""Engine microbenchmarks: vectorized stages 1 and 2, the parallel sweep.

Not a paper figure — this bench guards the simulator's own performance:

* the vectorized TLB-filter engine must beat the scalar oracle by >= 3x
  on the reference stage-1 run (GUPS, native, nrefs=40000) while
  emitting a bit-identical miss stream;
* the batched stage-2 replay engine must beat the scalar walker-replay
  oracle on the same miss stream across **all eight** translation
  designs: >= 3x for the best design, and every design >= its own
  recorded ``VEC_FLOORS`` entry (per-design floors replaced the old
  "two newer planners >= 2x" rule, which flapped around the 2.0 mark
  while letting ecpt ship at 1.18x unflagged), with bit-identical
  :class:`WalkStats` — results are recorded in ``BENCH_engine.json``
  at the repo root;
* the process-parallel sweep runner must produce the same cells as an
  inline run, and scale with worker count when cores are available.

``REPRO_BENCH_MIN_SPEEDUP`` relaxes the 3x targets for smoke runs on
loaded or tiny-trace CI machines; the per-design floors scale with it
(``MIN_SPEEDUP / 3.0``) so one knob relaxes everything proportionally.
"""

import json
import os
import time

import numpy as np

from repro.analysis.report import banner, format_table
from repro.sim.simulator import (
    Stage1Cache,
    make_size_lookup,
    replay_walks_scalar,
    tlb_accept_rates,
    tlb_filter,
    tlb_filter_scalar,
)
from repro.sim.sweep import build_sim, run_sweep
from repro.sim.walk_vec import replay_walks_vec
from repro.sim import NativeSimulation, SimConfig

from conftest import SCALE

#: The acceptance target for the reference stage-1 run.
NREFS = int(os.environ.get("REPRO_BENCH_ENGINE_NREFS", "40000"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))
#: Timing rounds per engine for the stage-2 comparison.
ROUNDS = int(os.environ.get("REPRO_BENCH_ENGINE_ROUNDS", "5"))

#: Where the stage-2 engine comparison is archived (repo root).
RESULTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCH_engine.json")


def _stage1_inputs():
    config = SimConfig(scale=SCALE, nrefs=NREFS)
    sim = NativeSimulation("GUPS", config)
    trace = sim.workload.generate_trace(sim.layout, config.nrefs, config.seed)
    ws = sim.workload.working_set_bytes()
    paper_ws = int(sim.workload.paper_working_set_gb * (1 << 30))
    accept = tlb_accept_rates(config.machine, ws, paper_ws)
    return sim, trace, accept, config.machine


def _best_of(repeats, fn):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def test_stage1_vectorized_speedup(benchmark):
    sim, trace, accept, machine = _stage1_inputs()
    page_table = sim.process.page_table

    scalar_seconds, scalar_result = _best_of(3, lambda: tlb_filter_scalar(
        trace, machine, make_size_lookup(page_table),
        accept_rates=accept))
    vec_seconds, vec_result = _best_of(3, lambda: tlb_filter(
        trace, machine, make_size_lookup(page_table),
        accept_rates=accept))
    speedup = scalar_seconds / vec_seconds

    print(banner(f"Stage-1 engine: GUPS native, nrefs={NREFS}"))
    print(format_table(
        ["engine", "best of 3", "refs/s", "misses"],
        [["scalar", f"{scalar_seconds * 1e3:.1f} ms",
          f"{NREFS / scalar_seconds:,.0f}", scalar_result.miss_count],
         ["vec", f"{vec_seconds * 1e3:.1f} ms",
          f"{NREFS / vec_seconds:,.0f}", vec_result.miss_count]],
    ))
    print(f"speedup: {speedup:.2f}x (target >= {MIN_SPEEDUP}x)")

    assert np.array_equal(scalar_result.miss_vas, vec_result.miss_vas), \
        "engines diverged — the vec engine must be bit-identical"
    assert speedup >= MIN_SPEEDUP, \
        f"vectorized stage 1 only {speedup:.2f}x over the scalar oracle"

    lookup = make_size_lookup(page_table)
    benchmark.pedantic(
        lambda: tlb_filter(trace, machine, lookup, accept_rates=accept),
        rounds=3, iterations=1,
    )


#: The stage-2 comparison cases: every translation design, benched on
#: the environment where it is cheapest to build (the five native
#: designs on the native machine, the virtualization-only designs on
#: the virt machine — their planners are the interesting part anyway).
STAGE2_CASES = (
    ("native", "vanilla"), ("native", "fpt"), ("native", "ecpt"),
    ("native", "asap"), ("native", "dmt"),
    ("virt", "shadow"), ("virt", "agile"), ("virt", "pvdmt"),
)

#: The planners added after the original radix/DMT engine (reported in
#: the summary line; their guarantees now live in ``VEC_FLOORS``).
NEW_DESIGNS = ("fpt", "ecpt", "agile", "asap")

#: Per-design vec-over-scalar floors, set from measured reference runs
#: (vanilla 3.3-3.8x ... ecpt 1.1-1.2x) with ~15-25% headroom for load
#: noise. A design dropping below its floor fails the bench outright —
#: no more shipping ecpt at 1.18x under a single 3.0x best-design gate
#: that vanilla alone satisfies. Scaled by ``MIN_SPEEDUP / 3.0`` so the
#: smoke knob relaxes them in proportion.
VEC_FLOORS = {
    "vanilla": 2.5, "shadow": 2.4, "fpt": 1.6, "ecpt": 1.0,
    "asap": 1.8, "dmt": 1.25, "agile": 1.6, "pvdmt": 1.2,
}

#: Each stage-2 engine, called directly: the bench times engines side
#: by side, which the stage-2 dispatch (one engine per cell) never
#: does.
ENGINE_REPLAYS = {
    "scalar": replay_walks_scalar,
    "vec": replay_walks_vec,
}


def test_stage2_vectorized_speedup(benchmark):
    """Batched walk replay vs the scalar oracle on the GUPS miss stream.

    The best design clearing ``MIN_SPEEDUP`` — and at least two of the
    ``NEW_DESIGNS`` planners clearing ``min(2.0, MIN_SPEEDUP)`` — is
    the acceptance bar; every design must be bit-identical. A shared
    :class:`Stage1Cache` keeps the trace + TLB filter to a single
    computation across the fresh machines each timed run needs (replay
    mutates cache/PWC and walker-side state such as the ECPT CWC).
    Rounds alternate engines so a host-load burst degrades both sides
    of the best-of-``ROUNDS`` comparison, not just one.
    """
    config = SimConfig(scale=SCALE, nrefs=NREFS)
    stage1 = Stage1Cache()
    floor_scale = MIN_SPEEDUP / 3.0
    engines = tuple(ENGINE_REPLAYS)

    rows, results = [], []
    for env, design in STAGE2_CASES:
        seconds = {engine: [] for engine in engines}
        stats = {}
        for _ in range(ROUNDS):
            for engine in engines:
                sim = build_sim(env, "GUPS", config, stage1=stage1)
                walker = sim.walker(design)
                start = time.perf_counter()
                result = ENGINE_REPLAYS[engine](walker, sim.tlb.miss_vas)
                seconds[engine].append(time.perf_counter() - start)
                stats[engine] = result
        best = {engine: min(times) for engine, times in seconds.items()}
        speedup = best["scalar"] / best["vec"]
        walks = stats["vec"].walks
        for engine in engines[1:]:
            assert stats["scalar"] == stats[engine], \
                (f"{env}/{design}: engines diverged — {engine} must be "
                 "bit-identical")
        floor = VEC_FLOORS[design] * floor_scale
        rows.append([f"{env}/{design}", f"{best['scalar'] * 1e3:.1f} ms",
                     f"{best['vec'] * 1e3:.1f} ms",
                     f"{speedup:.2f}x (>={floor:.2f})", walks])
        results.append({
            "design": f"{env}/{design}",
            "env": env,
            "design_name": design,
            "scalar_seconds": best["scalar"],
            "vec_seconds": best["vec"],
            "speedup": speedup,
            "floor": floor,
            "walks": walks,
        })

    print(banner(f"Stage-2 engine: GUPS, nrefs={NREFS}"))
    print(format_table(
        ["env/design", f"scalar (best of {ROUNDS})",
         f"vec (best of {ROUNDS})", "vec speedup", "walks"],
        rows,
    ))
    best_speedup = max(entry["speedup"] for entry in results)
    new_speedups = {entry["design_name"]: f"{entry['speedup']:.2f}x"
                    for entry in results
                    if entry["design_name"] in NEW_DESIGNS}
    print(f"best speedup: {best_speedup:.2f}x (target >= {MIN_SPEEDUP}x); "
          f"new planners: {new_speedups}; "
          f"stage 1 computed {stage1.computed}x, reused {stage1.reused}x")

    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump({
            "meta": {"workload": "GUPS", "scale": SCALE,
                     "nrefs": NREFS, "min_speedup": MIN_SPEEDUP,
                     "rounds": ROUNDS},
            "stage2": results,
        }, handle, indent=2)
        handle.write("\n")

    assert stage1.computed == 1, \
        "every machine build past the first must reuse the stage-1 memo"
    assert best_speedup >= MIN_SPEEDUP, \
        f"batched stage 2 only {best_speedup:.2f}x over the scalar oracle"
    slow = [f"{e['design']} {e['speedup']:.2f}x < {e['floor']:.2f}x"
            for e in results if e["speedup"] < e["floor"]]
    assert not slow, f"designs below their recorded vec floor: {slow}"

    sim = NativeSimulation("GUPS", config, stage1=stage1)
    benchmark.pedantic(
        lambda: replay_walks_vec(sim.walker("dmt"), sim.tlb.miss_vas),
        rounds=3, iterations=1,
    )


def _telemetry_free(document):
    """Sweep cells minus the fields that legitimately vary per run."""
    volatile = ("replay_seconds", "walks_per_second", "build_seconds",
                "stage1_seconds", "peak_rss_kb", "worker_pid",
                "stage2_source", "group_seconds")
    return [{k: v for k, v in cell.items() if k not in volatile}
            for cell in document["cells"]]


def test_sweep_scaling_with_workers():
    kwargs = dict(envs=("native",), workloads=("GUPS", "Redis"),
                  designs=("vanilla", "dmt"), scale=2048, nrefs=6000)

    start = time.perf_counter()
    serial = run_sweep(workers=1, **kwargs)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_sweep(workers=2, **kwargs)
    parallel_seconds = time.perf_counter() - start

    print(banner("Sweep runner scaling"))
    print(f"1 worker : {serial_seconds:.2f}s   "
          f"2 workers: {parallel_seconds:.2f}s   "
          f"ratio {serial_seconds / parallel_seconds:.2f}x "
          f"({os.cpu_count()} core(s))")

    assert _telemetry_free(parallel) == _telemetry_free(serial), \
        "parallel sweep must reproduce the inline results exactly"
    assert parallel["meta"]["cells"] == 4
    if (os.cpu_count() or 1) >= 2:
        # two independent groups on two cores: expect near-linear scaling,
        # asserted loosely to tolerate loaded CI machines
        assert parallel_seconds < serial_seconds * 0.80, \
            "sweep does not scale with worker count"
