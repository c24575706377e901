"""Process-parallel sweep over the simulation grid.

A *sweep* evaluates every cell of the (environment × workload × design ×
page-size) grid — the design-space exploration behind Figures 14/15/17.
A group task covers one (workload, page-size) pair across *all* swept
environments: the worker shares one
:class:`~repro.sim.simulator.Stage1Cache` across them, so the trace and
TLB-miss stream are computed once per group and reused by every
environment and design cell (the miss stream depends only on the
workload and config, not the environment). Groups are independent, so
they fan out across worker processes with
:class:`concurrent.futures.ProcessPoolExecutor`.

Within one group the cells replay sequentially, in design order:
planning touches lazily populated structures shared by a machine's
cells, so a cell's result may depend on the cells before it, and the
order is part of the contract.

Each grid cell reports telemetry alongside its simulation statistics:
stage-1 wall time and whether it was served from the group's memo,
replay wall time and the stage-2 engine used, the stage-2 result-cache
provenance (``stage2_source``), walk throughput, the worker's peak
RSS, the machine-build time, and the group's wall seconds. The whole
sweep serializes to a JSON document (``meta`` + ``cells``) so runs can
be archived and diffed.

Exposed through ``python -m repro sweep`` and reused by
``benchmarks/conftest.py``'s ``SimCache``.
"""

from __future__ import annotations

import json
import os
import resource
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs import metrics
from repro.obs import trace as obs_trace
from repro.sim.artifacts import ArtifactCache
from repro.sim.machine import ENVIRONMENTS, SimConfig
from repro.sim.simulator import Stage1Cache

#: The paper's seven evaluation workloads (Table 1 order).
ALL_WORKLOADS = ["Redis", "Memcached", "GUPS", "BTree", "Canneal",
                 "XSBench", "Graph500"]

class GroupTask(NamedTuple):
    """One (workload, THP) pair across every swept environment.

    Picklable, so the process pool can ship it to a worker.
    """

    envs: Tuple[str, ...]
    workload: str
    thp: bool
    #: Requested designs, or None for every design of each environment.
    designs: Optional[Tuple[str, ...]]
    #: :class:`SimConfig` kwargs (everything except ``thp``).
    config: Dict
    #: JSONL span-stream destination, or None.
    trace_path: Optional[str] = None
    #: Cross-run artifact-cache directory, or None.
    artifact_dir: Optional[str] = None


def build_sim(env: str, workload: str, config: SimConfig,
              stage1: Optional[Stage1Cache] = None):
    """Construct the simulation machine for one grid group."""
    try:
        env_cls = ENVIRONMENTS[env]
    except KeyError:
        raise KeyError(f"unknown environment {env!r}; "
                       f"have {sorted(ENVIRONMENTS)}") from None
    return env_cls(workload, config, stage1=stage1)


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (Linux ru_maxrss)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def error_cell(env: str, workload: str, thp: bool,
               design: Optional[str], exc: BaseException) -> Dict:
    """The JSON record for a grid cell (or whole group) that raised.

    Error cells carry an ``"error"`` key instead of statistics, so one
    crashing cell degrades the sweep document instead of poisoning it.
    """
    return {
        "env": env,
        "workload": workload,
        "design": design,
        "thp": thp,
        "error": f"{type(exc).__name__}: {exc}",
        "worker_pid": os.getpid(),
    }


def validate_grid(envs: Sequence[str],
                  designs: Optional[Sequence[str]] = None) -> None:
    """Raise :class:`KeyError` for an unknown environment or a design no
    swept environment provides (a design valid in only *some* swept
    environments is fine — it just runs where available)."""
    for env in envs:
        if env not in ENVIRONMENTS:
            raise KeyError(f"unknown environment {env!r}; "
                           f"have {sorted(ENVIRONMENTS)}")
    known_designs = set()
    for env in envs:
        known_designs.update(ENVIRONMENTS[env].designs)
    for design in designs or ():
        if design not in known_designs:
            raise KeyError(f"unknown design {design!r}; swept environments "
                           f"provide {sorted(known_designs)}")


def dead_group_cells(task: GroupTask, exc: BaseException) -> List[Dict]:
    """Error cells for a group whose *worker process* died.

    When a pool worker is OOM-killed or segfaults there is no per-cell
    result to report, but collapsing the group into one ``design=None``
    cell per environment would make it impossible for regress/diff
    tooling to see *which* cells are missing. Fabricate one error cell
    per (environment, requested design) — the task's design list when
    given, the environment class's full design set when sweeping all —
    so a dead group has exactly as many cells as a healthy one.
    """
    envs, workload, thp, designs = (task.envs, task.workload, task.thp,
                                    task.designs)
    cells: List[Dict] = []
    for env in envs:
        env_cls = ENVIRONMENTS.get(env)
        available = tuple(env_cls.designs) if env_cls is not None else ()
        if designs:
            requested = [d for d in designs if d in available]
        else:
            requested = list(available)
        if not requested:
            cells.append(error_cell(env, workload, thp, None, exc))
            continue
        for design in requested:
            cells.append(error_cell(env, workload, thp, design, exc))
    return cells


def cell_sort_key(cell: Dict) -> Tuple:
    """Deterministic document order for grid cells."""
    return (cell["env"], cell["workload"], cell["thp"],
            cell.get("design") or "")


def write_document(document: Dict, out_path: str) -> None:
    """Serialize a sweep document atomically (tmp + ``os.replace``).

    A reader never observes a half-written JSON file, and an interrupt
    mid-dump leaves any previous complete document in place.
    """
    tmp = f"{out_path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def effective_workers(workers: int, tasks: int) -> int:
    """The pool size a sweep actually runs with.

    ``workers`` of 0/1 (or a single task) runs inline — one process, no
    pool — and a larger pool is capped at the task count; sweep
    documents record this value, not the requested one.
    """
    if workers <= 1 or tasks <= 1:
        return 1
    return min(workers, tasks)


def run_group(task: GroupTask) -> List[Dict]:
    """Run one (workload, thp) group across its environments.

    The group shares one :class:`Stage1Cache`, so the trace and TLB-miss
    stream are computed by the first environment and reused by the rest
    (each cell's ``stage1_reused``/``stage1_source`` telemetry records
    which); with an artifact directory in the task, the cache also
    persists stage 0/1 to disk and reuses results across runs. Returns one
    telemetry dict per grid cell; a design that raises yields an error
    cell while the group's other designs still complete (a failed
    machine build fails that environment's cells). A requested design no
    swept environment provides yields an error cell instead of being
    silently dropped. Module-level so the process pool can pickle it.
    """
    (envs, workload, thp, designs, config_kwargs, trace_path,
     artifact_dir) = task
    if trace_path:
        obs_trace.enable(trace_path)
    artifacts = ArtifactCache(artifact_dir) if artifact_dir else None
    stage1 = Stage1Cache(artifacts=artifacts)
    cells: List[Dict] = []
    group_start = time.perf_counter()
    # Design availability is a static property of the environment
    # classes, so an unknown design is detected even when a machine
    # build fails for other reasons (e.g. an unknown workload).
    provided: set = set()
    for env in envs:
        env_cls = ENVIRONMENTS.get(env)
        if env_cls is not None:
            provided.update(env_cls.designs)
    with obs_trace.span("sweep.run_group", envs="+".join(envs),
                        workload=workload, thp=thp):
        for env in envs:
            try:
                config = SimConfig(thp=thp, **config_kwargs)
                build_start = time.perf_counter()
                with obs_trace.span("sweep.build_sim", env=env,
                                    workload=workload, thp=thp):
                    sim = build_sim(env, workload, config,
                                    stage1=stage1)
                build_seconds = time.perf_counter() - build_start
            except Exception as exc:
                cells.append(error_cell(env, workload, thp, None, exc))
                continue

            available = list(sim.designs)
            requested = [d for d in (designs or available)
                         if d in available]
            cells.extend(_run_env_cells(sim, env, workload, thp, requested,
                                        build_seconds))
    for design in designs or ():
        if design not in provided:
            exc = KeyError(f"unknown design {design!r}; no swept "
                           f"environment provides it")
            cells.append(error_cell("+".join(envs), workload, thp,
                                    design, exc))
    group_seconds = time.perf_counter() - group_start
    for cell in cells:
        cell["group_seconds"] = group_seconds
    return cells


def _cell_record(sim, env: str, workload: str, thp: bool, design: str,
                 stats, replay_seconds: float,
                 build_seconds: float) -> Dict:
    """The telemetry dict for one successfully replayed grid cell."""
    return {
        "env": env,
        "workload": workload,
        "design": design,
        "thp": thp,
        "walks": stats.walks,
        "mean_latency": stats.mean_latency,
        "fallback_rate": stats.fallback_rate,
        "miss_count": sim.tlb.miss_count,
        "total_refs": sim.tlb.total_refs,
        "tlb_miss_rate": sim.tlb.miss_rate,
        "stage1_seconds": sim.stage1_seconds,
        "stage1_reused": sim.stage1_reused,
        "stage1_source": sim.stage1_source,
        "stage1_streamed": sim.stage1_streamed,
        "walk_engine": stats.engine,
        "stage2_fallback_reason": stats.fallback_reason,
        "stage2_source": sim.stage2_source(design),
        "replay_seconds": replay_seconds,
        "walks_per_second": (stats.walks / replay_seconds
                             if replay_seconds > 0 else 0.0),
        "build_seconds": build_seconds,
        "peak_rss_kb": peak_rss_kb(),
        "worker_pid": os.getpid(),
    }


def _run_env_cells(sim, env: str, workload: str, thp: bool,
                   requested: List[str], build_seconds: float) -> List[Dict]:
    """Replay every requested design on one built machine, in order.

    Each cell is ``sim.run(design)``; a cell that raised becomes an
    error cell while the others still report.
    """
    env_cells: List[Dict] = []
    latency: Dict[str, float] = {}
    for design in requested:
        start = time.perf_counter()
        try:
            stats = sim.run(design)
        except Exception as error:
            env_cells.append(error_cell(env, workload, thp, design, error))
            continue
        seconds = time.perf_counter() - start
        latency[design] = stats.mean_latency
        env_cells.append(_cell_record(sim, env, workload, thp, design,
                                      stats, seconds, build_seconds))
    vanilla = latency.get("vanilla")
    for cell in env_cells:
        if "error" in cell:
            continue
        cell["walk_speedup"] = (
            vanilla / cell["mean_latency"]
            if vanilla and cell["mean_latency"] else None)
    return env_cells


def grid_tasks(envs: Sequence[str],
               workloads: Optional[Sequence[str]] = None,
               designs: Optional[Sequence[str]] = None,
               thp_modes: Sequence[bool] = (False,),
               trace_path: Optional[str] = None,
               artifact_dir: Optional[str] = None,
               **config_kwargs) -> List[GroupTask]:
    """Enumerate the group tasks of a sweep.

    One task per (workload, THP) pair covering every environment, so a
    single worker computes stage 1 once and replays it everywhere. With
    ``trace_path`` set, each task carries the span-stream destination so
    pool workers append to the shared JSONL file; with ``artifact_dir``
    set, each worker's stage-0/1 results persist to (and load from) the
    shared cross-run artifact cache.
    """
    names = list(workloads or ALL_WORKLOADS)
    wanted = tuple(designs) if designs else None
    env_tuple = tuple(envs)
    return [GroupTask(envs=env_tuple, workload=workload, thp=thp,
                      designs=wanted, config=dict(config_kwargs),
                      trace_path=trace_path, artifact_dir=artifact_dir)
            for workload in names for thp in thp_modes]


def _task_label(task: GroupTask) -> str:
    """``envs/workload[ thp]`` for progress lines."""
    return (f"{'+'.join(task.envs)}/{task.workload}"
            f"{' thp' if task.thp else ''}")


def run_sweep(envs: Sequence[str] = ("native",),
              workloads: Optional[Sequence[str]] = None,
              designs: Optional[Sequence[str]] = None,
              thp_modes: Sequence[bool] = (False,),
              workers: Optional[int] = None,
              out_path: Optional[str] = None,
              progress: Optional[Callable[[str], None]] = None,
              trace_path: Optional[str] = None,
              artifact_dir: Optional[str] = None,
              resume_dir: Optional[str] = None,
              **config_kwargs) -> Dict:
    """Run the grid, fanning groups across ``workers`` processes.

    ``config_kwargs`` (scale, nrefs, seed, levels, register_count, ...)
    are forwarded to each worker's :class:`SimConfig`. ``workers`` of 0/1
    runs inline — same results, no pool. Raises :class:`KeyError` for an
    unknown environment or a design no swept environment provides (a
    design valid in only *some* swept environments is fine — it just
    runs where available). With ``trace_path`` set, every group's span
    stream appends to that JSONL file (:mod:`repro.obs.trace`); if the
    caller already opened a trace stream, ``run_sweep`` leaves it open
    on exit instead of closing it from under them. With ``artifact_dir``
    set, workers share a cross-run
    :class:`~repro.sim.artifacts.ArtifactCache` there: traces and
    TLB-miss streams computed by any previous run (or concurrent
    worker) are reused instead of recomputed, and each cell's
    ``stage1_source`` telemetry says whether its stage 1 came from
    ``"disk"``.

    With ``resume_dir`` set, the sweep runs as a durable *job* through
    :mod:`repro.sim.jobs`: completed groups are journaled under that
    directory as they finish, an interrupted sweep restarts from the
    journal re-running only missing groups, and dead pool workers are
    retried with backoff (DESIGN.md §14).

    Returns the JSON-ready document ``{"meta": ..., "cells": [...]}``
    and writes it to ``out_path`` when given (atomic tmp + rename). An
    interrupted sweep (Ctrl-C, fatal error) still flushes the cells
    completed so far to ``out_path`` — marked ``meta.partial`` — before
    the exception propagates.
    """
    validate_grid(envs, designs)
    if resume_dir is not None:
        # Durable path: the one-shot CLI becomes a thin client of the
        # jobs layer. Imported lazily — jobs imports this module.
        from repro.sim.jobs import run_resumable_sweep

        return run_resumable_sweep(
            resume_dir, envs=envs, workloads=workloads, designs=designs,
            thp_modes=thp_modes, workers=workers, out_path=out_path,
            progress=progress, trace_path=trace_path,
            artifact_dir=artifact_dir, **config_kwargs)
    tasks = grid_tasks(envs, workloads, designs, thp_modes,
                       trace_path=trace_path, artifact_dir=artifact_dir,
                       **config_kwargs)
    if workers is None:
        workers = os.cpu_count() or 1
    pool_size = effective_workers(workers, len(tasks))
    notify = progress or (lambda message: None)

    # Parent-side progress counters; pool workers count in their own
    # registries, so these instances are the sweep-wide truth.
    groups_done = metrics.counter("sweep.groups")
    cells_done = metrics.counter("sweep.cells")
    errors_seen = metrics.counter("sweep.error_cells")
    # Only close the process-global trace stream on exit if this call
    # opened it: a caller (repro run --trace, a jobs client running
    # several sweeps) that enabled tracing before entry keeps its
    # stream.
    owns_trace = bool(trace_path) and not obs_trace.active()
    if trace_path:
        obs_trace.enable(trace_path)

    started = time.time()
    cells: List[Dict] = []
    done = 0

    def document_for(partial: bool = False) -> Dict:
        meta = {
            "envs": list(envs),
            "workloads": list(workloads or ALL_WORKLOADS),
            "designs": list(designs) if designs else "all",
            "thp_modes": [bool(t) for t in thp_modes],
            "config": dict(config_kwargs),
            "workers": pool_size,
            "requested_workers": workers,
            "groups": len(tasks),
            "cells": len(cells),
            "wall_seconds": time.time() - started,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z",
                                        time.localtime(started)),
            "trace": trace_path,
            "artifact_cache": artifact_dir,
            "metrics": {
                "sweep.groups": groups_done.value,
                "sweep.cells": cells_done.value,
                "sweep.error_cells": errors_seen.value,
            },
        }
        if partial:
            meta["partial"] = True
            meta["completed_groups"] = done
        return {"meta": meta, "cells": sorted(cells, key=cell_sort_key)}

    try:
        if pool_size == 1:
            for task in tasks:
                group_cells = run_group(task)
                cells.extend(group_cells)
                done += 1
                groups_done.inc()
                cells_done.inc(len(group_cells))
                errors_seen.inc(
                    sum(1 for cell in group_cells if "error" in cell))
                notify(f"[{done}/{len(tasks)}] {_task_label(task)} "
                       f"done (inline)")
        else:
            with ProcessPoolExecutor(max_workers=pool_size) as pool:
                futures = {}
                for task in tasks:
                    try:
                        future = pool.submit(run_group, task)
                    except BrokenProcessPool as exc:
                        # a worker died before every group was submitted:
                        # the unsubmitted groups degrade like its own
                        future = Future()
                        future.set_exception(exc)
                    futures[future] = task
                for future in as_completed(futures):
                    task = futures[future]
                    try:
                        group_cells = future.result()
                    except Exception as exc:
                        # run_group catches cell failures itself; reaching
                        # here means the worker process died (OOM kill,
                        # segfault) or the result failed to unpickle —
                        # fabricate one error cell per (env, design) so
                        # diff tooling sees exactly which cells are gone.
                        group_cells = dead_group_cells(task, exc)
                    cells.extend(group_cells)
                    done += 1
                    failed = sum(1 for cell in group_cells
                                 if "error" in cell)
                    groups_done.inc()
                    cells_done.inc(len(group_cells))
                    errors_seen.inc(failed)
                    notify(f"[{done}/{len(tasks)}] "
                           f"{_task_label(task)} "
                           f"{'FAILED' if failed else 'done'}")
    except BaseException:
        # An interrupted sweep (Ctrl-C, OOM-killed pool, fatal error)
        # must not discard the groups already completed: flush them as
        # a partial document before the exception propagates.
        if out_path and cells:
            try:
                write_document(document_for(partial=True), out_path)
            except OSError:
                pass  # the original exception matters more
        raise
    finally:
        if owns_trace:
            obs_trace.disable()

    document = document_for()
    if out_path:
        write_document(document, out_path)
    return document


def summarize(document: Dict) -> List[List]:
    """Rows for a human-readable sweep summary table."""
    rows = []
    for cell in document["cells"]:
        if "error" in cell:
            rows.append([
                cell["env"],
                cell["workload"],
                "THP" if cell["thp"] else "4KB",
                cell.get("design") or "(group)",
                f"ERROR: {cell['error']}",
                "-", "-", "-",
            ])
            continue
        speedup = cell.get("walk_speedup")
        rows.append([
            cell["env"],
            cell["workload"],
            "THP" if cell["thp"] else "4KB",
            cell["design"],
            f"{cell['mean_latency']:.1f}",
            f"{speedup:.2f}x" if speedup else "-",
            f"{cell['walks_per_second']:,.0f}",
            f"{cell['peak_rss_kb'] >> 10} MiB",
        ])
    return rows


def load_sweep(path: str) -> Dict:
    """Read a sweep document back from its JSON store."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
