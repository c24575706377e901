"""The shard scheduler: fan pending shards over a pool, journal, retry.

One :class:`JobScheduler` owns one job directory. ``run()`` replays the
journal, serves already-completed shards from it (counted in the
``sweep.resumed_groups`` metric), and fans the missing shards over a
worker pool in *rounds*:

* each round submits at most ``pool_size`` shards at a time, so a
  submitted shard starts (approximately) immediately and the per-shard
  ``shard_timeout`` can be measured from submission;
* a shard whose worker process dies (``BrokenProcessPool`` — OOM kill,
  segfault) or that exceeds its timeout *charges an attempt* and is
  re-queued for the next round after an exponential backoff, up to
  ``max_retries`` re-runs; shards the broken/abandoned pool never
  started are re-queued without charge;
* a timed-out shard's worker cannot be reclaimed through the Executor
  API, so the whole pool is abandoned (terminated) and the next round
  starts a fresh one;
* every completed shard is fsync-appended to the journal *before* the
  scheduler moves on, so a SIGKILL at any instant loses at most the
  shards in flight.

Exceptions *inside* a group (a bad design, a failing machine build)
never reach the scheduler — :func:`~repro.sim.sweep.run_group` converts
them to per-cell error records, and the shard completes normally.
Retries are for infrastructure failures only.

A shard that exhausts its retries is journaled as ``failed`` and
contributes one fabricated error cell per (environment, design)
(:func:`~repro.sim.sweep.dead_group_cells`), so the final document's
cell count still matches a healthy run's.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import metrics
from repro.obs import trace as obs_trace
from repro.sim.jobs import journal as jn
from repro.sim.jobs.spec import JobSpec, Shard
from repro.sim.sweep import (ALL_WORKLOADS, cell_sort_key, dead_group_cells,
                             effective_workers, run_group, write_document)

#: How long one ``wait()`` poll blocks before re-checking timeouts/cancel.
POLL_SECONDS = 0.2
#: Minimum spacing of poll-driven heartbeat records (completion-driven
#: ones are unthrottled — each marks real progress).
HEARTBEAT_SECONDS = 5.0
#: Default cap on re-runs of a shard after infrastructure failures.
DEFAULT_MAX_RETRIES = 2
#: Base of the exponential inter-round backoff, in seconds.
DEFAULT_BACKOFF = 0.5
#: Longest single backoff sleep, however many retries accumulated.
MAX_BACKOFF_SECONDS = 30.0

#: Cell keys that vary run-to-run on identical results (wall time, pids,
#: RSS, cache provenance) — what resume-identity checks must ignore.
VOLATILE_CELL_KEYS = (
    "replay_seconds", "walks_per_second", "build_seconds",
    "stage1_seconds", "stage1_reused", "stage1_source",
    "stage2_source", "group_seconds",
    "peak_rss_kb", "worker_pid",
)


def stable_cells(cells: List[Dict]) -> List[Dict]:
    """Cells with volatile telemetry stripped, in document order."""
    return [{key: value for key, value in cell.items()
             if key not in VOLATILE_CELL_KEYS}
            for cell in sorted(cells, key=cell_sort_key)]


class JobScheduler:
    """Run (or resume) one sweep job to completion."""

    def __init__(self, spec: JobSpec, job_dir: str, *,
                 workers: Optional[int] = None,
                 shard_timeout: Optional[float] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 out_path: Optional[str] = None,
                 trace_path: Optional[str] = None,
                 artifact_dir: Optional[str] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 run_fn: Optional[Callable] = None):
        # A config no shard can build refuses the job before the
        # journal is touched.
        spec.check_config()
        self.spec = spec
        self.job_dir = job_dir
        self.workers = workers if workers is not None \
            else (os.cpu_count() or 1)
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.out_path = out_path
        self.trace_path = trace_path
        self.artifact_dir = artifact_dir
        self.notify = progress or (lambda message: None)
        # Injectable for tests (suicidal/sleeping workers); must be
        # picklable for the pool path.
        self._run_fn = run_fn or run_group
        self.journal: Optional[jn.Journal] = None
        self._shards = spec.shards()
        self._total = len(self._shards)
        self._journal_cells: Dict[str, List[Dict]] = {}
        self._new_cells: Dict[str, List[Dict]] = {}
        self._failed: Dict[str, str] = {}
        self._failures: Dict[str, int] = {}
        self._cancelled = False
        self._last_heartbeat = float("-inf")
        # Parent-side sweep-wide counters (pool workers count in their
        # own registries), same names as the one-shot runner plus the
        # job-layer resume/retry telemetry.
        self._groups_done = metrics.counter("sweep.groups")
        self._cells_done = metrics.counter("sweep.cells")
        self._errors_seen = metrics.counter("sweep.error_cells")
        self._resumed = metrics.counter("sweep.resumed_groups")
        self._retried = metrics.counter("sweep.retried_shards")

    # ------------------------------------------------------------------
    # journal interaction

    def _attach(self) -> None:
        """Open (or create) the journal and load completed shards."""
        os.makedirs(self.job_dir, exist_ok=True)
        path = jn.journal_path(self.job_dir)
        records, torn = jn.read_journal(path)
        if torn:
            # Truncate the half-appended record so our own appends
            # start on a fresh line; its shard simply re-runs.
            jn.repair_journal(path)
        header = jn.job_record(records)
        if header is not None and header.get("job_id") != self.spec.job_id:
            raise ValueError(
                f"job directory {self.job_dir!r} belongs to job "
                f"{header.get('job_id')!r}, not {self.spec.job_id!r}; "
                f"refusing to mix grids in one journal")
        self.journal = jn.Journal(path)
        if header is None:
            self.journal.append({
                "type": "job",
                "job_id": self.spec.job_id,
                "spec": self.spec.canonical(),
                "unix": time.time(),
            })
        else:
            self.journal.append({
                "type": "resume",
                "job_id": self.spec.job_id,
                "torn_tail": torn,
                "pid": os.getpid(),
                "unix": time.time(),
            })
        valid = {shard.shard_id for shard in self._shards}
        for shard_id, record in jn.completed_shards(records).items():
            if shard_id in valid:
                self._journal_cells[shard_id] = record["cells"]
        self._resumed.inc(len(self._journal_cells))

    def _heartbeat(self, running: List[str], force: bool = True) -> None:
        now = time.monotonic()
        if not force and now - self._last_heartbeat < HEARTBEAT_SECONDS:
            return
        self._last_heartbeat = now
        self.journal.append({
            "type": "heartbeat",
            "done": len(self._journal_cells) + len(self._new_cells),
            "total": self._total,
            "failed": sorted(self._failed),
            "running": running,
            "pid": os.getpid(),
            "unix": time.time(),
        })

    def _record_shard(self, shard: Shard, cells: List[Dict],
                      seconds: float) -> None:
        """Journal one completed shard — durability point for its cells."""
        self.journal.append({
            "type": "shard",
            "shard_id": shard.shard_id,
            "attempt": self._failures.get(shard.shard_id, 0) + 1,
            "seconds": seconds,
            "pid": os.getpid(),
            "unix": time.time(),
            "cells": cells,
        })
        self._new_cells[shard.shard_id] = cells
        self._groups_done.inc()
        self._cells_done.inc(len(cells))
        self._errors_seen.inc(sum(1 for cell in cells if "error" in cell))
        done = len(self._journal_cells) + len(self._new_cells)
        self.notify(f"[{done}/{self._total}] {shard.shard_id} done")

    def _cancel_requested(self) -> bool:
        if not self._cancelled and \
                os.path.exists(jn.cancel_path(self.job_dir)):
            self._cancelled = True
            self.journal.append({"type": "cancel", "pid": os.getpid(),
                                 "unix": time.time()})
            self.notify("cancel requested; draining")
        return self._cancelled

    # ------------------------------------------------------------------
    # rounds

    def _charge_failure(self, shard: Shard, error: str) -> None:
        """Count one failed attempt; re-queue or give up on the shard."""
        failures = self._failures.get(shard.shard_id, 0) + 1
        self._failures[shard.shard_id] = failures
        if failures <= self.max_retries:
            backoff = min(self.backoff * (2 ** (failures - 1)),
                          MAX_BACKOFF_SECONDS)
            self._retried.inc()
            self.journal.append({
                "type": "retry", "shard_id": shard.shard_id,
                "attempt": failures, "error": error,
                "backoff_seconds": backoff, "unix": time.time(),
            })
            self.notify(f"retrying {shard.shard_id} "
                        f"(attempt {failures + 1}) after {error}")
        else:
            self._failed[shard.shard_id] = error
            self.journal.append({
                "type": "failed", "shard_id": shard.shard_id,
                "attempts": failures, "error": error, "unix": time.time(),
            })
            self.notify(f"{shard.shard_id} FAILED after "
                        f"{failures} attempts: {error}")

    def _run_inline_round(
            self, shards: List[Shard]) -> Tuple[List[Tuple[Shard, str]],
                                                List[Shard]]:
        """Run a round in-process; timeouts are not enforced inline."""
        charged: List[Tuple[Shard, str]] = []
        for index, shard in enumerate(shards):
            if self._cancel_requested():
                return charged, shards[index:]
            task = self.spec.task(shard, self.trace_path, self.artifact_dir)
            started = time.perf_counter()
            try:
                cells = self._run_fn(task)
            except Exception as exc:
                charged.append((shard, f"{type(exc).__name__}: {exc}"))
            else:
                self._record_shard(shard, cells,
                                   time.perf_counter() - started)
                self._heartbeat(running=[])
        return charged, []

    def _run_pool_round(
            self, shards: List[Shard],
            pool_size: int) -> Tuple[List[Tuple[Shard, str]], List[Shard]]:
        """Run one round over a fresh pool.

        Returns ``(charged, leftovers)``: shards whose attempt failed
        (worker death, timeout) and shards the round never started
        (broken/abandoned pool, cancel) that re-queue without charge.
        """
        charged: List[Tuple[Shard, str]] = []
        pending = list(shards)
        running: Dict = {}  # future -> (shard, submitted_monotonic, perf0)
        abandoned = False
        pool = ProcessPoolExecutor(max_workers=pool_size)
        try:
            while pending or running:
                if self._cancel_requested():
                    break
                broken = False
                while pending and len(running) < pool_size:
                    shard = pending[0]
                    task = self.spec.task(shard, self.trace_path,
                                          self.artifact_dir)
                    try:
                        future = pool.submit(self._run_fn, task)
                    except (BrokenProcessPool, RuntimeError):
                        broken = True
                        break
                    pending.pop(0)
                    running[future] = (shard, time.monotonic(),
                                      time.perf_counter())
                if not running:
                    if broken:
                        abandoned = True
                    break
                done, _ = wait(set(running), timeout=POLL_SECONDS,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    shard, _, perf0 = running.pop(future)
                    try:
                        cells = future.result()
                    except Exception as exc:
                        # run_group converts in-group exceptions to error
                        # cells; reaching here means the worker process
                        # died or its result failed to unpickle.
                        charged.append(
                            (shard, f"{type(exc).__name__}: {exc}"))
                    else:
                        self._record_shard(shard, cells,
                                           time.perf_counter() - perf0)
                self._heartbeat(running=[s.shard_id
                                         for s, _, _ in running.values()],
                                force=bool(done))
                if self.shard_timeout is not None and running:
                    now = time.monotonic()
                    expired = [future for future, (_, t0, _)
                               in running.items()
                               if now - t0 > self.shard_timeout]
                    if expired:
                        for future in expired:
                            shard, _, _ = running.pop(future)
                            charged.append((
                                shard,
                                f"TimeoutError: shard exceeded "
                                f"{self.shard_timeout:g}s"))
                        # A hung worker can't be reclaimed through the
                        # Executor API: abandon the whole pool and let
                        # the next round start fresh.
                        abandoned = True
                        break
        finally:
            leftovers = pending + [shard for shard, _, _ in running.values()]
            if abandoned:
                # Snapshot the worker processes first — shutdown drops
                # the executor's reference to them.
                procs = list((getattr(pool, "_processes", None)
                              or {}).values())
                pool.shutdown(wait=False, cancel_futures=True)
                for proc in procs:
                    proc.terminate()
            else:
                pool.shutdown(wait=True, cancel_futures=True)
        return charged, leftovers

    # ------------------------------------------------------------------
    # the job

    def run(self) -> Dict:
        """Run every missing shard and return the assembled document."""
        self._attach()
        started = time.time()
        pending = [shard for shard in self._shards
                   if shard.shard_id not in self._journal_cells]
        if self._journal_cells:
            self.notify(f"resuming job {self.spec.job_id}: "
                        f"{len(self._journal_cells)} of {self._total} "
                        f"group(s) served from the journal, "
                        f"{len(pending)} to run")
        pool_size = effective_workers(self.workers, len(pending)) \
            if pending else 1
        try:
            with obs_trace.span("job.run", job_id=self.spec.job_id,
                                shards=self._total,
                                resumed=len(self._journal_cells)):
                queue = pending
                while queue and not self._cancel_requested():
                    round_size = effective_workers(self.workers, len(queue))
                    self._heartbeat(running=[])
                    if round_size == 1:
                        charged, leftovers = self._run_inline_round(queue)
                    else:
                        charged, leftovers = self._run_pool_round(
                            queue, round_size)
                    queue = list(leftovers)
                    backoffs = []
                    for shard, error in charged:
                        self._charge_failure(shard, error)
                        if shard.shard_id not in self._failed:
                            queue.append(shard)
                            failures = self._failures[shard.shard_id]
                            backoffs.append(
                                min(self.backoff * (2 ** (failures - 1)),
                                    MAX_BACKOFF_SECONDS))
                    if backoffs and not self._cancel_requested():
                        time.sleep(max(backoffs))
        except BaseException:
            # The journal already holds every completed shard; also
            # flush a partial document for out_path readers.
            if self.out_path:
                try:
                    write_document(
                        self._document(started, pool_size, partial=True),
                        self.out_path)
                except OSError:
                    pass
            raise
        finally:
            if self.journal is not None:
                self.journal.close()

        document = self._document(started, pool_size)
        if not document["meta"].get("partial"):
            with jn.Journal(jn.journal_path(self.job_dir)) as journal:
                journal.append({
                    "type": "done",
                    "job_id": self.spec.job_id,
                    "cells": len(document["cells"]),
                    "wall_seconds": document["meta"]["wall_seconds"],
                    "unix": time.time(),
                })
        if self.out_path:
            write_document(document, self.out_path)
        return document

    def _document(self, started: float, pool_size: int,
                  partial: bool = False) -> Dict:
        """Assemble the sweep document from journal + this run's shards."""
        spec = self.spec
        cells: List[Dict] = []
        resumed_groups = 0
        missing: List[str] = []
        for shard in self._shards:
            shard_id = shard.shard_id
            if shard_id in self._new_cells:
                cells.extend(self._new_cells[shard_id])
            elif shard_id in self._journal_cells:
                cells.extend(self._journal_cells[shard_id])
                resumed_groups += 1
            elif shard_id in self._failed:
                exc = RuntimeError(self._failed[shard_id])
                cells.extend(dead_group_cells(
                    spec.task(shard, None, None), exc))
            else:
                missing.append(shard_id)
        cells.sort(key=cell_sort_key)
        meta = {
            "envs": list(spec.envs),
            "workloads": list(spec.workloads or ALL_WORKLOADS),
            "designs": list(spec.designs) if spec.designs else "all",
            "thp_modes": [bool(t) for t in spec.thp_modes],
            "config": dict(spec.config),
            "workers": pool_size,
            "requested_workers": self.workers,
            "groups": self._total,
            "cells": len(cells),
            "wall_seconds": time.time() - started,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z",
                                        time.localtime(started)),
            "trace": self.trace_path,
            "artifact_cache": self.artifact_dir,
            "job": {
                "job_id": spec.job_id,
                "dir": self.job_dir,
                "resumed_groups": resumed_groups,
                "retried_shards": self._retried.value,
                "failed_shards": sorted(self._failed),
                "cancelled": self._cancelled,
            },
            "metrics": {
                "sweep.groups": self._groups_done.value,
                "sweep.cells": self._cells_done.value,
                "sweep.error_cells": self._errors_seen.value,
                "sweep.resumed_groups": self._resumed.value,
                "sweep.retried_shards": self._retried.value,
            },
        }
        if partial or missing or self._cancelled:
            meta["partial"] = True
            meta["missing_groups"] = missing
        return {"meta": meta, "cells": cells}
