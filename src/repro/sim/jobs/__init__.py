"""Resumable sharded sweep jobs (DESIGN.md §14).

A *job* is a sweep grid made durable: the grid (plus its
:class:`~repro.sim.machine.SimConfig` kwargs) is content-hashed into a
``job_id`` (:mod:`~repro.sim.jobs.spec`), expanded into per-group
shards, and every completed shard is fsync-appended to a crash-safe
JSONL journal under the job directory
(:mod:`~repro.sim.jobs.journal`). A scheduler
(:mod:`~repro.sim.jobs.scheduler`) fans pending shards over a worker
pool with per-shard timeouts and bounded, backed-off retries of
worker-death failures; killing the scheduler at any instant loses at
most the shards in flight, and a resume replays the journal and
re-runs only what is missing. The client surface
(:mod:`~repro.sim.jobs.client`) backs ``python -m repro jobs
submit|status|tail|resume|cancel`` and ``python -m repro sweep
--resume <dir>``.

A resumed sweep reuses the same :class:`~repro.sim.artifacts
.ArtifactCache`/:class:`~repro.sim.simulator.Stage1Cache` plumbing as
the one-shot runner, so re-run shards serve stage 0/1 from disk, and
the assembled document is identical to an uninterrupted run's modulo
wall-time/pid/RSS telemetry (``scheduler.VOLATILE_CELL_KEYS``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.sim.jobs.client import (DEFAULT_JOBS_DIR, cancel, format_status,
                                   job_dir_for, load_job, resume, status,
                                   submit, tail)
from repro.sim.jobs.journal import Journal, read_journal
from repro.sim.jobs.scheduler import (VOLATILE_CELL_KEYS, JobScheduler,
                                      stable_cells)
from repro.sim.jobs.spec import JobSpec, Shard

__all__ = [
    "DEFAULT_JOBS_DIR", "JobScheduler", "JobSpec", "Journal", "Shard",
    "VOLATILE_CELL_KEYS", "cancel", "format_status", "job_dir_for",
    "load_job", "read_journal", "resume", "run_resumable_sweep",
    "stable_cells", "status", "submit", "tail",
]


def run_resumable_sweep(job_dir: str,
                        envs: Sequence[str] = ("native",),
                        workloads: Optional[Sequence[str]] = None,
                        designs: Optional[Sequence[str]] = None,
                        thp_modes: Sequence[bool] = (False,),
                        workers: Optional[int] = None,
                        out_path: Optional[str] = None,
                        progress: Optional[Callable[[str], None]] = None,
                        trace_path: Optional[str] = None,
                        artifact_dir: Optional[str] = None,
                        shard_timeout: Optional[float] = None,
                        max_retries: Optional[int] = None,
                        **config_kwargs) -> Dict:
    """``run_sweep`` semantics on top of the jobs layer.

    Backs ``python -m repro sweep --resume <dir>``: when ``job_dir``
    already holds a journal its recorded grid wins (the CLI flags of
    the original submission, not this invocation's); a fresh directory
    starts a new durable job from the given grid.
    """
    spec, _, _ = load_job(job_dir)
    if spec is None:
        spec = JobSpec.build(envs=envs, workloads=workloads,
                             designs=designs, thp_modes=thp_modes,
                             **config_kwargs)
    elif progress is not None:
        progress(f"resuming journaled grid {spec.job_id} from {job_dir} "
                 f"(CLI grid flags ignored)")
    scheduler_kwargs = dict(workers=workers, out_path=out_path,
                            progress=progress, trace_path=trace_path,
                            artifact_dir=artifact_dir)
    if shard_timeout is not None:
        scheduler_kwargs["shard_timeout"] = shard_timeout
    if max_retries is not None:
        scheduler_kwargs["max_retries"] = max_retries
    return JobScheduler(spec, job_dir, **scheduler_kwargs).run()
