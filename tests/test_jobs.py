"""Resumable sweep jobs: spec hashing, journal durability, scheduler.

The core contract under test (ISSUE 9 / DESIGN.md §14): kill a sweep
job at *any* point — after k of n shards, even mid-append so the
journal's last record is torn — resume it, and the assembled document's
cells are identical to an uninterrupted run's for every (env, workload,
design, thp) key, modulo wall-time/pid/RSS telemetry
(``VOLATILE_CELL_KEYS``). Worker-death and timeout failures retry with
backoff; exhausted retries degrade to per-(env, design) error cells.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.obs import metrics
from repro.obs import trace as obs_trace
from repro.sim import jobs
from repro.sim.jobs import journal as jn
from repro.sim.jobs.scheduler import JobScheduler
from repro.sim.jobs.spec import JobSpec
from repro.sim.sweep import (GroupTask, dead_group_cells, effective_workers,
                             run_group, run_sweep)

GRID = dict(envs=["native"], workloads=["GUPS", "Redis", "BTree"],
            designs=["vanilla", "dmt"])
CONFIG = dict(scale=4096, nrefs=2000)

#: Sentinel file for the suicidal/sleepy pool workers below; the path
#: travels to fork-spawned workers through the environment.
_SENTINEL_VAR = "REPRO_TEST_JOBS_SENTINEL"


def small_spec(**overrides) -> JobSpec:
    params = {**GRID, **CONFIG, **overrides}
    return JobSpec.build(**params)


def reference_cells():
    document = run_sweep(workers=1, **GRID, **CONFIG)
    return jobs.stable_cells(document["cells"])


@pytest.fixture(scope="module")
def reference():
    return reference_cells()


def _suicidal_run_group(task):
    """SIGKILL this worker once (first call), then behave normally."""
    sentinel = os.environ[_SENTINEL_VAR]
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return run_group(task)


def _sleepy_run_group(task):
    """Hang far past any test timeout once (first call), then behave."""
    sentinel = os.environ[_SENTINEL_VAR]
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        time.sleep(300)
    return run_group(task)


def _die_run_group(task):
    """A pool worker that SIGKILLs itself before reporting anything."""
    os.kill(os.getpid(), signal.SIGKILL)


def tear_last_shard_record(path: str) -> None:
    """Truncate the journal mid-way through its last ``shard`` record,
    as a crash during the append would."""
    with open(path, "rb") as handle:
        data = handle.read()
    offset, cut = 0, None
    for line in data.split(b"\n"):
        end = offset + len(line)
        if b'"type": "shard"' in line:
            cut = end - 7
        offset = end + 1
    if cut is None:
        cut = len(data) - 7
    with open(path, "r+b") as handle:
        handle.truncate(cut)


# --------------------------------------------------------------------- #
# spec hashing
# --------------------------------------------------------------------- #

class TestJobSpec:
    def test_job_id_is_stable(self):
        assert small_spec().job_id == small_spec().job_id

    def test_job_id_ignores_argument_order_in_config(self):
        a = JobSpec.build(**GRID, scale=4096, nrefs=2000)
        b = JobSpec.build(**GRID, nrefs=2000, scale=4096)
        assert a.job_id == b.job_id

    @pytest.mark.parametrize("override", [
        dict(nrefs=2001), dict(seed=7), dict(workloads=["GUPS"]),
        dict(designs=["vanilla"]), dict(envs=["virt"]),
        dict(thp_modes=(True,)),
    ])
    def test_job_id_tracks_result_determining_params(self, override):
        assert small_spec().job_id != small_spec(**override).job_id

    def test_canonical_round_trip(self):
        spec = small_spec()
        clone = JobSpec.from_canonical(
            json.loads(json.dumps(spec.canonical())))
        assert clone == spec and clone.job_id == spec.job_id

    def test_shards_cover_the_grid_in_task_order(self):
        spec = JobSpec.build(envs=["native"], workloads=["GUPS", "Redis"],
                             thp_modes=(False, True))
        assert [s.shard_id for s in spec.shards()] == [
            "GUPS@4k", "GUPS@thp", "Redis@4k", "Redis@thp"]

    def test_build_validates_grid(self):
        with pytest.raises(KeyError, match="unknown environment"):
            JobSpec.build(envs=["bogus"])
        with pytest.raises(KeyError, match="unknown design"):
            JobSpec.build(envs=["native"], designs=["bogus"])

    def test_build_refuses_config_no_shard_can_build(self):
        with pytest.raises(ValueError, match="'walk_engine'"):
            small_spec(walk_engine="auto")
        with pytest.raises(ValueError, match="stream_chunk"):
            small_spec(stream_chunk=-5)

    def test_task_matches_group_task_shape(self):
        spec = small_spec()
        shard = spec.shards()[0]
        task = spec.task(shard, "t.jsonl", "cache")
        assert task == (("native",), "GUPS", False, ("vanilla", "dmt"),
                        CONFIG, "t.jsonl", "cache")


# --------------------------------------------------------------------- #
# journal durability
# --------------------------------------------------------------------- #

class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with jn.Journal(path) as journal:
            journal.append({"type": "job", "job_id": "x"})
            journal.append({"type": "shard", "shard_id": "GUPS@4k",
                            "cells": [{"env": "native"}]})
        records, torn = jn.read_journal(path)
        assert not torn
        assert [r["type"] for r in records] == ["job", "shard"]
        assert jn.completed_shards(records)["GUPS@4k"]["cells"] == [
            {"env": "native"}]

    def test_missing_file_reads_empty(self, tmp_path):
        assert jn.read_journal(str(tmp_path / "nope.jsonl")) == ([], False)

    @pytest.mark.parametrize("chop", [1, 5, 40])
    def test_torn_tail_is_dropped(self, tmp_path, chop):
        path = str(tmp_path / "journal.jsonl")
        with jn.Journal(path) as journal:
            journal.append({"type": "job", "job_id": "x"})
            journal.append({"type": "shard", "shard_id": "a", "cells": []})
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - chop)
        records, torn = jn.read_journal(path)
        assert torn
        assert [r["type"] for r in records] == ["job"]

    def test_non_object_line_treated_as_torn(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"type": "job", "job_id": "x"}\n[1, 2]\n')
        records, torn = jn.read_journal(path)
        assert torn and len(records) == 1


# --------------------------------------------------------------------- #
# kill-and-resume identity
# --------------------------------------------------------------------- #

def interrupt_after(k):
    """A run_fn that completes ``k`` groups, then dies like a SIGKILL."""
    state = {"done": 0}

    def run(task):
        if state["done"] >= k:
            raise KeyboardInterrupt
        state["done"] += 1
        return run_group(task)

    return run


class TestKillResumeIdentity:
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("torn", [False, True])
    def test_resume_after_killing_k_of_n(self, tmp_path, reference,
                                         k, torn):
        """Journal round-trip property: kill after k of 3 shards (with
        and without tearing the last shard record mid-append), resume,
        and the merged document equals an uninterrupted run's."""
        job_dir = str(tmp_path / "job")
        spec = small_spec()
        scheduler = JobScheduler(spec, job_dir, workers=1,
                                 run_fn=interrupt_after(k))
        with pytest.raises(KeyboardInterrupt):
            scheduler.run()
        path = jn.journal_path(job_dir)
        records, _ = jn.read_journal(path)
        assert len(jn.completed_shards(records)) == k
        if torn:
            tear_last_shard_record(path)
        journaled = len(jn.completed_shards(jn.read_journal(path)[0]))
        assert journaled == (max(k - 1, 0) if torn else k)

        document = jobs.resume(job_dir, workers=1)
        assert jobs.stable_cells(document["cells"]) == reference
        assert document["meta"]["job"]["resumed_groups"] == journaled
        assert document["meta"]["metrics"]["sweep.resumed_groups"] == \
            journaled
        assert not document["meta"].get("partial")
        final_records, final_torn = jn.read_journal(path)
        assert not final_torn and jn.is_done(final_records)

    def test_resume_of_finished_job_serves_everything_from_journal(
            self, tmp_path, reference):
        job_dir = str(tmp_path / "job")
        spec = small_spec()
        JobScheduler(spec, job_dir, workers=1).run()
        with metrics.scoped():
            document = jobs.resume(job_dir, workers=1)
        assert document["meta"]["job"]["resumed_groups"] == 3
        assert jobs.stable_cells(document["cells"]) == reference

    def test_out_path_partial_flush_on_interrupt(self, tmp_path):
        job_dir = str(tmp_path / "job")
        out = str(tmp_path / "doc.json")
        scheduler = JobScheduler(small_spec(), job_dir, workers=1,
                                 out_path=out, run_fn=interrupt_after(1))
        with pytest.raises(KeyboardInterrupt):
            scheduler.run()
        with open(out, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["meta"]["partial"] is True
        assert len(document["meta"]["missing_groups"]) == 2
        assert {c["workload"] for c in document["cells"]} == {"GUPS"}

    def test_mismatched_grid_in_job_dir_is_refused(self, tmp_path):
        job_dir = str(tmp_path / "job")
        with pytest.raises(KeyboardInterrupt):
            JobScheduler(small_spec(), job_dir, workers=1,
                         run_fn=interrupt_after(1)).run()
        other = small_spec(nrefs=2001)
        with pytest.raises(ValueError, match="refusing to mix grids"):
            JobScheduler(other, job_dir, workers=1).run()


# --------------------------------------------------------------------- #
# worker death, timeout, cancel
# --------------------------------------------------------------------- #

class TestSchedulerFailures:
    def test_worker_death_is_retried(self, tmp_path, reference,
                                     monkeypatch):
        monkeypatch.setenv(_SENTINEL_VAR, str(tmp_path / "sentinel"))
        job_dir = str(tmp_path / "job")
        scheduler = JobScheduler(small_spec(), job_dir, workers=2,
                                 backoff=0.01,
                                 run_fn=_suicidal_run_group)
        document = scheduler.run()
        assert jobs.stable_cells(document["cells"]) == reference
        assert document["meta"]["job"]["retried_shards"] >= 1
        assert document["meta"]["job"]["failed_shards"] == []
        records, _ = jn.read_journal(jn.journal_path(job_dir))
        retries = [r for r in records if r["type"] == "retry"]
        assert retries and all("shard_id" in r and "backoff_seconds" in r
                               for r in retries)

    def test_shard_timeout_is_retried_on_a_fresh_pool(self, tmp_path,
                                                      reference,
                                                      monkeypatch):
        monkeypatch.setenv(_SENTINEL_VAR, str(tmp_path / "sentinel"))
        job_dir = str(tmp_path / "job")
        scheduler = JobScheduler(small_spec(), job_dir, workers=2,
                                 shard_timeout=2.0, backoff=0.01,
                                 run_fn=_sleepy_run_group)
        document = scheduler.run()
        assert jobs.stable_cells(document["cells"]) == reference
        records, _ = jn.read_journal(jn.journal_path(job_dir))
        timeouts = [r for r in records if r["type"] == "retry"
                    and "TimeoutError" in r["error"]]
        assert timeouts

    def test_exhausted_retries_degrade_to_error_cells(self, tmp_path):
        job_dir = str(tmp_path / "job")

        def always_broken(task):
            raise OSError("worker exploded")

        spec = small_spec(workloads=["GUPS"])
        scheduler = JobScheduler(spec, job_dir, workers=1, max_retries=1,
                                 backoff=0.01, run_fn=always_broken)
        document = scheduler.run()
        assert document["meta"]["job"]["failed_shards"] == ["GUPS@4k"]
        # one fabricated error cell per requested design
        assert [c.get("design") for c in document["cells"]] == [
            "dmt", "vanilla"]
        assert all("worker exploded" in c["error"]
                   for c in document["cells"])
        records, _ = jn.read_journal(jn.journal_path(job_dir))
        assert [r["type"] for r in records if r["type"] in
                ("retry", "failed")] == ["retry", "failed"]

    def test_cancel_drains_and_resume_finishes(self, tmp_path, reference):
        job_dir = str(tmp_path / "job")

        def cancel_after_first(task):
            cells = run_group(task)
            jobs.cancel(job_dir)
            return cells

        scheduler = JobScheduler(small_spec(), job_dir, workers=1,
                                 run_fn=cancel_after_first)
        document = scheduler.run()
        assert document["meta"]["partial"] is True
        assert document["meta"]["job"]["cancelled"] is True
        assert len(document["meta"]["missing_groups"]) == 2
        records, _ = jn.read_journal(jn.journal_path(job_dir))
        assert jn.is_cancelled(records)

        os.remove(jn.cancel_path(job_dir))
        final = jobs.resume(job_dir, workers=1)
        assert jobs.stable_cells(final["cells"]) == reference


# --------------------------------------------------------------------- #
# client surface
# --------------------------------------------------------------------- #

class TestClient:
    def test_submit_is_content_addressed_and_idempotent(self, tmp_path):
        base = str(tmp_path / "jobs")
        spec = small_spec(workloads=["GUPS"])
        job_dir, document = jobs.submit(spec, base_dir=base, workers=1)
        assert job_dir == os.path.join(base, spec.job_id)
        assert not document["meta"].get("partial")
        with metrics.scoped():
            job_dir2, document2 = jobs.submit(spec, base_dir=base,
                                              workers=1)
        assert job_dir2 == job_dir
        assert document2["meta"]["job"]["resumed_groups"] == 1

    def test_status_and_tail_on_live_journal(self, tmp_path):
        job_dir = str(tmp_path / "job")
        scheduler = JobScheduler(small_spec(), job_dir, workers=1,
                                 run_fn=interrupt_after(2))
        with pytest.raises(KeyboardInterrupt):
            scheduler.run()
        summary = jobs.status(job_dir)
        assert summary["state"] == "in-progress"
        assert summary["groups_done"] == 2
        assert summary["groups_total"] == 3
        assert summary["cells_journaled"] == 4
        rendered = jobs.format_status(summary)
        assert "2/3 group(s)" in rendered
        lines = []
        jobs.tail(job_dir, count=100, emit=lines.append)
        assert any(line.startswith("shard ") for line in lines)

    def test_resume_without_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no job journal"):
            jobs.resume(str(tmp_path / "empty"))

    def test_resume_refuses_removed_config_key(self, tmp_path, capsys):
        """A job journaled with a setting SimConfig no longer takes
        (``walk_engine``) must refuse to resume — the CLI exits 2 naming
        the key — instead of journaling every shard as error cells."""
        from repro.__main__ import main

        job_dir = str(tmp_path / "old-job")
        spec = JobSpec(envs=("native",), workloads=("GUPS",),
                       designs=("vanilla",), thp_modes=(False,),
                       config={**CONFIG, "walk_engine": "auto"})
        os.makedirs(job_dir)
        with jn.Journal(jn.journal_path(job_dir)) as journal:
            journal.append({"type": "job", "job_id": spec.job_id,
                            "spec": spec.canonical(), "unix": 0.0})
        with open(jn.journal_path(job_dir), "rb") as handle:
            before = handle.read()
        with pytest.raises(ValueError, match="'walk_engine'"):
            jobs.resume(job_dir, workers=1)
        assert main(["jobs", "resume", job_dir, "--workers", "1",
                     "--no-artifact-cache"]) == 2
        assert "walk_engine" in capsys.readouterr().err
        with open(jn.journal_path(job_dir), "rb") as handle:
            assert handle.read() == before

    def test_cancel_of_finished_job_reports_false(self, tmp_path):
        job_dir = str(tmp_path / "job")
        jobs.submit(small_spec(workloads=["GUPS"]), job_dir=job_dir,
                    workers=1)
        assert jobs.cancel(job_dir) is False

    def test_cli_jobs_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main

        job_dir = str(tmp_path / "cli-job")
        args = ["--workloads", "GUPS", "--designs", "vanilla,dmt",
                "--scale", "4096", "--nrefs", "2000", "--workers", "1",
                "--no-artifact-cache"]
        assert main(["jobs", "submit", "--job-dir", job_dir] + args) == 0
        assert main(["jobs", "status", job_dir]) == 0
        out = capsys.readouterr().out
        assert "[done]" in out
        assert main(["jobs", "resume", job_dir, "--workers", "1",
                     "--no-artifact-cache"]) == 0

    def test_cli_sweep_resume(self, tmp_path, capsys):
        from repro.__main__ import main

        job_dir = str(tmp_path / "sweep-job")
        out_path = str(tmp_path / "doc.json")
        args = ["sweep", "--resume", job_dir, "--workloads", "GUPS",
                "--designs", "vanilla,dmt", "--scale", "4096",
                "--nrefs", "2000", "--workers", "1",
                "--no-artifact-cache", "--out", out_path]
        assert main(args) == 0
        with open(out_path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["meta"]["job"]["job_id"]
        assert len(document["cells"]) == 2


# --------------------------------------------------------------------- #
# run_sweep satellites (ISSUE 9 bugfixes)
# --------------------------------------------------------------------- #

class TestRunSweepDurability:
    def test_interrupted_sweep_flushes_partial_document(self, tmp_path):
        """An interrupt after the first group must not discard it."""
        out = str(tmp_path / "sweep.json")
        calls = {"n": 0}

        def explode_after_first(message):
            calls["n"] += 1
            if calls["n"] >= 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(envs=["native"], workloads=["GUPS", "Redis"],
                      designs=["vanilla"], workers=1, out_path=out,
                      progress=explode_after_first, **CONFIG)
        with open(out, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["meta"]["partial"] is True
        assert document["meta"]["completed_groups"] == 1
        assert [c["workload"] for c in document["cells"]] == ["GUPS"]

    def test_no_partial_flag_on_clean_sweep(self, tmp_path):
        out = str(tmp_path / "sweep.json")
        document = run_sweep(envs=["native"], workloads=["GUPS"],
                             designs=["vanilla"], workers=1,
                             out_path=out, **CONFIG)
        assert "partial" not in document["meta"]
        with open(out, encoding="utf-8") as handle:
            assert "partial" not in json.load(handle)["meta"]

    def test_sweep_leaves_callers_trace_stream_open(self, tmp_path):
        """run_sweep must not close a tracer the caller opened."""
        trace_path = str(tmp_path / "trace.jsonl")
        obs_trace.enable(trace_path)
        try:
            run_sweep(envs=["native"], workloads=["GUPS"],
                      designs=["vanilla"], workers=1,
                      trace_path=trace_path, **CONFIG)
            assert obs_trace.active(), \
                "run_sweep closed a caller-owned trace stream"
        finally:
            obs_trace.disable()
        # ... but still closes a stream it opened itself
        run_sweep(envs=["native"], workloads=["GUPS"],
                  designs=["vanilla"], workers=1,
                  trace_path=trace_path, **CONFIG)
        assert not obs_trace.active()


class TestRunSweepTelemetry:
    def test_meta_workers_records_effective_pool_size(self):
        document = run_sweep(envs=["native"], workloads=["GUPS"],
                             designs=["vanilla"], workers=8, **CONFIG)
        assert document["meta"]["workers"] == 1  # one task runs inline
        assert document["meta"]["requested_workers"] == 8

    @pytest.mark.parametrize("workers,tasks,expected", [
        (0, 5, 1), (1, 5, 1), (4, 1, 1), (4, 2, 2), (2, 5, 2), (8, 3, 3),
    ])
    def test_effective_workers(self, workers, tasks, expected):
        assert effective_workers(workers, tasks) == expected

    def test_dead_group_cell_count_matches_healthy_group(self):
        """A dead worker's fabricated cells must cover exactly the cells
        a healthy run of the same task would have produced."""
        task = GroupTask(("native",), "GUPS", False, ("vanilla", "dmt"),
                         dict(CONFIG))
        healthy = run_group(task)
        dead = dead_group_cells(task, OSError("worker died"))
        assert len(dead) == len(healthy)
        assert {(c["env"], c["design"]) for c in dead} == \
            {(c["env"], c["design"]) for c in healthy}
        assert all("worker died" in c["error"] for c in dead)

    def test_dead_group_cells_fall_back_to_env_designs(self):
        """Sweeping all designs (designs=None): one cell per env design."""
        from repro.sim.machine import ENVIRONMENTS

        task = GroupTask(("native",), "GUPS", False, None, dict(CONFIG))
        dead = dead_group_cells(task, OSError("boom"))
        assert [c["design"] for c in dead] == \
            list(ENVIRONMENTS["native"].designs)

    def test_dead_worker_in_pool_yields_per_design_cells(self, monkeypatch):
        """End to end: a SIGKILLed pool worker degrades to per-(env,
        design) error cells, not one design=None cell per env."""
        import repro.sim.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "run_group", _die_run_group)
        document = sweep_mod.run_sweep(
            envs=["native"], workloads=["GUPS", "Redis"],
            designs=["vanilla", "dmt"], workers=2, **CONFIG)
        assert len(document["cells"]) == 4
        assert sorted((c["workload"], c["design"])
                      for c in document["cells"]) == [
            ("GUPS", "dmt"), ("GUPS", "vanilla"),
            ("Redis", "dmt"), ("Redis", "vanilla")]
        assert all("error" in c for c in document["cells"])

    def test_pool_breaking_during_submission_yields_error_cells(
            self, monkeypatch):
        """A worker can die before the sweep has submitted every group;
        the refused submissions must degrade to error cells too, not
        abort the sweep."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        import repro.sim.sweep as sweep_mod

        class BreaksAfterFirstSubmit(ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                if getattr(self, "_submitted", False):
                    raise BrokenProcessPool("worker died mid-submission")
                self._submitted = True
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "run_group", _die_run_group)
        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor",
                            BreaksAfterFirstSubmit)
        document = sweep_mod.run_sweep(
            envs=["native"], workloads=["GUPS", "Redis"],
            designs=["vanilla", "dmt"], workers=2, **CONFIG)
        assert len(document["cells"]) == 4
        assert all("error" in c for c in document["cells"])
        assert any("mid-submission" in c["error"]
                   for c in document["cells"])
