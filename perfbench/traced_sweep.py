"""Run one ``python -m repro sweep`` with each layer's public calls timed.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_sweep.py SPANS.json START RUN_ID -- SWEEP-ARGS...

``START`` is the ``time.perf_counter()`` reading of the parent when it
started this process, so the root span covers interpreter start too.
The script wraps the layer entry points listed in ``install`` with spans
kept in memory, runs the sweep CLI in this process and writes every span
— name, start, end, parent, run id, process and attributes — to
``SPANS.json`` when the sweep ends. Spans are per call into a layer (per
group, per machine, per cell), never per walk.

Pool workers are forked from this process after the wrappers are in
place, so they record spans too; each worker writes its spans to a
spool file beside ``SPANS.json`` at the end of every group, and the
parent folds the spool files in before writing.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager


class SpanRecorder:
    """In-memory spans of one traced run, one recorder per process."""

    def __init__(self, run_id: str, spool_dir: str):
        self.run_id = run_id
        self.spool_dir = spool_dir
        self.root_id = "root"
        self._own_process()

    def _own_process(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._ids = itertools.count(1)
        self._spooled = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attrs):
        if os.getpid() != self.pid:
            # a forked pool worker: drop the spans copied from the parent
            self._own_process()
        span_id = f"{self.pid}.{next(self._ids)}"
        parent = self._stack[-1] if self._stack else self.root_id
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": span_id, "name": name, "parent": parent,
                               "start": start, "end": end,
                               "run": self.run_id, "pid": self.pid,
                               "attrs": attrs})

    def wrap(self, name: str, func, attrs=None, done=None):
        """``func`` with every call inside a ``name`` span.

        ``attrs(*args, **kwargs)`` names the call; ``done(attrs, result)``
        adds what the call returned.
        """
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs
                                    else {})) as extra:
                result = func(*args, **kwargs)
                if done is not None:
                    done(extra, result)
                return result
        return traced

    def spool(self) -> None:
        """Write this worker's spans so far to a spool file and drop them."""
        path = os.path.join(self.spool_dir,
                            f"spool-{self.pid}-{next(self._spooled)}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)
        self.spans = []

    def collect(self):
        """This process's spans plus every worker's spooled spans."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spool_dir,
                                                  "spool-*.json"))):
            with open(path, encoding="utf-8") as handle:
                spans.extend(json.load(handle))
        return spans


#: ``ArtifactCache`` counters recorded per group as span attributes.
ARTIFACT_COUNTERS = ("artifacts.result_hits", "artifacts.result_misses",
                     "artifacts.bytes_written", "artifacts.bytes_read",
                     "artifacts.evictions")


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points in spans."""
    from repro.obs import metrics
    from repro.sim import machine, sweep
    from repro.sim.artifacts import ArtifactCache
    from repro.workloads.base import Workload

    main_pid = os.getpid()

    def counters():
        snapshot = metrics.registry().snapshot("artifacts.")
        return {name: snapshot.get(name, 0) for name in ARTIFACT_COUNTERS}

    def group_attrs(task):
        return {"workload": task[1], "thp": bool(task[2])}

    run_group = recorder.wrap("sweep.group", sweep.run_group, group_attrs)

    @functools.wraps(sweep.run_group)
    def traced_group(task):
        before = counters()
        cells = run_group(task)
        after = counters()
        group = recorder.spans[-1]
        group["attrs"]["counters"] = {name: after[name] - before[name]
                                      for name in ARTIFACT_COUNTERS}
        if os.getpid() != main_pid:
            recorder.spool()
        return cells

    # repro.sim.sweep: the group task the pool pickles by name
    sweep.run_group = traced_group
    # repro.sim.machine, through sweep.build_sim
    sweep.build_sim = recorder.wrap(
        "machine.build", sweep.build_sim,
        lambda env, workload, *a, **k: {"env": env, "workload": workload})
    # repro.workloads: stage-0 trace generation
    Workload.generate_trace = recorder.wrap(
        "workloads.trace", Workload.generate_trace,
        done=lambda extra, trace: extra.update(refs=len(trace)))
    # repro.sim.tlb_vec, through simulator.tlb_filter (bound in machine)
    machine.tlb_filter = recorder.wrap(
        "tlb.filter", machine.tlb_filter,
        done=lambda extra, result: extra.update(
            refs=result.total_refs, misses=result.miss_count))
    # stage 2 (walk_vec, kernels), through simulator.replay_walks
    machine.replay_walks = recorder.wrap(
        "stage2.replay", machine.replay_walks,
        done=lambda extra, stats: extra.update(walks=stats.walks,
                                               engine=stats.engine))
    for env_cls in machine.ENVIRONMENTS.values():
        # repro.translation, through sim.walker(design)
        env_cls.walker = recorder.wrap(
            "translation.walker_build", env_cls.walker,
            lambda sim, design, *a, **k: {"env": sim.env_name,
                                          "design": design})
        # one grid cell: result-cache lookup, walker build, replay, commit
        env_cls.run = recorder.wrap(
            "sweep.cell", env_cls.run,
            lambda sim, design, *a, **k: {"env": sim.env_name,
                                          "workload": sim.workload.name,
                                          "design": design})
    # repro.sim.artifacts
    for method in ("load_array", "load_result"):
        setattr(ArtifactCache, method, recorder.wrap(
            "artifacts.load", getattr(ArtifactCache, method),
            lambda cache, stage, *a, **k: {"stage": stage}))
    for method in ("store_array", "store_result"):
        setattr(ArtifactCache, method, recorder.wrap(
            "artifacts.store", getattr(ArtifactCache, method),
            lambda cache, stage, *a, **k: {"stage": stage}))


def main() -> int:
    spans_path, start, run_id, separator = sys.argv[1:5]
    if separator != "--":
        raise SystemExit(__doc__)
    recorder = SpanRecorder(run_id, os.path.dirname(
        os.path.abspath(spans_path)))
    with recorder.span("sweep.import"):
        from repro.__main__ import main as cli_main
    install(recorder)
    code = cli_main(["sweep", *sys.argv[5:]])
    end = time.perf_counter()
    spans = recorder.collect()
    spans.append({"id": recorder.root_id, "name": "sweep.cli",
                  "parent": None, "start": float(start), "end": end,
                  "run": run_id, "pid": os.getpid(), "attrs": {}})
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"run": run_id, "spans": spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
