"""End-to-end sweep benchmark: time real ``python -m repro sweep`` runs.

Usage, from the repository root::

    python3 perfbench/run.py --workload gups-cold --seed 3 --seconds 10 \
        --trace 0

``--trace 0`` times whole sweeps, back to back, until ``--seconds`` of
sweeping has been measured and the workload's ``min_sweeps`` are done,
reports each metric's median over them, checks every cell's
simulated statistics against the stored reference, and prints the
end-to-end metrics of ``BENCHMARK.json``, times at the reference CPU
speed (``hostspeed.py``). ``--trace 1`` runs one untraced
sweep and then the same sweep with every layer call timed
(``traced_sweep.py``), checks that both documents agree bit for bit,
prints per-layer and per-cell self-time tables, and reports the
per-layer metrics. The last line of standard output is the JSON result.
``--out PATH`` also saves the full record, provenance included, for
``compare.py``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from typing import Dict, List, Optional

import harness
import hostspeed
import layers
from workloads import REFERENCE_SEEDS, WORKLOADS, Workload

#: Scratch directory under the checkout root; removed when a run ends.
WORK_DIR = ".perfbench_work"
#: Interpreter-plus-import probes per run; set-up reports their median.
SETUP_PROBES = 3

END_TO_END = ("sweep_s", "walks_per_s", "group_s_max", "peak_rss_mb",
              "setup_s")
UNITS = {"sweep_s": "s", "walks_per_s": "1/s", "group_s_max": "s",
         "peak_rss_mb": "MB", "setup_s": "s"}


class Run:
    """One benchmark run: a workload, its reference, and a scratch dir."""

    def __init__(self, root: str, workload: Workload, seed: int,
                 workdir: str):
        self.root = root
        self.workload = workload
        self.sim_seed = seed % REFERENCE_SEEDS
        self.expected = harness.load_reference(
            workload.name, workload.config_args, self.sim_seed)
        self.argv = workload.argv(self.sim_seed)
        self.workdir = workdir
        self.log = os.path.join(workdir, "log.txt")
        self.warm_cache: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.sweeps = 0
        #: The traced sweep's spans, kept for the ``--out`` record.
        self.spans: Optional[List[Dict]] = None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def check(self, document: Dict, warm: bool) -> None:
        attempted, failures = harness.check_document(document, self.expected,
                                                     warm)
        self.attempted += attempted
        self.failed += len(failures)
        self.failures.extend(failures)

    def set_up(self) -> Dict:
        """Bring the workload to its start state; return the set-up record.

        Interpreter start plus imports is probed ``SETUP_PROBES`` times
        (median). The warm workload then sweeps its grid cold into the
        cache it will re-sweep, once, and that time is added.
        """
        probes = []
        for _ in range(SETUP_PROBES):
            timing, versions = harness.probe_imports(self.root, self.log)
            probes.append(timing.normalized())
        setup_s = statistics.median(probes)
        if self.workload.warm:
            self.warm_cache = self.path("warm-cache")
            timing, document = harness.run_sweep(
                self.argv, self.root, self.path("populate.json"),
                self.warm_cache, self.log)
            self.check(document, warm=False)
            setup_s += timing.normalized()
        return {"setup_s": setup_s, "versions": versions}

    def sweep(self, name: str, traced: bool = False):
        """One timed sweep: ``(timing, document, spans or None)``."""
        self.sweeps += 1
        out = self.path(f"{name}.json")
        cache = self.warm_cache or self.path(f"{name}-cache")
        before = harness.cache_listing(cache) if self.warm_cache else None
        spans = None
        if traced:
            spool = self.path(name)
            os.makedirs(spool)
            spans_path = os.path.join(spool, "spans.json")
            run_id = f"{self.workload.name}-{self.sim_seed}-{name}"
            argv = [sys.executable,
                    os.path.join(harness.HERE, "traced_sweep.py"),
                    spans_path, repr(time.perf_counter()), run_id, "--",
                    *self.argv, "--artifact-cache", cache, "--out", out]
            timing = harness.run_child(argv, self.root, self.log)
            with open(out, encoding="utf-8") as handle:
                document = json.load(handle)
            with open(spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)["spans"]
        else:
            timing, document = harness.run_sweep(
                self.argv, self.root, out, cache, self.log)
        self.check(document, warm=bool(self.warm_cache))
        if before is not None and harness.cache_listing(cache) != before:
            # the warm sweep recomputed something: it ran cold
            self.failed += len(document["cells"])
            self.failures.append(f"{name}: warm sweep wrote to its cache")
        if not self.warm_cache:
            shutil.rmtree(cache, ignore_errors=True)
        return timing, document, spans


def end_to_end(timing: hostspeed.Timing,
               document: Dict) -> Dict[str, float]:
    """The per-sweep end-to-end metrics (all but ``setup_s``).

    Times are at the reference CPU speed (``hostspeed.py``); the host's
    own wall seconds and CPU speed factor are printed beside them.
    """
    cells = [cell for cell in document["cells"] if "error" not in cell]
    sweep_s = timing.normalized()
    return {
        "sweep_s": sweep_s,
        "walks_per_s": sum(cell["walks"] for cell in cells) / sweep_s,
        "group_s_max": max(
            timing.normalized_in(cell["group_seconds"], cell["worker_pid"])
            for cell in cells),
        "peak_rss_mb": max(cell["peak_rss_kb"] for cell in cells) / 1024,
        "host_wall_s": timing.wall_s,
        "host_speed": timing.factor(),
    }


def summarize(samples: List[Dict[str, float]]) -> str:
    lines = [f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12}  n"]
    for name in samples[0]:
        values = [sample[name] for sample in samples]
        q1, _, q3 = (statistics.quantiles(values, n=4)
                     if len(values) > 1 else values * 3)
        lines.append(f"{name:<14} {statistics.median(values):>12.4f} "
                     f"{q1:>12.4f} {q3:>12.4f}  {len(values)}")
    return "\n".join(lines)


def measure(run: Run, seconds: float, setup_s: float) -> Dict[str, float]:
    samples = []
    measured = 0.0
    while len(samples) < run.workload.min_sweeps or measured < seconds:
        timing, document, _ = run.sweep(f"sweep{len(samples)}")
        samples.append(end_to_end(timing, document))
        measured += timing.wall_s
    print(summarize(samples))
    metrics = {name: statistics.median(sample[name] for sample in samples)
               for name in samples[0]}
    metrics["setup_s"] = setup_s
    return metrics


def measure_traced(run: Run) -> Dict[str, float]:
    plain, plain_doc, _ = run.sweep("untraced")
    traced, traced_doc, spans = run.sweep("traced", traced=True)
    plain_s, traced_s = plain.normalized(), traced.normalized()
    differing = harness.differing_statistics(plain_doc, traced_doc)
    if differing:
        run.failed += len(differing)
        run.failures.extend(f"{key}: traced statistics differ"
                            for key in differing)
    groups = sum(1 for span in spans if span["name"] == "sweep.group")
    if groups != traced_doc["meta"]["groups"]:
        run.failed += 1
        run.failures.append(f"traced run recorded {groups} of "
                            f"{traced_doc['meta']['groups']} groups")
    replays = sum(1 for span in spans if span["name"] == "stage2.replay")
    if run.warm_cache and replays:
        run.failed += replays
        run.failures.append(f"warm traced sweep replayed {replays} cell(s)")
    run.spans = spans
    breakdown = layers.Breakdown(spans, layers.group_counters(spans))
    print(f"untraced {plain_s:.3f}s, traced {traced_s:.3f}s at reference "
          f"speed ({plain.wall_s:.3f}s, {traced.wall_s:.3f}s wall), "
          f"{len(spans)} spans")
    print(breakdown.layer_table())
    print()
    print(breakdown.cell_table())
    expected = "machine" if run.workload.warm else "stage2"
    dominant = breakdown.dominant()
    print(f"dominant layer: {dominant} (expected {expected})"
          + ("" if dominant == expected else "  <-- UNEXPECTED"))
    return breakdown.metrics((traced_s - plain_s) / plain_s)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also save the full result record here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the sweep child is killed and the
    # scratch directory removed on the way out.
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))
    try:
        root = harness.repo_root()
    except FileNotFoundError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    workdir = os.path.join(root, WORK_DIR,
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = Run(root, WORKLOADS[args.workload], args.seed, workdir)
        setup = run.set_up()
        if args.trace:
            metrics = measure_traced(run)
            names = [name for name, _unit, _better
                     in layers.PER_LAYER_METRICS]
            units = {name: unit for name, unit, _better
                     in layers.PER_LAYER_METRICS}
        else:
            metrics = measure(run, args.seconds, setup["setup_s"])
            names, units = END_TO_END, UNITS
    except (OSError, KeyError, ValueError, harness.ChildFailed) as error:
        print(f"perfbench: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # another run's scratch directory is still there
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"cell_fail_frac {run.failed / run.attempted:.4f} "
          f"({run.failed}/{run.attempted} cells, {run.sweeps} sweeps)")
    record = {
        "provenance": harness.provenance(
            root, setup["versions"], args.workload, args.seed,
            run.sim_seed, run.argv),
        "trace": args.trace,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in names},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(dict(record, spans=run.spans), handle, indent=1)
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
