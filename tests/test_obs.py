"""Tests for the observability layer (:mod:`repro.obs`).

Covers the metrics registry contract (``counter`` / ``gauge`` /
``histogram`` aggregation, ``registry`` / ``set_registry`` / ``scoped``
swapping, ``slug`` naming), trace spans (``enable`` / ``disable`` /
``active`` / ``span`` nesting, ``read_events``, ``peak_rss_kb``), the
bench-regression gate (``load_document``, ``bench_walks_per_second``,
``compare_bench``, ``compare_sweep``, ``trajectory_record``,
``append_trajectory``, ``run_gate``), and their integration with the
sweep runner (span wall times agreeing with cell telemetry).
"""

import json
import os

import pytest

from repro.arch import PageSize
from repro.hw.config import xeon_gold_6138
from repro.hw.tlb import TLB
from repro.obs import metrics, regress, trace
from repro.obs.metrics import MetricsRegistry
from repro.sim.sweep import GroupTask, run_group, run_sweep


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #

class TestMetricsRegistry:
    def test_counter_sums_across_instances(self):
        with metrics.scoped() as reg:
            a = metrics.counter("walks.total")
            b = metrics.counter("walks.total")
            a.inc()
            b.inc(3)
            assert reg.snapshot() == {"walks.total": 4}

    def test_counter_reset(self):
        with metrics.scoped() as reg:
            c = metrics.counter("x")
            c.inc(5)
            reg.reset()
            assert c.value == 0
            assert reg.snapshot() == {"x": 0}

    def test_gauge_last_set_wins(self):
        with metrics.scoped() as reg:
            g1 = metrics.gauge("depth")
            g2 = metrics.gauge("depth")
            g1.set(5)
            g2.set(7)
            assert reg.snapshot()["depth"] == 7
            g1.set(1)
            assert reg.snapshot()["depth"] == 1

    def test_histogram_expands_to_summary_fields(self):
        with metrics.scoped() as reg:
            h = metrics.histogram("latency")
            for value in (1, 2, 3):
                h.observe(value)
            snap = reg.snapshot()
            assert snap["latency.count"] == 3
            assert snap["latency.sum"] == 6
            assert snap["latency.mean"] == pytest.approx(2.0)
            assert snap["latency.min"] == 1
            assert snap["latency.max"] == 3

    def test_kind_mismatch_rejected(self):
        with metrics.scoped():
            metrics.counter("metric.name")
            with pytest.raises(TypeError):
                metrics.gauge("metric.name")

    def test_snapshot_prefix_filter(self):
        with metrics.scoped() as reg:
            metrics.counter("tlb.hits").inc()
            metrics.counter("cache.hits").inc()
            assert set(reg.snapshot(prefix="tlb.")) == {"tlb.hits"}
            assert set(reg.names()) == {"cache.hits", "tlb.hits"}

    def test_set_registry_swaps_active(self):
        fresh = MetricsRegistry()
        previous = metrics.set_registry(fresh)
        try:
            assert metrics.registry() is fresh
            metrics.counter("only.here").inc()
            assert fresh.snapshot() == {"only.here": 1}
        finally:
            metrics.set_registry(previous)
        assert metrics.registry() is previous

    def test_slug_normalizes_structure_names(self):
        assert metrics.slug("L1D(pte)") == "l1d_pte"
        assert metrics.slug("L2 STLB") == "l2_stlb"
        assert metrics.slug("dmt-native") == "dmt_native"

    def test_tlb_stats_register_and_stay_compatible(self):
        """Structures keep their attribute API while feeding the registry."""
        with metrics.scoped() as reg:
            tlb = TLB(xeon_gold_6138().l1d_tlb)
            assert not tlb.lookup(1, 0x1000, PageSize.SIZE_4K)
            tlb.install(1, 0x1000, PageSize.SIZE_4K)
            assert tlb.lookup(1, 0x1000, PageSize.SIZE_4K)
            # compatibility properties (read and write)
            assert tlb.stats.hits == 1 and tlb.stats.misses == 1
            assert tlb.stats.accesses == 2
            tlb.stats.hits += 10
            snap = reg.snapshot(prefix="tlb.")
            name = [n for n in snap if n.endswith(".hits")][0]
            assert snap[name] == 11


# --------------------------------------------------------------------- #
# trace spans
# --------------------------------------------------------------------- #

class TestTraceSpans:
    def test_span_is_noop_when_disabled(self):
        assert not trace.active()
        with trace.span("anything", tag=1) as sp:
            assert sp is None

    def test_span_nesting_and_attrs(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trace.enable(path)
        try:
            with trace.span("parent", tag="outer") as sp:
                sp["walks"] = 42
                with trace.span("child"):
                    pass
        finally:
            trace.disable()
        assert not trace.active()
        events = trace.read_events(path)
        assert [e["name"] for e in events] == ["child", "parent"]
        child, parent = events
        assert parent["parent_id"] is None and parent["depth"] == 0
        assert child["parent_id"] == parent["span_id"]
        assert child["depth"] == 1
        assert parent["tag"] == "outer" and parent["walks"] == 42
        for event in events:
            assert event["seconds"] >= 0.0
            assert event["pid"] == os.getpid()
            assert "rss_delta_kb" in event and "start_unix" in event

    def test_enable_is_idempotent_for_same_path(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        first = trace.enable(path)
        try:
            assert trace.enable(path) is first
            assert trace.active()
        finally:
            trace.disable()

    def test_enable_appends_across_sessions(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        for _ in range(2):
            trace.enable(path)
            try:
                with trace.span("tick"):
                    pass
            finally:
                trace.disable()
        assert len(trace.read_events(path)) == 2

    def test_peak_rss_is_positive(self):
        assert trace.peak_rss_kb() > 0


# --------------------------------------------------------------------- #
# regression gate
# --------------------------------------------------------------------- #

def _bench_doc(wps_factor: float = 1.0):
    """A BENCH_engine.json-shaped document with scaled throughput."""
    return {"stage2": [
        {"design": "vanilla", "walks": 10_000,
         "vec_seconds": 0.5 / wps_factor},
        {"design": "dmt", "walks": 10_000,
         "vec_seconds": 0.25 / wps_factor},
    ]}


def _sweep_doc(latency: float = 100.0, wps: float = 50_000.0,
               error: bool = False):
    cell = {"env": "native", "workload": "GUPS", "design": "vanilla",
            "thp": False, "mean_latency": latency,
            "walks_per_second": wps}
    if error:
        cell = {"env": "native", "workload": "GUPS", "design": "vanilla",
                "thp": False, "error": "RuntimeError: boom"}
    return {"meta": {"wall_seconds": 1.0}, "cells": [cell]}


def _stream_doc(rps: float = 2_000_000.0, rss_kb: int = 200_000):
    """A BENCH_stage1_stream.json-shaped document."""
    return {"meta": {"bench": "stage1_stream"},
            "stream": {"nrefs": 10_000_000, "chunk": 1 << 20,
                       "refs_per_sec": rps, "peak_rss_kb": rss_kb}}


class TestRegressGate:
    def test_bench_walks_per_second(self):
        wps = regress.bench_walks_per_second(_bench_doc())
        assert wps["vanilla"] == pytest.approx(20_000.0)
        assert wps["dmt"] == pytest.approx(40_000.0)

    def test_compare_bench_clean_within_tolerance(self):
        # 10% slower stays inside the default 15% tolerance
        assert regress.compare_bench(_bench_doc(0.9), _bench_doc()) == []

    def test_compare_bench_flags_20pct_regression(self):
        found = regress.compare_bench(_bench_doc(0.8), _bench_doc())
        assert {r.metric for r in found} == {"walks_per_second"}
        assert len(found) == 2  # both designs regressed
        assert all(r.current < r.limit for r in found)

    def test_compare_bench_missing_design(self):
        current = {"stage2": [_bench_doc()["stage2"][0]]}
        found = regress.compare_bench(current, _bench_doc())
        assert [r.metric for r in found] == ["missing_cell"]
        assert "dmt" in found[0].key

    def test_trajectory_records_stage2_warmth_and_group_wall(self):
        sweep = _sweep_doc()
        sweep["cells"][0].update(stage2_source="disk", group_seconds=1.5)
        record = regress.trajectory_record(None, sweep, [], 0.15, 0.01)
        assert record["sweep"]["stage2_warm_hit_ratio"] == 1.0
        assert record["sweep"]["group_wall_seconds"] == 1.5

    def test_compare_stream_throughput_and_footprint(self):
        base = _stream_doc()
        assert regress.compare_stream(_stream_doc(), base) == []
        # throughput drop past tolerance
        slow = _stream_doc(rps=1_500_000.0)
        assert [r.metric for r in regress.compare_stream(slow, base)] \
            == ["refs_per_sec"]
        # footprint growth past tolerance — the materialization signal
        fat = _stream_doc(rss_kb=500_000)
        assert [r.metric for r in regress.compare_stream(fat, base)] \
            == ["peak_rss_kb"]
        # within tolerance both ways
        assert regress.compare_stream(
            _stream_doc(rps=1_900_000.0, rss_kb=210_000), base) == []

    def test_compare_stream_empty_documents(self):
        assert regress.compare_stream({}, _stream_doc()) != []  # no data
        assert regress.compare_stream(_stream_doc(), {}) == []  # no baseline

    def test_trajectory_record_includes_stream(self):
        record = regress.trajectory_record(None, None, [], 0.15, 0.01,
                                           stream=_stream_doc())
        assert record["stage1_stream"]["peak_rss_kb"] == 200_000
        assert record["stage1_stream"]["refs_per_sec"] == 2_000_000.0

    def test_compare_sweep_latency_is_tight(self):
        # mean_latency is deterministic: +2% trips the 1% tolerance
        found = regress.compare_sweep(_sweep_doc(latency=102.0),
                                      _sweep_doc())
        assert [r.metric for r in found] == ["mean_latency"]
        # ... but +0.5% does not
        assert regress.compare_sweep(_sweep_doc(latency=100.5),
                                     _sweep_doc()) == []

    def test_compare_sweep_throughput_is_loose(self):
        found = regress.compare_sweep(_sweep_doc(wps=40_000.0), _sweep_doc())
        assert [r.metric for r in found] == ["walks_per_second"]
        assert regress.compare_sweep(_sweep_doc(wps=45_000.0),
                                     _sweep_doc()) == []

    def test_compare_sweep_error_and_missing_cells(self):
        found = regress.compare_sweep(_sweep_doc(error=True), _sweep_doc())
        assert [r.metric for r in found] == ["error_cell"]
        found = regress.compare_sweep({"cells": []}, _sweep_doc())
        assert [r.metric for r in found] == ["missing_cell"]

    def test_trajectory_record_and_append(self, tmp_path):
        record = regress.trajectory_record(_bench_doc(), _sweep_doc(), [],
                                           0.15, 0.01)
        assert record["status"] == "clean"
        assert record["bench_walks_per_second"]["vanilla"] == \
            pytest.approx(20_000.0)
        assert record["sweep"]["cells"] == 1
        store = str(tmp_path / "BENCH_trajectory.json")
        regress.append_trajectory(store, record)
        document = regress.append_trajectory(store, record)
        assert len(document["records"]) == 2
        assert regress.load_document(store)["records"][0]["status"] == "clean"

    def _write(self, path, document):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return str(path)

    def test_run_gate_exit_codes(self, tmp_path):
        baseline = self._write(tmp_path / "baseline.json", _bench_doc())
        regressed = self._write(tmp_path / "regressed.json", _bench_doc(0.8))
        clean = self._write(tmp_path / "clean.json", _bench_doc(1.0))
        trajectory = str(tmp_path / "BENCH_trajectory.json")
        lines = []

        # a synthetic 20% walks/sec regression exits non-zero ...
        assert regress.run_gate(
            bench_path=regressed, baseline_bench_path=baseline,
            trajectory_path=trajectory, stream_path=None,
            out=lines.append) == 1
        assert any("REGRESSION" in line for line in lines)
        assert not os.path.exists(trajectory)

        # ... a clean run exits 0 and appends to the trajectory ...
        assert regress.run_gate(
            bench_path=clean, baseline_bench_path=baseline,
            trajectory_path=trajectory, stream_path=None,
            out=lines.append) == 0
        assert len(regress.load_document(trajectory)["records"]) == 1

        # ... and nothing to compare is a usage error.
        assert regress.run_gate(
            bench_path=str(tmp_path / "absent.json"),
            baseline_bench_path=baseline,
            trajectory_path=None, stream_path=None,
            out=lines.append) == 2

    def test_run_gate_stream_comparison(self, tmp_path):
        baseline = self._write(tmp_path / "stream_base.json", _stream_doc())
        fat = self._write(tmp_path / "stream_fat.json",
                          _stream_doc(rss_kb=500_000))
        clean = self._write(tmp_path / "stream_ok.json", _stream_doc())
        assert regress.run_gate(
            bench_path=None, baseline_bench_path=None,
            stream_path=fat, baseline_stream_path=baseline,
            trajectory_path=None, out=lambda line: None) == 1
        trajectory = str(tmp_path / "BENCH_trajectory.json")
        assert regress.run_gate(
            bench_path=None, baseline_bench_path=None,
            stream_path=clean, baseline_stream_path=baseline,
            trajectory_path=trajectory, out=lambda line: None) == 0
        record = regress.load_document(trajectory)["records"][-1]
        assert record["stage1_stream"]["peak_rss_kb"] == 200_000

    def test_run_gate_missing_sweep_baseline_is_usage_error(self, tmp_path):
        sweep = self._write(tmp_path / "sweep.json", _sweep_doc())
        assert regress.run_gate(
            bench_path=None, baseline_bench_path=None, sweep_path=sweep,
            baseline_sweep_path=str(tmp_path / "absent.json"),
            trajectory_path=None, out=lambda line: None) == 2

    def test_run_gate_sweep_comparison(self, tmp_path):
        baseline = self._write(tmp_path / "base_sweep.json", _sweep_doc())
        bad = self._write(tmp_path / "bad_sweep.json",
                          _sweep_doc(latency=150.0))
        assert regress.run_gate(
            bench_path=None, baseline_bench_path=None, sweep_path=bad,
            baseline_sweep_path=baseline, trajectory_path=None,
            out=lambda line: None) == 1

    def test_cli_regress_command(self, tmp_path):
        from repro.__main__ import main

        baseline = self._write(tmp_path / "baseline.json", _bench_doc())
        current = self._write(tmp_path / "current.json", _bench_doc(0.8))
        assert main(["regress", "--bench", current,
                     "--baseline-bench", baseline,
                     "--no-trajectory"]) == 1


# --------------------------------------------------------------------- #
# sweep integration
# --------------------------------------------------------------------- #

class TestSweepIntegration:
    def test_unknown_design_raises_early(self):
        with pytest.raises(KeyError, match="unknown design"):
            run_sweep(envs=["native"], workloads=["GUPS"],
                      designs=["vanilla", "bogus"], workers=1,
                      scale=4096, nrefs=2000)

    def test_run_group_emits_error_cell_for_unknown_design(self):
        task = GroupTask(("native",), "GUPS", False, ("vanilla", "bogus"),
                         dict(scale=4096, nrefs=2000))
        cells = run_group(task)
        good = [c for c in cells if "error" not in c]
        bad = [c for c in cells if "error" in c]
        assert [c["design"] for c in good] == ["vanilla"]
        assert len(bad) == 1
        assert bad[0]["design"] == "bogus"
        assert "unknown design" in bad[0]["error"]

    def test_sweep_trace_spans_agree_with_cell_telemetry(self, tmp_path):
        trace_path = str(tmp_path / "sweep_trace.jsonl")
        document = run_sweep(
            envs=["native"], workloads=["GUPS"],
            designs=["vanilla", "dmt"], workers=1,
            scale=4096, nrefs=3000, trace_path=trace_path,
        )
        assert document["meta"]["trace"] == trace_path
        assert document["meta"]["metrics"] == {
            "sweep.groups": 1, "sweep.cells": 2, "sweep.error_cells": 0}
        assert not trace.active()  # run_sweep closed the stream

        events = trace.read_events(trace_path)
        names = [e["name"] for e in events]
        assert "sweep.run_group" in names and "sweep.build_sim" in names
        assert "stage1" in names and "stage1.tlb_filter" in names

        cells = {c["design"]: c for c in document["cells"]}
        replays = {e["design"]: e for e in events
                   if e["name"] == "stage2.replay"}
        assert set(replays) == {"vanilla", "dmt"}
        for design, span_event in replays.items():
            cell = cells[design]
            assert span_event["env"] == "native"
            assert span_event["walks"] == cell["walks"]
            # the cell timer wraps the span, so they agree up to the
            # (tiny) bookkeeping outside the span
            assert span_event["seconds"] <= cell["replay_seconds"]
            assert span_event["seconds"] == pytest.approx(
                cell["replay_seconds"], rel=0.25, abs=0.05)

        stage1 = [e for e in events if e["name"] == "stage1"][0]
        assert stage1["misses"] == cells["vanilla"]["miss_count"]
        assert stage1["refs"] == cells["vanilla"]["total_refs"]
        assert stage1["seconds"] <= cells["vanilla"]["stage1_seconds"]
        assert stage1["seconds"] == pytest.approx(
            cells["vanilla"]["stage1_seconds"], rel=0.25, abs=0.05)

    def test_walker_build_span_per_computed_cell(self, tmp_path):
        """One ``stage2.walker_build`` span per computed cell, carrying
        the cell's env/workload/design, and one ``stage2.plan`` and
        ``stage2.execute`` span per computed vec cell, nested under its
        ``stage2.replay`` span; a warm sweep builds and replays
        nothing."""
        names = ("stage2.walker_build", "stage2.plan", "stage2.execute")

        def traced(name):
            trace_path = str(tmp_path / f"{name}.jsonl")
            document = run_sweep(
                envs=["native", "virt"], workloads=["GUPS"],
                designs=["vanilla", "dmt"], workers=1, scale=4096,
                nrefs=2000, trace_path=trace_path,
                artifact_dir=str(tmp_path / "artifacts"))
            events = trace.read_events(trace_path)
            by_id = {(e["pid"], e["span_id"]): e for e in events}

            def cell_of(event):
                # plan/execute spans carry no cell attributes: their
                # enclosing stage2.replay span does
                if event["name"] != "stage2.walker_build":
                    event = by_id[(event["pid"], event["parent_id"])]
                    assert event["name"] == "stage2.replay"
                return (event["env"], event["workload"], event["design"])

            spans = {name: [cell_of(e) for e in events
                            if e["name"] == name] for name in names}
            return document, spans

        cold, spans = traced("cold")
        computed = [(c["env"], c["workload"], c["design"])
                    for c in cold["cells"]
                    if c["stage2_source"] == "computed"]
        assert len(computed) == 4
        for name in names:
            assert sorted(spans[name]) == sorted(computed), name
        warm, spans = traced("warm")
        assert {c["stage2_source"] for c in warm["cells"]} == {"disk"}
        for name in names:
            assert spans[name] == [], name
