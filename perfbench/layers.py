"""Fold a traced run's spans into per-layer and per-cell self times.

A span's self time is its duration minus the part of its interval that
its child spans cover (the union, so a parent whose children ran in
parallel worker processes is not charged twice). Each span name belongs
to one layer; a layer's time is the sum of its spans' self times.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from workloads import ENV_DESIGNS

#: Span name -> layer. The ``sweep`` layer is the harness around the
#: simulator: interpreter start and imports, the process pool and
#: pickling, per-group and per-cell bookkeeping, and the document write.
LAYER_OF = {
    "sweep.cli": "sweep",
    "sweep.import": "sweep",
    "sweep.group": "sweep",
    "sweep.cell": "sweep",
    "workloads.trace": "workloads",
    "tlb.filter": "tlb",
    "machine.build": "machine",
    "translation.walker_build": "translation",
    "stage2.replay": "stage2",
    "artifacts.load": "artifacts",
    "artifacts.store": "artifacts",
}
LAYERS = ("workloads", "tlb", "machine", "translation", "stage2",
          "artifacts", "sweep")

PAIRS = [(env, design) for env, designs in ENV_DESIGNS.items()
         for design in designs]

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER_METRICS: List[Tuple[str, str, str]] = [
    *[(f"stage2.replay_s.{env}.{design}", "s", "lower")
      for env, design in PAIRS],
    *[(f"stage2.walks_per_s.{env}.{design}", "1/s", "higher")
      for env, design in PAIRS],
    *[(f"translation.walker_build_s.{env}.{design}", "s", "lower")
      for env, design in PAIRS],
    *[(f"machine.build_s.{env}", "s", "lower") for env in ENV_DESIGNS],
    ("stage2.replay_s", "s", "lower"),
    ("stage2.walks_per_s", "1/s", "higher"),
    ("translation.walker_build_s", "s", "lower"),
    ("machine.build_s", "s", "lower"),
    ("workloads.trace_s", "s", "lower"),
    ("tlb.filter_s", "s", "lower"),
    ("tlb.miss_ratio", "fraction", "lower"),
    ("stage01.sweep_frac", "fraction", "lower"),
    ("artifacts.load_s", "s", "lower"),
    ("artifacts.store_s", "s", "lower"),
    ("artifacts.result_hit_ratio", "fraction", "higher"),
    ("artifacts.bytes_written", "bytes", "lower"),
    ("artifacts.bytes_read", "bytes", "lower"),
    ("artifacts.evictions", "count", "lower"),
    ("sweep.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]


def _covered(intervals: Iterable[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """``{span id: self seconds}``."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"])
            - _covered(children[span["id"]], span["start"], span["end"])
            for span in spans}


def _cell_of(spans: List[Dict]) -> Dict[str, Dict]:
    """``{span id: enclosing sweep.cell span}`` for spans inside a cell."""
    by_id = {span["id"]: span for span in spans}
    owner = {}
    for span in spans:
        node = span
        while node is not None and node["name"] != "sweep.cell":
            node = by_id.get(node["parent"])
        if node is not None:
            owner[span["id"]] = node
    return owner


class Breakdown:
    """Per-layer and per-cell self times of one traced run."""

    def __init__(self, spans: List[Dict], counters: Dict[str, int]):
        self.spans = spans
        self.self_s = self_times(spans)
        self.counters = counters
        root = next(span for span in spans if span["name"] == "sweep.cli")
        self.wall_s = root["end"] - root["start"]
        self.layer_s = dict.fromkeys(LAYERS, 0.0)
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        for span in spans:
            layer = LAYER_OF[span["name"]]
            self.layer_s[layer] += self.self_s[span["id"]]
            self.layer_calls[layer] += 1

    def total(self, name: str, **match) -> float:
        return sum(self.self_s[span["id"]] for span in self.spans
                   if span["name"] == name
                   and all(span["attrs"].get(k) == v
                           for k, v in match.items()))

    def attr_sum(self, name: str, attr: str) -> int:
        return sum(span["attrs"].get(attr, 0) for span in self.spans
                   if span["name"] == name)

    def cells(self) -> Dict[Tuple[str, str, str], Dict[str, float]]:
        """``{(env, workload, design): {part: self seconds}}``."""
        owner = _cell_of(self.spans)
        table: Dict[Tuple, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for span in self.spans:
            cell = owner.get(span["id"])
            if cell is None:
                continue
            attrs = cell["attrs"]
            key = (attrs["env"], attrs["workload"], attrs["design"])
            table[key][LAYER_OF[span["name"]]] += self.self_s[span["id"]]
            if span["name"] == "stage2.replay":
                table[key]["walks"] += span["attrs"].get("walks", 0)
        return table

    def metrics(self, trace_overhead_frac: float) -> Dict[str, float]:
        cells = self.cells()
        out: Dict[str, float] = {}
        pair_s = defaultdict(lambda: defaultdict(float))
        for (env, _workload, design), parts in cells.items():
            for part, value in parts.items():
                pair_s[(env, design)][part] += value
        for env, design in PAIRS:
            parts = pair_s[(env, design)]
            replay = parts["stage2"]
            out[f"stage2.replay_s.{env}.{design}"] = replay
            out[f"stage2.walks_per_s.{env}.{design}"] = (
                parts["walks"] / replay if replay > 0 else 0.0)
            out[f"translation.walker_build_s.{env}.{design}"] = \
                parts["translation"]
        for env in ENV_DESIGNS:
            out[f"machine.build_s.{env}"] = self.total("machine.build",
                                                       env=env)
        replay = self.layer_s["stage2"]
        walks = self.attr_sum("stage2.replay", "walks")
        refs = self.attr_sum("tlb.filter", "refs")
        counters = self.counters
        lookups = (counters["artifacts.result_hits"]
                   + counters["artifacts.result_misses"])
        out.update({
            "stage2.replay_s": replay,
            "stage2.walks_per_s": walks / replay if replay > 0 else 0.0,
            "translation.walker_build_s": self.layer_s["translation"],
            "machine.build_s": self.layer_s["machine"],
            "workloads.trace_s": self.layer_s["workloads"],
            "tlb.filter_s": self.layer_s["tlb"],
            "tlb.miss_ratio": (self.attr_sum("tlb.filter", "misses") / refs
                               if refs else 0.0),
            "stage01.sweep_frac": (self.layer_s["workloads"]
                                   + self.layer_s["tlb"]) / self.wall_s,
            "artifacts.load_s": self.total("artifacts.load"),
            "artifacts.store_s": self.total("artifacts.store"),
            "artifacts.result_hit_ratio": (
                counters["artifacts.result_hits"] / lookups
                if lookups else 0.0),
            "artifacts.bytes_written": counters["artifacts.bytes_written"],
            "artifacts.bytes_read": counters["artifacts.bytes_read"],
            "artifacts.evictions": counters["artifacts.evictions"],
            "sweep.overhead_s": self.layer_s["sweep"],
            "trace.overhead_frac": trace_overhead_frac,
        })
        return out

    def dominant(self) -> str:
        """The layer with the most self time, stage 2 counting its
        walker builds (``translation``) as the issue's "stage 2" does."""
        shares = dict(self.layer_s)
        shares["stage2"] += shares.pop("translation")
        shares.pop("sweep")
        return max(shares, key=shares.get)

    def layer_table(self) -> str:
        """Self time per layer and its share of all self time, which is
        the wall time summed over the sweep's processes."""
        busy = sum(self.layer_s.values())
        lines = [f"{'layer':<12} {'calls':>6} {'self_s':>9} {'share':>7}"]
        for layer in LAYERS:
            seconds = self.layer_s[layer]
            lines.append(f"{layer:<12} {self.layer_calls[layer]:>6} "
                         f"{seconds:>9.3f} {seconds / busy:>7.1%}")
        lines.append(f"{'all':<12} {'':>6} {busy:>9.3f}")
        lines.append(f"{'wall':<12} {'':>6} {self.wall_s:>9.3f}")
        return "\n".join(lines)

    def cell_table(self) -> str:
        parts = ("translation", "stage2", "artifacts", "sweep")
        lines = [f"{'cell':<28} " + " ".join(f"{p:>11}" for p in parts)
                 + f" {'total_s':>9}"]
        for key, row in sorted(self.cells().items()):
            name = "/".join(key)
            lines.append(f"{name:<28} "
                         + " ".join(f"{row[p]:>11.4f}" for p in parts)
                         + f" {sum(row[p] for p in parts):>9.4f}")
        return "\n".join(lines)


def group_counters(spans: List[Dict]) -> Dict[str, int]:
    """Sum the per-group ``ArtifactCache`` counter deltas."""
    total: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span["name"] == "sweep.group":
            for name, value in span["attrs"].get("counters", {}).items():
                total[name] += value
    return total
