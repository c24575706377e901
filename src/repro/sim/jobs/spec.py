"""Job specs: the content-addressed identity of a sweep grid.

A :class:`JobSpec` pins down everything that determines a sweep's
*results*: the environments, workloads, designs, page-size modes, and
the :class:`~repro.sim.machine.SimConfig` kwargs. Runtime knobs that
only change *how* the grid is computed — worker count, trace path,
artifact-cache directory, timeouts — are deliberately excluded, so two
runs of the same grid share one ``job_id`` no matter how they are
scheduled.

The ``job_id`` is the SHA-256 of the spec's canonical JSON form
(sorted keys, no whitespace), truncated to 16 hex digits — the same
content-addressing idiom as :mod:`repro.sim.artifacts`. The journal
stores the canonical form verbatim, so a resume reconstructs the exact
grid without trusting the caller's CLI flags.

A spec expands into :class:`Shard`\\ s — one per (workload, page-size)
pair, exactly the :class:`~repro.sim.sweep.GroupTask` granularity of the
one-shot sweep runner — so journal records, retries, and resume all
operate on the unit the worker pool already executes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.machine import SimConfig
from repro.sim.sweep import ALL_WORKLOADS, GroupTask, validate_grid

#: Bumped whenever the canonical form (and thus every job_id) changes.
SPEC_VERSION = 1


@dataclass(frozen=True)
class Shard:
    """One schedulable unit of a job: a (workload, page-size) group."""

    workload: str
    thp: bool

    @property
    def shard_id(self) -> str:
        return f"{self.workload}@{'thp' if self.thp else '4k'}"


@dataclass(frozen=True)
class JobSpec:
    """The result-determining parameters of one sweep grid."""

    envs: Tuple[str, ...]
    workloads: Tuple[str, ...]
    designs: Optional[Tuple[str, ...]]
    thp_modes: Tuple[bool, ...]
    config: Mapping = field(default_factory=dict)

    @classmethod
    def build(cls, envs: Sequence[str] = ("native",),
              workloads: Optional[Sequence[str]] = None,
              designs: Optional[Sequence[str]] = None,
              thp_modes: Sequence[bool] = (False,),
              **config_kwargs) -> "JobSpec":
        """Normalize ``run_sweep``-style arguments into a spec.

        Validates the grid the same way :func:`~repro.sim.sweep.run_sweep`
        does (:class:`KeyError` on unknown environments/designs) and the
        config with :meth:`check_config`, so a bad job fails at submit
        time, not in a worker.
        """
        validate_grid(envs, designs)
        spec = cls(
            envs=tuple(envs),
            workloads=tuple(workloads or ALL_WORKLOADS),
            designs=tuple(designs) if designs else None,
            thp_modes=tuple(bool(t) for t in thp_modes),
            config=dict(config_kwargs),
        )
        spec.check_config()
        return spec

    def check_config(self) -> None:
        """Build the :class:`SimConfig` every shard would build.

        Raises :class:`ValueError` naming the offending key when the
        config holds a key ``SimConfig`` does not take (for example a
        setting a later version removed) or a value it rejects. Run
        before any shard, so a bad config refuses the whole job instead
        of journaling every shard as error cells.
        """
        known = {f.name for f in fields(SimConfig)} - {"thp"}
        unknown = sorted(set(self.config) - known)
        if unknown:
            raise ValueError(
                f"job config has unknown SimConfig key(s) "
                f"{', '.join(map(repr, unknown))}")
        SimConfig(**self.config)

    def canonical(self) -> Dict:
        """JSON-ready form with a stable key order; hashed for job_id."""
        return {
            "version": SPEC_VERSION,
            "envs": list(self.envs),
            "workloads": list(self.workloads),
            "designs": list(self.designs) if self.designs else None,
            "thp_modes": [bool(t) for t in self.thp_modes],
            "config": {key: self.config[key] for key in sorted(self.config)},
        }

    @classmethod
    def from_canonical(cls, doc: Mapping) -> "JobSpec":
        """Rebuild a spec from its journal/canonical form."""
        designs = doc.get("designs")
        return cls(
            envs=tuple(doc["envs"]),
            workloads=tuple(doc["workloads"]),
            designs=tuple(designs) if designs else None,
            thp_modes=tuple(bool(t) for t in doc["thp_modes"]),
            config=dict(doc.get("config") or {}),
        )

    @property
    def job_id(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def shards(self) -> List[Shard]:
        """Every shard of the grid, in the one-shot sweep's task order."""
        return [Shard(workload, thp)
                for workload in self.workloads for thp in self.thp_modes]

    def task(self, shard: Shard, trace_path: Optional[str] = None,
             artifact_dir: Optional[str] = None) -> GroupTask:
        """The picklable :class:`GroupTask` for one shard."""
        return GroupTask(envs=self.envs, workload=shard.workload,
                         thp=shard.thp, designs=self.designs,
                         config=dict(self.config), trace_path=trace_path,
                         artifact_dir=artifact_dir)
