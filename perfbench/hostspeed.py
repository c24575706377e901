"""Pin a child's processes to CPUs and measure each CPU's speed meanwhile.

On a shared virtual machine each vCPU drifts between fast and slow
phases in which the same code runs up to about 50% slower, with no
steal time reported: other tenants' load, not the program's. While a
child runs, a :class:`Watch` keeps every process of its tree on one
CPU — the child on the first allowed CPU, each descendant (pool
workers) round-robin from the second — and one probe thread per CPU
times a fixed pure-Python chunk every ``PROBE_PERIOD_S`` in thread CPU
time. A chunk's speed is ``REFERENCE_CHUNK_S`` over its CPU time.
:meth:`Timing.normalized` scales the wall time by the mean speed of
the CPU that carried most of the child's CPU time: seconds at the
reference speed. ``README.md`` (Host speed) has the measurements.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

#: One probe chunk's CPU time at the reference speed, in seconds.
REFERENCE_CHUNK_S = 0.001
#: Pause between probe chunks; a chunk costs about 2% of its CPU.
PROBE_PERIOD_S = 0.05
#: How often the process tree is re-read for new processes to pin.
POLL_PERIOD_S = 0.02
_CHUNK_STEPS = 8000
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _chunk() -> int:
    acc = 0
    for step in range(_CHUNK_STEPS):
        acc = (acc * 31 + step) & 0xFFFFFFFF
    return acc


def allowed_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


class _Probe(threading.Thread):
    """Times one probe chunk on ``cpu`` every ``PROBE_PERIOD_S``."""

    def __init__(self, cpu: int, stop: threading.Event):
        super().__init__(name=f"speed-probe-{cpu}", daemon=True)
        self.cpu = cpu
        self.stop = stop
        self.speeds: List[float] = []

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while True:
            start = time.thread_time()
            _chunk()
            self.speeds.append(REFERENCE_CHUNK_S
                               / max(time.thread_time() - start, 1e-9))
            if self.stop.wait(PROBE_PERIOD_S):
                return


def _children(pid: int) -> List[int]:
    found = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
    except OSError:
        pass  # the process has exited
    return found


def _cpu_seconds(pid: int) -> float:
    """User plus system CPU time of one process, or -1 once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return -1.0
    return (int(fields[11]) + int(fields[12])) * _TICK_S


@dataclass
class Timing:
    """One child's wall time and the speeds of the CPUs it ran on."""

    wall_s: float
    #: Mean probe speed per CPU over the child's lifetime.
    speed: Dict[int, float]
    #: CPU each process of the child's tree was pinned to.
    cpu_of: Dict[int, int] = field(default_factory=dict)
    #: CPU seconds each process of the tree used (last reading).
    busy_s: Dict[int, float] = field(default_factory=dict)

    def factor(self) -> float:
        """Mean speed of the CPU that carried most of the child's work.

        That CPU holds the critical path: the process itself when it
        runs alone, else the pool worker with the longest groups. A
        CPU-time-weighted mean of both CPUs tracked two-worker sweeps
        less well, since the other CPU's speed does not set the wall.
        """
        busy: Dict[int, float] = {}
        for pid, cpu in self.cpu_of.items():
            busy[cpu] = busy.get(cpu, 0.0) + self.busy_s.get(pid, 0.0)
        return self.speed[max(busy, key=busy.get)]

    def normalized(self) -> float:
        """The wall time in seconds at the reference speed."""
        return self.wall_s * self.factor()

    def normalized_in(self, seconds: float, pid: int) -> float:
        """``seconds`` measured inside process ``pid``, at reference speed.

        A process this watch did not see (it is not in the tree) is
        scaled by the whole child's factor.
        """
        cpu = self.cpu_of.get(pid)
        return seconds * (self.speed[cpu] if cpu is not None
                          else self.factor())


class Watch:
    """Pins a child's process tree and probes CPU speeds while it runs.

    :meth:`start` launches the child on the first CPU and begins;
    :meth:`stop` ends probing and pinning, after the child has exited
    or when it failed.
    """

    def __init__(self):
        self.cpus = allowed_cpus()
        self._stop = threading.Event()
        self._probes = [_Probe(cpu, self._stop) for cpu in self.cpus]
        self._poller = threading.Thread(target=self._poll, daemon=True,
                                        name="cpu-pinner")
        self._root = -1
        self.cpu_of: Dict[int, int] = {}
        self.busy_s: Dict[int, float] = {}

    def start(self, launch: Callable[[], subprocess.Popen]
              ) -> subprocess.Popen:
        """Launch the child with ``launch()``, pinned; watch its tree.

        The launching thread is pinned while it forks, so the child
        inherits the first CPU from its first instruction.
        """
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpus[0]})
        try:
            proc = launch()
        finally:
            os.sched_setaffinity(0, saved)
        self._root = proc.pid
        self.cpu_of[proc.pid] = self.cpus[0]
        for probe in self._probes:
            probe.start()
        self._poller.start()
        return proc

    def _poll(self) -> None:
        while not self._stop.wait(POLL_PERIOD_S):
            self._sweep_tree()

    def _sweep_tree(self) -> None:
        pending = [self._root]
        while pending:
            pid = pending.pop()
            for child in _children(pid):
                if child not in self.cpu_of:
                    cpu = self.cpus[len(self.cpu_of) % len(self.cpus)]
                    try:
                        os.sched_setaffinity(child, {cpu})
                    except OSError:
                        continue  # exited before it could be pinned
                    self.cpu_of[child] = cpu
                pending.append(child)
        for pid in self.cpu_of:
            seconds = _cpu_seconds(pid)
            if seconds >= 0:
                self.busy_s[pid] = seconds

    def stop(self) -> None:
        """Stop every probe and the pinner, and wait for them."""
        self._stop.set()
        for thread in (*self._probes, self._poller):
            if thread.is_alive():
                thread.join()

    def timing(self, wall_s: float) -> Timing:
        """The stopped child's :class:`Timing`."""
        speed = {probe.cpu: statistics.mean(probe.speeds)
                 for probe in self._probes if probe.speeds}
        return Timing(wall_s, speed, dict(self.cpu_of), dict(self.busy_s))
