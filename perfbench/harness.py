"""Running sweeps as child processes, checking their documents, provenance.

Every sweep the benchmark times is a real ``python -m repro sweep``
process started from the repository root with ``src`` on
``PYTHONPATH``; its wall time runs from process start to process exit,
after the document is written, and comes with the speeds of the CPUs
its processes were pinned to (``hostspeed.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
#: Longest a single child process may run before it is killed.
CHILD_TIMEOUT_S = 170.0

#: One cell's simulated statistics, in reference order.
STAT_NAMES = ("walks", "total_cycles", "fallbacks", "miss_count",
              "total_refs")

#: Imports a sweep process performs before its first group; the probe
#: times them and writes the backend and library versions to argv[1].
_PROBE = (
    "import json, sys, numpy, repro.__main__, repro.sim.sweep, "
    "repro.sim.walk_vec, repro.sim.kernels as k; "
    "json.dump({'backend': k.BACKEND, 'numpy': numpy.__version__}, "
    "open(sys.argv[1], 'w'))"
)


class ChildFailed(RuntimeError):
    """A child process exited non-zero or overran its time limit."""


def repo_root() -> str:
    """The checkout root: the working directory, holding ``src/repro``."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise FileNotFoundError(
            f"{root} holds no src/repro package; run from the repository root")
    return root


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_child(argv: Sequence[str], root: str,
              log_path: str) -> hostspeed.Timing:
    """Run ``argv`` to completion; return its wall time and CPU speeds.

    The child gets its own session so a timeout kills it together with
    any pool workers it started; output goes to ``log_path``. Its
    processes are pinned to CPUs while a :class:`hostspeed.Watch`
    probes their speed.
    """
    watch = hostspeed.Watch()
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = watch.start(lambda: subprocess.Popen(
            list(argv), cwd=root, env=child_env(root), stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True))
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise ChildFailed(f"timed out after {CHILD_TIMEOUT_S:.0f}s: "
                              f"{' '.join(argv)}") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            watch.stop()
        seconds = time.perf_counter() - start
    if code != 0:
        raise ChildFailed(f"exit {code}: {' '.join(argv)}\n"
                          f"{_tail(log_path)}")
    return watch.timing(seconds)


def _tail(path: str, lines: int = 20) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return "".join(handle.readlines()[-lines:])


def run_sweep(sweep_argv: Sequence[str], root: str, out_path: str,
              cache_dir: str, log_path: str
              ) -> Tuple[hostspeed.Timing, Dict]:
    """One timed ``python -m repro sweep``: ``(timing, document)``."""
    argv = [sys.executable, "-m", "repro", "sweep", *sweep_argv,
            "--artifact-cache", cache_dir, "--out", out_path]
    timing = run_child(argv, root, log_path)
    with open(out_path, encoding="utf-8") as handle:
        return timing, json.load(handle)


def probe_imports(root: str, log_path: str
                  ) -> Tuple[hostspeed.Timing, Dict]:
    """Interpreter start plus the sweep's imports: ``(timing, versions)``."""
    out = os.path.join(os.path.dirname(log_path), "probe.json")
    timing = run_child([sys.executable, "-c", _PROBE, out], root, log_path)
    with open(out, encoding="utf-8") as handle:
        return timing, json.load(handle)


# --------------------------------------------------------------------- #
# Documents and references
# --------------------------------------------------------------------- #

def cell_key(cell: Dict) -> str:
    pages = "thp" if cell["thp"] else "4k"
    return f"{cell['env']}/{cell['workload']}/{pages}/{cell.get('design')}"


def cell_stats(cell: Dict) -> List[int]:
    """The reference statistics of one document cell, as exact integers.

    Documents carry ``mean_latency`` and ``fallback_rate``; multiplying
    back by ``walks`` recovers the integer totals exactly at these sizes.
    """
    walks = int(cell["walks"])
    return [walks, round(cell["mean_latency"] * walks),
            round(cell["fallback_rate"] * walks), int(cell["miss_count"]),
            int(cell["total_refs"])]


def document_stats(document: Dict) -> Dict[str, List[int]]:
    return {cell_key(cell): cell_stats(cell)
            for cell in document["cells"] if "error" not in cell}


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, sweep_argv: Sequence[str],
                   sim_seed: int) -> Dict[str, List[int]]:
    """The stored per-cell statistics for one workload and seed.

    Refuses a reference recorded for other sweep arguments, so changing a
    workload's size without re-recording cannot pass silently.
    """
    with open(reference_path(workload), encoding="utf-8") as handle:
        stored = json.load(handle)
    if stored["sweep_args"] != list(sweep_argv):
        raise ValueError(f"reference for {workload} was recorded for "
                         f"{stored['sweep_args']}, not {list(sweep_argv)}")
    return stored["seeds"][str(sim_seed)]


def check_document(document: Dict, expected: Dict[str, List[int]],
                   warm: bool) -> Tuple[int, List[str]]:
    """``(attempted cells, failure reasons)`` against the reference.

    A cell fails when it is an error cell, missing, unexpected, differs
    from the reference, or — on a warm workload — was not served from
    the stage-2 result cache on disk.
    """
    cells = {cell_key(cell): cell for cell in document["cells"]}
    failures = []
    for key in sorted(set(expected) | set(cells)):
        cell = cells.get(key)
        if cell is None:
            failures.append(f"{key}: missing")
        elif key not in expected:
            failures.append(f"{key}: not in the reference")
        elif "error" in cell:
            failures.append(f"{key}: {cell['error']}")
        elif cell_stats(cell) != expected[key]:
            failures.append(f"{key}: {cell_stats(cell)} != reference "
                            f"{expected[key]}")
        elif warm and cell.get("stage2_source") != "disk":
            failures.append(f"{key}: stage2_source "
                            f"{cell.get('stage2_source')!r}, not 'disk'")
    return len(set(expected) | set(cells)), failures


#: Exact-float fields the traced run must reproduce bit for bit.
_EXACT_FIELDS = ("walks", "mean_latency", "fallback_rate", "miss_count",
                 "total_refs", "tlb_miss_rate", "error")


def differing_statistics(a: Dict, b: Dict) -> List[str]:
    """Cells whose simulated statistics differ between two documents."""
    def table(document):
        return {cell_key(cell): [cell.get(f) for f in _EXACT_FIELDS]
                for cell in document["cells"]}
    left, right = table(a), table(b)
    return [key for key in sorted(set(left) | set(right))
            if left.get(key) != right.get(key)]


def cache_listing(cache_dir: str) -> Dict[str, Tuple[int, int]]:
    """``{file: (size, mtime_ns)}`` under an artifact cache directory."""
    listing = {}
    for parent, _dirs, files in os.walk(cache_dir):
        for name in files:
            path = os.path.join(parent, name)
            info = os.stat(path)
            listing[os.path.relpath(path, cache_dir)] = (info.st_size,
                                                         info.st_mtime_ns)
    return listing


# --------------------------------------------------------------------- #
# Provenance
# --------------------------------------------------------------------- #

def source_fingerprint(root: str) -> str:
    """SHA-256 over every ``src/repro`` Python file, path and content."""
    hasher = hashlib.sha256()
    base = os.path.join(root, "src", "repro")
    for parent, dirs, files in os.walk(base):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(parent, name)
                hasher.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def git_sha(root: str) -> Optional[str]:
    """The checkout's commit, or None outside a git work tree."""
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def provenance(root: str, versions: Dict, workload: str, seed: int,
               sim_seed: int, sweep_argv: Sequence[str]) -> Dict:
    argv = list(sweep_argv)
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_fingerprint(root),
        "backend": versions["backend"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "workload": workload,
        "seed": seed,
        "sim_seed": sim_seed,
        "nrefs": int(argv[argv.index("--nrefs") + 1]),
        "scale": int(argv[argv.index("--scale") + 1]),
        "sweep_args": argv,
    }
