"""The kernel-backend module and the zero-copy artifact transfer.

Stage 2 has no compiled kernels; :mod:`repro.sim.kernels` is one
module that names the backend every benchmark record carries. This
module pins that name, and checks the memmap transfer of cached
artifacts across worker processes that the sweep relies on.
"""

import hashlib
import subprocess
import sys

import numpy as np

from repro.sim import kernels
from repro.sim.artifacts import ArtifactCache


def test_backend_selection():
    """The backend is the interpreter backend, and the module holds
    nothing else a caller could select."""
    assert kernels.BACKEND == "python"
    public = {name for name in vars(kernels) if not name.startswith("_")}
    assert public == {"BACKEND"}


_WORKER = """
import hashlib, sys
import numpy as np
from repro.sim.artifacts import ArtifactCache

cache = ArtifactCache(sys.argv[1])
loaded = cache.load_array("stage1", ["memmap-test"], mmap=True)
array, _meta = loaded
assert isinstance(array, np.memmap), type(array)
assert not array.flags.writeable
print(hashlib.sha256(array.tobytes()).hexdigest())
"""


def test_memmap_miss_stream_identical_across_workers(tmp_path):
    """Sweep-worker transfer: the same artifact mapped in independent
    processes is byte-identical to the stored miss stream."""
    root = str(tmp_path / "artifacts")
    cache = ArtifactCache(root)
    rng = np.random.default_rng(23)
    miss_vas = rng.integers(0, 1 << 47, 20000).astype(np.int64)
    cache.store_array("stage1", ["memmap-test"], miss_vas, {})
    expected = hashlib.sha256(miss_vas.tobytes()).hexdigest()

    digests = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, "-c", _WORKER, root],
            capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert digests == [expected, expected]

    # and in-process: mmap load is a read-only view of the same bytes
    array, _meta = cache.load_array("stage1", ["memmap-test"], mmap=True)
    assert isinstance(array, np.memmap)
    assert hashlib.sha256(array.tobytes()).hexdigest() == expected
