"""Native-compiled stage-2 replay kernels (the ``native`` walk engine).

The batched engine in :mod:`repro.sim.walk_vec` executes its chunked
state machine per-reference in the Python interpreter over
``batch_view()`` dicts. This package replaces that hot loop with
preallocated flat ndarray state (``array_view()`` on the caches, PWCs
and the ECPT cuckoo-walk cache) and per-design chunk kernels that are
JIT-compiled with Numba ``@njit(cache=True)`` when Numba is importable
— and run as the *same source, uncompiled* otherwise, so the fallback
is bit-identical by construction (:mod:`repro.sim.kernels.backend`).
Compiled kernels are ``nogil``, so the sweep's two-level executor can
replay independent cells on concurrent threads (DESIGN.md §15).

Both batched engines plan through one entry,
:func:`repro.sim.walk_vec.plan_replay`, whose int-list columns are
exactly the kernels' plan arguments. Entry point:
:func:`~repro.sim.kernels.replay.prepare_replay_native` plans a cell on
the calling thread and returns a
:class:`~repro.sim.kernels.replay.PreparedReplay` whose ``execute()``
drives the kernels. The stage-2 dispatch
(:func:`repro.sim.simulator.prepare_replay`) uses it whenever the
compiled backend loaded (``HAVE_NUMBA``) and the cell batches at all —
a step-collecting replay runs on the scalar oracle, since neither
batched engine records steps; without Numba the uncompiled kernels run
only when tests call them directly, as the parity oracle for kernel
logic. DESIGN.md §11 documents the architecture and the array-view
writeback contract.
"""

from repro.sim.kernels.backend import (  # noqa: F401
    BACKEND,
    HAVE_NUMBA,
    UNAVAILABLE_REASON,
    jit,
)
from repro.sim.kernels.replay import (  # noqa: F401
    PreparedReplay,
    prepare_replay_native,
)
