"""Stage-2 kernel backend name, kept for benchmark provenance.

Stage 2 replays on the scalar oracle or the batched vec engine
(:mod:`repro.sim.walk_vec`); there are no compiled kernels. This module
survives only because the end-to-end benchmark (``perfbench/``) imports
it and records :data:`BACKEND` in every record, and refuses to compare
records from different backends. Every record here is ``"python"``:
the numpy-only interpreter backend.
"""

BACKEND = "python"
