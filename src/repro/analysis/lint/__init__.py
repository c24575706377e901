"""dmtlint: simulator-invariant static analysis for this codebase.

A generic linter cannot know that virtual addresses must never enter the
float domain, that the miss-replay path must be deterministic, or that a
vectorized engine needs an oracle test for every public function. dmtlint
encodes exactly those repository-specific conventions as six rule
families (run as ``python -m repro lint`` and in CI):

* **L1 — integer address arithmetic**: VA/PA/VPN/PFN-valued expressions
  must stay in the int domain (no ``/``, ``float()``, ``math.pow``) and
  must shift/mask with named constants from :mod:`repro.arch`, not magic
  numbers.
* **L2 — determinism**: no unseeded RNGs anywhere; no iteration over
  ``set`` objects in the result paths (``sim/``, ``core/``,
  ``translation/``).
* **L3 — cost-model provenance**: every calibrated numeric constant in
  ``core/costs.py`` / ``sim/perfmodel.py`` must carry a paper-citation
  comment (``§..``, ``Table ..``, ``Fig ..`` or ``DESIGN.md``).
* **L4 — engine parity**: every public function of ``sim/tlb_vec.py``
  must be referenced by the oracle-equivalence test suite.
* **L5 — address-domain dataflow**: an interprocedural pass
  (:mod:`repro.analysis.lint.domains`) infers which address domain
  (gva/gpa/hpa/vpn/pfn/frame/offset/cycles/bytes) every value lives in
  — seeded from naming conventions and ``# dmtlint-domain:``
  annotations — and flags cross-domain arithmetic (L501), arguments
  contradicting the callee's parameter domain (L502), and returns
  contradicting the function's declared domain (L503).
* **L7 — streaming hygiene**: the stage-0→1 streaming path must not
  gather chunk iterators back into whole-trace arrays
  (:mod:`repro.analysis.lint.streaming`).

Violations can be locally waived with ``# dmtlint: ignore[L101]`` (or a
bare ``# dmtlint: ignore``); fixture files opt into scoped rules with a
``# dmtlint-scope: <scope>`` pragma. See DESIGN.md §7 and §12.
"""

from repro.analysis.lint.engine import (
    ALL_RULES,
    FileContext,
    LintConfig,
    ProgramRule,
    Violation,
    lint_file,
    lint_paths,
    main,
)

__all__ = [
    "ALL_RULES",
    "FileContext",
    "LintConfig",
    "ProgramRule",
    "Violation",
    "lint_file",
    "lint_paths",
    "main",
]
