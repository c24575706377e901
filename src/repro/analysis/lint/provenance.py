"""dmtlint corpus rules: L3 (cost provenance) and L4 (engine parity).

L3 findings
-----------
* ``L301`` — a calibrated numeric constant in a ``costs``-scoped file
  (``core/costs.py``, ``sim/perfmodel.py``) with no citation comment on
  the same line or the comment block directly above. Citations are
  anything matching ``§..``, ``Table ..``, ``Fig ..``, ``DESIGN.md`` or
  the word ``paper``. Structural values (0/1/2, powers of two, powers of
  ten) are exempt — only *calibrated* magnitudes need provenance.

L4 findings
-----------
* ``L401`` — a public top-level function of a ``vec``-scoped file
  (``sim/tlb_vec.py``) that no test file references by name. The
  vectorized engine is only trustworthy while every entry point is
  pinned against the scalar oracle.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Iterable, List, Set

from repro.analysis.lint.engine import FileContext, Rule, Violation

#: What counts as a provenance citation in a comment.
CITATION_RE = re.compile(
    r"§|\bTable\s*\d|\bFig(?:ure|\.)?\s*\d|DESIGN\.md|\bpaper\b", re.IGNORECASE
)

#: Powers of ten commonly used for unit conversion (us<->ms<->s, MB...).
_POWERS_OF_TEN = {10 ** n for n in range(1, 13)}


def _is_exempt(value: float) -> bool:
    """Structural constants that don't need a citation."""
    if value != value or value in (float("inf"), float("-inf")):
        return True
    if float(value).is_integer():
        intval = abs(int(value))
        if intval in (0, 1, 2):
            return True
        if intval & (intval - 1) == 0:  # power of two
            return True
        if intval in _POWERS_OF_TEN:
            return True
        if intval in (60, 100, 1000):
            return True
    return False


class L3Provenance(Rule):
    """Calibrated cost constants carry a paper citation."""

    family = "L3"
    scope = "costs"

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        path = str(ctx.path)
        out: List[Violation] = []
        try:
            tokens = list(tokenize.generate_tokens(
                io.StringIO(ctx.source).readline))
        except tokenize.TokenError:
            return out
        for token in tokens:
            if token.type != tokenize.NUMBER:
                continue
            text = token.string.replace("_", "")
            try:
                value = float(int(text, 0)) if not any(
                    c in text for c in ".eE") or text.lower().startswith("0x") \
                    else float(text)
            except ValueError:
                continue
            if _is_exempt(value):
                continue
            line = token.start[0]
            if ctx.citation_near(line, CITATION_RE):
                continue
            out.append(Violation(
                "L301", path, line, token.start[1],
                f"calibrated constant {token.string} has no provenance "
                f"comment (cite §/Table/Fig/DESIGN.md)",
            ))
        return out


class L4EngineParity(Rule):
    """Every public vectorized-engine function has an oracle test reference."""

    family = "L4"
    scope = "vec"

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        path = str(ctx.path)
        corpus = ctx.config.test_corpus()
        if not corpus:
            return []
        out: List[Violation] = []
        for name, node in self._public_functions(ctx.tree):
            if not re.search(rf"\b{re.escape(name)}\b", corpus):
                out.append(Violation(
                    "L401", path, node.lineno, node.col_offset,
                    f"public engine function '{name}' has no oracle test "
                    f"reference in tests/; add a parity test against the "
                    f"scalar engine",
                ))
        return out

    @staticmethod
    def _public_functions(tree: ast.AST) -> Iterable[tuple]:
        seen: Set[str] = set()
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not node.name.startswith("_") \
                    and node.name not in seen:
                seen.add(node.name)
                yield node.name, node
