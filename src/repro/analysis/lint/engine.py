"""The dmtlint engine: file contexts, rule registry, CLI entry point.

The engine is deliberately small: it parses each file once (AST +
comment map), derives the file's *scopes* (which scoped rules apply),
runs every selected rule, and filters suppressed findings. Rules live in
:mod:`repro.analysis.lint.rules` (L1/L2, AST-based) and
:mod:`repro.analysis.lint.provenance` (L3/L4, token/corpus-based).

Scopes
------

``result-path``
    Files under ``sim/``, ``core/`` or ``translation/`` — the paths whose
    outputs must be deterministic (rule L2's set-iteration check).
``costs``
    ``core/costs.py``, ``sim/perfmodel.py`` and ``obs/regress.py`` —
    calibrated constants need paper/DESIGN.md citations (rule L3).
``vec``
    ``sim/tlb_vec.py``, ``sim/walk_vec.py`` and the ``obs/`` modules —
    public functions need oracle test references (rule L4).
``streaming``
    The stage-0→1 streaming path (``sim/tlb_vec.py``, ``sim/machine.py``,
    ``sim/artifacts.py``, ``workloads/base.py``,
    ``workloads/generators.py``) — chunk iterators must not be
    materialized back into whole-trace arrays (rule L7).

A file can opt into scopes explicitly with a pragma in its first lines::

    # dmtlint-scope: costs, result-path

which is how the planted-bug fixtures under
``tests/fixtures/planted_bugs/`` exercise the scoped rules.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

_SCOPE_PRAGMA_RE = re.compile(r"#\s*dmtlint-scope:\s*([a-z0-9_, -]+)")
_IGNORE_RE = re.compile(r"#\s*dmtlint:\s*ignore(?:\[([A-Z0-9, ]+)\])?")

#: Directories whose files are on the deterministic result path.
RESULT_PATH_DIRS = ("sim", "core", "translation")
#: (parent dir, file name) pairs carrying calibrated cost constants
#: (the obs regression gate's tolerances are calibrated too).
COSTS_FILES = (("core", "costs.py"), ("sim", "perfmodel.py"),
               ("obs", "regress.py"))
#: (parent dir, file name) pairs holding vectorized-engine code, plus
#: the observability modules — their public API must likewise be
#: exercised by the oracle-test corpus (rule L4).
VEC_FILES = (("sim", "tlb_vec.py"), ("sim", "walk_vec.py"),
             ("obs", "metrics.py"), ("obs", "trace.py"),
             ("obs", "regress.py"))
#: (parent dir, file name) pairs on the streaming stage-0→1 path,
#: where rule L7 forbids whole-stream materialization.
STREAMING_FILES = (("sim", "tlb_vec.py"), ("sim", "machine.py"),
                   ("sim", "artifacts.py"), ("workloads", "base.py"),
                   ("workloads", "generators.py"))


@dataclass(frozen=True)
class Violation:
    """One dmtlint finding."""

    rule: str          # full id, e.g. "L101"
    path: str
    line: int
    col: int
    message: str
    #: Machine-readable supporting facts (L5 domain evidence like
    #: ``left=gpa right=hpa``); None for the other families.
    evidence: Optional[str] = None

    @property
    def family(self) -> str:
        return self.rule[:2]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def render_github(self) -> str:
        """GitHub Actions workflow-command annotation for this finding."""
        return (f"::error file={self.path},line={self.line},"
                f"col={self.col},title=dmtlint {self.rule}::{self.message}")

    def as_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message,
                "evidence": self.evidence}


@dataclass
class LintConfig:
    """Engine configuration.

    ``rules`` selects rule families ("L1") or full ids ("L103"); ``None``
    runs everything. ``tests_dir`` is the oracle-test corpus root for L4;
    when absent the engine looks for a ``tests/`` directory above the
    linted files.
    """

    rules: Optional[Set[str]] = None
    tests_dir: Optional[Path] = None
    _corpus_cache: Optional[str] = field(default=None, repr=False)

    def selected(self, rule_id: str) -> bool:
        if not self.rules:
            return True
        return rule_id in self.rules or rule_id[:2] in self.rules

    def family_selected(self, family: str) -> bool:
        """True when any selected name is this family or one of its ids."""
        if not self.rules:
            return True
        return any(name == family or name.startswith(family)
                   for name in self.rules)

    def test_corpus(self) -> str:
        """Concatenated text of every test file (L4's reference corpus)."""
        if self._corpus_cache is None:
            chunks: List[str] = []
            if self.tests_dir is not None and self.tests_dir.is_dir():
                for test_file in sorted(self.tests_dir.rglob("test_*.py")):
                    try:
                        chunks.append(test_file.read_text(encoding="utf-8"))
                    except OSError:
                        continue
            self._corpus_cache = "\n".join(chunks)
        return self._corpus_cache


class FileContext:
    """Everything the rules need to know about one file."""

    def __init__(self, path: Path, source: str, config: LintConfig):
        self.path = path
        self.source = source
        self.config = config
        self.tree = ast.parse(source, filename=str(path))
        #: line number -> comment text (including the leading ``#``).
        self.comments: Dict[int, str] = {}
        #: lines that consist only of a comment (provenance look-behind).
        self.comment_only_lines: Set[int] = set()
        self._tokenize_comments()
        self.scopes = self._derive_scopes()
        #: line -> set of suppressed rule ids (empty set = all rules).
        self.ignores: Dict[int, Set[str]] = self._collect_ignores()

    # ------------------------------------------------------------------ #

    def _tokenize_comments(self) -> None:
        lines = self.source.splitlines(keepends=True)
        try:
            for token in tokenize.generate_tokens(io.StringIO(self.source).readline):
                if token.type == tokenize.COMMENT:
                    line = token.start[0]
                    self.comments[line] = token.string
                    before = lines[line - 1][: token.start[1]] if line <= len(lines) else ""
                    if not before.strip():
                        self.comment_only_lines.add(line)
        except tokenize.TokenError:
            pass

    def _derive_scopes(self) -> Set[str]:
        scopes: Set[str] = set()
        parts = self.path.parts
        tail = tuple(parts[-2:]) if len(parts) >= 2 else (("",) + parts)
        if any(part in RESULT_PATH_DIRS for part in parts[:-1]):
            scopes.add("result-path")
        if tail in COSTS_FILES:
            scopes.add("costs")
        if tail in VEC_FILES:
            scopes.add("vec")
        if tail in STREAMING_FILES:
            scopes.add("streaming")
        for line in self.source.splitlines()[:20]:
            match = _SCOPE_PRAGMA_RE.search(line)
            if match:
                scopes.update(
                    name.strip() for name in match.group(1).split(",") if name.strip()
                )
        return scopes

    def _collect_ignores(self) -> Dict[int, Set[str]]:
        ignores: Dict[int, Set[str]] = {}
        for line, comment in self.comments.items():
            match = _IGNORE_RE.search(comment)
            if match:
                names = match.group(1)
                ignores[line] = (
                    {name.strip() for name in names.split(",") if name.strip()}
                    if names else set()
                )
        return ignores

    # ------------------------------------------------------------------ #

    def suppressed(self, violation: Violation) -> bool:
        rules = self.ignores.get(violation.line)
        if rules is None:
            return False
        return not rules or violation.rule in rules or violation.family in rules

    def citation_near(self, line: int, pattern: re.Pattern,
                      look_behind: int = 3) -> bool:
        """True when a citation comment covers ``line`` (same line or a
        comment-only line within ``look_behind`` lines above)."""
        comment = self.comments.get(line)
        if comment and pattern.search(comment):
            return True
        probe = line - 1
        for _ in range(look_behind):
            if probe in self.comment_only_lines:
                if pattern.search(self.comments[probe]):
                    return True
                probe -= 1
            else:
                break
        return False


class Rule:
    """Base class: one rule family (possibly several finding ids)."""

    family = "L0"
    #: scope this rule needs, or None to apply to every file.
    scope: Optional[str] = None

    def check(self, ctx: FileContext) -> Iterable[Violation]:  # pragma: no cover
        raise NotImplementedError


class ProgramRule:
    """A whole-program rule: sees every parsed file at once.

    Program rules run after the per-file rules, over the full list of
    :class:`FileContext` objects of the invocation — this is how the L5
    address-domain pass builds its cross-file symbol table and call
    graph. Findings are attributed back to individual files and go
    through the same pragma/ignore suppression as per-file findings.
    """

    family = "L0"

    def check_program(self, contexts: Sequence[FileContext]
                      ) -> Iterable[Violation]:  # pragma: no cover
        raise NotImplementedError


class L5AddressDomains(ProgramRule):
    """Interprocedural address-domain dataflow (L501/L502/L503)."""

    family = "L5"

    def check_program(self, contexts: Sequence[FileContext]
                      ) -> Iterable[Violation]:
        from repro.analysis.lint.domains import analyze_program

        for finding in analyze_program(contexts):
            yield Violation(finding.rule, finding.path, finding.line,
                            finding.col, finding.message,
                            evidence=finding.evidence)


def _registry() -> List[Rule]:
    from repro.analysis.lint.provenance import L3Provenance, L4EngineParity
    from repro.analysis.lint.rules import L1AddressArithmetic, L2Determinism
    from repro.analysis.lint.streaming import L7StreamingHygiene

    return [L1AddressArithmetic(), L2Determinism(), L3Provenance(),
            L4EngineParity(), L7StreamingHygiene()]


ALL_RULES: List[Rule] = []
PROGRAM_RULES: List[ProgramRule] = []


def _rules() -> List[Rule]:
    if not ALL_RULES:
        ALL_RULES.extend(_registry())
    return ALL_RULES


def _program_rules() -> List[ProgramRule]:
    if not PROGRAM_RULES:
        PROGRAM_RULES.append(L5AddressDomains())
    return PROGRAM_RULES


def _check_contexts(contexts: Sequence[FileContext],
                    config: LintConfig) -> List[Violation]:
    """Per-file rules on each context, then program rules across all."""
    findings: List[Violation] = []
    for ctx in contexts:
        for rule in _rules():
            if not config.family_selected(rule.family):
                continue
            if rule.scope is not None and rule.scope not in ctx.scopes:
                continue
            findings.extend(v for v in rule.check(ctx)
                            if config.selected(v.rule)
                            and not ctx.suppressed(v))
    by_path = {str(ctx.path): ctx for ctx in contexts}
    for rule in _program_rules():
        if not config.family_selected(rule.family):
            continue
        for violation in rule.check_program(contexts):
            ctx = by_path.get(violation.path)
            if config.selected(violation.rule) and \
                    (ctx is None or not ctx.suppressed(violation)):
                findings.append(violation)
    findings.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return findings


def lint_file(path: Path, config: Optional[LintConfig] = None,
              source: Optional[str] = None) -> List[Violation]:
    """Lint one file (program rules see a one-file program)."""
    config = config or LintConfig()
    if source is None:
        source = path.read_text(encoding="utf-8")
    try:
        ctx = FileContext(path, source, config)
    except SyntaxError as exc:
        return [Violation("L000", str(path), exc.lineno or 1, exc.offset or 0,
                          f"syntax error: {exc.msg}")]
    return _check_contexts([ctx], config)


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Sequence[Path],
               config: Optional[LintConfig] = None) -> List[Violation]:
    """Lint every ``*.py`` under ``paths`` as one program."""
    config = config or LintConfig()
    if config.tests_dir is None:
        config.tests_dir = _find_tests_dir(paths)
    contexts: List[FileContext] = []
    errors: List[Violation] = []
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
            contexts.append(FileContext(file_path, source, config))
        except SyntaxError as exc:
            errors.append(Violation("L000", str(file_path), exc.lineno or 1,
                                    exc.offset or 0,
                                    f"syntax error: {exc.msg}"))
        except OSError:
            continue
    violations = errors + _check_contexts(contexts, config)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def _package_root() -> Path:
    """The installed ``repro`` package directory (default lint target)."""
    return Path(__file__).resolve().parents[2]


def _find_tests_dir(paths: Sequence[Path]) -> Optional[Path]:
    """Locate the repository ``tests/`` directory for the L4 corpus."""
    candidates: List[Path] = [Path.cwd()]
    candidates.extend(p if p.is_dir() else p.parent for p in paths)
    candidates.append(_package_root())
    for start in candidates:
        probe = start.resolve()
        for ancestor in (probe, *probe.parents):
            tests = ancestor / "tests"
            if tests.is_dir() and (tests / "conftest.py").exists():
                return tests
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="dmtlint: simulator-invariant static analysis (L1-L7)",
    )
    parser.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: the "
                             "repro package sources)")
    parser.add_argument("--rules", default="",
                        help="comma-separated rule families or ids "
                             "(e.g. L1,L5 or L103); default: all")
    parser.add_argument("--format", dest="format",
                        choices=("text", "json", "github"), default="text",
                        help="output format: 'text' (default), 'json' (one "
                             "finding object per line: rule, path, line, "
                             "col, message, evidence), 'github' (GitHub "
                             "Actions ::error annotations)")
    parser.add_argument("--tests-dir", default=None,
                        help="oracle-test corpus directory for L4 "
                             "(default: auto-detected tests/)")
    args = parser.parse_args(argv)

    paths = [Path(p) for p in args.paths] or [_package_root()]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"dmtlint: no such path(s): {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    rules = {name.strip() for name in args.rules.split(",") if name.strip()} or None
    config = LintConfig(
        rules=rules,
        tests_dir=Path(args.tests_dir) if args.tests_dir else None,
    )
    violations = lint_paths(paths, config)
    if args.format == "json":
        for violation in violations:
            print(json.dumps(violation.as_dict(), sort_keys=True))
    else:
        for violation in violations:
            print(violation.render_github() if args.format == "github"
                  else violation.render())
        files = len(list(iter_python_files(paths)))
        print(f"dmtlint: {len(violations)} violation(s) in {files} file(s)"
              f"{'' if violations else ' — clean'}")
    return 1 if violations else 0
