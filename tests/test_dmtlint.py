"""dmtlint: planted-bug detection, engine mechanics, repo cleanliness."""

import json
from pathlib import Path

import pytest

from repro.analysis.lint import LintConfig, lint_file, lint_paths, main

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
STATIC = REPO / "tests" / "fixtures" / "planted_bugs" / "static"

#: Expected rule IDs per planted static fixture — and nothing else.
EXPECTED = {
    "addr_float_bug.py": {"L101", "L102"},
    "magic_mask_bug.py": {"L103"},
    "unseeded_rng_bug.py": {"L201", "L202", "L204"},
    "set_iteration_bug.py": {"L203"},
    "uncited_cost_bug.py": {"L301"},
    "unreferenced_vec_bug.py": {"L401"},
    "undeclared_kernel_bug.py": {"L402"},
    "domain_mix_bug.py": {"L501"},
    "domain_call_bug.py": {"L502"},
    "domain_return_bug.py": {"L503"},
    "kernel_dict_bug.py": {"L601"},
    "kernel_closure_bug.py": {"L602"},
    "kernel_splat_bug.py": {"L603"},
    "kernel_format_bug.py": {"L604"},
    "kernel_list_bug.py": {"L605"},
    "kernel_raise_bug.py": {"L606"},
    "kernel_call_bug.py": {"L607"},
    "stream_materialize_bug.py": {"L701", "L702"},
}


def rules_of(path, **config_kwargs):
    return {v.rule for v in lint_paths([path], LintConfig(**config_kwargs))}


# --------------------------------------------------------------------- #
# Planted-bug detection (acceptance criterion)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("fixture,expected", sorted(EXPECTED.items()))
def test_planted_static_bug_detected(fixture, expected):
    assert rules_of(STATIC / fixture) == expected


def test_every_static_fixture_is_exercised():
    assert {p.name for p in STATIC.glob("*.py")} == set(EXPECTED)


def test_l401_names_the_untested_function():
    # assembled from pieces so the name stays out of the L4 corpus
    name = "quantized" + "_filter" + "_hop"
    violations = lint_paths([STATIC / "unreferenced_vec_bug.py"])
    assert [v.rule for v in violations] == ["L401"]
    assert name in violations[0].message


def test_l402_requires_declared_oracle():
    # the kernels scope implies vec, so both L401 and L402 are in play;
    # naming distilled_probe_kernel here keeps it in the L401 corpus
    violations = lint_paths([STATIC / "undeclared_kernel_bug.py"])
    assert [v.rule for v in violations] == ["L402"]
    assert "distilled_probe_kernel" in violations[0].message


def test_l7_needs_streaming_scope():
    # the same materializing code outside the streaming scope is fine
    source = ("import numpy as np\n"
              "def gather(chunks):\n"
              "    return np.concatenate(list(chunks))\n")
    assert lint_file(Path("elsewhere.py"), source=source) == []
    scoped = "# dmtlint-scope: streaming\n" + source
    rules = {v.rule for v in lint_file(Path("elsewhere.py"), source=scoped)}
    assert rules == {"L701"}


def test_l7_scopes_the_streaming_path_files():
    from repro.analysis.lint.engine import STREAMING_FILES, FileContext

    for parent, name in STREAMING_FILES:
        path = PACKAGE / ("sim" if parent == "sim" else "workloads") / name
        ctx = FileContext(path, path.read_text(encoding="utf-8"),
                          LintConfig())
        assert "streaming" in ctx.scopes, path


def test_repro_package_is_lint_clean():
    violations = lint_paths([PACKAGE])
    assert violations == [], "\n".join(v.render() for v in violations)


# --------------------------------------------------------------------- #
# Engine mechanics
# --------------------------------------------------------------------- #

def test_scope_pragma_gates_scoped_rules():
    source = "pending = set([3, 1, 2])\nout = [x for x in pending]\n"
    path = Path("inline.py")  # not under sim/core/translation
    assert not lint_file(path, source=source)
    pragma = "# dmtlint-scope: result-path\n" + source
    assert {v.rule for v in lint_file(path, source=pragma)} == {"L203"}


def test_blanket_ignore_suppresses_everything():
    source = "half = va / 2  # dmtlint: ignore\n"
    assert not lint_file(Path("inline.py"), source=source)


def test_targeted_ignore_suppresses_only_named_rule():
    source = "half = va / float(va)  # dmtlint: ignore[L102]\n"
    assert {v.rule for v in lint_file(Path("inline.py"), source=source)} \
        == {"L101"}


def test_syntax_error_reports_l000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def (:\n", encoding="utf-8")
    assert rules_of(bad) == {"L000"}


def test_rule_selection_by_family():
    assert rules_of(STATIC, rules={"L1"}) == {"L101", "L102", "L103"}
    assert rules_of(STATIC, rules={"L203"}) == {"L203"}


def test_l4_skipped_without_a_corpus(tmp_path):
    config = LintConfig(tests_dir=tmp_path)  # empty corpus
    violations = lint_paths([STATIC / "unreferenced_vec_bug.py"], config)
    assert violations == []


# --------------------------------------------------------------------- #
# L5 address-domain dataflow
# --------------------------------------------------------------------- #

def test_l501_flags_cross_domain_addition_inline():
    source = "def f(gva, gpa):\n    return gva + gpa\n"
    violations = lint_file(Path("inline.py"), source=source)
    assert [v.rule for v in violations] == ["L501"]
    assert violations[0].evidence == "left=gva right=gpa"


def test_l501_allows_page_offset_and_frame_arithmetic():
    # Figure 7 register arithmetic: all of this is domain-correct.
    source = (
        "def f(va, va_start, base_frame, shift, nbytes):\n"
        "    granule = (va - va_start) >> shift\n"
        "    frame = base_frame + granule\n"
        "    tail = nbytes - (va - va_start)\n"
        "    return frame, tail\n"
    )
    assert not lint_file(Path("inline.py"), source=source)


def test_l502_crosses_call_graph_through_returns():
    # gpa_of_page() returns a gpa (name-seeded); feeding it to an
    # hpa parameter two calls later is caught interprocedurally.
    source = (
        "def gpa_of_page(page):\n"
        "    return page << 12\n"
        "def _read(hpa):\n"
        "    return hpa + 8\n"
        "def walk(page):\n"
        "    return _read(gpa_of_page(page))\n"
    )
    violations = lint_file(Path("inline.py"), source=source)
    assert [v.rule for v in violations] == ["L502"]


def test_domain_annotation_any_marks_polymorphic_params():
    source = (
        "# dmtlint-domain: va=any -- keyed by either space\n"
        "def _probe(va):\n"
        "    return va + 8\n"
        "def host_walk(gpa):\n"
        "    return _probe(gpa)\n"
    )
    assert not lint_file(Path("inline.py"), source=source)


def test_domain_annotation_overrides_name_seeding():
    source = (
        "# dmtlint-domain: return=gpa\n"
        "def map_host_frames(n):\n"
        "    return n\n"
        "def _fill(gpa):\n"
        "    return gpa\n"
        "def serve(n):\n"
        "    return _fill(map_host_frames(n))\n"
    )
    assert not lint_file(Path("inline.py"), source=source)


def test_l501_waivable_with_targeted_ignore():
    source = "def f(vpn, cycles):\n" \
             "    return vpn + cycles  # dmtlint: ignore[L501]\n"
    assert not lint_file(Path("inline.py"), source=source)


def test_l6_flags_dict_kernel_without_numba(tmp_path):
    # acceptance criterion: a kernel edited to use a dict is flagged
    # statically, numba not required
    kernels = tmp_path / "sim" / "kernels"
    kernels.mkdir(parents=True)
    kernel = kernels / "broken.py"
    kernel.write_text(
        "from repro.sim.kernels.backend import jit\n\n\n"
        "@jit\ndef _lut(keys, n):\n"
        "    table = {}\n"
        "    for i in range(n):\n"
        "        table[keys[i]] = i\n"
        "    return table\n",
        encoding="utf-8",
    )
    assert rules_of(kernel) == {"L601"}


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

def test_cli_exit_codes_and_summary(capsys):
    assert main([str(PACKAGE)]) == 0
    assert "— clean" in capsys.readouterr().out
    assert main([str(STATIC)]) == 1
    out = capsys.readouterr().out
    assert "L101" in out and "violation(s)" in out


def test_cli_json_output(capsys):
    assert main([str(STATIC), "--rules", "L3", "--format", "json"]) == 1
    findings = [json.loads(line)
                for line in capsys.readouterr().out.strip().splitlines()]
    assert [f["rule"] for f in findings] == ["L301"]
    assert findings[0]["path"].endswith("uncited_cost_bug.py")


def test_cli_format_json_is_one_finding_per_line(capsys):
    assert main([str(STATIC / "domain_call_bug.py"),
                 "--format", "json"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    findings = [json.loads(line) for line in lines]  # round-trips
    assert [f["rule"] for f in findings] == ["L502"]
    record = findings[0]
    assert set(record) >= {"rule", "path", "line", "col", "message",
                           "evidence"}
    assert record["evidence"] == "arg=gpa param=hpa:hpa"


def test_cli_format_github_emits_error_annotations(capsys):
    assert main([str(STATIC / "domain_return_bug.py"),
                 "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "title=dmtlint L503" in out


def test_cli_missing_path(capsys):
    assert main([str(REPO / "no_such_dir")]) == 2
    assert "no such path" in capsys.readouterr().err
