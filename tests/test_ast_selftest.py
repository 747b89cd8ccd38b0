#!/usr/bin/env python3
"""Self-test for tools/analysis/ast (ctest `analysis-ast-selftest`).

Pins the flow-sensitive AST layer's behavior so a rule regression fails
ctest instead of failing open:

  * exact per-rule finding counts on tools/analysis/ast/fixtures/bad/;
  * the clean fixtures — including multi-line, inline-method, and
    end-of-file suppression scopes — stay spotless with exactly the
    pinned number of suppressions;
  * the historical-bug reconstructions (PR 1 deferred-callback UAF and
    PR 2 stream-limit mutation-under-iteration) each fire their rule,
    and the post-fix versions are clean;
  * an unknown rule tag or a reason-less suppression is a hard error
    (exit 2), never a silent no-op;
  * the --json report is valid and agrees with the text output.

Usage: test_ast_selftest.py   (exit 0 pass, 1 fail)
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from analysis import AnalysisError  # noqa: E402
from analysis.ast import analyze_paths_ast, main  # noqa: E402

FIXTURES = REPO / "tools" / "analysis" / "ast" / "fixtures"

# rule -> EXACT number of findings the bad fixtures must produce. Pinned
# exactly: any drift means a rule loosened or tightened and the fixture
# plus this table must move together.
EXPECTED_BAD = {
    "deferred-raw-this": 4,
    "iterator-invalidation": 4,
    "guarded-field-alias": 3,
    "cross-function-narrowing-time-arith": 3,
    "nondeterministic-iteration-escape": 3,
}

# Suppression-scope edge cases exercised by clean/src/suppressed.cc:
# single-line statement, multi-line statement, inline method body, a
# scope that jumps a token-less preprocessor directive, and a suppression
# covering the last code line of the file.
EXPECTED_CLEAN_SUPPRESSED = 5

# Historical-bug reconstructions: (file fragment, rule) pairs that must
# each fire exactly once on regression/bug/ and not at all on
# regression/fixed/.
EXPECTED_REGRESSIONS = [
    ("pr1_deferred_uaf.cc", "deferred-raw-this"),
    ("pr2_stream_limit_mutation.cc", "iterator-invalidation"),
]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run_ast_analysis.py"] + argv)
    return code, out.getvalue(), err.getvalue()


def main_selftest() -> int:
    failures = []

    # --- bad fixtures: exact per-rule counts --------------------------------
    result = analyze_paths_ast([str(FIXTURES / "bad")])
    counts = {}
    for f in result.findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    for rule, expected in EXPECTED_BAD.items():
        got = counts.get(rule, 0)
        if got != expected:
            failures.append(
                f"bad fixtures: rule '{rule}' fired {got} time(s), "
                f"expected exactly {expected}")
    total = sum(EXPECTED_BAD.values())
    if len(result.findings) != total:
        failures.append(
            f"bad fixtures: {len(result.findings)} total findings, expected "
            f"exactly {total}; extra rules fired: "
            f"{sorted(set(counts) - set(EXPECTED_BAD))}")
    code, _, _ = run_main([str(FIXTURES / "bad")])
    if code != 1:
        failures.append(f"bad fixtures: expected exit 1, got {code}")

    # --- clean fixtures: spotless, suppression scopes exercised -------------
    result = analyze_paths_ast([str(FIXTURES / "clean")])
    if result.findings:
        failures.append(
            "clean fixtures: expected no findings, got:\n  " +
            "\n  ".join(f.render() for f in result.findings))
    if result.suppressed != EXPECTED_CLEAN_SUPPRESSED:
        failures.append(
            f"clean fixtures: expected exactly {EXPECTED_CLEAN_SUPPRESSED} "
            f"suppressed findings (single-line, multi-line, inline-method, "
            f"macro-jump, and end-of-file scopes), got {result.suppressed}")

    # --- historical-bug reconstructions -------------------------------------
    result = analyze_paths_ast([str(FIXTURES / "regression" / "bug")])
    if len(result.findings) != len(EXPECTED_REGRESSIONS):
        failures.append(
            f"regression/bug: {len(result.findings)} findings, expected "
            f"exactly {len(EXPECTED_REGRESSIONS)}:\n  " +
            "\n  ".join(f.render() for f in result.findings))
    for fragment, rule in EXPECTED_REGRESSIONS:
        hits = [f for f in result.findings
                if fragment in f.path and f.rule == rule]
        if len(hits) != 1:
            failures.append(
                f"regression/bug: expected rule '{rule}' to fire exactly "
                f"once on {fragment}, got {len(hits)}")
    result = analyze_paths_ast([str(FIXTURES / "regression" / "fixed")])
    if result.findings or result.suppressed:
        failures.append(
            f"regression/fixed: expected 0 findings / 0 suppressed after "
            f"the historical fixes, got {len(result.findings)} finding(s), "
            f"{result.suppressed} suppressed")

    # --- suppression misuse is a hard error ---------------------------------
    for fixture, fragment in [
        ("unknown_rule.cc", "unknown rule"),
        ("missing_reason.cc", "carries no reason"),
    ]:
        path = FIXTURES / "error" / fixture
        try:
            analyze_paths_ast([str(path)])
            failures.append(f"{fixture}: expected AnalysisError, got none")
        except AnalysisError as e:
            if fragment not in str(e):
                failures.append(
                    f"{fixture}: error message missing {fragment!r}: {e}")
        code, _, err = run_main([str(path)])
        if code != 2:
            failures.append(f"{fixture}: expected exit 2 via CLI, got {code}")

    # --- cross-layer suppression validation ---------------------------------
    # A token-layer rule name inside an AST-scanned file must validate (the
    # layers share one suppression namespace); the reverse is covered by
    # the token selftest.
    try:
        analyze_paths_ast([str(FIXTURES / "clean")])
    except AnalysisError as e:
        failures.append(f"clean fixtures raised unexpectedly: {e}")

    # --- JSON report agrees with the text output ----------------------------
    with tempfile.TemporaryDirectory() as td:
        report = Path(td) / "report.json"
        code, out, _ = run_main(
            ["--json", str(report), str(FIXTURES / "bad")])
        data = json.loads(report.read_text())
        if data.get("version") != 1:
            failures.append(f"json report: bad version: {data.get('version')}")
        if data.get("layer") != "ast":
            failures.append(f"json report: bad layer: {data.get('layer')}")
        if len(data.get("findings", [])) != total:
            failures.append(
                f"json report: {len(data.get('findings', []))} findings, "
                f"expected {total}")
        text_lines = [ln for ln in out.splitlines()
                      if ln.strip() and not ln.startswith("ast-analysis:")]
        if len(text_lines) != total:
            failures.append(
                f"text output: {len(text_lines)} finding lines, "
                f"expected {total}")
        for f in data.get("findings", []):
            for key in ("path", "line", "rule", "message", "snippet"):
                if key not in f:
                    failures.append(f"json report: finding missing '{key}'")
                    break

    if failures:
        print("ast_selftest: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"ast_selftest: OK ({total} pinned findings on bad fixtures, "
          f"{len(EXPECTED_REGRESSIONS)} historical-bug reconstructions "
          "firing, clean fixtures spotless, suppression misuse rejected)")
    return 0


if __name__ == "__main__":
    sys.exit(main_selftest())
