#!/usr/bin/env python3
"""Self-test for tools/analysis/ipa (ctest `analysis-ipa-selftest`).

Pins the interprocedural layer's behavior so a rule regression fails
ctest instead of failing open:

  * exact per-rule finding counts on tools/analysis/ipa/fixtures/bad/ —
    each rule's fixture covers both its intra-function form and the
    call-graph form (a releasing helper, a blocking callee, a lock
    re-acquired through a call, a callback registered one call away);
  * the clean fixtures stay spotless, with the per-rule suppression
    accounting pinned exactly;
  * the historical-bug reconstructions fire — the PR 1 deferred-callback
    use-after-free in the interprocedural form the per-function AST rule
    cannot see, and the harness progress-reporter I/O-under-lock — and
    the post-fix versions are clean;
  * a reason-less suppression is a hard error (exit 2);
  * the --json report is valid, agrees with the text output, and carries
    the call-graph stats;
  * `--cache` replays an identical report on unchanged inputs and
    invalidates on any content change, including an edit to the
    analyzer's own code.

Usage: test_ipa_selftest.py   (exit 0 pass, 1 fail)
"""

import io
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from analysis import AnalysisError  # noqa: E402
from analysis.ipa import analyze_paths_ipa, main  # noqa: E402

FIXTURES = REPO / "tools" / "analysis" / "ipa" / "fixtures"

# rule -> EXACT number of findings the bad fixtures must produce. Pinned
# exactly: any drift means a rule loosened or tightened and the fixture
# plus this table must move together.
EXPECTED_BAD = {
    "pool-use-after-release": 3,
    "lock-order-cycle": 2,
    "blocking-under-lock": 3,
    "callback-outlives-capture": 3,
}

# clean/src/suppressed.cc silences one real finding per listed rule; the
# per-rule accounting in the report must agree.
EXPECTED_CLEAN_SUPPRESSED = {
    "blocking-under-lock": 1,
    "pool-use-after-release": 1,
}

# Historical-bug reconstructions: (file fragment, rule, count) — each
# must fire exactly `count` times on regression/bug/ and not at all on
# regression/fixed/.
EXPECTED_REGRESSIONS = [
    ("pr1_indirect_deferred_uaf.cc", "callback-outlives-capture", 1),
    ("progress_io_under_lock.cc", "blocking-under-lock", 2),
]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run_ipa_analysis.py"] + argv)
    return code, out.getvalue(), err.getvalue()


def main_selftest() -> int:
    failures = []

    # --- bad fixtures: exact per-rule counts --------------------------------
    result = analyze_paths_ipa([str(FIXTURES / "bad")])
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

    # --- clean fixtures: spotless, per-rule suppression accounting ----------
    result = analyze_paths_ipa([str(FIXTURES / "clean")])
    if result.findings:
        failures.append(
            "clean fixtures: expected no findings, got:\n  " +
            "\n  ".join(f.render() for f in result.findings))
    if result.suppressed_by_rule != EXPECTED_CLEAN_SUPPRESSED:
        failures.append(
            f"clean fixtures: per-rule suppression accounting "
            f"{result.suppressed_by_rule} != {EXPECTED_CLEAN_SUPPRESSED}")
    if result.suppressed != sum(EXPECTED_CLEAN_SUPPRESSED.values()):
        failures.append(
            f"clean fixtures: suppressed total {result.suppressed} "
            f"disagrees with the per-rule table")
    missing_elapsed = set(EXPECTED_BAD) - set(result.rule_elapsed)
    if missing_elapsed:
        failures.append(
            f"clean fixtures: rule_elapsed missing rules {missing_elapsed}")

    # --- historical-bug reconstructions -------------------------------------
    result = analyze_paths_ipa([str(FIXTURES / "regression" / "bug")])
    expected_total = sum(n for _, _, n in EXPECTED_REGRESSIONS)
    if len(result.findings) != expected_total:
        failures.append(
            f"regression/bug: {len(result.findings)} findings, expected "
            f"exactly {expected_total}:\n  " +
            "\n  ".join(f.render() for f in result.findings))
    for fragment, rule, count in EXPECTED_REGRESSIONS:
        hits = [f for f in result.findings
                if fragment in f.path and f.rule == rule]
        if len(hits) != count:
            failures.append(
                f"regression/bug: expected rule '{rule}' to fire exactly "
                f"{count} time(s) on {fragment}, got {len(hits)}")
    result = analyze_paths_ipa([str(FIXTURES / "regression" / "fixed")])
    if result.findings or result.suppressed:
        failures.append(
            f"regression/fixed: expected 0 findings / 0 suppressed after "
            f"the historical fixes, got {len(result.findings)} finding(s), "
            f"{result.suppressed} suppressed")

    # --- suppression misuse is a hard error ---------------------------------
    path = FIXTURES / "error" / "missing_reason.cc"
    try:
        analyze_paths_ipa([str(path)])
        failures.append("missing_reason.cc: expected AnalysisError, got none")
    except AnalysisError as e:
        if "carries no reason" not in str(e):
            failures.append(
                f"missing_reason.cc: error message missing "
                f"'carries no reason': {e}")
    code, _, _ = run_main([str(path)])
    if code != 2:
        failures.append(
            f"missing_reason.cc: expected exit 2 via CLI, got {code}")

    # --- JSON report agrees with the text output ----------------------------
    with tempfile.TemporaryDirectory() as td:
        report = Path(td) / "report.json"
        code, out, _ = run_main(
            ["--json", str(report), str(FIXTURES / "bad")])
        data = json.loads(report.read_text())
        if data.get("version") != 1:
            failures.append(f"json report: bad version: {data.get('version')}")
        if data.get("layer") != "ipa":
            failures.append(f"json report: bad layer: {data.get('layer')}")
        if len(data.get("findings", [])) != total:
            failures.append(
                f"json report: {len(data.get('findings', []))} findings, "
                f"expected {total}")
        cg = data.get("callgraph", {})
        if not cg.get("functions") or cg.get("call_edges") is None:
            failures.append(f"json report: missing call-graph stats: {cg}")
        elapsed = data.get("rule_elapsed_seconds", {})
        bad_elapsed = {r: v for r, v in elapsed.items()
                       if not isinstance(v, (int, float)) or v < 0}
        if set(EXPECTED_BAD) - set(elapsed) or bad_elapsed:
            failures.append(
                f"json report: rule_elapsed_seconds incomplete or "
                f"negative: {elapsed}")
        text_lines = [ln for ln in out.splitlines()
                      if ln.strip() and not ln.startswith("ipa-analysis:")]
        if len(text_lines) != total:
            failures.append(
                f"text output: {len(text_lines)} finding lines, "
                f"expected {total}")
        for f in data.get("findings", []):
            for key in ("path", "line", "rule", "message", "snippet"):
                if key not in f:
                    failures.append(f"json report: finding missing '{key}'")
                    break

        # --- cache: replay on unchanged inputs, invalidate on change --------
        cache = Path(td) / "summary.cache.json"
        r1 = Path(td) / "r1.json"
        r2 = Path(td) / "r2.json"
        run_main(["--cache", str(cache),
                  "--json", str(r1), str(FIXTURES / "bad")])
        if not cache.is_file():
            failures.append("cache: file not written on cold run")
        _, _, err2 = run_main(
            ["--cache", str(cache),
             "--json", str(r2), str(FIXTURES / "bad")])
        if "cache hit" not in err2:
            failures.append("cache: warm run did not report a cache hit")
        d1 = json.loads(r1.read_text())
        d2 = json.loads(r2.read_text())
        if d1["findings"] != d2["findings"] or \
                d1["suppressed_by_rule"] != d2["suppressed_by_rule"]:
            failures.append("cache: replayed report disagrees with cold run")
        if not json.loads(r2.read_text())["callgraph"]["cache_hit"]:
            failures.append("cache: warm report does not mark cache_hit")
        # Any content change must invalidate.
        stale = json.loads(cache.read_text())
        stale["key"] = "0" * 64
        cache.write_text(json.dumps(stale))
        _, _, err3 = run_main(
            ["--cache", str(cache),
             "--json", str(r2), str(FIXTURES / "bad")])
        if "cache hit" in err3:
            failures.append("cache: stale key still replayed")

    # --- cache: an edit to the analyzer itself invalidates ------------------
    # Run a private copy of tools/analysis warm, then disable one rule in
    # the copy: the rerun must rebuild (and lose that rule's findings)
    # rather than replay the report the unedited analyzer wrote.
    with tempfile.TemporaryDirectory() as td:
        copy = Path(td) / "tools" / "analysis"
        shutil.copytree(REPO / "tools" / "analysis", copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cache = Path(td) / "summary.cache.json"
        cmd = [sys.executable, str(copy / "ipa" / "run_ipa_analysis.py"),
               "--cache", str(cache), str(copy / "ipa" / "fixtures" / "bad")]

        def run_copy():
            p = subprocess.run(cmd, capture_output=True, text=True,
                               check=False)
            return p.stdout.count("[pool-use-after-release]"), p.stderr

        run_copy()
        _, err = run_copy()
        if "cache hit" not in err:
            failures.append("cache: unedited analyzer copy missed its cache")
        rules_py = copy / "ipa" / "rules.py"
        head = ("def _check_pool_uar(program: Program) -> List[IPAFinding]:\n"
                "    out: List[IPAFinding] = []\n")
        src = rules_py.read_text(encoding="utf-8")
        if head not in src:
            failures.append("cache: _check_pool_uar head not found to edit")
        rules_py.write_text(src.replace(head, head + "    return out\n"),
                            encoding="utf-8")
        uar, err = run_copy()
        if "cache hit" in err or uar != 0:
            failures.append(
                f"cache: replayed a report after the analyzer changed "
                f"({uar} pool-use-after-release finding(s) from a disabled "
                f"rule)")

    if failures:
        print("ipa_selftest: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"ipa_selftest: OK ({total} pinned findings on bad fixtures, "
          f"{len(EXPECTED_REGRESSIONS)} historical-bug reconstructions "
          "firing, clean fixtures spotless, per-rule suppression "
          "accounting pinned, cache replay verified)")
    return 0


if __name__ == "__main__":
    sys.exit(main_selftest())
