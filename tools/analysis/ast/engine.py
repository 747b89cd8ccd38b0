"""AST-layer engine: parsing, suppressions, reporting.

Shares the token engine's finding format, `--json` report shape, exit
codes (0 clean, 1 findings, 2 config error), `ll-analysis: allow(...)`
suppression syntax, and allowlist format — a suppression written for a
token rule and one written for an AST rule are indistinguishable to the
reader, and either engine validates rule names against the union of both
layers' rules so cross-layer comments never hard-error. Every file is
parsed by the pure-Python parser (parser.py), so results never depend on
what the host has installed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..engine import (
    AnalysisError, AnalysisResult, Finding, _allowlist_match,
    _check_allowed, _iter_source_files, _load_allowlist,
    _parse_suppressions, check_stale_allowlist, repo_root,
)
from ..lexer import tokenize
from . import parser
from .rules import AST_RULES, AST_RULES_BY_NAME, ASTRule


def known_rule_names() -> Set[str]:
    """Union of token-, AST-, and IPA-layer rule names, for suppression
    and allowlist validation on any engine."""
    from ..engine import _known_rule_names
    return _known_rule_names() | set(AST_RULES_BY_NAME)


def analyze_file_ast(
    fs_path: Path, rel: str, rules: Sequence[ASTRule],
    suppressed_by_rule: Optional[Dict[str, int]] = None,
    rule_elapsed: Optional[Dict[str, float]] = None,
) -> Tuple[List[Finding], int]:
    text = fs_path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    tokens, comments = tokenize(text)
    suppressions = _parse_suppressions(
        comments, tokens, rel, known_rule_names())
    tu = parser.load_tu(fs_path, rel)
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules:
        if not rule.applies_to(rel):
            continue
        started = time.monotonic()
        hits = list(rule.check(tu))
        if rule_elapsed is not None:
            rule_elapsed[rule.name] = (
                rule_elapsed.get(rule.name, 0.0)
                + (time.monotonic() - started))
        for line, message in hits:
            if (line, rule.name) in suppressions:
                suppressed += 1
                if suppressed_by_rule is not None:
                    suppressed_by_rule[rule.name] = \
                        suppressed_by_rule.get(rule.name, 0) + 1
                continue
            snippet = lines[line - 1].strip() if 0 < line <= len(lines) \
                else ""
            findings.append(Finding(rel, line, rule.name, message, snippet))
    return findings, suppressed


def analyze_paths_ast(
    paths: Sequence[str],
    rules: Optional[Sequence[ASTRule]] = None,
    root: Optional[Path] = None,
    allowlist: Optional[Path] = None,
) -> AnalysisResult:
    root = (root or repo_root()).resolve()
    rules = list(rules) if rules is not None else list(AST_RULES)
    entries = _load_allowlist(allowlist) if allowlist else []
    findings: List[Finding] = []
    used_entries: Set[int] = set()
    suppressed = 0
    suppressed_by_rule: Dict[str, int] = {}
    rule_elapsed: Dict[str, float] = {}
    scanned_files: List[Tuple[str, Path]] = []
    for arg in paths:
        p = Path(arg)
        if not p.exists():
            raise AnalysisError(f"no such path: {arg}")
        _check_allowed(root, p)
        for f in _iter_source_files(root, p):
            try:
                rel = f.resolve().relative_to(root).as_posix()
            except ValueError:
                rel = f.as_posix()
            file_findings, file_suppressed = analyze_file_ast(
                f, rel, rules, suppressed_by_rule, rule_elapsed)
            scanned_files.append((rel, f))
            suppressed += file_suppressed
            for finding in file_findings:
                k = _allowlist_match(finding, entries)
                if k is not None:
                    used_entries.add(k)
                    suppressed += 1
                    suppressed_by_rule[finding.rule] = \
                        suppressed_by_rule.get(finding.rule, 0) + 1
                else:
                    findings.append(finding)
    check_stale_allowlist(entries, used_entries, {r.name for r in rules},
                          scanned_files)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return AnalysisResult(findings, suppressed, len(scanned_files),
                          suppressed_by_rule, rule_elapsed)


def main(argv: Sequence[str]) -> int:
    args = list(argv[1:])
    json_out: Optional[Path] = None
    rule_filter: Optional[List[ASTRule]] = None
    allowlist: Optional[Path] = None
    budget_s: Optional[float] = None
    paths: List[str] = []
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--json":
            i += 1
            if i >= len(args):
                print("--json needs a file argument", file=sys.stderr)
                return 2
            json_out = Path(args[i])
        elif a == "--rules":
            i += 1
            if i >= len(args):
                print("--rules needs a comma-separated list",
                      file=sys.stderr)
                return 2
            names = [x.strip() for x in args[i].split(",") if x.strip()]
            unknown = [x for x in names if x not in AST_RULES_BY_NAME]
            if unknown:
                print(f"unknown rule(s): {', '.join(unknown)}",
                      file=sys.stderr)
                return 2
            rule_filter = [AST_RULES_BY_NAME[x] for x in names]
        elif a == "--allowlist":
            i += 1
            if i >= len(args):
                print("--allowlist needs a file argument", file=sys.stderr)
                return 2
            allowlist = Path(args[i])
        elif a == "--budget-seconds":
            i += 1
            try:
                budget_s = float(args[i])
            except (IndexError, ValueError):
                print("--budget-seconds needs a number", file=sys.stderr)
                return 2
        elif a == "--list-rules":
            for r in AST_RULES:
                print(f"{r.name}: {r.doc}")
            return 0
        elif a in ("-h", "--help"):
            print(__doc__)
            print("usage: run_ast_analysis.py [--json OUT] [--rules a,b] "
                  "[--allowlist FILE] [--budget-seconds N] PATH...")
            return 0
        elif a.startswith("-"):
            print(f"unknown option: {a}", file=sys.stderr)
            return 2
        else:
            paths.append(a)
        i += 1
    if not paths:
        print("usage: run_ast_analysis.py [--json OUT] PATH...",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        result = analyze_paths_ast(
            paths, rules=rule_filter, allowlist=allowlist)
    except AnalysisError as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    for f in result.findings:
        print(f.render())
    if json_out is not None:
        payload = result.to_json()
        payload["layer"] = "ast"
        payload["elapsed_seconds"] = round(elapsed, 3)
        json_out.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"ast-analysis: {len(result.findings)} finding(s), "
        f"{result.suppressed} suppressed, "
        f"{result.files_scanned} file(s) scanned in {elapsed:.1f}s",
        file=sys.stderr)
    if budget_s is not None and elapsed > budget_s:
        print(f"analysis error: wall-clock budget exceeded "
              f"({elapsed:.1f}s > {budget_s:.1f}s)", file=sys.stderr)
        return 2
    return 1 if result.findings else 0
