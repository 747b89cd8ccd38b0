"""IPA-layer engine: whole-program loading, suppressions, caching.

Shares the token engine's Finding format, --json report shape, exit codes
(0 clean, 1 findings, 2 config error), `ll-analysis: allow(...)`
suppression syntax, allowlist format, and stale-allowlist hard errors.
The difference from the per-file layers: every path is loaded into one
Program (call graph + summaries) before any rule runs, so a finding in
file A can be caused by a summary computed from file B.

`--cache FILE` persists the full report keyed on a hash of every scanned
file's content plus the analyzer's own source (every tools/analysis
module), rule set, and allowlist; a warm run with identical inputs
replays the report without rebuilding the call graph (the CI step caches
this file keyed on the source hash).
"""

from __future__ import annotations

import hashlib
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
from ..ast import parser
from ..ast.engine import known_rule_names as _ast_known
from .callgraph import Program
from .rules import IPA_RULES, IPA_RULES_BY_NAME, IPARule

# The analyzer package (tools/analysis); its own source is part of the
# --cache key, so editing any rule, parser, or engine module invalidates.
_ANALYZER_ROOT = Path(__file__).resolve().parents[1]


def known_rule_names() -> Set[str]:
    return _ast_known() | set(IPA_RULES_BY_NAME)


def _cache_key(files: Sequence[Tuple[str, bytes]], rules: Sequence[IPARule],
               allowlist: Optional[Path]) -> str:
    h = hashlib.sha256()
    for module in sorted(_ANALYZER_ROOT.rglob("*.py")):
        h.update(module.relative_to(_ANALYZER_ROOT).as_posix().encode())
        h.update(hashlib.sha256(module.read_bytes()).digest())
    h.update(",".join(r.name for r in rules).encode())
    if allowlist is not None and allowlist.is_file():
        h.update(allowlist.read_bytes())
    for rel, blob in sorted(files):
        h.update(rel.encode())
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def _result_from_payload(payload: dict) -> AnalysisResult:
    findings = [Finding(**f) for f in payload.get("findings", [])]
    return AnalysisResult(
        findings, payload.get("suppressed", 0),
        payload.get("files_scanned", 0),
        dict(payload.get("suppressed_by_rule", {})),
        dict(payload.get("rule_elapsed_seconds", {})))


def analyze_paths_ipa(
    paths: Sequence[str],
    rules: Optional[Sequence[IPARule]] = None,
    root: Optional[Path] = None,
    allowlist: Optional[Path] = None,
    warnings: Optional[List[str]] = None,
    cache: Optional[Path] = None,
    stats: Optional[dict] = None,
) -> AnalysisResult:
    root = (root or repo_root()).resolve()
    rules = list(rules) if rules is not None else list(IPA_RULES)
    entries = _load_allowlist(allowlist) if allowlist else []
    warnings = warnings if warnings is not None else []

    # Phase 1: discover and read every file (also feeds the cache key).
    file_list: List[Tuple[str, Path]] = []
    blobs: List[Tuple[str, bytes]] = []
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
            file_list.append((rel, f))
            blobs.append((rel, f.read_bytes()))

    key = _cache_key(blobs, rules, allowlist)
    if cache is not None and cache.is_file():
        try:
            cached = json.loads(cache.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            cached = None
        if cached and cached.get("key") == key:
            warnings.append(
                f"cache hit ({cache}): replaying report for "
                f"{len(file_list)} file(s)")
            if stats is not None:
                stats.update(cached.get("stats", {}))
                stats["cache_hit"] = True
            return _result_from_payload(cached.get("payload", {}))

    # Phase 2: load every TU; collect suppressions and line tables.
    tus = []
    suppressions: Dict[str, Set[Tuple[int, str]]] = {}
    lines_of: Dict[str, List[str]] = {}
    for rel, f in file_list:
        text = f.read_text(encoding="utf-8", errors="replace")
        tokens, comments = tokenize(text)
        suppressions[rel] = _parse_suppressions(
            comments, tokens, rel, known_rule_names())
        lines_of[rel] = text.splitlines()
        tus.append(parser.load_tu(f, rel))

    # Phase 3: whole-program model.
    program = Program(tus)
    if stats is not None:
        stats["functions"] = len(program.nodes)
        stats["call_edges"] = sum(
            len(n.summary.calls) for n in program.nodes)
        stats["cache_hit"] = False

    # Phase 4: rules over the program; per-file suppression/allowlist.
    findings: List[Finding] = []
    used_entries: Set[int] = set()
    suppressed = 0
    suppressed_by_rule: Dict[str, int] = {}
    rule_elapsed: Dict[str, float] = {}
    for rule in rules:
        started = time.monotonic()
        hits = rule.check(program)
        rule_elapsed[rule.name] = (
            rule_elapsed.get(rule.name, 0.0)
            + (time.monotonic() - started))
        for rel, line, message in hits:
            if not rule.applies_to(rel):
                continue
            if (line, rule.name) in suppressions.get(rel, ()):
                suppressed += 1
                suppressed_by_rule[rule.name] = \
                    suppressed_by_rule.get(rule.name, 0) + 1
                continue
            lines = lines_of.get(rel, [])
            snippet = lines[line - 1].strip() if 0 < line <= len(lines) \
                else ""
            finding = Finding(rel, line, rule.name, message, snippet)
            k = _allowlist_match(finding, entries)
            if k is not None:
                used_entries.add(k)
                suppressed += 1
                suppressed_by_rule[rule.name] = \
                    suppressed_by_rule.get(rule.name, 0) + 1
            else:
                findings.append(finding)
    check_stale_allowlist(entries, used_entries, {r.name for r in rules},
                          file_list)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    result = AnalysisResult(findings, suppressed, len(file_list),
                            suppressed_by_rule, rule_elapsed)

    if cache is not None:
        try:
            cache.parent.mkdir(parents=True, exist_ok=True)
            cache.write_text(json.dumps({
                "key": key,
                "stats": dict(stats or {}),
                "payload": result.to_json(),
            }, indent=2) + "\n", encoding="utf-8")
        except OSError as e:
            warnings.append(f"cache write failed ({e})")
    return result


def main(argv: Sequence[str]) -> int:
    args = list(argv[1:])
    json_out: Optional[Path] = None
    rule_filter: Optional[List[IPARule]] = None
    allowlist: Optional[Path] = None
    budget_s: Optional[float] = None
    cache: Optional[Path] = None
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
            unknown = [x for x in names if x not in IPA_RULES_BY_NAME]
            if unknown:
                print(f"unknown rule(s): {', '.join(unknown)}",
                      file=sys.stderr)
                return 2
            rule_filter = [IPA_RULES_BY_NAME[x] for x in names]
        elif a == "--allowlist":
            i += 1
            if i >= len(args):
                print("--allowlist needs a file argument", file=sys.stderr)
                return 2
            allowlist = Path(args[i])
        elif a == "--cache":
            i += 1
            if i >= len(args):
                print("--cache needs a file argument", file=sys.stderr)
                return 2
            cache = Path(args[i])
        elif a == "--budget-seconds":
            i += 1
            try:
                budget_s = float(args[i])
            except (IndexError, ValueError):
                print("--budget-seconds needs a number", file=sys.stderr)
                return 2
        elif a == "--list-rules":
            for r in IPA_RULES:
                print(f"{r.name}: {r.doc}")
            return 0
        elif a in ("-h", "--help"):
            print(__doc__)
            print("usage: run_ipa_analysis.py [--json OUT] [--rules a,b] "
                  "[--allowlist FILE] [--cache FILE] "
                  "[--budget-seconds N] PATH...")
            return 0
        elif a.startswith("-"):
            print(f"unknown option: {a}", file=sys.stderr)
            return 2
        else:
            paths.append(a)
        i += 1
    if not paths:
        print("usage: run_ipa_analysis.py [--json OUT] PATH...",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    warnings: List[str] = []
    stats: dict = {}
    try:
        result = analyze_paths_ipa(
            paths, rules=rule_filter, allowlist=allowlist,
            warnings=warnings, cache=cache, stats=stats)
    except AnalysisError as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    for f in result.findings:
        print(f.render())
    if json_out is not None:
        payload = result.to_json()
        payload["layer"] = "ipa"
        payload["elapsed_seconds"] = round(elapsed, 3)
        payload["callgraph"] = {
            "functions": stats.get("functions", 0),
            "call_edges": stats.get("call_edges", 0),
            "cache_hit": stats.get("cache_hit", False),
        }
        json_out.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"ipa-analysis: {len(result.findings)} finding(s), "
        f"{result.suppressed} suppressed, "
        f"{result.files_scanned} file(s) scanned in {elapsed:.1f}s "
        f"({stats.get('functions', 0)} functions, "
        f"{stats.get('call_edges', 0)} call edges"
        f"{', cached' if stats.get('cache_hit') else ''})",
        file=sys.stderr)
    if budget_s is not None and elapsed > budget_s:
        print(f"analysis error: wall-clock budget exceeded "
              f"({elapsed:.1f}s > {budget_s:.1f}s)", file=sys.stderr)
        return 2
    return 1 if result.findings else 0
