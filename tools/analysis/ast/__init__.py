"""Flow-sensitive AST analysis layer for the longlook analyzer.

Sits on top of the token-aware engine in tools/analysis/: same finding
format, same `--json` report shape, same exit codes, and the same
`// ll-analysis: allow(<rule>) <reason>` suppression syntax. The layer adds
what the token stream cannot express: statement-ordered dataflow inside
function bodies (lambda escape, iterator kill/use, lock scopes, value flow
through calls and returns).

One frontend builds the IR (astmodel.TranslationUnit): a pure-Python
structural parser (parser.py) on tools/analysis/lexer.py. It needs nothing
beyond the Python standard library, so fixture counts reproduce on any
machine.

Entry point: tools/analysis/ast/run_ast_analysis.py (ctest `ast-analysis`,
self-test `analysis-ast-selftest`).
"""

from .engine import analyze_paths_ast, main  # noqa: F401
from .rules import AST_RULES, AST_RULE_NAMES  # noqa: F401
