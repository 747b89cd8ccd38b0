#!/usr/bin/env python3
"""CLI entry point for the flow-sensitive AST analyzer.

    tools/analysis/ast/run_ast_analysis.py [--json OUT] [--rules a,b]
        [--allowlist FILE] [--budget-seconds N] PATH...

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/configuration error.
"""

import sys
from pathlib import Path

# Drop the script's own directory (tools/analysis/ast/) and its parent from
# sys.path: both would shadow stdlib modules (`ast` itself, and this
# package's engine/rules/parser files). The package is reached via tools/.
_bad = {str(Path(__file__).resolve().parent),
        str(Path(__file__).resolve().parents[1]), ""}
sys.path[:] = [p for p in sys.path if p not in _bad]
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from analysis.ast import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv))
