#!/usr/bin/env python3
"""CLI entry point for the longlook analyzer.

    tools/analysis/run_analysis.py [--json OUT] [--rules a,b]
                                   [--allowlist FILE] PATH...

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/configuration error.
"""

import sys
from pathlib import Path

# Drop the script's own directory from sys.path: tools/analysis/ast/ would
# otherwise shadow the stdlib `ast` module for everything the interpreter
# imports. The package is reached via tools/ instead.
_here = str(Path(__file__).resolve().parent)
sys.path[:] = [p for p in sys.path if p not in ("", _here)]
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from analysis import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv))
