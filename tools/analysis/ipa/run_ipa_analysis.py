#!/usr/bin/env python3
"""CLI for the interprocedural analyzer (tools/analysis/ipa).

Usage: run_ipa_analysis.py [--json OUT] [--rules a,b]
                           [--allowlist FILE] [--cache FILE]
                           [--budget-seconds N] PATH...

Exit codes: 0 clean, 1 findings, 2 usage/config error. See
docs/static_analysis.md for the rule catalog and suppression syntax.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from analysis.ipa import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv))
