"""Record the golden copies the benchmark checks outputs against.

    python3 perfbench/record_golden.py

Writes one report JSON per `tables` input and the verification check names
per `verify-gate` operation into perfbench/golden/.  Run it only on a commit
whose outputs are known good; the copies in the repository were recorded at
the commit that added the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT.parent / "src"))
    from liecohom import verification
    from workloads import GOLDEN, Tables, report_json

    GOLDEN.mkdir(exist_ok=True)
    for name, text in Tables().setup(0, 0):
        (GOLDEN / f"{name}.json").write_text(report_json(text), encoding="utf-8")
    names = {"corpus_checks": [r.name for r in verification.corpus_checks("all")]}
    for name, func in verification.CRITERIA:
        names[name] = [func(verification.DEFAULT_SEED).name]
    (GOLDEN / "verify_checks.json").write_text(
        json.dumps(names, indent=2) + "\n", encoding="utf-8"
    )
