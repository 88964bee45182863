#!/usr/bin/env python3
"""Write every scenario's outputs in every mode, for a byte-level diff.

    PYTHONPATH=<tree>/src python3 tools/snapshot_campaigns.py OUT

Runs the 8 scenarios in ``auto``, ``analytic`` and ``mc`` mode at the
default seed and default trial counts through ``run_experiment`` into
``OUT/<scenario>-<mode>/`` (summary.kv, summary.txt and the CSVs).
Snapshot two source trees into two directories and compare them with
``diff -r``: a refactor that claims unchanged numbers leaves it empty.
The golden files under ``tests/golden/`` pin only the ``auto`` runs.
"""

import sys

from memlink.config import SCENARIOS, CampaignConfig
from memlink.scenarios import run_experiment

MODES = ("auto", "analytic", "mc")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    for scenario in SCENARIOS:
        for mode in MODES:
            out_dir = f"{argv[0]}/{scenario}-{mode}"
            result = run_experiment(CampaignConfig(
                scenario=scenario, mode=mode, out_dir=out_dir))
            status = result.summary.get("error") or (
                "PASS" if result.passed else "FAIL")
            print(f"{scenario}-{mode}: {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
