#!/usr/bin/env python3
"""Write every scenario's outputs in every mode, for a byte-level diff.

    PYTHONPATH=<tree>/src python3 tools/snapshot_campaigns.py OUT [SEED ...]

Runs the 8 scenarios in ``auto``, ``analytic`` and ``mc`` mode at the
default seed and default trial counts through ``run_experiment`` into
``OUT/<scenario>-<mode>/`` (summary.kv, summary.txt and the CSVs).
Each SEED (an integer, or a range ``A-B`` of them) also runs the three
sampled campaigns of the benchmark's ``cli`` workload (``checkpoints``,
``bell`` and ``fidelity`` in ``auto`` mode) at that master seed into
``OUT/seed-<n>/<scenario>/``, so that one diff covers the seeds a
benchmark run may draw.  ``memlink calibrate`` on the default targets
writes its ``calibration.txt`` and ``calibrated.yaml`` to
``OUT/calibrate/``, so the diff also shows every printed calibration
value.
Each run prints one status line.  With seeds, the log then gives one
tally line per sampled scenario over the seeds, such as
``bell: PASS 46 FAIL 74 ERROR 0``: the share of those campaigns that
did not pass, which the benchmark counts as failed operations.  The
log ends with the same tally over the 24 default-seed runs, such as
``default: PASS 21 FAIL 2 ERROR 1``; it holds the three ``mc`` sweeps
of the benchmark's ``sweep`` workload.
Snapshot two source trees into two directories and compare them with
``diff -r``: a refactor that claims unchanged numbers leaves it empty.
The golden files under ``tests/golden/`` pin only the ``auto`` runs.

The tool also writes ``OUT/seeds.manifest``: one line per run
directory in the order they ran, ``<run> <status> <sha256>`` (the
status of ``calibrate`` is ``exit-<code>``, the hash is over the
directory's file names and bytes in name order), then the tally lines.
``tests/seeds.manifest`` is that file for seeds 1-400 (kept beside
``tests/golden/``, which holds one directory per scenario); a tier-1
test recomputes its default-seed lines, the status of its
``calibrate`` line and seeds 1-20, so a moved draw or status shows as
a moved line.
"""

import contextlib
import hashlib
import io
import os
import sys
from collections import Counter

from memlink import cli
from memlink.config import SCENARIOS, CampaignConfig
from memlink.scenarios import run_experiment

MODES = ("auto", "analytic", "mc")
SEEDED_SCENARIOS = ("checkpoints", "bell", "fidelity")


def parse_seeds(args: list[str]) -> list[int]:
    """Seeds from integers and inclusive ``A-B`` ranges, in order."""
    seeds = []
    for arg in args:
        first, _, last = arg.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


STATUSES = ("PASS", "FAIL", "ERROR")


def run(label: str, cfg: CampaignConfig) -> str:
    """Run one campaign, print its status (the error text for an
    error) and return PASS, FAIL or ERROR."""
    result = run_experiment(cfg)
    error = result.summary.get("error")
    status = "ERROR" if error else "PASS" if result.passed else "FAIL"
    print(f"{label}: {error or status}")
    return status


def digest(path: str) -> str:
    """sha256 over a directory's file names and bytes, in name order."""
    sha = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        sha.update(f"{name}\0{len(data)}\0".encode() + data)
    return sha.hexdigest()


def calibrate(out: str) -> int:
    """``memlink calibrate --out calibrate`` run inside OUT, so that the
    ``out_dir`` it records is the same for every OUT."""
    os.makedirs(out, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["calibrate", "--out", "calibrate"])
    finally:
        os.chdir(cwd)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    out, seeds = argv[0], parse_seeds(argv[1:])
    runs = []
    defaults = Counter()
    for scenario in SCENARIOS:
        for mode in MODES:
            label = f"{scenario}-{mode}"
            runs.append((label, run(label, CampaignConfig(
                scenario=scenario, mode=mode, out_dir=f"{out}/{label}"))))
            defaults[runs[-1][1]] += 1
    code = calibrate(out)
    print(f"calibrate: exit {code}")
    runs.append(("calibrate", f"exit-{code}"))
    tally = {scenario: Counter() for scenario in SEEDED_SCENARIOS if seeds}
    for seed in seeds:
        for scenario in SEEDED_SCENARIOS:
            label = f"seed-{seed}/{scenario}"
            runs.append((label, run(label, CampaignConfig(
                scenario=scenario, seed=seed, out_dir=f"{out}/{label}"))))
            tally[scenario][runs[-1][1]] += 1
    tally["default"] = defaults
    tallies = [f"{label}: " + " ".join(f"{s} {counts[s]}" for s in STATUSES)
               for label, counts in tally.items()]
    print("\n".join(tallies))
    with open(f"{out}/seeds.manifest", "w", encoding="utf-8") as fh:
        fh.writelines(f"{label} {status} {digest(f'{out}/{label}')}\n"
                      for label, status in runs)
        fh.writelines(line + "\n" for line in tallies)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
