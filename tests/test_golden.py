"""Byte-for-byte regression of every default campaign.

``tests/golden/<scenario>/`` holds ``summary.kv`` and the CSV tables of
each scenario at the default seed in ``auto`` mode.  A change to the
chain engine, the samplers or the writers must leave these bytes as
they are; the files are never regenerated to absorb a difference.
"""

from pathlib import Path

import pytest

from memlink.config import SCENARIOS, CampaignConfig
from memlink.scenarios import run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_files(scenario):
    return sorted(p.name for p in (GOLDEN / scenario).iterdir())


def test_every_scenario_has_golden_outputs():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(SCENARIOS)
    for scenario in SCENARIOS:
        names = golden_files(scenario)
        assert "summary.kv" in names
        assert any(name.endswith(".csv") for name in names)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_default_campaign_matches_golden_bytes(tmp_path, scenario):
    cfg = CampaignConfig(scenario=scenario, out_dir=str(tmp_path))
    run_experiment(cfg)
    written = sorted(p.name for p in tmp_path.iterdir()
                     if p.name == "summary.kv" or p.suffix == ".csv")
    assert written == golden_files(scenario)
    for name in written:
        got = (tmp_path / name).read_bytes()
        want = (GOLDEN / scenario / name).read_bytes()
        assert got == want, f"{scenario}/{name} differs from its golden copy"
