"""The repository's tools keep working on the package as it stands."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from memlink import qcore, scenarios, source
from memlink.config import SCENARIOS, CampaignConfig

ROOT = Path(__file__).resolve().parents[1]


def clear_caches():
    for name, mod in list(sys.modules.items()):
        if name == "memlink" or name.startswith("memlink."):
            for value in vars(mod).values():
                if (callable(getattr(value, "cache_clear", None))
                        and hasattr(value, "cache_info")):
                    value.cache_clear()


def load_by_path(path: Path):
    spec = importlib.util.spec_from_file_location(f"_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_counts_a_campaign_and_restores(tmp_path):
    tracing = load_by_path(ROOT / "bench" / "tracing.py")
    init = qcore.KrausChannel.__init__
    build = source.atom_photon_state
    clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # looked up on the module, where the tracer patches it
        scenarios.run_experiment(CampaignConfig(
            scenario="bell", mode="analytic", out_dir=str(tmp_path)))
    finally:
        tracer.restore()
    calls = tracer.snapshot()["calls"]
    assert calls["source.atom_photon_state"] == 1
    assert calls[tracing.KRAUS_LAYER] > 0
    assert calls["scenarios.run_experiment"] == 1
    assert qcore.KrausChannel.__init__ is init
    assert source.atom_photon_state is build


def test_every_function_is_reached_by_a_campaign():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unreached.py")],
        capture_output=True, text=True, timeout=300, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "", proc.stdout


def test_snapshot_ends_with_a_tally_per_sampled_scenario(tmp_path, capsys):
    snapshot = load_by_path(ROOT / "tools" / "snapshot_campaigns.py")
    assert snapshot.main([str(tmp_path / "out"), "1-2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    status = dict(line.split(": ", 1) for line in lines)

    def tally_line(label, runs):
        # a run that errs prints its error text instead of a status
        counts = {s: [status[run] for run in runs].count(s)
                  for s in ("PASS", "FAIL")}
        counts["ERROR"] = len(runs) - counts["PASS"] - counts["FAIL"]
        return (f"{label}: PASS {counts['PASS']} "
                f"FAIL {counts['FAIL']} ERROR {counts['ERROR']}")

    for scenario, tally in zip(snapshot.SEEDED_SCENARIOS, lines[-4:-1]):
        assert tally == tally_line(
            scenario, [f"seed-{seed}/{scenario}" for seed in (1, 2)])
    # the log ends with the tally of the 24 default-seed runs
    defaults = [f"{scenario}-{mode}" for scenario in SCENARIOS
                for mode in snapshot.MODES]
    assert len(defaults) == 24
    assert lines[-1] == tally_line("default", defaults)
