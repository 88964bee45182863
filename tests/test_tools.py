"""The repository's tools keep working on the package as it stands."""

import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


SNAPSHOT_SEEDS = range(1, 21)


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """The snapshot tool's log lines and manifest lines for the default
    seed, calibrate and seeds 1-20, and the tool's module."""
    tool = load_by_path(ROOT / "tools" / "snapshot_campaigns.py")
    out = tmp_path_factory.mktemp("snapshot") / "out"
    log = io.StringIO()
    with contextlib.redirect_stdout(log):
        assert tool.main([str(out), "1-20"]) == 0
    manifest = (out / "seeds.manifest").read_text(encoding="utf-8")
    return tool, log.getvalue().splitlines(), manifest.splitlines()


def test_snapshot_ends_with_a_tally_per_sampled_scenario(snapshot):
    tool, lines, _ = snapshot
    status = dict(line.split(": ", 1) for line in lines)

    def tally_line(label, runs):
        # a run that errs prints its error text instead of a status
        counts = {s: [status[run] for run in runs].count(s)
                  for s in ("PASS", "FAIL")}
        counts["ERROR"] = len(runs) - counts["PASS"] - counts["FAIL"]
        return (f"{label}: PASS {counts['PASS']} "
                f"FAIL {counts['FAIL']} ERROR {counts['ERROR']}")

    for scenario, tally in zip(tool.SEEDED_SCENARIOS, lines[-4:-1]):
        assert tally == tally_line(
            scenario, [f"seed-{seed}/{scenario}" for seed in SNAPSHOT_SEEDS])
    # the log ends with the tally of the 24 default-seed runs
    defaults = [f"{scenario}-{mode}" for scenario in SCENARIOS
                for mode in tool.MODES]
    assert len(defaults) == 24
    assert lines[-1] == tally_line("default", defaults)


def test_manifest_matches_golden_seeds(snapshot):
    # every run's status and output bytes, against the committed
    # manifest of seeds 1-400: a moved mc draw or status moves a line
    _, _, manifest = snapshot
    golden = (ROOT / "tests" / "seeds.manifest").read_text(
        encoding="utf-8").splitlines()
    runs = [line for line in manifest if not line.split()[0].endswith(":")]
    assert len(runs) == 24 + 1 + 3 * len(SNAPSHOT_SEEDS)

    def checked(line):
        # calibrate prints its floats to all 17 digits, which another
        # BLAS build may move: of its line only the status is checked
        if line.startswith("calibrate "):
            return line.rsplit(" ", 1)[0]
        return line

    want = {line.split()[0]: checked(line) for line in golden}
    assert ([want.get(line.split()[0]) for line in runs]
            == [checked(line) for line in runs])
    # the default-seed tally does not depend on the seeds run
    assert manifest[-1] == golden[-1]
    assert manifest[-1].startswith("default: ")
