"""Fresh-interpreter entries started by run.py.

    python3 bench/child.py setup <workload> <seed>
        Import memlink and build the workload's configs, nothing else.
        run.py times this process from spawn to exit as ``setup_s``.

    python3 bench/child.py cli <trace.json> <memlink cli arguments...>
        Call ``memlink.cli.main`` with the tracer installed and write the
        per-layer counters to <trace.json>; exits with main's code.

Both expect ``src`` on PYTHONPATH, as run.py sets it.
"""

import json
import sys

SWEEP_SCENARIOS = ("lifetime", "correlation-sweep", "mains")
SWEEP_MODES = ("analytic", "mc")
CLI_SCENARIOS = ("checkpoints", "bell", "fidelity", "budget",
                 "direct-fiber-compare")


def build_configs(workload: str, seed: int, out_root: str = "results"):
    """The configs one pass of a workload runs (calibrate: its targets)."""
    from memlink.calibrate import DEFAULT_TARGETS
    from memlink.config import CampaignConfig, config_from_mapping

    if workload == "sweep":
        return [CampaignConfig(scenario=scn, mode=mode, seed=seed,
                               out_dir=f"{out_root}/{scn}-{mode}")
                for mode in SWEEP_MODES for scn in SWEEP_SCENARIOS]
    if workload == "calibrate":
        return [dict(DEFAULT_TARGETS)]
    if workload == "cli":
        return [config_from_mapping({}, {"scenario": scn, "seed": seed,
                                         "out_dir": f"{out_root}/{scn}"})
                for scn in CLI_SCENARIOS]
    raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        build_configs(argv[1], int(argv[2]))
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 3:
        import memlink.cli
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            code = memlink.cli.main(argv[2:])
        finally:
            tracer.restore()
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
