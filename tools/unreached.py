#!/usr/bin/env python3
"""List every function in ``src/memlink`` that no campaign path enters.

    python3 tools/unreached.py

Installs a ``sys.setprofile`` hook before ``memlink`` is imported (so
functions run at import time, such as table builders, count as
entered), then runs, in a temporary directory:

  * the 8 scenarios in ``auto``, ``analytic`` and ``mc`` mode at their
    default seed and trials, through ``run_experiment``;
  * ``memlink calibrate --targets`` on the default targets, which runs
    ``load_targets``, ``calibrate`` and ``save_config``;
  * ``memlink run bell --config`` on a YAML with ``calibrated: false``,
    the random double-click policy and dark rates of 0.05, so that the
    double-click split runs;
  * ``memlink report`` over all of the outputs above.

Every function, method and property defined in a ``src/memlink``
module that none of these entered is printed as ``module:qualname
(line)``.  Comprehensions and lambdas are not listed.  Exits 1 when
anything is printed, 0 otherwise.
"""

import contextlib
import io
import os
import sys
import tempfile
import types

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")
PACKAGE = os.path.realpath(os.path.join(SRC, "memlink"))

entered: set = set()


def _profile(frame, event, _arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))


def _defined(path: str):
    """(filename, line, name, qualname) of every named function in path."""
    with open(path, "r", encoding="utf-8") as fh:
        top = compile(fh.read(), path, "exec")
    stack = [top]
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
                if not const.co_name.startswith("<"):
                    yield (const.co_filename, const.co_firstlineno,
                           const.co_name, const.co_qualname)


def _campaigns(tmp: str) -> None:
    import yaml

    from memlink import cli
    from memlink.calibrate import DEFAULT_TARGETS
    from memlink.config import SCENARIOS, CampaignConfig
    from memlink.scenarios import run_experiment

    for scenario in SCENARIOS:
        for mode in ("auto", "analytic", "mc"):
            run_experiment(CampaignConfig(
                scenario=scenario, mode=mode,
                out_dir=os.path.join(tmp, "runs", f"{scenario}-{mode}")))

    targets = os.path.join(tmp, "targets.yaml")
    with open(targets, "w", encoding="utf-8") as fh:
        yaml.safe_dump({name: {"value": v, "sigma": s}
                        for name, (v, s) in DEFAULT_TARGETS.items()}, fh)
    cli.main(["calibrate", "--targets", targets,
              "--out", os.path.join(tmp, "cal")])

    config = os.path.join(tmp, "bell.yaml")
    with open(config, "w", encoding="utf-8") as fh:
        yaml.safe_dump({
            "calibrated": False,
            "detectors": {"double_click_policy": "random",
                          "monitor": {"dark_rate": 0.05},
                          "node_a": {"dark_rate": 0.05},
                          "node_b": {"dark_rate": 0.05}},
        }, fh)
    cli.main(["run", "bell", "--config", config,
              "--out", os.path.join(tmp, "runs", "bell-config")])
    cli.main(["report", os.path.join(tmp, "runs")])


def main() -> int:
    sys.path.insert(0, os.path.realpath(SRC))
    sys.setprofile(_profile)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            _campaigns(tmp)
    finally:
        sys.setprofile(None)

    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        for filename, line, fn, qualname in _defined(path):
            if (filename, line, fn) not in entered:
                missed.append(f"{name[:-3]}:{qualname} ({line})")
    for entry in sorted(missed):
        print(entry)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
