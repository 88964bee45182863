"""Package surface: the public names and what importing them loads."""

import os
import subprocess
import sys

import memlink


def run_python(code):
    """Run code in a fresh interpreter that imports this package's src."""
    src = os.path.dirname(os.path.dirname(memlink.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)


class TestImports:
    def test_cli_import_does_not_load_the_solver(self):
        # only calibrate() and the curve fits need scipy.optimize, and
        # only an unsynced mains phase needs scipy.special, so importing
        # the CLI loads no part of scipy
        proc = run_python(
            "import sys, memlink.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_public_names_resolve(self):
        assert len(set(memlink.__all__)) == len(memlink.__all__)
        for name in memlink.__all__:
            assert getattr(memlink, name) is not None, name
        namespace = {}
        exec("from memlink import *", namespace)
        assert set(memlink.__all__) <= set(namespace)
