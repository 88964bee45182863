#!/usr/bin/env python3
"""memlink benchmark: time to a verdict, time to recalibrate, CLI start-up.

    python3 bench/run.py --workload {sweep,calibrate,cli} [--seed N]
                         [--seconds S] [--trace {0,1}]

Run from the root of a checkout; the package is imported from ``src``.
``--seed`` is the master seed of the cli workload's campaigns (default:
memlink's own 20260823).  The sweep always runs at 20260823: the cost
of its mc half depends on the draw through the fits, and over random
seeds it is heavy-tailed (README.md), so a seed per run would bury
every other change in that tail.  calibrate() draws nothing.  Passes
repeat until ``--seconds`` have elapsed (at least two).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are the same numbers for a reader, with quartiles and the
environment.  Exit code 0 when every output check holds, 1 when one
fails (after the JSON), 2 when the run cannot start.

README.md describes the workloads, the cold-cache discipline, the
output checks and which end-to-end metric each per-layer metric should
move.  ``--trace 1`` runs untraced passes for half the time, then
traced passes (tracing.py) for the rest, and reports the per-layer
metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import os

# One BLAS thread (never more than nproc) in this process and its
# children; set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from child import CLI_SCENARIOS, build_configs  # noqa: E402
from tracing import KRAUS_LAYER, TARGETS, Tracer, memlink_modules  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("sweep", "calibrate", "cli")
DEFAULT_SEED = 20260823
# setup_s is the median of this many fresh interpreters, after one
# untimed start that fills the bytecode and page caches.
SETUP_REPEATS = 9
# The CAL_* constants are printed to 8 significant digits and the
# solver stops at ftol = xtol = 1e-12; 1e-5 leaves room for summation
# order changes and still catches a different optimum.
CAL_REL_TOL = 1e-5
CHILD_TIMEOUT_S = 120.0

# Layers reported as <layer>.calls and <layer>.self_ms.
TIMED_LAYERS = tuple(dict.fromkeys(
    layer for layer, *_ in TARGETS
    if layer not in ("estimators", "calibrate.calibrate")))

def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
    units[f"{KRAUS_LAYER}.count"] = "count"
    units[f"{KRAUS_LAYER}.ms"] = "ms"
    units["detection.chain_evals"] = "count"
    units["detection.cache_hit_ratio"] = "ratio"
    units["estimators.calls"] = "count"
    units["estimators.self_ms"] = "ms"
    units["estimators.errors"] = "count"
    units["fitting.errors"] = "count"
    units["calibrate.solver_self_ms"] = "ms"
    units["scenarios.analytic_s"] = "s"
    units["scenarios.mc_s"] = "s"
    units["bench.trace_overhead_s"] = "s"
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Op:
    """One timed operation: a campaign or one calibrate() call."""

    name: str
    mode: str
    seconds: float
    failed: bool
    outputs: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    wall_s: float
    ops: list[Op]
    cache: Counter
    counters: dict | None = None
    peak_rss_mb: float = 0.0


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def campaign_op(name: str, out_dir: Path, seconds: float) -> Op:
    """Read back one campaign's outputs: status, resolved mode, hashes."""
    kv_path = out_dir / "summary.kv"
    op = Op(name=name, mode="", seconds=seconds, failed=True)
    if not kv_path.is_file():
        op.problems.append(f"{name}: no summary.kv")
        return op
    kv = dict(line.split("=", 1)
              for line in kv_path.read_text(encoding="utf-8").splitlines()
              if "=" in line)
    if "status" not in kv:
        op.problems.append(f"{name}: summary.kv has no status= line")
    op.failed = kv.get("status") != "PASS"
    op.mode = kv.get("mode", "")
    op.outputs = {p.name: _sha(p) for p in sorted(out_dir.iterdir())
                  if p.name == "summary.kv" or p.suffix == ".csv"}
    return op


def spawn(cmd: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """Run one child to completion: exit code, wall seconds, peak RSS MB."""
    with open(log, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed if workload == "cli" else DEFAULT_SEED
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self._n = 0
        if workload != "cli":
            sys.path.insert(0, str(SRC))
            import memlink  # noqa: F401
            import memlink.calibrate
            import memlink.config
            import memlink.scenarios
            self.cal = memlink.calibrate
            self.config = memlink.config
            self.scenarios = memlink.scenarios

    # -- set-up -----------------------------------------------------------

    def measure_setup(self) -> list[float]:
        cmd = [sys.executable, str(BENCH / "child.py"), "setup",
               self.workload, str(self.seed)]
        log = self.work / "setup.err"
        times = []
        for i in range(SETUP_REPEATS + 1):
            code, wall, _ = spawn(cmd, self.env, log)
            if code != 0:
                raise BenchError(
                    f"set-up child exited {code}: "
                    f"{log.read_text(errors='replace').strip()}")
            if i:
                times.append(wall)
        return times

    # -- passes -----------------------------------------------------------

    def run_pass(self, tracer: Tracer | None) -> Pass:
        self._n += 1
        out_root = self.work / f"pass{self._n}"
        out_root.mkdir(parents=True)
        if tracer is not None:
            tracer.reset()
        runner = {"sweep": self._sweep, "calibrate": self._calibrate,
                  "cli": self._cli}[self.workload]
        result = runner(out_root, tracer)
        if self.workload != "cli":
            if tracer is not None:
                result.counters = tracer.snapshot()
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result.peak_rss_mb = rss / 1024.0
        shutil.rmtree(out_root)
        return result

    @staticmethod
    def _caches() -> list:
        """Every lru_cache in a loaded memlink module (rescanned per op,
        so a module imported lazily is not missed)."""
        return list({id(v): v for mod in memlink_modules()
                     for v in vars(mod).values()
                     if callable(getattr(v, "cache_clear", None))
                     and hasattr(v, "cache_info")}.values())

    def _cold_start(self) -> None:
        for fn in self._caches():
            fn.cache_clear()

    def _cache_counts(self, into: Counter) -> None:
        for fn in self._caches():
            info = fn.cache_info()
            into[f"{fn.__qualname__}.hits"] += info.hits
            into[f"{fn.__qualname__}.misses"] += info.misses

    def _sweep(self, out_root: Path, tracer) -> Pass:
        timed = []
        cache = Counter()
        start = perf_counter()
        for cfg in build_configs("sweep", self.seed, str(out_root)):
            self._cold_start()
            t0 = perf_counter()
            self.scenarios.run_experiment(cfg)
            timed.append((cfg, perf_counter() - t0))
            self._cache_counts(cache)
        wall = perf_counter() - start
        ops = [campaign_op(f"{cfg.scenario}-{cfg.mode}", Path(cfg.out_dir),
                           dt) for cfg, dt in timed]
        return Pass(wall_s=wall, ops=ops, cache=cache)

    def _calibrate(self, out_root: Path, tracer) -> Pass:
        (targets,) = build_configs("calibrate", self.seed)
        cache = Counter()
        self._cold_start()
        t0 = perf_counter()
        res = self.cal.calibrate(targets)
        wall = perf_counter() - t0
        self._cache_counts(cache)
        op = Op(name="calibrate", mode="", seconds=wall,
                failed=not res.converged,
                outputs={"params": repr(sorted(res.params.items()))})
        if not res.converged:
            op.problems.append(f"calibrate did not converge: {res.message}")
        for name, value in sorted(res.params.items()):
            frozen = getattr(self.config, "CAL_" + name.upper(), None)
            if frozen is None or not math.isclose(value, frozen,
                                                  rel_tol=CAL_REL_TOL):
                op.problems.append(
                    f"calibrate: {name} = {value!r} vs frozen "
                    f"CAL_{name.upper()} = {frozen!r} "
                    f"(rel tol {CAL_REL_TOL:g})")
        return Pass(wall_s=wall, ops=[op], cache=cache)

    def _cli(self, out_root: Path, tracer) -> Pass:
        runs = []
        start = perf_counter()
        for scn in CLI_SCENARIOS:
            out = out_root / scn
            args = ["run", scn, "--seed", str(self.seed), "--out", str(out)]
            trace_file = out_root / f"{scn}.trace.json"
            if tracer is None:
                cmd = [sys.executable, "-m", "memlink"] + args
            else:
                cmd = [sys.executable, str(BENCH / "child.py"), "cli",
                       str(trace_file)] + args
            code, wall, rss = spawn(cmd, self.env, out_root / f"{scn}.err")
            runs.append((scn, out, trace_file, code, wall, rss))
        pass_wall = perf_counter() - start

        ops = []
        totals = {"calls": Counter(), "self_ns": Counter(),
                  "errors": Counter()}
        for scn, out, trace_file, code, wall, rss in runs:
            op = campaign_op(scn, out, wall)
            op.failed = op.failed or code != 0
            if code < 0:
                op.problems.append(f"{scn}: killed by signal {-code}")
            if op.problems:
                err = (out_root / f"{scn}.err").read_text(errors="replace")
                op.problems.append(f"{scn}: exit code {code}, stderr: "
                                   f"{err.strip()[-500:]}")
            if tracer is not None:
                if trace_file.is_file():
                    snap = json.loads(trace_file.read_text(encoding="utf-8"))
                    for key, counts in snap.items():
                        totals[key].update(counts)
                else:
                    op.problems.append(f"{scn}: traced child wrote no trace")
            ops.append(op)
        return Pass(wall_s=pass_wall, ops=ops, cache=Counter(),
                    counters=({k: dict(v) for k, v in totals.items()}
                              if tracer is not None else None),
                    peak_rss_mb=max(r[5] for r in runs))

    def passes(self, seconds: float, min_passes: int,
               tracer: Tracer | None) -> list[Pass]:
        done = []
        start = perf_counter()
        while len(done) < min_passes or perf_counter() - start < seconds:
            done.append(self.run_pass(tracer))
        return done


# ---------------------------------------------------------------------------
# metrics and checks


def layer_metrics(snap: dict) -> dict[str, float]:
    calls = snap["calls"]
    ns = snap["self_ns"]
    errors = snap["errors"]
    out: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_ms"] = ns.get(layer, 0) / 1e6
    out[f"{KRAUS_LAYER}.count"] = calls.get(KRAUS_LAYER, 0)
    out[f"{KRAUS_LAYER}.ms"] = ns.get(KRAUS_LAYER, 0) / 1e6
    chain = calls.get("source.atom_photon_state", 0)
    lookups = calls.get("detection.trial_distribution", 0)
    out["detection.chain_evals"] = chain
    out["detection.cache_hit_ratio"] = (1.0 - chain / lookups if lookups
                                        else 0.0)
    out["estimators.calls"] = calls.get("estimators", 0)
    out["estimators.self_ms"] = ns.get("estimators", 0) / 1e6
    out["estimators.errors"] = errors.get("estimators", 0)
    out["fitting.errors"] = errors.get("fitting", 0)
    out["calibrate.solver_self_ms"] = ns.get("calibrate.calibrate", 0) / 1e6
    return out


def is_count(name: str) -> bool:
    return per_layer_units()[name] in ("count", "ratio")


def check_passes(passes: list[Pass]) -> list[str]:
    problems = [p for op in passes[0].ops for p in op.problems]
    first = {op.name: op.outputs for op in passes[0].ops}
    for k, later in enumerate(passes[1:], start=2):
        problems += [p for op in later.ops for p in op.problems]
        for op in later.ops:
            if op.outputs != first.get(op.name):
                problems.append(
                    f"{op.name}: outputs of pass {k} differ from pass 1")
        if later.cache != passes[0].cache:
            problems.append(
                f"cache counts of pass {k} differ from pass 1 "
                f"({dict(later.cache)} vs {dict(passes[0].cache)})")
    return problems


def check_traced(traced: list[dict[str, float]]) -> list[str]:
    problems = []
    ratio = "detection.cache_hit_ratio"
    if traced[-1][ratio] != traced[0][ratio]:
        problems.append(f"{ratio}: last pass {traced[-1][ratio]!r} "
                        f"vs first pass {traced[0][ratio]!r}")
    counts = [name for name in traced[0] if is_count(name)]
    for k, later in enumerate(traced[1:], start=2):
        diff = [n for n in counts if later[n] != traced[0][n]]
        if diff:
            problems.append(f"traced pass {k} call counts differ: {diff}")
    return problems


def mode_seconds(p: Pass, mode: str) -> float:
    return sum((op.seconds for op in p.ops if op.mode == mode), 0.0)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def blas_threads() -> int | None:
    """Thread count numpy's OpenBLAS reports, when it can be asked."""
    import ctypes
    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment(seed: int, campaign_seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        rev = got.stdout.strip() or rev
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "git_revision": rev,
        "seed": seed,
        "campaign_seed": campaign_seed,
        "load_processes": 1,
    }


# ---------------------------------------------------------------------------


def run(args, work: Path) -> tuple[dict, list[str], list[str]]:
    bench = Bench(args.workload, args.seed, work)
    lines = []
    metrics: dict[str, tuple[float, str]] = {}

    if args.trace:
        half = args.seconds / 2.0
        plain = bench.passes(half, 1, None)
        tracer = Tracer()
        if args.workload != "cli":
            tracer.install()
        try:
            traced = bench.passes(half, 1, tracer)
        finally:
            tracer.restore()
        problems = check_passes(plain + traced)
        layers = [layer_metrics(p.counters) for p in traced]
        problems += check_traced(layers)
    else:
        setup = bench.measure_setup()
        plain = bench.passes(args.seconds, 2, None)
        traced = []
        problems = check_passes(plain)

    walls = [p.wall_s for p in plain]
    q1, wall, q3 = quartiles(walls)
    lines.append(f"wall_s median {wall:.6f} s  q1 {q1:.6f}  q3 {q3:.6f}  "
                 f"max {max(walls):.6f}  passes {len(walls)}")
    lines.append("pass wall_s " + " ".join(f"{w:.4f}" for w in walls))
    for mode in ("analytic", "mc"):
        values = [mode_seconds(p, mode) for p in plain]
        lines.append(f"{mode}_s median {statistics.median(values):.6f} s")
    peak = max(p.peak_rss_mb for p in plain)
    lines.append(f"peak_rss_mb {peak:.3f} MB")

    if args.trace:
        units = per_layer_units()
        for name in layers[0]:
            values = [m[name] for m in layers]
            value = values[0] if is_count(name) else statistics.median(values)
            metrics[name] = (value, units[name])
        for mode in ("analytic", "mc"):
            metrics[f"scenarios.{mode}_s"] = (
                statistics.median(mode_seconds(p, mode) for p in plain), "s")
        traced_wall = statistics.median(p.wall_s for p in traced)
        metrics["bench.trace_overhead_s"] = (traced_wall - wall, "s")
        lines.append(f"traced wall_s median {traced_wall:.6f} s  "
                     f"passes {len(traced)}")
    else:
        s1, s_med, s3 = quartiles(setup)
        lines.append(f"setup_s median {s_med:.6f} s  q1 {s1:.6f}  "
                     f"q3 {s3:.6f}  samples {len(setup)}")
        metrics["wall_s"] = (wall, "s")
        metrics["setup_s"] = (s_med, "s")
        metrics["peak_rss_mb"] = (peak, "MB")

    all_passes = plain + traced
    attempted = sum(len(p.ops) for p in all_passes)
    failed = sum(op.failed for p in all_passes for op in p.ops)
    lines.append(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}"
                 "  (FAIL or ERROR, non-zero exit, no convergence)")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value!r} {unit}")
    env = environment(args.seed, bench.seed)
    lines.append("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines, problems


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "memlink" / "__init__.py").is_file():
        print(f"error: no memlink package under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, lines, problems = run(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print("\n".join(lines))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
