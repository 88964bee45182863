"""Per-layer spans around calls into memlink's public functions.

Nothing in ``src/`` is instrumented.  ``Tracer.install`` swaps each
traced function for a timing wrapper at every place it is looked up:
every ``memlink`` module attribute that is bound to the original (so
names imported with ``from .detection import trial_distribution`` are
patched where ``scenarios`` and ``calibrate`` read them) plus
``qcore.KrausChannel.__init__`` on the class.  ``Tracer.restore`` puts
every original back; untraced passes must run only after it.

Spans are not kept one by one.  Each wrapper adds its call count and
its self time (its duration minus the time of traced calls made inside
it) to counters keyed by layer name.  An exception that escapes a layer
group (fitting, estimators) into a caller outside that group counts
once as an error of the group.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns

# (layer name, error group, module, attribute).  Several functions may
# share one layer name; their counts and times add up.
TARGETS = (
    ("source.atom_photon_state", "source", "source", "atom_photon_state"),
    ("channel.photon_loss_joint", "channel", "channel", "photon_loss_joint"),
    ("channel.transmit", "channel", "channel", "transmit"),
    ("memory_b.timebin_to_spatial", "memory_b", "memory_b",
     "timebin_to_spatial"),
    ("memory_b.map_in", "memory_b", "memory_b", "map_in"),
    ("memory_b.map_out", "memory_b", "memory_b", "map_out"),
    ("qcore.apply_channel", "qcore", "qcore", "apply_channel"),
    ("memory_a.decohere", "memory_a", "memory_a", "decohere"),
    ("dualrail.loss_channel", "dualrail", "dualrail", "loss_channel"),
    ("dualrail.detection_povm", "dualrail", "dualrail", "detection_povm"),
    ("detection.trial_distribution", "detection", "detection",
     "trial_distribution"),
    ("detection.sample_counts", "detection", "detection", "sample_counts"),
    ("detection.analytic_counts", "detection", "detection",
     "analytic_counts"),
    ("detection.expected_probs", "detection", "detection",
     "expected_click_probs"),
    ("detection.expected_probs", "detection", "detection",
     "expected_outcome_probs"),
    ("fitting.fit_decay", "fitting", "fitting", "fit_decay"),
    ("fitting.fit_oscillation", "fitting", "fitting", "fit_oscillation"),
    ("estimators", "estimators", "estimators", "snr"),
    ("estimators", "estimators", "estimators", "g2_wr"),
    ("estimators", "estimators", "estimators", "correlator_from_bins"),
    ("estimators", "estimators", "estimators", "correlator"),
    ("estimators", "estimators", "estimators", "chsh"),
    ("estimators", "estimators", "estimators", "fidelity"),
    ("calibrate.model_predictions", "calibrate", "calibrate",
     "model_predictions"),
    ("calibrate.calibrate", "calibrate", "calibrate", "calibrate"),
    ("scenarios.run_experiment", "scenarios", "scenarios", "run_experiment"),
    ("cli.main", "cli", "cli", "main"),
)
KRAUS_LAYER = "qcore.KrausChannel"


def memlink_modules() -> list:
    """Every loaded memlink module, package first."""
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "memlink" or name.startswith("memlink.")]


class Tracer:
    """Call counts, self times and error counts per traced layer."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[list] = []      # [group, child_ns] per open span
        self._patched: list[tuple] = []   # (owner, attribute, original)

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.errors.clear()

    def _wrap(self, layer: str, group: str, fn):
        stack = self._stack
        calls, self_ns, errors = self.calls, self.self_ns, self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            span = [group, 0]
            stack.append(span)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if caller != group:
                    errors[group] += 1
                raise
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                calls[layer] += 1
                self_ns[layer] += elapsed - span[1]
                if stack:
                    stack[-1][1] += elapsed
        return traced

    def install(self) -> None:
        import memlink  # noqa: F401  (loads every submodule)
        from memlink import qcore

        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = memlink_modules()
        by_name = {mod.__name__: mod for mod in modules}
        wrappers = {}
        for layer, group, module, attr in TARGETS:
            fn = getattr(by_name.get(f"memlink.{module}"), attr, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(layer, group, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        init = qcore.KrausChannel.__init__
        self._patched.append((qcore.KrausChannel, "__init__", init))
        qcore.KrausChannel.__init__ = self._wrap(KRAUS_LAYER, "qcore", init)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "errors": dict(self.errors)}
