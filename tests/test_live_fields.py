"""Every config value reaches an output.

Each settable value of the calibrated bundle is changed once, and a
fingerprint built from public outputs must move by more than 1e-9
relative.  A value that moves nothing is accepted and then ignored, so
it must either leave the schema or sit on ``VALIDATION_ONLY`` with the
check it feeds.
"""

import dataclasses

import numpy as np

from memlink.calibrate import model_predictions
from memlink.config import CampaignConfig, calibrated_bundle
from memlink.detection import BasisSetting, tally, trial_distributions
from memlink.scenarios import _DISPATCH, _Streams

VALIDATION_ONLY = {
    "channel.refractive_index":
        "feeds only the latency-versus-flight-time check",
}
SECTIONS = ("source", "channel", "coherence", "geometry", "eit", "timeline")
DETECTORS = ("det_monitor", "det_a")
SETTINGS = (None, BasisSetting("Z", "Z"), BasisSetting("X", "X"))
DELAYS_S = (0.0, 300e-6)
SUMMARY_SCENARIOS = ("budget", "direct-fiber-compare")


def fingerprint(bundle):
    """Public outputs of one bundle as blocks of floats."""
    blocks = [np.array(sorted(model_predictions(bundle).items()))[:, 1]
              .astype(float)]
    policy = bundle.detection.double_click_policy
    for dists in trial_distributions(bundle, SETTINGS, DELAYS_S):
        for probs in dists:
            blocks.append(probs)
            blocks.append(tally(probs, 1, policy).outcome_counts)
    for scenario in SUMMARY_SCENARIOS:
        out = _DISPATCH[scenario](CampaignConfig(scenario=scenario), bundle,
                                  _Streams(None))
        for rows in out.tables.values():
            blocks.append(np.array([value for _, value, _, _ in rows]))
    return blocks


def moved(a, b):
    """Largest change of any block, relative to that block's size."""
    return max(np.abs(x - y).max() / max(np.abs(x).max(), 1e-300)
               for x, y in zip(a, b))


def candidates(value):
    """Replacement values to try, in order, until one validates."""
    if isinstance(value, bool):
        return [not value]
    if value is None:  # the optional lifetime overrides
        return [500e-6]
    if isinstance(value, str):
        return ["random" if value == "discard" else "discard"]
    if isinstance(value, int):
        return [value + 1]
    if value == 0.0:
        return [1e-4]
    return [value * f for f in (1.1, 0.9, 1.01, -1.0)]


def replaced(obj, name):
    """obj with field ``name`` changed to the first value that validates."""
    for value in candidates(getattr(obj, name)):
        try:
            return dataclasses.replace(obj, **{name: value})
        except ValueError:
            continue
    raise AssertionError(f"no valid replacement for {name}")


def perturbed_bundles(bundle):
    """(dotted field name, bundle with that one value changed)."""
    for section in SECTIONS:
        part = getattr(bundle, section)
        for f in dataclasses.fields(part):
            yield (f"{section}.{f.name}", dataclasses.replace(
                bundle, **{section: replaced(part, f.name)}))
    det = bundle.detection
    for node in DETECTORS:
        params = getattr(det, node)
        for f in dataclasses.fields(params):
            yield (f"detection.{node}.{f.name}", dataclasses.replace(
                bundle, detection=dataclasses.replace(
                    det, **{node: replaced(params, f.name)})))
    for f in dataclasses.fields(det):
        if f.name not in DETECTORS:
            yield (f"detection.{f.name}", dataclasses.replace(
                bundle, detection=replaced(det, f.name)))


def test_every_config_value_reaches_an_output():
    base = calibrated_bundle()
    reference = fingerprint(base)
    dead = {name for name, bundle in perturbed_bundles(base)
            if moved(reference, fingerprint(bundle)) <= 1e-9}
    assert dead == set(VALIDATION_ONLY)

