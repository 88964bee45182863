"""Fit the free noise parameters to the measured figures of merit.

Everything physical in the default bundle is a measured value; what no
log book provides are the dark and background click probabilities and
the strength of the higher-order source amplitude.  This module fits
those five knobs so the analytic forward model reproduces the measured
write/read correlation at the three checkpoints plus the CHSH and
fidelity values, weighting each residual by the published uncertainty.

The fitted values are frozen into config.py as the CAL_* constants and
switched in by ``calibrated_bundle``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from . import estimators
from .config import NOISE_PARAMS, ConfigError, ExperimentBundle, with_noise
from .detection import (BasisSetting, expected_click_probs,
                        expected_outcome_probs, trial_distribution)
from .estimators import EstimateWithError
from .scenarios import (CHSH_SETTINGS, CHSH_TARGET, CORR_SETTINGS,
                        FIDELITY_TARGET, G2_TARGETS, bell_delay_s)
from . import channel as link

FREE_PARAMS = tuple(name for name, *_ in NOISE_PARAMS)

_BOUNDS = {
    "double_amp_scale": (0.0, 1.4),
    "dark_monitor": (0.0, 2e-2),
    "background_rate": (0.0, 2e-1),
    # The node A noise floor is capped below the other channels: it dilutes
    # every stage equally, so an unconstrained fit dumps all of the source
    # noise budget here and zeroes the monitor floor, which would make the
    # source-stage signal-to-noise ratio unbounded.
    "dark_a": (0.0, 6e-4),
    "dark_b": (0.0, 5e-3),
}

_X0 = {
    "double_amp_scale": 1.0,
    "dark_monitor": 5e-4,
    "background_rate": 1e-5,
    "dark_a": 3e-4,
    "dark_b": 1e-5,
}

DEFAULT_TARGETS = {
    "g2_source": G2_TARGETS[0],
    "g2_transferred": G2_TARGETS[1],
    "g2_stored": G2_TARGETS[2],
    "chsh": CHSH_TARGET,
    "fidelity": FIDELITY_TARGET,
}


@dataclass
class CalibrationResult:
    params: dict[str, float]
    bundle: ExperimentBundle
    predictions: dict[str, float]
    targets: dict[str, tuple[float, float]]
    residuals: dict[str, float] = field(default_factory=dict)
    cost: float = 0.0
    converged: bool = True
    message: str = ""


def bundle_with(params: dict[str, float]) -> ExperimentBundle:
    """Default bundle with the named free parameters switched in."""
    return with_noise(ExperimentBundle(), params)


def model_predictions(bundle: ExperimentBundle) -> dict[str, float]:
    """Exact forward model of every calibration target."""
    tl = bundle.timeline
    stage_delays = (
        ("source", tl.analysis_delay_s),
        ("transferred", link.latency(bundle.channel) + tl.analysis_delay_s),
        ("stored", bell_delay_s(bundle)),
    )
    out = {}
    for stage, delay in stage_delays:
        clicks = expected_click_probs(
            trial_distribution(bundle, None, delay, stage))
        out[f"g2_{stage}"] = clicks["ab"] / (clicks["a"] * clicks["b"])

    delay = bell_delay_s(bundle)
    corr = {}
    for a, b in CHSH_SETTINGS + CORR_SETTINGS:
        setting = BasisSetting(a, b)
        bins = expected_outcome_probs(
            trial_distribution(bundle, setting, delay, "stored"),
            bundle.detection.double_click_policy)
        corr[setting.key] = float(
            estimators.correlator_from_bins(bins).value)

    def _e(key):
        return EstimateWithError(corr[key], 0.0)

    out["chsh"] = estimators.chsh(_e("A0,B0"), _e("A0,B1"),
                                  _e("A1,B0"), _e("A1,B1")).value
    out["fidelity"] = estimators.fidelity(_e("X,X"), _e("Y,Y"),
                                          _e("Z,Z")).value
    return out


def load_targets(path: str) -> dict[str, tuple[float, float]]:
    """Read a target table: {name: {value, sigma}} in YAML."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read targets file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed targets file {path}: {exc}") from exc
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("targets file must map names to value/sigma")
    targets = {}
    for name, entry in raw.items():
        if name not in DEFAULT_TARGETS:
            raise ConfigError(
                f"unknown target {name!r}; choose from "
                f"{sorted(DEFAULT_TARGETS)}")
        if (not isinstance(entry, dict) or "value" not in entry
                or "sigma" not in entry):
            raise ConfigError(f"target {name!r} needs value and sigma")
        sigma = float(entry["sigma"])
        if sigma <= 0:
            raise ConfigError(f"target {name!r} needs a positive sigma")
        targets[name] = (float(entry["value"]), sigma)
    return targets


def calibrate(targets: dict[str, tuple[float, float]] | None = None,
              free_params: tuple[str, ...] | None = None
              ) -> CalibrationResult:
    """Least-squares fit of the free parameters to the targets.

    With no free parameters the defaults pass straight through.  A fit
    that stops without formal convergence still reports its best-so-far
    bundle, flagged in ``converged`` and ``message``.
    """
    targets = dict(targets or DEFAULT_TARGETS)
    free = tuple(free_params if free_params is not None else FREE_PARAMS)
    unknown = set(free) - set(FREE_PARAMS)
    if unknown:
        raise ConfigError(f"unknown free parameters: {sorted(unknown)}")

    names = sorted(targets)

    def residual_vec(x: np.ndarray) -> np.ndarray:
        params = dict(zip(free, x))
        preds = model_predictions(bundle_with(params))
        return np.array([(preds[n] - targets[n][0]) / targets[n][1]
                         for n in names])

    if not free:
        bundle = bundle_with({})
        preds = model_predictions(bundle)
        res = {n: (preds[n] - targets[n][0]) / targets[n][1] for n in names}
        return CalibrationResult(params={}, bundle=bundle, predictions=preds,
                                 targets=targets, residuals=res,
                                 cost=0.5 * sum(v * v for v in res.values()),
                                 converged=True,
                                 message="no free parameters")

    # imported here so that loading the package never loads the solver
    from scipy.optimize import least_squares

    x0 = np.array([_X0[name] for name in free])
    lo = np.array([_BOUNDS[name][0] for name in free])
    hi = np.array([_BOUNDS[name][1] for name in free])
    fit = least_squares(residual_vec, x0, bounds=(lo, hi), method="trf",
                        ftol=1e-12, xtol=1e-12, gtol=1e-12,
                        diff_step=1e-4, max_nfev=400)
    params = {name: float(v) for name, v in zip(free, fit.x)}
    bundle = bundle_with(params)
    preds = model_predictions(bundle)
    residuals = {n: (preds[n] - targets[n][0]) / targets[n][1]
                 for n in names}
    return CalibrationResult(
        params=params, bundle=bundle, predictions=preds, targets=targets,
        residuals=residuals, cost=float(fit.cost),
        converged=bool(fit.success),
        message=str(fit.message))


def report_lines(result: CalibrationResult) -> list[str]:
    """Human-readable calibration report."""
    lines = ["calibration report", ""]
    lines.append("fitted parameters:")
    if not result.params:
        lines.append("  (none; defaults passed through)")
    for name in sorted(result.params):
        lines.append(f"  {name} = {result.params[name]:.6g}")
    lines.append("")
    lines.append("targets:")
    for name in sorted(result.targets):
        value, sigma = result.targets[name]
        pred = result.predictions[name]
        res = result.residuals[name]
        lines.append(
            f"  {name}: model {pred:.6g} vs {value:.6g} +/- {sigma:.6g} "
            f"({res:+.2f} sigma)")
    lines.append("")
    lines.append(f"half sum of squared residuals: {result.cost:.6g}")
    status = "converged" if result.converged else "NOT converged"
    lines.append(f"solver: {status} ({result.message})")
    if not result.converged:
        lines.append("best-so-far parameters reported above")
    return lines
