"""Fit the free noise parameters to the measured figures of merit.

Everything physical in the default bundle is a measured value; what no
log book provides are the dark and background click probabilities and
the strength of the higher-order source amplitude.  This module fits
those five knobs so the analytic forward model reproduces the measured
write/read correlation at the three checkpoints plus the CHSH and
fidelity values, weighting each residual by the published uncertainty.

Each knob enters one linear stage of the chain at low degree, so the
pattern probabilities are an exact polynomial in the five.  Its
coefficients (``detection.trial_polynomials``) are built once per fit,
with the five set to 0, for the bare basis at each checkpoint and the
seven CHSH and correlator settings at the stored one.  A pass at a
point (``_model_pass``) is one product per stage of them with the
features at the point and their derivatives (``trial_features``), and
writes g2, the
correlators, S and F each once, with their exact derivatives; the
solver's residual and Jacobian share it through a memo of the last
point.  The result reports each free constant's one-sigma uncertainty
and their correlations from (J^T J)^-1 of the weighted residuals; a
constant the fit leaves on a bound is reported as such, with no sigma.
Targets, from a file or a dict, are checked alike (``_checked``).

The fitted values are frozen into config.py as the CAL_* constants and
switched in by ``calibrated_bundle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import yaml

from .config import NOISE_PARAMS, ConfigError, ExperimentBundle, with_noise
from .detection import (BINS, CLICKS, PATTERNS, STAGES, TALLY, BasisSetting,
                        trial_features, trial_polynomials)
from .scenarios import (CHSH_SETTINGS, CHSH_TARGET, CORR_SETTINGS,
                        FIDELITY_TARGET, G2_TARGETS, stage_delays)

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
    # one-sigma uncertainty of each fitted constant not on a bound, and
    # the correlation of each pair of them, from (J^T J)^-1
    sigmas: dict[str, float] = field(default_factory=dict)
    correlations: dict[tuple[str, str], float] = field(default_factory=dict)
    # "lower" or "upper" for each constant the fit left on that bound
    at_bound: dict[str, str] = field(default_factory=dict)
    nfev: int = 0
    njev: int = 0


def bundle_with(params: dict[str, float]) -> ExperimentBundle:
    """Default bundle with the named free parameters switched in."""
    return with_noise(ExperimentBundle(), params)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, each a value followed by its gradient."""
    value = num[0] / den[0]
    return np.concatenate(([value], (num[1:] - value * den[1:]) / den[0]))


@lru_cache(maxsize=4)
def _noise_polynomial(base: ExperimentBundle) -> tuple:
    """Per stage, the read-only (K, S * 16) ``trial_polynomials`` of a
    noise-free bundle: the bare basis at each checkpoint, then the CHSH
    and correlator settings at the stored one."""
    settings = (None,) + tuple(BasisSetting(*pair)
                               for pair in CHSH_SETTINGS + CORR_SETTINGS)
    return tuple(c.reshape(len(c), -1) for c in trial_polynomials(base, [
        (settings if stage == "stored" else settings[:1], t)
        for stage, t in stage_delays(base)]))


def _model_pass(bundle: ExperimentBundle, polys: tuple | None = None
                ) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Every calibration target and its exact derivative by each
    FREE_PARAMS constant, in FREE_PARAMS order: per stage, one product
    of the noise-free bundle's polynomial ``polys`` (looked up when not
    given) with its features."""
    if polys is None:
        polys = _noise_polynomial(
            with_noise(bundle, dict.fromkeys(FREE_PARAMS, 0.0)))
    # rows: the bare basis at each stage, then the stored settings, each
    # its probabilities and then their derivatives, as every tally below
    tallies = np.concatenate([
        (feats @ poly).reshape(1 + len(FREE_PARAMS), -1,
                               len(PATTERNS)).swapaxes(0, 1)
        for feats, poly in zip(trial_features(bundle), polys)
    ]) @ TALLY.T

    out = {}
    for stage, tally in zip(STAGES, tallies):
        a, b, ab = tally[:, CLICKS].T
        out[f"g2_{stage}"] = _ratio(_ratio(ab, a), b)
    # E = (b0 - b1 - b2 + b3) / sum(b) over the signed outcome bins
    bins = tallies[3:, :, BINS[bundle.detection.double_click_policy]]
    e = {pair: _ratio(pair_bins @ np.array([1.0, -1.0, -1.0, 1.0]),
                      pair_bins.sum(axis=1))
         for pair, pair_bins in zip(CHSH_SETTINGS + CORR_SETTINGS, bins)}
    chsh_sum = (e["A0", "B0"] + e["A0", "B1"] + e["A1", "B0"]
                - e["A1", "B1"])
    out["chsh"] = np.sign(chsh_sum[0]) * chsh_sum
    one = np.eye(1 + len(FREE_PARAMS))[0]
    out["fidelity"] = (one + e["X", "X"] - e["Y", "Y"] + e["Z", "Z"]) / 4.0
    return ({name: float(v[0]) for name, v in out.items()},
            {name: v[1:] for name, v in out.items()})


def model_predictions(bundle: ExperimentBundle) -> dict[str, float]:
    """Exact forward model of every calibration target."""
    return _model_pass(bundle)[0]


def load_targets(path: str) -> dict[str, tuple[float, float]]:
    """Read a target table: {name: {value, sigma}} in YAML."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read targets file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed targets file {path}: {exc}") from exc
    return _checked(raw)


def _checked(targets) -> dict[str, tuple[float, float]]:
    """Targets as {name: (value, sigma)} floats, each entry a (value,
    sigma) tuple or a {value, sigma} mapping, or a ConfigError: at least
    one target, each a known name with a finite value and sigma > 0."""
    if not isinstance(targets, dict) or not targets:
        raise ConfigError("targets must map names to value/sigma")
    out = {}
    for name, pair in targets.items():
        if name not in DEFAULT_TARGETS:
            raise ConfigError(
                f"unknown target {name!r}; choose from "
                f"{sorted(DEFAULT_TARGETS)}")
        if isinstance(pair, dict) and pair.keys() >= {"value", "sigma"}:
            pair = (pair["value"], pair["sigma"])
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise ConfigError(f"target {name!r} needs value and sigma")
        value, sigma = (_finite(name, key, raw)
                        for key, raw in zip(("value", "sigma"), pair))
        if sigma <= 0:
            raise ConfigError(f"target {name!r} needs a positive sigma")
        out[name] = (value, sigma)
    return out


def _finite(name: str, key: str, raw) -> float:
    """raw as a finite float, or a ConfigError naming the target."""
    try:
        number = float(raw)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(
            f"target {name!r} needs a finite number as {key}, got {raw!r}")
    return number


def _weighted_problem(targets: dict[str, tuple[float, float]],
                      free: tuple[str, ...]) -> tuple:
    """The weighted residual vector over the sorted target names, and
    its exact Jacobian, as functions of the free constants' values."""
    names = sorted(targets)
    centre = np.array([targets[n][0] for n in names])
    sigma = np.array([targets[n][1] for n in names])
    columns = [FREE_PARAMS.index(name) for name in free]
    # every point is the default bundle at other noise values, so all
    # of them share this noise-free key
    polys = _noise_polynomial(bundle_with(dict.fromkeys(FREE_PARAMS, 0.0)))
    # the solver asks for each Jacobian at the x of its last residual,
    # so one model pass serves both
    last: dict = {}

    def model_pass(x: np.ndarray) -> tuple:
        key = x.tobytes()
        if key not in last:
            last.clear()
            last[key] = _model_pass(bundle_with(dict(zip(free, x))), polys)
        return last[key]

    def residuals(x: np.ndarray) -> np.ndarray:
        preds, _ = model_pass(x)
        return (np.array([preds[n] for n in names]) - centre) / sigma

    def jacobian(x: np.ndarray) -> np.ndarray:
        _, grads = model_pass(x)
        return (np.array([grads[n][columns] for n in names])
                / sigma[:, None])

    return residuals, jacobian


def _uncertainties(jac: np.ndarray, names: list[str]) -> tuple[dict, dict]:
    """One-sigma uncertainties and pairwise correlations of the named
    constants from (J^T J)^-1 of the weighted residual Jacobian."""
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return {name: math.inf for name in names}, {}
    sigma = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sigma, sigma)
    return ({name: float(v) for name, v in zip(names, sigma)},
            {tuple(sorted((names[i], names[j]))): float(corr[i, j])
             for i in range(len(names)) for j in range(i + 1, len(names))})


def calibrate(targets: dict[str, tuple[float, float]] | None = None,
              free_params: tuple[str, ...] | None = None
              ) -> CalibrationResult:
    """Least-squares fit of the free parameters to the targets.

    With no free parameters the defaults pass straight through.  A fit
    that stops without formal convergence still reports its best-so-far
    bundle, flagged in ``converged`` and ``message``.
    """
    targets = _checked(DEFAULT_TARGETS if targets is None else targets)
    free = tuple(free_params if free_params is not None else FREE_PARAMS)
    unknown = set(free) - set(FREE_PARAMS)
    if unknown:
        raise ConfigError(f"unknown free parameters: {sorted(unknown)}")
    if len(set(free)) < len(free):
        raise ConfigError(f"repeated free parameters: {list(free)}")

    names = sorted(targets)
    fit = None
    if free:
        # imported here so that loading the package never loads the solver
        from scipy.optimize import least_squares

        residual_vec, jacobian = _weighted_problem(targets, free)
        fit = least_squares(
            residual_vec, np.array([_X0[name] for name in free]),
            jac=jacobian, bounds=([_BOUNDS[name][0] for name in free],
                                  [_BOUNDS[name][1] for name in free]),
            method="trf", ftol=1e-12, xtol=1e-12, gtol=1e-12, max_nfev=400)
    params = {name: float(v) for name, v in zip(free, fit.x)} if fit else {}
    bundle = bundle_with(params)
    preds = model_predictions(bundle)
    residuals = {n: (preds[n] - targets[n][0]) / targets[n][1]
                 for n in names}
    if fit is None:
        return CalibrationResult(
            params={}, bundle=bundle, predictions=preds, targets=targets,
            residuals=residuals,
            cost=0.5 * sum(v * v for v in residuals.values()),
            message="no free parameters")
    at_bound = {name: "lower" if side < 0 else "upper"
                for name, side in zip(free, fit.active_mask) if side}
    inside = [i for i, name in enumerate(free) if name not in at_bound]
    sigmas, correlations = _uncertainties(fit.jac[:, inside],
                                          [free[i] for i in inside])
    return CalibrationResult(
        params=params, bundle=bundle, predictions=preds, targets=targets,
        residuals=residuals, cost=float(fit.cost),
        converged=bool(fit.success),
        message=str(fit.message), sigmas=sigmas,
        correlations=correlations, at_bound=at_bound,
        nfev=int(fit.nfev), njev=int(fit.njev))


def report_lines(result: CalibrationResult) -> list[str]:
    """Human-readable calibration report."""
    lines = ["calibration report", ""]
    lines.append("fitted parameters:")
    if not result.params:
        lines.append("  (none; defaults passed through)")
    for name in sorted(result.params):
        line = f"  {name} = {result.params[name]:.6g}"
        if name in result.at_bound:
            line += f" (at {result.at_bound[name]} bound)"
        elif name in result.sigmas:
            line += f" +/- {result.sigmas[name]:.2g}"
        lines.append(line)
    if result.correlations:
        lines.append("")
        lines.append("correlations:")
        for (first, second), value in sorted(result.correlations.items()):
            lines.append(f"  {first} / {second}: {value:+.3f}")
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
    lines.append(f"solver evaluations: {result.nfev} residual, "
                 f"{result.njev} Jacobian")
    if not result.converged:
        lines.append("best-so-far parameters reported above")
    return lines
