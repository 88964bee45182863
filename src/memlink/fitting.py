"""Weighted nonlinear fits for decay curves and damped oscillations.

Four model families cover every sweep in the campaigns:

    gaussian-decay      a * exp(-(t/tau)^2)
    exponential-decay   a * exp(-t/tau)
    damped-cosine       a * exp(-(t/tau)^2) * cos(2*pi*f*t + phi) + c
    sinusoid            a * cos(2*pi*f*t + phi) + c

Fits are weighted least squares (scipy's trust-region reflective
solver).  The damped-cosine model is started from five seeds spread
around the FFT frequency estimate to avoid the local minima this model
family is known for; the best converged start wins.  Time units are
whatever the caller passes in; the derived 1/e time comes back in the
same units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MODELS = ("gaussian-decay", "exponential-decay", "damped-cosine", "sinusoid")

_COST_TOL = 1e-10      # relative cost convergence tolerance
_FLAT_REL = 1e-12      # below this relative spread, data counts as constant


class FittingError(RuntimeError):
    """Raised when a fit cannot be run or did not converge."""


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters with per-parameter one-sigma errors.

    ``one_over_e_time`` is the time at which the fitted envelope drops
    to 1/e (infinite for an undamped sinusoid or constant data); it is
    derived directly from the tau parameter, so the two always agree.
    """

    model: str
    params: dict[str, float] = field(default_factory=dict)
    sigmas: dict[str, float] = field(default_factory=dict)
    one_over_e_time: float = math.inf
    residual_norm: float = 0.0
    n_points: int = 0

    @property
    def frequency(self) -> float:
        return self.params.get("frequency", math.nan)


def _evaluate(model: str, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    if model == "gaussian-decay":
        a, tau = x
        return a * np.exp(-((t / tau) ** 2))
    if model == "exponential-decay":
        a, tau = x
        return a * np.exp(-t / tau)
    if model == "damped-cosine":
        a, tau, f, phi, c = x
        return a * np.exp(-((t / tau) ** 2)) * np.cos(
            2.0 * math.pi * f * t + phi) + c
    if model == "sinusoid":
        a, f, phi, c = x
        return a * np.cos(2.0 * math.pi * f * t + phi) + c
    raise FittingError(f"unknown model {model!r}; choose from {MODELS}")


_PARAM_NAMES = {
    "gaussian-decay": ("amplitude", "tau"),
    "exponential-decay": ("amplitude", "tau"),
    "damped-cosine": ("amplitude", "tau", "frequency", "phase", "offset"),
    "sinusoid": ("amplitude", "frequency", "phase", "offset"),
}


def _prepare(t, y, sigma):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise FittingError("t and y must be 1-d arrays of equal length")
    if sigma is None:
        w = np.ones_like(y)
    else:
        w = np.asarray(sigma, dtype=float)
        if w.shape != y.shape:
            raise FittingError("sigma must match the data shape")
        if np.any(w <= 0.0):
            raise FittingError("sigma values must be positive")
    order = np.argsort(t)
    return t[order], y[order], w[order]


def _run_starts(model, t, y, w, starts, bounds):
    # imported here so that campaigns without a fit never load the solver
    from scipy.optimize import least_squares

    names = _PARAM_NAMES[model]
    best = None
    diagnostics = []

    def residuals(x):
        return (_evaluate(model, t, x) - y) / w

    for x0 in starts:
        try:
            res = least_squares(residuals, x0, bounds=bounds,
                                ftol=_COST_TOL, xtol=1e-14, gtol=1e-14,
                                max_nfev=20000)
        except ValueError as exc:
            diagnostics.append(f"start {x0}: {exc}")
            continue
        if not res.success:
            diagnostics.append(f"start {x0}: {res.message}")
            continue
        if best is None or res.cost < best.cost * (1.0 - _COST_TOL):
            best = res
    if best is None:
        raise FittingError(
            f"{model} fit did not converge from any start; "
            + "; ".join(diagnostics)
        )
    dof = max(len(t) - len(names), 1)
    jt_j = best.jac.T @ best.jac
    scale = 2.0 * best.cost / dof
    cov = np.linalg.pinv(jt_j) * scale
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    params = dict(zip(names, (float(v) for v in best.x)))
    sigmas = dict(zip(names, (float(v) for v in sig)))
    return params, sigmas, float(np.linalg.norm(best.fun))


def _constant_sentinel(model: str, y: np.ndarray, n: int) -> FitResult:
    """Flat data: no decay scale can be extracted, report it unbounded."""
    level = float(np.mean(y))
    params = {name: 0.0 for name in _PARAM_NAMES[model]}
    params["amplitude"] = level if "offset" not in params else 0.0
    if "offset" in params:
        params["offset"] = level
    if "tau" in params:
        params["tau"] = math.inf
    return FitResult(model=model, params=params,
                     sigmas={name: math.inf for name in _PARAM_NAMES[model]},
                     one_over_e_time=math.inf,
                     residual_norm=float(np.std(y) * math.sqrt(n)),
                     n_points=n)


def fit_decay(t, y, model: str = "gaussian-decay", sigma=None) -> FitResult:
    """Fit a decay curve; returns the 1/e time in the units of t."""
    if model not in ("gaussian-decay", "exponential-decay"):
        raise FittingError(f"fit_decay supports decay models, not {model!r}")
    t, y, w = _prepare(t, y, sigma)
    if len(t) < 4:
        raise FittingError("decay fits need at least 4 points")
    scale = float(np.max(np.abs(y)))
    if scale == 0.0 or float(np.ptp(y)) < _FLAT_REL * max(scale, 1.0):
        return _constant_sentinel(model, y, len(t))

    a0 = float(y[0]) if abs(y[0]) > 0.1 * scale else scale
    below = np.nonzero(np.abs(y) < abs(a0) / math.e)[0]
    span = float(t[-1] - t[0]) or 1.0
    tau0 = float(t[below[0]]) if below.size and t[below[0]] > 0 else span / 2.0
    starts = [np.array([a0, tau0]),
              np.array([a0, tau0 * 3.0]),
              np.array([a0, tau0 / 3.0])]
    bounds = (np.array([-np.inf, 1e-300]), np.array([np.inf, np.inf]))
    params, sigmas, rnorm = _run_starts(model, t, y, w, starts, bounds)
    return FitResult(model=model, params=params, sigmas=sigmas,
                     one_over_e_time=params["tau"],
                     residual_norm=rnorm, n_points=len(t))


def _fft_frequency(t: np.ndarray, y: np.ndarray) -> float:
    """Dominant nonzero frequency on the mean sample spacing."""
    dt = float(np.mean(np.diff(t)))
    detrended = y - np.mean(y)
    spectrum = np.abs(np.fft.rfft(detrended))
    freqs = np.fft.rfftfreq(len(t), d=dt)
    if len(spectrum) < 2:
        return 0.0
    peak = 1 + int(np.argmax(spectrum[1:]))
    return float(freqs[peak])


def fit_oscillation(t, y, sigma=None, model: str = "damped-cosine"
                    ) -> FitResult:
    """Fit an oscillation; frequency, phase and envelope time come back.

    The frequency is seeded from the FFT peak and the solver is started
    from five spread seeds.  Inputs with fewer than 8 points or
    spanning less than one estimated period are rejected.
    """
    if model not in ("damped-cosine", "sinusoid"):
        raise FittingError(
            f"fit_oscillation supports oscillating models, not {model!r}")
    t, y, w = _prepare(t, y, sigma)
    if len(t) < 8:
        raise FittingError("oscillation fits need at least 8 points")
    scale = float(np.max(np.abs(y)))
    if scale == 0.0 or float(np.ptp(y)) < _FLAT_REL * max(scale, 1.0):
        return _constant_sentinel(model, y, len(t))
    span = float(t[-1] - t[0])
    f0 = _fft_frequency(t, y)
    if f0 <= 0.0 or span * f0 < 1.0:
        raise FittingError(
            f"under-sampled oscillation: span {span:g} covers "
            f"{span * max(f0, 0.0):.2f} periods of the {f0:g} estimate"
        )
    a0 = float(np.ptp(y)) / 2.0
    c0 = float(np.mean(y))
    starts = []
    for fac in (1.0, 0.8, 1.25, 0.5, 2.0):
        f_try = f0 * fac
        # quadrature projection gives a phase seed per frequency seed
        zc = y - c0
        cs = float(np.sum(zc * np.cos(2.0 * math.pi * f_try * t)))
        sn = float(np.sum(zc * np.sin(2.0 * math.pi * f_try * t)))
        phi0 = math.atan2(-sn, cs)
        if model == "damped-cosine":
            starts.append(np.array([a0, span, f_try, phi0, c0]))
        else:
            starts.append(np.array([a0, f_try, phi0, c0]))
    if model == "damped-cosine":
        lo = np.array([0.0, 1e-300, 0.0, -2.0 * math.pi, -np.inf])
        hi = np.array([np.inf, np.inf, np.inf, 2.0 * math.pi, np.inf])
    else:
        lo = np.array([0.0, 0.0, -2.0 * math.pi, -np.inf])
        hi = np.array([np.inf, np.inf, 2.0 * math.pi, np.inf])
    params, sigmas, rnorm = _run_starts(model, t, y, w, starts, (lo, hi))
    tau = params.get("tau", math.inf)
    return FitResult(model=model, params=params, sigmas=sigmas,
                     one_over_e_time=tau, residual_norm=rnorm,
                     n_points=len(t))


def fit_mains(t, b_field, sigma=None) -> FitResult:
    """Sinusoid fit of a line-noise magnetometry trace (times in s).

    Needs at least two 50 Hz periods of data.  Flat traces return a
    zero-amplitude result instead of failing.
    """
    t_arr = np.asarray(t, dtype=float)
    if t_arr.size and float(np.ptp(t_arr)) < 2.0 / 50.0:
        raise FittingError("mains fits need at least two 50 Hz periods")
    t_arr, y, w = _prepare(t, b_field, sigma)
    if len(t_arr) < 8:
        raise FittingError("mains fits need at least 8 points")
    scale = float(np.max(np.abs(y)))
    if float(np.ptp(y)) < _FLAT_REL * max(scale, 1.0):
        res = _constant_sentinel("sinusoid", y, len(t_arr))
        params = dict(res.params)
        params["frequency"] = 50.0
        return FitResult(model="sinusoid", params=params, sigmas=res.sigmas,
                         one_over_e_time=math.inf,
                         residual_norm=res.residual_norm,
                         n_points=len(t_arr))
    a0 = float(np.ptp(y)) / 2.0
    c0 = float(np.mean(y))
    starts = [np.array([a0, 50.0, phi, c0])
              for phi in (0.0, math.pi / 2, math.pi, -math.pi / 2, 0.3)]
    lo = np.array([0.0, 1.0, -2.0 * math.pi, -np.inf])
    hi = np.array([np.inf, 1000.0, 2.0 * math.pi, np.inf])
    params, sigmas, rnorm = _run_starts("sinusoid", t_arr, y, w, starts,
                                        (lo, hi))
    return FitResult(model="sinusoid", params=params, sigmas=sigmas,
                     one_over_e_time=math.inf, residual_norm=rnorm,
                     n_points=len(t_arr))
