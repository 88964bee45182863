"""Separable least-squares fits for decay curves and damped oscillations.

Three model families cover every sweep in the campaigns:

    gaussian-decay      a * exp(-(t/tau)^2)
    exponential-decay   a * exp(-t/tau)
    damped-cosine       a * exp(-(t/tau)^2) * cos(2*pi*f*t + phi) + c

Every model is linear in its amplitude, phase and offset, written as
quadratures: a*e*cos(2*pi*f*t + phi) + c = e*(alpha*cos(2*pi*f*t) +
beta*sin(2*pi*f*t)) + c with envelope e, a = hypot(alpha, beta) and
phi = atan2(-beta, alpha).  So the fits use variable projection (Golub
& Pereyra, SIAM J. Numer. Anal. 10:413, 1973): MINPACK's
Levenberg-Marquardt solver lmder (More, LNM 630, 1978), called through
scipy's ``leastsq``, runs over the nonlinear parameters only
(u = log tau for a decay, u and f for a damped cosine), and every
residual evaluation solves the linear coefficients exactly by weighted
linear least squares on the columns [e cos, e sin, 1] or [e].  The
solver gets that residual's exact Jacobian, so it takes no
finite-difference steps.  tau = exp(u) needs no bound, and f comes back
as |f|: cos is even and sin odd, so the coefficients at |f| fit as
well.  The objective is that of the full model with every parameter
free.

Decays start from three tau seeds, oscillations from five seeds spread
around the FFT frequency estimate (this model family has local minima).
A start may spend 200 residual evaluations per nonlinear parameter; one
that runs out, or whose tau overflows, counts as not converged, and the
best converged start wins.  Floating-point errors raise inside the
residual only: ``leastsq`` also inverts R for a covariance the fits do
not read, and on a runaway tau that step may overflow in a start that
converged.  One-sigma errors come from the full model's
Jacobian at the optimum.  Time units are whatever the caller passes
in; the derived 1/e time comes back in the same units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_COST_TOL = 1e-10      # relative cost convergence tolerance
_FLAT_REL = 1e-12      # below this relative spread, data counts as constant
_NFEV_PER_PARAM = 200  # outer residual evaluations per nonlinear parameter

# least_squares' messages for MINPACK's failed exits: they reach a
# campaign's error line, so the text is kept
_LMDER_FAILURES = {
    0: "Improper input parameters status returned from `leastsq`",
    5: "The maximum number of function evaluations is exceeded.",
}


class FittingError(RuntimeError):
    """Raised when a fit cannot be run or did not converge."""


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters with per-parameter one-sigma errors.

    ``one_over_e_time`` is the time at which the fitted envelope drops
    to 1/e (infinite for constant data); it is
    derived directly from the tau parameter, so the two always agree.
    ``nfev`` counts the outer solver's residual evaluations, summed over
    starts; the Jacobian is exact, so none of them is a
    finite-difference step.
    """

    model: str
    params: dict[str, float] = field(default_factory=dict)
    sigmas: dict[str, float] = field(default_factory=dict)
    one_over_e_time: float = math.inf
    residual_norm: float = 0.0
    n_points: int = 0
    nfev: int = 0

    @property
    def frequency(self) -> float:
        return self.params.get("frequency", math.nan)


_PARAM_NAMES = {
    "gaussian-decay": ("amplitude", "tau"),
    "exponential-decay": ("amplitude", "tau"),
    "damped-cosine": ("amplitude", "tau", "frequency", "phase", "offset"),
}

# the parameters the outer solver sees, in its order
_NONLINEAR = {
    "gaussian-decay": ("tau",),
    "exponential-decay": ("tau",),
    "damped-cosine": ("tau", "frequency"),
}


def _envelope(model: str, t: np.ndarray, tau: float):
    """Envelope e(t; tau) and its derivative by log tau, tau de/dtau."""
    x = t / tau
    if model == "exponential-decay":
        e = np.exp(-x)
        return e, e * x
    e = np.exp(-(x ** 2))
    return e, e * 2.0 * x ** 2


def _columns(model: str, t: np.ndarray, theta):
    """Design matrix of the linear coefficients at nonlinear ``theta``,
    and its derivatives by log tau and f, stacked (len(theta), n, m)."""
    p = dict(zip(_NONLINEAR[model], theta))
    e, de = _envelope(model, t, p["tau"])
    if "frequency" not in p:
        return e[:, None], de[None, :, None]
    arg = 2.0 * math.pi * p["frequency"] * t
    cos, sin, zero = np.cos(arg), np.sin(arg), np.zeros_like(t)
    dfreq = 2.0 * math.pi * t * e
    stack = np.array([[e * cos, e * sin, np.ones_like(t)],
                      [de * cos, de * sin, zero],
                      [-dfreq * sin, dfreq * cos, zero]]).transpose(0, 2, 1)
    return stack[0], stack[1:]


def _full_jacobian(model: str, t: np.ndarray, p: dict) -> np.ndarray:
    """d(model)/d(parameter) for every parameter in ``_PARAM_NAMES`` order."""
    e, de = _envelope(model, t, p["tau"])
    a = p["amplitude"]
    arg = 2.0 * math.pi * p.get("frequency", 0.0) * t + p.get("phase", 0.0)
    cos, sin = np.cos(arg), np.sin(arg)
    cols = {"amplitude": e * cos, "tau": a * de / p["tau"] * cos,
            "frequency": -2.0 * math.pi * t * a * e * sin,
            "phase": -a * e * sin, "offset": np.ones_like(t)}
    return np.column_stack([cols[name] for name in _PARAM_NAMES[model]])


def _prepare(t, y, sigma):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise FittingError("t and y must be 1-d arrays of equal length")
    w = np.ones_like(y) if sigma is None else np.asarray(sigma, dtype=float)
    if w.shape != y.shape:
        raise FittingError("sigma must match the data shape")
    if not all(np.all(np.isfinite(v)) for v in (t, y, w)):
        raise FittingError("t, y and sigma must be finite")
    if np.any(w <= 0.0):
        raise FittingError("sigma values must be positive")
    order = np.argsort(t)
    return t[order], y[order], w[order]


def _run_starts(model, t, y, w, starts):
    # imported here so that campaigns without a fit never load the solver
    from scipy.optimize import leastsq

    names = _PARAM_NAMES[model]
    yw = y / w
    last: dict = {}

    def projected(x):
        """Residual A c - y at x = (log tau[, f]), c = A+ y, weighted, and
        its exact Jacobian: P(dA c) - (A+)^T dA^T r per variable, with P
        the projector off range(A)."""
        key = x.tobytes()
        if key not in last:
            if not np.all(np.isfinite(x)):  # MINPACK's own overflow
                raise FloatingPointError(f"solver stepped to {x}")
            last.clear()
            # a start whose tau overflows fails here, not in the caller
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                cols, dcols = _columns(model, t, (math.exp(x[0]), *x[1:]))
                cols, dcols = cols / w[:, None], dcols / w[:, None]
                u, s, vt = np.linalg.svd(cols, full_matrices=False)
                # lstsq's default cutoff
                keep = s > s[0] * np.finfo(float).eps * max(cols.shape)
                u, s, vt = u[:, keep], s[keep], vt[keep]
                uy = u.T @ yw
                r = u @ uy - yw
                dc = dcols @ (vt.T @ (uy / s))
                jac = dc - (dc @ u + ((r @ dcols) @ vt.T) / s) @ u.T
            last[key] = r, jac.T
        return last[key]

    best, nfev, diagnostics = None, 0, []
    for start in starts:
        x0 = np.array([math.log(start[0]), *start[1:]])
        try:
            # MINPACK's lmder with its own column scaling (diag=None),
            # the call least_squares(method="lm") makes, so the same
            # iterates.  leastsq also inverts R for a covariance that is
            # never read; on a runaway tau that overflows, so FP errors
            # raise in the residual only.
            with np.errstate(all="ignore"):
                x, _, info, _, ier = leastsq(
                    lambda x: projected(x)[0], x0,
                    Dfun=lambda x: projected(x)[1], full_output=True,
                    ftol=_COST_TOL, xtol=1e-14, gtol=1e-14,
                    maxfev=_NFEV_PER_PARAM * len(x0))
        except (ValueError, ArithmeticError) as exc:
            # ValueError includes numpy's LinAlgError
            diagnostics.append(f"start {start}: {exc}")
            continue
        nfev += info["nfev"]
        # ier 6-8 need a tolerance at machine epsilon, so cannot occur
        if ier not in (1, 2, 3, 4):
            diagnostics.append(f"start {start}: {_LMDER_FAILURES[ier]}")
            continue
        fvec = info["fvec"]
        cost = 0.5 * np.dot(fvec, fvec)
        if best is None or cost < best[2] * (1.0 - _COST_TOL):
            best = x, fvec, cost
    if best is None:
        raise FittingError(
            f"{model} fit did not converge from any start; "
            + "; ".join(diagnostics)
        )
    # cos is even and sin odd, so the coefficients at |f| fit as well
    x, fvec, cost = best
    theta = (math.exp(x[0]), *np.abs(x[1:]))
    p = dict(zip(_NONLINEAR[model], (float(v) for v in theta)))
    coef = np.linalg.lstsq(_columns(model, t, theta)[0] / w[:, None], yw,
                           rcond=None)[0]
    if len(coef) == 1:
        p["amplitude"] = float(coef[0])
    else:
        alpha, beta, offset = (float(v) for v in coef)
        p.update(amplitude=math.hypot(alpha, beta),
                 phase=math.atan2(-beta, alpha), offset=offset)
    jac = _full_jacobian(model, t, p) / w[:, None]
    dof = max(len(t) - len(names), 1)
    cov = np.linalg.pinv(jac.T @ jac) * (2.0 * cost / dof)
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    params = {name: p[name] for name in names}
    sigmas = dict(zip(names, (float(v) for v in sig)))
    return params, sigmas, float(np.linalg.norm(fvec)), nfev


def _constant_sentinel(model: str, y: np.ndarray, n: int) -> FitResult:
    """Flat data: no decay scale can be extracted, report it unbounded."""
    level = float(np.mean(y))
    params = {name: 0.0 for name in _PARAM_NAMES[model]}
    params["amplitude"] = level if "offset" not in params else 0.0
    if "offset" in params:
        params["offset"] = level
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
    starts = [np.array([x]) for x in (tau0, tau0 * 3.0, tau0 / 3.0)]
    params, sigmas, rnorm, nfev = _run_starts(model, t, y, w, starts)
    return FitResult(model=model, params=params, sigmas=sigmas,
                     one_over_e_time=params["tau"],
                     residual_norm=rnorm, n_points=len(t), nfev=nfev)


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


def fit_oscillation(t, y, sigma=None) -> FitResult:
    """Fit a damped cosine; frequency, phase and envelope time come back.

    The frequency is seeded from the FFT peak and the solver is started
    from five spread seeds, each with tau = span.  Inputs with fewer
    than 8 points or spanning less than one estimated period are
    rejected.
    """
    model = "damped-cosine"
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
    starts = [np.array([span, f0 * fac])
              for fac in (1.0, 0.8, 1.25, 0.5, 2.0)]
    params, sigmas, rnorm, nfev = _run_starts(model, t, y, w, starts)
    return FitResult(model=model, params=params, sigmas=sigmas,
                     one_over_e_time=params["tau"],
                     residual_norm=rnorm, n_points=len(t), nfev=nfev)
