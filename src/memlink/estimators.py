"""Figures of merit with one-standard-deviation counting errors.

Every quantity the campaigns report passes through here: signal-to-noise
of the write photon, the write/read cross-correlation, post-selected
two-node correlators, and the CHSH and fidelity combinations built from
them.  Error bars follow photon-counting statistics: Poisson for
singles-based rates, multinomial for correlators, quadrature for
derived sums.

The estimators read a CountsTable or plain outcome bins.  A campaign's
tallies are sampled counts in ``mc`` mode and exact expected counts
(floats) in ``analytic`` mode (``detection.tally``), and every reported
value and sigma comes from here in both, so the two modes share one
code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import CountsTable


class EstimatorError(ValueError):
    """Raised when a requested estimate has no data to stand on."""


@dataclass(frozen=True)
class EstimateWithError:
    """A value with its one-sigma counting uncertainty."""

    value: float
    sigma: float
    n_samples: int = 0

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.value)

    def compatible(self, target: float, target_sigma: float = 0.0,
                   n_sigma: float = 1.0) -> bool:
        """True when |value - target| <= n_sigma combined deviations."""
        combined = math.hypot(self.sigma, target_sigma)
        return abs(self.value - target) <= n_sigma * combined

    def __str__(self) -> str:
        if self.unbounded:
            return "unbounded"
        return f"{self.value:.6g} +/- {self.sigma:.6g}"


#: Distinguished result for a noise-free SNR measurement.
SNR_UNBOUNDED = EstimateWithError(value=math.inf, sigma=math.inf)


def snr(t: CountsTable) -> EstimateWithError:
    """Signal-to-noise ratio of the far-detector clicks.

    Signal windows are the table's source-on trials, noise windows its
    source-off windows.  Both are click rates, so unequal window counts
    are handled.
    """
    n_sig = t.singles_b
    w_sig = t.trials
    if w_sig <= 0 or t.noise_windows <= 0:
        raise EstimatorError("snr needs both signal and noise windows")
    if t.noise_counts == 0:
        return SNR_UNBOUNDED
    value = (n_sig / w_sig) / (t.noise_counts / t.noise_windows)
    if n_sig == 0:
        return EstimateWithError(0.0, (1.0 / w_sig)
                                 / (t.noise_counts / t.noise_windows),
                                 n_samples=int(w_sig))
    sigma = value * math.sqrt(1.0 / n_sig + 1.0 / t.noise_counts)
    return EstimateWithError(value, sigma, n_samples=int(w_sig))


def g2_wr(t: CountsTable) -> EstimateWithError:
    """Write/read cross-correlation from singles and coincidences.

    g2 = P(coincidence) / (P(write click) P(read click)), with the
    relative Poisson errors of the three counts added in quadrature.
    """
    n = t.trials
    n_w = t.singles_b
    n_r = t.singles_a
    n_wr = t.coincidences
    if n_w <= 0 or n_r <= 0:
        raise EstimatorError("zero singles, g2 undefined")
    value = n_wr * n / (n_w * n_r)
    if n_wr == 0:
        return EstimateWithError(0.0, n / (n_w * n_r), n_samples=int(n))
    sigma = value * math.sqrt(1.0 / n_wr + 1.0 / n_w + 1.0 / n_r)
    return EstimateWithError(value, sigma, n_samples=int(n))


def retrieval(t: CountsTable) -> EstimateWithError:
    """Coincidences per node-B single, the heralded retrieval efficiency.

    The error is binomial with the rate shrunk to (k + 1) / (n + 2), so
    a point with no coincidences keeps an honest uncertainty instead of
    a vanishing one; with no singles the rate is 0 +/- 1.
    """
    n_b = t.singles_b
    if n_b == 0:
        return EstimateWithError(0.0, 1.0, n_samples=0)
    k = t.coincidences
    p_t = (k + 1.0) / (n_b + 2.0)
    return EstimateWithError(k / n_b, math.sqrt(p_t * (1.0 - p_t) / n_b),
                             n_samples=int(round(n_b)))


def correlator_from_bins(bins: np.ndarray) -> EstimateWithError:
    """Signed correlator from outcome bins ordered [++, +-, -+, --]."""
    bins = np.asarray(bins, dtype=float)
    total = bins.sum()
    if total <= 0:
        raise EstimatorError("empty outcome bins")
    value = (bins[0] + bins[3] - bins[1] - bins[2]) / total
    sigma = math.sqrt(max(1.0 - value * value, 0.0) / total)
    return EstimateWithError(value, sigma, n_samples=int(round(total)))


def correlator(t: CountsTable) -> EstimateWithError:
    """Post-selected correlator of the table's outcome bins."""
    return correlator_from_bins(t.outcome_counts)


def chsh(c00: EstimateWithError, c01: EstimateWithError,
         c10: EstimateWithError, c11: EstimateWithError
         ) -> EstimateWithError:
    """CHSH S = |E00 + E01 + E10 - E11| with quadrature errors."""
    value = abs(c00.value + c01.value + c10.value - c11.value)
    sigma = math.sqrt(c00.sigma ** 2 + c01.sigma ** 2
                      + c10.sigma ** 2 + c11.sigma ** 2)
    n = c00.n_samples + c01.n_samples + c10.n_samples + c11.n_samples
    return EstimateWithError(value, sigma, n_samples=n)


def fidelity(xx: EstimateWithError, yy: EstimateWithError,
             zz: EstimateWithError) -> EstimateWithError:
    """Bell-state fidelity (1 + <XX> - <YY> + <ZZ>) / 4."""
    value = (1.0 + xx.value - yy.value + zz.value) / 4.0
    sigma = math.sqrt(xx.sigma ** 2 + yy.sigma ** 2 + zz.sigma ** 2) / 4.0
    n = xx.n_samples + yy.n_samples + zz.n_samples
    return EstimateWithError(value, sigma, n_samples=n)


def envelope(x: EstimateWithError, y: EstimateWithError
             ) -> EstimateWithError:
    """Length of the quadrature pair (x, y) with its propagated error."""
    value = math.hypot(x.value, y.value)
    if value > 0:
        sigma = math.sqrt((x.value * x.sigma) ** 2
                          + (y.value * y.sigma) ** 2) / value
    else:
        sigma = math.hypot(x.sigma, y.sigma)
    return EstimateWithError(value, sigma,
                             n_samples=x.n_samples + y.n_samples)
