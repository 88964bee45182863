"""Counting-statistics estimators: SNR, cross-correlation, correlators."""

import math

import numpy as np
import pytest

from memlink.config import ExperimentBundle
from memlink.detection import CountsTable, tally, trial_distributions
from memlink.estimators import (
    SNR_UNBOUNDED,
    EstimateWithError,
    EstimatorError,
    chsh,
    correlator,
    correlator_from_bins,
    fidelity,
    g2_wr,
    snr,
)


def table(trials=0, singles_a=0, singles_b=0, coincidences=0,
          bins=(0, 0, 0, 0), noise_windows=0, noise_counts=0):
    return CountsTable(
        outcome_counts=np.asarray(bins, dtype=np.int64), trials=trials,
        singles_a=singles_a, singles_b=singles_b, coincidences=coincidences,
        noise_windows=noise_windows, noise_counts=noise_counts)


class TestEstimateWithError:
    def test_compatible_uses_combined_sigma(self):
        est = EstimateWithError(1.0, 0.1)
        assert not est.compatible(1.15, 0.0, n_sigma=1.0)
        assert est.compatible(1.15, 0.0, n_sigma=2.0)
        assert est.compatible(1.15, 0.12, n_sigma=1.0)

    def test_unbounded_flag(self):
        assert SNR_UNBOUNDED.unbounded
        assert not EstimateWithError(3.0, 0.1).unbounded

    def test_str_formats(self):
        assert str(SNR_UNBOUNDED) == "unbounded"
        assert str(EstimateWithError(2.5, 0.25)) == "2.5 +/- 0.25"


class TestSnr:
    def test_equal_rates_give_unity(self):
        t = table(trials=1000, singles_b=50,
                  noise_windows=1000, noise_counts=50)
        est = snr(t)
        assert est.value == pytest.approx(1.0)

    def test_hand_value(self):
        t = table(trials=10_000, singles_b=400,
                  noise_windows=10_000, noise_counts=4)
        est = snr(t)
        np.testing.assert_allclose(est.value, 100.0, rtol=1e-12)
        np.testing.assert_allclose(est.sigma, 50.24937810560445, rtol=1e-12)

    def test_unequal_window_counts_normalized(self):
        t = table(trials=1000, singles_b=100,
                  noise_windows=4000, noise_counts=40)
        assert snr(t).value == pytest.approx(10.0)

    def test_zero_noise_is_unbounded(self):
        t = table(trials=1000, singles_b=10,
                  noise_windows=1000, noise_counts=0)
        assert snr(t) is SNR_UNBOUNDED

    def test_zero_signal_keeps_finite_error(self):
        t = table(trials=1000, singles_b=0,
                  noise_windows=1000, noise_counts=10)
        est = snr(t)
        assert est.value == 0.0
        assert est.sigma > 0.0

    def test_missing_noise_windows_rejected(self):
        with pytest.raises(EstimatorError):
            snr(table(trials=1000, singles_b=10))


class TestG2:
    def test_uncorrelated_counts_give_unity(self):
        n, n_w, n_r = 1_000_000, 2000, 5000
        n_wr = n_w * n_r // n
        est = g2_wr(table(trials=n, singles_a=n_r, singles_b=n_w,
                          coincidences=n_wr))
        assert est.value == pytest.approx(1.0)

    def test_hand_value_with_error(self):
        est = g2_wr(table(trials=100_000, singles_a=400, singles_b=500,
                          coincidences=40))
        np.testing.assert_allclose(est.value, 20.0, rtol=1e-12)
        want_sigma = 20.0 * math.sqrt(1 / 40 + 1 / 400 + 1 / 500)
        np.testing.assert_allclose(est.sigma, want_sigma, rtol=1e-12)

    def test_zero_singles_rejected(self):
        with pytest.raises(EstimatorError):
            g2_wr(table(trials=1000, singles_a=0, singles_b=10))

    def test_zero_coincidences_allowed(self):
        est = g2_wr(table(trials=1000, singles_a=10, singles_b=10,
                          coincidences=0))
        assert est.value == 0.0
        assert est.sigma > 0.0

    def test_noise_free_chain_is_strongly_nonclassical(self):
        # pair source at chi = 0.054: the write/read correlation sits
        # just below the uncorrelated-ladder value 1 + 1/chi
        ((probs,),) = trial_distributions(ExperimentBundle(), (None,),
                                          (0.0,), "source")
        t = tally(probs, 50_000_000)
        est = g2_wr(t)
        assert 17.0 < est.value < 20.0


class TestCorrelator:
    def test_perfect_correlation_has_zero_error(self):
        est = correlator_from_bins([500, 0, 0, 500])
        assert est.value == pytest.approx(1.0)
        assert est.sigma == pytest.approx(0.0)
        assert est.n_samples == 1000

    def test_balanced_bins_error(self):
        n = 10_000
        est = correlator_from_bins([n // 4] * 4)
        assert est.value == pytest.approx(0.0)
        np.testing.assert_allclose(est.sigma, 1.0 / math.sqrt(n), rtol=1e-12)

    def test_visibility_hand_value(self):
        est = correlator_from_bins([4750, 250, 250, 4750])
        np.testing.assert_allclose(est.value, 0.9, rtol=1e-12)
        np.testing.assert_allclose(est.sigma,
                                   math.sqrt(0.19 / 10_000), rtol=1e-12)

    def test_empty_bins_rejected(self):
        with pytest.raises(EstimatorError):
            correlator_from_bins([0, 0, 0, 0])

    def test_table_lookup_matches_bins(self):
        t = table(trials=100, singles_a=50, singles_b=50,
                  coincidences=20, bins=[8, 2, 2, 8])
        np.testing.assert_allclose(correlator(t).value, 0.6)

    def test_global_sign_flip_invariance(self):
        bins = [37, 11, 5, 47]
        both_flipped = [bins[3], bins[2], bins[1], bins[0]]
        est = correlator_from_bins(bins)
        flipped = correlator_from_bins(both_flipped)
        np.testing.assert_allclose(flipped.value, est.value, rtol=1e-12)

    def test_single_node_flip_negates(self):
        bins = [37, 11, 5, 47]
        one_flipped = [bins[1], bins[0], bins[3], bins[2]]
        est = correlator_from_bins(bins)
        flipped = correlator_from_bins(one_flipped)
        np.testing.assert_allclose(flipped.value, -est.value, rtol=1e-12)


class TestComposites:
    def perfect(self, value):
        return EstimateWithError(value, 0.0, n_samples=1000)

    def test_ideal_chsh(self):
        e = self.perfect(1.0 / math.sqrt(2.0))
        est = chsh(e, e, e, self.perfect(-1.0 / math.sqrt(2.0)))
        np.testing.assert_allclose(est.value, 2.0 * math.sqrt(2.0),
                                   rtol=1e-12)
        assert est.n_samples == 4000

    def test_ideal_fidelity(self):
        est = fidelity(self.perfect(1.0), self.perfect(-1.0),
                       self.perfect(1.0))
        np.testing.assert_allclose(est.value, 1.0, rtol=1e-12)

    def test_werner_scaling_hand_values(self):
        # every correlator of a Werner-damped pair scales by p
        p = 0.8667
        f = fidelity(self.perfect(p), self.perfect(-p), self.perfect(p))
        np.testing.assert_allclose(f.value, 0.9000250000000001, rtol=1e-12)
        e = self.perfect(p / math.sqrt(2.0))
        s = chsh(e, e, e, self.perfect(-p / math.sqrt(2.0)))
        np.testing.assert_allclose(s.value, 2.4513977890175234, rtol=1e-12)

    def test_error_propagation_quadrature(self):
        e = EstimateWithError(0.5, 0.01)
        s = chsh(e, e, e, e)
        np.testing.assert_allclose(s.sigma, 0.02, rtol=1e-12)
        f = fidelity(e, e, e)
        np.testing.assert_allclose(f.sigma, math.sqrt(3.0) * 0.01 / 4.0,
                                   rtol=1e-12)

    def test_chsh_takes_absolute_value(self):
        e = self.perfect(-1.0 / math.sqrt(2.0))
        s = chsh(e, e, e, self.perfect(1.0 / math.sqrt(2.0)))
        np.testing.assert_allclose(s.value, 2.0 * math.sqrt(2.0), rtol=1e-12)
