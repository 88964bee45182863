"""Duty-cycle parameters and their validation."""

import pytest

from memlink.timeline import TimelineError, TrialTimeline

MAINS_PERIOD_S = 0.02


class TestTimelineValidation:
    def test_defaults_fill_the_cycle(self):
        tl = TrialTimeline()
        assert 1.0 / tl.cycle_rate_hz == pytest.approx(0.1)
        assert tl.prep_s + tl.window_s == pytest.approx(0.1)

    def test_cycle_fill_mismatch_rejected(self):
        with pytest.raises(TimelineError):
            TrialTimeline(prep_s=0.09, window_s=0.003)

    def test_positive_rate_required(self):
        with pytest.raises(TimelineError):
            TrialTimeline(cycle_rate_hz=0.0)

    def test_attempts_lower_bound(self):
        with pytest.raises(TimelineError):
            TrialTimeline(attempts_per_window=0)

    def test_analysis_delay_window(self):
        with pytest.raises(TimelineError):
            TrialTimeline(analysis_delay_s=6e-6)
        with pytest.raises(TimelineError):
            TrialTimeline(analysis_delay_s=-1e-9)

    def test_attempt_pitch(self):
        tl = TrialTimeline()
        assert tl.window_s / tl.attempts_per_window == pytest.approx(0.003 / 25)
        assert tl.attempts_per_window * tl.cycle_rate_hz == pytest.approx(250.0)

    def test_cycle_is_integer_number_of_line_periods(self):
        tl = TrialTimeline()
        ratio = 1.0 / tl.cycle_rate_hz / MAINS_PERIOD_S
        assert ratio == pytest.approx(round(ratio))
