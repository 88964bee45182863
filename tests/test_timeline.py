"""Checkpoint timing and its validation."""

import pytest

from memlink.timeline import TimelineError, TrialTimeline


class TestTimelineValidation:
    def test_analysis_delay_window(self):
        with pytest.raises(TimelineError):
            TrialTimeline(analysis_delay_s=6e-6)
        with pytest.raises(TimelineError):
            TrialTimeline(analysis_delay_s=-1e-9)
