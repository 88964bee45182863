"""Timing of the checkpoint readouts.

The apparatus runs at 10 Hz: each 100 ms cycle spends 97 ms preparing
the ensembles and 3 ms running entanglement attempts, and a line
trigger keeps every run window at the same 50 Hz phase.  None of that
reaches an output: the mains triggering is
``CoherenceParams.mains_synced`` and the distribution delay is
``ChannelParams.latency_s``.  The one live timing value is
``analysis_delay_s``.
"""

from __future__ import annotations

from dataclasses import dataclass


class TimelineError(ValueError):
    """Raised for inconsistent timing settings."""


@dataclass(frozen=True)
class TrialTimeline:
    """``analysis_delay_s``: settling time of the receiving node's
    analysis before the checkpoint readouts."""

    analysis_delay_s: float = 5e-6

    def __post_init__(self) -> None:
        if self.analysis_delay_s < 0.0 or self.analysis_delay_s > 5e-6:
            raise TimelineError("analysis_delay_s must be within [0, 5 us]")
