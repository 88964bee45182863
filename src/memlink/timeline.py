"""Duty-cycle parameters of the experiment.

The apparatus runs at 10 Hz: each 100 ms cycle spends 97 ms preparing
the ensembles and 3 ms running entanglement attempts.  Because one
cycle is an exact multiple of the 20 ms line period, a sequence started
on a line trigger keeps every run window at the same 50 Hz phase.

Campaigns read only ``analysis_delay_s``, the settling time of the
receiving node's analysis before the checkpoint readouts.  The other
fields are validated only: the cycle structure reaches no output, the
distribution delay is ``ChannelParams.latency_s`` and the mains
triggering is ``CoherenceParams.mains_synced``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class TimelineError(ValueError):
    """Raised for inconsistent duty-cycle settings."""


@dataclass(frozen=True)
class TrialTimeline:
    """Cycle structure and per-attempt delays.

    ``attempts_per_window`` is a chosen default (the attempt rate inside
    the 3 ms window is not a published number).  The cycle and attempt
    fields, ``distribution_delay_s`` and ``mains_synced`` are validated
    only; no campaign output reads them.
    """

    cycle_rate_hz: float = 10.0
    prep_s: float = 0.097
    window_s: float = 0.003
    attempts_per_window: int = 25
    distribution_delay_s: float = 103e-6
    analysis_delay_s: float = 5e-6
    mains_synced: bool = True

    def __post_init__(self) -> None:
        if self.cycle_rate_hz <= 0.0:
            raise TimelineError("cycle_rate_hz must be positive")
        if self.prep_s < 0.0 or self.window_s <= 0.0:
            raise TimelineError("prep_s and window_s must be positive")
        period = 1.0 / self.cycle_rate_hz
        if not math.isclose(self.prep_s + self.window_s, period,
                            rel_tol=1e-9, abs_tol=1e-12):
            raise TimelineError(
                f"prep {self.prep_s} s + window {self.window_s} s does not "
                f"fill the {period} s cycle"
            )
        if self.attempts_per_window < 1:
            raise TimelineError("attempts_per_window must be at least 1")
        if self.analysis_delay_s < 0.0 or self.analysis_delay_s > 5e-6:
            raise TimelineError("analysis_delay_s must be within [0, 5 us]")
        if self.distribution_delay_s < 0.0:
            raise TimelineError("distribution_delay_s must be non-negative")
