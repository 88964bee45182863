"""Receiving-node photon memory.

The arriving time-bin qubit is converted to two spatial modes (an
interferometer sends the early bin one way and the late bin the other)
and each mode is absorbed into its own atomic ensemble behind a control
field.  The conversion maps the early bin to the first spatial mode and
the late bin to the second with amplitudes untouched, so it is the
identity on the state's matrix and no function applies it.  Storage
and retrieval act as independent per-mode losses.  The two ensembles
have slightly different overall efficiencies, and that asymmetry is
deliberately kept: it biases post-selected populations and is one of
the real infidelity sources of the link.

Storage intervals here are a few microseconds, far below any memory
timescale, so the stored state is treated as phase stable: no
decoherence acts between map-in and map-out.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dualrail
from .qcore import apply_to_second
from .source import AtomPhotonState


class EITConfigError(ValueError):
    """Raised for inconsistent receiving-memory parameters."""


@dataclass(frozen=True)
class EITParams:
    """Efficiencies of the receiving memory.

    Attributes:
        eta_up: total storage efficiency (map-in times map-out) of the
            mode fed by the early bin.
        eta_down: same for the mode fed by the late bin.
        eta_map_in_fraction: fraction of each total efficiency exponent
            attributed to map-in; the remainder happens at map-out.
            Only the split is affected, the product stays eta.
        readout_eta_b: efficiency of the full readout chain at this
            node, counted from the stored excitation to a detector
            click; it therefore contains the map-out loss.
    """

    eta_up: float = 0.22
    eta_down: float = 0.25
    eta_map_in_fraction: float = 0.5
    readout_eta_b: float = 0.13

    def __post_init__(self) -> None:
        for name in ("eta_up", "eta_down", "readout_eta_b"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise EITConfigError(f"{name} must be in (0, 1], got {v}")
        if not 0.0 <= self.eta_map_in_fraction <= 1.0:
            raise EITConfigError("eta_map_in_fraction must be in [0, 1]")
        if self.readout_eta_b > self.mean_map_out():
            raise EITConfigError(
                f"readout_eta_b {self.readout_eta_b} exceeds the map-out "
                f"efficiency {self.mean_map_out():.4f} it must contain"
            )

    def map_in(self) -> tuple[float, float]:
        """Per-mode survival at storage time."""
        f = self.eta_map_in_fraction
        return self.eta_up ** f, self.eta_down ** f

    def map_out(self) -> tuple[float, float]:
        """Per-mode survival at retrieval time."""
        f = 1.0 - self.eta_map_in_fraction
        return self.eta_up ** f, self.eta_down ** f

    def mean_map_out(self) -> float:
        return 0.5 * sum(self.map_out())

    def detection_residual(self) -> float:
        """Post-map-out part of the readout chain.

        The quoted readout efficiency covers map-out plus the analyzer
        and detector; dividing out the mode-averaged map-out leaves the
        purely photonic chain efficiency applied at detection.
        """
        return self.readout_eta_b / self.mean_map_out()


def map_in(s: AtomPhotonState, p: EITParams) -> AtomPhotonState:
    """Absorb the two spatial modes into their ensembles (lossy)."""
    ch = dualrail.loss_channel(s.cutoff, *p.map_in())
    return AtomPhotonState(state=apply_to_second(s.state, ch), cutoff=s.cutoff)


def map_out(s: AtomPhotonState, p: EITParams) -> AtomPhotonState:
    """Release the stored excitations back into photonic modes (lossy)."""
    ch = dualrail.loss_channel(s.cutoff, *p.map_out())
    return AtomPhotonState(state=apply_to_second(s.state, ch), cutoff=s.cutoff)
