"""Receiving-node photon memory.

The arriving time-bin qubit is converted to two spatial modes (an
interferometer sends the early bin one way and the late bin the other)
and each mode is absorbed into its own atomic ensemble behind a control
field.  Conversion is a relabeling isometry; storage and retrieval act
as independent per-mode losses.  The two ensembles have slightly
different overall efficiencies, and that asymmetry is deliberately kept:
it biases post-selected populations and is one of the real infidelity
sources of the link.

Storage intervals here are a few microseconds, far below any memory
timescale, so the stored state is treated as phase stable; a dephasing
hook exists for sensitivity studies and defaults to off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dualrail
from .qcore import DensityMatrix, apply_channel
from .source import AtomPhotonState, PHOTON_MODE1, PHOTON_MODE2, PHOTON_VACUUM

B_VACUUM = "vac"
B_MODE1 = "U"   # spatial mode fed by the early bin
B_MODE2 = "D"   # spatial mode fed by the late bin


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
        dephasing_rate_hz: optional exponential dephasing of the U/D
            coherence during storage, default off.
    """

    eta_up: float = 0.22
    eta_down: float = 0.25
    eta_map_in_fraction: float = 0.5
    readout_eta_b: float = 0.13
    dephasing_rate_hz: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta_up", "eta_down", "readout_eta_b"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise EITConfigError(f"{name} must be in (0, 1], got {v}")
        if not 0.0 <= self.eta_map_in_fraction <= 1.0:
            raise EITConfigError("eta_map_in_fraction must be in [0, 1]")
        if self.dephasing_rate_hz < 0.0:
            raise EITConfigError("dephasing_rate_hz must be non-negative")
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


def b_labels(cutoff: int) -> tuple[str, ...]:
    return dualrail.sector_labels(cutoff, B_VACUUM, B_MODE1, B_MODE2)


def _translate_label(label: str) -> str:
    table = str.maketrans({PHOTON_MODE1: B_MODE1, PHOTON_MODE2: B_MODE2})
    if label == PHOTON_VACUUM:
        return B_VACUUM
    return label.translate(table)


def timebin_to_spatial(s: AtomPhotonState) -> AtomPhotonState:
    """Convert the photonic factor from time bins to spatial modes.

    The interferometric conversion is a relabeling isometry: early goes
    up, late goes down, amplitudes untouched.  Joint labels of the form
    "atom,photon" keep their atomic half.
    """
    new_labels = []
    for lab in s.state.labels:
        head, sep, tail = lab.partition(",")
        if sep:
            new_labels.append(f"{head},{_translate_label(tail)}")
        else:
            new_labels.append(_translate_label(lab))
    return AtomPhotonState(state=s.state.relabeled(new_labels),
                           cutoff=s.cutoff, ladder_weight=s.ladder_weight)


def map_in(s: AtomPhotonState, p: EITParams) -> AtomPhotonState:
    """Absorb the two spatial modes into their ensembles (lossy)."""
    eta1, eta2 = p.map_in()
    atom_dim = dualrail.sector_dim(s.cutoff)
    ch = dualrail.loss_channel(s.cutoff, eta1, eta2, name="eit-in",
                               embed=(atom_dim, 1))
    return AtomPhotonState(state=apply_channel(s.state, ch), cutoff=s.cutoff,
                           ladder_weight=s.ladder_weight)


def map_out(s: AtomPhotonState, p: EITParams) -> AtomPhotonState:
    """Release the stored excitations back into photonic modes (lossy)."""
    eta1, eta2 = p.map_out()
    atom_dim = dualrail.sector_dim(s.cutoff)
    ch = dualrail.loss_channel(s.cutoff, eta1, eta2, name="eit-out",
                               embed=(atom_dim, 1))
    return AtomPhotonState(state=apply_channel(s.state, ch), cutoff=s.cutoff,
                           ladder_weight=s.ladder_weight)


def storage_dephasing(s: AtomPhotonState, p: EITParams,
                      delay_s: float) -> AtomPhotonState:
    """Optional U/D coherence decay while stored; identity by default."""
    if p.dephasing_rate_hz == 0.0 or delay_s == 0.0:
        return s
    factor = math.exp(-p.dephasing_rate_hz * delay_s)
    arg = -math.log(factor)
    atom_dim = dualrail.sector_dim(s.cutoff)
    env = np.kron(np.ones((atom_dim, atom_dim)),
                  np.exp(-np.abs(_dn_matrix(s.cutoff)) * arg))
    state = DensityMatrix(s.state.mat * env, s.state.labels, s.state.weight)
    return AtomPhotonState(state=state, cutoff=s.cutoff,
                           ladder_weight=s.ladder_weight)


def _dn_matrix(cutoff: int) -> np.ndarray:
    n2 = dualrail.mode2_count_vector(cutoff)
    return n2[:, None] - n2[None, :]


def survival_probability(s: AtomPhotonState) -> float:
    """Probability that the photonic factor holds at least one excitation."""
    atom_dim = dualrail.sector_dim(s.cutoff)
    photon_dim = dualrail.sector_dim(s.cutoff)
    pops = s.state.probabilities().reshape(atom_dim, photon_dim)
    occs = dualrail.occupations(s.cutoff)
    vac = [j for j, occ in enumerate(occs) if occ == (0, 0)]
    return float(1.0 - pops[:, vac].sum())


def store_and_readout(s: AtomPhotonState, p: EITParams, delay_s: float = 0.0,
                      rng: np.random.Generator | None = None
                      ) -> tuple[AtomPhotonState, float]:
    """Full storage round trip: map-in, hold, map-out.

    The losses are trace preserving (failed storage lands in vacuum,
    where it can still collect dark counts downstream), so the state
    keeps its branch weight; the returned number is the probability
    that the released light carries any excitation at all, which is
    what a retrieval-survival measurement counts.  The map itself is
    deterministic; ``rng`` is accepted for signature uniformity.
    """
    del rng
    if delay_s < 0.0:
        raise EITConfigError(f"storage delay must be non-negative, got {delay_s}")
    out = map_in(s, p)
    out = storage_dephasing(out, p, delay_s)
    out = map_out(out, p)
    return out, survival_probability(out)
