"""Measurement settings, pattern distributions and coincidence counts.

This module glues the physics stages into click statistics.  Both
readout chains are POVMs, so one trial reduces to a draw from a
16-outcome distribution over the click patterns (plus / minus / both /
none at each node), and the probability of pattern (i, j) factors as

    p_ij(t) = Tr[E_i^A(t) sigma_j],   sigma_j = Tr_B[(1 x E_j^B) rho]

``trial_distributions`` builds it for a whole vector of delays in
stages, each behind its own cache:

  * prefix (``_prefix_state``): the delay-independent joint state rho
    at the checkpoint -- source ket and collection loss ("source"),
    then the converted link ("transferred"), then the receiving
    memory's map-in and map-out ("stored").  Each map acts on its own
    factor of the joint state.  Keyed on the source, channel and EIT
    parameters the checkpoint reads (None for the others), so bundles
    that differ only in detectors or storage share it, and each
    checkpoint extends the cached state of the one before;
  * node B (``_conditional_states``): sigma_j, the emitting node's
    (4, d, d) stack of unnormalized states per receiving-node outcome,
    keyed on the prefix and node B's POVM;
  * node A (``_stored_readout``): storage and readout at the emitting
    node in the Heisenberg picture (``memory_a.decohere``), keyed on
    the coherence, geometry, node-A efficiency and delay vector, so
    every setting, dark rate and bundle that reads it shares it.  Node
    A's POVM stack pulled back through it is E^A(t), split into the
    parts that meet the state's coherences with mode-2 occupation gap
    dn = 0, 1, 2;
  * contraction: one matrix product of the E^A(t) stack with sigma
    gives every delay's pattern probabilities at once.

Each node's POVM is a polynomial of degree <= 2 in its dark rate
(``dualrail.threshold_povm``).  Its rotated coefficients
(``_povm_polynomial``) are keyed on cutoff, basis, Z sign and
efficiency, around a basis rotation keyed on the first three, so a
dark-rate step neither rebuilds nor re-rotates them: the POVM stack at
a dark rate (``_povm_stack``) and its slope (``_povm_slope``) are
evaluated from them.  The finished distributions are cached per
(bundle, setting, delay vector, stage).  Every cache is a module-level
lru_cache of finite size: bounded, so a long delay sweep cannot grow
memory; private, so the public stage functions stay plain functions
that a caller may wrap or patch without hiding a ``cache_clear``; and
at module level, so clearing the lru_caches found in the module
globals is a true cold start.  Cached arrays are read-only.

``trial_tangents`` gives the exact derivatives of one distribution by
the noise values ``calibrate`` fits.  Every prefix map is linear in the
state, so the derivatives by the source's double-excitation scale and
by the link's background rate ride through the same stages
(``_prefix_slopes``).  The slope of a POVM by its dark rate comes from
the same coefficients as the POVM, so it is exact and cheap; at node A
it is pulled back like the POVM itself.

Campaigns exploit the reduction: a batch of attempts is one
multinomial draw over the 16 patterns, or its exact expectation, and
``tally`` gives either (an rng draws, no rng expects); ``tally_noise``
adds the source-off windows the same way.  A sweep builds its
distributions in one call and still draws delay by delay.  An unsynced
mains phase enters each pattern probability as a three-term Fourier
series in the per-trial phase phi (the random phase enters as
exp(-i*phi*dn)), which the draw averages exactly.  Pattern vectors,
sampled or expected, become singles, coincidences and signed outcome
bins through one fixed table, ``TALLY``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import channel as link
from . import dualrail, memory_a, memory_b, source
from .qcore import PAULI

PATTERN_NAMES = ("plus", "minus", "both", "none")
PATTERNS = tuple((a, b) for a in PATTERN_NAMES for b in PATTERN_NAMES)
_ALLOWED_A = ("Z", "X", "Y", "A0", "A1")
_ALLOWED_B = ("Z", "X", "Y", "B0", "B1")

class DetectionConfigError(ValueError):
    """Raised for invalid measurement configuration."""


@dataclass(frozen=True)
class DetectorParams:
    """One node's threshold-detector pair.

    Attributes:
        eta_det: chain efficiency folded into the click probability.
        dark_rate: dark-count probability per detector per window.
    """

    eta_det: float = 1.0
    dark_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta_det <= 1.0:
            raise DetectionConfigError(
                f"eta_det must be in [0, 1], got {self.eta_det}"
            )
        if not 0.0 <= self.dark_rate < 1.0:
            raise DetectionConfigError(
                f"dark_rate must be in [0, 1), got {self.dark_rate}"
            )


@dataclass(frozen=True)
class DetectionConfig:
    """Detector set and measurement conventions for both nodes.

    The sign conventions deserve a note.  ``z_b_up_sign_corr`` fixes
    which receiving-node mode counts as +1 for the plain Z/X/Y
    correlators used in the fidelity formula (the U mode, fed by the
    early bin, is +1 by default, matching the emitting node where the
    mode paired with the early bin is +1).  ``z_b_up_sign_chsh`` fixes
    the Z that enters the B0/B1 combinations (-Z+X)/sqrt(2) and
    (-Z-X)/sqrt(2); the default -1 puts the shared target state at the
    Tsirelson point.  Both are explicit because the two published
    conventions are inconsistent under any single labeling.

    Node B has only a dark rate, ``dark_b``: its detection efficiency is
    the bundle's EIT readout chain after map-out
    (``EITParams.detection_residual``).
    """

    det_monitor: DetectorParams = DetectorParams()
    det_a: DetectorParams = DetectorParams(eta_det=0.15)
    dark_b: float = 0.0
    double_click_policy: str = "discard"
    z_b_up_sign_chsh: float = -1.0
    z_b_up_sign_corr: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.dark_b < 1.0:
            raise DetectionConfigError(
                f"dark_b must be in [0, 1), got {self.dark_b}"
            )
        if self.double_click_policy not in ("discard", "random"):
            raise DetectionConfigError(
                f"unknown double-click policy {self.double_click_policy!r}"
            )
        for name in ("z_b_up_sign_chsh", "z_b_up_sign_corr"):
            if getattr(self, name) not in (-1.0, 1.0):
                raise DetectionConfigError(f"{name} must be +1 or -1")


@dataclass(frozen=True)
class BasisSetting:
    """Measurement-basis pair, by observable name."""

    node_a: str = "Z"
    node_b: str = "Z"

    def __post_init__(self) -> None:
        if self.node_a not in _ALLOWED_A:
            raise DetectionConfigError(
                f"node_a basis {self.node_a!r} not in {_ALLOWED_A}"
            )
        if self.node_b not in _ALLOWED_B:
            raise DetectionConfigError(
                f"node_b basis {self.node_b!r} not in {_ALLOWED_B}"
            )

    @property
    def key(self) -> str:
        return f"{self.node_a},{self.node_b}"


def _z_sign_b(name: str | None, cfg: DetectionConfig) -> float:
    """Sign of the receiving node's Z inside the named observable."""
    if name in ("B0", "B1"):
        return cfg.z_b_up_sign_chsh
    return cfg.z_b_up_sign_corr


def _node_matrix(name: str, z_sign: float) -> np.ndarray:
    """2x2 matrix of one node's basis name, its Z scaled by z_sign."""
    z = z_sign * PAULI["Z"]
    if name in ("B0", "B1"):
        sign_x = 1.0 if name == "B0" else -1.0
        return (-z + sign_x * PAULI["X"]) / math.sqrt(2.0)
    name = {"A0": "Z", "A1": "X"}.get(name, name)
    return z if name == "Z" else PAULI[name]


def _plus_minus_basis(mat: np.ndarray) -> np.ndarray:
    """Columns: +1 eigenvector then -1 eigenvector of a dichotomic obs."""
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(vals)[::-1]
    return vecs[:, order]


@dataclass
class CountsTable:
    """Coincidence and singles bookkeeping of one batch of attempts.

    ``outcome_counts`` holds the signed coincidences in the order
    [++, +-, -+, --], node A's sign first.  A sampled table holds
    integer counts; an expected table (``tally`` without an rng) holds
    the exact expected counts as floats.
    """

    outcome_counts: np.ndarray
    trials: int
    singles_a: float
    singles_b: float
    coincidences: float
    noise_windows: int = 0
    noise_counts: float = 0


# ---------------------------------------------------------------------------
# staged chain engine -> pattern distribution


def _prefix_key(bundle, stage: str) -> tuple:
    """(source, channel, eit, stage), None where the stage reads nothing."""
    if stage == "source":
        return (bundle.source, None, None, stage)
    if stage == "transferred":
        return (bundle.source, bundle.channel, None, stage)
    if stage == "stored":
        return (bundle.source, bundle.channel, bundle.eit, stage)
    raise DetectionConfigError(f"unknown stage {stage!r}")


@lru_cache(maxsize=16)
def _prefix_state(src, channel, eit, stage: str) -> source.AtomPhotonState:
    """Delay-independent joint state at the checkpoint (see module doc)."""
    if stage == "source":
        s = link.photon_loss_joint(source.atom_photon_state(src),
                                   src.collection)
    elif stage == "transferred":
        s = _prefix_state(src, None, None, "source")
        s = link.transmit(s, channel)
    else:
        s = _prefix_state(src, channel, None, "transferred")
        s = memory_b.map_out(memory_b.map_in(s, eit), eit)
    s.state.setflags(write=False)
    return s


@lru_cache(maxsize=32)
def _conditional_states(prefix: tuple, name: str | None, z_sign: float,
                        eta: float, dark: float) -> np.ndarray:
    """Node A's unnormalized states per node-B outcome, sigma_j =
    Tr_B[(1 x E_j) rho_prefix] with E_j node B's POVM, as a read-only
    (4, d*d) stack of the row-flattened transposes sigma_j.T."""
    s = _prefix_state(*prefix)
    d = dualrail.sector_dim(s.cutoff)
    povm = _povm_stack(s.cutoff, name, z_sign, eta, dark)
    out = np.einsum("xbyc,jcb->jyx", s.state.reshape(d, d, d, d),
                    povm).reshape(len(povm), -1)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=4)
def _stored_readout(cutoff: int, eta: float, coherence, geometry,
                    delays: tuple) -> memory_a.StoredReadout:
    """Node A's storage and readout over a delay vector, read-only;
    shared by every setting, dark rate and bundle that reads it."""
    readout = memory_a.decohere(cutoff, delays, eta, coherence, geometry)
    for arr in (readout.pulled, readout.parts, readout.swing):
        arr.setflags(write=False)
    return readout


@lru_cache(maxsize=16)
def _rotation(cutoff: int, name: str, z_sign: float) -> np.ndarray:
    """Read-only sector unitary into the +1 / -1 eigenmodes of one
    node's named basis; a dark rate or efficiency step reuses it."""
    # State amplitudes in the detector basis are <eigenmode|psi>, i.e.
    # the mode map is the adjoint of the eigenvector matrix.
    basis = _plus_minus_basis(_node_matrix(name, z_sign))
    rot = dualrail.mode_rotation(cutoff, basis.conj().T)
    rot.setflags(write=False)
    return rot


@lru_cache(maxsize=16)
def _povm_polynomial(cutoff: int, name: str | None, z_sign: float,
                     eta: float) -> np.ndarray:
    """One node's detector-pair POVM as a read-only (3, 4, d, d) P in
    PATTERN_NAMES order, the POVM being P[0] + P[1] dark + P[2] dark^2;
    name None measures the bare mode basis.  No dark rate changes P, so
    every dark-rate step reuses it."""
    rot = None if name is None else _rotation(cutoff, name, z_sign)
    elements = dualrail.threshold_povm(cutoff, rot, eta)
    poly = np.stack([elements[n] for n in PATTERN_NAMES], axis=1)
    poly.setflags(write=False)
    return poly


def _povm_stack(cutoff: int, name: str | None, z_sign: float, eta: float,
                dark: float) -> np.ndarray:
    """The POVM at one dark rate as a (4, d, d) stack."""
    if not 0.0 <= dark < 1.0:
        raise ValueError(f"dark-count probability {dark} outside [0, 1)")
    poly = _povm_polynomial(cutoff, name, z_sign, eta)
    return poly[0] + poly[1] * dark + poly[2] * (dark * dark)


def _povm_slope(cutoff: int, name: str | None, z_sign: float, eta: float,
                dark: float) -> np.ndarray:
    """d _povm_stack / d dark, stacked alike."""
    poly = _povm_polynomial(cutoff, name, z_sign, eta)
    return poly[1] + 2.0 * dark * poly[2]


@dataclass(frozen=True)
class TrialDistribution:
    """Pattern probabilities of one attempt as a Fourier series.

    ``base`` holds the 16 pattern probabilities with no mains phase;
    ``fourier`` holds the dn = 1, 2 coefficients such that the
    probability vector at mains phase phi is

        base + 2 * sum_dn Re(exp(-i*phi*dn) * fourier[dn-1])

    For a synced campaign the deterministic phase is already folded in
    and ``swing`` is zero; for an unsynced campaign ``swing`` is the
    amplitude of the per-trial random phase phi = swing * sin(uniform).
    """

    base: np.ndarray
    fourier: tuple[np.ndarray, ...]
    swing: float

    def mean_probabilities(self) -> np.ndarray:
        """Exact trial-averaged probabilities (mains phase averaged)."""
        out = self.base.copy()
        if self.fourier:
            for weight, coeff in zip(_part_weights(self.swing)[1:],
                                     self.fourier):
                out += weight * np.real(coeff)
        return np.clip(out, 0.0, None)


def _part_weights(swing: float) -> tuple[float, ...]:
    """Weights of the parts dn = 0, 1, 2 in the phase-averaged pattern
    probabilities: 1, then 2 J0(dn * swing)."""
    if swing == 0.0:
        return (1.0, 2.0, 2.0)
    # imported here: only an unsynced mains phase needs j0, and
    # scipy.special outweighs the rest of a campaign's start-up
    from scipy.special import j0
    return (1.0,) + tuple(2.0 * float(j0(k * swing)) for k in (1, 2))


def _node_b_key(bundle, name_b: str | None, stage: str) -> tuple:
    """(prefix key, basis, Z sign, efficiency, dark rate) of node B's
    readout: the monitor's detectors at the source checkpoint, the EIT
    readout chain after map-out at the others."""
    det = bundle.detection
    if stage == "source":
        eta_b, dark_b = det.det_monitor.eta_det, det.det_monitor.dark_rate
    else:
        eta_b, dark_b = bundle.eit.detection_residual(), det.dark_b
    return (_prefix_key(bundle, stage), name_b, _z_sign_b(name_b, det),
            eta_b, dark_b)


def trial_distributions(bundle, setting: BasisSetting | None, delays,
                        stage: str = "stored"
                        ) -> tuple[TrialDistribution, ...]:
    """Pattern distribution of one attempt at each delay; cached on the
    bundle, the setting and the whole delay vector."""
    key = None if setting is None else (setting.node_a, setting.node_b)
    return _distributions_cached(bundle, key,
                                 tuple(float(t) for t in delays), stage)


def trial_distribution(bundle, setting: BasisSetting | None,
                       delay_s: float, stage: str = "stored"
                       ) -> TrialDistribution:
    """Pattern distribution of one attempt at one delay."""
    return trial_distributions(bundle, setting, (delay_s,), stage)[0]


@lru_cache(maxsize=256)
def _distributions_cached(bundle, setting_key, delays: tuple,
                          stage: str) -> tuple[TrialDistribution, ...]:
    det = bundle.detection
    cutoff = bundle.source.fock_cutoff
    name_a, name_b = setting_key or (None, None)
    states = _conditional_states(*_node_b_key(bundle, name_b, stage))
    readout = _stored_readout(cutoff, det.det_a.eta_det, bundle.coherence,
                              bundle.geometry, delays)
    effects = readout.effects(
        _povm_stack(cutoff, name_a, 1.0, 1.0, det.det_a.dark_rate))

    # coeffs[t, k, 4a + b] = Tr(E_a(t, k) sigma_b): one matrix product
    # over every delay, part and node-A effect
    coeffs = (effects @ states.T).reshape(len(delays), 3, -1)
    swing = readout.swing
    base = np.real(coeffs[:, 0])
    folded = base + 2.0 * np.real(coeffs[:, 1]) + 2.0 * np.real(coeffs[:, 2])
    return tuple(
        TrialDistribution(base=np.clip(folded[t], 0.0, None), fourier=(),
                          swing=0.0)
        if swing[t] == 0.0 else
        TrialDistribution(base=np.clip(base[t], 0.0, None),
                          fourier=(coeffs[t, 1], coeffs[t, 2]),
                          swing=float(swing[t]))
        for t in range(len(delays)))


# ---------------------------------------------------------------------------
# exact derivatives of the pattern distribution


@lru_cache(maxsize=16)
def _prefix_slopes(src, channel, eit, stage: str) -> np.ndarray:
    """Read-only (2, D, D) derivatives of ``_prefix_state`` by the
    source's double_amp_scale and the link's background_rate.

    Every prefix map is linear in the state, so a derivative rides
    through the stages after the one that brings its parameter in.
    """
    cutoff = src.fock_cutoff

    def carried(slope):
        return source.AtomPhotonState(state=slope, cutoff=cutoff)

    if stage == "source":
        amp = link.photon_loss_joint(carried(source.state_slope(src)),
                                     src.collection).state
        out = np.stack([amp, np.zeros_like(amp)])
    elif stage == "transferred":
        amp, _ = _prefix_slopes(src, None, None, "source")
        out = np.stack([
            link.transmit(carried(amp), channel).state,
            link.background_slope(
                _prefix_state(src, None, None, "source"), channel)])
    else:
        out = np.stack([
            memory_b.map_out(memory_b.map_in(carried(slope), eit), eit).state
            for slope in _prefix_slopes(src, channel, None, "transferred")])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _conditional_slopes(prefix: tuple, name: str | None, z_sign: float,
                        eta: float, dark: float) -> np.ndarray:
    """Read-only (3, 4, d*d) derivatives of ``_conditional_states`` by
    double_amp_scale, background_rate and node B's dark rate."""
    s = _prefix_state(*prefix)
    d = dualrail.sector_dim(s.cutoff)
    povm = _povm_stack(s.cutoff, name, z_sign, eta, dark)
    slopes = _prefix_slopes(*prefix).reshape(-1, d, d, d, d)
    out = np.concatenate([
        np.einsum("mxbyc,jcb->mjyx", slopes, povm),
        np.einsum("xbyc,jcb->jyx", s.state.reshape(d, d, d, d),
                  _povm_slope(s.cutoff, name, z_sign, eta, dark))[None],
    ]).reshape(3, len(povm), -1)
    out.setflags(write=False)
    return out


def trial_tangents(bundle, setting: BasisSetting | None, delay_s: float,
                   stage: str = "stored") -> np.ndarray:
    """Exact derivatives of one attempt's mean pattern probabilities.

    Returns a (4, 16) array: the derivatives of
    ``trial_distribution(...).mean_probabilities()`` by, in order, the
    source's double_amp_scale, the link's background_rate, node B's
    dark rate (the monitor's at the source checkpoint) and node A's
    dark rate.  The first three ride through node B's side the way the
    state does (``_conditional_slopes``); node A's POVM slope is pulled
    back through the same ``StoredReadout`` as its POVM.
    """
    det = bundle.detection
    cutoff = bundle.source.fock_cutoff
    name_a, name_b = ((None, None) if setting is None
                      else (setting.node_a, setting.node_b))
    key = _node_b_key(bundle, name_b, stage)
    states = _conditional_states(*key)
    readout = _stored_readout(cutoff, det.det_a.eta_det, bundle.coherence,
                              bundle.geometry, (float(delay_s),))
    povm_a = (cutoff, name_a, 1.0, 1.0, det.det_a.dark_rate)
    effects = readout.effects(_povm_stack(*povm_a))[0]
    # coeffs[m, k, 4a + b]: direction m, part k, as in the distribution
    coeffs = np.concatenate([
        effects @ _conditional_slopes(*key).transpose(0, 2, 1)[:, None],
        (readout.effects(_povm_slope(*povm_a))[0] @ states.T)[None],
    ]).reshape(4, 3, -1)
    weights = np.array(_part_weights(float(readout.swing[0])))
    return np.einsum("k,mkp->mp", weights, np.real(coeffs))


def noise_distribution(bundle, setting: BasisSetting | None,
                       stage: str = "stored") -> TrialDistribution:
    """Distribution of a source-off window (backgrounds and darks only)."""
    off = _source_off_bundle(bundle)
    return trial_distribution(off, setting, 0.0, stage)


@lru_cache(maxsize=32)
def _source_off_bundle(bundle):
    src = dataclasses.replace(bundle.source, chi=1e-12, double_amp_scale=0.0)
    return dataclasses.replace(bundle, source=src)




# ---------------------------------------------------------------------------
# one reduction: pattern vector -> tallies

# Rows of TALLY.  CLICKS are node A's singles, node B's singles and the
# coincidences: a pattern adds to a node's singles when that node clicks
# and to the coincidences when both do.  BINS are the signed outcomes
# [++, +-, -+, --] under each double-click policy: a pattern adds by the
# signs its clicks carry, and a double click carries none under "discard"
# and half of each sign under "random".
CLICKS = slice(0, 3)
BINS = {"discard": slice(3, 7), "random": slice(7, 11)}
_SINGLES_B, _COINCIDENCES = 1, 2
_PLUS, _MINUS, _BOTH = (PATTERN_NAMES.index(n)
                        for n in ("plus", "minus", "both"))


def _tally_table() -> np.ndarray:
    """Read-only (11, 16) weights of each pattern in each tally row."""
    signs = {"plus": (1.0, 0.0), "minus": (0.0, 1.0), "none": (0.0, 0.0)}
    doubles = {"discard": (0.0, 0.0), "random": (0.5, 0.5)}
    cols = []
    for a, b in PATTERNS:
        a_click, b_click = a != "none", b != "none"
        col = [a_click, b_click, a_click and b_click]
        for double in doubles.values():
            w = dict(signs, both=double)
            col.extend(np.outer(w[a], w[b]).ravel())
        cols.append(col)
    table = np.array(cols, dtype=float).T
    table.setflags(write=False)
    return table


TALLY = _tally_table()
# sampled counts are tallied as exact integers (the discard rows are 0/1)
_TALLY_INT = TALLY[:BINS["discard"].stop].astype(np.int64)
# coincidences with a double click, which the random policy splits
_SPLIT = (_TALLY_INT[_COINCIDENCES]
          - _TALLY_INT[BINS["discard"]].sum(axis=0))


def _in_order(rows: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """rows @ probs, summed in pattern order so the floats stay the
    same as a running sum over the patterns (a matmul may reorder)."""
    return np.cumsum(rows * probs, axis=-1)[..., -1]


def _fair_split(node: int, n: int, rng: np.random.Generator):
    """(pattern, count) parts of one node's n clicks; a double click is
    split between plus and minus by a fair binomial draw."""
    if node != _BOTH:
        return ((node, n),)
    k = int(rng.binomial(n, 0.5))
    return ((_PLUS, k), (_MINUS, n - k))


def _resolve_doubles(counts: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Sampled counts with every double click of a coincidence moved to a
    random sign, drawn pattern by pattern in PATTERNS order, node A first."""
    out = counts.reshape(4, 4).copy()
    for k in np.flatnonzero(counts * _SPLIT):
        a, b = divmod(int(k), 4)
        n = int(counts[k])
        out[a, b] -= n
        for a_part, na in _fair_split(a, n, rng):
            for b_part, nb in _fair_split(b, na, rng):
                out[a_part, b_part] += nb
    return out.ravel()


def _tally_counts(counts: np.ndarray, policy: str,
                  rng: np.random.Generator) -> CountsTable:
    """CountsTable of a sampled pattern-count vector under the policy."""
    if policy == "random":
        counts = _resolve_doubles(counts, rng)
    tallies = _TALLY_INT @ counts
    singles_a, singles_b, coincidences = tallies[CLICKS].tolist()
    return CountsTable(outcome_counts=tallies[BINS["discard"]],
                       trials=int(counts.sum()), singles_a=singles_a,
                       singles_b=singles_b, coincidences=coincidences)


def _sample_pattern_counts(dist: TrialDistribution, n_trials: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Vector of counts per pattern for n_trials attempts.

    Each attempt with an unsynchronized mains phase draws its pattern
    with its own independent phase, so the aggregate counts follow a
    multinomial over the phase-averaged pattern distribution exactly;
    no per-attempt sampling is needed in either case.
    """
    if n_trials <= 0:
        return np.zeros(len(PATTERNS), dtype=np.int64)
    if dist.swing == 0.0:
        p = dist.base / dist.base.sum()
    else:
        p = dist.mean_probabilities()
        p = p / p.sum()
    return rng.multinomial(n_trials, p)


def tally(dist: TrialDistribution, n_trials: int, policy: str = "discard",
          rng: np.random.Generator | None = None) -> CountsTable:
    """Tallies of n_trials attempts from one distribution.

    With an rng they are one multinomial draw, its double clicks
    resolved under the policy; without one they are the exact expected
    counts, as floats.
    """
    if rng is not None:
        return _tally_counts(_sample_pattern_counts(dist, n_trials, rng),
                             policy, rng)
    tallies = _in_order(TALLY, dist.mean_probabilities()) * n_trials
    singles_a, singles_b, coincidences = tallies[CLICKS].tolist()
    return CountsTable(outcome_counts=tallies[BINS[policy]],
                       trials=n_trials, singles_a=singles_a,
                       singles_b=singles_b, coincidences=coincidences)


def tally_noise(table: CountsTable, dist: TrialDistribution, windows: int,
                rng: np.random.Generator | None = None) -> CountsTable:
    """The table with node B's clicks in ``windows`` source-off windows
    of ``dist`` added: drawn with an rng (pattern counts only, no
    double-click resolution), expected without one."""
    if rng is not None:
        clicks = int(_TALLY_INT[_SINGLES_B]
                     @ _sample_pattern_counts(dist, windows, rng))
    else:
        clicks = _in_order(TALLY[_SINGLES_B],
                           dist.mean_probabilities()) * windows
    return dataclasses.replace(table,
                               noise_windows=table.noise_windows + windows,
                               noise_counts=table.noise_counts + clicks)
