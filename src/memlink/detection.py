"""Measurement settings, pattern distributions and coincidence counts.

This module glues the physics stages into click statistics.  Both
readout chains are POVMs, so one trial reduces to a draw from a
16-outcome distribution over the click patterns (plus / minus / both /
none at each node), and the probability of pattern (i, j) factors as

    p_ij(t) = Tr[E_i^A(t) sigma_j],   sigma_j = Tr_B[(1 x E_j^B) rho]

``trial_distributions`` builds it for a list of settings and a vector
of delays at once, as a read-only (S, T, 16) array of phase-averaged
probabilities, in stages, each behind its own cache:

  * prefix (``_prefix_stack``): the delay-independent joint state rho
    at the checkpoint -- source ket and collection loss ("source"),
    then the converted link ("transferred"), then the receiving
    memory's map-in and map-out ("stored") -- beside its derivatives
    by the source's double-excitation scale and the link's background
    rate.  Every map is linear, so each acts once on the (3, D, D)
    stack, on its own factor of the joint state.  Keyed on the source,
    channel and EIT parameters the checkpoint reads (None for the
    others), so bundles that differ only in detectors or storage share
    it, and each checkpoint extends the cached stack of the one before;
  * node B (``_node_b_stack``): sigma_j for every node-B basis of the
    settings, with its derivatives, from one product of the prefix
    stack with node B's POVMs and their dark-rate slopes;
  * node A (``_stored_readout``, ``_node_a_stack``): storage and
    readout at the emitting node in the Heisenberg picture
    (``memory_a.decohere``), keyed on the coherence, geometry, node-A
    efficiency and delay vector, so every setting, dark rate and bundle
    that reads it shares it.  Node A's POVMs of every basis and their
    dark-rate slopes are pulled back through it in one call, as E^A(t)
    split into the parts that meet the state's coherences with mode-2
    occupation gap dn = 0, 1, 2;
  * contraction: one batched product of the E^A(t) stacks with the
    sigma stacks gives every setting's and delay's pattern
    probabilities at once.

Each node's POVM is a polynomial of degree <= 2 in its dark rate
(``dualrail.threshold_povm``).  Its rotated coefficients
(``_povm_polynomial``) are keyed on cutoff, basis, Z sign and
efficiency, around a basis rotation keyed on the first three, so a
dark-rate step neither rebuilds nor re-rotates them: the POVM and its
slope at a dark rate (``_povm_terms``) are evaluated from them.  The
finished distributions are cached per (bundle, settings, delay vector,
stage).  Every cache is a module-level lru_cache of finite size:
bounded, so a long delay sweep cannot grow memory; private, so the
public stage functions stay plain functions that a caller may wrap or
patch without hiding a ``cache_clear``; and at module level, so
clearing the lru_caches found in the module globals is a true cold
start.  Cached arrays are read-only.

``trial_tangents`` gives the exact derivatives of the distributions at
one delay by the noise values ``calibrate`` fits, an (S, 4, 16) array
from the same stacks and one product: the derivatives by the source's
double-excitation scale, the link's background rate and node B's dark
rate ride through node B's side with the state, and node A's POVM
slope is pulled back beside the POVM.

Campaigns exploit the reduction: a batch of attempts is one
multinomial draw over the 16 patterns, or its exact expectation, and
``tally`` gives either from a 16-vector (an rng draws, no rng expects);
``tally_noise`` adds the source-off windows the same way.  A sweep
builds its distributions in one call and still draws delay by delay.
An unsynced mains phase enters each pattern probability as a
three-term Fourier series in the per-trial phase phi (the random
phase enters as exp(-i*phi*dn)); the distributions hold its exact
average over phi, which the draw then samples.  Pattern vectors,
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
# node A's CHSH bases are its plain Z and X
_SAME_AS = {"A0": "Z", "A1": "X"}

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
    name = _SAME_AS.get(name, name)
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
# staged chain engine -> pattern distributions and their derivatives


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
def _prefix_stack(src, channel, eit, stage: str) -> np.ndarray:
    """Read-only (3, D, D) stack at the checkpoint: the delay-independent
    joint state, then its derivatives by the source's double_amp_scale
    and the link's background_rate (see module doc)."""
    def carried(stack):
        return source.AtomPhotonState(state=stack, cutoff=src.fock_cutoff)

    if stage == "source":
        rho = source.atom_photon_state(src).state
        out = link.photon_loss_joint(carried(np.stack(
            [rho, source.state_slope(src), np.zeros_like(rho)])),
            src.collection).state
    elif stage == "transferred":
        prev = _prefix_stack(src, None, None, "source")
        out = link.transmit(carried(prev), channel).state
        # the background rate enters here: its row was zero before
        out[2] = link.background_slope(carried(out[0]), channel)
    else:
        prev = carried(_prefix_stack(src, channel, None, "transferred"))
        out = memory_b.map_out(memory_b.map_in(prev, eit), eit).state
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def _node_b_stack(prefix: tuple, bases: tuple, eta: float,
                  dark: float) -> np.ndarray:
    """Node A's unnormalized states per node-B outcome, sigma_j =
    Tr_B[(1 x E_j) rho_prefix], for each (name, Z sign) basis, as the
    row-flattened transposes sigma_j.T: a read-only (B, 4, 4, d*d)
    stack by basis, then the states and their derivatives by
    double_amp_scale, background_rate and node B's dark rate, then
    outcome."""
    cutoff = prefix[0].fock_cutoff
    d = dualrail.sector_dim(cutoff)
    # sigma_j[x, y] = sum_bc rho[x b, y c] E_j[c, b]: every POVM element
    # and dark-rate slope, as a row (c, b), meets each row of the prefix
    # stack, as a matrix from (c, b) to (y, x), in one product
    povms = _povm_terms(cutoff, bases, eta, dark).reshape(-1, d * d)
    out = (povms @ _prefix_stack(*prefix).reshape(3, d, d, d, d)
           .transpose(0, 4, 2, 3, 1).reshape(3, d * d, d * d))
    out = out.reshape(3, 2, len(bases), 4, d * d)
    # the slopes of both the state and the POVM are not needed
    out = np.stack([out[0, 0], out[1, 0], out[2, 0], out[0, 1]], axis=1)
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


# small: a calibrate pass reads one stage's stack twice in a row (its
# distributions, then its tangents), and a sweep's stack holds every delay
@lru_cache(maxsize=2)
def _node_a_stack(readout: tuple, names: tuple, dark: float) -> np.ndarray:
    """Node A's POVM in each named basis and its dark-rate slope, pulled
    back through ``_stored_readout(*readout)`` in one call: a read-only
    (A, T, 3, 2, 4, d*d) stack by basis, delay, part, POVM or slope and
    outcome (see ``StoredReadout.effects``)."""
    cutoff = readout[0]
    d = dualrail.sector_dim(cutoff)
    povms = _povm_terms(cutoff, tuple((name, 1.0) for name in names), 1.0,
                        dark)
    out = _stored_readout(*readout).effects(povms.reshape(-1, d, d))
    out = np.ascontiguousarray(out.reshape(
        out.shape[:2] + (2, len(names), 4, d * d)).transpose(3, 0, 1, 2, 4, 5))
    out.setflags(write=False)
    return out


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
def _povm_polynomial(cutoff: int, bases: tuple, eta: float) -> np.ndarray:
    """One node's detector-pair POVM in each (name, Z sign) basis as a
    read-only (3, B, 4, d, d) P in PATTERN_NAMES order, the POVM being
    P[0] + P[1] dark + P[2] dark^2; name None measures the bare mode
    basis.  No dark rate changes P, so every dark-rate step reuses it."""
    poly = np.stack([
        np.stack([elements[n] for n in PATTERN_NAMES], axis=1)
        for elements in (dualrail.threshold_povm(
            cutoff, None if name is None else _rotation(cutoff, name, sign),
            eta) for name, sign in bases)], axis=1)
    poly.setflags(write=False)
    return poly


def _povm_terms(cutoff: int, bases: tuple, eta: float,
                dark: float) -> np.ndarray:
    """(2, B, 4, d, d): the POVM of each (name, Z sign) basis at one dark
    rate, then its slope by the dark rate."""
    if not 0.0 <= dark < 1.0:
        raise ValueError(f"dark-count probability {dark} outside [0, 1)")
    poly = _povm_polynomial(cutoff, bases, eta)
    return np.stack([poly[0] + poly[1] * dark + poly[2] * (dark * dark),
                     poly[1] + 2.0 * dark * poly[2]])


def _part_weights(swing: np.ndarray) -> np.ndarray:
    """(T, 3) weights of the parts dn = 0, 1, 2 in the phase-averaged
    pattern probabilities: 1, then 2 J0(dn * swing)."""
    weights = np.full((len(swing), 3), 2.0)
    weights[:, 0] = 1.0
    if swing.any():
        # imported here: only an unsynced mains phase needs j0, and
        # scipy.special outweighs the rest of a campaign's start-up
        from scipy.special import j0
        weights[:, 1:] = 2.0 * j0(np.outer(swing, (1, 2)))
    return weights


def _stage_stacks(bundle, keys: tuple, delays: tuple, stage: str) -> tuple:
    """Node A's stack (``_node_a_stack``) and node B's stack
    (``_node_b_stack``) of the settings' bases, each distinct basis
    once; each setting's row in either; and the mains swing per delay."""
    det = bundle.detection
    names_a = [_SAME_AS.get(a, a) for a, _ in keys]
    bases_b = [(b, _z_sign_b(b, det)) for _, b in keys]
    unique_a = tuple(dict.fromkeys(names_a))
    unique_b = tuple(dict.fromkeys(bases_b))
    if stage == "source":
        eta_b, dark_b = det.det_monitor.eta_det, det.det_monitor.dark_rate
    else:
        eta_b, dark_b = bundle.eit.detection_residual(), det.dark_b
    states = _node_b_stack(_prefix_key(bundle, stage), unique_b, eta_b,
                           dark_b)
    readout = (bundle.source.fock_cutoff, det.det_a.eta_det,
               bundle.coherence, bundle.geometry, delays)
    return (_node_a_stack(readout, unique_a, det.det_a.dark_rate), states,
            [unique_a.index(n) for n in names_a],
            [unique_b.index(b) for b in bases_b],
            _stored_readout(*readout).swing)


def _setting_keys(settings) -> tuple:
    """(node A, node B) basis names per setting, None for the bare mode
    basis."""
    return tuple((None, None) if s is None else (s.node_a, s.node_b)
                 for s in settings)


def trial_distributions(bundle, settings, delays,
                        stage: str = "stored") -> np.ndarray:
    """Phase-averaged pattern probabilities of one attempt, a read-only
    (S, T, 16) array over the settings (each a BasisSetting, or None for
    the bare mode basis) and the delays; cached on the bundle, the
    settings and the whole delay vector."""
    return _distributions_cached(bundle, _setting_keys(settings),
                                 tuple(float(t) for t in delays), stage)


@lru_cache(maxsize=256)
def _distributions_cached(bundle, keys: tuple, delays: tuple,
                          stage: str) -> np.ndarray:
    effects, states, rows_a, rows_b, swing = _stage_stacks(
        bundle, keys, delays, stage)
    n, dim = len(keys), states.shape[-1]
    # coeffs[s, t, k, 4a + b] = Tr(E_a(t, k) sigma_b) of setting s: one
    # product over every setting, delay, part and node-A effect
    coeffs = (effects[rows_a, :, :, 0].reshape(n, len(delays) * 12, dim)
              @ states[rows_b, 0].transpose(0, 2, 1))
    coeffs = coeffs.reshape(n, len(delays), 3, 16)
    weights = _part_weights(swing)[:, :, None]
    base = np.real(coeffs[:, :, 0])
    # a synced phase (swing 0, weights 2) folds the parts as they are; a
    # free-running one averages them over its phase from a clipped base,
    # which a per-trial phase cannot take below zero
    out = np.where((swing == 0.0)[:, None], base, np.clip(base, 0.0, None))
    out = out + weights[:, 1] * np.real(coeffs[:, :, 1])
    out = np.clip(out + weights[:, 2] * np.real(coeffs[:, :, 2]), 0.0, None)
    out.setflags(write=False)
    return out


def trial_tangents(bundle, settings, delay_s: float,
                   stage: str = "stored") -> np.ndarray:
    """Exact derivatives of one attempt's phase-averaged pattern
    probabilities at one delay.

    Returns an (S, 4, 16) array: for each setting, the derivatives of
    ``trial_distributions(bundle, settings, [delay_s], stage)`` by, in
    order, the source's double_amp_scale, the link's background_rate,
    node B's dark rate (the monitor's at the source checkpoint) and node
    A's dark rate.  The first three ride through node B's side with the
    state (``_node_b_stack``); node A's POVM slope is pulled back beside
    its POVM (``_node_a_stack``).  One product gives them all.
    """
    keys = _setting_keys(settings)
    effects, states, rows_a, rows_b, swing = _stage_stacks(
        bundle, keys, (float(delay_s),), stage)
    n, dim = len(keys), states.shape[-1]
    # c[s, k, e, a, m, b]: setting, part, node A's POVM or its slope,
    # node-A outcome, node B's state or its derivative m, node-B outcome
    c = (effects[rows_a, 0].reshape(n, 24, dim)
         @ states[rows_b].transpose(0, 3, 1, 2).reshape(n, dim, 16)
         ).reshape(n, 3, 2, 4, 4, 4)
    coeffs = np.stack([c[:, :, 0, :, 1], c[:, :, 0, :, 2],
                       c[:, :, 0, :, 3], c[:, :, 1, :, 0]], axis=1)
    return np.einsum("k,smkp->smp", _part_weights(swing)[0],
                     np.real(coeffs).reshape(n, 4, 3, -1))


def noise_distribution(bundle, setting: BasisSetting | None,
                       stage: str = "stored") -> np.ndarray:
    """Pattern probabilities of a source-off window (backgrounds and
    darks only)."""
    off = _source_off_bundle(bundle)
    return trial_distributions(off, (setting,), (0.0,), stage)[0, 0]


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


def _sample_pattern_counts(probs: np.ndarray, n_trials: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Vector of counts per pattern for n_trials attempts.

    Each attempt with an unsynchronized mains phase draws its pattern
    with its own independent phase, so the aggregate counts follow a
    multinomial over the phase-averaged pattern probabilities exactly;
    no per-attempt sampling is needed in either case.
    """
    if n_trials <= 0:
        return np.zeros(len(PATTERNS), dtype=np.int64)
    return rng.multinomial(n_trials, probs / probs.sum())


def tally(probs: np.ndarray, n_trials: int, policy: str = "discard",
          rng: np.random.Generator | None = None) -> CountsTable:
    """Tallies of n_trials attempts from one attempt's 16 phase-averaged
    pattern probabilities.

    With an rng they are one multinomial draw, its double clicks
    resolved under the policy; without one they are the exact expected
    counts, as floats.
    """
    if rng is not None:
        return _tally_counts(_sample_pattern_counts(probs, n_trials, rng),
                             policy, rng)
    tallies = _in_order(TALLY, probs) * n_trials
    singles_a, singles_b, coincidences = tallies[CLICKS].tolist()
    return CountsTable(outcome_counts=tallies[BINS[policy]],
                       trials=n_trials, singles_a=singles_a,
                       singles_b=singles_b, coincidences=coincidences)


def tally_noise(table: CountsTable, probs: np.ndarray, windows: int,
                rng: np.random.Generator | None = None) -> CountsTable:
    """The table with node B's clicks in ``windows`` source-off windows
    of pattern probabilities ``probs`` added: drawn with an rng (pattern
    counts only, no double-click resolution), expected without one."""
    if rng is not None:
        clicks = int(_TALLY_INT[_SINGLES_B]
                     @ _sample_pattern_counts(probs, windows, rng))
    else:
        clicks = _in_order(TALLY[_SINGLES_B], probs) * windows
    return dataclasses.replace(table,
                               noise_windows=table.noise_windows + windows,
                               noise_counts=table.noise_counts + clicks)
