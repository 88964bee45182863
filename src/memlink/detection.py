"""Measurement settings, pattern distributions and coincidence counts.

Both readout chains are POVMs, so one trial is a draw from a
16-outcome distribution over the click patterns (plus / minus / both /
none at each node), and the probability of pattern (i, j) factors as

    p_ij(t) = Tr[E_i^A(t) sigma_j],   sigma_j = Tr_B[(1 x E_j^B) rho]

``trial_distributions`` builds it for a list of settings and a vector
of delays at once, as an (S, T, 16) array of phase-averaged
probabilities:

  * prefix (``_prefix``): the delay-independent joint state rho at the
    checkpoint -- source ket and collection loss ("source"), the
    converted link ("transferred"), the receiving memory's map-in and
    map-out ("stored") -- each map on its own factor of rho
    (``_checkpoint``), each checkpoint on the state of the one before;
  * ``_contract``: sigma_j for every node-B basis of the settings from
    one product of rho with node B's POVMs; node A's POVMs of every
    basis pulled back in one call through storage and readout in the
    Heisenberg picture (``memory_a.decohere``, once per call for its
    delay vector) as E^A(t), split into the parts that meet the state's
    coherences with mode-2 occupation gap dn = 0, 1, 2; and one batched
    product of the two.

Each node's POVM is a polynomial of degree <= 2 in its dark rate; its
rotated coefficients (``_povm_polynomial``) are cached apart from the
dark rate, at which ``_povm_terms`` evaluates them.  That cache and the
basis rotations' (``_rotation``) are the module's only caches: a
calibration's dark-rate steps and a campaign's repeated bases hit them.
Both are bounded module-level lru_caches, so clearing the lru_caches in
the module globals is a true cold start, and their arrays are
read-only.

``trial_polynomials`` feeds the same stage functions other stacks: the
source state as a polynomial in its double-excitation scale
(``source.state_polynomial``), split after the link into its two rows
in the background rate, and each node's three dark-rate rows in place
of its POVM.  That gives the distributions at every value of the five
noise constants ``calibrate`` fits, as one coefficient array per stage
to multiply by its ``trial_features`` at those values.

A batch of attempts is one multinomial draw over the 16 patterns, or
its exact expectation: ``tally`` gives either from a 16-vector (an rng
draws, no rng expects), and ``tally_noise`` adds the source-off
windows.  An unsynced mains phase enters each pattern probability as a
three-term Fourier series in the per-trial phase phi (as
exp(-i*phi*dn)); the distributions hold its exact average over phi,
which the draw samples.  Pattern vectors become singles, coincidences
and signed outcome bins through one fixed table, ``TALLY``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache, partial

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
# staged chain engine -> pattern distributions and noise polynomials

STAGES = ("source", "transferred", "stored")


def _checkpoint(rows: np.ndarray, src, channel, eit,
                stage: str) -> np.ndarray:
    """The stage's maps on a state, or an (R, D, D) stack, at the
    checkpoint before (see module doc)."""
    carried = source.AtomPhotonState(state=rows, cutoff=src.fock_cutoff)
    if stage == "source":
        return link.photon_loss_joint(carried, src.collection).state
    if stage == "transferred":
        return link.transmit(carried, channel).state
    return memory_b.map_out(memory_b.map_in(carried, eit), eit).state


def _prefix(bundle, stage: str) -> np.ndarray:
    """Delay-independent joint state at the stage's checkpoint: the
    source state through each checkpoint up to it (see module doc)."""
    if stage not in STAGES:
        raise DetectionConfigError(f"unknown stage {stage!r}")
    state = source.atom_photon_state(bundle.source).state
    for step in STAGES[:STAGES.index(stage) + 1]:
        state = _checkpoint(state, bundle.source, bundle.channel,
                            bundle.eit, step)
    return state


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
    """(B, 4, d, d): the POVM of each (name, Z sign) basis at one dark
    rate."""
    if not 0.0 <= dark < 1.0:
        raise ValueError(f"dark-count probability {dark} outside [0, 1)")
    poly = _povm_polynomial(cutoff, bases, eta)
    return poly[0] + poly[1] * dark + poly[2] * (dark * dark)


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


def _contract(bundle, keys: tuple, delays, stage: str,
              prefix: np.ndarray, povms) -> tuple:
    """Each setting's Tr(E^A(t) sigma), (S, T, 3, Ma, Mb) by delay, part
    and node A's and node B's rows, and the mains swing per delay, from
    ``povms(bases, eta, dark)``, a (B, M, d, d) stack of rows per basis:
    node B's meet each row of the (R, D, D) prefix, rows (prefix, POVM)."""
    det = bundle.detection
    bases_a = [(_SAME_AS.get(a, a), 1.0) for a, _ in keys]
    bases_b = [(b, _z_sign_b(b, det)) for _, b in keys]
    unique_a, unique_b = (tuple(dict.fromkeys(bases))
                          for bases in (bases_a, bases_b))
    eta_b, dark_b = ((det.det_monitor.eta_det, det.det_monitor.dark_rate)
                     if stage == "source"
                     else (bundle.eit.detection_residual(), det.dark_b))
    readout = memory_a.decohere(bundle.source.fock_cutoff, delays,
                                det.det_a.eta_det, bundle.coherence,
                                bundle.geometry)
    povm_a, povm_b = (rows.reshape((len(rows), -1) + rows.shape[-2:])
                      for rows in (povms(unique_a, 1.0, det.det_a.dark_rate),
                                   povms(unique_b, eta_b, dark_b)))
    d = povm_a.shape[-1]
    # node A's rows pulled back in one call: (A, T, 3, Ma, d*d)
    effects = readout.effects(povm_a.reshape(-1, d, d))
    effects = effects.reshape(effects.shape[:2] + povm_a.shape[:2]
                              + (d * d,)).transpose(2, 0, 1, 3, 4)
    # node B: sigma[x, y] = sum_bc rho[x b, y c] E[c, b] as row-flattened
    # sigma.T, from one product: (B, R * Mb, d*d)
    states = (povm_b.reshape(-1, d * d) @ prefix.reshape(-1, d, d, d, d)
              .transpose(0, 4, 2, 3, 1).reshape(-1, d * d, d * d))
    states = states.reshape((len(prefix),) + povm_b.shape[:2] + (d * d,)
                            ).swapaxes(0, 1).reshape(len(povm_b), -1, d * d)
    rows_a = [unique_a.index(a) for a in bases_a]
    rows_b = [unique_b.index(b) for b in bases_b]
    return ((effects[rows_a].reshape(len(keys), -1, d * d)
             @ states[rows_b].transpose(0, 2, 1)).reshape(
                 (len(keys),) + effects.shape[1:4] + states.shape[1:2]),
            readout.swing)


def _setting_keys(settings) -> tuple:
    """(node A, node B) basis names per setting, None for the bare mode
    basis."""
    return tuple((None, None) if s is None else (s.node_a, s.node_b)
                 for s in settings)


def trial_distributions(bundle, settings, delays,
                        stage: str = "stored") -> np.ndarray:
    """Phase-averaged pattern probabilities of one attempt, an (S, T, 16)
    array over the settings (each a BasisSetting, or None for the bare
    mode basis) and the delays."""
    keys, delays = _setting_keys(settings), np.asarray(delays, dtype=float)
    # coeffs[s, t, k, 4a + b] = Tr(E_a(t, k) sigma_b) of setting s
    coeffs, swing = _contract(
        bundle, keys, delays, stage, _prefix(bundle, stage)[None],
        partial(_povm_terms, bundle.source.fock_cutoff))
    coeffs = coeffs.reshape(len(keys), len(delays), 3, 16)
    weights = _part_weights(swing)[:, :, None]
    base = np.real(coeffs[:, :, 0])
    # a synced phase (swing 0, weights 2) folds the parts as they are; a
    # free-running one averages them over its phase from a clipped base,
    # which a per-trial phase cannot take below zero
    out = np.where((swing == 0.0)[:, None], base, np.clip(base, 0.0, None))
    out = out + weights[:, 1] * np.real(coeffs[:, :, 1])
    return np.clip(out + weights[:, 2] * np.real(coeffs[:, :, 2]), 0.0, None)


def trial_polynomials(bundle, checkpoints) -> list:
    """One attempt's pattern probabilities as exact polynomials in the
    five noise values, whatever the bundle's own noise values are.

    ``checkpoints`` holds (settings, delay) for each of STAGES.  Each
    stage gives a read-only (K, S, 16) C over the K ``trial_features``:
    ``trial_distributions``, unclipped, of a bundle that differs from
    this one at most in its noise values is its features[0] @ C.
    """
    src, out = bundle.source, []
    # the link's background enters as its own row, not mixed in
    channel = dataclasses.replace(bundle.channel, background_rate=0.0)
    rows = source.state_polynomial(src)
    for stage, (settings, delay) in zip(STAGES, checkpoints):
        rows = _checkpoint(rows, src, channel, bundle.eit, stage)
        if stage == "transferred":
            rows = link.background_rows(source.AtomPhotonState(
                rows, src.fock_cutoff)).reshape((-1,) + rows.shape[1:])
        # each basis's POVM rows by dark-rate power and outcome
        c, swing = _contract(
            bundle, _setting_keys(settings), (delay,), stage, rows,
            lambda bases, eta, _: _povm_polynomial(
                src.fock_cutoff, bases, eta).swapaxes(0, 1))
        # the phase average of the parts, then the axes (i, r, k, setting,
        # pattern) of the features' order, the pattern being 4 x node A's
        # outcome + node B's
        c = np.einsum("k,sk...->s...", _part_weights(swing)[0],
                      np.real(c[:, 0]))
        c = (c.reshape(len(settings), 3, 4, len(rows), 3, 4)
             .transpose(1, 3, 4, 0, 2, 5).reshape(-1, len(settings), 16))
        c.setflags(write=False)
        out.append(c)
    return out


def _powers(x: float) -> np.ndarray:
    """[1, x, x^2], then its derivative by x."""
    return np.array([[1.0, x, x * x], [0.0, 1.0, 2.0 * x]])


def trial_features(bundle) -> list:
    """Per stage, the (1 + 5, K) features of ``trial_polynomials`` at the
    bundle's noise values, then their derivatives by each noise value in
    ``config.NOISE_PARAMS`` order: node A's dark-rate powers x the link's
    rows [1, background_rate] x ``source.features`` x node B's dark-rate
    powers (the monitor's at the source checkpoint, before the link)."""
    # imported here: config imports this module
    from .config import NOISE_PARAMS
    names = [name for name, *_ in NOISE_PARAMS]
    det = bundle.detection
    dark_a = ("dark_a", _powers(det.det_a.dark_rate))
    src = ("double_amp_scale", source.features(bundle.source))
    linked = (dark_a, ("background_rate", _powers(
        bundle.channel.background_rate)[:, :2]), src,
        ("dark_b", _powers(det.dark_b)))
    out = []
    for factors in ((dark_a, src, ("dark_monitor", _powers(
            det.det_monitor.dark_rate))), linked, linked):
        # a value the stage never reads has no derivative there
        rows = np.array([[1.0]] + [[float(n in dict(factors))]
                                   for n in names])
        for name, factor in factors:
            pick = factor[[int(n == name) for n in [None] + names]]
            rows = (rows[:, :, None] * pick[:, None]).reshape(len(rows), -1)
        out.append(rows)
    return out


def noise_distribution(bundle, setting: BasisSetting | None,
                       stage: str = "stored") -> np.ndarray:
    """Pattern probabilities of a source-off window (backgrounds and
    darks only)."""
    off = dataclasses.replace(bundle, source=dataclasses.replace(
        bundle.source, chi=1e-12, double_amp_scale=0.0))
    return trial_distributions(off, (setting,), (0.0,), stage)[0, 0]


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
