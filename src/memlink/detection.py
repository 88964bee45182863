"""Measurement settings, click simulation and coincidence bookkeeping.

This module glues the physics stages into per-trial click statistics.
The joint state of one attempt is evolved deterministically into a
single density matrix and both readout chains are POVMs, so one trial
reduces to a draw from a 16-outcome distribution over the click
patterns (plus / minus / both / none at each node).

``trial_distribution`` builds that distribution in three stages, each
behind its own cache:

  * prefix (``_prefix_state``): the delay-independent joint state at
    the checkpoint -- source ket and collection loss ("source"), then
    the converted link ("transferred"), then the receiving memory's
    map-in and map-out ("stored").  Keyed on the source, channel and
    EIT parameters the checkpoint reads (None for the others), so
    bundles that differ only in detectors or storage share it, and each
    checkpoint extends the cached state of the one before;
  * suffix (``_suffix_state``): storage decoherence at the emitting
    node plus its readout loss, keyed on (prefix key, delay, coherence,
    geometry, node-A efficiency) and shared by every basis setting at
    that delay;
  * contraction: the suffix state, viewed as (d, rest, d, rest), is
    contracted with one (4, d, d) POVM stack per node (``_povm_stack``,
    keyed on cutoff, basis, Z sign, efficiency and dark rate); no
    16-element product operator is ever formed.

The stages' loss and transfer channels come from cached constructors
in ``dualrail``, and the finished distribution is cached per (bundle,
setting, delay, stage).  Every cache is a module-level lru_cache of
finite size: bounded, so a long delay sweep cannot grow memory;
private, so the public stage functions stay plain functions that a
caller may wrap or patch without hiding a ``cache_clear``; and at
module level, so clearing the lru_caches found in the module globals
is a true cold start.  Cached arrays are read-only.

Campaigns exploit the reduction: a synced-mains campaign is one
multinomial draw per setting, and an unsynced campaign only needs the
per-trial mains phase threaded through a small Fourier decomposition of
the pattern probabilities (the random phase enters as exp(-i*phi*dn)
with dn the atomic mode-occupation difference, so each pattern
probability is a three-term Fourier series in phi).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np
from scipy.special import j0

from . import channel as link
from . import dualrail, memory_a, memory_b, source
from .qcore import Observable, apply_channel

TICK_S = 2.5e-9           # acquisition granularity of the time tagger

# click-export column layout (tab separated so setting keys keep commas)
EXPORT_HEADER = "trial_id\tsetting\tdetector\ttimestamp_ns\tpost_selected"

PATTERN_NAMES = ("plus", "minus", "both", "none")
PATTERNS = tuple((a, b) for a in PATTERN_NAMES for b in PATTERN_NAMES)
_ALLOWED_A = ("Z", "X", "Y", "A0", "A1")
_ALLOWED_B = ("Z", "X", "Y", "B0", "B1")

_PAULI2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class DetectionConfigError(ValueError):
    """Raised for invalid measurement configuration."""


@dataclass(frozen=True)
class DetectorParams:
    """One node's threshold-detector pair.

    Attributes:
        eta_det: chain efficiency folded into the click probability.
        dark_rate: dark-count probability per detector per window.
        window_s: coincidence window; defaults to one time-bin width.
        labels: names of the two detectors (plus-arm first).
    """

    eta_det: float = 1.0
    dark_rate: float = 0.0
    window_s: float = 50e-9
    labels: tuple[str, str] = ("+", "-")

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta_det <= 1.0:
            raise DetectionConfigError(
                f"eta_det must be in [0, 1], got {self.eta_det}"
            )
        if not 0.0 <= self.dark_rate < 1.0:
            raise DetectionConfigError(
                f"dark_rate must be in [0, 1), got {self.dark_rate}"
            )
        if self.window_s <= 0.0:
            raise DetectionConfigError("window_s must be positive")


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
    """

    det_monitor: DetectorParams = DetectorParams(labels=("m+", "m-"))
    det_a: DetectorParams = DetectorParams(eta_det=0.15, labels=("a+", "a-"))
    det_b: DetectorParams = dc_field(
        default_factory=lambda: DetectorParams(
            eta_det=memory_b.EITParams().detection_residual(),
            labels=("b+", "b-"),
        )
    )
    double_click_policy: str = "discard"
    z_b_up_sign_chsh: float = -1.0
    z_b_up_sign_corr: float = 1.0

    def __post_init__(self) -> None:
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


def project_basis(setting: BasisSetting,
                  cfg: DetectionConfig | None = None
                  ) -> tuple[Observable, Observable]:
    """Resolve a setting into one dichotomic observable per node."""
    cfg = cfg or DetectionConfig()
    obs_a = Observable(_node_matrix(setting.node_a, 1.0), ("d", "u"),
                       name=setting.node_a)
    obs_b = Observable(_node_matrix(setting.node_b,
                                    _z_sign_b(setting.node_b, cfg)),
                       ("U", "D"), name=setting.node_b)
    return obs_a, obs_b


def _z_sign_b(name: str | None, cfg: DetectionConfig) -> float:
    """Sign of the receiving node's Z inside the named observable."""
    if name in ("B0", "B1"):
        return cfg.z_b_up_sign_chsh
    return cfg.z_b_up_sign_corr


def _node_matrix(name: str, z_sign: float) -> np.ndarray:
    """2x2 matrix of one node's basis name, its Z scaled by z_sign."""
    z = z_sign * _PAULI2["Z"]
    if name in ("B0", "B1"):
        sign_x = 1.0 if name == "B0" else -1.0
        return (-z + sign_x * _PAULI2["X"]) / math.sqrt(2.0)
    name = {"A0": "Z", "A1": "X"}.get(name, name)
    return z if name == "Z" else _PAULI2[name]


def _plus_minus_basis(mat: np.ndarray) -> np.ndarray:
    """Columns: +1 eigenvector then -1 eigenvector of a dichotomic obs."""
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(vals)[::-1]
    return vecs[:, order]


@dataclass(frozen=True)
class ClickRecord:
    """Raw outcome of one attempt.

    ``detectors`` lists the detectors that fired; ``ticks`` gives each
    click's timestamp on the acquisition grid.  ``post_selected`` marks
    attempts where the receiving node registered the photon, the
    condition all entanglement statistics are built on.
    """

    trial_id: int
    setting: BasisSetting
    detectors: tuple[str, ...]
    ticks: tuple[int, ...]
    post_selected: bool

    def export_lines(self) -> list[str]:
        """One delimited line per click (empty records export nothing)."""
        return [
            f"{self.trial_id}\t{self.setting.key}\t{det}\t"
            f"{tick * TICK_S * 1e9:.1f}\t{int(self.post_selected)}"
            for det, tick in zip(self.detectors, self.ticks)
        ]


@dataclass
class CountsTable:
    """Coincidence and singles bookkeeping, mergeable across shards."""

    outcome_counts: dict[str, np.ndarray] = dc_field(default_factory=dict)
    trials: dict[str, int] = dc_field(default_factory=dict)
    singles_a: dict[str, int] = dc_field(default_factory=dict)
    singles_b: dict[str, int] = dc_field(default_factory=dict)
    coincidences: dict[str, int] = dc_field(default_factory=dict)
    noise_windows: int = 0
    noise_counts: int = 0

    def _bucket(self, key: str) -> None:
        if key not in self.outcome_counts:
            self.outcome_counts[key] = np.zeros(4, dtype=np.int64)
            self.trials[key] = 0
            self.singles_a[key] = 0
            self.singles_b[key] = 0
            self.coincidences[key] = 0

    def add_outcome(self, key: str, a: int, b: int, n: int = 1) -> None:
        """Add n coincidences with signed outcomes a, b in {+1, -1}."""
        self._bucket(key)
        idx = (0 if a > 0 else 2) + (0 if b > 0 else 1)
        self.outcome_counts[key][idx] += n

    def check(self) -> None:
        for key, counts in self.outcome_counts.items():
            if counts.min() < 0:
                raise ValueError(f"negative count in {key}")
            if counts.sum() > self.coincidences[key]:
                raise ValueError(
                    f"{key}: outcome bins exceed coincidence count"
                )
            if self.coincidences[key] > self.trials[key]:
                raise ValueError(f"{key}: more coincidences than trials")

    def __add__(self, other: "CountsTable") -> "CountsTable":
        out = CountsTable()
        for t in (self, other):
            for key in t.outcome_counts:
                out._bucket(key)
                out.outcome_counts[key] += t.outcome_counts[key]
                out.trials[key] += t.trials[key]
                out.singles_a[key] += t.singles_a[key]
                out.singles_b[key] += t.singles_b[key]
                out.coincidences[key] += t.coincidences[key]
        out.noise_windows = self.noise_windows + other.noise_windows
        out.noise_counts = self.noise_counts + other.noise_counts
        return out


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
        s = source.atom_photon_state(src)
        collect = link.photon_loss_joint(s.cutoff, src.collection,
                                         dualrail.sector_dim(s.cutoff))
        s = source.AtomPhotonState(state=apply_channel(s.state, collect),
                                   cutoff=s.cutoff,
                                   ladder_weight=s.ladder_weight)
    elif stage == "transferred":
        s = _prefix_state(src, None, None, "source")
        s = memory_b.timebin_to_spatial(link.transmit(s, channel))
    else:
        s = _prefix_state(src, channel, None, "transferred")
        s = memory_b.map_out(memory_b.map_in(s, eit), eit)
    s.state.mat.setflags(write=False)
    return s


@lru_cache(maxsize=16)
def _suffix_state(prefix: tuple, delay_s: float, coherence, geometry,
                  eta_a: float) -> np.ndarray:
    """Prefix after storage at node A and its readout loss, mains
    excluded, as a read-only (d, rest, d, rest) array."""
    s = _prefix_state(*prefix)
    q = memory_a.decohere(memory_a.AtomQubitA(state=s.state, cutoff=s.cutoff),
                          delay_s, coherence, geometry, include_mains=False)
    w1, w2 = q.mode_weights
    loss_a = dualrail.loss_channel(q.cutoff, w1 * eta_a, w2 * eta_a,
                                   name="read-a", embed=(1, q.rest_dim))
    d, rest = q.atom_dim, q.rest_dim
    out = apply_channel(q.state, loss_a).mat.reshape(d, rest, d, rest)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _povm_stack(cutoff: int, name: str | None, z_sign: float, eta: float,
                dark: float) -> np.ndarray:
    """One node's detector-pair POVM as a read-only (4, d, d) stack in
    PATTERN_NAMES order; name None measures the bare mode basis."""
    basis = None if name is None else _plus_minus_basis(
        _node_matrix(name, z_sign))
    povm = dualrail.detection_povm(cutoff, basis, eta=eta, dark=dark)
    stack = np.stack([povm[n] for n in PATTERN_NAMES])
    stack.setflags(write=False)
    return stack


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

    patterns: tuple[tuple[str, str], ...]
    base: np.ndarray
    fourier: tuple[np.ndarray, ...]
    swing: float

    def probabilities(self, phi: float | np.ndarray = 0.0) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        out = np.broadcast_to(
            self.base, phi.shape + (len(self.patterns),)
        ).copy()
        for k, coeff in enumerate(self.fourier, start=1):
            phase = np.exp(-1j * k * phi)[..., None]
            out += 2.0 * np.real(phase * coeff)
        return np.clip(out, 0.0, None)

    def mean_probabilities(self) -> np.ndarray:
        """Exact trial-averaged probabilities (mains phase averaged)."""
        out = self.base.copy()
        for k, coeff in enumerate(self.fourier, start=1):
            out += 2.0 * float(j0(k * self.swing)) * np.real(coeff)
        return np.clip(out, 0.0, None)

    def index(self, a_pattern: str, b_pattern: str) -> int:
        return self.patterns.index((a_pattern, b_pattern))


def trial_distribution(bundle, setting: BasisSetting | None,
                       delay_s: float, stage: str = "stored"
                       ) -> TrialDistribution:
    """Pattern distribution of one attempt; cached on the bundle."""
    key = None if setting is None else (setting.node_a, setting.node_b)
    return _distribution_cached(bundle, key, float(delay_s), stage)


@lru_cache(maxsize=256)
def _distribution_cached(bundle, setting_key, delay_s: float,
                         stage: str) -> TrialDistribution:
    det = bundle.detection
    cutoff = bundle.source.fock_cutoff
    rho = _suffix_state(_prefix_key(bundle, stage), delay_s,
                        bundle.coherence, bundle.geometry, det.det_a.eta_det)
    name_a, name_b = setting_key or (None, None)
    far = det.det_monitor if stage == "source" else det.det_b
    povm_a = _povm_stack(cutoff, name_a, 1.0, 1.0, det.det_a.dark_rate)
    povm_b = _povm_stack(cutoff, name_b, _z_sign_b(name_b, det),
                         far.eta_det, far.dark_rate)

    # masks[k] picks the part of the state whose node-A mode-2
    # occupations differ by dn = k between ket and bra.
    nu = dualrail.mode2_count_vector(cutoff)
    dn = nu[:, None] - nu[None, :]
    masks = np.stack([dn == k for k in (0, 1, 2)]).astype(complex)
    coh = bundle.coherence
    if coh.mains_synced or coh.mains_amplitude_gauss == 0.0:
        phi_det = memory_a.mains_phase_increment(
            coh, 0.0, delay_s, coh.mains_phase_rad)
        masks = masks * np.exp(-1j * phi_det * dn)
        swing = 0.0
    else:
        swing = memory_a.mains_swing_amplitude(coh, delay_s)

    # coeffs[k, 4a + b] = Tr(rho_k (A_a x B_b)), node B contracted first
    per_b = np.einsum("xbyc,jcb->jxy", rho, povm_b)
    coeffs = np.einsum("kxy,jxy,iyx->kij", masks, per_b,
                       povm_a).reshape(3, -1)
    base = np.real(coeffs[0])
    if swing == 0.0:
        base = base + 2.0 * np.real(coeffs[1]) + 2.0 * np.real(coeffs[2])
        fourier: tuple[np.ndarray, ...] = ()
    else:
        fourier = (coeffs[1], coeffs[2])
    return TrialDistribution(patterns=PATTERNS,
                             base=np.clip(base, 0.0, None),
                             fourier=fourier, swing=swing)


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
# sampling


def _sample_pattern_counts(dist: TrialDistribution, n_trials: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Vector of counts per pattern for n_trials attempts.

    Each attempt with an unsynchronized mains phase draws its pattern
    with its own independent phase, so the aggregate counts follow a
    multinomial over the phase-averaged pattern distribution exactly;
    no per-attempt sampling is needed in either case.
    """
    if n_trials <= 0:
        return np.zeros(len(dist.patterns), dtype=np.int64)
    if dist.swing == 0.0:
        p = dist.base / dist.base.sum()
    else:
        p = dist.mean_probabilities()
        p = p / p.sum()
    return rng.multinomial(n_trials, p)


def _accumulate_pattern_counts(table: CountsTable, key: str,
                               dist: TrialDistribution, counts: np.ndarray,
                               policy: str, rng: np.random.Generator) -> None:
    """Fold a pattern-count vector into the table under the policy."""
    table._bucket(key)
    table.trials[key] += int(counts.sum())
    for (a_pat, b_pat), n in zip(dist.patterns, counts):
        n = int(n)
        if n == 0:
            continue
        a_click = a_pat != "none"
        b_click = b_pat != "none"
        if a_click:
            table.singles_a[key] += n
        if b_click:
            table.singles_b[key] += n
        if not (a_click and b_click):
            continue
        table.coincidences[key] += n
        a_split = _resolve_double(a_pat, n, policy, rng)
        if a_split is None:
            continue
        for a_sign, na in a_split:
            b_split = _resolve_double(b_pat, na, policy, rng)
            if b_split is None:
                continue
            for b_sign, nb in b_split:
                if nb:
                    table.add_outcome(key, a_sign, b_sign, nb)


def _resolve_double(pattern: str, n: int, policy: str,
                    rng: np.random.Generator):
    """Split n clicks of one node's pattern into signed outcomes."""
    if pattern == "plus":
        return ((1, n),)
    if pattern == "minus":
        return ((-1, n),)
    if pattern == "both":
        if policy == "discard":
            return None
        k = int(rng.binomial(n, 0.5))
        return ((1, k), (-1, n - k))
    raise ValueError(f"no outcome for pattern {pattern!r}")


def sample_counts(bundle, setting: BasisSetting | None, n_trials: int,
                  rng: np.random.Generator, delay_s: float,
                  stage: str = "stored",
                  noise_windows: int = 0) -> CountsTable:
    """Simulate a batch of attempts at one setting into a CountsTable."""
    dist = trial_distribution(bundle, setting, delay_s, stage)
    key = "bins" if setting is None else setting.key
    table = CountsTable()
    counts = _sample_pattern_counts(dist, n_trials, rng)
    _accumulate_pattern_counts(table, key, dist, counts,
                               bundle.detection.double_click_policy, rng)
    if noise_windows > 0:
        ndist = noise_distribution(bundle, setting, stage)
        ncounts = _sample_pattern_counts(ndist, noise_windows, rng)
        clicks = sum(
            int(n) for (a_pat, b_pat), n in zip(ndist.patterns, ncounts)
            if b_pat != "none"
        )
        table.noise_windows += noise_windows
        table.noise_counts += clicks
    return table


def analytic_counts(bundle, setting: BasisSetting | None, n_trials: int,
                    delay_s: float, stage: str = "stored",
                    noise_windows: int = 0) -> CountsTable:
    """Expected counts (rounded) for the same batch, no sampling.

    Used by the cross-validation suite and the fast analytic campaign
    mode.  Double clicks follow the discard policy deterministically;
    under the random policy they are split evenly.
    """
    dist = trial_distribution(bundle, setting, delay_s, stage)
    key = "bins" if setting is None else setting.key
    probs = dist.mean_probabilities()
    table = CountsTable()
    table._bucket(key)
    table.trials[key] = n_trials
    policy = bundle.detection.double_click_policy
    exp_bins = np.zeros(4)
    for (a_pat, b_pat), p in zip(dist.patterns, probs):
        mean = p * n_trials
        a_click = a_pat != "none"
        b_click = b_pat != "none"
        if a_click:
            table.singles_a[key] += int(round(mean))
        if b_click:
            table.singles_b[key] += int(round(mean))
        if not (a_click and b_click):
            continue
        table.coincidences[key] += int(round(mean))
        for a_sign, fa in _expected_split(a_pat, policy):
            for b_sign, fb in _expected_split(b_pat, policy):
                idx = (0 if a_sign > 0 else 2) + (0 if b_sign > 0 else 1)
                exp_bins[idx] += mean * fa * fb
    table.outcome_counts[key] = np.round(exp_bins).astype(np.int64)
    if noise_windows > 0:
        ndist = noise_distribution(bundle, setting, stage)
        nprobs = ndist.mean_probabilities()
        click_p = sum(
            p for (a_pat, b_pat), p in zip(ndist.patterns, nprobs)
            if b_pat != "none"
        )
        table.noise_windows += noise_windows
        table.noise_counts += int(round(click_p * noise_windows))
    return table


def _expected_split(pattern: str, policy: str) -> tuple:
    if pattern == "plus":
        return ((1, 1.0),)
    if pattern == "minus":
        return ((-1, 1.0),)
    if policy == "discard":
        return ()
    return ((1, 0.5), (-1, 0.5))


def expected_outcome_probs(dist: TrialDistribution,
                           policy: str = "discard") -> np.ndarray:
    """Per-trial probabilities of the signed coincidences [++, +-, -+, --].

    This is the exact analytic counterpart of the sampled outcome bins,
    kept in floats so ideal-state checks stay exact to rounding.
    """
    probs = dist.mean_probabilities()
    bins = np.zeros(4)
    for (a_pat, b_pat), p in zip(dist.patterns, probs):
        if a_pat == "none" or b_pat == "none":
            continue
        for a_sign, fa in _expected_split(a_pat, policy):
            for b_sign, fb in _expected_split(b_pat, policy):
                idx = (0 if a_sign > 0 else 2) + (0 if b_sign > 0 else 1)
                bins[idx] += p * fa * fb
    return bins


def expected_click_probs(dist: TrialDistribution) -> dict[str, float]:
    """Per-trial click probabilities: each node's singles and coincidences."""
    probs = dist.mean_probabilities()
    out = {"a": 0.0, "b": 0.0, "ab": 0.0}
    for (a_pat, b_pat), p in zip(dist.patterns, probs):
        a_click = a_pat != "none"
        b_click = b_pat != "none"
        if a_click:
            out["a"] += p
        if b_click:
            out["b"] += p
        if a_click and b_click:
            out["ab"] += p
    return out


# ---------------------------------------------------------------------------
# single-trial interface


def simulate_trial(bundle, setting: BasisSetting, rng: np.random.Generator,
                   trial_id: int = 0, start_time_s: float = 0.0,
                   delay_s: float | None = None,
                   stage: str = "stored") -> ClickRecord:
    """Draw one attempt and return its click record.

    The trial's pattern is drawn from the cached attempt distribution
    (with a fresh mains phase when unsynced); detector labels and
    grid-quantized timestamps are then filled in.
    """
    if delay_s is None:
        delay_s = link.latency(bundle.channel)
    dist = trial_distribution(bundle, setting, delay_s, stage)
    if dist.swing == 0.0:
        probs = dist.base
    else:
        phi = dist.swing * math.sin(rng.uniform(0.0, 2.0 * math.pi))
        probs = dist.probabilities(phi)
    probs = probs / probs.sum()
    pick = int(rng.choice(len(probs), p=probs))
    a_pat, b_pat = dist.patterns[pick]

    det = bundle.detection
    far = det.det_monitor if stage == "source" else det.det_b
    a_time = start_time_s + delay_s
    b_time = start_time_s if stage == "source" else start_time_s + delay_s
    detectors: list[str] = []
    ticks: list[int] = []
    for pat, params, t in ((a_pat, det.det_a, a_time), (b_pat, far, b_time)):
        fired = {"plus": (0,), "minus": (1,), "both": (0, 1),
                 "none": ()}[pat]
        for i in fired:
            detectors.append(params.labels[i])
            ticks.append(int(round(t / TICK_S)))
    return ClickRecord(trial_id=trial_id, setting=setting,
                       detectors=tuple(detectors), ticks=tuple(ticks),
                       post_selected=(b_pat != "none"))


def accumulate(records: list[ClickRecord],
               policy: str = "discard") -> CountsTable:
    """Bin click records into a CountsTable (order independent).

    Doubles are resolved by the discard policy only; the random policy
    must be applied at simulation time where a stream is available.
    """
    table = CountsTable()
    for rec in records:
        key = rec.setting.key
        table._bucket(key)
        table.trials[key] += 1
        a_fired = [d for d in rec.detectors if d.startswith("a")]
        b_fired = [d for d in rec.detectors if not d.startswith("a")]
        if a_fired:
            table.singles_a[key] += 1
        if b_fired:
            table.singles_b[key] += 1
        if not (a_fired and b_fired):
            continue
        table.coincidences[key] += 1
        if len(a_fired) != 1 or len(b_fired) != 1:
            if policy == "discard":
                continue
            raise ValueError(
                "random double-click policy cannot be applied during "
                "accumulation; resolve doubles at simulation time"
            )
        a_sign = 1 if a_fired[0].endswith("+") else -1
        b_sign = 1 if b_fired[0].endswith("+") else -1
        table.add_outcome(key, a_sign, b_sign)
    table.check()
    return table
