"""Decoherence and readout of the stored spin-wave qubit.

While the write photon travels to the far node and back-communication
is awaited, the emitting ensemble keeps the qubit in two collective
spin-wave modes.  Four mechanisms degrade it:

  * thermal atomic motion washes out the spin-wave grating on a
    Gaussian timescale set by the grating wavevector, which a pair of
    momentum-kicking pulses can shrink by roughly the write angle
    ("freezing" the spin wave);
  * population transfer between the two modes with timescale T1;
  * inhomogeneous dephasing with Gaussian timescale T2*;
  * magnetic noise at the mains frequency, which is a coherent phase
    wobble when the sequence is line-triggered and a random phase kick
    per trial when it is not.

On top of these, the bias field drives a deterministic phase rotation
between the modes at the differential Zeeman rate; it is signal, not
noise, and produces the correlation oscillation used to calibrate the
field.

Motional decay is outcome independent (both modes blur together when
the common lifetime applies), so it is tracked as per-mode retrieval
weights instead of being folded into the normalized state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0

from . import dualrail
from .constants import CODATA, PhysicalConstants
from .qcore import DensityMatrix, apply_channel, partial_trace


class MemoryConfigError(ValueError):
    """Raised for inconsistent memory parameters."""


@dataclass(frozen=True)
class FreezingGeometry:
    """Beam geometry that fixes the spin-wave grating wavevector.

    Attributes:
        write_angle_rad: angle between the write beam and the collected
            write-photon mode.
        wavelength_m: optical wavelength of the write transition.
        frozen: whether the momentum-kick pulse pair is applied,
            replacing the grating wavevector by its much smaller
            second-order residual.
    """

    write_angle_rad: float = math.radians(3.5)
    wavelength_m: float = 795e-9
    frozen: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.write_angle_rad < math.pi / 2.0:
            raise MemoryConfigError(
                f"write angle must be in [0, pi/2), got {self.write_angle_rad}"
            )
        if self.wavelength_m <= 0.0:
            raise MemoryConfigError("wavelength must be positive")


@dataclass(frozen=True)
class CoherenceParams:
    """Lifetimes, fields and noise levels of the stored qubit.

    Attributes:
        temperature_k: ensemble temperature for the motional model.
        mass_kg: single-atom mass.
        t1_s: population-transfer (amplitude damping) time between the
            two spin-wave modes; may be inf to disable.
        t2_star_s: Gaussian inhomogeneous dephasing time; inf disables.
        bias_field_gauss: static bias field driving the deterministic
            phase rotation.
        mains_amplitude_gauss: amplitude of the 50 Hz magnetic ripple.
        mains_freq_hz: mains frequency.
        mains_synced: when True every storage interval starts at the
            same mains phase (line-triggered sequence) and the ripple
            contributes a deterministic, fittable phase; when False the
            start phase is uniformly random per trial and the ripple
            dephases the ensemble.
        mains_phase_rad: the common start phase used when synced.
        tau_mode1_s: optional override of the motional lifetime for
            spin-wave mode 1 (the common formula value is used if None).
        tau_mode2_s: same for mode 2.
    """

    temperature_k: float = 35e-6
    mass_kg: float = CODATA.m_rb87
    t1_s: float = 1.2e-3
    t2_star_s: float = 856.7e-6
    bias_field_gauss: float = 6.93e-3
    mains_amplitude_gauss: float = 0.35e-3
    mains_freq_hz: float = 50.0
    mains_synced: bool = True
    mains_phase_rad: float = 0.0
    tau_mode1_s: float | None = None
    tau_mode2_s: float | None = None

    def __post_init__(self) -> None:
        if self.temperature_k < 0.0:
            raise MemoryConfigError("temperature must be non-negative")
        if self.mass_kg <= 0.0:
            raise MemoryConfigError("mass must be positive")
        for name in ("t1_s", "t2_star_s"):
            if getattr(self, name) <= 0.0:
                raise MemoryConfigError(f"{name} must be positive (inf disables)")
        if self.mains_amplitude_gauss < 0.0:
            raise MemoryConfigError("mains amplitude must be non-negative")
        if self.mains_freq_hz <= 0.0:
            raise MemoryConfigError("mains frequency must be positive")
        for name in ("tau_mode1_s", "tau_mode2_s"):
            tau = getattr(self, name)
            if tau is not None and tau <= 0.0:
                raise MemoryConfigError(f"{name} override must be positive")


def spinwave_wavevectors(g: FreezingGeometry) -> tuple[float, float]:
    """Grating wavevector magnitude without and with the momentum kick.

    The write geometry gives |dk| = 2*pi*theta/lambda for small angles;
    the kick pulses cancel the first order and leave |dk'| = |dk|*theta.
    """
    dk = 2.0 * math.pi * g.write_angle_rad / g.wavelength_m
    return dk, dk * g.write_angle_rad


def active_wavevector(g: FreezingGeometry) -> float:
    """The wavevector magnitude that applies given the frozen flag."""
    dk, dk_frozen = spinwave_wavevectors(g)
    return dk_frozen if g.frozen else dk


def motional_lifetime(k_mag: float, c: CoherenceParams,
                      constants: PhysicalConstants = CODATA) -> float:
    """Gaussian 1/e time of motional grating washout, 1/(k * v_rms).

    Returns inf when either the wavevector or the thermal velocity
    vanishes (perfectly frozen grating or zero temperature).
    """
    if k_mag < 0.0:
        raise MemoryConfigError(f"wavevector magnitude must be >= 0, got {k_mag}")
    if c.temperature_k < 0.0:
        raise MemoryConfigError("temperature must be non-negative")
    v = math.sqrt(constants.k_b * c.temperature_k / c.mass_kg)
    if k_mag == 0.0 or v == 0.0:
        return math.inf
    return 1.0 / (k_mag * v)


def mode_lifetimes(c: CoherenceParams, g: FreezingGeometry,
                   constants: PhysicalConstants = CODATA) -> tuple[float, float]:
    """Motional lifetime per spin-wave mode, honoring the overrides."""
    common = motional_lifetime(active_wavevector(g), c, constants)
    tau1 = c.tau_mode1_s if c.tau_mode1_s is not None else common
    tau2 = c.tau_mode2_s if c.tau_mode2_s is not None else common
    return tau1, tau2


def retrieval_weights(age_s: float, c: CoherenceParams, g: FreezingGeometry,
                      constants: PhysicalConstants = CODATA) -> tuple[float, float]:
    """Per-mode Gaussian retrieval weight exp(-(age/tau)^2)."""
    if age_s < 0.0:
        raise MemoryConfigError("storage age must be non-negative")
    tau1, tau2 = mode_lifetimes(c, g, constants)
    w1 = math.exp(-((age_s / tau1) ** 2)) if math.isfinite(tau1) else 1.0
    w2 = math.exp(-((age_s / tau2) ** 2)) if math.isfinite(tau2) else 1.0
    return w1, w2


@dataclass
class AtomQubitA:
    """A stored spin-wave qubit, possibly entangled with a remote factor.

    ``state`` lives on (atomic sector) x (rest); the atomic two-mode
    sector is always the first tensor factor and ``rest`` is whatever
    the qubit is entangled with (the photonic sector in flight, the far
    memory after storage, or nothing, i.e. dimension 1).

    ``age_s`` counts time since the write pulse; the dephasing and
    motional envelopes are Gaussian in this total age, so incremental
    updates must know it.  ``mode_weights`` are the current per-mode
    retrieval efficiencies from motional washout; they multiply the
    readout click probability but, having been factored out of the
    state, never skew normalized outcome statistics unless the two
    modes differ.
    """

    state: DensityMatrix
    cutoff: int = 2
    age_s: float = 0.0
    mode_weights: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if self.state.dim % self.atom_dim != 0:
            raise MemoryConfigError(
                f"state dimension {self.state.dim} does not contain the "
                f"{self.atom_dim}-dimensional atomic sector as first factor"
            )
        if self.age_s < 0.0:
            raise MemoryConfigError("age must be non-negative")
        if not all(0.0 <= w <= 1.0 for w in self.mode_weights):
            raise MemoryConfigError(f"mode weights {self.mode_weights} outside [0, 1]")

    @property
    def atom_dim(self) -> int:
        return dualrail.sector_dim(self.cutoff)

    @property
    def rest_dim(self) -> int:
        return self.state.dim // self.atom_dim

    @property
    def retrieval_weight(self) -> float:
        """Scalar summary used by the simple readout API (mode average)."""
        return 0.5 * (self.mode_weights[0] + self.mode_weights[1])


def from_qubit_block(mat2: np.ndarray, cutoff: int = 2,
                     labels2: tuple[str, str] = ("d", "u"),
                     age_s: float = 0.0) -> AtomQubitA:
    """Embed a bare 2x2 qubit state into the single-excitation sector.

    Convenience for tests and analytic studies that start from a
    post-selected qubit rather than from the full source ladder.
    """
    mat2 = np.asarray(mat2, dtype=complex)
    if mat2.shape != (2, 2):
        raise MemoryConfigError(f"expected a 2x2 block, got {mat2.shape}")
    dim = dualrail.sector_dim(cutoff)
    i1, i2 = dualrail.qubit_indices(cutoff)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.ix_((i1, i2), (i1, i2))] = mat2
    labels = list(dualrail.sector_labels(cutoff, "g", labels2[0], labels2[1]))
    state = DensityMatrix(mat, tuple(labels))
    return AtomQubitA(state=state, cutoff=cutoff, age_s=age_s)


def _lift_unitary(u_atom: np.ndarray, rest_dim: int) -> np.ndarray:
    return np.kron(u_atom, np.eye(rest_dim, dtype=complex))


def zeeman_phase_increment(c: CoherenceParams, duration_s: float,
                           constants: PhysicalConstants = CODATA) -> float:
    """Deterministic phase picked up by one mode-2 quantum in duration_s."""
    return constants.zeeman_rate_rad_per_s_gauss * c.bias_field_gauss * duration_s


def mains_phase_increment(c: CoherenceParams, age_start_s: float,
                          age_end_s: float, start_phase_rad: float,
                          constants: PhysicalConstants = CODATA) -> float:
    """Phase from the mains ripple integrated over one storage stretch.

    The ripple field A*sin(omega*u + psi), with u the time since the
    write pulse and psi the mains phase at the write pulse, adds
    (rate*A/omega) * [cos(psi + omega*t0) - cos(psi + omega*t1)] to the
    mode-2 phase between ages t0 and t1.
    """
    omega = 2.0 * math.pi * c.mains_freq_hz
    rate = constants.zeeman_rate_rad_per_s_gauss * c.mains_amplitude_gauss
    x0 = start_phase_rad + omega * age_start_s
    x1 = start_phase_rad + omega * age_end_s
    return rate / omega * (math.cos(x0) - math.cos(x1))


def mains_swing_amplitude(c: CoherenceParams, duration_s: float,
                          constants: PhysicalConstants = CODATA) -> float:
    """Largest possible mains phase over a stretch, max over start phase.

    Equals 2*(rate*A/omega)*|sin(omega*t/2)|; the actual phase for a
    uniformly random start is this amplitude times sin(uniform).
    """
    omega = 2.0 * math.pi * c.mains_freq_hz
    rate = constants.zeeman_rate_rad_per_s_gauss * c.mains_amplitude_gauss
    return 2.0 * rate / omega * abs(math.sin(omega * duration_s / 2.0))


def mains_ensemble_envelope(c: CoherenceParams, duration_s: float, dn: int = 1,
                            constants: PhysicalConstants = CODATA) -> float:
    """Coherence survival factor after averaging over the mains phase.

    A coherence whose mode-2 occupations differ by ``dn`` picks up
    exp(-i*dn*phi) with phi = swing*sin(uniform); the average is the
    Bessel function J0(dn*swing).  Applies to the unsynced case only;
    the synced case keeps a deterministic phase instead.
    """
    swing = mains_swing_amplitude(c, duration_s, constants)
    return float(j0(dn * swing))


def decohere(q: AtomQubitA, duration_s: float, c: CoherenceParams,
             g: FreezingGeometry,
             rng: np.random.Generator | None = None,
             include_mains: bool = True,
             constants: PhysicalConstants = CODATA) -> AtomQubitA:
    """Advance the stored qubit by ``duration_s``.

    Applies, in order: the deterministic bias-field phase, the motional
    retrieval-weight update, mode-2 to mode-1 population transfer (T1),
    Gaussian inhomogeneous dephasing (T2*), and the mains ripple phase.
    The first four are deterministic maps that compose exactly over
    consecutive calls; the mains term is deterministic when synced and
    a per-call random draw otherwise (``rng`` required then).

    ``include_mains=False`` drops mechanism five entirely, which the
    vectorized campaign path uses because it folds the trial-dependent
    mains phase in analytically afterwards.
    """
    if duration_s < 0.0:
        raise MemoryConfigError(f"duration must be non-negative, got {duration_s}")
    age0 = q.age_s
    age1 = age0 + duration_s
    rest = q.rest_dim
    mat = q.state.mat

    # (1) deterministic Zeeman rotation
    phi = zeeman_phase_increment(c, duration_s, constants)
    u = _lift_unitary(dualrail.phase_unitary(q.cutoff, phi), rest)
    mat = u @ mat @ u.conj().T

    # (2) motional retrieval weights, Gaussian in total age
    weights = retrieval_weights(age1, c, g, constants)

    state = DensityMatrix(mat, q.state.labels, q.state.weight)

    # (3) population transfer with T1
    gamma = 1.0 - math.exp(-duration_s / c.t1_s)
    if gamma > 0.0:
        ch = dualrail.transfer_channel(q.cutoff, gamma, embed=(1, rest))
        state = apply_channel(state, ch)

    # (4) Gaussian dephasing with T2*, incremental in age^2
    if math.isfinite(c.t2_star_s):
        arg = (age1 ** 2 - age0 ** 2) / c.t2_star_s ** 2
        env = np.kron(dualrail.dephasing_envelope(q.cutoff, arg),
                      np.ones((rest, rest)))
        state = DensityMatrix(state.mat * env, state.labels, state.weight)

    # (5) mains ripple phase
    if include_mains and c.mains_amplitude_gauss > 0.0:
        if c.mains_synced:
            psi = c.mains_phase_rad
        else:
            if rng is None:
                raise MemoryConfigError(
                    "unsynced mains noise needs a random stream"
                )
            psi = rng.uniform(0.0, 2.0 * math.pi)
        phi_m = mains_phase_increment(c, age0, age1, psi, constants)
        u = _lift_unitary(dualrail.phase_unitary(q.cutoff, phi_m), rest)
        state = DensityMatrix(u @ state.mat @ u.conj().T, state.labels,
                              state.weight)

    return AtomQubitA(state=state, cutoff=q.cutoff, age_s=age1,
                      mode_weights=weights)


def readout_a(q: AtomQubitA, basis: np.ndarray, eta_read: float,
              rng: np.random.Generator,
              dark: float = 0.0) -> tuple[bool, int]:
    """Attempt to retrieve the qubit and measure it in ``basis``.

    The spin waves are converted to a photon pair of orthogonal modes
    and sent through a polarization analyzer: each mode survives with
    probability mode_weight * eta_read, and two threshold detectors
    behind the basis rotation fire accordingly.

    Args:
        q: stored qubit (any entangled rest factor is traced over).
        basis: 2x2 unitary whose columns are the +1 and -1 eigenmodes
            of the measured observable.
        eta_read: retrieval-and-detection efficiency of the readout
            chain.
        rng: random stream for the outcome draw.
        dark: per-window dark-count probability of each detector.

    Returns:
        (clicked, outcome): outcome is +1 or -1 when a single detector
        fired, 0 when none did; a double fire is resolved by a fair
        coin so the function always reports a definite sign on a click.
    """
    if not 0.0 <= eta_read <= 1.0:
        raise MemoryConfigError(f"eta_read must be in [0, 1], got {eta_read}")
    dim = q.atom_dim
    rest = q.rest_dim
    if rest > 1:
        atom_names = tuple(l.split(",")[0] for l in q.state.labels[::rest])
        rho = partial_trace(q.state, (dim, rest), keep=0, labels=atom_names)
    else:
        rho = q.state
    loss = dualrail.loss_channel(q.cutoff,
                                 q.mode_weights[0] * eta_read,
                                 q.mode_weights[1] * eta_read)
    rho = apply_channel(rho, loss)
    povm = dualrail.detection_povm(q.cutoff, basis, eta=1.0, dark=dark)
    names = ("plus", "minus", "both", "none")
    probs = np.array([
        max(0.0, float(np.real(np.trace(rho.mat @ povm[n])))) for n in names
    ])
    probs = probs / probs.sum()
    pick = names[int(rng.choice(len(names), p=probs))]
    if pick == "plus":
        return True, 1
    if pick == "minus":
        return True, -1
    if pick == "both":
        return True, 1 if rng.random() < 0.5 else -1
    return False, 0
