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
weights that scale the readout efficiency instead of being folded into
the normalized state.

Storage acts on this node's factor only and after every delay-free
step of the link, so ``decohere`` works in the Heisenberg picture: it
builds the adjoint of storage and readout for a whole vector of delays
at once (a ``StoredReadout``), the node's readout POVM is pulled back
through it, and the joint state is never evolved per delay.  Every step
is either a Kraus stack on the node's sector (6x6 at the default
cutoff: T1 transfer, readout loss) or an entrywise factor that depends
only on the gap dn between the mode-2 occupations of ket and bra
(Zeeman phase, T2* envelope, mains phase).  The Kraus steps move ket
and bra by the same number of quanta, so they keep dn and commute with
every such factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dualrail
from .constants import CODATA
from .qcore import adjoint_matrix


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


def motional_lifetime(k_mag: float, c: CoherenceParams) -> float:
    """Gaussian 1/e time of motional grating washout, 1/(k * v_rms).

    Returns inf when either the wavevector or the thermal velocity
    vanishes (perfectly frozen grating or zero temperature).
    """
    if k_mag < 0.0:
        raise MemoryConfigError(f"wavevector magnitude must be >= 0, got {k_mag}")
    v = math.sqrt(CODATA.k_b * c.temperature_k / c.mass_kg)
    if k_mag == 0.0 or v == 0.0:
        return math.inf
    return 1.0 / (k_mag * v)


def mode_lifetimes(c: CoherenceParams,
                   g: FreezingGeometry) -> tuple[float, float]:
    """Motional lifetime per spin-wave mode, honoring the overrides."""
    common = motional_lifetime(active_wavevector(g), c)
    tau1 = c.tau_mode1_s if c.tau_mode1_s is not None else common
    tau2 = c.tau_mode2_s if c.tau_mode2_s is not None else common
    return tau1, tau2


def retrieval_weights(age_s: float, c: CoherenceParams,
                      g: FreezingGeometry) -> tuple[float, float]:
    """Per-mode Gaussian retrieval weight exp(-(age/tau)^2)."""
    if age_s < 0.0:
        raise MemoryConfigError("storage age must be non-negative")
    tau1, tau2 = mode_lifetimes(c, g)
    w1 = math.exp(-((age_s / tau1) ** 2)) if math.isfinite(tau1) else 1.0
    w2 = math.exp(-((age_s / tau2) ** 2)) if math.isfinite(tau2) else 1.0
    return w1, w2


def zeeman_phase_increment(c: CoherenceParams, duration_s: float) -> float:
    """Deterministic phase picked up by one mode-2 quantum in duration_s."""
    return CODATA.zeeman_rate_rad_per_s_gauss * c.bias_field_gauss * duration_s


def mains_phase_increment(c: CoherenceParams, age_start_s: float,
                          age_end_s: float, start_phase_rad: float) -> float:
    """Phase from the mains ripple integrated over one storage stretch.

    The ripple field A*sin(omega*u + psi), with u the time since the
    write pulse and psi the mains phase at the write pulse, adds
    (rate*A/omega) * [cos(psi + omega*t0) - cos(psi + omega*t1)] to the
    mode-2 phase between ages t0 and t1.
    """
    omega = 2.0 * math.pi * c.mains_freq_hz
    rate = CODATA.zeeman_rate_rad_per_s_gauss * c.mains_amplitude_gauss
    x0 = start_phase_rad + omega * age_start_s
    x1 = start_phase_rad + omega * age_end_s
    return rate / omega * (math.cos(x0) - math.cos(x1))


def mains_swing_amplitude(c: CoherenceParams, duration_s: float) -> float:
    """Largest possible mains phase over a stretch, max over start phase.

    Equals 2*(rate*A/omega)*|sin(omega*t/2)|; the actual phase for a
    uniformly random start is this amplitude times sin(uniform).
    """
    omega = 2.0 * math.pi * c.mains_freq_hz
    rate = CODATA.zeeman_rate_rad_per_s_gauss * c.mains_amplitude_gauss
    return 2.0 * rate / omega * abs(math.sin(omega * duration_s / 2.0))


@dataclass(frozen=True)
class StoredReadout:
    """Node A's storage and readout for T delays, in the Heisenberg
    picture, on row-flattened d x d operators (index x*d + y).

    Attributes:
        pulled: (T, d*d, d*d) adjoint of storage's Kraus steps (T1
            transfer, then readout loss): an effect E pulls back to
            E.ravel() @ pulled[t].
        parts: (T, 3, d*d) entrywise factor of part k: the bias-field
            phase, the T2* envelope and a fixed mains phase on the
            entries that meet the state's coherences whose mode-2
            occupations differ by dn = k between ket and bra.
        swing: (T,) amplitude of a free-running mains phase, 0 when the
            ripple is line-triggered (its phase is then in ``parts``).
    """

    pulled: np.ndarray
    parts: np.ndarray
    swing: np.ndarray

    def effects(self, povm: np.ndarray) -> np.ndarray:
        """P, (T, 3, n, d*d): an (n, d, d) POVM pulled back, in parts.

        Effect i's probability on a state rho of the node's factor is
        p_0 + 2 Re(p_1 + p_2), with p_k = P[t, k, i] @ rho.T.ravel();
        a free-running ripple adds a random phase phi per trial, which
        enters p_k as exp(-i*phi*k) and is left out here.
        """
        flat = povm.reshape(len(povm), -1) @ self.pulled
        return self.parts[:, :, None, :] * flat[:, None]


def decohere(cutoff: int, delays, eta: float, c: CoherenceParams,
             g: FreezingGeometry) -> StoredReadout:
    """Storage at node A for each delay, and its readout (see module doc).

    Storage for a delay t applies, in order, the bias-field phase, T1
    transfer, Gaussian T2* dephasing in the total age, the readout loss
    (the motional retrieval weights times the detection efficiency
    ``eta``) and the mains ripple.  An effect is pulled back through
    their adjoints in reverse order; the loss and transfer stacks come
    from their closed-form amplitudes for the whole delay vector.
    """
    delays = np.asarray(delays, dtype=float)
    weights = np.array([retrieval_weights(t, c, g)
                        for t in delays]).reshape(-1, 2)
    loss = dualrail.loss_channel(cutoff, weights[:, 0] * eta,
                                 weights[:, 1] * eta)
    transfer = dualrail.transfer_channel(cutoff,
                                         1.0 - np.exp(-delays / c.t1_s))
    pulled = adjoint_matrix(loss) @ adjoint_matrix(transfer)

    phase = zeeman_phase_increment(c, delays)
    if c.mains_synced or c.mains_amplitude_gauss == 0.0:
        phase = phase + np.array([
            mains_phase_increment(c, 0.0, t, c.mains_phase_rad)
            for t in delays])
        swing = np.zeros(len(delays))
    else:
        swing = np.array([mains_swing_amplitude(c, t) for t in delays])
    n2 = dualrail.mode2_count_vector(cutoff)
    dn = n2[:, None] - n2[None, :]
    factor = np.exp(-1j * phase[:, None, None] * dn)
    if math.isfinite(c.t2_star_s):
        factor = factor * dualrail.dephasing_envelope(
            cutoff, delays ** 2 / c.t2_star_s ** 2)
    # a factor f on the state's entries [x, y] is f.T on the effect's
    parts = np.stack([(dn == k) * factor for k in (0, 1, 2)], axis=1)
    return StoredReadout(
        pulled=pulled,
        parts=parts.swapaxes(-1, -2).reshape(len(delays), 3, dn.size),
        swing=swing)
