"""Emitting-node memory: wavevectors, lifetimes, decoherence, readout.

Storage is checked through ``decohere``'s pulled-back effects: the
statistics of an observable on node A's sector after storage.
"""

import dataclasses
import math

import numpy as np
import pytest

from memlink import dualrail
from memlink.config import ExperimentBundle
from memlink.constants import CODATA
from memlink.detection import (BasisSetting, DetectorParams, tally,
                               trial_distributions)
from memlink.memory_a import (
    CoherenceParams,
    FreezingGeometry,
    MemoryConfigError,
    active_wavevector,
    decohere,
    mains_phase_increment,
    mains_swing_amplitude,
    mode_lifetimes,
    motional_lifetime,
    retrieval_weights,
    spinwave_wavevectors,
    zeeman_phase_increment,
)
from oracles import (apply_channel, decohere_state, detection_povm, embedded,
                     expectation, from_qubit_block, pure_state)

QUIET = CoherenceParams(t1_s=math.inf, t2_star_s=math.inf,
                        bias_field_gauss=0.0, mains_amplitude_gauss=0.0)
FROZEN = FreezingGeometry()
# mode 1 / mode 2 populations and the qubit-block X of node A's sector
POP_1, POP_2, XX = (np.zeros((6, 6)) for _ in range(3))
POP_1[1, 1] = POP_2[2, 2] = XX[1, 2] = XX[2, 1] = 1.0


def plus_qubit():
    return from_qubit_block(np.full((2, 2), 0.5))


def still(**coherence):
    """Coherence without motional washout, so readout loses nothing at
    unit efficiency."""
    return CoherenceParams(temperature_k=0.0, **coherence)


def pulled_back(readout, povm):
    """Each delay's full pulled-back effects, (T, n, d, d): part 0 plus
    parts 1, 2 and their adjoints (the coherences with dn = -1, -2)."""
    parts = readout.effects(povm).reshape(readout.parts.shape[:2]
                                          + (len(povm), 6, 6))
    return (parts[:, 0] + parts[:, 1:].sum(axis=1)
            + parts[:, 1:].sum(axis=1).conj().swapaxes(-1, -2))


def stored(rho, obs, t, c, eta=1.0):
    """Tr[obs Phi_t(rho)] on node A's sector, Phi_t storage for t and
    readout at efficiency eta, from decohere's pulled-back effect."""
    readout = decohere(2, [t], eta, c, FROZEN)
    return expectation(rho, pulled_back(readout, np.asarray(obs)[None])[0, 0])


def single_pair_bundle(eta_a=1.0, **coherence):
    """Default bundle without multi-pair emission and with a dark-free
    node-A detector of efficiency eta_a."""
    base = ExperimentBundle()
    return dataclasses.replace(
        base,
        source=dataclasses.replace(base.source, double_amp_scale=0.0),
        coherence=dataclasses.replace(base.coherence, **coherence),
        detection=dataclasses.replace(
            base.detection, det_a=DetectorParams(eta_det=eta_a)),
    )


def node_a_click_probability(bundle, delay_s=0.0, setting=None):
    ((probs,),) = trial_distributions(bundle, (setting,), (delay_s,),
                                      "source")
    return tally(probs, 1).singles_a


class TestWavevectors:
    def test_write_grating_magnitude(self):
        dk, dk_frozen = spinwave_wavevectors(FreezingGeometry())
        np.testing.assert_allclose(dk, 482789.87286950037, rtol=1e-12)
        np.testing.assert_allclose(dk_frozen, 29491.955069001688, rtol=1e-12)

    def test_kick_reduction_factor_is_the_write_angle(self):
        g = FreezingGeometry()
        dk, dk_frozen = spinwave_wavevectors(g)
        np.testing.assert_allclose(dk / dk_frozen, 1.0 / g.write_angle_rad,
                                   rtol=1e-12)
        np.testing.assert_allclose(dk / dk_frozen, 16.37022271802352,
                                   rtol=1e-12)

    def test_active_wavevector_honours_flag(self):
        dk, dk_frozen = spinwave_wavevectors(FROZEN)
        assert active_wavevector(FreezingGeometry(frozen=True)) == dk_frozen
        assert active_wavevector(FreezingGeometry(frozen=False)) == dk

    def test_geometry_validation(self):
        with pytest.raises(MemoryConfigError):
            FreezingGeometry(write_angle_rad=math.pi / 2.0)
        with pytest.raises(MemoryConfigError):
            FreezingGeometry(wavelength_m=0.0)


class TestMotionalLifetime:
    def test_frozen_lifetime_hand_value(self):
        c = CoherenceParams()
        tau = motional_lifetime(active_wavevector(FROZEN), c)
        np.testing.assert_allclose(tau, 5.859737336116874e-4, rtol=1e-12)
        # headline number: a shade under 586 microseconds
        np.testing.assert_allclose(tau, 586e-6, rtol=2e-2)

    def test_unfrozen_lifetime_hand_value(self):
        c = CoherenceParams()
        g = FreezingGeometry(frozen=False)
        tau = motional_lifetime(active_wavevector(g), c)
        np.testing.assert_allclose(tau, 3.579509843604838e-5, rtol=1e-12)

    def test_zero_temperature_is_infinite(self):
        c = CoherenceParams(temperature_k=0.0)
        assert motional_lifetime(1e5, c) == math.inf

    def test_zero_wavevector_is_infinite(self):
        assert motional_lifetime(0.0, CoherenceParams()) == math.inf

    def test_scales_inverse_sqrt_temperature(self):
        c1 = CoherenceParams(temperature_k=35e-6)
        c4 = CoherenceParams(temperature_k=140e-6)
        t1 = motional_lifetime(1e5, c1)
        t4 = motional_lifetime(1e5, c4)
        np.testing.assert_allclose(t1 / t4, 2.0, rtol=1e-12)

    def test_negative_wavevector_rejected(self):
        with pytest.raises(MemoryConfigError):
            motional_lifetime(-1.0, CoherenceParams())

    def test_mode_overrides(self):
        c = CoherenceParams(tau_mode1_s=416e-6, tau_mode2_s=517e-6)
        assert mode_lifetimes(c, FROZEN) == (416e-6, 517e-6)
        c1 = CoherenceParams(tau_mode1_s=416e-6)
        tau1, tau2 = mode_lifetimes(c1, FROZEN)
        assert tau1 == 416e-6
        np.testing.assert_allclose(tau2, 5.859737336116874e-4, rtol=1e-12)


class TestRetrievalWeights:
    def test_fresh_qubit_has_unit_weights(self):
        assert retrieval_weights(0.0, CoherenceParams(), FROZEN) == (1.0, 1.0)

    def test_gaussian_form(self):
        c = CoherenceParams()
        tau = motional_lifetime(active_wavevector(FROZEN), c)
        w1, w2 = retrieval_weights(tau, c, FROZEN)
        np.testing.assert_allclose(w1, math.exp(-1.0), rtol=1e-12)
        np.testing.assert_allclose(w2, math.exp(-1.0), rtol=1e-12)

    def test_link_latency_cost_is_three_percent(self):
        w1, _ = retrieval_weights(103e-6, CoherenceParams(), FROZEN)
        np.testing.assert_allclose(w1, 0.9695753073988448, rtol=1e-12)

    def test_infinite_lifetime_keeps_unit_weight(self):
        c = CoherenceParams(temperature_k=0.0)
        assert retrieval_weights(1.0, c, FROZEN) == (1.0, 1.0)

    def test_negative_age_rejected(self):
        with pytest.raises(MemoryConfigError):
            retrieval_weights(-1e-6, CoherenceParams(), FROZEN)


class TestCoherenceParamsValidation:
    def test_rejects_zero_lifetimes(self):
        with pytest.raises(MemoryConfigError):
            CoherenceParams(t1_s=0.0)
        with pytest.raises(MemoryConfigError):
            CoherenceParams(t2_star_s=-1.0)

    def test_rejects_negative_temperature(self):
        with pytest.raises(MemoryConfigError):
            CoherenceParams(temperature_k=-1e-6)

    def test_rejects_bad_overrides(self):
        with pytest.raises(MemoryConfigError):
            CoherenceParams(tau_mode1_s=0.0)

    def test_rejects_negative_mains(self):
        with pytest.raises(MemoryConfigError):
            CoherenceParams(mains_amplitude_gauss=-1e-3)


class TestQubitContainer:
    def test_from_qubit_block_layout(self):
        q = from_qubit_block(np.diag([0.3, 0.7]))
        assert q.shape == (6, 6)
        pops = np.diag(q).real
        np.testing.assert_allclose([pops[1], pops[2]], [0.3, 0.7], atol=1e-12)

    def test_bad_block_shape_rejected(self):
        with pytest.raises(ValueError):
            from_qubit_block(np.eye(3))

    def test_rejects_incompatible_dimension(self):
        # the forward reference needs the atomic sector as first factor
        state = pure_state([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(MemoryConfigError):
            decohere_state(state, 2, 0.0, CoherenceParams(), FROZEN)


class TestPhaseIncrements:
    def test_zeeman_increment_hand_value(self):
        c = CoherenceParams(bias_field_gauss=1e-3)
        np.testing.assert_allclose(zeeman_phase_increment(c, 100e-6),
                                   0.8794100059190187, rtol=1e-12)
        # linear in time and field: twice the field for half the time
        np.testing.assert_allclose(
            zeeman_phase_increment(CoherenceParams(bias_field_gauss=2e-3),
                                   50e-6),
            0.8794100059190187, rtol=1e-12)

    def test_mains_increment_telescopes(self):
        c = CoherenceParams(mains_amplitude_gauss=1.61e-3)
        psi = 0.7
        total = mains_phase_increment(c, 0.0, 5e-3, psi)
        split = (mains_phase_increment(c, 0.0, 2e-3, psi)
                 + mains_phase_increment(c, 2e-3, 5e-3, psi))
        np.testing.assert_allclose(split, total, atol=1e-15)

    def test_mains_increment_vanishes_over_full_period(self):
        c = CoherenceParams(mains_amplitude_gauss=1.61e-3)
        inc = mains_phase_increment(c, 0.0, 1.0 / 50.0, 0.3)
        assert abs(inc) < 1e-12

    def test_swing_amplitude_hand_value(self):
        c = CoherenceParams(mains_amplitude_gauss=0.35e-3)
        np.testing.assert_allclose(mains_swing_amplitude(c, 60e-6),
                                   0.1846733672350441, rtol=1e-12)

    def test_swing_bounds_the_increment(self):
        c = CoherenceParams(mains_amplitude_gauss=1.61e-3)
        t = 137e-6
        swing = mains_swing_amplitude(c, t)
        worst = max(abs(mains_phase_increment(c, 0.0, t, psi))
                    for psi in np.linspace(0.0, 2.0 * math.pi, 721))
        assert worst <= swing + 1e-12
        np.testing.assert_allclose(worst, swing, rtol=1e-4)


class TestDecohere:
    def test_zero_duration_is_identity(self):
        readout = decohere(2, [0.0], 1.0, CoherenceParams(), FROZEN)
        np.testing.assert_allclose(readout.pulled[0], np.eye(36), atol=1e-15)
        assert readout.swing[0] == 0.0
        rng = np.random.default_rng(2)
        rho = pure_state(rng.normal(size=6) + 1j * rng.normal(size=6))
        for obs in (POP_1, POP_2, XX):
            assert stored(rho, obs, 0.0, CoherenceParams()) == pytest.approx(
                expectation(rho, obs), abs=1e-15)

    def test_negative_duration_rejected(self):
        with pytest.raises(MemoryConfigError):
            decohere(2, [-1e-6], 1.0, CoherenceParams(), FROZEN)

    def test_pure_zeeman_rotation(self):
        c = still(t1_s=math.inf, t2_star_s=math.inf,
                  mains_amplitude_gauss=0.0)
        for t in (10e-6, 50e-6, 103e-6):
            phi = zeeman_phase_increment(c, t)
            np.testing.assert_allclose(stored(plus_qubit(), XX, t, c),
                                       math.cos(phi), atol=1e-9)

    def test_t2_star_envelope(self):
        c = still(t1_s=math.inf, bias_field_gauss=0.0,
                  mains_amplitude_gauss=0.0)
        np.testing.assert_allclose(stored(plus_qubit(), XX, c.t2_star_s, c),
                                   math.exp(-1.0), rtol=1e-10)

    def test_t1_population_transfer(self):
        c = still(t2_star_s=math.inf, bias_field_gauss=0.0,
                  mains_amplitude_gauss=0.0)
        q = from_qubit_block(np.diag([0.0, 1.0]))
        np.testing.assert_allclose(stored(q, POP_2, c.t1_s, c),
                                   math.exp(-1.0), rtol=1e-10)
        np.testing.assert_allclose(stored(q, POP_1, c.t1_s, c),
                                   1.0 - math.exp(-1.0), rtol=1e-10)

    def test_composition_of_consecutive_calls(self):
        # with no washout and unit efficiency the readout loses nothing,
        # and T1 transfer over consecutive stretches composes: the
        # adjoint of 60 us then 90 us is the adjoint of 150 us
        c = still(mains_synced=True, mains_phase_rad=0.4)
        one, two, both = (decohere(2, [t], 1.0, c, FROZEN).pulled[0]
                          for t in (60e-6, 90e-6, 150e-6))
        np.testing.assert_allclose(two @ one, both, atol=1e-12)

    def test_mode_weights_track_total_age(self):
        # a mode-1 excitation reaches the readout with the retrieval
        # weight at the total age; the rest of the time it is lost
        c = CoherenceParams()
        q = from_qubit_block(np.diag([1.0, 0.0]))
        vacuum = np.zeros((6, 6))
        vacuum[0, 0] = 1.0
        np.testing.assert_allclose(stored(q, POP_1, 103e-6, c),
                                   0.9695753073988448, rtol=1e-12)
        np.testing.assert_allclose(stored(q, vacuum, 103e-6, c),
                                   1.0 - 0.9695753073988448, rtol=1e-12)

    def test_stacked_delays_match_one_by_one(self):
        c = CoherenceParams(mains_synced=False, mains_amplitude_gauss=1.61e-3)
        delays = [0.0, 37e-6, 103e-6, 400e-6]
        stack = decohere(2, delays, 0.3, c, FROZEN)
        for row, t in enumerate(delays):
            one = decohere(2, [t], 0.3, c, FROZEN)
            np.testing.assert_allclose(stack.pulled[row], one.pulled[0],
                                       rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(stack.parts[row], one.parts[0],
                                       rtol=0.0, atol=1e-15)
            assert stack.swing[row] == one.swing[0]

    def test_heisenberg_dual_of_forward_storage(self):
        """Tr[E Phi_t(rho)] from the pulled-back effect equals the
        forward reference followed by the readout loss, on a joint
        state with node A as first factor."""
        c = CoherenceParams(mains_synced=True, mains_phase_rad=0.9,
                            mains_amplitude_gauss=1.61e-3)
        eta, t = 0.4, 230e-6
        rng = np.random.default_rng(8)
        rho = pure_state(rng.normal(size=36) + 1j * rng.normal(size=36))
        obs_a, obs_b = (m + m.conj().T for m in rng.normal(size=(2, 6, 6)))
        fwd, (w1, w2) = decohere_state(rho, 2, t, c, FROZEN)
        loss = dualrail.loss_channel(2, w1 * eta, w2 * eta).operators
        fwd = apply_channel(fwd, embedded(loss, 1, 6))
        n2 = dualrail.mode2_count_vector(2)
        phi = mains_phase_increment(c, 0.0, t, 0.9)
        fwd = fwd * np.exp(-1j * phi * np.subtract.outer(
            np.repeat(n2, 6), np.repeat(n2, 6)))
        want = expectation(fwd, np.kron(obs_a, obs_b))
        pulled = pulled_back(decohere(2, [t], eta, c, FROZEN), obs_a[None])
        got = expectation(rho, np.kron(pulled[0, 0], obs_b))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_synced_mains_adds_deterministic_phase(self):
        # The pattern distribution folds the synced ripple in as a phase
        # on mode 2, the same rotation a bias field of equal phase gives.
        t = 80e-6
        mains = single_pair_bundle(
            t1_s=math.inf, t2_star_s=math.inf, bias_field_gauss=0.0,
            mains_amplitude_gauss=1.61e-3, mains_synced=True,
            mains_phase_rad=0.9)
        phi = mains_phase_increment(mains.coherence, 0.0, t, 0.9)
        rate = CODATA.zeeman_rate_rad_per_s_gauss
        bias = single_pair_bundle(
            t1_s=math.inf, t2_star_s=math.inf, bias_field_gauss=phi / (rate * t),
            mains_amplitude_gauss=0.0)
        assert abs(phi) > 0.1
        settings = (BasisSetting("X", "X"), BasisSetting("X", "Y"))
        got = trial_distributions(mains, settings, (t,), "stored")
        want = trial_distributions(bias, settings, (t,), "stored")
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_include_mains_false_skips_ripple(self):
        # a free-running ripple is left out of the pulled-back effects
        # and reported as the swing of the per-trial phase; a synced one
        # is a fixed phase inside them
        t = 80e-6
        free = still(t1_s=math.inf, t2_star_s=math.inf, bias_field_gauss=0.0,
                     mains_amplitude_gauss=1.61e-3, mains_synced=False)
        readout = decohere(2, [t], 1.0, free, FROZEN)
        assert readout.swing[0] == mains_swing_amplitude(free, t) > 0.0
        np.testing.assert_allclose(stored(plus_qubit(), XX, t, free), 1.0,
                                   atol=1e-12)
        synced = dataclasses.replace(free, mains_synced=True,
                                     mains_phase_rad=0.9)
        phi = mains_phase_increment(synced, 0.0, t, 0.9)
        assert decohere(2, [t], 1.0, synced, FROZEN).swing[0] == 0.0
        np.testing.assert_allclose(stored(plus_qubit(), XX, t, synced),
                                   math.cos(phi), atol=1e-12)

    def test_state_stays_physical(self):
        # the adjoint of a channel keeps a POVM a POVM: every pulled-back
        # effect is Hermitian and positive, and they sum to the identity
        povm = np.stack(list(detection_povm(2, None, 1.0, 3e-4).values()))
        readout = decohere(2, [0.0, 103e-6, 300e-6], 0.15,
                           CoherenceParams(), FROZEN)
        for effects in pulled_back(readout, povm):
            for e in effects:
                np.testing.assert_allclose(e, e.conj().T, atol=1e-15)
                assert np.linalg.eigvalsh(e).min() >= -1e-12
            np.testing.assert_allclose(effects.sum(axis=0), np.eye(6),
                                       atol=1e-12)


class TestReadout:
    """Node A's readout as the pattern distribution models it: retrieval
    loss from the mode weights and the detector efficiency, then the
    threshold-detector pair."""

    def test_single_excitation_always_clicks_at_unit_efficiency(self):
        bundle = single_pair_bundle(eta_a=1.0)
        np.testing.assert_allclose(node_a_click_probability(bundle),
                                   bundle.source.chi, rtol=1e-12)

    def test_click_rate_is_bernoulli_in_efficiency(self):
        bundle = single_pair_bundle(eta_a=0.3)
        np.testing.assert_allclose(node_a_click_probability(bundle),
                                   0.3 * bundle.source.chi, rtol=1e-12)

    def test_mode_weights_scale_click_rate(self):
        bundle = single_pair_bundle(eta_a=1.0)
        t = 300e-6
        w1, w2 = retrieval_weights(t, bundle.coherence, bundle.geometry)
        assert w1 == w2 < 0.9
        np.testing.assert_allclose(node_a_click_probability(bundle, t),
                                   w1 * bundle.source.chi, rtol=1e-12)

    def test_transverse_outcomes_balanced(self):
        bundle = single_pair_bundle(eta_a=1.0)
        ((probs,),) = trial_distributions(bundle, (BasisSetting("X", "Z"),),
                                          (0.0,), "source")
        plus, minus = probs.reshape(4, 4).sum(axis=1)[:2]
        np.testing.assert_allclose(plus, minus, rtol=1e-12)
        np.testing.assert_allclose(plus + minus, bundle.source.chi,
                                   rtol=1e-12)
