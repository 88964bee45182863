"""Receiving-node memory: asymmetric storage and retrieval."""

import numpy as np
import pytest

from memlink import dualrail
from memlink.memory_b import EITConfigError, EITParams, map_in, map_out
from memlink.source import AtomPhotonState, SourceParams, atom_photon_state
from oracles import (apply_channel, embedded, excitation_probabilities,
                     post_select, pure_state, validate)


def photon_only(amps):
    """Joint state with the atom parked in its ground state."""
    joint = np.zeros(36, dtype=complex)
    joint[:6] = amps
    return AtomPhotonState(state=pure_state(joint), cutoff=2)


def early_photon():
    return photon_only([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])


def late_photon():
    return photon_only([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])


def balanced_photon():
    return photon_only([0.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def survival(s):
    """Probability that the photonic factor holds at least one excitation."""
    return 1.0 - excitation_probabilities(s.state, s.cutoff)[0]


def round_trip(s, p):
    """Map-in then map-out, and the probability that light comes back."""
    out = map_out(map_in(s, p), p)
    return out, survival(out)


def qubit_block(s):
    """Post-selected single-photon block of the photonic factor."""
    return post_select(s.state, [1, 2])[0]


class TestParams:
    def test_split_preserves_total_efficiency(self):
        p = EITParams()
        np.testing.assert_allclose(p.map_in()[0] * p.map_out()[0], 0.22,
                                   rtol=1e-12)
        np.testing.assert_allclose(p.map_in()[1] * p.map_out()[1], 0.25,
                                   rtol=1e-12)

    def test_split_fraction_moves_loss_between_stages(self):
        p = EITParams(eta_map_in_fraction=1.0)
        assert p.map_in() == (0.22, 0.25)
        assert p.map_out() == (1.0, 1.0)

    def test_mean_map_out(self):
        np.testing.assert_allclose(EITParams().mean_map_out(),
                                   0.4845207879911715, rtol=1e-12)

    def test_detection_residual_hand_value(self):
        np.testing.assert_allclose(EITParams().detection_residual(),
                                   0.26830634148636107, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(EITConfigError):
            EITParams(eta_up=0.0)
        with pytest.raises(EITConfigError):
            EITParams(eta_down=1.2)
        with pytest.raises(EITConfigError):
            EITParams(eta_map_in_fraction=-0.1)

    def test_readout_must_fit_inside_map_out(self):
        with pytest.raises(EITConfigError):
            EITParams(readout_eta_b=0.6)


class TestStorageRoundTrip:
    def test_early_mode_survival(self):
        _, surv = round_trip(early_photon(), EITParams())
        assert surv == pytest.approx(0.22, abs=1e-12)

    def test_late_mode_survival(self):
        _, surv = round_trip(late_photon(), EITParams())
        assert surv == pytest.approx(0.25, abs=1e-12)

    def test_split_point_does_not_change_round_trip(self):
        for f in (0.0, 0.3, 0.5, 1.0):
            p = EITParams(eta_map_in_fraction=f)
            _, surv = round_trip(balanced_photon(), p)
            np.testing.assert_allclose(surv, 0.5 * (0.22 + 0.25), rtol=1e-12)

    def test_weight_and_trace_preserved(self):
        # every stage preserves trace, so the state's weight is its trace
        s = atom_photon_state(SourceParams(chi=0.1))
        out, _ = round_trip(s, EITParams())
        np.testing.assert_allclose(np.trace(out.state).real, 1.0,
                                   atol=1e-12)
        validate(out.state)

    def test_map_stages_compose_to_round_trip(self):
        p = EITParams(eta_map_in_fraction=0.37)
        staged = map_out(map_in(balanced_photon(), p), p)
        whole = dualrail.loss_channel(2, p.eta_up, p.eta_down)
        direct = apply_channel(balanced_photon().state,
                               embedded(whole.operators, 6, 1))
        np.testing.assert_allclose(staged.state, direct, atol=1e-12)


class TestSurvivalProbability:
    def test_vacuum_has_zero_survival(self):
        s = photon_only([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert survival(s) == pytest.approx(0.0, abs=1e-12)

    def test_single_photon_has_unit_survival(self):
        assert survival(early_photon()) == pytest.approx(1.0)

    def test_matches_analytic_for_source_state(self):
        s = atom_photon_state(SourceParams(chi=0.1, double_amp_scale=0.8))
        pops = np.diag(s.state).real.reshape(6, 6)
        vac = [j for j, occ in enumerate(dualrail.occupations(s.cutoff))
               if occ == (0, 0)]
        np.testing.assert_allclose(survival(s), 1.0 - pops[:, vac].sum(),
                                   rtol=1e-12)
        probs = excitation_probabilities(s.state, s.cutoff)
        np.testing.assert_allclose(survival(s), probs[1] + probs[2],
                                   rtol=1e-12)


class TestAsymmetryBias:
    def test_post_selected_population_bias(self):
        out, _ = round_trip(balanced_photon(), EITParams())
        block = qubit_block(out)
        pops = np.diag(block).real
        z = pops[0] - pops[1]
        np.testing.assert_allclose(abs(z), 0.06382978723404255, rtol=1e-12)
        # the late-fed mode is the more efficient one
        assert pops[1] > pops[0]

    def test_equal_efficiencies_leave_state_unchanged(self):
        p = EITParams(eta_up=0.25, eta_down=0.25)
        out, _ = round_trip(balanced_photon(), p)
        block = qubit_block(out)
        np.testing.assert_allclose(block, np.full((2, 2), 0.5), atol=1e-12)

    def test_coherence_visibility_under_asymmetry(self):
        out, _ = round_trip(balanced_photon(), EITParams())
        block = qubit_block(out)
        x = 2.0 * float(np.real(block[0, 1]))
        np.testing.assert_allclose(x, 0.9979607999624319, rtol=1e-12)
