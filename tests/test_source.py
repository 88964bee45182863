"""Write-process source: phase law, excitation ladder, qubit block."""

import math

import numpy as np
import pytest

from memlink import dualrail
from memlink.constants import CODATA
from memlink.memory_a import (CoherenceParams, FreezingGeometry,
                              MemoryConfigError)
from memlink.source import (
    AtomPhotonState,
    SourceConfigError,
    SourceParams,
    atom_photon_state,
    features,
)
from oracles import (decohere_state, excitation_probabilities,
                     single_excitation_block, validate)


def photon_numbers(s):
    """Probability of each total photon number of a source state."""
    return excitation_probabilities(s.state, s.cutoff)


def qubit_block(p):
    """Post-selected one-pair block of the source state and its weight."""
    return single_excitation_block(atom_photon_state(p).state, 2)


def brute_force_ket(chi, phi0, scale, imbalance, cutoff=2):
    """Independent enumeration of the joint ket, kept deliberately naive."""
    dim = dualrail.sector_dim(cutoff)
    idx = dualrail.index_of(cutoff)
    chi_e = chi * (1.0 + imbalance) / 2.0
    chi_l = chi * (1.0 - imbalance) / 2.0
    ket = np.zeros(dim * dim, dtype=complex)
    total = 0.0
    for ke in range(cutoff + 1):
        for kl in range(cutoff + 1 - ke):
            if ke == 0 and kl == 0:
                continue
            amp = (math.sqrt(chi_e) ** ke * math.sqrt(chi_l) ** kl
                   * scale ** max(ke + kl - 1, 0)
                   * np.exp(-1j * phi0 * kl))
            j = idx[(ke, kl)]
            ket[j * dim + j] = amp
            total += abs(amp) ** 2
    ket[0] = math.sqrt(1.0 - total)
    return ket


def evolution_phase(t, phi0=0.0, bias_field_gauss=6.93e-3):
    """Relative phase of the single-pair branches after storage time t.

    Read off the forward storage reference: the angle of the
    (d,E)-(u,L) coherence of the source ket after node A stores it for
    t with only the bias field acting.  The module docstring's law is phi(t) = rate * B * t + phi0.
    """
    coherence = CoherenceParams(t1_s=math.inf, t2_star_s=math.inf,
                                bias_field_gauss=bias_field_gauss,
                                mains_amplitude_gauss=0.0)
    s = atom_photon_state(SourceParams(phi0=phi0))
    rho, _ = decohere_state(s.state, s.cutoff, t, coherence,
                            FreezingGeometry())
    d, u = dualrail.qubit_indices(s.cutoff)
    dim = dualrail.sector_dim(s.cutoff)
    return float(np.angle(rho[d * dim + d, u * dim + u]))


class TestEvolutionPhase:
    def test_hand_value_one_milligauss(self):
        np.testing.assert_allclose(evolution_phase(100e-6,
                                                   bias_field_gauss=1e-3),
                                   0.8794100059190187, rtol=1e-12)

    def test_linear_in_time_and_field(self):
        np.testing.assert_allclose(
            evolution_phase(50e-6, bias_field_gauss=4e-3),
            evolution_phase(100e-6, bias_field_gauss=2e-3), rtol=1e-12)

    def test_offset_adds(self):
        np.testing.assert_allclose(
            evolution_phase(30e-6, phi0=0.25) - evolution_phase(30e-6),
            0.25, atol=1e-12)

    def test_zero_time_gives_offset(self):
        assert evolution_phase(0.0, phi0=1.5) == pytest.approx(1.5)

    def test_rate_matches_constants(self):
        # 0.1 us at 1 G stays inside one turn
        np.testing.assert_allclose(evolution_phase(1e-7, bias_field_gauss=1.0),
                                   CODATA.zeeman_rate_rad_per_s_gauss * 1e-7,
                                   rtol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(MemoryConfigError):
            evolution_phase(-1e-6)


class TestLadderConstruction:
    def test_matches_brute_force_enumeration(self):
        p = SourceParams(chi=0.08, phi0=0.4, double_amp_scale=0.7,
                         write_imbalance=0.1)
        s = atom_photon_state(p)
        ket = brute_force_ket(0.08, 0.4, 0.7, 0.1)
        np.testing.assert_allclose(s.state, np.outer(ket, ket.conj()),
                                   atol=1e-12)

    def test_single_pair_probability_is_chi_exactly(self):
        for chi in (0.01, 0.054, 0.2):
            s = atom_photon_state(SourceParams(chi=chi))
            probs = photon_numbers(s)
            assert probs[1] == pytest.approx(chi, rel=1e-12)

    def test_single_pair_probability_independent_of_scale(self):
        for scale in (0.0, 0.5, 1.0):
            s = atom_photon_state(SourceParams(chi=0.054,
                                               double_amp_scale=scale))
            assert photon_numbers(s)[1] == pytest.approx(0.054)

    def test_double_pair_probability(self):
        # balanced bins: chi_e = chi_l = chi/2, three double branches
        chi, scale = 0.054, 0.8
        s = atom_photon_state(SourceParams(chi=chi, double_amp_scale=scale))
        expected = 3.0 * (chi / 2.0) ** 2 * scale ** 2
        assert photon_numbers(s)[2] == pytest.approx(expected, rel=1e-12)

    def test_probabilities_sum_to_one(self):
        s = atom_photon_state(SourceParams(chi=0.1, double_amp_scale=0.6))
        np.testing.assert_allclose(photon_numbers(s).sum(), 1.0,
                                   atol=1e-12)

    def test_state_is_pure(self):
        s = atom_photon_state(SourceParams(chi=0.12, phi0=0.3))
        purity = np.trace(s.state @ s.state).real
        assert purity == pytest.approx(1.0, abs=1e-10)
        validate(s.state)

    def test_ladder_weight_monotone_in_chi(self):
        # the ladder weight is the population outside the joint vacuum
        weights = [1.0 - atom_photon_state(SourceParams(chi=c))
                   .state[0, 0].real
                   for c in (0.01, 0.054, 0.1, 0.2, 0.4)]
        assert all(0.0 < w < 1.0 for w in weights)
        assert all(a < b for a, b in zip(weights, weights[1:]))

    def test_imbalance_shifts_population(self):
        s = atom_photon_state(SourceParams(chi=0.1, write_imbalance=0.5))
        pops = np.diag(s.state).real.reshape(6, 6)
        early = pops[1, 1]
        late = pops[2, 2]
        assert early == pytest.approx(0.075, rel=1e-12)
        assert late == pytest.approx(0.025, rel=1e-12)

    def test_dims(self):
        s = atom_photon_state(SourceParams())
        assert isinstance(s, AtomPhotonState)
        assert s.cutoff == 2
        assert s.state.shape == (36, 36)
        assert dualrail.sector_dim(2) ** 2 == 36


class TestQubitBlock:
    def xx_observable(self):
        mat = np.zeros((4, 4))
        mat[0, 3] = mat[3, 0] = mat[1, 2] = mat[2, 1] = 1.0
        return mat

    def test_block_order(self):
        # (d,E), (d,L), (u,E), (u,L): spin-wave mode major, photon minor
        s = atom_photon_state(SourceParams(phi0=0.4, write_imbalance=0.2))
        block, prob = qubit_block(SourceParams(phi0=0.4, write_imbalance=0.2))
        assert block.shape == (4, 4)
        d, u = dualrail.qubit_indices(s.cutoff)
        joint = [a * 6 + p for a in (d, u) for p in (d, u)]
        np.testing.assert_allclose(block * prob,
                                   s.state[np.ix_(joint, joint)],
                                   atol=1e-15)

    def test_block_weight_is_chi(self):
        for scale in (0.0, 0.66, 1.0):
            p = SourceParams(chi=0.054, double_amp_scale=scale)
            _, prob = qubit_block(p)
            assert prob == pytest.approx(0.054, rel=1e-12)

    def test_zero_double_scale_gives_unit_fidelity(self):
        p = SourceParams(chi=0.054, phi0=0.37, double_amp_scale=0.0)
        block, _ = qubit_block(p)
        ideal = np.zeros(4, dtype=complex)
        ideal[0] = 1.0 / math.sqrt(2.0)
        ideal[3] = np.exp(-1j * 0.37) / math.sqrt(2.0)
        fidelity = float(np.real(ideal.conj() @ block @ ideal))
        assert fidelity == pytest.approx(1.0, abs=1e-14)

    def test_xx_correlator_is_cosine_of_offset(self):
        xx = self.xx_observable()
        for phi0 in (0.0, 0.3, 1.2, math.pi / 2.0, 2.9):
            p = SourceParams(chi=0.054, phi0=phi0, double_amp_scale=0.0)
            block, _ = qubit_block(p)
            corr = float(np.real(np.trace(block @ xx)))
            np.testing.assert_allclose(corr, math.cos(phi0), atol=1e-9)

    def test_block_is_balanced_bell_pair(self):
        block, _ = qubit_block(SourceParams())
        pops = np.diag(block).real
        np.testing.assert_allclose(pops, [0.5, 0.0, 0.0, 0.5], atol=1e-12)


class TestConfigValidation:
    def test_chi_bounds(self):
        with pytest.raises(SourceConfigError):
            SourceParams(chi=0.0)
        with pytest.raises(SourceConfigError):
            SourceParams(chi=1.0)

    def test_chi_ladder_headroom(self):
        # chi * (1 + chi) must stay below 1
        with pytest.raises(SourceConfigError):
            SourceParams(chi=0.62)

    def test_cutoff_minimum(self):
        with pytest.raises(SourceConfigError):
            SourceParams(fock_cutoff=1)

    def test_negative_scale_rejected(self):
        with pytest.raises(SourceConfigError):
            SourceParams(double_amp_scale=-0.1)

    def test_imbalance_bounds(self):
        with pytest.raises(SourceConfigError):
            SourceParams(write_imbalance=1.0)

    def test_collection_bounds(self):
        with pytest.raises(SourceConfigError):
            SourceParams(collection=1.2)

    def test_ladder_outweighing_one_rejected_by_state_and_features(self):
        # the retained ladder weighs 0.5 + 0.1875 s^2 at chi = 0.5
        p = SourceParams(chi=0.5, double_amp_scale=10.0)
        for build in (atom_photon_state, features):
            with pytest.raises(SourceConfigError, match="ladder weight"):
                build(p)

