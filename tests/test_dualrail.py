"""Two-mode truncated Fock sector: basis order and operator toolbox."""

import math

import numpy as np
import pytest

from memlink import dualrail
from memlink.qcore import adjoint_matrix, apply_to_second
from oracles import (apply_channel, detection_povm, embedded, phase_unitary,
                     pure_state)


def completeness(channel):
    """sum_k K^dag K, the identity for a trace-preserving set."""
    return sum(k.conj().T @ k for k in channel.operators)


class TestBasisLayout:
    def test_occupation_order_at_cutoff_two(self):
        assert dualrail.occupations(2) == (
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_sector_dimension(self):
        assert dualrail.sector_dim(1) == 3
        assert dualrail.sector_dim(2) == 6
        assert dualrail.sector_dim(3) == 10

    def test_qubit_indices(self):
        assert dualrail.qubit_indices(2) == (1, 2)

    def test_index_lookup_inverts_occupations(self):
        idx = dualrail.index_of(2)
        for i, occ in enumerate(dualrail.occupations(2)):
            assert idx[occ] == i

    def test_cutoff_below_one_rejected(self):
        with pytest.raises(ValueError):
            dualrail.occupations(0)


class TestNumberOperators:
    def test_mode2_count_vector(self):
        np.testing.assert_array_equal(dualrail.mode2_count_vector(2),
                                      [0, 0, 1, 0, 1, 2])


class TestLossChannel:
    def test_trace_preserving(self):
        ch = dualrail.loss_channel(2, 0.3, 0.8)
        np.testing.assert_allclose(completeness(ch), np.eye(6), atol=1e-12)

    def test_unit_survival_is_identity(self):
        ch = dualrail.loss_channel(2, 1.0, 1.0)
        rho = pure_state([0.2, 0.4, 0.5, 0.3, 0.4, 0.2])
        out = apply_channel(rho, ch.operators)
        np.testing.assert_allclose(out, rho, atol=1e-12)

    def test_single_photon_survival_probability(self):
        rho = pure_state([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        out = apply_channel(rho, dualrail.loss_channel(2, 0.22, 0.9).operators)
        pops = np.diag(out).real
        assert pops[1] == pytest.approx(0.22, abs=1e-12)
        assert pops[0] == pytest.approx(0.78, abs=1e-12)

    def test_two_photon_loss_is_binomial(self):
        # |EE> through survival 0.5 per photon: 0.25 / 0.5 / 0.25 split
        rho = pure_state([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        out = apply_channel(rho, dualrail.loss_channel(2, 0.5, 1.0).operators)
        pops = np.diag(out).real
        np.testing.assert_allclose([pops[0], pops[1], pops[3]],
                                   [0.25, 0.5, 0.25], atol=1e-12)

    def test_coherence_picks_up_amplitude_factors(self):
        rho = pure_state([0.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        out = apply_channel(rho, dualrail.loss_channel(2, 0.5, 0.5).operators)
        # qubit block coherence scales by sqrt(eta1*eta2) over the
        # now-subnormalized block
        np.testing.assert_allclose(out[1, 2].real, 0.25, atol=1e-12)

    def test_invalid_eta_rejected(self):
        with pytest.raises(ValueError):
            dualrail.loss_channel(2, 1.2, 0.5)

    def test_embedding_is_kron_with_identities(self):
        # on a joint state the channel acts on its own factor exactly as
        # the operators padded with identities would
        ch = dualrail.loss_channel(2, 0.3, 0.8)
        rng = np.random.default_rng(11)
        for left in (1, 2, 6):
            ket = rng.normal(size=6 * left) + 1j * rng.normal(size=6 * left)
            rho = pure_state(ket)
            want = apply_channel(rho, embedded(ch.operators, left, 1))
            np.testing.assert_allclose(apply_to_second(rho, ch), want,
                                       atol=1e-14)

    def test_vector_of_survivals_stacks_one_channel_each(self):
        eta1 = np.array([1.0, 0.7, 0.2])
        eta2 = np.array([0.5, 0.9, 0.0])
        stack = dualrail.loss_channel(2, eta1, eta2)
        assert stack.operators.shape[0] == 3
        for row, (a, b) in enumerate(zip(eta1, eta2)):
            np.testing.assert_array_equal(
                stack.operators[row], dualrail.loss_channel(2, a, b).operators)


class TestModeRotation:
    def test_rotation_is_unitary(self):
        w = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
        r = dualrail.mode_rotation(2, w)
        np.testing.assert_allclose(r @ r.conj().T, np.eye(6), atol=1e-10)

    def test_rotation_preserves_total_number(self):
        w = np.array([[math.cos(0.3), -math.sin(0.3)],
                      [math.sin(0.3), math.cos(0.3)]])
        r = dualrail.mode_rotation(2, w)
        n = np.diag([n1 + n2 for n1, n2 in dualrail.occupations(2)])
        np.testing.assert_allclose(r @ n @ r.conj().T, n, atol=1e-10)

    def test_balanced_splitter_on_single_photon(self):
        w = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
        r = dualrail.mode_rotation(2, w)
        ket = np.zeros(6, dtype=complex)
        ket[1] = 1.0
        out = r @ ket
        np.testing.assert_allclose(np.abs(out[1]) ** 2, 0.5, atol=1e-12)
        np.testing.assert_allclose(np.abs(out[2]) ** 2, 0.5, atol=1e-12)

    def test_non_unitary_map_rejected(self):
        with pytest.raises(ValueError):
            dualrail.mode_rotation(2, np.array([[1.0, 0.0], [0.0, 0.5]]))


class TestTransferChannel:
    def test_trace_preserving(self):
        ch = dualrail.transfer_channel(2, 0.37)
        np.testing.assert_allclose(completeness(ch), np.eye(6), atol=1e-12)

    def test_qubit_block_is_amplitude_damping(self):
        gamma = 0.3
        rho = pure_state([0.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        out = apply_channel(rho, dualrail.transfer_channel(2, gamma).operators)
        pops = np.diag(out).real
        assert pops[2] == pytest.approx(0.5 * (1 - gamma), abs=1e-12)
        assert pops[1] == pytest.approx(0.5 * (1 + gamma), abs=1e-12)
        np.testing.assert_allclose(out[1, 2].real,
                                   0.5 * math.sqrt(1 - gamma), atol=1e-12)

    def test_full_transfer_moves_everything(self):
        rho = pure_state([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        out = apply_channel(rho, dualrail.transfer_channel(2, 1.0).operators)
        assert np.diag(out).real[3] == pytest.approx(1.0, abs=1e-12)

    def test_embedding_is_kron_with_identities(self):
        # pulled back on the first factor of a joint state, the channel
        # gives the statistics of its operators padded with identities
        ch = dualrail.transfer_channel(2, 0.37)
        rng = np.random.default_rng(12)
        rho = pure_state(rng.normal(size=36) + 1j * rng.normal(size=36))
        obs_a, obs_b = (m + m.conj().T for m in rng.normal(size=(2, 6, 6)))
        pulled = (obs_a.ravel() @ adjoint_matrix(ch)).reshape(6, 6)
        forward = apply_channel(rho, embedded(ch.operators, 1, 6))
        np.testing.assert_allclose(np.trace(np.kron(pulled, obs_b) @ rho),
                                   np.trace(np.kron(obs_a, obs_b) @ forward),
                                   atol=1e-13)

    def test_vector_of_probabilities_stacks_one_channel_each(self):
        gammas = np.array([0.0, 0.37, 1.0])
        ch = dualrail.transfer_channel(2, gammas)
        for row, gamma in enumerate(gammas):
            np.testing.assert_array_equal(
                ch.operators[row], dualrail.transfer_channel(2, gamma).operators)


class TestPhaseAndDephasing:
    def test_phase_unitary_diagonal(self):
        u = phase_unitary(2, 0.7)
        expected = np.exp(-1j * 0.7 * np.array([0, 0, 1, 0, 1, 2]))
        np.testing.assert_allclose(np.diag(u), expected, atol=1e-15)

    def test_dephasing_envelope_quadratic_in_occupation_gap(self):
        env = dualrail.dephasing_envelope(2, 0.05)
        assert env[1, 2] == pytest.approx(math.exp(-0.05))
        assert env[3, 5] == pytest.approx(math.exp(-4 * 0.05))
        np.testing.assert_allclose(np.diag(env), np.ones(6))

    def test_dephasing_envelope_stacks_over_arguments(self):
        envs = dualrail.dephasing_envelope(2, np.array([0.0, 0.05]))
        np.testing.assert_array_equal(envs[0], np.ones((6, 6)))
        np.testing.assert_array_equal(envs[1],
                                      dualrail.dephasing_envelope(2, 0.05))

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            dualrail.dephasing_envelope(2, -0.1)


def at_dark(poly: dict, dark: float) -> dict:
    """The POVM of ``threshold_povm`` coefficients at one dark rate."""
    return {key: p[0] + p[1] * dark + p[2] * dark * dark
            for key, p in poly.items()}


def plus_clicks(cutoff: int, eta: float, dark: float) -> np.ndarray:
    """Probability that the "plus" detector fires, per bare basis state."""
    povm = at_dark(dualrail.threshold_povm(cutoff, None, eta), dark)
    return np.real(np.diag(povm["plus"] + povm["both"]))


class TestDetectionPovm:
    def test_click_probability_table(self):
        pc = plus_clicks(2, eta=0.5, dark=0.0)
        # one photon: 0.5; two photons: 1 - 0.25
        assert pc[1] == pytest.approx(0.5)
        assert pc[3] == pytest.approx(0.75)
        assert pc[0] == pytest.approx(0.0)

    def test_dark_counts_add_to_vacuum(self):
        pc = plus_clicks(2, eta=0.5, dark=0.01)
        assert pc[0] == pytest.approx(0.01)
        assert pc[1] == pytest.approx(1 - 0.5 * 0.99)

    def test_povm_resolves_identity(self):
        basis = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
        rot = dualrail.mode_rotation(2, basis.conj().T)
        povm = at_dark(dualrail.threshold_povm(2, rot, eta=0.6), 2e-3)
        total = sum(povm.values())
        np.testing.assert_allclose(total, np.eye(6), atol=1e-9)

    def test_povm_elements_positive(self):
        povm = at_dark(dualrail.threshold_povm(2, None, eta=0.4), 1e-3)
        for mat in povm.values():
            eigs = np.linalg.eigvalsh(mat)
            assert eigs.min() > -1e-12

    @pytest.mark.parametrize("dark", [0.0, 3e-4, 0.2])
    def test_polynomial_in_dark_probability_is_the_product_povm(self, dark):
        basis = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2.0)
        rot = dualrail.mode_rotation(2, basis)
        poly = dualrail.threshold_povm(2, rot, eta=0.3)
        for key, mat in detection_povm(2, rot, eta=0.3, dark=dark).items():
            np.testing.assert_allclose(at_dark(poly, dark)[key], mat,
                                       rtol=0.0, atol=1e-15)
        # the elements sum to the identity at every dark rate
        total = sum(poly.values())
        np.testing.assert_allclose(total[0], np.eye(6), atol=1e-15)
        np.testing.assert_allclose(total[1:], 0.0, atol=1e-15)

    def test_vacuum_double_click_is_dark_squared(self):
        # in 1 - dark the vacuum's coefficients would be 1, -2 and 1,
        # and d^2 would come out of a cancellation; in dark they are 0,
        # 0 and 1
        basis = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2.0)
        rot = dualrail.mode_rotation(2, basis)
        dark = 1e-6
        both = at_dark(dualrail.threshold_povm(2, rot, eta=0.3), dark)["both"]
        assert both[0, 0].real == pytest.approx(dark * dark, rel=1e-12)

    def test_efficiency_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="detection efficiency"):
            dualrail.threshold_povm(2, None, eta=1.2)

    def test_bare_basis_single_photon_routing(self):
        povm = at_dark(dualrail.threshold_povm(2, None, eta=1.0), 0.0)
        ket = np.zeros(6)
        ket[1] = 1.0
        assert ket @ povm["plus"] @ ket == pytest.approx(1.0)
        assert ket @ povm["minus"] @ ket == pytest.approx(0.0)

