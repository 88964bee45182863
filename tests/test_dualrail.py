"""Two-mode truncated Fock sector: basis order and operator toolbox."""

import math

import numpy as np
import pytest

from memlink import dualrail
from memlink.qcore import DensityMatrix, apply_channel, pure_state


def sector_state(amps, cutoff=2):
    labels = dualrail.sector_labels(cutoff, "vac", "E", "L")
    return pure_state(amps, labels)


class TestBasisLayout:
    def test_occupation_order_at_cutoff_two(self):
        assert dualrail.occupations(2) == (
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_sector_dimension(self):
        assert dualrail.sector_dim(1) == 3
        assert dualrail.sector_dim(2) == 6
        assert dualrail.sector_dim(3) == 10

    def test_labels(self):
        assert dualrail.sector_labels(2, "vac", "E", "L") == (
            "vac", "E", "L", "EE", "EL", "LL")

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
    def test_total_number_diagonal(self):
        n = dualrail.number_operator(2)
        np.testing.assert_allclose(np.diag(n).real, [0, 1, 1, 2, 2, 2],
                                   atol=1e-15)

    def test_per_mode_number(self):
        n1 = dualrail.number_operator(2, mode=0)
        n2 = dualrail.number_operator(2, mode=1)
        np.testing.assert_allclose(np.diag(n1).real, [0, 1, 0, 2, 1, 0])
        np.testing.assert_allclose(np.diag(n2).real, [0, 0, 1, 0, 1, 2])
        np.testing.assert_allclose(n1 + n2, dualrail.number_operator(2))

    def test_mode2_count_vector(self):
        np.testing.assert_array_equal(dualrail.mode2_count_vector(2),
                                      [0, 0, 1, 0, 1, 2])


class TestLossChannel:
    def test_trace_preserving(self):
        ch = dualrail.loss_channel(2, 0.3, 0.8)
        assert ch.is_trace_preserving()

    def test_unit_survival_is_identity(self):
        ch = dualrail.loss_channel(2, 1.0, 1.0)
        rho = sector_state([0.2, 0.4, 0.5, 0.3, 0.4, 0.2])
        out = apply_channel(rho, ch)
        np.testing.assert_allclose(out.mat, rho.mat, atol=1e-12)

    def test_single_photon_survival_probability(self):
        rho = sector_state([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        out = apply_channel(rho, dualrail.loss_channel(2, 0.22, 0.9))
        pops = out.probabilities()
        assert pops[1] == pytest.approx(0.22, abs=1e-12)
        assert pops[0] == pytest.approx(0.78, abs=1e-12)

    def test_two_photon_loss_is_binomial(self):
        # |EE> through survival 0.5 per photon: 0.25 / 0.5 / 0.25 split
        rho = sector_state([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        out = apply_channel(rho, dualrail.loss_channel(2, 0.5, 1.0))
        pops = out.probabilities()
        np.testing.assert_allclose([pops[0], pops[1], pops[3]],
                                   [0.25, 0.5, 0.25], atol=1e-12)

    def test_coherence_picks_up_amplitude_factors(self):
        rho = sector_state([0.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        out = apply_channel(rho, dualrail.loss_channel(2, 0.5, 0.5))
        # qubit block coherence scales by sqrt(eta1*eta2) over the
        # now-subnormalized block
        np.testing.assert_allclose(out.mat[1, 2].real, 0.25, atol=1e-12)

    def test_invalid_eta_rejected(self):
        with pytest.raises(ValueError):
            dualrail.loss_channel(2, 1.2, 0.5)

    def test_embedding_is_kron_with_identities(self):
        bare = dualrail.loss_channel(2, 0.3, 0.8)
        for left, right in ((6, 1), (1, 6), (2, 3)):
            ch = dualrail.loss_channel(2, 0.3, 0.8, embed=(left, right))
            assert len(ch.operators) == len(bare.operators)
            for k, k0 in zip(ch.operators, bare.operators):
                want = np.kron(np.kron(np.eye(left), k0), np.eye(right))
                np.testing.assert_array_equal(k, want)

    def test_repeated_build_is_shared_and_read_only(self):
        ch = dualrail.loss_channel(2, 0.41, 0.57, embed=(6, 1))
        assert dualrail.loss_channel(2, 0.41, 0.57, embed=(6, 1)) is ch
        with pytest.raises(ValueError):
            ch.operators[0][0, 0] = 0.0


class TestModeRotation:
    def test_rotation_is_unitary(self):
        w = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
        r = dualrail.mode_rotation(2, w)
        np.testing.assert_allclose(r @ r.conj().T, np.eye(6), atol=1e-10)

    def test_rotation_preserves_total_number(self):
        w = np.array([[math.cos(0.3), -math.sin(0.3)],
                      [math.sin(0.3), math.cos(0.3)]])
        r = dualrail.mode_rotation(2, w)
        n = dualrail.number_operator(2)
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
        assert dualrail.transfer_channel(2, 0.37).is_trace_preserving()

    def test_qubit_block_is_amplitude_damping(self):
        gamma = 0.3
        rho = sector_state([0.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        out = apply_channel(rho, dualrail.transfer_channel(2, gamma))
        pops = out.probabilities()
        assert pops[2] == pytest.approx(0.5 * (1 - gamma), abs=1e-12)
        assert pops[1] == pytest.approx(0.5 * (1 + gamma), abs=1e-12)
        np.testing.assert_allclose(out.mat[1, 2].real,
                                   0.5 * math.sqrt(1 - gamma), atol=1e-12)

    def test_full_transfer_moves_everything(self):
        rho = sector_state([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        out = apply_channel(rho, dualrail.transfer_channel(2, 1.0))
        assert out.probabilities()[3] == pytest.approx(1.0, abs=1e-12)

    def test_embedding_is_kron_with_identities(self):
        bare = dualrail.transfer_channel(2, 0.37)
        ch = dualrail.transfer_channel(2, 0.37, embed=(1, 6))
        assert dualrail.transfer_channel(2, 0.37, embed=(1, 6)) is ch
        for k, k0 in zip(ch.operators, bare.operators, strict=True):
            np.testing.assert_array_equal(k, np.kron(k0, np.eye(6)))


class TestPhaseAndDephasing:
    def test_phase_unitary_diagonal(self):
        u = dualrail.phase_unitary(2, 0.7)
        expected = np.exp(-1j * 0.7 * np.array([0, 0, 1, 0, 1, 2]))
        np.testing.assert_allclose(np.diag(u), expected, atol=1e-15)

    def test_dephasing_envelope_quadratic_in_occupation_gap(self):
        env = dualrail.dephasing_envelope(2, 0.05)
        assert env[1, 2] == pytest.approx(math.exp(-0.05))
        assert env[3, 5] == pytest.approx(math.exp(-4 * 0.05))
        np.testing.assert_allclose(np.diag(env), np.ones(6))

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            dualrail.dephasing_envelope(2, -0.1)


class TestDetectionPovm:
    def test_click_probability_table(self):
        pc = dualrail.click_probabilities(2, eta=0.5, dark=0.0)
        # one photon: 0.5; two photons: 1 - 0.25
        assert pc[1, 0] == pytest.approx(0.5)
        assert pc[3, 0] == pytest.approx(0.75)
        assert pc[0, 0] == pytest.approx(0.0)

    def test_dark_counts_add_to_vacuum(self):
        pc = dualrail.click_probabilities(2, eta=0.5, dark=0.01)
        assert pc[0, 0] == pytest.approx(0.01)
        assert pc[1, 0] == pytest.approx(1 - 0.5 * 0.99)

    def test_povm_resolves_identity(self):
        basis = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
        povm = dualrail.detection_povm(2, basis, eta=0.6, dark=2e-3)
        total = sum(povm.values())
        np.testing.assert_allclose(total, np.eye(6), atol=1e-9)

    def test_povm_elements_positive(self):
        povm = dualrail.detection_povm(2, None, eta=0.4, dark=1e-3)
        for mat in povm.values():
            eigs = np.linalg.eigvalsh(mat)
            assert eigs.min() > -1e-12

    def test_bare_basis_single_photon_routing(self):
        povm = dualrail.detection_povm(2, None, eta=1.0, dark=0.0)
        ket = np.zeros(6)
        ket[1] = 1.0
        assert ket @ povm["plus"] @ ket == pytest.approx(1.0)
        assert ket @ povm["minus"] @ ket == pytest.approx(0.0)


class TestQubitObservable:
    def test_embedding_matches_block(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        labels = dualrail.sector_labels(2, "vac", "E", "L")
        obs = dualrail.qubit_observable(2, x, labels, name="X")
        assert obs.mat[1, 2] == pytest.approx(1.0)
        assert obs.mat[0, 0] == pytest.approx(0.0)
        assert obs.mat[3, 3] == pytest.approx(0.0)

    def test_rest_of_sector_has_zero_eigenvalue(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        labels = dualrail.sector_labels(2, "vac", "E", "L")
        obs = dualrail.qubit_observable(2, z, labels)
        vals = np.linalg.eigvalsh(obs.mat)
        assert sorted(np.round(vals, 9)) == [-1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
