"""Operator toolbox: channels, factor-local maps, and the test oracles."""

import math

import numpy as np
import pytest

from memlink import detection, memory_a, qcore
from memlink.config import ExperimentBundle
from memlink.qcore import (PAULI, KrausChannel, QuantumStateError,
                           adjoint_matrix, apply_to_second)
from oracles import (apply_channel, embedded, expectation, partial_trace,
                     post_select, pure_state, validate)


def loss_channel_qubit(survival):
    """Amplitude damping on {empty, occupied} with the given survival."""
    k0 = np.array([[1, 0], [0, np.sqrt(survival)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(1 - survival)], [0, 0]], dtype=complex)
    return KrausChannel([k0, k1])


def dephasing_channel_qubit(factor):
    """Phase damping that scales the off-diagonals by ``factor``."""
    p = (1.0 - factor) / 2.0
    return KrausChannel([np.sqrt(1 - p) * np.eye(2, dtype=complex),
                         np.sqrt(p) * PAULI["Z"]])


def plus_state():
    return pure_state([1.0, 1.0])


def bell_phi_plus():
    return pure_state([1.0, 0.0, 0.0, 1.0])


class TestDensityMatrix:
    def test_validate_accepts_physical_state(self):
        rho = pure_state([1.0, 1.0j])
        validate(rho)
        np.testing.assert_allclose(rho.trace(), 1.0, atol=1e-12)

    def test_validate_rejects_non_hermitian(self):
        with pytest.raises(AssertionError, match="Hermitian"):
            validate(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_validate_rejects_wrong_trace(self):
        with pytest.raises(AssertionError, match="trace"):
            validate(np.eye(2))

    def test_validate_rejects_negative_eigenvalue(self):
        with pytest.raises(AssertionError, match="negative eigenvalue"):
            validate(np.array([[1.2, 0.0], [0.0, -0.2]]))

    def test_zero_ket_rejected(self):
        with pytest.raises(ValueError):
            pure_state([0.0, 0.0])


class TestObservable:
    def test_pauli_set_is_dichotomic(self):
        for name in ("X", "Y", "Z"):
            np.testing.assert_allclose(PAULI[name] @ PAULI[name], np.eye(2),
                                       atol=1e-15)

    def test_tensor_of_observables(self):
        zz = np.kron(PAULI["Z"], PAULI["Z"])
        np.testing.assert_allclose(zz, np.diag([1, -1, -1, 1]), atol=1e-15)
        np.testing.assert_allclose(zz @ zz, np.eye(4), atol=1e-15)


class TestChannels:
    def test_identity_channel_leaves_state(self):
        rho = plus_state()
        ident = KrausChannel([np.eye(2, dtype=complex)])
        out = apply_channel(rho, ident.operators)
        np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_full_dephasing_kills_coherence(self):
        out = apply_channel(plus_state(),
                            dephasing_channel_qubit(0.0).operators)
        np.testing.assert_allclose(out, np.diag([0.5, 0.5]), atol=1e-12)

    def test_amplitude_damping_hand_value(self):
        # excited state through survival 0.7: population drops to 0.7
        rho = pure_state([0.0, 1.0])
        out = apply_channel(rho, loss_channel_qubit(0.7).operators)
        np.testing.assert_allclose(np.diag(out).real, [0.3, 0.7],
                                   atol=1e-12)

    def test_partial_dephasing_scales_off_diagonals(self):
        out = apply_channel(plus_state(),
                            dephasing_channel_qubit(0.25).operators)
        np.testing.assert_allclose(out[0, 1], 0.25 * 0.5, atol=1e-12)

    def test_over_complete_channel_rejected(self):
        ops = [np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex)]
        with pytest.raises(QuantumStateError):
            KrausChannel(ops)

    def test_subunital_channel_rejected(self):
        # applied, a sub-unital set would renormalize the lost
        # probability away unnoticed
        with pytest.raises(QuantumStateError):
            KrausChannel([np.sqrt(0.5) * np.eye(2, dtype=complex)])
        with pytest.raises(QuantumStateError):
            KrausChannel(loss_channel_qubit(0.3).operators[:1])

    def test_channel_composition_matches_composed_kraus(self):
        """Applying two channels in sequence equals the composed map."""
        a = loss_channel_qubit(0.8)
        b = dephasing_channel_qubit(0.6)
        rho = pure_state([0.6, 0.8j])
        seq = apply_channel(apply_channel(rho, a.operators), b.operators)
        composed = KrausChannel(
            [kb @ ka for kb in b.operators for ka in a.operators])
        direct = apply_channel(rho, composed.operators)
        np.testing.assert_allclose(seq, direct, atol=1e-9)
        # the adjoints compose in reverse order, as matrix products
        np.testing.assert_allclose(adjoint_matrix(b) @ adjoint_matrix(a),
                                   adjoint_matrix(composed), atol=1e-12)


class TestExpectation:
    def test_z_on_ground_state(self):
        rho = pure_state([1.0, 0.0])
        assert expectation(rho, PAULI["Z"]) == pytest.approx(1.0, abs=1e-12)

    def test_bell_state_identities(self):
        rho = bell_phi_plus()
        for name, value in (("X", 1.0), ("Y", -1.0), ("Z", 1.0)):
            obs = np.kron(PAULI[name], PAULI[name])
            assert expectation(rho, obs) == pytest.approx(value, abs=1e-10)

    def test_tilted_basis_trace_oracle(self):
        # <Z (x) (-Z+X)/sqrt(2)> on the maximally correlated pair
        rho = bell_phi_plus()
        tilted = (-PAULI["Z"] + PAULI["X"]) / math.sqrt(2.0)
        obs = np.kron(PAULI["Z"], tilted)
        assert expectation(rho, obs) == pytest.approx(-1.0 / math.sqrt(2.0),
                                                      abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(bell_phi_plus(), PAULI["Z"])


class TestReshaping:
    def test_partial_trace_of_product(self):
        a = pure_state([1.0, 0.0])
        b = plus_state()
        joint = np.kron(a, b)
        kept = partial_trace(joint, (2, 2), keep=1)
        np.testing.assert_allclose(kept, b, atol=1e-12)

    def test_partial_trace_of_entangled_pair_is_mixed(self):
        red = partial_trace(bell_phi_plus(), (2, 2), keep=0)
        np.testing.assert_allclose(red, np.eye(2) / 2.0, atol=1e-12)

    def test_post_select_tracks_probability(self):
        rho = pure_state([1.0, 0.0, 0.0, 1.0])
        _, prob = post_select(rho, [0, 3])
        assert prob == pytest.approx(1.0, abs=1e-12)
        sub2, prob2 = post_select(rho, [0, 1])
        assert prob2 == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(sub2, np.diag([1.0, 0.0]), atol=1e-12)

    def test_post_select_on_dead_branch(self):
        rho = pure_state([1.0, 0.0])
        dead, prob = post_select(rho, [1])
        assert prob == 0.0
        validate(dead)

    def test_every_engine_output_stays_physical(self):
        """Invariant sweep: states coming out of the toolbox validate."""
        rng = np.random.default_rng(3)
        rho = pure_state(rng.normal(size=4) + 1j * rng.normal(size=4))
        validate(rho)
        out = apply_to_second(rho, loss_channel_qubit(0.4))
        validate(out)
        validate(partial_trace(out, (2, 2), 0))
        validate(post_select(out, [0, 1])[0])


class TestFactorLocalMaps:
    def test_apply_to_second_is_kron_with_identity(self):
        rng = np.random.default_rng(5)
        ch = loss_channel_qubit(0.35)
        for d0 in (1, 2, 3):
            ket = rng.normal(size=2 * d0) + 1j * rng.normal(size=2 * d0)
            rho = pure_state(ket)
            want = apply_channel(rho, embedded(ch.operators, d0, 1))
            np.testing.assert_allclose(apply_to_second(rho, ch), want,
                                       atol=1e-14)

    def test_apply_to_second_maps_a_stack_row_by_row(self):
        # complex Kraus operators, and operators that are not states: the
        # map is linear, so a state's derivatives ride along in a stack
        rng = np.random.default_rng(7)
        unitary = np.linalg.qr(rng.normal(size=(3, 3))
                               + 1j * rng.normal(size=(3, 3)))[0]
        ch = KrausChannel([math.sqrt(0.3) * unitary,
                           math.sqrt(0.7) * np.eye(3, dtype=complex)])
        stack = (rng.normal(size=(3, 6, 6))
                 + 1j * rng.normal(size=(3, 6, 6)))
        ops = embedded(ch.operators, 2, 1)
        want = [sum(k @ row @ k.conj().T for k in ops) for row in stack]
        np.testing.assert_allclose(apply_to_second(stack, ch), want,
                                   atol=1e-14)

    def test_empty_stack_is_trace_preserving(self):
        # no channel in it can leak probability
        empty = KrausChannel(np.zeros((0, 2, 2, 2)))
        assert adjoint_matrix(empty).shape == (0, 4, 4)

    def test_adjoint_matrix_is_the_heisenberg_dual(self):
        """Tr[E Phi(rho)] = Tr[Phi^dag(E) rho], Phi^dag from the matrix."""
        rng = np.random.default_rng(6)
        ch = KrausChannel([kb @ ka
                           for kb in dephasing_channel_qubit(0.3).operators
                           for ka in loss_channel_qubit(0.6).operators])
        rho = pure_state(rng.normal(size=2) + 1j * rng.normal(size=2))
        obs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pulled = (obs.ravel() @ adjoint_matrix(ch)).reshape(2, 2)
        np.testing.assert_allclose(np.trace(pulled @ rho),
                                   np.trace(obs @ apply_channel(
                                       rho, ch.operators)), atol=1e-14)

    def test_adjoint_matrix_is_the_kraus_sum_bit_for_bit(self,
                                                         monkeypatch):
        # every loss and transfer channel a 250-delay sweep builds, at
        # node A (stacked by delay) and in the prefix (one per map): each
        # entry has at most one nonzero Kraus term, so the one product
        # gives the entry-wise sum's bits
        seen = []

        def recording(channel):
            seen.append(channel)
            return adjoint_matrix(channel)
        monkeypatch.setattr(qcore, "adjoint_matrix", recording)
        monkeypatch.setattr(memory_a, "adjoint_matrix", recording)
        detection.trial_distributions(ExperimentBundle(), [None],
                                      np.linspace(0.0, 400e-6, 250))
        kinds = sorted({(ch.name, ch.operators.shape[:-3]) for ch in seen})
        assert kinds == [("loss", ()), ("loss", (250,)),
                         ("transfer", (250,))]
        for ch in seen:
            ops = ch.operators
            want = np.einsum("...kxa,...kyb->...xyab", ops.conj(), ops)
            assert np.array_equal(adjoint_matrix(ch), want.reshape(
                ops.shape[:-3] + (ch.dim ** 2,) * 2))

    def test_adjoint_matrix_of_a_complex_channel(self):
        rng = np.random.default_rng(8)
        # three Kraus operators from the blocks of a random isometry
        iso = np.linalg.qr(rng.normal(size=(9, 3))
                           + 1j * rng.normal(size=(9, 3)))[0]
        ch = KrausChannel(iso.reshape(3, 3, 3))
        want = np.einsum("kxa,kyb->xyab", ch.operators.conj(), ch.operators)
        np.testing.assert_allclose(adjoint_matrix(ch), want.reshape(9, 9),
                                   rtol=0.0, atol=1e-14)

    def test_stacked_channels_are_checked_one_by_one(self):
        good = loss_channel_qubit(0.5).operators
        stack = KrausChannel(np.stack([good, loss_channel_qubit(0.9)
                                       .operators]))
        assert stack.operators.shape == (2, 2, 2, 2)
        assert adjoint_matrix(stack).shape == (2, 4, 4)
        with pytest.raises(QuantumStateError):
            KrausChannel(np.stack([good, 0.5 * good]))
