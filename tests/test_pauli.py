import numpy as np
import pytest
import scipy.linalg as sla

from rbtlab.pauli import (
    PAULIS,
    adjoint,
    avg_fidelity,
    choi,
    compose,
    min_eig_and_vector,
    overlap,
    superop_from_kraus,
    superop_from_unitary,
    superop_to_list,
    unital_part,
)
from rbtlab.channels import depolarizing

from conftest import random_cptp_superop, random_unitary

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
# Transfer matrix of the Hadamard worked out from the conjugation action:
# X <-> Z and Y -> -Y.
HADAMARD_SUPEROP = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)
QUARTER_Z = sla.expm(-1j * np.pi / 4 * PAULIS[3])
# Quarter turn about Z: X -> Y, Y -> -X.
QUARTER_Z_SUPEROP = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def amplitude_damping_kraus(gamma):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return [k0, k1]


class TestSuperopFromUnitary:
    def test_identity(self):
        assert np.allclose(superop_from_unitary(np.eye(2)), np.eye(4))

    def test_hadamard_rows(self):
        assert np.allclose(superop_from_unitary(HADAMARD), HADAMARD_SUPEROP, atol=1e-14)

    def test_quarter_z(self):
        assert np.allclose(superop_from_unitary(QUARTER_Z), QUARTER_Z_SUPEROP, atol=1e-14)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            superop_from_unitary(np.array([[1.0, 0.0], [0.0, 0.5]]))

    def test_result_orthogonal(self, rng):
        for _ in range(20):
            s = superop_from_unitary(random_unitary(rng))
            assert np.allclose(s.T @ s, np.eye(4), atol=1e-12)

    def test_homomorphism(self, rng):
        for _ in range(20):
            u, v = random_unitary(rng), random_unitary(rng)
            lhs = superop_from_unitary(u @ v)
            rhs = compose(superop_from_unitary(u), superop_from_unitary(v))
            assert np.abs(lhs - rhs).max() < 1e-12


class TestCompose:
    def test_hadamard_involution(self):
        h = superop_from_unitary(HADAMARD)
        assert np.allclose(compose(h, h), np.eye(4), atol=1e-14)

    def test_third_turn_squares(self):
        # The two body-diagonal rotations multiply as expected: the square of
        # the third-turn is the two-thirds turn about the same axis.
        c5 = sla.expm(-1j * np.pi / 3 * (PAULIS[1] + PAULIS[2] + PAULIS[3]) / np.sqrt(3))
        c6 = sla.expm(-1j * 2 * np.pi / 3 * (PAULIS[1] + PAULIS[2] + PAULIS[3]) / np.sqrt(3))
        lhs = compose(superop_from_unitary(c5), superop_from_unitary(c5))
        assert np.abs(lhs - superop_from_unitary(c6)).max() < 1e-12

    def test_identity_neutral(self, rng):
        e = random_cptp_superop(rng)
        assert np.allclose(compose(np.eye(4), e), e)


class TestAdjoint:
    def test_identity(self):
        assert np.allclose(adjoint(np.eye(4)), np.eye(4))

    def test_unitary_adjoint_is_inverse(self):
        c2 = sla.expm(-1j * np.pi / 2 * PAULIS[1])
        s = superop_from_unitary(c2)
        s_inv = superop_from_unitary(c2.conj().T)
        assert np.abs(adjoint(s) - s_inv).max() < 1e-12

    def test_involution(self, rng):
        e = random_cptp_superop(rng)
        assert np.allclose(adjoint(adjoint(e)), e)


class TestUnitalPart:
    def test_identity_fixed(self):
        assert np.allclose(unital_part(np.eye(4)), np.eye(4))

    def test_amplitude_damping(self):
        gamma = 0.37
        s = superop_from_kraus(amplitude_damping_kraus(gamma))
        assert np.allclose(s[:, 0], [1.0, 0.0, 0.0, gamma], atol=1e-12)
        u = unital_part(s)
        assert np.allclose(u[:, 0], [1.0, 0.0, 0.0, 0.0])
        root = np.sqrt(1.0 - gamma)
        assert np.allclose(np.diag(u), [1.0, root, root, 1.0 - gamma], atol=1e-12)

    def test_idempotent_and_fixes_unital(self, rng):
        e = random_cptp_superop(rng)
        once = unital_part(e)
        assert np.allclose(unital_part(once), once)
        u = superop_from_unitary(random_unitary(rng))
        assert np.allclose(unital_part(u), u, atol=1e-12)

    def test_stack_equals_each_matrix(self, rng):
        stack = np.stack([random_cptp_superop(rng) for _ in range(5)])
        before = stack.copy()
        expected = np.stack([unital_part(e) for e in stack])
        assert unital_part(stack).tobytes() == expected.tobytes()
        assert np.array_equal(stack, before)


class TestOverlap:
    def test_self_overlap_is_four(self, rng):
        for _ in range(5):
            s = superop_from_unitary(random_unitary(rng))
            assert overlap(s, s) == pytest.approx(4.0, abs=1e-12)

    def test_identity_vs_hadamard(self):
        # trace of the Hadamard transfer matrix: 1 + 0 - 1 + 0.
        assert overlap(np.eye(4), superop_from_unitary(HADAMARD)) == pytest.approx(0.0, abs=1e-12)

    def test_identity_vs_depolarizing(self):
        lam = 0.42
        assert overlap(np.eye(4), depolarizing(lam)) == pytest.approx(1 + 3 * lam)

    def test_conjugation_invariance(self, rng):
        c = random_cptp_superop(rng)
        e = random_cptp_superop(rng)
        for _ in range(10):
            u = superop_from_unitary(random_unitary(rng))
            conj = overlap(u @ c @ u.T, u @ e @ u.T)
            assert conj == pytest.approx(overlap(c, e), abs=1e-10)


class TestAvgFidelity:
    def test_exact_gate(self, rng):
        u = random_unitary(rng)
        assert avg_fidelity(superop_from_unitary(u), u) == pytest.approx(1.0, abs=1e-12)

    def test_fully_depolarizing(self):
        assert avg_fidelity(depolarizing(0.0), np.eye(2)) == pytest.approx(0.5)

    def test_depolarizing_linear(self):
        for lam in (0.2, 0.5, 0.9):
            assert avg_fidelity(depolarizing(lam), np.eye(2)) == pytest.approx((1 + lam) / 2)

    def test_in_unit_interval_for_cptp(self, rng):
        for _ in range(50):
            e = random_cptp_superop(rng)
            f = avg_fidelity(e, random_unitary(rng))
            assert -1e-12 <= f <= 1.0 + 1e-12

    @pytest.mark.parametrize("size", [1, 7, 2000])
    def test_stack_equals_each_matrix(self, rng, size):
        # One formula: a stack's fidelities are its members' own, bit for bit.
        u = random_unitary(rng)
        stack = np.stack([random_cptp_superop(rng) for _ in range(min(size, 50))])
        stack = stack[rng.integers(0, len(stack), size=size)]
        samples = avg_fidelity(stack, u)
        assert samples.shape == (size,)
        each = [avg_fidelity(e, u) for e in stack]
        assert all(type(f) is float for f in each)
        assert samples.tobytes() == np.array(each).tobytes()


class TestChoi:
    def test_identity_channel(self):
        vals = np.linalg.eigvalsh(choi(np.eye(4)))
        assert np.allclose(vals, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_depolarizing_spectrum(self):
        lam = 0.61
        vals = np.sort(np.linalg.eigvalsh(choi(depolarizing(lam))))
        expect = np.sort([(1 + 3 * lam) / 4] + [(1 - lam) / 4] * 3)
        assert np.allclose(vals, expect, atol=1e-12)

    def test_transpose_map_negative(self):
        transpose_map = np.diag([1.0, 1.0, -1.0, 1.0])
        assert np.linalg.eigvalsh(choi(transpose_map))[0] == pytest.approx(-0.5, abs=1e-12)

    def test_unit_trace_for_tp(self, rng):
        e = random_cptp_superop(rng)
        j = choi(e)
        assert np.trace(j).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(j - j.conj().T).max() < 1e-14

    def test_cptp_maps_have_positive_choi(self, rng):
        for _ in range(100):
            e = random_cptp_superop(rng, rank=int(rng.integers(1, 5)))
            assert np.linalg.eigvalsh(choi(e))[0] >= -1e-10


class TestMinEig:
    def test_identity_degenerate_zero(self):
        val, vec = min_eig_and_vector(choi(np.eye(4)))
        assert val == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_transpose_map(self):
        val, _ = min_eig_and_vector(choi(np.diag([1.0, 1.0, -1.0, 1.0])))
        assert val == pytest.approx(-0.5, abs=1e-12)

    def test_cp_boundary(self):
        val, _ = min_eig_and_vector(choi(depolarizing(-1.0 / 3.0)))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_tie_break(self):
        j = choi(np.eye(4))
        _, v1 = min_eig_and_vector(j)
        _, v2 = min_eig_and_vector(j.copy())
        assert np.array_equal(v1, v2)
        first = v1[np.flatnonzero(np.abs(v1) > 1e-12)[0]]
        assert abs(first.imag) < 1e-12 and first.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            min_eig_and_vector(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestCpEquivalence:
    def test_cptp_implies_unital_part_cp(self, rng):
        # The physicality diagnostic relies on this direction: a negative
        # Choi eigenvalue of the unital part certifies a nonphysical map.
        for _ in range(50):
            e = random_cptp_superop(rng, rank=int(rng.integers(1, 5)))
            assert np.linalg.eigvalsh(choi(unital_part(e)))[0] >= -1e-10


class TestStatesAndSerialization:
    def test_superop_json_round_trip(self, rng):
        e = random_cptp_superop(rng)
        values = superop_to_list(e)
        assert len(values) == 16
        assert np.allclose(np.reshape(values, (4, 4)), e)
