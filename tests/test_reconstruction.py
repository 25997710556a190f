import numpy as np
import pytest

from rbtlab.channels import depolarizing
from rbtlab.fitting import RATE_BOUNDS
from rbtlab.groups import a4_elements, overlap_basis, rotation_unitary
from rbtlab.pauli import choi, overlap, superop_from_unitary, unital_part
from rbtlab.pipeline import ExperimentBootstrap
from rbtlab.reconstruction import (
    ACCESSIBLE_MASK,
    ChannelInversionError,
    OverlapVector,
    W_DECOMPOSITION,
    corrected,
    hinton_records,
    predictor_matrix,
    qpt_linear_inversion,
    reconstruct_unital,
    reconstruct_unital_batch,
    w_fidelity_direct,
)
from rbtlab.sampling import QPT_INPUT_STATES, qpt_true_expectations

from conftest import random_unital_tp_superop, random_unitary

BASIS_SUPEROPS = [e.superop for e in overlap_basis()]


def overlaps_of(channel):
    """Oracle: the ten basis overlaps computed directly from the definition."""
    return np.array([overlap(s, channel) for s in BASIS_SUPEROPS])


class TestPredictorMatrix:
    def test_rank_ten(self):
        assert np.linalg.matrix_rank(predictor_matrix()) == 10

    def test_identity_overlaps(self):
        a = predictor_matrix() @ np.eye(4).ravel()
        # self-overlap 4 for the identity, 0 for half turns, 1 for third turns
        assert np.allclose(a, [4, 0, 0, 0, 1, 1, 1, 1, 1, 1])

    def test_third_element_overlaps(self):
        target = a4_elements()[2].superop
        a = predictor_matrix() @ target.ravel()
        assert a[2] == pytest.approx(4.0)
        assert np.allclose(a, overlaps_of(target))

    def test_rejects_rank_deficient_basis(self):
        with pytest.raises(ValueError, match="rank"):
            predictor_matrix(list(a4_elements()))  # twelve elements span only 10


class TestReconstruction:
    def test_identity_round_trip(self):
        assert np.allclose(reconstruct_unital(overlaps_of(np.eye(4))), np.eye(4), atol=1e-12)

    def test_hadamard_round_trip(self):
        h = superop_from_unitary(rotation_unitary((1.0, 0.0, 1.0), np.pi))
        assert np.abs(reconstruct_unital(overlaps_of(h)) - h).max() < 1e-10

    def test_depolarizing_round_trip(self):
        lam = 0.73
        est = reconstruct_unital(overlaps_of(depolarizing(lam)))
        assert np.abs(est - depolarizing(lam)).max() < 1e-10

    def test_thousand_random_unital_tp_round_trips(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            e = random_unital_tp_superop(rng)
            est = reconstruct_unital(overlaps_of(e))
            worst = max(worst, float(np.abs(est - e).max()))
        assert worst < 1e-10

    def test_inaccessible_coordinates_exactly_zero(self, rng):
        e = random_unital_tp_superop(rng)
        est = reconstruct_unital(overlaps_of(e) + rng.normal(scale=0.01, size=10))
        assert np.all(est[~ACCESSIBLE_MASK] == 0.0)

    def test_batch_matches_scalar(self, rng):
        a = np.stack([overlaps_of(random_unital_tp_superop(rng)) for _ in range(8)])
        batch = reconstruct_unital_batch(a)
        for k in range(8):
            assert np.allclose(batch[k], reconstruct_unital(a[k]), atol=1e-12)

    def test_overlap_vector_bound(self):
        with pytest.raises(ValueError, match="bound"):
            OverlapVector(values=np.array([5.0] + [0.0] * 9))


class TestCorrected:
    def test_identity_null_is_neutral(self, rng):
        e = random_unital_tp_superop(rng)
        assert np.allclose(corrected(e, np.eye(4), "left"), e)
        assert np.allclose(corrected(e, np.eye(4), "right"), e)

    def test_diagonal_channel_algebra(self):
        lam1, lam2 = 0.97, 0.97
        h = superop_from_unitary(rotation_unitary((1.0, 0.0, 1.0), np.pi))
        e = depolarizing(lam1 * lam2) @ h
        est = corrected(e, depolarizing(lam2), "right")
        assert np.abs(est - depolarizing(lam1) @ h).max() < 1e-10

    def test_sides_coincide_when_commuting(self):
        e = depolarizing(0.9)
        null = depolarizing(0.95)
        assert np.allclose(corrected(e, null, "left"), corrected(e, null, "right"))

    def test_right_correction_inverts_composition(self, rng):
        for _ in range(20):
            e = random_unital_tp_superop(rng)
            null = unital_part(depolarizing(0.9) @ superop_from_unitary(random_unitary(rng)))
            assert np.abs(corrected(e @ null, null, "right") - e).max() < 1e-8

    def test_ill_conditioned_null_rejected(self):
        nearly_singular = np.diag([1.0, 1e-8, 1.0, 1.0])
        with pytest.raises(ChannelInversionError) as excinfo:
            corrected(np.eye(4), nearly_singular, "left")
        assert excinfo.value.condition_number > 1e6

    def test_singular_bootstrap_null_estimate_names_replication(self, rng):
        # Null rates all on the box edge -1/3 give zero overlaps and a zero
        # null estimate; np.linalg.inv raised a bare LinAlgError for it.
        rates = rng.uniform(0.1, 0.3, size=(5, 10))
        null_rates = rng.uniform(0.1, 0.3, size=(5, 10))
        null_rates[3] = RATE_BOUNDS[0]
        counts = np.zeros(10, dtype=np.int64)
        with pytest.raises(ChannelInversionError) as excinfo:
            ExperimentBootstrap([], [], rates, null_rates, rates, counts, counts)
        assert excinfo.value.replication == 3
        assert "of bootstrap replication 3 is ill-conditioned" in str(excinfo.value)

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="side"):
            corrected(np.eye(4), np.eye(4), "middle")


class TestDirectBodyDiagonalEstimate:
    def test_coefficients_sum_to_one(self):
        assert sum(W_DECOMPOSITION) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_overlaps_give_unit_fidelity(self):
        w = superop_from_unitary(rotation_unitary((1.0, 1.0, 1.0), np.pi / 6.0))
        a = overlaps_of(w)
        assert w_fidelity_direct(a[0], a[4], a[5]) == pytest.approx(1.0, abs=1e-10)

    def test_identity_channel_closed_form(self):
        a = overlaps_of(np.eye(4))
        expected = (4.0 + np.sqrt(3.0)) / 6.0
        assert w_fidelity_direct(a[0], a[4], a[5]) == pytest.approx(expected, abs=1e-12)

    def test_decomposition_reproduces_channel(self):
        # the three-term combination of basis channels equals the pi/6
        # body-diagonal rotation exactly
        c1, c5, c6 = W_DECOMPOSITION
        els = a4_elements()
        combo = c1 * els[0].superop + c5 * els[4].superop + c6 * els[5].superop
        w = superop_from_unitary(rotation_unitary((1.0, 1.0, 1.0), np.pi / 6.0))
        assert np.abs(combo - w).max() < 1e-12


class TestQptInversion:
    def test_ideal_data_exact(self, rng):
        for _ in range(10):
            chan = superop_from_unitary(random_unitary(rng))
            est = qpt_linear_inversion(qpt_true_expectations(chan))
            assert np.abs(est - chan).max() < 1e-10

    def test_rescaling_inverts_assignment_error(self, rng):
        chan = superop_from_unitary(random_unitary(rng))
        measured = qpt_true_expectations(chan, assignment_fidelity=0.95)
        est = qpt_linear_inversion(measured, assumed_assignment_fidelity=0.95)
        assert np.abs(est - chan).max() < 1e-10

    def test_mis_scaled_rescale_breaks_positivity(self):
        # data taken at 95% visibility but rescaled assuming 91% inflate the
        # reconstruction past the physical boundary
        chan = superop_from_unitary(rotation_unitary((1.0, 0.0, 1.0), np.pi))
        measured = qpt_true_expectations(chan, assignment_fidelity=0.95)
        est = qpt_linear_inversion(measured, assumed_assignment_fidelity=0.91)
        assert np.linalg.eigvalsh(choi(unital_part(est)))[0] < -1e-3

    def test_non_unital_channel_recovered(self):
        from rbtlab.channels import amplitude_phase_damping

        chan = amplitude_phase_damping(3e-8, 5.7e-6, 8.4e-6)
        est = qpt_linear_inversion(qpt_true_expectations(chan))
        assert np.abs(est - chan).max() < 1e-10

    @pytest.mark.parametrize("assumed", [None, 0.91])
    def test_stack_equals_per_table(self, rng, assumed):
        # Bootstrap stacks are inverted in one call; every table must come
        # out bit for bit as its own inversion.
        tables = 2.0 * rng.integers(0, 101, size=(2, 50, 4, 3)) / 100.0 - 1.0
        tables[0, 0] = rng.uniform(-1.0, 1.0, size=(4, 3))
        stack = qpt_linear_inversion(tables, assumed)
        assert stack.shape == (2, 50, 4, 4)
        for index in np.ndindex(tables.shape[:2]):
            single = qpt_linear_inversion(tables[index], assumed)
            assert single.shape == (4, 4)
            assert np.array_equal(stack[index], single)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="4x3"):
            qpt_linear_inversion(np.zeros((3, 4)))

    def test_rejects_zero_contrast(self):
        with pytest.raises(ValueError, match="contrast"):
            qpt_linear_inversion(np.zeros((4, 3)), assumed_assignment_fidelity=0.5)

    def test_input_states_independent(self):
        assert abs(np.linalg.det(QPT_INPUT_STATES)) > 1e-6


class TestHinton:
    def test_sixteen_records_with_accessibility(self, rng):
        e = random_unital_tp_superop(rng)
        records = hinton_records(e)
        assert len(records) == 16
        accessible = sum(r["accessible"] for r in records)
        assert accessible == 10
        corner = records[0]
        assert corner["row"] == corner["col"] == "I"
        assert corner["accessible"]
