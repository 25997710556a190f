import numpy as np
import pytest

from rbtlab.channels import (
    DEVICE_GATE_TIME,
    DEVICE_T1,
    DEVICE_T2,
    NoiseModel,
    SpamModel,
    amplitude_phase_damping,
    apply_spam,
    depolarizing,
)
from rbtlab.groups import a4_elements
from rbtlab.pauli import KET0, MAX_MIXED, avg_fidelity, choi, superop_from_kraus, unital_part


def amplitude_damping_kraus(gamma):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return [k0, k1]


class TestDepolarizing:
    def test_identity_limit(self):
        assert np.allclose(depolarizing(1.0), np.eye(4))

    def test_full_depolarizing(self):
        assert np.allclose(depolarizing(0.0), np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_cp_boundary(self):
        vals = np.linalg.eigvalsh(choi(depolarizing(-1.0 / 3.0)))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [-0.5, 1.2])
    def test_out_of_range_rejected(self, lam):
        with pytest.raises(ValueError, match="outside"):
            depolarizing(lam)

    def test_cptp_across_range(self):
        for lam in np.linspace(-1.0 / 3.0, 1.0, 9):
            assert np.linalg.eigvalsh(choi(depolarizing(lam)))[0] >= -1e-10


class TestAmplitudePhaseDamping:
    def test_zero_duration(self):
        assert np.allclose(amplitude_phase_damping(0.0, DEVICE_T1, DEVICE_T2), np.eye(4))

    def test_device_figure_lands_in_band(self):
        chan = amplitude_phase_damping(DEVICE_GATE_TIME, DEVICE_T1, DEVICE_T2)
        f = avg_fidelity(chan, np.eye(2))
        assert 0.9969 <= f <= 0.9979

    def test_long_time_fixed_point_is_ground_state(self):
        chan = amplitude_phase_damping(1.0, DEVICE_T1, DEVICE_T2)
        assert np.allclose(chan @ MAX_MIXED, KET0, atol=1e-12)
        assert np.allclose(chan @ np.array([1.0, 0.4, -0.3, -0.8]), KET0, atol=1e-12)

    def test_pure_amplitude_damping_matches_kraus(self):
        t, t1 = 2e-7, 1e-6
        chan = amplitude_phase_damping(t, t1, 2 * t1)
        gamma = 1.0 - np.exp(-t / t1)
        oracle = superop_from_kraus(amplitude_damping_kraus(gamma))
        assert np.abs(chan - oracle).max() < 1e-12

    def test_rejects_unphysical_t2(self):
        with pytest.raises(ValueError, match="t2"):
            amplitude_phase_damping(1e-8, 1e-6, 2.5e-6)

    def test_cptp_over_parameter_sweep(self):
        for t in (1e-9, 5e-8, 1e-6, 1e-5):
            for t2_frac in (0.2, 1.0, 2.0):
                chan = amplitude_phase_damping(t, DEVICE_T1, t2_frac * DEVICE_T1)
                assert np.linalg.eigvalsh(choi(chan))[0] >= -1e-10

    def test_unital_part_diagonal(self):
        chan = amplitude_phase_damping(DEVICE_GATE_TIME, DEVICE_T1, DEVICE_T2)
        u = unital_part(chan)
        assert np.allclose(u, np.diag(np.diag(u)))


class TestNoiseModel:
    def test_left_placement_default(self):
        nm = NoiseModel.depolarizing_model(0.9)
        gate = a4_elements()[1].superop
        assert np.allclose(nm.apply(gate), depolarizing(0.9) @ gate)

    def test_right_placement_flag(self):
        nm = NoiseModel.depolarizing_model(0.9, placement="right")
        gate = a4_elements()[1].superop
        assert np.allclose(nm.apply(gate), gate @ depolarizing(0.9))

    def test_rejects_non_cptp_channel(self):
        with pytest.raises(ValueError, match="CPTP"):
            NoiseModel(per_gate_channel=np.diag([1.0, 1.1, 1.1, 1.1]))

    def test_coherence_limited_matches_constructor(self):
        nm = NoiseModel.coherence_limited()
        expected = amplitude_phase_damping(DEVICE_GATE_TIME, DEVICE_T1, DEVICE_T2)
        assert np.allclose(nm.per_gate_channel, expected)


class TestSpam:
    def test_perfect_spam_on_ground_state(self):
        assert apply_spam(KET0, SpamModel.ideal()) == pytest.approx(1.0)

    def test_assignment_error_scales_ground_state(self):
        spam = SpamModel.with_assignment_error(0.95)
        assert apply_spam(KET0, spam) == pytest.approx(0.95)

    def test_maximally_mixed_is_half_regardless(self):
        for f in (1.0, 0.95, 0.7):
            spam = SpamModel.with_assignment_error(f)
            assert apply_spam(MAX_MIXED, spam) == pytest.approx(0.5)

    def test_probability_clipped_before_flip(self):
        spam = SpamModel(
            prep=KET0,
            meas=np.array([0.7, 0.0, 0.0, 0.7]),
            assignment_fidelity=0.9,
        )
        # raw functional gives 1.4, clipped to 1 before the coin flip
        assert apply_spam(KET0, spam) == pytest.approx(0.9)

    def test_rejects_bad_fidelity(self):
        with pytest.raises(ValueError):
            SpamModel(prep=KET0, meas=np.array([0.5, 0, 0, 0.5]), assignment_fidelity=1.2)
