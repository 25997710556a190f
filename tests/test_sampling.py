import itertools

import numpy as np
import pytest

from rbtlab.channels import NoiseModel, SpamModel, depolarizing
from rbtlab.groups import a4_elements, rotation_unitary
from rbtlab.pauli import superop_from_unitary, unital_part
from rbtlab.sampling import (
    QPT_INPUT_STATES,
    qpt_true_expectations,
    sample_dataset,
    sample_qpt_dataset,
    stream_generator,
    survival_probability,
)
from rbtlab.sequences import INFINITE, exhaustive_set, infinite_length_surrogate, make_sequence

IDEAL = NoiseModel.ideal()
PERFECT = SpamModel.ideal()


class TestSurvival:
    def test_matching_ideal_target_gives_unity(self, rng):
        for _ in range(20):
            j = int(rng.integers(1, 11))
            n = int(rng.integers(1, 4))
            tup = tuple(int(x) for x in rng.integers(1, 13, size=n))
            seq = make_sequence(tup, j)
            target = a4_elements()[j - 1].superop
            assert survival_probability(seq, target, IDEAL, PERFECT) == pytest.approx(1.0)

    def test_depolarizing_every_slot_closed_form(self):
        lam = 0.87
        noise = NoiseModel.depolarizing_model(lam)
        for n in (1, 2, 3):
            seq = make_sequence(tuple([5] * n), 1)
            p = survival_probability(seq, np.eye(4), noise, PERFECT, noisy_target=True)
            assert p == pytest.approx(0.5 * (1 + lam ** (2 * n + 1)), abs=1e-12)

    def test_fully_depolarizing_randomizers(self):
        noise = NoiseModel.depolarizing_model(0.0)
        seq = make_sequence((3, 8), 2)
        target = a4_elements()[1].superop
        assert survival_probability(seq, target, noise, PERFECT) == pytest.approx(0.5)

    def test_zero_length_target_skips_noise(self):
        lam = 0.9
        noise = NoiseModel.depolarizing_model(lam)
        seq = make_sequence((4,), 1)
        with_noise = survival_probability(seq, np.eye(4), noise, PERFECT, noisy_target=True)
        without = survival_probability(seq, np.eye(4), noise, PERFECT, noisy_target=False)
        assert with_noise == pytest.approx(0.5 * (1 + lam**3), abs=1e-12)
        assert without == pytest.approx(0.5 * (1 + lam**2), abs=1e-12)


class TestTwirlSurrogate:
    def test_ideal_gates_twirl_to_half(self):
        vals = [
            survival_probability(s, None, IDEAL, PERFECT)
            for s in infinite_length_surrogate().sequences
        ]
        assert np.mean(vals) == pytest.approx(0.5, abs=1e-12)

    def test_average_equals_offset_parameter(self):
        # with visibility 0.8 the asymptote sits at 0.5 exactly; individual
        # sequences differ but the group average hits the offset
        spam = SpamModel.with_assignment_error(0.9)
        noise = NoiseModel.depolarizing_model(0.93)
        vals = [
            survival_probability(s, None, noise, spam)
            for s in infinite_length_surrogate().sequences
        ]
        assert np.mean(vals) == pytest.approx(0.5, abs=1e-12)


class TestSampleDataset:
    def test_certain_survival_gives_unit_bins(self):
        ss = exhaustive_set(1, lengths=(1,), repeats={}, include_infinite=False)
        ds = sample_dataset(ss, a4_elements()[0].superop, IDEAL, PERFECT, shots=500, bin_size=100, seed=1)
        assert np.all(ds.groups[1].bins == 1.0)

    def test_binomial_mean_within_four_sigma(self):
        ss = infinite_length_surrogate()
        noise = NoiseModel.depolarizing_model(0.0)
        ds = sample_dataset(ss, None, noise, PERFECT, shots=10_000, bin_size=100, seed=2)
        grand = ds.groups[INFINITE].bins.mean()
        sigma = 0.5 / np.sqrt(12 * 10_000)
        assert abs(grand - 0.5) < 4 * sigma

    def test_same_seed_bit_identical(self):
        ss = exhaustive_set(2, lengths=(1, 2), repeats={}, include_infinite=True)
        noise = NoiseModel.depolarizing_model(0.95)
        a = sample_dataset(ss, np.eye(4), noise, PERFECT, shots=400, bin_size=100, seed=9, label="x")
        b = sample_dataset(ss, np.eye(4), noise, PERFECT, shots=400, bin_size=100, seed=9, label="x")
        for n in a.groups:
            assert np.array_equal(a.groups[n].bins, b.groups[n].bins)

    def test_different_seed_differs(self):
        ss = infinite_length_surrogate()
        noise = NoiseModel.depolarizing_model(0.5)
        a = sample_dataset(ss, None, noise, PERFECT, shots=400, bin_size=100, seed=1, label="x")
        b = sample_dataset(ss, None, noise, PERFECT, shots=400, bin_size=100, seed=2, label="x")
        assert not np.array_equal(a.groups[INFINITE].bins, b.groups[INFINITE].bins)

    def test_rejects_indivisible_shots(self):
        ss = infinite_length_surrogate()
        with pytest.raises(ValueError, match="divisible"):
            sample_dataset(ss, None, IDEAL, PERFECT, shots=150, bin_size=100)

    def test_row_count_matches_set(self):
        ss = exhaustive_set(4)
        ds = sample_dataset(ss, a4_elements()[3].superop, IDEAL, PERFECT, shots=200, bin_size=100, seed=0)
        assert ds.n_rows() == len(ss)


class TestExhaustiveAverageConsistency:
    def test_noiseless_average_matches_enumeration_and_decay_model(self):
        lam = 0.9
        noise = NoiseModel.depolarizing_model(lam)
        spam = SpamModel.with_assignment_error(0.95)
        target = np.eye(4)  # identity pulse target, noise on every slot
        for j, n in [(1, 1), (1, 2), (3, 1), (3, 2), (6, 2)]:
            survs = [
                survival_probability(make_sequence(tup, j), target, noise, spam)
                for tup in itertools.product(range(1, 13), repeat=n)
            ]
            empirical = float(np.mean(survs))
            # per-cell twirled rate of the effective map noise@target@noise
            eff = unital_part(noise.per_gate_channel @ target @ noise.per_gate_channel)
            basis_el = a4_elements()[j - 1].superop
            rate = (np.tensordot(basis_el, eff, axes=2) - 1.0) / 3.0
            visibility = 2 * spam.assignment_fidelity - 1
            scale = visibility * 0.5 * noise.per_gate_channel[3, 3]
            offset = (1 - spam.assignment_fidelity) + visibility * 0.5 * (
                1 + noise.per_gate_channel[3, 0]
            )
            assert empirical == pytest.approx(scale * rate**n + offset, abs=1e-12)


class TestFidelityCurve:
    def test_ideal_matching_target_flat_at_spam_ceiling(self):
        spam = SpamModel.with_assignment_error(0.95)
        ss = exhaustive_set(2, lengths=(1, 2), repeats={})
        ds = sample_dataset(ss, a4_elements()[1].superop, IDEAL, spam, shots=300, bin_size=100, seed=3)
        curve = ds.means()
        for n in (1, 2):
            assert curve[n] == pytest.approx(0.95, abs=0.02)

    def test_oscillatory_hadamard_overlap(self):
        # ideal gates, Hadamard target, first overlap: rate is exactly -1/3,
        # so successive lengths alternate around the asymptote
        target = superop_from_unitary(rotation_unitary((1.0, 0.0, 1.0), np.pi))
        means = {}
        for n in (1, 2, 3):
            survs = [
                survival_probability(make_sequence(tup, 1), target, IDEAL, PERFECT)
                for tup in itertools.product(range(1, 13), repeat=n)
            ]
            means[n] = float(np.mean(survs))
        for n in (1, 2, 3):
            assert means[n] == pytest.approx(0.5 + 0.5 * (-1.0 / 3.0) ** n, abs=1e-12)
        signs = [np.sign(means[n] - 0.5) for n in (1, 2, 3)]
        assert signs == [-1.0, 1.0, -1.0]


class TestStreams:
    def test_stream_independence_of_order(self):
        a = stream_generator(7, "x", 1).normal(size=4)
        _ = stream_generator(7, "y", 2).normal(size=100)
        b = stream_generator(7, "x", 1).normal(size=4)
        assert np.array_equal(a, b)


class TestQpt:
    def test_true_expectations_ideal_channel(self):
        table = qpt_true_expectations(np.eye(4))
        assert np.allclose(table, QPT_INPUT_STATES[:, 1:])

    def test_visibility_scales_expectations(self):
        table = qpt_true_expectations(np.eye(4), assignment_fidelity=0.95)
        assert np.allclose(table, 0.9 * QPT_INPUT_STATES[:, 1:])

    def test_sampling_reproducible_and_near_truth(self):
        chan = depolarizing(0.9)
        a = sample_qpt_dataset(chan, 0.95, shots=10_000, bin_size=100, seed=5)
        b = sample_qpt_dataset(chan, 0.95, shots=10_000, bin_size=100, seed=5)
        assert np.array_equal(a.bins, b.bins)
        truth = qpt_true_expectations(chan, 0.95)
        assert np.abs(a.expectations() - truth).max() < 0.05
