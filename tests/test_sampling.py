import hashlib
import itertools
import math

import numpy as np
import pytest

from rbtlab.channels import NoiseModel, SpamModel, amplitude_phase_damping, depolarizing
from rbtlab.groups import a4_elements, rotation_unitary
from rbtlab.pauli import superop_from_unitary, unital_part
from rbtlab.sampling import (
    QPT_INPUT_STATES,
    _philox_keys,
    _stream_keys,
    _survival_probabilities,
    qpt_true_expectations,
    sample_dataset,
    sample_qpt_dataset,
    stream_generator,
    survival_probability,
)
from rbtlab.sequences import (
    INFINITE,
    exhaustive_set,
    infinite_length_surrogate,
    make_sequence,
)

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
        ss = exhaustive_set(1, lengths=(1,), repeats={})
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
        ss = exhaustive_set(2, lengths=(1, 2), repeats={})
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


    def test_draws_into_a_callers_block(self):
        ss = exhaustive_set(3, lengths=(2, 1), repeats={1: 2})
        noise = NoiseModel.depolarizing_model(0.9)
        args = (ss, np.eye(4), noise, PERFECT)
        alone = sample_dataset(*args, shots=400, bin_size=100, seed=5, label="blk")
        matrix = np.full((len(ss) + 2, 4), -1.0)
        into = sample_dataset(*args, shots=400, bin_size=100, seed=5, label="blk", out=matrix[1:-1])
        assert np.all(matrix[[0, -1]] == -1.0)
        assert list(into.groups) == sorted(alone.groups) == [1, 2, INFINITE]
        row = 1
        for n, grp in into.groups.items():
            assert grp.row_ids == alone.groups[n].row_ids
            assert grp.bins.tobytes() == alone.groups[n].bins.tobytes()
            assert grp.bins.base is matrix
            assert grp.bins.ctypes.data == matrix[row].ctypes.data
            row += grp.n_rows

    def test_rejects_a_block_of_the_wrong_shape(self):
        ss = infinite_length_surrogate()
        with pytest.raises(ValueError, match="shape"):
            sample_dataset(ss, None, IDEAL, PERFECT, shots=400, bin_size=100, out=np.empty((len(ss), 3)))

def label_hash(*labels) -> int:
    """blake2b-64 of the labels joined by U+001F: a stream's key before numpy
    converts it."""
    text = "\x1f".join(str(x) for x in labels)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def reference_bins(seq_set, target, noise, spam, shots, bin_size, seed, label, noisy_target):
    """Row-at-a-time sampler that defines the sample_dataset bytes: row r of
    length n draws from a fresh stream_generator(seed, label, n, r) at the
    survival_probability of its sequence."""
    by_length = {}
    for seq in seq_set.sequences:
        n = INFINITE if math.isinf(seq.length) else int(seq.length)
        by_length.setdefault(n, []).append(seq)
    out = {}
    for n, seqs in by_length.items():
        rows = []
        for r, seq in enumerate(seqs):
            p = survival_probability(seq, target, noise, spam, noisy_target)
            rng = stream_generator(seed, label, n, r)
            rows.append(rng.binomial(bin_size, p, size=shots // bin_size) / bin_size)
        out[n] = ([seq.row_id for seq in seqs], np.array(rows))
    return out


HADAMARD = superop_from_unitary(rotation_unitary((1.0, 0.0, 1.0), np.pi))
DAMPING = amplitude_phase_damping(33.3e-9, 5.7e-6, 8.4e-6)
SMALL_SET = exhaustive_set(3, lengths=(1, 2), repeats={1: 2, INFINITE: 2})


BYTE_CONTRACT_CASES = [
    pytest.param(
        SMALL_SET,
        HADAMARD,
        NoiseModel(DAMPING, placement="right"),
        "hadamard/overlap-3",
        True,
        id="noisy-target",
    ),
    pytest.param(SMALL_SET, np.eye(4), NoiseModel(DAMPING), "null/overlap-3", False, id="null-target"),
    # Row 0 of length 1 has a stream key of 2**63 or more.
    pytest.param(SMALL_SET, HADAMARD, NoiseModel(DAMPING), "w/overlap-2", True, id="high-stream-key"),
]


class TestByteContract:
    @pytest.mark.parametrize("seq_set, target, noise, label, noisy_target", BYTE_CONTRACT_CASES)
    def test_batched_survival_bit_identical(self, seq_set, target, noise, label, noisy_target):
        # A one-ulp change in a probability rarely moves a binomial draw, so
        # the batch is compared with the per-sequence products directly.
        spam = SpamModel.with_assignment_error(0.95)
        batched = _survival_probabilities(seq_set.sequences, target, noise, spam, noisy_target)
        expected = [
            survival_probability(seq, target, noise, spam, noisy_target)
            for seq in seq_set.sequences
        ]
        assert batched.tolist() == expected

    @pytest.mark.parametrize("seq_set, target, noise, label, noisy_target", BYTE_CONTRACT_CASES)
    def test_bins_match_per_row_reference(self, seq_set, target, noise, label, noisy_target):
        spam = SpamModel.with_assignment_error(0.95)
        ds = sample_dataset(
            seq_set, target, noise, spam, shots=1000, bin_size=100, seed=11,
            label=label, noisy_target=noisy_target,
        )
        expected = reference_bins(seq_set, target, noise, spam, 1000, 100, 11, label, noisy_target)
        assert sorted(ds.groups) == sorted(expected)
        for n, (row_ids, bins) in expected.items():
            assert list(ds.groups[n].row_ids) == row_ids
            assert np.array_equal(ds.groups[n].bins, bins), n

    def test_high_stream_key_rounded_through_float64(self):
        exact = label_hash("w/overlap-2", 1, 0)
        assert exact >= 2**63
        key = stream_generator(11, "w/overlap-2", 1, 0).bit_generator.state["state"]["key"]
        assert int(key[0]) == 11
        assert int(key[1]) == int(float(exact)) != exact
        # The rounded key is the contract: the exact key draws other bins.
        ds = sample_dataset(
            SMALL_SET, HADAMARD, NoiseModel(DAMPING), SpamModel.ideal(),
            shots=1000, bin_size=100, seed=11, label="w/overlap-2",
        )
        p = survival_probability(SMALL_SET.sequences[0], HADAMARD, NoiseModel(DAMPING), SpamModel.ideal())
        exact_rng = np.random.Generator(np.random.Philox(key=np.array([11, exact], dtype=np.uint64)))
        assert not np.array_equal(ds.groups[1].bins[0], exact_rng.binomial(100, p, size=10) / 100)

    def test_row_keys_of_the_default_design(self):
        # Every row key of the default configuration's 21 datasets, built a
        # length group at a time, equals the one-row key numpy makes of the
        # pair (seed, label hash).
        from rbtlab.config import RunConfig
        from rbtlab.pipeline import experiment_design

        cfg = RunConfig.from_dict({})
        rows = 0
        for _, _, label, seqs in experiment_design("hadamard", True, cfg.lengths(), cfg.repeats()):
            counts = {}
            for seq in seqs.sequences:
                n = INFINITE if math.isinf(seq.length) else int(seq.length)
                counts[n] = counts.get(n, 0) + 1
            for n, count in counts.items():
                hashes = np.array(_stream_keys((label, n), range(count)), dtype=np.uint64)
                assert hashes.tolist() == [label_hash(label, n, r) for r in range(count)]
                expected = [np.asarray([cfg.seed, label_hash(label, n, r)]).astype(np.uint64) for r in range(count)]
                assert np.array_equal(_philox_keys(cfg.seed, hashes), expected), (label, n)
                rows += count
        assert rows == 45_360
        key = stream_generator(cfg.seed, "reference", 1, 3).bit_generator.state["state"]["key"]
        hashes = np.array(_stream_keys(("reference", 1), range(4)), dtype=np.uint64)
        assert np.array_equal(_philox_keys(cfg.seed, hashes)[3], key)

    @pytest.mark.parametrize("seed", [0, 11, 2**53 - 1])
    def test_row_keys_at_the_float64_edges(self, seed):
        # Hashes below 2**63 stay exact; from 2**63 on the pair goes through
        # float64, and within 2**10 of 2**64 it rounds up to 2**64, whose
        # cast to uint64 numpy leaves to the platform.
        hashes = [2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2**10 - 1, 2**64 - 2**10, 2**64 - 1, 5]
        hashes += [2**64 - d for d in range(1, 2**10 + 1, 37)]
        with np.errstate(invalid="ignore"):
            got = _philox_keys(seed, np.array(hashes, dtype=np.uint64))
            expected = [np.asarray([seed, h]).astype(np.uint64) for h in hashes]
        assert np.array_equal(got, expected)
        assert int(got[0, 1]) == 2**63 - 1 and int(got[2, 1]) == 2**63


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
