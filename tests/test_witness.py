import numpy as np
import pytest

from rbtlab.channels import NoiseModel, SpamModel, depolarizing
from rbtlab.groups import rotation_unitary
from rbtlab.pauli import superop_from_unitary, unital_part
from rbtlab.pipeline import (
    fit_overlaps,
    point_reconstructions,
    qpt_witness_report,
    rbt_witness_report,
    simulate_experiment,
    split_half_bootstrap,
)
from rbtlab.sampling import sample_qpt_dataset
from rbtlab.sequences import INFINITE
from rbtlab.witness import (
    build_witness,
    eig_multiplicity,
    evaluate_witness,
    split_halves,
    witness_expectation_batch,
)

from conftest import random_cptp_superop

TRANSPOSE_MAP = np.diag([1.0, 1.0, -1.0, 1.0])


class TestSplitHalves:
    def test_hundred_bins_split_fifty_fifty(self):
        noise = NoiseModel.depolarizing_model(0.9)
        exp = simulate_experiment(
            "identity", noise, SpamModel.ideal(), shots=10_000, bin_size=100, seed=0,
            lengths=(1,), repeats={},
        )
        ds = exp.datasets[1]
        first, second = split_halves(ds)
        for n in ds.groups:
            assert first.groups[n].n_bins == second.groups[n].n_bins == 50
            rebuilt = np.hstack([first.groups[n].bins, second.groups[n].bins])
            assert np.array_equal(rebuilt, ds.groups[n].bins)

    def test_two_bins_split_one_one(self):
        noise = NoiseModel.depolarizing_model(0.9)
        exp = simulate_experiment(
            "identity", noise, SpamModel.ideal(), shots=200, bin_size=100, seed=0,
            lengths=(1,), repeats={},
        )
        first, second = split_halves(exp.datasets[1])
        assert first.datasets if False else True
        assert first.groups[1].n_bins == second.groups[1].n_bins == 1

    def test_odd_bins_rejected(self):
        noise = NoiseModel.depolarizing_model(0.9)
        exp = simulate_experiment(
            "identity", noise, SpamModel.ideal(), shots=300, bin_size=100, seed=0,
            lengths=(1,), repeats={},
        )
        with pytest.raises(ValueError, match="odd"):
            split_halves(exp.datasets[1])

    def test_qpt_dataset_split(self):
        ds = sample_qpt_dataset(np.eye(4), 0.95, shots=400, bin_size=100, seed=1)
        first, second = split_halves(ds)
        assert first.bins.shape == second.bins.shape == (12, 2)
        assert np.array_equal(np.hstack([first.bins, second.bins]), ds.bins)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            split_halves([1, 2, 3])


class TestWitnessPrimitives:
    def test_transpose_map_witness_and_value(self):
        w = build_witness(TRANSPOSE_MAP)
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert evaluate_witness(w, TRANSPOSE_MAP) == pytest.approx(-0.5, abs=1e-12)

    def test_identity_degenerate_tie_break_deterministic(self):
        w1 = build_witness(np.eye(4))
        w2 = build_witness(np.eye(4))
        assert np.array_equal(w1, w2)
        assert eig_multiplicity(np.eye(4)) == 3

    def test_cptp_channels_nonnegative_under_any_witness(self, rng):
        # the witness certifies nonphysicality in one direction only: any
        # CPTP channel scores >= 0 no matter which channel built the witness
        for _ in range(30):
            supplier = random_cptp_superop(rng, rank=int(rng.integers(1, 5)))
            w = build_witness(unital_part(supplier))
            probed = random_cptp_superop(rng, rank=int(rng.integers(1, 5)))
            assert evaluate_witness(w, probed) >= -1e-10

    def test_depolarizing_boundary_nonnegative(self):
        w = build_witness(TRANSPOSE_MAP)
        for lam in (-1 / 3, 0.0, 0.5, 1.0):
            assert evaluate_witness(w, depolarizing(lam)) >= -1e-12

    def test_batch_matches_scalar(self, rng):
        w = build_witness(TRANSPOSE_MAP)
        stack = np.stack([random_cptp_superop(rng) for _ in range(6)])
        batch = witness_expectation_batch(w, stack)
        for k in range(6):
            assert batch[k] == pytest.approx(evaluate_witness(w, stack[k]), abs=1e-12)


def _small_experiment(target, seed, lam=0.99, shots=400):
    noise = NoiseModel.depolarizing_model(lam)
    spam = SpamModel.with_assignment_error(0.95)
    return simulate_experiment(
        target, noise, spam, shots=shots, bin_size=100, seed=seed,
        repeats={1: 2, INFINITE: 2},
    )


class TestWitnessReports:
    def test_identity_report_deterministic(self):
        exp = _small_experiment("identity", seed=3)
        a = rbt_witness_report(split_half_bootstrap(exp.datasets, exp.reference, 100, 5))
        b = rbt_witness_report(split_half_bootstrap(exp.datasets, exp.reference, 100, 5))
        assert a.expectation == b.expectation
        assert a.ci == b.ci
        assert np.array_equal(a.witness, b.witness)

    def test_witness_never_rebuilt_during_bootstrap(self):
        exp = _small_experiment("identity", seed=4)
        report = rbt_witness_report(split_half_bootstrap(exp.datasets, exp.reference, 50, 2))
        first, _ = split_halves(exp.datasets[1])
        halves = {j: split_halves(ds)[0] for j, ds in exp.datasets.items()}
        ref1, _ = split_halves(exp.reference)
        e1 = point_reconstructions(fit_overlaps(halves, ref1))["raw"]
        assert np.array_equal(report.witness, build_witness(e1))

    def test_corrected_variant_requires_null_data(self):
        exp = _small_experiment("identity", seed=5)
        with pytest.raises(ValueError, match="null"):
            rbt_witness_report(
                split_half_bootstrap(exp.datasets, exp.reference, 10, 1), variant="left"
            )

    def test_samples_per_config_is_half_the_bins(self):
        exp = _small_experiment("identity", seed=6)
        report = rbt_witness_report(split_half_bootstrap(exp.datasets, exp.reference, 50, 2))
        assert report.samples_per_config == 2  # 400 shots -> 4 bins -> halves of 2

    def test_qpt_mis_scaled_witness_ci_below_zero(self):
        noise = NoiseModel.depolarizing_model(0.9948)
        chan = noise.apply(superop_from_unitary(rotation_unitary((1, 0, 1), np.pi)))
        ds = sample_qpt_dataset(chan, assignment_fidelity=0.95, shots=10_000, bin_size=100, seed=11)
        report = qpt_witness_report(ds, assumed_assignment_fidelity=0.91, replications=400, seed=4)
        assert report.ci[1] < 0.0

    def test_qpt_correct_scale_consistent_with_physical(self):
        noise = NoiseModel.depolarizing_model(0.9948)
        chan = noise.apply(superop_from_unitary(rotation_unitary((1, 0, 1), np.pi)))
        ds = sample_qpt_dataset(chan, assignment_fidelity=0.95, shots=10_000, bin_size=100, seed=11)
        report = qpt_witness_report(ds, assumed_assignment_fidelity=0.95, replications=400, seed=4)
        assert report.ci[1] >= 0.0

    def test_noiseless_data_ci_above_minus_epsilon(self):
        # exact (fluctuation-free) bins for a physical truth: the bootstrap
        # CI collapses onto a nonnegative expectation
        from rbtlab.sampling import DecayDataset, LengthGroup, survival_probability
        from rbtlab.sequences import exhaustive_set

        noise = NoiseModel.depolarizing_model(0.99)
        spam = SpamModel.with_assignment_error(0.95)

        def exact_dataset(j, label):
            seqs = exhaustive_set(j, repeats={1: 2, INFINITE: 2})
            by_length = {}
            for seq in seqs.sequences:
                n = INFINITE if np.isinf(seq.length) else int(seq.length)
                p = survival_probability(seq, np.eye(4), noise, spam, noisy_target=False)
                by_length.setdefault(n, []).append((seq.row_id, p))
            groups = {
                n: LengthGroup(
                    tuple(r for r, _ in rows),
                    np.array([[p] * 4 for _, p in rows]),
                )
                for n, rows in by_length.items()
            }
            return DecayDataset(j, label, 400, 100, 0, groups)

        datasets = {j: exact_dataset(j, f"exact/{j}") for j in range(1, 11)}
        reference = exact_dataset(1, "exact/ref")
        report = rbt_witness_report(split_half_bootstrap(datasets, reference, 100, 3))
        assert report.ci[0] >= -1e-6
        assert report.ci[1] - report.ci[0] < 1e-9
