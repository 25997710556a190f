"""End-to-end orchestration: simulate overlap experiments, fit decays,
reconstruct, correct, and cross-validate physicality.

A full experiment for a target gate consists of ten exhaustive overlap
datasets for the target, ten more for the null operation (used to remove
randomizing-gate error by left/right correction), and one shared reference
decay (a standard benchmarking experiment of the null operation).  All
bootstrap machinery is batched: every replication resamples each dataset's
bins per configuration, refits all decays, and propagates through the linear
reconstruction, so replication loops never leave numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import NoiseModel, SpamModel
from .fitting import _refit, joint_fit, percentile_ci, resampled_means
from .groups import rotation_unitary
from .pauli import avg_fidelity, superop_from_unitary, unital_part
from .reconstruction import (
    OverlapVector,
    Reconstruction,
    corrected,
    qpt_linear_inversion,
    reconstruct_unital,
    reconstruct_unital_batch,
    w_fidelity_direct,
)
from .sampling import DecayDataset, QptDataset, sample_dataset, stream_generator
from .sequences import PAPER_REPEATS, exhaustive_set
from .witness import (
    WitnessReport,
    build_witness,
    eig_multiplicity,
    evaluate_witness,
    split_halves,
    witness_expectation_batch,
)

__all__ = [
    "Experiment",
    "resolve_target",
    "simulate_experiment",
    "fit_overlaps",
    "overlaps_from_fits",
    "point_reconstructions",
    "ExperimentBootstrap",
    "experiment_bootstrap",
    "percentile_ci",
    "fidelity_samples",
    "w_direct_samples",
    "build_reconstruction",
    "SplitHalves",
    "split_half_bootstrap",
    "rbt_witness_report",
    "qpt_point_estimate",
    "qpt_witness_report",
    "summary_table",
]

N_OVERLAPS = 10

TARGET_UNITARIES = {
    "hadamard": lambda: rotation_unitary((1.0, 0.0, 1.0), np.pi),
    "w": lambda: rotation_unitary((1.0, 1.0, 1.0), np.pi / 6.0),
}
NULL_TARGET_NAMES = ("identity", "null")


def resolve_target(spec) -> tuple:
    """Map a target description to ``(name, unitary | None)``.

    ``None`` marks the null operation: a zero-length pulse that is played as
    nothing and carries no gate noise.  Accepts a gate name or a dict with
    ``axis`` and ``angle``.
    """
    if isinstance(spec, str):
        name = spec.lower()
        if name in NULL_TARGET_NAMES:
            return "identity", None
        if name in TARGET_UNITARIES:
            return name, TARGET_UNITARIES[name]()
        raise ValueError(f"unknown target gate {spec!r}")
    if isinstance(spec, dict):
        if "name" in spec:
            return resolve_target(spec["name"])
        axis = np.asarray(spec["axis"], dtype=float)
        axis = axis / np.linalg.norm(axis)
        angle = float(spec["angle"])
        return f"axis-angle({angle:.6g})", rotation_unitary(axis, angle)
    raise ValueError(f"cannot interpret target spec {spec!r}")


@dataclass(frozen=True)
class Experiment:
    """All simulated data needed to reconstruct and correct one target."""

    target_name: str
    target_unitary: np.ndarray | None
    datasets: dict
    null_datasets: dict | None
    reference: DecayDataset
    noise: NoiseModel
    spam: SpamModel

    @property
    def is_null_target(self) -> bool:
        return self.target_unitary is None

    def applied_target_channel(self) -> np.ndarray:
        """The channel actually played in each target slot (noise included)."""
        if self.target_unitary is None:
            return np.eye(4)
        return self.noise.apply(superop_from_unitary(self.target_unitary))

    def true_avg_fidelity(self) -> float:
        """Average fidelity of the simulated noisy target to its ideal gate."""
        if self.target_unitary is None:
            return avg_fidelity(self.noise.per_gate_channel, np.eye(2))
        return avg_fidelity(self.applied_target_channel(), self.target_unitary)


def _simulate_overlap_datasets(
    target_unitary,
    noise: NoiseModel,
    spam: SpamModel,
    shots: int,
    bin_size: int,
    seed: int,
    label: str,
    lengths,
    repeats,
) -> dict:
    if target_unitary is None:
        target, noisy_target = np.eye(4), False
    else:
        target, noisy_target = superop_from_unitary(target_unitary), True
    datasets = {}
    for j in range(1, N_OVERLAPS + 1):
        seqs = exhaustive_set(j, lengths=lengths, repeats=repeats)
        datasets[j] = sample_dataset(
            seqs,
            target,
            noise,
            spam,
            shots=shots,
            bin_size=bin_size,
            seed=seed,
            label=f"{label}/overlap-{j}",
            noisy_target=noisy_target,
        )
    return datasets


def simulate_experiment(
    target_spec,
    noise: NoiseModel,
    spam: SpamModel,
    shots: int = 10_000,
    bin_size: int = 100,
    seed: int = 0,
    lengths=(1, 2, 3),
    repeats: dict | None = None,
) -> Experiment:
    """Simulate the full data bundle for one target gate.

    The reference decay is its own independently sampled benchmarking run of
    the null operation; when the target is not the null operation, a second
    ten-overlap bundle of the null operation is simulated for corrections.
    """
    repeats = dict(PAPER_REPEATS) if repeats is None else repeats
    name, unitary = resolve_target(target_spec)
    datasets = _simulate_overlap_datasets(
        unitary, noise, spam, shots, bin_size, seed, f"{name}", lengths, repeats
    )
    null_datasets = None
    if unitary is not None:
        null_datasets = _simulate_overlap_datasets(
            None, noise, spam, shots, bin_size, seed, "null", lengths, repeats
        )
    ref_seqs = exhaustive_set(1, lengths=lengths, repeats=repeats)
    reference = sample_dataset(
        ref_seqs,
        np.eye(4),
        noise,
        spam,
        shots=shots,
        bin_size=bin_size,
        seed=seed,
        label="reference",
        noisy_target=False,
    )
    return Experiment(
        target_name=name,
        target_unitary=unitary,
        datasets=datasets,
        null_datasets=null_datasets,
        reference=reference,
        noise=noise,
        spam=spam,
    )


def fit_overlaps(datasets: dict, reference: DecayDataset) -> list:
    """Joint four-parameter fit of every overlap decay against the shared
    reference decay."""
    return [joint_fit(datasets[j], reference) for j in sorted(datasets)]


def overlaps_from_fits(fits) -> np.ndarray:
    return np.array([1.0 + 3.0 * f.rate for f in fits])


def point_reconstructions(fits: list, null_fits: list | None = None) -> dict:
    """Point reconstructions by variant: ``raw`` (the unital part) and, given
    null-operation fits, ``null`` and the ``left``/``right`` corrected ones."""
    unital = reconstruct_unital(overlaps_from_fits(fits))
    out = {"raw": unital}
    if null_fits is not None:
        null_unital = reconstruct_unital(overlaps_from_fits(null_fits))
        out["null"] = null_unital
        out["left"] = corrected(unital, null_unital, side="left")
        out["right"] = corrected(unital, null_unital, side="right")
    return out


# ---------------------------------------------------------------------------
# Batched bootstrap over a whole experiment


@dataclass(frozen=True)
class ExperimentBootstrap:
    """Per-replication samples of everything downstream of the fits.

    ``rates``/``null_rates`` have shape (replications, 10); reconstruction
    stacks have shape (replications, 4, 4).  ``nonconverged`` and
    ``null_nonconverged`` count, per overlap, the replications whose refit
    did not converge; those replications stay in every sample array.
    """

    fits: list
    null_fits: list | None
    rates: np.ndarray
    null_rates: np.ndarray | None
    unital: np.ndarray
    null_unital: np.ndarray | None
    corrected_left: np.ndarray | None
    corrected_right: np.ndarray | None
    ref_rates: np.ndarray
    nonconverged: np.ndarray
    null_nonconverged: np.ndarray | None

    @property
    def replications(self) -> int:
        return self.rates.shape[0]

    def overlap_samples(self) -> np.ndarray:
        return 1.0 + 3.0 * self.rates

    def stack(self, variant: str) -> np.ndarray | None:
        """Reconstruction samples of a variant: ``raw``, ``left`` or ``right``."""
        return {
            "raw": self.unital,
            "left": self.corrected_left,
            "right": self.corrected_right,
        }[variant]


def _bootstrap_rates_for(
    datasets: dict,
    ref_resamples: dict,
    fits: list,
    replications: int,
    seed: int,
    samples_per_config: int | None,
):
    rates = np.empty((replications, len(datasets)))
    ref_rates = np.empty((replications, len(datasets)))
    nonconverged = np.empty(len(datasets), dtype=np.int64)
    for col, j in enumerate(sorted(datasets)):
        means = resampled_means(
            datasets[j], replications, seed, samples_per_config, "bootstrap"
        )
        res = _refit(means, ref_resamples, fits[col])
        rates[:, col] = res["rate"]
        ref_rates[:, col] = res["ref_rate"]
        nonconverged[col] = np.count_nonzero(~res["converged"])
    return rates, ref_rates, nonconverged


def experiment_bootstrap(
    exp_datasets: dict,
    reference: DecayDataset,
    replications: int = 2000,
    seed: int = 0,
    samples_per_config: int | None = None,
    null_datasets: dict | None = None,
    fits: list | None = None,
    null_fits: list | None = None,
) -> ExperimentBootstrap:
    """Joint non-parametric bootstrap of a full experiment.

    Each replication resamples every dataset's bins per configuration (the
    shared reference once, reused by all ten joint fits), refits, and
    reconstructs; when null-operation data are present the left/right
    corrected reconstructions are propagated as well.
    """
    fits = fits or fit_overlaps(exp_datasets, reference)
    ref_resamples = resampled_means(
        reference, replications, seed, samples_per_config, "bootstrap"
    )
    rates, ref_rates, nonconverged = _bootstrap_rates_for(
        exp_datasets, ref_resamples, fits, replications, seed, samples_per_config
    )
    unital = reconstruct_unital_batch(1.0 + 3.0 * rates)
    null_rates = None
    null_nonconverged = None
    null_unital = None
    left = None
    right = None
    if null_datasets is not None:
        null_fits = null_fits or fit_overlaps(null_datasets, reference)
        null_rates, _, null_nonconverged = _bootstrap_rates_for(
            null_datasets, ref_resamples, null_fits, replications, seed, samples_per_config
        )
        null_unital = reconstruct_unital_batch(1.0 + 3.0 * null_rates)
        inv = np.linalg.inv(null_unital)
        left = np.einsum("bij,bjk->bik", inv, unital)
        right = np.einsum("bij,bjk->bik", unital, inv)
    return ExperimentBootstrap(
        fits=fits,
        null_fits=null_fits,
        rates=rates,
        null_rates=null_rates,
        unital=unital,
        null_unital=null_unital,
        corrected_left=left,
        corrected_right=right,
        ref_rates=ref_rates,
        nonconverged=nonconverged,
        null_nonconverged=null_nonconverged,
    )


def fidelity_samples(stack: np.ndarray, target_unitary: np.ndarray) -> np.ndarray:
    """Average-fidelity samples of a (batch, 4, 4) reconstruction stack."""
    ideal = superop_from_unitary(target_unitary)
    return (np.einsum("bij,ij->b", stack, ideal) + 2.0) / 6.0


def _fidelity_entry(point: float, samples: np.ndarray) -> dict:
    lo, hi = percentile_ci(samples)
    return {"estimate": float(point), "ci": [float(lo), float(hi)]}


def build_reconstruction(
    target_unitary: np.ndarray | None, boot: ExperimentBootstrap
) -> Reconstruction:
    """Assemble the point reconstruction, its corrections, and fidelity CIs."""
    overlap_point = overlaps_from_fits(boot.fits)
    lo, hi = percentile_ci(boot.overlap_samples())
    overlaps = OverlapVector(values=overlap_point, ci_low=lo, ci_high=hi)
    point = point_reconstructions(boot.fits, boot.null_fits)
    target_u = target_unitary if target_unitary is not None else np.eye(2, dtype=complex)
    fidelity = {
        variant: _fidelity_entry(
            avg_fidelity(point[variant], target_u),
            fidelity_samples(boot.stack(variant), target_u),
        )
        for variant in ("raw", "left", "right")
        if variant in point
    }
    if "null" in point:
        fidelity["null_condition_number"] = float(np.linalg.cond(point["null"]))
    return Reconstruction(
        unital=point["raw"],
        overlaps=overlaps,
        null_unital=point.get("null"),
        corrected_left=point.get("left"),
        corrected_right=point.get("right"),
        fidelity=fidelity,
    )


def w_direct_samples(overlap_samples: np.ndarray) -> np.ndarray:
    """Three-overlap direct fidelity estimate per bootstrap replication."""
    return w_fidelity_direct(*overlap_samples[:, [0, 4, 5]].T)


# ---------------------------------------------------------------------------
# Witness pipelines


@dataclass(frozen=True)
class SplitHalves:
    """What every split-half witness variant is scored from.

    ``first`` and ``second`` hold the point reconstructions of the first and
    second halves (see :func:`point_reconstructions`); ``boot`` bootstraps
    the second halves.  Corrected variants are present only when the halves
    were built with null-operation data.
    """

    first: dict
    second: dict
    boot: ExperimentBootstrap
    samples_per_config: int


def _halve(datasets: dict):
    halves = {j: split_halves(ds) for j, ds in datasets.items()}
    return {j: h[0] for j, h in halves.items()}, {j: h[1] for j, h in halves.items()}


def split_half_bootstrap(
    datasets: dict,
    reference: DecayDataset,
    replications: int = 2000,
    seed: int = 0,
    null_datasets: dict | None = None,
) -> SplitHalves:
    """Split every dataset's bins in half, reconstruct both halves, and
    bootstrap the second halves once for all witness variants.

    Bootstrap streams are keyed by dataset label, and second-half labels end
    in ``/half2`` whichever variant is scored, so one bootstrap serves the
    raw and both corrected variants.
    """
    first, second = _halve(datasets)
    ref1, ref2 = split_halves(reference)
    null_first = null_second = null_fits1 = null_fits2 = None
    if null_datasets is not None:
        null_first, null_second = _halve(null_datasets)
        null_fits1 = fit_overlaps(null_first, ref1)
        null_fits2 = fit_overlaps(null_second, ref2)
    boot = experiment_bootstrap(
        second,
        ref2,
        replications=replications,
        seed=seed,
        null_datasets=null_second,
        fits=fit_overlaps(second, ref2),
        null_fits=null_fits2,
    )
    some_group = next(iter(next(iter(second.values())).groups.values()))
    return SplitHalves(
        first=point_reconstructions(fit_overlaps(first, ref1), null_fits1),
        second=point_reconstructions(boot.fits, boot.null_fits),
        boot=boot,
        samples_per_config=int(some_group.n_bins),
    )


def rbt_witness_report(halves: SplitHalves, variant: str = "raw") -> WitnessReport:
    """Split-half cross-validated negativity witness for an overlap bundle.

    The first half of every configuration's bins fixes the witness; the
    second half estimates its expectation, with percentile confidence
    intervals from a bootstrap that resamples only the second half.
    ``variant`` selects the raw reconstruction or a left/right corrected one
    (requires halves built with null-operation data).
    """
    if variant not in ("raw", "left", "right"):
        raise ValueError(f"unknown witness variant {variant!r}")
    if variant not in halves.first:
        raise ValueError("corrected witness variants need null-operation data")
    e1 = halves.first[variant]
    witness = build_witness(e1)
    lo, hi = percentile_ci(witness_expectation_batch(witness, halves.boot.stack(variant)))
    return WitnessReport(
        witness=witness,
        expectation=evaluate_witness(witness, halves.second[variant]),
        ci=(float(lo), float(hi)),
        replications=halves.boot.replications,
        samples_per_config=halves.samples_per_config,
        eig_multiplicity=eig_multiplicity(e1),
    )


def qpt_point_estimate(ds: QptDataset, assumed_assignment_fidelity: float | None):
    return qpt_linear_inversion(ds.expectations(), assumed_assignment_fidelity)


def _qpt_batch_invert(bins: np.ndarray, resample_idx, assumed_f):
    means = bins[np.arange(bins.shape[0])[None, :, None], resample_idx].mean(axis=2)
    expectations = 2.0 * means - 1.0
    out = np.empty((means.shape[0], 4, 4))
    for b in range(means.shape[0]):
        out[b] = qpt_linear_inversion(expectations[b].reshape(4, 3), assumed_f)
    return out


def qpt_witness_report(
    ds: QptDataset,
    assumed_assignment_fidelity: float | None,
    replications: int = 2000,
    seed: int = 0,
) -> WitnessReport:
    """Split-half negativity witness for a tomography dataset.

    The reconstruction under test is the unital part of the linear-inversion
    estimate, mirroring the treatment of the overlap reconstructions.  Each
    bootstrap replication resamples the second half's bins per input/observable
    row and re-inverts; the witness fixed by the first half never changes.
    """
    first, second = split_halves(ds)
    e1 = unital_part(qpt_point_estimate(first, assumed_assignment_fidelity))
    witness = build_witness(e1)
    e2 = unital_part(qpt_point_estimate(second, assumed_assignment_fidelity))
    rows, nb = second.bins.shape
    rng = stream_generator(seed, "bootstrap", second.label)
    values = np.empty(replications)
    chunk = 200
    for start in range(0, replications, chunk):
        stop = min(start + chunk, replications)
        idx = rng.integers(0, nb, size=(stop - start, rows, nb))
        stack = _qpt_batch_invert(second.bins, idx, assumed_assignment_fidelity)
        stack[:, :, 0] = np.array([1.0, 0.0, 0.0, 0.0])  # unital part, batched
        values[start:stop] = witness_expectation_batch(witness, stack)
    lo, hi = percentile_ci(values)
    return WitnessReport(
        witness=witness,
        expectation=evaluate_witness(witness, e2),
        ci=(float(lo), float(hi)),
        replications=replications,
        samples_per_config=nb,
        eig_multiplicity=eig_multiplicity(e1),
    )


# ---------------------------------------------------------------------------
# Fidelity summary (reference benchmarking, raw and corrected reconstructions,
# tomography comparison, and the direct three-overlap estimate for the
# body-diagonal gate)


def summary_table(
    exp: Experiment,
    boot: ExperimentBootstrap,
    qpt_superop: np.ndarray | None = None,
    rec: Reconstruction | None = None,
) -> dict:
    """Fidelity estimates with bootstrap CIs for every estimation route.

    ``rec`` is the experiment's :func:`build_reconstruction`, built here when
    the caller has none.
    """
    fits = boot.fits
    ref_point = float(np.median([f.ref_rate for f in fits]))
    ref_samples = (1.0 + np.median(boot.ref_rates, axis=1)) / 2.0
    out = {
        "true_noisy_gate": exp.true_avg_fidelity(),
        "rb_reference": _fidelity_entry((1.0 + ref_point) / 2.0, ref_samples),
    }
    if rec is None:
        rec = build_reconstruction(exp.target_unitary, boot)
    out["rbt_raw"] = rec.fidelity["raw"]
    for side in ("left", "right"):
        if side in rec.fidelity:
            out[f"rbt_corrected_{side}"] = rec.fidelity[side]
    if qpt_superop is not None:
        target_u = exp.target_unitary
        if target_u is None:
            target_u = np.eye(2, dtype=complex)
        out["qpt"] = {"estimate": avg_fidelity(qpt_superop, target_u), "ci": None}
    if exp.target_name == "w":
        a = overlaps_from_fits(fits)
        out["w_direct"] = _fidelity_entry(
            w_fidelity_direct(a[0], a[4], a[5]),
            w_direct_samples(boot.overlap_samples()),
        )
    return out
