"""End-to-end orchestration: simulate overlap experiments, fit decays,
reconstruct, correct, and cross-validate physicality.

A full experiment for a target gate consists of ten exhaustive overlap
datasets for the target, ten more for the null operation (used to remove
randomizing-gate error by left/right correction), and one shared reference
decay (a standard benchmarking experiment of the null operation).  All
bootstrap machinery is batched: every replication resamples each dataset's
bins per configuration, refits all decays, and propagates through the linear
reconstruction, so replication loops never leave numpy.  An experiment's
point fits run as one minimizer batch, and the refits of every replication
of every dataset as one more (split between datasets past 4,096 rows);
since each minimizer row evolves on its own, the results are those of
fitting one dataset at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import NoiseModel, SpamModel
# perfbench/tracer.py wraps pipeline.joint_fit, so the name stays here.
from .fitting import (  # noqa: F401
    _refits,
    _resample_bins,
    decay_to_overlap,
    joint_fit,
    joint_fits,
    percentile_ci,
    resampled_means,
)
from .groups import rotation_unitary
from .pauli import avg_fidelity, superop_from_unitary, unital_part
from .reconstruction import (
    ChannelInversionError,
    OverlapVector,
    Reconstruction,
    corrected,
    qpt_linear_inversion,
    reconstruct_unital,
    reconstruct_unital_batch,
    w_fidelity_direct,
)
from .sampling import DecayDataset, QptDataset, sample_dataset, stream_generator
from .sequences import exhaustive_set
from .witness import (
    WitnessReport,
    build_witness,
    eig_multiplicity,
    evaluate_witness,
    split_halves,
    witness_expectation_batch,
)

__all__ = [
    "experiment_design",
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
REFERENCE_OVERLAP = 1  # the reference decay is sampled from this overlap's sequences

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


def experiment_design(name: str, has_null: bool, lengths, repeats: dict | None):
    """Yield ``(role, j, label, SequenceSet)`` of every decay dataset of an
    experiment, in the order of ``sequences.json`` and ``dataset.csv``: the
    target's overlaps 1-10, then, when the target has null data, the null
    operation's overlaps 1-10, then the reference (``j`` None), which takes
    the ``REFERENCE_OVERLAP`` sequences.  Each set's ``basis_index`` is the
    overlap its sequences come from."""
    roles = [("target", name)] + ([("null", "null")] if has_null else [])
    sets = [(role, j, f"{prefix}/overlap-{j}") for role, prefix in roles for j in range(1, N_OVERLAPS + 1)]
    for role, j, label in sets + [("reference", None, "reference")]:
        yield role, j, label, exhaustive_set(j or REFERENCE_OVERLAP, lengths=lengths, repeats=repeats)


@dataclass(frozen=True)
class Experiment:
    """All simulated data needed to reconstruct and correct one target.

    ``decays`` maps each ``(role, j)`` of :func:`experiment_design` to its
    dataset, in design order.
    """

    target_name: str
    target_unitary: np.ndarray | None
    decays: dict
    noise: NoiseModel

    def _overlaps(self, role: str) -> dict:
        return {j: ds for (r, j), ds in self.decays.items() if r == role}

    @property
    def datasets(self) -> dict:
        return self._overlaps("target")

    @property
    def null_datasets(self) -> dict | None:
        return self._overlaps("null") or None

    @property
    def reference(self) -> DecayDataset:
        return self.decays[("reference", None)]

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
    Only the target's overlaps play the target, with gate noise; the null
    operation is played as nothing.

    Every dataset's bins are a block of rows of one float64 matrix, the
    datasets in :func:`experiment_design` order, as the staged reader
    (``cli._read_dataset_csv``) holds them.  At paper scale that matrix is
    mapped on its own and goes back to the system when the experiment is
    freed, where per-group arrays would stay behind in malloc's heap.
    """
    name, unitary = resolve_target(target_spec)
    ideal = None if unitary is None else superop_from_unitary(unitary)
    design = list(experiment_design(name, unitary is not None, lengths, repeats))
    bins = np.empty((sum(len(seqs) for *_, seqs in design), shots // bin_size))
    decays = {}
    start = 0
    for role, j, label, seqs in design:
        noisy = role == "target" and ideal is not None
        decays[(role, j)] = sample_dataset(
            seqs,
            ideal if noisy else np.eye(4),
            noise,
            spam,
            shots=shots,
            bin_size=bin_size,
            seed=seed,
            label=label,
            noisy_target=noisy,
            out=bins[start : start + len(seqs)],
        )
        start += len(seqs)
    return Experiment(target_name=name, target_unitary=unitary, decays=decays, noise=noise)


def fit_overlaps(datasets: dict, reference: DecayDataset) -> list:
    """Joint four-parameter fit of every overlap decay against the shared
    reference decay."""
    return _fit_sets([(datasets, reference)])[0]


def _fit_sets(pairs: list) -> list:
    """:func:`fit_overlaps` of several (overlap set, reference) pairs, all in
    one :func:`joint_fits` call."""
    fits = iter(joint_fits([(ds[j], ref) for ds, ref in pairs for j in sorted(ds)]))
    return [[next(fits) for _ in ds] for ds, _ in pairs]


def overlaps_from_fits(fits) -> np.ndarray:
    return np.array([decay_to_overlap(f.rate) for f in fits])


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

    ``rates``/``null_rates`` have shape (replications, 10).  ``nonconverged``
    and ``null_nonconverged`` count, per overlap, the replications whose
    refit did not converge; those replications stay in every sample array.
    The reconstruction stacks, of shape (replications, 4, 4), are derived
    from the rates: the unital samples and, given null-operation rates, the
    left/right corrected samples.  The fused pipeline and a staged
    ``reconstruct`` that reloads ``fit``'s bootstrap both derive them here.
    """

    fits: list
    null_fits: list | None
    rates: np.ndarray
    null_rates: np.ndarray | None
    ref_rates: np.ndarray
    nonconverged: np.ndarray
    null_nonconverged: np.ndarray | None
    unital: np.ndarray = field(init=False)
    corrected_left: np.ndarray | None = field(init=False)
    corrected_right: np.ndarray | None = field(init=False)

    def __post_init__(self):
        unital = reconstruct_unital_batch(decay_to_overlap(self.rates))
        left = right = None
        if self.null_rates is not None:
            null = reconstruct_unital_batch(decay_to_overlap(self.null_rates))
            try:
                inv = np.linalg.inv(null)
            except np.linalg.LinAlgError:
                cond = np.linalg.cond(null)
                worst = int(np.argmax(cond))
                raise ChannelInversionError(float(cond[worst]), replication=worst) from None
            left = np.einsum("bij,bjk->bik", inv, unital)
            right = np.einsum("bij,bjk->bik", unital, inv)
        object.__setattr__(self, "unital", unital)
        object.__setattr__(self, "corrected_left", left)
        object.__setattr__(self, "corrected_right", right)

    def overlap_samples(self) -> np.ndarray:
        return decay_to_overlap(self.rates)

    def stack(self, variant: str) -> np.ndarray | None:
        """Reconstruction samples of a variant: ``raw``, ``left`` or ``right``."""
        return {
            "raw": self.unital,
            "left": self.corrected_left,
            "right": self.corrected_right,
        }[variant]


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
    shared reference once, reused by all joint fits), refits, and
    reconstructs; when null-operation data are present the left/right
    corrected reconstructions are propagated as well.  Missing point fits
    are made in one :func:`joint_fits` batch, and the refits of every
    replication of every dataset run as one more.
    """
    sets = [exp_datasets] + ([] if null_datasets is None else [null_datasets])
    points = [fits, null_fits][: len(sets)]
    missing = [k for k, given in enumerate(points) if not given]
    for k, made in zip(missing, _fit_sets([(sets[k], reference) for k in missing])):
        points[k] = made
    fits, null_fits = (points + [None])[:2]
    ref_resamples = resampled_means(
        reference, replications, seed, samples_per_config, "bootstrap"
    )
    means = [
        resampled_means(ds[j], replications, seed, samples_per_config, "bootstrap")
        for ds in sets
        for j in sorted(ds)
    ]
    res = _refits(means, ref_resamples, [f for role in points for f in role])
    # Columns: the target's overlaps, then the null operation's.
    n = len(exp_datasets)
    rates = np.stack([r["rate"] for r in res], axis=1)
    nonconverged = np.array([np.count_nonzero(~r["converged"]) for r in res], dtype=np.int64)
    null_rates = null_nonconverged = None
    if null_datasets is not None:
        null_rates, null_nonconverged = rates[:, n:].copy(), nonconverged[n:]
    return ExperimentBootstrap(
        fits,
        null_fits,
        rates[:, :n].copy(),
        null_rates,
        np.stack([r["ref_rate"] for r in res[:n]], axis=1),
        nonconverged[:n],
        null_nonconverged,
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
    return Reconstruction(point=point, overlaps=overlaps, fidelity=fidelity)


def w_direct_samples(overlap_samples: np.ndarray) -> np.ndarray:
    """Three-overlap direct fidelity estimate per bootstrap replication."""
    return w_fidelity_direct(*overlap_samples[:, [0, 4, 5]].T)


# ---------------------------------------------------------------------------
# Witness pipelines


@dataclass(frozen=True)
class SplitHalves:
    """What every split-half witness variant is scored from.

    ``first`` and ``second`` hold the point reconstructions of the first and
    second halves (see :func:`point_reconstructions`), ``first_fits`` the
    first halves' point fits (target, then null), and ``boot`` bootstraps
    the second halves and holds their point fits.  Corrected variants are present
    only when the halves were built with null-operation data.
    """

    first: dict
    second: dict
    boot: ExperimentBootstrap
    samples_per_config: int
    first_fits: list


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
    raw and both corrected variants.  The point fits of both halves run in
    one :func:`joint_fits` call.
    """
    first, second = _halve(datasets)
    ref1, ref2 = split_halves(reference)
    pairs, null_second = [(first, ref1), (second, ref2)], None
    if null_datasets is not None:
        null_first, null_second = _halve(null_datasets)
        pairs += [(null_first, ref1), (null_second, ref2)]
    fits1, fits2, *null_fits = _fit_sets(pairs)
    null_fits1, null_fits2 = null_fits or (None, None)
    boot = experiment_bootstrap(
        second,
        ref2,
        replications=replications,
        seed=seed,
        null_datasets=null_second,
        fits=fits2,
        null_fits=null_fits2,
    )
    some_group = next(iter(next(iter(second.values())).groups.values()))
    return SplitHalves(
        first=point_reconstructions(fits1, null_fits1),
        second=point_reconstructions(fits2, null_fits2),
        boot=boot,
        samples_per_config=int(some_group.n_bins),
        first_fits=fits1 + (null_fits1 or []),
    )


def _witness_report(e1, e2, stack: np.ndarray, samples_per_config: int) -> WitnessReport:
    """The witness that ``e1`` fixes, with its eigenvalue multiplicity, its
    expectation under ``e2`` and the percentile CI of its expectations under
    the bootstrap ``stack`` of transfer matrices, one per replication."""
    witness = build_witness(e1)
    lo, hi = percentile_ci(witness_expectation_batch(witness, stack))
    return WitnessReport(
        witness=witness,
        expectation=evaluate_witness(witness, e2),
        ci=(float(lo), float(hi)),
        replications=len(stack),
        samples_per_config=samples_per_config,
        eig_multiplicity=eig_multiplicity(e1),
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
    first, second = halves.first[variant], halves.second[variant]
    return _witness_report(first, second, halves.boot.stack(variant), halves.samples_per_config)


def qpt_point_estimate(ds: QptDataset, assumed_assignment_fidelity: float | None):
    return qpt_linear_inversion(ds.expectations(), assumed_assignment_fidelity)


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

    def stack(drawn):
        # Each replication's per-row means, re-inverted as one stack.
        tables = (2.0 * drawn.mean(axis=2) - 1.0).reshape(-1, 4, 3)
        return unital_part(qpt_linear_inversion(tables, assumed_assignment_fidelity))

    rng = stream_generator(seed, "bootstrap", second.label)
    return _witness_report(
        unital_part(qpt_point_estimate(first, assumed_assignment_fidelity)),
        unital_part(qpt_point_estimate(second, assumed_assignment_fidelity)),
        _resample_bins(second.bins, replications, rng, stack, shape=(4, 4)),
        second.bins.shape[1],
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
    ref_point = float(np.median([f.ref_rate for f in boot.fits]))
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
        a = rec.overlaps.values
        out["w_direct"] = _fidelity_entry(
            w_fidelity_direct(a[0], a[4], a[5]),
            w_direct_samples(boot.overlap_samples()),
        )
    return out
