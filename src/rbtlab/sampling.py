"""Shot-level simulation of sequence sets under a noise and SPAM model.

Every sequence is an independent experiment: its survival probability is
propagated exactly through the compiled gate list, then binary outcomes are
drawn with a counter-based RNG substream keyed by (global seed, dataset
label, sequence position).  Execution order therefore never changes the
sampled data, and the same seed reproduces bit-identical datasets.

Datasets mirror the experiment shape: 10,000 shots per sequence recorded as
100 bins of 100 shots, which exposes the noise distribution to the
non-parametric bootstrap downstream.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import NoiseModel, SpamModel, apply_spam
from .groups import a4_elements, clifford24_elements
from .sequences import INFINITE, RbtSequence, SequenceSet

__all__ = [
    "stream_generator",
    "survival_probability",
    "sample_dataset",
    "DecayDataset",
    "LengthGroup",
    "QPT_INPUT_STATES",
    "QptDataset",
    "qpt_true_expectations",
    "sample_qpt_dataset",
]


def _stream_key(*labels) -> int:
    text = "\x1f".join(str(x) for x in labels)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def stream_generator(seed: int, *labels) -> np.random.Generator:
    """Independent counter-based RNG substream for (seed, labels)."""
    return np.random.Generator(np.random.Philox(key=[int(seed), _stream_key(*labels)]))


def _gate_superops(group: str) -> list:
    elements = a4_elements() if group == "a4" else clifford24_elements()
    return [e.superop for e in elements]


def survival_probability(
    seq: RbtSequence,
    target: np.ndarray | None,
    noise: NoiseModel,
    spam: SpamModel,
    noisy_target: bool = True,
) -> float:
    """Exact survival probability of one compiled sequence.

    The prepared state is propagated through alternating noisy group gates
    and target applications, then fed to the SPAM functional.  ``target`` is
    the ideal channel of the interleaved operation; gate noise is composed
    onto it unless ``noisy_target`` is false (a zero-length target such as
    the null operation is played as nothing and stays noiseless).
    """
    gates = _gate_superops(seq.group)
    if seq.n_target_slots and target is None:
        raise ValueError("sequence has target slots but no target was given")
    applied_target = None
    if seq.n_target_slots:
        applied_target = noise.apply(target) if noisy_target else np.asarray(target)
    state = spam.prep.copy()
    for pos, g in enumerate(seq.compiled):
        state = noise.apply(gates[g - 1], index=g) @ state
        if pos < seq.n_target_slots:
            state = applied_target @ state
    return apply_spam(state, spam)


@dataclass(frozen=True)
class LengthGroup:
    """All sequences of one length: row metadata plus a (rows, bins) array."""

    row_ids: tuple
    bins: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.bins.shape[0]

    @property
    def n_bins(self) -> int:
        return self.bins.shape[1]


@dataclass(frozen=True)
class DecayDataset:
    """Binned survival records for one sequence set.

    ``groups`` maps sequence length (int, or ``math.inf`` for the twirl
    surrogate) to a :class:`LengthGroup`.  Bin means live in [0, 1].
    """

    basis_index: int | None
    label: str
    shots: int
    bin_size: int
    seed: int
    groups: dict = field(default_factory=dict)

    def lengths(self) -> list:
        return sorted(self.groups, key=lambda n: (math.isinf(n), n))

    def finite_lengths(self) -> list:
        return [n for n in self.lengths() if not math.isinf(n)]

    def means(self) -> dict:
        return {n: float(g.bins.mean()) for n, g in self.groups.items()}

    def n_rows(self) -> int:
        return sum(g.n_rows for g in self.groups.values())

    def to_json_dict(self) -> dict:
        """JSON-ready form; infinite length is spelled "inf"."""
        return {
            "basis_index": self.basis_index,
            "label": self.label,
            "shots": self.shots,
            "bin_size": self.bin_size,
            "seed": self.seed,
            "groups": {
                ("inf" if math.isinf(n) else str(int(n))): {
                    "row_ids": list(grp.row_ids),
                    "bins": [[float(x) for x in row] for row in grp.bins],
                }
                for n, grp in sorted(
                    self.groups.items(), key=lambda kv: (math.isinf(kv[0]), kv[0])
                )
            },
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DecayDataset":
        groups = {}
        for key, grp in payload["groups"].items():
            n = INFINITE if key == "inf" else int(key)
            groups[n] = LengthGroup(tuple(grp["row_ids"]), np.array(grp["bins"], dtype=float))
        return cls(
            basis_index=payload["basis_index"],
            label=payload["label"],
            shots=payload["shots"],
            bin_size=payload["bin_size"],
            seed=payload["seed"],
            groups=groups,
        )


def sample_dataset(
    seq_set: SequenceSet,
    target: np.ndarray | None,
    noise: NoiseModel,
    spam: SpamModel,
    shots: int = 10_000,
    bin_size: int = 100,
    seed: int = 0,
    label: str = "",
    noisy_target: bool = True,
) -> DecayDataset:
    """Draw binned binary outcomes for every sequence in the set.

    Each sequence row gets its own RNG substream keyed by
    ``(seed, label, length, row position)``; bins record the per-bin mean of
    ``bin_size`` Bernoulli draws at the sequence's survival probability.
    """
    if shots % bin_size:
        raise ValueError(f"shots={shots} not divisible by bin_size={bin_size}")
    n_bins = shots // bin_size
    by_length: dict = {}
    for seq in seq_set.sequences:
        key = INFINITE if math.isinf(seq.length) else int(seq.length)
        by_length.setdefault(key, []).append(seq)
    groups = {}
    survival_cache: dict = {}
    for n, seqs in by_length.items():
        bins = np.empty((len(seqs), n_bins))
        row_ids = []
        for r, seq in enumerate(seqs):
            cache_key = (seq.group, seq.basis_index, seq.compiled, seq.n_target_slots)
            p = survival_cache.get(cache_key)
            if p is None:
                p = survival_probability(seq, target, noise, spam, noisy_target)
                survival_cache[cache_key] = p
            rng = stream_generator(seed, label, n, r)
            bins[r] = rng.binomial(bin_size, p, size=n_bins) / bin_size
            row_ids.append(seq.row_id)
        groups[n] = LengthGroup(row_ids=tuple(row_ids), bins=bins)
    return DecayDataset(
        basis_index=seq_set.basis_index,
        label=label,
        shots=shots,
        bin_size=bin_size,
        seed=seed,
        groups=groups,
    )


# ---------------------------------------------------------------------------
# Process tomography experiment shape: 4 input states x 3 Pauli observables.

# Pauli vectors of |0>, |1>, |+>, |+i>.
QPT_INPUT_STATES = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
        [1.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 1.0, 0.0],
    ]
)


@dataclass(frozen=True)
class QptDataset:
    """Binned tomography records: one row per (input state, observable).

    ``bins`` has shape (12, n_bins) and stores per-bin frequencies of the +1
    outcome; expectation estimates are ``2 * mean - 1``.
    """

    bins: np.ndarray
    shots: int
    bin_size: int
    seed: int
    label: str = "qpt"

    def expectations(self) -> np.ndarray:
        """Point estimates of the 4x3 expectation table."""
        return (2.0 * self.bins.mean(axis=1) - 1.0).reshape(4, 3)


def qpt_true_expectations(channel: np.ndarray, assignment_fidelity: float = 1.0) -> np.ndarray:
    """Analytic (infinite-shot) expectation table including readout visibility."""
    outputs = QPT_INPUT_STATES @ np.asarray(channel).T
    visibility = 2.0 * assignment_fidelity - 1.0
    return visibility * outputs[:, 1:]


def sample_qpt_dataset(
    channel: np.ndarray,
    assignment_fidelity: float = 1.0,
    shots: int = 10_000,
    bin_size: int = 100,
    seed: int = 0,
    label: str = "qpt",
) -> QptDataset:
    """Shot-sampled tomography of a channel with readout assignment error."""
    if shots % bin_size:
        raise ValueError(f"shots={shots} not divisible by bin_size={bin_size}")
    n_bins = shots // bin_size
    truth = qpt_true_expectations(channel, assignment_fidelity).ravel()
    probs = 0.5 * (1.0 + truth)
    bins = np.empty((12, n_bins))
    for row, p in enumerate(probs):
        rng = stream_generator(seed, label, row)
        bins[row] = rng.binomial(bin_size, min(max(p, 0.0), 1.0), size=n_bins) / bin_size
    return QptDataset(bins=bins, shots=shots, bin_size=bin_size, seed=seed, label=label)
