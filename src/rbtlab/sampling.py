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
from .groups import a4_elements
from .sequences import INFINITE, RbtSequence, SequenceSet

__all__ = [
    "stream_generator",
    "survival_probability",
    "lay_out",
    "sample_dataset",
    "DecayDataset",
    "LengthGroup",
    "QPT_INPUT_STATES",
    "QptDataset",
    "qpt_true_expectations",
    "sample_qpt_dataset",
]


def _stream_keys(labels, lasts) -> list:
    """``_stream_key(*labels, x)`` for each ``x`` of ``lasts``: every hash
    continues one copy of the hash state of the shared ``labels``."""
    head = hashlib.blake2b("".join(f"{x}\x1f" for x in labels).encode(), digest_size=8)
    keys = []
    for x in lasts:
        h = head.copy()
        h.update(str(x).encode())
        keys.append(int.from_bytes(h.digest(), "big"))
    return keys


def _stream_key(*labels) -> int:
    """blake2b-64 of the labels joined by U+001F, as an integer."""
    return _stream_keys(labels[:-1], labels[-1:])[0]


def stream_generator(seed: int, *labels) -> np.random.Generator:
    """Independent counter-based RNG substream for (seed, labels).

    The Philox key is the pair ``(seed, blake2b-64 of the labels)``.  numpy
    converts that pair with ``np.asarray``, so a label hash of 2**63 or more
    (half of all streams) passes through float64 and keeps only 53
    significant bits.  The rounded key is part of the byte contract of every
    simulated dataset: a key built exactly as uint64 would change the draws.
    """
    return np.random.Generator(np.random.Philox(key=[int(seed), _stream_key(*labels)]))


def _philox_keys(seed: int, hashes: np.ndarray) -> np.ndarray:
    """The key ``stream_generator`` hands to Philox for ``seed`` and each
    label hash, rounding included: row ``r`` is
    ``np.asarray([int(seed), int(hashes[r])]).astype(np.uint64)``.  The
    dtype numpy picks for such a pair depends only on whether the hash is
    2**63 or more, so each side converts as one array, through that dtype."""
    keys = np.empty((hashes.size, 2), dtype=np.uint64)
    for part, probe in ((hashes < 2**63, 0), (hashes >= 2**63, 2**63)):
        pair = np.asarray([int(seed), probe])
        keys[part, 0] = pair.astype(np.uint64)[0]
        keys[part, 1] = hashes[part].astype(pair.dtype).astype(np.uint64)
    return keys


def survival_probability(
    seq: RbtSequence,
    target: np.ndarray | None,
    noise: NoiseModel,
    spam: SpamModel,
    noisy_target: bool = True,
) -> float:
    """Exact survival probability of one compiled sequence.

    The prepared state is propagated through alternating noisy A4 gates
    and target applications, then fed to the SPAM functional.  ``target`` is
    the ideal channel of the interleaved operation; gate noise is composed
    onto it unless ``noisy_target`` is false (a zero-length target such as
    the null operation is played as nothing and stays noiseless).
    """
    elements = a4_elements()
    if seq.n_target_slots and target is None:
        raise ValueError("sequence has target slots but no target was given")
    applied_target = None
    if seq.n_target_slots:
        applied_target = noise.apply(target) if noisy_target else np.asarray(target)
    state = spam.prep.copy()
    for pos, g in enumerate(seq.compiled):
        state = noise.apply(elements[g - 1].superop) @ state
        if pos < seq.n_target_slots:
            state = applied_target @ state
    return apply_spam(state, spam)


@dataclass(frozen=True)
class LengthGroup:
    """All sequences of one length: row metadata plus a (rows, bins) array.

    The simulator and the ``dataset.csv`` reader both make ``bins`` a view
    of the group's rows in one matrix of the whole experiment, in
    ``dataset.csv`` order.
    """

    row_ids: tuple
    bins: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.bins.shape[0]

    @property
    def n_bins(self) -> int:
        return self.bins.shape[1]

    def mean(self) -> float:
        """The mean of every bin of the group.  It is taken over a contiguous
        copy when ``bins`` is a strided view (a split half), because numpy's
        summation order, and so the last bit, depends on the memory layout."""
        return float(np.ascontiguousarray(self.bins).mean())


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
        return {n: g.mean() for n, g in self.groups.items()}

    def n_rows(self) -> int:
        return sum(g.n_rows for g in self.groups.values())


def _survival_probabilities(
    seqs: list,
    target: np.ndarray | None,
    noise: NoiseModel,
    spam: SpamModel,
    noisy_target: bool,
) -> np.ndarray:
    """:func:`survival_probability` of every sequence, bit for bit.

    The twelve noisy A4 gates and the target are built once.  Sequences of
    one shape are propagated together as ``(N,4,4) @ (N,4,1)`` products and
    measured as ``(N,1,4) @ (4,1)``, which round exactly as the per-sequence
    ``@`` and ``np.dot`` do.
    """
    if target is not None:
        applied_target = noise.apply(target) if noisy_target else np.asarray(target)
    gates = np.stack([noise.apply(e.superop) for e in a4_elements()])
    batches: dict = {}
    for i, seq in enumerate(seqs):
        batches.setdefault((len(seq.compiled), seq.n_target_slots), []).append(i)
    out = np.empty(len(seqs))
    for (n_gates, n_slots), rows in batches.items():
        if n_slots and target is None:
            raise ValueError("sequence has target slots but no target was given")
        compiled = np.array([seqs[i].compiled for i in rows])
        state = np.repeat(spam.prep.reshape(1, 4, 1), len(rows), axis=0)
        for pos in range(n_gates):
            state = gates[compiled[:, pos] - 1] @ state
            if pos < n_slots:
                state = applied_target @ state
        raw = (state.reshape(-1, 1, 4) @ spam.meas.reshape(4, 1)).reshape(-1)
        raw = np.minimum(np.maximum(raw, 0.0), 1.0)
        f = spam.assignment_fidelity
        out[rows] = f * raw + (1.0 - f) * (1.0 - raw)
    return out


def lay_out(
    seq_set: SequenceSet, bins: np.ndarray, label: str, shots: int, bin_size: int, seed: int
) -> DecayDataset:
    """The dataset of ``seq_set`` over the rows of ``bins``, in
    ``dataset.csv`` order: by length with ``inf`` last, sequences in order
    within a length.  Every length group is a view of its rows."""
    rows: dict = {}
    for seq in seq_set.sequences:
        rows.setdefault(INFINITE if math.isinf(seq.length) else int(seq.length), []).append(seq)
    groups, start = {}, 0
    for n in sorted(rows):  # inf sorts last
        groups[n] = LengthGroup(tuple(s.row_id for s in rows[n]), bins[start : start + len(rows[n])])
        start += len(rows[n])
    return DecayDataset(seq_set.basis_index, label, shots, bin_size, seed, groups)


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
    out: np.ndarray | None = None,
) -> DecayDataset:
    """Draw binned binary outcomes for every sequence in the set.

    Each sequence row gets its own RNG substream keyed by
    ``(seed, label, length, row position)``; bins record the per-bin mean of
    ``bin_size`` Bernoulli draws at the sequence's survival probability.
    One Philox generator is re-keyed per row instead of built per row; it
    draws what ``stream_generator(seed, label, length, row)`` would.

    The bins fill ``out``, a float64 ``(rows, shots // bin_size)`` block
    that is allocated when not given and laid out by :func:`lay_out`.  Each
    row's counts are written into the block and the block is divided by
    ``bin_size`` in place, which rounds as dividing the integer counts does.
    """
    if shots % bin_size:
        raise ValueError(f"shots={shots} not divisible by bin_size={bin_size}")
    n_bins = shots // bin_size
    seqs = seq_set.sequences
    if out is None:
        out = np.empty((len(seqs), n_bins))
    elif out.shape != (len(seqs), n_bins) or out.dtype != np.float64:
        raise ValueError(f"out must be float64 of shape {(len(seqs), n_bins)}")
    ds = lay_out(seq_set, out, label, shots, bin_size, seed)
    probs = _survival_probabilities(seqs, target, noise, spam, noisy_target)
    lengths = np.array([seq.length for seq in seqs])
    bitgen = np.random.Philox(key=[0, 0])
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    for n, grp in ds.groups.items():
        block = grp.bins
        hashes = np.array(_stream_keys((label, n), range(grp.n_rows)), dtype=np.uint64)
        keys = _philox_keys(seed, hashes)
        for r, p in enumerate(probs[lengths == n].tolist()):
            fresh["state"]["key"] = keys[r]
            bitgen.state = fresh
            block[r] = rng.binomial(bin_size, p, size=n_bins)
    out /= bin_size
    return ds


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
