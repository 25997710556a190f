"""Generation, exhaustive enumeration, and compilation of benchmarking
sequences.

Convention, asserted by a dedicated test: gate lists are stored in
chronological order (first-applied gate first).  Transfer-matrix products
therefore run right-to-left over a list.  This is the single most common
source of tomography bugs, so it is fixed here once.

An overlap experiment of length ``n`` iterates the four-slot unit cell
``[C_r, target, C_j^-1, C_r^-1]`` (chronological order) with independently
chosen randomizers ``r`` from the A4 twirl group, whose first ten elements
are the reconstruction basis.  Runs of adjacent group gates are folded
through A4's integer multiplication table into single gates, leaving the
compiled alternating form ``[C_a1, target, C_a2, target, ..., C_a(n+1)]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .groups import GroupTable, a4_table

__all__ = [
    "INFINITE",
    "TARGET_SLOT",
    "RbtSequence",
    "SequenceSet",
    "unit_cell",
    "compile_cells",
    "make_sequence",
    "exhaustive_set",
    "infinite_length_surrogate",
    "PAPER_REPEATS",
]

INFINITE = math.inf

# Sentinel marking the interleaved target slot in abstract gate lists.
TARGET_SLOT = None

# Length-1 and infinite-length sequences are measured twelve times each, so
# one overlap experiment totals 2,160 runs over 1,896 distinct sequences.
PAPER_REPEATS = {1: 12, INFINITE: 12}


@dataclass(frozen=True, slots=True)
class RbtSequence:
    """One compiled sequence.

    ``compiled`` lists the group-gate indices in chronological order, and the
    target is applied between consecutive entries, so there are
    ``len(compiled) - 1`` target slots: ``n`` for an interleaved sequence of
    length ``n``, none for an infinite-length surrogate's single gate.

    The fields are slots: a default run holds 21,600 sequences, and each
    takes 72 bytes so, against 56 and a 280-byte ``__dict__`` without slots
    (``sys.getsizeof`` of the object and its dict, CPython 3.11.7).
    """

    length: float
    randomizers: tuple
    compiled: tuple
    repeat: int = 0
    # The row's ``tuple_id`` in sequences.json and dataset.csv, built once:
    # every simulation and every dataset.csv read looks up every row's id.
    row_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = "-".join(map(str, self.randomizers))
        object.__setattr__(self, "row_id", f"{base}#{self.repeat}" if self.repeat else base)

    @property
    def n_target_slots(self) -> int:
        return len(self.compiled) - 1


@dataclass(frozen=True)
class SequenceSet:
    """A batch of sequences plus the metadata used to generate it."""

    sequences: tuple
    basis_index: int | None
    lengths: tuple

    def counts_by_length(self) -> dict:
        out = {}
        for seq in self.sequences:
            out[seq.length] = out.get(seq.length, 0) + 1
        return out

    def distinct_count(self) -> int:
        return len({(s.length, s.randomizers) for s in self.sequences})

    def __len__(self) -> int:
        return len(self.sequences)


def unit_cell(r: int, j: int) -> list:
    """Four-slot cell ``[C_r, target, C_j^-1, C_r^-1]`` in application order."""
    table = a4_table()
    return [r, TARGET_SLOT, table.inverse(j), table.inverse(r)]


def _fold(run: list, table: GroupTable) -> int:
    """Fold a chronological run of gates into one index (later gates on the left)."""
    acc = run[0]
    for g in run[1:]:
        acc = table.multiply(g, acc)
    return acc


def compile_cells(cells: list, randomizers: tuple, repeat: int = 0) -> RbtSequence:
    """Fold adjacent gate runs of concatenated unit cells into single gates,
    one per target slot and one after the last.

    The folding is pure integer table arithmetic, so the compiled sequence
    reproduces the uncompiled product exactly for any channel substituted
    into the target slots.
    """
    table = a4_table()
    tokens = [tok for cell in cells for tok in cell]
    compiled = []
    run = []
    for tok in tokens:
        if tok is TARGET_SLOT:
            compiled.append(_fold(run, table))
            run = []
        else:
            run.append(tok)
    compiled.append(_fold(run, table))
    return RbtSequence(
        length=float(len(cells)),
        randomizers=tuple(randomizers),
        compiled=tuple(compiled),
        repeat=repeat,
    )


def make_sequence(randomizers, basis_index: int, repeat: int = 0) -> RbtSequence:
    """Build and compile the overlap sequence for a randomizer tuple."""
    cells = [unit_cell(r, basis_index) for r in randomizers]
    return compile_cells(cells, tuple(randomizers), repeat=repeat)


def infinite_length_surrogate(repeats: int = 1) -> SequenceSet:
    """The twelve single-gate sequences whose averaged survival estimates the
    decay asymptote: applying every group element once twirls the prepared
    state onto the maximally mixed state."""
    seqs = [
        RbtSequence(length=INFINITE, randomizers=(g,), compiled=(g,), repeat=rep)
        for rep in range(repeats)
        for g in range(1, a4_table().order + 1)
    ]
    return SequenceSet(sequences=tuple(seqs), basis_index=None, lengths=(INFINITE,))


def exhaustive_set(
    basis_index: int, lengths=(1, 2, 3), repeats: dict | None = None
) -> SequenceSet:
    """Every randomizer tuple over the A4 twirl group at each requested
    length, plus the infinite-length surrogate.

    With the default repeat counts this yields 12 + 144 + 1,728 + 12 = 1,896
    distinct sequences and 2,160 total runs per overlap experiment.  Each set
    is built once per process and every call with the same arguments gets
    that one immutable set.
    """
    if repeats is None:
        repeats = PAPER_REPEATS
    return _build_exhaustive_set(basis_index, tuple(lengths), frozenset(repeats.items()))


@lru_cache(maxsize=None)
def _build_exhaustive_set(basis_index, lengths, repeat_items):
    repeats = dict(repeat_items)
    seqs = []
    for n in lengths:
        for rep in range(repeats.get(n, 1)):
            for tup in product(range(1, a4_table().order + 1), repeat=int(n)):
                seqs.append(make_sequence(tup, basis_index, repeat=rep))
    inf_rep = int(repeats.get(INFINITE, 1))
    seqs.extend(infinite_length_surrogate(repeats=inf_rep).sequences)
    return SequenceSet(sequences=tuple(seqs), basis_index=basis_index, lengths=lengths + (INFINITE,))
