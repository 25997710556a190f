import dataclasses
import itertools
import math

import numpy as np

from rbtlab.groups import a4_elements, a4_table
from rbtlab.sequences import (
    INFINITE,
    PAPER_REPEATS,
    TARGET_SLOT,
    compile_cells,
    exhaustive_set,
    infinite_length_surrogate,
    make_sequence,
    unit_cell,
)

SUPEROPS = [e.superop for e in a4_elements()]
TABLE = a4_table()


def uncompiled_product(randomizers, j, target):
    """Transfer-matrix product of the raw (uncompiled) cell chain."""
    m = np.eye(4)
    for r in randomizers:
        m = SUPEROPS[r - 1] @ m
        m = target @ m
        m = SUPEROPS[TABLE.inverse(j) - 1] @ m
        m = SUPEROPS[TABLE.inverse(r) - 1] @ m
    return m


def compiled_product(seq, target):
    m = np.eye(4)
    for pos, g in enumerate(seq.compiled):
        m = SUPEROPS[g - 1] @ m
        if pos < seq.n_target_slots:
            m = target @ m
    return m


class TestUnitCell:
    def test_trivial_cell(self):
        assert unit_cell(1, 1) == [1, TARGET_SLOT, 1, 1]

    def test_cell_order_is_chronological(self):
        # randomizer first, then the target slot, then the two inverses
        cell = unit_cell(5, 3)
        assert cell == [5, TARGET_SLOT, TABLE.inverse(3), TABLE.inverse(5)]

    def test_cell_telescopes_for_ideal_target(self):
        for r, j in [(2, 3), (7, 5), (11, 9)]:
            seq = make_sequence((r,), j)
            net = compiled_product(seq, SUPEROPS[j - 1])
            assert np.allclose(net, np.eye(4))

    def test_cell_product_matches_direct_formula(self, rng):
        target = rng.normal(size=(4, 4))
        r, j = 2, 3
        seq = make_sequence((r,), j)
        direct = (
            SUPEROPS[TABLE.inverse(r) - 1]
            @ SUPEROPS[TABLE.inverse(j) - 1]
            @ target
            @ SUPEROPS[r - 1]
        )
        assert np.abs(compiled_product(seq, target) - direct).max() < 1e-12


class TestCompile:
    def test_trivial_sequence(self):
        seq = make_sequence((1,), 1)
        assert seq.compiled == (1, 1)
        assert seq.n_target_slots == 1

    def test_interior_fold_cancels(self):
        seq = make_sequence((5, 5), 1)
        assert seq.compiled[1] == 1

    def test_compiled_structure(self):
        seq = make_sequence((2, 7, 11), 4)
        assert len(seq.compiled) == 4
        assert seq.n_target_slots == 3
        assert all(1 <= g <= 12 for g in seq.compiled)

    def test_soundness_all_length_two(self, rng):
        # compiled and uncompiled products agree for an arbitrary channel in
        # the target slots: the fold is pure integer group arithmetic
        target = rng.normal(size=(4, 4))
        for j in (1, 4, 8):
            for tup in itertools.product(range(1, 13), repeat=2):
                seq = make_sequence(tup, j)
                gap = np.abs(
                    compiled_product(seq, target) - uncompiled_product(tup, j, target)
                ).max()
                assert gap < 1e-12

    def test_soundness_all_length_three_for_one_overlap(self, rng):
        target = rng.normal(size=(4, 4))
        for tup in itertools.product(range(1, 13), repeat=3):
            seq = make_sequence(tup, 6)
            gap = np.abs(
                compiled_product(seq, target) - uncompiled_product(tup, 6, target)
            ).max()
            assert gap < 1e-12

    def test_net_identity_for_matching_ideal_target(self, rng):
        for _ in range(50):
            j = int(rng.integers(1, 11))
            n = int(rng.integers(1, 4))
            tup = tuple(int(x) for x in rng.integers(1, 13, size=n))
            seq = make_sequence(tup, j)
            assert np.allclose(compiled_product(seq, SUPEROPS[j - 1]), np.eye(4))

    def test_compile_cells_entry_point(self):
        cells = [unit_cell(r, 2) for r in (3, 9)]
        seq = compile_cells(cells, (3, 9))
        assert seq == make_sequence((3, 9), 2)


class TestExhaustiveSet:
    def test_paper_counts(self):
        ss = exhaustive_set(3)
        counts = ss.counts_by_length()
        assert counts[1] == 12 * PAPER_REPEATS[1]
        assert counts[2] == 144
        assert counts[3] == 1728
        assert counts[INFINITE] == 12 * PAPER_REPEATS[INFINITE]
        assert ss.distinct_count() == 1896
        assert len(ss) == 2160

    def test_no_duplicate_tuples_within_length(self):
        ss = exhaustive_set(5, repeats={})
        for n in (1, 2, 3):
            tuples = [s.randomizers for s in ss.sequences if s.length == n]
            assert len(tuples) == len(set(tuples)) == 12**n

    def test_set_equality_across_enumeration_order(self):
        a = {(s.length, s.randomizers, s.repeat) for s in exhaustive_set(2).sequences}
        b = {
            (s.length, s.randomizers, s.repeat)
            for s in reversed(exhaustive_set(2).sequences)
        }
        assert a == b

    def test_repeats_recorded(self):
        ss = exhaustive_set(1)
        repeats = {s.repeat for s in ss.sequences if s.length == 1}
        assert repeats == set(range(12))

    def test_default_table_sets_built_once(self):
        first = exhaustive_set(4, lengths=(1, 2), repeats={1: 2})
        again = exhaustive_set(4, lengths=(1, 2), repeats={1: 2})
        assert again.sequences is first.sequences


class TestInfiniteSurrogate:
    def test_twelve_single_gate_sequences(self):
        ss = infinite_length_surrogate()
        assert len(ss) == 12
        for seq in ss.sequences:
            assert math.isinf(seq.length)
            assert len(seq.compiled) == 1
            assert seq.n_target_slots == 0

    def test_row_ids_unique_with_repeats(self):
        ss = infinite_length_surrogate(repeats=3)
        ids = [s.row_id for s in ss.sequences]
        assert len(ids) == len(set(ids)) == 36

    def test_row_id_built_once_per_sequence(self):
        seq = make_sequence((3, 11, 7), basis_index=2, repeat=4)
        assert seq.row_id == "3-11-7#4" and seq.row_id is seq.row_id
        assert dataclasses.replace(seq, repeat=0).row_id == "3-11-7"
        assert seq == dataclasses.replace(seq) and "row_id" not in repr(seq)


class TestNullTargetReduction:
    def test_null_interleave_is_standard_randomization(self):
        # with the null operation in the target slots, the compiled sequence
        # net transfer matrix is the identity, exactly as in standard
        # benchmarking of the randomizing gates
        for tup in itertools.product(range(1, 13), repeat=2):
            seq = make_sequence(tup, 1)
            assert np.allclose(compiled_product(seq, np.eye(4)), np.eye(4))
