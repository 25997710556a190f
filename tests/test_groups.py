import hashlib

import numpy as np
import pytest
import scipy.linalg as sla

from rbtlab.groups import (
    a4_elements,
    a4_table,
    clifford24_elements,
    clifford24_table,
    frame_potential,
    overlap_basis,
    rotation_unitary,
)
from rbtlab.pauli import PAULIS, compose, superop_from_unitary

X, Y, Z = PAULIS[1], PAULIS[2], PAULIS[3]

# The defining exponents of the twelve twirling unitaries, for checking the
# closed-form constructions against an independent matrix exponential.
A4_EXPONENTS = [
    np.zeros((2, 2), dtype=complex),
    -1j * np.pi / 2 * X,
    -1j * np.pi / 2 * Y,
    -1j * np.pi / 2 * Z,
    -1j * np.pi / 3 * (X + Y + Z) / np.sqrt(3),
    -1j * 2 * np.pi / 3 * (X + Y + Z) / np.sqrt(3),
    -1j * np.pi / 3 * (X - Y + Z) / np.sqrt(3),
    -1j * 2 * np.pi / 3 * (X - Y + Z) / np.sqrt(3),
    -1j * np.pi / 3 * (X + Y - Z) / np.sqrt(3),
    -1j * 2 * np.pi / 3 * (X + Y - Z) / np.sqrt(3),
    -1j * np.pi / 3 * (-X + Y + Z) / np.sqrt(3),
    -1j * 2 * np.pi / 3 * (-X + Y + Z) / np.sqrt(3),
]


# Pinned sha256 digests per group: of the element transfer matrices (int8, in
# index order), and of the int64 multiplication table followed by the int64
# inverse table.  Sequence compilation and every simulated dataset depend on
# the A4 element order; nothing else pins the Clifford-24 order.
PINNED = {
    "a4": {
        "elements": "df3936e9ce4fe9eeec78b77db38d658f1a77e1b6fd09087b0b8de7164b021225",
        "tables": "d4414b4a5f9bb9ceee25352682e13f0e98bbcd22014ed338c434040d52e510cd",
    },
    "clifford24": {
        "elements": "5fcafb2bea50c4fbffa07563a8e8b0630addfc527d60faa68efe1f86947b9fff",
        "tables": "a7e2ba43495074fdb9ed5a0cf051ddd4ad49ab08c5667ac7f0d65be1c90a0f24",
    },
}
GROUPS = {
    "a4": (a4_elements, a4_table),
    "clifford24": (clifford24_elements, clifford24_table),
}


def superop_key(s):
    return np.round(s).astype(np.int8).tobytes()


class TestTwirlGroup:
    def test_twelve_elements_identity_first(self):
        els = a4_elements()
        assert len(els) == 12
        assert np.allclose(els[0].unitary, np.eye(2))
        assert np.array_equal(els[0].superop, np.eye(4))

    def test_matches_matrix_exponentials(self):
        for el, exponent in zip(a4_elements(), A4_EXPONENTS):
            expected = superop_from_unitary(sla.expm(exponent))
            assert np.abs(el.superop - expected).max() < 1e-12

    def test_element5_squared_is_element6(self):
        els = a4_elements()
        prod = compose(els[4].superop, els[4].superop)
        assert np.array_equal(prod, els[5].superop)

    def test_pairwise_distinct(self):
        keys = {superop_key(e.superop) for e in a4_elements()}
        assert len(keys) == 12

    def test_twirl_average_projects_onto_identity_component(self):
        avg = sum(e.superop for e in a4_elements()) / 12.0
        assert np.allclose(avg, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-14)


class TestOverlapBasis:
    def test_first_ten(self):
        basis = overlap_basis()
        assert [e.index for e in basis] == list(range(1, 11))

    def test_rank_ten(self):
        stacked = np.stack([e.superop.ravel() for e in overlap_basis()])
        assert np.linalg.matrix_rank(stacked) == 10

    def test_all_twelve_span_ten_dimensions(self):
        stacked = np.stack([e.superop.ravel() for e in a4_elements()])
        assert np.linalg.matrix_rank(stacked) == 10

    def test_first_four_rank_four(self):
        stacked = np.stack([e.superop.ravel() for e in a4_elements()[:4]])
        assert np.linalg.matrix_rank(stacked) == 4


class TestGroupTable:
    def test_axioms_exhaustive(self):
        a4_table().validate()
        clifford24_table().validate()

    def test_identity_row(self):
        table = a4_table()
        for j in range(1, 13):
            assert table.multiply(1, j) == j
            assert table.multiply(j, table.inverse(j)) == 1

    def test_multiply_matches_superop_product(self, rng):
        table = a4_table()
        els = a4_elements()
        for _ in range(40):
            g, h = rng.integers(1, 13, size=2)
            k = table.multiply(int(g), int(h))
            prod = compose(els[g - 1].superop, els[h - 1].superop)
            assert np.abs(prod - els[k - 1].superop).max() < 1e-10

    def test_no_match_rejected(self):
        from rbtlab.groups import GroupTable

        with pytest.raises(ValueError, match="not in the set"):
            GroupTable.from_elements(a4_elements()[:5])


class TestClifford24:
    def test_count(self):
        assert len(clifford24_elements()) == 24

    def test_contains_twirl_group(self):
        keys = {superop_key(e.superop) for e in clifford24_elements()}
        for e in a4_elements():
            assert superop_key(e.superop) in keys

    def test_hadamard_membership(self):
        hadamard = rotation_unitary((1.0, 0.0, 1.0), np.pi)
        key = superop_key(superop_from_unitary(hadamard))
        assert key in {superop_key(e.superop) for e in clifford24_elements()}
        assert key not in {superop_key(e.superop) for e in a4_elements()}


class TestDesignProperty:
    def test_frame_potential_a4(self):
        assert abs(frame_potential(a4_elements()) - 2.0) < 1e-10

    def test_frame_potential_clifford24(self):
        assert abs(frame_potential(clifford24_elements()) - 2.0) < 1e-10


class TestFixtures:
    def test_pinned_file_matches_generated_tables(self):
        for name, (_, make_table) in GROUPS.items():
            table = make_table()
            digest = hashlib.sha256()
            digest.update(table.mult.astype(np.int64).tobytes())
            digest.update(table.inv.astype(np.int64).tobytes())
            assert digest.hexdigest() == PINNED[name]["tables"], name

    def test_checksums_present(self):
        for name, (make_elements, _) in GROUPS.items():
            digest = hashlib.sha256()
            for e in make_elements():
                digest.update(e.superop.astype(np.int8).tobytes())
            assert digest.hexdigest() == PINNED[name]["elements"], name
