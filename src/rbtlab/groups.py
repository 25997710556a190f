"""The twelve-element twirling group, the 24-element single-qubit Clifford
group, and their integer multiplication tables.

Element identity is decided at the transfer-matrix level, where global phases
drop out; the transfer matrices of both groups are signed permutation
matrices, so they are stored exactly as small integers.  All sequence
compilation downstream is integer table lookup and accumulates no float
error.

Indices are 1-based in the public API (index 1 is always the identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import PAULIS, superop_from_unitary

__all__ = [
    "GroupElement",
    "GroupTable",
    "rotation_unitary",
    "a4_elements",
    "overlap_basis",
    "clifford24_elements",
    "a4_table",
    "clifford24_table",
    "frame_potential",
]

# Axis/angle table for the twirling group: the identity, the three half-turn
# rotations about the coordinate axes, and the eight third-turn rotations
# about the body diagonals of the Bloch-sphere cube.
_A4_AXIS_ANGLE = [
    ((0.0, 0.0, 1.0), 0.0),
    ((1.0, 0.0, 0.0), np.pi),
    ((0.0, 1.0, 0.0), np.pi),
    ((0.0, 0.0, 1.0), np.pi),
    ((1.0, 1.0, 1.0), 2 * np.pi / 3),
    ((1.0, 1.0, 1.0), 4 * np.pi / 3),
    ((1.0, -1.0, 1.0), 2 * np.pi / 3),
    ((1.0, -1.0, 1.0), 4 * np.pi / 3),
    ((1.0, 1.0, -1.0), 2 * np.pi / 3),
    ((1.0, 1.0, -1.0), 4 * np.pi / 3),
    ((-1.0, 1.0, 1.0), 2 * np.pi / 3),
    ((-1.0, 1.0, 1.0), 4 * np.pi / 3),
]


@dataclass(frozen=True)
class GroupElement:
    """A group element: 1-based index, 2x2 unitary, exact transfer matrix."""

    index: int
    unitary: np.ndarray
    superop: np.ndarray


def rotation_unitary(axis, angle: float) -> np.ndarray:
    """``exp(-i * angle/2 * (axis . sigma))`` for a Bloch-sphere rotation."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    n_dot_sigma = np.tensordot(axis, PAULIS[1:], axes=1)
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * n_dot_sigma


def _exact_superop(u: np.ndarray) -> np.ndarray:
    """Transfer matrix rounded to its exact signed-permutation integers."""
    s = superop_from_unitary(u)
    rounded = np.round(s)
    if np.abs(s - rounded).max() > 1e-12:
        raise ValueError("transfer matrix is not a signed permutation matrix")
    return rounded


@lru_cache(maxsize=1)
def a4_elements() -> tuple:
    """The twelve twirling operations, in their defining order."""
    return tuple(
        GroupElement(i + 1, rotation_unitary(axis, angle), _exact_superop(rotation_unitary(axis, angle)))
        for i, (axis, angle) in enumerate(_A4_AXIS_ANGLE)
    )


def overlap_basis() -> tuple:
    """The first ten twirling operations; a linearly independent spanning set
    for unital trace-preserving qubit maps (span dimension 10)."""
    return a4_elements()[:10]


@lru_cache(maxsize=1)
def clifford24_elements() -> tuple:
    """The 24-element single-qubit Clifford group.

    Generated breadth-first from the identity by right-multiplying with the
    quarter-turn rotations about X and Z; indices follow the first-found
    order, which the test suite pins by digest.
    """
    generators = [
        rotation_unitary((1.0, 0.0, 0.0), np.pi / 2),
        rotation_unitary((0.0, 0.0, 1.0), np.pi / 2),
    ]
    identity = np.eye(2, dtype=complex)
    elements = [identity]
    seen = {_exact_superop(identity).astype(np.int8).tobytes()}
    head = 0
    while head < len(elements):
        current = elements[head]
        head += 1
        for gen in generators:
            candidate = current @ gen
            key = _exact_superop(candidate).astype(np.int8).tobytes()
            if key not in seen:
                seen.add(key)
                elements.append(candidate)
    return tuple(
        GroupElement(i + 1, u, _exact_superop(u)) for i, u in enumerate(elements)
    )


@dataclass(frozen=True)
class GroupTable:
    """Integer multiplication and inverse tables over a gate group.

    ``multiply(g, h)`` returns the index whose transfer matrix equals
    ``superop(g) @ superop(h)``, i.e. the operator product "g times h"
    (``h`` acts first).
    """

    mult: np.ndarray
    inv: np.ndarray

    @classmethod
    def from_elements(cls, elements) -> "GroupTable":
        n = len(elements)
        keyed = {
            e.superop.astype(np.int8).tobytes(): e.index for e in elements
        }
        mult = np.zeros((n, n), dtype=np.int64)
        for g in elements:
            for h in elements:
                product = (g.superop @ h.superop).astype(np.int8)
                try:
                    mult[g.index - 1, h.index - 1] = keyed[product.tobytes()]
                except KeyError:
                    raise ValueError(
                        f"product of elements {g.index} and {h.index} is not in the set"
                    ) from None
        inv = np.zeros(n, dtype=np.int64)
        for g in range(1, n + 1):
            matches = np.nonzero(mult[g - 1] == 1)[0]
            if matches.size != 1:
                raise ValueError(f"element {g} has no unique inverse")
            inv[g - 1] = matches[0] + 1
        table = cls(mult=mult, inv=inv)
        table.validate()
        return table

    @property
    def order(self) -> int:
        return int(self.inv.size)

    def multiply(self, g: int, h: int) -> int:
        return int(self.mult[g - 1, h - 1])

    def inverse(self, g: int) -> int:
        return int(self.inv[g - 1])

    def validate(self) -> None:
        """Exhaustively check the group axioms encoded by the table."""
        n = self.order
        if not np.all((self.mult >= 1) & (self.mult <= n)):
            raise ValueError("table is not closed")
        if not np.all(self.mult[0] == np.arange(1, n + 1)):
            raise ValueError("index 1 is not a left identity")
        if not np.all(self.mult[:, 0] == np.arange(1, n + 1)):
            raise ValueError("index 1 is not a right identity")
        if not np.all(self.mult[np.arange(n), self.inv - 1] == 1):
            raise ValueError("inverse table is inconsistent")
        m0 = self.mult - 1
        left = m0[m0[:, :, None], np.arange(n)[None, None, :]]
        right = m0[np.arange(n)[:, None, None], m0[None, :, :]]
        if not np.array_equal(left, right):
            raise ValueError("multiplication table is not associative")


@lru_cache(maxsize=1)
def a4_table() -> GroupTable:
    return GroupTable.from_elements(a4_elements())


@lru_cache(maxsize=1)
def clifford24_table() -> GroupTable:
    return GroupTable.from_elements(clifford24_elements())


def frame_potential(elements) -> float:
    """``(1/n^2) sum_{g,h} |tr(U_g+ U_h)|^4``; equals 2 for a unitary 2-design."""
    us = np.array([e.unitary for e in elements])
    inner = np.einsum("gba,hbc->ghac", us.conj(), us)
    traces = np.abs(np.trace(inner, axis1=2, axis2=3)) ** 4
    return float(traces.sum() / len(elements) ** 2)
