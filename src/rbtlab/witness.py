"""Negativity witnesses with split-half cross-validation.

A reconstructed channel is physical only if its Choi state is positive
semidefinite.  To test this without letting statistical fluctuations pick
their own failure direction, the data are split in half by bin index: the
first half fixes the witness (the eigenvector of the reconstructed Choi
state's most negative eigenvalue) and the second half independently
estimates its expectation value.  Confidence intervals come from a
non-parametric bootstrap that resamples only the second half while the
witness stays frozen.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .pauli import _CHOI_BLOCKS, choi, min_eig_and_vector
from .sampling import DecayDataset, LengthGroup, QptDataset

__all__ = [
    "WitnessReport",
    "split_halves",
    "build_witness",
    "evaluate_witness",
    "eig_multiplicity",
]


@dataclass(frozen=True)
class WitnessReport:
    """A frozen witness, its held-out expectation, and bootstrap CI."""

    witness: np.ndarray
    expectation: float
    ci: tuple
    replications: int
    samples_per_config: int
    eig_multiplicity: int = 1


def split_halves(ds):
    """Split every configuration's bins into a first and second half.

    The split is temporal (first half of the bins vs the rest), not random,
    so it is deterministic and mirrors an experiment's chronology.  Odd bin
    counts are rejected.

    The halves of a :class:`DecayDataset` or a :class:`QptDataset` are
    read-only views of its bins, so splitting copies no data, and every
    mean of a half is taken over the view in place.
    """
    if isinstance(ds, QptDataset):
        return tuple(dataclasses.replace(ds, bins=half) for half in _split_bins(ds.bins))
    if isinstance(ds, DecayDataset):
        first, second = {}, {}
        for n, grp in ds.groups.items():
            first[n], second[n] = (LengthGroup(grp.row_ids, half) for half in _split_bins(grp.bins))
        return (
            dataclasses.replace(ds, groups=first, label=ds.label + "/half1"),
            dataclasses.replace(ds, groups=second, label=ds.label + "/half2"),
        )
    raise TypeError(f"cannot split {type(ds).__name__}")


def _split_bins(bins: np.ndarray) -> tuple:
    """The first and second half of every row's bins, as read-only views."""
    nb = bins.shape[1]
    if nb % 2:
        raise ValueError(f"cannot halve an odd number of bins ({nb})")
    halves = bins[:, : nb // 2], bins[:, nb // 2 :]
    for half in halves:
        half.flags.writeable = False
    return halves


def build_witness(e1: np.ndarray) -> np.ndarray:
    """Eigenvector of the reconstruction's Choi state at its most negative
    eigenvalue, phase-fixed and deterministic under degeneracy."""
    _, vec = min_eig_and_vector(choi(e1))
    return vec


def eig_multiplicity(e1: np.ndarray, tol: float = 1e-9) -> int:
    vals = np.linalg.eigvalsh(choi(e1))
    return int((vals <= vals[0] + tol).sum())


def evaluate_witness(w: np.ndarray, e: np.ndarray):
    """Expectation value ``w+ J(e) w`` of one transfer matrix (a float), or
    of each of a (b, 4, 4) stack (an array of b); negative values certify a
    nonphysical estimate.

    The Choi state is ``sum e[i, j] B[i, j]`` over sixteen Hermitian
    blocks ``B``, so the expectation is ``e`` contracted with the real
    matrix of the ``w+ B[i, j] w``.  Each member of a C-ordered stack gets
    the bits of its own expectation.
    """
    w = np.asarray(w, dtype=complex)
    quad = np.einsum("a,ijab,b->ij", w.conj(), _CHOI_BLOCKS, w).real
    x = np.einsum("...ij,ij->...", np.asarray(e, dtype=float), quad)
    return x if np.ndim(x) else float(x)

