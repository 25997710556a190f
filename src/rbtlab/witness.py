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

from .pauli import choi, min_eig_and_vector
from .sampling import DecayDataset, LengthGroup, QptDataset

__all__ = [
    "WitnessReport",
    "split_halves",
    "build_witness",
    "evaluate_witness",
    "witness_expectation_batch",
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
    """
    if isinstance(ds, QptDataset):
        nb = ds.bins.shape[1]
        if nb % 2:
            raise ValueError(f"cannot halve an odd number of bins ({nb})")
        half = nb // 2
        first = dataclasses.replace(ds, bins=ds.bins[:, :half].copy())
        second = dataclasses.replace(ds, bins=ds.bins[:, half:].copy())
        return first, second
    if isinstance(ds, DecayDataset):
        first_groups = {}
        second_groups = {}
        for n, grp in ds.groups.items():
            if grp.n_bins % 2:
                raise ValueError(f"cannot halve an odd number of bins ({grp.n_bins})")
            half = grp.n_bins // 2
            first_groups[n] = LengthGroup(grp.row_ids, grp.bins[:, :half].copy())
            second_groups[n] = LengthGroup(grp.row_ids, grp.bins[:, half:].copy())
        first = dataclasses.replace(ds, groups=first_groups, label=ds.label + "/half1")
        second = dataclasses.replace(ds, groups=second_groups, label=ds.label + "/half2")
        return first, second
    raise TypeError(f"cannot split {type(ds).__name__}")


def build_witness(e1: np.ndarray) -> np.ndarray:
    """Eigenvector of the reconstruction's Choi state at its most negative
    eigenvalue, phase-fixed and deterministic under degeneracy."""
    _, vec = min_eig_and_vector(choi(e1))
    return vec


def eig_multiplicity(e1: np.ndarray, tol: float = 1e-9) -> int:
    vals = np.linalg.eigvalsh(choi(e1))
    return int((vals <= vals[0] + tol).sum())


def evaluate_witness(w: np.ndarray, e2: np.ndarray) -> float:
    """Expectation value ``w+ J(e2) w`` (real, since the Choi state is
    Hermitian); negative values certify a nonphysical estimate."""
    w = np.asarray(w, dtype=complex)
    return float(np.real(w.conj() @ choi(e2) @ w))


def witness_expectation_batch(w: np.ndarray, superops: np.ndarray) -> np.ndarray:
    """``w+ J(E) w`` for a (batch, 4, 4) stack of transfer matrices."""
    from .pauli import _CHOI_BLOCKS

    w = np.asarray(w, dtype=complex)
    quad = np.einsum("a,ijab,b->ij", w.conj(), _CHOI_BLOCKS, w)
    return np.real(np.einsum("bij,ij->b", np.asarray(superops, dtype=float), quad))

