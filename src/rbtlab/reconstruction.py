"""Least-squares inversion of overlap vectors to the unital part of a
channel, null-operation corrections, and fidelity estimates.

The ten basis overlaps are linear functionals of the channel's transfer
matrix: stacking the (row-major) vectorized basis transfer matrices gives
the rank-10 predictor matrix ``P`` with ``overlaps = P @ vec(E')``.  The
minimum-Euclidean-norm least-squares solution inverts this; the six
coordinates outside the overlap span (first row and first column of the
transfer matrix, except the corner) sit in the kernel of ``P`` and come back
as exact zeros.  No trace-preservation or positivity constraint is imposed
at inversion time; physicality is a downstream diagnostic, not a prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import overlap_basis
from .sampling import QPT_INPUT_STATES

__all__ = [
    "ACCESSIBLE_MASK",
    "OverlapVector",
    "Reconstruction",
    "ChannelInversionError",
    "predictor_matrix",
    "default_predictor",
    "reconstruct_unital",
    "corrected",
    "w_fidelity_direct",
    "W_DECOMPOSITION",
    "qpt_linear_inversion",
    "MIN_VISIBILITY",
    "hinton_records",
]

# The least readout visibility |2f - 1| that an assumed assignment fidelity
# f may leave linear-inversion tomography to rescale by.
MIN_VISIBILITY = 1e-9

# Transfer-matrix coordinates reachable by overlap tomography: the corner
# plus the 3x3 unital block.  The complement is reported as "not accessible".
ACCESSIBLE_MASK = np.zeros((4, 4), dtype=bool)
ACCESSIBLE_MASK[0, 0] = True
ACCESSIBLE_MASK[1:, 1:] = True

# Coefficients expressing the pi/6 body-diagonal rotation as a real
# combination of basis channels 1, 5, and 6; they sum to one.
W_DECOMPOSITION = ((1.0 + np.sqrt(3.0)) / 3.0, 1.0 / 3.0, (1.0 - np.sqrt(3.0)) / 3.0)


class ChannelInversionError(ValueError):
    """Raised when a correction would invert an ill-conditioned channel;
    ``replication`` names the bootstrap replication whose estimate it was."""

    def __init__(self, condition_number: float, replication: int | None = None):
        self.condition_number = condition_number
        self.replication = replication
        where = "" if replication is None else f" of bootstrap replication {replication}"
        super().__init__(
            f"null-operation estimate{where} is ill-conditioned (cond {condition_number:.3e})"
        )


@dataclass(frozen=True)
class OverlapVector:
    """Estimated overlaps with the ten basis channels, with optional CIs."""

    values: np.ndarray
    ci_low: np.ndarray | None = None
    ci_high: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if np.abs(values).max() > 4.0 + 1e-9:
            raise ValueError("overlap magnitude exceeds the bound |a| <= 4")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Reconstruction:
    """A reconstructed unital channel with its corrections and fidelities;
    ``null_unital`` is the null-operation reconstruction the corrections
    invert."""

    unital: np.ndarray
    overlaps: OverlapVector
    corrected_left: np.ndarray | None = None
    corrected_right: np.ndarray | None = None
    fidelity: dict = field(default_factory=dict)
    null_unital: np.ndarray | None = None


def predictor_matrix(basis=None) -> np.ndarray:
    """Stack the row-major vectorized basis transfer matrices (one per row).

    Rejects a basis whose span is deficient; the canonical ten-element basis
    has rank exactly 10.
    """
    basis = basis or overlap_basis()
    p = np.stack([e.superop.ravel() for e in basis])
    rank = np.linalg.matrix_rank(p)
    if rank != len(basis):
        raise ValueError(f"basis is rank deficient (rank {rank} < {len(basis)})")
    return p.astype(float)


_DEFAULT_PREDICTOR = None


def default_predictor() -> np.ndarray:
    global _DEFAULT_PREDICTOR
    if _DEFAULT_PREDICTOR is None:
        _DEFAULT_PREDICTOR = predictor_matrix()
    return _DEFAULT_PREDICTOR


def reconstruct_unital_batch(overlaps: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares estimates of the unital transfer matrices
    of a (batch, 10) overlap array.

    Solved through an SVD factorization restricted to the predictor's
    nonzero columns rather than an explicit pseudo-inverse; coordinates in
    identically-zero columns (the kernel) are returned as exact zeros, which
    is the minimum-norm completion.
    """
    p = default_predictor()
    live = p.any(axis=0)
    coords = np.linalg.lstsq(p[:, live], np.asarray(overlaps, dtype=float).T, rcond=None)[0]
    out = np.zeros((overlaps.shape[0], 16))
    out[:, live] = coords.T
    return out.reshape(-1, 4, 4)


def reconstruct_unital(overlaps) -> np.ndarray:
    """:func:`reconstruct_unital_batch` of one overlap vector."""
    if isinstance(overlaps, OverlapVector):
        overlaps = overlaps.values
    return reconstruct_unital_batch(np.asarray(overlaps, dtype=float)[None, :])[0]


def corrected(e_prime: np.ndarray, null_prime: np.ndarray, side: str) -> np.ndarray:
    """Remove the randomizing-gate error channel estimated via the null
    operation, composing its inverse on the requested side."""
    cond = float(np.linalg.cond(null_prime))
    if not np.isfinite(cond) or cond > 1e6:
        raise ChannelInversionError(cond)
    inv = np.linalg.inv(null_prime)
    if side == "left":
        return inv @ e_prime
    if side == "right":
        return e_prime @ inv
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def w_fidelity_direct(a1: float, a5: float, a6: float) -> float:
    """Average fidelity to the pi/6 body-diagonal rotation estimated from
    just three overlaps, using its three-term basis decomposition."""
    c1, c5, c6 = W_DECOMPOSITION
    a_w = c1 * a1 + c5 * a5 + c6 * a6
    return (a_w + 2.0) / 6.0


def qpt_linear_inversion(
    expectations: np.ndarray,
    assumed_assignment_fidelity: float | None = None,
) -> np.ndarray:
    """Standard process tomography by linear inversion.

    ``expectations`` is the 4x3 table of X/Y/Z expectation estimates for the
    inputs |0>, |1>, |+>, |+i>, or a stack of such tables, which gives the
    stack of transfer matrices.  If an assumed assignment fidelity is given,
    the data are first rescaled so the measurement spans [-1, 1].  The
    returned transfer matrix is trace preserving by construction (first row
    fixed); no complete-positivity constraint is imposed.
    """
    m = np.asarray(expectations, dtype=float)
    if m.shape[-2:] != (4, 3):
        raise ValueError(f"expected 4x3 expectation tables, got {m.shape}")
    if assumed_assignment_fidelity is not None:
        visibility = 2.0 * assumed_assignment_fidelity - 1.0
        if abs(visibility) < MIN_VISIBILITY:
            raise ValueError("assumed assignment fidelity of 0.5 has no contrast")
        m = m / visibility
    design = QPT_INPUT_STATES.T
    if abs(np.linalg.det(design)) < 1e-12:
        raise ValueError("singular input-state design matrix")
    out = np.zeros(m.shape[:-2] + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1:, :] = np.linalg.solve(design.T, m).swapaxes(-1, -2)
    return out


def hinton_records(e_prime: np.ndarray) -> list:
    """Flat per-entry records for diagram rendering: magnitude, sign, and
    whether the entry is reachable by overlap tomography."""
    labels = ("I", "X", "Y", "Z")
    records = []
    for i in range(4):
        for j in range(4):
            value = float(e_prime[i, j])
            records.append(
                {
                    "row": labels[i],
                    "col": labels[j],
                    "magnitude": abs(value),
                    "sign": 1 if value >= 0 else -1,
                    "accessible": bool(ACCESSIBLE_MASK[i, j]),
                }
            )
    return records
