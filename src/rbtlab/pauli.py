"""Single-qubit states, operators, and channels in the Pauli-Liouville picture.

Conventions, fixed once here and relied on by every other module:

* Pauli order is ``(I, X, Y, Z)`` everywhere, including serialization.
* A density operator is represented by the real coefficient vector ``c`` with
  ``rho = (1/2) * sum_k c[k] * P_k`` and ``c[k] = tr(P_k rho)``.  Unit trace
  means ``c[0] == 1``.
* A channel ``E`` is the real 4x4 transfer matrix ``S`` with
  ``S[i, j] = (1/2) * tr(P_i E(P_j))``.  "F after E" is the matrix product
  ``F @ E``; matrices act on coefficient vectors from the left.
* The channel adjoint (Hilbert-Schmidt dual) is the plain transpose, which is
  valid because the Pauli basis is Hermitian.
* Choi matrices are normalized to unit trace for trace-preserving input, so
  eigenvalue thresholds are scale-free.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAULIS",
    "KET0",
    "MAX_MIXED",
    "UNITARY_ATOL",
    "HERMITIAN_ATOL",
    "superop_from_unitary",
    "superop_from_kraus",
    "compose",
    "adjoint",
    "unital_part",
    "overlap",
    "avg_fidelity",
    "choi",
    "min_eig_and_vector",
    "superop_to_list",
]

PAULIS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# Pauli vector of |0><0| and of the maximally mixed state.
KET0 = np.array([1.0, 0.0, 0.0, 1.0])
MAX_MIXED = np.array([1.0, 0.0, 0.0, 0.0])

# Absolute residual tolerances for validating unitary / Hermitian inputs.
UNITARY_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10

# Choi matrix of the identity channel is kron(P_k^T, P_i) contracted with the
# transfer matrix; precompute the 16 basis blocks once.
_CHOI_BLOCKS = np.array(
    [[np.kron(PAULIS[k].T, PAULIS[i]) / 4.0 for k in range(4)] for i in range(4)]
)


def _require_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    residual = np.abs(u.conj().T @ u - np.eye(2)).max()
    if residual > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary (residual {residual:.3e})")
    return u


def _conjugation_traces(k: np.ndarray) -> np.ndarray:
    """``tr(P_i K P_j K+)`` for every Pauli pair: twice the (complex) transfer
    matrix of ``rho -> K rho K+``."""
    rotated = np.einsum("ab,jbc,dc->jad", k, PAULIS, k.conj())
    return np.einsum("iba,jab->ij", PAULIS, rotated)


def superop_from_unitary(u: np.ndarray) -> np.ndarray:
    """Pauli-Liouville transfer matrix of the unitary channel ``rho -> U rho U+``.

    The result is a real orthogonal 4x4 matrix with entry
    ``(1/2) tr(P_i U P_j U+)``.  Non-unitary input is rejected.
    """
    s = 0.5 * _conjugation_traces(_require_unitary(u))
    if np.abs(s.imag).max() > 1e-12:
        raise ValueError("transfer matrix of a unitary channel must be real")
    return s.real


def superop_from_kraus(kraus_ops) -> np.ndarray:
    """Pauli-Liouville transfer matrix of ``rho -> sum_k K rho K+``; the
    operators need not be trace preserving, so one 2x2 block of a larger
    propagator gives its projected map."""
    s = np.zeros((4, 4))
    for k in kraus_ops:
        s += 0.5 * _conjugation_traces(np.asarray(k, dtype=complex)).real
    return s


def compose(f: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Sequential composition "f after e" (``e`` acts first)."""
    return np.asarray(f) @ np.asarray(e)


def adjoint(e: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt adjoint; the transpose in the Hermitian Pauli basis."""
    return np.asarray(e).T.copy()


def unital_part(e: np.ndarray) -> np.ndarray:
    """Discard the traceless components of ``E(I)``.

    Replaces the first column by ``(1, 0, 0, 0)^T`` and leaves every other
    column untouched, of one transfer matrix or of each in a stack.  Acts
    as the identity on unital maps and is idempotent.
    """
    out = np.array(e, dtype=float, copy=True)
    out[..., 0] = 0.0
    out[..., 0, 0] = 1.0
    return out


def overlap(c: np.ndarray, e: np.ndarray) -> float:
    """Hilbert-Schmidt overlap ``tr(c^T e)`` between two transfer matrices.

    For a unitary channel compared against itself this is ``d**2 == 4``.
    """
    return float(np.tensordot(c, e, axes=2))


def avg_fidelity(e: np.ndarray, target: np.ndarray):
    """Average gate fidelity to a target unitary of one transfer matrix (a
    float), or of each of a (b, 4, 4) stack (an array of b).

    Uses the standard overlap relation ``F = (a + d) / (d**2 + d)`` with
    ``d = 2``, i.e. ``(overlap + 2) / 6``.  Each member of a C-ordered stack
    gets the bits of its own fidelity.
    """
    f = (np.einsum("...ij,ij->...", e, superop_from_unitary(target)) + 2.0) / 6.0
    return f if np.ndim(f) else float(f)


def choi(e: np.ndarray) -> np.ndarray:
    """Choi state of a channel, normalized to unit trace for TP input.

    The channel is applied to one half of a maximally entangled pair; the
    result is Hermitian, and positive semidefinite exactly when the channel is
    completely positive.
    """
    j = np.tensordot(np.asarray(e, dtype=float), _CHOI_BLOCKS, axes=([0, 1], [0, 1]))
    return 0.5 * (j + j.conj().T)


def min_eig_and_vector(j: np.ndarray, degeneracy_tol: float = 1e-9):
    """Smallest eigenvalue of a Hermitian matrix and a canonical eigenvector.

    Ties (degenerate smallest eigenvalue) are broken deterministically: the
    eigenspace projector is applied to the standard basis vectors in order and
    the first projection with appreciable norm is kept.  The returned vector
    is normalized and phase-fixed so its first nonzero entry is positive real.
    """
    j = np.asarray(j, dtype=complex)
    residual = np.abs(j - j.conj().T).max()
    if residual > HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian (residual {residual:.3e})")
    vals, vecs = np.linalg.eigh(j)
    low = vals <= vals[0] + degeneracy_tol
    if low.sum() == 1:
        vec = vecs[:, 0]
    else:
        basis = vecs[:, low]
        proj = basis @ basis.conj().T
        vec = None
        for k in range(j.shape[0]):
            cand = proj[:, k]
            if np.linalg.norm(cand) > degeneracy_tol:
                vec = cand
                break
        if vec is None:  # pragma: no cover - projector of a nonempty eigenspace
            vec = basis[:, 0]
    vec = vec / np.linalg.norm(vec)
    for entry in vec:
        if abs(entry) > 1e-12:
            vec = vec * (entry.conjugate() / abs(entry))
            break
    return float(vals[0]), vec


def superop_to_list(e: np.ndarray) -> list:
    """Row-major 16-element list, the JSON wire format for transfer matrices."""
    return [float(x) for x in np.asarray(e, dtype=float).ravel()]
