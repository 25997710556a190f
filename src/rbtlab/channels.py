"""Gate-error channels and state-preparation/measurement (SPAM) imperfections.

The default simulation noise is a coherence-limited channel built from the
relaxation and echo times of the modeled device (T1 = 5.7 us,
T2 = 8.4 us) at a fixed 33.3 ns gate duration, combined with a 95% readout
assignment fidelity.  Gate noise composes on the left of the ideal gate by
default; right composition is available behind a flag.

Zero-length operations (the null gate, software Z frame updates) are
noiseless: nothing is played, so nothing decoheres.  Every gate carries the
same channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import KET0, choi

__all__ = [
    "depolarizing",
    "amplitude_phase_damping",
    "NoiseModel",
    "SpamModel",
    "apply_spam",
    "DEVICE_T1",
    "DEVICE_T2",
    "DEVICE_GATE_TIME",
    "DEVICE_ASSIGNMENT_FIDELITY",
]

# Modeled device parameters.
DEVICE_T1 = 5.7e-6
DEVICE_T2 = 8.4e-6
DEVICE_GATE_TIME = 33.3e-9
DEVICE_ASSIGNMENT_FIDELITY = 0.95


def depolarizing(lam: float) -> np.ndarray:
    """Depolarizing channel ``diag(1, lam, lam, lam)``.

    ``lam`` must lie in ``[-1/3, 1]``; outside that range the map is not
    completely positive.
    """
    if not -1.0 / 3.0 - 1e-12 <= lam <= 1.0 + 1e-12:
        raise ValueError(f"depolarizing parameter {lam} outside [-1/3, 1]")
    return np.diag([1.0, lam, lam, lam])


def amplitude_phase_damping(t: float, t1: float, t2: float) -> np.ndarray:
    """Combined relaxation and dephasing over a duration ``t``.

    Longitudinal decay follows ``exp(-t/t1)`` with the excited population
    relaxing toward the ground state (a non-unital identity-column entry);
    transverse components decay as ``exp(-t/t2)``.  Requires ``t2 <= 2*t1``.
    """
    if t < 0:
        raise ValueError("duration must be nonnegative")
    if t2 > 2 * t1 + 1e-15:
        raise ValueError(f"t2={t2} exceeds 2*t1={2 * t1}; no physical channel")
    decay_z = np.exp(-t / t1)
    decay_xy = np.exp(-t / t2)
    gamma = 1.0 - decay_z
    out = np.diag([1.0, decay_xy, decay_xy, decay_z])
    out[3, 0] = gamma
    return out


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate error channel applied around each ideal gate.

    ``placement`` selects whether the error acts after ("left") or before
    ("right") the ideal gate.
    """

    per_gate_channel: np.ndarray
    placement: str = "left"

    def __post_init__(self):
        if self.placement not in ("left", "right"):
            raise ValueError(f"placement must be 'left' or 'right', got {self.placement!r}")
        min_eig = float(np.linalg.eigvalsh(choi(self.per_gate_channel))[0])
        if min_eig < -1e-10:
            raise ValueError(f"noise channel is not CPTP (Choi min-eig {min_eig:.3e})")

    @classmethod
    def ideal(cls) -> "NoiseModel":
        return cls(per_gate_channel=np.eye(4))

    @classmethod
    def coherence_limited(
        cls,
        t1: float = DEVICE_T1,
        t2: float = DEVICE_T2,
        gate_time: float = DEVICE_GATE_TIME,
        placement: str = "left",
    ) -> "NoiseModel":
        return cls(
            per_gate_channel=amplitude_phase_damping(gate_time, t1, t2),
            placement=placement,
        )

    @classmethod
    def depolarizing_model(cls, lam: float, placement: str = "left") -> "NoiseModel":
        return cls(per_gate_channel=depolarizing(lam), placement=placement)

    def apply(self, gate_superop: np.ndarray) -> np.ndarray:
        """The noisy version of an ideal gate's transfer matrix."""
        if self.placement == "left":
            return self.per_gate_channel @ gate_superop
        return gate_superop @ self.per_gate_channel


@dataclass(frozen=True)
class SpamModel:
    """Imperfect preparation, measurement functional, and assignment error.

    ``meas`` is the 4-vector such that ``meas . state`` is the ideal survival
    probability; assignment errors then flip the recorded binary outcome with
    probability ``1 - assignment_fidelity``.
    """

    prep: np.ndarray
    meas: np.ndarray
    assignment_fidelity: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.assignment_fidelity <= 1.0:
            raise ValueError("assignment fidelity must lie in [0, 1]")

    @classmethod
    def ideal(cls) -> "SpamModel":
        return cls(prep=KET0.copy(), meas=np.array([0.5, 0.0, 0.0, 0.5]))

    @classmethod
    def with_assignment_error(cls, assignment_fidelity: float) -> "SpamModel":
        return cls(
            prep=KET0.copy(),
            meas=np.array([0.5, 0.0, 0.0, 0.5]),
            assignment_fidelity=assignment_fidelity,
        )


def apply_spam(state_out: np.ndarray, spam: SpamModel) -> float:
    """Survival probability of an output state under the SPAM model.

    The measurement functional is clipped into [0, 1] and the result mixed
    with a coin flip of weight ``1 - assignment_fidelity``.
    """
    raw = float(np.dot(spam.meas, state_out))
    raw = min(max(raw, 0.0), 1.0)
    f = spam.assignment_fidelity
    return f * raw + (1.0 - f) * (1.0 - raw)
