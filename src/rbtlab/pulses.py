"""Single-pulse ("atomic") gate synthesis by discrete-time phase ramping.

A rotation about a tilted axis (in-plane plus Z component) is produced with
in-plane drive only: the drive phase is ramped sample by sample so the
effective rotation axis stays fixed, and the frame change is repaid by one
final software Z rotation at zero time cost.  The ramp is the discrete-time
version of a frequency shift, so it carries a Trotter discretization error:
evaluating each sample's phase at the start of its time bin is first-order
accurate, at the midpoint second-order.

Validation targets: an ideal two-level qubit (discretization error only) and
a five-level Duffing oscillator, where an optional Z-only derivative-style
detuning correction (applied through the same phase-ramp machinery)
suppresses the drive-induced frequency pull of the qubit transition.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .groups import GroupElement
from .pauli import PAULIS, avg_fidelity, superop_from_kraus

__all__ = [
    "RotationSpec",
    "PulseSpec",
    "DuffingModel",
    "gaussian_envelope",
    "phase_ramp",
    "drag_correction",
    "simulate_qubit",
    "simulate_duffing",
    "atomic_pulse_for",
    "axis_angle_from_unitary",
    "unitary_infidelity",
    "DEFAULT_DRAG_COEFFICIENT",
]

# First-order adiabatic detuning coefficient for the level-2 ladder coupling.
DEFAULT_DRAG_COEFFICIENT = -0.5


@dataclass(frozen=True)
class RotationSpec:
    """Target rotation: unit axis (x, y, z components) and angle in radians."""

    axis: np.ndarray
    angle: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(axis)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"axis must be a unit vector, |axis| = {norm}")
        object.__setattr__(self, "axis", axis)


@dataclass(frozen=True)
class PulseSpec:
    """Discrete drive: per-sample amplitude (rad/s) and phase, plus the final
    frame update angle repaid in software."""

    dt: float
    amplitudes: np.ndarray
    phases: np.ndarray
    frame_update: float = 0.0
    trotter_order: int = 2

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        phases = np.asarray(self.phases, dtype=float)
        if amps.shape != phases.shape:
            raise ValueError("amplitudes and phases must have matching shapes")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "phases", phases)

    @property
    def n_samples(self) -> int:
        return int(self.amplitudes.size)


@dataclass(frozen=True)
class DuffingModel:
    """Anharmonic-ladder transmon model in the rotating frame (RWA)."""

    levels: int = 5
    anharmonicity: float = -2 * np.pi * 200e6
    detuning: float = 0.0


def gaussian_envelope(sigma: float, dt: float, total_angle: float) -> np.ndarray:
    """Truncated Gaussian amplitude samples covering +/- two standard
    deviations, baseline-subtracted to vanish at the endpoints and scaled so
    the time integral equals ``total_angle``.

    Samples sit at bin midpoints; the count is ``round(4 sigma / dt)``.
    """
    if dt > sigma:
        raise ValueError("time step must not exceed the pulse width")
    duration = 4.0 * sigma
    n = int(round(duration / dt))
    t = (np.arange(n) + 0.5) * dt
    shape = np.exp(-((t - duration / 2.0) ** 2) / (2.0 * sigma**2)) - np.exp(-2.0)
    if total_angle == 0.0:
        return np.zeros(n)
    return shape * (total_angle / (shape.sum() * dt))


def _cumulative(z_steps: np.ndarray, order: int) -> np.ndarray:
    """Accumulated Z angle seen by each sample: at the bin start for order 1,
    at the bin midpoint for order 2."""
    before = np.concatenate([[0.0], np.cumsum(z_steps)[:-1]])
    if order == 1:
        return before
    if order == 2:
        return before + 0.5 * z_steps
    raise ValueError(f"trotter order must be 1 or 2, got {order}")


def phase_ramp(
    envelope: np.ndarray, dt: float, spec: RotationSpec, order: int = 2
) -> PulseSpec:
    """Attach phases to an amplitude envelope so the effective rotation axis
    matches ``spec``.

    Each sample's Z increment is its in-plane angle increment times the
    axis ratio ``n_z / n_perp``, so the phase steps vary with the pulse
    amplitude and the axis stays fixed for shaped pulses.  An azimuthal
    in-plane component is a constant phase offset.  The accumulated frame
    angle comes back as the pulse's final frame update.
    """
    envelope = np.asarray(envelope, dtype=float)
    nx, ny, nz = spec.axis
    n_perp = float(np.hypot(nx, ny))
    if n_perp < 1e-12:
        raise ValueError("in-plane axis component vanishes; use a frame update instead")
    phi0 = float(np.arctan2(ny, nx))
    slope = nz / n_perp
    z_steps = slope * envelope * dt
    phases = phi0 - _cumulative(z_steps, order)
    frame = float(z_steps.sum())
    return PulseSpec(
        dt=dt,
        amplitudes=envelope,
        phases=phases,
        frame_update=frame,
        trotter_order=order,
    )


def drag_correction(
    pulse: PulseSpec,
    model: DuffingModel,
    coefficient: float = DEFAULT_DRAG_COEFFICIENT,
) -> PulseSpec:
    """Z-only leakage correction: a per-sample detuning proportional to
    amplitude squared over the anharmonicity, realized through extra phase
    ramping and a matching frame-update adjustment."""
    detunings = coefficient * pulse.amplitudes**2 / model.anharmonicity
    z_steps = detunings * pulse.dt
    extra = _cumulative(z_steps, pulse.trotter_order)
    return dataclasses.replace(
        pulse,
        phases=pulse.phases - extra,
        frame_update=pulse.frame_update + float(z_steps.sum()),
    )


def _frame_unitary(angle: float) -> np.ndarray:
    return np.array([[np.exp(-1j * angle / 2.0), 0.0], [0.0, np.exp(1j * angle / 2.0)]])


def simulate_qubit(pulse: PulseSpec) -> np.ndarray:
    """Exact two-level propagator of the pulse: a product of per-sample
    in-plane rotations followed by the frame-update Z rotation."""
    u = np.eye(2, dtype=complex)
    angles = pulse.amplitudes * pulse.dt
    for theta, phi in zip(angles, pulse.phases):
        half = theta / 2.0
        axis = np.array(
            [
                [0.0, np.cos(phi) - 1j * np.sin(phi)],
                [np.cos(phi) + 1j * np.sin(phi), 0.0],
            ]
        )
        step = np.cos(half) * np.eye(2) - 1j * np.sin(half) * axis
        u = step @ u
    return _frame_unitary(pulse.frame_update) @ u


def simulate_duffing(
    pulse: PulseSpec,
    model: DuffingModel,
    drag: bool = False,
    drag_coefficient: float = DEFAULT_DRAG_COEFFICIENT,
):
    """Piecewise-constant propagation of the drive on the anharmonic ladder.

    Returns the qubit-subspace transfer matrix (of the projected, generally
    trace-decreasing map) together with the average leakage out of the
    subspace.  With ``drag`` enabled the Z-only correction is folded into the
    pulse's phases before propagation.
    """
    if drag:
        pulse = drag_correction(pulse, model, drag_coefficient)
    dim = model.levels
    m = np.arange(dim)
    diag = model.detuning * m + 0.5 * model.anharmonicity * m * (m - 1)
    lower = np.diag(np.sqrt(np.arange(1, dim)), k=1)  # annihilation operator
    u = np.eye(dim, dtype=complex)
    for amp, phi in zip(pulse.amplitudes, pulse.phases):
        h = np.diag(diag).astype(complex)
        h += 0.5 * amp * (np.exp(-1j * phi) * lower + np.exp(1j * phi) * lower.conj().T)
        vals, vecs = np.linalg.eigh(h)
        step = (vecs * np.exp(-1j * vals * pulse.dt)) @ vecs.conj().T
        u = step @ u
    block = _frame_unitary(pulse.frame_update) @ u[:2, :2]
    leakage = 1.0 - float(np.real(np.trace(block.conj().T @ block))) / 2.0
    return superop_from_kraus([block]), leakage


def axis_angle_from_unitary(u: np.ndarray):
    """Rotation axis and angle of a 2x2 unitary, ignoring global phase.

    Returns ``(axis, angle)`` with angle in [0, 2*pi); the identity comes
    back with zero angle and the Z axis.
    """
    u = np.asarray(u, dtype=complex)
    coeffs = np.einsum("kab,ba->k", PAULIS, u) / 2.0
    a0 = coeffs[0]
    sine_part = 1j * coeffs[1:]  # equals sin(angle/2) * axis, up to global phase
    if abs(a0) > 1e-12:
        phase = a0 / abs(a0)
    else:
        pivot = sine_part[np.argmax(np.abs(sine_part))]
        phase = pivot / abs(pivot)
    cos_half = np.real(a0 / phase)
    sin_vec = np.real(sine_part / phase)
    sin_half = np.linalg.norm(sin_vec)
    angle = 2.0 * np.arctan2(sin_half, cos_half)
    if sin_half < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return sin_vec / sin_half, float(angle)


def atomic_pulse_for(
    element: GroupElement,
    duration: float = 33.3e-9,
    n_samples: int = 40,
    order: int = 2,
) -> PulseSpec:
    """Single fixed-duration pulse implementing a group element.

    Pure-Z rotations (and the identity) need no drive at all and come back
    as zero-length pulses carrying only a frame update.
    """
    axis, angle = axis_angle_from_unitary(element.unitary)
    dt = duration / n_samples
    n_perp = float(np.hypot(axis[0], axis[1]))
    if angle < 1e-12 or n_perp < 1e-12:
        frame = float(angle * np.sign(axis[2])) if angle >= 1e-12 else 0.0
        return PulseSpec(
            dt=dt,
            amplitudes=np.zeros(0),
            phases=np.zeros(0),
            frame_update=frame,
            trotter_order=order,
        )
    envelope = gaussian_envelope(duration / 4.0, dt, angle * n_perp)
    return phase_ramp(envelope, dt, RotationSpec(axis=axis, angle=angle), order)


def unitary_infidelity(u: np.ndarray, target: np.ndarray) -> float:
    """One minus the average gate fidelity between two 2x2 propagators; also
    valid for trace-decreasing blocks via the channel overlap formula."""
    return 1.0 - avg_fidelity(superop_from_kraus([u]), target)
