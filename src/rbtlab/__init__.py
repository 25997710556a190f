"""rbtlab: a desk-scale laboratory for randomized benchmarking tomography.

Simulates noisy single-qubit gate sequences, estimates overlap decay rates,
reconstructs the unital part of a quantum operation by least-squares
inversion, tests reconstructions for physicality with cross-validated
negativity witnesses, and synthesizes single-pulse gates via discrete-time
phase ramps.
"""

from .pauli import (
    PAULIS,
    KET0,
    adjoint,
    avg_fidelity,
    choi,
    compose,
    min_eig_and_vector,
    overlap,
    superop_from_kraus,
    superop_from_unitary,
    unital_part,
)
from .groups import (
    GroupElement,
    GroupTable,
    a4_elements,
    a4_table,
    clifford24_elements,
    clifford24_table,
    frame_potential,
    overlap_basis,
)
from .channels import (
    NoiseModel,
    SpamModel,
    amplitude_phase_damping,
    apply_spam,
    depolarizing,
)
from .sequences import (
    INFINITE,
    RbtSequence,
    SequenceSet,
    compile_cells,
    exhaustive_set,
    infinite_length_surrogate,
    make_sequence,
    unit_cell,
)
from .sampling import (
    DecayDataset,
    QptDataset,
    sample_dataset,
    sample_qpt_dataset,
    survival_probability,
)
from .fitting import FitResult, bootstrap, decay_to_overlap, joint_fit, prony_seed
from .reconstruction import (
    OverlapVector,
    Reconstruction,
    corrected,
    predictor_matrix,
    qpt_linear_inversion,
    reconstruct_unital,
    w_fidelity_direct,
)
from .witness import WitnessReport, build_witness, evaluate_witness, split_halves
from .pulses import (
    DuffingModel,
    PulseSpec,
    RotationSpec,
    atomic_pulse_for,
    gaussian_envelope,
    phase_ramp,
    simulate_duffing,
    simulate_qubit,
)

__version__ = "0.1.0"
