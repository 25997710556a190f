"""End-to-end tomography of a Hadamard: reconstruction, corrections, and the
cross-validated negativity witness compared against mis-scaled process
tomography.

Run:  python demos/04_reconstruction_and_witness.py   (a few minutes)
"""

import numpy as np

from rbtlab import NoiseModel, SpamModel
from rbtlab.pauli import superop_from_unitary
from rbtlab.pipeline import (
    experiment_bootstrap,
    fit_overlaps,
    overlaps_from_fits,
    qpt_witness_report,
    rbt_witness_report,
    simulate_experiment,
    split_half_bootstrap,
    summary_table,
)
from rbtlab.reconstruction import corrected, reconstruct_unital
from rbtlab.sampling import sample_qpt_dataset

np.set_printoptions(precision=4, suppress=True)

noise = NoiseModel.depolarizing_model(0.9948)
spam = SpamModel.with_assignment_error(0.95)
print("simulating Hadamard + null-operation overlap bundles ...")
exp = simulate_experiment("hadamard", noise, spam, shots=10_000, bin_size=100, seed=4)

fits = fit_overlaps(exp.datasets, exp.reference)
null_fits = fit_overlaps(exp.null_datasets, exp.reference)
estimate = reconstruct_unital(overlaps_from_fits(fits))
null_estimate = reconstruct_unital(overlaps_from_fits(null_fits))
print("\nreconstructed unital part (kernel coordinates exactly zero):")
print(estimate)
print("\nleft-corrected (randomizer error removed):")
print(corrected(estimate, null_estimate, "left"))

print("\nbootstrapping fidelity table (2000 replications) ...")
boot = experiment_bootstrap(
    exp.datasets, exp.reference, replications=2000, seed=3,
    null_datasets=exp.null_datasets, fits=fits, null_fits=null_fits,
)
for method, entry in summary_table(exp, boot).items():
    if isinstance(entry, dict):
        lo, hi = entry["ci"] if entry["ci"] else (float("nan"), float("nan"))
        print(f"  {method:22s} {entry['estimate']:.6f}  [{lo:.6f}, {hi:.6f}]")
    else:
        print(f"  {method:22s} {entry:.6f}")

# Physicality: hold out half the bins to pick the witness, evaluate it on
# the other half.  A correctly analyzed physical gate stays consistent with
# a nonnegative expectation; tomography rescaled with the wrong assignment
# fidelity is certified nonphysical.
print("\ncross-validated negativity witnesses:")
halves = split_half_bootstrap(exp.datasets, exp.reference, replications=2000, seed=4)
report = rbt_witness_report(halves, variant="raw")
print(f"  overlap tomography: expectation {report.expectation:+.5f} "
      f"CI [{report.ci[0]:+.5f}, {report.ci[1]:+.5f}]")

channel = noise.apply(superop_from_unitary(exp.target_unitary))
qpt = sample_qpt_dataset(channel, assignment_fidelity=0.95, shots=10_000, bin_size=100, seed=4)
report = qpt_witness_report(qpt, assumed_assignment_fidelity=0.91, replications=2000, seed=4)
print(f"  mis-scaled QPT:     expectation {report.expectation:+.5f} "
      f"CI [{report.ci[0]:+.5f}, {report.ci[1]:+.5f}]  <- entirely below zero")
