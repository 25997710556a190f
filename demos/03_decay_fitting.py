"""Simulated overlap decays and the joint four-parameter fit with bootstrap.

Run:  python demos/03_decay_fitting.py   (about half a minute)
"""

import numpy as np

from rbtlab import NoiseModel, SpamModel, bootstrap, joint_fit, prony_seed
from rbtlab.fitting import decay_to_overlap
from rbtlab.pipeline import simulate_experiment

# Hadamard overlap experiments under coherence-limited noise: the decays are
# fast (|rate| near 1/3), some oscillatory, and each is fit jointly with the
# slow reference decay so the shared scale/offset break the rate-vs-contrast
# degeneracy.
noise = NoiseModel.coherence_limited()
spam = SpamModel.with_assignment_error(0.95)
print("simulating a Hadamard overlap bundle (10 overlaps + reference) ...")
exp = simulate_experiment("hadamard", noise, spam, shots=10_000, bin_size=100, seed=2)

curve = exp.datasets[1].means()
print("\noverlap-1 per-length means (oscillatory, rate near -1/3):")
for n, mean in sorted(curve.items(), key=lambda kv: (np.isinf(kv[0]), kv[0])):
    print(f"  n={n}: {mean:.4f}")
seed, degenerate = prony_seed([curve[1], curve[2], curve[3]])
print("ratio-of-differences seed:", round(seed, 4), "(degenerate)" if degenerate else "")

fit = joint_fit(exp.datasets[1], exp.reference)
print(f"\njoint fit: rate={fit.rate:+.4f} ref_rate={fit.ref_rate:.4f} "
      f"scale={fit.scale:.4f} offset={fit.offset:.4f}")
print("implied overlap a = 1 + 3*rate =", round(decay_to_overlap(fit.rate), 4))

print("\nbootstrap (2000 replications, resampling bins per configuration) ...")
fit = bootstrap(exp.datasets[1], exp.reference, replications=2000, seed=9, point=fit)
for name, (lo, hi) in fit.ci.items():
    print(f"  {name:9s} 95% CI: [{lo:+.4f}, {hi:+.4f}]")
