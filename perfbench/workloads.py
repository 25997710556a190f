"""Workload definitions shared by run.py and its child process (child.py).

The benchmark seed is turned into rbtlab inputs here; the program only ever
sees the resulting configuration file (and, for ``fit-calibration``, the
synthetic decays built from it).
"""

from __future__ import annotations

import math

WORKLOADS = ("pipeline-w", "staged-hadamard", "fit-calibration")

COMMANDS = {
    "pipeline-w": ("pipeline",),
    "staged-hadamard": ("gen-sequences", "simulate", "fit", "reconstruct", "witness", "pulse-scan"),
}

# The modelled device, written explicitly into every configuration so that
# the closed-form truth below never reads the program's defaults.
T1 = 5.7e-6
T2 = 8.4e-6
GATE_TIME = 33.3e-9
ASSIGNMENT_FIDELITY = 0.95

# Bootstrap replications of the CLI workloads: cut from the paper's 2,000 so
# that one staged run (the longest workload) stays near a minute.
CLI_REPLICATIONS = 10

# fit-calibration: synthetic single-row decays (100 bins of 100 shots).
FIT_RATES = (0.0, 1.0 / 3.0)
FIT_REF_RATE = 0.98
FIT_SCALE = 0.45
FIT_OFFSET = 0.5
FIT_REPLICATIONS = 2000
FIT_TRIALS_PER_RATE = 12

# Tiny mode: every workload's checks on inputs that run in seconds.
TINY = {
    "shots": 10_000,
    "lengths": [1, 2],
    "repeats": {"1": 1, "inf": 1},
    "replications": 20,
    "sample_counts": [8, 16],
    "fit_trials_per_rate": 4,
    "fit_replications": 200,
    "witness_variants": ["raw"],
}


# Configuration seed of the two CLI workloads.  It does not follow the
# benchmark seed: at paper scale a point fit of a null-operation overlap
# whose true rate sits on the box edge (-1/3) reports non-convergence for
# about one configuration seed in six (1, 13, 15 and 22 of 1..24), and the
# command then exits 3.  Seed 7 is the baseline seed of ROADMAP.md.
CLI_SEED = 7


def build_config(workload: str, seed: int, tiny: bool = False) -> dict:
    """The rbtlab configuration a workload runs with at a benchmark seed."""
    cfg = {
        "version": 1,
        "seed": int(seed) % 2**31 if workload == "fit-calibration" else CLI_SEED,
        "noise": {"kind": "coherence_limited", "t1": T1, "t2": T2,
                  "gate_time": GATE_TIME, "placement": "left"},
        "spam": {"assignment_fidelity": ASSIGNMENT_FIDELITY},
        "shots": 10_000,
        "bin_size": 100,
        "lengths": [1, 2, 3],
        "repeats": {"1": 12, "inf": 12},
        "bootstrap": {"replications": CLI_REPLICATIONS, "samples_per_config": None},
        "qpt": {"enabled": True, "assumed_assignment_fidelity": ASSIGNMENT_FIDELITY},
        "witness": {"enabled": True, "variants": ["raw", "left", "right"]},
    }
    if workload == "pipeline-w":
        cfg["target"] = {"name": "w"}
    elif workload == "staged-hadamard":
        cfg["target"] = {"name": "hadamard"}
    elif workload == "fit-calibration":
        cfg["target"] = {"name": "identity"}
        cfg["bootstrap"]["replications"] = FIT_REPLICATIONS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tiny:
        for key in ("shots", "lengths", "repeats"):
            cfg[key] = TINY[key]
        cfg["bootstrap"]["replications"] = (
            TINY["fit_replications"] if workload == "fit-calibration" else TINY["replications"])
        cfg["pulse_scan"] = {"sample_counts": TINY["sample_counts"]}
        cfg["witness"]["variants"] = TINY["witness_variants"]
    return cfg


def fit_trials_per_rate(tiny: bool) -> int:
    return TINY["fit_trials_per_rate"] if tiny else FIT_TRIALS_PER_RATE


def true_fidelity(cfg: dict) -> float:
    """Average fidelity of a unitary target followed by amplitude/phase
    damping N: (tr N + 2) / 6 = (3 + 2 exp(-t/T2) + exp(-t/T1)) / 6."""
    noise = cfg["noise"]
    t = noise["gate_time"]
    return (3.0 + 2.0 * math.exp(-t / noise["t2"]) + math.exp(-t / noise["t1"])) / 6.0


def rows_per_overlap(cfg: dict) -> int:
    """Sequence rows of one exhaustive overlap set: 12**n randomizer tuples at
    each length n plus 12 infinite-length surrogates, each times its repeats."""
    repeats = cfg["repeats"]
    rows = sum(12**n * repeats.get(str(n), 1) for n in cfg["lengths"])
    return rows + 12 * repeats.get("inf", 1)


def dataset_rows(cfg: dict) -> int:
    """Data rows of dataset.csv: 21 overlap sets (10 target, 10 null, one
    reference) and 12 tomography rows, one line per bin."""
    bins = cfg["shots"] // cfg["bin_size"]
    return 21 * rows_per_overlap(cfg) * bins + 12 * bins


# Scatter of the left/right corrected fidelity about the truth, measured over
# twelve paper-scale seeds per target (standard deviations 1.8e-4 for W and
# 5.3e-4 for Hadamard; largest deviations 3.0e-4 and 9.1e-4), rounded up.
FIDELITY_SCATTER = {"w": 2e-4, "hadamard": 5.5e-4}


def fidelity_tolerance(cfg: dict) -> float:
    """Allowed |corrected RBT fidelity - truth|: six standard deviations of the
    measured scatter, scaled by 1/sqrt(shots per overlap set) for smaller
    inputs.  For W the uncorrected estimate sits about 2.3e-3 low, so a
    missing correction fails; for Hadamard the scatter is too wide to tell.
    """
    paper_shots = 2160 * 10_000
    scale = math.sqrt(paper_shots / (rows_per_overlap(cfg) * cfg["shots"]))
    return 6 * FIDELITY_SCATTER[cfg["target"]["name"]] * scale
