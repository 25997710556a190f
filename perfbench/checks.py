"""Correctness checks on a round's artifacts.

Every expected value is computed here, apart from rbtlab (closed-form
truth, sequence-count formulas, known synthetic rates) or follows from an
identity the method must satisfy.  No check compares against stored output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import workloads


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def artifact_hashes(out: Path) -> dict:
    hashes = {}
    for path in sorted(out.iterdir()):
        digest = hashlib.sha256()
        with path.open("rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                digest.update(block)
        hashes[path.name] = digest.hexdigest()
    return hashes


def same_hashes(rounds: list) -> None:
    """Every round's artifacts agree: a run is a pure function of (config, seed)."""
    for k, hashes in enumerate(rounds[1:], start=1):
        differ = sorted(
            name for name in set(hashes) | set(rounds[0])
            if hashes.get(name) != rounds[0].get(name)
        )
        require(not differ, f"round {k} artifacts differ from round 0: {differ}")


def dataset_csv(path: Path, cfg: dict) -> None:
    """Row count and bin means of dataset.csv, streamed in blocks."""
    header = "role,j,n,tuple_id,bin_id,mean"
    bin_size = cfg["bin_size"]
    rows = 0
    values = set()
    with path.open("rb") as f:
        first = f.readline().decode().rstrip("\r\n")
        require(first == header, f"dataset.csv header {first!r}")
        tail = b""
        for block in iter(lambda: f.read(1 << 24), b""):
            lines = (tail + block).split(b"\n")
            tail = lines.pop()
            rows += len(lines)
            values.update(line.rstrip(b"\r").rsplit(b",", 1)[-1] for line in lines)
        require(tail.strip() == b"", "dataset.csv does not end with a newline")
    expected = workloads.dataset_rows(cfg)
    require(rows == expected, f"dataset.csv has {rows} data rows, expected {expected}")
    for text in values:
        mean = float(text)
        k = mean * bin_size
        require(
            0.0 <= mean <= 1.0 and abs(k - round(k)) < 1e-9,
            f"bin mean {text!r} is not a multiple of 1/{bin_size} in [0, 1]",
        )


def _load(out: Path, name: str):
    return json.loads((out / name).read_text())


def corrected_fidelities(fidelity: dict, keys, cfg: dict) -> None:
    truth = workloads.true_fidelity(cfg)
    tol = workloads.fidelity_tolerance(cfg)
    for key in keys:
        est = fidelity[key]["estimate"]
        require(abs(est - truth) <= tol,
                f"{key} fidelity {est!r} is {est - truth:+.2e} from truth {truth!r} (tol {tol:.1e})")


def witness_replications(out: Path, cfg: dict) -> None:
    payload = _load(out, "witness.json")
    reports = dict(payload["rbt"])
    require(sorted(reports) == sorted(cfg["witness"]["variants"]),
            f"witness variants {sorted(reports)}")
    require(payload["qpt"] is not None, "qpt witness missing")
    reports["qpt"] = payload["qpt"]
    want = cfg["bootstrap"]["replications"]
    for name, report in reports.items():
        require(report["replications"] == want,
                f"witness {name} ran {report['replications']} replications, configured {want}")


def pipeline_w(out: Path, cfg: dict) -> None:
    fidelity = _load(out, "summary.json")["fidelity"]
    truth = workloads.true_fidelity(cfg)
    require(abs(fidelity["true_noisy_gate"] - truth) <= 1e-12,
            f"true_noisy_gate {fidelity['true_noisy_gate']!r} != closed form {truth!r}")
    corrected_fidelities(fidelity, ("rbt_corrected_left", "rbt_corrected_right"), cfg)
    # The direct three-overlap estimate and the full reconstruction are the
    # same linear functional of the fitted overlaps.
    direct, raw = fidelity["w_direct"], fidelity["rbt_raw"]
    for a, b in zip([direct["estimate"], *direct["ci"]], [raw["estimate"], *raw["ci"]]):
        require(abs(a - b) <= 1e-9, f"w_direct {a!r} != rbt_raw {b!r}")
    dataset_csv(out / "dataset.csv", cfg)
    witness_replications(out, cfg)


def clifford_rates(out: Path) -> None:
    for fit in _load(out, "fits.json")["target"]:
        rate = fit["rate"]
        distance = min(abs(rate), abs(abs(rate) - 1.0 / 3.0))
        require(distance <= 0.04, f"overlap {fit['j']} rate {rate!r} is not near 0 or +-1/3")


def pulse_scan(path: Path) -> None:
    table = {}
    with path.open(newline="") as f:
        for row in csv.DictReader(f):
            key = (row["model"], row["dt"], int(row["order"]), int(row["drag"]))
            table[key] = float(row["infidelity"])
    dts = sorted({key[1] for key in table}, key=float)
    require(dts, "pulse_scan.csv is empty")
    for dt in dts:
        q1, q2 = table[("qubit", dt, 1, 0)], table[("qubit", dt, 2, 0)]
        require(q2 * 10 <= q1, f"dt {dt}: order-2 infidelity {q2!r} not 10x below order-1 {q1!r}")
        plain, drag = table[("duffing", dt, 2, 0)], table[("duffing", dt, 2, 1)]
        require(drag < plain, f"dt {dt}: DRAG infidelity {drag!r} not below {plain!r}")


def staged_hadamard(out: Path, cfg: dict) -> None:
    dataset_csv(out / "dataset.csv", cfg)
    fidelity = _load(out, "reconstruction.json")["fidelity"]
    corrected_fidelities(fidelity, ("left", "right"), cfg)
    clifford_rates(out)
    witness_replications(out, cfg)
    pulse_scan(out / "pulse_scan.csv")


def coverage_band(trials: int, low: float = 0.93, high: float = 0.97, tail: float = 1e-6):
    """Covered-trial counts a calibrated 95% interval reaches unless an event
    of probability below ``tail`` occurs, for true coverage in [low, high]
    (the range acceptance criterion 4 allows)."""
    from scipy.stats import binom

    return int(binom.ppf(tail, trials, low)), int(binom.isf(tail, trials, high))


def fit_calibration(out: Path, cfg: dict) -> None:
    records = _load(out, "calibration.json")
    require(records, "no calibration trials")
    errors = {}
    covered = 0
    for rec in records:
        require(rec["converged"], f"point fit at rate {rec['true_rate']} did not converge")
        errors.setdefault(rec["true_rate"], []).append(rec["rate"] - rec["true_rate"])
        lo, hi = rec["ci_rate"]
        covered += lo <= rec["true_rate"] <= hi
    # A single single-row fit scatters by 0.011 (measured over 40 trials per
    # rate), so the 0.02 bound applies to the root-mean-square error of all
    # trials and to each rate's mean error.
    pooled = [e for errs in errors.values() for e in errs]
    rms = math.sqrt(sum(e * e for e in pooled) / len(pooled))
    require(rms <= 0.02, f"point-fit RMS error {rms:.4f} > 0.02")
    for rate, errs in errors.items():
        mean = sum(errs) / len(errs)
        require(abs(mean) <= 0.02, f"point-fit mean error {mean:+.4f} at rate {rate}")
    lo, hi = coverage_band(len(records))
    require(lo <= covered <= hi, f"coverage {covered}/{len(records)} outside [{lo}, {hi}]")


CHECKS = {
    "pipeline-w": pipeline_w,
    "staged-hadamard": staged_hadamard,
    "fit-calibration": fit_calibration,
}
