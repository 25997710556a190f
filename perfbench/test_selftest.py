"""Self-test of the benchmark: tiny runs pass, and every correctness check
rejects a deliberately corrupted artifact.

    python3 -m pytest perfbench/test_selftest.py -q      # from the repository root
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _benchmark_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return sorted((m["name"], m["unit"]) for m in spec[kind])


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--tiny", "--seed", str(SEED), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tiny_runs_pass_every_check():
    result = _bench()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    reported = {(name.split(".", 1)[1], m["unit"]) for name, m in result["metrics"].items()}
    assert sorted(reported) == _benchmark_metrics("end_to_end")


def test_traced_run_reports_every_layer_metric():
    result = _bench("--workload", "pipeline-w", "--trace", "1")
    assert result["correct"]
    reported = sorted((name, m["unit"]) for name, m in result["metrics"].items())
    assert reported == _benchmark_metrics("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Root spans cover the whole round apart from the benchmark's own loop.
    assert metrics["trace.unaccounted_s"] < 0.05 * metrics["trace.run_s"]
    assert metrics["cli.pipeline_s"] > 0 and metrics["fitting.resampled_means_calls"] > 0


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One tiny round of every workload, made by the benchmark's child."""
    env = run._child_env(ROOT)
    out = {}
    for name in workloads.WORKLOADS:
        base = tmp_path_factory.mktemp(name)
        cfg = workloads.build_config(name, SEED, tiny=True)
        config = base / "config.json"
        config.write_text(json.dumps(cfg))
        result, _ = run._spawn(env, name, config, base / "out", base / "result.json", tiny=True)
        assert all(op["ok"] for op in result["ops"])
        out[name] = (base / "out", cfg)
    return out


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _edit_lines(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))


def _set_field(lines, index, column, value):
    fields = lines[index].rstrip("\n").split(",")
    fields[column] = value
    lines[index] = ",".join(fields) + "\n"


def _pulse_rows(lines, model, order, drag):
    return [i for i, line in enumerate(lines)
            if line.startswith(f"{model},") and line.split(",")[2:4] == [str(order), str(drag)]]


def _copy_pulse_infidelity(lines, dst, src):
    _set_field(lines, dst, 4, lines[src].split(",")[4])


def _shift_w_direct(s):
    s["fidelity"]["w_direct"]["estimate"] += 1e-6


def _shift_truth(s):
    s["fidelity"]["true_noisy_gate"] += 1e-9


def _shift_left(s):
    s["fidelity"]["rbt_corrected_left"]["estimate"] -= 0.05


def _cut_replications(w):
    w["rbt"]["raw"]["replications"] -= 1


CORRUPTIONS = [
    ("pipeline-w", "summary.json", lambda p: _edit_json(p, _shift_w_direct), "w_direct"),
    ("pipeline-w", "summary.json", lambda p: _edit_json(p, _shift_truth), "true_noisy_gate"),
    ("pipeline-w", "summary.json", lambda p: _edit_json(p, _shift_left), "rbt_corrected_left"),
    ("pipeline-w", "dataset.csv", lambda p: _edit_lines(p, lambda ls: ls.pop()), "data rows"),
    ("pipeline-w", "dataset.csv",
     lambda p: _edit_lines(p, lambda ls: _set_field(ls, -1, 5, "0.123")), "multiple of"),
    ("pipeline-w", "witness.json", lambda p: _edit_json(p, _cut_replications), "replications"),
    ("staged-hadamard", "dataset.csv", lambda p: _edit_lines(p, lambda ls: ls.pop()), "data rows"),
    ("staged-hadamard", "reconstruction.json",
     lambda p: _edit_json(p, lambda r: r["fidelity"]["right"].update(estimate=0.9)), "right"),
    ("staged-hadamard", "fits.json",
     lambda p: _edit_json(p, lambda f: f["target"][0].update(rate=f["target"][0]["rate"] + 0.1)),
     "not near 0"),
    ("staged-hadamard", "pulse_scan.csv",
     lambda p: _edit_lines(p, lambda ls: _copy_pulse_infidelity(
         ls, _pulse_rows(ls, "qubit", 2, 0)[0], _pulse_rows(ls, "qubit", 1, 0)[0])),
     "order-2"),
    ("staged-hadamard", "pulse_scan.csv",
     lambda p: _edit_lines(p, lambda ls: _copy_pulse_infidelity(
         ls, _pulse_rows(ls, "duffing", 2, 1)[-1], _pulse_rows(ls, "duffing", 2, 0)[-1])),
     "DRAG"),
    ("fit-calibration", "calibration.json",
     lambda p: _edit_json(p, lambda rs: [r.update(rate=r["rate"] + 0.05) for r in rs]),
     "error"),
    ("fit-calibration", "calibration.json",
     lambda p: _edit_json(p, lambda rs: [r.update(ci_rate=[r["true_rate"] + 0.01] * 2)
                                         for r in rs]),
     "coverage"),
    ("fit-calibration", "calibration.json",
     lambda p: _edit_json(p, lambda rs: rs[0].update(converged=False)), "converge"),
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_on_program_output(artifacts, workload):
    out, cfg = artifacts[workload]
    checks.CHECKS[workload](out, cfg)


@pytest.mark.parametrize(
    "workload,artifact,corrupt,message", CORRUPTIONS,
    ids=[f"{w}-{a}-{m}" for w, a, _, m in CORRUPTIONS],
)
def test_check_rejects_corruption(artifacts, tmp_path, workload, artifact, corrupt, message):
    out, cfg = artifacts[workload]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    corrupt(copy / artifact)
    with pytest.raises(checks.CheckFailed, match=message):
        checks.CHECKS[workload](copy, cfg)


def test_differing_artifact_hashes_fail(artifacts):
    out, _ = artifacts["pipeline-w"]
    hashes = checks.artifact_hashes(out)
    checks.same_hashes([hashes, dict(hashes)])
    changed = dict(hashes, **{"summary.json": "0" * 64})
    with pytest.raises(checks.CheckFailed, match="summary.json"):
        checks.same_hashes([hashes, changed])
