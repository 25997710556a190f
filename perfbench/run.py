"""rbtlab benchmark: runs a workload from the root of a source checkout.

    python3 perfbench/run.py --workload pipeline-w --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload, seed 1
    python3 perfbench/run.py --tiny               # every workload's checks in seconds

Each round of a workload runs in a fresh interpreter (``child.py``) with
BLAS threads capped at the number of usable cores.  Rounds repeat until
``--seconds`` of rounds have run (at least one); with ``--trace 1`` every
round is traced.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
WORK = BENCH / "work"

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _source_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "rbtlab" / "__init__.py").is_file():
        raise BenchError(f"no rbtlab sources under {root / 'src'}; run from the repository root")
    return root


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(env, workload, config, out, result, trace=0, tiny=False, setup_only=False):
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
            "--config", str(config), "--out", str(out), "--result", str(result),
            "--trace", str(trace)]
    if tiny:
        argv.append("--tiny")
    if setup_only:
        argv.append("--setup-only")
    t_spawn = time.monotonic()
    proc = subprocess.Popen([*argv, "--t-spawn", repr(t_spawn)], env=env)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round exceeded {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.monotonic() - t_spawn
    if code != 0:
        raise BenchError(f"{workload} child exited with code {code}")
    return json.loads(result.read_text()), wall


def _source_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "rbtlab").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _ledger_check(key: str, hashes: dict) -> list:
    """Compare with earlier invocations of the same sources and inputs in
    this checkout, then record these hashes.  Returns error messages."""
    path = RESULTS / "artifact_hashes.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    errors = []
    if key in ledger and ledger[key] != hashes:
        differ = sorted(n for n in set(hashes) | set(ledger[key])
                        if hashes.get(n) != ledger[key].get(n))
        errors.append(f"artifacts differ from an earlier run of the same inputs: {differ}")
    ledger[key] = hashes
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(path)
    return errors


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    root = _source_root()
    env = _child_env(root)
    cfg = workloads.build_config(workload, seed, tiny)
    RESULTS.mkdir(exist_ok=True)
    wdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    try:
        config = wdir / "config.json"
        config.write_text(json.dumps(cfg, indent=1, sort_keys=True))

        def spawn(name, **kw):
            return _spawn(env, workload, config, wdir / name, wdir / f"{name}.json",
                          tiny=tiny, **kw)

        setups = [spawn(f"probe{k}", setup_only=True)[0]["setup_s"]
                  for k in range(SETUP_PROBES)]

        rounds, hashes, errors = [], [], []
        attempted = failed = 0
        spent = last = 0.0
        # Tiny runs make exactly two rounds so that the hash comparison runs.
        while not rounds or (len(rounds) < 2 if tiny else spent + last <= seconds):
            name = f"round{len(rounds)}"
            result, last = spawn(name, trace=trace)
            spent += last
            rounds.append(result)
            attempted += len(result["ops"])
            bad = [op for op in result["ops"] if not op["ok"]]
            failed += len(bad)
            if not bad:
                h = checks.artifact_hashes(wdir / name)
                if not hashes:
                    try:
                        checks.CHECKS[workload](wdir / name, cfg)
                    # A missing or malformed artifact fails the check too.
                    except (checks.CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
                        errors.append(f"{name}: {type(exc).__name__}: {exc}")
                hashes.append(h)
            shutil.rmtree(wdir / name)
        if not hashes:
            errors.append("no round completed without a failed operation")
        else:
            try:
                checks.same_hashes(hashes)
            except checks.CheckFailed as exc:
                errors.append(str(exc))
            key = hashlib.sha256(
                (workload + _source_hash(root) + config.read_text()).encode()).hexdigest()
            errors += _ledger_check(key, hashes[0])
    finally:
        shutil.rmtree(wdir, ignore_errors=True)

    setups += [r["setup_s"] for r in rounds]
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in rounds)
                   for name in rounds[0]["layers"]}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in rounds),
            "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in rounds) / 1024,
        }
    stamp = f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    raw = {"workload": workload, "seed": seed, "tiny": tiny, "config": cfg,
           "setup_s_samples": setups, "errors": errors,
           "rounds": [{k: v for k, v in r.items() if k != "spans"} for r in rounds]}
    (RESULTS / f"{stamp}.json").write_text(json.dumps(raw, indent=1))
    if trace:
        spans = [r["spans"] for r in rounds]
        (RESULTS / f"{stamp}-spans.json").write_text(json.dumps(spans))
    for message in errors:
        print(f"{workload}: CHECK FAILED: {message}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs: runs every check in seconds")
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
                   for name in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        shown = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {shown}")
    last = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
