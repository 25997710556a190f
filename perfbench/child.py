"""One round of one workload, in a fresh interpreter.

Started by ``run.py`` with ``--t-spawn`` set to the parent's monotonic clock
just before the process was created, so set-up time counts interpreter
start-up, ``import rbtlab`` and configuration validation.  Writes a JSON
result (timings, peak memory, operations, and per-layer metrics when traced)
to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_kib() -> int:
    """High-water resident set of this process image.  ``ru_maxrss`` would
    also carry the parent's peak across ``exec``, so read VmHWM first."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_cli(commands, config_path: Path, out: Path, tracer):
    import rbtlab.cli

    ops = []
    written = 0
    for command in commands:
        argv = [command, "--config", str(config_path), "--out", str(out)]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            if tracer is None:
                code = rbtlab.cli.main(argv)
            else:
                code = tracer.span(f"cli.{command}", rbtlab.cli.main, argv)
        paths = printed.getvalue().split()
        written += sum(Path(p).stat().st_size for p in paths if Path(p).exists())
        ops.append({"op": command, "ok": code == 0, "exit_code": code})
    return ops, written


def _synthetic_decay(rate, rng, label, seed):
    """A single-configuration decay, 100 bins of 100 shots at each length,
    drawn by the benchmark (not by rbtlab's samplers)."""
    from rbtlab.sampling import DecayDataset, LengthGroup
    from rbtlab.sequences import INFINITE

    from workloads import FIT_OFFSET, FIT_SCALE

    groups = {}
    for n in (1, 2, 3):
        p = FIT_SCALE * rate**n + FIT_OFFSET
        groups[n] = LengthGroup(("0",), rng.binomial(100, p, size=(1, 100)) / 100)
    groups[INFINITE] = LengthGroup(("0",), rng.binomial(100, FIT_OFFSET, size=(1, 100)) / 100)
    return DecayDataset(None, label, 10_000, 100, seed, groups)


def _fit_inputs(cfg, tiny):
    import numpy as np

    from workloads import FIT_RATES, FIT_REF_RATE, fit_trials_per_rate

    trials = []
    for k, rate in enumerate(FIT_RATES):
        for trial in range(fit_trials_per_rate(tiny)):
            rng = np.random.default_rng([cfg.seed, k, trial])
            trials.append({
                "rate": rate,
                "bootstrap_seed": cfg.seed * 1000 + 100 * k + trial,
                "overlap": _synthetic_decay(rate, rng, f"cal-{k}-{trial}/overlap", cfg.seed),
                "reference": _synthetic_decay(
                    FIT_REF_RATE, rng, f"cal-{k}-{trial}/reference", cfg.seed),
            })
    return trials


def _run_fit_calibration(cfg, trials, out: Path):
    import rbtlab.fitting as fitting

    ops, records = [], []
    for trial in trials:
        try:
            point = fitting.joint_fit(trial["overlap"], trial["reference"])
            boot = fitting.bootstrap(
                trial["overlap"], trial["reference"],
                replications=cfg.raw["bootstrap"]["replications"],
                seed=trial["bootstrap_seed"], point=point,
            )
        except Exception as exc:  # an operation that raises counts as failed
            ops.append({"op": "bootstrap", "ok": False, "error": repr(exc)})
            continue
        ops.append({"op": "bootstrap", "ok": True})
        records.append({
            "true_rate": trial["rate"],
            "rate": boot.rate,
            "ref_rate": boot.ref_rate,
            "scale": boot.scale,
            "offset": boot.offset,
            "converged": boot.converged,
            "ci_rate": [float(x) for x in boot.ci["rate"]],
        })
    (out / "calibration.json").write_text(json.dumps(records, indent=1) + "\n")
    return ops, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import rbtlab.cli
    import rbtlab.pulses  # noqa: F401  (imported by pulse-scan; loaded for every workload alike)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    cfg = rbtlab.cli.RunConfig.from_file(args.config)
    setup_s = time.monotonic() - args.t_spawn
    result = {"setup_s": setup_s}
    if not args.setup_only:
        args.out.mkdir(parents=True, exist_ok=True)
        from workloads import COMMANDS

        if args.workload == "fit-calibration":
            trials = _fit_inputs(cfg, args.tiny)
            start = time.perf_counter()
            ops, written = _run_fit_calibration(cfg, trials, args.out)
        else:
            start = time.perf_counter()
            ops, written = _run_cli(COMMANDS[args.workload], args.config, args.out, tracer)
        end = time.perf_counter()
        result.update(run_s=end - start, peak_rss_kib=_peak_rss_kib(), ops=ops)
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, start, end, written)
            result["spans"] = tracer.spans
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
