"""Span tracer that wraps rbtlab's public functions from outside the program.

Each wrapper replaces a function at the name its calling module looks it up
under (``rbtlab.cli.experiment_bootstrap``, ``rbtlab.pipeline.resampled_means``
...), so the program itself is unchanged.  A span records its name, start,
end and parent span; counters are recorded at the same boundaries.  Spans
stay in memory and are reduced to per-layer metrics when the round ends.
"""

from __future__ import annotations

import functools
import inspect
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = {}
        self.keys = {}  # counter name -> set of distinct call keys
        self.overhead = 0.0  # seconds spent in the tracer's own bookkeeping
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        entered = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        record = [name, None, None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self.overhead += record[1] - entered + time.perf_counter() - record[2]

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def key(self, name, key):
        self.keys.setdefault(name, set()).add(key)

    def self_times(self, start, end):
        """Per-name (inclusive, self) seconds of spans opened in [start, end],
        plus the summed duration of the root spans."""
        child_total = [0.0] * len(self.spans)
        for name, s, e, parent in self.spans:
            if parent is not None:
                child_total[parent] += e - s
        inclusive, own = {}, {}
        roots = 0.0
        for i, (name, s, e, parent) in enumerate(self.spans):
            if s < start or e > end:
                continue
            own[name] = own.get(name, 0.0) + (e - s) - child_total[i]
            # Inclusive time counts a span once even when it nests in a span
            # of the same name.
            if parent is None or self.spans[parent][0] != name:
                inclusive[name] = inclusive.get(name, 0.0) + (e - s)
            if parent is None:
                roots += e - s
        return inclusive, own, roots


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _wrap(tracer, module, attr, name, after=None):
    """Replace ``module.attr`` by a wrapper that records a span named ``name``
    (or ``name(arguments)`` when callable) and then calls ``after(arguments,
    result)``."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        entered = time.perf_counter()
        bound = _bound(original, args, kwargs) if callable(name) or after else None
        label = name(bound) if callable(name) else name
        tracer.overhead += time.perf_counter() - entered
        result = tracer.span(label, original, *args, **kwargs)
        if after is not None:
            entered = time.perf_counter()
            after(bound, result)
            tracer.overhead += time.perf_counter() - entered
        return result

    setattr(module, attr, wrapper)


def install(tracer):
    """Wrap every traced rbtlab function; returns nothing, patches in place."""
    import rbtlab.cli as cli
    import rbtlab.config as config
    import rbtlab.fitting as fitting
    import rbtlab.pipeline as pipeline
    import rbtlab.pulses as pulses

    def exhaustive_set_count(args, out):
        tracer.count("sequences.exhaustive_set_calls")

    for module in (cli, pipeline):
        _wrap(tracer, module, "exhaustive_set", "sequences.exhaustive_set",
              exhaustive_set_count)

    def rows_sampled(args, ds):
        tracer.count("sampling.rows_sampled", ds.n_rows())

    _wrap(tracer, pipeline, "sample_dataset", "sampling.sample_dataset", rows_sampled)
    _wrap(tracer, cli, "sample_qpt_dataset", "sampling.sample_qpt_dataset")

    def resample_counts(args, out):
        ds = args["ds"]
        tracer.count("fitting.resampled_means_calls")
        tracer.key(
            "resample",
            (ds.label, ds.seed, args["seed"], args["stream_label"],
             args["replications"], args["samples_per_config"]),
        )
        index_bytes = 0
        for grp in ds.groups.values():
            draws = args["samples_per_config"] or grp.n_bins
            index_bytes += args["replications"] * grp.n_rows * draws * 8
        tracer.count("fitting.resample_index_bytes", index_bytes)

    def joint_fit_counts(args, out):
        tracer.count("fitting.joint_fit_calls")
        tracer.key("joint_fit", (args["overlap"].label, args["reference"].label,
                                 args["overlap"].seed))

    def experiment_bootstrap_rows(args, out):
        tracer.count("pipeline.experiment_bootstrap_calls")
        n_sets = len(args["exp_datasets"]) + len(args["null_datasets"] or {})
        tracer.count("fitting.refit_rows", args["replications"] * n_sets)

    def bootstrap_rows(args, out):
        tracer.count("fitting.refit_rows", args["replications"])

    for module in (pipeline, fitting):
        _wrap(tracer, module, "resampled_means", "fitting.resampled_means", resample_counts)
        _wrap(tracer, module, "joint_fit", "fitting.joint_fit", joint_fit_counts)
    for module in (cli, pipeline):
        _wrap(tracer, module, "experiment_bootstrap", "pipeline.experiment_bootstrap",
              experiment_bootstrap_rows)
    _wrap(tracer, fitting, "bootstrap", "fitting.bootstrap", bootstrap_rows)

    def reconstruct_count(args, out):
        tracer.count("reconstruction.calls")

    for module, attr in (
        (pipeline, "reconstruct_unital"),
        (pipeline, "reconstruct_unital_batch"),
        (pipeline, "corrected"),
        (pipeline, "qpt_linear_inversion"),
        (cli, "reconstruct_unital"),
    ):
        _wrap(tracer, module, attr, "reconstruction.reconstruct", reconstruct_count)

    _wrap(tracer, cli, "rbt_witness_report",
          lambda args: f"pipeline.witness.{args['variant']}")
    _wrap(tracer, cli, "qpt_witness_report", "pipeline.witness.qpt")

    # cmd_pulse_scan imports these from rbtlab.pulses at call time.
    for attr in ("simulate_qubit", "simulate_duffing"):
        _wrap(tracer, pulses, attr, "pulses.simulate")

    # Parsing stays inside the command's self time; only the reads are counted.
    read_csv = cli._read_dataset_csv

    @functools.wraps(read_csv)
    def counted_read(*args, **kwargs):
        tracer.count("cli.dataset_csv_reads")
        return read_csv(*args, **kwargs)

    cli._read_dataset_csv = counted_read

    run_config = config.RunConfig
    for attr in ("from_dict", "from_file"):
        original = getattr(run_config, attr).__func__

        def traced(cls, *args, _original=original, **kwargs):
            return tracer.span("config.load", _original, cls, *args, **kwargs)

        setattr(run_config, attr, classmethod(functools.wraps(original)(traced)))


CLI_COMMANDS = ("pipeline", "gen-sequences", "simulate", "fit", "reconstruct",
                "witness", "pulse-scan")
WITNESS_VARIANTS = ("raw", "left", "right", "qpt")


def layer_metrics(tracer, start, end, bytes_written):
    """Reduce the spans of one round to the per-layer metrics."""
    inclusive, own, roots = tracer.self_times(start, end)
    counts = tracer.counts

    def t(name):
        return inclusive.get(name, 0.0)

    resample_calls = counts.get("fitting.resampled_means_calls", 0)
    fit_calls = counts.get("fitting.joint_fit_calls", 0)
    out = {
        "sequences.exhaustive_set_s": t("sequences.exhaustive_set"),
        "sequences.exhaustive_set_calls": counts.get("sequences.exhaustive_set_calls", 0),
        "sampling.sample_dataset_s": t("sampling.sample_dataset"),
        "sampling.rows_sampled": counts.get("sampling.rows_sampled", 0),
        "sampling.sample_qpt_dataset_s": t("sampling.sample_qpt_dataset"),
        "fitting.resampled_means_s": t("fitting.resampled_means"),
        "fitting.resampled_means_calls": resample_calls,
        "fitting.resample_unique_ratio": (
            len(tracer.keys.get("resample", ())) / resample_calls if resample_calls else 0.0),
        "fitting.resample_index_mib": counts.get("fitting.resample_index_bytes", 0) / 2**20,
        "fitting.joint_fit_s": t("fitting.joint_fit"),
        "fitting.joint_fit_calls": fit_calls,
        "fitting.joint_fit_unique_ratio": (
            len(tracer.keys.get("joint_fit", ())) / fit_calls if fit_calls else 0.0),
        # Bootstrap self time: what is left after resampling, point fits and
        # reconstruction are taken out is the batched BFGS refit.
        "fitting.refit_s": own.get("pipeline.experiment_bootstrap", 0.0)
        + own.get("fitting.bootstrap", 0.0),
        "fitting.refit_rows": counts.get("fitting.refit_rows", 0),
        "reconstruction.reconstruct_s": t("reconstruction.reconstruct"),
        "reconstruction.calls": counts.get("reconstruction.calls", 0),
        "pipeline.experiment_bootstrap_s": t("pipeline.experiment_bootstrap"),
        "pipeline.experiment_bootstrap_calls": counts.get(
            "pipeline.experiment_bootstrap_calls", 0),
    }
    for variant in WITNESS_VARIANTS:
        out[f"pipeline.witness.{variant}_s"] = t(f"pipeline.witness.{variant}")
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = t(f"cli.{command}")
    out["cli.self_s"] = sum(own.get(f"cli.{c}", 0.0) for c in CLI_COMMANDS)
    out["cli.dataset_csv_reads"] = counts.get("cli.dataset_csv_reads", 0)
    out["cli.bytes_written_mib"] = bytes_written / 2**20
    out["pulses.simulate_s"] = t("pulses.simulate")
    out["trace.spans"] = sum(1 for s in tracer.spans if start <= s[1] and s[2] <= end)
    out["trace.run_s"] = end - start
    out["trace.overhead_s"] = tracer.overhead
    out["trace.unaccounted_s"] = (end - start) - roots
    # Configuration loading counts set-up too, which precedes the round.
    out["config.load_s"] = tracer.self_times(float("-inf"), float("inf"))[1].get(
        "config.load", 0.0)
    return out
