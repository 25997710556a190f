"""Command-line pipeline: generate sequences, simulate, fit, reconstruct,
witness, and pulse sweeps.

Subcommands: ``pipeline``, ``gen-sequences``, ``simulate``, ``fit``,
``reconstruct``, ``witness``, ``pulse-scan``.  Stage commands reread the
artifacts of an earlier run (``--stage-input``, defaulting to the output
directory) and reproduce exactly what the fused pipeline would have written
on the same inputs.  Exit codes: 0 success, 2 configuration or artifact
schema error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .fitting import FitResult
from .pauli import avg_fidelity, superop_to_list
from .pipeline import (
    Experiment,
    ExperimentBootstrap,
    build_reconstruction,
    experiment_bootstrap,
    fit_overlaps,
    percentile_ci,
    qpt_point_estimate,
    qpt_witness_report,
    rbt_witness_report,
    resolve_target,
    simulate_experiment,
    split_half_bootstrap,
    summary_table,
)
# perfbench/tracer.py wraps cli.reconstruct_unital, so the name stays here.
from .reconstruction import Reconstruction, hinton_records, reconstruct_unital  # noqa: F401
from .sampling import DecayDataset, LengthGroup, QptDataset, sample_qpt_dataset
from .sequences import INFINITE, exhaustive_set
from .witness import WitnessReport

__all__ = ["main"]

DATASET_HEADER = ("role", "j", "n", "tuple_id", "bin_id", "mean")


class NumericalError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Serialization helpers (deterministic bytes: sorted keys, repr floats)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _format_length(n) -> str:
    return "inf" if math.isinf(n) else str(int(n))


def _parse_length(text: str):
    return INFINITE if text == "inf" else int(text)


def _sequence_records(cfg: RunConfig):
    name, unitary = resolve_target(cfg.target_spec())
    roles = [("target", name)]
    if unitary is not None:
        roles.append(("null", "null"))
    roles.append(("reference", "reference"))
    records = []
    for role, _label in roles:
        js = list(range(1, 11)) if role in ("target", "null") else [1]
        for j in js:
            seqs = exhaustive_set(j, lengths=cfg.lengths(), repeats=cfg.repeats())
            records.append(
                {
                    "role": role,
                    "j": j,
                    "sequences": [
                        {
                            "n": _format_length(s.length),
                            "randomizers": list(s.randomizers),
                            "compiled": list(s.compiled),
                            "repeat": s.repeat,
                        }
                        for s in seqs.sequences
                    ],
                }
            )
    return records


def _csv_prefixes(rows) -> list:
    """Each row's fields plus an empty last field, formatted by the csv
    module's rules without the line terminator: ``role,j,n,tuple_id,``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    out = []
    for fields in rows:
        buf.seek(0)
        buf.truncate()
        writer.writerow((*fields, ""))
        out.append(buf.getvalue()[:-2])
    return out


def _write_bin_lines(f, prefixes: list, bins: np.ndarray) -> None:
    """Write ``prefix + "bin_id,repr(mean)"`` for every bin of every row.

    Bin means are ``k / bin_size``, so a group holds few distinct
    (bin id, mean) pairs; each pair's text is formatted once.  Means are
    told apart by bit pattern, so ``-0.0`` keeps its own ``repr``.
    """
    nb = bins.shape[1]
    bits, value_index = np.unique(
        np.ascontiguousarray(bins, dtype=float).view(np.int64), return_inverse=True
    )
    values = bits.view(float).tolist()
    pairs, pair_index = np.unique(
        value_index.reshape(bins.shape) * nb + np.arange(nb), return_inverse=True
    )
    tails = np.array(
        [f"{code % nb},{values[code // nb]!r}\r\n" for code in pairs.tolist()],
        dtype=object,
    )
    for prefix, row in zip(prefixes, tails[pair_index.reshape(bins.shape)].tolist()):
        f.write(prefix + prefix.join(row))


def _write_dataset_csv(path: Path, exp: Experiment, qpt: QptDataset | None) -> None:
    """One line per bin: target, null and reference overlap rows by length,
    then the tomography rows (see README, "``dataset.csv`` format")."""
    decays = [(ds.label, str(j), ds) for j, ds in sorted(exp.datasets.items())]
    decays += [(ds.label, str(j), ds) for j, ds in sorted((exp.null_datasets or {}).items())]
    decays.append(("reference", "", exp.reference))
    with path.open("w", newline="") as f:
        csv.writer(f).writerow(DATASET_HEADER)
        for role, j_text, ds in decays:
            for n in ds.lengths():
                grp = ds.groups[n]
                n_text = _format_length(n)
                prefixes = _csv_prefixes((role, j_text, n_text, rid) for rid in grp.row_ids)
                _write_bin_lines(f, prefixes, grp.bins)
        if qpt is not None:
            rows = range(qpt.bins.shape[0])
            prefixes = _csv_prefixes(("qpt", str(r), "1", f"row{r}") for r in rows)
            _write_bin_lines(f, prefixes, qpt.bins)


def _line_runs(f, where):
    """Split the data lines of ``dataset.csv`` into runs of consecutive lines
    that share the text before their last two fields.

    Yields ``(first line number, prefix, bin texts, mean texts)``.  A line
    with fewer than three comma-separated parts raises after the run before
    it has been yielded, so errors surface in line order.
    """
    prefix, start, bin_texts, mean_texts = None, 0, [], []
    for lineno, line in enumerate(f, start=2):
        parts = line.rsplit(",", 2)
        if len(parts) == 3 and parts[0] == prefix:
            bin_texts.append(parts[1])
            mean_texts.append(parts[2])
            continue
        if prefix is not None:
            yield start, prefix, bin_texts, mean_texts
        if len(parts) != 3:
            fields = next(csv.reader([line]), [])
            raise ConfigError(
                f"expected {len(DATASET_HEADER)} fields, got {len(fields)}",
                path=where(lineno),
            )
        prefix, start, bin_texts, mean_texts = parts[0], lineno, [parts[1]], [parts[2]]
    if prefix is not None:
        yield start, prefix, bin_texts, mean_texts


@lru_cache(maxsize=None)
def _bin_id_texts(nb: int) -> tuple:
    return tuple(str(b) for b in range(nb))


def _row_means(bin_texts, mean_texts, start, where) -> np.ndarray:
    """One row's bin means.  Its bin ids must run 0, 1, 2, ... and every mean
    must parse and lie in [0, 1]; otherwise the first faulty line is named.
    Rows as the writer spells them take the fast check; any other row is
    checked line by line."""
    if tuple(bin_texts) == _bin_id_texts(len(bin_texts)):
        try:
            means = np.array(mean_texts, dtype=float)
        except ValueError:
            pass
        else:
            if np.all((means >= 0.0) & (means <= 1.0)):
                return means
    for k, (bin_text, mean_text) in enumerate(zip(bin_texts, mean_texts)):
        try:
            bin_id = int(bin_text)
            mean = float(mean_text.rstrip("\r\n"))
        except ValueError as exc:
            raise ConfigError(str(exc), path=where(start + k)) from exc
        if not 0.0 <= mean <= 1.0:
            raise ConfigError(f"bin mean {mean} outside [0, 1]", path=where(start + k))
        if bin_id != k:
            raise ConfigError(f"bin id {bin_id} where {k} was expected", path=where(start + k))
    return np.array(mean_texts, dtype=float)


def _read_dataset_csv(path: Path, cfg: RunConfig):
    """Rebuild datasets (target, null, reference, qpt) from dataset.csv.

    The file is streamed: each row's ``role,j,n,tuple_id`` prefix is parsed
    once and its bins are converted with one numpy call.  A wrong header or
    field count, an unparsable number, a mean outside [0, 1], bin ids other
    than 0, 1, 2, ... in order, a bin count other than the configuration's
    ``shots // bin_size``, or a repeated row raises a ConfigError naming the
    line.
    """

    def where(lineno: int) -> str:
        return f"{path.name}:{lineno}"

    n_bins = cfg.raw["shots"] // cfg.raw["bin_size"]

    decays: dict = {}  # (role, j text) -> {n: (row ids, per-row means)}
    qpt_rows: list = []
    seen: set = set()
    with path.open(newline="") as f:
        header = next(csv.reader([f.readline()]), [])
        if tuple(header) != DATASET_HEADER:
            raise ConfigError(f"unexpected header {header}", path=where(1))
        for start, prefix, bin_texts, mean_texts in _line_runs(f, where):
            fields = next(csv.reader([prefix]), [])
            if len(fields) != 4:
                raise ConfigError(
                    f"expected {len(DATASET_HEADER)} fields, got {len(fields) + 2}",
                    path=where(start),
                )
            role, j_text, n_text, tuple_id = fields
            try:
                n = _parse_length(n_text)
            except ValueError as exc:
                raise ConfigError(str(exc), path=where(start)) from exc
            means = _row_means(bin_texts, mean_texts, start, where)
            if len(means) != n_bins:
                raise ConfigError(
                    f"{len(means)} bins where shots // bin_size is {n_bins}",
                    path=where(start),
                )
            key = (role, j_text, n, tuple_id)
            if key in seen:
                raise ConfigError(f"repeated row {','.join(fields)}", path=where(start))
            seen.add(key)
            if role == "qpt":
                r = len(qpt_rows)
                if (j_text, n, tuple_id) != (str(r), 1, f"row{r}"):
                    raise ConfigError(f"expected qpt row {r}", path=where(start))
                rows = qpt_rows
            else:
                row_ids, rows = decays.setdefault((role, j_text), {}).setdefault(n, ([], []))
                row_ids.append(tuple_id)
            rows.append(means)

    def build_decay(role, j_text, basis_index) -> DecayDataset:
        groups = {
            n: LengthGroup(tuple(row_ids), np.array(rows))
            for n, (row_ids, rows) in decays[(role, j_text)].items()
        }
        return DecayDataset(
            basis_index=basis_index,
            label=role,
            shots=cfg.raw["shots"],
            bin_size=cfg.raw["bin_size"],
            seed=cfg.seed,
            groups=groups,
        )

    def overlap_sets(name) -> dict:
        return {
            j: build_decay(f"{name}/overlap-{j}", str(j), j)
            for j in range(1, 11)
            if (f"{name}/overlap-{j}", str(j)) in decays
        }

    name, unitary = resolve_target(cfg.target_spec())
    datasets = overlap_sets(name)
    null_datasets = overlap_sets("null") if unitary is not None else None
    if ("reference", "") not in decays:
        raise ConfigError("reference rows missing", path=path.name)
    reference = build_decay("reference", "", None)
    qpt = None
    if qpt_rows:
        if len(qpt_rows) != 12:
            raise ConfigError(f"expected 12 qpt rows, got {len(qpt_rows)}", path=path.name)
        qpt = QptDataset(
            bins=np.array(qpt_rows),
            shots=cfg.raw["shots"],
            bin_size=cfg.raw["bin_size"],
            seed=cfg.seed,
            label="qpt",
        )
    if len(datasets) != 10:
        raise ConfigError("expected 10 target overlap datasets", path=path.name)
    return datasets, null_datasets, reference, qpt


def _fit_payload(j: int, fit: FitResult, ci: dict | None) -> dict:
    return {
        "j": j,
        "rate": fit.rate,
        "ref_rate": fit.ref_rate,
        "scale": fit.scale,
        "offset": fit.offset,
        "objective": fit.objective,
        "converged": fit.converged,
        "degenerate_seed": fit.degenerate_seed,
        "overlap": 1.0 + 3.0 * fit.rate,
        "ci": ci,
    }


def _fits_with_ci(fits, boot: ExperimentBootstrap | None, which: str):
    out = []
    for col, fit in enumerate(fits):
        ci = None
        if boot is not None:
            if which == "target":
                rates, nonconverged = boot.rates, boot.nonconverged
            else:
                rates, nonconverged = boot.null_rates, boot.null_nonconverged
            lo, hi = percentile_ci(rates[:, col])
            ci = {"rate": [float(lo), float(hi)], "nonconverged": int(nonconverged[col])}
        out.append(_fit_payload(col + 1, fit, ci))
    return out


def _witness_payload(report: WitnessReport) -> dict:
    return {
        "witness_re": [float(x) for x in report.witness.real],
        "witness_im": [float(x) for x in report.witness.imag],
        "expectation": report.expectation,
        "ci": [report.ci[0], report.ci[1]],
        "replications": report.replications,
        "samples_per_config": report.samples_per_config,
        "eig_multiplicity": report.eig_multiplicity,
    }


# ---------------------------------------------------------------------------
# Stage computations


def _compute_fits(cfg, datasets, null_datasets, reference):
    fits = fit_overlaps(datasets, reference)
    null_fits = fit_overlaps(null_datasets, reference) if null_datasets else None
    boot = experiment_bootstrap(
        datasets,
        reference,
        replications=cfg.raw["bootstrap"]["replications"],
        seed=cfg.seed,
        samples_per_config=cfg.raw["bootstrap"]["samples_per_config"],
        null_datasets=null_datasets,
        fits=fits,
        null_fits=null_fits,
    )
    bad = [f for f in fits + (null_fits or []) if not f.converged]
    if bad:
        raise NumericalError(f"{len(bad)} joint fits failed to converge")
    return fits, null_fits, boot


def _fits_json(cfg, fits, null_fits, boot) -> dict:
    payload = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "target": _fits_with_ci(fits, boot, "target"),
    }
    payload["null"] = _fits_with_ci(null_fits, boot, "null") if null_fits else None
    return payload


def _reconstruction(cfg, boot) -> Reconstruction:
    _, target_unitary = resolve_target(cfg.target_spec())
    return build_reconstruction(target_unitary, boot)


def _reconstruction_json(cfg, boot, rec: Reconstruction) -> dict:
    mat_lo, mat_hi = percentile_ci(boot.unital)
    payload = {
        "config_hash": cfg.config_hash(),
        "overlaps": {
            "values": [float(a) for a in rec.overlaps.values],
            "ci_low": [float(x) for x in rec.overlaps.ci_low],
            "ci_high": [float(x) for x in rec.overlaps.ci_high],
        },
        "e_prime": superop_to_list(rec.unital),
        "e_prime_ci_low": superop_to_list(mat_lo),
        "e_prime_ci_high": superop_to_list(mat_hi),
        "corrected_left": None,
        "corrected_right": None,
        "fidelity": rec.fidelity,
    }
    if rec.null_unital is not None:
        payload["null_e_prime"] = superop_to_list(rec.null_unital)
        payload["corrected_left"] = superop_to_list(rec.corrected_left)
        payload["corrected_right"] = superop_to_list(rec.corrected_right)
    return payload


def _witness_json(cfg, datasets, null_datasets, reference, qpt) -> dict:
    wcfg = cfg.raw.get("witness", {"enabled": True, "variants": ["raw"]})
    replications = cfg.raw["bootstrap"]["replications"]
    payload = {"config_hash": cfg.config_hash(), "rbt": {}, "qpt": None}
    variants = [v for v in wcfg.get("variants", ["raw"]) if v == "raw" or null_datasets]
    if variants:
        # Null halves are split, fit and resampled only for corrected variants.
        needs_null = any(v != "raw" for v in variants)
        halves = split_half_bootstrap(
            datasets,
            reference,
            replications=replications,
            seed=cfg.seed,
            null_datasets=null_datasets if needs_null else None,
        )
        for variant in variants:
            report = rbt_witness_report(halves, variant=variant)
            payload["rbt"][variant] = _witness_payload(report)
    if qpt is not None:
        report = qpt_witness_report(
            qpt,
            cfg.raw["qpt"]["assumed_assignment_fidelity"],
            replications=replications,
            seed=cfg.seed,
        )
        payload["qpt"] = _witness_payload(report)
    return payload


def _decay_curves_csv(path: Path, labeled_fits, reference: DecayDataset) -> None:
    """Plot-ready decay curves: measured per-length means next to the fitted
    model value, one file for all overlap experiments plus the reference."""
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("role", "j", "n", "measured", "model"))
        ref_means = reference.means()
        for role, j, ds, fit in labeled_fits:
            means = ds.means()
            for n in ds.lengths():
                model = fit.offset if math.isinf(n) else fit.scale * fit.rate ** n + fit.offset
                writer.writerow(
                    (role, j, _format_length(n), repr(float(means[n])), repr(float(model)))
                )
        first_fit = labeled_fits[0][3]
        for n in reference.lengths():
            model = (
                first_fit.offset
                if math.isinf(n)
                else first_fit.scale * first_fit.ref_rate ** n + first_fit.offset
            )
            writer.writerow(
                ("reference", "", _format_length(n), repr(float(ref_means[n])), repr(float(model)))
            )


def _labeled_fits(cfg, datasets, null_datasets, fits, null_fits):
    name, _ = resolve_target(cfg.target_spec())
    out = [(name, j, datasets[j], fits[j - 1]) for j in sorted(datasets)]
    if null_datasets:
        out.extend(
            ("null", j, null_datasets[j], null_fits[j - 1]) for j in sorted(null_datasets)
        )
    return out


def _hinton_csv(path: Path, e_prime: np.ndarray) -> None:
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("row", "col", "magnitude", "sign", "accessible"))
        for rec in hinton_records(e_prime):
            writer.writerow(
                (
                    rec["row"],
                    rec["col"],
                    repr(rec["magnitude"]),
                    rec["sign"],
                    int(rec["accessible"]),
                )
            )


def _fig5_csv(path: Path, witness_payload: dict, target_name: str) -> None:
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("method", "gate", "expectation", "ci_low", "ci_high"))
        for variant, rep in witness_payload["rbt"].items():
            writer.writerow(
                (
                    f"rbt-{variant}",
                    target_name,
                    repr(rep["expectation"]),
                    repr(rep["ci"][0]),
                    repr(rep["ci"][1]),
                )
            )
        if witness_payload["qpt"] is not None:
            rep = witness_payload["qpt"]
            writer.writerow(
                ("qpt", target_name, repr(rep["expectation"]), repr(rep["ci"][0]), repr(rep["ci"][1]))
            )


# ---------------------------------------------------------------------------
# Commands


def _simulate_all(cfg: RunConfig):
    exp = simulate_experiment(
        cfg.target_spec(),
        cfg.noise_model(),
        cfg.spam_model(),
        shots=cfg.raw["shots"],
        bin_size=cfg.raw["bin_size"],
        seed=cfg.seed,
        lengths=cfg.lengths(),
        repeats=cfg.repeats(),
    )
    qpt = None
    if cfg.raw["qpt"]["enabled"] and exp.target_unitary is not None:
        qpt = sample_qpt_dataset(
            exp.applied_target_channel(),
            assignment_fidelity=cfg.spam_model().assignment_fidelity,
            shots=cfg.raw["shots"],
            bin_size=cfg.raw["bin_size"],
            seed=cfg.seed,
            label="qpt",
        )
    return exp, qpt


def cmd_gen_sequences(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    path = out / "sequences.json"
    written.append(path)
    _write_json(
        path,
        {
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "datasets": _sequence_records(cfg),
        },
    )


def cmd_simulate(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    exp, qpt = _simulate_all(cfg)
    path = out / "dataset.csv"
    written.append(path)
    _write_dataset_csv(path, exp, qpt)


def cmd_fit(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    datasets, null_datasets, reference, _ = _read_dataset_csv(
        stage_in / "dataset.csv", cfg
    )
    fits, null_fits, boot = _compute_fits(cfg, datasets, null_datasets, reference)
    path = out / "fits.json"
    written.append(path)
    _write_json(path, _fits_json(cfg, fits, null_fits, boot))
    curves = out / "decay_curves.csv"
    written.append(curves)
    _decay_curves_csv(curves, _labeled_fits(cfg, datasets, null_datasets, fits, null_fits), reference)


def cmd_reconstruct(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    datasets, null_datasets, reference, _ = _read_dataset_csv(
        stage_in / "dataset.csv", cfg
    )
    fits, null_fits, boot = _compute_fits(cfg, datasets, null_datasets, reference)
    payload = _reconstruction_json(cfg, boot, _reconstruction(cfg, boot))
    rec_path = out / "reconstruction.json"
    written.append(rec_path)
    _write_json(rec_path, payload)
    hin_path = out / "hinton.csv"
    written.append(hin_path)
    _hinton_csv(hin_path, np.array(payload["e_prime"]).reshape(4, 4))


def cmd_witness(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    datasets, null_datasets, reference, qpt = _read_dataset_csv(
        stage_in / "dataset.csv", cfg
    )
    payload = _witness_json(cfg, datasets, null_datasets, reference, qpt)
    path = out / "witness.json"
    written.append(path)
    _write_json(path, payload)
    fig5 = out / "negativity.csv"
    written.append(fig5)
    name, _ = resolve_target(cfg.target_spec())
    _fig5_csv(fig5, payload, name)


def cmd_pipeline(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    cmd_gen_sequences(cfg, out, stage_in, written)
    exp, qpt = _simulate_all(cfg)
    ds_path = out / "dataset.csv"
    written.append(ds_path)
    _write_dataset_csv(ds_path, exp, qpt)

    fits, null_fits, boot = _compute_fits(
        cfg, exp.datasets, exp.null_datasets, exp.reference
    )
    fits_path = out / "fits.json"
    written.append(fits_path)
    _write_json(fits_path, _fits_json(cfg, fits, null_fits, boot))
    curves_path = out / "decay_curves.csv"
    written.append(curves_path)
    _decay_curves_csv(
        curves_path,
        _labeled_fits(cfg, exp.datasets, exp.null_datasets, fits, null_fits),
        exp.reference,
    )

    rec = _reconstruction(cfg, boot)
    rec_payload = _reconstruction_json(cfg, boot, rec)
    rec_path = out / "reconstruction.json"
    written.append(rec_path)
    _write_json(rec_path, rec_payload)
    hin_path = out / "hinton.csv"
    written.append(hin_path)
    _hinton_csv(hin_path, np.array(rec_payload["e_prime"]).reshape(4, 4))

    if cfg.raw.get("witness", {}).get("enabled", True):
        wit_payload = _witness_json(
            cfg, exp.datasets, exp.null_datasets, exp.reference, qpt
        )
        wit_path = out / "witness.json"
        written.append(wit_path)
        _write_json(wit_path, wit_payload)
        fig5 = out / "negativity.csv"
        written.append(fig5)
        _fig5_csv(fig5, wit_payload, exp.target_name)

    qpt_superop = None
    if qpt is not None:
        qpt_superop = qpt_point_estimate(
            qpt, cfg.raw["qpt"]["assumed_assignment_fidelity"]
        )
    summary = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "target": exp.target_name,
        "fidelity": summary_table(exp, boot, qpt_superop, rec),
    }
    sum_path = out / "summary.json"
    written.append(sum_path)
    _write_json(sum_path, summary)


def cmd_pulse_scan(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    from .groups import rotation_unitary
    from .pulses import (
        DuffingModel,
        RotationSpec,
        gaussian_envelope,
        phase_ramp,
        simulate_duffing,
        simulate_qubit,
        unitary_infidelity,
    )

    pcfg = cfg.raw["pulse_scan"]
    target_axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    angle = np.pi
    target_u = rotation_unitary(target_axis, angle)
    model = DuffingModel(
        levels=pcfg["levels"],
        anharmonicity=2 * np.pi * pcfg["anharmonicity_hz"],
    )
    duration = pcfg["duration"]
    rows = []
    for n in pcfg["sample_counts"]:
        dt = duration / n
        env = gaussian_envelope(duration / 4.0, dt, angle * float(np.hypot(*target_axis[:2])))
        for order in (1, 2):
            pulse = phase_ramp(env, dt, RotationSpec(axis=target_axis, angle=angle), order)
            infid = unitary_infidelity(simulate_qubit(pulse), target_u)
            rows.append(("qubit", dt, order, 0, infid, 0.0))
            for drag in (0, 1):
                superop, leakage = simulate_duffing(
                    pulse, model, drag=bool(drag), drag_coefficient=pcfg["drag_coefficient"]
                )
                infid_d = 1.0 - avg_fidelity(superop, target_u)
                rows.append(("duffing", dt, order, drag, infid_d, leakage))
    path = out / "pulse_scan.csv"
    written.append(path)
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("model", "dt", "order", "drag", "infidelity", "leakage"))
        for model_name, dt, order, drag, infid, leak in rows:
            writer.writerow((model_name, repr(dt), order, drag, repr(infid), repr(leak)))


COMMANDS = {
    "pipeline": cmd_pipeline,
    "gen-sequences": cmd_gen_sequences,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "reconstruct": cmd_reconstruct,
    "witness": cmd_witness,
    "pulse-scan": cmd_pulse_scan,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbtlab",
        description="Randomized benchmarking tomography simulation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", type=Path, default=Path("rbtlab-out"))
        p.add_argument(
            "--stage-input",
            type=Path,
            default=None,
            help="directory holding upstream artifacts (default: --out)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    written: list = []
    try:
        if args.config is not None:
            cfg = RunConfig.from_file(args.config)
        else:
            cfg = RunConfig.from_dict({})
        if args.seed is not None:
            data = dict(cfg.raw)
            data["seed"] = args.seed
            cfg = RunConfig.from_dict(data)
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
        stage_in = args.stage_input or out
        COMMANDS[args.command](cfg, out, stage_in, written)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        _cleanup(written)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        _cleanup(written)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        _cleanup(written)
        return 4
    for path in written:
        print(path)
    return 0


def _cleanup(written) -> None:
    for path in written:
        try:
            Path(path).unlink(missing_ok=True)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
