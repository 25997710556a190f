import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import rbtlab
from rbtlab import cli
from rbtlab.cli import DATASET_HEADER, main
from rbtlab.config import ConfigError, RunConfig
from rbtlab.fitting import RATE_BOUNDS
from rbtlab.pipeline import ExperimentBootstrap

TINY_CONFIG = {
    "version": 1,
    "seed": 11,
    "target": {"name": "hadamard"},
    "noise": {"kind": "depolarizing", "depolarizing": 0.97},
    "spam": {"assignment_fidelity": 0.95},
    "shots": 400,
    "bin_size": 100,
    "lengths": [1, 2],
    "repeats": {"1": 1, "inf": 1},
    "bootstrap": {"replications": 20, "samples_per_config": None},
    "qpt": {"enabled": True, "assumed_assignment_fidelity": 0.91},
    "witness": {"enabled": True, "variants": ["raw", "left", "right"]},
}

PIPELINE_FILES = [
    "sequences.json",
    "dataset.csv",
    "fits.json",
    "decay_curves.csv",
    "reconstruction.json",
    "hinton.csv",
    "witness.json",
    "negativity.csv",
    "summary.json",
]


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def rewrite_lines(path, edit):
    """Apply ``edit`` to the lines of a CRLF text file and write it back."""
    lines = edit(path.read_text().splitlines())
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())


def reference_dataset_csv(path, exp, qpt):
    """Row-at-a-time writer that defines the dataset.csv bytes: csv.writer
    rows of (role, j, n, tuple_id, bin_id, repr(mean))."""

    def rows(role, j_text, ds):
        for n in ds.lengths():
            grp = ds.groups[n]
            n_text = "inf" if math.isinf(n) else str(int(n))
            for r, row_id in enumerate(grp.row_ids):
                for b in range(grp.n_bins):
                    yield (role, j_text, n_text, row_id, str(b), repr(float(grp.bins[r, b])))

    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(DATASET_HEADER)
        for j in sorted(exp.datasets):
            writer.writerows(rows(exp.datasets[j].label, str(j), exp.datasets[j]))
        for j in sorted(exp.null_datasets or {}):
            writer.writerows(rows(exp.null_datasets[j].label, str(j), exp.null_datasets[j]))
        writer.writerows(rows("reference", "", exp.reference))
        if qpt is not None:
            for row in range(qpt.bins.shape[0]):
                for b in range(qpt.bins.shape[1]):
                    writer.writerow(("qpt", str(row), "1", f"row{row}", str(b), repr(float(qpt.bins[row, b]))))


def reference_sequences_json(cfg):
    """The text that defines the sequences.json bytes: json.dumps of the
    whole payload with indent=1 and sorted keys."""
    from rbtlab.pipeline import resolve_target
    from rbtlab.sequences import exhaustive_set

    _, unitary = resolve_target(cfg.target_spec())
    roles = [("target", range(1, 11))]
    if unitary is not None:
        roles.append(("null", range(1, 11)))
    roles.append(("reference", [1]))
    datasets = []
    for role, js in roles:
        for j in js:
            seqs = exhaustive_set(j, lengths=cfg.lengths(), repeats=cfg.repeats())
            sequences = [
                {
                    "n": "inf" if math.isinf(s.length) else str(int(s.length)),
                    "randomizers": list(s.randomizers),
                    "compiled": list(s.compiled),
                    "repeat": s.repeat,
                }
                for s in seqs.sequences
            ]
            datasets.append({"role": role, "j": j, "sequences": sequences})
    payload = {"config_hash": cfg.config_hash(), "seed": cfg.seed, "datasets": datasets}
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


@pytest.fixture
def tiny_experiment():
    return cli._simulate_all(RunConfig.from_dict(TINY_CONFIG))


class TestConfig:
    def test_defaults_are_valid_and_match_experiment_values(self):
        cfg = RunConfig.from_dict({})
        assert cfg.raw["shots"] == 10_000
        assert cfg.raw["bin_size"] == 100
        assert cfg.lengths() == (1, 2, 3)
        assert cfg.raw["bootstrap"]["replications"] == 2000

    def test_schema_rejects_unknown_field(self):
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.from_dict({"shotz": 10})
        assert "shotz" in str(excinfo.value)

    def test_schema_error_names_path(self):
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.from_dict({"noise": {"kind": "brownian"}})
        assert excinfo.value.path.startswith("$.noise")

    def test_indivisible_shots_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            RunConfig.from_dict({"shots": 150})

    def test_odd_bin_count_rejected_when_witness_enabled(self, tmp_path, capsys):
        # Three bins per row cannot be split into witness halves; the run
        # died in the witness stage with a ValueError and exit 1.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, shots=300)))
        out = tmp_path / "out"
        assert run_cli("pipeline", "--config", config, "--out", out) == 2
        assert "config error: $.bin_size: " in capsys.readouterr().err
        assert not out.exists()
        witness = {"enabled": False, "variants": ["raw", "left", "right"]}
        config.write_text(json.dumps(dict(TINY_CONFIG, shots=300, witness=witness)))
        assert run_cli("pipeline", "--config", config, "--out", out) == 0

    def test_hash_stable_under_key_order(self):
        a = RunConfig.from_dict({"seed": 3, "shots": 400})
        b = RunConfig.from_dict({"shots": 400, "seed": 3})
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize(
        "axis", [[0, 0, 0], [1e308, 1e308, 0]], ids=["zero", "overflowing"]
    )
    def test_axis_without_finite_length_rejected(self, tmp_path, capsys, axis):
        # Normalizing such an axis gave a NaN unitary, and the run died in
        # the binomial draws with exit 1 after writing sequences.json.
        config = tmp_path / "axis.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, target={"axis": axis, "angle": 1.0})))
        out = tmp_path / "out"
        assert run_cli("pipeline", "--config", config, "--out", out) == 2
        assert "$.target.axis: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"noise": {"kind": "depolarizing", "depolarizing": math.nan}}, "$.noise.depolarizing"),
            ({"target": {"axis": [1, 0, 0], "angle": math.nan}}, "$.target.angle"),
            ({"target": {"axis": [1, -math.inf, 0], "angle": 1.0}}, "$.target.axis[1]"),
        ],
        ids=["depolarizing-nan", "angle-nan", "axis-inf"],
    )
    def test_non_finite_number_rejected(self, data, path):
        # NaN passes the schema's minimum and maximum; the run then died in
        # the binomial draws with exit 1.
        with pytest.raises(ConfigError, match="is not a finite number") as excinfo:
            RunConfig.from_dict(data)
        assert excinfo.value.path == path

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_in_file_exits_2(self, tmp_path, capsys, constant):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(TINY_CONFIG).replace('"depolarizing": 0.97', f'"depolarizing": {constant}')
        )
        with pytest.raises(ConfigError, match=f"{constant} is not a JSON number"):
            RunConfig.from_file(config)
        out = tmp_path / "out"
        assert run_cli("pipeline", "--config", config, "--out", out) == 2
        assert "config error: " in capsys.readouterr().err
        assert not out.exists()

    def test_seed_bounded_to_exact_floats(self, tmp_path, capsys):
        # Seeds above 2**53 - 1 reached Philox through float64, so 2**53 and
        # 2**53 + 1 drew the same numbers.
        assert RunConfig.from_dict({"seed": 2**53 - 1}).seed == 2**53 - 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, seed=2**53)))
        out = tmp_path / "out"
        assert run_cli("gen-sequences", "--config", config, "--out", out) == 2
        assert "$.seed: " in capsys.readouterr().err
        config.write_text(json.dumps(TINY_CONFIG))
        assert run_cli("gen-sequences", "--config", config, "--seed", 2**53, "--out", out) == 2
        assert "$.seed: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, edit, path",
        [
            ("pipeline", {"shots": 400.0}, "$.shots"),
            ("pipeline", {"bin_size": 100.0}, "$.bin_size"),
            ("pipeline", {"bootstrap": {"replications": 20.0}}, "$.bootstrap.replications"),
            ("pipeline", {"bootstrap": {"replications": 20, "samples_per_config": 2.0}},
             "$.bootstrap.samples_per_config"),
            ("pulse-scan", {"pulse_scan": {"levels": 5.0}}, "$.pulse_scan.levels"),
            ("pipeline", {"seed": 11.0}, "$.seed"),
            ("pipeline", {"lengths": [1, 2.0]}, "$.lengths[1]"),
            ("pipeline", {"repeats": {"1": 1.0, "inf": 1}}, "$.repeats['1']"),
            ("pulse-scan", {"pulse_scan": {"sample_counts": [8.0, 16]}}, "$.pulse_scan.sample_counts[0]"),
        ],
        ids=["shots", "bin_size", "replications", "samples_per_config", "levels", "seed", "lengths",
             "repeats", "sample_counts"],
    )
    def test_integer_valued_float_rejected(self, tmp_path, capsys, command, edit, path):
        # JSON Schema's integer admits 400.0. The first five then crashed
        # with a TypeError and exit 1; the last four ran, through int().
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, **edit)))
        out = tmp_path / "out"
        assert run_cli(command, "--config", config, "--out", out) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("repeats", [{"1": 2, "01": 3}, {"0": 1}], ids=["leading-zero", "zero"])
    def test_repeat_key_spells_a_length(self, repeats):
        # "01" named length 1 too, and the later key silently won.
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.from_dict({"repeats": repeats})
        assert excinfo.value.path == "$.repeats"

    @pytest.mark.parametrize(
        "command, edit, path",
        [
            ("pipeline", {"qpt": {"assumed_assignment_fidelity": 0.5}}, "$.qpt.assumed_assignment_fidelity"),
            ("pipeline", {"qpt": {"assumed_assignment_fidelity": 0.5 + 2**-32}},
             "$.qpt.assumed_assignment_fidelity"),
            ("pulse-scan", {"pulse_scan": {"sample_counts": [8, 3]}}, "$.pulse_scan.sample_counts[1]"),
            ("pulse-scan", {"pulse_scan": {"sample_counts": [2]}}, "$.pulse_scan.sample_counts[0]"),
            ("pulse-scan", {"pulse_scan": {"anharmonicity_hz": 0}}, "$.pulse_scan.anharmonicity_hz"),
            ("pulse-scan", {"pulse_scan": {"anharmonicity_hz": 1e-300}}, "$.pulse_scan.anharmonicity_hz"),
        ],
        ids=["qpt-no-contrast", "qpt-almost-no-contrast", "three-samples", "two-samples",
             "no-anharmonicity", "tiny-anharmonicity"],
    )
    def test_setting_the_run_refuses_rejected(self, tmp_path, capsys, command, edit, path):
        # Each passed the schema and then raised with exit 1: linear-inversion
        # tomography refuses |2f - 1| < 1e-9, a pulse of fewer than 4 samples
        # is shorter than its 4-sigma envelope, and the DRAG correction
        # divides by the anharmonicity, so a tiny one overflows its phases.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, **edit)))
        out = tmp_path / "out"
        assert run_cli(command, "--config", config, "--out", out) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not out.exists()

    def test_no_contrast_allowed_with_qpt_off(self):
        qpt = {"enabled": False, "assumed_assignment_fidelity": 0.5}
        assert RunConfig.from_dict({"qpt": qpt}).raw["qpt"] == qpt

    def test_axis_angle_target_runs(self, tmp_path):
        # A given target replaces the default {"name": "hadamard"} whole;
        # merged into it, an axis/angle target failed the schema's oneOf.
        target = {"axis": [1, 2, 3], "angle": 1.1}
        config = tmp_path / "axis.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, target=target)))
        assert RunConfig.from_file(config).raw["target"] == target
        assert run_cli("pipeline", "--config", config, "--out", tmp_path / "out") == 0


class TestPipeline:
    def test_writes_all_artifacts(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("pipeline", "--config", tiny_config, "--out", out) == 0
        for name in PIPELINE_FILES:
            assert (out / name).exists(), name

    def test_same_seed_byte_identical(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("pipeline", "--config", tiny_config, "--out", out1) == 0
        assert run_cli("pipeline", "--config", tiny_config, "--out", out2) == 0
        for name in PIPELINE_FILES:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_override_changes_data(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("pipeline", "--config", tiny_config, "--out", out1) == 0
        assert (
            run_cli("pipeline", "--config", tiny_config, "--out", out2, "--seed", 99)
            == 0
        )
        assert (out1 / "dataset.csv").read_bytes() != (out2 / "dataset.csv").read_bytes()

    @pytest.mark.parametrize("bound", [None, 0.0], ids=["default-bound", "every-replication"])
    def test_reports_count_ill_conditioned_null_replications(
        self, tiny_config, tmp_path, monkeypatch, bound
    ):
        # reconstruction.json counts the main bootstrap's replications past
        # the null condition bound, and each corrected witness report those
        # of the second halves' bootstrap; a bound of 0 counts every one.
        from rbtlab import pipeline

        if bound is not None:
            monkeypatch.setattr(pipeline, "MAX_NULL_CONDITION", bound)
        out = tmp_path / "out"
        assert run_cli("pipeline", "--config", tiny_config, "--out", out) == 0
        want = 0 if bound is None else TINY_CONFIG["bootstrap"]["replications"]
        fidelity = json.loads((out / "reconstruction.json").read_text())["fidelity"]
        assert fidelity["null_ill_conditioned"] == want
        rbt = json.loads((out / "witness.json").read_text())["rbt"]
        assert [rbt[v].get("null_ill_conditioned") for v in ("raw", "left", "right")] == [None, want, want]

    def test_reports_embed_config_hash(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        run_cli("pipeline", "--config", tiny_config, "--out", out)
        cfg = RunConfig.from_dict(TINY_CONFIG)
        for name in ("fits.json", "reconstruction.json", "witness.json", "summary.json"):
            payload = json.loads((out / name).read_text())
            assert payload["config_hash"] == cfg.config_hash()

    def test_summary_contains_fidelity_table(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        run_cli("pipeline", "--config", tiny_config, "--out", out)
        summary = json.loads((out / "summary.json").read_text())
        table = summary["fidelity"]
        for key in ("rb_reference", "rbt_raw", "rbt_corrected_left", "rbt_corrected_right", "qpt"):
            assert key in table

    def test_fits_report_nonconverged_refits(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("pipeline", "--config", tiny_config, "--out", out) == 0
        payload = json.loads((out / "fits.json").read_text())
        for fit in payload["target"] + payload["null"]:
            assert fit["ci"]["nonconverged"] == 0

    def test_reconstruction_built_once(self, tiny_config, tmp_path, monkeypatch):
        from rbtlab import pipeline

        calls = []
        build = pipeline.build_reconstruction

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        # summary_table looks the builder up in pipeline, the commands in cli.
        monkeypatch.setattr(cli, "build_reconstruction", counted)
        monkeypatch.setattr(pipeline, "build_reconstruction", counted)
        out = tmp_path / "out"
        assert run_cli("pipeline", "--config", tiny_config, "--out", out) == 0
        assert len(calls) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary) == ["config_hash", "fidelity", "seed", "target"]
        assert sorted(summary["fidelity"]) == [
            "qpt",
            "rb_reference",
            "rbt_corrected_left",
            "rbt_corrected_right",
            "rbt_raw",
            "true_noisy_gate",
        ]


class TestOneMatrix:
    """The simulator and the staged reader hold an experiment's bins alike:
    one float64 matrix, rows in dataset.csv order, every length group a view
    of its rows."""

    DESIGNS = {
        "hadamard": {"target": {"name": "hadamard"}},
        "w": {"target": {"name": "w"}},
        "identity": {"target": {"name": "identity"}},
        # sequences.json keeps the listed order; dataset.csv sorts by length.
        "lengths-out-of-order": {"lengths": [2, 1], "repeats": {"1": 1, "2": 2, "inf": 1}},
    }

    @staticmethod
    def groups_in_file_order(exp):
        return [ds.groups[n] for ds in exp.decays.values() for n in ds.lengths()]

    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_simulated_groups_view_one_matrix_in_file_order(self, design):
        exp, _ = cli._simulate_all(RunConfig.from_dict(dict(TINY_CONFIG, **self.DESIGNS[design])))
        assert all(list(ds.groups) == [1, 2, math.inf] for ds in exp.decays.values())
        groups = self.groups_in_file_order(exp)
        matrix = groups[0].bins.base
        assert matrix is not None and matrix.dtype == np.float64
        assert matrix.shape[0] == sum(g.n_rows for g in groups)
        row = 0
        for grp in groups:
            assert grp.bins.base is matrix and np.shares_memory(grp.bins, matrix)
            assert grp.bins.ctypes.data == matrix[row].ctypes.data
            row += grp.n_rows

    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_simulated_matrix_is_the_readers(self, design, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, **self.DESIGNS[design])))
        cfg = RunConfig.from_file(config)
        assert run_cli("simulate", "--config", config, "--out", tmp_path) == 0
        exp = cli._simulate_all(cfg)[0]
        simulated = next(iter(exp.reference.groups.values())).bins.base
        read, _, _ = cli._read_dataset_csv(tmp_path / "dataset.csv", cfg)
        matrix = next(iter(read.reference.groups.values())).bins.base
        assert matrix[: simulated.shape[0]].tobytes() == simulated.tobytes()
        for key, ds in exp.decays.items():
            assert list(read.decays[key].groups) == list(ds.groups)
            for n, grp in ds.groups.items():
                assert read.decays[key].groups[n].row_ids == grp.row_ids


class TestStages:
    # A target with null data, one without, and one whose name is computed.
    TARGETS = [{"name": "hadamard"}, {"name": "identity"}, {"axis": [1, 2, 3], "angle": 1.1}]

    def test_staged_equals_fused(self, tmp_path):
        for k, target in enumerate(self.TARGETS):
            config = tmp_path / f"config-{k}.json"
            config.write_text(json.dumps(dict(TINY_CONFIG, target=target)))
            fused, staged = tmp_path / f"fused-{k}", tmp_path / f"staged-{k}"
            assert run_cli("pipeline", "--config", config, "--out", fused) == 0
            for command in ("gen-sequences", "simulate", "fit", "reconstruct", "witness"):
                assert run_cli(command, "--config", config, "--out", staged) == 0
            for name in set(PIPELINE_FILES) - {"summary.json"}:
                assert (fused / name).read_bytes() == (staged / name).read_bytes(), (target, name)

    def test_witness_disabled_writes_nothing(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, witness={"enabled": False})))
        fused, staged = tmp_path / "fused", tmp_path / "staged"
        assert run_cli("pipeline", "--config", config, "--out", fused) == 0
        assert run_cli("simulate", "--config", config, "--out", staged) == 0
        reads = []
        read_dataset_csv = cli._read_dataset_csv

        def counted_read(*args, **kwargs):
            reads.append(args)
            return read_dataset_csv(*args, **kwargs)

        monkeypatch.setattr(cli, "_read_dataset_csv", counted_read)
        assert run_cli("witness", "--config", config, "--out", staged) == 0
        assert reads == []
        witness_files = {"witness.json", "negativity.csv"}
        assert {p.name for p in fused.iterdir()} & witness_files == set()
        assert {p.name for p in staged.iterdir()} & witness_files == set()

    @pytest.mark.parametrize("command", ["pipeline", "gen-sequences", "simulate", "pulse-scan"])
    def test_stage_input_only_on_readers(self, command, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--config", tiny_config, "--out", out, "--stage-input", tmp_path)
        assert exc.value.code == 2
        assert "--stage-input" in capsys.readouterr().err
        assert not out.exists()

    def test_stage_input_flag(self, tiny_config, tmp_path):
        src = tmp_path / "src"
        run_cli("pipeline", "--config", tiny_config, "--out", src)
        dst = tmp_path / "dst"
        assert (
            run_cli("fit", "--config", tiny_config, "--out", dst, "--stage-input", src)
            == 0
        )
        assert (dst / "fits.json").read_bytes() == (src / "fits.json").read_bytes()

    def test_corrupted_dataset_names_row(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("simulate", "--config", tiny_config, "--out", out)
        path = out / "dataset.csv"
        lines = path.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",not-a-number"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("fit", "--config", tiny_config, "--out", out) == 2
        err = capsys.readouterr().err
        assert "dataset.csv:6" in err

    def test_missing_upstream_is_io_error(self, tiny_config, tmp_path):
        assert run_cli("fit", "--config", tiny_config, "--out", tmp_path / "empty") == 4

    # Tiny dataset.csv: line 1 is the header, then 4 bins per row, so row 1 is
    # lines 2-5 and row 2 is lines 6-9.
    @pytest.mark.parametrize(
        "edit, line",
        [
            (lambda lines: lines[:6] + lines[7:], 7),  # bin 1 of row 2 missing
            (lambda lines: lines[:2] + lines[3:], 3),  # bin 1 of row 1 missing
            (lambda lines: lines[:9] + lines[1:5] + lines[9:], 10),  # row 1 repeated
            (lambda lines: lines[:6] + [lines[7], lines[6]] + lines[8:], 7),  # bins swapped
        ],
        ids=["missing-bin-row-2", "missing-bin-row-1", "repeated-row", "swapped-bins"],
    )
    def test_malformed_bins_name_line(self, tiny_config, tmp_path, capsys, edit, line):
        out = tmp_path / "out"
        run_cli("simulate", "--config", tiny_config, "--out", out)
        path = out / "dataset.csv"
        lines = edit(path.read_text().splitlines())
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        assert run_cli("fit", "--config", tiny_config, "--out", out) == 2
        assert f"dataset.csv:{line}:" in capsys.readouterr().err
        assert not (out / "fits.json").exists()

    def test_bin_count_must_match_config(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("simulate", "--config", tiny_config, "--out", out)
        # 400 shots in bins of 100 read under an 800-shot configuration: the
        # first decay row already holds 4 bins where 8 are expected.
        wider = tmp_path / "wider.json"
        wider.write_text(json.dumps(dict(TINY_CONFIG, shots=800)))
        for command in ("fit", "witness"):
            assert run_cli(command, "--config", wider, "--out", out) == 2
            assert "dataset.csv:2:" in capsys.readouterr().err
        # The last tomography row loses its last bin; its first line is named.
        path = out / "dataset.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        assert run_cli("witness", "--config", tiny_config, "--out", out) == 2
        assert f"dataset.csv:{len(lines) - 3}:" in capsys.readouterr().err
        assert not (out / "witness.json").exists()

    def test_failed_pipeline_leaves_no_artifacts(self, tiny_config, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise cli.NumericalError("forced")

        monkeypatch.setattr(cli, "_compute_fits", fail)
        out = tmp_path / "out"
        assert run_cli("pipeline", "--config", tiny_config, "--out", out) == 3
        assert list(out.iterdir()) == []

    def test_unexpected_error_leaves_no_artifacts(self, tiny_config, tmp_path, monkeypatch):
        # Any other exception still propagates, after the cleanup.
        def fail(*args, **kwargs):
            raise RuntimeError("forced")

        monkeypatch.setattr(cli, "_compute_fits", fail)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="forced"):
            run_cli("pipeline", "--config", tiny_config, "--out", out)
        assert list(out.iterdir()) == []


class TestNumericalFailure:
    def test_ill_conditioned_null_estimate_exits_3(self, tmp_path, capsys):
        # Fully depolarizing noise leaves the null-operation estimate with
        # condition number 1.4e6; the witness correction refused to invert
        # it with an uncaught ChannelInversionError and exit 1.
        config = tmp_path / "config.json"
        noise = {"kind": "depolarizing", "depolarizing": 0.0}
        config.write_text(json.dumps(dict(TINY_CONFIG, noise=noise)))
        fused, staged = tmp_path / "fused", tmp_path / "staged"
        assert run_cli("pipeline", "--config", config, "--out", fused) == 3
        assert "numerical failure: null-operation estimate is ill-conditioned" in (
            capsys.readouterr().err
        )
        assert list(fused.iterdir()) == []
        assert run_cli("simulate", "--config", config, "--out", staged) == 0
        assert run_cli("witness", "--config", config, "--out", staged) == 3
        assert "ill-conditioned" in capsys.readouterr().err
        assert [p.name for p in staged.iterdir()] == ["dataset.csv"]

    @pytest.mark.parametrize(
        "label, command, message",
        [
            ("hadamard/overlap-3", "fit", "1 joint fits failed to converge"),
            ("hadamard/overlap-3/half1", "witness", "1 joint fits of the first halves failed"),
            ("null/overlap-2/half2", "witness", "1 joint fits of the second halves failed"),
        ],
        ids=["main", "half1", "null-half2"],
    )
    def test_nonconverged_point_fit_exits_3(
        self, tiny_config, tmp_path, capsys, monkeypatch, label, command, message
    ):
        # A split-half point fit that did not converge was scored as if it
        # had, and the witness stage exited 0.
        from rbtlab import pipeline

        joint_fits = pipeline.joint_fits

        def flagged(pairs):
            fits = joint_fits(pairs)
            return [
                dataclasses.replace(fit, converged=False) if overlap.label == label else fit
                for (overlap, _), fit in zip(pairs, fits)
            ]

        fused, staged = tmp_path / "fused", tmp_path / "staged"
        assert run_cli("simulate", "--config", tiny_config, "--out", staged) == 0
        monkeypatch.setattr(pipeline, "joint_fits", flagged)
        assert run_cli("pipeline", "--config", tiny_config, "--out", fused) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err
        assert list(fused.iterdir()) == []
        assert run_cli(command, "--config", tiny_config, "--out", staged) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err
        assert [p.name for p in staged.iterdir()] == ["dataset.csv"]

    def test_singular_bootstrap_null_estimate_exits_3(
        self, tiny_config, tmp_path, capsys, monkeypatch
    ):
        # A replication whose null rates all sit on the box edge -1/3 has a
        # zero null estimate; inverting it raised a bare LinAlgError, so the
        # run exited 1 with a traceback.
        boot = cli.experiment_bootstrap

        def edge_replication(*args, **kwargs):
            b = boot(*args, **kwargs)
            null_rates = b.null_rates.copy()
            null_rates[2] = RATE_BOUNDS[0]
            return ExperimentBootstrap(
                b.fits, b.null_fits, b.rates, null_rates, b.ref_rates,
                b.nonconverged, b.null_nonconverged,
            )

        monkeypatch.setattr(cli, "experiment_bootstrap", edge_replication)
        out = tmp_path / "out"
        assert run_cli("pipeline", "--config", tiny_config, "--out", out) == 3
        assert "numerical failure: null-operation estimate of bootstrap replication 2" in (
            capsys.readouterr().err
        )
        assert list(out.iterdir()) == []


class TestDatasetDesign:
    # Each edit leaves a well-formed dataset.csv whose design is not the one
    # the tiny Hadamard configuration implies.
    @pytest.mark.parametrize(
        "drop, message",
        [
            (
                lambda line: line.startswith("null/overlap-10,"),
                "dataset.csv:12770: row reference,,1,1 where the design has row "
                "null/overlap-10,10,1,1",
            ),
            (
                lambda line: line.startswith("null/"),
                "dataset.csv:6722: row reference,,1,1 where the design has row "
                "null/overlap-1,1,1,1",
            ),
            (
                lambda line: line.startswith("hadamard/overlap-3,3,1,5,"),
                "dataset.csv:1362: row hadamard/overlap-3,3,1,6 where the design has row "
                "hadamard/overlap-3,3,1,5",
            ),
            (
                lambda line: line.startswith("reference,,inf,"),
                "dataset.csv:14066: row qpt,0,1,row0 where the design has row "
                "reference,,inf,1",
            ),
            (
                lambda line: line.startswith("qpt,"),
                "dataset.csv: ends before row qpt,0,1,row0 of the design",
            ),
        ],
        ids=["null-overlap-10", "every-null-row", "one-sequence-row", "reference-inf", "qpt"],
    )
    def test_incomplete_design_exits_2(self, tiny_config, tmp_path, capsys, drop, message):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", tiny_config, "--out", out) == 0
        rewrite_lines(out / "dataset.csv", lambda lines: [x for x in lines if not drop(x)])
        for command in ("fit", "witness"):
            assert run_cli(command, "--config", tiny_config, "--out", out) == 2
            assert message in capsys.readouterr().err
        assert run_cli("reconstruct", "--config", tiny_config, "--out", out) == 2
        assert sorted(p.name for p in out.iterdir()) == ["dataset.csv"]

    def test_unexpected_dataset_exits_2(self, tiny_config, tmp_path, capsys):
        # A Hadamard dataset read under an identity target: its null rows are
        # not part of that design.
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", tiny_config, "--out", out) == 0
        rewrite_lines(
            out / "dataset.csv",
            lambda lines: [x.replace("hadamard/", "identity/", 1) for x in lines],
        )
        identity = tmp_path / "identity.json"
        identity.write_text(json.dumps(dict(TINY_CONFIG, target={"name": "identity"})))
        assert run_cli("fit", "--config", identity, "--out", out) == 2
        assert (
            "dataset.csv:6722: row null/overlap-1,1,1,1 where the design has row reference,,1,1"
            in capsys.readouterr().err
        )


@pytest.fixture
def fitted(tiny_config, tmp_path):
    """A stage directory after ``simulate`` and ``fit`` on the tiny config."""
    out = tmp_path / "fitted"
    assert run_cli("simulate", "--config", tiny_config, "--out", out) == 0
    assert run_cli("fit", "--config", tiny_config, "--out", out) == 0
    return out


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def rewrite_npz(path, edit):
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    edit(arrays)
    np.savez(path, **arrays)


class TestBootstrapNpz:
    def test_holds_fit_stage_results(self, fitted):
        fits = json.loads((fitted / "fits.json").read_text())
        with np.load(fitted / "bootstrap.npz", allow_pickle=False) as npz:
            assert str(npz["config_hash"]) == fits["config_hash"]
            assert npz["rates"].shape == npz["null_rates"].shape == (20, 10)
            for prefix, role in (("", "target"), ("null_", "null")):
                for field in cli.FIT_FIELDS:
                    want = [fit[field] for fit in fits[role]]
                    assert npz[f"{prefix}fit_{field}"].tolist() == want
                counts = [fit["ci"]["nonconverged"] for fit in fits[role]]
                assert npz[f"{prefix}nonconverged"].tolist() == counts

    def test_reconstruct_reuses_fit(self, tiny_config, fitted, monkeypatch):
        reads, boots = [], []
        read, boot = cli._read_dataset_csv, cli.experiment_bootstrap

        def counted_read(*args, **kwargs):
            reads.append(args)
            return read(*args, **kwargs)

        def counted_boot(*args, **kwargs):
            boots.append(args)
            return boot(*args, **kwargs)

        monkeypatch.setattr(cli, "_read_dataset_csv", counted_read)
        monkeypatch.setattr(cli, "experiment_bootstrap", counted_boot)
        assert run_cli("reconstruct", "--config", tiny_config, "--out", fitted) == 0
        assert (reads, boots) == ([], [])
        assert run_cli("fit", "--config", tiny_config, "--out", fitted) == 0
        assert (len(reads), len(boots)) == (1, 1)

    def test_missing_file_says_run_fit(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", tiny_config, "--out", out) == 0
        assert run_cli("reconstruct", "--config", tiny_config, "--out", out) == 2
        assert "bootstrap.npz: missing; run `fit` first" in capsys.readouterr().err
        assert not (out / "reconstruction.json").exists()

    def test_failed_fit_leaves_no_bootstrap(self, tiny_config, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise cli.NumericalError("forced")

        out = tmp_path / "out"
        assert run_cli("simulate", "--config", tiny_config, "--out", out) == 0
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_compute_fits", fail)
            assert run_cli("fit", "--config", tiny_config, "--out", out) == 3
        assert run_cli("reconstruct", "--config", tiny_config, "--out", out) == 2
        assert "run `fit` first" in capsys.readouterr().err

    def test_config_mismatch_names_hash(self, tiny_config, fitted, capsys):
        assert run_cli("reconstruct", "--config", tiny_config, "--out", fitted, "--seed", 12) == 2
        assert "bootstrap.npz:config_hash: " in capsys.readouterr().err

    def test_dataset_mismatch_names_hash(self, tiny_config, fitted, capsys):
        # One bin mean of the reference changes; the file stays well formed.
        def edit(lines):
            row = next(k for k, x in enumerate(lines) if x.startswith("reference,"))
            head, mean = lines[row].rsplit(",", 1)
            lines[row] = f"{head},{0.25 if mean != '0.25' else 0.75}"
            return lines

        rewrite_lines(fitted / "dataset.csv", edit)
        assert run_cli("reconstruct", "--config", tiny_config, "--out", fitted) == 2
        assert "bootstrap.npz:dataset_sha256: " in capsys.readouterr().err
        assert not (fitted / "reconstruction.json").exists()

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda a: a.update(rates=a["rates"][:-1]), "rates"),
            (lambda a: a.update(null_rates=a["null_rates"][:, :9]), "null_rates"),
            (lambda a: a.update(fit_converged=a["fit_converged"].astype(int)), "fit_converged"),
            (lambda a: a.pop("ref_rates"), "ref_rates"),
            (lambda a: a.pop("null_nonconverged"), "null_nonconverged"),
            (lambda a: a.update(extra=np.zeros(3)), "extra"),
        ],
        ids=["short-rates", "narrow-null-rates", "int-converged", "no-ref-rates",
             "no-null-nonconverged", "extra-array"],
    )
    def test_bad_array_named(self, tiny_config, fitted, capsys, edit, field):
        rewrite_npz(fitted / "bootstrap.npz", edit)
        assert run_cli("reconstruct", "--config", tiny_config, "--out", fitted) == 2
        assert f"bootstrap.npz:{field}: " in capsys.readouterr().err

    def test_null_arrays_only_with_null_data(self, tmp_path, capsys):
        # An identity target has no null data, so its file has no null arrays
        # and a file that carries them is refused.
        config = tmp_path / "identity.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, target={"name": "identity"})))
        out = tmp_path / "out"
        for command in ("simulate", "fit", "reconstruct"):
            assert run_cli(command, "--config", config, "--out", out) == 0
        with np.load(out / "bootstrap.npz", allow_pickle=False) as npz:
            assert not [name for name in npz.files if name.startswith("null_")]
        rewrite_npz(out / "bootstrap.npz", lambda a: a.update(null_rates=a["rates"]))
        assert run_cli("reconstruct", "--config", config, "--out", out) == 2
        assert "bootstrap.npz:null_rates: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: path.write_bytes(b"not a zip archive\n"),
            lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
            lambda path: path.write_bytes(npy_bytes(np.zeros(3))),
            lambda path: np.savez(path, rates=np.array([None], dtype=object)),
        ],
        ids=["text", "truncated", "npy", "object-array"],
    )
    def test_unreadable_file_exits_2(self, tiny_config, fitted, capsys, damage):
        damage(fitted / "bootstrap.npz")
        assert run_cli("reconstruct", "--config", tiny_config, "--out", fitted) == 2
        assert "bootstrap.npz: unreadable" in capsys.readouterr().err

    def test_staged_same_seed_byte_identical(self, tiny_config, tmp_path):
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            for command in ("gen-sequences", "simulate", "fit", "reconstruct", "witness"):
                assert run_cli(command, "--config", tiny_config, "--out", out) == 0
        names = sorted(p.name for p in runs[0].iterdir())
        assert "bootstrap.npz" in names
        assert names == sorted(p.name for p in runs[1].iterdir())
        for name in names:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
        # Member timestamps are fixed, so the bytes do not depend on the clock.
        with zipfile.ZipFile(runs[0] / "bootstrap.npz") as zf:
            assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}


class TestWitnessStage:
    @pytest.mark.parametrize(
        "variants, n_resamples, n_fits",
        [(["raw", "left", "right"], 21, 40), (["raw"], 11, 20)],
        ids=["raw-left-right", "raw-only"],
    )
    def test_halves_resampled_and_fit_once(
        self, tmp_path, monkeypatch, variants, n_resamples, n_fits
    ):
        # Second halves are resampled once (reference, target and, for the
        # corrected variants, null overlaps) and every half is fit once,
        # however many variants are scored.
        from rbtlab import pipeline

        config = tmp_path / "config.json"
        witness = {"enabled": True, "variants": variants}
        config.write_text(json.dumps(dict(TINY_CONFIG, witness=witness)))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", config, "--out", out) == 0
        resamples, fits = [], []
        resampled_means, joint_fits = pipeline.resampled_means, pipeline.joint_fits

        def counted_resample(ds, *args, **kwargs):
            resamples.append((ds.label, *args, *sorted(kwargs.items())))
            return resampled_means(ds, *args, **kwargs)

        def counted_fits(pairs):
            fits.extend((overlap.label, reference.label) for overlap, reference in pairs)
            return joint_fits(pairs)

        monkeypatch.setattr(pipeline, "resampled_means", counted_resample)
        monkeypatch.setattr(pipeline, "joint_fits", counted_fits)
        assert run_cli("witness", "--config", config, "--out", out) == 0
        assert len(resamples) == len(set(resamples)) == n_resamples
        assert len(fits) == len(set(fits)) == n_fits
        touched = [key[0] for key in resamples] + [label for key in fits for label in key]
        assert any(label.startswith("null/") for label in touched) == (variants != ["raw"])


def assert_same_experiment(exp, qpt, read):
    """``read`` is ``_read_dataset_csv``'s result for a file written from
    ``(exp, qpt)``: the same datasets, row ids and bin bits."""
    exp_read, qpt_read, _ = read
    assert list(exp_read.decays) == list(exp.decays)
    for key, written in exp.decays.items():
        got = exp_read.decays[key]
        assert (got.label, got.basis_index) == (written.label, written.basis_index), key
        assert list(got.groups) == list(written.groups), key
        for n, grp in written.groups.items():
            assert got.groups[n].row_ids == grp.row_ids, (key, n)
            assert got.groups[n].bins.shape == grp.bins.shape, (key, n)
            assert got.groups[n].bins.tobytes() == grp.bins.tobytes(), (key, n)
    assert (qpt_read.bins.shape, qpt_read.bins.tobytes()) == (qpt.bins.shape, qpt.bins.tobytes())


def edit_mean(line, text):
    return line.rsplit(",", 1)[0] + "," + text


def edit_bin_id(line, text):
    head, _, mean = line.rsplit(",", 2)
    return f"{head},{text},{mean}"


# Corrupted files: an edit of the tiny dataset.csv's lines (header first; 4
# bins per row, so row 1 is lines 2-5) and the message the line-by-line
# reader gave for it.
CORRUPTED = {
    "header": (
        lambda ls: ["role,j,n,tuple,bin_id,mean"] + ls[1:],
        "dataset.csv:1: unexpected header ['role', 'j', 'n', 'tuple', 'bin_id', 'mean']",
    ),
    "two-fields": (
        lambda ls: ls[:5] + ["a,b"] + ls[6:],
        "dataset.csv:6: expected 6 fields, got 2",
    ),
    "extra-field": (
        lambda ls: ls[:1] + [line + ",x" for line in ls[1:5]] + ls[5:],
        "dataset.csv:2: expected 6 fields, got 7",
    ),
    "blank-line": (
        lambda ls: ls[:8] + [""] + ls[8:],
        "dataset.csv:6: 3 bins where shots // bin_size is 4",
    ),
    "lone-cr": (
        lambda ls: ls[:3] + [ls[3][:8] + "\r" + ls[3][8:]] + ls[4:],
        "dataset.csv:2: 2 bins where shots // bin_size is 4",
    ),
    "mean-text": (
        lambda ls: ls[:3] + [edit_mean(ls[3], "abc")] + ls[4:],
        "dataset.csv:4: could not convert string to float: 'abc'",
    ),
    "mean-range": (
        lambda ls: ls[:7] + [edit_mean(ls[7], "1.5")] + ls[8:],
        "dataset.csv:8: bin mean 1.5 outside [0, 1]",
    ),
    "mean-nan": (
        lambda ls: ls[:7] + [edit_mean(ls[7], "nan")] + ls[8:],
        "dataset.csv:8: bin mean nan outside [0, 1]",
    ),
    "mean-empty": (
        lambda ls: ls[:4] + [edit_mean(ls[4], "")] + ls[5:],
        "dataset.csv:5: could not convert string to float: ''",
    ),
    "bin-text": (
        lambda ls: ls[:2] + [edit_bin_id(ls[2], "x")] + ls[3:],
        "dataset.csv:3: invalid literal for int() with base 10: 'x'",
    ),
    "bin-skipped": (
        lambda ls: ls[:3] + [edit_bin_id(ls[3], "3")] + ls[4:],
        "dataset.csv:4: bin id 3 where 2 was expected",
    ),
    "length-text": (
        lambda ls: ls[:1] + [line.replace(",1,1,1,", ",1,two,1,") for line in ls[1:5]] + ls[5:],
        "dataset.csv:2: invalid literal for int() with base 10: 'two'",
    ),
    "adjacent-identical-rows": (
        lambda ls: ls[:5] + ls[1:5] + ls[5:],
        "dataset.csv:6: bin id 0 where 4 was expected",
    ),
    "repeated-row": (
        lambda ls: ls[:9] + ls[1:5] + ls[9:],
        "dataset.csv:10: row hadamard/overlap-1,1,1,1 where the design has row "
        "hadamard/overlap-1,1,1,3",
    ),
    "short-last-row": (
        lambda ls: ls[:-1],
        "dataset.csv:14158: 3 bins where shots // bin_size is 4",
    ),
    "qpt-row": (
        lambda ls: ls[:-4] + [line.replace(",row11,", ",row9,") for line in ls[-4:]],
        "dataset.csv:14158: row qpt,11,1,row9 where the design has row qpt,11,1,row11",
    ),
    "quoted-comma": (
        lambda ls: ls[:1] + ['"a,b"' + line[line.index(",") :] for line in ls[1:5]] + ls[5:],
        'dataset.csv:2: row "a,b",1,1,1 where the design has row hadamard/overlap-1,1,1,1',
    ),
    "swapped-rows": (
        lambda ls: ls[:1] + ls[5:9] + ls[1:5] + ls[9:],
        "dataset.csv:2: row hadamard/overlap-1,1,1,2 where the design has row "
        "hadamard/overlap-1,1,1,1",
    ),
    "extra-bin": (
        lambda ls: ls[:5] + [edit_bin_id(ls[4], "4")] + ls[5:],
        "dataset.csv:2: 5 bins where shots // bin_size is 4",
    ),
    # The same edit past the first default block (the row of lines
    # 9998-10001), so the line-by-line reading starts after accepted blocks.
    "extra-bin-later-block": (
        lambda ls: ls[:10001] + [edit_bin_id(ls[10000], "4")] + ls[10001:],
        "dataset.csv:9998: 5 bins where shots // bin_size is 4",
    ),
    "extra-row": (
        lambda ls: ls + [f"qpt,12,1,row12,{b},0.5" for b in range(4)],
        "dataset.csv:14162: row qpt,12,1,row12 where the design ends",
    ),
    "foreign-tuple-id": (
        lambda ls: ls[:1] + [line.replace(",1,1,1,", ",1,1,foo,") for line in ls[1:5]] + ls[5:],
        "dataset.csv:2: row hadamard/overlap-1,1,1,foo where the design has row "
        "hadamard/overlap-1,1,1,1",
    ),
}


class TestDatasetCsv:
    @pytest.mark.parametrize(
        "target",
        [
            {"name": "hadamard"},
            {"name": "w"},
            {"name": "identity"},
            {"axis": [1, 2, 3], "angle": 1.1},
        ],
        ids=["hadamard", "w", "identity", "axis-angle"],
    )
    def test_prefixes_match_csv_module(self, target, tmp_path):
        # The writer joins each row's fields with commas, which equals the csv
        # module's formatting only while no field needs quoting.
        exp, qpt = cli._simulate_all(RunConfig.from_dict(dict(TINY_CONFIG, target=target)))
        cli._write_dataset_csv(tmp_path / "joined.csv", exp, qpt)
        reference_dataset_csv(tmp_path / "reference.csv", exp, qpt)
        data = (tmp_path / "joined.csv").read_bytes()
        assert data == (tmp_path / "reference.csv").read_bytes()
        assert b'"' not in data

    def test_writer_matches_reference_bytes(self, tiny_experiment, tmp_path):
        exp, qpt = tiny_experiment
        # Means that are not multiples of 1/bin_size exercise repr.
        exp.reference.groups[1].bins[0, :3] = [0.1 + 0.2, 1 / 3, 2 / 3]
        qpt.bins[0, 0] = 1 / 7
        cli._write_dataset_csv(tmp_path / "fast.csv", exp, qpt)
        reference_dataset_csv(tmp_path / "reference.csv", exp, qpt)
        data = (tmp_path / "fast.csv").read_bytes()
        assert data == (tmp_path / "reference.csv").read_bytes()
        assert b",0.30000000000000004\r\n" in data

    @pytest.mark.parametrize("line_end", [b"\r\n", b"\n"], ids=["crlf", "lf"])
    def test_round_trip(self, tiny_experiment, tmp_path, line_end):
        exp, qpt = tiny_experiment
        exp.datasets[2].groups[2].bins[3, 1] = 1 / 3
        path = tmp_path / "dataset.csv"
        cli._write_dataset_csv(path, exp, qpt)
        path.write_bytes(path.read_bytes().replace(b"\r\n", line_end))
        exp_read, qpt_read, _ = cli._read_dataset_csv(path, RunConfig.from_dict(TINY_CONFIG))
        pairs = [(exp.reference, exp_read.reference)]
        pairs += [(exp.datasets[j], exp_read.datasets[j]) for j in exp.datasets]
        pairs += [(exp.null_datasets[j], exp_read.null_datasets[j]) for j in exp.null_datasets]
        assert len(exp_read.datasets) == len(exp_read.null_datasets) == 10
        assert list(exp_read.decays) == list(exp.decays)
        for key, written in exp.decays.items():
            read = exp_read.decays[key]
            assert (read.label, read.basis_index) == (written.label, written.basis_index), key
        for written, read in pairs:
            assert written.label == read.label
            assert written.groups.keys() == read.groups.keys()
            for n, grp in written.groups.items():
                assert read.groups[n].row_ids == grp.row_ids
                assert np.array_equal(read.groups[n].bins, grp.bins)
        assert np.array_equal(qpt_read.bins, qpt.bins)

    def test_signed_zeros_keep_their_repr(self, tiny_experiment, tmp_path, monkeypatch):
        # -0.0 == 0.0 and the two hash alike, so a table of means keyed by
        # value would spell both alike; each must keep its repr and sign bit.
        exp, qpt = tiny_experiment
        ref, other = exp.reference.groups[1], exp.datasets[1].groups[2]
        ref.bins[0, :2] = [-0.0, 0.0]
        other.bins[0, :2] = [0.0, -0.0]
        path = tmp_path / "dataset.csv"
        cli._write_dataset_csv(path, exp, qpt)
        reference_dataset_csv(tmp_path / "reference.csv", exp, qpt)
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
        lines = path.read_text().splitlines()
        for prefix, texts in (
            (f"reference,,1,{ref.row_ids[0]}", ("-0.0", "0.0")),
            (f"hadamard/overlap-1,1,2,{other.row_ids[0]}", ("0.0", "-0.0")),
        ):
            k = lines.index(f"{prefix},0,{texts[0]}")
            assert lines[k + 1] == f"{prefix},1,{texts[1]}"
        monkeypatch.setattr(cli, "_text_rows", None)  # the block path reads it all
        assert_same_experiment(exp, qpt, cli._read_dataset_csv(path, RunConfig.from_dict(TINY_CONFIG)))

    # The block reader gives what the line-by-line reading gives: the same
    # Experiment and QPT bins, or the same error.

    @pytest.fixture
    def written(self, tiny_experiment, tmp_path):
        exp, qpt = tiny_experiment
        # Means that are not multiples of 1/bin_size have long reprs.
        exp.reference.groups[1].bins[0, :3] = [0.1 + 0.2, 1 / 3, 2 / 3]
        exp.datasets[2].groups[2].bins[3, 1] = 5e-324
        qpt.bins[0, 0] = 1 / 7
        path = tmp_path / "dataset.csv"
        cli._write_dataset_csv(path, exp, qpt)
        return exp, qpt, path

    @pytest.mark.parametrize("block_bytes", [None, 50], ids=["default-blocks", "rows-straddle"])
    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda data: data,
            lambda data: data.replace(b"\r\n", b"\n"),
            lambda data: data[:-2],
            lambda data: data.replace(b"\r\n", b"\n")[:-1],
        ],
        ids=["crlf", "lf", "crlf-no-final-newline", "lf-no-final-newline"],
    )
    def test_writer_output_read_in_blocks(self, written, monkeypatch, block_bytes, rewrite):
        exp, qpt, path = written
        path.write_bytes(rewrite(path.read_bytes()))
        if block_bytes:
            # A tiny row is four lines of about 30 bytes, so every row
            # spans two or more reads.
            monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
        def fail(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr(cli, "_text_rows", fail)
        read = cli._read_dataset_csv(path, RunConfig.from_dict(TINY_CONFIG))
        assert_same_experiment(exp, qpt, read)
        assert read[2] == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("block_bytes", [None, 50], ids=["default-blocks", "rows-straddle"])
    def test_non_canonical_spellings_read_line_by_line(self, written, monkeypatch, block_bytes):
        exp, qpt, path = written
        grp = exp.datasets[3].groups[1]
        grp.bins[5, :2] = 0.5
        cli._write_dataset_csv(path, exp, qpt)
        lines = path.read_text().splitlines()
        prefix = f"hadamard/overlap-3,3,1,{grp.row_ids[5]}"
        k = lines.index(f"{prefix},0,0.5")
        lines[k] = f"{prefix},00,5e-1"
        lines[k + 1] = edit_mean(lines[k + 1], "0.50")
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        if block_bytes:
            monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
        starts = []
        text_rows = cli._text_rows

        def counted(f, offset, first, where):
            starts.append(first)
            return text_rows(f, offset, first, where)

        monkeypatch.setattr(cli, "_text_rows", counted)
        read = cli._read_dataset_csv(path, RunConfig.from_dict(TINY_CONFIG))
        assert_same_experiment(exp, qpt, read)
        # Line-by-line reading starts at a row boundary at or before the edit.
        assert len(starts) == 1 and starts[0] <= k + 1 and (starts[0] - 2) % 4 == 0

    @pytest.mark.parametrize("block_bytes", [None, 50], ids=["default-blocks", "rows-straddle"])
    def test_late_hand_spelled_row_reads_as_unedited(
        self, written, monkeypatch, text_row_starts, block_bytes
    ):
        # Only the last line's bin id is spelled by hand, so line-by-line
        # reading starts deep in the file.
        _, _, path = written
        cfg = RunConfig.from_dict(TINY_CONFIG)
        if block_bytes:
            monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
        unedited = cli._read_dataset_csv(path, cfg)
        lines = path.read_text().splitlines()
        lines[-1] = edit_bin_id(lines[-1], "0" + lines[-1].rsplit(",", 2)[1])
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        read = cli._read_dataset_csv(path, cfg)
        assert_same_experiment(*unedited[:2], read)
        assert read[2] == hashlib.sha256(path.read_bytes()).hexdigest()
        # It starts at the last row of the last block accepted, past line 2.
        starts = text_row_starts
        assert len(starts) == 1 and starts[0] > 2 and (starts[0] - 2) % 4 == 0
        if block_bytes:
            assert starts[0] == len(lines) - 7  # the row before the edited one

    @pytest.mark.parametrize("header_end, line_end", [("\r", "\r\n"), ("\r", "\r")], ids=["header-cr", "all-cr"])
    def test_lone_cr_line_ends_read_as_unedited(self, written, text_row_starts, header_end, line_end):
        # The header check and the line-by-line reader both split lines as
        # csv does, so a header that ends in a lone CR (or a file of lone
        # CRs) reads like the file simulate wrote, from line 2 on.
        _, _, path = written
        cfg = RunConfig.from_dict(TINY_CONFIG)
        unedited = cli._read_dataset_csv(path, cfg)
        header, *rows = path.read_text().splitlines()
        path.write_bytes((header + header_end + "".join(row + line_end for row in rows)).encode())
        read = cli._read_dataset_csv(path, cfg)
        assert_same_experiment(*unedited[:2], read)
        assert read[2] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert text_row_starts == [2]

    @pytest.fixture
    def text_row_starts(self, monkeypatch):
        """The line numbers that line-by-line readings start at."""
        starts = []
        text_rows = cli._text_rows

        def counted(f, offset, first, where):
            starts.append(first)
            return text_rows(f, offset, first, where)

        monkeypatch.setattr(cli, "_text_rows", counted)
        return starts

    @pytest.mark.parametrize("header_end", ["\r\n", "\r"], ids=["late-row", "header-cr"])
    def test_line_by_line_reading_opens_the_file_once(
        self, written, monkeypatch, text_row_starts, header_end
    ):
        # The line-by-line reader goes on from the held row in the file the
        # block reader opened, instead of opening it again and decoding
        # every line before that row.
        _, _, path = written
        header, *lines = path.read_text().splitlines()
        lines[-1] = edit_bin_id(lines[-1], "0" + lines[-1].rsplit(",", 2)[1])
        path.write_bytes((header + header_end + "".join(line + "\r\n" for line in lines)).encode())
        opens = []
        path_open = Path.open

        def counted_open(self, *args, **kwargs):
            opens.append(self.name)
            return path_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counted_open)
        cli._read_dataset_csv(path, RunConfig.from_dict(TINY_CONFIG))
        assert len(text_row_starts) == 1
        assert opens == ["dataset.csv"]

    def test_more_distinct_means_than_a_bin_takes_read_line_by_line(self, written, text_row_starts):
        # A bin of bin_size shots takes bin_size + 1 values, so more distinct
        # mean texts than that are not the writer's output for this design.
        exp, qpt, path = written
        grp = exp.datasets[4].groups[2]
        assert grp.bins.size > 2 * TINY_CONFIG["bin_size"]
        grp.bins[:] = (np.arange(grp.bins.size).reshape(grp.bins.shape) + 0.5) / grp.bins.size
        cli._write_dataset_csv(path, exp, qpt)
        assert_same_experiment(exp, qpt, cli._read_dataset_csv(path, RunConfig.from_dict(TINY_CONFIG)))
        assert len(text_row_starts) == 1

    def test_texts_sharing_a_key_read_line_by_line(self, written, monkeypatch, text_row_starts):
        # With zero multipliers a mean text's key is its length, so texts of
        # one length, such as 0.47 and 0.51, share one; the rendering must
        # then fail the first block.
        exp, qpt, path = written
        monkeypatch.setattr(cli, "_KEY_MIX", np.zeros(3, np.uint64))
        assert_same_experiment(exp, qpt, cli._read_dataset_csv(path, RunConfig.from_dict(TINY_CONFIG)))
        assert text_row_starts == [2]

    @pytest.mark.parametrize("block_bytes", [None, 50], ids=["default-blocks", "rows-straddle"])
    @pytest.mark.parametrize("case", list(CORRUPTED))
    def test_corrupted_file_error(self, tiny_config, tmp_path, capsys, monkeypatch, case, block_bytes):
        edit, message = CORRUPTED[case]
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", tiny_config, "--out", out) == 0
        rewrite_lines(out / "dataset.csv", edit)
        if block_bytes:
            monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes, raising=False)
        assert run_cli("fit", "--config", tiny_config, "--out", out) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestSequencesJson:
    @pytest.mark.parametrize("target", ["hadamard", "w", "identity"])
    def test_writer_matches_reference_bytes(self, tmp_path, target):
        data = dict(TINY_CONFIG, target={"name": target})
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        assert run_cli("gen-sequences", "--config", config, "--out", tmp_path) == 0
        expected = reference_sequences_json(RunConfig.from_dict(data))
        assert (tmp_path / "sequences.json").read_bytes() == expected.encode()


class TestImports:
    def test_only_numpy_at_run_time(self, tmp_path):
        # scipy and jsonschema are test oracles only: importing them costs a
        # command about 0.25 s and 25 MiB, and 0.06 s and 5 MiB. So a run
        # loads no third-party package but numpy beyond what the bare
        # interpreter loads (site .pth files may load some into every one).
        # Modules without an import spec, such as the Cython runtime that
        # numpy's extensions register, are not packages and do not count.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, pulse_scan={"sample_counts": [8, 16]})))
        loaded = (
            "print(json.dumps(sorted({m.split('.')[0] for m, module in sys.modules.items()"
            " if getattr(module, '__spec__', None)} - set(sys.stdlib_module_names))))\n"
        )
        script = (
            "import json, sys\n"
            "from rbtlab.cli import main\n"
            "for command in ('pipeline', 'pulse-scan'):\n"
            "    assert main([command, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        )
        src = str(Path(rbtlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = [
            subprocess.run(
                [sys.executable, "-c", code + loaded, str(config), str(tmp_path / "out")],
                capture_output=True, text=True, env=env, timeout=600,
            )
            for code in ("import json, sys\n", script)
        ]
        for done in runs:
            assert done.returncode == 0, done.stderr
        bare, run = (set(json.loads(done.stdout.splitlines()[-1])) for done in runs)
        assert "scipy" not in run
        assert run - bare <= {"numpy", "rbtlab"}, run - bare


class TestTracedRun:
    # perfbench/tracer.py wraps rbtlab functions by the names their callers
    # look them up under, so a call that bypasses such a name drops out of
    # the benchmark's per-layer metrics without failing any run.
    COUNTS = {
        "sequences.exhaustive_set_calls": 84,
        "sampling.rows_sampled": 3528,
        "fitting.resampled_means_calls": 42,
        "pipeline.experiment_bootstrap_calls": 2,
        "reconstruction.calls": 21,
        "cli.dataset_csv_reads": 2,
    }

    def test_tracer_counts_the_staged_commands(self, tmp_path):
        # 21 sequence sets of 168 rows, built by gen-sequences, simulate, fit
        # and witness; fit and witness each read dataset.csv and run one
        # bootstrap of 21 resampled datasets.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG))
        script = (
            "import contextlib, io, json, sys\n"
            "import tracer as tracing\n"
            "import rbtlab.cli as cli\n"
            "traced = tracing.Tracer()\n"
            "tracing.install(traced)\n"
            "codes = []\n"
            "for command in ('gen-sequences', 'simulate', 'fit', 'reconstruct', 'witness'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(cli.main([command, '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
            "spans = [span[0] for span in traced.spans]\n"
            "qpt = spans.count('sampling.sample_qpt_dataset')\n"
            "print(json.dumps({'codes': codes, 'counts': traced.counts, 'qpt_spans': qpt}))\n"
        )
        root = Path(__file__).resolve().parents[1]
        src = str(Path(rbtlab.__file__).resolve().parents[1])
        path = [src, str(root / "perfbench"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-c", script, str(config), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["codes"] == [0] * 5
        assert {name: result["counts"].get(name) for name in self.COUNTS} == self.COUNTS
        # simulate draws the tomography rows once, through the wrapped name.
        assert result["qpt_spans"] == 1


class TestErrors:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"shots": "many"}))
        assert run_cli("pipeline", "--config", path, "--out", tmp_path / "o") == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert run_cli("pipeline", "--config", path, "--out", tmp_path / "o") == 2


class TestPulseScan:
    def test_scan_csv_structure(self, tmp_path):
        config = dict(TINY_CONFIG)
        config["pulse_scan"] = {
            "duration": 33.3e-9,
            "sample_counts": [8, 16, 32],
            "anharmonicity_hz": -200e6,
            "levels": 5,
            "drag_coefficient": -0.5,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("pulse-scan", "--config", path, "--out", out) == 0
        with (out / "pulse_scan.csv").open() as f:
            rows = list(csv.DictReader(f))
        assert {r["model"] for r in rows} == {"qubit", "duffing"}
        assert {r["order"] for r in rows} == {"1", "2"}
        qubit = {
            (float(r["dt"]), int(r["order"])): float(r["infidelity"])
            for r in rows
            if r["model"] == "qubit"
        }
        dts = sorted({dt for dt, _ in qubit})
        for dt in dts:
            assert qubit[(dt, 2)] < qubit[(dt, 1)]
        duffing = {
            (float(r["dt"]), int(r["order"]), int(r["drag"])): float(r["infidelity"])
            for r in rows
            if r["model"] == "duffing"
        }
        for dt in dts:
            assert duffing[(dt, 2, 1)] < duffing[(dt, 2, 0)]


class TestBytePin:
    """The bytes of the tiny config's artifacts: the nine fused ``pipeline``
    files, the ``bootstrap.npz`` of a staged ``fit`` on them and a small
    ``pulse-scan``; and the same fused files and ``bootstrap.npz`` for the
    identity target, which has no null data; and the W target's fused
    ``summary.json``.  The hashes were recorded with
    numpy 2.4.6 on x86-64 Linux; a change that alters artifact bytes on
    purpose updates them and names the changed artifacts."""

    SHA256 = {
        "sequences.json": "a43a8dd86421f3a6665e5c3120b71651e648b0574051539bdc6db4099cfe2625",
        "dataset.csv": "65f09b58ad83cde973e099ea057c556d193043dabbe9da995d1225053e8f4e1c",
        "fits.json": "390191453a88eeec88c1498c079ef53da47ab7da4d6de8cae25f70043df61da4",
        "decay_curves.csv": "4c3f06b785a902ef57b9ba814de7a362e628ff48cf9c91de6bb3046dcd1c0059",
        "reconstruction.json": "25ad715f8be76454920b2ac0a51846897602fcc1acc261b66f66ac0bb663144d",
        "hinton.csv": "fea20af0500db6398f2bf9d38b48cf06bdcc252f18e1cc19dd45fb4716feebc1",
        "witness.json": "e1b1148707e5954016d5c6002366cc341b2d2328b16d23ca229cc4671f1e48db",
        "negativity.csv": "61984aa4b405173844c40bae01abdaf12c4e22fdd34cd2430619612de5b48f82",
        "summary.json": "9b969aabeb800ab5df11a6109bb3b7938a564e1a693d1ad5566dc9f70ba62cb7",
        "bootstrap.npz": "3ec2e210e69dafdb449887eb9f2ce375ef106cac87904cfc6a40e13181b7bf50",
        "pulse_scan.csv": "641aa57714ac3e60dce3d78dfadcda2a00c677fb3e9cf78314577d22c32a3e05",
    }

    IDENTITY_SHA256 = {
        "sequences.json": "7f83970f17ac0d1f51ea52e1b22c08c85e3d5fe7f86b7bb9c58d97634f788f89",
        "dataset.csv": "1613613589b2f06199f0ef870899cf442313e47c28fc2130dc80f3690d862930",
        "fits.json": "a5b324b8c1f9dd5379a862744064cd6a84738c410e8e3eb726d06346f051d8fe",
        "decay_curves.csv": "32fc41966890bac6718b9b1f25b8ebf51298bbaa39f73f71d3e248204ec58dd9",
        "reconstruction.json": "54d81ad3fa0779c630e14a82700100007dcb6435de2fa677e66e54de51014325",
        "hinton.csv": "092ae10f61fa8ca6783147728d16756f54b57d49340f53e21f3e5f1e2033281c",
        "witness.json": "21ca7da52ea7c881c026594dcaf95a100c1fb56370f8623e02eea22c38d63f74",
        "negativity.csv": "4b8cd22a04b45cda9c59114076352c003d4cf5a6d2916d30024fb282fb49f4e3",
        "summary.json": "60f30b24f0468ba39290d7c963219b3d04989045688af667b280644cfb0fb389",
        "bootstrap.npz": "7a8fc1896b98a18706c9b91182c45d0e0bd1f8c70958e209516d192395e481ba",
    }

    # The W target's summary.json, the one artifact with a ``w_direct`` entry.
    W_SUMMARY_SHA256 = "73e57ba7ff915b92f75cd24c0cd14ebcf9497071625b166b530082e1a706c4cc"

    @staticmethod
    def fused_and_fit_hashes(config, tmp_path) -> dict:
        fused, staged = tmp_path / "fused", tmp_path / "staged"
        assert run_cli("pipeline", "--config", config, "--out", fused) == 0
        assert run_cli("fit", "--config", config, "--out", staged, "--stage-input", fused) == 0
        paths = [fused / name for name in PIPELINE_FILES] + [staged / "bootstrap.npz"]
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}

    def test_artifact_hashes(self, tiny_config, tmp_path):
        got = self.fused_and_fit_hashes(tiny_config, tmp_path)
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps(dict(TINY_CONFIG, pulse_scan={"sample_counts": [8, 16]})))
        assert run_cli("pulse-scan", "--config", scan, "--out", tmp_path / "staged") == 0
        got["pulse_scan.csv"] = hashlib.sha256(
            (tmp_path / "staged" / "pulse_scan.csv").read_bytes()
        ).hexdigest()
        assert got == self.SHA256, f"numpy {np.__version__}"

    def test_identity_artifact_hashes(self, tmp_path):
        config = tmp_path / "identity.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, target={"name": "identity"})))
        got = self.fused_and_fit_hashes(config, tmp_path)
        assert got == self.IDENTITY_SHA256, f"numpy {np.__version__}"

    def test_w_summary_hash(self, tmp_path):
        config = tmp_path / "w.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, target={"name": "w"})))
        assert run_cli("pipeline", "--config", config, "--out", tmp_path / "fused") == 0
        got = hashlib.sha256((tmp_path / "fused" / "summary.json").read_bytes()).hexdigest()
        assert got == self.W_SUMMARY_SHA256, f"numpy {np.__version__}"
