import csv
import json
import math

import numpy as np
import pytest

from rbtlab import cli
from rbtlab.cli import DATASET_HEADER, main
from rbtlab.config import ConfigError, RunConfig

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

    def test_hash_stable_under_key_order(self):
        a = RunConfig.from_dict({"seed": 3, "shots": 400})
        b = RunConfig.from_dict({"shots": 400, "seed": 3})
        assert a.config_hash() == b.config_hash()


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


class TestStages:
    def test_staged_equals_fused(self, tiny_config, tmp_path):
        fused = tmp_path / "fused"
        run_cli("pipeline", "--config", tiny_config, "--out", fused)
        staged = tmp_path / "staged"
        assert run_cli("gen-sequences", "--config", tiny_config, "--out", staged) == 0
        assert run_cli("simulate", "--config", tiny_config, "--out", staged) == 0
        assert run_cli("fit", "--config", tiny_config, "--out", staged) == 0
        assert run_cli("reconstruct", "--config", tiny_config, "--out", staged) == 0
        assert run_cli("witness", "--config", tiny_config, "--out", staged) == 0
        for name in (
            "sequences.json",
            "dataset.csv",
            "fits.json",
            "decay_curves.csv",
            "reconstruction.json",
            "hinton.csv",
            "witness.json",
        ):
            assert (fused / name).read_bytes() == (staged / name).read_bytes(), name

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
        resampled_means, joint_fit = pipeline.resampled_means, pipeline.joint_fit

        def counted_resample(ds, *args, **kwargs):
            resamples.append((ds.label, *args, *sorted(kwargs.items())))
            return resampled_means(ds, *args, **kwargs)

        def counted_fit(overlap, reference):
            fits.append((overlap.label, reference.label))
            return joint_fit(overlap, reference)

        monkeypatch.setattr(pipeline, "resampled_means", counted_resample)
        monkeypatch.setattr(pipeline, "joint_fit", counted_fit)
        assert run_cli("witness", "--config", config, "--out", out) == 0
        assert len(resamples) == len(set(resamples)) == n_resamples
        assert len(fits) == len(set(fits)) == n_fits
        touched = [key[0] for key in resamples] + [label for key in fits for label in key]
        assert any(label.startswith("null/") for label in touched) == (variants != ["raw"])


class TestDatasetCsv:
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
        datasets, null_datasets, reference, qpt_read = cli._read_dataset_csv(
            path, RunConfig.from_dict(TINY_CONFIG)
        )
        pairs = [(exp.reference, reference)]
        pairs += [(exp.datasets[j], datasets[j]) for j in exp.datasets]
        pairs += [(exp.null_datasets[j], null_datasets[j]) for j in exp.null_datasets]
        assert len(datasets) == len(null_datasets) == 10
        for written, read in pairs:
            assert written.label == read.label
            assert written.groups.keys() == read.groups.keys()
            for n, grp in written.groups.items():
                assert read.groups[n].row_ids == grp.row_ids
                assert np.array_equal(read.groups[n].bins, grp.bins)
        assert np.array_equal(qpt_read.bins, qpt.bins)


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
