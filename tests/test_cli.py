import csv
import json
import os

import numpy as np
import pytest

from fcrn.cli import main


def run(args):
    return main(list(args))


def sets(**kv):
    out = []
    for k, v in kv.items():
        out += ["--set", "%s=%s" % (k.replace("__", "."), json.dumps(v))]
    return out


def simulate_small(out_dir, n=60, missing_rate=0.0, functional=False, seed=0):
    code = run(["--set", "out_dir=%s" % json.dumps(str(out_dir)),
                "--set", "seed=%d" % seed,
                "--set", "simulate.n=%d" % n,
                "--set", "simulate.n_train=%d" % (n - n // 4),
                "--set", "simulate.n_test=%d" % (n // 4),
                "--set", "simulate.missing_rate=%g" % missing_rate,
                "--set", "simulate.functional=%s" % json.dumps(functional),
                "simulate"])
    assert code == 0


def train_args(out_dir, data_dir, functional=False, extra=()):
    args = ["--set", "out_dir=%s" % json.dumps(str(out_dir)),
            "--set", "data.subjects=%s" % json.dumps(
                str(data_dir / "train_subjects.csv")),
            "--set", "train.max_epochs=3",
            "--set", "train.use_functional=%s" % json.dumps(functional)]
    if functional:
        args += ["--set", "data.curves=%s" % json.dumps(
            str(data_dir / "train_curves.csv"))]
    args += list(extra)
    return args + ["train"]


class TestSimulateCommand:
    def test_writes_expected_files(self, tmp_path):
        simulate_small(tmp_path / "sim", functional=True)
        for name in ("train_subjects.csv", "test_subjects.csv",
                     "train_curves.csv", "test_curves.csv",
                     "manifest.json", "config.resolved.json"):
            assert (tmp_path / "sim" / name).exists()

    def test_tabular_only_skips_curve_files(self, tmp_path):
        simulate_small(tmp_path / "sim")
        assert not (tmp_path / "sim" / "train_curves.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        simulate_small(tmp_path / "a", missing_rate=0.25, seed=3)
        simulate_small(tmp_path / "b", missing_rate=0.25, seed=3)
        for name in ("train_subjects.csv", "test_subjects.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestTrainCommand:
    def test_full_round_and_determinism(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim", seed=1)
        assert run(train_args(tmp_path / "run1", tmp_path / "sim")) == 0
        out = capsys.readouterr().out
        assert "no missing values; MVI skipped" in out
        assert run(train_args(tmp_path / "run2", tmp_path / "sim")) == 0
        assert (tmp_path / "run1" / "model.json").read_bytes() == \
            (tmp_path / "run2" / "model.json").read_bytes()
        assert (tmp_path / "run1" / "training_log.csv").exists()

    def test_missing_data_trains_imputer(self, tmp_path):
        simulate_small(tmp_path / "sim", missing_rate=0.25, seed=2)
        code = run(train_args(tmp_path / "run", tmp_path / "sim",
                              extra=["--set", "mvi.max_epochs=3"]))
        assert code == 0
        imputed = np.loadtxt(tmp_path / "run" / "imputed.csv", delimiter=",")
        assert np.all(np.isfinite(imputed))
        assert (tmp_path / "run" / "imputed_mask.csv").exists()

    def test_missing_data_with_mvi_disabled_is_schema_error(self, tmp_path):
        simulate_small(tmp_path / "sim", missing_rate=0.25, seed=4)
        code = run(train_args(tmp_path / "run", tmp_path / "sim",
                              extra=["--set", "mvi.enabled=false"]))
        assert code == 3

    def test_missing_input_file_is_io_error(self, tmp_path):
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "o")),
                    "--set", "data.subjects=%s" % json.dumps(
                        str(tmp_path / "nope.csv")),
                    "train"])
        assert code == 2

    def test_malformed_csv_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,time,cause,x1\na,1.0,1,oops\n")
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "o")),
                    "--set", "data.subjects=%s" % json.dumps(str(bad)),
                    "train"])
        assert code == 3

    def test_time_beyond_grid_is_schema_error(self, tmp_path):
        bad = tmp_path / "far.csv"
        bad.write_text("id,time,cause,x1\na,500.0,1,0.5\n")
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "o")),
                    "--set", "data.subjects=%s" % json.dumps(str(bad)),
                    "train"])
        assert code == 3

    def test_basis_grid_search_logs_selection(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim", n=40, functional=True, seed=5)
        code = run(train_args(
            tmp_path / "run", tmp_path / "sim", functional=True,
            extra=["--set", "train.basis_grid_search=true",
                   "--set", "train.basis_grid=[2,3]",
                   "--set", "train.max_epochs=2"]))
        assert code == 0
        out = capsys.readouterr().out
        assert "basis count 2" in out and "basis count 3" in out
        assert "selected basis count" in out

    def test_basis_grid_search_with_missing_data(self, tmp_path, capsys):
        # the imputation path logs one row per epoch and holds out validation
        # subjects, so selection compares validation, not training, losses
        simulate_small(tmp_path / "sim", n=40, functional=True, missing_rate=0.2,
                       seed=5)
        code = run(train_args(
            tmp_path / "run", tmp_path / "sim", functional=True,
            extra=["--set", "train.basis_grid_search=true",
                   "--set", "train.basis_grid=[2,3]",
                   "--set", "mvi.max_epochs=2"]))
        assert code == 0
        assert "selected basis count" in capsys.readouterr().out
        with open(tmp_path / "run" / "training_log.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss"]
        assert [int(r[0]) for r in rows[1:]] == [0, 1]
        assert all(r[1] != r[2] for r in rows[1:])

    def test_header_only_subjects_is_schema_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("id,time,cause,x1,x2\n")
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "o")),
                    "--set", "data.subjects=%s" % json.dumps(str(empty)),
                    "train"])
        assert code == 3


class TestConfigErrors:
    def test_malformed_set_is_schema_error(self):
        assert run(["--set", "foo", "simulate"]) == 3

    def test_invalid_config_json_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1,')
        assert run(["--config", str(bad), "simulate"]) == 3

    def test_unknown_key_is_schema_error(self, tmp_path, capsys):
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "o")),
                    "--set", "train.lr_typo=0.1", "simulate"])
        assert code == 3
        assert "train.lr_typo" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestPredictCommand:
    def _train(self, tmp_path, head="csm"):
        simulate_small(tmp_path / "sim", seed=6)
        assert run(train_args(tmp_path / "run", tmp_path / "sim",
                              extra=["--set", "train.head=%s" % json.dumps(head)])) == 0
        return tmp_path / "run" / "model.json"

    def _predict(self, tmp_path, model, subjects, out="pred"):
        return run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / out)),
                    "--set", "data.subjects=%s" % json.dumps(str(subjects)),
                    "predict", "--model", str(model)])

    def test_csm_prediction_schema(self, tmp_path):
        model = self._train(tmp_path)
        subjects = tmp_path / "sim" / "test_subjects.csv"
        assert self._predict(tmp_path, model, subjects) == 0
        with open(tmp_path / "pred" / "predictions.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "interval", "time", "cif_1", "cif_2", "survival"]
        vals = np.array([[float(v) for v in r[3:]] for r in rows[1:]])
        assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-9)

    def test_sdm_prediction_schema(self, tmp_path):
        model = self._train(tmp_path, head="sdm")
        subjects = tmp_path / "sim" / "test_subjects.csv"
        assert self._predict(tmp_path, model, subjects) == 0
        with open(tmp_path / "pred" / "predictions.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "interval", "time", "cif_1"]

    def test_empty_dataset_writes_header_only(self, tmp_path):
        model = self._train(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("id,time,cause,x1,x2,x3,x4,x5,x6,x7,x8,x9,x10\n")
        assert self._predict(tmp_path, model, empty) == 0
        lines = (tmp_path / "pred" / "predictions.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_grid_incompatible_time_is_compat_error(self, tmp_path):
        model = self._train(tmp_path)
        far = tmp_path / "far.csv"
        far.write_text("id,time,cause," +
                       ",".join("x%d" % k for k in range(1, 11)) +
                       "\na,500.0,1," + ",".join(["0.1"] * 10) + "\n")
        assert self._predict(tmp_path, model, far) == 5

    def test_byte_identical_reruns(self, tmp_path):
        model = self._train(tmp_path)
        subjects = tmp_path / "sim" / "test_subjects.csv"
        assert self._predict(tmp_path, model, subjects, out="p1") == 0
        assert self._predict(tmp_path, model, subjects, out="p2") == 0
        assert (tmp_path / "p1" / "predictions.csv").read_bytes() == \
            (tmp_path / "p2" / "predictions.csv").read_bytes()


class TestEvaluateCommand:
    def _pipeline(self, tmp_path):
        simulate_small(tmp_path / "sim", seed=7)
        assert run(train_args(tmp_path / "run", tmp_path / "sim")) == 0
        subjects = tmp_path / "sim" / "test_subjects.csv"
        assert run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "pred")),
                    "--set", "data.subjects=%s" % json.dumps(str(subjects)),
                    "predict", "--model",
                    str(tmp_path / "run" / "model.json")]) == 0
        return subjects, tmp_path / "pred" / "predictions.csv"

    def test_scores_csv_schema_and_range(self, tmp_path):
        subjects, preds = self._pipeline(tmp_path)
        assert run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "eval")),
                    "--set", "data.subjects=%s" % json.dumps(str(subjects)),
                    "evaluate", "--predictions", str(preds)]) == 0
        with open(tmp_path / "eval" / "scores.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["horizon", "cause", "time", "bs", "cum_ibs"]
        bs = np.array([float(r[3]) for r in rows[1:]])
        assert np.all((bs >= 0.0) & (bs <= 1.0))

    def test_horizon_beyond_grid_is_compat_error(self, tmp_path):
        subjects, preds = self._pipeline(tmp_path)
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "eval")),
                    "--set", "data.subjects=%s" % json.dumps(str(subjects)),
                    "--set", "evaluate.horizons=[500]",
                    "evaluate", "--predictions", str(preds)])
        assert code == 5

    def test_subject_without_predictions_is_compat_error(self, tmp_path, capsys):
        subjects, preds = self._pipeline(tmp_path)
        lines = preds.read_text().splitlines(keepends=True)
        dropped = lines[1].split(",")[0]
        preds.write_text("".join(line for line in lines
                                 if line.split(",")[0] != dropped))
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "eval")),
                    "--set", "data.subjects=%s" % json.dumps(str(subjects)),
                    "evaluate", "--predictions", str(preds)])
        assert code == 5
        assert repr(dropped) in capsys.readouterr().err

    def test_header_only_subjects_is_schema_error(self, tmp_path):
        _, preds = self._pipeline(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("id,time,cause,x1\n")
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "eval")),
                    "--set", "data.subjects=%s" % json.dumps(str(empty)),
                    "evaluate", "--predictions", str(preds)])
        assert code == 3

    def test_not_a_predictions_file_is_schema_error(self, tmp_path):
        subjects, _ = self._pipeline(tmp_path)
        junk = tmp_path / "junk.csv"
        junk.write_text("foo,bar\n1,2\n")
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "eval")),
                    "--set", "data.subjects=%s" % json.dumps(str(subjects)),
                    "evaluate", "--predictions", str(junk)])
        assert code == 3
