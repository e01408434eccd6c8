import csv
import io
import json
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcrn.autodiff
import fcrn.cli
import fcrn.model
from fcrn.cli import _settings, main
from fcrn.config import MAX_INTERVALS, QUOTE_CHARS, load_config
from fcrn.data import (Dataset, Signal, build_time_grid, read_curves_csv,
                       read_subjects_csv, write_curves_csv, write_subjects_csv)
from fcrn.model import CANONICAL_GRID_CAP, FCRNModel, TrainSettings, init_model
from fcrn.simulate import SimConfig, simulate

DEFAULT_CONFIG = Path(__file__).parent / "fixtures" / "default_config.json"


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


def drop_curve_rows(path, keep):
    """Rewrite a curves CSV without the rows where keep(id, signal) is false."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows[:1] + [r for r in rows[1:] if keep(r[0], r[1])])


def write_with_cells(src, dst, cells):
    """Copy the CSV src to dst with the cells {(row, column): text} replaced;
    row 1 is the header."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    for (r, c), text in cells.items():
        rows[r - 1][c] = text
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


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
        assert run(train_args(tmp_path / "run", tmp_path / "sim")) == 0
        imputed = np.loadtxt(tmp_path / "run" / "imputed.csv", delimiter=",")
        assert np.all(np.isfinite(imputed))
        assert (tmp_path / "run" / "imputed_mask.csv").exists()

    def test_complete_data_run_removes_an_earlier_imputation(self, tmp_path):
        # a 25% MAR run and then a complete-data run into one out_dir: the
        # second run wrote no imputation, so none stays beside its model
        simulate_small(tmp_path / "mar", missing_rate=0.25, seed=2)
        simulate_small(tmp_path / "full", seed=2)
        assert run(train_args(tmp_path / "run", tmp_path / "mar")) == 0
        assert (tmp_path / "run" / "imputed.csv").exists()
        (tmp_path / "run" / "notes.txt").write_text("kept")
        assert run(train_args(tmp_path / "run", tmp_path / "full")) == 0
        assert sorted(os.listdir(tmp_path / "run")) == [
            "config.resolved.json", "model.json", "notes.txt", "training_log.csv"]
        assert (tmp_path / "run" / "notes.txt").read_text() == "kept"

    @pytest.mark.parametrize("message", ["", "Unable to allocate 11.2 GiB for an array "
                                         "with shape (1500000000,) and data type float64"])
    def test_allocation_that_fails_is_io_error(self, tmp_path, capsys, monkeypatch,
                                               message):
        simulate_small(tmp_path / "sim", n=40, seed=0)
        capsys.readouterr()

        def grad_buffer(self):
            raise MemoryError(message)
        monkeypatch.setattr(fcrn.autodiff.Params, "grad_buffer", grad_buffer)
        assert run(train_args(tmp_path / "run", tmp_path / "sim")) == 2
        assert capsys.readouterr().err == "error: out of memory%s\n" % (
            ": " + message if message else "")

    @pytest.mark.parametrize("override", [
        "mvi.enabled=false", "train.basis_grid_search=true", "train.n_basis=4",
        "train.n_causes=3", "mvi.eta=-1", "mvi.decay=1.5", "mvi.milestones=[50, -1]",
        "mvi.pred_weight=-1", "mvi.corr_threshold=1.5", "mvi.k_max=-1", "mvi.ridge=0",
        "mvi.noise=false", "mvi.i_repeats=2", "mvi.max_epochs=3"])
    def test_removed_key_is_an_unknown_key(self, tmp_path, capsys, override):
        # the data decide the first four: imputation runs when a cell is
        # missing, the causes are 1..the largest, and train.basis_grid lists
        # the counts; the next seven are constants of fcrn.impute, and the
        # last three ImputeSettings fields that only library callers set
        simulate_small(tmp_path / "sim", missing_rate=0.25, seed=4)
        code = run(train_args(tmp_path / "run", tmp_path / "sim",
                              extra=["--set", override]))
        assert code == 3
        assert "unknown config key %r" % override.split("=")[0] in \
            capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_covariate_missing_for_every_subject_is_schema_error(self, tmp_path,
                                                                 capsys):
        # median initialization has no observed value to start from
        simulate_small(tmp_path / "sim", missing_rate=0.25, seed=2)
        subjects = tmp_path / "sim" / "train_subjects.csv"
        with open(subjects, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[5] = ""
        with open(subjects, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run(train_args(tmp_path / "run", tmp_path / "sim")) == 3
        assert "covariate 3 of 10 is missing for every subject" in \
            capsys.readouterr().err

    def test_non_finite_validation_loss_is_numeric_error(self, tmp_path, monkeypatch,
                                                         capsys):
        # theta made non-finite right after each epoch's last Adam step
        import fcrn.model
        real_epoch_loss = fcrn.model._epoch_loss

        def epoch_loss(model, *args, **kwargs):
            loss = real_epoch_loss(model, *args, **kwargs)
            model.params.flat[0] = np.nan
            return loss

        monkeypatch.setattr(fcrn.model, "_epoch_loss", epoch_loss)
        simulate_small(tmp_path / "sim", seed=1)
        assert run(train_args(tmp_path / "run", tmp_path / "sim")) == 4
        assert "non-finite validation loss at epoch 0" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.json").exists()

    def test_diverging_fit_names_its_batch_without_numpy_warnings(self, tmp_path,
                                                                  capfd):
        # lr=1e300 overflows the first layer in the second Adam batch; train
        # used to print two RuntimeWarnings from autodiff.dense before an
        # error naming "batch starting at row 64", a position in the
        # shuffled epoch rather than a row of any file
        simulate_small(tmp_path / "sim", n=40)
        capfd.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(train_args(tmp_path / "run", tmp_path / "sim",
                                  extra=sets(train__lr=1e300)))
        err = capfd.readouterr().err
        assert code == 4
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: non-finite loss (lr=1e+300, batch 2 of 2)"]
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_nan_covariate_cell_is_missing_like_an_empty_one(self, tmp_path):
        # a nan cell used to parse as an observed number: train exited 4 and
        # predict crashed
        simulate_small(tmp_path / "sim", n=40, seed=5)
        outputs = []
        for text in ("", "nan"):
            d = tmp_path / (text or "empty")
            d.mkdir()
            for name in ("train_subjects.csv", "test_subjects.csv"):
                write_with_cells(tmp_path / "sim" / name, d / name, {(3, 4): text})
            assert run(train_args(d / "run", d)) == 0
            assert run(sets(out_dir=str(d / "pred"),
                            data__subjects=str(d / "test_subjects.csv"))
                       + ["predict", "--model", str(d / "run" / "model.json")]) == 0
            outputs.append([(d / f).read_bytes() for f in (
                "run/model.json", "run/training_log.csv", "run/imputed.csv",
                "run/imputed_mask.csv", "pred/predictions.csv")])
        assert outputs[0] == outputs[1]

    def test_one_covariate_with_a_missing_cell_trains_the_imputer(self, tmp_path):
        # the graphical model of one covariate used to raise: train exited 1
        subjects = tmp_path / "subjects.csv"
        subjects.write_text("id,time,cause,x1\na,10.0,1,0.5\nb,20.0,2,\n"
                            "c,30.0,0,1.5\nd,40.0,1,-0.5\ne,50.0,2,0.1\n")
        assert run(sets(out_dir=str(tmp_path / "run"), data__subjects=str(subjects),
                        train__max_epochs=2) + ["train"]) == 0
        imputed = np.loadtxt(tmp_path / "run" / "imputed.csv", delimiter=",")
        assert imputed.shape == (5,) and np.all(np.isfinite(imputed))

    def test_time_within_the_grid_tolerance_of_its_end_is_accepted(self, tmp_path):
        # train used to exit 3 on this subject although augmentation puts it
        # in the last interval and predict and evaluate accept it
        subjects = tmp_path / "subjects.csv"
        subjects.write_text("id,time,cause,x1\na,100.0000000005,1,0.5\n"
                            "b,20.0,2,0.3\nc,60.0,0,-0.2\n")
        data = sets(data__subjects=str(subjects))
        assert run(sets(out_dir=str(tmp_path / "run"), train__max_epochs=1)
                   + data + ["train"]) == 0
        assert run(sets(out_dir=str(tmp_path / "pred")) + data + [
            "predict", "--model", str(tmp_path / "run" / "model.json")]) == 0
        assert run(sets(out_dir=str(tmp_path / "eval")) + data + [
            "evaluate", "--predictions", str(tmp_path / "pred" / "predictions.csv")]) == 0

    @staticmethod
    def _with_causes(tmp_path, causes):
        """A 40-subject simulated train_subjects.csv with its causes mapped
        by the dict causes; returns the simulation's directory."""
        simulate_small(tmp_path / "sim", n=40, seed=0)
        subjects = tmp_path / "sim" / "train_subjects.csv"
        with open(subjects, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[2] = str(causes.get(int(row[2]), row[2]))
        with open(subjects, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return tmp_path / "sim"

    @pytest.mark.parametrize("causes, message", [
        ({1: 3}, "no subject has cause 1 of the csm head's causes 1..3"),
        ({1: 0, 2: 0}, "no subject has cause 1 of the csm head's causes 1..1"),
    ], ids=["lacks-cause-1", "all-censored"])
    def test_csm_cause_without_events_is_schema_error(self, tmp_path, capsys, causes,
                                                      message):
        # cause 1 renamed 3, so causes 1..3 lack 1; every subject censored:
        # both trained a head for a cause no subject has and exited 0
        sim = self._with_causes(tmp_path, causes)
        assert run(train_args(tmp_path / "run", sim)) == 3
        assert "train_subjects.csv: %s" % message in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.json").exists()

    @pytest.mark.parametrize("causes, columns", [
        ({2: 1}, ["cif_1", "survival"]),
        ({2: 3, 1: 2, 0: 1}, ["cif_1", "cif_2", "cif_3", "survival"]),
    ], ids=["only-cause-1", "causes-1-to-3"])
    def test_csm_learns_causes_up_to_the_largest(self, tmp_path, causes, columns):
        # one cause gave a dead cif_2 column, and a cause of 3 exited 3
        sim = self._with_causes(tmp_path, causes)
        assert run(train_args(tmp_path / "run", sim)) == 0
        assert run(sets(out_dir=str(tmp_path / "pred"),
                        data__subjects=str(sim / "train_subjects.csv"))
                   + ["predict", "--model", str(tmp_path / "run" / "model.json")]) == 0
        with open(tmp_path / "pred" / "predictions.csv", newline="") as fh:
            assert next(csv.reader(fh))[3:] == columns

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

    def test_subject_lacking_a_signal_is_schema_error(self, tmp_path, capsys):
        # the first subject lacks signal2: an error, not a tabular-only fit
        simulate_small(tmp_path / "sim", n=40, functional=True, seed=5)
        curves = tmp_path / "sim" / "train_curves.csv"
        with open(curves, newline="") as fh:
            first = list(csv.reader(fh))[1][0]
        drop_curve_rows(curves, lambda sid, name: (sid, name) != (first, "signal2"))
        code = run(train_args(tmp_path / "run", tmp_path / "sim", functional=True))
        assert code == 3
        assert "subject %s lacks signal 'signal2'" % first in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.json").exists()

    def test_basis_grid_search_logs_selection(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim", n=40, functional=True, seed=5)
        code = run(train_args(
            tmp_path / "run", tmp_path / "sim", functional=True,
            extra=["--set", "train.basis_grid=[2,3]",
                   "--set", "train.max_epochs=2"]))
        assert code == 0
        out = capsys.readouterr().out
        assert "basis count 2" in out and "basis count 3" in out
        assert "selected basis count" in out

    @pytest.mark.parametrize("functional", [True, False])
    def test_one_basis_count_logs_no_selection(self, tmp_path, capsys, functional):
        # tabular data fit the grid's first count alone, so no search either
        simulate_small(tmp_path / "sim", n=40, functional=functional, seed=5)
        grid = "[4]" if functional else "[4, 2]"
        code = run(train_args(tmp_path / "run", tmp_path / "sim", functional=functional,
                              extra=["--set", "train.basis_grid=%s" % grid,
                                     "--set", "train.max_epochs=1"]))
        assert code == 0
        assert "basis count" not in capsys.readouterr().out
        model = json.loads((tmp_path / "run" / "model.json").read_text())
        assert [s["n_basis"] for s in model["basis_layers"]] == (
            [4, 4, 4] if functional else [])

    def test_basis_grid_search_with_missing_data(self, tmp_path, capsys):
        # the imputation path logs one row per epoch and holds out validation
        # subjects, so selection compares validation, not training, losses
        simulate_small(tmp_path / "sim", n=40, functional=True, missing_rate=0.2,
                       seed=5)
        code = run(train_args(
            tmp_path / "run", tmp_path / "sim", functional=True,
            extra=["--set", "train.basis_grid=[2,3]",
                   "--set", "train.max_epochs=2"]))
        assert code == 0
        assert "selected basis count" in capsys.readouterr().out
        with open(tmp_path / "run" / "training_log.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss"]
        assert [int(r[0]) for r in rows[1:]] == [0, 1]
        assert all(r[1] != r[2] for r in rows[1:])

    def test_holdout_leaves_a_subject_to_train_on(self, tmp_path):
        # round(0.75 * 2) = 2 held out both subjects: train exited 0 with an
        # untrained model and a train_loss of 0.0 in every log row
        subjects = tmp_path / "subjects.csv"
        subjects.write_text("id,time,cause,x1\ns0,12.0,1,0.5\ns1,30.0,2,-0.25\n")
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "run")),
                    "--set", "data.subjects=%s" % json.dumps(str(subjects)),
                    "--set", "train.max_epochs=3", "--set", "train.val_fraction=0.75",
                    "train"])
        assert code == 0
        with open(tmp_path / "run" / "training_log.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(float(r[1]) > 0 for r in rows)

    def test_header_only_subjects_is_schema_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("id,time,cause,x1,x2\n")
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "o")),
                    "--set", "data.subjects=%s" % json.dumps(str(empty)),
                    "train"])
        assert code == 3

    def test_repeated_subject_id_is_schema_error(self, tmp_path, capsys):
        # train and predict used to pass, both subjects' curves going to the
        # last row, and evaluate then found no predictions for the first
        simulate_small(tmp_path / "sim", n=40, functional=True, seed=5)
        subjects = tmp_path / "sim" / "train_subjects.csv"
        with open(subjects, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[4][0] = rows[2][0]
        with open(subjects, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = run(train_args(tmp_path / "run", tmp_path / "sim", functional=True))
        assert code == 3
        assert "rows 3 and 5: repeated subject id %r" % rows[2][0] in \
            capsys.readouterr().err
        assert not (tmp_path / "run" / "model.json").exists()

    def test_sdm_target_cause_without_events_is_schema_error(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim", n=40, seed=0)
        code = run(train_args(tmp_path / "run", tmp_path / "sim",
                              extra=sets(train__head="sdm", train__cause=3)))
        assert code == 3
        err = capsys.readouterr().err
        assert "train_subjects.csv: no subject has the sdm target cause " \
            "train.cause=3" in err
        assert not (tmp_path / "run" / "model.json").exists()

    def test_sdm_on_a_one_interval_grid_is_schema_error(self, tmp_path, capsys):
        # no sdm person-period row on a one-interval grid, so nothing to train
        simulate_small(tmp_path / "sim", n=40, seed=0)
        code = run(train_args(tmp_path / "run", tmp_path / "sim",
                              extra=sets(train__head="sdm", grid__width=100)))
        assert code == 3
        assert "error: no person-period rows to train on: the sdm head needs a grid " \
            "of at least 2 intervals (this one has 1)" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.json").exists()

    @pytest.mark.parametrize("name", ["train_subjects.csv", "train_curves.csv"])
    def test_normalization_that_overflows_is_schema_error(self, tmp_path, capsys,
                                                          name):
        # x1, or signal1's values, times 1e300 (column 3 of either file):
        # their squares overflow, and the infinite std reached model.json
        simulate_small(tmp_path / "sim", n=40, functional=True, seed=0)
        with open(tmp_path / "sim" / name, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            if name == "train_subjects.csv" or row[1] == "signal1":
                row[3] = repr(float(row[3]) * 1e300)
        with open(tmp_path / "sim" / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run(train_args(tmp_path / "run", tmp_path / "sim", functional=True)) == 3
        err = capsys.readouterr().err
        assert "%s column %s: its mean or standard deviation is not finite" % (
            tmp_path / "sim" / name,
            "x1" if name == "train_subjects.csv" else "signal1") in err
        assert "Warning" not in err
        assert not (tmp_path / "run" / "model.json").exists()

    def test_one_hot_train_and_predict_at_the_interval_cap(self, tmp_path):
        simulate_small(tmp_path / "sim", n=40, seed=0)
        at_cap = sets(grid__width=100 / MAX_INTERVALS, train__time_encoding="onehot",
                      train__max_epochs=1)
        assert run(train_args(tmp_path / "run", tmp_path / "sim", extra=at_cap)) == 0
        assert run(sets(out_dir=str(tmp_path / "pred"),
                        data__subjects=str(tmp_path / "sim" / "test_subjects.csv"))
                   + ["predict", "--model", str(tmp_path / "run" / "model.json")]) == 0
        with open(tmp_path / "pred" / "predictions.csv", newline="") as fh:
            assert sum(1 for _ in fh) == 1 + 10 * MAX_INTERVALS


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

    @pytest.mark.parametrize("text, key", [('{"mvi": {"noise": false}}', "mvi.noise"),
                                           ('{"mvi": {}}', "mvi")])
    def test_unknown_section_in_a_config_file_names_its_first_key(self, tmp_path,
                                                                  capsys, text, key):
        # named as the override --set mvi.noise=false names it
        path = tmp_path / "run.json"
        path.write_text(text)
        assert run(["--config", str(path), "--set",
                    "out_dir=%s" % json.dumps(str(tmp_path / "o")), "simulate"]) == 3
        assert "unknown config key %r\n" % key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", [
        'train.max_epochs="x"',  # a string for an integer
        "train.lr=true",  # a bool is never a number
        "seed=1.5",  # a float for an integer
        "simulate.functional=1",  # a number for a bool
        "out_dir=null",  # null where the default is not null
        "train.hidden=[8, 8.5]",  # a float item in a list of integers
        # values of the right type out of their range or choices
        'train.head="xyz"',
        'train.time_encoding="linear"',
        "train.batch_size=0",
        "train.max_epochs=0",
        "train.cause=0",
        "train.hidden=[8, 0]",
        "train.basis_grid=[2, -3]",
        "train.basis_grid=[]",  # a grid search of nothing: a TypeError before
        "evaluate.horizons=[]",  # a scores.csv of only its header before
        "seed=-1",  # numpy's ValueError before
        "seed=4294967296",
        "train.val_fraction=1.0",
        "grid.width=0",
        "grid.max_time=-5",
        "train.lr=-1",
        "train.lr=0",
        "train.patience=0",
        "evaluate.horizons=[50, 0]",
        "simulate.n=0",
        "simulate.n_train=-1",
        "simulate.n_test=-1",
        "simulate.missing_rate=-0.1",  # apply_mar's ValueError before
        "simulate.missing_rate=0.8",
        "simulate.n=100",  # not n_train + n_test: simulate's ValueError before
        # evaluate exited 5 for these two and scored from time 0 for the next
        "evaluate.t0=NaN",
        "evaluate.t0=Infinity",
        "evaluate.t0=-Infinity",
        "evaluate.t0=-1",  # scored exactly as t0 = 0
    ])
    def test_value_of_the_wrong_type_is_schema_error(self, tmp_path, capsys,
                                                     override):
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "o")),
                    "--set", override, "simulate"])
        assert code == 3
        assert override.split("=")[0] in capsys.readouterr().err

    def test_grid_of_more_than_the_interval_cap_is_schema_error(self, tmp_path,
                                                                capsys):
        cfg = load_config(None, ["grid.max_time=%d" % MAX_INTERVALS, "grid.width=1"])
        assert cfg["grid"]["max_time"] == MAX_INTERVALS
        for grid in (["grid.max_time=%d" % (MAX_INTERVALS + 1), "grid.width=1"],
                     ["grid.width=0.001"]):  # 100,000 intervals on max_time 100
            code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "o")),
                        "--set", grid[0], "--set", grid[-1], "simulate"])
            assert code == 3
            err = capsys.readouterr().err
            assert "'grid.max_time'" in err and "'grid.width'" in err
            assert "more than %d intervals" % MAX_INTERVALS in err

    def test_inclusive_range_bounds_are_accepted(self):
        cfg = load_config(None, ["simulate.n_test=0", "simulate.missing_rate=0.79"])
        assert cfg["simulate"]["n_test"] == 0 and cfg["simulate"]["missing_rate"] == 0.79

    def test_seed_bounds_are_accepted(self):
        for seed in (0, 2 ** 32 - 1):
            assert load_config(None, ["seed=%d" % seed])["seed"] == seed

    def test_t0_bounds_are_accepted(self):
        for t0 in (0, 50):
            assert load_config(None, ["evaluate.t0=%d" % t0])["evaluate"]["t0"] == t0

    def test_integer_for_a_float_and_string_for_a_null_default(self):
        cfg = load_config(None, ["train.lr=1", "data.subjects=a.csv",
                                 "data.curves=null", "evaluate.horizons=[50]"])
        assert cfg["train"]["lr"] == 1 and cfg["data"]["subjects"] == "a.csv"

    def test_config_file_value_of_the_wrong_type_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"batch_size": "64"}}')
        assert run(["--config", str(bad), "simulate"]) == 3

    @pytest.mark.parametrize("override", [
        "train.hidden=" + "[" * 900 + "]" * 900,  # the type check's message
        "train.basis_grid=[%s, 0]" % ", ".join(["2"] * 400),  # the range check's
    ], ids=["type", "range"])
    def test_rejected_long_value_is_quoted_short(self, tmp_path, capsys, override):
        # each message quoted the whole value: 1,876 and 1,650 characters
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "o")),
                    "--set", override, "simulate"])
        assert code == 3
        err = capsys.readouterr().err
        assert "'%s'" % override.split("=")[0] in err
        assert err.endswith("...\n") and len(err) < 200

    @pytest.mark.parametrize("override", [
        "train.%s=1" % ("a" * 2000),  # unknown config key
        "a" * 2000,  # not of the form key.path=value
        "train.%s=%s%s" % ("a" * 2000, "[" * 2000, "]" * 2000),  # nested too deeply
    ], ids=["unknown-key", "malformed", "nested"])
    def test_long_key_or_override_is_quoted_short(self, tmp_path, capsys, override):
        # each message quoted the whole key or override: ~2,000 characters
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "o")),
                    "--set", override, "simulate"])
        assert code == 3
        err = capsys.readouterr().err
        assert ("'%s..." % override[:QUOTE_CHARS - 4]) in err and len(err) < 200

    @pytest.mark.parametrize("depth", [900, 100000])
    @pytest.mark.parametrize("source", ["config", "override", "model"])
    def test_deeply_nested_json_is_schema_error(self, tmp_path, capsys, source, depth):
        # json raised RecursionError from about 990 levels, and a model
        # file's bool check from about 900; each exited 1 with a traceback
        nested = "[" * depth + "]" * depth
        path = tmp_path / "nested.json"
        args = ["--set", "out_dir=%s" % json.dumps(str(tmp_path / "o"))]
        if source == "override":
            args += ["--set", "train.hidden=" + nested, "simulate"]
        elif source == "config":
            path.write_text('{"train": {"hidden": %s}}' % nested)
            args += ["--config", str(path), "simulate"]
        else:
            path.write_text('{"schema_version": 2, "params": %s}' % nested)
            args += ["predict", "--model", str(path)]
        assert run(args) == 3
        err = capsys.readouterr().err
        assert str(path) in err or "'train.hidden'" in err


class TestConfigDefaults:
    def test_resolved_defaults_equal_the_fixture(self):
        # the train and simulate defaults are derived from the settings
        # dataclasses; the fixture holds them as an earlier load_config wrote
        expected = json.loads(DEFAULT_CONFIG.read_text())
        assert json.dumps(load_config(), sort_keys=True) == \
            json.dumps(expected, sort_keys=True)

    def test_default_sections_build_default_settings(self):
        cfg = load_config()
        assert _settings(TrainSettings, cfg["train"]) == TrainSettings()
        assert _settings(SimConfig, cfg["simulate"]) == SimConfig()


class TestDrawnConfigs:
    """simulate → train → predict → evaluate under drawn configs exits 0, 2,
    3, 4 or 5 at every command, and no exception escapes.

    Each key below takes values inside its range. In about half the
    examples one key instead takes a value of another JSON type, of
    another key's choices, or out of its range.

    The sizes are small by construction, so that no draw can ask numpy for
    an array it cannot allocate. simulate.n is at most 40; grid.max_time
    stays 100 and grid.width is at least 2.5, so there are at most 40
    intervals. hidden layers are at most 8 wide, train.max_epochs at most
    2, and basis counts at most 6. The swapped-in values are no larger
    than 3, so they cannot grow any of these. A batch_size up to 100,000
    takes at most the 1,200 person-period rows (30 training subjects by
    40 intervals) that there are.
    """

    KEYS = {
        "seed": st.integers(0, 2 ** 32 - 1),
        "simulate.functional": st.booleans(),
        "simulate.missing_rate": st.sampled_from([0.0, 0.25, 0.5]),
        "grid.width": st.sampled_from([2.5, 5.0, 10.0, 25.0]),
        "train.head": st.sampled_from(["csm", "sdm"]),
        "train.cause": st.integers(1, 2),
        "train.time_encoding": st.sampled_from(["scalar", "onehot"]),
        "train.hidden": st.lists(st.integers(1, 8), max_size=2),
        "train.batch_size": st.integers(1, 100_000),
        "train.lr": st.floats(1e-6, 1e6),
        "train.val_fraction": st.floats(0.0, 0.99),
        "train.max_epochs": st.integers(1, 2),
        "train.patience": st.integers(1, 3),
        "train.basis_grid": st.lists(st.integers(1, 6), min_size=1, max_size=3),
        "train.use_functional": st.booleans(),
        "evaluate.t0": st.sampled_from([0.0, 10.0, 95.0]),
        "evaluate.horizons": st.lists(st.sampled_from([25.0, 50.0, 100.0]), min_size=1,
                                      max_size=2),
    }
    SWAPS = ["x", "csm", "onehot", True, None, [], [2], [0.5], {}, -1, 0, 2.5, 3]

    def test_every_drawn_key_is_a_config_key(self):
        # the test below accepts exit 3, so a key that load_config rejects
        # would make every example stop at simulate
        def leaves(section, prefix=""):
            for key, value in section.items():
                if isinstance(value, dict):
                    yield from leaves(value, prefix + key + ".")
                else:
                    yield prefix + key
        assert set(self.KEYS) <= set(leaves(load_config()))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_pipeline_exits_with_a_documented_code(self, data):
        n_train, n_test = data.draw(st.integers(6, 30)), data.draw(st.integers(2, 10))
        values = {"simulate.n": n_train + n_test, "simulate.n_train": n_train,
                  "simulate.n_test": n_test}
        values.update({key: data.draw(strategy, label=key)
                       for key, strategy in self.KEYS.items()})
        if data.draw(st.booleans()):
            key = data.draw(st.sampled_from(sorted(values)), label="swapped key")
            values[key] = data.draw(st.sampled_from(self.SWAPS), label="swapped value")
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            common = [item for key, value in values.items()
                      for item in ("--set", "%s=%s" % (key, json.dumps(value)))]
            sim = tmp / "sim"
            curves = values["simulate.functional"] is True  # else no curves files
            data_files, test_files = (
                sets(data__subjects=str(sim / ("%s_subjects.csv" % part)),
                     data__curves=str(sim / ("%s_curves.csv" % part)) if curves else None)
                for part in ("train", "test"))
            steps = [
                (sets(out_dir=str(sim)), ["simulate"]),
                (sets(out_dir=str(tmp / "run")) + data_files, ["train"]),
                (sets(out_dir=str(tmp / "pred")) + test_files,
                 ["predict", "--model", str(tmp / "run" / "model.json")]),
                (sets(out_dir=str(tmp / "eval")) + test_files,
                 ["evaluate", "--predictions", str(tmp / "pred" / "predictions.csv")]),
            ]
            for where, command in steps:
                code = run(common + where + command)
                assert code in (0, 2, 3, 4, 5), command[0]
                if code:
                    break


class TestPredictCommand:
    def _train(self, tmp_path, head="csm", encoding="scalar"):
        simulate_small(tmp_path / "sim", seed=6)
        assert run(train_args(tmp_path / "run", tmp_path / "sim",
                              extra=["--set", "train.head=%s" % json.dumps(head),
                                     "--set", "train.time_encoding=%s"
                                     % json.dumps(encoding)])) == 0
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
        empty = tmp_path / "empty.csv"
        empty.write_text("id,time,cause,x1,x2,x3,x4,x5,x6,x7,x8,x9,x10\n")
        for head, header in (("csm", "id,interval,time,cif_1,cif_2,survival"),
                             ("sdm", "id,interval,time,cif_1")):
            for encoding in ("scalar", "onehot"):
                where = tmp_path / head / encoding
                model = self._train(where, head=head, encoding=encoding)
                assert self._predict(where, model, empty) == 0
                lines = (where / "pred" / "predictions.csv").read_text().splitlines()
                assert lines == [header]
                assert sorted(os.listdir(where / "pred")) == ["config.resolved.json",
                                                              "predictions.csv"]

    def test_irregular_sample_times_take_a_capped_canonical_grid(self, tmp_path):
        # each subject samples its curve at 0, 1 and 8 times of its own:
        # more distinct times than CANONICAL_GRID_CAP, so the model
        # resamples every curve on that many evenly spaced taus
        train, _, _ = simulate(SimConfig(n=60, n_train=60, n_test=0, seed=7,
                                         functional=False))
        rng = np.random.RandomState(7)
        taus = np.concatenate([np.r_[0.0, np.sort(rng.uniform(0, 1, 8)), 1.0]
                               for _ in range(len(train))])
        values = np.sin(2 * np.pi * taus) + rng.normal(0, 0.1, len(taus))
        ds = Dataset(train.ids, train.time, train.cause, train.X,
                     {"signal1": Signal(taus, values, np.arange(0, len(taus) + 1, 10))})
        assert len(np.unique(taus)) > CANONICAL_GRID_CAP
        write_subjects_csv(tmp_path / "subjects.csv", ds)
        write_curves_csv(tmp_path / "curves.csv", ds)
        files = sets(data__subjects=str(tmp_path / "subjects.csv"),
                     data__curves=str(tmp_path / "curves.csv"))
        assert run(sets(out_dir=str(tmp_path / "run"), train__max_epochs=1)
                   + files + ["train"]) == 0
        with open(tmp_path / "run" / "model.json") as fh:
            stored = json.load(fh)["basis_layers"][0]["taus"]
        assert np.array_equal(stored, np.linspace(0.0, 1.0, CANONICAL_GRID_CAP))
        model = FCRNModel.load(tmp_path / "run" / "model.json")
        assert np.array_equal(model.signal_specs[0]["taus"], stored)
        assert run(sets(out_dir=str(tmp_path / "pred")) + files + [
            "predict", "--model", str(tmp_path / "run" / "model.json")]) == 0
        with open(tmp_path / "pred" / "predictions.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[3:] == ["cif_1", "cif_2", "survival"]
        vals = np.array([[float(v) for v in r[3:]] for r in rows])
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals.sum(axis=1) - 1.0)) <= 1e-12

    def test_grid_incompatible_time_is_compat_error(self, tmp_path):
        model = self._train(tmp_path)
        far = tmp_path / "far.csv"
        far.write_text("id,time,cause," +
                       ",".join("x%d" % k for k in range(1, 11)) +
                       "\na,500.0,1," + ",".join(["0.1"] * 10) + "\n")
        assert self._predict(tmp_path, model, far) == 5

    def test_curves_lacking_a_model_signal_is_schema_error(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim", n=40, functional=True, seed=6)
        assert run(train_args(tmp_path / "run", tmp_path / "sim", functional=True,
                              extra=["--set", "train.max_epochs=1"])) == 0
        curves = tmp_path / "sim" / "test_curves.csv"
        drop_curve_rows(curves, lambda sid, name: name != "signal2")
        for data_curves in (str(curves), None):
            code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "pred")),
                        "--set", "data.subjects=%s" % json.dumps(
                            str(tmp_path / "sim" / "test_subjects.csv")),
                        "--set", "data.curves=%s" % json.dumps(data_curves),
                        "predict", "--model", str(tmp_path / "run" / "model.json")])
            assert code == 3
            assert "signal" in capsys.readouterr().err
        assert not (tmp_path / "pred" / "predictions.csv").exists()

    def test_covariate_count_unlike_the_model_is_schema_error(self, tmp_path,
                                                              capsys):
        model = self._train(tmp_path)
        subjects = tmp_path / "sim" / "test_subjects.csv"
        with open(subjects, newline="") as fh:
            rows = [row[:-1] for row in csv.reader(fh)]
        cut = tmp_path / "cut.csv"
        with open(cut, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert self._predict(tmp_path, model, cut) == 3
        err = capsys.readouterr().err
        assert "has 9 covariates" in err and "fitted on 10" in err
        assert not (tmp_path / "pred" / "predictions.csv").exists()

    @pytest.mark.parametrize("text", ['{"head": ', '{"head": "csm"}', "[1]"])
    def test_malformed_model_file_is_schema_error(self, tmp_path, capsys, text):
        bad = tmp_path / "model.json"
        bad.write_text(text)
        subjects = tmp_path / "subjects.csv"
        subjects.write_text("id,time,cause,x1\na,1.0,1,0.5\n")
        assert self._predict(tmp_path, bad, subjects) == 3
        assert str(bad) in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        model = self._train(tmp_path)
        subjects = tmp_path / "sim" / "test_subjects.csv"
        assert self._predict(tmp_path, model, subjects, out="p1") == 0
        assert self._predict(tmp_path, model, subjects, out="p2") == 0
        assert (tmp_path / "p1" / "predictions.csv").read_bytes() == \
            (tmp_path / "p2" / "predictions.csv").read_bytes()


def untrained_model(where, head="csm", encoding="scalar", functional=False, n=45):
    """An untrained model of random weights, saved as where/model.json, and
    n test subjects with 25% MAR cells in where/subjects.csv (and their
    signal in where/curves.csv); returns predict's file arguments."""
    train, test, _ = simulate(SimConfig(n=40 + n, n_train=40, n_test=n, seed=3,
                                        functional=functional, n_signals=1,
                                        n_sample_points=11, missing_rate=0.25))
    rng = np.random.RandomState(1)
    model = init_model(train, build_time_grid(100.0, 5.0), head,
                       TrainSettings(time_encoding=encoding), 2, 1, rng)
    model.fit_normalization(np.where(train.mask, 0.0, train.X))
    model.params.flat[:] = rng.randn(model.params.flat.size) * 0.3
    model.save(where / "model.json")
    write_subjects_csv(where / "subjects.csv", test)
    files = sets(data__subjects=str(where / "subjects.csv"))
    if functional:
        write_curves_csv(where / "curves.csv", test)
        files += sets(data__curves=str(where / "curves.csv"))
    return files + ["predict", "--model", str(where / "model.json")]


class TestStreamedPredictions:
    """predict runs one of the model's row blocks of subjects at a time
    from the forward pass to the CSV text, into a temporary file that
    replaces predictions.csv only when every block is written."""

    @staticmethod
    def _blocks_of(monkeypatch, model, subjects):
        """Make the model's row blocks 4 subjects each; return them."""
        L = model.grid.n_intervals
        widths = [model.params.weights[0].shape[1]] + [
            w.shape[0] for w in model.params.weights]
        monkeypatch.setattr(fcrn.model, "PREDICT_CELLS",
                            4 * L * max(a + b for a, b in zip(widths, widths[1:])))
        return model.row_blocks(subjects * L)

    @pytest.mark.parametrize("functional", [False, True], ids=["tabular", "signal"])
    @pytest.mark.parametrize("encoding", ["scalar", "onehot"])
    @pytest.mark.parametrize("head", ["csm", "sdm"])
    def test_streamed_file_is_one_prediction_written_by_csv_writer(
            self, tmp_path, monkeypatch, head, encoding, functional):
        # 45 subjects: 10 blocks of 4, the last taking the 5 left over
        args = untrained_model(tmp_path, head, encoding, functional)
        model = FCRNModel.load(tmp_path / "model.json")
        L = model.grid.n_intervals
        blocks = self._blocks_of(monkeypatch, model, 45)
        assert blocks == [(4 * k * L, 4 * (k + 1) * L) for k in range(10)] + [
            (40 * L, 45 * L)]
        assert run(sets(out_dir=str(tmp_path / "pred")) + args) == 0
        ds = read_subjects_csv(tmp_path / "subjects.csv")
        if functional:
            ds = read_curves_csv(tmp_path / "curves.csv", ds)
        assert ds.mask.any()
        cif = model.predict_cif(ds)
        if head == "csm":
            names, columns = ["cif_1", "cif_2", "survival"], [cif[1][:, 0],
                                                              cif[1][:, 1], cif[0]]
        else:
            names, columns = ["cif_1"], [cif]
        expected = io.StringIO(newline="")
        w = csv.writer(expected)
        w.writerow(["id", "interval", "time"] + names)
        for i, sid in enumerate(ds.ids):
            for t in range(1, L + 1):
                w.writerow([sid, t, repr(float(model.grid.cuts[t]))]
                           + ["%.17g" % col[i, t] for col in columns])
        assert (tmp_path / "pred" / "predictions.csv").read_bytes() == \
            expected.getvalue().encode()

    def _earlier_run(self, tmp_path, args):
        """A fresh out_dir and one that holds an earlier run's outputs;
        returns both with their files' bytes."""
        assert run(sets(out_dir=str(tmp_path / "earlier")) + args) == 0
        dirs = {tmp_path / "fresh": {}, tmp_path / "earlier": {
            name: (tmp_path / "earlier" / name).read_bytes()
            for name in os.listdir(tmp_path / "earlier")}}
        assert sorted(dirs[tmp_path / "earlier"]) == ["config.resolved.json",
                                                      "predictions.csv"]
        return dirs

    def test_non_finite_cif_in_a_later_block_leaves_out_dir_as_it_was(
            self, tmp_path, monkeypatch, capsys):
        args = untrained_model(tmp_path)
        dirs = self._earlier_run(tmp_path, args)
        model = FCRNModel.load(tmp_path / "model.json")
        assert len(self._blocks_of(monkeypatch, model, 45)) == 11
        # the 43rd subject's x1 overflows the forward pass
        rows = (tmp_path / "subjects.csv").read_text().splitlines()
        sid, rest = rows[43].split(",", 1)
        cells = rest.split(",")
        cells[2] = "1e308"
        rows[43] = ",".join([sid] + cells)
        (tmp_path / "subjects.csv").write_text("\n".join(rows) + "\n")
        for out, files in dirs.items():
            assert run(sets(out_dir=str(out)) + args) == 4
            assert "first for subject %r" % sid in capsys.readouterr().err
            assert {name: (out / name).read_bytes() for name in os.listdir(out)} == files

    def test_write_that_fails_after_the_first_block_leaves_out_dir_as_it_was(
            self, tmp_path, monkeypatch, capsys):
        args = untrained_model(tmp_path)
        dirs = self._earlier_run(tmp_path, args)
        model = FCRNModel.load(tmp_path / "model.json")
        assert len(self._blocks_of(monkeypatch, model, 45)) == 11
        writes = []

        def open_failing(*a, **kw):  # the third write, after the header and a block
            fh = open(*a, **kw)
            real_write = fh.write

            def write(text):
                writes.append(len(text))
                if len(writes) == 3:
                    raise OSError(28, "No space left on device")
                return real_write(text)

            fh.write = write
            return fh

        monkeypatch.setattr(fcrn.cli, "open", open_failing, raising=False)
        for out, files in dirs.items():
            writes.clear()
            assert run(sets(out_dir=str(out)) + args) == 2
            assert "No space left on device" in capsys.readouterr().err
            assert len(writes) == 3 and writes[1] > 4 * 20 * 20
            assert {name: (out / name).read_bytes() for name in os.listdir(out)} == files

    def test_peak_memory(self, tmp_path):
        # 10,000 tabular subjects of an untrained hidden-(32, 64, 32) csm
        # model: blocks of 136 subjects from the forward pass to the CSV
        # text. The whole command peaks at 5.52 MB, bounded for a ~20%
        # margin; building every subject's CIFs before writing them took
        # it to 20.6 MB.
        args = untrained_model(tmp_path, n=10000)
        tracemalloc.start()
        try:
            code = run(sets(out_dir=str(tmp_path / "pred")) + args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 6.6e6


class TestScoresInBlocks:
    """evaluate scores the subjects in blocks of metrics.SCORE_CELLS cells
    and writes scores.csv through a temporary file, as predict does."""

    @staticmethod
    def _predicted(tmp_path, n=45):
        """Predictions of an untrained model for n subjects; returns evaluate's
        arguments but out_dir."""
        assert run(sets(out_dir=str(tmp_path / "pred")) + untrained_model(tmp_path, n=n)) == 0
        return sets(data__subjects=str(tmp_path / "subjects.csv")) + [
            "evaluate", "--predictions", str(tmp_path / "pred" / "predictions.csv")]

    def test_write_that_fails_part_way_leaves_out_dir_as_it_was(
            self, tmp_path, monkeypatch, capsys):
        args = self._predicted(tmp_path)
        earlier = tmp_path / "earlier"
        assert run(sets(out_dir=str(earlier)) + args) == 0
        dirs = {tmp_path / "fresh": {}, earlier: {
            name: (earlier / name).read_bytes() for name in os.listdir(earlier)}}
        assert sorted(dirs[earlier]) == ["config.resolved.json", "scores.csv"]
        writes = []

        def open_failing(*a, **kw):  # the third write, after the header and a row
            fh = open(*a, **kw)
            real_write = fh.write

            def write(text):
                writes.append(text)
                if len(writes) == 3:
                    raise OSError(28, "No space left on device")
                return real_write(text)

            fh.write = write
            return fh

        monkeypatch.setattr(fcrn.cli, "open", open_failing, raising=False)
        for out, files in dirs.items():
            writes.clear()
            assert run(sets(out_dir=str(out)) + args) == 2
            assert "No space left on device" in capsys.readouterr().err
            assert writes[0] == "horizon,cause,time,bs,cum_ibs\r\n"
            assert {name: (out / name).read_bytes() for name in os.listdir(out)} == files

    def test_peak_memory(self, tmp_path):
        # 10,000 tabular subjects of an untrained csm model, two causes at 21
        # times: blocks of 780 subjects. The whole command peaks at 6.41 MB,
        # bounded for a ~20% margin, inside read_predictions, whose CIF
        # matrices are most of it; scoring every subject at once took it to
        # 18.7 MB, and counting each (subject, interval)'s rows in an int64
        # matrix to 7.50 MB (on the 10,000 cli-cohort test subjects of
        # tools/pipelines.py, 18.8 MB before and 7.67 MB after)
        args = self._predicted(tmp_path, n=10000)
        tracemalloc.start()
        try:
            code = run(sets(out_dir=str(tmp_path / "eval")) + args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 7.7e6


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

    def test_shuffled_prediction_rows_give_the_same_scores(self, tmp_path):
        # predictions are read by (subject, interval), so row order is moot
        subjects, preds = self._pipeline(tmp_path)
        header, *rows = preds.read_text().splitlines(keepends=True)
        shuffled = tmp_path / "shuffled.csv"
        order = np.random.RandomState(3).permutation(len(rows))
        shuffled.write_text(header + "".join(rows[k] for k in order))
        for name, path in (("eval", preds), ("eval_shuffled", shuffled)):
            assert run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / name)),
                        "--set", "data.subjects=%s" % json.dumps(str(subjects)),
                        "evaluate", "--predictions", str(path)]) == 0
        assert shuffled.read_bytes() != preds.read_bytes()
        assert ((tmp_path / "eval_shuffled" / "scores.csv").read_bytes()
                == (tmp_path / "eval" / "scores.csv").read_bytes())

    def test_horizon_beyond_grid_is_compat_error(self, tmp_path):
        subjects, preds = self._pipeline(tmp_path)
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "eval")),
                    "--set", "data.subjects=%s" % json.dumps(str(subjects)),
                    "--set", "evaluate.horizons=[500]",
                    "evaluate", "--predictions", str(preds)])
        assert code == 5

    def test_horizon_beyond_grid_writes_no_scores(self, tmp_path):
        subjects, preds = self._pipeline(tmp_path)
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "eval")),
                    "--set", "data.subjects=%s" % json.dumps(str(subjects)),
                    "--set", "evaluate.horizons=[50, 500]",
                    "evaluate", "--predictions", str(preds)])
        assert code == 5
        assert not (tmp_path / "eval" / "scores.csv").exists()

    def test_t0_at_the_horizon_is_compat_error(self, tmp_path, capsys):
        subjects, preds = self._pipeline(tmp_path)
        code = run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "eval")),
                    "--set", "data.subjects=%s" % json.dumps(str(subjects)),
                    "--set", "evaluate.t0=100",
                    "evaluate", "--predictions", str(preds)])
        assert code == 5
        assert "evaluate.t0" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "scores.csv").exists()

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

    @staticmethod
    def _keep_columns(preds, names, header=None):
        """Rewrite predictions.csv as its named columns, in that order, under
        header (by default the names)."""
        with open(preds, newline="") as fh:
            rows = list(csv.reader(fh))
        keep = [rows[0].index(name) for name in names]
        with open(preds, "w", newline="") as fh:
            csv.writer(fh).writerows([header or names]
                                     + [[row[j] for j in keep] for row in rows[1:]])

    def test_csm_predictions_lacking_a_cause_are_schema_error(self, tmp_path, capsys):
        # a survival column marks the csm form, which must predict every
        # cause that a subject has; cause 1 used to be scored alone
        subjects, preds = self._pipeline(tmp_path)
        with open(subjects, newline="") as fh:
            assert "2" in {row["cause"] for row in csv.DictReader(fh)}
        self._keep_columns(preds, ("id", "interval", "time", "cif_1", "survival"))
        assert self._evaluate(tmp_path, subjects, preds) == 3
        err = capsys.readouterr().err
        assert "%s: no column cif_2" % preds in err and str(subjects) in err
        assert not (tmp_path / "eval" / "scores.csv").exists()

    @pytest.mark.parametrize("columns, header, bad", [
        (["cif_2"], ["cif_0"], "cif_0"), (["cif_2"], ["cif_-3"], "cif_-3"),
        (["cif_1", "cif_1", "cif_2", "survival"], None, "cif_1")],
        ids=["cif_0", "cif_-3", "cif_1 twice"])
    def test_cif_columns_naming_no_new_cause_are_schema_error(self, tmp_path, capsys,
                                                             columns, header, bad):
        # each exited 0: cif_0 scored as cause 0, a repeated cif_1 twice
        subjects, preds = self._pipeline(tmp_path)
        base = ["id", "interval", "time"]
        self._keep_columns(preds, base + columns, header and base + header)
        assert self._evaluate(tmp_path, subjects, preds) == 3
        assert "%s: column %s " % (preds, bad) in capsys.readouterr().err
        assert not (tmp_path / "eval" / "scores.csv").exists()

    def test_sdm_predictions_score_their_cause_alone(self, tmp_path):
        subjects, preds = self._pipeline(tmp_path)
        self._keep_columns(preds, ("id", "interval", "time", "cif_2"))
        assert self._evaluate(tmp_path, subjects, preds) == 0
        with open(tmp_path / "eval" / "scores.csv", newline="") as fh:
            causes = {row["cause"] for row in csv.DictReader(fh)}
        assert causes == {"2"}

    def _evaluate(self, tmp_path, subjects, preds, *extra):
        return run(["--set", "out_dir=%s" % json.dumps(str(tmp_path / "eval")),
                    "--set", "data.subjects=%s" % json.dumps(str(subjects))]
                   + list(extra) + ["evaluate", "--predictions", str(preds)])

    @staticmethod
    def _edit_rows(preds, edit):
        """Rewrite predictions.csv through edit(rows) -> rows (header kept)."""
        with open(preds, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(preds, "w", newline="") as fh:
            csv.writer(fh).writerows(rows[:1] + edit(rows[1:]))

    @pytest.mark.parametrize("interval", ["0", "-1", "21"])
    def test_interval_outside_the_grid_is_compat_error(self, tmp_path, capsys,
                                                       interval):
        subjects, preds = self._pipeline(tmp_path)

        def edit(rows):
            rows[3][1] = interval
            return rows
        self._edit_rows(preds, edit)
        assert self._evaluate(tmp_path, subjects, preds) == 5
        assert "interval %s" % interval in capsys.readouterr().err

    def test_time_not_the_interval_endpoint_is_compat_error(self, tmp_path,
                                                           capsys):
        subjects, preds = self._pipeline(tmp_path)

        def edit(rows):
            rows[4][2] = repr(float(rows[4][2]) + 1.0)
            return rows
        self._edit_rows(preds, edit)
        assert self._evaluate(tmp_path, subjects, preds) == 5
        assert "endpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["drop", "repeat"])
    def test_rows_not_covering_the_grid_once_is_compat_error(self, tmp_path,
                                                             capsys, change):
        subjects, preds = self._pipeline(tmp_path)
        edited = []

        def edit(rows):
            edited.append(rows[5][0])
            if change == "drop":
                return rows[:5] + rows[6:]
            return rows[:5] + [rows[5]] + rows[5:]
        self._edit_rows(preds, edit)
        assert self._evaluate(tmp_path, subjects, preds) == 5
        err = capsys.readouterr().err
        assert "exactly once" in err and repr(edited[0]) in err

    @pytest.mark.parametrize("chunk_rows", range(1, 18))
    def test_repeated_and_missing_intervals_name_every_such_subject(self, tmp_path,
                                                                    chunk_rows):
        # a lacks interval 3, b repeats 2, c repeats 2 and lacks 3 in as
        # many rows as intervals; at each block size a repeat falls within
        # a block or across two
        grid = build_time_grid(20.0, 5.0)
        kept = {"a": [1, 2, 4], "b": [1, 2, 2, 3, 4], "c": [1, 2, 2, 4], "d": [1, 2, 3, 4]}
        path = tmp_path / "predictions.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["id", "interval", "time", "cif_1"]] + [
                [sid, t, repr(5.0 * t), "0.1"] for sid, ts in kept.items() for t in ts])
        with pytest.raises(fcrn.cli.CliError) as e:
            fcrn.cli.read_predictions(path, list(kept), grid, chunk_rows)
        assert e.value.code == 5
        assert str(e.value) == ("prediction rows of 3 subject(s) do not cover "
                                "intervals 1..4 exactly once, first 'a'")

    def test_predictions_on_a_coarser_grid_are_compat_error(self, tmp_path):
        # a 20-interval model's rows do not fill a 40-interval evaluation grid
        subjects, preds = self._pipeline(tmp_path)
        assert self._evaluate(tmp_path, subjects, preds, "--set",
                              "grid.width=2.5") == 5

    def test_subject_beyond_the_grid_is_compat_error(self, tmp_path, capsys):
        subjects, preds = self._pipeline(tmp_path)
        with open(subjects, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][1] = "150.0"
        with open(subjects, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert self._evaluate(tmp_path, subjects, preds) == 5
        assert "time 150 outside evaluation grid" in capsys.readouterr().err

    def test_malformed_prediction_row_is_schema_error(self, tmp_path, capsys):
        # a nan or inf cell used to be scored, printing IBS nan or inf
        subjects, preds = self._pipeline(tmp_path)

        original = preds.read_bytes()
        for column in (3, 5):  # cif_1, then survival
            for text in ("oops", "nan", "inf"):
                def edit(rows):
                    rows[7][column] = text
                    return rows
                preds.write_bytes(original)
                self._edit_rows(preds, edit)
                assert self._evaluate(tmp_path, subjects, preds) == 3
                assert "row 9" in capsys.readouterr().err

    @pytest.mark.parametrize("column, text", [(1, "nan"), (1, "inf"), (1, "1e400"),
                                              (4, "inf"), (4, "-inf")])
    def test_non_finite_subject_cell_is_schema_error(self, tmp_path, capsys, column,
                                                     text):
        # a nan time used to pass every command (assign_intervals put it in
        # interval L) and an inf one to exit 5 in predict and evaluate; an
        # infinite covariate made train exit 4 and predict crash
        subjects, preds = self._pipeline(tmp_path)
        bad = tmp_path / "bad.csv"
        write_with_cells(subjects, bad, {(3, column): text})
        for command in (["train"],
                        ["predict", "--model", str(tmp_path / "run" / "model.json")],
                        ["evaluate", "--predictions", str(preds)]):
            assert run(sets(out_dir=str(tmp_path / "out"), data__subjects=str(bad),
                            train__max_epochs=1) + command) == 3
            assert "bad.csv row 3 column %s: bad numeric cell %r" % (
                "time" if column == 1 else "x2", text) in capsys.readouterr().err


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """The rows (header first) of a simulated 24-subject cohort's train and
    test subject files, by file name."""
    d = tmp_path_factory.mktemp("cohort")
    simulate_small(d, n=24, seed=8)
    out = {}
    for name in ("train_subjects.csv", "test_subjects.csv"):
        with open(d / name, newline="") as fh:
            out[name] = list(csv.reader(fh))
    return out


class TestMutatedSubjectCells:
    TEXTS = ["", "nan", "inf", "-inf", "-1", "1e400", "x"]

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_train_and_predict_exit_with_a_documented_code(self, cohort, data):
        # time, cause and covariate cells of both files take blank, non-finite,
        # negative, overflowing or garbled texts; no exception may escape
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, rows in cohort.items():
                rows = [list(row) for row in rows]
                for _ in range(data.draw(st.integers(0, 2))):
                    row = rows[data.draw(st.integers(1, len(rows) - 1))]
                    row[data.draw(st.integers(1, len(row) - 1))] = \
                        data.draw(st.sampled_from(self.TEXTS))
                with open(tmp / name, "w", newline="") as fh:
                    csv.writer(fh).writerows(rows)
            code = run(train_args(tmp / "run", tmp, extra=sets(
                train__max_epochs=1, train__hidden=[4])))
            assert code in (0, 2, 3, 4, 5)
            if code == 0:
                code = run(sets(out_dir=str(tmp / "pred"),
                                data__subjects=str(tmp / "test_subjects.csv"))
                           + ["predict", "--model", str(tmp / "run" / "model.json")])
                assert code in (0, 2, 3, 4, 5)


class TestExtremeMagnitudes:
    """train never exits 0 with a model file that predict rejects: with
    cells of any binary64 magnitude, constant columns, single-cause data
    and curve values of any magnitude, train exits 3 (a normalization mean
    or std that is not finite) or 4, or its model predicts valid CIFs."""

    @staticmethod
    def _magnitude(data):
        exponent = st.one_of(st.integers(-3, 3), st.integers(-320, 308))
        return data.draw(st.sampled_from([1.0, -1.0, 1.5, -1.5])) * float(
            "1e%d" % data.draw(exponent))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_train_exits_0_only_with_a_model_predict_reads(self, data):
        n, p = 10, 3
        causes = data.draw(st.sampled_from([(1,), (2,), (0, 1), (0, 2), (0, 1, 2)]))
        head = data.draw(st.sampled_from(["csm", "sdm"]))
        columns = []
        for _ in range(p):
            how = data.draw(st.sampled_from(["constant", "one scale", "any scale"]))
            if how == "constant":
                columns.append([self._magnitude(data)] * n)
            elif how == "one scale":
                scale = self._magnitude(data)
                columns.append([scale * data.draw(st.sampled_from([0.5, 1.0, 1.25]))
                                for _ in range(n)])
            else:
                columns.append([self._magnitude(data) for _ in range(n)])
        rows = [["id", "time", "cause"] + ["x%d" % (j + 1) for j in range(p)]]
        for i in range(n):
            rows.append(["s%d" % i, repr(5.0 + 9.0 * i),
                         str(data.draw(st.sampled_from(causes)))]
                        + [repr(col[i]) for col in columns])
        curves = [["id", "signal_name", "tau", "value"]]
        curve_scale = self._magnitude(data)
        for i in range(n):
            curves += [["s%d" % i, "signal1", repr(t),
                        repr(curve_scale * (1 - 0.05 * i * t))] for t in (0.0, 0.5, 1.0)]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, table in (("subjects.csv", rows), ("curves.csv", curves)):
                with open(tmp / name, "w", newline="") as fh:
                    csv.writer(fh).writerows(table)
            files = sets(data__subjects=str(tmp / "subjects.csv"),
                         data__curves=str(tmp / "curves.csv"))
            code = run(sets(out_dir=str(tmp / "run"), train__max_epochs=2,
                            train__hidden=[4], train__head=head) + files + ["train"])
            assert code in (0, 3, 4)
            if code:
                return
            assert run(sets(out_dir=str(tmp / "pred")) + files + [
                "predict", "--model", str(tmp / "run" / "model.json")]) == 0
            with open(tmp / "pred" / "predictions.csv", newline="") as fh:
                header, *lines = list(csv.reader(fh))
        values = np.array([[float(v) for v in line[3:]] for line in lines])
        cifs = values[:, :-1] if head == "csm" else values
        assert np.all((cifs >= 0.0) & (cifs <= 1.0))
        # each subject's CIFs rise over its intervals
        assert np.all(np.diff(cifs.reshape(n, -1, cifs.shape[1]), axis=1) >= 0.0)
        if head == "csm":
            largest = max(int(row[2]) for row in rows[1:])
            assert header[3:] == ["cif_%d" % m for m in range(1, largest + 1)] + [
                "survival"]
            assert np.allclose(values.sum(axis=1), 1.0, atol=1e-9)


def mutated_rows(rows, data, texts):
    """rows (header first) with 0-2 cells set to one of texts, then 0-2 rows
    dropped, duplicated or blanked; the header stays."""
    rows = [list(row) for row in rows]
    for _ in range(data.draw(st.integers(0, 2))):
        row = rows[data.draw(st.integers(1, len(rows) - 1))]
        if row:
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from(texts))
    for _ in range(data.draw(st.integers(0, 2))):
        k = data.draw(st.integers(1, len(rows) - 1))
        how = data.draw(st.sampled_from(["drop", "duplicate", "blank"]))
        if how == "drop" and len(rows) > 2:
            del rows[k]
        elif how == "duplicate":
            rows.insert(k, list(rows[k]))
        else:
            rows[k] = []
    return rows


class TestMutatedCurvesAndPredictions:
    TEXTS = ["", "nan", "inf", "-1", "1e400", "x", "1_0", "0.5", "2", "s0", "a,b",
             'q"q', "signal9", " 1 ", "\x1c1"]

    def _write(self, path, rows):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_predict_with_mutated_curves_exits_with_a_documented_code(self, fitted,
                                                                       data):
        with open(fitted / "test_curves.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            self._write(tmp / "curves.csv", mutated_rows(rows, data, self.TEXTS))
            code = run(sets(out_dir=str(tmp / "pred"),
                            data__subjects=str(fitted / "test_subjects.csv"),
                            data__curves=str(tmp / "curves.csv"))
                       + ["predict", "--model", str(fitted / "run" / "model.json")])
        assert code in (0, 2, 3, 4, 5)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_evaluate_with_mutated_predictions_exits_with_a_documented_code(
            self, fitted, data):
        with open(fitted / "pred" / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            self._write(tmp / "predictions.csv", mutated_rows(rows, data, self.TEXTS))
            code = run(sets(out_dir=str(tmp / "eval"),
                            data__subjects=str(fitted / "test_subjects.csv"))
                       + ["evaluate", "--predictions", str(tmp / "predictions.csv")])
        assert code in (0, 2, 3, 4, 5)


def cut_columns(text, data):
    """CSV text with one header name removed, one whole column removed, or
    cut inside a line, as drawn from data."""
    lines = text.split("\r\n")
    how = data.draw(st.sampled_from(["header name", "column", "cut"]))
    if how == "cut":
        k = data.draw(st.integers(0, len(lines) - 2))
        at = data.draw(st.integers(1, max(1, len(lines[k]) - 1)))
        return "\r\n".join(lines[:k] + [lines[k][:at]])
    rows = list(csv.reader(lines[:-1]))
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    for row in rows[:1] if how == "header name" else rows:
        del row[j]
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue()


class TestMutatedFileShapes:
    """A subjects, curves or predictions file with a header name removed, a
    whole column removed, or cut mid-line, run through each command that
    reads it; train's model then through predict."""

    COMMANDS = {"train_subjects.csv": ["train", "predict"],
                "train_curves.csv": ["train", "predict"],
                "test_subjects.csv": ["predict", "evaluate"],
                "test_curves.csv": ["predict"], "predictions.csv": ["evaluate"]}

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(data=st.data())
    def test_commands_exit_with_a_documented_code(self, fitted, data):
        name = data.draw(st.sampled_from(sorted(self.COMMANDS)))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            files = {k: fitted / k for k in self.COMMANDS}
            files["predictions.csv"] = fitted / "pred" / "predictions.csv"
            text = cut_columns(files[name].read_bytes().decode(), data)
            files[name] = tmp / name
            files[name].write_bytes(text.encode())
            model = fitted / "run" / "model.json"
            for command in self.COMMANDS[name]:
                if command == "train":
                    model = tmp / "run" / "model.json"
                    code = run(sets(out_dir=str(tmp / "run"),
                                    data__subjects=str(files["train_subjects.csv"]),
                                    data__curves=str(files["train_curves.csv"]),
                                    train__max_epochs=1, train__hidden=[4]) + ["train"])
                elif command == "predict":
                    if not model.exists():
                        break  # train exited with an error code
                    code = run(sets(out_dir=str(tmp / "pred"),
                                    data__subjects=str(files["test_subjects.csv"]),
                                    data__curves=str(files["test_curves.csv"]))
                               + ["predict", "--model", str(model)])
                else:
                    code = run(sets(out_dir=str(tmp / "eval"),
                                    data__subjects=str(files["test_subjects.csv"]))
                               + ["evaluate", "--predictions",
                                  str(files["predictions.csv"])])
                assert code in (0, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """The directory of a simulated functional cohort, its one-epoch csm
    model (run/model.json) and that model's test-set predictions
    (pred/predictions.csv); test_missing.csv is its test subjects file with
    the first subject's x3 cell blank."""
    d = tmp_path_factory.mktemp("fitted")
    simulate_small(d, n=24, functional=True, seed=9)
    assert run(train_args(d / "run", d, functional=True, extra=sets(
        train__max_epochs=1, train__hidden=[4]))) == 0
    write_with_cells(d / "test_subjects.csv", d / "test_missing.csv", {(2, 5): ""})
    assert run(sets(out_dir=str(d / "pred"), data__subjects=str(d / "test_subjects.csv"),
                    data__curves=str(d / "test_curves.csv"))
               + ["predict", "--model", str(d / "run" / "model.json")]) == 0
    return d


class TestUnreadableInputFiles:
    """A byte that is not UTF-8, or a cell longer than csv's field size
    limit, in any of the three input files exits 3 and names the file."""

    SOURCES = {"subjects": "test_subjects.csv", "curves": "test_curves.csv",
               "predictions": "pred/predictions.csv"}

    def _run(self, fitted, name, path):
        """The exit code of predict (evaluate for predictions) on the fitted
        cohort's test files, with the file name read from path instead."""
        files = {k: fitted / v for k, v in self.SOURCES.items()}
        files[name] = path
        if name == "predictions":
            return run(sets(out_dir=str(path.parent / "eval"),
                            data__subjects=str(files["subjects"]))
                       + ["evaluate", "--predictions", str(files["predictions"])])
        return run(sets(out_dir=str(path.parent / "pred"),
                        data__subjects=str(files["subjects"]),
                        data__curves=str(files["curves"]))
                   + ["predict", "--model", str(fitted / "run" / "model.json")])

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_byte_that_is_not_utf8_is_schema_error(self, fitted, tmp_path, capsys,
                                                   name):
        lines = (fitted / self.SOURCES[name]).read_bytes().split(b"\r\n")
        lines[2] = b"\xff" + lines[2]
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\r\n".join(lines))
        assert self._run(fitted, name, path) == 3
        assert capsys.readouterr().err == ("error: %s: byte 0xff is not UTF-8 text\n"
                                           % path)

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_cell_longer_than_the_csv_field_limit_is_schema_error(
            self, fitted, tmp_path, capsys, name):
        limit = csv.field_size_limit()
        path = tmp_path / "long.csv"
        write_with_cells(fitted / self.SOURCES[name], path, {(3, 0): "s" * (limit + 1)})
        assert self._run(fitted, name, path) == 3
        assert capsys.readouterr().err == (
            "error: %s row 3: field larger than field limit (%d)\n" % (path, limit))


@pytest.fixture(scope="module")
def fitted_sdm(fitted):
    """The fitted cohort's one-epoch sdm model on cause 1 (sdm_run/model.json)."""
    assert run(train_args(fitted / "sdm_run", fitted, functional=True, extra=sets(
        train__max_epochs=1, train__hidden=[4], train__head="sdm", train__cause=1))) == 0
    return fitted / "sdm_run" / "model.json"


def predict_with_model(fitted, model, out):
    """predict's exit code on the fitted cohort's test files with the model
    dict written to out/model.json."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "model.json").write_text(json.dumps(model))
    return run(sets(out_dir=str(out), data__subjects=str(fitted / "test_missing.csv"),
                    data__curves=str(fitted / "test_curves.csv"))
               + ["predict", "--model", str(out / "model.json")])


class TestMutatedModelFile:
    def _load(self, fitted):
        return json.loads((fitted / "run" / "model.json").read_text())

    def _assert_schema_error(self, fitted, model, tmp_path, capsys, field):
        assert predict_with_model(fitted, model, tmp_path) == 3
        err = capsys.readouterr().err
        assert str(tmp_path / "model.json") in err and "field %s" % field in err
        assert not (tmp_path / "predictions.csv").exists()

    def test_grid_without_cuts_is_schema_error(self, fitted, tmp_path, capsys):
        # used to exit 1 with an IndexError
        model = self._load(fitted)
        model["grid"]["cuts"] = []
        self._assert_schema_error(fitted, model, tmp_path, capsys, "grid")

    def test_norm_mean_shorter_than_the_covariates_is_schema_error(self, fitted,
                                                                   tmp_path, capsys):
        # used to exit 1 with a broadcast ValueError
        model = self._load(fitted)
        model["norm_mean"].pop()
        self._assert_schema_error(fitted, model, tmp_path, capsys, "norm_mean")

    def test_null_fill_values_is_schema_error(self, fitted, tmp_path, capsys):
        # used to exit 0 with nan CIFs for the subject with a missing cell
        model = self._load(fitted)
        model["fill_values"] = None
        self._assert_schema_error(fitted, model, tmp_path, capsys, "fill_values")

    def test_huge_hidden_width_is_schema_error(self, fitted, tmp_path, capsys):
        # used to exit 1 allocating 10^13 hidden units before the file was
        # checked against its own weight arrays
        model = self._load(fitted)
        model["hidden"][0] = 10 ** 13
        self._assert_schema_error(fitted, model, tmp_path, capsys, "hidden")

    def test_huge_micro_depth_is_schema_error(self, fitted, tmp_path, capsys):
        # used to loop without end listing 10^400 sublayer shapes
        model = self._load(fitted)
        model["basis_layers"][0]["micro_depth"] = 10 ** 400
        self._assert_schema_error(fitted, model, tmp_path, capsys, "micro_depth")

    def test_repeated_signal_name_is_schema_error(self, fitted, tmp_path, capsys):
        # used to exit 0, predicting with one signal's weights and curves twice
        model = self._load(fitted)
        layers = model["basis_layers"]
        layers[1]["name"] = layers[0]["name"]
        self._assert_schema_error(fitted, model, tmp_path, capsys, "basis_layers")

    @pytest.mark.parametrize("field, value", [("hidden", [4.0]), ("hidden", [True]),
                                              ("n_tabular", 10.0), ("n_causes", True),
                                              ("micro_width", 16.0)])
    def test_size_field_that_is_no_integer_is_schema_error(self, fitted, tmp_path,
                                                           capsys, field, value):
        # a float hidden width used to exit 3 naming no field
        model = self._load(fitted)
        assert model["hidden"] == [4] and model["n_tabular"] == 10
        if field == "micro_width":
            model["basis_layers"][0][field] = value
        else:
            model[field] = value
        self._assert_schema_error(fitted, model, tmp_path, capsys, field)

    @pytest.mark.parametrize("change", [-1, 1])
    def test_params_of_another_length_is_schema_error(self, fitted, tmp_path, capsys,
                                                      change):
        model = self._load(fitted)
        model["params"] = model["params"][:-1] if change < 0 else model["params"] + [0.5]
        self._assert_schema_error(fitted, model, tmp_path, capsys, "params")

    @pytest.mark.parametrize("version", [3, None, 2.0, "2", "(absent)"])
    def test_unknown_schema_version_is_schema_error(self, fitted, tmp_path, capsys,
                                                    version):
        # a file without schema_version was read as version 1
        model = self._load(fitted)
        assert model["schema_version"] == 2
        if version == "(absent)":
            del model["schema_version"]
        else:
            model["schema_version"] = version
        self._assert_schema_error(fitted, model, tmp_path, capsys,
                                  "'schema_version'" if version == "(absent)"
                                  else "schema_version")

    @pytest.mark.parametrize("field, value", [("mlp_w", [[1.0]]), ("schema_versoin", 3)])
    def test_field_the_writer_does_not_write_is_schema_error(self, fitted, tmp_path,
                                                             capsys, field, value):
        # each loaded and saved back without the field
        model = self._load(fitted)
        model[field] = value
        self._assert_schema_error(fitted, model, tmp_path, capsys, field)

    @pytest.mark.parametrize("width", ["5", -3.0, 10.0])
    def test_grid_width_that_is_not_the_spacing_is_schema_error(self, fitted, tmp_path,
                                                                capsys, width):
        # each loaded: the width was saved back as it was read, never checked
        model = self._load(fitted)
        assert model["grid"]["width"] == 5.0 and model["grid"]["cuts"][:2] == [0.0, 5.0]
        model["grid"]["width"] = width
        self._assert_schema_error(fitted, model, tmp_path, capsys, "grid")

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("path", [
        ("params", 0), ("grid", "width"), ("grid", "cuts", 0), ("grid", "cuts", 1),
        ("norm_mean", 0), ("norm_std", 0), ("fill_values", 0),
        ("basis_layers", 0, "taus", 0), ("basis_layers", 0, "mean"),
        ("basis_layers", 0, "std"), ("target_cause",)],
        ids=lambda path: ".".join(map(str, path)))
    def test_bool_where_a_number_belongs_is_schema_error(self, fitted, tmp_path,
                                                         capsys, path, value):
        # a JSON true loaded as 1.0 and a false as 0.0
        model = self._load(fitted)
        parent = model
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        self._assert_schema_error(fitted, model, tmp_path, capsys, path[0])

    def test_weights_that_overflow_the_forward_pass_are_numeric_error(
            self, fitted, tmp_path, capsys):
        # used to exit 0 with nan in every cif_ and survival cell, which
        # evaluate then rejected
        model = self._load(fitted)
        model["params"] = [v * 1e300 for v in model["params"]]
        assert np.isfinite(model["params"]).all()
        assert predict_with_model(fitted, model, tmp_path) == 4
        with open(fitted / "test_missing.csv", newline="") as fh:
            first = list(csv.reader(fh))[1][0]
        err = capsys.readouterr().err
        assert str(tmp_path / "model.json") in err and "subject %r" % first in err
        assert not (tmp_path / "predictions.csv").exists()

    def test_sdm_target_cause_beyond_its_cause_count_is_schema_error(
            self, fitted, fitted_sdm, tmp_path, capsys):
        # used to exit 0 with a cif_3 column for a cause the model never learned
        model = json.loads(fitted_sdm.read_text())
        assert model["n_causes"] == 2 and model["target_cause"] == 1
        model["target_cause"] = 3
        assert predict_with_model(fitted, model, tmp_path) == 3
        err = capsys.readouterr().err
        assert str(tmp_path / "model.json") in err
        assert "SDM target cause 3 exceeds n_causes 2" in err
        assert not (tmp_path / "predictions.csv").exists()

    @pytest.mark.parametrize("n_causes", ["x", 2.5, [2]])
    def test_sdm_cause_count_that_is_no_integer_is_schema_error(
            self, fitted, fitted_sdm, tmp_path, capsys, n_causes):
        # each used to load: only a csm file's n_causes was read as a size
        model = json.loads(fitted_sdm.read_text())
        model["n_causes"] = n_causes
        self._assert_schema_error(fitted, model, tmp_path, capsys, "n_causes")

    @pytest.mark.parametrize("field, value, message", [
        ("time_encoding", "foo", "time_encoding must be 'scalar' or 'onehot'"),
        ("target_cause", 0, "SDM head needs the target cause")])
    def test_value_only_the_model_rejects_is_schema_error(
            self, fitted, fitted_sdm, tmp_path, capsys, field, value, message):
        # no check of from_dict's own meets these: FCRNModel.__init__'s do
        model = json.loads(fitted_sdm.read_text())
        model[field] = value
        assert predict_with_model(fitted, model, tmp_path) == 3
        err = capsys.readouterr().err
        assert str(tmp_path / "model.json") in err and message in err
        assert not (tmp_path / "predictions.csv").exists()

    def test_top_level_value_that_is_no_object_is_schema_error(self, fitted, tmp_path,
                                                               capsys):
        assert predict_with_model(fitted, [1], tmp_path) == 3
        assert "a model file holds a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "predictions.csv").exists()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_predict_exits_with_a_documented_code(self, fitted, data):
        # top-level and per-signal fields deleted or set to null, a string,
        # [] or a huge integer; no exception may escape, and an exit 0
        # writes finite CIFs
        model = self._load(fitted)
        for _ in range(data.draw(st.integers(1, 2))):
            obj, layers = model, model.get("basis_layers")
            if isinstance(layers, list) and layers and data.draw(st.booleans()):
                obj = data.draw(st.sampled_from(layers))
            key = data.draw(st.sampled_from(sorted(obj)))
            value = data.draw(st.sampled_from(["(delete)", None, "x", [],
                                               10 ** 13, 10 ** 400]))
            if value == "(delete)":
                del obj[key]
            else:
                obj[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            code = predict_with_model(fitted, model, Path(tmp))
            assert code in (0, 2, 3, 4, 5)
            if code == 0:
                with open(Path(tmp) / "predictions.csv", newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
                assert np.isfinite([[float(v) for v in row[3:]] for row in rows]).all()
