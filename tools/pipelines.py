"""Run six seed-0 CLI pipelines and print a sha256 digest of every output.

    python3 tools/pipelines.py OUT_DIR

Each pipeline runs simulate -> train -> predict -> evaluate through
fcrn.cli.main, in process, from the src/ tree beside this script:

- cli-functional: 800/200 subjects with three signals, 5 epochs;
- cli-cohort: 10000/10000 tabular subjects, 3 epochs;
- sdm: an sdm head on cause 2, 300/100 subjects with signals, 5 epochs;
- mar: 25% MAR cells imputed by IRO and a search of the basis counts
  train.basis_grid=[2, 3], 300/100 subjects with signals, 4 epochs;
- onehot: a one-hot time feature (train.time_encoding="onehot"),
  300/100 subjects with signals, 4 epochs;
- sdm-mar: an sdm head on cause 1 with 25% MAR cells imputed by IRO,
  300/100 tabular subjects, 4 epochs. It is the one pipeline where the
  sdm loss, the input gradient and a first layer without basis
  coefficients meet.

stdout gets one "sha256  path" line per output file, the path relative to
OUT_DIR, in path order. config.resolved.json is left out, since it holds
the run's paths. The commands' own messages go to stderr. So two trees
give the same outputs when

    diff <(python3 tools/pipelines.py A) <(python3 tools/pipelines.py B)

prints nothing. A command that exits non-zero stops the run with exit 1.
"""
import contextlib
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import fcrn.cli  # noqa: E402

# name: (simulate overrides, train overrides)
PIPELINES = {
    "cli-functional": ({"n": 1000, "n_train": 800, "n_test": 200, "functional": True},
                       {"train.max_epochs": 5}),
    "cli-cohort": ({"n": 20000, "n_train": 10000, "n_test": 10000, "functional": False},
                   {"train.max_epochs": 3}),
    "sdm": ({"n": 400, "n_train": 300, "n_test": 100, "functional": True},
            {"train.max_epochs": 5, "train.head": "sdm", "train.cause": 2}),
    "mar": ({"n": 400, "n_train": 300, "n_test": 100, "functional": True,
             "missing_rate": 0.25},
            {"train.max_epochs": 4, "train.basis_grid": [2, 3]}),
    "onehot": ({"n": 400, "n_train": 300, "n_test": 100, "functional": True},
               {"train.max_epochs": 4, "train.time_encoding": "onehot"}),
    "sdm-mar": ({"n": 400, "n_train": 300, "n_test": 100, "functional": False,
                 "missing_rate": 0.25},
                {"train.max_epochs": 4, "train.head": "sdm", "train.cause": 1}),
}


def cli(command, overrides, *args):
    """fcrn.cli.main at seed 0 with the overrides; SystemExit on a failure."""
    argv = ["--set", "seed=0"]
    for key, value in overrides.items():
        argv += ["--set", "%s=%s" % (key, json.dumps(value))]
    with contextlib.redirect_stdout(sys.stderr):
        code = fcrn.cli.main(argv + [command, *args])
    if code != 0:
        raise SystemExit("%s exited %d" % (command, code))


def run(out_dir, name, sim, train):
    base = os.path.join(out_dir, name)
    data = {"data.subjects": os.path.join(base, "sim", "train_subjects.csv")}
    test = {"data.subjects": os.path.join(base, "sim", "test_subjects.csv")}
    if sim["functional"]:
        data["data.curves"] = os.path.join(base, "sim", "train_curves.csv")
        test["data.curves"] = os.path.join(base, "sim", "test_curves.csv")
    cli("simulate", {"out_dir": os.path.join(base, "sim"),
                     **{"simulate." + k: v for k, v in sim.items()}})
    cli("train", {"out_dir": os.path.join(base, "run"),
                  "train.patience": train["train.max_epochs"], **train, **data})
    cli("predict", {"out_dir": os.path.join(base, "pred"), **test},
        "--model", os.path.join(base, "run", "model.json"))
    cli("evaluate", {"out_dir": os.path.join(base, "eval"),
                     "data.subjects": test["data.subjects"]},
        "--predictions", os.path.join(base, "pred", "predictions.csv"))


def digests(out_dir):
    """(sha256, path relative to out_dir) of every output file, in path order."""
    paths = sorted(os.path.relpath(os.path.join(root, f), out_dir)
                   for root, _, files in os.walk(out_dir) for f in files
                   if f != "config.resolved.json")
    for path in paths:
        with open(os.path.join(out_dir, path), "rb") as fh:
            yield hashlib.sha256(fh.read()).hexdigest(), path


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: python3 tools/pipelines.py OUT_DIR")
    out_dir = argv[0]
    for name, (sim, train) in PIPELINES.items():
        run(out_dir, name, sim, train)
    for digest, path in digests(out_dir):
        print("%s  %s" % (digest, path))


if __name__ == "__main__":
    main(sys.argv[1:])
