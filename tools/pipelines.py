"""Run eight seed-0 CLI pipelines and print a sha256 digest of every output.

    python3 tools/pipelines.py [--reach] OUT_DIR

Each pipeline runs simulate -> train -> predict -> evaluate through
fcrn.cli.main, in process, from the src/ tree beside this script, except
that irregular writes its subjects and curves itself:

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
- irregular: 300/100 subjects with five N(0, 1) covariates and one
  random cubic B-spline curve each, sampled at 10 or 20 uniform draws on
  [0, 1], 4 epochs. The cause-1 hazard reads the curve. The union of the
  sample times exceeds CANONICAL_GRID_CAP, so the model resamples every
  curve, by np.interp between its sample points, onto an evenly spaced
  grid. Four subjects' ids, s,1 s"2 p%d and "q%s, need quoting or hold
  %, so the writers' quoting and %-templates meet them.
- patience: 300/100 tabular subjects, train.patience=2 and
  train.max_epochs=40, so the fit stops on patience and restores its
  best epoch.

stdout gets one "sha256  path" line per output file, the path relative to
OUT_DIR, in path order. config.resolved.json is left out, since it holds
the run's paths. The commands' own messages go to stderr. So two trees
give the same outputs when

    diff <(python3 tools/pipelines.py A) <(python3 tools/pipelines.py B)

prints nothing. A command that exits non-zero stops the run with exit 1.

With --reach, the pipelines run under sys.settrace, and stdout instead
gets "file:line: text" for every statement inside a function of
src/fcrn that no pipeline ran. Module-level lines are left out: they
run at import, before the trace starts.
"""
import ast
import contextlib
import glob
import hashlib
import inspect
import json
import os
import sys
import types

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
PACKAGE = os.path.normpath(os.path.join(SRC, "fcrn"))
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import fcrn.cli  # noqa: E402
from fcrn.data import Dataset, Signal, write_curves_csv, write_subjects_csv  # noqa: E402
from fcrn.simulate import bspline_design  # noqa: E402


def irregular(sim_dir):
    """Write the irregular pipeline's 300 train and 100 test subjects and
    their curves, each a cubic B-spline with 8 basis functions.

    Cause-1 times are exponential with rate 0.02 exp(s + 0.3 x1), where s
    is the standardized trapezoid integral of sin(2 pi tau) x(tau) over
    the full curve on 51 points. Cause-2 times are exponential with mean
    60, and censoring is uniform on (0, 120), capped at 100.
    """
    rng = np.random.RandomState(0)
    n, n_train, n_basis = 400, 300, 8
    X = rng.standard_normal((n, 5))
    coefs = rng.standard_normal((n, n_basis))
    dense = np.linspace(0.0, 1.0, 51)
    curves = coefs @ bspline_design(dense, n_basis).T
    s = np.trapezoid(curves * np.sin(2 * np.pi * dense), dense, axis=1)
    s = (s - s.mean()) / s.std()
    taus = [np.sort(rng.uniform(0.0, 1.0, rng.choice([10, 20]))) for _ in range(n)]
    values = [bspline_design(t, n_basis) @ c for t, c in zip(taus, coefs)]
    offsets = np.concatenate([[0], np.cumsum([len(t) for t in taus])])
    t1 = rng.exponential(1.0 / (0.02 * np.exp(s + 0.3 * X[:, 0])))
    t2 = rng.exponential(60.0, n)
    c = np.minimum(rng.uniform(0.0, 120.0, n), 100.0)
    # censoring comes first, so it wins a tie and every time of 100 is censored
    stacked = np.column_stack([c, t1, t2])
    cause = np.argmin(stacked, axis=1)
    signal = Signal(np.concatenate(taus), np.concatenate(values), offsets)
    ids = ["s%04d" % i for i in range(n)]
    # ids that csv quotes or that hold %, in both the train and test parts
    for i, sid in zip((0, 7, 150, 333), ('s,1', 's"2', 'p%d', '"q%s,')):
        ids[i] = sid
    ds = Dataset(ids, stacked[np.arange(n), cause], cause, X, {"signal1": signal})
    os.makedirs(sim_dir, exist_ok=True)
    for part, rows in (("train", np.arange(n_train)), ("test", np.arange(n_train, n))):
        subjects = ds.take(rows)
        write_subjects_csv(os.path.join(sim_dir, "%s_subjects.csv" % part), subjects)
        write_curves_csv(os.path.join(sim_dir, "%s_curves.csv" % part), subjects)


# name: (simulate overrides or a function that writes the sim directory,
# train overrides)
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
    "irregular": (irregular, {"train.max_epochs": 4}),
    "patience": ({"n": 400, "n_train": 300, "n_test": 100, "functional": False},
                 {"train.max_epochs": 40, "train.patience": 2}),
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
    if callable(sim) or sim["functional"]:
        data["data.curves"] = os.path.join(base, "sim", "train_curves.csv")
        test["data.curves"] = os.path.join(base, "sim", "test_curves.csv")
    if callable(sim):
        sim(os.path.join(base, "sim"))
    else:
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


def statements(path):
    """{line: first line of the innermost statement that holds it} for each
    line of code inside path's functions. A def line runs in the enclosing
    scope, so each function's own first line is left out unless it is a
    lambda's."""
    with open(path) as fh:
        text = fh.read()
    start = {}
    for node in ast.walk(ast.parse(text)):  # outer statements before inner ones
        if isinstance(node, ast.stmt):
            start.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1),
                                       node.lineno))
    todo, lines = [compile(text, path, "exec")], set()
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
            lines |= {line for _, _, line in code.co_lines() if line and (
                line != code.co_firstlineno or code.co_name == "<lambda>")}
    return {line: start[line] for line in lines}


def unreached(out_dir):
    """Run the pipelines, tracing every line of src/fcrn that they run.

    Returns the (path, first line) of each statement inside a function that
    none ran, and the count of such statements. co_filename holds SRC's
    "..", so paths are compared normalized. A function that only runs at
    import, such as config._defaults, is listed too."""
    ran = set()

    def trace(frame, event, arg):
        if os.path.normpath(frame.f_code.co_filename).startswith(PACKAGE + os.sep):
            return trace_lines

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    sys.settrace(trace)
    try:
        for name, (sim, train) in PIPELINES.items():
            run(out_dir, name, sim, train)
    finally:
        sys.settrace(None)
    missed, total = [], 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        starts = statements(path)
        every = set(starts.values())
        reached = {starts.get(line) for p, line in ran if os.path.normpath(p) == path}
        missed += [(path, start) for start in sorted(every - reached)]
        total += len(every)
    return missed, total


def main(argv):
    reach = argv[:1] == ["--reach"]
    if len(argv) != 1 + reach:
        raise SystemExit("usage: python3 tools/pipelines.py [--reach] OUT_DIR")
    out_dir = argv[-1]
    if reach:
        missed, total = unreached(out_dir)
        for path, line in missed:
            with open(path) as fh:
                text = fh.read().splitlines()[line - 1].strip()
            print("%s:%d: %s" % (os.path.relpath(path, os.path.dirname(SRC)), line, text))
        print("%d of %d statements inside functions never ran" % (len(missed), total),
              file=sys.stderr)
        return
    for name, (sim, train) in PIPELINES.items():
        run(out_dir, name, sim, train)
    for digest, path in digests(out_dir):
        print("%s  %s" % (digest, path))


if __name__ == "__main__":
    main(sys.argv[1:])
