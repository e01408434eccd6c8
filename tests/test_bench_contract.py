"""The benchmark's tracer wraps fcrn callables by name from outside the
package; every (owner, attribute) it lists must still exist."""
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves(tracing):
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in tracing.TRACE_POINTS
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_tracer_installs_and_uninstalls(tracing):
    import fcrn.autodiff
    original = fcrn.autodiff.adam_step
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fcrn.autodiff.adam_step is not original
    finally:
        tracer.uninstall()
    assert fcrn.autodiff.adam_step is original


def test_scoring_pass_calls_the_traced_names(tmp_path, monkeypatch):
    """predict and evaluate reach read_subjects_csv, censoring_survival and
    score_cif through fcrn.cli's names, where the tracer wraps them, so its
    data.read_subjects, data.km and metrics.score layers cannot fall to 0
    unnoticed."""
    import json

    import fcrn.cli

    calls = {}
    for name in ("read_subjects_csv", "censoring_survival", "score_cif"):
        def counted(*args, _real=getattr(fcrn.cli, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(fcrn.cli, name, counted)

    def cli(command, **overrides):
        calls.clear()
        args = []
        for key, value in overrides.items():
            args += ["--set", "%s=%s" % (key, json.dumps(value))]
        assert fcrn.cli.main(args + command) == 0
        return dict(calls)

    sim, run = str(tmp_path / "sim"), str(tmp_path / "run")
    cli(["simulate"], out_dir=sim, **{"simulate.n": 40, "simulate.n_train": 30,
                                      "simulate.n_test": 10,
                                      "simulate.functional": False})
    test = sim + "/test_subjects.csv"
    cli(["train"], out_dir=run, **{"data.subjects": sim + "/train_subjects.csv",
                                   "train.max_epochs": 2})
    predict = cli(["predict", "--model", run + "/model.json"],
                  out_dir=str(tmp_path / "pred"), **{"data.subjects": test})
    assert predict == {"read_subjects_csv": 1}
    evaluate = cli(["evaluate", "--predictions",
                    str(tmp_path / "pred" / "predictions.csv")],
                   out_dir=str(tmp_path / "eval"),
                   **{"data.subjects": test, "evaluate.horizons": [50, 100]})
    # two causes at two horizons
    assert evaluate == {"read_subjects_csv": 1, "censoring_survival": 1,
                        "score_cif": 4}


def test_i_step_layers_are_traced(tracing):
    """A traced imputing fit reports non-zero graphical-model, prior-gradient,
    epoch-0 prediction-gradient and I-step spans and counts every missing
    cell of every I-step pass, so the benchmark's impute.* metrics cannot
    fall to 0 unnoticed."""
    import fcrn.data
    import fcrn.impute
    import fcrn.model
    import fcrn.simulate

    train, _, _ = fcrn.simulate.simulate(fcrn.simulate.SimConfig(
        n=50, n_train=40, n_test=10, functional=False, missing_rate=0.25))
    epochs, repeats = 2, 2
    settings = fcrn.model.TrainSettings(max_epochs=epochs, hidden=(4,),
                                        val_fraction=0.0)
    imp = fcrn.impute.ImputeSettings(noise=False, i_repeats=repeats,
                                     max_epochs=epochs, rel_tol=0.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fcrn.impute.iro_train(train, fcrn.data.build_time_grid(100.0, 5.0), "csm",
                              settings, impute_settings=imp, n_causes=2)
    finally:
        tracer.uninstall()
    incl, _ = tracer.layer_times("setup")
    for name in ("impute.ggm_fit", "impute.prior_grad", "impute.pred_grad",
                 "impute.i_step"):
        assert incl[name] > 0.0, name
    counts = tracer.counts["setup"]
    assert counts["impute.rejected"] == 0
    assert counts["impute.cells_updated"] == train.mask.sum() * epochs * repeats


def test_per_layer_counters_read_their_arguments(tracing):
    """The counters read BasisLayer.project's curve matrix (args[1]) and
    FCRNModel.forward_logits's subject indices (args[3]) by position, so a
    traced functional fit and prediction must count epochs, batches,
    person-period rows and projected subjects, and time each step."""
    import fcrn.data
    import fcrn.model
    import fcrn.simulate

    train, test, _ = fcrn.simulate.simulate(fcrn.simulate.SimConfig(
        n=40, n_train=30, n_test=10, n_signals=1, n_sample_points=11))
    settings = fcrn.model.TrainSettings(max_epochs=2, patience=5, hidden=(4,))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model = fcrn.model.train_model(train, fcrn.data.build_time_grid(100.0, 10.0),
                                       "csm", settings, n_causes=2)
        model.predict_cif(test)
    finally:
        tracer.uninstall()
    counts = tracer.counts["setup"]
    assert counts["model.epochs"] == 2
    for name in ("model.batches", "data.rows", "basis.subjects_projected",
                 "basis.subjects_needed"):
        assert counts[name] > 0, name
    assert tracer.batch_ms("setup")


def test_each_adam_batch_calls_every_step_layer_once(monkeypatch):
    """The benchmark's model.forward, model.loss, autodiff.backward,
    autodiff.adam and basis.project spans, and its model.batches count,
    assume this call pattern: a complete-data functional fit without a
    holdout calls FCRNModel.forward_logits, FCRNModel.batch_loss,
    autodiff.backward and autodiff.adam_step once per Adam batch,
    ceil(training rows / batch_size) times per epoch, and
    BasisLayer.project once per signal per batch."""
    import math
    from collections import Counter

    import fcrn.autodiff
    import fcrn.basis
    import fcrn.data
    import fcrn.model
    import fcrn.simulate

    calls = Counter()
    for owner, attr in ((fcrn.model.FCRNModel, "forward_logits"),
                        (fcrn.model.FCRNModel, "batch_loss"),
                        (fcrn.autodiff, "backward"), (fcrn.autodiff, "adam_step"),
                        (fcrn.basis.BasisLayer, "project")):
        def counted(*args, _real=getattr(owner, attr), _name=attr, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    train, _, _ = fcrn.simulate.simulate(fcrn.simulate.SimConfig(
        n=40, n_train=30, n_test=10, n_signals=2, n_sample_points=11))
    grid = fcrn.data.build_time_grid(100.0, 10.0)
    epochs, batch_size = 3, 16
    settings = fcrn.model.TrainSettings(max_epochs=epochs, patience=epochs, hidden=(4,),
                                        val_fraction=0.0, batch_size=batch_size)
    model = fcrn.model.train_model(train, grid, "csm", settings, n_causes=2)
    rows = len(fcrn.model.build_table(train, grid, model))
    assert len(model.history) == epochs
    assert rows % batch_size  # a short last batch is counted too
    batches = epochs * math.ceil(rows / batch_size)
    assert calls == {"forward_logits": batches, "batch_loss": batches,
                     "backward": batches, "adam_step": batches,
                     "project": batches * len(train.signals)}


def test_cli_workload_keys_load(tmp_path, monkeypatch):
    """Every --set key that the benchmark's CliWorkload passes to
    fcrn.cli.main is a config key: a key removed from config.DEFAULTS
    would otherwise show only as a run_failed benchmark. The commands are
    recorded, not run."""
    import fcrn.cli
    from fcrn.config import load_config

    monkeypatch.syspath_prepend(str(TRACING.parent))
    import workloads

    argvs = []

    def recorded(argv):
        argvs.append(argv)
        return 0
    monkeypatch.setattr(fcrn.cli, "main", recorded)
    workload = workloads.CliWorkload(seed=1, workdir=str(tmp_path), n_train=8, n_test=2,
                                     functional=True, epochs=1, score_passes=1)
    monkeypatch.setattr(workload, "_check_predictions", lambda: [])
    monkeypatch.setattr(workload, "_read_ibs", lambda: [0.1, 0.1])
    ops = workloads.Ops()
    workload.setup(ops)
    result = workload.iterate()
    assert ops.failed == result["ops"].failed == 0
    commands, keys = [], set()
    for argv in argvs:
        args = fcrn.cli.build_parser().parse_args(argv)
        load_config(args.config, args.set)
        commands.append(args.command)
        keys.update(item.partition("=")[0] for item in args.set)
    assert commands == ["simulate", "train", "predict", "evaluate"]
    assert keys == {"seed", "out_dir", "simulate.n", "simulate.n_train",
                    "simulate.n_test", "simulate.functional", "train.max_epochs",
                    "train.patience", "train.use_functional", "data.subjects",
                    "data.curves"}
