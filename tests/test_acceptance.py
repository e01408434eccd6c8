"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The comparative experiment (criterion 7) takes several minutes; all
other criteria finish in seconds.
"""
import json
import time

import numpy as np
import pytest
from conftest import (batch_loss_fn, brier_at, brier_ipcw_at, collect_grads, dataset,
                      direct_nll_cs, direct_nll_sd, finite_diff, max_rel_err)

from fcrn.baseline import intercept_only_cif
from fcrn.cli import main as cli_main
from fcrn.data import (Signal, augment_subdistribution, build_time_grid,
                       censoring_survival)
from fcrn.impute import ImputeSettings, iro_train, median_init, sgld_impute
from fcrn.metrics import score_cif
from fcrn.model import (FCRNModel, TrainSettings, build_table,
                        cif_from_subdistribution, train_model)
from fcrn.simulate import SimConfig, simulate


def report(name, ok, detail=""):
    print("%s: %s%s" % ("PASS" if ok else "FAIL", name,
                        " (%s)" % detail if detail else ""))
    assert ok, "%s %s" % (name, detail)


def random_subjects(rng, n, max_time, p=2, curves=None):
    """n subjects, each drawing its curve values (one signal "sig" on
    curves = (taus, J)), then covariates, time and cause."""
    values, X, time, cause = [], [], [], []
    for _ in range(n):
        if curves is not None:
            values.append(rng.randn(curves[1]))
        X.append(rng.randn(p))
        time.append(rng.uniform(0, max_time))
        cause.append(rng.randint(0, 3))
    signals = {}
    if curves is not None:
        taus, J = curves
        signals["sig"] = Signal(np.tile(taus, n), np.concatenate(values),
                                J * np.arange(n + 1))
    return dataset(time, cause, X=X, signals=signals)


def test_gradient_oracle():
    # 100 random small models, both heads, basis layers included; every
    # parameter gradient against central finite differences
    start = time.monotonic()
    rng = np.random.RandomState(0)
    worst = 0.0
    checked = 0
    while checked < 100:
        head = "csm" if checked % 2 == 0 else "sdm"
        L = rng.randint(2, 5)
        grid = build_time_grid(float(L), 1.0)
        J = rng.randint(5, 9)
        taus = np.linspace(0.0, 1.0, J)
        subjects = random_subjects(rng, 3, float(L), curves=(taus, J))
        model = FCRNModel(head=head, grid=grid, n_tabular=2, n_causes=2,
                          target_cause=1,
                          signal_specs=[{"name": "sig", "taus": taus,
                                         "n_basis": rng.randint(1, 3)}],
                          hidden=(3,), rng=np.random.RandomState(checked))
        model.fit_normalization(subjects.X)
        model.fit_curve_normalization(subjects)
        g = censoring_survival(subjects, grid) if head == "sdm" else None
        table = build_table(subjects, grid, model, g=g)
        if len(table) == 0:
            subjects.time[0] = float(L)
            subjects.cause[0] = 1
            table = build_table(subjects, grid, model, g=g)
        xn = model.normalize(subjects.X)
        curve_mats = model.curve_matrices(subjects)
        batch = (xn, curve_mats, table, np.arange(len(table)))
        err = max_rel_err(collect_grads(model, batch),
                          finite_diff(batch_loss_fn(model, batch), model.params.flat))
        worst = max(worst, err)
        checked += 1
    elapsed = time.monotonic() - start
    report("gradient oracle", worst < 1e-5 and elapsed < 60.0,
           "max rel err %.2e over 100 models, %.1fs" % (worst, elapsed))


def test_likelihood_oracle():
    # summed batch loss vs the direct log-likelihood sums, both heads
    start = time.monotonic()
    rng = np.random.RandomState(1)
    worst = 0.0
    for trial in range(50):
        head = "csm" if trial % 2 == 0 else "sdm"
        L = rng.randint(2, 6)
        grid = build_time_grid(float(L), 1.0)
        n_causes = rng.randint(1, 3) if head == "csm" else 2
        subjects = random_subjects(rng, rng.randint(2, 11), float(L))
        subjects.cause[:] = np.minimum(subjects.cause, n_causes)
        model = FCRNModel(head=head, grid=grid, n_tabular=2, n_causes=n_causes,
                          target_cause=1, hidden=(4, 3),
                          rng=np.random.RandomState(trial))
        model.fit_normalization(subjects.X)
        g = censoring_survival(subjects, grid)
        table = build_table(subjects, grid, model,
                            g=g if head == "sdm" else None)
        if len(table) == 0:
            continue
        xn = model.normalize(subjects.X)
        fwd = model.forward_logits(
            lambda: model.input_rows(xn, table.subject_idx, table.interval), None,
            table.subject_idx)
        summed = float(model.batch_loss(fwd, table.target,
                                        table.weight)[0]) * len(table)
        hz = model.predict_hazards(subjects)
        if head == "csm":
            direct = direct_nll_cs(hz, subjects, grid)
        else:
            direct = direct_nll_sd(hz, subjects, grid, 1, g)
        worst = max(worst, abs(summed - direct))
    elapsed = time.monotonic() - start
    report("likelihood oracle", worst < 1e-10 and elapsed < 10.0,
           "max abs diff %.2e, %.1fs" % (worst, elapsed))


def test_cif_identities():
    rng = np.random.RandomState(2)
    grid = build_time_grid(20.0, 2.0)
    subjects = random_subjects(rng, 40, 20.0, p=3)
    worst_sum, worst_mono, worst_prod = 0.0, 0.0, 0.0
    for seed in range(5):
        s = TrainSettings(max_epochs=3, patience=5, seed=seed, hidden=(8,))
        m = train_model(subjects, grid, "csm", s, n_causes=2)
        S, F = m.predict_cif(subjects)
        worst_sum = max(worst_sum, float(np.max(np.abs(F.sum(axis=1) + S - 1.0))))
        worst_mono = max(worst_mono, float(np.max(-np.diff(F, axis=2))))
        s2 = TrainSettings(max_epochs=3, patience=5, seed=seed, hidden=(8,))
        m2 = train_model(subjects, grid, "sdm", s2, n_causes=2, target_cause=1)
        Fs = m2.predict_cif(subjects)
        hz = m2.predict_hazards(subjects)
        manual = 1.0 - np.cumprod(1.0 - hz, axis=1)
        manual = np.concatenate([np.zeros((len(subjects), 1)), manual], axis=1)
        worst_prod = max(worst_prod, float(np.max(np.abs(Fs - manual))))
        worst_mono = max(worst_mono, float(np.max(-np.diff(Fs, axis=1))))
    ok = worst_sum < 1e-10 and worst_mono <= 1e-12 and worst_prod < 1e-12
    report("CIF identities", ok,
           "sum %.1e, monotonicity %.1e, product form %.1e"
           % (worst_sum, worst_mono, worst_prod))


def test_weight_correctness():
    # 6 subjects on a width-1 grid with one censoring (B) and one competing
    # event (C); every w_it checked against hand computation
    grid = build_time_grid(5.0, 1.0)
    subjects = dataset([1.0, 2.0, 2.0, 3.0, 4.0, 4.0], [1, 0, 2, 1, 1, 1],
                       ids=["A", "B", "C", "D", "E", "F"])
    g = censoring_survival(subjects, grid)
    # one censoring among five subjects at risk in interval 2: G drops to 0.8
    assert g.at_intervals([0, 1, 2]).tolist() == [1.0, 1.0, 0.8]
    table = augment_subdistribution(subjects, grid, 1, g)
    # hand-computed weights, rows t = 1..4 per subject; a dropped row weighs 0
    expected = {
        "A": [1.0, 0.0, 0.0, 0.0],
        "B": [1.0, 1.0, 0.0, 0.0],
        "C": [1.0, 1.0, 0.8, 0.8],
        "D": [1.0, 1.0, 1.0, 0.0],
        "E": [1.0, 1.0, 1.0, 1.0],
        "F": [1.0, 1.0, 1.0, 1.0],
    }
    got = {i: [0.0] * 4 for i in subjects.ids}
    for k in range(len(table)):
        got[subjects.ids[table.subject_idx[k]]][table.interval[k] - 1] = \
            table.weight[k]
    ok = all(got[i] == expected[i] for i in expected)
    report("weight correctness", ok, "weights %r" % got)


def test_ipcw_reduction():
    rng = np.random.RandomState(3)
    worst = 0.0
    for n in (5, 50, 500):
        grid = build_time_grid(20.0, 2.0)
        outcomes = [(rng.uniform(0.5, 20.0), rng.randint(1, 3)) for _ in range(n)]
        subjects = dataset(*zip(*outcomes))
        g = censoring_survival(subjects, grid)
        for t in (0.0, 6.0, 14.0, 20.0):
            preds = rng.uniform(0, 1, size=n)
            worst = max(worst, abs(brier_at(t, preds, subjects, 1)
                                   - brier_ipcw_at(t, preds, subjects, 1, g, grid)))
    report("IPCW reduction", worst < 1e-12, "max abs diff %.2e" % worst)


def _chain(rng, n, p, rho):
    X = np.empty((n, p))
    X[:, 0] = rng.standard_normal(n)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + np.sqrt(1 - rho ** 2) * rng.standard_normal(n)
    return X


def _mar_mask(X, rng, rate):
    # logistic missingness in the first (always observed) column, intercept
    # calibrated by bisection to the overall target rate
    n, p = X.shape
    target = rate * p / (p - 1)
    score = (X[:, 0] - X[:, 0].mean()) / X[:, 0].std()
    lo, hi = -20.0, 20.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.mean(1.0 / (1.0 + np.exp(-(mid + score)))) < target:
            lo = mid
        else:
            hi = mid
    probs = 1.0 / (1.0 + np.exp(-(0.5 * (lo + hi) + score)))
    mask = np.zeros((n, p), dtype=bool)
    for j in range(1, p):
        mask[:, j] = rng.uniform(size=n) < probs
    return mask


def test_imputation_recovery():
    # 1000 x 5 Gaussian chain (rho = 0.7), 25% MAR, prediction gradient off,
    # deterministic I-steps: >= 15% RMSE improvement over median fill
    start = time.monotonic()
    improvements = []
    for seed in range(10):
        rng = np.random.RandomState(seed)
        X_true = _chain(rng, 1000, 5, 0.7)
        mask = _mar_mask(X_true, rng, 0.25)
        X_obs = X_true.copy()
        X_obs[mask] = np.nan
        settings = ImputeSettings(noise=False, i_repeats=10, max_epochs=150)
        filled = sgld_impute(X_obs, mask, settings,
                             np.random.RandomState(seed + 1000))
        med = median_init(X_obs, mask)
        rmse_f = np.sqrt(np.mean((filled[mask] - X_true[mask]) ** 2))
        rmse_m = np.sqrt(np.mean((med[mask] - X_true[mask]) ** 2))
        improvements.append(1.0 - rmse_f / rmse_m)
    mean_imp = float(np.mean(improvements))
    elapsed = time.monotonic() - start
    report("imputation recovery", mean_imp >= 0.15 and elapsed < 120.0,
           "mean RMSE improvement %.1f%%, %.1fs" % (100 * mean_imp, elapsed))


@pytest.mark.slow
def test_comparative_experiment():
    # 20 replicates at 800 train / 200 test, CSM and SDM, 0/25/50% missing.
    # All arms get the same fixed training budget so differences reflect the
    # missing information, not the training protocol.
    start = time.monotonic()
    grid = build_time_grid(100.0, 5.0)
    epochs = 20
    rates = (0.0, 0.25, 0.5)
    agg = {(h, r): [] for h in ("csm", "sdm") for r in rates}
    base_gap = {1: [], 2: []}
    all_vals = []
    for rep in range(20):
        for rate in rates:
            train, test, _ = simulate(SimConfig(n=1000, seed=rep,
                                                functional=False,
                                                missing_rate=rate))
            g = censoring_survival(test, grid)

            def fit(head, cause):
                s = TrainSettings(max_epochs=epochs, patience=epochs,
                                  seed=rep, hidden=(16, 16), val_fraction=0.0)
                if rate == 0.0:
                    return train_model(train, grid, head, s, n_causes=2,
                                       target_cause=cause)
                imp = ImputeSettings(noise=False, i_repeats=2,
                                     max_epochs=epochs, rel_tol=0.0)
                return iro_train(train, grid, head, s, impute_settings=imp,
                                 n_causes=2, target_cause=cause)[0]

            m = fit("csm", None)
            S, F = m.predict_cif(test)
            vals = [score_cif(F[:, c - 1], test, c, grid, g=g).ibs
                    for c in (1, 2)]
            agg[("csm", rate)].append(float(np.mean(vals)))
            all_vals += vals
            if rate == 0.0:
                Sb, Fb = intercept_only_cif(train, grid, 2, n_eval=len(test))
                for c in (1, 2):
                    base_gap[c].append(
                        score_cif(Fb[:, c - 1], test, c, grid, g=g).ibs
                        - vals[c - 1])
            svals = []
            for c in (1, 2):
                Fs = fit("sdm", c).predict_cif(test)
                svals.append(score_cif(Fs, test, c, grid, g=g).ibs)
            agg[("sdm", rate)].append(float(np.mean(svals)))
            all_vals += svals

    beats_baseline = all(np.mean(base_gap[c]) > 0.0 for c in (1, 2))
    monotone = True
    for head in ("csm", "sdm"):
        for lo, hi in ((0.0, 0.25), (0.25, 0.5)):
            d = np.array(agg[(head, hi)]) - np.array(agg[(head, lo)])
            se = float(d.std(ddof=1) / np.sqrt(len(d)))
            monotone &= float(d.mean()) >= -se
    in_range = all(0.0 < v < 0.5 for v in all_vals)
    elapsed = time.monotonic() - start
    report("comparative experiment",
           beats_baseline and monotone and in_range and elapsed < 1800.0,
           "baseline gaps %.4f/%.4f, monotone %s, %.0fs"
           % (np.mean(base_gap[1]), np.mean(base_gap[2]), monotone, elapsed))


def test_cli_determinism(tmp_path):
    def pipeline(root):
        args = lambda *a: cli_main(list(a))
        assert args("--set", "out_dir=%s" % json.dumps(str(root / "sim")),
                    "--set", "simulate.n=60", "--set", "simulate.n_train=45",
                    "--set", "simulate.n_test=15",
                    "--set", "simulate.missing_rate=0.25",
                    "--set", "simulate.functional=false", "simulate") == 0
        assert args("--set", "out_dir=%s" % json.dumps(str(root / "run")),
                    "--set", "data.subjects=%s" % json.dumps(
                        str(root / "sim" / "train_subjects.csv")),
                    "--set", "train.max_epochs=3",
                    "--set", "train.use_functional=false", "train") == 0
        assert args("--set", "out_dir=%s" % json.dumps(str(root / "pred")),
                    "--set", "data.subjects=%s" % json.dumps(
                        str(root / "sim" / "test_subjects.csv")),
                    "predict", "--model",
                    str(root / "run" / "model.json")) == 0
        assert args("--set", "out_dir=%s" % json.dumps(str(root / "eval")),
                    "--set", "data.subjects=%s" % json.dumps(
                        str(root / "sim" / "test_subjects.csv")),
                    "evaluate", "--predictions",
                    str(root / "pred" / "predictions.csv")) == 0

    pipeline(tmp_path / "a")
    pipeline(tmp_path / "b")
    files = ["sim/train_subjects.csv", "sim/test_subjects.csv",
             "sim/manifest.json", "run/model.json", "run/training_log.csv",
             "run/imputed.csv", "pred/predictions.csv", "eval/scores.csv"]
    same = all((tmp_path / "a" / f).read_bytes()
               == (tmp_path / "b" / f).read_bytes() for f in files)
    report("CLI determinism", same, "%d artifacts byte-identical" % len(files))
