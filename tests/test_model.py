import copy
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (batch_loss_fn, collect_grads, dataset, direct_nll_cs,
                      direct_nll_sd, finite_diff, max_rel_err)

import fcrn.impute
import fcrn.model
from fcrn import autodiff as ad
from fcrn.data import (DataError, build_time_grid, censoring_survival, read_curves_csv,
                       read_subjects_csv)
from fcrn.impute import ImputeSettings, grad_log_pred, iro_train
from fcrn.model import (FCRNModel, NumericError, TrainSettings, build_table,
                        cif_from_cause_specific, cif_from_subdistribution,
                        init_model, train_model)
from fcrn.simulate import SimConfig, simulate

FIXTURES = Path(__file__).parent / "fixtures" / "parent_model"


def subj(id, time, cause, x):
    """A one-subject Dataset."""
    return dataset([time], [cause], X=[x], ids=[id])


def make_model(head, n_tabular=2, n_causes=2, target_cause=1, hidden=(4,),
               grid=None, seed=0):
    grid = grid or build_time_grid(20, 5)
    return FCRNModel(head=head, grid=grid, n_tabular=n_tabular,
                     n_causes=n_causes, target_cause=target_cause,
                     hidden=hidden, rng=np.random.RandomState(seed))


def zero_params(model):
    model.params.flat[:] = 0.0


def loss_cs(probs, targets):
    return ad.nll("csm", probs, targets)


def loss_sub(probs, targets, weights):
    return ad.nll("sdm", probs, targets, weights)


def random_dataset(rng, n, n_causes=2, max_time=20.0, p=2):
    """n subjects, each drawing a time, a cause, then p covariates."""
    draws = [(rng.uniform(0, max_time), rng.randint(0, n_causes + 1), rng.randn(p))
             for _ in range(n)]
    time, cause, X = zip(*draws)
    return dataset(time, cause, X=X)


class TestFeatureAssembly:
    def test_input_width_and_time_feature(self):
        grid = build_time_grid(100, 5)
        model = FCRNModel(head="csm", grid=grid, n_tabular=2, n_causes=2,
                          signal_specs=[{"name": "s1", "n_basis": 3,
                                         "taus": np.linspace(0, 1, 11)}],
                          rng=np.random.RandomState(0))
        assert model.params.weights[0].shape[1] == 2 + 3 + 1
        assert model._time_feature([10])[0, 0] == pytest.approx(0.5)
        assert model._time_feature([20])[0, 0] == pytest.approx(1.0)

    def test_no_signals_width(self):
        model = make_model("csm", n_tabular=3)
        assert model.params.weights[0].shape[1] == 4

    def test_onehot_time_encoding(self):
        grid = build_time_grid(20, 5)
        model = FCRNModel(head="csm", grid=grid, n_tabular=1, n_causes=1,
                          time_encoding="onehot", rng=np.random.RandomState(0))
        assert model.params.weights[0].shape[1] == 1 + 4
        f = model._time_feature([2])
        assert f.tolist() == [[0.0, 1.0, 0.0, 0.0]]

    def test_missing_cell_is_predicted_at_its_fill_value(self):
        model = make_model("csm")
        model.fill_values = np.array([0.7, -0.2])
        assert np.array_equal(model.predict_hazards(subj("a", 3.0, 1, [np.nan, 1.0])),
                              model.predict_hazards(subj("a", 3.0, 1, [0.7, 1.0])))


class TestHeads:
    def test_csm_zero_network_is_uniform(self):
        model = make_model("csm", n_causes=2)
        zero_params(model)
        hz = model.predict_hazards(subj("a", 3.0, 1, [0.5, -0.5]))
        assert np.allclose(hz, 1.0 / 3.0)

    def test_csm_rows_sum_to_one(self):
        model = make_model("csm", n_causes=2, seed=3)
        rng = np.random.RandomState(1)
        hz = model.predict_hazards(subj("a", 3.0, 1, rng.randn(2)))
        assert np.allclose(hz.sum(axis=2), 1.0, atol=1e-12)

    def test_csm_matches_multinomial_logistic_form(self):
        # hand-set biases emulate linear logits (g0 = 0, g1, g2)
        model = make_model("csm", n_causes=2, hidden=(2,))
        zero_params(model)
        g = np.array([0.0, 0.4, -1.1])
        model.params.biases[-1][:] = g
        hz = model.predict_hazards(subj("a", 3.0, 1, [0.0, 0.0]))
        expected = np.exp(g[1:]) / (1.0 + np.exp(g[1:]).sum())
        assert np.allclose(hz[0, 0, 1:], expected, atol=1e-14)
        assert hz[0, 0, 0] == pytest.approx(1.0 - expected.sum())

    def test_sdm_zero_network_is_half(self):
        model = make_model("sdm")
        zero_params(model)
        hz = model.predict_hazards(subj("a", 3.0, 1, [0.5, -0.5]))
        assert np.allclose(hz, 0.5)

    def test_sdm_closed_form_logit(self):
        model = make_model("sdm", hidden=(2,))
        zero_params(model)
        model.params.biases[-1][:] = np.log(3.0)
        hz = model.predict_hazards(subj("a", 3.0, 1, [0.0, 0.0]))
        assert np.allclose(hz, 0.75)

    def test_sdm_output_in_open_unit_interval(self):
        model = make_model("sdm", seed=5)
        rng = np.random.RandomState(2)
        hz = model.predict_hazards(subj("a", 3.0, 1, rng.randn(2) * 10))
        assert np.all((hz > 0) & (hz < 1))


def reference_hazards(model, ds):
    """predict_hazards by a textbook forward, relu(h @ w.T + b) for each
    hidden layer, over the blocks of subjects predict_hazards uses (a
    row's last ulp may depend on the rows that share its block)."""
    L = model.grid.n_intervals
    xn = model.normalize(np.where(ds.mask, model.fill_values, ds.X))
    curve_mats = model.curve_matrices(ds)
    blocks = []
    for lo, hi in model.row_blocks(len(ds) * L):
        subj_idx = np.repeat(np.arange(lo // L, hi // L), L)
        parts = [xn[subj_idx]]
        projections = model.project_signals(curve_mats, subj_idx)
        if projections is not None:
            parts += [p.coef[projections.rows] for p in projections.parts]
        intervals = np.tile(np.arange(1, L + 1), len(subj_idx) // L)
        h = np.concatenate(parts + [model._time_feature(intervals)], axis=1)
        weights, biases = model.params.weights, model.params.biases
        for w, b in zip(weights[:-1], biases[:-1]):
            h = np.maximum(h @ w.T + b, 0.0)
        logits = h @ weights[-1].T + biases[-1]
        blocks.append(ad.softmax(logits) if model.head == "csm"
                      else ad.sigmoid(logits)[:, 0])
    hz = np.concatenate(blocks)
    return hz.reshape(len(ds), L, -1) if model.head == "csm" else hz.reshape(len(ds), L)


class TestPredictionForward:
    @pytest.mark.parametrize("functional", [False, True], ids=["tabular", "signal"])
    @pytest.mark.parametrize("encoding", ["scalar", "onehot"])
    @pytest.mark.parametrize("head", ["csm", "sdm"])
    def test_hazards_equal_a_textbook_forward_bit_for_bit(self, head, encoding,
                                                          functional):
        # 900 subjects x 20 intervals and a widest layer pair of 32 + 64:
        # six blocks of 136 subjects, the last also taking the 84 left over
        ds, _, _ = simulate(SimConfig(n=900, n_train=900, n_test=0, seed=4,
                                      functional=functional, n_signals=1,
                                      n_sample_points=11, missing_rate=0.25))
        rng = np.random.RandomState(0)
        model = init_model(ds, build_time_grid(100.0, 5.0), head,
                           TrainSettings(time_encoding=encoding), 2, 1, rng)
        model.params.flat[:] = rng.randn(model.params.flat.size) * 0.3  # nonzero biases too
        model.fill_values = rng.randn(ds.X.shape[1])
        assert model.row_blocks(900 * 20) == [(k * 2720, (k + 1) * 2720)
                                              for k in range(5)] + [(13600, 18000)]
        assert np.array_equal(model.predict_hazards(ds), reference_hazards(model, ds))

    def test_row_blocks_are_sized_by_the_widest_layer_pair(self, monkeypatch):
        # one-hot time at L = 20, 10 covariates and hidden (8, 50): widths
        # 30, 8, 50 and 3, so the widest pair is 8 + 50 = 58
        ds, _, _ = simulate(SimConfig(n=10, n_train=10, n_test=0, seed=4,
                                      functional=False))
        model = init_model(ds, build_time_grid(100.0, 5.0), "csm",
                           TrainSettings(hidden=(8, 50), time_encoding="onehot"),
                           2, None, np.random.RandomState(0))
        monkeypatch.setattr(fcrn.model, "PREDICT_CELLS", 3 * 20 * 58 + 57)
        assert model.row_blocks(0) == []
        assert model.row_blocks(20) == [(0, 20)]
        assert model.row_blocks(60) == [(0, 60)]
        assert model.row_blocks(100) == [(0, 100)]  # a remainder joins the last block
        assert model.row_blocks(120) == [(0, 60), (60, 120)]
        assert model.row_blocks(173) == [(0, 60), (60, 173)]  # validation rows
        monkeypatch.setattr(fcrn.model, "PREDICT_CELLS", 20 * 58 - 1)
        assert model.row_blocks(50) == [(0, 20), (20, 50)]  # at least one subject

    @pytest.mark.parametrize("hidden, bound", [((32, 64, 32), 3.3e6),
                                               ((256, 256), 5e6)])
    def test_prediction_peak_memory(self, hidden, bound):
        # 819 subjects x 20 intervals of an untrained tabular csm model. A
        # block holds its input rows and two adjacent activations, sized by
        # the widest pair (96 or 512 columns): 6 blocks of 136 subjects, or
        # 32 of 25, the last taking the rest. The peak is 2.77 MB with
        # hidden (32, 64, 32) and 4.16 MB with (256, 256), bounded for a
        # ~20% margin. Blocks of 16,384 rows, whatever the network's width,
        # took them to 13.4 and 67.9 MB.
        ds, _, _ = simulate(SimConfig(n=819, n_train=819, n_test=0, seed=4,
                                      functional=False))
        model = init_model(ds, build_time_grid(100.0, 5.0), "csm",
                           TrainSettings(hidden=hidden), 2, None,
                           np.random.RandomState(0))
        model.fit_normalization(ds.X)
        tracemalloc.start()
        try:
            model.predict_cif(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestLosses:
    def test_loss_cs_perfect_prediction(self):
        probs = np.array([[1.0 - 2e-13, 1e-13, 1e-13]])
        assert float(loss_cs(probs, [0])) == pytest.approx(0.0, abs=1e-10)

    def test_loss_cs_uniform(self):
        probs = np.full((4, 3), 1.0 / 3.0)
        assert float(loss_cs(probs, [0, 1, 2, 0])) == pytest.approx(np.log(3.0))

    def test_loss_sub_all_zero_weights(self):
        probs = np.full((3, 1), 0.3)
        out = loss_sub(probs, [1, 0, 1], [0.0, 0.0, 0.0])
        assert float(out) == 0.0

    def test_loss_sub_bce_value(self):
        probs = np.full((2, 1), 0.5)
        out = loss_sub(probs, [1, 0], [1.0, 1.0])
        assert float(out) == pytest.approx(np.log(2.0))

    def test_loss_sub_linear_in_weights(self):
        rng = np.random.RandomState(3)
        probs = rng.uniform(0.1, 0.9, size=(5, 1))
        y = rng.randint(0, 2, size=5)
        w = rng.uniform(0, 2, size=5)
        single = float(loss_sub(probs, y, w))
        double = float(loss_sub(probs, y, 2 * w))
        assert double == pytest.approx(2 * single)


class TestLikelihoodOracle:
    def test_loss_cs_equals_direct_log_likelihood(self):
        rng = np.random.RandomState(10)
        for trial in range(10):
            L = rng.randint(2, 6)
            grid = build_time_grid(L * 2.0, 2.0)
            n_causes = rng.randint(1, 3)
            subjects = random_dataset(rng, rng.randint(2, 11), n_causes, grid.max_time)
            model = make_model("csm", n_causes=n_causes, grid=grid,
                               seed=trial, hidden=(4, 3))
            model.fit_normalization(subjects.X)
            table = build_table(subjects, grid, model)
            xn = model.normalize(subjects.X)
            fwd = model.forward_logits(
                lambda: model.input_rows(xn, table.subject_idx, table.interval), None,
                table.subject_idx)
            summed = float(model.batch_loss(fwd, table.target,
                                            table.weight)[0]) * len(table)
            hz = model.predict_hazards(subjects)
            assert summed == pytest.approx(direct_nll_cs(hz, subjects, grid),
                                           abs=1e-10)

    def test_loss_sub_equals_direct_weighted_log_likelihood(self):
        rng = np.random.RandomState(20)
        for trial in range(10):
            L = rng.randint(3, 6)
            grid = build_time_grid(L * 2.0, 2.0)
            subjects = random_dataset(rng, rng.randint(3, 11), 2, grid.max_time)
            model = make_model("sdm", grid=grid, seed=trial, hidden=(4,))
            model.fit_normalization(subjects.X)
            g = censoring_survival(subjects, grid)
            table = build_table(subjects, grid, model, g=g)
            if len(table) == 0:
                continue
            xn = model.normalize(subjects.X)
            fwd = model.forward_logits(
                lambda: model.input_rows(xn, table.subject_idx, table.interval), None,
                table.subject_idx)
            summed = float(model.batch_loss(fwd, table.target,
                                            table.weight)[0]) * len(table)
            hz = model.predict_hazards(subjects)
            assert summed == pytest.approx(
                direct_nll_sd(hz, subjects, grid, 1, g), abs=1e-10)


class TestCifRecursions:
    def test_constant_hazard_hand_values(self):
        head = np.empty((1, 2, 3))
        head[:, :, 1] = 0.1
        head[:, :, 2] = 0.1
        head[:, :, 0] = 0.8
        S, F = cif_from_cause_specific(head)
        assert F[0, 0, 1] == pytest.approx(0.1)
        assert F[0, 0, 2] == pytest.approx(0.18)
        assert S[0, 1] == pytest.approx(0.8)

    def test_cause_specific_cif_equals_its_recursion_bit_for_bit(self):
        # F_m(t) = F_m(t-1) + lambda_m(t) S(t-1), added in sequence as the
        # cumulative sum does
        rng = np.random.RandomState(5)
        head = rng.dirichlet(np.ones(4), size=(30, 25))
        S, F = cif_from_cause_specific(head)
        expected = np.zeros_like(F)
        for t in range(1, 26):
            expected[:, :, t] = (expected[:, :, t - 1]
                                 + head[:, t - 1, 1:] * S[:, t - 1][:, None])
        assert F.tobytes() == expected.tobytes()

    def test_zero_hazard(self):
        head = np.zeros((1, 3, 3))
        head[:, :, 0] = 1.0
        S, F = cif_from_cause_specific(head)
        assert np.all(F == 0.0) and np.all(S == 1.0)

    def test_cif_survival_identity(self):
        rng = np.random.RandomState(4)
        model = make_model("csm", n_causes=2, seed=9)
        subjects = random_dataset(rng, 5)
        model.fit_normalization(subjects.X)
        S, F = model.predict_cif(subjects)
        total = F.sum(axis=1) + S
        assert np.allclose(total, 1.0, atol=1e-10)
        assert np.all(np.diff(F, axis=2) >= -1e-12)

    def test_subdistribution_product_form(self):
        hz = np.array([[0.1, 0.1]])
        F = cif_from_subdistribution(hz)
        assert F[0, 1] == pytest.approx(0.1)
        assert F[0, 2] == pytest.approx(0.19)

    def test_subdistribution_zero_hazard(self):
        assert np.all(cif_from_subdistribution(np.zeros((2, 4))) == 0.0)

    def test_subdistribution_monotone_below_one(self):
        rng = np.random.RandomState(5)
        F = cif_from_subdistribution(rng.uniform(0.0, 0.9, size=(3, 6)))
        assert np.all(np.diff(F, axis=1) >= 0.0)
        assert np.all(F < 1.0)


class TestHeadGradients:
    def test_csm_loss_gradients_match_finite_differences(self):
        rng = np.random.RandomState(6)
        grid = build_time_grid(10, 2)
        subjects = random_dataset(rng, 4, 2, grid.max_time)
        model = make_model("csm", grid=grid, hidden=(3, 3), seed=11)
        model.fit_normalization(subjects.X)
        table = build_table(subjects, grid, model)
        xn = model.normalize(subjects.X)
        batch = (xn, {}, table, np.arange(len(table)))
        assert max_rel_err(collect_grads(model, batch),
                           finite_diff(batch_loss_fn(model, batch), model.params.flat)) < 1e-5

    def test_sdm_loss_gradients_match_finite_differences(self):
        rng = np.random.RandomState(7)
        grid = build_time_grid(10, 2)
        subjects = random_dataset(rng, 5, 2, grid.max_time)
        model = make_model("sdm", grid=grid, hidden=(3,), seed=12)
        model.fit_normalization(subjects.X)
        g = censoring_survival(subjects, grid)
        table = build_table(subjects, grid, model, g=g)
        xn = model.normalize(subjects.X)
        batch = (xn, {}, table, np.arange(len(table)))
        assert max_rel_err(collect_grads(model, batch),
                           finite_diff(batch_loss_fn(model, batch), model.params.flat)) < 1e-5


class TestTraining:
    def test_single_subject_memorization(self):
        grid = build_time_grid(6, 2)
        subjects = subj("a", 3.0, 1, [1.0, -1.0])
        settings = TrainSettings(max_epochs=2000, patience=2000, lr=0.01,
                                 hidden=(8,), val_fraction=0.0, seed=1)
        model = train_model(subjects, grid, "csm", settings, n_causes=1)
        final_loss = model.history[-1][1]
        assert final_loss < 1e-3

    def test_seeded_determinism(self):
        rng = np.random.RandomState(8)
        grid = build_time_grid(20, 5)
        subjects = random_dataset(rng, 30, 2, grid.max_time)
        s1 = TrainSettings(max_epochs=5, patience=10, seed=3)
        s2 = TrainSettings(max_epochs=5, patience=10, seed=3)
        m1 = train_model(subjects, grid, "csm", s1, n_causes=2)
        m2 = train_model(subjects, grid, "csm", s2, n_causes=2)
        assert np.array_equal(m1.params.flat, m2.params.flat)

    def test_loss_decreases_after_first_epoch(self):
        rng = np.random.RandomState(9)
        grid = build_time_grid(20, 5)
        subjects = random_dataset(rng, 60, 2, grid.max_time)
        settings = TrainSettings(max_epochs=3, patience=10, seed=4)
        model = train_model(subjects, grid, "csm", settings, n_causes=2)
        losses = [h[1] for h in model.history]
        assert losses[-1] < losses[0]

    def test_complete_data_fit_asks_for_no_input_gradient(self, monkeypatch):
        # only an imputing fit gathers the RO-step's input gradients
        import fcrn.model
        asked, buffers = [], []
        real_backward, real_epoch_loss = ad.backward, fcrn.model._epoch_loss

        def backward(fwd, d_logits, want_param_grad=True, want_input_grad=False):
            asked.append(want_input_grad)
            return real_backward(fwd, d_logits, want_param_grad, want_input_grad)

        def epoch_loss(*args, **kwargs):
            buffers.append(kwargs.get("input_grad"))
            return real_epoch_loss(*args, **kwargs)

        monkeypatch.setattr(ad, "backward", backward)
        monkeypatch.setattr(fcrn.model, "_epoch_loss", epoch_loss)
        train, _, _ = simulate(SimConfig(n=40, n_train=30, n_test=10,
                                         n_signals=1, n_sample_points=11))
        grid = build_time_grid(100.0, 10.0)
        settings = TrainSettings(max_epochs=2, hidden=(4,))
        train_model(train, grid, "csm", settings, n_causes=2)
        train_model(train, grid, "sdm", settings, target_cause=1)
        assert asked and not any(asked)
        assert buffers and all(b is None for b in buffers)

    def test_sdm_fit_without_training_rows_is_data_error(self):
        # the sdm table holds intervals 1..L-1, so a one-interval grid gives
        # no row; the fit used to log zero losses and return an untrained model
        grid = build_time_grid(20, 20)
        subjects = random_dataset(np.random.RandomState(10), 20, 2, grid.max_time)
        settings = TrainSettings(max_epochs=2, hidden=(4,))
        with pytest.raises(DataError, match="sdm head needs a grid of at least 2 "
                                            r"intervals \(this one has 1\)"):
            train_model(subjects, grid, "sdm", settings, target_cause=1)
        assert len(train_model(subjects, grid, "csm", settings, n_causes=2).history) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_tabular", [0, 3])
    @pytest.mark.parametrize("head", ["csm", "sdm"])
    def test_no_subjects_is_data_error(self, head, n_tabular):
        # init_model names the empty dataset before any NumPy warning,
        # normalization error or sdm grid error can
        empty = dataset(np.zeros(0), np.zeros(0, dtype=int), X=np.zeros((0, n_tabular)))
        grid = build_time_grid(100.0, 10.0)
        settings = TrainSettings(max_epochs=2, hidden=(4,))
        for trainer in (train_model, iro_train):
            with pytest.raises(DataError, match="^no subjects to train on$"):
                trainer(empty, grid, head, settings, n_causes=2, target_cause=1)

    @pytest.mark.parametrize("head", ["csm", "sdm"])
    def test_complete_data_fit_restores_its_best_epoch(self, head):
        # patience stops the fit epochs after its best one; it returns that
        # epoch's parameters, the ones a run of the same seed ends with when
        # capped right after the best epoch
        ds, _, _ = simulate(SimConfig(n=80, n_train=80, n_test=0, seed=5,
                                      functional=True, n_signals=1,
                                      n_sample_points=11))
        grid = build_time_grid(100.0, 10.0)
        settings = TrainSettings(max_epochs=60, patience=3, val_fraction=0.3,
                                 lr=0.01, hidden=(8,), seed=6)
        model = train_model(ds, grid, head, settings, n_causes=2, target_cause=2)
        val = [h[2] for h in model.history]
        best = int(np.argmin(val))
        assert 0 < best and len(val) == best + 1 + settings.patience
        capped = train_model(ds, grid, head, replace(settings, max_epochs=best + 1),
                             n_causes=2, target_cause=2)
        assert [h[0] for h in capped.history] == list(range(best + 1))
        assert np.array_equal(model.params.flat, capped.params.flat)


class TestValidationLoss:
    """fit's monitored loss: the mean NLL of the validation subjects'
    person-period rows, from the blocked forward that prediction uses."""

    @staticmethod
    def _data():
        ds, _, _ = simulate(SimConfig(n=120, n_train=120, n_test=0, seed=5,
                                      functional=True, n_signals=1,
                                      n_sample_points=11))
        return ds, build_time_grid(100.0, 10.0)

    @staticmethod
    def _train(monkeypatch, ds, grid, head, settings):
        """train_model's model and its validation subjects, read from a copy
        of fit's rng, whose first draw is the holdout's permutation."""
        val_ids = []
        real_fit = fcrn.model.fit

        def fit(model, ds, xn, settings, rng, **kwargs):
            perm = copy.deepcopy(rng).permutation(len(ds))
            val_ids.extend(perm[:int(round(settings.val_fraction * len(ds)))])
            return real_fit(model, ds, xn, settings, rng, **kwargs)

        monkeypatch.setattr(fcrn.model, "fit", fit)
        model = train_model(ds, grid, head, settings, n_causes=2, target_cause=2)
        monkeypatch.setattr(fcrn.model, "fit", real_fit)
        return model, np.sort(val_ids)

    @pytest.mark.parametrize("encoding", ["scalar", "onehot"])
    @pytest.mark.parametrize("head", ["csm", "sdm"])
    def test_val_loss_is_the_validation_subjects_likelihood(self, monkeypatch, head,
                                                            encoding):
        # at lr 0 the parameters never move, so every epoch's validation
        # loss is the likelihood oracle's at the initial parameters, here
        # over blocks of two subjects' 2L rows, the last one taking the rest
        ds, grid = self._data()
        L = grid.n_intervals
        widths = [ds.X.shape[1] + 3 + (L if encoding == "onehot" else 1), 8, 4,
                  3 if head == "csm" else 1]
        monkeypatch.setattr(fcrn.model, "PREDICT_CELLS",
                            2 * L * max(a + b for a, b in zip(widths, widths[1:])))
        blocks = []
        real_forward = FCRNModel.forward_logits

        def forward_logits(self, inputs, curve_mats, subj_idx, keep=True):
            if not keep:
                blocks.append(len(subj_idx))
            return real_forward(self, inputs, curve_mats, subj_idx, keep)

        monkeypatch.setattr(FCRNModel, "forward_logits", forward_logits)
        settings = TrainSettings(lr=0.0, max_epochs=3, patience=5, val_fraction=0.25,
                                 hidden=(8, 4), time_encoding=encoding, seed=3)
        model, val_ids = self._train(monkeypatch, ds, grid, head, settings)
        table = build_table(ds, grid, model)
        n_rows = int(np.isin(table.subject_idx, val_ids).sum())
        full, last = divmod(n_rows, 2 * L)
        assert full >= 3 and len(model.history) == 3
        assert blocks == ([2 * L] * (full - 1) + [2 * L + last]) * 3
        val = ds.take(val_ids)
        hz = model.predict_hazards(val)
        if head == "csm":
            oracle = direct_nll_cs(hz, val, grid)
        else:
            oracle = direct_nll_sd(hz, val, grid, 2, censoring_survival(ds, grid))
        for _, _, val_loss in model.history:
            assert val_loss == pytest.approx(oracle / n_rows, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("head", ["csm", "sdm"])
    def test_val_loss_does_not_depend_on_the_batch_size(self, head):
        # train.batch_size sets only the Adam batches: at lr 0 the train
        # losses sum other batches, the validation losses stay bit-identical
        ds, grid = self._data()
        logs = []
        for batch_size in (7, 64):
            settings = TrainSettings(lr=0.0, batch_size=batch_size, max_epochs=2,
                                     patience=5, val_fraction=0.25, hidden=(8, 4),
                                     seed=3)
            model = train_model(ds, grid, head, settings, n_causes=2, target_cause=2)
            logs.append([h[2] for h in model.history])
        assert len(logs[0]) == 2 and logs[0] == logs[1]

    def test_non_finite_validation_loss_is_numeric_error(self, monkeypatch):
        # Adam's last step of an epoch can leave theta non-finite after the
        # epoch's train loss was taken; the validation pass then reads it
        real_epoch_loss = fcrn.model._epoch_loss

        def epoch_loss(model, *args, **kwargs):
            loss = real_epoch_loss(model, *args, **kwargs)
            model.params.flat[0] = np.nan
            return loss

        monkeypatch.setattr(fcrn.model, "_epoch_loss", epoch_loss)
        ds, grid = self._data()
        for head in ("csm", "sdm"):
            with pytest.raises(NumericError) as e:
                train_model(ds, grid, head, TrainSettings(max_epochs=2, hidden=(4,)),
                            n_causes=2, target_cause=2)
            assert str(e.value) == "non-finite validation loss at epoch 0"


def per_batch_epoch_loss(model, xn, curve_mats, table, rows, batch_size,
                         adam=None, lr=None, shuffle_rng=None, input_grad=None):
    """_epoch_loss with one gather of table rows per batch and no blocks:
    the loop the blocked pass replaced, kept as its reference."""
    order = np.arange(len(rows))
    if shuffle_rng is not None:
        shuffle_rng.shuffle(order)
    total = 0.0
    for start in range(0, len(order), batch_size):
        at = order[start:start + batch_size]
        sel = rows[at]
        loss, grad, d_rows = model.loss_and_grads(
            xn, curve_mats, table, sel, want_input_grad=input_grad is not None,
            want_param_grad=adam is not None)
        if input_grad is not None:
            input_grad[at] = d_rows * len(sel)
        if adam is not None:
            ad.adam_step(model.params.flat, grad, adam, lr)
        total += float(loss) * len(sel)
    return total / max(len(rows), 1)


class TestAdamBlocks:
    """_epoch_loss builds the inputs of a block of whole batches at once;
    parameters, losses and input gradients equal the per-batch loop's bit
    for bit."""

    @staticmethod
    def _model(head, encoding, n_signals):
        """A model and its (xn, curve_mats, table), the same on every call."""
        ds, _, _ = simulate(SimConfig(n=60, n_train=60, n_test=0, seed=3,
                                      functional=n_signals > 0,
                                      n_signals=max(n_signals, 1), n_sample_points=11))
        grid = build_time_grid(100.0, 10.0)
        model = init_model(ds, grid, head, TrainSettings(hidden=(8, 4),
                                                         time_encoding=encoding),
                           2, 1, np.random.RandomState(1))
        model.fit_normalization(ds.X)
        return model, (model.normalize(ds.X), model.curve_matrices(ds),
                       build_table(ds, grid, model))

    @pytest.mark.parametrize("n_signals", [0, 2])
    @pytest.mark.parametrize("encoding", ["scalar", "onehot"])
    @pytest.mark.parametrize("head", ["csm", "sdm"])
    def test_adam_pass_equals_the_per_batch_loop(self, monkeypatch, head, encoding,
                                                 n_signals):
        # blocks of 3 batches of 9 rows: the last batch is short and the
        # last block holds fewer batches than the others
        batch_size, runs = 9, []
        for epoch_loss in (fcrn.model._epoch_loss, per_batch_epoch_loss):
            model, (xn, curve_mats, table) = self._model(head, encoding, n_signals)
            monkeypatch.setattr(fcrn.model, "BATCH_BLOCK_CELLS",
                                3 * batch_size * model.params.weights[0].shape[1])
            rows = np.flatnonzero(table.subject_idx % 5)  # a holdout's gaps
            n_batches = -(-len(rows) // batch_size)
            assert len(rows) % batch_size and n_batches % 3 and n_batches > 6
            adam = ad.AdamState(model.params.flat.size)
            shuffle_rng = np.random.RandomState(5)
            losses, grads = [], []
            for _ in range(3):
                grads.append(np.empty((len(rows), xn.shape[1])))
                losses.append(epoch_loss(model, xn, curve_mats, table, rows, batch_size,
                                         adam=adam, lr=0.01, shuffle_rng=shuffle_rng,
                                         input_grad=grads[-1]))
            runs.append((model.params.flat, losses, np.array(grads)))
        (flat, losses, grads), (ref_flat, ref_losses, ref_grads) = runs
        assert np.array_equal(flat, ref_flat)
        assert losses == ref_losses
        assert np.array_equal(grads, ref_grads)

    @pytest.mark.parametrize("head", ["csm", "sdm"])
    def test_imputing_fit_equals_the_per_batch_loop(self, monkeypatch, head):
        # fit's RO-steps gather input gradients; epoch 0 runs grad_log_pred
        ds, _, _ = simulate(SimConfig(n=80, n_train=80, n_test=0, seed=2,
                                      functional=False, missing_rate=0.25))
        grid = build_time_grid(100.0, 10.0)
        settings = TrainSettings(max_epochs=3, batch_size=16, hidden=(8,), seed=4)
        fits = []
        for epoch_loss in (fcrn.model._epoch_loss, per_batch_epoch_loss):
            monkeypatch.setattr(fcrn.model, "_epoch_loss", epoch_loss)
            monkeypatch.setattr(fcrn.impute, "_epoch_loss", epoch_loss)
            model, X = iro_train(ds, grid, head, settings, ImputeSettings(max_epochs=3),
                                 n_causes=2, target_cause=1)
            fits.append((model.params.flat, model.history, X))
        (flat, history, X), (ref_flat, ref_history, ref_X) = fits
        assert len(history) == 3 and history == ref_history
        assert np.array_equal(flat, ref_flat) and np.array_equal(X, ref_X)

    @pytest.mark.parametrize("head", ["csm", "sdm"])
    def test_grad_log_pred_equals_the_per_batch_loop(self, monkeypatch, head):
        # more than 4096 rows: grad_log_pred's pass runs two one-batch blocks
        ds, _, _ = simulate(SimConfig(n=1000, n_train=1000, n_test=0, seed=3,
                                      functional=False))
        grid = build_time_grid(100.0, 5.0)
        model = init_model(ds, grid, head, TrainSettings(hidden=(8, 4)), 2, 1,
                           np.random.RandomState(1))
        model.fit_normalization(ds.X)
        xn, table = model.normalize(ds.X), build_table(ds, grid, model)
        rows = np.arange(len(table))
        assert len(rows) > 4096
        got = grad_log_pred(model, xn, {}, table, rows)
        monkeypatch.setattr(fcrn.impute, "_epoch_loss", per_batch_epoch_loss)
        assert np.array_equal(got, grad_log_pred(model, xn, {}, table, rows))

    def test_one_hot_epoch_peak_memory(self):
        # one-hot time at L = 1000: the first layer is 1010 wide, so each
        # block is one 64-row batch. An epoch over the 5634 rows peaks at
        # 2.31 MB, bounded at 3 MB for a ~30% margin. Gathering the whole
        # epoch's inputs at once, 5634 x 1010 x 8 bytes, took it to 91 MB.
        ds, _, _ = simulate(SimConfig(n=30, n_train=30, n_test=0, seed=1,
                                      functional=False))
        grid = build_time_grid(100.0, 0.1)
        model = init_model(ds, grid, "csm", TrainSettings(time_encoding="onehot"),
                           2, None, np.random.RandomState(0))
        model.fit_normalization(ds.X)
        xn, table = model.normalize(ds.X), build_table(ds, grid, model)
        adam = ad.AdamState(model.params.flat.size)
        tracemalloc.start()
        try:
            fcrn.model._epoch_loss(model, xn, {}, table, np.arange(len(table)), 64,
                                   adam=adam, lr=0.001,
                                   shuffle_rng=np.random.RandomState(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 5634 and peak < 3e6


class TestSerialization:
    def test_history_belongs_to_the_fitted_model(self, tmp_path):
        rng = np.random.RandomState(13)
        grid = build_time_grid(20, 5)
        subjects = random_dataset(rng, 20, 2, grid.max_time)
        settings = TrainSettings(max_epochs=2, patience=5, seed=5)
        model = train_model(subjects, grid, "csm", settings, n_causes=2)
        assert [h[0] for h in model.history] == [0, 1]
        assert settings == TrainSettings(max_epochs=2, patience=5, seed=5)
        model.save(tmp_path / "model.json")
        assert FCRNModel.load(tmp_path / "model.json").history == []
        assert make_model("csm").history == []

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.RandomState(13)
        grid = build_time_grid(20, 5)
        subjects = random_dataset(rng, 20, 2, grid.max_time)
        settings = TrainSettings(max_epochs=2, patience=5, seed=5)
        model = train_model(subjects, grid, "csm", settings, n_causes=2)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = FCRNModel.load(path)
        S1, F1 = model.predict_cif(subjects)
        S2, F2 = loaded.predict_cif(subjects)
        assert np.array_equal(S1, S2)
        assert np.array_equal(F1, F2)

    def test_parent_model_files_predict_parent_cifs(self):
        # model.json files and CIFs written by the per-parameter tape code
        # that preceded the flat parameter vector
        subjects = read_subjects_csv(FIXTURES / "subjects.csv")
        subjects = read_curves_csv(FIXTURES / "curves.csv", subjects)
        expected = json.loads((FIXTURES / "expected_cif.json").read_text())
        csm = FCRNModel.load(FIXTURES / "model_csm.json")
        S, F = csm.predict_cif(subjects)
        assert np.max(np.abs(S - expected["csm_S"])) <= 1e-12
        assert np.max(np.abs(F - expected["csm_F"])) <= 1e-12
        sdm = FCRNModel.load(FIXTURES / "model_sdm.json")
        assert np.max(np.abs(sdm.predict_cif(subjects) - expected["sdm_F"])) <= 1e-12

    def test_parent_model_files_save_back_byte_for_byte(self, tmp_path):
        for path in sorted(FIXTURES.glob("model_*.json")):
            FCRNModel.load(path).save(tmp_path / path.name)
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()
