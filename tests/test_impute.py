import numpy as np
import pytest
from conftest import batch_loss_fn, finite_diff, max_rel_err

import fcrn.impute
from fcrn.data import SubjectRecord, build_time_grid
from fcrn.impute import (ImputeSettings, eta_at, fit_ggm, grad_log_pred,
                         grad_log_prior, i_step, iro_train, median_init,
                         sgld_impute)
from fcrn.model import TrainSettings, build_table, table_batch


def gaussian_chain(rng, n, p, rho=0.7):
    """AR(1)-style chain: x_j = rho x_{j-1} + sqrt(1-rho^2) e."""
    X = np.empty((n, p))
    X[:, 0] = rng.standard_normal(n)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + np.sqrt(1 - rho ** 2) * rng.standard_normal(n)
    return X


class TestMedianInit:
    def test_fills_with_observed_median(self):
        X = np.array([[1.0, np.nan], [3.0, 5.0], [np.nan, 7.0]])
        mask = np.isnan(X)
        out = median_init(X, mask)
        assert out[2, 0] == 2.0
        assert out[0, 1] == 6.0
        assert np.isnan(X[0, 1])  # input untouched

    def test_no_missing_is_identity(self):
        X = np.arange(6.0).reshape(3, 2)
        out = median_init(X, np.zeros((3, 2), dtype=bool))
        assert np.array_equal(out, X)

    def test_fully_missing_column_rejected(self):
        X = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValueError):
            median_init(X, np.isnan(X))


class TestGaussianGraphicalModel:
    def test_bivariate_conditioning(self):
        # x2 | x1 for standard bivariate normal with correlation 0.5:
        # mean 0.5 x1, variance 0.75
        rng = np.random.RandomState(0)
        n = 200000
        x1 = rng.standard_normal(n)
        x2 = 0.5 * x1 + np.sqrt(0.75) * rng.standard_normal(n)
        ggm = fit_ggm(np.column_stack([x1, x2]), ridge=0.0)
        m = ggm.conditional_mean(1, np.array([[2.0, 0.0]]))
        assert m[0] == pytest.approx(1.0, abs=0.02)
        assert ggm.cond_vars[1] == pytest.approx(0.75, abs=0.01)

    def test_independent_columns_have_empty_neighborhoods(self):
        rng = np.random.RandomState(1)
        X = rng.standard_normal((50000, 3))
        ggm = fit_ggm(X, corr_threshold=0.2)
        assert all(len(om) == 0 for om in ggm.neighborhoods)
        # marginal fallback: gradient pulls toward the column mean
        mask = np.zeros_like(X, dtype=bool)
        mask[0, 1] = True
        g = grad_log_prior(X, mask, ggm)
        expected = -(X[0, 1] - ggm.mu[1]) / ggm.cond_vars[1]
        assert g[0, 1] == pytest.approx(expected)
        assert g[1, 0] == 0.0

    def test_k_max_caps_neighborhood_size(self):
        rng = np.random.RandomState(2)
        base = rng.standard_normal(5000)
        X = np.column_stack([base + 0.3 * rng.standard_normal(5000)
                             for _ in range(8)])
        ggm = fit_ggm(X, corr_threshold=0.2, k_max=3)
        assert all(len(om) <= 3 for om in ggm.neighborhoods)

    def test_prior_gradient_is_linear_in_x(self):
        rng = np.random.RandomState(3)
        X = gaussian_chain(rng, 2000, 4)
        ggm = fit_ggm(X)
        mask = np.zeros_like(X, dtype=bool)
        mask[5, 2] = True
        Xa, Xb = X.copy(), X.copy()
        Xa[5, 2] = 1.0
        Xb[5, 2] = 3.0
        ga = grad_log_prior(Xa, mask, ggm)[5, 2]
        gb = grad_log_prior(Xb, mask, ggm)[5, 2]
        # slope is -1/cond_var regardless of the value
        assert (gb - ga) / 2.0 == pytest.approx(-1.0 / ggm.cond_vars[2])


class TestPredictionGradient:
    def _setup(self, seed=0):
        from fcrn.model import FCRNModel
        rng = np.random.RandomState(seed)
        grid = build_time_grid(10, 2)
        subjects = [SubjectRecord(id="s%d" % i, x=rng.randn(3),
                                  missing_mask=np.zeros(3, dtype=bool),
                                  time=rng.uniform(0, 10),
                                  cause=rng.randint(0, 3))
                    for i in range(6)]
        model = FCRNModel(head="csm", grid=grid, n_tabular=3, n_causes=2,
                          hidden=(4,), rng=rng)
        model.fit_normalization(np.vstack([s.x for s in subjects]))
        table = build_table(subjects, grid, model)
        xn = model.normalize(np.vstack([s.x for s in subjects]))
        return model, xn, table

    def test_matches_finite_differences(self):
        model, xn, table = self._setup()
        rows = np.arange(len(table))
        analytic = -grad_log_pred(model, xn, {}, table, rows, batch_size=7)
        mean_loss = batch_loss_fn(model, table_batch(xn, {}, table, rows))
        # finite differences of the summed loss, perturbing xn in place
        numeric = finite_diff(lambda: mean_loss() * len(rows), xn.reshape(-1))
        assert max_rel_err(analytic, numeric.reshape(xn.shape)) < 1e-5

    def test_dead_network_gives_zero_gradient(self):
        model, xn, table = self._setup(seed=1)
        model.theta[:] = 0.0
        g = grad_log_pred(model, xn, {}, table, np.arange(len(table)))
        assert np.all(g == 0.0)


class TestIStep:
    def test_eta_schedule(self):
        s = ImputeSettings(eta=0.003, decay=0.1, milestones=(50, 100))
        assert eta_at(0, s) == pytest.approx(0.003)
        assert eta_at(49, s) == pytest.approx(0.003)
        assert eta_at(50, s) == pytest.approx(0.0003)
        assert eta_at(100, s) == pytest.approx(0.00003)

    def test_zero_eta_is_noop(self):
        X = np.ones((3, 2))
        mask = np.ones((3, 2), dtype=bool)
        ggm = fit_ggm(np.random.RandomState(0).randn(100, 2))
        out = i_step(X, mask, ggm, 0.0, np.random.RandomState(0))
        assert np.array_equal(out, np.ones((3, 2)))

    def test_observed_cells_never_move(self):
        rng = np.random.RandomState(4)
        X = gaussian_chain(rng, 200, 3)
        mask = rng.rand(200, 3) < 0.3
        ggm = fit_ggm(X)
        before = X.copy()
        i_step(X, mask, ggm, 0.003, rng, noise=True)
        assert np.array_equal(X[~mask], before[~mask])

    def test_noise_magnitude(self):
        # zero gradient: update per cell is sqrt(2 eta) e, eta=0.003
        rng = np.random.RandomState(5)
        n = 10000
        X = np.zeros((n, 2))
        mask = np.zeros((n, 2), dtype=bool)
        mask[:, 0] = True
        mu = np.zeros(2)
        from fcrn.impute import GaussianGraphicalModel
        ggm = GaussianGraphicalModel(mu=mu,
                                     neighborhoods=[np.array([], dtype=int)] * 2,
                                     coefs=[np.zeros(0)] * 2,
                                     cond_vars=np.array([1e12, 1e12]))
        i_step(X, mask, ggm, 0.003, rng, noise=True)
        sd = X[:, 0].std()
        assert sd == pytest.approx(np.sqrt(2 * 0.003), rel=0.03)

    def test_noise_off_deterministic_convergence(self):
        # with noise off and no prediction term, values relax monotonically
        # toward the conditional mean
        rng = np.random.RandomState(6)
        X = gaussian_chain(rng, 500, 3)
        mask = np.zeros_like(X, dtype=bool)
        mask[0, 1] = True
        ggm = fit_ggm(X)
        X[0, 1] = 10.0
        m = ggm.conditional_mean(1, X[[0]])[0]
        dists = []
        for _ in range(30):
            i_step(X, mask, ggm, 0.05, rng, noise=False)
            m = ggm.conditional_mean(1, X[[0]])[0]
            dists.append(abs(X[0, 1] - m))
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(dists, dists[1:]))
        assert dists[-1] < 0.1 * dists[0]


class TestSgldImpute:
    def test_prior_only_recovery_beats_median(self):
        rng = np.random.RandomState(7)
        X_true = gaussian_chain(rng, 1500, 5, rho=0.7)
        mask = rng.rand(1500, 5) < 0.25
        X_obs = X_true.copy()
        X_obs[mask] = np.nan
        settings = ImputeSettings(noise=False, i_repeats=10, max_epochs=60)
        filled = sgld_impute(X_obs, mask, settings, np.random.RandomState(8))
        med = median_init(X_obs, mask)
        rmse_f = np.sqrt(np.mean((filled[mask] - X_true[mask]) ** 2))
        rmse_m = np.sqrt(np.mean((med[mask] - X_true[mask]) ** 2))
        assert rmse_f < 0.85 * rmse_m
        assert np.array_equal(filled[~mask], X_true[~mask])


class TestIroTrain:
    def _subjects(self, rng, n, missing_rate=0.0, p=4):
        X = gaussian_chain(rng, n, p)
        times = rng.uniform(0, 20, size=n)
        causes = rng.randint(0, 3, size=n)
        out = []
        for i in range(n):
            x = X[i].copy()
            mask = rng.rand(p) < missing_rate
            x[mask] = np.nan
            out.append(SubjectRecord(id="s%d" % i, x=x, missing_mask=mask,
                                     time=times[i], cause=int(causes[i])))
        return out

    def test_no_missing_falls_through_to_plain_trainer(self):
        from fcrn.model import train_model
        rng = np.random.RandomState(9)
        grid = build_time_grid(20, 5)
        subjects = self._subjects(rng, 30)
        s1 = TrainSettings(max_epochs=3, patience=5, seed=2)
        s2 = TrainSettings(max_epochs=3, patience=5, seed=2)
        m1, X_out = iro_train(subjects, grid, "csm", s1, n_causes=2)
        m2 = train_model(subjects, grid, "csm", s2, n_causes=2)
        assert np.array_equal(m1.theta, m2.theta)
        assert np.array_equal(X_out, np.vstack([s.x for s in subjects]))

    def test_observed_cells_preserved_and_missing_filled(self):
        rng = np.random.RandomState(10)
        grid = build_time_grid(20, 5)
        subjects = self._subjects(rng, 40, missing_rate=0.3)
        settings = TrainSettings(max_epochs=5, patience=10, seed=3)
        imp = ImputeSettings(max_epochs=5, noise=False)
        model, X_out = iro_train(subjects, grid, "csm", settings,
                                 impute_settings=imp, n_causes=2)
        X_raw = np.vstack([s.x for s in subjects])
        mask = np.vstack([s.missing_mask for s in subjects])
        assert np.array_equal(X_out[~mask], X_raw[~mask])
        assert np.all(np.isfinite(X_out))
        assert np.all(np.isfinite(model.fill_values))

    def test_seeded_determinism(self):
        rng = np.random.RandomState(11)
        grid = build_time_grid(20, 5)
        subjects = self._subjects(rng, 30, missing_rate=0.25)

        def run():
            settings = TrainSettings(max_epochs=4, patience=10, seed=5)
            imp = ImputeSettings(max_epochs=4)
            return iro_train(subjects, grid, "csm", settings,
                             impute_settings=imp, n_causes=2)

        m1, x1 = run()
        m2, x2 = run()
        assert np.array_equal(x1, x2)
        assert np.array_equal(m1.theta, m2.theta)

    def test_validation_holdout_and_early_stopping(self):
        rng = np.random.RandomState(12)
        grid = build_time_grid(20, 5)
        subjects = self._subjects(rng, 60, missing_rate=0.3)
        settings = TrainSettings(max_epochs=60, patience=1, val_fraction=0.3,
                                 lr=0.05, seed=6)
        imp = ImputeSettings(max_epochs=60, noise=False, rel_tol=0.0)
        iro_train(subjects, grid, "csm", settings, impute_settings=imp,
                  n_causes=2)
        assert 0 < len(settings.log) < 60
        assert [r[0] for r in settings.log] == list(range(len(settings.log)))
        assert all(tr != val for _, tr, val in settings.log)

    def test_epoch_cap_is_the_smaller_max_epochs(self):
        rng = np.random.RandomState(13)
        grid = build_time_grid(20, 5)
        subjects = self._subjects(rng, 30, missing_rate=0.3)
        for train_epochs, impute_epochs in ((3, 5), (5, 3)):
            settings = TrainSettings(max_epochs=train_epochs, patience=10,
                                     seed=7)
            imp = ImputeSettings(max_epochs=impute_epochs, rel_tol=0.0)
            iro_train(subjects, grid, "csm", settings, impute_settings=imp,
                      n_causes=2)
            assert len(settings.log) == 3

    def test_prediction_gradient_skips_validation_subjects(self, monkeypatch):
        rng = np.random.RandomState(14)
        grid = build_time_grid(20, 5)
        n = 40
        subjects = self._subjects(rng, n, missing_rate=0.3)
        grad_subjects, pred_grads = [], []
        real_pred, real_step = fcrn.impute.grad_log_pred, fcrn.impute.i_step

        def pred(model, xn, curve_mats, table, rows, **kwargs):
            grad_subjects.append(set(table.subject_idx[rows].tolist()))
            return real_pred(model, xn, curve_mats, table, rows, **kwargs)

        def step(X, mask, ggm, eta, rng, pred_grad=None, noise=True):
            pred_grads.append(pred_grad.copy())
            return real_step(X, mask, ggm, eta, rng, pred_grad=pred_grad,
                             noise=noise)

        monkeypatch.setattr(fcrn.impute, "grad_log_pred", pred)
        monkeypatch.setattr(fcrn.impute, "i_step", step)
        settings = TrainSettings(max_epochs=3, patience=10, val_fraction=0.25,
                                 seed=8)
        iro_train(subjects, grid, "csm", settings,
                  impute_settings=ImputeSettings(max_epochs=3, i_repeats=2),
                  n_causes=2)
        assert len(pred_grads) == 6
        for train_ids, g in zip(grad_subjects, pred_grads):
            val_ids = sorted(set(range(n)) - train_ids)
            assert len(val_ids) == 10
            assert np.all(g[val_ids] == 0.0)
            assert np.any(g[sorted(train_ids)] != 0.0)
