import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import batch_loss_fn, dataset, finite_diff, max_rel_err

import fcrn.impute
from fcrn.data import build_time_grid
from fcrn.impute import (COND_VAR_FLOOR, ETA, ETA_DECAY, ETA_MILESTONES, GGM,
                         ImputeSettings, eta_at, fit_ggm, grad_log_pred,
                         grad_log_prior, i_step, iro_train, median_init,
                         sgld_impute)
from fcrn.model import NormalizationError, TrainSettings, build_table, fit, init_model
from fcrn.simulate import SimConfig, simulate


def gaussian_chain(rng, n, p, rho=0.7):
    """AR(1)-style chain: x_j = rho x_{j-1} + sqrt(1-rho^2) e."""
    X = np.empty((n, p))
    X[:, 0] = rng.standard_normal(n)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + np.sqrt(1 - rho ** 2) * rng.standard_normal(n)
    return X


def cond_mean(ggm, j, x):
    """The GGM's conditional mean of covariate j at rows x."""
    return ggm.mu[j] + (x - ggm.mu) @ ggm.coef[j]


def ref_fit_ggm(X, corr_threshold, k_max, ridge):
    """The per-column graphical-model fit the array form replaced:
    (mu, neighbourhoods, coefficient vectors, conditional variances)."""
    p = X.shape[1]
    mu = X.mean(axis=0)
    cov = np.atleast_2d(np.cov(X.T, bias=False))
    sd = np.sqrt(np.maximum(np.diag(cov), 1e-12))
    corr = cov / np.outer(sd, sd)
    neighborhoods, coefs, cond_vars = [], [], []
    for j in range(p):
        strength = np.abs(corr[j])
        strength[j] = 0.0
        candidates = np.where(strength >= corr_threshold)[0]
        if len(candidates) > k_max:
            candidates = candidates[np.argsort(strength[candidates])[::-1][:k_max]]
        omega = np.sort(candidates)
        neighborhoods.append(omega)
        if len(omega) == 0:
            coefs.append(np.zeros(0))
            cond_vars.append(max(cov[j, j], COND_VAR_FLOOR))
            continue
        block = cov[np.ix_(omega, omega)] + ridge * np.eye(len(omega))
        cross = cov[j, omega]
        try:
            coef = np.linalg.solve(block, cross)
        except np.linalg.LinAlgError:
            coef = np.linalg.solve(block + 10 * ridge * np.eye(len(omega)), cross)
        coefs.append(coef)
        cond_vars.append(max(cov[j, j] - coef @ cross, COND_VAR_FLOOR))
    return mu, neighborhoods, coefs, np.asarray(cond_vars)


def ref_grad_log_prior(X, mask, mu, neighborhoods, coefs, cond_vars):
    """The per-column prior gradient over ref_fit_ggm's lists."""
    grad = np.zeros_like(X)
    for j in range(X.shape[1]):
        rows = np.where(mask[:, j])[0]
        omega = neighborhoods[j]
        m = mu[j] + (X[rows][:, omega] - mu[omega]) @ coefs[j]
        grad[rows, j] = -(X[rows, j] - m) / cond_vars[j]
    return grad


def ref_median_init(X, mask):
    """median_init as a loop: np.median of each column's observed cells."""
    X = np.array(X, dtype=np.float64, copy=True)
    for j in range(X.shape[1]):
        if mask[:, j].any():
            X[mask[:, j], j] = np.median(X[~mask[:, j], j])
    return X


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (so -0.0 != 0.0)."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestMedianInit:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), p=st.integers(1, 6), seed=st.integers(0, 2 ** 31),
           rate=st.floats(0.0, 0.9), values=st.sampled_from(["normal", "ints", "zeros"]))
    @pytest.mark.filterwarnings("error")
    def test_matches_the_per_column_median(self, n, p, seed, rate, values):
        # repeated values and mixed +-0.0 included: the fill's bits are
        # the loop's, and each column keeps at least one observed cell
        rng = np.random.RandomState(seed)
        X = {"normal": lambda: rng.standard_normal((n, p)),
             "ints": lambda: rng.randint(-2, 3, (n, p)).astype(float),
             "zeros": lambda: rng.choice([0.0, -0.0, 1.0], (n, p))}[values]()
        mask = rng.rand(n, p) < rate
        mask[rng.randint(n)] = False
        X[mask] = np.nan
        assert same_bits(median_init(X, mask), ref_median_init(X, mask))

    @pytest.mark.filterwarnings("error")
    def test_edge_cases_match_the_per_column_median(self):
        nan = np.nan
        cases = [
            np.zeros((0, 3)),                                   # zero rows
            np.array([[1.0, 2.0], [3.0, 4.0]]),                 # nothing missing
            np.array([[1.0, 5.0], [nan, 6.0], [3.0, 7.0]]),     # a complete column
            np.array([[nan, 1.0], [2.5, nan], [nan, 3.0]]),     # one observed cell
            np.array([[4.0], [4.0], [nan], [4.0], [1.0]]),      # repeated values
            np.array([[-0.0], [nan], [-0.0], [0.0]]),           # even count of +-0.0
            np.array([[-0.0], [nan], [-0.0], [0.0], [-0.0]]),   # odd count of +-0.0
            np.array([[-0.0, 0.0], [nan, nan]]),                # a lone -0.0 and 0.0
        ]
        for X in cases:
            mask = np.isnan(X)
            out = median_init(X, mask)
            assert same_bits(out, ref_median_init(X, mask))
            assert not np.shares_memory(out, X)

    @pytest.mark.filterwarnings("error")
    def test_values_past_half_the_float_range_are_a_normalization_error(self):
        # nanmedian's (x + x) / 2 fills inf where the loop filled 1e308; the
        # imputing fit rejects the column either way, and warns of neither
        X = np.array([[1e308, 0.0], [np.nan, 1.0], [1e308, 2.0], [1e308, 3.0]])
        ds = dataset(np.full(4, 5.0), np.array([1, 0, 2, 1]), X=X)
        with pytest.raises(NormalizationError) as e:
            iro_train(ds, build_time_grid(20, 5), "csm",
                      TrainSettings(max_epochs=1, hidden=(4,)), n_causes=2)
        assert e.value.args == ("subjects", "x1")

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

    @pytest.mark.filterwarnings("error")
    def test_fully_missing_column_rejected(self):
        X = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValueError, match="column 0 is fully missing"):
            median_init(X, np.isnan(X))
        X = np.array([[1.0, np.nan, np.nan], [2.0, np.nan, 3.0]])
        with pytest.raises(ValueError, match="column 1 is fully missing"):
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
        m = cond_mean(ggm, 1, np.array([2.0, 0.0]))
        assert m == pytest.approx(1.0, abs=0.02)
        assert ggm.cond_vars[1] == pytest.approx(0.75, abs=0.01)

    def test_one_covariate_has_the_marginal_gaussian(self):
        # a one-covariate model used to raise: a single column has no
        # neighbours, so its prior is the marginal Gaussian
        X = np.random.RandomState(2).standard_normal((50, 1)) * 2.0 + 1.0
        ggm = fit_ggm(X)
        assert len(np.flatnonzero(ggm.coef[0])) == 0
        assert ggm.cond_vars[0] == pytest.approx(np.var(X, ddof=1))
        assert np.allclose(cond_mean(ggm, 0, X), X.mean())

    def test_independent_columns_have_empty_neighborhoods(self):
        rng = np.random.RandomState(1)
        X = rng.standard_normal((50000, 3))
        ggm = fit_ggm(X, corr_threshold=0.2)
        assert all(len(np.flatnonzero(row)) == 0 for row in ggm.coef)
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
        assert all(len(np.flatnonzero(row)) <= 3 for row in ggm.coef)

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

    def test_a_covariate_is_never_its_own_neighbour(self):
        # at threshold 0 every covariate used to join its own neighbourhood,
        # which explained it exactly: every cond_var fell to about the ridge
        X = np.random.RandomState(4).standard_normal((200, 3))
        ggm = fit_ggm(X, corr_threshold=0.0)
        for j in range(3):
            assert list(np.flatnonzero(ggm.coef[j])) == [k for k in range(3) if k != j]
        assert np.all(ggm.cond_vars > 0.5)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(p=st.integers(1, 12), n=st.integers(3, 60), seed=st.integers(0, 2 ** 31),
           rate=st.floats(0.0, 0.6),
           corr_threshold=st.floats(0.0, 1.0, exclude_min=True), data=st.data())
    def test_matches_the_per_column_loops(self, p, n, seed, rate, corr_threshold,
                                          data):
        k_max = data.draw(st.integers(0, p))
        rng = np.random.RandomState(seed)
        X = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
        mask = rng.rand(n, p) < rate
        ggm = fit_ggm(X, corr_threshold, k_max, 1e-3)
        mu, neighborhoods, coefs, cond_vars = ref_fit_ggm(X, corr_threshold,
                                                          k_max, 1e-3)
        for j in range(p):
            assert np.array_equal(np.flatnonzero(ggm.coef[j]), neighborhoods[j])
            assert np.array_equal(ggm.coef[j, neighborhoods[j]], coefs[j])
        assert np.array_equal(ggm.cond_vars, cond_vars)
        grad = grad_log_prior(X, mask, ggm)
        ref = ref_grad_log_prior(X, mask, mu, neighborhoods, coefs, cond_vars)
        # one product sums a row's neighbour terms in BLAS's order, the
        # gathered loop in its own: equal bit for bit up to one neighbour,
        # within the reassociation error beyond
        small = np.array([len(om) <= 1 for om in neighborhoods])
        assert np.array_equal(grad[:, small], ref[:, small])
        terms = np.abs(X - mu) @ np.abs(ggm.coef.T) + np.abs(mu) + np.abs(X)
        tol = 4 * p * np.finfo(float).eps * terms / cond_vars
        assert np.all(np.abs(grad - ref) <= tol)


class TestPredictionGradient:
    def _setup(self, seed=0):
        from fcrn.model import FCRNModel
        rng = np.random.RandomState(seed)
        grid = build_time_grid(10, 2)
        draws = [(rng.randn(3), rng.uniform(0, 10), rng.randint(0, 3))
                 for _ in range(6)]
        X, time, cause = zip(*draws)
        subjects = dataset(time, cause, X=X)
        model = FCRNModel(head="csm", grid=grid, n_tabular=3, n_causes=2,
                          hidden=(4,), rng=rng)
        model.fit_normalization(subjects.X)
        table = build_table(subjects, grid, model)
        xn = model.normalize(subjects.X)
        return model, xn, table

    def test_matches_finite_differences(self):
        model, xn, table = self._setup()
        rows = np.arange(len(table))
        analytic = -grad_log_pred(model, xn, {}, table, rows, batch_size=7)
        mean_loss = batch_loss_fn(model, (xn, {}, table, rows))
        # finite differences of the summed loss, perturbing xn in place
        numeric = finite_diff(lambda: mean_loss() * len(rows), xn.reshape(-1))
        assert max_rel_err(analytic, numeric.reshape(xn.shape)) < 1e-5

    def test_dead_network_gives_zero_gradient(self):
        model, xn, table = self._setup(seed=1)
        model.params.flat[:] = 0.0
        g = grad_log_pred(model, xn, {}, table, np.arange(len(table)))
        assert np.all(g == 0.0)

    @pytest.mark.parametrize("head", ["csm", "sdm"])
    def test_ro_step_sum_equals_grad_log_pred_at_fixed_parameters(self, head):
        # with lr = 0 every batch sees the same parameters, so the sum fit
        # gathers from an RO-step is grad_log_pred over the same training rows
        train, _, _ = simulate(SimConfig(n=60, n_train=48, n_test=12, seed=3,
                                         n_signals=1, n_sample_points=11))
        settings = TrainSettings(lr=0.0, max_epochs=3, hidden=(6, 5),
                                 val_fraction=0.25, seed=4)
        rng = np.random.RandomState(settings.seed)
        model = init_model(train, build_time_grid(100.0, 10.0), head, settings,
                           2 if head == "csm" else None,
                           1 if head == "sdm" else None, rng)
        model.fit_normalization(train.X)
        xn = model.normalize(train.X)
        seen = []

        def record(epoch, curve_mats, table, train_rows, pred_grad):
            seen.append((pred_grad, table.subject_idx[train_rows],
                         grad_log_pred(model, xn, curve_mats, table, train_rows)))

        fit(model, train, xn, settings, rng, i_step=record)
        assert len(seen) == 3 and seen[0][0] is None
        for got, train_subjects, expected in seen[1:]:
            scale = np.abs(expected).max()
            assert scale > 0.0
            assert np.abs(got - expected).max() <= 1e-12 * scale
            held_out = np.setdiff1d(np.arange(len(train)), train_subjects)
            assert len(held_out) == 12
            assert np.all(got[held_out] == 0.0)


class TestIStep:
    def test_eta_schedule(self):
        # bit for bit: no pipeline or acceptance fit reaches epoch 50, so
        # this is the one gate on the milestones; the closed form
        # ETA * ETA_DECAY ** 2 would differ in the last bit at epoch 100
        assert ETA_MILESTONES == (50, 100)
        for epoch, expected in ((0, ETA), (49, ETA), (50, ETA * ETA_DECAY),
                                (99, ETA * ETA_DECAY),
                                (100, ETA * ETA_DECAY * ETA_DECAY),
                                (149, ETA * ETA_DECAY * ETA_DECAY)):
            assert eta_at(epoch) == expected

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
        ggm = GGM(np.zeros(2), np.zeros((2, 2)), np.array([1e12, 1e12]))
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
        m = cond_mean(ggm, 1, X[0])
        dists = []
        for _ in range(30):
            i_step(X, mask, ggm, 0.05, rng, noise=False)
            m = cond_mean(ggm, 1, X[0])
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
        mask = np.array([rng.rand(p) < missing_rate for _ in range(n)])
        return dataset(times, causes, X=np.where(mask, np.nan, X))

    def test_observed_cells_preserved_and_missing_filled(self):
        rng = np.random.RandomState(10)
        grid = build_time_grid(20, 5)
        subjects = self._subjects(rng, 40, missing_rate=0.3)
        settings = TrainSettings(max_epochs=5, patience=10, seed=3)
        imp = ImputeSettings(max_epochs=5, noise=False)
        model, X_out = iro_train(subjects, grid, "csm", settings,
                                 impute_settings=imp, n_causes=2)
        X_raw = subjects.X
        mask = subjects.mask
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
        assert np.array_equal(m1.params.flat, m2.params.flat)

    def test_validation_holdout_and_early_stopping(self):
        rng = np.random.RandomState(12)
        grid = build_time_grid(20, 5)
        subjects = self._subjects(rng, 60, missing_rate=0.3)
        settings = TrainSettings(max_epochs=60, patience=1, val_fraction=0.3,
                                 lr=0.05, seed=6)
        imp = ImputeSettings(max_epochs=60, noise=False, rel_tol=0.0)
        model, _ = iro_train(subjects, grid, "csm", settings, impute_settings=imp,
                             n_causes=2)
        assert 0 < len(model.history) < 60
        assert [r[0] for r in model.history] == list(range(len(model.history)))
        assert all(tr != val for _, tr, val in model.history)

    def test_epoch_cap_is_the_smaller_max_epochs(self):
        rng = np.random.RandomState(13)
        grid = build_time_grid(20, 5)
        subjects = self._subjects(rng, 30, missing_rate=0.3)
        for train_epochs, impute_epochs in ((3, 5), (5, 3)):
            settings = TrainSettings(max_epochs=train_epochs, patience=10,
                                     seed=7)
            imp = ImputeSettings(max_epochs=impute_epochs, rel_tol=0.0)
            model, _ = iro_train(subjects, grid, "csm", settings,
                                 impute_settings=imp, n_causes=2)
            assert len(model.history) == 3

    def test_prediction_gradient_skips_validation_subjects(self, monkeypatch):
        # every I-step pass's prediction gradient, the epoch-0 one from
        # grad_log_pred and the later ones from the RO-step, reads only the
        # training subjects of the fit's holdout
        rng = np.random.RandomState(14)
        grid = build_time_grid(20, 5)
        n = 40
        subjects = self._subjects(rng, n, missing_rate=0.3)
        val_ids, pred_calls, pred_grads = [], [], []
        real_fit = fcrn.impute.fit
        real_pred, real_step = fcrn.impute.grad_log_pred, fcrn.impute.i_step

        def fit(model, ds, xn, settings, rng, **kwargs):
            # fit's first draw from rng is the permutation its holdout takes
            perm = copy.deepcopy(rng).permutation(len(ds))
            val_ids.extend(perm[:int(round(settings.val_fraction * len(ds)))])
            return real_fit(model, ds, xn, settings, rng, **kwargs)

        def pred(*args, **kwargs):
            pred_calls.append(args)
            return real_pred(*args, **kwargs)

        def step(X, mask, ggm, eta, rng, pred_grad=None, noise=True):
            pred_grads.append(pred_grad.copy())
            return real_step(X, mask, ggm, eta, rng, pred_grad=pred_grad,
                             noise=noise)

        monkeypatch.setattr(fcrn.impute, "fit", fit)
        monkeypatch.setattr(fcrn.impute, "grad_log_pred", pred)
        monkeypatch.setattr(fcrn.impute, "i_step", step)
        settings = TrainSettings(max_epochs=3, patience=10, val_fraction=0.25,
                                 seed=8)
        iro_train(subjects, grid, "csm", settings,
                  impute_settings=ImputeSettings(max_epochs=3, i_repeats=2),
                  n_causes=2)
        assert len(pred_calls) == 1
        assert len(val_ids) == 10
        train_ids = sorted(set(range(n)) - set(val_ids))
        assert len(pred_grads) == 6
        for g in pred_grads:
            assert np.all(g[val_ids] == 0.0)
            assert np.any(g[train_ids] != 0.0)

    def test_imputed_matrix_is_the_best_epochs(self, monkeypatch):
        # with patience stopping the log runs past the best epoch; the
        # returned matrix and fill values belong to the restored parameters
        rng = np.random.RandomState(12)
        grid = build_time_grid(20, 5)
        subjects = self._subjects(rng, 60, missing_rate=0.3)
        after_step = []
        real_step = fcrn.impute.i_step

        def step(X, *args, **kwargs):
            out = real_step(X, *args, **kwargs)
            after_step.append(X.copy())
            return out

        monkeypatch.setattr(fcrn.impute, "i_step", step)
        settings = TrainSettings(max_epochs=60, patience=3, val_fraction=0.3,
                                 lr=0.05, seed=6)
        imp = ImputeSettings(max_epochs=60, noise=False, rel_tol=0.0)
        model, X_out = iro_train(subjects, grid, "csm", settings,
                                 impute_settings=imp, n_causes=2)
        val = [row[2] for row in model.history]
        best = int(np.argmin(val))
        assert best < len(val) - 1
        assert len(after_step) == len(val)
        mask = subjects.mask
        expected = model.denormalize(after_step[best])
        assert np.array_equal(X_out[mask], expected[mask])
        assert not np.array_equal(X_out[mask],
                                  model.denormalize(after_step[-1])[mask])
        assert np.array_equal(model.fill_values, np.median(X_out, axis=0))
