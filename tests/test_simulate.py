import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fcrn.simulate
from fcrn.simulate import (ANCHOR_COLUMNS, COEF_CAUSE1, MAX_TIME, SPLINE_DEGREE,
                           SimConfig, apply_mar, bspline_design, gen_functional,
                           gen_outcomes, gen_tabular, mar_intercept, simulate)


def cox_de_boor(knots, i, k, tau):
    """Textbook B_{i,k}(tau) on the half-open spans, a zero-width span
    contributing 0 (de Boor, J. Approx. Theory 6, 1972)."""
    if k == 0:
        return 1.0 if knots[i] <= tau < knots[i + 1] else 0.0
    left_den = knots[i + k] - knots[i]
    right_den = knots[i + k + 1] - knots[i + 1]
    left = ((tau - knots[i]) / left_den * cox_de_boor(knots, i, k - 1, tau)
            if left_den > 0 else 0.0)
    right = ((knots[i + k + 1] - tau) / right_den * cox_de_boor(knots, i + 1, k - 1, tau)
             if right_den > 0 else 0.0)
    return left + right


def mean_prob(alpha, score):
    return float(np.mean(1.0 / (1.0 + np.exp(-(alpha + score)))))


def bisect_200(score, target):
    """mar_intercept without its early exit: all 200 bisection steps of
    [-30, 30] run."""
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_prob(mid, score) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@st.composite
def mar_scores_and_targets(draw):
    """apply_mar's anchor score of n = 1 to 1,200 subjects, each anchor
    normal, uniform or constant, and a target in (0, 1): drawn freely, as
    a missing rate between 1% and 99%, or below the mean probability at -30
    or above it at 30, where one bound collapses onto the other."""
    n = draw(st.integers(1, 1200))
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for _ in ANCHOR_COLUMNS:
        kind = draw(st.sampled_from(["normal", "uniform", "constant"]))
        scale = draw(st.floats(1e-3, 1e3))
        columns.append(rng.normal(0.0, scale, n) if kind == "normal"
                       else rng.uniform(-scale, scale, n) if kind == "uniform"
                       else np.full(n, scale))
    z = np.column_stack(columns)
    z = (z - z.mean(axis=0)) / np.where(z.std(axis=0) > 0, z.std(axis=0), 1.0)
    score = z.sum(axis=1)
    where = draw(st.sampled_from(["free", "rate", "below", "above"]))
    if where == "free":
        target = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    elif where == "rate":
        target = draw(st.floats(0.01, 0.99))
    elif where == "below":
        target = mean_prob(-30.0, score) * draw(st.floats(1e-6, 0.999))
    else:
        p30 = mean_prob(30.0, score)
        target = min(p30 + (1.0 - p30) * draw(st.floats(0.0, 1.0)), np.nextafter(1.0, 0.0))
    return score, target


class TestBSplineBasis:
    def test_partition_of_unity(self):
        rng = np.random.RandomState(0)
        taus = rng.uniform(0, 1, size=1000)
        design = bspline_design(taus, 15)
        assert np.allclose(design.sum(axis=1), 1.0, atol=1e-12)

    def test_clamped_endpoints(self):
        left, right = bspline_design(np.array([0.0, 1.0]), 15)
        assert left[0] == pytest.approx(1.0)
        assert np.all(left[1:] == 0.0)
        assert right[-1] == pytest.approx(1.0)
        assert np.all(right[:-1] == 0.0)

    def test_nonnegative(self):
        design = bspline_design(np.linspace(0, 1, 201), 15)
        assert np.all(design >= 0.0)

    def test_local_support(self):
        # a cubic basis function is nonzero on at most degree+1 knot spans
        design = bspline_design(np.linspace(0, 1, 401), 15)
        active = (design > 1e-12).sum(axis=1)
        assert np.all(active <= SPLINE_DEGREE + 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="tau 1.5 outside"):
            bspline_design(np.array([0.5, 1.5, -1.0]), 15)

    @pytest.mark.parametrize("n_basis", [1, 2, 3])
    def test_fewer_functions_than_a_cubic_basis_rejected(self, n_basis):
        # 2 and 3 used to give the first n_basis of the 4 cubic functions,
        # rows that do not sum to 1; 1 failed inside np.linspace
        with pytest.raises(ValueError, match="below the 4 functions"):
            bspline_design(np.linspace(0, 1, 5), n_basis)

    def test_bit_identical_to_the_textbook_recursion(self):
        # the clamped uniform knots
        edges = [0.0, 1.0, 1 - 1e-16, 5e-324, np.nextafter(1.0, 0.0), 0.5, 1 / 3]
        rng = np.random.RandomState(16)
        for n_basis in range(SPLINE_DEGREE + 1, 31):
            taus = np.concatenate([np.linspace(0, 1, 51), rng.uniform(0, 1, 40), edges])
            p = SPLINE_DEGREE
            knots = np.concatenate([np.zeros(p + 1),
                                    np.linspace(0.0, 1.0, n_basis - p + 1)[1:-1],
                                    np.ones(p + 1)])
            expected = np.array([
                [float(i == n_basis - 1) if tau == 1.0 else cox_de_boor(knots, i, p, tau)
                 for i in range(n_basis)] for tau in taus])
            got = bspline_design(taus, n_basis)
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), n_basis


class TestTabular:
    def test_shapes(self):
        X, hidden = gen_tabular(500, np.random.RandomState(1))
        assert X.shape == (500, 10)
        assert hidden.shape == (500, 5)

    def test_visible_moments(self):
        X, _ = gen_tabular(200000, np.random.RandomState(2))
        # first normal column: mean 0.2, sd 1
        assert X[:, 0].mean() == pytest.approx(0.2, abs=0.02)
        assert X[:, 0].std() == pytest.approx(1.0, abs=0.02)
        # first uniform column: range [-1, 1]
        assert X[:, 5].min() >= -1.0 and X[:, 5].max() <= 1.0
        assert X[:, 5].mean() == pytest.approx(0.0, abs=0.02)

    def test_hidden_features_are_the_documented_nonlinearities(self):
        X, hidden = gen_tabular(50, np.random.RandomState(3))
        assert np.allclose(hidden[:, 0], X[:, 0] ** 2)
        assert np.allclose(hidden[:, 1], X[:, 2] ** 2)
        assert np.allclose(hidden[:, 2], X[:, 5] ** 2)
        assert np.allclose(hidden[:, 3], X[:, 0] * X[:, 6])
        assert np.allclose(hidden[:, 4], X[:, 1] * X[:, 8])


class TestFunctional:
    def test_shapes(self):
        config = SimConfig(n=40, n_train=30, n_test=10)
        X, _ = gen_tabular(40, np.random.RandomState(4))
        taus, curves = gen_functional(40, np.random.RandomState(4), config, X=X)
        assert taus.shape == (51,)
        assert curves.shape == (3, 40, 51)

    def test_coupling_shifts_curves(self, monkeypatch):
        config = SimConfig(n=200, n_train=150, n_test=50)
        X, _ = gen_tabular(200, np.random.RandomState(5))
        _, with_c = gen_functional(200, np.random.RandomState(6), config, X=X)
        monkeypatch.setattr(fcrn.simulate, "CURVE_COVARIATE_COUPLING", 0.0)
        _, without = gen_functional(200, np.random.RandomState(6), config, X=X)
        diff = with_c[0] - without[0]
        # the shift is deterministic in X, so it correlates with x0
        start_diff = diff[:, 0]
        r = np.corrcoef(start_diff, X[:, 0])[0, 1]
        assert abs(r) > 0.9


class TestOutcomes:
    def test_all_causes_represented(self):
        X, hidden = gen_tabular(5000, np.random.RandomState(7))
        time, cause = gen_outcomes(X, hidden, np.random.RandomState(7))
        time = np.minimum(time, MAX_TIME)
        cause = np.where(time >= MAX_TIME, 0, cause)
        fracs = [np.mean(cause == m) for m in (0, 1, 2)]
        assert all(f >= 0.05 for f in fracs)
        assert np.all(time > 0.0)

    def test_zero_coefficient_independence(self, monkeypatch):
        # with all coefficients zero, event times are independent of X:
        # correlation with every covariate should be near zero
        monkeypatch.setattr(fcrn.simulate, "COEF_CAUSE1", (0.0,) * 15)
        monkeypatch.setattr(fcrn.simulate, "COEF_CAUSE2", (0.0,) * 15)
        X, hidden = gen_tabular(20000, np.random.RandomState(8))
        time, _ = gen_outcomes(X, hidden, np.random.RandomState(8))
        for j in range(10):
            r = np.corrcoef(np.log(time), X[:, j])[0, 1]
            assert abs(r) < 0.03

    def test_larger_risk_score_shortens_cause1_times(self):
        X, hidden = gen_tabular(20000, np.random.RandomState(9))
        time, cause = gen_outcomes(X, hidden, np.random.RandomState(9))
        eta1 = np.hstack([X, hidden]) @ np.asarray(COEF_CAUSE1)
        sel = cause == 1
        r = np.corrcoef(eta1[sel], np.log(time[sel]))[0, 1]
        assert r < -0.1


class TestMar:
    def test_zero_rate(self):
        X, _ = gen_tabular(100, np.random.RandomState(10))
        mask = apply_mar(X, 0.0, np.random.RandomState(10))
        assert not mask.any()

    def test_overall_rate_calibration(self):
        X, _ = gen_tabular(100000, np.random.RandomState(11))
        for rate in (0.25, 0.5):
            mask = apply_mar(X, rate, np.random.RandomState(11))
            assert mask.mean() == pytest.approx(rate, abs=0.01)

    def test_anchors_never_masked(self):
        X, _ = gen_tabular(5000, np.random.RandomState(12))
        mask = apply_mar(X, 0.5, np.random.RandomState(12))
        for j in ANCHOR_COLUMNS:
            assert not mask[:, j].any()

    def test_missingness_depends_on_anchors(self):
        # chi-square style check: split on the median of anchor score and
        # compare missing rates; MCAR would make them equal
        X, _ = gen_tabular(20000, np.random.RandomState(13))
        mask = apply_mar(X, 0.25, np.random.RandomState(13))
        z = X[:, list(ANCHOR_COLUMNS)]
        z = (z - z.mean(axis=0)) / z.std(axis=0)
        score = z.sum(axis=1)
        hi = mask[score > np.median(score)].mean()
        lo = mask[score <= np.median(score)].mean()
        assert hi - lo > 0.1

    def test_invalid_rate_rejected(self):
        X, _ = gen_tabular(10, np.random.RandomState(14))
        with pytest.raises(ValueError):
            apply_mar(X, 1.0, np.random.RandomState(14))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(mar_scores_and_targets())
    @example((np.zeros(5), 0.5))
    @example((np.zeros(1), 1e-300))
    @example((np.zeros(3), np.nextafter(1.0, 0.0)))
    def test_early_exit_keeps_the_intercept_bit_identical(self, score_and_target):
        # a shift of 1e-12 in the intercept almost never flips a mask cell,
        # so the intercepts themselves are compared, bit for bit
        score, target = score_and_target
        got = np.float64(mar_intercept(score, target))
        expected = np.float64(bisect_200(score, target))
        assert got.view(np.int64) == expected.view(np.int64)

    @pytest.mark.parametrize("seed", [0, 1, 2, 15])
    def test_early_exit_keeps_the_mask(self, seed, monkeypatch):
        X, _ = gen_tabular(1000, np.random.RandomState(seed))
        for rate in (0.1, 0.25, 0.5, 0.79):
            got = apply_mar(X, rate, np.random.RandomState(seed))
            with monkeypatch.context() as m:
                m.setattr(fcrn.simulate, "mar_intercept", bisect_200)
                expected = apply_mar(X, rate, np.random.RandomState(seed))
            assert np.array_equal(got, expected), rate


class TestSimulatePipeline:
    def test_split_sizes_and_ids_disjoint(self):
        train, test, manifest = simulate(SimConfig(n=100, n_train=80, n_test=20,
                                                   functional=False))
        assert len(train) == 80 and len(test) == 20
        assert not set(train.ids) & set(test.ids)

    def test_determinism(self):
        cfg = SimConfig(n=60, n_train=50, n_test=10, missing_rate=0.25)
        t1, e1, m1 = simulate(cfg)
        t2, e2, m2 = simulate(cfg)
        assert m1 == m2
        for a, b in ((t1, t2), (e1, e2)):
            assert a.ids.tolist() == b.ids.tolist()
            assert np.array_equal(a.time, b.time) and np.array_equal(a.cause, b.cause)
            assert np.array_equal(a.X, b.X, equal_nan=True)
            assert list(a.signals) == ["signal1", "signal2", "signal3"]
            for name, sig in a.signals.items():
                assert all(np.array_equal(u, v) for u, v in zip(sig, b.signals[name]))

    def test_missing_cells_are_nan_and_flagged(self):
        train, test, _ = simulate(SimConfig(n=100, n_train=80, n_test=20,
                                            functional=False, missing_rate=0.3))
        for ds in (train, test):
            assert np.array_equal(np.isnan(ds.X), ds.mask)

    def test_manifest_contents(self):
        cfg = SimConfig(n=100, n_train=80, n_test=20, functional=False,
                        missing_rate=0.25)
        _, _, manifest = simulate(cfg)
        assert list(manifest["config"]) == [f.name for f in dataclasses.fields(SimConfig)]
        assert manifest["config"]["n"] == 100
        assert 0.15 < manifest["realized_missing_rate"] < 0.35
        assert sum(manifest["cause_counts"].values()) == 100

    @pytest.mark.parametrize("rate, realized", [(0.0, 0.0), (0.25, 0.2547)])
    def test_default_design_at_seed_0(self, rate, realized):
        # a change to a design constant or to the order of the draws moves
        # these figures; the curves feed no outcome, so their sum is checked
        train, test, manifest = simulate(SimConfig(missing_rate=rate))
        assert manifest["cause_counts"] == {"0": 190, "1": 340, "2": 470}
        assert manifest["realized_missing_rate"] == realized
        both = (train, test)
        assert sum(ds.time.sum() for ds in both) == pytest.approx(22422.27639619401,
                                                                 rel=1e-12)
        assert sum(sig.values.sum() for ds in both for sig in ds.signals.values()) == \
            pytest.approx(4862.496554181911 + 41.26521314601024, rel=1e-12)

    def test_times_within_horizon(self):
        train, test, _ = simulate(SimConfig(n=200, n_train=150, n_test=50,
                                            functional=False))
        for ds in (train, test):
            assert np.all((0.0 < ds.time) & (ds.time <= 100.0))
            assert set(ds.cause.tolist()) <= {0, 1, 2}

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            simulate(SimConfig(n=100, n_train=90, n_test=20))
