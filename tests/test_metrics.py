import numpy as np
import pytest

from conftest import brier_at, brier_ipcw_at, dataset

from fcrn.data import CensoringSurvival, build_time_grid, censoring_survival
from fcrn.metrics import ibs, score_cif


def cohort(outcomes):
    """A Dataset of (time, cause) pairs."""
    return dataset(*zip(*outcomes))


class TestBrier:
    def test_perfect_predictions_score_zero(self):
        subjects = cohort([(1.0, 1), (9.0, 1)])
        assert brier_at(5.0, [1.0, 0.0], subjects, 1) == 0.0

    def test_worst_predictions_score_one(self):
        subjects = cohort([(1.0, 1), (9.0, 1)])
        assert brier_at(5.0, [0.0, 1.0], subjects, 1) == 1.0

    def test_hand_value(self):
        # labels (1, 0), preds (0.7, 0.4): ((0.3)^2 + (0.4)^2)/2 = 0.125
        subjects = cohort([(2.0, 1), (2.0, 2)])
        assert brier_at(5.0, [0.7, 0.4], subjects, 1) == pytest.approx(0.125)

    def test_other_cause_counts_as_zero_label(self):
        subjects = cohort([(2.0, 2)])
        assert brier_at(5.0, [0.0], subjects, 1) == 0.0


class TestBrierIpcw:
    def test_reduces_to_brier_without_censoring(self):
        rng = np.random.RandomState(0)
        grid = build_time_grid(20, 2)
        subjects = cohort([(rng.uniform(0.5, 20), rng.randint(1, 3))
                           for i in range(30)])
        g = censoring_survival(subjects, grid)
        assert np.all(g.g == 1.0)
        for t in (4.0, 10.0, 16.0):
            preds = rng.uniform(0, 1, size=30)
            plain = brier_at(t, preds, subjects, 1)
            ipcw = brier_ipcw_at(t, preds, subjects, 1, g, grid)
            assert abs(plain - ipcw) < 1e-12

    def test_four_subject_hand_example(self):
        # width-1 grid, t=2; G(1)=0.9, G(2)=0.8
        # a: event cause 1 at 1, F=0.6 -> (1-0.6)^2 / G(0)=1 -> 0.16
        # b: censored at 1, F=0.3 -> 0
        # c: event cause 2 at 2, F=0.2 -> (0-0.2)^2 / G(1)=0.9
        # d: at risk (T=3 > 2), F=0.5 -> 0.25 / G(2)=0.8
        grid = build_time_grid(4, 1)
        g = CensoringSurvival(g=np.array([1.0, 0.9, 0.8, 0.8, 0.8]))
        subjects = cohort([(1.0, 1), (1.0, 0), (2.0, 2), (3.0, 1)])
        preds = [0.6, 0.3, 0.2, 0.5]
        expected = (0.16 + 0.0 + 0.04 / 0.9 + 0.25 / 0.8) / 4.0
        assert brier_ipcw_at(2.0, preds, subjects, 1, g, grid) == pytest.approx(
            expected, abs=1e-12)

    def test_time_zero_everyone_at_risk(self):
        grid = build_time_grid(4, 1)
        g = CensoringSurvival(g=np.array([1.0, 0.5, 0.5, 0.5, 0.5]))
        subjects = cohort([(1.0, 1), (2.0, 0)])
        # G(0) = 1 regardless of later censoring
        assert brier_ipcw_at(0.0, [0.3, 0.4], subjects, 1, g, grid) == pytest.approx(
            (0.09 + 0.16) / 2.0)


class TestIbs:
    def test_constant_curve(self):
        assert ibs([0.0, 5.0, 10.0], [0.2, 0.2, 0.2]) == pytest.approx(0.2)

    def test_linear_curve(self):
        # average of a line from 0 to 1 is 0.5; trapezoid is exact
        t = np.linspace(0, 10, 6)
        assert ibs(t, t / 10.0) == pytest.approx(0.5)

    def test_uneven_spacing(self):
        assert ibs([0.0, 1.0, 4.0], [0.0, 1.0, 1.0]) == pytest.approx(
            (0.5 + 3.0) / 4.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            ibs([1.0], [0.5])

    def test_degenerate_range(self):
        with pytest.raises(ValueError):
            ibs([2.0, 2.0], [0.5, 0.5])


class TestScoreCif:
    def test_times_are_interval_endpoints_in_window(self):
        grid = build_time_grid(10, 2)
        subjects = cohort([(3.0, 1), (7.0, 2)])
        F = np.zeros((2, grid.n_intervals + 1))
        curve = score_cif(F, subjects, 1, grid, t0=2.0, t_max=8.0)
        assert curve.times.tolist() == [2.0, 4.0, 6.0, 8.0]

    def test_zero_cif_scores_event_rate(self):
        # predicting F=0 everywhere: BS(t) = fraction with cause-1 event by t
        grid = build_time_grid(4, 1)
        subjects = cohort([(1.0, 1), (2.0, 2), (3.0, 1), (4.0, 1)])
        F = np.zeros((4, grid.n_intervals + 1))
        curve = score_cif(F, subjects, 1, grid)
        assert curve.values.tolist() == [0.0, 0.25, 0.25, 0.5, 0.75]

    def test_ibs_matches_manual_trapezoid(self):
        grid = build_time_grid(4, 1)
        subjects = cohort([(1.0, 1), (3.0, 2)])
        rng = np.random.RandomState(1)
        F = rng.uniform(0, 1, size=(2, grid.n_intervals + 1))
        curve = score_cif(F, subjects, 1, grid)
        assert curve.ibs == pytest.approx(
            np.trapezoid(curve.values, curve.times)
            / (curve.times[-1] - curve.times[0]))

    def test_ipcw_and_plain_agree_without_censoring(self):
        grid = build_time_grid(10, 2)
        rng = np.random.RandomState(2)
        subjects = cohort([(rng.uniform(0.5, 10), rng.randint(1, 3))
                           for i in range(20)])
        g = censoring_survival(subjects, grid)
        F = rng.uniform(0, 1, size=(20, grid.n_intervals + 1))
        plain = score_cif(F, subjects, 1, grid)
        weighted = score_cif(F, subjects, 1, grid, g=g)
        assert np.allclose(plain.values, weighted.values, atol=1e-12)
