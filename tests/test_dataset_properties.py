"""The columnar Dataset code against the per-subject loops it replaced.

The references below are the loop implementations of the two person-period
augmentations (with the sub-distribution weight as a per-row function) and
of curve resampling by np.interp, over per-subject Records. The array code
must give the same bits.
"""
from unittest import mock

import numpy as np
import pytest
from conftest import dataset, g_at, records, ref_assign_interval
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fcrn.data import (G_FLOOR, CensoringSurvival, Signal, augment_cause_specific,
                       augment_subdistribution, build_time_grid, censoring_survival,
                       signal_matrix)

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def ref_augment_cause_specific(subjects, grid, n_causes):
    subj_idx, intervals, targets = [], [], []
    for i, s in enumerate(subjects):
        if s.cause > n_causes:
            raise ValueError("subject %s: cause %d > M=%d" % (s.id, s.cause, n_causes))
        l_star = ref_assign_interval(s.time, grid)
        for t in range(1, l_star + 1):
            subj_idx.append(i)
            intervals.append(t)
            targets.append(s.cause if t == l_star else 0)
    return (np.asarray(subj_idx, dtype=np.intp), np.asarray(intervals, dtype=np.intp),
            np.asarray(targets, dtype=np.intp), np.ones(len(subj_idx)))


def ref_sd_weight(t, t_interval, cause, target_cause, g):
    at_risk = 1.0 if t <= t_interval else 0.0
    past_competing = 1.0 if (t_interval <= t - 1 and cause not in (0, target_cause)) else 0.0
    if at_risk == 0.0 and past_competing == 0.0:
        return 0.0
    return g_at(g, t - 1) / g_at(g, min(t_interval, t) - 1) * (at_risk + past_competing)


def ref_augment_subdistribution(subjects, grid, target_cause, g):
    subj_idx, intervals, targets, weights = [], [], [], []
    for i, s in enumerate(subjects):
        l_star = ref_assign_interval(s.time, grid)
        for t in range(1, grid.n_intervals):
            w = ref_sd_weight(t, l_star, s.cause, target_cause, g)
            if w == 0.0:
                continue
            subj_idx.append(i)
            intervals.append(t)
            targets.append(1 if (t == l_star and s.cause == target_cause) else 0)
            weights.append(w)
    return (np.asarray(subj_idx, dtype=np.intp), np.asarray(intervals, dtype=np.intp),
            np.asarray(targets, dtype=np.intp), np.asarray(weights, dtype=np.float64))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def grids(draw):
    width = draw(st.sampled_from([0.5, 1.0, 2.5, 5.0, 0.1]))
    return build_time_grid(width * draw(st.integers(1, 10)), width)


@st.composite
def cohorts(draw, grid, max_cause=2):
    """Censored, target and competing subjects, many of them on or 1e-10
    off an interval edge."""
    n = draw(st.integers(0, 25))
    edge = st.sampled_from(grid.cuts.tolist())
    near_edge = st.tuples(edge, st.sampled_from([-1e-10, 1e-10])).map(
        lambda p: min(max(p[0] + p[1], 0.0), grid.max_time))
    inside = st.floats(0.0, grid.max_time, allow_nan=False)
    times = draw(st.lists(st.one_of(edge, near_edge, inside), min_size=n, max_size=n))
    causes = draw(st.lists(st.integers(0, max_cause), min_size=n, max_size=n))
    return dataset(times, causes)


def censoring(draw, ds, grid):
    """The cohort's own KM, or an arbitrary nonincreasing G above the floor."""
    if len(ds) and draw(st.booleans()):
        return censoring_survival(ds, grid)
    steps = draw(st.lists(st.floats(0.0, 1.0), min_size=grid.n_intervals,
                          max_size=grid.n_intervals))
    return CensoringSurvival(g=np.maximum(np.concatenate([[1.0], np.cumprod(steps)]),
                                          G_FLOOR))


def same_table(table, expected):
    got = (table.subject_idx, table.interval, table.target, table.weight)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# augmentations
# ---------------------------------------------------------------------------

class TestAugmentationsMatchLoops:
    @PROPERTY
    @given(st.data())
    def test_cause_specific(self, data):
        grid = data.draw(grids())
        ds = data.draw(cohorts(grid, max_cause=3))
        n_causes = data.draw(st.integers(2, 3))
        try:
            expected = ref_augment_cause_specific(records(ds), grid, n_causes)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                augment_cause_specific(ds, grid, n_causes)
            assert str(got.value) == str(e)
            return
        same_table(augment_cause_specific(ds, grid, n_causes), expected)

    @PROPERTY
    @given(st.data())
    def test_subdistribution(self, data):
        grid = data.draw(grids())
        ds = data.draw(cohorts(grid))
        g = censoring(data.draw, ds, grid)
        target = data.draw(st.integers(1, 2))
        same_table(augment_subdistribution(ds, grid, target, g),
                   ref_augment_subdistribution(records(ds), grid, target, g))

    def test_simulated_cohort(self):
        from fcrn.simulate import SimConfig, simulate
        train, _, _ = simulate(SimConfig(n=300, n_train=250, n_test=50, seed=5,
                                         functional=False))
        grid = build_time_grid(100, 5)
        g = censoring_survival(train, grid)
        same_table(augment_cause_specific(train, grid, 2),
                   ref_augment_cause_specific(records(train), grid, 2))
        for target in (1, 2):
            same_table(augment_subdistribution(train, grid, target, g),
                       ref_augment_subdistribution(records(train), grid, target, g))


# ---------------------------------------------------------------------------
# signals: resampling and row selection
# ---------------------------------------------------------------------------

# finite, as the curve reader requires; +-1e308 overflows some slopes to inf
VALUE = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e308, -1e308]))


@st.composite
def signals(draw, n):
    """One signal: 2-6 strictly increasing points in [0, 1] per subject."""
    taus, values, counts = [], [], []
    grid_taus = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    for _ in range(n):
        pts = sorted(set(draw(st.lists(st.one_of(grid_taus, st.floats(0.0, 1.0)),
                                       min_size=2, max_size=6))))
        if len(pts) < 2:
            pts = [0.0, 1.0]
        taus += pts
        values += draw(st.lists(VALUE, min_size=len(pts), max_size=len(pts)))
        counts.append(len(pts))
    return Signal(np.array(taus), np.array(values),
                  np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]))


class TestSignals:
    @PROPERTY
    @given(st.data())
    def test_signal_matrix_matches_np_interp(self, data):
        n = data.draw(st.integers(0, 6))
        sig = data.draw(signals(n))
        ds = dataset([1.0] * n, [0] * n, signals={"s": sig})
        taus = np.unique(sig.taus)
        if data.draw(st.booleans()) or not len(taus):
            taus = np.linspace(0.0, 1.0, data.draw(st.integers(2, 9)))
        expected = np.array([np.interp(taus, r.curves[0][1], r.curves[0][2])
                             for r in records(ds)])
        got = signal_matrix(ds, "s", taus)
        assert got.shape == (n, len(taus))
        assert got.tobytes() == expected.reshape(n, len(taus)).tobytes()

    @staticmethod
    def resample(ds, taus):
        """(signal_matrix, its np.interp calls, the per-subject loop's matrix)."""
        expected = np.array([np.interp(taus, r.curves[0][1], r.curves[0][2])
                             for r in records(ds)]).reshape(len(ds), len(taus))
        with mock.patch.object(np, "interp", wraps=np.interp) as interp:
            got = signal_matrix(ds, "s", taus)
        return got, interp.call_count, expected

    @PROPERTY
    @given(st.data())
    def test_on_grid_curves_are_their_values(self, data):
        # every subject sampled at the target taus, a zero of either sign
        # on either side: the values as they are, with no np.interp call
        n = data.draw(st.integers(0, 6))
        taus = np.array(sorted(set(data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=8)))))
        signed = [np.where(taus == 0.0, data.draw(st.sampled_from([0.0, -0.0])), taus)
                  for _ in range(n + 1)]
        values = np.array(data.draw(st.lists(VALUE, min_size=n * len(taus),
                                             max_size=n * len(taus))))
        ds = dataset([1.0] * n, [0] * n, signals={"s": Signal(
            np.concatenate(signed[1:] + [taus[:0]]), values, len(taus) * np.arange(n + 1))})
        got, calls, expected = self.resample(ds, signed[0])
        assert calls == 0
        assert got.tobytes() == expected.tobytes()
        assert not np.shares_memory(got, ds.signals["s"].values)

    @pytest.mark.parametrize("change", ["moved", "dropped"])
    def test_one_subject_off_the_grid_takes_the_loop(self, change):
        rng = np.random.RandomState(3)
        taus = np.linspace(0.0, 1.0, 11)
        points = [taus.copy() for _ in range(5)]
        if change == "moved":
            points[2][4] += 0.01
        else:
            points[2] = np.delete(points[2], 4)
        ds = dataset([1.0] * 5, [0] * 5, signals={"s": Signal(
            np.concatenate(points), rng.randn(sum(map(len, points))),
            np.concatenate([[0], np.cumsum([len(p) for p in points])]))})
        got, calls, expected = self.resample(ds, taus)
        assert calls == 5
        assert got.tobytes() == expected.tobytes()

    @PROPERTY
    @given(st.data())
    def test_take_selects_subjects(self, data):
        n = data.draw(st.integers(0, 6))
        X = np.arange(2.0 * n).reshape(n, 2)
        X[X % 3 == 0] = np.nan
        ds = dataset(np.arange(n) * 1.5, np.arange(n) % 3, X=X,
                     signals={"a": data.draw(signals(n)), "b": data.draw(signals(n))})
        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=8)) if n else []
        got, expected = records(ds.take(rows)), [records(ds)[r] for r in rows]
        assert [(r.id, r.time, r.cause) for r in got] == \
            [(r.id, r.time, r.cause) for r in expected]
        for a, b in zip(got, expected):
            assert np.array_equal(a.x, b.x, equal_nan=True)
            assert a.missing_mask.tolist() == b.missing_mask.tolist()
            assert [c[0] for c in a.curves] == [c[0] for c in b.curves]
            for c, d in zip(a.curves, b.curves):
                assert c[1].tobytes() == d[1].tobytes()
                assert c[2].tobytes() == d[2].tobytes()
