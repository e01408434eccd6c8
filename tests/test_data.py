import math
import tracemalloc

import numpy as np
import pytest
from conftest import dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrn.data import (CensoringSurvival, DataError, Dataset, Signal, assign_intervals,
                       augment_cause_specific, augment_subdistribution,
                       build_time_grid, censoring_survival, fraction_digits,
                       read_curves_csv, read_subjects_csv, write_curves_csv,
                       write_subjects_csv)
from fcrn.simulate import SimConfig, simulate


def random_cohort(rng, n, max_time):
    """n subjects, each drawing a uniform time, then a cause in 0..2."""
    draws = [(rng.uniform(0, max_time), rng.randint(0, 3)) for _ in range(n)]
    return dataset(*zip(*draws))


def sd_weights(time, cause, target_cause, g, grid):
    """IPCW weights of one subject's rows t = 1..L-1, 0 for a dropped row."""
    table = augment_subdistribution(dataset([time], [cause]), grid, target_cause, g)
    weights = np.zeros(grid.n_intervals - 1)
    weights[table.interval - 1] = table.weight
    return weights


class TestTimeGrid:
    def test_default_grid(self):
        assert build_time_grid(100, 5).n_intervals == 20

    def test_single_interval(self):
        g = build_time_grid(5, 5)
        assert g.n_intervals == 1
        assert np.allclose(g.cuts, [0, 5])

    def test_ceiling_rule(self):
        assert build_time_grid(101, 5).n_intervals == 21

    def test_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            build_time_grid(0, 5)
        with pytest.raises(ValueError):
            build_time_grid(10, -1)


class TestAssignInterval:
    def test_boundary_belongs_to_lower_interval(self):
        assert assign_intervals([5.0], build_time_grid(100, 5)).tolist() == [1]

    def test_just_past_boundary(self):
        assert assign_intervals([5.1], build_time_grid(100, 5)).tolist() == [2]

    def test_zero_maps_to_first_interval(self):
        assert assign_intervals([0.0], build_time_grid(100, 5)).tolist() == [1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            assign_intervals([101.0], build_time_grid(100, 5))


class TestCauseSpecificAugmentation:
    def test_event_in_third_interval(self):
        grid = build_time_grid(25, 5)
        t = augment_cause_specific(dataset([13.0], [2]), grid, 2)
        assert t.interval.tolist() == [1, 2, 3]
        assert t.target.tolist() == [0, 0, 2]
        assert np.all(t.weight == 1.0)

    def test_censored_in_second_interval(self):
        grid = build_time_grid(25, 5)
        t = augment_cause_specific(dataset([8.0], [0]), grid, 2)
        assert t.interval.tolist() == [1, 2]
        assert t.target.tolist() == [0, 0]

    def test_event_in_first_interval(self):
        grid = build_time_grid(25, 5)
        t = augment_cause_specific(dataset([2.0], [1]), grid, 2)
        assert t.interval.tolist() == [1]
        assert t.target.tolist() == [1]

    def test_cause_beyond_m_rejected(self):
        grid = build_time_grid(25, 5)
        with pytest.raises(ValueError):
            augment_cause_specific(dataset([2.0], [3]), grid, 2)

    def test_row_count_and_single_event_row(self):
        grid = build_time_grid(50, 5)
        rng = np.random.RandomState(0)
        ds = random_cohort(rng, 40, 50)
        table = augment_cause_specific(ds, grid, 2)
        for i, l_star in enumerate(assign_intervals(ds.time, grid)):
            rows = np.where(table.subject_idx == i)[0]
            assert len(rows) == l_star
            nonzero = np.sum(table.target[rows] > 0)
            assert nonzero == (1 if ds.cause[i] >= 1 else 0)

    def test_risk_set_round_trip(self):
        # grouping rows by interval reconstructs the risk set sizes
        grid = build_time_grid(50, 5)
        rng = np.random.RandomState(1)
        ds = random_cohort(rng, 60, 50)
        table = augment_cause_specific(ds, grid, 2)
        iv = assign_intervals(ds.time, grid)
        for t in range(1, grid.n_intervals + 1):
            assert np.sum(table.interval == t) == np.sum(iv >= t)


class TestCensoringSurvival:
    def test_hand_kaplan_meier(self):
        grid = build_time_grid(3, 1)
        g = censoring_survival(dataset([1, 2, 3], [1, 0, 1]), grid)
        assert g.g[0] == 1.0
        assert g.g[1] == 1.0
        assert g.g[2] == pytest.approx(0.5)
        assert g.g[3] == pytest.approx(0.5)

    def test_no_censoring(self):
        grid = build_time_grid(3, 1)
        g = censoring_survival(dataset([1, 3], [1, 2]), grid)
        assert np.all(g.g == 1.0)

    def test_all_censored_first_interval_clamped(self):
        grid = build_time_grid(3, 1)
        g = censoring_survival(dataset([1, 1], [0, 0]), grid)
        assert g.g[1] == pytest.approx(1e-4)

    def test_nonincreasing(self):
        rng = np.random.RandomState(2)
        grid = build_time_grid(50, 5)
        g = censoring_survival(random_cohort(rng, 50, 50), grid)
        assert np.all(np.diff(g.g) <= 1e-12)
        assert g.g[0] == 1.0


class TestSubdistributionWeights:
    # one subject on a width-1 grid: time k falls in interval k, and the
    # weight of row t is weights[t - 1]

    def test_at_risk_weight_is_one(self):
        g = CensoringSurvival(g=np.array([1.0, 0.9, 0.8, 0.7, 0.6]))
        weights = sd_weights(3.0, 1, 1, g, build_time_grid(4, 1))
        assert weights[:3] == pytest.approx([1.0, 1.0, 1.0])

    def test_unit_censoring_survival(self):
        g = CensoringSurvival(g=np.ones(6))
        assert sd_weights(2.0, 2, 1, g, build_time_grid(5, 1))[3] == pytest.approx(1.0)

    def test_weight_formula_substitution(self):
        # competing event at interval 2, G(1)=0.9, G(3)=0.7, t=4
        g = CensoringSurvival(g=np.array([1.0, 0.9, 0.8, 0.7, 0.6]))
        assert sd_weights(2.0, 2, 1, g, build_time_grid(5, 1))[3] == \
            pytest.approx(0.7 / 0.9)

    def test_censored_subject_leaves_risk_set(self):
        g = CensoringSurvival(g=np.array([1.0, 0.9, 0.8, 0.7]))
        assert sd_weights(2.0, 0, 1, g, build_time_grid(4, 1))[2] == 0.0

    def test_augmentation_covers_l_minus_one(self):
        grid = build_time_grid(5, 1)
        g = CensoringSurvival(g=np.ones(6))
        # at risk in every row, so none is dropped
        t = augment_subdistribution(dataset([5.0], [1]), grid, 1, g)
        assert t.interval.tolist() == [1, 2, 3, 4]

    def test_target_cause_zero_rejected(self):
        grid = build_time_grid(5, 1)
        g = CensoringSurvival(g=np.ones(6))
        with pytest.raises(ValueError):
            augment_subdistribution(dataset([1.0], [1]), grid, 0, g)

    def test_at_risk_rows_have_unit_weight(self):
        grid = build_time_grid(20, 1)
        rng = np.random.RandomState(3)
        ds = random_cohort(rng, 40, 20)
        g = censoring_survival(ds, grid)
        table = augment_subdistribution(ds, grid, 1, g)
        at_risk = table.interval <= assign_intervals(ds.time, grid)[table.subject_idx]
        assert at_risk.any()
        assert table.weight[at_risk] == pytest.approx(1.0)


class TestCsvRoundTrip:
    def test_subjects_and_curves(self, tmp_path):
        taus = np.linspace(0, 1, 5)
        hr = Signal(np.concatenate([taus, taus[:3]]), np.arange(8.0),
                    np.array([0, 5, 8]))
        ds = dataset([3.5, 7.0], [1, 0], X=[[1.0, np.nan], [2.0, 3.0]],
                     ids=["a", "b"], signals={"hr": hr})
        sp = tmp_path / "subjects.csv"
        cp = tmp_path / "curves.csv"
        write_subjects_csv(sp, ds)
        write_curves_csv(cp, ds)
        loaded = read_curves_csv(cp, read_subjects_csv(sp))
        assert loaded.ids.tolist() == ["a", "b"]
        assert loaded.mask.tolist() == [[False, True], [False, False]]
        assert loaded.X[0, 0] == 1.0 and np.isnan(loaded.X[0, 1])
        assert loaded.time.tolist() == [3.5, 7.0] and loaded.cause.tolist() == [1, 0]
        assert list(loaded.signals) == ["hr"]
        for got, expected in zip(loaded.signals["hr"], hr):
            assert np.array_equal(got, expected)

    def test_curves_reader_peak_memory(self, tmp_path):
        # 400 subjects x 3 signals x 51 points = 61,200 rows. The reader
        # concatenates and then sorts its per-point curve keys, taus and
        # values one column at a time: its traced peak is 2.5x the bytes of
        # the Signals it returns, bounded at 3.5x. Keeping every block to
        # the end and sorting copies of all columns at once peaked at 8.1x.
        train, _, _ = simulate(SimConfig(n=400, n_train=400, n_test=0, seed=0))
        path = tmp_path / "curves.csv"
        write_curves_csv(path, train)
        cohort = Dataset(train.ids, train.time, train.cause, train.X)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = read_curves_csv(path, cohort)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert sum(len(sig.taus) for sig in got.signals.values()) == 61200
        assert peak < 3.5 * sum(a.nbytes for sig in got.signals.values() for a in sig)

    @pytest.mark.parametrize("functional, n, bound", [(False, 10000, 1.3e6),
                                                      (True, 800, 0.82e6)],
                             ids=["subjects", "curves"])
    def test_writer_peak_memory(self, tmp_path, functional, n, bound):
        # the simulate writers on 10,000 subjects of 10 covariates and on
        # 800 subjects x 3 signals x 51 points, in blocks of WRITE_CELLS
        # cells: traced peaks of 1.07 and 0.68 MB, bounded for a ~20%
        # margin. 32-subject blocks of a template per cell peaked at 0.14
        # and 0.87 MB but wrote 25% and 9% slower.
        ds, _, _ = simulate(SimConfig(n=n, n_train=n, n_test=0, seed=0,
                                      functional=functional))
        write = write_curves_csv if functional else write_subjects_csv
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            write(tmp_path / "out.csv", ds)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_subject_lacking_a_signal_is_named(self, tmp_path):
        cp = tmp_path / "curves.csv"
        cp.write_text("id,signal_name,tau,value\n"
                      "a,hr,0,1\na,hr,1,2\nb,hr,0,1\nb,hr,1,2\na,bp,0,1\na,bp,1,2\n")
        with pytest.raises(DataError, match="subject b lacks signal 'bp'"):
            read_curves_csv(cp, dataset([1.0, 2.0], [0, 1], ids=["a", "b"]))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_curve_value_is_named(self, tmp_path, value):
        cp = tmp_path / "curves.csv"
        cp.write_text("id,signal_name,tau,value\na,hr,0,1\na,hr,1,%s\n" % value)
        with pytest.raises(DataError) as e:
            read_curves_csv(cp, dataset([1.0], [0], ids=["a"]))
        assert str(e.value) == ("%s row 3 column value: bad numeric cell %r"
                                % (cp, value))

    def test_malformed_cell_raises(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,time,cause,x1\na,1.0,1,oops\n")
        with pytest.raises(DataError, match="x1"):
            read_subjects_csv(p)


def fraction_texts(values):
    """Each value's text as the predictions writer makes it from
    fraction_digits: "0.", -k - 1 zeros and the digits, or "%.17g"."""
    k, digits = fraction_digits(values)
    return ["%.17g" % v if e == 0 else "0." + "0" * (-e - 1) + "%d" % d
            for v, e, d in zip(np.ravel(values).tolist(), k.ravel().tolist(),
                               digits.ravel().tolist())]


def ulps_around(x, count):
    """The count doubles below x, x and the count doubles above it."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


class TestFractionDigits:
    """fraction_digits gives exactly "%.17g"'s text of every value in
    [1e-4, 1) and leaves every other value to "%.17g". A numpy warning
    would fail these tests (the suite makes warnings errors)."""

    @staticmethod
    def assert_exact(values):
        values = np.asarray(values, dtype=np.float64)
        assert fraction_texts(values) == ["%.17g" % v for v in values.ravel().tolist()]

    def test_a_million_uniform_draws(self):
        values = np.random.default_rng(0).uniform(1e-4, 1.0, 10 ** 6)
        assert (fraction_digits(values)[0] != 0).all()
        self.assert_exact(values)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-4, 1.0, exclude_max=True), min_size=1, max_size=64))
    def test_floats_in_range(self, values):
        self.assert_exact(values)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_float(self, values):
        k, _ = fraction_digits(values)
        inside = [1e-4 <= v < 1.0 for v in values]
        assert (k != 0).tolist() == inside
        self.assert_exact(values)

    def test_ulps_around_each_power_of_ten(self):
        """Where the exponent changes, and where rounding up could carry
        the digits to 10^17: the doubles just below 1e-3, 1e-2, 0.1 and 1
        stay at most 99999999999999992, so no carry is needed."""
        for power in (1e-4, 1e-3, 1e-2, 0.1, 1.0):
            values = np.array(ulps_around(power, 16))
            self.assert_exact(values)
            k, digits = fraction_digits(values)
            assert (k[16:] != 0).all() == (power < 1.0)
            assert (k[:16] != 0).all() == (power > 1e-4)
            assert digits[k != 0].max() <= 99999999999999992

    def test_every_tie_at_the_seventeenth_digit(self):
        """v = i / 2^(17 - k) with i odd is v * 10^(16 - k) = i * 5^(16 - k)
        / 2, halfway between two 17-digit decimals of the decade [10^k,
        10^(k+1)), and rounds to the even one; these are every such double
        in [1e-4, 1)."""
        for k in range(-4, 0):
            j = 17 - k
            odd = np.arange(math.ceil(10.0 ** k * 2 ** j) | 1, 10 ** (k + 1) * 2 ** j, 2)
            values = odd / 2.0 ** j
            assert (fraction_digits(values)[0] == k).all()
            self.assert_exact(values)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(1, 62).flatmap(
        lambda j: st.tuples(st.integers(1, min(2 ** j - 1, 2 ** 53)), st.just(j))))
    def test_dyadic_rationals(self, ij):
        i, j = ij
        self.assert_exact([i / 2.0 ** j])

    def test_other_values_fall_back(self):
        values = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-300, 5e-5,
                  math.nextafter(1e-4, 0.0), math.nextafter(1.0, 2.0), 1.5, 100.0,
                  1e300, -1e-3, -0.5, -1.0, math.nan, math.inf, -math.inf]
        k, _ = fraction_digits(values)
        assert (k == 0).all()
        self.assert_exact(values)

    def test_keeps_the_shape(self):
        values = np.random.default_rng(1).uniform(0.0, 1.0, (3, 4, 5))
        k, digits = fraction_digits(values)
        assert k.shape == digits.shape == values.shape
        self.assert_exact(values)
