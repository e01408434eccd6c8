"""Synthetic competing-risks data generator.

Ten visible tabular covariates (five normal, five uniform), five hidden
nonlinear features used only for outcome generation, three B-spline
functional signals, a lognormal/Weibull latent race with Gamma and
Exponential frailties, uniform censoring, and MAR masking whose cell
probabilities depend on two always-observed anchor covariates.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, Signal

# visible covariate distributions: five normals, five uniforms
NORMAL_PARAMS = [(0.2, 1.0), (1.5, 1.2), (-0.5, 0.8), (0.0, 1.0), (1.0, 0.5)]
UNIFORM_PARAMS = [(-1.0, 1.0), (0.2, 2.0), (0.0, 1.0), (-2.0, 2.0), (0.5, 1.5)]
ANCHOR_COLUMNS = (0, 5)  # never masked; drive the MAR mechanism
# apply_mar reaches an overall rate below the share of maskable columns
MAX_MISSING_RATE = 1 - len(ANCHOR_COLUMNS) / (len(NORMAL_PARAMS) + len(UNIFORM_PARAMS))
SPLINE_DEGREE = 3  # the simulated curves' B-splines are cubic


def bspline_design(taus, n_basis):
    """The (J, n_basis) clamped uniform B-spline basis on [0, 1] at taus, by
    the Cox-de Boor recursion over all taus at once: degree-0 indicators of
    the half-open spans [t_i, t_{i+1}), then one array expression per
    degree, where a zero-width span contributes 0. tau = 1 takes the last
    function alone. n_basis is at least SPLINE_DEGREE + 1, the cubic
    functions on [0, 1] without interior knots."""
    if n_basis < SPLINE_DEGREE + 1:
        raise ValueError("n_basis %d is below the %d functions of a degree-%d "
                         "B-spline basis" % (n_basis, SPLINE_DEGREE + 1, SPLINE_DEGREE))
    taus = np.asarray(taus, dtype=np.float64)
    outside = np.flatnonzero(~((taus >= 0.0) & (taus <= 1.0)))
    if len(outside):
        raise ValueError("tau %g outside [0, 1]" % taus[outside[0]])
    p = SPLINE_DEGREE
    interior = np.linspace(0.0, 1.0, n_basis - p + 1)[1:-1]
    knots = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
    t = taus[:, None]
    b = ((knots[:-1] <= t) & (t < knots[1:])).astype(np.float64)
    for k in range(1, p + 1):
        lo, hi = knots[:-k - 1], knots[k + 1:]  # t_i and t_{i+k+1}
        left_den, right_den = knots[k:-1] - lo, hi - knots[1:-k]
        left = (t - lo) / np.where(left_den > 0, left_den, 1.0) * b[:, :-1]
        right = (hi - t) / np.where(right_den > 0, right_den, 1.0) * b[:, 1:]
        b = np.where(left_den > 0, left, 0.0) + np.where(right_den > 0, right, 0.0)
    b[taus == 1.0] = np.arange(n_basis) == n_basis - 1
    return b


@dataclass
class SimConfig:
    n: int = 1000
    seed: int = 0
    n_train: int = 800
    n_test: int = 200
    functional: bool = True
    n_signals: int = 3
    n_spline_basis: int = 15
    n_sample_points: int = 51
    curve_covariate_coupling: float = 0.5
    # cause 1: lognormal baseline, Gamma frailty (mean 1)
    lognormal_mu: float = 4.2
    lognormal_sigma: float = 0.8
    gamma_shape: float = 2.0
    gamma_scale: float = 0.5
    # cause 2: Weibull baseline, Exponential frailty (mean 1)
    weibull_shape: float = 1.5
    weibull_scale: float = 130.0
    exp_frailty_rate: float = 1.0
    censor_max: float = 150.0
    max_time: float = 100.0
    missing_rate: float = 0.0
    # linear predictors over [10 visible | 5 hidden] features
    coef_cause1: tuple = (0.30, 0.0, 0.20, 0.0, 0.0, 0.25, 0.0, 0.15, 0.0, 0.0,
                          0.15, 0.0, 0.10, 0.10, 0.0)
    coef_cause2: tuple = (0.0, 0.20, 0.0, 0.25, 0.0, 0.0, 0.30, 0.0, 0.15, 0.0,
                          0.0, 0.15, 0.0, 0.0, 0.10)


def gen_tabular(n, rng):
    """Visible n x 10 covariates plus the n x 5 hidden nonlinear features."""
    cols = [rng.normal(m, s, size=n) for m, s in NORMAL_PARAMS]
    cols += [rng.uniform(lo, hi, size=n) for lo, hi in UNIFORM_PARAMS]
    X = np.column_stack(cols)
    # three squares, two pairwise products
    hidden = np.column_stack([
        X[:, 0] ** 2,
        X[:, 2] ** 2,
        X[:, 5] ** 2,
        X[:, 0] * X[:, 6],
        X[:, 1] * X[:, 8],
    ])
    return X, hidden


def gen_functional(n, rng, config, X):
    """Spline-coefficient curves coupled to the covariates X: values
    (n_signals, n, J) on a uniform grid."""
    taus = np.linspace(0.0, 1.0, config.n_sample_points)
    design = bspline_design(taus, config.n_spline_basis)  # (J, K)
    curves = np.empty((config.n_signals, n, config.n_sample_points))
    for s in range(config.n_signals):
        coefs = rng.standard_normal((n, config.n_spline_basis))
        if config.curve_covariate_coupling:
            # first coefficients shift with two tabular covariates so the
            # signals carry outcome-relevant information
            coefs[:, 0] += config.curve_covariate_coupling * X[:, s % 2]
            coefs[:, 1] += config.curve_covariate_coupling * X[:, (s + 1) % 2]
        curves[s] = coefs @ design.T
    return taus, curves


def gen_outcomes(X, hidden, rng, config):
    """Latent race between a lognormal and a Weibull process plus censoring."""
    n = len(X)
    features = np.hstack([X, hidden])
    eta1 = features @ np.asarray(config.coef_cause1)
    eta2 = features @ np.asarray(config.coef_cause2)
    frailty1 = rng.gamma(config.gamma_shape, config.gamma_scale, size=n)
    frailty2 = rng.exponential(1.0 / config.exp_frailty_rate, size=n)
    t1 = np.exp(config.lognormal_mu - eta1
                + config.lognormal_sigma * rng.standard_normal(n)) * frailty1
    u = rng.uniform(size=n)
    t2 = (config.weibull_scale * np.exp(-eta2 / config.weibull_shape)
          * (-np.log(u)) ** (1.0 / config.weibull_shape)) * frailty2
    c = rng.uniform(0.0, config.censor_max, size=n)
    c = np.minimum(c, config.max_time)
    stacked = np.column_stack([c, t1, t2])
    cause = np.argmin(stacked, axis=1)
    time = stacked[np.arange(n), cause]
    return time, cause.astype(int)


def apply_mar(X, rate, rng):
    """MAR mask over the non-anchor columns calibrated to an overall rate.

    Per-cell missingness probability is logistic in the summed standardized
    ANCHOR_COLUMNS covariates; the intercept is found by bisection so the
    expected overall rate over all columns matches the target.
    """
    n, p = X.shape
    if rate == 0.0:
        return np.zeros((n, p), dtype=bool)
    if not 0.0 <= rate < 1.0:
        raise ValueError("missing rate must lie in [0, 1)")
    maskable = [j for j in range(p) if j not in ANCHOR_COLUMNS]
    target = rate * p / len(maskable)
    if target >= 1.0:
        raise ValueError("target rate %g unreachable with %d maskable columns"
                         % (rate, len(maskable)))
    z = X[:, list(ANCHOR_COLUMNS)]
    z = (z - z.mean(axis=0)) / np.where(z.std(axis=0) > 0, z.std(axis=0), 1.0)
    score = z.sum(axis=1)

    def mean_prob(alpha):
        return float(np.mean(1.0 / (1.0 + np.exp(-(alpha + score)))))

    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_prob(mid) < target:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    probs = 1.0 / (1.0 + np.exp(-(alpha + score)))
    mask = np.zeros((n, p), dtype=bool)
    for j in maskable:
        mask[:, j] = rng.uniform(size=n) < probs
    return mask


def simulate(config):
    """Full pipeline: returns (train Dataset, test Dataset, manifest dict)."""
    if config.n_train + config.n_test != config.n:
        raise ValueError("split sizes must sum to n")
    rng = np.random.RandomState(config.seed)
    X, hidden = gen_tabular(config.n, rng)
    taus, curves = (None, None)
    if config.functional:
        taus, curves = gen_functional(config.n, rng, config, X=X)
    time, cause = gen_outcomes(X, hidden, rng, config)
    time = np.minimum(time, config.max_time)
    cause = np.where(time >= config.max_time, 0, cause)
    mask = apply_mar(X, config.missing_rate, rng)

    signals = {}
    if config.functional:
        offsets = len(taus) * np.arange(config.n + 1)
        signals = {"signal%d" % (s + 1): Signal(np.tile(taus, config.n),
                                                curves[s].ravel(), offsets)
                   for s in range(config.n_signals)}
    ds = Dataset(["s%04d" % i for i in range(config.n)], time, cause,
                 np.where(mask, np.nan, X), signals)
    order = rng.permutation(config.n)
    train = ds.take(order[:config.n_train])
    test = ds.take(order[config.n_train:])
    manifest = {"config": asdict(config),  # json writes its tuples as lists
                "realized_missing_rate": float(mask.mean()),
                "cause_counts": {str(m): int(np.sum(cause == m)) for m in (0, 1, 2)}}
    return train, test, manifest
