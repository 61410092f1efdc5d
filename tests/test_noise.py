import math

import numpy as np
import pytest

from expander_cs import (DesignMatrix, NoiseModel, empirical_noise_bound,
                         matching_graph, random_left_regular, sample_noise,
                         sample_noise_rows, thresholds, trial_noise)
from expander_cs import noise
from expander_cs.rng import derive_seed, gaussians


def test_threshold_values_n100():
    th = thresholds(1.0, 100)
    assert th.lam == pytest.approx(4.29193, abs=1e-5)
    assert th.eta_n == pytest.approx(1.8590e-3, rel=1e-4)
    assert th.lam_t == th.lam                      # t = 1 reduces to Lambda
    assert th.high_prob_bound == pytest.approx(1.0 - th.eta_n, rel=1e-12)


def test_threshold_scalings():
    th = thresholds(2.5, 50, t=2.0)
    assert th.lam == pytest.approx(2 * 2.5 * math.sqrt(math.log(50)))
    assert th.lam_t == pytest.approx(3 * 2.5 * math.sqrt(math.log(50)))


def test_threshold_domain_errors():
    with pytest.raises(ValueError):
        thresholds(1.0, 1)
    with pytest.raises(ValueError):
        thresholds(-1.0, 10)
    with pytest.raises(ValueError):
        thresholds(1.0, 10, t=0.5)


def test_threshold_rejects_nan_parameters():
    with pytest.raises(ValueError, match="t must be"):
        thresholds(1.0, 100, t=math.nan)
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be"):
            thresholds(sigma, 100)
    with pytest.raises(ValueError, match="Lambda_t"):
        thresholds(1e308, 100)


def test_threshold_bound_at_a_huge_t_is_1():
    # n ** ((1+t)**2/2 - 1) overflows a double, so the tail term rounds away
    for sigma in (0.0, 1.0):
        for t in (1e10, 1e200):
            assert thresholds(sigma, 10, t).high_prob_bound == 1.0


def test_noise_model_rejects_nan_sigma():
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be"):
            NoiseModel(10, sigma)


def test_eta_decreasing_bound_increasing():
    etas = [thresholds(1.0, n).eta_n for n in (10, 50, 200, 1000)]
    assert all(a > b for a, b in zip(etas, etas[1:]))
    bounds = [thresholds(1.0, 100, t).high_prob_bound for t in (1.0, 1.5, 2.0, 3.0)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] < 1.0


def test_sigma_zero_noise_is_exactly_zero():
    model = NoiseModel(20, 0.0)
    np.testing.assert_array_equal(sample_noise(model, 7), np.zeros(20))


def test_noise_deterministic_per_seed():
    model = NoiseModel(50, 1.3, "ar1", rho=0.4)
    a = sample_noise(model, 99)
    b = sample_noise(model, 99)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, sample_noise(model, 100))


def reference_ar1(model: NoiseModel, seed: int) -> np.ndarray:
    """The AR(1) filter as first written, a loop over numpy scalars: the
    slow reference for ``sample_noise``'s AR(1) rows."""
    g = gaussians(seed, model.n)
    rho = model.rho
    scale = model.sigma * math.sqrt(1.0 - rho * rho)
    z = np.empty(model.n)
    z[0] = model.sigma * g[0]
    for i in range(1, model.n):
        z[i] = rho * z[i - 1] + scale * g[i]
    return z


@pytest.mark.parametrize("rho", [0.0, 0.5, -0.9, 0.999, 1e-300])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 1536])
def test_ar1_matches_reference_bytes(n, rho):
    for sigma in (0.01, 1.0, 3.7):
        model = NoiseModel(n, sigma, "ar1", rho=rho)
        for seed in range(5):
            fast = sample_noise(model, seed)
            assert fast.dtype == np.float64 and fast.shape == (n,)
            assert fast.tobytes() == reference_ar1(model, seed).tobytes()


def test_ar1_rho_zero_matches_iid_stream():
    # with the shared generator, rho = 0 degenerates to the iid draw exactly
    iid = NoiseModel(30, 2.0)
    ar0 = NoiseModel(30, 2.0, "ar1", rho=0.0)
    np.testing.assert_array_equal(sample_noise(iid, 5), sample_noise(ar0, 5))


def test_block_rows_are_the_one_seed_draws():
    corr = np.array([[0.6 ** abs(i - j) for j in range(7)] for i in range(7)])
    for model in (NoiseModel(7, 1.3), NoiseModel(7, 0.0),
                  NoiseModel(7, 1.3, "ar1", rho=-0.4),
                  NoiseModel(7, 1.3, "explicit", corr=corr)):
        seeds = [0, 2**64 - 1, *(derive_seed(4, k) for k in range(5))]
        rows = sample_noise_rows(model, seeds)
        assert rows.shape == (7, 7) and rows.dtype == np.float64
        for row, seed in zip(rows, seeds):
            assert row.tobytes() == sample_noise(model, seed).tobytes()
        assert sample_noise_rows(model, []).shape == (0, 7)
        for k, z in enumerate(np.concatenate(list(trial_noise(model, 9, 5)))):
            assert z.tobytes() == sample_noise(model, derive_seed(9, k)).tobytes()
        assert k == 4
    # trial_noise yields the blocks whole: 2 rows of n = 7000 fit in one
    assert [b.shape for b in trial_noise(NoiseModel(7000, 1.0), 9, 5)] == [(2, 7000)] * 2 + [(1, 7000)]
    # max_rows caps a block below _BLOCK; the rows stay the same draws
    model = NoiseModel(7, 1.3, "ar1", rho=0.5)
    for cap, shapes in ((2, [(2, 7)] * 2 + [(1, 7)]), (1, [(1, 7)] * 5), (0, [(1, 7)] * 5),
                        (10**9, [(5, 7)])):
        blocks = list(trial_noise(model, 9, 5, cap))
        assert [b.shape for b in blocks] == shapes
        assert np.concatenate(blocks).tobytes() == np.concatenate(
            list(trial_noise(model, 9, 5))).tobytes()


def test_ar1_block_speculates_at_half_and_repairs_near_one():
    # the work counter is the positions the sequential repair recomputed
    n = 1536
    rows = noise._BLOCK // n
    seeds = [derive_seed(21, k) for k in range(rows)]
    g = gaussians(seeds, n)
    for rho in (0.5, 0.999):
        w = g.copy()
        w[:, 1:] *= math.sqrt(1.0 - rho * rho)
        z, work = noise._ar1(w.copy(), rho)
        model = NoiseModel(n, 1.0, "ar1", rho=rho)
        for row, seed in zip(z, seeds):
            assert row.tobytes() == reference_ar1(model, seed).tobytes()
        if rho == 0.5:
            assert work < rows * (n - 1) // 20     # the scan found nearly every position
        else:
            assert work == rows * (n - 1)          # no scan: the recurrence, row by row
    _, work = noise._ar1(g[:1].copy(), 0.5)         # one row: a scan cannot pay
    assert work == n - 1


def test_ar1_marginal_variance_and_lag1_correlation():
    model = NoiseModel(8, 1.0, "ar1", rho=0.5)
    draws = np.concatenate(list(trial_noise(model, 3, 100000)))
    var = draws.var(axis=0)
    assert np.all(np.abs(var - 1.0) <= 0.02)
    lag1 = [np.corrcoef(draws[:, i], draws[:, i + 1])[0, 1] for i in range(7)]
    assert np.all(np.abs(np.array(lag1) - 0.5) <= 0.02)


def test_explicit_model_validation():
    good = np.array([[1.0, 0.3], [0.3, 1.0]])
    NoiseModel(2, 1.0, "explicit", corr=good)
    with pytest.raises(ValueError):
        NoiseModel(2, 1.0, "explicit", corr=np.array([[1.0, 0.3], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        NoiseModel(2, 1.0, "explicit", corr=np.array([[2.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        NoiseModel(2, 1.0, "explicit", corr=np.array([[1.0, 1.5], [1.5, 1.0]]))
    with pytest.raises(ValueError, match="finite"):      # NaN passes every comparison
        NoiseModel(2, 1.0, "explicit", corr=np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError):
        NoiseModel(3, 1.0, "ar1", rho=1.0)


def test_explicit_matches_ar1_second_moments():
    n, rho = 6, 0.6
    corr = np.array([[rho ** abs(i - j) for j in range(n)] for i in range(n)])
    model = NoiseModel(n, 1.0, "explicit", corr=corr)
    draws = np.concatenate(list(trial_noise(model, 11, 20000)))
    emp = np.corrcoef(draws.T)
    assert np.max(np.abs(emp - corr)) < 0.03
    assert np.all(np.abs(draws.var(axis=0) - 1.0) < 0.03)


def test_noise_bound_sigma_zero():
    X = DesignMatrix(matching_graph(10))
    chk = empirical_noise_bound(X, NoiseModel(10, 0.0), 1.0, 50, seed=0)
    assert chk.frequency == 1.0 and chk.passed


def test_noise_bound_nonamplification_every_draw():
    X = DesignMatrix(random_left_regular(40, 4, 20, seed=1))
    chk = empirical_noise_bound(X, NoiseModel(20, 1.0), 1.0, 2000, seed=2)
    assert chk.nonamp_ok
    assert chk.passed


def test_noise_bound_matching_design_near_tight():
    # the identity permutation design attains ||X^T z||_inf = ||z||_inf,
    # the worst case, so the frequency sits closest to the bound
    X = DesignMatrix(matching_graph(100))
    chk = empirical_noise_bound(X, NoiseModel(100, 1.0), 1.0, 2000, seed=3)
    assert chk.passed and chk.nonamp_ok
    assert chk.frequency >= chk.bound - 3.0 * math.sqrt(
        chk.bound * (1 - chk.bound) / 2000)


def test_noise_bound_higher_t_closer_to_one():
    X = DesignMatrix(matching_graph(100))
    c1 = empirical_noise_bound(X, NoiseModel(100, 1.0), 1.0, 2000, seed=4)
    c2 = empirical_noise_bound(X, NoiseModel(100, 1.0), 2.0, 2000, seed=4)
    assert c2.frequency >= c1.frequency
    assert c2.bound > c1.bound


def test_noise_bound_rejects_length_mismatch():
    X = DesignMatrix(matching_graph(5))
    with pytest.raises(ValueError):
        empirical_noise_bound(X, NoiseModel(6, 1.0), 1.0, 10, seed=0)
