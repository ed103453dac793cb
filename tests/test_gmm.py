"""Mixture density and EM fitting tests."""

import math

import numpy as np
import pytest

from groupact.gmm import VAR_FLOOR, GaussianMixture, fit_em, logsumexp

from oracles import mixture_logpdf, normal_logpdf


def test_standard_normal_at_mode():
    gm = GaussianMixture(np.array([1.0]), np.array([[0.0]]), np.array([[1.0]]))
    assert gm.log_density(np.array([0.0])) == pytest.approx(math.log(1 / math.sqrt(2 * math.pi)))
    assert gm.log_density(np.array([0.0])) == pytest.approx(-0.9189385332046727)


def test_identical_components_collapse():
    one = GaussianMixture(np.array([1.0]), np.array([[2.0, -1.0]]), np.array([[0.5, 3.0]]))
    two = GaussianMixture(
        np.array([0.5, 0.5]),
        np.array([[2.0, -1.0], [2.0, -1.0]]),
        np.array([[0.5, 3.0], [0.5, 3.0]]),
    )
    x = np.array([0.3, 0.7])
    assert two.log_density(x) == pytest.approx(one.log_density(x), rel=1e-12)


def test_two_component_value_against_oracle():
    gm = GaussianMixture(
        np.array([0.5, 0.5]), np.array([[-1.0], [1.0]]), np.array([[1.0], [1.0]])
    )
    got = gm.log_density(np.array([0.0]))
    # phi(1) since both components sit one unit away
    assert got == pytest.approx(math.log(math.exp(-0.5) / math.sqrt(2 * math.pi)))
    assert got == pytest.approx(-1.4189385332046727)
    assert got == pytest.approx(
        mixture_logpdf([0.0], [0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
    )


def test_batch_matches_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        w = rng.random(k) + 0.1
        w /= w.sum()
        gm = GaussianMixture(w, rng.normal(size=(k, d)), rng.random((k, d)) + 0.1)
        x = rng.normal(size=d)
        assert gm.log_density(x) == pytest.approx(
            mixture_logpdf(x, gm.weights, gm.means, gm.variances), rel=1e-10
        )


def test_dimension_mismatch_raises():
    gm = GaussianMixture(np.array([1.0]), np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError):
        gm.log_density(np.array([1.0, 2.0, 3.0]))


def test_density_integrates_to_one_1d():
    gm = GaussianMixture(
        np.array([0.3, 0.7]), np.array([[-2.0], [1.5]]), np.array([[0.4], [2.0]])
    )
    xs = np.linspace(-30, 30, 20001)
    dens = np.exp(gm.log_density(xs[:, None]))
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-3)


def test_fit_k1_closed_form():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.0, size=(40, 2))
    gm, _ = fit_em(x, 1, seed=0)
    assert np.allclose(gm.means[0], x.mean(axis=0))
    assert np.allclose(gm.variances[0], np.maximum(x.var(axis=0), VAR_FLOOR))
    assert gm.weights[0] == 1.0


def test_fit_recovers_separated_means():
    rng = np.random.default_rng(42)
    x = np.concatenate([rng.normal(0.0, 1.0, 250), rng.normal(10.0, 1.0, 250)])[:, None]
    gm, _ = fit_em(x, 2, seed=7)
    got = sorted(gm.means[:, 0])
    assert abs(got[0] - 0.0) < 0.3
    assert abs(got[1] - 10.0) < 0.3


def test_fit_monotone_loglik():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(120, 3)) * np.array([1.0, 4.0, 0.2])
    _, hist = fit_em(x, 3, seed=1)
    for a, b in zip(hist, hist[1:]):
        assert b >= a - 1e-9 * max(1.0, abs(a))


def test_fit_degenerate_identical_points():
    x = np.ones((10, 2)) * 5.0
    gm, _ = fit_em(x, 2, seed=0)
    assert np.allclose(gm.means, 5.0)
    assert np.allclose(gm.variances, VAR_FLOOR)
    assert gm.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_fit_deterministic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(80, 2))
    a, _ = fit_em(x, 2, seed=11)
    b, _ = fit_em(x.copy(), 2, seed=11)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.variances, b.variances)


def test_fit_needs_enough_samples():
    with pytest.raises(ValueError):
        fit_em(np.zeros((1, 2)), 2, seed=0)


def test_logsumexp_all_neg_inf():
    assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
    out = logsumexp(np.full((2, 2), -np.inf), axis=1)
    assert np.all(np.isneginf(out))
