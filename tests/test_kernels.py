"""The batched tilt kernels against the layouts they replaced.

The references below are the earlier implementations, kept verbatim as
oracles: the panel kernel that standardised every edge, infinite ones
included, and the mixture posterior laid out (n, k, d) with its einsum
reductions.  The kernels in ``src/`` must reproduce them to rounding.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from logheat import (
    AtomicMeasure,
    GaussianMixture,
    log_density,
    log_hessian,
    make_perturbed,
    mean_variance_1d,
    measure_from_json,
    score,
)
from logheat.heatflow import _tilt
from logheat.measures import _LOG_2PI, _log_gauss_mass, _logsumexp, _panel_moments


def _panel_moments_all_edges(C, B, A, edges):
    sigma = 1.0 / math.sqrt(C)
    m = B / C
    edges = edges.reshape((-1,) + (1,) * (B.ndim - 1))
    a = (edges[:-1] - m) / sigma
    b = (edges[1:] - m) / sigma
    logZ = _log_gauss_mass(a, b)
    log_mass = A + B * B / (2.0 * C) + 0.5 * math.log(2.0 * math.pi / C) + logZ
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = np.exp(-0.5 * a * a - 0.5 * _LOG_2PI - logZ)
        d2 = np.exp(-0.5 * b * b - 0.5 * _LOG_2PI - logZ)
        t1 = np.where(d1 > 0, a * d1, 0.0)
        t2 = np.where(d2 > 0, b * d2, 0.0)
    dd = d1 - d2
    mean_p = m + sigma * dd
    var_p = sigma * sigma * (1.0 + t1 - t2 - dd * dd)
    M = np.max(log_mass, axis=0)
    M = np.where(np.isfinite(M), M, 0.0)
    w = np.exp(log_mass - M)
    W = np.sum(w, axis=0)
    pi = w / W
    keep = pi > 0
    mean_p = np.where(keep, mean_p, 0.0)
    var_p = np.where(keep, np.maximum(var_p, 0.0), 0.0)
    mean = np.sum(pi * mean_p, axis=0)
    var = np.sum(pi * (var_p + (mean_p - mean) ** 2), axis=0)
    return M + np.log(W), mean, np.maximum(var, 0.0)


def _posterior_nkd(weights, means, variances, xs):
    dim = means.shape[1]
    diff = xs[:, None, :] - means[None, :, :]
    logits = (np.log(weights) - 0.5 * dim * (_LOG_2PI + np.log(variances))
              - 0.5 * np.sum(diff * diff, axis=2) / variances)
    log_dens = _logsumexp(logits, axis=1)
    return np.exp(logits - log_dens[:, None]), -diff / variances[:, None], log_dens


def _tilt_mixture_nkd(mu, zs, t):
    s = mu.variances
    pi, g, log_mass = _posterior_nkd(mu.weights, mu.means, s + t, zs)
    m_tilde = mu.means[None, :, :] - s[:, None] * g
    mean = np.einsum("nk,nki->ni", pi, m_tilde)
    c = m_tilde - mean[:, None, :]
    cov = np.einsum("nk,nki,nkj->nij", pi, c, c)
    cov += (pi @ (s * t / (s + t)))[:, None, None] * np.eye(mu.dim)
    return log_mass, mean, 0.5 * (cov + np.swapaxes(cov, 1, 2))


def _score_hessian_nkd(mu, xs):
    r, g, _ = _posterior_nkd(mu.weights, mu.means, mu.variances, xs)
    sc = np.einsum("nk,nki->ni", r, g)
    c = g - sc[:, None, :]
    hess = np.einsum("nk,nki,nkj->nij", r, c, c)
    hess -= (r @ (1.0 / mu.variances))[:, None, None] * np.eye(mu.dim)
    return sc, hess


def assert_matches(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    fin = np.isfinite(want)
    np.testing.assert_array_equal(got[~fin], want[~fin])
    np.testing.assert_allclose(got[fin], want[fin], rtol=1e-13, atol=1e-15)


@st.composite
def _perturbed(draw):
    """A perturbed density with 1, 2 or at least 4 panels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_knots = draw(st.sampled_from([0, 1, 3, 4, 6]))
    knots = np.sort(rng.uniform(-4.0, 4.0, n_knots))
    split = int(rng.integers(0, n_knots + 1))
    v_knots, h_knots = knots[:split], knots[split:]
    v_slopes = np.sort(rng.uniform(-2.0, 2.0, v_knots.size + 1))
    h_slopes = rng.uniform(-2.0, 2.0, h_knots.size + 1)
    alpha = 10.0 ** draw(st.floats(-2.0, 2.0))
    return make_perturbed(alpha, v_knots, v_slopes, h_knots, h_slopes)


class TestPanelKernel:
    @settings(max_examples=300, deadline=None)
    @given(_perturbed(), st.floats(-6.0, 2.0), st.sampled_from([1.0, 1e2, 1e4]),
           st.integers(0, 2**32 - 1))
    def test_tilt_matches_all_edges(self, pm, log10_t, scale, seed):
        t = 10.0**log10_t
        z = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, 64)
        B = z / t - pm.panel_b[:, None]
        A = -pm.panel_a[:, None] - z * z / (2.0 * t)
        C = pm.alpha + 1.0 / t
        got = _panel_moments(C, B, A, pm.panel_edges)
        want = _panel_moments_all_edges(C, B, A, pm.panel_edges)
        for g, w in zip(got, want):
            assert_matches(g, w)

    @settings(max_examples=100, deadline=None)
    @given(_perturbed())
    def test_normalizer_and_moments_unchanged(self, pm):
        # the constructor and mean_variance_1d pass 1-D (P,) coefficients
        logZ, mean, var = _panel_moments_all_edges(
            pm.alpha, -pm.panel_b, -pm.panel_a, pm.panel_edges)
        assert_matches(pm.log_normalizer, logZ)
        assert_matches(mean_variance_1d(pm), (mean, var))


@st.composite
def _mixture(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    w = rng.uniform(0.05, 1.0, k)
    return GaussianMixture(dim=dim, weights=w / w.sum(), means=rng.normal(0.0, 3.0, (k, dim)),
                           variances=10.0 ** rng.uniform(-2.0, 1.0, k)), rng


class TestMixtureKernel:
    @settings(max_examples=300, deadline=None)
    @given(_mixture(), st.floats(-6.0, 2.0), st.sampled_from([1.0, 10.0, 1e2]))
    def test_tilt_matches_nkd(self, case, log10_t, scale):
        mu, rng = case
        zs = scale * rng.uniform(-1.0, 1.0, (16, mu.dim))
        for g, w in zip(_tilt(mu, zs, 10.0**log10_t), _tilt_mixture_nkd(mu, zs, 10.0**log10_t)):
            assert_matches(g, w)

    @settings(max_examples=200, deadline=None)
    @given(_mixture(), st.sampled_from([1.0, 10.0, 1e2]))
    def test_pointwise_evaluators_match_nkd(self, case, scale):
        mu, rng = case
        xs = scale * rng.uniform(-1.0, 1.0, (16, mu.dim))
        sc, hess = _score_hessian_nkd(mu, xs)
        assert_matches(log_density(mu, xs), _posterior_nkd(
            mu.weights, mu.means, mu.variances, xs)[2])
        assert_matches(score(mu, xs), sc)
        assert_matches(log_hessian(mu, xs), hess)

    def test_off_diagonal_covariance_2d(self):
        # two components along the diagonal: the tilted covariance has an
        # off-diagonal term from the spread of the tilted means, and the
        # within-component variance s t / (s + t) sits on the diagonal only
        mu = GaussianMixture(dim=2, weights=np.array([0.5, 0.5]),
                             means=np.array([[-2.0, -2.0], [2.0, 2.0]]),
                             variances=np.array([1.0, 1.0]))
        t = 1.0
        _, mean, cov = _tilt(mu, np.zeros((1, 2)), t)
        # tilted means +-(1, 1), each with variance 1/2: Cov = J + I/2
        np.testing.assert_allclose(mean[0], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(cov[0], [[1.5, 1.0], [1.0, 1.5]], rtol=1e-14)
        assert_matches(cov, _tilt_mixture_nkd(mu, np.zeros((1, 2)), t)[2])


_COUNTEREXAMPLES = [
    measure_from_json({"type": "counterexample", "psi": psi, "coefficient": c, "truncation": n})
    for psi, c, n in [("zero", 0.0, 8), ("linear", 0.02, 30), ("quadratic", 1e-3, 60)]
]


@st.composite
def _tilt_case(draw):
    """A measure of each tilted family and a random generator for its points."""
    family = draw(st.sampled_from(["mixture", "atoms", "counterexample", "perturbed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "mixture":
        return draw(_mixture())[0], rng
    if family == "perturbed":
        return draw(_perturbed()), rng
    if family == "counterexample":
        return draw(st.sampled_from(_COUNTEREXAMPLES)), rng
    k, dim = int(rng.integers(1, 6)), int(rng.integers(1, 3))
    w = rng.uniform(0.05, 1.0, k)
    return AtomicMeasure(dim=dim, weights=w / w.sum(),
                         locations=rng.uniform(-4.0, 4.0, (k, dim))), rng


def _extent(mu):
    """Largest |coordinate| among a measure's means, atoms or finite panel edges."""
    for name in ("means", "locations", "panel_edges"):
        if hasattr(mu, name):
            x = np.asarray(getattr(mu, name), dtype=float)
            return float(np.max(np.abs(x[np.isfinite(x)]), initial=0.0))


class TestPerPointTimes:
    @settings(max_examples=300, deadline=None)
    @given(_tilt_case(), st.sampled_from([1.0, 10.0, 1e2]), st.integers(1, 24))
    def test_matches_scalar_rows(self, case, scale, n):
        # one heat time per row gives the rows of one scalar-time call each,
        # to 1e-13 relative to the scale each quantity is computed at: a row
        # of a batch and a single row sum over components in different
        # orders, and the tilted mean and covariance come from differences
        # of locations of size L
        mu, rng = case
        zs = scale * rng.uniform(-1.0, 1.0, (n, mu.dim))
        ts = 10.0 ** rng.uniform(-6.0, 2.0, n)
        rows = [_tilt(mu, zs[i:i + 1], float(ts[i])) for i in range(n)]
        log_mass, mean, cov = (np.concatenate(r) for r in zip(*rows))
        got = _tilt(mu, zs, ts)
        L = 1.0 + _extent(mu) + np.linalg.norm(zs, axis=1)
        spread = L * np.sqrt(np.max(np.diagonal(cov, axis1=1, axis2=2), axis=1))
        for g, w, s in [(got[0], log_mass, L * L / ts), (got[1], mean, L[:, None]),
                        (got[2], cov, spread[:, None, None])]:
            assert g.shape == w.shape
            assert np.all(np.abs(g - w) <= 1e-13 * (np.abs(w) + s))
