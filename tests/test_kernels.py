"""The batched tilt kernels against the layouts they replaced.

The references below are the earlier implementations, kept verbatim as
oracles: the panel kernel that standardised every edge, infinite ones
included, the panel kernel written as whole-array expressions before its
temporaries were updated in place, and the mixture posterior laid out
(n, k, d) with its einsum reductions, and the mixture pooling by einsum.
The kernels in ``src/`` must
reproduce them to rounding; the in-place panel kernel and the row blocks of
``_tilt`` must reproduce theirs bit for bit.  Far from every mixture
component the (n, k, d) logits round alike, and the library weighs the
components relative to the heaviest instead: such rows are checked against the
exact posterior and tilt of ``oracles.py``, to the same tolerance.
"""
import math
import warnings

import numpy as np
import pytest
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
from logheat import measures as ms
from logheat.heatflow import _tilt
from logheat.measures import _LOG_2PI, _log_gauss_mass, _panel_moments, _pool

from oracles import finite_tilt, mixture_posterior


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


def _panel_moments_expressions(C, B, A, edges):
    sigma = 1.0 / np.sqrt(C)
    m = B / C
    inner = edges[1:-1].reshape((-1,) + (1,) * (B.ndim - 1))
    b = (inner - m[:-1]) / sigma  # upper edges of panels 0..P-2
    a = (inner - m[1:]) / sigma  # lower edges of panels 1..P-1
    logZ = np.zeros(m.shape)
    if len(m) > 1:
        from scipy.special import log_ndtr

        logZ[0], logZ[-1] = log_ndtr(b[0]), log_ndtr(-a[-1])
        if len(m) > 2:
            logZ[1:-1] = _log_gauss_mass(a[:-1], b[1:])
    log_mass = A + B * B / (2.0 * C) + 0.5 * np.log(2.0 * math.pi / C) + logZ
    # phi(a)/Z and phi(b)/Z; a panel with Z = 0 gets pi = 0 and is masked out
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = np.exp(-0.5 * a * a - 0.5 * _LOG_2PI - logZ[1:])
        d2 = np.exp(-0.5 * b * b - 0.5 * _LOG_2PI - logZ[:-1])
        dd = np.zeros(m.shape)  # phi(a)/Z - phi(b)/Z
        dd[1:] = d1
        dd[:-1] -= d2
        s = np.ones(m.shape)  # 1 + a phi(a)/Z - b phi(b)/Z
        s[1:] += a * d1
        s[:-1] -= b * d2
    mean_p = m + sigma * dd
    var_p = sigma * sigma * (s - dd * dd)

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
    # responsibilities divided by their own sum, as the library does
    m = np.max(logits, axis=1, keepdims=True)
    e = np.exp(logits - m)
    resp = e / np.sum(e, axis=1, keepdims=True)
    return resp, -diff / variances[:, None], np.log(np.sum(e, axis=1)) + m[:, 0]


def _tilt_mixture_nkd(mu, zs, t):
    s = mu.variances
    pi, g, log_mass = _posterior_nkd(mu.weights, mu.means, s + t, zs)
    m_tilde = mu.means[None, :, :] - s[:, None] * g
    mean = np.einsum("nk,nki->ni", pi, m_tilde)
    c = m_tilde - mean[:, None, :]
    cov = np.einsum("nk,nki,nkj->nij", pi, c, c)
    cov += (pi @ (s * t / (s + t)))[:, None, None] * np.eye(mu.dim)
    return log_mass, mean, 0.5 * (cov + np.swapaxes(cov, 1, 2))


def _pool_einsum(r, vecs, diag):
    mean = np.einsum("kn,kin->in", r, vecs)
    c = vecs - mean
    cov = np.einsum("kn,kin,kjn->ijn", r, c, c, order="C")  # so reshape is a view
    cov.reshape(-1, cov.shape[2])[:: mean.shape[0] + 1] += diag
    return mean, cov


def _score_hessian_nkd(mu, xs):
    r, g, _ = _posterior_nkd(mu.weights, mu.means, mu.variances, xs)
    sc = np.einsum("nk,nki->ni", r, g)
    # the score spread pooled about each point's heaviest component p, with
    # g_k - g_p = (m_k - m_p)/v_k + (m_p - x)(1/v_k - 1/v_p), as the library does
    p = np.argmax(r, axis=1)
    iv = 1.0 / mu.variances
    dg = ((mu.means[None] - mu.means[p][:, None]) * iv[None, :, None]
          + (mu.means[p] - xs)[:, None, :] * (iv[None, :] - iv[p][:, None])[:, :, None])
    c = dg - np.einsum("nk,nki->ni", r, dg)[:, None, :]
    hess = np.einsum("nk,nki,nkj->nij", r, c, c)
    hess -= (r @ (1.0 / mu.variances))[:, None, None] * np.eye(mu.dim)
    return sc, hess


def _far_rows(weights, means, variances, xs):
    """Rows whose largest logit is below -1024, where the library weighs the
    components by their log-odds against the heaviest, not by rounded logits."""
    diff = xs[:, None, :] - means[None, :, :]
    logits = (np.log(weights) - 0.5 * means.shape[1] * (_LOG_2PI + np.log(variances))
              - 0.5 * np.sum(diff * diff, axis=2) / variances)
    return np.max(logits, axis=1) < -1024.0


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

    @settings(max_examples=300, deadline=None)
    @given(_perturbed(), st.floats(-6.0, 2.0), st.sampled_from([1.0, 1e2, 1e4]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_in_place_matches_expressions_bitwise(self, pm, log10_t, scale, per_row, seed):
        rng = np.random.default_rng(seed)
        z = scale * rng.uniform(-1.0, 1.0, 64)
        t = 10.0 ** rng.uniform(-6.0, 2.0, z.size) if per_row else 10.0**log10_t
        B = z / t - pm.panel_b[:, None]
        A = -pm.panel_a[:, None] - z * z / (2.0 * t)
        C = pm.alpha + 1.0 / t
        got = _panel_moments(C, B, A, pm.panel_edges)
        want = _panel_moments_expressions(C, B, A, pm.panel_edges)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
        # the constructor and mean_variance_1d pass 1-D (P,) coefficients
        got = _panel_moments(pm.alpha, -pm.panel_b, -pm.panel_a, pm.panel_edges)
        want = _panel_moments_expressions(pm.alpha, -pm.panel_b, -pm.panel_a, pm.panel_edges)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)

    def test_points_without_finite_mass_match_expressions_bitwise(self):
        # beside an ordinary point: every panel at log-mass -inf, one panel at inf, one
        # at NaN, and a panel of weight 0 (rounded): the kernel's guarded fix-ups
        pm = make_perturbed(1, [-1, 1], [-0.5, 0, 0.5], [0, 2], [-1, 1, 0])
        z, t = np.linspace(-2.0, 2.0, 5), 0.5
        B = z / t - pm.panel_b[:, None]
        A = -pm.panel_a[:, None] - z * z / (2.0 * t)
        A[:, 1], A[2, 2], A[1, 3], A[1, 4] = -math.inf, math.inf, math.nan, -2000.0
        C = pm.alpha + 1.0 / t
        with np.errstate(all="ignore"):
            got = _panel_moments(C, B, A, pm.panel_edges)
            want = _panel_moments_expressions(C, B, A, pm.panel_edges)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
        assert got[0][1] == -math.inf and got[0][2] == math.inf and np.isfinite(got[1][4])
        # a panel from 1e160 standard units on has Z = 0, weight 0 and phi(a)/Z = NaN
        edges, zero = np.array([-math.inf, 0.0, 1e160, math.inf]), np.zeros(3)
        with np.errstate(all="ignore"):
            got = _panel_moments(1.0, zero, zero, edges)
            want = _panel_moments_expressions(1.0, zero, zero, edges)
        assert np.array_equal(got, want) and np.all(np.isfinite(got))

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
        zs, t = scale * rng.uniform(-1.0, 1.0, (16, mu.dim)), 10.0**log10_t
        got, want = _tilt(mu, zs, t), _tilt_mixture_nkd(mu, zs, t)
        far = _far_rows(mu.weights, mu.means, mu.variances + t, zs)
        for g, w in zip(got, want):
            assert_matches(g[~far], w[~far])
        for i in np.flatnonzero(far):
            exact = finite_tilt(mu.weights, mu.means, mu.variances, zs[i], t)
            for g, w in zip(got, exact[:3]):
                assert_matches(g[i], w)

    @settings(max_examples=200, deadline=None)
    @given(_mixture(), st.sampled_from([1.0, 10.0, 1e2]))
    def test_pointwise_evaluators_match_nkd(self, case, scale):
        mu, rng = case
        xs = scale * rng.uniform(-1.0, 1.0, (16, mu.dim))
        got = {"log_density": log_density(mu, xs), "score": score(mu, xs),
               "log_hessian": log_hessian(mu, xs)}
        want = dict(zip(["score", "log_hessian"], _score_hessian_nkd(mu, xs)),
                    log_density=_posterior_nkd(mu.weights, mu.means, mu.variances, xs)[2])
        far = _far_rows(mu.weights, mu.means, mu.variances, xs)
        for name, g in got.items():
            assert_matches(g[~far], want[name][~far])
        for i in np.flatnonzero(far):
            exact = mixture_posterior(mu.weights, mu.means, mu.variances, xs[i])
            for name, g in got.items():
                assert_matches(g[i], exact[name])

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


_BLOCK_TARGETS = {
    "kink": make_perturbed(1, [], [0], [0], [-1, 1]),
    "interior-panels": make_perturbed(1, [-1, 1], [-0.5, 0, 0.5], [0, 2], [-1, 1, 0]),
    "mix1d": GaussianMixture(dim=1, weights=np.array([0.5, 0.5]),
                             means=np.array([[-2.0], [2.0]]), variances=np.array([1.0, 1.0])),
    "mix2d": GaussianMixture(dim=2, weights=np.array([0.3, 0.7]),
                             means=np.array([[-2.0, 1.0], [2.0, 0.0]]),
                             variances=np.array([1.0, 0.5])),
    "atoms1d": AtomicMeasure(dim=1, weights=np.array([0.2, 0.8]),
                             locations=np.array([[0.0], [2.0]])),
    "atoms2d": AtomicMeasure(dim=2, weights=np.array([0.2, 0.3, 0.5]),
                             locations=np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0]])),
    # 8 or more terms: numpy sums the terms of a single row pairwise
    "mix8": GaussianMixture(dim=1, weights=np.arange(1.0, 9.0) / 36.0,
                            means=np.linspace(-7.0, 7.0, 8)[:, None],
                            variances=np.linspace(0.5, 2.0, 8)),
    "atoms40": AtomicMeasure(dim=1, weights=np.arange(1.0, 41.0) / 820.0,
                             locations=np.linspace(-8.0, 8.0, 40)[:, None]),
    "panels9": make_perturbed(1, [-3, -1, 1, 3], [-1, -0.5, 0, 0.5, 1],
                              [-2, 0, 2, 4], [0.5, -0.5, 1, -1, 0]),
}


class TestRowBlocks:
    """A batch of any size gives, bit for bit, the rows of one kernel call
    over every row, and of smaller batches of at least 2 rows starting at
    multiples of 4: ``_tilt`` evaluates a large batch in blocks of 4096 rows,
    and a last row left alone joins the block before it."""

    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar-t", "per-row-t"])
    @pytest.mark.parametrize("n", [4095, 4096, 4097, 3 * 4096 + 5])
    @pytest.mark.parametrize("name", list(_BLOCK_TARGETS))
    def test_matches_sliced_calls(self, name, n, per_row):
        mu = _BLOCK_TARGETS[name]
        rng = np.random.default_rng(n)
        zs = rng.uniform(-8.0, 8.0, (n, mu.dim))
        t = 10.0 ** rng.uniform(-3.0, 1.0, n) if per_row else 0.7
        got = _tilt(mu, zs, t)
        # slices of 2048 rows, with edges between the block edges: a matrix
        # product rounds the last (n mod 4) rows of a call apart, so slices
        # start at multiples of 4 to keep each row's arithmetic, and a sum over
        # 8 or more components or panels differs in a slice of 1 row
        cuts = list(range(0, n - 1, 2048)) + [n]
        parts = [_tilt(mu, zs[i:j], t[i:j] if per_row else t) for i, j in zip(cuts, cuts[1:])]
        for g, w in zip(got, zip(*parts)):
            assert np.array_equal(g, np.concatenate(w), equal_nan=True)
        # and every row in one call of the family kernel, whose covariance is kept as it is
        # in 1D and symmetrized, exactly, in more dimensions
        log_mass, mean, cov = ms._kernel(mu, "_tilt")(zs, t)
        assert np.array_equal(got[0], log_mass) and np.array_equal(got[1], mean)
        if mu.dim == 1:
            assert np.array_equal(got[2], cov)
        else:
            assert np.array_equal(got[2], 0.5 * (cov + np.swapaxes(cov, 1, 2)))
            assert np.array_equal(got[2], np.swapaxes(got[2], 1, 2))


class TestPool:
    """``_pool`` forms each term as (r_k c_ki) c_kj, as the einsum did."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3), st.sampled_from([1, 2, 5, 257]),
           st.integers(0, 2**32 - 1))
    def test_matches_einsum(self, k, d, n, seed):
        rng = np.random.default_rng(seed)
        r = rng.uniform(0.0, 1.0, (k, n))
        r /= r.sum(axis=0)
        vecs, diag = rng.normal(0.0, 3.0, (k, d, n)), rng.uniform(0.0, 1.0, n)
        got, want = _pool(r, vecs, diag), _pool_einsum(r, vecs, diag)
        if k <= 2:
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            return
        # at a single row the two add three or more terms in different orders:
        # within 2 ulps of the sum of their magnitudes
        c = np.abs(vecs - want[0])
        scales = (np.einsum("kn,kin->in", r, np.abs(vecs)),
                  np.einsum("kn,kin,kjn->ijn", r, c, c) + np.eye(d)[:, :, None] * diag)
        for g, w, scale in zip(got, want, scales):
            assert np.all(np.abs(g - w) <= 2.0 * np.spacing(scale))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_component_of_weight_zero_far_out(self, dim):
        # at z = 0 the component at |c| = 1e200 has responsibility 0: r c_i c_j
        # multiplied as r (c_i c_j) would be 0 * inf = NaN
        mu = GaussianMixture(dim=dim, weights=np.array([0.5, 0.5]),
                             means=np.array([np.zeros(dim), np.full(dim, -1e200)]),
                             variances=np.array([1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, mean, cov = _tilt(mu, np.zeros((3, dim)), 1.0)
        assert np.array_equal(mean, np.zeros((3, dim)))
        assert np.array_equal(cov, np.broadcast_to(0.5 * np.eye(dim), (3, dim, dim)))

