"""Potential decomposition and mixture perturbation-parameter analysis."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logheat import (
    Infeasible,
    MixtureAnalysis,
    PreconditionError,
    analyze_mixture_1d,
    lemma4_decompose,
    log_concavity_time,
    log_hessian,
    log_hessian_heat,
    make_gaussian_mixture,
    mixture_hessian_lower,
    thm2_envelope,
)
from logheat.structure import _search_points


def _analyze_pointwise(mixture, radius_cap=None):
    """analyze_mixture_1d with one mixture_hessian_lower call per search point."""
    K = 1.0 / float(np.max(mixture.variances))
    sigma_max = float(np.sqrt(np.max(mixture.variances)))
    xs, step = _search_points(mixture)
    half = float(np.max(np.abs(xs)))
    if radius_cap is None:
        radius_cap = half
    refined = lambda x: float(mixture_hessian_lower(mixture, [x])[0][0, 0])
    vals = np.array([refined(x) for x in xs])
    bad = np.abs(xs)[vals < 0.5 * K]
    radius = float(np.max(bad)) + step if bad.size else 0.0
    if radius > radius_cap:
        return Infeasible(reason=f"curvature bound below K/2 out to the radius cap {radius_cap}",
                          radius_cap=radius_cap)
    for x in (half + 5.0 * sigma_max, half + 10.0 * sigma_max):
        if refined(x) < 0.5 * K or refined(-x) < 0.5 * K:
            return Infeasible(reason=f"curvature bound still below K/2 at |x| = {x}",
                              radius_cap=radius_cap)
    beta = max(0.0, -float(np.min(vals)))
    return MixtureAnalysis(alpha=0.5 * K, lip=2.0 * (0.5 * K + beta) * radius,
                           radius=radius, beta=beta)


class TestLemma4Decompose:
    def test_already_convex(self):
        dec = lemma4_decompose(lambda x: x * x, alpha=1.0, beta=0.0, radius=0.0)
        assert dec.lip_cert == 0.0
        xs = np.linspace(-3, 3, 31)
        assert np.max(np.abs(dec.H(xs))) == 0.0
        assert np.max(np.abs(np.array([dec.V(float(x)) for x in xs]) - xs**2)) < 1e-12

    def test_double_well(self):
        U = lambda x: x**4 - 2.0 * x * x
        dec = lemma4_decompose(U, alpha=1.0, beta=4.0, radius=0.65)
        assert dec.lip_cert == pytest.approx(6.5)
        g = dec.grid
        V = np.array([dec.V(float(x)) for x in g])
        H = np.asarray(dec.H(g), dtype=float)
        assert np.max(np.abs(V + H - (g**4 - 2 * g * g))) < 1e-10
        # V'' >= alpha on the grid
        h = 1e-4
        for x in np.linspace(-3, 3, 121):
            v2 = (dec.V(x - h) - 2 * dec.V(x) + dec.V(x + h)) / h**2
            assert v2 >= 1.0 - 1e-5
        # |H'| <= lip_cert
        hp = np.diff(H) / np.diff(g)
        assert np.max(np.abs(hp)) <= 6.5 + 1e-10

    def test_substitution(self):
        dec = lemma4_decompose(lambda x: 2.0 * x * x, alpha=1.0, beta=2.0, radius=1.0)
        assert dec.lip_cert == pytest.approx(6.0)

    def test_precondition_violation_names_x(self):
        # U'' = -2 everywhere violates alpha = 1 outside any radius
        with pytest.raises(PreconditionError, match="U''"):
            lemma4_decompose(lambda x: -x * x, alpha=1.0, beta=5.0, radius=0.5)


class TestAnalyzeMixture:
    def test_single_gaussian(self):
        g = make_gaussian_mixture([(1.0, [0.0], 0.5)])
        res = analyze_mixture_1d(g)
        assert isinstance(res, MixtureAnalysis)
        assert res.alpha == pytest.approx(2.0)
        assert res.lip == 0.0
        assert res.radius == 0.0

    def test_close_pair(self):
        g = make_gaussian_mixture([(0.5, [0.0], 0.5), (0.5, [1.0], 0.5)])
        res = analyze_mixture_1d(g)
        assert isinstance(res, MixtureAnalysis)
        assert res.alpha == pytest.approx(1.0)
        assert math.isfinite(res.radius)

    def test_far_pair_larger_radius(self):
        near = analyze_mixture_1d(
            make_gaussian_mixture([(0.5, [0.0], 0.5), (0.5, [1.0], 0.5)])
        )
        far = analyze_mixture_1d(
            make_gaussian_mixture([(0.5, [0.0], 0.5), (0.5, [10.0], 0.5)])
        )
        assert far.radius > near.radius
        assert far.alpha == pytest.approx(1.0)

    def test_round_trip_log_concavity(self):
        g = make_gaussian_mixture([(0.5, [0.0], 0.5), (0.5, [3.0], 0.5)])
        res = analyze_mixture_1d(g)
        t_star = log_concavity_time(res.alpha, res.lip)
        lower, _ = thm2_envelope(res.alpha, res.lip, t_star)
        assert lower >= 0.0
        for z in np.linspace(-5, 8, 41):
            lam = log_hessian_heat(g, [z], t_star)[0, 0]
            assert lam >= -1e-6

    def test_matches_pointwise_reference(self, rng):
        cases = []
        for _ in range(6):
            k = int(rng.integers(2, 5))
            cases.append(make_gaussian_mixture(
                [(rng.uniform(0.2, 1.0), [rng.uniform(-4.0, 4.0)], rng.uniform(0.2, 2.0))
                 for _ in range(k)]))
        cases.append(make_gaussian_mixture([(0.5, [0.0], 0.5), (0.5, [10.0], 0.5)]))
        for m, cap in [(c, None) for c in cases] + [(cases[-1], 1.0)]:
            got, want = analyze_mixture_1d(m, radius_cap=cap), _analyze_pointwise(m, cap)
            assert type(got) is type(want)
            if isinstance(want, Infeasible):
                assert got == want
                continue
            assert got.alpha == want.alpha and got.radius == want.radius
            assert got.beta == pytest.approx(want.beta, rel=1e-12, abs=1e-12)
            assert got.lip == pytest.approx(want.lip, rel=1e-12, abs=1e-12)

    def test_radius_cap(self):
        g = make_gaussian_mixture([(0.5, [0.0], 0.5), (0.5, [10.0], 0.5)])
        res = analyze_mixture_1d(g, radius_cap=1.0)
        assert isinstance(res, Infeasible)
        assert "cap" in res.reason


def _crossover_roots(mixture):
    """Where two components' weighted log-densities cross, by np.roots."""
    m, v, w = mixture.means[:, 0], mixture.variances, mixture.weights
    # log(w N(x; m, v)) = c - x^2/(2v) + m x/v
    c = np.log(w) - 0.5 * np.log(2 * math.pi * v) - m**2 / (2 * v)
    roots = []
    for i in range(w.size):
        for j in range(i):
            coef = [1 / (2 * v[j]) - 1 / (2 * v[i]), m[i] / v[i] - m[j] / v[j], c[i] - c[j]]
            roots += [r.real for r in np.roots(coef) if abs(r.imag) < 1e-12 * max(1, abs(r))]
    return np.array(roots)


def _certificate_slack(mixture, res):
    """Smallest curvature margin of a certificate on a dense grid over the
    means' span and through every crossover: -(log p)'' - alpha outside the
    radius and -(log p)'' + beta inside."""
    s = math.sqrt(float(np.max(mixture.variances)))
    half = float(np.max(np.abs(mixture.means))) + 25.0 * s
    roots = _crossover_roots(mixture)
    xs = np.concatenate([np.linspace(-half, half, 20001), roots]
                        + [r + np.linspace(-6.0 * s, 6.0 * s, 2401) for r in roots])
    curv = -log_hessian(mixture, xs[:, None])[:, 0, 0]
    outside = np.abs(xs) >= res.radius
    return float(np.min(np.where(outside, curv - res.alpha, curv + res.beta)))


class TestCrossovers:
    def test_far_crossover_of_narrower_component(self):
        # the wider component overtakes N(2, 0.9) again at x = 75.97, where
        # -(log p)'' = -3.39 < alpha = 0.5
        g = make_gaussian_mixture([(0.5, [-2.0], 1.0), (0.5, [2.0], 0.9)])
        x0 = float(np.max(_crossover_roots(g)))
        assert x0 == pytest.approx(75.96, abs=0.01)
        assert -log_hessian(g, [x0])[0, 0] < -3.39
        res = analyze_mixture_1d(g)
        assert isinstance(res, MixtureAnalysis)
        assert res.radius > x0
        assert _certificate_slack(g, res) >= -1e-9

    def test_bad_region_past_the_grid(self):
        # the curvature stays below alpha out to |x| = 20.38, past the
        # span + 20 sigma_max = 19.84 the grid alone covers
        g = make_gaussian_mixture([(0.4892782139382005, [1.3066356537593258], 0.5146549508943287),
                                   (0.5107217860617995, [-2.515624292218073], 0.7506094208198228)])
        res = analyze_mixture_1d(g)
        assert isinstance(res, MixtureAnalysis)
        assert res.radius >= 20.38
        assert analyze_mixture_1d(g, radius_cap=100.0) == res
        assert _certificate_slack(g, res) >= -1e-9

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(-4.0, 4.0), st.floats(0.2, 2.0)),
                    min_size=2, max_size=3))
    def test_certificate_holds_through_crossovers(self, comps):
        g = make_gaussian_mixture([(w, [m], v) for w, m, v in comps])
        res = analyze_mixture_1d(g, radius_cap=1e3)
        if isinstance(res, MixtureAnalysis):
            assert _certificate_slack(g, res) >= -1e-9
