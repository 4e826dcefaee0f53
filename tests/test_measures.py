"""Measure construction, densities, convolution, sampling, CDFs."""
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logheat import (
    AtomicMeasure,
    CapabilityError,
    analyze_mixture_1d,
    GaussianMixture,
    NumericalError,
    PerturbedLogConcave1D,
    ValidationError,
    cdf_1d,
    convolve_gaussian,
    dilate,
    log_density,
    log_hessian,
    log_hessian_heat,
    make_gaussian_mixture,
    make_perturbed,
    mean_variance_1d,
    measure_from_json,
    mixture_hessian_lower,
    build_counterexample,
    sample,
    score,
    standard_gaussian,
    tilted_log_mass,
    tilted_moments,
)
from logheat.heatflow import _tilt, marginal_stats_1d, ou_log_derivatives
from logheat.measures import _log_gauss_mass, _quantile_grid, _segments, quantile_1d

from conftest import random_mixture, random_perturbed, random_perturbed_args
from oracles import log_gauss_mass, mixture_posterior, panel_tilt


class TestConstruction:
    def test_single_component(self):
        g = make_gaussian_mixture([(1.0, [0.0], 1.0)])
        assert g.weights.tolist() == [1.0]
        assert g.variances.tolist() == [1.0]

    def test_weight_normalization(self):
        g = make_gaussian_mixture([(2.0, [0.0], 1.0), (2.0, [1.0], 1.0)])
        assert np.allclose(g.weights, [0.5, 0.5])

    def test_duplicate_merge(self):
        merged = make_gaussian_mixture(
            [(1.0, [0.0], 1.0), (1.0, [0.0], 1.0), (2.0, [2.0], 1.0)]
        )
        unmerged = make_gaussian_mixture([(2.0, [0.0], 1.0), (2.0, [2.0], 1.0)])
        assert merged.weights.size == 2
        for x in np.linspace(-3, 5, 17):
            assert log_density(merged, [x]) == pytest.approx(
                log_density(unmerged, [x]), abs=1e-12
            )

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            make_gaussian_mixture([(1.0, [0.0], -1.0)])
        with pytest.raises(ValidationError):
            make_gaussian_mixture([(-1.0, [0.0], 1.0)])
        with pytest.raises(ValidationError):
            AtomicMeasure(dim=1, weights=np.array([0.5, 0.5]),
                          locations=np.array([[1.0], [1.0]]))

    @pytest.mark.parametrize("weights, locations", [
        ([math.nan, 1.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, 1.0]),
        ([0.5, 0.5], [0.0, math.inf]), ([0.5, 0.5], [math.nan, 1.0]),
    ], ids=["nan-weight", "zero-weight", "inf-location", "nan-location"])
    def test_atoms_rejected(self, weights, locations):
        with pytest.raises(ValidationError, match="^atom weights (and locations must be finite"
                                                  "|must be positive)$"):
            AtomicMeasure(dim=1, weights=np.array(weights), locations=np.array(locations)[:, None])

    def test_perturbed_validation(self):
        with pytest.raises(ValidationError):
            make_perturbed(-1.0)
        with pytest.raises(ValidationError):  # nonconvex V_extra
            make_perturbed(1.0, v_knots=[0.0], v_slopes=[1.0, -1.0])
        with pytest.raises(ValidationError):  # H slope above lip
            make_perturbed(1.0, h_knots=[0.0], h_slopes=[0.0, 2.0], lip=1.0)

    def test_perturbed_normalized(self):
        pm = make_perturbed(1.0, h_knots=[0.0], h_slopes=[1.0, -1.0])
        xs = np.linspace(-15, 15, 200001)
        dens = np.exp(log_density(pm, xs[:, None]))
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("fields, message", [
        ({"alpha": 0.0}, "alpha must be positive"),
        ({"alpha": math.nan}, "alpha must be positive"),
        ({"lip": -1.0}, "lip must be nonnegative"),
        ({"lip": math.nan}, "lip must be nonnegative"),
        ({"panel_a": [0.0]}, "one panel_a and one panel_b"),
        ({"panel_b": [[1.0, -1.0]]}, "one panel_a and one panel_b"),
        ({"panel_edges": [[-math.inf, 0.0, math.inf]]}, "one panel_a and one panel_b"),
        ({"panel_edges": [], "panel_a": [], "panel_b": []}, "one panel_a and one panel_b"),
        ({"panel_edges": [-5.0, 0.0, math.inf]}, "increase strictly from -inf to inf"),
        ({"panel_edges": [-math.inf, 0.0, 0.0, math.inf], "panel_a": [0.0, 0.0, 0.0],
          "panel_b": [1.0, 0.0, -1.0]}, "increase strictly from -inf to inf"),
        ({"panel_edges": [-math.inf, 1.0, 0.0, math.inf], "panel_a": [0.0, 0.0, 0.0],
          "panel_b": [1.0, 0.0, -1.0]}, "increase strictly from -inf to inf"),
        ({"panel_a": [0.0, math.inf]}, "panel_a and panel_b must be finite"),
        ({"panel_b": [math.nan, -1.0]}, "not normalizable"),
        ({"panel_b": [1e200, -1.0]}, "not normalizable"),
    ])
    def test_perturbed_fields_checked(self, fields, message):
        # the density built directly from its panels checks them; the good fields
        # are those of make_perturbed's |x| kink
        good = {"alpha": 1.0, "lip": 1.0, "panel_edges": [-math.inf, 0.0, math.inf],
                "panel_a": [0.0, 0.0], "panel_b": [1.0, -1.0]}
        kink = make_perturbed(1.0, h_knots=[0.0], h_slopes=[1.0, -1.0])
        assert PerturbedLogConcave1D(**good).log_normalizer == kink.log_normalizer
        with pytest.raises(ValidationError, match=re.escape(message)):
            PerturbedLogConcave1D(**{**good, **fields})


    @pytest.mark.parametrize("field, value", [
        ("weights", [math.nan, 0.5]), ("weights", [math.inf, 0.5]),
        ("means", [[0.0], [math.inf]]), ("means", [[math.nan], [1.0]]),
        ("variances", [1.0, math.nan]), ("variances", [1.0, math.inf]),
    ])
    def test_rejects_non_finite(self, field, value):
        good = {"weights": [0.5, 0.5], "means": [[0.0], [1.0]], "variances": [1.0, 1.0]}
        bad = dict(good, **{field: np.array(value)})
        with pytest.raises(ValidationError, match="finite"):
            GaussianMixture(dim=1, **bad)
        comps = list(zip(*(bad[k] for k in ("weights", "means", "variances"))))
        with pytest.raises(ValidationError):
            make_gaussian_mixture(comps)


def _piecewise_linear_loops(knots, slopes):
    """The segment offsets a_j of ``measures._segments`` (f = a_j + b_j x on segment j,
    f(0) = 0) as sequential loops, kept as a reference for the vectorised form."""
    n = knots.size
    kv = np.zeros(n)
    if n:
        j0 = int(np.searchsorted(knots, 0.0, side="right"))
        kv_rel = np.zeros(n)
        for i in range(1, n):
            kv_rel[i] = kv_rel[i - 1] + slopes[i] * (knots[i] - knots[i - 1])
        if j0 == 0:
            f0 = kv_rel[0] + slopes[0] * (0.0 - knots[0])
        else:
            f0 = kv_rel[j0 - 1] + slopes[j0] * (0.0 - knots[j0 - 1])
        kv = kv_rel - f0
    a = np.zeros(n + 1)
    if n:
        a[0] = kv[0] - slopes[0] * knots[0]
        for j in range(1, n + 1):
            a[j] = kv[j - 1] - slopes[j] * knots[j - 1]
    return a


class TestPiecewiseLinear:
    """The piecewise-linear part V_extra + H of a perturbed potential, as its panels hold it."""

    def test_anchored_at_zero(self):
        pm = make_perturbed(1.0, v_knots=[-1.0, 1.0], v_slopes=[-1.0, 0.5, 2.0],
                            h_knots=[0.5], h_slopes=[0.3, -0.2])
        assert log_density(pm, 0.0) == -pm.log_normalizer

    def test_slopes(self):
        # log p = -x^2/2 - H - log Z with H = x left of the knot at 0 and -x right
        # of it; at the knot, the score takes the right-hand slope
        pm = make_perturbed(1.0, h_knots=[0.0], h_slopes=[1.0, -1.0])
        xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        h = log_density(pm, xs[:, None]) + pm.log_normalizer + 0.5 * xs * xs
        np.testing.assert_allclose(h, [2.0, 0.5, 0.0, 0.5, 2.0], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(score(pm, xs[:, None])[:, 0], [1.0, -0.5, 1.0, 0.5, -1.0])

    @pytest.mark.parametrize("knot, slopes", [(1e17, [0.0, 1.0]), (-1e17, [1.0, 0.0])])
    def test_panels_beside_a_far_knot(self, knot, slopes):
        # past 2^53 a knot is its own neighbour +-1; each panel still takes the
        # segment on the right of its left edge
        pm = make_perturbed(1.0, h_knots=[knot], h_slopes=slopes)
        np.testing.assert_array_equal(pm.panel_b, slopes)
        assert pm.log_normalizer == pytest.approx(0.5 * math.log(2.0 * math.pi), rel=1e-15)

    def test_matches_loops_exactly(self, rng):
        for _ in range(2000):
            n = int(rng.integers(0, 7))
            knots = np.unique(rng.uniform(-5.0, 5.0, n) * 10.0 ** rng.uniform(-3.0, 3.0))
            if rng.uniform() < 0.2 and knots.size:
                knots[int(rng.integers(knots.size))] = 0.0  # a knot at the anchor
                knots = np.unique(knots)
            slopes = rng.normal(0.0, 3.0, knots.size + 1)
            a, b = _segments(knots, slopes)
            np.testing.assert_array_equal(a, _piecewise_linear_loops(knots, slopes))
            np.testing.assert_array_equal(b, slopes)


class TestLogDerivatives:
    def test_standard_gaussian(self):
        g = standard_gaussian(1)
        assert log_density(g, [0.0]) == pytest.approx(-0.5 * math.log(2 * math.pi))
        assert score(g, [0.0])[0] == pytest.approx(0.0)
        assert log_hessian(g, [0.0])[0, 0] == pytest.approx(-1.0)

    def test_symmetric_pair_score_zero(self):
        g = make_gaussian_mixture([(0.5, [0.0], 1.0), (0.5, [2.0], 1.0)])
        assert score(g, [1.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_pair_hessian_vs_finite_difference(self):
        g = make_gaussian_mixture([(0.5, [0.0], 1.0), (0.5, [2.0], 1.0)])
        h = 1e-4
        fd = (
            log_density(g, [1.0 - h]) - 2 * log_density(g, [1.0]) + log_density(g, [1.0 + h])
        ) / h**2
        assert log_hessian(g, [1.0])[0, 0] == pytest.approx(fd, abs=1e-6)
        # closed form at the midpoint: -1 + x0^2/4 * sech^0... = -1 + 1
        assert log_hessian(g, [1.0])[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_atomic_has_no_density(self):
        a = AtomicMeasure(dim=1, weights=np.array([1.0]), locations=np.array([[0.0]]))
        with pytest.raises(CapabilityError):
            log_density(a, [0.0])

    def test_finite_diff_property_grid(self, rng):
        for _ in range(5):
            m = random_mixture(rng)
            for x in np.linspace(-2, 2, 21):
                h = 1e-3
                fd = (
                    log_density(m, [x - h]) - 2 * log_density(m, [x]) + log_density(m, [x + h])
                ) / h**2
                assert log_hessian(m, [x])[0, 0] == pytest.approx(fd, abs=1e-5)

    def test_far_out_equal_variances_keep_digits(self):
        # component scores -(x - m_k)/v_k are equal huge numbers (~2e53) that
        # differ in the 54th digit; the exact log-Hessian is -1 + O(1e-108)
        comps = [(0.3, 0.0, 1.0), (0.5, 1e-54, 1.0), (0.2, 2.5e-54, 1.0)]
        g = make_gaussian_mixture([(w, [m], v) for w, m, v in comps])
        xs = [-1.7e53, -3e10, 0.7, 4e12, 2.2e53]
        got = log_hessian(g, np.array(xs)[:, None])[:, 0, 0]
        w, m, v = zip(*comps)
        for x, h in zip(xs, got):
            want = mixture_posterior(w, m, v, [x])["log_hessian"][0, 0]
            assert abs(h - want) <= 1e-14 * abs(want), x

    def test_weight_scaling_invariance(self, rng):
        comps = [(0.3, [0.0], 1.0), (0.7, [1.5], 0.5)]
        scaled = [(3.0 * w, m, v) for w, m, v in comps]
        g1 = make_gaussian_mixture(comps)
        g2 = make_gaussian_mixture(scaled)
        for x in np.linspace(-2, 3, 11):
            assert log_hessian(g1, [x])[0, 0] == pytest.approx(
                log_hessian(g2, [x])[0, 0], abs=1e-13
            )


class TestBatchedDensity:
    """A batch of shape (n, dim) gives the pointwise values, row by row."""

    def test_batch_matches_pointwise(self, rng):
        cases = [random_mixture(rng) for _ in range(3)]
        cases += [random_mixture(rng, dim=2) for _ in range(3)]
        cases += [random_perturbed(rng) for _ in range(3)]
        for m in cases:
            xs = rng.uniform(-4.0, 4.0, size=(9, m.dim))
            val, grad, hess = log_density(m, xs), score(m, xs), log_hessian(m, xs)
            assert val.shape == (9,) and grad.shape == (9, m.dim)
            assert hess.shape == (9, m.dim, m.dim)
            for k, x in enumerate(xs):
                assert val[k] == pytest.approx(log_density(m, x), rel=1e-12, abs=1e-12)
                np.testing.assert_allclose(grad[k], score(m, x), rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(hess[k], log_hessian(m, x), rtol=1e-12, atol=1e-12)


class TestNonFinitePoints:
    @pytest.mark.parametrize("x", [[math.nan], [math.inf], [-math.inf], [[0.0], [math.nan]]],
                             ids=["nan", "+inf", "-inf", "batch-row"])
    def test_rejected(self, x):
        mix = make_gaussian_mixture([(0.5, [-1.0], 1.0), (0.5, [1.0], 0.5)])
        calls = [(f, m) for f in (log_density, score, log_hessian)
                 for m in (mix, make_perturbed(1.0))]
        for f, m in calls + [(mixture_hessian_lower, mix)]:
            with pytest.raises(ValidationError, match="finite"):
                f(m, x)


class TestFarMixturePoints:
    """Past |x - m| ~ 1.34e154 the squared distance overflows: the mixture raises
    NumericalError naming the point instead of returning NaN or -inf, unless
    another component's logit stays finite."""

    MIX = make_gaussian_mixture([(0.5, [-2.0], 1.0), (0.5, [2.0], 1.0)])

    def test_last_finite_points(self):
        x = 1.3e154
        assert tilted_moments(self.MIX, [x], 1.0).covariance[0, 0] == 0.5
        assert log_hessian_heat(self.MIX, [x], 1.0)[0, 0] == 0.5
        assert score(self.MIX, [x])[0] == -x
        assert log_density(self.MIX, [x]) == pytest.approx(-0.5 * x * x, rel=1e-15)
        log_p, s, h = marginal_stats_1d(self.MIX, 0.5, np.array([0.0, x]))
        assert np.all(np.isfinite(log_p)) and s[1] == -x and h[1] == pytest.approx(-1.0)

    def test_overflowing_component_has_weight_zero(self):
        mix = make_gaussian_mixture([(0.5, [0.0], 1e-300), (0.5, [1.0], 1.0)])
        assert log_density(mix, [1e5]) == log_density(make_gaussian_mixture(
            [(1.0, [1.0], 1.0)]), [1e5]) + math.log(0.5)
        assert score(mix, [1e5])[0] == 1.0 - 1e5

    @pytest.mark.parametrize("call", [
        lambda m: tilted_moments(m, [1.4e154], 0.5),
        lambda m: log_hessian_heat(m, [1.4e154], 0.5),
        lambda m: score(m, [1.4e154]),
        lambda m: log_density(m, [1.4e154]),
        lambda m: marginal_stats_1d(m, 0.5, np.array([0.0, 2e154])),
    ], ids=["tilted_moments", "log_hessian_heat", "score", "log_density", "marginal_stats_1d"])
    def test_overflow_raises(self, call):
        with pytest.raises(NumericalError, match=r"^mixture logits overflow at x=\[(1\.4|2)e\+154\]"
                           r": \|x - m\|\^2 / \(2v\) is not finite for any component, nearest "
                           r"\|x - m\| = \1e\+154$"):
            call(self.MIX)


class TestFarRows:
    """Far from every component the logits are huge and round alike; the
    components are then weighted by their log-odds against the heaviest.
    A component of weight 0 adds nothing, even where its score overflows."""

    @pytest.mark.parametrize("x", [1e17, 1e18, 1e30, 1e100, 1.3e154])
    def test_log_hessian_far_out(self, x):
        # (x - 2)^2 and (x + 2)^2 round to one value from |x| ~ 1e17 on
        mix = make_gaussian_mixture([(0.5, [-2.0], 1.0), (0.5, [2.0], 1.0)])
        assert log_hessian(mix, [x])[0, 0] == -1.0
        assert log_hessian(mix, [-x])[0, 0] == -1.0

    @pytest.mark.parametrize("x, v", [(-3.377699720527872e16, 0.2), (-3.3776997205278716e16, 0.2),
                                      (-1e30, 0.20000000000000004), (3.4e16, 0.20000000000000004)])
    def test_log_hessian_far_out_unequal_variances(self, x, v):
        # variances one ulp apart: near x = -3.4e16 the logits, about -2.8e33, round to
        # one value, while in 50 digits N(0, 0.2) is heavier by e^(1.1e17); the wider
        # component is the heavier left of x = -4.3e16 and right of x = 1.5
        mix = make_gaussian_mixture([(0.5, [0.0], 0.2), (0.5, [3.0], 0.20000000000000004)])
        assert log_hessian(mix, [x])[0, 0] == -1.0 / v

    @pytest.mark.parametrize("x, want", [(-4.323455642275676e16, -4.9999999999999997224),
                                         (-4.323455642275677e16, -4.9999999999999873836)])
    def test_log_hessian_at_a_far_crossover(self, x, want):
        # the two components cross between these floats, at x = -4.3234556422756765e16:
        # their log-odds, -82.5 and 37.5 in 60 digits, are sums of two terms of 1.3e18
        mix = make_gaussian_mixture([(0.5, [0.0], 0.2), (0.5, [3.0], 0.20000000000000004)])
        assert log_hessian(mix, [x])[0, 0] == pytest.approx(want, rel=1e-13)

    def test_far_apart_components(self):
        # the component at 1e299 has weight 0 at x = 0: every evaluator gives
        # the values of the component at 0 alone, and raises no warning
        far = GaussianMixture(dim=1, weights=[0.5, 0.5], means=[[0.0], [1e299]],
                              variances=[1e-10, 1e-10])
        one = GaussianMixture(dim=1, weights=[1.0], means=[[0.0]], variances=[1e-10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert score(far, [0.0])[0] == 0.0
            assert log_density(far, [0.0]) == pytest.approx(
                log_density(one, [0.0]) + math.log(0.5), rel=1e-15)
            assert log_hessian(far, [0.0])[0, 0] == -1e10
            assert log_hessian_heat(far, [0.0], 1e-10)[0, 0] == 5e9
            assert [h[0, 0] for h in mixture_hessian_lower(far, [0.0])] == [1e10, 1e10]
            tm = tilted_moments(far, [0.0], 1e-10)
            assert tm.mean[0] == 0.0 and tm.covariance[0, 0] == 5e-11

    @pytest.mark.parametrize("means, variances, want", [
        ([[1e299]], [1e-10], -1e10),
        ([[1e299], [0.0]], [1e-10, 1e-10], -1e10),
    ], ids=["one", "far-second"])
    def test_log_hessian_where_mean_over_variance_overflows(self, means, variances, want):
        # m / v = 1e309 overflows, but the heaviest component's score difference is 0
        mix = GaussianMixture(dim=1, weights=np.full(len(means), 1.0 / len(means)),
                              means=means, variances=variances)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_hessian(mix, [1e299])[0, 0] == pytest.approx(want, rel=1e-15)

    def test_log_hessian_where_equal_means_over_variances_overflow(self):
        # m/v = 1e309 and 5e308 overflow, yet the score differences are 0: the
        # log-Hessian is -sum_k r_k/v_k, with r_k prop. to w_k/sqrt(v_k) at x = m
        mix = GaussianMixture(dim=1, weights=[0.5, 0.5], means=[[1e299], [1e299]],
                              variances=[1e-10, 2e-10])
        want = mixture_posterior([0.5, 0.5], [[1e299], [1e299]], [1e-10, 2e-10], [1e299])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_hessian(mix, [1e299])[0, 0] == pytest.approx(
                want["log_hessian"][0, 0], rel=1e-15)

    def test_far_apart_atoms(self):
        atoms = AtomicMeasure(dim=1, weights=np.array([0.5, 0.5]),
                              locations=np.array([[0.0], [1e299]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tm = tilted_moments(atoms, [0.0], 1e-10)
        assert tm.mean[0] == 0.0 and tm.covariance[0, 0] == 0.0


class TestConvolution:
    def test_variances_add(self):
        g = standard_gaussian(1)
        c = convolve_gaussian(g, 2.0)
        assert c.variances.tolist() == [3.0]

    def test_atomic_becomes_mixture(self):
        a = AtomicMeasure(dim=1, weights=np.array([0.5, 0.5]),
                          locations=np.array([[0.0], [2.0]]))
        c = convolve_gaussian(a, 1.0)
        assert isinstance(c, GaussianMixture)
        assert np.allclose(c.variances, 1.0)
        assert np.allclose(sorted(c.means[:, 0]), [0.0, 2.0])

    def test_perturbed_density_vs_trapezoid(self):
        # named for the trapezoid rule on log_density it used; the exact panel tilt is stricter
        args = (1.0, [], [0.0], [0.0], [1.0, -1.0])
        oracle = math.exp(panel_tilt(args, 0.0, 1.0)[0])
        assert math.exp(tilted_log_mass(make_perturbed(*args), [0.0], 1.0)) == pytest.approx(
            oracle, abs=1e-8)

    def test_semigroup_property(self, rng):
        pm = random_perturbed(rng)
        zs = np.linspace(-3, 3, 13)
        d2 = np.exp(tilted_log_mass(pm, zs[:, None], 1.0))
        # evaluate (mu*g_{0.4})*g_{0.6} by quadrature over the oracle density
        xs = np.linspace(-30, 30, 60001)
        inner_vals = np.exp(tilted_log_mass(pm, xs[:, None], 0.4))
        kern = lambda z: np.exp(-0.5 * (z - xs) ** 2 / 0.6) / math.sqrt(2 * math.pi * 0.6)
        d1 = np.array([np.trapezoid(inner_vals * kern(z), xs) for z in zs])
        assert np.max(np.abs(d1 - d2)) < 1e-9

    def test_invalid_t(self):
        with pytest.raises(ValidationError):
            convolve_gaussian(standard_gaussian(1), 0.0)

    @pytest.mark.parametrize("variance, t", [(1.0, math.inf), (1.0, math.nan), (1e308, 1e308)])
    def test_t_out_of_range_names_t(self, variance, t):
        # s + t past the float range is reported, not returned as an inf variance
        g = make_gaussian_mixture([(1.0, [0.0], variance)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=re.escape(f"t={t!r}")):
                convolve_gaussian(g, t)

    @pytest.mark.parametrize("psi", [lambda x: x, lambda x: x * x], ids=["linear", "quadratic"])
    @pytest.mark.parametrize("t", [0.5, 3.0])
    def test_counterexample_meets_its_heat_tilt(self, psi, t):
        # 23 (linear) and 54 (quadratic) of the 61 weights underflow to 0; the
        # convolution keeps their log-weights, so it is the tilt's mixture
        cex = build_counterexample(psi, truncation=60)
        conv = convolve_gaussian(cex, t)
        assert isinstance(conv, GaussianMixture) and conv.variances.tolist() == [t] * 61
        z = np.array([[0.3], [5.0], [40.0], [300.0]])
        log_mass, mean, _ = _tilt(cex, z, t)
        assert np.array_equal(log_density(conv, z), tilted_log_mass(cex, z, t))
        np.testing.assert_allclose(score(conv, z), (mean - z) / t, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(log_hessian(conv, z), -log_hessian_heat(cex, z, t),
                                   rtol=1e-14, atol=1e-14)

    def test_zero_weight_still_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            GaussianMixture(dim=1, weights=np.array([1.0, 0.0]), means=np.array([[0.0], [1.0]]),
                            variances=np.array([1.0, 1.0]))


class TestDilate:
    def test_mixture(self):
        g = make_gaussian_mixture([(1.0, [2.0], 1.0)])
        d = dilate(g, 0.5)
        assert d.means[0, 0] == pytest.approx(1.0)
        assert d.variances[0] == pytest.approx(0.25)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 2),
           st.floats(-3.0, 3.0))
    def test_mixture_copy_matches_rebuild(self, seed, k, dim, log10_c):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 1.0, k)
        g = GaussianMixture(dim=dim, weights=w / w.sum(), means=rng.normal(0, 5, (k, dim)),
                            variances=rng.uniform(1e-2, 10.0, k))
        c = 10.0**log10_c
        got = dilate(g, c)
        want = GaussianMixture(dim=dim, weights=g.weights, means=g.means * c,
                               variances=g.variances * c * c)
        assert type(got) is GaussianMixture and got.dim == want.dim
        for name in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        zs = c * rng.normal(0, 3, (4, dim))
        for a, b in zip(_tilt(got, zs, 0.5 * c * c), _tilt(want, zs, 0.5 * c * c)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_mixture_out_of_range_rejected(self, c):
        # c = 1e-200 underflows the variances to 0, c = 1e200 overflows them
        g = make_gaussian_mixture([(0.5, [-2.0], 1.0), (0.5, [2.0], 0.5)])
        with pytest.raises(ValidationError, match="dilation"):
            dilate(g, c)

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_mixture_range_check_warns_nothing(self, c):
        g = make_gaussian_mixture([(0.5, [-2.0], 1.0), (0.5, [2.0], 0.5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="dilation"):
                dilate(g, c)

    def test_mixture_mean_overflow_rejected(self):
        g = make_gaussian_mixture([(1.0, [1e300], 1e-300)])
        with pytest.raises(ValidationError, match="dilation"):
            dilate(g, 1e10)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 2),
           st.floats(-3.0, 3.0))
    def test_atoms_copy_matches_rebuild(self, seed, k, dim, log10_c):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 1.0, k)
        atoms = AtomicMeasure(dim=dim, weights=w / w.sum(),
                              locations=rng.uniform(-4.0, 4.0, (k, dim)))
        c = 10.0**log10_c
        got = dilate(atoms, c)
        want = AtomicMeasure(dim=dim, weights=atoms.weights, locations=atoms.locations * c)
        assert type(got) is AtomicMeasure and got.dim == want.dim
        for name in ("weights", "locations", "log_weights"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        # and the OU outputs, which dilate by e^-t: those of the rebuilt atoms
        xs, t = rng.normal(0.0, 2.0, (6, dim)), 0.3
        v, eye = -math.expm1(-2.0 * t), np.eye(dim)
        ref = AtomicMeasure(dim=dim, weights=atoms.weights,
                            locations=atoms.locations * math.exp(-t))
        _, mean, cov = _tilt(ref, xs, v)
        _, grad, hess = ou_log_derivatives(atoms, t, xs)
        np.testing.assert_array_equal(grad, (mean - xs) / v + xs)
        np.testing.assert_array_equal(hess, (cov / v - eye) / v + eye)

    def test_atoms_may_coincide_after_dilation(self):
        # e^-700 rounds both atoms to 0: the law of cX is one atom at 0, not an error
        atoms = AtomicMeasure(dim=1, weights=[0.5, 0.5], locations=[[1e-300], [2e-300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, sc, _ = marginal_stats_1d(atoms, 700.0, [0.0])
        assert sc[0] == 0.0

    def test_atoms_out_of_range_rejected(self):
        atoms = AtomicMeasure(dim=1, weights=[0.5, 0.5], locations=[[0.0], [1e10]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="dilation by"):
                dilate(atoms, 1e300)

    @pytest.mark.parametrize("c", [1e-160, 1e-320, 1e200])
    def test_perturbed_out_of_range_rejected(self, c):
        # c = 1e-160 overflows the squared slopes, 1e-320 alpha/c^2, and
        # 1e200 underflows alpha/c^2 to 0
        pm = make_perturbed(1.0, h_knots=[0.0], h_slopes=[1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="dilation by"):
                dilate(pm, c)

    def test_perturbed_density_transforms(self):
        pm = make_perturbed(1.0, h_knots=[0.5], h_slopes=[1.0, -1.0])
        c = 0.7
        d = dilate(pm, c)
        for x in np.linspace(-2, 2, 9):
            expect = log_density(pm, [x / c]) - math.log(c)
            assert log_density(d, [x]) == pytest.approx(expect, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    def test_perturbed_closed_form_matches_rebuild(self, seed, log10_c):
        alpha, v_knots, v_slopes, h_knots, h_slopes, lip = random_perturbed_args(
            np.random.default_rng(seed))
        pm = make_perturbed(alpha, v_knots, v_slopes, h_knots, h_slopes, lip=lip)
        c = 10.0**log10_c
        got = dilate(pm, c)
        want = make_perturbed(alpha / (c * c), v_knots * c, v_slopes / c, h_knots * c,
                              h_slopes / c, lip=lip / c)
        close = dict(rtol=1e-12, atol=1e-12)
        for name in ("panel_edges", "panel_a", "panel_b"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), **close)
        for name in ("alpha", "lip", "log_normalizer"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), **close)
        zs = c * np.array([[-1.5], [-0.2], [0.4], [1.7]])
        for a, b in zip(_tilt(got, zs, 0.5 * c * c), _tilt(want, zs, 0.5 * c * c)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * c * c)


_INTERVALS = [
    # left of 0
    (-1.0, -0.5), (-5.0, -4.999), (-3.0, -1e-3), (-40.0, -39.0), (-1e3, -999.0),
    # right of 0
    (0.5, 1.0), (4.999, 5.0), (1e-3, 3.0), (39.0, 40.0), (999.0, 1e3),
    # straddling 0
    (-5e-4, 5e-4), (-1.0, 2.0), (-2.0, 1.0), (-10.0, 10.0), (-0.3, 30.0), (-30.0, 0.3),
    # half-infinite and doubly infinite
    (-math.inf, -40.0), (-math.inf, 0.0), (-math.inf, 3.0), (-math.inf, 1e-3),
    (2.0, math.inf), (-1.0, math.inf), (40.0, math.inf), (-math.inf, math.inf),
]


class TestLogGaussMass:
    def test_matches_60_digit_oracle(self):
        a, b = np.array(_INTERVALS).T
        got = _log_gauss_mass(a, b)
        want = np.array([log_gauss_mass(lo, hi) for lo, hi in _INTERVALS])
        # relative error, or absolute where |value| < 1
        err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        assert np.max(err) <= 1e-12, _INTERVALS[int(np.argmax(err))]

    def test_narrow_intervals(self):
        # log Phi(lo) and log Phi(hi) agree to 1e-3 or closer: their difference has lost
        # digits (one ulp apart, it was 0 and the mass -inf), and the midpoint series takes over
        one = math.nextafter(1.0, 2.0)
        intervals = [(1.0, one), (-one, -1.0), (0.3, 0.3 + 1e-9), (-40.0, -40.0 + 1e-9),
                     (5.0, 5.0 + 1e-7), (-1e4, math.nextafter(-1e4, 0.0)), (-2.0, -2.0 + 4e-7),
                     (-1e-6, 1e-6), (-3.0, -3.0 + 5e-7), (2.0, 2.0 + 2e-6), (-0.3, -0.2999)]
        a, b = np.array(intervals).T
        want = np.array([log_gauss_mass(lo, hi) for lo, hi in intervals])
        np.testing.assert_allclose(_log_gauss_mass(a, b), want, rtol=1e-15, atol=0)
        # an empty interval has mass 0
        assert _log_gauss_mass(np.array([2.0]), np.array([2.0]))[0] == -math.inf

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-40.0, 40.0), st.floats(-4.5, -1.5))
    def test_across_the_series_cut(self, c, log10_d):
        # intervals about c whose log Phi difference d runs from 3e-5 to 3e-2, across the
        # cut at 1e-3: the series is exact to rounding, and log1p(-e^d) beyond it holds the
        # 1e-12 of the wide intervals
        from scipy.special import log_ndtr

        h = 0.5 * 10.0**log10_d / max(0.8, abs(c))
        a, b = c - h, c + h
        lo, hi = (-b, -a) if a > -b else (a, b)
        series = log_ndtr(lo) - log_ndtr(hi) > -1e-3
        want = log_gauss_mass(a, b)
        got = _log_gauss_mass(np.array([a]), np.array([b]))[0]
        assert abs(got - want) <= (1e-15 if series else 1e-12) * abs(want)


class TestSampling:
    def test_gaussian_mean(self):
        pts = sample(standard_gaussian(1), 100000, seed=1)
        assert abs(np.mean(pts)) < 0.02

    def test_dirac(self):
        a = AtomicMeasure(dim=1, weights=np.array([1.0]), locations=np.array([[0.0]]))
        assert np.all(sample(a, 50, seed=0) == 0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            sample(standard_gaussian(1), 10, seed=-1)

    def test_deterministic(self):
        g = make_gaussian_mixture([(0.5, [0.0], 1.0), (0.5, [3.0], 0.5)])
        assert np.array_equal(sample(g, 100, seed=7), sample(g, 100, seed=7))

    def test_perturbed_ks_vs_cdf(self):
        pm = make_perturbed(1.0, h_knots=[0.0], h_slopes=[-1.0, 1.0])
        pts = np.sort(sample(pm, 100000, seed=3)[:, 0])
        n = pts.size
        cdf = cdf_1d(pm, pts)
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert ks < 0.01


class TestCdfQuantile:
    def test_mixture_cdf(self):
        g = standard_gaussian(1)
        assert cdf_1d(g, [0.0])[0] == pytest.approx(0.5)

    def test_perturbed_cdf_limits(self):
        pm = make_perturbed(2.0, h_knots=[0.0], h_slopes=[1.0, -1.0])
        assert cdf_1d(pm, [-20.0])[0] == pytest.approx(0.0, abs=1e-12)
        assert cdf_1d(pm, [20.0])[0] == pytest.approx(1.0, abs=1e-12)
        mean, _ = mean_variance_1d(pm)
        assert cdf_1d(pm, [mean])[0] == pytest.approx(0.5, abs=1e-6)  # symmetric

    def test_perturbed_cdf_matches_panel_loop(self, rng):
        # reference: each panel's truncated-Gaussian mass below x, panel by panel
        for _ in range(20):
            pm = random_perturbed(rng)
            x = np.concatenate([[-np.inf, np.inf], pm.panel_edges[1:-1],
                                rng.uniform(-6.0, 6.0, size=200)])
            want = np.zeros(x.size)
            C, s = pm.alpha, 1.0 / math.sqrt(pm.alpha)
            for p in range(pm.panel_a.size):
                B, A = -pm.panel_b[p], -pm.panel_a[p]
                lo, hi = pm.panel_edges[p], pm.panel_edges[p + 1]
                up = np.clip(x, lo, hi)
                mask = up > lo
                logm = (A + B * B / (2.0 * C) + 0.5 * math.log(2.0 * math.pi / C)
                        + _log_gauss_mass((lo - B / C) / s, (up[mask] - B / C) / s))
                want[mask] += np.exp(logm - pm.log_normalizer)
            np.testing.assert_allclose(cdf_1d(pm, x), np.clip(want, 0.0, 1.0),
                                       rtol=0, atol=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("slopes", [[-1.0, 1.0], [1.0, -1.0]], ids=["kink", "sharp-1-1"])
    def test_perturbed_cdf_reaches_one(self, slopes):
        # the panel masses sum to 1 - 1e-16 here; the CDF is their running sum over their
        # total, so it is 1 at inf, never above, and never steps down at an edge
        pm = make_perturbed(1.0, h_knots=[0.0], h_slopes=slopes)
        assert cdf_1d(pm, [-math.inf, math.inf]).tolist() == [0.0, 1.0]
        assert quantile_1d(pm, [0.0, 1.0]).tolist() == [-math.inf, math.inf]
        near_edge = np.arange(-50, 51) * 5e-324
        x = np.sort(np.concatenate([np.linspace(-40.0, 40.0, 40001), near_edge,
                                    [-math.inf, math.inf]]))
        cdf = cdf_1d(pm, x)
        assert np.all(np.diff(cdf) >= 0.0) and np.all((cdf >= 0.0) & (cdf <= 1.0))

    def test_perturbed_cdf_is_one_at_inf(self, rng):
        for _ in range(50):
            pm = random_perturbed(rng)
            x = np.concatenate([[-math.inf], pm.panel_edges[1:-1], [math.inf]])
            cdf = cdf_1d(pm, x)
            assert cdf[0] == 0.0 and cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)

    def test_quantile_roundtrip(self):
        pm = make_perturbed(1.0, h_knots=[0.0], h_slopes=[-0.5, 0.5])
        u = np.array([0.1, 0.5, 0.9])
        x = quantile_1d(pm, u)
        assert np.allclose(cdf_1d(pm, x), u, atol=1e-5)


class TestMoments:
    def test_perturbed_moments_vs_trapezoid(self, rng):
        pm = random_perturbed(rng)
        mean, var = mean_variance_1d(pm)
        xs = np.linspace(mean - 30, mean + 30, 400001)
        dens = np.exp(log_density(pm, xs[:, None]))
        m0 = np.trapezoid(dens, xs)
        m1 = np.trapezoid(dens * xs, xs) / m0
        m2 = np.trapezoid(dens * (xs - m1) ** 2, xs) / m0
        assert mean == pytest.approx(m1, abs=1e-9)
        assert var == pytest.approx(m2, abs=1e-9)

    def test_massless_and_one_ulp_panels(self):
        # a panel beyond 1e10 has no mass, and a panel one ulp wide has 1e-16 of it: the
        # moments are those of the density without it, with no warning (an error here)
        assert mean_variance_1d(make_perturbed(1.0, h_knots=[1e10], h_slopes=[0.0, 1.0])) \
            == pytest.approx((0.0, 1.0), rel=0, abs=1e-15)
        one = math.nextafter(1.0, 2.0)
        pm = make_perturbed(1.0, h_knots=[1.0, one], h_slopes=[1.0, -3.0, 2.0])
        with mpmath.workdps(30):  # H(x) = x below 1 and 2x - 1 above
            dens = lambda x: mpmath.exp(-x * x / 2 - (x if x < 1 else 2 * x - 1))
            m = [mpmath.quad(lambda x: x**j * dens(x), [-mpmath.inf, 1, mpmath.inf])
                 for j in range(3)]
            mean, var = m[1] / m[0], m[2] / m[0] - (m[1] / m[0]) ** 2
        assert mean_variance_1d(pm) == pytest.approx((float(mean), float(var)), rel=1e-14)
        assert pm.log_normalizer == pytest.approx(float(mpmath.log(m[0])), rel=1e-15)

    def test_mixture_variance_is_centred(self):
        # sum w (v + m^2) - mean^2 cancels to 0.0 here
        g = make_gaussian_mixture([(0.5, [1e8], 1.0), (0.5, [1e8 + 1.0], 1.0)])
        mean, var = mean_variance_1d(g)
        assert mean == 1e8 + 0.5
        assert var == pytest.approx(1.25, rel=1e-12)


class TestJson:
    def test_mixture(self):
        g = measure_from_json(
            {"type": "gaussian_mixture", "dim": 1,
             "components": [[2.0, [0.0], 1.0], [2.0, [1.0], 0.5]]}
        )
        assert np.allclose(g.weights, [0.5, 0.5])

    def test_perturbed(self):
        pm = measure_from_json(
            {"type": "perturbed_1d", "alpha": 1.0,
             "h_knots": [0.0], "h_slopes": [1.0, -1.0]}
        )
        assert pm.lip == pytest.approx(1.0)

    def test_counterexample(self):
        m = measure_from_json({"type": "counterexample", "psi": "linear",
                               "coefficient": 1.0, "truncation": 30})
        assert m.locations[:4].tolist() == [0.0, 1.0, 3.0, 6.0]

    @pytest.mark.parametrize("obj", [
        {"type": "gaussian_mixture", "components": [[1.0, [0.0]]]},
        {"type": "gaussian_mixture", "components": [[1.0, [0.0], 1.0, 2.0]]},
        {"type": "gaussian_mixture"},
        {"type": "atomic", "atoms": [[1.0]]},
        {"type": "atomic", "atoms": {"w": 1.0}},
    ])
    def test_malformed_entries(self, obj):
        with pytest.raises(ValidationError, match="entries"):
            measure_from_json(obj)

    def test_unknown_type(self):
        with pytest.raises(ValidationError):
            measure_from_json({"type": "nope"})


class _Bare:
    """An object with a dimension and no kernels."""

    dim = 1


_FAMILIES = {
    "mixture": lambda: make_gaussian_mixture([(0.5, [-1.0], 1.0), (0.5, [1.0], 0.5)]),
    "atomic": lambda: AtomicMeasure(dim=1, weights=np.array([0.5, 0.5]),
                                    locations=np.array([[0.0], [2.0]])),
    "perturbed": lambda: make_perturbed(1.0, h_knots=[0.0], h_slopes=[1.0, -1.0]),
    "counterexample": lambda: build_counterexample(lambda x: 0.0, truncation=8),
    "bare": _Bare,
}

_CALLS = {
    "log_density": lambda m: log_density(m, [0.5]),
    "score": lambda m: score(m, [0.5]),
    "log_hessian": lambda m: log_hessian(m, [0.5]),
    "convolve_gaussian": lambda m: convolve_gaussian(m, 1.0),
    "dilate": lambda m: dilate(m, 0.5),
    "mean_variance_1d": mean_variance_1d,
    "cdf_1d": lambda m: cdf_1d(m, 0.5),
    "quantile_1d": lambda m: quantile_1d(m, 0.5),
    "sample": lambda m: sample(m, 3),
    "tilted_moments": lambda m: tilted_moments(m, [0.5], 1.0),
}

_MISSING = {
    "mixture": set(),
    "atomic": {"log_density", "score", "log_hessian"},
    "perturbed": {"convolve_gaussian"},
    "counterexample": {"log_density", "score", "log_hessian", "dilate"},
    "bare": set(_CALLS),
}


_ONE_D = {**{k: v for k, v in _FAMILIES.items() if k != "bare"},
          "gaussian": lambda: standard_gaussian(1)}


class TestProbabilityArguments:
    """quantile_1d and cdf_1d check their arguments once, for every family."""

    @pytest.mark.parametrize("family", sorted(_ONE_D))
    def test_out_of_range_rejected(self, family):
        m = _ONE_D[family]()
        for u in (1.5, -0.5, math.nan):
            with pytest.raises(ValidationError, match=f"u={u!r}"):
                quantile_1d(m, [0.5, u])
        with pytest.raises(ValidationError, match="NaN"):
            cdf_1d(m, [0.0, math.nan])
        assert cdf_1d(m, [-math.inf, math.inf]) == pytest.approx([0.0, 1.0], rel=0, abs=2e-16)
        q = quantile_1d(m, [0.0, 0.5, 1.0])
        assert q[0] <= q[1] <= q[2]

    @pytest.mark.parametrize("family", sorted(_ONE_D))
    def test_quantile_ends(self, family):
        # a density's quantiles at 0 and 1 are the ends of its support, -inf and
        # inf; atoms keep their first and last atom
        m = _ONE_D[family]()
        ends = {"atomic": [0.0, 2.0], "counterexample": [0.0, 36.0]}
        assert quantile_1d(m, [0.0, 1.0]).tolist() == ends.get(family, [-math.inf, math.inf])

    def test_perturbed_sample_of_a_zero_uniform_is_finite(self):
        # rng.uniform may return exactly 0: the sampler reads the quantile table,
        # whose end is finite
        class Zeros:
            def uniform(self, size):
                return np.zeros(size)

        pm = _FAMILIES["perturbed"]()
        got = pm._sample(Zeros(), 2)
        np.testing.assert_array_equal(got, _quantile_grid(pm, np.zeros(2))[:, None])
        assert np.isfinite(got).all()


class TestKernelLookup:
    """Every public per-family function raises CapabilityError, from the one
    kernel lookup, exactly for the families without its kernel."""

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @pytest.mark.parametrize("name", sorted(_CALLS))
    def test_capability(self, family, name):
        measure, call = _FAMILIES[family](), _CALLS[name]
        if name in _MISSING[family]:
            with pytest.raises(CapabilityError, match="has no .* kernel"):
                call(measure)
        else:
            call(measure)

    @pytest.mark.parametrize("family", ["atomic", "perturbed", "counterexample"])
    def test_mixture_only_calls(self, family):
        # the mixture curvature bound and its analysis need the posterior kernel
        measure = _FAMILIES[family]()
        name = type(measure).__name__
        with pytest.raises(CapabilityError, match=f"^{name} has no posterior kernel$"):
            mixture_hessian_lower(measure, [0.5])
        with pytest.raises(CapabilityError, match=f"^{name} has no posterior kernel$"):
            analyze_mixture_1d(measure)

    @pytest.mark.parametrize("measure", [
        standard_gaussian(2),
        AtomicMeasure(dim=2, weights=np.array([0.5, 0.5]), locations=np.array([[0, 1], [2, 3]])),
    ], ids=["mixture", "atomic"])
    def test_one_d_kernels_name_the_dim(self, measure):
        name = type(measure).__name__
        with pytest.raises(CapabilityError, match=f"^{name} has dim 2; this kernel is 1D only$"):
            mean_variance_1d(measure)
