"""Measure construction, densities, convolution, sampling, CDFs."""
import math

import numpy as np
import pytest

from logheat import (
    AtomicMeasure,
    CapabilityError,
    GaussianMixture,
    ValidationError,
    cdf_1d,
    convolve_gaussian,
    dilate,
    log_density,
    log_hessian,
    make_gaussian_mixture,
    make_perturbed,
    mean_variance_1d,
    measure_from_json,
    sample,
    score,
    standard_gaussian,
)
from logheat.measures import PiecewiseLinear, quantile_1d

from conftest import random_mixture, random_perturbed


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
        dens = np.exp(-pm.potential(xs) - pm.log_normalizer)
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-8)


class TestPiecewiseLinear:
    def test_anchored_at_zero(self):
        f = PiecewiseLinear(np.array([-1.0, 1.0]), np.array([-1.0, 0.5, 2.0]))
        assert f(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_slopes(self):
        f = PiecewiseLinear(np.array([0.0]), np.array([1.0, -1.0]))
        xs = np.array([-2.0, -0.5, 0.5, 2.0])
        assert np.allclose(f(xs), [-2.0, -0.5, -0.5, -2.0])
        assert np.allclose(f.slope_at(np.array([-1.0, 1.0])), [1.0, -1.0])


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

    def test_weight_scaling_invariance(self, rng):
        comps = [(0.3, [0.0], 1.0), (0.7, [1.5], 0.5)]
        scaled = [(3.0 * w, m, v) for w, m, v in comps]
        g1 = make_gaussian_mixture(comps)
        g2 = make_gaussian_mixture(scaled)
        for x in np.linspace(-2, 3, 11):
            assert log_hessian(g1, [x])[0, 0] == pytest.approx(
                log_hessian(g2, [x])[0, 0], abs=1e-13
            )


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
        pm = make_perturbed(1.0, h_knots=[0.0], h_slopes=[1.0, -1.0])
        c = convolve_gaussian(pm, 1.0)
        xs = np.linspace(-25, 25, 400001)
        base = np.exp(-pm.potential(xs) - pm.log_normalizer)
        kern = np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi)
        # value of the convolution at 0 by direct integration
        oracle = np.trapezoid(base * np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi), xs)
        assert c.pdf([0.0]) == pytest.approx(oracle, abs=1e-8)

    def test_semigroup_property(self, rng):
        pm = random_perturbed(rng)
        c2 = convolve_gaussian(pm, 1.0)
        zs = np.linspace(-3, 3, 13)
        d2 = c2.pdf(zs[:, None])
        # evaluate (mu*g_{0.4})*g_{0.6} by quadrature over the oracle density
        xs = np.linspace(-30, 30, 60001)
        inner_vals = convolve_gaussian(pm, 0.4).pdf(xs[:, None])
        kern = lambda z: np.exp(-0.5 * (z - xs) ** 2 / 0.6) / math.sqrt(2 * math.pi * 0.6)
        d1 = np.array([np.trapezoid(inner_vals * kern(z), xs) for z in zs])
        assert np.max(np.abs(d1 - d2)) < 1e-9

    def test_invalid_t(self):
        with pytest.raises(ValidationError):
            convolve_gaussian(standard_gaussian(1), 0.0)


class TestDilate:
    def test_mixture(self):
        g = make_gaussian_mixture([(1.0, [2.0], 1.0)])
        d = dilate(g, 0.5)
        assert d.means[0, 0] == pytest.approx(1.0)
        assert d.variances[0] == pytest.approx(0.25)

    def test_perturbed_density_transforms(self):
        pm = make_perturbed(1.0, h_knots=[0.5], h_slopes=[1.0, -1.0])
        c = 0.7
        d = dilate(pm, c)
        for x in np.linspace(-2, 2, 9):
            expect = log_density(pm, [x / c]) - math.log(c)
            assert log_density(d, [x]) == pytest.approx(expect, abs=1e-12)


class TestSampling:
    def test_gaussian_mean(self):
        pts = sample(standard_gaussian(1), 100000, seed=1)
        assert abs(np.mean(pts)) < 0.02

    def test_dirac(self):
        a = AtomicMeasure(dim=1, weights=np.array([1.0]), locations=np.array([[0.0]]))
        assert np.all(sample(a, 50, seed=0) == 0.0)

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
        dens = np.exp(-pm.potential(xs) - pm.log_normalizer)
        m0 = np.trapezoid(dens, xs)
        m1 = np.trapezoid(dens * xs, xs) / m0
        m2 = np.trapezoid(dens * (xs - m1) ** 2, xs) / m0
        assert mean == pytest.approx(m1, abs=1e-9)
        assert var == pytest.approx(m2, abs=1e-9)


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

    def test_unknown_type(self):
        with pytest.raises(ValidationError):
            measure_from_json({"type": "nope"})
