"""Tilted moments, the covariance representation, OU derivatives, W2."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri as scipy_ndtri

from logheat import (
    AtomicMeasure,
    CapabilityError,
    GaussianMixture,
    NumericalError,
    ValidationError,
    build_counterexample,
    dilate,
    lemma1_check,
    log_density,
    log_hessian,
    log_hessian_heat,
    make_gaussian_mixture,
    make_perturbed,
    ou_log_derivatives,
    score,
    standard_gaussian,
    theta_envelope,
    tilted_log_mass,
    tilted_moments,
    wasserstein2_1d,
)
from logheat.heatflow import _tilt, marginal_stats_1d
from logheat.measures import convolve_gaussian

from conftest import random_atomic, random_mixture, random_perturbed
from oracles import counterexample_weights, finite_tilt, mixture_posterior, panel_tilt


def two_atoms():
    return AtomicMeasure(dim=1, weights=np.array([0.5, 0.5]),
                         locations=np.array([[0.0], [2.0]]))


class TestTiltedMoments:
    def test_symmetric_two_atom(self):
        tm = tilted_moments(two_atoms(), [1.0], 1.0)
        assert tm.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert tm.covariance[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_closed_form(self):
        g = standard_gaussian(1)
        for z in (0.0, 2.0, -5.0):
            tm = tilted_moments(g, [z], 0.7)
            assert tm.covariance[0, 0] == pytest.approx(0.7 / 1.7, rel=1e-12)
            assert tm.mean[0] == pytest.approx(z / 1.7, rel=1e-12)

    def test_dirac(self):
        a = AtomicMeasure(dim=1, weights=np.array([1.0]), locations=np.array([[0.0]]))
        tm = tilted_moments(a, [3.0], 1.0)
        assert tm.covariance[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_mass_log_is_convolved_density(self):
        g = make_gaussian_mixture([(0.5, [0.0], 1.0), (0.5, [2.0], 0.5)])
        z, t = 0.7, 1.3
        tm = tilted_moments(g, [z], t)
        c = convolve_gaussian(g, t)
        from logheat import log_density

        assert tm.mass_log == pytest.approx(log_density(c, [z]), abs=1e-12)

    def test_huge_tilt_raises(self):
        with pytest.raises(NumericalError):
            tilted_moments(two_atoms(), [1e160], 1.0)

    def test_huge_tilt_names_row(self):
        # |z - x|^2 overflows for every atom: the message gives the row's z and
        # its distance to the nearest atom, as for any mixture component
        zs = np.array([[0.5], [1e305]])
        for t in (1e-5, np.array([1.0, 1e-5])):
            with pytest.raises(NumericalError, match=r"^mixture logits overflow at x=\[1e\+305\]: "
                                                     r".* nearest \|x - m\| = 1e\+305$"):
                _tilt(two_atoms(), zs, t)

    def test_perturbed_vs_trapezoid(self):
        # named for the trapezoid rule on log_density it used; the exact panel tilt is stricter
        args = (1.0, [], [0.0], [0.0], [1.0, -1.0])
        z, t = 0.7, 0.8
        tm = tilted_moments(make_perturbed(*args), [z], t)
        mass_log, mean, var = panel_tilt(args, z, t)
        assert tm.mass_log == pytest.approx(mass_log, abs=1e-9)
        assert tm.mean[0] == pytest.approx(mean, abs=1e-9)
        assert tm.covariance[0, 0] == pytest.approx(var, abs=1e-9)


class TestLogHessianHeat:
    def test_two_atom_threshold(self):
        # value 0 exactly at t = x0^2/4 = 1
        assert log_hessian_heat(two_atoms(), [1.0], 1.0)[0, 0] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_gaussian(self):
        g = standard_gaussian(1)
        for z in (-1.0, 0.0, 2.0):
            assert log_hessian_heat(g, [z], 1.0)[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_two_atom_below_threshold(self):
        got = log_hessian_heat(two_atoms(), [1.0], 0.9)[0, 0]
        assert got == pytest.approx((1 / 0.9) * (1 - 1 / 0.9), abs=1e-10)

    def test_mixture_consistency_grids(self, rng):
        # analytic Hessian of the convolved mixture vs covariance form
        for _ in range(5):
            m = random_mixture(rng)
            t = float(rng.uniform(0.3, 2.0))
            for z in np.linspace(-4, 4, 41):
                got = log_hessian_heat(m, [z], t)[0, 0]
                direct = -log_hessian(convolve_gaussian(m, t), [z])[0, 0]
                assert got == pytest.approx(direct, abs=1e-8)

    def test_upper_bound_universal(self, rng):
        for maker in (random_mixture, random_atomic, random_perturbed):
            for _ in range(3):
                m = maker(rng)
                t = float(rng.uniform(0.3, 2.0))
                for z in np.linspace(-5, 5, 21):
                    lam = log_hessian_heat(m, [z], t)[0, 0]
                    assert lam <= 1.0 / t + 1e-9

    def test_brascamp_lieb_pure_convex(self, rng):
        # L = 0: tilted variance bounded by 1/(alpha + 1/t)
        for _ in range(5):
            alpha = float(rng.uniform(0.3, 3.0))
            pm = make_perturbed(alpha, v_knots=[0.0], v_slopes=[-0.5, 0.5])
            t = float(rng.uniform(0.3, 2.0))
            for z in np.linspace(-4, 4, 17):
                tm = tilted_moments(pm, [z], t)
                assert tm.covariance[0, 0] <= 1.0 / (alpha + 1.0 / t) + 1e-8

    def test_dim2_consistency(self, rng):
        m = random_mixture(rng, dim=2)
        t = 0.8
        for z in [np.array([0.3, -1.0]), np.array([2.0, 1.0])]:
            got = log_hessian_heat(m, z, t)
            direct = -log_hessian(convolve_gaussian(m, t), z)
            assert np.max(np.abs(got - direct)) < 1e-8


class TestOuDerivatives:
    def test_gaussian_reference(self):
        g = standard_gaussian(1)
        for t in (0.3, 1.0, 2.5):
            for x in (-1.0, 0.0, 2.0):
                v, gr, h = ou_log_derivatives(g, t, [x])
                assert v == pytest.approx(0.0, abs=1e-12)
                assert gr[0] == pytest.approx(0.0, abs=1e-12)
                assert h[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_translated_gaussian(self):
        gm = make_gaussian_mixture([(1.0, [1.5], 1.0)])
        t = 0.7
        _, gr, h = ou_log_derivatives(gm, t, [0.4])
        assert gr[0] == pytest.approx(1.5 * math.exp(-t), rel=1e-12)
        assert h[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_scaled_gaussian(self):
        s2 = 4.0
        gs = make_gaussian_mixture([(1.0, [0.0], s2)])
        t = 0.7
        e = math.exp(-2 * t)
        expect = (s2 - 1) * e / (1 + (s2 - 1) * e)
        _, _, h = ou_log_derivatives(gs, t, [0.4])
        assert h[0, 0] == pytest.approx(expect, rel=1e-12)
        # finite-difference cross-check on the value
        eps = 1e-4
        vals = [ou_log_derivatives(gs, t, [0.4 + k * eps])[0] for k in (-1, 0, 1)]
        fd = (vals[0] - 2 * vals[1] + vals[2]) / eps**2
        assert h[0, 0] == pytest.approx(fd, abs=1e-5)

    def test_perturbed_fd_cross_check(self, rng):
        pm = random_perturbed(rng)
        t, x = 0.6, 0.9
        val, gr, h = ou_log_derivatives(pm, t, [x])
        eps = 1e-4
        vals = [ou_log_derivatives(pm, t, [x + k * eps])[0] for k in (-2, -1, 0, 1, 2)]
        fd_g = (vals[3] - vals[1]) / (2 * eps)
        fd_h = (vals[1] - 2 * vals[2] + vals[3]) / eps**2
        assert gr[0] == pytest.approx(fd_g, abs=1e-6)
        assert h[0, 0] == pytest.approx(fd_h, abs=1e-4)


class TestCentredAggregation:
    """Far tilts and small t, where uncentred second moments cancel."""

    def test_perturbed_gaussian_far_tilt(self):
        t = 1e-4
        got = log_hessian_heat(make_perturbed(1.0), [1e4], t)[0, 0]
        assert got == pytest.approx(1.0 / (1.0 + t), rel=1e-10)

    def test_perturbed_gaussian_theta_small_t(self):
        env = theta_envelope(make_perturbed(1.0), time_grid=np.array([1e-6]))
        assert max(abs(env.theta_min[0]), abs(env.theta_max[0])) < 1e-9

    def test_mixture_gaussian_far_tilt(self):
        t = 1e-4
        got = log_hessian_heat(standard_gaussian(1), [1e4], t)[0, 0]
        assert got == pytest.approx(1.0 / (1.0 + t), rel=1e-10)

    def test_narrow_mixture_small_t(self):
        comps = [(0.5, 0.0, 1e-3), (0.5, 0.1, 2e-3)]
        m = make_gaussian_mixture([(w, [mu], s) for w, mu, s in comps])
        z, t = 100.0, 1e-4
        got = log_hessian_heat(m, [z], t)[0, 0]
        w, means, s = zip(*comps)
        want = -mixture_posterior(w, means, np.add(s, t), [z])["log_hessian"][0, 0]
        assert got == pytest.approx(want, rel=1e-10)

    def test_translated_mixture(self):
        # both components keep comparable tilted weights 1e4 away from 0
        comps = [(0.5, 1e4, 1.0), (0.5, 1e4 + 1.0, 1.0)]
        m = make_gaussian_mixture([(w, [mu], s) for w, mu, s in comps])
        z, t = 1e4 + 0.3, 1e-2
        got = log_hessian_heat(m, [z], t)[0, 0]
        w, means, s = zip(*comps)
        want = -mixture_posterior(w, means, np.add(s, t), [z])["log_hessian"][0, 0]
        assert got == pytest.approx(want, rel=1e-10)


class TestAtomTiltDigits:
    """A tilted mean of 0.04 or less, among atoms out to 1830, keeps its
    digits: far from every atom (z = -40, t = 0.5) the atoms are weighted
    relative to the heaviest, without the cancelling |z - x|^2 / (2t)."""

    @pytest.mark.parametrize("n,z,t", [(8, -32.0, 18.0), (8, -40.0, 0.5),
                                       (60, -32.0, 18.0), (60, -40.0, 0.5)])
    def test_counterexample_mean_matches_mpmath(self, n, z, t):
        m = build_counterexample(lambda x: 0.0, truncation=n)
        weights, locations = counterexample_weights(lambda x: 0.0, n)
        want = finite_tilt(weights, locations, np.zeros(n + 1), [z], t)[1][0]
        got = tilted_moments(m, [z], t).mean[0]
        assert abs(got - want) <= 1e-14 * abs(want)


class TestPerturbedOuRange:
    """Past t ~ 354.9 the dilation of the kink by e^{-t} squares its panel
    slopes past the float range; the OU entry points say so."""

    KINK = make_perturbed(1, [], [0], [0], [-1, 1])

    @pytest.mark.parametrize("t", [356.0, 360.0, 371.0, 373.0])
    def test_out_of_range_time_raises(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="dilation by"):
                marginal_stats_1d(self.KINK, t, np.array([0.0, 1.0]))
            with pytest.raises(ValidationError, match="dilation by"):
                ou_log_derivatives(self.KINK, t, np.array([[0.0], [1.0]]))

    def test_in_range_time_unchanged(self):
        # the values before the range check: the standard Gaussian's
        log_mass, score_, hess = marginal_stats_1d(self.KINK, 350.0, np.array([0.0, 1.0]))
        assert log_mass.tolist() == [-0.9189385332047095, -1.4189385332047095]
        assert score_.tolist() == [0.0, -1.0]
        assert hess.tolist() == [-1.0, -1.0]


@st.composite
def _tilted_cases(draw):
    """A random measure of each family (mixtures and atoms moved up to 1e4
    away from 0), a tilt point up to 1e4 away from it, and t."""
    kind = draw(st.sampled_from(["mix1", "mix2", "atoms", "perturbed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1e2, 1e4]))
    if kind == "mix1" or kind == "mix2":
        m = random_mixture(rng, dim=1 if kind == "mix1" else 2)
        m = GaussianMixture(m.dim, m.weights, m.means + offset, m.variances)
    elif kind == "atoms":
        m = random_atomic(rng)
        m = AtomicMeasure(1, m.weights, m.locations + offset)
    else:
        m, offset = random_perturbed(rng), 0.0
    scale = draw(st.sampled_from([1.0, 1e2, 1e4]))
    z = offset + scale * rng.uniform(-1.0, 1.0, size=m.dim)
    t = draw(st.floats(1e-4, 10.0))
    return m, z, t


class TestTiltedCovarianceProperties:
    @settings(max_examples=200, deadline=None)
    @given(_tilted_cases())
    def test_symmetric_positive_semidefinite(self, case):
        m, z, t = case
        cov = tilted_moments(m, z, t).covariance
        assert np.all(np.isfinite(cov))
        assert np.array_equal(cov, cov.T)
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12


def _ou_measures(rng):
    return [random_mixture(rng), random_mixture(rng, dim=2), random_atomic(rng),
            random_perturbed(rng)]


class TestTiltValidation:
    """Non-finite tilt points or t must not come back as NaN."""

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_point(self, z):
        for m in (standard_gaussian(1), two_atoms(), make_perturbed(1.0)):
            with pytest.raises(ValidationError, match="finite"):
                tilted_moments(m, [z], 1.0)
            with pytest.raises(ValidationError, match="finite"):
                log_hessian_heat(m, [z], 1.0)

    def test_non_finite_row_in_batch(self):
        xs = np.array([[0.0], [math.nan]])
        with pytest.raises(ValidationError, match="finite"):
            ou_log_derivatives(make_perturbed(1.0), 0.5, xs)

    def test_infinite_t(self):
        for m in (standard_gaussian(1), two_atoms(), make_perturbed(1.0)):
            with pytest.raises(ValidationError, match="finite"):
                log_hessian_heat(m, [0.0], math.inf)

    def test_tilted_moments_rejects_batch(self):
        for zs in (np.zeros((1, 1)), np.zeros((3, 1))):
            with pytest.raises(ValidationError, match="one point"):
                tilted_moments(standard_gaussian(1), zs, 1.0)

    @pytest.mark.parametrize("call", [
        lambda m, t: log_hessian_heat(m, np.zeros((3, 1)), t),
        lambda m, t: tilted_log_mass(m, np.zeros((3, 1)), t),
        lambda m, t: tilted_moments(m, [0.0], t),
        lambda m, t: ou_log_derivatives(m, t, np.zeros((3, 1))),
        lambda m, t: marginal_stats_1d(m, t, np.zeros(3)),
        lambda m, t: convolve_gaussian(m, t),
    ], ids=["log_hessian_heat", "tilted_log_mass", "tilted_moments", "ou_log_derivatives",
            "marginal_stats_1d", "convolve_gaussian"])
    def test_one_t_per_call(self, call):
        # a time per row is private to _tilt: an array t is an error naming t, and
        # a 0-d array or numpy scalar is the number it holds
        mix = make_gaussian_mixture([(0.5, [-2.0], 1.0), (0.5, [2.0], 1.0)])
        for t in (np.array([0.5, 1.0, 2.0]), [0.5, 1.0, 2.0], np.array([0.5]), [[0.5]]):
            with pytest.raises(ValidationError,
                               match=r"^t must be one number, got an array of shape \("):
                call(mix, t)

        def arrays(out):
            out = out if isinstance(out, tuple) else (out,)
            return [getattr(x, "covariance", getattr(x, "variances", x)) for x in out]

        want = arrays(call(mix, 0.5))
        for t in (np.asarray(0.5), np.float32(0.5)):
            for got, w in zip(arrays(call(mix, t)), want):
                np.testing.assert_array_equal(got, w)


class TestBatchedOu:
    def test_ou_batch_matches_pointwise(self, rng):
        for m in _ou_measures(rng):
            xs = rng.uniform(-4.0, 4.0, size=(9, m.dim))
            for t in (0.05, 0.7, 3.0):
                val, grad, hess = ou_log_derivatives(m, t, xs)
                assert val.shape == (9,) and grad.shape == (9, m.dim)
                assert hess.shape == (9, m.dim, m.dim)
                for k, x in enumerate(xs):
                    v1, g1, h1 = ou_log_derivatives(m, t, x)
                    assert val[k] == pytest.approx(v1, rel=1e-13, abs=1e-13)
                    np.testing.assert_allclose(grad[k], g1, rtol=1e-13, atol=1e-13)
                    np.testing.assert_allclose(hess[k], h1, rtol=1e-13, atol=1e-13)

    def test_log_hessian_heat_batch_matches_pointwise(self, rng):
        cex = build_counterexample(lambda x: 0.1 * x, truncation=20)
        for m in _ou_measures(rng) + [cex]:
            zs = rng.uniform(-4.0, 4.0, size=(9, m.dim))
            for t in (0.05, 0.7, 3.0):
                h = log_hessian_heat(m, zs, t)
                assert h.shape == (9, m.dim, m.dim)
                for k, z in enumerate(zs):
                    np.testing.assert_allclose(h[k], log_hessian_heat(m, z, t),
                                               rtol=1e-12, atol=1e-12)

    def test_marginal_stats_match_pointwise(self, rng):
        for m in _ou_measures(rng):
            if m.dim != 1:
                continue
            xs = rng.uniform(-4.0, 4.0, size=9)
            for t in (0.05, 0.7, 3.0):
                logp, sc, hess = marginal_stats_1d(m, t, xs)
                for k, x in enumerate(xs):
                    one = marginal_stats_1d(m, t, xs[k:k + 1])
                    np.testing.assert_allclose([logp[k], sc[k], hess[k]],
                                               [one[0][0], one[1][0], one[2][0]],
                                               rtol=1e-13, atol=1e-13)
                    # the same marginal through the relative-density derivatives
                    v1, g1, h1 = ou_log_derivatives(m, t, [x])
                    log_gamma = -0.5 * math.log(2 * math.pi) - 0.5 * x * x
                    assert logp[k] == pytest.approx(v1 + log_gamma, rel=1e-12, abs=1e-12)
                    assert sc[k] == pytest.approx(g1[0] - x, rel=1e-12, abs=1e-12)
                    assert hess[k] == pytest.approx(h1[0, 0] - 1.0, rel=1e-12, abs=1e-11)

    def test_mixture_matches_convolved_closed_form(self, rng):
        for dim in (1, 2):
            for _ in range(4):
                m = random_mixture(rng, dim=dim)
                for t in (0.05, 0.7, 3.0):
                    marg = convolve_gaussian(dilate(m, math.exp(-t)), -math.expm1(-2 * t))
                    xs = rng.uniform(-4.0, 4.0, size=(7, dim))
                    logp, sc, hess = ou_log_derivatives(m, t, xs)
                    for k, x in enumerate(xs):
                        log_gamma = -0.5 * dim * math.log(2 * math.pi) - 0.5 * float(x @ x)
                        assert logp[k] + log_gamma == pytest.approx(
                            log_density(marg, x), abs=1e-10)
                        np.testing.assert_allclose(sc[k] - x, score(marg, x), atol=1e-10)
                        np.testing.assert_allclose(hess[k] - np.eye(dim), log_hessian(marg, x),
                                                   atol=1e-10)


class TestWasserstein:
    def test_diracs(self):
        a = AtomicMeasure(dim=1, weights=np.array([1.0]), locations=np.array([[0.0]]))
        b = AtomicMeasure(dim=1, weights=np.array([1.0]), locations=np.array([[3.0]]))
        assert wasserstein2_1d(a, b) == pytest.approx(3.0)

    def test_translation(self):
        g = standard_gaussian(1)
        gm = make_gaussian_mixture([(1.0, [2.5], 1.0)])
        assert wasserstein2_1d(g, gm) == pytest.approx(2.5, rel=1e-12)

    def test_pair_vs_midpoint(self):
        a = two_atoms()
        b = AtomicMeasure(dim=1, weights=np.array([1.0]), locations=np.array([[1.0]]))
        assert wasserstein2_1d(a, b) == pytest.approx(1.0)

    def test_gaussian_vs_gaussian_quadrature_path(self):
        # N(0, 1) as two components (make_gaussian_mixture would merge them)
        # takes the 512-node rule in u on the quantile coupling, whose error
        # pins that path: the closed form gives sqrt(5) to rounding.  The rule
        # misses int_0^1 Phi^-1(u)^2 du = 1 by 9.25e-6, so W2 reads
        # sqrt(5) - 2.07e-6; the exact quantiles add nothing to that
        g1 = GaussianMixture(dim=1, weights=np.array([0.5, 0.5]),
                             means=np.array([[0.0], [0.0]]), variances=np.array([1.0, 1.0]))
        gm = make_gaussian_mixture([(1.0, [2.0], 4.0)])
        nodes, weights = np.polynomial.legendre.leggauss(512)
        rule = math.sqrt(np.sum(0.5 * weights * (2.0 + scipy_ndtri(0.5 * (nodes + 1.0))) ** 2))
        assert wasserstein2_1d(g1, gm) == pytest.approx(rule, rel=1e-14, abs=0)
        assert -2.1e-6 < rule - math.sqrt(5.0) < -2.0e-6

    def test_unsupported_dim(self):
        g2 = standard_gaussian(2)
        with pytest.raises(CapabilityError):
            wasserstein2_1d(g2, g2)


class TestLemma1:
    def test_tight_case(self):
        a = two_atoms()
        b = AtomicMeasure(dim=1, weights=np.array([1.0]), locations=np.array([[1.0]]))
        lhs, rhs, slack = lemma1_check(a, b)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)
        assert slack == pytest.approx(0.0, abs=1e-10)

    def test_identical_measures(self, rng):
        m = random_mixture(rng)
        lhs, rhs, slack = lemma1_check(m, m)
        _, var = __import__("logheat").mean_variance_1d(m)
        assert rhs == pytest.approx(var, rel=1e-6)

    def test_gaussian_pair_frozen(self):
        # N(0,1) vs N(5,4): W2 = sqrt(26), rhs = (sqrt(26)+2)^2   [DERIVED]
        g = standard_gaussian(1)
        gm = make_gaussian_mixture([(1.0, [5.0], 4.0)])
        lhs, rhs, slack = lemma1_check(g, gm)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx((math.sqrt(26.0) + 2.0) ** 2, rel=1e-12)
        assert slack >= -1e-10

    def test_randomized_slack(self, rng):
        makers = (random_mixture, random_atomic, random_perturbed)
        for i in range(200):
            mu = makers[i % 3](rng)
            nu = makers[(i + 1) % 3](rng)
            _, _, slack = lemma1_check(mu, nu)
            assert slack >= -1e-10
