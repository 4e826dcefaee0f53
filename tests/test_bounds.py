"""Closed-form envelopes, constants, and the mixture curvature bounds."""
import math

import numpy as np
import pytest

from logheat import (
    DomainError,
    PerturbationParams,
    ValidationError,
    compact_support_lower,
    cor7_envelope,
    example3_limit_check,
    integrated_ou_upper,
    log_concavity_time,
    log_hessian,
    log_hessian_heat,
    lsi_transfer,
    make_gaussian_mixture,
    mixture_hessian_lower,
    thm2_envelope,
    transport_constants,
)

from conftest import integrated_ou_upper_numeric, random_mixture, random_perturbed


class TestThm2Envelope:
    def test_gaussian_tight(self):
        lower, upper = thm2_envelope(1.0, 0.0, 1.0)
        assert lower == pytest.approx(0.5)
        assert upper == pytest.approx(1.0)

    def test_frozen_value(self):
        # direct arithmetic evaluation at (1, 1, 4)  [DERIVED]
        lower, upper = thm2_envelope(1.0, 1.0, 4.0)
        c = 1.0 + 0.25
        expect = 0.25 * (1.0 - 0.25 * (1.0 / c + math.sqrt(1.0 / c)) ** 2)
        assert lower == pytest.approx(expect, rel=1e-14)
        assert lower == pytest.approx(0.0705573, abs=1e-7)
        assert upper == pytest.approx(0.25)

    def test_negative_alpha(self):
        lower, upper = thm2_envelope(-0.5, 0.0, 1.0)
        assert lower == pytest.approx(-1.0)
        assert upper == pytest.approx(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            thm2_envelope(-2.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            thm2_envelope(1.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            thm2_envelope(1.0, -1.0, 1.0)

    def test_ordering(self, rng):
        for _ in range(50):
            a = float(rng.uniform(-1.0, 4.0))
            lip = float(rng.uniform(0.0, 2.0))
            t = float(rng.uniform(0.1, 5.0))
            if a * t + 1.0 <= 1e-6:
                continue
            lower, upper = thm2_envelope(a, lip, t)
            assert lower <= upper


class TestLogConcavityTime:
    def test_values(self):
        assert log_concavity_time(1.0, 1.0) == pytest.approx(4.0)
        assert log_concavity_time(1.0, 0.0) == pytest.approx(1.0)
        assert log_concavity_time(4.0, 2.0) == pytest.approx(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_concavity_time(0.0, 1.0)

    def test_lower_nonnegative_from_t_star(self):
        # t* is sufficient (not sharp): the envelope is >= 0 there and
        # negative at short times when lip > 0
        a, lip = 1.3, 0.7
        t_star = log_concavity_time(a, lip)
        for t in (t_star, 2.0 * t_star, 10.0 * t_star):
            lower, _ = thm2_envelope(a, lip, t)
            assert lower >= 0.0
        assert thm2_envelope(a, lip, 0.01)[0] < 0.0


class TestCompactSupport:
    def test_values(self):
        assert compact_support_lower(1.0, 2.0) == pytest.approx(0.25)
        assert compact_support_lower(1.0, 1.0) == pytest.approx(0.0)
        assert compact_support_lower(2.0, 1.0) == pytest.approx(-3.0)


class TestExample3Limit:
    def test_gap_scales_like_sqrt_s(self):
        # gap ~ 2R t^{-3/2} sqrt(s): 5.0e-4 at s = 1e-6, < 1e-4 at s = 1e-10
        _, _, gap6 = example3_limit_check(1.0, 2.0, 1e-6)
        assert gap6 == pytest.approx(5.0e-4, rel=1e-3)
        _, _, gap10 = example3_limit_check(1.0, 2.0, 1e-10)
        assert gap10 < 1e-4
        assert gap10 < gap6

    def test_zero_radius(self):
        shifted, classical, gap = example3_limit_check(0.0, 2.0, 1e-8)
        assert classical == pytest.approx(0.5)
        assert gap < 1e-4

    def test_finite_s_reported(self):
        shifted, classical, gap = example3_limit_check(1.0, 2.0, 0.5)
        assert gap > 0.0
        assert math.isfinite(shifted)


class TestCor7Envelope:
    def test_alpha_one_no_lip(self):
        lower, upper = cor7_envelope(1.0, 0.0, 1.0)
        assert lower == pytest.approx(-1.0 / (math.e**2 - 1.0), rel=1e-12)
        assert lower == pytest.approx(-0.1565176, abs=1e-6)
        assert upper == pytest.approx(0.0, abs=1e-15)

    def test_frozen_upper(self):
        # independent arithmetic: 1/e^2 + 2 e^2/(sqrt(e^2-1) e^3)  [DERIVED]
        _, upper = cor7_envelope(1.0, 1.0, 1.0)
        e2 = math.e**2
        expect = 1.0 / e2 + 2.0 * e2 / (math.sqrt(e2 - 1.0) * math.e**3)
        assert upper == pytest.approx(expect, rel=1e-13)
        assert upper == pytest.approx(0.4264185, abs=1e-6)

    def test_large_time_decay(self):
        lower, upper = cor7_envelope(1.0, 0.0, 20.0)
        assert abs(lower) < 1e-15 + 1e-8
        assert abs(upper) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            cor7_envelope(1.0, 0.0, 0.0)


class TestIntegratedOuUpper:
    def test_closed_form_values(self):
        assert integrated_ou_upper(1.0, 1.0) == pytest.approx(2.5)
        assert integrated_ou_upper(1.0, 0.0) == pytest.approx(0.0)
        assert integrated_ou_upper(4.0, 0.0) == pytest.approx(-0.5 * math.log(4.0))
        assert math.exp(integrated_ou_upper(4.0, 0.0)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("alpha,lip", [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5)])
    def test_numeric_matches(self, alpha, lip):
        closed = integrated_ou_upper(alpha, lip)
        numeric, tail = integrated_ou_upper_numeric(alpha, lip)
        assert numeric == pytest.approx(closed, abs=1e-4)
        assert abs(tail) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            integrated_ou_upper(0.0, 1.0)


class TestTransportConstants:
    def test_identity_case(self):
        c = transport_constants(PerturbationParams(alpha=1.0))
        assert c["caffarelli"] == c["thm3"] == c["fms"] == pytest.approx(1.0)

    def test_frozen_values(self):
        c = transport_constants(PerturbationParams(alpha=1.0, lip=1.0))
        assert c["thm3"] == pytest.approx(math.exp(2.5), rel=1e-12)
        assert c["fms"] == pytest.approx(math.exp(5.0 + 5.0 * math.sqrt(math.pi)), rel=1e-12)
        assert c["thm3"] < c["fms"]

    def test_scaled(self):
        c = transport_constants(PerturbationParams(alpha=4.0))
        assert c["caffarelli"] == pytest.approx(0.5)
        assert c["thm3"] == pytest.approx(0.5)

    def test_consistency_with_integral(self):
        # thm3 = caffarelli * exp(integrated upper + 0.5 log alpha) at L > 0
        a, lip = 1.7, 0.9
        c = transport_constants(PerturbationParams(alpha=a, lip=lip))
        assert c["thm3"] == pytest.approx(math.exp(integrated_ou_upper(a, lip)), rel=1e-12)


class TestLsiTransfer:
    def test_values(self):
        assert lsi_transfer(1.0, 2.0) == pytest.approx(4.0)
        assert lsi_transfer(1.0, 1.0) == pytest.approx(1.0)

    def test_composition(self):
        c = transport_constants(PerturbationParams(alpha=1.0, lip=1.0))
        assert lsi_transfer(1.0, c["thm3"]) == pytest.approx(math.exp(5.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            lsi_transfer(-1.0, 1.0)


class TestArgumentRange:
    @pytest.mark.parametrize("fn, args, pattern", [
        (thm2_envelope, (1.0, 0.0, math.inf), "t must be finite, got inf"),
        (thm2_envelope, (math.nan, 0.0, 1.0), "alpha must be finite"),
        (thm2_envelope, (1.0, math.inf, 1.0), "lip must be finite"),
        (thm2_envelope, (1.0, 0.0, 1e-320), "t = 1e-320 is out of range: 1/t overflows"),
        (cor7_envelope, (1.0, 0.0, math.inf), "t must be finite"),
        (cor7_envelope, (math.inf, 0.0, 1.0), "alpha must be finite"),
        (cor7_envelope, (1.0, math.nan, 1.0), "lip must be finite"),
        (cor7_envelope, (1.0, 0.0, 1e-320), r"t = 1e-320 is out of range: e\^\(2t\) - 1 or its"),
        (cor7_envelope, (1.0, 0.0, 400.0), r"t = 400\.0 is out of range: e\^\(2t\) - 1 or its"),
        (compact_support_lower, (math.inf, 1.0), "radius must be finite"),
        (compact_support_lower, (math.nan, 1.0), "radius must be finite"),
        (compact_support_lower, (1.0, math.nan), "t must be finite"),
        (compact_support_lower, (1.0, 1e-320), "t = 1e-320 is out of range: 1/t overflows"),
        (log_concavity_time, (math.inf, 1.0), "alpha must be finite"),
        (log_concavity_time, (1.0, math.nan), "lip must be finite"),
        (integrated_ou_upper, (math.nan, 0.0), "alpha must be finite"),
        (integrated_ou_upper, (1.0, math.inf), "lip must be finite"),
        (lsi_transfer, (math.inf, 1.0), "C must be finite"),
        (lsi_transfer, (1.0, math.nan), "lip_map must be finite"),
        (PerturbationParams, (math.nan,), "alpha must be finite"),
        (PerturbationParams, (1.0, math.inf), "lip must be finite"),
        (PerturbationParams, (1.0, 0.0, math.nan), "third_deriv must be finite"),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_bad_argument_named(self, fn, args, pattern):
        with pytest.raises(ValidationError, match=f"^{pattern}"):
            fn(*args)


def _pairwise_lower(mixture, x):
    """(refined, crude) at one point by the explicit sum over component pairs,
    in the paper's convention U_i = |x - m_i|^2 / sigma_i^2, sigma_i^2 = 2 v_i."""
    sigma2 = 2.0 * mixture.variances
    diff = x[None, :] - mixture.means
    l = (np.log(mixture.weights) - 0.5 * mixture.dim * np.log(math.pi * sigma2)
         - np.sum(diff * diff, axis=1) / sigma2)
    grad = 2.0 * diff / sigma2[:, None]
    r = np.exp(l - np.max(l)) / np.sum(np.exp(l - np.max(l)))
    K = 2.0 / float(np.max(sigma2))
    refined, crude = K * np.eye(mixture.dim), K * np.eye(mixture.dim)
    for i in range(l.size):
        for j in range(i):
            outer = np.outer(grad[i] - grad[j], grad[i] - grad[j])
            refined = refined - r[i] * r[j] * outer
            crude = crude - outer / (4.0 * math.cosh(0.5 * (l[i] - l[j])) ** 2)
    return refined, crude


class TestMixtureHessianLower:
    def pair(self):
        # paper-convention sigma^2 = 1 means component variance 1/2
        return make_gaussian_mixture([(0.5, [0.0], 0.5), (0.5, [1.0], 0.5)])

    def test_midpoint_equality(self):
        refined, crude = mixture_hessian_lower(self.pair(), [0.5])
        assert refined[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert crude[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_single_component(self):
        g = make_gaussian_mixture([(1.0, [0.0], 0.5)])
        refined, crude = mixture_hessian_lower(g, [0.3])
        assert refined[0, 0] == pytest.approx(2.0)
        assert crude[0, 0] == pytest.approx(2.0)

    def test_far_field_recovers_k(self):
        refined, crude = mixture_hessian_lower(self.pair(), [10.0])
        assert refined[0, 0] == pytest.approx(2.0, abs=1e-6)
        assert crude[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_domination_chain(self, rng):
        # actual curvature >= refined >= crude pointwise
        for _ in range(10):
            m = random_mixture(rng, max_components=3)
            for x in np.linspace(-6, 6, 41):
                actual = -log_hessian(m, [x])[0, 0]
                refined, crude = mixture_hessian_lower(m, [x])
                assert actual >= refined[0, 0] - 1e-8
                assert refined[0, 0] >= crude[0, 0] - 1e-10

    def test_batch_matches_pairwise_reference(self, rng):
        for dim in (1, 2):
            for _ in range(4):
                m = random_mixture(rng, dim=dim, max_components=4)
                xs = rng.uniform(-4.0, 4.0, size=(9, dim))
                refined, crude = mixture_hessian_lower(m, xs)
                assert refined.shape == crude.shape == (9, dim, dim)
                for k, x in enumerate(xs):
                    one = mixture_hessian_lower(m, x)
                    ref = _pairwise_lower(m, x)
                    for got, point, want in zip((refined[k], crude[k]), one, ref):
                        np.testing.assert_allclose(got, point, rtol=1e-12, atol=1e-12)
                        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_dim2_matrices(self, rng):
        m = random_mixture(rng, dim=2, max_components=3)
        x = np.array([0.5, -0.7])
        refined, crude = mixture_hessian_lower(m, x)
        actual = -log_hessian(m, x)
        for a, b in ((actual, refined), (refined, crude)):
            assert np.min(np.linalg.eigvalsh(a - b)) >= -1e-8


class TestSandwichProperty:
    def test_randomized_perturbed(self, rng):
        for _ in range(20):
            pm = random_perturbed(rng)
            t_star = log_concavity_time(pm.alpha, pm.lip)
            for t in (0.5 * t_star, t_star, 2.0 * t_star):
                lower, upper = thm2_envelope(pm.alpha, pm.lip, t)
                from logheat import mean_variance_1d

                mean, var = mean_variance_1d(pm)
                zs = mean + np.linspace(-6, 6, 41) * math.sqrt(var)
                for z in zs:
                    lam = log_hessian_heat(pm, [z], t)[0, 0]
                    assert lam >= lower - 1e-6
                    assert lam <= upper + 1e-9
