"""Flow-map construction, Lipschitz certification, theta envelopes, and the
reverse-diffusion sampler."""
import math

import numpy as np
import pytest
from scipy import stats

from logheat import (
    NumericalError,
    PerturbationParams,
    ValidationError,
    build_flow_map,
    cdf_1d,
    dilate,
    empirical_lipschitz,
    make_gaussian_mixture,
    make_perturbed,
    pushforward_validate,
    reverse_sde_sample,
    sample,
    standard_gaussian,
    theta_envelope,
    transport_constants,
    velocity_field,
)
from logheat import transport


def gaussian_1d(mean=0.0, var=1.0):
    return make_gaussian_mixture([(1.0, [mean], var)])


class TestVelocityField:
    def test_zero_for_standard_gaussian(self):
        g = standard_gaussian(1)
        for t in (0.1, 1.0, 3.0):
            v = velocity_field(g, t, np.array([0.7]))
            assert abs(float(v[0])) < 1e-10

    def test_affine_for_shifted_gaussian(self):
        # target N(m, 1): OU marginal N(m e^{-t}, 1), score = -(x - m e^{-t}),
        # so v = -(score + x) = -m e^{-t}  [DERIVED]
        m = 2.0
        g = gaussian_1d(mean=m)
        for t in (0.2, 1.0):
            v = velocity_field(g, t, np.array([0.3]))
            assert float(v[0]) == pytest.approx(-m * math.exp(-t), abs=1e-10)


class TestBuildFlowMap:
    def test_identity_on_gaussian(self):
        flow = build_flow_map(standard_gaussian(1), n_points=65)
        assert np.max(np.abs(flow.images - flow.inputs)) < 1e-6
        lip = empirical_lipschitz(flow)
        assert lip.value == pytest.approx(1.0, abs=1e-5)

    def test_translation(self):
        m = 1.5
        flow = build_flow_map(gaussian_1d(mean=m), n_points=65)
        assert np.max(np.abs(flow.images - (flow.inputs + m))) < 1e-5

    def test_dilation(self):
        s = 2.0
        flow = build_flow_map(gaussian_1d(var=s * s), n_points=65)
        assert np.max(np.abs(flow.images - s * flow.inputs)) < 1e-5
        assert float(empirical_lipschitz(flow)) == pytest.approx(s, abs=1e-4)

    def test_monotone_images(self):
        g = make_gaussian_mixture([(0.5, [-1.5], 1.0), (0.5, [1.5], 1.0)])
        flow = build_flow_map(g, n_points=129)
        assert np.all(np.diff(flow.images) >= 0)

    def test_matches_quantile_transform(self):
        # the gamma-to-target flow map is the increasing rearrangement
        # T = F_target^{-1} o Phi; compare against the scipy.stats oracle
        # for a two-component mixture  [DERIVED]
        g = make_gaussian_mixture([(0.3, [-1.0], 0.5), (0.7, [2.0], 1.0)])
        flow = build_flow_map(g, n_points=129)
        u = stats.norm.cdf(flow.inputs)
        # invert the mixture CDF by bisection on the oracle CDF
        mix_cdf = lambda y: 0.3 * stats.norm.cdf(
            y, -1.0, math.sqrt(0.5)
        ) + 0.7 * stats.norm.cdf(y, 2.0, 1.0)
        for x, y in zip(flow.inputs[::8], flow.images[::8]):
            assert mix_cdf(y) == pytest.approx(stats.norm.cdf(x), abs=2e-5)

    def test_custom_inputs(self):
        xs = np.linspace(-2, 2, 9)
        flow = build_flow_map(standard_gaussian(1), inputs=xs)
        assert np.allclose(flow.inputs, xs)
        assert np.max(np.abs(flow.images - xs)) < 1e-6

    def test_extrapolation_linear(self):
        flow = build_flow_map(gaussian_1d(var=4.0), n_points=65)
        left = float(flow(flow.inputs[0] - 1.0))
        expect = flow.images[0] - (flow.images[1] - flow.images[0]) / (
            flow.inputs[1] - flow.inputs[0]
        )
        assert left == pytest.approx(expect, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            build_flow_map(standard_gaussian(2))
        with pytest.raises(ValidationError):
            build_flow_map(standard_gaussian(1), inputs=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValidationError):
            build_flow_map(standard_gaussian(1), t_min=0.6, t_split=0.5)

    @pytest.mark.parametrize("t_max", [800.0, math.inf])
    def test_horizon_beyond_underflow_rejected(self, t_max):
        # the long-time leg starts at u = e^{-t_max}, which must not be 0
        with pytest.raises(ValidationError, match="t_max"):
            build_flow_map(standard_gaussian(1), n_points=9, t_max=t_max)

    @pytest.mark.parametrize("t_bad, pattern", [
        (math.inf, r"leg A, between t=0\.5 and t=9\.90349"),  # inf from the first call
        (0.3, r"leg B, between t=0\.0001 and t=0\.5"),
    ])
    def test_blowup_names_leg_in_t(self, monkeypatch, t_bad, pattern):
        # the legs integrate in u = e^{-t} and tau = e^{2t} - 1; the error
        # names the time t, not the integration variable
        real = transport.marginal_stats_1d

        def stats_1d(measure, t, xs):
            if t < t_bad:
                return np.zeros_like(xs), np.full_like(xs, np.inf), np.zeros_like(xs)
            return real(measure, t, xs)

        monkeypatch.setattr(transport, "marginal_stats_1d", stats_1d)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=pattern):
            build_flow_map(standard_gaussian(1), n_points=9)


def quantile_map(measure, xs):
    """The exact flow map F^-1(Phi(x)): 110 bisection steps on cdf_1d over
    [-64, 64] reach one ulp."""
    u = stats.norm.cdf(xs)
    lo, hi = np.full(xs.shape, -64.0), np.full(xs.shape, 64.0)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        above = cdf_1d(measure, mid) >= u
        hi, lo = np.where(above, mid, hi), np.where(above, lo, mid)
    return 0.5 * (lo + hi)


KINK = make_perturbed(1.0, [], [0.0], [0.0], [-1.0, 1.0])
MIX = make_gaussian_mixture([(0.5, [-2.0], 1.0), (0.5, [2.0], 1.0)])


class TestFlowMapAccuracy:
    # max error against quantile_map on the 257 default inputs when leg A
    # still ran in plain t; the kink's error lives near t -> 0 and falls
    # linearly in the step count, the mixture sits at the ~1.3e-8 floor of
    # the Richardson leg
    REFERENCE = {
        ("kink", 25): 1.6907e-3, ("kink", 100): 2.3058e-4, ("kink", 400): 1.2132e-5,
        ("mix", 25): 4.8707e-8, ("mix", 100): 1.3123e-8, ("mix", 400): 1.2982e-8,
    }

    @pytest.mark.parametrize("name, steps", list(REFERENCE))
    def test_error_against_quantile_map(self, name, steps):
        measure = {"kink": KINK, "mix": MIX}[name]
        flow = build_flow_map(measure, steps_per_unit=steps)
        err = float(np.max(np.abs(flow.images - quantile_map(measure, flow.inputs))))
        assert err <= 1.05 * self.REFERENCE[name, steps]

    def test_far_shifted_gaussian(self):
        # N(40, 1) starts from a later horizon than N(0, 1), but the long-time
        # leg's step count follows the range of u = e^{-t}, not of t
        near = build_flow_map(standard_gaussian(1), n_points=65)
        far = build_flow_map(gaussian_1d(mean=40.0), n_points=65)
        assert np.max(np.abs(far.images - (far.inputs + 40.0))) < 1e-5
        assert far.t_max > near.t_max + 2.0
        assert near.velocity_evals == far.velocity_evals
        assert build_flow_map(KINK, steps_per_unit=25).velocity_evals <= 400


class TestPushforward:
    def test_gaussian_target(self):
        flow = build_flow_map(gaussian_1d(mean=1.0, var=0.25), n_points=129)
        rep = pushforward_validate(flow, gaussian_1d(mean=1.0, var=0.25))
        assert rep.ks_stat < 0.02
        assert rep.mean_error < 0.02
        assert rep.var_error < 0.02

    def test_mixture_target(self):
        g = make_gaussian_mixture([(0.5, [-2.0], 1.0), (0.5, [2.0], 1.0)])
        flow = build_flow_map(g, n_points=257)
        rep = pushforward_validate(flow, g)
        assert rep.ks_stat < 0.02


class TestThetaEnvelope:
    def test_gaussian_theta_zero(self):
        env = theta_envelope(standard_gaussian(1), n_times=100)
        assert np.max(np.abs(env.theta_max)) < 1e-10
        assert abs(env.integral_theta_max) < 1e-9

    def test_dilation_integral_log_sigma(self):
        # N(0, sigma^2): theta(t) = (sigma^2-1) e^{-2t} / (1 + (sigma^2-1)e^{-2t}),
        # integral over (0, inf) = log sigma  [DERIVED]
        sigma = 2.0
        env = theta_envelope(gaussian_1d(var=sigma * sigma))
        assert env.integral_theta_max == pytest.approx(math.log(sigma), abs=1e-5)
        assert np.all(env.theta_min <= env.theta_max + 1e-15)

    def test_contraction_negative_theta(self):
        env = theta_envelope(gaussian_1d(var=0.25), n_times=200)
        assert np.all(env.theta_max <= 1e-12)
        assert env.integral_theta_max == pytest.approx(math.log(0.5), abs=1e-4)

    def test_user_time_grid(self):
        sigma = 2.0
        times = np.linspace(1e-4, 10.0, 4001)
        env = theta_envelope(gaussian_1d(var=sigma * sigma), time_grid=times)
        assert env.times.size == times.size
        assert env.integral_theta_max == pytest.approx(math.log(sigma), abs=1e-3)

    def test_log_concave_target_nonpositive(self):
        # 1-log-concave targets stay 1-log-concave along the flow
        pm = make_perturbed(1.0, [], [0.0], [0.0], [-1.0, 1.0])
        env = theta_envelope(pm, n_times=60)
        # quadrature noise from the potential kink dominates below t ~ 1e-4
        assert np.all(env.theta_max <= 1e-3)
        assert np.all(env.theta_max[env.times > 1e-3] <= 1e-8)


class TestCertificationChain:
    def test_empirical_below_integral_below_closed_form(self):
        # perturbed target with alpha = 1, lip = 0.8: the measured slope is
        # bounded by exp(integral theta_max), itself below the closed-form
        # transport constant
        pm = make_perturbed(1.0, [], [0.0], [0.0], [0.8, -0.8])
        flow = build_flow_map(pm, n_points=129)
        lip = float(empirical_lipschitz(flow))
        env = theta_envelope(pm)
        closed = transport_constants(PerturbationParams(alpha=1.0, lip=0.8))["thm3"]
        assert lip <= math.exp(env.integral_theta_max) * 1.02
        assert math.exp(env.integral_theta_max) <= closed * 1.05


class TestReverseSde:
    def test_gaussian_invariance(self):
        g = standard_gaussian(1)
        ys = reverse_sde_sample(g, 4000, 200, 2.0, seed=3)
        assert ys.shape == (4000, 1)
        ks = stats.kstest(ys[:, 0], stats.norm.cdf).statistic
        assert ks < 0.03

    def test_shifted_gaussian(self):
        g = gaussian_1d(mean=3.0, var=0.5)
        ys = reverse_sde_sample(g, 4000, 200, 2.0, seed=5)[:, 0]
        assert np.mean(ys) == pytest.approx(3.0, abs=0.05)
        assert np.var(ys) == pytest.approx(0.5, abs=0.06)

    def test_bimodal_ks(self):
        g = make_gaussian_mixture([(0.5, [-2.0], 1.0), (0.5, [2.0], 1.0)])
        ys = reverse_sde_sample(g, 5000, 200, 3.0, seed=7)[:, 0]
        ks = stats.kstest(np.sort(ys), lambda y: cdf_1d(g, y)).statistic
        assert ks < 0.04

    def test_step_refinement_improves(self):
        g = make_gaussian_mixture([(0.5, [-2.0], 1.0), (0.5, [2.0], 1.0)])
        errs = []
        for steps in (25, 200):
            ys = reverse_sde_sample(g, 5000, steps, 3.0, seed=11)[:, 0]
            errs.append(stats.kstest(np.sort(ys), lambda y: cdf_1d(g, y)).statistic)
        assert errs[1] < errs[0]

    def test_dim2_product(self):
        g = standard_gaussian(2)
        ys = reverse_sde_sample(g, 300, 60, 1.5, seed=13)
        assert ys.shape == (300, 2)
        assert np.max(np.abs(np.mean(ys, axis=0))) < 0.2

    def test_validation(self):
        with pytest.raises(ValidationError):
            reverse_sde_sample(standard_gaussian(1), 10, 10, 0.0)
        with pytest.raises(ValidationError):
            reverse_sde_sample(standard_gaussian(1), 0, 10, 1.0)
