"""Flow-map construction, Lipschitz certification, theta envelopes, and the
reverse-diffusion sampler."""
import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from logheat import (
    CapabilityError,
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
from logheat.heatflow import marginal_stats_1d


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

    def test_nonfinite_stage_state_is_numerical(self, monkeypatch):
        # an infinite velocity at the midpoint stages of one RK4 step makes
        # the next stage's state infinite; the kernel rejects that state as
        # an input, and the flow map reports it as the blow-up on leg B
        real = transport.marginal_stats_1d
        t_mid = 0.2995649706  # a midpoint stage time of leg B at the defaults

        def stats_1d(measure, t, xs):
            if abs(t - t_mid) < 1e-9:
                return np.zeros_like(xs), np.full_like(xs, np.inf), np.zeros_like(xs)
            return real(measure, t, xs)

        monkeypatch.setattr(transport, "marginal_stats_1d", stats_1d)
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericalError, match=r"leg B, between t=0\.0001 and t=0\.5"):
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


def theta_rows_per_time(measure, times, space):
    """The earlier theta envelope: one OU marginal call per time, theta the
    log-Hessian of the dilated base smoothed to variance 1 - e^{-2t}, plus 1."""
    rows = np.array([marginal_stats_1d(measure, float(t), space)[2] + 1.0 for t in times])
    return rows.min(axis=1), rows.max(axis=1)


def theta_mpmath(pm, t, x):
    """theta(t, x) of a perturbed density in 60 digits: the closed-form
    variance of mu tilted by N(e^t x, tau), tau = e^{2t} - 1, on each panel
    of the potential alpha y^2/2 + b_p y + a_p."""
    with mpmath.workdps(60):
        t, x = mpmath.mpf(t), mpmath.mpf(x)
        tau = mpmath.expm1(2 * t)
        z = mpmath.exp(t) * x
        C = mpmath.mpf(pm.alpha) + 1 / tau
        sigma = 1 / mpmath.sqrt(C)
        s0 = s1 = s2 = mpmath.mpf(0)
        for lo, hi, a, b in zip(pm.panel_edges[:-1], pm.panel_edges[1:], pm.panel_a, pm.panel_b):
            B = z / tau - mpmath.mpf(b)
            m = B / C
            ends = [(mpmath.mpf(e) - m) / sigma if math.isfinite(e) else mpmath.mpf(e)
                    for e in (lo, hi)]
            pdf = [mpmath.npdf(u) for u in ends]
            upd = [u * p if mpmath.isfinite(u) else mpmath.mpf(0) for u, p in zip(ends, pdf)]
            if ends[0] + ends[1] > 0:  # in the upper tail Phi rounds to 1: reflect
                mass = mpmath.ncdf(-ends[0]) - mpmath.ncdf(-ends[1])
            else:
                mass = mpmath.ncdf(ends[1]) - mpmath.ncdf(ends[0])
            w = mpmath.exp(B * B / (2 * C) - mpmath.mpf(a)) * mass
            mean = m + sigma * (pdf[0] - pdf[1]) / mass
            var = sigma**2 * (1 + (upd[0] - upd[1]) / mass - ((pdf[0] - pdf[1]) / mass) ** 2)
            s0, s1, s2 = s0 + w, s1 + w * mean, s2 + w * (var + mean**2)
        var_tau = s2 / s0 - (s1 / s0) ** 2
        return float((var_tau / tau - 1) / -mpmath.expm1(-2 * t) + 1)


INTERIOR = make_perturbed(1, [-1, 1], [-0.5, 0, 0.5], [0, 2], [-1, 1, 0])
THETA_TARGETS = {
    "kink": KINK,
    "mix": MIX,
    "gauss-as-perturbed": make_perturbed(1.0),
    "interior": INTERIOR,
    "unequal-mix": make_gaussian_mixture([(0.3, [-1.0], 0.5), (0.7, [2.0], 1.5)]),
}


class TestThetaFromHeatTilts:
    @pytest.mark.parametrize("name", list(THETA_TARGETS))
    def test_matches_per_time_loop(self, name):
        # theta from heat tilts at e^t x against the per-time OU calls, to the
        # eps / (1 - e^{-2t}) conditioning both carry; 401 points per row, so
        # the 200 times span 20 tilt calls
        measure = THETA_TARGETS[name]
        u = np.linspace(1e-3, math.sqrt(6.0), 200)
        times, space = u * u, np.linspace(-9.0, 9.0, 401)
        env = theta_envelope(measure, time_grid=times, space_grid=space)
        lo, hi = theta_rows_per_time(measure, times, space)
        tol = 1e-12 / -np.expm1(-2.0 * times)
        assert np.all(np.abs(env.theta_min - lo) <= tol)
        assert np.all(np.abs(env.theta_max - hi) <= tol)

    def test_one_time_per_tilt_call(self):
        # a space grid longer than a tilt block takes one call per time row
        times, space = np.array([0.1, 0.5, 2.0]), np.linspace(-4.0, 4.0, 5001)
        env = theta_envelope(MIX, time_grid=times, space_grid=space)
        lo, hi = theta_rows_per_time(MIX, times, space)
        np.testing.assert_allclose(env.theta_max, hi, rtol=0, atol=1e-11)
        np.testing.assert_allclose(env.theta_min, lo, rtol=0, atol=1e-11)

    def test_small_time_against_mpmath(self):
        # at t = 1e-4 theta carries the eps / (2t) conditioning of
        # (Var/tau - 1) / (1 - e^{-2t}); on this grid the per-time OU path
        # is off by up to 2.0e-9 pointwise and the heat tilts by 1.7e-9 at the max
        t, space = 1e-4, np.linspace(-9.0, 9.0, 401)
        exact = np.array([theta_mpmath(INTERIOR, t, x) for x in space])
        env = theta_envelope(INTERIOR, time_grid=[t], space_grid=space)
        assert abs(env.theta_max[0] - exact.max()) <= 3e-9
        assert abs(env.theta_min[0] - exact.min()) <= 3e-9

    @pytest.mark.parametrize("measure", [MIX, KINK], ids=["mix", "kink"])
    @pytest.mark.parametrize("times, space, error", [
        ([0.0, 1.0], None, ValidationError),
        ([-1.0], None, ValidationError),
        ([0.5, math.nan], None, ValidationError),
        ([0.5, math.inf], None, ValidationError),
        ([0.5], [0.0, math.nan], ValidationError),
        ([0.5], [-math.inf, 0.0], ValidationError),
    ])
    def test_invalid_input(self, measure, times, space, error):
        space = np.linspace(-3.0, 3.0, 7) if space is None else space
        with pytest.raises(error):
            theta_envelope(measure, time_grid=times, space_grid=space)

    def test_two_dimensional_measure(self):
        with pytest.raises(CapabilityError):
            theta_envelope(standard_gaussian(2), n_times=5)
        with pytest.raises(ValidationError):
            theta_envelope(standard_gaussian(2), time_grid=[0.5],
                           space_grid=np.linspace(-3.0, 3.0, 7))

    @pytest.mark.parametrize("measure", [MIX, KINK], ids=["mix", "kink"])
    @pytest.mark.parametrize("t_bad", [360.0, 800.0])
    def test_time_beyond_overflow_named(self, measure, t_bad):
        # e^{2t} x^2 must stay finite: t up to about 354.9 - log max(1, |x|)
        space = np.linspace(-3.0, 3.0, 7)
        with pytest.raises(ValidationError, match=f"t={t_bad}"):
            theta_envelope(measure, time_grid=[0.5, t_bad], space_grid=space)
        env = theta_envelope(measure, time_grid=[0.5, 350.0], space_grid=space)
        assert np.all(np.abs(env.theta_max[1:]) < 1e-12)


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
