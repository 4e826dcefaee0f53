"""Flow-map construction, Lipschitz certification, theta envelopes, and the
reverse-diffusion sampler."""
import math
import warnings

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
    log_density,
    make_gaussian_mixture,
    make_perturbed,
    ou_log_derivatives,
    pushforward_validate,
    reverse_sde_sample,
    sample,
    standard_gaussian,
    theta_envelope,
    transport_constants,
)
from logheat import transport
from logheat.heatflow import marginal_stats_1d

from oracles import panel_theta, quantile_map


def gaussian_1d(mean=0.0, var=1.0):
    return make_gaussian_mixture([(1.0, [mean], var)])


def velocity(measure, t, x):
    """v(t, x) = -(score of the OU marginal at x + x): the negated gradient of
    log Q_t(d mu / d gamma)."""
    return -ou_log_derivatives(measure, t, x)[1]


def record_stage_times(monkeypatch):
    """The OU times of the flow map's velocity batches, appended as they run."""
    real, times = transport.marginal_stats_1d, []

    def stats_1d(measure, t, xs):
        times.append(t)
        return real(measure, t, xs)

    monkeypatch.setattr(transport, "marginal_stats_1d", stats_1d)
    return times


class TestVelocityField:
    def test_zero_for_standard_gaussian(self):
        g = standard_gaussian(1)
        for t in (0.1, 1.0, 3.0):
            v = velocity(g, t, np.array([0.7]))
            assert abs(float(v[0])) < 1e-10

    def test_affine_for_shifted_gaussian(self):
        # target N(m, 1): OU marginal N(m e^{-t}, 1), score = -(x - m e^{-t}),
        # so v = -(score + x) = -m e^{-t}  [DERIVED]
        m = 2.0
        g = gaussian_1d(mean=m)
        for t in (0.2, 1.0):
            v = velocity(g, t, np.array([0.3]))
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
            build_flow_map(standard_gaussian(1), steps_per_unit=0)

    @pytest.mark.parametrize("kwargs, pattern", [
        ({"inputs": [0.0, math.nan, 1.0]}, "finite, strictly increasing"),
        ({"inputs": [-math.inf, 0.0]}, "finite, strictly increasing"),
        ({"inputs": [[0.0, 1.0], [2.0, 3.0]]}, r"shape \(2, 2\)"),
        ({"inputs": [0.5]}, "at least 2 points"),
        ({"n_points": 0}, "n_points >= 2"),
        ({"n_points": 1}, "n_points >= 2"),
        ({"n_points": 2.5}, "need integer n_points"),
        ({"steps_per_unit": 0}, "steps_per_unit >= 1"),
        ({"steps_per_unit": -5}, "steps_per_unit >= 1"),
        ({"steps_per_unit": math.nan}, "need integer n_points, steps_per_unit"),
    ], ids=["nan-input", "inf-input", "2d-inputs", "one-input", "n0", "n1", "n-fraction",
            "spu0", "spu-5", "spu-nan"])
    def test_bad_arguments(self, kwargs, pattern):
        with pytest.raises(ValidationError, match=pattern):
            build_flow_map(KINK, **kwargs)

    @pytest.mark.parametrize("steps", [1, 25])
    def test_stage_times_bounded(self, monkeypatch, steps):
        # no horizon: the first stage is the midpoint of the first psi step, at
        # t = -log cos(3 atan((sqrt(3) - h/2) / 3)) ~ -log sin(3h/8), h = sqrt(3) / N
        times = record_stage_times(monkeypatch)
        build_flow_map(KINK, n_points=9, steps_per_unit=steps)
        n = math.ceil(math.sqrt(3.0) * steps) + 20
        h = math.sqrt(3.0) / n
        theta = 3.0 * math.atan((math.sqrt(3.0) - 0.5 * h) / 3.0)
        assert max(times) == times[0] == pytest.approx(-math.log(math.cos(theta)), rel=1e-12)
        assert max(times) < -math.log(math.sin(3.0 * h / 8.0))
        assert max(times) < {1: 3.52, 25: 4.60}[steps]

    @pytest.mark.parametrize("steps", [1, 2, 7, 25, 100])
    def test_far_kink_builds_at_any_steps_per_unit(self, steps):
        # e^{-x^2/2 + 40x - |x - 40|}: the kink sits at the mode, 40 from 0; no
        # horizon or start depends on the target, so every step count builds,
        # and the error falls with it (3.4e-4 at 1 step per unit, 3.1e-7 at 100)
        far = make_perturbed(1.0, [], [-40.0], [40.0], [-1.0, 1.0])
        err = flow_error(far, steps_per_unit=steps)
        assert err <= {1: 3.5e-4, 2: 2.6e-4, 7: 8.4e-5, 25: 1.15e-5, 100: 3.3e-7}[steps]

    @pytest.mark.parametrize("m", [0.0, 40.0, 1e3], ids=["m0", "m40", "m1000"])
    def test_shifted_gaussian_translates(self, m):
        # N(m, 1): the velocity is -m e^{-t}, so T(x) = x + m; the right-hand
        # side in psi is exact at both ends  [DERIVED]
        flow = build_flow_map(gaussian_1d(mean=m))
        assert np.max(np.abs(flow.images - (flow.inputs + m))) <= 1e-11 * max(m, 1.0)

    @pytest.mark.parametrize("t_bad, pattern", [
        (math.inf, r"^flow map state blew up between t=5\.00495 and t=inf$"),  # first step
        (0.3, r"^flow map state blew up between t=0\.298542 and t=0\.306196$"),
    ], ids=["first-step", "mid-leg"])
    def test_blowup_names_step_in_t(self, monkeypatch, t_bad, pattern):
        # the leg integrates in psi = 3 tan(theta / 3); the error names the failing
        # step's bracket in the time t, not in psi
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
        # an input, and the flow map reports it as the blow-up in that step, in t
        real = transport.marginal_stats_1d
        t_mid = 0.3023543357  # the midpoint stage time of step 110 of 194 at the defaults

        def stats_1d(measure, t, xs):
            if abs(t - t_mid) < 1e-9:
                return np.zeros_like(xs), np.full_like(xs, np.inf), np.zeros_like(xs)
            return real(measure, t, xs)

        monkeypatch.setattr(transport, "marginal_stats_1d", stats_1d)
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericalError, match=r"between t=0\.298542 and t=0\.306196$") as err:
            build_flow_map(standard_gaussian(1), n_points=9)
        assert str(err.value.__cause__).startswith("ODE state blew up near s=0.7499")  # in psi


KINK = make_perturbed(1.0, [], [0.0], [0.0], [-1.0, 1.0])
SHARP = make_perturbed(1.0, [], [0.0], [0.0], [0.8, -0.8])
MIX = make_gaussian_mixture([(0.5, [-2.0], 1.0), (0.5, [2.0], 1.0)])
INTERIOR_ARGS = (1, [-1, 1], [-0.5, 0, 0.5], [0, 2], [-1, 1, 0])
INTERIOR = make_perturbed(*INTERIOR_ARGS)


def flow_error(measure, **kwargs):
    """Max error of the flow map against quantile_map on the 257 default inputs."""
    flow = build_flow_map(measure, **kwargs)
    exact = quantile_map(lambda y: cdf_1d(measure, y), flow.inputs)
    return float(np.max(np.abs(flow.images - exact)))


class TestFlowMapAccuracy:
    # max error against quantile_map on the 257 default inputs when leg A
    # still ran in plain t and legs B/C in tau = e^{2t} - 1 with t_min = 1e-4;
    # the kink's error lived near t -> 0 and fell linearly in the step count,
    # the mixture sat at the ~1.3e-8 floor of the Richardson leg
    REFERENCE = {
        ("kink", 25): 1.6907e-3, ("kink", 100): 2.3058e-4, ("kink", 400): 1.2132e-5,
        ("mix", 25): 4.8707e-8, ("mix", 100): 1.3123e-8, ("mix", 400): 1.2982e-8,
    }
    # the same errors with legs B/C in sigma = sqrt(tau) and t_min = 1e-6: the
    # kink's error falls 28-fold from 25 to 100 steps per unit, not 7-fold
    SIGMA_REFERENCE = {
        ("kink", 25): 1.4891e-5, ("kink", 100): 5.3556e-7,
        ("mix", 25): 3.8602e-8, ("mix", 100): 1.7663e-9,
    }
    # the same errors with one leg in psi = 3 tan(theta / 3), theta = arccos e^{-t}
    PSI_REFERENCE = {
        ("kink", 25): 7.8031e-6, ("kink", 100): 3.5672e-7,
        ("mix", 25): 3.0223e-8, ("mix", 100): 3.6271e-10,
    }
    # the errors at the defaults before legs B/C moved to sigma (400 steps per
    # unit, t_min = 1e-4, 3788 velocity batches)
    OLD_DEFAULT = {
        "kink": (KINK, 1.21e-5),
        "mix": (MIX, 1.30e-8),
        "sharp": (make_perturbed(1.0, [], [0.0], [0.0], [1.0, -1.0]), 6.96e-6),
        "chain": (make_perturbed(1.0, [], [0.0], [0.0], [0.8, -0.8]), 9.37e-6),
        "interior": (INTERIOR, 1.24e-5),
        "N(0,4)": (gaussian_1d(var=4.0), 1.25e-8),
        "N(40,1)": (gaussian_1d(mean=40.0), 1.00e-7),
        "unequal-mix": (make_gaussian_mixture([(0.3, [-1.0], 0.5), (0.7, [2.0], 1.0)]),
                        1.73e-8),
        "kink-alpha50": (make_perturbed(50.0, [], [0.0], [0.0], [-1.0, 1.0]), 1.28e-5),
        "kink-alpha0.05": (make_perturbed(0.05, [], [0.0], [0.0], [-1.0, 1.0]), 1.12e-5),
    }

    @pytest.mark.parametrize("name, steps", list(REFERENCE))
    def test_error_against_quantile_map(self, name, steps):
        measure = {"kink": KINK, "mix": MIX}[name]
        assert flow_error(measure, steps_per_unit=steps) <= 1.05 * self.REFERENCE[name, steps]

    @pytest.mark.parametrize("name, steps", list(SIGMA_REFERENCE))
    def test_sigma_leg_error(self, name, steps):
        measure = {"kink": KINK, "mix": MIX}[name]
        assert flow_error(measure, steps_per_unit=steps) <= 1.05 * self.SIGMA_REFERENCE[name, steps]

    @pytest.mark.parametrize("name, steps", list(PSI_REFERENCE))
    def test_psi_leg_error(self, name, steps):
        measure = {"kink": KINK, "mix": MIX}[name]
        assert flow_error(measure, steps_per_unit=steps) <= 1.05 * self.PSI_REFERENCE[name, steps]

    @pytest.mark.parametrize("name", list(OLD_DEFAULT))
    def test_defaults_beat_old_defaults(self, name):
        measure, old = self.OLD_DEFAULT[name]
        assert flow_error(measure) <= old

    @pytest.mark.parametrize("measure", [KINK, MIX, INTERIOR, gaussian_1d(mean=40.0)],
                             ids=["kink", "mix", "interior", "N(40,1)"])
    def test_velocity_batch_counts(self, measure):
        # 4 RK4 stages per step, N = ceil(sqrt(3) steps_per_unit) + 20 steps (64 and
        # 194), less the closed-form first and last stages; the same for every target
        assert build_flow_map(measure, n_points=9, steps_per_unit=25).velocity_evals == 254
        assert build_flow_map(measure, n_points=9).velocity_evals == 774

    def test_narrow_components_warning_free(self, monkeypatch):
        # variances 1e-3 and 2e-3 give the largest velocity slopes at the last
        # stage, the midpoint of the last psi step, t = 9.96e-6 (the end, t = 0,
        # is a closed form); none of its batches may warn
        narrow = make_gaussian_mixture([(0.5, [-1.0], 1e-3), (0.5, [1.0], 2e-3)])
        times = record_stage_times(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            flow = build_flow_map(narrow)
        assert min(times) == times[-1] == pytest.approx(9.963882770e-6, rel=1e-9)
        assert np.all(np.isfinite(flow.images)) and np.all(np.diff(flow.images) >= 0)

    def test_far_shifted_gaussian(self):
        # N(40, 1) takes as many velocity batches as N(0, 1): neither the step
        # count nor the range of t depends on the target's moments
        near = build_flow_map(standard_gaussian(1), n_points=65)
        far = build_flow_map(gaussian_1d(mean=40.0), n_points=65)
        assert np.max(np.abs(far.images - (far.inputs + 40.0))) < 1e-5
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


@pytest.mark.parametrize("call, pattern", [
    (lambda: sample(MIX, 2.5), "need integer n, seed: 2.5, 0"),
    (lambda: sample(MIX, 3, seed=2.5), "need integer n, seed: 3, 2.5"),
    (lambda: pushforward_validate(build_flow_map(MIX, n_points=9), MIX, n_samples=100.5),
     "need integer n_samples, seed: 100.5, 0"),
    (lambda: pushforward_validate(build_flow_map(MIX, n_points=9), MIX, seed=2.5),
     "need integer n_samples, seed"),
    (lambda: theta_envelope(MIX, space_grid=[]), "space_grid is empty"),
    (lambda: theta_envelope(MIX, time_grid=[2.0, 0.5]), r"strictly increasing .*shape \(2,\)"),
    (lambda: theta_envelope(MIX, time_grid=[]), r"non-empty.*shape \(0,\)"),
    (lambda: theta_envelope(MIX, time_grid=[[0.5, 1.0]]), r"1D array, got shape \(1, 2\)"),
], ids=["sample-n", "sample-seed", "push-n", "push-seed", "theta-space", "theta-time-order",
        "theta-time-empty", "theta-time-2d"])
def test_argument_errors_are_validation(call, pattern):
    # each was a raw TypeError, IndexError or ValueError from numpy or math, or (a
    # decreasing or empty time grid) a silently sign-flipped or zero integral
    with pytest.raises(ValidationError, match=pattern):
        call()


class TestThetaEnvelope:
    def test_gaussian_theta_zero(self):
        env = theta_envelope(standard_gaussian(1))
        assert np.max(np.abs(env.theta_max)) < 1e-10
        assert abs(env.integral_theta_max) < 1e-9

    def test_dilation_integral_log_sigma(self):
        # N(0, sigma^2): theta(t) = (sigma^2-1) e^{-2t} / (1 + (sigma^2-1)e^{-2t}),
        # integral over (0, inf) = log sigma  [DERIVED]
        for sigma in (0.1, 0.5, 2.0, 10.0):
            env = theta_envelope(gaussian_1d(var=sigma * sigma))
            assert abs(env.integral_theta_max - math.log(sigma)) <= 1e-12
            assert np.all(env.theta_min <= env.theta_max + 1e-15)

    def test_contraction_negative_theta(self):
        env = theta_envelope(gaussian_1d(var=0.25))
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
        env = theta_envelope(pm)
        # quadrature noise from the potential kink dominates below t ~ 1e-4
        assert np.all(env.theta_max <= 1e-3)
        assert np.all(env.theta_max[env.times > 1e-3] <= 1e-8)

    @pytest.mark.parametrize("measure", [SHARP, KINK], ids=["sharp", "kink"])
    def test_slope_at_origin(self, measure):
        # both targets are even, so T(0) = 0 and the flow keeps x = 0 fixed: theta
        # integrates along it to log T'(0) = log(phi(0) / p(0))  [DERIVED]
        env = theta_envelope(measure, space_grid=[0.0])
        exact = math.exp(-0.5 * math.log(2.0 * math.pi) - log_density(measure, [[0.0]])[0])
        assert math.exp(env.integral_theta_max) == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("measure", [KINK, MIX, SHARP], ids=["kink", "mix", "sharp"])
    def test_default_rule_matches_128_nodes(self, measure):
        # the same psi integral by a 128-node Gauss-Legendre rule, formed here
        nodes, weights = np.polynomial.legendre.leggauss(128)
        psi = 0.5 * math.sqrt(3.0) * (nodes + 1.0)
        times, sigma = np.array([transport._ou_time(p) for p in psi]).T
        fine = theta_envelope(measure, time_grid=times)
        reference = 0.5 * math.sqrt(3.0) * weights @ (fine.theta_max * sigma / (1 + psi**2 / 9))
        assert abs(theta_envelope(measure).integral_theta_max - reference) <= 1e-12


def theta_rows_per_time(measure, times, space):
    """The earlier theta envelope: one OU marginal call per time, theta the
    log-Hessian of the dilated base smoothed to variance 1 - e^{-2t}, plus 1."""
    rows = np.array([marginal_stats_1d(measure, float(t), space)[2] + 1.0 for t in times])
    return rows.min(axis=1), rows.max(axis=1)


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
        exact = np.array([panel_theta(INTERIOR_ARGS, t, x) for x in space])
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
            theta_envelope(standard_gaussian(2))
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
    # Sharp(alpha, L): V = alpha x^2/2, H = L|x|; the exact map's slope at 0 is
    # T'(0) = 2 Phi(L/sqrt(alpha)) e^{L^2/(2 alpha)} / sqrt(alpha)
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("lip", [0.0, 0.8, 2.0, 3.0, 5.0])
    def test_empirical_below_integral_below_closed_form(self, lip, alpha):
        # the measured slope is bounded by exp(integral theta_max), itself
        # below the closed-form transport constant
        pm = make_perturbed(alpha, [], [0.0], [0.0], [lip, -lip])
        flow = build_flow_map(pm, n_points=129)
        lip_est = float(empirical_lipschitz(flow))
        env = theta_envelope(pm)
        closed = transport_constants(PerturbationParams(alpha=alpha, lip=lip))["thm3"]
        assert lip_est <= math.exp(env.integral_theta_max) * 1.02
        assert math.exp(env.integral_theta_max) <= closed * 1.05
        a = lip / math.sqrt(alpha)
        slope0 = 2.0 * stats.norm.cdf(a) * math.exp(0.5 * a * a) / math.sqrt(alpha)
        assert math.exp(env.integral_theta_max) == pytest.approx(slope0, rel=1e-12, abs=0)
        # Theorem 3 exceeds T'(0) by exactly e^{2L/sqrt(alpha)} / (2 Phi(L/sqrt(alpha)))
        gap = math.exp(2.0 * a) / (2.0 * stats.norm.cdf(a))
        assert closed / slope0 == pytest.approx(gap, rel=1e-15, abs=0)


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

    @pytest.mark.parametrize("t1", [math.inf, 800.0, math.nan])
    def test_horizon_out_of_range_names_t1(self, t1):
        # e^{-t1} underflows to 0 from t1 = 745.1332191019412 on
        with pytest.raises(ValidationError, match=(
                rf"need 0 < t1 <= 745\.1332191019411 \(e\^\(-t1\) > 0\), got t1={t1!r}")):
            reverse_sde_sample(standard_gaussian(1), 10, 5, t1)

    @pytest.mark.parametrize("measure, t1", [(KINK, 356.0), (standard_gaussian(1), 400.0),
                                             (standard_gaussian(1), 745.0)])
    def test_horizon_beyond_float_range_names_t1(self, measure, t1):
        # e^{-t1} > 0, but scaling the target by it leaves the float range; the
        # error names t1 and chains the dilation's own message
        with pytest.raises(ValidationError, match=rf"horizon t1={t1!r} is too long") as err:
            reverse_sde_sample(measure, 10, 5, t1)
        assert str(err.value.__cause__).startswith("dilation by")

    def test_long_horizon_in_range(self):
        ys = reverse_sde_sample(KINK, 10, 5, 354.0)
        assert ys.shape == (10, 1) and np.all(np.isfinite(ys))

    @pytest.mark.parametrize("n, steps, seed", [(2.5, 5, 0), (10, 2.5, 0), (10, 5, 2.5)])
    def test_non_integer_counts(self, n, steps, seed):
        with pytest.raises(ValidationError,
                           match=rf"need integer n, steps, seed: {n!r}, {steps!r}, {seed!r}"):
            reverse_sde_sample(standard_gaussian(1), n, steps, 1.0, seed=seed)

    def test_blowup_names_time_and_samples(self, monkeypatch):
        # an infinite score at the third step sends samples 2 and 5 to inf; the
        # message gives that step's OU time and the first bad sample's last value
        real, calls = transport.marginal_stats_1d, []

        def stats_1d(measure, t, xs):
            calls.append((t, xs.copy()))
            out = real(measure, t, xs)
            if len(calls) == 3:
                out[1][[2, 5]] = np.inf
            return out

        monkeypatch.setattr(transport, "marginal_stats_1d", stats_1d)
        with pytest.raises(NumericalError) as err:
            reverse_sde_sample(standard_gaussian(1), 7, 5, 1.0, seed=4)
        s, y = calls[-1]
        assert len(calls) == 3 and s == pytest.approx(0.6)
        assert str(err.value) == (
            f"reverse diffusion blew up at step 3 (OU time s={s!r}): 2 of 7 samples "
            f"non-finite, the first at index 2 from [{float(y[2])!r}]")
