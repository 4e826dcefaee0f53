"""Heat-flow transport maps, their Lipschitz certification, and the
reverse-time diffusion sampler.

The flow map from the standard Gaussian to a 1D target is built by
integrating the velocity field v(t, x) = -(score of the OU marginal + x)
backward from a horizon set by a moment bound on W2 down to 0.  An exact
affine start matching the OU marginal's mean and standard deviation absorbs
the truncation and leaves v = O(e^{-t}), so the long-time leg runs in
u = e^{-t}; the short-time leg uses tau = e^{2t} - 1, where v varies fastest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures as ms
from .errors import NumericalError, ValidationError
from .heatflow import _tilt, marginal_stats_1d, ou_log_derivatives
from .numerics import rk4

__all__ = [
    "FlowMap",
    "ThetaEnvelope",
    "LipschitzEstimate",
    "PushforwardReport",
    "velocity_field",
    "build_flow_map",
    "empirical_lipschitz",
    "pushforward_validate",
    "theta_envelope",
    "reverse_sde_sample",
]


_TILT_BLOCK = 4096  # points per _tilt call in theta_envelope: small temporaries, few calls


@dataclass(frozen=True)
class FlowMap:
    """Discretized transport map from gamma to a 1D target."""

    t_max: float
    t_min: float
    inputs: np.ndarray
    images: np.ndarray
    steps_per_unit: int
    velocity_evals: int  # velocity batches evaluated, one per RK4 stage

    def __call__(self, x):
        """Piecewise-linear interpolation with end-slope extrapolation."""
        x = np.asarray(x, dtype=float)
        y = np.interp(x, self.inputs, self.images)
        lo_slope = (self.images[1] - self.images[0]) / (self.inputs[1] - self.inputs[0])
        hi_slope = (self.images[-1] - self.images[-2]) / (
            self.inputs[-1] - self.inputs[-2]
        )
        y = np.where(x < self.inputs[0],
                     self.images[0] + lo_slope * (x - self.inputs[0]), y)
        y = np.where(x > self.inputs[-1],
                     self.images[-1] + hi_slope * (x - self.inputs[-1]), y)
        return y


@dataclass(frozen=True)
class ThetaEnvelope:
    """Per-time spatial extremes of the OU relative-density log-Hessian."""

    times: np.ndarray
    theta_min: np.ndarray
    theta_max: np.ndarray
    integral_theta_max: float


@dataclass(frozen=True)
class LipschitzEstimate:
    value: float
    location: float

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class PushforwardReport:
    ks_stat: float
    mean_error: float
    var_error: float


def velocity_field(measure, t: float, x) -> np.ndarray:
    """v(t, x) = -(score of the OU marginal at x + x)."""
    _, gradient, _ = ou_log_derivatives(measure, t, x)
    return -gradient


def build_flow_map(
    measure,
    n_points: int = 257,
    t_max: float | None = None,
    steps_per_unit: int = 400,
    t_min: float = 1e-4,
    t_split: float = 0.5,
    inputs: np.ndarray | None = None,
) -> FlowMap:
    """Transport map from gamma to a 1D measure by backward flow integration.

    Starts at t_max (default max(3, log(W / 1e-4)), where W = sqrt(mean^2 +
    var) + 1 >= W2(mu, gamma)) from the exact affine image of the inputs,
    integrates dy/dt = v(t, y) down to t_min with steps_per_unit RK4 steps per
    unit of u = e^{-t} above t_split and of tau = e^{2t} - 1 below it, and
    removes the final [0, t_min] leg by Richardson extrapolation from t_min and
    t_min / 2.
    """
    if getattr(measure, "dim", None) != 1:
        raise ValidationError("flow maps are built for 1D measures only")
    if inputs is None:
        from scipy.special import ndtri

        u = (np.arange(n_points) + 1.0) / (n_points + 1.0)
        inputs = ndtri(u)
    else:
        inputs = np.asarray(inputs, dtype=float)
        if np.any(np.diff(inputs) <= 0):
            raise ValidationError("inputs must be strictly increasing")
    mean, var = ms.mean_variance_1d(measure)
    if t_max is None:  # triangle inequality through delta_0
        t_max = max(3.0, math.log((math.hypot(mean, math.sqrt(var)) + 1.0) / 1e-4))
    if not (0 < t_min < t_split < t_max and math.exp(-t_max) > 0):
        raise ValidationError("need 0 < t_min < t_split < t_max and e^{-t_max} > 0")

    e2 = math.exp(-2.0 * t_max)
    m_T = mean * math.exp(-t_max)
    s_T = math.sqrt(var * e2 + 1.0 - e2)
    y = m_T + s_T * inputs

    evals = 0

    def vel(t, x):
        nonlocal evals
        evals += 1
        try:
            return -(marginal_stats_1d(measure, t, x)[1] + x)
        except ValidationError:  # a stage state that blew up is no input error
            if np.all(np.isfinite(x)):
                raise
            raise NumericalError(f"non-finite RK4 stage state at t={t:.6g}") from None

    def leg(name, t_hi, t_lo, *args):  # rk4 reports its own variable, u or tau
        try:
            return rk4(*args)
        except NumericalError as err:
            raise NumericalError(f"flow map state blew up on leg {name}, between "
                                 f"t={t_lo:.6g} and t={t_hi:.6g}") from err

    # leg A: t_max -> t_split in u = e^{-t}, where dy/du = -v / u is smooth
    u_max, u_split = math.exp(-t_max), math.exp(-t_split)
    nA = max(32, int(math.ceil(steps_per_unit * (u_split - u_max))))
    y = leg("A", t_max, t_split, lambda u, x: -vel(-math.log(u), x) / u, y, u_max, u_split, nA)

    # legs B/C: substituted variable tau = e^{2t} - 1, dy/dtau = v / (2(1+tau))
    def vel_tau(tau, x):
        t = 0.5 * math.log1p(tau)
        return vel(t, x) / (2.0 * (1.0 + tau))

    tau_split = math.expm1(2.0 * t_split)
    tau_min = math.expm1(2.0 * t_min)
    tau_half = math.expm1(t_min)  # tau at t_min / 2
    nB = max(16, int(math.ceil(steps_per_unit * (tau_split - tau_min))))
    y_tmin = leg("B", t_split, t_min, vel_tau, y, tau_split, tau_min, nB)
    y_half = leg("C", t_min, 0.5 * t_min, vel_tau, y_tmin, tau_min, tau_half, 16)
    images = 2.0 * y_half - y_tmin

    if np.any(np.diff(images) < -1e-10):
        k = int(np.argmin(np.diff(images)))
        raise NumericalError(
            f"flow map lost monotonicity between inputs {inputs[k]} and {inputs[k+1]}"
        )
    images = np.maximum.accumulate(images)
    return FlowMap(
        t_max=float(t_max),
        t_min=float(t_min),
        inputs=inputs,
        images=images,
        steps_per_unit=steps_per_unit,
        velocity_evals=evals,
    )


def empirical_lipschitz(flow: FlowMap) -> LipschitzEstimate:
    """Max slope |dT/dx| over adjacent input pairs, with its location."""
    if flow.inputs.size < 2:
        raise ValidationError("need at least 2 points")
    slopes = np.diff(flow.images) / np.diff(flow.inputs)
    k = int(np.argmax(np.abs(slopes)))
    loc = 0.5 * (flow.inputs[k] + flow.inputs[k + 1])
    return LipschitzEstimate(value=float(np.abs(slopes[k])), location=float(loc))


def pushforward_validate(
    flow: FlowMap, target, n_samples: int = 20000, seed: int = 0
) -> PushforwardReport:
    """Push Gaussian samples through the flow and compare with the target."""
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if n_samples < 1:
        raise ValidationError(f"n_samples must be at least 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_samples)
    y = np.sort(flow(x))
    cdf = ms.cdf_1d(target, y)
    n = n_samples
    ks = float(
        max(
            np.max(np.arange(1, n + 1) / n - cdf),
            np.max(cdf - np.arange(0, n) / n),
        )
    )
    mean, var = ms.mean_variance_1d(target)
    emp_mean = float(np.mean(y))
    emp_var = float(np.var(y))
    return PushforwardReport(
        ks_stat=ks,
        mean_error=abs(emp_mean - mean),
        var_error=abs(emp_var - var),
    )


def theta_envelope(
    measure,
    time_grid: np.ndarray | None = None,
    space_grid: np.ndarray | None = None,
    t_end: float = 6.0,
    n_times: int = 800,
) -> ThetaEnvelope:
    """Spatial extremes of the log-Hessian of Q_t(d mu/d gamma) over time.

    integral_theta_max integrates the per-time max: with a user time_grid, a
    plain trapezoid over the grid; otherwise a trapezoid in u = sqrt(t)
    (the max can grow like 1/sqrt(t) near 0), plus a short-time correction
    and an exp(-2t) tail estimate beyond the last time.  Each time needs t > 0
    and e^{2t} max(1, x^2) finite on the space grid: t < 354.9 - log max(1, |x|).
    """
    if space_grid is None:
        mean, var = ms.mean_variance_1d(measure)
        half = 8.0 * math.sqrt(max(var, 1.0)) + abs(mean) + 1.0
        space_grid = np.linspace(-half, half, 401)
    else:
        space_grid = np.asarray(space_grid, dtype=float)
    user_grid = time_grid is not None
    if user_grid:
        times = np.asarray(time_grid, dtype=float)
    else:
        u = np.linspace(math.sqrt(1e-6), math.sqrt(t_end), n_times)
        times = u * u

    # mu_t(x) = e^t (mu * gamma_tau)(e^t x), tau = e^{2t} - 1, so theta = (Var_tau(e^t x)
    # / tau - 1) / (1 - e^{-2t}) + 1; one _tilt call per block of whole time rows
    xs = ms._points(measure, space_grid[:, None])[0][:, 0]
    with np.errstate(over="ignore"):
        tau, v, scale = np.expm1(2.0 * times), -np.expm1(-2.0 * times), np.exp(times)
        bad = ~((times > 0) & (scale * scale * np.max(xs * xs, initial=1.0) < math.inf))
    if np.any(bad):
        raise ValidationError(f"time t={float(times[bad][0])!r} is out of range: need t > 0 "
                              "and e^(2t) max(1, x^2) finite on the space grid")
    th_min, th_max = np.empty(times.size), np.empty(times.size)
    rows = max(1, _TILT_BLOCK // max(xs.size, 1))
    for i in range(0, times.size, rows):
        blk = slice(i, i + rows)
        zs = (scale[blk, None] * xs).reshape(-1, 1)
        cov = _tilt(measure, zs, np.repeat(tau[blk], xs.size))[2].reshape(-1, xs.size)
        theta = (cov / tau[blk, None] - 1.0) / v[blk, None] + 1.0
        th_min[blk] = np.min(theta, axis=1)
        th_max[blk] = np.max(theta, axis=1)

    if user_grid:
        integral = float(np.trapezoid(th_max, times))
    else:
        integral = float(np.trapezoid(th_max * 2.0 * u, u))
        # head: theta_max ~ C / sqrt(t) at worst, so the [0, t0] piece is
        # at most 2 * theta_max(t0) * t0
        integral += 2.0 * max(th_max[0], 0.0) * times[0]
        # tail: theta decays like e^{-2t}, so the remainder is theta(T)/2
        integral += max(th_max[-1], 0.0) / 2.0
    return ThetaEnvelope(
        times=times, theta_min=th_min, theta_max=th_max,
        integral_theta_max=integral,
    )


def reverse_sde_sample(
    measure, n: int, steps: int, t1: float, seed: int = 0
) -> np.ndarray:
    """Euler-Maruyama simulation of the reverse diffusion over [0, t1].

    dY = (Y + 2 * score of the OU marginal at time t1 - t) dt + sqrt(2) dB,
    initialized exactly at the OU marginal of `measure` at time t1.  Returns
    samples of shape (n, dim), approximately distributed as `measure`.
    """
    if not (t1 > 0 and n >= 1 and steps >= 1 and seed >= 0):
        raise ValidationError("need t1 > 0, n >= 1, steps >= 1, seed >= 0")
    rng = np.random.default_rng(seed)
    d = measure.dim
    x0 = ms.sample(measure, n, seed=seed + 1)
    xi = rng.standard_normal((n, d))
    y = math.exp(-t1) * x0 + math.sqrt(-math.expm1(-2.0 * t1)) * xi
    dt = t1 / steps
    sq = math.sqrt(2.0 * dt)
    for k in range(steps):
        s = t1 - k * dt  # remaining OU time; >= dt > 0
        if d == 1:
            score = marginal_stats_1d(measure, s, y[:, 0])[1][:, None]
        else:
            score = ou_log_derivatives(measure, s, y)[1] - y
        y = y + dt * (y + 2.0 * score) + sq * rng.standard_normal((n, d))
        if not np.all(np.isfinite(y)):
            raise NumericalError(f"reverse diffusion blew up at step {k + 1}")
    return y
