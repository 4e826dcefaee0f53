"""Heat-flow transport maps, their Lipschitz certification, and the
reverse-time diffusion sampler.

The flow map from the standard Gaussian to a 1D target integrates the velocity
field v(t, x) = -(score of the OU marginal + x) backward from t = inf to 0.  In
the OU angle theta = arccos e^{-t} the marginal is cos(theta) X + sin(theta) Z and
dy/dtheta = tan(theta) v is smooth on [0, pi/2], -mean at t = inf and 0 at t = 0,
so one RK4 leg in psi = 3 tan(theta / 3) covers the whole range with no horizon
and no start fitted to the target.  Near t = 0, psi is close to
sigma = sqrt(e^{2t} - 1), in which the velocity of a log-Lipschitz perturbation
(its x-slope grows like 1/sigma) keeps RK4 at fourth order.  The same clock carries
the theta envelope's time integral: dt/dpsi = sigma / (1 + psi^2/9) turns the
1/sqrt(t) head and the e^{-2t} tail into a bounded integrand on [0, sqrt(3)].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures as ms
from .errors import NumericalError, ValidationError, check_integers
from .heatflow import _BLOCK, _tilt, marginal_stats_1d, ou_log_derivatives
from .numerics import ndtri, rk4

__all__ = [
    "FlowMap",
    "ThetaEnvelope",
    "LipschitzEstimate",
    "PushforwardReport",
    "build_flow_map",
    "empirical_lipschitz",
    "pushforward_validate",
    "theta_envelope",
    "reverse_sde_sample",
]


@dataclass(frozen=True)
class FlowMap:
    """Discretized transport map from gamma to a 1D target."""

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
    """Per-time spatial extremes of the OU relative-density log-Hessian, and the
    time integral of the maximum: a quadrature estimate, not an upper bound."""

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


_PSI_MAX = math.sqrt(3.0)  # psi = 3 tan(theta / 3) at theta = pi / 2, t = inf


def _ou_time(psi: float) -> tuple[float, float]:
    """(t, tan theta) at psi = 3 tan(theta / 3), with cos theta = e^{-t}."""
    sigma = math.tan(3.0 * math.atan(psi / 3.0))
    return 0.5 * math.log1p(sigma * sigma), sigma


def build_flow_map(
    measure,
    n_points: int = 257,
    steps_per_unit: int = 100,
    inputs: np.ndarray | None = None,
) -> FlowMap:
    """Transport map from gamma to a 1D measure by backward flow integration.

    One RK4 leg in psi = 3 tan(theta / 3), theta = arccos e^{-t}, from sqrt(3)
    (t = inf, y = inputs) to 0 in N = ceil(sqrt(3) steps_per_unit) + 20 equal steps.
    Both ends are closed forms, so it takes 4N - 2 velocity batches, all at OU times
    below -log sin(3h/8) for the step h: 774 at the defaults, 254 at 25 steps per
    unit.  The inputs (default: n_points Gaussian quantiles) must be finite, 1D and
    strictly increasing.
    """
    if getattr(measure, "dim", None) != 1:
        raise ValidationError("flow maps are built for 1D measures only")
    n_points, steps_per_unit = check_integers("n_points, steps_per_unit", n_points,
                                              steps_per_unit)
    if not (n_points >= 2 and steps_per_unit >= 1):
        raise ValidationError(f"need n_points >= 2 and steps_per_unit >= 1, got "
                              f"{n_points} and {steps_per_unit}")
    if inputs is None:
        inputs = ndtri((np.arange(n_points) + 1.0) / (n_points + 1.0))
    else:
        inputs = np.asarray(inputs, dtype=float)
        if not (inputs.ndim == 1 and inputs.size >= 2 and np.all(np.isfinite(inputs))
                and np.all(np.diff(inputs) > 0)):
            raise ValidationError("inputs must be a finite, strictly increasing 1D array "
                                  f"of at least 2 points, got shape {inputs.shape}")
    mean = ms.mean_variance_1d(measure)[0]
    evals, psi_last = 0, _PSI_MAX

    def rhs(psi, y):  # dy/dpsi = tan(theta) v(t, y) dtheta/dpsi, dtheta/dpsi = 1/(1 + psi^2/9)
        nonlocal evals, psi_last
        psi_last = psi
        if psi == _PSI_MAX:  # tan(theta) v = -mean, dtheta/dpsi = 3/4
            return np.full_like(y, -0.75 * mean)
        if psi == 0.0:
            return np.zeros_like(y)
        evals += 1
        t, sigma = _ou_time(psi)
        try:
            score = marginal_stats_1d(measure, t, y)[1]
        except ValidationError:
            if np.all(np.isfinite(y)):
                raise
            return y  # a stage state that blew up: rk4 rejects the step's end state
        return -(score + y) * (sigma / (1.0 + psi * psi / 9.0))

    n = math.ceil(_PSI_MAX * steps_per_unit) + 20
    try:
        images = rk4(rhs, inputs, _PSI_MAX, 0.0, n)
    except NumericalError as err:  # raised after the step that ends at psi_last
        psi_hi = psi_last + _PSI_MAX / n
        t_hi = _ou_time(psi_hi)[0] if psi_hi < _PSI_MAX * (1.0 - 0.5 / n) else math.inf
        raise NumericalError(f"flow map state blew up between t={_ou_time(psi_last)[0]:.6g} "
                             f"and t={t_hi:.6g}") from err

    if np.any(np.diff(images) < -1e-10):
        k = int(np.argmin(np.diff(images)))
        raise NumericalError(
            f"flow map lost monotonicity between inputs {inputs[k]} and {inputs[k+1]}"
        )
    return FlowMap(inputs=inputs, images=np.maximum.accumulate(images),
                   steps_per_unit=steps_per_unit, velocity_evals=evals)


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
    n_samples, seed = check_integers("n_samples, seed", n_samples, seed)
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if n_samples < 1:
        raise ValidationError(f"n_samples must be at least 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    y = np.sort(flow(rng.standard_normal(n_samples)))
    mean, var = ms.mean_variance_1d(target)
    return PushforwardReport(
        ks_stat=_ks_stat(target, y),
        mean_error=abs(float(np.mean(y)) - mean),
        var_error=abs(float(np.var(y)) - var),
    )


def _ks_stat(measure, y: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between the sorted 1D sample y and the measure's CDF."""
    cdf = ms.cdf_1d(measure, y)
    n = y.size
    return float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(0, n) / n)))


def theta_envelope(
    measure,
    time_grid: np.ndarray | None = None,
    space_grid: np.ndarray | None = None,
) -> ThetaEnvelope:
    """Spatial extremes of the log-Hessian of Q_t(d mu/d gamma) over time.

    The default times are the 48 Gauss-Legendre nodes in the flow map's clock psi on
    (0, sqrt(3)), where theta_max dt/dpsi = theta_max sigma / (1 + psi^2/9) is
    bounded, and integral_theta_max is the rule's weighted sum.  A user time_grid
    (non-empty, strictly increasing, 1D) takes the trapezoid in t.  Either way the
    integral is a quadrature estimate, not an upper bound: on e^{-x^2/2-|x|} its exp
    is 0.987, below Lip(T) = 1.  Each time needs t > 0 and e^{2t} max(1, x^2) finite
    on the space grid: t < 354.9 - log max(1, |x|).
    """
    if space_grid is None:
        mean, var = ms.mean_variance_1d(measure)
        half = 8.0 * math.sqrt(max(var, 1.0)) + abs(mean) + 1.0
        space_grid = np.linspace(-half, half, 401)
    else:
        space_grid = np.asarray(space_grid, dtype=float)
        if space_grid.size == 0:
            raise ValidationError("space_grid is empty")
    if time_grid is None:
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(48)
        psi = 0.5 * _PSI_MAX * (nodes + 1.0)
        times, sigma = np.array([_ou_time(p) for p in psi]).T
        weights *= 0.5 * _PSI_MAX * sigma / (1.0 + psi * psi / 9.0)
    else:
        times = np.asarray(time_grid, dtype=float)
        if not (times.ndim == 1 and times.size >= 1 and np.all(np.diff(times) > 0)):
            raise ValidationError("time_grid must be a non-empty, strictly increasing 1D "
                                  f"array, got shape {times.shape}")

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
    rows = max(1, _BLOCK // max(xs.size, 1))
    for i in range(0, times.size, rows):
        blk = slice(i, i + rows)
        zs = (scale[blk, None] * xs).reshape(-1, 1)
        cov = _tilt(measure, zs, np.repeat(tau[blk], xs.size))[2].reshape(-1, xs.size)
        theta = (cov / tau[blk, None] - 1.0) / v[blk, None] + 1.0
        th_min[blk] = np.min(theta, axis=1)
        th_max[blk] = np.max(theta, axis=1)

    integral = weights @ th_max if time_grid is None else np.trapezoid(th_max, times)
    return ThetaEnvelope(
        times=times, theta_min=th_min, theta_max=th_max,
        integral_theta_max=float(integral),
    )


def reverse_sde_sample(
    measure, n: int, steps: int, t1: float, seed: int = 0
) -> np.ndarray:
    """Euler-Maruyama simulation of the reverse diffusion over [0, t1].

    dY = (Y + 2 * score of the OU marginal at time t1 - t) dt + sqrt(2) dB,
    initialized exactly at the OU marginal of `measure` at time t1.  Returns
    samples of shape (n, dim), approximately distributed as `measure`.
    """
    if not (t1 > 0 and math.exp(-t1) > 0):
        raise ValidationError(f"need 0 < t1 <= 745.1332191019411 (e^(-t1) > 0), got t1={t1!r}")
    n, steps, seed = check_integers("n, steps, seed", n, steps, seed)
    if not (n >= 1 and steps >= 1 and seed >= 0):
        raise ValidationError("need n >= 1, steps >= 1, seed >= 0")
    rng = np.random.default_rng(seed)
    d = measure.dim
    x0 = ms.sample(measure, n, seed=seed + 1)
    xi = rng.standard_normal((n, d))
    y = math.exp(-t1) * x0 + math.sqrt(-math.expm1(-2.0 * t1)) * xi
    dt = t1 / steps
    sq = math.sqrt(2.0 * dt)
    for k in range(steps):
        s = t1 - k * dt  # remaining OU time; >= dt > 0
        try:
            if d == 1:
                score = marginal_stats_1d(measure, s, y[:, 0])[1][:, None]
            else:
                score = ou_log_derivatives(measure, s, y)[1] - y
        except ValidationError as err:
            if k:
                raise
            raise ValidationError(f"horizon t1={t1!r} is too long for this target: its OU "
                                  "marginal scales it by e^(-t1) out of the float range") from err
        y_prev, y = y, y + dt * (y + 2.0 * score) + sq * rng.standard_normal((n, d))
        if not np.all(np.isfinite(y)):
            bad = np.flatnonzero(~np.all(np.isfinite(y), axis=1))
            raise NumericalError(f"reverse diffusion blew up at step {k + 1} (OU time s={s!r}): "
                                 f"{bad.size} of {n} samples non-finite, the first at index "
                                 f"{bad[0]} from {y_prev[bad[0]].tolist()}")
    return y
