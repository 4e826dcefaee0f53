"""Heat and Ornstein-Uhlenbeck semigroup quantities.

Everything here derives from one batched primitive per measure family,
``_tilt(measure, zs, t)``: the log-mass, mean and covariance of mu_{z,t}, the
measure mu reweighted by the Gaussian kernel N(z, t I), at each row z of zs.
The log-Hessian of mu * gamma_t is (1/t)(I - Cov(mu_{z,t})/t), and the OU
marginal at time t is the dilated base smoothed to variance 1 - e^{-2t}.
The module also holds the 1D quadratic Wasserstein distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures as ms
from .errors import CapabilityError, NumericalError, ValidationError
from .measures import (
    AtomicMeasure,
    CounterexampleMeasure,
    GaussianMixture,
    PerturbedLogConcave1D,
    _logsumexp,
    _panel_moments,
    _points,
    _sorted_atoms_1d,
)

__all__ = [
    "TiltedMoments",
    "tilted_moments",
    "tilted_log_mass",
    "log_hessian_heat",
    "ou_log_derivatives",
    "wasserstein2_1d",
    "lemma1_check",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class TiltedMoments:
    """Moments of mu_{z,t} (mu reweighted by the Gaussian kernel N(z, t I)).

    ``mass_log`` is log((mu * gamma_t)(z)), the tilted mass against the
    normalized kernel.
    """

    mean: np.ndarray
    covariance: np.ndarray
    mass_log: float


# ---------------------------------------------------------------------------
# the batched tilt kernels: (log_mass (n,), mean (n, d), cov (n, d, d))
# ---------------------------------------------------------------------------

def _tilt_mixture(mu: GaussianMixture, zs: np.ndarray, t):
    """The posterior of the smoothed mixture mu * gamma_t at z: component k
    tilts to N(m_k - s_k g_k, (s_k t / (s_k + t)) I), with g_k its component
    score, and has weight pi_k; the covariance is pooled about the tilted mean."""
    s = mu.variances[:, None] if isinstance(t, np.ndarray) else mu.variances  # (k, 1) vs t (n,)
    # mu * gamma_t has variances s + t; _with_fields skips re-validation
    _, pi, g, log_mass = ms._mixture_posterior(ms._with_fields(mu, variances=s + t), zs)
    mean, cov = ms._pool(pi, mu.means[:, :, None] - s.reshape(-1, 1, 1) * g, s * t / (s + t))
    return log_mass, mean.T, cov.transpose(2, 0, 1)


def _tilt_atoms(mu, zs: np.ndarray, t):
    """Atoms keep their locations; the tilt only reweights them.  Exponents
    are taken about the midpoint c of the locations' span, where z.x/t and
    |x|^2/(2t) would cancel: -|z - x|^2/2 = <z - c, x - c> - |x - c|^2/2 - |z - c|^2/2."""
    locs = mu.locations.reshape(-1, mu.dim)
    c = 0.5 * (locs.min(axis=0) + locs.max(axis=0))
    xc, zc = locs - c, zs - c
    q = np.sum(xc * xc, axis=1)
    with np.errstate(over="ignore"):
        l = mu.log_weights[:, None] + (xc @ zc.T - 0.5 * (q - q.min())[:, None]) / t
        zz = np.sum(zc * zc, axis=1)
    if not (np.all(np.isfinite(l)) and np.all(np.isfinite(zz))):
        raise NumericalError("tilted atom weights are non-finite; recenter z before tilting")
    lse = _logsumexp(l, axis=0)
    mean, cov = ms._pool(np.exp(l - lse), xc[:, :, None], np.zeros(q.size))
    log_mass = lse - (zz + q.min()) / (2.0 * t) - 0.5 * mu.dim * (_LOG_2PI + np.log(t))
    return log_mass, mean.T + c, cov.transpose(2, 0, 1)


def _tilt_perturbed(pm: PerturbedLogConcave1D, zs: np.ndarray, t):
    """Closed-form truncated-Gaussian moments on each panel of the density."""
    z = zs[:, 0]
    B = z / t - pm.panel_b[:, None]  # (P, n)
    A = -pm.panel_a[:, None] - z * z / (2.0 * t)
    log_mass, mean, var = _panel_moments(pm.alpha + 1.0 / t, B, A, pm.panel_edges)
    log_mass = log_mass - 0.5 * (_LOG_2PI + np.log(t)) - pm.log_normalizer
    return log_mass, mean[:, None], var[:, None, None]


_TILT = {
    GaussianMixture: _tilt_mixture,
    AtomicMeasure: _tilt_atoms,
    CounterexampleMeasure: _tilt_atoms,
    PerturbedLogConcave1D: _tilt_perturbed,
}


def _tilt(measure, zs: np.ndarray, t):
    """(log_mass, mean, cov) of mu_{z,t} at each row of zs, shape (n, dim),
    as checked by ``_points``; t is a float, or an (n,) array with one time
    per row."""
    if not (np.all((t > 0) & (t < math.inf)) if isinstance(t, np.ndarray) else 0 < t < math.inf):
        raise ValidationError(f"t must be positive and finite, got {t}")
    kernel = _TILT.get(type(measure))
    if kernel is None:
        raise CapabilityError(f"no tilted moments for {type(measure).__name__}")
    log_mass, mean, cov = kernel(measure, zs, t)
    return log_mass, mean, 0.5 * (cov + np.swapaxes(cov, 1, 2))


def tilted_moments(measure, z, t: float) -> TiltedMoments:
    """Mean/covariance of mu_{z,t} at one point z of shape (dim,); exact for
    mixtures and atoms, panel-exact for perturbed 1D densities."""
    zs, single = _points(measure, z)
    if not single:
        raise ValidationError(f"tilted_moments takes one point, got shape {np.shape(z)}")
    log_mass, mean, cov = _tilt(measure, zs, t)
    return TiltedMoments(mean=mean[0], covariance=cov[0], mass_log=float(log_mass[0]))


def tilted_log_mass(measure, z, t: float):
    """log((mu * gamma_t)(z)); density oracle for convolutions.

    ``z`` is one point (a float is returned) or a batch of shape (n, dim).
    """
    zs, single = _points(measure, z)
    log_mass = _tilt(measure, zs, t)[0]
    return float(log_mass[0]) if single else log_mass


def log_hessian_heat(measure, z, t: float) -> np.ndarray:
    """-Hess log(mu * gamma_t)(z) via (1/t)(I - Cov(mu_{z,t})/t).

    ``z`` of shape (dim,) gives a (dim, dim) matrix; a batch of shape
    (n, dim) gives (n, dim, dim).
    """
    zs, single = _points(measure, z)
    h = (np.eye(measure.dim) - _tilt(measure, zs, t)[2] / t) / t
    return h[0] if single else h


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck semigroup
# ---------------------------------------------------------------------------

def _ou_tilt(measure, t: float, xs: np.ndarray):
    """OU marginal at time t as (dilated base) * gamma_v with v = 1-e^{-2t}:
    the tilt of the dilated base at xs, and v."""
    v = -math.expm1(-2.0 * t)
    return _tilt(ms.dilate(measure, math.exp(-t)), xs, v), v


def ou_log_derivatives(measure, t: float, x):
    """(value, gradient, hessian) of log Q_t(d mu / d gamma) at x.

    Computed through the OU marginal mu_t = (dilated mu) * gamma_{1-e^{-2t}}:
    value = log mu_t(x) - log gamma(x), and the derivatives add the Gaussian
    reference terms (+x to the score, +I to the Hessian).  ``x`` of shape
    (dim,) gives (float, (dim,), (dim, dim)); a batch of shape (n, dim) gives
    (n,), (n, dim) and (n, dim, dim) arrays.
    """
    xs, single = _points(measure, x)
    (log_mass, mean, cov), v = _ou_tilt(measure, t, xs)
    eye = np.eye(measure.dim)
    value = log_mass + 0.5 * measure.dim * _LOG_2PI + 0.5 * np.sum(xs * xs, axis=1)
    gradient = (mean - xs) / v + xs
    hessian = (cov / v - eye) / v + eye
    if single:
        return float(value[0]), gradient[0], hessian[0]
    return value, gradient, hessian


def marginal_stats_1d(measure, t: float, xs: np.ndarray):
    """Vectorized (log-density, score, log-Hessian) of the OU marginal at xs.

    1D only; used by the transport module for flow integration.
    """
    xs = np.asarray(xs, dtype=float)
    (log_mass, mean, cov), v = _ou_tilt(measure, t, _points(measure, xs[:, None])[0])
    return log_mass, (mean[:, 0] - xs) / v, (cov[:, 0, 0] / v - 1.0) / v


# ---------------------------------------------------------------------------
# 1D Wasserstein distance and the covariance comparison lemma
# ---------------------------------------------------------------------------

def wasserstein2_1d(mu, nu) -> float:
    """W_2 via the quantile coupling: sqrt(int_0^1 |F^-1 - G^-1|^2 du)."""
    for m in (mu, nu):
        if getattr(m, "dim", None) != 1:
            raise CapabilityError("wasserstein2_1d supports 1D measures only")
    atomic = (AtomicMeasure, CounterexampleMeasure)
    if isinstance(mu, atomic) and isinstance(nu, atomic):
        x1, w1 = _sorted_atoms_1d(mu)
        x2, w2 = _sorted_atoms_1d(nu)
        cuts = np.unique(np.concatenate([np.cumsum(w1), np.cumsum(w2), [0.0, 1.0]]))
        cuts = np.clip(cuts, 0.0, 1.0)
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        seg = np.diff(cuts)
        q1 = x1[np.minimum(np.searchsorted(np.cumsum(w1), mids), x1.size - 1)]
        q2 = x2[np.minimum(np.searchsorted(np.cumsum(w2), mids), x2.size - 1)]
        return float(np.sqrt(np.sum(seg * (q1 - q2) ** 2)))
    if (
        isinstance(mu, GaussianMixture)
        and isinstance(nu, GaussianMixture)
        and mu.weights.size == 1
        and nu.weights.size == 1
    ):
        dm = float(mu.means[0, 0] - nu.means[0, 0])
        ds = math.sqrt(float(mu.variances[0])) - math.sqrt(float(nu.variances[0]))
        return math.hypot(dm, ds)
    nodes, weights = np.polynomial.legendre.leggauss(512)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    q1 = ms.quantile_1d(mu, u)
    q2 = ms.quantile_1d(nu, u)
    return float(np.sqrt(np.sum(w * (q1 - q2) ** 2)))


def lemma1_check(mu, nu) -> tuple[float, float, float]:
    """Var(mu) <= (W2(mu, nu) + sqrt(Var(nu)))^2; returns (lhs, rhs, slack)."""
    _, var_mu = ms.mean_variance_1d(mu)
    _, var_nu = ms.mean_variance_1d(nu)
    w2 = wasserstein2_1d(mu, nu)
    rhs = (w2 + math.sqrt(max(var_nu, 0.0))) ** 2
    return var_mu, rhs, rhs - var_mu
