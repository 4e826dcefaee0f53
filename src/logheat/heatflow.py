"""Heat and Ornstein-Uhlenbeck semigroup quantities.

Everything here derives from one batched primitive, ``_tilt(measure, zs, t)``:
the log-mass, mean and covariance of mu_{z,t}, the measure mu reweighted by
the Gaussian kernel N(z, t I), at each row z of zs, from the family's own
``_tilt`` kernel.  The log-Hessian of mu * gamma_t is (1/t)(I - Cov(mu_{z,t})/t),
and the OU marginal at time t is the dilated base smoothed to variance
1 - e^{-2t}.  The module also holds the 1D quadratic Wasserstein distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures as ms
from .errors import CapabilityError, ValidationError
from .measures import _points

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
_BLOCK = 4096  # rows per family-kernel call: each call's temporaries stay cache-sized


@dataclass(frozen=True)
class TiltedMoments:
    """Moments of mu_{z,t} (mu reweighted by the Gaussian kernel N(z, t I)).

    ``mass_log`` is log((mu * gamma_t)(z)), the tilted mass against the
    normalized kernel.
    """

    mean: np.ndarray
    covariance: np.ndarray
    mass_log: float


def _tilt(measure, zs: np.ndarray, t):
    """(log_mass, mean, cov) of mu_{z,t} at each row of zs, shape (n, dim),
    as checked by ``_points``; t is a float, or an (n,) array with one time
    per row.

    More than ``_BLOCK`` rows go to the kernel in blocks of ``_BLOCK`` rows (t sliced with them),
    small enough for the heap to reuse.  The output is bit-identical to one call: a matrix product
    rounds the last (n mod 4) rows of a call apart and ``_BLOCK`` is a multiple of 4, and a last
    row joins the block before it, since numpy sums a single row's terms pairwise."""
    if not (((t > 0) & (t < math.inf)).all() if isinstance(t, np.ndarray) else 0 < t < math.inf):
        raise ValidationError(f"t must be positive and finite, got {t}")
    kernel = ms._kernel(measure, "_tilt")
    if zs.shape[0] <= _BLOCK:
        log_mass, mean, cov = kernel(zs, t)
    else:
        cuts = list(range(0, zs.shape[0] - 1, _BLOCK)) + [zs.shape[0]]
        blocks = [kernel(zs[i:j], t[i:j] if np.ndim(t) else t) for i, j in zip(cuts, cuts[1:])]
        log_mass, mean, cov = (np.concatenate(parts) for parts in zip(*blocks))
    # a (n, 1, 1) covariance is symmetric as it stands
    return log_mass, mean, cov if cov.shape[1] == 1 else 0.5 * (cov + np.swapaxes(cov, 1, 2))


def tilted_moments(measure, z, t: float) -> TiltedMoments:
    """Mean/covariance of mu_{z,t} at one point z of shape (dim,); exact for
    mixtures and atoms, panel-exact for perturbed 1D densities."""
    zs, single = _points(measure, z)
    if not single:
        raise ValidationError(f"tilted_moments takes one point, got shape {np.shape(z)}")
    log_mass, mean, cov = _tilt(measure, zs, t)
    return TiltedMoments(mean=mean[0], covariance=cov[0], mass_log=float(log_mass[0]))


def tilted_log_mass(measure, z, t: float):
    """log((mu * gamma_t)(z)), the log-density of the convolution, for every
    family with a tilt kernel.

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
    parts = [m._components() if hasattr(m, "_components") else None for m in (mu, nu)]
    if None not in parts and not (parts[0][2].any() or parts[1][2].any()):
        # atoms: the quantiles are constant between merged cumulative weights; midpoints are exact
        cuts = [np.cumsum(w[np.argsort(c[:, 0])]) for w, c, _ in parts]
        cuts = np.clip(np.unique(np.concatenate(cuts + [[0.0, 1.0]])), 0.0, 1.0)
        u, w = 0.5 * (cuts[:-1] + cuts[1:]), np.diff(cuts)
    elif None not in parts and parts[0][0].size == parts[1][0].size == 1:  # N(c, s) each
        (_, c1, s1), (_, c2, s2) = parts
        dm = float(c1[0, 0] - c2[0, 0])
        ds = math.sqrt(float(s1[0])) - math.sqrt(float(s2[0]))
        return math.hypot(dm, ds)
    else:
        nodes, weights = np.polynomial.legendre.leggauss(512)
        u, w = 0.5 * (nodes + 1.0), 0.5 * weights
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
