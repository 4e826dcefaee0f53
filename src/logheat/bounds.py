"""Closed-form curvature envelopes and transport constants.

Pure formulas with validity preconditions: the two-sided heat-flow
log-Hessian sandwich for Lipschitz perturbations of alpha-convex potentials,
its OU counterpart, the integrated OU upper envelope, Lipschitz constants
for the three transport-map constructions, and the mixture curvature lower
bounds (refined and crude).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError, check_finite
from .measures import GaussianMixture, _kernel, _points

__all__ = [
    "PerturbationParams",
    "thm2_envelope",
    "log_concavity_time",
    "compact_support_lower",
    "example3_limit_check",
    "cor7_envelope",
    "integrated_ou_upper",
    "transport_constants",
    "lsi_transfer",
    "mixture_hessian_lower",
]


@dataclass(frozen=True)
class PerturbationParams:
    """(alpha, L, K) bundle for the transport-constant formulas."""

    alpha: float
    lip: float = 0.0
    third_deriv: float = 0.0

    def __post_init__(self) -> None:
        check_finite(alpha=self.alpha, lip=self.lip, third_deriv=self.third_deriv)
        for name in ("lip", "third_deriv"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")


def thm2_envelope(alpha: float, lip: float, t: float) -> tuple[float, float]:
    """Two-sided envelope for -Hess log(mu * gamma_t): (lower, upper)."""
    check_finite(alpha=alpha, lip=lip, t=t)
    if not t > 0:
        raise DomainError("t must be positive")
    if not math.isfinite(1.0 / t):
        raise ValidationError(f"t = {t!r} is out of range: 1/t overflows")
    if not alpha * t + 1.0 > 0:
        raise DomainError("need alpha*t + 1 > 0")
    if lip < 0:
        raise ValidationError("lip must be nonnegative")
    c = alpha + 1.0 / t
    lower = (1.0 / t) * (1.0 - (1.0 / t) * (lip / c + math.sqrt(1.0 / c)) ** 2)
    return lower, 1.0 / t


def log_concavity_time(alpha: float, lip: float) -> float:
    """Smallest guaranteed log-concavity time (L/alpha + 1/sqrt(alpha))^2."""
    check_finite(alpha=alpha, lip=lip)
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    if lip < 0:
        raise ValidationError("lip must be nonnegative")
    return (lip / alpha + 1.0 / math.sqrt(alpha)) ** 2


def compact_support_lower(radius: float, t: float) -> float:
    """Classical compact-support lower bound (1/t)(1 - R^2/t)."""
    check_finite(radius=radius, t=t)
    if not t > 0:
        raise DomainError("t must be positive")
    if not math.isfinite(1.0 / t):
        raise ValidationError(f"t = {t!r} is out of range: 1/t overflows")
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    return (1.0 / t) * (1.0 - radius * radius / t)


def example3_limit_check(radius: float, t: float, s: float) -> tuple[float, float, float]:
    """Perturbation envelope for mu * gamma_s (alpha=1/s, L=R/s) at horizon t
    versus the classical compact-support bound; the gap vanishes as s -> 0."""
    if not (t > 0 and s > 0):
        raise DomainError("t and s must be positive")
    shifted, _ = thm2_envelope(1.0 / s, radius / s, t)
    classical = compact_support_lower(radius, t)
    return shifted, classical, abs(classical - shifted)


def cor7_envelope(alpha: float, lip: float, t: float) -> tuple[float, float]:
    """Envelope for Hess log Q_t(d mu/d gamma): (lower, upper)."""
    check_finite(alpha=alpha, lip=lip, t=t)
    if not t > 0:
        raise DomainError("t must be positive")
    tau = math.expm1(2.0 * t) if 2.0 * t < 709.78 else math.inf  # e^{2t} - 1
    if not math.isfinite(tau + 1.0 / tau):
        raise ValidationError(f"t = {t!r} is out of range: e^(2t) - 1 or its reciprocal overflows")
    if not alpha * tau + 1.0 > 0:
        raise DomainError("need alpha*(e^{2t}-1) + 1 > 0")
    if lip < 0:
        raise ValidationError("lip must be nonnegative")
    den = alpha * tau + 1.0
    e2t = tau + 1.0
    lower = -1.0 / tau
    upper = (
        (1.0 - alpha) / den
        + e2t * lip * lip / (den * den)
        + 2.0 * lip * e2t / (math.sqrt(tau) * den**1.5)
    )
    return lower, upper


def integrated_ou_upper(alpha: float, lip: float) -> float:
    """Closed-form time integral of the OU upper envelope over (0, inf)."""
    check_finite(alpha=alpha, lip=lip)
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    if lip < 0:
        raise ValidationError("lip must be nonnegative")
    return -0.5 * math.log(alpha) + lip * lip / (2.0 * alpha) + 2.0 * lip / math.sqrt(alpha)


def transport_constants(params: PerturbationParams) -> dict[str, float]:
    """Lipschitz constants of the three transport constructions from gamma."""
    a, L, K = params.alpha, params.lip, params.third_deriv
    if not a > 0:
        raise DomainError("alpha must be positive")
    caff = 1.0 / math.sqrt(a)
    flow = caff * math.exp(L * L / (2.0 * a) + 2.0 * L / math.sqrt(a))
    fms = caff * math.exp(5.0 * L * L / a + 5.0 * math.sqrt(math.pi) * L / math.sqrt(a)
                          + L * K / (2.0 * a * a))
    return {"caffarelli": caff, "thm3": flow, "fms": fms}


def lsi_transfer(C: float, lip_map: float) -> float:
    """LSI constant of the pushforward under a lip_map-Lipschitz map."""
    check_finite(C=C, lip_map=lip_map)
    if not (C > 0 and lip_map > 0):
        raise ValidationError("C and lip_map must be positive")
    return lip_map * lip_map * C


def mixture_hessian_lower(mixture: GaussianMixture, x) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise lower bounds for -Hess log(mixture): (refined, crude).

    The mixture is sum_i a_i e^{-U_i} with U_i = |x-m_i|^2 / sigma_i^2
    (component variance sigma_i^2 / 2), whose logits and gradients
    grad U_i = -(score of component i) come from the mixture posterior.
    All component potentials must be strongly convex, which holds for any
    Gaussian mixture; the common modulus is K = 2 / max_i sigma_i^2.
    ``x`` of shape (dim,) gives two (dim, dim) matrices; a batch of shape
    (n, dim) gives two (n, dim, dim) arrays.
    """
    posterior = _kernel(mixture, "_posterior")
    xs, single = _points(mixture, x)
    l, r, g, _ = posterior(xs)
    i, j = np.tril_indices(l.shape[0], -1)  # the pairs j < i
    dg = g[i] - g[j]
    outer = dg[:, :, None, :] * dg[:, None, :, :]
    # 1/(2 + q + 1/q) = sech^2((l_i - l_j)/2)/4 with q = e^{l_i - l_j},
    # computed in logs to survive widely separated components
    half = 0.5 * np.abs(l[i] - l[j])
    log_cosh = half + np.log1p(np.exp(-2.0 * half)) - math.log(2.0)
    K = np.eye(mixture.dim) / float(np.max(mixture.variances))
    refined = K - np.einsum("pn,pabn->nab", r[i] * r[j], outer)
    crude = K - np.einsum("pn,pabn->nab", np.exp(-2.0 * log_cosh) / 4.0, outer)
    if single:
        return refined[0], crude[0]
    return refined, crude
