"""Splitting potentials into strongly convex plus Lipschitz parts.

Given a 1D potential whose Hessian is bounded below by ``alpha`` outside a
ball of radius ``radius`` and by ``-beta`` inside, subtract an explicit
concave-quadratic/linear hull to obtain U = V + H with V strongly convex and
H Lipschitz with certified constant 2(alpha+beta)*radius.  The mixture
analyzer derives admissible (alpha, lip, radius, beta) for a 1D Gaussian
mixture from its pointwise curvature lower bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import mixture_hessian_lower
from .errors import PreconditionError, ValidationError
from .measures import GaussianMixture
from .numerics import finite_diff_second

__all__ = [
    "Decomposition",
    "MixtureAnalysis",
    "Infeasible",
    "lemma4_decompose",
    "analyze_mixture_1d",
]


@dataclass(frozen=True)
class Decomposition:
    """U = V + H with V alpha-convex and H Lipschitz (constant lip_cert)."""

    V: Callable[[np.ndarray], np.ndarray]
    H: Callable[[np.ndarray], np.ndarray]
    alpha: float
    beta: float
    radius: float
    lip_cert: float
    grid: np.ndarray


@dataclass(frozen=True)
class MixtureAnalysis:
    alpha: float
    lip: float
    radius: float
    beta: float


@dataclass(frozen=True)
class Infeasible:
    reason: str
    radius_cap: float


def _hull(alpha: float, beta: float, radius: float) -> Callable[[np.ndarray], np.ndarray]:
    """The subtracted part: -(a+b)x^2 inside [-R, R], tangent linear outside."""
    c = alpha + beta

    def H(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        inside = -c * x * x
        # tangent continuation of the parabola at |x| = R
        outside = -(2.0 * c * radius * ax - c * radius * radius)
        return np.where(ax <= radius, inside, outside)

    return H


def lemma4_decompose(
    U: Callable[[float], float],
    alpha: float,
    beta: float,
    radius: float,
    grid_halfwidth: float = 10.0,
    grid_step: float = 0.02,
) -> Decomposition:
    """Split U into an alpha-convex part V and a Lipschitz part H.

    The hypotheses U'' >= alpha for |x| >= radius and U'' >= -beta for
    |x| < radius are verified by central differences on a uniform grid over
    [-radius - grid_halfwidth, radius + grid_halfwidth]; a violation raises
    PreconditionError naming the offending point.
    """
    if beta < 0 or radius < 0:
        raise ValidationError("beta and radius must be nonnegative")
    if not grid_step > 0:
        raise ValidationError("grid_step must be positive")
    half = radius + grid_halfwidth
    n = int(np.ceil(2.0 * half / grid_step)) + 1
    grid = np.linspace(-half, half, n)
    tol = 1e-6
    for x in grid:
        u2 = finite_diff_second(U, float(x), 1e-4)
        if abs(x) >= radius:
            if u2 < alpha - tol:
                raise PreconditionError(
                    f"U''({x:.6g}) = {u2:.6g} < alpha = {alpha} outside radius {radius}"
                )
        elif u2 < -beta - tol:
            raise PreconditionError(
                f"U''({x:.6g}) = {u2:.6g} < -beta = {-beta} inside radius {radius}"
            )

    H = _hull(alpha, beta, radius)

    def V(x):
        if np.ndim(x) == 0:
            return float(U(float(x))) - float(H(float(x)))
        x = np.asarray(x, dtype=float)
        u = np.array([U(float(xi)) for xi in x.ravel()]).reshape(x.shape)
        return u - H(x)

    lip_cert = 2.0 * (alpha + beta) * radius
    return Decomposition(V=V, H=H, alpha=alpha, beta=beta, radius=radius,
                         lip_cert=lip_cert, grid=grid)


def _search_points(mixture: GaussianMixture) -> tuple[np.ndarray, float]:
    """Where ``analyze_mixture_1d`` evaluates the curvature bound, and the step:
    a grid of step sigma_max/50 over the means' span plus 20 sigma_max, and +-4
    sigma_max about each root of 2(l_i - l_j) = a x^2 + b x + c, l_k = log(w_k N(x;
    m_k, v_k)): the curvature dips where a wider component overtakes a narrower."""
    m, v, w = mixture.means[:, 0], mixture.variances, mixture.weights
    sigma_max = float(np.sqrt(np.max(v)))
    step = sigma_max / 50.0
    xs = np.arange(0.0, float(np.max(np.abs(m))) + 20.0 * sigma_max + step, step)
    i, j = np.triu_indices(w.size, 1)
    a, b = 1.0 / v[j] - 1.0 / v[i], 2.0 * (m[i] / v[i] - m[j] / v[j])
    c = m[j] ** 2 / v[j] - m[i] ** 2 / v[i] + 2.0 * np.log(w[i] / w[j]) - np.log(v[i] / v[j])
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))  # no cancellation
    with np.errstate(divide="ignore", invalid="ignore"):  # a = 0 or q = 0: no such root
        roots = np.concatenate([q / a, c / q])[np.tile(disc >= 0, 2)]
    windows = roots[np.isfinite(roots), None] + step * np.arange(-200, 201)
    return np.concatenate([-xs[:0:-1], xs, windows.ravel()]), step


def analyze_mixture_1d(
    mixture: GaussianMixture, radius_cap: float | None = None
) -> MixtureAnalysis | Infeasible:
    """Derive (alpha, lip, radius, beta) making a 1D mixture a Lipschitz
    perturbation of a strongly log-concave density.

    alpha = K/2 where K is the common convexity modulus of the component
    potentials; radius is the smallest radius outside which the refined
    curvature lower bound stays >= K/2 on the search points (a grid, and a
    window about each crossover of two components); beta covers the worst
    dip inside.  The default radius_cap is the search points' extent.
    """
    if mixture.dim != 1:
        raise ValidationError("mixture must be 1D")
    K = 1.0 / float(np.max(mixture.variances))
    if mixture.weights.size == 1:
        return MixtureAnalysis(alpha=K, lip=0.0, radius=0.0, beta=0.0)

    xs, step = _search_points(mixture)
    sigma_max = float(np.sqrt(np.max(mixture.variances)))
    half = float(np.max(np.abs(xs)))
    if radius_cap is None:
        radius_cap = half
    # cross terms decay exponentially away from the crossovers; the four
    # points past the search points spot-check the monotone tail
    tail = half + np.array([5.0, 10.0]) * sigma_max
    refined, _ = mixture_hessian_lower(mixture, np.concatenate([xs, tail, -tail])[:, None])
    vals, tail_vals = refined[:xs.size, 0, 0], refined[xs.size:, 0, 0]

    target = 0.5 * K
    bad = np.abs(xs)[vals < target]
    if bad.size == 0:
        radius = 0.0
    else:
        radius = float(np.max(bad)) + step
    if radius > radius_cap:
        return Infeasible(
            reason=f"curvature bound below K/2 out to the radius cap {radius_cap}",
            radius_cap=radius_cap,
        )
    low = np.concatenate([tail, tail])[tail_vals < target]
    if low.size:
        return Infeasible(
            reason=f"curvature bound still below K/2 at |x| = {float(low.min())}",
            radius_cap=radius_cap,
        )
    beta = max(0.0, -float(np.min(vals)))
    alpha = target
    lip = 2.0 * (alpha + beta) * radius
    return MixtureAnalysis(alpha=alpha, lip=lip, radius=radius, beta=beta)
