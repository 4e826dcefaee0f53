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
from .errors import NumericalError, PreconditionError, ValidationError, check_finite
from .measures import GaussianMixture, _kernel

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
) -> Decomposition:
    """Split U into an alpha-convex part V and a Lipschitz part H.

    The hypotheses U'' >= alpha for |x| >= radius and U'' >= -beta for
    |x| < radius are verified by central differences on a grid of step 0.02 over
    [-radius - grid_halfwidth, radius + grid_halfwidth]; the first violation
    raises PreconditionError naming the point, a non-finite U NumericalError.
    """
    check_finite(alpha=alpha, beta=beta, radius=radius, grid_halfwidth=grid_halfwidth)
    if beta < 0 or radius < 0:
        raise ValidationError("beta and radius must be nonnegative")
    half = radius + grid_halfwidth
    n = int(np.ceil(2.0 * half / 0.02)) + 1
    grid = np.linspace(-half, half, n)
    h, tol = 1e-4, 1e-6
    vals = np.array([U(x) for x in np.concatenate([grid - h, grid, grid + h]).tolist()],
                    dtype=float).reshape(3, n)
    finite = np.all(np.isfinite(vals), axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        u2 = (vals[0] - 2.0 * vals[1] + vals[2]) / (h * h)
    outside = np.abs(grid) >= radius
    bad = ~finite | (u2 < np.where(outside, alpha, -beta) - tol)
    if np.any(bad):
        i = int(np.argmax(bad))
        x = float(grid[i])
        if not finite[i]:
            raise NumericalError(f"non-finite value near x={x}")
        name, bound = ("alpha", alpha) if outside[i] else ("-beta", -beta)
        raise PreconditionError(f"U''({x:.6g}) = {u2[i]:.6g} < {name} = {bound} "
                                f"{'outside' if outside[i] else 'inside'} radius {radius}")

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


def _search_points(mixture: GaussianMixture) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Where ``analyze_mixture_1d`` evaluates the curvature bound, and the step:
    a grid of step sigma_max/50 over the means' span plus 20 sigma_max, and +-4
    sigma_max about each root of 2(l_i - l_j) = a x^2 + b x + c, l_k = log(w_k N(x;
    m_k, v_k)): the curvature dips where a wider component overtakes a narrower.
    Last, where the floats about a root are coarser than step/64, too coarse for its
    window, the window's outer end, past the root's rounding, and the depth of the
    pair's dip there, (g_i - g_j)^2/4 = disc/16."""
    m, v, w = mixture.means[:, 0], mixture.variances, mixture.weights
    sigma_max = float(np.sqrt(np.max(v)))
    step = sigma_max / 50.0
    xs = np.arange(0.0, float(np.max(np.abs(m))) + 20.0 * sigma_max + step, step)
    i, j = np.triu_indices(w.size, 1)
    # 1/v_j - 1/v_i without cancellation: v_i - v_j is exact where the variances are close
    a, b = (v[i] - v[j]) / (v[i] * v[j]), 2.0 * (m[i] / v[i] - m[j] / v[j])
    c = m[j] ** 2 / v[j] - m[i] ** 2 / v[i] + 2.0 * np.log(w[i] / w[j]) - np.log(v[i] / v[j])
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))  # no cancellation
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a = 0 or q = 0: no root
        roots = np.concatenate([q / a, c / q])
    dips = np.tile(disc / 16.0, 2)
    # a root at |x| >= 1e150 belongs to an equal-variance pair (a = 0, root -c/b with
    # b = 2 dm/v) with dm <~ |c| v 1e-150; its scores differ by dm/v everywhere, so it
    # lowers the curvature by at most (dm/v)^2/4 < 1e-300 c^2, and a window would overflow
    keep = np.tile(disc >= 0, 2) & (np.abs(roots) < 1e150)
    roots, dips = roots[keep], dips[keep]
    coarse = np.spacing(np.abs(roots)) > step / 64.0
    ends = np.abs(roots[coarse]) * (1.0 + 16.0 * np.finfo(float).eps) + 4.0 * sigma_max
    windows = roots[:, None] + step * np.arange(-200, 201)
    return np.concatenate([-xs[:0:-1], xs, windows.ravel()]), step, ends, dips[coarse]


def _refine_minima(mixture: GaussianMixture, xs: np.ndarray, vals: np.ndarray, step: float,
                   below: float) -> tuple[np.ndarray, np.ndarray]:
    """Points and curvature-bound values about each strict local minimum of
    ``vals`` below ``below`` among neighbouring search points (a step apart),
    where a dip can fall below both neighbours: three 17-point sub-grids over
    +-h about the lowest point so far, with h = step, step/8 and step/64."""
    d = np.diff(xs)
    near = (d > 0) & (d < 1.5 * step)
    mid = vals[1:-1]
    centres = xs[1:-1][near[:-1] & near[1:] & (mid < vals[:-2]) & (mid < vals[2:]) & (mid < below)]
    pts, out = [np.empty(0)], [np.empty(0)]
    for h in (step, step / 8.0, step / 64.0) if centres.size else ():
        sub = centres[:, None] + h * np.linspace(-1.0, 1.0, 17)
        v = mixture_hessian_lower(mixture, sub.reshape(-1, 1))[0][:, 0, 0].reshape(sub.shape)
        pts.append(sub.ravel())
        out.append(v.ravel())
        centres = sub[np.arange(centres.size), np.argmin(v, axis=1)]
    return np.concatenate(pts), np.concatenate(out)


def analyze_mixture_1d(
    mixture: GaussianMixture, radius_cap: float | None = None
) -> MixtureAnalysis | Infeasible:
    """Derive (alpha, lip, radius, beta) making a 1D mixture a Lipschitz
    perturbation of a strongly log-concave density.

    alpha = K/2 where K is the common convexity modulus of the component
    potentials; radius is the smallest radius outside which the refined
    curvature lower bound stays >= K/2 on the search points (a grid, and a
    window about each crossover of two components) and on sub-grids about
    each of their strict local minima below 3K/4; beta covers the worst dip
    inside.  The default radius_cap is the search points' extent.
    """
    # a CapabilityError for any other family, before .variances below can raise
    # AttributeError; mixture_hessian_lower, called later, looks it up again
    _kernel(mixture, "_posterior")
    if mixture.dim != 1:
        raise ValidationError(f"mixture must be 1D, got dim {mixture.dim}")
    K = 1.0 / float(np.max(mixture.variances))
    if mixture.weights.size == 1:
        return MixtureAnalysis(alpha=K, lip=0.0, radius=0.0, beta=0.0)

    xs, step, coarse, dips = _search_points(mixture)
    sigma_max = float(np.sqrt(np.max(mixture.variances)))
    half = float(np.max(np.abs(np.concatenate([xs, coarse]))))
    if radius_cap is None:
        radius_cap = half
    # cross terms decay exponentially away from the crossovers; the four
    # points past the search points spot-check the monotone tail
    tail = half + np.array([5.0, 10.0]) * sigma_max
    refined, _ = mixture_hessian_lower(mixture, np.concatenate([xs, tail, -tail])[:, None])
    vals, tail_vals = refined[:xs.size, 0, 0], refined[xs.size:, 0, 0]

    target = 0.5 * K
    # refine the dips that reach below K/2 plus a margin of K/4
    rx, rv = _refine_minima(mixture, xs, vals, step, 0.75 * K)
    # about a crossover the floats cannot resolve, the bound at r_i = r_j = 1/2
    xs, vals = np.concatenate([xs, rx, coarse]), np.concatenate([vals, rv, K - dips])
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
