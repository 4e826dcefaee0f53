"""Probability measures: Gaussian mixtures, atoms, perturbed log-concave
densities, and the heavy-certificate atomic construction.

All measures are immutable after construction.  Densities of the perturbed
class are piecewise log-quadratic, so every Gaussian convolution / tilt has
a closed form in terms of truncated-Gaussian integrals; the helpers at the
top of this file implement those integrals in log-space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CapabilityError, NumericalError, ValidationError

__all__ = [
    "GaussianMixture",
    "AtomicMeasure",
    "PerturbedLogConcave1D",
    "CounterexampleMeasure",
    "ConvolvedDensity1D",
    "make_gaussian_mixture",
    "make_perturbed",
    "standard_gaussian",
    "log_density",
    "score",
    "log_hessian",
    "convolve_gaussian",
    "sample",
    "dilate",
    "mean_variance_1d",
    "cdf_1d",
    "measure_from_json",
]

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# truncated-Gaussian panel integrals
# ---------------------------------------------------------------------------

def _logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` of an array of at most 2 dimensions, or
    over all entries (a float).

    The summed axis is swapped to the front and made contiguous: numpy reduces
    a short trailing axis row by row, about 8x slower on an (n, 2) array."""
    a = np.asarray(a, dtype=float)
    a = a.reshape(-1) if axis is None else np.ascontiguousarray(np.swapaxes(a, 0, axis))
    m = np.max(a, axis=0)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=0)) + m
    return float(out) if axis is None else out


def _log_gauss_mass(a, b):
    """log(Phi(b) - Phi(a)) for a <= b, elementwise, +-inf allowed.

    Each interval is first reflected so that its centre is <= 0: then
    Phi(lo) <= 1/2, and the difference never cancels two numbers close to 1.
    """
    from scipy.special import log_ndtr

    a, b = np.asarray(a, float), np.asarray(b, float)
    flip = a > -b  # a + b > 0, without inf - inf
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    l_hi = log_ndtr(hi)
    # fmin: an empty interval at -inf gives -inf - (-inf) = nan, and mass 0
    return l_hi + np.log1p(-np.exp(np.fmin(log_ndtr(lo) - l_hi, 0.0)))


def _panel_moments(C, B, A, edges):
    """Aggregate (log_mass, mean, variance) of the piecewise-Gaussian density
    exp(-C x^2/2 + B x + A_p) on panels delimited by ``edges``.

    ``edges`` has length P+1 and runs from -inf to +inf; B and A broadcast
    with a leading panel axis of length P, so that the sums over panels run
    over contiguous rows.  On each panel the density is a Gaussian with mode
    m = B/C and scale sigma = C^{-1/2}, truncated to [a, b] in standard units;
    only the 2(P-1) finite edges enter, as the outer panels are one-sided.
    """
    sigma = 1.0 / math.sqrt(C)
    m = B / C
    inner = edges[1:-1].reshape((-1,) + (1,) * (B.ndim - 1))
    b = (inner - m[:-1]) / sigma  # upper edges of panels 0..P-2
    a = (inner - m[1:]) / sigma  # lower edges of panels 1..P-1
    logZ = np.zeros(m.shape)
    if len(m) > 1:
        from scipy.special import log_ndtr

        logZ[0], logZ[-1] = log_ndtr(b[0]), log_ndtr(-a[-1])
        if len(m) > 2:
            logZ[1:-1] = _log_gauss_mass(a[:-1], b[1:])
    log_mass = A + B * B / (2.0 * C) + 0.5 * math.log(2.0 * math.pi / C) + logZ
    # phi(a)/Z and phi(b)/Z; a panel with Z = 0 gets pi = 0 and is masked out
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = np.exp(-0.5 * a * a - 0.5 * _LOG_2PI - logZ[1:])
        d2 = np.exp(-0.5 * b * b - 0.5 * _LOG_2PI - logZ[:-1])
        dd = np.zeros(m.shape)  # phi(a)/Z - phi(b)/Z
        dd[1:] = d1
        dd[:-1] -= d2
        s = np.ones(m.shape)  # 1 + a phi(a)/Z - b phi(b)/Z
        s[1:] += a * d1
        s[:-1] -= b * d2
    mean_p = m + sigma * dd
    var_p = sigma * sigma * (s - dd * dd)

    M = np.max(log_mass, axis=0)
    M = np.where(np.isfinite(M), M, 0.0)
    w = np.exp(log_mass - M)
    W = np.sum(w, axis=0)
    pi = w / W
    keep = pi > 0
    mean_p = np.where(keep, mean_p, 0.0)
    var_p = np.where(keep, np.maximum(var_p, 0.0), 0.0)
    mean = np.sum(pi * mean_p, axis=0)
    var = np.sum(pi * (var_p + (mean_p - mean) ** 2), axis=0)
    return M + np.log(W), mean, np.maximum(var, 0.0)


# ---------------------------------------------------------------------------
# piecewise-linear functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function anchored to value 0 at x=0."""

    knots: np.ndarray
    slopes: np.ndarray
    knot_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        knots = np.atleast_1d(np.asarray(self.knots, dtype=float))
        slopes = np.atleast_1d(np.asarray(self.slopes, dtype=float))
        if knots.size + 1 != slopes.size:
            raise ValidationError("need len(slopes) == len(knots) + 1")
        if knots.size and np.any(np.diff(knots) <= 0):
            raise ValidationError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "slopes", slopes)
        kv = np.zeros(knots.size)
        if knots.size:
            # value at each knot, anchored so that f(0) = 0
            j0 = int(np.searchsorted(knots, 0.0, side="right"))
            kv_rel = np.zeros(knots.size)
            for i in range(1, knots.size):
                kv_rel[i] = kv_rel[i - 1] + slopes[i] * (knots[i] - knots[i - 1])
            if j0 == 0:
                f0 = kv_rel[0] + slopes[0] * (0.0 - knots[0])
            else:
                f0 = kv_rel[j0 - 1] + slopes[j0] * (0.0 - knots[j0 - 1])
            kv = kv_rel - f0
        object.__setattr__(self, "knot_values", kv)

    def segment_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment (a_j, b_j) with f(x) = a_j + b_j x on segment j."""
        n = self.knots.size
        b = self.slopes.copy()
        a = np.zeros(n + 1)
        if n:
            a[0] = self.knot_values[0] - b[0] * self.knots[0]
            for j in range(1, n + 1):
                a[j] = self.knot_values[j - 1] - b[j] * self.knots[j - 1]
        return a, b

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.knots.size == 0:
            return self.slopes[0] * x
        idx = np.searchsorted(self.knots, x, side="right")
        a, b = self.segment_coeffs()
        return a[idx] + b[idx] * x

    def slope_at(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.knots, x, side="right")
        return self.slopes[idx]


# ---------------------------------------------------------------------------
# measure classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianMixture:
    """Finite mixture of isotropic Gaussians on R^dim."""

    dim: int
    weights: np.ndarray  # (k,)
    means: np.ndarray    # (k, dim)
    variances: np.ndarray  # (k,) component covariance = variances[k] * I

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        v = np.asarray(self.variances, dtype=float)
        if self.dim < 1:
            raise ValidationError("dim must be a positive integer")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m)) and np.all(np.isfinite(v))):
            raise ValidationError("weights, means and variances must be finite")
        if w.size < 1:
            raise ValidationError("need at least one component")
        if np.any(w <= 0) or np.any(v <= 0):
            raise ValidationError("weights and variances must be positive")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValidationError("weights must sum to 1")
        if m.shape != (w.size, self.dim):
            raise ValidationError("means must have shape (k, dim)")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite weighted sum of Dirac masses."""

    dim: int
    weights: np.ndarray    # (k,)
    locations: np.ndarray  # (k, dim)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        x = np.atleast_2d(np.asarray(self.locations, dtype=float))
        if np.any(w <= 0):
            raise ValidationError("atom weights must be positive")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValidationError("atom weights must sum to 1")
        if x.shape != (w.size, self.dim):
            raise ValidationError("locations must have shape (k, dim)")
        if len({tuple(row) for row in x}) != x.shape[0]:
            raise ValidationError("atom locations must be pairwise distinct")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "locations", x)

    @property
    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)


@dataclass(frozen=True)
class PerturbedLogConcave1D:
    """Density proportional to exp(-(alpha/2) x^2 - V_extra(x) - H(x)).

    ``V_extra`` is convex piecewise linear (nondecreasing knot slopes) and
    ``H`` is piecewise linear with slopes bounded by ``lip``.
    """

    alpha: float
    v_extra: PiecewiseLinear
    h: PiecewiseLinear
    lip: float
    dim: int = 1
    log_normalizer: float = field(init=False)
    panel_edges: np.ndarray = field(init=False, repr=False)
    panel_a: np.ndarray = field(init=False, repr=False)
    panel_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValidationError("alpha must be positive")
        if self.lip < 0:
            raise ValidationError("lip must be nonnegative")
        if np.any(np.diff(self.v_extra.slopes) < -1e-12):
            raise ValidationError("V_extra must be convex (nondecreasing slopes)")
        if np.any(np.abs(self.h.slopes) > self.lip + 1e-12):
            raise ValidationError("H slopes must be bounded by lip")
        knots = np.unique(np.concatenate([self.v_extra.knots, self.h.knots]))
        edges = np.concatenate([[-np.inf], knots, [np.inf]])
        # combined linear part a_p + b_p x of V_extra + H on each panel,
        # sampled at panel midpoints
        if knots.size:
            mids = np.concatenate(
                [[knots[0] - 1.0], 0.5 * (knots[:-1] + knots[1:]), [knots[-1] + 1.0]]
            )
        else:
            mids = np.array([0.0])
        av, bv = self.v_extra.segment_coeffs()
        ah, bh = self.h.segment_coeffs()
        iv = np.searchsorted(self.v_extra.knots, mids, side="right")
        ih = np.searchsorted(self.h.knots, mids, side="right")
        a = av[iv] + ah[ih]
        b = bv[iv] + bh[ih]
        object.__setattr__(self, "panel_edges", edges)
        object.__setattr__(self, "panel_a", a)
        object.__setattr__(self, "panel_b", b)
        logZ, _, _ = _panel_moments(self.alpha, -b, -a, edges)
        if not np.isfinite(logZ):
            raise ValidationError("density is not normalizable")
        object.__setattr__(self, "log_normalizer", float(logZ))

    def potential(self, x):
        """W(x) with density = exp(-W(x) - log_normalizer)."""
        x = np.asarray(x, dtype=float)
        return 0.5 * self.alpha * x * x + self.v_extra(x) + self.h(x)

    def potential_slope(self, x):
        x = np.asarray(x, dtype=float)
        return self.alpha * x + self.v_extra.slope_at(x) + self.h.slope_at(x)


@dataclass(frozen=True)
class CounterexampleMeasure:
    """Atoms at x_i = i(i+1)/2 with weights prop. to (i+1)^-2 exp(-psi(x_i)).

    The infinite series is truncated at index ``truncation``; weights are
    kept in log-space because they span hundreds of orders of magnitude.
    """

    psi: Callable[[float], float]
    truncation: int
    locations: np.ndarray = field(init=False)
    log_weights: np.ndarray = field(init=False, repr=False)  # normalized logs
    psi_values: np.ndarray = field(init=False, repr=False)
    tail_bound: float = field(init=False)
    exp_psi_moment: float = field(init=False)
    dim: int = 1

    def __post_init__(self) -> None:
        n = self.truncation
        if n < 2:
            raise ValidationError("truncation must be >= 2")
        i = np.arange(n + 1)
        xs = i * (i + 1) / 2.0
        psi_vals = np.array([float(self.psi(x)) for x in xs])
        if np.any(psi_vals < 0):
            raise ValidationError("psi must be nonnegative")
        if np.any(np.diff(psi_vals) < 0):
            raise ValidationError("psi must be nondecreasing on the atom set")
        raw = -2.0 * np.log(i + 1.0) - psi_vals
        logZ = _logsumexp(raw)
        # dropped raw mass <= e^{-psi(x_{n+1})} * sum_{i>n} (i+1)^{-2}
        tail = math.exp(-float(self.psi((n + 1) * (n + 2) / 2.0))) / (n + 1)
        object.__setattr__(self, "locations", xs)
        object.__setattr__(self, "log_weights", raw - logZ)
        object.__setattr__(self, "psi_values", psi_vals)
        object.__setattr__(self, "tail_bound", tail / math.exp(logZ))
        # int e^psi dmu over the full series: the psi factors cancel, so the
        # numerator is sum (i+1)^{-2} = pi^2/6 exactly.
        object.__setattr__(
            self, "exp_psi_moment", (math.pi**2 / 6.0) / math.exp(logZ)
        )


Measure = GaussianMixture | AtomicMeasure | PerturbedLogConcave1D | CounterexampleMeasure


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_gaussian_mixture(components: Sequence[tuple], dim: int | None = None) -> GaussianMixture:
    """Build a mixture from (weight, mean, variance) triples.

    Weights are normalized; duplicate (mean, variance) components are merged.
    """
    if not components:
        raise ValidationError("need at least one component")
    ws, ms, vs = [], [], []
    for w, m, v in components:
        m = np.atleast_1d(np.asarray(m, dtype=float))
        ws.append(float(w))
        ms.append(m)
        vs.append(float(v))
    if dim is None:
        dim = ms[0].size
    merged: dict[tuple, float] = {}
    for w, m, v in zip(ws, ms, vs):
        if not (0 < w < math.inf and 0 < v < math.inf):
            raise ValidationError("weights and variances must be positive and finite")
        key = (tuple(m.tolist()), v)
        merged[key] = merged.get(key, 0.0) + w
    weights = np.array(list(merged.values()))
    weights = weights / np.sum(weights)
    means = np.array([k[0] for k in merged], dtype=float).reshape(len(merged), dim)
    variances = np.array([k[1] for k in merged], dtype=float)
    return GaussianMixture(dim=dim, weights=weights, means=means, variances=variances)


def make_perturbed(
    alpha: float,
    v_knots: Sequence[float] = (),
    v_slopes: Sequence[float] = (0.0,),
    h_knots: Sequence[float] = (),
    h_slopes: Sequence[float] = (0.0,),
    lip: float | None = None,
) -> PerturbedLogConcave1D:
    v = PiecewiseLinear(np.asarray(v_knots, float), np.asarray(v_slopes, float))
    h = PiecewiseLinear(np.asarray(h_knots, float), np.asarray(h_slopes, float))
    if lip is None:
        lip = float(np.max(np.abs(h.slopes)))
    return PerturbedLogConcave1D(alpha=float(alpha), v_extra=v, h=h, lip=float(lip))


def standard_gaussian(dim: int = 1) -> GaussianMixture:
    return make_gaussian_mixture([(1.0, np.zeros(dim), 1.0)], dim=dim)


# ---------------------------------------------------------------------------
# densities, scores, Hessians
# ---------------------------------------------------------------------------

def _points(measure, x) -> tuple[np.ndarray, bool]:
    """x as a batch of shape (n, dim), and whether it was a single point
    (shape (dim,), or a scalar in 1D).  Non-finite coordinates are rejected."""
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    zs = x.reshape(1, -1) if single else x
    if zs.ndim != 2 or zs.shape[1] != measure.dim:
        raise ValidationError(f"points have shape {x.shape}, expected dim {measure.dim}")
    if not np.isfinite(zs).all():
        raise ValidationError("points must be finite")
    return zs, single


def _mixture_posterior(mu: GaussianMixture, xs: np.ndarray):
    """Component logits log(w_k N(x; m_k, v_k I)) (k, n), posterior
    responsibilities (k, n), component scores -(x - m_k)/v_k (k, d, n) and
    the log-density (n,), at each row x of xs; the component axis leads, so
    each reduction over it adds whole rows (see ``_logsumexp``)."""
    dm = mu.means[:, :, None] - xs.T[None, :, :]
    logits = (
        np.log(mu.weights) - 0.5 * mu.dim * (_LOG_2PI + np.log(mu.variances))
    )[:, None] - 0.5 * np.sum(dm * dm, axis=1) / mu.variances[:, None]
    log_density = _logsumexp(logits, axis=0)
    resp = np.exp(logits - log_density)
    return logits, resp, dm / mu.variances[:, None, None], log_density


def _pool(r, vecs, var):
    """Mean (d, n) and covariance (d, d, n), pooled about the mean, of the
    mixture with weights r (k, n) of N(vecs_k, var_k I), vecs (k, d, n)."""
    mean = np.einsum("kn,kin->in", r, vecs)
    c = vecs - mean
    cov = np.einsum("kn,kin,kjn->ijn", r, c, c, order="C")  # so reshape is a view
    cov.reshape(-1, cov.shape[2])[:: mean.shape[0] + 1] += var @ r  # the diagonal
    return mean, cov


def _density_points(measure, x) -> tuple[np.ndarray, bool]:
    """``_points`` for a measure with a density: a mixture or a perturbed one."""
    if not isinstance(measure, (GaussianMixture, PerturbedLogConcave1D)):
        raise CapabilityError(f"{type(measure).__name__} has no density")
    return _points(measure, x)


def log_density(measure: Measure, x):
    """Log-density at one point (a float) or at each row of a batch of shape
    (n, dim) (an (n,) array)."""
    zs, single = _density_points(measure, x)
    if isinstance(measure, GaussianMixture):
        out = _mixture_posterior(measure, zs)[3]
    else:
        out = -measure.potential(zs[:, 0]) - measure.log_normalizer
    return float(out[0]) if single else out


def score(measure: Measure, x) -> np.ndarray:
    """Gradient of the log-density: (dim,) at a point, (n, dim) for a batch."""
    zs, single = _density_points(measure, x)
    if isinstance(measure, GaussianMixture):
        _, r, g, _ = _mixture_posterior(measure, zs)
        out = np.einsum("kn,kin->ni", r, g)
    else:
        out = -measure.potential_slope(zs)
    return out[0] if single else out


def log_hessian(measure: Measure, x) -> np.ndarray:
    """Hessian of the log-density as a full symmetric matrix: (dim, dim) at a
    point, (n, dim, dim) for a batch."""
    zs, single = _density_points(measure, x)
    if isinstance(measure, GaussianMixture):
        _, r, g, _ = _mixture_posterior(measure, zs)
        out = _pool(r, g, -1.0 / measure.variances)[1].transpose(2, 0, 1)
    else:
        out = np.full((zs.shape[0], 1, 1), -measure.alpha)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Gaussian convolution and dilation
# ---------------------------------------------------------------------------

class ConvolvedDensity1D:
    """Density oracle for mu * gamma_t when mu has no closed-form class."""

    def __init__(self, base: Measure, t: float):
        if not t > 0:
            raise ValidationError("t must be positive")
        self.base = base
        self.t = float(t)
        self.dim = 1

    def log_pdf(self, z):
        """Log-density at one point, or at each row of a batch of shape (n, 1)."""
        from .heatflow import tilted_log_mass

        return tilted_log_mass(self.base, z, self.t)

    def pdf(self, z):
        return np.exp(self.log_pdf(z))

    def log_hessian_at(self, z):
        from .heatflow import log_hessian_heat

        return log_hessian_heat(self.base, z, self.t)


def convolve_gaussian(measure: Measure, t: float):
    """Heat semigroup at time t: mu -> mu * gamma_t."""
    if not t > 0:
        raise ValidationError("t must be positive")
    if isinstance(measure, GaussianMixture):
        return GaussianMixture(
            dim=measure.dim,
            weights=measure.weights,
            means=measure.means,
            variances=measure.variances + t,
        )
    if isinstance(measure, AtomicMeasure):
        return GaussianMixture(
            dim=measure.dim,
            weights=measure.weights,
            means=measure.locations,
            variances=np.full(measure.weights.size, float(t)),
        )
    if isinstance(measure, (PerturbedLogConcave1D, CounterexampleMeasure)):
        return ConvolvedDensity1D(measure, t)
    raise CapabilityError(f"cannot convolve {type(measure).__name__}")


def _with_fields(obj, **fields):
    """Shallow copy of a frozen dataclass with ``fields`` replaced and
    ``__post_init__`` skipped: the caller keeps the fields consistent."""
    out = object.__new__(type(obj))
    out.__dict__.update(obj.__dict__, **fields)
    return out


def dilate(measure: Measure, c: float):
    """Law of c*X for X ~ measure (0 < c < inf)."""
    if not 0 < c < math.inf:
        raise ValidationError("dilation factor must be positive and finite")
    if isinstance(measure, GaussianMixture):
        # a field copy: only the scaled means and variances can leave the
        # valid range, by overflow or underflow, which the check reports
        with np.errstate(over="ignore", under="ignore"):
            means, variances = measure.means * c, measure.variances * c * c
        if not (np.all(np.isfinite(means)) and np.all((variances > 0) & (variances < math.inf))):
            raise ValidationError(f"dilation by {c!r} takes the mixture's means or "
                                  "variances out of the finite positive range")
        return _with_fields(measure, means=means, variances=variances)
    if isinstance(measure, AtomicMeasure):
        return AtomicMeasure(
            dim=measure.dim, weights=measure.weights, locations=measure.locations * c
        )
    if isinstance(measure, PerturbedLogConcave1D):
        # cX has potential W(y/c): knots and panel edges scale by c, slopes
        # by 1/c and alpha by 1/c^2; knot values and panel offsets are kept,
        # and the normalizing integral gains a factor c
        v, h = measure.v_extra, measure.h
        return _with_fields(
            measure,
            alpha=measure.alpha / (c * c),
            v_extra=_with_fields(v, knots=v.knots * c, slopes=v.slopes / c),
            h=_with_fields(h, knots=h.knots * c, slopes=h.slopes / c),
            lip=measure.lip / c,
            log_normalizer=measure.log_normalizer + math.log(c),
            panel_edges=measure.panel_edges * c,
            panel_b=measure.panel_b / c,
        )
    raise CapabilityError(f"cannot dilate {type(measure).__name__}")


# ---------------------------------------------------------------------------
# moments, CDFs, sampling
# ---------------------------------------------------------------------------

def mean_variance_1d(measure) -> tuple[float, float]:
    if isinstance(measure, GaussianMixture):
        if measure.dim != 1:
            raise CapabilityError("1D only")
        m = measure.means[:, 0]
        mean = float(np.dot(measure.weights, m))
        var = float(np.dot(measure.weights, measure.variances + (m - mean) ** 2))
        return mean, var
    if isinstance(measure, (AtomicMeasure, CounterexampleMeasure)):
        x, w = _sorted_atoms_1d(measure)
        mean = float(np.dot(w, x))
        return mean, float(np.dot(w, (x - mean) ** 2))
    if isinstance(measure, PerturbedLogConcave1D):
        _, mean, var = _panel_moments(
            measure.alpha, -measure.panel_b, -measure.panel_a, measure.panel_edges
        )
        return float(mean), float(var)
    raise CapabilityError(f"no moments for {type(measure).__name__}")


def _sorted_atoms_1d(measure) -> tuple[np.ndarray, np.ndarray]:
    """Locations of a 1D atomic measure in increasing order, and their
    normalized weights."""
    if measure.dim != 1:
        raise CapabilityError("1D only")
    xs = measure.locations.reshape(-1)
    order = np.argsort(xs)
    lw = measure.log_weights
    return xs[order], np.exp(lw - _logsumexp(lw))[order]


def cdf_1d(measure, x) -> np.ndarray:
    """CDF evaluated at a scalar or array of points (1D measures only)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(measure, GaussianMixture):
        if measure.dim != 1:
            raise CapabilityError("1D only")
        from scipy.special import ndtr

        z = (x[:, None] - measure.means[None, :, 0]) / np.sqrt(measure.variances)[None, :]
        return ndtr(z) @ measure.weights
    if isinstance(measure, (AtomicMeasure, CounterexampleMeasure)):
        xs, w = _sorted_atoms_1d(measure)
        cum = np.cumsum(w)
        idx = np.searchsorted(xs, x, side="right")
        return np.concatenate([[0.0], cum])[idx]
    if isinstance(measure, PerturbedLogConcave1D):
        # the whole panels below the panel k holding x, plus panel k over [edge k, x]
        C, edges = measure.alpha, measure.panel_edges
        m, sigma = -measure.panel_b / C, 1.0 / math.sqrt(C)
        log_scale = (0.5 * C * m * m - measure.panel_a + 0.5 * math.log(2.0 * math.pi / C)
                     - measure.log_normalizer)
        lo, hi = (edges[:-1] - m) / sigma, (edges[1:] - m) / sigma
        k = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, m.size - 1)
        with np.errstate(divide="ignore", invalid="ignore"):  # empty piece: x on edge k
            part = _log_gauss_mass(lo[k], (x - m[k]) / sigma)
        below = np.concatenate([[0.0], np.cumsum(np.exp(log_scale + _log_gauss_mass(lo, hi)))])
        return np.clip(below[k] + np.exp(log_scale[k] + part), 0.0, 1.0)
    raise CapabilityError(f"no cdf for {type(measure).__name__}")


def _quantile_grid(measure, n_grid: int = 8001) -> tuple[np.ndarray, np.ndarray]:
    """Monotone (cdf, x) table for inverse-CDF lookups on a 1D density."""
    mean, var = mean_variance_1d(measure)
    half = 10.0 * math.sqrt(var) + 1.0
    xs = np.linspace(mean - half, mean + half, n_grid)
    cdf = cdf_1d(measure, xs)
    cdf = np.maximum.accumulate(cdf)
    return cdf, xs


def quantile_1d(measure, u) -> np.ndarray:
    """Generalized inverse CDF at probabilities u (1D measures)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if isinstance(measure, GaussianMixture) and measure.weights.size == 1:
        from scipy.special import ndtri

        m = float(measure.means[0, 0])
        s = math.sqrt(float(measure.variances[0]))
        return m + s * ndtri(u)
    if isinstance(measure, (AtomicMeasure, CounterexampleMeasure)):
        xs, w = _sorted_atoms_1d(measure)
        cum = np.cumsum(w)
        idx = np.minimum(np.searchsorted(cum, u, side="left"), xs.size - 1)
        return xs[idx]
    cdf, xs = _quantile_grid(measure)
    return np.interp(u, cdf, xs)


def sample(measure, n: int, seed: int = 0) -> np.ndarray:
    """Draw n points; deterministic given the seed.

    Returns shape (n, dim); callers in 1D may squeeze.
    """
    if not (n >= 1 and seed >= 0):
        raise ValidationError("need n >= 1 and seed >= 0")
    rng = np.random.default_rng(seed)
    if isinstance(measure, GaussianMixture):
        idx = rng.choice(measure.weights.size, size=n, p=measure.weights)
        g = rng.standard_normal((n, measure.dim))
        return measure.means[idx] + np.sqrt(measure.variances[idx])[:, None] * g
    if isinstance(measure, AtomicMeasure):
        idx = rng.choice(measure.weights.size, size=n, p=measure.weights)
        return measure.locations[idx]
    if isinstance(measure, CounterexampleMeasure):
        xs = measure.locations
        w = np.exp(measure.log_weights)
        w = w / np.sum(w)
        idx = rng.choice(xs.size, size=n, p=w)
        return xs[idx][:, None]
    if isinstance(measure, PerturbedLogConcave1D):
        u = rng.uniform(size=n)
        return quantile_1d(measure, u)[:, None]
    raise CapabilityError(f"cannot sample {type(measure).__name__}")


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

_PSI_FUNCTIONS = {
    "zero": lambda c: (lambda x: 0.0),
    "linear": lambda c: (lambda x: c * x),
    "quadratic": lambda c: (lambda x: c * x * x),
}


def _json_entries(obj: dict, key: str, fields: str) -> list:
    """obj[key], checked to be a list of [fields] lists."""
    entries = obj.get(key)
    if not (isinstance(entries, list) and all(
            isinstance(e, list) and len(e) == len(fields.split(",")) for e in entries)):
        raise ValidationError(f"'{key}' must be a list of [{fields}] entries")
    return entries


def measure_from_json(obj: dict):
    """Measure JSON schema used by the CLI (weights may be unnormalized)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError("measure JSON needs a 'type' field")
    kind = obj["type"]
    if kind == "gaussian_mixture":
        comps = _json_entries(obj, "components", "weight, mean, variance")
        return make_gaussian_mixture(comps, dim=obj.get("dim"))
    if kind == "atomic":
        atoms = _json_entries(obj, "atoms", "weight, location")
        w = np.array([a[0] for a in atoms], dtype=float)
        locs = np.atleast_2d(np.array([np.atleast_1d(a[1]) for a in atoms], dtype=float))
        w = w / np.sum(w)
        return AtomicMeasure(dim=obj.get("dim", locs.shape[1]), weights=w, locations=locs)
    if kind == "perturbed_1d":
        return make_perturbed(
            alpha=obj["alpha"],
            v_knots=obj.get("v_knots", ()),
            v_slopes=obj.get("v_slopes", (0.0,)),
            h_knots=obj.get("h_knots", ()),
            h_slopes=obj.get("h_slopes", (0.0,)),
            lip=obj.get("lip"),
        )
    if kind == "counterexample":
        name = obj.get("psi", "zero")
        if name not in _PSI_FUNCTIONS:
            raise ValidationError(f"unknown psi '{name}'")
        psi = _PSI_FUNCTIONS[name](float(obj.get("coefficient", 1.0)))
        from .counterexample import build_counterexample

        return build_counterexample(psi, truncation=int(obj.get("truncation", 60)))
    raise ValidationError(f"unknown measure type '{kind}'")
