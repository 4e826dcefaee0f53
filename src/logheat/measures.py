"""Probability measures: Gaussian mixtures, atoms, perturbed log-concave
densities, and the heavy-certificate atomic construction.

All measures are immutable after construction.  Each family owns the kernels
it supports as methods; the public functions check their arguments and find
the kernel through ``_kernel``, which raises ``CapabilityError`` for a family
without it.  Mixtures, atoms and the counterexample are one finite family of
log-weighted Gaussian components of variance s >= 0 (an atom where s = 0),
whose kernels are written once, on ``_Finite``.  Perturbed densities are
piecewise log-quadratic: every Gaussian convolution / tilt is a sum of
truncated-Gaussian integrals, which the helpers at the top implement in logs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CapabilityError, NumericalError, ValidationError, check_integers
from .numerics import ndtr, ndtri

__all__ = [
    "GaussianMixture",
    "AtomicMeasure",
    "PerturbedLogConcave1D",
    "CounterexampleMeasure",
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

def _log_gauss_mass(a, b):
    """log(Phi(b) - Phi(a)) for a <= b, elementwise, +-inf allowed.

    Each interval is first reflected so that its centre is <= 0: then
    Phi(lo) <= 1/2, and the difference never cancels two numbers close to 1.
    Where log Phi(lo) is within 1e-3 of log Phi(hi), their difference has lost
    digits; there the mass is 2h phi(c) (1 + He_2(c) h^2/6 + He_4(c) h^4/120)
    at the centre c, for the half-width h: h max(1, |c|) < 1e-3, so the next
    term is below 1e-20 of it.
    """
    from scipy.special import log_ndtr

    a, b = np.asarray(a, float), np.asarray(b, float)
    flip = a > -b  # a + b > 0, without inf - inf
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    l_hi = log_ndtr(hi)
    # fmin: an empty interval at -inf gives -inf - (-inf) = nan, and mass 0
    d = np.fmin(log_ndtr(lo) - l_hi, 0.0)
    narrow = (d > -1e-3) & (lo <= hi) & (lo > -math.inf)  # nor reversed, nor at -inf
    d[narrow] = -1.0  # replaced below
    out = l_hi + np.log1p(-np.exp(d))
    if narrow.any():
        lo, hi = lo[narrow], hi[narrow]
        v, h = np.square(0.5 * (lo + hi)), 0.5 * (hi - lo)
        u = h * h
        with np.errstate(divide="ignore"):  # an empty interval has mass 0
            log_2h = np.log(2.0 * h)
        out[narrow] = (log_2h - 0.5 * (v + _LOG_2PI)
                       + np.log1p(u * ((v - 1.0) / 6.0 + u * ((v - 6.0) * v + 3.0) / 120.0)))
    return out


def _panel_moments(C, B, A, edges):
    """Aggregate (log_mass, mean, variance) of the piecewise-Gaussian density
    exp(-C x^2/2 + B x + A_p) on panels delimited by ``edges``.

    ``edges`` has length P+1 and runs from -inf to +inf; B and A broadcast
    with a leading panel axis of length P, so that the sums over panels run
    over contiguous rows.  On each panel the density is a Gaussian with mode
    m = B/C and scale sigma = C^{-1/2}, truncated to [a, b] in standard units;
    only the 2(P-1) finite edges enter, as the outer panels are one-sided.
    C is a float, or an array with one precision per point (B's trailing axes).
    Temporaries are updated in place, bit-identical to the expressions in the comments.
    """
    sigma = 1.0 / np.sqrt(C)
    m = B / C
    inner = edges[1:-1].reshape((-1,) + (1,) * (B.ndim - 1))
    ba = np.empty((2,) + m[1:].shape)  # (inner - m) / sigma, for b then a:
    np.subtract(inner, m[:-1], out=ba[0])  # upper edges of panels 0..P-2
    np.subtract(inner, m[1:], out=ba[1])  # lower edges of panels 1..P-1
    ba /= sigma
    b, a = ba
    logZ = np.zeros(m.shape)
    if len(m) > 1:
        from scipy.special import log_ndtr

        logZ[0], logZ[-1] = log_ndtr(b[0]), log_ndtr(-a[-1])
        if len(m) > 2:
            logZ[1:-1] = _log_gauss_mass(a[:-1], b[1:])
    log_mass = B * B  # A + B * B / (2.0 * C) + 0.5 * log(2 pi / C) + logZ
    log_mass /= 2.0 * C
    log_mass += A
    log_mass += 0.5 * np.log(2.0 * math.pi / C)
    log_mass += logZ
    # phi(x)/Z = exp(-0.5 x x - 0.5 log(2 pi) - logZ) at x = b, a; Z = 0 gets pi = 0
    with np.errstate(over="ignore", invalid="ignore"):
        d = ba * -0.5
        d *= ba
        d -= 0.5 * _LOG_2PI
        d[0] -= logZ[:-1]
        d[1] -= logZ[1:]
        d2, d1 = np.exp(d, out=d)
        dd = np.zeros(m.shape)  # phi(a)/Z - phi(b)/Z
        dd[1:] = d1
        dd[:-1] -= d2
        s = np.ones(m.shape)  # 1 + a phi(a)/Z - b phi(b)/Z
        ba *= d
        s[1:] += ba[1]
        s[:-1] -= ba[0]
        var_p = s  # sigma * sigma * (s - dd * dd)
        var_p -= np.square(dd, out=logZ)
        var_p *= sigma * sigma
        mean_p = np.add(m, np.multiply(dd, sigma, out=dd), out=m)  # m + sigma * dd

    M = np.maximum.reduce(log_mass, axis=0)
    pi = np.exp(np.subtract(log_mass, M, out=log_mass), out=log_mass)  # w, then w / W
    W = np.add.reduce(pi, axis=0)
    pi /= W
    log_mass = M + np.log(W)
    np.maximum(var_p, 0.0, out=var_p)
    keep = pi > 0
    if not keep.all():  # panels of weight 0 add nothing; pi is NaN where M is not finite,
        np.copyto(mean_p, 0.0, where=~keep)  # and there the log-mass is M (-inf, inf or NaN)
        np.copyto(var_p, 0.0, where=~keep)
        log_mass = np.where(np.isfinite(M), log_mass, M)
    mean = np.add.reduce(np.multiply(pi, mean_p, out=dd), axis=0)
    # var = sum(pi * (var_p + (mean_p - mean) ** 2))
    np.square(np.subtract(mean_p, mean, out=mean_p), out=mean_p)
    mean_p += var_p
    var = np.add.reduce(np.multiply(pi, mean_p, out=mean_p), axis=0)
    return log_mass, mean, np.maximum(var, 0.0)


# ---------------------------------------------------------------------------
# helpers shared by the family kernels
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


def _two_sum(a, b):
    """fl(a + b) and its rounding error e: s + e = a + b exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a, b):
    """fl(a b) and its rounding error e: p + e = a b exactly unless e underflows (Dekker's
    split, of the mantissas lest it overflow)."""
    p = a * b
    (fa, ea), (fb, eb) = np.frexp(a), np.frexp(b)
    ca, cb = 134217729.0 * fa, 134217729.0 * fb  # 2^27 + 1
    ah, bh = ca - (ca - fa), cb - (cb - fb)
    al, bl = fa - ah, fb - bh
    e = ea + eb
    return p, np.ldexp(((ah * bh - np.ldexp(p, -e)) + ah * bl + al * bh) + al * bl, e)


def _dd_div(hi, lo, v):
    """(hi + lo) / v as a double-double: the remainder hi - q v is exact, q v within an ulp of hi."""
    q = hi / v
    qv, qv_err = _two_prod(q, v)
    return q, ((hi - qv) - qv_err + lo) / v


def _far_log_odds(log_w, means, v, x, p):
    """l_k - l_p (k, n) of the logits l = log(w N(x; m, v I)) at points x (d, n) relative to
    component p (n,), variances v (k, n): log(w_k/w_p) - (d/2) log(v_k/v_p) - (S_k + M_k)/2,
    S_k = |dm_k|^2/v_k (v_p - v_k)/v_p and M_k = <m_k - m_p, dm_k + dm_p>/v_p, dm = m - x.
    S and M are summed in double-double: near a crossover far out they nearly cancel."""
    cols = np.arange(p.size)
    vp = v[p, cols]
    sq = sq_lo = dot = dot_lo = 0.0
    for mj, xj in zip(means.T, x):
        dh, dl = _two_sum(mj[:, None], -xj)  # dm_j exactly
        ah, al = _two_sum(mj[:, None], -mj[p])  # m_kj - m_pj exactly
        bh, bl = _two_sum(dh, dh[p, cols])
        bl = bl + dl + dl[p, cols]  # dm_kj + dm_pj
        t, t_err = _two_prod(dh, dh)
        sq, err = _two_sum(sq, t)
        sq_lo = sq_lo + err + t_err + (2.0 * dh + dl) * dl
        t, t_err = _two_prod(ah, bh)
        dot, err = _two_sum(dot, t)
        dot_lo = dot_lo + err + t_err + ah * bl + al * bh
    qh, ql = _dd_div(sq, sq_lo, v)
    rh, rl = _dd_div(*_two_sum(vp, -v), vp)  # (v_p - v_k)/v_p
    sh, sl = _two_prod(qh, rh)
    mh, ml = _dd_div(dot, dot_lo, vp)
    total, err = _two_sum(sh, mh)
    total_lo = err + (sl + qh * rl + ql * rh) + ml
    log_v = np.log(v)
    return (log_w[:, None] - log_w[p] - 0.5 * means.shape[1] * (log_v - log_v[p, cols])
            - 0.5 * (total + total_lo))


def _mixture_posterior(log_w, means, v, xs):
    """Logits log(w_k N(x; m_k, v_k I)) (k, n), responsibilities (k, n), scores -(x - m_k)/v_k
    (k, d, n) and log-density (n,) at each row x of xs, for log-weights (k,), means (k, d)
    and variances (k,) or (k, n), components first: each sum over them adds whole rows.  A
    component of weight 0, as one whose logit overflows, adds nothing: its score is set to 0
    if it overflows; a point where every logit overflows raises NumericalError.  Far from every
    component the logits, of size >= 1024, round alike: there the responsibilities come from the
    log-odds against the heaviest component, ``_far_log_odds``."""
    v = v.reshape(log_w.size, -1)
    dm = means[:, :, None] - xs.T[None, :, :]
    with np.errstate(over="ignore"):
        logits = (log_w[:, None] - 0.5 * means.shape[1] * (_LOG_2PI + np.log(v))
                  ) - 0.5 * np.add.reduce(dm * dm, axis=1) / v
        g = dm / v[:, None]
    # normalized by their sum, not by the log-sum-exp: with logits of 1e107,
    # adding log 2 changes nothing, and the responsibilities would sum to 2
    m = np.maximum.reduce(logits, axis=0)
    lowest = np.minimum.reduce(m)  # -inf where every logit overflowed
    if lowest == -math.inf:
        j = int(np.argmin(m))
        dist = float(np.min(np.hypot.reduce(np.abs(dm[:, :, j]), axis=1)))
        raise NumericalError(f"mixture logits overflow at x={xs[j].tolist()}: |x - m|^2 / (2v) "
                             f"is not finite for any component, nearest |x - m| = {dist:.6g}")
    d = logits - m
    if lowest < -1024.0:  # rows far from every component, relative to its width
        far = np.flatnonzero(m < -1024.0)
        p, vf = np.argmax(d[:, far], axis=0), np.broadcast_to(v, d.shape)[:, far]
        with np.errstate(over="ignore", invalid="ignore"):
            rel = _far_log_odds(log_w, means, vf, xs[far].T, p)
        # no finite rel where the logit overflowed (weight 0) or a term did, as m_k - m_p
        # can: these keep their rounded logits
        rel = np.where(np.isfinite(rel), rel, d[:, far])
        d[:, far] = rel - np.max(rel, axis=0)  # p, by rounded logits, may not be the heaviest
    e = np.exp(d)
    total = np.add.reduce(e, axis=0)
    r = e / total
    if not r.all():
        np.copyto(g, 0.0, where=(r == 0)[:, None] & ~np.isfinite(g))
    return logits, r, g, np.log(total) + m


def _pool(r, vecs, diag):
    """Mean (d, n) and covariance (d, d, n), pooled about the mean, of the
    mixture with weights r (k, n) of N(vecs_k, var_k I), vecs (k, d, n); diag
    is the pooled variance sum_k r_k var_k, (n,) or a scalar.  The terms are
    (r_k c_ki) c_kj, as einsum formed them: r = 0 keeps an overflowing c_ki c_kj out."""
    r = r[:, None]
    mean = np.add.reduce(r * vecs, axis=0)
    c = vecs - mean
    cov = np.add.reduce((r * c)[:, :, None] * c[:, None], axis=0)  # C order: reshape is a view
    cov.reshape(-1, cov.shape[2])[:: mean.shape[0] + 1] += diag
    return mean, cov


def _with_fields(obj, **fields):
    """Shallow copy of a frozen dataclass with ``fields`` replaced and
    ``__post_init__`` skipped: the caller keeps the fields consistent."""
    out = object.__new__(type(obj))
    out.__dict__.update(obj.__dict__, **fields)
    return out


def _quantile_grid(measure, u: np.ndarray) -> np.ndarray:
    """Inverse CDF at u, interpolated in a monotone 8001-point (cdf, x) table of a 1D density."""
    mean, var = mean_variance_1d(measure)
    half = 10.0 * math.sqrt(var) + 1.0
    xs = np.linspace(mean - half, mean + half, 8001)
    cdf = np.maximum.accumulate(cdf_1d(measure, xs))
    return np.interp(u, cdf, xs)


def _density_quantile(measure, u: np.ndarray) -> np.ndarray:
    """``_quantile_grid``, with the ends of the support, -inf and inf, at u = 0 and 1."""
    return np.where(u == 0.0, -math.inf, np.where(u == 1.0, math.inf, _quantile_grid(measure, u)))


# ---------------------------------------------------------------------------
# measure classes and their kernels: _tilt(zs, t) gives (log_mass (n,), mean
# (n, d), cov (n, d, d)) of mu_{z,t} at (n, d) points zs, with t a float or one
# per row; _log_density, _score and _log_hessian take the same points
# ---------------------------------------------------------------------------

class _Finite:
    """Kernels of a finite mixture sum_k w_k N(c_k, s_k I) with variances s_k >= 0, an atom
    at c_k where s_k = 0: the heat flow of atoms is a mixture of variance t.  A family holds
    normalized ``log_weights`` (k,) and gives ``_components()``: weights w (k,), centres c
    (k, dim) and s (k,)."""

    def _components_1d(self):
        if self.dim != 1:
            raise CapabilityError(
                f"{type(self).__name__} has dim {self.dim}; this kernel is 1D only")
        w, c, s = self._components()
        return w, c[:, 0], s

    def _tilt(self, zs, t):
        # component k tilts to N(c_k - s_k g_k, s_k t / (s_k + t) I), g_k its score in
        # mu * gamma_t, with weight pi_k; cov is pooled about the mean
        _, c, s = self._components()
        s = s[:, None] if isinstance(t, np.ndarray) else s  # vs t (n,)
        _, pi, g, log_mass = _mixture_posterior(self.log_weights, c, s + t, zs)
        var = s * t / (s + t)
        diag = var @ pi if var.ndim == 1 else np.einsum("kn,kn->n", var, pi)
        mean, cov = _pool(pi, c[:, :, None] - s.reshape(-1, 1, 1) * g, diag)
        return log_mass, mean.T, cov.transpose(2, 0, 1)

    def _convolve(self, t):
        w, c, s = self._components()
        with np.errstate(over="ignore"):
            v = s + t
        if not np.all(v < math.inf):
            raise ValidationError(f"t={t!r} takes a component variance s + t past the float range")
        # not through the constructor: with the parent's log-weights, a weight may underflow to 0
        out = object.__new__(GaussianMixture)
        out.__dict__.update(dim=self.dim, weights=w, means=c, variances=v,
                            log_weights=self.log_weights)
        return out

    def _mean_variance(self):
        w, c, s = self._components_1d()
        mean = float(np.dot(w, c))
        return mean, float(np.dot(w, s + (c - mean) ** 2))

    def _cdf(self, x):
        w, c, s = self._components_1d()
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (x[:, None] - c) / np.sqrt(s)
        # where s = 0, the right-continuous step at c
        return ndtr(np.where(s > 0, z, np.where(x[:, None] >= c, math.inf, -math.inf))) @ w

    def _quantile(self, u):
        w, c, s = self._components_1d()
        if not s.any():  # a step CDF: the first atom at which it reaches u
            order = np.argsort(c)
            return c[order][np.minimum(np.searchsorted(np.cumsum(w[order]), u), c.size - 1)]
        if w.size > 1:
            return _density_quantile(self, u)
        return float(c[0]) + math.sqrt(float(s[0])) * ndtri(u)

    def _sample(self, rng, n):
        w, c, s = self._components()
        idx = rng.choice(w.size, size=n, p=w)
        return c[idx] + np.sqrt(s[idx])[:, None] * rng.standard_normal((n, self.dim))


@dataclass(frozen=True)
class GaussianMixture(_Finite):
    """Finite mixture of isotropic Gaussians on R^dim."""

    dim: int
    weights: np.ndarray  # (k,)
    means: np.ndarray    # (k, dim)
    variances: np.ndarray  # (k,) component covariance = variances[k] * I
    log_weights: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "log_weights", np.log(w))

    def _components(self):
        return self.weights, self.means, self.variances

    def _posterior(self, zs):
        return _mixture_posterior(self.log_weights, self.means, self.variances, zs)

    def _log_density(self, zs):
        return self._posterior(zs)[3]

    def _score(self, zs):
        _, r, g, _ = self._posterior(zs)
        return np.einsum("kn,kin->ni", r, g)

    def _log_hessian(self, zs):
        _, r, _, _ = self._posterior(zs)
        # -sum_k r_k / v_k nearly cancels the pooled scores where the log-Hessian
        # is near zero, so it is summed along contiguous (n, k) rows, in the
        # order of the (n, k, d) layout; -1/v @ r sums it in another order
        diag = np.ascontiguousarray(r.T) @ (-1.0 / self.variances)
        # scores pooled about each row's heaviest component p, with g_k - g_p =
        # (m_k - m_p)/v_k + (m_p - x)(1/v_k - 1/v_p): exact for v_k = v_p, where far
        # out the scores themselves are equal huge numbers, and no m/v is formed
        p, iv = np.argmax(r, axis=0), 1.0 / self.variances
        with np.errstate(over="ignore", invalid="ignore"):
            dg = ((self.means[:, :, None] - self.means[p].T) * iv[:, None, None]
                  + (self.means[p] - zs).T * (iv[:, None] - iv[p])[:, None, :])
        dg[p, :, np.arange(p.size)] = 0.0  # as computed wherever m_p - x is finite
        if not r.all():  # components of weight 0 add nothing
            np.copyto(dg, 0.0, where=(r == 0)[:, None])
        return _pool(r, dg, diag)[1].transpose(2, 0, 1)

    def _dilate(self, c):
        # a field copy: only the scaled means and variances can leave the
        # valid range, by overflow or underflow, which the check reports
        with np.errstate(over="ignore", under="ignore"):
            means, variances = self.means * c, self.variances * c * c
        if not (np.isfinite(means).all() and ((variances > 0) & (variances < math.inf)).all()):
            raise ValidationError(f"dilation by {c!r} takes the mixture's means or "
                                  "variances out of the finite positive range")
        return _with_fields(self, means=means, variances=variances)


@dataclass(frozen=True)
class AtomicMeasure(_Finite):
    """Finite weighted sum of Dirac masses."""

    dim: int
    weights: np.ndarray    # (k,)
    locations: np.ndarray  # (k, dim)
    log_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        x = np.atleast_2d(np.asarray(self.locations, dtype=float))
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(x))):
            raise ValidationError("atom weights and locations must be finite")
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
        object.__setattr__(self, "log_weights", np.log(w))

    def _components(self):
        return self.weights, self.locations, np.zeros(self.weights.size)

    def _dilate(self, c):
        # a field copy, as for a mixture: scaled atoms may overflow, or underflow onto one
        # another, which leaves a valid measure (coinciding atoms add their weights)
        with np.errstate(over="ignore", under="ignore"):
            locations = self.locations * c
        if not np.isfinite(locations).all():
            raise ValidationError(f"dilation by {c!r} takes the atom locations out of the "
                                  "finite range")
        return _with_fields(self, locations=locations)


@dataclass(frozen=True)
class PerturbedLogConcave1D:
    """Density exp(-W(x) - log_normalizer) with W(x) = (alpha/2) x^2 + panel_a[p] +
    panel_b[p] x on panel p, from ``panel_edges[p]`` to ``panel_edges[p + 1]``; the edges run
    from -inf to inf.  ``make_perturbed`` builds it from V_extra and H."""

    alpha: float
    lip: float
    panel_edges: np.ndarray  # (P + 1,)
    panel_a: np.ndarray      # (P,)
    panel_b: np.ndarray      # (P,)
    dim: int = 1
    log_normalizer: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValidationError("alpha must be positive")
        if not self.lip >= 0:
            raise ValidationError("lip must be nonnegative")
        for name in ("panel_edges", "panel_a", "panel_b"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        edges, a, b = self.panel_edges, self.panel_a, self.panel_b
        if not (edges.ndim == 1 and a.size >= 1 and a.shape == b.shape == (edges.size - 1,)):
            raise ValidationError("need one panel_a and one panel_b per panel between panel_edges")
        with np.errstate(all="ignore"):  # panels that fail the checks below may warn
            logZ = float(_panel_moments(self.alpha, -b, -a, edges)[0])
        # first, so that a make_perturbed potential that overflows, or holds inf or NaN,
        # is reported as not normalizable
        if not math.isfinite(logZ):
            raise ValidationError("density is not normalizable")
        if not (edges[0] == -math.inf and edges[-1] == math.inf and np.all(np.diff(edges) > 0)):
            raise ValidationError("panel_edges must increase strictly from -inf to inf")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValidationError("panel_a and panel_b must be finite")
        object.__setattr__(self, "log_normalizer", logZ)

    def _tilt(self, zs, t):
        """Closed-form truncated-Gaussian moments on each panel of the density."""
        z = zs[:, 0]
        B = z / t - self.panel_b[:, None]  # (P, n)
        A = -self.panel_a[:, None] - z * z / (2.0 * t)
        log_mass, mean, var = _panel_moments(self.alpha + 1.0 / t, B, A, self.panel_edges)
        log_mass = log_mass - 0.5 * (_LOG_2PI + np.log(t)) - self.log_normalizer
        return log_mass, mean[:, None], var[:, None, None]

    def _log_density(self, zs):
        x = zs[:, 0]
        p = np.searchsorted(self.panel_edges, x, side="right") - 1  # at an edge, the right panel
        return -(0.5 * self.alpha * x * x + (self.panel_a[p] + self.panel_b[p] * x)
                 ) - self.log_normalizer

    def _score(self, zs):
        p = np.searchsorted(self.panel_edges, zs[:, 0], side="right") - 1
        return -(self.alpha * zs + self.panel_b[p][:, None])

    def _log_hessian(self, zs):
        return np.full((zs.shape[0], 1, 1), -self.alpha)

    def _dilate(self, c):
        # cX has potential W(y/c): edges scale by c, slopes by 1/c, alpha by 1/c^2 (kept
        # positive and finite, as are the slopes squared by a tilt); the offsets are
        # kept, and the normalizing integral gains a factor c
        c = float(c)  # Python floats overflow to inf without a warning
        cc, b = c * c, max(abs(x) for x in self.panel_b.tolist()) / c
        if not (cc > 0 and 0 < float(self.alpha) / cc < math.inf and b * b < math.inf):
            raise ValidationError(f"dilation by {c!r} takes the density's precision alpha/c^2 "
                                  "or its squared panel slopes out of the float range")
        return _with_fields(self, alpha=self.alpha / cc, lip=self.lip / c,
                            panel_edges=self.panel_edges * c, panel_b=self.panel_b / c,
                            log_normalizer=self.log_normalizer + math.log(c))

    def _mean_variance(self):
        _, mean, var = _panel_moments(self.alpha, -self.panel_b, -self.panel_a, self.panel_edges)
        return float(mean), float(var)

    def _cdf(self, x):
        # the whole panels below the panel k holding x, plus panel k over [edge k, x], over
        # the sum of all panels: 1 at inf exactly.  A piece is at most its whole panel, and
        # rounding is monotone, so the CDF never steps down at an edge nor exceeds 1
        C, edges = self.alpha, self.panel_edges
        m, sigma = -self.panel_b / C, 1.0 / math.sqrt(C)
        log_scale = (0.5 * C * m * m - self.panel_a + 0.5 * math.log(2.0 * math.pi / C)
                     - self.log_normalizer)
        lo, hi = (edges[:-1] - m) / sigma, (edges[1:] - m) / sigma
        k = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, m.size - 1)
        with np.errstate(divide="ignore", invalid="ignore"):  # empty piece: x on edge k
            part = _log_gauss_mass(lo[k], (x - m[k]) / sigma)
        whole = np.exp(log_scale + _log_gauss_mass(lo, hi))
        below = np.concatenate([[0.0], np.cumsum(whole)])
        return (below[k] + np.minimum(np.exp(log_scale[k] + part), whole[k])) / below[-1]

    def _quantile(self, u):
        return _density_quantile(self, u)

    def _sample(self, rng, n):
        # the table's ends where rng.uniform gives exactly 0: samples stay finite
        return _quantile_grid(self, rng.uniform(size=n))[:, None]


@dataclass(frozen=True)
class CounterexampleMeasure(_Finite):
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
        if not np.all(np.isfinite(psi_vals)):
            k = int(np.argmin(np.isfinite(psi_vals)))
            raise ValidationError(
                f"psi must be finite on the atom set, got psi({xs[k]}) = {psi_vals[k]}")
        if np.any(psi_vals < 0):
            raise ValidationError("psi must be nonnegative")
        if np.any(np.diff(psi_vals) < 0):
            raise ValidationError("psi must be nondecreasing on the atom set")
        raw = -2.0 * np.log(i + 1.0) - psi_vals
        top = np.max(raw)
        logZ = float(np.log(np.sum(np.exp(raw - top))) + top)
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

    def _components(self):
        return np.exp(self.log_weights), self.locations[:, None], np.zeros(self.locations.size)


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
    if any(m.size != dim for m in ms):
        raise ValidationError(f"every mean needs dim = {dim!r} coordinates")
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
    """The density proportional to exp(-(alpha/2) x^2 - V_extra(x) - H(x)), V_extra and H
    continuous, piecewise linear and 0 at x = 0, each with strictly increasing knots and one
    slope more: V_extra convex, and H with slopes bounded by ``lip`` (by default the largest
    |h_slopes|).  The one place that checks this split; the density keeps only its panels."""
    (vk, vs), (hk, hs) = pieces = [
        (np.atleast_1d(np.asarray(k, float)), np.atleast_1d(np.asarray(s, float)))
        for k, s in ((v_knots, v_slopes), (h_knots, h_slopes))]
    for knots, slopes in pieces:
        if knots.size + 1 != slopes.size:
            raise ValidationError("need len(slopes) == len(knots) + 1")
        if knots.size and np.any(np.diff(knots) <= 0):
            raise ValidationError("knots must be strictly increasing")
    alpha = float(alpha)
    lip = float(np.max(np.abs(hs))) if lip is None else float(lip)
    if np.any(np.diff(vs) < -1e-12):
        raise ValidationError("V_extra must be convex (nondecreasing slopes)")
    if lip >= 0 and np.any(np.abs(hs) > lip + 1e-12):  # the class reports a lip below 0
        raise ValidationError("H slopes must be bounded by lip")
    # the linear part a_p + b_p x of V_extra + H on each panel between the knots of
    # either: the segments of each to the right of the panel's left edge
    edges = np.concatenate([[-np.inf], np.unique(np.concatenate([vk, hk])), [np.inf]])
    (av, bv), (ah, bh) = _segments(vk, vs), _segments(hk, hs)
    iv = np.searchsorted(vk, edges[:-1], side="right")
    ih = np.searchsorted(hk, edges[:-1], side="right")
    return PerturbedLogConcave1D(alpha=alpha, lip=lip, panel_edges=edges,
                                 panel_a=av[iv] + ah[ih], panel_b=bv[iv] + bh[ih])


def _segments(knots, slopes):
    """Per-segment (a_j, b_j) with f(x) = a_j + b_j x on segment j of the continuous
    piecewise-linear f with these knots and slopes, anchored to f(0) = 0: each segment
    is written from its left knot, the first from the first knot."""
    if not knots.size:
        return np.zeros(1), slopes
    # value at each knot relative to the first, then anchored so that f(0) = 0
    # through the segment holding 0
    kv = np.concatenate([[0.0], np.cumsum(slopes[1:-1] * np.diff(knots))])
    j0 = int(np.searchsorted(knots, 0.0, side="right"))
    j = max(j0 - 1, 0)
    kv = kv - (kv[j] + slopes[j0] * (0.0 - knots[j]))
    return np.concatenate([kv[:1], kv]) - slopes * np.concatenate([knots[:1], knots]), slopes


def standard_gaussian(dim: int = 1) -> GaussianMixture:
    return make_gaussian_mixture([(1.0, np.zeros(dim), 1.0)], dim=dim)


# ---------------------------------------------------------------------------
# the public per-family functions
# ---------------------------------------------------------------------------

def _kernel(measure, name: str):
    """A measure's bound kernel ``name``; the one place that reports a family without it."""
    kernel = getattr(measure, name, None)
    if kernel is None:
        raise CapabilityError(f"{type(measure).__name__} has no {name[1:]} kernel")
    return kernel


def _at_points(measure, name: str, x):
    """Kernel ``name`` at one point (its row) or at each row of a batch."""
    kernel = _kernel(measure, name)
    zs, single = _points(measure, x)
    out = kernel(zs)
    return out[0] if single else out


def log_density(measure: Measure, x):
    """Log-density at one point (a float) or at each row of a batch of shape
    (n, dim) (an (n,) array)."""
    out = _at_points(measure, "_log_density", x)
    return out if isinstance(out, np.ndarray) else float(out)


def score(measure: Measure, x) -> np.ndarray:
    """Gradient of the log-density: (dim,) at a point, (n, dim) for a batch."""
    return _at_points(measure, "_score", x)


def log_hessian(measure: Measure, x) -> np.ndarray:
    """Hessian of the log-density as a full symmetric matrix: (dim, dim) at a
    point, (n, dim, dim) for a batch."""
    return _at_points(measure, "_log_hessian", x)


def convolve_gaussian(measure: Measure, t: float) -> GaussianMixture:
    """Heat semigroup at time t: mu -> mu * gamma_t, a mixture of variances s + t, for the
    finite families (mixtures, atoms and the counterexample), with the parent's log-weights;
    ``heatflow.tilted_log_mass`` gives its log-density for every family."""
    if not 0 < t < math.inf:
        raise ValidationError(f"need 0 < t < inf, got t={t!r}")
    return _kernel(measure, "_convolve")(t)


def dilate(measure: Measure, c: float):
    """Law of c*X for X ~ measure (0 < c < inf)."""
    if not 0 < c < math.inf:
        raise ValidationError("dilation factor must be positive and finite")
    return _kernel(measure, "_dilate")(c)


def mean_variance_1d(measure) -> tuple[float, float]:
    return _kernel(measure, "_mean_variance")()


def cdf_1d(measure, x) -> np.ndarray:
    """CDF evaluated at a scalar or array of points (1D measures only); x = -inf, inf give 0, 1."""
    kernel, x = _kernel(measure, "_cdf"), np.atleast_1d(np.asarray(x, dtype=float))
    if np.isnan(x).any():
        raise ValidationError("cdf_1d needs x that is not NaN")
    return kernel(x)


def quantile_1d(measure, u) -> np.ndarray:
    """Generalized inverse CDF at probabilities u in [0, 1] (1D measures)."""
    kernel, u = _kernel(measure, "_quantile"), np.atleast_1d(np.asarray(u, dtype=float))
    bad = u[~((u >= 0.0) & (u <= 1.0))]
    if bad.size:
        raise ValidationError(f"quantile_1d needs u in [0, 1], got u={float(bad[0])!r}")
    return kernel(u)


def sample(measure, n: int, seed: int = 0) -> np.ndarray:
    """Draw n points; deterministic given the seed.

    Returns shape (n, dim); callers in 1D may squeeze.
    """
    n, seed = check_integers("n, seed", n, seed)
    if not (n >= 1 and seed >= 0):
        raise ValidationError("need n >= 1 and seed >= 0")
    return _kernel(measure, "_sample")(np.random.default_rng(seed), n)


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
    """Measure JSON schema used by the CLI (weights may be unnormalized).  A missing
    field, or one that does not convert to the numbers it holds, is a ValidationError."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError("measure JSON needs a 'type' field")
    kind = obj["type"]
    try:
        if kind == "gaussian_mixture":
            comps = _json_entries(obj, "components", "weight, mean, variance")
            return make_gaussian_mixture(comps, dim=obj.get("dim"))
        if kind == "atomic":
            atoms = _json_entries(obj, "atoms", "weight, location")
            w = np.array([a[0] for a in atoms], dtype=float)
            locs = np.atleast_2d(np.array([np.atleast_1d(a[1]) for a in atoms], dtype=float))
            if not np.all((w > 0) & (w < math.inf)):
                raise ValidationError("atom weights must be positive and finite")
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
    except KeyError as exc:
        raise ValidationError(f"{kind!r} measure JSON needs the field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{kind!r} measure JSON has a malformed field: {exc}") from None
    raise ValidationError(f"unknown measure type '{kind}'")
