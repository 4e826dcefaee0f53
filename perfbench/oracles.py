"""Exact oracles, computed outside the timed passes.

Each oracle works from the plain-data specs in ``inputs.py`` and never calls
the function it checks:

* flow map: the monotone rearrangement F^-1(Phi(x)), by bisection on the
  closed-form ``cdf_1d`` (Kim & Milman 2012);
* log-Hessian and tilted moments: Gaussian closed forms, or mpmath at
  50 digits for mixtures, atoms and piecewise log-quadratic densities;
* two atoms: curvature (1/t)(1 - x0^2/(4t)) at z_bar, which is also the
  global minimum over z;
* theta of the OU flow: the closed-form mixture marginal, and theta = 0 for
  N(0, 1);
* the counterexample certificate: its tilted variance and half-mass split in
  mpmath.
"""
from __future__ import annotations

import math
from bisect import bisect_right

import mpmath as mp
import numpy as np
from scipy.special import ndtr

import logheat as lh

DPS = 50


def rel_err(got: float, exact: float) -> float:
    """|got - exact| relative to |exact|, with the denominator floored at 1."""
    return abs(float(got) - float(exact)) / max(abs(float(exact)), 1.0)


# -- flow map ----------------------------------------------------------------

def flow_map(measure, xs: np.ndarray) -> np.ndarray:
    """F^-1(Phi(x)): 110 bisection steps on [-64, 64] reach one ulp."""
    u = ndtr(np.asarray(xs, dtype=float))
    lo = np.full(u.shape, -64.0)
    hi = np.full(u.shape, 64.0)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        above = lh.cdf_1d(measure, mid) >= u
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


# -- closed-form mixture curvature (float64, centred) ------------------------

def mixture_log_hessian(components, x: np.ndarray) -> np.ndarray:
    """(log p)'' of a 1D Gaussian mixture at x, with the responsibility
    variance computed about its mean (no E[g^2] - E[g]^2 cancellation)."""
    w = np.array([c[0] for c in components], dtype=float)
    m = np.array([c[1][0] for c in components], dtype=float)
    s = np.array([c[2] for c in components], dtype=float)
    x = np.asarray(x, dtype=float)[:, None]
    logr = np.log(w) - 0.5 * np.log(2 * math.pi * s) - 0.5 * (x - m) ** 2 / s
    logr -= np.max(logr, axis=1, keepdims=True)
    r = np.exp(logr)
    r /= np.sum(r, axis=1, keepdims=True)
    g = -(x - m) / s
    gbar = np.sum(r * g, axis=1, keepdims=True)
    return np.sum(r * (-1.0 / s), axis=1) + np.sum(r * (g - gbar) ** 2, axis=1)


def mixture_theta(components, times, space):
    """Per-time (min, max) over ``space`` of theta = (log p_t)'' + 1, where
    p_t is the OU marginal: component k becomes N(m_k c, s_k c^2 + 1 - c^2)."""
    th_min, th_max = [], []
    for t in times:
        c = math.exp(-t)
        v = -math.expm1(-2.0 * t)
        comps = [(w, [m[0] * c], s * c * c + v) for w, m, s in components]
        theta = mixture_log_hessian(comps, space) + 1.0
        th_min.append(float(np.min(theta)))
        th_max.append(float(np.max(theta)))
    return np.array(th_min), np.array(th_max)


# -- tilted moments in mpmath ------------------------------------------------

def _pl_integral(knots, slopes, x):
    """Integral from 0 to x of a piecewise-constant slope: the piecewise-linear
    function anchored at f(0) = 0."""
    lo, hi, sign = (mp.mpf(0), x, 1) if x >= 0 else (x, mp.mpf(0), -1)
    pts = [lo] + [mp.mpf(k) for k in knots if lo < k < hi] + [hi]
    total = mp.mpf(0)
    for a, b in zip(pts[:-1], pts[1:]):
        total += mp.mpf(slopes[bisect_right(knots, float((a + b) / 2))]) * (b - a)
    return sign * total


def _panels(spec):
    """Panels of a perturbed spec as (lo, hi, a, b) with W(x) = alpha x^2/2 + a + b x."""
    knots = sorted(set(spec["v_knots"]) | set(spec["h_knots"]))
    edges = [-mp.inf] + [mp.mpf(k) for k in knots] + [mp.inf]
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == -mp.inf and hi == mp.inf:
            r = mp.mpf(0)
        elif lo == -mp.inf:
            r = hi - 1
        elif hi == mp.inf:
            r = lo + 1
        else:
            r = (lo + hi) / 2
        b = mp.mpf(0)
        f = mp.mpf(0)
        for kk, ss in ((spec["v_knots"], spec["v_slopes"]), (spec["h_knots"], spec["h_slopes"])):
            b += mp.mpf(ss[bisect_right(list(kk), float(r))])
            f += _pl_integral(list(kk), ss, r)
        out.append((lo, hi, f - b * r, b))
    return out


def _gauss_piece(C, B, A, lo, hi):
    """Raw moments (M0, M1, M2) of exp(-C x^2/2 + B x + A) over [lo, hi]."""
    m = B / C
    sig = 1 / mp.sqrt(C)
    a = (lo - m) / sig
    b = (hi - m) / sig
    if a >= 0:  # both ends right of the mode: difference of upper tails
        dphi = mp.ncdf(-a) - mp.ncdf(-b)
    else:
        dphi = mp.ncdf(b) - mp.ncdf(a)
    pa = mp.npdf(a) if a != -mp.inf else mp.mpf(0)
    pb = mp.npdf(b) if b != mp.inf else mp.mpf(0)
    apa = a * pa if a != -mp.inf else mp.mpf(0)
    bpb = b * pb if b != mp.inf else mp.mpf(0)
    K = mp.exp(A + B * B / (2 * C)) * sig * mp.sqrt(2 * mp.pi)
    M0 = K * dphi
    M1 = K * (m * dphi + sig * (pa - pb))
    M2 = K * ((m * m + sig * sig) * dphi + 2 * m * sig * (pa - pb) + sig * sig * (apa - bpb))
    return M0, M1, M2


def tilted(spec, z: float, t: float) -> tuple[float, float, float]:
    """(log mass, mean, variance) of mu tilted by N(z, t), mass_log being
    log((mu * gamma_t)(z)), computed at ``DPS`` digits."""
    with mp.workdps(DPS):
        return tuple(float(v) for v in _tilted(spec, mp.mpf(z), mp.mpf(t)))


def _tilted(spec, z, t):
    """mpmath form of ``tilted``; call inside ``mp.workdps``."""
    kind = spec["kind"]
    if kind in ("mixture", "atomic"):
        if kind == "mixture":
            pieces = [(mp.mpf(w), mp.mpf(m[0]), mp.mpf(s)) for w, m, s in spec["components"]]
        else:
            pieces = [(mp.mpf(w), mp.mpf(x), mp.mpf(0))
                      for w, x in zip(spec["weights"], spec["locations"])]
        total_w = mp.fsum(p[0] for p in pieces)
        comps = []
        for w, m, s in pieces:
            S = s + t
            c = w / total_w * mp.exp(-(z - m) ** 2 / (2 * S)) / mp.sqrt(2 * mp.pi * S)
            comps.append((c, (t * m + s * z) / S, s * t / S))
        mass = mp.fsum(c for c, _, _ in comps)
        mean = mp.fsum(c * mu for c, mu, _ in comps) / mass
        var = mp.fsum(c * (v + (mu - mean) ** 2) for c, mu, v in comps) / mass
        return mp.log(mass), mean, var
    if kind == "perturbed":
        alpha = mp.mpf(spec["alpha"])
        panels = _panels(spec)
        Z = mp.fsum(_gauss_piece(alpha, -b, -a, lo, hi)[0] for lo, hi, a, b in panels)
        C = alpha + 1 / t
        moms = [_gauss_piece(C, z / t - b, -a - z * z / (2 * t), lo, hi)
                for lo, hi, a, b in panels]
        M0 = mp.fsum(p[0] for p in moms)
        M1 = mp.fsum(p[1] for p in moms)
        M2 = mp.fsum(p[2] for p in moms)
        mean = M1 / M0
        var = M2 / M0 - mean * mean
        mass = M0 / Z / mp.sqrt(2 * mp.pi * t)
        return mp.log(mass), mean, var
    raise ValueError(f"unknown spec kind {kind!r}")


def log_hessian_heat(spec, z: float, t: float) -> float:
    """-d^2/dz^2 log(mu * gamma_t)(z) = (1/t)(1 - Var(mu_{z,t})/t)."""
    with mp.workdps(DPS):
        t = mp.mpf(t)
        _, _, var = _tilted(spec, mp.mpf(z), t)
        return float((1 - var / t) / t)


def gaussian_log_hessian(s: float, t: float) -> float:
    """N(m, s) * gamma_t = N(m, s + t): curvature 1/(s + t) at every z."""
    return 1.0 / (s + t)


# -- two atoms and the counterexample -----------------------------------------

def two_atom(x0: float, w0: float, w1: float, t: float) -> tuple[float, float]:
    """(z_bar, curvature there); the curvature is the global minimum over z."""
    z_bar = 0.5 * x0 + (t / x0) * math.log(w0 / w1)
    return z_bar, (1.0 - x0 * x0 / (4.0 * t)) / t


def counterexample_tilt(cex_spec: dict, t: float, z: float, j: int) -> tuple[float, float]:
    """(tilted variance, tilted mass below atom j) of the truncated
    counterexample at tilt z, from its definition: atoms at i(i+1)/2 with
    weights (i+1)^-2 e^{-c x_i}."""
    with mp.workdps(DPS):
        c = mp.mpf(cex_spec["coefficient"])
        z, t = mp.mpf(z), mp.mpf(t)
        xs = [mp.mpf(i * (i + 1)) / 2 for i in range(cex_spec["truncation"] + 1)]
        logs = [-2 * mp.log(i + 1) - c * x + z * x / t - x * x / (2 * t)
                for i, x in enumerate(xs)]
        top = max(logs)
        w = [mp.exp(v - top) for v in logs]
        total = mp.fsum(w)
        mean = mp.fsum(wi * x for wi, x in zip(w, xs)) / total
        var = mp.fsum(wi * (x - mean) ** 2 for wi, x in zip(w, xs)) / total
        return float(var), float(mp.fsum(w[:j]) / total)
