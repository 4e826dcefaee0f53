"""Exact references for the tests, in 60-digit mpmath.

Each oracle works from plain data only: a mixture's weights, means and
variances, atoms' weights and locations, the arguments of ``make_perturbed``,
or a CDF the calling test passes in.  None calls logheat or reads a field the
library derived, so a library defect cannot hide in the reference that checks
it; ``test_demos.py::test_oracles_import_no_logheat`` keeps logheat out.
"""
from bisect import bisect_right

import mpmath
import numpy as np
from scipy.special import ndtr

DPS = 60


def _posterior(weights, centres, variances, x):
    """log sum_k w_k N(x; c_k, v_k I), weights normalised, the responsibilities
    r_k, the centres and the scores -(x - c_k) / v_k, in mpf."""
    x = [mpmath.mpf(float(q)) for q in np.ravel(x)]
    c = [[mpmath.mpf(float(q)) for q in row] for row in np.reshape(centres, (len(variances), -1))]
    total_w = mpmath.fsum(mpmath.mpf(w) for w in weights)
    logits = [mpmath.log(mpmath.mpf(w) / total_w) - len(x) * mpmath.log(2 * mpmath.pi * v) / 2
              - mpmath.fsum((a - b) ** 2 for a, b in zip(x, ck)) / (2 * v)
              for w, ck, v in zip(weights, c, variances)]
    top = max(logits)
    e = [mpmath.exp(q - top) for q in logits]
    total = mpmath.fsum(e)
    g = [[-(a - b) / v for a, b in zip(x, ck)] for ck, v in zip(c, variances)]
    return mpmath.log(total) + top, [q / total for q in e], c, g


def _pooled(r, vecs, diag):
    """sum_k r_k u_k and sum_k r_k (u_k - mean)(u_k - mean)^T + diag I, as doubles."""
    d = range(len(vecs[0]))
    mean = [mpmath.fsum(q * u[i] for q, u in zip(r, vecs)) for i in d]
    cov = [[mpmath.fsum(q * (u[i] - mean[i]) * (u[j] - mean[j]) for q, u in zip(r, vecs))
            + (diag if i == j else 0) for j in d] for i in d]
    return np.array(mean, dtype=float), np.array(cov, dtype=float)


def mixture_posterior(weights, means, variances, x):
    """log-density, score and log-Hessian of sum_k w_k N(m_k, v_k I) at the point x."""
    with mpmath.workdps(DPS):
        v = [mpmath.mpf(float(q)) for q in variances]
        log_density, r, _, g = _posterior(weights, means, v, x)
        score, log_hessian = _pooled(r, g, -mpmath.fsum(q / u for q, u in zip(r, v)))
        return {"log_density": float(log_density), "score": score, "log_hessian": log_hessian}


def finite_tilt(weights, centres, variances, z, t):
    """(log (mu * gamma_t)(z), mean, covariance, per-component weights) of
    mu = sum_k w_k N(c_k, s_k I) tilted by N(z, t I); atoms have s_k = 0.

    The weights need not be normalised and may be mpf, where a double
    underflows.  Component k spreads to the double s_k + t, as a kernel forms
    it: far out, the tilted weights magnify its rounding by |z - c_k|^2 / (2 s_k + 2t)."""
    with mpmath.workdps(DPS):
        s, tt = [mpmath.mpf(float(q)) for q in variances], mpmath.mpf(float(t))
        v = [mpmath.mpf(float(q) + float(t)) for q in variances]
        log_mass, r, c, g = _posterior(weights, centres, v, z)
        tilted = [[a - sk * b for a, b in zip(ck, gk)] for ck, sk, gk in zip(c, s, g)]
        mean, cov = _pooled(r, tilted, mpmath.fsum(q * sk * tt / u for q, sk, u in zip(r, s, v)))
        return float(log_mass), mean, cov, np.array(r, dtype=float)


def counterexample_weights(psi, truncation):
    """Weights (i+1)^-2 e^{-psi(x_i)} and locations x_i = i(i+1)/2, i <= truncation,
    of the counterexample; psi is the caller's function of a double."""
    xs = [i * (i + 1) / 2 for i in range(truncation + 1)]
    with mpmath.workdps(DPS):
        weights = [mpmath.exp(-mpmath.mpf(psi(x))) / (i + 1) ** 2 for i, x in enumerate(xs)]
    return weights, np.array(xs)[:, None]


def _gauss_mass(a, b):
    """Phi(b) - Phi(a), by the upper tails right of 0, where Phi rounds to 1."""
    return mpmath.ncdf(-a) - mpmath.ncdf(-b) if a + b > 0 else mpmath.ncdf(b) - mpmath.ncdf(a)


def log_gauss_mass(a, b):
    """log(Phi(b) - Phi(a))."""
    with mpmath.workdps(DPS):
        return float(mpmath.log(_gauss_mass(mpmath.mpf(a), mpmath.mpf(b))))


def _panels(alpha, v_knots=(), v_slopes=(0.0,), h_knots=(), h_slopes=(0.0,), lip=None):
    """(lo, hi, a, b) per panel between the knots of V_extra and H, with V_extra + H
    = a + b y there.  A piece with slopes s_j and knots k_j, 0 at 0, is
    s_0 y + sum_j (s_j - s_{j-1}) ((y - k_j)_+ - (-k_j)_+).  lip leaves the density be."""
    pieces = [([mpmath.mpf(float(k)) for k in ks], [mpmath.mpf(float(q)) for q in qs])
              for ks, qs in ((v_knots, v_slopes), (h_knots, h_slopes))]
    edges = [-mpmath.inf, *sorted(set(pieces[0][0] + pieces[1][0])), mpmath.inf]
    return [(lo, hi, -mpmath.fsum((s[j + 1] - s[j]) * (max(k, 0) if k <= lo else max(-k, 0))
                                  for ks, s in pieces for j, k in enumerate(ks)),
             mpmath.fsum(s[bisect_right(ks, lo)] for ks, s in pieces))
            for lo, hi in zip(edges, edges[1:])]


def _panel_moments(panels, C, B, A):
    """log of the integral of exp(-C y^2/2 + B y + A - a - b y) over the panels,
    and the mean and variance of that density, in mpf."""
    sigma, pieces = 1 / mpmath.sqrt(C), []
    for lo, hi, a, b in panels:
        m = (B - b) / C
        ends = [(e - m) / sigma if mpmath.isfinite(e) else e for e in (lo, hi)]
        pdf = [mpmath.npdf(u) for u in ends]
        upd = [u * p if mpmath.isfinite(u) else 0 for u, p in zip(ends, pdf)]
        mass, dpdf = _gauss_mass(*ends), pdf[0] - pdf[1]
        pieces.append((A - a + (B - b) ** 2 / (2 * C) + mpmath.log(sigma * mass),
                       m + sigma * dpdf / mass,
                       sigma**2 * (1 + (upd[0] - upd[1]) / mass - (dpdf / mass) ** 2)))
    top = max(q[0] for q in pieces)
    w = [mpmath.exp(q[0] - top) for q in pieces]
    total = mpmath.fsum(w)
    mean = mpmath.fsum(q * p[1] for q, p in zip(w, pieces)) / total
    var = mpmath.fsum(q * (p[2] + (p[1] - mean) ** 2) for q, p in zip(w, pieces)) / total
    return mpmath.log(total) + top + mpmath.log(2 * mpmath.pi) / 2, mean, var


def panel_tilt(args, z, t):
    """(log (mu * gamma_t)(z), mean, variance) of mu tilted by N(z, t), where mu is
    prop. to exp(-alpha y^2/2 - V_extra - H) from the make_perturbed arguments ``args``."""
    with mpmath.workdps(DPS):
        panels, alpha = _panels(*args), mpmath.mpf(float(args[0]))
        z, t = mpmath.mpf(z), mpmath.mpf(t)
        log_mass, mean, var = _panel_moments(panels, alpha + 1 / t, z / t, -z * z / (2 * t))
        log_mass -= _panel_moments(panels, alpha, 0, 0)[0] + mpmath.log(2 * mpmath.pi * t) / 2
        return float(log_mass), float(mean), float(var)


def panel_theta(args, t, x):
    """theta(t, x) = (Var/tau - 1) / (1 - e^{-2t}) + 1 of the OU flow of that mu,
    Var the variance of mu tilted by N(e^t x, tau), tau = e^{2t} - 1."""
    with mpmath.workdps(DPS):
        t, x = mpmath.mpf(t), mpmath.mpf(x)
        tau, z = mpmath.expm1(2 * t), mpmath.exp(t) * x
        var = _panel_moments(_panels(*args), mpmath.mpf(float(args[0])) + 1 / tau, z / tau,
                             -z * z / (2 * tau))[2]
        return float((var / tau - 1) / -mpmath.expm1(-2 * t) + 1)


def quantile_map(cdf, xs):
    """The exact 1D heat-flow map F^-1(Phi(x)), the monotone rearrangement
    (Kim & Milman 2012): 110 bisection steps on the target's ``cdf`` over
    [-64, 64] reach one ulp."""
    xs = np.asarray(xs, dtype=float)
    u, lo, hi = ndtr(xs), np.full(xs.shape, -64.0), np.full(xs.shape, 64.0)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        above = cdf(mid) >= u
        hi, lo = np.where(above, mid, hi), np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def _invert(lower, upper, u):
    """The x with lower mass lower(x) = u for u <= 1/2, or upper mass upper(x) = 1 - u
    (exact in mpf) above, by bisection to 40 digits from a bracket doubled outwards."""
    u = mpmath.mpf(float(u))
    below = (lambda x: lower(x) < u) if u <= 0.5 else (lambda x: upper(x) > 1 - u)
    lo, hi = mpmath.mpf(-1), mpmath.mpf(1)
    while below(hi):
        lo, hi = hi, 2 * hi
    while not below(lo):
        lo, hi = 2 * lo, lo
    while hi - lo > mpmath.mpf(10) ** -40 * max(1, abs(lo)):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return (lo + hi) / 2


def mixture_quantile(weights, means, variances, u):
    """(x, p(x)) at the u-quantile x of sum_k w_k N(m_k, v_k) in 1D."""
    with mpmath.workdps(DPS):
        total = mpmath.fsum(mpmath.mpf(float(w)) for w in weights)
        comps = [(mpmath.mpf(float(w)) / total, mpmath.mpf(float(m)),
                  mpmath.sqrt(mpmath.mpf(float(v)))) for w, m, v in zip(weights, means, variances)]
        x = _invert(lambda x: mpmath.fsum(w * mpmath.ncdf((x - m) / s) for w, m, s in comps),
                    lambda x: mpmath.fsum(w * mpmath.ncdf((m - x) / s) for w, m, s in comps), u)
        return float(x), float(mpmath.fsum(w * mpmath.npdf(x, m, s) for w, m, s in comps))


def panel_quantile(args, u):
    """(x, p(x)) at the u-quantile x of the density prop. to exp(-alpha y^2/2 - V_extra - H)
    from the make_perturbed arguments ``args``: on a panel, exp(-alpha y^2/2 - a - b y) is
    exp(b^2/(2 alpha) - a) times the Gaussian of mean -b/alpha and variance 1/alpha."""
    with mpmath.workdps(DPS):
        alpha = mpmath.mpf(float(args[0]))
        sigma, panels = 1 / mpmath.sqrt(alpha), _panels(*args)

        def mass(lo, hi, a, b):  # over [lo, hi], in units of sigma sqrt(2 pi)
            m = -b / alpha
            ends = [(e - m) / sigma if mpmath.isfinite(e) else e for e in (lo, hi)]
            return mpmath.exp(b * b / (2 * alpha) - a) * _gauss_mass(*ends)

        total = mpmath.fsum(mass(*p) for p in panels)
        x = _invert(lambda x: mpmath.fsum(mass(lo, min(hi, x), a, b)
                                          for lo, hi, a, b in panels if lo < x) / total,
                    lambda x: mpmath.fsum(mass(max(lo, x), hi, a, b)
                                          for lo, hi, a, b in panels if hi > x) / total, u)
        _, _, a, b = next(p for p in panels if p[0] <= x < p[1])
        density = mpmath.exp(-alpha * x * x / 2 - a - b * x) / (total * sigma
                                                                * mpmath.sqrt(2 * mpmath.pi))
        return float(x), float(density)
