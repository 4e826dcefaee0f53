"""Deterministic numerical kernels.

Bracketed safeguarded Newton, classical RK4 integration (forward or backward in
time), Gauss-Legendre rules, and the standard normal CDF and its inverse on numpy
alone.  Everything here is a pure function of its inputs.
"""
from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import BracketError, NumericalError, ValidationError

__all__ = [
    "find_root",
    "rk4",
    "ndtr",
    "ndtri",
]


def find_root(
    f: Callable[[float], tuple[float, float]], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Root of f, which returns (value, slope), on a sign-changing bracket
    ``[lo, hi]`` by safeguarded Newton ("rtsafe", Press et al., Numerical Recipes,
    section 9.4): Newton starts from the end with the smaller |value|, a step that
    would leave the bracket or is over half the one before is a bisection, each
    evaluation shrinks the bracket, and it stops once the step or bracket is <= tol."""
    if not tol > 0:
        raise ValidationError("tol must be positive")
    (flo, slo), (fhi, shi) = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    if np.sign(flo) == np.sign(fhi):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    x, fx, dfx = (lo, flo, slo) if abs(flo) < abs(fhi) else (hi, fhi, shi)
    step = hi - lo
    while hi - lo > tol:
        x_new = x - fx / dfx if dfx != 0.0 else np.nan
        if not (lo <= x_new <= hi and abs(x_new - x) <= 0.5 * step):
            x_new = 0.5 * (lo + hi)
            if x_new == lo or x_new == hi:
                break
        x, step = x_new, abs(x_new - x)
        if step <= tol:
            return x
        fx, dfx = f(x)
        if np.sign(fx) == np.sign(flo):
            lo, flo = x, fx
        else:
            hi = x
    return x


def rk4(f, y: np.ndarray, s0: float, s1: float, n: int) -> np.ndarray:
    """Classical RK4 for dy/ds = f(s, y) from s0 to s1 (either direction) in
    n equal steps; returns the final state."""
    h = (s1 - s0) / n
    times = np.linspace(s0, s1, n + 1)  # the stages take s from here: the last is s1 exactly
    for k in range(n):
        mid = 0.5 * (times[k] + times[k + 1])
        k1 = f(times[k], y)
        k2 = f(mid, y + 0.5 * h * k1)
        k3 = f(mid, y + 0.5 * h * k2)
        k4 = f(times[k + 1], y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            bad = int(np.argmax(~np.isfinite(y)))
            raise NumericalError(f"ODE state blew up near s={times[k+1]} (point {bad})")
    return y


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], built once per n, read-only."""
    from numpy.polynomial.legendre import leggauss

    rule = leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


# ---------------------------------------------------------------------------
# the standard normal CDF Phi and its inverse
# ---------------------------------------------------------------------------

_RSQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_BLOCK = 8192  # points per pass of ndtr: its dozen temporaries stay cache-sized and reused

# Phi(-k/8) for k = 0..48 as hi + lo: hi the nearest double, lo the rest (50-digit mpmath)
_PHI_NEG_HI = (
    0.5, 0.4502617751698871, 0.4012936743170763, 0.3538302333272762, 0.3085375387259869,
    0.26598552904870054, 0.2266273523768682, 0.19078695285251063, 0.15865525393145705,
    0.13029451713680887, 0.10564977366685525, 0.08456572235133572, 0.06680720126885807,
    0.05208127941521955, 0.04005915686381709, 0.030396361765261375, 0.02275013194817921,
    0.016793306448448814, 0.012224472655044703, 0.008774475095738362, 0.006209665325776135,
    0.004332448363012558, 0.002979763235054557, 0.0020201374899460017, 0.0013498980316300946,
    0.000889025299108432, 0.000577025042390767, 0.00036907845427506733, 0.00023262907903552504,
    0.00014448072588123576, 8.841728520080387e-05, 5.3312349751096344e-05,
    3.1671241833119924e-05, 1.8536737846201994e-05, 1.068852577493442e-05,
    6.071623911330599e-06, 3.3976731247300603e-06, 1.8729920055567095e-06,
    1.0170832425687032e-06, 5.440422755749163e-07, 2.866515718791939e-07,
    1.4876887318776628e-07, 7.604960516488715e-08, 3.829134106124428e-08,
    1.8989562465887718e-08, 9.275398734560822e-09, 4.462172453901612e-09,
    2.114216742440847e-09, 9.86587645037698e-10)
_PHI_NEG_LO = (
    0.0, 2.741449196009054e-17, -2.300399437650529e-17, 5.487570818299264e-18,
    1.4568778275699303e-17, -9.610539379774886e-18, -8.112679639755901e-18,
    -1.6836347137260679e-18, 4.9468552901786335e-18, -1.3760999389742742e-17,
    3.738036792923343e-18, -4.061985305754637e-19, -5.303515941678518e-18,
    3.3077561233549083e-19, -2.3675377988129856e-18, -2.6445865165878343e-19,
    -1.3849763108389696e-18, -1.1158862737525173e-18, 5.289738210594361e-19,
    -3.266899845660609e-19, 3.0265632876609855e-19, 2.1666090965041034e-19,
    -8.361096827434876e-20, -3.1484120929751003e-20, -5.053886685858262e-20,
    3.320233403716365e-20, 4.066583524186694e-20, -2.1603789302195032e-20,
    -7.606255392464223e-21, 6.910958527616908e-21, -4.8251308255225485e-22,
    9.69741827432906e-22, -3.0731906018516887e-21, -7.68159855154047e-22,
    5.367763737933911e-23, -2.153843412478139e-22, 1.5021902648019703e-22,
    3.39879730973164e-23, 2.5393515731608594e-24, -2.62831133750702e-23,
    -1.8004269120872359e-25, 2.175771184388974e-24, -2.5953102671457972e-24,
    2.294191272335313e-24, 1.5092774863741613e-24, -5.952773058475797e-25,
    2.082911207234231e-25, -5.572545140649582e-26, 5.0182069523925116e-26)


def _phi_table():
    """Phi(k/8) for k = -48..48 as hi + lo: the table above, then 1 - Phi(-k/8) with the
    rounding error of 1 - hi carried into lo (Fast2Sum)."""
    hi, lo = np.array(_PHI_NEG_HI[1:]), np.array(_PHI_NEG_LO[1:])
    up = 1.0 - hi
    up_lo = (-hi - (up - 1.0)) - lo
    return (np.concatenate([hi[::-1], _PHI_NEG_HI[:1], up]),
            np.concatenate([lo[::-1], _PHI_NEG_LO[:1], up_lo]))


_PHI_HI, _PHI_LO = _phi_table()

# sum_j He_2j(m) h^2j / (2j+1)! for j = 1..4, times 1/sqrt(2 pi), as polynomials in
# w = 4 m^2 (highest degree first), one per power of u = 4 h^2; He_2j as polynomials in m^2
_HERMITE_EVEN = ((1, -1), (1, -6, 3), (1, -15, 45, -15), (1, -28, 210, -420, 105))
_NEAR = tuple(
    tuple(_RSQRT2PI * h / (4.0 ** (len(he) - 1 - i + j) * math.factorial(2 * j + 1))
          for i, h in enumerate(he))
    for j, he in enumerate(_HERMITE_EVEN, start=1))

# W. J. Cody, "Rational Chebyshev approximations for the error function", Math. Comp. 23
# (1969), as in his CALERF: erfcx(y) = e^{y^2} erfc(y) = (1/sqrt(pi) - z N(z)/D(z))/y with
# z = 1/y^2, for y >= 4; highest degree first
_ERFCX_FAR = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3))

# M. J. Wichura, "Algorithm AS 241: the percentage points of the normal distribution",
# Appl. Statist. 37 (1988), PPND16: Phi^-1 as q A(r)/B(r) with r = 0.180625 - q^2 for
# |q| = |u - 1/2| <= 0.425, else C(r - 1.6)/D(r - 1.6) for r = sqrt(-log min(u, 1 - u)) <= 5
# and E(r - 5)/F(r - 5) beyond; highest degree first
_AS241 = (
    ((2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
      4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
      1.3314166789178437745e2, 3.3871328727963666080e0),
     (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
      2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
      4.2313330701600911252e1, 1.0)),
    ((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
      1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
      4.63033784615654529590e0, 1.42343711074968357734e0),
     (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
      1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
      2.05319162663775882187e0, 1.0)),
    ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
      2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
      5.46378491116411436990e0, 6.65790464350110377720e0),
     (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
      7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0)))


def _horner(y, coeffs, out=None):
    """The polynomial with ``coeffs`` (highest degree first) at the array y, in place in out."""
    out = np.multiply(y, coeffs[0], out=out)
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= y
        out += c
    return out


def _rational(y, num_den):
    out = _horner(y, num_den[0])
    out /= _horner(y, num_den[1])
    return out


def _phi_near(x):
    """Phi at a 1D array with |x| <= 6: Phi(c) at the nearest c in Z/8 from the table, plus
    int_c^x phi = (x - c) phi(m) sum_j He_2j(m) h^2j / (2j+1)! with m = (x + c)/2 and
    h = (x - c)/2, summed to He_8; the He_10 term is below 1e-18 of Phi(x) for |x| <= 3
    and 1e-16 at 6.  The correction is at most a fifth of Phi(c) for |x| <= 3, so the sum
    is within about half an ulp there."""
    kf = np.multiply(x, 8.0)
    np.rint(kf, out=kf)
    k = kf.astype(np.intp)
    k += 48
    c = np.multiply(kf, 0.125, out=kf)
    d = x - c  # exact
    w = np.add(x, c, out=c)
    w *= w
    u = d * d
    s, t = _horner(w, _NEAR[-1]), np.empty(x.shape)
    for coeffs in _NEAR[-2::-1]:
        s *= u
        s += _horner(w, coeffs, out=t)
    s *= u
    s += _RSQRT2PI
    w *= -0.125
    s *= np.exp(w, out=w)  # phi(m) = e^{-w/8}/sqrt(2 pi)
    s *= d
    s += _PHI_LO[k]
    s += _PHI_HI[k]
    return s


def _phi_far(x):
    """Phi at a 1D array with |x| > 6 or NaN: Q = Phi(-|x|) = e^{-x^2/2} erfcx(|x|/sqrt 2)/2,
    with e^{-x^2/2} the product of e^{-h^2/2} and e^{-(|x| - h)(|x| + h)/2} for h = |x|
    rounded down to Z/16, so that x^2 is never rounded (Cody); 1 - Q where x > 0."""
    a = np.minimum(np.abs(x), 40.0)  # Phi(-40) underflows to 0; NaN stays NaN
    y = a * (1.0 / math.sqrt(2.0))
    z = np.square(y)
    np.divide(1.0, z, out=z)
    q = _rational(z, _ERFCX_FAR)
    q *= z
    np.subtract(1.0 / math.sqrt(math.pi), q, out=q)
    q /= y
    h = np.multiply(a, 16.0, out=y)
    np.trunc(h, out=h)
    h *= 0.0625
    a -= h
    a *= np.add(a, 2.0 * h, out=z)  # (|x| - h)(|x| + h)
    a *= -0.5
    q *= np.exp(a, out=a)
    h *= h
    h *= -0.5
    q *= np.exp(h, out=h)
    q *= 0.5
    return np.where(x > 0, 1.0 - q, q)


def _phi(x):
    """Phi at a 1D array: ``_phi_near`` on every point, the few beyond 6 (or NaN) in at 0,
    then ``_phi_far`` on those."""
    near = np.clip(x, -6.0, 6.0)
    far = np.flatnonzero(near != x)
    near[far] = 0.0
    out = _phi_near(near)
    if far.size:
        out[far] = _phi_far(x[far])
    return out


def ndtr(x) -> np.ndarray:
    """Phi(x) = erfc(-x/sqrt 2)/2, elementwise: Phi(-inf) = 0, Phi(inf) = 1, and NaN stays
    NaN, without warnings.  Against 50-digit mpmath the relative error is below 2.5e-16
    for x >= 0 and 2.5e-16 (1 + x^2) for x < 0.  Evaluated in blocks of ``_BLOCK`` points."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if flat.size <= _BLOCK:
        return _phi(flat).reshape(x.shape)
    return np.concatenate([_phi(flat[i:i + _BLOCK])
                           for i in range(0, flat.size, _BLOCK)]).reshape(x.shape)


def ndtri(u) -> np.ndarray:
    """Phi^-1(u) for u in [0, 1], elementwise, by Wichura's AS 241: -inf at u = 0 and inf
    at u = 1.  Against 50-digit mpmath the error is within 1e-15 max(1, |Phi^-1(u)|)."""
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    q = flat - 0.5
    out = np.empty(flat.shape)
    central = np.abs(q) <= 0.425
    i = np.flatnonzero(central)
    if i.size:
        qi = q[i]
        out[i] = qi * _rational(0.180625 - qi * qi, _AS241[0])
    i = np.flatnonzero(~central)
    if i.size:
        p = np.minimum(flat[i], 1.0 - flat[i])  # 1 - u is exact for u >= 1/2
        with np.errstate(divide="ignore", invalid="ignore"):  # p = 0: r = inf, then inf/inf
            r = np.sqrt(-np.log(p))
            x = np.where(r <= 5.0, _rational(r - 1.6, _AS241[1]), _rational(r - 5.0, _AS241[2]))
        x[p == 0.0] = math.inf
        out[i] = np.copysign(x, q[i])
    return out.reshape(u.shape)
