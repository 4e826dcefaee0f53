"""Certificates that tail decay alone cannot create log-concavity.

The atomic measure with locations x_i = i(i+1)/2 has gaps x_j - x_{j-1} = j
that grow without bound.  Tilting it by a Gaussian kernel centered at the
split tilt z* (where the mass below atom j equals the mass from atom j on)
forces the tilted variance above any target M^2, so the smoothed density has
curvature below (1/t)(1 - M^2/t) at z* -- for every bandwidth t.  The
two-atom analysis gives the matching sharp threshold t = x0^2/4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SearchError, ValidationError, check_finite
from .heatflow import log_hessian_heat, tilted_moments
from .measures import AtomicMeasure, CounterexampleMeasure
from .numerics import find_root

__all__ = [
    "Certificate",
    "TwoAtomReport",
    "build_counterexample",
    "split_function_F",
    "variance_certificate",
    "two_atom_analysis",
]


@dataclass(frozen=True)
class Certificate:
    """A (z*, variance) witness of curvature below (1/t)(1 - M^2/t)."""

    t: float
    target_M: float
    j: int
    z_star: float
    variance: float
    curvature: float
    truncation: int
    tail_bound: float
    split_evals: int  # split-kernel calls over every gap index tried
    escalations: int  # gap indices tried past the first, j - ceil(sqrt(2) M)

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "M": self.target_M,
            "j": self.j,
            "z_star": self.z_star,
            "variance": self.variance,
            "curvature": self.curvature,
            "truncation": self.truncation,
            "tail_bound": self.tail_bound,
        }


@dataclass(frozen=True)
class TwoAtomReport:
    z_bar: float
    curvature_at_z_bar: float
    grid_min_curvature: float
    argmin_z: float


def build_counterexample(
    psi: Callable[[float], float], truncation: int = 60
) -> CounterexampleMeasure:
    """Atoms at 0, 1, 3, 6, 10, ... with weights prop. to (i+1)^-2 e^{-psi}."""
    return CounterexampleMeasure(psi=psi, truncation=truncation)


def _split(measure: CounterexampleMeasure, t: float, j: int, z: float) -> tuple[float, float]:
    """(g, dg/dz) at tilt z, g = log(mass of atoms < j) - log(mass of atoms >= j)
    under the tilt N(z, t); dg/dz = (mean below - mean above)/t <= -j/t, as the gap
    x_j - x_{j-1} = j parts the groups.  The tilted logs log w_i + (z x_i - x_i^2/2)/t
    are taken less z^2/(2t), which cancels in g, so that they stay small near the
    split; each group is pooled about its own maximum, since one shared maximum can
    underflow the other group's sum."""
    xs = measure.locations
    l = measure.log_weights - (xs - z) ** 2 / (2.0 * t)
    lo, hi = l[:j].max(), l[j:].max()
    e_lo, e_hi = np.exp(l[:j] - lo), np.exp(l[j:] - hi)
    s_lo, s_hi = e_lo.sum(), e_hi.sum()
    return lo - hi + math.log(s_lo / s_hi), ((e_lo @ xs[:j]) / s_lo - (e_hi @ xs[j:]) / s_hi) / t


def split_function_F(measure: CounterexampleMeasure, t: float, j: int, z: float) -> float:
    """Normalized mass split: (mass of atoms < j) - (mass of atoms >= j) under
    the tilt N(z, t).  Decreasing from F(0) >= 0 to -1 as z grows; its root is
    the split tilt."""
    if not t > 0:
        raise ValidationError("t must be positive")
    if not 1 <= j <= measure.truncation:
        raise ValidationError("need 1 <= j <= truncation")
    # (e^lo - e^hi) / (e^lo + e^hi) = tanh((lo - hi)/2)
    return math.tanh(0.5 * _split(measure, t, j, z)[0])


def _split_tilt(measure: CounterexampleMeasure, t: float, j: int) -> tuple[float, float, int]:
    """The split tilt z* of gap j by safeguarded Newton on g of ``_split``, g(z*),
    and the number of split-kernel calls made.

    [0, z_cap], z_cap = x_j + t (psi_j + 4 log(j + 1)) / j, is a proved bracket:
    w_i / w_k = (k + 1)^2 / (i + 1)^2 e^{psi_k - psi_i}, and psi is checked
    nonnegative and nondecreasing on the atoms.  At z = 0, w_i / w_0 <= (i + 1)^-2
    and the kernel is largest at x_0 = 0, so g(0) >= -log(pi^2/6 - 1) > 0.43.  At
    z_cap each atom below j is at least j further away than x_j, and w_i / w_j <=
    (j + 1)^2 / (i + 1)^2 e^{psi_j}, so g(z_cap) <= log(pi^2/6) - 2 log(j + 1)
    - j^2/(2t) < -0.88.  ``find_root``'s BracketError stays the guard."""
    values: dict[float, tuple[float, float]] = {}

    def f(z: float) -> tuple[float, float]:
        if z not in values:  # find_root may end on a z it has evaluated
            values[z] = _split(measure, t, j, z)
        return values[z]

    z_cap = float(measure.locations[j]) + t * (float(measure.psi_values[j])
                                               + 4.0 * math.log(j + 1.0)) / j
    z_star = find_root(f, 0.0, z_cap, tol=1e-12)
    return z_star, f(z_star)[0], len(values)


def _tail_adequate(measure: CounterexampleMeasure, t: float, j: int, z: float,
                   mass_log: float) -> None:
    """The atoms the truncation n drops must carry < 1e-12 of the retained tilted
    mass e^{mass_log}, normalized as ``tilted_moments``.  The bound assumes, as
    ``tail_bound`` does, that psi is nondecreasing beyond the truncation: then each
    dropped term w_i N(z; x_i, t) is at most r = exp((n + 2)(z - (x_{n+1} + x_{n+2})/2)/t)
    times the one before, so for z < (x_{n+1} + x_{n+2})/2 = (n + 2)^2/2 they add up
    to at most the first over 1 - r."""
    n = measure.truncation
    x1 = (n + 1) * (n + 2) / 2.0
    log_r = (n + 2) * (z - 0.5 * (n + 2) ** 2) / t
    if not log_r < 0.0:
        raise SearchError(f"truncation {n} too small: the tail bound needs z < (n + 2)^2/2 "
                          f"= {(n + 2) ** 2 / 2.0}, got z = {z} at j = {j}, t = {t}")
    log_Z = -float(measure.psi_values[0]) - float(measure.log_weights[0])  # retained
    log_ratio = (-2.0 * math.log(n + 2.0) - float(measure.psi(x1)) - log_Z - mass_log
                 - (z - x1) ** 2 / (2.0 * t) - 0.5 * math.log(2.0 * math.pi * t)
                 - math.log(-math.expm1(log_r)))
    if log_ratio > math.log(1e-12):
        ratio = math.exp(log_ratio) if log_ratio < 700.0 else math.inf
        raise SearchError(f"truncation {n} too small: dropped tilted mass ratio {ratio:.3e} "
                          f"> 1e-12 at j = {j}, z = {z}, t = {t}")


def variance_certificate(
    measure: CounterexampleMeasure, t: float, M: float
) -> Certificate:
    """Find a tilt z* where the tilted variance exceeds M^2.

    Starts at the gap index j = ceil(sqrt(2) * M) and escalates j until the
    variance target is met (the gap guarantees only a quarter-gap-squared
    variance floor; the realized variance at the split is checked directly).
    The atoms the truncation drops are bounded in closed form, assuming psi
    is nondecreasing beyond the truncation (see ``_tail_adequate``).
    """
    check_finite(t=t, M=M)
    if not (t > 0 and M > 0):
        raise ValidationError("t and M must be positive")
    j0 = max(1, math.ceil(math.sqrt(2.0) * M))
    if j0 + 1 > measure.truncation:
        raise ValidationError(f"truncation {measure.truncation} too small for gap index {j0}")
    split_evals = 0
    for j in range(j0, measure.truncation):
        z_star, g, evals = _split_tilt(measure, t, j)
        split_evals += evals
        # mass below j = 1 / (1 + e^{-g}), so its distance from 1/2 is |tanh(g/2)| / 2
        off = 0.5 * abs(math.tanh(0.5 * g))
        if off > 1e-9:
            raise SearchError(
                f"half-mass split off by {off:.3e} at j = {j}, z = {z_star}, t = {t}")
        tm = tilted_moments(measure, [z_star], t)
        _tail_adequate(measure, t, j, z_star, tm.mass_log)
        variance = float(tm.covariance[0, 0])
        if variance >= M * M * (1.0 - 1e-6):
            break
    else:
        raise SearchError(f"variance target M^2 = {M * M} not reached within truncation "
                          f"{measure.truncation}: variance {variance} at j = {j}, "
                          f"z = {z_star}, t = {t}")
    return Certificate(t=t, target_M=M, j=j, z_star=z_star, variance=variance,
                       curvature=(1.0 - variance / t) / t, truncation=measure.truncation,
                       tail_bound=measure.tail_bound, split_evals=split_evals,
                       escalations=j - j0)


def two_atom_analysis(x0: float, w0: float, w1: float, t: float) -> TwoAtomReport:
    """Curvature analysis of (w0 delta_0 + w1 delta_x0) * gamma_t.

    z_bar is the tilt where the two tilted weights are equal; curvature there
    equals (1/t)(1 - x0^2/(4t)) independently of the weights.  The tilted
    weight of x0 is logistic in z, so the curvature is unimodal with its
    minimum at z_bar: the minimum over z in [-2|x0|, 3|x0|] is exact, at z_bar
    clipped to that bracket.  A 601-point grid over the bracket is its
    numerical witness.
    """
    check_finite(x0=x0, w0=w0, w1=w1, t=t)
    if x0 == 0:
        raise ValidationError("x0 must be nonzero")
    if not (w0 > 0 and w1 > 0 and t > 0):
        raise ValidationError("weights and t must be positive")
    weights = np.array([w0, w1]) / (w0 + w1)
    for name, p in zip(("w0", "w1"), weights):
        if not p > 0:
            raise ValidationError(f"{name} is out of range next to the other weight: "
                                  f"{name}/(w0 + w1) evaluates to {p}")
    mu = AtomicMeasure(dim=1, weights=weights, locations=np.array([[0.0], [x0]]))
    z_bar = 0.5 * x0 + (t / x0) * math.log(w0 / w1)
    # the tilts reach z in [-2|x0|, 3|x0|] and z_bar, with exponents up to
    # z^2 / (2t); the curvature (1 - Var/t) / t has Var <= x0^2 / 4
    for q in (1.0, 9.0 * x0 * x0, z_bar * z_bar, x0 * x0 / t):
        if not (math.isfinite(q) and math.isfinite(q / t)):
            raise ValidationError(
                f"x0 = {x0!r} and t = {t!r} are out of range: 1/t, x0^2/t^2 or the tilt "
                f"exponent z^2/t for z in [-2|x0|, 3|x0|] or z_bar = {z_bar!r} overflows")

    def curv(z: float) -> float:
        return float(log_hessian_heat(mu, [z], t)[0, 0])

    curvature_at_z_bar = curv(z_bar)
    a = -2.0 * abs(x0)
    b = 3.0 * abs(x0)
    zs = np.linspace(a, b, 601)
    vals = log_hessian_heat(mu, zs[:, None], t)[:, 0, 0]
    z_min = min(max(z_bar, a), b)
    return TwoAtomReport(
        z_bar=z_bar,
        curvature_at_z_bar=curvature_at_z_bar,
        grid_min_curvature=min(float(np.min(vals)), curv(z_min)),
        argmin_z=z_min,
    )
