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

from .errors import SearchError, ValidationError
from .heatflow import log_hessian_heat, tilted_moments
from .measures import AtomicMeasure, CounterexampleMeasure, _logsumexp
from .numerics import find_root_bisect

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


def _tilted_logs(measure: CounterexampleMeasure, t: float, z: float) -> np.ndarray:
    xs = measure.locations
    return measure.log_weights + z * xs / t - xs * xs / (2.0 * t)


def split_function_F(measure: CounterexampleMeasure, t: float, j: int, z: float) -> float:
    """Normalized mass split: (mass of atoms < j) - (mass of atoms >= j) under
    the tilt N(z, t).  Decreasing from F(0) >= 0 to -1 as z grows; its root is
    the split tilt."""
    if not t > 0:
        raise ValidationError("t must be positive")
    if not 1 <= j <= measure.truncation:
        raise ValidationError("need 1 <= j <= truncation")
    l = _tilted_logs(measure, t, z)
    lo = _logsumexp(l[:j])
    hi = _logsumexp(l[j:])
    # (e^lo - e^hi) / (e^lo + e^hi) = tanh((lo - hi)/2)
    return float(np.tanh(0.5 * (lo - hi)))


def _split_tilt(measure: CounterexampleMeasure, t: float, j: int) -> float:
    xs = measure.locations
    x_j = float(xs[j])
    z_cap = x_j + t * (float(measure.psi_values[j]) + 4.0 * math.log(j + 1.0)) / j
    f = lambda z: split_function_F(measure, t, j, z)
    if f(0.0) < 0.0:
        raise SearchError("split function already negative at z = 0")
    grow = 0
    while f(z_cap) >= 0.0:
        grow += 1
        if grow > 8:
            raise SearchError(f"no sign change of the split function below z = {z_cap}")
        z_cap = x_j + 2.0**grow * (z_cap - x_j)
    return find_root_bisect(f, 0.0, z_cap, tol=1e-12)


def _tail_adequate(measure: CounterexampleMeasure, t: float, z: float) -> None:
    """The dropped atoms' tilted mass must be < 1e-12 of the retained mass."""
    n = measure.truncation
    i = np.arange(n + 1, n + 202, dtype=float)
    xs = i * (i + 1.0) / 2.0
    psi_tail = np.array([float(measure.psi(x)) for x in xs])
    l_tail = -2.0 * np.log(i + 1.0) - psi_tail + z * xs / t - xs * xs / (2.0 * t)
    retained = _logsumexp(_tilted_logs(measure, t, z))
    dropped = _logsumexp(l_tail)
    if dropped - retained > math.log(1e-12):
        raise SearchError(
            f"truncation {n} too small: dropped tilted mass ratio "
            f"{math.exp(dropped - retained):.3e} at z = {z}"
        )


def variance_certificate(
    measure: CounterexampleMeasure, t: float, M: float
) -> Certificate:
    """Find a tilt z* where the tilted variance exceeds M^2.

    Starts at the gap index j = ceil(sqrt(2) * M) and escalates j until the
    variance target is met (the gap guarantees only a quarter-gap-squared
    variance floor; the realized variance at the split is checked directly).
    """
    if not (t > 0 and M > 0):
        raise ValidationError("t and M must be positive")
    j = max(1, math.ceil(math.sqrt(2.0) * M))
    if j + 1 > measure.truncation:
        raise ValidationError(
            f"truncation {measure.truncation} too small for gap index {j}"
        )
    while True:
        z_star = _split_tilt(measure, t, j)
        _tail_adequate(measure, t, z_star)
        l = _tilted_logs(measure, t, z_star)
        below = float(np.exp(_logsumexp(l[:j]) - _logsumexp(l)))
        if abs(below - 0.5) > 1e-9:
            raise SearchError(
                f"half-mass split off by {abs(below - 0.5):.3e} at z = {z_star}"
            )
        tm = tilted_moments(measure, [z_star], t)
        variance = float(tm.covariance[0, 0])
        if variance >= M * M * (1.0 - 1e-6):
            break
        j += 1
        if j + 1 > measure.truncation:
            raise SearchError(
                f"variance target M^2 = {M * M} not reached within truncation "
                f"{measure.truncation}"
            )
    curvature = (1.0 - variance / t) / t
    return Certificate(
        t=t,
        target_M=M,
        j=j,
        z_star=z_star,
        variance=variance,
        curvature=curvature,
        truncation=measure.truncation,
        tail_bound=measure.tail_bound,
    )


def two_atom_analysis(x0: float, w0: float, w1: float, t: float) -> TwoAtomReport:
    """Curvature analysis of (w0 delta_0 + w1 delta_x0) * gamma_t.

    z_bar is the tilt where the two tilted weights are equal; curvature there
    equals (1/t)(1 - x0^2/(4t)) independently of the weights.  The tilted
    weight of x0 is logistic in z, so the curvature is unimodal with its
    minimum at z_bar: the minimum over z in [-2|x0|, 3|x0|] is exact, at z_bar
    clipped to that bracket.  A 601-point grid over the bracket is its
    numerical witness.
    """
    for name, value in (("x0", x0), ("w0", w0), ("w1", w1), ("t", t)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
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
