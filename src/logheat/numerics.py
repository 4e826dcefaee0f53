"""Deterministic numerical kernels.

Bracketed safeguarded Newton and classical RK4 integration (forward or backward in
time).  Everything here is a pure function of its inputs.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import BracketError, NumericalError, ValidationError

__all__ = [
    "find_root",
    "rk4",
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
        if not np.all(np.isfinite(y)):
            bad = int(np.argmax(~np.isfinite(y)))
            raise NumericalError(f"ODE state blew up near s={times[k+1]} (point {bad})")
    return y
