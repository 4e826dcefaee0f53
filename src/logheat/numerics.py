"""Deterministic numerical kernels.

Bracketed bisection and classical RK4 integration (forward or backward in
time).  Everything here is a pure function of its inputs.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import BracketError, NumericalError, ValidationError

__all__ = [
    "find_root_bisect",
    "rk4",
]


def find_root_bisect(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Bisection on a sign-changing bracket ``[lo, hi]``."""
    if not tol > 0:
        raise ValidationError("tol must be positive")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def rk4(f, y: np.ndarray, s0: float, s1: float, n: int) -> np.ndarray:
    """Classical RK4 for dy/ds = f(s, y) from s0 to s1 (either direction) in
    n equal steps; returns the final state."""
    h = (s1 - s0) / n
    times = np.linspace(s0, s1, n + 1)
    for k in range(n):
        s = times[k]
        k1 = f(s, y)
        k2 = f(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            bad = int(np.argmax(~np.isfinite(y)))
            raise NumericalError(f"ODE state blew up near t={times[k+1]} (point {bad})")
    return y
