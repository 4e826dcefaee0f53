"""Shared randomized-instance generators and numeric references for the test
suite."""
import math

import numpy as np
import pytest

from logheat import make_gaussian_mixture, make_perturbed


def random_perturbed_args(rng):
    """Arguments (alpha, v_knots, v_slopes, h_knots, h_slopes, lip) of ``make_perturbed``
    for a random 1D perturbed log-concave instance with alpha in [0.2, 4] and Lipschitz
    constant in [0, 2]."""
    alpha = rng.uniform(0.2, 4.0)
    lip = rng.uniform(0.0, 2.0)
    n_h = rng.integers(1, 4)
    h_knots = np.sort(rng.uniform(-2.0, 2.0, size=n_h))
    h_slopes = rng.uniform(-lip, lip, size=n_h + 1)
    n_v = rng.integers(0, 3)
    v_knots = np.sort(rng.uniform(-2.0, 2.0, size=n_v))
    v_slopes = np.sort(rng.uniform(-1.5, 1.5, size=n_v + 1))
    return alpha, v_knots, v_slopes, h_knots, h_slopes, lip


def random_perturbed(rng):
    """``make_perturbed`` of ``random_perturbed_args``."""
    *args, lip = random_perturbed_args(rng)
    return make_perturbed(*args, lip=lip)


def random_mixture(rng, dim=1, max_components=4):
    k = int(rng.integers(1, max_components + 1))
    comps = [
        (float(rng.uniform(0.2, 1.0)),
         rng.uniform(-3.0, 3.0, size=dim),
         float(rng.uniform(0.3, 2.5)))
        for _ in range(k)
    ]
    return make_gaussian_mixture(comps, dim=dim)


def random_atomic(rng, max_atoms=5):
    from logheat import AtomicMeasure

    k = int(rng.integers(1, max_atoms + 1))
    locs = np.sort(rng.uniform(-4.0, 4.0, size=k))
    while np.any(np.diff(locs) < 1e-6):
        locs = np.sort(rng.uniform(-4.0, 4.0, size=k))
    w = rng.uniform(0.2, 1.0, size=k)
    w = w / w.sum()
    return AtomicMeasure(dim=1, weights=w, locations=locs[:, None])


def integrated_ou_upper_numeric(alpha, lip, tau_max=1e8):
    """Numeric reference for ``integrated_ou_upper``: the time integral of the
    ``cor7_envelope`` upper curve, as (value, tail_term).

    Integrates the substituted integrand over tau = e^{2t}-1 in (0, tau_max]
    (with tau = u^2 to remove the endpoint singularity) and adds the analytic
    O(1/tau) tail.
    """
    from scipy.integrate import quad

    def integrand_u(u):
        tau = u * u
        den = alpha * tau + 1.0
        val = (
            (1.0 - alpha) / den
            + lip * lip * (tau + 1.0) / (den * den)
            + 2.0 * lip * (tau + 1.0) / (u * den**1.5)
        ) / (2.0 * (tau + 1.0))
        return val * 2.0 * u

    head, _ = quad(integrand_u, 0.0, math.sqrt(tau_max), limit=400)
    tail = ((1.0 - alpha) / alpha + lip * lip / alpha**2 + 2.0 * lip / alpha**1.5) / (
        2.0 * tau_max
    )
    return head + tail, tail


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
