"""Root finding and ODE integration."""
import math

import numpy as np
import pytest

from logheat import (
    BracketError,
    NumericalError,
    ValidationError,
    find_root,
)
from logheat.numerics import rk4


class TestBisect:
    """The bracketed root finder, safeguarded Newton on (value, slope)."""

    def test_sqrt2(self):
        root = find_root(lambda x: (x * x - 2.0, 2.0 * x), 0.0, 2.0, tol=1e-9)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_odd(self):
        assert find_root(lambda x: (x, 1.0), -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_no_bracket(self):
        with pytest.raises(BracketError):
            find_root(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 1.0)
        with pytest.raises(ValidationError, match="tol"):
            find_root(lambda x: (x, 1.0), -1.0, 1.0, tol=0.0)

    def test_residual_shrinks_with_tol(self):
        f = lambda x: (math.cos(x) - x, -math.sin(x) - 1.0)
        res = [abs(f(find_root(f, 0.0, 1.0, tol=t))[0]) for t in (1e-3, 1e-6, 1e-9)]
        assert res[0] >= res[1] >= res[2]

    def test_bisects_where_newton_leaves_the_bracket(self):
        # plain Newton on atan diverges from |x| > 1.39; a flat slope gives no step
        calls = []

        def f(x):
            calls.append(x)
            return math.atan(x), 1.0 / (1.0 + x * x)

        assert find_root(f, -10.0, 30.0) == pytest.approx(0.0, abs=1e-12)
        assert all(-10.0 <= x <= 30.0 for x in calls) and len(calls) < 20
        root = find_root(lambda x: (x - 0.3 if x > 0.3 else (x - 0.3) ** 3, 0.0), -1.0, 1.0)
        assert root == pytest.approx(0.3, abs=1e-12)


class TestOde:
    def test_exponential_decay(self):
        y = rk4(lambda t, y: -y, np.array([1.0]), 0.0, 1.0, 100)
        assert y[0] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_constant_field(self):
        y = rk4(lambda t, y: 0.0 * y, np.array([3.0, -1.0]), 0.0, 2.0, 10)
        assert np.array_equal(y, [3.0, -1.0])

    def test_backward_exact(self):
        # dy/dt = -m e^{-t} backward from y(T) = x gives x + m(1 - e^{-T})
        m, T, x = 1.5, 4.0, 0.3
        y = rk4(lambda t, y: -m * math.exp(-t) * np.ones_like(y), np.array([x]), T, 0.0, 400)
        assert y[0] == pytest.approx(x + m * (1 - math.exp(-T)), abs=1e-10)

    def test_fourth_order_convergence(self):
        def err(n):
            return abs(rk4(lambda t, y: -y, np.array([1.0]), 0.0, 1.0, n)[0] - math.exp(-1.0))

        assert err(10) / err(20) >= 8.0

    def test_blowup_reports_time(self):
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="near s="):
            rk4(lambda t, y: y * y * 100.0, np.array([1.0]), 0.0, 2.0, 50)

    @pytest.mark.parametrize("s0, s1, n", [(math.pi / 2, 0.0, 67), (math.sqrt(3.0), 0.0, 194),
                                           (0.0, 1.0, 3)], ids=["half-pi", "sqrt3", "forward"])
    def test_stages_hit_the_grid_ends(self, s0, s1, n):
        # s0 + n h rounds away from s1 (to 6.2e-17 and -1.4e-17 in the first two
        # cases); a right-hand side with a closed form at an end needs it exactly
        calls = []
        rk4(lambda s, y: calls.append(s) or 0.0 * y, np.array([1.0]), s0, s1, n)
        assert calls[0] == s0 and calls[-1] == s1 and len(calls) == 4 * n
