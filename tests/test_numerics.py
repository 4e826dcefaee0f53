"""Root finding, ODE integration, and the normal CDF and its inverse."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logheat import (
    BracketError,
    NumericalError,
    ValidationError,
    find_root,
)
from logheat.numerics import _PHI_HI, _PHI_LO, ndtr, ndtri, rk4


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


class TestNdtr:
    """Phi on numpy: a table with a midpoint series for |x| <= 6, Cody's erfcx beyond."""

    def test_matches_mpmath(self):
        # the bound of a careful double Phi: the rounding of x^2/2 in e^{-x^2/2} costs
        # x^2/2 ulps in the lower tail; above 0, Phi >= 1/2 and two roundings remain
        rng = np.random.default_rng(0)
        xs = np.concatenate([np.linspace(-37.5, 8.5, 4601), rng.uniform(-6.0, 3.0, 3000),
                             rng.uniform(-1e-3, 1e-3, 200)])
        got = ndtr(xs)
        with mpmath.workdps(50):
            exact = [mpmath.ncdf(mpmath.mpf(x)) for x in xs.tolist()]
            rel = np.array([float(abs((mpmath.mpf(g) - e) / e))
                            for g, e in zip(got.tolist(), exact)])
        bound = np.where(xs < 0.0, 2.5e-16 * (1.0 + xs * xs), 2.5e-16)
        assert np.all(rel <= bound), (xs[np.argmax(rel / bound)], np.max(rel / bound))

    def test_table_matches_mpmath(self):
        # Phi(k/8) for k = -48..48 held as hi + lo to about 1e-32: hi the nearest double for
        # k <= 0, the upper half built as 1 - Phi(-k/8)
        with mpmath.workdps(50):
            for k, (hi, lo) in enumerate(zip(_PHI_HI.tolist(), _PHI_LO.tolist()), start=-48):
                exact = mpmath.ncdf(mpmath.mpf(k) / 8)
                assert k > 0 or hi == float(exact)
                assert abs(mpmath.mpf(hi) + mpmath.mpf(lo) - exact) <= 1e-32 * exact

    def test_ends(self):
        # atoms pass +-inf through the mixture CDF: no RuntimeWarning (an error in this suite)
        got = ndtr(np.array([-math.inf, -1e300, -40.0, 0.0, -0.0, 40.0, 1e300, math.inf]))
        assert got.tolist() == [0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0]
        assert math.isnan(ndtr(np.array([math.nan]))[0])
        assert ndtr(0.0) == 0.5 and ndtr(np.zeros((2, 3))).shape == (2, 3)
        assert ndtr(np.array([])).shape == (0,)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-45.0, 45.0), st.floats(1e-9, 10.0))
    def test_monotone(self, x, gap):
        # two x a few ulps apart may swap, as for any Phi not correctly rounded; a gap of
        # 1e-9 (1 + |x|) moves Phi by far more than its rounding
        y = x + gap * (1.0 + abs(x))
        assert ndtr(np.array([x]))[0] <= ndtr(np.array([y]))[0]


class TestNdtri:
    """Phi^-1 by Wichura's AS 241."""

    def test_matches_mpmath(self):
        rng = np.random.default_rng(1)
        us = np.concatenate([10.0 ** rng.uniform(-300.0, math.log10(0.5), 1500),
                             rng.uniform(0.0, 1.0, 500),
                             1.0 - 10.0 ** rng.uniform(-15.9, -0.31, 500),
                             [1e-300, 0.075, 0.5, 0.925, 1.0 - 2.0**-53]])
        got = ndtri(us)
        with mpmath.workdps(50):
            for u, g in zip(us.tolist(), got.tolist()):
                # two Newton steps on Phi(x) = min(u, 1 - u), from within 1e-14, reach 1e-40
                p, x = min(u, 1.0 - u), mpmath.mpf(-abs(g))
                for _ in range(2):
                    x -= (mpmath.ncdf(x) - p) / mpmath.npdf(x)
                exact = x if u <= 0.5 else -x
                assert abs(g - exact) <= 1e-15 * max(1.0, abs(exact)), u

    def test_ends(self):
        got = ndtri(np.array([0.0, 0.5, 1.0]))
        assert got.tolist() == [-math.inf, 0.0, math.inf]
        assert ndtri(np.zeros((2, 3))).shape == (2, 3) and ndtri(np.array([])).shape == (0,)

    def test_round_trip(self):
        # Phi(Phi^-1(u)) = u to the conditioning of Phi: relative in the lower half, where
        # an error dx moves Phi by |x| dx relative; absolute in the upper half, below 1
        rng = np.random.default_rng(2)
        lower = 10.0 ** rng.uniform(-300.0, math.log10(0.5), 20000)
        x = ndtri(lower)
        assert np.all(np.abs(ndtr(x) / lower - 1.0) <= 2e-15 * (1.0 + x * x))
        upper = 1.0 - 10.0 ** rng.uniform(-15.9, math.log10(0.5), 20000)
        assert np.all(np.abs(ndtr(ndtri(upper)) - upper) <= 2.5e-16)
