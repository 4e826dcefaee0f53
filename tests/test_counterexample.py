"""Heavy-tail certificates and the two-atom threshold analysis."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logheat import (
    AtomicMeasure,
    SearchError,
    ValidationError,
    build_counterexample,
    split_function_F,
    log_hessian_heat,
    tilted_moments,
    two_atom_analysis,
    variance_certificate,
)
from logheat.counterexample import _split, _tail_adequate
from logheat.measures import _PSI_FUNCTIONS as _PSI

from oracles import counterexample_weights, finite_tilt


def psi_zero(x):
    return 0.0


def psi_linear(x):
    return x


class TestBuild:
    def test_atom_positions_and_weights(self):
        m = build_counterexample(psi_zero, truncation=10)
        assert m.locations[:5].tolist() == [0.0, 1.0, 3.0, 6.0, 10.0]
        w = np.exp(m.log_weights)
        expect = 1.0 / (np.arange(11) + 1.0) ** 2
        expect /= expect.sum()
        assert np.allclose(w, expect, atol=1e-14)
        # gaps grow linearly
        assert np.allclose(np.diff(m.locations), np.arange(1, 11))

    def test_exp_psi_moment_linear(self):
        # series oracle: Z = sum (i+1)^-2 e^{-x_i}; moment = (pi^2/6)/Z
        m = build_counterexample(psi_linear, truncation=60)
        i = np.arange(61)
        xs = i * (i + 1) / 2.0
        Z = np.sum(np.exp(-2 * np.log(i + 1.0) - xs))
        assert m.exp_psi_moment == pytest.approx((math.pi**2 / 6) / Z, rel=1e-10)
        assert m.exp_psi_moment == pytest.approx(1.4986, abs=1e-4)

    def test_exp_psi_moment_quadratic(self):
        m = build_counterexample(lambda x: x * x, truncation=60)
        i = np.arange(61)
        xs = i * (i + 1) / 2.0
        Z = np.sum(np.exp(-2 * np.log(i + 1.0) - xs * xs))
        assert m.exp_psi_moment == pytest.approx((math.pi**2 / 6) / Z, rel=1e-10)

    @pytest.mark.parametrize("psi, shown", [(lambda x: math.nan, r"got psi\(0\.0\) = nan$"),
                                            (lambda x: math.inf if x > 5 else 0.0,
                                             r"got psi\(6\.0\) = inf$")])
    def test_non_finite_psi_named(self, psi, shown):
        with pytest.raises(ValidationError, match="^psi must be finite on the atom set, " + shown):
            build_counterexample(psi, truncation=10)

    def test_decreasing_psi_rejected(self):
        with pytest.raises(ValidationError):
            build_counterexample(lambda x: -x, truncation=5)
        with pytest.raises(ValidationError):
            build_counterexample(lambda x: 10.0 - x, truncation=10)


class TestSplitFunction:
    def test_nonnegative_at_zero(self):
        m = build_counterexample(psi_zero, truncation=30)
        for j in (1, 5, 15):
            assert split_function_F(m, 1.0, j, 0.0) >= 0.0

    def test_negative_at_large_z(self):
        m = build_counterexample(psi_zero, truncation=30)
        assert split_function_F(m, 1.0, 5, 200.0) < 0.0

    def test_two_atom_closed_form_root(self):
        # truncation 2 keeps three atoms; use j = 1 so the root solves
        # w0-tilt = (w1+w2)-tilt; check sign change around the j=1 gap
        m = build_counterexample(psi_zero, truncation=2)
        t = 1.0
        f = lambda z: split_function_F(m, t, 1, z)
        # exact root of the degenerate two-group split via bisection oracle
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        z0 = 0.5 * (lo + hi)
        assert f(z0) == pytest.approx(0.0, abs=1e-12)


class TestSplitBracket:
    """``_split_tilt`` brackets the split tilt by [0, z_cap] with no check: its
    docstring bounds g(0) from below and g(z_cap) from above."""

    @pytest.mark.parametrize("psi, c", [("zero", 0.0), ("linear", 0.01), ("linear", 1.0),
                                        ("quadratic", 1e-3), ("quadratic", 1.0)])
    @pytest.mark.parametrize("n", [3, 4, 7, 20, 60, 120])
    def test_bounds_at_both_ends(self, psi, c, n):
        m = build_counterexample(_PSI[psi](c), truncation=n)
        for j in range(1, n):
            for t in np.logspace(-3.0, 4.0, 8):
                z_cap = float(m.locations[j]) + t * (float(m.psi_values[j])
                                                     + 4.0 * math.log(j + 1.0)) / j
                assert _split(m, t, j, 0.0)[0] >= -math.log(math.pi**2 / 6 - 1) > 0.43
                g_cap = _split(m, t, j, z_cap)[0]
                bound = math.log(math.pi**2 / 6) - 2.0 * math.log(j + 1.0) - j * j / (2.0 * t)
                assert g_cap <= bound * (1.0 - 1e-12) and bound < -0.88


class TestVarianceCertificate:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("M", [5.0, 10.0])
    def test_linear_psi_certificates(self, t, M):
        m = build_counterexample(psi_linear, truncation=60)
        cert = variance_certificate(m, t, M)
        assert cert.variance >= M * M * (1 - 1e-6)
        assert cert.curvature <= (1 - M * M / t) / t + 1e-6
        # definitional identity
        assert cert.curvature == pytest.approx(
            (1 - cert.variance / t) / t, abs=1e-10
        )
        # half-mass split at z*
        l = m.log_weights + cert.z_star * m.locations / t - m.locations**2 / (2 * t)
        w = np.exp(l - l.max())
        below = w[: cert.j].sum() / w.sum()
        assert below == pytest.approx(0.5, abs=1e-9)
        # gap property of the atom sequence
        assert m.locations[cert.j] - m.locations[cert.j - 1] == cert.j

    def test_t1_m10_below_minus_99(self):
        m = build_counterexample(psi_zero, truncation=60)
        cert = variance_certificate(m, 1.0, 10.0)
        assert cert.curvature <= -99.0 + 1e-6

    def test_small_target(self):
        m = build_counterexample(psi_zero, truncation=60)
        cert = variance_certificate(m, 0.5, 1.0)
        assert cert.j <= 5
        assert cert.variance >= 1.0 - 1e-6

    def test_monotone_refutation(self):
        m = build_counterexample(psi_zero, truncation=120)
        curvs = [variance_certificate(m, 1.0, M).curvature for M in (5.0, 10.0, 20.0)]
        assert curvs[0] > curvs[1] > curvs[2]

    def test_variance_matches_tilted_moments(self):
        m = build_counterexample(psi_linear, truncation=60)
        cert = variance_certificate(m, 1.0, 5.0)
        tm = tilted_moments(m, [cert.z_star], 1.0)
        assert cert.variance == pytest.approx(tm.covariance[0, 0], rel=1e-12)

    def test_truncation_too_small(self):
        m = build_counterexample(psi_zero, truncation=10)
        with pytest.raises((ValidationError, SearchError)):
            variance_certificate(m, 1.0, 50.0)

    @pytest.mark.parametrize("t, M, name", [(math.inf, 2.0, "t"), (math.nan, 2.0, "t"),
                                            (1.0, math.inf, "M"), (1.0, math.nan, "M")])
    def test_non_finite_argument_named(self, t, M, name):
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            variance_certificate(build_counterexample(psi_zero, truncation=10), t, M)

    def test_unreached_target_names_the_last_split(self):
        m = build_counterexample(psi_zero, truncation=10)
        with pytest.raises(SearchError, match=r"^variance target M\^2 = 36\.0 not reached within "
                           r"truncation 10: variance 2\d\.\d+ at j = 9, z = 4\d\.\d+, t = 1\.0$"):
            variance_certificate(m, 1.0, 6.0)


def _bisect_reference(f, lo, hi, tol=1e-12):
    """The bisection the certificate search used before safeguarded Newton."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
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


def _reference_certificate(m, t, M):
    """(j, z*, split-function calls per gap index tried) of the bisection
    search on F = tanh((log-mass below j - log-mass from j on)/2)."""
    xs = m.locations

    def lse(v):
        top = v.max()
        return top + math.log(np.sum(np.exp(v - top)))

    j = max(1, math.ceil(math.sqrt(2.0) * M))
    calls = []
    while True:
        count = [0]

        def F(z):
            count[0] += 1
            l = m.log_weights + z * xs / t - xs * xs / (2.0 * t)
            return math.tanh(0.5 * (lse(l[:j]) - lse(l[j:])))

        x_j = float(xs[j])
        z_cap = x_j + t * (float(m.psi_values[j]) + 4.0 * math.log(j + 1.0)) / j
        assert F(0.0) >= 0.0
        grow = 0
        while F(z_cap) >= 0.0:
            grow += 1
            assert grow <= 8
            z_cap = x_j + 2.0**grow * (z_cap - x_j)
        z = _bisect_reference(F, 0.0, z_cap)
        calls.append(count[0])
        if tilted_moments(m, [z], t).covariance[0, 0] >= M * M * (1.0 - 1e-6):
            return j, z, calls
        j += 1


class TestNewtonSearch:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(_PSI)), st.floats(0.0, 0.1), st.floats(0.2, 5.0),
           st.floats(1.0, 12.0), st.sampled_from([60, 120]))
    def test_matches_bisection_in_fewer_calls(self, psi, c, t, M, truncation):
        m = build_counterexample(_PSI[psi](c), truncation=truncation)
        j_ref, z_ref, calls = _reference_certificate(m, t, M)
        cert = variance_certificate(m, t, M)
        assert cert.j == j_ref
        assert cert.escalations == len(calls) - 1
        assert abs(cert.z_star - z_ref) <= 2e-12 * max(1.0, abs(z_ref))
        weights, locations = counterexample_weights(_PSI[psi](c), truncation)
        r = finite_tilt(weights, locations, np.zeros(truncation + 1), [cert.z_star], t)[3]
        assert abs(np.sum(r[: cert.j]) - 0.5) <= 1e-12
        tm = tilted_moments(m, [cert.z_star], t)
        assert cert.variance == pytest.approx(tm.covariance[0, 0], rel=1e-12)
        assert cert.split_evals / len(calls) <= 0.5 * np.mean(calls)

    def test_counts_stay_out_of_json(self):
        cert = variance_certificate(build_counterexample(psi_linear, truncation=60), 1.0, 5.0)
        assert cert.split_evals > 0 and cert.escalations >= 0
        assert set(cert.to_json()) == {"t", "M", "j", "z_star", "variance", "curvature",
                                       "truncation", "tail_bound"}

    @pytest.mark.parametrize("c", [0.0, 30.0])
    def test_constant_psi_tail_checked_on_one_normalization(self, c):
        # psi = c gives the same normalized measure for every c, so the tail
        # check must treat both alike: the dropped tilted mass is 2.6e-5 of the
        # retained mass at z* = 25.5
        m = build_counterexample(lambda x: c, truncation=8)
        with pytest.raises(SearchError, match=r"^truncation 8 too small: dropped tilted mass "
                           r"ratio 2\.6\d\de-05 > 1e-12 at j = 7, z = 25\.50\d*, t = 20\.0$"):
            variance_certificate(m, 20.0, 4.5)

    def test_tail_bound_needs_z_below_midpoint(self):
        m = build_counterexample(psi_zero, truncation=8)
        with pytest.raises(SearchError, match=r"^truncation 8 too small: the tail bound needs "
                           r"z < \(n \+ 2\)\^2/2 = 50\.0, got z = 50\.0 at j = 7, t = 1\.0$"):
            _tail_adequate(m, 1.0, 7, 50.0, 0.0)  # (x_9 + x_10)/2 = 50
        _tail_adequate(m, 1.0, 7, 49.9, 100.0)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(_PSI)), st.floats(0.0, 0.1), st.floats(0.2, 5.0),
           st.sampled_from([8, 30, 60]), st.floats(0.0, 1.0))
    def test_tail_bound_above_dropped_mass(self, psi, c, t, n, u):
        # a 60-digit sum D of 2000 dropped terms, for z up to x_{n+1}: the check
        # refuses a retained mass just under 1e12 D, so its bound is >= D, and
        # there the bound is within 1/(1 - r) ~ 1 of D, so it accepts 1e12 D e^{0.01}
        m = build_counterexample(_PSI[psi](c), truncation=n)
        z = u * (n + 1) * (n + 2) / 2.0
        with mpmath.workdps(60):
            raw = [-2 * mpmath.log(i + 1) - _PSI[psi](c)(mpmath.mpf(i * (i + 1)) / 2)
                   for i in range(n + 2001)]
            log_Z = mpmath.log(mpmath.fsum(mpmath.exp(v) for v in raw[: n + 1]))
            zz, tt = mpmath.mpf(z), mpmath.mpf(t)
            dropped = mpmath.fsum(
                mpmath.exp(raw[i] - log_Z - (zz - mpmath.mpf(i * (i + 1)) / 2) ** 2 / (2 * tt))
                for i in range(n + 1, n + 2001)) / mpmath.sqrt(2 * mpmath.pi * tt)
            log_d = float(mpmath.log(dropped)) - math.log(1e-12)
        with pytest.raises(SearchError, match="dropped tilted mass ratio"):
            _tail_adequate(m, t, 1, z, log_d - 1e-12 * max(1.0, abs(log_d)))
        _tail_adequate(m, t, 1, z, log_d + 0.01)


class TestTwoAtom:
    def test_threshold_case(self):
        rec = two_atom_analysis(2.0, 0.5, 0.5, 1.0)
        assert rec.z_bar == pytest.approx(1.0)
        assert rec.curvature_at_z_bar == pytest.approx(0.0, abs=1e-10)
        assert rec.grid_min_curvature >= -1e-9
        assert rec.argmin_z == pytest.approx(1.0, abs=1e-6)

    def test_below_threshold(self):
        rec = two_atom_analysis(2.0, 0.5, 0.5, 0.9)
        expect = (1 / 0.9) * (1 - 4.0 / 3.6)
        assert rec.curvature_at_z_bar == pytest.approx(expect, abs=1e-10)
        assert rec.curvature_at_z_bar == pytest.approx(-0.12346, abs=1e-5)
        assert rec.grid_min_curvature < -0.1

    def test_weight_independence(self):
        rec = two_atom_analysis(2.0, 0.9, 0.1, 1.0)
        assert rec.curvature_at_z_bar == pytest.approx(0.0, abs=1e-10)
        assert rec.z_bar == pytest.approx(1.0 + math.log(9.0) / 2.0)

    @pytest.mark.parametrize("x0", [1.0, 2.0, 5.0])
    @pytest.mark.parametrize("w", [(0.5, 0.5), (0.9, 0.1)])
    def test_both_directions(self, x0, w):
        t_hi = x0 * x0 / 4.0
        rec_hi = two_atom_analysis(x0, w[0], w[1], t_hi)
        assert rec_hi.grid_min_curvature >= -1e-9
        rec_lo = two_atom_analysis(x0, w[0], w[1], 0.9 * t_hi)
        assert rec_lo.grid_min_curvature < 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            two_atom_analysis(0.0, 0.5, 0.5, 1.0)

    @pytest.mark.parametrize("x0, w0, w1, t", [
        (2.0, 0.5, 0.5, 1.0), (2.0, 0.5, 0.5, 0.9), (-3.0, 0.9, 0.1, 1.7),
        (5.0, 0.2, 0.8, 2.0), (0.5, 0.7, 0.3, 0.01),
    ])
    def test_batched_grid_matches_pointwise(self, x0, w0, w1, t):
        from scipy.optimize import minimize_scalar

        # reference: the 601-point grid and refinement, one point per call
        mu = AtomicMeasure(dim=1, weights=np.array([w0, w1]) / (w0 + w1),
                           locations=np.array([[0.0], [x0]]))
        curv = lambda z: float(log_hessian_heat(mu, [z], t)[0, 0])
        z_bar = 0.5 * x0 + (t / x0) * math.log(w0 / w1)
        zs = np.linspace(-2.0 * abs(x0), 3.0 * abs(x0), 601)
        vals = np.array([curv(float(z)) for z in zs])
        k = int(np.argmin(vals))
        res = minimize_scalar(curv, bounds=(float(zs[max(k - 1, 0)]), float(zs[min(k + 1, 600)])),
                              method="bounded", options={"xatol": 1e-10})
        rec = two_atom_analysis(x0, w0, w1, t)
        assert rec.z_bar == pytest.approx(z_bar, rel=1e-12)
        assert rec.curvature_at_z_bar == pytest.approx(curv(z_bar), rel=1e-12)
        assert rec.grid_min_curvature == pytest.approx(
            min(float(np.min(vals)), float(res.fun)), rel=1e-12)

    @pytest.mark.parametrize("x0, w0, w1, t", [
        # z_bar inside the bracket [-2|x0|, 3|x0|]
        (2.0, 0.5, 0.5, 1.0), (-3.0, 0.9, 0.1, 1.7), (5.0, 0.2, 0.8, 2.0),
        (0.5, 0.7, 0.3, 0.01), (1.0, 0.5, 0.5, 100.0),
        # z_bar outside it: about 4.89 > 3, -3.89 < -2 and -4.89 < -2
        (1.0, 0.9, 0.1, 2.0), (1.0, 0.1, 0.9, 2.0), (-1.0, 0.9, 0.1, 2.0),
    ])
    def test_argmin_is_clipped_z_bar(self, x0, w0, w1, t):
        from scipy.optimize import minimize_scalar

        mu = AtomicMeasure(dim=1, weights=np.array([w0, w1]) / (w0 + w1),
                           locations=np.array([[0.0], [x0]]))
        curv = lambda z: float(log_hessian_heat(mu, [z], t)[0, 0])
        a, b = -2.0 * abs(x0), 3.0 * abs(x0)
        rec = two_atom_analysis(x0, w0, w1, t)
        assert rec.argmin_z == min(max(rec.z_bar, a), b)
        # reference: a bounded minimiser around the best grid point, in
        # coordinates centred there so that its absolute tolerance stays small
        zs = np.linspace(a, b, 601)
        vals = log_hessian_heat(mu, zs[:, None], t)[:, 0, 0]
        k = int(np.argmin(vals))
        res = minimize_scalar(lambda u: curv(zs[k] + u), method="bounded",
                              bounds=(zs[max(k - 1, 0)] - zs[k], zs[min(k + 1, 600)] - zs[k]),
                              options={"xatol": 1e-12})
        inside = a < rec.z_bar < b
        # function values locate an interior quadratic minimum only to about
        # sqrt(eps); a minimum at the bracket edge is located to xatol
        assert rec.argmin_z == pytest.approx(zs[k] + res.x, abs=5e-8 if inside else 1e-9)
        assert curv(rec.argmin_z) <= res.fun + 1e-15
        assert rec.grid_min_curvature == min(float(np.min(vals)), curv(rec.argmin_z))

    @pytest.mark.parametrize("args, name", [
        ((2.0, 0.5, 0.5, math.inf), "t"), ((math.nan, 0.5, 0.5, 1.0), "x0"),
        ((-math.inf, 0.5, 0.5, 1.0), "x0"), ((2.0, math.nan, 0.5, 1.0), "w0"),
        ((2.0, 0.5, math.inf, 1.0), "w1"), ((2.0, 0.5, 0.5, math.nan), "t"),
    ])
    def test_non_finite_argument_named(self, args, name):
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            two_atom_analysis(*args)

    @pytest.mark.parametrize("args, pattern", [
        # t/x0 overflows, so z_bar is not finite
        ((1e-300, 0.5, 0.5, 1e10), r"^x0 = 1e-300 and t = 10000000000\.0 are out of range"),
        # the bracket 3|x0| overflows
        ((1e308, 0.5, 0.5, 1.0), r"^x0 = 1e\+308 and t = 1\.0 are out of range"),
        # x0^2 / t^2, the scale of the curvature, overflows
        ((1e-140, 0.5, 0.5, 1e-308), r"^x0 = 1e-140 and t = 1e-308 are out of range"),
        # w0 / (w0 + w1) underflows
        ((2.0, 1e-300, 1e300, 1.0), r"^w0 is out of range"),
        ((2.0, 1e300, 1e-300, 1.0), r"^w1 is out of range"),
    ])
    def test_extreme_finite_argument_named(self, args, pattern):
        with pytest.raises(ValidationError, match=pattern):
            two_atom_analysis(*args)

    @pytest.mark.parametrize("x0", [3.0, 1e4, 1e6, 1e8, 1e9, -1e8])
    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_curvature_at_z_bar_far_atoms(self, x0, t):
        # reference: the exact curvature (1/t)(1 - Var/t) of the tilt at the float
        # z_bar, whose tilted weights carry the rounding of z_bar; the tilt exponent
        # (z x0 - x0^2/2)/t is large and cancels
        for w0 in (0.5, 0.3, 0.1, 0.9, 1e-6):
            rec = two_atom_analysis(x0, w0, 1.0 - w0, t)
            var = finite_tilt([w0, 1.0 - w0], [[0.0], [x0]], [0.0, 0.0], [rec.z_bar], t)[2][0, 0]
            want = (1.0 - var / t) / t
            assert abs(rec.curvature_at_z_bar - want) <= 1e-12 * abs(want), w0
        # equal weights: z_bar = x0/2 exactly, at the closed form
        want = (1.0 - x0 * x0 / (4.0 * t)) / t
        assert two_atom_analysis(x0, 0.5, 0.5, t).curvature_at_z_bar == pytest.approx(
            want, rel=1e-12)
