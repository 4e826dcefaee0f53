"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single PASS line (visible with ``pytest -s``/on failure);
the pytest verdict itself is the pass/fail record.
"""
import math

import numpy as np
import pytest
from scipy import stats

from logheat import (
    AtomicMeasure,
    PerturbationParams,
    build_counterexample,
    build_flow_map,
    cdf_1d,
    convolve_gaussian,
    cor7_envelope,
    empirical_lipschitz,
    integrated_ou_upper,
    lemma1_check,
    lemma4_decompose,
    log_concavity_time,
    log_hessian,
    log_hessian_heat,
    make_gaussian_mixture,
    make_perturbed,
    mean_variance_1d,
    mixture_hessian_lower,
    ou_log_derivatives,
    pushforward_validate,
    reverse_sde_sample,
    theta_envelope,
    thm2_envelope,
    tilted_moments,
    transport_constants,
    two_atom_analysis,
    variance_certificate,
)

from conftest import (
    integrated_ou_upper_numeric,
    random_atomic,
    random_mixture,
    random_perturbed,
)


def _report(n, name):
    print(f"criterion {n:2d} ({name}): PASS")


def gaussian_1d(mean=0.0, var=1.0):
    return make_gaussian_mixture([(1.0, [mean], var)])


def test_criterion_01_gaussian_tightness():
    g = gaussian_1d()
    for t in (0.5, 1.0, 4.0):
        lam = log_hessian_heat(g, [0.3], t)[0, 0]
        lower, _ = thm2_envelope(1.0, 0.0, t)
        assert abs(lam - 1.0 / (1.0 + t)) < 1e-8
        assert abs(lower - 1.0 / (1.0 + t)) < 1e-8
    _report(1, "gaussian tightness")


def test_criterion_02_sandwich_100_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        pm = random_perturbed(rng)
        t_star = log_concavity_time(pm.alpha, pm.lip)
        mean, var = mean_variance_1d(pm)
        zs = mean + np.linspace(-6, 6, 41) * math.sqrt(var)
        for t in (0.5 * t_star, t_star, 2.0 * t_star):
            lower, _ = thm2_envelope(pm.alpha, pm.lip, t)
            lams = np.array([log_hessian_heat(pm, [z], t)[0, 0] for z in zs])
            assert np.min(lams) >= lower - 1e-6
            assert np.max(lams) <= 1.0 / t + 1e-9
            if t >= t_star:
                assert np.min(lams) >= -1e-6
    _report(2, "smoothing-envelope sandwich, 100 random targets")


def test_criterion_03_two_atom_both_directions():
    hi = two_atom_analysis(2.0, 0.5, 0.5, 1.0)
    assert hi.grid_min_curvature >= -1e-9
    assert hi.z_bar == pytest.approx(1.0, abs=1e-12)
    assert hi.curvature_at_z_bar == pytest.approx(0.0, abs=1e-10)
    assert hi.argmin_z == pytest.approx(1.0, abs=1e-6)
    lo = two_atom_analysis(2.0, 0.5, 0.5, 0.9)
    assert lo.grid_min_curvature < -0.1
    assert lo.curvature_at_z_bar == pytest.approx(
        (1.0 / 0.9) * (1.0 - 4.0 / 3.6), abs=1e-6
    )
    _report(3, "two-atom threshold, both directions")


def test_criterion_04_representation_equivalence():
    rng = np.random.default_rng(11)
    t = 0.7
    for dim in (1, 2):
        for _ in range(10):
            m = random_mixture(rng, dim=dim, max_components=3)
            conv = convolve_gaussian(m, t)
            direction = rng.standard_normal(dim)
            direction /= np.linalg.norm(direction)
            for s in np.linspace(-4, 4, 41):
                z = s * direction
                analytic = -log_hessian(conv, z)
                tm = tilted_moments(m, z, t)
                rep = (np.eye(dim) - tm.covariance / t) / t
                assert np.max(np.abs(analytic - rep)) < 1e-8
    _report(4, "covariance representation equals analytic log-Hessian")


def test_criterion_05_heavy_tail_certificates():
    m = build_counterexample(lambda x: x, truncation=60)
    i = np.arange(61)
    xs = i * (i + 1) / 2.0
    series = (math.pi**2 / 6) / np.sum(np.exp(-2 * np.log(i + 1.0) - xs))
    assert m.exp_psi_moment == pytest.approx(series, abs=1e-10)
    for t in (0.5, 1.0, 2.0):
        for M in (5.0, 10.0):
            cert = variance_certificate(m, t, M)
            assert cert.variance >= M * M * (1 - 1e-9)
            assert cert.curvature <= (1 - M * M / t) / t + 1e-6
            l = (m.log_weights + cert.z_star * m.locations / t
                 - m.locations**2 / (2 * t))
            w = np.exp(l - l.max())
            assert w[: cert.j].sum() / w.sum() == pytest.approx(0.5, abs=1e-9)
    zero = build_counterexample(lambda x: 0.0, truncation=60)
    assert variance_certificate(zero, 1.0, 10.0).curvature <= -99.0 + 1e-6
    _report(5, "unbounded-curvature certificates")


def test_criterion_06_certification_chain():
    # target proportional to e^{-(x^2/2 + |x|)}: alpha = 1, lip = 1
    target = make_perturbed(1.0, [], [0.0], [0.0], [-1.0, 1.0])
    flow = build_flow_map(target)
    push = pushforward_validate(flow, target)
    assert push.ks_stat < 0.02
    lip = float(empirical_lipschitz(flow))
    assert lip <= math.exp(2.5) * 1.05
    env = theta_envelope(target)
    assert env.integral_theta_max <= 2.5 + math.log(1.02)
    # the matching lower bound is attained by the tilt with the opposite
    # sign, e^{-x^2/2 + |x|}, which concentrates mass away from the origin
    sharp = make_perturbed(1.0, [], [0.0], [0.0], [1.0, -1.0])
    sharp_lip = float(empirical_lipschitz(build_flow_map(sharp)))
    assert sharp_lip >= math.exp(0.5) * 0.8
    assert sharp_lip <= math.exp(2.5) * 1.05
    # closed-form targets
    trans = build_flow_map(gaussian_1d(mean=1.5), n_points=65)
    assert np.max(np.abs(trans.images - (trans.inputs + 1.5))) < 1e-4
    dil = build_flow_map(gaussian_1d(var=4.0), n_points=65)
    assert float(empirical_lipschitz(dil)) == pytest.approx(2.0, abs=1e-3)
    _report(6, "transport certification chain")


def test_criterion_07_integral_identity():
    for alpha, lip in ((1.0, 0.0), (1.0, 1.0), (2.0, 0.5)):
        closed = -0.5 * math.log(alpha) + lip**2 / (2 * alpha) + 2 * lip / math.sqrt(alpha)
        assert integrated_ou_upper(alpha, lip) == pytest.approx(closed, rel=1e-12)
        numeric, _ = integrated_ou_upper_numeric(alpha, lip)
        assert numeric == pytest.approx(closed, abs=1e-4)
    assert math.exp(integrated_ou_upper(4.0, 0.0)) == pytest.approx(0.5, abs=1e-6)
    _report(7, "integrated envelope identity")


def test_criterion_08_mixture_domination():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = random_mixture(rng, max_components=3)
        if m.weights.size < 2:
            m = random_mixture(rng, max_components=3)
        for x in np.linspace(-6, 6, 41):
            actual = float(-log_hessian(m, [x])[0, 0])
            refined, crude = mixture_hessian_lower(m, [x])
            assert actual >= float(refined[0, 0]) - 1e-8
            assert float(refined[0, 0]) >= float(crude[0, 0]) - 1e-8
    sym = make_gaussian_mixture([(0.5, [-1.0], 0.5), (0.5, [1.0], 0.5)])
    refined, crude = mixture_hessian_lower(sym, [0.0])
    assert float(refined[0, 0]) == pytest.approx(float(crude[0, 0]), abs=1e-10)
    _report(8, "mixture curvature domination chain")


def test_criterion_09_potential_decomposition():
    U = lambda x: x**4 - 2.0 * x * x
    dec = lemma4_decompose(U, alpha=1.0, beta=4.0, radius=0.65)
    g = dec.grid
    V = np.array([dec.V(float(x)) for x in g])
    H = np.asarray(dec.H(g), dtype=float)
    assert np.max(np.abs(V + H - (g**4 - 2 * g * g))) < 1e-10
    h = 1e-4
    v2 = np.array([(dec.V(x + h) - 2 * dec.V(x) + dec.V(x - h)) / h**2 for x in g])
    assert np.min(v2) >= 1.0 - 1e-6
    hp = np.diff(H) / np.diff(g)
    assert np.max(np.abs(hp)) <= 6.5 + 1e-10
    _report(9, "convex + Lipschitz potential split")


def test_criterion_10_variance_wasserstein_bound():
    rng = np.random.default_rng(17)
    for _ in range(200):
        mu = random_atomic(rng)
        nu = random_atomic(rng)
        _, _, slack = lemma1_check(mu, nu)
        assert slack >= -1e-10
    tight_mu = AtomicMeasure(dim=1, weights=np.array([0.5, 0.5]),
                             locations=np.array([[0.0], [2.0]]))
    tight_nu = AtomicMeasure(dim=1, weights=np.array([1.0]),
                             locations=np.array([[1.0]]))
    _, _, slack = lemma1_check(tight_mu, tight_nu)
    assert abs(slack) < 1e-10
    _report(10, "variance vs Wasserstein comparison")


def test_criterion_11_ou_envelope():
    rng = np.random.default_rng(19)
    for _ in range(5):
        pm = random_perturbed(rng)
        for t in (0.2, 0.5, 1.0, 2.0):
            lower, upper = cor7_envelope(pm.alpha, pm.lip, t)
            for x in np.linspace(-4, 4, 21):
                _, _, hess = ou_log_derivatives(pm, t, np.array([x]))
                theta = float(hess[0, 0])
                assert theta >= lower - 1e-6
                assert theta <= upper + 1e-6
    g = gaussian_1d()
    for t in (0.3, 1.0, 3.0):
        for x in (-1.0, 0.0, 2.0):
            _, _, hess = ou_log_derivatives(g, t, np.array([x]))
            assert abs(float(hess[0, 0])) < 1e-10
    _report(11, "Ornstein-Uhlenbeck curvature envelope")


def test_criterion_12_reverse_sde():
    g = make_gaussian_mixture([(0.5, [-2.0], 1.0), (0.5, [2.0], 1.0)])
    ys = reverse_sde_sample(g, 20000, 400, 3.0, seed=1)[:, 0]
    ks = stats.kstest(np.sort(ys), lambda y: cdf_1d(g, y)).statistic
    assert ks < 0.03
    ys2 = reverse_sde_sample(g, 20000, 800, 3.0, seed=1)[:, 0]
    ks2 = stats.kstest(np.sort(ys2), lambda y: cdf_1d(g, y)).statistic
    # halving the step size reduces KS or leaves it within sampling noise
    assert ks2 <= ks + 0.01
    _report(12, "reverse-diffusion sampler accuracy")
