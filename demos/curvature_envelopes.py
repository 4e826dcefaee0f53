"""Curvature of Gaussian-smoothed measures versus the closed-form envelopes.

Smoothing any measure with a Gaussian of variance t caps the curvature of
the negative log-density at 1/t.  For a strongly log-concave target with a
Lipschitz perturbation there is also a lower envelope, which crosses zero at
a computable time t*: beyond it, the smoothed measure is log-concave no
matter where you look.  This script scans a bimodal mixture to show both
effects, then shows the two-atom threshold where log-concavity first fails.
"""
import numpy as np

from logheat import (
    analyze_mixture_1d,
    log_concavity_time,
    log_hessian_heat,
    make_gaussian_mixture,
    thm2_envelope,
    two_atom_analysis,
)


def main():
    mix = make_gaussian_mixture([(0.5, [0.0], 0.5), (0.5, [2.0], 0.5)])
    res = analyze_mixture_1d(mix)
    t_star = log_concavity_time(res.alpha, res.lip)
    print(f"bimodal mixture: alpha={res.alpha:.3f} lip={res.lip:.3f} "
          f"radius={res.radius:.3f} -> log-concave after t*={t_star:.3f}")

    zs = np.linspace(-3.0, 5.0, 33)
    for t in (0.3, 0.25 * t_star, t_star):
        lower, upper = thm2_envelope(res.alpha, res.lip, t)
        lams = log_hessian_heat(mix, zs[:, None], t)[:, 0, 0]
        print(f"\n t = {t:8.3f}   envelope [{lower:9.4f}, {upper:9.4f}]")
        print(f"   curvature range over z: [{lams.min():9.4f}, {lams.max():9.4f}]")
        print(f"   log-concave everywhere: {bool(np.min(lams) >= -1e-9)}")

    print("\ntwo-atom threshold (atoms at 0 and 2): log-concavity of the "
          "smoothed measure needs t >= x0^2/4 = 1")
    for t in (0.9, 1.0, 1.5):
        rec = two_atom_analysis(2.0, 0.5, 0.5, t)
        print(f" t = {t:4.2f}: min curvature = {rec.grid_min_curvature:+.5f} "
              f"(at z = {rec.argmin_z:.3f})")


if __name__ == "__main__":
    main()
