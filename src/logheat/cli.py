"""Command-line front end: JSON reports and CSV scans for every module."""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import bounds as bd
from . import measures as ms
from .counterexample import build_counterexample, two_atom_analysis, variance_certificate
from .errors import (
    BracketError,
    CapabilityError,
    DomainError,
    NumericalError,
    PreconditionError,
    SearchError,
    ValidationError,
)
from .heatflow import log_hessian_heat
from .measures import (
    GaussianMixture,
    PerturbedLogConcave1D,
    _PSI_FUNCTIONS,
    measure_from_json,
)
from .structure import Infeasible, analyze_mixture_1d, lemma4_decompose
from .transport import (
    _ks_stat,
    build_flow_map,
    empirical_lipschitz,
    pushforward_validate,
    reverse_sde_sample,
    theta_envelope,
)

__all__ = ["main"]

_USAGE_EXIT = 64
_VALIDATION_EXIT = 2
_NUMERICAL_EXIT = 3

_FMT = "%.17g"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return _FMT % float(x)


def _write_csv(out_dir: str | None, name: str, header: list[str], rows) -> str:
    """Write ``rows`` to CSV file ``name`` in out_dir (default "."); returns its path."""
    out_dir = out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(report: dict, out_dir: str | None, name: str,
          diagnostics: dict | None = None) -> None:
    """Print the report (with wall time and any diagnostics) and write the
    deterministic file, which carries neither."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(_json_text(report))
    shown = dict(report)
    shown["wall_time"] = time.time() - _T0
    if diagnostics is not None:
        shown["diagnostics"] = diagnostics
    sys.stdout.write(_json_text(shown))


_T0 = 0.0


def _load_measure(path: str):
    with open(path) as fh:
        obj = json.load(fh)
    return measure_from_json(obj)


def _measure_params(measure) -> tuple[float, float] | None:
    """(alpha, lip) of a measure, when derivable."""
    if isinstance(measure, PerturbedLogConcave1D):
        return measure.alpha, measure.lip
    if isinstance(measure, GaussianMixture) and measure.dim == 1:
        res = analyze_mixture_1d(measure)
        if isinstance(res, Infeasible):
            return None
        return res.alpha, res.lip
    return None


def _scan_grid(measure, lo: float | None, hi: float | None, points: int) -> np.ndarray:
    """``points`` equally spaced points on [lo, hi]; a missing end defaults to
    the mean -/+ 6 standard deviations of the 1D measure."""
    if points < 1:
        raise ValidationError(f"--points must be at least 1, got {points}")
    mean, var = ms.mean_variance_1d(measure)
    half = 6.0 * math.sqrt(max(var, 1e-12))
    return np.linspace(mean - half if lo is None else lo, mean + half if hi is None else hi,
                       points)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_bounds(args) -> int:
    lower, upper = bd.thm2_envelope(args.alpha, args.lip, args.t)
    report = {
        "command": "bounds",
        "alpha": args.alpha,
        "lip": args.lip,
        "t": args.t,
        "lower": lower,
        "upper": upper,
    }
    c7_low, c7_up = bd.cor7_envelope(args.alpha, args.lip, args.t)
    report["cor7_lower"] = c7_low
    report["cor7_upper"] = c7_up
    if args.alpha > 0:
        report["t_star"] = bd.log_concavity_time(args.alpha, args.lip)
        report["integrated_ou_upper"] = bd.integrated_ou_upper(args.alpha, args.lip)
        consts = bd.transport_constants(bd.PerturbationParams(
            alpha=args.alpha, lip=args.lip, third_deriv=args.third_deriv))
        report.update(consts)
        report["lsi_transferred"] = bd.lsi_transfer(args.lsi_c, consts["thm3"])
    if args.radius > 0:
        report["compact_support_lower"] = bd.compact_support_lower(args.radius, args.t)
    _emit(report, args.out, "bounds.json")
    return 0


def _cmd_hessian_scan(args) -> int:
    measure = _load_measure(args.measure)
    if measure.dim != 1:
        raise ValidationError("hessian-scan supports 1D measures")
    zs = _scan_grid(measure, args.z_min, args.z_max, args.points)
    params = _measure_params(measure)
    upper_env = 1.0 / args.t
    lower_env = -math.inf
    if params is not None:
        alpha, lip = params
        if alpha * args.t + 1.0 > 0:
            lower_env, upper_env = bd.thm2_envelope(alpha, lip, args.t)
    lam = log_hessian_heat(measure, zs[:, None], args.t)[:, 0, 0]
    rows = np.column_stack([zs, lam, lam, np.full_like(lam, lower_env),
                            np.full_like(lam, upper_env), lam - lower_env, upper_env - lam])
    header = ["z", "lambda_min", "lambda_max", "lower_envelope", "upper_envelope",
              "slack_lower", "slack_upper"]
    csv_path = _write_csv(args.out, "hessian_scan.csv", header, rows)
    report = {
        "command": "hessian-scan",
        "t": args.t,
        "points": args.points,
        "csv": csv_path,
        "min_curvature": float(np.min(lam)),
        "max_curvature": float(np.max(lam)),
        "lower_envelope": lower_env,
        "upper_envelope": upper_env,
    }
    _emit(report, args.out, "hessian_scan.json")
    return 0


def _cmd_transport(args) -> int:
    measure = _load_measure(args.measure)
    flow = build_flow_map(measure, n_points=args.points)
    csv_path = _write_csv(args.out, "flowmap.csv", ["input", "image"],
                          zip(flow.inputs, flow.images))
    lip_est = empirical_lipschitz(flow)
    push = pushforward_validate(flow, measure, n_samples=args.samples, seed=args.seed)
    theta = theta_envelope(measure)
    report = {
        "command": "transport",
        "points": args.points,
        "csv": csv_path,
        "empirical_lipschitz": lip_est.value,
        "lipschitz_location": lip_est.location,
        "integral_theta_max": theta.integral_theta_max,
        "exp_integral_theta_max": math.exp(theta.integral_theta_max),
        "ks_stat": push.ks_stat,
        "mean_error": push.mean_error,
        "var_error": push.var_error,
    }
    params = _measure_params(measure)
    if params is not None and params[0] > 0:
        consts = bd.transport_constants(bd.PerturbationParams(*params))
        report["thm3_constant"] = consts["thm3"]
    _emit(report, args.out, "transport.json", {"velocity_evals": flow.velocity_evals,
                                                "steps_per_unit": flow.steps_per_unit})
    return 0


def _cmd_counterexample(args) -> int:
    psi = _PSI_FUNCTIONS[args.psi](args.coefficient)
    measure = build_counterexample(psi, truncation=args.truncation)
    cert = variance_certificate(measure, args.t, args.target_m)
    report = {"command": "counterexample", "psi": args.psi,
              "coefficient": args.coefficient,
              "exp_psi_moment": measure.exp_psi_moment}
    report.update(cert.to_json())
    _emit(report, args.out, "certificate.json", {"split_evals": cert.split_evals,
                                                  "escalations": cert.escalations})
    return 0


def _cmd_two_atom(args) -> int:
    rec = two_atom_analysis(args.x0, args.w0, args.w1, args.t)
    report = {
        "command": "two-atom",
        "x0": args.x0,
        "t": args.t,
        "z_bar": rec.z_bar,
        "curvature_at_z_bar": rec.curvature_at_z_bar,
        "grid_min_curvature": rec.grid_min_curvature,
        "argmin_z": rec.argmin_z,
        "threshold_t": args.x0 * args.x0 / 4.0,
        "analytic_curvature": (1.0 - args.x0 * args.x0 / (4.0 * args.t)) / args.t,
    }
    _emit(report, args.out, "two_atom.json")
    return 0


def _cmd_decompose(args) -> int:
    if args.measure:
        measure = _load_measure(args.measure)
        if not isinstance(measure, GaussianMixture) or measure.dim != 1:
            raise ValidationError("decompose --measure expects a 1D gaussian_mixture")
        res = analyze_mixture_1d(measure)
        if isinstance(res, Infeasible):
            report = {"command": "decompose", "feasible": False, "reason": res.reason,
                      "radius_cap": res.radius_cap}
        else:
            report = {
                "command": "decompose",
                "feasible": True,
                "alpha": res.alpha,
                "lip": res.lip,
                "radius": res.radius,
                "beta": res.beta,
                "t_star": bd.log_concavity_time(res.alpha, res.lip),
            }
        _emit(report, args.out, "decompose.json")
        return 0
    try:
        coeffs = [float(c) for c in args.coeffs.split(",")]
    except ValueError:
        raise ValidationError(f"--coeffs must be comma-separated numbers, got {args.coeffs!r}")
    poly = np.polynomial.Polynomial(coeffs)
    dec = lemma4_decompose(lambda x: float(poly(x)), args.alpha, args.beta, args.radius)
    g = dec.grid
    v2 = (dec.V(g + 1e-4) - 2 * dec.V(g) + dec.V(g - 1e-4)) / 1e-8
    hp = np.diff(np.asarray(dec.H(g), dtype=float)) / np.diff(g)
    report = {
        "command": "decompose",
        "feasible": True,
        "alpha": dec.alpha,
        "beta": dec.beta,
        "radius": dec.radius,
        "lip_cert": dec.lip_cert,
        "min_V_second_derivative": float(np.min(v2)),
        "max_H_slope": float(np.max(np.abs(hp))),
    }
    _emit(report, args.out, "decompose.json")
    return 0


def _cmd_mixture(args) -> int:
    measure = _load_measure(args.measure)
    if not isinstance(measure, GaussianMixture) or measure.dim != 1:
        raise ValidationError("mixture expects a 1D gaussian_mixture")
    xs = _scan_grid(measure, args.x_min, args.x_max, args.points)
    refined, crude = bd.mixture_hessian_lower(measure, xs[:, None])
    arr = np.column_stack([xs, -ms.log_hessian(measure, xs[:, None])[:, 0, 0],
                           refined[:, 0, 0], crude[:, 0, 0]])
    csv_path = _write_csv(args.out, "mixture_scan.csv",
                          ["x", "curvature", "refined_lower", "crude_lower"], arr)
    report = {
        "command": "mixture",
        "csv": csv_path,
        "min_curvature": float(np.min(arr[:, 1])),
        "min_refined": float(np.min(arr[:, 2])),
        "min_crude": float(np.min(arr[:, 3])),
        "max_violation_refined": float(np.max(arr[:, 2] - arr[:, 1])),
        "max_violation_crude": float(np.max(arr[:, 3] - arr[:, 2])),
    }
    _emit(report, args.out, "mixture.json")
    return 0


def _cmd_reverse_sde(args) -> int:
    measure = _load_measure(args.measure)
    samples = reverse_sde_sample(measure, args.n, args.steps, args.t1, seed=args.seed)
    csv_path = _write_csv(args.out, "samples.csv", [f"x{i}" for i in range(measure.dim)],
                          samples)
    report = {
        "command": "reverse-sde",
        "n": args.n,
        "steps": args.steps,
        "t1": args.t1,
        "seed": args.seed,
        "csv": csv_path,
        "sample_mean": float(np.mean(samples)),
        "sample_var": float(np.var(samples)),
    }
    if measure.dim == 1:
        report["ks_stat"] = _ks_stat(measure, np.sort(samples[:, 0]))
    _emit(report, args.out, "reverse_sde.json")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="logheat", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="output directory")

    sp = sub.add_parser("bounds", parents=[], help="closed-form envelope report")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--lip", type=float, default=0.0)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--radius", type=float, default=0.0)
    sp.add_argument("--third-deriv", type=float, default=0.0)
    sp.add_argument("--lsi-c", type=float, default=1.0)
    common(sp)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("hessian-scan", help="curvature scan of a smoothed measure")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--z-min", type=float, default=None)
    sp.add_argument("--z-max", type=float, default=None)
    sp.add_argument("--points", type=int, default=41)
    common(sp)
    sp.set_defaults(func=_cmd_hessian_scan)

    sp = sub.add_parser("transport", help="flow map + Lipschitz certification")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--points", type=int, default=257)
    sp.add_argument("--samples", type=int, default=20000)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=_cmd_transport)

    sp = sub.add_parser("counterexample", help="unbounded-curvature certificate")
    sp.add_argument("--psi", default="zero", choices=sorted(_PSI_FUNCTIONS))
    sp.add_argument("--coefficient", type=float, default=1.0)
    sp.add_argument("--truncation", type=int, default=60)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--target-m", type=float, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_counterexample)

    sp = sub.add_parser("two-atom", help="two-atom curvature threshold")
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--w0", type=float, default=0.5)
    sp.add_argument("--w1", type=float, default=0.5)
    sp.add_argument("--t", type=float, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_two_atom)

    sp = sub.add_parser("decompose", help="convex + Lipschitz potential split")
    sp.add_argument("--measure", default=None)
    sp.add_argument("--coeffs", default=None,
                    help="polynomial potential coefficients c0,c1,c2,...")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--radius", type=float, default=0.0)
    common(sp)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("mixture", help="mixture curvature lower-bound scan")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--x-min", type=float, default=None)
    sp.add_argument("--x-max", type=float, default=None)
    sp.add_argument("--points", type=int, default=101)
    common(sp)
    sp.set_defaults(func=_cmd_mixture)

    sp = sub.add_parser("reverse-sde", help="reverse-diffusion sampler")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--n", type=int, default=20000)
    sp.add_argument("--steps", type=int, default=400)
    sp.add_argument("--t1", type=float, default=3.0)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=_cmd_reverse_sde)

    return p


def main(argv=None) -> int:
    global _T0
    _T0 = time.time()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "decompose" and not (args.measure or args.coeffs):
        parser.error("decompose needs --measure or --coeffs")
    try:
        return args.func(args)
    except (ValidationError, DomainError, PreconditionError, CapabilityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _VALIDATION_EXIT
    except (NumericalError, SearchError, BracketError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _NUMERICAL_EXIT
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
