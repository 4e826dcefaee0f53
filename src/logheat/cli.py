"""Command-line front end: JSON reports and CSV scans for every module.

Each subcommand is one row of a table, naming its function, its report file
and its options, from which one loop builds the parser."""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import bounds as bd
from . import measures as ms
from .counterexample import build_counterexample, two_atom_analysis, variance_certificate
from .errors import LogheatError, NumericalError, ValidationError
from .heatflow import log_hessian_heat
from .measures import GaussianMixture, PerturbedLogConcave1D, _PSI_FUNCTIONS, measure_from_json
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _write_csv(out_dir: str | None, name: str, header: list[str], rows) -> str:
    """Write ``rows`` to CSV file ``name`` in out_dir (default "."); returns its path."""
    out_dir = out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    return path


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_measure(path: str):
    with open(path) as fh:
        obj = json.load(fh)
    return measure_from_json(obj)


def _measure_params(measure) -> tuple[float, float] | None:
    """(alpha, lip) of a 1D measure, when derivable."""
    if isinstance(measure, PerturbedLogConcave1D):
        return measure.alpha, measure.lip
    if isinstance(measure, GaussianMixture):
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
# subcommands: each returns its report and the diagnostics shown on stdout only
# ---------------------------------------------------------------------------

def _cmd_bounds(args):
    lower, upper = bd.thm2_envelope(args.alpha, args.lip, args.t)
    report = {
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
    if args.radius != 0:  # the default 0 leaves the classical bound out
        report["compact_support_lower"] = bd.compact_support_lower(args.radius, args.t)
    return report, None


def _cmd_hessian_scan(args):
    measure = _load_measure(args.measure)
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
    return {
        "t": args.t,
        "points": args.points,
        "csv": csv_path,
        "min_curvature": float(np.min(lam)),
        "max_curvature": float(np.max(lam)),
        "lower_envelope": lower_env,
        "upper_envelope": upper_env,
    }, None


def _cmd_transport(args):
    measure = _load_measure(args.measure)
    flow = build_flow_map(measure, n_points=args.points)
    csv_path = _write_csv(args.out, "flowmap.csv", ["input", "image"],
                          np.column_stack([flow.inputs, flow.images]))
    lip_est = empirical_lipschitz(flow)
    push = pushforward_validate(flow, measure, n_samples=args.samples, seed=args.seed)
    theta = theta_envelope(measure)
    report = {
        "points": args.points,
        "csv": csv_path,
        "empirical_lipschitz": lip_est.value,
        "lipschitz_location": lip_est.location,
        "integral_theta_max": theta.integral_theta_max,
        "exp_integral_theta_max": math.exp(theta.integral_theta_max),
        **asdict(push),
    }
    params = _measure_params(measure)
    if params is not None and params[0] > 0:
        consts = bd.transport_constants(bd.PerturbationParams(*params))
        report["thm3_constant"] = consts["thm3"]
    return report, {"velocity_evals": flow.velocity_evals, "steps_per_unit": flow.steps_per_unit}


def _cmd_counterexample(args):
    psi = _PSI_FUNCTIONS[args.psi](args.coefficient)
    measure = build_counterexample(psi, truncation=args.truncation)
    cert = variance_certificate(measure, args.t, args.target_m)
    report = {"psi": args.psi, "coefficient": args.coefficient,
              "exp_psi_moment": measure.exp_psi_moment}
    report.update(cert.to_json())
    return report, {"split_evals": cert.split_evals, "escalations": cert.escalations}


def _cmd_two_atom(args):
    rec = two_atom_analysis(args.x0, args.w0, args.w1, args.t)
    return {
        "x0": args.x0,
        "t": args.t,
        **asdict(rec),
        "threshold_t": args.x0 * args.x0 / 4.0,
        "analytic_curvature": (1.0 - args.x0 * args.x0 / (4.0 * args.t)) / args.t,
    }, None


def _cmd_decompose(args):
    if args.measure is not None:
        given = [flag for flag, kwargs in _LEMMA4 if getattr(args, flag[2:]) != kwargs["default"]]
        if given:
            raise ValidationError(f"--measure takes no {', '.join(given)}: they are read "
                                  "only with --coeffs")
        res = analyze_mixture_1d(_load_measure(args.measure))
        if isinstance(res, Infeasible):
            return {"feasible": False, **asdict(res)}, None
        return {"feasible": True, **asdict(res),
                "t_star": bd.log_concavity_time(res.alpha, res.lip)}, None
    try:
        coeffs = [float(c) for c in args.coeffs.split(",")]
    except ValueError:
        raise ValidationError(f"--coeffs must be comma-separated numbers, got {args.coeffs!r}")
    poly = np.polynomial.Polynomial(coeffs)
    dec = lemma4_decompose(lambda x: float(poly(x)), args.alpha, args.beta, args.radius)
    g = dec.grid
    v2 = (dec.V(g + 1e-4) - 2 * dec.V(g) + dec.V(g - 1e-4)) / 1e-8
    hp = np.diff(np.asarray(dec.H(g), dtype=float)) / np.diff(g)
    return {
        "feasible": True,
        "alpha": dec.alpha,
        "beta": dec.beta,
        "radius": dec.radius,
        "lip_cert": dec.lip_cert,
        "min_V_second_derivative": float(np.min(v2)),
        "max_H_slope": float(np.max(np.abs(hp))),
    }, None


def _cmd_mixture(args):
    measure = _load_measure(args.measure)
    xs = _scan_grid(measure, args.x_min, args.x_max, args.points)
    refined, crude = bd.mixture_hessian_lower(measure, xs[:, None])
    arr = np.column_stack([xs, -ms.log_hessian(measure, xs[:, None])[:, 0, 0],
                           refined[:, 0, 0], crude[:, 0, 0]])
    csv_path = _write_csv(args.out, "mixture_scan.csv",
                          ["x", "curvature", "refined_lower", "crude_lower"], arr)
    return {
        "csv": csv_path,
        "min_curvature": float(np.min(arr[:, 1])),
        "min_refined": float(np.min(arr[:, 2])),
        "min_crude": float(np.min(arr[:, 3])),
        "max_violation_refined": float(np.max(arr[:, 2] - arr[:, 1])),
        "max_violation_crude": float(np.max(arr[:, 3] - arr[:, 2])),
    }, None


def _cmd_reverse_sde(args):
    measure = _load_measure(args.measure)
    samples = reverse_sde_sample(measure, args.n, args.steps, args.t1, seed=args.seed)
    csv_path = _write_csv(args.out, "samples.csv", [f"x{i}" for i in range(measure.dim)],
                          samples)
    report = {
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
    return report, None


# ---------------------------------------------------------------------------
# the command table and the parser built from it
# ---------------------------------------------------------------------------

_MEASURE = ("--measure", {"required": True})
# Lemma 4's constants, read by decompose with --coeffs only
_LEMMA4 = [
    ("--alpha", {"type": float, "default": 1.0}),
    ("--beta", {"type": float, "default": 0.0}),
    ("--radius", {"type": float, "default": 0.0}),
]

# name: (function, report file under --out, help, options); a list of options
# is a group of which exactly one must be given; every command takes --out
_COMMANDS = {
    "bounds": (_cmd_bounds, "bounds.json", "closed-form envelope report", [
        ("--alpha", {"type": float, "required": True}),
        ("--lip", {"type": float, "default": 0.0}),
        ("--t", {"type": float, "required": True}),
        ("--radius", {"type": float, "default": 0.0}),
        ("--third-deriv", {"type": float, "default": 0.0}),
        ("--lsi-c", {"type": float, "default": 1.0}),
    ]),
    "hessian-scan": (_cmd_hessian_scan, "hessian_scan.json",
                     "curvature scan of a smoothed measure", [
        _MEASURE,
        ("--t", {"type": float, "required": True}),
        ("--z-min", {"type": float}),
        ("--z-max", {"type": float}),
        ("--points", {"type": int, "default": 41}),
    ]),
    "transport": (_cmd_transport, "transport.json", "flow map + Lipschitz certification", [
        _MEASURE,
        ("--points", {"type": int, "default": 257}),
        ("--samples", {"type": int, "default": 20000}),
        ("--seed", {"type": int, "default": 0}),
    ]),
    "counterexample": (_cmd_counterexample, "certificate.json", "unbounded-curvature certificate", [
        ("--psi", {"default": "zero", "choices": sorted(_PSI_FUNCTIONS)}),
        ("--coefficient", {"type": float, "default": 1.0}),
        ("--truncation", {"type": int, "default": 60}),
        ("--t", {"type": float, "required": True}),
        ("--target-m", {"type": float, "required": True}),
    ]),
    "two-atom": (_cmd_two_atom, "two_atom.json", "two-atom curvature threshold", [
        ("--x0", {"type": float, "required": True}),
        ("--w0", {"type": float, "default": 0.5}),
        ("--w1", {"type": float, "default": 0.5}),
        ("--t", {"type": float, "required": True}),
    ]),
    "decompose": (_cmd_decompose, "decompose.json", "convex + Lipschitz potential split", [
        [("--measure", {}),
         ("--coeffs", {"help": "polynomial potential coefficients c0,c1,c2,..."})],
        *_LEMMA4,
    ]),
    "mixture": (_cmd_mixture, "mixture.json", "mixture curvature lower-bound scan", [
        _MEASURE,
        ("--x-min", {"type": float}),
        ("--x-max", {"type": float}),
        ("--points", {"type": int, "default": 101}),
    ]),
    "reverse-sde": (_cmd_reverse_sde, "reverse_sde.json", "reverse-diffusion sampler", [
        _MEASURE,
        ("--n", {"type": int, "default": 20000}),
        ("--steps", {"type": int, "default": 400}),
        ("--t1", {"type": float, "default": 3.0}),
        ("--seed", {"type": int, "default": 0}),
    ]),
}


def _build_parser() -> _Parser:
    p = _Parser(prog="logheat", description=__doc__.partition("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (_, _, help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for opt in options:
            group = isinstance(opt, list)
            target = sp.add_mutually_exclusive_group(required=True) if group else sp
            for flag, kwargs in opt if group else [opt]:
                target.add_argument(flag, **kwargs)
        sp.add_argument("--out", default=None, help="output directory")
    return p


def main(argv=None) -> int:
    """Run one subcommand: print its report with the wall time and any
    diagnostics, and write the report alone to --out; 2 or 3 on an error."""
    t0 = time.time()
    args = _build_parser().parse_args(argv)
    func, name = _COMMANDS[args.cmd][:2]
    try:
        report, diagnostics = func(args)
        report["command"] = args.cmd
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, name), "w") as fh:
                fh.write(_json_text(report))
        shown = {**report, "wall_time": time.time() - t0}
        if diagnostics is not None:
            shown["diagnostics"] = diagnostics
        sys.stdout.write(_json_text(shown))
    except (LogheatError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _NUMERICAL_EXIT if isinstance(exc, NumericalError) else _VALIDATION_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
