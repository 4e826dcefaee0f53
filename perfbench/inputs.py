"""Seeded inputs for the four benchmark workloads.

Every input is a plain-data *spec* (built from ``--seed`` alone) plus the
library objects made from it.  Oracles read only the specs, never the library
objects, so an oracle cannot share a defect with the code it checks.

This module imports nothing beyond what logheat itself loads: the set-up
probe times ``import logheat`` plus ``build(...)`` in a fresh process.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

import logheat as lh

SIZES = ("full", "tiny")

# |x|-tilted target e^{-(x^2/2 + |x|)}: alpha = 1, lip = 1
KINK = {"kind": "perturbed", "alpha": 1.0, "v_knots": [], "v_slopes": [0.0],
        "h_knots": [0.0], "h_slopes": [-1.0, 1.0]}
# 0.5 N(-2, 1) + 0.5 N(2, 1)
MIX = {"kind": "mixture", "components": [(0.5, [-2.0], 1.0), (0.5, [2.0], 1.0)]}
MIX2D = {"kind": "mixture",
         "components": [(0.5, [-1.5, 0.0], 1.0), (0.5, [1.5, 0.0], 1.0)]}
MIX2D_MARGINAL = {"kind": "mixture",
                  "components": [(0.5, [-1.5], 1.0), (0.5, [1.5], 1.0)]}


def gauss_perturbed(m: float = 0.0, s: float = 1.0) -> dict:
    """N(m, s) written as a perturbed_1d density: alpha = 1/s, V(x) = -m x / s."""
    return {"kind": "perturbed", "alpha": 1.0 / s, "v_knots": [], "v_slopes": [-m / s],
            "h_knots": [], "h_slopes": [0.0]}


def gauss_mixture(m: float = 0.0, s: float = 1.0) -> dict:
    return {"kind": "mixture", "components": [(1.0, [m], s)]}


def build_measure(spec: dict):
    kind = spec["kind"]
    if kind == "mixture":
        return lh.make_gaussian_mixture([(w, m, v) for w, m, v in spec["components"]])
    if kind == "atomic":
        w = np.asarray(spec["weights"], dtype=float)
        return lh.AtomicMeasure(dim=1, weights=w / w.sum(),
                                locations=np.asarray(spec["locations"], float)[:, None])
    if kind == "perturbed":
        return lh.make_perturbed(spec["alpha"], spec["v_knots"], spec["v_slopes"],
                                 spec["h_knots"], spec["h_slopes"])
    raise ValueError(f"unknown spec kind {kind!r}")


# -- random instances, generated like tests/conftest.py ----------------------

def random_perturbed(rng) -> dict:
    alpha = float(rng.uniform(0.2, 4.0))
    lip = float(rng.uniform(0.0, 2.0))
    n_h = int(rng.integers(1, 4))
    h_knots = np.sort(rng.uniform(-2.0, 2.0, size=n_h))
    h_slopes = rng.uniform(-lip, lip, size=n_h + 1)
    n_v = int(rng.integers(0, 3))
    v_knots = np.sort(rng.uniform(-2.0, 2.0, size=n_v))
    v_slopes = np.sort(rng.uniform(-1.5, 1.5, size=n_v + 1))
    return {"kind": "perturbed", "alpha": alpha, "v_knots": v_knots.tolist(),
            "v_slopes": v_slopes.tolist(), "h_knots": h_knots.tolist(),
            "h_slopes": h_slopes.tolist()}


def random_mixture(rng, k: int | None = None) -> dict:
    k = int(rng.integers(1, 5)) if k is None else k
    comps = [(float(rng.uniform(0.2, 1.0)), [float(rng.uniform(-3.0, 3.0))],
              float(rng.uniform(0.3, 2.5))) for _ in range(k)]
    total = sum(c[0] for c in comps)
    return {"kind": "mixture", "components": [(w / total, m, v) for w, m, v in comps]}


def random_atomic(rng) -> dict:
    k = int(rng.integers(1, 6))
    locs = np.sort(rng.uniform(-4.0, 4.0, size=k))
    while np.any(np.diff(locs) < 1e-6):
        locs = np.sort(rng.uniform(-4.0, 4.0, size=k))
    w = rng.uniform(0.2, 1.0, size=k)
    return {"kind": "atomic", "weights": (w / w.sum()).tolist(), "locations": locs.tolist()}


# -- per-workload inputs -----------------------------------------------------

def _transport(rng, tiny: bool) -> dict:
    n = 33 if tiny else 257
    # one seeded point per Gaussian-quantile stratum, kept off the stratum edges
    u = (np.arange(n) + 0.5 + 0.8 * (rng.uniform(size=n) - 0.5)) / n
    n_times = 20 if tiny else 200
    n_space = 101 if tiny else 401
    # the default grid of theta_envelope: u = sqrt(t) uniform, first time 1e-6
    times = np.linspace(math.sqrt(1e-6), math.sqrt(6.0), n_times) ** 2
    specs = {"kink": KINK, "mix": MIX, "gauss": gauss_perturbed()}
    return {
        "specs": specs,
        "measures": {k: build_measure(s) for k, s in specs.items()},
        "flow_inputs": ndtri(u),
        "steps_per_unit": 25,
        "n_samples": 2000 if tiny else 20000,
        "push_seed": int(rng.integers(2**31)),
        "theta_times": times,
        "theta_space": {"kink": np.linspace(-9.0, 9.0, n_space),
                        "mix": np.linspace(-19.0, 19.0, n_space),
                        "gauss": np.linspace(-9.0, 9.0, n_space)},
    }


def _sample(rng, tiny: bool) -> dict:
    specs = {"kink": KINK, "mix": MIX, "mix2d": MIX2D, "mix2d.x0": MIX2D_MARGINAL}
    runs = {
        "kink": (500 if tiny else 20000, 10 if tiny else 50),
        "mix": (500 if tiny else 20000, 10 if tiny else 50),
        "mix2d": (16 if tiny else 128, 4 if tiny else 12),
    }
    return {
        "specs": specs,
        "measures": {k: build_measure(s) for k, s in specs.items()},
        "runs": {k: {"n": n, "steps": st, "t1": 3.0, "seed": int(rng.integers(2**31))}
                 for k, (n, st) in runs.items()},
    }


def _certify(rng, tiny: bool) -> dict:
    n_rand = 1 if tiny else 2
    n_tilts = 2 if tiny else 6
    w0 = float(rng.uniform(0.2, 0.8))
    families = {"mix": MIX,
                "atom": {"kind": "atomic", "weights": [w0, 1.0 - w0],
                         "locations": [0.0, 2.0]},
                "kink": KINK}
    for i in range(n_rand):
        families[f"rand-mix{i}"] = random_mixture(rng)
        families[f"rand-atom{i}"] = random_atomic(rng)
        families[f"rand-kink{i}"] = random_perturbed(rng)
    tilts = {name: [(float(rng.uniform(-4.0, 4.0)), float(rng.uniform(0.2, 2.0)))
                    for _ in range(n_tilts)] for name in families}

    gauss = []
    for _ in range(2 if tiny else 8):
        m, s, t = float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.1, 2.0))
        z = m + float(rng.uniform(-3.0, 3.0)) * math.sqrt(s + t)
        gauss.append({"m": m, "s": s, "z": z, "t": t})

    two_atom = []
    for _ in range(1 if tiny else 3):
        x0 = float(rng.uniform(1.0, 3.0)) * float(rng.choice([-1.0, 1.0]))
        w = float(rng.uniform(0.3, 0.7))
        two_atom.append({"x0": x0, "w0": w, "w1": 1.0 - w, "t": float(rng.uniform(0.3, 2.0))})

    cex = {"type": "counterexample", "psi": "linear",
           "coefficient": float(rng.uniform(0.0, 0.05)), "truncation": 60}
    certificates = [{"t": float(rng.uniform(0.5, 2.0)), "M": float(rng.uniform(1.5, 4.0))}
                    for _ in range(1 if tiny else 4)]

    analyze = {"mix": MIX}
    if not tiny:
        analyze["rand-mix2"] = random_mixture(rng, k=2)

    lemma4 = []
    for _ in range(1 if tiny else 2):
        c4, c2 = float(rng.uniform(0.05, 0.2)), float(rng.uniform(-1.0, -0.2))
        # U'' = 12 c4 x^2 + 2 c2 >= 1 for |x| >= radius, and >= 2 c2 = -beta inside
        radius = math.sqrt((1.0 - 2.0 * c2) / (12.0 * c4)) + 0.01
        lemma4.append({"c4": c4, "c2": c2, "alpha": 1.0, "beta": -2.0 * c2,
                       "radius": radius, "grid_halfwidth": 2.0 if tiny else 10.0})

    # domain edge: far tilts, small t, narrow components, large alpha
    edge = {
        "gauss-perturbed-far": (gauss_perturbed(0.0, 1.0), 1e4, 1e-4),
        "gauss-mixture-far": (gauss_mixture(0.0, 1.0), 1e4, 1e-4),
        "narrow-mixture-small-t": (
            {"kind": "mixture", "components": [(0.5, [0.0], 1e-3), (0.5, [0.1], 2e-3)]},
            100.0, 1e-4),
        "narrow-mixture": (
            {"kind": "mixture", "components": [(0.5, [0.0], 1e-3), (0.5, [0.1], 2e-3)]},
            0.05, 1e-2),
        "kink-far": (KINK, 1e3, 1e-2),
        "atom-far": ({"kind": "atomic", "weights": [0.3, 0.7], "locations": [0.0, 2.0]},
                     1e4, 1.0),
        "atom-small-t": ({"kind": "atomic", "weights": [0.3, 0.7], "locations": [0.0, 2.0]},
                         1.0, 1e-4),
        "large-alpha": (gauss_perturbed(0.5, 1e-4), 0.51, 1e-3),
    }

    specs = dict(families)
    specs.update({f"gauss{i}.{form}": (gauss_perturbed if form == "kink" else gauss_mixture)(g["m"], g["s"])
                  for i, g in enumerate(gauss) for form in ("kink", "mix")})
    specs.update({f"analyze.{k}": v for k, v in analyze.items()})
    specs.update({f"edge.{k}": v[0] for k, v in edge.items()})
    return {
        "specs": specs,
        "measures": {k: build_measure(s) for k, s in specs.items()},
        "tilts": tilts,
        "gauss": gauss,
        "two_atom": two_atom,
        "cex_spec": cex,
        "cex": lh.measure_from_json(cex),
        "certificates": certificates,
        "analyze": list(analyze),
        "lemma4": lemma4,
        "edge": {k: (z, t) for k, (_, z, t) in edge.items()},
    }


def _cli(rng, tiny: bool) -> dict:
    a = float(rng.uniform(1.5, 2.5))
    docs = {
        "mix.json": {"type": "gaussian_mixture",
                     "components": [[0.5, [-a], 1.0], [0.5, [a], 1.0]]},
        # a near-standard Gaussian keeps the transport horizon at its t_max = 3 floor
        "gauss.json": {"type": "gaussian_mixture",
                       "components": [[1.0, [float(rng.uniform(0.0, 1e-3))], 1.0]]},
    }
    u = lambda lo, hi: f"{float(rng.uniform(lo, hi)):.6g}"
    x0, t2 = u(1.0, 3.0), u(0.3, 2.0)
    calls = {
        "bounds": ["bounds", "--alpha", u(0.5, 2.0), "--lip", u(0.0, 1.0), "--t", u(0.5, 4.0)],
        "hessian-scan": ["hessian-scan", "--measure", "mix.json", "--t", u(0.5, 2.0),
                         "--points", "21"],
        "transport": ["transport", "--measure", "gauss.json", "--points", "33",
                      "--samples", "2000", "--seed", str(int(rng.integers(1000)))],
        "counterexample": ["counterexample", "--t", u(0.5, 1.5), "--target-m", u(1.5, 3.0)],
        "two-atom": ["two-atom", "--x0", x0, "--t", t2],
        "decompose": ["decompose", "--measure", "mix.json"],
        "mixture": ["mixture", "--measure", "mix.json", "--points", "41"],
        # the size test_cli checks with its 0.06 KS tolerance
        "reverse-sde": ["reverse-sde", "--measure", "mix.json", "--n", "2000",
                        "--steps", "100", "--seed", str(int(rng.integers(1000)))],
    }
    return {"docs": docs, "measures": {k: lh.measure_from_json(d) for k, d in docs.items()},
            "calls": calls, "mix_a": a}


_BUILDERS = {"transport": _transport, "sample": _sample, "certify": _certify, "cli": _cli}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, size: str = "full") -> dict:
    """All inputs of one workload, deterministic in ``seed``."""
    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, size == "tiny")
