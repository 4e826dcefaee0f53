"""Per-layer metrics, derived from the spans of a traced run.

Each metric names the logheat module (layer) whose public function the span
wraps, and is listed with the end-to-end metric and workload it should move
in ``README.md``.  Its unit is the one ``per_layer`` in ``BENCHMARK.json``
gives it.
"""
from __future__ import annotations

from tracing import Tracer, median

SUBCOMMANDS = ("bounds", "hessian-scan", "transport", "counterexample", "two-atom",
               "decompose", "mixture", "reverse-sde")
BUILD_FN = {"kink": "measures.make_perturbed", "mix": "measures.make_gaussian_mixture"}


def _us(xs):
    m = median(xs)
    return None if m is None else m * 1e6


def _per_root(tr: Tracer, root_name: str, fam: str, count) -> float | None:
    """Median over ``root_name`` spans of family ``fam`` of count(descendant spans)."""
    vals = [count([tr.spans[d] for d in tr.descendants(i)])
            for i, s in enumerate(tr.spans) if s[0] == root_name and s[4].get("family") == fam]
    return median(vals)


def derive(tr: Tracer, import_s: float, overhead_s: float) -> dict[str, float | None]:
    d = tr.durations
    m = {"measures.dilate_us.kink": _us(d("measures.dilate", family="kink"))}
    for f in ("kink", "mix"):
        # the 20k-point CDFs of the pushforward check and of the sampler's KS check
        m[f"measures.cdf_1d_us.{f}"] = _us(d(
            "measures.cdf_1d", ("transport.pushforward_validate", "op.sde."), family=f))
        m[f"measures.sample_s.{f}"] = median(d("measures.sample", family=f))
        m[f"measures.build_us.{f}"] = _us(d(BUILD_FN[f], f"build.{f}"))
        m[f"heatflow.ou_batch_us.{f}.n257"] = _us(d(
            "heatflow.marginal_stats_1d", "transport.build_flow_map", family=f))
        m[f"heatflow.ou_batch_us.{f}.n20k"] = _us(d(
            "heatflow.marginal_stats_1d", "transport.reverse_sde_sample", family=f))
    m["heatflow.ou_point_us.mix2d"] = _us(d("heatflow.ou_log_derivatives", family="mix2d"))
    for f in ("mix", "atom", "kink"):
        # direct single-point calls from the certify workload
        m[f"heatflow.log_hessian_us.{f}"] = _us(d("heatflow.log_hessian_heat", "op.", family=f))
        m[f"heatflow.tilted_moments_us.{f}"] = _us(d("heatflow.tilted_moments", "op.", family=f))
    for f in ("kink", "mix"):
        m[f"transport.flow_map_s.{f}"] = median(d("transport.build_flow_map", family=f))
    for f in ("kink", "mix", "gauss"):
        m[f"transport.theta_envelope_s.{f}"] = median(d("transport.theta_envelope", family=f))
    m["transport.pushforward_s"] = median(d("transport.pushforward_validate"))
    for f in ("kink", "mix"):
        m[f"transport.velocity_evals.{f}"] = _per_root(
            tr, "transport.build_flow_map", f,
            lambda ss: sum(s[0] == "heatflow.marginal_stats_1d" for s in ss))
    for f in ("kink", "mix", "mix2d"):
        m[f"transport.reverse_sde_s.{f}"] = median(d("transport.reverse_sde_sample", family=f))
        m[f"transport.score_evals.{f}"] = _per_root(
            tr, "transport.reverse_sde_sample", f,
            lambda ss: sum(s[4]["n"] if s[0] == "heatflow.marginal_stats_1d" else 1
                           for s in ss if s[0] in ("heatflow.marginal_stats_1d",
                                                   "heatflow.ou_log_derivatives")))
    m["counterexample.certificate_s"] = median(d("counterexample.variance_certificate"))
    m["counterexample.two_atom_s"] = median(d("counterexample.two_atom_analysis"))
    m["structure.analyze_mixture_s"] = median(d("structure.analyze_mixture_1d"))
    m["structure.lemma4_s"] = median(d("structure.lemma4_decompose"))
    m["bounds.mixture_hessian_lower_us"] = _us(d("bounds.mixture_hessian_lower"))
    m["cli.import_s"] = import_s
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_s"] = median(d(f"op.cli.{sub}"))
    m["trace.overhead_s"] = overhead_s
    return m
