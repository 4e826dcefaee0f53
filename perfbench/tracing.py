"""Spans around calls into logheat's public functions, recorded from outside.

``Tracer.install()`` rebinds each traced function, in every logheat module
that holds it, to a wrapper that records a span; ``uninstall()`` restores the
originals.  Nothing in ``src/`` changes.  Spans are kept in memory: name,
start, end, parent index and a few attributes (measure family, batch size).
"""
from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from functools import wraps

import numpy as np

import logheat as lh

# (module, function) pairs traced; a span is named "<module>.<function>"
TRACED = [
    ("measures", "dilate"), ("measures", "cdf_1d"), ("measures", "sample"),
    ("measures", "make_perturbed"), ("measures", "make_gaussian_mixture"),
    ("heatflow", "marginal_stats_1d"), ("heatflow", "ou_log_derivatives"),
    ("heatflow", "log_hessian_heat"), ("heatflow", "tilted_moments"),
    ("transport", "build_flow_map"), ("transport", "empirical_lipschitz"),
    ("transport", "pushforward_validate"), ("transport", "theta_envelope"),
    ("transport", "reverse_sde_sample"),
    ("counterexample", "variance_certificate"), ("counterexample", "two_atom_analysis"),
    ("structure", "analyze_mixture_1d"), ("structure", "lemma4_decompose"),
    ("bounds", "mixture_hessian_lower"),
]


def family(obj) -> str | None:
    if isinstance(obj, lh.GaussianMixture):
        return "mix" if obj.dim == 1 else "mix2d"
    if isinstance(obj, lh.AtomicMeasure):
        return "atom"
    if isinstance(obj, lh.PerturbedLogConcave1D):
        return "kink"
    if isinstance(obj, lh.CounterexampleMeasure):
        return "cex"
    return None


def _size(args, pos: int):
    if len(args) > pos:
        return int(np.size(args[pos]))
    return None


# batch-size argument position, for the functions whose batch size matters
_SIZE_ARG = {"measures.cdf_1d": 1, "measures.sample": 1, "heatflow.marginal_stats_1d": 2}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self.labels: dict[int, str] = {}
        self._keep: list = []         # labelled objects, so their ids stay valid
        self._patched: list[tuple] = []

    def label(self, obj, name: str) -> None:
        """Name a measure's family explicitly (else it is inferred from its type)."""
        self.labels[id(obj)] = name
        self._keep.append(obj)

    @contextmanager
    def span(self, name: str, **attrs):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, attrs]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        size_pos = _SIZE_ARG.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if args:
                fam = self.labels.get(id(args[0])) or family(args[0])
                if fam:
                    attrs["family"] = fam
            if size_pos is not None:
                attrs["n"] = _size(args, size_pos)
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "logheat" or k.startswith("logheat.")]
        for mod_name, fn_name in TRACED:
            orig = getattr(sys.modules[f"logheat.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- derived figures -----------------------------------------------------

    def durations(self, name: str, parent_prefix: str | None = None, **attrs) -> list[float]:
        out = []
        for s in self.spans:
            if s[0] != name or any(s[4].get(k) != v for k, v in attrs.items()):
                continue
            if parent_prefix is not None and (
                    s[3] is None or not self.spans[s[3]][0].startswith(parent_prefix)):
                continue
            out.append(s[2] - s[1])
        return out

    def descendants(self, root: int) -> list[int]:
        out, frontier = [], {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in frontier:
                frontier.add(i)
                out.append(i)
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span duration minus its children's durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            layer = layer_of(s[0])
            out[layer] = out.get(layer, 0.0) + (s[2] - s[1]) - child[i]
        return out


def layer_of(span_name: str) -> str:
    """The logheat module a span belongs to; "bench" is the benchmark's own code.
    A CLI op is one subprocess, so its op span is the cli layer."""
    if span_name.startswith("op.cli."):
        return "cli"
    if span_name.startswith(("op.", "build.")):
        return "bench"
    return span_name.split(".")[0]


def median(xs):
    return statistics.median(xs) if xs else None
