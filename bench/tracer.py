"""Spans around hopfcap's public functions, recorded from outside the package.

``install`` wraps every public module-level function of the traced layers and
rebinds it in every hopfcap module that imported it by name, so a call made
through ``checks.jet_batch`` is traced just like one through
``calculus.jet_batch``.  ``UnitField.__call__`` is wrapped too; only the
outermost call of a nest (a perturbed field calls its Hopf frame fields) makes
a span.  Spans stay in memory until ``write_spans`` is called at the end of
the run; ``layer_metrics`` derives the per-layer metrics from them.

A span is a dict: id, parent (id or None), name ("<layer>.<function>"),
start and end (``time.perf_counter`` seconds), run (the run id) and attrs.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time
import tracemalloc

import numpy as np

# Layers that get spans.  geometry only runs inside these, and dual has no
# public boundary apart from the field call, where its input is recorded.
LAYERS = ("cli", "checks", "functionals", "displace", "calculus", "fields", "quadrature")
ALL_MODULES = ("hopfcap",) + tuple(f"hopfcap.{m}" for m in LAYERS + ("geometry", "dual"))

MB = 1e6


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._field_depth = 0

    def _open(self, name: str, attrs: dict) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "run": self.run_id,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """Span around ``fn``; ``before``/``after`` fill the span's attrs
        from the bound arguments (and result) outside the span's interval."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if before is not None:
                before(attrs, bound.arguments)
            span = self._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(attrs, bound.arguments, result)
            return result

        return traced

    def wrap_field_call(self, call):
        """Span around the outermost ``UnitField.__call__`` only."""

        @functools.wraps(call)
        def traced(field, x):
            if self._field_depth:
                return call(field, x)
            attrs = {"dual": False}
            eps = getattr(x, "eps", None)
            if eps is not None:
                attrs.update(dual=True, seed_dirs=int(eps.shape[0]), eps_mb=eps.size * eps.itemsize / MB)
            self._field_depth += 1
            span = self._open("fields.eval", attrs)
            try:
                return call(field, x)
            finally:
                self._close(span)
                self._field_depth -= 1

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _jet_before(attrs, args):
    points = np.asarray(args["points"], dtype=float)
    field = args["field"]
    digest = hashlib.blake2b(points.tobytes(), digest_size=16).hexdigest()
    params = sorted((k, repr(v)) for k, v in field.params.items())
    attrs["nodes"] = int(points.shape[0])
    attrs["key"] = repr((field.label, params, digest, args["mode"]))
    # Peak of the memory newly allocated inside this call.
    tracemalloc.start()


def _jet_after(attrs, args, _result):
    attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
    tracemalloc.stop()


def _rule_after(attrs, args, rule):
    attrs["nodes"] = int(rule.size)


HOOKS = {
    "calculus.jet_batch": (_jet_before, _jet_after),
    "quadrature.build_gauss_rule": (None, _rule_after),
    "quadrature.build_mc_rule": (None, _rule_after),
}


def install(tracer: Tracer) -> None:
    """Wrap the traced layers' public functions and rebind every import of them."""
    modules = [importlib.import_module(m) for m in ALL_MODULES]
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"hopfcap.{layer}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, *HOOKS.get(name, (None, None)))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    unit_field = importlib.import_module("hopfcap.fields").UnitField
    unit_field.__call__ = tracer.wrap_field_call(unit_field.__call__)


def _durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def layer_metrics(spans) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one run's spans."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def self_s(prefix):
        return sum(
            s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            for s in spans
            if s["name"].startswith(prefix)
        )

    def total(name):
        return sum(_durations(spans, name))

    def count(name):
        return len(_durations(spans, name))

    jets = [s for s in spans if s["name"] == "calculus.jet_batch"]
    jet_nodes = sum(s["attrs"]["nodes"] for s in jets)
    jet_s = total("calculus.jet_batch")
    evals = [s for s in spans if s["name"] == "fields.eval"]
    dual_evals = [s["attrs"] for s in evals if s["attrs"].get("dual")]
    builds = [s for s in spans if s["name"] in ("quadrature.build_gauss_rule", "quadrature.build_mc_rule")]
    return {
        "calculus.jet_calls": (len(jets), "count"),
        "calculus.jet_nodes": (jet_nodes, "count"),
        "calculus.jet_reuse_ratio": (
            len({s["attrs"]["key"] for s in jets}) / len(jets) if jets else 1.0,
            "ratio",
        ),
        "calculus.jet_s": (jet_s, "s"),
        "calculus.jet_ns_per_node": (jet_s * 1e9 / jet_nodes if jet_nodes else 0.0, "ns"),
        "calculus.ambient_jacobian_s": (total("calculus.ambient_jacobian"), "s"),
        "calculus.adapted_frame_s": (total("calculus.adapted_frame_batch"), "s"),
        "calculus.jet_self_s": (self_s("calculus.jet_batch"), "s"),
        "calculus.jet_peak_mb": (max((s["attrs"]["peak_mb"] for s in jets), default=0.0), "MB"),
        "dual.seed_dirs": (max((a["seed_dirs"] for a in dual_evals), default=0), "count"),
        "dual.eps_mb": (max((a["eps_mb"] for a in dual_evals), default=0.0), "MB-computed"),
        "fields.eval_calls": (len(evals), "count"),
        "fields.eval_dual_s": (sum(s["end"] - s["start"] for s in evals if s["attrs"].get("dual")), "s"),
        "fields.eval_plain_s": (sum(s["end"] - s["start"] for s in evals if not s["attrs"].get("dual")), "s"),
        "displace.image_volume_calls": (count("displace.image_volume"), "count"),
        "displace.image_volume_s": (total("displace.image_volume"), "s"),
        "functionals.energy_calls": (count("functionals.energy"), "count"),
        "functionals.volume_calls": (count("functionals.volume"), "count"),
        "functionals.energy_s": (total("functionals.energy"), "s"),
        "functionals.volume_s": (total("functionals.volume"), "s"),
        "checks.run_all_s": (total("checks.run_all"), "s"),
        "checks.sweep_family_s": (total("checks.sweep_family"), "s"),
        "checks.hopf_constants_s": (total("checks.check_hopf_constants"), "s"),
        "checks.self_s": (self_s("checks."), "s"),
        "quadrature.build_calls": (len(builds), "count"),
        "quadrature.build_s": (sum(s["end"] - s["start"] for s in builds), "s"),
        "quadrature.nodes": (sum(s["attrs"]["nodes"] for s in builds), "count"),
        "quadrature.integrate_calls": (count("quadrature.integrate"), "count"),
        "quadrature.integrate_s": (total("quadrature.integrate"), "s"),
        "cli.self_s": (self_s("cli."), "s"),
    }
