"""Spans around calls into catgate's public functions, recorded from outside
the package.

``Tracer.install`` replaces each listed function by a timing wrapper, both as
an attribute of its own module and under every name a catgate module imported
it as, so nested calls such as ``cli`` -> ``gate.collapse`` ->
``numerics.oscillatory_fourier_factor`` are each recorded.  ``remove`` puts the
originals back.  Spans are kept in memory as (name, start, end, parent, counts,
error) and turned into per-layer metrics once per pass.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("numerics", "states", "semiclassical", "gate", "analysis", "cubic", "matching", "cli")

#: Public functions wrapped per layer.  A name missing from the package is
#: skipped and its metrics read 0.
WRAPPED = {
    "numerics": ("oscillatory_fourier_factor", "hermite_values", "hermite_function",
                 "fourier_transform", "overlap"),
    "states": ("make_vacuum", "make_fock", "make_cubic_phase", "make_cat"),
    "semiclassical": ("linearize", "reference_cat"),
    "gate": ("collapse", "probability_density", "probability_scan"),
    "analysis": ("wigner", "fidelity", "fidelity_coh", "fidelity_cat", "fidelity_mix"),
    "cubic": ("cubic_collapse", "squeezing_scan"),
    "matching": ("odd_cat_ladder", "fit_squeezing", "compare_gates"),
    "cli": ("main",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _wigner_counts(args, kwargs, result):
    n = _arg(args, kwargs, 0, "psi").grid.n_points
    m = result.y_axis.n_points
    # the (2N-1) x M complex128 kernel, from the array sizes, not a measurement
    return {"cells": result.values.size, "kernel_mib_computed": (2 * n - 1) * m * 16 / 2 ** 20}


#: Work counts taken from the arguments and result of one call.
COUNTERS = {
    "numerics.oscillatory_fourier_factor":
        lambda args, kwargs, result: {"points": getattr(_arg(args, kwargs, 2, "y"), "size", 1)},
    "gate.probability_scan":
        lambda args, kwargs, result: {"outcomes": len(result)},
    "analysis.wigner": _wigner_counts,
    "matching.odd_cat_ladder":
        lambda args, kwargs, result: {"roots": len(result)},
}

#: Per-layer metrics of a traced run, with their units.
PER_LAYER = [
    ("numerics.oscillatory_fourier_factor.calls", "count"),
    ("numerics.oscillatory_fourier_factor.busy_s", "s"),
    ("numerics.oscillatory_fourier_factor.points", "count"),
    ("numerics.hermite_values.calls", "count"),
    ("numerics.hermite_values.busy_s", "s"),
    ("gate.collapse.calls", "count"),
    ("gate.collapse.busy_s", "s"),
    ("gate.collapse.self_s", "s"),
    ("gate.probability_scan.outcomes", "count"),
    ("gate.probability_scan.busy_s", "s"),
    ("semiclassical.reference_cat.calls", "count"),
    ("semiclassical.reference_cat.busy_s", "s"),
    ("analysis.wigner.calls", "count"),
    ("analysis.wigner.busy_s", "s"),
    ("analysis.wigner.cells", "count"),
    ("analysis.wigner.kernel_mib_computed", "MiB"),
    ("analysis.fidelity.calls", "count"),
    ("analysis.fidelity.busy_s", "s"),
    ("analysis.fidelity_mix.calls", "count"),
    ("analysis.fidelity_mix.busy_s", "s"),
    ("cubic.squeezing_scan.calls", "count"),
    ("cubic.squeezing_scan.busy_s", "s"),
    ("matching.fit_squeezing.calls", "count"),
    ("matching.fit_squeezing.busy_s", "s"),
    ("matching.fit_squeezing.curve_evals", "count"),
    ("matching.compare_gates.calls", "count"),
    ("matching.compare_gates.busy_s", "s"),
    ("matching.odd_cat_ladder.busy_s", "s"),
    ("matching.odd_cat_ladder.residual_evals", "count"),
    ("matching.odd_cat_ladder.evals_per_root", "ratio"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.main.bytes_written", "B"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    *((f"{layer}.errors", "count") for layer in LAYERS),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, error_type: type[Exception]):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        from catgate.errors import CatGateError

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "catgate" or key.startswith("catgate."))]
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"catgate.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    print(f"note: catgate.{layer}.{fname} not found; its metrics read 0",
                          file=sys.stderr)
                    continue
                traced = self._wrap(f"{layer}.{fname}", original, CatGateError)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._patches.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def _ancestors(spans: list[list], index: int):
    parent = spans[index][3]
    while parent is not None:
        yield parent
        parent = spans[parent][3]


def pass_metrics(spans: list[list], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    under = defaultdict(int)  # (ancestor name, span name) -> spans below such an ancestor
    for i, (name, start, end, parent, extra, error) in enumerate(spans):
        layer = name.split(".", 1)[0]
        calls[name] += 1
        busy[name] += end - start
        self_time[name] += end - start - child_time[i]
        self_time[layer] += end - start - child_time[i]
        errors[layer] += error is not None
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] += value
        for ancestor in {spans[a][0] for a in _ancestors(spans, i)}:
            under[ancestor, name] += 1

    metrics: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            metrics[metric] = calls[base]
        elif field == "busy_s":
            metrics[metric] = busy[base]
        elif field == "self_s":
            metrics[metric] = self_time[base]
        elif field == "errors":
            metrics[metric] = errors[base]
    metrics["matching.fit_squeezing.curve_evals"] = under["matching.fit_squeezing", "gate.collapse"]
    residuals = under["matching.odd_cat_ladder", "numerics.oscillatory_fourier_factor"]
    roots = counts["matching.odd_cat_ladder.roots"]
    metrics["matching.odd_cat_ladder.residual_evals"] = residuals
    metrics["matching.odd_cat_ladder.evals_per_root"] = residuals / roots if roots else 0.0
    for metric in ("numerics.oscillatory_fourier_factor.points", "gate.probability_scan.outcomes",
                   "analysis.wigner.cells", "analysis.wigner.kernel_mib_computed"):
        metrics[metric] = counts[metric]
    metrics["cli.main.bytes_written"] = bytes_written
    return metrics


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def write_spans(path, passes: list[list[list]]) -> None:
    """One JSON line per span; ``op`` is the index of the CLI command's root
    span, which every span of that command shares."""
    with open(path, "w") as fh:
        for number, spans in enumerate(passes):
            for i, (name, start, end, parent, extra, error) in enumerate(spans):
                root = i
                for root in _ancestors(spans, i):
                    pass
                record = {"pass": number, "id": i, "op": root, "name": name, "start": start,
                          "end": end, "parent": parent, "error": error, **(extra or {})}
                fh.write(json.dumps(record) + "\n")
