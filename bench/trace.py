"""Span recorder for the traced run and the per-layer report built from its spans.

`Tracer.install` wraps each traced public function and rebinds the wrapper
in every `svetbound.*` namespace that holds the original by name (so
`svetbound.quantum_bound`, `svetbound.bounds.maximize` and
`svetbound.seesaw.validate_density` all record). Nothing under the library's
source changes. Spans stay in memory until `write`. The subspace solve is only
counted, not spanned, so its time stays in the certificate's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = (
    "qcore.validate_density",
    "correlation.correlation_tensor",
    "correlation.singular_spectrum",
    "svetlichny.svetlichny_value",
    "seesaw.maximize",
    "bounds.quantum_bound",
    "bounds.tightness_certificate",
    "families.realize",
    "families.scan",
    "cli.main",
)
# scipy.optimize.minimize as imported into svetbound.bounds: the subspace certificate solve.
SUBSPACE_SOLVE = "bounds.minimize"
PACKAGE = "svetbound"

BEST_VALUE_ATOL = 1e-9


def _maximize_info(result):
    best = result.best_value
    at_best = sum(1 for v in result.per_start_values if abs(v - best) <= BEST_VALUE_ATOL)
    return (result.iterations_used, at_best, len(result.per_start_values))


_SUMMARIES = {
    "seesaw.maximize": _maximize_info,
    "bounds.tightness_certificate": lambda cert: cert is not None,
    "families.scan": len,
}


class Span:
    __slots__ = ("name", "request", "parent", "start", "end", "info")

    def __init__(self, name, request, parent):
        self.name = name
        self.request = request
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.info = None

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "request": self.request,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.subspace_solves = 0
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for qualname in TRACED + (SUBSPACE_SOLVE,):
            module_name, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._count(original) if qualname == SUBSPACE_SOLVE else self._wrap(qualname, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.subspace_solves += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        summarize = _SUMMARIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.request, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if summarize is not None:
                span.info = summarize(result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(span.as_dict(index)) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-layer counts, self times and see-saw/certificate ratios over `requests` requests."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    calls = {name: 0 for name in TRACED}
    self_s = {name: 0.0 for name in calls}
    for index, span in enumerate(spans):
        calls[span.name] += 1
        self_s[span.name] += span.end - span.start - child_time[index]

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls_per_req"] = calls[name] / requests
        metrics[f"{name}.self_ms_per_req"] = self_s[name] * 1e3 / requests

    maximize = [s for s in spans if s.name == "seesaw.maximize"]
    returned = [s.info for s in maximize if s.info is not None]
    metrics["seesaw.maximize.ms_per_call"] = _ratio(sum(s.end - s.start for s in maximize) * 1e3, len(maximize))
    metrics["seesaw.winner_sweeps_mean"] = _ratio(sum(info[0] for info in returned), len(returned))
    metrics["seesaw.starts_at_best_ratio"] = _ratio(sum(info[1] for info in returned), sum(info[2] for info in returned))

    metrics["bounds.subspace_solves_per_req"] = tracer.subspace_solves / requests
    with_maximize = set()
    for span in maximize:
        parent = span.parent
        while parent is not None:
            with_maximize.add(parent)
            parent = spans[parent].parent
    certificates = [i for i, s in enumerate(spans) if s.name == "bounds.tightness_certificate"]
    found = [i for i in certificates if spans[i].info]
    metrics["bounds.subspace_route_share"] = _ratio(sum(1 for i in found if i not in with_maximize), len(found))
    metrics["bounds.certificate_found_ratio"] = _ratio(len(found), len(certificates))

    rows = sum(s.info for s in spans if s.name == "families.scan" and s.info is not None)
    metrics["families.scan.self_us_per_row"] = _ratio(self_s["families.scan"] * 1e6, rows)
    return metrics
