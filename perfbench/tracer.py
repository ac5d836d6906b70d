"""Layer tracing from outside the program: spans around askzeta's public functions.

``Tracer.install`` replaces each traced function by a wrapper in every
askzeta module that holds it, because modules import names directly
(``engine`` looks up ``lambdas_mod`` in its own globals, ``structural`` looks
up ``bareiss_det``).  Each wrapper also remembers the module it was looked up
from, so a reduction issued from ``engine`` can be told apart from one issued
elsewhere.  ``uninstall`` puts the original functions back.

Spans are kept in flat arrays while the traced pass runs: the layer, the
lookup site, the parent span, the start and the end.  ``layer_metrics`` turns
one pass's spans into the per-layer numbers, and ``write_spans`` writes them
to a file once the run has ended.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from array import array
from time import perf_counter

# module -> public functions wrapped in it
TRACED = {
    "cli": ("main",),
    "engine": ("ask_series", "ask_average", "ask_orbit"),
    "zpn": ("lambdas_mod",),
    "grouporbits": (
        "group_closure",
        "conjugacy_class_count",
        "orbit_count_vectors",
        "cc_via_ask",
        "oc_via_ask",
    ),
    "structural": ("structure_report",),
    "poly": ("bareiss_det",),
    "ratfun": ("expand", "parse_rational", "functional_equation_check"),
    "closed_forms": ("closed_form",),
    "catalog": ("catalog_module",),
}

# Per-layer metrics: name, unit, the end-to-end metrics a change to the layer
# should move, and the workloads on which it should move them.  Every traced
# run reports all of them; a layer that a workload does not call reads 0.
LAYER_METRICS = (
    ("zpn.lambdas_mod.calls", "count", "wall_s, cpu_s", "ask-wild (most), ask-deep; no change on groups"),
    ("zpn.lambdas_mod.busy_s", "s", "wall_s, cpu_s", "ask-wild (most), ask-deep; no change on groups"),
    ("zpn.lambdas_mod.us_per_call", "us", "wall_s, cpu_s", "ask-wild (most), ask-deep; no change on groups"),
    ("zpn.probe_us.3x3_p5_c1", "us", "wall_s, cpu_s", "ask-wild (most), ask-deep; no change on groups"),
    ("zpn.probe_us.5x5_p5_c2", "us", "wall_s, cpu_s", "ask-wild (most), ask-deep; no change on groups"),
    ("zpn.probe_us.6x6_p5_c2", "us", "wall_s, cpu_s", "ask-wild (most), ask-deep; no change on groups"),
    ("zpn.probe_us.8x8_p3_c3", "us", "wall_s, cpu_s", "ask-wild (most), ask-deep; no change on groups"),
    ("engine.ask_orbit.busy_s", "s", "wall_s, cpu_s", "ask-deep (most), ask-wild; no change on groups"),
    ("engine.ask_average.busy_s", "s", "wall_s, cpu_s", "ask-deep (most), ask-wild; no change on groups"),
    ("engine.self_s", "s", "wall_s, cpu_s", "ask-deep (most), ask-wild; no change on groups"),
    ("engine.points", "count", "wall_s, cpu_s", "ask-deep (most), ask-wild; no change on groups"),
    ("engine.views_per_level", "ratio", "wall_s, cpu_s", "ask-deep, ask-wild, catalog; no change on groups"),
    ("grouporbits.group_closure.busy_s", "s", "wall_s, peak_rss_mb", "groups only"),
    ("grouporbits.group_closure.elements", "count", "wall_s, peak_rss_mb", "groups only"),
    ("grouporbits.conjugacy_class_count.busy_s", "s", "wall_s, peak_rss_mb", "groups only"),
    ("grouporbits.orbit_count_vectors.busy_s", "s", "wall_s, peak_rss_mb", "groups only"),
    ("grouporbits.bridge_s", "s", "wall_s, peak_rss_mb", "groups only"),
    ("structural.structure_report.calls", "count", "wall_s", "catalog only"),
    ("structural.structure_report.busy_s", "s", "wall_s", "catalog only"),
    ("poly.bareiss_det.calls", "count", "wall_s", "catalog only"),
    ("ratfun.expand.busy_s", "s", "wall_s", "catalog (most); small on ask-wild"),
    ("ratfun.parse_rational.busy_s", "s", "wall_s", "catalog (most); small on ask-wild"),
    ("ratfun.functional_equation_check.busy_s", "s", "wall_s", "catalog (most); small on ask-wild"),
    ("closed_forms.closed_form.busy_s", "s", "setup_s, wall_s", "catalog"),
    ("catalog.catalog_module.busy_s", "s", "setup_s, wall_s", "catalog"),
    ("cli.self_s", "s", "wall_s", "catalog"),
    ("trace.overhead_s", "s", "none; reported so that layer numbers can be discounted", "all"),
)

# Metrics that count work: they must repeat exactly from pass to pass.
COUNT_METRICS = tuple(name for name, unit, _, _ in LAYER_METRICS if unit == "count") + (
    "engine.views_per_level",
)


def _count_levels(tracer, fn, args, kwargs, result):
    tracer.levels += max(inspect.signature(fn).bind(*args, **kwargs).arguments["n_max"], 0)


def _count_elements(tracer, fn, args, kwargs, result):
    tracer.elements += len(result)


# layer -> what its calls add to the tracer's work counts
_COUNTERS = {
    "engine.ask_series": _count_levels,
    "grouporbits.group_closure": _count_elements,
}


def _askzeta_modules():
    return {
        name.split(".", 1)[1] if "." in name else name: mod
        for name, mod in list(sys.modules.items())
        if name == "askzeta" or name.startswith("askzeta.")
    }


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.sites: list[tuple[str, str]] = []  # (layer, lookup module) per site id
        self.site = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.levels = 0  # levels requested from ask_series (n = 1 .. n_max)
        self.elements = 0  # elements returned by group_closure
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def clear(self):
        for arr in (self.site, self.parent, self.start, self.end):
            del arr[:]
        self.levels = 0
        self.elements = 0

    def install(self):
        modules = _askzeta_modules()
        for owner, names in TRACED.items():
            for fname in names:
                original = getattr(modules[owner], fname)
                layer = f"{owner}.{fname}"
                for where, mod in modules.items():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            wrapper = self._wrap(original, layer, where)
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, fn, layer: str, where: str):
        sid = len(self.sites)
        self.sites.append((layer, where))
        site, parent, start, end, stack = self.site, self.parent, self.start, self.end, self._stack
        counter = _COUNTERS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(site)
            site.append(sid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                start[span] = t0
                stack.pop()
            if counter is not None:
                counter(tracer, fn, args, kwargs, result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the spans recorded since the last clear()."""
        layers = [self.sites[s][0] for s in self.site]
        nspans = len(layers)
        child = [0.0] * nspans
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_by_module: dict[str, float] = {}
        engine_points = 0
        for i in range(nspans):
            dur = self.end[i] - self.start[i]
            par = self.parent[i]
            if par >= 0:
                child[par] += dur
        for i in range(nspans):
            layer = layers[i]
            dur = self.end[i] - self.start[i]
            calls[layer] = calls.get(layer, 0) + 1
            # busy time counts the outermost call only, so recursion is not doubled
            par = self.parent[i]
            while par >= 0 and layers[par] != layer:
                par = self.parent[par]
            if par < 0:
                busy[layer] = busy.get(layer, 0.0) + dur
            module = layer.split(".", 1)[0]
            self_by_module[module] = self_by_module.get(module, 0.0) + dur - child[i]
            if layer == "zpn.lambdas_mod" and self.sites[self.site[i]][1] == "engine":
                engine_points += 1

        def b(layer):
            return busy.get(layer, 0.0)

        reductions = calls.get("zpn.lambdas_mod", 0)
        views = calls.get("engine.ask_average", 0) + calls.get("engine.ask_orbit", 0)
        return {
            "zpn.lambdas_mod.calls": reductions,
            "zpn.lambdas_mod.busy_s": b("zpn.lambdas_mod"),
            "zpn.lambdas_mod.us_per_call": (
                b("zpn.lambdas_mod") / reductions * 1e6 if reductions else 0.0
            ),
            "engine.ask_orbit.busy_s": b("engine.ask_orbit"),
            "engine.ask_average.busy_s": b("engine.ask_average"),
            "engine.self_s": self_by_module.get("engine", 0.0),
            "engine.points": engine_points,
            "engine.views_per_level": views / self.levels if self.levels else 0.0,
            "grouporbits.group_closure.busy_s": b("grouporbits.group_closure"),
            "grouporbits.group_closure.elements": self.elements,
            "grouporbits.conjugacy_class_count.busy_s": b("grouporbits.conjugacy_class_count"),
            "grouporbits.orbit_count_vectors.busy_s": b("grouporbits.orbit_count_vectors"),
            "grouporbits.bridge_s": b("grouporbits.cc_via_ask") + b("grouporbits.oc_via_ask"),
            "structural.structure_report.calls": calls.get("structural.structure_report", 0),
            "structural.structure_report.busy_s": b("structural.structure_report"),
            "poly.bareiss_det.calls": calls.get("poly.bareiss_det", 0),
            "ratfun.expand.busy_s": b("ratfun.expand"),
            "ratfun.parse_rational.busy_s": b("ratfun.parse_rational"),
            "ratfun.functional_equation_check.busy_s": b("ratfun.functional_equation_check"),
            "closed_forms.closed_form.busy_s": b("closed_forms.closed_form"),
            "catalog.catalog_module.busy_s": b("catalog.catalog_module"),
            "cli.self_s": self_by_module.get("cli", 0.0),
        }

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, layer, lookup module, start, end (s)."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tlayer\tsite\tstart_s\tend_s\n")
            for i in range(len(self.site)):
                layer, where = self.sites[self.site[i]]
                fh.write(
                    f"{i}\t{self.parent[i]}\t{layer}\t{where}\t"
                    f"{self.start[i] - origin:.9f}\t{self.end[i] - origin:.9f}\n"
                )


CALIBRATION_CALLS = 100_000
CALIBRATION_REPEATS = 7


def span_cost_s() -> float:
    """Median time one traced call costs more than the same call unwrapped.

    A function that does nothing is called with three arguments, as most
    spans are ``lambdas_mod(a, p, cap)``: CALIBRATION_CALLS times through a
    wrapper of a scratch Tracer and as many times directly, in turn,
    CALIBRATION_REPEATS times.  The wrapper's cost is far above the timer's
    noise, so the estimate is positive.
    """

    def noop(a, b, c):
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "calibration", "calibration")
    loop = range(CALIBRATION_CALLS)
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        tracer.clear()
        t0 = perf_counter()
        for i in loop:
            wrapped(i, 5, 2)
        t1 = perf_counter()
        for i in loop:
            noop(i, 5, 2)
        t2 = perf_counter()
        samples.append(((t1 - t0) - (t2 - t1)) / CALIBRATION_CALLS)
    return statistics.median(samples)
