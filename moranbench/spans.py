"""Traced mode: spans at the public boundary of each moran module.

While installed, a Tracer replaces each function in TRACED on its module with
a wrapper that records a span (name, start, end, parent, op id) in memory.
Calls that go through a module attribute are seen, whether they come from the
benchmark or from moran itself (``cli`` calls ``spectra.q_grid``; a function
calling a sibling in its own module uses the same attribute); names bound by
``from .module import name`` are not.  Per-layer metrics are computed from
the spans once the run ends.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict
from fractions import Fraction

from speed import Clock

# (module, attribute) at each layer boundary
TRACED = [
    ("system", "parse_system"),
    ("spectra", "truncation_spectral_verdict"),
    ("spectra", "canonical_spectrum"),
    ("spectra", "is_spectrum"),
    ("spectra", "suitable_decomposition"),
    ("spectra", "verify_decomposition"),
    ("spectra", "q_grid"),
    ("spectra", "spectrum_search"),
    ("fourier", "MeasureWindow"),
    ("fourier", "evaluate_transform"),
    ("fourier", "zero_stratum"),
    ("tiling", "canonical_complement"),
    ("tiling", "is_integer_tile"),
    ("fuglede", "fuglede_report"),
    ("cli", "run"),
]
CLI_COMMANDS = ["analyze", "spectrum", "check-spectrum", "search", "decompose",
                "qgrid", "tile", "complement", "fuglede", "tijdeman"]
TILE_VERDICTS = ["Tile", "NotTile.T1", "NotTile.window", "Unknown"]

# ROADMAP reference points, re-measured in every traced run:
# (metric, layer, unit, iterations)
REFERENCE_POINTS = [
    ("ref.is_spectrum.depth4_l36.median_ms", "spectra", "ms", 9),
    ("ref.q_grid.p1001_l36.median_ms", "spectra", "ms", 3),
    ("ref.evaluate_transform.inf_eps1e-12.median_us", "fourier", "us", 51),
]


def _pairs_tested(args, result) -> int:
    """Differences is_spectrum tested before its verdict."""
    elems = args[1].elements
    n = len(elems)
    if result.violating_pair is None:
        return n * (n - 1) // 2
    i, j = elems.index(result.violating_pair[0]), elems.index(result.violating_pair[1])
    return i * (2 * n - i - 1) // 2 + (j - i)


def _grid_residues(args) -> int:
    """B_n * lcm(a_k N_k): the residues spectrum_search scans."""
    window = args[0]
    levels = [window.system.level(k) for k in range(1, window.last + 1)]
    grid = math.lcm(*(lv.scale * lv.count for lv in levels[window.first - 1:]))
    return math.prod(lv.base for lv in levels) * grid


def _tile_verdict(result) -> str:
    return result.kind if result.certificate is None else \
        f"{result.kind}.{result.certificate}"


# extra span attributes: name -> function of (args, result)
ATTRIBUTES = {
    "spectra.is_spectrum": lambda a, r: {"pairs": _pairs_tested(a, r)},
    "spectra.q_grid": lambda a, r: {"pairs": len(r) * len(a[1])},
    "spectra.spectrum_search": lambda a, r: {"found": r is not None,
                                             "grid": _grid_residues(a)},
    "fourier.evaluate_transform": lambda a, r: {"zero": r.exact_zero},
    "tiling.is_integer_tile": lambda a, r: {"verdict": _tile_verdict(r)},
    "cli.run": lambda a, r: {"command": a[0][0]},
}


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.spans = []  # [name, start, end, parent, op, attrs]
        self.stack = []
        self.originals = []
        self.op = None

    def install(self):
        for module_name, attr in TRACED:
            module = getattr(self.modules, module_name)
            fn = getattr(module, attr)
            self.originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", fn))

    def remove(self):
        for module, attr, fn in reversed(self.originals):
            setattr(module, attr, fn)
        self.originals = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        extra = ATTRIBUTES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, result)
            return result
        return traced

    def begin_op(self, op_id):
        self.op = op_id
        span = ["op", 0.0, 0.0, None, op_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def end_op(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()
        self.op = None

    def dump(self, path, origin):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps([name, round((start - origin) * 1e6, 3),
                                     round((end - origin) * 1e6, 3), parent, op,
                                     attrs], separators=(",", ":")) + "\n")


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, attr in TRACED:
        base = f"{module}.{attr}"
        out += [(f"{base}.calls", "count/op", "lower"),
                (f"{base}.busy_ms", "ms/op", "lower"),
                (f"{base}.p50_us", "us", "lower")]
    out += [
        ("spectra.is_spectrum.us_per_pair", "us", "lower"),
        ("spectra.q_grid.ns_per_pair", "ns", "lower"),
        ("spectra.spectrum_search.max_ms", "ms", "lower"),
        ("spectra.spectrum_search.found_ratio", "ratio", "higher"),
        ("spectra.spectrum_search.grid_residues", "count", "lower"),
        ("fourier.evaluate_transform.exact_zero_ratio", "ratio", "higher"),
    ]
    out += [(f"tiling.is_integer_tile.verdict.{v}", "count/op",
             "lower" if v == "Unknown" else "higher") for v in TILE_VERDICTS]
    out += [(f"cli.run.{c}.p50_us", "us", "lower") for c in CLI_COMMANDS]
    out += [("op.self_ms", "ms/op", "lower"),
            ("trace.overhead_ratio", "ratio", "lower"),
            ("probe.known_defects.failed", "count", "lower")]
    out += [(name, unit, "lower") for name, _, unit, _ in REFERENCE_POINTS]
    return out


def layer_metrics(spans, ops: int, factors) -> dict[str, tuple[float, int]]:
    """name -> (value, samples) for the span-derived per-layer metrics.

    Durations are scaled to reference speed by their op's factor.  Totals
    are divided by the number of traced ops, so they compare across commits
    whatever the throughput.  A span nested inside a span of the same name
    (recursion) is folded into the outer one.
    """
    by_name = defaultdict(list)
    # (name, scaled seconds, parent, attrs)
    spans = [(name, (end - start) * factors.get(op, 1.0), parent, attrs)
             for name, start, end, parent, op, attrs in spans]
    for span in spans:
        parent = span[2]
        while parent is not None and spans[parent][0] != span[0]:
            parent = spans[parent][2]
        if parent is None:
            by_name[span[0]].append(span)
    per_op = max(ops, 1)
    out = {}
    for module, attr in TRACED:
        name = f"{module}.{attr}"
        durations = [s[1] * 1e6 for s in by_name[name]]
        out[f"{name}.calls"] = (len(durations) / per_op, len(durations))
        out[f"{name}.busy_ms"] = (sum(durations) / 1e3 / per_op, len(durations))
        out[f"{name}.p50_us"] = (statistics.median(durations) if durations else 0.0,
                                 len(durations))

    def attr_values(name, key):
        return [(s[1], s[3][key]) for s in by_name[name] if s[3] is not None]

    pairs = attr_values("spectra.is_spectrum", "pairs")
    total = sum(p for _, p in pairs)
    out["spectra.is_spectrum.us_per_pair"] = (
        sum(d for d, _ in pairs) * 1e6 / total if total else 0.0, total)
    pairs = attr_values("spectra.q_grid", "pairs")
    total = sum(p for _, p in pairs)
    out["spectra.q_grid.ns_per_pair"] = (
        sum(d for d, _ in pairs) * 1e9 / total if total else 0.0, total)
    searches = attr_values("spectra.spectrum_search", "found")
    out["spectra.spectrum_search.max_ms"] = (
        max((d for d, _ in searches), default=0.0) * 1e3, len(searches))
    out["spectra.spectrum_search.found_ratio"] = (
        sum(f for _, f in searches) / len(searches) if searches else 0.0,
        len(searches))
    residues = [g for _, g in attr_values("spectra.spectrum_search", "grid")]
    out["spectra.spectrum_search.grid_residues"] = (
        statistics.fmean(residues) if residues else 0.0, len(residues))
    zeros = attr_values("fourier.evaluate_transform", "zero")
    out["fourier.evaluate_transform.exact_zero_ratio"] = (
        sum(z for _, z in zeros) / len(zeros) if zeros else 0.0, len(zeros))
    verdicts = [v for _, v in attr_values("tiling.is_integer_tile", "verdict")]
    for v in TILE_VERDICTS:
        out[f"tiling.is_integer_tile.verdict.{v}"] = (verdicts.count(v) / per_op,
                                                      len(verdicts))
    commands = defaultdict(list)
    for d, c in attr_values("cli.run", "command"):
        commands[c].append(d * 1e6)
    for c in CLI_COMMANDS:
        out[f"cli.run.{c}.p50_us"] = (statistics.median(commands[c])
                                      if commands[c] else 0.0, len(commands[c]))
    self_ms, n_ops = 0.0, 0
    children = defaultdict(float)
    for span in spans:
        if span[2] is not None and spans[span[2]][0] == "op":
            children[span[2]] += span[1]
    for i, span in enumerate(spans):
        if span[0] == "op":
            self_ms += (span[1] - children[i]) * 1e3
            n_ops += 1
    out["op.self_ms"] = (self_ms / max(n_ops, 1), n_ops)
    return out


def reference_points(m) -> dict[str, tuple[float, int]]:
    """Median timings, at reference speed, of the ROADMAP reference points.

    is_spectrum at depth 4 with |Lambda| = 36, a 1001-point q_grid over the
    same spectrum, and an infinite-window evaluate_transform at eps = 1e-12.
    Each result is checked before its timing is kept.
    """
    doc = ('{"prefix":{"b":[4,6,4,6],"N":[2,3,2,3]},'
           '"tail":{"kind":"periodic","b":[4],"N":[2]}}')
    s = m.system.parse_system(doc)
    window = m.fourier.MeasureWindow(s, 1, 4)
    spectrum = m.spectra.canonical_spectrum(s, 4)
    infinite = m.fourier.MeasureWindow(s)
    xi = Fraction(10 ** 6 + 1, 3)
    one = Fraction(1)

    def is_spectrum():
        if m.spectra.is_spectrum(window, spectrum).status != "Spectrum":
            raise AssertionError("reference spectrum rejected")

    def q_grid():
        grid = m.spectra.q_grid(window, spectrum, 0 * one, one, one / 1000)
        if len(grid) != 1001 or any(abs(q - 1) > 1e-9 for _, q in grid):
            raise AssertionError("reference Q grid is not flat")

    def transform():
        if m.fourier.evaluate_transform(infinite, xi, 1e-12).exact_zero:
            raise AssertionError("reference point lies on a zero stratum")

    out, clock = {}, Clock()
    for (name, _, unit, iterations), fn in zip(REFERENCE_POINTS,
                                               (is_spectrum, q_grid, transform)):
        times = []
        for _ in range(iterations):
            start = time.perf_counter()
            fn()
            times.append((time.perf_counter() - start) * clock.factor())
        scale = 1e3 if unit == "ms" else 1e6
        out[name] = (statistics.median(times) * scale, iterations)
    return out
