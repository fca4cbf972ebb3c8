"""Pure functions behind perfbench/run.py: percentiles, span self time,
per-layer attribution and output-digest comparison.

Kept free of I/O so test_analysis.py can check them on hand-made inputs.
"""

import bisect
import math
from collections import namedtuple

# A percentile is reported only when at least this many samples lie beyond
# it; below that, one outlier decides the value.
MIN_TAIL = 10

Span = namedtuple("Span", "tid begin end name")

# Span name -> layer, named after the src/ module the span's work lives in.
# fleet.simulate's own time (not covered by any fleet.shard span) is the
# thread pool's dispatch and wait, so it is charged to `common`.
LAYER_OF = {
    "bench.run_day": "fleet",
    "fleet.run_day": "fleet",
    "fleet.period": "fleet",
    "fleet.publish": "fleet",
    "fleet.table": "fleet",
    "fleet.aggregate": "fleet",
    "fleet.pricer": "fleet",
    "fleet.shard": "fleet",
    "fleet.simulate": "common",
    "pricer.observe": "dynamic",
    "solver.dynamic": "dynamic",
    "kernel.plan_build": "core",
    "bench.step.ordinary": "horizon",
    "bench.step.rollover": "horizon",
    "bench.step.commit": "horizon",
}
LAYERS = ("fleet", "common", "dynamic", "core", "estimation", "horizon",
          "other")


def layer_of(name):
    return LAYER_OF.get(name, "other")


# ---- percentiles --------------------------------------------------------------

def percentile_rank(n, q):
    """1-based nearest rank of the q-th percentile of n samples."""
    return max(1, math.ceil(q * n / 100.0))


def samples_beyond(n, q):
    """How many of n samples lie above the q-th percentile's rank."""
    return n - percentile_rank(n, q)


def tail_percentile(samples, q, min_tail=MIN_TAIL):
    """Nearest-rank q-th percentile, or None when fewer than `min_tail`
    samples lie beyond it."""
    n = len(samples)
    if n == 0 or samples_beyond(n, q) < min_tail:
        return None
    return sorted(samples)[percentile_rank(n, q) - 1]


def median(samples):
    """Nearest-rank median (an actual sample, so repeat runs compare)."""
    return sorted(samples)[percentile_rank(len(samples), 50.0) - 1]


# ---- intervals ------------------------------------------------------------------

def union_length(intervals, lo=-math.inf, hi=math.inf):
    """Length of the union of [begin, end) intervals clipped to [lo, hi):
    overlapping intervals count once."""
    clipped = sorted((max(b, lo), min(e, hi)) for b, e in intervals
                     if min(e, hi) > max(b, lo))
    total = 0
    cur_b = cur_e = None
    for b, e in clipped:
        if cur_e is None or b > cur_e:
            if cur_e is not None:
                total += cur_e - cur_b
            cur_b, cur_e = b, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_b
    return total


# ---- span trees -----------------------------------------------------------------

class Node:
    __slots__ = ("span", "children", "cross")

    def __init__(self, span):
        self.span = span
        self.children = []  # same-thread, nested, disjoint
        self.cross = []     # top-level spans of other threads started inside

    @property
    def duration(self):
        return self.span.end - self.span.begin


def build_forest(spans, main_tid):
    """Nest spans into per-thread trees. A top-level span on another thread
    becomes a `cross` child of the innermost main-thread span open when it
    began (a pool worker running part of the main thread's call). Returns
    the main thread's root nodes, in time order."""
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    roots_of = {}
    for tid, group in by_tid.items():
        group.sort(key=lambda s: (s.begin, -s.end))
        roots, stack = [], []
        for s in group:
            node = Node(s)
            while stack and stack[-1].span.end <= s.begin:
                stack.pop()
            (stack[-1].children if stack else roots).append(node)
            stack.append(node)
        roots_of[tid] = roots
    main_roots = roots_of.get(main_tid, [])
    begins = {}  # id(sibling list) -> their begin times, for bisection
    for tid, roots in roots_of.items():
        if tid == main_tid:
            continue
        for node in roots:
            parent = _innermost(main_roots, node.span.begin, begins)
            if parent is not None:
                parent.cross.append(node)
    return main_roots


def _innermost(nodes, t, begins):
    """Deepest node among `nodes` (time-ordered, disjoint) and their
    descendants whose span contains time t."""
    found = None
    while nodes:
        key = id(nodes)
        if key not in begins:
            begins[key] = [n.span.begin for n in nodes]
        i = bisect.bisect_right(begins[key], t) - 1
        if i < 0 or nodes[i].span.end < t:
            break
        found = nodes[i]
        nodes = found.children
    return found


def self_time(node):
    """Span duration minus the part its children cover, same-thread and
    cross-thread alike; overlapping children count once."""
    kids = [(c.span.begin, c.span.end) for c in node.children + node.cross]
    return node.duration - union_length(kids, node.span.begin, node.span.end)


def walk(roots):
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def attribute_layers(roots, layer=layer_of):
    """Charge the main thread's wall time to layers, so the charges sum to
    the roots' total duration. Each main-thread span is charged its self
    time; the wall time covered only by cross-thread children (pool workers
    while the main thread waits) goes to those children's layer, split by
    their busy time when they belong to several."""
    charge = {}
    for node in walk(roots):
        name = layer(node.span.name)
        charge[name] = charge.get(name, 0) + self_time(node)
        if not node.cross:
            continue
        lo, hi = node.span.begin, node.span.end
        same = [(c.span.begin, c.span.end) for c in node.children]
        cross = [(c.span.begin, c.span.end) for c in node.cross]
        only_cross = union_length(same + cross, lo, hi) - union_length(
            same, lo, hi)
        busy = {}
        for c in node.cross:
            busy[layer(c.span.name)] = busy.get(layer(c.span.name), 0) + (
                c.duration)
        total_busy = sum(busy.values())
        for name, b in busy.items():
            share = b / total_busy if total_busy else 1.0 / len(busy)
            charge[name] = charge.get(name, 0) + only_cross * share
    return charge


def parse_spans(text):
    """Spans from the worker's "tid begin_ns end_ns name" lines."""
    spans = []
    for line in text.splitlines():
        if not line.strip():
            continue
        tid, begin, end, name = line.split(" ", 3)
        spans.append(Span(int(tid), int(begin), int(end), name))
    return spans


def fleet_period_latencies(spans, main_tid, periods):
    """Per-period latency of a FleetDriver day from its fleet.period spans:
    each period runs from its span's start to the next period's start (the
    last one to the end of fleet.run_day), so day-boundary work lands in
    the day's last period. Returns (ordinary, rollover) lists in ns."""
    starts = sorted(s.begin for s in spans
                    if s.tid == main_tid and s.name == "fleet.period")
    ends = [s.end for s in spans
            if s.tid == main_tid and s.name == "fleet.run_day"]
    if not starts or not ends:
        return [], []
    bounds = starts + [max(ends)]
    ordinary, rollover = [], []
    for i in range(len(starts)):
        latency = bounds[i + 1] - bounds[i]
        (rollover if (i + 1) % periods == 0 else ordinary).append(latency)
    return ordinary, rollover


# ---- output digests -------------------------------------------------------------

def digest_mismatches(expected, actual):
    """Indices (days, or 0 for a single-day digest) where two digest lists
    differ; a length difference counts every missing or extra index."""
    n = max(len(expected), len(actual))
    return [i for i in range(n)
            if i >= len(expected) or i >= len(actual)
            or expected[i] != actual[i]]
