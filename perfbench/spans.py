"""Spans recorded around calls into qaeopt, from outside the library.

The library modules import names directly (``from .search import
optimize``), so each wrapper is installed where the name is looked up, for
example ``qaeopt.cli.optimize`` or ``qaeopt.search.breadth_first``. Spans
live in memory and are written out when the run ends. Spans opened inside
pool workers stay in those processes and are not seen.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    op: int
    parent: int | None  # index in Tracer.spans
    start: float
    end: float = 0.0
    busy: float = 0.0  # end - start, or time inside next() for a generator
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.op, parent, perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        span.busy = span.end - span.start
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counts is not None:
                s.counts.update(counts(args, result))
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Time each next() of the returned iterator; the span's busy time is
        their sum and ``items`` counts what it yielded."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            self._stack.pop()  # next() runs interleaved with the caller's work
            s.counts["items"] = 0
            it = iter(fn(*args, **kwargs))

            def timed():
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        s.end = perf_counter()
                        s.busy += s.end - t0
                        return
                    s.busy += perf_counter() - t0
                    s.counts["items"] += 1
                    yield item

            return timed()

        return traced

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _load_counts(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _breadth_counts(args, result):
    return {"draws": args[2].n1}


def _evaluation_counts(args, result):
    return {"evaluations": result.evaluations}


def _optimize_counts(args, result):
    counts = {"evaluations": result.evaluations}
    if result.method == "heuristic":
        traj = result.trajectory
        counts["descent_steps"] = len(traj) - 1
        counts["improving_steps"] = sum(b < a for a, b in zip(traj, traj[1:]))
    return counts


def _verify_counts(args, result):
    return {"residual": result.residual}


# (module, attribute where the name is looked up, span name, counts)
CALL_SITES = (
    ("qaeopt.cli", "load_statefile", "statefile.load_statefile", _load_counts),
    ("qaeopt.cli", "file_digest", "statefile.file_digest", None),
    ("qaeopt.cli", "optimize", "search.optimize", _optimize_counts),
    ("qaeopt.cli", "eigendecompose", "qstate.eigendecompose", None),
    ("qaeopt.cli", "random_regular", "tableau.random_regular", None),
    ("qaeopt.cli", "build_encoder", "pipeline.build_encoder", None),
    ("qaeopt.cli", "verify_theorem1", "pipeline.verify_theorem1", _verify_counts),
    ("qaeopt.search", "exhaustive_search", "search.exhaustive_search", _evaluation_counts),
    ("qaeopt.search", "breadth_first", "search.breadth_first", _breadth_counts),
    ("qaeopt.search", "depth_first", "search.depth_first", _evaluation_counts),
    ("qaeopt.qstate", "DensityMatrix.__init__", "qstate.DensityMatrix", None),
)
# Generators: the span covers only the time spent producing items.
GENERATOR_SITES = (
    ("qaeopt.search", "enumerate_regular", "tableau.enumerate_regular"),
)


def _owner(module: str, attr: str):
    obj = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


@contextmanager
def installed(tracer: Tracer, missing: set[str]):
    """Patch every call site for the duration of the block.

    A site the library no longer has is skipped and named in ``missing``.
    """
    saved = []
    sites = [(m, a, n, c, False) for m, a, n, c in CALL_SITES]
    sites += [(m, a, n, None, True) for m, a, n in GENERATOR_SITES]
    try:
        for module, attr, name, counts, is_gen in sites:
            try:
                owner, key = _owner(module, attr)
                original = getattr(owner, key)
            except AttributeError:
                missing.add(f"{module}.{attr}")
                continue
            wrapped = tracer.wrap_generator(name, original) if is_gen else tracer.wrap(name, original, counts)
            setattr(owner, key, wrapped)
            saved.append((owner, key, original))
        yield
    finally:
        for owner, key, original in reversed(saved):
            setattr(owner, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's busy time minus the busy time of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.busy
    return [s.busy - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer figures from the spans of ``n_ops`` traced ops."""
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    residual_max = 0.0
    for s, self_s in zip(spans, self_times(spans)):
        busy[s.name] += s.busy
        own[s.name] += self_s
        calls[s.name] += 1
        for key, value in s.counts.items():
            if key == "residual":
                if math.isfinite(value):  # an infinite residual already fails the op
                    residual_max = max(residual_max, value)
            else:
                counts[f"{s.name}.{key}"] += value

    def per_op(x):
        return x / n_ops

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    exhaustive = busy["search.exhaustive_search"]
    enumerate_s = busy["tableau.enumerate_regular"]
    steps = counts["search.optimize.descent_steps"]
    return {
        "search.breadth_s": (per_op(busy["search.breadth_first"]), "s"),
        "search.breadth_draws_per_s": (
            ratio(counts["search.breadth_first.draws"], busy["search.breadth_first"]), "draws/s"),
        "search.depth_s": (per_op(busy["search.depth_first"]), "s"),
        "search.depth_evals_per_s": (
            ratio(counts["search.depth_first.evaluations"], busy["search.depth_first"]), "evals/s"),
        "search.exhaustive_s": (per_op(exhaustive), "s"),
        "tableau.enumerate_self_s": (per_op(enumerate_s), "s"),
        "search.exhaustive_mi_s": (per_op(exhaustive - enumerate_s), "s"),
        "tableau.enumerated": (per_op(counts["tableau.enumerate_regular.items"]), "count"),
        "search.exhaustive_evals_per_s": (
            ratio(counts["search.exhaustive_search.evaluations"], exhaustive), "evals/s"),
        "search.optimize_self_s": (per_op(own["search.optimize"]), "s"),
        "search.evaluations": (per_op(counts["search.optimize.evaluations"]), "count"),
        "search.depth_improving_fraction": (
            ratio(counts["search.optimize.improving_steps"], steps), "fraction"),
        "statefile.load_s": (per_op(busy["statefile.load_statefile"]), "s"),
        "statefile.load_mb_per_s": (
            ratio(counts["statefile.load_statefile.bytes"] / 1e6, busy["statefile.load_statefile"]), "MB/s"),
        "statefile.digest_s": (per_op(busy["statefile.file_digest"]), "s"),
        "qstate.eigendecompose_s": (per_op(busy["qstate.eigendecompose"]), "s"),
        "qstate.density_matrix_s": (per_op(busy["qstate.DensityMatrix"]), "s"),
        "qstate.density_matrix_constructs": (per_op(calls["qstate.DensityMatrix"]), "count"),
        "pipeline.build_encoder_s": (per_op(busy["pipeline.build_encoder"]), "s"),
        "pipeline.verify_theorem1_s": (per_op(busy["pipeline.verify_theorem1"]), "s"),
        "pipeline.residual_max": (residual_max, "nats"),
        "cli.self_s": (per_op(own["cli.main"]), "s"),
    }
