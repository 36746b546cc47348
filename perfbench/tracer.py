"""Outside-in span tracer: times calls into the program's layers by wrapping
module and class attributes for the duration of one traced enumeration.

A span's self time is its duration minus the durations of the spans that
ran while it was open (its direct children), so the self times of one
traced call add up to that call's wall time. Spans are aggregated in memory
per name (calls, total, self); counters recorded at the same boundaries go
into ``counts``.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter


class Tracer:
    """Span and counter store of one traced enumeration, and the patches
    that feed it."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.emitted = 0  # cliques accepted by Enumerator.emit so far
        self._children = [0.0]  # per open span: time covered by its children
        self._saved: list[tuple[object, str, object]] = []

    def _close(self, name: str, t0: float) -> None:
        dt = _now() - t0
        child = self._children.pop()
        self._children[-1] += dt
        self.calls[name] += 1
        self.total[name] += dt
        self.self_s[name] += dt - child

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(result)`` records counters."""

        def wrapped(*args, **kwargs):
            self._children.append(0.0)
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, t0)
            if on_result is not None:
                on_result(out)
            return out

        return wrapped

    def gen_span(self, name: str, fn):
        """Span over a generator's whole iteration. What the consumer runs
        between items (the emit calls) nests inside it as child spans."""

        def wrapped(*args, **kwargs):
            self._children.append(0.0)
            t0 = _now()
            e0 = self.emitted
            try:
                yield from fn(*args, **kwargs)
            finally:
                self._close(name, t0)
                self.counts[name + ".cliques"] += self.emitted - e0

        return wrapped

    def patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def active(self, install):
        """Install the wrappers (``install(self)``, unless ``install`` is
        None) for the body, then put the original attributes back."""
        try:
            if install is not None:
                install(self)
            yield self
        finally:
            self.restore()


def install_core(tr: Tracer) -> None:
    """Wrap the in-process layers: graph reduction, the truss peel, the
    vertex-oriented kernel hand-overs, early termination and emission."""
    import repro.core.hbbmc as hbbmc
    import repro.core.kernels as kernels
    import repro.core.ordering as ordering
    import repro.dist.mce as dist_mce

    def on_reduction(red) -> None:
        tr.counts["reduction.removed"] += red.removed
        tr.counts["reduction.cliques"] += len(red.cliques)

    for mod in (hbbmc, dist_mce):
        tr.patch(mod, "reduce_graph", tr.span("reduction", mod.reduce_graph, on_reduction))

    def on_truss(res) -> None:
        tr.counts["ordering.tau"] = max(tr.counts["ordering.tau"], res.tau)

    tr.patch(ordering, "truss_order", tr.span("ordering.truss", ordering.truss_order, on_truss))

    orig_kernel_fn = hbbmc.kernel_fn

    def kernel_fn(enum, name):
        # One span per hand-over of a root (or edge sub-) branch to the
        # kernel; its recursion calls the bound method directly, unwrapped.
        kfn = tr.span("kernels", orig_kernel_fn(enum, name))
        stats = enum.stats

        def handover(S, C, X):
            c0, e0 = stats.calls, tr.emitted
            kfn(S, C, X)
            tr.counts["kernels.calls"] += stats.calls - c0
            tr.counts["kernels.cliques"] += tr.emitted - e0

        return handover

    tr.patch(hbbmc, "kernel_fn", kernel_fn)
    tr.patch(kernels, "enumerate_tplex", tr.gen_span("early_term", kernels.enumerate_tplex))

    orig_emit = kernels.Enumerator.emit
    children = tr._children

    def emit(self, clique):
        # Called once per clique: the span is inlined to keep overhead low.
        stats = self.stats
        q0 = stats.cliques
        children.append(0.0)
        t0 = _now()
        try:
            orig_emit(self, clique)
        finally:
            tr._close("emit", t0)
        tr.emitted += stats.cliques - q0

    tr.patch(kernels.Enumerator, "emit", emit)


def install_dist(tr: Tracer, spark) -> None:
    """Wrap the driver-side stages of ``mce_distributed``: collect, the
    broadcast, the kernel job and the result collection (GR and the peels
    come from ``install_core``). Task times come from the event log."""
    import os

    import repro.dist.mce as dist_mce

    install_core(tr)
    tr.patch(dist_mce, "to_local", tr.span("dist.collect", dist_mce.to_local))

    def on_broadcast(bc) -> None:
        tr.counts["dist.broadcast_bytes"] += os.path.getsize(bc._path)

    sc_cls = type(spark.sparkContext)
    tr.patch(sc_cls, "broadcast", tr.span("dist.broadcast", sc_cls.broadcast, on_broadcast))
    df_cls = type(spark.range(1))
    tr.patch(df_cls, "localCheckpoint", tr.span("dist.tasks", df_cls.localCheckpoint))
    tr.patch(df_cls, "collect", tr.span("dist.result", df_cls.collect))
    tr.patch(df_cls, "count", tr.span("dist.result", df_cls.count))
