"""Spans around calls into nqsent's public functions, recorded from the
benchmark's own code, and the per-layer metrics derived from them.

``install`` replaces each traced entry point in every loaded ``nqsent``
module namespace that binds it (``from .x import f`` copies the binding),
so calls the library makes internally are traced too. Spans, including the
ones opened on ``materialize`` worker threads, are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

# Enclosing layers: their spans contain the layers below, so they are left out
# of the coverage share, which asks how much of the pass the layers explain.
ENCLOSING = ("experiments.run_sweep", "approx.full_bound_report")

# (name, unit, better) for every metric of a traced run. Names ending in
# edge_evals, gram_flop, eig_dim3_sum and poly_terms are computed from
# array shapes, not measured.
LAYER_METRICS = [
    ("entanglement.bipartition.busy_s", "s", "lower"),
    ("entanglement.entropy.busy_s", "s", "lower"),
    ("entanglement.eigvalsh.busy_s", "s", "lower"),
    ("entanglement.eig_dim3_sum", "count", "lower"),
    ("entanglement.gram_flop", "flop", "lower"),
    ("entanglement.rank_frac", "ratio", "lower"),
    ("graph.eval_ports.busy_s", "s", "lower"),
    ("graph.eval_ports.calls", "count", "lower"),
    ("graph.edge_evals", "count", "lower"),
    ("graph.feature_reduce.busy_s", "s", "lower"),
    ("graph.feature_reduce.mu_over_k1", "ratio", "lower"),
    ("core.spin_matrix.busy_s", "s", "lower"),
    ("statevector.materialize.busy_s", "s", "lower"),
    ("statevector.materialize.amps_per_s", "1/s", "higher"),
    ("statevector.materialize.pool_util", "ratio", "higher"),
    ("statevector.materialize.thread_speedup", "ratio", "higher"),
    ("statevector.real_frac", "ratio", "higher"),
    ("approx.auxiliary_state.busy_s", "s", "lower"),
    ("approx.cheb_fit_multi.busy_s", "s", "lower"),
    ("approx.reduced_certificate.busy_s", "s", "lower"),
    ("approx.poly_terms", "count", "lower"),
    ("approx.certified_frac", "ratio", "higher"),
    ("ansatz.build.busy_s", "s", "lower"),
    ("experiments.run_sweep.self_s", "s", "lower"),
    ("experiments.excluded_frac", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: int  # time.perf_counter_ns()
    end: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # a worker thread's first span belongs to the call that started the
        # pool, which is open on the installing thread
        outer = stack or self._main_stack
        sp = Span(next(self._ids), name, outer[-1].id if outer else None, threading.get_ident(), time.perf_counter_ns())
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(sp)

    def wrap(self, name: str, fn, counts=None):
        """``fn`` inside a span; ``counts(args, kwargs, result)`` adds counts to it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if counts is not None:
                sp.counts.update(counts(args, kwargs, result))
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, original, name: str, counts=None, wrapper=None) -> None:
        traced = self.wrap(name, wrapper or original, counts)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "nqsent" and not mod_name.startswith("nqsent."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, traced)

    def install(self) -> None:
        """Trace the layer entry points; call from the thread that runs the pass."""
        from nqsent import approx, ansatz, core, entanglement, experiments, graph, statevector

        self._main_stack = self._stack()
        edges = weakref.WeakKeyDictionary()

        def live_edges(g) -> int:
            if g not in edges:
                edges[g] = sum(len(g.nodes[nid].inputs) for nid in g.live_order)
            return edges[g]

        def materialize_chunks(obj, *args, **kwargs):
            return statevector_materialize(_ChunkSpans(obj, self), *args, **kwargs)

        statevector_materialize = statevector.materialize
        self.patch_function(experiments.run_sweep, "experiments.run_sweep", _sweep_counts)
        self.patch_function(ansatz.ansatz_from_config, "ansatz.build")
        self.patch_function(
            statevector.materialize, "statevector.materialize", _materialize_counts, wrapper=materialize_chunks
        )
        self.patch_function(core.spin_matrix, "core.spin_matrix")
        self.patch_function(
            graph.feature_reduce,
            "graph.feature_reduce",
            lambda a, kw, r: {"mu_amps": r.mu << r.n, "k1_amps": (r.k + 1) << r.n},
        )
        self.patch_function(entanglement.bipartition, "entanglement.bipartition")
        self.patch_function(entanglement.entropy, "entanglement.entropy", _entropy_counts)
        self.patch_function(
            approx.auxiliary_state,
            "approx.auxiliary_state",
            lambda a, kw, r: {"poly_terms": (a[1].degree + 1) ** a[1].mu * (1 << a[0].n)},
        )
        self.patch_function(approx.cheb_fit_multi, "approx.cheb_fit_multi")
        self.patch_function(approx.reduced_certificate, "approx.reduced_certificate")
        self.patch_function(
            approx.full_bound_report,
            "approx.full_bound_report",
            lambda a, kw, r: {"amps": 1 << r.n, "certified_amps": (1 << r.n) if r.certified else 0},
        )
        self._set(
            graph.ComputationGraph,
            "eval_ports",
            self.wrap(
                "graph.eval_ports",
                graph.ComputationGraph.eval_ports,
                lambda a, kw, r: {"edge_evals": live_edges(a[0]) * np.atleast_2d(a[1]).shape[1]},
            ),
        )
        # entanglement calls the eigensolver through np.linalg at call time
        self._set(
            np.linalg,
            "eigvalsh",
            self.wrap("entanglement.eigvalsh", np.linalg.eigvalsh, lambda a, kw, r: {"dim3": a[0].shape[-1] ** 3}),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path, header: dict) -> None:
        t0 = min((s.start for s in self.spans), default=0)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in sorted(self.spans, key=lambda s: s.start):
                doc = asdict(s)
                doc["start"] -= t0
                doc["end"] -= t0
                fh.write(json.dumps(doc) + "\n")


class _ChunkSpans:
    """What ``materialize`` evaluates, with a span around each chunk it hands
    to a worker; the chunk spans give the pool's busy time."""

    def __init__(self, obj, tracer: Tracer):
        self.n = obj.n
        self._eval_bits = obj.eval_bits
        self._tracer = tracer

    def eval_bits(self, bits, *args, **kwargs):
        with self._tracer.span("statevector.materialize.chunk"):
            return self._eval_bits(bits, *args, **kwargs)


def _materialize_counts(args, kwargs, psi) -> dict:
    threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
    amps = 1 << psi.n
    return {"amps": amps, "threads": threads, "real_amps": 0 if np.any(psi.amplitudes.imag) else amps}


def _entropy_counts(args, kwargs, result) -> dict:
    rows, cols = sorted(args[0].M.shape)
    # complex Gram product: rows^2 * cols multiply-adds of 8 real flops each
    return {"gram_flop": 8 * rows * rows * cols, "dim": rows, "rank": result.schmidt_rank}


def _sweep_counts(args, kwargs, result) -> dict:
    cfg = args[0]
    per_point = cfg.trials * len(cfg.k_grid or [None])
    return {
        "trial_amps": sum(per_point << n for n in cfg.n_grid),
        "excluded_amps": sum(1 << e["n"] for e in result.excluded),
    }


def _union_seconds(intervals) -> float:
    total, reach = 0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total * 1e-9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanIndex:
    """Spans grouped by name and by parent."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_name: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def busy(self, name: str) -> float:
        return sum(s.seconds for s in self.by_name.get(name, []))

    def total(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.by_name.get(name, []))

    def self_seconds(self, name: str) -> float:
        """Span durations minus the union of their children's intervals."""
        out = 0.0
        for s in self.by_name.get(name, []):
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in self.children.get(s.id, [])]
            out += s.seconds - _union_seconds(k for k in kids if k[1] > k[0])
        return out

    def table(self) -> dict:
        """Calls, busy and self time of every span name."""
        return {
            name: {"calls": len(spans), "busy_s": self.busy(name), "self_s": self.self_seconds(name)}
            for name, spans in sorted(self.by_name.items())
        }


def layer_metrics(index: SpanIndex, window: tuple[int, int], speedup: float, overhead_s: float) -> dict:
    """Per-layer metrics over every recorded span.

    busy_s sums span durations over threads. Shares are weighted by the
    state size 2^n, so the tiny traced warm-up calls do not move them on a
    workload that uses the layer. ``window`` is the traced pass, over which
    the coverage share is taken.
    """
    busy, total = index.busy, index.total
    pool_capacity = sum(s.seconds * s.counts["threads"] for s in index.by_name.get("statevector.materialize", []))
    lo, hi = window
    covered = _union_seconds(
        (max(s.start, lo), min(s.end, hi)) for s in index.spans if s.name not in ENCLOSING and s.end > lo and s.start < hi
    )
    values = {
        "entanglement.bipartition.busy_s": busy("entanglement.bipartition"),
        "entanglement.entropy.busy_s": busy("entanglement.entropy"),
        "entanglement.eigvalsh.busy_s": busy("entanglement.eigvalsh"),
        "entanglement.eig_dim3_sum": total("entanglement.eigvalsh", "dim3"),
        "entanglement.gram_flop": total("entanglement.entropy", "gram_flop"),
        "entanglement.rank_frac": _ratio(total("entanglement.entropy", "rank"), total("entanglement.entropy", "dim")),
        "graph.eval_ports.busy_s": busy("graph.eval_ports"),
        "graph.eval_ports.calls": len(index.by_name.get("graph.eval_ports", [])),
        "graph.edge_evals": total("graph.eval_ports", "edge_evals"),
        "graph.feature_reduce.busy_s": busy("graph.feature_reduce"),
        "graph.feature_reduce.mu_over_k1": _ratio(
            total("graph.feature_reduce", "mu_amps"), total("graph.feature_reduce", "k1_amps")
        ),
        "core.spin_matrix.busy_s": busy("core.spin_matrix"),
        "statevector.materialize.busy_s": busy("statevector.materialize"),
        "statevector.materialize.amps_per_s": _ratio(total("statevector.materialize", "amps"), busy("statevector.materialize")),
        "statevector.materialize.pool_util": _ratio(busy("statevector.materialize.chunk"), pool_capacity),
        "statevector.materialize.thread_speedup": speedup,
        "statevector.real_frac": _ratio(total("statevector.materialize", "real_amps"), total("statevector.materialize", "amps")),
        "approx.auxiliary_state.busy_s": busy("approx.auxiliary_state"),
        "approx.cheb_fit_multi.busy_s": busy("approx.cheb_fit_multi"),
        "approx.reduced_certificate.busy_s": busy("approx.reduced_certificate"),
        "approx.poly_terms": total("approx.auxiliary_state", "poly_terms"),
        "approx.certified_frac": _ratio(
            total("approx.full_bound_report", "certified_amps"), total("approx.full_bound_report", "amps")
        ),
        "ansatz.build.busy_s": busy("ansatz.build"),
        "experiments.run_sweep.self_s": index.self_seconds("experiments.run_sweep"),
        "experiments.excluded_frac": _ratio(
            total("experiments.run_sweep", "excluded_amps"), total("experiments.run_sweep", "trial_amps")
        ),
        "trace.overhead_s": overhead_s,
        "trace.coverage_frac": _ratio(covered, (hi - lo) * 1e-9),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
