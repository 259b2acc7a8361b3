"""Computation graphs for feed-forward network states and feature reduction.

A graph maps n spins to one complex amplitude. Node kinds:

* ``input``     reads one raw spin, value = w * s_i + b
* ``linear``    affine combination of predecessor scalars
* ``nonlinear`` sigma(b + sum w_j x_j), the only nonlinear primitive
* ``output``    affine sink; mode ``amplitude`` or ``log_amplitude`` (exp of value)

Raw spins are referenced as ``("s", i)`` internally and ``"s_1"``..``"s_n"``
in JSON. ``ComputationGraph`` lists the construction rules.

Feature reduction rewrites the amplitude as G(t_1..t_mu) over mu affine
features with mu <= k+1, k the number of live nonlinear nodes: each
nonlinear pre-activation contributes its direct affine part as a candidate
feature, the output contributes one more, constants are folded, and
linearly dependent rows are dropped by a greedy QR pass. G is the original
DAG restricted to the nodes that read a nonlinear output, plus the
nonlinear nodes and the output, which read the features through ports.

Evaluation runs a tape compiled once per graph (and per port dtype): the
live nodes are grouped by depth level, function and realness, and each
group is one ``scipy.sparse`` CSR product over a value table followed by
one vectorized activation call on the group's rows. Each node still sums
its bias and weighted inputs in its own input order, so the tape gives the
amplitudes of a per-edge loop bit for bit, except that a complex weight
times a complex value is the plain (not fused) complex product. A batch is
evaluated in column sub-blocks whose width keeps the value tables near
8 MiB, in storage each thread keeps for the length of a chunk run; callers
over many configurations hand it ``DEFAULT_CHUNK`` = 2^14 columns at a time
through ``_run_chunks``, which starts pool threads only for batches of at
least two ``_THREAD_SPAN`` = 2^16 configurations, so an n=16 state is
evaluated on the calling thread.
"""

from __future__ import annotations

import concurrent.futures
import heapq
import json
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse

from .activations import Activation, format_activation, parse_activation, _checked_exp
from .core import AffineFeature, spin_matrix
from .errors import AmplitudeOverflowError, ContractError, CycleError

# node input references are int node ids or ("s", spin_index) raw-spin tuples
# configurations per evaluation chunk; small chunks keep each chunk's spin
# matrix, feature values and amplitudes small (value and Chebyshev tables
# are blocked within a chunk by _TABLE_BYTES)
DEFAULT_CHUNK = 1 << 14
# configurations per pool thread: a batch smaller than two of these runs on
# the calling thread alone. At n=16 a second thread made the transformer
# sweep about 1.4x faster on two idle cores, but a busy process on the
# other core then cost it about 30%, against about 5% on one thread.
_THREAD_SPAN = 1 << 16
# eval_ports sub-blocks are as wide as keeps a tape's value tables near this
# many bytes: about 200 columns for a 5000-node graph, 2^14 and more for small
# ones. ChebyshevApprox.evaluate_unit blocks its tables by the same budget.
_TABLE_BYTES = 1 << 23
DEPENDENCE_TOL = 1e-10
# rows whose weight part is pure cancellation debris relative to the row
# magnitude count as constants; anything larger stays a feature so folding
# never discards float-significant spin dependence
_CONST_TOL = 1e-15


_SCRATCH = threading.local()


def _scratch(size: int) -> np.ndarray:
    """``size`` float64 elements of storage for value and Chebyshev tables.

    Inside ``_run_chunks`` each thread keeps its storage from one chunk to
    the next, shared by every tape and fit it evaluates: allocating it per
    chunk lets the allocator hand the pages back and fault them in again.
    The storage goes when the chunk run ends, so no graph, fit or idle
    thread holds any; a call outside a chunk run gets its own.
    """
    if not getattr(_SCRATCH, "kept", False):
        return np.empty(size)
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < size:
        buf = _SCRATCH.buf = np.empty(size)
    return buf[:size]


def _keep_scratch() -> None:
    _SCRATCH.kept = True


def _run_chunks(fn, count: int, threads: int = 1, chunk: int = DEFAULT_CHUNK) -> np.ndarray:
    """Write ``fn(start, stop)`` for consecutive ``chunk``-sized ranges of
    ``0..count`` into one array of length ``count``, with the dtype of the
    first chunk's values: float64 for a real evaluator, complex128 otherwise.

    Chunk boundaries depend on ``chunk`` only, never on ``threads``, so every
    floating-point result is the same for any thread count. Up to
    ``threads`` pool threads share the chunks, one per ``_THREAD_SPAN``
    configurations, once the first chunk has run alone.
    """
    starts = range(0, count, chunk)
    workers = min(threads, count // _THREAD_SPAN)
    out = None

    def start_with(first):
        nonlocal out
        first = np.asarray(first)
        out = np.empty(count, dtype=first.dtype)
        out[: len(first)] = first

    def run(start):
        stop = min(start + chunk, count)
        out[start:stop] = fn(start, stop)

    if workers > 1 and len(starts) > 1:
        # pool threads keep their scratch until the pool shuts them down
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers, initializer=_keep_scratch) as pool:
            start_with(pool.submit(fn, 0, chunk).result())
            list(pool.map(run, starts[1:]))  # re-raises the first failing chunk's error
    else:
        outermost = not getattr(_SCRATCH, "kept", False)
        _keep_scratch()
        try:
            start_with(fn(0, min(chunk, count)))
            for start in starts[1:]:
                run(start)
        finally:
            if outermost:
                _SCRATCH.__dict__.clear()
    return out


@dataclass(frozen=True)
class Node:
    id: int
    kind: str
    inputs: tuple = ()
    bias: complex = 0.0
    activation: Activation | None = None
    output_mode: str | None = None

    def __post_init__(self):
        if self.kind not in ("input", "linear", "nonlinear", "output"):
            raise ContractError(f"unknown node kind {self.kind!r}")
        if self.kind == "nonlinear" and self.activation is None:
            raise ContractError(f"nonlinear node {self.id} needs an activation")
        if self.kind == "output" and self.output_mode not in ("amplitude", "log_amplitude"):
            raise ContractError(f"output node {self.id} needs a valid output_mode")
        object.__setattr__(self, "inputs", tuple((ref, complex(w)) for ref, w in self.inputs))
        object.__setattr__(self, "bias", complex(self.bias))


def _is_raw(ref) -> bool:
    return isinstance(ref, tuple) and len(ref) == 2 and ref[0] == "s"


class ComputationGraph:
    """Validated DAG over n spins with exactly one output node.

    Construction rules (``ContractError`` unless noted; ``Node`` itself
    rejects an unknown kind, a nonlinear node without an activation and an
    output without a valid ``output_mode``):

    * node ids are unique and exactly one node is the output;
    * referenced nodes exist, raw spins lie in 0..n-1, no node reads the output;
    * an ``input`` node reads exactly one raw spin and nothing else;
    * there is no directed cycle (``CycleError`` names one);
    * parameters are real, except output weights on edges without direct
      spin dependence, which a nonlinear output does not pass on;
    * a live non-holomorphic activation takes a real pre-activation.

    Dead nodes, which the output reads through no path, are checked but
    never evaluated, and ``k`` counts only live nonlinear nodes.
    """

    def __init__(self, nodes: Sequence[Node], n: int):
        self.n = int(n)
        self.nodes = {node.id: node for node in nodes}
        if len(self.nodes) != len(nodes):
            raise ContractError("duplicate node ids")
        outputs = [v.id for v in self.nodes.values() if v.kind == "output"]
        if len(outputs) != 1:
            raise ContractError(f"graph needs exactly one output node, found {len(outputs)}")
        self.output_id = outputs[0]
        self.order = _kahn_sort(self.nodes, self.n)

        live = {self.output_id}
        for nid in reversed(self.order):  # every reader of nid comes later
            if nid in live:
                live.update(r for r, _ in self.nodes[nid].inputs if not _is_raw(r))
        self.dead = frozenset(self.nodes) - live
        self.live_order = [i for i in self.order if i in live]

        # direct spin dependence, and for live nodes the realness of the value
        # and of the pre-activation (i*relu of real inputs: complex, real)
        carries: dict[int, bool] = {}
        self._value_real, self._acc_real, self.k = {}, {}, 0
        for nid in self.order:
            node = self.nodes[nid]
            nonlinear = node.kind == "nonlinear"
            coeffs_real = node.bias.imag == 0.0 and all(w.imag == 0.0 for _, w in node.inputs)
            if node.kind != "output" and not coeffs_real:
                raise ContractError(f"node {nid}: complex parameters are only allowed at the output")
            if node.kind == "output" and any(w.imag != 0.0 and (_is_raw(r) or carries[r]) for r, w in node.inputs):
                raise ContractError("complex output weights are only allowed on edges without direct spin dependence")
            carries[nid] = not nonlinear and any(_is_raw(r) or carries[r] for r, _ in node.inputs)
            if nid not in live:
                continue
            acc_real = coeffs_real and all(_is_raw(r) or self._value_real[r] for r, _ in node.inputs)
            self._acc_real[nid] = acc_real
            self._value_real[nid] = acc_real and (not nonlinear or node.activation.mode == "real")
            if nonlinear:
                self.k += 1
                if not acc_real and not node.activation.holomorphic:
                    raise ContractError(
                        f"node {nid}: activation {node.activation.kind} cannot take a complex pre-activation"
                    )
        self._tapes: dict[bool, _Tape] = {}

    @property
    def output_node(self) -> Node:
        return self.nodes[self.output_id]

    # -- evaluation -----------------------------------------------------------

    def _tape(self, complex_ports: bool) -> "_Tape":
        """The compiled tape for real or complex port values, built on first use."""
        tape = self._tapes.get(complex_ports)
        if tape is None:
            tape = self._tapes[complex_ports] = _Tape(self, complex_ports)
        return tape

    def eval_ports(self, ports: np.ndarray) -> np.ndarray:
        """Forward pass on a batch; ports has shape (n, B) of port values.

        Port values are +/-1 spins for ordinary graphs and feature values for
        residual graphs produced by feature reduction. The result has the
        dtype of the tape's output table: float64 when the ports and the
        output value are real, complex128 otherwise. An overflow raises
        ``AmplitudeOverflowError`` whose ``bits`` names the batch column
        (``eval_bits`` turns it into that column's configuration); so does
        a non-finite amplitude.
        """
        ports = np.atleast_2d(np.asarray(ports))
        if ports.shape[0] != self.n:
            raise ContractError(f"expected {self.n} rows of port values, got {ports.shape[0]}")
        tape = self._tape(np.iscomplexobj(ports))
        B = ports.shape[1]
        out = np.empty(B, dtype=np.complex128 if tape.out[0] else np.float64)
        width = max(1, min(B, tape.width))
        buffers = tape.buffers(width)
        for start in range(0, B, width):
            stop = min(start + width, B)
            try:
                amps = tape.run(ports[:, start:stop], buffers)
                if not np.isfinite(amps).all():
                    column = int(np.argmin(np.isfinite(amps)))
                    raise AmplitudeOverflowError(f"non-finite amplitude {amps[column]}", bits=column)
            except AmplitudeOverflowError as exc:
                if exc.bits is not None:
                    exc.bits += start
                raise
            out[start:stop] = amps
        return out

    def eval_bits(self, bits: np.ndarray, threads: int = 1, chunk: int = DEFAULT_CHUNK) -> np.ndarray:
        """Amplitudes for configuration bits, in thread-independent chunks;
        an overflow's ``bits`` names the configuration."""
        return _eval_bits_chunked(self, lambda piece: spin_matrix(piece, self.n).T, bits, threads, chunk)


def _eval_bits_chunked(g: ComputationGraph, ports, bits, threads: int, chunk: int) -> np.ndarray:
    """``g.eval_ports(ports(piece))`` over ``_run_chunks`` pieces of the
    configuration bits; an overflow's batch column becomes its configuration."""
    bits = np.asarray(bits, dtype=np.int64)

    def run(start, stop):
        piece = bits[start:stop]
        try:
            return g.eval_ports(ports(piece))
        except AmplitudeOverflowError as exc:
            if exc.bits is None:
                raise
            config = int(piece[exc.bits])
            raise AmplitudeOverflowError(
                f"amplitude overflow at configuration bits={config:#x}: {exc}", bits=config
            ) from None

    return _run_chunks(run, len(bits), threads, chunk)


@dataclass(frozen=True)
class _Step:
    """One group of nodes: a sparse product over a source table, then the
    group's function on the rows it yields."""

    matrix: scipy.sparse.csr_array  # one row per node, one column per source-table row
    src: int  # table read: 0 real, 1 complex
    dst: int  # table written
    lo: int  # first destination row
    mirror: int | None  # first complex-table row of the copy a real group keeps there
    fn: object  # Activation.apply, _checked_exp, or None for affine nodes


class _Tape:
    """A graph compiled to sparse products over per-sub-block value tables.

    Every live node owns one row of the real (float64) or the complex
    (complex128) table, by the realness of its value; row 0 of both tables
    holds ones and rows 1..n the ports. Nodes are grouped by (depth level,
    function, realness of the pre-activation). A group reads only lower
    levels, so one CSR product gives all its pre-activations and one
    vectorized call applies its function. Each CSR row holds the bias (as
    the weight of the ones row) and then the node's inputs in their own
    order, so every node sums bias + w0 x0 + w1 x1 ... in the order of a
    per-edge loop. A complex pre-activation reads the complex table only,
    which therefore also holds a copy of the ports and of each real group
    that one reads.
    """

    def __init__(self, g: ComputationGraph, complex_ports: bool):
        nodes, n = g.nodes, g.n
        level: dict[int, int] = {}
        acc_c = {nid: complex_ports or not g._acc_real[nid] for nid in g.live_order}
        val_c = {nid: complex_ports or not g._value_real[nid] for nid in g.live_order}
        groups: dict[tuple, list[int]] = {}
        for nid in g.live_order:
            node = nodes[nid]
            level[nid] = 1 + max((level[r] for r, _ in node.inputs if not _is_raw(r)), default=0)
            fn = node.activation
            if node.kind == "output" and node.output_mode == "log_amplitude":
                fn = _checked_exp
            groups.setdefault((level[nid], fn, acc_c[nid]), []).append(nid)

        # what a complex pre-activation reads from the real side
        mirrored = {r for nid in g.live_order if acc_c[nid] for r, _ in nodes[nid].inputs}
        port_tables = (1,) if complex_ports else (0, 1) if any(map(_is_raw, mirrored)) else (0,)

        sizes = [1 + n, 1 + n]
        row: list[dict[int, int]] = [{}, {}]
        placed = []
        for (_, fn, acc_complex), members in sorted(groups.items(), key=lambda item: item[0][0]):
            dst = int(val_c[members[0]])
            lo, sizes[dst] = sizes[dst], sizes[dst] + len(members)
            row[dst].update((nid, lo + j) for j, nid in enumerate(members))
            mirror = None
            if not dst and mirrored.intersection(members):
                mirror, sizes[1] = sizes[1], sizes[1] + len(members)
                row[1].update((nid, mirror + j) for j, nid in enumerate(members))
            placed.append((members, fn, int(acc_complex), dst, lo, mirror))

        self.steps = []
        for members, fn, src, dst, lo, mirror in placed:
            indptr, indices, data = [0], [], []
            for nid in members:
                node = nodes[nid]
                if node.bias != 0:
                    indices.append(0)
                    data.append(node.bias)
                indices.extend(1 + r[1] if _is_raw(r) else row[src][r] for r, _ in node.inputs)
                data.extend(w for _, w in node.inputs)
                indptr.append(len(indices))
            data = np.array(data, dtype=np.complex128)
            matrix = scipy.sparse.csr_array(
                (data if src else data.real.copy(), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
                shape=(len(members), sizes[src]),
            )
            apply = fn.apply if isinstance(fn, Activation) else fn
            self.steps.append(_Step(matrix, src, dst, lo, mirror, apply))
        out = int(val_c[g.output_id])
        self.out = (out, row[out][g.output_id])
        # a table that no step reads or writes takes no memory
        used = {t for step in self.steps for t in (step.src, step.dst)}
        self.sizes = [size if t in used else 0 for t, size in enumerate(sizes)]
        self.port_tables = tuple(t for t in port_tables if t in used)
        self.width = max(1, _TABLE_BYTES // (8 * self.sizes[0] + 16 * self.sizes[1]))

    def buffers(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Storage for the real and the complex table of sub-blocks up to
        ``width`` wide, carved from the calling thread's scratch."""
        real, cplx = self.sizes[0] * width, self.sizes[1] * width
        buf = _scratch(real + 2 * cplx)
        return buf[:real], buf[real:].view(np.complex128)

    def run(self, ports: np.ndarray, buffers) -> np.ndarray:
        """Amplitudes of one sub-block of port columns."""
        n, w = ports.shape
        tables = [buf[: size * w].reshape(size, w) for buf, size in zip(buffers, self.sizes)]
        for table in tables:
            table[:1] = 1.0
        for t in self.port_tables:
            tables[t][1 : 1 + n] = ports
        for step in self.steps:
            vals = step.matrix @ tables[step.src]
            if step.fn is not None:
                vals = step.fn(vals)
            tables[step.dst][step.lo : step.lo + len(vals)] = vals
            if step.mirror is not None:
                tables[1][step.mirror : step.mirror + len(vals)] = vals
        t, r = self.out
        return tables[t][r]


def _kahn_sort(nodes: dict[int, Node], n: int) -> list[int]:
    """Topological order, smallest ready id first; checks each reference
    while it builds the successor lists."""
    indeg = dict.fromkeys(nodes, 0)
    succ: dict[int, list[int]] = {nid: [] for nid in nodes}
    for node in nodes.values():
        for ref, _ in node.inputs:
            if _is_raw(ref):
                if not 0 <= ref[1] < n:
                    raise ContractError(f"node {node.id} reads spin {ref[1]} outside 0..{n - 1}")
                continue
            if ref not in nodes:
                raise ContractError(f"node {node.id} references missing node {ref}")
            if nodes[ref].kind == "output":
                raise ContractError(f"node {node.id} reads the output node")
            succ[ref].append(node.id)
            indeg[node.id] += 1
        if node.kind == "input" and (len(node.inputs) != 1 or indeg[node.id]):
            raise ContractError(f"input node {node.id} must read exactly one raw spin")
    heap = [nid for nid, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        nid = heapq.heappop(heap)
        order.append(nid)
        for nxt in succ[nid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(heap, nxt)
    if len(order) < len(nodes):
        raise CycleError(_find_cycle(nodes, set(nodes).difference(order)))
    return order


def _find_cycle(nodes: dict[int, Node], remaining: set[int]) -> list[int]:
    start = min(remaining)
    path, seen = [], {}
    nid = start
    while nid not in seen:
        seen[nid] = len(path)
        path.append(nid)
        nid = next(r for r, _ in nodes[nid].inputs if not _is_raw(r) and r in remaining)
    return path[seen[nid] :] + [nid]


# ---------------------------------------------------------------------------
# feature reduction
# ---------------------------------------------------------------------------


@dataclass
class ReducedForm:
    """Amplitude as G(t_1..t_mu) over affine features of the spins.

    ``residual`` is a computation graph whose ports are the feature values,
    so G carries no symbolic algebra: it is the original DAG with all input
    dependence rerouted through the retained features. It keeps, under their
    original ids, the nonlinear nodes, the output and every linear node that
    reads a nonlinear output, with their edges among those nodes. Each
    nonlinear node and the output also reads its direct affine part as
    port edges beta . t plus bias gamma. Input nodes and linear nodes that
    read only spins drop out.
    """

    features: list[AffineFeature]
    residual: ComputationGraph
    n: int
    k: int

    @property
    def mu(self) -> int:
        return len(self.features)

    def feature_values(self, bits: np.ndarray) -> np.ndarray:
        """(mu, B) feature values for an array of configuration bits."""
        W = np.reshape([f.weights for f in self.features], (self.mu, self.n))
        b = np.array([f.bias for f in self.features])
        return (spin_matrix(bits, self.n) @ W.T + b).T

    def g_eval(self, tvals: np.ndarray) -> np.ndarray:
        """Evaluate G on feature values of shape (mu, B)."""
        return self.residual.eval_ports(np.asarray(tvals, dtype=np.float64))

    def eval_bits(self, bits: np.ndarray, threads: int = 1, chunk: int = DEFAULT_CHUNK) -> np.ndarray:
        """Amplitudes G(t(s)) for configuration bits, as ``ComputationGraph.eval_bits``."""
        return _eval_bits_chunked(self.residual, self.feature_values, bits, threads, chunk)


def feature_reduce(g: ComputationGraph) -> ReducedForm:
    """Collect candidate features, drop constants and dependent rows, and
    rewrite the graph over the retained feature ports.

    Each live value splits into a direct affine part w.s + c and a part that
    reads nonlinear outputs phi, which are atoms with no direct part. The direct
    parts of the nonlinear pre-activations and of the output are the
    candidate features.
    """
    zero = np.zeros(g.n)
    direct: dict[int, tuple[np.ndarray, complex]] = {}
    reads_phi: dict[int, bool] = {}
    candidates = []  # (w, c.real), nonlinear nodes in live order, then the output
    for nid in g.live_order:
        node = g.nodes[nid]
        w, c = np.zeros(g.n), node.bias
        for ref, wt in node.inputs:
            if _is_raw(ref):
                w[ref[1]] += wt.real
            else:
                w_src, c_src = direct[ref]
                w += wt.real * w_src
                c += wt * c_src
        if node.kind == "nonlinear":
            candidates.append((w, c.real))
            direct[nid] = (zero, 0j)
            reads_phi[nid] = True
        else:
            direct[nid] = (w, c)
            reads_phi[nid] = any(not _is_raw(ref) and reads_phi[ref] for ref, _ in node.inputs)
    out_c = direct[g.output_id][1]
    candidates.append((direct[g.output_id][0], out_c.real))

    # constants fold into the residual graph rather than becoming features
    is_const = [np.abs(w).sum() <= _CONST_TOL * max(1.0, abs(b) + np.abs(w).sum()) for w, b in candidates]

    rows = [np.concatenate([w, [b]]) for w, b in candidates]
    slot: dict[int, int] = {}  # candidate index -> feature index
    basis: list[np.ndarray] = []
    for j, row in enumerate(rows):
        if is_const[j]:
            continue
        v = row.copy()
        for _ in range(2):  # re-orthogonalize for stability
            for q in basis:
                v -= (q @ v) * q
        if np.linalg.norm(v) > DEPENDENCE_TOL * np.linalg.norm(row):
            slot[j] = len(basis)
            basis.append(v / np.linalg.norm(v))

    mu = len(slot)
    features = [AffineFeature(candidates[j][0].copy(), candidates[j][1]) for j in slot]

    # express every candidate as beta . features + gamma
    betas = np.zeros((len(candidates), mu))
    gammas = np.zeros(len(candidates), dtype=np.complex128)
    if mu:
        A = np.column_stack([rows[j] for j in slot] + [np.eye(g.n + 1)[-1]])
    for j, row in enumerate(rows):
        if j in slot:
            betas[j, slot[j]] = 1.0
        elif is_const[j] or mu == 0:
            gammas[j] = candidates[j][1]
        else:
            x, *_ = np.linalg.lstsq(A, row, rcond=None)
            betas[j] = x[:mu]
            gammas[j] = x[mu]

    # imaginary constant part of the output reappears in its residual bias
    gammas[-1] += out_c - out_c.real

    # the residual keeps every node that reads a nonlinear output, under its
    # own id and with its edges among kept nodes; nonlinear nodes and the
    # output take their direct parts through port edges and bias instead
    residual_nodes = []
    j = 0
    for nid in g.live_order:
        node = g.nodes[nid]
        inner = tuple((ref, wt) for ref, wt in node.inputs if not _is_raw(ref) and reads_phi[ref])
        if node.kind in ("input", "linear"):
            if reads_phi[nid]:
                residual_nodes.append(Node(nid, "linear", inner))
            continue
        ports = tuple((("s", m), beta) for m, beta in enumerate(betas[j]) if beta != 0.0)
        bias = gammas[j] if node.kind == "output" else gammas[j].real
        residual_nodes.append(
            Node(nid, node.kind, ports + inner, bias=bias, activation=node.activation, output_mode=node.output_mode)
        )
        j += 1
    residual = ComputationGraph(residual_nodes, n=mu)
    return ReducedForm(features=features, residual=residual, n=g.n, k=g.k)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _num_to_json(x: complex):
    x = complex(x)
    return x.real if x.imag == 0.0 else [x.real, x.imag]


def _num_from_json(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return complex(v)


def _ref_to_json(ref):
    return f"s_{ref[1] + 1}" if _is_raw(ref) else ref


def _ref_from_json(v):
    if isinstance(v, str):
        if not v.startswith("s_"):
            raise ContractError(f"bad raw spin reference {v!r}")
        return ("s", int(v[2:]) - 1)
    return int(v)


def to_json(g: ComputationGraph) -> dict:
    nodes = []
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        entry = {
            "id": node.id,
            "kind": node.kind,
            "inputs": [{"from": _ref_to_json(r), "weight": _num_to_json(w)} for r, w in node.inputs],
            "bias": _num_to_json(node.bias),
        }
        if node.activation is not None:
            entry["activation"] = format_activation(node.activation)
        if node.output_mode is not None:
            entry["output_mode"] = node.output_mode
        nodes.append(entry)
    return {"schema_version": 1, "n": g.n, "nodes": nodes}


def from_json(doc: dict) -> ComputationGraph:
    nodes = []
    for entry in doc["nodes"]:
        kind = entry["kind"]
        nodes.append(
            Node(
                id=int(entry["id"]),
                kind=kind,
                inputs=tuple(
                    (_ref_from_json(e["from"]), _num_from_json(e["weight"]))
                    for e in entry.get("inputs", [])
                ),
                bias=_num_from_json(entry.get("bias", 0.0)),
                activation=parse_activation(entry["activation"]) if entry.get("activation") else None,
                output_mode=entry.get("output_mode", "amplitude") if kind == "output" else None,
            )
        )
    return ComputationGraph(nodes, n=int(doc["n"]))


def save_graph(g: ComputationGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json(g), fh, indent=1)
        fh.write("\n")


def load_graph(path) -> ComputationGraph:
    with open(path) as fh:
        return from_json(json.load(fh))
