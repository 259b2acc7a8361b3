"""Computation graphs for feed-forward network states and feature reduction.

A graph maps n spins to one complex amplitude. Node kinds:

* ``input``     reads one raw spin, value = w * s_i + b
* ``linear``    affine combination of predecessor scalars
* ``nonlinear`` sigma(b + sum w_j x_j), a scalar activation
* ``product``   (w_a x_a) * (w_b x_b) of exactly two inputs, with no bias
* ``output``    affine sink; mode ``amplitude`` or ``log_amplitude`` (exp of value)

Raw spins are referenced as ``("s", i)`` internally and ``"s_1"``..``"s_n"``
in JSON. ``ComputationGraph`` lists the construction rules.

k counts the scalar nonlinearities of the live nodes: one per nonlinear
node and two per product, which by polarization, xy = ((x+y)^2 - (x-y)^2)/4,
is two squares. Feature reduction rewrites the amplitude as G(t_1..t_mu)
over mu affine features with mu <= k+1: each nonlinear pre-activation and
each of a product's two factors contributes its direct affine part as a
candidate feature (the span of the x+y and x-y candidates of the squares),
the output contributes one more, constants are folded, and linearly
dependent rows are dropped by a greedy QR pass. G is the original DAG
restricted to the nodes that read a nonlinear or product output, plus the
nonlinear nodes, the products and the output, which read the features
through ports (a product through one linear node per factor).

Evaluation runs a tape compiled once per graph and per kind of input (real
ports, complex ports, configuration bits): the live nodes are grouped by
depth level, function and realness, and each group is one ``scipy.sparse``
CSR product over a value table followed by one vectorized activation call
on the group's rows; a product group's matrix stacks the first factors
above the second ones, and its function multiplies the two halves. On
ports each node still sums its bias and weighted inputs in its own input
order, so ``eval_ports`` gives the amplitudes of a per-edge loop bit for
bit, except that a complex weight times a complex value, and a complex
product, are the plain (not fused) complex product. On bits, a group that
reads only raw spins (level 1) takes no CSR product: each of its rows is
T_lo[s mod 2^l] + T_hi[s >> l] of two tables over the low l = ceil(n/2)
and the high configuration bits, built with the tape (``_SpinTables``), so
its sum order is (bias + low part) + high part; the raw-spin port rows
that deeper groups read are filled from the bits. A batch is
evaluated in column sub-blocks whose width keeps the value tables near
8 MiB, in storage each thread keeps for the length of a chunk run; callers
over many configurations hand it ``DEFAULT_CHUNK`` = 2^14 columns at a time
through ``_run_chunks``, which starts pool threads only for batches of at
least two ``_THREAD_SPAN`` = 2^16 configurations, so an n=16 state is
evaluated on the calling thread.
"""

from __future__ import annotations

import concurrent.futures
import functools
import heapq
import json
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse

from .activations import Activation, format_activation, parse_activation, _checked_exp
from .core import HARD_SPIN_CAP, AffineFeature, affine_tables
from .errors import AmplitudeOverflowError, CapacityError, ContractError, CycleError

# node input references are int node ids or ("s", spin_index) raw-spin tuples
# configurations per evaluation chunk; small chunks keep each chunk's feature
# values and amplitudes small (value and Chebyshev tables are blocked within
# a chunk by _TABLE_BYTES)
DEFAULT_CHUNK = 1 << 14
# configurations per pool thread: a batch smaller than two of these runs on
# the calling thread alone. At n=16 a second thread made the transformer
# sweep about 1.4x faster on two idle cores, but a busy process on the
# other core then cost it about 30%, against about 5% on one thread.
_THREAD_SPAN = 1 << 16
# tape sub-blocks are as wide as keeps a tape's value tables near this
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
        if self.kind not in ("input", "linear", "nonlinear", "product", "output"):
            raise ContractError(f"unknown node kind {self.kind!r}")
        if self.kind == "nonlinear" and self.activation is None:
            raise ContractError(f"nonlinear node {self.id} needs an activation")
        if self.kind == "output" and self.output_mode not in ("amplitude", "log_amplitude"):
            raise ContractError(f"output node {self.id} needs a valid output_mode")
        object.__setattr__(self, "inputs", tuple((ref, complex(w)) for ref, w in self.inputs))
        object.__setattr__(self, "bias", complex(self.bias))
        if self.kind == "product" and (len(self.inputs) != 2 or self.bias != 0 or self.activation is not None):
            raise ContractError(f"product node {self.id} needs exactly two inputs, no bias and no activation")

    @property
    def arguments(self) -> tuple:
        """(bias, inputs) of each affine sum the node reads: a product's two
        factors 0 + w_a x_a and 0 + w_b x_b, else its one pre-activation."""
        if self.kind == "product":
            return ((0j, self.inputs[:1]), (0j, self.inputs[1:]))
        return ((self.bias, self.inputs),)


def _is_raw(ref) -> bool:
    return isinstance(ref, tuple) and len(ref) == 2 and ref[0] == "s"


class ComputationGraph:
    """Validated DAG over n spins with exactly one output node.

    Construction rules (``ContractError`` unless noted; ``Node`` itself
    rejects an unknown kind, a nonlinear node without an activation, a
    product without exactly two inputs or with a bias or activation, and an
    output without a valid ``output_mode``):

    * node ids are unique and exactly one node is the output;
    * referenced nodes exist, raw spins lie in 0..n-1, no node reads the output;
    * an ``input`` node reads exactly one raw spin and nothing else;
    * there is no directed cycle (``CycleError`` names one);
    * parameters are real, except output weights on edges without direct
      spin dependence, which a nonlinear or product output does not pass on;
    * a live non-holomorphic activation takes a real pre-activation.

    Dead nodes, which the output reads through no path, are checked but
    never evaluated, and ``k`` counts only live nodes: one per nonlinear
    node and two per product, the squares of its polarization.
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
            atom = nonlinear or node.kind == "product"
            carries[nid] = not atom and any(_is_raw(r) or carries[r] for r, _ in node.inputs)
            if nid not in live:
                continue
            acc_real = coeffs_real and all(_is_raw(r) or self._value_real[r] for r, _ in node.inputs)
            self._acc_real[nid] = acc_real
            self._value_real[nid] = acc_real and (not nonlinear or node.activation.mode == "real")
            if node.kind == "product":
                self.k += 2  # ((x+y)^2 - (x-y)^2) / 4: two scalar nonlinearities
            elif nonlinear:
                self.k += 1
                if not acc_real and not node.activation.holomorphic:
                    raise ContractError(
                        f"node {nid}: activation {node.activation.kind} cannot take a complex pre-activation"
                    )
        self._tapes: dict[object, _Tape] = {}

    @property
    def output_node(self) -> Node:
        return self.nodes[self.output_id]

    # -- evaluation -----------------------------------------------------------

    def _tape(self, complex_ports: bool, bits: bool = False) -> "_Tape":
        """The compiled tape for real or complex port values, or for
        configuration bits, built on first use."""
        key = "bits" if bits else complex_ports
        tape = self._tapes.get(key)
        if tape is None:
            tape = self._tapes[key] = _Tape(self, complex_ports, bits)
        return tape

    def _evaluate(self, tape: "_Tape", inputs: np.ndarray) -> np.ndarray:
        """Amplitudes of the batch columns of ``inputs``, (n, B) port values
        or B configuration bits, in sub-blocks of ``tape.width`` columns."""
        B = inputs.shape[-1]
        out = np.empty(B, dtype=np.complex128 if tape.out[0] else np.float64)
        width = max(1, min(B, tape.width))
        buffers = tape.buffers(width)
        for start in range(0, B, width):
            stop = min(start + width, B)
            try:
                amps = tape.run(inputs[..., start:stop], buffers)
                if not np.isfinite(amps).all():
                    column = int(np.argmin(np.isfinite(amps)))
                    raise AmplitudeOverflowError(f"non-finite amplitude {amps[column]}", bits=column)
            except AmplitudeOverflowError as exc:
                if exc.bits is not None:
                    exc.bits += start
                raise
            out[start:stop] = amps
        return out

    def eval_ports(self, ports: np.ndarray) -> np.ndarray:
        """Forward pass on a batch; ports has shape (n, B) of port values.

        Port values are feature values for residual graphs produced by
        feature reduction, complex ellipse points, or +/-1 spins. The result
        has the dtype of the tape's output table: float64 when the ports and
        the output value are real, complex128 otherwise. An overflow raises
        ``AmplitudeOverflowError`` whose ``bits`` names the batch column; so
        does a non-finite amplitude.
        """
        ports = np.atleast_2d(np.asarray(ports))
        if ports.shape[0] != self.n:
            raise ContractError(f"expected {self.n} rows of port values, got {ports.shape[0]}")
        return self._evaluate(self._tape(np.iscomplexobj(ports)), ports)

    def eval_bits(self, bits: np.ndarray, threads: int = 1, chunk: int = DEFAULT_CHUNK) -> np.ndarray:
        """Amplitudes for configuration bits, in thread-independent chunks;
        bits above n are ignored, and an overflow's ``bits`` names the
        configuration."""
        tape = self._tape(False, bits=True)  # and its spin tables, before any pool thread starts
        return _eval_bits_chunked(lambda piece: self._evaluate(tape, piece), bits, threads, chunk)


def _eval_bits_chunked(evaluate, bits, threads: int, chunk: int) -> np.ndarray:
    """``evaluate(piece)`` over ``_run_chunks`` pieces of the configuration
    bits; an overflow's batch column becomes its configuration."""
    bits = np.asarray(bits, dtype=np.int64)

    def run(start, stop):
        piece = bits[start:stop]
        try:
            return evaluate(piece)
        except AmplitudeOverflowError as exc:
            if exc.bits is None:
                raise
            config = int(piece[exc.bits])
            raise AmplitudeOverflowError(
                f"amplitude overflow at configuration bits={config:#x}: {exc}", bits=config
            ) from None

    return _run_chunks(run, len(bits), threads, chunk)


def _low_bits(n: int) -> int:
    """Bits of a configuration that index the low table of ``_SpinTables``."""
    return (n + 1) // 2


def _bit_pieces(bits: np.ndarray, n: int) -> list[tuple]:
    """(columns, low index, high index) pieces of a batch of configuration
    bits, for ``_SpinTables.values``; bits above n are ignored.

    An ascending run of consecutive configurations, which is what
    ``materialize`` evaluates, gives one piece per aligned window of 2^l
    configurations it crosses, indexed by slices; any other batch gives one
    piece indexed by arrays. Either way a column gets the same two table
    entries, so its value does not depend on the batch.
    """
    bits = np.asarray(bits, dtype=np.int64) & ((1 << n) - 1)
    l = _low_bits(n)
    low = (1 << l) - 1
    B = len(bits)
    if B and bits[-1] - bits[0] == B - 1 and (np.diff(bits) == 1).all():
        pieces, start = [], 0
        while start < B:
            config = int(bits[0]) + start
            offset, high = config & low, config >> l
            stop = min(B, start + low + 1 - offset)
            pieces.append((slice(start, stop), slice(offset, offset + stop - start), slice(high, high + 1)))
            start = stop
        return pieces
    return [(slice(0, B), bits & low, bits >> l)]


class _SpinTables:
    """Affine rows b + sum_i w_i s_i of n raw spins, from two tables.

    With l = ceil(n/2) low bits, the value at configuration s is
    lo[s & (2^l - 1)] + hi[s >> l]: ``lo`` holds the bias plus the low
    spins' part over all 2^l low configurations, ``hi`` the high spins' part,
    both by index doubling (``core.affine_tables``). l depends on n only, so
    every configuration's value is the same float sum in any batch. The
    tables take rows * (2^l + 2^(n-l)) * 8 bytes (16 for the low table of a
    complex bias).
    """

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        n = weights.shape[1]
        if n > HARD_SPIN_CAP:
            raise CapacityError(f"spin tables for n={n} spins: the cap is {HARD_SPIN_CAP}")
        l = _low_bits(n)
        self.lo = affine_tables(weights[:, :l], bias.real)
        if np.iscomplexobj(bias) and bias.imag.any():
            self.lo = self.lo + 1j * bias.imag[:, None]
        self.hi = affine_tables(weights[:, l:], np.zeros(len(bias)))

    def values(self, pieces: list[tuple], B: int) -> np.ndarray:
        """(rows, B) values of a batch split by ``_bit_pieces``."""
        out = np.empty((len(self.lo), B), dtype=self.lo.dtype)
        for columns, low, high in pieces:
            np.add(self.lo[:, low], self.hi[:, high], out=out[:, columns])
        return out


@dataclass(frozen=True)
class _Step:
    """One group of nodes: a sparse product over a source table, or on
    configuration bits the spin tables of a group that reads only raw spins,
    then the group's function on the rows it yields."""

    matrix: scipy.sparse.csr_array  # a row per node (per factor of a product), a column per source-table row
    src: int  # table read: 0 real, 1 complex
    dst: int  # table written
    lo: int  # first destination row
    mirror: int | None  # first complex-table row of the copy a real group keeps there
    fn: object  # Activation.apply, _checked_exp, _multiply_halves, or None for affine nodes
    spins: _SpinTables | None  # the rows of ``matrix`` over configuration bits, on a bits tape


class _Tape:
    """A graph compiled to sparse products over per-sub-block value tables,
    for port values or, with ``bits``, for configuration bits.

    Every live node owns one row of the real (float64) or the complex
    (complex128) table, by the realness of its value; row 0 of both tables
    holds ones and rows 1..n the ports. Nodes are grouped by (depth level,
    function, realness of the pre-activation). A group reads only lower
    levels, so one CSR product gives all its pre-activations and one
    vectorized call applies its function. Each CSR row holds the bias (as
    the weight of the ones row) and then the node's inputs in their own
    order, so every node sums bias + w0 x0 + w1 x1 ... in the order of a
    per-edge loop; a product group has a row per factor, w_a x_a, and
    multiplies its two halves. A complex pre-activation reads the complex
    table only, which therefore also holds a copy of the ports and of each
    real group that one reads.

    That per-edge order holds on ports. A bits tape gives each level-1
    group, which reads only raw spins, the ``_SpinTables`` of its matrix
    rows instead, and fills only the port rows that later groups read,
    from the bits: no spin matrix is formed.
    """

    def __init__(self, g: ComputationGraph, complex_ports: bool, bits: bool = False):
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
            elif node.kind == "product":
                fn = _multiply_halves
            groups.setdefault((level[nid], fn, acc_c[nid]), []).append(nid)

        # what a complex pre-activation reads from the real side
        mirrored = {r for nid in g.live_order if acc_c[nid] for r, _ in nodes[nid].inputs}
        port_tables = (1,) if complex_ports else (0, 1) if any(map(_is_raw, mirrored)) else (0,)

        sizes = [1 + n, 1 + n]
        row: list[dict[int, int]] = [{}, {}]
        placed = []
        for (depth, fn, acc_complex), members in sorted(groups.items(), key=lambda item: item[0][0]):
            dst = int(val_c[members[0]])
            lo, sizes[dst] = sizes[dst], sizes[dst] + len(members)
            row[dst].update((nid, lo + j) for j, nid in enumerate(members))
            mirror = None
            if not dst and mirrored.intersection(members):
                mirror, sizes[1] = sizes[1], sizes[1] + len(members)
                row[1].update((nid, mirror + j) for j, nid in enumerate(members))
            placed.append((members, fn, int(acc_complex), dst, lo, mirror, depth == 1))

        self.steps, port_rows = [], set()
        for members, fn, src, dst, lo, mirror, spin_only in placed:
            # one row per node; a product group's first factors, then its second ones
            arity = len(nodes[members[0]].arguments)
            terms = [nodes[nid].arguments[f] for f in range(arity) for nid in members]
            indptr, indices, data = [0], [], []
            for bias, inputs in terms:
                if bias != 0:
                    indices.append(0)
                    data.append(bias)
                indices.extend(1 + r[1] if _is_raw(r) else row[src][r] for r, _ in inputs)
                data.extend(w for _, w in inputs)
                indptr.append(len(indices))
            data = np.array(data, dtype=np.complex128)
            matrix = scipy.sparse.csr_array(
                (data if src else data.real.copy(), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
                shape=(len(terms), sizes[src]),
            )
            apply = fn.apply if isinstance(fn, Activation) else fn
            spins = None
            if bits and spin_only:
                # the matrix rows read only column 0, the bias, and 1 + i, spin i
                dense = matrix[:, : 1 + n].toarray()
                spins = _SpinTables(dense[:, 1:].real, dense[:, 0])
            else:
                port_rows.update((src, r[1]) for _, inputs in terms for r, _ in inputs if _is_raw(r))
            self.steps.append(_Step(matrix, src, dst, lo, mirror, apply, spins))
        out = int(val_c[g.output_id])
        self.out = (out, row[out][g.output_id])
        # a table that no step reads or writes takes no memory
        used = {t for step in self.steps for t in (step.src, step.dst)}
        self.sizes = [size if t in used else 0 for t, size in enumerate(sizes)]
        self.port_tables = tuple(t for t in port_tables if t in used)
        self.width = max(1, _TABLE_BYTES // (8 * self.sizes[0] + 16 * self.sizes[1]))
        self.n, self.bits = n, bits
        # on bits, the (table, spin) port rows that the steps without spin tables read
        self.port_rows = sorted(port_rows)

    def buffers(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Storage for the real and the complex table of sub-blocks up to
        ``width`` wide, carved from the calling thread's scratch."""
        real, cplx = self.sizes[0] * width, self.sizes[1] * width
        buf = _scratch(real + 2 * cplx)
        return buf[:real], buf[real:].view(np.complex128)

    def run(self, inputs: np.ndarray, buffers) -> np.ndarray:
        """Amplitudes of one sub-block: (n, w) port columns, or on a bits
        tape w configuration bits."""
        n, w = self.n, inputs.shape[-1]
        tables = [buf[: size * w].reshape(size, w) for buf, size in zip(buffers, self.sizes)]
        for table in tables:
            table[:1] = 1.0
        if self.bits:
            pieces = _bit_pieces(inputs, n)
            for t, i in self.port_rows:
                tables[t][1 + i] = ((inputs >> i) & 1) * 2.0 - 1.0
        else:
            for t in self.port_tables:
                tables[t][1 : 1 + n] = inputs
        for step in self.steps:
            vals = step.matrix @ tables[step.src] if step.spins is None else step.spins.values(pieces, w)
            if step.fn is not None:
                vals = step.fn(vals)
            tables[step.dst][step.lo : step.lo + len(vals)] = vals
            if step.mirror is not None:
                tables[1][step.mirror : step.mirror + len(vals)] = vals
        t, r = self.out
        return tables[t][r]


def _multiply_halves(vals: np.ndarray) -> np.ndarray:
    """Top half of the rows times the bottom half. A complex product is
    formed unfused, (ar br - ai bi) + i (ar bi + ai br), like the complex
    weights of the sparse products, so no CPU's fused multiply-add moves it."""
    half = len(vals) // 2
    a, b = vals[:half], vals[half:]
    if not np.iscomplexobj(vals):
        return np.multiply(a, b, out=a)
    out = np.empty_like(a)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


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
    original ids, the nonlinear and product nodes, the output and every
    linear node that reads one of their outputs, with their edges among
    those nodes. Each nonlinear node and the output also reads its direct
    affine part as port edges beta . t plus bias gamma; each product factor
    with a direct part becomes a linear node of those port edges, the bias
    and the factor's edge among kept nodes, numbered after the graph's ids.
    Input nodes and linear nodes that read only spins drop out.
    """

    features: list[AffineFeature]
    residual: ComputationGraph
    n: int
    k: int

    @property
    def mu(self) -> int:
        return len(self.features)

    @functools.cached_property
    def _spin_tables(self) -> _SpinTables:
        W = np.reshape([f.weights for f in self.features], (self.mu, self.n))
        return _SpinTables(W, np.array([f.bias for f in self.features], dtype=np.float64))

    def feature_values(self, bits: np.ndarray) -> np.ndarray:
        """(mu, B) feature values for an array of configuration bits, from
        spin tables built on the first call; bits above n are ignored."""
        return self._spin_tables.values(_bit_pieces(bits, self.n), len(bits))

    def g_eval(self, tvals: np.ndarray) -> np.ndarray:
        """Evaluate G on feature values of shape (mu, B)."""
        return self.residual.eval_ports(np.asarray(tvals, dtype=np.float64))

    def eval_bits(self, bits: np.ndarray, threads: int = 1, chunk: int = DEFAULT_CHUNK) -> np.ndarray:
        """Amplitudes G(t(s)) for configuration bits, as ``ComputationGraph.eval_bits``."""
        return _eval_bits_chunked(
            lambda piece: self.residual.eval_ports(self.feature_values(piece)), bits, threads, chunk
        )


def feature_reduce(g: ComputationGraph) -> ReducedForm:
    """Collect candidate features, drop constants and dependent rows, and
    rewrite the graph over the retained feature ports.

    Each live value splits into a direct affine part w.s + c and a part that
    reads nonlinear or product outputs phi, which are atoms with no direct
    part. The direct parts of the nonlinear pre-activations, of both factors
    of each product and of the output are the candidate features.
    """
    zero = np.zeros(g.n)
    direct: dict[int, tuple[np.ndarray, complex]] = {}
    reads_phi: dict[int, bool] = {}

    def direct_part(inputs, bias: complex) -> tuple[np.ndarray, complex]:
        w, c = np.zeros(g.n), bias
        for ref, wt in inputs:
            if _is_raw(ref):
                w[ref[1]] += wt.real
            else:
                w_src, c_src = direct[ref]
                w += wt.real * w_src
                c += wt * c_src
        return w, c

    candidates = []  # (w, c.real) of atom arguments in live order, then the output
    for nid in g.live_order:
        node = g.nodes[nid]
        if node.kind in ("nonlinear", "product"):
            for bias, inputs in node.arguments:
                w, c = direct_part(inputs, bias)
                candidates.append((w, c.real))
            direct[nid] = (zero, 0j)
            reads_phi[nid] = True
        else:
            direct[nid] = direct_part(node.inputs, node.bias)
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

    # the residual keeps every node that reads an atom, under its own id and
    # with its edges among kept nodes; nonlinear nodes and the output take
    # their direct parts through port edges and bias instead. Each product
    # factor becomes a new linear node over ports and the factor's inner
    # edge, numbered after the graph's ids; a factor without ports or
    # constant reads its inner edge directly
    residual_nodes = []
    next_id = max(g.nodes) + 1
    j = 0

    def inner(inputs) -> tuple:
        return tuple((ref, wt) for ref, wt in inputs if not _is_raw(ref) and reads_phi[ref])

    def rewritten(nid: int, kind: str, inputs, activation=None, output_mode=None) -> Node:
        """Node ``nid`` over candidate j's ports and bias plus the inner edges."""
        nonlocal j
        ports = tuple((("s", m), beta) for m, beta in enumerate(betas[j]) if beta != 0.0)
        bias = gammas[j] if kind == "output" else gammas[j].real
        j += 1
        return Node(nid, kind, ports + inner(inputs), bias, activation, output_mode)

    for nid in g.live_order:
        node = g.nodes[nid]
        if node.kind in ("input", "linear"):
            if reads_phi[nid]:
                residual_nodes.append(Node(nid, "linear", inner(node.inputs)))
        elif node.kind == "product":
            factors = []
            for _, inputs in node.arguments:
                factor = rewritten(next_id, "linear", inputs)
                if factor.bias == 0 and len(factor.inputs) == 1 and not _is_raw(factor.inputs[0][0]):
                    factors.append(factor.inputs[0])
                else:
                    residual_nodes.append(factor)
                    factors.append((next_id, 1.0))
                    next_id += 1
            residual_nodes.append(Node(nid, "product", tuple(factors)))
        else:
            residual_nodes.append(rewritten(nid, node.kind, node.inputs, node.activation, node.output_mode))
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
