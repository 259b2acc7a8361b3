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
depth level, function and realness, and each group is one step of numpy
calls that write its pre-activations into value-table rows, followed by
one vectorized activation call on the group's rows; a product group
stacks the first factors above the second ones, and its function
multiplies the two halves. Rows of a step that read one set of two or
more distinct source rows with real weights, at least ``_BLOCK_WEIGHTS``
weights in all, are one dense block, a BLAS product (the transformer's
per-token Q/K/V and feed-forward layers). Every other row sums its bias and weighted inputs in
its own input order, exactly as a per-edge loop does (and as a
``scipy.sparse`` CSR product did), from gathered table rows; so outside
blocks ``eval_ports`` gives the amplitudes of a per-edge loop bit for bit,
except that a complex weight times a complex value, and a complex
product, are the plain (not fused) complex product. On bits, a group that
reads only raw spins (level 1) takes no sum: each of its rows is
T_lo[s mod 2^l] + T_hi[s >> l] of two tables over the low l = ceil(n/2)
and the high configuration bits, built with the tape (``_SpinTables``), so
its sum order is (bias + low part) + high part; the raw-spin port rows
that deeper groups read are filled from the bits. The library needs
numpy alone for this: no scipy module is imported.

A batch is evaluated in column sub-blocks whose width keeps the value
tables and the step scratch near 8 MiB, rounded down to a multiple of 8
columns (320 for the 2569-node transformer at n=16), and a final partial
sub-block is padded to a multiple of 8 with its last column. The sub-blocks
run on one BLAS thread (``entanglement._one_blas_thread``): OpenBLAS gives
a dense block's column the same bytes at every multiple of 8 columns, so a
configuration's amplitude depends neither on the batch it is in nor on the
thread counts. Each sub-block allocates its tables and drops them before
the next one starts, so no graph or thread holds any between calls.
``eval_bits`` hands it ``DEFAULT_CHUNK`` = 2^14 columns at a time through
one ``_eval_bits_chunked`` run over the whole batch, into an array of the
dtype of the tape's output table. Only a heavy tape, one whose steps hold
at least ``_HEAVY_NONZEROS`` weights per configuration, spreads a run over
the threads, from two chunks on: the bits tape of the n=16 transformer or
of a cosnet with k >= 128, or the residual tape of the transformer's
reduced form. The threads of such a run split the 8 MiB (160 columns each
for the transformer on two threads); every other run stays on the calling
thread.
"""

from __future__ import annotations

import concurrent.futures
import functools
import heapq
import json
import math
import numbers
import re
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .activations import Activation, format_activation, parse_activation, _checked_exp
from .core import HARD_SPIN_CAP, AffineFeature, _is_integer, affine_tables
from .errors import AmplitudeOverflowError, CapacityError, ContractError, CycleError

# node input references are int node ids or ("s", spin_index) raw-spin tuples
# configurations per evaluation chunk; small chunks keep each chunk's feature
# values and amplitudes small (value and Chebyshev tables are blocked within
# a chunk by _TABLE_BYTES)
DEFAULT_CHUNK = 1 << 14
# tape sub-blocks are as wide as keeps a tape's value tables and scratch
# near this many bytes, split between the threads of a run and rounded down
# to a multiple of 8 columns: 320 columns for the 2569-node transformer,
# 2^14 and more for small graphs. ChebyshevApprox.evaluate_unit blocks its
# tables by the same budget, unsplit, so its blocks and bytes depend on the
# batch alone.
_TABLE_BYTES = 1 << 23
# weights per configuration, over every step of a tape (a spin-table step
# counts the spin weights its tables sum), from which the tape is heavy:
# only a heavy tape's runs spread their chunks over threads. At n=16 the
# transformer's bits tape has 35,448 (two threads took its materialize from
# 1.55 to 0.81 s) and its reduced form's residual 39,145; cosnet k=128 has
# 4,608 (0.48 to 0.26 s). Cosnet k=1 (36), Dicke (23), SN-NQS (22) and MLP
# tapes (121 to 430) stay light: a second thread gained nothing on them.
_HEAVY_NONZEROS = 1 << 12
# rows of a step that read one set of two or more source rows, with at
# least this many weights in all, are one BLAS product (a block): the
# transformer's per-token blocks have 2,080 to 3,072 and its reduced form's
# port block 13,568; a cosnet's first layer is one on ports from k = 64 on
# (3,328 at k=128, n=12), never on bits, where spin tables give it. MLP
# layers (at most 30 weights), SN-NQS and Dicke have none, so their rows
# keep the CSR order and their bytes
_BLOCK_WEIGHTS = 1 << 10
# terms that one pass of a CSR-order sum gathers, into scratch that the
# table budget counts
_GATHER_TERMS = 1 << 9
DEPENDENCE_TOL = 1e-10
# rows whose weight part is pure cancellation debris relative to the row
# magnitude count as constants; anything larger stays a feature so folding
# never discards float-significant spin dependence
_CONST_TOL = 1e-15


# the per-worker state of a thread-driver run: its share of the table budget
_RUN = threading.local()


def _eval_bits_chunked(evaluate, bits, dtype, threads: int = 1, chunk: int = DEFAULT_CHUNK) -> np.ndarray:
    """``evaluate(piece)`` of consecutive ``chunk``-sized pieces of the
    configuration bits, a 1-D integer array or a ``range`` (else
    ``ContractError``), written into one ``dtype`` array. The evaluator
    declares ``dtype``, and a chunk of any other dtype is a
    ``ContractError``. The calling thread allocates the array before any
    chunk starts: a pool thread's malloc arena would keep the pages of a
    freed state resident. Of a ``range`` only each chunk's piece becomes an
    array, so a whole state never holds an index array of its 2^n
    configurations; an overflow's batch column becomes its configuration.

    Chunk boundaries depend on ``chunk`` only, never on ``threads``, so every
    floating-point result is the same for any thread count. The chunks are
    jobs of one ``_run_jobs`` run, in order (callers pass ``threads`` = 1
    unless the evaluating tape is heavy).
    """
    if not isinstance(bits, range):
        bits = np.asarray(bits)
        if bits.ndim != 1 or not np.issubdtype(bits.dtype, np.integer):
            raise ContractError(
                f"configuration bits must be a 1-D integer array or a range, not {bits.dtype} of shape {bits.shape}"
            )
        bits = bits.astype(np.int64, copy=False)
    count = len(bits)
    out = np.empty(count, dtype)
    starts = range(0, count, chunk)

    def write(i):
        start = starts[i]
        piece = bits[start : start + chunk]
        if isinstance(piece, range):
            piece = np.arange(piece.start, piece.stop, piece.step, dtype=np.int64)
        try:
            values = np.asarray(evaluate(piece))
        except AmplitudeOverflowError as exc:
            if exc.bits is None:
                raise
            config = int(piece[exc.bits])
            raise AmplitudeOverflowError(
                f"amplitude overflow at configuration bits={config:#x}: {exc}", bits=config
            ) from None
        if values.dtype != dtype:
            raise ContractError(f"a chunk of {values.dtype} values for a {np.dtype(dtype)} result")
        out[start : start + len(values)] = values

    _run_jobs(write, range(len(starts)), threads)
    return out


def _run_jobs(job, order: Sequence[int], threads: int = 1) -> None:
    """``job(i)`` for every index i in ``order``, the one thread driver of
    the library: the chunks of a state and the region entropies of a sweep.

    Up to ``threads`` workers, never more than there are jobs, take the
    jobs in ``order`` from one queue: the calling thread and pool threads.
    Each worker gets an equal share of the ``_TABLE_BYTES`` budget for the
    run (``_RUN.share``). Once job i fails, no job after i in index order
    is started, while the ones before it still run; the error of the
    failing job of smallest index is raised once every worker has stopped.
    """
    workers = max(1, min(threads, len(order)))
    lock, queue, end, failed = threading.Lock(), iter(order), math.inf, {}

    def work():
        nonlocal end
        _RUN.share = workers
        try:
            while True:
                with lock:
                    i = next((i for i in queue if i < end), None)
                if i is None:
                    return
                try:
                    job(i)
                except Exception as exc:
                    with lock:
                        failed[i] = exc
                        end = min(end, i)
        finally:
            _RUN.__dict__.clear()

    # an executor starts a thread per submitted loop only, and keeps what
    # escapes one for ``result()``; it needs one slot even when it gets none
    with concurrent.futures.ThreadPoolExecutor(max(1, workers - 1)) as pool:
        futures = [pool.submit(work) for _ in range(workers - 1)]
        try:
            work()
        finally:
            end = 0  # an interrupt of the calling thread stops the pool threads too
    for future in futures:
        future.result()
    if failed:
        raise failed[min(failed)]


@dataclass(frozen=True)
class Node:
    id: int
    kind: str
    inputs: tuple = ()
    bias: complex = 0.0
    activation: Activation | None = None
    output_mode: str | None = None
    # classified once, for every graph code path: whether each input is a
    # raw spin, and the node ids among the inputs, in input order
    raw: tuple = field(init=False, repr=False, compare=False)
    preds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("input", "linear", "nonlinear", "product", "output"):
            raise ContractError(f"unknown node kind {self.kind!r}")
        if self.kind == "nonlinear" and self.activation is None:
            raise ContractError(f"nonlinear node {self.id} needs an activation")
        if self.kind in ("input", "linear", "output") and self.activation is not None:
            raise ContractError(f"{self.kind} node {self.id} takes no activation")
        if self.kind == "output" and self.output_mode not in ("amplitude", "log_amplitude"):
            raise ContractError(f"output node {self.id} needs a valid output_mode")
        if self.kind != "output" and self.output_mode is not None:
            raise ContractError(f"{self.kind} node {self.id} takes no output_mode")
        object.__setattr__(self, "inputs", tuple([(ref, complex(w)) for ref, w in self.inputs]))
        object.__setattr__(self, "bias", complex(self.bias))
        object.__setattr__(self, "raw", tuple([_is_raw(ref) for ref, _ in self.inputs]))
        object.__setattr__(self, "preds", tuple([ref for (ref, _), raw in zip(self.inputs, self.raw) if not raw]))
        if self.kind == "product" and (len(self.inputs) != 2 or self.bias != 0 or self.activation is not None):
            raise ContractError(f"product node {self.id} needs exactly two inputs, no bias and no activation")

    @property
    def arguments(self) -> tuple:
        """(bias, inputs, raw) of each affine sum the node reads: a product's
        two factors 0 + w_a x_a and 0 + w_b x_b, else its one pre-activation."""
        if self.kind == "product":
            return ((0j, self.inputs[:1], self.raw[:1]), (0j, self.inputs[1:], self.raw[1:]))
        return ((self.bias, self.inputs, self.raw),)


def _is_raw(ref) -> bool:
    return isinstance(ref, tuple) and len(ref) == 2 and ref[0] == "s"


class ComputationGraph:
    """Validated DAG over n spins with exactly one output node.

    Construction rules (``ContractError`` unless noted; ``Node`` itself
    rejects an unknown kind, a nonlinear node without an activation, an
    activation on any other node, a product without exactly two inputs or
    with a bias, an output without a valid ``output_mode`` and an
    ``output_mode`` on any other node):

    * n is an integer >= 0: the residual of a state with no feature has no
      ports, while builders and ``from_json`` refuse a spin graph with n < 1;
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
        if not _is_integer(n):
            raise ContractError(f"n {n!r} is not an integer")
        if n < 0:
            raise ContractError(f"n={n} is negative")
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
                live.update(self.nodes[nid].preds)
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
            if node.kind == "output" and any(
                w.imag != 0.0 and (raw or carries[r]) for (r, w), raw in zip(node.inputs, node.raw)
            ):
                raise ContractError("complex output weights are only allowed on edges without direct spin dependence")
            atom = nonlinear or node.kind == "product"
            carries[nid] = not atom and (any(node.raw) or any(carries[r] for r in node.preds))
            if nid not in live:
                continue
            acc_real = coeffs_real and all(self._value_real[r] for r in node.preds)
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
        or B configuration bits, in sub-blocks of ``tape.width`` columns
        divided by the thread's share of the table budget and rounded down
        to a multiple of 8, on one BLAS thread (``_one_blas_thread``), so
        that a block's bytes depend on neither ``OPENBLAS_NUM_THREADS`` nor
        the batch."""
        from .entanglement import _one_blas_thread  # entanglement imports this module

        B = inputs.shape[-1]
        out = np.empty(B, dtype=tape.dtype)
        width = max(8, tape.width // getattr(_RUN, "share", 1) // 8 * 8)
        with _one_blas_thread():
            for start in range(0, B, width):
                block = inputs[..., start : start + width]
                try:
                    out[start : start + block.shape[-1]] = _run_checked(tape, block)
                except AmplitudeOverflowError as exc:
                    # the block stopped at the first step that overflowed, but an
                    # earlier column may overflow in a later step: name the first
                    # column that fails alone, whatever the sub-block width
                    while exc.bits:
                        try:
                            _run_checked(tape, block[..., : exc.bits])
                            break
                        except AmplitudeOverflowError as earlier:
                            exc = earlier
                    if exc.bits is not None:
                        exc.bits += start
                    raise exc from None
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

    def eval_bits(self, bits: np.ndarray | range, threads: int = 1) -> np.ndarray:
        """Amplitudes for configuration bits, a 1-D integer array or a
        ``range`` (else ``ContractError``), in thread-independent chunks of
        ``DEFAULT_CHUNK``, with the dtype of the bits tape's output table;
        bits above n are ignored, and an overflow's ``bits`` names the
        configuration."""
        tape = self._tape(False, bits=True)  # and its spin tables, before any pool thread starts
        return _eval_bits_chunked(
            lambda piece: self._evaluate(tape, piece), bits, tape.dtype, threads if tape.heavy else 1
        )


def _run_checked(tape: "_Tape", block: np.ndarray) -> np.ndarray:
    """``tape.run`` on one sub-block; a non-finite amplitude raises
    ``AmplitudeOverflowError`` naming its column."""
    amps = tape.run(block)
    if not np.isfinite(amps).all():
        column = int(np.argmin(np.isfinite(amps)))
        raise AmplitudeOverflowError(f"non-finite amplitude {amps[column]}", bits=column)
    return amps


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
        self.weights, self.bias = weights, bias

    def values(self, pieces: list[tuple], B: int) -> np.ndarray:
        """(rows, B) values of a batch split by ``_bit_pieces``."""
        out = np.empty((len(self.lo), B), dtype=self.lo.dtype)
        for columns, low, high in pieces:
            np.add(self.lo[:, low], self.hi[:, high], out=out[:, columns])
        return out


@dataclass(frozen=True)
class _Step:
    """One group of nodes: its pre-activations as BLAS blocks and sums in
    CSR order over a source table, or on configuration bits from the spin
    tables of a group that reads only raw spins, then the group's function
    on them."""

    src: int  # table read: 0 real, 1 complex
    acc: int  # pre-activations: 0 real, 1 complex
    dst: int  # table written
    lo: int  # first destination row
    size: int  # destination rows, one per node
    pre: int  # pre-activation rows held in scratch, 0 when they go straight into the destination rows
    mirror: int | None  # first complex-table row of the copy a real group keeps there
    fn: object  # Activation.apply, _checked_exp, _multiply_halves, or None for affine nodes
    spins: _SpinTables | None  # the step's rows over configuration bits, on a bits tape
    blocks: tuple = ()  # (first row, source rows: a slice or an index array, real weights (rows, sources))
    # (first row, rows, terms, term-major source rows, their weights (terms * rows, 1) or None for
    # ones, carry, part: None for the whole pre-activation, 0 or 1 for its real or imaginary part)
    sums: tuple = ()


def _carve(buf: np.ndarray, rows: int, width: int, dtype) -> np.ndarray:
    """A (rows, width) ``dtype`` array at the start of the float64 ``buf``."""
    return buf[: rows * width * (np.dtype(dtype).itemsize // 8)].view(dtype).reshape(rows, width)


def _affine(step: _Step, table: np.ndarray, out: np.ndarray, spare: np.ndarray) -> None:
    """The pre-activation rows of ``step`` over the source ``table``, into
    ``out``, with ``spare`` as scratch for gathers.

    A block is one BLAS product over its source rows, a real one over the
    float view of a complex table. Every other row sums 0 + w0 x0 + w1 x1 ...
    in CSR order, as scipy's ``csr_matvecs`` does: a pass gathers term t of
    its rows as slab t, scales it (by a complex weight unfused, as
    ``_multiply_halves`` forms products) and adds the slabs in order onto 0,
    or onto the rows' partial sums when it carries on from a pass over
    their earlier terms.
    """
    width = table.shape[1]
    flat, flat_out = table.view(np.float64), out.view(np.float64)
    for first, cols, weights in step.blocks:
        rows = flat[cols] if isinstance(cols, slice) else flat.take(
            cols, axis=0, out=_carve(spare, len(cols), flat.shape[1], np.float64), mode="wrap"
        )
        np.matmul(weights, rows, out=flat_out[first : first + len(weights)])
    for first, count, terms, cols, weights, carry, part in step.sums:
        acc = out[first : first + count]
        if part is not None:
            acc = acc.imag if part else acc.real
        # one term, no carry, whole values: the gather goes straight into the rows
        direct = terms == 1 and not carry and part is None
        slabs = acc if direct else _carve(spare, terms * count, width, table.dtype)
        table.take(cols, axis=0, out=slabs, mode="wrap")
        if weights is not None:
            _scale(slabs, weights, spare if direct else spare[slabs.size * (slabs.itemsize // 8) :])
        if direct:
            np.add(slabs, 0.0, out=acc)
            continue
        slabs = slabs.reshape(terms, count, width)
        if carry:
            np.add(acc, slabs[0], out=slabs[0])
        np.add.reduce(slabs, axis=0, out=acc, initial=0.0)


def _scale(slabs: np.ndarray, weights: np.ndarray, spare: np.ndarray) -> None:
    """Each row of ``slabs`` times its weight, in place. A complex weight
    multiplies unfused, (wr xr - wi xi) + i (wr xi + wi xr): the float view
    of the row, (xr, xi) pairs, times wr in place and times wi into
    ``spare``, then the pairs' cross terms."""
    if not np.iscomplexobj(slabs):
        np.multiply(slabs, weights, out=slabs)
        return
    pairs = slabs.view(np.float64)
    by_im = _carve(spare, *pairs.shape, np.float64)
    np.multiply(pairs, weights.imag, out=by_im)
    np.multiply(pairs, weights.real, out=pairs)
    np.subtract(pairs[:, 0::2], by_im[:, 1::2], out=pairs[:, 0::2])
    np.add(pairs[:, 1::2], by_im[:, 0::2], out=pairs[:, 1::2])


def _plan(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, complex_acc: bool, complex_src: bool) -> tuple[np.ndarray, tuple, tuple, int]:
    """Order, BLAS blocks and CSR-order sums of a step's pre-activation
    rows, given as a CSR matrix whose rows hold (source row, weight) in sum
    order, and the scratch floats per column that running them takes.

    Rows that read one set of at least two distinct source rows with real
    weights, at least ``_BLOCK_WEIGHTS`` weights in all, are one block when
    the table has the type of the pre-activations; blocks come first. The other rows
    follow by descending term count (stably), a row without terms reading 0
    times the ones row. A pass sums up to ``_GATHER_TERMS`` gathered terms:
    terms of consecutive rows, padded with 0 times the ones row (adding +0
    to a sum that started at 0 leaves it as it is), and a longer row
    continues over further passes. Complex pre-activations over the real
    table take a pass for the real and one for the imaginary part of the
    weights: a real value's imaginary part is +0, so each part's terms and
    sums are those of the complex product.
    """
    lens = np.diff(indptr)
    owner = np.repeat(np.arange(len(lens)), lens)
    # each row's entries by source row: a block's key and weight columns
    by_source = np.lexsort((indices, owner))
    sources, weights = indices[by_source].astype(np.int64), data[by_source]
    keyed: dict[bytes, list[int]] = {}
    if complex_acc == complex_src:
        shut = np.zeros(len(lens), dtype=bool)  # a row with a repeated source or a complex weight
        shut[owner[1:][(sources[1:] == sources[:-1]) & (owner[1:] == owner[:-1])]] = True
        shut[owner[data.imag != 0]] = True
        raw, bounds = sources.tobytes(), (8 * indptr).tolist()
        for i in np.flatnonzero(~shut & (lens > 0)).tolist():
            keyed.setdefault(raw[bounds[i] : bounds[i + 1]], []).append(i)
    grouped = [(key, members) for key, members in keyed.items() if len(key) > 8 and len(key) // 8 * len(members) >= _BLOCK_WEIGHTS]
    blocked = np.zeros(len(lens), dtype=bool)
    for _, members in grouped:
        blocked[members] = True
    rest = np.flatnonzero(~blocked)
    rest = rest[np.argsort(-lens[rest], kind="stable")]
    order = np.concatenate([np.array(members, dtype=np.intp) for _, members in grouped] + [rest])
    units = 2 if complex_src else 1  # floats per value
    blocks, need, first = [], 0, 0
    for key, members in grouped:
        key = np.frombuffer(key, dtype=np.int64)
        cols = slice(int(key[0]), int(key[-1]) + 1) if key[-1] - key[0] == len(key) - 1 else key.astype(np.intp)
        block = np.stack([weights[indptr[i] : indptr[i + 1]].real for i in members])
        blocks.append((first, cols, block))
        need = max(need, 0 if isinstance(cols, slice) else units * len(key))
        first += len(members)
    starts, lens = indptr[rest], lens[rest]
    padded = np.maximum(lens, 1)  # a row without terms reads 0 times the ones row
    parts = (0, 1) if complex_acc and not complex_src else (None,)
    sums, done = [], 0
    while len(padded) and padded[0] > done:
        live = int(np.count_nonzero(padded > done))
        a = 0
        while a < live:
            terms = min(_GATHER_TERMS, int(padded[a]) - done)
            # one term, no carry, whole values: the gather goes straight into the rows, all in one pass
            direct = terms == 1 and not done and parts == (None,)
            b = live if direct else min(live, a + max(1, _GATHER_TERMS // terms))
            # term-major picks of rows a..b, 0 times the ones row past a row's end
            t = np.arange(done, done + terms)[:, None]
            held = t < lens[None, a:b]
            at = np.where(held, starts[None, a:b] + t, 0).ravel()
            held = held.ravel()
            cols = np.where(held, indices[at], 0).astype(np.intp)
            picked = np.where(held, data[at], 0.0)
            for part in parts:
                w = picked if part is None else (picked.real, picked.imag)[part]
                w = np.array(w, dtype=np.complex128 if complex_src else np.float64)
                ones = not complex_src and (w == 1.0).all()  # 1.0 x is x, whatever x is
                sums.append((int(first + a), b - a, terms, cols, None if ones else w[:, None], done > 0, part))
            need = max(need, (0 if direct else units * len(cols)) + (2 * len(cols) if complex_src else 0))
            a = b
        done += _GATHER_TERMS
    return order, tuple(blocks), tuple(sums), need


class _Tape:
    """A graph compiled to BLAS blocks and CSR-order sums over per-sub-block
    value tables, for port values or, with ``bits``, for configuration bits.

    Every live node owns one row of the real (float64) or the complex
    (complex128) table, by the realness of its value; row 0 of both tables
    holds ones and rows 1..n the ports, of which each sub-block fills the
    rows that the steps read (``port_rows``). Nodes are grouped by (depth
    level, function, realness of the pre-activation). A group reads only
    lower levels, so one step (``_affine``) gives all its pre-activations
    and one vectorized call applies its function. Each row holds the bias
    (as the weight of the ones row) and then the node's inputs in their own
    order, so a row outside a block sums bias + w0 x0 + w1 x1 ... in the
    order of a per-edge loop; a product group has a row per factor, w_a
    x_a, and multiplies its two halves. A complex pre-activation of real
    values only (a complex output over real units) is two sums over the real
    table, by the real and by the imaginary parts of its weights; any other
    complex pre-activation reads the complex table only, which therefore
    also holds a copy of the ports and of each real group that one reads
    (``mirror``). Pre-activations go straight into
    the group's rows when the types allow, else into per-sub-block scratch
    (``scratch`` floats per column), which the gathers share.

    That per-edge order holds on ports outside blocks. A bits tape gives
    each level-1 group, which reads only raw spins, the ``_SpinTables`` of
    its rows instead, so its port rows are those that later groups read,
    filled from the bits: no spin matrix is formed.
    """

    def __init__(self, g: ComputationGraph, complex_ports: bool, bits: bool = False):
        nodes, n = g.nodes, g.n
        level: dict[int, int] = {}
        acc_c = {nid: complex_ports or not g._acc_real[nid] for nid in g.live_order}
        val_c = {nid: complex_ports or not g._value_real[nid] for nid in g.live_order}
        groups: dict[tuple, list[int]] = {}
        for nid in g.live_order:
            node = nodes[nid]
            level[nid] = 1 + max((level[r] for r in node.preds), default=0)
            fn = node.activation
            if node.kind == "output" and node.output_mode == "log_amplitude":
                fn = _checked_exp
            elif node.kind == "product":
                fn = _multiply_halves
            groups.setdefault((level[nid], fn, acc_c[nid]), []).append(nid)

        # a group whose values in are all real reads the real table
        reads_real = {
            key: not key[2] or not (complex_ports or any(val_c[r] for nid in members for r in nodes[nid].preds))
            for key, members in groups.items()
        }
        # what a complex pre-activation reads from the real side otherwise
        mirrored = {r for key, members in groups.items() if not reads_real[key] for nid in members for r in nodes[nid].preds}

        sizes = [1 + n, 1 + n]
        row: list[dict[int, int]] = [{}, {}]
        self.steps, port_rows, nonzeros, self.scratch = [], set(), 0, 0
        # a group reads only lower levels, whose rows are placed by then
        for (depth, fn, acc_complex), members in sorted(groups.items(), key=lambda item: item[0][0]):
            acc, src, dst = int(acc_complex), int(not reads_real[depth, fn, acc_complex]), int(val_c[members[0]])

            # one CSR row per node; a product group's first factors, then its
            # second ones: the bias as the weight of the ones row, then the inputs
            arity = len(nodes[members[0]].arguments)
            indptr, indices, data = [0], [], []
            for f in range(arity):
                for nid in members:
                    bias, inputs, raw = nodes[nid].arguments[f]
                    if bias != 0:
                        indices.append(0)
                        data.append(bias)
                    indices.extend(1 + r[1] if spin else row[src][r] for (r, _), spin in zip(inputs, raw))
                    data.extend(w for _, w in inputs)
                    indptr.append(len(indices))
            indptr, indices = np.array(indptr, dtype=np.intp), np.array(indices, dtype=np.intp)
            data = np.array(data, dtype=np.complex128)
            if not acc:
                data = data.real
            nonzeros += len(indices)
            # a bits tape's level-1 group is spin tables over its rows; any
            # other group is planned, and its nodes take the plan's order (a
            # product's factor rows read one value each, so no block takes
            # them, and their order stays)
            spin_only = bits and depth == 1
            if not spin_only:
                order, blocks, sums, need = _plan(indptr, indices, data, bool(acc), bool(src))
                if arity == 1:
                    members = [members[i] for i in order]

            lo, sizes[dst] = sizes[dst], sizes[dst] + len(members)
            row[dst].update((nid, lo + j) for j, nid in enumerate(members))
            mirror = None
            if not dst and mirrored.intersection(members):
                mirror, sizes[1] = sizes[1], sizes[1] + len(members)
                row[1].update((nid, mirror + j) for j, nid in enumerate(members))
            apply = fn.apply if isinstance(fn, Activation) else fn
            if spin_only:
                # the rows read only column 0, the bias, and 1 + i, spin i
                dense = np.zeros((len(indptr) - 1, 1 + n), dtype=np.complex128)
                np.add.at(dense, (np.repeat(np.arange(len(dense)), np.diff(indptr)), indices), data)
                spins = _SpinTables(dense[:, 1:].real, dense[:, 0])
                self.steps.append(_Step(src, acc, dst, lo, len(members), 0, mirror, apply, spins))
                continue
            port_rows.update((src, int(c) - 1) for c in np.unique(indices[(indices >= 1) & (indices <= n)]))
            # pre-activations of another type than the values, and a product's factors, take scratch
            pre = len(indptr) - 1 if arity == 2 or acc != dst else 0
            self.scratch = max(self.scratch, pre * (1 + acc) + need)
            self.steps.append(_Step(src, acc, dst, lo, len(members), pre, mirror, apply, None, blocks, sums))
        out = int(val_c[g.output_id])
        self.out = (out, row[out][g.output_id])
        self.dtype = np.complex128 if out else np.float64
        # a table that no step reads or writes takes no memory
        used = {t for step in self.steps for t in (step.src, step.dst)}
        self.sizes = [size if t in used else 0 for t, size in enumerate(sizes)]
        self.width = max(1, _TABLE_BYTES // (8 * self.sizes[0] + 16 * self.sizes[1] + 8 * self.scratch))
        # work per column: the weights of every step (of its spin tables on a bits tape)
        self.heavy = nonzeros >= _HEAVY_NONZEROS
        self.n, self.bits = n, bits
        # the (table, port) rows that the steps without spin tables read
        self.port_rows = sorted(port_rows)

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Amplitudes of one sub-block: (n, w) port columns, or on a bits
        tape w configuration bits. The sub-block runs on a multiple of 8
        columns, its last column repeated: OpenBLAS gives a column the same
        bytes at every such count."""
        n, w = self.n, inputs.shape[-1]
        if w % 8:
            inputs = np.concatenate([inputs, np.repeat(inputs[..., -1:], -w % 8, axis=-1)], axis=-1)
        width = inputs.shape[-1]
        tables = [np.empty((size, width), dtype) for size, dtype in zip(self.sizes, (np.float64, np.complex128))]
        scratch = np.empty(self.scratch * width)
        for table in tables:
            table[:1] = 1.0
        if self.bits:
            pieces = _bit_pieces(inputs, n)
        for t, i in self.port_rows:
            tables[t][1 + i] = ((inputs >> i) & 1) * 2.0 - 1.0 if self.bits else inputs[i]
        # a sum or product that overflows passes silently: an activation or
        # _run_checked refuses the non-finite value it leaves
        with np.errstate(over="ignore", invalid="ignore"):
            for step in self.steps:
                rows = tables[step.dst][step.lo : step.lo + step.size]
                if step.spins is not None:
                    vals = step.spins.values(pieces, width)
                else:
                    vals = _carve(scratch, step.pre, width, (np.float64, np.complex128)[step.acc]) if step.pre else rows
                    _affine(step, tables[step.src], vals, scratch[step.pre * (1 + step.acc) * width :])
                if step.fn is _multiply_halves:
                    vals = _multiply_halves(vals, rows)
                elif step.fn is not None:
                    vals = step.fn(vals)
                if vals is not rows:
                    rows[...] = vals
                if step.mirror is not None:
                    tables[1][step.mirror : step.mirror + step.size] = vals
        t, r = self.out
        return tables[t][r, :w]


def _multiply_halves(vals: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Top half of the rows times the bottom half, into ``out``. A complex
    product is formed unfused, (ar br - ai bi) + i (ar bi + ai br), like
    the complex weights of the sums, so no CPU's fused multiply-add moves it."""
    half = len(vals) // 2
    a, b = vals[:half], vals[half:]
    if not np.iscomplexobj(vals):
        return np.multiply(a, b, out=out)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _kahn_sort(nodes: dict[int, Node], n: int) -> list[int]:
    """Topological order, smallest ready id first; checks each reference
    while it builds the successor lists."""
    indeg = dict.fromkeys(nodes, 0)
    succ: dict[int, list[int]] = {nid: [] for nid in nodes}
    for node in nodes.values():
        for (ref, _), raw in zip(node.inputs, node.raw):
            if raw:
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
        nid = next(r for r in nodes[nid].preds if r in remaining)
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

    def eval_bits(self, bits: np.ndarray | range, threads: int = 1) -> np.ndarray:
        """Amplitudes G(t(s)) for configuration bits, as ``ComputationGraph.eval_bits``."""
        tape, _ = self.residual._tape(False), self._spin_tables  # both before any pool thread starts
        return _eval_bits_chunked(
            lambda piece: self.residual.eval_ports(self.feature_values(piece)),
            bits, tape.dtype, threads if tape.heavy else 1,
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

    def direct_part(bias: complex, inputs, raw) -> tuple[np.ndarray, complex]:
        """w and c, with the shared ``zero`` for a w without spins: sums that
        start at +0 never give -0, so adding a zero part leaves w as it is."""
        w, c = np.zeros(g.n), bias
        for (ref, wt), spin in zip(inputs, raw):
            if spin:
                w[ref[1]] += wt.real
            else:
                w_src, c_src = direct[ref]
                if w_src is not zero:
                    w += wt.real * w_src
                c += wt * c_src
        return (w if w.any() else zero), c

    candidates = []  # (w, c.real) of atom arguments in live order, then the output
    for nid in g.live_order:
        node = g.nodes[nid]
        if node.kind in ("nonlinear", "product"):
            for argument in node.arguments:
                w, c = direct_part(*argument)
                candidates.append((w, c.real))
            direct[nid] = (zero, 0j)
            reads_phi[nid] = True
        else:
            direct[nid] = direct_part(node.bias, node.inputs, node.raw)
            reads_phi[nid] = any(reads_phi[ref] for ref in node.preds)
    out_c = direct[g.output_id][1]
    candidates.append((direct[g.output_id][0], out_c.real))

    # constants fold into the residual graph rather than becoming features
    is_const = [np.abs(w).sum() <= _CONST_TOL * max(1.0, abs(b) + np.abs(w).sum()) for w, b in candidates]

    rows = [np.concatenate([w, [b]]) for w, b in candidates]
    # a row equal to an earlier one lies in the span that one met or joined,
    # so only its first copy is tested and solved (a transformer repeats
    # about two in three of its rows)
    first: dict[bytes, int] = {}
    slot: dict[int, int] = {}  # candidate index -> feature index
    basis: list[np.ndarray] = []
    for j, row in enumerate(rows):
        if is_const[j] or first.setdefault(row.tobytes(), j) != j:
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
        elif (i := first[row.tobytes()]) != j and i not in slot:
            betas[j], gammas[j] = betas[i], gammas[i]
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

    def inner(inputs, raw) -> tuple:
        return tuple((ref, wt) for (ref, wt), spin in zip(inputs, raw) if not spin and reads_phi[ref])

    def rewritten(nid: int, kind: str, inputs, raw, activation=None, output_mode=None) -> Node:
        """Node ``nid`` over candidate j's ports and bias plus the inner edges."""
        nonlocal j
        ports = tuple((("s", m), beta) for m, beta in enumerate(betas[j]) if beta != 0.0)
        bias = gammas[j] if kind == "output" else gammas[j].real
        j += 1
        return Node(nid, kind, ports + inner(inputs, raw), bias, activation, output_mode)

    for nid in g.live_order:
        node = g.nodes[nid]
        if node.kind in ("input", "linear"):
            if reads_phi[nid]:
                residual_nodes.append(Node(nid, "linear", inner(node.inputs, node.raw)))
        elif node.kind == "product":
            factors = []
            for _, inputs, raw in node.arguments:
                factor = rewritten(next_id, "linear", inputs, raw)
                if factor.bias == 0 and len(factor.inputs) == 1 and factor.preds:
                    factors.append(factor.inputs[0])
                else:
                    residual_nodes.append(factor)
                    factors.append((next_id, 1.0))
                    next_id += 1
            residual_nodes.append(Node(nid, "product", tuple(factors)))
        else:
            residual_nodes.append(rewritten(nid, node.kind, node.inputs, node.raw, node.activation, node.output_mode))
    residual = ComputationGraph(residual_nodes, n=mu)
    return ReducedForm(features=features, residual=residual, n=g.n, k=g.k)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _num_to_json(x: complex):
    x = complex(x)
    return x.real if x.imag == 0.0 else [x.real, x.imag]


def _int_from_json(v) -> int:
    if not _is_integer(v):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _num_from_json(v) -> complex:
    """A finite real number or an [re, im] pair of them; never a bool or a string."""
    re, im = v if isinstance(v, (list, tuple)) else (v, 0.0)
    for x in (re, im):
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise TypeError(f"{x!r} is not a number")
        if not math.isfinite(x):
            raise ValueError(f"{x!r} is not finite")
    return complex(re, im)


def _ref_to_json(ref):
    return f"s_{ref[1] + 1}" if _is_raw(ref) else ref


def _ref_from_json(v):
    """A node id, or a raw spin as ``to_json`` writes it: ``s_`` and a decimal of at least 1."""
    if isinstance(v, str):
        if not re.fullmatch(r"s_[1-9][0-9]*", v):
            raise ValueError(f"bad raw spin reference {v!r}")
        return ("s", int(v[2:]) - 1)
    return _int_from_json(v)


def _unknown_keys(entry: dict, known: tuple, prefix: str = "") -> list:
    return [prefix + key for key in sorted(set(entry) - set(known))]


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
    """The graph of a ``to_json`` document. A field that does not parse, a
    key ``to_json`` does not write, or a ``schema_version`` other than the
    integer 1 (the key may be absent) raises ``ContractError`` naming the
    node and the field; ``Node`` and ``ComputationGraph`` then apply their
    own rules, with their own messages, to the fields as read."""
    node, key, fields = "document", "n", []
    try:
        n = _int_from_json(doc["n"])
        if n < 1:
            raise ValueError(f"{n} is not at least 1")
        key = "nodes"
        entries = doc["nodes"]
        # each loop over unknown keys names the first one as the field
        for key in _unknown_keys(doc, ("schema_version", "n", "nodes")):
            raise ValueError("unknown key")
        key = "schema_version"
        if _int_from_json(doc.get(key, 1)) != 1:
            raise ValueError("only version 1 is read")
        for position, entry in enumerate(entries):
            node, key = f"node at position {position}", "id"
            nid = _int_from_json(entry["id"])
            node = f"node {nid}"
            for key in _unknown_keys(entry, ("id", "kind", "inputs", "bias", "activation", "output_mode")):
                raise ValueError("unknown key")
            key = "kind"
            kind, inputs = entry["kind"], []
            for j, e in enumerate(entry.get("inputs", [])):
                key = f"inputs[{j}].from"
                ref = _ref_from_json(e["from"])
                key = f"inputs[{j}].weight"
                inputs.append((ref, _num_from_json(e["weight"])))
                for key in _unknown_keys(e, ("from", "weight"), f"inputs[{j}]."):
                    raise ValueError("unknown key")
            key = "bias"
            bias = _num_from_json(entry.get("bias", 0.0))
            key = "activation"
            activation = parse_activation(entry["activation"]) if "activation" in entry else None
            output_mode = entry.get("output_mode", "amplitude" if kind == "output" else None)
            fields.append((nid, kind, tuple(inputs), bias, activation, output_mode))
    except (ContractError, KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ContractError(f"malformed graph JSON: {node}, field {key!r}: {type(exc).__name__}: {exc}") from None
    return ComputationGraph([Node(*f) for f in fields], n)


def save_graph(g: ComputationGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json(g), fh, indent=1)
        fh.write("\n")


def load_graph(path) -> ComputationGraph:
    with open(path) as fh:
        return from_json(json.load(fh))
