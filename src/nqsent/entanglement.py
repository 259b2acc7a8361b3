"""Reduced density matrices, von Neumann entropy, Schmidt rank and trace
distances.

Entropies are computed and stored in nats; base 2 is a presentation
conversion. Eigenvalues come from the smaller side of the bipartition matrix
M, never from a full SVD of the 2^|A| x 2^(n-|A|) matrix. The entropy bound
says Schmidt ranks are small, so the spectrum routine first tries a
randomized range finder with one power step (Halko, Martinsson and Tropp,
SIAM Review 53 (2011), Alg. 4.3 and the a-posteriori check of its section
4.3): an orthonormal Q with the tail ||M - Q Q^dag M||_F^2 computed exactly
and accepted only up to RANK_THRESHOLD_ABS, after which the spectrum is that
of the small Gram of Q^dag M. When no sketch within the width cap captures
the state, it falls back to the dense O(4^min(|A|, n-|A|)) Gram and its full
eigensolve.

The routine reads M in column blocks, one pass over M per step, and never
holds M whole: each pass is a generator of (cut, M[:, cut]) pairs from a
reader (``_ColumnReader``) that owns their bounds and scratch. A state's
cut (:func:`subregion_entropy`, ``approx``'s bound chain) is read by
``_state_reader``, whose pass gathers each block into one scratch array of
about _BLOCK elements (at least _BLOCK_COLS columns), so an entropy holds
the state plus one block, the sketch's Z and Y and, on the dense path, the
Gram. :func:`entropy` and the bound chain's R are read as views.

Every step follows the dtype of the state: a real (float64) state gives a
real M, a real sketch, a real symmetric Gram and a real eigensolve, which
move half the bytes and do about a quarter of the products of the complex
path that complex128 states take (``conj()`` of a real array is the array
itself, not a copy).

Every spectrum runs with its thread on one BLAS thread (``_one_blas_thread``
over numpy's bundled OpenBLAS), so its bytes depend neither on
``OPENBLAS_NUM_THREADS`` nor on how many spectra run at once: a sweep
spreads one state's regions over its ``threads`` workers
(``experiments.run_sweep``), each spectrum on its own thread.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import RngStream, Subregion
from .errors import ContractError, ConsistencyError, DomainError, NumericError
from .statevector import Statevector

RANK_THRESHOLD_REL = 1e-10
RANK_THRESHOLD_ABS = 1e-14
_EIG_CLAMP = -1e-12
_DRIFT_ERROR = 1e-8
_SKETCH_START = 16
_BLOCK = 1 << 17  # elements of the block every pass reads M through
_BLOCK_COLS = 128  # fewest columns of a block
_pin_lock = threading.Lock()
_pins = []  # the count each body inside ``_one_blas_thread`` replaced, the first one's first


@functools.cache
def _openblas() -> tuple[Callable[[int], int] | None, str | None]:
    """``openblas_set_num_threads_local`` of the OpenBLAS bundled with numpy
    (in ``numpy.libs``, or ``numpy/.dylibs`` on macOS) and the library's
    configuration string, which names its CPU kernel; None for what is not
    there, as under a system BLAS. Looked up on first use, not on import."""
    here = os.path.dirname(np.__file__)
    found = [glob.glob(os.path.join(here, *where, "*openblas*")) for where in ((os.pardir, "numpy.libs"), (".dylibs",))]
    for path in sorted(found[0]) + sorted(found[1]):
        try:
            lib = ctypes.CDLL(path)
            set_local = lib.openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_local.argtypes, set_local.restype = [ctypes.c_int], ctypes.c_int
        config = None
        for name in ("scipy_openblas_get_config64_", "openblas_get_config"):
            if hasattr(lib, name):
                get_config = getattr(lib, name)
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                config = get_config().decode(errors="replace")
                break
        return set_local, config
    return None, None


def _blas_record() -> dict:
    """The BLAS the spectra run on: numpy's name for it (None where numpy
    does not report one), the library's configuration string (version and
    CPU kernel; None unless it is numpy's bundled OpenBLAS) and whether
    each spectrum is pinned to one BLAS thread."""
    try:
        vendor = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        vendor = None
    set_threads, config = _openblas()
    return {"vendor": vendor, "config": config, "pinned": set_threads is not None}


@contextmanager
def _one_blas_thread():
    """Run the body on one BLAS thread, and yield whether it does; without
    numpy's bundled OpenBLAS nothing is pinned. Every spectrum and bound
    report runs inside, so their bytes depend neither on
    ``OPENBLAS_NUM_THREADS`` nor on how many run at once. numpy's (pthreads)
    OpenBLAS keeps one count for the whole process, so the pin is counted
    under a lock: every entry sets 1, the first keeps the count it replaced,
    and the last exit, error included, restores it. Bodies may overlap on
    any threads; meanwhile every BLAS call of the process runs on one thread.
    """
    set_threads = _openblas()[0]
    if set_threads is None:
        yield False
        return
    with _pin_lock:
        _pins.append(set_threads(1))
    try:
        yield True
    finally:
        with _pin_lock:
            previous = _pins.pop()  # 1 unless this is the last exit
            if not _pins:
                set_threads(previous)


@dataclass
class BipartitionMatrix:
    """Amplitudes rearranged as M[u, v] with u indexing subregion bits.

    Row index bit j corresponds to the j-th smallest member of A; column
    bits run over the complement the same way. The rearrangement is a
    permutation, so the Frobenius norm equals the state norm.
    ``bipartition`` builds M as a copy of the state, which no library path
    makes: the entropies and the bound chain read the same matrix block by
    block from the amplitudes (``_state_reader``). The class, ``bipartition``
    and ``entropy`` remain the explicit-matrix API.
    """

    M: np.ndarray
    region: Subregion


def _axes(region: Subregion) -> list[int]:
    """Axis order of the (2,)*n amplitude tensor that puts A's spins in the
    rows and the complement's in the columns, each side largest member first
    so that its smallest member lands on index bit 0. Spin i is bit i of the
    configuration, which is axis n-1-i."""
    n = region.n
    return [n - 1 - i for i in reversed(region.members())] + [
        n - 1 - i for i in reversed(region.complement().members())
    ]


def _check_cut(n: int, region: Subregion) -> None:
    if region.n != n:
        raise ContractError(f"region has n={region.n}, state has n={n}")
    if not 0 < region.size < n:
        raise ContractError("subregion must be a proper nonempty subset")


def bipartition(psi: Statevector, region: Subregion) -> BipartitionMatrix:
    """Permute the amplitudes into a 2^|A| x 2^(n-|A|) matrix, a copy of
    the state that the library itself never makes. It stays because
    perfbench's tracer patches it by name (ROADMAP items 10, 11 and 17)."""
    _check_cut(psi.n, region)
    m = region.size
    tensor = psi.amplitudes.reshape((2,) * psi.n).transpose(_axes(region))
    # a C-ordered copy, never a view of the state, even for the identity order
    return BipartitionMatrix(np.array(tensor, order="C").reshape(1 << m, -1), region)


@dataclass
class EntropyResult:
    eigenvalues: np.ndarray  # descending, nonnegative, summing to 1
    entropy: float
    schmidt_rank: int
    tail: float = 0.0  # ||M - Q Q^dag M||_F^2 of an accepted sketch, 0.0 for the dense Gram


def entropy(bm: BipartitionMatrix) -> EntropyResult:
    """Spectrum, entropy (nats) and numerical Schmidt rank of the bipartition.

    bm.M is read as views (``_view_reader``); a shape other than
    (2^|A|, 2^(n-|A|)) for a proper region is a ContractError. It stays
    because perfbench's tracer patches it by name (ROADMAP items 10, 11, 17).
    """
    m, n = bm.region.size, bm.region.n
    if not 0 < m < n or bm.M.shape != (1 << m, 1 << (n - m)):
        raise ContractError(f"a {bm.M.shape} matrix is no bipartition matrix of |A|={m} of n={n} spins")
    return _spectrum_of(_view_reader(bm.M), bm.region)


def subregion_entropy(psi: Statevector, region: Subregion) -> EntropyResult:
    """``entropy(bipartition(psi, region))`` without the bipartition copy:
    the spectrum of ``_state_reader``'s matrix, so the call holds the state
    and one block. The sketch's Omega stays keyed by ``region``."""
    return _spectrum_of(_state_reader(psi, region)[1], region)


def _state_reader(psi: Statevector, region: Subregion) -> tuple[Subregion, _ColumnReader]:
    """The smaller side of the cut (A when 2|A| <= n, else the complement)
    and a reader of its bipartition matrix, rows and columns in
    ``bipartition``'s bit order of each side. A block's columns are the
    configurations of the larger side's lowest spins, with its higher spins
    fixed. Each pass gathers into a scratch array of its own, which dies
    with the pass, so that the sketch's QR and the eigensolve run without it.
    """
    _check_cut(psi.n, region)
    n, amps = psi.n, psi.amplitudes
    side = region if 2 * region.size <= n else region.complement()
    rows, cols = 1 << side.size, 1 << (n - side.size)
    width = _block_width(rows, cols)
    # each np.take gathers an eighth of a block's rows through one index of
    # the offsets of the side's lowest spins plus the block's columns; the
    # other spins fix where in the amplitudes that index starts. Every index
    # is in range, and "wrap" spares the copy that "raise" makes of out.
    step = max(1, rows // 8)
    row_spins, col_spins = side.members(), side.complement().members()
    low_rows, low_cols = step.bit_length() - 1, width.bit_length() - 1
    index = _offsets(row_spins[:low_rows])[:, None] + _offsets(col_spins[:low_cols])
    row_starts, col_starts = _offsets(row_spins[low_rows:]), _offsets(col_spins[low_cols:])

    def blocks() -> Iterator[tuple[slice, np.ndarray]]:
        out = np.empty((rows, width), dtype=amps.dtype)
        for j, col_start in enumerate(col_starts):
            for k, row_start in enumerate(row_starts):
                np.take(amps[row_start + col_start :], index, out=out[k * step : (k + 1) * step], mode="wrap")
            yield slice(j * width, (j + 1) * width), out

    return side, _ColumnReader(rows, cols, amps.dtype, blocks)


def _view_reader(M: np.ndarray) -> _ColumnReader:
    """A reader of M's views on its smaller side, M^T when M has more rows
    than columns (M^T conj(M) has the spectrum of M^dag M)."""
    M = M if M.shape[0] <= M.shape[1] else M.T
    width, cols = _block_width(*M.shape), M.shape[1]
    cuts = [slice(start, min(start + width, cols)) for start in range(0, cols, width)]
    return _ColumnReader(*M.shape, M.dtype, lambda: ((cut, M[:, cut]) for cut in cuts))


def _offsets(spins: list[int]) -> np.ndarray:
    """Amplitude offsets of every configuration of ``spins``, whose index
    bit j is spin ``spins[j]``."""
    out = np.zeros(1, dtype=np.intp)
    for spin in spins:
        out = np.concatenate([out, out + (1 << spin)])
    return out


def _block_width(rows: int, cols: int) -> int:
    """Columns per block: _BLOCK elements, but at least _BLOCK_COLS so that
    the sketch's products over a block stay wide, and at most cols."""
    return min(cols, max(_BLOCK_COLS, _BLOCK // rows))


@dataclass
class _ColumnReader:
    """A rows x cols matrix M read in column blocks of ``_block_width``.

    Each call of ``blocks()`` is one pass over M, a generator of
    (cut, M[:, cut]) pairs in a fixed order, with bounds that depend only on
    the shape. A block is valid until the generator moves on, and its
    consumer keeps none past the pass; any scratch is the generator's own
    and dies with the pass, finished or abandoned.
    """

    rows: int
    cols: int
    dtype: np.dtype
    blocks: Callable[[], Iterator[tuple[slice, np.ndarray]]]


def _spectrum_of(m: _ColumnReader, region: Subregion) -> EntropyResult:
    """The EntropyResult of the matrix M that ``m`` reads, one ``m.blocks()`` per pass.

    A sketch Q of M's range is tried first; when its tail delta =
    ||M - Q Q^dag M||_F^2 is at most RANK_THRESHOLD_ABS, the spectrum is
    that of B = Q^dag M padded with zeros to the row count. Since
    Q^dag (M - Q B) = 0, M^dag M = B^dag B + E^dag E with E = M - Q B, so by
    Weyl each eigenvalue lies within delta of the exact one. Otherwise the
    dense Gram M M^dag is diagonalized. ``tail`` reports delta, and 0.0 on
    the dense path. Both paths read the blocks in a fixed order and the
    sketch draws from a stream keyed by the region alone, so results do not
    depend on the thread count of upstream evaluation. A NaN or infinite
    entry of M raises NumericError on either path: from an eigensolver that
    fails on it, or from the spectrum's non-finite eigenvalues. Every
    product and eigensolve runs on one BLAS thread (``_one_blas_thread``).
    """
    try:
        # a complex inf entry makes the products meet inf - inf; the
        # eigensolver or the spectrum then refuses what they give
        with _one_blas_thread():
            with np.errstate(invalid="ignore", over="ignore"):
                sketch = _sketched_gram(m, region)
                gram, tail = sketch if sketch is not None else (_dense_gram(m), 0.0)
            lam = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    return _spectrum(lam, m.rows, tail)


def _spectrum(lam: np.ndarray, rows: int, tail: float) -> EntropyResult:
    """The EntropyResult of eigenvalues of a unit-trace reduced density
    matrix with ``rows`` rows, of which ``lam`` are the computed ones.

    The rest are zeros. A NaN or infinite eigenvalue raises NumericError,
    as do values below the clamp window; the others are clipped at 0. A sum
    off 1 by more than _DRIFT_ERROR raises ConsistencyError, and the
    spectrum is renormalized exactly when its sum is not 1. The rank counts
    eigenvalues above RANK_THRESHOLD_REL of the largest and above
    RANK_THRESHOLD_ABS.
    """
    lam = np.sort(np.concatenate([lam, np.zeros(rows - lam.size)]))[::-1]
    if not np.isfinite(lam).all():
        raise NumericError("Gram eigenvalues are not all finite; the state has a NaN or infinite amplitude")
    if lam[-1] < _EIG_CLAMP:
        raise NumericError(f"Gram eigenvalue {lam[-1]:.3e} below clamp window")
    lam = np.clip(lam, 0.0, None)
    drift = abs(float(lam.sum()) - 1.0)
    if drift > _DRIFT_ERROR:
        raise ConsistencyError(f"eigenvalue sum drifts from 1 by {drift:.3e}")
    if lam.sum() != 1.0:
        lam = lam / lam.sum()
    nz = lam[lam > 0.0]
    ent = float(-(nz * np.log(nz)).sum())
    cut = max(RANK_THRESHOLD_REL * float(lam[0]), RANK_THRESHOLD_ABS)
    rank = int((lam > cut).sum())
    return EntropyResult(eigenvalues=lam, entropy=ent, schmidt_rank=rank, tail=tail)


def _sketched_gram(m: _ColumnReader, region: Subregion) -> tuple[np.ndarray, float] | None:
    """Gram of B = Q^dag M and the tail ||M - Q B||_F^2 for an orthonormal
    Q = orth(M M^dag Omega), or None when no sketch within the width cap
    leaves a tail of at most RANK_THRESHOLD_ABS.

    Omega starts at _SKETCH_START columns and doubles; new columns are
    appended rather than redrawn. Each width takes one pass over M's blocks
    that computes the new rows of Z = Omega^dag M and the new columns of
    Y = M Z^dag, kept as one piece per width: no width copies the earlier
    ones. Z Z^dag = Omega^dag M M^dag Omega is the Gram compressed to the
    sketch, grown by the new rows' products with every piece, and its
    eigenvalues follow M's. While the smallest is above RANK_THRESHOLD_ABS
    of the largest, M has more eigenvalues above the tail threshold than the
    sketch has columns, so the sketch grows. Otherwise Q = orth(Y), with Y
    stacked once, and one more pass sums B B^dag and the exact tail
    (``_projected_gram``).

    The width stays at most rows/8 and rows^2/cols, so Z and Y together
    cost at most half the products of the dense Gram as a general product,
    and the passes for B and the tail as much again. When the cap leaves room for fewer than two widths
    (fewer than 256 rows, or more than rows^2/32 columns), the dense path is
    taken at once.
    """
    rows, cols, dtype = m.rows, m.cols, m.dtype
    cap = min(rows // 8, rows * rows // cols)
    if cap < 2 * _SKETCH_START:
        return None
    gen = RngStream(region.n, region.mask).generator()
    zs, ys = [], []  # Z by rows and Y by columns, one piece per width
    zz = np.zeros((0, 0), dtype=dtype)  # Z Z^dag, its lower triangle
    width, done = _SKETCH_START, 0
    while width <= cap:
        _sketch_pass(m, gen.standard_normal((width - done, rows)).astype(dtype, copy=False), zs, ys)
        grown = np.zeros((width, width), dtype=dtype)
        grown[:done, :done] = zz
        grown[done:] = np.hstack([zs[-1] @ piece.conj().T for piece in zs])
        zz, done = grown, width
        ev = np.linalg.eigvalsh(zz)  # reads the lower triangle only
        if ev[0] <= RANK_THRESHOLD_ABS * ev[-1]:
            ys = [np.hstack(ys)]
            gram, tail = _projected_gram(m, ys[0])
            if tail <= RANK_THRESHOLD_ABS:
                return gram, tail
        width *= 2
    return None


def _sketch_pass(m: _ColumnReader, omega: np.ndarray, zs: list, ys: list) -> None:
    """Append the new rows Omega^dag M of Z to ``zs`` and the new columns
    M (Omega^dag M)^dag of Y to ``ys``, for the sketch columns ``omega``,
    in one pass over M's blocks."""
    z = np.empty((omega.shape[0], m.cols), dtype=m.dtype)
    y = np.zeros((m.rows, omega.shape[0]), dtype=m.dtype)
    for cut, block in m.blocks():
        part = z[:, cut] = omega @ block
        y += block @ part.conj().T
    zs.append(z)
    ys.append(y)


def _projected_gram(m: _ColumnReader, y: np.ndarray) -> tuple[np.ndarray, float]:
    """B B^dag for B = Q^dag M with Q = orth(y), and the tail
    ||M - Q B||_F^2, summed over M's blocks in one pass; Q is conjugated in
    place and read as Q^dag, and the residual is formed an eighth of a
    block's rows at a time."""
    q = np.linalg.qr(y)[0]
    q_dag = np.conjugate(q, out=q).T
    gram = np.zeros((y.shape[1], y.shape[1]), dtype=m.dtype)
    tail, step = 0.0, max(1, m.rows // 8)
    for _, block in m.blocks():
        piece = q_dag @ block
        gram += piece @ piece.conj().T
        for lo in range(0, m.rows, step):
            resid = q_dag[:, lo : lo + step].conj().T @ piece
            resid -= block[lo : lo + step]
            tail += float(np.vdot(resid, resid).real)
    return gram, tail


def _dense_gram(m: _ColumnReader) -> np.ndarray:
    """The lower triangle of M M^dag, the part the eigensolver reads, summed
    over the blocks. From 256 rows on, a block's product is formed in
    panels of an eighth of its columns: rows lo.. against rows lo..lo+step.
    That skips most of the upper part's products and holds an eighth of the
    rows x rows product and of the block's conjugate at a time."""
    gram = np.zeros((m.rows, m.rows), dtype=m.dtype)
    step = m.rows // 8 if m.rows >= 256 else m.rows
    for _, block in m.blocks():
        for lo in range(0, m.rows, step):
            gram[lo:, lo : lo + step] += block[lo:] @ block[lo : lo + step].conj().T
    return gram


def binary_entropy(t: float) -> float:
    """H2(t) in nats, continuous at the endpoints."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"H2 argument {t} outside [0, 1]")
    if t in (0.0, 1.0):
        return 0.0
    return float(-t * math.log(t) - (1.0 - t) * math.log(1.0 - t))


def fannes_audenaert_bound(T: float, size_a: int) -> float:
    """Entropy-difference bound T*ln(2^|A| - 1) + H2(T), in nats.

    T is the half trace distance of the two reduced density matrices.
    """
    if not 0.0 <= T <= 1.0:
        raise DomainError(f"trace distance {T} outside [0, 1]")
    if size_a < 1:
        raise DomainError("subregion must have at least one spin")
    return T * math.log((1 << size_a) - 1) + binary_entropy(T)


def fa_slack_from_bound(trace_bound: float, size_a: int) -> float:
    """Worst-case entropy difference when only an upper bound on T is known.

    The bound T log(2^|A|-1) + H2(T) peaks at T* = 1 - 2^(-|A|) and decreases
    beyond it, so for trace_bound >= T* the supremum over feasible T is the
    peak value log(2^|A|) = |A| ln 2.
    """
    if trace_bound < 0.0:
        raise DomainError("trace bound must be nonnegative")
    t_star = 1.0 - 0.5**size_a
    if trace_bound >= t_star:
        return size_a * math.log(2.0)
    return fannes_audenaert_bound(trace_bound, size_a)
