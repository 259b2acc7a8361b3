"""Exact dense statevectors over all 2^n configurations.

Amplitudes are indexed by configuration bits and stored as float64 when
the state is real by construction (a graph whose output value is real, its
reduced form, a fit with real coefficients) and as complex128 otherwise; a
real state holds the bytes of the real part of its complex form. An
evaluator is anything with ``n`` and ``eval_bits(bits, threads=)``;
``materialize`` hands it ``range(2^n)`` once, so each state is one run of
the chunk driver (``graph._eval_bits_chunked``). The evaluator declares
the dtype before the run, from the object that computes the values: a
graph's bits tape, a reduced form's real-port residual tape, a fit's
coefficients. The run evaluates index ranges of ``graph.DEFAULT_CHUNK`` =
2^14 configurations straight into the amplitude array: on up to
``--threads`` threads from two chunks on when the evaluating tape is heavy
(the transformer at n=16 and its reduced form, a cosnet with k >= 128),
else on the calling thread. Only each
chunk's bits become an array; a graph's first layer and a reduced form's
features come from per-tape spin tables over the low and the high bits,
which give every configuration the same value in any range, so no spin
matrix is built. The norm is then reduced over
``NORM_CHUNK`` = 2^16-amplitude blocks in block order. Neither size
depends on the thread count, so every floating-point result, and
therefore the output, is byte-identical across --threads settings. The
``.nqsv`` dump is complex on disk for either kind, and a dump of a
normalized state loads back with its amplitudes as written; a dump whose
imaginary parts are all +0.0, as a real state's are, loads back float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import check_n
from .errors import ContractError, DegenerateStateError, NumericError
from .graph import ComputationGraph, ReducedForm

# the norm is reduced over blocks of this many amplitudes, in order
NORM_CHUNK = 1 << 16

NQSV_MAGIC = b"NQSV"
NQSV_VERSION = 1


@dataclass
class Statevector:
    """Normalized amplitudes plus the pre-normalization 2-norm."""

    amplitudes: np.ndarray
    n: int
    norm_was: float

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=_dtype(self.amplitudes))
        if self.amplitudes.shape != (1 << self.n,):
            raise ContractError(
                f"amplitude array has shape {self.amplitudes.shape}, expected ({1 << self.n},)"
            )


def _dtype(values) -> type:
    """complex128 for complex values, float64 for real ones."""
    return np.complex128 if np.iscomplexobj(values) else np.float64


def _normalized(amplitudes: np.ndarray, n: int) -> Statevector:
    """Divide a float64 or complex128 amplitude array by its 2-norm in
    place; a NaN or infinite amplitude raises ``NumericError`` naming its
    index.

    numpy divides a complex value by a real s as (re + 0) * (1/s) for the
    real part, so a real array is scaled that way too: its result and its
    norm are the bytes of the real part of its complex form (-0 + 0 is +0).
    """
    norm = _norm(amplitudes)
    if np.iscomplexobj(amplitudes):
        amplitudes /= norm
    else:
        amplitudes += 0.0
        amplitudes *= 1.0 / norm
    return Statevector(amplitudes, n, norm)


def _norm(amplitudes: np.ndarray) -> float:
    """The 2-norm, reduced over ``NORM_CHUNK`` blocks in block order; a NaN
    or infinite amplitude raises ``NumericError``, a zero or non-finite
    norm ``DegenerateStateError``."""
    real = not np.iscomplexobj(amplitudes)
    chunks = [amplitudes[start : start + NORM_CHUNK] for start in range(0, amplitudes.shape[0], NORM_CHUNK)]
    # individual amplitudes can sit near the float ceiling (or floor), so the
    # squared norm is accumulated in units of the largest magnitude
    maxima = [float(np.abs(piece).max()) for piece in chunks]
    for j, piece in enumerate(chunks):
        # a NaN or inf maximum; |z| of finite z may also overflow to inf
        if not np.isfinite(maxima[j]) and not np.isfinite(piece).all():
            bad = j * NORM_CHUNK + int(np.argmin(np.isfinite(piece)))
            raise NumericError(f"amplitude {bad} is {amplitudes[bad]}; a state needs finite amplitudes")
    scale = max(maxima)
    if scale == 0.0:
        raise DegenerateStateError("all amplitudes vanish; state cannot be normalized")
    norm_sq_scaled = 0.0
    buf = np.empty(chunks[0].shape[0], dtype=amplitudes.dtype)  # each block is scaled and squared here
    for piece in chunks:  # sequential, chunk-ordered reduction
        scaled = buf[: piece.shape[0]]
        if real:
            np.multiply(piece, 1.0 / scale, out=scaled)
            norm_sq_scaled += float(np.sum(np.square(scaled, out=scaled)))
        else:
            np.divide(piece, scale, out=scaled)
            re, im = scaled.real, scaled.imag
            np.square(re, out=re)
            np.square(im, out=im)
            norm_sq_scaled += float(np.sum(re + im))  # summed contiguous: a strided sum may add in another order
    norm = scale * float(np.sqrt(norm_sq_scaled))
    if not np.isfinite(norm):
        raise DegenerateStateError(f"state norm {norm} cannot normalize the amplitudes")
    return norm


def from_amplitudes(raw: np.ndarray) -> Statevector:
    """Normalize a copy of a raw amplitude array of length 2^n into a
    Statevector; real input stays real (float64)."""
    raw = np.array(raw, dtype=_dtype(raw))
    if raw.ndim != 1 or raw.size == 0:
        raise ContractError(f"amplitudes of shape {raw.shape}: need a nonempty 1-D array")
    n = raw.size.bit_length() - 1
    if raw.size != 1 << n:
        raise ContractError(f"length {raw.size} is not a power of two")
    check_n(n)
    return _normalized(raw, n)


def materialize(obj: ComputationGraph | ReducedForm, threads: int = 1) -> Statevector:
    """Evaluate every amplitude of a graph or reduced form and normalize.

    Only ``obj.n`` and ``obj.eval_bits(bits, threads=)`` are used:
    ``eval_bits`` gets ``range(2^n)`` in one call, which is one chunk run,
    and the state takes the dtype the evaluator declares: float64 for a
    real one.
    """
    check_n(obj.n)
    return _normalized(obj.eval_bits(range(1 << obj.n), threads=threads), obj.n)


def two_norm_distance(psi: Statevector, phi: Statevector) -> float:
    if psi.n != phi.n:
        raise ContractError(f"dimension mismatch: n={psi.n} vs n={phi.n}")
    return float(np.linalg.norm(psi.amplitudes - phi.amplitudes))


def save_nqsv(psi: Statevector, path) -> None:
    """16-byte header (magic, u32 version, u32 n, u32 reserved) then little-endian
    interleaved re/im float64 pairs in ascending bits order; a real state is
    written with +0.0 imaginary parts. Amplitudes whose norm ``load_nqsv``
    would refuse (a NaN or infinite amplitude, or all zeros) raise before the
    path is opened."""
    _norm(psi.amplitudes)
    header = NQSV_MAGIC + struct.pack("<III", NQSV_VERSION, psi.n, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        # in NORM_CHUNK pieces: no whole-state copy is made for the file
        for start in range(0, 1 << psi.n, NORM_CHUNK):
            psi.amplitudes[start : start + NORM_CHUNK].astype("<c16").tofile(fh)


def load_nqsv(path) -> Statevector:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != NQSV_MAGIC:
            raise ContractError(f"{path}: not a statevector dump")
        version, n, _ = struct.unpack("<III", header[4:])
        if version != NQSV_VERSION:
            raise ContractError(f"{path}: unsupported dump version {version}")
        check_n(n)  # before reading a body the cap would refuse
        amplitudes = np.fromfile(fh, "<c16", count=1 << n).astype(np.complex128, copy=False)
        if amplitudes.shape[0] != 1 << n or fh.read(1):
            raise ContractError(f"{path}: the header's n={n} needs exactly {16 << n} bytes of amplitudes")
    norm = _norm(amplitudes)
    # a dump of a normalized state loads as written: dividing it by a norm
    # that is 1 to within the rounding of the norm's own sum would only move
    # its last bits
    if abs(norm - 1.0) > n * np.finfo(np.float64).eps:
        amplitudes /= norm
    # bits, not a tolerance: only a dump whose imaginary parts are all +0.0,
    # as a real state's are, loads back as the real state it was
    im = amplitudes.imag
    if not im.any() and not np.signbit(im).any():
        amplitudes = np.ascontiguousarray(amplitudes.real)
    return Statevector(amplitudes, n, norm)
