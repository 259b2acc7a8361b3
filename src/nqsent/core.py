"""The spin cap and the foundational types: subregions, affine features and
seeded random streams.

Spins are +/-1 valued. A configuration is an integer ``bits`` that encodes
spin ``i`` (0-indexed) in bit ``i``: set bit means +1, clear bit means -1.
All enumeration is in ascending ``bits`` order, so array indices of a
statevector coincide with configuration bits.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ContractError

DEFAULT_SPIN_CAP = 24
HARD_SPIN_CAP = 26

_MASK64 = (1 << 64) - 1


def check_n(n: int) -> None:
    """Refuse n outside 1..cap. The cap is NQS_MAX_N, else 24; its hard
    ceiling of 26 cannot be raised (1 GiB of amplitudes). An NQS_MAX_N
    outside 1..26, or one that is not an integer, is a CapacityError.
    """
    env = os.environ.get("NQS_MAX_N") or str(DEFAULT_SPIN_CAP)
    try:
        cap = int(env)
    except ValueError:
        raise CapacityError(f"NQS_MAX_N={env!r} is not an integer") from None
    if not 1 <= cap <= HARD_SPIN_CAP:
        raise CapacityError(f"NQS_MAX_N={cap} is outside 1..{HARD_SPIN_CAP}")
    if not 1 <= n <= cap:
        raise CapacityError(f"n={n} outside supported range 1..{cap}")


def _is_integer(v) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def spin_matrix(bits: np.ndarray, n: int) -> np.ndarray:
    """(len(bits), n) float64 matrix of spin values for an array of configs.

    No evaluator builds it: graphs and reduced forms read spins through
    per-tape tables (``graph._SpinTables``). It stays as the tests'
    independent reference, and perfbench's tracer still wraps it by name.
    """
    # bit i of each config as one byte, so the float matrix is the only
    # temporary as large as the result
    octets = np.asarray(bits, dtype=np.int64).astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little") * 2.0 - 1.0


@dataclass(frozen=True)
class Subregion:
    """Subset A of the n spins, stored as a bit mask."""

    mask: int
    n: int

    def __post_init__(self):
        if not (_is_integer(self.mask) and _is_integer(self.n)):
            raise ContractError(f"subregion mask {self.mask!r} and n {self.n!r} are not both integers")
        # numpy integers would carry into masks derived from this one
        object.__setattr__(self, "mask", int(self.mask))
        object.__setattr__(self, "n", int(self.n))
        if self.n < 0 or not 0 <= self.mask < (1 << self.n):
            raise ContractError(f"mask={self.mask:#x} out of range for n={self.n}")

    @classmethod
    def from_members(cls, members, n: int) -> "Subregion":
        mask = 0
        for i in members:
            if not _is_integer(i):
                raise ContractError(f"spin index {i!r} is not an integer")
            if not 0 <= i < n:
                raise ContractError(f"spin index {i} out of range for n={n}")
            mask |= 1 << int(i)
        return cls(mask, n)

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    def members(self) -> list[int]:
        """Member spin indices in ascending order."""
        return [i for i in range(self.n) if (self.mask >> i) & 1]

    def complement(self) -> "Subregion":
        return Subregion(~self.mask & ((1 << self.n) - 1), self.n)


@dataclass(frozen=True)
class AffineFeature:
    """Scalar map s -> sum_i w_i s_i + b on +/-1 spin configurations."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))


def affine_tables(weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(rows, 2^m) values of the rows b_r + sum_i w_ri s_i over all 2^m
    configurations of m spins, in ascending bits order.

    Uses index doubling: flipping spin i from -1 to +1 adds 2 w_i, so each
    table is built in O(2^m) additions independent of m per entry.
    """
    weights = np.asarray(weights, dtype=np.float64)
    rows, m = weights.shape
    out = np.empty((rows, 1 << m))
    out[:, 0] = bias - weights.sum(axis=1)
    size = 1
    for i in range(m):
        np.add(out[:, :size], 2.0 * weights[:, i : i + 1], out=out[:, size : 2 * size])
        size *= 2
    return out


def feature_supnorm(f: AffineFeature) -> float:
    """Tight sup of |f| over the hypercube: sum_i |w_i| + |b|."""
    return float(np.abs(f.weights).sum() + abs(f.bias))


def _splitmix64(h: int) -> int:
    h = (h + 0x9E3779B97F4A7C15) & _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Identical keys reproduce identical draw sequences regardless of thread
    scheduling; substreams derived via :meth:`child` are statistically
    independent. The seed, the stream id and every child index are Python
    or numpy integers; anything else, a bool or a float included, is a
    ContractError rather than a key silently truncated to an integer.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (_is_integer(self.seed) and _is_integer(self.stream_id)):
            raise ContractError(f"stream seed {self.seed!r} and id {self.stream_id!r} are not both integers")
        # numpy integers would overflow in the 64-bit mixing and key arithmetic
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "stream_id", int(self.stream_id))

    def child(self, *indices: int) -> "RngStream":
        h = self.stream_id
        for ix in indices:
            if not _is_integer(ix):
                raise ContractError(f"child index {ix!r} is not an integer")
            h = _splitmix64(h ^ (int(ix) & _MASK64))
        return RngStream(self.seed, h)

    def generator(self) -> np.random.Generator:
        key = [self.seed & _MASK64, self.stream_id & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))
