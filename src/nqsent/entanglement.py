"""Reduced density matrices, von Neumann entropy, Schmidt rank and trace
distances.

Entropies are computed and stored in nats; base 2 is a presentation
conversion. Eigenvalues come from the smaller side of the bipartition matrix
M, never from a full SVD of the 2^|A| x 2^(n-|A|) matrix. The entropy bound
says Schmidt ranks are small, so :func:`entropy` first tries a randomized
range finder with one power step (Halko, Martinsson and Tropp, SIAM Review
53 (2011), Alg. 4.3 and the a-posteriori check of its section 4.3): an
orthonormal Q with the tail ||M - Q Q^dag M||_F^2 computed exactly and
accepted only up to RANK_THRESHOLD_ABS, after which the spectrum is that of
the small Gram of Q^dag M. When no sketch within the width cap captures the
state, it falls back to the dense O(4^min(|A|, n-|A|)) Gram and its full
eigensolve.

Every step follows the dtype of the state: a real (float64) state gives a
real M, a real sketch, a real symmetric Gram and a real eigensolve, which
move half the bytes and do about a quarter of the products of the complex
path that complex128 states take (``conj()`` of a real array is the array
itself, not a copy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, Subregion
from .errors import CapacityError, ContractError, ConsistencyError, DomainError, NumericError
from .statevector import Statevector

RANK_THRESHOLD_REL = 1e-10
RANK_THRESHOLD_ABS = 1e-14
_EIG_CLAMP = -1e-12
_DRIFT_RENORM = 1e-10
_DRIFT_ERROR = 1e-8
REDUCED_DM_MAX_ROWS = 1 << 13
_SKETCH_START = 16
_TAIL_BLOCK = 1 << 18  # elements of the sketch's residual temporary
_GRAM_BLOCK = 1 << 14  # columns per product of the dense Gram


@dataclass
class BipartitionMatrix:
    """Amplitudes rearranged as M[u, v] with u indexing subregion bits.

    Row index bit j corresponds to the j-th smallest member of A; column
    bits run over the complement the same way. The rearrangement is a
    permutation, so the Frobenius norm equals the state norm.
    """

    M: np.ndarray
    region: Subregion

    @property
    def n(self) -> int:
        return self.region.n


def _axes(region: Subregion) -> list[int]:
    """Axis order of the (2,)*n amplitude tensor that puts A's spins in the
    rows and the complement's in the columns, each side largest member first
    so that its smallest member lands on index bit 0. Spin i is bit i of the
    configuration, which is axis n-1-i."""
    n = region.n
    return [n - 1 - i for i in reversed(region.members())] + [
        n - 1 - i for i in reversed(region.complement().members())
    ]


def bipartition(psi: Statevector, region: Subregion) -> BipartitionMatrix:
    """Permute the amplitudes into a 2^|A| x 2^(n-|A|) matrix."""
    if region.n != psi.n:
        raise ContractError(f"region has n={region.n}, state has n={psi.n}")
    m = region.size
    if m == 0 or m == psi.n:
        raise ContractError("subregion must be a proper nonempty subset")
    tensor = psi.amplitudes.reshape((2,) * psi.n).transpose(_axes(region))
    # a C-ordered copy, never a view of the state, even for the identity order
    return BipartitionMatrix(np.array(tensor, order="C").reshape(1 << m, -1), region)


def flatten(bm: BipartitionMatrix) -> np.ndarray:
    """Inverse of :func:`bipartition`: amplitudes back in bits order."""
    tensor = bm.M.reshape((2,) * bm.n).transpose(np.argsort(_axes(bm.region)))
    return np.array(tensor, order="C").reshape(-1)


@dataclass
class EntropyResult:
    eigenvalues: np.ndarray  # descending, nonnegative, summing to 1
    entropy: float
    schmidt_rank: int
    tail: float = 0.0  # ||M - Q Q^dag M||_F^2 of an accepted sketch, 0.0 for the dense Gram


def entropy(bm: BipartitionMatrix) -> EntropyResult:
    """Spectrum, entropy (nats) and numerical Schmidt rank of the bipartition.

    M is the bipartition matrix read on its smaller side, as a transposed
    view when |A| > n/2 (M^T conj(M) has the spectrum of M^dag M). A sketch
    Q of M's range is tried first; when its tail delta = ||M - Q Q^dag M||_F^2
    is at most RANK_THRESHOLD_ABS, the spectrum is that of B = Q^dag M padded
    with zeros to the row count. Since Q^dag (M - Q B) = 0, M^dag M = B^dag B
    + E^dag E with E = M - Q B, so by Weyl each eigenvalue lies within delta
    of the exact one. Otherwise the dense Gram M M^dag is diagonalized.
    ``tail`` reports delta, and 0.0 on the dense path. Both paths run in a
    fixed order and the sketch draws from a stream keyed by the region alone,
    so results do not depend on the thread count of upstream evaluation.
    """
    M = bm.M if bm.M.shape[0] <= bm.M.shape[1] else bm.M.T
    sketch = _sketched_gram(M, bm.region)
    gram, tail = sketch if sketch is not None else (_blocked_gram(M), 0.0)
    try:
        lam = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    lam = np.sort(np.concatenate([lam, np.zeros(M.shape[0] - lam.size)]))[::-1]
    if lam.size and lam[-1] < _EIG_CLAMP:
        raise NumericError(f"Gram eigenvalue {lam[-1]:.3e} below clamp window")
    lam = np.clip(lam, 0.0, None)
    drift = abs(float(lam.sum()) - 1.0)
    if drift > _DRIFT_ERROR:
        raise ConsistencyError(f"eigenvalue sum drifts from 1 by {drift:.3e}")
    if drift > _DRIFT_RENORM or lam.sum() != 1.0:
        lam = lam / lam.sum()
    nz = lam[lam > 0.0]
    ent = float(-(nz * np.log(nz)).sum()) if nz.size else 0.0
    cut = max(RANK_THRESHOLD_REL * float(lam[0]) if lam.size else 0.0, RANK_THRESHOLD_ABS)
    rank = int((lam > cut).sum())
    return EntropyResult(eigenvalues=lam, entropy=ent, schmidt_rank=rank, tail=tail)


def _sketched_gram(M: np.ndarray, region: Subregion) -> tuple[np.ndarray, float] | None:
    """Gram of B = Q^dag M and the tail ||M - Q B||_F^2 for an orthonormal
    Q = orth(M M^dag Omega), or None when no sketch within the width cap
    leaves a tail of at most RANK_THRESHOLD_ABS.

    Omega starts at _SKETCH_START columns and doubles; new columns are
    appended to Z = Omega^dag M rather than redrawn. Z Z^dag = Omega^dag M
    M^dag Omega is the Gram compressed to the sketch, and its eigenvalues
    follow M's. While the smallest is above RANK_THRESHOLD_ABS of the largest,
    M has more eigenvalues above the tail threshold than the sketch has
    columns, so the sketch grows without forming Y = M Z^dag, Q or the tail.

    The width stays at most rows/8 and rows^2/cols: a full-rank state then
    pays at most an eighth of the dense Gram's products on top of the dense
    path, and an accepted sketch at most half of them. When the cap leaves
    room for fewer than two widths (fewer than 256 rows, or more than
    rows^2/32 columns), the dense path is taken at once.
    """
    rows, cols = M.shape
    cap = min(rows // 8, rows * rows // cols)
    if cap < 2 * _SKETCH_START:
        return None
    gen = RngStream(region.n, region.mask).generator()
    z = np.zeros((0, cols), dtype=M.dtype)
    y = np.zeros((rows, 0), dtype=M.dtype)
    width = _SKETCH_START
    while width <= cap:
        omega = gen.standard_normal((width - z.shape[0], rows)).astype(M.dtype, copy=False)
        z = np.vstack([z, omega @ M])
        ev = np.linalg.eigvalsh(z @ z.conj().T)
        if ev[0] <= RANK_THRESHOLD_ABS * ev[-1]:
            y = np.hstack([y, M @ z[y.shape[1] :].conj().T])
            q = np.linalg.qr(y)[0]
            b = q.conj().T @ M
            tail = 0.0
            # blocks bound the residual's temporary; each is made in M's own
            # memory order so that subtracting and flattening copy nothing
            block = max(1, _TAIL_BLOCK // rows)
            for start in range(0, cols, block):
                piece = M[:, start : start + block]
                resid = np.matmul(q, b[:, start : start + block], out=np.empty_like(piece))
                resid -= piece
                resid = resid.ravel(order="K")
                tail += float(np.vdot(resid, resid).real)
            if tail <= RANK_THRESHOLD_ABS:
                return b @ b.conj().T, tail
        width *= 2
    return None


def _blocked_gram(M: np.ndarray) -> np.ndarray:
    rows, cols = M.shape
    if cols <= _GRAM_BLOCK:
        return M @ M.conj().T
    gram = np.zeros((rows, rows), dtype=M.dtype)
    for start in range(0, cols, _GRAM_BLOCK):
        piece = M[:, start : start + _GRAM_BLOCK]
        gram += piece @ piece.conj().T
    return gram


def subregion_entropy(psi: Statevector, region: Subregion) -> EntropyResult:
    return entropy(bipartition(psi, region))


def reduced_density(psi: Statevector, region: Subregion) -> np.ndarray:
    """Dense reduced density matrix on the subregion (rows capped at 2^13)."""
    if (1 << region.size) > REDUCED_DM_MAX_ROWS:
        raise CapacityError(
            f"|A|={region.size} needs {1 << region.size} rows, above the dense cap {REDUCED_DM_MAX_ROWS}"
        )
    M = bipartition(psi, region).M
    return M @ M.conj().T


def reduced_trace_distance(psi: Statevector, phi: Statevector, region: Subregion) -> float:
    """Half trace distance of the reduced density matrices on the subregion."""
    if psi.n != phi.n:
        raise ContractError(f"dimension mismatch: n={psi.n} vs n={phi.n}")
    diff = reduced_density(psi, region) - reduced_density(phi, region)
    try:
        eig = np.linalg.eigvalsh(diff)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    return 0.5 * float(np.abs(eig).sum())


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
