"""Reference helpers that only the tests use: a one-variable Chebyshev fit,
a chunk run of a graph or reduced form at any chunk size and thread count,
the overlap of two states, the inverse of ``bipartition``, dense reduced
density matrices and their trace distance."""

from __future__ import annotations

import numpy as np

from nqsent.approx import ChebyshevApprox, cheb_fit_multi
from nqsent.core import Subregion
from nqsent.entanglement import BipartitionMatrix, bipartition, _axes
from nqsent.errors import CapacityError, ContractError, NumericError
from nqsent.graph import DEFAULT_CHUNK, ComputationGraph, _eval_bits_chunked
from nqsent.statevector import Statevector

REDUCED_DM_MAX_ROWS = 1 << 13


def cheb_fit_1d(f, t_bar: float, d: int) -> ChebyshevApprox:
    """Fit x -> f(t_bar * x) on [-1, 1] by a degree-d Chebyshev expansion."""
    return cheb_fit_multi(lambda t: f(t[0]), (t_bar,), d)


def chunked_eval_bits(ev, bits, threads: int = 1, chunk: int = DEFAULT_CHUNK) -> np.ndarray:
    """``ev.eval_bits(bits)`` of a graph or a reduced form, in pieces of
    ``chunk`` configurations on up to ``threads`` workers whether or not its
    tape is heavy: the evaluate and dtype that ``eval_bits`` hands the chunk
    driver, which pools every run it is asked to."""
    if isinstance(ev, ComputationGraph):
        tape = ev._tape(False, bits=True)
        return _eval_bits_chunked(lambda piece: ev._evaluate(tape, piece), bits, tape.dtype, threads, chunk)
    tape = ev.residual._tape(False)
    return _eval_bits_chunked(
        lambda piece: ev.residual.eval_ports(ev.feature_values(piece)), bits, tape.dtype, threads, chunk
    )


def overlap(psi: Statevector, phi: Statevector) -> complex:
    """<psi|phi> with conjugation on the first argument."""
    if psi.n != phi.n:
        raise ContractError(f"dimension mismatch: n={psi.n} vs n={phi.n}")
    return complex(np.vdot(psi.amplitudes, phi.amplitudes))


def flatten(bm: BipartitionMatrix) -> np.ndarray:
    """Inverse of ``bipartition``: amplitudes back in bits order."""
    tensor = bm.M.reshape((2,) * bm.region.n).transpose(np.argsort(_axes(bm.region)))
    return np.array(tensor, order="C").reshape(-1)


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
