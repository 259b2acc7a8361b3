import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import haar_state
from oracles import flatten, overlap, reduced_density, reduced_trace_distance

from nqsent.analytic import dicke_entropy, dicke_spectrum
from nqsent.ansatz import DickeSpec, SnnqsSpec, build_dicke, build_snnqs
from nqsent import entanglement
from nqsent.core import RngStream, Subregion
from nqsent.entanglement import (
    RANK_THRESHOLD_ABS,
    BipartitionMatrix,
    binary_entropy,
    bipartition,
    entropy,
    fa_slack_from_bound,
    fannes_audenaert_bound,
    subregion_entropy,
)
from nqsent.errors import CapacityError, ConsistencyError, ContractError, DomainError, NumericError
from nqsent.statevector import Statevector, from_amplitudes, materialize, two_norm_distance


def bell_state():
    amps = np.zeros(4, dtype=complex)
    amps[0b01] = amps[0b10] = 1.0
    return from_amplitudes(amps)


def plus_plus_state():
    return from_amplitudes(np.full(4, 0.5, dtype=complex))


def test_bell_bipartition_matrix():
    M = bipartition(bell_state(), Subregion(0b01, 2)).M
    expect = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    assert np.allclose(M, expect)


def test_bipartition_rejects_trivial_regions():
    # the streamed entropy refuses the same cuts before it reads a block
    for cut in (bipartition, subregion_entropy):
        with pytest.raises(ContractError):
            cut(bell_state(), Subregion(0b00, 2))
        with pytest.raises(ContractError):
            cut(bell_state(), Subregion(0b11, 2))
        with pytest.raises(ContractError, match="^region has n=3, state has n=2$"):
            cut(bell_state(), Subregion(0b001, 3))


def test_bipartition_flatten_roundtrip():
    gen = np.random.default_rng(4)
    psi = from_amplitudes(haar_state(6, gen))
    for mask in (0b000111, 0b010101, 0b100110):
        bm = bipartition(psi, Subregion(mask, 6))
        assert np.array_equal(flatten(bm), psi.amplitudes)


def test_bell_entropy():
    res = subregion_entropy(bell_state(), Subregion(0b01, 2))
    assert np.allclose(res.eigenvalues[:2], [0.5, 0.5])
    assert res.entropy == pytest.approx(math.log(2.0), abs=1e-14)
    assert res.schmidt_rank == 2


def test_product_state_zero_entropy():
    res = subregion_entropy(plus_plus_state(), Subregion(0b01, 2))
    assert res.entropy == pytest.approx(0.0, abs=1e-14)
    assert res.schmidt_rank == 1


def test_dicke_n4_half_spectrum():
    psi = materialize(build_dicke(DickeSpec(4)))
    res = subregion_entropy(psi, Subregion(0b0011, 4))
    assert np.allclose(res.eigenvalues[:3], [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0], atol=1e-12)
    assert res.entropy == pytest.approx(dicke_entropy(4, 2), abs=1e-12)


def test_dicke_n22_matches_analytic():
    psi = materialize(build_dicke(DickeSpec(22)), threads=4)
    res = subregion_entropy(psi, Subregion((1 << 11) - 1, 22))
    assert res.entropy == pytest.approx(dicke_entropy(22, 11), abs=1e-10)
    ana = np.sort(dicke_spectrum(22, 11).eigenvalues)[::-1]
    assert np.abs(res.eigenvalues[: ana.size] - ana).max() < 1e-12


def test_schmidt_symmetry_and_bounds():
    gen = np.random.default_rng(11)
    psi = from_amplitudes(haar_state(7, gen))
    for mask in (0b0000001, 0b0011011, 0b1110000):
        region = Subregion(mask, 7)
        a = subregion_entropy(psi, region)
        b = subregion_entropy(psi, region.complement())
        assert abs(a.entropy - b.entropy) < 1e-10
        m = min(region.size, 7 - region.size)
        assert -1e-12 <= a.entropy <= m * math.log(2.0) + 1e-10
        assert a.entropy <= math.log(a.schmidt_rank) + 1e-10


def test_gram_eigenvalues_match_svd():
    gen = np.random.default_rng(13)
    for n in (4, 6, 8):
        psi = from_amplitudes(haar_state(n, gen))
        mask = int(gen.integers(1, (1 << n) - 1))
        region = Subregion(mask, n)
        if region.size in (0, n):
            continue
        bm = bipartition(psi, region)
        res = entropy(bm)
        sv = np.linalg.svd(bm.M, compute_uv=False)
        lam = np.sort(sv**2)[::-1]
        assert np.abs(res.eigenvalues[: lam.size] - lam).max() < 1e-10


def _sketch_spy(monkeypatch) -> list:
    """Record whether each entropy call's sketch was accepted."""
    accepted = []
    real = entanglement._sketched_gram

    def spy(m, region):
        out = real(m, region)
        accepted.append(out is not None)
        return out

    monkeypatch.setattr(entanglement, "_sketched_gram", spy)
    return accepted


def _dense_entropy(bm, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(entanglement, "_sketched_gram", lambda m, region: None)
        return entropy(bm)


def test_sketch_matches_dense_every_size(monkeypatch):
    # n=18: the sketch needs at least 256 rows, and snnqs half cuts at n=16
    # need more columns than its cap of 32 allows there
    n = 18
    states = [
        materialize(build_snnqs(SnnqsSpec(n=n, activation="i*tanh"), RngStream(3).child(0))),
        materialize(build_dicke(DickeSpec(n))),
    ]
    accepted = _sketch_spy(monkeypatch)
    gen = np.random.default_rng(17)
    for psi in states:
        for m in range(1, n):
            for mask in ((1 << m) - 1, Subregion.from_members(gen.choice(n, m, replace=False), n).mask):
                bm = bipartition(psi, Subregion(int(mask), n))
                fast = entropy(bm)
                dense = _dense_entropy(bm, monkeypatch)
                assert dense.tail == 0.0
                assert fast.eigenvalues.size == dense.eigenvalues.size == 1 << min(m, n - m)
                assert np.abs(fast.eigenvalues - dense.eigenvalues).max() <= 1e-12
                assert abs(fast.entropy - dense.entropy) <= 1e-12
    # snnqs half cuts and Dicke cuts with 256 or more rows are sketched
    assert sum(accepted) == 8


def test_haar_state_falls_back_to_dense_gram(monkeypatch):
    gen = np.random.default_rng(19)
    psi = from_amplitudes(haar_state(16, gen))
    accepted = _sketch_spy(monkeypatch)
    bm = bipartition(psi, Subregion(0b0101010101010101, 16))
    res = entropy(bm)
    assert accepted == [False]
    assert res.tail == 0.0
    # the Gram and its eigensolve on one BLAS thread, as every spectrum runs
    with entanglement._one_blas_thread():
        lam = np.clip(np.linalg.eigvalsh(entanglement._dense_gram(entanglement._view_reader(bm.M)))[::-1], 0.0, None)
    if abs(lam.sum() - 1.0) > 1e-10 or lam.sum() != 1.0:
        lam = lam / lam.sum()
    assert res.eigenvalues.tobytes() == lam.tobytes()
    assert res.schmidt_rank == 256


@pytest.mark.parametrize("rank,sketched", [(1, True), (16, True), (17, True), (64, False)])
def test_exact_schmidt_rank_across_sketch_widths(rank, sketched, monkeypatch):
    gen = np.random.default_rng(rank)

    def frame(dim):
        raw = gen.normal(size=(dim, rank)) + 1j * gen.normal(size=(dim, rank))
        return np.linalg.qr(raw)[0]

    s = gen.uniform(0.5, 1.0, size=rank)
    M = (frame(256) * (s / np.linalg.norm(s))) @ frame(256).conj().T
    accepted = _sketch_spy(monkeypatch)
    res = entropy(BipartitionMatrix(M, Subregion((1 << 8) - 1, 16)))
    assert res.schmidt_rank == rank
    assert accepted == [sketched]
    assert 0.0 <= res.tail <= RANK_THRESHOLD_ABS
    assert res.eigenvalues.size == 256
    assert res.entropy == pytest.approx(-(s**2 / (s**2).sum() * np.log(s**2 / (s**2).sum())).sum(), abs=1e-12)


def test_sketch_rejects_a_tail_above_threshold(monkeypatch):
    # three large Schmidt weights over 200 of 1e-15 each: the compressed Gram
    # looks rank deficient, but any sketch within the cap leaves a tail of
    # about 2e-13, so the dense path must serve the call
    gen = np.random.default_rng(23)
    lam = np.concatenate([[0.6, 0.3, 0.1], np.full(200, 1e-15)])
    lam /= lam.sum()
    frames = [np.linalg.qr(gen.normal(size=(256, lam.size)) + 1j * gen.normal(size=(256, lam.size)))[0] for _ in range(2)]
    M = (frames[0] * np.sqrt(lam)) @ frames[1].conj().T
    accepted = _sketch_spy(monkeypatch)
    res = entropy(BipartitionMatrix(M, Subregion((1 << 8) - 1, 16)))
    assert accepted == [False]
    assert res.tail == 0.0
    assert res.schmidt_rank == 3
    assert res.entropy == pytest.approx(-(lam * np.log(lam)).sum(), abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_state_is_numeric_error(bad):
    # the public constructor does not check amplitudes; the eigensolver
    # returns NaN eigenvalues here, which the spectrum refuses
    psi = Statevector(np.array([bad, 1.0, 0.0, 0.0]), 2, 1.0)
    with pytest.raises(NumericError, match="^Gram eigenvalues are not all finite"):
        subregion_entropy(psi, Subregion(1, 2))


def _non_finite_matrices(rows: int, dtype):
    """Unit-norm rows x 1024 matrices with two NaN or infinite entries, and
    the region of their rows."""
    m = rows.bit_length() - 1
    bads = [np.nan, np.inf]
    if dtype is np.complex128:
        bads += [-np.inf, complex(np.inf, 1.0)]
    for bad in bads:
        M = np.random.default_rng(rows).standard_normal((rows, 1024)).astype(dtype)
        M /= np.linalg.norm(M)
        M[3, 5] = M[7, 900] = bad
        yield BipartitionMatrix(M, Subregion((1 << m) - 1, m + 10))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("rows", [128, 512], ids=["dense", "sketch"])
def test_non_finite_matrix_is_numeric_error(rows, dtype):
    # under 256 rows the dense Gram's eigensolver meets the non-finite
    # values; at 512 rows the sketch's own eigensolver does, before any dense
    # Gram is formed. A complex inf meets inf - inf in the products, which
    # must not end the call in a RuntimeWarning instead.
    for bm in _non_finite_matrices(rows, dtype):
        with pytest.raises(NumericError):
            entropy(bm)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("rows", [128, 512], ids=["dense", "sketch"])
def test_non_finite_streamed_matrix_is_numeric_error(rows, dtype):
    # the same matrices read block by block from a state's amplitudes
    for bm in _non_finite_matrices(rows, dtype):
        with pytest.raises(NumericError):
            subregion_entropy(Statevector(flatten(bm), bm.region.n, 1.0), bm.region)


def _low_rank_state(n: int, rank: int, complex_: bool, gen: np.random.Generator) -> Statevector:
    """A sum of ``rank`` random product states: Schmidt rank at most
    ``rank`` on every cut; ``rank`` 0 draws a Gaussian state instead."""
    if rank == 0:
        raw = gen.normal(size=1 << n) + (1j * gen.normal(size=1 << n) if complex_ else 0.0)
        return from_amplitudes(raw)
    total = np.zeros(1 << n, dtype=complex if complex_ else float)
    for _ in range(rank):
        term = np.ones(1)
        for _ in range(n):
            spin = gen.normal(size=2) + (1j * gen.normal(size=2) if complex_ else 0.0)
            term = np.kron(spin, term)
        total = total + term
    return from_amplitudes(total)


def _assert_streamed_matches_explicit(psi: Statevector, region: Subregion) -> bool:
    """The streamed and the explicit spectrum agree; returns whether the
    sketch served the call."""
    streamed, explicit = subregion_entropy(psi, region), entropy(bipartition(psi, region))
    assert streamed.schmidt_rank == explicit.schmidt_rank
    assert streamed.eigenvalues.size == explicit.eigenvalues.size == 1 << min(region.size, region.n - region.size)
    assert np.abs(streamed.eigenvalues - explicit.eigenvalues).max() <= 1e-12
    assert abs(streamed.entropy - explicit.entropy) <= 1e-12
    assert (streamed.tail > 0.0) == (explicit.tail > 0.0)
    return streamed.tail > 0.0


@given(
    st.integers(2, 14),
    st.integers(0, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_streamed_entropy_matches_the_explicit_matrix(n, rank, complex_, seed):
    # blocks of two columns, so that every cut reads many blocks; regions
    # on both sides of the half
    gen = np.random.default_rng(seed)
    psi = _low_rank_state(n, rank, complex_, gen)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entanglement, "_BLOCK", 8)
        mp.setattr(entanglement, "_BLOCK_COLS", 2)
        for m in {1, n // 2, n - 1, int(gen.integers(1, n))}:
            region = Subregion.from_members(gen.choice(n, m, replace=False), n)
            assert not _assert_streamed_matches_explicit(psi, region)


@pytest.mark.parametrize("rank, sketched", [(3, True), (0, False)], ids=["accepted", "dense"])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_streamed_sketch_matches_the_explicit_matrix(rank, sketched, complex_, monkeypatch):
    # n=16 half cuts have the 256 rows a sketch needs; a rank-3 state is
    # accepted at the first width, a Gaussian one falls back to the dense Gram
    gen = np.random.default_rng(43 + rank)
    psi = _low_rank_state(16, rank, complex_, gen)
    monkeypatch.setattr(entanglement, "_BLOCK", 1 << 10)
    monkeypatch.setattr(entanglement, "_BLOCK_COLS", 4)
    for mask in (0x00FF, 0x5555, 0xA5A5):
        for region in (Subregion(mask, 16), Subregion(mask, 16).complement()):
            assert _assert_streamed_matches_explicit(psi, region) == sketched


def test_subregion_entropy_holds_one_block_not_a_copy(monkeypatch):
    # the bipartition copy would hold the state's 8 MiB once more; a
    # sketched half cut and a dense cut of few rows hold a block each
    psi = materialize(build_dicke(DickeSpec(20)))
    accepted = _sketch_spy(monkeypatch)
    for m, region in ((10, Subregion.from_members(range(0, 20, 2), 20)), (3, Subregion(0b111, 20))):
        tracemalloc.start()
        try:
            res = subregion_entropy(psi, region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= psi.amplitudes.nbytes // 4 + (1 << 20)
        assert res.entropy == pytest.approx(dicke_entropy(20, m), abs=1e-10)
    assert accepted == [True, False]


def test_a_state_pass_lets_its_block_go_finished_or_abandoned(monkeypatch):
    # each pass gathers every block into one scratch array of its own, which
    # dies with the pass, so the sketch's QR and the eigensolve run without it
    monkeypatch.setattr(entanglement, "_BLOCK", 1 << 10)
    psi, region = materialize(build_dicke(DickeSpec(12))), Subregion(0b111, 12)
    M = bipartition(psi, region).M
    reader = entanglement._state_reader(psi, region)[1]
    scratch = set()
    for cut, block in reader.blocks():
        assert block.tobytes() == M[:, cut].tobytes()
        scratch.add(id(block))
        last = weakref.ref(block)
    assert cut.stop == M.shape[1] and len(scratch) == 1
    del block
    assert last() is None
    pass_ = reader.blocks()
    first = weakref.ref(next(pass_)[1])
    assert first() is not None
    pass_.close()
    assert first() is None


def test_view_reader_blocks_are_views_of_the_matrix(monkeypatch):
    # read on its smaller side, a transposed view for a tall matrix, in
    # blocks of 512 elements
    monkeypatch.setattr(entanglement, "_BLOCK", 512)
    M = np.arange(4 * 1024, dtype=float).reshape(4, 1024)
    for matrix in (M, M.T):
        reader = entanglement._view_reader(matrix)
        assert (reader.rows, reader.cols, reader.dtype) == (4, 1024, M.dtype)
        cuts = []
        for cut, block in reader.blocks():
            assert np.shares_memory(block, M)
            assert block.tobytes() == M[:, cut].tobytes()
            cuts.append(cut)
        assert [c.start for c in cuts] == list(range(0, 1024, 128))


def test_spectrum_refuses_negative_and_drifting_eigenvalues():
    with pytest.raises(NumericError, match="below clamp window"):
        entanglement._spectrum(np.array([1.0 + 1e-9, -1e-9]), 2, 0.0)
    # within the clamp window the value is clipped to 0
    assert list(entanglement._spectrum(np.array([1.0, -1e-13]), 2, 0.0).eigenvalues) == [1.0, 0.0]
    # M = 0.6 I is no unit vector: its Gram has trace 2 * 0.36 = 0.72
    with pytest.raises(ConsistencyError, match="drifts from 1 by 2.800e-01"):
        entropy(BipartitionMatrix(0.6 * np.eye(2), Subregion(1, 2)))
    # an empty matrix, or one whose shape is not that of the region's cut,
    # is no bipartition matrix: a 4 x 4 matrix for a one-spin region of
    # three spins would give ln 4
    for M in (np.zeros((0, 4)), np.zeros((4, 0)), np.eye(4) / 2, np.eye(4)[0]):
        with pytest.raises(ContractError, match="no bipartition matrix"):
            entropy(BipartitionMatrix(M, Subregion(1, 3)))
    with pytest.raises(ContractError, match="no bipartition matrix"):
        entropy(BipartitionMatrix(np.ones((1, 1)), Subregion(0, 0)))


def test_spectrum_renormalizes_exactly_when_the_sum_is_not_one():
    lam = np.array([0.75, 0.25])
    assert entanglement._spectrum(lam, 2, 0.0).eigenvalues.tolist() == [0.75, 0.25]
    off = np.array([0.75, 0.25 + 4e-16])
    assert off.sum() != 1.0
    out = entanglement._spectrum(off, 2, 0.0).eigenvalues
    assert out.tolist() == (off / off.sum()).tolist()


def test_entropy_bytes_repeat_and_ignore_threads(monkeypatch):
    g = build_snnqs(SnnqsSpec(n=16, activation="i*tanh"), RngStream(5).child(1))
    region = Subregion.from_members(np.arange(0, 16, 2), 16)
    accepted = _sketch_spy(monkeypatch)
    results = [entropy(bipartition(materialize(g, threads=t), region)) for t in (1, 2, 2)]
    assert accepted == [True] * 3
    for res in results[1:]:
        assert res.eigenvalues.tobytes() == results[0].eigenvalues.tobytes()
        assert res.entropy == results[0].entropy
        assert res.tail == results[0].tail


def test_real_and_complex_paths_agree(monkeypatch):
    # a real Gaussian state at n=16 has full Schmidt rank (dense Gram); the
    # Dicke state and a real tanh snnqs state at n=18 have low rank (sketch)
    gen = np.random.default_rng(29)
    states = [
        from_amplitudes(gen.normal(size=1 << 16)),
        materialize(build_dicke(DickeSpec(18))),
        materialize(build_snnqs(SnnqsSpec(n=18, activation="tanh"), RngStream(29).child(0))),
    ]
    accepted = _sketch_spy(monkeypatch)
    for psi in states:
        assert psi.amplitudes.dtype == np.float64
        twin = from_amplitudes(psi.amplitudes.astype(complex))
        n = psi.n
        for m in (1, n // 2 - 1, n // 2, n // 2 + 1, n - 2):
            region = Subregion.from_members(gen.choice(n, m, replace=False), n)
            bm = bipartition(psi, region)
            assert bm.M.dtype == np.float64
            real, cplx = entropy(bm), entropy(bipartition(twin, region))
            assert real.eigenvalues.size == cplx.eigenvalues.size
            assert np.abs(real.eigenvalues - cplx.eigenvalues).max() <= 1e-12
            assert abs(real.entropy - cplx.entropy) <= 1e-12
            assert real.schmidt_rank == cplx.schmidt_rank
    # each call was spied twice, real then complex, and both took one path
    assert accepted[0::2] == accepted[1::2]
    assert True in accepted and False in accepted, accepted


def test_linear_snnqs_every_bipartition_product():
    g = build_snnqs(SnnqsSpec(n=10, activation="identity", parameterization="wrap_exp"), RngStream(1).child(5))
    psi = materialize(g)
    for m in range(1, 10):
        res = subregion_entropy(psi, Subregion((1 << m) - 1, 10))
        assert res.entropy < 1e-10


def _pure_trace_distance(a, b):
    """Half trace distance of two pure states, sqrt(1 - |<a|b>|^2)."""
    return math.sqrt(max(0.0, 1.0 - abs(overlap(a, b)) ** 2))


def test_pure_trace_distance_below_two_norm():
    gen = np.random.default_rng(29)
    for _ in range(25):
        a = from_amplitudes(haar_state(5, gen))
        b = from_amplitudes(haar_state(5, gen))
        assert _pure_trace_distance(a, b) <= two_norm_distance(a, b) + 1e-12


def test_reduced_distance_identical_states_zero():
    gen = np.random.default_rng(41)
    psi = from_amplitudes(haar_state(5, gen))
    assert reduced_trace_distance(psi, psi, Subregion(0b00111, 5)) < 1e-12


def test_reduced_vs_pure_monotonicity():
    gen = np.random.default_rng(31)
    for _ in range(15):
        a = from_amplitudes(haar_state(6, gen))
        b = from_amplitudes(haar_state(6, gen))
        mask = int(gen.integers(1, 63))
        region = Subregion(mask, 6)
        if region.size in (0, 6):
            continue
        reduced = reduced_trace_distance(a, b, region)
        assert reduced <= _pure_trace_distance(a, b) + 1e-10
        # the step the bound chain takes: reduced distance below the 2-norm distance
        assert reduced <= two_norm_distance(a, b) + 1e-10


def test_bell_vs_plus_plus_reduced_distance():
    region = Subregion(0b01, 2)
    val = reduced_trace_distance(bell_state(), plus_plus_state(), region)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_reduced_density_capacity():
    gen = np.random.default_rng(37)
    psi = from_amplitudes(haar_state(4, gen))
    psi.n = 30  # simulate a huge subregion request
    with pytest.raises(CapacityError):
        reduced_density(psi, Subregion((1 << 14) - 1, 30))


def test_fannes_audenaert_values():
    assert fannes_audenaert_bound(0.0, 3) == 0.0
    assert fannes_audenaert_bound(0.5, 1) == pytest.approx(math.log(2.0))
    expect = 0.25 * math.log(3.0) + binary_entropy(0.25)
    assert fannes_audenaert_bound(0.25, 2) == pytest.approx(expect)
    assert expect == pytest.approx(0.8370, abs=5e-5)
    with pytest.raises(DomainError):
        fannes_audenaert_bound(1.5, 2)
    with pytest.raises(DomainError, match="^subregion must have at least one spin$"):
        fannes_audenaert_bound(0.5, 0)
    for t in (-0.1, 1.5):
        with pytest.raises(DomainError, match=f"^H2 argument {t} outside"):
            binary_entropy(t)
    with pytest.raises(DomainError, match="^trace bound must be nonnegative$"):
        fa_slack_from_bound(-0.1, 3)


def test_fa_slack_cap():
    # beyond the peak the supremum is |A| ln 2
    assert fa_slack_from_bound(5.0, 3) == pytest.approx(3 * math.log(2.0))
    t_star = 1.0 - 0.5**3
    assert fa_slack_from_bound(t_star + 0.01, 3) == pytest.approx(3 * math.log(2.0))
    small = fa_slack_from_bound(0.01, 3)
    assert small < 3 * math.log(2.0)
    # the slack dominates the literal bound everywhere below the cap
    for t in np.linspace(0.0, 1.0, 21):
        assert fa_slack_from_bound(t, 3) >= fannes_audenaert_bound(t, 3) - 1e-12


@given(st.integers(0, 10_000))
def test_fannes_audenaert_inequality_random_pairs(seed):
    gen = np.random.default_rng(seed)
    n = 5
    a = from_amplitudes(haar_state(n, gen))
    b = from_amplitudes(haar_state(n, gen))
    mask = int(gen.integers(1, (1 << n) - 1))
    region = Subregion(mask, n)
    T = reduced_trace_distance(a, b, region)
    lhs = abs(subregion_entropy(a, region).entropy - subregion_entropy(b, region).entropy)
    assert lhs <= fannes_audenaert_bound(min(1.0, T), region.size) + 1e-9


# three random half cuts each of fig1d_mlp's ansatz at n=16 (dense Grams of
# 256 rows, which OpenBLAS spreads over its threads) and of fig1c_snnqs's at
# n=18 (complex, all three sketched), and a mu=1 bound report
_BLAS_BYTES_SCRIPT = """
import json
import numpy as np
import nqsent as nq
from nqsent.core import RngStream, Subregion
from nqsent.experiments import PRESETS

out = []
for preset, name, n in (("fig1d", "fig1d_mlp", 16), ("fig1c", "fig1c_snnqs", 18)):
    ansatz = next(c for c in PRESETS[preset] if c.name == name).ansatz
    psi = nq.materialize(nq.ansatz_from_config(dict(ansatz, n=n), RngStream(3).child(0)))
    gen = np.random.default_rng(0)
    for _ in range(3):
        res = nq.subregion_entropy(psi, Subregion.from_members(gen.choice(n, n // 2, replace=False).tolist(), n))
        out.append([res.eigenvalues.tobytes().hex(), res.entropy, res.schmidt_rank, res.tail])
g = nq.build_snnqs(nq.SnnqsSpec(n=12, activation="i*tanh", bias_std=0.5), RngStream(1))
out.append(nq.full_bound_report(g, Subregion(0x3F, 12)).to_json())
print(json.dumps(out))
"""


def test_bytes_do_not_depend_on_the_blas_thread_count():
    src = str(Path(entanglement.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = [
        subprocess.run(
            [sys.executable, "-c", _BLAS_BYTES_SCRIPT],
            env=dict(env, OPENBLAS_NUM_THREADS=str(t)),
            capture_output=True,
            text=True,
            check=True,
            timeout=600,
        ).stdout
        for t in (1, 2)
    ]
    doc = json.loads(outs[0])
    # the snnqs cuts take the sketch: a nonzero tail, ranks 25 to 30
    assert all(tail > 0.0 and 25 <= rank <= 30 for _, _, rank, tail in doc[3:6])
    assert doc[6]["mu"] == 1
    assert outs[0] == outs[1]
