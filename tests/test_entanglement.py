import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import haar_state

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
    flatten,
    reduced_density,
    reduced_trace_distance,
    subregion_entropy,
)
from nqsent.errors import CapacityError, ContractError, DomainError
from nqsent.statevector import from_amplitudes, materialize, overlap, two_norm_distance


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
    with pytest.raises(ContractError):
        bipartition(bell_state(), Subregion(0b00, 2))
    with pytest.raises(ContractError):
        bipartition(bell_state(), Subregion(0b11, 2))


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

    def spy(M, region):
        out = real(M, region)
        accepted.append(out is not None)
        return out

    monkeypatch.setattr(entanglement, "_sketched_gram", spy)
    return accepted


def _dense_entropy(bm, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(entanglement, "_sketched_gram", lambda M, region: None)
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
    lam = np.clip(np.linalg.eigvalsh(entanglement._blocked_gram(bm.M))[::-1], 0.0, None)
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
