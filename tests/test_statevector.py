import math
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import haar_state, random_evaluable_dag
from oracles import chunked_eval_bits, overlap

from nqsent.ansatz import (
    CosnetSpec,
    DickeSpec,
    MlpSpec,
    SnnqsSpec,
    TransformerSpec,
    build_cosnet,
    build_dicke,
    build_mlp,
    build_snnqs,
    build_transformer,
)
from nqsent.approx import auxiliary_state, cheb_fit_multi
from nqsent.core import RngStream, Subregion, feature_supnorm
from nqsent.entanglement import subregion_entropy
from nqsent.activations import Activation
from nqsent.errors import AmplitudeOverflowError, CapacityError, ContractError, DegenerateStateError, NumericError
from nqsent.graph import _TABLE_BYTES, ComputationGraph, Node, _eval_bits_chunked, feature_reduce
from nqsent.statevector import (
    NORM_CHUNK,
    Statevector,
    from_amplitudes,
    load_nqsv,
    materialize,
    save_nqsv,
    two_norm_distance,
    _normalized,
)


def _pooled(ev, threads: int) -> Statevector:
    """``materialize(ev)`` with its chunks on up to ``threads`` workers,
    although a light tape's state runs on the calling thread."""
    return _normalized(chunked_eval_bits(ev, range(1 << ev.n), threads), ev.n)


def _pooled_auxiliary(r, fit, threads: int) -> Statevector:
    """``auxiliary_state(r, fit)`` with its chunks on up to ``threads``
    workers, although the auxiliary state runs on the calling thread."""
    dtype = np.float64 if fit.real else np.complex128
    amplitudes = _eval_bits_chunked(lambda piece: fit.evaluate(r.feature_values(piece)), range(1 << r.n), dtype, threads)
    return _normalized(amplitudes, r.n)


def test_dicke_n4_amplitudes():
    psi = materialize(build_dicke(DickeSpec(4)))
    nonzero = np.flatnonzero(np.abs(psi.amplitudes) > 1e-14)
    # the six half-filling configurations
    assert sorted(int(b) for b in nonzero) == [3, 5, 6, 9, 10, 12]
    assert np.allclose(psi.amplitudes[nonzero], 1.0 / np.sqrt(6.0))
    assert psi.norm_was == pytest.approx(np.sqrt(6.0))


def test_linear_activation_state_factorizes():
    # exp of an affine feature gives a product state: amplitudes split as an
    # outer product over the two halves
    g = build_snnqs(SnnqsSpec(n=6, activation="identity", parameterization="wrap_exp"), RngStream(4).child(0))
    psi = materialize(g)
    M = psi.amplitudes.reshape(8, 8)  # high bits x low bits
    u, s, vt = np.linalg.svd(M)
    assert s[1] / s[0] < 1e-13


def test_degenerate_state_error():
    # zero polynomial makes every amplitude vanish
    zero = Activation("poly", coeffs=(0.0,))
    g = ComputationGraph(
        [
            Node(0, "nonlinear", ((("s", 0), 1.0),), activation=zero),
            Node(1, "output", ((0, 1.0),), output_mode="amplitude"),
        ],
        n=4,
    )
    with pytest.raises(DegenerateStateError):
        materialize(g)


def test_overflow_names_configuration():
    g = build_snnqs(
        SnnqsSpec(n=10, activation="exp", parameterization="wrap_exp", weight_std=30.0), RngStream(6).child(0)
    )
    with pytest.raises(AmplitudeOverflowError) as err:
        materialize(g)
    assert err.value.bits is not None
    assert "bits=" in str(err.value)


@pytest.mark.parametrize("raw", [[], [[1, 0], [0, 1]]])
def test_from_amplitudes_rejects_non_vectors(raw):
    with pytest.raises(ContractError, match=r"shape \("):
        from_amplitudes(raw)


def test_from_amplitudes_rejects_non_power_of_two():
    with pytest.raises(ContractError, match="^length 3 is not a power of two$"):
        from_amplitudes([1.0, 2.0, 3.0])


def test_statevector_shape_must_match_n():
    with pytest.raises(ContractError, match=r"^amplitude array has shape \(8,\), expected \(4,\)$"):
        Statevector(np.ones(8) / math.sqrt(8.0), 2, 1.0)


def test_norm_past_the_float_ceiling_is_degenerate():
    # every amplitude is finite, but the 2-norm 2 * 1.5e308 is not
    with pytest.raises(DegenerateStateError, match="^state norm inf cannot normalize the amplitudes$"):
        from_amplitudes(np.full(4, 1.5e308))


def test_overlap_and_identity():
    gen = np.random.default_rng(8)
    psi = from_amplitudes(haar_state(6, gen))
    phi = from_amplitudes(haar_state(6, gen))
    assert overlap(psi, psi) == pytest.approx(1.0, abs=1e-13)
    lhs = two_norm_distance(psi, phi) ** 2
    rhs = 2.0 - 2.0 * overlap(psi, phi).real
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_orthogonal_basis_states():
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    e1 = np.zeros(4, dtype=complex)
    e1[1] = 1.0
    assert overlap(from_amplitudes(e0), from_amplitudes(e1)) == 0.0
    assert two_norm_distance(from_amplitudes(e0), from_amplitudes(e0)) == 0.0
    psi = from_amplitudes(e0)
    neg = Statevector(-psi.amplitudes, psi.n, psi.norm_was)
    assert two_norm_distance(psi, neg) == pytest.approx(2.0)


def test_triangle_inequality_random():
    gen = np.random.default_rng(17)
    for _ in range(20):
        a = from_amplitudes(haar_state(5, gen))
        b = from_amplitudes(haar_state(5, gen))
        c = from_amplitudes(haar_state(5, gen))
        assert two_norm_distance(a, c) <= two_norm_distance(a, b) + two_norm_distance(b, c) + 1e-12


def test_dimension_mismatch():
    gen = np.random.default_rng(2)
    a = from_amplitudes(haar_state(3, gen))
    b = from_amplitudes(haar_state(4, gen))
    with pytest.raises(ContractError):
        overlap(a, b)
    with pytest.raises(ContractError):
        two_norm_distance(a, b)


def test_materialize_agrees_with_reduced_form():
    g = build_mlp(MlpSpec(n=10, width=3, depth=2, layernorm=True), RngStream(21).child(0))
    psi = materialize(g)
    phi = materialize(feature_reduce(g))
    assert np.abs(psi.amplitudes - phi.amplitudes).max() < 1e-12


def test_materialize_agrees_with_reduced_form_transformer():
    from nqsent.ansatz import TransformerSpec, build_transformer

    spec = TransformerSpec(n=8, patch=3, stride=2, embed_dim=8, heads=2, layers=1, ffn_width=4)
    g = build_transformer(spec, RngStream(14).child(0), frozen_rng=RngStream(14).child(1))
    psi = materialize(g)
    phi = materialize(feature_reduce(g))
    # hundreds of folded nodes plus an exponential output accumulate a few
    # hundred ulps; the 1e-12 agreement contract applies at moderate k
    assert np.abs(psi.amplitudes - phi.amplitudes).max() < 1e-9


def test_materialize_thread_and_chunk_invariance():
    g = build_mlp(MlpSpec(n=9, width=4, depth=2), RngStream(33).child(0))
    # a complex output over real cos units reaches the complex table's mirror rows
    c = build_cosnet(CosnetSpec(n=9, k=4), RngStream(33).child(3))
    assert c.eval_bits(range(4)).dtype == np.complex128
    # the auxiliary state at n=17 spans two chunks of the shared driver
    r = feature_reduce(build_snnqs(SnnqsSpec(n=17, activation="i*tanh", bias_std=0.5), RngStream(33).child(1)))
    fit = cheb_fit_multi(r.g_eval, [feature_supnorm(f) for f in r.features], 8)
    # a two-feature auxiliary state: a table per feature, folded after the BLAS product
    r2 = feature_reduce(build_cosnet(CosnetSpec(n=17, k=1), RngStream(33).child(2)))
    assert r2.mu == 2
    fit2 = cheb_fit_multi(r2.g_eval, [feature_supnorm(f) for f in r2.features], 8)
    # a light graph's state and the auxiliary states run on the calling
    # thread; the same chunks on pool threads give the same bytes
    for make in (
        lambda t: materialize(g, threads=t),
        lambda t: _pooled(g, t),
        lambda t: materialize(c, threads=t),
        lambda t: _pooled(c, t),
        lambda t: auxiliary_state(r, fit) if t == 1 else _pooled_auxiliary(r, fit, t),
        lambda t: auxiliary_state(r2, fit2) if t == 1 else _pooled_auxiliary(r2, fit2, t),
    ):
        base = make(1)
        for threads in (2, 4):
            other = make(threads)
            assert np.array_equal(base.amplitudes, other.amplitudes)
            assert base.norm_was == other.norm_was


def test_capacity_cap():
    g = build_dicke(DickeSpec(4))
    g.n = 25  # simulate an oversized request without building one
    with pytest.raises(CapacityError):
        materialize(g)
    g.n = 4


def test_dump_roundtrip(tmp_path):
    gen = np.random.default_rng(9)
    psi = from_amplitudes(haar_state(7, gen))
    path = tmp_path / "state.nqsv"
    save_nqsv(psi, path)
    raw = path.read_bytes()
    assert raw[:4] == b"NQSV"
    assert len(raw) == 16 + 16 * (1 << 7)
    back = load_nqsv(path)
    assert back.n == 7
    assert np.array_equal(back.amplitudes, psi.amplitudes)
    # writing again produces identical bytes
    save_nqsv(back, path)
    assert path.read_bytes() == raw


def _dump(path, n: int, body: bytes) -> str:
    path.write_bytes(b"NQSV" + struct.pack("<III", 1, n, 0) + body)
    return str(path)


def test_load_nqsv_checks_the_header_before_the_body(tmp_path, monkeypatch):
    monkeypatch.delenv("NQS_MAX_N", raising=False)
    with pytest.raises(CapacityError):
        load_nqsv(_dump(tmp_path / "n0.nqsv", 0, np.ones(1, dtype="<c16").tobytes()))
    # 2^30 amplitudes would be 16 GiB: refused without looking for them
    with pytest.raises(CapacityError):
        load_nqsv(_dump(tmp_path / "n30.nqsv", 30, b""))
    monkeypatch.setenv("NQS_MAX_N", "2")
    with pytest.raises(CapacityError):
        load_nqsv(_dump(tmp_path / "n3.nqsv", 3, np.ones(8, dtype="<c16").tobytes()))


_N2_BODY = np.ones(4, dtype="<c16").tobytes()


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"NQSX" + struct.pack("<III", 1, 2, 0) + _N2_BODY, "not a statevector dump"),
        (b"NQSV" + struct.pack("<II", 1, 2), "not a statevector dump"),
        (b"NQSV" + struct.pack("<III", 2, 2, 0) + _N2_BODY, "unsupported dump version 2"),
    ],
    ids=["magic", "short", "version"],
)
def test_load_nqsv_refuses_bad_headers(tmp_path, raw, message):
    path = tmp_path / "bad.nqsv"
    path.write_bytes(raw)
    with pytest.raises(ContractError) as err:
        load_nqsv(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("size", [48, 65, 80])
def test_load_nqsv_refuses_short_odd_and_trailing_bodies(tmp_path, size):
    with pytest.raises(ContractError, match="needs exactly 64 bytes"):
        load_nqsv(_dump(tmp_path / "bad.nqsv", 2, bytes(range(size))))


def _assert_huge_pair_normalized(psi):
    assert psi.n == 2
    assert psi.amplitudes == pytest.approx([2**-0.5, 2**-0.5, 0.0, 0.0], rel=1e-15)
    assert psi.norm_was == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)


def test_from_amplitudes_above_norm_overflow():
    # |a|^2 overflows a float64, so a plain 2-norm would return inf
    raw = np.array([1e200, 1e200, 0.0, 0.0], dtype=np.complex128)
    _assert_huge_pair_normalized(from_amplitudes(raw))
    assert np.array_equal(raw, [1e200, 1e200, 0.0, 0.0])  # input not divided in place


def test_load_nqsv_above_norm_overflow(tmp_path):
    path = tmp_path / "huge.nqsv"
    body = np.array([1e200, 1e200, 0.0, 0.0], dtype="<c16").tobytes()
    path.write_bytes(b"NQSV" + struct.pack("<III", 1, 2, 0) + body)
    _assert_huge_pair_normalized(load_nqsv(path))


def test_non_finite_amplitudes_are_not_a_degenerate_state(tmp_path):
    for raw, bad in (([1.0, np.nan, 0.0, 0.0], 1), ([np.inf, 1.0, 0.0, 0.0], 0)):
        with pytest.raises(NumericError, match=f"amplitude {bad} is") as err:
            from_amplitudes(raw)
        assert not isinstance(err.value, DegenerateStateError)
        # the unchecked constructor's state is refused before a dump is
        # written, since load_nqsv would refuse the dump
        path = tmp_path / f"bad{bad}.nqsv"
        with pytest.raises(NumericError, match=f"amplitude {bad} is"):
            save_nqsv(Statevector(np.array(raw), 2, 1.0), path)
        assert not path.exists()
        path.write_bytes(b"NQSV" + struct.pack("<III", 1, 2, 0) + np.array(raw, dtype="<c16").tobytes())
        with pytest.raises(NumericError, match=f"amplitude {bad} is"):
            load_nqsv(path)
    # a NaN past the first norm block, behind larger finite amplitudes
    raw = np.ones(1 << 17, dtype=np.complex128)
    raw[0] = 5.0
    raw[(1 << 16) + 3] = complex(1.0, np.nan)
    with pytest.raises(NumericError, match=f"amplitude {(1 << 16) + 3} is"):
        from_amplitudes(raw)


def test_save_nqsv_refuses_a_zero_state(tmp_path):
    # load_nqsv would refuse the dump as degenerate, so none is written
    path = tmp_path / "zero.nqsv"
    with pytest.raises(DegenerateStateError):
        save_nqsv(Statevector(np.zeros(4), 2, 1.0), path)
    assert not path.exists()


def cosh_graph(spin_weights) -> ComputationGraph:
    """cos(i * w.s): cosh(800) overflows to inf + nan j."""
    return ComputationGraph(
        [
            Node(0, "nonlinear", spin_weights, activation=Activation("identity", "imag")),
            Node(1, "nonlinear", ((0, 1.0),), activation=Activation("cos")),
            Node(2, "output", ((1, 1.0),), output_mode="amplitude"),
        ],
        n=2,
    )


@pytest.mark.parametrize(
    "spin_weights, bits, first_bad",
    [
        ([(("s", 0), 800.0)], [2, 3, 1], 2),  # every configuration
        ([(("s", 0), 400.0), (("s", 1), 400.0)], [1, 2, 3, 0], 3),  # equal spins only
    ],
)
def test_non_finite_graph_amplitude_names_configuration(spin_weights, bits, first_bad):
    g = cosh_graph(spin_weights)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(AmplitudeOverflowError) as err:
            g.eval_bits(np.array(bits))
        assert err.value.bits == first_bad
        assert f"bits={first_bad:#x}" in str(err.value)
        with pytest.raises(AmplitudeOverflowError) as err:
            materialize(g)
        assert err.value.bits == 0


def test_random_graph_states_normalized():
    gen = np.random.default_rng(30)
    for _ in range(10):
        g = random_evaluable_dag(gen, n=6, max_k=5)
        try:
            psi = materialize(g)
        except DegenerateStateError:
            continue
        assert np.abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def _real_tanh(n: int) -> ComputationGraph:
    # the supp_sn_real_tanh ansatz
    return build_snnqs(SnnqsSpec(n=n, activation="tanh", bias_std=1.0), RngStream(41).child(n))


def _real_aux(n: int):
    r = feature_reduce(_real_tanh(n))
    return r, cheb_fit_multi(r.g_eval, [feature_supnorm(f) for f in r.features], 10)


_EVALUATED = {
    "dicke": lambda: materialize(build_dicke(DickeSpec(8))),
    "supp_sn_real_tanh": lambda: materialize(_real_tanh(8)),
    "dicke_reduced": lambda: materialize(feature_reduce(build_dicke(DickeSpec(8)))),
    "supp_sn_real_tanh_reduced": lambda: materialize(feature_reduce(_real_tanh(8))),
    "real_auxiliary_state": lambda: auxiliary_state(*_real_aux(8)),
    "fig1c_snnqs": lambda: materialize(
        build_snnqs(SnnqsSpec(n=8, activation="i*tanh", bias_std=0.5), RngStream(41).child(0))
    ),
    "transformer": lambda: materialize(
        build_transformer(
            TransformerSpec(n=8, patch=3, stride=2, embed_dim=8, heads=2, layers=1, ffn_width=4),
            RngStream(41).child(1),
            frozen_rng=RngStream(41).child(2),
        )
    ),
    "cosnet": lambda: materialize(build_cosnet(CosnetSpec(n=8, k=2), RngStream(41).child(3))),
}


@pytest.mark.parametrize("name", sorted(_EVALUATED))
def test_state_dtype_follows_realness(name):
    real = name not in ("fig1c_snnqs", "transformer", "cosnet")
    psi = _EVALUATED[name]()
    assert psi.amplitudes.dtype == (np.float64 if real else np.complex128)
    assert not real or np.abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-13


def test_real_state_is_the_real_part_of_its_complex_form():
    for obj in (build_dicke(DickeSpec(12)), _real_tanh(12), feature_reduce(_real_tanh(12))):
        raw = obj.eval_bits(np.arange(1 << 12))
        assert raw.dtype == np.float64
        psi = materialize(obj)
        ref = from_amplitudes(raw.astype(np.complex128))
        assert psi.amplitudes.tobytes() == ref.amplitudes.real.tobytes()
        assert not np.any(ref.amplitudes.imag)
        assert psi.norm_was == ref.norm_was
        same = from_amplitudes(raw)
        assert same.amplitudes.tobytes() == psi.amplitudes.tobytes() and same.norm_was == psi.norm_was


def test_real_state_bytes_ignore_threads():
    # light tapes and the auxiliary state run on the calling thread at any
    # thread count; their chunks on pool threads give the same bytes
    for make in (
        lambda t: materialize(_real_tanh(17), threads=t),
        lambda t: _pooled(_real_tanh(17), t),
        lambda t: _pooled(build_dicke(DickeSpec(18)), t),
        lambda t: auxiliary_state(*_real_aux(17)) if t == 1 else _pooled_auxiliary(*_real_aux(17), t),
    ):
        base = make(1)
        assert base.amplitudes.dtype == np.float64
        for threads in (2, 4):
            other = make(threads)
            assert other.amplitudes.tobytes() == base.amplitudes.tobytes()
            assert other.norm_was == base.norm_was


def _traced_peak(make):
    """``make()`` and the peak of the memory numpy and Python allocated in it."""
    tracemalloc.start()
    try:
        out = make()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_materialize_forms_no_index_array_of_the_state():
    # only each chunk's bits become an array: an index array of all 2^n
    # configurations would add the 8 MiB of the state once more
    g = build_dicke(DickeSpec(20))
    psi, peak = _traced_peak(lambda: materialize(g, threads=2))
    assert peak <= psi.amplitudes.nbytes + _TABLE_BYTES + (1 << 20)


def test_pooled_materialize_stays_within_one_table_budget():
    # the two workers of the transformer's run split the 8 MiB of value
    # tables (11.2 MiB above the state in all); a whole budget on each
    # worker took 21.6 MiB
    g = build_transformer(TransformerSpec(n=16), RngStream(1))
    g.eval_bits(range(4))  # the tape, compiled once per graph, is not a table
    psi, peak = _traced_peak(lambda: materialize(g, threads=2))
    assert peak <= psi.amplitudes.nbytes + _TABLE_BYTES + (4 << 20)


def test_chebyshev_blocks_share_one_buffer():
    # evaluate_unit carves every block's tables from one buffer per call
    # (9.0 MiB above the mu=2 auxiliary state); arrays allocated per block
    # kept the last block's alive while the next one's were made, 13.0 MiB
    r = feature_reduce(build_cosnet(CosnetSpec(n=16, k=1), RngStream(1)))
    assert r.mu == 2
    fit = cheb_fit_multi(r.g_eval, [feature_supnorm(f) for f in r.features], 51)
    psi, peak = _traced_peak(lambda: auxiliary_state(r, fit))
    assert peak <= psi.amplitudes.nbytes + _TABLE_BYTES + (2 << 20)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_nqsv_io_makes_no_whole_state_copy(tmp_path, real):
    # the dump goes out and comes in without a copy of the state's bytes:
    # what remains is the norm's work on one NORM_CHUNK block (one scaled
    # buffer, squared in place, and the sum of its squared halves: 1.5 MiB
    # for a complex block) and, for a real dump, the real part taken from
    # the complex array read
    gen = np.random.default_rng(3)
    raw = gen.normal(size=1 << 18)
    psi = from_amplitudes(raw if real else raw + 1j * gen.normal(size=raw.size))
    path = tmp_path / "state.nqsv"
    work = 3 * NORM_CHUNK * 8 + (64 << 10)
    _, peak = _traced_peak(lambda: save_nqsv(psi, path))
    assert peak <= work
    back, peak = _traced_peak(lambda: load_nqsv(path))
    assert back.amplitudes.tobytes() == psi.amplitudes.tobytes()
    assert peak <= (16 << 18) + work + (psi.amplitudes.nbytes if real else 0)


class _Forwarding:
    """An evaluator that forwards only ``n`` and ``eval_bits``."""

    def __init__(self, obj):
        self.n = obj.n
        self.eval_bits = obj.eval_bits


def test_forwarding_evaluator_gives_the_same_state():
    real = _real_tanh(9)
    cplx = build_snnqs(SnnqsSpec(n=9, activation="i*tanh"), RngStream(41).child(4))
    for g, dtype in ((real, np.float64), (cplx, np.complex128)):
        psi = materialize(_Forwarding(g))
        ref = materialize(g)
        assert psi.amplitudes.dtype == ref.amplitudes.dtype == dtype
        assert psi.amplitudes.tobytes() == ref.amplitudes.tobytes()


def test_real_state_dump_is_complex_on_disk(tmp_path):
    g = _real_tanh(7)
    psi = materialize(g)
    old = from_amplitudes(g.eval_bits(np.arange(1 << 7)).astype(np.complex128))
    save_nqsv(psi, tmp_path / "real.nqsv")
    save_nqsv(old, tmp_path / "complex.nqsv")
    raw = (tmp_path / "real.nqsv").read_bytes()
    assert raw == (tmp_path / "complex.nqsv").read_bytes()
    body = np.frombuffer(raw[16:], dtype="<f8")
    assert body[0::2].tobytes() == psi.amplitudes.tobytes()
    assert not np.signbit(body[1::2]).any() and not body[1::2].any()
    back = load_nqsv(tmp_path / "real.nqsv")
    assert back.amplitudes.dtype == np.float64
    assert back.amplitudes.tobytes() == psi.amplitudes.tobytes()


def test_real_dump_loads_back_real(tmp_path):
    # a real state's dump loads back float64 with the saved bytes, so its
    # entropy is the in-memory one; a phase state's dump stays complex
    dicke = materialize(build_dicke(DickeSpec(10)))
    mlp = materialize(build_mlp(MlpSpec(n=12), RngStream(42).child(0)))
    phase = materialize(build_snnqs(SnnqsSpec(n=12, activation="i*tanh"), RngStream(42).child(1)))
    for psi, dtype in ((dicke, np.float64), (mlp, np.float64), (phase, np.complex128)):
        assert psi.amplitudes.dtype == dtype
        path = tmp_path / "state.nqsv"
        save_nqsv(psi, path)
        back = load_nqsv(path)
        assert back.amplitudes.dtype == dtype
        assert back.amplitudes.tobytes() == psi.amplitudes.tobytes()
        region = Subregion((1 << (psi.n // 2)) - 1, psi.n)
        assert subregion_entropy(back, region).entropy == subregion_entropy(psi, region).entropy
