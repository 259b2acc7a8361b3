import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_dag, random_evaluable_dag

from nqsent.activations import EXP_OVERFLOW_LIMIT, Activation
from nqsent.core import HARD_SPIN_CAP, RngStream, spin_matrix
from nqsent.errors import AmplitudeOverflowError, CapacityError, ContractError, CycleError, NumericError
from nqsent.graph import (
    ComputationGraph,
    Node,
    feature_reduce,
    from_json,
    to_json,
    _THREAD_SPAN,
    _bit_pieces,
    _is_raw,
    _run_chunks,
    _scratch,
)
from nqsent.ansatz import MlpSpec, SnnqsSpec, TransformerSpec, build_mlp, build_snnqs, build_transformer


def chain_graph():
    return ComputationGraph(
        [
            Node(0, "input", ((("s", 0), 1.0),)),
            Node(1, "nonlinear", (((0), 1.0),), activation=Activation("tanh")),
            Node(2, "output", ((1, 1.0),), output_mode="amplitude"),
        ],
        n=1,
    )


def test_toposort_chain():
    g = chain_graph()
    assert g.order == [0, 1, 2]


def test_toposort_4in_4hidden_example():
    # 4 inputs feed 2 first-level neurons, those feed 2 more, then the output
    tanh = Activation("tanh")
    nodes = [Node(i, "input", ((("s", i), 1.0),)) for i in range(4)]
    nodes += [
        Node(4, "nonlinear", ((0, 0.5), (1, 0.5), (2, 0.5), (3, 0.5)), activation=tanh),
        Node(5, "nonlinear", ((0, 0.3), (1, 0.3), (3, 0.3)), activation=tanh),
        Node(6, "nonlinear", ((4, 1.0), (5, -1.0)), activation=tanh),
        Node(7, "nonlinear", ((5, 0.7),), activation=tanh),
        Node(8, "output", ((6, 1.0), (7, 1.0)), output_mode="amplitude"),
    ]
    g = ComputationGraph(nodes, n=4)
    pos = {nid: i for i, nid in enumerate(g.order)}
    for inp in range(4):
        for hid in (4, 5, 6, 7):
            assert pos[inp] < pos[hid]
    for hid in (4, 5, 6, 7):
        assert pos[hid] < pos[8]


def test_cycle_detected_and_named():
    tanh = Activation("tanh")
    nodes = [
        Node(0, "nonlinear", ((1, 1.0), (("s", 0), 1.0)), activation=tanh),
        Node(1, "nonlinear", ((0, 1.0),), activation=tanh),
        Node(2, "output", ((0, 1.0),), output_mode="amplitude"),
    ]
    with pytest.raises(CycleError) as err:
        ComputationGraph(nodes, n=1)
    assert set(err.value.cycle) >= {0, 1}


def test_self_loop_cycle():
    nodes = [
        Node(0, "nonlinear", ((0, 0.5),), activation=Activation("tanh")),
        Node(1, "output", ((0, 1.0),), output_mode="amplitude"),
    ]
    with pytest.raises(CycleError):
        ComputationGraph(nodes, n=1)


def test_eval_linear_direct():
    g = ComputationGraph(
        [Node(0, "output", ((("s", 0), 1.0), (("s", 1), 1.0)), output_mode="amplitude")], n=2
    )
    assert np.array_equal(g.eval_bits(np.arange(4)), [-2.0, 0.0, 0.0, 2.0])


def test_eval_dicke_graph_is_indicator():
    from nqsent.ansatz import DickeSpec, build_dicke

    g = build_dicke(DickeSpec(4))
    expect = [1.0 if bin(bits).count("1") == 2 else 0.0 for bits in range(16)]
    assert np.array_equal(g.eval_bits(np.arange(16)), expect)


def test_eval_identity_activation_equals_affine():
    gen = np.random.default_rng(0)
    w = gen.normal(size=4)
    b = float(gen.normal())
    g = ComputationGraph(
        [
            Node(0, "nonlinear", tuple((("s", i), w[i]) for i in range(4)), bias=b, activation=Activation("identity")),
            Node(1, "output", ((0, 1.0),), output_mode="amplitude"),
        ],
        n=4,
    )
    expect = spin_matrix(np.arange(16), 4) @ w + b
    assert np.allclose(g.eval_bits(np.arange(16)), expect, rtol=1e-14, atol=0.0)


def test_feature_reduce_linear_net():
    g = ComputationGraph(
        [Node(0, "output", ((("s", 0), 0.5), (("s", 1), -1.5)), bias=0.25, output_mode="amplitude")], n=2
    )
    r = feature_reduce(g)
    assert r.mu == 1
    bits = np.arange(4)
    assert np.allclose(r.eval_bits(bits), g.eval_bits(bits), rtol=1e-13, atol=0.0)


def test_feature_reduce_single_nonlinearity():
    g = build_snnqs(SnnqsSpec(n=6, activation="tanh", parameterization="direct"), RngStream(1).child(0))
    r = feature_reduce(g)
    assert r.mu == 1  # the output row is a pure constant and is folded


def test_feature_reduce_snnqs_wrap_exp_matches_composition():
    g = build_snnqs(SnnqsSpec(n=5, activation="sin", parameterization="wrap_exp"), RngStream(2).child(0))
    r = feature_reduce(g)
    assert r.mu == 1
    t = 0.37
    assert r.g_eval(np.array([[t]]))[0] == pytest.approx(np.exp(np.sin(t)), rel=1e-13)


def test_feature_reduce_mlp_width3_depth2():
    g = build_mlp(MlpSpec(n=10, width=3, depth=2, layernorm=False), RngStream(7).child(0))
    r = feature_reduce(g)
    assert g.k == 6
    assert r.mu == 3  # second-layer pre-activations carry no direct spin part


def test_reduced_matches_full_exhaustive_mlp():
    g = build_mlp(MlpSpec(n=10, width=3, depth=2, layernorm=False), RngStream(8).child(1))
    r = feature_reduce(g)
    bits = np.arange(1 << 10)
    full = g.eval_bits(bits)
    red = r.eval_bits(bits)
    scale = np.abs(full).max()
    assert np.abs(full - red).max() <= 1e-12 * scale


def test_reduced_mlp_w5d2_matches_full():
    g = build_mlp(MlpSpec(n=10, width=5, depth=2, layernorm=False), RngStream(1).child(0))
    r = feature_reduce(g)
    assert r.mu == 5
    bits = np.arange(1 << 10)
    assert np.abs(g.eval_bits(bits) - r.eval_bits(bits)).max() <= 1e-12


def test_reduced_linear_output_matches_full():
    # nothing to reduce: a single linear output is its own one feature
    g = ComputationGraph(
        [Node(0, "output", tuple((("s", i), 0.1 * (i + 1)) for i in range(8)), bias=0.05, output_mode="amplitude")],
        n=8,
    )
    r = feature_reduce(g)
    assert r.mu == 1
    bits = np.arange(1 << 8)
    assert np.abs(g.eval_bits(bits) - r.eval_bits(bits)).max() <= 1e-12


def test_residual_keeps_the_original_dag():
    # a dense rewrite over k nonlinear outputs gives each node up to k edges;
    # the residual keeps the original edges plus at most mu ports per node
    spec = TransformerSpec(n=11, patch=6, stride=5, embed_dim=8, heads=2, ffn_width=8)
    g = build_transformer(spec, RngStream(0))
    r = feature_reduce(g)
    assert (g.k, r.mu) == (328, 11)
    live_edges = sum(1 for nid in g.live_order for ref, _ in g.nodes[nid].inputs if not _is_raw(ref))
    residual_edges = sum(len(node.inputs) for node in r.residual.nodes.values())
    assert residual_edges <= live_edges + r.mu * (r.k + 1)
    # beyond the original ids: product factors over ports, numbered after them
    factors = set(r.residual.nodes) - set(g.live_order)
    product_reads = {ref for node in r.residual.nodes.values() if node.kind == "product" for ref, _ in node.inputs}
    assert factors and min(factors) > max(g.nodes) and factors <= product_reads
    assert all(r.residual.nodes[f].kind == "linear" for f in factors)


def test_feature_reduce_idempotent():
    for seed in range(5):
        g = random_evaluable_dag(np.random.default_rng(seed), n=6, max_k=5)
        r = feature_reduce(g)
        r2 = feature_reduce(r.residual)
        assert r2.mu == r.mu


def test_mu_bounded_by_k_plus_one_randomized():
    gen = np.random.default_rng(99)
    for _ in range(50):
        g = random_dag(gen, n=int(gen.integers(2, 9)), max_k=8)
        r = feature_reduce(g)
        assert r.mu <= g.k + 1


def test_dead_node_elimination_preserves_eval():
    tanh = Activation("tanh")
    nodes = [
        Node(0, "nonlinear", ((("s", 0), 0.8), (("s", 1), -0.2)), activation=tanh),
        Node(1, "nonlinear", ((("s", 1), 0.5),), activation=tanh),  # dead: not co-reachable
        Node(2, "linear", ((1, 2.0),)),  # dead chain
        Node(3, "output", ((0, 1.0),), bias=0.1, output_mode="amplitude"),
    ]
    g = ComputationGraph(nodes, n=2)
    assert g.dead == {1, 2}
    assert g.k == 1  # live nonlinear count
    pruned = ComputationGraph([v for nid, v in g.nodes.items() if nid not in g.dead], g.n)
    bits = np.arange(4)
    assert np.array_equal(g.eval_bits(bits), pruned.eval_bits(bits))


def test_constant_source_nodes_still_count():
    # a bias-only linear node feeding the output is co-reachable, not dead
    nodes = [
        Node(0, "linear", (), bias=2.5),
        Node(1, "output", ((0, 1.0), (("s", 0), 1.0)), output_mode="amplitude"),
    ]
    g = ComputationGraph(nodes, n=1)
    assert g.dead == set()
    assert g.eval_bits(np.array([1]))[0] == pytest.approx(3.5)


def test_json_roundtrip_preserves_eval():
    gen = np.random.default_rng(12)
    for _ in range(10):
        g = random_evaluable_dag(gen, n=5, max_k=6)
        doc = json.loads(json.dumps(to_json(g)))
        g2 = from_json(doc)
        bits = np.arange(32)
        assert np.array_equal(g.eval_bits(bits), g2.eval_bits(bits))
        assert g2.k == g.k


def test_json_raw_spin_reference_format():
    g = chain_graph()
    doc = to_json(g)
    assert doc["nodes"][0]["inputs"][0]["from"] == "s_1"
    assert from_json(doc).n == 1


TANH, RELU, I_TANH = Activation("tanh"), Activation("relu"), Activation("tanh", "imag")

# rule -> (the nodes that break it, ids 5 and 6, the output reading node 5
# when live, the error type, its message)
_RULES = {
    "missing reference": ([Node(5, "linear", ((7, 1.0),))], ContractError, "node 5 references missing node 7"),
    "spin out of range": ([Node(5, "linear", ((("s", 2), 1.0),))], ContractError, "node 5 reads spin 2 outside 0..1"),
    "reads the output": ([Node(5, "linear", ((9, 1.0),))], ContractError, "node 5 reads the output node"),
    "input reads two spins": (
        [Node(5, "input", ((("s", 0), 1.0), (("s", 1), 1.0)))],
        ContractError,
        "input node 5 must read exactly one raw spin",
    ),
    "input reads a node": (
        [Node(5, "input", ((1, 1.0),))],
        ContractError,
        "input node 5 must read exactly one raw spin",
    ),
    "complex parameter": (
        [Node(5, "linear", ((0, 1.0),), bias=0.5j)],
        ContractError,
        "node 5: complex parameters are only allowed at the output",
    ),
    "cycle": (
        [Node(5, "linear", ((6, 1.0),)), Node(6, "linear", ((5, 1.0),))],
        CycleError,
        "graph contains a directed cycle: 5 -> 6 -> 5",
    ),
    "non-holomorphic on complex": (
        [Node(6, "nonlinear", ((0, 1.0),), activation=I_TANH), Node(5, "nonlinear", ((6, 1.0),), activation=RELU)],
        ContractError,
        "node 5: activation relu cannot take a complex pre-activation",
    ),
}


def graph_with(extra: list, live: bool, out_weight: complex = 1.0) -> ComputationGraph:
    """tanh(s_0) into the output, plus ``extra`` nodes; the output reads
    node 5 when ``live``."""
    out = ((1, 1.0), (5, out_weight)) if live else ((1, 1.0),)
    nodes = [
        Node(0, "input", ((("s", 0), 1.0),)),
        Node(1, "nonlinear", ((0, 1.0),), activation=TANH),
        *extra,
        Node(9, "output", out, output_mode="amplitude"),
    ]
    return ComputationGraph(nodes, n=2)


@pytest.mark.parametrize("live", [True, False], ids=["live", "dead"])
@pytest.mark.parametrize("rule", list(_RULES))
def test_construction_rule_on_live_and_dead_nodes(rule, live):
    extra, error, message = _RULES[rule]
    if rule == "non-holomorphic on complex" and not live:
        # the rule reads realness, which only live nodes get: a dead relu
        # on i*tanh is accepted
        g = graph_with(extra, live)
        assert g.dead == {5, 6} and g.k == 1
        return
    with pytest.raises(error) as err:
        graph_with(extra, live)
    assert type(err.value) is error
    assert str(err.value) == message


def test_complex_weight_restrictions():
    tanh = Activation("tanh")
    with pytest.raises(ContractError, match="^node 0: complex parameters are only allowed at the output$"):
        # complex weight on a non-output node
        ComputationGraph(
            [
                Node(0, "nonlinear", ((("s", 0), 1.0 + 1.0j),), activation=tanh),
                Node(1, "output", ((0, 1.0),), output_mode="amplitude"),
            ],
            n=1,
        )
    spin_edge = "^complex output weights are only allowed on edges without direct spin dependence$"
    with pytest.raises(ContractError, match=spin_edge):
        # complex output weight on an edge with direct spin dependence
        ComputationGraph(
            [Node(0, "output", ((("s", 0), 1.0j),), output_mode="amplitude")], n=1
        )
    with pytest.raises(ContractError, match=spin_edge):
        # ... or on a linear node that reads a spin; an output edge makes its
        # source live, so this rule has no dead case
        graph_with([Node(5, "linear", ((0, 1.0), (("s", 1), 1.0)))], live=True, out_weight=1j)
    # a nonlinear output passes no direct spin dependence on, also through a linear node
    atom_fed = [Node(6, "nonlinear", ((0, 1.0),), activation=TANH), Node(5, "linear", ((6, 2.0),))]
    assert graph_with(atom_fed, live=True, out_weight=1j).k == 2
    # complex output weight on a nonlinear-fed edge is fine
    g = ComputationGraph(
        [
            Node(0, "nonlinear", ((("s", 0), 1.0),), activation=tanh),
            Node(1, "output", ((0, 1.0j),), output_mode="amplitude"),
        ],
        n=1,
    )
    assert g.eval_bits(np.array([1]))[0] == pytest.approx(1j * np.tanh(1.0))


def test_output_uniqueness_enforced():
    with pytest.raises(ContractError, match="^graph needs exactly one output node, found 0$"):
        ComputationGraph([Node(0, "linear", ((("s", 0), 1.0),))], n=1)
    with pytest.raises(ContractError, match="^graph needs exactly one output node, found 2$"):
        ComputationGraph(
            [
                Node(0, "output", ((("s", 0), 1.0),), output_mode="amplitude"),
                Node(1, "output", ((("s", 0), 1.0),), output_mode="amplitude"),
            ],
            n=1,
        )


def test_eval_bits_thread_determinism():
    g = build_mlp(MlpSpec(n=8, width=4, depth=2), RngStream(5).child(3))
    bits = np.arange(256)
    for ev in (g, feature_reduce(g)):
        a = ev.eval_bits(bits, threads=1, chunk=32)
        b = ev.eval_bits(bits, threads=4, chunk=32)
        assert np.array_equal(a, b)
        # chunking only splits the work: one chunk gives the same amplitudes
        assert np.array_equal(a, ev.eval_bits(bits, chunk=256))
        # a batch large enough for pool threads
        many = np.arange(2 * _THREAD_SPAN) % 256
        pooled = ev.eval_bits(many, threads=2, chunk=1 << 12)
        assert np.array_equal(pooled, ev.eval_bits(many, threads=1, chunk=1 << 12))


def bit_batch(gen: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Configuration bits in every shape ``eval_bits`` takes, and for each
    the index of its configuration in the aligned ascending range that
    leads the batch: that range shuffled, an unaligned run, duplicates, and
    the duplicates with bits set above n."""
    span = min(1 << n, 128)
    start = span * int(gen.integers(0, (1 << n) // span))
    perm = gen.permutation(span)
    run = np.arange(1 + int(gen.integers(0, span - 1)) if span > 1 else 0, span)
    dups = gen.integers(0, span, size=32)
    index = np.concatenate([np.arange(span), perm, run, dups, dups])
    bits = start + index
    bits[-len(dups):] |= gen.integers(1, 1 << 20, size=len(dups)) << n
    return bits, index


def check_bits_path(g: ComputationGraph, gen: np.random.Generator) -> None:
    """Bytes independent of chunk, thread count, order and bits above n;
    level-1 rows within rounding of the tape's sequential sums."""
    n = g.n
    bits, index = bit_batch(gen, n)
    for ev in (g, feature_reduce(g)):
        head = bits[: int(index.max()) + 1]
        try:
            ref = ev.eval_bits(head, chunk=len(head))
        except NumericError:
            for chunk in (1, 64):
                with pytest.raises(NumericError):
                    ev.eval_bits(bits, chunk=chunk)
            continue
        expected = ref[index].tobytes()
        for chunk in (1, 7, 64, 1 << 12):
            for threads in (1, 2):
                assert ev.eval_bits(bits, threads=threads, chunk=chunk).tobytes() == expected
        # a batch large enough for pool threads
        many = np.resize(bits, 2 * _THREAD_SPAN)
        pooled = ev.eval_bits(many, threads=2, chunk=1 << 12)
        assert pooled.tobytes() == ref[np.resize(index, len(many))].tobytes()
        assert pooled.tobytes() == ev.eval_bits(many, threads=1, chunk=1 << 12).tobytes()

    tape = g._tape(False, bits=True)
    table = np.zeros((max(tape.sizes), len(bits)))
    table[0] = 1.0
    table[1 : 1 + n] = spin_matrix(bits, n).T
    eps = np.finfo(np.float64).eps
    for step in tape.steps:
        if step.spins is None:
            continue
        sequential = step.matrix @ table[: step.matrix.shape[1]]
        tol = (n + 1) * eps * abs(step.matrix[:, : 1 + n]).sum(axis=1)
        got = step.spins.values(_bit_pieces(bits, n), len(bits))
        assert np.all(np.abs(got - sequential) <= tol[:, None])


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_bits_path_is_batch_independent(seed, products):
    gen = np.random.default_rng(seed)
    g = random_dag(gen, int(gen.integers(2, 9)), 6, products=products)
    check_bits_path(g, gen)


def _spin_graphs():
    return {
        # the output reads the one spin: a level-1 log-amplitude
        "n1_output": ComputationGraph(
            [Node(0, "output", ((("s", 0), 0.7),), bias=0.1, output_mode="log_amplitude")], 1
        ),
        # a level-1 product step and a level-1 affine node; the nonlinear
        # node and the output read raw spins past level 1, so their port rows
        # come from the bits
        "n2_product": ComputationGraph(
            [
                Node(0, "product", ((("s", 0), 0.3), (("s", 1), -1.7))),
                Node(1, "linear", ((("s", 1), 2.5),), bias=-0.5),
                Node(2, "nonlinear", ((0, 1.1), (1, 0.3), (("s", 1), 0.4)), bias=0.2,
                     activation=Activation("tanh", mode="imag")),
                Node(3, "output", ((2, 0.5 - 0.25j), (("s", 0), 0.3)), bias=0.2 + 0.1j, output_mode="amplitude"),
            ],
            2,
        ),
        # a level-1 output with a complex bias: a complex low table
        "n2_complex_bias": ComputationGraph(
            [Node(0, "output", ((("s", 0), 0.5), (("s", 1), -0.25)), bias=1.0 + 2.0j, output_mode="amplitude")], 2
        ),
    }


@pytest.mark.parametrize("name", list(_spin_graphs()))
def test_bits_path_on_small_graphs(name):
    g = _spin_graphs()[name]
    bits = np.arange(1 << g.n)
    expected = reference_eval(g, spin_matrix(bits, g.n).T)
    np.testing.assert_allclose(g.eval_bits(bits), expected, rtol=1e-15, atol=1e-15)
    check_bits_path(g, np.random.default_rng(len(name)))


def test_spin_tables_refuse_more_spins_than_the_cap():
    # two tables of 2^(n/2) entries per row: beyond the statevector cap they
    # could outgrow memory, so eval_bits refuses them with a typed error
    n = HARD_SPIN_CAP + 1
    g = ComputationGraph([Node(0, "output", ((("s", n - 1), 1.0),), output_mode="amplitude")], n)
    for ev in (g, feature_reduce(g)):
        with pytest.raises(CapacityError):
            ev.eval_bits(np.array([0, 1 << (n - 1)]))
    # ports still evaluate
    assert g.eval_ports(np.ones((n, 1))).tolist() == [1.0]


@pytest.mark.parametrize("reduced", [False, True], ids=["graph", "reduced"])
def test_overflow_names_configuration_past_first_chunk(reduced):
    # log-amplitude 700 s_7 + s_0 + ... + s_6 exceeds the exp limit 700 only
    # when spin 7 is up (bits >= 128), i.e. from the third 64-config chunk on
    n = 8
    g = ComputationGraph(
        [
            Node(0, "nonlinear", tuple((("s", i), 700.0 if i == 7 else 1.0) for i in range(n)),
                 activation=Activation("identity")),
            Node(1, "output", ((0, 1.0),), output_mode="log_amplitude"),
        ],
        n=n,
    )
    ev = feature_reduce(g) if reduced else g
    with pytest.raises(AmplitudeOverflowError) as err:
        ev.eval_bits(np.arange(1 << n), threads=2, chunk=64)
    bits = err.value.bits
    assert bits >= 128
    assert f"bits={bits:#x}" in str(err.value)
    with pytest.raises(AmplitudeOverflowError):
        ev.eval_bits(np.array([bits]))
    # the same from pool threads, over a batch large enough to start them
    with pytest.raises(AmplitudeOverflowError) as err:
        ev.eval_bits(np.arange(2 * _THREAD_SPAN), threads=2, chunk=64)
    assert 128 <= err.value.bits < 192
    assert f"bits={err.value.bits:#x}" in str(err.value)


def test_pool_threads_start_from_two_thread_spans():
    seen = set()

    def fn(start, stop):
        seen.add(threading.get_ident())
        return np.arange(start, stop)

    count = 2 * _THREAD_SPAN - 1
    assert np.array_equal(_run_chunks(fn, count, threads=2, chunk=1 << 13), np.arange(count))
    assert seen == {threading.get_ident()}
    seen.clear()
    count += 1
    assert np.array_equal(_run_chunks(fn, count, threads=2, chunk=1 << 13), np.arange(count))
    assert seen and threading.get_ident() not in seen


def test_scratch_lives_for_one_chunk_run():
    # every chunk of a run, and every run nested in it, gets the thread's one
    # buffer; it goes when the outermost run ends, so no graph or fit holds
    # table storage between runs
    serial = []

    def fn(start, stop):
        serial.append(_scratch(16))
        _run_chunks(lambda a, b: np.zeros(b - a), 2)
        serial.append(_scratch(16))
        return np.zeros(stop - start)

    _run_chunks(fn, 8, chunk=4)
    assert len(serial) == 4 and all(np.shares_memory(serial[0], b) for b in serial)
    assert not np.shares_memory(_scratch(16), _scratch(16))
    with pytest.raises(ZeroDivisionError):
        _run_chunks(lambda a, b: 1 / 0, 8, chunk=4)
    assert not np.shares_memory(_scratch(16), _scratch(16))

    pooled = {}

    def pooled_fn(start, stop):
        pooled.setdefault(threading.get_ident(), []).append(_scratch(16))
        return np.zeros(stop - start)

    _run_chunks(pooled_fn, 2 * _THREAD_SPAN, threads=2, chunk=1 << 13)
    assert sum(map(len, pooled.values())) == 16
    for bufs in pooled.values():
        assert all(np.shares_memory(bufs[0], b) for b in bufs)


def test_random_graphs_reduced_eval_matches():
    gen = np.random.default_rng(77)
    for _ in range(25):
        n = int(gen.integers(2, 8))
        g = random_evaluable_dag(gen, n=n, max_k=6)
        r = feature_reduce(g)
        bits = np.arange(1 << n)
        full = g.eval_bits(bits)
        red = r.eval_bits(bits)
        scale = max(np.abs(full).max(), 1e-300)
        assert np.abs(full - red).max() <= 1e-12 * scale


def unfused_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(ar br - ai bi) + i (ar bi + ai br), with no fused multiply-add."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = np.real(a) * np.real(b) - np.imag(a) * np.imag(b)
    out.imag = np.real(a) * np.imag(b) + np.imag(a) * np.real(b)
    return out


def reference_eval(g: ComputationGraph, ports: np.ndarray) -> np.ndarray:
    """Per-node, per-edge forward pass: bias plus each weighted input in
    input order; a product multiplies its two factors (0 + w_a x_a) and
    (0 + w_b x_b). A complex weight times a complex value, and a complex
    product, are unfused as ``unfused_product``, as the sparse tape forms them."""
    complex_ports = np.iscomplexobj(ports)
    values = {}

    def affine(bias: complex, inputs) -> np.ndarray:
        acc = np.full(ports.shape[1], bias if complex_ports or bias.imag else bias.real)
        for ref, w in inputs:
            x = ports[ref[1]] if _is_raw(ref) else values[ref]
            term = unfused_product(w, x) if w.imag and np.iscomplexobj(x) else (w if w.imag else w.real) * x
            acc = acc + term
        return acc

    # as in Activation.apply, overflow and invalid values pass silently and
    # the non-finite result is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for nid in g.live_order:
            node = g.nodes[nid]
            if node.kind == "product":
                a, b = (affine(0j, [edge]) for edge in node.inputs)
                values[nid] = unfused_product(a, b) if np.iscomplexobj(a) or np.iscomplexobj(b) else a * b
                continue
            acc = affine(node.bias, node.inputs)
            if node.kind == "nonlinear":
                acc = node.activation.apply(acc)
            elif node.kind == "output" and node.output_mode == "log_amplitude":
                if np.max(acc.real) > EXP_OVERFLOW_LIMIT:
                    raise AmplitudeOverflowError("exp argument too large")
                acc = np.exp(acc)
            values[nid] = acc
    if not np.isfinite(values[g.output_id]).all():
        raise AmplitudeOverflowError("non-finite amplitude")
    return np.asarray(values[g.output_id], dtype=np.complex128)


def with_dead_nodes(g: ComputationGraph, gen: np.random.Generator) -> ComputationGraph:
    """The same graph plus two nodes the output does not read."""
    nodes = list(g.nodes.values())
    last = max(g.nodes)
    refs = [("s", i) for i in range(g.n)] + [nid for nid in g.nodes if g.nodes[nid].kind != "output"]
    picks = [refs[int(i)] for i in gen.choice(len(refs), size=min(3, len(refs)), replace=False)]
    nodes.append(Node(last + 1, "nonlinear", tuple((r, 0.5) for r in picks), bias=-0.3, activation=Activation("relu")))
    nodes.append(Node(last + 2, "linear", ((last + 1, 2.0),), bias=1.0))
    return ComputationGraph(nodes, g.n)


def check_tape_against_reference(g: ComputationGraph, gen: np.random.Generator) -> None:
    """Spins over more than one sub-block, and complex ports (ellipse points)."""
    n = g.n
    spins = gen.choice([-1.0, 1.0], size=(n, g._tape(False).width + 3))
    shape = (n, g._tape(True).width + 5)
    points = gen.normal(0.0, 0.5, size=shape) + 1j * gen.normal(0.0, 0.5, size=shape)
    for ports in (spins, points):
        try:
            expected = reference_eval(g, ports)
        except NumericError as exc:
            with pytest.raises(type(exc)):
                g.eval_ports(ports)
            continue
        np.testing.assert_array_equal(g.eval_ports(ports), expected)


@given(st.integers(0, 2**32 - 1))
def test_tape_matches_reference_evaluator(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 7))
    g = with_dead_nodes(random_dag(gen, n, 8), gen)
    assert len(g.dead) >= 2
    check_tape_against_reference(g, gen)


def test_overflow_in_later_sub_block_reports_global_bits():
    # exp(700.5 t_0) overflows only in the one column where port 0 is 1
    g = ComputationGraph([Node(0, "output", ((("s", 0), 700.5),), output_mode="log_amplitude")], n=1)
    width = g._tape(False).width
    ports = np.zeros((1, 3 * width))
    column = 2 * width + 7
    ports[0, column] = 1.0
    with pytest.raises(AmplitudeOverflowError) as err:
        g.eval_ports(ports)
    assert err.value.bits == column
    # as configurations: spin 0 is up only at the odd bits of that column
    bits = np.arange(3 * width, dtype=np.int64) * 10 + 4
    bits[column] += 7
    with pytest.raises(AmplitudeOverflowError) as err:
        g.eval_bits(bits, chunk=len(bits))
    assert err.value.bits == bits[column]
    assert f"bits={bits[column]:#x}" in str(err.value)


def test_eval_ports_rejects_wrong_port_count():
    with pytest.raises(ContractError):
        chain_graph().eval_ports(np.ones((2, 3)))


@given(st.integers(0, 2**32 - 1))
def test_product_graphs_match_reference_and_reduce(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 7))
    g = random_dag(gen, n, 6, products=True)
    assert any(node.kind == "product" for node in g.nodes.values())
    check_tape_against_reference(g, gen)
    r = feature_reduce(g)
    assert r.mu <= g.k + 1
    bits = np.arange(1 << n)
    try:
        full = g.eval_bits(bits)
    except AmplitudeOverflowError:
        return
    scale = max(float(np.abs(full).max()), 1e-300)
    assert np.abs(full - r.eval_bits(bits)).max() <= 1e-12 * scale


def product_graph() -> ComputationGraph:
    """(2 s_0 + 0.5) * i tanh(s_1) * s_0, through a linear node and a product of a product."""
    return ComputationGraph(
        [
            Node(0, "linear", ((("s", 0), 2.0),), bias=0.5),
            Node(1, "nonlinear", ((("s", 1), 1.0),), activation=I_TANH),
            Node(2, "product", ((0, 1.0), (1, -0.5))),
            Node(3, "product", ((2, 1.0), (("s", 0), 1.0))),
            Node(4, "output", ((3, 1.0 + 2.0j), (("s", 1), 0.25)), output_mode="amplitude"),
        ],
        n=2,
    )


def test_product_node_counts_two_and_round_trips():
    g = product_graph()
    assert g.k == 1 + 2 * 2  # one activation and two products
    s0, s1 = spin_matrix(np.arange(4), 2).T
    expected = (2 * s0 + 0.5) * (-0.5j * np.tanh(s1)) * s0 * (1 + 2j) + 0.25 * s1
    np.testing.assert_allclose(g.eval_bits(np.arange(4)), expected, rtol=1e-15)
    doc = json.loads(json.dumps(to_json(g)))
    assert [node["kind"] for node in doc["nodes"]].count("product") == 2
    g2 = from_json(doc)
    assert g2.k == g.k and g2.nodes == g.nodes
    assert np.array_equal(g2.eval_bits(np.arange(4)), g.eval_bits(np.arange(4)))
    r = feature_reduce(g)
    assert r.mu <= g.k + 1
    assert np.abs(r.eval_bits(np.arange(4)) - g.eval_bits(np.arange(4))).max() <= 1e-15


@pytest.mark.parametrize(
    "inputs,params",
    [(((("s", 0), 1.0),), {}), (((("s", 0), 1.0),) * 3, {}), (((("s", 0), 1.0),) * 2, {"bias": 0.5})],
    ids=["one input", "three inputs", "bias"],
)
def test_product_node_shape_rules(inputs, params):
    with pytest.raises(ContractError, match="^product node 3 needs exactly two inputs, no bias and no activation$"):
        Node(3, "product", inputs, **params)


def test_product_is_the_float_product():
    # polarization, ((x+y)^2 - (x-y)^2) / 4, loses about 7 digits here
    x, y = 4244.0, 1.0 / 4248
    g = ComputationGraph(
        [
            Node(0, "linear", ((("s", 0), x),)),
            Node(1, "linear", (), bias=y),
            Node(2, "product", ((0, 1.0), (1, 1.0))),
            Node(3, "output", ((2, 1.0),), output_mode="amplitude"),
        ],
        n=1,
    )
    assert g.eval_bits(np.array([0, 1])).tolist() == [-x * y, x * y]
    assert ((x + y) ** 2 - (x - y) ** 2) / 4 != x * y
