import math
import re

import numpy as np
import pytest

from nqsent.ansatz import (
    CosnetSpec,
    DickeSpec,
    MlpSpec,
    SnnqsSpec,
    TransformerSpec,
    ansatz_from_config,
    build_cosnet,
    build_dicke,
    build_mlp,
    build_snnqs,
    build_transformer,
)
from nqsent import experiments
from nqsent.core import RngStream, spin_matrix
from nqsent.errors import ContractError
from nqsent.graph import feature_reduce, to_json
from nqsent.statevector import materialize


def test_snnqs_structure_and_determinism():
    spec = SnnqsSpec(n=6, activation="i*tanh", parameterization="wrap_exp", bias_std=0.5)
    a = build_snnqs(spec, RngStream(1).child(2))
    b = build_snnqs(spec, RngStream(1).child(2))
    assert a.k == 1
    bits = np.arange(64)
    assert np.array_equal(a.eval_bits(bits), b.eval_bits(bits))
    c = build_snnqs(spec, RngStream(1).child(3))
    assert not np.array_equal(a.eval_bits(bits), c.eval_bits(bits))


def test_snnqs_pure_phase_unit_modulus():
    g = build_snnqs(SnnqsSpec(n=8, activation="i*tanh", parameterization="wrap_exp"), RngStream(5).child(0))
    amps = g.eval_bits(np.arange(256))
    assert np.allclose(np.abs(amps), 1.0, atol=1e-12)


def test_snnqs_identity_is_product_graph():
    g = build_snnqs(SnnqsSpec(n=4, activation="identity", parameterization="wrap_exp"), RngStream(7).child(0))
    psi = materialize(g)
    M = psi.amplitudes.reshape(4, 4)
    assert np.linalg.matrix_rank(M, tol=1e-12) == 1


def test_mlp_counts_and_reference():
    spec = MlpSpec(n=6, width=3, depth=2, layernorm=True)
    stream = RngStream(11).child(1)
    g = build_mlp(spec, stream)
    # per layer: width neurons + width squares + rsqrt + 2*width product squares
    assert g.k == spec.depth * (4 * spec.width + 1)

    gen = stream.generator()
    bits = np.arange(64)
    h = spin_matrix(bits, 6).T
    for _ in range(spec.depth):
        fan_in = h.shape[0]
        W = gen.normal(0.0, spec.sigma_w / math.sqrt(fan_in), size=(spec.width, fan_in))
        b = gen.normal(0.0, spec.sigma_b, size=spec.width)
        z = W @ h + b[:, None]
        mean = z.mean(axis=0)
        var = ((z - mean) ** 2).mean(axis=0) + 1e-5
        h = np.tanh((z - mean) / np.sqrt(var))
    ref = h.sum(axis=0)
    got = g.eval_bits(bits)
    # real heads: the state is real, not a global phase times a real state
    assert got.dtype == np.float64
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max() + 1e-14


def test_mlp_plain_counts():
    g = build_mlp(MlpSpec(n=5, width=4, depth=3, layernorm=False), RngStream(2).child(0))
    assert g.k == 12


def test_mlp_mu_is_first_layer_row_rank():
    # without LayerNorm, mu equals the rank of the stacked first-layer
    # (weights, bias) rows: width rows in R^(n+1)
    for width, n, expect in ((3, 10, 3), (8, 4, 5)):
        g = build_mlp(MlpSpec(n=n, width=width, depth=2, layernorm=False), RngStream(6).child(width))
        assert feature_reduce(g).mu == expect


def test_mlp_rejects_zero_depth():
    with pytest.raises(ContractError, match="^mlp ansatz field 'depth' must be an integer >= 1, not 0$"):
        build_mlp(MlpSpec(n=4, width=3, depth=0), RngStream(0).child(0))


def test_transformer_token_counts():
    assert TransformerSpec(n=8, patch=3, stride=2).tokens == 3
    assert TransformerSpec(n=22, patch=6, stride=5).tokens == 4
    assert TransformerSpec(n=8, patch=8, stride=1).tokens == 1


def test_transformer_reference_forward():
    spec = TransformerSpec(n=8, patch=3, stride=2, embed_dim=8, heads=2, layers=2, ffn_width=5)
    trial = RngStream(5).child(7)
    frozen = RngStream(5).child(99)
    g = build_transformer(spec, trial, frozen_rng=frozen)

    fgen = frozen.generator()
    gen = trial.generator()
    bits = np.arange(256)
    S = spin_matrix(bits, 8)
    M, P, d, H = spec.tokens, spec.patch, spec.embed_dim, spec.heads
    dh = d // H
    toks = []
    for j in range(M):
        WE = fgen.normal(0.0, spec.sigma_w / math.sqrt(P), size=(P, d))
        toks.append(S[:, [j * spec.stride + p for p in range(P)]] @ WE)
    X = np.stack(toks, axis=1)
    for _ in range(spec.layers):
        outs = []
        for _h in range(H):
            std = spec.sigma_w / math.sqrt(d)
            WQ = fgen.normal(0.0, std, size=(d, dh))
            WK = fgen.normal(0.0, std, size=(d, dh))
            WV = fgen.normal(0.0, std, size=(d, dh))
            Q, K, V = X @ WQ, X @ WK, X @ WV
            scores = np.einsum("bja,bla->bjl", Q, K) / math.sqrt(dh)
            e = np.exp(scores)
            A = e / e.sum(axis=2, keepdims=True)
            outs.append(np.einsum("bjl,bla->bja", A, V))
        X = np.concatenate(outs, axis=2)
    feats = []
    for j in range(M):
        W1 = gen.normal(0.0, spec.sigma_w / math.sqrt(d), size=(spec.ffn_width, d))
        b1 = gen.normal(0.0, spec.sigma_b, size=spec.ffn_width)
        W2 = gen.normal(0.0, spec.sigma_w / math.sqrt(spec.ffn_width), size=(d, spec.ffn_width))
        b2 = gen.normal(0.0, spec.sigma_b, size=d)
        feats.append(np.tanh(X[:, j, :] @ W1.T + b1) @ W2.T + b2)
    F = np.concatenate(feats, axis=1)
    sign = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(F.shape[1])])
    ref = np.exp(F.sum(axis=1) + 1j * (F @ sign))
    got = g.eval_bits(bits)
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


def test_transformer_reduced_form_keeps_small_products():
    # the fig1c_tnqs graph of preset seed 8, trial 0, multiplies values near
    # 4244 by recip outputs near 1/4248 at configuration 65073; written as
    # ((x+y)^2 - (x-y)^2) / 4 that lost about 7 digits, and the reduced form
    # then moved by 2.5e-9 relative with the BLAS path of its features
    cfg = next(c for c in experiments.preset_configs("fig1c") if c.name == "fig1c_tnqs")
    n, base = cfg.n_grid[0], RngStream(8)
    g = ansatz_from_config(
        dict(cfg.ansatz, n=n),
        base.child(experiments._BUILD_LABEL, n, 0, 0),
        frozen_rng=base.child(experiments._FROZEN_LABEL, n, 0),
    )
    r = feature_reduce(g)
    config = 65073
    full = g.eval_bits(np.array([config]))[0]
    block = np.random.default_rng(8).integers(0, 1 << n, size=4096)
    block[1000] = config
    for got in (r.eval_bits(np.array([config]))[0], r.eval_bits(block)[1000]):
        assert abs(got - full) <= 1e-12 * abs(full)


def test_transformer_frozen_parts_shared_across_trials():
    spec = TransformerSpec(n=8, patch=3, stride=2, embed_dim=4, heads=2, layers=1, ffn_width=3)
    frozen = RngStream(1).child(50)
    g1 = build_transformer(spec, RngStream(1).child(0), frozen_rng=frozen)
    g2 = build_transformer(spec, RngStream(1).child(1), frozen_rng=frozen)
    # attention sub-structure identical: compare a Q-projection linear node
    lin1 = [n for n in g1.nodes.values() if n.kind == "linear"][0]
    lin2 = [n for n in g2.nodes.values() if n.kind == "linear"][0]
    assert lin1.inputs == lin2.inputs
    bits = np.arange(256)
    assert not np.array_equal(g1.eval_bits(bits), g2.eval_bits(bits))  # FFN varies


def test_transformer_frozen_weights_default_to_a_child_stream():
    spec = TransformerSpec(n=8, patch=3, stride=2, embed_dim=4, heads=2, layers=1, ffn_width=4)
    trial = RngStream(6).child(0)
    g = build_transformer(spec, trial)
    explicit = build_transformer(spec, trial, frozen_rng=trial.child(0x46))
    assert to_json(g) == to_json(explicit)
    # the embedding and the first feed-forward layer are separate draws: no
    # W1 weight is an embedding weight times the ratio of their scales
    ratio = (spec.sigma_w / math.sqrt(spec.embed_dim)) / (spec.sigma_w / math.sqrt(spec.patch))
    nodes = g.nodes.values()
    embed = [w.real for node in nodes for r, w in node.inputs if isinstance(r, tuple)]
    tanh = [node for node in nodes if node.activation is not None and node.activation.kind == "tanh"]
    ffn = [w.real for node in tanh for _, w in node.inputs]
    assert len(embed) == spec.tokens * spec.patch * spec.embed_dim
    assert len(ffn) == spec.tokens * spec.ffn_width * spec.embed_dim
    assert not set(np.round(np.array(embed) * ratio, 12)) & set(np.round(ffn, 12))


def test_transformer_single_token_softmax_degenerates():
    spec = TransformerSpec(n=6, patch=6, stride=1, embed_dim=6, heads=1, layers=1, ffn_width=4)
    g = build_transformer(spec, RngStream(3).child(0), frozen_rng=RngStream(3).child(9))
    # with one token, A = [1]; the state must evaluate finitely and normalize
    psi = materialize(g)
    assert np.isfinite(psi.amplitudes).all()


def test_transformer_patch_too_large():
    with pytest.raises(ContractError):
        build_transformer(TransformerSpec(n=4, patch=6), RngStream(0).child(0))


@pytest.mark.parametrize(
    "build, spec, message",
    [
        (build_snnqs, SnnqsSpec(n=4, parameterization="polar"), "unknown parameterization 'polar'"),
        (build_transformer, TransformerSpec(n=8, patch=3, stride=0), "transformer ansatz field 'stride' must be an integer >= 1, not 0"),
        (build_transformer, TransformerSpec(n=8, patch=3, embed_dim=10, heads=4), "embed dim 10 not divisible by 4 heads"),
    ],
    ids=["snnqs_parameterization", "transformer_stride", "transformer_heads"],
)
def test_builders_refuse_bad_specs(build, spec, message):
    with pytest.raises(ContractError, match=f"^{message}$"):
        build(spec, RngStream(0).child(0))


_SPECS = {
    "snnqs": (SnnqsSpec, build_snnqs),
    "mlp": (MlpSpec, build_mlp),
    "transformer": (TransformerSpec, build_transformer),
    "cosnet": (CosnetSpec, build_cosnet),
}
_SPINS = {"snnqs": 6, "mlp": 6, "transformer": 12, "cosnet": 6, "dicke": 6}


@pytest.mark.parametrize(
    "family, key, value",
    [
        ("transformer", "heads", 0),
        ("transformer", "heads", -1),
        ("transformer", "embed_dim", 0),
        ("transformer", "patch", -1),
        ("transformer", "stride", -1),
        ("transformer", "layers", -1),
        ("transformer", "layers", 0),
        ("transformer", "ffn_width", 0),
        ("transformer", "sigma_w", -1.0),
        ("transformer", "sigma_b", -0.5),
        ("mlp", "width", -1),
        ("mlp", "depth", 0),
        ("mlp", "sigma_w", -1.0),
        ("mlp", "sigma_b", math.nan),
        ("snnqs", "n", 0),
        ("snnqs", "weight_std", -1.0),
        ("snnqs", "bias_std", math.inf),
        ("cosnet", "k", -2),
        ("cosnet", "sigma_a", -1.0),
        ("cosnet", "sigma_w", -0.1),
        ("dicke", "n", 0),
        ("dicke", "n", -2),
        ("snnqs", "activation", 3),
        ("mlp", "layernorm", "no"),
    ],
)
def test_builders_apply_one_field_rule(family, key, value):
    fields = {"n": _SPINS[family], key: value}
    rule = {"activation": "an Activation or a str", "layernorm": "a bool"}.get(key)
    rule = rule or ("an integer >= 1" if isinstance(value, int) else "a finite number >= 0")
    message = f"^{re.escape(f'{family} ansatz field {key!r} must be {rule}, not {value!r}')}$"
    rng = RngStream(0).child(0)
    with pytest.raises(ContractError, match=message):
        if family == "dicke":
            build_dicke(DickeSpec(**fields))
        else:
            spec_type, build = _SPECS[family]
            build(spec_type(**fields), rng)
    with pytest.raises(ContractError, match=message):
        ansatz_from_config({"family": family, **fields}, rng)


def test_cosnet_structure():
    g = build_cosnet(CosnetSpec(n=6, k=5), RngStream(8).child(0))
    assert g.k == 10  # k units for each of the two components
    r = feature_reduce(g)
    assert r.mu <= g.k + 1


def test_cosnet_single_unit_mu():
    g = build_cosnet(CosnetSpec(n=6, k=1), RngStream(8).child(1))
    r = feature_reduce(g)
    assert r.mu <= 3


def test_cosnet_coefficient_scaling():
    # a_i ~ N(0, sigma_a^2/k): sample std shrinks with k
    spec = CosnetSpec(n=4, k=4096, sigma_a=10.0)
    gen = RngStream(123).child(0).generator()
    a = gen.normal(0.0, spec.sigma_a / math.sqrt(spec.k), size=spec.k)
    assert np.std(a) == pytest.approx(10.0 / math.sqrt(4096), rel=0.05)
    g = build_cosnet(spec, RngStream(123).child(0))
    out = g.output_node
    weights = np.array([w for _, w in out.inputs])
    assert np.std(weights[: spec.k].real) == pytest.approx(np.std(a), rel=1e-12)


def test_cosnet_rejects_k0():
    with pytest.raises(ContractError, match="^cosnet ansatz field 'k' must be an integer >= 1, not 0$"):
        build_cosnet(CosnetSpec(n=4, k=0), RngStream(0).child(0))


def test_dicke_small_states():
    psi2 = materialize(build_dicke(DickeSpec(2)))
    assert np.allclose(np.abs(psi2.amplitudes), [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
    psi4 = materialize(build_dicke(DickeSpec(4)))
    assert np.sum(np.abs(psi4.amplitudes) > 1e-14) == 6
    assert np.allclose(np.abs(psi4.amplitudes[np.abs(psi4.amplitudes) > 1e-14]), 1 / math.sqrt(6))


def test_dicke_odd_rejected():
    with pytest.raises(ContractError):
        build_dicke(DickeSpec(3))


def test_every_builder_validates_and_bounds_mu():
    stream = RngStream(77)
    builds = [
        build_snnqs(SnnqsSpec(n=6), stream.child(0)),
        build_mlp(MlpSpec(n=6, width=2, depth=2), stream.child(1)),
        build_transformer(
            TransformerSpec(n=6, patch=3, stride=3, embed_dim=4, heads=2, layers=1, ffn_width=3),
            stream.child(2),
            frozen_rng=stream.child(3),
        ),
        build_cosnet(CosnetSpec(n=6, k=3), stream.child(4)),
        build_dicke(DickeSpec(6)),
    ]
    for g in builds:
        r = feature_reduce(g)
        assert r.mu <= g.k + 1


def test_ansatz_from_config_dispatch():
    g = ansatz_from_config({"family": "dicke", "n": 4}, RngStream(0).child(0))
    assert g.k == 1
    with pytest.raises(ContractError):
        ansatz_from_config({"family": "rbm", "n": 4}, RngStream(0).child(0))
    with pytest.raises(ContractError, match="unknown ansatz family"):
        ansatz_from_config({"family": ["dicke"], "n": 4}, RngStream(0).child(0))


@pytest.mark.parametrize(
    "block, key",
    [
        ({"family": "mlp", "n": 4, "heads": "ones"}, "heads"),
        ({"family": "mlp", "n": 4, "output_mode": "amplitude"}, "output_mode"),
        ({"family": "cosnet", "n": 4, "k": 1, "weight_scale": "bogus"}, "weight_scale"),
        ({"family": "transformer", "n": 6, "frozen": False}, "frozen"),
        ({"family": "dicke", "n": 4, "k": 2}, "k"),
    ],
)
def test_ansatz_from_config_refuses_unknown_keys(block, key):
    with pytest.raises(ContractError, match=f"unknown {block['family']} ansatz key '{key}'"):
        ansatz_from_config(block, RngStream(0).child(0))


@pytest.mark.parametrize(
    "block, key, rule",
    [
        ({"family": "snnqs", "n": 4, "activation": 5}, "activation", "an Activation or a str"),
        ({"family": "snnqs", "n": 4, "bias_std": "a"}, "bias_std", "a finite number >= 0"),
        ({"family": "mlp", "n": 4, "width": "2"}, "width", "an integer >= 1"),
        ({"family": "cosnet", "n": 4, "k": 2.5}, "k", "an integer >= 1"),
        ({"family": "cosnet", "n": 4, "k": True}, "k", "an integer >= 1"),
        ({"family": "snnqs", "n": 4, "weight_std": False}, "weight_std", "a finite number >= 0"),
        ({"family": "mlp", "n": 4, "layernorm": 1}, "layernorm", "a bool"),
    ],
    ids=["activation_int", "float_str", "int_str", "int_float", "int_bool", "float_bool", "bool_int"],
)
def test_ansatz_from_config_refuses_wrong_value_types(block, key, rule):
    message = f"{block['family']} ansatz field {key!r} must be {rule}, not {block[key]!r}"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        ansatz_from_config(block, RngStream(0).child(0))


def test_ansatz_from_config_takes_numpy_and_integer_values():
    # numpy integers count as int, and any real but a bool as float
    rng = RngStream(0).child(0)
    block = {"family": "cosnet", "n": np.int64(4), "k": np.int32(2), "sigma_a": 10, "sigma_w": np.float32(1.0)}
    bits = np.arange(16)
    expected = build_cosnet(CosnetSpec(n=4, k=2), rng).eval_bits(bits)
    assert np.array_equal(ansatz_from_config(block, rng).eval_bits(bits), expected)
