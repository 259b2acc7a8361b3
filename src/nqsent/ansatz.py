"""Builders for the five state families studied here, with their exact
initialization schemes.

All randomness flows through RngStream so ensembles are reproducible and
trial-parallel. Vector operations that are not affine (LayerNorm, softmax,
attention products) are decomposed into scalar nodes: a product x*y is one
``product`` node, computed as one multiply, variances square through
``poly`` nodes, divisions go through ``recip``/``rsqrt`` nodes. A product
counts two in the graph's k, the squares of ((x+y)^2 - (x-y)^2)/4, so k
reports the exact count of scalar nonlinear operations, which is larger
than the nominal neuron count for LayerNorm and attention architectures.

Every builder first applies one field rule to its spec: an ``int`` field
is an integer >= 1, a ``float`` field a finite number >= 0 (a bool is
neither), a ``bool`` field a bool, a ``str`` field a str and an activation
field an ``Activation`` or a str. A config block may set exactly the fields
of its family's spec.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from .activations import Activation, parse_activation
from .core import RngStream, _is_integer
from .errors import ContractError
from .graph import ComputationGraph, Node

_SQUARE = Activation("poly", coeffs=(0.0, 0.0, 1.0))
_RSQRT = Activation("rsqrt")
_RECIP = Activation("recip")
_LN_EPS = 1e-5
_FROZEN_CHILD = 0x46


# each field annotation (a string under postponed evaluation): what its
# value must be, and the test that says whether it is
_FIELD_RULES = {
    "int": ("an integer >= 1", lambda v: _is_integer(v) and v >= 1),
    "float": (
        "a finite number >= 0",
        lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v) and v >= 0,
    ),
    "bool": ("a bool", lambda v: isinstance(v, bool)),
    "str": ("a str", lambda v: isinstance(v, str)),
    "Activation | str": ("an Activation or a str", lambda v: isinstance(v, (Activation, str))),
}


def _check_fields(spec) -> None:
    """The field rule every builder applies; a ContractError names the
    family and the first field that breaks it."""
    family = type(spec).__name__.removesuffix("Spec").lower()
    for f in fields(spec):
        v = getattr(spec, f.name)
        rule, holds = _FIELD_RULES[f.type]
        if not holds(v):
            raise ContractError(f"{family} ansatz field {f.name!r} must be {rule}, not {v!r}")


def _as_activation(a) -> Activation:
    return a if isinstance(a, Activation) else parse_activation(a)


class _Builder:
    """Accumulates nodes with sequential ids."""

    def __init__(self, n: int):
        self.n = n
        self.nodes: list[Node] = []

    def raw(self, i: int):
        return ("s", i)

    def add(self, kind: str, inputs, bias=0.0, activation=None, output_mode=None) -> int:
        nid = len(self.nodes)
        self.nodes.append(
            Node(id=nid, kind=kind, inputs=tuple(inputs), bias=bias, activation=activation, output_mode=output_mode)
        )
        return nid

    def linear(self, inputs, bias=0.0) -> int:
        return self.add("linear", inputs, bias=bias)

    def neuron(self, activation: Activation, inputs, bias=0.0) -> int:
        return self.add("nonlinear", inputs, bias=bias, activation=activation)

    def product(self, a: int, b: int) -> int:
        """x*y as one product node."""
        return self.add("product", [(a, 1.0), (b, 1.0)])

    def graph(self) -> ComputationGraph:
        return ComputationGraph(self.nodes, self.n)


# ---------------------------------------------------------------------------
# single-nonlinearity states
# ---------------------------------------------------------------------------


@dataclass
class SnnqsSpec:
    n: int
    activation: Activation | str = "tanh"
    parameterization: str = "wrap_exp"  # amplitude exp(sigma(t)) or sigma(t) directly
    weight_std: float = 1.0
    bias_std: float = 1.0


def build_snnqs(spec: SnnqsSpec, rng: RngStream) -> ComputationGraph:
    _check_fields(spec)
    if spec.parameterization not in ("wrap_exp", "direct"):
        raise ContractError(f"unknown parameterization {spec.parameterization!r}")
    gen = rng.generator()
    w = gen.normal(0.0, spec.weight_std, size=spec.n)
    b = gen.normal(0.0, spec.bias_std)
    bld = _Builder(spec.n)
    sigma = bld.neuron(_as_activation(spec.activation), [(bld.raw(i), w[i]) for i in range(spec.n)], bias=b)
    mode = "log_amplitude" if spec.parameterization == "wrap_exp" else "amplitude"
    bld.add("output", [(sigma, 1.0)], output_mode=mode)
    return bld.graph()


# ---------------------------------------------------------------------------
# multilayer perceptron states
# ---------------------------------------------------------------------------


@dataclass
class MlpSpec:
    n: int
    width: int = 3
    depth: int = 2
    activation: Activation | str = "tanh"
    sigma_w: float = 1.0  # scaled by 1/sqrt(fan_in) at each layer
    sigma_b: float = 0.2
    layernorm: bool = True


def _layernorm(bld: _Builder, zs: list[int]) -> list[int]:
    """Exact per-sample LayerNorm over the given scalar nodes."""
    w0 = len(zs)
    mean = bld.linear([(z, 1.0 / w0) for z in zs])
    centered = [bld.linear([(z, 1.0), (mean, -1.0)]) for z in zs]
    squares = [bld.neuron(_SQUARE, [(c, 1.0)]) for c in centered]
    variance = bld.linear([(sq, 1.0 / w0) for sq in squares], bias=_LN_EPS)
    scale = bld.neuron(_RSQRT, [(variance, 1.0)])
    return [bld.product(c, scale) for c in centered]


def build_mlp(spec: MlpSpec, rng: RngStream) -> ComputationGraph:
    _check_fields(spec)
    act = _as_activation(spec.activation)
    gen = rng.generator()
    bld = _Builder(spec.n)

    prev_refs = [bld.raw(i) for i in range(spec.n)]
    for _ in range(spec.depth):
        fan_in = len(prev_refs)
        std = spec.sigma_w / math.sqrt(fan_in)
        W = gen.normal(0.0, std, size=(spec.width, fan_in))
        b = gen.normal(0.0, spec.sigma_b, size=spec.width)
        if spec.layernorm:
            zs = [bld.linear([(r, W[i, j]) for j, r in enumerate(prev_refs)], bias=b[i]) for i in range(spec.width)]
            normed = _layernorm(bld, zs)
            prev_refs = [bld.neuron(act, [(nrm, 1.0)]) for nrm in normed]
        else:
            prev_refs = [
                bld.neuron(act, [(r, W[i, j]) for j, r in enumerate(prev_refs)], bias=b[i])
                for i in range(spec.width)
            ]

    # fixed heads: weight 1 on every last-layer unit, so the state is real;
    # a common complex head weight such as 1+i would only be a global phase
    bld.add("output", [(h, 1.0) for h in prev_refs], output_mode="amplitude")
    return bld.graph()


# ---------------------------------------------------------------------------
# transformer states
# ---------------------------------------------------------------------------


@dataclass
class TransformerSpec:
    n: int
    patch: int = 6
    stride: int = 5
    embed_dim: int = 32
    heads: int = 4
    layers: int = 2
    ffn_width: int = 64
    activation: Activation | str = "tanh"
    sigma_w: float = 1.0
    sigma_b: float = 0.2

    @property
    def tokens(self) -> int:
        return (self.n - self.patch) // self.stride + 1


def build_transformer(
    spec: TransformerSpec, rng: RngStream, frozen_rng: RngStream | None = None
) -> ComputationGraph:
    _check_fields(spec)
    if spec.patch > spec.n:
        raise ContractError(f"patch {spec.patch} larger than n={spec.n}")
    d = spec.embed_dim
    if d % spec.heads != 0:
        raise ContractError(f"embed dim {d} not divisible by {spec.heads} heads")
    d_head = d // spec.heads
    M = spec.tokens
    act = _as_activation(spec.activation)
    gen = rng.generator()
    # embedding and attention; a second generator of rng would replay gen's draws
    fgen = (frozen_rng or rng.child(_FROZEN_CHILD)).generator()

    bld = _Builder(spec.n)

    # patch tokens through a fixed linear embedding
    tokens: list[list] = []
    for j in range(M):
        span = [bld.raw(j * spec.stride + p) for p in range(spec.patch)]
        WE = fgen.normal(0.0, spec.sigma_w / math.sqrt(spec.patch), size=(spec.patch, d))
        tokens.append([bld.linear([(span[p], WE[p, c]) for p in range(spec.patch)]) for c in range(d)])

    for _ in range(spec.layers):
        head_outputs: list[list[list[int]]] = []
        for _h in range(spec.heads):
            std = spec.sigma_w / math.sqrt(d)
            WQ = fgen.normal(0.0, std, size=(d, d_head))
            WK = fgen.normal(0.0, std, size=(d, d_head))
            WV = fgen.normal(0.0, std, size=(d, d_head))
            Q = [[bld.linear([(tokens[j][c], WQ[c, a]) for c in range(d)]) for a in range(d_head)] for j in range(M)]
            K = [[bld.linear([(tokens[j][c], WK[c, a]) for c in range(d)]) for a in range(d_head)] for j in range(M)]
            V = [[bld.linear([(tokens[j][c], WV[c, a]) for c in range(d)]) for a in range(d_head)] for j in range(M)]
            scale = 1.0 / math.sqrt(d_head)
            exps = [[None] * M for _ in range(M)]
            for j in range(M):
                for l in range(M):
                    prods = [bld.product(Q[j][a], K[l][a]) for a in range(d_head)]
                    score = bld.linear([(p, scale) for p in prods])
                    exps[j][l] = bld.neuron(Activation("exp"), [(score, 1.0)])
            attn = [[None] * M for _ in range(M)]
            for j in range(M):
                denom = bld.linear([(exps[j][l], 1.0) for l in range(M)])
                inv = bld.neuron(_RECIP, [(denom, 1.0)])
                for l in range(M):
                    attn[j][l] = bld.product(exps[j][l], inv)
            Z = [
                [
                    bld.linear([(bld.product(attn[j][l], V[l][a]), 1.0) for l in range(M)])
                    for a in range(d_head)
                ]
                for j in range(M)
            ]
            head_outputs.append(Z)
        # concatenate heads back to dimension d
        tokens = [
            [head_outputs[h][j][a] for h in range(spec.heads) for a in range(d_head)] for j in range(M)
        ]

    # per-token feed-forward block (the trial-varying part)
    features: list[int] = []
    for j in range(M):
        W1 = gen.normal(0.0, spec.sigma_w / math.sqrt(d), size=(spec.ffn_width, d))
        b1 = gen.normal(0.0, spec.sigma_b, size=spec.ffn_width)
        W2 = gen.normal(0.0, spec.sigma_w / math.sqrt(spec.ffn_width), size=(d, spec.ffn_width))
        b2 = gen.normal(0.0, spec.sigma_b, size=d)
        hidden = [
            bld.neuron(act, [(tokens[j][c], W1[r, c]) for c in range(d)], bias=b1[r])
            for r in range(spec.ffn_width)
        ]
        features.extend(
            bld.linear([(hidden[r], W2[c, r]) for r in range(spec.ffn_width)], bias=b2[c]) for c in range(d)
        )

    # fixed deterministic heads: all-ones real part, alternating-sign imaginary part
    weights = [(f, 1.0 + 1.0j * (1.0 if idx % 2 == 0 else -1.0)) for idx, f in enumerate(features)]
    bld.add("output", weights, output_mode="log_amplitude")
    return bld.graph()


# ---------------------------------------------------------------------------
# cosine networks
# ---------------------------------------------------------------------------


@dataclass
class CosnetSpec:
    n: int
    k: int = 16  # cosine units per component; the graph carries 2k in total
    sigma_a: float = 10.0
    sigma_w: float = 1.0  # weights ~ N(0, sigma_w^2) near Haar at k >> n; sigma_w/sqrt(n) saturates far below


def build_cosnet(spec: CosnetSpec, rng: RngStream) -> ComputationGraph:
    _check_fields(spec)
    gen = rng.generator()
    bld = _Builder(spec.n)
    cos = Activation("cos")
    out_inputs = []
    for component in range(2):  # real part, then imaginary part
        a = gen.normal(0.0, spec.sigma_a / math.sqrt(spec.k), size=spec.k)
        W = gen.normal(0.0, spec.sigma_w, size=(spec.k, spec.n))
        b = gen.uniform(-math.pi, math.pi, size=spec.k)
        coeff = 1.0 if component == 0 else 1.0j
        for i in range(spec.k):
            unit = bld.neuron(cos, [(bld.raw(j), W[i, j]) for j in range(spec.n)], bias=b[i])
            out_inputs.append((unit, coeff * a[i]))
    bld.add("output", out_inputs, output_mode="amplitude")
    return bld.graph()


# ---------------------------------------------------------------------------
# half-filling superposition (single nonlinearity, deterministic)
# ---------------------------------------------------------------------------


@dataclass
class DickeSpec:
    n: int


def build_dicke(spec: DickeSpec) -> ComputationGraph:
    _check_fields(spec)
    if spec.n % 2 != 0:
        raise ContractError(f"n={spec.n} must be even")
    bld = _Builder(spec.n)
    delta = bld.neuron(Activation("dicke_delta"), [(bld.raw(i), 1.0) for i in range(spec.n)])
    bld.add("output", [(delta, 1.0)], output_mode="amplitude")
    return bld.graph()


# ---------------------------------------------------------------------------
# config-block dispatch used by the experiment runner and CLI
# ---------------------------------------------------------------------------

_FAMILIES = {
    "snnqs": (SnnqsSpec, lambda spec, rng, frozen_rng: build_snnqs(spec, rng)),
    "mlp": (MlpSpec, lambda spec, rng, frozen_rng: build_mlp(spec, rng)),
    "transformer": (TransformerSpec, build_transformer),
    "cosnet": (CosnetSpec, lambda spec, rng, frozen_rng: build_cosnet(spec, rng)),
    "dicke": (DickeSpec, lambda spec, rng, frozen_rng: build_dicke(spec)),
}


def ansatz_from_config(block: dict, rng: RngStream, frozen_rng: RngStream | None = None) -> ComputationGraph:
    """Build from a block {"family": ..., <spec fields>}; other keys, and a
    value the builder's field rule refuses, raise ``ContractError``."""
    block = dict(block)
    family = block.pop("family", None)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ContractError(f"unknown ansatz family {family!r}")
    spec_type, build = _FAMILIES[family]
    unknown = sorted(set(block) - {f.name for f in fields(spec_type)})
    if unknown:
        raise ContractError(f"unknown {family} ansatz key {unknown[0]!r}")
    return build(spec_type(**block), rng, frozen_rng)
