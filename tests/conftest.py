"""Shared helpers: random graph generation and random states."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from nqsent.activations import Activation
from nqsent.errors import AmplitudeOverflowError
from nqsent.graph import ComputationGraph, Node

settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("suite")


_ACT_POOL = [
    Activation("tanh"),
    Activation("sin"),
    Activation("cos"),
    Activation("relu"),
    Activation("gelu"),
    Activation("softplus", beta=1.5),
    Activation("identity"),
    Activation("poly", coeffs=(0.3, -0.5, 0.2)),
    Activation("tanh", mode="imag"),
    Activation("sin", mode="mixed"),
    Activation("tanh", mode="pair", second="sin"),
]
# complex pre-activations are only legal for holomorphic activations
_HOLO_POOL = [a for a in _ACT_POOL if a.holomorphic]


def random_dag(gen: np.random.Generator, n: int, max_k: int, products: bool = False) -> ComputationGraph:
    """One random feed-forward graph: raw spins feed a shuffled mix of linear
    and nonlinear nodes, each reading a random subset of what exists so far.
    With ``products``, one to three product nodes join the mix, each reading
    two picks (possibly the same one twice); without it, the draws are those
    of a graph without products."""
    k = int(gen.integers(0, max_k + 1))
    n_linear = int(gen.integers(0, 4))
    kinds = ["nonlinear"] * k + ["linear"] * n_linear
    if products:
        kinds += ["product"] * int(gen.integers(1, 4))
    gen.shuffle(kinds)
    nodes: list[Node] = []
    refs: list = [("s", i) for i in range(n)]
    complex_valued: dict[int, bool] = {}

    def _is_complex(ref) -> bool:
        return isinstance(ref, int) and complex_valued[ref]

    for kind in kinds:
        if kind == "product":
            chosen = gen.choice(len(refs), size=2)
            inputs = [(refs[int(c)], float(gen.normal(0.0, 1.0))) for c in chosen]
            nid = len(nodes)
            nodes.append(Node(id=nid, kind="product", inputs=tuple(inputs)))
            complex_valued[nid] = any(_is_complex(r) for r, _ in inputs)
            refs.append(nid)
            continue
        count = int(gen.integers(1, min(len(refs), 6) + 1))
        chosen = gen.choice(len(refs), size=count, replace=False)
        scale = 0.8 / np.sqrt(count)
        inputs = [(refs[int(c)], float(gen.normal(0.0, scale))) for c in chosen]
        bias = float(gen.normal(0.0, 0.4))
        nid = len(nodes)
        if kind == "nonlinear":
            pool = _HOLO_POOL if any(_is_complex(r) for r, _ in inputs) else _ACT_POOL
            act = pool[int(gen.integers(0, len(pool)))]
            nodes.append(Node(id=nid, kind="nonlinear", inputs=tuple(inputs), bias=bias, activation=act))
            complex_valued[nid] = act.mode != "real" or any(_is_complex(r) for r, _ in inputs)
        else:
            nodes.append(Node(id=nid, kind="linear", inputs=tuple(inputs), bias=bias))
            complex_valued[nid] = any(_is_complex(r) for r, _ in inputs)
        refs.append(nid)
    # output: affine over a subset; complex weights only on edges from atoms
    out_inputs = []
    pool = list(range(len(nodes))) or []
    if pool:
        count = int(gen.integers(1, len(pool) + 1))
        for c in gen.choice(pool, size=count, replace=False):
            w = float(gen.normal(0.0, 0.5))
            if nodes[int(c)].kind in ("nonlinear", "product") and gen.random() < 0.3:
                out_inputs.append((int(c), complex(w, float(gen.normal(0.0, 0.5)))))
            else:
                out_inputs.append((int(c), w))
    spin_count = int(gen.integers(0 if out_inputs else 1, 3))
    for i in gen.choice(n, size=spin_count, replace=False):
        out_inputs.append((("s", int(i)), float(gen.normal(0.0, 0.3))))
    mode = "log_amplitude" if gen.random() < 0.3 else "amplitude"
    if mode == "log_amplitude":
        out_inputs = [(r, 0.15 * w) for r, w in out_inputs]
    nodes.append(
        Node(
            id=len(nodes),
            kind="output",
            inputs=tuple(out_inputs),
            bias=float(gen.normal(0.0, 0.3)),
            output_mode=mode,
        )
    )
    return ComputationGraph(nodes, n)


def random_evaluable_dag(gen: np.random.Generator, n: int, max_k: int, tries: int = 50) -> ComputationGraph:
    """Random graph that evaluates finitely and non-degenerately on all configs."""
    for _ in range(tries):
        g = random_dag(gen, n, max_k)
        try:
            amps = g.eval_bits(np.arange(1 << n))
        except AmplitudeOverflowError:
            continue
        if np.abs(amps).max() > 1e-12 and np.all(np.isfinite(amps)):
            return g
    raise RuntimeError("no evaluable random graph after retries")


def haar_state(n: int, gen: np.random.Generator) -> np.ndarray:
    raw = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    return raw / np.linalg.norm(raw)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
