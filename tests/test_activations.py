import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nqsent.activations import Activation, format_activation, parse_activation
from nqsent.ansatz import SnnqsSpec, build_snnqs
from nqsent.approx import reduced_certificate
from nqsent.core import RngStream, feature_supnorm
from nqsent.errors import ContractError, NumericError
from nqsent.graph import feature_reduce


def test_tanh_zero():
    assert Activation("tanh").apply(0.0) == 0.0


def test_dicke_delta_on_integers():
    act = Activation("dicke_delta")
    xs = np.arange(-24, 25, dtype=float)
    vals = act.apply(xs)
    expect = (xs == 0).astype(float)
    assert np.array_equal(vals.real, expect)
    assert np.all(vals.imag == 0)


def test_dicke_delta_pointwise_examples():
    act = Activation("dicke_delta")
    assert [act.apply(x).real for x in (-2, -1, 0, 1, 2)] == [0, 0, 1, 0, 0]


def test_sin_mixed_mode():
    val = Activation("sin", mode="mixed").apply(math.pi / 2)
    assert val == pytest.approx((1 + 1j) * 1.0, abs=1e-15)


def test_imag_mode():
    assert Activation("tanh", mode="imag").apply(0.5) == pytest.approx(1j * math.tanh(0.5))


def test_pair_mode_exact_combination():
    act = Activation("tanh", mode="pair", second="sin")
    xs = np.linspace(-2, 2, 41)
    got = act.apply(xs)
    assert np.array_equal(got, np.tanh(xs) + 1j * np.sin(xs))


def test_gelu_exact_gaussian_cdf():
    act = Activation("gelu")
    assert act.apply(0.0) == 0.0
    # x * Phi(x) at x=1 with the exact normal CDF
    assert act.apply(1.0).real == pytest.approx(0.8413447460685429, abs=1e-15)
    assert act.apply(-10.0).real == pytest.approx(0.0, abs=1e-12)


@given(st.floats(-40, 40), st.floats(0.5, 50))
def test_softplus_relu_envelope(x, beta):
    sp = Activation("softplus", beta=beta).apply(x).real
    relu = max(x, 0.0)
    assert abs(sp - relu) <= math.log(2.0) / beta + 1e-12


def test_poly_eval():
    act = Activation("poly", coeffs=(1.0, 0.0, 2.0))
    assert act.apply(3.0).real == pytest.approx(19.0)


@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 1.0), (0.3, -0.5, 0.2), (2.5,), (-1.0, 4.0), (1e-3, -2.0, 0.0, 3.5, -1.25)])
def test_poly_bitwise_equal_to_polyval(coeffs):
    gen = np.random.default_rng(len(coeffs))
    act = Activation("poly", coeffs=coeffs)
    for shape in [(37,), (5, 9)]:
        real = gen.normal(size=shape)
        for x in (real, real + 1j * gen.normal(size=shape)):
            y = act.apply(x)
            ref = np.polynomial.polynomial.polyval(x, np.asarray(coeffs))
            assert y.dtype == ref.dtype and y.shape == ref.shape
            assert y.tobytes() == ref.tobytes()


def test_non_finite_rejected():
    with pytest.raises(NumericError):
        Activation("tanh").apply(float("nan"))


def test_complex_input_policy():
    v = Activation("sin").apply(np.array([1j]))
    assert v[0] == pytest.approx(np.sin(1j))
    with pytest.raises(NumericError):
        Activation("relu").apply(np.array([1j]))


def test_parse_format_roundtrip():
    cases = [
        "tanh",
        "i*tanh",
        "(1+i)*gelu",
        "tanh+i*sin",
        "softplus(2.0)",
        "poly(1.0,0.0,2.0)",
        "i*poly(0.5,1.0)",
    ]
    for text in cases:
        act = parse_activation(text)
        assert parse_activation(format_activation(act)) == act


def test_parse_rejects_garbage():
    with pytest.raises(ContractError):
        parse_activation("warp")
    with pytest.raises(ContractError):
        parse_activation("softplus")
    for text, message in (
        ("tanh(", "cannot parse activation 'tanh('"),
        ("poly", "poly requires coefficients, e.g. poly(1,0,2)"),
        ("tanh(2)", "activation 'tanh' takes no arguments"),
        ("tanh+i*softplus(2)", "pair mode second kind cannot carry parameters"),
    ):
        with pytest.raises(ContractError, match=re.escape(message)):
            parse_activation(text)


@pytest.mark.parametrize(
    "params, message",
    [
        ({"kind": "tanh", "mode": "double"}, "unknown complex mode 'double'"),
        ({"kind": "tanh", "mode": "pair"}, "pair mode requires a valid second kind"),
        ({"kind": "tanh", "mode": "pair", "second": "warp"}, "pair mode requires a valid second kind"),
        ({"kind": "softplus", "beta": 0.0}, "softplus requires beta > 0"),
        ({"kind": "softplus"}, "softplus requires beta > 0"),
        ({"kind": "softplus", "beta": float("inf")}, "beta inf is not finite"),
        ({"kind": "poly", "coeffs": (1.0, float("nan"))}, "poly coefficients (1.0, nan) are not all finite"),
    ],
)
def test_activation_rejects_bad_fields(params, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        Activation(**params)


@pytest.mark.parametrize(
    "kind, x, message",
    [("rsqrt", [1.0, 0.0], "rsqrt argument must be positive"), ("rsqrt", [-4.0], "rsqrt argument must be positive"),
     ("recip", [2.0, 0.0], "recip argument must be nonzero")],
)
def test_division_kinds_refuse_their_poles(kind, x, message):
    with pytest.raises(NumericError, match=f"^{message}$"):
        Activation(kind).apply(np.array(x))
    # a complex argument is refused before the function sees it
    with pytest.raises(NumericError, match=f"^activation {kind} does not accept complex input$"):
        Activation(kind).apply(np.array(x) + 1j)


def _one_feature(activation, parameterization="wrap_exp", scale=1.0):
    """Reduced form G(t) of a one-feature snnqs graph, and its domain t_bar."""
    spec = SnnqsSpec(6, activation, parameterization, weight_std=scale, bias_std=scale)
    r = feature_reduce(build_snnqs(spec, RngStream(12).child(0)))
    assert r.mu == 1
    return r, feature_supnorm(r.features[0])


def _ellipse(a, count):
    theta = 2.0 * math.pi * np.arange(count) / count
    return np.cosh(a) * np.cos(theta) + 1j * np.sinh(a) * np.sin(theta)


def test_degree_only_for_polynomial_parts():
    assert Activation("identity").degree == 1
    assert Activation("poly", coeffs=(0.3, 0.0, 2.0, 0.0)).degree == 2
    assert Activation("poly", "imag", coeffs=(0.0,)).degree == 0
    assert Activation("poly", "pair", second="identity", coeffs=(1.0, 0.0, 0.0, 4.0)).degree == 3
    for text in ("tanh", "sin", "exp", "relu", "softplus(2.0)", "identity+i*sin", "sin+i*identity"):
        assert parse_activation(text).degree is None
    with pytest.raises(ContractError):
        Activation("identity", "pair", second="poly")  # the second part needs coefficients too


def test_pole_distance_of_nearest_singularity():
    for text in ("sin", "cos", "exp", "identity", "poly(1,2)", "i*sin", "sin+i*cos"):
        assert parse_activation(text).pole_distance is None
    for text in ("tanh", "i*tanh", "tanh+i*sin", "sin+i*tanh"):
        assert parse_activation(text).pole_distance == math.pi / 2
    # evaluators that are no analytic continuation certify no strip at all
    for text in ("relu", "softplus(2.0)", "recip", "sin+i*relu"):
        assert parse_activation(text).pole_distance == 0.0


def test_analyticity_none_for_nonanalytic():
    for kind in ("relu", "gelu", "dicke_delta", "rsqrt", "recip"):
        r, _ = _one_feature(kind)
        assert reduced_certificate(r) is None


def test_analyticity_entire_returns_valid_bound():
    r, t_bar = _one_feature("sin", "direct")
    cert = reduced_certificate(r)
    assert cert is not None and cert.exact_degree is None
    assert cert.a > 0 and cert.C > 0
    # oracle: dense boundary sampling must stay below the inflated bound
    t = t_bar * _ellipse(cert.a, 4096)
    vals = np.sin(t)
    assert np.allclose(r.residual.eval_ports(t[None, :]), vals)
    assert np.abs(vals).max() <= cert.C


def test_analyticity_exp_tanh_pole_margin():
    # tanh(t) has poles at t = i pi/2; the ellipse scaled by t_bar must stay
    # 10% inside them, and the sup bound must dominate a dense boundary sample
    r, t_bar = _one_feature("i*tanh")
    cert = reduced_certificate(r)
    assert cert is not None
    assert t_bar * math.sinh(cert.a) <= 0.9 * math.pi / 2 * (1 + 1e-12)
    t = t_bar * _ellipse(cert.a, 40_000)
    vals = np.exp(1j * np.tanh(t))
    assert np.allclose(r.residual.eval_ports(t[None, :]), vals)
    assert np.isfinite(vals).all()
    assert np.abs(vals).max() <= cert.C


def test_analyticity_scales_with_t_bar():
    r1, t1 = _one_feature("tanh")
    r4, t4 = _one_feature("tanh", scale=4.0)
    assert t4 == pytest.approx(4.0 * t1)
    # farther reach means a slimmer safe ellipse
    assert reduced_certificate(r4).a < reduced_certificate(r1).a


def test_exp_overflow_guard():
    with pytest.raises(Exception):
        Activation("exp").apply(np.array([800.0]))
