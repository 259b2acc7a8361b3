import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.polynomial import chebyshev

from oracles import cheb_fit_1d

from nqsent import approx, entanglement
from nqsent.activations import Activation
from nqsent.ansatz import CosnetSpec, DickeSpec, SnnqsSpec, build_cosnet, build_dicke, build_snnqs
from nqsent.approx import (
    Certificate,
    ChebyshevApprox,
    _auto_degree,
    auxiliary_state,
    bernstein_bound,
    cheb_fit_multi,
    full_bound_report,
    rank_bound,
    reduced_certificate,
)
from nqsent.core import RngStream, Subregion, feature_supnorm
from nqsent.cli import main
from nqsent.errors import CapacityError, ContractError, DegenerateStateError, DomainError, NqsError, NumericError
from nqsent.graph import ComputationGraph, Node, feature_reduce, save_graph
from nqsent.statevector import materialize, two_norm_distance
from nqsent.entanglement import subregion_entropy


def test_fit_chebyshev_polynomial_exact():
    fit = cheb_fit_1d(lambda t: 4 * t**3 - 3 * t, 1.0, 3)
    assert np.allclose(fit.coeffs.real, [0, 0, 0, 1], atol=1e-14)
    assert fit.error_empirical < 1e-13


def test_fit_x_squared():
    fit = cheb_fit_1d(lambda t: t * t, 1.0, 2)
    assert np.allclose(fit.coeffs.real, [0.5, 0.0, 0.5], atol=1e-14)


def test_fit_domain_rescaling():
    fit = cheb_fit_1d(np.sin, 3.0, 25)
    xs = np.linspace(-3, 3, 100)
    assert np.abs(fit.evaluate(xs[None, :]) - np.sin(xs)).max() < 1e-12


def test_runge_like_geometric_rate():
    # poles at +-i/2 give rho = (1+sqrt(5))/2
    ds = np.arange(4, 25)
    errs = [cheb_fit_1d(lambda t: 1.0 / (1.0 + 4.0 * t * t), 1.0, int(d)).error_empirical for d in ds]
    slope = np.polyfit(ds, np.log(errs), 1)[0]
    assert slope == pytest.approx(-math.log((1 + math.sqrt(5)) / 2), rel=0.05)


def test_certified_bound_dominates_empirical():
    g = build_snnqs(SnnqsSpec(6, "sin", "direct"), RngStream(12).child(0))
    r = feature_reduce(g)
    cert = reduced_certificate(r)
    t_bar = feature_supnorm(r.features[0])
    for d in (4, 8, 12):
        fit = cheb_fit_1d(lambda t: r.g_eval(t[None, :]), t_bar, d)
        assert fit.error_empirical <= cert.error_bound(d, 1)


def test_multi_reduces_to_1d():
    def G(t):
        return np.exp(np.sin(t[0]))

    a = cheb_fit_multi(G, (1.5,), 9)
    b = cheb_fit_1d(lambda t: np.exp(np.sin(t)), 1.5, 9)
    assert np.allclose(a.coeffs, b.coeffs)


def test_fit_rejects_nonpositive_domain():
    with pytest.raises(DomainError):
        cheb_fit_1d(np.sin, 0.0, 4)
    with pytest.raises(DomainError):
        cheb_fit_multi(lambda t: t[0] * t[1], (1.0, -2.0), 4)


def test_multi_separable_outer_product():
    def G(t):
        return np.sin(t[0]) * np.cos(t[1])

    fit = cheb_fit_multi(G, (1.0, 2.0), 10)
    ca = cheb_fit_1d(np.sin, 1.0, 10).coeffs
    cb = cheb_fit_1d(np.cos, 2.0, 10).coeffs
    assert np.abs(fit.coeffs - np.outer(ca, cb)).max() < 1e-12
    # off-grid evaluation error is the truncation error of the 1-D factors
    pts = np.stack([np.linspace(-1, 1, 57), np.linspace(-2, 2, 57)])
    assert np.abs(fit.evaluate(pts) - G(pts)).max() < 1e-7
    assert fit.error_empirical < 1e-7


def test_multi_polynomial_exact():
    def G(t):
        return (t[0] ** 2) * (0.5 - t[1]) + 1.0

    fit = cheb_fit_multi(G, (1.0, 1.0), 3)
    assert fit.error_empirical < 1e-13


def _chebval_nd(x, c):
    """numpy's Chebyshev series of c at the columns of x, any number of variables."""
    if len(x) <= 3:
        return (chebyshev.chebval, chebyshev.chebval2d, chebyshev.chebval3d)[len(x) - 1](*x, c)
    basis = np.eye(c.shape[0])
    return sum(chebyshev.chebval(x[0], basis[i]) * _chebval_nd(x[1:], c[i]) for i in range(c.shape[0]))


def _assert_matches_chebval(mu, d, count, seed):
    gen = np.random.default_rng(seed)
    c = gen.standard_normal((d + 1,) * mu) + 1j * gen.standard_normal((d + 1,) * mu)
    x = gen.uniform(-1.0, 1.0, (mu, count))
    # complex coefficients, then real ones stored as complex (a fit of a real
    # G), which skip the imaginary product and give float64 values
    for coeffs, dtype in ((c, np.complex128), (c.real + 0j, np.float64)):
        fit = ChebyshevApprox(coeffs, (1.0,) * mu, d, 0.0)
        assert fit.real == (dtype == np.float64)
        got = fit.evaluate_unit(x)
        assert got.shape == (count,) and got.dtype == dtype
        if count:
            assert np.abs(got - _chebval_nd(x, coeffs)).max() <= 1e-13 * np.abs(coeffs).sum()


@pytest.mark.parametrize("mu,degrees", [(1, (0, 1, 15, 16, 40)), (2, (0, 1, 9)), (3, (0, 1, 5)), (4, (0, 1, 3))])
def test_evaluate_unit_matches_numpy_chebyshev(monkeypatch, mu, degrees):
    # a 4 KiB budget makes blocks of 3 to 170 columns: 97 columns fit in one
    # block at degree 0 with mu <= 3 and at mu=1 degree 1, and elsewhere
    # cross two or more blocks and end in a ragged one; degrees 15, 16 and 40
    # give mu=1 tables of 16, 17 and 41 rows, each contracted in one product
    monkeypatch.setattr(approx, "_TABLE_BYTES", 4096)
    for d in degrees:
        for count in (0, 1, 97):
            _assert_matches_chebval(mu, d, count, seed=100 * mu + d)


@pytest.mark.parametrize("mu,d,count", [(1, 207, 100_003), (2, 51, 12_000)])
def test_evaluate_unit_blocks_at_full_budget(mu, d, count):
    # the bound_chain degrees: 21 blocks at mu=1 and 2 (real) or 3 (complex)
    # at mu=2, the last ragged in each
    _assert_matches_chebval(mu, d, count, seed=mu)


def test_evaluate_rejects_malformed_points():
    fit = cheb_fit_multi(lambda t: t[0] * t[1], (1.0, 2.0), 3)
    for bad in (np.zeros((1, 4)), np.zeros((3, 4)), np.zeros(4), np.zeros((2, 2, 2))):
        for method in (fit.evaluate, fit.evaluate_unit):
            with pytest.raises(ContractError):
                method(bad)
    with pytest.raises(ContractError):
        fit.evaluate_unit(np.zeros((2, 4), dtype=np.complex128))
    # the contraction reshapes the coefficients, so a tensor that does not
    # match the degree and the variable count is refused, not mis-contracted
    for shape in ((4, 4, 1), (16,), (3, 4)):
        with pytest.raises(ContractError):
            ChebyshevApprox(np.ones(shape, dtype=complex), (1.0, 2.0), 3, 0.0).evaluate_unit(np.zeros((2, 4)))


@pytest.mark.parametrize(
    "G, t_bars, d, error, message",
    [
        (lambda t: t, (), 3, ContractError, "need at least one variable"),
        (np.sin, (1.0,), -1, DomainError, "degree must be nonnegative"),
        (np.sin, (1.0,), 2.5, ContractError, "degree must be an integer, got 2.5"),
        (np.sin, (1.0,), True, ContractError, "degree must be an integer, got True"),
        (lambda t: t[0] * np.inf, (1.0, 1.0), 3, NumericError, "function not finite on the quadrature grid"),
    ],
    ids=["no_variables", "negative_degree", "non_finite", "fractional_degree", "bool_degree"],
)
def test_multi_fit_refuses(G, t_bars, d, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        cheb_fit_multi(G, t_bars, d)


def test_multi_capacity():
    with pytest.raises(CapacityError):
        cheb_fit_multi(lambda t: t[0], (1.0,) * 5, 3)


def test_multi_quadrature_point_cap():
    # mu=4 uses K = 2(d+1) nodes per axis: d=22 needs 46^4 = 4.48M points,
    # just above the 2^22 = 4.19M cap, and must fail before G is called
    def G(t):
        raise AssertionError("G evaluated despite the point cap")

    with pytest.raises(CapacityError):
        cheb_fit_multi(G, (1.0,) * 4, 22)


def test_rank_bound_values():
    assert rank_bound(2, 1) == 6
    assert rank_bound(0, 5) == 1
    assert rank_bound(3, 2) == 100
    # big integers stay exact
    assert rank_bound(1000, 4) == (1001 * 1002 // 2) ** 4


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rank_bound(-1, 1), "need d >= 0 and mu >= 1"),
        (lambda: rank_bound(2, 0), "need d >= 0 and mu >= 1"),
    ],
)
def test_degree_rules_refuse_their_domain(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def degree_for_n(n: int, a: float, C: float) -> int:
    """Reference for the one-variable auto degree: the smallest d with
    2 C rho^-d / (rho - 1) <= 2^(-n/2) / (4n), solved for d in closed form."""
    value = (n / (2.0 * a)) * math.log(2.0) + math.log(n) / a + math.log(8.0 * C / (math.exp(a) - 1.0)) / a
    return max(0, math.ceil(value))


def degree_for_n_multi(n: int, rho_star: float, C: float, mu: int) -> int:
    """Reference for the auto degree of mu variables, rho_star = e^a: the
    smallest d with bernstein_bound(a, C, d, mu) <= 2^(-n/2) / (4n^2), solved
    for d in closed form."""
    log_r = math.log(rho_star)
    value = (
        n * math.log(2.0) / (2.0 * log_r)
        + 2.0 * math.log(n) / log_r
        + math.log(C * 2.0 ** (mu + 2) * mu * (rho_star - 1.0) ** (-mu) * rho_star ** (mu - 1)) / log_r
    )
    return max(0, math.ceil(value))


def _auto(n: int, a: float, C: float, mu: int = 1) -> int:
    return _auto_degree(Certificate(a=a, C=C, exact_degree=None), n, mu)


def test_auto_degree_matches_the_closed_forms():
    # the first degree whose fit needs more than FIT_POINT_CAP points, or a
    # (d+1) x K coefficient table above it, ends the search; cheb_fit_multi
    # refuses it. The table binds at mu=1 only
    def size(d, mu):
        K = (4 if mu <= 2 else 2) * (d + 1)
        return max(K**mu, (d + 1) * K)

    unfit = {mu: next(d for d in range(1 << 21) if size(d, mu) > approx.FIT_POINT_CAP) for mu in range(1, 5)}
    assert unfit == {1: 1024, 2: 512, 3: 80, 4: 22}
    grid = [
        (n, a, 10.0**e, mu)
        for n in range(2, 41)
        for a in sorted({0.1, 0.2, 1.0 / 3.0, 0.5, math.log(2.0), 1.0, 2.0, 3.5, *approx._A_GRID})
        for e in range(-12, 13, 3)
        for mu in range(1, 5)
    ]
    gen = np.random.default_rng(27)
    draws = [
        (int(n), float(a), float(C), int(mu))
        for n, a, C, mu in zip(
            gen.integers(2, 41, 25_000),
            np.exp(gen.uniform(math.log(0.1), math.log(3.5), 25_000)),
            10.0 ** gen.uniform(-12.0, 12.0, 25_000),
            gen.integers(1, 5, 25_000),
        )
    ]
    cases = grid + draws
    assert len(cases) >= 50_000
    mismatches = []
    for n, a, C, mu in cases:
        closed = degree_for_n(n, a, C) if mu == 1 else degree_for_n_multi(n, math.exp(a), C, mu)
        if _auto(n, a, C, mu) != min(closed, unfit[mu]):
            mismatches.append((n, a, C, mu))
    assert mismatches == []


@pytest.mark.parametrize("exact_degree", [0, 3])
def test_auto_degree_of_an_exact_polynomial(exact_degree):
    cert = Certificate(a=None, C=None, exact_degree=exact_degree)
    for n in (2, 10, 26):
        for mu in (1, 2, 5):
            assert _auto_degree(cert, n, mu) == exact_degree


def test_degree_for_n_example():
    assert _auto(10, math.log(2.0), 1.0) == degree_for_n(10, math.log(2.0), 1.0) == 12


def test_degree_for_n_clamps():
    assert _auto(1, 5.0, 1e-12) == 0


def test_degree_for_n_roughly_linear():
    d10, d20, d40 = (_auto(n, 1.0, 2.0) for n in (10, 20, 40))
    assert (d40 - d20) == pytest.approx(2 * (d20 - d10), abs=3)


def test_degree_for_n_multi():
    # larger rho* means smaller degree
    assert _auto(10, math.log(4.0), 1.0, 2) <= _auto(10, math.log(2.0), 1.0, 2)
    # paper-style direct substitution at n=10, rho*=2, C=1, mu=2
    log_r = math.log(2.0)
    value = 10 * math.log(2.0) / (2 * log_r) + 2 * math.log(10.0) / log_r + math.log(1.0 * 2**4 * 2 * 1.0 ** (-2) * 2.0) / log_r
    assert _auto(10, math.log(2.0), 1.0, 2) == math.ceil(value)


def test_poly_mlp_bound_values():
    # the polynomial-MLP cap w0 ln((h^d0 + 1)(h^d0 + 2)/2) is ln rank_bound(h^d0, w0)
    assert math.log(rank_bound(2**1, 1)) == pytest.approx(math.log(6.0))
    assert math.log(rank_bound(1**2, 3)) == pytest.approx(3 * math.log(3.0))
    assert math.log(rank_bound(2**2, 2)) == pytest.approx(2 * math.log(15.0))


def test_auxiliary_exact_for_polynomial_state():
    act = Activation("poly", coeffs=(0.1, 0.4, -0.3, 0.2))
    g = build_snnqs(SnnqsSpec(n=8, activation=act, parameterization="direct"), RngStream(3).child(1))
    r = feature_reduce(g)
    t_bar = feature_supnorm(r.features[0])
    fit = cheb_fit_multi(r.g_eval, (t_bar,), 3)
    psi = materialize(g)
    aux = auxiliary_state(r, fit)
    assert two_norm_distance(psi, aux) < 1e-12


def test_auxiliary_domain_check():
    g = build_snnqs(SnnqsSpec(n=6, activation="sin", parameterization="direct"), RngStream(9).child(0))
    r = feature_reduce(g)
    fit = cheb_fit_multi(r.g_eval, (0.5 * feature_supnorm(r.features[0]),), 4)
    with pytest.raises(ContractError):
        auxiliary_state(r, fit)
    two = cheb_fit_multi(lambda t: t[0] * t[1], (1.0, 1.0), 2)
    with pytest.raises(ContractError, match="^fit has 2 variables, reduced form has 1$"):
        auxiliary_state(r, two)


def test_dicke_quadratic_auxiliary_rank():
    # d=2 resolves the delta spike only when t_bar is small (n=4: the nearest
    # quadrature node sits inside the tent's support)
    g = build_dicke(DickeSpec(4))
    r = feature_reduce(g)
    t_bar = feature_supnorm(r.features[0])
    fit = cheb_fit_multi(r.g_eval, (t_bar,), 2)
    aux = auxiliary_state(r, fit)
    for m in range(1, 4):
        res = subregion_entropy(aux, Subregion((1 << m) - 1, 4))
        assert res.schmidt_rank <= rank_bound(2, 1)


def test_dicke_higher_degree_auxiliary_rank():
    g = build_dicke(DickeSpec(8))
    r = feature_reduce(g)
    t_bar = feature_supnorm(r.features[0])
    fit = cheb_fit_multi(r.g_eval, (t_bar,), 6)
    aux = auxiliary_state(r, fit)
    for m in range(1, 8):
        res = subregion_entropy(aux, Subregion((1 << m) - 1, 8))
        assert res.schmidt_rank <= rank_bound(6, 1)


def test_snnqs_distance_bound_chain():
    g = build_snnqs(SnnqsSpec(n=10, activation="sin", parameterization="direct", bias_std=0.5), RngStream(42).child(0))
    r = feature_reduce(g)
    cert = reduced_certificate(r)
    assert cert is not None and cert.a is not None
    psi = materialize(g)
    t_bar = feature_supnorm(r.features[0])
    for d in (8, 12, 16):
        fit = cheb_fit_multi(r.g_eval, (t_bar,), d)
        aux = auxiliary_state(r, fit)
        eps_poly = cert.error_bound(d, 1) / psi.norm_was
        assert two_norm_distance(psi, aux) <= 2.0 * math.sqrt(eps_poly) * 2 ** (10 / 4)
        assert fit.error_empirical <= cert.error_bound(d, 1)


def test_certificate_exact_polynomial_route():
    act = Activation("poly", coeffs=(0.0, 1.0, 0.5))
    g = build_snnqs(SnnqsSpec(n=6, activation=act, parameterization="direct"), RngStream(11).child(0))
    r = feature_reduce(g)
    cert = reduced_certificate(r)
    assert cert is not None and cert.exact_degree == 2
    assert cert.error_bound(2, 1) == 0.0
    assert cert.error_bound(1, 1) == math.inf


def _product_graph(outer: Activation | None) -> ComputationGraph:
    """x = affine(s); output = x^3 + 0.5 x^2 through products, or x * outer(x)."""
    gen = np.random.default_rng(5)
    x = Node(0, "linear", tuple((("s", i), float(w)) for i, w in enumerate(gen.normal(0.0, 0.4, 8))), bias=0.3)
    if outer is None:
        nodes = [x, Node(1, "product", ((0, 1.0), (0, 1.0))), Node(2, "product", ((1, 1.0), (0, 1.0)))]
        out = ((2, 1.0), (1, 0.5))
    else:
        nodes = [x, Node(1, "nonlinear", ((0, 1.0),), activation=outer), Node(2, "product", ((0, 1.0), (1, 1.0)))]
        out = ((2, 1.0),)
    return ComputationGraph(nodes + [Node(3, "output", out, output_mode="amplitude")], n=8)


def test_certificate_of_products():
    # a product is entire, and its degree is the sum of its factors' degrees
    g = _product_graph(None)
    r = feature_reduce(g)
    assert (g.k, r.mu) == (4, 1)
    assert reduced_certificate(r).exact_degree == 3
    report = full_bound_report(g, Subregion(0b1111, 8), degree="auto")
    assert report.certified and report.fa_slack == 0.0
    assert report.rank_bound == rank_bound(3, 1)
    assert report.entropy_bound_final == pytest.approx(math.log(report.rank_bound))
    assert report.measured_entropy <= report.entropy_bound_final
    cert = reduced_certificate(feature_reduce(_product_graph(Activation("sin"))))
    assert cert.exact_degree is None and math.isfinite(cert.C) and cert.a > 0


def test_full_report_polynomial_slack_zero():
    act = Activation("poly", coeffs=(0.2, 1.0, 0.0, -0.4))
    g = build_snnqs(SnnqsSpec(n=8, activation=act, parameterization="direct"), RngStream(13).child(0))
    report = full_bound_report(g, Subregion(0b1111, 8), degree="auto")
    assert report.certified
    assert report.fa_slack == 0.0
    assert report.entropy_bound_final == pytest.approx(math.log(report.rank_bound))
    assert report.measured_entropy <= report.entropy_bound_final


def test_full_report_relu_empirical_only():
    g = build_snnqs(SnnqsSpec(n=8, activation="relu", parameterization="wrap_exp"), RngStream(14).child(0))
    report = full_bound_report(g, Subregion(0b1111, 8), degree=10)
    assert report.empirical_only
    assert report.entropy_bound_final is None
    assert report.error_empirical > 0
    with pytest.raises(DomainError):
        full_bound_report(g, Subregion(0b1111, 8), degree="auto")


def _softplus_graph():
    return build_snnqs(SnnqsSpec(n=6, activation="softplus(2.0)", parameterization="direct"), RngStream(3).child(0))


def test_softplus_has_no_certificate():
    # softplus is not holomorphic: the ellipse sampling cannot evaluate it
    g = _softplus_graph()
    assert reduced_certificate(feature_reduce(g)) is None
    with pytest.raises(DomainError):
        full_bound_report(g, Subregion(0b111, 6), degree="auto")
    report = full_bound_report(g, Subregion(0b111, 6), degree=8)
    assert report.empirical_only and not report.certified
    assert report.entropy_bound_final is None


def _tanh_chain(depth: int) -> ComputationGraph:
    """tanh applied ``depth`` times to 0.3 (s_0 + s_1) + 0.1, as the amplitude."""
    nodes = [Node(0, "nonlinear", ((("s", 0), 0.3), (("s", 1), 0.3)), bias=0.1, activation=Activation("tanh"))]
    nodes += [Node(j, "nonlinear", ((j - 1, 0.8),), activation=Activation("tanh")) for j in range(1, depth)]
    nodes.append(Node(depth, "output", ((depth - 1, 1.0),), bias=1.5, output_mode="amplitude"))
    return ComputationGraph(nodes, n=2)


def test_composed_pole_limited_kinds_have_no_certificate():
    # tanh reading the feature ports is capped by its pole; a tanh of a tanh
    # has no such cap, so no certificate is claimed
    assert reduced_certificate(feature_reduce(_tanh_chain(1))) is not None
    assert reduced_certificate(feature_reduce(_tanh_chain(2))) is None


def test_modulus_overflow_on_the_ellipse_ends_the_search():
    # both parts of every boundary value are finite (about 1.5e308), but
    # their modulus is not: the sup is infinite from the first parameter on
    c = 1.5e308
    g = ComputationGraph(
        [
            Node(0, "nonlinear", ((("s", 0), 1e-3),), activation=Activation("exp")),
            Node(1, "output", ((0, complex(c, c)),), output_mode="amplitude"),
        ],
        n=1,
    )
    r = feature_reduce(g)
    t_bars = np.array([feature_supnorm(f) for f in r.features])[:, None]
    values = r.residual.eval_ports(approx._boundary_grid(approx._A_GRID[0], r.mu) * t_bars)
    assert np.isfinite(values).all() and np.abs(values).max() == np.inf
    assert reduced_certificate(r) is None


def test_spin_independent_state_has_no_features():
    # a constant-bias tanh feeding the output: no spin dependence, mu = 0
    g = ComputationGraph(
        [
            Node(0, "nonlinear", (), bias=0.3, activation=Activation("tanh")),
            Node(1, "output", ((0, 1.0),), output_mode="amplitude"),
        ],
        n=3,
    )
    r = feature_reduce(g)
    assert r.mu == 0
    bits = np.arange(8)
    assert np.array_equal(r.eval_bits(bits), g.eval_bits(bits))
    assert np.allclose(g.eval_bits(bits), np.tanh(0.3), rtol=1e-15, atol=0.0)
    assert reduced_certificate(r) is None
    with pytest.raises(ContractError):
        full_bound_report(g, Subregion(0b001, 3), degree=4)


def test_full_report_dominates_measured():
    g = build_snnqs(SnnqsSpec(n=10, activation="sin", parameterization="direct", bias_std=0.5), RngStream(42).child(0))
    for d in (6, 12):
        report = full_bound_report(g, Subregion(0b11111, 10), degree=d)
        assert report.certified
        assert report.entropy_bound_final > report.measured_entropy


def test_bernstein_bound_formula():
    gen = np.random.default_rng(11)
    for _ in range(200):
        a, C, d = gen.uniform(0.05, 3.0), gen.uniform(0.1, 1e6), int(gen.integers(0, 60))
        rho = math.exp(a)
        assert bernstein_bound(a, C, d, 1) == 2 * C * rho**-d / math.expm1(a)
        for mu in (2, 3, 4):
            multi = C * mu / rho * (2.0 * rho / math.expm1(a)) ** mu * rho ** (-d)
            assert bernstein_bound(a, C, d, mu) == pytest.approx(multi, rel=1e-15, abs=0.0)


def test_bernstein_bound_never_raises():
    # exp(a) - 1 is 0 below a = 1.1e-16, expm1(a) only at a = 0; a bound
    # past the float range is inf, which certifies nothing
    assert bernstein_bound(3.8e-18, 3.0, 10, 1) == 6.0 / math.expm1(3.8e-18)
    assert bernstein_bound(0.0, 1.0, 10, 1) == math.inf
    assert bernstein_bound(1e-300, 1.0, 10, 3) == math.inf
    assert bernstein_bound(1000.0, 1.0, 10, 1) == math.inf


def test_bound_report_of_a_vanishing_ellipse(tmp_path, capsys):
    # weights of 1e17 leave the certificate an ellipse parameter near 4e-18,
    # where rho - 1 = exp(a) - 1 rounded to 0: each report is a typed error,
    # an uncertified report or a certified one that still dominates
    g = build_snnqs(SnnqsSpec(n=6, activation="tanh", weight_std=1e17), RngStream(1))
    region = Subregion(0b111, 6)
    assert 0.0 < reduced_certificate(feature_reduce(g)).a < 1.1e-16
    for degree in (10, "auto"):
        try:
            report = full_bound_report(g, region, degree=degree)
        except NqsError:
            continue
        assert not report.certified or report.entropy_bound_final >= report.measured_entropy
    path = tmp_path / "tanh.json"
    save_graph(g, path)
    for degree in ("10", "auto"):
        assert main(["bound", "--graph", str(path), "--region", "7", "--degree", degree]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("weight_std, first_failure, a", [(0.5, 1.25, 0.25), (1.0, 0.25, None)])
def test_certificate_search_stops_at_first_failed_ellipse(weight_std, first_failure, a):
    # exp of a log-amplitude: the boundary evaluation overflows from one
    # ellipse parameter on, and the search keeps the best score before it
    spec = SnnqsSpec(n=10, activation="exp", parameterization="wrap_exp", bias_std=0.5, weight_std=weight_std)
    r = feature_reduce(build_snnqs(spec, RngStream(3).child(0)))
    t_bars = np.array([feature_supnorm(f) for f in r.features])[:, None]

    def sup_on(a_try):
        return float(np.max(np.abs(r.residual.eval_ports(approx._boundary_grid(a_try, r.mu) * t_bars))))

    with pytest.raises(NumericError):
        sup_on(first_failure)
    for a_try in approx._A_GRID[: approx._A_GRID.index(first_failure)]:
        assert math.isfinite(sup_on(a_try))
    cert = reduced_certificate(r)
    assert (None if cert is None else cert.a) == a
    if cert is not None:
        assert cert.C == sup_on(a) * approx._SUP_INFLATION


def _skip_connection_graph(n=8, seed=5):
    """One sine unit plus a direct real affine term at the output: mu = 2."""
    gen = RngStream(seed).child(1).generator()
    w = gen.normal(0, 0.8, size=n)
    b = gen.normal(0, 0.3)
    u = gen.normal(0, 0.25, size=n)
    c = gen.normal(0, 0.2)
    nodes = [
        Node(0, "nonlinear", tuple((("s", i), w[i]) for i in range(n)), bias=b, activation=Activation("sin")),
        Node(1, "output", ((0, 1.2),) + tuple((("s", i), u[i]) for i in range(n)), bias=c, output_mode="amplitude"),
    ]
    return ComputationGraph(nodes, n)


def test_two_feature_rank_bound_and_chain():
    n = 8
    g = _skip_connection_graph(n)
    r = feature_reduce(g)
    assert r.mu == 2 and g.k == 1
    cert = reduced_certificate(r)
    assert cert is not None and cert.a is not None
    psi = materialize(g)
    t_bars = tuple(feature_supnorm(f) for f in r.features)
    for d in (3, 6):
        fit = cheb_fit_multi(r.g_eval, t_bars, d)
        assert fit.error_empirical <= cert.error_bound(d, 2)
        aux = auxiliary_state(r, fit)
        eps_poly = cert.error_bound(d, 2) / psi.norm_was
        assert two_norm_distance(psi, aux) <= 2.0 * math.sqrt(eps_poly) * 2 ** (n / 4)
        for m in range(1, n):
            res = subregion_entropy(aux, Subregion((1 << m) - 1, n))
            assert res.schmidt_rank <= rank_bound(d, 2)


def test_two_feature_auto_report_dominates():
    g = _skip_connection_graph()
    report = full_bound_report(g, Subregion(0b1111, 8), degree="auto")
    assert report.mu == 2 and report.certified
    assert report.entropy_bound_final > report.measured_entropy


def test_three_feature_cosnet_report():
    from nqsent.ansatz import CosnetSpec, build_cosnet

    g = build_cosnet(CosnetSpec(n=6, k=1, sigma_w=0.4), RngStream(3).child(2))
    r = feature_reduce(g)
    assert r.mu <= 3
    report = full_bound_report(g, Subregion(0b111, 6), degree=6)
    assert report.certified
    assert report.entropy_bound_final > report.measured_entropy
    assert report.error_empirical <= report.eps_raw


def test_report_capacity_propagates_for_many_features():
    from nqsent.ansatz import CosnetSpec, build_cosnet

    g = build_cosnet(CosnetSpec(n=6, k=4, sigma_w=0.4), RngStream(1).child(0))
    assert feature_reduce(g).mu > 4
    with pytest.raises(CapacityError):
        full_bound_report(g, Subregion(0b11, 6), degree=3)


# one-feature (mu=1) snnqs families, as SnnqsSpec fields besides n and bias_std
_ONE_FEATURE_FAMILIES = {
    "snnqs i*tanh": dict(activation="i*tanh"),
    "snnqs sin direct": dict(activation="sin", parameterization="direct"),
    "snnqs tanh": dict(activation="tanh"),
    "snnqs tanh+i*sin": dict(activation="tanh+i*sin"),
}


def _one_feature_graph(family, n, rng):
    return build_snnqs(SnnqsSpec(n=n, bias_std=0.5, **_ONE_FEATURE_FAMILIES[family]), rng)


_CERTIFIABLE_FAMILIES = {
    **{family: (lambda rng, family=family: _one_feature_graph(family, 10, rng)) for family in _ONE_FEATURE_FAMILIES},
    "cosnet k=1": lambda rng: build_cosnet(CosnetSpec(n=10, k=1), rng),
}


@given(
    family=st.sampled_from(sorted(_CERTIFIABLE_FAMILIES)),
    seed=st.integers(0, 2**31 - 1),
    spins=st.sets(st.integers(0, 9), min_size=5, max_size=5),
)
def test_bound_chain_dominates_measured(family, seed, spins):
    g = _CERTIFIABLE_FAMILIES[family](RngStream(seed).child(0))
    report = full_bound_report(g, Subregion(sum(1 << i for i in spins), 10), degree="auto")
    assert report.certified
    assert report.entropy_bound_final >= report.measured_entropy
    assert report.measured_two_norm_distance <= report.delta_norm_bound
    assert report.error_empirical <= report.eps_raw


@pytest.mark.parametrize("degree", ["abc", "AUTO", 2.7, 6.0, True, False, None, [6], np.array([6, 7])])
def test_full_report_refuses_bad_degree(degree):
    g = build_snnqs(SnnqsSpec(n=6, activation="sin", parameterization="direct"), RngStream(9).child(0))
    with pytest.raises(ContractError, match="degree"):
        full_bound_report(g, Subregion(0b111, 6), degree=degree)


def test_full_report_takes_numpy_integer_degree():
    g = build_snnqs(SnnqsSpec(n=6, activation="sin", parameterization="direct"), RngStream(9).child(0))
    region = Subregion(0b111, 6)
    assert full_bound_report(g, region, degree=np.int64(6)) == full_bound_report(g, region, degree=6)


@pytest.mark.parametrize("region", [Subregion(0b111, 7), Subregion(0, 6), Subregion(0b111111, 6)])
def test_full_report_refuses_region_before_any_work(monkeypatch, region):
    g = build_snnqs(SnnqsSpec(n=6, activation="sin", parameterization="direct"), RngStream(9).child(0))

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the region check")

    for name in ("feature_reduce", "cheb_fit_multi", "materialize"):
        monkeypatch.setattr(approx, name, no_work)
    with pytest.raises(ContractError):
        full_bound_report(g, region, degree=4)


@pytest.mark.parametrize("degree", ["auto", 4])
def test_full_report_refuses_spin_cap_before_any_work(monkeypatch, degree):
    g = build_snnqs(SnnqsSpec(n=6, activation="sin", parameterization="direct"), RngStream(9).child(0))

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the spin cap check")

    for name in ("feature_reduce", "cheb_fit_multi", "materialize"):
        monkeypatch.setattr(approx, name, no_work)
    monkeypatch.setenv("NQS_MAX_N", "5")
    with pytest.raises(CapacityError, match="^n=6 outside supported range 1..5$"):
        full_bound_report(g, Subregion(0b111, 6), degree=degree)


def test_auto_degree_stops_at_the_fit_point_cap(monkeypatch):
    # weights near 1e9 put the tanh pole within a ~ 2e-10 of the interval,
    # where the target needs a degree near 1e11; the search ends at the
    # first degree the fit refuses, whose coefficient table is above the
    # cap, before any state
    g = build_snnqs(SnnqsSpec(n=6, activation="tanh", weight_std=1e9, bias_std=0.5), RngStream(1))
    assert reduced_certificate(feature_reduce(g)).a < 1e-9

    def no_state(*args, **kwargs):
        raise AssertionError("state built before the fit's point cap")

    # the largest degree within the cap misses the target, so no other is tried
    degrees = []
    error_bound = Certificate.error_bound
    monkeypatch.setattr(Certificate, "error_bound", lambda cert, d, mu: degrees.append(d) or error_bound(cert, d, mu))
    monkeypatch.setattr(approx, "materialize", no_state)
    with pytest.raises(CapacityError, match=r"^degree 1024 needs 4100\^1 quadrature points and a 1025 x 4100 coefficient table"):
        full_bound_report(g, Subregion(0b111, 6), degree="auto")
    assert len(degrees) <= 3


def test_explicit_degree_above_the_table_cap_is_refused_before_any_state(monkeypatch):
    # at mu=1, d=5000 needs only 20004 quadrature points, but a 5001 x 20004
    # coefficient table (1.6 GB of cosines) and a 5001^2 split-chain grid
    g = build_snnqs(SnnqsSpec(n=6, activation="tanh", bias_std=0.5), RngStream(1))

    def no_state(*args, **kwargs):
        raise AssertionError("state built before the fit's table cap")

    monkeypatch.setattr(approx, "materialize", no_state)
    monkeypatch.setattr(approx, "_cos_matrix", no_state)
    with pytest.raises(CapacityError, match=r"^degree 5000 needs 20004\^1 quadrature points and a 5001 x 20004"):
        full_bound_report(g, Subregion(0b111, 6), degree=5000)


def _assert_split_chain_matches_state(g, region, degree):
    r = feature_reduce(g)
    assert r.mu == 1
    fit = cheb_fit_multi(r.g_eval, (feature_supnorm(r.features[0]),), degree)
    psi = materialize(g)
    aux = auxiliary_state(r, fit)
    expected = subregion_entropy(aux, region)
    distance = two_norm_distance(psi, aux)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result, split_distance = approx._split_chain(r.features[0], fit, psi, region)
    assert abs(result.entropy - expected.entropy) <= 1e-12
    assert result.schmidt_rank == expected.schmidt_rank
    # the spectra, each padded with zeros to the longer one's length
    size = max(result.eigenvalues.size, expected.eigenvalues.size)
    padded = [np.pad(lam, (0, size - lam.size)) for lam in (result.eigenvalues, expected.eigenvalues)]
    assert np.abs(padded[0] - padded[1]).max() <= 1e-12
    assert abs(split_distance - distance) <= max(1e-12, 1e-9 * distance)


@given(
    family=st.sampled_from(sorted(_ONE_FEATURE_FAMILIES)),
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 10),
    degree=st.integers(1, 48),
    mask=st.integers(1, 2**10 - 2),
)
@example(family="snnqs sin direct", seed=1, n=10, degree=40, mask=0b1)  # |A| = 1
@example(family="snnqs i*tanh", seed=2, n=10, degree=40, mask=0b1111111110)  # |A| = n-1
@example(family="snnqs tanh+i*sin", seed=3, n=9, degree=20, mask=0b1001)  # 2^|A| < d+1
def test_split_chain_matches_auxiliary_state(family, seed, n, degree, mask):
    """The one-feature factorization against the materialized auxiliary state:
    entropy, Schmidt rank and distance from the network's state."""
    region = Subregion(mask & ((1 << n) - 1), n)
    if not 0 < region.size < n:
        region = Subregion(1, n)
    _assert_split_chain_matches_state(_one_feature_graph(family, n, RngStream(seed).child(0)), region, degree)


@pytest.mark.parametrize("mask", [0b00000111, 0b11111000, 0b00011111])
def test_split_chain_constant_side(mask):
    # the feature has no weight on spins 0..2: a region inside them (or its
    # complement) sees one side constant, which takes a single table column
    n = 8
    gen = RngStream(17).child(0).generator()
    inputs = tuple((("s", i), float(gen.normal(0.0, 0.6))) for i in range(3, n))
    g = ComputationGraph(
        [
            Node(0, "nonlinear", inputs, bias=0.4, activation=Activation("sin")),
            Node(1, "output", ((0, 1.0),), bias=0.3, output_mode="amplitude"),
        ],
        n,
    )
    assert not feature_reduce(g).features[0].weights[:3].any()
    _assert_split_chain_matches_state(g, Subregion(mask, n), 12)
    if mask in (0b00000111, 0b11111000):
        report = full_bound_report(g, Subregion(mask, n), degree=12)
        assert report.measured_entropy_aux == 0.0


@pytest.mark.parametrize("mask", [0b1, 0b111, 0b11111, 0b1111111, 0b1111111110])
def test_split_chain_distance_over_many_blocks(monkeypatch, mask):
    # the reader's blocks shrink to a few columns, so the distance sums over
    # many of them on both sides of the cut; with one spin in the rows, L's
    # tables also go in several slices of each block
    monkeypatch.setattr(entanglement, "_BLOCK", 64)
    monkeypatch.setattr(entanglement, "_BLOCK_COLS", 4)
    monkeypatch.setattr(approx, "_SPLIT_BYTES", 256)
    n = 10
    _assert_split_chain_matches_state(_one_feature_graph("snnqs i*tanh", n, RngStream(31).child(0)), Subregion(mask, n), 40)


def test_bound_report_forms_no_bipartition_copy(monkeypatch):
    def no_copy(*args, **kwargs):
        raise AssertionError("the bound chain copied the state into a bipartition matrix")

    monkeypatch.setattr(entanglement, "bipartition", no_copy)
    monkeypatch.setattr(approx, "bipartition", no_copy, raising=False)
    g = build_snnqs(SnnqsSpec(n=10, activation="i*tanh", bias_std=0.5), RngStream(1))
    report = full_bound_report(g, Subregion(0b11111, 10), degree="auto")
    assert report.mu == 1 and report.certified


def test_vanishing_auxiliary_state_is_degenerate():
    # the degree-0 fit of the odd sin(t) is c_0 = 0 exactly
    g = build_snnqs(SnnqsSpec(n=2, activation="sin", parameterization="direct", bias_std=0.5), RngStream(1).child(0))
    with pytest.raises(DegenerateStateError):
        full_bound_report(g, Subregion(0b1, 2), degree=0)
