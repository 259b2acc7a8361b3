import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import chebyshev

from nqsent import approx
from nqsent.activations import Activation
from nqsent.ansatz import CosnetSpec, DickeSpec, SnnqsSpec, build_cosnet, build_dicke, build_snnqs
from nqsent.approx import (
    ChebyshevApprox,
    auxiliary_state,
    bernstein_bound,
    cheb_fit_1d,
    cheb_fit_multi,
    degree_for_n,
    degree_for_n_multi,
    full_bound_report,
    rank_bound,
    reduced_certificate,
)
from nqsent.core import RngStream, Subregion, feature_supnorm
from nqsent.errors import CapacityError, ContractError, DomainError, NumericError
from nqsent.graph import ComputationGraph, Node, feature_reduce
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
        fit = cheb_fit_1d(lambda t: r.g_eval(t[None, :]), t_bar, d, analytic=(cert.a, cert.C))
        assert fit.error_bound is not None
        assert fit.error_empirical <= fit.error_bound


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
        fit = ChebyshevApprox(coeffs, (1.0,) * mu, d, None, 0.0)
        assert fit.real == (dtype == np.float64)
        got = fit.evaluate_unit(x)
        assert got.shape == (count,) and got.dtype == dtype
        if count:
            assert np.abs(got - _chebval_nd(x, coeffs)).max() <= 1e-13 * np.abs(coeffs).sum()


@pytest.mark.parametrize("mu,degrees", [(1, (0, 1, 15, 16, 40)), (2, (0, 1, 9)), (3, (0, 1, 5)), (4, (0, 1, 3))])
def test_evaluate_unit_matches_numpy_chebyshev(monkeypatch, mu, degrees):
    # a 4 KiB budget makes blocks of 3 to 85 columns, so 97 columns cross
    # two or more and end in a ragged one; at mu=1 degree 16 contracts its
    # table in row groups of 16 and 1, degree 40 in groups of 16, 16 and 9
    monkeypatch.setattr(approx, "_TABLE_BYTES", 4096)
    for d in degrees:
        for count in (0, 1, 97):
            _assert_matches_chebval(mu, d, count, seed=100 * mu + d)


@pytest.mark.parametrize("mu,d,count", [(1, 207, 100_003), (2, 51, 12_000)])
def test_evaluate_unit_blocks_at_full_budget(mu, d, count):
    # the bound_chain degrees; either width makes three blocks, the last ragged
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
            ChebyshevApprox(np.ones(shape, dtype=complex), (1.0, 2.0), 3, None, 0.0).evaluate_unit(np.zeros((2, 4)))


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


def test_degree_for_n_example():
    assert degree_for_n(10, math.log(2.0), 1.0) == 12


def test_degree_for_n_clamps():
    assert degree_for_n(1, 5.0, 1e-12) == 0


def test_degree_for_n_roughly_linear():
    d10 = degree_for_n(10, 1.0, 2.0)
    d20 = degree_for_n(20, 1.0, 2.0)
    d40 = degree_for_n(40, 1.0, 2.0)
    assert (d40 - d20) == pytest.approx(2 * (d20 - d10), abs=3)


def test_degree_for_n_multi():
    with pytest.raises(DomainError):
        degree_for_n_multi(10, 1.0, 1.0, 2)
    # mu = 1 stays within a constant band of the one-variable formula
    for n in (10, 20, 40):
        a = degree_for_n(n, math.log(2.0), 1.0)
        b = degree_for_n_multi(n, 2.0, 1.0, 1)
        assert abs(a - b) <= 8
    # larger rho* means smaller degree
    assert degree_for_n_multi(10, 4.0, 1.0, 2) <= degree_for_n_multi(10, 2.0, 1.0, 2)
    # paper-style direct substitution at n=10, rho*=2, C=1, mu=2
    log_r = math.log(2.0)
    value = 10 * math.log(2.0) / (2 * log_r) + 2 * math.log(10.0) / log_r + math.log(1.0 * 2**4 * 2 * 1.0 ** (-2) * 2.0) / log_r
    assert degree_for_n_multi(10, 2.0, 1.0, 2) == math.ceil(value)


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
        fit = cheb_fit_multi(r.g_eval, (t_bar,), d, analytic=(cert.a, cert.C))
        aux = auxiliary_state(r, fit)
        eps_poly = fit.error_bound / psi.norm_was
        assert two_norm_distance(psi, aux) <= 2.0 * math.sqrt(eps_poly) * 2 ** (10 / 4)
        assert fit.error_empirical <= fit.error_bound


def test_certificate_exact_polynomial_route():
    act = Activation("poly", coeffs=(0.0, 1.0, 0.5))
    g = build_snnqs(SnnqsSpec(n=6, activation=act, parameterization="direct"), RngStream(11).child(0))
    r = feature_reduce(g)
    cert = reduced_certificate(r)
    assert cert is not None and cert.exact_degree == 2
    assert cert.error_bound(2, 1) == 0.0
    assert cert.error_bound(1, 1) == math.inf


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
        assert bernstein_bound(a, C, d, 1) == 2 * C * rho**-d / (rho - 1)
        for mu in (2, 3, 4):
            multi = C * mu / rho * (2.0 * rho / (rho - 1.0)) ** mu * rho ** (-d)
            assert bernstein_bound(a, C, d, mu) == pytest.approx(multi, rel=1e-15, abs=0.0)


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
        fit = cheb_fit_multi(r.g_eval, t_bars, d, analytic=(cert.a, cert.C))
        assert fit.error_empirical <= fit.error_bound
        aux = auxiliary_state(r, fit)
        eps_poly = fit.error_bound / psi.norm_was
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


_CERTIFIABLE_FAMILIES = {
    "snnqs i*tanh": lambda rng: build_snnqs(SnnqsSpec(n=10, activation="i*tanh", bias_std=0.5), rng),
    "snnqs sin direct": lambda rng: build_snnqs(
        SnnqsSpec(n=10, activation="sin", parameterization="direct", bias_std=0.5), rng
    ),
    "snnqs tanh": lambda rng: build_snnqs(SnnqsSpec(n=10, activation="tanh", bias_std=0.5), rng),
    "snnqs tanh+i*sin": lambda rng: build_snnqs(SnnqsSpec(n=10, activation="tanh+i*sin", bias_std=0.5), rng),
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
