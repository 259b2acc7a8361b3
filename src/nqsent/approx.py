"""Chebyshev approximation (one and several variables), polynomial auxiliary
states, and the explicit entropy-bound chain.

One tensor-product fit serves every number of variables mu; the
one-variable fit is its mu=1 case. Coefficients come from Chebyshev-Gauss
quadrature at 4(d+1) nodes per axis (2(d+1) for three or more variables),
which reproduces the truncated Chebyshev series up to negligible aliasing.
Certified error bounds use the ellipse parameter a and sup bound C of the
approximated function, shared by all mu variables, in one formula
(``bernstein_bound``; its mu=1 case is the one-variable Bernstein bound):

    2 C rho^-d / (rho - 1) * mu (2 rho / (rho - 1))^(mu - 1),    rho = e^a

One blocked evaluator, ``ChebyshevApprox.evaluate_unit``, serves
``evaluate``, the fit's check grid and auxiliary states. It takes the points
in column blocks whose float64 storage stays near ``graph._TABLE_BYTES``
(8 MiB), carved from per-thread scratch. In a block each variable's table
T_0..T_d comes from the recurrence T_i = 2x T_i-1 - T_i-2 with 2x computed
once, two ufunc calls per row. The coefficient tensor, reshaped to
(-1, d+1), meets the last variable's table in two real BLAS products, one
for its real and one for its imaginary part, so no table is ever complex;
each remaining variable is then folded in by a multiply-and-sum over its
axis. Coefficients with no imaginary part (the fit of a real G) skip the
imaginary product and give float64 values. A one-variable fit builds and
contracts its table ``_ROW_GROUP`` rows at a time, so its blocks span a
whole 2^14-configuration chunk while the rows stay in cache: fewer, longer
ufunc calls are what let two threads share the work.

The bound chain for a state with reduced form G(t_1..t_mu) is: fit error
eps -> auxiliary-state 2-norm distance 2 sqrt(eps/norm) 2^(n/4) -> reduced
trace distance (monotone under partial trace) -> entropy difference via the
Fannes-Audenaert inequality -> measured entropy <= ln(rank bound) + slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .core import Subregion, feature_supnorm
from .errors import CapacityError, ContractError, DomainError, NumericError
from .graph import ComputationGraph, ReducedForm, feature_reduce, _is_raw, _scratch, _TABLE_BYTES
from .statevector import Statevector, materialize, two_norm_distance
from .entanglement import fa_slack_from_bound, subregion_entropy

MULTIVAR_CAP = 4
# cap on the K^mu quadrature points of a multivariable fit. The grid (mu
# float64 rows), its complex values and the residual graph's per-node
# temporaries all grow with it; 4M points stay within a few hundred MiB.
# A mu=2, d=51 fit uses 43k points; a mu=4 cosnet fit at auto degree and
# n=12 would need 3.7e7.
FIT_POINT_CAP = 1 << 22
DENSE_GRID_POINTS = 10_000
_SUP_INFLATION = 1.1
_A_GRID = [0.25 * j for j in range(1, 15)]
# the ellipse is chosen to minimize the error bound C rho^-d at this degree
_A_SCORE_DEGREE = 16
# a one-variable fit builds and contracts its table this many rows at a time,
# so a 2^14-column block's rows (about 2 MiB) stay in a core's L2 cache
_ROW_GROUP = 16


@dataclass
class ChebyshevApprox:
    """Tensor of Chebyshev coefficients with per-variable domains [-t_bar, t_bar]."""

    coeffs: np.ndarray
    t_bars: tuple[float, ...]
    degree: int
    error_bound: float | None
    error_empirical: float

    @property
    def mu(self) -> int:
        return len(self.t_bars)

    @property
    def real(self) -> bool:
        """Whether the coefficients have zero imaginary part; ``evaluate``
        then returns float64."""
        return not np.any(np.imag(self.coeffs))

    def evaluate(self, tvals: np.ndarray) -> np.ndarray:
        """Evaluate at raw feature values of shape (mu, B)."""
        return self.evaluate_unit(self._points(tvals) / np.asarray(self.t_bars)[:, None])

    def evaluate_unit(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at real rescaled points in [-1, 1]^mu, shape (mu, B).

        Columns go in blocks whose storage stays near ``_TABLE_BYTES``, and
        block boundaries depend on B only, so a chunk's values do not depend
        on the thread that evaluates it.
        """
        x = self._points(x)
        mu, d = self.mu, self.degree
        if self.coeffs.shape != (d + 1,) * mu:
            raise ContractError(f"coefficients of shape {self.coeffs.shape} do not fit degree {d} in {mu} variables")
        count = x.shape[1]
        c = self.coeffs.reshape(-1, d + 1)
        # the real part, and the imaginary part unless it is zero
        real = self.real
        parts = [np.ascontiguousarray(p) for p in ((c.real,) if real else (c.real, c.imag))]
        out = np.empty(count, np.float64 if real else np.complex128)
        targets = [out] if real else [out.real, out.imag]
        rest = c.shape[0]
        # with several variables the partial sums have (d+1)^(mu-1) rows, and
        # adding each row group's product into them would cost a pass per group
        group = min(d + 1, _ROW_GROUP) if rest == 1 else d + 1
        # rows of each part's partial sums, twice as many when later row
        # groups need room for their product
        sums = rest if group > d else 2 * rest
        # float64 rows per column: the leading variables' tables (with two
        # rows ahead of T_0, like the ring), the last variable's row group
        # and 2x, and the sums
        per_column = (mu - 1) * (d + 3) + group + 3 + len(parts) * sums
        width = max(1, min(count, _TABLE_BYTES // (8 * per_column)))
        buf = _scratch(per_column * width)
        for lo in range(0, count, width):
            w = min(width, count - lo)
            tables, ring, two_x, *views = _carve(
                buf, (mu - 1, d + 3, w), (group + 2, w), (w,), *[(rest, w)] * len(parts), *[(sums - rest, w)] * len(parts)
            )
            sums_of, later = views[: len(parts)], views[len(parts) :]
            xs = x[:, lo : lo + w]
            np.multiply(xs[-1], 2.0, out=two_x)
            for i0 in range(0, d + 1, group):
                if i0:
                    ring[:2] = ring[group:]
                rows = ring[: 2 + min(group, d + 1 - i0)]
                _recurrence(rows, i0, xs[-1], two_x)
                cols = slice(i0, i0 + len(rows) - 2)
                for part, total, product in zip(parts, sums_of, later):
                    np.matmul(part[:, cols], rows[2:], out=product if i0 else total)
                    if i0:
                        total += product
            for x_j, table in zip(xs, tables):
                np.multiply(x_j, 2.0, out=two_x)
                _recurrence(table, 0, x_j, two_x)
                sums_of = [_fold(total, table[2:]) for total in sums_of]
            for target, total in zip(targets, sums_of):
                target[lo : lo + w] = total[0]
        return out

    def _points(self, x) -> np.ndarray:
        """x as a real (mu, B) float64 array; anything else is a ContractError."""
        if np.iscomplexobj(x):
            raise ContractError("Chebyshev fits are evaluated at real points")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.ndim != 2 or x.shape[0] != self.mu:
            raise ContractError(f"expected {self.mu} variables, got points of shape {x.shape}")
        return x


def _carve(buf: np.ndarray, *shapes) -> list[np.ndarray]:
    """Consecutive C-contiguous views of the given shapes at the front of buf."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[at : at + size].reshape(shape))
        at += size
    return views


def _recurrence(rows: np.ndarray, i0: int, x: np.ndarray, two_x: np.ndarray) -> None:
    """Fill rows[2:] with T_i0(x), T_i0+1(x), ... by T_i = 2x T_i-1 - T_i-2;
    rows[0] and rows[1] hold T_i0-2 and T_i0-1 when i0 >= 2."""
    for k in range(2, len(rows)):
        i = i0 + k - 2
        if i < 2:
            rows[k] = x if i else 1.0
        else:
            np.multiply(two_x, rows[k - 1], out=rows[k])
            np.subtract(rows[k], rows[k - 2], out=rows[k])


def _fold(part: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Contract the leading variable of a ((d+1)*r, w) block with its table."""
    part = part.reshape(table.shape[0], -1, table.shape[1])
    np.multiply(part, table[:, None, :], out=part)
    return part.sum(axis=0)


def _quad_nodes(count: int) -> np.ndarray:
    return np.cos(np.pi * (np.arange(count) + 0.5) / count)


def _cos_matrix(degree: int, count: int) -> np.ndarray:
    j = np.arange(degree + 1)[:, None]
    i = np.arange(count)[None, :]
    return np.cos(np.pi * j * (i + 0.5) / count)


def _tensor_grid(x: np.ndarray, mu: int) -> np.ndarray:
    """All mu-tuples of the 1-D points x, as a (mu, len(x)**mu) array in C order."""
    mesh = np.meshgrid(*([x] * mu), indexing="ij")
    return np.stack([m.ravel() for m in mesh])


def bernstein_bound(a: float, C: float, d: int, mu: int) -> float:
    """Degree-d Chebyshev error of a function of mu variables bounded by C on
    the Bernstein ellipse of parameter a in each variable."""
    rho = math.exp(a)
    return 2.0 * C * rho ** (-d) / (rho - 1.0) * mu * (2.0 * rho / (rho - 1.0)) ** (mu - 1)


@dataclass
class Certificate:
    a: float | None  # shared ellipse parameter; None for exact polynomials
    C: float | None
    exact_degree: int | None  # max per-variable degree when G is polynomial

    def error_bound(self, d: int, mu: int) -> float:
        if self.exact_degree is not None:
            return 0.0 if d >= self.exact_degree else math.inf
        return bernstein_bound(self.a, self.C, d, mu)


def cheb_fit_1d(f, t_bar: float, d: int, analytic: tuple[float, float] | None = None) -> ChebyshevApprox:
    """Fit x -> f(t_bar * x) on [-1, 1] by a degree-d Chebyshev expansion.

    ``analytic`` optionally supplies (a, C) for a certified error bound.
    """
    return cheb_fit_multi(lambda t: f(t[0]), (t_bar,), d, analytic)


def cheb_fit_multi(
    G, t_bars, d: int, analytic: tuple[float, float] | None = None
) -> ChebyshevApprox:
    """Tensor-product fit of G(t_1..t_mu); G maps a (mu, B) array to (B,) values.

    ``analytic`` supplies a shared ellipse parameter and sup bound; the
    certified error follows the Bernstein bound for mu variables.
    """
    t_bars = tuple(float(t) for t in t_bars)
    mu = len(t_bars)
    if mu > MULTIVAR_CAP:
        raise CapacityError(f"mu={mu} above the tensor-grid cap {MULTIVAR_CAP}")
    if mu == 0:
        raise ContractError("need at least one variable")
    if d < 0:
        raise DomainError("degree must be nonnegative")
    if min(t_bars) <= 0:
        raise DomainError("t_bar must be positive")

    K = (4 if mu <= 2 else 2) * (d + 1)
    if K**mu > FIT_POINT_CAP:
        raise CapacityError(f"degree {d} needs {K}^{mu} quadrature points, above the cap {FIT_POINT_CAP}")
    scale_t = np.asarray(t_bars)[:, None]
    vals = np.asarray(G(_tensor_grid(_quad_nodes(K), mu) * scale_t), dtype=np.complex128).reshape((K,) * mu)
    if not np.all(np.isfinite(vals)):
        raise NumericError("function not finite on the quadrature grid")
    cos = _cos_matrix(d, K)
    cos[0] = 0.5  # the half weight of c_0, exact as a power of two
    coeffs = vals
    for _ in range(mu):
        # contract the leading axis and rotate it to the back
        coeffs = np.tensordot(cos, coeffs, axes=([1], [0]))
        coeffs = np.moveaxis(coeffs, 0, -1) * (2.0 / K)
    approx = ChebyshevApprox(coeffs, t_bars, d, None, 0.0)

    per_axis = max(2, int(math.ceil(DENSE_GRID_POINTS ** (1.0 / mu))))
    gx = _tensor_grid(np.linspace(-1.0, 1.0, per_axis), mu)
    resid = np.abs(np.asarray(G(gx * scale_t), dtype=np.complex128) - approx.evaluate_unit(gx))
    approx.error_empirical = float(resid.max())
    if analytic is not None:
        approx.error_bound = Certificate(analytic[0], analytic[1], None).error_bound(d, mu)
    return approx


class _PolyStateEvaluator:
    """Amplitude evaluator P(t_1(s)..t_mu(s)) for materialize()."""

    def __init__(self, reduced: ReducedForm, poly: ChebyshevApprox):
        self.reduced = reduced
        self.poly = poly
        self.n = reduced.n

    def eval_bits(self, bits):
        return self.poly.evaluate(self.reduced.feature_values(np.asarray(bits)))


def auxiliary_state(r: ReducedForm, P: ChebyshevApprox, threads: int = 1) -> Statevector:
    """Normalized state whose amplitudes are the fitted polynomial of the features."""
    if P.mu != r.mu:
        raise ContractError(f"fit has {P.mu} variables, reduced form has {r.mu}")
    for f, t_bar in zip(r.features, P.t_bars):
        if feature_supnorm(f) > t_bar * (1.0 + 1e-12):
            raise ContractError(
                f"feature sup-norm {feature_supnorm(f):.6g} exceeds fit domain {t_bar:.6g}"
            )
    return materialize(_PolyStateEvaluator(r, P), threads=threads)


def rank_bound(d: int, mu: int) -> int:
    """Schmidt-rank bound ((d+1)(d+2)/2)^mu of any polynomial auxiliary state."""
    if d < 0 or mu < 1:
        raise DomainError("need d >= 0 and mu >= 1")
    return ((d + 1) * (d + 2) // 2) ** mu


def degree_for_n(n: int, a: float, C: float) -> int:
    """Smallest degree making the one-variable chain bound O(1) at size n."""
    if a <= 0 or C <= 0:
        raise DomainError("need a > 0 and C > 0")
    value = (n / (2.0 * a)) * math.log(2.0) + math.log(n) / a + math.log(8.0 * C / (math.exp(a) - 1.0)) / a
    return max(0, math.ceil(value))


def degree_for_n_multi(n: int, rho_star: float, C: float, mu: int) -> int:
    """Multivariable analog; rho_star = exp(a) must exceed 1."""
    if rho_star <= 1.0:
        raise DomainError("rho_star must exceed 1")
    if C <= 0 or mu < 1:
        raise DomainError("need C > 0 and mu >= 1")
    log_r = math.log(rho_star)
    value = (
        n * math.log(2.0) / (2.0 * log_r)
        + 2.0 * math.log(n) / log_r
        + math.log(C * 2.0 ** (mu + 2) * mu * (rho_star - 1.0) ** (-mu) * rho_star ** (mu - 1)) / log_r
    )
    return max(0, math.ceil(value))


# ---------------------------------------------------------------------------
# certificates for reduced forms
# ---------------------------------------------------------------------------


def _boundary_grid(a: float, mu: int, total: int = DENSE_GRID_POINTS) -> np.ndarray:
    per_axis = max(8, int(round(total ** (1.0 / mu))))
    theta = 2.0 * math.pi * (np.arange(per_axis) + 0.5) / per_axis
    ring = np.cosh(a) * np.cos(theta) + 1j * np.sinh(a) * np.sin(theta)
    return _tensor_grid(ring, mu)


def reduced_certificate(r: ReducedForm) -> Certificate | None:
    """Analyticity certificate for the reduced evaluator, when obtainable.

    One walk over the residual's live nodes checks that every nonlinearity
    is holomorphic (the sup bound is sampled on complex points), caps the
    ellipse for pole-limited kinds (tanh), which must read the feature ports
    directly, so that the affine image keeps a 10% margin from the nearest
    singularity, and carries each node's highest degree in any one feature,
    None once a part is not polynomial. An exact polynomial certifies with
    zero error. Otherwise the candidates are the capped parameter for a
    pole-limited G and ``_A_GRID`` for an entire one; the search stops at
    the first whose boundary evaluation raises ``NumericError`` or has a
    non-finite sup, and keeps the best score log C - a ``_A_SCORE_DEGREE``
    before it. The sup bound C is a boundary-sampling estimate inflated by 10%.
    """
    if r.mu == 0:
        return None
    t_bars = np.array([feature_supnorm(f) for f in r.features])
    res = r.residual
    sinh_cap = None
    degree: dict[int, int | None] = {}
    for nid in res.live_order:
        node = res.nodes[nid]
        reads = [1 if _is_raw(ref) else degree[ref] for ref, _ in node.inputs]
        degree[nid] = None if None in reads else max(reads, default=0)
        if node.kind != "nonlinear":
            continue
        act = node.activation
        if not act.holomorphic:
            return None
        degree[nid] = None if degree[nid] is None or act.degree is None else degree[nid] * act.degree
        if act.pole_distance is None:
            continue
        if any(not _is_raw(ref) for ref, _ in node.inputs):
            return None  # pole-limited nonlinearity composed with another one
        reach = sum(abs(w.real) * t_bars[ref[1]] for ref, w in node.inputs)
        if reach > 0.0:
            cap = 0.9 * act.pole_distance / reach
            sinh_cap = cap if sinh_cap is None else min(sinh_cap, cap)
    if res.output_node.output_mode == "amplitude" and degree[res.output_id] is not None:
        return Certificate(a=None, C=None, exact_degree=degree[res.output_id])
    if r.mu > MULTIVAR_CAP:
        return None

    best = None
    for a in [math.asinh(sinh_cap)] if sinh_cap is not None else _A_GRID:
        try:
            sup = float(np.max(np.abs(res.eval_ports(_boundary_grid(a, r.mu) * t_bars[:, None]))))
        except NumericError:
            break
        if not math.isfinite(sup):
            break
        score = math.log(max(sup, 1e-300)) - a * _A_SCORE_DEGREE
        if best is None or score < best[0]:
            best = (score, Certificate(a=a, C=sup * _SUP_INFLATION, exact_degree=None))
    return best[1] if best else None


# ---------------------------------------------------------------------------
# end-to-end bound report
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    n: int
    k: int
    mu: int
    d: int
    rank_bound: int
    entropy_bound_aux: float
    eps_poly: float | None
    delta_norm_bound: float | None
    trace_bound: float | None
    fa_slack: float | None
    entropy_bound_final: float | None
    certified: bool
    empirical_only: bool
    eps_raw: float | None
    error_empirical: float
    ellipse_a: float | None
    ellipse_C: float | None
    measured_entropy: float
    measured_entropy_aux: float
    measured_two_norm_distance: float
    region_mask: int

    def to_json(self) -> dict:
        doc = asdict(self)
        doc["region_mask_hex"] = f"{self.region_mask:x}"
        del doc["region_mask"]
        doc["schema_version"] = 1
        return doc


def full_bound_report(
    g: ComputationGraph,
    region: Subregion,
    degree: int | str = "auto",
    threads: int = 1,
) -> BoundReport:
    """Assemble the explicit bound chain for one graph and subregion.

    With a certificate the report is rigorous (up to the sampled C); without
    one it carries the empirical fit error only and no final bound.
    """
    r = feature_reduce(g)
    if r.mu == 0:
        raise ContractError("state has no feature dependence; nothing to bound")
    t_bars = tuple(feature_supnorm(f) for f in r.features)
    cert = reduced_certificate(r)

    if degree == "auto":
        if cert is None:
            raise DomainError("no analyticity certificate; pass an explicit degree")
        if cert.exact_degree is not None:
            d = cert.exact_degree
        elif r.mu == 1:
            d = degree_for_n(g.n, cert.a, cert.C)
        else:
            d = degree_for_n_multi(g.n, math.exp(cert.a), cert.C, r.mu)
    else:
        d = int(degree)

    fit = cheb_fit_multi(r.g_eval, t_bars, d)

    psi = materialize(g, threads=threads)
    psi_aux = auxiliary_state(r, fit, threads=threads)
    s_measured = subregion_entropy(psi, region).entropy
    s_aux = subregion_entropy(psi_aux, region).entropy
    dist = two_norm_distance(psi, psi_aux)

    eps_raw = cert.error_bound(d, r.mu) if cert is not None else None
    certified = eps_raw is not None and math.isfinite(eps_raw)
    rank = rank_bound(d, r.mu)
    if certified:
        eps_poly = eps_raw / psi.norm_was
        delta_bound = 2.0 * math.sqrt(eps_poly) * 2.0 ** (g.n / 4.0)
        trace_bound = min(1.0, delta_bound)
        slack = fa_slack_from_bound(trace_bound, region.size)
        final = math.log(rank) + slack
    else:
        eps_raw = eps_poly = delta_bound = trace_bound = slack = final = None

    return BoundReport(
        n=g.n,
        k=r.k,
        mu=r.mu,
        d=d,
        rank_bound=rank,
        entropy_bound_aux=math.log(rank),
        eps_poly=eps_poly,
        delta_norm_bound=delta_bound,
        trace_bound=trace_bound,
        fa_slack=slack,
        entropy_bound_final=final,
        certified=certified,
        empirical_only=not certified,
        eps_raw=eps_raw,
        error_empirical=fit.error_empirical,
        ellipse_a=cert.a if cert else None,
        ellipse_C=cert.C if cert else None,
        measured_entropy=s_measured,
        measured_entropy_aux=s_aux,
        measured_two_norm_distance=dist,
        region_mask=region.mask,
    )
