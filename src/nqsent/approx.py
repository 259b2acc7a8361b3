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
(8 MiB), carved from one buffer per call. In a block each variable's table
T_0..T_d comes from the recurrence T_i = 2x T_i-1 - T_i-2 with 2x computed
once, two ufunc calls per row. The coefficient tensor, reshaped to
(-1, d+1), meets the last variable's table in two real BLAS products, one
for its real and one for its imaginary part, so no table is ever complex;
each remaining variable is then folded in by a multiply-and-sum over its
axis. Coefficients with no imaginary part (the fit of a real G) skip the
imaginary product and give float64 values.

The bound chain for a state with reduced form G(t_1..t_mu) is: fit error
eps -> auxiliary-state 2-norm distance 2 sqrt(eps/norm) 2^(n/4) -> reduced
trace distance (monotone under partial trace) -> entropy difference via the
Fannes-Audenaert inequality -> measured entropy <= ln(rank bound) + slack.

``full_bound_report`` builds one 2^n statevector, the network's, when
mu = 1. The paper's constructive argument gives the rest: split across the
cut, the feature is x_A + x_B, and the fitted polynomial re-expands exactly
as sum_ab C_ab T_a(x_A) T_b(x_B), a (d+1) x (d+1) Chebyshev interpolation.
The auxiliary state's bipartition matrix is then U C V^T with Chebyshev
tables U and V of the two sides, so its spectrum comes from a triangular
QR factor of size at most d+1, and its distance from the network's state
from products against the column blocks of the state that
``entanglement._state_reader`` gathers, never a copy of the state
(``_split_chain``). For mu >= 2 the rank bound (d+1)^mu exceeds the side
dimensions and the auxiliary state is materialized instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .core import AffineFeature, Subregion, _is_integer, affine_tables, check_n, feature_supnorm
from .errors import CapacityError, ContractError, DegenerateStateError, DomainError, NumericError
from .graph import ComputationGraph, ReducedForm, feature_reduce
from .graph import _eval_bits_chunked, _TABLE_BYTES
from .statevector import Statevector, materialize, two_norm_distance, _normalized
from .entanglement import EntropyResult, fa_slack_from_bound, subregion_entropy, _check_cut, _one_blas_thread, _spectrum_of, _state_reader, _view_reader

MULTIVAR_CAP = 4
# cap on the K^mu quadrature points of a multivariable fit and on its
# (d+1) x K coefficient table. The grid (mu float64 rows), its complex
# values and the residual graph's per-node temporaries all grow with the
# points; 4M points stay within a few hundred MiB. The table binds only
# mu=1 (K = 4(d+1)), at d <= 1023, where the split chain also evaluates a
# (d+1)^2 grid. A mu=2, d=51 fit uses 43k points; a mu=4 cosnet fit at auto
# degree and n=12 would need 3.7e7.
FIT_POINT_CAP = 1 << 22
DENSE_GRID_POINTS = 10_000
_SUP_INFLATION = 1.1
_A_GRID = [0.25 * j for j in range(1, 15)]
# the ellipse is chosen to minimize the error bound C rho^-d at this degree
_A_SCORE_DEGREE = 16
# bytes of one block of the split chain's products; blocks of _TABLE_BYTES
# left about 10 MiB more of the allocator's heap resident from one bound
# report to the next
_SPLIT_BYTES = 1 << 20


@dataclass
class ChebyshevApprox:
    """Tensor of Chebyshev coefficients with per-variable domains [-t_bar, t_bar]."""

    coeffs: np.ndarray
    t_bars: tuple[float, ...]
    degree: int
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
        # float64 rows per column: every variable's table, 2x, and each
        # part's partial sums
        per_column = mu * (d + 1) + 1 + len(parts) * c.shape[0]
        width = max(1, min(count, _TABLE_BYTES // (8 * per_column)))
        buf = np.empty(per_column * width)
        for lo in range(0, count, width):
            w = min(width, count - lo)
            tables, two_x, *sums_of = _carve(buf, (mu, d + 1, w), (w,), *[(c.shape[0], w)] * len(parts))
            for x_j, table in zip(x[:, lo : lo + w], tables):
                np.multiply(x_j, 2.0, out=two_x)
                _recurrence(table, x_j, two_x)
            for part, total in zip(parts, sums_of):
                np.matmul(part, tables[-1], out=total)
            for table in tables[:-1]:
                sums_of = [_fold(total, table) for total in sums_of]
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


def _recurrence(rows: np.ndarray, x: np.ndarray, two_x: np.ndarray) -> None:
    """Fill rows with T_0(x), T_1(x), ... by T_i = 2x T_i-1 - T_i-2."""
    for i in range(len(rows)):
        if i < 2:
            rows[i] = x if i else 1.0
        else:
            np.multiply(two_x, rows[i - 1], out=rows[i])
            np.subtract(rows[i], rows[i - 2], out=rows[i])


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
    the Bernstein ellipse of parameter a in each variable.

    rho - 1 is ``expm1(a)``, which is 0 only at a = 0; there, and where a
    power overflows, the bound is inf, which certifies nothing."""
    try:
        rho, rho_m1 = math.exp(a), math.expm1(a)
        return 2.0 * C * rho ** (-d) / rho_m1 * mu * (2.0 * rho / rho_m1) ** (mu - 1)
    except (OverflowError, ZeroDivisionError):
        return math.inf


@dataclass
class Certificate:
    a: float | None  # shared ellipse parameter; None for exact polynomials
    C: float | None
    exact_degree: int | None  # max per-variable degree when G is polynomial

    def error_bound(self, d: int, mu: int) -> float:
        if self.exact_degree is not None:
            return 0.0 if d >= self.exact_degree else math.inf
        return bernstein_bound(self.a, self.C, d, mu)


def _nodes_per_axis(d: int, mu: int) -> int:
    return (4 if mu <= 2 else 2) * (d + 1)


def cheb_fit_multi(G, t_bars, d: int) -> ChebyshevApprox:
    """Tensor-product fit of G(t_1..t_mu); G maps a (mu, B) array to (B,) values.

    The degree d is an integer (not a bool), else a ContractError. The fit
    carries its empirical error on a dense check grid; the certified error
    is ``Certificate.error_bound(d, mu)``.
    """
    t_bars = tuple(float(t) for t in t_bars)
    mu = len(t_bars)
    if mu > MULTIVAR_CAP:
        raise CapacityError(f"mu={mu} above the tensor-grid cap {MULTIVAR_CAP}")
    if mu == 0:
        raise ContractError("need at least one variable")
    if not _is_integer(d):
        raise ContractError(f"degree must be an integer, got {d!r}")
    d = int(d)
    if d < 0:
        raise DomainError("degree must be nonnegative")
    if min(t_bars) <= 0:
        raise DomainError("t_bar must be positive")

    K = _nodes_per_axis(d, mu)
    if max(K**mu, (d + 1) * K) > FIT_POINT_CAP:
        raise CapacityError(
            f"degree {d} needs {K}^{mu} quadrature points and a {d + 1} x {K} coefficient table;"
            f" the cap is {FIT_POINT_CAP} entries for each"
        )
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
    approx = ChebyshevApprox(coeffs, t_bars, d, 0.0)

    per_axis = max(2, int(math.ceil(DENSE_GRID_POINTS ** (1.0 / mu))))
    gx = _tensor_grid(np.linspace(-1.0, 1.0, per_axis), mu)
    resid = np.abs(np.asarray(G(gx * scale_t), dtype=np.complex128) - approx.evaluate_unit(gx))
    approx.error_empirical = float(resid.max())
    return approx


def auxiliary_state(r: ReducedForm, P: ChebyshevApprox) -> Statevector:
    """Normalized state whose amplitudes are the fitted polynomial of the
    features, P(t_1(s)..t_mu(s)), in one chunk run as ``materialize`` on
    the calling thread: its chunks are BLAS products, which a pool slowed."""
    if P.mu != r.mu:
        raise ContractError(f"fit has {P.mu} variables, reduced form has {r.mu}")
    for f, t_bar in zip(r.features, P.t_bars):
        if feature_supnorm(f) > t_bar * (1.0 + 1e-12):
            raise ContractError(
                f"feature sup-norm {feature_supnorm(f):.6g} exceeds fit domain {t_bar:.6g}"
            )
    check_n(r.n)
    dtype = np.float64 if P.real else np.complex128
    amplitudes = _eval_bits_chunked(lambda piece: P.evaluate(r.feature_values(piece)), range(1 << r.n), dtype)
    return _normalized(amplitudes, r.n)


def rank_bound(d: int, mu: int) -> int:
    """Schmidt-rank bound ((d+1)(d+2)/2)^mu of any polynomial auxiliary state."""
    if d < 0 or mu < 1:
        raise DomainError("need d >= 0 and mu >= 1")
    return ((d + 1) * (d + 2) // 2) ** mu


def _auto_degree(cert: Certificate, n: int, mu: int) -> int:
    """Smallest degree d >= 0 with ``cert.error_bound(d, mu)`` at most the
    chain's target 2^(-n/2)/(4 n^min(mu, 2)): /(4n) for one variable,
    /(4n^2) for several. An exact polynomial's bound is inf below its exact
    degree and 0 from it on. The bound does not grow with d, so when the
    largest degree whose fit points and coefficient table are within
    ``FIT_POINT_CAP`` misses the target, the next, which ``cheb_fit_multi``
    refuses, is returned at once; else d counts up from 0 (a log/ceil closed
    form errs on exact boundaries).
    """
    target = 2.0 ** (-n / 2.0) / (4.0 * n ** min(mu, 2))
    root = round(FIT_POINT_CAP ** (1.0 / mu))
    root -= root**mu > FIT_POINT_CAP  # the float root may round up
    per_degree = _nodes_per_axis(0, mu)  # K = per_degree * (d + 1)
    # (per_degree (d+1))^mu points and a (d+1) x per_degree (d+1) table
    top = min(root // per_degree, math.isqrt(FIT_POINT_CAP // per_degree)) - 1
    if top < 0 or cert.error_bound(top, mu) > target:
        return top + 1
    d = 0
    while cert.error_bound(d, mu) > target:
        d += 1
    return d


# ---------------------------------------------------------------------------
# certificates for reduced forms
# ---------------------------------------------------------------------------


def _boundary_grid(a: float, mu: int) -> np.ndarray:
    per_axis = max(8, int(round(DENSE_GRID_POINTS ** (1.0 / mu))))
    theta = 2.0 * math.pi * (np.arange(per_axis) + 0.5) / per_axis
    ring = np.cosh(a) * np.cos(theta) + 1j * np.sinh(a) * np.sin(theta)
    return _tensor_grid(ring, mu)


def reduced_certificate(r: ReducedForm) -> Certificate | None:
    """Analyticity certificate for the reduced evaluator, when obtainable.

    One walk over the residual's live nodes checks that every nonlinearity
    is holomorphic (the sup bound is sampled on complex points; a product is
    entire, of the summed degree of its factors), caps the
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
        reads = [1 if raw else degree[ref] for (ref, _), raw in zip(node.inputs, node.raw)]
        degree[nid] = None if None in reads else sum(reads) if node.kind == "product" else max(reads, default=0)
        if node.kind != "nonlinear":
            continue
        act = node.activation
        if not act.holomorphic:
            return None
        degree[nid] = None if degree[nid] is None or act.degree is None else degree[nid] * act.degree
        if act.pole_distance is None:
            continue
        if node.preds:
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


def _split_chain(f: AffineFeature, fit: ChebyshevApprox, psi: Statevector, region: Subregion) -> tuple[EntropyResult, float]:
    """Spectrum of the one-feature auxiliary state P(f/t_bar) on the cut
    ``region``, and its 2-norm distance from the normalized state psi,
    without the auxiliary state.

    Each side carries its feature weights and half the bias, over t_bar; its
    values x over the side's configurations (index doubling, with
    ``bipartition``'s bit order) span [mid - half, mid + half]. In
    y = (x - mid) / half the amplitude P(x_A + x_B) is a polynomial of
    degree d in (y_A, y_B), so Chebyshev interpolation on the product of
    d+1 nodes per side reproduces it as sum_ab C_ab T_a(y_A) T_b(y_B); a
    side with half = 0 takes one node and degree 0. The auxiliary matrix is
    then T_S C T_L^T, with S the side ``_state_reader`` puts in the rows
    (the one of fewer configurations) and L the other. With T_S = Q R_S, it
    has the singular values of W = R_S C T_L^T, which are those of
    R_U C R_V^T. A QR of W^T over blocks of L's configurations leaves a
    triangular R with them, and ``_spectrum_of`` reads the spectrum from R
    over ||R||_F = ||W||_F, the norm of the unnormalized auxiliary state.

    The distance ||M - T_S C T_L^T / ||W||_F||_F, with M psi's bipartition
    matrix, is summed over the state reader's blocks in their fixed order,
    with real products for the real and imaginary parts. Apart from the
    side values, the tables of S (at most 2^(n/2) rows) and one block of M
    and of its products, L's tables stay near ``_TABLE_BYTES``.
    """
    d, t_bar = fit.degree, fit.t_bars[0]
    y, weights, points = [], [], []
    for side in (region, region.complement()):
        members = side.members()
        x = affine_tables(f.weights[None, members], np.array([0.5 * f.bias]))[0] / t_bar
        lo, hi = float(x.min()), float(x.max())
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        deg = d if half > 0.0 else 0
        y.append((x - mid) / half if half > 0.0 else np.zeros_like(x))
        cos = _cos_matrix(deg, deg + 1)
        cos[0] = 0.5  # the half weight of c_0, as in cheb_fit_multi
        weights.append(cos * (2.0 / (deg + 1)))
        points.append(mid + half * _quad_nodes(deg + 1))
    grid = fit.evaluate_unit((points[0][:, None] + points[1][None, :]).reshape(1, -1))
    C = weights[0] @ grid.reshape(points[0].size, points[1].size) @ weights[1].T
    (rows_side, reader), (y_s, y_l) = _state_reader(psi, region), y
    if rows_side != region:
        C, y_s, y_l = C.T, y_l, y_s
    k_l = C.shape[1]

    def table(v: np.ndarray, count: int) -> np.ndarray:
        out = np.empty((count, v.size))
        _recurrence(out, v, 2.0 * v)
        return out

    t_s = table(y_s, C.shape[0]).T
    Z = np.linalg.qr(t_s, mode="r") @ C
    # columns of L per block: tables near _TABLE_BYTES, products near _SPLIT_BYTES
    width = max(Z.shape[0], min(_TABLE_BYTES // (8 * (k_l + 2)), _SPLIT_BYTES // (32 * Z.shape[0])))
    R = np.zeros((0, Z.shape[0]), Z.dtype)
    for lo in range(0, y_l.size, width):
        piece = table(y_l[lo : lo + width], k_l).T
        # W^T = T_L Z^T, by real products since T_L is real
        piece = piece @ Z.T.real + 1j * (piece @ Z.T.imag) if np.iscomplexobj(Z) else piece @ Z.T
        R = np.linalg.qr(np.vstack([R, piece]), mode="r")
    norm_sq = float(np.vdot(R, R).real)
    if norm_sq == 0.0:
        raise DegenerateStateError("the auxiliary state vanishes; it cannot be normalized")
    R = R / math.sqrt(norm_sq)
    spectrum = _spectrum_of(_view_reader(R), region)

    split = np.iscomplexobj(C) or np.iscomplexobj(psi.amplitudes)
    parts = [C.real, C.imag] if split else [C]
    aux = np.concatenate([t_s @ p for p in parts]) / math.sqrt(norm_sq)
    dist_sq = 0.0
    for cut, block in reader.blocks():
        state = [block.real, block.imag] if split else [block]
        # L's tables in slices of the QR pass's width
        for lo in range(0, block.shape[1], width):
            cols = slice(lo, lo + width)
            for value, target in zip(np.split(aux @ table(y_l[cut][cols], k_l), len(parts)), state):
                value -= target[:, cols]
                dist_sq += float(np.vdot(value, value))
    return spectrum, math.sqrt(dist_sq)


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


@_one_blas_thread()
def full_bound_report(
    g: ComputationGraph,
    region: Subregion,
    degree: int | str = "auto",
    threads: int = 1,
) -> BoundReport:
    """Assemble the explicit bound chain for one graph and subregion.

    With a certificate the report is rigorous (up to the sampled C); without
    one it carries the empirical fit error only and no final bound.
    ``degree`` is "auto" or an integer (not a bool); anything else, and a
    region that is not a proper nonempty subset of the graph's n spins, is a
    ContractError raised before any fit or state, as is the spin cap's
    CapacityError.

    The network's state is the only 2^n statevector when mu = 1, and is
    never copied: the auxiliary entropy and the distance come from the
    split factorization of the fit (``_split_chain``), read against the
    state's column blocks as ``subregion_entropy`` reads them. For mu >= 2
    the auxiliary state is materialized and read like the network's.

    The whole report runs on one BLAS thread (``_one_blas_thread``, as a
    decorator), so its bytes do not depend on ``OPENBLAS_NUM_THREADS``.
    """
    if not (_is_integer(degree) or isinstance(degree, str) and degree == "auto"):
        raise ContractError(f"degree must be 'auto' or an integer, got {degree!r}")
    _check_cut(g.n, region)
    check_n(g.n)
    r = feature_reduce(g)
    if r.mu == 0:
        raise ContractError("state has no feature dependence; nothing to bound")
    t_bars = tuple(feature_supnorm(f) for f in r.features)
    cert = reduced_certificate(r)

    if degree == "auto":
        if cert is None:
            raise DomainError("no analyticity certificate; pass an explicit degree")
        d = _auto_degree(cert, g.n, r.mu)
    else:
        d = int(degree)

    fit = cheb_fit_multi(r.g_eval, t_bars, d)

    psi = materialize(g, threads=threads)
    norm_was = psi.norm_was
    s_measured = subregion_entropy(psi, region).entropy
    if r.mu == 1:
        aux, dist = _split_chain(r.features[0], fit, psi, region)
    else:
        psi_aux = auxiliary_state(r, fit)
        aux = subregion_entropy(psi_aux, region)
        dist = two_norm_distance(psi, psi_aux)

    eps_raw = cert.error_bound(d, r.mu) if cert is not None else None
    certified = eps_raw is not None and math.isfinite(eps_raw)
    rank = rank_bound(d, r.mu)
    if certified:
        eps_poly = eps_raw / norm_was
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
        measured_entropy_aux=aux.entropy,
        measured_two_norm_distance=dist,
        region_mask=region.mask,
    )
