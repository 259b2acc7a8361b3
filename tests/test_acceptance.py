"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Two criteria carry an
analysis worth stating here:

* criterion 2: the Dicke spectrum is hypergeometric, with variance
  m(n-m)/(4(n-1)) -> (n/4)p(1-p), and the large-n form uses that variance.
  The binomial variance (n/2)p(1-p) would leave a gap of ln(2)/2 ~ 0.3466
  nats at every n, far outside the 0.01 tolerance.
* criterion 4b: with one feature t = t_A + t_B (the bias rides in t), the
  auxiliary amplitude is P(t_A + t_B) = sum_j c_j sum_i C(j,i) t_A^i t_B^(j-i),
  which lies in span{t_B^0, ..., t_B^deg P}. Its Schmidt rank is therefore at
  most deg P + 1 <= d + 1 at every bipartition, so "rank > d+1" cannot be
  met; the criterion asserts that the rank deg P + 1 is attained exactly.
  The (d+1)(d+2)/2 cap of criterion 4a is only an upper bound.
"""

import math
import time

import numpy as np
import pytest

from conftest import haar_state, random_evaluable_dag
from oracles import cheb_fit_1d, chunked_eval_bits, reduced_trace_distance

from nqsent.analytic import dicke_entropy, dicke_entropy_asymptotic, page_value
from nqsent.ansatz import DickeSpec, SnnqsSpec, build_dicke, build_snnqs
from nqsent.approx import auxiliary_state, cheb_fit_multi, full_bound_report, rank_bound, reduced_certificate
from nqsent.core import RngStream, Subregion, feature_supnorm
from nqsent.entanglement import fannes_audenaert_bound, subregion_entropy
from nqsent.experiments import ExperimentConfig, run_sweep, write_csv
from nqsent.graph import feature_reduce
from nqsent.statevector import from_amplitudes, materialize, two_norm_distance

SEED = 20260810


def _report(num: str, ok: bool, label: str, detail: str = ""):
    print(f"[criterion {num:>3}] {'PASS' if ok else 'FAIL'}  {label}  {detail}".rstrip())
    assert ok, f"criterion {num} ({label}): {detail}"


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sin_family():
    """SN-NQS with sine activation at n=10 plus fits at the tested degrees."""
    g = build_snnqs(
        SnnqsSpec(n=10, activation="sin", parameterization="direct", bias_std=0.5), RngStream(SEED).child(0)
    )
    r = feature_reduce(g)
    cert = reduced_certificate(r)
    assert cert is not None and cert.a is not None
    psi = materialize(g)
    t_bar = feature_supnorm(r.features[0])
    fits, auxes = {}, {}
    for d in (2, 3, 4, 5, 6, 8, 12, 16):
        fits[d] = cheb_fit_multi(r.g_eval, (t_bar,), d)
        auxes[d] = auxiliary_state(r, fits[d])
    return {"graph": g, "reduced": r, "cert": cert, "psi": psi, "fits": fits, "aux": auxes}


def _dag_soundness_rows(threads: int) -> list[str]:
    gen = np.random.default_rng(SEED)
    rows = []
    for idx in range(500):
        n = int(gen.integers(2, 13))
        g = random_evaluable_dag(gen, n=n, max_k=8)
        r = feature_reduce(g)
        bits = np.arange(1 << n)
        # chunks of 1024 on up to ``threads`` workers, light tape or not
        full = chunked_eval_bits(g, bits, threads, chunk=1024)
        red = chunked_eval_bits(r, bits, threads, chunk=1024)
        scale = float(np.abs(full).max())
        err = float(np.abs(full - red).max())
        assert r.mu <= g.k + 1, f"graph {idx}: mu={r.mu} > k+1={g.k + 1}"
        assert err <= 1e-12 * max(scale, 1e-300), f"graph {idx}: err={err:.3e} scale={scale:.3e}"
        rows.append(f"{idx},{n},{g.k},{r.mu},{scale!r},{err!r}")
    return rows


@pytest.fixture(scope="module")
def dag_soundness(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc") / "criterion3.csv"
    rows = _dag_soundness_rows(threads=2)
    path.write_text("graph,n,k,mu,sup_amp,sup_err\n" + "\n".join(rows) + "\n")
    return {"path": path, "rerun": _dag_soundness_rows}


def _phase_sweep(threads: int):
    cfg = ExperimentConfig(
        name="crit8",
        ansatz={"family": "snnqs", "activation": "i*tanh", "parameterization": "wrap_exp", "bias_std": 0.5},
        n_grid=[16],
        region_mode="random-subset",
        sizes=list(range(1, 9)),
        trials=20,
        regions_per_trial=10,
        seed=SEED,
    )
    return run_sweep(cfg, threads=threads)


@pytest.fixture(scope="module")
def phase_sweep(tmp_path_factory):
    res = _phase_sweep(threads=2)
    path = tmp_path_factory.mktemp("acc8") / "criterion8.csv"
    write_csv(res, path)
    return {"result": res, "path": path, "rerun": _phase_sweep}


def _cosnet_sweep(threads: int):
    cfg = ExperimentConfig(
        name="crit9",
        ansatz={"family": "cosnet", "sigma_a": 10.0, "sigma_w": 1.0},
        n_grid=[12],
        region_mode="random-subset",
        sizes=[4],
        trials=20,
        regions_per_trial=10,
        seed=SEED,
        k_grid=[2, 512],
    )
    return run_sweep(cfg, threads=threads)


@pytest.fixture(scope="module")
def cosnet_sweep(tmp_path_factory):
    res = _cosnet_sweep(threads=2)
    path = tmp_path_factory.mktemp("acc9") / "criterion9.csv"
    write_csv(res, path)
    return {"result": res, "path": path, "rerun": _cosnet_sweep}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_dicke_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 12, 14):
        psi = materialize(build_dicke(DickeSpec(n)), threads=2)
        for m in range(1, n):
            got = subregion_entropy(psi, Subregion((1 << m) - 1, n)).entropy
            worst = max(worst, abs(got - dicke_entropy(n, m)))
    elapsed = time.perf_counter() - t0
    _report("1", worst < 1e-10 and elapsed < 30, "statevector matches hypergeometric entropy",
            f"worst |dS|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_dicke_asymptotics():
    t0 = time.perf_counter()
    gaps = {p: abs(dicke_entropy(1000, int(1000 * p)) - dicke_entropy_asymptotic(1000, p)) for p in (0.25, 0.5)}
    elapsed = time.perf_counter() - t0
    ok = all(gap < 0.01 for gap in gaps.values()) and elapsed < 1.0
    _report(
        "2", ok, "large-n formula within 0.01 nats of exact spectrum",
        f"gaps={{0.25: {gaps[0.25]:.4f}, 0.5: {gaps[0.5]:.4f}}} (hypergeometric variance (n/4)p(1-p); "
        "the binomial variance (n/2)p(1-p) would sit ln2/2 = 0.3466 above)",
    )


def test_criterion_03_feature_reduction_soundness(dag_soundness):
    t0 = time.perf_counter()
    text = dag_soundness["path"].read_text()
    rows = text.strip().splitlines()[1:]
    elapsed = time.perf_counter() - t0  # generation happened in the fixture
    _report("3", len(rows) == 500, "500 random DAGs: mu <= k+1 and reduced eval matches 1e-12",
            f"{len(rows)} graphs checked")


def test_criterion_04a_rank_bound(sin_family):
    t0 = time.perf_counter()
    n = 10
    regions = [Subregion(mask, n) for mask in range(1, (1 << n) - 1)]
    worst = {}
    for d in (2, 3, 4, 5, 6):
        aux = sin_family["aux"][d]
        cap = rank_bound(d, 1)
        top = 0
        for region in regions:
            rank = subregion_entropy(aux, region).schmidt_rank
            top = max(top, rank)
            assert rank <= cap, f"d={d}, mask={region.mask:#x}: rank {rank} > {cap}"
        worst[d] = top
    elapsed = time.perf_counter() - t0
    _report("4a", elapsed < 60, "auxiliary Schmidt rank <= (d+1)(d+2)/2 at every bipartition",
            f"max ranks per degree {worst}, {elapsed:.1f}s")


def test_criterion_04b_rank_attainment(sin_family):
    n = 10
    regions = [Subregion(mask, n) for mask in range(1, (1 << n) - 1)]
    attained, degrees = {}, {}
    for d in (2, 3, 4, 5, 6):
        coeffs = np.abs(sin_family["fits"][d].coeffs)
        degrees[d] = int(np.nonzero(coeffs > 1e-12 * coeffs.max())[0].max())
        aux = sin_family["aux"][d]
        attained[d] = max(subregion_entropy(aux, region).schmidt_rank for region in regions)
    ok = all(attained[d] == degrees[d] + 1 for d in attained)
    _report(
        "4b", ok, "max rank over all bipartitions equals deg P + 1 at every degree",
        f"max ranks {attained}, deg P {degrees} (one feature: P(t_A+t_B) lies in "
        "span{t_B^0..t_B^deg P}, so rank <= deg P + 1 <= d+1 and rank > d+1 cannot be met)",
    )


def test_criterion_05_approximation_chain(sin_family):
    t0 = time.perf_counter()
    psi = sin_family["psi"]
    n = 10
    worst_margin = math.inf
    fa_checked = 0
    for d in (8, 12, 16):
        aux = sin_family["aux"][d]
        eps_poly = sin_family["cert"].error_bound(d, 1) / psi.norm_was
        delta_bound = 2.0 * math.sqrt(eps_poly) * 2 ** (n / 4)
        dist = two_norm_distance(psi, aux)
        assert dist <= delta_bound, f"d={d}: ||psi-aux||={dist:.3e} > {delta_bound:.3e}"
        worst_margin = min(worst_margin, delta_bound - dist)
        for m in range(1, n):
            region = Subregion((1 << m) - 1, n)
            T = min(1.0, reduced_trace_distance(psi, aux, region))
            ds = abs(subregion_entropy(psi, region).entropy - subregion_entropy(aux, region).entropy)
            assert ds <= fannes_audenaert_bound(T, m) + 1e-10, f"d={d}, m={m}: |dS|={ds:.3e} above the bound"
            fa_checked += 1
    elapsed = time.perf_counter() - t0
    _report("5", elapsed < 120, "distance and entropy-difference bounds hold outright",
            f"{fa_checked} entropy checks, min distance margin {worst_margin:.3e}, {elapsed:.1f}s")


def test_criterion_06_chebyshev_geometric_convergence():
    t0 = time.perf_counter()
    ds = np.arange(4, 41)
    errs = [cheb_fit_1d(lambda t: 1.0 / (1.0 + 4.0 * t * t), 1.0, int(d)).error_empirical for d in ds]
    slope = float(np.polyfit(ds, np.log(errs), 1)[0])
    target = -math.log((1.0 + math.sqrt(5.0)) / 2.0)
    elapsed = time.perf_counter() - t0
    ok = abs(slope - target) <= 0.05 * abs(target) and elapsed < 10
    _report("6", ok, "log-error slope within 5% of -ln((1+sqrt5)/2)",
            f"slope={slope:.5f} target={target:.5f}, {elapsed:.1f}s")


def test_criterion_07_linear_activation_product_state():
    t0 = time.perf_counter()
    g = build_snnqs(
        SnnqsSpec(n=16, activation="identity", parameterization="wrap_exp"), RngStream(SEED).child(7)
    )
    psi = materialize(g, threads=2)
    worst = 0.0
    for m in range(1, 16):
        worst = max(worst, subregion_entropy(psi, Subregion((1 << m) - 1, 16)).entropy)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 60
    _report("7", ok, "linear activation gives a product state at all 15 contiguous cuts",
            f"max S={worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_log_scaling_reproduction(phase_sweep):
    t0 = time.perf_counter()
    res = phase_sweep["result"]
    means = {}
    for size in range(1, 9):
        # per-trial means over the regions of each trial at n=16
        per_trial = {}
        for row in res.rows:
            if row.n == 16 and row.subsystem_size == size:
                per_trial.setdefault(row.trial, []).append(row.entropy_nats)
        tm = np.array([float(np.mean(per_trial[t])) for t in sorted(per_trial)])
        assert tm.size == 20
        means[size] = tm
    nondecreasing = True
    detail = []
    for size in range(1, 8):
        diffs = means[size + 1] - means[size]
        se = diffs.std(ddof=1) / math.sqrt(diffs.size)
        if diffs.mean() < -2.0 * se:
            nondecreasing = False
            detail.append(f"{size}->{size + 1}: {diffs.mean():.4f} < -2SE")
    inc_hi = means[8].mean() - means[4].mean()
    inc_lo = means[4].mean() - means[2].mean()
    concave = inc_hi <= 1.2 * inc_lo
    elapsed = time.perf_counter() - t0
    ok = nondecreasing and concave
    _report("8", ok, "mean S(|A|) nondecreasing at 2 sigma and log-concave increments",
            f"S(8)-S(4)={inc_hi:.4f} <= 1.2*[S(4)-S(2)]={1.2 * inc_lo:.4f}; {'; '.join(detail)}")


def test_criterion_09_cosnet_page_approach(cosnet_sweep):
    res = cosnet_sweep["result"]
    page = page_value(4, 12)
    means = {p["k"]: p["mean"] for p in res.aggregates()}
    hi_ok = abs(means[512] - page) <= 0.15 * page
    lo_ok = means[2] < 0.60 * page
    _report("9", hi_ok and lo_ok, "k=512 within 15% of the Haar average, k=2 below 60%",
            f"S(k=512)={means[512]:.4f}, S(k=2)={means[2]:.4f}, page={page:.4f}")


def test_criterion_10_bound_dominance(sin_family):
    g = sin_family["graph"]
    region = Subregion((1 << 5) - 1, 10)
    margins = {}
    for d in (2, 3, 4, 5, 6, 8, 12, 16):
        report = full_bound_report(g, region, degree=d)
        assert report.certified, f"d={d}: run lost its certificate"
        assert report.entropy_bound_final > report.measured_entropy, (
            f"d={d}: bound {report.entropy_bound_final:.4f} fails to dominate {report.measured_entropy:.4f}"
        )
        margins[d] = report.entropy_bound_final - report.measured_entropy
    _report("10", True, "entropy_bound_final strictly dominates measured entropy",
            f"min margin {min(margins.values()):.3f} nats")


def test_criterion_11_thread_determinism(dag_soundness, phase_sweep, cosnet_sweep, tmp_path):
    t0 = time.perf_counter()
    rows_again = dag_soundness["rerun"](threads=3)
    text_again = "graph,n,k,mu,sup_amp,sup_err\n" + "\n".join(rows_again) + "\n"
    ok3 = dag_soundness["path"].read_text() == text_again

    res8 = phase_sweep["rerun"](threads=1)
    p8 = tmp_path / "crit8_rerun.csv"
    write_csv(res8, p8)
    ok8 = p8.read_bytes() == phase_sweep["path"].read_bytes()

    res9 = cosnet_sweep["rerun"](threads=1)
    p9 = tmp_path / "crit9_rerun.csv"
    write_csv(res9, p9)
    ok9 = p9.read_bytes() == cosnet_sweep["path"].read_bytes()
    elapsed = time.perf_counter() - t0
    _report("11", ok3 and ok8 and ok9, "criteria 3, 8, 9 byte-identical across thread counts",
            f"3:{ok3} 8:{ok8} 9:{ok9}, {elapsed:.1f}s")


def test_criterion_12_fannes_audenaert_validity():
    t0 = time.perf_counter()
    n = 8
    gen = np.random.default_rng(SEED)
    regions = [Subregion(mask, n) for mask in range(1, 1 << n) if 1 <= bin(mask).count("1") <= 4]
    checked = 0
    for _ in range(200):
        a = from_amplitudes(haar_state(n, gen))
        b = from_amplitudes(haar_state(n, gen))
        for region in regions:
            T = min(1.0, reduced_trace_distance(a, b, region))
            ds = abs(subregion_entropy(a, region).entropy - subregion_entropy(b, region).entropy)
            bound = fannes_audenaert_bound(T, region.size)
            assert ds <= bound + 1e-9, f"mask={region.mask:#x}: |dS|={ds:.4f} > {bound:.4f}"
            checked += 1
    elapsed = time.perf_counter() - t0
    _report("12", elapsed < 120, "entropy difference bounded by the trace-distance inequality in every case",
            f"{checked} state-pair/region checks, {elapsed:.1f}s")
