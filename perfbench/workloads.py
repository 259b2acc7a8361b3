"""The benchmark's workloads: inputs made from a seed, one timed pass through
nqsent's public API, and the output checks run after the timed passes."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

import nqsent as nq
from nqsent import experiments
from nqsent.core import RngStream, Subregion
from nqsent.errors import NqsError

LN2 = math.log(2.0)
DICKE_TOL = 1e-10  # acceptance criterion 01
# Reduced form against the full amplitudes, relative sup-norm.
# experiments.benchmark_reduction holds every graph to LIBRARY_REDUCED_TOL.
# feature_reduce re-expresses each dependent pre-activation by a least-squares
# solve against the retained features, so its rounding grows with the
# condition number of that system (see feature_cond); over fig1c_tnqs graphs
# at n=16 the error stayed below 3e-14 * cond, with cond up to 4.2e5. The
# check allows LIBRARY_REDUCED_TOL * cond. Misses of the flat 1e-12 are a
# known defect, counted in the run record rather than as failed operations.
LIBRARY_REDUCED_TOL = 1e-12
SVD_TOL = 1e-10  # Gram eigenvalues against singular values squared
REDUCED_SAMPLES = 4096
_BOUND_LABEL = 0xB0
_SAMPLE_LABEL = 0xBE
_PASS_LABEL = 0x9A

# Defects of the library that shape or show in these workloads; every run
# record repeats them rather than hiding them.
KNOWN_DEFECTS = [
    "bound_chain stays at mu <= 2: a cosnet k=2 graph (mu=4) at auto degree builds a (2(d+1))^4 "
    "quadrature grid in approx.cheb_fit_multi (3.7e7 points at n=12, 2.6e9 at n=16) with no "
    "CapacityError guard, and does not finish on a 2-core 8 GiB machine",
    "sweep_tnqs: for about 1 in 6 fig1c_tnqs graphs at n=16 feature_reduce differs from the full "
    "amplitudes by more than the 1e-12 relative sup-norm that experiments.benchmark_reduction "
    "(nqs bench) enforces by raising ConsistencyError (worst seen 4.7e-10, on a graph whose "
    "feature system has condition number 4.2e5); the run record counts such graphs in "
    "reduced_over_library_tol",
]


class Tally:
    """Operations attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.reduced_errors: list[float] = []
        self.reduced_conds: list[float] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass k of a run. Every pass gets new inputs, so nothing a pass
    leaves behind can speed up the next one."""
    return int(RngStream(seed).child(_PASS_LABEL, k).generator().integers(1 << 31))


def _preset(name: str) -> experiments.ExperimentConfig:
    return next(c for configs in experiments.PRESETS.values() for c in configs if c.name == name)


def trial_graph(cfg: experiments.ExperimentConfig, trial: int):
    """The graph ``run_sweep`` builds for a trial at the first grid point,
    rebuilt from the sweep's own stream labels."""
    n = cfg.n_grid[0]
    base = RngStream(cfg.seed)
    return nq.ansatz_from_config(
        dict(cfg.ansatz, n=n),
        base.child(experiments._BUILD_LABEL, n, 0, trial),
        frozen_rng=base.child(experiments._FROZEN_LABEL, n, 0),
    )


def svd_entropy(psi, region: Subregion) -> float:
    """Entropy from an SVD of the reshaped amplitudes, independent of the
    library's bit scatter and Gram path. Spin i is bit i, so it is axis n-1-i."""
    n = psi.n
    rows = [n - 1 - i for i in region.members()]
    cols = [n - 1 - i for i in region.complement().members()]
    M = psi.amplitudes.reshape((2,) * n).transpose(rows + cols).reshape(1 << len(rows), -1)
    p = np.linalg.svd(M, compute_uv=False) ** 2
    p = p[p > 0.0] / p.sum()
    return float(-(p * np.log(p)).sum())


@dataclass
class SweepPass:
    rows: list
    reduced: list  # sweep_tnqs only: reduced forms, then (values on the sample, feature_cond)


@dataclass(frozen=True)
class SweepWorkload:
    """``run_sweep`` over one preset ansatz, at the stated n and size range."""

    name: str
    why: str
    preset: str
    overrides: dict
    reduce: bool = False  # also feature-reduce every trial's graph in the pass
    exact: bool = False  # every row has a closed-form (Dicke) reference

    def inputs(self, seed: int, k: int) -> experiments.ExperimentConfig:
        return dataclasses.replace(_preset(self.preset), seed=pass_seed(seed, k), **self.overrides)

    def run(self, cfg, threads: int) -> SweepPass:
        rows = experiments.run_sweep(cfg, threads=threads).rows
        reduced = [nq.feature_reduce(trial_graph(cfg, t)) for t in range(cfg.trials)] if self.reduce else []
        return SweepPass(rows, reduced)

    def keep(self, cfg, out: SweepPass) -> SweepPass:
        """What the checks need from a pass: the rows, and each reduced form's
        values on the sampled configurations and its feature_cond. Holding
        the reduced forms themselves until the checks would make the peak
        memory depend on how many passes ran."""
        return SweepPass(
            out.rows, [(r.eval_bits(_sample_bits(cfg, t)), feature_cond(r)) for t, r in enumerate(out.reduced)]
        )

    def rows(self, out: SweepPass) -> int:
        return len(out.rows)

    def graph(self, cfg):
        return trial_graph(cfg, 0)

    def check(self, cfg, passes: list[SweepPass], threads: int, tally: Tally) -> None:
        """Check passes run on the same inputs; later ones must repeat the first."""
        n = cfg.n_grid[0]
        sizes = cfg.sizes or list(range(1, n))
        per_size = 1 if cfg.region_mode in ("fixed-half", "sweep-size") else cfg.regions_per_trial
        expected = cfg.trials * per_size * len(sizes)
        first = passes[0].rows
        states, ref_by_row = {}, {}
        if not self.exact:
            for t, i in self._largest(first).items():
                states[t] = nq.materialize(trial_graph(cfg, t), threads=threads)
                ref_by_row[i] = svd_entropy(states[t], Subregion(first[i].region_mask, n))
        for p, out in enumerate(passes):
            for i, row in enumerate(out.rows):
                m = row.subsystem_size
                ok = math.isfinite(row.entropy_nats) and -1e-12 <= row.entropy_nats <= min(m, n - m) * LN2 + 1e-9
                if p > 0:
                    ok = ok and i < len(first) and row == first[i]
                if self.exact:
                    ok = ok and abs(row.entropy_nats - nq.dicke_entropy(n, m)) <= DICKE_TOL
                elif p == 0 and i in ref_by_row:
                    ok = ok and abs(row.entropy_nats - ref_by_row[i]) <= SVD_TOL
                tally.op(ok, f"pass {p} row {i} (trial {row.trial}, |A|={m}, mask {row.region_mask:x})")
            for _ in range(expected - len(out.rows)):
                tally.op(False, f"pass {p}: row missing (excluded trial or error)")
            for t, (values, cond) in enumerate(out.reduced):
                err = _reduced_error(values, states[t], _sample_bits(cfg, t)) if t in states else math.inf
                tally.reduced_errors.append(err)
                tally.reduced_conds.append(cond)
                tally.op(
                    err <= LIBRARY_REDUCED_TOL * cond,
                    f"pass {p} trial {t}: reduced form off by {err:.3g} relative sup-norm, feature_cond {cond:.3g}",
                )

    @staticmethod
    def _largest(rows) -> dict:
        """Index of each trial's first row at its largest region size."""
        largest = {}
        for i, row in enumerate(rows):
            best = largest.get(row.trial)
            if best is None or row.subsystem_size > rows[best].subsystem_size:
                largest[row.trial] = i
        return largest


def _sample_bits(cfg, trial: int) -> np.ndarray:
    gen = RngStream(cfg.seed).child(_SAMPLE_LABEL, trial).generator()
    return gen.integers(0, 1 << cfg.n_grid[0], size=REDUCED_SAMPLES, dtype=np.int64)


def feature_cond(r) -> float:
    """Condition number, at least 1, of the system feature_reduce solves to
    express a pre-activation through the features: each feature's weights
    and bias as a column, and a unit column for the constant."""
    n = r.n
    A = np.column_stack([np.append(f.weights, f.bias) for f in r.features] + [np.eye(n + 1)[-1]])
    return max(1.0, float(np.linalg.cond(A)))


def _reduced_error(values, psi, bits) -> float:
    """Relative sup-norm distance of a reduced form's values from the full
    amplitudes at the same configurations."""
    full = psi.amplitudes[bits] * psi.norm_was
    return float(np.abs(values - full).max() / np.abs(full).max())


@dataclass
class BoundCase:
    graph: object
    region: Subregion
    degree: int


@dataclass(frozen=True)
class BoundWorkload:
    """``full_bound_report`` on one graph per case, over a random half of the spins."""

    name: str
    why: str
    cases: tuple  # (ansatz block, degree)

    def inputs(self, seed: int, k: int) -> list[BoundCase]:
        out = []
        for j, (block, degree) in enumerate(self.cases):
            rng = RngStream(pass_seed(seed, k)).child(_BOUND_LABEL, j)
            graph = nq.ansatz_from_config(block, rng.child(0))
            n = block["n"]
            members = rng.child(1).generator().choice(n, size=n // 2, replace=False).tolist()
            out.append(BoundCase(graph, Subregion.from_members(members, n), degree))
        return out

    def run(self, cases, threads: int) -> list:
        reports = []
        for case in cases:
            try:
                reports.append(nq.full_bound_report(case.graph, case.region, degree=case.degree, threads=threads))
            except NqsError as exc:
                reports.append(exc)
        return reports

    def keep(self, cases, out: list) -> list:
        return out

    def rows(self, out: list) -> int:
        return sum(1 for r in out if not isinstance(r, NqsError))

    def graph(self, cases):
        return cases[0].graph

    def check(self, cases, passes: list, threads: int, tally: Tally) -> None:
        """Check passes run on the same inputs; later ones must repeat the first."""
        for p, reports in enumerate(passes):
            for j, r in enumerate(reports):
                what = f"pass {p} report {j}"
                if isinstance(r, NqsError):
                    tally.op(False, f"{what}: {type(r).__name__}: {r}")
                    continue
                ok = (
                    r.certified
                    and r.entropy_bound_final >= r.measured_entropy
                    and r.measured_two_norm_distance <= r.delta_norm_bound
                    and (p == 0 or r == passes[0][j])
                )
                tally.op(ok, what)


SNNQS_PHASE = dict(_preset("fig1c_snnqs").ansatz)

WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="sweep_snnqs",
            why="complex low-rank states at n=20: entropy (Gram products, complex eigvalsh up to 1024^2) does ~90% of the work",
            preset="fig1c_snnqs",
            overrides=dict(n_grid=[20], sizes=list(range(1, 11)), trials=1, regions_per_trial=5),
        ),
        SweepWorkload(
            name="sweep_tnqs",
            why="transformer at n=16 (5017 nodes, ~40k edges): graph evaluation and feature reduction dominate, entropy is small",
            preset="fig1c_tnqs",
            overrides=dict(trials=1, regions_per_trial=10),
            reduce=True,
        ),
        BoundWorkload(
            name="bound_chain",
            why="the only path through approx: snnqs n=20 (mu=1) and cosnet k=1 n=16 (mu=2, multivariate fit) bound chains",
            cases=(
                (dict(SNNQS_PHASE, n=20), 207),
                (dict(_preset("fig2b_cosnet").ansatz, k=1, n=16), 51),
            ),
        ),
        SweepWorkload(
            name="dicke_exact",
            why="real rank<=m+1 Dicke state at n=22 with a 2048^2 half-cut eigensolve; closed form for every row; the memory workload",
            preset="fig1a_dicke",
            overrides=dict(region_mode="random-subset", regions_per_trial=1),
            exact=True,
        ),
    )
}


def warm_up(threads: int) -> None:
    """One tiny call through every layer, so import-time and lazy BLAS/LAPACK
    set-up are paid before any timed pass."""
    cfg = experiments.ExperimentConfig(
        name="warm_up", ansatz=SNNQS_PHASE, n_grid=[6], sizes=[1, 3], trials=1, regions_per_trial=1
    )
    experiments.run_sweep(cfg, threads=threads)
    graph = nq.ansatz_from_config({"family": "cosnet", "k": 1, "n": 6}, RngStream(0))
    nq.full_bound_report(graph, Subregion(0b111, 6), degree=8, threads=threads)
