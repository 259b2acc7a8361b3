"""Ensemble experiment runner: trial/region averaged subregion entropies.

A config names an ansatz block, one or more system sizes, a region mode and
trial counts; a cosine-network config may add a k grid, and its result then
carries the Haar (Page) reference. :func:`run_sweep` runs every config.
Runs are deterministic given the seed: every trial draws its
parameters from a counter-based substream keyed by (grid point, trial), so
results are byte-identical across thread counts and across re-runs.

Degenerate trials (zero norm, amplitude overflow) are logged and excluded;
they are data about the ensemble, not failures, unless they exceed half the
trials at a grid point.
"""

from __future__ import annotations

import copy
import json
import logging
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .analytic import page_value
from .core import RngStream, Subregion, _is_integer
from .errors import (
    AmplitudeOverflowError,
    ContractError,
    DegenerateStateError,
    ExperimentError,
)
from .ansatz import ansatz_from_config
from .entanglement import _blas_record, _one_blas_thread, subregion_entropy
from .graph import _run_jobs
from .statevector import Statevector, materialize

log = logging.getLogger(__name__)

CSV_HEADER = "experiment,n,subsystem_size,k,trial,region_mask_hex,seed,entropy_nats"

REGION_MODES = ("sweep-size", "random-contiguous", "random-subset")

_BUILD_LABEL = 0x42
_FROZEN_LABEL = 0x5A
_REGION_LABEL = 0x52


@dataclass
class ExperimentConfig:
    name: str
    ansatz: dict
    n_grid: list[int]
    region_mode: str = "random-subset"
    sizes: list[int | str] | None = None  # "half" is n // 2
    trials: int = 20
    regions_per_trial: int = 10
    seed: int = 0
    k_grid: list[int] | None = None  # hidden-unit sweep for cosine networks

    def __post_init__(self):
        if not isinstance(self.ansatz, dict):
            raise ContractError(f"ansatz {self.ansatz!r} is not an object")
        if self.region_mode not in REGION_MODES:
            raise ContractError(f"unknown region mode {self.region_mode!r}")
        # the name is the CSV's first field, written unquoted
        if not isinstance(self.name, str) or any(ch in self.name for ch in ',"\r\n'):
            raise ContractError(f"name {self.name!r} must be a string without commas, quotes or line breaks")
        self.trials = _count("trials", self.trials)
        self.regions_per_trial = _count("regions_per_trial", self.regions_per_trial)
        if not _is_integer(self.seed):
            raise ContractError(f"seed {self.seed!r} is not an integer")
        self.seed = int(self.seed)
        if self.k_grid and self.ansatz.get("family") != "cosnet":
            raise ContractError("k_grid needs a cosnet ansatz block")
        # the grids set these per grid point; a value in the block would be ignored
        if "n" in self.ansatz:
            raise ContractError("ansatz key 'n' is set by n_grid; drop it from the ansatz block")
        if self.k_grid is not None and "k" in self.ansatz:
            raise ContractError("ansatz key 'k' is set by k_grid; drop it from the ansatz block")
        self.n_grid = _counts("n_grid", self.n_grid)
        if self.k_grid is not None:
            self.k_grid = _counts("k_grid", self.k_grid)
        if self.sizes is not None:
            self.sizes = _counts("sizes", self.sizes, half=True)
        for n in self.n_grid:
            if n < 2 or not _default_sizes(self, n):
                raise ContractError(f"n_grid entry {n} has no subsystem size in 1..{n - 1}")

    def to_json(self) -> dict:
        doc = asdict(self)
        doc["schema_version"] = 1
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ContractError(f"experiment config {doc!r} is not an object")
        doc = dict(doc)
        version = doc.pop("schema_version", 1)
        if not _is_integer(version) or version != 1:
            raise ContractError(f"experiment config key 'schema_version' must be 1, not {version!r}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ContractError(f"unknown experiment config key {unknown[0]!r}")
        return cls(**doc)


def _count(what: str, v, half: bool = False):
    """A config value as an int >= 1 (or "half", where allowed); anything
    else is a ContractError naming it."""
    if half and v == "half":
        return v
    if _is_integer(v) and v >= 1:
        return int(v)
    expected = '"half" or an integer >= 1' if half else "an integer >= 1"
    raise ContractError(f"{what} {v!r} is not {expected}")


def _counts(key: str, values, half: bool = False) -> list:
    """A nonempty config list of counts; a ContractError names the first
    bad entry."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ContractError(f"{key} must be a nonempty list, not {values!r}")
    return [_count(f"{key} entry", v, half) for v in values]


@dataclass
class SweepRow:
    experiment: str
    n: int
    subsystem_size: int
    k: int
    trial: int
    region_mask: int
    seed: int
    entropy_nats: float


@dataclass
class SweepResult:
    rows: list[SweepRow]
    excluded: list[dict] = field(default_factory=list)
    page_reference: dict | None = None

    def aggregates(self) -> list[dict]:
        """Mean/std per (n, subsystem size, k), computed over sorted rows."""
        grouped: dict[tuple, list[float]] = {}
        for row in sorted(self.rows, key=lambda r: (r.experiment, r.n, r.subsystem_size, r.k, r.trial, r.region_mask)):
            grouped.setdefault((row.experiment, row.n, row.subsystem_size, row.k), []).append(row.entropy_nats)
        out = []
        for (exp, n, size, k), vals in sorted(grouped.items()):
            arr = np.array(vals)
            out.append(
                {
                    "experiment": exp,
                    "n": n,
                    "subsystem_size": size,
                    "k": k,
                    "mean": float(arr.mean()),
                    "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                    "rows": int(arr.size),
                }
            )
        return out


def _sample_regions(mode: str, n: int, size: int, count: int, gen: np.random.Generator) -> list[Subregion]:
    if mode == "sweep-size":  # the prefix cut
        return [Subregion((1 << size) - 1, n)]
    regions = []
    for _ in range(count):
        if mode == "random-contiguous":
            start = int(gen.integers(0, n))
            members = [(start + j) % n for j in range(size)]
        else:  # random-subset
            members = gen.choice(n, size=size, replace=False).tolist()
        regions.append(Subregion.from_members(members, n))
    return regions


def _default_sizes(cfg: ExperimentConfig, n: int) -> list[int]:
    if cfg.sizes is not None:
        resolved = [n // 2 if s == "half" else s for s in cfg.sizes]
        return [s for s in resolved if 1 <= s <= n - 1]
    return list(range(1, n))


def run_sweep(cfg: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Execute the configured ensemble; deterministic given (config, seed).

    Each trial's state is materialized on up to ``threads`` threads, and its
    regions are drawn from the trial's region stream, every size in turn.
    Their entropies then run as jobs on up to ``threads`` workers
    (``_region_entropies``), and the rows follow in region order, so the
    rows do not depend on ``threads``.
    """
    base = RngStream(cfg.seed)
    rows: list[SweepRow] = []
    excluded: list[dict] = []
    k_grid = cfg.k_grid if cfg.k_grid else [None]
    for n in cfg.n_grid:
        for k_ix, k_val in enumerate(k_grid):
            block = dict(cfg.ansatz)
            if k_val is not None:
                block["k"] = int(k_val)
            block["n"] = n
            point_excluded = 0
            for trial in range(cfg.trials):
                build_rng = base.child(_BUILD_LABEL, n, k_ix, trial)
                frozen_rng = base.child(_FROZEN_LABEL, n, k_ix)
                region_gen = base.child(_REGION_LABEL, n, k_ix, trial).generator()
                try:
                    graph = ansatz_from_config(block, build_rng, frozen_rng=frozen_rng)
                    psi = materialize(graph, threads=threads)
                except (DegenerateStateError, AmplitudeOverflowError) as exc:
                    point_excluded += 1
                    excluded.append(
                        {"n": n, "k": k_val, "trial": trial, "reason": type(exc).__name__, "detail": str(exc)}
                    )
                    log.warning("excluded trial n=%d k=%s trial=%d: %s", n, k_val, trial, exc)
                    continue
                # a cosnet's k counts the units of one component, and both are live
                k_col = graph.k // 2 if cfg.ansatz.get("family") == "cosnet" else graph.k
                regions = [
                    region
                    for size in _default_sizes(cfg, n)
                    for region in _sample_regions(cfg.region_mode, n, size, cfg.regions_per_trial, region_gen)
                ]
                for region, ent in zip(regions, _region_entropies(psi, regions, threads)):
                    rows.append(
                        SweepRow(
                            experiment=cfg.name,
                            n=n,
                            subsystem_size=region.size,
                            k=k_col,
                            trial=trial,
                            region_mask=region.mask,
                            seed=cfg.seed,
                            entropy_nats=ent,
                        )
                    )
            if point_excluded * 2 > cfg.trials:
                raise ExperimentError(
                    f"{point_excluded}/{cfg.trials} degenerate trials at n={n}, k={k_val}"
                )
    refs = None
    if cfg.k_grid:
        refs = {f"n={n},m={s}": page_value(s, n) for n in cfg.n_grid for s in _default_sizes(cfg, n)}
    return SweepResult(rows=rows, excluded=excluded, page_reference=refs)


def _region_entropies(psi: Statevector, regions: list[Subregion], threads: int) -> list[float]:
    """The entropy of each region's cut of ``psi``, in region order.

    The regions are jobs of one ``_run_jobs`` run on up to ``threads``
    workers, handed out largest smaller side first so that the big cuts do
    not finish last; the first failing region in region order raises. The
    calling thread holds the BLAS pin around the run, and each spectrum
    runs on one BLAS thread, so the entropies do not depend on ``threads``.
    Where spectra cannot be pinned, the regions run on the calling thread.
    """
    out = [0.0] * len(regions)

    def job(i: int) -> None:
        out[i] = subregion_entropy(psi, regions[i]).entropy

    order = sorted(range(len(regions)), key=lambda i: -min(regions[i].size, psi.n - regions[i].size))
    with _one_blas_thread() as pinned:
        _run_jobs(job, order, threads if pinned else 1)
    return out


# ---------------------------------------------------------------------------
# CSV / JSON artifacts
# ---------------------------------------------------------------------------


def write_csv(result: SweepResult, path) -> None:
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(
            f"{r.experiment},{r.n},{r.subsystem_size},{r.k},{r.trial},{r.region_mask:x},{r.seed},{r.entropy_nats!r}"
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_aggregates(result: SweepResult, path) -> None:
    """Per-point aggregates, excluded trials, and the BLAS the spectra ran
    on (``entanglement._blas_record``: numpy's name for it, the library's
    configuration string with its CPU kernel, and whether every spectrum was
    pinned to one BLAS thread). The CSV holds none of this."""
    doc = {
        "schema_version": 1,
        "points": result.aggregates(),
        "excluded": result.excluded,
        "blas": _blas_record(),
    }
    if result.page_reference is not None:
        doc["page_reference"] = result.page_reference
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# named figure-reproduction presets
# ---------------------------------------------------------------------------


def _build_presets() -> dict[str, list[ExperimentConfig]]:
    presets: dict[str, list[ExperimentConfig]] = {}

    # deterministic half-filling superposition state
    presets["fig1a"] = [
        ExperimentConfig(name="fig1a_dicke", ansatz={"family": "dicke"}, n_grid=[22], region_mode="sweep-size", trials=1, regions_per_trial=1)
    ]
    presets["fig1b"] = [
        ExperimentConfig(name="fig1b_dicke", ansatz={"family": "dicke"}, n_grid=list(range(4, 23, 2)), region_mode="sweep-size", sizes=["half"], trials=1, regions_per_trial=1)
    ]

    snnqs_phase = {"family": "snnqs", "activation": "i*tanh", "parameterization": "wrap_exp", "bias_std": 0.5}
    mlp_fig1 = {"family": "mlp", "width": 3, "depth": 2, "activation": "tanh", "layernorm": True}
    tnqs_fig1 = {"family": "transformer", "patch": 6, "stride": 5, "embed_dim": 32, "heads": 4, "layers": 2, "ffn_width": 64}

    presets["fig1c"] = [
        ExperimentConfig(name="fig1c_snnqs", ansatz=snnqs_phase, n_grid=[22], region_mode="random-subset", sizes=list(range(1, 12)), trials=20, regions_per_trial=10),
        ExperimentConfig(name="fig1c_mlp", ansatz=mlp_fig1, n_grid=[22], region_mode="random-subset", sizes=list(range(1, 12)), trials=20, regions_per_trial=10),
        # transformer runs at n=16 instead of 22: the decomposed attention
        # graph is large and the full 22-spin sweep takes hours
        ExperimentConfig(name="fig1c_tnqs", ansatz=tnqs_fig1, n_grid=[16], region_mode="random-subset", sizes=list(range(1, 9)), trials=20, regions_per_trial=10),
    ]
    presets["fig1d"] = [
        ExperimentConfig(name="fig1d_snnqs", ansatz=snnqs_phase, n_grid=list(range(8, 23, 2)), region_mode="random-subset", sizes=["half"], trials=20, regions_per_trial=10),
        ExperimentConfig(name="fig1d_mlp", ansatz=mlp_fig1, n_grid=list(range(8, 23, 2)), region_mode="random-subset", sizes=["half"], trials=20, regions_per_trial=10),
        # n = 1 (mod 5): patches of 6 at stride 5 then cover every spin
        ExperimentConfig(name="fig1d_tnqs", ansatz=tnqs_fig1, n_grid=[6, 11, 16, 21], region_mode="random-subset", sizes=["half"], trials=20, regions_per_trial=10),
    ]

    cosnet = {"family": "cosnet", "sigma_a": 10.0, "sigma_w": 1.0}
    # cosine networks run at n=14 instead of 22 to keep the k=512 sweep fast
    presets["fig2a"] = [
        ExperimentConfig(name="fig2a_cosnet", ansatz=cosnet, n_grid=[14], region_mode="random-subset", sizes=list(range(1, 8)), trials=20, regions_per_trial=5, k_grid=[2, 16, 128, 512])
    ]
    presets["fig2b"] = [
        ExperimentConfig(name="fig2b_cosnet", ansatz=cosnet, n_grid=[14], region_mode="random-subset", sizes=[7], trials=20, regions_per_trial=5, k_grid=[1, 2, 4, 8, 16, 32, 64, 128, 256])
    ]

    for label, mode in (("real", "real"), ("phase", "imag"), ("general", "mixed")):
        configs = []
        for act in ("tanh", "sin", "relu", "gelu"):
            name = act if mode == "real" else (f"i*{act}" if mode == "imag" else f"(1+i)*{act}")
            configs.append(
                ExperimentConfig(
                    name=f"supp_sn_{label}_{act}",
                    ansatz={"family": "snnqs", "activation": name, "parameterization": "wrap_exp", "bias_std": 1.0},
                    n_grid=[22],
                    region_mode="random-subset",
                    sizes=list(range(1, 12)),
                    trials=20,
                    regions_per_trial=10,
                )
            )
        presets[f"supp_sn_{label}"] = configs

    # MLP supplement panels run at n=16 instead of 22 for speed
    for w, dpt in ((2, 3), (5, 2), (5, 5)):
        presets[f"supp_mlp_w{w}d{dpt}"] = [
            ExperimentConfig(
                name=f"supp_mlp_w{w}d{dpt}",
                ansatz={"family": "mlp", "width": w, "depth": dpt, "layernorm": True},
                n_grid=[16],
                region_mode="random-contiguous",
                sizes=list(range(1, 9)),
                trials=20,
                regions_per_trial=5,
            )
        ]
    return presets


PRESETS = _build_presets()


def preset_configs(name: str) -> list[ExperimentConfig]:
    """Copies of a preset's configs; presets share ``ansatz`` dicts, so
    callers that edit a config must not reach the registry."""
    if name not in PRESETS:
        raise ContractError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return copy.deepcopy(PRESETS[name])


def run_configs(configs: list[ExperimentConfig], threads: int = 1) -> SweepResult:
    """Run each config and merge the results."""
    rows: list[SweepRow] = []
    excluded: list[dict] = []
    page_ref = None
    for cfg in configs:
        res = run_sweep(cfg, threads=threads)
        rows.extend(res.rows)
        excluded.extend(res.excluded)
        if res.page_reference:
            page_ref = (page_ref or {}) | res.page_reference
    return SweepResult(rows=rows, excluded=excluded, page_reference=page_ref)
