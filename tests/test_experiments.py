import json
import math
import re
import sys
import threading
import time

import numpy as np
import pytest

from nqsent import entanglement, experiments
from nqsent.analytic import dicke_entropy, page_value
from nqsent.ansatz import ansatz_from_config
from nqsent.core import RngStream
from nqsent.errors import ContractError, ExperimentError, NumericError
from nqsent.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    PRESETS,
    preset_configs,
    run_configs,
    run_sweep,
    write_aggregates,
    write_csv,
)


def _phase_cfg(**kw):
    base = dict(
        name="t",
        ansatz={"family": "snnqs", "activation": "i*tanh", "parameterization": "wrap_exp", "bias_std": 0.5},
        n_grid=[8],
        region_mode="random-subset",
        sizes=[1, 2, 4],
        trials=4,
        regions_per_trial=3,
        seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_row_count_and_columns():
    res = run_sweep(_phase_cfg())
    assert len(res.rows) == 4 * 3 * 3
    r = res.rows[0]
    assert r.experiment == "t" and r.n == 8 and r.seed == 5
    assert 1 <= r.subsystem_size <= 7
    assert r.k == 1


def test_determinism_across_threads_and_reruns(tmp_path):
    a = run_sweep(_phase_cfg(), threads=1)
    b = run_sweep(_phase_cfg(), threads=4)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, pa)
    write_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert pa.read_text().splitlines()[0] == CSV_HEADER


def _mixed_cfg(**kw):
    """n=16 snnqs phase states of weight_std 0.5: random halves have the 256
    rows a sketch needs and ranks it accepts, cuts of 3 spins (either side)
    take the dense Gram. Per trial the regions are two of each size, sizes
    3, 8 and 13 in turn."""
    ansatz = dict(_phase_cfg().ansatz, weight_std=0.5)
    return _phase_cfg(**dict(dict(ansatz=ansatz, n_grid=[16], sizes=[3, 8, 13], trials=2, regions_per_trial=2), **kw))


def test_sweep_rows_do_not_depend_on_threads(monkeypatch):
    accepted, sketched = [], entanglement._sketched_gram

    def spy(m, region):
        out = sketched(m, region)
        accepted.append(out is not None)
        return out

    monkeypatch.setattr(entanglement, "_sketched_gram", spy)
    runs = [run_sweep(_mixed_cfg(), threads=t).rows for t in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]
    assert [r.subsystem_size for r in runs[0]] == [3, 3, 8, 8, 13, 13] * 2
    # every thread count saw both paths: sketched halves, dense 3-spin cuts
    assert accepted.count(True) == 3 * 4 and accepted.count(False) == 3 * 8


def test_region_jobs_go_largest_first_on_the_pinned_workers(monkeypatch):
    calls, run_jobs = [], experiments._run_jobs

    def spy(job, order, threads):
        calls.append((list(order), threads))
        run_jobs(job, order, threads)

    monkeypatch.setattr(experiments, "_run_jobs", spy)
    run_sweep(_mixed_cfg(trials=1), threads=3)
    # the halves (regions 2 and 3) first, then the 3-spin cuts in region order
    threads = 3 if entanglement._openblas()[0] is not None else 1
    assert calls == [([2, 3, 0, 1, 4, 5], threads)]


def test_region_rows_hold_with_more_workers_than_cores_and_fast_switching():
    # eight workers and a switch interval of a microsecond: a lost or
    # misplaced entropy would change the rows
    cfg = _phase_cfg(n_grid=[10], sizes=[1, 3, 5, 7, 9], trials=2, regions_per_trial=4)
    expected = run_sweep(cfg, threads=1).rows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = run_sweep(cfg, threads=8).rows
    finally:
        sys.setswitchinterval(interval)
    assert rows == expected and len(rows) == 2 * 5 * 4


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_first_failing_region_in_region_order_raises(threads, monkeypatch):
    # region 3 (a half, taken second) fails before region 1 (3 spins, taken
    # third) is started; region 1's error is raised, once every worker stopped
    rows = run_sweep(_mixed_cfg(trials=1)).rows
    failing = {rows[1].region_mask, rows[3].region_mask}
    real = experiments.subregion_entropy

    def entropy(psi, region):
        if region.mask in failing:
            raise NumericError(f"region {region.mask:x}")
        return real(psi, region)

    monkeypatch.setattr(experiments, "subregion_entropy", entropy)
    before = set(threading.enumerate())
    with pytest.raises(NumericError, match=f"region {rows[1].region_mask:x}$"):
        run_sweep(_mixed_cfg(trials=1), threads=threads)
    assert set(threading.enumerate()) == before


def _stand_in_blas_count(monkeypatch) -> list:
    """A stand-in for OpenBLAS's one process-wide thread count, starting
    at 4, that ``_one_blas_thread`` sets instead of the library's."""
    lock, count = threading.Lock(), [4]

    def set_count(k):
        with lock:
            previous, count[0] = count[0], k
        return previous

    monkeypatch.setattr(entanglement, "_openblas", lambda: (set_count, None))
    return count


def test_spectra_run_on_one_blas_thread_and_the_count_comes_back(monkeypatch):
    # every eigensolve of a sweep sees 1, and the count is back after
    # success and after an error
    count = _stand_in_blas_count(monkeypatch)
    seen, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        seen.append(count[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    run_sweep(_mixed_cfg(trials=1), threads=2)
    assert len(seen) >= 6 and set(seen) == {1}
    assert count == [4]
    monkeypatch.setattr(experiments, "subregion_entropy", lambda psi, region: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        run_sweep(_mixed_cfg(trials=1), threads=2)
    assert count == [4]


def test_overlapping_pins_hold_one_blas_thread_until_the_last_exit(monkeypatch):
    # A enters, B enters, A exits: B's body still runs on one BLAS thread,
    # and the count A found comes back only when B exits too, whether the
    # pins overlap on user threads or on a sweep's workers
    count = _stand_in_blas_count(monkeypatch)
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def a():
        with entanglement._one_blas_thread():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def b():
        a_in.wait(10)
        with entanglement._one_blas_thread():
            b_in.set()
            a_out.wait(10)
            seen.append(count[0])
        seen.append(count[0])

    workers = [threading.Thread(target=f) for f in (a, b)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(20)
    assert not any(w.is_alive() for w in workers)
    assert seen == [1, 4]
    assert count == [4]


def test_many_threads_pinning_at_once_never_see_another_count(monkeypatch):
    # more threads than cores enter and leave the pin while the interpreter
    # switches threads often: a lost update of the pin's bookkeeping would
    # show a body a count other than 1, or leave the count off 4
    count = _stand_in_blas_count(monkeypatch)
    seen, start = set(), threading.Barrier(8)

    def work():
        start.wait(10)
        for _ in range(2000):
            with entanglement._one_blas_thread():
                time.sleep(0)  # lets another thread in while this one is inside
                seen.add(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert seen == {1}
    assert count == [4]


@pytest.mark.skipif(entanglement._openblas()[0] is None, reason="numpy has no bundled OpenBLAS")
def test_the_library_blas_count_comes_back(monkeypatch):
    set_count = entanglement._openblas()[0]
    before = set_count(3)
    try:
        run_sweep(_mixed_cfg(trials=1), threads=2)
        assert set_count(3) == 3
        monkeypatch.setattr(experiments, "subregion_entropy", lambda psi, region: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run_sweep(_mixed_cfg(trials=1), threads=2)
        assert set_count(3) == 3
    finally:
        set_count(before)


def test_without_the_pin_regions_run_on_the_calling_thread(monkeypatch, tmp_path):
    # n=10: every Gram is at most 32 x 32, too small for BLAS to spread, so
    # the unpinned rows equal the pinned ones
    cfg = _phase_cfg(n_grid=[10], sizes=[2, 5, 7], trials=2)
    pinned = run_sweep(cfg, threads=2).rows
    seen, real = set(), experiments.subregion_entropy

    def entropy(psi, region):
        seen.add(threading.get_ident())
        return real(psi, region)

    monkeypatch.setattr(entanglement, "_openblas", lambda: (None, None))
    monkeypatch.setattr(experiments, "subregion_entropy", entropy)
    res = run_sweep(cfg, threads=2)
    assert res.rows == pinned
    assert seen == {threading.get_ident()}
    write_aggregates(res, tmp_path / "rows.agg.json")
    assert json.loads((tmp_path / "rows.agg.json").read_text())["blas"]["pinned"] is False


def test_seed_changes_rows():
    a = run_sweep(_phase_cfg())
    b = run_sweep(_phase_cfg(seed=6))
    assert a.rows[0].entropy_nats != b.rows[0].entropy_nats


def test_linear_activation_zero_mean():
    cfg = _phase_cfg(
        ansatz={"family": "snnqs", "activation": "identity", "parameterization": "wrap_exp"}, trials=3
    )
    res = run_sweep(cfg)
    for point in res.aggregates():
        assert abs(point["mean"]) < 1e-10


def test_entropy_range_invariant():
    res = run_sweep(_phase_cfg(trials=3))
    for row in res.rows:
        cap = min(row.subsystem_size, row.n - row.subsystem_size) * math.log(2.0)
        assert -1e-12 <= row.entropy_nats <= cap + 1e-10


def test_dicke_sweep_matches_analytic_with_zero_std():
    cfg = ExperimentConfig(
        name="dicke", ansatz={"family": "dicke"}, n_grid=[10], region_mode="sweep-size", trials=3, regions_per_trial=1, seed=0
    )
    res = run_sweep(cfg)
    for point in res.aggregates():
        assert point["std"] == 0.0
        assert point["mean"] == pytest.approx(dicke_entropy(10, point["subsystem_size"]), abs=1e-10)


def test_region_modes():
    # the half cut is the sweep-size prefix at n // 2
    res = run_sweep(_phase_cfg(region_mode="sweep-size", sizes=["half"], trials=2))
    assert [(r.subsystem_size, r.region_mask) for r in res.rows] == [(4, 0b1111)] * 2
    for mode in ("sweep-size", "random-contiguous", "random-subset"):
        cfg = _phase_cfg(region_mode=mode, sizes=[2, 3], trials=2)
        res = run_sweep(cfg)
        assert res.rows
        if mode == "sweep-size":
            assert {r.region_mask for r in res.rows} == {0b11, 0b111}
        if mode == "random-contiguous":
            # windows wrap periodically; every mask has the right popcount
            for r in res.rows:
                assert bin(r.region_mask).count("1") == r.subsystem_size


def test_degenerate_trials_excluded_and_logged():
    # exp-of-exp with large weights overflows for most draws
    cfg = _phase_cfg(
        ansatz={"family": "snnqs", "activation": "exp", "parameterization": "wrap_exp", "weight_std": 12.0},
        n_grid=[10],
        trials=3,
    )
    with pytest.raises(ExperimentError):
        run_sweep(cfg)


def test_some_exclusions_tolerated():
    # near the overflow threshold some trials survive; exclusions are data
    cfg = _phase_cfg(
        ansatz={"family": "snnqs", "activation": "exp", "parameterization": "wrap_exp", "weight_std": 0.7},
        n_grid=[10],
        trials=8,
        seed=2,
    )
    res = run_sweep(cfg)
    assert len(res.excluded) == 2
    assert all(e["reason"] == "AmplitudeOverflowError" for e in res.excluded)
    assert len(res.rows) == (8 - 2) * 3 * 3


def test_cosnet_k_sweep_page_reference(tmp_path):
    cfg = ExperimentConfig(
        name="cos",
        ansatz={"family": "cosnet", "sigma_a": 10.0, "sigma_w": 1.0},
        n_grid=[8],
        region_mode="random-subset",
        sizes=[3],
        trials=4,
        regions_per_trial=3,
        seed=3,
        k_grid=[2, 32],
    )
    res = run_sweep(cfg)
    ks = sorted({r.k for r in res.rows})
    assert ks == [2, 32]
    assert res.page_reference == {"n=8,m=3": pytest.approx(page_value(3, 8))}
    # the one runner attaches the reference to any k grid
    assert run_configs([cfg]).page_reference == res.page_reference
    write_aggregates(res, tmp_path / "cos.agg.json")
    assert json.loads((tmp_path / "cos.agg.json").read_text())["page_reference"] == res.page_reference
    # Haar average dominates the ensemble means
    for point in res.aggregates():
        assert point["mean"] <= page_value(3, 8) + 1e-9
    with pytest.raises(ContractError):
        run_sweep(ExperimentConfig(name="x", ansatz={"family": "dicke"}, n_grid=[4], k_grid=[1]))


def test_cosnet_without_k_runs_at_the_default_k(tmp_path):
    cfg = ExperimentConfig(
        name="cos16", ansatz={"family": "cosnet"}, n_grid=[6], sizes=[3], trials=2, regions_per_trial=2, seed=1
    )
    res = run_sweep(cfg)
    assert {r.k for r in res.rows} == {16}
    assert res.page_reference is None
    path = tmp_path / "cos16.csv"
    write_csv(res, path)
    assert {line.split(",")[3] for line in path.read_text().splitlines()[1:]} == {"16"}


def test_k_grid_needs_a_cosnet_block():
    with pytest.raises(ContractError, match="k_grid"):
        _phase_cfg(k_grid=[1, 2])


_DICKE, _COSNET = {"family": "dicke"}, {"family": "cosnet"}


@pytest.mark.parametrize(
    "fields, message",
    [
        # values the grids would overwrite at every grid point
        ({"ansatz": {"family": "dicke", "n": 8}, "n_grid": [4]}, "ansatz key 'n' is set by n_grid; drop it from the ansatz block"),
        (
            {"ansatz": {"family": "cosnet", "k": 4}, "n_grid": [4], "k_grid": [2]},
            "ansatz key 'k' is set by k_grid; drop it from the ansatz block",
        ),
        # grids that would run nothing
        ({"ansatz": _DICKE, "n_grid": []}, "n_grid must be a nonempty list, not []"),
        ({"ansatz": _COSNET, "n_grid": [4], "k_grid": []}, "k_grid must be a nonempty list, not []"),
        ({"ansatz": _DICKE, "n_grid": [4], "sizes": []}, "sizes must be a nonempty list, not []"),
        ({"ansatz": _DICKE, "n_grid": [4], "sizes": [9]}, "n_grid entry 4 has no subsystem size in 1..3"),
        ({"ansatz": _DICKE, "n_grid": [6, 4], "sizes": [5]}, "n_grid entry 4 has no subsystem size in 1..3"),
        ({"ansatz": _DICKE, "n_grid": [1]}, "n_grid entry 1 has no subsystem size in 1..0"),
        # the removed fixed-half mode; its half cut is the next case's sizes ["half"]
        ({"ansatz": _DICKE, "n_grid": [1], "region_mode": "fixed-half"}, "unknown region mode 'fixed-half'"),
        ({"ansatz": _DICKE, "n_grid": [1], "sizes": ["half"]}, "n_grid entry 1 has no subsystem size in 1..0"),
        # malformed fields
        ({"ansatz": _DICKE, "n_grid": 4}, "n_grid must be a nonempty list, not 4"),
        ({"ansatz": _DICKE, "n_grid": [4], "region_mode": "half"}, "unknown region mode 'half'"),
    ],
    ids=[
        "ansatz_n", "ansatz_k_under_k_grid", "empty_n_grid", "empty_k_grid", "empty_sizes", "size_above_n",
        "size_above_second_n", "n1", "n1_fixed_half", "n1_half", "n_grid_not_a_list", "region_mode",
    ],
)
def test_config_refuses_grids_that_would_be_rewritten_or_empty(fields, message):
    with pytest.raises(ContractError) as info:
        ExperimentConfig(name="bad", **fields)
    assert str(info.value) == message


def test_config_keeps_ansatz_k_without_a_k_grid():
    cfg = ExperimentConfig(name="k4", ansatz={"family": "cosnet", "k": 4}, n_grid=[4], sizes=[2, 9], trials=1)
    res = run_sweep(cfg)
    assert {(r.k, r.subsystem_size) for r in res.rows} == {(4, 2)}


def test_config_refuses_unknown_keys():
    doc = _phase_cfg().to_json()
    assert ExperimentConfig.from_json(doc) == _phase_cfg()
    with pytest.raises(ContractError, match="unknown experiment config key 'trial'"):
        ExperimentConfig.from_json(dict(doc, trial=3))
    with pytest.raises(ContractError, match="unknown snnqs ansatz key 'heads'"):
        run_sweep(ExperimentConfig.from_json(dict(doc, ansatz=dict(doc["ansatz"], heads="ones"))))


@pytest.mark.parametrize("version", [99, 2, "x", None, True, 1.0], ids=["99", "2", "string", "null", "true", "float"])
def test_config_reads_only_schema_version_1(version):
    doc = _phase_cfg().to_json()
    message = f"experiment config key 'schema_version' must be 1, not {version!r}"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_json(dict(doc, schema_version=version))
    # the key may be absent
    del doc["schema_version"]
    assert ExperimentConfig.from_json(doc) == _phase_cfg()


def test_config_refuses_documents_that_are_not_objects():
    with pytest.raises(ContractError, match=r"^experiment config \[1\] is not an object$"):
        ExperimentConfig.from_json([1])
    with pytest.raises(ContractError, match=r"^ansatz 'snnqs' is not an object$"):
        ExperimentConfig.from_json(dict(_phase_cfg().to_json(), ansatz="snnqs"))


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("trials", "2", "trials '2' is not an integer >= 1"),
        ("trials", True, "trials True is not an integer >= 1"),
        ("trials", 0, "trials 0 is not an integer >= 1"),
        ("regions_per_trial", 2.5, "regions_per_trial 2.5 is not an integer >= 1"),
        ("regions_per_trial", None, "regions_per_trial None is not an integer >= 1"),
        ("seed", 1.5, "seed 1.5 is not an integer"),
        ("seed", "abc", "seed 'abc' is not an integer"),
        ("seed", False, "seed False is not an integer"),
    ],
)
def test_config_refuses_bad_scalar_fields(key, value, message):
    with pytest.raises(ContractError) as info:
        ExperimentConfig.from_json(dict(_phase_cfg().to_json(), **{key: value}))
    assert str(info.value) == message


def test_config_scalar_fields_take_numpy_integers():
    cfg = _phase_cfg(trials=np.int64(2), regions_per_trial=np.uint8(3), seed=np.int32(-4))
    assert (type(cfg.trials), type(cfg.regions_per_trial), type(cfg.seed)) == (int, int, int)
    assert (cfg.trials, cfg.regions_per_trial, cfg.seed) == (2, 3, -4)


@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\r", '"a"', 7, None])
def test_config_refuses_names_that_break_the_csv(name):
    with pytest.raises(ContractError, match="name"):
        _phase_cfg(name=name)


def test_presets_read_every_spin():
    # a spin no live node reads would make every cut through it measure padding
    for configs in PRESETS.values():
        for cfg in configs:
            for n in cfg.n_grid:
                for k in cfg.k_grid or [None]:
                    block = dict(cfg.ansatz, n=n) if k is None else dict(cfg.ansatz, n=n, k=k)
                    stream = RngStream(cfg.seed)
                    g = ansatz_from_config(block, stream.child(0), frozen_rng=stream.child(1))
                    read = {r[1] for nid in g.live_order for r, _ in g.nodes[nid].inputs if isinstance(r, tuple)}
                    assert read == set(range(n)), (cfg.name, n, k)


def test_csv_and_aggregate_artifacts(tmp_path):
    res = run_sweep(_phase_cfg(trials=2))
    csv_path = tmp_path / "rows.csv"
    agg_path = tmp_path / "rows.agg.json"
    write_csv(res, csv_path)
    write_aggregates(res, agg_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(res.rows)
    doc = json.loads(agg_path.read_text())
    assert doc["schema_version"] == 1
    assert doc["points"]
    # the BLAS the spectra ran on; numpy's bundled OpenBLAS names its kernel
    set_count, config = entanglement._openblas()
    pinned = set_count is not None
    blas = doc["blas"]
    assert sorted(blas) == ["config", "pinned", "vendor"]
    assert blas["config"] == config and blas["pinned"] is pinned
    assert not pinned or (blas["config"].startswith("OpenBLAS") and "openblas" in blas["vendor"])


def test_presets_registry_valid():
    expected = {"fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b", "supp_sn_real", "supp_sn_phase", "supp_sn_general"}
    assert expected <= set(PRESETS)
    assert any(name.startswith("supp_mlp_") for name in PRESETS)
    for name, configs in PRESETS.items():
        for cfg in configs:
            assert cfg.trials >= 1
            assert cfg.ansatz.get("family") in {"snnqs", "mlp", "transformer", "cosnet", "dicke"}
    with pytest.raises(ContractError):
        preset_configs("fig9z")


def test_preset_configs_are_copies():
    before = [cfg.to_json() for configs in PRESETS.values() for cfg in configs]
    for cfg in preset_configs("fig1c"):
        cfg.seed = 99
        cfg.ansatz["bias_std"] = 9.0  # fig1c_snnqs shares this dict with fig1d_snnqs
    assert [cfg.to_json() for configs in PRESETS.values() for cfg in configs] == before


def test_preset_smoke_run_small():
    # shrink fig1a to n=6 and run it end to end
    doc = preset_configs("fig1a")[0].to_json()
    doc["n_grid"] = [6]
    res = run_sweep(ExperimentConfig.from_json(doc))
    assert {r.subsystem_size for r in res.rows} == set(range(1, 6))
