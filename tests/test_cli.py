import json
import math
import os

import pytest

from nqsent.ansatz import DickeSpec, SnnqsSpec, build_dicke, build_snnqs
from nqsent.cli import main
from nqsent import cli
from nqsent.core import RngStream, resolve_spin_cap
from nqsent.graph import save_graph, to_json
from nqsent.statevector import from_amplitudes, load_nqsv, save_nqsv


@pytest.fixture
def dicke4_path(tmp_path):
    path = tmp_path / "dicke4.json"
    save_graph(build_dicke(DickeSpec(4)), path)
    return str(path)


@pytest.fixture
def sin_graph_path(tmp_path):
    g = build_snnqs(SnnqsSpec(n=8, activation="sin", parameterization="direct", bias_std=0.5), RngStream(2).child(0))
    path = tmp_path / "sin8.json"
    save_graph(g, path)
    return str(path)


def _last_json(capsys):
    text = capsys.readouterr().out.strip().splitlines()
    # outputs are an echo line followed by a pretty-printed document
    blob = "\n".join(text[1:]) if len(text) > 1 else text[0]
    return json.loads(blob)


def test_dicke_command_values(capsys):
    assert main(["dicke", "--n", "4", "--m", "2"]) == 0
    doc = _last_json(capsys)
    assert doc["entries"][0]["eigenvalues"] == pytest.approx([2 / 3, 1 / 6, 1 / 6])
    assert doc["entries"][0]["entropy_nats"] == pytest.approx(0.8675632284814612)


def test_validate_ok(dicke4_path, capsys):
    assert main(["validate", "--graph", dicke4_path]) == 0
    doc = _last_json(capsys)
    assert doc["valid"] and doc["k"] == 1


def test_validate_cycle_exit_2(tmp_path, capsys):
    doc = {
        "n": 1,
        "nodes": [
            {"id": 0, "kind": "nonlinear", "activation": "tanh", "inputs": [{"from": 1, "weight": 1.0}], "bias": 0.0},
            {"id": 1, "kind": "nonlinear", "activation": "tanh", "inputs": [{"from": 0, "weight": 1.0}], "bias": 0.0},
            {"id": 2, "kind": "output", "inputs": [{"from": 0, "weight": 1.0}], "bias": 0.0, "output_mode": "amplitude"},
        ],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--graph", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "CycleError"
    assert set(err["error"]["cycle"]) >= {0, 1}


def test_usage_error_exit_1(capsys):
    assert main(["entropy"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "usage"


def test_unknown_flag_rejected(capsys):
    assert main(["dicke", "--n", "4", "--frobnicate"]) == 1


def test_statevector_entropy_pipeline(dicke4_path, tmp_path, capsys):
    out = str(tmp_path / "psi.nqsv")
    assert main(["statevector", "--graph", dicke4_path, "--out", out]) == 0
    psi = load_nqsv(out)
    assert psi.n == 4
    capsys.readouterr()
    assert main(["entropy", "--state", out, "--region", "3"]) == 0
    doc = _last_json(capsys)
    assert doc["entropy"] == pytest.approx(0.8675632284814612)
    assert doc["schmidt_rank"] == 3
    assert doc["tail"] == 0.0  # a 4x4 bipartition takes the dense Gram
    capsys.readouterr()
    assert main(["--log-base", "2", "entropy", "--state", out, "--region", "3"]) == 0
    doc2 = _last_json(capsys)
    assert doc2["entropy"] == pytest.approx(0.8675632284814612 / math.log(2.0))
    assert doc2["log_base"] == "2"


def test_entropy_log_base_2_reports_bits(tmp_path, capsys):
    path = str(tmp_path / "bell.nqsv")
    save_nqsv(from_amplitudes([1.0, 0.0, 0.0, 1.0]), path)
    assert main(["entropy", "--state", path, "--region", "1"]) == 0
    nats = _last_json(capsys)
    assert nats["entropy"] == pytest.approx(math.log(2.0)) and nats["log_base"] == "e"
    assert main(["--log-base", "2", "entropy", "--state", path, "--region", "1"]) == 0
    bits = _last_json(capsys)
    assert bits["entropy"] == pytest.approx(1.0) and bits["log_base"] == "2"
    assert bits["eigenvalues"] == nats["eigenvalues"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["entropy", "--state", "x.nqsv", "--region", "zz"], "--region"),
        (["bound", "--graph", "g.json", "--region", "3", "--degree", "abc"], "--degree"),
    ],
)
def test_unparsable_arguments_are_usage_errors(argv, flag, capsys):
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "usage" and flag in err["error"]["message"]


def test_reduce_command(sin_graph_path, tmp_path, capsys):
    out = str(tmp_path / "reduced.json")
    assert main(["reduce", "--graph", sin_graph_path, "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["mu"] == 1 and doc["k"] == 1
    assert len(doc["features"]) == 1
    assert len(doc["features"][0]["weights"]) == 8


def test_bound_command(sin_graph_path, capsys):
    assert main(["bound", "--graph", sin_graph_path, "--region", "f", "--degree", "12"]) == 0
    doc = _last_json(capsys)
    assert doc["certified"] is True
    assert doc["entropy_bound_final"] >= doc["measured_entropy"]
    assert doc["region_mask_hex"] == "f"


def test_bound_auto_without_certificate_is_domain_error(tmp_path, capsys):
    g = build_snnqs(SnnqsSpec(n=6, activation="relu", parameterization="wrap_exp"), RngStream(3).child(0))
    path = tmp_path / "relu.json"
    save_graph(g, path)
    assert main(["bound", "--graph", str(path), "--region", "7"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DomainError"


def test_bound_auto_softplus_is_domain_error(tmp_path, capsys):
    g = build_snnqs(SnnqsSpec(n=6, activation="softplus(2.0)", parameterization="direct"), RngStream(3).child(0))
    path = tmp_path / "softplus.json"
    save_graph(g, path)
    assert main(["bound", "--graph", str(path), "--region", "7", "--degree", "auto"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DomainError"


def test_page_command(capsys, tmp_path):
    out = str(tmp_path / "page.csv")
    assert main(["page", "--n", "6", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "m,page_nats"
    assert len(lines) == 6
    from nqsent.analytic import page_value

    first = float(lines[1].split(",")[1])
    assert first == pytest.approx(page_value(1, 6), abs=1e-12)


def test_run_config_and_determinism(tmp_path, capsys):
    cfg = {
        "name": "cli_smoke",
        "ansatz": {"family": "snnqs", "activation": "i*tanh", "parameterization": "wrap_exp", "bias_std": 0.5},
        "n_grid": [6],
        "region_mode": "random-subset",
        "sizes": [1, 2, 3],
        "trials": 3,
        "regions_per_trial": 2,
        "seed": 9,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["--threads", "4", "run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    agg = json.loads((tmp_path / "a.csv.agg.json").read_text())
    assert agg["points"]
    lines = out_a.read_text().splitlines()
    assert lines[0] == "experiment,n,subsystem_size,k,trial,region_mask_hex,seed,entropy_nats"
    assert len(lines) == 1 + 3 * 3 * 2


def test_run_config_unknown_key_is_domain_error(tmp_path, capsys):
    cfg = {"name": "typo", "ansatz": {"family": "dicke"}, "n_grid": [4], "trial": 1}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    message = "unknown experiment config key 'trial'"
    assert err == {"schema_version": 1, "error": {"type": "ContractError", "message": message}}


@pytest.mark.parametrize(
    "key,value,bad",
    [
        ("sizes", ["half", "halff"], "'halff'"),
        ("sizes", [2.5], "2.5"),
        ("sizes", [0], "0"),
        ("n_grid", ["six"], "'six'"),
        ("n_grid", [0], "0"),
        ("n_grid", [True], "True"),
        ("k_grid", [2, 0], "0"),
        ("k_grid", ["4"], "'4'"),
    ],
)
def test_run_config_bad_grid_value_is_domain_error(tmp_path, capsys, key, value, bad):
    cfg = {"name": "bad", "ansatz": {"family": "cosnet"}, "n_grid": [4], key: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    expected = '"half" or an integer >= 1' if key == "sizes" else "an integer >= 1"
    message = f"{key} entry {bad} is not {expected}"
    assert err == {"schema_version": 1, "error": {"type": "ContractError", "message": message}}
    assert not (tmp_path / "x.csv").exists()


def test_run_seed_leaves_preset_unchanged(tmp_path, capsys, monkeypatch):
    from nqsent import experiments

    seeds = []

    def fake_sweep(cfg, threads=1):
        seeds.append(cfg.seed)
        return experiments.SweepResult(rows=[])

    monkeypatch.setattr(experiments, "run_sweep", fake_sweep)
    before = experiments.PRESETS["fig1b"][0].seed
    assert main(["--seed", "99", "run", "--preset", "fig1b", "--out", str(tmp_path / "x.csv")]) == 0
    assert seeds == [99]
    assert experiments.PRESETS["fig1b"][0].seed == before


def test_run_requires_exactly_one_source(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["run", "--preset", "fig1a", "--config", "x.json", "--out", str(tmp_path / "y.csv")]) == 1


def test_run_unknown_preset(tmp_path, capsys):
    assert main(["run", "--preset", "fig9z", "--out", str(tmp_path / "x.csv")]) == 2


def test_missing_file_is_usage(capsys):
    assert main(["validate", "--graph", "/nonexistent/g.json"]) == 1


def test_max_n_cap(tmp_path, capsys):
    g = build_dicke(DickeSpec(4))
    doc = to_json(g)
    doc["n"] = 25  # inflate the declared size
    for node in doc["nodes"]:
        pass
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "psi.nqsv")
    assert main(["statevector", "--graph", str(path), "--out", out]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "CapacityError"


def test_max_n_holds_for_every_subcommand(dicke4_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NQS_MAX_N", "20")
    # below the graph's n=4, the flag stops the bound chain's materialize
    assert main(["--max-n", "3", "bound", "--graph", dicke4_path, "--region", "3", "--degree", "2"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "CapacityError"
    seen = []

    class Report:
        def to_json(self):
            return {}

    def fake_report(*args, **kwargs):
        seen.append(resolve_spin_cap())
        return Report()

    monkeypatch.setattr(cli, "full_bound_report", fake_report)
    assert main(["--max-n", "25", "bound", "--graph", dicke4_path, "--region", "3"]) == 0
    assert seen == [25]
    assert os.environ["NQS_MAX_N"] == "20"
    monkeypatch.delenv("NQS_MAX_N")
    assert main(["--max-n", "26", "bound", "--graph", dicke4_path, "--region", "3"]) == 0
    assert seen == [25, 26]
    assert "NQS_MAX_N" not in os.environ
