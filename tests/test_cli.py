import json
import math
import os

import pytest

from nqsent.ansatz import DickeSpec, SnnqsSpec, build_dicke, build_snnqs
from nqsent.cli import build_parser, main
from nqsent.core import RngStream
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


def test_threads_default_to_the_affinity_mask(monkeypatch):
    # a process pinned to one CPU gets one worker, whatever the machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert build_parser().parse_args(["dicke", "--n", "4", "--m", "2"]).threads == 1


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


_GRAPH_NODE = {"id": 0, "kind": "output", "inputs": [{"from": "s_1", "weight": 1.0}], "output_mode": "amplitude"}


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"n": 2, "nodes": [{"id": 0}]}, "node 0, field 'kind': KeyError"),
        ({"nodes": []}, "document, field 'n': KeyError"),
        ({"n": 2, "nodes": [dict(_GRAPH_NODE, id="a")]}, "node at position 0, field 'id': ValueError"),
        (
            {"n": 2, "nodes": [dict(_GRAPH_NODE, inputs=[{"from": "s_1", "weight": {"re": 1}}])]},
            "node 0, field 'inputs[0].weight': TypeError",
        ),
        ([1, 2], "document, field 'n': TypeError"),
        (
            {"n": 2, "nodes": [dict(_GRAPH_NODE, inputs=[{"from": "s_x", "weight": 1.0}])]},
            "node 0, field 'inputs[0].from': ValueError",
        ),
    ],
    ids=["no_kind", "no_n", "id_not_int", "weight_object", "not_an_object", "bad_spin"],
)
def test_validate_malformed_graph_json_is_a_contract_error(doc, where, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--graph", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ContractError" and f"malformed graph JSON: {where}" in err["message"]
    # the well-formed document the cases break validates
    good = {"n": 2, "nodes": [_GRAPH_NODE]}
    path.write_text(json.dumps(good))
    assert main(["validate", "--graph", str(path)]) == 0


_LINEAR_NODE = {"id": 1, "kind": "linear", "inputs": [{"from": "s_2", "weight": 0.5}], "bias": 0.25}
_READER_NODE = dict(_GRAPH_NODE, inputs=[{"from": "s_1", "weight": 1.0}, {"from": 1, "weight": [0.5, 0.0]}])


def _two_nodes(n=2, **fields):
    """A valid two-node graph document with ``fields`` set on the linear node."""
    return {"n": n, "nodes": [_READER_NODE, dict(_LINEAR_NODE, **fields)]}


def _weight(w):
    return {"inputs": [{"from": "s_2", "weight": w}]}


@pytest.mark.parametrize(
    "doc, where",
    [
        (_two_nodes(id=0.5), "node at position 1, field 'id': ValueError: 0.5 is not an integer"),
        (_two_nodes(id="3"), "node at position 1, field 'id': ValueError: '3' is not an integer"),
        (_two_nodes(id=True), "node at position 1, field 'id': ValueError: True is not an integer"),
        (
            {"n": 2, "nodes": [dict(_READER_NODE, inputs=[{"from": 0.7, "weight": 1.0}]), _LINEAR_NODE]},
            "node 0, field 'inputs[0].from': ValueError: 0.7 is not an integer",
        ),
        (_two_nodes(n=2.9), "document, field 'n': ValueError: 2.9 is not an integer"),
        (_two_nodes(n=True), "document, field 'n': ValueError: True is not an integer"),
        (_two_nodes(n=-1), "document, field 'n': ValueError: -1 is not at least 1"),
        (_two_nodes(**_weight("2")), "node 1, field 'inputs[0].weight': TypeError: '2' is not a number"),
        (_two_nodes(**_weight(True)), "node 1, field 'inputs[0].weight': TypeError: True is not a number"),
        (_two_nodes(**_weight(float("nan"))), "node 1, field 'inputs[0].weight': ValueError: nan is not finite"),
        (_two_nodes(**_weight([1.0, 2.0, 3.0])), "node 1, field 'inputs[0].weight': ValueError: too many values"),
        (_two_nodes(bias=float("inf")), "node 1, field 'bias': ValueError: inf is not finite"),
        (_two_nodes(bias=[0.0, "1"]), "node 1, field 'bias': TypeError: '1' is not a number"),
        (_two_nodes(bias=10**400), "node 1, field 'bias': OverflowError"),
    ],
    ids=[
        "id_half", "id_string", "id_bool", "from_float", "n_float", "n_bool", "n_negative", "weight_string",
        "weight_bool", "weight_nan", "weight_triple", "bias_inf", "bias_pair_string", "bias_huge",
    ],
)
def test_validate_refuses_numbers_instead_of_coercing_them(doc, where, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--graph", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ContractError" and err["message"].startswith(f"malformed graph JSON: {where}")
    path.write_text(json.dumps(_two_nodes()))
    assert main(["validate", "--graph", str(path)]) == 0
    assert _last_json(capsys)["nodes"] == 2


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
        (["--threads", "-3", "dicke", "--n", "4", "--m", "2"], "--threads: must be at least 1, got -3"),
        (["--threads", "0", "dicke", "--n", "4", "--m", "2"], "--threads: must be at least 1, got 0"),
    ],
)
def test_unparsable_arguments_are_usage_errors(argv, flag, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""  # nothing runs, so no configuration is echoed
    err = json.loads(err)
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
    # at n=64 the Haar dimension 2^64 no longer fits an int64
    assert main(["page", "--n", "64", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 64
    assert float(lines[32].split(",")[1]) == pytest.approx(32 * math.log(2.0) - 0.5, abs=1e-12)
    # without --out the CSV follows the config echo on stdout
    capsys.readouterr()
    assert main(["page", "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[0])["resolved_config"]["out"] is None
    assert lines[1:] == ["m,page_nats", f"1,{page_value(1, 3)!r}", f"2,{page_value(2, 3)!r}"]


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


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"ansatz": {"family": "dicke", "n": 8}}, "ansatz key 'n' is set by n_grid; drop it from the ansatz block"),
        ({"n_grid": []}, "n_grid must be a nonempty list, not []"),
        ({"sizes": [9]}, "n_grid entry 4 has no subsystem size in 1..3"),
    ],
    ids=["ansatz_n", "empty_n_grid", "no_size"],
)
def test_run_config_rewritten_or_empty_grid_is_domain_error(tmp_path, capsys, fields, message):
    # refused before any run, which would write n=4 rows under the ansatz's n=8, or an empty CSV
    cfg = {"name": "bad", "ansatz": {"family": "dicke"}, "n_grid": [4], **fields}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"schema_version": 1, "error": {"type": "ContractError", "message": message}}
    assert captured.out == "" and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("trials", "2", "trials '2' is not an integer >= 1"),
        ("regions_per_trial", 2.5, "regions_per_trial 2.5 is not an integer >= 1"),
        ("seed", "abc", "seed 'abc' is not an integer"),
        ("name", "a,b", "name 'a,b' must be a string without commas, quotes or line breaks"),
    ],
)
def test_run_config_bad_scalar_is_domain_error(tmp_path, capsys, key, value, message):
    cfg = {"name": "bad", "ansatz": {"family": "dicke"}, "n_grid": [4], key: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"schema_version": 1, "error": {"type": "ContractError", "message": message}}
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "doc,message",
    [
        ([1], "experiment config [1] is not an object"),
        ({"name": "bad", "ansatz": "snnqs", "n_grid": [4]}, "ansatz 'snnqs' is not an object"),
    ],
)
def test_run_config_not_an_object_is_domain_error(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
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
    # NQS_MAX_N is the cap's one switch; below the graph's n=4 it stops each
    # subcommand that builds a state, and main leaves the environment alone
    monkeypatch.setenv("NQS_MAX_N", "3")
    config = tmp_path / "dicke.json"
    config.write_text(json.dumps({"name": "d", "ansatz": {"family": "dicke"}, "n_grid": [4], "trials": 1}))
    for argv in (
        ["bound", "--graph", dicke4_path, "--region", "3", "--degree", "2"],
        ["statevector", "--graph", dicke4_path, "--out", str(tmp_path / "psi.nqsv")],
        ["run", "--config", str(config), "--out", str(tmp_path / "rows.csv")],
    ):
        assert main(argv) == 2
        message = "n=4 outside supported range 1..3"
        assert json.loads(capsys.readouterr().err)["error"] == {"type": "CapacityError", "message": message}
        assert os.environ["NQS_MAX_N"] == "3"
    monkeypatch.setenv("NQS_MAX_N", "4")
    assert main(["statevector", "--graph", dicke4_path, "--out", str(tmp_path / "psi.nqsv")]) == 0


def test_max_n_flag_is_gone(dicke4_path, tmp_path, capsys):
    # the spin cap has one spelling, the environment variable
    statevector = ["statevector", "--graph", dicke4_path, "--out", str(tmp_path / "psi.nqsv")]
    for argv in (["--max-n", "26", *statevector], [*statevector, "--max-n", "26"]):
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "usage"
    assert not (tmp_path / "psi.nqsv").exists()


@pytest.mark.parametrize("env", ["abc", "-3"])
def test_bad_spin_cap_env_is_domain_error(dicke4_path, tmp_path, monkeypatch, capsys, env):
    monkeypatch.setenv("NQS_MAX_N", env)
    assert main(["statevector", "--graph", dicke4_path, "--out", str(tmp_path / "psi.nqsv")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "CapacityError" and "NQS_MAX_N" in err["message"]
    assert os.environ["NQS_MAX_N"] == env


@pytest.mark.parametrize("command", ["dicke", "page"])
@pytest.mark.parametrize("n", [0, 1])
def test_closed_forms_refuse_n_without_a_cut(command, n, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, "--n", str(n), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"]["type"] == "DomainError"
    assert f"n={n}" in err["error"]["message"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "activation, message",
    [
        ("poly()", "activation 'poly()' has a malformed number"),
        ("softplus(abc)", "activation 'softplus(abc)' has a malformed number"),
        ("softplus(nan)", "beta nan is not finite"),
        ("poly(1,inf)", "poly coefficients (1.0, inf) are not all finite"),
    ],
)
def test_run_config_bad_activation_number_is_domain_error(tmp_path, capsys, activation, message):
    cfg = {"name": "bad", "ansatz": {"family": "snnqs", "activation": activation}, "n_grid": [4], "trials": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"schema_version": 1, "error": {"type": "ContractError", "message": message}}
    assert not (tmp_path / "x.csv").exists()


def test_run_config_fixed_half_mode_is_gone(tmp_path, capsys):
    # the half cut is spelled region_mode "sweep-size" with sizes ["half"]
    cfg = {"name": "half", "ansatz": {"family": "dicke"}, "n_grid": [6], "region_mode": "fixed-half", "trials": 1}
    path = tmp_path / "half.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"schema_version": 1, "error": {"type": "ContractError", "message": "unknown region mode 'fixed-half'"}}
    cfg.update(region_mode="sweep-size", sizes=["half"])
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 0
    assert (tmp_path / "x.csv").read_text().splitlines()[1].startswith("half,6,3,1,0,7,0,")


@pytest.mark.parametrize(
    "block, message",
    [
        ({"family": "transformer", "heads": 0}, "transformer ansatz field 'heads' must be an integer >= 1, not 0"),
        ({"family": "transformer", "patch": -1}, "transformer ansatz field 'patch' must be an integer >= 1, not -1"),
        ({"family": "transformer", "layers": -1}, "transformer ansatz field 'layers' must be an integer >= 1, not -1"),
        ({"family": "cosnet", "sigma_a": -1.0}, "cosnet ansatz field 'sigma_a' must be a finite number >= 0, not -1.0"),
        ({"family": "snnqs", "bias_std": math.nan}, "snnqs ansatz field 'bias_std' must be a finite number >= 0, not nan"),
    ],
    ids=["heads_zero", "patch_negative", "layers_negative", "std_negative", "std_nan"],
)
def test_run_config_bad_ansatz_field_is_domain_error(tmp_path, capsys, block, message):
    cfg = {"name": "bad", "ansatz": block, "n_grid": [11], "trials": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"schema_version": 1, "error": {"type": "ContractError", "message": message}}
    assert not (tmp_path / "x.csv").exists()


def test_run_config_schema_version_other_than_1_is_domain_error(tmp_path, capsys):
    cfg = {"schema_version": 2, "name": "bad", "ansatz": {"family": "dicke"}, "n_grid": [4], "trials": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    message = "experiment config key 'schema_version' must be 1, not 2"
    assert err == {"schema_version": 1, "error": {"type": "ContractError", "message": message}}
    assert not (tmp_path / "x.csv").exists()


def test_run_config_bad_ansatz_value_is_domain_error(tmp_path, capsys):
    cfg = {"name": "bad", "ansatz": {"family": "snnqs", "activation": 5}, "n_grid": [4]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    message = "snnqs ansatz field 'activation' must be an Activation or a str, not 5"
    assert err == {"schema_version": 1, "error": {"type": "ContractError", "message": message}}
    assert not (tmp_path / "x.csv").exists()
