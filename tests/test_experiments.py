import concurrent.futures
import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cransim import experiments, scheduling
from cransim.cli import main as cli_main
from cransim.experiments import (
    EXPERIMENTS,
    ConfigError,
    SchemaError,
    emit_plot_data,
    load_config,
    resolve_grid,
    run,
    validate_config,
)


def tiny_cell_config(out_dir, seed=7):
    return {
        "experiment": "cell_outage",
        "seed": seed,
        "output_dir": str(out_dir),
        "cell": {
            "snr_grid_db": [0.0, 10.0, 20.0],
            "policies": ["MRS", "CAS"],
            "c_max_mbit_iter_s": [None, 50.0],
            "n_trials": 400,
        },
    }


def tiny_net_config(out_dir, seed=11):
    cfg = {
        "experiment": "net_sweep",
        "seed": seed,
        "output_dir": str(out_dir),
        "network": {
            "synthesize": {"n_total": 24, "n_cloud": 4,
                           "region_km": [0.0, 0.0, 9.0, 9.0],
                           "min_sep_km": 1.0, "layout_seed": 5},
            "modes": ["LP", "CP"],
            "policies": ["MRS", "CAS"],
            "budget_grid_mbit_iter_s": [10.0, 40.0, None],
            "density_grid_per_km2": [0.05, 0.3],
            "n_subframes": 300,
        },
    }
    return cfg


# JSON nested deeper than the parser's recursion limit
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_outputs(out_dir):
    return {
        p.name: p.read_bytes()
        for p in sorted(Path(out_dir).iterdir())
        if p.name != "manifest.json"
    }


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_defaults_merged(tmp_path):
    # only the section the experiment reads is merged in
    path = write_config(tmp_path, {"experiment": "cell_outage"})
    cfg = load_config(path)
    assert cfg["eps_hat"] == 0.1
    assert cfg["cell"]["n_trials"] == 100000
    assert "network" not in cfg
    assert validate_config(cfg) == []
    cfg = load_config(write_config(tmp_path, {"experiment": "net_sweep"}))
    assert cfg["network"]["channel"]["alpha"] == 3.7
    assert "cell" not in cfg
    assert validate_config(cfg) == []
    cfg = load_config(write_config(tmp_path, {"experiment": "policy_tables"}))
    assert "cell" not in cfg and "network" not in cfg


def test_validation_collects_field_errors():
    cfg = {
        "experiment": "bogus",
        "seed": -3,
        "eps_hat": 2.0,
        "cell": {"snr_grid_db": [], "n_trials": 0, "policies": ["XX"],
                 "c_max_mbit_iter_s": [0.0]},
    }
    errors = validate_config(cfg)
    joined = "\n".join(errors)
    for field in ("experiment", "seed", "eps_hat"):
        assert field in joined
    cfg["experiment"] = "cell_outage"
    joined = "\n".join(validate_config(cfg))
    for field in ("cell.n_trials", "cell.c_max_mbit_iter_s", "cell.policies"):
        assert field in joined


def test_validation_checks_network_fields(tmp_path):
    cfg = tiny_net_config(tmp_path)
    cfg["network"]["channel"] = {"alpha": 1.0, "s": 2.0}
    cfg["network"]["n_subframes"] = 0
    errors = validate_config(cfg)
    joined = "\n".join(errors)
    assert "alpha" in joined and "n_subframes" in joined
    # negative budgets and densities are rejected before any worker runs
    cfg = tiny_net_config(tmp_path)
    cfg["network"]["budget_grid_mbit_iter_s"] = [-4.0, 8.0]
    cfg["network"]["density_grid_per_km2"] = [-0.1]
    assert validate_config(cfg) == [
        "network.budget_grid_mbit_iter_s: budgets must be >= 0 or null",
        "network.density_grid_per_km2: densities must be >= 0",
    ]
    cfg = tiny_net_config(tmp_path)
    cfg["network"]["budget_grid_mbit_iter_s"] = [None, -30.0]
    assert validate_config(cfg) == [
        "network.budget_grid_mbit_iter_s: budgets must be >= 0 or null",
    ]
    cfg_path = write_config(tmp_path, cfg)
    assert cli_main(["validate", "--config", str(cfg_path)]) == 2
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    # the cloud group must be a nonempty subset of the layout, checked
    # alongside the other fields before any worker runs
    for n_cloud in (0, 25, 2.5, "4"):
        cfg = tiny_net_config(tmp_path)
        cfg["network"]["synthesize"]["n_cloud"] = n_cloud
        cfg["network"]["modes"] = ["LP", "XX"]
        assert validate_config(cfg) == [
            "network.modes: unknown mode XX",
            "network.synthesize.n_cloud: must be an integer in 1..24 (n_total)",
        ]
    cfg["network"]["modes"] = ["CP"]
    cfg["network"]["synthesize"]["n_total"] = 1
    assert validate_config(cfg) == ["network.synthesize.n_total: must be an integer >= 2"]
    cfg["network"]["synthesize"] = {"n_cloud": 0}
    cfg_path = write_config(tmp_path, cfg)
    assert cli_main(["validate", "--config", str(cfg_path)]) == 2
    assert cli_main(["run", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("section", ["cell", "network", "network.synthesize",
                                     "network.channel"])
def test_validation_rejects_non_object_sections(tmp_path, section):
    experiment = "cell_outage" if section == "cell" else "net_sweep"
    cfg = {"experiment": experiment}
    *parents, key = section.split(".")
    node = cfg
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = 5
    assert validate_config(cfg) == [f"{section}: must be an object"]
    cfg_path = write_config(tmp_path, cfg)
    assert cli_main(["validate", "--config", str(cfg_path)]) == 2


def test_validation_builds_the_layout(tmp_path, capsys):
    # a LayoutError from the synthesizer names the synthesize section, and
    # run reports it before any worker starts
    cfg = tiny_net_config(tmp_path)
    cfg["network"]["synthesize"]["region_km"] = [9.0, 0.0, 0.0, 9.0]
    assert validate_config(cfg) == ["network.synthesize: region must have positive extent"]
    cfg_path = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        assert cli_main([command, "--config", str(cfg_path)]) == 2
    assert "network.synthesize: region must have positive extent" in capsys.readouterr().err


def test_net_density_budget_range(tmp_path):
    # a budget range object, with the unconstrained budget added
    out = tmp_path / "dens"
    cfg = tiny_net_config(out)
    cfg["network"]["budget_grid_mbit_iter_s"] = {"start": 10.0, "stop": 30.0, "step": 20.0,
                                                 "include_unconstrained": True}
    cfg["network"]["n_subframes"] = 20
    cfg_path = write_config(tmp_path, cfg)
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    records = json.loads((out / "results.json").read_text())["records"]
    assert {r["c_max_bit_iter_s"] for r in records} == {10e6, 30e6, None}


def test_resolve_grid_forms():
    errors = []
    assert resolve_grid([1.0, 2.0], "g", errors) == [1.0, 2.0]
    assert resolve_grid({"start": 0, "stop": 1, "step": 0.5}, "g", errors) == [0.0, 0.5, 1.0]
    log = resolve_grid({"log_start": -1, "log_stop": 0, "num": 3}, "g", errors)
    assert log == pytest.approx([0.1, 10 ** -0.5, 1.0])
    assert errors == []
    resolve_grid({"start": 1, "stop": 0, "step": 1}, "g", errors)
    assert errors


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

def test_cell_run_writes_results_and_manifest(tmp_path):
    out = tmp_path / "out"
    manifest = run(tiny_cell_config(out))
    assert (out / "results.json").exists()
    assert (out / "results.csv").exists()
    assert (out / "manifest.json").exists()
    payload = json.loads((out / "results.json").read_text())
    assert payload["schema_version"] == 1
    # 3 gamma points x 2 policies x 2 budgets
    assert len(payload["records"]) == 12
    for name, digest in manifest["outputs"].items():
        assert len(digest) == 64
    # the numeric stack is recorded next to the results, never in them
    assert manifest["numeric_stack"] == {"numpy": np.__version__}
    assert "numeric_stack" not in payload and "numpy" not in (out / "results.csv").read_text()


def test_cell_run_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(tiny_cell_config(out_a))
    run(tiny_cell_config(out_b))
    assert read_outputs(out_a) == read_outputs(out_b)


def test_cell_run_worker_invariance(tmp_path):
    out_a = tmp_path / "w1"
    out_b = tmp_path / "w4"
    run(tiny_cell_config(out_a), workers=1)
    run(tiny_cell_config(out_b), workers=4)
    assert read_outputs(out_a) == read_outputs(out_b)


def test_net_run_deterministic_and_worker_invariant(tmp_path):
    outs = [tmp_path / n for n in ("n1", "n2", "n8")]
    run(tiny_net_config(outs[0]), workers=1)
    run(tiny_net_config(outs[1]), workers=1)
    run(tiny_net_config(outs[2]), workers=8)
    assert read_outputs(outs[0]) == read_outputs(outs[1])
    assert read_outputs(outs[0]) == read_outputs(outs[2])


def test_net_run_independent_of_block_length(tmp_path, monkeypatch):
    # every sum is an exact integer sum, so the bytes do not depend on how
    # the subframes are split into work blocks; a float sum of the squared
    # per-subframe throughputs would round differently per split.  (The
    # throughputs are whole numbers of bit/s at 1 ms, so a float sum of them
    # is exact in any split: GOLDEN_NET_DIGESTS pins those bytes instead.)
    cfg = tiny_net_config(tmp_path / "b250")
    cfg["network"]["n_subframes"] = 40
    run(cfg)
    monkeypatch.setattr(experiments, "NET_BLOCK_SUBFRAMES", 7)
    cfg["output_dir"] = str(tmp_path / "b7")
    run(cfg)
    assert read_outputs(tmp_path / "b250") == read_outputs(tmp_path / "b7")


def test_net_run_independent_of_block_length_across_chunks(tmp_path, monkeypatch):
    # with 16-subframe draw chunks, 40 subframes span three chunks: 250-subframe
    # blocks open each chunk's stream once, while 7-subframe blocks start and
    # end inside chunks, skipping into a chunk and stopping short of its end
    cfg = tiny_net_config(tmp_path / "c250")
    cfg["network"]["n_subframes"] = 40
    run(cfg)
    monkeypatch.setattr(scheduling, "CHUNK_SUBFRAMES", 16)
    for block in (250, 7):
        monkeypatch.setattr(experiments, "NET_BLOCK_SUBFRAMES", block)
        cfg["output_dir"] = str(tmp_path / f"b{block}")
        run(cfg)
    assert read_outputs(tmp_path / "b250") == read_outputs(tmp_path / "b7")
    # the chunk length is part of the bytes
    assert read_outputs(tmp_path / "b250") != read_outputs(tmp_path / "c250")


def test_net_density_run(tmp_path):
    # network.modes is run as given: LP is not dropped when CP is listed
    cfg = tiny_net_config(tmp_path / "both")
    run(cfg)
    records = json.loads((tmp_path / "both" / "results.json").read_text())["records"]
    # 2 densities x 3 budgets x 2 modes x 2 policies
    assert len(records) == 24
    assert {r["mode"] for r in records} == {"LP", "CP"}
    cfg = tiny_net_config(tmp_path / "cp")
    cfg["network"]["modes"] = ["CP"]
    run(cfg)
    records = json.loads((tmp_path / "cp" / "results.json").read_text())["records"]
    # 2 densities x 3 budgets x 1 mode (CP) x 2 policies
    assert len(records) == 12
    assert all(r["mode"] == "CP" for r in records)


def test_policy_tables_run(tmp_path):
    out = tmp_path / "tables"
    run({"experiment": "policy_tables", "seed": 1, "output_dir": str(out)})
    # results.csv holds the tables: one (policy, mcs_index, threshold_db) row each
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "margins.json", "results.csv", "results.json"]
    rows = list(csv.DictReader(io.StringIO((out / "results.csv").read_text())))
    assert [(r["policy"], r["mcs_index"]) for r in rows] == [
        (policy, str(m)) for policy in ("CAS", "MRS") for m in range(27)]
    margins = json.loads((out / "margins.json").read_text())
    assert len(margins["margins_db"]) == 27


def test_run_rejects_invalid_config(tmp_path):
    with pytest.raises(ConfigError):
        run({"experiment": "cell_outage", "seed": -1, "output_dir": str(tmp_path)})


def test_output_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "override"
    monkeypatch.setenv("CRANSIM_OUTPUT_DIR", str(override))
    run(tiny_cell_config(tmp_path / "ignored"))
    assert (override / "results.json").exists()
    assert not (tmp_path / "ignored").exists()


# ---------------------------------------------------------------------------
# plot emission
# ---------------------------------------------------------------------------

def test_emit_plot_data_cell(tmp_path):
    out = tmp_path / "out"
    run(tiny_cell_config(out))
    plot_dir = tmp_path / "plots"
    written = emit_plot_data(out, plot_dir)
    # outage, throughput and complexity figures x 2 policies x 2 budgets
    assert len(written) == 12
    assert {p.name.split("__")[0] for p in written} == {
        "cell_outage", "cell_throughput", "cell_complexity"}
    sample = written[0].read_text().splitlines()
    assert sample[0] == "schema_version,series,x,y,ci_low,ci_high"
    assert len(sample) == 4  # header + 3 gamma points
    # each figure plots its own record field
    records = json.loads((out / "results.json").read_text())["records"]
    for name, field in (("cell_throughput__CAS__cmax_50M", "t_eff_bps"),
                        ("cell_complexity__MRS__cmax_inf", "effort_per_success_bit_iter_s")):
        policy, budget = ("CAS", 50e6) if "CAS" in name else ("MRS", None)
        expected = [r[field] for r in sorted(records, key=lambda r: r["snr_db"])
                    if r["policy"] == policy and r["c_max_bit_iter_s"] == budget]
        rows = list(csv.DictReader(io.StringIO((plot_dir / f"{name}.csv").read_text())))
        assert [float(r["y"]) for r in rows] == expected


def test_emit_plot_data_budget_sweep(tmp_path):
    out = tmp_path / "net"
    run(tiny_net_config(out))
    written = [p for p in emit_plot_data(out, tmp_path / "plots")
               if p.name.startswith("net_budget_sweep__")]
    # one file per (policy, mode, density): two densities never share a file
    assert sorted(p.name for p in written) == sorted(
        f"net_budget_sweep__{policy}__{mode}__lambda_{density}.csv"
        for policy in ("MRS", "CAS") for mode in ("LP", "CP") for density in ("0.05", "0.3"))
    for path in written:
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        # one row per finite budget: the unconstrained reference has no x position
        assert [float(r["x"]) for r in rows] == [10.0, 40.0]


def test_emit_plot_data_density_sweep(tmp_path):
    out = tmp_path / "net"
    run(tiny_net_config(out))
    written = [p for p in emit_plot_data(out, tmp_path / "plots")
               if p.name.startswith("net_density_sweep__")]
    # one file per (policy, mode, budget): LP and CP never share a file
    assert sorted(p.name for p in written) == sorted(
        f"net_density_sweep__{policy}__{mode}__{budget}.csv"
        for policy in ("MRS", "CAS") for mode in ("LP", "CP")
        for budget in ("cmax_10M", "cmax_40M", "cmax_inf"))
    for path in written:
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        assert [float(r["x"]) for r in rows] == [0.05, 0.3]  # one row per density


def test_emit_plot_data_distinct_grid_values(tmp_path):
    # densities that agree to 6 significant digits still get a file each,
    # and a density of extreme magnitude still gets a short name; the three
    # densities are also the x values of one density figure per budget
    out = tmp_path / "net"
    cfg = tiny_net_config(out)
    cfg["network"].update(density_grid_per_km2=[0.1, 0.1000001, 1e-250], n_subframes=5,
                          modes=["CP"], policies=["MRS"])
    run(cfg)
    written = emit_plot_data(out, tmp_path / "plots")
    assert sorted(p.name for p in written) == [
        "net_budget_sweep__MRS__CP__lambda_0.1.csv",
        "net_budget_sweep__MRS__CP__lambda_0.1000001.csv",
        "net_budget_sweep__MRS__CP__lambda_1e-250.csv",
        "net_density_sweep__MRS__CP__cmax_10M.csv",
        "net_density_sweep__MRS__CP__cmax_40M.csv",
        "net_density_sweep__MRS__CP__cmax_inf.csv"]


# The plot files of the shipped network configs, recorded before their two
# experiments became net_sweep: a figure whose x takes a single finite value
# (the density of net_budget_sweep.json, the finite budget of
# net_density_sweep.json) is not drawn.
SHIPPED_NET_PLOTS = {
    "net_budget_sweep": [f"net_budget_sweep__{policy}__{mode}__lambda_0.1.csv"
                         for policy in ("CAS", "MRS") for mode in ("CP", "LP")],
    "net_density_sweep": [f"net_density_sweep__{policy}__CP__{budget}.csv"
                          for policy in ("CAS", "MRS") for budget in ("cmax_30M", "cmax_inf")],
}


@pytest.mark.parametrize("name", sorted(SHIPPED_NET_PLOTS))
def test_emit_plot_data_shipped_net_configs(tmp_path, monkeypatch, name):
    monkeypatch.delenv("CRANSIM_OUTPUT_DIR", raising=False)
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    cfg["output_dir"] = str(tmp_path / "out")
    cfg["network"]["n_subframes"] = 3
    run(cfg)
    written = emit_plot_data(tmp_path / "out", tmp_path / "plots")
    assert sorted(p.name for p in written) == SHIPPED_NET_PLOTS[name]


def test_emit_plot_data_errors(tmp_path):
    with pytest.raises(SchemaError, match="results.json"):
        emit_plot_data(tmp_path, tmp_path / "plots")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "results.json").write_text("[]")
    with pytest.raises(SchemaError, match="top level must be an object"):
        emit_plot_data(bad, tmp_path / "plots")
    (bad / "results.json").write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(SchemaError, match="schema_version"):
        emit_plot_data(bad, tmp_path / "plots")
    # only cell_outage results carry the single-cell figures
    (bad / "results.json").write_text(json.dumps(
        {"schema_version": 1, "experiment": "cell_throughput", "records": [{}]}))
    with pytest.raises(SchemaError, match="unknown experiment 'cell_throughput'"):
        emit_plot_data(bad, tmp_path / "plots")
    # records that are not objects, or lack a field that a figure reads
    record = {"snr_db": 0.0, "policy": "MRS", "c_max_bit_iter_s": None, "eps": 0.5,
              "eps_hw": 0.1, "t_eff_bps": 1.0, "t_eff_hw_bps": 0.1}
    for records, problem in (([1], "not subscriptable"),
                             ([record], "effort_per_success_bit_iter_s")):
        (bad / "results.json").write_text(json.dumps(
            {"schema_version": 1, "experiment": "cell_outage", "records": records}))
        with pytest.raises(SchemaError, match=f"records do not fit cell_outage: .*{problem}"):
            emit_plot_data(bad, tmp_path / "plots")
    # files that are not JSON, not UTF-8, or nested past the parser's depth
    for content in (b"{not json", b"\xff\xfe{}", DEEP_JSON):
        (bad / "results.json").write_bytes(content)
        with pytest.raises(SchemaError, match="results.json: invalid JSON"):
            emit_plot_data(bad, tmp_path / "plots")
    assert not (tmp_path / "plots").exists()
    (bad / "results.json").write_text(json.dumps(
        {"schema_version": 1, "experiment": "cell_outage", "records": [1]}))
    assert cli_main(["emit-plots", "--in", str(bad), "--out", str(tmp_path / "plots")]) == 4


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_validate_and_run(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_cell_config(tmp_path / "cli_out"))
    assert cli_main(["validate", "--config", str(cfg_path)]) == 0
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    manifest = json.loads((tmp_path / "cli_out" / "manifest.json").read_text())
    assert manifest["experiment"] == "cell_outage"


def test_cli_invalid_config_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"experiment": "nope"})
    assert cli_main(["validate", "--config", str(cfg_path)]) == 2
    assert "experiment" in capsys.readouterr().err


def test_cli_missing_config_exits_2(tmp_path, capsys):
    assert cli_main(["run", "--config", str(tmp_path / "none.json")]) == 2


@pytest.mark.parametrize("content", [b"\xff\xfe{}", DEEP_JSON], ids=["not_utf8", "deep"])
def test_cli_unreadable_config_exits_2(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    for command in ("validate", "run"):
        assert cli_main([command, "--config", str(path)]) == 2, command
        err = capsys.readouterr().err
        assert "config error: config: invalid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_workers_must_be_positive(tmp_path, capsys, workers):
    cfg_path = write_config(tmp_path, tiny_cell_config(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--config", str(cfg_path), "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pool_has_at_most_one_process_per_task(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        """Runs the tasks in-process and records the pool size asked for."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # _run_tasks imports the pool class when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = tiny_cell_config(tmp_path / "one")
    cfg["cell"]["snr_grid_db"] = [10.0]
    run(cfg, workers=4)
    assert sizes == []  # one task runs in-process
    run(tiny_cell_config(tmp_path / "three"), workers=8)
    assert sizes == [3]


def test_cli_seed_override_changes_results(tmp_path):
    cfg = tiny_cell_config(tmp_path / "s1")
    cfg_path = write_config(tmp_path, cfg)
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    cfg2 = tiny_cell_config(tmp_path / "s2")
    cfg2_path = write_config(tmp_path, cfg2, name="cfg2.json")
    assert cli_main(["run", "--config", str(cfg2_path), "--seed", "999"]) == 0
    a = (tmp_path / "s1" / "results.json").read_bytes()
    b = (tmp_path / "s2" / "results.json").read_bytes()
    assert a != b


def test_cli_emit_plots_empty_dir_exits_4(tmp_path, capsys):
    code = cli_main(["emit-plots", "--in", str(tmp_path), "--out", str(tmp_path / "p")])
    assert code == 4
    assert "schema error" in capsys.readouterr().err


def test_shipped_configs_validate():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    # every experiment has a shipped config; net_sweep has two, one per figure
    configs = {p.stem: load_config(p) for p in paths}
    assert {cfg["experiment"] for cfg in configs.values()} == set(EXPERIMENTS)
    assert [name for name, cfg in configs.items() if cfg["experiment"] == "net_sweep"] == [
        "net_budget_sweep", "net_density_sweep"]
    for name, cfg in configs.items():
        assert validate_config(cfg) == [], name


# SHA-256 of (results.json, results.csv) for the shipped network configs cut to
# 300 subframes: two work blocks and two draw chunks, so the block merge is
# exercised and the second chunk is cut short.  A change that alters result
# bytes must update these and say why in CHANGES.md.
GOLDEN_NET_DIGESTS = {
    "net_budget_sweep": (
        "3e03b54267df3047af23263d9ef31c7941e32497f969499c95d1693ab6255156",
        "d65d76019d4720cfbcc5f8ff2b9b090143d701d424c011c81f593f35971f76e4",
    ),
    "net_density_sweep": (
        "84efca60d759df21fe9c03068a169b1bb1efb0a542c5d7bc8296f6763c36b725",
        "99eeff802105bec1e352a1878ffc1f0b49aa5ddb18d967d2f3e9c6e24c120b6d",
    ),
}


@pytest.mark.parametrize("name, workers", [
    pytest.param(name, workers, id=name if workers == 1 else f"{name}-{workers}workers")
    for workers in (1, 2) for name in sorted(GOLDEN_NET_DIGESTS)])
def test_net_result_digests(tmp_path, monkeypatch, name, workers):
    monkeypatch.delenv("CRANSIM_OUTPUT_DIR", raising=False)
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
    cfg["output_dir"] = str(tmp_path)
    cfg["network"]["n_subframes"] = 300
    outputs = run(cfg, workers)["outputs"]
    assert (outputs["results.json"], outputs["results.csv"]) == GOLDEN_NET_DIGESTS[name]


# SHA-256 of (results.json, results.csv) for the shipped single-cell config cut
# to 20000 trials per grid point; the same rule as GOLDEN_NET_DIGESTS applies.
GOLDEN_CELL_DIGESTS = {
    "cell_outage": (
        "0c7074e092b2416b4ed9128064f941c923e75a1295e9e62260952ab4d346abf3",
        "7242f2b1706959aa928f2edc5f68b08c54dd1f4090bd2c2338f3fca568862864",
    ),
}


@pytest.mark.parametrize("name, workers", [
    pytest.param(name, workers, id=name if workers == 1 else f"{name}-{workers}workers")
    for workers in (1, 2) for name in sorted(GOLDEN_CELL_DIGESTS)])
def test_cell_result_digests(tmp_path, monkeypatch, name, workers):
    monkeypatch.delenv("CRANSIM_OUTPUT_DIR", raising=False)
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    cfg["output_dir"] = str(tmp_path)
    cfg["cell"]["n_trials"] = 20000
    outputs = run(cfg, workers)["outputs"]
    assert (outputs["results.json"], outputs["results.csv"]) == GOLDEN_CELL_DIGESTS[name]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("name", sorted(
    p.stem for p in (Path(__file__).resolve().parent.parent / "configs").glob("*.json")))
def test_shipped_results_are_strict_json(tmp_path, monkeypatch, name):
    # every JSON output parses without NaN or Infinity tokens; a mean of no
    # values (the effort per success bit where no block decoded) is null
    monkeypatch.delenv("CRANSIM_OUTPUT_DIR", raising=False)
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    cfg["output_dir"] = str(tmp_path)
    for section, key, length in (("cell", "n_trials", 200), ("network", "n_subframes", 20)):
        if section in cfg:
            cfg[section][key] = length
    run(cfg)
    payloads = {path.name: json.loads(path.read_text(), parse_constant=_reject_constant)
                for path in tmp_path.glob("*.json")}
    if name == "cell_outage":
        assert any(r["effort_per_success_bit_iter_s"] is None
                   for r in payloads["results.json"]["records"])


# ---------------------------------------------------------------------------
# the config boundary: every malformed config exits 2 with a field message
# ---------------------------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def with_leaf(cfg, field, value):
    cfg = json.loads(json.dumps(cfg))
    *parents, key = field.split(".")
    node = cfg
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = value
    return cfg


def small_cell_config(out_dir):
    cfg = tiny_cell_config(out_dir)
    cfg["cell"].update(snr_grid_db=[10.0], n_trials=20)
    return cfg


def small_net_config(out_dir):
    cfg = tiny_net_config(out_dir)
    cfg["network"].update(n_subframes=5, budget_grid_mbit_iter_s=[10.0])
    return cfg


@dataclass(frozen=True)
class FileWith:
    """A config value naming a file that holds ``text``."""

    text: str


# (base config, field, bad value, text stderr must contain)
MALFORMED = [
    ("cell", "cell.snr_grid_db", ["a"], "cell.snr_grid_db"),
    # dB values whose linear power overflows the float range
    ("cell", "cell.snr_grid_db", [4000],
     "cell.snr_grid_db: entries must be numbers whose linear power 10^(x/10)"),
    ("net", "network.channel.snr_ref_db", 4000,
     "network.channel.snr_ref_db: must be a number whose linear power 10^(x/10)"),
    ("cell", "eps_hat", "x", "eps_hat"),
    ("cell", "eps_hat", 1e-300, "eps_hat: MCS 0 never meets"),
    ("cell", "calibration_file", 5, "calibration_file"),
    # a section the experiment does not read, and the keys that the two
    # network grids replaced, are errors rather than silently ignored
    ("cell", "network", {"n_subframes": 5},
     "network: experiment cell_outage reads no network section"),
    ("net", "cell", {"n_trials": 20},
     "cell: experiment net_sweep reads no cell section"),
    ("cell", "experiment", "policy_tables",
     "cell: experiment policy_tables reads no cell section"),
    ("net", "network.c_max_mbit_iter_s", [None, 30.0],
     "network.c_max_mbit_iter_s: unknown key (did you mean 'budget_grid_mbit_iter_s'?)"),
    ("net", "network.channel.ue_density_per_km2", None,
     "network.channel.ue_density_per_km2: unknown key"),
    ("cell", "experiment", [], "experiment: must be one of cell_outage,"),
    ("net", "network.channel.alhpa", 3.0,
     "network.channel.alhpa: unknown key (did you mean 'alpha'?)"),
    ("cell", "cell.n_trial", 20, "cell.n_trial: unknown key (did you mean 'n_trials'?)"),
    ("cell", "schema_version", 7, "schema_version"),
    # the single-cell figures are views of cell_outage, not experiments
    ("cell", "experiment", "cell_throughput", "experiment: must be one of cell_outage,"),
    ("cell", "seed", True, "seed"),
    # options with one value in use are constants, not keys
    ("cell", "low_snr_fallback", True, "low_snr_fallback: unknown key"),
    ("net", "network.channel.max_interference_km", 5.0,
     "network.channel.max_interference_km: unknown key"),
    # the calibration fixes the subframe at 1 ms
    ("cell", "subframe_s", 0.001, "subframe_s: unknown key"),
    ("cell", "cell.policies", [], "cell.policies"),
    ("cell", "cell.c_max_mbit_iter_s", [], "cell.c_max_mbit_iter_s"),
    ("net", "network.policies", [], "network.policies"),
    ("net", "network.modes", [], "network.modes"),
    # a repeated grid or list value would be swept twice or silently once
    ("cell", "cell.snr_grid_db", [0, 0, 10], "cell.snr_grid_db: must not repeat a value"),
    ("cell", "cell.c_max_mbit_iter_s", [50, 50],
     "cell.c_max_mbit_iter_s: must not repeat a value"),
    ("cell", "cell.policies", ["MRS", "MRS"], "cell.policies: must not repeat a value"),
    ("net", "network.density_grid_per_km2", [0.1, 0.1],
     "network.density_grid_per_km2: must not repeat a value"),
    ("net", "network.budget_grid_mbit_iter_s", {"log_start": 1, "log_stop": 1, "num": 3},
     "network.budget_grid_mbit_iter_s: must not repeat a value"),
    ("net", "network.channel.min_ue_rap_km", 50.0,
     "network.channel.min_ue_rap_km: unknown key"),
    # log grids whose values overflow the float range
    ("net", "network.density_grid_per_km2", {"log_start": 0, "log_stop": 400, "num": 2},
     "network.density_grid_per_km2: resolves to values that are not finite"),
    ("net", "network.budget_grid_mbit_iter_s",
     {"log_start": 0, "log_stop": 400, "num": 2, "include_unconstrained": True},
     "network.budget_grid_mbit_iter_s: resolves to values that are not finite"),
    # files that exist but are not calibrations: a config, no JSON, no MCS table
    ("cell", "calibration_file", FileWith(json.dumps({"experiment": "cell_outage"})),
     "calibration_file: unsupported calibration schema_version None"),
    ("net", "calibration_file", FileWith("i_max = 8"), "calibration_file: Expecting value"),
    # the synthesizer is the one source of a layout
    ("net", "network.layout_csv", "layout.csv", "network.layout_csv: unknown key"),
    # a cell with no room for a UE outside the 1 m disk about its RAP
    ("net", "network.synthesize", {"n_total": 9, "n_cloud": 2, "region_km": [0, 0, 0.0012, 0.0012],
                                   "min_sep_km": 0, "layout_seed": 1},
     "network.synthesize: cell 0 has area 5.31e-08 km^2, less than twice that of the disk"),
    ("cell", "calibration_file", FileWith(json.dumps({"schema_version": 1})),
     "calibration_file: malformed calibration: KeyError('mcs')"),
    # run lengths whose exact sums of squares could leave int64: a trial's
    # effort is at most 33024 bits x 8 iterations, and a subframe delivers
    # at most 33024 bits in each of the 4 cloud cells
    ("cell", "cell.n_trials", (2**63 - 1) // (33024 * 8) ** 2 + 1,
     f"cell.n_trials: must be at most {(2**63 - 1) // (33024 * 8) ** 2},"),
    ("net", "network.n_subframes", (2**63 - 1) // (4 * 33024) ** 2 + 1,
     f"network.n_subframes: must be at most {(2**63 - 1) // (4 * 33024) ** 2},"),
]


@pytest.mark.parametrize("base, field, value, message", MALFORMED,
                         ids=[f"{field}={value!r}" for _, field, value, _ in MALFORMED])
def test_malformed_config_exits_2(tmp_path, capsys, base, field, value, message):
    make = {"cell": small_cell_config, "net": small_net_config}[base]
    if isinstance(value, FileWith):
        (tmp_path / "value").write_text(value.text)
        value = str(tmp_path / "value")
    cfg_path = write_config(tmp_path, with_leaf(make(tmp_path / "out"), field, value))
    for command in ("validate", "run"):
        assert cli_main([command, "--config", str(cfg_path)]) == 2, command
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, (command, err)


def test_exact_sum_bounds_are_inclusive(tmp_path):
    cell = with_leaf(small_cell_config(tmp_path), "cell.n_trials",
                     (2**63 - 1) // (33024 * 8) ** 2)
    net = with_leaf(small_net_config(tmp_path), "network.n_subframes",
                    (2**63 - 1) // (4 * 33024) ** 2)
    assert validate_config(cell) == [] and validate_config(net) == []


def test_grid_objects_replace_the_default(tmp_path):
    # a range object replaces the default log grid whole, and the cell
    # budget grid takes a range object too
    out = tmp_path / "dens"
    cfg = small_net_config(out)
    cfg["network"]["density_grid_per_km2"] = {"start": 0.1, "stop": 0.3, "step": 0.1}
    assert cli_main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    records = json.loads((out / "results.json").read_text())["records"]
    densities = sorted({r["ue_density_per_km2"] for r in records})
    assert densities == pytest.approx([0.1, 0.2, 0.3])
    out = tmp_path / "cell"
    cfg = small_cell_config(out)
    cfg["cell"]["c_max_mbit_iter_s"] = {"start": 10.0, "stop": 30.0, "step": 20.0,
                                        "include_unconstrained": True}
    assert cli_main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    records = json.loads((out / "results.json").read_text())["records"]
    assert {r["c_max_bit_iter_s"] for r in records} == {10e6, 30e6, None}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6,
)


def config_nodes(cfg, path=()):
    """Dotted path and value of every key of a config, nested ones too."""
    for key, value in cfg.items():
        yield ".".join(path + (key,)), value
        if isinstance(value, dict):
            yield from config_nodes(value, path + (key,))


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_validate_never_crashes(tmp_path_factory, name, data):
    # network.synthesize is left alone: valid but huge layouts take seconds
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    nodes = [(f, v) for f, v in config_nodes(cfg)
             if not f.startswith("network.synthesize")]
    if data.draw(st.booleans(), label="replace a leaf"):
        field = data.draw(st.sampled_from([f for f, _ in nodes]), label="field")
    else:
        section = data.draw(st.sampled_from(
            [""] + [f + "." for f, v in nodes if isinstance(v, dict)]), label="section")
        field = section + data.draw(st.text(max_size=8), label="key")
    cfg = with_leaf(cfg, field, data.draw(json_values, label="value"))
    cfg_path = write_config(tmp_path_factory.mktemp("fuzz"), cfg)
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = cli_main(["validate", "--config", str(cfg_path)])
    assert code in (0, 2)
    assert code == 0 or err.getvalue().startswith("config error: ")
