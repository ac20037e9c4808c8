import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

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


def tiny_net_config(out_dir, seed=11, experiment="net_budget_sweep"):
    cfg = {
        "experiment": experiment,
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
            "c_max_mbit_iter_s": [None, 30.0],
            "n_subframes": 300,
        },
    }
    return cfg


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
    path = write_config(tmp_path, {"experiment": "cell_outage"})
    cfg = load_config(path)
    assert cfg["eps_hat"] == 0.1
    assert cfg["cell"]["n_trials"] == 100000
    assert cfg["network"]["channel"]["alpha"] == 3.7
    assert validate_config(cfg) == []


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
    cfg["network"]["channel"] = {"ue_density_per_km2": -0.1}
    assert validate_config(cfg) == [
        "network.channel.ue_density_per_km2: must be >= 0",
        "network.budget_grid_mbit_iter_s: budgets must be >= 0 or null",
    ]
    cfg = tiny_net_config(tmp_path, experiment="net_density_sweep")
    cfg["network"]["c_max_mbit_iter_s"] = [None, -30.0]
    assert validate_config(cfg) == [
        "network.c_max_mbit_iter_s: budgets must be >= 0 or null",
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
    experiment = "cell_outage" if section == "cell" else "net_budget_sweep"
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
    # a layout CSV with no cloud rows used to pass validate and crash in run
    csv_path = tmp_path / "layout.csv"
    rows = [f"{i},{1.5 * (i % 6) + 0.5!r},{2.0 * (i // 6) + 0.5!r},0" for i in range(24)]
    csv_path.write_text("id,x_km,y_km,in_cloud_group\n" + "\n".join(rows) + "\n")
    cfg = tiny_net_config(tmp_path)
    cfg["network"]["layout_csv"] = str(csv_path)
    assert validate_config(cfg) == ["network.layout_csv: no RAP is in the cloud group"]
    cfg_path = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        assert cli_main([command, "--config", str(cfg_path)]) == 2
    assert "network.layout_csv: no RAP is in the cloud group" in capsys.readouterr().err
    # a LayoutError from the synthesizer names the synthesize section
    cfg = tiny_net_config(tmp_path)
    cfg["network"]["synthesize"]["region_km"] = [9.0, 0.0, 0.0, 9.0]
    assert validate_config(cfg) == ["network.synthesize: region must have positive extent"]


def test_net_density_budget_range(tmp_path):
    # the density sweep's budget grid takes the same range objects as the
    # budget sweep's
    out = tmp_path / "dens"
    cfg = tiny_net_config(out, experiment="net_density_sweep")
    cfg["network"]["c_max_mbit_iter_s"] = {"start": 10.0, "stop": 30.0, "step": 20.0,
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
    assert manifest["numeric_stack"] == {"numpy": np.__version__, "scipy": scipy.__version__}
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


def test_net_density_run(tmp_path):
    # network.modes is run as given: LP is not dropped when CP is listed
    cfg = tiny_net_config(tmp_path / "both", experiment="net_density_sweep")
    run(cfg)
    records = json.loads((tmp_path / "both" / "results.json").read_text())["records"]
    # 2 densities x 2 budgets x 2 modes x 2 policies
    assert len(records) == 16
    assert {r["mode"] for r in records} == {"LP", "CP"}
    cfg = tiny_net_config(tmp_path / "cp", experiment="net_density_sweep")
    cfg["network"]["modes"] = ["CP"]
    run(cfg)
    records = json.loads((tmp_path / "cp" / "results.json").read_text())["records"]
    # 2 densities x 2 budgets x 1 mode (CP) x 2 policies
    assert len(records) == 8
    assert all(r["mode"] == "CP" for r in records)


def test_policy_tables_run(tmp_path):
    out = tmp_path / "tables"
    run({"experiment": "policy_tables", "seed": 1, "output_dir": str(out)})
    assert (out / "policy_mrs.csv").exists()
    assert (out / "policy_cas.csv").exists()
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
    written = emit_plot_data(out, tmp_path / "plots")
    # LP/CP x MRS/CAS, unconstrained reference point dropped from x axis
    assert len(written) == 4
    for path in written:
        rows = path.read_text().splitlines()
        assert len(rows) == 3  # two finite budgets


def test_emit_plot_data_density_sweep(tmp_path):
    out = tmp_path / "net"
    run(tiny_net_config(out, experiment="net_density_sweep"))
    written = emit_plot_data(out, tmp_path / "plots")
    # one file per (policy, mode, budget): LP and CP never share a file
    assert sorted(p.name for p in written) == sorted(
        f"net_density_sweep__{policy}__{mode}__{budget}.csv"
        for policy in ("MRS", "CAS") for mode in ("LP", "CP")
        for budget in ("cmax_30M", "cmax_inf"))
    for path in written:
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        assert [float(r["x"]) for r in rows] == [0.05, 0.3]  # one row per density


def test_emit_plot_data_errors(tmp_path):
    with pytest.raises(SchemaError, match="results.json"):
        emit_plot_data(tmp_path, tmp_path / "plots")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "results.json").write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(SchemaError, match="schema_version"):
        emit_plot_data(bad, tmp_path / "plots")
    # only cell_outage results carry the single-cell figures
    (bad / "results.json").write_text(json.dumps(
        {"schema_version": 1, "experiment": "cell_throughput", "records": [{}]}))
    with pytest.raises(SchemaError, match="unknown experiment 'cell_throughput'"):
        emit_plot_data(bad, tmp_path / "plots")


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
    assert paths
    # one shipped config per experiment, named after it
    assert sorted(p.stem for p in paths) == sorted(EXPERIMENTS)
    for path in paths:
        cfg = load_config(path)
        assert cfg["experiment"] == path.stem, path
        assert validate_config(cfg) == [], path


# SHA-256 of (results.json, results.csv) for the shipped network configs cut to
# 300 subframes: two work blocks, so the block merge is exercised.  A change
# that alters result bytes must update these and say why in CHANGES.md.
GOLDEN_NET_DIGESTS = {
    "net_budget_sweep": (
        "eeb99500dc474403d5a0d03c5f11e6f6609756cc7efd99f4077050f2373edd6b",
        "c9f508d60f538e1910d3dd3ba51a1eacf52ecb75a9546592086673c97dce5af5",
    ),
    "net_density_sweep": (
        "af41c88413513cfd712e443ead8d6ea64537230ad3a1e3632239813356ba0e04",
        "9dffbbac24f99b348f4ebe03b0ed832c2c1afc0374e04247a808f90f2a91601d",
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
        "4e69a878f1bb557980ca9bc4449790f14032188c65fbd3196f72d79c77abfa52",
        "e5e63a02ccf7c7d8e57e5f7d4ac24c77b455f4573e617f5e4ea33bcaddc1f9d8",
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
    ("cell", "subframe_s", "x", "subframe_s"),
    ("cell", "calibration_file", 5, "calibration_file"),
    ("net", "network.channel.ue_density_per_km2", None,
     "network.channel.ue_density_per_km2"),
    ("net", "network.channel.alhpa", 3.0,
     "network.channel.alhpa: unknown key (did you mean 'alpha'?)"),
    ("cell", "cell.n_trial", 20, "cell.n_trial: unknown key (did you mean 'n_trials'?)"),
    ("cell", "schema_version", 7, "schema_version"),
    # the single-cell figures are views of cell_outage, not experiments
    ("cell", "experiment", "cell_throughput", "experiment: must be one of cell_outage,"),
    ("cell", "seed", True, "seed"),
    ("cell", "low_snr_fallback", "no", "low_snr_fallback"),
    ("cell", "cell.policies", [], "cell.policies"),
    ("cell", "cell.c_max_mbit_iter_s", [], "cell.c_max_mbit_iter_s"),
    ("net", "network.policies", [], "network.policies"),
    ("net", "network.modes", [], "network.modes"),
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
    # a RAP on the region edge (the region is [0, 9]^2)
    ("net", "network.layout_csv",
     FileWith("id,x_km,y_km,in_cloud_group\n0,4.0,4.0,1\n1,9.0,4.0,1\n"),
     "network.layout_csv: RAP 1 lies outside the region or within 1e-09 km of its boundary"),
    ("cell", "calibration_file", FileWith(json.dumps({"schema_version": 1})),
     "calibration_file: malformed calibration: KeyError('mcs')"),
]


@pytest.mark.parametrize("base, field, value, message", MALFORMED,
                         ids=[f"{field}={value!r}" for _, field, value, _ in MALFORMED])
def test_malformed_config_exits_2(tmp_path, capsys, base, field, value, message):
    make = small_cell_config if base == "cell" else small_net_config
    if isinstance(value, FileWith):
        (tmp_path / "value").write_text(value.text)
        value = str(tmp_path / "value")
    cfg_path = write_config(tmp_path, with_leaf(make(tmp_path / "out"), field, value))
    for command in ("validate", "run"):
        assert cli_main([command, "--config", str(cfg_path)]) == 2, command
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, (command, err)


def test_grid_objects_replace_the_default(tmp_path):
    # a range object replaces the default log grid whole, and the cell
    # budget grid takes a range object too
    out = tmp_path / "dens"
    cfg = small_net_config(out)
    cfg["experiment"] = "net_density_sweep"
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
