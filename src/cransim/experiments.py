"""Experiment orchestration: configuration, dispatch, result files.

Each experiment is described by a single JSON config.  Outputs are a
results.json + results.csv pair plus a manifest recording content hashes,
so re-running an identical config (at any worker count) reproduces the
result files byte for byte.  Substreams are derived per grid point and per
subframe, never per worker; parallelism only changes wall-clock time.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .cell import sweep_cell
from .geometry import ChannelParams, load_layout_csv, synthesize_layout
from .link import SUBFRAME_S, load_calibration
from .policy import build_policy_tables
from .rng import substream
from .scheduling import finalize_records, merge_accumulators, sweep_network

RESULTS_SCHEMA_VERSION = 1
NET_BLOCK_SUBFRAMES = 250

EXPERIMENTS = (
    "cell_outage",
    "cell_throughput",
    "cell_complexity",
    "net_budget_sweep",
    "net_density_sweep",
    "policy_tables",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SCHEMA = 4


class ConfigError(ValueError):
    """Invalid experiment configuration; carries field-level diagnostics."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class SchemaError(ValueError):
    """Result files missing or with an unsupported schema."""


DEFAULT_CONFIG = {
    "schema_version": RESULTS_SCHEMA_VERSION,
    "seed": 1,
    "output_dir": "results",
    "calibration_file": None,
    "eps_hat": 0.1,
    "low_snr_fallback": True,
    "subframe_s": SUBFRAME_S,
    "cell": {
        "snr_grid_db": {"start": -20.0, "stop": 40.0, "step": 2.0},
        "policies": ["MRS", "CAS"],
        "c_max_mbit_iter_s": [None, 50.0],
        "n_trials": 100000,
    },
    "network": {
        "layout_csv": None,
        "synthesize": {
            "n_total": 129,
            "n_cloud": 8,
            "region_km": [0.0, 0.0, 20.0, 20.0],
            "min_sep_km": 1.3,
            "layout_seed": 4242,
        },
        "channel": {
            "alpha": 3.7,
            "s": 0.1,
            "snr_ref_db": 20.0,
            "ue_density_per_km2": 0.1,
            "max_interference_km": None,
        },
        "modes": ["LP", "CP"],
        "policies": ["MRS", "CAS"],
        "budget_grid_mbit_iter_s": {"start": 0.0, "stop": 100.0, "step": 4.0,
                                    "include_unconstrained": True},
        "density_grid_per_km2": {"log_start": -2.0, "log_stop": 0.0, "num": 10},
        "c_max_mbit_iter_s": [None, 30.0],
        "n_subframes": 10000,
    },
}


def _merge_defaults(cfg, defaults):
    out = {}
    for key, base in defaults.items():
        if key in cfg and isinstance(base, dict) and isinstance(cfg[key], dict):
            out[key] = _merge_defaults(cfg[key], base)
        elif key in cfg:
            out[key] = cfg[key]
        else:
            out[key] = base
    for key in cfg:
        if key not in out:
            out[key] = cfg[key]
    return out


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be an object"])
    return _merge_defaults(raw, DEFAULT_CONFIG)


def resolve_grid(spec, field, errors, log_grid=False):
    """A grid is an explicit list or a {start, stop, step} / log-grid spec."""
    if isinstance(spec, list):
        if not spec:
            errors.append(f"{field}: grid must be nonempty")
        return [None if v is None else float(v) for v in spec]
    if isinstance(spec, dict):
        try:
            if log_grid and "num" in spec:
                values = np.logspace(
                    float(spec["log_start"]), float(spec["log_stop"]), int(spec["num"])
                ).tolist()
            else:
                start, stop, step = (
                    float(spec["start"]), float(spec["stop"]), float(spec["step"]))
                if step <= 0 or stop < start:
                    errors.append(f"{field}: bad range")
                    return []
                n = int(math.floor((stop - start) / step + 1e-9)) + 1
                values = [start + step * k for k in range(n)]
            if spec.get("include_unconstrained"):
                values = values + [None]
            return values
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"{field}: {exc}")
            return []
    errors.append(f"{field}: must be a list or a range object")
    return []


def _section(parent, key, field, errors):
    """``parent[key]`` when it is an object (missing counts as empty), else None."""
    value = parent.get(key, {})
    if isinstance(value, dict):
        return value
    errors.append(f"{field}: must be an object")
    return None


def validate_config(cfg):
    """Field-level checks; returns the list of problems (empty when valid).

    Network configs also build their layout here (cached for the run), so
    a layout that cannot be built is reported before any worker starts.
    """
    cfg = _merge_defaults(cfg, DEFAULT_CONFIG)
    errors = []
    exp = cfg.get("experiment")
    if exp not in EXPERIMENTS:
        errors.append(f"experiment: must be one of {', '.join(EXPERIMENTS)}")
    if not isinstance(cfg.get("seed"), int) or cfg["seed"] < 0:
        errors.append("seed: must be a nonnegative integer")
    if not 0.0 < cfg.get("eps_hat", 0.1) <= 1.0:
        errors.append("eps_hat: must lie in (0, 1]")
    if not cfg.get("subframe_s", SUBFRAME_S) > 0:
        errors.append("subframe_s: must be positive")
    calib = cfg.get("calibration_file")
    if calib is not None and not Path(calib).exists():
        errors.append(f"calibration_file: {calib} does not exist")

    cell = _section(cfg, "cell", "cell", errors)
    if cell is not None and exp in ("cell_outage", "cell_throughput", "cell_complexity"):
        resolve_grid(cell.get("snr_grid_db"), "cell.snr_grid_db", errors)
        if not isinstance(cell.get("n_trials"), int) or cell["n_trials"] < 1:
            errors.append("cell.n_trials: must be a positive integer")
        for p in cell.get("policies", []):
            if p not in ("MRS", "CAS"):
                errors.append(f"cell.policies: unknown policy {p}")
        for c in cell.get("c_max_mbit_iter_s", []):
            if c is not None and not c > 0:
                errors.append("cell.c_max_mbit_iter_s: entries must be positive or null")

    net = _section(cfg, "network", "network", errors)
    if net is not None and exp in ("net_budget_sweep", "net_density_sweep"):
        if not isinstance(net.get("n_subframes"), int) or net["n_subframes"] < 1:
            errors.append("network.n_subframes: must be a positive integer")
        for p in net.get("policies", []):
            if p not in ("MRS", "CAS"):
                errors.append(f"network.policies: unknown policy {p}")
        for m in net.get("modes", []):
            if m not in ("LP", "CP"):
                errors.append(f"network.modes: unknown mode {m}")
        layout_csv = net.get("layout_csv")
        csv_found = layout_csv is None or Path(layout_csv).exists()
        if not csv_found:
            errors.append(f"network.layout_csv: {layout_csv} does not exist")
        synth = _section(net, "synthesize", "network.synthesize", errors)
        if synth is not None:
            n_total, n_cloud = synth.get("n_total"), synth.get("n_cloud")
            if not (isinstance(n_total, int) and n_total >= 2):
                errors.append("network.synthesize.n_total: must be an integer >= 2")
            elif not (isinstance(n_cloud, int) and 1 <= n_cloud <= n_total):
                errors.append(f"network.synthesize.n_cloud: must be an integer in "
                              f"1..{n_total} (n_total)")
            elif csv_found:
                layout_field = ("network.synthesize" if layout_csv is None
                                else "network.layout_csv")
                try:
                    if not _layout(*_layout_args(net)).n_cloud:
                        errors.append(f"{layout_field}: no RAP is in the cloud group")
                except (TypeError, ValueError) as exc:
                    errors.append(f"{layout_field}: {exc}")
        ch = _section(net, "channel", "network.channel", errors) or {}
        if not ch.get("alpha", 3.7) > 2:
            errors.append("network.channel.alpha: must exceed 2")
        if not 0.0 <= ch.get("s", 0.1) <= 1.0:
            errors.append("network.channel.s: must lie in [0, 1]")
        if not ch.get("ue_density_per_km2", 0.1) >= 0:
            errors.append("network.channel.ue_density_per_km2: must be >= 0")
        if exp == "net_budget_sweep":
            budget_field = "network.budget_grid_mbit_iter_s"
            budgets = resolve_grid(net.get("budget_grid_mbit_iter_s"), budget_field, errors)
        else:
            grid = resolve_grid(net.get("density_grid_per_km2"),
                                "network.density_grid_per_km2", errors, log_grid=True)
            if any(v is None or v < 0 for v in grid):
                errors.append("network.density_grid_per_km2: densities must be >= 0")
            budget_field = "network.c_max_mbit_iter_s"
            budgets = resolve_grid(net.get("c_max_mbit_iter_s"), budget_field, errors)
        if any(c is not None and c < 0 for c in budgets):
            errors.append(f"{budget_field}: budgets must be >= 0 or null")
    return errors


# ---------------------------------------------------------------------------
# model construction (cached per process for worker reuse)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _models(calibration_file, eps_hat):
    curves = load_calibration(calibration_file)
    tables = build_policy_tables(curves, eps_hat)
    return curves, tables


def _layout_args(net):
    """``(layout_csv, synth_spec, region)``: the hashable arguments of ``_layout``."""
    synth = net["synthesize"]
    synth_spec = (int(synth["n_total"]), int(synth["n_cloud"]),
                  float(synth["min_sep_km"]), int(synth["layout_seed"]))
    return net["layout_csv"], synth_spec, tuple(float(v) for v in synth["region_km"])


@lru_cache(maxsize=8)
def _layout(layout_csv, synth_spec, region):
    if layout_csv is not None:
        return load_layout_csv(layout_csv, region)
    n_total, n_cloud, min_sep, layout_seed = synth_spec
    rng = substream(layout_seed, "layout", 0)
    return synthesize_layout(
        rng, n_total=n_total, region=region, min_sep_km=min_sep, n_cloud=n_cloud
    )


def _mbit(value):
    return math.inf if value is None else float(value) * 1e6


def _cell_point_task(args):
    (gi, snr_db, calib, eps_hat, policies, c_values, n_trials, seed,
     subframe_s, fallback) = args
    curves, tables = _models(calib, eps_hat)
    res = sweep_cell(
        [snr_db], tables, curves, n_trials, seed,
        c_max_values=tuple(_mbit(c) for c in c_values),
        policies=tuple(policies), subframe_s=subframe_s,
        low_snr_fallback=fallback,
        rng_factory=lambda _gi: substream(seed, "cell", gi),
    )
    return gi, [rec for recs in res.values() for rec in recs]


def _net_block_task(args):
    (block_idx, t0, t1, calib, eps_hat, layout_csv, synth_spec, region,
     channel_kwargs, densities, budgets, modes, policies, seed, subframe_s,
     fallback) = args
    curves, tables = _models(calib, eps_hat)
    layout = _layout(layout_csv, synth_spec, region)
    params = ChannelParams(**channel_kwargs)
    acc = sweep_network(
        layout, params, curves, tables,
        subframes=range(t0, t1), seed=seed,
        density_grid=densities,
        budget_grid=tuple(_mbit(c) for c in budgets),
        modes=tuple(modes), policies=tuple(policies),
        subframe_s=subframe_s, low_snr_fallback=fallback,
    )
    return block_idx, acc


def _run_tasks(task_fn, tasks, workers):
    if workers <= 1:
        results = [task_fn(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task_fn, tasks))
    return sorted(results, key=lambda pair: pair[0])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, float):
        if math.isinf(value):
            return None
        return value
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _record_dicts(records):
    out = []
    for rec in records:
        d = {}
        for key, value in rec.__dict__.items():
            d[key] = _jsonable(value)
        out.append(d)
    return out


def _csv_cell(value):
    if value is None:
        return "inf"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(repr(float(v)) for v in value)
    return str(value)


def _semantic_config(cfg):
    """The config without its output location (which does not affect results)."""
    return {k: v for k, v in cfg.items() if k != "output_dir"}


def _write_results(out_dir, experiment, cfg, record_dicts):
    payload = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "artifact_version": __version__,
        "experiment": experiment,
        "config": _semantic_config(cfg),
        "records": record_dicts,
    }
    json_path = out_dir / "results.json"
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    csv_path = out_dir / "results.csv"
    if record_dicts:
        fields = ["schema_version"] + list(record_dicts[0].keys())
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for d in record_dicts:
                writer.writerow([RESULTS_SCHEMA_VERSION]
                                + [_csv_cell(d[k]) for k in list(d.keys())])
    return [json_path, csv_path]


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _calibration_sha(calibration_file):
    if calibration_file is None:
        data = (
            resources.files("cransim.data")
            .joinpath("default_calibration.json")
            .read_bytes()
        )
        return hashlib.sha256(data).hexdigest()
    return _sha256(calibration_file)


def run(cfg, workers=1):
    """Run the configured experiment; returns the manifest dict.

    Raises ConfigError for invalid configs and OSError for I/O failures.
    """
    cfg = _merge_defaults(cfg, DEFAULT_CONFIG)
    errors = validate_config(cfg)
    if errors:
        raise ConfigError(errors)
    t_start = time.time()
    experiment = cfg["experiment"]
    out_dir = Path(os.environ.get("CRANSIM_OUTPUT_DIR", cfg["output_dir"]))
    out_dir.mkdir(parents=True, exist_ok=True)
    calib = cfg["calibration_file"]
    eps_hat = float(cfg["eps_hat"])
    seed = int(cfg["seed"])
    subframe_s = float(cfg["subframe_s"])
    fallback = bool(cfg["low_snr_fallback"])
    outputs = []

    if experiment in ("cell_outage", "cell_throughput", "cell_complexity"):
        cell = cfg["cell"]
        grid = resolve_grid(cell["snr_grid_db"], "cell.snr_grid_db", [])
        tasks = [
            (gi, snr, calib, eps_hat, tuple(cell["policies"]),
             tuple(cell["c_max_mbit_iter_s"]), int(cell["n_trials"]), seed,
             subframe_s, fallback)
            for gi, snr in enumerate(grid)
        ]
        results = _run_tasks(_cell_point_task, tasks, workers)
        records = [rec for _, recs in results for rec in recs]
        records.sort(key=lambda r: (r.policy, r.c_max_bit_iter_s, r.snr_db))
        outputs += _write_results(out_dir, experiment, cfg, _record_dicts(records))

    elif experiment in ("net_budget_sweep", "net_density_sweep"):
        net = cfg["network"]
        channel_kwargs = dict(net["channel"])
        if experiment == "net_budget_sweep":
            budgets = resolve_grid(net["budget_grid_mbit_iter_s"], "grid", [])
            densities = (float(channel_kwargs["ue_density_per_km2"]),)
            modes = tuple(net["modes"])
        else:
            budgets = resolve_grid(net["c_max_mbit_iter_s"], "grid", [])
            densities = tuple(
                float(v) for v in resolve_grid(
                    net["density_grid_per_km2"], "grid", [], log_grid=True)
            )
            modes = ("CP",) if "CP" in net["modes"] else tuple(net["modes"])
        n_subframes = int(net["n_subframes"])
        blocks = []
        for t0 in range(0, n_subframes, NET_BLOCK_SUBFRAMES):
            blocks.append((t0, min(t0 + NET_BLOCK_SUBFRAMES, n_subframes)))
        tasks = [
            (bi, t0, t1, calib, eps_hat, *_layout_args(net), channel_kwargs,
             densities, tuple(budgets), modes, tuple(net["policies"]), seed,
             subframe_s, fallback)
            for bi, (t0, t1) in enumerate(blocks)
        ]
        results = _run_tasks(_net_block_task, tasks, workers)
        acc = merge_accumulators([a for _, a in results])
        records = finalize_records(acc, n_subframes, subframe_s)
        outputs += _write_results(out_dir, experiment, cfg, _record_dicts(records))

    else:  # policy_tables
        curves, tables = _models(calib, eps_hat)
        from .policy import snr_margin

        record_dicts = []
        for name, table in sorted(tables.items()):
            path = out_dir / f"policy_{name.lower()}.csv"
            table.to_csv(path)
            outputs.append(path)
            for m, thr in enumerate(table.thresholds_db):
                record_dicts.append(
                    {"policy": name, "mcs_index": m, "threshold_db": thr,
                     "iteration_budget": table.iteration_budget}
                )
        margins = snr_margin(tables["CAS"], tables["MRS"])
        margins_path = out_dir / "margins.json"
        with open(margins_path, "w") as fh:
            json.dump(
                {"schema_version": RESULTS_SCHEMA_VERSION,
                 "margins_db": list(margins.margins_db)},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        outputs.append(margins_path)
        outputs += _write_results(out_dir, experiment, cfg, record_dicts)

    manifest = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "artifact_version": __version__,
        "experiment": experiment,
        "config_sha256": hashlib.sha256(
            json.dumps(_semantic_config(cfg), sort_keys=True).encode()
        ).hexdigest(),
        "calibration_sha256": _calibration_sha(calib),
        "wall_clock_s": round(time.time() - t_start, 3),
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


# ---------------------------------------------------------------------------
# plot-data emission
# ---------------------------------------------------------------------------

_POLICY_BUDGET = ("policy", "c_max_bit_iter_s")

# experiment -> (x field, y field, half-width field or None for exact values,
# series sort-key fields, series label fields)
_PLOT_SERIES = {
    "cell_outage": ("snr_db", "eps", "eps_hw", _POLICY_BUDGET, _POLICY_BUDGET),
    "cell_throughput": ("snr_db", "t_eff_bps", "t_eff_hw_bps",
                        _POLICY_BUDGET, _POLICY_BUDGET),
    "cell_complexity": ("snr_db", "effort_per_success_bit_iter_s",
                        "effort_per_success_hw", _POLICY_BUDGET, _POLICY_BUDGET),
    "net_budget_sweep": ("c_max_bit_iter_s", "sum_throughput_bps",
                         "sum_throughput_hw_bps", ("mode", "policy"),
                         ("policy", "mode")),
    "net_density_sweep": ("ue_density_per_km2", "sum_throughput_bps",
                          "sum_throughput_hw_bps", _POLICY_BUDGET, _POLICY_BUDGET),
    "policy_tables": ("mcs_index", "threshold_db", None, ("policy",), ("policy",)),
}


def _plot_value(rec, field):
    """A record field as plotted: budgets in Mbit-iter/s, null budget = inf."""
    value = rec[field]
    if field == "c_max_bit_iter_s":
        return math.inf if value is None else value / 1e6
    return value


def _label_part(rec, field):
    if field != "c_max_bit_iter_s":
        return rec[field]
    c_mbit = _plot_value(rec, field)
    return "cmax_inf" if math.isinf(c_mbit) else f"cmax_{c_mbit:g}M"


def emit_plot_data(in_dir, out_dir):
    """Reshape results.json into per-series (x, y, ci_low, ci_high) files.

    Returns the list of files written; raises SchemaError when the results
    are missing or carry an unsupported schema.
    """
    in_dir = Path(in_dir)
    results_path = in_dir / "results.json"
    if not results_path.exists():
        raise SchemaError(f"no results.json under {in_dir}")
    with open(results_path) as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != RESULTS_SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported results schema_version {payload.get('schema_version')}"
        )
    experiment = payload.get("experiment")
    if experiment not in EXPERIMENTS:
        raise SchemaError(f"unknown experiment {experiment!r} in results")
    records = payload.get("records", [])
    if not records:
        raise SchemaError("results contain no records")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    x_field, y_field, hw_field, key_fields, label_fields = _PLOT_SERIES[experiment]
    series = {}
    for rec in records:
        x = _plot_value(rec, x_field)
        if math.isinf(x):
            continue  # the unconstrained budget reference has no x position
        key = tuple(_plot_value(rec, f) for f in key_fields)
        label = "__".join([experiment] + [_label_part(rec, f) for f in label_fields])
        hw = 0.0 if hw_field is None else rec[hw_field]
        series.setdefault((key, label), []).append((x, rec[y_field], hw))
    return [
        _write_series(out_dir, label, sorted(rows))
        for (_, label), rows in sorted(series.items())
    ]


def _write_series(out_dir, label, rows):
    path = out_dir / f"{label}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema_version", "series", "x", "y", "ci_low", "ci_high"])
        for x, y, hw in rows:
            if y is None:
                y, hw = math.nan, 0.0
            writer.writerow([
                RESULTS_SCHEMA_VERSION, label, repr(float(x)), repr(float(y)),
                repr(float(y - hw)), repr(float(y + hw)),
            ])
    return path
