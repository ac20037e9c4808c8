"""Experiment orchestration: configuration, dispatch, result files.

Each experiment is described by a single JSON config.  Outputs are a
results.json + results.csv pair plus a manifest recording content hashes,
so re-running an identical config (at any worker count) reproduces the
result files byte for byte.  Substreams are derived per grid point and per
subframe, never per worker; parallelism only changes wall-clock time.
"""

from __future__ import annotations

import csv
import difflib
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from importlib import resources
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .cell import sweep_cell
from .geometry import ChannelParams, load_layout_csv, synthesize_layout
from .link import SUBFRAME_S, load_calibration
from .policy import ConfigurationError, build_policy_tables, snr_margin
from .rng import substream
from .scheduling import finalize_records, merge_accumulators, sweep_network

RESULTS_SCHEMA_VERSION = 1
NET_BLOCK_SUBFRAMES = 250
MAX_GRID_POINTS = 10000

EXPERIMENTS = (
    "cell_outage",
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


# The config schema: these keys are the only ones accepted, and each leaf
# has one rule in _RULES.
DEFAULT_CONFIG = {
    "schema_version": RESULTS_SCHEMA_VERSION,
    "experiment": None,
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
        "synthesize": {"n_total": 129, "n_cloud": 8, "region_km": [0.0, 0.0, 20.0, 20.0],
                       "min_sep_km": 1.3, "layout_seed": 4242},
        "channel": {"alpha": 3.7, "s": 0.1, "snr_ref_db": 20.0,
                    "ue_density_per_km2": 0.1, "max_interference_km": None},
        "modes": ["LP", "CP"],
        "policies": ["MRS", "CAS"],
        "budget_grid_mbit_iter_s": {"start": 0.0, "stop": 100.0, "step": 4.0,
                                    "include_unconstrained": True},
        "density_grid_per_km2": {"log_start": -2.0, "log_stop": 0.0, "num": 10},
        "c_max_mbit_iter_s": [None, 30.0],
        "n_subframes": 10000,
    },
}


def _merge_defaults(cfg, defaults, path=""):
    """``cfg`` over ``defaults``: sections merge key by key, a leaf (a grid
    too) replaces its default whole, and anything else is kept for ``_flatten``."""
    out = dict(cfg)
    for key, base in defaults.items():
        if path + key in _RULES:
            out.setdefault(key, base)
        elif isinstance(out.get(key, {}), dict):
            out[key] = _merge_defaults(out.get(key, {}), base, f"{path}{key}.")
    return out


def load_config(path):
    """The config file merged over ``DEFAULT_CONFIG``; ``_resolve`` checks it."""
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


def _num(value):
    """A JSON number (not a bool) well inside the float range."""
    return type(value) in (int, float) and abs(value) < 1e300


def _unknown_key(field, key, known):
    hint = difflib.get_close_matches(key, list(known), n=1)
    return f"{field}: unknown key" + (f" (did you mean {hint[0]!r}?)" if hint else "")


def resolve_grid(spec, field, errors):
    """A grid: a nonempty list of numbers and nulls, or a {start, stop, step}
    or {log_start, log_stop, num} object that may add "include_unconstrained":
    true.  Every value must be a number well inside the float range, as list
    entries are.  Problems go to ``errors``, and the grid is then empty."""
    if isinstance(spec, list) and spec and all(v is None or _num(v) for v in spec):
        return [None if v is None else float(v) for v in spec]
    obj = spec if isinstance(spec, dict) else {}
    log = "num" in obj
    keys = ("log_start", "log_stop", "num") if log else ("start", "stop", "step")
    known = keys + ("include_unconstrained",)
    unknown = [_unknown_key(f"{field}.{k}", k, known) for k in obj if k not in known]
    a, b, c = map(obj.get, keys)
    if log:
        ok = _num(a) and _num(b) and type(c) is int and 1 <= c <= MAX_GRID_POINTS
    else:
        ok = all(map(_num, (a, b, c))) and c > 0 and 0 <= (b - a) / c < MAX_GRID_POINTS
    if unknown or not ok or type(obj.get("include_unconstrained", False)) is not bool:
        errors.extend(unknown or [
            f"{field}: must be a nonempty list of numbers and nulls, or an object of "
            f"numbers {', '.join(keys)} ({keys[2]} > 0, at most {MAX_GRID_POINTS} points)"])
        return []
    if log:
        with np.errstate(over="ignore"):
            values = np.logspace(float(a), float(b), c).tolist()
    else:
        start, stop, step = float(a), float(b), float(c)
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        values = [start + step * k for k in range(n)]
    if not all(map(_num, values)):
        errors.append(f"{field}: resolves to values that are not finite numbers "
                      "below 1e300 in magnitude")
        return []
    return values + [None] if spec.get("include_unconstrained") else values


def _rule(kind, ok, message):
    """A leaf of type ``kind`` (float: any number, resolved to a float; None:
    any JSON value) that passes ``ok`` (None: no further condition), else the
    error ``<field>: <message>``."""
    def rule(value, field, errors, got):
        typed = kind is None or type(value) is kind or kind is float and _num(value)
        if typed and (ok is None or ok(value)):
            return value if kind is None else kind(value)
        errors.append(f"{field}: {message}")
    return rule


def _choices(allowed, noun):
    """A nonempty list drawn from ``allowed``, resolved to a tuple."""
    def rule(value, field, errors, got):
        if not (isinstance(value, list) and value):
            errors.append(f"{field}: must be a nonempty list of {', '.join(allowed)}")
            return ()
        errors.extend(f"{field}: unknown {noun} {v}" for v in value if v not in allowed)
        return tuple(value)
    return rule


def _mbit(value):
    return math.inf if value is None else value * 1e6


def _grid(ok, message, convert=None):
    """A grid (see ``resolve_grid``) whose values all pass ``ok``, as a tuple."""
    def rule(value, field, errors, got):
        values = resolve_grid(value, field, errors)
        if not all(map(ok, values)):
            errors.append(f"{field}: {message}")
        return tuple(values if convert is None else map(convert, values))
    return rule


def _n_cloud(value, field, errors, got):
    n_total = got["network.synthesize.n_total"]  # None when itself invalid
    if n_total is not None and not (type(value) is int and 1 <= value <= n_total):
        errors.append(f"{field}: must be an integer in 1..{n_total} (n_total)")
    return value


def _db(value):
    """A dB value whose linear power 10^(value/10) is a finite positive float."""
    try:
        return 0.0 < 10.0 ** (value / 10.0) < math.inf
    except OverflowError:
        return False


_DB_MESSAGE = "whose linear power 10^(x/10) is a finite positive float"


def _path(value):
    return value is None or isinstance(value, str) and os.path.isfile(value)


# budget grids resolve to bit-iterations/s, with inf for null (unconstrained)
_BUDGETS = _grid(lambda v: v is None or v >= 0, "budgets must be >= 0 or null", _mbit)
_NONNEGATIVE = _rule(int, lambda v: v >= 0, "must be a nonnegative integer")

# One rule per leaf of DEFAULT_CONFIG, checked in this order.
_RULES = {
    "experiment": _rule(None, lambda v: v in EXPERIMENTS,
                        f"must be one of {', '.join(EXPERIMENTS)}"),
    "schema_version": _rule(int, lambda v: v == RESULTS_SCHEMA_VERSION,
                            f"must be {RESULTS_SCHEMA_VERSION}"),
    "seed": _NONNEGATIVE,
    "output_dir": _rule(str, None, "must be a string"),
    "calibration_file": _rule(None, _path, "must be null or an existing file"),
    "eps_hat": _rule(float, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "low_snr_fallback": _rule(bool, None, "must be true or false"),
    "subframe_s": _rule(float, lambda v: v > 0, "must be positive"),
    "cell.snr_grid_db": _grid(lambda v: v is not None and _db(v),
                              f"entries must be numbers {_DB_MESSAGE}"),
    "cell.n_trials": _rule(int, lambda v: v >= 1, "must be a positive integer"),
    "cell.policies": _choices(("MRS", "CAS"), "policy"),
    "cell.c_max_mbit_iter_s": _grid(lambda v: v is None or v > 0,
                                    "entries must be positive or null", _mbit),
    "network.n_subframes": _rule(int, lambda v: v >= 1, "must be a positive integer"),
    "network.policies": _choices(("MRS", "CAS"), "policy"),
    "network.modes": _choices(("LP", "CP"), "mode"),
    "network.layout_csv": _rule(None, _path, "must be null or an existing file"),
    "network.synthesize.n_total": _rule(int, lambda v: v >= 2, "must be an integer >= 2"),
    "network.synthesize.n_cloud": _n_cloud,
    "network.synthesize.region_km": _rule(
        None, lambda v: isinstance(v, list) and len(v) == 4 and all(map(_num, v)),
        "must be [xmin, ymin, xmax, ymax]"),
    "network.synthesize.min_sep_km": _rule(float, lambda v: v >= 0, "must be >= 0"),
    "network.synthesize.layout_seed": _NONNEGATIVE,
    "network.channel.alpha": _rule(float, lambda v: v > 2, "must exceed 2"),
    "network.channel.s": _rule(float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "network.channel.snr_ref_db": _rule(float, _db, f"must be a number {_DB_MESSAGE}"),
    "network.channel.ue_density_per_km2": _rule(float, lambda v: v >= 0, "must be >= 0"),
    "network.channel.max_interference_km": _rule(
        None, lambda v: v is None or _num(v) and v > 0, "must be positive or null"),
    "network.budget_grid_mbit_iter_s": _BUDGETS,
    "network.density_grid_per_km2": _grid(lambda v: v is not None and v >= 0,
                                          "densities must be >= 0"),
    "network.c_max_mbit_iter_s": _BUDGETS,
}


def _flatten(cfg, schema, errors, path=""):
    """The leaves of a merged config by dotted field; reports unknown keys
    and non-object sections (whose leaves are then left out)."""
    leaves = {}
    for key, value in cfg.items():
        field = path + key
        if key not in schema:
            errors.append(_unknown_key(field, key, schema))
        elif field in _RULES:
            leaves[field] = value
        elif isinstance(value, dict):
            leaves.update(_flatten(value, schema[key], errors, field + "."))
        else:
            errors.append(f"{field}: must be an object")
    return leaves


@dataclass(frozen=True)
class Plan:
    """A checked config, resolved into what ``run`` and its workers execute."""

    config: dict                 # the merged config less output_dir: what results record
    output_dir: str
    experiment: str
    seed: int
    calibration_file: str | None
    eps_hat: float
    subframe_s: float
    low_snr_fallback: bool
    policies: tuple = ()
    budgets: tuple = ()          # bit-iterations/s; inf = unconstrained
    snr_grid_db: tuple = ()      # the cell experiment
    n_trials: int = 0
    layout: tuple = ()           # network experiments: the arguments of _layout
    channel: ChannelParams = None
    densities: tuple = ()
    modes: tuple = ()
    n_subframes: int = 0


def _resolve(cfg):
    """Check ``cfg`` once: ``(plan, [])``, or ``(None, errors)`` by field.
    The (cached) models, and the layout of a network config, are built here
    too, so a calibration or layout that cannot be built is reported before
    any worker starts."""
    cfg = _merge_defaults(cfg, DEFAULT_CONFIG)
    errors, got = [], {}
    leaves = _flatten(cfg, DEFAULT_CONFIG, errors)
    for field, rule in _RULES.items():
        if field in leaves:
            got[field] = rule(leaves[field], field, errors, got)
    if errors:
        return None, errors
    exp = got["experiment"]
    plan = Plan(config={k: v for k, v in cfg.items() if k != "output_dir"},
                **{k: v for k, v in got.items() if "." not in k and k != "schema_version"})
    try:
        _models(plan.calibration_file, plan.eps_hat)
    except ConfigurationError as exc:  # no policy table meets eps_hat
        return None, [f"eps_hat: {exc}"]
    except (OSError, ValueError) as exc:
        return None, [f"calibration_file: {exc}"]
    if exp == "cell_outage":
        return replace(plan, policies=got["cell.policies"], n_trials=got["cell.n_trials"],
                       budgets=got["cell.c_max_mbit_iter_s"],
                       snr_grid_db=got["cell.snr_grid_db"]), []
    if not exp.startswith("net_"):
        return plan, []
    net = {k.removeprefix("network."): v for k, v in got.items()}
    channel = ChannelParams(**{k: net["channel." + k]
                               for k in DEFAULT_CONFIG["network"]["channel"]})
    net["synthesize.region_km"] = tuple(map(float, net["synthesize.region_km"]))
    layout = (net["layout_csv"], *(net["synthesize." + k]
                                   for k in DEFAULT_CONFIG["network"]["synthesize"]))
    layout_field = "network.synthesize" if layout[0] is None else "network.layout_csv"
    try:
        if not _layout(*layout).n_cloud:
            return None, [f"{layout_field}: no RAP is in the cloud group"]
    except (ValueError, csv.Error) as exc:
        return None, [f"{layout_field}: {exc}"]
    if exp == "net_budget_sweep":
        budgets, densities = net["budget_grid_mbit_iter_s"], (channel.ue_density_per_km2,)
    else:
        budgets, densities = net["c_max_mbit_iter_s"], net["density_grid_per_km2"]
    return replace(plan, policies=net["policies"], budgets=budgets, layout=layout,
                   channel=channel, densities=densities, modes=net["modes"],
                   n_subframes=net["n_subframes"]), []


def validate_config(cfg):
    """Field-level problems of ``cfg`` (empty when valid)."""
    return _resolve(cfg)[1]


# ---------------------------------------------------------------------------
# model construction (cached per process for worker reuse)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _models(calibration_file, eps_hat):
    curves = load_calibration(calibration_file)
    tables = build_policy_tables(curves, eps_hat)
    return curves, tables


@lru_cache(maxsize=8)
def _layout(layout_csv, n_total, n_cloud, region_km, min_sep_km, layout_seed):
    if layout_csv is not None:
        return load_layout_csv(layout_csv, region_km)
    return synthesize_layout(substream(layout_seed, "layout", 0), n_total=n_total,
                             region=region_km, min_sep_km=min_sep_km, n_cloud=n_cloud)


def _cell_point_task(plan, gi):
    curves, tables = _models(plan.calibration_file, plan.eps_hat)
    res = sweep_cell(
        plan.snr_grid_db, tables, curves, plan.n_trials, plan.seed,
        c_max_values=plan.budgets, policies=plan.policies,
        subframe_s=plan.subframe_s, low_snr_fallback=plan.low_snr_fallback,
        grid_indices=(gi,),
    )
    return [rec for recs in res.values() for rec in recs]


def _net_block_task(plan, block):
    density_index, subframes = block
    curves, tables = _models(plan.calibration_file, plan.eps_hat)
    return sweep_network(
        _layout(*plan.layout), plan.channel, curves, tables,
        subframes=subframes, seed=plan.seed, density_grid=plan.densities,
        density_indices=(density_index,),
        budget_grid=plan.budgets, modes=plan.modes, policies=plan.policies,
        subframe_s=plan.subframe_s, low_snr_fallback=plan.low_snr_fallback,
    )


def _run_tasks(task_fn, plan, items, workers):
    """``[task_fn(plan, item) for item in items]``, on a pool when workers > 1."""
    task = partial(task_fn, plan)
    if workers <= 1:
        return [task(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, items))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, float):
        return None if math.isinf(value) else value
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _record_dicts(records):
    return [{k: _jsonable(v) for k, v in rec.__dict__.items()} for rec in records]


def _csv_cell(value):
    if value is None:
        return "inf"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(repr(float(v)) for v in value)
    return str(value)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_results(out_dir, plan, record_dicts):
    json_path = _write_json(out_dir / "results.json", {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "artifact_version": __version__,
        "experiment": plan.experiment,
        "config": plan.config,
        "records": record_dicts,
    })
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
        data = resources.files("cransim.data").joinpath("default_calibration.json")
        return hashlib.sha256(data.read_bytes()).hexdigest()
    return _sha256(calibration_file)


def run(cfg, workers=1):
    """Run the configured experiment; returns the manifest dict.

    Raises ConfigError for invalid configs and OSError for I/O failures.
    """
    plan, errors = _resolve(cfg)
    if errors:
        raise ConfigError(errors)
    t_start = time.time()
    experiment = plan.experiment
    out_dir = Path(os.environ.get("CRANSIM_OUTPUT_DIR", plan.output_dir))
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []

    if experiment == "cell_outage":
        results = _run_tasks(_cell_point_task, plan, range(len(plan.snr_grid_db)), workers)
        record_dicts = _record_dicts(sorted(
            (rec for recs in results for rec in recs),
            key=lambda r: (r.policy, r.c_max_bit_iter_s, r.snr_db)))

    elif experiment.startswith("net_"):
        # one task per (density, block), in that order, so that merging
        # folds each density's sums in block order
        n = plan.n_subframes
        blocks = [(di, range(t0, min(t0 + NET_BLOCK_SUBFRAMES, n)))
                  for di in range(len(dict.fromkeys(plan.densities)))
                  for t0 in range(0, n, NET_BLOCK_SUBFRAMES)]
        acc = merge_accumulators(_run_tasks(_net_block_task, plan, blocks, workers))
        record_dicts = _record_dicts(finalize_records(acc, n, plan.subframe_s))

    else:  # policy_tables
        curves, tables = _models(plan.calibration_file, plan.eps_hat)
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
        margins = {"schema_version": RESULTS_SCHEMA_VERSION,
                   "margins_db": list(snr_margin(tables["CAS"], tables["MRS"]))}
        outputs.append(_write_json(out_dir / "margins.json", margins))
    outputs += _write_results(out_dir, plan, record_dicts)

    manifest = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "artifact_version": __version__,
        "experiment": experiment,
        "config_sha256": hashlib.sha256(
            json.dumps(plan.config, sort_keys=True).encode()
        ).hexdigest(),
        "calibration_sha256": _calibration_sha(plan.calibration_file),
        "numeric_stack": {"numpy": np.__version__, "scipy": scipy.__version__},
        "wall_clock_s": round(time.time() - t_start, 3),
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    _write_json(out_dir / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# plot-data emission
# ---------------------------------------------------------------------------

_POLICY_BUDGET = ("policy", "c_max_bit_iter_s")

# experiment -> series specs: (file-name prefix, x field, y field, half-width
# field or None for exact values, series sort-key fields, series label
# fields); the single-cell sweep feeds the outage, throughput and complexity figures
_PLOT_SERIES = {
    "cell_outage": (
        ("cell_outage", "snr_db", "eps", "eps_hw", _POLICY_BUDGET, _POLICY_BUDGET),
        ("cell_throughput", "snr_db", "t_eff_bps", "t_eff_hw_bps", _POLICY_BUDGET, _POLICY_BUDGET),
        ("cell_complexity", "snr_db", "effort_per_success_bit_iter_s", "effort_per_success_hw",
         _POLICY_BUDGET, _POLICY_BUDGET),
    ),
    "net_budget_sweep": (("net_budget_sweep", "c_max_bit_iter_s", "sum_throughput_bps",
                          "sum_throughput_hw_bps", ("mode", "policy"), ("policy", "mode")),),
    "net_density_sweep": (("net_density_sweep", "ue_density_per_km2", "sum_throughput_bps",
                           "sum_throughput_hw_bps", ("mode",) + _POLICY_BUDGET,
                           ("policy", "mode", "c_max_bit_iter_s")),),
    "policy_tables": (("policy_tables", "mcs_index", "threshold_db", None,
                       ("policy",), ("policy",)),),
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

    written = []
    for prefix, x_field, y_field, hw_field, key_fields, label_fields in _PLOT_SERIES[experiment]:
        series = {}
        for rec in records:
            x = _plot_value(rec, x_field)
            if math.isinf(x):
                continue  # the unconstrained budget reference has no x position
            key = tuple(_plot_value(rec, f) for f in key_fields)
            label = "__".join([prefix] + [_label_part(rec, f) for f in label_fields])
            hw = 0.0 if hw_field is None else rec[hw_field]
            series.setdefault((key, label), []).append((x, rec[y_field], hw))
        written += [_write_series(out_dir, label, sorted(rows))
                    for (_, label), rows in sorted(series.items())]
    return written


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
