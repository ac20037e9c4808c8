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

from . import __version__
from .cell import sweep_cell
from .geometry import ChannelParams, load_layout_csv, synthesize_layout
from .link import load_calibration
from .policy import ConfigurationError, build_policy_tables, snr_margin
from .rng import substream
from .scheduling import finalize_records, merge_accumulators, sweep_network

RESULTS_SCHEMA_VERSION = 1
NET_BLOCK_SUBFRAMES = 250
MAX_GRID_POINTS = 10000

# experiment -> the one config section it reads (None: none)
EXPERIMENTS = {"cell_outage": "cell", "net_sweep": "network", "policy_tables": None}

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
        "channel": {"alpha": 3.7, "s": 0.1, "snr_ref_db": 20.0},
        "modes": ["LP", "CP"],
        "policies": ["MRS", "CAS"],
        "budget_grid_mbit_iter_s": {"start": 0.0, "stop": 100.0, "step": 4.0,
                                    "include_unconstrained": True},
        "density_grid_per_km2": {"log_start": -2.0, "log_stop": 0.0, "num": 10},
        "n_subframes": 10000,
    },
}
_SYNTHESIZE = DEFAULT_CONFIG["network"]["synthesize"]


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


def _known(experiment):
    """Whether ``experiment``, any JSON value, names an experiment."""
    return isinstance(experiment, str) and experiment in EXPERIMENTS


def _schema(cfg):
    """``DEFAULT_CONFIG`` less the sections that ``cfg``'s experiment does not
    read (all of them while the experiment is unknown), and less the keys of
    the layout synthesizer, all but ``region_km``, when a layout CSV is set."""
    exp = cfg.get("experiment")
    if not _known(exp):
        return DEFAULT_CONFIG
    schema = {k: v for k, v in DEFAULT_CONFIG.items()
              if not isinstance(v, dict) or k == EXPERIMENTS[exp]}
    net = cfg.get("network")
    if "network" in schema and isinstance(net, dict) and net.get("layout_csv") is not None:
        region = {"region_km": _SYNTHESIZE["region_km"]}   # read by the CSV loader too
        schema["network"] = dict(schema["network"], synthesize=region)
    return schema


def load_config(path):
    """The config file merged over its experiment's defaults; ``_resolve`` checks it."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError([f"config: invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be an object"])
    return _merge_defaults(raw, _schema(raw))


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
    """A nonempty list of distinct names drawn from ``allowed``, resolved to a tuple."""
    def rule(value, field, errors, got):
        if not (isinstance(value, list) and value):
            errors.append(f"{field}: must be a nonempty list of {', '.join(allowed)}")
            return ()
        unknown = [v for v in value if v not in allowed]
        errors.extend(f"{field}: unknown {noun} {v}" for v in unknown)
        if not unknown and len(set(value)) < len(value):
            errors.append(f"{field}: must not repeat a value")
        return tuple(value)
    return rule


def _mbit(value):
    return math.inf if value is None else value * 1e6


def _grid(ok, message, convert=None):
    """A grid (see ``resolve_grid``) of distinct values passing ``ok``, as a tuple."""
    def rule(value, field, errors, got):
        values = resolve_grid(value, field, errors)
        resolved = tuple(values if convert is None else map(convert, values))
        if not all(map(ok, values)):
            errors.append(f"{field}: {message}")
        elif len(set(resolved)) < len(resolved):
            errors.append(f"{field}: must not repeat a value")
        return resolved
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


_NONNEGATIVE = _rule(int, lambda v: v >= 0, "must be a nonnegative integer")

# One rule per leaf of DEFAULT_CONFIG, checked in this order.
_RULES = {
    "experiment": _rule(None, _known, f"must be one of {', '.join(EXPERIMENTS)}"),
    "schema_version": _rule(int, lambda v: v == RESULTS_SCHEMA_VERSION,
                            f"must be {RESULTS_SCHEMA_VERSION}"),
    "seed": _NONNEGATIVE,
    "output_dir": _rule(str, None, "must be a string"),
    "calibration_file": _rule(None, _path, "must be null or an existing file"),
    "eps_hat": _rule(float, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
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
    # resolved to bit-iterations/s, with inf for null (unconstrained)
    "network.budget_grid_mbit_iter_s": _grid(lambda v: v is None or v >= 0,
                                             "budgets must be >= 0 or null", _mbit),
    "network.density_grid_per_km2": _grid(lambda v: v is not None and v >= 0,
                                          "densities must be >= 0"),
}


def _flatten(cfg, schema, errors, path=""):
    """The leaves of a merged config by dotted field; reports unknown keys,
    unread sections and keys, and non-object sections (whose leaves are then
    left out)."""
    leaves = {}
    for key, value in cfg.items():
        field = path + key
        if not path and key in DEFAULT_CONFIG and key not in schema:
            errors.append(f"{key}: experiment {cfg['experiment']} reads no {key} section")
        elif path == "network.synthesize." and key in _SYNTHESIZE and key not in schema:
            errors.append(f"{field}: not read when network.layout_csv is set")
        elif key not in schema:
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
    schema = _schema(cfg)
    cfg = _merge_defaults(cfg, schema)
    errors, got = [], {}
    leaves = _flatten(cfg, schema, errors)
    for field, rule in _RULES.items():
        if field in leaves:
            got[field] = rule(leaves[field], field, errors, got)
    if errors:
        return None, errors
    plan = Plan(config={k: v for k, v in cfg.items() if k != "output_dir"},
                **{k: v for k, v in got.items() if "." not in k and k != "schema_version"})
    try:
        curves, _ = _models(plan.calibration_file, plan.eps_hat)
    except ConfigurationError as exc:  # no policy table meets eps_hat
        return None, [f"eps_hat: {exc}"]
    except (OSError, ValueError) as exc:
        return None, [f"calibration_file: {exc}"]
    section = EXPERIMENTS[plan.experiment]
    if section is None:
        return plan, []
    if section == "cell":
        plan = replace(plan, policies=got["cell.policies"], n_trials=got["cell.n_trials"],
                       budgets=got["cell.c_max_mbit_iter_s"],
                       snr_grid_db=got["cell.snr_grid_db"])
        # the largest term of the exact sums: a trial decoding each bit i_max times
        field, n, tbs_per_term = "cell.n_trials", plan.n_trials, curves.i_max
    else:
        net = {k.removeprefix("network."): v for k, v in got.items()}
        channel = ChannelParams(**{k: net["channel." + k]
                                   for k in DEFAULT_CONFIG["network"]["channel"]})
        net["synthesize.region_km"] = tuple(map(float, net["synthesize.region_km"]))
        layout = (net["layout_csv"], *(net.get("synthesize." + k) for k in _SYNTHESIZE))
        layout_field = "network.synthesize" if layout[0] is None else "network.layout_csv"
        try:
            n_cloud = _layout(*layout).n_cloud
        except (ValueError, csv.Error) as exc:
            return None, [f"{layout_field}: {exc}"]
        if not n_cloud:
            return None, [f"{layout_field}: no RAP is in the cloud group"]
        plan = replace(plan, policies=net["policies"], budgets=net["budget_grid_mbit_iter_s"],
                       layout=layout, channel=channel, densities=net["density_grid_per_km2"],
                       modes=net["modes"], n_subframes=net["n_subframes"])
        # or a subframe delivering a TB in every cloud cell
        field, n, tbs_per_term = "network.n_subframes", plan.n_subframes, n_cloud
    peak = tbs_per_term * int(curves.tb_bits.max())
    # numpy's int64 sums wrap silently; |a * b| <= max(a * a, b * b) bounds
    # the LP x CP cross sums too
    limit = (2**63 - 1) // (peak * peak)
    if n > limit:
        return None, [f"{field}: must be at most {limit}, so that the exact sums of "
                      f"squares of up to {peak} per term stay within int64"]
    return plan, []


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
        c_max_values=plan.budgets, policies=plan.policies, grid_indices=(gi,),
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
    )


def _run_tasks(task_fn, plan, items, workers):
    """``[task_fn(plan, item) for item in items]``, on a pool of at most one
    process per item (a pool starts all of its processes at the first task)."""
    task = partial(task_fn, plan)
    workers = min(workers, len(items))
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
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema_version"] + list(record_dicts[0].keys()))
        for d in record_dicts:
            writer.writerow([RESULTS_SCHEMA_VERSION] + [_csv_cell(v) for v in d.values()])
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
    section = EXPERIMENTS[plan.experiment]
    out_dir = Path(os.environ.get("CRANSIM_OUTPUT_DIR", plan.output_dir))
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []

    if section == "cell":
        results = _run_tasks(_cell_point_task, plan, range(len(plan.snr_grid_db)), workers)
        record_dicts = _record_dicts(sorted(
            (rec for recs in results for rec in recs),
            key=lambda r: (r.policy, r.c_max_bit_iter_s, r.snr_db)))

    elif section == "network":
        n = plan.n_subframes
        blocks = [(di, range(t0, min(t0 + NET_BLOCK_SUBFRAMES, n)))
                  for di in range(len(plan.densities))
                  for t0 in range(0, n, NET_BLOCK_SUBFRAMES)]
        acc = merge_accumulators(_run_tasks(_net_block_task, plan, blocks, workers))
        record_dicts = _record_dicts(finalize_records(acc, n))

    else:  # policy_tables
        curves, tables = _models(plan.calibration_file, plan.eps_hat)
        record_dicts = [{"policy": name, "mcs_index": m, "threshold_db": thr,
                         "iteration_budget": table.iteration_budget}
                        for name, table in sorted(tables.items())
                        for m, thr in enumerate(table.thresholds_db)]
        margins = {"schema_version": RESULTS_SCHEMA_VERSION,
                   "margins_db": list(snr_margin(tables["CAS"], tables["MRS"]))}
        outputs.append(_write_json(out_dir / "margins.json", margins))
    outputs += _write_results(out_dir, plan, record_dicts)

    manifest = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "artifact_version": __version__,
        "experiment": plan.experiment,
        "config_sha256": hashlib.sha256(
            json.dumps(plan.config, sort_keys=True).encode()
        ).hexdigest(),
        "calibration_sha256": _calibration_sha(plan.calibration_file),
        "numeric_stack": {"numpy": np.__version__},
        "wall_clock_s": round(time.time() - t_start, 3),
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    _write_json(out_dir / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# plot-data emission
# ---------------------------------------------------------------------------

_POLICY_BUDGET = ("policy", "c_max_bit_iter_s")

# experiment -> figure specs: (file-name prefix, x field, y field, half-width
# field or None for exact values, series label fields).  A figure is drawn
# only where x takes two or more finite values
_PLOT_SERIES = {
    "cell_outage": (
        ("cell_outage", "snr_db", "eps", "eps_hw", _POLICY_BUDGET),
        ("cell_throughput", "snr_db", "t_eff_bps", "t_eff_hw_bps", _POLICY_BUDGET),
        ("cell_complexity", "snr_db", "effort_per_success_bit_iter_s", "effort_per_success_hw",
         _POLICY_BUDGET),
    ),
    "net_sweep": (
        ("net_budget_sweep", "c_max_bit_iter_s", "sum_throughput_bps", "sum_throughput_hw_bps",
         ("policy", "mode", "ue_density_per_km2")),
        ("net_density_sweep", "ue_density_per_km2", "sum_throughput_bps",
         "sum_throughput_hw_bps", ("policy", "mode", "c_max_bit_iter_s")),
    ),
    "policy_tables": (("policy_tables", "mcs_index", "threshold_db", None, ("policy",)),),
}


def _plot_value(rec, field):
    """A record field as plotted: budgets in Mbit-iter/s, null budget = inf."""
    value = rec[field]
    if field == "c_max_bit_iter_s":
        return math.inf if value is None else value / 1e6
    return value


def _label_part(rec, field):
    # numbers in their shortest round-tripping form (repr less a trailing
    # ".0", scientific at extreme magnitudes): one short name per grid value
    value = _plot_value(rec, field)
    if field == "ue_density_per_km2":
        return f"lambda_{repr(value).removesuffix('.0')}"
    if field == "c_max_bit_iter_s":
        return "cmax_inf" if math.isinf(value) else f"cmax_{repr(value).removesuffix('.0')}M"
    return value


def emit_plot_data(in_dir, out_dir):
    """Reshape results.json into per-series (x, y, ci_low, ci_high) files.

    Returns the list of files written; raises SchemaError when the results
    are missing, carry an unsupported schema or hold records that a figure
    cannot read.
    """
    in_dir = Path(in_dir)
    results_path = in_dir / "results.json"
    if not results_path.exists():
        raise SchemaError(f"no results.json under {in_dir}")
    try:
        with open(results_path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SchemaError(f"results.json: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError("results.json: top level must be an object")
    if payload.get("schema_version") != RESULTS_SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported results schema_version {payload.get('schema_version')}"
        )
    experiment = payload.get("experiment")
    if not _known(experiment):
        raise SchemaError(f"unknown experiment {experiment!r} in results")
    records = payload.get("records", [])
    if not records:
        raise SchemaError("results contain no records")
    try:
        figures = [_figure(records, *spec) for spec in _PLOT_SERIES[experiment]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"results.json: records do not fit {experiment}: {exc!r}") from exc
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [_write_series(out_dir, label, sorted(rows))
            for series in figures for label, rows in sorted(series.items())]


def _figure(records, prefix, x_field, y_field, hw_field, label_fields):
    """One figure's series, ``{label: [(x, y, half-width)]}``; empty when x
    takes fewer than two finite values."""
    series = {}
    for rec in records:
        x = float(_plot_value(rec, x_field))
        if math.isinf(x):
            continue  # the unconstrained budget reference has no x position
        label = "__".join([prefix] + [_label_part(rec, f) for f in label_fields])
        y = rec[y_field]
        hw = 0.0 if hw_field is None or y is None else float(rec[hw_field])
        series.setdefault(label, []).append((x, math.nan if y is None else float(y), hw))
    if len({x for rows in series.values() for x, _, _ in rows}) < 2:
        return {}
    return series


def _write_series(out_dir, label, rows):
    path = out_dir / f"{label}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema_version", "series", "x", "y", "ci_low", "ci_high"])
        for x, y, hw in rows:
            writer.writerow([RESULTS_SCHEMA_VERSION, label, repr(x), repr(y),
                             repr(y - hw), repr(y + hw)])
    return path
