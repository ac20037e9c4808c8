#!/usr/bin/env python3
"""cransim benchmark: repeated in-process ``cransim run`` of a shipped config.

    python3 benchmarks/run.py --workload net_budget --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each repeat is one ``cransim.cli.main(["run", ...])`` call on a
shipped config with its run length scaled down, the benchmark's seed
overriding the config's, and results written to a temporary directory
inside the checkout.  Every repeat's output is checked (see ``checks.py``)
and must hash to the same bytes as the first, 1-worker run.

``--trace 0`` times untraced repeats for ``--seconds`` seconds and reports
the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` alternates
untraced 1-worker, untraced nproc-worker and traced 1-worker repeats and
reports the per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
repeat every metric by name with its unit.  Exit code 2 means the checkout
or the arguments are unusable and no result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from checks import (  # noqa: E402
    admitted_frac,
    check_results,
    grid_points,
    result_bytes,
    trials_per_record,
)
from spans import Tracer  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15
MIN_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    config: str          # file under configs/
    section: str         # config section holding the run length
    length_key: str
    length: int
    records: int         # expected records in results.json
    parallel: bool       # timed at nproc workers (else 1)
    spans: tuple         # spans that must fire in the traced run


COMMON_SPANS = ("cli.main", "experiments.run", "link.load_calibration",
                "policy.build_policy_tables", "rng.substream",
                "policy.select_mcs_index", "link.success_cdf", "link.simulate_cbs")
NET_SPANS = COMMON_SPANS + ("geometry.synthesize_layout", "scheduling.sweep_network",
                            "geometry.draw_subframe", "geometry.cloud_sinrs")
CELL_SPANS = COMMON_SPANS + ("cell.sweep_cell", "cell.draw_cell_trials",
                             "cell.simulate_trials", "cell.summarize_cell_point",
                             "link.simulate_tb_batch")

WORKLOADS = {
    # 27 budgets x {LP, CP} x {MRS, CAS} = 108 arms per subframe
    "net_budget": Workload("net_budget_sweep.json", "network", "n_subframes", 1000,
                           108, False, NET_SPANS),
    # 10 densities x 2 budgets x CP x {MRS, CAS}
    "net_density": Workload("net_density_sweep.json", "network", "n_subframes", 250,
                            40, False, NET_SPANS),
    # 31 SNR points x 2 policies x 2 budgets
    "cell_sweep": Workload("cell_outage.json", "cell", "n_trials", 50000,
                           124, True, CELL_SPANS),
}

# Fresh-process set-up: import, model build and (network) layout synthesis.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import cransim.cli
from cransim.experiments import load_config
from cransim.geometry import synthesize_layout
from cransim.link import load_calibration
from cransim.policy import build_policy_tables
from cransim.rng import substream
cfg = load_config(sys.argv[1])
build_policy_tables(load_calibration(cfg["calibration_file"]), float(cfg["eps_hat"]))
if cfg["experiment"].startswith("net_"):
    s = cfg["network"]["synthesize"]
    synthesize_layout(substream(int(s["layout_seed"]), "layout", 0),
                      n_total=int(s["n_total"]), n_cloud=int(s["n_cloud"]),
                      region=tuple(float(v) for v in s["region_km"]),
                      min_sep_km=float(s["min_sep_km"]))
print(time.perf_counter() - t0)
"""


class UsageError(Exception):
    """The checkout or the arguments cannot run the benchmark."""


def nproc():
    return len(os.sched_getaffinity(0))


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


# ---------------------------------------------------------------------------
# one repeat
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    wall_s: float
    ok: bool
    records: list


class Runner:
    """Runs repeats of one workload and keeps the attempt/failure tally."""

    def __init__(self, cli, workload, seed, work_dir):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out_dir = work_dir / "out"
        self.config_path = work_dir / "config.json"
        cfg = json.loads((ROOT / "configs" / workload.config).read_text())
        cfg[workload.section][workload.length_key] = workload.length
        cfg["output_dir"] = str(self.out_dir)
        self.config_path.write_text(json.dumps(cfg, indent=2))
        os.environ["CRANSIM_OUTPUT_DIR"] = str(self.out_dir)
        self.attempted = 0
        self.failed = 0
        self.digests = None     # of the first run, which is at 1 worker

    def run(self, workers):
        self.attempted += 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()                    # start every repeat with no garbage
        argv = ["run", "--config", str(self.config_path),
                "--workers", str(workers), "--seed", str(self.seed)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:  # a raising run is counted, not fatal
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - start
        if code != 0:
            errors, digests, records = [f"run exited with {code}"], None, []
        else:
            errors, digests, records = check_results(self.out_dir, self.workload.records)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            errors.append(f"results SHA-256 at {workers} workers {digests} "
                          f"differ from the 1-worker run {self.digests}")
        outcome = Outcome(wall, True, records)
        for err in errors:
            self.fail(outcome, err)
        return outcome

    def fail(self, outcome, problem):
        """Report ``problem`` and count ``outcome``'s run as failed (once)."""
        print(f"check failed: {problem}", file=sys.stderr)
        if outcome.ok:
            self.failed += 1
            outcome.ok = False


def repeat_for(seconds, *steps):
    """Call each of ``steps`` in turn, round after round, until ``seconds``
    pass and at least ``MIN_REPEATS`` rounds ran; returns one result list
    per step."""
    out = [[] for _ in steps]
    deadline = time.perf_counter() + seconds
    while len(out[0]) < MIN_REPEATS or time.perf_counter() < deadline:
        for results, step in zip(out, steps):
            results.append(step())
    return out


# ---------------------------------------------------------------------------
# end-to-end metrics (untraced)
# ---------------------------------------------------------------------------

def setup_seconds(config_path):
    """Set-up time measured inside one fresh interpreter process."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config_path)],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb():
    """Larger of this process's and the largest reaped child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def throughput(outcome):
    """(subframes, arm-trials) behind one run: the network counts a subframe
    per density, the cell a trial (one single-cell subframe) per SNR point."""
    per_record = trials_per_record(outcome.records)
    return (per_record * grid_points(outcome.records),
            per_record * len(outcome.records))


def end_to_end(runner, seconds, workers):
    runner.run(1)                       # warm-up; reference bytes at 1 worker
    setup = []
    start = time.perf_counter()

    def timed_run():
        # spread the set-up samples over the window, so that a burst of
        # load on the machine cannot move all of them at once
        due = SETUP_REPEATS * (time.perf_counter() - start) / seconds
        while len(setup) < min(due + 1, SETUP_REPEATS):
            setup.append(setup_seconds(runner.config_path))
        return runner.run(workers)

    (timed,) = repeat_for(seconds, timed_run)
    setup += [setup_seconds(runner.config_path)
              for _ in range(SETUP_REPEATS - len(setup))]
    good = [o for o in timed if o.ok]
    walls = [o.wall_s for o in good]
    rates = [throughput(o) for o in good]
    series = {
        "setup_s": setup,
        "wall_s": walls,
        "subframes_per_s": [n / o.wall_s for (n, _), o in zip(rates, good)],
        "arm_trials_per_s": [n / o.wall_s for (_, n), o in zip(rates, good)],
    }
    metrics = {name: median(values) for name, values in series.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    for name, values in series.items():
        print(f"# {name}: n={len(values)} p25={quantile(values, 0.25):.6g} "
              f"p75={quantile(values, 0.75):.6g} max={max(values, default=0):.6g}")
    return metrics


# ---------------------------------------------------------------------------
# per-layer metrics (traced)
# ---------------------------------------------------------------------------

def _count_drop(tracer, drop):
    tracer.counts["subframes"] += 1
    tracer.counts["active_ues"] += len(drop.active_idx)


def _count_sinrs(tracer, result):
    tracer.counts["cloud_tbs"] += len(result[0])


def _count_cbs(tracer, result):
    tracer.counts["cb_slots"] += int(result[0].size)


def install_spans(tracer):
    """Wrap every layer through the attribute its caller looks it up by."""
    import cransim.cell as cell
    import cransim.cli as cli
    import cransim.experiments as experiments
    import cransim.geometry as geometry
    import cransim.link as link
    import cransim.rng as rng
    import cransim.scheduling as scheduling

    for owner, attr, name, hook in (
        (cli, "main", "cli.main", None),
        (cli, "run", "experiments.run", None),
        (experiments, "sweep_network", "scheduling.sweep_network", None),
        (experiments, "sweep_cell", "cell.sweep_cell", None),
        (experiments, "load_calibration", "link.load_calibration", None),
        (experiments, "build_policy_tables", "policy.build_policy_tables", None),
        (experiments, "synthesize_layout", "geometry.synthesize_layout", None),
        (experiments, "substream", "rng.substream", None),
        (rng, "substream", "rng.substream", None),
        (geometry, "draw_subframe", "geometry.draw_subframe", _count_drop),
        (geometry, "cloud_sinrs", "geometry.cloud_sinrs", _count_sinrs),
        (scheduling, "select_mcs_index", "policy.select_mcs_index", None),
        (cell, "select_mcs_index", "policy.select_mcs_index", None),
        (link.LinkCurves, "success_cdf", "link.success_cdf", None),
        (link, "simulate_cbs", "link.simulate_cbs", _count_cbs),
        (cell, "simulate_tb_batch", "link.simulate_tb_batch", None),
        (cell, "draw_cell_trials", "cell.draw_cell_trials", None),
        (cell, "simulate_trials", "cell.simulate_trials", None),
        (cell, "summarize_cell_point", "cell.summarize_cell_point", None),
    ):
        tracer.wrap(owner, attr, name, hook)


@dataclass
class TracedRepeat:
    outcome: Outcome
    calls: dict          # span name -> calls
    self_s: dict         # span name -> summed self time
    durations_ns: dict   # span name -> per-call durations
    counts: dict


def traced_run(runner):
    tracer = Tracer()
    install_spans(tracer)
    try:
        outcome = runner.run(1)
    finally:
        tracer.uninstall()
    spans = tracer.by_name()
    if tracer.missing:
        runner.fail(outcome, f"cannot wrap {', '.join(tracer.missing)}")
    return TracedRepeat(
        outcome=outcome,
        calls={k: len(d) for k, (d, _) in spans.items()},
        self_s={k: sum(s) / 1e9 for k, (_, s) in spans.items()},
        durations_ns={k: d for k, (d, _) in spans.items()},
        counts=dict(tracer.counts),
    )


def clear_model_caches():
    """Empty the package's per-process caches so set-up layers run again."""
    import cransim.experiments as experiments

    for value in vars(experiments).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def per_layer(runner, seconds, workload):
    runner.run(1)                       # warm-up; reference bytes at 1 worker
    clear_model_caches()
    cold = traced_run(runner)           # the set-up layers fire only here
    steps = [lambda: runner.run(1), lambda: traced_run(runner)]
    if nproc() > 1:
        steps.insert(1, lambda: runner.run(nproc()))
    results = repeat_for(seconds, *steps)
    untraced_1, traced = results[0], results[-1]
    untraced_n = results[1] if nproc() > 1 else untraced_1

    problems = []
    fired = {name for rep in [cold] + traced for name in rep.calls}
    problems += [f"span {name} never fired" for name in workload.spans
                 if name not in fired]
    reference = (traced[0].calls, traced[0].counts)
    if any((rep.calls, rep.counts) != reference for rep in traced[1:]):
        problems.append("span calls or counts differ between traced repeats")
    for problem in problems:
        runner.fail(cold.outcome, problem)

    def self_s(name):
        return median([rep.self_s.get(name, 0.0) for rep in traced])

    def pooled_us(name, q):
        return quantile([d for rep in traced for d in rep.durations_ns.get(name, [])], q) / 1e3

    def cold_s(name):
        return sum(cold.durations_ns.get(name, [])) / 1e9

    first = traced[0]
    counts = first.counts
    records = first.outcome.records
    subframes = counts.get("subframes", 0)
    arm_evals = (subframes * len(records) // grid_points(records)
                 if "mode" in (records[0] if records else {}) else 0)
    traced_wall = median([rep.outcome.wall_s for rep in traced])
    wall_1 = median([o.wall_s for o in untraced_1])
    metrics = {
        "geometry.draw_subframe.self_s": self_s("geometry.draw_subframe"),
        "geometry.draw_subframe.p50_us": pooled_us("geometry.draw_subframe", 0.50),
        "geometry.draw_subframe.p99_us": pooled_us("geometry.draw_subframe", 0.99),
        "geometry.cloud_sinrs.self_s": self_s("geometry.cloud_sinrs"),
        "geometry.cloud_sinrs.p50_us": pooled_us("geometry.cloud_sinrs", 0.50),
        "geometry.active_ues_per_subframe":
            counts.get("active_ues", 0) / subframes if subframes else 0.0,
        "geometry.cloud_tbs_per_subframe":
            counts.get("cloud_tbs", 0) / subframes if subframes else 0.0,
        "scheduling.sweep_network.self_s": self_s("scheduling.sweep_network"),
        "scheduling.us_per_arm_subframe":
            self_s("scheduling.sweep_network") / arm_evals * 1e6 if arm_evals else 0.0,
        "scheduling.arm_evals": arm_evals,
        "scheduling.decoded_frac": admitted_frac(records) if arm_evals else 0.0,
        "link.success_cdf.self_s": self_s("link.success_cdf"),
        "link.simulate_cbs.self_s": self_s("link.simulate_cbs"),
        "link.simulate_tb_batch.self_s": self_s("link.simulate_tb_batch"),
        "link.cbs_simulated": counts.get("cb_slots", 0),
        "policy.select_mcs_index.self_s": self_s("policy.select_mcs_index"),
        "cell.sweep_cell.self_s": self_s("cell.sweep_cell"),
        "cell.simulate_trials.self_s": self_s("cell.simulate_trials"),
        "cell.draw_cell_trials.self_s": self_s("cell.draw_cell_trials"),
        "cell.summarize_cell_point.self_s": self_s("cell.summarize_cell_point"),
        "rng.substream.calls": first.calls.get("rng.substream", 0),
        "rng.substream.p50_us": pooled_us("rng.substream", 0.50),
        "experiments.run.self_s": self_s("experiments.run"),
        "cli.main.self_s": self_s("cli.main"),
        "experiments.result_bytes": result_bytes(runner.out_dir),
        "link.load_calibration.s": cold_s("link.load_calibration"),
        "policy.build_policy_tables.s": cold_s("policy.build_policy_tables"),
        "geometry.synthesize_layout.s": cold_s("geometry.synthesize_layout"),
        "experiments.pool_speedup": wall_1 / median([o.wall_s for o in untraced_n]),
        "trace_overhead_frac": traced_wall / wall_1 - 1.0,
    }
    print(f"# traced repeats={len(traced)} traced_wall_s={traced_wall:.6g} "
          f"untraced_1_worker_wall_s={wall_1:.6g}")
    for name in sorted(first.self_s, key=lambda k: -self_s(k)):
        print(f"# share of traced wall: {name} self {self_s(name) / traced_wall:.3f} "
              f"calls {first.calls[name]}")
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        raise UsageError("--seed must be >= 0 and --seconds > 0")
    return args


def declared_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise UsageError(f"{spec_path.name} not found next to {BENCH_DIR.name}/")
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_package():
    """Import cransim from this checkout's ``src/``, single-threaded."""
    src = ROOT / "src"
    if not (src / "cransim" / "__init__.py").is_file():
        raise UsageError(f"no cransim package under {src}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import cransim.cli

    if Path(cransim.cli.__file__).resolve().parents[1] != src:
        raise UsageError(f"cransim imported from {cransim.cli.__file__}, not {src}")
    return cransim.cli


def environment_record(workers):
    import multiprocessing

    import numpy
    import scipy

    return (f"# nproc={nproc()} workers={workers} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"start_method={multiprocessing.get_start_method()} "
            f"threads={','.join(f'{v}={os.environ[v]}' for v in THREAD_VARS)}")


def main(argv=None):
    try:
        args = parse_args(argv)
        units = declared_metrics(args.trace)
        workload = WORKLOADS[args.workload]
        if not (ROOT / "configs" / workload.config).is_file():
            raise UsageError(f"configs/{workload.config} not found")
        cli = import_package()
    except UsageError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    workers = nproc() if workload.parallel else 1
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        print(environment_record(workers))
        runner = Runner(cli, workload, args.seed, work_dir)
        if args.trace:
            metrics = per_layer(runner, args.seconds, workload)
        else:
            metrics = end_to_end(runner, args.seconds, workers)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    if set(metrics) != set(units):
        print(f"benchmark: computed metrics {sorted(metrics)} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 2
    print(f"# results sha256: {json.dumps(runner.digests, sort_keys=True)}")
    print(f"# ops_failed_frac: {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} runs failed)")
    for name in units:
        print(f"# {name} = {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
