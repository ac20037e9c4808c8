"""Output checks run on every benchmark repeat.

``check_results`` returns the list of problems found in one run's
``results.json`` (empty when the run is correct), the SHA-256 of the two
result files and the parsed records.  The invariants are exact consequences
of common random numbers, so they hold for every seed:

- network: ``comp_outage_rate`` never rises along the budget grid of one
  (density, mode, policy) and is 0 at the unconstrained budget;
- cell: ``eps_comp`` is 0 at the unconstrained budget and
  ``eps_channel <= eps``.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict

RESULT_FILES = ("results.json", "results.csv")
PROBABILITIES = ("eps", "eps_channel", "eps_comp",
                 "comp_outage_rate", "channel_outage_rate")


def _budget_key(c_max):
    return math.inf if c_max is None else c_max


def _check_record(i, rec, errors):
    for key in PROBABILITIES:
        if key in rec and not 0.0 <= rec[key] <= 1.0:
            errors.append(f"record {i}: {key}={rec[key]} outside [0, 1]")
    for key, value in rec.items():
        if not (key.endswith("_hw") or key.endswith("_hw_bps")):
            continue
        # effort per success is undefined (NaN) exactly when nothing decoded
        undefined = key == "effort_per_success_hw" and rec.get("n_success") == 0
        if undefined != (value is None or not math.isfinite(value)):
            errors.append(f"record {i}: {key}={value} with n_success="
                          f"{rec.get('n_success')}")
    if rec.get("c_max_bit_iter_s") is None:
        comp = rec.get("eps_comp", rec.get("comp_outage_rate"))
        if comp != 0.0:
            errors.append(f"record {i}: computational outage {comp} "
                          "at the unconstrained budget")
    if "eps_channel" in rec and not rec["eps_channel"] <= rec["eps"]:
        errors.append(f"record {i}: eps_channel {rec['eps_channel']} > "
                      f"eps {rec['eps']}")


def _check_budget_monotone(records, errors):
    arms = defaultdict(list)
    for rec in records:
        key = (rec["ue_density_per_km2"], rec["mode"], rec["policy"])
        arms[key].append((_budget_key(rec["c_max_bit_iter_s"]),
                          rec["comp_outage_rate"]))
    for key, points in arms.items():
        rates = [rate for _, rate in sorted(points)]
        if any(b > a for a, b in zip(rates, rates[1:])):
            errors.append(f"arm {key}: comp_outage_rate rises with the budget")


def check_results(out_dir, expected_records):
    """Check one run's output directory; returns ``(errors, digests, records)``."""
    digests = {}
    for name in RESULT_FILES:
        try:
            digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        except OSError as exc:
            return [f"{name}: {exc}"], digests, []
    try:
        payload = json.loads((out_dir / "results.json").read_text())
    except ValueError as exc:
        return [f"results.json does not parse: {exc}"], digests, []
    errors = []
    if payload.get("schema_version") != 1:
        errors.append(f"schema_version {payload.get('schema_version')} != 1")
    records = payload.get("records", [])
    if len(records) != expected_records:
        errors.append(f"{len(records)} records, expected {expected_records}")
    for i, rec in enumerate(records):
        _check_record(i, rec, errors)
    if records and "comp_outage_rate" in records[0]:
        _check_budget_monotone(records, errors)
    return errors, digests, records


def result_bytes(out_dir):
    return sum((out_dir / name).stat().st_size for name in RESULT_FILES)


def grid_points(records):
    """Densities (network) or average SNRs (cell) in a run's records."""
    key = "ue_density_per_km2" if records and "mode" in records[0] else "snr_db"
    return len({rec[key] for rec in records})


def trials_per_record(records):
    """Subframes (network) or trials (cell) behind every record."""
    rec = records[0]
    return rec["n_subframes"] if "n_subframes" in rec else rec["n_trials"]


def admitted_frac(records):
    """TBs the budget let through to completed decoding over TBs offered,
    summed over every network arm (records carry no overlap between channel
    and computational outage, so channel failures are not subtracted)."""
    offered = sum(rec["n_tbs"] for rec in records)
    lost = sum(round(rec["comp_outage_rate"] * rec["n_tbs"]) for rec in records)
    return (offered - lost) / offered if offered else 0.0
