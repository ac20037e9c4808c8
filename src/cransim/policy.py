"""MCS selection policies under an iteration budget.

A policy table maps SNR to the highest MCS whose transport-block outage
stays at or below the target ``eps_hat`` after a fixed number of decoder
iterations: 1 - F^C for C code blocks, F being the chained rows of
``LinkCurves.success_cdf``, the one evaluator of the decoding curves.  The
max-rate policy (MRS) budgets 8 iterations; the computationally aware
policy (CAS) budgets 2, trading spectral efficiency for decoding effort.
The SNR margin between the two tables quantifies the cost of the
conservative choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_EPS_HAT = 0.1
MRS_ITER_BUDGET = 8
CAS_ITER_BUDGET = 2

GRID_STEP_DB = 0.01
GRID_MIN_DB = -20.0
GRID_MAX_DB = 60.0

POLICY_ITER_BUDGETS = {"MRS": MRS_ITER_BUDGET, "CAS": CAS_ITER_BUDGET}


class ConfigurationError(ValueError):
    """Raised when a policy table cannot satisfy its outage target."""


@dataclass(frozen=True)
class PolicyTable:
    """Per-MCS minimum SNR meeting the outage target after ``iteration_budget``."""

    iteration_budget: int
    thresholds_db: tuple
    catalog: tuple


def build_policy_table(curves, iteration_budget, eps_hat=DEFAULT_EPS_HAT):
    """Search the 0.01 dB grid for the lowest SNR meeting the outage target.

    Raises ``ConfigurationError`` naming the first MCS that never meets
    ``eps_hat`` on [-20, 60] dB.
    """
    if not 1 <= iteration_budget <= curves.i_max:
        raise ValueError(f"iteration budget {iteration_budget} outside 1..{curves.i_max}")
    if not 0.0 < eps_hat <= 1.0:
        raise ValueError(f"eps_hat {eps_hat} outside (0, 1]")
    n = int(round((GRID_MAX_DB - GRID_MIN_DB) / GRID_STEP_DB)) + 1
    grid = GRID_MIN_DB + GRID_STEP_DB * np.arange(n)
    thresholds = []
    for m in range(len(curves.catalog)):
        f = None    # F: P(CB decoded within i iterations), row by row
        for i in range(1, iteration_budget + 1):
            f = curves.success_cdf(m, grid, i, f)
        # the TB outage 1 - F^C in expm1 form; F == 0 maps through -inf to 1.
        # F rounded to 1 leaves the outage unresolved, so it meets no target
        with np.errstate(divide="ignore"):
            outage = -np.expm1(int(curves.num_cbs[m]) * np.log(f))
        ok = (outage <= eps_hat) & (f < 1.0)
        if not ok.any():
            raise ConfigurationError(
                f"MCS {m} never meets eps_hat={eps_hat} after "
                f"{iteration_budget} iterations on [{GRID_MIN_DB}, {GRID_MAX_DB}] dB"
            )
        thresholds.append(float(grid[int(np.argmax(ok))]))
    # equal thresholds are legal only where the target never binds (the
    # whole table collapsed to the search floor)
    if not np.all(np.diff(thresholds) >= 0):
        raise ConfigurationError("policy thresholds are not monotone in MCS index")
    return PolicyTable(iteration_budget, tuple(thresholds), curves.catalog)


def select_mcs_index(table, gamma_db):
    """Vectorized selection: the highest MCS index whose threshold is at or
    below each SNR.  Below the table floor the lowest MCS is transmitted
    (its channel-outage TBs still consume decoding effort), so every index
    is >= 0.
    """
    g = np.asarray(gamma_db, dtype=float)
    if np.any(np.isnan(g)):
        raise ValueError("SNR must not be NaN")
    return np.maximum(np.searchsorted(table.thresholds_db, g, side="right") - 1, 0)


def snr_margin(table_2, table_8):
    """Per-MCS shift Delta-gamma with R_2(gamma + Delta) = R_8(gamma), as a tuple."""
    if table_2.catalog != table_8.catalog:
        raise ValueError("margin requires tables built from the same curve set")
    return tuple(
        t2 - t8 for t2, t8 in zip(table_2.thresholds_db, table_8.thresholds_db)
    )


def build_policy_tables(curves, eps_hat=DEFAULT_EPS_HAT):
    """Convenience: build the MRS and CAS policy tables as a dict."""
    return {
        name: build_policy_table(curves, budget, eps_hat)
        for name, budget in POLICY_ITER_BUDGETS.items()
    }
