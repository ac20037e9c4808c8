"""Single-cell Rayleigh-fading Monte Carlo (one RAP, no interference).

Per trial the instantaneous SNR is exponential with linear mean 10^(G/10)
for average SNR G; the policy picks an MCS, the transport block is decoded
under the link model, and a computational outage is declared when the
block's effort exceeds the per-subframe budget c_max * SUBFRAME_S (strict
inequality; the calibration fixes the subframe at 1 ms).  Channel-outage
blocks still consume their full effort, since the decoder cannot know in
advance that a block will fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link import SUBFRAME_S, simulate_tb_batch
from .policy import select_mcs_index

Z_95 = 1.959963984540054


@dataclass(frozen=True)
class CellRecord:
    """Monte Carlo estimates for one (average SNR, policy, budget) point."""

    snr_db: float
    policy: str
    c_max_bit_iter_s: float
    n_trials: int
    n_transmitted: int
    n_success: int
    eps: float
    eps_hw: float
    eps_channel: float
    eps_channel_hw: float
    eps_comp: float
    eps_comp_hw: float
    t_raw_bps: float
    t_raw_hw_bps: float
    t_eff_bps: float
    t_eff_hw_bps: float
    effort_per_success_bit_iter_s: float
    effort_per_success_hw: float


def wilson_halfwidth(k, n):
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0
    p = k / n
    z = Z_95
    denom = 1.0 + z * z / n
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return half


def mean_halfwidth(n, total, total_sq):
    """Mean and 95% half-width, per second, of a series of ``n`` integers
    (bits or bit-iterations per subframe) from its exact sums of x and x * x.

    Sample variance (ddof 1); the half-width is 0 for n < 2 and the mean of
    no values NaN.  The variance of the mean is one correctly rounded
    division of Python integers, so the order of the series cannot matter.
    """
    n, total, total_sq = int(n), int(total), int(total_sq)
    mean = total / n / SUBFRAME_S if n else math.nan
    if n < 2:
        return mean, 0.0
    var_of_mean = (n * total_sq - total * total) / (n * n * (n - 1))
    return mean, Z_95 * math.sqrt(var_of_mean) / SUBFRAME_S


@dataclass
class _TrialBlock:
    """Vectorized outcomes of one batch of trials (internal)."""

    bits: np.ndarray
    effort: np.ndarray
    channel_fail: np.ndarray


def simulate_trials(gamma_db, table, curves, u):
    """Run the policy + link model over a vector of instantaneous SNRs.

    ``u`` supplies one uniform per potential code block, CB-major with shape
    ``(curves.max_cbs, n)``; passing the same block to several policy or
    budget arms yields common-random-number comparisons.  One stable sort
    by selected MCS and one column gather of ``u`` make each MCS group a
    contiguous column slice of the sorted trials; ``simulate_tb_batch``
    decodes each slice iteration by iteration, and the outcomes are
    scattered back to trial order once.
    """
    sel = select_mcs_index(table, gamma_db)
    # int8 keys make numpy's stable sort a radix sort
    order = np.argsort(sel.astype(np.int8), kind="stable")
    edges = np.searchsorted(sel[order], np.arange(len(curves.tb_bits) + 1))
    gamma_s, u_s = gamma_db[order], np.take(u, order, axis=1)
    effort_s = np.zeros(len(sel), dtype=np.int64)
    fail_s = np.zeros(len(sel), dtype=bool)
    for m in np.flatnonzero(np.diff(edges)):
        lo, hi = edges[m], edges[m + 1]
        effort_s[lo:hi], fail_s[lo:hi] = simulate_tb_batch(
            curves, int(m), gamma_s[lo:hi], u_s[:, lo:hi])
    block = _TrialBlock(bits=curves.tb_bits[sel], effort=np.empty_like(effort_s),
                        channel_fail=np.empty_like(fail_s))
    block.effort[order] = effort_s
    block.channel_fail[order] = fail_s
    return block


def summarize_cell_point(snr_db, policy, c_max_values, block):
    """Reduce a trial block to one CellRecord per budget in ``c_max_values``.

    Every trial transmits (``n_transmitted`` equals ``n_trials``), and a
    block is in computational outage when its effort strictly exceeds
    ``c_max * SUBFRAME_S``.  The effective throughput E[(1 - eps(gamma))
    R(gamma)] is the mean of the bits delivered per trial; the complexity
    metric charges the nominal effort of every block (outage blocks
    included) against the count of successful decodes.
    """
    def mean_hw(x):
        return mean_halfwidth(n, x.sum(), np.dot(x, x))

    n = len(block.bits)
    n_channel = int(block.channel_fail.sum())
    t_raw, t_raw_hw = mean_hw(block.bits)
    effort_mean, effort_mean_hw = mean_hw(block.effort)
    shared = dict(snr_db=float(snr_db), policy=policy, n_trials=n, n_transmitted=n,
                  eps_channel=n_channel / n if n else 0.0,
                  eps_channel_hw=wilson_halfwidth(n_channel, n),
                  t_raw_bps=t_raw, t_raw_hw_bps=t_raw_hw)
    records = []
    for c_max in c_max_values:
        comp_fail = block.effort > c_max * SUBFRAME_S
        lost = block.channel_fail | comp_fail
        n_lost = int(lost.sum())
        n_success = n - n_lost
        n_comp = int(comp_fail.sum())
        t_eff, t_eff_hw = mean_hw(np.where(lost, 0, block.bits))
        per_success = n / n_success if n_success else math.nan
        records.append(CellRecord(
            **shared, c_max_bit_iter_s=float(c_max), n_success=n_success,
            eps=n_lost / n if n else 0.0, eps_hw=wilson_halfwidth(n_lost, n),
            eps_comp=n_comp / n if n else 0.0, eps_comp_hw=wilson_halfwidth(n_comp, n),
            t_eff_bps=t_eff, t_eff_hw_bps=t_eff_hw,
            effort_per_success_bit_iter_s=effort_mean * per_success,
            effort_per_success_hw=effort_mean_hw * per_success))
    return records


def draw_cell_trials(rng, snr_db, n_trials, max_cbs):
    """Draw the per-trial randomness: instantaneous SNRs plus CB uniforms,
    drawn trial by trial and handed back CB-major, ``(max_cbs, n_trials)``."""
    mean_linear = 10.0 ** (snr_db / 10.0)
    gamma_lin = rng.exponential(mean_linear, n_trials)
    gamma_db = 10.0 * np.log10(gamma_lin)
    u = rng.random((n_trials, max_cbs))
    return gamma_db, np.ascontiguousarray(u.T)


def sweep_cell(snr_grid_db, tables, curves, n_trials, seed,
               c_max_values=(math.inf,), policies=("MRS", "CAS"), grid_indices=None):
    """Full sweep over average SNR for every (policy, budget) arm.

    ``grid_indices`` are the indices into ``snr_grid_db`` to sweep, all by
    default; point ``gi`` draws from the substream ``(seed, "cell", gi)``.
    All arms at one grid point share the same SNR and code-block draws
    (common random numbers), so arm differences are variance-free.  Returns
    ``{(policy, c_max): records}`` with one CellRecord per swept grid point.
    No grid or list may repeat a value.
    """
    from .rng import substream   # per call: benchmarks/run.py wraps it after import

    if any(len(set(a)) < len(a) for a in (snr_grid_db, c_max_values, policies)):
        raise ValueError("snr_grid_db, c_max_values and policies must not repeat a value")
    out = {(p, c): [] for p in policies for c in c_max_values}
    for gi in range(len(snr_grid_db)) if grid_indices is None else grid_indices:
        snr_db = snr_grid_db[gi]
        gamma_db, u = draw_cell_trials(substream(seed, "cell", gi), snr_db, n_trials,
                                       curves.max_cbs)
        for policy in policies:
            block = simulate_trials(gamma_db, tables[policy], curves, u)
            for c_max, rec in zip(c_max_values, summarize_cell_point(
                    snr_db, policy, c_max_values, block)):
                out[(policy, c_max)].append(rec)
    return {key: tuple(recs) for key, recs in out.items()}
