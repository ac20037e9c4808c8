"""Single-cell Rayleigh-fading Monte Carlo (one RAP, no interference).

Per trial the instantaneous SNR is exponential with linear mean 10^(G/10)
for average SNR G; the policy picks an MCS, the transport block is decoded
under the link model, and a computational outage is declared when the
block's effort exceeds the per-subframe budget c_max * subframe (strict
inequality).  Channel-outage blocks still consume their full effort, since
the decoder cannot know in advance that a block will fail.
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


def wilson_halfwidth(k, n, z=Z_95):
    """Half-width of the Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0
    p = k / n
    denom = 1.0 + z * z / n
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return half


def mean_halfwidth(values, z=Z_95):
    n = len(values)
    if n < 2:
        return 0.0
    return z * float(np.std(values, ddof=1)) / math.sqrt(n)


@dataclass
class _TrialBlock:
    """Vectorized outcomes of one batch of trials (internal)."""

    transmitted: np.ndarray
    bits: np.ndarray
    effort: np.ndarray
    channel_fail: np.ndarray


def simulate_trials(gamma_db, table, curves, u, low_snr_fallback=True):
    """Run the policy + link model over a vector of instantaneous SNRs.

    ``u`` supplies one uniform per potential code block, CB-major with shape
    ``(curves.max_cbs, n)``; passing the same block to several policy or
    budget arms yields common-random-number comparisons.  One stable sort
    by selected MCS and one column gather of ``u`` make each MCS group a
    contiguous column slice of the sorted trials; ``simulate_tb_batch``
    decodes each slice iteration by iteration, and the outcomes are
    scattered back to trial order once.
    """
    sel = select_mcs_index(table, gamma_db, low_snr_fallback)
    transmitted = sel >= 0
    # int8 keys make numpy's stable sort a radix sort
    order = np.argsort(sel.astype(np.int8), kind="stable")
    edges = np.searchsorted(sel[order], np.arange(len(curves.tb_bits) + 1))
    gamma_s, u_s = gamma_db[order], np.take(u, order, axis=1)
    effort_s = np.zeros(len(sel), dtype=np.int64)
    fail_s = np.zeros(len(sel), dtype=bool)
    for m in np.flatnonzero(np.diff(edges)):
        lo, hi = edges[m], edges[m + 1]
        effort_s[lo:hi], fail_s[lo:hi], _ = simulate_tb_batch(
            curves, int(m), gamma_s[lo:hi], u_s[:, lo:hi])
    block = _TrialBlock(transmitted, bits=np.where(transmitted, curves.tb_bits[sel], 0),
                        effort=np.empty_like(effort_s), channel_fail=np.empty_like(fail_s))
    block.effort[order] = effort_s
    block.channel_fail[order] = fail_s
    return block


def summarize_cell_point(snr_db, policy, c_max_values, subframe_s, block):
    """Reduce a trial block to one CellRecord per budget in ``c_max_values``.

    A transmitted block is in computational outage when its effort strictly
    exceeds ``c_max * subframe_s``.  The effective throughput is reported as
    (1 - eps) * t_raw computed from the same trials; the complexity metric
    charges the nominal effort of every transmitted block (outage blocks
    included) against the count of successful decodes.  The reductions that
    do not depend on the budget are computed once for all budgets.
    """
    n = len(block.transmitted)
    n_tx = int(block.transmitted.sum())
    n_channel = int(block.channel_fail.sum())
    rate = block.bits / subframe_s
    t_raw = float(rate.mean())
    total_effort = float(block.effort.sum())
    effort_mean_hw = mean_halfwidth(block.effort)
    shared = dict(snr_db=float(snr_db), policy=policy, n_trials=n, n_transmitted=n_tx,
                  eps_channel=n_channel / n_tx if n_tx else 0.0,
                  eps_channel_hw=wilson_halfwidth(n_channel, n_tx),
                  t_raw_bps=t_raw, t_raw_hw_bps=mean_halfwidth(rate))
    records = []
    for c_max in c_max_values:
        comp_fail = block.transmitted & (block.effort > c_max * subframe_s)
        lost = block.channel_fail | comp_fail
        n_lost = int(lost.sum())
        n_success = n_tx - n_lost
        n_comp = int(comp_fail.sum())
        eps = n_lost / n_tx if n_tx else 0.0
        # CI of the effective throughput from the per-trial success*rate series
        eff_series = rate * (block.transmitted & ~lost)
        if n_success:
            effort_ps = total_effort / n_success / subframe_s
            effort_hw = effort_mean_hw * n / n_success / subframe_s
        else:
            effort_ps = effort_hw = math.nan
        records.append(CellRecord(
            **shared, c_max_bit_iter_s=float(c_max), n_success=n_success,
            eps=eps, eps_hw=wilson_halfwidth(n_lost, n_tx),
            eps_comp=n_comp / n_tx if n_tx else 0.0, eps_comp_hw=wilson_halfwidth(n_comp, n_tx),
            t_eff_bps=(1.0 - eps) * t_raw, t_eff_hw_bps=mean_halfwidth(eff_series),
            effort_per_success_bit_iter_s=effort_ps, effort_per_success_hw=effort_hw))
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
               c_max_values=(math.inf,), policies=("MRS", "CAS"),
               subframe_s=SUBFRAME_S, low_snr_fallback=True, grid_indices=None):
    """Full sweep over average SNR for every (policy, budget) arm.

    ``grid_indices`` are the indices into ``snr_grid_db`` to sweep, all by
    default; point ``gi`` draws from the substream ``(seed, "cell", gi)``.
    All arms at one grid point share the same SNR and code-block draws
    (common random numbers), so arm differences are variance-free.  Returns
    ``{(policy, c_max): records}`` with one CellRecord per swept grid point.
    """
    from .rng import substream

    out = {(p, c): [] for p in policies for c in c_max_values}
    for gi in range(len(snr_grid_db)) if grid_indices is None else grid_indices:
        snr_db = snr_grid_db[gi]
        gamma_db, u = draw_cell_trials(substream(seed, "cell", gi), snr_db, n_trials,
                                       curves.max_cbs)
        for policy in policies:
            block = simulate_trials(gamma_db, tables[policy], curves, u, low_snr_fallback)
            for c_max, rec in zip(c_max_values, summarize_cell_point(
                    snr_db, policy, c_max_values, subframe_s, block)):
                out[(policy, c_max)].append(rec)
    return {key: tuple(recs) for key, recs in out.items()}
