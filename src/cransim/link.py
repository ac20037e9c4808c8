"""Uplink link abstraction: MCS catalog, code-block decoding curves, and
stochastic turbo-decoding effort.

The physical layer is reduced to a calibrated parametric model.  Each of the
27 MCSs carries a transport-block size (45 resource blocks, 1 ms subframe)
and a family of per-iteration decoding curves.  Each iteration contributes a
logistic waterfall in dB,

    raw(gamma, i) = 1 / (1 + exp(-a_i * (gamma - b_i))),

and the probability F(i) that a code block has decoded within i iterations
is the running maximum max_{j <= i} raw(gamma, j), which makes the model
monotone in the iteration count by construction (an extra iteration never
hurts) even where waterfalls of different steepness would cross.  The code
block error rate after i iterations is 1 - F(i).  ``LinkCurves.success_cdf``
is the one evaluator of these curves: the decoder and the policy tables
both chain its rows.  Decoding effort is counted in bit-iterations: each
code block of K bits that stops after I iterations costs K*I.

The model's parameters are read from a calibration JSON; the package ships
``data/default_calibration.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

CB_MAX_BITS = 6144          # segmentation limit: larger TBs split into CBs
DEFAULT_I_MAX = 8           # maximum attempted decoder iterations
SUBFRAME_S = 1e-3           # the calibration's subframe: the one time unit

QPSK = "QPSK"
QAM16 = "QAM16"
QAM64 = "QAM64"

# Modulation per MCS index: QPSK 0-10, 16-QAM 11-20, 64-QAM 21-26.
_MODULATION_BANDS = ((0, 10, QPSK), (11, 20, QAM16), (21, 26, QAM64))

CALIBRATION_SCHEMA_VERSION = 1


class CalibrationError(ValueError):
    """Raised when a calibration file violates the MCS-catalog invariants."""


def modulation_for_index(index):
    for lo, hi, mod in _MODULATION_BANDS:
        if lo <= index <= hi:
            return mod
    raise ValueError(f"MCS index {index} outside 0..26")


@dataclass(frozen=True)
class McsEntry:
    """One modulation-and-coding scheme with its waterfall parameters.

    ``slopes_per_db[i-1]`` and ``midpoints_db[i-1]`` parameterize the
    waterfall of iteration i, for i = 1..i_max.
    """

    index: int
    modulation: str
    tb_bits: int
    slopes_per_db: tuple
    midpoints_db: tuple


class LinkCurves:
    """Catalog-level decoding curves backed by the logistic waterfall model."""

    def __init__(self, catalog, i_max=DEFAULT_I_MAX):
        validate_catalog(catalog, i_max)
        self.catalog = tuple(catalog)
        self.i_max = i_max
        ab = np.array([(m.slopes_per_db, m.midpoints_db) for m in catalog], dtype=float)
        self._ab = ab.transpose(1, 2, 0).copy()   # (2, i_max, 27): one row per iteration
        self.tb_bits = np.array([m.tb_bits for m in catalog], dtype=np.int64)
        # zero-padded per-CB bit counts, (27, max_cbs)
        segs = [segment_tb(m.tb_bits)[1] for m in catalog]
        self.max_cbs = max(len(s) for s in segs)
        self.num_cbs = np.array([len(s) for s in segs], dtype=np.int64)
        self.cb_bits = np.zeros((len(catalog), self.max_cbs), dtype=np.int64)
        for m, s in enumerate(segs):
            self.cb_bits[m, : len(s)] = s

    def success_cdf(self, mcs_index, gamma_db, i, floor=None):
        """Row ``i`` (1..i_max) of P(CB decoded within i iterations): the
        running max ``max(floor, 1 / (1 + exp(-a_i * (gamma - b_i))))`` over
        the waterfalls, ``floor`` being row i - 1 (None for i = 1).
        ``mcs_index`` is a scalar or one index per SNR; NaN is rejected.
        """
        if np.isnan(gamma_db).any():
            raise ValueError("SNR must not be NaN")
        a, b = self._ab[:, i - 1, mcs_index]
        f = np.asarray(b - gamma_db)    # the logistic in place: one allocation
        f *= a
        with np.errstate(over="ignore"):  # exp overflows to inf, and 1 / inf = 0
            np.exp(f, out=f)
        f += 1.0
        np.reciprocal(f, out=f)
        if floor is not None:
            np.maximum(floor, f, out=f)
        return f


def segment_tb(tb_bits):
    """Split a transport block into code blocks of at most 6144 bits.

    Returns ``(num_cbs, cb_bits)`` where the per-CB counts are as equal as
    possible (differ by at most one bit) and sum to ``tb_bits``.
    """
    if tb_bits < 1:
        raise ValueError("tb_bits must be >= 1")
    num_cbs = -(-tb_bits // CB_MAX_BITS)
    base, extra = divmod(tb_bits, num_cbs)
    cb_bits = [base + 1] * extra + [base] * (num_cbs - extra)
    return num_cbs, cb_bits


def simulate_cbs(curves, mcs_index, gamma_db, u):
    """Decode code blocks iteration by iteration: per-CB iteration counts
    and failure flags, each of the shape of ``u``.

    One uniform per CB drives both outcomes: with F(i) the probability of
    decoding within i iterations (``curves.success_cdf``), the CB fails iff
    u > F(i_max) (then I = i_max), otherwise I is the smallest i with
    F(i) >= u.  ``u`` is CB-major, ``(n_cbs, n)``; ``gamma_db`` is (n,) and
    ``mcs_index`` a scalar or one index per trial.  Row i of F is evaluated
    only while some CB is undecoded, and the finished trials are dropped
    once fewer than half of those in hand are left.  A trial finishes when
    u <= F(i) <= F(j) for all of its CBs and all j > i, so the comparisons
    it skips would all have been False: the results are those of the full
    cdf, bit for bit.
    """
    iters = np.ones(u.shape, dtype=np.min_scalar_type(curves.i_max))
    failed = np.zeros(u.shape, dtype=bool)
    counts, cols = iters, None  # the trials in hand: their counts and columns
    u_max = u.max(axis=0)       # a trial is live while its largest uniform is above F
    f = None
    for i in range(1, curves.i_max + 1):
        f = curves.success_cdf(mcs_index, gamma_db, i, f)
        if i == curves.i_max:
            failed[:, slice(None) if cols is None else cols] = u > f
            break
        counts += u > f
        live = u_max > f
        n_live = np.count_nonzero(live)
        if n_live == 0:
            break
        if 2 * n_live < len(live):
            keep = np.flatnonzero(live)
            if cols is not None:
                iters[:, cols] = counts     # the dropped trials' counts are final
            cols = keep if cols is None else cols[keep]
            counts, u = np.take(counts, keep, axis=1), np.take(u, keep, axis=1)
            u_max, gamma_db, f = u_max[keep], gamma_db[keep], f[keep]
            if np.ndim(mcs_index):
                mcs_index = mcs_index[keep]
    if cols is not None:
        iters[:, cols] = counts
    return iters.astype(np.int64), failed


def simulate_tb_batch(curves, mcs_index, gamma_db, u):
    """Vectorized TB decoding for many trials of one MCS.

    ``gamma_db`` has shape (n,), ``u`` is CB-major, (>= num_cbs, n), of which
    the first ``num_cbs`` rows are consumed.  Returns ``(effort,
    channel_outage)``, each of shape (n,).
    """
    c = int(curves.num_cbs[mcs_index])
    iters, failed = simulate_cbs(curves, mcs_index, gamma_db, u[:c])
    return curves.cb_bits[mcs_index, :c] @ iters, failed.any(axis=0)


# ---------------------------------------------------------------------------
# Calibration: JSON load and validation
# ---------------------------------------------------------------------------

def validate_catalog(catalog, i_max):
    if len(catalog) != 27:
        raise CalibrationError(f"expected 27 MCS entries, got {len(catalog)}")
    prev_tb = 0
    for m, entry in enumerate(catalog):
        if entry.index != m:
            raise CalibrationError(f"entry {m} carries index {entry.index}")
        expected_mod = modulation_for_index(m)
        if entry.modulation != expected_mod:
            raise CalibrationError(
                f"MCS {m}: modulation {entry.modulation}, expected {expected_mod}"
            )
        if entry.tb_bits <= prev_tb:
            raise CalibrationError(f"MCS {m}: tb_bits not strictly increasing")
        prev_tb = entry.tb_bits
        if len(entry.slopes_per_db) != i_max or len(entry.midpoints_db) != i_max:
            raise CalibrationError(f"MCS {m}: waterfall must have {i_max} entries")
        if any(a <= 0 for a in entry.slopes_per_db):
            raise CalibrationError(f"MCS {m}: slopes must be positive")
        mids = entry.midpoints_db
        if any(mids[i] <= mids[i + 1] for i in range(i_max - 1)):
            raise CalibrationError(f"MCS {m}: midpoints not strictly decreasing")
    if catalog[10].tb_bits != 8064 or catalog[11].tb_bits != 9216:
        raise CalibrationError("anchor TB sizes 8064/9216 at MCS 10/11 violated")


def catalog_from_dict(data):
    """Parse and validate a calibration dict into (catalog, i_max)."""
    version = data.get("schema_version") if isinstance(data, dict) else None
    if version != CALIBRATION_SCHEMA_VERSION:
        raise CalibrationError(f"unsupported calibration schema_version {version}")
    try:
        i_max = int(data.get("i_max", DEFAULT_I_MAX))
        entries = sorted(data["mcs"], key=lambda r: r["index"])
        catalog = []
        for rec in entries:
            waterfall = rec["waterfall"]
            catalog.append(
                McsEntry(
                    index=int(rec["index"]),
                    modulation=str(rec["modulation"]),
                    tb_bits=int(rec["tb_bits"]),
                    slopes_per_db=tuple(float(ab[0]) for ab in waterfall),
                    midpoints_db=tuple(float(ab[1]) for ab in waterfall),
                )
            )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CalibrationError(f"malformed calibration: {exc!r}") from exc
    validate_catalog(catalog, i_max)
    return catalog, i_max


def load_calibration(path=None):
    """Load a calibration file (packaged default when ``path`` is None).

    Returns ``LinkCurves``; raises ``CalibrationError`` on invariant
    violations.
    """
    if path is None:
        with resources.files("cransim.data").joinpath("default_calibration.json").open() as fh:
            data = json.load(fh)
    else:
        with open(path) as fh:
            data = json.load(fh)
    catalog, i_max = catalog_from_dict(data)
    return LinkCurves(catalog, i_max)
