"""Uplink link abstraction: MCS catalog, code-block error curves, and
stochastic turbo-decoding effort.

The physical layer is reduced to a calibrated parametric model.  Each of the
27 MCSs carries a transport-block size (45 resource blocks, 1 ms subframe)
and a family of per-iteration code-block error-rate (CBLER) curves.  Each
iteration contributes a logistic waterfall in dB,

    raw(gamma, i) = 1 / (1 + exp(a_i * (gamma - b_i))),

and the effective CBLER after i iterations is the running minimum
min_{j <= i} raw(gamma, j), which makes the model monotone decreasing in
the iteration count by construction (an extra iteration never hurts) even
where waterfalls of different steepness would cross.  Decoding effort is
counted in bit-iterations: each code block of K bits that stops after I
iterations costs K*I.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.special import expit

CB_MAX_BITS = 6144          # segmentation limit: larger TBs split into CBs
DEFAULT_I_MAX = 8           # maximum attempted decoder iterations
SUBFRAME_S = 1e-3

QPSK = "QPSK"
QAM16 = "QAM16"
QAM64 = "QAM64"

# Modulation per MCS index: QPSK 0-10, 16-QAM 11-20, 64-QAM 21-26.
_MODULATION_BANDS = ((0, 10, QPSK), (11, 20, QAM16), (21, 26, QAM64))

# Transport-block sizes (information bits) for 45 RBs, MCS 0..26.
TB_BITS_45RB = (
    1280, 1632, 2048, 2624, 3264, 4032, 4800, 5568, 6272, 7040, 8064,
    9216, 10368, 11520, 13056, 13632, 14784, 16512, 17664, 19200, 20736,
    23040, 24640, 25600, 27520, 28480, 33024,
)

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

    ``slopes_per_db[i-1]`` and ``midpoints_db[i-1]`` parameterize the CBLER
    curve after iteration i, for i = 1..i_max.
    """

    index: int
    modulation: str
    tb_bits: int
    slopes_per_db: tuple
    midpoints_db: tuple


class LinkCurves:
    """Catalog-level CBLER evaluator backed by the logistic waterfall model."""

    def __init__(self, catalog, i_max=DEFAULT_I_MAX):
        validate_catalog(catalog, i_max)
        self.catalog = tuple(catalog)
        self.i_max = i_max
        # (27, i_max) parameter arrays for vectorized evaluation
        self._a = np.array([m.slopes_per_db for m in catalog], dtype=float)
        self._b = np.array([m.midpoints_db for m in catalog], dtype=float)
        self.tb_bits = np.array([m.tb_bits for m in catalog], dtype=np.int64)
        # zero-padded per-CB bit counts, (27, max_cbs)
        segs = [segment_tb(m.tb_bits)[1] for m in catalog]
        self.max_cbs = max(len(s) for s in segs)
        self.num_cbs = np.array([len(s) for s in segs], dtype=np.int64)
        self.cb_bits = np.zeros((len(catalog), self.max_cbs), dtype=np.int64)
        for m, s in enumerate(segs):
            self.cb_bits[m, : len(s)] = s

    def cbler(self, mcs_index, gamma_db, iters):
        """CBLER of ``mcs_index`` at SNR ``gamma_db`` after ``iters`` iterations.

        ``iters = 0`` returns 1 by convention.  gamma of +inf/-inf maps to
        0/1; NaN is rejected.
        """
        if iters < 0 or iters > self.i_max:
            raise ValueError(f"iteration count {iters} outside 0..{self.i_max}")
        if np.any(np.isnan(gamma_db)):
            raise ValueError("SNR must not be NaN")
        if iters == 0:
            return np.ones_like(np.asarray(gamma_db, dtype=float))[()] if np.ndim(gamma_db) else 1.0
        a = self._a[mcs_index, :iters]
        b = self._b[mcs_index, :iters]
        g = np.asarray(gamma_db, dtype=float)
        out = expit(-a * (g[..., None] - b)).min(axis=-1)
        return out[()] if np.ndim(gamma_db) == 0 else out

    def success_cdf(self, mcs_index, gamma_db):
        """P(CB decoded within i iterations) for i = 0..i_max.

        Returns shape ``(..., i_max + 1)`` with column 0 identically 0 and
        nondecreasing columns (running max over the per-iteration
        waterfalls).  Vectorized over ``gamma_db`` and ``mcs_index``
        (broadcast together).
        """
        g = np.asarray(gamma_db, dtype=float)
        if np.any(np.isnan(g)):
            raise ValueError("SNR must not be NaN")
        a = self._a[mcs_index]          # (..., i_max)
        b = self._b[mcs_index]
        f = np.maximum.accumulate(expit(a * (g[..., None] - b)), axis=-1)
        zero = np.zeros(f.shape[:-1] + (1,))
        return np.concatenate([zero, f], axis=-1)


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


def tb_channel_outage_prob(eps_cb, num_cbs):
    """TB outage probability 1 - (1 - eps_cb)**C for C independent CBs."""
    if not 0.0 <= eps_cb <= 1.0:
        raise ValueError(f"eps_cb {eps_cb} outside [0, 1]")
    if num_cbs < 1:
        raise ValueError("num_cbs must be >= 1")
    return 1.0 - (1.0 - eps_cb) ** num_cbs


def simulate_cbs(success_cdf, u):
    """Map uniform draws to per-CB iteration counts and failure flags.

    A single uniform per CB drives both outcomes: with F(i) the probability
    of decoding within i iterations, the CB fails iff u > F(i_max) (then
    I = i_max), otherwise I is the smallest i with F(i) >= u.  This
    reproduces failure probability cbler(gamma, i_max) and the
    success-conditioned iteration pmf exactly.

    ``success_cdf`` has shape (..., i_max + 1); ``u`` shape (..., n_cbs).
    Returns ``(iters, failed)`` of the same shape as ``u``.
    """
    i_max = success_cdf.shape[-1] - 1
    iters = np.ones(u.shape, dtype=np.int64)
    for i in range(1, i_max):
        iters += u > success_cdf[..., i, None]
    failed = u > success_cdf[..., i_max, None]
    return iters, failed


def simulate_tb_batch(curves, mcs_index, gamma_db, u):
    """Vectorized TB decoding for many trials of one MCS.

    ``gamma_db`` has shape (n,), ``u`` shape (n, >= num_cbs); only the first
    ``num_cbs`` uniforms per trial are consumed.  Returns
    ``(effort, channel_outage, iters)`` with effort of shape (n,).
    """
    c = int(curves.num_cbs[mcs_index])
    cdf = curves.success_cdf(mcs_index, gamma_db)
    iters, failed = simulate_cbs(cdf, u[:, :c])
    k = curves.cb_bits[mcs_index, :c]
    effort = iters @ k
    return effort, failed.any(axis=1), iters


# ---------------------------------------------------------------------------
# Calibration: default parameter generation, JSON load/save, validation
# ---------------------------------------------------------------------------

# Default calibration constants.  The 8-iteration midpoints are spaced 1 dB
# apart starting at -5 dB; the 2-iteration curve sits margin_db above the
# 8-iteration one (per modulation, wider for the denser modulations whose
# decoding converges more slowly); intermediate iterations interpolate on a
# geometric profile whose tail thins quickly, so a block decoded near a
# 2-iteration selection threshold almost never burns many iterations while
# one near an 8-iteration threshold is expensive.  The QPSK margin equals
# the index step so that the 2-iteration curve of MCS 10 coincides with the
# 8-iteration curve of MCS 11 (their CBLERs are equal at every SNR, in
# particular at 0.25).
DEFAULT_B8_BASE_DB = -5.0
DEFAULT_B8_STEP_DB = 1.0
# 2-vs-8-iteration margin per MCS.  MCS 10 is the exception: its margin
# equals the index step so its 2-iteration curve coincides with the
# 8-iteration curve of MCS 11 (equal CBLER at every SNR, 0.25 included).
DEFAULT_MARGIN_DB = {QPSK: 1.9, QAM16: 2.0, QAM64: 2.0}
DEFAULT_MCS10_MARGIN_DB = 1.0
# Midpoint profile between the 2- and 8-iteration curves (w_2 = 1, w_8 = 0)
# with per-iteration slopes.  Early and mid iterations barely converge (a
# block decoded right at an 8-iteration selection threshold usually burns
# most of its 8 iterations) and their steeper waterfalls cut the iteration
# tail off quickly, so blocks decoded at a 2-iteration selection threshold
# essentially never need more than 3 iterations.
DEFAULT_ITER_WEIGHTS = (1.10, 1.00, 0.88, 0.82, 0.80, 0.74, 0.68, 0.00)
DEFAULT_ITER_SLOPES = (4.0, 4.0, 6.0, 6.0, 6.0, 6.0, 6.0, 4.0)
DEFAULT_SLOPE_PER_DB = DEFAULT_ITER_SLOPES[-1]


def _iteration_profile(i_max=DEFAULT_I_MAX):
    """Per-iteration (slope, weight) pairs; weights strictly decreasing."""
    if i_max == len(DEFAULT_ITER_WEIGHTS):
        return list(zip(DEFAULT_ITER_SLOPES, DEFAULT_ITER_WEIGHTS))
    # other iteration caps interpolate the default profile on 1..i_max
    xs = np.linspace(0.0, 1.0, len(DEFAULT_ITER_WEIGHTS))
    target = np.linspace(0.0, 1.0, i_max)
    weights = np.interp(target, xs, DEFAULT_ITER_WEIGHTS)
    slopes = np.interp(target, xs, DEFAULT_ITER_SLOPES)
    return list(zip(slopes, weights))


def default_calibration(i_max=DEFAULT_I_MAX):
    """Build the shipped calibration as a plain dict (JSON-serializable)."""
    profile = _iteration_profile(i_max)
    mcs = []
    for m, tb in enumerate(TB_BITS_45RB):
        mod = modulation_for_index(m)
        b8 = DEFAULT_B8_BASE_DB + DEFAULT_B8_STEP_DB * m
        margin = DEFAULT_MCS10_MARGIN_DB if m == 10 else DEFAULT_MARGIN_DB[mod]
        waterfall = [[a, b8 + margin * w] for a, w in profile]
        mcs.append(
            {"index": m, "modulation": mod, "tb_bits": tb, "waterfall": waterfall}
        )
    return {"schema_version": CALIBRATION_SCHEMA_VERSION, "i_max": i_max, "mcs": mcs}


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


def save_calibration(data, path):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
