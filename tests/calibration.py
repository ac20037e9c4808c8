"""Generator of the shipped calibration ``cransim/data/default_calibration.json``.

The package reads its link model only from that JSON; this module records
how the file's numbers were made, and ``test_link`` checks that it still
reproduces the file byte for byte.

The 8-iteration midpoints are spaced 1 dB apart starting at -5 dB.  The
2-iteration curve sits a per-modulation margin above the 8-iteration one
(wider for the denser modulations, whose decoding converges more slowly).
MCS 10 is the exception: its margin equals the index step, so its
2-iteration curve coincides with the 8-iteration curve of MCS 11 (equal
CBLER at every SNR, 0.25 included).  Intermediate iterations interpolate
the midpoints on a profile whose tail thins quickly, so a block decoded
near a 2-iteration selection threshold almost never burns many iterations
while one near an 8-iteration threshold is expensive.
"""

from __future__ import annotations

from cransim.link import (
    CALIBRATION_SCHEMA_VERSION,
    DEFAULT_I_MAX,
    QAM16,
    QAM64,
    QPSK,
    modulation_for_index,
)

# Transport-block sizes (information bits) for 45 RBs, MCS 0..26.
TB_BITS_45RB = (
    1280, 1632, 2048, 2624, 3264, 4032, 4800, 5568, 6272, 7040, 8064,
    9216, 10368, 11520, 13056, 13632, 14784, 16512, 17664, 19200, 20736,
    23040, 24640, 25600, 27520, 28480, 33024,
)

DEFAULT_B8_BASE_DB = -5.0
DEFAULT_B8_STEP_DB = 1.0
# 2-vs-8-iteration margin per modulation, and the MCS 10 exception
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


def default_calibration():
    """Build the shipped calibration as a plain dict (JSON-serializable)."""
    mcs = []
    for m, tb in enumerate(TB_BITS_45RB):
        mod = modulation_for_index(m)
        b8 = DEFAULT_B8_BASE_DB + DEFAULT_B8_STEP_DB * m
        margin = DEFAULT_MCS10_MARGIN_DB if m == 10 else DEFAULT_MARGIN_DB[mod]
        waterfall = [[a, b8 + margin * w]
                     for a, w in zip(DEFAULT_ITER_SLOPES, DEFAULT_ITER_WEIGHTS)]
        mcs.append(
            {"index": m, "modulation": mod, "tb_bits": tb, "waterfall": waterfall}
        )
    return {"schema_version": CALIBRATION_SCHEMA_VERSION, "i_max": DEFAULT_I_MAX,
            "mcs": mcs}
