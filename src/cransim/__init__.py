"""cransim: computational-outage simulation for centralized RAN uplinks."""

__version__ = "0.1.0"

from .link import (  # noqa: F401
    LinkCurves,
    McsEntry,
    default_calibration,
    load_calibration,
    segment_tb,
    tb_channel_outage_prob,
)
from .policy import (  # noqa: F401
    MarginReport,
    PolicyTable,
    build_policy_table,
    raw_throughput,
    select_mcs,
    snr_margin,
)
