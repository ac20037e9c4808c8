"""cransim: computational-outage simulation for centralized RAN uplinks."""

__version__ = "0.1.0"

from .link import LinkCurves, McsEntry, load_calibration, segment_tb  # noqa: F401
from .policy import PolicyTable, build_policy_table, snr_margin  # noqa: F401
