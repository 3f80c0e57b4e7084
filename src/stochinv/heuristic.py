"""Modified (s, S) heuristic, the one-band case of the modified multi-(s, S)
policy: each period keeps only the top band that read_policy reads off the
solved tables, so it orders up to S, or as close as capacity allows,
whenever inventory is at or below s.
"""

from __future__ import annotations

from .policy import ThresholdPolicy, read_policy
from .sdp import ValueTables


def modified_ss_from_tables(tables: ValueTables) -> ThresholdPolicy:
    """Each period's top band (s_m, S_m = s_m + Qstar(s_m)) of read_policy.

    Where the continuous order property holds this is the last pair
    extract_thresholds reports from exact_from(period); where it fails,
    the period is flagged in cop_violated.
    """
    return read_policy(tables).top()
