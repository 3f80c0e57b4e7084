"""Modified (s, S) heuristic, the one-band case of the modified multi-(s, S)
policy: each period keeps only the top band that read_policy reads off the
solved tables from the period's certified floor exact_from, so it orders
up to S, or as close as capacity allows, whenever inventory is at or
below s. Like read_policy, it raises GridSpanError when a period orders
only below that floor. It is read_policy(tables).top() by name, which
CLI simulate takes directly; the name stays public.
"""

from __future__ import annotations

from .policy import ThresholdPolicy, read_policy
from .sdp import ValueTables


def modified_ss_from_tables(tables: ValueTables) -> ThresholdPolicy:
    """Each period's top band (s_m, S_m = s_m + Qstar(s_m)) of read_policy.

    Where the continuous order property holds from the certified floor this
    is the period's last (s_k, S_k) pair; where it fails, it is the
    stand-in band and the period is flagged in cop_violated.
    """
    return read_policy(tables).top()
