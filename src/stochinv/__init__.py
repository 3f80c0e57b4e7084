"""Finite-horizon capacitated stochastic lot sizing.

Backward dynamic programming over a discrete inventory grid, modified
multi-(s, S) policies read off the solved tables, order-property and
convexity diagnostics, exact and common-random-number policy evaluation,
randomized search for order-property violations, and a benchmark test bed.
"""

from .cex import (CexSearchParams, Violation, random_instance, search_cop_violations,
                  search_grid, v_monotonicity_report)
from .demand import PARAMETRIC_FAMILIES, DemandPMF, pmf_empirical, pmf_parametric
from .files import (InstanceFormatError, dump_instance, load_instance,
                    parse_instance, serialize_instance, thresholds_csv)
from .heuristic import modified_ss_from_tables
from .policy import (CopReport, CopViolated, KBReport, MalformedTable, PeriodThresholds,
                     QcePoint, ThresholdPolicy, check_cop, extract_thresholds,
                     qce_diagnostics, read_policy, verify_kb_convexity)
from .sdp import (DEFAULT_GRID, Grid, GridSpanError, Instance, ValueTables,
                  single_period_cost, solve)
from .simulate import (SimulationConfig, SimulationError, SimulationEstimate,
                       expected_cost, gap_with_estimates, optimality_gap,
                       simulate_policy)
from .testbed import (BenchmarkReport, DesignPoint, PointResult, build_design,
                      demand_patterns, run_benchmark)

__all__ = [
    "BenchmarkReport",
    "CexSearchParams",
    "CopReport",
    "CopViolated",
    "DEFAULT_GRID",
    "DemandPMF",
    "DesignPoint",
    "Grid",
    "GridSpanError",
    "Instance",
    "InstanceFormatError",
    "KBReport",
    "MalformedTable",
    "PARAMETRIC_FAMILIES",
    "PeriodThresholds",
    "PointResult",
    "QcePoint",
    "SimulationConfig",
    "SimulationError",
    "SimulationEstimate",
    "ThresholdPolicy",
    "ValueTables",
    "Violation",
    "build_design",
    "check_cop",
    "demand_patterns",
    "dump_instance",
    "expected_cost",
    "extract_thresholds",
    "gap_with_estimates",
    "load_instance",
    "modified_ss_from_tables",
    "optimality_gap",
    "parse_instance",
    "pmf_empirical",
    "pmf_parametric",
    "qce_diagnostics",
    "random_instance",
    "read_policy",
    "run_benchmark",
    "search_cop_violations",
    "search_grid",
    "serialize_instance",
    "simulate_policy",
    "single_period_cost",
    "solve",
    "thresholds_csv",
    "v_monotonicity_report",
    "verify_kb_convexity",
]
