"""Command-line interface.

Subcommands: solve, simulate, search-cex, benchmark. All runs are
deterministic given flags and seeds; repeated invocations produce
byte-identical output files. simulate prices policies exactly and
takes no seed. benchmark takes no grid flags: it solves each point on
its structural grid, from stochinv.sdp.Reach's bottom to its top.

Exit codes: 0 success (including a solve whose policy violates the
continuous order property, which is reported, not fatal); 2 usage or
instance-file errors; 3 grid, numerical or malformed-band errors, among
them a grid that ends below the instance's structural top (refused
before solving), x0 = 0 below the certified floor exact_from(1)
(`simulate`, before any policy is priced) and a period that orders only
below its certified floor exact_from, all of which leave the grid too
narrow (`solve` then writes no file), and an optimal policy whose exact
cost does not reproduce the solved value.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .cex import CexSearchParams, search_cop_violations
from .demand import PARAMETRIC_FAMILIES
from .files import InstanceFormatError, dump_instance, load_instance, thresholds_csv
from .heuristic import modified_ss_from_tables
from .policy import MalformedTable, check_cop, read_policy
from .sdp import DEFAULT_GRID, Grid, GridSpanError, solve
from .simulate import SimulationError, _percent_gap, expected_cost, optimal_cost
from .testbed import build_design, run_benchmark

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _add_grid_flags(parser):
    parser.add_argument("--grid-min", type=int, default=DEFAULT_GRID.x_min,
                        help="lowest inventory state on the grid")
    parser.add_argument("--grid-max", type=int, default=DEFAULT_GRID.x_max,
                        help="highest inventory state on the grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochinv",
        description="Capacitated stochastic lot sizing: solve, analyze, price.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance and extract thresholds")
    p_solve.add_argument("instance", help="instance file (JSON)")
    _add_grid_flags(p_solve)
    p_solve.add_argument("--out", default=None,
                         help="output prefix (default: instance path sans extension)")

    p_sim = sub.add_parser("simulate", help="exact expected cost of each policy")
    p_sim.add_argument("instance", help="instance file (JSON)")
    p_sim.add_argument("--policy", choices=("optimal", "modified-ss", "both"),
                       default="both", help="which policy to price")
    _add_grid_flags(p_sim)

    p_cex = sub.add_parser("search-cex",
                           help="random search for order-property violations")
    p_cex.add_argument("--seed", type=int, required=True,
                       help="seed for the instance generator stream")
    p_cex.add_argument("--budget", type=int, default=1000,
                       help="number of instances to generate and screen")
    p_cex.add_argument("--equal-masses", action="store_true",
                       help="give the four support points equal probability")
    p_cex.add_argument("--out", default=".",
                       help="directory for violator files and the manifest")

    p_bench = sub.add_parser("benchmark", help="run a demand-family test bed")
    p_bench.add_argument("--family", required=True, choices=PARAMETRIC_FAMILIES,
                         help="demand family to benchmark")
    p_bench.add_argument("--scale", type=float, default=1.0,
                         help="fraction of the full design to run (0, 1]")
    p_bench.add_argument("--out", default=None,
                         help="pivot CSV path (default: benchmark_<family>.csv)")
    return parser


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    out = args.out if args.out is not None else os.path.splitext(args.instance)[0]
    tables_path = out + "_tables.csv"
    thresholds_path = out + "_thresholds.csv"
    report_path = out + "_cop_report.txt"
    for path in (tables_path, thresholds_path, report_path):
        Path(path).unlink(missing_ok=True)   # no earlier run's file stays
    tables = solve(instance, Grid(args.grid_min, args.grid_max))
    # grid errors stop the run before any write
    policy = read_policy(tables)

    tables.to_csv(tables_path)
    for period in policy.cop_violated:
        print(f"warning: continuous order property violated, period {period}")
    print(f"value tables: {tables_path}")
    if len(policy.cop_violated) < instance.horizon:
        with open(thresholds_path, "w") as handle:
            handle.write(thresholds_csv(policy))
        print(f"thresholds: {thresholds_path}")
    if policy.cop_violated:
        with open(report_path, "w") as handle:
            for period in policy.cop_violated:   # describes the whole grid row
                report = check_cop(tables, period)
                handle.write(f"period {period}: {report.describe()}\n")
        print(f"order-property report: {report_path}")

    print("period  (s_k, S_k) pairs")
    for period, pairs in enumerate(policy.bands, start=1):
        if period in policy.cop_violated:
            print(f"{period:>6}  order property violated")
        else:
            text = " ".join(f"({s},{S})" for s, S in pairs)
            print(f"{period:>6}  {text if text else '- never orders -'}")
    return EXIT_OK


def _flag_error(exc: ValueError, flags: dict[str, str]) -> ValueError:
    """A config's "<field> <rule>" error, reworded to name the field's flag."""
    field, rule = str(exc).split(" ", 1)
    return ValueError(f"{flags[field]} {rule}")


def cmd_simulate(args) -> int:
    instance = load_instance(args.instance)
    tables = solve(instance, Grid(args.grid_min, args.grid_max))
    x0 = 0
    tables.check_start(x0)   # the grid's fault, before any cost is read

    costs = {}
    if args.policy != "modified-ss":
        costs["optimal"] = optimal_cost(instance, tables, x0)
    if args.policy != "optimal":
        orders = modified_ss_from_tables(tables).orders(tables.grid, instance.B)
        costs["modified-ss"] = expected_cost(instance, tables.grid, orders, x0)

    for name, cost in costs.items():
        print(f"{name}: expected cost {cost:.6f}")
    if args.policy == "both":
        print(f"gap: {_percent_gap(costs['modified-ss'], costs['optimal']):.3f}%")
    return EXIT_OK


def cmd_search_cex(args) -> int:
    try:
        params = CexSearchParams(seed=args.seed, budget=args.budget,
                                 equal_masses=args.equal_masses)
    except ValueError as exc:
        raise _flag_error(exc, {"seed": "--seed", "budget": "--budget"}) from None
    violations = search_cop_violations(params)

    os.makedirs(args.out, exist_ok=True)
    manifest_path = os.path.join(args.out, "manifest.csv")
    with open(manifest_path, "w") as handle:
        handle.write("seed,index,period,witness_lo,witness_hi\n")
        for v in violations:
            lo, hi = v.report.violation_witness
            handle.write(f"{args.seed},{v.index},{v.period},{lo},{hi}\n")
            dump_instance(v.instance,
                          os.path.join(args.out, f"violator_{v.index}.json"))

    print(f"screened {args.budget} instances, {len(violations)} violation(s)")
    for v in violations:
        print(f"  index {v.index}: period {v.period}, "
              f"witness {v.report.violation_witness}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    design = build_design((args.family,), scale=args.scale)
    out = args.out if args.out is not None else f"benchmark_{args.family}.csv"
    # fail on an unwritable pivot path before pricing the bed, not after
    open(out, "a").close()
    report = run_benchmark(design)
    report.to_csv(out)

    gaps = [r.gap for r in report.results if r.error is None]
    print(f"{args.family}: {len(design)} instances, "
          f"{len(report.cop_violations)} order-property violation(s), "
          f"{len(report.errors)} error(s)")
    if gaps:
        print(f"gap avg {sum(gaps) / len(gaps):.3f}%  max {max(gaps):.3f}%")
    print(f"pivot: {out}")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "search-cex": cmd_search_cex,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GridSpanError, SimulationError, MalformedTable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # instance files are read through load_instance, which reports its
        # own OSError as an InstanceFormatError, so this is an output file
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
