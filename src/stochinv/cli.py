"""Command-line interface.

Subcommands: solve, simulate, search-cex, benchmark. All runs are
deterministic given flags and seeds; repeated invocations produce
byte-identical output files. solve solves whole grid rows, which the
tables CSV writes. simulate and benchmark take no grid flags: they solve
each instance on its certified tables alone, each period only on its row
of the slide-aware cone of Instance.cone, up to the instance's
Instance.top. simulate prices policies exactly, in one forward pass that
checks the optimal price against the solved value whichever --policy is
asked for, and takes no seed.

Exit codes: 0 success (including a solve whose policy violates the
continuous order property, which is reported, or whose grid may miss a
band, which is warned of on stderr: at a finite capacity where a
period's certified floor lies above its decision level, at B = inf with
p > v where a period reads no band); 2 usage, instance-file and
output-file errors (no subcommand leaves a partial output: a run that
fails or is interrupted removes every file and directory it made, and
search-cex refuses an --out that cannot be a directory before it
searches); 3 grid, numerical or
malformed-band errors: a grid that ends below the instance's structural
top or whose certified floor exact_from(1) lies above its top (both
refused before solving) and a period that orders only below its
certified floor exact_from (`solve` then writes no file), and an optimal
policy whose exact cost does not reproduce the solved value.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import suppress
from functools import partial
from itertools import takewhile
from pathlib import Path

from .cex import CexSearchParams, search_cop_violations
from .demand import PARAMETRIC_FAMILIES
from .files import InstanceFormatError, dump_instance, load_instance, thresholds_csv
from .policy import MalformedTable, check_cop, read_policy
from .sdp import DEFAULT_GRID, Grid, GridSpanError, solve
from .simulate import SimulationError, _percent_gap, _price
from .testbed import build_design, run_benchmark

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochinv",
        description="Capacitated stochastic lot sizing: solve, analyze, price.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance and extract thresholds")
    p_solve.add_argument("instance", help="instance file (JSON)")
    p_solve.add_argument("--grid-min", type=int, default=DEFAULT_GRID.x_min,
                         help="lowest inventory state on the grid")
    p_solve.add_argument("--grid-max", type=int, default=DEFAULT_GRID.x_max,
                         help="highest inventory state on the grid")
    p_solve.add_argument("--out", default=None,
                         help="output prefix (default: instance path sans extension)")

    p_sim = sub.add_parser("simulate", help="exact expected cost of each policy")
    p_sim.add_argument("instance", help="instance file (JSON)")
    p_sim.add_argument("--policy", choices=("optimal", "modified-ss", "both"),
                       default="both", help="which policy to price")

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


class _Outputs:
    """The files and directories one run makes.

    As the context of a command, it removes all of them, newest first,
    when the run raises anything, KeyboardInterrupt included, and then
    re-raises, so that no run leaves a partial output. A path that existed
    before the run is left as it was unless the run writes it.
    """

    def __init__(self):
        self._undo = []

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if kind is not None:
            for undo in reversed(self._undo):
                # rmdir takes only an empty directory: never one the run
                # found holding files
                with suppress(OSError):
                    undo()

    def makedirs(self, path) -> None:
        """os.makedirs(path, exist_ok=True), recording each directory it
        makes."""
        target = Path(path)
        missing = takewhile(lambda d: not d.exists(), (target, *target.parents))
        self._undo += [partial(os.rmdir, d) for d in reversed(list(missing))]
        os.makedirs(path, exist_ok=True)

    def probe(self, path) -> None:
        """Open path to append and close it, so that an unwritable path
        fails before the work; recorded only when the probe makes it."""
        if not os.path.lexists(path):
            self._undo.append(partial(os.unlink, path))
        open(path, "a").close()

    def write(self, writes) -> None:
        """write(path) for each (path, write) pair, in order, recording
        each file before it is written; an error naming no file (ENOSPC)
        is given the failing path."""
        for path, write in writes:
            self._undo.append(partial(os.unlink, path))
            try:
                write(path)
            except OSError as exc:
                exc.filename = exc.filename or path
                raise


def cmd_solve(args, outputs: _Outputs) -> int:
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
    if instance.B != math.inf:
        # at and below its decision level a period takes one decision, so
        # only a floor above the level can miss a band (Instance._levels)
        for period, (level, _) in enumerate(instance._levels, start=1):
            if tables.exact_from(period) > level:
                print(f"warning: period {period} is certified only from "
                      f"exact_from = {tables.exact_from(period)}, above its "
                      f"decision level {level}; its bands may be incomplete, "
                      "widen the grid downward", file=sys.stderr)
    elif instance.p > instance.v:
        # At B = inf with p > v every period orders at some state. For x <=
        # dmin_n, G_n(x) = v x + p (mu_n - x), of slope v - p < 0, so G_n
        # rises without bound as x falls. C_{t+1}(y) + v y >= min G_{t+1},
        # finite by induction, so below dmin_t G_t(x) >= c_t + (v (1 -
        # discount) - p) x, whose slope is negative too: G_t rises without
        # bound as x falls, and far enough down it exceeds K + min G_t.
        # Hence a period that orders nowhere on its certified range orders
        # only below it, where its one band lies.
        for period, pairs in enumerate(policy.bands, start=1):
            if not pairs:
                print(f"warning: period {period} orders at no state from "
                      f"exact_from = {tables.exact_from(period)} up, but at "
                      "B = inf with p > v it orders below; its band is "
                      "missing, widen the grid downward", file=sys.stderr)

    writes = {"value tables": (tables_path, tables.to_csv)}
    if len(policy.cop_violated) < instance.horizon:
        writes["thresholds"] = (
            thresholds_path,
            lambda path: Path(path).write_text(thresholds_csv(policy)))
    if policy.cop_violated:   # each line describes the whole grid row
        report = "".join(f"period {t}: {check_cop(tables, t).describe()}\n"
                         for t in policy.cop_violated)
        writes["order-property report"] = (
            report_path, lambda path: Path(path).write_text(report))
    outputs.write(writes.values())

    for period in policy.cop_violated:
        print(f"warning: continuous order property violated, period {period}")
    for label, (path, _) in writes.items():
        print(f"{label}: {path}")
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


def cmd_simulate(args, outputs: _Outputs) -> int:
    tables = solve(load_instance(args.instance))
    # one checked forward pass; the optimal policy alone reads no bands
    policy = None if args.policy == "optimal" else read_policy(tables).top()
    opt, heur = _price(tables, policy, 0)
    if args.policy != "modified-ss":
        print(f"optimal: expected cost {opt:.6f}")
    if heur is not None:
        print(f"modified-ss: expected cost {heur:.6f}")
    if args.policy == "both":
        print(f"gap: {_percent_gap(heur, opt):.3f}%")
    return EXIT_OK


def cmd_search_cex(args, outputs: _Outputs) -> int:
    try:
        params = CexSearchParams(seed=args.seed, budget=args.budget,
                                 equal_masses=args.equal_masses)
    except ValueError as exc:
        raise _flag_error(exc, {"seed": "--seed", "budget": "--budget"}) from None
    # a --out that cannot be a directory fails here, before the search
    outputs.makedirs(args.out)
    violations = search_cop_violations(params)

    manifest_path = os.path.join(args.out, "manifest.csv")
    lines = ["seed,index,period,witness_lo,witness_hi\n"]
    for v in violations:
        lo, hi = v.report.violation_witness
        lines.append(f"{args.seed},{v.index},{v.period},{lo},{hi}\n")
    manifest = "".join(lines)
    outputs.write([(manifest_path, lambda path: Path(path).write_text(manifest)),
                   *((os.path.join(args.out, f"violator_{v.index}.json"),
                      partial(dump_instance, v.instance)) for v in violations)])

    print(f"screened {args.budget} instances, {len(violations)} violation(s)")
    for v in violations:
        print(f"  index {v.index}: period {v.period}, "
              f"witness {v.report.violation_witness}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_benchmark(args, outputs: _Outputs) -> int:
    design = build_design((args.family,), scale=args.scale)
    out = args.out if args.out is not None else f"benchmark_{args.family}.csv"
    # fail on an unwritable pivot path before pricing the bed, not after
    outputs.probe(out)
    report = run_benchmark(design)
    outputs.write([(out, report.to_csv)])

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
        with _Outputs() as outputs:
            return _COMMANDS[args.command](args, outputs)
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
