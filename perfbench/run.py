"""Benchmark for stochinv: the Poisson bed, the COP search and the CLI fixtures.

    python3 perfbench/run.py --workload bed|search|fixtures|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from src/.
One process, one thread, closed loop: each unit starts when the previous
one has finished and been checked. The last line of stdout is a JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
give the same numbers for a reader, with the run record (machine, library
versions, thread settings, workload size and seed).

--trace 0 measures the end-to-end metrics of BENCHMARK.json on as many
blocks of units as take about `seconds` at the speed of the commit that
added this benchmark. Their times are scaled to a reference host speed,
gauged by a fixed loop run between units (see host_gauge).
--trace 1 takes a fixed set of units (the first block of the seed's
order), runs each unit untraced and traced back to back, repeating the
pass while time remains, and reports the per-layer metrics of
BENCHMARK.json: the median over traced passes of each self time, and
the work counts, which must be equal on every pass. Spans of the last
traced pass are written to perfbench/out/. With --workload all, each
workload runs in a child process of its own, one after another, so that
its peak_rss_mb is its own; the last line then holds every workload's
metrics as `<workload>.<metric>`. The exit code is 1 when any
output check fails and 2 when the checkout has no stochinv sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from itertools import islice
from time import perf_counter, process_time

from workloads import DEFAULT_SEED, INSTANCE_DIR, OUT_DIR, ROOT, WORKLOADS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5        # fresh interpreters timed per run; setup_s is their median
TAIL_BEYOND = 10        # samples the tail percentile must leave above it
GAUGE_REF_S = 0.016     # host_gauge() on a 2-vCPU Xeon VM in a quiet stretch


def prepare_imports() -> None:
    """Pin native thread pools to one thread and put src/ on the path.

    Must run before numpy is imported. Exits with code 2 when the checkout
    has no stochinv sources to benchmark.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "stochinv" / "__init__.py").is_file() or not INSTANCE_DIR.is_dir():
        print(f"error: no stochinv sources under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def declared_metrics(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)[kind]


def run_record(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def setup_probe(workload: str, seed: int) -> float:
    """Import stochinv and build the workload's inputs; return the seconds taken."""
    start = perf_counter()
    import stochinv  # noqa: F401

    wl = WORKLOADS[workload]()
    wl.setup(seed)
    elapsed = perf_counter() - start
    getattr(wl, "close", lambda: None)()
    return elapsed


def timed_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def host_gauge() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed.

    The host is a VM whose speed drifts by up to a third over tens of
    seconds with its neighbours' load, and process CPU time drifts with
    it. Item and set-up times are scaled by GAUGE_REF_S over the mean of
    the gauge readings just before and after them, so they read as on
    the reference host and most of the drift cancels. The loop runs no
    stochinv code, so a change to the package moves scaled times fully.
    """
    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return perf_counter() - start


class Tally:
    """Items attempted and failed, with the first few problems for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, unit, n_items: int, problems: list[str]) -> None:
        self.attempted += n_items
        if problems:
            self.failed += n_items
            self.problems.extend(f"{unit}: {p}" for p in problems[:3])


def tail(blocks: list[list[float]]) -> tuple[float, float, int]:
    """Item time at the highest percentile with TAIL_BEYOND samples above it.

    Taken in every block when each block has enough items (the median of
    the blocks' values is returned, so one slow stretch of a shared machine
    does not set it), else over the whole run. Returns the time, the
    percentile and the sample count it was taken over.
    """
    groups = blocks if min(map(len, blocks)) > TAIL_BEYOND else [sum(blocks, [])]
    values = []
    for group in groups:
        ordered = sorted(group)
        # too few samples for any such percentile: fall back to the maximum
        rank = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
        values.append(ordered[rank])
    return statistics.median(values), 100.0 * (rank + 1) / len(ordered), len(ordered)


def measure(wl, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics of one untraced run.

    A run is a fixed amount of work, `seconds / wl.block_seconds` blocks
    rounded up, so that every run of a workload, and both sides of a
    comparison, time the same items whatever the machine's speed. Each
    block is `wl.block_size` units. Throughput and the median item time
    are medians over blocks of each block's value: a fixtures pass has
    two short files and two long ones, with the run's median item time
    falling in the gap between them, and one slow stretch of the host
    sets at most a few blocks. All times are scaled to the reference
    host's speed (see host_gauge).
    """
    wl.setup(seed)
    n_blocks = max(1, math.ceil(seconds / wl.block_seconds))
    # set-up probes are spread over the run's block boundaries, so that
    # their median samples the host over the whole run
    probe_at = [round(i * n_blocks / (SETUP_PROBES - 1)) for i in range(SETUP_PROBES)]
    setups: list[float] = []
    gauge = [host_gauge()]
    wall_s = 0.0

    def scale() -> float:
        """Factor to the reference host for the time since the last reading."""
        gauge.append(host_gauge())
        return 2 * GAUGE_REF_S / (gauge[-2] + gauge[-1])

    def probe(boundary: int) -> None:
        for _ in range(probe_at.count(boundary)):
            elapsed = timed_setup(wl.name, seed)
            setups.append(elapsed * scale())

    units = wl.units()
    blocks: list[list[float]] = []
    for block in range(n_blocks):
        probe(block)
        blocks.append([])
        for unit in islice(units, wl.block_size):
            times, result = wl.run_unit(unit)
            factor = scale()
            tally.add(unit_label(unit), len(times), wl.check(unit, result))
            blocks[-1].extend(t * factor for t in times)
            wall_s += sum(times)
    probe(n_blocks)
    item_times = sum(blocks, [])
    tail_s, tail_pct, tail_n = tail(blocks)
    print(f"items {len(item_times)} in {len(blocks)} blocks of {wl.block_size} unit(s); "
          f"item_tail_ms is p{tail_pct:.2f} of {tail_n} items"
          f"{' per block, median over blocks' if tail_n < len(item_times) else ''}; "
          f"setup samples {[round(s, 4) for s in setups]} s; items took "
          f"{wall_s:.3f} s of wall time, {sum(item_times):.3f} s at reference speed; "
          f"host gauge median {1e3 * statistics.median(gauge):.2f} ms "
          f"(reference {1e3 * GAUGE_REF_S:.0f} ms)")
    return {
        "items_per_s": statistics.median(len(b) / sum(b) for b in blocks),
        "item_p50_ms": 1e3 * statistics.median(statistics.median(b) for b in blocks),
        "item_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(wl, seed: int, seconds: float, tally: Tally, label: str) -> dict:
    """Per-layer metrics from passes over the first block, each step run twice.

    A pass is the workload's set-up followed by its first block of units.
    Every step runs once untraced and once traced, back to back and in
    alternating order, so the host's slow stretches hit both sides alike;
    the tracer is installed only around the traced runs. Passes repeat
    while `seconds` allows.
    """
    from tracer import Tracer

    wl.setup(seed)
    units = list(islice(wl.units(), wl.block_size))
    tracer = Tracer()
    passes: list[dict] = []
    overheads: list[float] = []
    began = perf_counter()
    while True:
        tracer.reset()
        spent = {False: 0.0, True: 0.0}
        cpu_s = 0.0
        for step, unit in enumerate([None, *units]):
            for traced in (False, True) if step % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                try:
                    cpu = process_time()
                    start = perf_counter()
                    if unit is None:
                        wl.setup(seed)
                    else:
                        times, result = wl.run_unit(unit)
                    spent[traced] += perf_counter() - start
                    if traced:
                        cpu_s += process_time() - cpu
                finally:
                    tracer.uninstall()
                if unit is not None:
                    tally.add(unit_label(unit), len(times), wl.check(unit, result))
        layer = tracer.layer_metrics()
        layer.update({"process.cpu_s": cpu_s, "trace.wall_s": spent[True]})
        passes.append(layer)
        overheads.append(spent[True] / spent[False] - 1.0)
        elapsed = perf_counter() - began
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    counts = [name for name in passes[0] if not isinstance(passes[0][name], float)]
    for later in passes[1:]:
        for name in counts:
            if later.get(name) != passes[0][name]:
                tally.failed += 1
                tally.problems.append(f"trace: count {name} differs between passes")
    merged = {name: statistics.median(p.get(name, 0) for p in passes)
              for name in passes[0]}
    merged["trace.overhead_frac"] = statistics.median(overheads)

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans_{label}.json", "w") as handle:
        json.dump({"missing": tracer.missing, "spans": tracer.spans}, handle)
    core = sum(v for k, v in merged.items() if k.endswith(".self_s")
               and k.split(".")[0] in ("sdp", "policy", "heuristic", "simulate"))
    top = max((k for k in merged if k.endswith(".self_s")), key=merged.get)
    print(f"traced passes {len(passes)} over {len(units)} unit(s); traced wall "
          f"{merged['trace.wall_s']:.3f} s, of which sdp+policy+heuristic+simulate "
          f"self time {core:.3f} s ({100 * core / merged['trace.wall_s']:.1f}%); "
          f"largest self time {top} {merged[top]:.3f} s")
    if tracer.missing:
        print(f"missing stages (reported as 0): {', '.join(tracer.missing)}")
    return merged


def unit_label(unit) -> str:
    return str(getattr(unit, "key", None) or getattr(unit, "name", None)
               or f"seed {getattr(unit, 'seed', unit)}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = WORKLOADS[name]()
    tally = Tally()
    print("run record: " + json.dumps(run_record(name, seed)))
    try:
        if traced:
            values = trace(wl, seed, seconds, tally, f"{name}_seed{seed}")
            declared = declared_metrics("per_layer")
        else:
            values = measure(wl, seed, seconds, tally)
            declared = declared_metrics("end_to_end")
    finally:
        getattr(wl, "close", lambda: None)()

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    for metric, entry in metrics.items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"{name} failed_frac = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} items)")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_children(names: list[str], args) -> dict:
    """Run each workload in a fresh interpreter and merge their results."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        *lines, last = proc.stdout.splitlines() or [""]
        print("\n".join(lines), flush=True)
        if proc.returncode not in (0, 1):
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(last)
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    prepare_imports()

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    if args.workload == "all":
        result = run_children(list(WORKLOADS), args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
