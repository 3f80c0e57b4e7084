"""Record the pinned outputs that the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json whole. The bed part holds every Poisson
design point's COP violations, maximum threshold count and gap at the
default seed (about 15 minutes on one core); the fixtures part holds the exit code and the sha256 of stdout and
of every file `stochinv solve` writes for each file in instances/. Record
only at a commit whose outputs are trusted: a later run that differs from
these values counts as failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import prepare_imports
from workloads import DEFAULT_SEED, REFERENCE_PATH, Bed, Fixtures


def record_bed() -> dict:
    bed = Bed()
    bed.setup(DEFAULT_SEED)
    out = {}
    for point in sorted(bed.order, key=lambda pt: pt.key):
        _, report = bed.run_unit(point)
        (result,) = report.results
        if result.error is not None:
            raise SystemExit(f"{point.key}: {result.error}")
        out[point.key] = {"cop_violations": list(result.cop_violations),
                          "max_thresholds": result.max_thresholds,
                          "gap": result.gap}
    return out


def record_fixtures() -> dict:
    fixtures = Fixtures()
    fixtures.setup(DEFAULT_SEED)
    try:
        out = {}
        for path in fixtures.paths:
            _, result = fixtures.run_unit(path)
            out[path.name] = fixtures.outputs(*result)
        return out
    finally:
        fixtures.close()


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    prepare_imports()
    reference = {"bed": record_bed(), "fixtures": record_fixtures()}
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
