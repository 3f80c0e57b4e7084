"""Tier-1 twins of the workflow's perfbench steps.

The tracer still finds every stage it spans but the two the package no
longer has, and one bed point and one search batch, at the seed their
outputs were recorded at, pass the workload's own output check, which
solves each violator the search finds again through the public solve.
perfbench/ is only read: its modules are loaded from their files, and no
workload that writes files is run.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


def test_the_tracer_misses_only_the_stages_that_are_gone():
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        assert tracer.missing == ["policy.extract_thresholds",
                                  "simulate.simulate_policy"]
    finally:
        tracer.uninstall()


def test_one_bed_point_passes_its_check(workloads):
    bed = workloads.Bed()
    bed.setup(workloads.DEFAULT_SEED)
    point = next(bed.units())
    _, report = bed.run_unit(point)
    assert bed.check(point, report) == []


def test_one_search_batch_passes_its_check(workloads):
    search = workloads.Search()
    search.setup(workloads.DEFAULT_SEED)
    params = next(search.units())
    times, found = search.run_unit(params)
    assert len(times) == params.budget
    assert search.check(params, found) == []
