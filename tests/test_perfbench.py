"""Tier-1 twins of the workflow's perfbench steps.

The tracer still finds every stage it spans but the two the package no
longer has, a traced run misses no count beyond the ones the workflow's
traced step allows, and one bed point and one search batch, at the seed their
outputs were recorded at, pass the workload's own output check, which
solves each violator the search finds again through the public solve.
Each instance file, solved by the CLI on the default grid, gives the
exit code, stdout and files whose sha256 the fixtures workload pins.
perfbench/ is only read: its modules are loaded from their files, and
the CLI writes its files under the test's own temporary directory.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from conftest import INSTANCE_DIR
from stochinv import cli

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


# the stages the workflow's traced step allows on its "missing stages"
# line: the two the package no longer has, and the sdp.solve count, whose
# hook reads ValueTables.C as one array where it is a tuple of rows
EXPECTED_MISSING = {"policy.extract_thresholds", "simulate.simulate_policy",
                    "sdp.solve count"}


def test_a_traced_run_misses_only_the_expected_stages(workloads, tmp_path,
                                                     monkeypatch):
    # one unit of each workload under the tracer, so that every count hook
    # runs on what the package returns
    bed, search = workloads.Bed(), workloads.Search()
    bed.setup(workloads.DEFAULT_SEED)
    search.setup(workloads.DEFAULT_SEED)
    monkeypatch.chdir(tmp_path)
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        bed.run_unit(next(bed.units()))
        search.run_unit(next(search.units()))
        assert cli.main(["solve", str(Path(INSTANCE_DIR, "lumpy_discounted.json")),
                         "--out", "lumpy"]) == 0
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= EXPECTED_MISSING
    assert tracer.counts["files.to_csv.bytes"] > 0


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


FIXTURES = json.loads((PERFBENCH / "reference.json").read_text())["fixtures"]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_each_fixture_matches_its_pins(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["solve", str(Path(INSTANCE_DIR, name)),
                     "--out", Path(name).stem])
    captured = capsys.readouterr()
    stdout = captured.out
    assert captured.err == ""   # no period's floor lies above its decision level
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(tmp_path.iterdir())}
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    assert {"exit": code, "stdout": digest, "files": files} == FIXTURES[name]
