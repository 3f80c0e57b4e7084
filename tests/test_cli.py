import dataclasses
import json
import math

import pytest

from conftest import instance_path
from stochinv import (InstanceFormatError, MalformedTable, ThresholdPolicy,
                      load_instance, parse_instance, read_policy,
                      serialize_instance, solve, thresholds_csv)
from stochinv import cli
from stochinv.cli import main

FIXTURES = ("seasonal_poisson", "spiky_nonstationary", "lumpy_discounted",
            "volatile_poisson")

# the workflow's five bed pivot steps (.github/workflows/tests.yml), run
# in-process: family -> (scale, the pivot CSV's bytes, and the stdout, with
# {out} for the pivot's path, where the step checks it). The lognormal and
# geometric bytes were recorded by solving every point from its structural
# bottom to its structural top through an outer grid of +-1,000,000.
BED_PIVOTS = {
    "poisson": ("0.02", (
        b"dimension,level,avg_gap_pct,max_gap_pct,max_thresholds,instances\r\n"
        b"K,250,0.212,1.012,3,5\r\n"
        b"K,500,0.104,0.572,4,6\r\n"
        b"K,1000,0.006,0.034,5,7\r\n"
        b"v,2,0.131,1.012,4,8\r\n"
        b"v,5,0.090,0.572,5,7\r\n"
        b"v,10,0.016,0.047,3,3\r\n"
        b"p,5,0.016,0.047,3,3\r\n"
        b"p,10,0.148,1.012,4,11\r\n"
        b"p,15,0.013,0.034,5,4\r\n"
        b"b_mult,2,0.174,1.012,3,6\r\n"
        b"b_mult,3,0.080,0.572,4,8\r\n"
        b"b_mult,4,0.011,0.034,5,4\r\n"
        b"pattern,EMP1,0.007,0.007,3,1\r\n"
        b"pattern,EMP2,0.006,0.006,4,1\r\n"
        b"pattern,EMP3,0.047,0.047,3,1\r\n"
        b"pattern,EMP4,0.539,1.012,5,3\r\n"
        b"pattern,LC1,0.009,0.019,3,2\r\n"
        b"pattern,LC2,0.000,0.000,1,1\r\n"
        b"pattern,RAND,0.024,0.024,2,1\r\n"
        b"pattern,SIN1,0.002,0.005,3,4\r\n"
        b"pattern,SIN2,0.000,0.000,1,1\r\n"
        b"pattern,STA,0.001,0.002,2,3\r\n"
        b"Overall,,0.096,1.012,5,18\r\n"
    ), None),
    "gamma": ("0.01", (
        b"dimension,level,avg_gap_pct,max_gap_pct,max_thresholds,instances\r\n"
        b"K,250,0.106,0.365,4,8\r\n"
        b"K,500,0.033,0.214,4,12\r\n"
        b"K,1000,0.008,0.029,4,5\r\n"
        b"v,2,0.073,0.214,4,8\r\n"
        b"v,5,0.048,0.365,4,9\r\n"
        b"v,10,0.034,0.153,4,8\r\n"
        b"p,5,0.007,0.029,3,4\r\n"
        b"p,10,0.087,0.214,4,8\r\n"
        b"p,15,0.043,0.365,4,13\r\n"
        b"b_mult,2,0.032,0.162,2,5\r\n"
        b"b_mult,3,0.052,0.214,4,11\r\n"
        b"b_mult,4,0.062,0.365,4,9\r\n"
        b"pattern,EMP1,0.111,0.214,3,2\r\n"
        b"pattern,EMP2,0.038,0.103,4,4\r\n"
        b"pattern,EMP3,0.213,0.365,3,2\r\n"
        b"pattern,EMP4,0.000,0.000,3,2\r\n"
        b"pattern,LC1,0.017,0.052,4,3\r\n"
        b"pattern,LC2,0.000,0.000,2,1\r\n"
        b"pattern,RAND,0.070,0.153,4,3\r\n"
        b"pattern,SIN1,0.015,0.053,4,4\r\n"
        b"pattern,SIN2,0.054,0.162,2,3\r\n"
        b"pattern,STA,0.000,0.000,1,1\r\n"
        b"cv,0.1,0.058,0.162,4,8\r\n"
        b"cv,0.2,0.091,0.365,4,8\r\n"
        b"cv,0.3,0.010,0.061,3,9\r\n"
        b"Overall,,0.051,0.365,4,25\r\n"
    ), None),
    "normal": ("0.01", (
        b"dimension,level,avg_gap_pct,max_gap_pct,max_thresholds,instances\r\n"
        b"K,250,0.226,1.458,3,9\r\n"
        b"K,500,0.014,0.113,3,9\r\n"
        b"K,1000,0.040,0.138,4,7\r\n"
        b"v,2,0.228,1.458,4,7\r\n"
        b"v,5,0.045,0.115,4,5\r\n"
        b"v,10,0.048,0.254,3,13\r\n"
        b"p,5,0.010,0.105,3,12\r\n"
        b"p,10,0.122,0.254,4,5\r\n"
        b"p,15,0.215,1.458,4,8\r\n"
        b"b_mult,2,0.033,0.214,3,10\r\n"
        b"b_mult,3,0.186,1.458,3,10\r\n"
        b"b_mult,4,0.051,0.138,4,5\r\n"
        b"pattern,EMP1,0.856,1.458,3,2\r\n"
        b"pattern,EMP2,0.155,0.214,4,3\r\n"
        b"pattern,EMP3,0.000,0.000,2,1\r\n"
        b"pattern,EMP4,0.062,0.113,3,4\r\n"
        b"pattern,LC1,0.003,0.009,2,4\r\n"
        b"pattern,LC2,0.000,0.000,1,2\r\n"
        b"pattern,RAND,0.002,0.004,2,2\r\n"
        b"pattern,SIN1,0.000,0.000,2,2\r\n"
        b"pattern,SIN2,0.002,0.003,3,2\r\n"
        b"pattern,STA,0.000,0.000,1,3\r\n"
        b"cv,0.1,0.287,1.458,3,6\r\n"
        b"cv,0.2,0.061,0.214,4,10\r\n"
        b"cv,0.3,0.012,0.105,3,9\r\n"
        b"Overall,,0.098,1.458,4,25\r\n"
    ), None),
    "lognormal": ("0.01", (
        b"dimension,level,avg_gap_pct,max_gap_pct,max_thresholds,instances\r\n"
        b"K,250,0.028,0.095,5,9\r\n"
        b"K,500,0.024,0.062,3,6\r\n"
        b"K,1000,0.005,0.024,3,10\r\n"
        b"v,2,0.020,0.059,5,7\r\n"
        b"v,5,0.025,0.095,4,8\r\n"
        b"v,10,0.009,0.041,4,10\r\n"
        b"p,5,0.009,0.059,4,9\r\n"
        b"p,10,0.025,0.095,3,10\r\n"
        b"p,15,0.018,0.045,5,6\r\n"
        b"b_mult,2,0.028,0.095,5,11\r\n"
        b"b_mult,3,0.013,0.059,4,6\r\n"
        b"b_mult,4,0.007,0.041,4,8\r\n"
        b"pattern,EMP1,0.062,0.062,3,1\r\n"
        b"pattern,EMP2,0.017,0.059,3,4\r\n"
        b"pattern,EMP3,0.013,0.029,2,3\r\n"
        b"pattern,EMP4,0.033,0.095,3,4\r\n"
        b"pattern,LC1,0.000,0.000,2,1\r\n"
        b"pattern,LC2,0.007,0.015,5,2\r\n"
        b"pattern,RAND,0.020,0.041,4,2\r\n"
        b"pattern,SIN1,0.001,0.003,3,2\r\n"
        b"pattern,SIN2,0.045,0.045,2,1\r\n"
        b"pattern,STA,0.007,0.034,3,5\r\n"
        b"cv,0.1,0.028,0.062,5,8\r\n"
        b"cv,0.2,0.005,0.029,3,9\r\n"
        b"cv,0.3,0.021,0.095,3,8\r\n"
        b"Overall,,0.018,0.095,5,25\r\n"
    ), ("lognormal: 25 instances, 0 order-property violation(s), 0 error(s)\n"
        "gap avg 0.018%  max 0.095%\n"
        "pivot: {out}\n")),
    "geometric": ("0.01", (
        b"dimension,level,avg_gap_pct,max_gap_pct,max_thresholds,instances\r\n"
        b"K,250,0.000,0.000,2,2\r\n"
        b"K,500,0.001,0.002,2,4\r\n"
        b"K,1000,0.000,0.000,1,5\r\n"
        b"v,2,0.000,0.000,1,2\r\n"
        b"v,5,0.000,0.000,2,5\r\n"
        b"v,10,0.001,0.002,2,4\r\n"
        b"p,5,0.000,0.000,2,4\r\n"
        b"p,10,0.000,0.000,2,3\r\n"
        b"p,15,0.001,0.002,2,4\r\n"
        b"b_mult,2,0.000,0.000,2,3\r\n"
        b"b_mult,3,0.000,0.000,2,4\r\n"
        b"b_mult,4,0.001,0.002,2,4\r\n"
        b"pattern,EMP1,0.002,0.002,2,1\r\n"
        b"pattern,EMP2,0.000,0.000,2,1\r\n"
        b"pattern,EMP3,0.000,0.000,1,1\r\n"
        b"pattern,EMP4,0.000,0.000,2,1\r\n"
        b"pattern,LC1,0.000,0.000,1,1\r\n"
        b"pattern,LC2,0.000,0.000,1,1\r\n"
        b"pattern,RAND,0.000,0.000,1,2\r\n"
        b"pattern,SIN1,0.000,0.000,2,1\r\n"
        b"pattern,SIN2,0.000,0.000,1,1\r\n"
        b"pattern,STA,0.000,0.000,1,1\r\n"
        b"Overall,,0.000,0.002,2,11\r\n"
    ), ("geometric: 11 instances, 0 order-property violation(s), 0 error(s)\n"
        "gap avg 0.000%  max 0.002%\n"
        "pivot: {out}\n")),
}


def fixture_doc(name):
    with open(instance_path(name + ".json")) as handle:
        return json.load(handle)


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_parse_serialize_parse_is_identity(self, name):
        instance = load_instance(instance_path(name + ".json"))
        doc = serialize_instance(instance)
        again = parse_instance(json.loads(json.dumps(doc)))
        assert again == instance
        assert serialize_instance(again) == doc

    def test_family_specs_become_explicit(self):
        doc = fixture_doc("seasonal_poisson")
        assert any("family" in spec for spec in doc["demands"])
        out = serialize_instance(parse_instance(doc))
        assert all(set(spec) == {"values", "probs"} for spec in out["demands"])
        assert "discount" in out

    def test_unbounded_capacity_spelling(self):
        doc = fixture_doc("seasonal_poisson")
        doc["B"] = "inf"
        instance = parse_instance(doc)
        assert instance.B == math.inf
        assert serialize_instance(instance)["B"] == "inf"


class TestStrictParsing:
    def base(self):
        return {
            "horizon": 1, "K": 10.0, "v": 0.0, "h": 1.0, "p": 5.0, "B": 10,
            "demands": [{"values": [3], "probs": [1.0]}],
        }

    def test_unknown_top_level_key(self):
        doc = self.base()
        doc["discuont"] = 0.9
        with pytest.raises(InstanceFormatError, match="unknown keys"):
            parse_instance(doc)

    def test_missing_key(self):
        doc = self.base()
        del doc["p"]
        with pytest.raises(InstanceFormatError, match="missing keys"):
            parse_instance(doc)

    def test_unknown_demand_key(self):
        doc = self.base()
        doc["demands"] = [{"values": [3], "probs": [1.0], "mode": 3}]
        with pytest.raises(InstanceFormatError, match=r"demands\[0\]"):
            parse_instance(doc)

    def test_mixed_demand_spec(self):
        doc = self.base()
        doc["demands"] = [{"values": [3], "probs": [1.0], "family": "poisson"}]
        with pytest.raises(InstanceFormatError):
            parse_instance(doc)

    def test_half_of_a_pmf(self):
        doc = self.base()
        doc["demands"] = [{"values": [3]}]
        with pytest.raises(InstanceFormatError, match="need both"):
            parse_instance(doc)

    def test_bad_capacity(self):
        for bad in (True, "Inf", "unbounded"):
            doc = self.base()
            doc["B"] = bad
            with pytest.raises(InstanceFormatError):
                parse_instance(doc)

    def test_length_mismatch_is_wrapped(self):
        doc = self.base()
        doc["demands"] = [{"values": [3, 4], "probs": [1.0]}]
        with pytest.raises(InstanceFormatError, match=r"demands\[0\]"):
            parse_instance(doc)

    def test_not_an_object(self):
        with pytest.raises(InstanceFormatError):
            parse_instance([1, 2, 3])

    def test_missing_file(self):
        with pytest.raises(InstanceFormatError, match="cannot read"):
            load_instance("/nonexistent/path.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InstanceFormatError):
            load_instance(path)


class TestThresholdsCsv:
    def test_seasonal_layout(self, seasonal_tables):
        assert thresholds_csv(read_policy(seasonal_tables[65])) == (
            "period,k,s,S\n"
            "1,1,-11,31\n"
            "1,2,14,70\n"
            "2,1,-5,51\n"
            "2,2,28,82\n"
            "2,3,35,100\n"
            "3,1,18,71\n"
            "3,2,55,109\n"
            "4,1,28,49\n"
        )

    def test_flagged_periods_are_skipped(self):
        policy = ThresholdPolicy((((1, 5),), ((2, 6), (4, 9)), ()), (1,))
        assert thresholds_csv(policy) == "period,k,s,S\n2,1,2,6\n2,2,4,9\n"


class TestSolveCommand:
    def run_seasonal(self, tmp_path, tag):
        out = tmp_path / tag
        rc = main(["solve", instance_path("seasonal_poisson.json"),
                   "--grid-min", "-300", "--grid-max", "600",
                   "--out", str(out)])
        return rc, out

    def test_writes_tables_and_thresholds(self, tmp_path, capsys):
        rc, out = self.run_seasonal(tmp_path, "a")
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "warning" not in stdout
        assert "     1  (-11,31) (14,70)" in stdout
        assert (tmp_path / "a_tables.csv").exists()
        lines = (tmp_path / "a_thresholds.csv").read_text().splitlines()
        assert lines[0] == "period,k,s,S"
        assert lines[-1] == "4,1,28,49"

    def test_reruns_are_byte_identical(self, tmp_path):
        _, first = self.run_seasonal(tmp_path, "a")
        _, second = self.run_seasonal(tmp_path, "b")
        for suffix in ("_tables.csv", "_thresholds.csv"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == \
                   (tmp_path / ("b" + suffix)).read_bytes()

    def test_order_property_violation_is_reported_not_fatal(self, tmp_path, capsys):
        rc = main(["solve", instance_path("spiky_nonstationary.json"),
                   "--grid-min", "-1000", "--grid-max", "1100",
                   "--out", str(tmp_path / "spiky")])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "warning: continuous order property violated, period 1" in stdout
        report = (tmp_path / "spiky_cop_report.txt").read_text()
        assert report.startswith("period 1:")
        csv_text = (tmp_path / "spiky_thresholds.csv").read_text()
        assert "\n1," not in csv_text
        assert "\n2," in csv_text

    def test_rerun_removes_files_it_does_not_write(self, tmp_path, capsys,
                                                   monkeypatch):
        out = str(tmp_path / "run")
        spiky = ["solve", instance_path("spiky_nonstationary.json"),
                 "--grid-min", "-1000", "--grid-max", "1100", "--out", out]
        seasonal = ["solve", instance_path("seasonal_poisson.json"),
                    "--grid-min", "-300", "--grid-max", "600", "--out", out]
        report = tmp_path / "run_cop_report.txt"
        thresholds = tmp_path / "run_thresholds.csv"

        assert main(seasonal) == 0
        clean_stdout = capsys.readouterr().out
        clean_thresholds = thresholds.read_bytes()
        assert main(spiky) == 0
        assert report.exists()
        capsys.readouterr()
        assert main(seasonal) == 0
        assert capsys.readouterr().out == clean_stdout
        assert not report.exists()
        assert thresholds.read_bytes() == clean_thresholds

        # every period violated: no thresholds file, so the old one goes
        def always_violated(tables):
            return ThresholdPolicy((((0, 1),),) * 4, (1, 2, 3, 4))

        monkeypatch.setattr(cli, "read_policy", always_violated)
        assert main(seasonal) == 0
        assert "thresholds:" not in capsys.readouterr().out
        assert not thresholds.exists()
        assert report.read_text().startswith("period 1: ")

    def test_parse_failure_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"horizon": 1}')
        rc = main(["solve", str(bad), "--out", str(tmp_path / "bad")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("field,value", [
        ("horizon", 4.0), ("horizon", True), ("h", math.nan), ("discount", True)])
    def test_ill_typed_instance_is_a_usage_error(self, tmp_path, capsys,
                                                 field, value):
        doc = fixture_doc("seasonal_poisson")
        if field == "horizon" and value is True:
            doc["demands"] = doc["demands"][:1]
        doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["solve", str(bad), "--grid-min", "-300", "--grid-max", "600",
                   "--out", str(tmp_path / "bad")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("spec", [
        {"family": "normal", "mean": 5, "cv": math.inf},
        {"family": "normal", "mean": math.inf, "cv": 0.2},
        {"family": "poisson", "mean": math.inf},
        {"family": "discrete_uniform", "mean": math.inf},
        {"values": [3, 4], "probs": [math.nan, 1.0]},
    ], ids=["normal-cv", "normal-mean", "poisson-mean", "uniform-mean",
            "empirical-nan-mass"])
    def test_non_finite_demand_parameter_is_a_usage_error(self, tmp_path,
                                                          capsys, spec):
        doc = {"horizon": 1, "K": 10.0, "v": 0.0, "h": 1.0, "p": 5.0,
               "B": 10, "demands": [spec]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["solve", str(bad), "--out", str(tmp_path / "bad")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: demands[0]: ") and "finite" in err
        assert sorted(tmp_path.iterdir()) == [bad]

    def test_boolean_demand_mean_is_a_usage_error(self, tmp_path, capsys):
        doc = {"horizon": 1, "K": 10.0, "v": 0.0, "h": 1.0, "p": 5.0,
               "B": 10, "demands": [{"family": "poisson", "mean": True}]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["solve", str(bad), "--out", str(tmp_path / "bad")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: demands[0]: mean must be a number, not a boolean\n")
        assert sorted(tmp_path.iterdir()) == [bad]

    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "seasonal"
        rc = main(["solve", instance_path("seasonal_poisson.json"),
                   "--grid-min", "-300", "--grid-max", "600", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {out}_tables.csv: ")
        assert list(tmp_path.iterdir()) == []

    def test_spiky_report_on_the_default_grid(self, tmp_path, capsys):
        # the report describes the whole grid row, not only the certified part
        out = tmp_path / "spiky"
        rc = main(["solve", instance_path("spiky_nonstationary.json"),
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "spiky_cop_report.txt").read_text() == (
            "period 1: continuous order property violated; ordering set "
            "[-10000, 601], [616, 618]; no order at 615 but order at 616\n")

    def test_uncertified_period_writes_nothing(self, tmp_path, capsys):
        out = str(tmp_path / "volatile")
        stale = [tmp_path / ("volatile" + suffix) for suffix in
                 ("_tables.csv", "_thresholds.csv", "_cop_report.txt")]
        for path in stale:
            path.write_text("from an earlier run\n")
        rc = main(["solve", instance_path("volatile_poisson.json"),
                   "--grid-min", "-1200", "--grid-max", "1704", "--out", out])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: period 1 orders only below")
        assert "exact_from = 425" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_grid_below_the_top_writes_nothing(self, tmp_path, capsys):
        # the structural top is 330: period 1's bands would read (-13,26)
        # (13,60) off a grid cut at 60, where the instance's are (-11,31)
        # (14,70)
        out = str(tmp_path / "seasonal")
        stale = tmp_path / "seasonal_tables.csv"
        stale.write_text("from an earlier run\n")
        rc = main(["solve", instance_path("seasonal_poisson.json"),
                   "--grid-min", "-300", "--grid-max", "60", "--out", out])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: grid top 60 lies below the structural "
                                "top 330; widen the grid upward\n")
        assert list(tmp_path.iterdir()) == []

    def test_grid_too_narrow(self, capsys):
        rc = main(["solve", instance_path("seasonal_poisson.json"),
                   "--grid-min", "-5", "--grid-max", "10"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err


class TestSimulateCommand:
    ARGS = ["simulate", instance_path("lumpy_discounted.json"),
            "--grid-min", "-200", "--grid-max", "400"]
    OPTIMAL = "optimal: expected cost 223.032370\n"
    HEURISTIC = "modified-ss: expected cost 223.775070\n"

    def test_both_policies_and_gap(self, capsys):
        rc = main(self.ARGS)
        assert rc == 0
        assert capsys.readouterr().out == (self.OPTIMAL + self.HEURISTIC
                                           + "gap: 0.333%\n")

    def test_single_policy_skips_gap(self, capsys):
        rc = main(self.ARGS + ["--policy", "optimal"])
        assert rc == 0
        assert capsys.readouterr().out == self.OPTIMAL
        rc = main(self.ARGS + ["--policy", "modified-ss"])
        assert rc == 0
        assert capsys.readouterr().out == self.HEURISTIC

    def test_optimal_policy_reads_no_bands(self, capsys, monkeypatch):
        def must_not_read(tables):
            raise AssertionError("read bands for the optimal policy")

        monkeypatch.setattr(cli, "modified_ss_from_tables", must_not_read)
        rc = main(self.ARGS + ["--policy", "optimal"])
        assert rc == 0
        assert capsys.readouterr().out == self.OPTIMAL

    def test_optimal_cost_is_checked_against_the_tables(self, capsys,
                                                        monkeypatch):
        # tables solved with twice the shortage cost cannot price the file's
        # instance at their own optimum
        def solve_other_instance(instance, grid):
            return solve(dataclasses.replace(instance, p=2 * instance.p), grid)

        monkeypatch.setattr(cli, "solve", solve_other_instance)
        rc = main(self.ARGS + ["--policy", "optimal"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: exact optimal cost ")
        assert "differs from the solved value" in captured.err

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "4"), ("--max-reps", "1000"), ("--confidence", "0.95"),
        ("--rel-error", "1e-3")])
    def test_sampling_flags_are_gone(self, capsys, monkeypatch, flag, value):
        def must_not_solve(*args, **kwargs):
            raise AssertionError("solved despite an unknown flag")

        monkeypatch.setattr(cli, "solve", must_not_solve)
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + [flag, value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_zero_cost_gap(self, tmp_path, capsys):
        doc = {"horizon": 2, "K": 10.0, "v": 1.0, "h": 1.0, "p": 5.0, "B": 8,
               "demands": [{"values": [0], "probs": [1.0]}] * 2}
        path = tmp_path / "no_demand.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", str(path), "--grid-min", "-20", "--grid-max", "20"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "optimal: expected cost 0.000000\n" in stdout
        assert stdout.endswith("gap: 0.000%\n")

    @pytest.mark.parametrize("name,args,error", [
        # a run from 0 reaches past a grid cut below the top, 140
        ("lumpy_discounted.json", ["--grid-max", "60"],
         "grid top 60 lies below the structural top 140; widen the grid upward"),
        # the optimal policy reads no bands, so nothing else notices that its
        # first period is certified only from -100 + 133 = 33 up
        ("lumpy_discounted.json", ["--grid-min", "-100", "--policy", "optimal"],
         "x0 = 0 lies below the certified floor exact_from(1) = 33; widen "
         "the grid downward"),
        # the start is checked before any cost: priced first, volatile's
        # optimal cost, certified only from -100 + 1625 up, would miss the
        # solved value, as if the numbers were at fault and not the grid
        ("volatile_poisson.json", ["--grid-min", "-100", "--policy", "optimal"],
         "x0 = 0 lies below the certified floor exact_from(1) = 1525; widen "
         "the grid downward"),
    ], ids=["top", "floor", "floor-before-pricing"])
    def test_uncertified_start_is_a_grid_error(self, capsys, name, args, error):
        rc = main(["simulate", instance_path(name), *args])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    def test_malformed_bands_are_a_numerical_error(self, capsys, monkeypatch):
        def malformed(tables):
            raise MalformedTable("period 1: s=7 not below S=7")

        monkeypatch.setattr(cli, "modified_ss_from_tables", malformed)
        rc = main(self.ARGS)
        assert rc == 3
        assert capsys.readouterr().err == "error: period 1: s=7 not below S=7\n"


class TestSearchCexCommand:
    def test_empty_search(self, tmp_path, capsys):
        rc = main(["search-cex", "--seed", "0", "--budget", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "0 violation(s)" in capsys.readouterr().out
        manifest = (tmp_path / "manifest.csv").read_text()
        assert manifest == "seed,index,period,witness_lo,witness_hi\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "manifest.csv"]

    def test_known_violator_manifest(self, tmp_path, capsys):
        rc = main(["search-cex", "--seed", "3", "--budget", "1000",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "index 886: period 2" in capsys.readouterr().out
        manifest = (tmp_path / "manifest.csv").read_text()
        assert manifest == ("seed,index,period,witness_lo,witness_hi\n"
                            "3,886,2,492,493\n")
        violator = load_instance(tmp_path / "violator_886.json")
        assert violator.B == 88

    def test_second_stream_manifest(self, tmp_path, capsys):
        rc = main(["search-cex", "--seed", "174", "--budget", "1000",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "index 610: period 2" in capsys.readouterr().out
        manifest = (tmp_path / "manifest.csv").read_text()
        assert manifest == ("seed,index,period,witness_lo,witness_hi\n"
                            "174,610,2,516,517\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "manifest.csv", "violator_610.json"]

    @pytest.mark.parametrize("flag", ["--seed", "--budget"])
    def test_negative_flag_is_named(self, tmp_path, capsys, flag):
        args = {"--seed": "0", "--budget": "2", flag: "-1"}
        rc = main(["search-cex", *(x for pair in args.items() for x in pair),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag} must be nonnegative\n"
        assert not (tmp_path / "out").exists()


class TestBenchmarkCommand:
    def test_rejects_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["benchmark", "--family", "weibull"])
        assert excinfo.value.code == 2

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        pivots = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            rc = main(["benchmark", "--family", "poisson", "--scale", "0.001",
                       "--out", str(out)])
            assert rc == 0
            pivots.append(out.read_bytes())
        assert pivots[0] == pivots[1]
        assert "0 error(s)" in capsys.readouterr().out

    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys,
                                                monkeypatch):
        def bed_must_not_run(*args, **kwargs):
            raise AssertionError("the bed ran before the output was checked")

        monkeypatch.setattr(cli, "run_benchmark", bed_must_not_run)
        out = tmp_path / "missing" / "pivot.csv"
        rc = main(["benchmark", "--family", "poisson", "--scale", "0.001",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {out}: ")

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["benchmark", "--family", "poisson", "--threads", "1"])
        assert excinfo.value.code == 2

    # the grid flags left with the outer grid: each point is solved on its
    # structural grid
    @pytest.mark.parametrize("flag", ["--seed", "--confidence", "--rel-error",
                                      "--grid-min", "--grid-max"])
    def test_simulation_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["benchmark", "--family", "poisson", flag, "1"])
        assert excinfo.value.code == 2


class TestBedPivots:
    """The workflow's bed pivots, byte for byte. Each point is solved from
    its structural bottom on each period's certified range alone, so each
    step runs the continuation's convolution."""

    @pytest.mark.parametrize("family", sorted(BED_PIVOTS))
    def test_pivot_matches_the_workflow(self, tmp_path, capsys, family):
        scale, pivot, stdout = BED_PIVOTS[family]
        out = tmp_path / f"pivot_{family}.csv"
        rc = main(["benchmark", "--family", family, "--scale", scale,
                   "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == pivot
        if stdout is not None:
            assert capsys.readouterr().out == stdout.format(out=out)
