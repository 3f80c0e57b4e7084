import json
import math

import pytest

from conftest import instance_path
from stochinv import (CopReport, CopViolated, InstanceFormatError,
                      MalformedTable, extract_thresholds, load_instance,
                      parse_instance, serialize_instance, thresholds_csv)
from stochinv import cli
from stochinv.cli import main

FIXTURES = ("seasonal_poisson", "spiky_nonstationary", "lumpy_discounted",
            "volatile_poisson")


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
        entries = [extract_thresholds(seasonal_tables[65], p) for p in range(1, 5)]
        assert thresholds_csv(entries) == (
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
        def always_violated(tables, period):
            raise CopViolated(CopReport(False, ((0, 1), (5, 6)), (4, 5)))

        monkeypatch.setattr(cli, "extract_thresholds", always_violated)
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
        ("horizon", 4.0), ("horizon", True), ("h", math.nan)])
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
    ], ids=["normal-cv", "normal-mean", "poisson-mean", "uniform-mean"])
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

    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "seasonal"
        rc = main(["solve", instance_path("seasonal_poisson.json"),
                   "--grid-min", "-300", "--grid-max", "600", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {out}_tables.csv: ")
        assert list(tmp_path.iterdir()) == []

    def test_grid_too_narrow(self, capsys):
        rc = main(["solve", instance_path("seasonal_poisson.json"),
                   "--grid-min", "-5", "--grid-max", "10"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err


class TestSimulateCommand:
    ARGS = ["simulate", instance_path("lumpy_discounted.json"),
            "--grid-min", "-200", "--grid-max", "400"]

    def test_both_policies_and_gap(self, capsys):
        rc = main(self.ARGS + ["--rel-error", "1e-3", "--seed", "4"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "optimal: mean " in stdout
        assert "modified-ss: mean " in stdout
        assert "gap: " in stdout and stdout.rstrip().endswith("%")

    def test_single_policy_skips_gap(self, capsys):
        rc = main(self.ARGS + ["--rel-error", "1e-3", "--policy", "optimal"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "optimal: mean " in stdout
        assert "modified-ss" not in stdout
        assert "gap" not in stdout

    def test_budget_exhaustion(self, capsys):
        rc = main(self.ARGS + ["--rel-error", "1e-9", "--max-reps", "1000"])
        assert rc == 4
        assert "budget exhausted" in capsys.readouterr().err

    def test_max_reps_below_its_floor(self, capsys):
        rc = main(self.ARGS + ["--max-reps", "500"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: --max-reps must be at least 1000\n"

    @pytest.mark.parametrize("flag,value,rule", [
        ("--rel-error", "0", "must be positive"),
        ("--rel-error", "nan", "must be positive"),
        ("--confidence", "1.5", "must be in (0, 1)"),
        ("--confidence", "0", "must be in (0, 1)"),
        ("--max-reps", "999", "must be at least 1000"),
        ("--seed", "-1", "must be nonnegative"),
    ])
    def test_bad_flag_is_rejected_before_solving(self, capsys, monkeypatch,
                                                 flag, value, rule):
        def must_not_solve(*args, **kwargs):
            raise AssertionError("solved before the flags were checked")

        monkeypatch.setattr(cli, "solve", must_not_solve)
        rc = main(self.ARGS + [flag, value])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag} {rule}\n"

    @pytest.mark.filterwarnings("error")
    def test_zero_cost_gap(self, tmp_path, capsys):
        doc = {"horizon": 2, "K": 10.0, "v": 1.0, "h": 1.0, "p": 5.0, "B": 8,
               "demands": [{"values": [0], "probs": [1.0]}] * 2}
        path = tmp_path / "no_demand.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", str(path), "--grid-min", "-20", "--grid-max", "20"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "optimal: mean 0.000000 +/- 0.000000" in stdout
        assert stdout.endswith("gap: 0.000%\n")

    def test_malformed_bands_are_a_numerical_error(self, capsys, monkeypatch):
        def malformed(tables):
            raise MalformedTable("period 1: s=7 not below S=7")

        monkeypatch.setattr(cli, "modified_ss_from_tables", malformed)
        rc = main(self.ARGS + ["--rel-error", "1e-3"])
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

    @pytest.mark.parametrize("flag", ["--seed", "--confidence", "--rel-error"])
    def test_simulation_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["benchmark", "--family", "poisson", flag, "1"])
        assert excinfo.value.code == 2
