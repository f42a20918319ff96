"""End-to-end command behavior: exit codes, file layout, reproducibility."""

import json

import numpy as np
import pytest

from ensdiag.cli import main

BASE_SIM = ["simulate", "--n-points", "60", "--classes", "3", "--models", "4", "--seed", "1"]


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert run(BASE_SIM + ["--out", out]) == 0
    return out


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert run(BASE_SIM + ["--out", tmp_path / "a"]) == 0

    def test_validation_error_is_one(self, tmp_path):
        code = run(["decompose", "--manifest", tmp_path / "missing.json", "--out", tmp_path / "b"])
        assert code == 1

    def test_usage_error_is_one(self, tmp_path):
        assert run(["simulate", "--out", tmp_path / "c", "--classes", "not-a-number"]) == 1

    def test_numerical_error_is_two(self, tmp_path):
        # Zero member noise gives a zero diversity curve: the d denominator
        # is nonpositive.
        sim = tmp_path / "flat"
        assert run(BASE_SIM + ["--noise", "0", "--out", sim]) == 0
        code = run([
            "conditional", "--manifest", sim / "manifest.json",
            "--surrogates", "5", "--out", tmp_path / "cond",
        ])
        assert code == 2

    def test_nonempty_out_needs_force(self, tmp_path):
        out = tmp_path / "d"
        assert run(BASE_SIM + ["--out", out]) == 0
        assert run(BASE_SIM + ["--out", out]) == 1
        assert run(BASE_SIM + ["--out", out, "--force"]) == 0


def _drop_key(entries, key):
    del entries[0][key]


MALFORMED_MANIFESTS = {
    "missing_n": (lambda m, d: _drop_key(m["datasets"], "n"), "dataset 'ind'"),
    "missing_files": (lambda m, d: _drop_key(m["models"], "files"), "model 'm000'"),
    "three_element_pair": (lambda m, d: m["pairs"][0].append("ind"), "pair"),
    "models_object": (lambda m, d: m.update(models={e["id"]: e for e in m["models"]}), "'models'"),
    "n_not_integer": (lambda m, d: m["datasets"][0].update(n="abc"), "dataset 'ind'"),
    "missing_labels_file": (lambda m, d: (d / m["datasets"][0]["labels_file"]).unlink(), "dataset 'ind'"),
    "missing_prediction_file": (lambda m, d: (d / m["models"][0]["files"]["ind"]).unlink(), "m000/ind"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_is_one_error_line(sim_dir, tmp_path, capsys, case):
    mutate, expected = MALFORMED_MANIFESTS[case]
    path = sim_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["datasets"][0]["id"] == "ind" and manifest["models"][0]["id"] == "m000"
    mutate(manifest, sim_dir)
    path.write_text(json.dumps(manifest))
    code = run(["decompose", "--manifest", path, "--out", tmp_path / "x"])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and expected in lines[0]


class TestSimulateCommand:
    def test_outputs(self, sim_dir):
        assert (sim_dir / "manifest.json").is_file()
        result = json.loads((sim_dir / "result.json").read_text())
        assert result["command"] == "simulate"
        assert result["spec"]["seed"] == 1
        assert "numpy" in result["versions"]


class TestDecomposeCommand:
    def test_zero_noise_diversity_column(self, tmp_path):
        sim = tmp_path / "flat"
        assert run(BASE_SIM + ["--noise", "0", "--out", sim]) == 0
        out = tmp_path / "dec"
        assert run(["decompose", "--manifest", sim / "manifest.json", "--out", out]) == 0
        header, rows = read_csv(out / "decompose_quadratic_ind.csv")
        div_col = header.index("diversity")
        assert all(float(row[div_col]) == 0.0 for row in rows)

    def test_files_and_aggregates(self, sim_dir, tmp_path):
        out = tmp_path / "dec"
        assert run(["decompose", "--manifest", sim_dir / "manifest.json", "--out", out]) == 0
        for family in ("quadratic", "entropy", "brier_gap", "nll_gap"):
            for ds in ("ind", "ood"):
                assert (out / f"decompose_{family}_{ds}.csv").is_file()
        result = json.loads((out / "result.json").read_text())
        agg = result["aggregates"]["ind"]["quadratic"]
        assert agg["max_abs_residual"] < 1e-10
        assert result["settings"]["nll_eps"] == 1e-12


class TestConditionalCommand:
    def test_outputs_and_settings(self, sim_dir, tmp_path):
        out = tmp_path / "cond"
        code = run([
            "conditional", "--manifest", sim_dir / "manifest.json",
            "--surrogates", "19", "--bins", "50", "--out", out,
        ])
        assert code == 0
        header, rows = read_csv(out / "curves.csv")
        assert header == ["x", "y_ind", "y_ood"]
        assert len(rows) == 50
        result = json.loads((out / "result.json").read_text())
        assert result["n_surrogates"] == 19
        p_scaled = result["p_value"] * 20
        assert abs(p_scaled - round(p_scaled)) < 1e-9
        settings = result["settings"]
        for key in ("bandwidth_ind", "bandwidth_ood", "ridge_ind", "ridge_ood",
                    "grid_size", "trim_percentiles", "nll_eps"):
            assert key in settings
        assert 1 <= settings["krr_rank_ind"] < 60
        assert 1 <= settings["krr_rank_ood"] < 60
        assert settings["pivot_tol"] == 1e-13
        assert settings["grid_size"] == 50
        assert (out / "conditional.svg").is_file()

    def test_unknown_family(self, sim_dir, tmp_path):
        code = run([
            "conditional", "--manifest", sim_dir / "manifest.json",
            "--family", "renyi", "--out", tmp_path / "x",
        ])
        assert code == 1

    @pytest.mark.parametrize("flag,value", [("--bins", 0), ("--bins", 1), ("--subsample", -5)])
    def test_bad_argument_names_flag(self, sim_dir, tmp_path, capsys, flag, value):
        code = run([
            "conditional", "--manifest", sim_dir / "manifest.json",
            flag, value, "--out", tmp_path / "x",
        ])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and flag in err[0]
        assert not (tmp_path / "x").exists()


class TestTrendsCommand:
    def test_single_class_all_row(self, sim_dir, tmp_path):
        out = tmp_path / "tr"
        code = run([
            "trends", "--manifest", sim_dir / "manifest.json",
            "--metric", "brier", "--ensembles", "none", "--out", out,
        ])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        by_class = {row["model_class"]: row for row in result["table"]}
        assert set(by_class) == {"All", "Single Model"}
        assert by_class["All"]["coefficient"] == by_class["Single Model"]["coefficient"]
        assert by_class["All"]["n"] == 4

    def test_table_csv_columns(self, sim_dir, tmp_path):
        out = tmp_path / "tr"
        code = run([
            "trends", "--manifest", sim_dir / "manifest.json",
            "--metric", "01,brier", "--out", out,
        ])
        assert code == 0
        header, rows = read_csv(out / "trend_table.csv")
        assert header == ["metric", "model_class", "coefficient", "std_error",
                          "t_statistic", "p_value", "r2", "n"]
        metrics = {row[0] for row in rows}
        assert metrics == {"zero_one", "brier"}
        assert (out / "trends_zero_one.svg").is_file()
        assert (out / "trend_points.csv").is_file()

    def test_loo_ensembles_and_ratio(self, sim_dir, tmp_path):
        out = tmp_path / "tr"
        code = run([
            "trends", "--manifest", sim_dir / "manifest.json",
            "--metric", "brier", "--out", out,
        ])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert len(result["ensembles"]) == 4
        assert all(len(members) == 3 for members in result["ensembles"])
        assert result["diversity_ratio"] is not None
        assert result["diversity_ratio"]["ratio"] > 0.0

    @pytest.mark.parametrize("content,expected", [
        ([["m000", "m001"], "m002"], "entry 1"),
        ([["m000", 3]], "entry 0"),
        ({"a": ["m000", "m001"]}, "JSON list"),
    ])
    def test_malformed_ensembles_file(self, sim_dir, tmp_path, capsys, content, expected):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(content))
        code = run([
            "trends", "--manifest", sim_dir / "manifest.json",
            "--ensembles", path, "--out", tmp_path / "x",
        ])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: --ensembles") and expected in err[0]
        assert not (tmp_path / "x").exists()

    def test_unknown_metric(self, sim_dir, tmp_path):
        code = run([
            "trends", "--manifest", sim_dir / "manifest.json",
            "--metric", "auroc", "--out", tmp_path / "x",
        ])
        assert code == 1


class TestImproveCommand:
    def test_outputs(self, sim_dir, tmp_path):
        out = tmp_path / "imp"
        code = run([
            "improve", "--manifest", sim_dir / "manifest.json",
            "--base", "m000", "--alt-a", "m000+m001", "--alt-b", "m000+m002",
            "--control", "m003", "--metric", "brier", "--out", out,
        ])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["metric"] == "brier"
        for ds in ("ind", "ood"):
            block = result["results"][ds]
            assert block["mmd"]["reject"] == (block["mmd"]["statistic"] > block["mmd"]["threshold"])
            assert "(" in block["mmd"]["formatted"]
            assert (out / f"improve_{ds}.csv").is_file()
            assert (out / f"improve_{ds}.svg").is_file()

    def test_calibration_metric_rejected(self, sim_dir, tmp_path):
        code = run([
            "improve", "--manifest", sim_dir / "manifest.json",
            "--base", "m000", "--alt-a", "m001", "--alt-b", "m002",
            "--control", "m003", "--metric", "ece", "--out", tmp_path / "x",
        ])
        assert code == 1

    @pytest.mark.parametrize("value", [-1, -5])
    def test_bad_argument_names_flag(self, sim_dir, tmp_path, capsys, value):
        code = run([
            "improve", "--manifest", sim_dir / "manifest.json",
            "--base", "m000", "--alt-a", "m001", "--alt-b", "m002", "--control", "m003",
            "--subsample", value, "--out", tmp_path / "x",
        ])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "--subsample" in err[0]
        assert not (tmp_path / "x").exists()

    def test_degenerate_zero_one_cloud_rejected(self, sim_dir, tmp_path):
        # Mostly-agreeing models make 0-1 deltas collide; the median pairwise
        # distance is zero and the bandwidth heuristic refuses.
        code = run([
            "improve", "--manifest", sim_dir / "manifest.json",
            "--base", "m000", "--alt-a", "m000+m001", "--alt-b", "m000+m002",
            "--control", "m003", "--metric", "01", "--out", tmp_path / "x",
        ])
        assert code == 1


class TestGpDemoCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "gp"
        assert run(["gp-demo", "--seed", "0", "--out", out]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["summary"]["ood_exceeds_ind_in_all_populated_bins"] is True
        header, rows = read_csv(out / "gp_bins.csv")
        assert header == ["split", "bin_lo", "bin_hi", "count", "mean_posterior_variance"]
        assert len(rows) == 40
        header, rows = read_csv(out / "gp_predictions.csv")
        assert len(rows) == 512
        splits = {row[-1] for row in rows}
        assert splits == {"ind", "ood"}


class TestReportCommand:
    def test_indexes_results(self, sim_dir, tmp_path):
        root = tmp_path / "runs"
        assert run(BASE_SIM + ["--out", root / "sim"]) == 0
        assert run(["gp-demo", "--out", root / "gp"]) == 0
        assert run(["report", "--out", root]) == 0
        index = json.loads((root / "index.json").read_text())
        assert index["n_runs"] == 2
        paths = {r["path"] for r in index["runs"]}
        assert paths == {"sim/result.json", "gp/result.json"}
        assert run(["report", "--out", root]) == 1
        assert run(["report", "--out", root, "--force"]) == 0


class TestDeterminism:
    def test_conditional_rerun_byte_identical(self, sim_dir, tmp_path):
        args = ["conditional", "--manifest", sim_dir / "manifest.json",
                "--surrogates", "11", "--seed", "9", "--no-timestamp"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", out_a]) == 0
        assert run(args + ["--out", out_b]) == 0
        for name in ("result.json", "curves.csv", "conditional.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_trends_rerun_byte_identical(self, sim_dir, tmp_path):
        args = ["trends", "--manifest", sim_dir / "manifest.json",
                "--metric", "brier,resce", "--no-timestamp"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", out_a]) == 0
        assert run(args + ["--out", out_b]) == 0
        for name in ("result.json", "trend_table.csv", "trend_points.csv", "trends_brier.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_svg_timestamp_differs_only_with_flag(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["gp-demo", "--out", out_a, "--no-timestamp"]) == 0
        assert run(["gp-demo", "--out", out_b, "--no-timestamp"]) == 0
        assert (out_a / "gp.svg").read_bytes() == (out_b / "gp.svg").read_bytes()
        assert (out_a / "gp_predictions.csv").read_bytes() == (out_b / "gp_predictions.csv").read_bytes()
