import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tsindep
from tsindep import write_csv
from tsindep.cli import main
from tsindep.models import _simulate_garch, _simulate_var


@pytest.fixture()
def series_files(tmp_path):
    rng = np.random.default_rng(0)
    coef = np.array([[0.3, 0.0], [0.1, 0.2]])
    y1 = _simulate_var(coef, 1, False, rng.normal(size=(160, 2)))[60:]
    y2 = _simulate_var(coef, 1, False, rng.normal(size=(160, 2)))[60:]
    p1 = tmp_path / "s1.csv"
    p2 = tmp_path / "s2.csv"
    write_csv(p1, y1)
    write_csv(p2, y2)
    return str(p1), str(p2)


@pytest.fixture()
def short_files(tmp_path):
    # Two 59-row VAR(1) series (60 CSV lines with the header) leave 58
    # paired residual rows, so lag 56 is the largest with two rows left.
    rng = np.random.default_rng(3)
    coef = np.array([[0.3, 0.0], [0.1, 0.2]])
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        write_csv(path, _simulate_var(coef, 1, False, rng.normal(size=(59, 2))))
        paths.append(str(path))
    return paths


@pytest.fixture()
def scaled_files(tmp_path):
    # A 300-row VAR(1) pair whose series 1 has one column in units 1024
    # times the other's: the lag-zero covariance of its vech transform has
    # a condition number of about 1.1e12.
    rng = np.random.default_rng(0)
    coef = np.array([[0.3, 0.0], [0.1, 0.2]])
    paths = []
    for name, units in (("a.csv", [1.0, 1024.0]), ("b.csv", [1.0, 1.0])):
        path = tmp_path / name
        write_csv(path, _simulate_var(coef, 1, False, rng.normal(size=(400, 2)))[100:] * units)
        paths.append(str(path))
    return paths


def run_cli(args):
    return main(args)


def no_bootstrap(*args, **kwargs):
    raise AssertionError("the bootstrap ran before the flags were checked")


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run_cli(["test"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_cli(["test", "--bogus"]) == 1

    def test_data_error_missing_file(self, capsys, tmp_path):
        code = run_cli(
            ["test", "--series1", str(tmp_path / "a.csv"), "--series2", str(tmp_path / "b.csv")]
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["test", "--ttest", "3"], ["lagscan", "--max-lag", "1", "--include-t"]],
        ids=["test", "lagscan"],
    )
    def test_t_on_mixed_column_units(self, scaled_files, tmp_path, argv):
        # T reads the equilibrated correlation of its vech transforms, so a
        # column in other units is no numerical failure.
        code = run_cli(
            [argv[0], "--series1", scaled_files[0], "--series2", scaled_files[1],
             "-B", "19", *argv[1:], "--output", str(tmp_path / "out.json")]
        )
        assert code == 0

    @pytest.mark.parametrize("band", ["nan", "0.5"])
    def test_bad_wtest_bandwidth_is_data_error(self, series_files, capsys, monkeypatch, band):
        # NaN fails every comparison, so it must not slip past the range check.
        monkeypatch.setattr("tsindep.cli.hsic_test_suite", no_bootstrap)
        code = run_cli(
            ["test", "--series1", series_files[0], "--series2", series_files[1],
             "-B", "9", "--wtest", band]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "for n=97 prewhitened residual rows" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--lag", "-2"],
            ["test", "--gtest", "-1"],
            ["test", "--max-lag", "-1"],
            ["lagscan", "--max-lag", "-1"],
            ["test", "-B", "0"],
            ["test", "--alpha", "1.5"],
            ["simulate", "--egp", "9"],
            ["simulate", "--replications", "0"],
            ["simulate", "-n", "3"],
            ["simulate", "--burn-in", "-5", "--replications", "2", "-B", "9", "-n", "50"],
            ["simulate", "--dgp", "var", "-n", "30", "--replications", "2", "-B", "9", "--tests", "W1:0.5"],
            ["simulate", "--dgp", "var", "-n", "30", "--replications", "2", "-B", "9", "--tests", "W1:40"],
            # VAR(3) prewhitening leaves 27 of the 30 rows, so h = 27 is too wide.
            ["simulate", "--dgp", "var", "-n", "30", "--replications", "2", "-B", "9", "--tests", "W1:27"],
            ["simulate", "--dgp", "ccc-garch", "-n", "30", "--replications", "2", "-B", "9"],
            ["simulate", "--dgp", "var", "-n", "30", "--replications", "2", "-B", "9", "--tests", "W1:abc"],
        ],
        ids="_".join,
    )
    def test_bad_configuration_is_usage_error(self, series_files, capsys, monkeypatch, argv):
        monkeypatch.setattr("tsindep.cli.hsic_test_suite", no_bootstrap)
        if argv[0] != "simulate":
            argv = [argv[0], "--series1", series_files[0], "--series2", series_files[1], *argv[1:]]
        assert run_cli(argv) == 1
        assert "usage error" in capsys.readouterr().err

    def test_numerical_error(self, tmp_path, capsys):
        # Constant series: the VAR design is collinear with the intercept.
        path1 = tmp_path / "c1.csv"
        path2 = tmp_path / "c2.csv"
        write_csv(path1, np.ones((60, 2)))
        write_csv(path2, np.ones((60, 2)))
        code = run_cli(
            ["test", "--series1", str(path1), "--series2", str(path2), "-B", "9"]
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowed_design_is_quiet_numerical_failure(self, tmp_path, capfd):
        # 1e160**2 overflows the VAR Gram; nothing may reach stdout, where
        # reports go, and stderr holds the one failure line.
        rng = np.random.default_rng(0)
        path1 = tmp_path / "big.csv"
        path2 = tmp_path / "small.csv"
        write_csv(path1, 1e160 * rng.normal(size=(60, 2)))
        write_csv(path2, rng.normal(size=(60, 2)))
        code = run_cli(["fit", "--series1", str(path1), "--series2", str(path2)])
        out, err = capfd.readouterr()
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["numerical failure: rank-deficient VAR design (cond=inf)"]

    def test_huge_garch_data_is_quiet_numerical_failure(self, tmp_path, capfd, monkeypatch):
        # Scaled by 1e150, the variance products in the QMLE's Hessian
        # overflow from each start's first evaluation on; no overflow
        # warning may reach stderr.  Every start fails whatever its step
        # budget (500 Newton steps take seconds), so the test cuts it.
        # Scaled by 1e160, the sample variance itself overflows, and the
        # fit stops before its first start.
        from tsindep.models import _simulate_garch

        monkeypatch.setattr("tsindep.models._MAXITER", 3)
        theta = np.array([0.2, 0.1, 0.5, 0.2, 0.1, 0.5, 0.4])
        for scale in (1e150, 1e160):
            rng = np.random.default_rng(5)
            paths = []
            for name in ("g1.csv", "g2.csv"):
                path = tmp_path / name
                write_csv(path, scale * _simulate_garch(theta, rng.normal(size=(400, 2)))[200:])
                paths.append(str(path))
            code = run_cli(["fit", "--series1", paths[0], "--series2", paths[1],
                            "--model1", "ccc-garch", "--model2", "ccc-garch"])
            out, err = capfd.readouterr()
            assert code == 3, scale
            assert out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith("numerical failure:")

    def test_success(self, series_files, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            ["test", "--series1", series_files[0], "--series2", series_files[1],
             "-B", "19", "--output", str(out)]
        )
        assert code == 0
        assert out.exists()


class TestReportDeterminism:
    def test_byte_identical_across_threads(self, series_files, tmp_path):
        # Blocks of 64 replicates are the unit of work the worker threads
        # share, so B = 129 gives them three.
        pair = ["--series1", series_files[0], "--series2", series_files[1], "--seed", "7"]
        for argv in (
            ["test", *pair, "-B", "129", "--lag", "0", "--lag", "2", "--max-lag", "2"],
            ["lagscan", *pair, "-B", "129", "--max-lag", "4"],
        ):
            blobs = []
            for threads in ("1", "4", "8"):
                out = tmp_path / f"{argv[0]}{threads}.json"
                assert run_cli([*argv, "--threads", threads, "--output", str(out)]) == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1] == blobs[2]

    def test_two_workers_match_one_on_stacks_of_one(self, tmp_path):
        # From n = 182 on a stack is one replicate, and each worker holds
        # its own pair of Gram buffers while the observed pair is gone.
        # B = 129 gives three blocks, so both workers run one.
        rng = np.random.default_rng(14)
        coef = np.array([[0.3, 0.0], [0.1, 0.2]])
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            write_csv(path, _simulate_var(coef, 1, False, rng.normal(size=(301, 2))))
            paths.append(str(path))
        argv = ["test", "--series1", paths[0], "--series2", paths[1], "-B", "129", "--lag", "0",
                "--max-lag", "3", "--direction", "both", "--seed", "9"]
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.json"
            assert run_cli([*argv, "--threads", threads, "--output", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @staticmethod
    def reports_by_blas_threads(tmp_path, argv):
        """The report bytes of ``argv`` run in a fresh interpreter with the
        BLAS pool at 1 and then 2 threads."""
        src = str(Path(tsindep.__file__).resolve().parents[1])
        blobs = []
        for blas_threads in ("1", "2"):
            out = tmp_path / f"blas{blas_threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "tsindep.cli", *argv, "--output", str(out)],
                env=env, check=True, timeout=120,
            )
            blobs.append(out.read_bytes())
        return blobs

    def test_byte_identical_across_blas_threads(self, tmp_path):
        # The HSIC cross terms are BLAS dot products, so the report must not
        # depend on how many threads the BLAS library may use.
        rng = np.random.default_rng(11)
        coef = np.array([[0.3, 0.0], [0.1, 0.2]])
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            write_csv(path, _simulate_var(coef, 1, False, rng.normal(size=(320, 2))))
            paths.append(str(path))
        blobs = self.reports_by_blas_threads(
            tmp_path,
            ["test", "--series1", paths[0], "--series2", paths[1], "-B", "19", "--lag", "0",
             "--lag", "3", "--max-lag", "5", "--direction", "both", "--seed", "4"],
        )
        assert blobs[0] == blobs[1]

    def test_garch_byte_identical_across_blas_threads(self, tmp_path):
        # GARCH fits and one-step replicates run their variance recursions
        # as LAPACK banded solves, on top of the HSIC dot products.
        rng = np.random.default_rng(12)
        theta = np.array([0.2, 0.1, 0.5, 0.2, 0.1, 0.5, 0.4])
        paths = []
        for name in ("g1.csv", "g2.csv"):
            path = tmp_path / name
            write_csv(path, _simulate_garch(theta, rng.normal(size=(700, 2)))[500:])
            paths.append(str(path))
        blobs = self.reports_by_blas_threads(
            tmp_path,
            ["test", "--series1", paths[0], "--series2", paths[1], "--model1", "ccc-garch",
             "--model2", "ccc-garch", "--estimator-mode", "one-step", "-B", "19", "--lag", "0",
             "--lag", "3", "--max-lag", "5", "--direction", "both", "--seed", "4"],
        )
        assert blobs[0] == blobs[1]

    def test_repeat_identical(self, series_files, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            run_cli(
                ["test", "--series1", series_files[0], "--series2", series_files[1],
                 "-B", "19", "--seed", "3", "--output", str(out)]
            )
        assert out1.read_bytes() == out2.read_bytes()


class TestTestCommand:
    def test_json_report_schema(self, series_files, tmp_path):
        out = tmp_path / "r.json"
        run_cli(
            ["test", "--series1", series_files[0], "--series2", series_files[1],
             "-B", "19", "--lag", "0", "--gtest", "3", "--ltest", "3:2",
             "--ttest", "2", "--wtest", "h1", "--output", str(out)]
        )
        report = json.loads(out.read_text())
        assert report["provenance"]["schema_version"] == 1
        assert report["provenance"]["config"]["B"] == 19
        assert "threads" not in json.dumps(report)
        names = [t["name"] for t in report["tests"]]
        assert "S1(0)" in names and "G1(3)" in names and "L2(3)" in names
        assert "T1(2)" in names and "W1(4)" in names
        for t in report["tests"]:
            assert np.isfinite(t["p_value"])

    def test_direction_one_only(self, series_files, tmp_path):
        out = tmp_path / "r.json"
        run_cli(
            ["test", "--series1", series_files[0], "--series2", series_files[1],
             "-B", "19", "--lag", "1", "--direction", "1", "--output", str(out)]
        )
        report = json.loads(out.read_text())
        names = [t["name"] for t in report["tests"]]
        assert names == ["S1(1)"]

    def test_emit_replicates(self, series_files, tmp_path):
        out = tmp_path / "r.json"
        run_cli(
            ["test", "--series1", series_files[0], "--series2", series_files[1],
             "-B", "19", "--emit-replicates", "--output", str(out)]
        )
        report = json.loads(out.read_text())
        assert len(report["tests"][0]["replicates"]) == 19

    def test_csv_format(self, series_files, tmp_path):
        out = tmp_path / "r.csv"
        run_cli(
            ["test", "--series1", series_files[0], "--series2", series_files[1],
             "-B", "19", "--format", "csv", "--output", str(out)]
        )
        lines = out.read_text().splitlines()
        assert lines[0].startswith("name,lag,direction,variant,statistic,scaled,p_value")
        assert len(lines) >= 2

    def test_single_input_split(self, series_files, tmp_path):
        import tsindep

        y1 = tsindep.read_csv(series_files[0])
        y2 = tsindep.read_csv(series_files[1])
        combined = tmp_path / "both.csv"
        write_csv(combined, np.hstack([y1, y2]))
        out = tmp_path / "r.json"
        code = run_cli(
            ["test", "--input", str(combined), "--split-at", "2", "-B", "9",
             "--output", str(out)]
        )
        assert code == 0

    def test_ccc_garch_models(self, tmp_path):
        rng = np.random.default_rng(5)
        from tsindep.models import _simulate_garch

        theta = np.array([0.2, 0.1, 0.5, 0.2, 0.1, 0.5, 0.4])
        p1, p2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        write_csv(p1, _simulate_garch(theta, rng.normal(size=(1000, 2)))[500:])
        write_csv(p2, _simulate_garch(theta, rng.normal(size=(1000, 2)))[500:])
        out = tmp_path / "r.json"
        code = run_cli(
            ["test", "--series1", str(p1), "--series2", str(p2),
             "--model1", "ccc-garch", "--model2", "ccc-garch",
             "-B", "19", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["fits"][0]["kind"] == "ccc_garch"


    @pytest.mark.parametrize(
        "flag,lag",
        [("--lag", "80"), ("--lag", "57"), ("--max-lag", "57"),
         ("--gtest", "80"), ("--ltest", "57"), ("--ttest", "60")],
    )
    def test_lag_beyond_data_names_the_flag(self, short_files, capsys, monkeypatch, flag, lag):
        monkeypatch.setattr("tsindep.cli.hsic_test_suite", no_bootstrap)
        code = run_cli(
            ["test", "--series1", short_files[0], "--series2", short_files[1],
             "-B", "19", flag, lag]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: {flag} {lag} infeasible for n=58 paired residual rows" in err
        assert "largest feasible lag is 56" in err

    def test_largest_feasible_lag_runs(self, short_files, tmp_path):
        out = tmp_path / "edge.json"
        code = run_cli(
            ["test", "--series1", short_files[0], "--series2", short_files[1],
             "-B", "19", "--lag", "56", "--max-lag", "56", "--output", str(out)]
        )
        assert code == 0
        tests = json.loads(out.read_text())["tests"]
        assert [t["n_effective"] for t in tests] == [2, 2, 2, 2]

    def test_headerless_csv_is_data_error(self, series_files, tmp_path, capsys):
        path = tmp_path / "headerless.csv"
        lines = open(series_files[0], encoding="utf-8").read().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        code = run_cli(["test", "--series1", str(path), "--series2", series_files[1], "-B", "9"])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "header row" in err


class TestCalibrationEndToEnd:
    def test_same_file_both_series_rejects(self, series_files, tmp_path):
        # Perfect dependence: the same series on both sides.
        out = tmp_path / "dep.json"
        code = run_cli(
            ["test", "--series1", series_files[0], "--series2", series_files[0],
             "-B", "199", "--lag", "0", "--direction", "1", "--seed", "0",
             "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["tests"][0]["p_value"] <= 0.05

    def test_independent_series_rarely_reject(self, tmp_path):
        # Null calibration smoke at the CLI level: independent white noise,
        # p-value above 0.05 in most seeds.
        rng = np.random.default_rng(42)
        clear = 0
        for seed in range(5):
            p1, p2 = tmp_path / f"w1_{seed}.csv", tmp_path / f"w2_{seed}.csv"
            write_csv(p1, rng.normal(size=(120, 2)))
            write_csv(p2, rng.normal(size=(120, 2)))
            out = tmp_path / f"null_{seed}.json"
            code = run_cli(
                ["test", "--series1", str(p1), "--series2", str(p2),
                 "-B", "199", "--lag", "0", "--direction", "1",
                 "--seed", str(seed), "--output", str(out)]
            )
            assert code == 0
            report = json.loads(out.read_text())
            clear += report["tests"][0]["p_value"] > 0.05
        assert clear >= 4

    def test_lagscan_detects_lead_direction(self, tmp_path):
        # Innovations with a three-step lead: the direction-2 row at lag 3
        # exceeds its bound while the direction-1 row does not, in most seeds.
        from tsindep import EgpSpec, egp_innovations, gen_var_pair
        from tsindep._streams import substream

        hits = 0
        for seed in range(5):
            e = egp_innovations(EgpSpec.from_id(4), 700, substream(seed, 44))
            y1, y2 = gen_var_pair(e, 500)
            p1, p2 = tmp_path / f"l1_{seed}.csv", tmp_path / f"l2_{seed}.csv"
            write_csv(p1, y1)
            write_csv(p2, y2)
            out = tmp_path / f"scan_{seed}.json"
            code = run_cli(
                ["lagscan", "--series1", str(p1), "--series2", str(p2),
                 "--model1", "var:1:nointercept", "--model2", "var:1:nointercept",
                 "--max-lag", "3", "-B", "199", "--seed", str(seed),
                 "--output", str(out)]
            )
            assert code == 0
            rows = {
                (r["test_name"], r["lag"]): r for r in json.loads(out.read_text())["scan"]
            }
            s2 = rows[("S2", 3)]
            s1 = rows[("S1", 3)]
            if s2["statistic"] > s2["bound_95"] and s1["statistic"] <= s1["bound_95"]:
                hits += 1
        assert hits >= 4


class TestFitCommand:
    def test_fit_report(self, series_files, tmp_path):
        out = tmp_path / "fit.json"
        code = run_cli(
            ["fit", "--series1", series_files[0], "--series2", series_files[1],
             "--model1", "var:2", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["fits"][0]["order"] == 2
        assert report["fits"][0]["layout"] == "row-major [intercept | A_1 ... A_2]"
        assert len(report["fits"]) == 2

    @pytest.mark.parametrize(
        "model,layout",
        [("var:1", "row-major [intercept | A_1]"), ("var:1:nc", "row-major [A_1]")],
    )
    def test_var1_layout_names_one_block(self, series_files, tmp_path, model, layout):
        out = tmp_path / "fit.json"
        code = run_cli(
            ["fit", "--series1", series_files[0], "--series2", series_files[1],
             "--model1", model, "--model2", model, "--output", str(out)]
        )
        assert code == 0
        fits = json.loads(out.read_text())["fits"]
        assert [f["layout"] for f in fits] == [layout, layout]


    def test_var_fit_on_tiny_units(self, series_files, tmp_path):
        # 1e-7 puts the raw Gram's condition number near 1e14, but the
        # columns are not collinear.
        path = tmp_path / "tiny.csv"
        write_csv(path, 1e-7 * tsindep.read_csv(series_files[0]))
        out = tmp_path / "fit.json"
        code = run_cli(["fit", "--series1", str(path), "--series2", series_files[1],
                        "--output", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["fits"]) == 2


class TestLagscanCommand:
    def test_schema_and_zero_lag_symmetry(self, series_files, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli(
            ["lagscan", "--series1", series_files[0], "--series2", series_files[1],
             "--max-lag", "2", "-B", "39", "--format", "csv", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lag,direction,statistic,bound_95,test_name"
        rows = [line.split(",") for line in lines[1:]]
        s_rows = [r for r in rows if r[4].startswith("S")]
        assert len(s_rows) == 6  # lags 0..2, both directions
        zero = {r[1]: float(r[2]) for r in s_rows if r[0] == "0"}
        assert zero["1"] == zero["2"]

    def test_includes_l_t_references(self, series_files, tmp_path):
        out = tmp_path / "scan.json"
        code = run_cli(
            ["lagscan", "--series1", series_files[0], "--series2", series_files[1],
             "--max-lag", "1", "-B", "19", "--include-l", "--include-t",
             "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        names = {row["test_name"] for row in report["scan"]}
        assert {"S1", "S2", "L1", "L2", "T1", "T2"} <= names
        l_rows = [r for r in report["scan"] if r["test_name"] == "L1"]
        assert all(abs(r["bound_95"] - 3.841459) < 1e-4 for r in l_rows)

    def test_statistics_equal_single_stat(self, series_files, tmp_path):
        out = tmp_path / "scan.json"
        code = run_cli(
            ["lagscan", "--series1", series_files[0], "--series2", series_files[1],
             "--max-lag", "10", "-B", "19", "--output", str(out)]
        )
        assert code == 0
        fits = [
            tsindep.fit_var(tsindep.read_csv(path), p=1, intercept=True) for path in series_files
        ]
        pair = tsindep.paired_residuals(*fits)
        gauss = tsindep.KernelSpec.gaussian(1.0)
        rows = json.loads(out.read_text())["scan"]
        assert [(r["lag"], r["direction"]) for r in rows] == [
            (m, d) for d in (1, 2) for m in range(11)
        ]
        for r in rows:
            want = pair.n * tsindep.single_stat(pair, r["lag"], r["direction"], gauss, gauss)
            assert r["statistic"] == want

    def test_l_t_rows_equal_single_lag_stat(self, series_files, tmp_path):
        out = tmp_path / "scan.json"
        code = run_cli(
            ["lagscan", "--series1", series_files[0], "--series2", series_files[1],
             "--max-lag", "6", "-B", "9", "--include-l", "--include-t", "--output", str(out)]
        )
        assert code == 0
        fits = [
            tsindep.fit_var(tsindep.read_csv(path), p=1, intercept=True) for path in series_files
        ]
        pair = tsindep.paired_residuals(*fits)
        rows = [r for r in json.loads(out.read_text())["scan"] if r["test_name"][0] in "LT"]
        assert [(r["test_name"], r["lag"]) for r in rows] == [
            (f"{family}{d}", m) for family in "LT" for d in (1, 2) for m in range(7)
        ]
        for r in rows:
            family, direction = r["test_name"][0], int(r["test_name"][1])
            value, df = tsindep.single_lag_stat(pair, r["lag"], family, direction)
            assert r["statistic"] == value
            assert r["bound_95"] == tsindep.chi2_quantile(0.95, df)

    def test_largest_feasible_lag_with_l_and_t(self, short_files, tmp_path):
        # Lag 56 leaves two of the 58 paired rows; every row is finite.
        out = tmp_path / "scan.json"
        code = run_cli(
            ["lagscan", "--series1", short_files[0], "--series2", short_files[1],
             "-B", "19", "--max-lag", "56", "--include-l", "--include-t", "--output", str(out)]
        )
        assert code == 0
        rows = json.loads(out.read_text())["scan"]
        assert [(r["test_name"], r["lag"]) for r in rows] == [
            (f"{family}{d}", m) for family in "SLT" for d in (1, 2) for m in range(57)
        ]
        assert all(np.isfinite([r["statistic"], r["bound_95"]]).all() for r in rows)

    @pytest.mark.parametrize("max_lag", ["57", "80"])
    def test_max_lag_beyond_data_names_the_flag(self, short_files, capsys, max_lag):
        code = run_cli(
            ["lagscan", "--series1", short_files[0], "--series2", short_files[1],
             "-B", "19", "--max-lag", max_lag]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: --max-lag {max_lag} infeasible for n=58" in err
        assert "largest feasible lag is 56" in err


class TestSimulateCommand:
    def test_single_replication_binary_rates(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = run_cli(
            ["simulate", "--dgp", "var", "--egp", "1", "-n", "60",
             "--replications", "1", "--tests", "S1:0,G1:2", "-B", "19",
             "--seed", "5", "--output", str(out), "--format", "csv"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        for line in lines[1:]:
            rate = float(line.split(",")[2])
            assert rate in (0.0, 1.0)

    def test_seed_repetition_byte_identical(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            run_cli(
                ["simulate", "--dgp", "var", "--egp", "2", "-n", "60",
                 "--replications", "2", "--tests", "S1:0", "-B", "19",
                 "--seed", "9", "--output", str(out)]
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestRepeatedAlpha:
    """A level given twice is one level, in every command's report."""

    def test_test_command_has_one_column_per_level(self, series_files, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(
            ["test", "--series1", series_files[0], "--series2", series_files[1], "-B", "19",
             "--alpha", "0.05", "--alpha", "0.01", "--alpha", "0.05", "--format", "csv",
             "--output", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert [h for h in header if h.startswith("crit_")] == ["crit_0.01", "crit_0.05"]

    def test_simulate_has_one_row_per_test_and_level(self, tmp_path):
        out = tmp_path / "mc.json"
        code = run_cli(
            ["simulate", "--dgp", "var", "-n", "60", "--replications", "1", "-B", "19",
             "--tests", "S1:0,G1:2", "--alpha", "0.05", "--alpha", "0.05", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["provenance"]["config"]["alphas"] == [0.05]
        rows = [(r["test"], r["alpha"]) for r in report["summary"]["rows"]]
        assert rows == [("S1(0)", 0.05), ("G1(2)", 0.05)]


class TestEnvThreads:
    def test_env_honored_only_without_flag(self, series_files, tmp_path, monkeypatch):
        monkeypatch.setenv("TSINDEP_THREADS", "2")
        out1 = tmp_path / "env.json"
        code = run_cli(
            ["test", "--series1", series_files[0], "--series2", series_files[1],
             "-B", "19", "--seed", "3", "--output", str(out1)]
        )
        assert code == 0
        out2 = tmp_path / "flag.json"
        code = run_cli(
            ["test", "--series1", series_files[0], "--series2", series_files[1],
             "-B", "19", "--seed", "3", "--threads", "1", "--output", str(out2)]
        )
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_env_value(self, series_files, monkeypatch, capsys):
        monkeypatch.setenv("TSINDEP_THREADS", "zebra")
        code = run_cli(
            ["test", "--series1", series_files[0], "--series2", series_files[1], "-B", "9"]
        )
        assert code == 1

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_env_value(self, series_files, monkeypatch, capsys, value):
        monkeypatch.setattr("tsindep.cli.hsic_test_suite", no_bootstrap)
        monkeypatch.setenv("TSINDEP_THREADS", value)
        code = run_cli(
            ["test", "--series1", series_files[0], "--series2", series_files[1], "-B", "9"]
        )
        assert code == 1
        assert f"TSINDEP_THREADS must be >= 1, got {value}" in capsys.readouterr().err


class TestFbmWarning:
    def test_warning_emitted(self, series_files, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run_cli(
            ["test", "--series1", series_files[0], "--series2", series_files[1],
             "--kernel", "fbm:0.5", "-B", "9", "--output", str(out)]
        )
        assert code == 0
        assert "fbm" in capsys.readouterr().err


class TestReportShape:
    """Each command's ``provenance.config`` keys and CSV header, and CSV rows
    that carry the numbers of the JSON report of the same run."""

    PAIR = {"model1", "model2", "log_returns", "inputs"}
    BOOTSTRAP = {"B", "alphas", "estimator_mode", "standardize"}
    CONFIG_KEYS = {
        "test": PAIR | BOOTSTRAP | {"kernel", "max_lag", "direction", "lags"},
        "fit": PAIR,
        "lagscan": PAIR | BOOTSTRAP | {"kernel", "max_lag", "direction", "include_l", "include_t"},
        "simulate": BOOTSTRAP | {"dgp", "egp", "n", "replications", "tests", "burn_in", "full_scale"},
    }
    CSV_HEADERS = {
        "test": "name,lag,direction,variant,statistic,scaled,p_value,crit_0.01,crit_0.05,crit_0.1",
        "fit": "series,kind,index,estimate",
        "lagscan": "lag,direction,statistic,bound_95,test_name",
        "simulate": "test,alpha,rejection_rate,mc_se,replicates",
    }

    @staticmethod
    def argv(command, series_files):
        pair = ["--series1", series_files[0], "--series2", series_files[1]]
        return {
            "test": ["test", *pair, "-B", "9", "--lag", "1", "--gtest", "1"],
            "fit": ["fit", *pair, "--model1", "var:2"],
            "lagscan": ["lagscan", *pair, "--max-lag", "1", "-B", "9", "--include-l", "--include-t"],
            "simulate": ["simulate", "--dgp", "var", "-n", "40", "--replications", "2",
                         "--tests", "S1:0,G1:1", "-B", "9"],
        }[command]

    @staticmethod
    def reports(argv, tmp_path):
        """The JSON report and the CSV rows (header first) of one run."""
        texts = []
        for fmt in ("json", "csv"):
            out = tmp_path / f"report.{fmt}"
            assert run_cli([*argv, "--format", fmt, "--output", str(out)]) == 0
            texts.append(out.read_text())
        return json.loads(texts[0]), [line.split(",") for line in texts[1].splitlines()]

    @pytest.mark.parametrize("command", ["test", "fit", "lagscan", "simulate"])
    def test_config_keys_and_csv_header(self, command, series_files, tmp_path):
        report, rows = self.reports(self.argv(command, series_files), tmp_path)
        assert report["provenance"]["command"] == command
        assert set(report["provenance"]["config"]) == self.CONFIG_KEYS[command]
        assert ",".join(rows[0]) == self.CSV_HEADERS[command]

    def test_fit_csv_matches_json(self, series_files, tmp_path):
        report, rows = self.reports(self.argv("fit", series_files), tmp_path)
        want = [
            [s, fit["kind"], i, value]
            for s, fit in enumerate(report["fits"], start=1)
            for i, value in enumerate(fit["theta"])
        ]
        assert [[int(s), kind, int(i), float(v)] for s, kind, i, v in rows[1:]] == want

    def test_lagscan_csv_matches_json(self, series_files, tmp_path):
        report, rows = self.reports(self.argv("lagscan", series_files), tmp_path)
        want = [
            [r["lag"], r["direction"], r["statistic"], r["bound_95"], r["test_name"]]
            for r in report["scan"]
        ]
        got = [[int(m), int(d), float(s), float(b), name] for m, d, s, b, name in rows[1:]]
        assert got == want
        assert {r[4] for r in rows[1:]} == {"S1", "S2", "L1", "L2", "T1", "T2"}

    def test_simulate_csv_matches_json(self, series_files, tmp_path):
        report, rows = self.reports(self.argv("simulate", series_files), tmp_path)
        want = [
            [r["test"], r["alpha"], r["rejection_rate"], r["mc_se"], r["replicates"]]
            for r in report["summary"]["rows"]
        ]
        got = [[t, float(a), float(r), float(se), int(k)] for t, a, r, se, k in rows[1:]]
        assert got == want
        assert len(got) == 2 * 3
