"""CLI surface: schemas, determinism, round-trip, exit codes."""

import csv
import itertools
import json

import pytest

from padicgeo import accept, countvol, igf
from padicgeo.cli import emit_report, main
from padicgeo.roots import RootReport
from padicgeo.sample import STREAM_FORMAT
from test_countvol import _full_build


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestRoots:
    def test_plus_minus_one(self, capsys):
        code, out = run_cli(
            ["roots", "--coeffs", "1,0,-1", "--prime", "5", "--no-files"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["count"] == 2
        assert payload["config"]["params"]["prime"] == 5

    def test_annulus_chart(self, capsys):
        code, out = run_cli(
            ["roots", "--coeffs=-1,0,9", "--prime", "3", "--chart", "annulus:1", "--no-files"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["results"]["count"] == 2

    def test_p1_chart(self, capsys):
        code, out = run_cli(
            ["roots", "--coeffs", "0,1,0", "--prime", "7", "--chart", "p1", "--no-files"],
            capsys,
        )
        assert json.loads(out)["results"]["count"] == 2

    def test_qp_chart(self, capsys):
        # 9t^2 - 1: both roots +-1/3 lie outside Z_p, on the chart at infinity
        code, out = run_cli(
            ["roots", "--coeffs=-1,0,9", "--prime", "3", "--chart", "qp", "--no-files"],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["count"] == 2
        assert [w["chart"] for w in results["witnesses"]] == ["inf", "inf"]


class TestCountAndVolume:
    def test_conic_level_three(self, capsys, tmp_path):
        code, out = run_cli(
            [
                "count",
                "--outdir",
                str(tmp_path),
                "--gens",
                "x0*x2-x1^2",
                "--prime",
                "3",
                "--level",
                "3",
                "--dim",
                "1",
                "--degree",
                "2",
                "--csv",
                "seq.csv",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["count"]["n_lo"] == 36
        assert payload["results"]["volume"]["value"] == {"num": 4, "den": 3}
        seq = (tmp_path / "seq.csv").read_text().splitlines()
        assert seq[0] == "m,n_lo,n_hi"
        assert seq[1:] == ["1,4,4", "2,12,12", "3,36,36"]
        assert (tmp_path / "report-count.json").exists()

    def test_count_builds_its_tree_once(self, capsys, monkeypatch):
        calls = []
        build = countvol.build_tree

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(countvol, "build_tree", counting)
        args = ["count", "--gens", "x0*x2-x1^2", "--prime", "3", "--level", "3"]
        code, out = run_cli(args + ["--dim", "1", "--degree", "2", "--no-files"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["count"]["n_lo"] == 36
        assert len(calls) == 1

    def test_count_report_matches_the_full_build(self, capsys, monkeypatch):
        args = ["count", "--gens", "x0*x1", "--prime", "5", "--level", "3"]
        args += ["--dim", "1", "--degree", "2", "--no-files"]
        code, out = run_cli(args, capsys)
        monkeypatch.setattr(countvol, "build_tree", _full_build)
        ref_code, ref = run_cli(args, capsys)
        assert code == ref_code == 0
        assert out == ref

    def test_no_files_writes_no_csv(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        args = ["count", "--gens", "x0*x1", "--prime", "3", "--level", "2", "--dim", "1"]
        code, _ = run_cli(
            args + ["--no-files", "--outdir", str(missing), "--csv", "seq.csv"], capsys
        )
        assert code == 0
        assert not missing.exists() and list(tmp_path.iterdir()) == []

    def test_volume_degree_bound(self, capsys):
        code, out = run_cli(
            [
                "volume",
                "--gens",
                "x2",
                "--prime",
                "3",
                "--max-level",
                "2",
                "--dim",
                "1",
                "--degree",
                "1",
                "--no-files",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        db = payload["results"]["degree_bound"]
        assert db["normalized_ok"] is True and db["raw_ok"] is False

    def test_not_stabilized_exit_code(self, capsys):
        code, out = run_cli(
            [
                "volume",
                "--gens",
                "x0*x1",
                "--prime",
                "3",
                "--max-level",
                "2",
                "--dim",
                "1",
                "--no-files",
            ],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["results"]["stabilized"] is False


class TestVeronese:
    def test_isometry_check(self, capsys):
        code, out = run_cli(
            [
                "veronese",
                "--kind",
                "standard",
                "--n",
                "1",
                "--d",
                "2",
                "--prime",
                "3",
                "--check",
                "isometry",
                "--pairs",
                "50",
                "--no-files",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["results"]["failures"] == 0

    def test_arclength_values(self, capsys):
        code, out = run_cli(
            [
                "veronese",
                "--kind",
                "mahler",
                "--d",
                "3",
                "--prime",
                "3",
                "--check",
                "arclength",
                "--no-files",
            ],
            capsys,
        )
        res = json.loads(out)["results"]
        assert res["affine_image_volume"] == {"num": 3, "den": 1}
        assert res["annulus_volumes"]["m=1"] == {"num": 2, "den": 27}


class TestIgf:
    def test_expected_zeros_json(self, capsys):
        code, out = run_cli(
            [
                "igf",
                "--experiment",
                "expected-zeros",
                "--model",
                "mahler",
                "--prime",
                "3",
                "--degree",
                "3",
                "--region",
                "zp",
                "--samples",
                "600",
                "--seed",
                "4",
                "--no-files",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["target_num"] == 9
        assert payload["results"]["target_den"] == 4
        assert payload["results"]["pass"] is True
        assert payload["config"]["params"]["seed"] == 4

    def test_csv_output(self, capsys, tmp_path):
        code, out = run_cli(
            [
                "igf",
                "--outdir",
                str(tmp_path),
                "--experiment",
                "curve",
                "--curve",
                "line",
                "--prime",
                "3",
                "--degree",
                "1",
                "--samples",
                "200",
                "--output",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = (tmp_path / "report-igf.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "excluded"

    def test_density_json_names_its_statistics(self, capsys):
        args = ["igf", "--experiment", "density", "--model", "monomial", "--prime", "3"]
        code, out = run_cli(args + ["--degree", "3", "--samples", "300", "--no-files"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert sorted(results) == [
            "bins",
            "chi2",
            "excluded",
            "experiment",
            "n_samples",
            "p_value",
            "params",
            "rejects_uniformity",
        ]
        assert results["chi2"] == "8.86544342508"
        assert results["p_value"] == "0.0311344307475"
        assert results["rejects_uniformity"] is False
        assert sum(results["bins"]) > 0

    def test_density_csv_reports_a_rejection_with_exit_code_zero(self, capsys, tmp_path):
        args = ["igf", "--outdir", str(tmp_path), "--experiment", "density", "--model", "mahler"]
        args += ["--prime", "3", "--degree", "3", "--samples", "150", "--output", "csv"]
        code, _ = run_cli(args, capsys)
        assert code == 0
        header, row = csv.reader((tmp_path / "report-igf.csv").read_text().splitlines())
        results = dict(zip(header, row))
        assert header == sorted(header) and "mean" not in header and "pass" not in header
        assert float(results["p_value"]) < 1e-3 < float(results["chi2"])
        assert results["rejects_uniformity"] == "True"

    @pytest.mark.parametrize(
        "experiment", ["linear-lemma", "curve", "expected-zeros", "density"]
    )
    def test_csv_rows_have_one_cell_per_header_name(self, capsys, tmp_path, experiment):
        args = ["igf", "--outdir", str(tmp_path), "--experiment", experiment, "--prime", "3"]
        code, out = run_cli(args + ["--samples", "30", "--output", "csv"], capsys)
        assert code == 0
        printed = list(csv.reader(out.splitlines()))
        header, row = printed
        assert len(row) == len(header)
        assert dict(zip(header, row))["stream_format"] == str(STREAM_FORMAT)
        written = (tmp_path / "report-igf.csv").read_text().splitlines()
        assert list(csv.reader(written)) == printed


class TestRecordedOptions:
    """A report's config records exactly the options its run read."""

    @pytest.mark.parametrize(
        "experiment,own",
        [
            ("linear-lemma", {"prime", "ball"}),
            ("curve", {"curve", "prime", "degree"}),
            ("expected-zeros", {"model", "prime", "degree", "region"}),
            ("density", {"model", "prime", "degree"}),
        ],
    )
    def test_igf_config_holds_the_options_of_its_experiment(self, capsys, experiment, own):
        args = ["igf", "--experiment", experiment, "--prime", "3", "--samples", "20"]
        _, out = run_cli(args + ["--no-files"], capsys)
        common = {"experiment", "samples", "seed", "workers", "output"}
        assert set(json.loads(out)["config"]["params"]) == common | own

    def test_line_curve_config_has_no_degree(self, capsys):
        args = ["igf", "--experiment", "curve", "--curve", "line", "--prime", "3"]
        outs = []
        for degree in ("1", "4"):
            _, out = run_cli(args + ["--degree", degree, "--samples", "20", "--no-files"], capsys)
            outs.append(out)
        payload = json.loads(outs[0])
        common = {"experiment", "samples", "seed", "workers", "output"}
        assert set(payload["config"]["params"]) == common | {"curve", "prime"}
        assert payload["results"]["params"]["degree"] == 1
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "check,params",
        [
            ("isometry", {"kind", "n", "d", "prime", "check", "pairs", "seed"}),
            ("jacobian", {"kind", "d", "prime", "check"}),
            ("arclength", {"kind", "d", "prime", "check"}),
        ],
    )
    def test_veronese_config_holds_the_options_of_its_check(self, capsys, check, params):
        args = ["veronese", "--kind", "mahler", "--d", "3", "--prime", "3", "--check", check]
        code, out = run_cli(args + ["--pairs", "5", "--seed", "2", "--no-files"], capsys)
        assert code == 0
        assert set(json.loads(out)["config"]["params"]) == params


class TestDeterminism:
    def test_identical_config_identical_bytes(self, capsys):
        args = [
            "igf",
            "--experiment",
            "expected-zeros",
            "--model",
            "monomial",
            "--prime",
            "3",
            "--degree",
            "2",
            "--samples",
            "400",
            "--seed",
            "11",
            "--no-files",
        ]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        assert out1 == out2

    def test_seed_echoed(self, capsys):
        _, out = run_cli(
            [
                "igf",
                "--experiment",
                "expected-zeros",
                "--prime",
                "3",
                "--samples",
                "200",
                "--seed",
                "123",
                "--no-files",
            ],
            capsys,
        )
        assert json.loads(out)["config"]["params"]["seed"] == 123

    def test_report_does_not_depend_on_where_it_is_written(self, capsys, tmp_path):
        outs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            outdir.mkdir()
            code, out = run_cli(
                ["igf", "--outdir", str(outdir), "--experiment", "curve", "--curve", "line",
                 "--prime", "3", "--degree", "1", "--samples", "50"],
                capsys,
            )
            assert code == 0
            assert (outdir / "report-igf.json").read_text() == out
            outs.append(out)
        assert outs[0] == outs[1]
        params = json.loads(outs[0])["config"]["params"]
        assert not {"outdir", "output_name", "no_files"} & set(params)
        assert params["experiment"] == "curve" and params["samples"] == 50


class TestReportRoundTrip:
    def test_config_and_results_round_trip(self):
        params = {"prime": 5, "coeffs": [1, 0, -1]}
        results = {"count": 2, "status": "exact"}
        payload = json.loads(emit_report("roots", params, results, None))
        assert payload["config"] == {
            "subcommand": "roots",
            "params": params,
            "stream_format": STREAM_FORMAT,
        }
        assert payload["results"] == results

    def test_reports_record_the_stream_format(self, capsys):
        code, out = run_cli(
            ["igf", "--experiment", "curve", "--curve", "line", "--prime", "3",
             "--degree", "1", "--samples", "5", "--no-files"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["config"]["stream_format"] == 3

    def test_rational_encoding(self):
        from fractions import Fraction

        text = emit_report("volume", {}, {"v": Fraction(4, 3)}, None)
        assert json.loads(text)["results"]["v"] == {"num": 4, "den": 3}

    def test_float_rendering(self):
        text = emit_report("igf", {}, {"mean": 0.1234567890123456}, None)
        assert json.loads(text)["results"]["mean"] == "0.123456789012"

    def test_outdir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PADICGEO_OUTDIR", str(tmp_path))
        code, _ = run_cli(
            ["roots", "--coeffs", "1,1", "--prime", "3"], capsys
        )
        assert code == 0
        assert (tmp_path / "report-roots.json").exists()


class TestReproduceSubset:
    def test_fast_criteria_table(self, capsys, tmp_path):
        code, out = run_cli(
            [
                "reproduce-paper",
                "--outdir",
                str(tmp_path),
                "--seed",
                "42",
                "--only",
                "1",
                "2",
            ],
            capsys,
        )
        assert code == 0
        assert "criterion  1  pass" in out
        assert "all criteria passed" in out
        payload = json.loads((tmp_path / "report-reproduce-paper.json").read_text())
        assert payload["results"]["all_pass"] is True
        assert len(payload["results"]["criteria"]) == 2


class TestUsageErrors:
    def test_unknown_chart(self, capsys):
        code = main(["roots", "--coeffs", "1,1", "--prime", "3", "--chart", "weird", "--no-files"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("precision", ["0", "-1"])
    def test_precision_below_one_is_a_usage_error(self, capsys, precision):
        code = main(
            ["roots", "--coeffs", "1,0,-2", "--prime", "7", "--precision", precision, "--no-files"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        want = f"usage error: precision must be None or an int >= 1, not {precision}\n"
        assert captured.err == want

    def test_annulus_below_level_one_is_a_usage_error(self, capsys):
        for model, region in itertools.product(("monomial", "mahler"), ("annulus:0", "annulus:-1")):
            code = main(
                ["igf", "--experiment", "expected-zeros", "--model", model, "--prime", "3",
                 "--region", region, "--samples", "5", "--no-files"]
            )
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "usage error: m must be >= 1\n"

    def test_zero_generator_is_a_usage_error(self, capsys):
        code = main(
            ["count", "--gens", "0;x2", "--prime", "3", "--level", "2", "--dim", "1", "--no-files"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and "nonzero" in captured.err

    def test_composite_prime_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--coeffs", "1,0,-1", "--prime", "4", "--no-files"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --prime: 4 is not a prime" in captured.err

    def test_workers_below_one_is_a_usage_error(self, capsys):
        for workers in ("0", "-1"):
            code = main(
                ["igf", "--experiment", "expected-zeros", "--prime", "3", "--samples", "5",
                 "--workers", workers, "--no-files"]
            )
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage error:") and "workers" in captured.err

    def test_samples_below_one_is_a_usage_error(self, capsys):
        for samples in ("0", "-5"):
            code = main(
                ["igf", "--experiment", "expected-zeros", "--prime", "3", "--samples", samples,
                 "--no-files"]
            )
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage error:") and "samples" in captured.err

    def test_missing_outdir_is_rejected_before_any_work(self, capsys, tmp_path, monkeypatch):
        def refuse(**kwargs):
            raise RuntimeError("the criteria ran")

        monkeypatch.setattr(accept, "run_all", refuse)
        missing = tmp_path / "missing"
        code = main(["reproduce-paper", "--outdir", str(missing), "--only", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error:")
        assert not missing.exists()

    def test_degree_bound_violation_is_an_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(igf, "count_roots_p1", lambda *args, **kwargs: RootReport(3, "exact"))
        code = main(
            [
                "igf",
                "--experiment",
                "curve",
                "--curve",
                "veronese",
                "--degree",
                "2",
                "--prime",
                "3",
                "--samples",
                "5",
                "--no-files",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_reproduce_checks_its_seed_before_any_criterion(self, capsys):
        code = main(["reproduce-paper", "--seed", "-1", "--only", "1", "2", "3", "--no-files"])
        assert code == 2
        captured = capsys.readouterr()
        assert "criterion" not in captured.out
        assert captured.err.startswith("usage error:") and "seed -1" in captured.err

    def test_only_outside_the_criteria_is_rejected_before_any_criterion(self, capsys):
        for bad in ("13", "0"):
            code = main(["reproduce-paper", "--only", "1", bad, "--no-files"])
            assert code == 2
            captured = capsys.readouterr()
            assert "criterion" not in captured.out
            assert captured.err.startswith("usage error:") and f"criterion {bad}" in captured.err

    def test_veronese_pairs_below_one_is_a_usage_error(self, capsys):
        for pairs in ("0", "-5"):
            code = main(
                ["veronese", "--kind", "standard", "--d", "2", "--prime", "3",
                 "--check", "isometry", "--pairs", pairs, "--no-files"]
            )
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage error:") and "pairs" in captured.err

    def test_veronese_standard_kind_has_only_the_isometry_check(self, capsys):
        for check in ("jacobian", "arclength"):
            code = main(
                ["veronese", "--kind", "standard", "--d", "3", "--prime", "3",
                 "--check", check, "--no-files"]
            )
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"usage error: --check {check} needs --kind mahler\n"

    def test_veronese_mahler_kind_in_two_variables_is_a_usage_error(self, capsys):
        code = main(
            ["veronese", "--kind", "mahler", "--n", "2", "--d", "3", "--prime", "3",
             "--check", "isometry", "--pairs", "5", "--no-files"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and "univariate" in captured.err

    def test_veronese_degree_or_dimension_below_one_is_a_usage_error(self, capsys):
        for shape in (["--n", "1", "--d", "-1"], ["--n", "0", "--d", "2"]):
            code = main(
                ["veronese", "--kind", "standard", *shape, "--prime", "3",
                 "--check", "isometry", "--pairs", "5", "--no-files"]
            )
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage error:") and ">= 1" in captured.err

    def test_seed_outside_64_bits_is_an_error_line(self, capsys):
        code = main(
            ["igf", "--experiment", "expected-zeros", "--prime", "3", "--samples", "5",
             "--seed", "-1", "--no-files"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "seed -1" in err
