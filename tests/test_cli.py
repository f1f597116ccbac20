import numpy as np
import pytest

from methodagree.agreement import (
    WithinSubjectVariance,
    analyze,
    estimate_variances,
    paired_from_replicates,
)
from methodagree.cli import main
from methodagree.io import (
    emit_report,
    parse_paired,
    parse_replicated,
    parse_report,
    render_plot_svg,
    write_paired,
)
from methodagree.synthesis import generate, preset_config

PAIRED = "subject,a,b\n" + "".join(
    f"{i},{100 + i},{101 + i + (i % 3)}\n" for i in range(1, 13)
)

REPLICATED = "subject,method,replicate,value\n" + "".join(
    f"s{i},A,1,{100 + i}\ns{i},A,2,{102 + i}\n"
    f"s{i},B,1,{99 + 2 * i}\ns{i},B,2,{103 + i}\n"
    for i in range(1, 9)
)


@pytest.fixture
def paired_csv(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text(PAIRED, encoding="utf-8")
    return path


@pytest.fixture
def replicated_csv(tmp_path):
    path = tmp_path / "reps.csv"
    path.write_text(REPLICATED, encoding="utf-8")
    return path


class TestAnalyze:
    def test_weighted_with_explicit_variances(self, paired_csv, tmp_path, capsys):
        report = tmp_path / "rep.json"
        plot = tmp_path / "plot.svg"
        code = main([
            "analyze", "--input", str(paired_csv),
            "--swa", "2.0", "--swb", "4.5",
            "--report", str(report), "--plot", str(plot),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "axis: weighted average" in out
        assert "k:" in out and "bias:" in out and "loa:" in out
        result = parse_report(report.read_text(encoding="utf-8"))
        assert result.weights.alpha == 4.5
        assert result.weights.beta == 2.0
        assert plot.read_text(encoding="utf-8").startswith("<?xml")

    def test_classic_mode(self, paired_csv, capsys):
        code = main(["analyze", "--input", str(paired_csv), "--classic"])
        assert code == 0
        assert "axis: arithmetic mean" in capsys.readouterr().out

    def test_classic_warns_when_variances_supplied(self, paired_csv, capsys):
        code = main([
            "analyze", "--input", str(paired_csv), "--classic",
            "--swa", "1.0", "--swb", "2.0",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "ignores" in captured.err

    @pytest.mark.parametrize("with_input", [False, True])
    def test_classic_with_replicates_warns_only_next_to_input(
        self, paired_csv, replicated_csv, capsys, with_input
    ):
        # Alone, --replicates is the data, not a variance source to ignore.
        extra = ["--input", str(paired_csv)] if with_input else []
        code = main(["analyze", "--replicates", str(replicated_csv), "--classic", *extra])
        captured = capsys.readouterr()
        assert code == 0
        assert "axis: arithmetic mean" in captured.out
        assert ("ignores" in captured.err) if with_input else captured.err == ""

    def test_replicates_variance_source(self, replicated_csv, capsys):
        code = main(["analyze", "--replicates", str(replicated_csv)])
        assert code == 0
        assert "weighted average" in capsys.readouterr().out

    def test_zero_variances_rejected(self, paired_csv, capsys):
        code = main([
            "analyze", "--input", str(paired_csv), "--swa", "0", "--swb", "0",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "degenerate weights" in captured.err

    def test_non_finite_variance_rejected(self, paired_csv, capsys):
        code = main(["analyze", "--input", str(paired_csv), "--swa", "nan", "--swb", "1"])
        assert code == 2
        assert "s_wa2 must be finite, got nan" in capsys.readouterr().err

    def test_swa_without_swb_rejected(self, paired_csv, capsys):
        code = main(["analyze", "--input", str(paired_csv), "--swa", "1.0"])
        assert code == 2
        assert "--swb" in capsys.readouterr().err

    def test_conflicting_variance_sources_rejected(
        self, paired_csv, replicated_csv, capsys
    ):
        code = main([
            "analyze", "--input", str(paired_csv),
            "--replicates", str(replicated_csv),
            "--swa", "1.0", "--swb", "2.0",
        ])
        assert code == 2
        assert "conflict" in capsys.readouterr().err

    def test_no_variance_source_rejected(self, paired_csv, capsys):
        code = main(["analyze", "--input", str(paired_csv)])
        assert code == 2
        assert "weighted analysis needs" in capsys.readouterr().err

    def test_no_input_rejected(self, capsys):
        code = main(["analyze", "--swa", "1.0", "--swb", "2.0"])
        assert code == 2
        assert "--input" in capsys.readouterr().err

    def test_unterminated_quote_exits_2(self, tmp_path, capsys):
        # the open quote swallows 20,000 rows, past the csv module's field limit
        path = tmp_path / "reps.csv"
        path.write_text('subject,method,replicate,value\n"S1,A,1,1.0\n'
                        + "".join(f"S{i},A,1,1.0\n" for i in range(20_000)), encoding="utf-8")
        code = main(["analyze", "--replicates", str(path)])
        assert code == 2
        assert "line 2: field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, code", [(["--classic"], 2),
                                             (["--swa", "1.5", "--swb", "1.5"], 0)],
                             ids=["classic", "weighted"])
    def test_values_near_largest_double(self, tmp_path, capsys, flags, code):
        # a + b overflows for the mean axis; the weighted axis stays finite
        path = tmp_path / "big.csv"
        path.write_text("subject,a,b\n1,1e308,1.1e308\n2,1.5e308,1.4e308\n"
                        "3,1.7e308,1.6e308\n4,1.2e308,1.3e308\n", encoding="utf-8")
        assert main(["analyze", "--input", str(path), *flags]) == code
        err = capsys.readouterr().err
        assert err == ("error: the sum a + b of the mean axis overflows the largest double; "
                       "rescale the measurements\n" if code else "")

    def test_overflowing_slope_exits_2(self, tmp_path, capsys):
        # the axis is a, near 1e-300, and the difference near 1e300: the slope overflows,
        # and scaling a and b together (here by 1e-5) leaves it as it is, so no rescaling helps
        path = tmp_path / "big.csv"
        for lo, hi in [(-300, 300), (-305, 295)]:
            path.write_text(f"subject,a,b\n1,1e{lo},1e{hi}\n2,2e{lo},-1e{hi}\n"
                            f"3,3e{lo},5e{hi - 1}\n4,4e{lo},2e{hi - 1}\n", encoding="utf-8")
            assert main(["analyze", "--input", str(path), "--swa", "0", "--swb", "1"]) == 2
            assert capsys.readouterr().err == (
                "error: the trend slope overflows the largest double; "
                "the axis values barely vary next to the differences, at any scale\n")

    @pytest.mark.parametrize("exponent, code", [(300, 2), (270, 0)], ids=["1e300", "1e270"])
    def test_overflowing_intercept_is_cured_by_rescaling(self, tmp_path, capsys, exponent, code):
        # the axis is a, near 10**exponent, and b - a = 1e10 * (a - a_1): a slope of 1e10
        # and an intercept near -1e10 * a, which overflows at 1e300 but not at 1e270
        path = tmp_path / "big.csv"
        path.write_text("subject,a,b\n" + "".join(
            f"{i},1.000000000{i - 1}e{exponent},{i}.000000000{i - 1}e{exponent}\n"
            for i in range(1, 5)), encoding="utf-8")
        assert main(["analyze", "--input", str(path), "--swa", "0", "--swb", "1"]) == code
        assert capsys.readouterr().err == ("error: the trend intercept overflows the largest "
                                           "double; rescale the measurements\n" if code else "")

    def test_constant_axis_exits_3(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text(
            "subject,a,b\n1,100,100\n2,100,100\n3,100,100\n", encoding="utf-8"
        )
        code = main(["analyze", "--input", str(path), "--classic"])
        assert code == 3
        assert "constant" in capsys.readouterr().err

    def test_direction_flag(self, paired_csv, capsys):
        main(["analyze", "--input", str(paired_csv), "--classic", "--direction", "a-b"])
        assert "direction: a-b" in capsys.readouterr().out

    @pytest.mark.parametrize("level, label", [("0.95", "95% CI"), ("0.5", "50% CI"),
                                              ("0.999", "99.9% CI"),
                                              ("0.9999999", "99.99999% CI")])
    def test_confidence_label_names_the_level(self, paired_csv, capsys, level, label):
        code = main(["analyze", "--input", str(paired_csv), "--swa", "1", "--swb", "4",
                     "--confidence", level])
        (k_line,) = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("k:")]
        assert code == 0
        assert f"   {label}: (" in k_line

    def test_confidence_whose_quantile_level_rounds_to_one(self, paired_csv, capsys):
        code = main(["analyze", "--input", str(paired_csv), "--classic",
                     "--confidence", "0.9999999999999999"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: confidence 0.9999999999999999 is too close to 1: ")

    def test_confidence_outside_the_unit_interval(self, paired_csv, capsys):
        code = main(["analyze", "--input", str(paired_csv), "--classic", "--confidence", "1.5"])
        assert code == 2
        assert capsys.readouterr().err == "error: confidence must lie in (0, 1), got 1.5\n"

    @pytest.mark.parametrize("flags, code", [(["--classic"], 0), ([], 2)],
                             ids=["classic", "weighted"])
    def test_replicates_without_spread(self, tmp_path, capsys, flags, code):
        # no subject varies within either method: only the weighted axis needs variances
        path = tmp_path / "flat.csv"
        path.write_text("subject,method,replicate,value\n" + "".join(
            f"s{i},{m},{r},{100 + i + (m == 'B') * i * i}\n"
            for i in range(1, 6) for m in "AB" for r in (1, 2)), encoding="utf-8")
        assert main(["analyze", "--replicates", str(path), *flags]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == ("error: degenerate weights: both within-subject "
                                    "variances are zero\n")
        else:
            assert "axis: arithmetic mean" in captured.out and captured.err == ""


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "{paired}", "--swa", "2.0", "--swb", "4.5"],
    ["analyze", "--replicates", "{replicated}"],
    ["replicate-variance", "--input", "{replicated}"],
])
def test_byte_order_mark_accepted(argv, tmp_path, capsys):
    out = {}
    for encoding in ("utf-8", "utf-8-sig"):  # utf-8-sig writes U+FEFF first
        paths = {}
        for name, text in (("paired", PAIRED), ("replicated", REPLICATED)):
            paths[name] = tmp_path / f"{name}-{encoding}.csv"
            paths[name].write_text(text, encoding=encoding)
        assert main([arg.format(**paths) for arg in argv]) == 0
        out[encoding] = capsys.readouterr().out
    assert paths["paired"].read_bytes().startswith(b"\xef\xbb\xbf")
    assert out["utf-8-sig"] == out["utf-8"]


class TestSimulate:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(["simulate", "--case", "a", "--out", str(out)])
        assert code == 0
        for name in (
            "pairs.csv",
            "report_mean.json",
            "report_weighted.json",
            "plot_mean.svg",
            "plot_weighted.svg",
        ):
            assert (out / name).is_file(), name

    def test_case_a_weighted_report_shows_no_trend(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--case", "a", "--out", str(out)])
        res = parse_report((out / "report_weighted.json").read_text(encoding="utf-8"))
        assert res.fit.r == pytest.approx(0.0, abs=1e-9)
        assert res.fit.p_value == pytest.approx(1.0, abs=1e-9)

    def test_case_b_reports_agree_across_axes(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--case", "b", "--out", str(out)])
        classic = parse_report((out / "report_mean.json").read_text(encoding="utf-8"))
        weighted = parse_report(
            (out / "report_weighted.json").read_text(encoding="utf-8")
        )
        assert weighted.fit.slope == pytest.approx(classic.fit.slope, abs=1e-9)
        assert weighted.fit.r == pytest.approx(classic.fit.r, abs=1e-9)
        assert weighted.fit.p_value == pytest.approx(classic.fit.p_value, abs=1e-9)

    def test_exact_moment_stats_are_seed_independent(self, tmp_path):
        stats = []
        for seed in ("7", "8"):
            out = tmp_path / f"sim{seed}"
            main(["simulate", "--case", "d", "--seed", seed, "--out", str(out)])
            res = parse_report((out / "report_mean.json").read_text(encoding="utf-8"))
            stats.append((res.fit.r, res.fit.p_value, res.fit.slope))
        np.testing.assert_allclose(stats[0], stats[1], atol=1e-9)

    def test_pairs_file_parses(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--case", "c", "--n", "50", "--out", str(out)])
        sample = parse_paired((out / "pairs.csv").read_text(encoding="utf-8"))
        assert sample.n == 50

    @pytest.mark.parametrize("raw, exact", [("true", True), ("false", False)])
    def test_exact_moments_flag(self, raw, exact, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--case", "d", "--exact-moments", raw, "--out", str(out)]) == 0
        want = write_paired(generate(preset_config("d", exact_moments=exact)))
        assert (out / "pairs.csv").read_bytes() == want.encode()

    def test_exact_moments_flag_defaults_to_true(self, tmp_path, capsys):
        for flags in ([], ["--exact-moments", "true"]):
            main(["simulate", "--case", "d", *flags, "--out", str(tmp_path / str(len(flags)))])
        for name in ("pairs.csv", "report_weighted.json", "plot_mean.svg"):
            assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_exact_moments_flag_rejects_other_words(self, tmp_path, capsys):
        for raw in ("maybe", "TRUE", "yes", "1", "off"):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--case", "d", "--exact-moments", raw, "--out", str(tmp_path)])
            assert exc.value.code == 2
            assert f"argument --exact-moments: invalid choice: {raw!r}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_bad_case_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--case", "q", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_non_finite_sigma_c_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--case", "a", "--sigma-c", "nan", "--out", str(tmp_path)])
        assert code == 2
        assert "sigma_c must be finite" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--case", "a", "--seed", "-1", "--out", str(tmp_path / "sim")])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not (tmp_path / "sim").exists()


class TestTable1:
    def test_prints_reference_cells(self, capsys):
        # criterion 1 asks for byte identity, so the whole table is pinned
        assert main(["table1"]) == 0
        assert capsys.readouterr().out == (
            "      mean axis                            weighted axis\n"
            "case  r     p      k (95% CI)              r     p      k (95% CI)\n"
            "a     0.00  1.00   0.00 (-0.04 – 0.04)     0.00  1.00   0.00 (-0.04 – 0.04)\n"
            "b     -0.42 <0.001 -0.10 (-0.15 – -0.06)   -0.42 <0.001 -0.10 (-0.15 – -0.06)\n"
            "c     0.22  0.03   0.10 (0.01 – 0.18)      0.00  1.00   0.00 (-0.09 – 0.09)\n"
            "d     0.01  0.91   0.01 (-0.09 – 0.10)     -0.22 0.03   -0.10 (-0.19 – -0.01)\n"
        )


class TestPredictCov:
    def test_equal_variance_case(self, capsys):
        assert main([
            "predict-cov", "--alpha", "1", "--beta", "1", "--swa", "2", "--swb", "2",
        ]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_unequal_case_with_direction(self, capsys):
        main([
            "predict-cov", "--alpha", "1", "--beta", "1",
            "--swa", "0.25", "--swb", "20.25", "--direction", "b-a",
        ])
        assert capsys.readouterr().out.strip() == "10"


class TestReplicateVariance:
    def test_prints_both_methods(self, tmp_path, capsys):
        path = tmp_path / "reps.csv"
        path.write_text(
            "subject,method,replicate,value\n"
            "s1,A,1,0\ns1,A,2,2\ns2,A,1,10\ns2,A,2,14\n"
            "s1,B,1,5\ns1,B,2,5\ns2,B,1,6\ns2,B,2,6\n",
            encoding="utf-8",
        )
        assert main(["replicate-variance", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "s_w2 A: 5" in out
        assert "s_w2 B: 0" in out

    def test_unequal_design_output_is_exact(self, tmp_path, capsys):
        path = tmp_path / "reps.csv"
        path.write_text(
            "subject,method,replicate,value\n"
            "s1,A,1,10.5\ns1,B,1,11.25\ns1,A,2,9.75\n\ns1,B,2,12.5\ns1,B,3,10.0\n"
            "s2,A,1,20.1\ns2,A,2,19.3\ns2,A,3,21.7\ns2,B,1,18.0\ns2,B,2,22.4\n",
            encoding="utf-8",
        )
        assert main(["replicate-variance", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "s_w2 A: 1.08930555556\ns_w2 B: 4.26833333333\n"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["replicate-variance", "--input", str(tmp_path / "nope.csv")])
        assert code == 2


class TestDeterminism:
    def test_simulate_twice_is_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            main(["simulate", "--case", "c", "--seed", "5", "--out", str(d)])
        for name in (
            "pairs.csv",
            "report_mean.json",
            "report_weighted.json",
            "plot_mean.svg",
            "plot_weighted.svg",
        ):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_analyze_twice_is_byte_identical(self, paired_csv, tmp_path):
        outs = []
        for tag in ("one", "two"):
            report = tmp_path / f"rep_{tag}.json"
            plot = tmp_path / f"plot_{tag}.svg"
            main([
                "analyze", "--input", str(paired_csv),
                "--swa", "2.0", "--swb", "4.5",
                "--report", str(report), "--plot", str(plot),
            ])
            outs.append((report.read_bytes(), plot.read_bytes()))
        assert outs[0] == outs[1]

    def test_simulate_files_equal_in_process_text(self, tmp_path):
        main(["simulate", "--case", "d", "--n", "40", "--seed", "3", "--direction", "a-b",
              "--out", str(tmp_path)])
        config = preset_config("d", n=40, seed=3)
        sample = generate(config)
        classic = analyze(sample, direction="a-b")
        weighted = analyze(sample, axis="weighted", direction="a-b",
                           variances=config.error_variances())
        want = {
            "pairs.csv": write_paired(sample),
            "report_mean.json": emit_report(classic),
            "report_weighted.json": emit_report(weighted),
            "plot_mean.svg": render_plot_svg(classic),
            "plot_weighted.svg": render_plot_svg(weighted),
        }
        for name, text in want.items():
            assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name

    @pytest.mark.parametrize("source", ["replicated", "paired"])
    def test_analyze_files_equal_in_process_text(self, source, paired_csv, replicated_csv,
                                                 tmp_path):
        if source == "replicated":
            reps = parse_replicated(REPLICATED)
            result = analyze(paired_from_replicates(reps), axis="weighted",
                             variances=estimate_variances(reps))
            flags = ["--replicates", str(replicated_csv)]
        else:
            result = analyze(parse_paired(PAIRED), axis="weighted",
                             variances=WithinSubjectVariance(2.0, 4.5))
            flags = ["--input", str(paired_csv), "--swa", "2.0", "--swb", "4.5"]
        report, plot = tmp_path / "rep.json", tmp_path / "plot.svg"
        assert main(["analyze", *flags, "--report", str(report), "--plot", str(plot)]) == 0
        assert report.read_bytes() == emit_report(result).encode("utf-8")
        assert plot.read_bytes() == render_plot_svg(result).encode("utf-8")
