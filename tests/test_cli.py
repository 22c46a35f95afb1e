"""CSV ingestion, pipeline orchestration, report rendering, subcommands."""

import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcause import cli, mgarch, optim, sure
from asymcause.cli import (
    AnalysisConfig,
    Report,
    _build_parser,
    format_p_value,
    load_csv,
    main,
    parse_report,
    render_report,
    run_pipeline,
)
from asymcause.decomposition import Series
from asymcause.errors import DataError, SingularityError
from asymcause.montecarlo import DgpConfig, empirical_size, simulate_dgp
from asymcause.optim import GTOL

from conftest import garch_pair_levels


def failing_garch_t(failure):
    """A stand-in for cli.fit_sure_garch_t whose fit fails as on four run-fgls
    pool pairs: it raises, or it stops unconverged with an indefinite
    covariance of the causal coefficients."""
    def fit(system, init):
        if failure == "raises":
            raise SingularityError("observed information matrix is not invertible; "
                                   "the fit stopped on: maximum iterations reached")
        real = mgarch.fit_sure_garch_t(system, init=init)
        covariance = real.mean.covariance.copy()
        first_causal = next(k for k, entry in enumerate(system.layout) if entry.causal)
        covariance[first_causal, first_causal] *= -1.0
        mean = dataclasses.replace(real.mean, covariance=covariance, converged=False)
        return dataclasses.replace(real, mean=mean, stop="curvature refresh limit reached")
    return fit


def negating_garch_t(system, init):
    """A stand-in for cli.fit_sure_garch_t whose covariance has a negative
    variance at the first coefficient that no catalog null restricts."""
    real = mgarch.fit_sure_garch_t(system, init=init)
    covariance = real.mean.covariance.copy()
    first_free = next(k for k, entry in enumerate(system.layout) if not entry.causal)
    covariance[first_free, first_free] = -abs(covariance[first_free, first_free])
    return dataclasses.replace(real, mean=dataclasses.replace(real.mean,
                                                              covariance=covariance))


GARCH_T_FAILURES = {
    "raises": "observed information matrix is not invertible; the fit stopped on: "
              "maximum iterations reached",
    "indefinite": "the garch_t covariance of the causal coefficients (inverse "
                  "information) is not positive definite; the fit stopped on: "
                  "curvature refresh limit reached",
}


def untimed(report: Report) -> Report:
    """The report without its wall-clock stage timings."""
    return dataclasses.replace(report, diagnostics={
        key: value for key, value in report.diagnostics.items() if key != "timings"})


def write_series_csv(path, series, transform=None, date_header="DATE",
                     value_header="VALUE", start_year=1999):
    transform = transform or (lambda v: v)
    lines = [f"{date_header},{value_header}"]
    for i, value in enumerate(series.values):
        year, month = start_year + (i + 2) // 12, (i + 2) % 12 + 1
        lines.append(f"{year:04d}-{month:02d}-01,{transform(value):.8f}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def pair_of_csvs(tmp_path):
    series = simulate_dgp(
        DgpConfig(drift=(0.003, 0.002), t_obs=303, seed=42)
    )
    paths = []
    for s, name in zip(series, ["us", "cn"]):
        paths.append(
            write_series_csv(
                tmp_path / f"{name}.csv", s, transform=lambda v: np.exp(v / 10 + 4)
            )
        )
    return paths


@pytest.fixture
def garch_csvs(tmp_path):
    # heteroskedastic pair so the GARCH path is the realistic choice
    levels = garch_pair_levels()
    paths = []
    for i, name in enumerate(["a", "b"]):
        holder = type("Holder", (), {"values": levels[:, i]})()
        paths.append(write_series_csv(tmp_path / f"{name}.csv", holder))
    return paths


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("DATE,VALUE\n1999-03-01,100.0\n1999-04-01,101.5\n")
        with pytest.raises(DataError, match="at least 3"):
            load_csv(str(path))
        path.write_text(
            "DATE,VALUE\n1999-03-01,100.0\n1999-04-01,101.5\n1999-05-01,99.0\n"
        )
        series = load_csv(str(path))
        assert len(series) == 3
        assert series.timestamps == ("1999-03-01", "1999-04-01", "1999-05-01")
        assert series.name == "tiny"

    def test_missing_marker_names_row(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("DATE,VALUE\n1999-03-01,1.0\n1999-04-01,.\n1999-05-01,2.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(str(path))

    def test_malformed_value_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("DATE,VALUE\n1999-03-01,1.0\n1999-04-01,abc\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(str(path))

    @pytest.mark.parametrize("raw, shown", [
        ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("-Infinity", "-inf"),
    ])
    def test_non_finite_value_names_file_and_row(self, tmp_path, capsys, raw, shown):
        rows = [f"1999-{month:02d}-01,{month}.0" for month in range(1, 10)]
        rows[5] = f"1999-06-01,{raw}"  # file row 7, after the header
        path = tmp_path / "a_nan.csv"
        path.write_text("DATE,VALUE\n" + "\n".join(rows) + "\n")
        message = f"{path}: non-finite value '{shown}' at row 7"
        with pytest.raises(DataError) as caught:
            load_csv(str(path))
        assert str(caught.value) == message
        assert main(["decompose", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_monotone_dates(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text(
            "DATE,VALUE\n1999-03-01,1.0\n1999-05-01,2.0\n1999-04-01,3.0\n"
        )
        with pytest.raises(DataError, match="strictly increasing at row 4"):
            load_csv(str(path))
        path.write_text(
            "DATE,VALUE\n1999-03-01,1.0\n1999-04-01,2.0\n1999-04-01,3.0\n"
        )
        with pytest.raises(DataError, match="strictly increasing at row 4"):
            load_csv(str(path))

    def test_numeric_labels_ordered_as_numbers(self, tmp_path):
        path = tmp_path / "numbered.csv"
        path.write_text("DATE,VALUE\n" + "".join(f"{i},{i}.0\n" for i in range(1, 13)))
        assert load_csv(str(path)).timestamps[8:] == ("9", "10", "11", "12")
        path.write_text("DATE,VALUE\n1,1.0\n10,2.0\n9,3.0\n")
        with pytest.raises(DataError, match=r"at row 4 \('10' then '9'\)"):
            load_csv(str(path))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("DATE,A,B\n1999-03-01,1.0,2.0\n")
        with pytest.raises(DataError, match="no column 'VALUE'"):
            load_csv(str(path))

    @pytest.mark.parametrize("header, column, positions", [
        ("DATE,VALUE,value", "VALUE", "2, 3"),
        ("date,VALUE,DATE", "DATE", "1, 3"),
    ])
    def test_duplicated_column_rejected(self, tmp_path, header, column, positions):
        # case-insensitive names: the last duplicate used to win silently
        path = tmp_path / "dup.csv"
        path.write_text(f"{header}\n" + "".join(
            f"{20 - i},{i}.0,{i}.5\n" for i in range(1, 6)))
        with pytest.raises(DataError, match=f"column '{column}' appears more than "
                                            f"once, at positions {positions}"):
            load_csv(str(path))

    def test_two_column_fallback_uses_series_id(self, tmp_path):
        path = tmp_path / "fred.csv"
        path.write_text(
            "DATE,SPASTT01USM661N\n1999-03-01,1.0\n1999-04-01,2.0\n1999-05-01,3.0\n"
        )
        series = load_csv(str(path))
        assert series.name == "SPASTT01USM661N"

    def test_missing_file(self):
        with pytest.raises(DataError, match="no such file"):
            load_csv("/nonexistent/file.csv")

    def test_name_override(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("DATE,VALUE\n1,1.0\n2,2.0\n3,3.0\n")
        assert load_csv(str(path), name="renamed").name == "renamed"


class TestPipeline:
    def test_fgls_run_on_null_data(self, pair_of_csvs):
        config = AnalysisConfig(
            inputs=tuple(pair_of_csvs),
            log_transform=True,
            fixed_lags=(1, 1),
            estimator="fgls",
        )
        report = run_pipeline(config)
        assert len(report.hypotheses) == 10
        above = sum(1 for row in report.hypotheses if row["p_value"] > 0.05)
        assert above >= 7  # independent random walks: mostly no rejections
        assert report.provenance["estimator"] == "fgls"
        sample = report.provenance["sample"]
        assert sample["observations"] == 303  # monthly, 1999-03 .. 2024-05
        assert sample["effective_sample"] == 301
        assert (sample["start"], sample["end"]) == ("1999-03-01", "2024-05-01")
        assert len(report.estimates) == 20
        causal = [row for row in report.estimates if row["causal"]]
        assert sorted(row["name"] for row in causal) == [
            "beta+_2,1", "beta-_2,1", "gamma+_1,1", "gamma-_1,1",
        ]

    def test_auto_on_homoskedastic_data_picks_fgls(self, pair_of_csvs):
        config = AnalysisConfig(
            inputs=tuple(pair_of_csvs),
            log_transform=True,
            fixed_lags=(1, 1),
            estimator="auto",
        )
        report = run_pipeline(config)
        assert report.provenance["estimator"] == "fgls"
        assert "arch_lm" in report.diagnostics
        assert report.diagnostics["arch_lm"]["p_value"] >= 0.05

    def test_auto_keeps_fgls_when_the_gate_sample_is_too_short(self, tmp_path):
        # 14 observations leave FGLS 12 rows, too few for the ARCH LM regression
        rng = np.random.default_rng(1)
        paths = [write_series_csv(tmp_path / f"s{i}.csv",
                                  Series(rng.standard_normal(14).cumsum()))
                 for i in range(2)]
        out = tmp_path / "report.json"
        assert main(["run", "--input", *paths, "--fixed-lags", "1", "1",
                     "--format", "json", "--out", str(out)]) == 0
        report = parse_report(out.read_text())
        fgls = run_pipeline(AnalysisConfig(inputs=tuple(paths), fixed_lags=(1, 1),
                                           estimator="fgls"))
        assert report.provenance["estimator"] == "fgls"
        assert report.estimates == fgls.estimates
        assert report.diagnostics["arch_lm"] == {
            "lags": 1, "not_run": "12 observations are too few for the ARCH "
            "regression with 1 lag(s) of 10 outer-product terms"}
        warning = "ARCH LM gate not run, fgls kept: 12 observations are too few"
        assert any(w.startswith(warning) for w in report.diagnostics["warnings"])
        assert f"Warning: {warning}" in render_report(report)

    def test_lag_selection_recorded(self, pair_of_csvs):
        config = AnalysisConfig(
            inputs=tuple(pair_of_csvs),
            log_transform=True,
            p_max=4,
            estimator="fgls",
        )
        report = run_pipeline(config)
        selection = report.diagnostics["lag_selection"]
        assert selection["selected"] == [1, 1]
        assert len(selection["positive"]) == 4

    def test_mismatched_lengths_rejected(self, tmp_path, pair_of_csvs):
        short = tmp_path / "short.csv"
        short.write_text(
            "DATE,VALUE\n1999-03-01,1.0\n1999-04-01,2.0\n1999-05-01,3.0\n"
        )
        config = AnalysisConfig(inputs=(pair_of_csvs[0], str(short)))
        with pytest.raises(DataError, match="lengths differ"):
            run_pipeline(config)
        # equal lengths over different date ranges are never paired
        later = write_series_csv(tmp_path / "later.csv",
                                 load_csv(pair_of_csvs[1]), start_year=2005)
        config = AnalysisConfig(inputs=(pair_of_csvs[0], later))
        with pytest.raises(DataError,
                           match="observation 1: us='1999-03-01', later='2005-03-01'"):
            run_pipeline(config)

    def test_log_of_nonpositive_rejected(self, tmp_path):
        bad = tmp_path / "neg.csv"
        bad.write_text(
            "DATE,VALUE\n1999-03-01,1.0\n1999-04-01,-2.0\n1999-05-01,3.0\n"
        )
        config = AnalysisConfig(
            inputs=(str(bad), str(bad)), log_transform=True
        )
        with pytest.raises(DataError, match="positive"):
            run_pipeline(config)

    def test_deterministic_json_reports(self, pair_of_csvs):
        config = AnalysisConfig(
            inputs=tuple(pair_of_csvs),
            log_transform=True,
            fixed_lags=(1, 1),
            estimator="fgls",
        )
        # byte for byte, but for the wall-clock stage timings
        first = render_report(untimed(run_pipeline(config)), "json")
        second = render_report(untimed(run_pipeline(config)), "json")
        assert first == second

    def test_garch_branch_end_to_end(self, garch_csvs):
        config = AnalysisConfig(
            inputs=tuple(garch_csvs),
            fixed_lags=(1, 1),
            estimator="garch_t",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_pipeline(config)
        assert report.provenance["estimator"] == "garch_t"
        estimation = report.diagnostics["estimation"]
        assert estimation["estimator"] == "garch_t"
        assert np.isfinite(estimation["loglik"])
        assert estimation["converged"]
        assert estimation["gradient_max"] < GTOL
        assert estimation["stop"] == "gradient norm below tolerance"
        assert isinstance(estimation["n_evals"], int) and estimation["n_evals"] > 0
        # score rows: at least the 2 x 39 probes of the curvature at the start
        assert isinstance(estimation["n_gradients"], int)
        assert estimation["n_gradients"] > 2 * 39
        assert 1.0 <= estimation["information_condition"] < np.inf
        parsed = parse_report(report.to_json())
        assert parsed == report
        for key in ("n_evals", "n_gradients", "information_condition"):
            assert parsed.diagnostics["estimation"][key] == estimation[key]
        # 158 observations for 39 parameters: the small-sample warning is reported
        assert report.diagnostics["warnings"] == [
            "effective sample 158 is below 10x the 39 free parameters; "
            "estimates may be unstable"
        ]

    def test_stage_timings_are_in_the_json_report_only(self, pair_of_csvs):
        report = run_pipeline(AnalysisConfig(inputs=tuple(pair_of_csvs), log_transform=True,
                                             p_max=4, estimator="fgls"))
        timings = report.diagnostics["timings"]
        assert list(timings) == ["ingest", "decomposition", "lag_selection", "design",
                                 "estimation", "wald"]
        assert all(isinstance(seconds, float) and seconds >= 0 for seconds in timings.values())
        assert parse_report(report.to_json()) == report
        assert render_report(report) == render_report(untimed(report))

    def test_unconverged_fgls_is_warned(self, pair_of_csvs, monkeypatch):
        monkeypatch.setattr(sure, "FGLS_MAX_ITER", 1)
        config = AnalysisConfig(inputs=tuple(pair_of_csvs), log_transform=True,
                                fixed_lags=(1, 1), estimator="fgls")
        report = run_pipeline(config)
        assert not report.diagnostics["estimation"]["converged"]
        warning = ("the fgls estimate did not converge (GLS solve limit of 1 "
                   "reached); its standard errors and Wald tests are unreliable")
        assert report.diagnostics["warnings"] == [warning]
        assert f"  Warning: {warning}" in render_report(report, "text").splitlines()

    def test_unconverged_garch_fit_is_warned(self, garch_csvs, monkeypatch):
        monkeypatch.setattr(optim, "CURVATURE_REFRESHES", 0)
        config = AnalysisConfig(inputs=tuple(garch_csvs), fixed_lags=(1, 1),
                                estimator="garch_t")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_pipeline(config)
        estimation = report.diagnostics["estimation"]
        assert not estimation["converged"]
        assert estimation["stop"] == "curvature refresh limit reached"
        # in stage order: the fit's own warning, then non-convergence; the
        # list closes the diagnostics
        assert list(report.diagnostics) == ["estimation", "timings", "warnings"]
        assert report.diagnostics["warnings"] == [
            "effective sample 158 is below 10x the 39 free parameters; "
            "estimates may be unstable",
            "the garch_t estimate did not converge (curvature refresh limit reached); "
            "its standard errors and Wald tests are unreliable",
        ]

    def test_a_negative_variance_is_warned(self, garch_csvs, monkeypatch):
        monkeypatch.setattr(cli, "fit_sure_garch_t", negating_garch_t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_pipeline(AnalysisConfig(inputs=tuple(garch_csvs),
                                                 fixed_lags=(1, 1)))
        assert report.provenance["estimator"] == "garch_t"
        nulls = [row["name"] for row in report.estimates if row["std_error"] is None]
        assert nulls == ["lambda+_1"]
        warning = ("the garch_t covariance has negative variances at lambda+_1; "
                   "their standard errors are null")
        assert report.diagnostics["warnings"][-1] == warning
        assert f"  Warning: {warning}" in render_report(report).splitlines()

    @pytest.mark.parametrize("failure", sorted(GARCH_T_FAILURES))
    def test_auto_keeps_fgls_when_the_garch_t_fit_fails(self, garch_csvs, monkeypatch,
                                                         failure):
        fgls = run_pipeline(AnalysisConfig(inputs=tuple(garch_csvs), fixed_lags=(1, 1),
                                           estimator="fgls"))
        monkeypatch.setattr(cli, "fit_sure_garch_t", failing_garch_t(failure))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_pipeline(AnalysisConfig(inputs=tuple(garch_csvs),
                                                 fixed_lags=(1, 1)))
        assert report.diagnostics["arch_lm"]["p_value"] < cli.ARCH_GATE_LEVEL
        assert report.provenance["estimator"] == "fgls"
        assert report.diagnostics["estimation"] == fgls.diagnostics["estimation"]
        assert report.estimates == fgls.estimates
        assert report.hypotheses == fgls.hypotheses
        assert report.diagnostics["warnings"][-1] == (
            f"the garch_t fit failed, fgls kept: {GARCH_T_FAILURES[failure]}")

    @pytest.mark.parametrize("failure", sorted(GARCH_T_FAILURES))
    def test_a_forced_garch_t_fit_that_fails_exits_2(self, garch_csvs, monkeypatch,
                                                      capsys, failure):
        # the error names the covariance or the fit, not a hypothesis id
        monkeypatch.setattr(cli, "fit_sure_garch_t", failing_garch_t(failure))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["run", "--input", *garch_csvs, "--fixed-lags", "1", "1",
                         "--estimator", "garch_t"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {GARCH_T_FAILURES[failure]}\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


class TestRendering:
    def test_small_p_values_are_floored_in_text_only(self):
        assert format_p_value(3e-7) == "< 0.00001"
        assert format_p_value(0.125) == "0.12500"
        report = Report(
            config={},
            estimates=[{"name": "beta+_2,1", "value": 0.5, "std_error": 0.1,
                        "causal": True}],
            hypotheses=[
                {"id": "H1", "null": "beta+_2,1 = 0", "statistic": 30.0,
                 "dof": 1, "p_value": 3e-7, "implication": "x."}
            ],
            diagnostics={"estimation": {"estimator": "fgls", "iterations": 3,
                                        "converged": True}},
            provenance={"variables": ["a", "b"], "sample": {
                "start": "1", "end": "10", "observations": 10,
                "effective_sample": 8}, "lag_orders": [1, 1], "extra_lags": 1,
                "estimator": "fgls", "version": "0.1.0"},
        )
        text = render_report(report, "text")
        assert "< 0.00001" in text
        payload = json.loads(render_report(report, "json"))
        assert payload["hypotheses"][0]["p_value"] == 3e-7

    def test_json_round_trip(self, pair_of_csvs):
        config = AnalysisConfig(
            inputs=tuple(pair_of_csvs),
            log_transform=True,
            fixed_lags=(1, 1),
            estimator="fgls",
        )
        report = run_pipeline(config)
        assert parse_report(render_report(report, "json")) == report

    @settings(max_examples=60, deadline=None)
    @given(st.builds(
        Report,
        config=st.dictionaries(st.text(), JSON_VALUES, max_size=4),
        estimates=st.lists(JSON_VALUES, max_size=4),
        hypotheses=st.lists(JSON_VALUES, max_size=4),
        diagnostics=st.dictionaries(st.text(), JSON_VALUES, max_size=4),
        provenance=st.dictionaries(st.text(), JSON_VALUES, max_size=4),
    ))
    def test_json_round_trip_of_any_plain_content(self, report):
        assert parse_report(report.to_json()) == report

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(
                Report(config={}, estimates=[], hypotheses=[], diagnostics={},
                       provenance={}),
                "yaml",
            )


class TestConfigValidation:
    def test_needs_two_inputs(self):
        with pytest.raises(ValueError):
            AnalysisConfig(inputs=("only.csv",))

    def test_three_inputs_rejected(self):
        with pytest.raises(ValueError, match="exactly two series; got 3 inputs"):
            AnalysisConfig(inputs=("a", "b", "c"))

    def test_names_count_matches_inputs(self):
        with pytest.raises(ValueError, match="got 1 names for 2 inputs"):
            AnalysisConfig(inputs=("a", "b"), names=("US",))

    def test_to_dict_covers_every_field(self):
        config = AnalysisConfig(inputs=("a", "b"))
        fields = [field.name for field in dataclasses.fields(AnalysisConfig)]
        assert list(config.to_dict()) == fields

    def test_estimator_names(self):
        with pytest.raises(ValueError):
            AnalysisConfig(inputs=("a", "b"), estimator="mle")

    def test_deterministic_kind_validated(self):
        with pytest.raises(ValueError, match="unknown deterministic kind 'bogus'"):
            AnalysisConfig(inputs=("a", "b"), deterministic="bogus")

    def test_run_flags_build_default_config(self):
        args = vars(_build_parser().parse_args(["run", "--input", "a", "b"]))
        names = [field.name for field in dataclasses.fields(AnalysisConfig)]
        assert set(names) <= set(args)
        config = AnalysisConfig(**{name: args[name] for name in names})
        assert config == AnalysisConfig(inputs=("a", "b"))


class TestMainEntry:
    def test_run_subcommand_writes_report(self, pair_of_csvs, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "run", "--input", *pair_of_csvs, "--log", "--fixed-lags", "1", "1",
            "--estimator", "fgls", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "config", "estimates", "hypotheses", "diagnostics", "provenance"
        }
        assert len(payload["hypotheses"]) == 10

    def test_run_text_to_stdout(self, pair_of_csvs, capsys):
        code = main([
            "run", "--input", *pair_of_csvs, "--log", "--fixed-lags", "1", "1",
            "--estimator", "fgls", "--names", "US", "China",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "Efficient asymmetric causality tests" in text
        assert "A rising China does not cause a rising US." in text

    def test_decompose_subcommand_recomposes(self, pair_of_csvs, tmp_path):
        out = tmp_path / "components.csv"
        code = main([
            "decompose", "--input", pair_of_csvs[0], "--log", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "DATE,POSITIVE,NEGATIVE"
        parsed = np.array(
            [[float(c) for c in line.split(",")[1:]] for line in lines[1:]]
        )
        original = np.log(load_csv(pair_of_csvs[0]).values)
        np.testing.assert_allclose(parsed.sum(axis=1), original, atol=1e-9)

    def test_mc_size_subcommand_json(self, tmp_path):
        out = tmp_path / "rates.json"
        code = main([
            "mc-size", "--reps", "20", "--T", "120", "--seed", "5",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        # each setting is stated once, inside the config
        assert list(payload) == ["reps", "config", "rates"]
        assert payload["reps"] == 20
        assert set(payload["rates"]) == {f"H{i}" for i in range(1, 11)}

    def test_mc_size_flags_are_dgp_fields(self, tmp_path):
        out = tmp_path / "rates.json"
        code = main([
            "mc-size", "--reps", "20", "--T", "80", "--seed", "9",
            "--drift", "0.2", "0.1", "--trend", "0.01", "0.0",
            "--error-correlation", "0.5", "--tail", "t", "--df", "6",
            "--feedback", "0.3", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        config = DgpConfig(
            drift=(0.2, 0.1), trend=(0.01, 0.0), error_correlation=0.5,
            error_tail="t", error_df=6.0, causal_feedback=0.3, t_obs=80, seed=9,
        )
        assert json.loads(out.read_text())["rates"] == empirical_size(config, reps=20)

    def test_mc_size_json_reruns_from_its_config(self, tmp_path):
        out = tmp_path / "rates.json"
        assert main([
            "mc-size", "--reps", "10", "--T", "60", "--seed", "3", "--level", "0.1",
            "--drift", "0.2", "0.1", "--trend", "0.01", "0.0",
            "--error-correlation", "0.5", "--tail", "t", "--df", "6",
            "--feedback", "0.3", "--fixed-lags", "2", "1", "--extra-lags", "0",
            "--estimator", "ols", "--deterministic", "drift_and_trend",
            "--format", "json", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        study = dict(payload["config"])
        config = DgpConfig(**study.pop("dgp"))
        assert (config.error_correlation, study["fixed_lags"]) == (0.5, [2, 1])
        assert empirical_size(config, **study) == payload["rates"]

    def test_data_errors_exit_nonzero(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        code = main(["run", "--input", missing, missing])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["run", "--input", "one.csv"], "exactly two series; got 1 inputs"),
        (["run", "--input", "PAIR", "--names", "US"], "got 1 names for 2 inputs"),
        (["run", "--input", "PAIR", "--fixed-lags", "0", "1"],
         "lag orders must be >= 1"),
        (["mc-size", "--reps", "0"], "reps must be >= 1"),
        (["mc-size", "--T", "10"], "t_obs must be >= 50"),
        (["mc-size", "--error-correlation", "1"],
         "error_correlation must be in (-1, 1)"),
        (["mc-size", "--seed", "-1"],
         "seed must be a non-negative integer or a tuple of them, got -1"),
        (["mc-size", "--tail", "t", "--df", "inf"],
         "error_df must be finite and exceed 2 for unit-variance scaling"),
        (["mc-size", "--drift", "nan", "0"], "drift must be finite"),
        (["mc-size", "--feedback", "nan"], "causal_feedback must be finite"),
    ], ids=["one-input", "names-count", "zero-lag", "zero-reps", "short-sample",
            "unit-correlation", "negative-seed", "infinite-df", "nan-drift",
            "nan-feedback"])
    def test_bad_argument_values_exit_2(self, pair_of_csvs, capsys, args, message):
        args = [a for arg in args for a in (pair_of_csvs if arg == "PAIR" else [arg])]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{message}\n")
        assert err.count("\n") == 1

    OVERFLOW = ("error: the data are too large: their cross products overflow double "
                "precision; rescale them, for example with --log\n")

    def test_an_overflowing_study_exits_2_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mc-size", "--reps", "3", "--T", "60", "--trend", "1e300", "0"]) == 2
        assert capsys.readouterr().err == self.OVERFLOW

    def test_overflowing_levels_exit_2_without_warnings(self, tmp_path, capsys):
        levels = 1e160 * np.exp(np.cumsum(
            0.01 * np.random.default_rng(8).standard_normal((120, 2)), axis=0))
        inputs = [tmp_path / f"{name}.csv" for name in ("a", "b")]
        for path, column in zip(inputs, levels.T):
            path.write_text("DATE,VALUE\n" + "".join(
                f"{t},{v!r}\n" for t, v in enumerate(column.tolist(), 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--input", *map(str, inputs), "--fixed-lags", "1", "1",
                         "--estimator", "fgls"]) == 2
        assert capsys.readouterr().err == self.OVERFLOW

    @pytest.mark.parametrize("lags, message", [
        ([], "lag selection: the negative design is rank-deficient at lag 1 of 'up' "),
        (["--fixed-lags", "1", "1"], r"equation Z-1 \(up\): design matrix"),
    ], ids=["selected-lags", "fixed-lags"])
    def test_zero_variation_component_exits_2(self, pair_of_csvs, tmp_path, capsys,
                                              lags, message):
        # without a drift a strictly increasing series has a constant negative
        # component, collinear with the intercept
        steps = 0.01 + np.abs(np.random.default_rng(5).standard_normal(302))
        holder = type("Holder", (), {"values": 100.0 + np.r_[0.0, steps.cumsum()]})()
        up = write_series_csv(tmp_path / "up.csv", holder)
        args = ["run", "--input", up, pair_of_csvs[1], "--deterministic", "none"]
        assert main([*args, *lags]) == 2
        assert re.fullmatch(f"error: {message}.*\n", capsys.readouterr().err)

    @pytest.mark.parametrize("args, message", [
        (["run", "--input", "PAIR", "--fixed-lags", "1", "1", "--estimator", "fgls",
          "--out", "DIR/absent/report.txt"], "No such file or directory"),
        (["run", "--input", "DIR", "DIR"], "Is a directory"),
    ], ids=["out-in-missing-directory", "input-is-directory"])
    def test_os_errors_exit_2(self, pair_of_csvs, tmp_path, capsys, args, message):
        args = [a.replace("DIR", str(tmp_path)) for arg in args
                for a in (pair_of_csvs if arg == "PAIR" else [arg])]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["run", "--input", "PAIR"], ["decompose", "--input", "US"], ["mc-size"],
    ], ids=["run", "decompose", "mc-size"])
    def test_missing_out_directory_fails_before_the_work(
        self, pair_of_csvs, tmp_path, capsys, monkeypatch, command
    ):
        def never(*args, **kwargs):
            pytest.fail("the work ran before --out was checked")

        for name in ("run_pipeline", "decompose", "empirical_size"):
            monkeypatch.setattr(cli, name, never)
        out = str(tmp_path / "absent" / "report.txt")
        inputs = {"PAIR": pair_of_csvs, "US": pair_of_csvs[:1]}
        args = [a for arg in command for a in inputs.get(arg, [arg])]
        assert main([*args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {out!r}\n"
