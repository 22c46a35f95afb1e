"""Command-line workflow: ingest CSVs, run the test pipeline, render reports.

Subcommands:
  run        full causality analysis of two series, text or json report
  decompose  emit the positive/negative components of one series as CSV
  mc-size    empirical size/power study of the hypothesis catalog
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass, fields
from datetime import date
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .decomposition import DETERMINISTIC_KINDS, Series, _check_kind, decompose
from .errors import AsymCauseError, DataError
from .mgarch import arch_lm_diag, fit_sure_garch_t
from .montecarlo import ERROR_TAILS, STUDY_ESTIMATORS, DgpConfig, empirical_size
from .sure import CRITERIA, build_design, fgls_fit, lag_order_table
from .wald import catalog, run_catalog

P_VALUE_FLOOR = 1e-5  # below this the text renderer prints "< 0.00001"
ARCH_GATE_LEVEL = 0.05  # fixed gate for the auto estimator choice
ARCH_LAGS = 1  # lags of the gate's ARCH LM regression
RUN_ESTIMATORS = ("fgls", "garch_t", "auto")


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything needed to reproduce one pipeline run."""

    inputs: tuple[str, ...]
    log_transform: bool = False
    deterministic: str = "drift"  # one of DETERMINISTIC_KINDS
    p_max: int = 8
    criterion: str = "sbc"
    fixed_lags: Optional[tuple[int, int]] = None
    extra_lags: int = 1
    estimator: str = "auto"
    date_column: str = "DATE"
    value_column: str = "VALUE"
    names: Optional[tuple[str, ...]] = None
    sum_restrictions: bool = False

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) != 2:
            raise ValueError(
                "the ten-hypothesis catalog is defined for exactly two series; "
                f"got {len(self.inputs)} inputs"
            )
        _check_kind(self.deterministic)
        if self.estimator not in RUN_ESTIMATORS:
            raise ValueError(f"estimator must be one of {RUN_ESTIMATORS}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        if self.fixed_lags is not None:
            object.__setattr__(self, "fixed_lags", tuple(self.fixed_lags))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != len(self.inputs):
                raise ValueError(
                    f"got {len(self.names)} names for {len(self.inputs)} inputs"
                )

    def to_dict(self) -> dict:
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(self).items()
        }


@dataclass(frozen=True)
class Report:
    """Machine-readable analysis result; all fields are plain JSON types."""

    config: dict
    estimates: list
    hypotheses: list
    diagnostics: dict
    provenance: dict

    def to_json(self) -> str:
        # not asdict: its deep copy cost ~8% of a 10 ms FGLS analysis
        payload = {field.name: getattr(self, field.name) for field in fields(self)}
        return json.dumps(payload, indent=2)


def parse_report(text: str) -> Report:
    data = json.loads(text)
    return Report(**{field.name: data[field.name] for field in fields(Report)})


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def _date_keys(labels: list[str]) -> list:
    """What date labels are ordered by: numbers, ISO dates or the labels."""
    for parse in (float, date.fromisoformat):
        try:
            return [parse(label) for label in labels]
        except ValueError:
            pass
    return labels


def load_csv(
    path: str,
    date_column: str = "DATE",
    value_column: str = "VALUE",
    name: Optional[str] = None,
) -> Series:
    """Read one DATE,VALUE series; strict about gaps and ordering.

    Missing markers ("." or empty), malformed numbers and non-finite values
    are rejected with their row number.  Dates must be strictly increasing:
    as numbers if every label is numeric, as dates if every label is an ISO
    date, otherwise as strings.
    If the requested value column is absent from a two-column file, the
    non-date column is used (FRED names it after the series id).  Names
    match regardless of case; a requested name on two columns is rejected.
    """
    file_path = Path(path)
    if not file_path.exists():
        raise DataError(f"{path}: no such file")
    with open(file_path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        lowered = [h.lower() for h in header]
        for column in (date_column, value_column):
            found = [str(i + 1) for i, h in enumerate(lowered) if h == column.lower()]
            if len(found) > 1:
                raise DataError(f"{path}: column {column!r} appears more than once, "
                                f"at positions {', '.join(found)}; found {header}")
        lookup = {h: i for i, h in enumerate(lowered)}
        if date_column.lower() not in lookup:
            raise DataError(
                f"{path}: no column {date_column!r}; found {header}"
            )
        date_idx = lookup[date_column.lower()]
        if value_column.lower() in lookup:
            value_idx = lookup[value_column.lower()]
        elif len(header) == 2:
            value_idx = 1 - date_idx
        else:
            raise DataError(
                f"{path}: no column {value_column!r}; found {header}"
            )
        dates: list[str] = []
        values: list[float] = []
        row_numbers: list[int] = []
        for row_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= max(date_idx, value_idx):
                raise DataError(f"{path}: malformed row {row_number}: {row!r}")
            stamp = row[date_idx].strip()
            raw = row[value_idx].strip()
            if raw in (".", ""):
                raise DataError(f"{path}: missing value at row {row_number}")
            try:
                value = float(raw)
            except ValueError:
                raise DataError(
                    f"{path}: malformed value {raw!r} at row {row_number}"
                ) from None
            dates.append(stamp)
            values.append(value)
            row_numbers.append(row_number)
    array = np.asarray(values)
    non_finite = np.flatnonzero(~np.isfinite(array))
    if non_finite.size:
        i = non_finite[0]
        raise DataError(
            f"{path}: non-finite value '{array[i]}' at row {row_numbers[i]}"
        )
    keys = _date_keys(dates)
    for i in range(1, len(keys)):
        if not keys[i] > keys[i - 1]:
            raise DataError(
                f"{path}: dates not strictly increasing at row {row_numbers[i]} "
                f"({dates[i - 1]!r} then {dates[i]!r})"
            )
    series_name = name or (
        header[value_idx] if header[value_idx].upper() != "VALUE" else file_path.stem
    )
    return Series(values=array, timestamps=tuple(dates), name=series_name)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _log_series(series: Series) -> Series:
    if np.any(series.values <= 0):
        raise DataError(
            f"series {series.name!r}: log transform requires positive values"
        )
    return Series(
        values=np.log(series.values), timestamps=series.timestamps, name=series.name
    )


def run_pipeline(config: AnalysisConfig) -> Report:
    """Load, decompose, estimate and test; assemble the full report."""
    first, second = (
        load_csv(path, config.date_column, config.value_column, name)
        for path, name in zip(config.inputs, config.names or (None, None))
    )
    if len(first) != len(second):
        raise DataError(
            f"input series lengths differ: {first.name}={len(first)}, "
            f"{second.name}={len(second)}"
        )
    stamps = first.timestamps, second.timestamps
    if stamps[0] != stamps[1]:
        row = next(i for i, (a, b) in enumerate(zip(*stamps)) if a != b)
        raise DataError(
            f"input dates differ from observation {row + 1}: "
            f"{first.name}={stamps[0][row]!r}, {second.name}={stamps[1][row]!r}"
        )
    if config.log_transform:
        first, second = _log_series(first), _log_series(second)
    components = [decompose(s, config.deterministic) for s in (first, second)]

    diagnostics: dict = {}
    for comp in components:
        if comp.degenerate_warning:
            diagnostics.setdefault("warnings", []).append(comp.degenerate_warning)

    if config.fixed_lags is not None:
        p_pos, p_neg = config.fixed_lags
    else:
        table = lag_order_table(*components, config.p_max, config.criterion)
        p_pos, p_neg = table["selected"]
        diagnostics["lag_selection"] = {
            "criterion": config.criterion,
            "p_max": config.p_max,
            "positive": [float(v) for v in table["positive"]],
            "negative": [float(v) for v in table["negative"]],
            "selected": [p_pos, p_neg],
        }

    system = build_design(*components, p_pos, p_neg, config.extra_lags)
    fgls = fgls_fit(system)

    estimator_used = config.estimator
    estimate, fit_extra = fgls, {}
    if config.estimator == "auto":
        arch = arch_lm_diag(fgls.residuals, ARCH_LAGS)
        diagnostics["arch_lm"] = {**arch._asdict(), "lags": ARCH_LAGS}
        estimator_used = "garch_t" if arch.p_value < ARCH_GATE_LEVEL else "fgls"
    if estimator_used == "garch_t":
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # each distinct warning, once
            garch_fit = fit_sure_garch_t(system, init=fgls)
        for warning in caught:
            diagnostics.setdefault("warnings", []).append(str(warning.message))
        estimate = garch_fit.mean
        fit_extra = {"loglik": float(garch_fit.loglik), "nu": float(garch_fit.garch.nu),
                     "gradient_max": garch_fit.gradient_max, "stop": garch_fit.stop,
                     "n_evals": garch_fit.n_evals, "n_gradients": garch_fit.n_gradients,
                     "information_condition": garch_fit.information_condition}
    if not estimate.converged:
        stop = fit_extra.get("stop", f"GLS solve limit of {estimate.iterations} reached")
        diagnostics.setdefault("warnings", []).append(
            f"the {estimate.estimator} estimate did not converge ({stop}); "
            "its standard errors and Wald tests are unreliable"
        )
    diagnostics["estimation"] = {
        "estimator": estimate.estimator,
        "iterations": estimate.iterations,
        "converged": estimate.converged,
        **fit_extra,
    }

    specs = catalog(system, config.sum_restrictions)
    results = run_catalog(estimate, specs)

    estimates_rows = []
    variances = np.diag(estimate.covariance)
    for i, entry in enumerate(system.layout):
        variance = float(variances[i])
        estimates_rows.append(
            {
                "name": entry.name,
                "value": float(estimate.coefficients[i]),
                "std_error": float(np.sqrt(variance)) if variance >= 0 else None,
                "causal": entry.causal,
            }
        )
    hypotheses_rows = [
        {
            "id": r.hypothesis.id,
            "null": r.hypothesis.null,
            "statistic": float(r.statistic),
            "dof": int(r.hypothesis.dof),
            "p_value": float(r.p_value),
            "implication": r.hypothesis.label,
        }
        for r in results
    ]
    provenance = {
        "variables": list(system.variable_names),
        "sample": {
            "start": first.timestamps[0],
            "end": first.timestamps[-1],
            "observations": len(first),
            "effective_sample": system.effective_sample,
        },
        "lag_orders": [p_pos, p_neg],
        "extra_lags": config.extra_lags,
        "estimator": estimator_used,
        "version": __version__,
    }
    return Report(
        config=config.to_dict(),
        estimates=estimates_rows,
        hypotheses=hypotheses_rows,
        diagnostics=diagnostics,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def format_p_value(p: float) -> str:
    if p < P_VALUE_FLOOR:
        return "< 0.00001"
    return f"{p:.5f}"


def _render_text(report: Report) -> str:
    prov = report.provenance
    sample = prov["sample"]
    lines = []
    lines.append("Efficient asymmetric causality tests")
    lines.append("=" * 72)
    lines.append(f"Variables:  {', '.join(prov['variables'])}")
    lines.append(
        f"Sample:     {sample['start']} .. {sample['end']} "
        f"({sample['observations']} obs, effective {sample['effective_sample']})"
    )
    lag_orders = prov["lag_orders"]
    lines.append(
        f"Lag orders: P+={lag_orders[0]}, P-={lag_orders[1]}, "
        f"plus {prov['extra_lags']} unrestricted augmentation lag(s)"
    )
    lines.append(f"Estimator:  {prov['estimator']}")
    lines.append("")

    causal = sorted(
        (row for row in report.estimates if row.get("causal")),
        key=lambda row: row["name"],
    )
    if causal:
        lines.append("Causal parameter estimates")
        lines.append("-" * 72)
        width = max(len(row["name"]) for row in causal)
        for row in causal:
            se = row["std_error"]
            se_text = f"  (s.e. {se:.6f})" if se is not None else ""
            lines.append(f"  {row['name']:<{width}}  {row['value']:>12.6f}{se_text}")
        lines.append("")

    lines.append("Hypothesis tests")
    lines.append("-" * 72)
    null_width = max(len(row["null"]) for row in report.hypotheses)
    null_width = min(null_width, 48)
    header = (
        f"  {'id':<4} {'null hypothesis':<{null_width}} "
        f"{'statistic':>10} {'dof':>4} {'p-value':>10}  implication"
    )
    lines.append(header)
    for row in report.hypotheses:
        null = row["null"]
        if len(null) > null_width:
            null = null[: null_width - 3] + "..."
        lines.append(
            f"  {row['id']:<4} {null:<{null_width}} "
            f"{row['statistic']:>10.4f} {row['dof']:>4} "
            f"{format_p_value(row['p_value']):>10}  {row['implication']}"
        )
    lines.append("")

    lines.append("Diagnostics")
    lines.append("-" * 72)
    arch = report.diagnostics.get("arch_lm")
    if arch:
        lines.append(
            f"  ARCH LM ({arch['lags']} lag(s)): statistic "
            f"{arch['statistic']:.4f}, dof {arch['dof']}, "
            f"p-value {format_p_value(arch['p_value'])}"
        )
    selection = report.diagnostics.get("lag_selection")
    if selection:
        pos = ", ".join(f"{v:.4f}" for v in selection["positive"])
        neg = ", ".join(f"{v:.4f}" for v in selection["negative"])
        lines.append(
            f"  Lag selection ({selection['criterion']}, p_max="
            f"{selection['p_max']}): positive [{pos}] negative [{neg}] "
            f"-> P+={selection['selected'][0]}, P-={selection['selected'][1]}"
        )
    estimation = report.diagnostics["estimation"]
    extra = f", loglik {estimation['loglik']:.4f}" if "loglik" in estimation else ""
    lines.append(
        f"  Estimation: {estimation['estimator']}, "
        f"{estimation['iterations']} iteration(s), "
        f"converged={estimation['converged']}{extra}"
    )
    for warning in report.diagnostics.get("warnings", []):
        lines.append(f"  Warning: {warning}")
    lines.append("")
    return "\n".join(lines)


def render_report(report: Report, output_format: str = "text") -> str:
    if output_format == "json":
        return report.to_json()
    if output_format == "text":
        return _render_text(report)
    raise ValueError("format must be text or json")


# ---------------------------------------------------------------------------
# argument parsing and subcommands
# ---------------------------------------------------------------------------


def _add_deterministic_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--deterministic", choices=DETERMINISTIC_KINDS, default="drift")


def _add_common_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--date-column", default="DATE")
    parser.add_argument("--value-column", default="VALUE")
    parser.add_argument("--log", action="store_true", dest="log_transform",
                        help="natural-log transform")
    _add_deterministic_flag(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymcause",
        description="Asymmetric causality testing between two time series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="full analysis of two series")
    run.add_argument("--input", nargs="+", required=True, metavar="CSV", dest="inputs")
    _add_common_input_flags(run)
    run.add_argument("--names", nargs="+", help="display names per input")
    run.add_argument("--max-lag", type=int, default=8, dest="p_max")
    run.add_argument("--criterion", choices=list(CRITERIA), default="sbc")
    run.add_argument(
        "--fixed-lags",
        nargs=2,
        type=int,
        metavar=("P_POS", "P_NEG"),
        help="skip selection and use these lag orders",
    )
    run.add_argument("--extra-lags", type=int, default=1)
    run.add_argument("--estimator", choices=RUN_ESTIMATORS, default="auto")
    run.add_argument("--sum-restrictions", action="store_true")
    run.add_argument("--format", choices=["text", "json"], default="text")
    run.add_argument("--out", help="write the report here instead of stdout")

    dec = sub.add_parser("decompose", help="emit signed components as CSV")
    dec.add_argument("--input", required=True, metavar="CSV")
    _add_common_input_flags(dec)
    dec.add_argument("--out", help="output CSV path (default stdout)")

    mc = sub.add_parser("mc-size", help="empirical size/power study")
    mc.add_argument("--reps", type=int, default=1000)
    mc.add_argument("--T", type=int, default=300, dest="t_obs")
    mc.add_argument("--level", type=float, default=0.05)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--drift", nargs=2, type=float, default=[0.1, 0.1])
    mc.add_argument("--trend", nargs=2, type=float, default=[0.0, 0.0])
    mc.add_argument(
        "--error-correlation", type=float, default=0.0, metavar="RHO",
        help="cross-correlation of the two innovation series",
    )
    mc.add_argument("--tail", choices=ERROR_TAILS, default="gaussian",
                    dest="error_tail")
    mc.add_argument("--df", type=float, default=5.0, dest="error_df", metavar="DF")
    mc.add_argument("--feedback", type=float, dest="causal_feedback",
                    metavar="FEEDBACK", help="power study: inject this "
                    "coefficient of variable 2's lagged positive shocks")
    mc.add_argument("--fixed-lags", nargs=2, type=int, default=[1, 1])
    mc.add_argument("--extra-lags", type=int, default=1)
    mc.add_argument("--estimator", choices=STUDY_ESTIMATORS, default="fgls")
    _add_deterministic_flag(mc)
    mc.add_argument("--format", choices=["text", "json"], default="text")
    mc.add_argument("--out")
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text + ("\n" if not text.endswith("\n") else ""),
                             encoding="utf-8")
    else:
        print(text)


def _cmd_run(args: argparse.Namespace) -> int:
    config = AnalysisConfig(
        **{field.name: getattr(args, field.name) for field in fields(AnalysisConfig)}
    )
    report = run_pipeline(config)
    _emit(render_report(report, args.format), args.out)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    series = load_csv(args.input, args.date_column, args.value_column)
    if args.log_transform:
        series = _log_series(series)
    components = decompose(series, args.deterministic)
    rows = ["DATE,POSITIVE,NEGATIVE"]
    for stamp, pos, neg in zip(
        series.timestamps, components.positive, components.negative
    ):
        rows.append(f"{stamp},{float(pos)!r},{float(neg)!r}")
    _emit("\n".join(rows), args.out)
    if components.degenerate_warning:
        print(f"warning: {components.degenerate_warning}", file=sys.stderr)
    return 0


def _cmd_mc_size(args: argparse.Namespace) -> int:
    config = DgpConfig(
        **{field.name: getattr(args, field.name) for field in fields(DgpConfig)}
    )
    rates = empirical_size(
        config,
        reps=args.reps,
        level=args.level,
        deterministic=args.deterministic,
        fixed_lags=tuple(args.fixed_lags),
        extra_lags=args.extra_lags,
        estimator=args.estimator,
    )
    if args.format == "json":
        payload = {
            "reps": args.reps,
            "t_obs": args.t_obs,
            "level": args.level,
            "seed": args.seed,
            "feedback": args.causal_feedback,
            "rates": rates,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [
            f"Rejection rates over {args.reps} replications "
            f"(T={args.t_obs}, level={args.level}, seed={args.seed})",
            "-" * 60,
        ]
        for hid, rate in rates.items():
            lines.append(f"  {hid:<4} {rate:.4f}")
        _emit("\n".join(lines), args.out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # fail before the analysis, not when its report is written
        if args.out and not Path(args.out).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "mc-size":
            return _cmd_mc_size(args)
    # the library raises ValueError for argument values it rejects; OSError is
    # an input that cannot be read or an --out that cannot be written
    except (AsymCauseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
