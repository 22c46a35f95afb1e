"""`load_csv` against a row-by-row reference reader on random CSV files.

`reference_load_csv` is the reader `cli.load_csv` replaced: one pass over
the rows with every check made on each row in turn.  Both must return the
same `Series` or raise the same `DataError` text for any file.
"""

import csv
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcause.cli import load_csv
from asymcause.decomposition import Series
from asymcause.errors import DataError


def reference_date_keys(labels):
    for parse in (float, date.fromisoformat):
        try:
            return [parse(label) for label in labels]
        except ValueError:
            pass
    return labels


def reference_load_csv(path, date_column="DATE", value_column="VALUE", name=None):
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
            raise DataError(f"{path}: no column {date_column!r}; found {header}")
        date_idx = lookup[date_column.lower()]
        if value_column.lower() in lookup:
            value_idx = lookup[value_column.lower()]
        elif len(header) == 2:
            value_idx = 1 - date_idx
        else:
            raise DataError(f"{path}: no column {value_column!r}; found {header}")
        dates, values, row_numbers = [], [], []
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
                    f"{path}: malformed value {raw!r} at row {row_number}") from None
            dates.append(stamp)
            values.append(value)
            row_numbers.append(row_number)
    array = np.asarray(values)
    non_finite = np.flatnonzero(~np.isfinite(array))
    if non_finite.size:
        i = non_finite[0]
        raise DataError(f"{path}: non-finite value '{array[i]}' at row {row_numbers[i]}")
    keys = reference_date_keys(dates)
    for i in range(1, len(keys)):
        if not keys[i] > keys[i - 1]:
            raise DataError(
                f"{path}: dates not strictly increasing at row {row_numbers[i]} "
                f"({dates[i - 1]!r} then {dates[i]!r})")
    series_name = name or (
        header[value_idx] if header[value_idx].upper() != "VALUE" else file_path.stem)
    return Series(values=array, timestamps=tuple(dates), name=series_name)


FAULTS = ("short", "missing", "malformed", "non_finite", "order", "twice")
MISSING = (".", "", " . ", "  ")
MALFORMED = ("abc", "1.2.3", "0x1A", "1e", "--2", "1,5")
NON_FINITE = ("inf", "nan", "-Infinity", "NaN", "+inf")
BLANKS = ("", " ", ",", " , \t", ",,")
VALUE_FORMATS = ("{!r}", "{:.4f}", " {!r} ", "{:e}")


def labels_of(kind: str, n: int, draw) -> list[str]:
    if kind == "number":
        return [str(t) for t in range(1, n + 1)]
    if kind == "iso":
        start = date(1950, 1, 2)
        return [(start + timedelta(days=7 * t)).isoformat() for t in range(n)]
    return [f"w{t:03d}" for t in range(n)] if draw(st.booleans()) else draw(
        st.lists(st.text("abxy 09-", min_size=1, max_size=4), min_size=n, max_size=n))


@st.composite
def csv_files(draw):
    """(text, date column, value column) of a FRED-style file, maybe faulty."""
    n = draw(st.integers(0, 12))
    labels = labels_of(draw(st.sampled_from(["number", "iso", "text"])), n, draw)
    value_format = draw(st.sampled_from(VALUE_FORMATS))
    values = [value_format.format(v) for v in draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n))]
    layout = draw(st.sampled_from(["fred", "value", "extra_before", "extra_after"]))
    header = {"fred": ["DATE", "SP500"], "value": ["date", "VALUE"],
              "extra_before": ["NOTE", "DATE", "VALUE"],
              "extra_after": ["DATE", "VALUE", "NOTE"]}[layout]
    date_idx, value_idx = (1, 2) if layout == "extra_before" else (0, 1)
    rows = []
    for label, value in zip(labels, values):
        row = ["x"] * len(header)
        row[date_idx], row[value_idx] = label, value
        rows.append(row)
    n_faults = draw(st.integers(0, 3))
    for fault in draw(st.lists(st.sampled_from(FAULTS), min_size=n_faults, max_size=n_faults)):
        if fault == "twice":
            column = draw(st.sampled_from([header[date_idx], header[value_idx]]))
            header.append(draw(st.sampled_from([column.lower(), column.upper()])))
            rows = [row + ["y"] for row in rows]
            continue
        first = 1 if fault == "order" else 0  # a date repeats or goes back
        if len(rows) <= first:
            continue
        i = draw(st.integers(first, len(rows) - 1))
        if fault == "short":
            rows[i] = rows[i][:max(date_idx, value_idx)]
        elif fault == "order":
            if len(rows[i]) > date_idx and len(rows[i - 1]) > date_idx:
                rows[i][date_idx] = rows[i - 1 - draw(st.integers(0, i - 1))][date_idx]
        elif len(rows[i]) > value_idx:
            pool = {"missing": MISSING, "malformed": MALFORMED, "non_finite": NON_FINITE}
            rows[i][value_idx] = draw(st.sampled_from(pool[fault]))
    lines = [",".join(header)] + [
        ",".join(f'"{cell}"' if "," in cell else cell for cell in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(BLANKS)))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\n \n"]))
    if draw(st.booleans()):
        text = "\ufeff" + text  # the byte-order mark of a spreadsheet export
    return text, *draw(st.sampled_from([("DATE", "VALUE"), ("date", "value")]))


def outcome(reader, path, date_column, value_column):
    try:
        series = reader(path, date_column, value_column)
    except DataError as exc:
        return str(exc)
    return series.values.tobytes(), series.timestamps, series.name


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("ingest") / "series.csv")


@settings(max_examples=800, deadline=None)
@given(file=csv_files())
def test_load_csv_matches_the_row_by_row_reader(csv_path, file):
    # the same series bit for bit, or the same error; with several faults that
    # is the one in the first faulty row
    text, date_column, value_column = file
    Path(csv_path).write_text(text, encoding="utf-8")
    assert outcome(load_csv, csv_path, date_column, value_column) == outcome(
        reference_load_csv, csv_path, date_column, value_column)


@pytest.mark.parametrize("rows, message", [
    (["1,1.0", "2,.", "3,abc", "4"], "missing value at row 3"),
    (["1,1.0", "2,abc", "3,.", "4"], "malformed value 'abc' at row 3"),
    (["1,1.0", "2", "3,.", "4,abc"], "malformed row 3: ['2']"),
    (["1,1.0", "3,inf", "2,2.0", "4"], "malformed row 5: ['4']"),
    (["1,1.0", "3,inf", "2,2.0", "4,3.0"], "non-finite value 'inf' at row 3"),
])
def test_the_first_faulty_row_is_reported(tmp_path, rows, message):
    path = tmp_path / "faults.csv"
    path.write_text("DATE,VALUE\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError) as caught:
        load_csv(str(path))
    assert str(caught.value) == f"{path}: {message}"
