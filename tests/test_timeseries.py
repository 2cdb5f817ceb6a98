import re

import numpy as np
import pytest

from cpstream.errors import CsvFormatError
from cpstream.timeseries import (
    TimeSeries,
    iter_csv,
    load_csv,
    save_csv,
)


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_identity_ingestion(self, tmp_path):
        ts = load_csv(write(tmp_path, "5\n5\n5\n"))
        assert ts.n_samples == 3
        assert ts.dim == 1
        assert np.all(ts.values == 5.0)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "1\nabc\n3\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(path)
        with pytest.raises(CsvFormatError, match="column 1"):
            load_csv(path)

    def test_two_column_file_mean_matches_oracle(self, tmp_path, rng):
        data = rng.normal(size=(100, 2))
        text = "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in data)
        ts = load_csv(write(tmp_path, text + "\n"))
        assert ts.n_samples == 100
        assert ts.dim == 2
        # independent oracle: plain python sum over the written text
        col1 = [float(line.split(",")[0]) for line in text.splitlines()]
        assert ts.values[:, 0].mean() == pytest.approx(sum(col1) / len(col1), rel=1e-12)

    def test_header_row_is_skipped(self, tmp_path):
        ts = load_csv(write(tmp_path, "t,x1\n1.5\n2.5\n"), columns=[1])
        assert ts.n_samples == 2
        assert ts.values[0, 0] == 1.5

    def test_column_selection_and_order(self, tmp_path):
        ts = load_csv(write(tmp_path, "1,10\n2,20\n"), columns=[2, 1])
        assert ts.values.tolist() == [[10.0, 1.0], [20.0, 2.0]]

    def test_empty_selection_rejected(self, tmp_path):
        with pytest.raises(CsvFormatError, match="empty column"):
            load_csv(write(tmp_path, "1\n2\n"), columns=[])

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvFormatError):
            load_csv(tmp_path / "nope.csv")

    def test_header_only_file_rejected(self, tmp_path):
        with pytest.raises(CsvFormatError, match="no data"):
            load_csv(write(tmp_path, "t,x1\n"))

    def test_missing_column_reported(self, tmp_path):
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(write(tmp_path, "1,2\n3\n"), columns=[2])

    def test_infinite_value_rejected(self, tmp_path):
        with pytest.raises(CsvFormatError, match="row 1"):
            load_csv(write(tmp_path, "inf\n1\n"))

    def test_error_names_physical_line(self, tmp_path):
        # the blank line 2 is skipped but still counted
        with pytest.raises(CsvFormatError, match="row 3, column 1"):
            load_csv(write(tmp_path, "1\n\nabc\n"))
        with pytest.raises(CsvFormatError, match="row 4 has no column 2"):
            load_csv(write(tmp_path, "x,y\n1,2\n\n3\n"))

    def test_wide_row_rejected_with_implicit_columns(self, tmp_path):
        path = write(tmp_path, "1\n2,3\n4,5,6\n")
        message = f"{path}: row 2 has 2 cells, expected 1"
        with pytest.raises(CsvFormatError, match=re.escape(message)):
            load_csv(path)
        # the width of a save_csv header holds for every data row
        with pytest.raises(CsvFormatError, match="row 3 has 3 cells, expected 2"):
            load_csv(write(tmp_path, "t,x1\n1,0.5\n2,1.5,9\n", name="indexed.csv"))
        # an explicit selection still takes what it names from wider rows
        assert load_csv(path, columns=[1]).values.ravel().tolist() == [1.0, 2.0, 4.0]

    def test_leading_t_column_skipped_by_default(self, tmp_path):
        ts = load_csv(write(tmp_path, "t,x1,x2\n1,0.5,7\n2,1.5,8\n"))
        assert ts.values.tolist() == [[0.5, 7.0], [1.5, 8.0]]
        ts = load_csv(write(tmp_path, "value,x1\n1,0.5\n"))
        assert ts.values.tolist() == [[1.0, 0.5]]


    def test_byte_order_mark_before_a_sample(self, tmp_path):
        # the first sample is read as data, not taken for a header
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff1.5\n2.5\n3.5\n", encoding="utf-8")
        assert load_csv(path).values.ravel().tolist() == [1.5, 2.5, 3.5]

    def test_byte_order_mark_before_a_t_header(self, tmp_path):
        # the save_csv index column is still recognised and dropped
        path = tmp_path / "bom.csv"
        path.write_text("\ufefft,x1\n1,0.5\n2,1.5\n", encoding="utf-8")
        assert load_csv(path).values.tolist() == [[0.5], [1.5]]


class TestIterCsv:
    def test_streams_rows_lazily(self):
        rows = iter_csv(iter(["t,x\n", "1,2.5\n", "2,oops\n"]))
        assert next(rows) == [2.5]
        with pytest.raises(CsvFormatError, match="non-numeric value 'oops' at row 3, column 2"):
            next(rows)


class TestRoundTrip:
    def test_save_then_load_is_bit_exact(self, tmp_path, rng):
        original = TimeSeries(rng.normal(size=(40, 3)))
        out = tmp_path / "export.csv"
        save_csv(original, out)
        assert out.read_text().splitlines()[0] == "t,x1,x2,x3"
        back = load_csv(out, columns=[2, 3, 4])
        assert np.array_equal(back.values, original.values)
        assert np.array_equal(load_csv(out).values, original.values)

    def test_round_trippable_decimals(self, tmp_path):
        original = TimeSeries(np.array([[0.1], [1e-17], [123456.789]]))
        out = tmp_path / "export.csv"
        save_csv(original, out)
        back = load_csv(out, columns=[2])
        assert np.array_equal(back.values, original.values)


class TestTimeSeries:
    def test_values_are_immutable(self):
        ts = TimeSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            TimeSeries(np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(np.empty((0, 1)))


