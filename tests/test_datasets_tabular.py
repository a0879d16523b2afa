"""Unit tests for the tabular dataset container and file loaders."""

from __future__ import annotations

import pytest

from repro.core.histogram import TokenHistogram
from repro.datasets.loaders import (
    load_histogram_json,
    load_table_csv,
    load_token_file,
    save_histogram_json,
    save_table_csv,
    save_token_file,
    tokens_from_table,
)
from repro.datasets.tabular import TabularDataset
from repro.exceptions import DatasetError, ReproError


@pytest.fixture()
def table() -> TabularDataset:
    return TabularDataset(
        columns=("city", "year", "sales"),
        rows=[
            {"city": "madrid", "year": 2023, "sales": 10},
            {"city": "paris", "year": 2023, "sales": 7},
            {"city": "madrid", "year": 2024, "sales": 12},
        ],
    )


class TestTabularDataset:
    def test_len_iter_getitem(self, table):
        assert len(table) == 3
        assert table[0]["city"] == "madrid"
        assert [row["year"] for row in table] == [2023, 2023, 2024]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(DatasetError):
            TabularDataset(columns=("a", "a"), rows=[])

    def test_row_missing_column_rejected(self):
        with pytest.raises(DatasetError):
            TabularDataset(columns=("a", "b"), rows=[{"a": 1}])

    def test_append_validates(self, table):
        table.append({"city": "rome", "year": 2024, "sales": 3})
        assert len(table) == 4
        with pytest.raises(DatasetError):
            table.append({"city": "rome"})

    def test_column_and_projection(self, table):
        assert table.column("city") == ["madrid", "paris", "madrid"]
        projected = table.project(["city"])
        assert projected.columns == ("city",)
        with pytest.raises(DatasetError):
            table.column("missing")

    def test_select(self, table):
        madrid = table.select(lambda row: row["city"] == "madrid")
        assert len(madrid) == 2

    def test_rows_matching_stringified(self, table):
        matches = table.rows_matching({"year": "2023"})
        assert len(matches) == 2

    def test_value_counts(self, table):
        assert table.value_counts("city") == {"madrid": 2, "paris": 1}

    def test_sample(self, table, rng):
        sampled = table.sample(0.67, rng)
        assert 1 <= len(sampled) <= 3
        with pytest.raises(DatasetError):
            table.sample(0.0, rng)

    def test_copy_is_independent(self, table):
        clone = table.copy()
        clone.rows[0]["city"] = "berlin"
        assert table[0]["city"] == "madrid"

    def test_csv_roundtrip(self, table, tmp_path):
        path = tmp_path / "table.csv"
        table.to_csv(path)
        restored = TabularDataset.from_csv(path)
        assert restored.columns == table.columns
        assert len(restored) == len(table)
        assert restored[0]["city"] == "madrid"

    def test_csv_text_roundtrip(self, table):
        text = table.to_csv()
        restored = TabularDataset.from_csv(text)
        assert len(restored) == 3

    def test_from_records(self):
        dataset = TabularDataset.from_records(["a", "b"], [(1, 2), (3, 4)])
        assert dataset[1]["b"] == 4


class TestLoaders:
    def test_token_file_roundtrip(self, tmp_path):
        path = tmp_path / "tokens.txt"
        save_token_file(["a", "b", "a"], path)
        assert load_token_file(path) == ["a", "b", "a"]

    def test_empty_token_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(DatasetError):
            load_token_file(path)

    def test_histogram_json_roundtrip(self, tmp_path):
        path = tmp_path / "histogram.json"
        histogram = TokenHistogram.from_counts({"x": 3, "y": 1})
        save_histogram_json(histogram, path)
        assert load_histogram_json(path).as_dict() == {"x": 3, "y": 1}

    def test_histogram_json_must_be_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(DatasetError):
            load_histogram_json(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"a": 1.9, "b": 3}',
            '{"a": "12"}',
            '{"a": true}',
            '{"a": null}',
            '{"a": [1]}',
            "not json",
            '{"a": 1e400}',
        ],
    )
    def test_histogram_json_counts_are_checked_not_coerced(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ReproError):
            load_histogram_json(path)

    def test_histogram_json_integral_float_counts_load(self, tmp_path):
        path = tmp_path / "histogram.json"
        path.write_text('{"x": 3.0, "y": 1}', encoding="utf-8")
        assert load_histogram_json(path).as_dict() == {"x": 3, "y": 1}

    def test_table_csv_helpers(self, table, tmp_path):
        path = tmp_path / "table.csv"
        save_table_csv(table, path)
        assert len(load_table_csv(path)) == len(table)

    def test_tokens_from_table_single_and_composite(self, table):
        single = tokens_from_table(table, ["city"])
        assert single == ["madrid", "paris", "madrid"]
        composite = tokens_from_table(table, ["city", "year"])
        assert len(set(composite)) == 3
        with pytest.raises(DatasetError):
            tokens_from_table(table, [])
