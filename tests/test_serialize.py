"""Tests for deterministic JSON/CSV emission."""

import json

import numpy as np
import pytest

from bineg.errors import ParseError
from bineg.serialize import (
    complex_matrix_from_json,
    complex_matrix_to_json,
    dumps,
    fmt_float,
    write_csv,
)


class TestFloatFormat:
    def test_round_trips_exactly(self):
        rng = np.random.default_rng(400)
        xs = list(rng.normal(size=200)) + [0.0, 1.0, -1.0, 1e-300, 1e300, 77.0 / 216.0]
        for x in xs:
            assert float(fmt_float(x)) == x

    def test_shortest_digits_used(self):
        assert fmt_float(0.5) == "0.5"
        assert fmt_float(1.0) == "1"


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(401)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        back = complex_matrix_from_json(complex_matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_entries_are_re_im_pairs(self):
        data = complex_matrix_to_json(np.array([[1 + 2j]]))
        assert data == [[[1.0, 2.0]]]

    def test_rejects_ragged_input(self):
        with pytest.raises(ParseError):
            complex_matrix_from_json([[[1.0, 2.0]], "bad"])

    def test_rejects_wrong_pair_shape(self):
        with pytest.raises(ParseError):
            complex_matrix_from_json([[[1.0, 2.0, 3.0]]])


class TestDumps:
    def test_is_valid_json(self):
        text = dumps({"a": 1, "b": [0.5, "x", True, None]})
        assert json.loads(text) == {"a": 1, "b": [0.5, "x", True, None]}

    def test_trailing_newline_and_repeatable(self):
        payload = {"z": 1.5, "a": [1, 2]}
        t1, t2 = dumps(payload), dumps(payload)
        assert t1 == t2
        assert t1.endswith("\n")

    def test_preserves_insertion_order(self):
        text = dumps({"z": 0, "a": 1})
        assert text.index('"z"') < text.index('"a"')

    def test_non_finite_becomes_null(self):
        assert json.loads(dumps({"x": float("nan"), "y": float("inf")})) == {
            "x": None,
            "y": None,
        }

    def test_floats_use_full_precision(self):
        x = 0.1 + 0.2
        assert fmt_float(x) in dumps({"v": x})


class TestFiles:
    def test_write_csv_unix_line_endings(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["x", "y"], [[0.5, "a"], [1.5, "b"]])
        raw = p.read_bytes()
        assert b"\r" not in raw
        assert raw == b"x,y\n0.5,a\n1.5,b\n"

    def test_write_csv_formats_cells(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["v"], [[True], [3], [77.0 / 216.0]])
        lines = p.read_text().splitlines()
        assert lines[1] == "true"
        assert lines[2] == "3"
        assert float(lines[3]) == 77.0 / 216.0
