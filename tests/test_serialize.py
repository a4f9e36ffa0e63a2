"""Tests for deterministic JSON/CSV emission."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bineg.errors import ParseError
from bineg.serialize import (
    complex_matrix_from_json,
    complex_matrix_to_json,
    csv_rows,
    dumps,
    fmt_float,
    write_csv,
)

EDGE_VALUES = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 3.0, 1e16, 1e17, 77.0 / 216.0,
]


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


class TestCsvRows:
    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_rows_are_fmt_float_joined_by_commas(self, width):
        # every edge value in every column position
        cols = [np.roll(EDGE_VALUES, k) for k in range(width)]
        want = "".join(",".join(map(fmt_float, row)) + "\n" for row in zip(*cols))
        assert csv_rows(*cols) == want

    def test_edge_values_text(self):
        text = csv_rows(np.array(EDGE_VALUES)).splitlines()
        assert text == [
            "0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324", "-4.9406564584124654e-324",
            "1.7976931348623157e+308", "-1.7976931348623157e+308", "0.10000000000000001", "3",
            "10000000000000000", "1e+17", "0.35648148148148145",
        ]

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)), min_size=1))
    def test_every_cell_parses_back_to_its_float(self, rows):
        # compared bit for bit, so that -0.0 must come back as -0.0
        want = np.array(rows)
        back = np.array([[float(x) for x in line.split(",")] for line in csv_rows(*want.T).splitlines()])
        assert np.array_equal(back.view(np.uint64), want.view(np.uint64))


class TestFiles:
    def test_write_csv_unix_line_endings(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["x", "y"], [csv_rows(np.array([0.5]), np.array([1.0])), "1.5,b\n"])
        raw = p.read_bytes()
        assert b"\r" not in raw
        assert raw == b"x,y\n0.5,1\n1.5,b\n"
