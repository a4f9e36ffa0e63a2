"""Tests for deterministic JSON/CSV emission."""

import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bineg.errors import ParseError
from bineg.serialize import (
    _cells,
    _emit,
    complex_matrix_from_json,
    complex_matrix_to_json,
    csv_rows,
    dump,
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

    def test_reads_ints_as_floats(self):
        assert complex_matrix_from_json([[[1, -2]]]) == np.array([[1 - 2j]])

    @pytest.mark.parametrize(
        "pair, bad",
        [([True, False], True), ([0.5, False], False), (["0.5", "1e-3"], "'0.5'"), ([0.5, None], None),
         ([float("nan"), 0.0], "nan"), ([0.0, -float("inf")], "-inf")],
    )
    def test_rejects_entries_that_are_not_finite_numbers(self, pair, bad):
        # numpy reads a bool as 1.0, a numeric string as its number and null as NaN
        with pytest.raises(ParseError, match=f"^matrix entries are finite numbers, got {bad}$"):
            complex_matrix_from_json([[[0.5, 0.0], pair]])

    def test_an_int_too_large_for_a_float_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^matrix entries are not numeric"):
            complex_matrix_from_json([[[10**400, 0]]])


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


def recursive_dumps(obj):
    """The serializer's layout written as one plain recursion, each float
    formatted on its own: the reference of the state-matrix template."""

    def emit(obj, depth):
        pad, inner = "  " * depth, "  " * (depth + 1)
        if isinstance(obj, np.ndarray):
            obj = complex_matrix_to_json(obj)
        if obj is None:
            return "null"
        if isinstance(obj, (bool, np.bool_)):
            return "true" if obj else "false"
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return "null" if not math.isfinite(obj) else format(float(obj), ".17g")
        if isinstance(obj, str):
            return json.dumps(obj)
        if isinstance(obj, dict):
            parts = [f"{inner}{json.dumps(str(k))}: {emit(v, depth + 1)}" for k, v in obj.items()]
        else:
            parts = [f"{inner}{emit(v, depth + 1)}" for v in obj]
        if not parts:
            return "{}" if isinstance(obj, dict) else "[]"
        ends = "{}" if isinstance(obj, dict) else "[]"
        return ends[0] + "\n" + ",\n".join(parts) + f"\n{pad}{ends[1]}"

    return emit(obj, 0) + "\n"


SCALARS = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_VALUES),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.builds(np.float64, st.floats()),
)
# lists of rows of pairs, the state matrix's layout, but also ragged, empty,
# with a pair of one or three, or with an entry that is not a finite float
PAIRS = st.lists(
    st.lists(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), SCALARS), min_size=1, max_size=3),
             max_size=4),
    max_size=4,
)
MATRICES = st.builds(
    lambda m: complex_matrix_to_json(m),
    st.integers(0, 4).flatmap(
        lambda r: st.integers(1, 4).flatmap(
            lambda c: st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), min_size=r * c, max_size=r * c)
            .map(lambda z: np.array(z, dtype=complex).reshape(r, c))
        )
    ),
)
# the parts of complex arrays: finite floats and the edges of their text
PARTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-315, 1e300, -1e300]),
)


def complex_array(rows, cols, parts, bad):
    """A ``rows`` x ``cols`` complex array of the floats ``parts``, real and
    imaginary in turn, with each ``(i, x)`` of ``bad`` setting part ``i``."""
    x = np.array(parts)
    for i, value in bad:
        x[i] = value
    return x.view(complex).reshape(rows, cols)


# complex matrices of 1..4 x 1..4, a state's or a Kraus operator's layout:
# finite ones take the template, those with a NaN or an infinity the lists
ARRAYS = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.builds(
        complex_array,
        st.just(shape[0]),
        st.just(shape[1]),
        st.lists(PARTS, min_size=2 * shape[0] * shape[1], max_size=2 * shape[0] * shape[1]),
        st.lists(st.tuples(st.integers(0, 2 * shape[0] * shape[1] - 1),
                           st.sampled_from([float("nan"), float("inf"), -float("inf")])), max_size=2),
    )
)
DOCUMENTS = st.recursive(
    st.one_of(
        SCALARS, PAIRS, MATRICES, ARRAYS, st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
        st.builds(np.bool_, st.booleans()), st.just([]), st.just(()), st.just({}),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=30,
)


class TestDumpsTemplate:
    @settings(max_examples=200, derandomize=True)
    @given(DOCUMENTS, ARRAYS)
    def test_equals_the_plain_recursion(self, obj, arr):
        assert dumps(obj) == recursive_dumps(obj)
        # an array writes the bytes of its [re, im] lists, a NaN or an
        # infinity as null in the same slots, and reads back as those lists
        lists = complex_matrix_to_json(arr)
        text = dumps(arr)
        assert text == dumps(lists)
        assert json.loads(text) == [[[x if math.isfinite(x) else None for x in pair] for pair in row] for row in lists]

    @pytest.mark.parametrize(
        "matrix",
        [
            [[[0.5, -0.0]]],
            [[[float("nan"), 1.0], [float("inf"), -float("inf")]]],
            [[[1, 2.0]]],
            [[[True, 2.0]]],
            [[[np.float64(0.1), 2.0]]],
            [[[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]],
            [[[1.0, 2.0, 3.0]]],
            [[], []],
            [],
            [[[1e308, 1e308], [1e308, 1e308]]],
        ],
        ids=["minus-zero", "non-finite", "int", "bool", "numpy-float", "ragged", "triple", "empty-rows", "empty",
             "overflowing-sum"],
    )
    def test_edge_matrices_at_every_depth(self, matrix):
        for obj in (matrix, {"state": matrix}, [{"state": matrix}, matrix]):
            assert dumps(obj) == recursive_dumps(obj)

    @pytest.mark.parametrize("state", [[[[0.1, -0.0], [1e-300, 3.0]]], np.array([[complex(0.1, -0.0), 1e-300 + 3j]])])
    def test_a_state_matrix_is_pairs_of_17_digit_floats(self, state):
        text = dumps({"state": state})
        assert text == '{\n  "state": [\n    [\n      [\n        0.10000000000000001,\n        -0\n      ],\n' \
            '      [\n        1e-300,\n        3\n      ]\n    ]\n  ]\n}\n'


class WriteLog(io.StringIO):
    """A text file that keeps each write's text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class TestDump:
    @settings(max_examples=300, derandomize=True)
    @given(DOCUMENTS)
    def test_writes_the_bytes_of_dumps(self, obj):
        f = io.StringIO()
        dump(obj, f)
        assert f.getvalue() == dumps(obj)

    def test_a_state_is_one_piece(self):
        # one ``%`` of the template, where its lists, and an array holding a
        # NaN, are a piece per row and its closing bracket
        state = np.random.default_rng(3).normal(size=(4, 4)) + 0j
        assert len(list(_emit(state, 1))) == 1
        assert len(list(_emit(complex_matrix_to_json(state), 1))) == 5
        state[3, 0] = np.nan
        assert len(list(_emit(state, 1))) == 5

    def test_one_write_per_record(self):
        rng = np.random.default_rng(5)
        records = [{"kind": "region_eq9", "observed_gap": g, "state": rng.normal(size=(4, 4)) + 0j}
                   for g in rng.random(50).tolist()]
        report = {"op": "verify_region", "violations": records, "seed": 5}
        f = WriteLog()
        dump(report, f)
        assert f.getvalue() == dumps(report)
        holding = [w for w in f.writes if '"kind"' in w]
        assert len(holding) == 50 and all(w.count('"kind"') == 1 for w in holding)
        # and one write per key, scalar value, closing bracket and the last newline
        assert len(f.writes) == 50 + 8


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


def fast_range(rng, n):
    """``n`` doubles of random bits, either sign, with ``1e-200 < |x| <
    1e200``: the cells :func:`_cells` formats itself."""
    exponent = rng.integers(1023 - 664, 1023 + 665, n, dtype=np.uint64)
    bits = rng.integers(0, 2**52, n, dtype=np.uint64) | exponent << np.uint64(52)
    x = (bits | rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)).view(np.float64)
    return x[(abs(x) > 1e-200) & (abs(x) < 1e200)]


def oracle(*cols):
    return "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in zip(*(np.asarray(c).tolist() for c in cols)))


class TestCsvRowsExact:
    """csv_rows builds each cell from a double-double product with array
    operations; ``format(x, ".17g")`` is the oracle of every byte.  Each
    fast case first checks that the call did not fall back."""

    def fast(self, *cols):
        x = np.column_stack(cols).ravel()
        assert _cells(x, len(cols)) is not None
        assert csv_rows(*cols) == oracle(*cols)

    def test_random_bit_patterns(self):
        x = fast_range(np.random.default_rng(29), 100_200)
        assert len(x) >= 100_000 and (x < 0).any() and (x > 0).any()
        self.fast(x)
        self.fast(*x[: len(x) // 3 * 3].reshape(3, -1))

    def test_powers_of_ten_and_their_neighbours(self):
        # and the ends of the fast range: the double 1e-200 lies below 10**-200
        p = np.array([float(f"1e{k}") for k in range(-199, 200)])
        x = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf), np.nextafter([1e-200, 1e200], 1)])
        # some round up to the power at 17 digits: 1e-14 is below 10**-14
        up = [v for v in x.tolist() if Fraction(v) < Fraction(10) ** math.floor(math.log10(v) + 0.5)
              and format(v, ".17g").startswith("1e")]
        assert 1e-14 in up
        self.fast(x)
        self.fast(-x)

    def test_the_g_switches(self):
        # fixed notation from 1e-4 up to below 1e17, exponent notation outside
        edges = np.array([1e-5, 1e-4, 1e15, 1e16, 1e17])
        x = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf), [0.0]]
                           + [edges * (1 + k * 2.0**-50) for k in (-3, -2, 2, 3)])
        self.fast(x, -x)

    def test_exact_ties_are_rounded_half_even(self):
        # below 2**51 a double has quarter units, and 10 x is a tie: exact
        # products, so no fallback
        n = np.random.default_rng(31).integers(10**15, 2**51, 500).astype(float)
        x = np.concatenate([n + 0.25, n + 0.75, n + 0.5, [1e15 + 0.25, 2.0**51 - 0.25]])
        assert {format(v, ".17g")[-1] for v in (n + 0.25).tolist()} == {"2"}
        assert {format(v, ".17g")[-1] for v in (n + 0.75).tolist()} == {"8"}
        self.fast(x)

    def test_a_tie_through_an_inexact_power_falls_back(self):
        # 3 * 2**-24 * 10**23 is a half-integer, but 10**23 is not a double
        x = np.array([3 * 2.0**-24, 0.5])
        assert _cells(x, 1) is None
        assert csv_rows(x) == "1.7881393432617188e-07\n0.5\n"

    @pytest.mark.parametrize("cell", [np.nan, -np.inf, 5e-324, 1e-300, -1e-200, 1e200, -1.7976931348623157e308])
    def test_one_cell_out_of_reach_sends_the_call_to_the_fallback(self, cell):
        cols = np.random.default_rng(37).random((3, 1024))
        cols[1, 700] = cell
        assert _cells(np.column_stack(cols).ravel(), 3) is None
        assert csv_rows(*cols) == oracle(*cols)

    @pytest.mark.parametrize("width", [1, 3])
    def test_empty_columns(self, width):
        assert csv_rows(*[np.array([])] * width) == ""


class TestFiles:
    def test_write_csv_unix_line_endings(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["x", "y"], [csv_rows(np.array([0.5]), np.array([1.0])), "1.5,b\n"])
        raw = p.read_bytes()
        assert b"\r" not in raw
        assert raw == b"x,y\n0.5,1\n1.5,b\n"
