"""The readers' numeric columns: plain decimals are read by digit
arithmetic, other columns by numpy's cast from bytes, and a column the cast
cannot read or hold field by field. The digit reader gives
``column.astype(dtype)`` bit for bit, and every field reads as Python's
``int``/``float`` reads it, or is marked as one that it rejects."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfair.io import _numbers, _plain_numbers

PLAIN = {np.int64: re.compile(r"[0-9]+"), np.float64: re.compile(r"[0-9]+(\.[0-9]*)?")}

PLAIN_FIELDS = st.one_of(
    st.from_regex(r"[0-9]{1,15}", fullmatch=True),
    st.from_regex(r"0{0,4}[0-9]{1,8}\.[0-9]{0,8}", fullmatch=True),
    st.from_regex(r"[0-9]{14,17}(\.[0-9]{0,2})?", fullmatch=True),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(repr),
)
# Edge cases, and fields the digit reader leaves to the cast: signs, also
# inside a field, exponents, ``_``, spaces, words, a leading, lone or second
# ``.``, an empty field, more than 15 bytes.
ODD = [
    "1.", ".5", ".", "+5", "-0", "-1.5", "1-2", "7+", "1 2", "1_0", "1e5", "1E-3",
    "2.5e-07", "nan", "inf", "Infinity",
    "0", "00", "0.0", "9" * 15, "9" * 16, "1." + "9" * 13, "0.000000000001", "1.2.3",
    "1..", "", "972980635139693.7",
]
ODD_FIELDS = st.sampled_from(ODD)


@st.composite
def columns(draw):
    """Plain fields of mixed widths, with at most a few odd ones among them."""
    fields = draw(st.lists(PLAIN_FIELDS, min_size=1, max_size=12))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        fields[draw(st.integers(0, len(fields) - 1))] = draw(ODD_FIELDS)
    return np.array([field.encode() for field in fields])


def _check(column, dtype):
    try:
        want = column.astype(dtype)
    except (ValueError, OverflowError):
        want = None
    plain = _plain_numbers(column, dtype)
    text = [field.decode() for field in column.tolist()]
    if all(PLAIN[dtype].fullmatch(field) and len(field) <= 15 for field in text):
        assert plain is not None
    if plain is not None:
        assert want is not None and plain.dtype == dtype
        assert np.array_equal(plain.view(np.int64), want.view(np.int64))
    values, failed = _numbers(column, dtype)
    kind = int if dtype is np.int64 else float
    for i, field in enumerate(text):
        try:
            expected = kind(field)
        except ValueError:
            assert failed is not None and failed[i], field
            continue
        assert failed is None or not failed[i], field
        got = values.item(i)
        assert type(got) is kind and repr(got) == repr(expected), field


@settings(max_examples=500, deadline=None)
@given(columns(), st.sampled_from([np.int64, np.float64]))
def test_plain_columns_read_as_the_cast_does(column, dtype):
    _check(column, dtype)


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("odd", ODD)
def test_each_edge_case_among_plain_fields(odd, dtype):
    _check(np.array([b"12", odd.encode(), b"3"]), dtype)
    _check(np.array([odd.encode()]), dtype)


@pytest.mark.parametrize(
    "fields",
    [
        [b"0.1", b"0.2", b"0.3", b"123456.7890123", b"9999999999999.9"],
        [b"1", b"20", b"300.", b"0.5", b"00000000000001.5"],
        [b"1234567890.12345"],  # 16 bytes: the cast reads it
        # 17 bytes, whose 16 digits exceed 2**53: the digits over a power of
        # ten would round twice.
        [b"972980635139693.7"],
    ],
)
def test_decimal_fractions_round_as_python_does(fields):
    column = np.array(fields)
    got, failed = _numbers(column, np.float64)
    assert failed is None
    assert got.tolist() == [float(field) for field in fields]
