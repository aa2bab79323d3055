"""``_text.render`` against the ``%`` formatting it replaces, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decem._text import render


def oracle(row, *columns):
    """``(row * n) % flat`` over Python floats and ints."""
    n, width = len(columns[0]), len(columns)
    flat = [None] * (n * width)
    for j, column in enumerate(columns):
        flat[j::width] = column.tolist()
    return (row * n) % tuple(flat)


def assert_floats_match(values):
    values = np.asarray(values, dtype=np.float64)
    assert render("%r\n", values) == oracle("%r\n", values)


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def test_random_bit_patterns():
    """All exponents and both signs, nan and inf among them."""
    bits = np.random.default_rng(20).integers(0, 2**64, size=200_000, dtype=np.uint64)
    with np.errstate(invalid="ignore"):
        assert_floats_match(bits.view(np.float64))


def test_powers_of_two_and_ten_and_their_neighbours():
    twos = 2.0 ** np.arange(-1074, 1024)
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    values = neighbours(np.concatenate([twos, tens]))
    assert_floats_match(np.concatenate([values, -values]))


def test_subnormals_layout_switches_and_special_values():
    subnormals = np.arange(2000) * 5e-324
    switches = neighbours([1e16, 1e-4, 1e-5])
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
    with np.errstate(invalid="ignore"):
        assert_floats_match(np.concatenate([subnormals, -subnormals, switches, -switches,
                                            specials]))
        # blocks of nothing but them, which the kernel works as 1.0 and patches
        assert_floats_match(specials)
        for value in specials:
            assert_floats_match([value] * 3)


def test_short_decimals():
    m, e = np.meshgrid(np.arange(1, 1000), np.arange(-30, 31))
    values = m.ravel() * 10.0 ** e.ravel()
    assert_floats_match(np.concatenate([values, -values, np.arange(1, 10**5, 13.0)]))


def test_int_columns():
    extremes = np.array([0, 1, -1, 9, 10, -10, 2**63 - 1, -2**63, 10**18, -10**18,
                         999_999_999_999_999_999, 1_000_000_000_000_000_001], dtype=np.int64)
    random = np.random.default_rng(21).integers(-2**63, 2**63 - 1, size=5000, dtype=np.int64)
    for values in (extremes, random, random >> np.arange(5000) % 64):
        assert render("%d\n", values) == oracle("%d\n", values)


@pytest.mark.parametrize("n", [0, 1, 7])
def test_short_blocks(n):
    rng = np.random.default_rng(n)
    faces = rng.integers(0, 10**6, size=(n, 3))
    values = rng.normal(size=(n, 3))
    for row, columns in (("%r\n", values[:, :1].T), ("3 %d %d %d\n", faces.T),
                         ("%r %r %r\n", values.T)):
        assert render(row, *columns) == oracle(row, *columns)


def test_zero_columns():
    """A %r column of +0.0 only is literal text; -0.0 is not +0.0."""
    index = np.arange(50)
    zeros, values = np.zeros(50), np.random.default_rng(23).normal(size=50)
    signed = zeros.copy()
    signed[17] = -0.0
    cases = [("%r\n", (zeros,)), ("%r\n", (signed,)), ("%r %r %r\n", (zeros, zeros, zeros)),
             ("%r %r %r\n", (zeros, signed, zeros)), ("e,%d,%r\n", (index, zeros)),
             ("%d,%r,%r,%r\n", (index, values, zeros, -values)),
             ("%d,%r,%r\n", (index[::-1], zeros, signed))]
    for row, columns in cases:
        for rows in (slice(None), slice(0), slice(1), slice(17, 18)):
            cols = [column[rows] for column in columns]
            assert render(row, *cols) == oracle(row, *cols), (row, rows)
    assert "-0.0" in render("%r\n", signed)


def test_rows_mixing_ints_floats_and_text():
    """The rows of the CSV, VTK and growth writers, with long blocks."""
    rng = np.random.default_rng(22)
    n = 5000
    index = np.arange(n)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
    values[::17] = 0.0
    columns = (index % 13, rng.random(n), values, np.abs(values), np.repeat([1e-3, 0.1], n // 2))
    for row, cols in (("e,%d,%r\n", (index, values)), ("h,%d,%r\n", (index[::-1], -values)),
                      ("3 %d %d %d\n", (index, index[::-1], index % 7)),
                      ("%r %r %r\n", (values, -values, values[::-1])),
                      ("%d,%r,%r,%r,%r\n", columns)):
        assert render(row, *cols) == oracle(row, *cols), row


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(-2**63, 2**63 - 1),
       st.booleans(), st.booleans())
def test_any_floats_property(values, integer, zero_first, zero_second):
    floats = np.array(values, dtype=np.float64)
    ints = np.full(len(floats), integer, dtype=np.int64)
    first = np.zeros_like(floats) if zero_first else floats
    second = np.zeros_like(floats) if zero_second else floats[::-1]
    row = "x%d,%r %r\n"
    assert render(row, ints, first, second) == oracle(row, ints, first, second)
