"""``_text.rows`` against the f-string rows of the CSV snapshot, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decem._text import rows


def oracle(quantity, start, values):
    """One f-string per row, over Python floats."""
    return "".join(f"{quantity},{i},{v!r}\n" for i, v in enumerate(values.tolist(), start))


def assert_rows_match(values, start=0, quantity="e"):
    values = np.asarray(values, dtype=np.float64)
    assert rows(quantity, start, values) == oracle(quantity, start, values)


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def test_random_bit_patterns():
    """All exponents and both signs, nan and inf among them."""
    bits = np.random.default_rng(20).integers(0, 2**64, size=200_000, dtype=np.uint64)
    with np.errstate(invalid="ignore"):
        assert_rows_match(bits.view(np.float64))


def test_powers_of_two_and_ten_and_their_neighbours():
    twos = 2.0 ** np.arange(-1074, 1024)
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    values = neighbours(np.concatenate([twos, tens]))
    assert_rows_match(np.concatenate([values, -values]))


def test_subnormals_layout_switches_and_special_values():
    subnormals = np.arange(2000) * 5e-324
    switches = neighbours([1e16, 1e-4, 1e-5])
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
    with np.errstate(invalid="ignore"):
        assert_rows_match(np.concatenate([subnormals, -subnormals, switches, -switches,
                                          specials]))
        # blocks of nothing but them, which the kernel works as 1.0 and patches
        assert_rows_match(specials)
        for value in specials:
            assert_rows_match([value] * 3)


def test_short_decimals():
    m, e = np.meshgrid(np.arange(1, 1000), np.arange(-30, 31))
    values = m.ravel() * 10.0 ** e.ravel()
    assert_rows_match(np.concatenate([values, -values, np.arange(1, 10**5, 13.0)]))


@pytest.mark.parametrize("n", [0, 1, 7])
def test_short_blocks(n):
    values = np.random.default_rng(n).normal(size=n)
    for block in (values, np.zeros(n)):
        assert_rows_match(block)


@pytest.mark.parametrize("start", [9, 99, 9999, 2**31 - 2])
def test_index_digit_boundaries(start):
    """Blocks that start one below a new index digit, or at the int32 limit
    less one, with random values and with zeros."""
    rng = np.random.default_rng(start)
    values = rng.normal(size=5000) * 10.0 ** rng.integers(-20, 20, size=5000)
    values[::17] = 0.0
    for n in (1, 2, 5000):
        for block in (values[:n], np.zeros(n)):
            assert_rows_match(block, start, "h")


def test_zero_columns():
    """A value column of +0.0 only is literal text; -0.0 is not +0.0."""
    zeros = np.zeros(50)
    signed = zeros.copy()
    signed[17] = -0.0
    for values in (zeros, signed):
        for block in (slice(None), slice(0), slice(1), slice(17, 18)):
            for start in (0, 98):
                assert_rows_match(values[block], start)
    assert "-0.0" in rows("e", 0, signed)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(0, 2**63 - 41),
       st.booleans())
def test_any_floats_property(values, start, zero):
    floats = np.zeros(len(values)) if zero else np.array(values, dtype=np.float64)
    assert_rows_match(floats, start)
