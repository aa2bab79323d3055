"""Text of the rows of a CSV snapshot, a block at a time.

``rows(quantity, start, values)`` returns the rows ``<quantity>,<i>,<v>``
of the float64 ``values``, with ``i`` counting from ``start`` and ``v`` the
value's ``repr``: the bytes of one f-string per row, made with numpy and no
Python object per number.

A float's digits are its shortest round-trip decimal, which is what CPython's
``repr`` prints: of the decimals that read back as the float, the one with
the fewest digits, then the one closest to it, then the even one.  They come
from the Schubfach algorithm on uint64 arrays (R. Giulietti, "The Schubfach
way to render doubles", 2020), without Java's rules that ask for at least
two digits.  The layout is ``repr``'s: exponential when the decimal point
position is <= -4 or > 16, with a signed exponent of at least two digits;
fixed otherwise, with ``.0`` after an integral value; a sign on every
negative value, ``-0.0`` and ``-inf`` included; ``nan`` and ``inf`` as text.

The text of a block is assembled in one byte buffer, prefilled with '0' (the
zeros ``repr`` pads with come free): row offsets come from a ``cumsum`` of
the row lengths, and each number's characters are scattered to where a
table for its layout puts them; characters a layout does not use go to a
trash byte past the text.  The tables are module constants, built when the
module is imported (a few milliseconds): the CSV writer imports it at its
first snapshot, so a run that writes none never builds them.

All uint64 arithmetic has uint64 operands only: numpy promotes a mix of
uint64 and int64 arrays to float64.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_M32, _M63 = _U(0xFFFFFFFF), _U((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)
_ONE_BITS = _U(0x3FF0000000000000)
_TRASH = 1 << 30   # an offset that clips to the trash byte
_INF = _U(0x7FF0000000000000)
_DECPT = range(-330, 320)   # decimal point positions of the tables


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| <= 1838394."""
    return (e * 913124641741) >> 38


def _build_tables():
    """The tables of the kernel, in the order of the module constants below.

    g(k) = floor(10^-k 2^(125 - flog2pow10(-k))) + 1 is a 126-bit upper
    approximation of 10^-k, scaled into [2^125, 2^126).
    """
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
        g = num // den + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    g1, g0 = np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)
    g = np.array([g1, g1 & _M32, g1 >> _U(32), g0 & _M32, g0 >> _U(32)])

    # per biased exponent: q, k = floor(q log10 2), or floor(log10 (3/4 2^q))
    # for the powers of two with a closer lower neighbour, and the shift h
    # that brings the scaled values to 4 times the decimal's units
    q = np.tile(np.maximum(np.arange(2047), 1) - 1075, 2)
    k = (q * 661971961083 - np.repeat([0, 274743187321], 2047)) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    # little-endian words, so that byte j of word i in memory is digit j of i
    i = np.arange(10000, dtype=np.uint64)
    quads = sum((48 + i // _POW10[3 - j] % _U(10)) << _U(8 * j) for j in range(4)).astype("<u4")

    # per decimal point position (index 0 stands for nan and inf): layout
    # class, and the exponent's text
    decpt = np.arange(len(_DECPT)) + _DECPT.start
    power = np.abs(decpt - 1)
    decimal_class = np.where((decpt >= -3) & (decpt <= 16), decpt + 3, 20 + (power >= 100))
    decimal_class[0] = 22
    exponent = np.array([np.full_like(power, ord("e")), np.where(decpt > 0, ord("+"), ord("-")),
                         48 + power // 100, 48 + power // 10 % 10, 48 + power % 10], np.uint8)

    # per layout class (decimal class, significant digits) of the text after
    # the sign: where its rows go (0-4 exponent, 5 '.', 6-22 digits), and its
    # length
    cls, ndig = (a.ravel() for a in np.indices((23, 18)))
    fixed, word = cls < 20, cls == 22          # word: nan or inf
    point = np.where(fixed, cls - 3, 1)        # digits before the '.'
    zeros = np.maximum(1 - point, 0)           # the "0." and zeros after it
    split = np.where(word, 99, np.maximum(point, 0))
    j = np.arange(17)[:, None]
    digit_at = np.where(j < np.where(word, 3, ndig), zeros + j + (j >= split), _TRASH)
    dot_at = np.where(word | (~fixed & (ndig < 2)), _TRASH, np.maximum(point, 1))
    e_at = ndig + (ndig > 1)
    exp_digits = 2 + (cls == 21)
    hundreds = np.where(exp_digits == 3, e_at + 2, _TRASH)
    exp_at = np.where(fixed | word, _TRASH, [e_at, e_at + 1, hundreds, e_at + exp_digits,
                                             e_at + exp_digits + 1])
    float_at = np.vstack([exp_at, dot_at, digit_at])
    float_len = np.where(fixed, zeros + np.maximum(ndig, point) + 1 + (point >= ndig),
                         np.where(word, 3, ndig + (ndig > 1) + 2 + exp_digits))

    # an index text's rows are its 19 digits, leading zeros included; its
    # class is its digit count
    j, count = np.arange(19)[:, None], np.arange(20)
    int_at = np.where(j >= 19 - count, j - (19 - count), _TRASH)
    return g, k - _K_MIN, h, quads, decimal_class, exponent, float_at, float_len, int_at


(_G,               # g1 and the 32-bit limbs of g1 and g0, per k
 # per biased exponent, and per biased exponent + 2047 for a power of two
 # with a closer lower neighbour: k - _K_MIN and h
 _ROW, _H,
 _QUADS,           # the four ASCII digits of each i < 10^4, as bytes
 _DECIMAL_CLASS,   # layout class of each decimal point position
 _EXPONENT,        # the "e+dd" text of each decimal point position
 _FLOAT_AT,        # where each text row goes, per float layout class
 _FLOAT_LEN,       # the text length of each float layout class
 _INT_AT,          # where each index text row goes, per digit count
 ) = _build_tables()


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of the products of uint64 arrays given as 32-bit limbs."""
    mid = a_lo * b_lo
    mid >>= _U(32)
    mid += a_lo * b_hi            # at most (2^32 - 1)^2 + 2^32 - 1: no carry
    high = a_hi * b_lo
    mid += high & _M32
    high >>= _U(32)
    mid >>= _U(32)
    high += mid
    np.multiply(a_hi, b_hi, out=mid)
    high += mid
    return high


def _rop(row, cp):
    """g cp / 2^127 rounded to odd: its floor, with the last bit set when the
    quotient is not an integer (Schubfach's ``rop``), for the g of each
    table row ``row``.  Overwrites ``cp``."""
    z = _G[0, row] * cp
    z >>= _U(1)
    cp_lo = cp & _M32
    cp_hi = cp
    cp_hi >>= _U(32)
    z += _mulhi(_G[3, row], _G[4, row], cp_lo, cp_hi)
    integral = _mulhi(_G[1, row], _G[2, row], cp_lo, cp_hi)
    del cp_lo, cp_hi
    integral += z >> _U(63)
    z &= _M63
    z += _M63
    z >>= _U(63)
    integral |= z
    return integral


def _shortest(bits):
    """Shortest decimals d 10^k, the closest and then the even one on a tie,
    of the positive finite nonzero floats with these bit patterns."""
    biased = bits >> _U(52)
    fraction = bits & _U((1 << 52) - 1)
    # a power of two above the subnormals has a lower neighbour half as far
    # away as its upper one
    lower = (fraction == 0) & (biased > 1)
    odd = (fraction & _U(1)).astype(bool)      # c odd: an open interval
    c = fraction + _U(1 << 52) * (biased > 0)
    exponent = biased + _U(2047) * lower
    del biased, fraction
    # 4 times the scaled value and its interval bounds in one pass; open
    # bounds move in by one unit below
    cb = np.empty((3, len(c)), dtype=np.uint64)
    cb[:] = c << _U(2)
    del c
    cb[1] -= _U(2) - lower
    cb[2] += _U(2)
    cb <<= _H[exponent]
    row = _ROW[exponent]
    del exponent
    vb, low, high = _rop(row, cb)
    del cb
    low += odd
    high -= odd
    s, rest = vb >> _U(2), vb & _U(3)
    sp10 = s // _U(10) * _U(10)
    upin, uin = low <= sp10 << _U(2), low <= s << _U(2)
    wpin, win = (sp10 << _U(2)) + _U(40) <= high, (s << _U(2)) + _U(4) <= high
    # the one multiple of 10^(k+1) in the interval, if any, is shortest;
    # else s or s + 1, whichever is in it, or the closer, or the even one
    pick_s = uin & (~win | (rest + (s & _U(1)) < 3))
    return np.where(upin | wpin, sp10 + _U(10) * wpin, s + ~pick_s), row + _K_MIN


def _count(d):
    """The number of decimal digits of each uint64 value (1 for 0)."""
    return np.searchsorted(_POW10[1:], d, side="right") + 1


def _digits(d, width):
    """The last ``width`` ASCII digits of the uint64 values ``d``, with
    leading zeros: row j of the (width, n) result holds the digit of each
    value worth 10^(width - 1 - j)."""
    quads = -(-width // 4)
    groups = np.empty((quads, len(d)), dtype=np.uint64)   # 4 digits each
    for i in range(quads):
        np.floor_divide(d, _POW10[4 * (quads - 1 - i)], out=groups[i])
    groups[1:] -= groups[:-1] * _POW10[4]
    text = np.take(_QUADS, groups.astype(np.intp)).view(np.uint8)
    text = text.reshape(quads, len(d), 4).transpose(0, 2, 1).reshape(4 * quads, len(d))
    return text[4 * quads - width:]


def _int_text(start, n):
    """The texts of the indices ``start`` ... ``start + n - 1`` (nonnegative):
    their lengths, which are their layout classes, their characters as rows,
    and where each row goes per class."""
    index = np.arange(start, start + n, dtype=np.uint64)
    count = _count(index)
    used = int(count[-1])
    return count, _digits(index, used), _INT_AT[19 - used:]


def _float_text(x):
    """The ``repr`` texts of the float64 values ``x``: their signs and
    lengths, the characters after the sign as rows, their layout classes,
    and where each row goes per class."""
    bits = x.view(np.uint64)
    magnitude = bits & _M63
    # finite and nonzero; the others are worked as 1 (1.0) and then patched
    regular = magnitude - _U(1) < _U(0x7FF0000000000000 - 1)
    neg = (bits > _M63) & (magnitude <= _INF)
    d, k = _shortest(np.where(regular, magnitude, _ONE_BITS))
    count = _count(d)
    digits = _digits(d * _POW10[17 - count], 17)    # left-aligned
    digits[0] -= (magnitude == 0)              # "0.0" where 1.0 has "1.0"
    ndig = ((digits != ord("0")) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)
    ndig = np.maximum(ndig, 1)
    place = k + count - _DECPT.start           # the decimal point position's row
    words = np.flatnonzero(magnitude >= _INF)
    if words.size:
        place[words], ndig[words] = 0, 3
        nan, inf = (np.frombuffer(word, np.uint8)[:, None] for word in (b"nan", b"inf"))
        digits[:3, words] = np.where(magnitude[words] > _INF, nan, inf)
    decimal_class = _DECIMAL_CLASS[place]
    cls = decimal_class * 18 + ndig
    # rows that no number here uses are left out: the exponent's without an
    # exponential, the digits' past the longest
    start, stop = 0 if (decimal_class >= 20).any() else 5, 6 + int(ndig.max())
    text = np.empty((stop - start, len(x)), dtype=np.uint8)
    if start == 0:
        np.take(_EXPONENT, place, axis=1, out=text[:5])
    text[5 - start] = ord(".")
    text[6 - start:] = digits[:stop - 6]
    return neg, neg + _FLOAT_LEN[cls], text, cls, _FLOAT_AT[start:stop]


def _scatter(buf, first, text, cls, at):
    """Put the text rows of each number at ``first`` plus the positions that
    ``at`` gives its class; a position past the text goes to the trash byte,
    the last of ``buf``."""
    trash = len(buf) - 1
    for j in range(0, len(at), 4):            # 4 rows at a time bound the positions
        pos = np.take(at[j:j + 4], cls, axis=1)
        pos += first
        np.minimum(pos, trash, out=pos)
        buf[pos] = text[j:j + 4]


def rows(quantity: str, start: int, values) -> str:
    """``"".join(f"{quantity},{i},{v!r}\\n" for i, v in enumerate(values, start))``
    for the 1-D float64 ``values`` and a nonnegative ``start``.  It takes one
    kernel pass, so the caller bounds the kernel's temporaries by the size of
    the block.  Values that are all +0.0 (bitwise) are the literal text
    ``0.0``: only their indices take the kernel."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if not n:
        return ""
    head = f"{quantity},".encode("ascii")
    zero = not values.view(np.uint64).any()
    tail = b",0.0\n" if zero else b","
    count, digits, int_at = _int_text(start, n)
    sizes = len(head) + count + len(tail)
    if not zero:
        neg, length, text, cls, float_at = _float_text(values)
        sizes += length + 1                   # the value and its newline
    ends = np.cumsum(sizes)
    total = int(ends[-1])
    buf = np.full(total + 1, ord("0"), dtype=np.uint8)   # the last byte is trash
    first = ends - sizes
    for i, char in enumerate(head):
        buf[first + i] = char
    _scatter(buf, first + len(head), digits, count, int_at)
    first += len(head) + count
    for i, char in enumerate(tail):
        buf[first + i] = char
    if not zero:
        first += len(tail)
        buf[np.where(neg, first, total)] = ord("-")
        first += neg
        _scatter(buf, first, text, cls, float_at)
        buf[ends - 1] = ord("\n")
    return str(memoryview(buf)[:total], "ascii")
