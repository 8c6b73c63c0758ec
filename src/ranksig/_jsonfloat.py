"""JSON text of float64 arrays, as rows of NUL-padded ASCII: the vjson writer's strengths.

``float_rows(x)`` gives ``json.dumps(v)`` for each value v of ``x``. A numpy
kernel writes each value in [1e-4, 1e16), and 0.0 as ``0.0``; ``json.dumps``
writes every other value, and every value whose digits the kernel cannot
prove.

In that range repr writes the shortest digit string that reads back as x,
nearest to x among strings of its length, in fixed notation. The kernel
forms s = x * 10**q, q = 16 - floor(log10 x), exactly as a double-double
hi + lo: 5**q is an exact double (q <= 21 and 5**21 < 2**53), Dekker's
product with Veltkamp splitting gives x * 5**q as hi + lo exactly, and
scaling by 2**q is exact. s lies in [1e16, 1e17), and its integer part
holds x's first 17 digits. The nearest k-digit decimal to x is the
multiple of w = 10**(17 - k) nearest to s; its distance d from s is
computed with an error below 2**-43, and _ERR is 2**-40. When x is not a
power of two, the decimals that read back as x are those less than
h = ulp(x) / 2 * 10**q from s (h is an exact double), and the nearest
k-digit decimal does if any k-digit decimal does. So the digits are those
of the first k in 15, 16, 17 with d < h; at 17 digits d <= 1/2 < h always.

A value goes to json instead when the kernel cannot prove its digits: a
14-digit decimal reads back (repr may be shorter than 15 digits), d is
within _ERR of h (the decimal may sit on the rounding boundary) or of w / 2
(two decimals tie), x is a power of two (its interval is not symmetric),
x is out of range or not finite, or s falls outside [1e16, 1e17)
(floor(log10 x) was off by one). Exact ties occur. Otherwise the powers of
2 and 5 that divide s - h and s - w / 2 keep every value of the range at
least 1.4e-14 from both boundaries, so the bands guard the error bound
rather than values that occur; likewise the kernel's digits would be right
for each of the 67 powers of two in the range (2**-13 to 2**53) without
their guard.

Past the double-double the steps are exact integer arithmetic. numpy
divides an integer array by a scalar with a multiply and shifts, but by an
array of divisors, or in ``%``, with one hardware division per element; so
every step divides by a scalar with ``//``, and a remainder is
x - x // m * m. The tails s mod 1000, 100 and 10 come from one int64
``whole // 1000`` and then from floors of the tail below 1000, an exact
double. The 17 digits split by ``divmod(digits, 10**8)`` into two int32
halves and these into five groups of four digits (the first 0..9). One
take from a uint32 table of the text of 0..9999 writes the groups of all
rows into one flat buffer, 24 bytes a row, whose row r at offset 0 holds
the digit text at the fraction's slots and at offset 4 at the integer
part's. A row is then two multiplies by its shown slots and two adds,
all on contiguous rows. Scaling by a power of two is a multiply by a
double built from its exponent bits, exact here as ``ldexp`` is and
several times faster.

Only the vjson writer imports this module, so that the other commands
neither load nor compile it.
"""

import functools
import json

import numpy as np

# a bound on the error of a computed distance, in units of the 17th digit
_ERR = 2.0 ** -40
# 10**(17 - k) for the candidates of k = 14..17 digits, a row per k
_W = np.array([[1000.0], [100.0], [10.0], [1.0]])
# a row: a "0" at column 2 for a value below 1, the integer part's digit i
# at column 3 + i and the fraction's at 7 + i, so that the "." and up to
# three zeros fit between the two (three zeros for a value below 1e-3, one
# "0" for a value with no fraction digit); what a value does not use is NUL
ROW_WIDTH = 24


def _row_layout(point: int, k: int) -> tuple:
    """The fixed characters of a row and its shown integer and fraction digit
    slots, for ``k`` digits with ``point`` of them before the decimal point
    (``point`` <= 0 puts -point zeros after it)."""
    lead = max(point, 0)
    zeros = b"0" * -point if point <= 0 else b"0" * (point >= k)
    chars = (b"0" if point <= 0 else b"\0").rjust(3, b"\0") + b"\0" * lead + b"." + zeros
    return (chars.ljust(ROW_WIDTH, b"\0"), [0] * 3 + [int(i < lead) for i in range(ROW_WIDTH - 3)],
            [0] * 7 + [int(lead <= i < k) for i in range(17)])


@functools.cache
def _tables():
    """5**q for q < 22; the fixed characters and the shown integer and
    fraction digit slots of each row layout, by (point + 3) * 3 + k - 15
    for point in [-3, 16] and k in 15..17, then those of 0.0; and the ASCII
    digits of 0..9999 as uint32."""
    layouts = [_row_layout(point, k) for point in range(-3, 17) for k in (15, 16, 17)]
    layouts.append(_row_layout(1, 1))
    chars = np.frombuffer(b"".join(c for c, _, _ in layouts), np.uint8).reshape(len(layouts), -1)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)  # by the digits of 0..9999
    for place in range(4):
        quads[..., place] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - place))
    return (np.array([5.0 ** q for q in range(22)]), chars,
            *(np.array([layout[part] for layout in layouts], dtype=np.uint8) for part in (1, 2)),
            quads.view(np.uint32).ravel())


def _pow2(e):
    """2.0 ** e for each int64 e of a normal double's exponent range."""
    return ((e + 1023) << 52).view(np.float64)


def _scaled(v, pow5):
    """(whole, frac, half, e10): s = whole + frac exactly but for the
    rounding of frac, h in units of s, and floor(log10 v), for v in
    [1e-4, 1e16)."""
    e2 = (v.view(np.uint64) >> np.uint64(52)).astype(np.int64) - 1023
    e10 = np.floor(np.log10(v)).astype(np.int64)  # in [-5, 16]
    q = 16 - e10
    c = pow5[q]
    p = v * c
    # Dekker's TwoProduct: v * c == p + err exactly
    vs, cs = 134217729.0 * v, 134217729.0 * c
    vh, ch = vs - (vs - v), cs - (cs - c)
    vl, cl = v - vh, c - ch
    err = ((vh * ch - p) + vh * cl + vl * ch) + vl * cl
    scale = _pow2(q)
    hi, lo = p * scale, err * scale
    floor_hi = np.floor(hi)
    f = (hi - floor_hi) + lo
    floor_f = np.floor(f)
    whole = floor_hi.astype(np.int64) + floor_f.astype(np.int64)
    return whole, f - floor_f, c * _pow2(q + e2 - 53), e10


def _shortest(whole, frac, half):
    """(digits, k, unsure): the first of the 14- to 17-digit candidates that
    reads back, as a 17-digit integer, its digit count, and whether that
    was within _ERR of a boundary."""
    tail = np.zeros((4, len(whole)))  # s mod w, but for frac, a row per k
    tail[0] = whole - whole // 1000 * 1000
    for row, w in ((1, 100.0), (2, 10.0)):
        tail[row] = tail[0] - np.floor(tail[0] / w) * w
    t = tail + frac  # s mod w
    up = t > _W / 2
    d = np.minimum(t, _W - t)  # w - t is exact where it is the smaller
    unsure = (np.abs(d - half) <= _ERR) | (np.abs(t - _W / 2) <= _ERR)
    found = unsure | (d < half)  # the 17-digit candidate always reads back
    pick = np.where(found[0], 0, np.where(found[1], 1, np.where(found[2], 2, 3)))
    at = pick * len(whole) + np.arange(len(whole))
    step = (_W * up - tail).ravel()[at]  # an integer below 1000 in magnitude
    return whole + step.astype(np.int64), pick + 14, unsure.ravel()[at]


def float_rows(x):
    """``json.dumps(v)`` for each value v of the float64 array ``x``, as the
    rows of a (len(x), ROW_WIDTH) uint8 matrix of ASCII text padded with NULs."""
    pow5, chars, int_slots, frac_slots, quads = _tables()
    x = np.asarray(x, dtype=np.float64)
    bits = x.view(np.uint64)
    zero = bits == 0
    kernel = (x >= 1e-4) & (x < 1e16) & ((bits & np.uint64((1 << 52) - 1)) != 0)
    whole, frac, half, e10 = _scaled(np.where(kernel, x, 1.5), pow5)
    digits, k, unsure = _shortest(whole, frac, half)
    proven = kernel & ~unsure & (k > 14) & (whole >= 10 ** 16) & (digits < 10 ** 17)
    layout = np.where(proven, (e10 + 4) * 3 + k - 15, len(chars) - 1)

    high, low = (h.astype(np.int32) for h in np.divmod(np.where(proven, digits, 0), 10 ** 8))
    top, mid = high // 10 ** 4, low // 10 ** 4
    first = top // 10 ** 4
    # six groups a row, the first "0000": the digits' text is then at the
    # fraction's slots, and 4 bytes on at the integer part's, where a row's
    # last 4 bytes are the next row's first group, never shown
    index = np.zeros(len(x) * 6 + 1, np.intp)
    index[:-1].reshape(-1, 6).T[1:] = (
        first, top - first * 10 ** 4, high - top * 10 ** 4, mid, low - mid * 10 ** 4)
    text_of_digits = quads.take(index).view(np.uint8)
    text = frac_slots.take(layout, axis=0)
    text *= text_of_digits[:-4].reshape(-1, ROW_WIDTH)
    shown = int_slots.take(layout, axis=0)
    shown *= text_of_digits[4:].reshape(-1, ROW_WIDTH)
    text += shown
    text += chars.take(layout, axis=0)
    rows = np.flatnonzero(~(proven | zero))
    if len(rows):
        # json writes a float in at most 24 characters
        strings = json.dumps(x[rows].tolist())[1:-1].split(", ")
        text[rows] = np.array(strings, dtype=f"S{ROW_WIDTH}").view(np.uint8).reshape(len(rows), -1)
    return text
