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

Only the vjson writer imports this module, so that the other commands
neither load nor compile it.
"""

import functools
import json

import numpy as np

# a bound on the error of a computed distance, in units of the 17th digit
_ERR = 2.0 ** -40
# a row: a "0" for a value below 1, 17 integer-part digit slots, the ".",
# three zeros, 17 fraction digit slots and a "0" for a value with no
# fraction digit; what a value does not use is NUL
_WIDTH = 40
_INT, _FRAC = slice(1, 18), slice(22, 39)


def _row_layout(point: int, k: int) -> tuple:
    """The fixed characters of a row and its shown digit slots, for ``k``
    digits with ``point`` of them before the decimal point (``point`` <= 0
    puts -point zeros after it)."""
    lead = max(point, 0)
    chars = (b"0" if point <= 0 else b"\0") + b"\0" * 17 + b"." + (b"0" * -point).ljust(3, b"\0")
    chars += b"\0" * 17 + (b"0" if point >= k else b"\0")
    slots = [0] + [int(i < lead) for i in range(17)] + [0] * 4
    slots += [int(lead <= i < k) for i in range(17)] + [0]
    return chars, slots


@functools.cache
def _tables():
    """5**q for q < 22; the fixed characters and shown digit slots of each
    row layout, by (point + 3) * 3 + k - 15 for point in [-3, 16] and k in
    15..17, then that of 0.0; and the ASCII digits of 0..999."""
    layouts = [_row_layout(point, k) for point in range(-3, 17) for k in (15, 16, 17)]
    layouts.append(_row_layout(1, 1))
    chars = np.frombuffer(b"".join(c for c, _ in layouts), np.uint8).reshape(len(layouts), -1)
    triples = np.frombuffer(b"".join(b"%03d" % n for n in range(1000)), np.uint8)
    return (np.array([5.0 ** q for q in range(22)]), chars,
            np.array([s for _, s in layouts], dtype=np.uint8), triples.reshape(-1, 3))


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
    hi, lo = np.ldexp(p, q), np.ldexp(err, q)
    floor_hi = np.floor(hi)
    f = (hi - floor_hi) + lo
    floor_f = np.floor(f)
    whole = floor_hi.astype(np.int64) + floor_f.astype(np.int64)
    return whole, f - floor_f, np.ldexp(c, q + e2 - 53), e10


def _shortest(whole, frac, half):
    """(digits, k, unsure): the first of the 14- to 17-digit candidates that
    reads back, as a 17-digit integer, its digit count, and whether that
    was within _ERR of a boundary."""
    w = np.array([1000, 100, 10, 1])  # 10**(17 - k)
    tail = whole[:, None] % w
    t = tail + frac[:, None]  # s mod w
    up = t > w / 2
    d = np.abs(t - w * up)
    half = half[:, None]
    unsure = (np.abs(d - half) <= _ERR) | (np.abs(t - w / 2) <= _ERR)
    found = unsure | (d < half)  # the 17-digit candidate always reads back
    pick = np.where(found[:, 0], 0, np.where(found[:, 1], 1, np.where(found[:, 2], 2, 3)))
    at = np.arange(len(whole)) * 4 + pick
    return whole + (w * up - tail).ravel()[at], pick + 14, unsure.ravel()[at]


def float_rows(x):
    """``json.dumps(v)`` for each value v of the float64 array ``x``, as the
    rows of a (len(x), 40) uint8 matrix of ASCII text padded with NULs."""
    pow5, chars, slots, triples = _tables()
    x = np.asarray(x, dtype=np.float64)
    bits = x.view(np.uint64)
    zero = bits == 0
    kernel = (x >= 1e-4) & (x < 1e16) & ((bits & np.uint64((1 << 52) - 1)) != 0)
    whole, frac, half, e10 = _scaled(np.where(kernel, x, 1.5), pow5)
    digits, k, unsure = _shortest(whole, frac, half)
    proven = kernel & ~unsure & (k > 14) & (whole >= 10 ** 16) & (digits < 10 ** 17)
    layout = np.where(proven, (e10 + 4) * 3 + k - 15, len(chars) - 1)

    triple = np.where(proven, digits, 0)[:, None] // 10 ** np.arange(15, -1, -3) % 1000
    ascii_digits = triples.take(triple, axis=0).reshape(-1, 18)[:, 1:]
    shown = slots.take(layout, axis=0)
    shown[:, _INT] *= ascii_digits
    shown[:, _FRAC] *= ascii_digits
    text = chars.take(layout, axis=0)
    text += shown
    rows = np.flatnonzero(~(proven | zero))
    if len(rows):
        # json writes a float in at most 24 characters
        strings = json.dumps(x[rows].tolist())[1:-1].split(", ")
        text[rows] = np.array(strings, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return text
