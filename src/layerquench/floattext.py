"""Exact "%.17g" text of float64 arrays, computed by numpy.

Python's "%.17g" % x writes the correctly rounded 17-digit significand D
of x at its decimal exponent P (the exponent after rounding): positional
when -4 <= P <= 16, in e-notation otherwise, with trailing zeros and a
bare point stripped.  For P in that range this module finds D with no
decimal conversion:

- |x| * 10**(16 - P) is formed exactly as hi + lo by Dekker's two-product
  (Veltkamp splitting).  10**k is an exact double for k <= 22, and
  |x| >= 1e-5 keeps k <= 22.
- hi then lies in [1e16, 1e17], above 2**53, so it is an even integer,
  and D = hi + rint(lo): rint rounds half to even, and since hi is even
  that rounds hi + lo half to even.
- P starts as floor(log10|x|) and moves by one where the exact product
  falls outside [1e16, 1e17); a value still outside is left to Python.
- D never rounds up to 10**17, a carry into P + 1: that needs a double
  below 10**(P + 1) and within 5e-18 of it, relatively, and the largest
  double below each power of ten from 1e-4 to 1e17 is 8.3e-17 or more
  away (tests/test_floattext.py formats each of them).

Zero, subnormals, non-finite values and every P outside [-4, 16] are
formatted by Python's "%.17g", one value at a time.
"""

import numpy as np

# the longest "%.17g" text, e.g. "-2.2250738585072014e-308"
WIDTH = 24

_POW10 = np.array([float(10 ** k) for k in range(23)])
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles


def _split(a):
    """(hi, lo) with hi + lo == a exactly, each of at most 26 bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

# per 4-digit group q: its four ASCII digits as one 32-bit word, and its
# number of trailing zeros
_Q = np.arange(10000)
_GROUP_TEXT = (_Q[:, None] // np.array([1000, 100, 10, 1]) % 10
               + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_GROUP_ZEROS = ((_Q % 10 == 0).astype(np.int64) + (_Q % 100 == 0) + (_Q % 1000 == 0)
                + (_Q == 0))

# row e: WIDTH bytes, the first e of them 0xff and the rest 0, as 64-bit
# words; a text row ANDed with row e keeps its first e bytes
_KEEP = np.where(np.arange(WIDTH) < np.arange(WIDTH + 1)[:, None], 0xFF,
                 0).astype(np.uint8).view(np.uint64)


def _scaled(a, p):
    """a * 10**(16 - p) as the exact sum hi + lo (Dekker's two-product)."""
    k = 16 - p
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _significands(a):
    """(D, P, ok) for positive a in [1e-5, 1e17): the 17-digit significand
    D and the decimal exponent P of "%.17g" % a, where ok."""
    p = np.clip(np.floor(np.log10(a)), -5, 16).astype(np.intp)
    hi, lo = _scaled(a, p)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    moved = np.flatnonzero(low | high)
    if len(moved):
        # a < 1e17 and p >= -5 before the move keep p within [-6, 16]
        p[moved] += high[moved].astype(np.intp) - low[moved]
        hi[moved], lo[moved] = _scaled(a[moved], p[moved])
    ok = (((hi > 1e16) | ((hi == 1e16) & (lo >= 0)))
          & ((hi < 1e17) | ((hi == 1e17) & (lo < 0))))
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    return d, p, ok & (p >= -4)


def _digits(d):
    """(digits, zeros): the 17 ASCII digits of each d in [1e16, 1e17) and
    the number of its trailing zeros."""
    lead, rest = np.divmod(d, 10 ** 16)
    groups = [rest // 10 ** 12, rest // 10 ** 8 % 10000, rest // 10 ** 4 % 10000, rest % 10000]
    # five words of four digits; the leading digit is the last of "000d"
    words = np.empty((len(d), 5), np.uint32)
    for g, q in enumerate([lead] + groups):
        words[:, g] = _GROUP_TEXT[q]
    # a group of four zeros adds its 4 and passes on to the group before it
    zeros = _GROUP_ZEROS[groups[0]]
    for q in groups[1:]:
        zeros = _GROUP_ZEROS[q] + (q == 0) * zeros
    return words.view(np.uint8)[:, 3:], zeros


def _positional(d, p, negative):
    """(n, WIDTH) NUL-padded rows of "%.17g" text for significands d at
    exponents p in [-4, 16].  The rows of a run of one exponent and sign
    are laid out together, so input sorted by magnitude within each sign
    takes one pass per exponent."""
    digits, zeros = _digits(d)
    rows = np.zeros((len(d), WIDTH), np.uint8)
    key = 2 * p + negative
    starts = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
    for a, b in zip(starts, np.r_[starts[1:], len(p)]):
        e, s, run, dig = int(p[a]), int(negative[a]), rows[a:b], digits[a:b]
        if s:
            run[:, 0] = ord("-")
        if e >= 0:
            run[:, s:s + e + 1] = dig[:, :e + 1]
            run[:, s + e + 1] = ord(".")
            run[:, s + e + 2:s + 18] = dig[:, e + 1:]
        else:
            run[:, s:s + 2] = (ord("0"), ord("."))
            run[:, s + 2:s + 1 - e] = ord("0")
            run[:, s + 1 - e:s + 18 - e] = dig
    # text end: 17 - zeros digits kept, and the point only if a fraction is
    end = negative + np.where(p >= 0, np.where(16 - p > zeros, 18 - zeros, p + 1),
                              18 - p - zeros)
    words = rows.view(np.uint64)
    words &= _KEEP[end]
    return rows


def g17(values):
    """("%.17g" % v).encode() of each float64 v, as an array of dtype
    S<WIDTH>.  Values sorted by magnitude within each sign (np.unique of
    their bit patterns) take the fewest passes.  When every value is
    positional the rows of _positional are the result as they are;
    otherwise they are scattered among the texts Python formats.  The
    temporaries come to about 170 bytes per value."""
    x = np.asarray(values, dtype=np.float64)
    ax = np.abs(x)
    fast = np.flatnonzero((ax >= 1e-5) & (ax < 1e17))
    d, p, ok = _significands(ax[fast])
    if len(fast) == len(x) and ok.all():
        return _positional(d, p, x < 0).view(f"S{WIDTH}").ravel()
    texts = np.zeros(len(x), f"S{WIDTH}")
    fast = fast[ok]
    texts[fast] = _positional(d[ok], p[ok], x[fast] < 0).view(texts.dtype).ravel()
    rest = np.ones(len(x), dtype=bool)
    rest[fast] = False
    rest = np.flatnonzero(rest)
    texts[rest] = ["%.17g" % v for v in x[rest].tolist()]
    return texts
