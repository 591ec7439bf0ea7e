"""The CSV cell kernel: the bytes of `"%.17g" % v` for a block of rows, from numpy.

A cell's 17 significant digits are round(|v| 10^(16 - X)), X its decimal
exponent, from a double-double product whose error is below 2^-45 of the
last digit; sign, digits, point and exponent are then laid out by the `%g`
rules. A cell the product cannot decide keeps `"%.17g" % v` itself: zero,
not finite (t, x, y), |v| outside [1e-280, 1e280] (so no partial product
over- or underflows), a scaled fraction within 2^-30 of a half, where
CPython's dtoa rounds half to even, or digits that round to 10^17 or fall
below 10^16: a |v| so close to a power of ten that its decade is in doubt.
"""

from __future__ import annotations

import functools

import numpy as np

_RANGE = (1e-280, 1e280)
_TIE = 2.0 ** -30
_LO, _HI = 10 ** 16, 10 ** 17
_XMAX = 282                     # tables by X in [-_XMAX, _XMAX]
_SPLIT = 134217729.0            # 2^27 + 1: Dekker's split into 26-bit halves
# A cell's source row is seven 4-byte words: digits 2-17, then (digit 1, 0 . -),
# (exponent sign and three digits), (e, separator, NUL, NUL). A layout lists
# the source bytes of a cell and its separator, NUL-padded; the compaction
# drops the NULs. A fallback's `%` text takes bytes 0-23.
_DIGIT = (16, *range(16))
_ZERO, _POINT, _MINUS, _ESIGN, _EXP, _E, _SEP, _NUL = 17, 18, 19, 20, 21, 24, 25, 26
_WIDTH = 25                     # "-d.<16 digits>e-XXX" and its separator
_FORMS = 23                     # X + 4 for -4 <= X < 17, then e+XX, then e+XXX
_EMPTY, _FALLBACK = 2 * _FORMS * 17, 2 * _FORMS * 17 + 1


@functools.cache
def _kernel_tables():
    """The tables of the cell kernel, built from exact integers on first use."""
    powers = []                 # 10^(16 - X) as hi + lo, and hi split in halves
    for x in range(-_XMAX, _XMAX + 1):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        hi = num / den          # int division rounds correctly
        m, q = hi.as_integer_ratio()
        c = _SPLIT * hi
        hh = c - (c - hi)
        powers.append((hi, hh, hi - hh, (num * q - m * den) / (den * q)))

    def words(texts):
        return np.frombuffer(b"".join(texts), dtype=np.uint32)

    # "0000" to "9999" and their trailing zeros by repeats, not by divisions:
    # numpy code a run has not yet touched adds to its resident set
    chars = np.arange(48, 58, dtype=np.uint8)
    quads = np.stack([np.tile(np.repeat(chars, 10 ** (3 - j)), 10 ** j) for j in range(4)],
                     axis=1).view(np.uint32)[:, 0]
    zeros = sum(np.tile(np.arange(10 ** k) == 0, 10 ** (4 - k)) for k in (1, 2, 3))
    leads = words(b"%d0.-" % i for i in range(10))
    exps = words(b"%+04d" % x for x in range(-_XMAX, _XMAX + 1))
    tails = words([b"e,\0\0"] * 5 + [b"e\n\0\0"])
    # digits 1 to the last non-zero one of group j, at least 1
    kept = np.where(np.arange(10000) > 0, np.arange(4)[:, None] * 4 + 5 - zeros, 1)
    kept = kept.astype(np.int8)
    forms = [x + 4 if -4 <= x < 17 else 21 if abs(x) < 100 else 22
             for x in range(-_XMAX, _XMAX + 1)]
    layouts = [_layout(neg, form, s) for neg in (0, 1) for form in range(_FORMS)
               for s in range(1, 18)]
    layouts += [[_SEP] + [_NUL] * (_WIDTH - 1), [*range(_WIDTH - 1), _SEP]]   # empty, fallback
    return (np.array(powers).T.copy(), quads, leads, exps, tails, kept,
            np.array(forms) * 17 - 1, np.array(layouts, dtype=np.uint8))


def _layout(neg, form, s):
    """The source bytes of a cell of `form` with `s` significant digits, its
    separator and NULs."""
    d = list(_DIGIT[:s])
    cell = [_MINUS] * neg
    if form < 4:                # 0.000ddd
        cell += [_ZERO, _POINT] + [_ZERO] * (3 - form) + d
    elif form < 21:             # ddd.ddd, or ddd000 with no digit after the point
        whole = form - 3
        cell += list(_DIGIT[:whole]) + ([_POINT] + d[whole:] if s > whole else [])
    else:                       # d.ddde+XX or d.ddde+XXX
        cell += d[:1] + ([_POINT] + d[1:] if s > 1 else [])
        cell += [_E, _ESIGN] + list(range(_EXP + (form == 21), _EXP + 3))
    return cell + [_SEP] + [_NUL] * (_WIDTH - 1 - len(cell))


def _divmod(v, unit):           # np.divmod, at the cost of np.floor_divide
    q = v // unit
    return q, v - q * unit


def _digits(v, powers):
    """Each cell's 17 significant digits as an integer in [10^16, 10^17), its
    decimal exponent X + _XMAX, and whether the product decided them."""
    mag = np.abs(v)
    ok = (mag >= _RANGE[0]) & (mag <= _RANGE[1])
    a = np.where(ok, mag, 1.0)
    # X as floor(ln a / ln 10): numpy's log10 would add code to the resident
    # set that a run does not otherwise touch. Next to a power of ten the
    # estimate may be one off, and the digits tell.
    x = np.floor(np.log(a) * 0.43429448190325176).astype(np.intp) + _XMAX
    hi, hh, hl, lo = powers.take(x, axis=1)
    p = a * hi                  # above 2^53 when X is right: an integer
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    pl = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    whole = np.floor(pl)
    frac = pl - whole
    d = p.astype(np.int64) + whole.astype(np.int64)
    ok &= d >= _LO              # else X was one too high
    d += frac > 0.5
    # d = 10^17: X one too low, or rounded up into the next decade
    ok &= (np.abs(frac - 0.5) >= _TIE) & (d < _HI)
    d[~ok] = _LO                # an undecided cell's digits stay in the tables' range
    return d, x, ok


def csv_cells(block):
    """The CSV bytes of `block`'s rows: each cell `"%.17g" % v`, an empty
    alpha, kappa or k cell where it is not finite."""
    powers, quads, leads, exps, tails, kept, forms, layouts = _kernel_tables()
    v = block.ravel()
    d, x, ok = _digits(v, powers)
    top, low = _divmod(d, 10 ** 8)
    lead, mid = _divmod(top, 10 ** 8)
    groups = (*_divmod(mid, 10 ** 4), *_divmod(low, 10 ** 4))
    src = np.empty((len(v), 7), dtype=np.uint32)
    for j, g in enumerate(groups):
        src[:, j] = quads.take(g)
    src[:, 4] = leads.take(lead)
    src[:, 5] = exps.take(x)
    src.reshape(len(block), 6, 7)[:, :, 6] = tails
    src = src.view(np.uint8)

    key = forms.take(x) + np.signbit(v) * (_FORMS * 17)
    key += np.maximum(np.maximum(kept[0].take(groups[0]), kept[1].take(groups[1])),
                      np.maximum(kept[2].take(groups[2]), kept[3].take(groups[3])))
    del d, top, low, lead, mid, groups     # before the gather's 25 indices a cell
    empty = ~np.isfinite(v)
    empty.reshape(len(block), 6)[:, :3] = False
    key[empty] = _EMPTY
    for i in np.flatnonzero(~ok & ~empty):
        text = b"%.17g" % v[i]
        src[i, :_WIDTH - 1] = 0
        src[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        key[i] = _FALLBACK
    at = layouts.take(key, axis=0) + np.arange(0, src.size, src.shape[1])[:, None]
    out = src.ravel().take(at).ravel()
    del at                      # before the compaction's temporaries
    return out[out != 0].tobytes()
