"""The text of CSV cells: ``'%.17g' % x`` for whole float64 arrays.

`cell_words` lays each cell out in six int64 words of fixed byte slots;
absent characters are NUL, or spaces in a cell ``%`` formats, and dropping
the bytes of `PADDING` leaves the cells' text and delimiters:

- word 0: the sign, the ``0.000`` of ``1e-4 <= |x| < 0.1``, the first digit
  and a point slot;
- words 1-4: the other 16 digits, each followed by a point slot;
- word 5: ``e+XX`` or ``e-XXX``, then the delimiter.

With ``E`` the decimal exponent, the 17-digit significand is
``D = round(s)`` for ``s = |x| 10^(16 - E)``. ``s`` is held as the
unevaluated sum ``p + lo``: ``10^(16 - E)`` is the double-double ``hi +
lo``, each part correctly rounded from exact integers; ``|x| hi = p + err``
exactly, by Dekker's TwoProduct with Veltkamp's split (``hi``'s split is
tabulated); and ``lo <- err + |x| lo``. The error of ``p + lo`` is below
``4 u^2 p`` (``u = 2^-53``), under ``2^-47`` for ``p < 10^17``, and ``p >=
10^16 > 2^53`` is an integer. So ``D = p + rint(lo)``, unless the exact ``s``
may lie on the other side of a rounding tie (``lo`` within `TIE_BOUND`, twice
that bound, of one) or ``p`` lies within 64 of 10^16 or 10^17 (``E`` one off,
or a significand rounding up to 10^17). Those cells, and zero, NaN, inf and
``|x|`` outside [1e-289, 1e300), are formatted by ``%`` itself, so every
cell has the bytes ``%`` gives it.

The kernel uses only float64 and int64 arithmetic, comparisons of floats and
`take`, the NumPy loops the integrator already runs, so writing a CSV pages
in no other NumPy code.
"""

from __future__ import annotations

import math
import sys

import numpy as np

CELL_WORDS = 6
PADDING = b"\0 "  # the bytes of a cell's words that are not its text
TIE_BOUND = 2 * np.finfo(np.float64).eps ** 2 * 1e17  # twice 4 u^2 p for p < 10^17
_E_MIN, _E_MAX = -290, 299  # the decimal exponents the kernel takes


def _words(text: bytes) -> np.ndarray:
    """int64 words holding ``text``, 8 bytes each, in the machine's byte order."""
    return np.frombuffer(text, np.int64)


def _slots(texts) -> bytes:
    """``texts`` laid out 8 bytes apart, NUL-padded."""
    return b"".join(text.encode().ljust(8, b"\0") for text in texts)


COMMA, NEWLINE = (int(_words(_slots(["\0" * 5 + char]))[0]) for char in ",\n")


def _tables() -> dict:
    """The kernel's tables, indexed by decimal exponent, digits or slot.

    They are built from Python numbers and bytes: a NumPy loop the run does
    not use would page its code in.
    """
    E = range(_E_MIN, _E_MAX + 1)
    scale, next_decade = np.empty((4, len(E))), np.empty(len(E))
    for i, e in enumerate(E):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den  # int / int is correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        mant, exp = math.frexp(hi)
        c = mant * 134217729.0  # Veltkamp's split of the mantissa, scaled back
        hh = math.ldexp(c - (c - mant), exp)
        scale[:, i] = hi, hh, hi - hh, (num * hi_den - hi_num * den) / (den * hi_den)
        next_decade[i] = 10 ** (e + 1) / 1 if e >= -1 else 1 / 10 ** -(e + 1)
    prefix = ["0." + "0" * (-1 - e) if -4 <= e < 0 else "" for e in E]
    # a cell's 40 slots before word 5: digit d (0..16) at slot 6 + 2 d, its point slot after it
    adjust = np.empty((5, 17 * 17), np.int64)
    for K in range(17):  # the last digit printed: the '0' of every later digit goes
        zeros = bytearray(40)
        for d in range(K + 1, 17):
            zeros[6 + 2 * d] = ord("0")
        for P in range(17):  # the digit a point follows, if a digit after it is printed
            point = bytearray(40)
            if P < K:
                point[7 + 2 * P] = ord(".")
            for w in range(5):
                adjust[w, 17 * K + P] = (int.from_bytes(point[8 * w:8 * w + 8], sys.byteorder)
                                         - int.from_bytes(zeros[8 * w:8 * w + 8], sys.byteorder))
    two = [f"{v:02d}" for v in range(100)]
    return {
        "next_decade": next_decade, "scale": scale,
        "head": _words(_slots("\0" + text for text in prefix) + _slots("-" + text for text in prefix)),
        "tail": _words(_slots("" if -4 <= e <= 16 else "e%+03d" % e for e in E)),
        "first": _words(_slots("\0" * 6 + str(d) for d in range(10))),
        # the two digits of 0..99 as characters in bytes 0 and 2, or 4 and 6, of a word
        "pairs": _words(_slots(f"{t}\0{o}" for t, o in two)
                        + _slots(f"\0\0\0\0{t}\0{o}" for t, o in two)).reshape(2, 100),
        # index of the last nonzero digit of 0..99; none: far below any other
        "last": np.array([1 if o != "0" else 0 if t != "0" else -100 for t, o in two]),
        # the digit a point follows (16: none), and the last digit printed at least
        "point": np.array([e if 0 <= e <= 16 else 16 if -4 <= e < 0 else 0 for e in E]),
        "keep": np.array([e if 0 <= e <= 16 else 0 for e in E]),
        "adjust": adjust,
    }


# built at import: building them at the first write would add their transients to the
# resident memory of a process holding its trajectories
_TABLES = _tables()


def cell_words(cells: np.ndarray, delims: np.ndarray) -> np.ndarray:
    """The ``(rows, k, 6)`` words of ``(rows, k)`` float64 cells, each followed by its delimiter.

    ``delims`` holds the ``k`` columns' delimiter words (`COMMA`, `NEWLINE`).
    """
    tab = _TABLES
    rows, k = cells.shape
    x = cells.ravel()
    a = np.abs(x)
    ok = (a >= 1e-289) & (a < 1e300)  # E and the exponent below it within the tables
    np.copyto(a, 1.0, where=~ok)
    E = np.frexp(a)[1].astype(np.float64)  # |x| < 2^E: floor((E - 1) log10 2) is the
    E -= 1.0                               # decimal exponent or one less
    E *= math.log10(2.0)
    np.floor(E, out=E)
    E -= _E_MIN
    at = E.astype(np.intp)
    del E
    at += a >= tab["next_decade"].take(at)
    hi, hh, hl, lo = tab["scale"].take(at, axis=1)
    c = a * 134217729.0
    ah = c - (c - a)
    al = np.subtract(a, ah, out=c)
    p = a * hi
    lo *= a
    lo += ((ah * hh - p) + ah * hl + al * hh) + al * hl
    del a, hi, hh, hl, c, ah, al
    r = np.rint(lo)
    lo -= r
    ok &= np.abs(lo, out=lo) < 0.5 - TIE_BOUND
    ok &= (p >= 1e16 + 64) & (p < 1e17 - 64)
    # D = p + r = d0 10^16 + g[0] 10^8 + g[1], every part exact in float64
    g = np.empty((2, x.size))
    high = np.floor(p / 1e8)
    np.subtract(p, high * 1e8, out=g[1])
    g[1] += r
    np.floor(g[1] / 1e8, out=r)  # the carry
    high += r
    g[1] -= r * 1e8
    d0 = np.floor(high / 1e8)
    np.subtract(high, d0 * 1e8, out=g[0])
    del p, r, high, lo
    quads = np.empty((4, x.size))
    np.floor(g / 1e4, out=quads[0::2])
    np.subtract(g, quads[0::2] * 1e4, out=quads[1::2])
    del g
    words = np.empty((CELL_WORDS, x.size), np.int64)
    tab["head"].take(at + np.signbit(x) * len(tab["tail"]), out=words[0])
    words[0] += tab["first"].take(d0.astype(np.intp))
    keep = tab["keep"].take(at)  # the last digit printed
    high = np.floor(quads / 100.0)
    quads -= high * 100.0
    for half, pairs in enumerate((high, quads)):  # the first and the last two digits of each
        pairs = pairs.astype(np.intp)
        if half:
            words[1:5] += tab["pairs"][half].take(pairs)
        else:
            tab["pairs"][half].take(pairs, out=words[1:5])
        last = tab["last"].take(pairs)
        last += np.arange(1 + 2 * half, 17, 4)[:, None]
        np.maximum(keep, last.max(axis=0), out=keep)
    del high, quads, pairs, last
    keep *= 17
    keep += tab["point"].take(at)
    words[:5] += tab["adjust"].take(keep, axis=1)
    tab["tail"].take(at, out=words[5])
    out = words.T.reshape(rows * k, CELL_WORDS)
    out[:, 5] += np.tile(delims, rows)
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = ("%-40.17g" * slow.size) % tuple(x[slow].tolist())
        out[slow, :5] = np.frombuffer(text.encode("ascii"), np.int64).reshape(-1, 5)
        out[slow, 5] = delims[slow % k]
    return out.reshape(rows, k, CELL_WORDS)
