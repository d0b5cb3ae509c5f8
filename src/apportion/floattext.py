"""Exact vectorized conversion between float64 arrays and decimal text.

The writer gives, cell by cell, the bytes of ``"%.17g" % v``; the reader
gives the values of ``float(cell)``.  Both run in numpy on uint64 words,
with 128-bit products where a double's digits need them.  The reader takes
text of long cells, where np.loadtxt is slow, and hands the rest to
np.loadtxt.  ``apportion.cli`` imports this module on first use, so that
importing the CLI does not load it.
"""

from __future__ import annotations

import functools
import io
import os
import warnings

import numpy as np


# The exact writer.  A value v with 1e-4 <= |v| < 1e14 is m * 2**(b - 1075),
# with m the 53-bit significand and b the biased exponent.  Its 17
# significant digits are the integer D in [10**16, 10**17) nearest to
# |v| * 10**(16 - E), E = floor(log10 |v|), ties to even as in David Gay's
# dtoa, which CPython's ``%`` runs.  That product is m * 5**k >> t with
# k = 16 - E in [3, 20] and t = 1059 + E - b in [3, 46]: a right shift of
# an integer below 2**101, done exactly on two uint64 words.  ``%g``
# writes that range in fixed notation.  Every other value (0, -0,
# subnormals, non-finite values, exponent notation) and every whole number
# goes through ``%``.
#
# A cell is laid out in 32 bytes, with a NUL for each byte its text does
# not use; deleting the NULs leaves the text.  Byte 6 holds the sign, byte
# 7 the "0" before the point of |v| < 1 and bytes 12 + E to 10 the "0"s
# after it, byte 11 D's first digit and bytes 12-27 the other 16, with its
# trailing zeros NULs.  The point goes in at byte 12 + E, and the bytes
# from there on move up one.  Byte 31 holds the separator.

_U64 = np.uint64
_FAST_RANGE = (1e-4, 1e14)
_STRIPPED = 10_000  # offset of the trailing-zeros-as-NUL half of ascii4


@functools.cache
def _layout_tables():
    """Tables the writer indexes, built on its first call.

    ``pow5[E + 5]`` is 5**(16 - E).  ``ascii4[c]`` is the 4-digit ASCII
    of c < 10**4 as a little-endian uint32, ``ascii4[_STRIPPED + c]`` the
    same with its trailing zeros as NULs.  Row E + 4 of ``zeros`` holds
    the "0"s of cell bytes 4-11, and of ``tail`` the mask of the bytes from
    the point on.
    """
    pow5 = _U64(5) ** np.arange(21, 1, -1, dtype=np.uint64)
    c = np.arange(10_000)
    chars = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1)
    chars = (chars + ord("0")).astype(np.uint8)
    # Keep each digit with a nonzero digit at or after it.
    kept = np.flip(np.logical_or.accumulate(np.flip(chars != ord("0"), 1), 1), 1)
    ascii4 = np.concatenate([chars, chars * kept]).view("<u4").ravel()
    zeros = np.zeros((21, 8), dtype=np.uint8)
    tail = np.zeros((21, 32), dtype=np.uint8)
    for e in range(-4, 17):
        if e < 0:
            zeros[e + 4, 3] = ord("0")
            zeros[e + 4, 8 + e : 7] = ord("0")
        tail[e + 4, 12 + e : 31] = 0xFF
    tables = pow5, ascii4, zeros.view("<u4"), tail.view("<u8")
    for table in tables:
        table.setflags(write=False)
    return tables


def _mul128(a, b):
    """The high and low uint64 words of each 128-bit product a * b, from
    products of 32-bit limbs, none of whose sums carries out of 64 bits."""
    low32, s32 = _U64(0xFFFFFFFF), _U64(32)
    al, ah = a & low32, a >> s32
    bl, bh = b & low32, b >> s32
    mid = al * bl
    mid >>= s32
    hi = ah * bl
    mid += hi & low32
    mid += al * bh
    hi >>= s32
    hi += ah * bh
    mid >>= s32
    hi += mid
    return hi, a * b


def _scaled(m, b, e10, pow5):
    """floor(m * 2**(b - 1075) * 10**(16 - e10)), the remainder below it
    in units of 2**-t, and t = 1059 + e10 - b."""
    f = np.take(pow5, e10 + 5)
    t = (e10 + 1059 - b).astype(np.uint64)
    hi, lo = _mul128(m, f)
    rem = lo & ((_U64(1) << t) - _U64(1))
    return (hi << (_U64(64) - t)) | (lo >> t), rem, t


def _significands(values):
    """D and E of each value, and the mask of the values out of range."""
    pow5 = _layout_tables()[0]
    mag = np.abs(values)
    slow = ~((mag >= _FAST_RANGE[0]) & (mag < _FAST_RANGE[1]))
    mag[slow] = 1.0
    bits = mag.view(np.uint64)
    m = bits & _U64((1 << 52) - 1)
    m |= _U64(1 << 52)
    b = (bits >> _U64(52)).astype(np.intp)
    # log10 can miss E by one next to a power of ten; D's length tells.
    e10 = np.floor(np.log10(mag)).astype(np.intp)
    d, rem, t = _scaled(m, b, e10, pow5)
    off = np.flatnonzero(d - _U64(10**16) >= _U64(9 * 10**16))
    if off.size:
        e10[off] += np.where(d[off] < _U64(10**16), -1, 1)
        d[off], rem[off], t[off] = _scaled(m[off], b[off], e10[off], pow5)
    half = _U64(1) << (t - _U64(1))
    d += rem >= half
    # A tie rounded up to odd goes back down to even.
    d[rem == half] &= ~_U64(1)
    carry = d == _U64(10**17)
    d[carry] = _U64(10**16)
    e10 += carry
    return d.view(np.intp), e10, slow


def format_cells(block: np.ndarray, seps: np.ndarray) -> bytes:
    """The rows of C-contiguous ``block`` as ``%.17g`` text, each cell
    followed by its column's separator in ``seps``."""
    _, ascii4, zeros, tail = _layout_tables()
    values = block.ravel()
    d, e10, slow = _significands(values)
    # D's first digit, then its other 16 in four 4-digit chunks.
    c0, d = np.divmod(d, 10**16)
    h8, l8 = np.divmod(d, 10**8)
    chunks = np.empty((values.size, 4), dtype=np.intp)
    np.divmod(h8, 10**4, out=(chunks[:, 0], chunks[:, 1]))
    np.divmod(l8, 10**4, out=(chunks[:, 2], chunks[:, 3]))
    chunks[:, 3] += _STRIPPED
    cells = np.zeros((values.size, 8), dtype=np.uint32)
    cells[:, 1:3] = np.take(zeros, e10 + 4, axis=0)
    cells[:, 1] |= (values < 0) * np.uint32(ord("-") << 16)
    cells[:, 2] |= (c0 + ord("0")).astype(np.uint32) << 24
    cells[:, 3:7] = np.take(ascii4, chunks)
    cells.reshape(len(block), -1, 8)[:, :, 7] = seps << 24
    # The trailing zeros reach into a chunk where every chunk after it is 0.
    rows = np.flatnonzero(chunks[:, 3] == _STRIPPED)
    for col in (2, 1, 0):
        if not rows.size:
            break
        cells[rows, 3 + col] = np.take(ascii4, chunks[rows, col] + _STRIPPED)
        rows = rows[chunks[rows, col] == 0]

    words = cells.view(np.uint64)
    moved = words & np.take(tail, e10 + 4, axis=0)
    words ^= moved
    # A whole number would end in a bare point.
    slow |= (moved[:, 1] | moved[:, 2] | moved[:, 3]) == 0
    text = words.view(np.uint8)
    text.ravel()[1:] |= moved.view(np.uint8).ravel()[:-1]
    text.ravel()[np.arange(12, text.size, 32) + e10] = ord(".")
    exact = ["%.17g" % v for v in values[slow].tolist()]
    if exact:
        text[slow, :31] = np.array(exact, dtype="S31").view(np.uint8).reshape(-1, 31)
    return text.tobytes().translate(None, b"\0")


# The exact reader, the writer's inverse.  The body is read in blocks of
# whole lines.  One byte scan finds the bytes that are not digits; the
# commas and line ends among them end the cells (a "\r" ends a line, as in
# csv.reader, and empty lines are skipped).  A cell of the grammar
#     ["+"] digits ["." digits] [("e" | "E") ["+" | "-"] 1-8 digits]
# with 1-24 bytes before its exponent is w * 10**q, q its exponent less its
# fraction digits, w the integer its digits spell; past 19 significant
# digits, w is the first 19 and q counts the others.  One to three
# unaligned 8-byte windows end where the digits end; a masked shift drops
# the point, and each window's 8 digits sum by three multiplies (SWAR).
# Where w <= 2**53 and |q| <= 22, one float multiply or divide rounds
# correctly (Clinger 1990).  Otherwise Eisel and Lemire's algorithm
# (Lemire 2021, "Number parsing at a gigabyte per second"; Go's
# strconv.eiselLemire64) rounds w * 10**q to the nearest double from the
# product of w's normalized bits and a 128-bit approximation of 10**q,
# rounded down.  It declines the few products too close to a rounding
# boundary to decide, and a cell whose dropped digits are not all 0 is
# decided only where w and w + 1 round alike.  Those cells, every other
# cell, and results outside the normal doubles go to float() on the
# cell's text.

# np.loadtxt rounds a cell of at most 15 significant digits by one float
# operation, at about the exact reader's speed or faster; past that it
# corrects with big integers, which the exact reader does not need.  Past
# about 20 significant digits the exact reader rounds twice (w and w + 1),
# and past 24 bytes it calls float(), and loses again.  So it takes text
# whose cells average 16-25 bytes, separator included, and hold only the
# grammar's bytes, as simulate's %.17g cells do; np.loadtxt reads the rest,
# as it did before.
_CELL_BYTES = range(16, 26)
_GRAMMAR = b"0123456789.eE+-,\r\n"
# Text per block.  For cells as simulate writes them, about 20 bytes with
# two that are not digits, every temporary of a block stays under 128 KB,
# which glibc's malloc serves from memory it freed, as for the writer's
# chunks of ``cli._FORMAT_CELLS`` cells.
_READ_BYTES = 1 << 16
_LEAD = b"0" * 24  # digits before a block, under its first cell's windows
_Q_MIN, _Q_MAX = -342, 308  # w * 10**q is subnormal or infinite outside
_DOT, _SEP, _EOL, _EXP, _SIGN, _OTHER = range(6)


@functools.cache
def _reader_tables():
    """Tables the reader indexes, built on its first call.

    For q = _Q_MIN + i, ``pow_hi[i], pow_lo[i]`` are the 128 bits of
    floor(10**q * 2**(127 - F)), F = floor(log2 10**q), and ``bias[i]`` is
    F - 2 (mod 2**64); ``exact[q]`` is 10.0**q for q <= 22.  ``cls`` is the
    class of each byte.  Column 25 * k + n of ``masks[0]`` selects, as 0x0F
    in each byte of the three windows, the digits of an n-byte mantissa
    after its point at byte k - 1 (all of them if k = 0, no point), and of
    ``masks[1]`` those before it.  ``exp_mask[n]`` selects the last n bytes
    of a window in the same way.
    """
    pow_hi, pow_lo, bias = [], [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        if q >= 0:
            f = (10**q).bit_length() - 1
            t = 10**q << (127 - f) if f <= 127 else 10**q >> (f - 127)
        else:
            f = -((10**-q).bit_length())
            t = (1 << (127 - f)) // 10**-q
        pow_hi.append(t >> 64)
        pow_lo.append(t & (2**64 - 1))
        bias.append((f - 2) % 2**64)
    cls = np.full(256, _OTHER, dtype=np.uint8)
    for chars, c in [(b".", _DOT), (b",", _SEP), (b"\r\n", _EOL), (b"eE", _EXP), (b"+-", _SIGN)]:
        cls[list(chars)] = c
    byte = np.arange(24)
    k = np.arange(25)[:, None, None]
    cell = byte >= 24 - np.arange(25)[:, None]
    after = np.where(k == 0, cell, byte > k - 1)
    before = (k > 0) & cell & (byte < k - 1)
    masks = (np.stack([after, before]) * 0x0F).astype(np.uint8)
    masks = masks.view("<u8").reshape(2, 625, 3).transpose(0, 2, 1).copy()
    exp_mask = (byte[:8] >= 8 - np.arange(9)[:, None]) * 0x0F
    exp_mask = exp_mask.astype(np.uint8).view("<u8").ravel()
    tables = (
        np.array(pow_hi, dtype=np.uint64),
        np.array(pow_lo, dtype=np.uint64),
        np.array(bias, dtype=np.uint64),
        np.array([float(10**q) for q in range(23)]),
        cls,
        masks,
        exp_mask,
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _line_blocks(fh):
    """The rest of binary file ``fh`` in blocks of whole lines, as
    (data, stop): the block is data[24:stop], after ``_LEAD``, in a buffer
    that the next block reuses and that has 8 bytes to spare after it.  A
    last line with no line end gets one."""
    data = bytearray(_LEAD) + bytearray(_READ_BYTES + 8)
    filled = len(_LEAD)
    while True:
        if filled == len(data) - 8:  # a line longer than the buffer
            data += bytearray(len(data))
        with memoryview(data) as view:
            read = fh.readinto(view[filled:-8])
        if not read:
            if filled > len(_LEAD):
                data[filled : filled + 1] = b"\n"
                yield data, filled + 1
            return
        filled += read
        stop = max(data.rfind(b"\n", 0, filled), data.rfind(b"\r", 0, filled)) + 1
        if stop > len(_LEAD):
            yield data, stop
            data[len(_LEAD) : len(_LEAD) + filled - stop] = data[stop:filled]
            filled -= stop - len(_LEAD)


def _windows(data, ends, count):
    """The ``count`` little-endian words of bytes [e - 8 * count, e) of
    ``data``, one column for each e in ``ends``, read as the bytes of
    ``count + 1`` aligned words shifted into place (a gather of unaligned
    words is several times slower)."""
    start = ends - 8 * count
    shift = (start & 7).view(np.uint64) << _U64(3)
    start >>= 3
    words = np.frombuffer(data, "<u8", count=len(data) // 8)
    low = words.take(start + np.arange(count + 1)[:, None])
    # Shifting by 64 would keep the word: shift by 1, then by 63 - shift.
    high = low[1:] << _U64(1)
    high <<= _U64(63) - shift
    low = low[:-1]
    low >>= shift
    low |= high
    return low


def _swar8(x):
    """In place: words of 8 digit values (the first digit in the lowest
    byte) to the numbers they spell."""
    x *= _U64(10 << 8 | 1)
    x >>= _U64(8)
    x &= _U64(0x00FF00FF00FF00FF)
    x *= _U64(100 << 16 | 1)
    x >>= _U64(16)
    x &= _U64(0x0000FFFF0000FFFF)
    x *= _U64(10000 << 32 | 1)
    x >>= _U64(32)
    return x


def _mantissas(data, ends, col, words):
    """The integer w that the first 19 significant digits of each mantissa
    spell, the mantissa ending at ``ends`` with the layout of column ``col``
    of ``masks`` and fitting in ``words`` (1-3) windows.  For those with
    20-24 significant digits, also their indices, how many digits follow
    the first 19, and the indices of those where one of these is not 0."""
    # The digits right-aligned in the windows, the point shifted out and
    # every other byte 0.
    x = _windows(data, ends, words)
    after, before = (m[3 - words :].take(col, axis=1, mode="clip") for m in _reader_tables()[5])
    before &= x
    x &= after
    x[1:] |= before[:-1] >> _U64(56)
    before <<= _U64(8)
    x |= before
    _swar8(x)
    long = np.flatnonzero(x[0] >= _U64(1000)) if words == 3 else np.empty(0, np.intp)
    if long.size:
        # The first window holds 4-8 digits: keep its first 3, and drop as
        # many from the end of the third.
        x0, x1, x2 = x[:, long]
        tens = _U64(10) ** np.arange(17, dtype=np.uint64)
        dropped = np.searchsorted(tens, x0, side="right") - 3
        cut = tens.take(dropped)
        head = x0 * tens.take(16 - dropped) + x1 * tens.take(8 - dropped) + x2 // cut
        inexact = long[x2 % cut != 0]
    w = x[0]
    for chunk in x[1:]:
        w *= _U64(10**8)
        w += chunk
    if not long.size:
        return w, long, long, long
    w[long] = head
    return w, long, dropped, inexact


def _nearest_doubles(w, qi):
    """The doubles nearest w * 10**(qi + _Q_MIN) for uint64 w >= 1, and the
    mask of those Eisel-Lemire leaves undecided or finds not normal."""
    pow_hi, pow_lo, bias, *_ = _reader_tables()
    # Shift w's top bit to bit 63.  The float's exponent can be one too
    # high when w rounds up to a power of two; the top bit tells.
    ew = w.astype(np.float64).view(np.uint64) >> _U64(52)
    wn = w << (_U64(1086) - ew)
    top = wn >> _U64(63)
    wn <<= top ^ _U64(1)
    hi, lo = _mul128(wn, pow_hi.take(qi, mode="clip"))
    # The truncated power can be short by less than wn in lo: that reaches
    # hi's 9 dropped bits only when they are all ones.
    wide = np.flatnonzero((hi & _U64(0x1FF)) == _U64(0x1FF))
    wide = wide[lo[wide] + wn[wide] < wn[wide]]
    if wide.size:
        wn_w, hi_w = wn[wide], hi[wide]
        y_hi, y_lo = _mul128(wn_w, pow_lo.take(qi[wide], mode="clip"))
        lo_w = lo[wide] + y_hi
        hi_w += lo_w < y_hi
        hi[wide], lo[wide] = hi_w, lo_w
        wide = wide[
            ((hi_w & _U64(0x1FF)) == _U64(0x1FF))
            & (lo_w == _U64(2**64 - 1))
            & (y_lo + wn_w < wn_w)
        ]
    msb = hi >> _U64(63)
    exponent = bias.take(qi, mode="clip")
    exponent += ew
    exponent += top
    exponent += msb
    # Biased exponents 1-2045: a normal double even if rounding carries.
    undecided = exponent > _U64(2044)
    undecided[wide] = True
    # A product that may lie halfway between two doubles, which rounding
    # half up below would get wrong when the lower one is even.
    half = np.flatnonzero(lo == 0)
    half = half[(hi[half] & _U64(0x1FF)) == 0]
    hi >>= msb + _U64(9)
    undecided[half] |= (hi[half] & _U64(3)) == _U64(1)
    hi += hi & _U64(1)
    hi >>= _U64(1)
    # hi's bit 52 adds one to the exponent; a carry out of the rounding
    # adds one more and leaves the fraction 0.
    exponent <<= _U64(52)
    exponent += hi
    return exponent.view(np.float64), undecided


def _parse_lines(data, stop: int, width: int) -> np.ndarray | None:
    """The rows of ``width`` cells in data[24:stop], whose last byte ends
    a line, bitwise as ``float(cell)`` reads each cell.  None where
    csv.reader would split the text into other rows, or float() rejects a
    cell (a quoted cell, too, since float() rejects every '"')."""
    *_, exact, byte_class, _, exp_mask = _reader_tables()
    text = np.frombuffer(data, np.uint8, count=stop)
    special = text - np.uint8(48)
    special = np.flatnonzero(np.greater(special, 9, out=special.view(bool)))
    cls = byte_class.take(text.take(special))
    # Indices into ``special``: each cell's separator, then its last byte
    # that is not a digit, if it has one.
    last = np.flatnonzero((cls - np.uint8(_SEP)) < np.uint8(2))
    ends = special.take(last)
    starts = np.empty_like(ends)
    starts[0] = len(_LEAD) - 1
    starts[1:] = ends[:-1]
    starts += 1
    inner = np.empty_like(last)  # how many of a cell's bytes are not digits
    inner[0] = last[0] + 1
    np.subtract(last[1:], last[:-1], out=inner[1:])
    inner -= 1
    eol = cls.take(last) == _EOL
    field = None  # where empty lines are dropped, each kept cell's place among all
    if not (ends - starts).all():
        # Empty lines are skipped; an empty field fails.
        empty = ends == starts
        blank = empty & eol
        blank[1:] &= eol[:-1]
        if (empty & ~blank).any():
            return None
        field = np.flatnonzero(~blank)
        ends, starts, inner, last, eol = (a.take(field) for a in (ends, starts, inner, last, eol))
    rows = np.count_nonzero(eol)
    if rows * width != ends.size or not eol[width - 1 :: width].all():
        return None
    last -= 1
    if data.find(b"+", len(_LEAD), stop) >= 0:
        # A "+" before a cell's digits, which float() skips.
        lead = text.take(starts) == ord("+")
        starts += lead
        inner -= lead

    m_end = ends  # where each mantissa ends
    qi = np.full(ends.size, -_Q_MIN)
    slow = np.zeros(ends.size, dtype=bool)
    if (cls == _EXP).any():
        sign = text.take(special.take(last))
        minus = sign == ord("-")
        signed = minus | (sign == ord("+"))
        e_at = last - signed
        has_exp = (cls.take(e_at) == _EXP) & (inner > signed)
        digits = ends - special.take(last)
        digits -= 1
        digits *= has_exp
        exp = _windows(data, ends, 1)[0]
        exp &= exp_mask.take(digits, mode="clip")
        exp = _swar8(exp).view(np.int64)
        qi += exp
        qi -= 2 * exp * minus
        slow = has_exp & ((digits - 1).view(np.uint64) > _U64(7))
        m_end = np.where(has_exp, special.take(e_at), ends)
        inner = inner - has_exp * (1 + signed)
        last = np.where(has_exp, e_at - 1, last)
    point = (inner == 1) & (cls.take(last) == _DOT)
    size = m_end - starts
    slow |= (inner != point) | (size > 24) | (size == point)
    values = np.empty(ends.size)
    if not slow.all():
        at = special.take(last) - m_end  # the point's place, from the end
        qi -= (-1 - at) * point
        words = -(-int(size.max(initial=1, where=~slow)) // 8)
        w, long, dropped, inexact = _mantissas(data, m_end, ((at + 25) * point) * 25 + size, words)
        qi[long] += dropped
        slow |= qi.view(np.uint64) > _U64(_Q_MAX - _Q_MIN)
        # Clinger's fast path: where w and 10**|q| are doubles, one
        # correctly rounded multiply or divide gives the nearest.
        q = qi + _Q_MIN
        scale = exact.take(np.abs(q), mode="clip")
        values = w.astype(np.float64)
        values = np.where(q < 0, values / scale, values * scale)
        small = (w == 0) | ((w <= _U64(2**53)) & (np.abs(q) <= 22))
        if not (small | slow).all():
            nearest, undecided = _nearest_doubles(w, qi)
            if inexact.size:
                # The cell lies between w * 10**q and (w + 1) * 10**q.
                up, up_undecided = _nearest_doubles(w[inexact] + _U64(1), qi[inexact])
                undecided[inexact] |= up_undecided | (up != nearest[inexact])
            values = np.where(small, values, nearest)
            slow |= undecided & ~small
    slow = np.flatnonzero(slow)
    if slow.size:
        numbers = slow if field is None else field.take(slow)
        try:
            block = data[len(_LEAD) : stop].decode("utf-8")
            cells = block.replace("\r", ",").replace("\n", ",").split(",")[:-1]
            if slow.size < len(cells):
                cells = map(cells.__getitem__, numbers.tolist())
            values[slow] = list(map(float, cells))
        except ValueError:
            return None
    return values.reshape(rows, width)


def _exact_reader_wins(sample: bytes) -> bool:
    """Whether text that begins with ``sample`` is for the exact reader
    rather than np.loadtxt: see ``_CELL_BYTES``."""
    cells = max(1, sample.count(b",") + sample.count(b"\n"))
    return not sample.translate(None, _GRAMMAR) and len(sample) // cells in _CELL_BYTES


def _loadtxt(fh, width: int) -> np.ndarray | None:
    """np.loadtxt's rows of the rest of binary file ``fh`` as UTF-8 text,
    or None where it rejects the text or finds other than ``width``
    columns."""
    text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty body warns
            values = np.loadtxt(text, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    finally:
        text.detach()
    return values if values.shape[1] == width else None


def read_rows(fh, width: int) -> np.ndarray | None:
    """The rows of ``width`` cells in the rest of binary file ``fh``, or
    None where the reader rejects them: see ``_parse_lines``.  The first 4
    KB chooses the exact reader or np.loadtxt (see ``_CELL_BYTES``).  The
    exact reader's rows go into one array sized from the bytes per row of
    the first block with rows, so that no block's rows outlive it."""
    sample = fh.read(4096)
    fh.seek(-len(sample), os.SEEK_CUR)
    if not _exact_reader_wins(sample):
        return _loadtxt(fh, width)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    values, filled = None, 0
    for data, stop in _line_blocks(fh):
        rows = _parse_lines(data, stop, width)
        if rows is None:
            return None
        if not len(rows):
            continue
        if values is None:
            guess = len(rows) * left // (stop - len(_LEAD))
            values = np.empty((max(guess, len(rows)), width))
        if filled + len(rows) > len(values):
            grown = np.empty((filled + len(rows) + len(values) // 4, width))
            grown[:filled] = values[:filled]
            values = grown
        values[filled : filled + len(rows)] = rows
        filled += len(rows)
    return None if values is None else values[:filled]
