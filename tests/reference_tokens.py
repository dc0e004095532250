"""Per-band token decoder: the reference ``decode_bands`` must agree with.

This is the body ``tilecast.codestream.decode_bands`` had before it
checked every run against the band sizes and expanded them in one
``np.repeat``: each band is cut from the token stream with its own
``searchsorted`` and expanded on its own. On any input both return the
same bands or both raise ``CodestreamError``. It reads tokens with
``reference_varints``, a byte-at-a-time reader that refuses a token of
2**32 or more, as every token is below it.
``reference_decode_segments`` decodes a buffer of several segments one
segment at a time, as ``decode`` did before it handed a tile-component's
segments to one ``decode_bands`` call. ``reference_encode_band`` writes
one band coefficient by coefficient and byte by byte, the encoder
``encode_bands`` must agree with; ``reference_varint_bytes`` is its
byte-at-a-time varint writer.
"""

import numpy as np

from tilecast.codestream import CodestreamError


def reference_varints(buf):
    """Read ``buf`` one byte at a time into varint tokens."""
    values, value, shift = [], 0, 0
    for byte in bytes(buf):
        value |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            if value >= 1 << 32:
                raise CodestreamError("varint token of 2**32 or more")
            values.append(value)
            value, shift = 0, 0
        elif shift == 35:
            raise CodestreamError("overlong varint (more than 5 bytes)")
    if shift:
        raise CodestreamError("truncated varint at end of segment")
    return np.array(values, dtype=np.uint32)


def reference_varint_bytes(values):
    """Write each value as a base-128 varint, one byte at a time."""
    out = bytearray()
    for value in values:
        value = int(value)
        while value >= 0x80:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


def reference_encode_band(band):
    """One band's tokens: a zigzag literal, or a zero then the run's length; runs stop at its end."""
    tokens = []
    coeffs = [int(c) for c in np.ravel(band)]
    i = 0
    while i < len(coeffs):
        if coeffs[i]:
            tokens.append(2 * coeffs[i] if coeffs[i] > 0 else -2 * coeffs[i] - 1)
            i += 1
            continue
        end = i
        while end < len(coeffs) and coeffs[end] == 0:
            end += 1
        tokens += [0, end - i]
        i = end
    return reference_varint_bytes(tokens)


def reference_decode_bands(buf, counts):
    tokens = reference_varints(buf)
    n = tokens.size
    is_zero = tokens == 0
    preceded_by_zero = np.concatenate([[False], is_zero[:-1]])
    is_intro = is_zero & ~preceded_by_zero
    is_runlen = np.concatenate([[False], is_intro[:-1]])
    if np.any(is_zero & is_runlen):
        raise CodestreamError("zero-length zero run")
    if np.any(is_zero & ~is_intro):
        # a zero token right after a completed run's length
        raise CodestreamError("zero-length zero run")
    if n and is_intro[-1]:
        raise CodestreamError("dangling zero-run introducer")
    out_counts = np.where(is_runlen, 0, np.where(is_intro, 0, 1)).astype(np.int64)
    if is_intro.any():
        out_counts[is_intro] = tokens[np.flatnonzero(is_intro) + 1].astype(np.int64)
    literal = ~is_intro & ~is_runlen
    signed = tokens.astype(np.int64)
    values = np.where(signed % 2 == 0, signed // 2, -(signed + 1) // 2)
    values[~literal] = 0

    cumulative = np.cumsum(out_counts) if n else np.empty(0, dtype=np.int64)
    bands = []
    tok_pos = 0
    produced = 0
    for count in counts:
        if count == 0:
            bands.append(np.empty(0, dtype=np.int64))
            continue
        target = produced + count
        cut = int(np.searchsorted(cumulative, target, side="left"))
        if cut >= n or cumulative[cut] != target:
            raise CodestreamError("zero run crosses a band boundary or segment is short")
        if is_intro[cut]:
            cut += 1  # run length token belongs to this band
        piece_tokens = slice(tok_pos, cut + 1)
        coeffs = np.repeat(values[piece_tokens], out_counts[piece_tokens])
        bands.append(coeffs)
        tok_pos = cut + 1
        produced = target
    if tok_pos != n:
        raise CodestreamError("trailing tokens after final band")
    return bands


def reference_decode_segments(buf, counts, segments):
    """Decode each (byte length, band count) segment of ``buf`` on its own."""
    bands, pos, first = [], 0, 0
    for length, band_count in segments:
        bands += reference_decode_bands(buf[pos : pos + length], counts[first : first + band_count])
        pos, first = pos + length, first + band_count
    return bands
