"""Lossless byte coding with LZMA2 from the standard library.

The payload is a raw LZMA2 stream (no container, no header). Literals are
coded with lc=0, lp=0, pb=0, i.e. an adaptive order-0 model over the
byte alphabet, which is the closest fit to the paper's order-0 adaptive
baseline; LZ matches come on top. Preset 6 is the normal mode: faster
presets code the skewed feature streams several percent larger.

The decoder's dictionary size is a function of the symbol count n alone
-- the smallest power of two >= n, clamped to [4 KiB, 1 MiB] (the
n-rule) -- so nothing but the LZMA2 chunks is stored. The encoder codes
with the n-rule of min(n, window), a window of 1 MiB by default, which
is never more than the n-rule of n: a dictionary at least as large as
the encoder's decodes its stream, so a payload coded with any window
decodes. A smaller window shrinks the match finder's state (about 10 MB
at a 1 MiB dictionary, 0.3 MB at 4 KiB) and with it the encoder's cache
misses, at a price: a byte run repeated farther back than the window is
coded again, not matched (one random 200,000-byte block written twice
codes to 400,022 B at 4 KiB, 200,359 B at 1 MiB). A constant run
matches at distance 1 and codes the same under any window.
Incompressible input falls back to LZMA2's stored chunks at 3 header
bytes per chunk of at most 64 KiB (1 MiB of uniform random bytes codes
to its size plus 55 bytes).

Payload bytes are a function of the input and of the local liblzma
encoder: two machines with different liblzma builds may code the same
bytes differently (any payload still decodes everywhere). Reports and
streams are therefore byte-identical across runs on one machine.
"""

from __future__ import annotations

import lzma

from ..errors import CorruptStream


def _dict_size(n: int) -> int:
    return min(max(1 << max(n - 1, 0).bit_length(), 1 << 12), 1 << 20)


def _filters(dict_size: int) -> list[dict]:
    return [
        {"id": lzma.FILTER_LZMA2, "preset": 6, "lc": 0, "lp": 0, "pb": 0,
         "dict_size": dict_size}
    ]


def encode_bytes(data: bytes, window: int = 1 << 20) -> bytes:
    """Compress a byte string, matching at most window bytes back.

    The window is rounded up to a power of two of at least 4 KiB;
    decode_bytes(payload, len(data)) inverts the payload for every window.
    """
    dict_size = _dict_size(min(len(data), window))
    return lzma.compress(data, format=lzma.FORMAT_RAW, filters=_filters(dict_size))


def decode_bytes(payload: bytes, n_symbols: int) -> bytes:
    """Decompress exactly n_symbols bytes; CorruptStream on any mismatch."""
    dec = lzma.LZMADecompressor(format=lzma.FORMAT_RAW, filters=_filters(_dict_size(n_symbols)))
    try:
        out = dec.decompress(payload, max_length=n_symbols)
        # drive the decoder past the end marker; any further byte is surplus
        extra = b"" if dec.eof else dec.decompress(b"", max_length=1)
    except lzma.LZMAError as e:
        raise CorruptStream(f"payload does not decode: {e}") from e
    if len(out) != n_symbols or extra:
        raise CorruptStream(f"payload decodes to a length other than {n_symbols}")
    if not dec.eof:
        raise CorruptStream("payload ends before its end marker")
    if dec.unused_data:
        raise CorruptStream(f"{len(dec.unused_data)} bytes follow the end marker")
    return out
