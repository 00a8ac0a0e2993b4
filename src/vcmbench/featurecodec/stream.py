"""Coded-feature-stream container ("VCMS").

A stream is its bytes: entropy_encode(fs) returns them, and
entropy_decode(raw, origin) reads them back into the frame set, every
error naming origin (a header value the model types refuse included).
Little-endian layout:

    magic "VCMS" | version u32 | layout u8 | bit_depth u8 | C,h,w u32
    | mean f32*C | std f32*C | z_min,z_max,z_th f32
    | perm_flag u8 [| permutation u16*C]
    | payload_bits u64 | crc32 u32 | payload bytes

The coded bytes are the frame samples in frame order, row-major. At
bit_depth 8 each sample is one byte. At bit_depth 2 the samples are
packed four per byte: sample i sits in bits 2*(i % 4) of byte i // 4,
and the unused bits of the last byte are zero. The payload is those
coded bytes as one raw LZMA2 stream by entropy.encode_bytes, whose
window the frame geometry sets: twice the coded bytes from a sample back
to its farthest neighbour in the tensor, so the two nearest neighbours
in that direction stay reachable. In TEMPORAL that neighbour is the same
position in the previous frame (the previous channel, which --reorder
picks as the most similar one); in the tiled layouts it is the same
channel one position up, eight frame rows back. A window this small
keeps the encoder's match finder in cache. The price is that a run of
samples repeated farther back is coded again, not matched: features
whose channels come in groups of similar maps code several percent
larger than with a 1 MiB window. The decoder rebuilds the coder settings
from the coded length the header implies, with a dictionary at least
as large as any encoder's window (entropy's n-rule), so every v3
payload decodes, whatever window its encoder used (earlier encoders
used up to 1 MiB).
The decoder rejects a payload whose length disagrees with payload_bits,
coded bytes that fail crc32 (which covers the padding bits too), and a
2-bit stream whose padding bits are not zero, each with CorruptStream.

Version 3 packs 2-bit samples; its 8-bit payloads are those of version
2. Streams of versions 1 (the earlier adaptive range coder) and 2 (one
byte per 2-bit sample) are rejected as unsupported: re-encode them from
their tensors. Payload bytes depend on the local liblzma encoder, so
the same tensor may code to other (equally decodable) bytes on another
machine.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..errors import CorruptStream, InputError
from ..model import (
    LAYOUT_MULTISCALE,
    LAYOUT_SPATIAL_TILED,
    LAYOUT_TEMPORAL,
    PackedFrameSet,
    QuantParams,
    check_header_dims,
    frame_shapes,
)
from ..tensorio import MALFORMED_OR_INVALID, parsing
from .entropy import decode_bytes, encode_bytes
from .packing import frame_set

STREAM_MAGIC = b"VCMS"
STREAM_VERSION = 3
_LAYOUT_TAGS = {LAYOUT_SPATIAL_TILED: 0, LAYOUT_MULTISCALE: 1, LAYOUT_TEMPORAL: 2}
_TAG_LAYOUTS = {v: k for k, v in _LAYOUT_TAGS.items()}
_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)


def _pack_2bit(samples: np.ndarray) -> bytes:
    """Samples in 0..3, four per byte: sample i in bits 2*(i % 4), zero-padded."""
    padded = np.zeros(-(-samples.size // 4) * 4, dtype=np.uint8)
    padded[: samples.size] = samples
    quads = padded.reshape(-1, 4)
    return (quads[:, 0] | quads[:, 1] << 2 | quads[:, 2] << 4 | quads[:, 3] << 6).tobytes()


def _unpack_2bit(coded: bytes, n: int) -> bytes:
    """Invert _pack_2bit for n samples; CorruptStream on non-zero padding."""
    quads = np.frombuffer(coded, dtype=np.uint8)[:, None] >> _SHIFTS & 3
    samples = quads.ravel()
    if samples[n:].any():
        raise CorruptStream("non-zero padding bits after the last 2-bit sample")
    return samples[:n].tobytes()


def entropy_encode(fs: PackedFrameSet) -> bytes:
    """The self-describing VCMS stream of a frame set."""
    q = fs.quant
    if q is None:
        raise InputError("frame set carries no quant params; the stream needs them")
    samples = np.concatenate([f.ravel() for f in fs.frames])
    if q.bit_depth == 2:
        if samples.max() > 3:
            raise InputError("a 2-bit frame set holds a sample above 3")
        coded = _pack_2bit(samples)
    else:
        coded = samples.tobytes()
    fh, fw = fs.frames[0].shape
    reach = fh * fw if fs.layout == LAYOUT_TEMPORAL else 8 * fw  # samples, see the docstring
    payload = encode_bytes(coded, 2 * -(-reach * q.bit_depth // 8))
    c, h, w = fs.original_dims
    return b"".join([
        STREAM_MAGIC,
        struct.pack("<IBB3I", STREAM_VERSION, _LAYOUT_TAGS[fs.layout], q.bit_depth, c, h, w),
        np.asarray(q.mean, dtype="<f4").tobytes(),
        np.asarray(q.std, dtype="<f4").tobytes(),
        struct.pack("<3fB", q.z_min, q.z_max, q.z_th, fs.channel_permutation is not None),
        b"" if fs.channel_permutation is None else struct.pack(f"<{c}H", *fs.channel_permutation),
        struct.pack("<QI", 8 * len(payload), zlib.crc32(coded)),
        payload,
    ])


def entropy_decode(raw: bytes, origin: str = "<bytes>") -> PackedFrameSet:
    """The exact frame set a VCMS stream was built from; every error names origin."""
    if raw[:4] != STREAM_MAGIC:
        raise InputError(f"{origin}: not a coded-feature stream (bad magic)")
    off = 4

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if len(raw) < off + size:
            raise InputError(f"{origin}: truncated at offset {off}")
        vals = struct.unpack_from(fmt, raw, off)
        off += size
        return vals

    version, tag, bit_depth, c, h, w = take("<IBB3I")
    if version != STREAM_VERSION:
        raise InputError(f"{origin}: unsupported version {version}")
    if tag not in _TAG_LAYOUTS:
        raise InputError(f"{origin}: unknown layout tag {tag}")
    layout = _TAG_LAYOUTS[tag]
    check_header_dims(c, h, w, origin)
    mean = take(f"<{c}f")
    std = take(f"<{c}f")
    *z_range, perm_flag = take("<3fB")
    perm = take(f"<{c}H") if perm_flag else None
    payload_bits, crc = take("<QI")
    payload = raw[off:]
    if payload_bits != 8 * len(payload):
        raise CorruptStream(
            f"{origin}: payload holds {8 * len(payload)} bits, header claims {payload_bits}"
        )
    # a header value the model types refuse names the stream, as a malformed one does
    with parsing(origin, errors=MALFORMED_OR_INVALID):
        quant = QuantParams(mean, std, *z_range, bit_depth)  # z_min, z_max, z_th
        n = sum(fh * fw for fh, fw in frame_shapes(layout, (c, h, w)))
        two_bit = bit_depth == 2
        try:
            coded = decode_bytes(payload, -(-n // 4) if two_bit else n)
            if zlib.crc32(coded) != crc:
                raise CorruptStream("decoded samples fail the checksum")
            samples = _unpack_2bit(coded, n) if two_bit else coded
        except CorruptStream as e:
            raise CorruptStream(f"{origin}: {e}") from e
        return frame_set(samples, layout, (c, h, w), perm, quant, origin)
