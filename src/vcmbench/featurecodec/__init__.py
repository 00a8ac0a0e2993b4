"""Feature-map coding toolchain: normalization, quantization, packing,
channel reordering, and the lossless entropy baseline."""

from .entropy import decode_bytes, encode_bytes
from .packing import (
    pack_multiscale,
    pack_spatial_tiled,
    pack_temporal,
    reorder_channels,
    unpack_frames,
)
from .quantize import (
    denormalize,
    dequantize_2bit,
    dequantize_8bit,
    normalize,
    quantize_2bit,
    quantize_8bit,
    raw_size_bits,
)
from .stream import entropy_decode, entropy_encode

__all__ = [
    "decode_bytes",
    "denormalize",
    "dequantize_2bit",
    "dequantize_8bit",
    "encode_bytes",
    "entropy_decode",
    "entropy_encode",
    "normalize",
    "pack_multiscale",
    "pack_spatial_tiled",
    "pack_temporal",
    "quantize_2bit",
    "quantize_8bit",
    "raw_size_bits",
    "reorder_channels",
    "unpack_frames",
]
