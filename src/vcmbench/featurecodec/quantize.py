"""Feature normalization and uniform quantization.

Each channel is standardized with its own mean and population standard
deviation, z = (x - mean) / std; the normalized tensor is then either
mapped to 8-bit codes

    code = round(255 * (z - z_min) / (z_max - z_min))

with half-away-from-zero rounding, or to 2-bit codes via the threshold
z_th (0: z < -z_th, 1: -z_th <= z < 0, 2: 0 <= z < z_th, 3: z >= z_th).
Reconstruction uses interval midpoints for 8-bit codes and the level
centers {+-z_th/2, +-3*z_th/2} for 2-bit codes.

Normalization stats are stored at float32 precision: that is the
precision of the coded-stream container, and rounding at the source
keeps container roundtrips bit-exact.

Reconstruction works on each sample alone: dequantize and denormalize
apply IEEE +, -, * and / to it and to per-channel or global scalars, and
each operation is correctly rounded. A sample's float64 value therefore
depends only on its code and its channel, and running both on a table of
a channel's codes (256 at 8 bits, 4 at 2) gives, bit for bit, the value
of every sample of that code. The CLI rebuilds a tensor by gathering
from such a table.
"""

from __future__ import annotations

import numpy as np

from ..errors import InputError
from ..model import FeatureTensor, QuantParams, check_z_th


def normalize(
    t: FeatureTensor, z_th: float = 1.5, bit_depth: int = 8
) -> tuple[FeatureTensor, QuantParams]:
    """Standardize each channel; returns the z tensor and its stats.

    Channels with zero variance map to z = 0 and record std = 0, which
    denormalize inverts back to the channel mean exactly. z_min/z_max
    are global over the tensor.
    """
    x = t.values.astype(np.float64)
    mean = np.float32(x.mean(axis=(1, 2)))
    std = np.float32(x.std(axis=(1, 2)))
    safe = np.where(std > 0, std, 1.0).astype(np.float64)
    z = (x - mean.astype(np.float64)[:, None, None]) / safe[:, None, None]
    z[std == 0] = 0.0
    z32 = z.astype(np.float32)
    params = QuantParams(
        mean=mean, std=std, z_min=float(z32.min()), z_max=float(z32.max()),
        z_th=z_th, bit_depth=bit_depth,
    )
    return FeatureTensor(z32), params


def quantize_8bit(z: FeatureTensor, params: QuantParams) -> np.ndarray:
    """Map normalized values to uint8 codes in [0, 255]."""
    if not params.z_max > params.z_min:
        raise InputError(
            f"z_max must exceed z_min (got [{params.z_min}, {params.z_max}]); "
            "a degenerate range would map every sample to 0"
        )
    lo, hi = np.float64(params.z_min), np.float64(params.z_max)
    scaled = 255.0 * (np.clip(z.values.astype(np.float64), lo, hi) - lo) / (hi - lo)
    # scaled >= 0, so floor(x + 0.5) is round-half-away-from-zero
    codes = np.floor(scaled + 0.5)
    return np.clip(codes, 0, 255).astype(np.uint8)


def dequantize_8bit(samples: np.ndarray, params: QuantParams) -> FeatureTensor:
    """Inverse of quantize_8bit up to half a quantization step."""
    if not params.z_max > params.z_min:
        raise InputError(f"invalid range [{params.z_min}, {params.z_max}]")
    s = np.asarray(samples)
    if s.ndim != 3:
        raise InputError(f"samples must be 3-D (C,h,w), got shape {s.shape}")
    if s.dtype != np.uint8 and (s.min() < 0 or s.max() > 255):
        raise InputError("8-bit samples must be in [0, 255]")
    lo, hi = np.float64(params.z_min), np.float64(params.z_max)
    z = lo + s.astype(np.float64) * (hi - lo) / 255.0
    return FeatureTensor(z, dtype=np.float64)


def quantize_2bit(z: FeatureTensor, z_th: float) -> np.ndarray:
    """Map normalized values to the 4-level alphabet {0, 1, 2, 3}."""
    check_z_th(z_th)
    v = z.values
    # the code is the number of level bounds at or below v; z == z_th joins the top level
    codes = (v >= -z_th).astype(np.uint8)
    codes += v >= 0
    codes += v >= z_th
    return codes


def dequantize_2bit(samples: np.ndarray, params: QuantParams) -> FeatureTensor:
    """Reconstruct 2-bit codes at the four level centers."""
    s = np.asarray(samples)
    if s.size and s.max() > 3:
        raise InputError("2-bit samples must be in {0, 1, 2, 3}")
    th = params.z_th
    levels = np.array(
        [-1.5 * th, -0.5 * th, 0.5 * th, 1.5 * th], dtype=np.float64
    )
    return FeatureTensor(levels[s.astype(np.intp)], dtype=np.float64)


def denormalize(z: FeatureTensor, params: QuantParams) -> FeatureTensor:
    """Invert normalize: x = z * std + mean per channel."""
    if params.channels != z.channels:
        raise InputError(f"params cover {params.channels} channels, tensor has {z.channels}")
    std = params.std.astype(np.float64)[:, None, None]
    mean = params.mean.astype(np.float64)[:, None, None]
    x = z.values.astype(np.float64) * std + mean
    return FeatureTensor(x, dtype=z.values.dtype.type)


def raw_size_bits(dims: tuple[int, int, int], bit_depth: int) -> int:
    """Uncompressed size of a C x h x w tensor at the given bit depth."""
    if bit_depth not in (2, 8, 32):
        raise InputError(f"bit_depth must be one of 2, 8, 32: {bit_depth}")
    c, h, w = dims
    if min(c, h, w) < 1:
        raise InputError(f"dims must be >= 1: {dims}")
    return c * h * w * bit_depth
