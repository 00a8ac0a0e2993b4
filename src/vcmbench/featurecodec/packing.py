"""Packing of quantized feature maps into codable 8-bit frames.

Three layouts, each an exact bijection on the occupied samples:

  SPATIAL_TILED   64 channels interleave into 8x8 tiles: channel c of
                  sample (x, y) lands at frame row 8y + c//8, column
                  8x + c%8, producing one 8h x 8w frame.
  MULTISCALE      each pyramid level is tiled as above; the finest level
                  occupies the left 8h x 8w block and the coarser levels
                  stack top-to-bottom in a 4w-wide right column,
                  zero-filled, producing one 8h x 12w frame.
  TEMPORAL        one frame per channel, in channel order or a supplied
                  permutation.

Channel reordering follows a greedy chain that appends the unvisited
channel with the smallest mean squared difference to the last one,
which groups similar maps next to each other for inter coding.
"""

from __future__ import annotations

import numpy as np

from ..errors import InputError
from ..model import (
    LAYOUT_MULTISCALE,
    LAYOUT_SPATIAL_TILED,
    LAYOUT_TEMPORAL,
    PackedFrameSet,
    QuantParams,
    as_samples,
    check_permutation,
    frame_shapes,
)


def _tile64(s: np.ndarray) -> np.ndarray:
    """64 x h x w samples -> one 8h x 8w frame."""
    _, h, w = s.shape
    return s.reshape(8, 8, h, w).transpose(2, 0, 3, 1).reshape(8 * h, 8 * w)


def _untile64(frame: np.ndarray, h: int, w: int) -> np.ndarray:
    return frame.reshape(h, 8, w, 8).transpose(1, 3, 0, 2).reshape(64, h, w)


def _permuted(s: np.ndarray, permutation):
    """The checked permutation (or None) and s's channels in its order."""
    if permutation is None:
        return None, s
    perm = check_permutation(permutation, s.shape[0])
    return perm, s[list(perm)]


def _blocks(layout: str, h: int, w: int) -> list[tuple[int, int, slice, slice]]:
    """(h, w, rows, columns) of each tiled level in a frame, finest first.

    SPATIAL_TILED has one 8h x 8w block. MULTISCALE adds the four coarser
    levels, each the floor-half of the one before, stacked top-to-bottom
    in the column right of the finest block.
    """
    blocks = [(h, w, slice(0, 8 * h), slice(0, 8 * w))]
    if layout == LAYOUT_MULTISCALE:
        row, hk, wk = 0, h, w
        for _ in range(4):
            hk, wk = hk // 2, wk // 2
            blocks.append((hk, wk, slice(row, row + 8 * hk), slice(8 * w, 8 * w + 8 * wk)))
            row += 8 * hk
    return blocks


def pack_spatial_tiled(
    samples, permutation=None, quant: QuantParams | None = None
) -> PackedFrameSet:
    """Interleave 64 channels into 8x8 tiles forming one 8h x 8w frame."""
    s = as_samples(samples)
    frame_shapes(LAYOUT_SPATIAL_TILED, s.shape)
    perm, ordered = _permuted(s, permutation)
    return PackedFrameSet(
        frames=(_tile64(ordered),), layout=LAYOUT_SPATIAL_TILED,
        original_dims=s.shape, channel_permutation=perm, quant=quant,
    )


def pack_multiscale(samples_per_level, quant: QuantParams | None = None) -> PackedFrameSet:
    """Pack the five tiled levels of a P2..P6 pyramid into one zero-filled frame.

    `samples_per_level` holds the quantized (64, h, w) sample arrays in
    P2..P6 order; each level's (h, w) is the floor-half of the previous
    level's, and no level may fall below 1 px. The finest block sits at
    the left (width 8*w2); the right column of width 4*w2 stacks the
    coarser blocks top-to-bottom.
    """
    arrays = [as_samples(s) for s in samples_per_level]
    if len(arrays) != 5:
        raise InputError(f"expected 5 levels (P2..P6), got {len(arrays)}")
    frame = np.zeros(frame_shapes(LAYOUT_MULTISCALE, arrays[0].shape)[0], dtype=np.uint8)
    blocks = _blocks(LAYOUT_MULTISCALE, *arrays[0].shape[1:])
    for k, (arr, (h, w, rows, cols)) in enumerate(zip(arrays, blocks)):
        if arr.shape != (64, h, w):
            raise InputError(f"P{k + 2} shape {arr.shape} != expected (64, {h}, {w})")
        frame[rows, cols] = _tile64(arr)
    return PackedFrameSet(
        frames=(frame,), layout=LAYOUT_MULTISCALE,
        original_dims=arrays[0].shape, quant=quant,
    )


def pack_temporal(samples, permutation=None, quant: QuantParams | None = None) -> PackedFrameSet:
    """One frame per channel; frame order follows the permutation if given."""
    s = as_samples(samples)
    frame_shapes(LAYOUT_TEMPORAL, s.shape)
    perm, ordered = _permuted(s, permutation)
    return PackedFrameSet(
        frames=tuple(ordered), layout=LAYOUT_TEMPORAL,
        original_dims=s.shape, channel_permutation=perm, quant=quant,
    )


def frame_set(
    raw: bytes, layout: str, dims, permutation=None, quant: QuantParams | None = None,
    origin: str = "<bytes>",
) -> PackedFrameSet:
    """The frame set whose concatenated row-major 8-bit frames are raw.

    Raises InputError naming origin unless raw holds exactly the frames
    frame_shapes(layout, dims) gives; PackedFrameSet checks the rest.
    """
    shapes = frame_shapes(layout, dims)
    (fh, fw), n = shapes[0], len(shapes)  # every layout's frames share one shape
    if len(raw) != n * fh * fw:
        raise InputError(
            f"{origin}: {len(raw)} bytes do not match {n} frame(s) of "
            f"{n * fh * fw} samples in total"
        )
    return PackedFrameSet(
        frames=tuple(np.frombuffer(raw, dtype=np.uint8).reshape(n, fh, fw)),
        layout=layout, original_dims=dims, channel_permutation=permutation, quant=quant,
    )


def unpack_frames(fs: PackedFrameSet) -> np.ndarray | list[np.ndarray]:
    """Invert any packing layout back to the original sample array(s).

    SPATIAL_TILED and TEMPORAL return one (C, h, w) array; MULTISCALE
    returns the five per-level arrays in P2..P6 order. A recorded
    channel permutation (applied to channels before packing) is inverted
    here, so unpack(pack(x)) is exactly x.
    """
    _, h, w = fs.original_dims
    if fs.layout == LAYOUT_TEMPORAL:
        out = [np.stack(fs.frames)]
    else:
        out = [
            _untile64(fs.frames[0][rows, cols], hk, wk)
            for hk, wk, rows, cols in _blocks(fs.layout, h, w)
        ]
    if fs.channel_permutation is not None:
        unperm = np.argsort(fs.channel_permutation)
        out = [lvl[unperm] for lvl in out]
    return out if fs.layout == LAYOUT_MULTISCALE else out[0]


def reorder_channels(data) -> tuple[tuple[int, ...], np.ndarray]:
    """Greedy similarity chain over channels.

    Starts at channel 0 and repeatedly appends the unvisited channel with
    the smallest squared difference to the last appended one (ties break
    toward the lower channel index). Returns the permutation and the
    reordered (C, h, w) array; index with np.argsort(perm) to undo.

    All pairwise distances come from one Gram matrix, |a|^2 + |b|^2 -
    2 a.b, in float64. For integer samples (the quantizer's output) every
    term is an integer below 2^53, so the distances and hence the chain
    are exact; for real-valued input, near-ties may resolve differently
    from a per-pair difference.
    """
    arr = np.asarray(data)
    if arr.ndim != 3:
        raise InputError(f"expected (C,h,w) data, got shape {arr.shape}")
    c = arr.shape[0]
    flat = arr.reshape(c, -1).astype(np.float64)
    sq = np.einsum("ij,ij->i", flat, flat)
    dist = sq[:, None] + sq[None, :] - 2.0 * (flat @ flat.T)
    visited = np.zeros(c, dtype=bool)
    order = [0]
    for _ in range(c - 1):
        visited[order[-1]] = True
        # argmin returns the first minimum: ties go to the lower index
        order.append(int(np.argmin(np.where(visited, np.inf, dist[order[-1]]))))
    perm = tuple(order)
    return perm, arr[list(perm)]
