"""Codec-agnostic benchmark harness for video coding for machines.

Rate accounting, machine-task metrics (mAP, MOTA), Pareto-front anchors,
Bjontegaard-delta comparisons, and a feature-map coding toolchain
(normalization, quantization, packing, channel reordering, lossless
entropy baseline), orchestrating external encoders through file-based
interfaces.
"""

__version__ = "0.1.0"

from .model import (  # noqa: E402,F401
    BoxTable,
    FeatureTensor,
    PackedFrameSet,
    QuantParams,
    RDCurve,
    RDPoint,
)
