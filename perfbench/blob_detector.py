#!/usr/bin/env python3
"""Blob detector: the anchor-truncate workload's prediction command.

Stands in for an external task network. Pixels of the YUV420 luma plane
above the threshold are grouped into 4-connected components; each
component of at least 4 pixels becomes one detection whose score scales
with its peak brightness. Stdlib only, to keep per-invocation startup
cheap. It belongs to the benchmark, so changing it changes the workload.
"""

import argparse
import json
from collections import deque


def label_components(mask, width, height):
    """4-connected components of a flat boolean mask; yields pixel lists."""
    seen = bytearray(len(mask))
    for start in range(len(mask)):
        if not mask[start] or seen[start]:
            continue
        component = []
        queue = deque([start])
        seen[start] = 1
        while queue:
            idx = queue.popleft()
            component.append(idx)
            x, y = idx % width, idx // width
            for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
                if 0 <= nx < width and 0 <= ny < height:
                    n = ny * width + nx
                    if mask[n] and not seen[n]:
                        seen[n] = 1
                        queue.append(n)
        yield component


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("input")
    parser.add_argument("output")
    parser.add_argument("--width", type=int, required=True)
    parser.add_argument("--height", type=int, required=True)
    parser.add_argument("--image-id", required=True)
    parser.add_argument("--threshold", type=int, default=128)
    args = parser.parse_args()

    with open(args.input, "rb") as fh:
        luma = fh.read(args.width * args.height)
    threshold = args.threshold
    mask = bytes(1 if b > threshold else 0 for b in luma)

    detections = []
    for component in label_components(mask, args.width, args.height):
        if len(component) < 4:
            continue
        xs = [i % args.width for i in component]
        ys = [i // args.width for i in component]
        peak = max(luma[i] for i in component)
        score = min(1.0, max(0.01, (peak - threshold) / 127.0))
        detections.append(
            {
                "image_id": args.image_id,
                "class_id": 0,
                "bbox": [
                    float(min(xs)),
                    float(min(ys)),
                    float(max(xs) + 1),
                    float(max(ys) + 1),
                ],
                "score": score,
            }
        )
    detections.sort(key=lambda d: -d["score"])
    with open(args.output, "w", encoding="utf-8") as fh:
        for det in detections:
            fh.write(json.dumps(det) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
