"""Spans at vcmbench's module boundaries, for the traced run.

The tracer replaces module-level names at their point of use with timing
wrappers. Callers bind these names at import time (`from .yuv import
resize`), so wrapping the defining module would miss them; the table below
names the module that calls each one. A name that no longer exists is
reported as missing, and every metric that needs it is left out rather
than read as zero time.

Each span records its name, start, end, thread, parent span and a few
attributes taken from the call's arguments and result (the job id of a
pipeline job, the bytes an entropy call took in and gave out). A span
opened on a worker thread with nothing open there gets, as its parent, the
innermost span open on the thread that created the tracer: the
`experiment.run` span whose pool started the worker. Spans stay in memory
until the run ends. A span's self time is its duration minus the part of
it that its child spans cover; layer times are sums of self time, i.e.
thread time summed across worker threads.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


def _job(args, kwargs, result) -> dict:
    item, qp, scale = args[1], args[2], args[3]
    return {"item": item.item_id, "qp": qp, "scale": scale}


def _jobs(args, kwargs, result) -> dict:
    return {"jobs": kwargs.get("jobs", args[2] if len(args) > 2 else 1)}


def _frame_key(args, kwargs, result) -> dict:
    # an (item, scale, frame) is known by its content and the target scale
    return {"key": [hashlib.blake2b(args[0].y.data, digest_size=16).hexdigest(), args[1]]}


def _parsed(args, kwargs, result) -> dict:
    return {"path": str(args[0]), "records": len(result)}


def _bytes(args, kwargs, result) -> dict:
    return {"bytes_in": len(args[0]), "bytes_out": len(result)}


EXPERIMENT = "vcmbench.pipeline.experiment"
CLI = "vcmbench.cli"

# (module that calls the name, name, span name, attributes from the call)
BOUNDARIES = [
    (CLI, "run_experiment", "experiment.run", _jobs),
    (EXPERIMENT, "_process_item", "experiment.job", _job),
    (EXPERIMENT, "read_yuv420", "yuv.read", None),
    (EXPERIMENT, "scale_image", "yuv.scale", _frame_key),
    (EXPERIMENT, "resize", "yuv.resize", None),
    (EXPERIMENT, "write_yuv420", "yuv.write", None),
    (EXPERIMENT, "run_codec", "codec.run_codec", None),
    (EXPERIMENT, "run_command", "predict.run_command", None),
    (EXPERIMENT, "load_detections", "tensorio.parse", _parsed),
    (EXPERIMENT, "load_ground_truth", "tensorio.parse", _parsed),
    (EXPERIMENT, "load_tracks", "tensorio.parse", _parsed),
    (EXPERIMENT, "mean_average_precision", "metrics.map", None),
    (EXPERIMENT, "mota", "metrics.mota", None),
    (EXPERIMENT, "pareto_front", "rdcurves.pareto", None),
    ("vcmbench.pipeline.codec", "encode_bytes", "entropy.encode", _bytes),
    ("vcmbench.featurecodec.stream", "encode_bytes", "entropy.encode", _bytes),
    ("vcmbench.featurecodec.stream", "decode_bytes", "entropy.decode", _bytes),
    (CLI, "normalize", "quantize.forward", None),
    (CLI, "quantize_8bit", "quantize.forward", None),
    (CLI, "quantize_2bit", "quantize.forward", None),
    (CLI, "dequantize_8bit", "quantize.inverse", None),
    (CLI, "dequantize_2bit", "quantize.inverse", None),
    (CLI, "denormalize", "quantize.inverse", None),
    (CLI, "reorder_channels", "packing.reorder", None),
    (CLI, "pack_spatial_tiled", "packing.pack", None),
    (CLI, "pack_temporal", "packing.pack", None),
    (CLI, "unpack_frames", "packing.pack", None),
    (CLI, "build_report", "report.build", None),
    (CLI, "write_report_files", "report.write", None),
]

# per-layer metric -> (unit, span names it is computed from)
METRICS = {
    "experiment.run_s": ("s", ["experiment.run"]),
    "experiment.evaluate_s": ("s", ["experiment.run", "experiment.job"]),
    "experiment.worker_busy_ratio": ("ratio", ["experiment.run", "experiment.job"]),
    "yuv.read_s": ("s", ["yuv.read"]),
    "yuv.scale_s": ("s", ["yuv.scale"]),
    "yuv.resize_s": ("s", ["yuv.resize"]),
    "yuv.write_s": ("s", ["yuv.write"]),
    "yuv.frames_scaled": ("count", ["yuv.scale"]),
    "yuv.scale_useful_ratio": ("ratio", ["yuv.scale"]),
    "codec.run_codec_s": ("s", ["codec.run_codec"]),
    "codec.calls": ("count", ["codec.run_codec"]),
    "predict.run_command_s": ("s", ["predict.run_command"]),
    "predict.calls": ("count", ["predict.run_command"]),
    "predict.failed": ("count", ["predict.run_command"]),
    "entropy.encode_s": ("s", ["entropy.encode"]),
    "entropy.encode_mb_per_s": ("MB/s", ["entropy.encode"]),
    "entropy.decode_s": ("s", ["entropy.decode"]),
    "entropy.decode_mb_per_s": ("MB/s", ["entropy.decode"]),
    "entropy.bytes_in": ("bytes", ["entropy.encode"]),
    "entropy.bytes_out": ("bytes", ["entropy.encode"]),
    "quantize.forward_s": ("s", ["quantize.forward"]),
    "quantize.inverse_s": ("s", ["quantize.inverse"]),
    "packing.reorder_s": ("s", ["packing.reorder"]),
    "packing.pack_s": ("s", ["packing.pack"]),
    "tensorio.parse_s": ("s", ["tensorio.parse"]),
    "tensorio.records": ("count", ["tensorio.parse"]),
    "tensorio.gt_parse_ratio": ("ratio", ["tensorio.parse"]),
    "metrics.map_s": ("s", ["metrics.map"]),
    "metrics.mota_s": ("s", ["metrics.mota"]),
    "metrics.calls": ("count", ["metrics.map", "metrics.mota"]),
    "report.build_s": ("s", ["report.build"]),
    "report.write_s": ("s", ["report.write"]),
    "trace.overhead_s": ("s", []),
}


@dataclass(eq=False)
class Span:
    name: str
    start: float
    thread: int
    parent: Span | None
    end: float = 0.0
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _run_of(span: Span | None) -> Span | None:
    """The `experiment.run` span a span belongs to, if any."""
    while span is not None and span.name != "experiment.run":
        span = span.parent
    return span


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._installer = threading.current_thread()
        self._installer_stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._installer:
            return self._installer_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def traced(self, fn, name: str, info=None):
        """fn wrapped in a span; info(args, kwargs, result) adds attributes after the call."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._installer_stack[-1] if self._installer_stack else None
            span = Span(name, time.perf_counter(), threading.get_ident(), parent)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if info is not None:
                try:
                    span.attrs = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as e:
                    # the call's signature changed; the metrics that need it read 0
                    span.attrs = {"info_error": repr(e)}
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, info in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self.traced(fn, name, info))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _self_times(self) -> dict[Span, float]:
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        return {
            s: s.duration
            - _covered((max(c.start, s.start), min(c.end, s.end)) for c in children[s])
            for s in self.spans
        }

    def layer_metrics(self, ground_truth) -> dict[str, float]:
        """Every per-layer metric whose spans could all be installed."""
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
        own = self._self_times()

        def self_s(name):
            return sum(own[s] for s in by_name[name])

        def attr_sum(name, key):
            return sum(s.attrs.get(key, 0) for s in by_name[name])

        def ratio(num, den):
            return num / den if den else 0.0

        runs, jobs = by_name["experiment.run"], by_name["experiment.job"]
        evaluate = busy = phase = 0.0
        for run in runs:
            mine = [j for j in jobs if j.parent is run]
            if not mine:
                continue
            evaluate += run.end - max(j.end for j in mine)
            if run.attrs.get("jobs", 1) > 1:
                busy += sum(j.duration for j in mine)
                span = max(j.end for j in mine) - min(j.start for j in mine)
                phase += run.attrs["jobs"] * span
        scaled = by_name["yuv.scale"]
        parses = [s for s in by_name["tensorio.parse"] if s.attrs.get("path") in ground_truth]
        # useful work is counted once per `run`: repeating the whole run is not waste
        distinct_frames = {
            (id(_run_of(s)), tuple(s.attrs["key"])) for s in scaled if "key" in s.attrs
        }
        distinct_gt = {(id(_run_of(s)), s.attrs["path"]) for s in parses}
        values = {
            "experiment.run_s": sum(s.duration for s in runs),
            "experiment.evaluate_s": evaluate,
            "experiment.worker_busy_ratio": ratio(busy, phase),
            "yuv.read_s": self_s("yuv.read"),
            "yuv.scale_s": self_s("yuv.scale"),
            "yuv.resize_s": self_s("yuv.resize"),
            "yuv.write_s": self_s("yuv.write"),
            "yuv.frames_scaled": len(scaled),
            "yuv.scale_useful_ratio": ratio(len(distinct_frames), len(scaled)),
            "codec.run_codec_s": self_s("codec.run_codec"),
            "codec.calls": len(by_name["codec.run_codec"]),
            "predict.run_command_s": self_s("predict.run_command"),
            "predict.calls": len(by_name["predict.run_command"]),
            "predict.failed": sum(s.failed for s in by_name["predict.run_command"]),
            "entropy.encode_s": self_s("entropy.encode"),
            "entropy.encode_mb_per_s": ratio(
                attr_sum("entropy.encode", "bytes_in") / 1e6, self_s("entropy.encode")
            ),
            "entropy.decode_s": self_s("entropy.decode"),
            "entropy.decode_mb_per_s": ratio(
                attr_sum("entropy.decode", "bytes_out") / 1e6, self_s("entropy.decode")
            ),
            "entropy.bytes_in": attr_sum("entropy.encode", "bytes_in"),
            "entropy.bytes_out": attr_sum("entropy.encode", "bytes_out"),
            "quantize.forward_s": self_s("quantize.forward"),
            "quantize.inverse_s": self_s("quantize.inverse"),
            "packing.reorder_s": self_s("packing.reorder"),
            "packing.pack_s": self_s("packing.pack"),
            "tensorio.parse_s": self_s("tensorio.parse"),
            "tensorio.records": attr_sum("tensorio.parse", "records"),
            "tensorio.gt_parse_ratio": ratio(len(distinct_gt), len(parses)),
            "metrics.map_s": self_s("metrics.map"),
            "metrics.mota_s": self_s("metrics.mota"),
            "metrics.calls": len(by_name["metrics.map"]) + len(by_name["metrics.mota"]),
            "report.build_s": self_s("report.build"),
            "report.write_s": self_s("report.write"),
        }
        names = {f"{m}.{a}": n for m, a, n, _ in BOUNDARIES}
        absent = {names[m] for m in self.missing}
        return {k: v for k, v in values.items() if not absent & set(METRICS[k][1])}

    def shares(self) -> dict[str, float]:
        """Each layer's share of all traced thread time (self time, summed)."""
        own = self._self_times()
        total = sum(own.values())
        layers = defaultdict(float)
        for s, t in own.items():
            layers[s.name.split(".")[0]] += t
        return {k: v / total for k, v in sorted(layers.items())} if total else {}

    def write_spans(self, path: Path) -> None:
        index = {s: i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end, "thread": s.thread,
                    "parent": index.get(s.parent), "failed": s.failed, "attrs": s.attrs,
                }) + "\n")
