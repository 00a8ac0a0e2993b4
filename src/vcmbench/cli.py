"""Command-line interface.

Subcommands: eval-det, eval-track, bdrate, pareto, feature, run, report.
Every subcommand is a pure function of its input files and flags; the
--jobs flag changes wall-clock time, never output bytes. Exit codes:
0 success, 2 input/contract error (a file that cannot be read or written
included), 3 external-command failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError, VcmError
from .featurecodec import (
    denormalize,
    dequantize_2bit,
    dequantize_8bit,
    entropy_decode,
    entropy_encode,
    normalize,
    pack_spatial_tiled,
    pack_temporal,
    quantize_2bit,
    quantize_8bit,
    reorder_channels,
    unpack_frames,
)
from .featurecodec.packing import frame_set
from .metrics import INTERPOLATIONS, check_iou_thresholds, mean_average_precision, mota
from .model import BIT_DEPTHS, QuantParams, check_z_th
from .pipeline.experiment import check_jobs, load_manifest, run_experiment
from .rdcurves import (
    apply_cutoff,
    bd_metrics,
    pareto_front,
    read_curves_csv,
    write_csv,
    write_curves_csv,
)
from .report import (
    SCHEMA_VERSION, build_report, render_svg, report_to_json_bytes, write_report_files,
)
from .tensorio import (
    MALFORMED,
    MALFORMED_OR_INVALID,
    as_float64,
    as_int64,
    load_detections,
    load_ground_truth,
    load_tracks,
    parsing,
    read_feature_tensor,
    read_json,
    write_feature_tensor,
)


def _thresholds(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(","))


# option -> (cast of its text, default, domain: the allowed values, a check that raises
# InputError, or None): a flag, else a --config key, else the default
_OPTIONS = {
    "thresholds": (_thresholds, (0.5,), check_iou_thresholds),
    "interpolation": (str, "all_points", INTERPOLATIONS),
    "iou": (float, 0.5, lambda t: check_iou_thresholds((t,))),
    "min-quality": (float, None, None),
    "bits": (int, 8, BIT_DEPTHS),
    "z-th": (float, 1.5, check_z_th),
    "layout": (str, "temporal", ("spatial", "temporal")),
    "output-dir": (str, "vcmbench-out", None),
    "jobs": (int, 1, check_jobs),
}


def _value(name: str, text: str, origin: str):
    """Option name's value in text, cast and checked against its domain; errors name origin."""
    cast, _, domain = _OPTIONS[name]
    with parsing(origin, errors=(*MALFORMED, InputError)):
        value = cast(text)
        if callable(domain):
            domain(value)
        elif domain is not None and value not in domain:
            raise InputError(f"must be one of {domain}: {value!r}")
    return value


def _load_config(path) -> dict:
    """key=value lines of _OPTIONS, checked as they load; "#" starts a comment, "\n" ends a line."""
    config = {}
    with parsing(path):
        text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        config[key] = _value(key, value, f"{path}:{lineno}: {key}")
    return config


def _add_option(parser, name: str, **kwargs) -> None:
    """Declare --name, read as a config value is; main fills it when no flag is given."""
    # argparse passes _value's ParseError on to main, and lists the table's choices in --help
    domain = _OPTIONS[name][2]
    parser.add_argument(f"--{name}", type=partial(_value, name, origin=f"--{name}"), default=None,
                        choices=domain if isinstance(domain, tuple) else None, **kwargs)


def _write_json(path, doc) -> None:
    Path(path).write_bytes(report_to_json_bytes(doc))


def _write_all(*outputs) -> None:
    """write(path) for each (path, write) in turn; if one fails, remove the files before it."""
    for k, (path, write) in enumerate(outputs):
        try:
            write(path)
        except Exception:
            for done, _ in outputs[:k]:
                Path(done).unlink(missing_ok=True)
            raise


def _print_json(obj) -> None:
    sys.stdout.write(report_to_json_bytes(obj).decode("utf-8"))


def _cmd_eval_det(args) -> int:
    dets = load_detections(args.detections)
    gts = load_ground_truth(args.ground_truth)
    result = mean_average_precision([dets], [gts], args.thresholds, args.interpolation)
    payload = {
        "mAP": result.map_value,
        "thresholds": list(args.thresholds),
        "per_class_ap": {str(c): v for c, v in result.per_class_ap.items()},
        "counts_at_last_threshold": {
            str(c): {"tp": t[0], "fp": t[1], "fn": t[2]}
            for c, t in result.counts.items()
        },
    }
    _print_json(payload)
    if args.csv:
        rows = [(c, result.per_class_ap[c]) for c in sorted(result.per_class_ap)]
        write_csv(args.csv, ("class_id", "ap"), [*rows, ("mAP", result.map_value)])
    return 0


def _cmd_eval_track(args) -> int:
    pred = load_tracks(args.predictions)
    gt = load_tracks(args.ground_truth)
    r = mota([pred], [gt], args.iou)
    _print_json(
        {"MOTA": r.mota, "FN": r.fn, "FP": r.fp, "IDSW": r.idsw, "GT": r.gt}
    )
    return 0


def _by_scale(curves, path) -> dict:
    """A file's curves keyed by scale; two curves at one scale cannot be paired."""
    by_scale = {}
    for c in curves:
        if c.scale_percent in by_scale:
            raise InputError(f"{path}: two curves at scale {c.scale_percent}")
        by_scale[c.scale_percent] = c
    return by_scale


def _cmd_bdrate(args) -> int:
    anchors = read_curves_csv(args.anchor)
    tests = read_curves_csv(args.test)
    rows = []
    if len(anchors) == 1 and len(tests) == 1:
        pairs = [(anchors[0], tests[0])]
    else:
        by_scale = _by_scale(tests, args.test)
        pairs = [(a, by_scale[s]) for s, a in _by_scale(anchors, args.anchor).items()
                 if s in by_scale]
        if not pairs:
            raise InputError("no curves with matching scales between the two files")
    for anchor, test in pairs:
        bd = bd_metrics(anchor, test)
        rows.append(
            {
                "anchor": anchor.label,
                "test": test.label,
                "scale": anchor.scale_percent,
                "bd_rate_percent": bd.bd_rate_percent,
                "bd_quality": bd.bd_quality,
                "quality_overlap": list(bd.quality_overlap),
                "log_rate_overlap": list(bd.log_rate_overlap),
            }
        )
    _print_json(rows)
    if args.out:
        header = ("anchor", "test", "scale", "bd_rate_percent", "bd_quality")
        write_csv(args.out, header, ([r[f] for f in header] for r in rows))
    return 0


def _cmd_pareto(args) -> int:
    curves = []
    for path in args.curves:
        curves.extend(read_curves_csv(path))
    front = pareto_front(curves)
    if args.min_quality is not None:
        front = apply_cutoff(front, args.min_quality)
    outputs = [(args.out, partial(write_curves_csv, [front]))]
    if args.svg:
        svg = render_svg(curves, front, title="Pareto front").encode()
        outputs.append((args.svg, lambda p: Path(p).write_bytes(svg)))
    _write_all(*outputs)
    sys.stdout.write(f"front: {len(front.points)} points -> {args.out}\n")
    return 0


def _listed(v, cast) -> tuple:
    """A sidecar's JSON list, each entry read by cast; any other value is a TypeError."""
    if not isinstance(v, list):
        raise TypeError(f"expected a list: {v!r}")
    return tuple(map(cast, v))


def _report_error(tensor, ref, params: QuantParams) -> None:
    """Print the max reconstruction error against a reference tensor of its dims."""
    err = float(np.abs(tensor.values.astype(np.float64) - ref.values).max())
    bound = ""
    if params.bit_depth == 8:
        step = (params.z_max - params.z_min) / 510.0
        worst = float((params.std.astype(np.float64) * step).max())
        bound = f" (per-channel bound sigma*(z_max-z_min)/510, max {worst!r})"
    sys.stdout.write(f"max reconstruction error: {err!r}{bound}\n")


def _cmd_feature(args) -> int:
    """Forward ops quantize and pack (and code) a tensor; inverse ops rebuild one."""
    op, bits = args.op, args.bits
    if op in ("pack", "encode"):
        tensor = read_feature_tensor(args.input)
        z, params = normalize(tensor, z_th=args.z_th, bit_depth=bits)
        samples = quantize_8bit(z, params) if bits == 8 else quantize_2bit(z, params.z_th)
        perm = reorder_channels(samples)[0] if args.reorder else None
        pack = pack_spatial_tiled if args.layout == "spatial" else pack_temporal
        fs = pack(samples, permutation=perm, quant=params)
        if op == "encode":
            stream = entropy_encode(fs)
            Path(args.output).write_bytes(stream)
            sys.stdout.write(
                f"coded {8 * len(stream)} bits "
                f"({len(stream) / fs.sample_count:.4f} of packed size)\n"
            )
            return 0
        meta_path = args.meta or (str(args.output) + ".meta.json")
        meta = {
            "layout": fs.layout,
            "dims": list(fs.original_dims),
            "permutation": None if perm is None else list(perm),
            # tolist() turns the float32 mean and std arrays into JSON-ready floats
            "params": {
                f.name: np.asarray(getattr(params, f.name)).tolist() for f in fields(QuantParams)
            },
        }
        _write_all(
            (args.output, lambda p: Path(p).write_bytes(b"".join(f.tobytes() for f in fs.frames))),
            (meta_path, partial(_write_json, doc=meta)),
        )
        sys.stdout.write(
            f"packed {fs.layout}: {len(fs.frames)} frame(s), meta -> {meta_path}\n"
        )
        return 0

    if op == "unpack":
        if not args.meta:
            raise InputError("unpack needs --meta from the pack step")
        meta = read_json(args.meta)
        raw = Path(args.input).read_bytes()
        # a sidecar that does not describe the samples names itself, as a malformed one does;
        # its numbers follow the JSON-lines rules
        with parsing(f"{args.meta}: packing metadata", errors=MALFORMED_OR_INVALID):
            doc, perm = meta["params"], meta["permutation"]
            params = QuantParams(
                mean=_listed(doc["mean"], as_float64),
                std=_listed(doc["std"], as_float64),
                **{k: as_float64(doc[k]) for k in ("z_min", "z_max", "z_th")},
                bit_depth=as_int64(doc["bit_depth"]),
            )
            fs = frame_set(
                raw, meta["layout"], _listed(meta["dims"], as_int64),
                None if perm is None else _listed(perm, as_int64), params, origin=args.input,
            )
    else:
        fs = entropy_decode(Path(args.input).read_bytes(), origin=args.input)
        params = fs.quant
    samples = unpack_frames(fs)
    if isinstance(samples, list):
        raise InputError("multiscale samples need per-level outputs; use the API")
    dequantize = dequantize_8bit if params.bit_depth == 8 else dequantize_2bit
    tensor = denormalize(dequantize(samples, params), params)
    # the reference is read and checked first, so a bad one leaves no output behind
    ref = read_feature_tensor(args.ref) if args.ref else None
    if ref is not None and ref.dims != tensor.dims:
        raise InputError(f"{args.ref}: reference dims {ref.dims} differ from {tensor.dims}")
    write_feature_tensor(tensor, args.output)
    if op == "decode":
        sys.stdout.write("checksum OK\n")
    if ref is not None:
        _report_error(tensor, ref, params)
    return 0


def _cmd_run(args) -> int:
    manifest_path = Path(args.manifest)
    manifest = load_manifest(manifest_path)
    out_dir = Path(args.output_dir)
    try:
        result = run_experiment(manifest, work_dir=out_dir / "work", jobs=args.jobs)
    except VcmError as e:
        partial = getattr(e, "partial_records", None)
        if partial is not None:  # an empty list still names the failure
            out_dir.mkdir(parents=True, exist_ok=True)
            rows = [
                {
                    "item": r.item_id, "qp": r.qp, "scale": r.scale,
                    "bits": r.bits, "rate": r.rate,
                }
                for r in partial
            ]
            failure = {
                "stage": e.stage, "item": e.item_id, "qp": e.qp, "scale": e.scale,
                "cause": str(e.cause),
            }
            partial_path = out_dir / "partial_results.json"
            _write_json(partial_path, {"failure": failure, "records": rows})
            # stderr carries only the error line that main writes
            sys.stdout.write(f"wrote {partial_path} ({len(rows)} completed records)\n")
        raise
    report = build_report(manifest_path, manifest, result)
    report_path = out_dir / "report.json"
    _write_json(report_path, report)
    for p in [report_path, *write_report_files(report, out_dir)]:
        sys.stdout.write(f"wrote {p}\n")
    return 0


def _cmd_report(args) -> int:
    doc = read_json(args.report)
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise InputError(f"unsupported report schema: {version}")
    out_dir = Path(args.output_dir)
    with parsing(f"{args.report}: report document", errors=MALFORMED_OR_INVALID):
        write_report_files(doc, out_dir)
    sys.stdout.write(f"rendered report tables into {out_dir}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcmbench",
        description="Benchmark harness for video coding for machines",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value config file", default=None)
    _add_option(parser, "jobs", help="worker threads")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-det", help="mAP of detections vs ground truth")
    p.add_argument("detections")
    p.add_argument("ground_truth")
    _add_option(p, "thresholds", help="comma-separated IoU thresholds")
    _add_option(p, "interpolation")
    p.add_argument("--csv", default=None, help="write per-class AP table here")
    p.set_defaults(func=_cmd_eval_det)

    p = sub.add_parser("eval-track", help="MOTA of tracks vs ground truth")
    p.add_argument("predictions")
    p.add_argument("ground_truth")
    _add_option(p, "iou")
    p.set_defaults(func=_cmd_eval_track)

    p = sub.add_parser("bdrate", help="Bjontegaard deltas between two curve CSVs")
    p.add_argument("anchor")
    p.add_argument("test")
    p.add_argument("--out", default=None, help="write the BD table CSV here")
    p.set_defaults(func=_cmd_bdrate)

    p = sub.add_parser("pareto", help="non-dominated front of RD curves")
    p.add_argument("curves", nargs="+")
    _add_option(p, "min-quality")
    p.add_argument("--out", default="pareto.csv", help="front CSV path (default %(default)s)")
    p.add_argument("--svg", default=None, help="also render an SVG plot")
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("feature", help="feature-map coding toolchain")
    p.add_argument("op", choices=("pack", "unpack", "encode", "decode"))
    p.add_argument("input")
    p.add_argument("output")
    _add_option(p, "bits")
    _add_option(p, "z-th")
    _add_option(p, "layout")
    p.add_argument("--reorder", action="store_true")
    p.add_argument("--meta", default=None, help="packing metadata JSON sidecar")
    p.add_argument("--ref", default=None, help="reference tensor for error report")
    p.set_defaults(func=_cmd_feature)

    p = sub.add_parser("run", help="run an experiment manifest end to end")
    p.add_argument("manifest")
    _add_option(p, "output-dir")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="re-render tables/plots from a report JSON")
    p.add_argument("report")
    _add_option(p, "output-dir")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _load_config(args.config) if args.config else {}
        for name, (_, default, _) in _OPTIONS.items():
            dest = name.replace("-", "_")
            if dest in vars(args) and getattr(args, dest) is None:
                setattr(args, dest, config.get(name, default))
        return args.func(args)
    except (VcmError, OSError) as e:  # an OSError names a file the user gave
        sys.stderr.write(f"error: {e}\n")
        return getattr(e, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
