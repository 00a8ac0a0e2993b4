"""Machine-readable evaluation reports and SVG plots.

Reports are byte-deterministic for identical inputs: keys are sorted,
floats use repr, nothing depends on clock, locale, path layout, or
worker count. The sha256 digests of the input files are recorded (the
manifest, each source, ground truth and precomputed prediction file),
but not everything a number depends on: the predictions a
`prediction_command` writes are not digested, and `config.codec` records
only the kind of an EXTERNAL codec, not its templates, so neither the
external tools nor their outputs are traceable from a report (the
manifest digest covers only the command text). Plots are standalone SVG
with the numeric data embedded as structured comments so they diff
cleanly.

`build_report` takes `pareto` and `bd_table` from the run's curves, which
`rdcurves.scale_curves` builds from the same points as `rd_tables`. The
CSVs and the plot derive from the document's own `rd_tables` rows, through
one `_report_curves`; re-rendering a document whose `pareto` or
`bd_table` is not the one those rows give is an error. BD rows compare
each curve's own Pareto front, as `vcmbench bdrate` does, and every CSV
goes through `rdcurves.write_csv`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__
from .errors import InvariantViolation, VcmError
from .model import RDCurve, RDPoint, check_unique_scales
from .rdcurves import bd_metrics, pareto_front, scale_curves, write_csv, write_curves_csv

SCHEMA_VERSION = 1

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _curve_rows(curve: RDCurve) -> list[dict]:
    return [{"rate": p.rate, "quality": p.quality} for p in curve.points]


def _bd_rows(curves: list[RDCurve], front: RDCurve) -> list[dict]:
    """Both anchor definitions, explicitly labeled per row.

    bd_metrics compares each curve's own Pareto front; BD failures (too
    few points on a front, no overlap) are recorded, not raised.
    """
    anchors = []
    for c in curves:
        if c.scale_percent == 100:
            anchors.append(("scale100", c))
    anchors.append(("pareto", front))
    rows = []
    for anchor_name, anchor in anchors:
        for test in curves:
            if test is anchor:
                continue
            row = {
                "anchor": anchor_name,
                "test": test.label,
                "bd_rate_percent": None,
                "bd_quality": None,
                "error": None,
            }
            try:
                bd = bd_metrics(anchor, test)
                row["bd_rate_percent"] = bd.bd_rate_percent
                row["bd_quality"] = bd.bd_quality
            except VcmError as e:
                row["error"] = f"{type(e).__name__}: {e}"
            rows.append(row)
    return rows


def build_report(manifest_path, manifest, result) -> dict:
    """Assemble the full evaluation report for one experiment run."""
    digests = {"manifest": sha256_file(manifest_path)}
    for item in manifest.items:
        digests[f"item:{item.item_id}:source"] = sha256_file(item.path)
        digests[f"item:{item.item_id}:ground_truth"] = sha256_file(item.ground_truth)
        if item.predictions:
            for (qp, scale), p in sorted(item.predictions.items()):
                digests[f"item:{item.item_id}:pred:q{qp}:s{scale}"] = sha256_file(p)

    rd_tables = {}
    for scale in manifest.scales:
        rows = []
        for qp in manifest.codec.qp_list:
            rate, quality = result.rd_points[(scale, qp)]
            rows.append({"qp": qp, "rate": rate, "quality": quality})
        rd_tables[str(scale)] = rows

    codec_info = {"kind": manifest.codec.kind}
    if manifest.codec.kind != "EXTERNAL":
        codec_info["note"] = "built-in test codec, not a standardized algorithm"

    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "vcmbench",
        "tool_version": __version__,
        "inputs": digests,
        "config": {
            "task": manifest.task,
            "scales": list(manifest.scales),
            "qp_list": list(manifest.codec.qp_list),
            "iou_thresholds": list(manifest.iou_thresholds),
            "quality_unit": manifest.quality_unit,
            "codec": codec_info,
            "aggregation": (
                "rate averaged over items at each (scale, qp); metric computed "
                "over the pooled record set; boxes evaluated at source resolution"
            ),
            "anchor_definitions": ["scale100", "pareto"],
        },
        "rd_tables": rd_tables,
        "pareto": _curve_rows(result.pareto),
        "bd_table": _bd_rows(result.curves, result.pareto),
    }


def report_to_json_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(curves, front: RDCurve, title: str) -> str:
    """Rate on x, metric on y; one polyline per curve plus the front.

    Labels and the title are XML-escaped; in the data comments a "--"
    in a label is written as "-&#45;", since a comment may not hold "--".
    """
    width, height = 640, 480
    ml, mr, mt, mb = 60, 20, 30, 45
    plot_w, plot_h = width - ml - mr, height - mt - mb
    curves = list(curves)
    everything = curves + [front]
    rates = [p.rate for c in everything for p in c.points]
    quals = [p.quality for c in everything for p in c.points]
    r_lo, r_hi = min(rates), max(rates)
    q_lo, q_hi = min(quals), max(quals)
    r_span = (r_hi - r_lo) or 1.0
    q_span = (q_hi - q_lo) or 1.0

    def sx(r):
        return ml + (r - r_lo) / r_span * plot_w

    def sy(q):
        return mt + (1.0 - (q - q_lo) / q_span) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="18" text-anchor="middle" font-size="14">{_escape(title)}</text>',
        f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" y2="{mt + plot_h}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + plot_h}" stroke="black"/>',
        f'<text x="{ml}" y="{height - 8}" font-size="11">{_fmt(r_lo)}</text>',
        f'<text x="{ml + plot_w}" y="{height - 8}" text-anchor="end" font-size="11">{_fmt(r_hi)}</text>',
        f'<text x="{ml - 6}" y="{mt + plot_h}" text-anchor="end" font-size="11">{_fmt(q_lo)}</text>',
        f'<text x="{ml - 6}" y="{mt + 10}" text-anchor="end" font-size="11">{_fmt(q_hi)}</text>',
        f'<text x="{ml + plot_w // 2}" y="{height - 8}" text-anchor="middle" font-size="12">rate</text>',
    ]
    for idx, c in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{sx(p.rate):.2f},{sy(p.quality):.2f}" for p in c.points)
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for p in c.points:
            lines.append(
                f'<circle cx="{sx(p.rate):.2f}" cy="{sy(p.quality):.2f}" r="3" fill="{color}"/>'
            )
        lines.append(
            f'<text x="{ml + plot_w - 4}" y="{mt + 14 + 14 * idx}" text-anchor="end" '
            f'font-size="11" fill="{color}">{_escape(c.label)}</text>'
        )
    pts = " ".join(f"{sx(p.rate):.2f},{sy(p.quality):.2f}" for p in front.points)
    lines.append(
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="2.5" '
        'stroke-dasharray="6,3"/>'
    )
    lines.append(
        f'<text x="{ml + plot_w - 4}" y="{mt + 14 + 14 * len(curves)}" '
        f'text-anchor="end" font-size="11">{_escape(front.label)}</text>'
    )
    # embed the plotted numbers so the file is diffable without a renderer
    for c in everything:
        scale = "" if c.scale_percent is None else str(c.scale_percent)
        rows = "\n".join(f"{p.rate!r},{p.quality!r}" for p in c.points)
        label = _escape(c.label).replace("--", "-&#45;")
        lines.append(f"<!-- data:curve label={label} scale={scale}\nrate,quality\n{rows}\n-->")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _points(rows) -> list[RDPoint]:
    return [RDPoint(r["rate"], r["quality"]) for r in rows]


def _same_rows(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _report_curves(report: dict) -> tuple[list[RDCurve], RDCurve]:
    """Per-scale RD curves, in the manifest's scale order, and their Pareto front.

    The document's `pareto` rows must be that front.
    """
    config = report["config"]
    check_unique_scales(config["scales"])
    curves = scale_curves(
        ((scale, _points(report["rd_tables"][str(scale)])) for scale in config["scales"]),
        config["quality_unit"],
    )
    front = pareto_front(curves, label="pareto")
    if not _same_rows(report["pareto"], _curve_rows(front)):
        raise InvariantViolation("pareto is not the front of its own rd_tables rows")
    return curves, front


def write_report_files(report: dict, out_dir) -> list[Path]:
    """Write the CSV tables and the SVG plot of a report; returns their paths.

    Everything is derived from the report document alone, so the files
    `run` writes and a later re-render of its report.json are the same
    bytes. A malformed document raises one of tensorio.MALFORMED (or an
    InputError) before any file is written: so does one whose `pareto` or
    `bd_table` differs from the rows its curves give, or whose scales repeat.
    report.json itself is never written here.
    """
    curves, front = _report_curves(report)
    bd_rows = _bd_rows(curves, front)
    if not _same_rows(report["bd_table"], bd_rows):
        raise InvariantViolation("bd_table is not the table of its own rd_tables and pareto rows")
    svg = render_svg(curves, front, title="rate vs task metric")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = rd, pareto, bd, plot = [
        out_dir / name for name in ("rd_curves.csv", "pareto.csv", "bd_table.csv", "plot.svg")
    ]
    write_curves_csv(curves, rd)
    write_curves_csv([front], pareto)
    header = ("anchor", "test", "bd_rate_percent", "bd_quality", "error")
    write_csv(bd, header, ([row[f] for f in header] for row in bd_rows))
    plot.write_text(svg, encoding="utf-8")
    return paths
