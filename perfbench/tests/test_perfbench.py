"""Tests of the benchmark's own checks, on tiny versions of each workload.

Run from the repository root: python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import worker
import workloads
from vcmbench import cli

TINY = {
    "anchor-truncate": {"scales": (100, 50), "qps": (0, 4, 7)},
    "anchor-files": {
        "sizes": ((64, 48), (33, 21)), "scales": (100, 50), "qps": (22, 37),
        "n_gt": 6, "n_det": 30,
    },
    "anchor-video": {
        "items_n": 1, "frames": 3, "width": 96, "height": 64, "tracks": 3,
        "scales": (100, 50), "qps": (22,),
    },
    "feature-roundtrip": {"relu_dims": (8, 6, 5), "dense_dims": (64, 3, 4)},
}


def tiny_case(name, tmp_path, seed=1):
    return workloads.prepare(name, seed, tmp_path / name, **TINY[name])


def edit_report(path, edit):
    """Apply edit to the scale-100 rows of a report.json."""
    doc = json.loads(path.read_text())
    edit(doc["rd_tables"]["100"])
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def execute(ops):
    return [(op, worker.call(cli.main, op.argv)) for op in ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_is_correct(name, tmp_path):
    case = tiny_case(name, tmp_path)
    result = worker.run_pass(cli.main, case)
    assert result["problems"] == [[]] * len(result["problems"])
    assert all(result["digests"])
    ratio = case.coded_ratio()
    if name in ("anchor-files", "anchor-video"):
        assert ratio == pytest.approx(1.0, rel=1e-12)
    else:
        assert 0 < ratio < 1


def test_same_seed_same_inputs(tmp_path):
    a = tiny_case("anchor-files", tmp_path / "a", seed=5)
    b = tiny_case("anchor-files", tmp_path / "b", seed=5)
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.*"))
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.*"))
    assert files_a == files_b
    for rel in files_a:
        if rel.name != "manifest.json":  # it holds absolute paths
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    assert a.megabytes == b.megabytes


def test_mutated_report_is_a_failure(tmp_path):
    case = tiny_case("anchor-truncate", tmp_path)
    (j1,), (j2,) = case.commands
    calls = execute([j1, j2])
    assert worker.judge(calls)[0] == [[], []]
    edit_report(j2.output, lambda rows: rows[-1].update(quality=0.9))
    problems, digests = worker.judge(calls)
    assert problems[0] == []
    assert any("differs between --jobs 1 and --jobs 2" in p for p in problems[1])
    assert any("mAP rises with qp" in p for p in problems[1])
    assert digests[1] is None


def test_wrong_null_rate_is_a_failure(tmp_path):
    case = tiny_case("anchor-files", tmp_path)
    (j1,), _ = case.commands
    calls = execute([j1])
    edit_report(j1.output, lambda rows: rows[0].update(rate=2 * rows[0]["rate"]))
    (problems,), _ = worker.judge(calls)
    assert any("closed form" in p for p in problems)


def test_flipped_payload_byte_is_a_failure(tmp_path):
    case = tiny_case("feature-roundtrip", tmp_path)
    encodes, decodes = case.commands
    assert worker.judge(execute(encodes))[0] == [[]] * len(encodes)
    stream = encodes[0].output
    raw = bytearray(stream.read_bytes())
    payload = workloads.read_stream_header(stream).payload_bytes
    raw[len(raw) - payload + payload // 2] ^= 0x5A
    stream.write_bytes(bytes(raw))
    problems, digests = worker.judge(execute(decodes))
    assert problems[0] and problems[0][0].startswith("exit status 2")
    assert problems[1:3] == [[], []]
    assert digests[0] is None


def test_reconstruction_outside_the_bound_is_a_failure(tmp_path):
    case = tiny_case("feature-roundtrip", tmp_path)
    encodes, decodes = case.commands
    execute(encodes)
    calls = execute(decodes)
    rec = decodes[0].output
    values = workloads.read_tensor(rec).copy()
    values[0, 0, 0] += 1.0
    workloads.write_tensor(values, rec)
    problems, _ = worker.judge(calls)
    assert any("exceeds the bound" in p for p in problems[0])


def _child(digests, problems=None):
    return {
        "setup_s": 1.0, "megabytes": [1.0, 1.0], "coded_ratio": 0.5, "peak_rss_mb": 10.0,
        "points": 4,
        "pass": {"walls": [1.0, 1.0], "digests": digests,
                 "problems": problems or [[] for _ in digests]},
    }


def test_output_that_differs_between_passes_is_counted():
    result = run.summarize([1.0], [_child(["a", "b"]), _child(["a", "c"])], trace=False)
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 1, False)
    result = run.summarize([1.0], [_child(["a", None], [[], ["bad"]])], trace=False)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_traced_pass_reports_every_layer(tmp_path):
    case = tiny_case("anchor-truncate", tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = worker.run_pass(tracer.traced(cli.main, "cli.main"), case)
    finally:
        tracer.uninstall()
    assert result["problems"] == [[], []]
    layers = tracer.layer_metrics(case.ground_truth)
    assert set(layers) == set(tracing.METRICS) - {"trace.overhead_s"}
    points = case.points
    assert layers["predict.calls"] == 2 * points
    assert layers["codec.calls"] == 2 * points
    assert layers["predict.failed"] == 0
    # every qp scales the same frame again: 1 useful scaling in #qps (3)
    assert layers["yuv.scale_useful_ratio"] == pytest.approx(1 / 3)
    assert layers["entropy.bytes_in"] > layers["entropy.bytes_out"] > 0
    # every (scale, qp) cell parses each item's ground truth again
    assert layers["tensorio.gt_parse_ratio"] == pytest.approx(1 / 6)
    assert 0 < layers["experiment.worker_busy_ratio"] <= 1
    shares = tracer.shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    # the wrappers are gone afterwards
    assert cli.run_experiment.__module__ == "vcmbench.pipeline.experiment"


def test_missing_name_is_reported_not_zero(tmp_path, monkeypatch):
    from vcmbench.pipeline import experiment

    monkeypatch.delattr(experiment, "mota")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["vcmbench.pipeline.experiment.mota"]
    layers = tracer.layer_metrics(frozenset())
    assert "metrics.mota_s" not in layers and "metrics.calls" not in layers
    assert layers["metrics.map_s"] == 0


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "anchor-truncate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
