"""The vcmbench benchmark: run a workload and print its metrics.

    python3 perfbench/run.py --workload anchor-truncate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1     # every workload, one after another

Run it from the root of a checkout; vcmbench is imported from that
checkout's src/. A run first starts SETUP_ONLY children that only set up
(import vcmbench, generate the inputs), then children that each also run
the workload's pass once, until another pass would not end within
--seconds; at least one pass runs. (A traced run starts no set-up-only
children: it reports no setup_s.) Every child is a fresh process, run one
at a time by this one parent process, so the set-up time and peak RSS it
reports belong to one workload alone; `run` gets at most 2 worker threads,
the CPU count of the 2-vCPU machine the bounds were set on. Figures are
medians over the children.

End-to-end metrics (--trace 0), reported by every workload:
    cmd1_mb_per_s  MB of work per second of the pass's first command:
                   `--jobs 1 run` on the anchor-* workloads (MB = source
                   YUV bytes of every RD point, so it is points_per_s.j1
                   times MB per point), `feature encode` on
                   feature-roundtrip (MB = packed sample bytes).
    cmd2_mb_per_s  The same for the second command: `--jobs 2 run`, or
                   `feature decode --ref`.
    coded_ratio    Coded bits / raw bits through the codec or coder over
                   the pass; 1 under the NULL codec. A deterministic count
                   for a given seed.
    peak_rss_mb    ru_maxrss of the child process.
    setup_s        From the child's spawn until vcmbench is imported and
                   the inputs are generated.
fail_ratio is failed / attempted in the result line: an operation (one
`vcmbench` CLI call) fails when it exits non-zero, when its output check
fails, or when its output differs from the same operation's output in the
run's first pass.

With --trace 1 every child also runs the pass a second time under
tracing.Tracer and the metrics are the per-layer ones, plus
trace.overhead_s (traced wall minus untraced wall of the same pass).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A run that found a failure exits 1 after
printing it; a run that could not set up exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORK = CHECKOUT / ".perfbench_work"
SPANS = CHECKOUT / ".perfbench_spans"

SETUP_ONLY = 3
# every run must end within 180 s, the first pass included
HARD_LIMIT_S = 170.0

END_TO_END = {
    "cmd1_mb_per_s": "MB/s",
    "cmd2_mb_per_s": "MB/s",
    "coded_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SetupFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, index: int, deadline: float, spans=None) -> dict:
    """Run one worker child to completion and return its JSON result."""
    root = WORK / f"{workload}-{os.getpid()}-{index}"
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--root", str(root), "--mode", mode,
    ]
    if spans is not None:
        argv += ["--spans", str(spans)]
    argv += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, cwd=CHECKOUT, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        # the child's own children (prediction commands) share its process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if proc.returncode != 0:
        raise SetupFailed(f"{workload}: {mode} child exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    setups = [
        spawn(workload, seed, "setup", i, deadline)["setup_s"]
        for i in range(0 if trace else SETUP_ONLY)
    ]
    children, longest = [], 0.0
    while True:
        t = time.monotonic()
        spans = SPANS / f"{workload}-seed{seed}-{len(children)}.jsonl" if trace else None
        index = SETUP_ONLY + len(children)
        mode = "trace" if trace else "pass"
        children.append(spawn(workload, seed, mode, index, deadline, spans))
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() - start + longest > seconds:
            break
    setups += [c["setup_s"] for c in children]
    return summarize(setups, children, trace)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(setups, children, trace: bool) -> dict:
    """Medians over the children, and every failed operation counted."""
    passes = [c["pass"] for c in children] + [c["traced"] for c in children if "traced" in c]
    reference = passes[0]["digests"]
    attempted = failed = 0
    problems = []
    for p in passes:
        for op, (found, digest) in enumerate(zip(p["problems"], p["digests"])):
            attempted += 1
            if not found and digest != reference[op]:
                found = [f"operation {op}: output differs from the run's first pass"]
            if found:
                failed += 1
                problems.extend(found)
    if trace:
        shared = set.intersection(*(set(c["per_layer"]) for c in children))
        metrics = {
            name: {"value": _median(c["per_layer"][name] for c in children), "unit": unit}
            for name, (unit, _) in tracing.METRICS.items()
            if name in shared
        }
    else:
        values = {
            "cmd1_mb_per_s": _median(
                c["megabytes"][0] / c["pass"]["walls"][0] for c in children
            ),
            "cmd2_mb_per_s": _median(
                c["megabytes"][1] / c["pass"]["walls"][1] for c in children
            ),
            "coded_ratio": _median(c["coded_ratio"] for c in children),
            "peak_rss_mb": _median(c["peak_rss_mb"] for c in children),
            "setup_s": _median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "children": children,
    }


def print_table(workload: str, seed: int, result: dict) -> None:
    """Every metric by name and unit, with the per-command figures it implies."""
    children = result["children"]
    print(f"{workload} (seed {seed}): {len(children)} pass(es)")
    rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    first = children[0]
    walls = [[c["pass"]["walls"][i] for c in children] for i in (0, 1)]
    if first["points"]:
        for i, name in enumerate(("points_per_s.j1", "points_per_s.j2")):
            rows.append((name, first["points"] / statistics.median(walls[i]), "points/s"))
    else:
        for i, name in enumerate(("encode_mb_per_s", "decode_mb_per_s")):
            rows.append((name, first["megabytes"][i] / statistics.median(walls[i]), "MB/s"))
    rows.append(("fail_ratio", result["failed"] / result["attempted"], "ratio"))
    for name, value, unit in rows:
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>12s} {unit}")
    missing = sorted({m for c in children for m in c.get("missing", [])})
    if missing:
        print(f"  missing (not reported): {', '.join(missing)}")
    if "shares" in first:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in first["shares"].items())
        print(f"  thread-time shares: {shares}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description="vcmbench benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload; every workload when left out")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            print_table(name, args.seed, results[name])
    except (SetupFailed, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"benchmark failed: {e}\n")
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload:
        line = {k: results[args.workload][k] for k in keys}
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {n: r["metrics"] for n, r in results.items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
