"""One benchmark child process: set up a workload, run its pass, check the outputs.

run.py starts a fresh child per iteration, so the set-up time and peak RSS
a child reports belong to that workload alone. Modes:

    setup  import vcmbench and generate the inputs, nothing more;
    pass   also run the pass once, untraced, and check its outputs;
    trace  also run it a second time with every layer boundary traced.

The child prints one JSON line on stdout. It exits non-zero only when set-up
fails (vcmbench cannot be imported from the checkout, say); a failed or
wrong operation is counted in the JSON instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import struct
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"


def import_cli():
    """Import vcmbench.cli from the checkout's own src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import vcmbench.cli

    if not Path(vcmbench.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"vcmbench came from {vcmbench.cli.__file__}, not {SRC}")
    return vcmbench.cli


def call(main, argv) -> tuple[object, str]:
    """Run one CLI call in-process; returns (exit status, captured stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = main(argv)
    except SystemExit as e:
        status = 0 if e.code is None else e.code
    except Exception:  # a crash is one failed operation, the pass goes on
        traceback.print_exc()
        status = "traceback"
    return status, out.getvalue()


def run_pass(main, case) -> dict:
    """Time both commands, then check every operation's output."""
    walls, calls = [], []
    allowed = sorted(os.sched_getaffinity(0))
    for ops in case.commands:
        for op in ops:
            op.output.unlink(missing_ok=True)
        t = time.perf_counter()
        statuses = []
        for op in ops:
            cpus = allowed if op.cpu is None else [allowed[op.cpu % len(allowed)]]
            os.sched_setaffinity(0, cpus)
            statuses.append(call(main, op.argv))
        walls.append(time.perf_counter() - t)
        os.sched_setaffinity(0, allowed)
        calls.extend(zip(ops, statuses))
    problems, digests = judge(calls)
    return {"walls": walls, "problems": problems, "digests": digests}


def judge(calls) -> tuple[list[list[str]], list[str | None]]:
    """Problems found per (op, (status, stdout)) call, and the digest of each good output."""
    problems = []
    for op, (status, stdout) in calls:
        if status != 0:
            problems.append([f"exit status {status!r}: vcmbench {' '.join(op.argv)}"])
        else:
            problems.append(op.check(stdout))
    digests = [
        workloads.output_digest(op) if not p else None for (op, _), p in zip(calls, problems)
    ]
    return problems, digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, required=True, help="directory for the inputs")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--spans", type=Path, help="trace mode: write the spans here")
    args = parser.parse_args()

    cli = import_cli()
    case = workloads.prepare(args.workload, args.seed, args.root)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode != "setup":
        result["pass"] = run_pass(cli.main, case)
        if args.mode == "trace":
            tracer = tracing.Tracer()
            tracer.install()
            try:
                result["traced"] = run_pass(tracer.traced(cli.main, "cli.main"), case)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics(case.ground_truth)
            layers["trace.overhead_s"] = (
                sum(result["traced"]["walls"]) - sum(result["pass"]["walls"])
            )
            result["per_layer"] = layers
            result["missing"] = tracer.missing
            result["shares"] = tracer.shares()
            if args.spans:
                tracer.write_spans(args.spans)
        try:
            result["coded_ratio"] = case.coded_ratio()
        except (OSError, ValueError, KeyError, struct.error) as e:
            # the operation that should have written the file has already failed
            result["coded_ratio"] = None
            sys.stderr.write(f"coded_ratio: {e!r}\n")
        result["megabytes"] = list(case.megabytes)
        result["points"] = case.points
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
