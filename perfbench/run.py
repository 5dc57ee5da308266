#!/usr/bin/env python3
"""catgate benchmark.

Runs one workload the way a user does: the ``catgate`` commands of the
experiment scripts, called in process through ``catgate.cli.main``, writing
into a temporary directory under ``.perfbench_work/``.  Every command's output
is checked against the values catgate printed when this benchmark was defined.

    python3 perfbench/run.py --workload fock_dataset --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: the median wall time of
one pass, the median set-up time, and the peak resident memory of this
process.  With ``--trace 1`` it runs one untraced pass, then traced passes
that wrap catgate's public functions (see ``tracing.py``), and reports
per-layer metrics; the spans go to ``.perfbench_work/spans-<workload>-seed<n>.jsonl``.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
#: Extra set-ups timed in fresh processes, half before the passes and half
#: after, so the samples span the run; with this process's own that gives nine
#: samples for the set-up median.
SETUP_PROBES = 8


def import_catgate():
    """Import catgate from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "catgate" / "__init__.py").is_file():
        raise SystemExit(f"error: no catgate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import catgate.cli

    if Path(catgate.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported catgate from {catgate.__file__}, not {SRC}")
    return catgate.cli


def call(cli, argv: list[str]) -> tuple[int | None, str]:
    """Run one CLI command; returns its exit code (None if it raised) and
    whatever it printed."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        try:
            return cli.main(argv), captured.getvalue()
        except SystemExit as exc:
            return exc.code, captured.getvalue()
        except Exception:
            return None, captured.getvalue() + traceback.format_exc()


def set_up(workload: str, out_dir: str):
    """Import numpy, scipy and catgate, build the grid, vacuum and reference
    cat, and make the workload's warm-up call.  Returns (seconds, cli)."""
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    cli = import_catgate()
    import catgate

    grid = catgate.default_grid()
    catgate.make_vacuum(grid)
    catgate.reference_cat(5, 0.0, grid)
    argv = workloads.WARM_UP[workload] + ["--out", os.path.join(out_dir, "warm_up")]
    code, printed = call(cli, argv)
    if code != 0:
        raise SystemExit(f"error: warm-up {argv} exited with {code}:\n{printed}")
    return time.perf_counter() - start, cli


def probe_set_up(workload: str) -> float:
    """Time one set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--setup-only"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(cli, ops: list[workloads.Op], work_dir: str, tracer=None):
    """Run every command of one pass into a fresh directory, then check the
    outputs.  Returns (wall seconds, failed commands, bytes written, spans)."""
    with tempfile.TemporaryDirectory(dir=work_dir) as out_dir:
        outcomes = []
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            for op in ops:
                outcomes.append(call(cli, op.argv + ["--out", os.path.join(out_dir, op.name)]))
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.remove()
        spans = tracer.take() if tracer is not None else []
        failed = 0
        for op, (code, printed) in zip(ops, outcomes):
            if code != 0:
                problems = [f"exit code {code}: {printed.strip()}"]
            else:
                try:
                    problems = op.check(os.path.join(out_dir, op.name))
                except (OSError, KeyError, ValueError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            if problems:
                failed += 1
                print(f"FAILED {' '.join(op.argv)}: {'; '.join(problems)}", file=sys.stderr)
        written = sum(entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file())
        return wall, failed, written, spans


def repeat_passes(run_one, seconds: float, spent: float = 0.0) -> list:
    """Call ``run_one`` at least once, and again while another pass of the
    last one's length still ends within ``seconds`` (``spent`` is used up)."""
    results = []
    while True:
        start = time.perf_counter()
        results.append(run_one())
        spent += time.perf_counter() - start
        if spent + results[-1][0] > seconds:
            return results


def context() -> dict:
    """Facts about the run that are recorded, not gated."""
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": commit,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the workload's smallest pass, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print its seconds and exit")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work_dir:
        setup_own, cli = set_up(args.workload, work_dir)
        if args.setup_only:
            print(repr(setup_own))
            return 0
        ops = workloads.operations(args.workload, args.seed, small=args.size == "small")

        def untraced():
            return run_pass(cli, ops, work_dir)

        if args.trace:
            tracer = tracing.Tracer()
            start = time.perf_counter()
            baseline = untraced()
            traced = repeat_passes(lambda: run_pass(cli, ops, work_dir, tracer), args.seconds,
                                   time.perf_counter() - start)
            passes = [baseline] + traced
            tracing.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl",
                                [spans for *_, spans in traced])
            values = tracing.median_metrics([tracing.pass_metrics(spans, written)
                                             for _, _, written, spans in traced])
            traced_wall = statistics.median(wall for wall, *_ in traced)
            values["bench.traced_wall_s"] = traced_wall
            values["bench.trace_overhead_s"] = traced_wall - baseline[0]
            units = dict(tracing.PER_LAYER)
        else:
            probes = SETUP_PROBES // 2
            setup_times = [setup_own] + [probe_set_up(args.workload) for _ in range(probes)]
            passes = repeat_passes(untraced, args.seconds)
            setup_times += [probe_set_up(args.workload) for _ in range(SETUP_PROBES - probes)]
            values = {
                "wall_s": statistics.median(wall for wall, *_ in passes),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

    attempted = len(ops) * len(passes)
    failed = sum(f for _, f, *_ in passes)
    print("context: " + json.dumps(context(), sort_keys=True))
    walls = ", ".join(f"{wall:.3f}" for wall, *_ in passes)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes ({walls} s), "
          f"ops_failed_ratio={failed / attempted:g} ratio "
          f"({failed} of {attempted} commands failed)")
    if not args.trace:
        setups = ", ".join(f"{seconds:.3f}" for seconds in setup_times)
        print(f"set-ups: {len(setup_times)} ({setups} s)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
