#!/usr/bin/env python3
"""Self-test of the benchmark, about two minutes on two cores:

* each workload at its smallest size emits every metric BENCHMARK.json names,
  with its unit, in both modes, and no command fails;
* the traced run sees no cubic quadrature on fock_dataset and no Wigner
  function on ladder_search;
* the output check fails, and counts a failed command, when one reference
  value is perturbed;
* without the catgate sources the benchmark exits non-zero and prints no
  result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def emitted_metrics() -> None:
    for workload in workloads.WORKLOADS:
        for trace, declared in (("0", BENCH["end_to_end"]), ("1", BENCH["per_layer"])):
            done = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                         "--trace", trace, "--size", "small")
            what = f"{workload} trace={trace}"
            if done.returncode != 0:
                expect(False, f"{what}: exit code {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{what}: result keys")
            expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what}: ops_failed_ratio = 0 ({result['failed']} of {result['attempted']})")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == {m["name"]: m["unit"] for m in declared},
                   f"{what}: every declared metric with its unit")
            values = {name: m["value"] for name, m in result["metrics"].items()}
            if trace == "0":
                expect(all(v > 0 for v in values.values()), f"{what}: end-to-end metrics > 0")
            elif workload == "fock_dataset":
                expect(values.get("numerics.oscillatory_fourier_factor.calls") == 0,
                       f"{what}: no cubic quadrature")
            elif workload == "ladder_search":
                expect(values.get("analysis.wigner.calls") == 0, f"{what}: no Wigner function")


def perturbed_reference() -> None:
    _, cli = run.set_up("fock_dataset", str(run.WORK))
    ops = [op for op in workloads.operations("fock_dataset", 0, small=True) if op.argv[0] == "collapse"]
    _, failed, *_ = run.run_pass(cli, ops, str(run.WORK))
    expect(failed == 0, "collapse n=5, y_m=0 passes its check")
    value, tol = workloads.REFERENCE["fock5_ym0_P"]
    workloads.REFERENCE["fock5_ym0_P"] = (value + 2 * tol, tol)
    try:
        _, failed, *_ = run.run_pass(cli, ops, str(run.WORK))
    finally:
        workloads.REFERENCE["fock5_ym0_P"] = (value, tol)
    expect(failed == 1, "a perturbed reference P counts one failed command")


def without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "fock_dataset", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        expect(done.returncode != 0 and '"metrics"' not in done.stdout,
               f"no sources: exit code {done.returncode}, no result printed")


if __name__ == "__main__":
    run.WORK.mkdir(exist_ok=True)
    emitted_metrics()
    perturbed_reference()
    without_sources()
    print(f"{len(problems)} problems")
    sys.exit(1 if problems else 0)
