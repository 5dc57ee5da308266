"""The benchmark workloads: the ``catgate`` commands the experiment scripts
issue, each paired with the check its output must pass.

Seed 0 runs the paper's operating points exactly as the scripts do.  Another
seed shifts the outcome grids that the CLI exposes (the ``scan catfid``
window, the ``scan mixfid`` width span and the ladder's y_m scan) by a
fraction of one grid step, so every seed does the same amount of work.  The
single operating points, the squeezing grids and the fits stay fixed: they are
the values the checks compare against.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("fock_dataset", "cubic_match", "ladder_search")

#: Values catgate printed when this benchmark was defined, with the tolerance they are compared at:
#: half a unit in the last printed digit, except for the ladder, whose
#: bisection stops at a y_m bracket of 1e-4.
REFERENCE = {
    "fock5_ym0_P": (0.09818, 5e-6),
    "fock5_ym0_infidelity_cat": (0.00524, 5e-6),
    "fock5_ym1_P": (0.10435, 5e-6),
    "fock5_ym2_P": (0.13595, 5e-6),
    "wigner_normalization": (1.00000, 5e-6),
    "probability_integral": (1.00000, 5e-6),
    "cubic_probmatch_P": (0.09841, 5e-6),
    "cubic_probmatch_infidelity_cat": (0.10087, 5e-6),
    "cubic_fidmatch_P": (0.02170, 5e-6),
    "cubic_fidmatch_infidelity_cat": (0.00470, 5e-6),
    "fit_s_probability": (0.1691, 5e-5),
    # criterion 06b is red against 0.241; the check holds it at its measured value
    "fit_s_infidelity": (0.2660, 5e-5),
    "ladder_ym_1": (1.0780, 1e-4),
    "ladder_ym_2": (2.4921, 1e-4),
}

PROBABILITY_MATCHED = ("0.075", "2.486", "0.171")
FIDELITY_MATCHED = ("0.334", "11.012", "0.241")
LADDER_RATIO = 33.0  # y_m / gamma on the matched-spacing line, 3 (2n + 1) at n = 5


@dataclass
class Op:
    """One CLI command.  ``check`` gets the command's ``--out`` prefix and
    returns the problems found in what it wrote (empty when correct)."""

    name: str
    argv: list[str]
    check: Callable[[str], list[str]]


# ---------------------------------------------------------------- readers

def _json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path: str) -> list[dict[str, float]]:
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _near(problems: list[str], key: str, value: float) -> None:
    ref, tol = REFERENCE[key]
    if not abs(value - ref) <= tol:
        problems.append(f"{key} = {value!r}, expected {ref} +- {tol}")


def _in_unit_interval(problems: list[str], what: str, values) -> None:
    bad = [v for v in values if not (math.isfinite(v) and -1e-12 <= v <= 1.0)]
    if bad:
        problems.append(f"{what}: {len(bad)} values outside [0, 1], first {bad[0]!r}")


def _row_count(problems: list[str], what: str, rows: list, expected: int) -> None:
    if len(rows) != expected:
        problems.append(f"{what}: {len(rows)} rows, expected {expected}")


def _wigner_sidecar(problems: list[str], csv_path: str) -> None:
    _near(problems, "wigner_normalization", _json(csv_path + ".meta.json")["normalization"])


# ---------------------------------------------------------------- checks

def _check_collapse(y_tag: str):
    def check(out: str) -> list[str]:
        problems: list[str] = []
        summary = _json(out + ".json")
        _near(problems, f"fock5_ym{y_tag}_P", summary["norm_N"])
        if y_tag == "0":
            _near(problems, "fock5_ym0_infidelity_cat", 1.0 - summary["fidelities"]["cat"])
        return problems
    return check


def _check_wigner(out: str) -> list[str]:
    problems: list[str] = []
    _wigner_sidecar(problems, out + ".csv")
    return problems


def _check_probability(out: str) -> list[str]:
    problems: list[str] = []
    integrals = _json(out + ".csv.meta.json")["integrals"]
    if sorted(integrals, key=int) != [str(n) for n in range(1, 11)]:
        problems.append(f"probability integrals for n = {sorted(integrals)}, expected 1..10")
    for n, value in integrals.items():
        ref, tol = REFERENCE["probability_integral"]
        if not abs(value - ref) <= tol:
            problems.append(f"integral of P for n={n} = {value!r}, expected {ref} +- {tol}")
    return problems


def _check_cohfid(out: str) -> list[str]:
    problems: list[str] = []
    rows = _csv_rows(out + ".csv")
    if sorted({int(r["n"]) for r in rows}) != list(range(1, 11)):
        problems.append("cohfid rows do not cover n = 1..10")
    _in_unit_interval(problems, "cohfid infidelity", [r["infidelity_coh"] for r in rows])
    at_zero = [r["infidelity_coh"] for r in rows if r["n"] == 5.0 and r["ym"] == 0.0]
    if at_zero:
        _near(problems, "fock5_ym0_infidelity_cat", at_zero[0])
    else:
        problems.append("cohfid has no row at n=5, y_m=0")
    return problems


def _check_catfid(out: str) -> list[str]:
    problems: list[str] = []
    rows = _csv_rows(out + ".csv")
    _row_count(problems, "catfid", rows, 61)
    _in_unit_interval(problems, "catfid infidelity", [r["infidelity_cat"] for r in rows])
    return problems


def _check_mixfid(out: str) -> list[str]:
    problems: list[str] = []
    rows = _csv_rows(out + ".csv")
    _row_count(problems, "mixfid", rows, 21)
    _in_unit_interval(problems, "mixfid infidelity", [r["infidelity_mix"] for r in rows])
    p_mix = [r["P_mix"] for r in rows]
    if not all(b > a for a, b in zip(p_mix, p_mix[1:])):
        problems.append("mixfid P_mix does not grow with the window width")
    return problems


def _check_squeeze_scan(out: str) -> list[str]:
    problems: list[str] = []
    rows = _csv_rows(out + ".csv")
    _row_count(problems, "squeeze scan", rows, 39)
    if not all(math.isfinite(r["P"]) and r["P"] > 0.0 for r in rows):
        problems.append("squeeze scan has a non-positive or non-finite P")
    _in_unit_interval(problems, "squeeze scan infidelity", [r["infidelity_cat"] for r in rows])
    return problems


def _check_fit(key: str):
    def check(out: str) -> list[str]:
        problems: list[str] = []
        report = _json(out + ".json")
        if report["converged"] is not True:
            problems.append(f"{key}: fit did not converge")
        _near(problems, key, report["fitted"]["s"])
        return problems
    return check


def _check_compare(tag: str):
    def check(out: str) -> list[str]:
        problems: list[str] = []
        report = _json(out + ".json")
        _near(problems, "fock5_ym0_P", report["fock"]["P"])
        _near(problems, "fock5_ym0_infidelity_cat", report["fock"]["infidelity_cat"])
        _near(problems, f"cubic_{tag}_P", report["cubic"]["P"])
        _near(problems, f"cubic_{tag}_infidelity_cat", report["cubic"]["infidelity_cat"])
        for side in ("fock", "cubic"):
            _wigner_sidecar(problems, f"{out}_{side}_wigner.csv")
        return problems
    return check


def _check_ladder(k_max: int):
    def check(out: str) -> list[str]:
        problems: list[str] = []
        entries = _json(out + ".json")["entries"]
        if len(entries) != k_max:
            problems.append(f"ladder has {len(entries)} entries, expected {k_max}")
        for k, entry in enumerate(entries[:k_max], start=1):
            _near(problems, f"ladder_ym_{k}", entry["ym"])
            if not abs(entry["gamma"] - entry["ym"] / LADDER_RATIO) <= 1e-12:
                problems.append(f"ladder entry {k} is off the matched line y_m = 33 gamma")
        return problems
    return check


# ---------------------------------------------------------------- workloads

def grid_shift(seed: int) -> float:
    """Fraction of a grid step by which the seed shifts the outcome grids."""
    return random.Random(seed).random() if seed else 0.0


def _num(value: float) -> str:
    return f"{value:.10g}"


def _fock_dataset(shift: float, small: bool) -> list[Op]:
    """scripts/run_fock_gate_report.py; ``small`` keeps the y_m = 0 point only."""
    ops = []
    for y_m in (0.0,) if small else (0.0, 1.0, 2.0):
        tag = str(y_m).replace(".", "p")
        ops.append(Op(f"fock5_ym{tag}", ["collapse", "--fock", "5", "--ym", str(y_m)],
                      _check_collapse(str(int(y_m)))))
        ops.append(Op(f"wigner_fock5_ym{tag}", ["wigner", "--fock", "5", "--ym", str(y_m)],
                      _check_wigner))
    catfid_window = "0,3" if not shift else f"{_num(0.05 * shift)},{_num(3 + 0.05 * shift)}"
    mixfid_span = "0..2" if not shift else f"{_num(0.1 * shift)}..{_num(2 + 0.1 * shift)}"
    ops += [
        Op("probability", ["scan", "probability", "--fock", "1..10"], _check_probability),
        Op("infidelity_bestphase", ["scan", "cohfid", "--fock", "1..10"], _check_cohfid),
        Op("infidelity_cat", ["scan", "catfid", "--fock", "5", "--window", catfid_window],
           _check_catfid),
        Op("window_tradeoff", ["scan", "mixfid", "--fock", "5", "--d", mixfid_span,
                               "--points", "21"], _check_mixfid),
    ]
    return ops


def _cubic_match(shift: float, small: bool) -> list[Op]:
    """scripts/run_gate_comparison.py without --ladder; ``small`` keeps the
    probability-matched point only.  Its inputs do not depend on the seed:
    it has no outcome grid to shift."""
    points = [(PROBABILITY_MATCHED, "probmatch", "probability", "0.098", "fit_s_probability")]
    if not small:
        points.append((FIDELITY_MATCHED, "fidmatch", "infidelity", "0.005", "fit_s_infidelity"))
    ops = []
    for (gamma, y_m, _), tag, *_ in points:
        ops.append(Op(f"squeeze_{tag}", ["scan", "squeeze", "--gamma", gamma, "--ym", y_m],
                      _check_squeeze_scan))
    for (gamma, y_m, _), tag, target, value, key in points:
        ops.append(Op(f"fit_{target}", ["match", "squeeze", "--gamma", gamma, "--ym", y_m,
                                        f"--{target}", value], _check_fit(key)))
    for cfg, tag, *_ in points:
        ops.append(Op(f"compare_{tag}", ["match", "compare", "--fock", "5", "--cubic",
                                         ",".join(cfg), "--wigner"], _check_compare(tag)))
    return ops


def _ladder_search(shift: float, small: bool) -> list[Op]:
    """``catgate match ladder`` at s = 0.05: two entries, one when ``small``."""
    k_max = 1 if small else 2
    argv = ["match", "ladder", "--kmax", str(k_max)]
    if shift:
        argv += ["--scan", f"{_num(0.5 + 0.05 * shift)},13,0.05"]
    return [Op("ladder", argv, _check_ladder(k_max))]


def operations(workload: str, seed: int, small: bool = False) -> list[Op]:
    """The commands of one pass of ``workload`` for ``seed``."""
    build = {"fock_dataset": _fock_dataset, "cubic_match": _cubic_match,
             "ladder_search": _ladder_search}[workload]
    return build(grid_shift(seed), small)


#: The call each workload makes once during set-up, on its own code path.
WARM_UP = {
    "fock_dataset": ["collapse", "--fock", "5", "--ym", "0"],
    "cubic_match": ["collapse", "--cubic", ",".join(PROBABILITY_MATCHED)],
    "ladder_search": ["collapse", "--cubic", ",".join(PROBABILITY_MATCHED)],
}
