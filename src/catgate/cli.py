"""Command-line front end.

Subcommands map onto reproducible experiments: ``collapse`` and ``wigner``
for single operating points, ``scan`` for curves (probability, fidelities,
acceptance-window averages, squeezing sweeps), and ``match`` for the
parameter-matching searches.  All outputs are CSV files with ``#`` comment
headers plus JSON summaries; every CSV carries a ``.meta.json`` sidecar with
the parameter echo, which reruns the command as a ``--config`` section.
Deterministic: rerunning a command reproduces the output byte for byte.

``COMMANDS`` is the one table of subcommands, their typed options and compute
functions; the argument parser, the option resolver and the file writer are
derived from it.  An option comes from its flag, else the command's section
of the ``--config`` file, else (the grid only) the environment variable
``CATGATE_GRID`` ("xmin,xmax,n"), else its default.

Exit codes: 0 success, 2 usage/config error (an axis too large for memory
among them), 3 numerical non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cache
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import __version__
from .analysis import WIGNER_STRIDE, WignerGrid, WignerRows, strided_axis
from .analysis import fidelity_cat, fidelity_coh, fidelity_mix
from .cubic import SQUEEZING_SWEEP, CubicGateConfig, squeezing_db, squeezing_scan
from .errors import CatGateError, ConvergenceError, LinearizationDomainError
from .gate import Grader, collapse, probability_scan
from .matching import LADDER_ENTRIES, compare_gates, fit_squeezing, ladder_entries, odd_cat_ladder
from .numerics import MIN_SQUEEZING, Grid, default_grid, validate_fock_order
from .semiclassical import REFERENCE_N, BestPhaseCat, reference_cat
from .states import FockResource, make_vacuum

GRID_ENV_VAR = "CATGATE_GRID"


# ---------------------------------------------------------------- parsing
# A parser turns an option's text into its typed value or raises ValueError,
# which the resolver reports with the option's flag.  Every ValueError, from
# here or from the library, is a usage error (exit code 2).

def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _positive(parse: Callable, kind: str) -> Callable:
    def positive(text: str):
        value = parse(text)
        if value <= 0:
            raise ValueError(f"expected a positive {kind}, got {text!r}")
        return value
    return positive


_positive_float = _positive(_float, "number")
_positive_int = _positive(_int, "integer")


def _ladder_entry(text: str) -> int:
    return ladder_entries(_int(text))


def _bool(text: str) -> bool:
    """A switch's 'true', or config-file text such as 'yes' or 'off'."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _fields(form: str, *parsers: Callable, into: Callable | None = None,
            ordered: bool = False) -> Callable:
    """Parser of the comma-separated fields that ``form`` names, one parser
    each; the values are passed to ``into`` if given.  An ``ordered`` range
    'lo,hi,...' with hi < lo is empty and refused; hi == lo is one node."""
    def parse(text: str):
        parts = text.split(",")
        if len(parts) != len(parsers):
            raise ValueError(f"expected '{form}', got {text!r}")
        values = tuple(field_parser(part) for field_parser, part in zip(parsers, parts))
        if ordered and values[1] < values[0]:
            raise ValueError(f"empty range {text!r}")
        return values if into is None else into(*values)
    return parse


_grid_spec = _fields("xmin,xmax,n", _float, _float, _int, into=Grid)
_cubic_spec = _fields("gamma,ym,s", _float, _float, _float, into=CubicGateConfig)
_triple = _fields("lo,hi,count", _float, _float, _positive_int)
_scan_range = _fields("lo,hi,step", _float, _float, _positive_float, ordered=True)
_pair = _fields("lo,hi", _float, _float, ordered=True)
_axis_spec = _fields("lo,hi,count", _float, _float, _int, into=Grid)


def _strided_axis(text: str, grid: Grid) -> Grid:
    """'8' -> the axis of every 8th node of the grid."""
    return strided_axis(grid, _positive_int(text))


def _fock_range(text: str) -> list[int]:
    """'1..10' or '5' -> list of Fock orders; both ends, and so every order
    between them, pass ``validate_fock_order``."""
    lo, dots, hi = text.partition("..")
    lo_i = _int(lo)
    hi_i = _int(hi) if dots else lo_i
    if hi_i < lo_i:
        raise ValueError(f"empty range {text!r}")
    validate_fock_order(lo_i)
    validate_fock_order(hi_i)
    return list(range(lo_i, hi_i + 1))


def _span(text: str) -> tuple[float, float]:
    """'0..2' -> (0.0, 2.0)."""
    if ".." not in text:
        raise ValueError(f"expected 'lo..hi', got {text!r}")
    lo, hi = text.split("..", 1)
    lo_f, hi_f = _float(lo), _float(hi)
    if hi_f <= lo_f:
        raise ValueError(f"empty span {text!r}")
    return lo_f, hi_f


# ---------------------------------------------------------------- table types

@dataclass(frozen=True)
class Param:
    """One option: ``--key`` on the command line, ``key = ...`` in the
    command's config-file section.  ``default`` is text, parsed like a flag,
    and the help shows it.  An option parsed by ``_bool`` is a switch on the
    command line, whose text is 'true'.  An ``on_grid`` option's parser also
    takes the command's parsed grid, after every other option is parsed."""

    flag: str
    parse: Callable
    default: str | None = None
    help: str = ""
    env: str | None = None
    on_grid: bool = False

    @property
    def key(self) -> str:
        return self.flag[2:]


@dataclass
class Table:
    """One CSV file: its title, its columns (name -> 1-D numbers, or two
    axes and an iterator of row blocks of a grid over them) and what its
    ``.meta.json`` sidecar adds to the echo, or a function that gives that
    once the table is written."""

    title: str
    columns: dict
    extra: dict | Callable[[], dict] = field(default_factory=dict)


@dataclass
class Output:
    """What one command computed: its files in the order they are written and
    announced, each a suffix of the ``--out`` prefix with a Table or a JSON
    summary dict, then a note for stdout, or a function that gives it once
    the files are written.  ``_write`` adds the parameter echo from the
    command's options."""

    files: list[tuple[str, Table | dict]]
    note: str | Callable[[], str] = ""


@dataclass(frozen=True)
class Command:
    """One subcommand: path, help, own options, compute function
    ``values -> Output`` and the options it cannot do without.  The options
    are also what every output file echoes."""

    path: tuple[str, ...]
    help: str
    params: tuple[Param, ...]
    compute: Callable[[SimpleNamespace], Output]
    required: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return " ".join(self.path)


def _grid_params(grid: Grid) -> str:
    return f"{grid.x_min},{grid.x_max},{grid.n_points}"


GRID = Param("--grid", _grid_spec, _grid_params(default_grid()),
             "grid override 'xmin,xmax,n'", env=GRID_ENV_VAR)
OUT = Param("--out", str, None, "output path prefix")


# ---------------------------------------------------------------- resolver

def _load_config(path: str | None, section: str) -> dict[str, str]:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"config file {path!r}: {exc}") from None
    if not read:
        raise ValueError(f"config file {path!r} not found or unreadable")
    if not parser.has_section(section):
        return {}
    return dict(parser.items(section))


def _resolve(command: Command, ns: argparse.Namespace) -> tuple[SimpleNamespace, dict]:
    """Each option's text (flag, config file, environment, default), then its
    parsed value.  Returns the values, for the compute function, and the
    texts, for ``_write`` to echo."""
    config = _load_config(ns.config, command.name)
    options = command.params + (replace(OUT, default="_".join(command.path)),)
    unknown = sorted(set(config) - {p.key for p in options})
    if unknown:
        raise ValueError(f"unknown config keys in [{command.name}]: {unknown}")
    texts = {}
    for p in options:
        sources = (getattr(ns, p.key), config.get(p.key), p.env and os.environ.get(p.env), p.default)
        texts[p.key] = next((text for text in sources if text is not None), None)
    if any(texts[key] is None for key in command.required):
        flags = " and ".join(f"--{key}" for key in command.required)
        raise ValueError(f"{command.name} requires {flags}")
    values = {}
    for p in sorted(options, key=lambda p: p.on_grid):
        try:
            grid = (values["grid"],) if p.on_grid else ()
            values[p.key] = None if texts[p.key] is None else p.parse(texts[p.key], *grid)
        except ValueError as exc:
            raise ValueError(f"{p.flag}: {exc}") from None
    return SimpleNamespace(**values), texts


def _exactly_one(values: SimpleNamespace, a: str, b: str) -> None:
    if (getattr(values, a) is None) == (getattr(values, b) is None):
        raise ValueError(f"exactly one of --{a} or --{b} is required")


# ---------------------------------------------------------------- writer

def _fmt(value: float) -> str:
    return f"{value:.12g}"


#: Rows of a 1-D table that become Python floats at a time.
_CSV_BLOCK_ROWS = 1024


def _write_csv(path: str, title: str, columns: dict) -> None:
    """One CSV table, UTF-8 with LF line endings, formatted straight into
    bytes.  A table whose last column is an iterator of 2-D float blocks of
    consecutive rows is a grid in long format, one row per cell: its first
    two columns are the axes and ``W[i, j]`` belongs to ``(x_i, y_j)``.
    Only one grid row, or one block of ``_CSV_BLOCK_ROWS`` rows of a 1-D
    table, at a time becomes Python floats."""
    names = list(columns)
    *axes, grid = columns.values()
    with open(path, "wb") as fh:
        fh.write(f"# {title}\n# columns: {', '.join(names)}\n{','.join(names)}\n".encode())
        if isinstance(grid, Iterator):
            x, y = (np.asarray(axis, dtype=float).tolist() for axis in axes)
            # every x row is one template: x between the pieces, then W by one %;
            # a row of +0.0 only is its text already ("%.12g" % -0.0 is "-0")
            pieces = [b""] + [b",%.12g,%%.12g\n" % y_j for y_j in y]
            zero_pieces = [b""] + [piece % 0.0 for piece in pieces[1:]]
            start = 0
            for w in grid:
                # any() reduces without a block-sized mask; a row of +-0 only
                # is then checked for -0 on its own
                live = w.any(axis=1)
                rows = zip(x[start:start + len(w)], w, live.tolist())
                fh.writelines((b"%.12g" % x_i).join(pieces) % tuple(w_i.tolist())
                              if live_i or np.signbit(w_i).any()
                              else (b"%.12g" % x_i).join(zero_pieces)
                              for x_i, w_i, live_i in rows)
                start += len(w)
        else:
            row = b",".join([b"%.12g"] * len(names)) + b"\n"
            values = [np.atleast_1d(np.asarray(columns[c], dtype=float)) for c in names]
            for start in range(0, min(v.size for v in values), _CSV_BLOCK_ROWS):
                cells = zip(*(v[start:start + _CSV_BLOCK_ROWS].tolist() for v in values))
                fh.writelines(row % cell for cell in cells)


def _write_json(path: str, payload: dict) -> None:
    """One JSON file in one write, with an LF line end on every platform."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n")


def _write(command: Command, v: SimpleNamespace, texts: dict, output: Output) -> None:
    """Every file of one command, each echoing the version and the
    parameters: every option's resolved text under its config key, the grid
    as the grid it parsed to, and neither ``--out`` nor ``--config``, so that
    the parameters rerun the command as its config section.  Then the stdout
    line."""
    params = {p.key: texts[p.key] for p in command.params if texts[p.key] is not None}
    if GRID in command.params:
        params["grid"] = _grid_params(v.grid)
    echo = {"parameters": params, "version": __version__}
    written, opened = [], []
    try:
        for suffix, content in output.files:
            path = v.out + suffix
            opened.append(path)
            if isinstance(content, Table):
                _write_csv(path, f"catgate {command.name}: {content.title}", content.columns)
                extra = content.extra() if callable(content.extra) else content.extra
                opened.append(path + ".meta.json")
                _write_json(path + ".meta.json", {"command": command.name, **echo, **extra})
            else:
                _write_json(path, {**content, **echo})
            written.append(path)
        note = output.note() if callable(output.note) else output.note
    except BaseException:
        # a failure mid-way, a streamed grid's MemoryError say, leaves no file
        for path in opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    note = f" ({note})" if note else ""
    print(f"wrote {', '.join(written)}{note}")


def _wigner_table(rows: WignerRows, title: str, extra: Callable[[WignerGrid], dict]) -> Table:
    """A Wigner grid streamed into its long-format (x, y, W) table; the
    sidecar is ``extra`` of the summary that the writer's pass leaves."""
    return Table(title, {"x": rows.x_axis.points, "y": rows.y_axis.points,
                         "W": (values for values, _ in rows)}, lambda: extra(rows.summary))


# ---------------------------------------------------------------- commands

def _resource(v: SimpleNamespace):
    """The --fock or --cubic resource and the outcome: --ym, else the cubic
    point's, else 0.  A --ym replaces the cubic point's y_m, under its rules."""
    _exactly_one(v, "fock", "cubic")
    if v.cubic is None:
        return FockResource(v.fock), 0.0 if v.ym is None else v.ym
    cubic = v.cubic if v.ym is None else replace(v.cubic, y_m=v.ym)
    return cubic.resource, cubic.y_m


def _collapse(v) -> Output:
    resource, y_m = _resource(v)
    result = collapse(make_vacuum(v.grid), resource, y_m)
    fock = isinstance(resource, FockResource)
    fidelities = {"cat": fidelity_cat(result.psi_out, resource.n if fock else REFERENCE_N)}
    if fock:
        try:
            fidelities["coh"] = fidelity_coh(result.psi_out, resource.n, y_m)
        except LinearizationDomainError:
            pass
    psi = result.psi_out.values
    table = Table(
        f"output wavefunction, resource={resource!r}, ym={_fmt(y_m)}",
        {"x": v.grid.points, "re": psi.real, "im": psi.imag, "abs2": np.abs(psi) ** 2},
    )
    summary = {"y_m": y_m, "norm_N": result.norm_N, "P": result.norm_N, "fidelities": fidelities}
    return Output([(".csv", table), (".json", summary)], f"P={result.norm_N:.6g}")


def _wigner(v) -> Output:
    if v.vacuum:
        if v.fock is not None or v.cubic is not None or v.ym is not None:
            raise ValueError("--vacuum excludes --fock/--cubic/--ym")
        state = make_vacuum(v.grid)
    else:
        resource, y_m = _resource(v)
        state = collapse(make_vacuum(v.grid), resource, y_m).psi_out
    # the resolver builds --stride's axis
    rows = WignerRows(state, v.stride, v.paxis)

    def extra(summary: WignerGrid) -> dict:
        norm = summary.normalization()
        return {
            "x_axis": _grid_params(summary.x_axis),
            "y_axis": _grid_params(summary.y_axis),
            "normalization": norm,
            "normalization_residual": norm - 1.0,
            "imag_residue": summary.imag_residue,
            "min_value": summary.min_value,
            "max_value": summary.max_value,
        }

    table = _wigner_table(rows, "phase-space quasi-probability, long format", extra)
    return Output([(".csv", table)], lambda: f"normalization={rows.summary.normalization():.6f}, "
                                             f"min={rows.summary.min_value:.4f}")


def _scan_probability(v) -> Output:
    psi_in = make_vacuum(v.grid)
    curves, integrals = [], {}
    for n in v.fock:
        half = 12.0 + FockResource(n).copy_shift(0.0)
        lo, hi = v.window if v.window is not None else (-half, half)
        curve = probability_scan(psi_in, FockResource(n), np.arange(lo, hi + v.step / 2, v.step))
        curves.append(np.column_stack([np.full(len(curve), n), curve]))
        integrals[str(n)] = float(np.trapezoid(curve[:, 1], curve[:, 0]))
    rows = np.concatenate(curves)
    table = Table("homodyne outcome density for Fock resources",
                  {"n": rows[:, 0], "ym": rows[:, 1], "P": rows[:, 2]}, {"integrals": integrals})
    return Output([(".csv", table)], f"integrals: {integrals}")


def _scan_cohfid(v) -> Output:
    psi_in = make_vacuum(v.grid)
    columns = []
    for n in v.fock:
        ys = np.arange(0.0, 0.98 * FockResource(n).copy_shift(0.0), v.step)
        _, fidelities = Grader(psi_in, BestPhaseCat(n)).grade([(FockResource(n), ys)])
        columns.append((np.full(ys.size, n), ys, 1.0 - fidelities))
    n_col, y_col, f_col = map(np.concatenate, zip(*columns))
    table = Table("infidelity vs outcome, best-phase reference",
                  {"n": n_col, "ym": y_col, "infidelity_coh": f_col})
    return Output([(".csv", table)], f"{len(n_col)} rows")


def _scan_catfid(v) -> Output:
    psi_in = make_vacuum(v.grid)
    lo, hi = v.window
    ys = np.arange(lo, hi + v.step / 2, v.step)
    reference = reference_cat(v.fock, 0.0, v.grid)
    _, fidelities = Grader(psi_in, reference).grade([(FockResource(v.fock), ys)])
    table = Table("infidelity vs outcome, fixed even/odd cat reference",
                  {"ym": ys, "infidelity_cat": 1.0 - fidelities})
    return Output([(".csv", table)], f"{len(ys)} rows")


def _scan_mixfid(v) -> Output:
    psi_in = make_vacuum(v.grid)
    ds = np.linspace(*v.d, v.points)
    f_mix, p_mix = fidelity_mix(v.fock, ds, psi_in)
    table = Table("acceptance-window width vs mixed-state infidelity",
                  {"d": ds, "P_mix": p_mix, "infidelity_mix": 1.0 - f_mix})
    return Output([(".csv", table)], f"{v.points} rows")


def _scan_squeeze(v) -> Output:
    lo, hi, count = v.srange
    s = np.linspace(lo, hi, count)
    probability, infidelity = squeezing_scan(v.gamma, v.ym, s, v.grid)
    table = Table("probability and cat infidelity vs ancilla squeezing", {
        "s": s,
        "inverse_s": 1.0 / s,
        "squeezing_db": [squeezing_db(s_i) for s_i in s.tolist()],
        "P": probability,
        "infidelity_cat": infidelity,
    })
    return Output([(".csv", table)], f"{count} rows")


def _match_ladder(v) -> Output:
    scan = dict(zip(("scan_start", "scan_stop", "scan_step"), v.scan or ()))
    entries = odd_cat_ladder(v.kmax, s=v.s, **scan)
    y_col, gamma_col = zip(*entries)
    table = Table("odd-cat operating points along the matched-spacing line",
                  {"entry": range(1, len(entries) + 1), "ym": y_col, "gamma": gamma_col})
    summary = {"entries": [{"entry": i + 1, "ym": y_m, "gamma": gamma}
                           for i, (y_m, gamma) in enumerate(entries)]}
    return Output([(".csv", table), (".json", summary)], f"{len(entries)} entries")


def _match_squeeze(v) -> Output:
    _exactly_one(v, "probability", "infidelity")
    target = "probability" if v.probability is not None else "infidelity"
    value = getattr(v, target)
    report = fit_squeezing(v.gamma, v.ym, target, value, grid=v.grid)
    if not report.converged:
        raise ConvergenceError(
            f"fit did not converge: achieved {getattr(report, f'achieved_{target}'):.6g} "
            f"vs target {value} (tolerance {report.tolerance})"
        )
    fitted = report.fitted
    summary = {
        "target": {"kind": target, "value": value},
        "fitted": {"gamma": fitted.gamma, "ym": fitted.y_m, "s": fitted.s,
                   "squeezing_db": squeezing_db(fitted.s)},
        "achieved": {"probability": report.achieved_probability,
                     "infidelity": report.achieved_infidelity},
        "iterations": report.iterations,
        "converged": report.converged,
    }
    return Output([(".json", summary)], f"s={fitted.s:.4f}")


def _match_compare(v) -> Output:
    _exactly_one(v, "entry", "cubic")
    cfg = v.cubic
    if cfg is None:
        if v.fock % 2 == 0:
            raise ValueError(f"--entry: the ladder holds odd cats; --fock {v.fock} is even")
        # equal success probability: fit s so the cubic gate matches the
        # Fock gate's own density at its optimal outcome
        target_p = float(Grader(make_vacuum(v.grid)).grade([(FockResource(v.fock), [0.0])])[0][0])
        y_m, gamma = odd_cat_ladder(v.entry, reference_n=v.fock)[v.entry - 1]
        cfg = fit_squeezing(gamma, y_m, "probability", target_p, grid=v.grid).fitted

    comparison = compare_gates(v.fock, cfg, grid=v.grid)
    sides = {"fock": comparison.fock, "cubic": comparison.cubic}
    summary = {
        tag: {
            "label": side.label,
            "P": side.probability,
            "infidelity_cat": side.infidelity,
            "copy_spacing": side.copy_spacing if math.isfinite(side.copy_spacing) else None,
        }
        for tag, side in sides.items()
    }
    summary["infidelity_ratio"] = comparison.infidelity_ratio
    files = [(".json", summary)]
    if v.wigner:
        psi_in = make_vacuum(v.grid)
        for tag, resource, y_m in (("fock", FockResource(v.fock), 0.0),
                                   ("cubic", cfg.resource, cfg.y_m)):
            files.append(_side_wigner(tag, collapse(psi_in, resource, y_m).psi_out))
    return Output(files)


def _side_wigner(tag: str, state) -> tuple[str, Table]:
    """One side's streamed Wigner table of ``match compare --wigner``."""
    return f"_{tag}_wigner.csv", _wigner_table(
        WignerRows(state), f"wigner grid for the {tag} side",
        lambda summary: {"side": tag, "normalization": summary.normalization()})


# ---------------------------------------------------------------- the table

FOCK = Param("--fock", _int, None, "Fock resource photon number")
FOCK_RANGE = Param("--fock", _fock_range, None, "photon number or range 'lo..hi'")
FOCK_REF = Param("--fock", _int, str(REFERENCE_N), "photon number")
CUBIC = Param("--cubic", _cubic_spec, None, "cubic resource 'gamma,ym,s'")
STEP = Param("--step", _positive_float, "0.05", "outcome step")
GAMMA = Param("--gamma", _float, None, "cubic nonlinearity")
YM = Param("--ym", _float, None, "homodyne outcome")

COMMANDS = (
    Command(("collapse",), "collapse the vacuum by one homodyne outcome", (
        FOCK,
        CUBIC,
        replace(YM, help="homodyne outcome (default 0, or the --cubic ym)"),
        GRID,
    ), _collapse),
    Command(("wigner",), "phase-space grid of an output state", (
        Param("--vacuum", _bool, "false", "plain vacuum state"),
        FOCK,
        CUBIC,
        replace(YM, help="homodyne outcome (default 0)"),
        Param("--stride", _strided_axis, str(WIGNER_STRIDE), "stride of the axes", on_grid=True),
        Param("--paxis", _axis_spec, None, "momentum axis 'lo,hi,count' (default: same as x)"),
        GRID,
    ), _wigner),
    Command(("scan", "probability"), "outcome density curves", (
        FOCK_RANGE,
        STEP,
        Param("--window", _pair, None, "outcome window 'lo,hi' (default per-n)"),
        GRID,
    ), _scan_probability, required=("fock",)),
    Command(("scan", "cohfid"), "best-phase infidelity vs outcome", (
        FOCK_RANGE,
        STEP,
        GRID,
    ), _scan_cohfid, required=("fock",)),
    Command(("scan", "catfid"), "fixed-cat infidelity vs outcome", (
        FOCK_REF,
        Param("--window", _pair, "0,3", "outcome window 'lo,hi'"),
        STEP,
        GRID,
    ), _scan_catfid),
    Command(("scan", "mixfid"), "acceptance-window fidelity trade-off", (
        FOCK_REF,
        Param("--d", _span, "0..2", "window-width span 'lo..hi'"),
        Param("--points", _positive_int, "11", "number of widths"),
        GRID,
    ), _scan_mixfid),
    Command(("scan", "squeeze"), "probability/infidelity vs squeezing", (
        GAMMA,
        YM,
        Param("--srange", _triple, ",".join(map(str, SQUEEZING_SWEEP)),
              "squeezing scan 'lo,hi,count'"),
        GRID,
    ), _scan_squeeze, required=("gamma", "ym")),
    Command(("match", "ladder"), "odd-cat operating points on the matched line", (
        Param("--kmax", _ladder_entry, str(LADDER_ENTRIES), "number of entries"),
        Param("--s", _float, str(MIN_SQUEEZING), "ancilla squeezing during the search"),
        Param("--scan", _scan_range, None, "scan override 'lo,hi,step'"),
    ), _match_ladder),
    Command(("match", "squeeze"), "fit squeezing to a target", (
        GAMMA,
        YM,
        Param("--probability", _float, None, "probability-density target"),
        Param("--infidelity", _float, None, "cat-infidelity target"),
        GRID,
    ), _match_squeeze, required=("gamma", "ym")),
    Command(("match", "compare"), "Fock vs cubic side-by-side report", (
        FOCK_REF,
        Param("--entry", _ladder_entry, None,
              "ladder entry to compare against (fits s for equal P)"),
        Param("--cubic", _cubic_spec, None, "explicit cubic config 'gamma,ym,s'"),
        Param("--wigner", _bool, "false", "also write both wigner grids"),
        GRID,
    ), _match_compare),
)

GROUPS = {"scan": "curve emission", "match": "parameter matching"}


# ---------------------------------------------------------------- wiring

@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``COMMANDS``, built on the first call and shared by every
    ``main`` call in the process: it holds only the static table, and each
    parse returns a fresh namespace.  Callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="catgate",
        description="measurement-assisted cat-state gate simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    parents = {(): commands}
    for command in COMMANDS:
        group = command.path[:-1]
        if group not in parents:
            parents[group] = commands.add_parser(group[0], help=GROUPS[group[0]]).add_subparsers(
                dest=f"{group[0]}_command", required=True)
        sub = parents[group].add_parser(command.path[-1], help=command.help)
        for p in command.params + (OUT,):
            switch = {"action": "store_const", "const": "true"} if p.parse is _bool else {}
            default = "" if p.default is None else f" (default {p.default})"
            sub.add_argument(p.flag, help=p.help + default, **switch)
        sub.add_argument("--config", help="INI-style config file; flags win over file values")
        sub.set_defaults(spec=command)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        values, texts = _resolve(ns.spec, ns)
        _write(ns.spec, values, texts, ns.spec.compute(values))
        return 0
    except ConvergenceError as exc:
        print(f"error: not converged: {exc}", file=sys.stderr)
        return 3
    except (ValueError, CatGateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory, choose smaller axes: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
