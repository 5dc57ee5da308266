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
import itertools
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

#: Rows of a 1-D table that become Python floats at a time.
_CSV_BLOCK_ROWS = 1024
#: Cells of a grid table that ``_format_g12`` formats at a time, in whole
#: rows (one row at least).
_CSV_BLOCK_CELLS = 2048

# "%.12g" of a finite v != 0 is its 12 significant digits, rounded to
# nearest, as an integer m in [1e11, 1e12), and its decimal exponent e, with
# trailing zeros of the fraction dropped: "0." and -1-e zeros before the
# digits for -4 <= e < 0, a point after e + 1 digits for 0 <= e < 12, else
# a point after the first digit and "e-05"-style exponent.  ``_format_g12``
# takes e = floor(log10|v|) and r = |v| 10^(11-e), the power a correctly
# rounded float64, so r is within two roundings, 2.3e-4, of the exact
# |v| 10^(11-e) when r < 1e12.  So m = rint(r) is exact where r is within
# 0.499 of an integer, 1e11 <= r and m < 1e12.  Every other cell goes to
# "%" itself: ties, decade carries, a log10 off by one, 0 <= e < 12,
# |e| > 290, NaN and inf.  The tables are indexed by the clipped decade
# i = e + _G12_BIAS in [0, 2 _G12_BIAS]; i = 0 also holds every zero.
_G12_BIAS = 291


@cache
def _g12_tables() -> tuple[np.ndarray, ...]:
    """The kernel's tables, built by numpy from a few literals when the
    first grid table is written, so that other commands neither build nor
    hold them.  Each cell is 32 bytes: sign and lead ("-0.000") in 8, the
    first digit, the point and the second digit in 4, two more digits in
    4, four and four digits in 4 each, exponent and "\\n" in 8.  A byte that
    no text fills is NUL, and every pass writes all 32, so a buffer can be
    reused.  Text is only copied as whole words, never computed on, so it
    is the same in either byte order."""
    e = np.arange(2 * _G12_BIAS + 1) - _G12_BIAS
    kernel = (np.abs(e) < _G12_BIAS) & ((e < 0) | (e >= 12))
    e_form = kernel & ((e < -4) | (e >= 12))
    # the decimal literals' float64 values, so correctly rounded
    scale = np.where(kernel, np.strings.add(b"1e", (11 - e).astype("S4")).astype(np.float64), 0.0)

    lead = np.zeros((2, e.size, 8), np.uint8)
    lead[1, :, 0] = ord("-")
    lead[:, :, 1:6] = np.where((-4 <= e[:, None]) & (e[:, None] < 0) & (np.arange(5) < 1 - e[:, None]),
                               np.frombuffer(b"0.000", np.uint8), 0)
    lead[:, 0, 1] = ord("0")

    a = np.abs(e)[:, None]
    three = a >= 100
    digits = np.where(three, a // np.array([100, 10, 1]) % 10, a // np.array([10, 1, 1]) % 10) + ord("0")
    exponent = np.zeros((e.size, 8), np.uint8)
    exponent[:, 0] = np.where(e_form, ord("e"), ord("\n"))
    exponent[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exponent[:, 2:5] = digits
    exponent[:, 4] = np.where(three[:, 0], exponent[:, 4], ord("\n"))
    exponent[:, 5] = np.where(three[:, 0], ord("\n"), 0)
    exponent[~e_form, 1:] = 0

    # [stripped][g]: the digits of g, two or four, then with trailing zeros NUL
    def groups(width: int) -> np.ndarray:
        chars = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
        full = np.stack(np.meshgrid(*[chars] * width, indexing="ij"), axis=-1).reshape(-1, width)
        kept = np.logical_or.accumulate(full[:, ::-1] != ord("0"), axis=1)[:, ::-1]
        return np.stack([full, full * kept])

    pairs, quads = groups(2), groups(4)
    # [e-form][stripped][g]: first digit, the point if a digit follows it, second digit
    first = np.zeros((2, 2, 100, 4), np.uint8)
    first[:, :, :, 0] = pairs[:, :, 0]
    first[:, :, :, 2] = pairs[:, :, 1]
    first[1, :, :, 1] = (pairs[:, :, 1] != 0) * np.uint8(ord("."))
    return (scale, np.where(e_form, 200, 0), lead.view(np.uint64).ravel(),
            first.view(np.uint32).ravel(), np.pad(pairs, ((0, 0), (0, 0), (0, 2))).view(np.uint32).ravel(),
            quads.view(np.uint32).ravel(), exponent.view(np.uint64).ravel())


def _format_g12(values: np.ndarray, out: np.ndarray) -> int:
    """Write ``b"%.12g\\n" % v`` of each float64 v of ``values`` (1-D) into
    the row of ``out``, an (n, 4) uint64 array, NUL-padded (see
    ``_g12_tables``), and return how many cells "%" formatted."""
    scale, form, lead, first, pairs, quads, exponent = _g12_tables()
    a = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        i = np.log10(a)
        i += _G12_BIAS
        # NaN and log10(0) to the bottom row, inf to the top
        np.fmax(i, 0.0, out=i)
        np.fmin(i, 2 * _G12_BIAS, out=i)
        i = i.astype(np.intp)
        a *= scale[i]
        m = np.rint(a)
        exact = np.abs(a - m) < 0.499
    exact &= a >= 1e11
    exact &= m < 1e12
    m = np.where(exact, m, 0.0)
    del a
    # m's 12 digits as groups of 2, 2, 4 and 4, each the index of its text,
    # stripped if only zeros follow; every quotient is exact, since m < 2^53
    groups = []
    for size, stripped in ((1e10, 100.0), (1e8, 100.0), (1e4, 10000.0)):
        group = np.floor(m / size)
        m -= group * size
        group += (m == 0) * stripped
        groups.append(group.astype(np.intp))
    top, pair, mid = groups
    top += form[i]
    m += 10000.0
    out[:, 0] = lead[i + scale.size * np.signbit(values)]
    out[:, 3] = exponent[i]
    words = out.view(np.uint32)
    words[:, 2] = first[top]
    words[:, 3] = pairs[pair]
    words[:, 4] = quads[mid]
    words[:, 5] = quads[m.astype(np.intp)]
    slow = np.flatnonzero(~exact & (values != 0))
    out.view("S32")[slow, 0] = [b"%.12g\n" % v for v in values[slow].tolist()]
    return slow.size


def _text_fields(values, end: bytes) -> tuple[list[bytes], np.ndarray]:
    """``b"%.12g" % v`` of each value, and the same with ``end`` as an
    (n, words) uint64 array of NUL-padded 8-byte words."""
    texts = [b"%.12g" % v for v in np.asarray(values, dtype=float).tolist()]
    width = 8 * -(-(max(map(len, texts), default=0) + len(end)) // 8)
    fields = np.array([text + end for text in texts], dtype=f"S{width}")
    return texts, fields.view(np.uint64).reshape(len(texts), width // 8)


def _write_grid(fh, x, y, blocks: Iterator) -> None:
    """The long-format rows of a grid given as blocks of consecutive rows.
    A row of +0.0 only is its text already ("%.12g" % -0.0 is "-0"); the
    other rows go through ``_format_g12`` in passes of whole rows, about
    ``_CSV_BLOCK_CELLS`` cells, each pass one buffer of NUL-padded lines
    (x, y, W fields) that one ``translate`` compacts."""
    x_texts, x_fields = _text_fields(x, b",")
    y_texts, y_fields = _text_fields(y, b",")
    n, m = len(x_texts), len(y_texts)
    zero_pieces = [b""] + [b",%s,0\n" % y_j for y_j in y_texts]
    rows = max(1, _CSV_BLOCK_CELLS // max(m, 1))
    xw, yw = x_fields.shape[1], y_fields.shape[1]
    buffer = bytearray(8 * rows * m * (xw + yw + 4))
    lines = np.frombuffer(buffer, np.uint64).reshape(rows, m, -1)
    lines[:, :, xw:xw + yw] = y_fields
    start = 0
    for w in blocks:
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != m or start + len(w) > n:
            raise ValueError(f"grid block of shape {w.shape} at row {start} "
                             f"does not fit the {n} x {m} axes")
        # a row with a set bit holds a value other than +0.0
        live = w.view(np.uint64).any(axis=1).tolist()
        for is_live, run in itertools.groupby(range(len(w)), live.__getitem__):
            run = list(run)
            if not is_live:
                fh.writelines(x_texts[start + j].join(zero_pieces) for j in run)
                continue
            for i in range(run[0], run[-1] + 1, rows):
                k = min(i + rows, run[-1] + 1)
                size = 8 * (k - i) * m * (xw + yw + 4)
                lines[:k - i, :, :xw] = x_fields[start + i:start + k, None]
                _format_g12(w[i:k].ravel(), lines[:k - i].reshape((k - i) * m, -1)[:, xw + yw:])
                fh.write((buffer if size == len(buffer) else buffer[:size]).translate(None, b"\0"))
        start += len(w)
    if start != n:
        raise ValueError(f"grid of {start} rows for an x axis of {n}")


def _write_csv(path: str, title: str, columns: dict) -> None:
    """One CSV table, UTF-8 with LF line endings, formatted straight into
    bytes.  A table whose last column is an iterator of 2-D float blocks of
    consecutive rows is a grid in long format, one row per cell: its first
    two columns are the axes and ``W[i, j]`` belongs to ``(x_i, y_j)``
    (``_write_grid``); the blocks must cover the axes exactly, and an
    iterator that has ``close``, a generator say, is closed.  The
    columns of a 1-D table must be equally long, and only one block of
    ``_CSV_BLOCK_ROWS`` of its rows at a time becomes Python floats.  A
    table that does not fit is a ValueError."""
    names = list(columns)
    *axes, grid = columns.values()
    with open(path, "wb") as fh:
        fh.write(f"# {title}\n# columns: {', '.join(names)}\n{','.join(names)}\n".encode())
        if isinstance(grid, Iterator):
            try:
                _write_grid(fh, *axes, grid)
            finally:
                # a stream ends with its table: a failed write stops it
                # before the file goes
                if hasattr(grid, "close"):
                    grid.close()
        else:
            row = b",".join([b"%.12g"] * len(names)) + b"\n"
            values = [np.atleast_1d(np.asarray(columns[c], dtype=float)) for c in names]
            if len({v.size for v in values}) > 1:
                raise ValueError(f"columns of unequal lengths {[v.size for v in values]}")
            for start in range(0, values[0].size, _CSV_BLOCK_ROWS):
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
    sidecar is ``extra`` of the summary that the writer's pass leaves.
    Closing the W column closes the pass, and so joins its worker."""
    def values() -> Iterator[np.ndarray]:
        with contextlib.closing(iter(rows)) as blocks:
            for block, _ in blocks:
                yield block

    return Table(title, {"x": rows.x_axis.points, "y": rows.y_axis.points, "W": values()},
                 lambda: extra(rows.summary))


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
        f"output wavefunction, resource={resource!r}, ym={y_m:.12g}",
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
