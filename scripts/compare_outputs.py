#!/usr/bin/env python3
"""Compare two output trees of the experiment scripts, file by file.

    python scripts/compare_outputs.py OLD NEW

Lists the files that are byte-identical in both trees.  For every other file
it prints the largest absolute difference |b - a| of each CSV column (``#``
comment lines skipped) or of each JSON value, by its key path, and beside it
the largest relative one, |b - a| / |a| over the pairs with a != 0, so that a
loss in a column's small values shows next to its bound in absolute terms.
Last comes the scaled one, the largest |b - a| over the column's largest |a|:
roundoff in a column of values and tails (a Wigner table) reads small there
even where its near-zero cells make the relative one large.  Values that are
not numbers and differ, and columns or keys found on one side only, read inf.
Exits 0 when every file is byte-identical, else 1, also when the reader of
its output stops early (``| head``).
"""

import csv
import json
import math
import os
import sys
from pathlib import Path


def leaves(node, key: str = "") -> dict:
    """JSON key path -> [value], for every value that is no object or list."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return {k: v for sub, item in items for k, v in leaves(item, f"{key}.{sub}").items()}
    return {key or ".": [node]}


def values(path: Path) -> dict:
    """CSV column name, or JSON key path, -> its values."""
    if path.suffix == ".json":
        return leaves(json.loads(path.read_text()))
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header, *rows = list(csv.reader(lines)) or [[]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def largest(a: list, b: list) -> tuple[float, float, float]:
    """Largest |b - a|, largest |b - a| / |a| (a != 0) over paired values, and
    largest |b - a| over the largest |a|."""
    if len(a) != len(b):
        return math.inf, math.inf, math.inf
    worst = relative = peak = 0.0
    for x, y in zip(a, b):
        if x != y:
            try:
                x, y = float(x), float(y)
            except (TypeError, ValueError):
                return math.inf, math.inf, math.inf
            worst = max(worst, abs(y - x))
            if x != 0.0:
                relative = max(relative, abs(y - x) / abs(x))
        try:
            peak = max(peak, abs(float(x)))
        except (TypeError, ValueError):
            pass  # an equal value that is no number
    scaled = worst / peak if peak else (math.inf if worst else 0.0)
    return worst, relative, scaled


def main(old: str, new: str) -> int:
    old, new = Path(old), Path(new)
    names = sorted({p.relative_to(root) for root in (old, new)
                    for p in root.rglob("*") if p.is_file()})
    same = [n for n in names if (old / n).is_file() and (new / n).is_file()
            and (old / n).read_bytes() == (new / n).read_bytes()]
    try:
        report(old, new, names, same)
    except BrokenPipeError:
        pass  # the reader has gone; the verdict stands
    return 0 if len(same) == len(names) else 1


def report(old: Path, new: Path, names: list, same: list) -> None:
    """The identical files, then the largest differences of every other one."""
    print(f"byte-identical: {len(same)} of {len(names)} files")
    for name in same:
        print(f"  {name}")
    for name in (n for n in names if n not in same):
        if not ((old / name).is_file() and (new / name).is_file()):
            print(f"{name}: only in {old if (old / name).is_file() else new}")
            continue
        a, b = values(old / name), values(new / name)
        print(f"{name}:")
        for key in sorted(a.keys() | b.keys()):
            worst, relative, scaled = (largest(a[key], b[key]) if key in a and key in b
                                       else (math.inf, math.inf, math.inf))
            print(f"  {key}  {worst:.3g}  relative {relative:.3g}  scaled {scaled:.3g}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    code = main(*sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # drop what is still buffered, so that the exit's own flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
