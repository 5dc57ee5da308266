#!/usr/bin/env python3
"""Produce the full Fock-gate dataset: collapsed states and their Wigner
functions for several outcomes, the outcome-density curves, both infidelity
curves, and the acceptance-window trade-off.

Writes CSV/JSON files under --outdir; plot with any external tool.
"""

import argparse
import os
import sys

from catgate.cli import main as catgate_main


def catgate(argv: list[str]) -> None:
    """Run one ``catgate`` command; exit with its code if it fails."""
    code = catgate_main(argv)
    if code:
        sys.exit(code)


def run(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    out = lambda name: os.path.join(outdir, name)

    # collapsed states and phase-space grids for a few outcomes
    for y_m in (0.0, 1.0, 2.0):
        tag = str(y_m).replace(".", "p")
        catgate(["collapse", "--fock", "5", "--ym", str(y_m), "--out", out(f"fock5_ym{tag}")])
        catgate(["wigner", "--fock", "5", "--ym", str(y_m), "--out", out(f"wigner_fock5_ym{tag}")])

    # outcome densities for n = 1..10 and the two infidelity measures
    catgate(["scan", "probability", "--fock", "1..10", "--out", out("probability")])
    catgate(["scan", "cohfid", "--fock", "1..10", "--out", out("infidelity_bestphase")])
    catgate(["scan", "catfid", "--fock", "5", "--window", "0,3", "--out", out("infidelity_cat")])

    # success probability vs fidelity when widening the acceptance window
    catgate(["scan", "mixfid", "--fock", "5", "--d", "0..2", "--points", "21",
             "--out", out("window_tradeoff")])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/fock_gate")
    run(parser.parse_args().outdir)
