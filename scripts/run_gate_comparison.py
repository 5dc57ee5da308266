#!/usr/bin/env python3
"""Compare the Fock-state gate against the cubic-phase-state gate.

Emits the squeezing sweeps at the two matched operating points, the fits of
the squeezing factor to the Fock gate's probability and infidelity, and
side-by-side comparison reports with Wigner grids.  ``--ladder`` additionally
runs the full nine-entry odd-cat operating-point search (about 2 ms on a
2-core Xeon VM).
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

PROBABILITY_MATCHED = ("0.075", "2.486", "0.171")
FIDELITY_MATCHED = ("0.334", "11.012", "0.241")


def run(outdir: str, with_ladder: bool) -> None:
    os.makedirs(outdir, exist_ok=True)
    out = lambda name: os.path.join(outdir, name)

    for (gamma, y_m, _), tag in ((PROBABILITY_MATCHED, "probmatch"),
                                 (FIDELITY_MATCHED, "fidmatch")):
        catgate(["scan", "squeeze", "--gamma", gamma, "--ym", y_m,
                 "--out", out(f"squeeze_{tag}")])

    catgate(["match", "squeeze", "--gamma", PROBABILITY_MATCHED[0],
             "--ym", PROBABILITY_MATCHED[1], "--probability", "0.098",
             "--out", out("fit_probability")])
    catgate(["match", "squeeze", "--gamma", FIDELITY_MATCHED[0],
             "--ym", FIDELITY_MATCHED[1], "--infidelity", "0.005",
             "--out", out("fit_infidelity")])

    for cfg, tag in ((PROBABILITY_MATCHED, "probmatch"), (FIDELITY_MATCHED, "fidmatch")):
        catgate(["match", "compare", "--fock", "5", "--cubic", ",".join(cfg),
                 "--wigner", "--out", out(f"compare_{tag}")])

    if with_ladder:
        catgate(["match", "ladder", "--kmax", "9", "--out", out("ladder")])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/comparison")
    parser.add_argument("--ladder", action="store_true",
                        help="also run the full odd-cat operating-point search")
    args = parser.parse_args()
    run(args.outdir, args.ladder)
