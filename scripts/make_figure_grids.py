#!/usr/bin/env python3
"""Regenerate the curvature-surface CSV grids for all figures.

Writes fig1.csv ... fig5.csv into the output directory; the files are
plain tables (plot them with any tool). Ranges can be widened to inspect
the asymptotic regions.
"""

import argparse
import pathlib
import sys

from gaussfisher.cli import main as gaussfisher_main

FIGURES = ["1", "2a", "2b", "3", "4a", "4b", "5"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out/figures")
    parser.add_argument("--range", dest="value_range", default=None,
                        help="LO:HI override for the free-range figures")
    parser.add_argument("--count", type=int, default=None)
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for figure in FIGURES:
        target = outdir / f"fig{figure}.csv"
        cmd = ["surface", figure, "--out", str(target)]
        # the perpendicular sections have fixed domains; leave them alone
        if args.value_range and figure not in ("2b", "4b"):
            cmd += ["--range", args.value_range]
        if args.count is not None:
            cmd += ["--count", str(args.count)]
        status = gaussfisher_main(cmd)
        if status != 0:
            return status
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
