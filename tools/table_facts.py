"""Print the facts of every mu_hat table that one CLI command builds.

    PYTHONPATH=src python tools/table_facts.py decay --config configs/decay_cantor_square.json --out OUT

The arguments are those of the ``fractal-fourier`` command line.  The
command runs in this process (``fractal_fourier.cli.main``), with every
``fourier._MuHatTable`` it builds timed; after the command's own output,
one JSON line per table gives its columns (h, or h and h2), range
``eta_max``, cells, step, the requested ``table_tol``, whether the step
was widened to keep the cells at ``MAX_TABLE_CELLS`` (its slack can then
pass ``table_tol``), slack per column, build seconds and the bytes of its
coefficient columns.  The exit status is the command's.
"""

import json
import sys
import time

from fractal_fourier import cli, fourier


def run(argv):
    """(exit status of the CLI command ``argv``, facts of each table it built, in build order)."""
    build = fourier._MuHatTable
    tables = []

    def timed(*args):
        start = time.perf_counter()
        table = build(*args)
        seconds = time.perf_counter() - start
        tables.append({
            "columns": ["h", "h2"][: len(table.slacks)],
            "range": table.eta_max,
            "cells": len(table.values),
            "step": table.h,
            "table_tol": table.table_tol,
            "widened": table.widened,
            "slacks": table.slacks,
            "build_s": round(seconds, 4),
            "bytes": sum(coef.nbytes for column in table.cells for coef in column),
        })
        return table

    fourier._MuHatTable = timed
    try:
        status = cli.main(argv)
    finally:
        fourier._MuHatTable = build
    return status, tables


def main(argv=None) -> int:
    status, tables = run(sys.argv[1:] if argv is None else argv)
    for facts in tables:
        print(json.dumps(facts))
    return status


if __name__ == "__main__":
    sys.exit(main())
