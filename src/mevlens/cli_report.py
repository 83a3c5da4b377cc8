"""The ``report`` command."""

from __future__ import annotations

import os

from .chain_model import _log as log


def report(ctx):
    import glob
    from itertools import chain

    from . import reporting
    # escaped: the directory's name may hold a glob metacharacter
    files = sorted(glob.glob(os.path.join(glob.escape(ctx.out_dir), "findings_*.jsonl")))
    read = dict.fromkeys(files, 0)

    def rows(path):
        def count(row):
            read[path] += 1
            return row
        # map, not a loop, so that no row outlives its turn in the fold
        return map(count, reporting.read_findings(path))

    prices = ctx.prices()
    paths = reporting.emit_report(chain.from_iterable(map(rows, files)), ctx.out_dir,
                                  prices.eth_usd if prices is not None else None)
    log.info("report: read %d rows from %d files in %s%s", sum(read.values()), len(files),
             ctx.out_dir, "".join(f"; {os.path.basename(path)}: {n}" for path, n in read.items()))
    for name in sorted(paths):
        print(f"{name} -> {paths[name]}")


RUN = {"report": report}
