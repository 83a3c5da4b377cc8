"""The ``decode`` command."""

from __future__ import annotations


def decode(ctx):
    from .registry import DEFAULT_REGISTRY
    ds = ctx.dataset()
    counts = {}
    for lg in ds.logs:
        entry = DEFAULT_REGISTRY.lookup(lg.topics[0])
        if entry is None:
            counts["unknown"] = counts.get("unknown", 0) + 1
            continue
        counts[entry.schema] = counts.get(entry.schema, 0) + 1
    for schema in sorted(counts):
        print(f"{schema}: {counts[schema]}")


RUN = {"decode": decode}
