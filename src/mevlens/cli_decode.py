"""The ``decode`` command."""

from __future__ import annotations


def decode(ctx):
    from collections import Counter

    from .registry import DEFAULT_REGISTRY
    ds = ctx.dataset()
    # several topics share a schema: look each topic up once, then sum
    counts = Counter()
    for topic, n in Counter(log.topics[0] for log in ds.logs).items():
        entry = DEFAULT_REGISTRY.lookup(topic)
        counts["unknown" if entry is None else entry.schema] += n
    for schema in sorted(counts):
        print(f"{schema}: {counts[schema]}")


RUN = {"decode": decode}
