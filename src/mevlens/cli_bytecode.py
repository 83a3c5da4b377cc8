"""The ``bytecode`` commands."""

from __future__ import annotations

import os


def cluster(ctx):
    from . import bytecode
    records = bytecode.load_bytecode_fixture(ctx.bytecode_file)
    clusters = bytecode.cluster(records)
    path = os.path.join(ctx.ensure_out(), "bytecode_clusters.csv")
    bytecode.write_clusters(clusters, path)
    print(f"{len(clusters)} clusters -> {path}")


RUN = {"bytecode cluster": cluster}
