"""The keyed exchange: the one shuffle of the package, in raw Ray tasks.

Every keyed step runs it: the store writers (``cdc/staged.py``: CDC
epochs, ``merge_into``, ``repartition_snapshot``), the keyed operators
(``stages/keyed.py``: ``keyed_partition_map`` and
``staged_partition_apply``), and the sinkless replays
(``cdc/replay.replay_to_dataset``). A fixed-fan-out exchange needs no
ordering, no sampling and no aggregation, which a Ray Data keyed groupby
cannot skip (its sort-based exchange sorts and re-blocks the full
payload).

The exchange is sized to the session, not to the key space (the
FP-Hadoop move: group the reduce work into units sized to the cluster).
The P partitions are cut into G = min(P, CPUs of the session) contiguous
groups (:func:`group_plan`, :func:`session_groups`):

  phase 1  split:  one task per input block runs the caller's route
                   (block → rows, partition id per row), ONE stable
                   argsort by partition id, and returns G objects
                   (``num_returns=G``), one per group: ``(first_partition,
                   table, bounds)`` — the group's rows as ONE contiguous
                   table sorted by partition, and the row offsets where
                   each of its partitions starts (``len(group) + 1``
                   ints) — B×G objects, not B×P;
  phase 2  group:  one task per group (G tasks, not P) runs the caller's
                   body over the group's exchange objects; the body cuts
                   each partition's rows as zero-copy views
                   (:func:`partition_views`) and handles its partitions
                   in ascending order.

An exchange object is one table plus bounds, not a ``{partition: table}``
dict, because Ray pays a fixed cost for every Arrow table it serializes:
on one CPU, the two split outputs of a 27 MB epoch took 195 ms to
``ray.put`` + ``ray.get`` as two dicts of 64 tables and 17 ms as two
contiguous tables with bounds. The per-partition views never pass through
the object store. The group table is a ``take`` (a copy), never a
``slice()`` of the block: a pyarrow slice pickles its whole parent
buffer, a G× blow-up when G > 1.

Unlike Ray Data's streaming sort shuffle the exchange materializes its
input once: every block is resident before the split tasks run.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from arlas_proc_ray.functions.hashing import partition_ids


def session_cpus() -> int:
    """CPUs of the current Ray session; the machine's when none is up
    yet, as Ray's auto-init would start it."""
    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", 1))
    return os.cpu_count() or 1


def group_plan(num_partitions: int, num_groups: int) -> list[range]:
    """Cut partitions ``0..P-1`` into ``min(P, G)`` contiguous ranges whose
    sizes differ by at most one."""
    P = num_partitions
    G = max(1, min(P, num_groups))
    return [range(g * P // G, (g + 1) * P // G) for g in range(G)]


def session_groups(num_partitions: int) -> list[range]:
    """The exchange groups for this Ray session: one per CPU, at most P."""
    return group_plan(num_partitions, session_cpus())


def partition_order(pids: np.ndarray, lo: int, hi: int):
    """ONE stable argsort of ``pids`` (each in ``[lo, hi)``, or below
    ``lo`` for a row the route drops: it sorts before ``offsets[0]``) →
    the row order and the ``hi - lo + 1`` offsets where each partition
    starts."""
    order = np.argsort(pids, kind="stable")
    return order, np.searchsorted(pids[order], np.arange(lo, hi + 1))


def exchange_object(first: int, table: pa.Table, order: np.ndarray,
                    bounds: np.ndarray) -> tuple:
    """``(first, rows, offsets)`` for partitions ``first .. first +
    len(bounds) - 2``: ONE ``take`` of their rows (a copy, never a slice
    of ``table``) in partition order, and offsets rebased to it."""
    rows = table.take(order[bounds[0] : bounds[-1]])
    return first, rows, bounds - bounds[0]


def partition_views(inputs, p: int) -> list[pa.Table]:
    """Partition ``p``'s rows in every exchange object that covers it, as
    zero-copy slices."""
    return [
        t.slice(b[p - lo], b[p - lo + 1] - b[p - lo])
        for lo, t, b in inputs
        if lo <= p < lo + len(b) - 1
    ]


def partition_tables(inputs, parts: range):
    """``(p, rows)`` for every partition ``p`` of ``parts`` in order:
    its rows in every exchange object as one table (0 rows, with the
    inputs' schema, when it received none). Blocks whose types differ
    (a pandas block's all-null column) are unified as Arrow promotes
    them."""
    for p in parts:
        views = partition_views(inputs, p)
        yield p, (views[0] if len(views) == 1
                  else pa.concat_tables(views, promote_options="default"))


def concat_results(tables: list[pa.Table]) -> pa.Table:
    """A group's per-partition results as its one block (types that
    differ between partitions are promoted)."""
    if len(tables) == 1:
        return tables[0]
    return pa.concat_tables(tables, promote_options="permissive")


def per_partition(fn, parts: range, *inputs) -> pa.Table:
    """A group body: ``fn(rows)`` over every partition of ``parts`` in
    order (empty ones included), concatenated into the group's block."""
    return concat_results(
        [fn(rows) for _, rows in partition_tables(inputs, parts)]
    )


def key_route(keys: list[str], num_partitions: int, table: pa.Table):
    """The route by key: ``partition_ids`` (the stable hash point lookups
    route by too). Schema metadata is dropped: a pandas-origin schema is
    unhashable, which defeats Ray's schema dedup downstream."""
    return (table.replace_schema_metadata(None),
            partition_ids(table, keys, num_partitions))


def split_block(block, route, groups: list[range]) -> list[tuple]:
    """The split step: ``route(table) → (rows, partition ids)``, ONE
    argsort, then one exchange object per group of ``groups``
    (contiguous, ascending). A row whose id is -1 is in no object: a
    route drops rows that way without a copy of its own. A pandas block
    (the output of a pandas stage) is converted to Arrow first."""
    if isinstance(block, pd.DataFrame):
        block = pa.Table.from_pandas(
            block, preserve_index=False
        ).replace_schema_metadata(None)
    table, pids = route(block)
    # G takes of a chunked column concatenate its chunks G times; one
    # combine is free on a single-chunk table
    table = table.combine_chunks()
    lo = groups[0].start
    order, bounds = partition_order(pids, lo, groups[-1].stop)
    return [
        exchange_object(g.start, table, order,
                        bounds[g.start - lo : g.stop - lo + 1])
        for g in groups
    ]


@ray.remote
def _split(route, groups, block):
    out = split_block(block, route, groups)
    return tuple(out) if len(out) > 1 else out[0]


@ray.remote
def _group(body, parts, *inputs):
    return body(parts, *inputs)


def split_blocks(block_refs, route, groups: list[range]) -> list[list]:
    """Phase 1: one split task per block → per block, the refs of its G
    exchange objects. ``route`` is put once and shared by every task."""
    route_ref = ray.put(route)
    task = _split.options(num_returns=len(groups))
    out = [task.remote(route_ref, groups, ref) for ref in block_refs]
    # num_returns=1 hands back a bare ObjectRef, not a 1-list
    return out if len(groups) > 1 else [[r] for r in out]


def run_groups(body, groups: list[range], inputs: list[list]) -> list:
    """Phase 2: one task per group, ``body(parts, *inputs[g])``; returns
    the refs of their results in group order."""
    body_ref = ray.put(body)
    return [
        _group.remote(body_ref, grp, *refs)
        for grp, refs in zip(groups, inputs)
    ]


def resident_blocks(mat) -> list:
    """The refs of the non-empty blocks of the materialized ``mat``,
    judged from metadata alone: Ray 2.49 passes empty blocks through map
    stages carrying a stale upstream schema, so one must never be
    routed."""
    return [
        ref
        for bundle in mat.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows is None or meta.num_rows > 0
    ]


def _empty_table(mat) -> pa.Table:
    """A 0-row table of the materialized ``mat``'s schema (no columns
    when Ray knows none)."""
    schema = mat.schema(fetch_if_missing=True)
    schema = getattr(schema, "base_schema", schema)
    if schema is None:
        return pa.table({})
    if isinstance(schema, pa.Schema):
        return schema.empty_table()
    # a pandas block schema: its dtypes, through pandas' own conversion
    return pa.Table.from_pandas(
        pd.DataFrame({n: pd.Series([], dtype=t)
                      for n, t in zip(schema.names, schema.types)}),
        preserve_index=False,
    ).replace_schema_metadata(None)


def partition_map(ds, *, route, body, num_partitions: int):
    """The keyed exchange as a Dataset operator.

    ``ds`` is materialized; ``route(table) → (rows, partition ids in
    [0, num_partitions))`` runs in one split task per non-empty block,
    and ``body(parts, *inputs)`` in one task per group of this session,
    over the group's ``(first_partition, table, bounds)`` objects (cut
    them with :func:`partition_tables`). Each body returns one Arrow
    table, which is one block of the returned Dataset, so a partition
    never straddles blocks. An input with no rows runs ONE group whose
    only exchange object is an empty table of the input's schema, so the
    body still sees the input's columns. ``route`` and ``body`` must
    pickle (module-level functions, partials of them, or closures)."""
    import ray.data as rd

    mat = ds.materialize()
    refs = resident_blocks(mat)
    if refs:
        groups = session_groups(num_partitions)
        inputs = [list(g) for g in zip(*split_blocks(refs, route, groups))]
    else:
        groups = group_plan(num_partitions, 1)
        inputs = [[(0, _empty_table(mat),
                    np.zeros(num_partitions + 1, np.int64))]]
    return rd.from_arrow_refs(run_groups(body, groups, inputs))
