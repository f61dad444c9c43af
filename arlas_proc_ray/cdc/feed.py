"""Change data feed — the store's changelog between two epochs, as a Dataset.

``change_feed(store, base=…, target=…)`` exposes WHAT CHANGED between
any two committed epochs as a streaming ``ray.data.Dataset`` of I/U/D
rows — the table-format "change data feed" (Delta CDF / Iceberg
changelog scan shape), derived here without ever storing a changelog:
both epochs share the store's hash fan-out, so partition ``p`` holds the
same key range in both states and one task per partition classifies
locally with the package's one I/U/D kernel
(``cdc/diff.py:diff_state_tables``). ``base=None`` diffs against
nothing: every live row of ``target`` is an insert. Consumers get
exactly the frame a downstream system needs to catch up: new images on
I/U, the final image on D, optional ``old_<col>`` pre-images on U/D for
delta-propagating sinks.

It is the only reader that diffs two epochs. The search-index publish
(``cdc/publish.py``) sends the feed's batches, bootstrap included; the
materialized views (``cdc/views.py``) run its per-partition step
(``partition_feed``) inside their partial-aggregate tasks; the secondary
index, the join view, the near-dup and the vector indexes map it.

Reference parity: ARLAS-proc can only hand a consumer the FULL output
of a run (readFromParquet → transform → writeToElasticsearch, e.g.
sql/WritableDataFrame.scala); a between-epochs change feed is the
CDC-native replacement for "re-read and re-ship everything".

Scale shape:

- **No shuffle, no driver state.** The feed is a Dataset built from the
  partition id list; each block is produced by one task reading two
  immutable partitions. Downstream stages stream with backpressure —
  the whole feed is never resident.
- **Index pruning.** Partitions whose files are the same in both epoch
  indexes are dropped at PLAN time (same immutable files ⇒ zero
  changes) — a sparse delta epoch over a 100 TB table feeds only the
  partitions it touched.
- **Column pruning.** ``columns=`` narrows both reads to keys +
  requested columns before the diff kernel runs.
- **Fan-out changes** (``repartition_snapshot``) break per-partition
  alignment: the feed falls back to ONE co-partitioned global diff
  (``cdc/diff.py:snapshot_diff``'s exchange) — correct, one exchange,
  the same columns, but no pre-images (pass ``include_old=()`` or
  realign first).
"""

from __future__ import annotations

from typing import Sequence

import pandas as pd
import pyarrow as pa

from arlas_proc_ray.cdc.diff import _keyed_diff, diff_state_tables
from arlas_proc_ray.cdc.snapshot import SnapshotStore


def change_feed(
    store: SnapshotStore,
    *,
    base: int | str | None,
    target: int | str | None = None,
    key_cols: Sequence[str] = ("repo", "path"),
    compare_cols: Sequence[str] | None = None,
    columns: Sequence[str] | None = None,
    include_old: Sequence[str] = (),
    op_col: str = "op",
    num_cpus: float = 0.5,
):
    """Dataset of I/U/D rows between ``base`` and ``target`` epochs.

    I/U rows carry the NEW image, D rows the last (old) image —
    ``snapshot_diff``'s contract. ``include_old`` adds ``old_<col>``
    pre-image columns (NULL on I rows). ``compare_cols`` bounds the
    change test (default: every non-key column of the read set); a row
    whose compare columns are all unchanged emits nothing. Epochs may be
    ints or named refs; ``base=None`` diffs against nothing, so every
    live row of ``target`` comes out as an I.
    """
    import ray.data as rd

    b = None if base is None else store._resolve_epoch_arg(base)
    t = store._resolve_epoch_arg(target)
    if t is None or (base is not None and b is None):
        raise RuntimeError("change_feed: both epochs must be committed")
    key_cols = list(key_cols)
    include_old = list(include_old)

    plan = partition_feed(
        store, b, t, key_cols=key_cols, compare_cols=compare_cols,
        columns=columns, include_old=include_old, op_col=op_col,
    )
    if plan is None:
        if include_old:
            raise ValueError(
                "change_feed: fan-out changed between epochs; pre-images "
                "need per-partition alignment — re-align (refresh past the "
                "repartition) or drop include_old"
            )
        return _global_feed(
            store, b, t, key_cols, compare_cols, columns, op_col
        )
    todo, diff_partition = plan
    empty_tmpl = _empty_feed_frame(
        store, t, _read_columns(key_cols, compare_cols, columns, include_old),
        include_old, op_col,
    )

    def diff_parts(batch: pd.DataFrame):
        frames = [d for d in map(diff_partition, batch["part"].tolist())
                  if len(d)]
        if not frames:
            # Arrow typed empty: stable schema downstream, and Ray's
            # pandas block sizing can't handle zero-length object columns
            return empty_tmpl
        return pd.concat(frames, ignore_index=True)

    parts = rd.from_items([{"part": p} for p in todo])
    return parts.map_batches(
        diff_parts, batch_format="pandas", batch_size=1, num_cpus=num_cpus
    )


def _read_columns(key_cols, compare_cols, columns, include_old):
    """The columns both reads keep (None: all of them)."""
    if columns is None:
        return None
    return sorted(
        set(key_cols) | set(columns) | set(include_old)
        | set(compare_cols if compare_cols is not None else ())
    )


def partition_feed(
    store: SnapshotStore,
    b: int | None,
    t: int,
    *,
    key_cols: list[str],
    compare_cols: Sequence[str] | None = None,
    columns: Sequence[str] | None = None,
    include_old: Sequence[str] = (),
    op_col: str = "op",
):
    """The feed's per-partition step: ``(partitions, diff)``, where
    ``diff(p)`` is partition ``p``'s I/U/D frame between the committed
    epochs ``b`` and ``t`` (``b=None``: every live row of ``t`` is an I)
    with its ``old_<col>`` pre-images, and ``partitions`` are the ones
    whose files differ. None when the two epochs' fan-outs differ.
    ``diff`` pickles: tasks call it."""
    if b is None:
        todo, b_parts = list(range(len(store.epoch_index(t)))), None
    else:
        todo = store.changed_partitions(b, t)
        if todo is None:
            return None
        b_parts = store.partition_layouts(b)
    t_parts = store.partition_layouts(t)
    read_cols = _read_columns(key_cols, compare_cols, columns, include_old)

    def read(parts, p: int) -> pa.Table | None:
        tbl = None if parts is None else store.read_resolved(parts[p], p)
        if tbl is None or read_cols is None:
            return tbl
        return tbl.select([c for c in read_cols if c in tbl.column_names])

    def diff(p: int) -> pd.DataFrame:
        old, new = read(b_parts, p), read(t_parts, p)
        if old is None and new is None:
            return pd.DataFrame()
        if not include_old:
            return diff_state_tables(
                old, new, key_cols=key_cols, compare_cols=compare_cols,
                op_col=op_col,
            )
        d, imgs = diff_state_tables(
            old, new, key_cols=key_cols, compare_cols=compare_cols,
            op_col=op_col, old_image_cols=include_old,
        )
        for c in include_old:
            # both frames carry a fresh RangeIndex — positional
            d[f"old_{c}"] = imgs[c]
        return d

    return todo, diff


def _epoch_schema(store: SnapshotStore, epoch: int) -> pa.Schema | None:
    """The committed ``epoch``'s state schema, from one base file's footer
    (None when the epoch has no base file)."""
    import pyarrow.parquet as pq

    files = store.epoch_files(epoch)
    return pq.read_schema(files[0]) if files else None


def _empty_feed_frame(
    store: SnapshotStore,
    t: int,
    read_cols,
    include_old: list[str],
    op_col: str,
):
    """Zero-row Arrow table with the feed's exact column set and types."""
    schema = _epoch_schema(store, t)
    if schema is None:
        return pa.table({op_col: pa.array([], pa.string())})
    fields = [
        f for f in schema
        if read_cols is None or f.name in read_cols
    ]
    cols = {f.name: pa.array([], f.type) for f in fields}
    cols[op_col] = pa.array([], pa.string())
    by_name = {f.name: f.type for f in fields}
    for c in include_old:
        cols[f"old_{c}"] = pa.array([], by_name.get(c, pa.string()))
    return pa.table(cols)


def _global_feed(
    store: SnapshotStore,
    b: int,
    t: int,
    key_cols: list[str],
    compare_cols,
    columns,
    op_col: str,
):
    """Fan-out-mismatch fallback: one co-partitioned global diff whose
    rows carry the columns the per-partition path's rows carry (the read
    set, in its order), classified on ``compare_cols``."""
    schema = _epoch_schema(store, t)
    names = schema.names if schema is not None else []
    cols = _read_columns(key_cols, compare_cols, columns, ())
    image = names if cols is None else [c for c in cols if c in names]
    if compare_cols is None:
        compare_cols = [c for c in image if c not in key_cols]
    return _keyed_diff(
        store.state_dataset(b, cols),
        store.state_dataset(t, cols),
        key_cols, list(compare_cols), image, op_col, None,
        max(len(store.epoch_index(t)), 8),
    )
