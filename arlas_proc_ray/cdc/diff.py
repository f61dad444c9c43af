"""Snapshot diff — the INVERSE of CDC apply, and the one I/U/D kernel.

``diff_state_tables(old, new, key_cols=...)`` classifies two co-located
state tables (at most one row per key each) into the minimal changelog
between them: one row per changed key with ``op`` ∈ {'I','U','D'}, the
NEW image on I/U and the OLD image on D, optionally with the old images
aligned beside them (what retraction-based consumers need). It is the
only I/U/D classifier of the package: the change feed (``cdc/feed.py``,
and through it the search-index publish, the materialized views and
every feed-maintained index) runs it per store partition, and
``snapshot_diff`` runs it per exchange partition.

``snapshot_diff(old_ds, new_ds, key=..., compare=...)`` takes two table
states as Datasets (e.g. yesterday's snapshot and today's) and emits
that changelog. Applying the emitted changes to ``old`` via the LWW
engine reproduces ``new`` — the round-trip property pinned in tests.

Reference parity: ARLAS-proc has no diff operator (its pipelines always
re-ingest full extracts); this is the missing half of a CDC engine —
bootstrapping a change stream from periodic full snapshots
(DBLog/Netflix-style full-fetch reconciliation, published design).

Scale shape: both snapshots are tagged with their ``_side`` and
exchanged together in ONE hash co-partition on the key (the package's
keyed exchange, ``arlas_proc_ray/exchange.py``, the same union trick as
``stages/joins.py:equi_join``); each partition splits its rows by side
and classifies them with ``diff_state_tables``. Nothing is broadcast or
driver-resident; each snapshot moves exactly once. Partitioning
assumption: one key's rows (both sides) fit one partition — trivially
true for snapshots, which hold ≤1 row per key.

Dtype discipline: classification runs on byte-exact integer key codes
(Arrow ``dictionary_encode`` via ``cdc.replay.group_ids`` — the same
kernel the LWW engine groups with, so NUL-embedded keys stay distinct
where a pandas merge would collapse them), and output rows are taken
from the two Arrow tables by position, so I/U images come straight from
``new`` and D images from ``old`` with their Arrow types.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from arlas_proc_ray.cdc.replay import group_ids, lww_reduce_table
from arlas_proc_ray.exchange import key_route, partition_map, per_partition
from arlas_proc_ray.stages.joins import _arrow_schema, _side_rows


def _null_safe_neq(a: pd.Series, b: pd.Series) -> np.ndarray:
    """Vectorized IS DISTINCT FROM (NaN == NaN, unlike ``!=``)."""
    an, bn = a.isna().to_numpy(), b.isna().to_numpy()
    neq = (a.to_numpy(object) != b.to_numpy(object)) if a.dtype == object else (
        a.to_numpy() != b.to_numpy()
    )
    # NaN != NaN is True in numpy; repair: differ iff exactly one is null,
    # or neither is null and values differ.
    return (an ^ bn) | (~an & ~bn & neq)


def diff_state_tables(
    old: pa.Table | None,
    new: pa.Table | None,
    *,
    key_cols: Sequence[str],
    compare_cols: Sequence[str] | None = None,
    op_col: str = "op",
    old_image_cols: Sequence[str] | None = None,
):
    """Changelog between two co-located, unique-per-key state tables.

    Returns a pandas frame of the I rows, then the U rows (NEW images),
    then the D rows (OLD images), with ``op_col`` appended. A key is
    updated when any ``compare_cols`` column (default: every non-key
    column) IS DISTINCT FROM its old value. ``None`` stands for an
    empty side: ``old=None`` makes every row of ``new`` an insert.
    A side holding a key twice raises ``ValueError``.

    ``old_image_cols``: additionally return a second frame, positionally
    aligned with the first, holding the OLD values of the named columns
    (NA on I rows, the pre-update image on U, the deleted image on D) —
    what delta-propagation consumers (cdc/views.py) retract. Kept as a
    separate frame so the main output's dtypes stay exact.
    """
    key_cols = list(key_cols)
    ref = new if new is not None else old
    old = ref.schema.empty_table() if old is None else old
    new = ref.schema.empty_table() if new is None else new
    if compare_cols is None:
        compare_cols = [c for c in ref.column_names if c not in key_cols]

    codes = group_ids(
        pa.concat_tables([old.select(key_cols), new.select(key_cols)]),
        key_cols,
    )
    oc, nc = codes[: old.num_rows], codes[old.num_rows :]
    # dense codes: row of each key on each side, -1 where it is absent
    n_codes = int(codes.max()) + 1 if len(codes) else 0
    row_of = {}
    for name, c in (("old", oc), ("new", nc)):
        at = np.full(n_codes, -1, dtype=np.int64)
        at[c] = np.arange(len(c))
        if np.count_nonzero(at >= 0) != len(c):
            raise ValueError(f"diff_state_tables: {name} side not unique per key")
        row_of[name] = at
    matched = row_of["old"][nc]
    ins_pos = np.flatnonzero(matched < 0)
    common_new = np.flatnonzero(matched >= 0)
    common_old = matched[common_new]
    del_pos = np.flatnonzero(row_of["new"][oc] < 0)

    changed = np.zeros(len(common_new), dtype=bool)
    if len(common_new) and compare_cols:
        a = old.select(list(compare_cols)).take(common_old).to_pandas()
        b = new.select(list(compare_cols)).take(common_new).to_pandas()
        for c in compare_cols:
            changed |= _null_safe_neq(a[c], b[c])
    upd_new, upd_old = common_new[changed], common_old[changed]

    # a pandas index stored in the schema would come back; rows are
    # positional here
    out = pa.concat_tables(
        [new.take(np.concatenate([ins_pos, upd_new])), old.take(del_pos)],
        promote_options="permissive",
    ).to_pandas().reset_index(drop=True)
    out[op_col] = np.repeat(
        np.array(["I", "U", "D"], dtype=object),
        [len(ins_pos), len(upd_new), len(del_pos)],
    )
    if old_image_cols is None:
        return out
    # positionally aligned old images for [I..., U..., D...]: reindex with
    # label -1 (absent from the RangeIndex) yields the NA rows for inserts;
    # nullable dtypes first, so int64 does not upcast to float64 (which
    # would round large LSNs)
    labels = np.concatenate(
        [np.full(len(ins_pos), -1, dtype=np.int64), upd_old, del_pos]
    )
    src = (
        old.select(list(old_image_cols))
        .to_pandas()
        .reset_index(drop=True)
        .convert_dtypes(convert_string=False)
    )
    return out, src.reindex(labels).reset_index(drop=True)


def _diff_partition(
    key: list[str],
    compare: list[str],
    cols: list[str],
    lsn_col: str | None,
    op_col: str,
    out_schema: pa.Schema,
    rows: pa.Table,
) -> pa.Table:
    """One exchange partition of ``snapshot_diff``: split the tagged rows
    by ``_side``, LWW-reduce each side when ``lsn_col`` is set, classify
    on ``compare``, keep the image columns ``cols``."""
    side = rows.column("_side").to_numpy()
    old, new = (rows.filter(pa.array(side == s)) for s in (0, 1))
    if lsn_col is not None:
        old = lww_reduce_table(old, key, lsn_col)
        new = lww_reduce_table(new, key, lsn_col)
    out = diff_state_tables(
        old.select(cols), new.select(cols), key_cols=key,
        compare_cols=compare, op_col=op_col,
    )
    if not len(out):
        return out_schema.empty_table()
    return pa.Table.from_pandas(out, schema=out_schema, preserve_index=False)


def snapshot_diff(
    old_ds,
    new_ds,
    *,
    key: Sequence[str],
    compare: Sequence[str],
    op_col: str = "op",
    lsn_col: str | None = None,
    num_partitions: int = 32,
):
    """Changelog between two snapshots: one row per inserted ('I'),
    updated ('U', any ``compare`` column IS DISTINCT FROM its old value)
    or deleted ('D') key. The image columns carry the NEW values for
    I/U and the OLD values for D (what a consumer needs to apply or to
    tombstone). Unchanged keys emit nothing.

    Without ``lsn_col`` both inputs must hold at most one row per key
    (they are snapshots); duplicate keys raise rather than guess. With
    ``lsn_col`` each input may be a RAW change stream: a per-batch LWW
    combiner collapses each block to one row per key before the
    exchange, and each side is LWW-reduced again (max ``lsn_col`` wins,
    the later row on ties) inside the partition before classifying —
    two streams are snapshotted AND diffed in the SAME single exchange,
    no per-side snapshot shuffle.
    """
    key = list(key)
    compare = list(compare)
    return _keyed_diff(old_ds, new_ds, key, compare, key + compare, op_col,
                       lsn_col, num_partitions)


def _keyed_diff(old_ds, new_ds, key: list[str], compare: list[str],
                cols: list[str], op_col: str, lsn_col: str | None,
                num_partitions: int):
    """``snapshot_diff`` whose images carry ``cols`` (the key and compare
    columns among them), in that order; a key is updated when a
    ``compare`` column changed. The change feed's fan-out fallback
    carries its whole read set this way."""
    extra_lsn = lsn_col is not None and lsn_col not in cols
    ucols = cols + ([lsn_col] if extra_lsn else [])

    o_schema = _arrow_schema(old_ds)
    union_schema = pa.schema([o_schema.field(c) for c in ucols])
    out_schema = pa.schema(
        [union_schema.field(c) for c in cols] + [pa.field(op_col, pa.string())]
    )

    def tagged(side: int, batch: pa.Table) -> pa.Table:
        batch = batch.select(ucols)
        if lsn_col is not None:
            batch = lww_reduce_table(batch, key, lsn_col)
        return _side_rows(batch, union_schema, side)

    union = old_ds.map_batches(
        partial(tagged, 0), batch_format="pyarrow", batch_size=None
    ).union(
        new_ds.map_batches(
            partial(tagged, 1), batch_format="pyarrow", batch_size=None
        )
    )
    return partition_map(
        union,
        route=partial(key_route, key, num_partitions),
        body=partial(
            per_partition,
            partial(_diff_partition, key, compare, cols, lsn_col, op_col,
                    out_schema),
        ),
        num_partitions=num_partitions,
    )
