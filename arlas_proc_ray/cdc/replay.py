"""Ray-Data LWW replay: normalize → combine → hash-partition → finalize.

The reference's per-key ordered reduction (Window.partitionBy(id).orderBy(ts)
everywhere, e.g. /root/reference/src/main/scala/io/arlas/data/transform/
fragments/FlowFragmentMapper.scala:53-58) becomes, in CDC form:

  events ──map_batches──▶ schema-align (zero-copy renames, null-fill, cast)
         ──map_batches──▶ per-batch LWW combiner   (pre-shuffle reduction)
         ──keyed exchange on hash(repo,path) % P──▶ per partition: final
           LWW + tombstone drop + sha256 (arlas_proc_ray/exchange.py)

Scale design:
- The **combiner** keeps only the max-lsn event per key within each batch
  BEFORE the shuffle, so the all-to-all exchange moves at most
  |distinct keys per batch| rows — this is what neutralizes hot-key skew
  (the monorepo's events collapse inside every upstream batch; no
  single-key flood reaches one partition). Salting is therefore needed only
  if a single *batch* can't hold a key's events, which batch sizing rules
  out.
- ONE shuffle total, on the partition id (P partitions in G = min(P,
  CPUs) group tasks), not on the raw composite key (millions of groups):
  each partition is processed whole and vectorized, never one Python
  call per key.
- All steps are Arrow: zero-copy from the object store; the reduction
  itself is numpy argsort over dictionary-encoded exact key ids (no
  uint64-collision risk, no pandas object conversion).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from arlas_proc_ray.cdc.events import CANONICAL_EVENT_SCHEMA, FINAL_STATE_SCHEMA
from arlas_proc_ray.exchange import key_route, partition_map, per_partition
from arlas_proc_ray.functions.hashing import sha256_hex
from arlas_proc_ray.model import DataModel
from arlas_proc_ray.schema import SchemaRegistry


def _combined_key(table: pa.Table, key_cols: list[str]) -> pa.Array:
    """Exact composite key as one binary column, injective: the components
    are joined with ``\\x00\\x00`` and every NUL byte of a component but
    the last is written ``\\x00\\x01``, so no component but the last holds
    the separator and distinct keys never join to the same bytes. A key
    without NUL bytes is its components joined, as it is in any table."""
    cols = [table.column(c).combine_chunks() for c in key_cols]
    if len(cols) == 1:
        return cols[0]
    arrays = [c.chunk(0) if isinstance(c, pa.ChunkedArray) else c
              for c in cols]
    escaped = [pc.replace_substring(c, "\x00", "\x00\x01")
               for c in arrays[:-1]]
    return pc.binary_join_element_wise(*escaped, arrays[-1], "\x00\x00")


def group_ids(table: pa.Table, key_cols: list[str],
              tags: np.ndarray | None = None) -> np.ndarray:
    """Exact dense group id per row via Arrow dictionary encoding. With
    ``tags`` (a partition per row), a key is one group per partition:
    rows of different partitions never share an id."""
    combined = _combined_key(table, key_cols)
    if isinstance(combined, pa.ChunkedArray):
        combined = combined.combine_chunks()
    gid = pc.dictionary_encode(combined).indices.to_numpy(zero_copy_only=False)
    if tags is None or not len(gid):
        return gid
    return tags.astype(np.int64) * (int(gid.max()) + 1) + gid


def lww_reduce_table(
    table: pa.Table, key_cols: list[str] = ("repo", "path"), order_col: str = "lsn"
) -> pa.Table:
    """Keep, for each key, the single row with the maximum order value.

    Exact (dictionary-encoded keys, not hashes); stable tie-break keeps the
    later physical row. Used both as the pre-shuffle combiner and as the
    per-partition final reduce — LWW is associative, so combining partials
    is correct by construction.

    Batches carrying op='PATCH' rows (partial images, cdc/patch.py) route
    to the combiner-safe prune instead: a patch must not be LWW-collapsed
    away, and folding it here would be unsound on a stream subset. The
    dispatch is one vectorized equality scan; patch-free streams take the
    plain LWW path unchanged. A table in which no key repeats is returned
    as it is, not copied.
    """
    if table.num_rows <= 1:
        return table
    table, kept = lww_combine(table, key_cols, order_col)
    return table if kept is None else table.take(pa.array(kept))


def lww_combine(table: pa.Table, key_cols, order_col: str = "lsn") -> tuple:
    """The combiner's step without its copy: ``(table, kept)``, ``kept``
    the ascending positions of ``table`` that ``lww_reduce_table`` keeps,
    or ``None`` when it keeps every row. A table holding a PATCH comes
    back pruned by ``patch_prune_table``, every row of it kept."""
    from arlas_proc_ray.cdc.patch import patch_prune_table, table_has_patches

    if table_has_patches(table):
        return patch_prune_table(table, key_cols, order_col), None
    kept = lww_order(table, key_cols, order_col)
    return table, None if len(kept) == table.num_rows else kept


def lww_order(table: pa.Table, key_cols, order_col: str = "lsn",
              tags: np.ndarray | None = None) -> np.ndarray:
    """The positions ``lww_reduce_table`` keeps (no PATCH dispatch),
    ascending. With ``tags`` (a partition per row), a key is one per
    partition: rows of different partitions never collapse, as if each
    partition were reduced on its own."""
    if table.num_rows <= 1:
        return np.arange(table.num_rows)
    gid = group_ids(table, list(key_cols), tags)
    order = table.column(order_col).to_numpy()
    sel = np.lexsort((order, gid))
    gid_sorted = gid[sel]
    last_of_group = np.append(gid_sorted[1:] != gid_sorted[:-1], True)
    if last_of_group.all():  # no key repeats: every row is kept
        return np.arange(len(gid))
    return np.sort(sel[last_of_group])


def make_align_fn(registry: SchemaRegistry):
    """Schema-evolution normalizer: any physical version → canonical schema.

    Splits a (possibly mixed-version) batch by ``schema_version``, applies
    the registry's composed renames (zero-copy), null-fills new columns,
    casts only when types differ, then computes ``content_size`` where null
    (v1 rows) with ``pc.utf8_length`` — vectorized, no Python rows.
    """
    reg = registry.snapshot()

    def align(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # empty blocks are legal in Ray Data; pc.unique would yield no
            # versions and concat_tables([]) raises — emit a typed empty
            return reg.align_table(batch, from_version=reg.latest_version)
        versions = batch.column("schema_version")
        uniq = pc.unique(versions).to_pylist()
        parts: list[pa.Table] = []
        for v in uniq:
            # strict: an unregistered (or null) schema_version raises —
            # silently treating unknown shapes as latest would corrupt
            # state; route garbage through make_dead_letter_fn instead
            if v is None:
                reg.get(v)  # raises SchemaEvolutionError
            reg.get(int(v))
            sub = (
                batch
                if len(uniq) == 1
                else batch.filter(pc.equal(versions, pa.scalar(v, versions.type)))
            )
            parts.append(reg.align_table(sub, from_version=int(v)))
        out = parts[0] if len(parts) == 1 else pa.concat_tables(parts)

        size = out.column("content_size")
        if size.null_count > 0:
            computed = pc.cast(pc.utf8_length(out.column("content")), pa.int64())
            filled = pc.coalesce(size, computed)
            out = out.set_column(
                out.schema.get_field_index("content_size"),
                "content_size",
                filled,
            )
        return out

    return align


def normalize_stage(ds, registry: SchemaRegistry):
    return ds.map_batches(make_align_fn(registry), batch_format="pyarrow", batch_size=None)


VALID_OPS = ("INSERT", "UPDATE", "DELETE", "PATCH")


def write_quarantine(quarantined: pa.Table, dead_letter_dir: str, epoch: int) -> str:
    """Write quarantined rows as one content-addressed Parquet file.

    Deterministic, idempotent under Ray task retries: the file name is
    the sha256 of the FULL row content (not just (order, reason) — two
    different batches can share those, e.g. both one null-lsn row, and
    must not collide onto one filename), and the write is
    tmp-then-rename atomic — a retried or resumed task rewrites the
    identical file instead of duplicating rows. Shared by every DLQ
    producer (engine normalize, demux, wire decode). Returns the path.
    """
    import hashlib
    import os
    import tempfile

    import pyarrow.parquet as pq

    h = hashlib.sha256()
    h.update(str(quarantined.to_pydict()).encode())
    out_dir = os.path.join(dead_letter_dir, f"epoch={epoch}")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"dlq-{h.hexdigest()[:32]}.parquet")
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".parquet.tmp")
    os.close(fd)
    try:
        pq.write_table(quarantined, tmp, compression="snappy")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def make_dead_letter_fn(
    registry: SchemaRegistry,
    dm: DataModel,
    dead_letter_dir: str,
    epoch: int,
):
    """Normalize with quarantine: invalid rows go to a dead-letter sink.

    A production change stream carries garbage — unknown schema versions,
    unrecognized ops, null LSNs or keys. Failing the whole epoch for one
    bad row is wrong at 10^10 events; silently dropping is worse. Each
    batch is split VECTORIZED (is_in / is_null masks, no Python rows):

    - valid rows continue through the registry alignment unchanged;
    - invalid rows are appended, with a ``dlq_reason`` column and the
      epoch, to ``dead_letter_dir/epoch=<e>/`` as Parquet for replay
      after repair.

    Exactly-once: the quarantine file name is the sha256 of the rows'
    (lsn, reason) content, written atomically — a retried or resumed task
    rewrites the identical file instead of duplicating rows.
    """
    reg = registry.snapshot()
    known_versions = [int(v) for v in reg.versions()]
    align = make_align_fn(registry)
    key_cols = dm.key_list
    order_col = dm.order_col

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return align(batch)
        reason = np.full(n, None, dtype=object)

        def flag(mask, why):
            m = mask.to_numpy(zero_copy_only=False)
            reason[(reason == None) & m] = why  # noqa: E711

        sv = batch.column("schema_version")
        flag(
            pc.or_kleene(
                pc.is_null(sv),
                pc.invert(
                    pc.is_in(
                        sv,
                        value_set=pa.array(known_versions, sv.type),
                    )
                ),
            ),
            "unknown_schema_version",
        )
        flag(
            pc.or_kleene(
                pc.is_null(batch.column("op")),
                pc.invert(
                    pc.is_in(
                        batch.column("op"),
                        value_set=pa.array(list(VALID_OPS), pa.string()),
                    )
                ),
            ),
            "invalid_op",
        )
        flag(pc.is_null(batch.column(order_col)), "null_order")
        for k in key_cols:
            flag(pc.is_null(batch.column(k)), f"null_key:{k}")

        bad = reason != None  # noqa: E711
        if not bad.any():
            return align(batch)

        quarantined = batch.filter(pa.array(bad)).append_column(
            "dlq_reason", pa.array(reason[bad], pa.string())
        )
        write_quarantine(quarantined, dead_letter_dir, epoch)

        good = batch.filter(pa.array(~bad))
        if good.num_rows == 0:
            # typed empty: align needs no version split on an empty table
            return reg.align_table(good, from_version=reg.latest_version)
        return align(good)

    return fn


def read_dead_letters(dead_letter_dir: str, epoch: int | None = None) -> pa.Table:
    """All quarantined rows (optionally one epoch), schemas unified.

    Files may have different physical schemas (each carries its source
    version's columns); they are concatenated permissively. Small by
    construction — the DLQ holds the garbage, not the stream.
    """
    import os

    import pyarrow.parquet as pq

    tables = []
    if os.path.isdir(dead_letter_dir):
        for name in sorted(os.listdir(dead_letter_dir)):
            if not name.startswith("epoch="):
                continue
            e = int(name.split("=", 1)[1])
            if epoch is not None and e != epoch:
                continue
            d = os.path.join(dead_letter_dir, name)
            for f in sorted(os.listdir(d)):
                if f.endswith(".parquet"):
                    t = pq.read_table(os.path.join(d, f))
                    tables.append(
                        t.append_column(
                            "dlq_epoch", pa.array([e] * t.num_rows, pa.int64())
                        )
                    )
    if not tables:
        return pa.table({"dlq_reason": pa.array([], pa.string()),
                         "dlq_epoch": pa.array([], pa.int64())})
    return pa.concat_tables(tables, promote_options="permissive")


def finalize_partition_table(table: pa.Table, dm: DataModel) -> pa.Table:
    """Final LWW over one partition → final-state rows (tombstones dropped).

    Rows that already carry a ``content_sha256`` column (prior-snapshot rows
    merged back in by the engine) keep it; only new survivors are hashed —
    at 100 TB the hash runs once per surviving row, never per event.

    Partitions carrying op='PATCH' rows take the full overlay fold
    (cdc/patch.py — sound here because the keyed exchange co-located every
    event of each key); barrier-less 'PATCH' leftovers (patch on a key
    that never existed) are dropped with the tombstones.
    """
    from arlas_proc_ray.cdc.patch import patch_fold_table, table_has_patches

    if table_has_patches(table):
        reduced = patch_fold_table(table, dm.key_cols, dm.order_col)
        live = reduced.filter(
            pc.invert(
                pc.is_in(
                    reduced.column("op"),
                    value_set=pa.array(["DELETE", "PATCH"], pa.string()),
                )
            )
        )
        return _final_state_from_live(live, dm)
    reduced = lww_reduce_table(table, dm.key_cols, dm.order_col)
    live = reduced.filter(pc.not_equal(reduced.column("op"), pa.scalar("DELETE")))
    return _final_state_from_live(live, dm)


def _final_state_from_live(live: pa.Table, dm: DataModel) -> pa.Table:
    sha = (
        live.column("content_sha256")
        if "content_sha256" in live.column_names
        else None
    )
    if sha is None or sha.null_count == live.num_rows:
        sha = sha256_hex(live.column("content"))
    elif sha.null_count:
        # hash only the new survivors; carried rows keep their digest
        sha = sha.combine_chunks()
        new = pc.is_null(sha)
        sha = pc.replace_with_mask(
            sha, new,
            sha256_hex(live.column("content").filter(new)).combine_chunks(),
        )

    arrays = []
    for f in FINAL_STATE_SCHEMA:
        if f.name == "content_sha256":
            arrays.append(sha)
            continue
        col = live.column(dm.order_col if f.name == "last_lsn" else f.name)
        arrays.append(col if col.type == f.type else pc.cast(col, f.type))
    return pa.Table.from_arrays(arrays, schema=FINAL_STATE_SCHEMA)


def replay_to_dataset(events_ds, dm: DataModel | None = None, registry=None):
    """Full-replay pipeline returning the final-state Dataset (no sink):
    normalize and combine per block, then the keyed exchange with
    :func:`finalize_partition_table` per partition."""
    from arlas_proc_ray.cdc.events import default_registry

    dm = dm or DataModel()
    registry = registry or default_registry()

    ds = normalize_stage(events_ds, registry)
    ds = ds.map_batches(
        lambda t: lww_reduce_table(t, dm.key_cols, dm.order_col),
        batch_format="pyarrow",
        batch_size=None,
    )
    return partition_map(
        ds,
        route=partial(key_route, dm.key_list, dm.num_partitions),
        body=partial(per_partition, partial(finalize_partition_table, dm=dm)),
        num_partitions=dm.num_partitions,
    )
