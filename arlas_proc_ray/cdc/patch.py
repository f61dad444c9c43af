"""Partial-image change events — op='PATCH' merge-patch semantics.

A real binlog/WAL tail is not all full row images: Postgres omits
unchanged TOAST columns, Debezium emits unavailable-column placeholders,
Mongo oplogs carry ``$set`` patches. This module adds a fourth op to the
changelog contract:

    PATCH — a partial row image; a NULL payload column means "untouched,
    keep the previous value". Setting a column to NULL requires a full
    image (INSERT/UPDATE). A PATCH on a key with no live row is a no-op
    (Debezium-consistent), and a PATCH whose LSN ties a full image's
    applies after it; LSNs are otherwise unique per key (the same
    changelog contract LWW relies on — duplicates must be identical rows).

Reference parity: ARLAS-proc has no notion of partial updates (its
pipelines re-ingest full extracts, tools/DataFrameFormatter.scala keeps
whole rows); patches are a CDC-native capability the LWW engine needs to
ingest real change streams.

Two kernels, split by WHERE they may run:

- ``patch_prune_table`` — the pre-shuffle combiner. Folding patches in a
  combiner is UNSOUND: the combiner sees an arbitrary subset of a key's
  events, and a full image elsewhere in the stream with an LSN between a
  patch and its local base would invalidate the fold (LWW never had this
  problem because max() is commutative; overlay is not). What IS safe on
  any subset is pruning rows a local barrier dominates: every row below
  the subset's max-LSN full image (op != PATCH) is dead in the FULL
  stream too. Output per key: one winning barrier row + all unfolded
  patches above it — still a strong combiner on the patch-light streams
  patches occur in.

- ``patch_fold_table`` — the per-partition finalize, where the keyed
  exchange guarantees every event of a key is present. Fully vectorized
  segmented fold (numpy reduceat over sorted runs, one pass per column):
  per key take the last barrier, overlay each column's last non-NULL
  value at LSN >= that barrier, keep DELETE tombstones bare (patches
  after a delete are no-ops), and leave barrier-less keys as op='PATCH'
  so ``finalize_partition_table`` drops them from the final state. Groups
  that absorbed a patch get ``content_sha256`` nulled — the image changed,
  the finalize recomputes it (only for those rows, never per event).

Both kernels dispatch from ``cdc.replay.lww_reduce_table`` /
``finalize_partition_table`` only when a batch actually contains a PATCH
row (one vectorized equality scan), so patch-free streams — including
every pre-existing engine path — pay nothing.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

PATCH_OP = "PATCH"


def table_has_patches(table: pa.Table) -> bool:
    """True iff the batch carries at least one PATCH row (vectorized)."""
    if "op" not in table.column_names or table.num_rows == 0:
        return False
    return bool(pc.any(pc.equal(table.column("op"), PATCH_OP)).as_py())


def _sorted_by_key_then_order(table: pa.Table, key_cols, order_col: str):
    """(sorted_table, sorted_gid, original_positions) — stable on ties."""
    from arlas_proc_ray.cdc.replay import group_ids

    gid = group_ids(table, list(key_cols))
    order = table.column(order_col).to_numpy()
    sel = np.lexsort((order, gid))  # stable: physical order breaks LSN ties
    return table.take(pa.array(sel)), gid[sel], sel


def patch_prune_table(
    table: pa.Table, key_cols=("repo", "path"), order_col: str = "lsn"
) -> pa.Table:
    """Combiner-safe reduction of a batch that contains PATCH rows.

    Keeps, per key: the max-LSN non-PATCH row (the local barrier, LWW
    tie-break = later physical row) and every PATCH row at LSN >= that
    barrier (all patches when the subset holds no barrier). Safe on ANY
    subset of the stream; idempotent; preserves original row order.
    """
    if table.num_rows <= 1:
        return table
    sorted_t, gid_s, sel = _sorted_by_key_then_order(table, key_cols, order_col)
    n = table.num_rows
    ops = sorted_t.column("op").to_numpy(zero_copy_only=False)
    is_patch = ops == PATCH_OP
    idx = np.arange(n)
    starts = np.flatnonzero(np.r_[True, gid_s[1:] != gid_s[:-1]])
    counts = np.diff(np.r_[starts, n])
    barrier_idx = np.where(~is_patch, idx, -1)
    last_barrier = np.maximum.reduceat(barrier_idx, starts)  # -1: no barrier
    rep = np.repeat(last_barrier, counts)
    keep = (idx == rep) | (is_patch & (idx > rep))  # rep=-1 keeps all patches
    # original physical order back (matches lww_reduce_table's contract)
    return table.take(pa.array(np.sort(sel[keep])))


def patch_fold_table(
    table: pa.Table, key_cols=("repo", "path"), order_col: str = "lsn"
) -> pa.Table:
    """Fold a COMPLETE per-partition event set to one row per key.

    Requires every event of each key to be present (post-exchange only).
    Output op per key: the barrier's op (DELETE kept bare for the
    tombstone drop), or 'PATCH' when the key never had a full image
    (dropped from final state by the caller — patch on nothing is a
    no-op). ``content_sha256``, when present, is nulled for keys whose
    image absorbed a patch so the finalize re-hashes exactly those rows.
    """
    if table.num_rows == 0:
        return table
    sorted_t, gid_s, _ = _sorted_by_key_then_order(table, key_cols, order_col)
    n = table.num_rows
    ops = sorted_t.column("op").to_numpy(zero_copy_only=False)
    is_patch = ops == PATCH_OP
    idx = np.arange(n)
    starts = np.flatnonzero(np.r_[True, gid_s[1:] != gid_s[:-1]])
    counts = np.diff(np.r_[starts, n])

    barrier_idx = np.where(~is_patch, idx, -1)
    last_barrier = np.maximum.reduceat(barrier_idx, starts)  # per group
    rep = np.repeat(last_barrier, counts)

    # live segment = rows at/above the last barrier (everything below is
    # superseded by the full image); DELETE-led groups keep only the
    # tombstone row (trailing patches are no-ops on a dead key)
    keep = idx >= rep  # rep == -1 → barrier-less group keeps all patches
    has_barrier_row = rep >= 0
    leader_is_delete = np.zeros(n, dtype=bool)
    leader_is_delete[has_barrier_row] = ops[rep[has_barrier_row]] == "DELETE"
    keep &= ~(leader_is_delete & (idx != rep))

    kept_pos = np.flatnonzero(keep)
    kept_t = sorted_t.take(pa.array(kept_pos))
    g2 = gid_s[kept_pos]
    m = kept_pos.size
    starts2 = np.flatnonzero(np.r_[True, g2[1:] != g2[:-1]])
    k_idx = np.arange(m)
    last_in_group = np.maximum.reduceat(k_idx, starts2)

    kept_is_patch = is_patch[kept_pos]
    group_absorbed_patch = np.logical_or.reduceat(kept_is_patch, starts2)

    # per-group effective op: barrier's own op, else 'PATCH'
    has_barrier = last_barrier >= 0
    safe_idx = np.where(has_barrier, last_barrier, 0)
    op_out = np.where(has_barrier, ops[safe_idx], PATCH_OP).astype(object)

    arrays = []
    names = kept_t.column_names
    for name in names:
        col = kept_t.column(name).combine_chunks()
        if name == "op":
            arrays.append(pa.array(op_out, type=pa.string()))
            continue
        if name == order_col:
            # the fold's LSN is the max applied LSN (last row per group)
            arrays.append(col.take(pa.array(last_in_group)))
            continue
        if name == "content_sha256":
            taken = col.take(pa.array(last_in_group))
            # a patched image's prior hash is stale — null it for recompute
            mask = pa.array(group_absorbed_patch)
            arrays.append(pc.if_else(mask, pa.nulls(len(starts2), col.type), taken))
            continue
        # last non-NULL value per group at LSN >= barrier (NULL when none:
        # the barrier's own NULL is authoritative — patches cannot set NULL)
        valid = pc.invert(pc.is_null(col)).to_numpy(zero_copy_only=False)
        vpos = np.where(valid, k_idx, -1)
        last_nn = np.maximum.reduceat(vpos, starts2)
        gather = pa.array(last_nn, mask=last_nn < 0)  # null index → null out
        arrays.append(col.take(gather))
    return pa.Table.from_arrays(arrays, names=names)
