"""Snapshot clone / fork: materialize a committed cut as a new store.

``clone_snapshot`` copies the RESOLVED partition files of
one committed epoch (or named ref) into a fresh store root, committed
there as epoch 0 with the source's fences intact. The clone is a fully
independent table:

- **backup**: vacuum/rollback/optimize on the source can never touch it;
- **fork / dev branch**: apply further epochs to the clone (the
  applied-LSN fences carried over mean a replay of the source's tail
  converges instead of double-applying);
- **fan-out change on the cheap**: clone then ``repartition_snapshot``
  without risking the production store.

Scale design: one Ray task per partition copies its file (byte-for-byte,
manifest footer included — content hashes and rollups carry over
unchanged, so a post-clone ``verify_deep`` certifies the copy), and the
delta group files the partitions' chains name are copied as they are;
the driver touches only the epoch indexes and the commit marker. Resumable: a
crashed clone re-runs and skips partitions whose destination fence is
already written; the index and the commit marker land last.

Reference parity note: ARLAS-proc has no snapshot management at all
(append-mode Parquet, ``sql/WritableDataFrame.scala:68-76``); cloning
belongs to the CDC reimagining's lakehouse layer.
"""

from __future__ import annotations

import dataclasses
import os
import shutil


def clone_snapshot(
    src_store,
    dest_root: str,
    *,
    epoch: int | str | None = None,
    dest_epoch: int = 0,
) -> dict:
    """Copy the resolved state of ``epoch`` (int, ref name, or None =
    latest) into a new store at ``dest_root``, committed as
    ``dest_epoch``. Returns ``{epoch, partitions, rows, bytes}``."""
    import ray

    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    e = src_store._resolve_epoch_arg(epoch)
    if e is None:
        raise RuntimeError("source store has no committed epoch")
    index = src_store.epoch_index(e)
    num_parts = len(index)
    srcs = [m.epoch for m in index]

    dest = SnapshotStore(
        dest_root,
        bloom_cols=src_store.bloom_cols,
        cluster_by=src_store.cluster_by or None,
        cluster_zorder=src_store.cluster_zorder or None,
        row_group_rows=src_store.row_group_rows,
        compression=src_store.compression,
    )
    if dest.latest_committed_epoch() is not None:
        raise ValueError(f"destination {dest_root!r} already has commits")

    src_root = src_store.root

    @ray.remote(num_cpus=0.25)
    def copy_part(part: int) -> int:
        return _copy_partition(src_root, srcs[part], dest_root, dest_epoch,
                               part)

    copied = ray.get([copy_part.remote(p) for p in range(num_parts)])
    copied += _copy_segments(src_store, dest, dest_epoch, index)
    dest.commit_epoch(dest_epoch, num_parts, _manifests={
        p: _moved(m, dest_epoch) for p, m in enumerate(index)
    })
    return {
        "epoch": dest_epoch,
        "source_epoch": e,
        "partitions": num_parts,
        "rows": sum(m.row_count for m in index),
        "bytes": sum(copied),
    }


def _moved(m, dest_epoch: int):
    """Manifest ``m`` with its base and segments in ``dest_epoch``."""
    return dataclasses.replace(m, epoch=dest_epoch, chain=[
        dataclasses.replace(s, epoch=dest_epoch) for s in m.chain])


def _copy_file(src: str, dst: str) -> int:
    """Copy ``src`` to ``dst`` byte for byte through a rename, unless it
    is already there (crash-resume); returns the bytes copied."""
    if os.path.exists(dst):
        return 0
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    shutil.copyfile(src, dst + ".tmp")  # byte-for-byte: hashes carry
    os.replace(dst + ".tmp", dst)
    return os.path.getsize(dst)


def _copy_segments(src_store, dest, dest_epoch: int, manifests) -> list[int]:
    """Copy every delta group file the chains of ``manifests`` name into
    ``dest_epoch`` (a group file's name carries its epoch, so names from
    different epochs never meet)."""
    files = {(s.epoch, s.file) for m in manifests for s in m.chain}
    return [_copy_file(os.path.join(src_store.epoch_dir(e), name),
                       os.path.join(dest.epoch_dir(dest_epoch), name))
            for e, name in sorted(files)]


def _copy_partition(src_root: str, src_epoch: int, dest_root: str,
                    dest_epoch: int, part: int) -> int:
    """Copy one partition's file byte for byte into ``dest_epoch`` of the
    store at ``dest_root``, unless it is already there (crash-resume);
    returns the bytes copied. The file's footer is its fence."""
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    # fresh store handles inside the task (no driver state shipped)
    s, d = SnapshotStore(src_root), SnapshotStore(dest_root)
    if d.base_done(dest_epoch, part):
        return 0
    data_dst = d.part_data_path(dest_epoch, part)
    _copy_file(s.part_data_path(src_epoch, part), data_dst)
    return os.path.getsize(data_dst)


def sync_snapshot(
    src_store,
    dest_root: str,
    *,
    epoch: int | str | None = None,
) -> dict:
    """Incremental clone: bring a destination store up to the source's
    committed cut, copying ONLY the partitions whose backing file moved
    since the last sync (backup / DR replication, cost ∝ change rate).

    First call bootstraps via ``clone_snapshot``; every later call
    commits one new destination epoch whose source map DELTA-REFERENCES
    the prior destination epoch for unchanged partitions (the same
    metadata-chain mechanism as ``apply_epoch(delta=True)``), so an
    idle source costs one index read and zero data bytes. A source
    fan-out change forces a full re-copy into the new destination epoch
    (pre-images across a repartition are not comparable), and so does a
    last-synced source epoch that the source has since vacuumed. The synced
    source epoch is recorded in ``<dest>/_SYNC`` — the destination
    remains a normal store (scan/verify/vacuum all work), and a crashed
    sync re-runs idempotently through the partition fences.
    """
    import json

    import ray

    from arlas_proc_ray.cdc.snapshot import (
        SnapshotStore,
        _atomic_write_bytes,
    )

    e = src_store._resolve_epoch_arg(epoch)
    if e is None:
        raise RuntimeError("source store has no committed epoch")
    sync_path = os.path.join(dest_root, "_SYNC")

    dest = SnapshotStore(dest_root)
    dest_tip = dest.latest_committed_epoch()
    if dest_tip is None:
        out = clone_snapshot(src_store, dest_root, epoch=e, dest_epoch=0)
        _atomic_write_bytes(
            sync_path, json.dumps({"src_epoch": int(e)}).encode()
        )
        return {**out, "mode": "bootstrap", "partitions_copied":
                out["partitions"]}

    if not os.path.exists(sync_path):
        raise RuntimeError(
            f"{dest_root!r} has commits but no _SYNC marker — not a sync "
            "destination (refusing to overwrite an unrelated store)"
        )
    with open(sync_path) as f:
        prev_src = int(json.load(f)["src_epoch"])
    if prev_src == e:
        return {"mode": "noop", "epoch": dest_tip, "source_epoch": e,
                "partitions_copied": 0}

    # a vacuumed last-synced epoch leaves nothing to diff against
    changed = (
        src_store.changed_partitions(prev_src, e)
        if os.path.exists(src_store.commit_marker_path(prev_src)) else None
    )
    index = src_store.epoch_index(e)
    srcs = [m.epoch for m in index]
    num_parts = len(index)
    full = changed is None
    if full:
        changed, sources = list(range(num_parts)), None
    else:  # an unchanged partition keeps its destination file
        moved = set(changed)
        sources = {p: m.epoch for p, m in enumerate(dest.epoch_index(dest_tip))
                   if p not in moved}
    dest_epoch = dest_tip + 1
    src_root = src_store.root

    @ray.remote(num_cpus=0.25)
    def copy_part(part: int) -> int:
        return _copy_partition(src_root, srcs[part], dest_root, dest_epoch,
                               part)

    copied = ray.get([copy_part.remote(p) for p in changed])
    copied += _copy_segments(src_store, dest, dest_epoch,
                             [index[p] for p in changed])
    dest.commit_epoch(
        dest_epoch, num_parts, sources=sources, expected_prev=dest_tip,
        _manifests={p: _moved(index[p], dest_epoch) for p in changed},
    )
    _atomic_write_bytes(
        sync_path, json.dumps({"src_epoch": int(e)}).encode()
    )
    return {
        "mode": "full" if full else "incremental",
        "epoch": dest_epoch,
        "source_epoch": e,
        "partitions_copied": len(changed),
        "partitions_referenced": num_parts - len(changed),
        "bytes": sum(copied),
    }
