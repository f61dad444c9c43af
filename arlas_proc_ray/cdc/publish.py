"""Incremental search-index publish — snapshot store → Elasticsearch.

The reference's whole purpose is transform-and-LOAD: every ARLAS-proc
pipeline ends in ``writeToElasticsearch`` re-indexing its full output
(sql/WritableDataFrame.scala:83-107). The CDC-native replacement ships
only what changed: ``publish_to_elasticsearch(store, ...)`` diffs the
last PUBLISHED epoch against the target epoch per partition and sends
the minimal ``_bulk`` action stream — ``index`` for inserted/updated
keys, ``delete`` for keys that left the state — through the same
injectable transport as the batch sink.

Scale shape (the part that matters at 100 TB):

- **No shuffle at all.** Both epochs share the store's hash fan-out, so
  partition ``p`` holds the same key range in both states; one Ray task
  per partition reads its two files and classifies locally (the same
  vectorized kernel as ``cdc/diff.py``, minus the exchange it no longer
  needs).
- **Metadata-only pruning.** A partition whose resolved SOURCE epoch is
  identical in both states points at the same immutable file — skipped
  without reading a byte (the delta-epoch chain makes "untouched since
  last publish" a manifest fact, exactly like ``verify_deep``'s
  incremental audit). A sparse epoch over a 100 TB table publishes only
  the partitions its events touched.
- **Exactly-once effect.** Document actions are idempotent (upsert /
  delete by stable ``_id``); the publish checkpoint — an atomic JSON
  under ``<root>/publish/`` — is written only after every partition
  posted. A crash mid-publish re-runs the same diff from the same base
  and re-sends the same idempotent actions; the sink converges to the
  target state either way.
- **Vacuum safety.** The published epoch is pinned with a store ref
  (``published-<sink>``), so retention keeps the base readable until
  the next successful publish moves the pin.

Fan-out changes (``repartition_snapshot``) break per-partition file
alignment; the publish then falls back to ONE co-partitioned global
diff (``cdc/diff.py:snapshot_diff``) — correct, just no longer
shuffle-free — and the next incremental publish re-aligns.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from arlas_proc_ray.cdc.snapshot import SnapshotStore, _atomic_write_bytes
from arlas_proc_ray.sources.elastic import EsWriteAbort, _bulk_ndjson


# ---- doc ids ---------------------------------------------------------------


def stable_doc_ids(pdf: pd.DataFrame, key_cols: Sequence[str]) -> pd.Series:
    """Stable per-key document id: escaped ``#``-join of the key columns.

    Unlike the batch sink's ``<id>#<timestamp>`` (one doc per OBSERVATION,
    WritableDataFrame.scala:84-86), a CDC publish needs one doc per KEY so
    updates overwrite and deletes target the right document. ``#`` and
    ``\\`` inside key values are escaped so composite keys cannot collide
    (``("a#b","c")`` vs ``("a","b#c")``).
    """
    parts = [
        pdf[c]
        .astype(str)
        .str.replace("\\", "\\\\", regex=False)
        .str.replace("#", "\\#", regex=False)
        for c in key_cols
    ]
    out = parts[0]
    for p in parts[1:]:
        out = out + "#" + p
    return out


def split_doc_id(doc_id: str) -> tuple[str, ...]:
    """Inverse of ``stable_doc_ids`` for one id: unescaped key components."""
    parts, cur, i = [], [], 0
    while i < len(doc_id):
        ch = doc_id[i]
        if ch == "\\" and i + 1 < len(doc_id):
            cur.append(doc_id[i + 1])
            i += 2
        elif ch == "#":
            parts.append("".join(cur))
            cur = []
            i += 1
        else:
            cur.append(ch)
            i += 1
    parts.append("".join(cur))
    return tuple(parts)


# ---- local (already co-located) snapshot diff ------------------------------


def _null_safe_neq(a: pd.Series, b: pd.Series) -> np.ndarray:
    an, bn = a.isna().to_numpy(), b.isna().to_numpy()
    neq = (
        (a.to_numpy(object) != b.to_numpy(object))
        if a.dtype == object
        else (a.to_numpy() != b.to_numpy())
    )
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
    """Local changelog between two unique-per-key state tables.

    Same classification as ``cdc/diff.py:snapshot_diff`` but for inputs
    that are ALREADY co-located (two files of the same store partition) —
    no exchange, no Dataset. I/U rows carry the NEW image, D rows the OLD
    image. Byte-exact key codes (Arrow dictionary encoding), so NUL-embedded
    keys stay distinct where a pandas merge would collapse them.

    ``old_image_cols``: additionally return a second frame, positionally
    aligned with the first, holding the OLD values of the named columns
    (NA on I rows, the pre-update image on U, the deleted image on D) —
    what delta-propagation consumers (cdc/views.py) retract. Kept as a
    separate frame so the main output's dtypes stay exact.
    """
    from arlas_proc_ray.cdc.replay import group_ids

    key_cols = list(key_cols)
    o_rows = old.num_rows if old is not None else 0
    n_rows = new.num_rows if new is not None else 0
    ref = new if new is not None else old
    cols = list(ref.column_names)
    if compare_cols is None:
        compare_cols = [c for c in cols if c not in key_cols]
    empty = pd.DataFrame({**{c: [] for c in cols}, op_col: []})

    def with_old(out: pd.DataFrame, old_images: pd.DataFrame | None):
        if old_image_cols is None:
            return out
        if old_images is None:  # every row is an insert: no prior image
            old_images = pd.DataFrame(
                {c: pd.Series([pd.NA] * len(out)) for c in old_image_cols}
            )
        return out, old_images.reset_index(drop=True)

    if not o_rows and not n_rows:
        return with_old(empty, None)
    if not o_rows:
        out = new.to_pandas()
        out[op_col] = "I"
        return with_old(out, None)
    if not n_rows:
        out = old.to_pandas()
        out[op_col] = "D"
        return with_old(out, out[list(old_image_cols)] if old_image_cols else None)

    union_keys = pa.concat_tables(
        [old.select(key_cols), new.select(key_cols)]
    )
    codes = group_ids(union_keys, key_cols)
    oc, nc = codes[:o_rows], codes[o_rows:]
    for name, arr in (("old", oc), ("new", nc)):
        if len(arr) > 1 and len(np.unique(arr)) != len(arr):
            raise ValueError(f"diff_state_tables: {name} side not unique per key")
    o_order = np.argsort(oc)
    oc_sorted = oc[o_order]
    ins_mask = ~np.isin(nc, oc_sorted)
    del_mask = ~np.isin(oc, nc)
    common_new = np.flatnonzero(~ins_mask)
    common_old = o_order[np.searchsorted(oc_sorted, nc[~ins_mask])]

    old_pdf, new_pdf = old.to_pandas(), new.to_pandas()
    changed = np.zeros(len(common_new), dtype=bool)
    for c in compare_cols:
        changed |= _null_safe_neq(
            old_pdf[c].iloc[common_old].reset_index(drop=True),
            new_pdf[c].iloc[common_new].reset_index(drop=True),
        )
    iu = new_pdf.iloc[np.concatenate([np.flatnonzero(ins_mask), common_new[changed]])]
    iu = iu.assign(
        **{op_col: ["I"] * int(ins_mask.sum()) + ["U"] * int(changed.sum())}
    )
    d = old_pdf.iloc[np.flatnonzero(del_mask)].assign(**{op_col: "D"})
    out = pd.concat([iu, d], ignore_index=True) if len(d) or len(iu) else empty
    if old_image_cols is None:
        return out
    # positionally aligned old images for [I..., U..., D...]: reindex with
    # label -1 (absent from the RangeIndex) yields the NA rows for inserts
    # without a per-dtype NA construction
    labels = np.concatenate(
        [
            np.full(int(ins_mask.sum()), -1, dtype=np.int64),
            common_old[changed],
            np.flatnonzero(del_mask),
        ]
    )
    if not len(labels):
        return with_old(out, None)
    # nullable dtypes first: reindex then inserts pd.NA for the I rows
    # without upcasting int64 -> float64 (which would round large LSNs)
    src = old_pdf[list(old_image_cols)].convert_dtypes(convert_string=False)
    return with_old(out, src.reindex(labels))


# ---- bulk action stream -----------------------------------------------------


def send_change_actions(
    pdf: pd.DataFrame,
    *,
    transport,
    index: str,
    key_cols: Sequence[str],
    op_col: str = "op",
    mapping_excluded: Sequence[str] = (),
    chunk_rows: int = 1000,
) -> dict:
    """Post one changelog frame as ES ``_bulk`` actions (idempotent).

    I/U rows become ``index`` actions (upsert by ``_id``), D rows become
    ``delete`` actions (no source line — the bulk protocol's asymmetry).
    Returns {"indexed": n, "deleted": n, "rejected": n}. Connection-level
    failures raise ``EsWriteAbort`` (RestTool.scala:39-45 policy); per-
    record rejections are counted and the publish continues (:61-73).
    """
    excluded = set(mapping_excluded) | {op_col}
    ids = stable_doc_ids(pdf, key_cols)
    ops = pdf[op_col].to_numpy()
    indexed = deleted = rejected = 0
    for start in range(0, len(pdf), chunk_rows):
        chunk = pdf.iloc[start : start + chunk_rows]
        chunk_ops = ops[start : start + chunk_rows]
        body = _bulk_ndjson(
            chunk, index_for_row=itertools.repeat(index),
            id_series=ids.iloc[start : start + chunk_rows],
            excluded=excluded, deletes=chunk_ops == "D",
        )
        try:
            resp = transport.bulk(body)
        except (ConnectionError, TimeoutError) as ex:
            raise EsWriteAbort(str(ex)) from ex
        n_del = int((chunk_ops == "D").sum())
        bad = 0
        if resp.get("errors"):
            for it in resp.get("items", []):
                meta = it.get("index") or it.get("delete") or {}
                # delete-of-missing (404) is idempotent success, not an error
                if "index" in it and meta.get("status", 200) >= 300:
                    bad += 1
        rejected += bad
        indexed += len(chunk) - n_del - bad
        deleted += n_del
    return {"indexed": indexed, "deleted": deleted, "rejected": rejected}


# ---- the incremental publish -------------------------------------------------


def _checkpoint_path(store: SnapshotStore, sink_id: str) -> str:
    return os.path.join(store.root, "publish", f"{sink_id}.json")


def read_publish_checkpoint(store: SnapshotStore, sink_id: str) -> dict | None:
    p = _checkpoint_path(store, sink_id)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def publish_to_elasticsearch(
    store: SnapshotStore,
    *,
    index: str,
    transport_factory: Callable[[], object],
    key_cols: Sequence[str] = ("repo", "path"),
    compare_cols: Sequence[str] | None = None,
    sink_id: str = "default",
    epoch: int | str | None = None,
    mapping_excluded: Sequence[str] = (),
    chunk_rows: int = 1000,
    full: bool = False,
    commit_checkpoint: bool = True,
) -> dict:
    """Publish a committed snapshot to a search index, incrementally.

    First publish (or ``full=True``): every live row is an ``index``
    action. Subsequent publishes diff the checkpointed base epoch against
    the target per partition — unchanged partitions (same resolved source
    file) are skipped from manifests alone — and send only I/U/D actions.
    The checkpoint and the ``published-<sink>`` vacuum pin move only after
    every partition posted, so a crashed publish re-runs the same
    idempotent diff.
    """
    import ray

    target = store._resolve_epoch_arg(epoch)
    if target is None:
        raise RuntimeError("no committed epoch to publish")
    tgt = store.partition_layouts(target)
    num_partitions = len(tgt)

    ckpt = None if full else read_publish_checkpoint(store, sink_id)
    base = ckpt["epoch"] if ckpt else None
    base_parts = None
    todo = list(range(num_partitions))
    if base is not None:
        if base == target:
            return {
                "sink_id": sink_id, "index": index, "epoch": target,
                "base_epoch": base, "partitions_published": 0,
                "partitions_skipped": num_partitions,
                "indexed": 0, "deleted": 0, "rejected": 0, "mode": "noop",
            }
        # an unchanged partition has the same immutable file both sides
        todo = store.changed_partitions(base, target)
        if todo is None:
            return _publish_global_diff(
                store, base=base, target=target, index=index,
                transport_factory=transport_factory, key_cols=key_cols,
                compare_cols=compare_cols, sink_id=sink_id,
                mapping_excluded=mapping_excluded, chunk_rows=chunk_rows,
                commit_checkpoint=commit_checkpoint,
            )
        base_parts = store.partition_layouts(base)
    skipped = num_partitions - len(todo)

    key_cols = list(key_cols)

    @ray.remote(num_cpus=0.5)
    def publish_partition(part: int) -> dict:
        old = (
            store.read_resolved(base_parts[part], part)
            if base is not None
            else None
        )
        new = store.read_resolved(tgt[part], part)
        diff = diff_state_tables(
            old, new, key_cols=key_cols, compare_cols=compare_cols
        )
        if not len(diff):
            return {"partition": part, "indexed": 0, "deleted": 0,
                    "rejected": 0, "actions": 0}
        counts = send_change_actions(
            diff,
            transport=transport_factory(),
            index=index,
            key_cols=key_cols,
            mapping_excluded=mapping_excluded,
            chunk_rows=chunk_rows,
        )
        return {"partition": part, "actions": len(diff), **counts}

    results = ray.get([publish_partition.remote(p) for p in todo])

    totals = {
        k: sum(r[k] for r in results) for k in ("indexed", "deleted", "rejected")
    }
    out = {
        "sink_id": sink_id,
        "index": index,
        "epoch": target,
        "base_epoch": base,
        "partitions_published": len(todo),
        "partitions_skipped": skipped,
        "mode": "bootstrap" if base is None else "incremental",
        **totals,
        "partition_lineage": {
            str(r["partition"]): {k: r[k] for k in ("actions", "indexed", "deleted", "rejected")}
            for r in results
        },
    }
    if commit_checkpoint:
        _commit_publish(store, sink_id, out, num_partitions)
    return out


def _commit_publish(store: SnapshotStore, sink_id: str, out: dict, num_partitions: int):
    ckpt = {
        "sink_id": sink_id,
        "index": out["index"],
        "epoch": out["epoch"],
        "num_partitions": num_partitions,
        "last_publish": {
            k: out[k]
            for k in ("base_epoch", "partitions_published", "partitions_skipped",
                      "indexed", "deleted", "rejected", "mode")
        },
    }
    _atomic_write_bytes(
        _checkpoint_path(store, sink_id), json.dumps(ckpt).encode()
    )
    # pin the published epoch so vacuum keeps the next publish's base readable
    store.tag(f"published-{sink_id}", out["epoch"])


def _publish_global_diff(
    store: SnapshotStore,
    *,
    base: int,
    target: int,
    index: str,
    transport_factory,
    key_cols,
    compare_cols,
    sink_id: str,
    mapping_excluded,
    chunk_rows: int,
    commit_checkpoint: bool = True,
) -> dict:
    """Fan-out changed between base and target: one co-partitioned global
    diff (cdc/diff.py) replaces the per-partition file alignment."""
    from arlas_proc_ray.cdc.diff import snapshot_diff

    num_partitions = len(store.epoch_index(target))
    new_ds = store.state_dataset(target)
    old_ds = store.state_dataset(base)
    key_cols = list(key_cols)
    diff = snapshot_diff(
        old_ds,
        new_ds,
        key=key_cols,
        compare=compare_cols
        or [c for c in _state_columns(store, target) if c not in key_cols],
        num_partitions=max(num_partitions, 8),
    )

    def send(pdf: pd.DataFrame) -> pd.DataFrame:
        if not len(pdf):
            return pd.DataFrame({"indexed": [0], "deleted": [0], "rejected": [0]})
        c = send_change_actions(
            pdf,
            transport=transport_factory(),
            index=index,
            key_cols=key_cols,
            mapping_excluded=mapping_excluded,
            chunk_rows=chunk_rows,
        )
        return pd.DataFrame({k: [v] for k, v in c.items()})

    counts = diff.map_batches(send, batch_format="pandas", batch_size=None).to_pandas()
    out = {
        "sink_id": sink_id,
        "index": index,
        "epoch": target,
        "base_epoch": base,
        "partitions_published": num_partitions,
        "partitions_skipped": 0,
        "mode": "global-diff",
        "indexed": int(counts["indexed"].sum()),
        "deleted": int(counts["deleted"].sum()),
        "rejected": int(counts["rejected"].sum()),
        "partition_lineage": {},
    }
    if commit_checkpoint:
        _commit_publish(store, sink_id, out, num_partitions)
    return out


def _state_columns(store: SnapshotStore, epoch: int) -> list[str]:
    import pyarrow.parquet as pq

    files = store.epoch_files(epoch)
    return list(pq.read_schema(files[0]).names) if files else []
