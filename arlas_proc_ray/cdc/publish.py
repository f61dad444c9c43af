"""Incremental search-index publish — snapshot store → Elasticsearch.

The reference's whole purpose is transform-and-LOAD: every ARLAS-proc
pipeline ends in ``writeToElasticsearch`` re-indexing its full output
(sql/WritableDataFrame.scala:83-107). The CDC-native replacement ships
only what changed: ``publish_to_elasticsearch(store, ...)`` reads the
change feed from the last PUBLISHED epoch to the target epoch and sends
the minimal ``_bulk`` action stream — ``index`` for inserted/updated
keys, ``delete`` for keys that left the state — through the same
injectable transport as the batch sink.

Scale shape (the part that matters at 100 TB):

- **The change feed is the diff.** The publish sends the batches of
  ``cdc/feed.py:change_feed`` from the last published epoch to the
  target through ``send_change_actions`` in one ``map_batches``; the
  first publish sends the feed from nothing (every live row an I). The
  feed's per-partition diff needs no shuffle (both epochs share the
  store's hash fan-out), and partitions whose files are the same in
  both epoch indexes are skipped without reading a byte. A sparse epoch
  over a 100 TB table publishes only the partitions its events touched.
- **Exactly-once effect.** Document actions are idempotent (upsert /
  delete by stable ``_id``); the publish checkpoint — an atomic JSON
  under ``<root>/publish/`` — is written only after every action
  posted. A crash mid-publish re-runs the same diff from the same base
  and re-sends the same idempotent actions; the sink converges to the
  target state either way.
- **Vacuum safety.** The published epoch is pinned with a store ref
  (``published-<sink>``), so retention keeps the base readable until
  the next successful publish moves the pin.

Fan-out changes (``repartition_snapshot``) break per-partition file
alignment; the feed then falls back to ONE co-partitioned global diff
(``cdc/diff.py:snapshot_diff``), reported as ``mode="global-diff"`` —
correct, just no longer shuffle-free — and the next incremental publish
re-aligns.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Callable, Sequence

import pandas as pd

from arlas_proc_ray.cdc.feed import change_feed
from arlas_proc_ray.cdc.snapshot import (
    SnapshotStore,
    _atomic_write_bytes,
    _read_json,
)
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


_COUNTS = ("indexed", "deleted", "rejected")


def _checkpoint_path(store: SnapshotStore, sink_id: str) -> str:
    return os.path.join(store.root, "publish", f"{sink_id}.json")


def read_publish_checkpoint(store: SnapshotStore, sink_id: str) -> dict | None:
    return _read_json(_checkpoint_path(store, sink_id))


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

    Sends the change feed from the checkpointed base epoch to the target
    as ``_bulk`` actions. First publish (or ``full=True``): the feed from
    nothing, so every live row is an ``index`` action. Later publishes
    send only I/U/D actions for the partitions whose files changed; a
    fan-out change between the two epochs takes the feed's global diff.
    The checkpoint and the ``published-<sink>`` vacuum pin move only
    after every action posted, so a crashed publish re-runs the same
    idempotent diff.
    """
    target = store._resolve_epoch_arg(epoch)
    if target is None:
        raise RuntimeError("no committed epoch to publish")
    num_partitions = len(store.epoch_index(target))

    ckpt = None if full else read_publish_checkpoint(store, sink_id)
    base = ckpt["epoch"] if ckpt else None
    if base is None:
        mode, published = "bootstrap", num_partitions
    elif base == target:
        mode, published = "noop", 0
    else:
        changed = store.changed_partitions(base, target)
        mode, published = (
            ("global-diff", num_partitions) if changed is None
            else ("incremental", len(changed))
        )

    key_cols = list(key_cols)

    def send(pdf: pd.DataFrame) -> pd.DataFrame:
        counts = dict.fromkeys(_COUNTS, 0)
        if len(pdf):
            counts = send_change_actions(
                pdf, transport=transport_factory(), index=index,
                key_cols=key_cols, mapping_excluded=mapping_excluded,
                chunk_rows=chunk_rows,
            )
        return pd.DataFrame({k: [counts[k]] for k in _COUNTS})

    rows = []
    if mode != "noop":
        rows = change_feed(
            store, base=base, target=target, key_cols=key_cols,
            compare_cols=compare_cols,
        ).map_batches(
            send, batch_format="pandas", batch_size=None, num_cpus=0.5
        ).take_all()

    out = {
        "sink_id": sink_id,
        "index": index,
        "epoch": target,
        "base_epoch": base,
        "partitions_published": published,
        "partitions_skipped": num_partitions - published,
        "mode": mode,
        **{k: sum(int(r[k]) for r in rows) for k in _COUNTS},
    }
    if commit_checkpoint and mode != "noop":
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



