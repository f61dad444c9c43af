"""MERGE INTO over the snapshot store: declarative keyed upsert/sync.

The CDC engines apply op-tagged change events; ``merge_into`` is the
complementary lakehouse verb for UN-tagged data — "make the table agree
with this source" — with the full SQL MERGE action matrix:

- WHEN MATCHED            → ``update`` | ``delete`` | ``ignore``
  (optionally gated by ``matched_condition``, a vectorized expression
  over ``s_<col>``/``t_<col>`` columns; unmet condition keeps the
  target row)
- WHEN NOT MATCHED        → ``insert`` | ``ignore``
- WHEN NOT MATCHED BY SOURCE → ``ignore`` | ``delete``
  (``delete`` turns the merge into a full sync: target keys absent
  from the source die)

Reference parity note: ARLAS-proc has no MERGE; its closest shape is
the dedup-and-overwrite DataFrameFormatter pass. This operator follows
the PUBLIC semantics of ANSI SQL:2003 MERGE (and its Delta/Iceberg
incarnations), implemented Ray-Data-first.

Scale design: ``merge_into`` is one more writer on the staged exchange
(cdc/staged.py) and the partition kernel (``cdc.engine.apply_partition``)
that every CDC epoch runs, so it shares their fence, prior read, fenced
write, manifests and crash-resume:

- source rows hash-partition ONCE on the store's key columns — the one
  all-to-all exchange, G = min(P, CPUs) merge tasks; each partition
  reads ONLY its resolved prior-state file and folds the source into it
  (:func:`merge_fold`: vectorized pandas keyed join + boolean masks, no
  row loops, re-hashing only written images). A crashed merge resumes,
  a retried task rewrites identical bytes, and OCC (``expected_prev``)
  rejects interleaved writers.
- partitions with no source rows are delta-referenced (metadata only)
  unless ``when_not_matched_by_source="delete"`` forces a full pass
  (every partition must drop unmatched rows — there is no metadata
  shortcut for global sync, and the code refuses to pretend otherwise).

Manifests carry the kernel's metrics: ``events_in`` (source rows routed
to the partition), ``fence_dropped`` (always 0: MERGE has no LSN fence),
``events_applied`` (rows left after the per-key dedup) and ``apply_s``.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa

from arlas_proc_ray.cdc.engine import _materialized, open_epoch
from arlas_proc_ray.cdc.events import FINAL_STATE_SCHEMA

_ACTIONS_MATCHED = ("update", "delete", "ignore")
_ACTIONS_NOT_MATCHED = ("insert", "ignore")
_ACTIONS_BY_SOURCE = ("ignore", "delete")

# payload columns a source may provide (key cols come from the DataModel)
_PAYLOAD_COLS = ("commit", "language", "content", "content_size")


def merge_into(
    engine,
    source_ds,
    epoch: int,
    *,
    when_matched: str = "update",
    when_not_matched: str = "insert",
    when_not_matched_by_source: str = "ignore",
    matched_condition: str | None = None,
    source_lsn_col: str = "lsn",
) -> dict:
    """Merge ``source_ds`` into ``engine``'s snapshot store as ``epoch``.

    ``source_ds`` must carry the store's key columns plus any of
    ``commit / language / content / content_size`` (absent payload
    columns write as null; ``content_size`` defaults to
    ``len(content)``; ``content_sha256`` is always recomputed). A
    ``source_lsn_col`` column orders duplicate source keys (highest
    wins) and advances the partition watermark; rows written by this
    merge carry it as ``last_lsn``.

    ``matched_condition``: a ``DataFrame.eval`` boolean expression over
    ``s_<col>`` (source) and ``t_<col>`` (target payload) columns, e.g.
    ``"s_content != t_content"`` — matched rows failing it keep the
    target image (per SQL MERGE, an unmet WHEN MATCHED guard is a
    no-op).

    Returns the commit-marker dict from ``SnapshotStore.commit_epoch``.
    """
    if when_matched not in _ACTIONS_MATCHED:
        raise ValueError(f"when_matched must be one of {_ACTIONS_MATCHED}")
    if when_not_matched not in _ACTIONS_NOT_MATCHED:
        raise ValueError(f"when_not_matched must be one of {_ACTIONS_NOT_MATCHED}")
    if when_not_matched_by_source not in _ACTIONS_BY_SOURCE:
        raise ValueError(
            f"when_not_matched_by_source must be one of {_ACTIONS_BY_SOURCE}"
        )

    from arlas_proc_ray.cdc.staged import _Epoch

    prev_epoch, prior = open_epoch(engine.store, engine.dm, epoch)
    fold = partial(
        merge_fold,
        key_cols=engine.dm.key_list,
        when_matched=when_matched,
        when_not_matched=when_not_matched,
        when_not_matched_by_source=when_not_matched_by_source,
        matched_condition=matched_condition,
        source_lsn_col=source_lsn_col,
    )
    writer = _Epoch(engine, epoch, fold, prev_epoch=prev_epoch,
                    prior=prior, delta=True)
    return engine._staged_exchange(
        _materialized(source_ds), epoch, writer=writer
    )


def merge_fold(ev, prior, prior_last: int, *, key_cols: list[str],
               when_not_matched_by_source: str, source_lsn_col: str,
               **actions):
    """One partition's MERGE as a kernel fold (``apply_partition``):
    the routed source rows ``ev`` into the prior state, duplicate keys
    resolved by :func:`_merge_frames`. A partition with no source rows is
    unchanged, or emptied by a full sync."""
    if ev is None:
        if when_not_matched_by_source == "delete":
            return FINAL_STATE_SCHEMA.empty_table(), prior_last, (0, 0, 0)
        return None, prior_last, (0, 0, 0)
    src = ev.replace_schema_metadata(None).to_pandas()
    tgt = (
        prior.to_pandas()
        if prior is not None and prior.num_rows
        else pd.DataFrame(
            {f.name: pd.Series([], dtype=object) for f in FINAL_STATE_SCHEMA}
        )
    )
    final = _merge_frames(
        src, tgt, key_cols=key_cols,
        when_not_matched_by_source=when_not_matched_by_source,
        source_lsn_col=source_lsn_col, prior_last=prior_last, **actions,
    )
    src_max = (
        int(src[source_lsn_col].max()) if source_lsn_col in src.columns else -1
    )
    # rows left after _merge_frames' per-key dedup
    applied = len(src.drop_duplicates(subset=key_cols))
    return final, max(prior_last, src_max), (ev.num_rows, 0, applied)


def _merge_frames(
    src: pd.DataFrame,
    tgt: pd.DataFrame,
    *,
    key_cols: list[str],
    when_matched: str,
    when_not_matched: str,
    when_not_matched_by_source: str,
    matched_condition: str | None,
    source_lsn_col: str,
    prior_last: int,
) -> pa.Table:
    """One partition's merge, fully vectorized. Returns final-state rows.

    Self-contained: duplicate source keys are resolved here
    (highest-``source_lsn_col`` wins), for ``merge_fold`` and a direct
    caller alike (the Hypothesis property pins it).
    """
    from arlas_proc_ray.cdc.publish import stable_doc_ids
    from arlas_proc_ray.functions.hashing import sha256_hex

    payload = [c for c in _PAYLOAD_COLS if c in src.columns]

    src = src.copy()
    tgt = tgt.copy()
    if source_lsn_col in src.columns:
        src = src.sort_values(source_lsn_col, kind="mergesort")
    src = src.drop_duplicates(subset=key_cols, keep="last")
    # byte-exact keyed join on the store's escaped composite key
    src["_jk"] = stable_doc_ids(src, key_cols) if len(src) else pd.Series([], dtype=object)
    tgt["_jk"] = stable_doc_ids(tgt, key_cols) if len(tgt) else pd.Series([], dtype=object)

    in_tgt = src["_jk"].isin(set(tgt["_jk"]))
    matched_src = src.loc[in_tgt]

    def condition_jks() -> set:
        """Keys of matched pairs passing ``matched_condition`` (all, if
        no condition) — evaluated once on the joined s_*/t_* frame."""
        if not len(matched_src):
            return set()
        if matched_condition is None:
            return set(matched_src["_jk"])
        pair = matched_src.merge(
            tgt, on="_jk", how="inner", suffixes=("_SRC", "_TGT")
        )
        env = {}
        for c in payload + [source_lsn_col]:
            cand = f"{c}_SRC" if f"{c}_SRC" in pair.columns else (
                c if c in pair.columns else None
            )
            if cand:
                env[f"s_{c}"] = pair[cand]
        for f in FINAL_STATE_SCHEMA:
            cand = f"{f.name}_TGT" if f"{f.name}_TGT" in pair.columns else (
                f.name if f.name in pair.columns else None
            )
            if cand:
                env[f"t_{f.name}"] = pair[cand]
        cond = np.asarray(
            pd.eval(matched_condition, local_dict=env, engine="python"),
            dtype=bool,
        )
        return set(pair.loc[cond, "_jk"])

    # ---- matched action --------------------------------------------------
    if when_matched == "update":
        updated_jk = condition_jks()
        update_rows = matched_src[matched_src["_jk"].isin(updated_jk)]
        tgt_kill = updated_jk  # replaced by the source image
    elif when_matched == "delete":
        update_rows = src.iloc[0:0]
        tgt_kill = condition_jks()
    else:  # ignore
        update_rows = src.iloc[0:0]
        tgt_kill = set()

    # ---- survivors -------------------------------------------------------
    keep_tgt = tgt[~tgt["_jk"].isin(tgt_kill)]
    if when_not_matched_by_source == "delete":
        keep_tgt = keep_tgt[keep_tgt["_jk"].isin(set(src["_jk"]))]

    insert_rows = (
        src.loc[~in_tgt] if when_not_matched == "insert" else src.iloc[0:0]
    )
    written = pd.concat([update_rows, insert_rows], ignore_index=True)

    # ---- materialize written images as final-state rows ------------------
    n = len(written)
    out_new = pd.DataFrame(index=range(n))
    for c in key_cols:
        out_new[c] = written[c].astype(object)
    for c in _PAYLOAD_COLS:
        out_new[c] = (
            written[c].to_numpy(object) if c in written.columns else None
        )
    if n:
        content = out_new["content"].astype(object)
        size_missing = pd.isna(out_new["content_size"])
        computed = content.map(
            lambda s: len(s.encode("utf-8")) if isinstance(s, str) else None
        )
        out_new.loc[size_missing, "content_size"] = computed[size_missing]
        sha = sha256_hex(pa.array(content, pa.string()))
        out_new["content_sha256"] = np.asarray(sha, dtype=object)
        out_new["last_lsn"] = (
            written[source_lsn_col].to_numpy(np.int64)
            if source_lsn_col in written.columns
            else np.int64(prior_last + 1)
        )
    else:
        out_new["content_sha256"] = pd.Series([], dtype=object)
        out_new["last_lsn"] = pd.Series([], dtype=np.int64)

    keep_tgt = keep_tgt.drop(columns=["_jk"])
    out = pd.concat([keep_tgt, out_new], ignore_index=True)
    cols = {}
    for f in FINAL_STATE_SCHEMA:
        if f.name in out.columns:
            if pa.types.is_integer(f.type):
                vals = pd.to_numeric(out[f.name])
                cols[f.name] = pa.array(vals, f.type, from_pandas=True)
            else:
                cols[f.name] = pa.array(out[f.name].astype(object), f.type, from_pandas=True)
        else:
            cols[f.name] = pa.nulls(len(out), f.type)
    final = pa.table(cols)
    # deterministic physical order (matches the engine's finalize)
    return final.sort_by([(c, "ascending") for c in key_cols])
