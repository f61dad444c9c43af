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

Scale design (identical skeleton to ``CdcEngine.apply_epoch``):

- source rows hash-partition ONCE on the store's key columns — the one
  all-to-all exchange; each partition task reads ONLY its resolved
  prior-state file, merges vectorized (pandas keyed join + boolean
  masks, no row loops), re-hashes only written images, and commits
  through the store's fenced ``write_partition`` — so a crashed merge
  resumes, a retried task rewrites identical bytes, and OCC
  (``expected_prev``) rejects interleaved writers.
- untouched partitions are delta-referenced (metadata only) unless
  ``when_not_matched_by_source="delete"`` forces a full pass (every
  partition must drop unmatched rows — there is no metadata shortcut
  for global sync, and the code refuses to pretend otherwise).
"""

from __future__ import annotations

import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from arlas_proc_ray.cdc.engine import open_epoch
from arlas_proc_ray.cdc.events import FINAL_STATE_SCHEMA
from arlas_proc_ray.model import DataModel

PART_COL = DataModel.PARTITION_COL

_ACTIONS_MATCHED = ("update", "delete", "ignore")
_ACTIONS_NOT_MATCHED = ("insert", "ignore")
_ACTIONS_BY_SOURCE = ("ignore", "delete")

# payload columns a source may provide (key cols come from the DataModel)
_PAYLOAD_COLS = ("commit", "language", "content", "content_size")


def _final_state_frame(rows: dict) -> pa.Table:
    cols = {}
    for f in FINAL_STATE_SCHEMA:
        cols[f.name] = pa.array(rows.get(f.name, []), f.type)
    return pa.table(cols)


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

    dm = engine.dm
    store = engine.store
    fault_hook = engine.fault_hook
    key_cols = dm.key_list

    prev_epoch, prior_src = open_epoch(store, dm, epoch)

    def read_prior(part: int):
        """Committed state of ``part`` and its applied-LSN watermark."""
        src_e = prior_src(part)
        if src_e is None:
            return None, -1
        pm = store.read_manifest(src_e, part)
        return store.read_partition(src_e, part), pm.last_lsn if pm else -1

    from arlas_proc_ray.cdc.replay import add_partition_stage

    ds = add_partition_stage(source_ds, dm)

    def merge_partition(group: pa.Table) -> pa.Table:
        part = int(group.column(PART_COL)[0].as_py())
        if store.partition_done(epoch, part):  # crash-resume fence
            return pa.table({"partition_id": pa.array([part], pa.int32())})

        prior, prior_last = read_prior(part)
        t0 = time.perf_counter()
        src = group.drop_columns([PART_COL]).to_pandas()
        # dedup source per key: highest source lsn wins (deterministic)
        if source_lsn_col in src.columns:
            src = src.sort_values(source_lsn_col, kind="mergesort")
        src = src.drop_duplicates(subset=key_cols, keep="last")

        tgt = (
            prior.to_pandas()
            if prior is not None and prior.num_rows
            else pd.DataFrame(
                {f.name: pd.Series([], dtype=object) for f in FINAL_STATE_SCHEMA}
            )
        )

        final = _merge_frames(
            src,
            tgt,
            key_cols=key_cols,
            when_matched=when_matched,
            when_not_matched=when_not_matched,
            when_not_matched_by_source=when_not_matched_by_source,
            matched_condition=matched_condition,
            source_lsn_col=source_lsn_col,
            prior_last=prior_last,
        )

        src_max = (
            int(src[source_lsn_col].max())
            if source_lsn_col in src.columns and len(src)
            else -1
        )
        watermark = max(prior_last, src_max)
        if fault_hook is not None:
            fault_hook(epoch, part)
        store.write_partition(
            epoch, part, final, last_lsn=watermark,
            metrics={
                "merge_source_rows": int(len(src)),
                "apply_s": round(time.perf_counter() - t0, 4),
            },
        )
        return pa.table({"partition_id": pa.array([part], pa.int32())})

    manifests = ds.groupby(PART_COL).map_groups(
        merge_partition, batch_format="pyarrow"
    )
    done = {r["partition_id"] for r in manifests.take_all()}

    import ray

    @ray.remote(num_cpus=0.5)
    def finish_partition(part: int):
        """No-source-rows partition: carry forward, or sync-delete all."""
        if store.partition_done(epoch, part):
            return part
        prior, prior_last = read_prior(part)
        if when_not_matched_by_source == "delete":
            carried = FINAL_STATE_SCHEMA.empty_table()
        else:
            carried = (
                prior if prior is not None else FINAL_STATE_SCHEMA.empty_table()
            )
        if fault_hook is not None:
            fault_hook(epoch, part)
        store.write_partition(
            epoch, part, carried, last_lsn=prior_last,
            metrics={"merge_source_rows": 0, "carried_forward": True},
        )
        return part

    pending = [
        p
        for p in range(dm.num_partitions)
        if p not in done and not store.partition_done(epoch, p)
    ]
    if (
        when_not_matched_by_source == "ignore"
        and prev_epoch is not None
        and pending
    ):
        # untouched partitions: metadata-only delta references
        sources = {p: prior_src(p) for p in pending}
        return store.commit_epoch(
            epoch, dm.num_partitions, sources=sources, expected_prev=prev_epoch
        )
    if pending:
        ray.get([finish_partition.remote(p) for p in pending])
    return store.commit_epoch(
        epoch, dm.num_partitions, expected_prev=prev_epoch
    )


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
    (highest-``source_lsn_col`` wins) even though ``merge_into``'s
    partition path already dedups — a direct caller must get the same
    semantics (the Hypothesis property caught the implicit contract).
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
