"""Incrementally-maintained MinHash-LSH near-duplicate index over a store.

``refresh_neardup_index`` keeps an LSH band-bucket index — rows
``(band_id, band_hash, key)`` hash-partitioned by the band bucket — of a
snapshot store's state table, maintained epoch-over-epoch from the
change data feed (``cdc/feed.py``) instead of re-signing the corpus:

- **I** rows add the new document's band rows,
- **U** rows remove the rows the OLD content produced (recomputed
  deterministically from the feed's pre-image — signatures are seeded,
  so the removal tuples are byte-identical to what bootstrap wrote) and
  add the new content's rows,
- **D** rows remove the final image's band rows.

``epoch_near_duplicates`` then answers the question a 100-TB ingest
pipeline actually asks — *which documents that changed THIS epoch are
near-duplicates of anything already in the corpus?* — by probing only
the changed documents' buckets against the index and exact-Jaccard
verifying the candidates with the same zero-driver-state co-partitioned
pair join the batch dedup uses (``minhash._distributed_verify``,
string-keyed). The corpus is never re-scanned, never re-signed.

Reference parity: ARLAS-proc has no incremental anything — every run
re-reads and re-processes its whole input slice; the batch MinHash
pipeline (``dedup/minhash.py``) is the from-scratch equivalent and the
test oracle (an index refreshed through any epoch chain must equal the
index bootstrapped from the final state, tuple for tuple).

Scale shape:

- **Refresh cost ∝ changed docs × bands**, not corpus size: the feed is
  index-pruned, signatures are computed only for changed images, and
  ONE keyed exchange routes delta rows to their index partitions.
- **Index partitioning is by band bucket, independent of the store's
  key fan-out** — a snapshot ``repartition_snapshot`` does NOT
  invalidate the index (but it breaks the feed's pre-images, so that
  refresh falls back to a full rebuild).
- **Byte-exact removals.** Anti-joins run on UTF-8-encoded key bytes
  (pandas object-string merges collapse NUL-distinct keys).
- **Crash-safe.** Part files are written atomically under an epoch
  suffix; the checkpoint (epoch, spec, per-partition sources) moves
  last. A rerun recomputes the same deltas from the same base and
  overwrites the same files — idempotent.

Storage/refresh/crash-safety machinery is the shared partitioned-index
kit (``cdc/index_base.py``); this module owns the LSH-specific delta
computation and the probe.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from arlas_proc_ray.cdc.index_base import (
    IncrementalPartitionedIndex,
    state_dataset as _state_dataset,
)
from arlas_proc_ray.cdc.snapshot import SnapshotStore
from arlas_proc_ray.dedup.minhash import MinHasher, _distributed_verify
from arlas_proc_ray.cdc.publish import stable_doc_ids


def _bare_kit(store: SnapshotStore, index_id: str) -> "_NearDupIndex":
    """Kit instance for path/checkpoint/read access (no refresh spec)."""
    return _NearDupIndex(store, index_id, {"num_partitions": 0}, 0)


def _index_dir(store: SnapshotStore, index_id: str) -> str:
    return _bare_kit(store, index_id).dir()


def _part_path(store: SnapshotStore, index_id: str, p: int, epoch: int) -> str:
    return _bare_kit(store, index_id).part_path(p, epoch)


def read_index_checkpoint(store: SnapshotStore, index_id: str) -> dict | None:
    return _bare_kit(store, index_id).read_checkpoint()


_TRIPLE = ["band_id", "band_hash", "key"]


def _empty_triples_arrow(delta: bool = False) -> pa.Table:
    """Arrow typed empty for Ray-returned paths (pandas block sizing
    chokes on zero-length object columns)."""
    cols = {
        "band_id": pa.array([], pa.int32()),
        "band_hash": pa.array([], pa.uint64()),
        "key": pa.array([], pa.string()),
    }
    if delta:
        cols["delta"] = pa.array([], pa.int8())
    return pa.table(cols)


def _empty_pairs_arrow() -> pa.Table:
    return pa.table(
        {"doc_a": pa.array([], pa.string()), "doc_b": pa.array([], pa.string())}
    )


def _empty_triples() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "band_id": pd.Series([], dtype=np.int32),
            "band_hash": pd.Series([], dtype=np.uint64),
            "key": pd.Series([], dtype=object),
        }
    )


def _band_rows(mh: MinHasher, keys, texts) -> pd.DataFrame:
    """(band_id, band_hash, key) rows for string-keyed documents."""
    ks, sigs = [], []
    for k, t in zip(keys, texts):
        if not t:
            continue
        ks.append(k)
        sigs.append(mh.signature(t))
    if not ks:
        return _empty_triples()
    bh = mh.band_hashes_matrix(np.stack(sigs))
    n = len(ks)
    return pd.DataFrame(
        {
            "band_id": np.tile(np.arange(mh.bands, dtype=np.int32), n),
            "band_hash": bh.ravel(),
            "key": np.repeat(np.asarray(ks, dtype=object), mh.bands),
        }
    )


def _read_part(store: SnapshotStore, index_id: str, p: int, epoch) -> pd.DataFrame:
    return _bare_kit(store, index_id).read_part(p, epoch)


def _make_hasher(spec: dict) -> MinHasher:
    return MinHasher(
        num_perm=spec["num_perm"], bands=spec["bands"], ngram=spec["ngram"],
        algo=spec["algo"],
    )


class _NearDupIndex(IncrementalPartitionedIndex):
    kind = "neardup"
    schema = pa.schema(
        [("band_id", pa.int32()), ("band_hash", pa.uint64()),
         ("key", pa.string())]
    )
    identity_cols = _TRIPLE
    keep = "first"

    def bootstrap_deltas(self, target: int):
        key_cols = list(self.spec["key_cols"])
        text_col = self.spec["text_col"]
        mh_spec = {k: self.spec[k]
                   for k in ("num_perm", "bands", "ngram", "algo")}
        empty = self.empty_rows_arrow(delta=True)

        def to_triples(pdf: pd.DataFrame):
            mh = _make_hasher(mh_spec)
            out = _band_rows(mh, stable_doc_ids(pdf, key_cols), pdf[text_col])
            if not len(out):
                return empty
            out["delta"] = np.int8(1)
            return out

        return _state_dataset(
            self.store, target, key_cols + [text_col]
        ).map_batches(to_triples, batch_format="pandas", batch_size=None)

    def feed_deltas(self, base: int, target: int):
        from arlas_proc_ray.cdc.feed import change_feed

        key_cols = list(self.spec["key_cols"])
        text_col = self.spec["text_col"]
        mh_spec = {k: self.spec[k]
                   for k in ("num_perm", "bands", "ngram", "algo")}
        empty = self.empty_rows_arrow(delta=True)

        feed = change_feed(
            self.store, base=base, target=target,
            columns=[text_col], compare_cols=[text_col],
            include_old=[text_col],
        )

        def feed_to_triples(pdf: pd.DataFrame):
            if not len(pdf):
                return empty
            mh = _make_hasher(mh_spec)
            keys = stable_doc_ids(pdf, key_cols)
            ops = pdf["op"].to_numpy()
            frames = []
            add_mask = (ops == "I") | (ops == "U")
            if add_mask.any():
                a = _band_rows(mh, keys[add_mask], pdf.loc[add_mask, text_col])
                a["delta"] = np.int8(1)
                frames.append(a)
            # U removes the OLD image's rows (recomputed deterministically
            # from the seeded signatures); D rows carry the old image in
            # the main column already
            u_mask = ops == "U"
            d_mask = ops == "D"
            old_texts = pd.concat(
                [pdf.loc[u_mask, f"old_{text_col}"], pdf.loc[d_mask, text_col]]
            )
            old_keys = pd.concat([keys[u_mask], keys[d_mask]])
            if len(old_keys):
                r = _band_rows(mh, old_keys, old_texts)
                r["delta"] = np.int8(-1)
                frames.append(r)
            if not frames:
                return empty
            return pd.concat(frames, ignore_index=True)

        return feed.map_batches(feed_to_triples, batch_format="pandas", batch_size=None)

    def route(self, table: pa.Table) -> np.ndarray:
        from arlas_proc_ray.functions.hashing import partition_ids

        return partition_ids(
            table, ["band_id", "band_hash"], self.num_partitions
        )


def refresh_neardup_index(
    store: SnapshotStore,
    *,
    index_id: str = "default",
    key_cols: Sequence[str] = ("repo", "path"),
    text_col: str = "content",
    epoch: int | str | None = None,
    num_perm: int = 128,
    bands: int = 32,
    ngram: int = 5,
    algo: str = "oph",
    num_partitions: int = 16,
    full: bool = False,
    commit_checkpoint: bool = True,
) -> dict:
    """Bring the LSH index up to ``epoch`` (default: latest committed).

    Bootstrap signs the whole state once; every later refresh signs only
    the changed images from the change feed and rewrites only the index
    partitions their band buckets hash into.
    """
    spec = {
        "num_perm": num_perm, "bands": bands, "ngram": ngram, "algo": algo,
        "num_partitions": num_partitions, "key_cols": list(key_cols),
        "text_col": text_col,
    }
    kit = _NearDupIndex(store, index_id, spec, num_partitions)
    return kit.refresh(epoch=epoch, full=full,
                       commit_checkpoint=commit_checkpoint)


def read_index(store: SnapshotStore, index_id: str = "default") -> pd.DataFrame:
    """The whole index as one frame (tests / small corpora only)."""
    kit = _bare_kit(store, index_id)
    ckpt = kit.read_checkpoint()
    if ckpt is None:
        raise RuntimeError(f"index {index_id!r} has never been refreshed")
    kit.spec = ckpt["spec"]
    kit.num_partitions = ckpt["spec"]["num_partitions"]
    return kit.read_all()


def epoch_near_duplicates(
    store: SnapshotStore,
    *,
    index_id: str = "default",
    base: int | str,
    target: int | str | None = None,
    jaccard_threshold: float = 0.8,
    max_bucket_size: int = 64,
    verify_partitions: int = 16,
    verify_mode: str = "auto",
    broadcast_limit: int = 200_000,
):
    """Near-duplicate pairs involving documents changed in (base, target].

    Probes ONLY the changed documents' band buckets against the index
    (which must be refreshed to ``target``), then exact-Jaccard verifies
    the candidates. The involved-document count is bounded by
    changed docs × bands × max_bucket_size — small for a normal epoch —
    so ``verify_mode="auto"`` broadcasts the involved docs' shingle
    arrays and scores pairs with ZERO exchanges (two keyed sorts cost
    ~seconds of fixed overhead regardless of data size); past
    ``broadcast_limit`` involved docs it switches to the zero-driver-state
    co-partitioned pair join (``minhash._distributed_verify``).
    Returns a Dataset of (doc_a, doc_b, jaccard) — escaped string keys,
    doc_a < doc_b; pairs between two changed documents appear once.
    """
    from arlas_proc_ray.cdc.feed import change_feed
    from arlas_proc_ray.functions.hashing import partition_ids

    ckpt = read_index_checkpoint(store, index_id)
    if ckpt is None:
        raise RuntimeError(f"index {index_id!r} has never been refreshed")
    t = store._resolve_epoch_arg(target)
    if ckpt["epoch"] != t:
        raise RuntimeError(
            f"index {index_id!r} is at epoch {ckpt['epoch']}, probe wants "
            f"{t}: refresh_neardup_index first"
        )
    spec = ckpt["spec"]
    key_cols = list(spec["key_cols"])
    text_col = spec["text_col"]
    sources = ckpt["sources"]
    mh_spec = {k: spec[k] for k in ("num_perm", "bands", "ngram", "algo")}
    num_partitions = spec["num_partitions"]

    feed = change_feed(
        store, base=base, target=t,
        columns=[text_col], compare_cols=[text_col],
    )

    def probe_rows(pdf: pd.DataFrame):
        if not len(pdf):
            return _empty_triples_arrow()
        changed = pdf[pdf["op"].isin(["I", "U"])]
        mh = _make_hasher(mh_spec)
        out = _band_rows(
            mh, stable_doc_ids(changed, key_cols), changed[text_col]
        )
        return out if len(out) else _empty_triples_arrow()

    probes = feed.map_batches(probe_rows, batch_format="pandas", batch_size=None)

    def add_part(tbl: pa.Table) -> pa.Table:
        pid = partition_ids(tbl, ["band_id", "band_hash"], num_partitions)
        return tbl.append_column("_part", pa.array(pid, pa.int32()))

    probes = probes.map_batches(add_part, batch_format="pyarrow", batch_size=None)

    def probe_fold(p: int, group: pd.DataFrame) -> pd.DataFrame:
        idx = _read_part(store, index_id, p, sources.get(str(p)))
        if not len(idx) or not len(group):
            return _empty_pairs_arrow()
        # deterministic degenerate-bucket guard (sorted head per bucket)
        idx = idx.sort_values(_TRIPLE, kind="mergesort")
        idx = idx.groupby(["band_id", "band_hash"], sort=False).head(
            max_bucket_size
        )
        m = group[["band_id", "band_hash", "key"]].drop_duplicates().merge(
            idx, on=["band_id", "band_hash"], suffixes=("", "_other")
        )
        m = m[m["key"] != m["key_other"]]
        if not len(m):
            return _empty_pairs_arrow()
        a = m["key"].to_numpy(object)
        b = m["key_other"].to_numpy(object)
        swap = a > b
        return pd.DataFrame(
            {"doc_a": np.where(swap, b, a), "doc_b": np.where(swap, a, b)}
        ).drop_duplicates()

    # Candidate pairs are bounded by changed docs × bands × max_bucket_size
    # — materializing them (as blocks, not on the driver) lets us
    # short-circuit the empty case and semi-join the state texts down to
    # pair-involved docs BEFORE the verify exchanges. Without this the
    # verify would ship the ENTIRE corpus text through two keyed
    # exchanges, breaking the probe's cost ∝ changed-docs contract.
    import ray
    import ray.data as rd

    from arlas_proc_ray.stages.keyed import staged_partition_apply

    pairs = staged_partition_apply(
        probes,
        num_partitions=num_partitions,
        fn=probe_fold,
        empty_result=_empty_pairs_arrow(),
    ).materialize()
    if pairs.count() == 0:
        return rd.from_arrow(
            pa.table({"doc_a": pa.array([], pa.string()),
                      "doc_b": pa.array([], pa.string()),
                      "jaccard": pa.array([], pa.float64())})
        )

    @ray.remote
    def _involved_keys(*tables: pa.Table) -> set:
        ks: set = set()
        for tbl in tables:
            ks.update(tbl.column("doc_a").to_pylist())
            ks.update(tbl.column("doc_b").to_pylist())
        return ks

    keys_ref = _involved_keys.remote(*pairs.to_arrow_refs())

    def state_keyed(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "key": stable_doc_ids(pdf, key_cols).astype(object),
                "txt": pdf[text_col].astype(object),
            }
        )
        involved = ray.get(keys_ref)  # plasma-local after first batch
        out = out[out["key"].isin(involved)].reset_index(drop=True)
        if not len(out):
            # Arrow typed empty: Ray's pandas block sizing can't handle
            # zero-length object columns
            return pa.table({"key": pa.array([], pa.string()),
                             "txt": pa.array([], pa.string())})
        return out

    texts = _state_dataset(store, t, key_cols + [text_col]).map_batches(
        state_keyed, batch_format="pandas"
    , batch_size=None)

    if verify_mode not in ("auto", "broadcast", "distributed"):
        raise ValueError(f"unknown verify_mode: {verify_mode!r}")
    mode = verify_mode
    if mode == "auto":
        # involved-key count is bounded ∝ changed docs — cheap to learn
        mode = (
            "broadcast"
            if len(ray.get(keys_ref)) <= broadcast_limit
            else "distributed"
        )

    if mode == "distributed":
        return _distributed_verify(
            texts,
            pairs,
            id_col="key",
            text_col="txt",
            ngram=spec["ngram"],
            jaccard_threshold=jaccard_threshold,
            num_partitions=verify_partitions,
            key_type=pa.string(),
        )

    # Broadcast verify: shingle the involved docs DISTRIBUTED, pull back
    # only the compact sorted-uint64 hash arrays (bounded ∝ changed docs ×
    # bands × max_bucket_size), ray.put once, score candidate pairs as a
    # plain map_batches — zero exchanges, so a small epoch's probe costs
    # sub-second instead of two fixed-cost keyed sorts.
    from arlas_proc_ray.dedup.minhash import _pair_jaccard, _shingle_hashes

    # a pair surfaces once per matching band partition — dedup globally
    # in one task (bounded like the broadcast itself; the distributed
    # path instead dedups inside its doc_a-keyed pass)
    @ray.remote
    def _dedup_pairs(*tables: pa.Table) -> pa.Table:
        frames = [
            tbl for tbl in tables
            if "doc_a" in tbl.schema.names and tbl.num_rows
        ]
        pdf = (
            pa.concat_tables(frames, promote_options="permissive")
            .to_pandas()
            .drop_duplicates(subset=["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        return pa.Table.from_pandas(
            pdf, preserve_index=False
        ).replace_schema_metadata(None)

    pairs = rd.from_arrow_refs([_dedup_pairs.remote(*pairs.to_arrow_refs())])

    ngram = spec["ngram"]

    def shingle_batch(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": pdf["key"].to_numpy(),
                "sh": [
                    _shingle_hashes(tx, ngram).tobytes() if tx else b""
                    for tx in pdf["txt"]
                ],
            }
        )

    sh_map: dict = {}
    for b in texts.map_batches(
        shingle_batch, batch_format="pandas"
    , batch_size=None).iter_batches(batch_size=4096, batch_format="pandas"):
        for k, sh in zip(b["key"], b["sh"]):
            sh_map[k] = sh
    sh_ref = ray.put(sh_map)

    empty_scored = pa.table(
        {"doc_a": pa.array([], pa.string()),
         "doc_b": pa.array([], pa.string()),
         "jaccard": pa.array([], pa.float64())}
    )

    def score(pdf: pd.DataFrame):
        if not len(pdf):
            return empty_scored
        m = ray.get(sh_ref)  # plasma-local after first batch
        sims = np.empty(len(pdf), dtype=np.float64)
        for i, (a, b2) in enumerate(zip(pdf["doc_a"], pdf["doc_b"])):
            sa, sb = m.get(a), m.get(b2)
            if sa is None or sb is None:  # key vanished between epochs
                sims[i] = -1.0
                continue
            sims[i] = _pair_jaccard(
                np.frombuffer(sa, np.uint64), np.frombuffer(sb, np.uint64)
            )
        out = pdf[["doc_a", "doc_b"]].copy()
        out["jaccard"] = sims
        out = out[out["jaccard"] >= jaccard_threshold]
        if not len(out):
            return empty_scored
        return out.reset_index(drop=True)

    return pairs.map_batches(score, batch_format="pandas", batch_size=None)
