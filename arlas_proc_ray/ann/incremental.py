"""Incrementally-maintained IVF vector index over a snapshot store.

Companion to the near-dup index (``dedup/incremental.py``), for the
similarity-search side of a CDC ingest pipeline, built on the shared
partitioned-index kit (``cdc/index_base.py``): rows ``(bucket, key,
vec)`` partitioned by coarse-centroid bucket, maintained epoch-over-epoch
from the change data feed instead of re-embedding or re-assigning the
corpus:

- **I** rows assign the new vector to its nearest centroid and add it,
- **U** rows retract the OLD vector's row (its bucket is recomputed
  deterministically from the PINNED centroids and the feed's pre-image)
  and add the new vector's row,
- **D** rows retract the final image's row.

Centroids are trained ONCE at bootstrap (seeded k-means on a random
sample of the state) and pinned in the checkpoint — the standard IVF
contract (as in FAISS: adding/removing vectors never moves the coarse
quantizer; retraining is an explicit rebuild via ``full=True``).

``vector_index_topk`` answers cosine top-k queries by reading ONLY the
index partitions holding the queries' ``n_probe`` closest buckets —
partition pruning straight from the checkpoint, no corpus scan.
``n_probe == n_centroids`` degrades gracefully to exact brute force
(the SQL-oracle mode). ``epoch_vector_neighbors`` asks the ingest-time
question: which vectors changed THIS epoch have near neighbours already
in the corpus?

Vectors ride the store's string payload columns as base64-encoded
little-endian float32 (``encode_vec_f32`` / ``decode_vec_f32``) — the
store schema stays string-typed; the index parts hold raw binary.

Reference parity: ARLAS-proc has no vector search at all; the batch IVF
(``ann/ivf.py``) is the from-scratch equivalent and the oracle (exact
mode must equal brute force / DuckDB ``list_cosine_similarity``).

Scale shape: refresh cost ∝ changed docs (index-pruned feed, one tiny
matmul per changed batch against broadcast centroids, only touched bucket
partitions rewrite); search cost ∝ probed partitions, not corpus;
byte-exact removals; crash-safe parts-then-checkpoint commits — all
inherited from the kit.
"""

from __future__ import annotations

import base64
import os
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from arlas_proc_ray.ann.ivf import kmeans_fit
from arlas_proc_ray.ann.search import _normalize
from arlas_proc_ray.cdc.index_base import (
    IncrementalPartitionedIndex,
    state_dataset,
)
from arlas_proc_ray.cdc.publish import stable_doc_ids
from arlas_proc_ray.cdc.snapshot import SnapshotStore


# ---------------------------------------------------------------- codecs
def encode_vec_f32(mat: np.ndarray) -> list[str]:
    """(n, d) float array → base64(little-endian float32 bytes) per row."""
    m = np.ascontiguousarray(np.asarray(mat, dtype="<f4"))
    return [base64.b64encode(row.tobytes()).decode("ascii") for row in m]


def decode_vec_f32(values) -> np.ndarray:
    """Sequence of base64 strings → (n, d) float64 matrix."""
    rows = [
        np.frombuffer(base64.b64decode(v), dtype="<f4").astype(np.float64)
        for v in values
    ]
    if not rows:
        return np.empty((0, 0), dtype=np.float64)
    return np.stack(rows)


def _raw_f32(values) -> np.ndarray:
    """Sequence of raw little-endian float32 byte rows → float64 matrix."""
    return np.stack(
        [np.frombuffer(v, dtype="<f4").astype(np.float64) for v in values]
    )


def _assign(mat: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid bucket per row (cosine on unit vectors)."""
    if not len(mat):
        return np.empty(0, dtype=np.int32)
    sims = _normalize(mat) @ centroids.T
    return np.argmax(sims, axis=1).astype(np.int32)


def _centroids_from_ckpt(ckpt: dict) -> np.ndarray:
    raw = base64.b64decode(ckpt["centroids_b64"])
    c = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return c.reshape(ckpt["n_centroids_fit"], ckpt["dim"])


class _VectorIndex(IncrementalPartitionedIndex):
    kind = "vecindex"
    schema = pa.schema(
        [("bucket", pa.int32()), ("key", pa.string()), ("vec", pa.binary())]
    )
    identity_cols = ["bucket", "key"]
    keep = "last"  # a re-added key carries a (possibly) new vector

    def __init__(self, store, index_id, spec, *, train_sample, seed,
                 centroids):
        super().__init__(store, index_id, spec, spec["num_partitions"])
        self.train_sample = train_sample
        self.seed = seed
        self.cents = (
            _normalize(np.asarray(centroids, dtype=np.float64))
            if centroids is not None else None
        )
        self._cents_ref = None

    def on_loaded_checkpoint(self, ckpt: dict) -> None:
        self.cents = _centroids_from_ckpt(ckpt)  # pinned quantizer

    def extra_checkpoint(self) -> dict:
        return {
            "n_centroids_fit": int(self.cents.shape[0]),
            "dim": int(self.cents.shape[1]),
            "centroids_b64": base64.b64encode(
                np.ascontiguousarray(self.cents, dtype="<f8").tobytes()
            ).decode("ascii"),
        }

    # ------------------------------------------------------------ deltas
    def _ensure_centroids(self, target: int) -> None:
        import ray

        if self.cents is None:
            # train on a RANDOM bounded sample of the state (a prefix
            # sample would cover only the head of a clustered domain)
            vec_col = self.spec["vec_col"]
            state = state_dataset(self.store, target, [vec_col])
            rows = self.store.table_stats(target)["row_count"]
            frac = min(1.0, (self.train_sample * 1.5) / max(rows, 1))
            sampled = (
                state if frac >= 1.0
                else state.random_sample(frac, seed=self.seed)
            )
            sample_pdf = sampled.limit(self.train_sample).to_pandas()
            if not len(sample_pdf):
                raise RuntimeError("state has no rows to train centroids on")
            self.cents = kmeans_fit(
                decode_vec_f32(sample_pdf[vec_col]),
                self.spec["n_centroids"], seed=self.seed,
            )
        if self._cents_ref is None:
            self._cents_ref = ray.put(self.cents)

    def bootstrap_deltas(self, target: int):
        import ray

        self._ensure_centroids(target)
        cents_ref = self._cents_ref
        key_cols = list(self.spec["key_cols"])
        vec_col = self.spec["vec_col"]
        empty = self.empty_rows_arrow(delta=True)

        def to_rows(pdf: pd.DataFrame):
            c = ray.get(cents_ref)
            live = pdf[pdf[vec_col].notna() & (pdf[vec_col] != "")]
            if not len(live):
                return empty
            mat = decode_vec_f32(live[vec_col])
            return pd.DataFrame(
                {
                    "bucket": _assign(mat, c),
                    "key": stable_doc_ids(live, key_cols).to_numpy(object),
                    "vec": [
                        np.ascontiguousarray(r, dtype="<f4").tobytes()
                        for r in mat
                    ],
                    "delta": np.full(len(live), 1, dtype=np.int8),
                }
            )

        return state_dataset(
            self.store, target, key_cols + [vec_col]
        ).map_batches(to_rows, batch_format="pandas", batch_size=None)

    def feed_deltas(self, base: int, target: int):
        import ray

        from arlas_proc_ray.cdc.feed import change_feed

        self._ensure_centroids(target)
        cents_ref = self._cents_ref
        key_cols = list(self.spec["key_cols"])
        vec_col = self.spec["vec_col"]
        empty = self.empty_rows_arrow(delta=True)

        feed = change_feed(
            self.store, base=base, target=target,
            columns=[vec_col], compare_cols=[vec_col],
            include_old=[vec_col],
        )

        def feed_to_rows(pdf: pd.DataFrame):
            if not len(pdf):
                return empty
            c = ray.get(cents_ref)
            keys = stable_doc_ids(pdf, key_cols)
            ops = pdf["op"].to_numpy()
            frames = []

            def rows_for(mask, col, sign: int):
                sub = pdf.loc[mask]
                live = sub[col].notna() & (sub[col] != "")
                sub = sub.loc[live]
                if not len(sub):
                    return None
                mat = decode_vec_f32(sub[col])
                return pd.DataFrame(
                    {
                        "bucket": _assign(mat, c),
                        "key": keys.loc[sub.index].to_numpy(object),
                        "vec": [
                            np.ascontiguousarray(r, dtype="<f4").tobytes()
                            for r in mat
                        ],
                        "delta": np.full(len(sub), sign, dtype=np.int8),
                    }
                )

            a = rows_for((ops == "I") | (ops == "U"), vec_col, 1)
            if a is not None:
                frames.append(a)
            # U retracts the OLD image (bucket recomputed from the pinned
            # centroids — deterministic); D rows carry the old image in
            # the main column already
            u = rows_for(ops == "U", f"old_{vec_col}", -1)
            if u is not None:
                frames.append(u)
            d = rows_for(ops == "D", vec_col, -1)
            if d is not None:
                frames.append(d)
            if not frames:
                return empty
            return pd.concat(frames, ignore_index=True)

        return feed.map_batches(feed_to_rows, batch_format="pandas", batch_size=None)

    def route(self, table: pa.Table) -> np.ndarray:
        b = table.column("bucket").to_numpy(zero_copy_only=False)
        return (b.astype(np.int64) % self.num_partitions).astype(np.int32)


def _kit(store: SnapshotStore, index_id: str, spec: dict, *,
         train_sample: int = 20_000, seed: int = 17,
         centroids=None) -> _VectorIndex:
    return _VectorIndex(store, index_id, spec, train_sample=train_sample,
                        seed=seed, centroids=centroids)


def _spec(key_cols, vec_col, n_centroids, num_partitions, seed) -> dict:
    return {
        "n_centroids": n_centroids, "num_partitions": num_partitions,
        "key_cols": list(key_cols), "vec_col": vec_col, "seed": seed,
    }


def read_vector_checkpoint(store: SnapshotStore, index_id: str) -> dict | None:
    return _VectorIndex(
        store, index_id, {"num_partitions": 0}, train_sample=0, seed=0,
        centroids=None,
    ).read_checkpoint()


# -------------------------------------------------------------- refresh
def refresh_vector_index(
    store: SnapshotStore,
    *,
    index_id: str = "default",
    key_cols: Sequence[str] = ("repo", "path"),
    vec_col: str = "content",
    epoch: int | str | None = None,
    n_centroids: int = 64,
    num_partitions: int = 8,
    train_sample: int = 20_000,
    seed: int = 17,
    centroids: np.ndarray | None = None,
    full: bool = False,
    commit_checkpoint: bool = True,
) -> dict:
    """Bring the IVF index up to ``epoch`` (default: latest committed).

    Bootstrap trains (seeded, random-sample) centroids and assigns the
    whole state once; every later refresh assigns only the changed
    vectors from the change feed and rewrites only the bucket partitions
    they route to. ``centroids=`` pins an externally-trained quantizer
    (tests; cross-index comparability).
    """
    kit = _kit(
        store, index_id,
        _spec(key_cols, vec_col, n_centroids, num_partitions, seed),
        train_sample=train_sample, seed=seed, centroids=centroids,
    )
    return kit.refresh(epoch=epoch, full=full,
                       commit_checkpoint=commit_checkpoint)


def read_vector_index(store: SnapshotStore,
                      index_id: str = "default") -> pd.DataFrame:
    """The whole index as one frame (tests / small corpora only)."""
    kit = _VectorIndex(store, index_id, {"num_partitions": 0},
                       train_sample=0, seed=0, centroids=None)
    ckpt = kit.read_checkpoint()
    if ckpt is None:
        raise RuntimeError(f"index {index_id!r} has never been refreshed")
    kit.spec = ckpt["spec"]
    kit.num_partitions = ckpt["spec"]["num_partitions"]
    return kit.read_all()


# --------------------------------------------------------------- search
def vector_index_topk(
    store: SnapshotStore,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    *,
    index_id: str = "default",
    k: int = 3,
    n_probe: int = 8,
) -> pd.DataFrame:
    """Cosine top-k per query against the index, reading ONLY the
    partitions that hold the queries' ``n_probe`` closest buckets.

    ``n_probe >= n_centroids`` is exact brute force over the indexed
    corpus. Returns (query_id, key, cos_sim) — ≤k rows per query,
    deterministic (key tie-break); cos_sim is full-precision float64.
    """
    import ray
    import ray.data as rd

    kit = _VectorIndex(store, index_id, {"num_partitions": 0},
                       train_sample=0, seed=0, centroids=None)
    ckpt = kit.read_checkpoint()
    if ckpt is None:
        raise RuntimeError(f"index {index_id!r} has never been refreshed")
    cents = _centroids_from_ckpt(ckpt)
    num_partitions = ckpt["spec"]["num_partitions"]
    sources = ckpt["sources"]

    qmat = _normalize(np.asarray(query_matrix, np.float64))
    qids = np.asarray(query_ids)
    probe = min(n_probe, cents.shape[0])
    qsims = qmat @ cents.T
    probed = np.argpartition(-qsims, kth=probe - 1, axis=1)[:, :probe]
    probed_buckets = np.unique(probed)
    probed_parts = sorted({int(b) % num_partitions for b in probed_buckets})
    files = [
        kit.part_path(p, int(sources[str(p)]))
        for p in probed_parts
        if str(p) in sources
        and os.path.exists(kit.part_path(p, int(sources[str(p)])))
    ]
    if not files:
        return pd.DataFrame(
            {"query_id": pd.Series([], dtype=qids.dtype),
             "key": pd.Series([], dtype=object),
             "cos_sim": pd.Series([], dtype=np.float64)}
        )

    state_ref = ray.put(
        {"qids": qids, "qmat": qmat, "probed": probed,
         "bucket_set": set(int(b) for b in probed_buckets)}
    )

    def score(batch: pa.Table):
        st = ray.get(state_ref)
        buckets = batch.column("bucket").to_numpy(zero_copy_only=False)
        keep = np.isin(buckets, list(st["bucket_set"]))
        if not keep.any():
            return pd.DataFrame(
                {"query_id": pd.Series([], dtype=st["qids"].dtype),
                 "key": pd.Series([], dtype=object),
                 "cos_sim": pd.Series([], dtype=np.float64)})
        keys = np.asarray(batch.column("key").to_pylist(), dtype=object)[keep]
        # index parts hold raw little-endian float32 bytes, not base64
        mat = _normalize(_raw_f32(
            [v for v, m in zip(batch.column("vec").to_pylist(), keep) if m]
        ))
        bkt = buckets[keep]
        frames = []
        for qi in range(len(st["qids"])):
            q_buckets = set(int(b) for b in st["probed"][qi])
            mask = np.isin(bkt, list(q_buckets))
            if not mask.any():
                continue
            sims = mat[mask] @ st["qmat"][qi]
            order = np.lexsort((keys[mask], -sims))[:k]
            frames.append(pd.DataFrame(
                {"query_id": st["qids"][qi],
                 "key": keys[mask][order],
                 "cos_sim": sims[order]}
            ))
        if not frames:
            return pd.DataFrame(
                {"query_id": pd.Series([], dtype=st["qids"].dtype),
                 "key": pd.Series([], dtype=object),
                 "cos_sim": pd.Series([], dtype=np.float64)})
        return pd.concat(frames, ignore_index=True)

    partials = rd.read_parquet(files).map_batches(
        score, batch_format="pyarrow"
    , batch_size=None).to_pandas()
    if not len(partials):
        return partials
    # final per-query reduce on ≤ (parts × queries × k) rows — tiny
    partials = partials.sort_values(
        ["query_id", "cos_sim", "key"], ascending=[True, False, True],
        kind="mergesort",
    )
    return (
        partials.groupby("query_id", sort=True)
        .head(k)
        .reset_index(drop=True)
    )


def epoch_vector_neighbors(
    store: SnapshotStore,
    *,
    index_id: str = "default",
    base: int | str,
    target: int | str | None = None,
    k: int = 3,
    n_probe: int = 8,
    min_sim: float | None = None,
) -> pd.DataFrame:
    """Nearest indexed neighbours of the vectors changed in (base, target].

    The ingest-time question: which documents that changed THIS epoch
    are similar to anything already in the corpus? Probes the index with
    the changed docs' new vectors (driver query matrix bounded ∝ the
    epoch's changed rows — batch huge epochs yourself); self-matches are
    dropped. Returns (query_key, key, cos_sim).
    """
    from arlas_proc_ray.cdc.feed import change_feed

    ckpt = read_vector_checkpoint(store, index_id)
    if ckpt is None:
        raise RuntimeError(f"index {index_id!r} has never been refreshed")
    t = store._resolve_epoch_arg(target)
    if ckpt["epoch"] != t:
        raise RuntimeError(
            f"index {index_id!r} is at epoch {ckpt['epoch']}, probe wants "
            f"{t}: refresh_vector_index first"
        )
    spec = ckpt["spec"]
    key_cols = list(spec["key_cols"])
    vec_col = spec["vec_col"]

    feed = change_feed(
        store, base=base, target=t,
        columns=[vec_col], compare_cols=[vec_col],
    ).to_pandas()
    changed = feed[feed["op"].isin(["I", "U"])] if len(feed) else feed
    if not len(changed):
        return pd.DataFrame(
            {"query_key": pd.Series([], dtype=object),
             "key": pd.Series([], dtype=object),
             "cos_sim": pd.Series([], dtype=np.float64)}
        )
    live = changed[changed[vec_col].notna() & (changed[vec_col] != "")]
    qkeys = stable_doc_ids(live, key_cols).to_numpy(object)
    qmat = decode_vec_f32(live[vec_col])
    hits = vector_index_topk(
        store, qkeys, qmat, index_id=index_id, k=k + 1, n_probe=n_probe,
    ).rename(columns={"query_id": "query_key"})
    hits = hits[hits["query_key"] != hits["key"]]
    hits = hits.groupby("query_key", sort=True).head(k)
    if min_sim is not None:
        hits = hits[hits["cos_sim"] >= min_sim]
    return hits.reset_index(drop=True)


# ------------------------------------------------- PQ-coded variant (IVFADC)
class _PqVectorIndex(_VectorIndex):
    """IVFADC over the store: same bucket partitioning and feed-driven
    ±delta maintenance as ``_VectorIndex``, but rows hold the m-byte
    RESIDUAL PQ code instead of the raw float32 vector — 16–32× smaller
    index parts at the cost of approximate distances (ann/pq.py
    rationale). Codebooks are trained once at bootstrap on the same
    sample as the coarse quantizer and PINNED in the checkpoint (the
    FAISS contract: updates never retrain; ``full=True`` rebuilds)."""

    kind = "pqvecindex"
    schema = pa.schema(
        [("bucket", pa.int32()), ("key", pa.string()),
         ("code", pa.binary())]
    )
    identity_cols = ["bucket", "key"]
    keep = "last"

    def __init__(self, store, index_id, spec, *, train_sample, seed,
                 centroids=None, books=None):
        super().__init__(store, index_id, spec,
                         train_sample=train_sample, seed=seed,
                         centroids=centroids)
        self.books = (
            np.asarray(books, np.float64) if books is not None else None
        )
        self._model_ref = None

    def on_loaded_checkpoint(self, ckpt: dict) -> None:
        super().on_loaded_checkpoint(ckpt)
        m = int(ckpt["pq_m"])
        kq = int(ckpt["pq_k"])
        dsub = int(ckpt["dim"]) // m
        self.books = np.frombuffer(
            base64.b64decode(ckpt["books_b64"]), dtype="<f8"
        ).reshape(m, kq, dsub).copy()

    def extra_checkpoint(self) -> dict:
        out = super().extra_checkpoint()
        out.update({
            "pq_m": int(self.books.shape[0]),
            "pq_k": int(self.books.shape[1]),
            "books_b64": base64.b64encode(
                np.ascontiguousarray(self.books, dtype="<f8").tobytes()
            ).decode("ascii"),
        })
        return out

    def _ensure_centroids(self, target: int) -> None:
        import ray

        from arlas_proc_ray.ann.pq import _lloyd_l2

        need_books = self.books is None
        if self.cents is None or need_books:
            vec_col = self.spec["vec_col"]
            state = state_dataset(self.store, target, [vec_col])
            rows = self.store.table_stats(target)["row_count"]
            frac = min(1.0, (self.train_sample * 1.5) / max(rows, 1))
            sampled = (
                state if frac >= 1.0
                else state.random_sample(frac, seed=self.seed)
            )
            sample_pdf = sampled.limit(self.train_sample).to_pandas()
            if not len(sample_pdf):
                raise RuntimeError("state has no rows to train on")
            sample = _normalize(decode_vec_f32(sample_pdf[vec_col]))
            if self.cents is None:
                self.cents = kmeans_fit(
                    sample, self.spec["n_centroids"], seed=self.seed
                )
            if need_books:
                m = int(self.spec["pq_m"])
                kq = int(self.spec["pq_k"])
                d = sample.shape[1]
                if d % m:
                    raise ValueError(f"dim {d} not divisible by m={m}")
                dsub = d // m
                assign = np.argmax(sample @ self.cents.T, axis=1)
                res = sample - self.cents[assign]
                self.books = np.stack([
                    _lloyd_l2(
                        np.ascontiguousarray(
                            res[:, j * dsub:(j + 1) * dsub]
                        ),
                        kq, seed=self.seed + j,
                    )
                    for j in range(m)
                ])
        if self._model_ref is None:
            self._model_ref = ray.put(
                {"cents": self.cents, "books": self.books}
            )

    def _rows_frame(self, mat, keys, sign, model) -> pd.DataFrame:
        cents, books = model["cents"], model["books"]
        m, kq, dsub = books.shape
        x = _normalize(mat)
        buckets = np.argmax(x @ cents.T, axis=1)
        res = x - cents[buckets]
        codes = np.empty((len(x), m), np.uint8)
        for j in range(m):
            sub = np.ascontiguousarray(res[:, j * dsub:(j + 1) * dsub])
            c = books[j]
            d2 = -2.0 * (sub @ c.T) + (c**2).sum(axis=1)[None, :]
            codes[:, j] = np.argmin(d2, axis=1).astype(np.uint8)
        buf = codes.tobytes()
        return pd.DataFrame({
            "bucket": buckets.astype(np.int32),
            "key": np.asarray(keys, object),
            "code": [buf[i * m:(i + 1) * m] for i in range(len(x))],
            "delta": np.full(len(x), sign, dtype=np.int8),
        })

    def bootstrap_deltas(self, target: int):
        import ray

        self._ensure_centroids(target)
        model_ref = self._model_ref
        key_cols = list(self.spec["key_cols"])
        vec_col = self.spec["vec_col"]
        empty = self.empty_rows_arrow(delta=True)
        build = self._rows_frame

        def to_rows(pdf: pd.DataFrame):
            live = pdf[pdf[vec_col].notna() & (pdf[vec_col] != "")]
            if not len(live):
                return empty
            return build(
                decode_vec_f32(live[vec_col]),
                stable_doc_ids(live, key_cols).to_numpy(object),
                1, ray.get(model_ref),
            )

        return state_dataset(
            self.store, target, key_cols + [vec_col]
        ).map_batches(to_rows, batch_format="pandas", batch_size=None)

    def feed_deltas(self, base: int, target: int):
        import ray

        from arlas_proc_ray.cdc.feed import change_feed

        self._ensure_centroids(target)
        model_ref = self._model_ref
        key_cols = list(self.spec["key_cols"])
        vec_col = self.spec["vec_col"]
        empty = self.empty_rows_arrow(delta=True)
        build = self._rows_frame

        feed = change_feed(
            self.store, base=base, target=target,
            columns=[vec_col], compare_cols=[vec_col],
            include_old=[vec_col],
        )

        def feed_to_rows(pdf: pd.DataFrame):
            if not len(pdf):
                return empty
            model = ray.get(model_ref)
            keys = stable_doc_ids(pdf, key_cols)
            ops = pdf["op"].to_numpy()
            frames = []

            def rows_for(mask, col, sign):
                sub = pdf.loc[mask]
                live = sub[col].notna() & (sub[col] != "")
                sub = sub.loc[live]
                if not len(sub):
                    return None
                return build(
                    decode_vec_f32(sub[col]),
                    keys.loc[sub.index].to_numpy(object), sign, model,
                )

            a = rows_for((ops == "I") | (ops == "U"), vec_col, 1)
            if a is not None:
                frames.append(a)
            u = rows_for(ops == "U", f"old_{vec_col}", -1)
            if u is not None:
                frames.append(u)
            d = rows_for(ops == "D", vec_col, -1)
            if d is not None:
                frames.append(d)
            if not frames:
                return empty
            return pd.concat(frames, ignore_index=True)

        return feed.map_batches(
            feed_to_rows, batch_format="pandas", batch_size=None
        )


def refresh_pq_vector_index(
    store: SnapshotStore,
    *,
    index_id: str = "default",
    key_cols: Sequence[str] = ("repo", "path"),
    vec_col: str = "content",
    epoch: int | str | None = None,
    n_centroids: int = 64,
    pq_m: int = 8,
    pq_k: int = 64,
    num_partitions: int = 8,
    train_sample: int = 20_000,
    seed: int = 17,
    centroids: np.ndarray | None = None,
    books: np.ndarray | None = None,
    full: bool = False,
    commit_checkpoint: bool = True,
) -> dict:
    """Bring the IVFADC index up to ``epoch``: bootstrap trains coarse
    centroids AND residual PQ codebooks on one bounded random sample;
    every later refresh re-encodes only the changed vectors from the
    change feed (pinned model → deterministic retraction codes).
    ``centroids=``/``books=`` pin an externally-trained model (e.g. a
    prior checkpoint's) — ``full=True`` with them is a re-encode, not a
    retrain."""
    spec = _spec(key_cols, vec_col, n_centroids, num_partitions, seed)
    spec.update({"pq_m": int(pq_m), "pq_k": int(pq_k)})
    kit = _PqVectorIndex(store, index_id, spec,
                         train_sample=train_sample, seed=seed,
                         centroids=centroids, books=books)
    return kit.refresh(epoch=epoch, full=full,
                       commit_checkpoint=commit_checkpoint)


def pq_vector_index_topk(
    store: SnapshotStore,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    *,
    index_id: str = "default",
    k: int = 3,
    n_probe: int = 8,
) -> pd.DataFrame:
    """ADC top-k against the PQ index, reading ONLY the partitions that
    hold the queries' probed buckets. Returns (query_id, key, cos_est),
    ≤k rows per query, deterministic key tie-break."""
    import ray
    import ray.data as rd

    kit = _PqVectorIndex(store, index_id, {"num_partitions": 0},
                         train_sample=0, seed=0)
    ckpt = kit.read_checkpoint()
    if ckpt is None:
        raise RuntimeError(f"index {index_id!r} has never been refreshed")
    kit.on_loaded_checkpoint(ckpt)
    cents, books = kit.cents, kit.books
    m, kq, dsub = books.shape
    num_partitions = ckpt["spec"]["num_partitions"]
    sources = ckpt["sources"]

    qmat = _normalize(np.asarray(query_matrix, np.float64))
    qids = np.asarray(query_ids)
    probe = min(n_probe, cents.shape[0])
    probed = np.argpartition(-(qmat @ cents.T), kth=probe - 1,
                             axis=1)[:, :probe]
    probed_buckets = np.unique(probed)
    probed_parts = sorted({int(b) % num_partitions for b in probed_buckets})
    files = [
        kit.part_path(p, int(sources[str(p)]))
        for p in probed_parts
        if str(p) in sources
        and os.path.exists(kit.part_path(p, int(sources[str(p)])))
    ]
    empty = pd.DataFrame(
        {"query_id": pd.Series([], dtype=qids.dtype),
         "key": pd.Series([], dtype=object),
         "cos_est": pd.Series([], dtype=np.float64)}
    )
    if not files:
        return empty

    state_ref = ray.put({
        "qids": qids, "qmat": qmat, "probed": probed,
        "cents": cents, "books": books,
    })

    def score(batch: pa.Table):
        st = ray.get(state_ref)
        buckets = batch.column("bucket").to_numpy(zero_copy_only=False)
        keys = np.asarray(batch.column("key").to_pylist(), dtype=object)
        code_bytes = batch.column("code").combine_chunks()
        codes = np.frombuffer(
            b"".join(code_bytes.to_pylist()), np.uint8
        ).reshape(len(keys), m)
        probing: dict[int, list[int]] = {}
        for qpos, cs in enumerate(st["probed"]):
            for c in cs:
                probing.setdefault(int(c), []).append(qpos)
        frames = []
        for c, qpos in probing.items():
            mask = buckets == c
            if not mask.any():
                continue
            sub_codes = codes[mask]
            sub_keys = keys[mask]
            qr = st["qmat"][qpos] - st["cents"][c]
            dists = np.zeros((len(qpos), len(sub_keys)))
            for j in range(m):
                sq = np.ascontiguousarray(qr[:, j * dsub:(j + 1) * dsub])
                cb = st["books"][j]
                lut = (
                    (sq**2).sum(axis=1)[:, None]
                    - 2.0 * (sq @ cb.T)
                    + (cb**2).sum(axis=1)[None, :]
                )
                dists += lut[:, sub_codes[:, j]]
            cos_est = 1.0 - dists / 2.0
            kk = min(k, cos_est.shape[1])
            top = np.argpartition(-cos_est, kth=kk - 1, axis=1)[:, :kk]
            frames.append(pd.DataFrame({
                "query_id": np.repeat(st["qids"][qpos], kk),
                "key": sub_keys[top].ravel(),
                "cos_sim": np.take_along_axis(
                    cos_est, top, axis=1
                ).ravel(),
            }))
        if not frames:
            return pd.DataFrame(
                {"query_id": pd.Series([], dtype=st["qids"].dtype),
                 "key": pd.Series([], dtype=object),
                 "cos_sim": pd.Series([], dtype=np.float64)})
        return pd.concat(frames, ignore_index=True)

    partials = rd.read_parquet(files).map_batches(
        score, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    if not len(partials):
        return empty
    # final per-query reduce on ≤ (parts × queries × k) rows — tiny
    partials = partials.sort_values(
        ["query_id", "cos_sim", "key"], ascending=[True, False, True],
        kind="mergesort",
    )
    out = partials.groupby("query_id", sort=True).head(k)
    return out.rename(columns={"cos_sim": "cos_est"}).reset_index(drop=True)
