"""MinHash-LSH / SimHash / n-gram-Jaccard near-duplicate detection.

Pipeline shape (the scale path — only band buckets shuffle):

  docs ─map_batches(MinHasher actor: shingle→minhash→bands)─▶
       flat rows (band_id, band_hash, doc_id)
       ─groupby(band_id, band_hash)─▶ candidate pairs (per tiny bucket)
       ─map_batches(Jaccard verify against broadcast texts*)─▶ dup pairs

(*) verification defaults to the corpus-scale path: candidate pairs are
co-partitioned with the shingle-hash table by doc id (two passes, doc_a
then doc_b) and scored inside the partition — zero driver state
(``_distributed_verify``). ``verify_mode="broadcast"`` keeps the
small-corpus ray.put map for interactive latency.

MinHash signatures use the standard (a·x + b) mod p universal hash family
with fixed seeds — deterministic everywhere. Shingles are character
n-grams of the lowercased text (robust to tokenization).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

_MERSENNE = np.uint64((1 << 61) - 1)


def _shingle_hashes(text: str, n: int) -> np.ndarray:
    """64-bit hashes of all char n-grams — numpy-vectorized rolling hash.

    Uses the same Karp-Rabin all-window kernel as the document fingerprint
    (functions/text.py): every n-byte window hashed in a handful of numpy
    array ops, no per-shingle Python/hashlib loop.
    """
    from arlas_proc_ray.functions.text import _all_window_hashes

    t = text.lower()
    if len(t) < n:
        t = t.ljust(n)
    raw = _all_window_hashes(t.encode("utf-8", "ignore"), n)
    # splitmix finish to decorrelate consecutive windows
    with np.errstate(over="ignore"):
        z = (raw + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return np.unique(z)


class MinHasher:
    """Signature stage: text → minhash signature → LSH band rows.

    Coefficients generated once per process/actor in ``__init__`` from a
    fixed seed (the load-state-once pattern, model/MLModel.scala:30-35).
    Emits one row per (doc, band): (band_id, band_hash, doc_id).

    ``algo="oph"`` (default) is one-permutation hashing (Li, Owen, Zhang
    2012): the shingle hashes are scattered into ``num_perm`` bins and the
    minimum is taken per bin — O(|shingles|) instead of the classic
    O(num_perm · |shingles|) k-permutation evaluation; empty bins are
    filled by cyclic rotation densification (Shrivastava & Li 2014), which
    preserves the unbiased collision probability LSH banding relies on.
    ``algo="classic"`` keeps the (a·x+b) mod p family.
    """

    def __init__(
        self,
        num_perm: int = 128,
        ngram: int = 5,
        bands: int = 32,
        seed: int = 1337,
        text_col: str = "text",
        id_col: str = "doc_id",
        algo: str = "oph",
    ):
        assert num_perm % bands == 0
        if algo not in ("oph", "classic"):
            raise ValueError(f"unknown algo: {algo!r}")
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, (1 << 61) - 1, size=num_perm).astype(np.uint64)
        self.b = rng.randint(0, (1 << 61) - 1, size=num_perm).astype(np.uint64)
        self.num_perm = num_perm
        self.ngram = ngram
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.text_col = text_col
        self.id_col = id_col
        self.algo = algo

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text, self.ngram)
        if self.algo == "oph":
            return self._signature_oph(sh)
        with np.errstate(over="ignore"):
            # (a * x + b) mod Mersenne61, broadcast perm × shingle
            prod = self.a[:, None] * sh[None, :] + self.b[:, None]
            hashed = (prod & _MERSENNE) + (prod >> np.uint64(61))
            hashed = np.where(hashed >= _MERSENNE, hashed - _MERSENNE, hashed)
        return hashed.min(axis=1)

    def _signature_oph(self, sh: np.ndarray) -> np.ndarray:
        k = self.num_perm
        sig = np.full(k, np.iinfo(np.uint64).max, dtype=np.uint64)
        if len(sh):
            bins = (sh % np.uint64(k)).astype(np.int64)
            # sh is sorted ascending, so a STABLE sort by bin keeps
            # hash-ascending order within each bin → the first element of
            # every bin run is its min (no slow ufunc.at scatter)
            perm = np.argsort(bins, kind="stable")
            ub, first = np.unique(bins[perm], return_index=True)
            sig[ub] = sh[perm][first]
        empty = sig == np.iinfo(np.uint64).max
        if empty.all():
            return np.zeros(k, np.uint64)
        if empty.any():
            # cyclic rotation densification: an empty bin borrows the next
            # non-empty bin to its right (wrapping), offset by the rotation
            # distance so borrowed values stay distinct across bins
            idx = np.arange(k)
            nonempty_idx = idx[~empty]
            pos = np.searchsorted(nonempty_idx, idx)
            pos[pos == len(nonempty_idx)] = 0
            src = nonempty_idx[pos]
            with np.errstate(over="ignore"):
                borrowed = sig[src] + ((src - idx) % k).astype(np.uint64)
            sig = np.where(empty, borrowed, sig)
        return sig

    def band_hashes(self, sig: np.ndarray) -> np.ndarray:
        """Band hashes for one signature (docs × 1). See band_hashes_matrix."""
        return self.band_hashes_matrix(sig[None, :])[0]

    def band_hashes_matrix(self, sigs: np.ndarray) -> np.ndarray:
        """(n_docs, num_perm) → (n_docs, bands) — fully vectorized mixing."""
        n = sigs.shape[0]
        view = sigs.reshape(n, self.bands, self.rows_per_band)
        with np.errstate(over="ignore"):
            h = np.zeros((n, self.bands), dtype=np.uint64)
            for lane in range(self.rows_per_band):
                z = h ^ (view[:, :, lane] * np.uint64(0x9E3779B97F4A7C15))
                z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
                z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
                h = z ^ (z >> np.uint64(31))
        return h

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids, sigs = [], []
        for doc_id, text in zip(batch[self.id_col], batch[self.text_col]):
            if not text:
                continue
            ids.append(doc_id)
            sigs.append(self.signature(text))
        if not ids:
            return pd.DataFrame(
                {
                    "band_id": pd.Series([], dtype=np.int32),
                    "band_hash": pd.Series([], dtype=np.uint64),
                    "doc_id": pd.Series([], dtype=np.int64),
                }
            )
        bh = self.band_hashes_matrix(np.stack(sigs))  # (n, bands)
        n = len(ids)
        return pd.DataFrame(
            {
                "band_id": np.tile(np.arange(self.bands, dtype=np.int32), n),
                "band_hash": bh.ravel(),
                "doc_id": np.repeat(np.asarray(ids, dtype=np.int64), self.bands),
            }
        )


def jaccard_ngrams(a: str, b: str, n: int = 5) -> float:
    """Exact character-n-gram Jaccard similarity (the verify kernel)."""
    sa, sb = set(), set()
    a, b = a.lower(), b.lower()
    for i in range(max(1, len(a) - n + 1)):
        sa.add(a[i : i + n])
    for i in range(max(1, len(b) - n + 1)):
        sb.add(b[i : i + n])
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def _pair_jaccard(sh_a: np.ndarray, sh_b: np.ndarray) -> float:
    """Exact Jaccard of two sorted-unique uint64 shingle-hash arrays.

    Binary-search membership count instead of ``np.intersect1d`` (which
    re-sorts the concatenation): both inputs are already sorted, so the
    intersect is one ``searchsorted`` + one equality gather — ~3× less
    per-pair work in the verify hot loop (it runs once per candidate
    pair, and LSH banding can emit 10³× more candidates than true pairs).
    """
    union = len(sh_a) + len(sh_b)
    if union == 0:
        return 1.0
    if len(sh_a) == 0 or len(sh_b) == 0:
        return 0.0
    if len(sh_b) < len(sh_a):
        sh_a, sh_b = sh_b, sh_a
    idx = np.searchsorted(sh_b, sh_a)
    idx[idx == len(sh_b)] = len(sh_b) - 1
    inter = int(np.count_nonzero(sh_b[idx] == sh_a))
    return inter / (union - inter)


_MINHASHER_CACHE: dict = {}

_EMPTY_PAIRS = {
    "doc_a": pd.Series([], dtype=np.int64),
    "doc_b": pd.Series([], dtype=np.int64),
}


def _distributed_verify(
    ds,
    candidates,
    *,
    id_col: str,
    text_col: str,
    ngram: int,
    jaccard_threshold: float,
    num_partitions: int = 16,
    key_type: "pa.DataType | None" = None,
):
    """Exact-Jaccard verification with ZERO whole-corpus driver state.

    ``key_type`` is the doc-id Arrow type (default int64; pass
    ``pa.string()`` for string-keyed corpora such as the snapshot store's
    escaped ``repo#path`` keys — the exchange stays byte-exact).

    Co-partitioned pair join where the corpus moves ONCE:

      exchange 1 (key = doc id): texts ∪ both ENDS of every candidate
        pair (each pair emits a row keyed on doc_a and a row keyed on
        doc_b). Per partition: dedup pair-end copies (every bucket that
        produced the pair sends the same end rows to the same partition,
        so dedup is local), shingle only pair-involved texts, attach the
        shingle bytes to each end row.
      exchange 2 (key = the pair itself): the two shingled end rows of a
        pair meet; score exact Jaccard. Volume ∝ candidates, not corpus.

    Versus the classic sequential pass-A/pass-B pair join, the full text
    corpus is hash-shuffled once instead of twice and the second exchange
    carries only candidate-pair rows — at 100 TB the corpus dwarfs the
    candidate set, so verify shuffle volume is ~halved. Shipping TEXT
    (and shingling only pair-involved docs inside the partition) beats
    shipping precomputed shingle arrays: the shingle table is ~8× the
    text bytes, and only the tiny candidate subset ever needs the kernel.
    Shingle arrays travel between exchanges as binary columns
    (``uint64.tobytes()``), Arrow-native.
    """
    from arlas_proc_ray.stages.keyed import keyed_partition_map

    kt = key_type if key_type is not None else pa.int64()
    key_dtype = object if pa.types.is_string(kt) else np.int64

    def empty_ends() -> pa.Table:
        # Arrow typed empty (not pandas): Ray's block sizing can't handle
        # zero-length object columns (np.vectorize on size-0 input)
        return pa.table(
            {"doc_a": pa.array([], kt), "doc_b": pa.array([], kt),
             "end": pa.array([], pa.int8()), "sh": pa.array([], pa.binary())}
        )

    empty_scored = pa.table(
        {"doc_a": pa.array([], kt), "doc_b": pa.array([], kt),
         "jaccard": pa.array([], pa.float64())}
    )

    def text_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": pa.compute.cast(batch.column(id_col), kt),
                "doc_a": pa.nulls(n, kt),
                "doc_b": pa.nulls(n, kt),
                "end": pa.nulls(n, pa.int8()),
                "txt": pa.compute.cast(batch.column(text_col), pa.string()),
                "kind": pa.array(np.ones(n, dtype=np.int8)),
            }
        )

    text_side = ds.select_columns([id_col, text_col]).map_batches(
        text_rows, batch_format="pyarrow", batch_size=None
    )

    def pair_end_rows(batch: pa.Table) -> pa.Table:
        """Each candidate pair → two rows, keyed on each end's doc id."""
        n = batch.num_rows
        a = pa.compute.cast(batch.column("doc_a"), kt)
        b = pa.compute.cast(batch.column("doc_b"), kt)
        return pa.table(
            {
                "key": pa.concat_arrays(
                    [a.combine_chunks(), b.combine_chunks()]
                ),
                "doc_a": pa.concat_arrays(
                    [a.combine_chunks(), a.combine_chunks()]
                ),
                "doc_b": pa.concat_arrays(
                    [b.combine_chunks(), b.combine_chunks()]
                ),
                "end": pa.array(
                    np.concatenate(
                        [np.zeros(n, np.int8), np.ones(n, np.int8)]
                    )
                ),
                "txt": pa.nulls(2 * n, pa.string()),
                "kind": pa.array(np.zeros(2 * n, dtype=np.int8)),
            }
        )

    def attach_ends(pdf: pd.DataFrame) -> "pd.DataFrame | pa.Table":
        """Partition fn: shingle pair-involved docs, attach to end rows.

        Every bucket that generated a given pair routes identical end
        rows here (same key), so dedup on (doc_a, doc_b, end) is local
        and exact — no separate dedup exchange.
        """
        is_txt = pdf["kind"].to_numpy() == 1
        ends = pdf.loc[~is_txt].drop_duplicates(subset=["doc_a", "doc_b", "end"])
        needed = set(ends["key"])
        texts = pdf.loc[is_txt]
        texts = texts[texts["key"].isin(needed)]
        as_key = (str if pa.types.is_string(kt) else int)
        lookup = {
            as_key(k): (
                _shingle_hashes(t, ngram).tobytes() if t else b""
            )
            for k, t in zip(texts["key"], texts["txt"])
        }
        if pa.types.is_string(kt):
            attached = ends["key"].map(lambda k: lookup.get(str(k)))
        else:
            # dict-map fast path (np.int64 hashes equal to int keys);
            # the lambda form costs ~1 s at sf0.1 candidate volume
            attached = ends["key"].map(lookup)
        ok = attached.notna()
        out = pd.DataFrame(
            {
                "doc_a": ends.loc[ok, "doc_a"].astype(key_dtype),
                "doc_b": ends.loc[ok, "doc_b"].astype(key_dtype),
                "end": ends.loc[ok, "end"].astype(np.int8),
                "sh": attached[ok].to_numpy(),
            }
        )
        if out.empty:  # typed empty: stable schema downstream
            return empty_ends()
        return out

    ends = keyed_partition_map(
        candidates.map_batches(
            pair_end_rows, batch_format="pyarrow", batch_size=None
        ).union(text_side),
        keys=["key"],
        order_col="kind",
        fn=attach_ends,
        num_partitions=num_partitions,
    )

    def score_pairs(pdf: pd.DataFrame) -> "pd.DataFrame | pa.Table":
        """Partition fn: join a pair's two shingled ends, score Jaccard.

        Input is sorted by (doc_a, doc_b, end) with ≤1 row per (pair,
        end); a complete pair is exactly two consecutive rows (end 0
        then end 1). Pairs missing an end (absent doc text) drop — same
        contract as the sequential-pass join.
        """
        if pdf.empty:
            return empty_scored
        a = pdf["doc_a"].to_numpy()
        b = pdf["doc_b"].to_numpy()
        same_next = np.zeros(len(pdf), dtype=bool)
        if len(pdf) > 1:
            same_next[:-1] = (a[:-1] == a[1:]) & (b[:-1] == b[1:])
        first = np.flatnonzero(same_next)  # row i pairs with row i+1
        if not len(first):
            return empty_scored
        sh = pdf["sh"].to_numpy()
        sims = np.empty(len(first), dtype=np.float64)
        for j, i in enumerate(first):
            sims[j] = _pair_jaccard(
                np.frombuffer(sh[i], dtype=np.uint64),
                np.frombuffer(sh[i + 1], dtype=np.uint64),
            )
        out = pd.DataFrame(
            {
                "doc_a": a[first],
                "doc_b": b[first],
                "jaccard": sims,
            }
        )
        out = out[out["jaccard"] >= jaccard_threshold]
        if out.empty:
            return empty_scored
        return out.reset_index(drop=True)

    return keyed_partition_map(
        ends,
        keys=["doc_a", "doc_b"],
        order_col="end",
        fn=score_pairs,
        num_partitions=num_partitions,
    )


def minhash_near_duplicates(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int = 32,
    ngram: int = 5,
    jaccard_threshold: float = 0.8,
    concurrency: int | None = None,
    max_bucket_size: int = 64,
    verify_mode: str = "distributed",
    algo: str = "oph",
):
    """Near-duplicate pairs (doc_a < doc_b, verified Jaccard ≥ threshold).

    Returns a Dataset of (doc_a, doc_b, jaccard).

    ``verify_mode="distributed"`` (default, the 100-TB path) verifies via
    the co-partitioned pair join in ``_distributed_verify`` — no driver
    state at all. ``verify_mode="broadcast"`` collects the compact
    shingle-hash map to the driver and ``ray.put``s it once — lower latency
    while the doc set fits the object store (small-corpus interactive use).

    ``max_bucket_size`` guards against degenerate buckets (highly templated
    corpora can put hundreds of docs in one band bucket → O(n²) pair
    blow-up). An oversized bucket keeps only its first ``max_bucket_size``
    doc ids (sorted — deterministic); true near-dups dropped here are still
    caught by the other bands with overwhelming probability.
    """
    import ray

    if verify_mode not in ("distributed", "broadcast"):
        raise ValueError(f"unknown verify_mode: {verify_mode!r}")

    texts_ref = None
    if verify_mode == "broadcast":
        # broadcast PRE-COMPUTED shingle-hash arrays (sorted uint64), not
        # raw texts: verification becomes a numpy intersect per pair.
        # Shingling itself runs DISTRIBUTED; only the compact hash arrays
        # come back to the driver.
        def shingle_batch(pdf: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    id_col: pdf[id_col].to_numpy(),
                    "sh": [
                        _shingle_hashes(t, ngram) if t else np.array([], np.uint64)
                        for t in pdf[text_col]
                    ],
                }
            )

        shingles: dict = {}
        for b in (
            ds.select_columns([id_col, text_col])
            .map_batches(shingle_batch, batch_format="pandas", batch_size=None)
            .iter_batches(batch_size=4096, batch_format="pandas")
        ):
            for i, arr in zip(b[id_col], b["sh"]):
                shingles[i] = np.asarray(arr, dtype=np.uint64)
        texts_ref = ray.put(shingles)

    mh_kwargs = {
        "num_perm": num_perm,
        "bands": bands,
        "ngram": ngram,
        "text_col": text_col,
        "id_col": id_col,
        "algo": algo,
    }
    if concurrency is None:
        # task-based (default): MinHasher state is two seeded arrays —
        # cheap to build once per worker process; a dedicated actor pool
        # costs ~0.5 s of spawn per invocation and caps parallelism at
        # the pool size
        def band_rows_task(pdf: pd.DataFrame) -> pd.DataFrame:
            key = tuple(sorted(mh_kwargs.items()))
            mh = _MINHASHER_CACHE.get(key)
            if mh is None:
                mh = _MINHASHER_CACHE[key] = MinHasher(**mh_kwargs)
            return mh(pdf)

        band_rows = ds.map_batches(band_rows_task, batch_format="pandas", batch_size=None)
    else:
        band_rows = ds.map_batches(
            MinHasher,
            fn_constructor_kwargs=mh_kwargs,
            batch_format="pandas",
            concurrency=concurrency,
        )

    def partition_bucket_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        """All candidate pairs of one hash partition of band buckets.

        Vectorized: buckets are contiguous runs after the partition sort;
        only runs with ≥2 docs pay any per-run work (numpy triu per run).
        """
        codes, _ = pd.factorize(
            pdf["band_id"].astype(np.int64) * np.int64(1 << 32)
            ^ pdf["band_hash"].astype(np.int64),
            use_na_sentinel=False,
        )
        order = np.argsort(codes, kind="stable")
        codes_s = codes[order]
        ids_s = pdf["doc_id"].to_numpy()[order]
        bounds = np.flatnonzero(np.diff(codes_s)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(codes_s)]])
        a_parts, b_parts = [], []
        for s, e in zip(starts, ends):
            n = e - s
            if n < 2:
                continue
            ids = np.unique(ids_s[s:e])
            if len(ids) < 2:
                continue
            if len(ids) > max_bucket_size:  # degenerate-bucket guard
                ids = ids[:max_bucket_size]
            ia, ib = np.triu_indices(len(ids), k=1)
            a_parts.append(ids[ia])
            b_parts.append(ids[ib])
        if not a_parts:
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype=np.int64),
                 "doc_b": pd.Series([], dtype=np.int64)}
            )
        out = pd.DataFrame(
            {"doc_a": np.concatenate(a_parts), "doc_b": np.concatenate(b_parts)}
        )
        return out.drop_duplicates()

    from arlas_proc_ray.stages.keyed import keyed_partition_map

    # ONE shuffle on the bucket key; pairs generated + locally deduped per
    # partition, then globally deduped per pair-hash partition — both
    # vectorized, never one Python call per bucket or per pair
    raw_pairs = keyed_partition_map(
        band_rows,
        keys=["band_id", "band_hash"],
        order_col="doc_id",
        fn=partition_bucket_pairs,
        num_partitions=16,
    )
    if verify_mode == "distributed":
        # pair dedup happens inside verify pass A (co-located on doc_a) —
        # no separate dedup exchange needed
        return _distributed_verify(
            ds,
            raw_pairs,
            id_col=id_col,
            text_col=text_col,
            ngram=ngram,
            jaccard_threshold=jaccard_threshold,
        )

    def dedup_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.drop_duplicates(subset=["doc_a", "doc_b"])
        if out.empty:
            return pd.DataFrame(_EMPTY_PAIRS)
        return out

    candidates = keyed_partition_map(
        raw_pairs,
        keys=["doc_a", "doc_b"],
        order_col="doc_b",
        fn=dedup_pairs,
        num_partitions=16,
    )

    # Verify is a STATELESS task (not a second actor pool): two pools in one
    # streaming pipeline reserve CPUs simultaneously and can starve the
    # shuffle between them on small machines. ray.get of the broadcast map
    # is a cheap local object-store read per task.
    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame({**_EMPTY_PAIRS,
                                 "jaccard": pd.Series([], dtype=np.float64)})
        sh = ray.get(texts_ref)
        sims = np.empty(len(batch), dtype=np.float64)
        for i, (a, b) in enumerate(zip(batch["doc_a"], batch["doc_b"])):
            sims[i] = _pair_jaccard(sh[a], sh[b])
        batch["jaccard"] = sims
        out = batch[batch["jaccard"] >= jaccard_threshold]
        if out.empty:
            return pd.DataFrame({**_EMPTY_PAIRS,
                                 "jaccard": pd.Series([], dtype=np.float64)})
        return out

    return candidates.map_batches(verify, batch_format="pandas", batch_size=None)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash64(text: str, ngram: int = 4) -> int:
    """64-bit SimHash over char n-gram features (deterministic)."""
    sh = _shingle_hashes(text, ngram)
    if len(sh) == 0:
        return 0
    bits = ((sh[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
        np.int64
    )
    v = (2 * bits - 1).sum(axis=0)
    return int(((v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def simhash_column(ds, *, text_col: str = "text", target: str = "simhash",
                   ngram: int = 4):
    # task-based: the stage has no real per-actor state, and a 2-actor
    # pool costs ~0.5 s of spawn per invocation (round-2 bench lesson)
    def simhash_batch(batch: pd.DataFrame) -> pd.DataFrame:
        batch[target] = np.array(
            [simhash64(t or "", ngram) for t in batch[text_col]], dtype=np.uint64
        )
        return batch

    return ds.map_batches(simhash_batch, batch_format="pandas", batch_size=None)
