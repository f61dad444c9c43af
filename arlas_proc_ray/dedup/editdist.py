"""Edit-distance-1 similarity join (typo near-duplicates), FastSS-style.

The k=1 specialization of the published FastSS deletion-neighborhood
scheme, sharpened so the bucketing itself is EXACT — no verification
stage, unlike generic FastSS where colliding variants from different
delete positions must be re-checked:

- substitution pairs (same length, differ at exactly one position i):
  both strings' position-i deletion variants are equal, and a collision
  on the key ``(i, variant)`` can ONLY come from strings differing
  solely at position i — so every same-kind pair in a position-keyed
  bucket is a true lev≤1 pair. (Keying by variant string alone is NOT
  sound: "xab"→del0→"ab" and "axb"→del1→"ab" collide at lev 2.)
- insert/delete pairs (length differs by 1): the shorter string IS a
  deletion variant of the longer — an (original, deletion-variant) pair
  inside a plain variant-string bucket is a true lev=1 pair by
  construction.
- equal terms (lev 0) are excluded: exact duplicates belong to the
  exact-dedup family (dedup/exact.py).

Pair uniqueness needs no final dedup exchange: a substitution pair
differs at exactly ONE position so it collides in exactly one
``(i, variant)`` bucket; deletion variants are de-duplicated per term
at emission (repeated characters make several positions yield the same
variant), so an insert/delete pair collides on exactly one variant
string; and the two families can never overlap (their bucket key
domains are disjoint by the kind tag).

Scale shape: one ``map_batches`` emits ~2·len(term) short bucket rows
per term, then ONE keyed exchange co-locates buckets; pair emission is
bucket-local. Σ|bucket|² is bounded by ``max_bucket`` (dropping an
over-full bucket loses recall on that pathological neighborhood only,
never soundness). The reference has no similarity-join surface; this is
beyond-reference, next to the MinHash/ngram-Jaccard family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from arlas_proc_ray.stages.keyed import keyed_partition_map


def _emit_rows(ids, terms, id_col: str) -> pa.Table:
    """Bucket-row emission, vectorized by DELETE POSITION: ~maxlen
    passes of whole-column Arrow slice/join kernels instead of a Python
    loop over terms (the loop form measured 1.0 s for 15k names; this
    is ~30 ms). Per-term variant dedup becomes the run-head rule —
    deleting any position of a run of equal characters yields the same
    variant, and ONLY runs can collide (t[:p]+t[p+1:] == t[:q]+t[q+1:]
    ⟺ t[p..q] is one equal-char run) — so keeping p where
    t[p] != t[p-1] is exactly the seen-set semantics."""
    import pyarrow.compute as pc

    ids = pa.array(ids) if not isinstance(ids, (pa.Array, pa.ChunkedArray)) else ids
    terms = pa.array(terms) if not isinstance(terms, (pa.Array, pa.ChunkedArray)) else terms
    terms = pc.fill_null(pc.cast(terms, pa.string()), "")
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    n = len(terms)
    lens = pc.utf8_length(terms).to_numpy(zero_copy_only=False)
    maxlen = int(lens.max()) if n else 0
    empty = pa.scalar("")

    b_parts = [pc.binary_join_element_wise(pa.scalar("v|"), terms, empty)]
    i_parts = [ids]
    t_parts = [terms]
    k_parts = [pa.array(np.full(n, "o"))]
    for p in range(maxlen):
        idx = np.flatnonzero(lens > p)
        t_p = terms.take(idx)
        i_p = ids.take(idx)
        variant = pc.binary_join_element_wise(
            pc.utf8_slice_codeunits(t_p, 0, p),
            pc.utf8_slice_codeunits(t_p, p + 1, 2**30),
            empty,
        )
        b_parts.append(
            pc.binary_join_element_wise(pa.scalar(f"s|{p}|"), variant, empty)
        )
        i_parts.append(i_p)
        t_parts.append(t_p)
        k_parts.append(pa.array(np.full(len(idx), "s")))
        if p == 0:
            head = np.arange(len(idx))
        else:
            head = np.flatnonzero(
                pc.not_equal(
                    pc.utf8_slice_codeunits(t_p, p, p + 1),
                    pc.utf8_slice_codeunits(t_p, p - 1, p),
                ).to_numpy(zero_copy_only=False)
            )
        b_parts.append(
            pc.binary_join_element_wise(
                pa.scalar("v|"), variant.take(head), empty
            )
        )
        i_parts.append(i_p.take(head))
        t_parts.append(t_p.take(head))
        k_parts.append(pa.array(np.full(len(head), "d")))
    return pa.table(
        {
            "bucket": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in b_parts]),
            id_col: pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in i_parts]),
            "term": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in t_parts]),
            "kind": pa.concat_arrays(k_parts),
        }
    )


def _pairs_from_rows(pdf: pd.DataFrame, id_col: str, max_bucket: int) -> pd.DataFrame:
    """Bucket-local pair emission — ``pdf`` is one exchange partition,
    sorted by (bucket, id). Module-level so the Hypothesis parity test
    can drive the bucketing logic directly."""
    bvals = pdf["bucket"].to_numpy()
    bounds = np.flatnonzero(bvals[1:] != bvals[:-1]) + 1
    starts = np.concatenate([[0], bounds]) if len(pdf) else np.array([], np.int64)
    ends = (
        np.concatenate([bounds, [len(pdf)]]) if len(pdf) else np.array([], np.int64)
    )
    ids = pdf[id_col].to_numpy()
    terms = pdf["term"].to_numpy()
    kinds = pdf["kind"].to_numpy()
    outs = []
    sizes = ends - starts
    # singleton buckets dominate — skip them without a Python iteration
    qual = np.flatnonzero((sizes >= 2) & (sizes <= max_bucket))
    for qi in qual:
        s0, e0 = starts[qi], ends[qi]
        k = e0 - s0
        if bvals[s0].startswith("s|"):
            # substitution bucket: all distinct-term pairs are lev 1
            r, c = np.triu_indices(k, 1)
            a, b = ids[s0:e0][r], ids[s0:e0][c]
            ta, tb = terms[s0:e0][r], terms[s0:e0][c]
            keep = ta != tb
        else:
            # variant bucket: (original × deletion-variant) pairs
            ko = kinds[s0:e0] == "o"
            kd = kinds[s0:e0] == "d"
            no, nd = int(ko.sum()), int(kd.sum())
            if no == 0 or nd == 0:
                continue
            oi = np.flatnonzero(ko)
            di = np.flatnonzero(kd)
            r = np.repeat(oi, nd)
            c = np.tile(di, no)
            a, b = ids[s0:e0][r], ids[s0:e0][c]
            ta, tb = terms[s0:e0][r], terms[s0:e0][c]
            keep = a != b
        if not keep.any():
            continue
        a, b, ta, tb = a[keep], b[keep], ta[keep], tb[keep]
        swap = a > b
        a2 = np.where(swap, b, a)
        b2 = np.where(swap, a, b)
        ta2 = np.where(swap, tb, ta)
        tb2 = np.where(swap, ta, tb)
        outs.append(
            pd.DataFrame(
                {"id_a": a2, "id_b": b2, "term_a": ta2, "term_b": tb2}
            )
        )
    if not outs:
        return pd.DataFrame(
            {
                "id_a": pd.Series([], dtype=ids.dtype),
                "id_b": pd.Series([], dtype=ids.dtype),
                "term_a": pd.Series([], dtype="object"),
                "term_b": pd.Series([], dtype="object"),
            }
        )
    return pd.concat(outs, ignore_index=True)


def edit_distance_pairs(
    ds,
    *,
    id_col: str = "id",
    term_col: str = "term",
    num_partitions: int = 16,
    max_bucket: int = 2_000,
):
    """All unordered pairs with Levenshtein distance EXACTLY 1.

    Returns a Dataset of ``(id_a, id_b, term_a, term_b)`` with
    ``id_a < id_b`` — every pair of rows whose terms are one
    substitution, insertion, or deletion apart (equal terms excluded).
    """

    def emit(batch: pa.Table) -> pa.Table:
        return _emit_rows(batch.column(id_col), batch.column(term_col), id_col)

    rows = ds.map_batches(emit, batch_format="pyarrow", batch_size=None)

    def pairs_fn(pdf: pd.DataFrame) -> pd.DataFrame:
        return _pairs_from_rows(pdf, id_col, max_bucket)

    # pairs_fn returns typed empties with a constant schema, as the
    # keyed exchange requires
    return keyed_partition_map(
        rows, keys=["bucket"], order_col=id_col, fn=pairs_fn,
        num_partitions=num_partitions,
    )
