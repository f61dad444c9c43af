"""Distributed as-of join — the temporal join Ray Data lacks.

``asof_join(left, right, by=..., on=...)`` attaches, to every left row,
the LAST right row of the same ``by`` key whose ``on`` value is strictly
(or non-strictly) earlier — the enrich-with-most-recent-state pattern
(quote-to-trade, event-to-last-purchase, telemetry-to-last-config).

Scale shape: ONE hash co-partition of both sides on ``by`` (the union
trick: both sides tagged and exchanged together), then a vectorized
``pd.merge_asof`` per partition — every key's rows co-locate, the merge
runs across all keys of the partition at once, and nothing is broadcast
or driver-resident. The partitioning assumption is the standard one:
one key's rows fit one partition.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from arlas_proc_ray.stages.keyed import keyed_partition_map


def _side_rows(batch: pa.Table, schema: pa.Schema, kind: int) -> pa.Table:
    n = batch.num_rows
    cols = []
    for f in schema:
        if f.name in batch.column_names:
            cols.append(pa.compute.cast(batch.column(f.name), f.type))
        else:
            cols.append(pa.nulls(n, f.type))
    names = [f.name for f in schema] + ["_side"]
    cols.append(pa.array(np.full(n, kind, dtype=np.int8)))
    return pa.table(dict(zip(names, cols)))


def asof_join(
    left_ds,
    right_ds,
    *,
    by: Sequence[str],
    on: str,
    right_cols: Sequence[str],
    suffix: str = "_right",
    direction: str = "backward",
    allow_exact_matches: bool = False,
    num_partitions: int = 16,
):
    """Left as-of join (left keeps every row; matched right cols appended
    as ``<col><suffix>``, null where no match).

    ``direction='backward'`` + ``allow_exact_matches=False`` matches the
    SQL ``ASOF LEFT JOIN ... ON l.by = r.by AND l.on > r.on`` semantics.
    """
    by = list(by)
    right_cols = [c for c in right_cols if c not in by and c != on]

    l_schema = _arrow_schema(left_ds)
    r_schema = _arrow_schema(right_ds)
    l_fields = [f for f in l_schema]
    r_fields = [
        r_schema.field(c) for c in right_cols
    ]
    # union superset schema: all left fields + right payload fields
    # (renamed with the suffix so they never collide)
    union_fields = list(l_fields) + [
        pa.field(f.name + suffix, f.type) for f in r_fields
    ]
    union_schema = pa.schema(union_fields)

    def left_rows(batch: pa.Table) -> pa.Table:
        return _side_rows(batch, union_schema, 0)

    def right_rows(batch: pa.Table) -> pa.Table:
        batch = batch.select(by + [on] + right_cols)
        batch = batch.rename_columns(
            by + [on] + [c + suffix for c in right_cols]
        )
        return _side_rows(batch, union_schema, 1)

    union = left_ds.map_batches(
        left_rows, batch_format="pyarrow", batch_size=None
    ).union(
        right_ds.map_batches(right_rows, batch_format="pyarrow", batch_size=None)
    )

    out_right = [c + suffix for c in right_cols]
    left_out = [f.name for f in l_fields]
    left_restore = _restore_dtypes(l_fields)

    def merge(pdf: pd.DataFrame) -> pd.DataFrame:
        is_r = pdf["_side"].to_numpy() == 1
        left = (
            pdf.loc[~is_r, left_out]
            .astype(left_restore)  # union NaN-fill upcast ints → undo
            .sort_values(on, kind="mergesort")
            .reset_index(drop=True)
        )
        right = (
            pdf.loc[is_r, by + [on] + out_right]
            .sort_values(on, kind="mergesort")
            .reset_index(drop=True)
        )
        if left.empty:
            return pd.DataFrame(
                {
                    c: pd.Series([], dtype=left_restore.get(c, pdf[c].dtype))
                    for c in left_out + out_right
                }
            )
        if right.empty:
            out = left.copy()
            for c in out_right:
                out[c] = pd.Series([None] * len(out), dtype=pdf[c].dtype)
            return out
        return pd.merge_asof(
            left,
            right,
            by=by,
            on=on,
            direction=direction,
            allow_exact_matches=allow_exact_matches,
        )

    return keyed_partition_map(
        union, keys=by, order_col=on, fn=merge, num_partitions=num_partitions
    )


def _restore_dtypes(fields) -> dict:
    """Pandas dtypes to cast a side's own rows back to after the union
    frame upcast them (NULL fill for the other side makes ints float)."""
    out = {}
    for f in fields:
        if pa.types.is_integer(f.type):
            out[f.name] = "int64"
        elif pa.types.is_boolean(f.type):
            out[f.name] = "bool"
    return out


def _arrow_schema(ds) -> pa.Schema:
    sch = ds.schema()
    fields = []
    for name, typ in zip(sch.names, sch.types):
        if not isinstance(typ, pa.DataType):
            npt = np.dtype(typ)
            typ = pa.string() if npt == np.dtype("O") else pa.from_numpy_dtype(npt)
        fields.append(pa.field(name, typ))
    return pa.schema(fields)


def interval_join(
    left_ds,
    right_ds,
    *,
    by: Sequence[str],
    left_point: str,
    right_start: str,
    right_end: str,
    right_cols: Sequence[str] = (),
    suffix: str = "_right",
    num_partitions: int = 16,
):
    """Keyed range join: left rows paired with every right interval of the
    same ``by`` key containing ``left_point`` (inclusive bounds).

    Same one-exchange co-partition shape as ``asof_join``; inside the
    partition the containment test is a key-equi merge followed by a
    vectorized between-filter — worst case Σ|L_k|·|R_k| intermediate rows
    per key, which is the inherent output bound of a range join (document
    the per-key interval cardinality assumption when using it).
    """
    by = list(by)
    right_payload = [c for c in right_cols if c not in by]
    for c in (right_start, right_end):
        if c not in right_payload:
            right_payload.append(c)

    l_schema = _arrow_schema(left_ds)
    r_schema = _arrow_schema(right_ds)
    union_fields = [f for f in l_schema] + [
        pa.field(r_schema.field(c).name + suffix, r_schema.field(c).type)
        for c in right_payload
    ]
    union_schema = pa.schema(union_fields)

    def left_rows(batch: pa.Table) -> pa.Table:
        return _side_rows(batch, union_schema, 0)

    def right_rows(batch: pa.Table) -> pa.Table:
        batch = batch.select(by + right_payload)
        batch = batch.rename_columns(by + [c + suffix for c in right_payload])
        return _side_rows(batch, union_schema, 1)

    union = left_ds.map_batches(
        left_rows, batch_format="pyarrow", batch_size=None
    ).union(
        right_ds.map_batches(right_rows, batch_format="pyarrow", batch_size=None)
    )

    left_out = [f.name for f in l_schema]
    out_right = [c + suffix for c in right_payload]
    s_col, e_col = right_start + suffix, right_end + suffix

    left_restore = _restore_dtypes([f for f in l_schema])

    def merge(pdf: pd.DataFrame) -> pd.DataFrame:
        is_r = pdf["_side"].to_numpy() == 1
        left = pdf.loc[~is_r, left_out].astype(left_restore)
        right = pdf.loc[is_r, by + out_right]
        if left.empty or right.empty:
            return pd.DataFrame(
                {
                    c: pd.Series([], dtype=left_restore.get(c, pdf[c].dtype))
                    for c in left_out + out_right
                }
            )
        joined = left.merge(right, on=by, how="inner")
        keep = (joined[left_point] >= joined[s_col]) & (
            joined[left_point] <= joined[e_col]
        )
        out = joined.loc[keep].reset_index(drop=True)
        if out.empty:
            return pd.DataFrame(
                {
                    c: pd.Series([], dtype=left_restore.get(c, pdf[c].dtype))
                    for c in left_out + out_right
                }
            )
        return out

    return keyed_partition_map(
        union, keys=by, order_col=left_point, fn=merge,
        num_partitions=num_partitions,
    )


def range_partition_bounds(
    ds, col: str, num_partitions: int, *, sample_rows: int = 20_000
) -> np.ndarray:
    """Quantile bucket bounds for range-partitioning ``col``.

    Per-block sketch: every block contributes a fixed number of LOCAL
    quantiles weighted by its row count; the driver merges them (size
    bounded by #blocks, never rows). Unlike a ``limit()``-prefix sample,
    this covers the whole domain even when the input is sorted/clustered
    by the column — a head sample puts every bound inside the first
    blocks' range and collapses the exchange onto one hot bucket
    (round-2 ADVICE on interval_join_global). ``sample_rows`` scales the
    per-block sketch resolution (kept for API compatibility).
    """
    n_q = max(9, min(257, sample_rows // 256))

    def _block_sketch(batch: pa.Table) -> pa.Table:
        pts = batch.column(col).to_numpy(zero_copy_only=False)
        n = len(pts)
        if n == 0:
            return pa.table(
                {"q": pa.array([], pa.float64()), "w": pa.array([], pa.float64())}
            )
        qs = np.quantile(pts.astype(np.float64), np.linspace(0, 1, n_q))
        return pa.table({"q": pa.array(qs), "w": pa.array(np.full(n_q, n / n_q))})

    sketch = ds.map_batches(
        _block_sketch, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    if not len(sketch):
        return np.array([])
    order = np.argsort(sketch["q"].to_numpy())
    qv = sketch["q"].to_numpy()[order]
    cw = np.cumsum(sketch["w"].to_numpy()[order])
    targets = np.linspace(0, 1, num_partitions + 1)[1:-1] * cw[-1]
    return np.unique(qv[np.minimum(np.searchsorted(cw, targets), len(qv) - 1)])


def interval_join_global(
    left_ds,
    right_ds,
    *,
    left_point: str,
    right_start: str,
    right_end: str,
    right_cols: Sequence[str] = (),
    suffix: str = "_right",
    num_partitions: int = 16,
    sample_rows: int = 20_000,
):
    """UN-KEYED range join at scale: range-partition the POINT domain.

    With no equi-key to hash on, the exchange partitions by VALUE range:
    point rows land in the bucket containing their point (quantile bounds
    from a bounded driver-side sample, like the IVF trainer); interval
    rows are REPLICATED into every bucket they overlap. A (point,
    interval) match is found in exactly one bucket — the point's — so no
    global dedup is needed. Replication cost is Σ intervals × buckets
    they span; wide intervals are the skew knob (same trade as every
    distributed band join).
    """
    import ray.data as rd

    right_payload = [c for c in right_cols]
    for c in (right_start, right_end):
        if c not in right_payload:
            right_payload.append(c)

    bounds = range_partition_bounds(
        left_ds, left_point, num_partitions, sample_rows=sample_rows
    )

    l_schema = _arrow_schema(left_ds)
    r_schema = _arrow_schema(right_ds)
    union_fields = [f for f in l_schema] + [
        pa.field(r_schema.field(c).name + suffix, r_schema.field(c).type)
        for c in right_payload
    ]
    union_schema = pa.schema(union_fields)
    left_out = [f.name for f in l_schema]
    out_right = [c + suffix for c in right_payload]
    s_col, e_col = right_start + suffix, right_end + suffix
    left_restore = _restore_dtypes([f for f in l_schema])

    def point_rows(batch: pa.Table) -> pa.Table:
        t = _side_rows(batch, union_schema, 0)
        pts = batch.column(left_point).to_numpy(zero_copy_only=False)
        bucket = np.searchsorted(bounds, pts, side="right").astype(np.int32)
        return t.append_column("_bucket", pa.array(bucket))

    def iv_rows(batch: pa.Table) -> pa.Table:
        batch = batch.select(right_payload)
        batch = batch.rename_columns([c + suffix for c in right_payload])
        t = _side_rows(batch, union_schema, 1)
        lo = batch.column(s_col).to_numpy(zero_copy_only=False)
        hi = batch.column(e_col).to_numpy(zero_copy_only=False)
        b_lo = np.searchsorted(bounds, lo, side="right").astype(np.int32)
        b_hi = np.searchsorted(bounds, hi, side="right").astype(np.int32)
        span = b_hi - b_lo + 1
        idx = np.repeat(np.arange(len(lo)), span)
        offs = np.concatenate([np.arange(s) for s in span]) if len(span) else np.array([], np.int64)
        bucket = (b_lo[idx] + offs).astype(np.int32)
        return t.take(pa.array(idx)).append_column("_bucket", pa.array(bucket))

    union = left_ds.map_batches(
        point_rows, batch_format="pyarrow", batch_size=None
    ).union(
        right_ds.map_batches(iv_rows, batch_format="pyarrow", batch_size=None)
    )

    def _typed_empty(pdf):
        return pd.DataFrame(
            {
                c: pd.Series([], dtype=left_restore.get(c, pdf[c].dtype))
                for c in left_out + out_right
            }
        )

    def merge(pdf: pd.DataFrame) -> pd.DataFrame:
        # several value-buckets can hash into one partition; an interval
        # replicated into k of them appears k times here — the cross join
        # must run PER bucket, where each copy appears exactly once and
        # each point lives in exactly one bucket
        outs = []
        for _, grp in pdf.groupby("_bucket", sort=False):
            is_r = grp["_side"].to_numpy() == 1
            left = grp.loc[~is_r, left_out].astype(left_restore)
            right = grp.loc[is_r, out_right]
            if left.empty or right.empty:
                continue
            joined = left.assign(_x=1).merge(right.assign(_x=1), on="_x").drop(
                columns=["_x"]
            )
            keep = (joined[left_point] >= joined[s_col]) & (
                joined[left_point] <= joined[e_col]
            )
            if keep.any():
                outs.append(joined.loc[keep])
        if not outs:
            return _typed_empty(pdf)
        return pd.concat(outs, ignore_index=True)

    return keyed_partition_map(
        union, keys=["_bucket"], order_col=left_point, fn=merge,
        num_partitions=num_partitions,
    )


def equi_join_skew_safe(
    left_ds,
    right_ds,
    *,
    on: Sequence[str],
    right_cols: Sequence[str],
    suffix: str = "",
    num_partitions: int = 32,
    hot_fraction: float = 0.01,
):
    """Inner equi-join that survives join-key skew.

    The shuffled ``equi_join`` co-locates each key's rows in ONE
    partition — a key holding 30% of the left side makes one straggler
    partition that defines the job's wall-clock. Here:

    1. ``detect_hot_keys`` (stages/salted.py:38 — pigeonhole candidates,
       exact recount, no false negatives) finds left keys with share ≥
       ``hot_fraction``. By construction there are ≤ 1/hot_fraction of
       them, so the RIGHT rows for hot keys are a bounded broadcast set.
    2. Hot left rows stream through a broadcast map-side join (zero
       shuffle for exactly the rows that would have formed straggler
       partitions); cold rows — with hot keys filtered from BOTH sides —
       take the normal one-exchange shuffled join.
    3. The union is the exact inner-join result (parity with plain
       ``equi_join`` pinned in tests).

    Cost: one extra lightweight counting scan of the left side and a
    second read of both inputs for the hot/cold split — the price of
    removing the straggler, worth it only when skew is real; with no hot
    keys detected this falls through to plain ``equi_join`` unchanged.
    """
    import ray

    from arlas_proc_ray.stages.keyed import byte_exact_group_cols
    from arlas_proc_ray.stages.salted import detect_hot_keys

    on = list(on)
    hot = detect_hot_keys(left_ds, on, min_fraction=hot_fraction)
    if hot.empty:
        return equi_join(
            left_ds, right_ds, on=on, right_cols=right_cols, how="inner",
            suffix=suffix, num_partitions=num_partitions,
        )

    from arlas_proc_ray.stages.lookup import key_isin, make_key_index

    hot_ref = ray.put(make_key_index(hot, on))

    def split_fn(want_hot: bool):
        def fn(pdf: pd.DataFrame) -> pd.DataFrame:
            mask = key_isin(pdf, on, ray.get(hot_ref))
            return pdf[mask] if want_hot else pdf[~mask]

        return fn

    right_payload = [c for c in right_cols if c not in on]
    out_right = [c + suffix for c in right_payload]

    # bounded: ≤ 1/hot_fraction keys' worth of right rows
    right_hot = (
        right_ds.map_batches(split_fn(True), batch_format="pandas", batch_size=None)
        .select_columns(on + right_payload)
        .to_pandas()
    )
    right_hot = right_hot.rename(columns=dict(zip(right_payload, out_right)))

    rh_ref = ray.put(right_hot)

    def hot_join(pdf: pd.DataFrame) -> pd.DataFrame:
        mask = key_isin(pdf, on, ray.get(hot_ref))
        sub = pdf[mask]
        rh = ray.get(rh_ref)
        sub = byte_exact_group_cols(sub.copy(), on)
        rh = byte_exact_group_cols(rh.copy(), on)
        from arlas_proc_ray.stages.keyed import restore_object_cols

        return restore_object_cols(sub.merge(rh, on=on, how="inner"), on)

    hot_res = left_ds.map_batches(hot_join, batch_format="pandas", batch_size=None)
    cold = equi_join(
        left_ds.map_batches(split_fn(False), batch_format="pandas", batch_size=None),
        right_ds.map_batches(split_fn(False), batch_format="pandas", batch_size=None),
        on=on,
        right_cols=right_cols,
        how="inner",
        suffix=suffix,
        num_partitions=num_partitions,
    )
    return hot_res.union(cold)


def equi_join(
    left_ds,
    right_ds,
    *,
    on: Sequence[str],
    right_cols: Sequence[str],
    how: str = "inner",
    suffix: str = "",
    num_partitions: int = 32,
    post_fn=None,
):
    """Distributed large×large hash equi-join (inner or left).

    ``post_fn``: optional per-partition hook applied to the joined frame
    before it leaves the partition task. All rows of a join key land in
    the same partition, so a keyed aggregation fused here costs ZERO
    additional exchanges (vs. a separate keyed_partition_map over the
    join output, which would re-shuffle data that is already
    co-partitioned). It must accept/return a pandas frame and tolerate
    typed empty input.

    The general-shuffle join the broadcast path (`stages/lookup.py`) can't
    cover: when NEITHER side fits in a worker's heap, both sides are
    tagged and exchanged together in ONE hash co-partition on the join
    keys (the same union trick as `asof_join`), then each partition runs
    one vectorized ``pd.merge`` across all of its keys. Nothing is
    broadcast or driver-resident; the exchange moves each side exactly
    once.

    Key columns must carry the SAME names on both sides (rename upstream
    with a `map_batches` projection — a column rename is free in Arrow).
    Right payload columns are appended as ``<col><suffix>`` (default: kept
    as-is; pass a suffix when names collide with left columns).

    Skew: a join key hot on BOTH sides cannot be salted one-sidedly
    (every left salt would need every right copy); if one side's hot keys
    are small in aggregate, pre-extract them and use the broadcast join
    for that slice. Partitioning assumption: one key's rows (both sides)
    fit one partition.

    ``how='left'`` / ``'right'`` / ``'outer'``: unmatched rows carry
    nulls in the other side's payload, so integer columns there upcast
    to float64 (standard pandas null semantics); ``how='inner'``
    restores exact dtypes both sides. ``how='semi'`` / ``'anti'`` return
    LEFT columns only — the shuffled large×large complement of the
    broadcast semi/anti in `stages/lookup.py` (reference parity:
    leftsemi/leftanti usage, e.g. transform/features/WithoutOutliers
    pattern) — with exact left dtypes (no null fabrication).
    """
    if how not in ("inner", "left", "right", "outer", "semi", "anti"):
        raise ValueError(f"unsupported how: {how!r}")
    on = list(on)
    right_payload = (
        [] if how in ("semi", "anti") else [c for c in right_cols if c not in on]
    )

    l_schema = _arrow_schema(left_ds)
    r_schema = _arrow_schema(right_ds)
    l_fields = [f for f in l_schema]
    r_fields = [r_schema.field(c) for c in right_payload]
    union_schema = pa.schema(
        l_fields + [pa.field(f.name + suffix, f.type) for f in r_fields]
    )
    left_out = [f.name for f in l_fields]
    out_right = [c + suffix for c in right_payload]
    left_restore = _restore_dtypes(l_fields)
    right_restore = _restore_dtypes(
        [pa.field(f.name + suffix, f.type) for f in r_fields]
    )

    def left_rows(batch: pa.Table) -> pa.Table:
        return _side_rows(batch, union_schema, 0)

    def right_rows(batch: pa.Table) -> pa.Table:
        batch = batch.select(on + right_payload)
        batch = batch.rename_columns(on + out_right)
        return _side_rows(batch, union_schema, 1)

    union = left_ds.map_batches(
        left_rows, batch_format="pyarrow", batch_size=None
    ).union(
        right_ds.map_batches(right_rows, batch_format="pyarrow", batch_size=None)
    )

    def _typed_empty(pdf: pd.DataFrame) -> pd.DataFrame:
        cols = {}
        for c in left_out:
            cols[c] = pd.Series([], dtype=left_restore.get(c, pdf[c].dtype))
        for c in out_right:
            cols[c] = pd.Series([], dtype=right_restore.get(c, pdf[c].dtype))
        return pd.DataFrame(cols)

    def merge(pdf: pd.DataFrame) -> pd.DataFrame:
        is_r = pdf["_side"].to_numpy() == 1
        left = pdf.loc[~is_r, left_out].astype(left_restore)
        right = pdf.loc[is_r, on + out_right]

        if how in ("semi", "anti"):
            if left.empty:
                return left  # typed, zero rows
            keys = right[on].drop_duplicates()
            if keys.empty:
                return left.reset_index(drop=True) if how == "anti" else left.iloc[0:0]
            hit = left.merge(
                keys.assign(_hit=np.int8(1)), on=on, how="left", sort=False
            )
            keep = hit["_hit"].notna() if how == "semi" else hit["_hit"].isna()
            return (
                hit.loc[keep, left_out]
                .astype(left_restore)
                .reset_index(drop=True)
            )

        empty_out = (
            (left.empty and right.empty)
            or (how == "inner" and (left.empty or right.empty))
            or (how == "left" and left.empty)
            or (how == "right" and right.empty)
        )
        if empty_out:
            return _typed_empty(pdf)
        if right.empty:  # how in ('left', 'outer') with only left rows
            out = left.copy()
            for c in out_right:
                out[c] = pd.Series([None] * len(out), dtype=pdf[c].dtype)
            return out
        if left.empty:  # how in ('right', 'outer') with only right rows
            out = right.astype(right_restore).reset_index(drop=True)
            for c in left_out:
                if c not in out.columns:
                    out[c] = pd.Series([None] * len(out), dtype=pdf[c].dtype)
            return out[left_out + out_right]
        # string keys arrive Arrow-backed from byte_exact_group_cols, so
        # the merge factorization is byte-exact even for NUL-embedded
        # keys — pinned by test_equi_join_nul_keys.
        if how == "inner":
            right = right.astype(right_restore)
        if how == "outer":
            # pandas outer merge safe_sorts the key UNION with C-string
            # semantics — NUL-variant keys ('' vs '\x00') raise "values
            # should be unique" even Arrow-backed (found by the join-mode
            # fuzz). Compose outer = left join + right-only rows instead;
            # left/inner merges factorize byte-exactly and never
            # safe_sort.
            lm = left.merge(right, on=on, how="left", sort=False)
            hit = right[on].merge(
                left[on].drop_duplicates().assign(_hit=np.int8(1)),
                on=on, how="left", sort=False,
            )
            ronly = (
                right.loc[hit["_hit"].isna().to_numpy()]
                .reset_index(drop=True)
                .copy()
            )
            for c in left_out:
                if c not in ronly.columns:
                    ronly[c] = pd.Series([None] * len(ronly), dtype=pdf[c].dtype)
            out = pd.concat(
                [lm[left_out + out_right], ronly[left_out + out_right]],
                ignore_index=True,
            )
            return out
        out = left.merge(right, on=on, how=how, sort=False)
        return out[left_out + out_right].reset_index(drop=True)

    fn = merge if post_fn is None else (lambda pdf: post_fn(merge(pdf)))
    # fn tolerates the 0-row input a group with no rows hands it
    return keyed_partition_map(
        union, keys=on, order_col="_side", fn=fn,
        num_partitions=num_partitions,
    )
