"""Conditional group-collapse — the hardest reference semantics (§2.5).

``FragmentSummaryTransformer`` collapses, within each group, only the rows
matching a predicate into ONE summary row while passing the rest through
unchanged. The reference needs a placeholder-row/flatMap/window trick for
this (documented at fragments/FragmentSummaryTransformer.scala:45-55,
:240-259, :291-309) because SQL windows can't emit "one row per group plus
the originals". A partition fn does it naturally — no placeholder rows.

Implementation is partition-grouped and vectorized: ONE hash shuffle on the
entity key, then a pandas groupby-aggregate over all matching rows of the
partition at once, concatenated with the pass-through rows.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd

from arlas_proc_ray.stages.keyed import byte_exact_group_cols, keyed_partition_map


def run_collapse_fn(
    keys: list[str],
    order_col: str,
    group_col: str,
    condition: Callable[[pd.DataFrame], pd.Series],
    agg: dict[str, tuple[str, str]],
    passthrough: bool = True,
):
    """Build a partition_fn collapsing condition-matching rows per group_col.

    ``agg``: {output_col: (source_col, how)} with how ∈ pandas agg names
    ('sum', 'min', 'max', 'mean', 'first', 'last', 'count').
    Weighted means (the reference's duration-weighted averages,
    FragmentSummaryTransformer.scala:262-271) are expressed by pre-computing
    a product column in an upstream map_batches and summing here.
    A spec may also be a CALLABLE ``fn(group_df) -> scalar`` for
    aggregations no column-wise kernel expresses (trail stitching,
    first/last elections) — one Python call per group, so reserve it for
    genuinely per-group string/geometry work.
    """

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        # group_col is often a derived id (key#order) — make its grouping
        # byte-exact too (NUL-embedded keys propagate into derived ids)
        pdf = byte_exact_group_cols(pdf, [group_col])
        mask = condition(pdf).to_numpy(dtype=bool)
        matching = pdf[mask]
        rest = pdf[~mask] if passthrough else pdf.iloc[0:0]
        if len(matching) == 0:
            if len(pdf) == 0:
                # the keyed exchange hands a group with no rows over as
                # 0-row input: emit the SAME column set a non-empty
                # partition would — rest columns ∪ agg outputs — so
                # downstream fns see a constant schema
                empty = rest.copy()
                for out_col in agg:
                    if out_col not in empty.columns:
                        empty[out_col] = pd.Series([], dtype="float64")
                return empty
            return rest

        gb = matching.groupby(group_col, sort=False)
        pieces = {}
        for out_col, spec in agg.items():
            if callable(spec):
                pieces[out_col] = gb.apply(spec)
                continue
            src, how = spec[0], spec[1]
            if how == "wmean":
                # weighted average — the reference's duration-weighted
                # aggregates (FragmentSummaryTransformer.scala:262-271):
                # sum(src·w) / sum(w) per group
                weight_col = spec[2]
                num = (matching[src] * matching[weight_col]).groupby(
                    matching[group_col], sort=False
                ).sum()
                den = gb[weight_col].sum()
                pieces[out_col] = num / den.replace(0, np.nan)
            else:
                pieces[out_col] = gb[src].agg(how)
        summary = pd.DataFrame(pieces).reset_index()

        # propagate key columns (constant within a group) like the
        # reference's propagated columns (FragmentSummaryTransformer.scala:96-110)
        for k in keys:
            if k not in summary.columns:
                summary[k] = gb[k].first().values

        out = pd.concat([rest, summary], ignore_index=True, sort=False)
        sort_cols = [c for c in (*keys, order_col) if c in out.columns]
        return out.sort_values(sort_cols, kind="mergesort")

    return fn


def conditional_collapse(
    ds,
    *,
    keys: Sequence[str],
    order_col: str,
    group_col: str,
    condition: Callable[[pd.DataFrame], pd.Series],
    agg: dict[str, tuple[str, str]],
    passthrough: bool = True,
    num_partitions: int = 64,
):
    """Dataset-level conditional group-collapse (StopPauseSummary analogue).

    Reference instantiations of this abstract shape:
    - StopPauseSummaryTransformer: group=arlas_motion_id, cond=STILL
      (fragments/StopPauseSummaryTransformer.scala:42-111)
    - MovingFragmentSampleSummarizer: group=sample_id, cond=MOVE
      (features/MovingFragmentSampleSummarizer.scala:44-108)
    - CourseExtractorTransformer: group=course_id, cond=!STOP
      (fragments/CourseExtractorTransformer.scala:43-248)
    """
    keys = list(keys)
    return keyed_partition_map(
        ds,
        keys=keys,
        order_col=order_col,
        fn=run_collapse_fn(keys, order_col, group_col, condition, agg, passthrough),
        num_partitions=num_partitions,
    )


def grouped_quantile_disc(
    ds,
    *,
    keys: Sequence[str],
    value_col: str,
    quantiles: dict[str, float],
    num_partitions: int = 8,
):
    """Exact per-group discrete quantiles (DuckDB ``quantile_disc`` rule:
    ascending-sorted element at index ``ceil(q·n) − 1``).

    One keyed exchange; inside each partition the frame arrives sorted by
    (keys…, value), so every quantile is a vectorized gather at
    ``first_row_of_group + ceil(q·n) − 1`` — no per-group Python loop.
    Exact quantiles need the group co-located (they are not mergeable
    partials); for sketch-sized state at extreme cardinality a t-digest
    would replace this, trading exactness away.
    """
    keys = list(keys)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(keys, sort=False)
        sizes = g.size().to_numpy(np.int64)
        firsts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        out = g.head(1)[keys].reset_index(drop=True)
        vals = pdf[value_col].to_numpy()
        for name, q in quantiles.items():
            idx = firsts + np.maximum(np.ceil(q * sizes).astype(np.int64) - 1, 0)
            out[name] = vals[idx]
        return out

    return keyed_partition_map(
        ds, keys=keys, order_col=value_col, fn=fn, num_partitions=num_partitions
    )


def grouped_count_distinct(
    ds,
    *,
    keys: Sequence[str],
    value_col: str,
    target: str = "n_distinct",
    num_partitions: int = 8,
):
    """Exact per-group distinct count with a pre-shuffle dedup combiner.

    Each batch first drops duplicate (key, value) pairs — the shuffle
    then carries at most |distinct pairs| rows per block instead of raw
    rows (the combiner-before-groupby rule) — and the keyed partition
    counts unique values per group exactly.
    """
    keys = list(keys)

    def combine(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf[keys + [value_col]].drop_duplicates()

    combined = ds.map_batches(combine, batch_format="pandas", batch_size=None)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        # nunique factorizes the VALUE column too — keep it byte-exact
        pdf = byte_exact_group_cols(pdf, [value_col])
        out = (
            pdf.groupby(keys, as_index=False, sort=False)[value_col]
            .nunique()
            .rename(columns={value_col: target})
        )
        return out

    return keyed_partition_map(
        combined, keys=keys, order_col=value_col, fn=fn,
        num_partitions=num_partitions,
    )


def elect_main_tempo(
    pdf: pd.DataFrame,
    proportion_map: dict[str, str],
    *,
    irregular_tempo: str = "tempo_irregular",
    target: str = "main_tempo",
    is_multi_col: str | None = "tempo_is_multi",
    significant: float = 0.1,
) -> pd.DataFrame:
    """Main-tempo election over (weight-averaged) proportion columns.

    Reference: FragmentSummaryTransformer.getMainTempo
    (fragments/FragmentSummaryTransformer.scala:343-364): the main tempo is
    the first (in map order) REGULAR tempo whose proportion equals the
    greatest regular proportion; all-zero regular proportions elect the
    irregular tempo. ``is_multi`` counts tempos with a significant (>0.1)
    proportion (:370-381) — multiple significant tempos ⇒ True.

    Vectorized: one numpy row-max + one equality scan per tempo column.
    NaN proportions (zero total weight) elect irregular (NaN == x is
    false for every column).
    """
    regular = {c: v for c, v in proportion_map.items() if v != irregular_tempo}
    n = len(pdf)
    main = np.full(n, irregular_tempo, dtype=object)
    if regular and n:
        mat = pdf[list(regular)].to_numpy(dtype=float)
        greatest = mat.max(axis=1)
        assigned = np.zeros(n, dtype=bool)
        for j, (col, value) in enumerate(regular.items()):
            hit = (~assigned) & (greatest != 0) & (mat[:, j] == greatest)
            main[hit] = value
            assigned |= hit
        # all-NaN rows: greatest is NaN, no column compares equal → irregular
    pdf[target] = main
    if is_multi_col is not None:
        count = np.zeros(n, dtype=np.int64)
        for col in proportion_map:
            count += (pdf[col].to_numpy(dtype=float) > significant).astype(
                np.int64
            )
        pdf[is_multi_col] = count > 1
    return pdf


def moving_fragment_sample_summarizer(
    ds,
    *,
    keys,
    order_col: str,
    sample_col: str = "sample_id",
    moving_col: str = "moving_state",
    move_value: str = "MOVE",
    trail_col: str = "trail",
    lat_col: str = "lat",
    lon_col: str = "lon",
    vis_change_col: str | None = "visibility_change",
    vis_prop_col: str | None = "visibility_proportion",
    duration_col: str = "duration_s",
    weight_averaged: Sequence[str] = (),
    tempo_proportion_map: dict[str, str] | None = None,
    irregular_tempo: str = "tempo_irregular",
    extra_agg: dict | None = None,
    num_partitions: int = 64,
):
    """Merge MOVE fragments sharing a sample id into one fragment.

    Named composition of the reference's MovingFragmentSampleSummarizer
    (features/MovingFragmentSampleSummarizer.scala:44-108): collapse
    condition ``moving_state == MOVE`` grouped by the sample id; the
    summary row stitches the member trails (paused members collapse to
    their point — GeoTool.getTrailDataFromTrailsAndCoords), elects the
    visibility change from first/last members, means the visibility
    proportion, duration-weight-averages ``weight_averaged`` and the
    tempo proportion columns, then re-elects the main tempo. Non-MOVE
    fragments pass through unchanged.
    """
    from arlas_proc_ray.functions.geo import trail_data_from_trails_and_coords

    keys = list(keys)

    def trail_agg(g: pd.DataFrame):
        td = trail_data_from_trails_and_coords(
            g[trail_col].tolist(),
            g[lat_col].tolist(),
            g[lon_col].tolist(),
            (g[moving_col] == move_value).tolist(),
        )
        return td["trail"] if td else None

    def vis_change_agg(g: pd.DataFrame):
        first, last = g[vis_change_col].iloc[0], g[vis_change_col].iloc[-1]
        appears = first in ("APPEAR", "APPEAR_DISAPPEAR")
        disappears = last in ("DISAPPEAR", "APPEAR_DISAPPEAR")
        if appears and disappears:
            return "APPEAR_DISAPPEAR"
        if appears:
            return "APPEAR"
        if disappears:
            return "DISAPPEAR"
        return None

    agg: dict = {
        trail_col: trail_agg,
        duration_col: (duration_col, "sum"),
        order_col: (order_col, "min"),
        lat_col: (lat_col, "last"),
        lon_col: (lon_col, "last"),
        moving_col: (moving_col, "first"),
    }
    if vis_change_col:
        agg[vis_change_col] = vis_change_agg
    if vis_prop_col:
        agg[vis_prop_col] = (vis_prop_col, "mean")
    for c in weight_averaged:
        agg[c] = (c, "wmean", duration_col)
    if tempo_proportion_map:
        for c in tempo_proportion_map:
            agg[c] = (c, "wmean", duration_col)
    agg.update(extra_agg or {})

    out = conditional_collapse(
        ds,
        keys=keys,
        order_col=order_col,
        group_col=sample_col,
        condition=lambda p: p[moving_col] == move_value,
        agg=agg,
        passthrough=True,
        num_partitions=num_partitions,
    )
    if tempo_proportion_map:
        pmap = dict(tempo_proportion_map)

        def elect(pdf: pd.DataFrame) -> pd.DataFrame:
            return elect_main_tempo(
                pdf, pmap, irregular_tempo=irregular_tempo
            )

        out = out.map_batches(elect, batch_format="pandas", batch_size=None)
    return out


def global_quantile_disc(ds, *, value_col: str, q: float):
    """Exact GLOBAL discrete quantile (DuckDB ``quantile_disc`` rule:
    ascending-sorted element at index ``ceil(q·n) − 1``) without sorting
    the dataset.

    Per-block value-counts partials → one small ``groupby(value).sum`` —
    the exchange and the driver only ever see (value, count) pairs, never
    rows. Assumes ``|distinct values| ≪ rows`` (lengths, scores, sizes…);
    for an unbounded continuous domain a t-digest sketch replaces this,
    trading exactness away.
    """
    import math

    import pyarrow as pa

    def counts(batch: pa.Table) -> pa.Table:
        vc = batch.column(value_col).combine_chunks().value_counts()
        return pa.table(
            {value_col: vc.field("values"), "n": vc.field("counts")}
        )

    partial = ds.select_columns([value_col]).map_batches(
        counts, batch_format="pyarrow", batch_size=None
    )
    agg = partial.groupby(value_col).sum("n").to_pandas()
    agg = agg.sort_values(value_col).reset_index(drop=True)
    cnt = agg["sum(n)"].to_numpy(np.int64)
    n = int(cnt.sum())
    if n == 0:
        return None
    idx = max(int(math.ceil(q * n)) - 1, 0)
    pos = int(np.searchsorted(np.cumsum(cnt), idx + 1))
    return agg[value_col].iloc[pos]


def grouped_zscore(
    ds,
    *,
    keys: Sequence[str],
    value_col: str,
    target: str = "zscore",
):
    """Per-group z-score normalization from EXACT integer-cent moments.

    Two-phase, shuffle-free on the big side: (1) per-batch partial
    moments (n, Σc, Σc²) over exact cents → a tiny global aggregate
    (|groups| rows); (2) broadcast the stats table and normalize in a
    stateless ``map_batches``. Both this engine and the SQL oracle
    evaluate the IDENTICAL float expression on identical exact integers
    — ``(c − S/n) / sqrt(Q/n − (S/n)²)`` — so results are bit-identical
    (population std, the textbook normalization).
    """
    import ray

    keys = list(keys)

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        c = (pdf[value_col] * 100).round().astype(np.int64)
        t = pdf[keys].copy()
        t["_n"] = 1
        t["_s"] = c
        t["_q"] = c * c
        return t.groupby(keys, as_index=False, sort=False).sum()

    from ray.data.aggregate import Sum

    stats = (
        ds.map_batches(partial, batch_format="pandas", batch_size=None)
        .groupby(keys)
        .aggregate(Sum("_n"), Sum("_s"), Sum("_q"))
        .to_pandas()
    )
    stats = stats.rename(
        columns={"sum(_n)": "_n", "sum(_s)": "_s", "sum(_q)": "_q"}
    )
    ref = ray.put(stats)

    def normalize(pdf: pd.DataFrame) -> pd.DataFrame:
        st = ray.get(ref)
        m = pdf.merge(st, on=keys, how="left")
        c = (m[value_col] * 100).round().astype(np.int64).to_numpy()
        n = m["_n"].to_numpy(np.float64)
        mean = m["_s"].to_numpy(np.float64) / n
        var = m["_q"].to_numpy(np.float64) / n - mean * mean
        out = pdf.copy()
        out[target] = (c - mean) / np.sqrt(var)
        return out

    return ds.map_batches(normalize, batch_format="pandas", batch_size=None)
