"""Per-key, order-sensitive operators (the reference's window workhorse).

Every operator in the reference's §2.4 family is a Spark
``Window.partitionBy(id).orderBy(arlas_timestamp)`` expression (e.g.
/root/reference/src/main/scala/io/arlas/data/transform/features/
WithDuration.scala:34-58, timeseries/WithStateId.scala:38-60). Ray Data has
no window functions; the scale-correct mapping is ONE keyed exchange on
``hash(keys) % P`` (``arlas_proc_ray/exchange.py``, the same exchange every
writer of the CDC store runs) followed by a partition fn:

    route every block by partition_ids(keys)         # split tasks, B×G objects
    per group of partitions: partition_fn(partition) # G group tasks

``partition_fn`` gets a whole hash partition (MANY keys) as one pandas
DataFrame, sorted once by (keys…, order), and computes every per-key
lag/lead/cumsum with ``df.groupby(keys)`` VECTORIZED operations — pandas'
cython groupby runs across all keys at once. This beats the naive
per-key call (one Python call per key, millions of tiny groups) by orders
of magnitude and is the pattern reused by every keyed operator below.

Partition count P is the DataModel's single partitioning decision; the same
key always lands in the same partition (stable siphash), so chained keyed
operators are fused into one partition pass (see ``chain`` param).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from arlas_proc_ray.exchange import (
    concat_results,
    key_route,
    partition_map,
    partition_tables,
)

_ARROW_STR = pd.ArrowDtype(pa.string())


def byte_exact_group_cols(pdf: pd.DataFrame, cols: Sequence[str]) -> pd.DataFrame:
    """Make string grouping columns byte-exact for pandas groupby.

    pandas' object-dtype string factorization (StringHashTable) hashes with
    C-string semantics and MERGES keys that differ only by NUL bytes
    (``''`` vs ``'\\x00'``), which disagrees with ``partition_ids`` /
    Arrow / DuckDB byte-exact equality. Arrow-backed string columns
    factorize through ``pa.compute.dictionary_encode`` (byte-exact), so
    object string key columns are converted in place before any partition
    fn runs its ``pdf.groupby(keys)``.
    """
    for k in cols:
        s = pdf[k]
        if s.dtype == object and pd.api.types.infer_dtype(s, skipna=True) in (
            "string",
            "empty",
        ):
            pdf[k] = s.astype(_ARROW_STR)
    return pdf


def restore_object_cols(pdf: pd.DataFrame, cols: Sequence[str]) -> pd.DataFrame:
    """Convert Arrow-backed string columns back to object dtype.

    Ray's pandas-block schema inference cannot type ``string[pyarrow]``
    columns (``pa.from_numpy_dtype`` fails → the column types as null),
    so every partition fn output must leave the frame with plain object
    strings. Values round-trip byte-exactly (``astype(object)`` keeps
    NUL bytes).
    """
    for k in cols:
        if k in pdf.columns and isinstance(pdf[k].dtype, pd.ArrowDtype):
            pdf[k] = pdf[k].astype(object)
    return pdf


def key_as_str(s: pd.Series) -> pd.Series:
    """Coerce a key column to plain-object str for derived-id concatenation.

    ``Series.astype(str)`` on an Arrow-backed string drops a lone NUL
    (``'\\x00'`` → ``''``); ``astype(object)`` round-trips every byte.
    """
    if pd.api.types.is_string_dtype(s.dtype):
        return s.astype(object)
    return s.astype(str)


def _as_table(res) -> pa.Table:
    """A partition fn's result as Arrow: pandas frames are converted
    without their index and with the pandas schema metadata stripped (a
    metadata-carrying schema is unhashable, which defeats Ray's schema
    dedup downstream)."""
    if isinstance(res, pa.Table):
        return res
    return pa.Table.from_pandas(
        res.reset_index(drop=True), preserve_index=False
    ).replace_schema_metadata(None)


def _run_chain(keys, order_col, fns, presorted, table: pa.Table) -> pa.Table:
    """The fn chain over one partition's rows, each fn seeing them sorted
    by (keys…, order_col)."""
    pdf = byte_exact_group_cols(table.to_pandas(), keys)
    for i, f in enumerate(fns):
        if isinstance(pdf, pa.Table):  # chained fn returned Arrow
            pdf = pdf.to_pandas()
        if not (presorted and i == 0):
            pdf = pdf.sort_values(keys + [order_col], kind="mergesort")
        pdf = f(pdf)
    if isinstance(pdf, pa.Table):
        return pdf
    return _as_table(restore_object_cols(pdf, pdf.columns))


def _keyed_group(keys, order_col, fns, presorted, parts, *inputs) -> pa.Table:
    """A group task of ``keyed_partition_map``: the chain over each
    non-empty partition of ``parts``; a group that received no rows runs
    it once over its empty input (the 0-row contract), so every block
    has the chain's output columns."""
    run = partial(_run_chain, keys, order_col, fns, presorted)
    outs = [run(t) for _, t in partition_tables(inputs, parts) if t.num_rows]
    if outs:
        return concat_results(outs)
    empty = inputs[0][1]  # no columns when the input had no schema either
    return run(empty) if empty.num_columns else empty


def keyed_partition_map(
    ds,
    *,
    keys: Sequence[str],
    order_col: str,
    fn: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    num_partitions: int = 64,
    presorted: bool = False,
    chain: Sequence[Callable[[pd.DataFrame], pd.DataFrame]] | None = None,
):
    """Hash-partition by ``keys`` and run ``fn`` per partition, sorted.

    ``fn`` sees all rows of a partition sorted by (keys…, order_col) and
    must be vectorized across keys (use ``pdf.groupby(list(keys))``).
    ``presorted``: the first fn gets the partition's rows unsorted, in
    input order (each block's rows in order, blocks in order).

    ``chain``: a SEQUENCE of partition fns fused into ONE shuffle — the
    same key always lands in the same partition, so N chained keyed
    operators need only one exchange instead of N. Results are identical
    to applying each op as its own ``keyed_partition_map``: the partition
    is re-sorted by (keys…, order_col) before every chained fn, exactly
    as the sequential version would (an in-memory mergesort, ~free next
    to the shuffle it replaces). Mutually exclusive with ``fn``.

    The exchange is the package's one keyed exchange
    (``arlas_proc_ray/exchange.py``): it materializes ``ds`` once, and
    the returned Dataset has one block per group of partitions, so a key
    never straddles blocks. fns run only on partitions that received
    rows, except that a group that received none runs the chain once on
    0-row input (an input with no rows: once in all), so every fn must
    accept an empty frame and return its typed empty result. A fn
    returns a pa.Table, or a pandas frame convertible to one, with a
    schema constant across partitions.
    """
    keys = list(keys)
    if (fn is None) == (chain is None):
        raise ValueError("pass exactly one of fn= or chain=")
    fns = [fn] if fn is not None else list(chain)
    return partition_map(
        ds,
        route=partial(key_route, keys, num_partitions),
        body=partial(_keyed_group, keys, order_col, fns, presorted),
        num_partitions=num_partitions,
    )


def _part_route(part_col: str, table: pa.Table):
    return table, np.asarray(table.column(part_col).to_numpy(), np.int64)


def _partition_apply_group(fn, empty_result, parts, *inputs) -> pa.Table:
    """A group task of ``staged_partition_apply``."""
    outs = []
    for p, t in partition_tables(inputs, parts):
        if not t.num_rows and empty_result is not None:
            outs.append(empty_result)
        else:
            outs.append(_as_table(fn(p, t.to_pandas() if t.num_rows else None)))
    return concat_results(outs)


def staged_partition_apply(
    ds,
    *,
    num_partitions: int,
    fn: Callable[[int, pd.DataFrame], pd.DataFrame | pa.Table],
    empty_result: pa.Table | None = None,
    part_col: str = "_part",
):
    """``fn(p, pdf)`` per partition, routed by a PRECOMPUTED partition id.

    The caller has already routed every row (an int ``part_col`` in
    [0, num_partitions)), so the exchange routes by that column instead
    of hashing keys; it is otherwise ``keyed_partition_map``'s exchange.

    ``empty_result``: when given, a partition that received zero rows
    yields it WITHOUT calling ``fn`` — the incremental contract
    (untouched partitions cost nothing). When ``None``, ``fn`` runs for
    every partition, with ``pdf=None`` for one that received no rows
    (bootstrap: every partition must come into existence).

    Returns a Dataset with one block per group of partitions. ``fn``
    results must share one schema; pandas results are converted
    (metadata-stripped).
    """
    return partition_map(
        ds,
        route=partial(_part_route, part_col),
        body=partial(_partition_apply_group, fn, empty_result),
        num_partitions=num_partitions,
    )


# ---------------------------------------------------------------------------
# §2.4 operators — each is a partition_fn factory + a Dataset-level wrapper.
# All assume the partition_fn contract above (sorted by keys+order).
# ---------------------------------------------------------------------------


def with_duration(ds, *, keys, order_col, ts_col, target="duration_s", num_partitions=64):
    """Seconds since the previous observation of the same key (lag diff).

    Reference: WithDuration (features/WithDuration.scala:34-58) — lag(ts,1)
    over the id window. First row of each key gets null.
    """
    keys = list(keys)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        prev = pdf.groupby(keys, sort=False)[ts_col].shift(1)
        delta = pdf[ts_col] - prev
        pdf[target] = (
            delta.dt.total_seconds()
            if hasattr(delta, "dt") and hasattr(delta.dt, "total_seconds")
            else delta
        )
        return pdf

    return keyed_partition_map(
        ds, keys=keys, order_col=order_col, fn=fn, num_partitions=num_partitions
    )


def with_lag_lead(
    ds, *, keys, order_col, col, lag_target=None, lead_target=None, num_partitions=64
):
    """Generic lag/lead of one column over the key window."""
    keys = list(keys)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(keys, sort=False)[col]
        if lag_target:
            pdf[lag_target] = g.shift(1)
        if lead_target:
            pdf[lead_target] = g.shift(-1)
        return pdf

    return keyed_partition_map(
        ds, keys=keys, order_col=order_col, fn=fn, num_partitions=num_partitions
    )


def state_id_fn(keys: list[str], order_col: str, state_col: str, target: str):
    """Segment-id assignment on state change (vectorized run-length encode).

    Reference: WithStateIdOnStateChangeOrUnique
    (timeseries/WithStateIdOnStateChangeOrUnique.scala:35-54) + WithStateId
    forward-fill (timeseries/WithStateId.scala:38-60): a new segment starts
    whenever the state differs from its lag; the segment id is
    ``<key>#<order value of the segment's first row>``.
    """

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(keys, sort=False)
        changed = (pdf[state_col] != g[state_col].shift(1)) | (
            g.cumcount() == 0
        )
        seg = changed.cumsum()  # globally increasing — unique per run
        first_order = pdf[order_col].groupby(seg).transform("first")
        key_str = key_as_str(pdf[keys[0]])
        for k in keys[1:]:
            key_str = key_str + "/" + key_as_str(pdf[k])
        pdf[target] = key_str + "#" + first_order.astype(str)
        return pdf

    return fn


def with_state_id_on_change(
    ds, *, keys, order_col, state_col, target, num_partitions=64
):
    keys = list(keys)
    return keyed_partition_map(
        ds,
        keys=keys,
        order_col=order_col,
        fn=state_id_fn(keys, order_col, state_col, target),
        num_partitions=num_partitions,
    )


def fragments_fn(keys: list[str], order_col: str, ts_col: str, value_col: str):
    """Adjacent-pair mapper: observations → movement fragments.

    Reference: FlowFragmentMapper (fragments/FlowFragmentMapper.scala:39-227)
    — for each consecutive pair of rows of the same key emit one fragment
    row carrying id ``key#prevOrder_order``, duration, deltas and pair
    means; each key's FIRST row is dropped (`:186`).
    """

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(keys, sort=False)
        prev_ts = g[ts_col].shift(1)
        prev_v = g[value_col].shift(1)
        prev_ord = g[order_col].shift(1)
        first = prev_ts.isna()

        delta = pdf[ts_col] - prev_ts
        dur = (
            delta.dt.total_seconds()
            if hasattr(delta, "dt") and hasattr(delta.dt, "total_seconds")
            else delta
        )
        key_str = key_as_str(pdf[keys[0]])
        for k in keys[1:]:
            key_str = key_str + "/" + key_as_str(pdf[k])

        out = pdf.copy()
        out["fragment_id"] = (
            key_str
            + "#"
            + prev_ord.astype("Int64").astype(str)
            + "_"
            + pdf[order_col].astype(str)
        )
        out["duration_s"] = dur
        out["value_delta"] = pdf[value_col] - prev_v
        out["value_avg"] = (pdf[value_col] + prev_v) / 2.0
        out["nb_points"] = 2
        return out[~first.values]

    return fn


def with_fragments(
    ds, *, keys, order_col, ts_col, value_col, num_partitions=64
):
    keys = list(keys)
    return keyed_partition_map(
        ds,
        keys=keys,
        order_col=order_col,
        fn=fragments_fn(keys, order_col, ts_col, value_col),
        num_partitions=num_partitions,
    )


def with_sample_id(
    ds, *, keys, order_col, duration_col, sampling: float, target="sample_id", num_partitions=64
):
    """Running-sum bucketing of fragments into ≈``sampling``-long samples.

    Reference: WithFragmentSampleId (features/WithFragmentSampleId.scala:38-65):
    ``floor((cumsum(duration)-1)/sampling) - floor((duration-1)/sampling)``
    per key — reproduced exactly (it makes buckets begin at each long row).
    """
    keys = list(keys)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        cum = pdf.groupby(keys, sort=False)[duration_col].cumsum()
        pdf[target] = np.floor((cum - 1) / sampling) - np.floor(
            (pdf[duration_col] - 1) / sampling
        )
        return pdf

    return keyed_partition_map(
        ds, keys=keys, order_col=order_col, fn=fn, num_partitions=num_partitions
    )


def with_duration_from_id(
    ds, *, keys, group_col, ts_col, target="group_duration_s", num_partitions=64, order_col=None
):
    """Broadcast last(ts)−first(ts) of each sub-group to its rows.

    Reference: WithDurationFromId (features/WithDurationFromId.scala:36-54)
    — unbounded window over rows sharing an id.
    """
    keys = list(keys)
    order_col = order_col or ts_col

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = byte_exact_group_cols(pdf, [group_col])
        g = pdf.groupby(group_col, sort=False)[ts_col]
        span = g.transform("max") - g.transform("min")
        pdf[target] = (
            span.dt.total_seconds()
            if hasattr(span, "dt") and hasattr(span.dt, "total_seconds")
            else span
        )
        return pdf

    return keyed_partition_map(
        ds, keys=keys, order_col=order_col, fn=fn, num_partitions=num_partitions
    )


def rolling_median_outlier_fn(
    keys: list[str], value_col: str, half_window: int, threshold: float,
    med_target: str = "rolling_median", flag_target: str = "is_outlier",
):
    """Hampel-style local outlier detection per key.

    Reference: LocalOutliersRemover (filter/LocalOutliersRemover.scala:40-98)
    — sliding ±halfWindow collect_list → median → |value − median| >
    threshold ⇒ outlier. Window is truncated at key edges (same as the
    reference's collect_list over bounded window).
    """

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        med = (
            pdf.groupby(keys, sort=False)[value_col]
            .rolling(window=2 * half_window + 1, center=True, min_periods=1)
            .median()
            .reset_index(drop=True)
        )
        med.index = pdf.index
        pdf[med_target] = med
        pdf[flag_target] = (pdf[value_col] - med).abs() > threshold
        return pdf

    return fn


def with_rolling_median_outlier(
    ds, *, keys, order_col, value_col, half_window=2, threshold=0.5, num_partitions=64
):
    keys = list(keys)
    return keyed_partition_map(
        ds,
        keys=keys,
        order_col=order_col,
        fn=rolling_median_outlier_fn(keys, value_col, half_window, threshold),
        num_partitions=num_partitions,
    )


def with_visibility_change(
    ds, *, keys, order_col, visibility_col, target="visibility_change", num_partitions=64
):
    """APPEAR / DISAPPEAR / APPEAR_DISAPPEAR from lag+lead of a 0/1 column.

    Reference: WithVisibilityChange (features/WithVisibilityChange.scala:41-76):
    a visible row after an invisible (or first) one APPEARs; a visible row
    before an invisible (or last) one DISAPPEARs; both ⇒ APPEAR_DISAPPEAR.
    """
    keys = list(keys)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(keys, sort=False)[visibility_col]
        prev, nxt = g.shift(1), g.shift(-1)
        vis = pdf[visibility_col] > 0
        appear = vis & ((prev.isna()) | (prev == 0))
        disappear = vis & ((nxt.isna()) | (nxt == 0))
        out = np.select(
            [appear & disappear, appear, disappear],
            ["APPEAR_DISAPPEAR", "APPEAR", "DISAPPEAR"],
            default=None,
        )
        pdf[target] = out
        return pdf

    return keyed_partition_map(
        ds, keys=keys, order_col=order_col, fn=fn, num_partitions=num_partitions
    )


def static_columns_standardizer_fn(keys: list[str], spec: dict[str, tuple]):
    """Fill a whole key-group with its first valid value, else a default.

    Reference: StaticColumnsStandardizer (tools/StaticColumnsStandardizer.scala:37-55):
    per id, "undefined" sentinels → null, then every row gets the group's
    first non-null value or the declared default.

    ``spec``: {column: (undefined_sentinel, default)}.
    """

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        for col, (sentinel, default) in spec.items():
            s = pdf[col].mask(pdf[col] == sentinel)
            first = s.groupby([pdf[k] for k in keys], sort=False).transform("first")
            pdf[col] = first.fillna(default)
        return pdf

    return fn


def sessionize_fn(
    keys: list[str], order_col: str, ts_col: str, gap_s: float, target: str = "session_id"
):
    """Session windows: a new session starts after a gap > ``gap_s``.

    The reference encodes sessionization as fixed-threshold gap detection
    (WithGapState, features/WithGapState.scala:35-48) followed by state-id
    assignment; this fuses both into one pass. ``session_id`` =
    ``<key>#<order value of session's first row>``.
    """

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(keys, sort=False)
        prev = g[ts_col].shift(1)
        delta = pdf[ts_col] - prev
        dur = (
            delta.dt.total_seconds()
            if hasattr(delta, "dt") and hasattr(delta.dt, "total_seconds")
            else delta
        )
        new_session = prev.isna() | (dur > gap_s)
        seg = new_session.cumsum()
        first_order = pdf[order_col].groupby(seg).transform("first")
        key_str = key_as_str(pdf[keys[0]])
        for k in keys[1:]:
            key_str = key_str + "/" + key_as_str(pdf[k])
        pdf[target] = key_str + "#" + first_order.astype(str)
        return pdf

    return fn


def with_session_id(ds, *, keys, order_col, ts_col, gap_s, num_partitions=64):
    keys = list(keys)
    return keyed_partition_map(
        ds,
        keys=keys,
        order_col=order_col,
        fn=sessionize_fn(keys, order_col, ts_col, gap_s),
        num_partitions=num_partitions,
    )


def dedup_keep_first(ds, *, keys, order_col, num_partitions=64):
    """Exact dedup on key columns keeping the smallest order value.

    Reference: DataFrameFormatter's dedup on (id, timestamp)
    (tools/DataFrameFormatter.scala:48).
    """
    keys = list(keys)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.drop_duplicates(subset=keys, keep="first")

    return keyed_partition_map(
        ds, keys=keys, order_col=order_col, fn=fn, num_partitions=num_partitions
    )
