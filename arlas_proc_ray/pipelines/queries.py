"""Query catalog: every operator exposed as a (Ray pipeline, oracle SQL) pair.

Each ``q_*`` builder takes ``sf_dir`` and returns a Dataset / DataFrame /
Table; ``ORACLE_SQL`` holds the ANSI-SQL equivalent DuckDB runs on the same
parquet (views: region nation customer supplier part orders lineitem events
documents embeddings). Column names match EXACTLY between both sides (the
driver hash-compares after sorting columns by name).

Determinism policy for floats:
- monetary/value aggregates use EXACT integer-cents arithmetic on both
  sides (2-decimal data), divided back at the end — bit-identical;
- per-row arithmetic (durations from µs timestamps, ratios) is identical
  IEEE ops on identical inputs — bit-identical;
- only genuinely order-sensitive float reductions (cosine similarities)
  are rounded (6 dp) on both sides.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from arlas_proc_ray.sources.io import read_parquet as _rp

from arlas_proc_ray.stages.keyed import keyed_partition_map, set_default_exchange

NP = 16  # partition fan-out for keyed ops at test scale

# Catalog-wide exchange default: every catalog execution runs
# sub-crossover volumes (the Dataset sort's sample/sort/re-block
# machinery only wins past ~1M co-partitioned rows — stages/keyed.py),
# and the two-phase staged exchange measured 30-50% faster per keyed
# query at sf0.1/32 cpus across the WHOLE catalog, library-internal
# operators included (full pass 143.8 → 98.0 s, byte-identical results,
# parity pinned in tests/test_staged_exchange.py). Sites where the sort
# shuffle wins (event-sized object-heavy outputs, e.g. fragments) opt
# back with an explicit exchange="sort"; importing this module flips
# only the process-wide DEFAULT — the library ships with "sort", the
# streaming no-materialization choice that stays right at 100-TB
# volumes.
set_default_exchange("staged")

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _events(sf_dir: str, columns=None, **kw):
    return _rp(f"{sf_dir}/events.parquet", columns=columns, **kw)


def _docs(sf_dir: str, columns=None, **kw):
    return _rp(f"{sf_dir}/documents.parquet", columns=columns, **kw)


def _cents(series: pd.Series) -> pd.Series:
    """2-decimal double → exact integer cents."""
    return (series * 100).round().astype("int64")


def _dur_s(ts: pd.Series, prev: pd.Series) -> pd.Series:
    """µs-exact duration seconds (matches DuckDB epoch(ts)-epoch(prev))."""
    return (ts - prev).dt.total_seconds()


# ---------------------------------------------------------------------------
# CDC / keyed-upsert family (events as the change stream)
# ---------------------------------------------------------------------------


def q_cdc_lww_upsert(sf_dir: str):
    """Keyed LWW upsert over the events stream (the CDC primitive).

    key=(user_id, event_type), LSN=event_id, tombstone rule value<0.05.
    Per-batch combiner + single partition shuffle (same topology as the
    flagship replay in cdc/replay.py).
    """
    from arlas_proc_ray.cdc.replay import lww_reduce_table
    from arlas_proc_ray.functions.hashing import sha256_hex

    ds = _events(sf_dir)
    keys = ["user_id", "event_type"]

    def to_str_keys(t: pa.Table) -> pa.Table:
        # lww_reduce_table's dictionary-encode needs string keys; combine
        return t.append_column(
            "_k",
            pc.binary_join_element_wise(
                pc.cast(t.column("user_id"), pa.string()),
                t.column("event_type"),
                "\x00",
            ),
        )

    ds = ds.map_batches(to_str_keys, batch_format="pyarrow", batch_size=None)
    ds = ds.map_batches(
        lambda t: lww_reduce_table(t, ["_k"], "event_id"), batch_format="pyarrow"
    , batch_size=None)

    def finalize(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.drop_duplicates(subset=["_k"], keep="last")
        pdf = pdf[pdf["value"] >= 0.05]
        digests = sha256_hex(
            pa.Array.from_pandas(pdf["props"], type=pa.string())
        )
        out = pd.DataFrame(
            {
                "user_id": pdf["user_id"].values,
                "event_type": pdf["event_type"].values,
                "last_event_id": pdf["event_id"].values,
                "last_ts": pdf["ts"].values,
                "last_value": pdf["value"].values,
                "props_sha256": digests.to_numpy(zero_copy_only=False),
            }
        )
        return out

    return keyed_partition_map(
        ds, keys=["_k"], order_col="event_id", fn=finalize, num_partitions=NP
    )


def q_dedup_first_per_key(sf_dir: str):
    """Keep the FIRST event per (user_id, event_type) — the reference's
    (id, timestamp) dedup (tools/DataFrameFormatter.scala:48)."""
    ds = _events(sf_dir, columns=["user_id", "event_type", "event_id", "value"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.drop_duplicates(subset=["user_id", "event_type"], keep="first")
        return pd.DataFrame(
            {
                "user_id": out["user_id"].values,
                "event_type": out["event_type"].values,
                "first_event_id": out["event_id"].values,
                "first_value": out["value"].values,
            }
        )

    return keyed_partition_map(
        ds, keys=["user_id", "event_type"], order_col="event_id", fn=fn,
        num_partitions=NP,
    )


# ---------------------------------------------------------------------------
# per-key ordered operators (the window family) over events
# ---------------------------------------------------------------------------

GAP_S = 43_200.0  # reference default gap threshold (WithGapState.scala:37)


def q_gap_state(sf_dir: str):
    ds = _events(sf_dir, columns=["event_id", "user_id", "ts"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        prev = pdf.groupby("user_id", sort=False)["ts"].shift(1)
        dur = _dur_s(pdf["ts"], prev)
        pdf["duration_s"] = dur
        pdf["gap_state"] = np.where(dur > GAP_S, "GAP", "NOTGAP")
        return pdf.drop(columns=["ts"])

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn, num_partitions=NP
    )


def q_state_id_on_change(sf_dir: str):
    from arlas_proc_ray.stages.keyed import state_id_fn

    ds = _events(sf_dir, columns=["event_id", "user_id", "event_type"])
    return keyed_partition_map(
        ds,
        keys=["user_id"],
        order_col="event_id",
        fn=state_id_fn(["user_id"], "event_id", "event_type", "state_id"),
        num_partitions=NP,
    )


def q_fragments(sf_dir: str):
    """FlowFragmentMapper analogue: adjacent event pairs per user."""
    ds = _events(sf_dir, columns=["event_id", "user_id", "ts", "value"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("user_id", sort=False)
        prev_ts = g["ts"].shift(1)
        prev_v = g["value"].shift(1)
        prev_id = g["event_id"].shift(1)
        keep = prev_ts.notna()
        out = pd.DataFrame(
            {
                "fragment_id": (
                    pdf["user_id"].astype(str)
                    + "#"
                    + prev_id.astype("Int64").astype(str)
                    + "_"
                    + pdf["event_id"].astype(str)
                ),
                "user_id": pdf["user_id"].values,
                "t_start": prev_ts.values,
                "t_end": pdf["ts"].values,
                "duration_s": _dur_s(pdf["ts"], prev_ts).values,
                "value_delta": (pdf["value"] - prev_v).values,
                "value_avg": ((pdf["value"] + prev_v) / 2.0).values,
                "nb_points": 2,
            }
        )
        return out[keep.values]

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn, num_partitions=NP,
        # event-sized output with object-string ids: the sort shuffle's
        # streaming re-block beats the staged gather here (0.66 vs 1.20 s
        # at sf0.1) — the one measured exception to the staged default
        exchange="sort",
    )


def q_duration_from_id(sf_dir: str):
    """Per-group span (WithDurationFromId) as a pre-aggregated groupby."""
    ds = _events(sf_dir, columns=["user_id", "ts"])

    # partial per-batch min/max/count, then a tiny global groupby
    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("user_id")["ts"]
        return g.agg(_min="min", _max="max", _n="count").reset_index()

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=None)

    def final(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("user_id")
        out = pd.DataFrame(
            {
                "n_events": g["_n"].sum(),
                "span_s": (
                    g["_max"].max() - g["_min"].min()
                ).dt.total_seconds(),
            }
        ).reset_index()
        return out

    return keyed_partition_map(
        partials, keys=["user_id"], order_col="_min", fn=final, num_partitions=NP
    )


def q_run_collapse(sf_dir: str):
    """Conditional group-collapse (FragmentSummaryTransformer semantics):
    collapse each consecutive run of event_type=='view' per user into one
    summary row; other rows pass through unchanged."""
    ds = _events(sf_dir, columns=["event_id", "user_id", "event_type", "ts", "value"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("user_id", sort=False)
        changed = (pdf["event_type"] != g["event_type"].shift(1)) | (
            g.cumcount() == 0
        )
        seg = changed.cumsum()
        is_view = (pdf["event_type"] == "view").to_numpy()
        cents = _cents(pdf["value"])

        views = pdf[is_view].assign(_seg=seg[is_view], _cents=cents[is_view])
        gb = views.groupby("_seg", sort=False)
        summary = pd.DataFrame(
            {
                "user_id": gb["user_id"].first(),
                "event_id": gb["event_id"].min(),
                "event_type": "view",
                "n_rows": gb.size(),
                "value_sum": gb["_cents"].sum() / 100.0,
                "t_start": gb["ts"].min(),
                "t_end": gb["ts"].max(),
            }
        ).reset_index(drop=True)

        rest = pdf[~is_view]
        passthrough = pd.DataFrame(
            {
                "user_id": rest["user_id"].values,
                "event_id": rest["event_id"].values,
                "event_type": rest["event_type"].values,
                "n_rows": 1,
                "value_sum": cents[~is_view].values / 100.0,
                "t_start": rest["ts"].values,
                "t_end": rest["ts"].values,
            }
        )
        out = pd.concat([summary, passthrough], ignore_index=True)
        out["n_rows"] = out["n_rows"].astype("int64")
        return out.sort_values(["user_id", "event_id"], kind="mergesort")

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn, num_partitions=NP
    )


def q_rolling_median_outlier(sf_dir: str):
    """Hampel-style local outlier flag (LocalOutliersRemover analogue)."""
    ds = _events(sf_dir, columns=["event_id", "user_id", "value"])
    HALF, THRESH = 2, 5.0

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        med = (
            pdf.groupby("user_id", sort=False)["value"]
            .rolling(window=2 * HALF + 1, center=True, min_periods=1)
            .median()
            .reset_index(drop=True)
        )
        med.index = pdf.index
        pdf["rolling_median"] = med.round(6)
        pdf["is_outlier"] = (pdf["value"] - med).abs() > THRESH
        return pdf

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn, num_partitions=NP
    )


def q_sample_id(sf_dir: str):
    """Cumsum bucketing (WithFragmentSampleId formula, sampling=86400 s)."""
    ds = _events(sf_dir, columns=["event_id", "user_id", "ts"])
    SAMPLING = 86_400.0

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("user_id", sort=False)
        dur = _dur_s(pdf["ts"], g["ts"].shift(1)).fillna(0.0)
        cum = dur.groupby(pdf["user_id"], sort=False).cumsum()
        pdf["duration_s"] = dur
        pdf["sample_seq"] = (
            np.floor((cum - 1) / SAMPLING) - np.floor((dur - 1) / SAMPLING)
        ).astype("int64")
        return pdf.drop(columns=["ts"])

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn, num_partitions=NP
    )


def q_visibility_change(sf_dir: str):
    """APPEAR/DISAPPEAR labeling from lag+lead (WithVisibilityChange)."""
    ds = _events(sf_dir, columns=["event_id", "user_id", "value"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        vis = (pdf["value"] >= 1.0).astype("int32")
        pdf["visible"] = vis
        g = vis.groupby(pdf["user_id"], sort=False)
        prev, nxt = g.shift(1), g.shift(-1)
        visible = vis == 1
        appear = visible & (prev.isna() | (prev == 0))
        disappear = visible & (nxt.isna() | (nxt == 0))
        pdf["visibility_change"] = np.select(
            [appear & disappear, appear, disappear],
            ["APPEAR_DISAPPEAR", "APPEAR", "DISAPPEAR"],
            default=None,
        )
        return pdf.drop(columns=["value"])

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn, num_partitions=NP
    )


def q_sessionize(sf_dir: str):
    """Session windows (gap > 43200 s) collapsed to per-session summaries."""
    ds = _events(sf_dir, columns=["event_id", "user_id", "ts", "value"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("user_id", sort=False)
        prev = g["ts"].shift(1)
        dur = _dur_s(pdf["ts"], prev)
        new_session = prev.isna() | (dur > GAP_S)
        seg = new_session.cumsum()
        cents = _cents(pdf["value"])
        tmp = pdf.assign(_seg=seg, _cents=cents)
        gb = tmp.groupby("_seg", sort=False)
        out = pd.DataFrame(
            {
                "user_id": gb["user_id"].first(),
                "session_id": (
                    gb["user_id"].first().astype(str)
                    + "#"
                    + gb["event_id"].min().astype(str)
                ),
                "n_events": gb.size().astype("int64"),
                "t_start": gb["ts"].min(),
                "t_end": gb["ts"].max(),
                "value_sum": gb["_cents"].sum() / 100.0,
            }
        ).reset_index(drop=True)
        return out

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn, num_partitions=NP
    )


def q_time_partition_counts(sf_dir: str):
    """yyyyMMdd storage-partition derivation (WithTimePartition) + counts."""
    from arlas_proc_ray.stages.rowwise import with_time_partition

    ds = _events(sf_dir, columns=["ts", "value"])
    ds = ds.map_batches(
        lambda t: with_time_partition(t, "ts"), batch_format="pyarrow"
    , batch_size=None)

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf["_cents"] = _cents(pdf["value"])
        g = pdf.groupby("time_partition")
        return g.agg(n_events=("value", "size"), _c=("_cents", "sum")).reset_index()

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=None)

    def final(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("time_partition")
        return pd.DataFrame(
            {
                "n_events": g["n_events"].sum().astype("int64"),
                "value_sum": g["_c"].sum() / 100.0,
            }
        ).reset_index()

    return keyed_partition_map(
        partials, keys=["time_partition"], order_col="n_events", fn=final,
        num_partitions=NP,
    )


def q_value_range_filter(sf_dir: str):
    """Predicate filter (WithoutOutOfRangeLocation analogue)."""
    from arlas_proc_ray.stages.rowwise import filter_value_range

    ds = _events(sf_dir, columns=["event_id", "user_id", "value"])
    return ds.map_batches(
        lambda t: filter_value_range(t, "value", 1.0, 100.0), batch_format="pyarrow"
    , batch_size=None)


# ---------------------------------------------------------------------------
# relational (TPC-H-ish) — partial pre-aggregation + broadcast joins
# ---------------------------------------------------------------------------


def q_tpch_q1(sf_dir: str):
    """Pricing summary with EXACT integer-cents partial aggregation.

    Shape: map_batches partial per-batch groupby (combiner) → tiny global
    groupby → finalize. The shuffle moves #groups × #batches rows, not 6M.
    """
    ds = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )
    cutoff = pd.Timestamp("1998-09-02")

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[pdf["l_shipdate"] <= cutoff]
        price_c = _cents(pdf["l_extendedprice"])
        disc_c = _cents(pdf["l_discount"])  # 0..100
        tax_c = _cents(pdf["l_tax"])
        qty_c = _cents(pdf["l_quantity"])
        tmp = pd.DataFrame(
            {
                "l_returnflag": pdf["l_returnflag"].values,
                "l_linestatus": pdf["l_linestatus"].values,
                "qty_c": qty_c.values,
                "price_c": price_c.values,
                "disc_price_c4": (price_c * (100 - disc_c)).values,
                "charge_c6": (price_c * (100 - disc_c) * (100 + tax_c)).values,
                "disc_c": disc_c.values,
            }
        )
        g = tmp.groupby(["l_returnflag", "l_linestatus"])
        out = g.agg(
            qty_c=("qty_c", "sum"),
            price_c=("price_c", "sum"),
            disc_price_c4=("disc_price_c4", "sum"),
            charge_c6=("charge_c6", "sum"),
            disc_c=("disc_c", "sum"),
            n=("qty_c", "size"),
        ).reset_index()
        return out

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)

    def final(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(["l_returnflag", "l_linestatus"])
        s = g.agg(
            qty_c=("qty_c", "sum"),
            price_c=("price_c", "sum"),
            disc_price_c4=("disc_price_c4", "sum"),
            charge_c6=("charge_c6", "sum"),
            disc_c=("disc_c", "sum"),
            count_order=("n", "sum"),
        ).reset_index()
        out = pd.DataFrame(
            {
                "l_returnflag": s["l_returnflag"],
                "l_linestatus": s["l_linestatus"],
                "sum_qty": s["qty_c"] / 100.0,
                "sum_base_price": s["price_c"] / 100.0,
                "sum_disc_price": s["disc_price_c4"] / 10_000.0,
                "sum_charge": s["charge_c6"] / 1_000_000.0,
                "avg_qty": (s["qty_c"] / 100.0) / s["count_order"],
                "avg_price": (s["price_c"] / 100.0) / s["count_order"],
                "avg_disc": (s["disc_c"] / 100.0) / s["count_order"],
                "count_order": s["count_order"].astype("int64"),
            }
        )
        return out

    return keyed_partition_map(
        partials, keys=["l_returnflag", "l_linestatus"], order_col="n",
        fn=final, num_partitions=4,
    )


def q_broadcast_enrich(sf_dir: str):
    """customer ⋈ nation ⋈ region via broadcast map-side join
    (WithCountryNameFormatted pattern — no shuffle of the big side)."""
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.lookup import broadcast_join

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    small = nation.merge(
        region, left_on="n_regionkey", right_on="r_regionkey", how="left"
    )[["n_nationkey", "n_name", "r_name"]].rename(columns={"n_nationkey": "c_nationkey"})

    # min_parallelism matches the actor pool so a small (1-block) read
    # does not starve it (round-2 bench regression: 0.88 s -> 1.29 s)
    ds = _rp(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
        min_parallelism=2,
    )
    out = broadcast_join(ds, small, on=["c_nationkey"])
    return out.select_columns(["c_custkey", "c_name", "n_name", "r_name"])


def q_topk_orders(sf_dir: str):
    """Top-10 orders by price — per-batch combiner then tiny global sort."""
    ds = _rp(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def local_topk(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.nlargest(10, ["o_totalprice", "o_orderkey"])

    partials = ds.map_batches(local_topk, batch_format="pandas", batch_size=None)
    allp = partials.to_pandas()
    out = allp.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True]
    ).head(10)
    return out.reset_index(drop=True)


# ---------------------------------------------------------------------------
# text / documents
# ---------------------------------------------------------------------------


def q_token_count(sf_dir: str):
    from arlas_proc_ray.functions.text import token_count_column

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t.column("doc_id"), "n_tokens": token_count_column(t.column("text"))}
        )

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def q_doc_dedup_exact(sf_dir: str):
    """Exact content dedup: one row per distinct sha256(text)."""
    from arlas_proc_ray.dedup.exact import with_text_sha256

    ds = with_text_sha256(_docs(sf_dir, columns=["doc_id", "text"]))

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("text_sha256", sort=False)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].min().astype("int64"),
                "n_dups": g.size().astype("int64"),
            }
        ).reset_index()

    return keyed_partition_map(
        ds, keys=["text_sha256"], order_col="doc_id", fn=fn, num_partitions=NP
    )


def q_quality_metrics(sf_dir: str):
    from arlas_proc_ray.functions.text import quality_metrics

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        out = quality_metrics(t)
        out = out.drop_columns(["text"])
        ratio = pc.round(out.column("punct_ratio"), 6)
        mtl = pc.round(out.column("mean_token_len"), 6)
        out = out.set_column(out.schema.get_field_index("punct_ratio"), "punct_ratio", ratio)
        out = out.set_column(
            out.schema.get_field_index("mean_token_len"), "mean_token_len", mtl
        )
        return out

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def q_lang_id(sf_dir: str):
    from arlas_proc_ray.functions.text import score_lang_batch

    ds = _docs(sf_dir, columns=["doc_id", "text"], min_parallelism=2)
    out = ds.map_batches(score_lang_batch, batch_format="pandas", batch_size=None)
    return out.select_columns(["doc_id", "lang_pred", "lang_score"])


def q_simhash(sf_dir: str):
    from arlas_proc_ray.dedup.minhash import simhash_column

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    out = simhash_column(ds)

    def hexify(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf["simhash_hex"] = [format(int(x), "016x") for x in pdf["simhash"]]
        return pdf[["doc_id", "simhash_hex"]]

    return out.map_batches(hexify, batch_format="pandas", batch_size=None)


def q_fingerprint(sf_dir: str):
    from arlas_proc_ray.functions.text import rolling_fingerprint

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        fp = rolling_fingerprint(pdf["text"].tolist())
        pdf["fingerprint_hex"] = [format(int(x), "016x") for x in fp]
        return pdf[["doc_id", "fingerprint_hex"]]

    return ds.map_batches(fn, batch_format="pandas", batch_size=None)


def q_minhash_near_dup(sf_dir: str):
    from arlas_proc_ray.dedup.minhash import minhash_near_duplicates

    # compute-heavy signatures: keep fan-out even when the input is one
    # 16 MB block; task-based signature stage (no pool spawn, parallelism
    # = block count) with one-permutation hashing
    ds = _docs(sf_dir, columns=["doc_id", "text"], min_parallelism=8)
    # classic k-permutation signatures here: the documents fixture is
    # short-doc (47–558 chars → most OPH bins empty → rotation
    # densification self-correlates signatures → ~2× false-candidate
    # flood; measured 556k vs 260k candidate pairs at sf0.1, bands=32).
    # OPH stays the library default — it wins on long-content corpora
    # (CDC content ~2 KB) where signatures dominate and bins are full.
    return minhash_near_duplicates(ds, jaccard_threshold=0.5, algo="classic")


# ---------------------------------------------------------------------------
# embeddings / similarity search
# ---------------------------------------------------------------------------


def _query_vectors(sf_dir: str, n: int = 5):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    mask = pc.less(t.column("vec_id"), pa.scalar(n))
    q = t.filter(mask)
    ids = q.column("vec_id").to_numpy()
    mat = np.stack([np.asarray(v) for v in q.column("embedding").to_pylist()]).astype(
        np.float64
    )
    return ids, mat


def q_ann_topk(sf_dir: str):
    from arlas_proc_ray.ann import brute_force_topk

    ids, mat = _query_vectors(sf_dir, 5)
    ds = _rp(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = brute_force_topk(ds, ids, mat, k=3)
    out["cos_sim"] = out["cos_sim"].round(6)
    return out


def q_embedding_norms(sf_dir: str):
    ds = _rp(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def fn(t: pa.Table) -> pa.Table:
        from arlas_proc_ray.ann.search import _as_matrix

        mat = _as_matrix(t.column("embedding"))
        norms = np.sqrt((mat * mat).sum(axis=1)).round(6)
        return pa.table({"vec_id": t.column("vec_id"), "l2_norm": pa.array(norms)})

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)



def q_hmm_moving_state(sf_dir: str):
    """HMM Viterbi state decoding over the value stream (WithMovingState
    analogue; model loaded once per actor — rows-only check, no SQL)."""
    from arlas_proc_ray.stages.ml import STILLMOVE_MODEL_JSON, with_hmm_states

    ds = _events(sf_dir, columns=["event_id", "user_id", "value"])
    return with_hmm_states(
        ds, keys=["user_id"], order_col="event_id", obs_col="value",
        model_json=STILLMOVE_MODEL_JSON, target="moving_state",
        num_partitions=NP,
    )



def q_segment_revenue(sf_dir: str):
    """orders ⋈ customer (broadcast) → revenue per market segment.

    Join + partial pre-agg + tiny final groupby; exact integer-cents sums.
    """
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.lookup import broadcast_join

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).to_pandas().rename(columns={"c_custkey": "o_custkey"})
    ds = _rp(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    joined = broadcast_join(ds, cust, on=["o_custkey"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf["_c"] = _cents(pdf["o_totalprice"])
        g = pdf.groupby("c_mktsegment")
        return g.agg(n_orders=("_c", "size"), _c=("_c", "sum")).reset_index()

    partials = joined.map_batches(partial, batch_format="pandas", batch_size=None)

    def final(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("c_mktsegment")
        return pd.DataFrame(
            {
                "n_orders": g["n_orders"].sum().astype("int64"),
                "revenue": g["_c"].sum() / 100.0,
            }
        ).reset_index()

    return keyed_partition_map(
        partials, keys=["c_mktsegment"], order_col="n_orders", fn=final,
        num_partitions=4,
    )


def q_ann_lsh_topk(sf_dir: str):
    """LSH-bucketed approximate cosine top-k (the ANN scale path;
    approximate by construction → rows-only check)."""
    from arlas_proc_ray.ann import lsh_bucketed_topk

    ids, mat = _query_vectors(sf_dir, 5)
    ds = _rp(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = lsh_bucketed_topk(ds, ids, mat, k=3, bits=4)
    out["cos_sim"] = out["cos_sim"].round(6)
    return out



def q_movement_courses(sf_dir: str):
    """Full AIS-tutorial-analogue chain (README.md:216-404): dedup →
    duration → HMM moving state → motion/course segmentation → stop
    collapse → course extraction with neighbor-pulled departure/arrival →
    greedy mission merge. ONE fused partition pass; rows-only check."""
    from arlas_proc_ray.pipelines.movement import movement_courses

    return movement_courses(sf_dir, num_partitions=NP)


def q_enriched_events(sf_dir: str):
    """REST-enrichment actor-pool stage (WithGeoData pattern) with the
    deterministic offline client; rows-only check."""
    from arlas_proc_ray.stages.enrich import with_enrichment

    # feed the 2-actor enrichment pool ≥2 blocks even on a small read
    ds = _events(
        sf_dir, columns=["event_id", "user_id", "event_type"], min_parallelism=2
    )
    out = with_enrichment(ds, key_col="user_id", batch_size=1024)
    return out



def q_char_jaccard(sf_dir: str):
    """Character-set Jaccard similarity of every document to document 0
    (the n-gram-Jaccard verify kernel's charset variant, vectorized)."""
    import pyarrow.parquet as pq

    ref_text = (
        pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .filter(pc.equal(pc.field("doc_id"), 0))
        .column("text")[0]
        .as_py()
    )
    ref_set = frozenset(ref_text)
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        sims = np.empty(len(pdf), dtype=np.float64)
        for i, t in enumerate(pdf["text"]):
            st = set(t)
            sims[i] = len(st & ref_set) / len(st | ref_set)
        return pd.DataFrame(
            {"doc_id": pdf["doc_id"].values, "jac": np.round(sims, 6)}
        )

    return ds.map_batches(fn, batch_format="pandas", batch_size=None)


def q_events_period(sf_dir: str):
    """Partition-pruned time-slice filter (filterOnPeriod analogue,
    sql/package.scala:41-66): predicate pushed down to the parquet read."""
    import pyarrow as _pa
    import pyarrow.dataset as pads

    lo = pd.Timestamp("2024-01-10")
    hi = pd.Timestamp("2024-01-20")
    ds = _rp(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
        filter=(pads.field("ts") >= _pa.scalar(lo)) & (pads.field("ts") < _pa.scalar(hi)),
    )
    return ds



def q_dedup_documents(sf_dir: str):
    """End-to-end corpus dedup: exact sha256 + MinHash-LSH clusters +
    survivor selection. SQL-oracled: the fixture's true pairs all have
    jaccard ≥ 0.92, so the LSH (bands=32, r=4) miss probability per pair
    is (1-0.92^4)^32 ≈ 3e-18 — the verified output deterministically
    equals the exact all-pairs result the oracle computes."""
    from arlas_proc_ray.dedup.pipeline import dedup_documents

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    survivors, _stats = dedup_documents(ds, jaccard_threshold=0.5, num_partitions=NP)

    def typed(pdf: pd.DataFrame) -> pd.DataFrame:
        # nullable Int64 label → float64 (NaN for unclustered): both the
        # DuckDB oracle (BIGINT+NULL → float64) and pandas compare agree
        pdf["dup_cluster_id"] = pdf["dup_cluster_id"].astype("float64")
        return pdf

    return survivors.map_batches(typed, batch_format="pandas", batch_size=None)



def q_tempo(sf_dir: str):
    """WithTempo analogue: HMM tempo class over per-user inter-event
    durations, first event per user -> tempo_irregular (rows-only)."""
    from arlas_proc_ray.stages.ml import with_tempo

    ds = _events(sf_dir, columns=["event_id", "user_id", "ts"])
    return with_tempo(
        ds, keys=["user_id"], order_col="event_id", ts_col="ts",
        num_partitions=NP,
    )



def q_ann_ivf_topk(sf_dir: str):
    """IVF approximate cosine top-k (k-means coarse quantizer + probing —
    the corpus-scale ANN path; approximate -> rows-only)."""
    from arlas_proc_ray.ann.ivf import ivf_topk

    ids, mat = _query_vectors(sf_dir, 5)
    ds = _rp(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = ivf_topk(ds, ids, mat, k=3, n_centroids=16, n_probe=6)
    out["cos_sim"] = out["cos_sim"].round(6)
    return out



def q_topk_per_group(sf_dir: str):
    """Top-2 lineitems per (returnflag, linestatus) by extendedprice —
    grouped top-k via local per-batch prune + vectorized final per group."""
    ds = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_returnflag", "l_linestatus",
                 "l_extendedprice"],
    )

    def local_prune(pdf: pd.DataFrame) -> pd.DataFrame:
        return (
            pdf.sort_values(
                ["l_returnflag", "l_linestatus", "l_extendedprice",
                 "l_orderkey", "l_linenumber"],
                ascending=[True, True, False, True, True],
            )
            .groupby(["l_returnflag", "l_linestatus"], sort=False)
            .head(2)
        )

    pruned = ds.map_batches(local_prune, batch_format="pandas", batch_size=None)

    def final(pdf: pd.DataFrame) -> pd.DataFrame:
        return local_prune(pdf)

    return keyed_partition_map(
        pruned, keys=["l_returnflag", "l_linestatus"], order_col="l_orderkey",
        fn=final, num_partitions=4,
    )


def q_brand_revenue(sf_dir: str):
    """part ⋈ lineitem (broadcast part) → exact-cents revenue per brand."""
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.lookup import broadcast_join

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    ).to_pandas().rename(columns={"p_partkey": "l_partkey"})
    ds = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )
    joined = broadcast_join(ds, part, on=["l_partkey"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        price_c = _cents(pdf["l_extendedprice"])
        disc_c = _cents(pdf["l_discount"])
        pdf = pdf.assign(_rc=(price_c * (100 - disc_c)))
        g = pdf.groupby("p_brand")
        return g.agg(n_items=("_rc", "size"), _rc=("_rc", "sum")).reset_index()

    partials = joined.map_batches(partial, batch_format="pandas", batch_size=None)

    def final(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("p_brand")
        return pd.DataFrame(
            {
                "n_items": g["n_items"].sum().astype("int64"),
                "revenue": g["_rc"].sum() / 10_000.0,
            }
        ).reset_index()

    return keyed_partition_map(
        partials, keys=["p_brand"], order_col="n_items", fn=final, num_partitions=4
    )


TEMPO_PROPORTION_MAP = {
    "tempo_fast_proportion": "tempo_fast",
    "tempo_medium_proportion": "tempo_medium",
    "tempo_slow_proportion": "tempo_slow",
    "tempo_irregular_proportion": "tempo_irregular",
}


def q_tempo_proportion_collapse(sf_dir: str):
    """WithTempoProportions → duration-weighted fragment collapse →
    main-tempo election, fused into ONE keyed shuffle via ``chain``.

    References: features/WithTempoProportions.scala:37-52 (one-hot init),
    fragments/FragmentSummaryTransformer.scala:274-289 (duration-weighted
    proportion averages), :343-364 (main-tempo election), :370-381
    (significant-proportion is_multi). Tempo labels come from a
    deterministic duration bucketing (SQL-expressible) instead of the HMM
    so the DuckDB oracle replicates exactly; the HMM variant is the
    ``tempo`` query. Weights are EXACT integer microseconds, so the
    weighted sums are order-independent and bit-identical to the oracle.
    """
    from arlas_proc_ray.stages.rowwise import with_tempo_proportions
    from arlas_proc_ray.stages.summarize import elect_main_tempo, run_collapse_fn

    ds = _events(sf_dir, columns=["event_id", "user_id", "ts"])
    props = list(TEMPO_PROPORTION_MAP)

    def fn_dur_tempo(pdf: pd.DataFrame) -> pd.DataFrame:
        prev = pdf.groupby("user_id", sort=False)["ts"].shift(1)
        us = (pdf["ts"] - prev).to_numpy().astype("timedelta64[us]").astype(np.int64)
        first = prev.isna().to_numpy()
        us[first] = 0
        pdf["dur_us"] = us
        pdf["tempo"] = np.where(
            first,
            "tempo_irregular",
            np.where(
                us < 3_600_000_000,
                "tempo_fast",
                np.where(us < 43_200_000_000, "tempo_medium", "tempo_slow"),
            ),
        )
        return pdf.drop(columns=["ts"])

    def fn_props(pdf: pd.DataFrame) -> pd.DataFrame:
        t = with_tempo_proportions(
            pa.Table.from_pandas(pdf, preserve_index=False),
            "tempo",
            TEMPO_PROPORTION_MAP,
        )
        return t.to_pandas()

    collapse = run_collapse_fn(
        keys=["user_id"],
        order_col="event_id",
        group_col="user_id",
        condition=lambda p: pd.Series(True, index=p.index),
        agg={
            **{c: (c, "wmean", "dur_us") for c in props},
            "n_events": ("event_id", "count"),
            "dur_us_total": ("dur_us", "sum"),
        },
        passthrough=False,
    )

    def fn_finish(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = elect_main_tempo(pdf, TEMPO_PROPORTION_MAP)
        # the collapse concat upcasts counts to float (column-union fill)
        pdf["n_events"] = pdf["n_events"].astype("int64")
        pdf["duration_total_s"] = pdf["dur_us_total"] / 1_000_000.0
        return pdf[
            ["user_id", *props, "main_tempo", "tempo_is_multi",
             "n_events", "duration_total_s"]
        ]

    return keyed_partition_map(
        ds,
        keys=["user_id"],
        order_col="event_id",
        chain=[fn_dur_tempo, fn_props, lambda p: fn_finish(collapse(p))],
        num_partitions=NP,
    )


def q_embedding_near_dup(sf_dir: str):
    """Exact embedding-cosine near-dup pairs (dense analogue of minhash:
    broadcast normalized corpus matrix, per-batch matmul, emit each
    unordered pair once via the id< ordering)."""
    from arlas_proc_ray.dedup.embedding import embedding_near_duplicates

    ds = _rp(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return embedding_near_duplicates(ds, threshold=0.4)


def q_embedding_near_dup_ivf(sf_dir: str):
    """IVF-bucketed approximate variant (the corpus-scale path: pairs
    only within k-means buckets — rows-only check + recall test)."""
    from arlas_proc_ray.dedup.embedding import embedding_near_duplicates_ivf

    ds = _rp(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return embedding_near_duplicates_ivf(ds, threshold=0.4, n_centroids=8)


def q_quality_filter(sf_dir: str):
    """Curation quality gate: keep documents passing the token/punct/
    token-length thresholds (the filter stage of pipelines/curation.py),
    with the surviving metrics."""
    from arlas_proc_ray.functions.text import quality_metrics
    from arlas_proc_ray.pipelines.curation import CurationConfig, quality_filter_expr

    cfg = CurationConfig(min_tokens=20, max_punct_ratio=0.05,
                         min_mean_token_len=3.0)
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        out = quality_filter_expr(quality_metrics(t), cfg)
        out = out.drop_columns(["text"])
        for c in ("punct_ratio", "mean_token_len"):
            out = out.set_column(
                out.schema.get_field_index(c), c, pc.round(out.column(c), 6)
            )
        return out

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def q_curation(sf_dir: str):
    """Full curation chain (quality → language → exact + near dedup) —
    the flagship LLM-training-data composition; rows-only (dedup phase is
    LSH-approximate; soundness/recall oracles live in
    tests/test_python_oracles.py via the shared dedup machinery)."""
    from arlas_proc_ray.pipelines.curation import CurationConfig, curate_documents

    survivors, stats = curate_documents(
        _docs(sf_dir, columns=["doc_id", "text"], min_parallelism=2),
        CurationConfig(
            min_tokens=5, max_punct_ratio=0.3, min_mean_token_len=2.0,
            languages=("en", "fr", "de", "es", "unknown"),
            jaccard_threshold=0.5, num_partitions=NP,
        ),
    )
    out = survivors.select_columns(
        ["doc_id", "n_tokens", "lang_pred", "dup_cluster_id"]
    )

    def typed(pdf: pd.DataFrame) -> pd.DataFrame:
        # int count (union upcasts) and float64 cluster label — match the
        # SQL oracle's BIGINT / BIGINT+NULL→float64 output types
        pdf["n_tokens"] = pdf["n_tokens"].astype("int64")
        pdf["dup_cluster_id"] = pdf["dup_cluster_id"].astype("float64")
        return pdf

    return out.map_batches(typed, batch_format="pandas", batch_size=None)


def q_bpe_token_count(sf_dir: str):
    """BPE-ish (GPT-2 pre-tokenizer regex) token counts per document —
    the second token-budget estimator next to whitespace token_count."""
    from arlas_proc_ray.functions.text import regex_token_count

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "bpe_tokens": regex_token_count(t.column("text")),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def q_asof_purchase(sf_dir: str):
    """As-of join: every non-purchase event gains the user's most recent
    STRICTLY-earlier purchase (id + value); null when none. One hash
    co-partition of both sides + vectorized merge_asof per partition."""
    from arlas_proc_ray.stages.joins import asof_join

    left = _events(sf_dir, columns=["event_id", "user_id", "ts", "event_type"]).filter(
        expr="event_type != 'purchase'"
    )
    right = _events(sf_dir, columns=["event_id", "user_id", "ts", "value", "event_type"]).filter(
        expr="event_type == 'purchase'"
    ).drop_columns(["event_type"])
    out = asof_join(
        left,
        right,
        by=["user_id"],
        on="ts",
        right_cols=["event_id", "value"],
        suffix="_purchase",
        num_partitions=NP,
    )
    return out.drop_columns(["event_type"])


def q_interval_join_error_span(sf_dir: str):
    """Keyed range join: view events falling inside the user's error
    span ([min, max] ts of that user's error events) — one co-partition
    exchange, vectorized containment per partition."""
    from arlas_proc_ray.stages.joins import interval_join

    views = _events(sf_dir, columns=["event_id", "user_id", "ts", "event_type"]).filter(
        expr="event_type == 'view'"
    ).drop_columns(["event_type"])
    errors = _events(sf_dir, columns=["user_id", "ts", "event_type"]).filter(
        expr="event_type == 'error'"
    )

    def span(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("user_id", as_index=False)["ts"]
        return g.agg(span_start="min", span_end="max")

    spans = keyed_partition_map(
        errors, keys=["user_id"], order_col="ts", fn=span, num_partitions=NP
    )
    return interval_join(
        views,
        spans,
        by=["user_id"],
        left_point="ts",
        right_start="span_start",
        right_end="span_end",
        num_partitions=NP,
    )


def q_tumbling_daily_value(sf_dir: str):
    """Tumbling 1-day windows per user: event count + exact-cents value
    sum (the windowed-aggregate operator, keyed)."""
    from arlas_proc_ray.stages.windows import tumbling_window_agg

    ds = _events(sf_dir, columns=["event_id", "user_id", "ts", "value"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)), pa.int64())
        return t.append_column("_cents", c)

    out = tumbling_window_agg(
        ds.map_batches(cents, batch_format="pyarrow", batch_size=None),
        keys=["user_id"],
        ts_col="ts",
        width_s=86_400,
        agg={"n_events": ("event_id", "count"), "_c": ("_cents", "sum")},
        num_partitions=NP,
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf["n_events"] = pdf["n_events"].astype("int64")
        pdf["value_sum"] = pdf["_c"] / 100.0
        return pdf[["user_id", "window_start", "n_events", "value_sum"]]

    return out.map_batches(finish, batch_format="pandas", batch_size=None)


def q_sliding_window_counts(sf_dir: str):
    """Sliding 2-day windows hopping daily, per user (hopping-window
    aggregate; each event feeds 2 windows via a vectorized repeat)."""
    from arlas_proc_ray.stages.windows import sliding_window_agg

    ds = _events(sf_dir, columns=["event_id", "user_id", "ts"])
    out = sliding_window_agg(
        ds,
        keys=["user_id"],
        ts_col="ts",
        width_s=2 * 86_400,
        slide_s=86_400,
        agg={"n_events": ("event_id", "count")},
        num_partitions=NP,
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf["n_events"] = pdf["n_events"].astype("int64")
        return pdf[["user_id", "window_start", "n_events"]]

    return out.map_batches(finish, batch_format="pandas", batch_size=None)


def q_global_range_join(sf_dir: str):
    """UN-KEYED range join: every event paired with every event-type value
    band ([min,max] of that type's values) containing its value — range
    partitioning on the point domain, intervals replicated per bucket."""
    from arlas_proc_ray.stages.joins import interval_join_global

    events = _events(sf_dir, columns=["event_id", "value"])
    typed = _events(sf_dir, columns=["event_type", "value"])

    def band(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("event_type", as_index=False)["value"]
        return g.agg(band_lo="min", band_hi="max")

    bands = keyed_partition_map(
        typed, keys=["event_type"], order_col="value", fn=band,
        num_partitions=4,
    ).map_batches(
        lambda p: p.rename(columns={"event_type": "band_type"}),
        batch_format="pandas",
    batch_size=None)
    out = interval_join_global(
        events,
        bands,
        left_point="value",
        right_start="band_lo",
        right_end="band_hi",
        right_cols=["band_type"],
        num_partitions=NP,
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf[["event_id", "value", "band_type_right"]].rename(
            columns={"band_type_right": "band_type"}
        )

    return out.map_batches(finish, batch_format="pandas", batch_size=None)


def q_nul_key_segments(sf_dir: str):
    """Keyed segment/aggregate over keys with EMBEDDED NUL BYTES.

    Regression fixture for the round-2 finding: pandas' object-string
    hashtable merges keys differing only by NUL bytes while
    ``partition_ids`` / Arrow / DuckDB keep them apart. The derived key
    ``'u' + NUL + str(user_id % 50)`` forces every group key (and the
    derived segment id embedded in the output) through the byte-exact
    grouping path (stages/keyed.py byte_exact_group_cols).
    """
    from arlas_proc_ray.stages.keyed import key_as_str

    ds = _events(sf_dir, columns=["event_id", "user_id", "event_type"])

    def add_k(t: pa.Table) -> pa.Table:
        mod = pc.cast(
            pc.subtract(
                t.column("user_id"),
                pc.multiply(pc.divide(t.column("user_id"), 50), 50),
            ),
            pa.string(),
        )
        n = t.num_rows
        k = pc.binary_join_element_wise(
            pa.array(["u"] * n, pa.string()), mod, "\x00"
        )
        return t.append_column("k", k).replace_schema_metadata(None)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("k", sort=False)
        chg = (pdf["event_type"] != g["event_type"].shift(1)) & (
            g.cumcount() > 0
        )
        pdf = pdf.assign(_chg=chg.astype("int64"))
        out = pdf.groupby("k", as_index=False, sort=False).agg(
            n_events=("event_id", "size"),
            first_event_id=("event_id", "first"),
            last_event_id=("event_id", "last"),
            n_segments=("_chg", "sum"),
        )
        out["n_segments"] = out["n_segments"] + 1
        out["first_seg_id"] = (
            key_as_str(out["k"]) + "#" + out["first_event_id"].astype(str)
        )
        return out

    return keyed_partition_map(
        ds.map_batches(add_k, batch_format="pyarrow", batch_size=None),
        keys=["k"],
        order_col="event_id",
        fn=fn,
        num_partitions=NP,
    )


def q_cdc_engine_replay(sf_dir: str):
    """Drive the ACTUAL epoch-fenced CdcEngine (snapshot store, manifests,
    resume fences, schema alignment) over a changelog derived
    DETERMINISTICALLY from the events table — giving the flagship replay
    path a driver-visible SQL oracle (the seeded synthetic changelog in
    ``cdc_replay_final_state`` is invisible to SQL; this one is not).

    Mapping: lsn=event_id, key=(repo='u'+user_id%200, path=event_type),
    op=DELETE when value<0.15 else UPDATE, content=props, v1 schema (lang
    renamed to language and content_size computed by the alignment stage,
    replay.py make_align_fn).
    """
    import shutil
    import tempfile

    snap = tempfile.mkdtemp(prefix="cdc_engine_replay_")
    try:
        eng, _ = _events_engine_snapshot(sf_dir, snap)
        out = eng.final_state()
        return out.to_pandas() if hasattr(out, "to_pandas") else out
    finally:
        shutil.rmtree(snap, ignore_errors=True)


def q_cdc_autosplit_replay(sf_dir: str):
    """The SAME deterministic events-derived replay as
    ``cdc_engine_replay``, but applied as ONE staged epoch under an
    injected object-store budget small enough to force the auto-split
    path (cdc/sizing.py): the engine cuts the changelog into LSN-range
    sub-epochs, commits each behind the normal fences, and the final
    state must be hash-identical to the single-epoch SQL LWW oracle —
    driver-visible verification that epoch auto-sizing preserves
    exactly-once semantics."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.model import DataModel

    snap = tempfile.mkdtemp(prefix="cdc_autosplit_replay_")
    try:
        changelog = _events_changelog_v1(sf_dir).materialize()
        eng = CdcEngine(snap, DataModel(num_partitions=NP))
        budget = int((changelog.size_bytes() or 1) * 3.0)  # forces inmem split
        s = eng.apply_epoch_staged(changelog, 1, budget_bytes=budget)
        if s.get("auto_split", 1) < 2:
            raise RuntimeError(f"auto-split did not engage: {s}")
        out = eng.final_state()
        return out.to_pandas() if hasattr(out, "to_pandas") else out
    finally:
        shutil.rmtree(snap, ignore_errors=True)


def q_cdc_warm_replay(sf_dir: str):
    """The SAME deterministic events-derived replay, as two staged epochs
    split at the LSN midpoint, so epoch 2 merges over epoch 1's committed
    snapshot (merge-on-read); the final state must stay hash-identical to
    the SQL LWW oracle. The name is kept from the removed warm
    partition-state cache, which this query used to drive: it never beat
    merge-on-read (0.99x at 32 CPUs) and its long-lived cache actors held
    CPU the epoch's split tasks needed, so it deadlocked on one CPU."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.model import DataModel

    snap = tempfile.mkdtemp(prefix="cdc_warm_replay_")
    try:
        changelog = _events_changelog_v1(sf_dir).materialize()
        mid = int(changelog.max("lsn") or 0) // 2
        eng = CdcEngine(snap, DataModel(num_partitions=NP))
        eng.apply_epoch_staged(changelog.filter(expr=f"lsn <= {mid}"), 1)
        eng.apply_epoch_staged(changelog.filter(expr=f"lsn > {mid}"), 2)
        out = eng.final_state()
        return out.to_pandas() if hasattr(out, "to_pandas") else out
    finally:
        shutil.rmtree(snap, ignore_errors=True)


def q_snapshot_pruned_scan(sf_dir: str):
    """Zone-map + bloom pruned snapshot scan (cdc/snapshot.py plan_scan/
    scan) with a driver-visible SQL oracle: build the SAME deterministic
    events-derived snapshot as ``cdc_engine_replay``, then point-scan one
    repo key. The manifests' bloom filters prove the key absent in most
    partitions (zone maps cannot — hash partitioning spreads every key
    range across all of them), so only the partition(s) that can hold
    'u7' are read; the residual predicate is pushed into the parquet
    scan. Result must equal the SQL LWW final state filtered to 'u7'."""
    import shutil
    import tempfile

    snap = tempfile.mkdtemp(prefix="snapshot_pruned_scan_")
    try:
        eng, _ = _events_engine_snapshot(sf_dir, snap)
        return eng.scan(
            predicate=[("repo", "==", "u7")],
            columns=["repo", "path", "content_sha256", "last_lsn"],
        ).to_pandas()
    finally:
        shutil.rmtree(snap, ignore_errors=True)


def q_clustered_scan(sf_dir: str):
    """Sort-key-clustered snapshot scan (cdc/snapshot.py cluster_by): the
    SAME deterministic events-derived snapshot, but every partition file is
    written sorted by ``path`` with bounded row groups, so the pushed-down
    ``path = 'error'`` predicate prunes ROW GROUPS inside every surviving
    partition (zone maps/blooms prune whole partitions; clustering is the
    intra-file layer below them). Logical result must be IDENTICAL to an
    unclustered store: the SQL LWW final state filtered to the path."""
    import shutil
    import tempfile

    snap = tempfile.mkdtemp(prefix="clustered_scan_")
    try:
        eng, _ = _events_engine_snapshot(
            sf_dir, snap, cluster_by=["path"], row_group_rows=64
        )
        return eng.scan(
            predicate=[("path", "==", "error")],
            columns=["repo", "path", "content_sha256", "last_lsn"],
        ).to_pandas()
    finally:
        shutil.rmtree(snap, ignore_errors=True)


def q_incremental_feed(sf_dir: str):
    """Changed-rows incremental consumption (cdc/snapshot.py scan
    changed_since_lsn + changed_rows_only): build the two-epoch
    events-derived snapshot, then feed downstream ONLY the rows whose
    applied LSN is above the first epoch's midpoint watermark — partition
    pruning from the manifests' applied-LSN fences, then a pushed-down
    ``last_lsn > mid`` row filter. Oracle: the SQL LWW final state
    filtered to last_lsn > mid."""
    import shutil
    import tempfile

    snap = tempfile.mkdtemp(prefix="incremental_feed_")
    try:
        eng, mid = _events_engine_snapshot(sf_dir, snap)
        return eng.scan(
            changed_since_lsn=mid,
            changed_rows_only=True,
            columns=["repo", "path", "content_sha256", "last_lsn"],
        ).to_pandas()
    finally:
        shutil.rmtree(snap, ignore_errors=True)


def _events_changelog_v1(sf_dir: str):
    """The deterministic events→changelog mapping shared by the
    ``cdc_engine_replay`` oracle family (lazy Dataset, v1 schema)."""
    from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1

    ds = _events(
        sf_dir, columns=["event_id", "user_id", "event_type", "value", "props"]
    )

    def to_changelog(t: pa.Table) -> pa.Table:
        n = t.num_rows
        eid = pc.cast(t.column("event_id"), pa.int64())
        uid = t.column("user_id")
        mod = pc.subtract(uid, pc.multiply(pc.divide(uid, 200), 200))
        repo = pc.binary_join_element_wise(
            pa.array(["u"] * n, pa.string()), pc.cast(mod, pa.string()), ""
        )
        op = pc.if_else(
            pc.less(t.column("value"), pa.scalar(0.15)),
            pa.scalar("DELETE"),
            pa.scalar("UPDATE"),
        )
        return pa.Table.from_arrays(
            [
                eid,
                op,
                repo,
                t.column("event_type"),
                pc.cast(eid, pa.string()),
                t.column("event_type"),
                t.column("props"),
                pa.array(np.ones(n, np.int32)),
                eid,
            ],
            schema=EVENT_SCHEMA_V1,
        )

    return ds.map_batches(
        to_changelog, batch_format="pyarrow", batch_size=None
    )


def _events_engine_snapshot(
    sf_dir: str, snap: str, apply_kwargs: dict | None = None, **engine_kwargs
):
    """Build the deterministic events-derived CdcEngine snapshot used by
    ``q_cdc_engine_replay`` (same mapping, same two epochs) at ``snap``.

    Returns ``(engine, mid)`` where ``mid`` is the epoch-boundary
    watermark, so callers never re-scan events to recompute it."""
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.model import DataModel

    # materialize once: max() + the two epoch filters would otherwise
    # re-execute the parquet read + mapping three times
    changelog = _events_changelog_v1(sf_dir).materialize()
    mid = int(changelog.max("lsn") or 0) // 2
    eng = CdcEngine(snap, DataModel(num_partitions=NP), **engine_kwargs)
    ak = apply_kwargs or {}
    eng.apply_epoch(changelog.filter(expr=f"lsn <= {mid}"), 1, **ak)
    eng.apply_epoch(changelog.filter(expr=f"lsn > {mid}"), 2, **ak)
    return eng, mid


def q_ngram_jaccard_pairs(sf_dir: str):
    """EXACT n-gram Jaccard near-dup pairs via the inverted-index exchange
    (dedup/ngram.py) over a doc_id<150 subset — the exact contract that
    MinHash-LSH approximates, fully SQL-oracled."""
    from arlas_proc_ray.dedup.ngram import ngram_jaccard_pairs

    ds = _docs(sf_dir, columns=["doc_id", "text"]).filter(expr="doc_id < 150")
    return ngram_jaccard_pairs(
        ds, text_col="text", id_col="doc_id", n=5, threshold=0.2,
        num_partitions=8,
    )


def q_train_val_split(sf_dir: str):
    """Deterministic content-hash train/val/test assignment per document
    (stages/sampling.py) — stable across reruns/cluster sizes, and exactly
    reproducible in SQL (same sha256-prefix bucket kernel)."""
    from arlas_proc_ray.stages.sampling import split_by_hash

    ds = _docs(sf_dir, columns=["doc_id"])
    return split_by_hash(
        ds, key_col="doc_id", val_permille=100, test_permille=50
    )


def q_vocab_top_terms(sf_dir: str):
    """Corpus-wide top-50 terms (vocabulary construction): per-batch count
    combiner → keyed sum → per-partition top-k → tiny driver merge."""
    from arlas_proc_ray.functions.text import top_terms

    ds = _docs(sf_dir, columns=["text"])
    return top_terms(ds, text_col="text", k=50)


def q_heavy_hitter_terms(sf_dir: str):
    """Exact top-20 term frequencies via the bounded-memory Misra-Gries
    sketch + broadcast exact-recount pass (stages/sketch.py): per-block
    summaries are capped at ``counters`` rows however large the block
    vocabulary is — the open-vocabulary complement of vocab_top_terms.
    Certified exact on this fixture (escalates rather than degrade)."""
    from arlas_proc_ray.stages.sketch import heavy_hitters_topk

    ds = _docs(sf_dir, columns=["text"], min_parallelism=4)
    return heavy_hitters_topk(ds, text_col="text", k=20, counters=96)


def q_df_term_filter(sf_dir: str):
    """Document-frequency stopword removal: terms present in >30% of the
    corpus are dropped from every document (combiner-first DF count →
    broadcast stop-set → pure-Arrow token rewrite). Order and spelling of
    the surviving tokens are preserved byte-exactly."""
    from arlas_proc_ray.functions.text import df_term_filter

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    out = df_term_filter(ds, text_col="text", max_df_frac=0.3, num_partitions=NP)
    return out.map_batches(
        lambda t: t.select(["doc_id", "text"]),
        batch_format="pyarrow",
        batch_size=None,
    )


def q_redact_text(sf_dir: str):
    """PII-style regex redaction (emails → <EMAIL>, digit runs → <NUM>),
    RE2 on both sides so the oracle matches byte-for-byte."""
    from arlas_proc_ray.functions.text import redact

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    rules = [
        (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+", "<EMAIL>"),
        (r"[0-9]+", "<NUM>"),
    ]

    def fn(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t.column("doc_id"), "redacted": redact(t.column("text"), rules)}
        )

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def q_global_value_rank(sf_dir: str):
    """Exact global row_number over (value, event_id): range-partitioned
    two-pass rank (quantile-bucket counts → prefix offsets → one keyed
    exchange) — no driver-side sort of the data."""
    from arlas_proc_ray.stages.scan import global_rank

    ds = _events(sf_dir, columns=["event_id", "value"])
    return global_rank(ds, order_cols=["value", "event_id"])


def q_training_shuffle(sf_dir: str):
    """Deterministic epoch-seeded global shuffle order for training data
    (stages/sampling.py:training_shuffle — exact global rank of
    sha256(id#epoch): uniform, distinct per epoch, reproducible after a
    crash or on a resized cluster). The catalog entry pins epoch=7 so the
    SQL oracle can embed the same salt."""
    from arlas_proc_ray.stages.sampling import training_shuffle

    ds = _events(sf_dir, columns=["event_id"])
    return training_shuffle(ds, "event_id", shuffle_epoch=7)


def q_value_ntile(sf_dir: str):
    """Equi-depth decile assignment (NTILE(10) OVER (ORDER BY value,
    event_id)) derived from the exact distributed global rank. SQL NTILE
    front-loads the larger buckets: the first n%k buckets get
    floor(n/k)+1 rows, the rest floor(n/k) — pure integer arithmetic on
    the rank, so it matches DuckDB for every n (not just k | n)."""
    from arlas_proc_ray.stages.scan import global_rank

    ds = _events(sf_dir, columns=["event_id", "value"])
    n = ds.count()
    k = 10
    q, rem = divmod(n, k)
    cut = rem * (q + 1)  # last rank (1-based) inside the big buckets
    ranked = global_rank(ds, order_cols=["value", "event_id"])

    def ntile(pdf: pd.DataFrame) -> pd.DataFrame:
        r0 = pdf["rnk"] - 1
        big = r0 // (q + 1) + 1
        small = rem + (r0 - cut) // max(q, 1) + 1
        pdf["decile"] = np.where(r0 < cut, big, small).astype("int64")
        return pdf[["event_id", "value", "decile"]]

    return ranked.map_batches(ntile, batch_format="pandas", batch_size=None)


def q_tpch_q3(sf_dir: str):
    """TPC-H Q3 shape (shipping priority): 3-table join composed scale-first —
    the customer dimension filters via a broadcast semi join (one key
    column broadcast, zero shuffle), lineitem pre-aggregates revenue per
    order INSIDE map_batches (combiner: the shuffle moves one row per
    order per batch, not one per lineitem), and the fact⋈fact equi join
    is the one co-partition exchange. Revenue is exact integer
    cents×(100−disc_pct); the top-10 is a per-batch nlargest combiner
    with a deterministic (revenue desc, orderkey asc) tie-break."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.joins import equi_join
    from arlas_proc_ray.stages.lookup import broadcast_semi_join

    cutoff = pd.Timestamp("1998-01-01")

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    building = (
        cust.filter(pc.equal(cust.column("c_mktsegment"), "BUILDING"))
        .select(["c_custkey"])
        .to_pandas()
        .rename(columns={"c_custkey": "o_custkey"})
    )

    orders = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter_expr=pads.field("o_orderdate") < pa.scalar(cutoff),
    )
    orders = broadcast_semi_join(orders, building, on=["o_custkey"])

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter_expr=pads.field("l_shipdate") > pa.scalar(cutoff),
    )

    def rev_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        price_c = _cents(pdf["l_extendedprice"])
        disc_c = _cents(pdf["l_discount"])  # 0..100
        tmp = pd.DataFrame(
            {
                "o_orderkey": pdf["l_orderkey"].values,
                "rev_c4": (price_c * (100 - disc_c)).values,
            }
        )
        return tmp.groupby("o_orderkey", sort=False).sum().reset_index()

    # whole-block batches: the default 1024-row batches make the
    # combiner see ~1 row per order (keys are scattered) and pay pandas
    # overhead 600x per block
    li_part = li.map_batches(
        rev_partial, batch_format="pandas", batch_size=None
    )

    def final(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(["o_orderkey", "o_orderdate", "o_orderpriority"], sort=False)
        s = g["rev_c4"].sum().reset_index()
        s["revenue"] = s["rev_c4"].values / 10000.0
        s = s.drop(columns=["rev_c4"])
        return s.sort_values(
            ["revenue", "o_orderkey"], ascending=[False, True]
        ).head(10)

    # the final per-order aggregation + local top-10 FUSES into the join
    # partitions (post_fn): the join output is already co-partitioned by
    # o_orderkey, so a separate keyed pass would re-shuffle for nothing
    tops = equi_join(
        li_part,
        orders,
        on=["o_orderkey"],
        right_cols=["o_orderdate", "o_orderpriority"],
        num_partitions=NP,
        post_fn=final,
        exchange="staged",  # sub-crossover volume: skip the sort machinery
    ).to_pandas()  # ≤ 10 rows per partition
    out = tops.sort_values(
        ["revenue", "o_orderkey"], ascending=[False, True]
    ).head(10)
    return out[["o_orderkey", "revenue", "o_orderdate", "o_orderpriority"]].reset_index(
        drop=True
    )


def q_running_user_spend(sf_dir: str):
    """Per-user running total — SUM OVER (PARTITION BY user ORDER BY id
    ROWS UNBOUNDED PRECEDING) — in exact integer cents: one keyed
    exchange, vectorized groupby cumsum (no float-order ambiguity vs
    the SQL oracle)."""
    ds = _events(sf_dir, columns=["event_id", "user_id", "value"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf["spend_cents"] = (
            _cents(pdf["value"]).groupby(pdf["user_id"].values, sort=False).cumsum()
        )
        return pdf

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn, num_partitions=NP
    )


def q_moving_avg_value(sf_dir: str):
    """Bounded-frame window aggregate (ROWS BETWEEN 3 PRECEDING AND
    CURRENT ROW): windowed sum as a cumsum difference in exact integer
    cents; the average is a single int/int double division, which is
    bitwise-identical on both sides."""
    ds = _events(sf_dir, columns=["event_id", "user_id", "value"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf["_c"] = _cents(pdf["value"])
        pdf["_cs"] = pdf.groupby("user_id", sort=False)["_c"].cumsum()
        g = pdf.groupby("user_id", sort=False)
        lag = g["_cs"].shift(4).fillna(0).astype("int64")
        wsum = (pdf["_cs"] - lag).astype("int64")
        cnt = np.minimum(g.cumcount() + 1, 4)
        return pd.DataFrame(
            {
                "event_id": pdf["event_id"].values,
                "user_id": pdf["user_id"].values,
                "wsum_cents": wsum.values,
                "avg4_cents": wsum.values / cnt.values,
            }
        )

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn, num_partitions=NP
    )


def q_orders_above_cust_avg(sf_dir: str):
    """Orders strictly above their customer's average order value.

    Self-referential aggregate + filter in ONE keyed exchange: every
    order of a custkey lands in the same partition, so the per-customer
    mean is an in-partition vectorized transform — no broadcast of a
    customer-sized aggregate, no second pass over the fact table. The
    comparison runs in the exact integer domain (cents × count >
    sum_cents), so no float boundary row can flip vs the SQL oracle."""
    ds = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        c = _cents(pdf["o_totalprice"])
        g = c.groupby(pdf["o_custkey"].values)
        keep = (c * g.transform("size") > g.transform("sum")).values
        return pdf.loc[keep, ["o_orderkey", "o_custkey", "o_totalprice"]]

    return keyed_partition_map(
        ds, keys=["o_custkey"], order_col="o_orderkey", fn=fn, num_partitions=NP
    )


def q_purchase_not_error_users(sf_dir: str):
    """Distinct set difference (EXCEPT) at (user, day) grain: days a
    user purchased without a single error. Both sides reduce to distinct
    keys first (bounded by user×day cardinality, not event count); only
    the already-distinct anti side is collected and broadcast — the big
    side never leaves the cluster."""
    import pyarrow.dataset as pads

    from arlas_proc_ray.stages.setops import distinct, except_keys

    def user_days(event_type: str):
        ds = _events(
            sf_dir,
            columns=["user_id", "ts"],
            filter_expr=pads.field("event_type") == event_type,
        )

        def add_day(pdf: pd.DataFrame) -> pd.DataFrame:
            pdf["day"] = pdf["ts"].dt.strftime("%Y-%m-%d")
            return pdf[["user_id", "day"]]

        days = ds.map_batches(add_day, batch_format="pandas", batch_size=None)
        return distinct(days, ["user_id", "day"], num_partitions=NP)

    err_days = user_days("error").to_pandas()  # small: distinct keys
    return except_keys(user_days("purchase"), err_days, on=["user_id", "day"])


def q_mode_event_type(sf_dir: str):
    """Grouped MODE with a deterministic tie-break (count desc, value
    asc): a per-batch combiner shrinks the one exchange to
    (user, type, partial_count) rows."""
    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(["user_id", "event_type"], sort=False)
        return g.size().rename("cnt").reset_index()

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=None)

    def pick(pdf: pd.DataFrame) -> pd.DataFrame:
        full = (
            pdf.groupby(["user_id", "event_type"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        full = full.sort_values(
            ["user_id", "cnt", "event_type"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        out = full.drop_duplicates(subset=["user_id"], keep="first")
        return pd.DataFrame(
            {
                "user_id": out["user_id"].values,
                "mode_event_type": out["event_type"].values,
                "cnt": out["cnt"].values.astype("int64"),
            }
        )

    return keyed_partition_map(
        partials, keys=["user_id"], order_col="cnt", fn=pick, num_partitions=NP
    )


def q_rolling_zscore_anomaly(sf_dir: str):
    """Windowed anomaly flag per user — |x − mean₈| > 2σ₈ over the
    trailing 8-row frame — decided ENTIRELY in exact integer arithmetic:
    (c·n − S₁)² > 4·(n·S₂ − S₁²) with c in cents, so no float boundary
    can disagree with the SQL oracle. Window sums are cumsum
    differences; one keyed exchange. (2σ, not 3σ: on this near-uniform
    fixture the max in-window deviation is ~1.7σ, so 3σ never fires and
    the flag would be a constant.)"""
    ds = _events(sf_dir, columns=["event_id", "user_id", "value"])
    W = 8

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf["_c"] = _cents(pdf["value"])
        pdf["_c2"] = pdf["_c"] * pdf["_c"]
        g0 = pdf.groupby("user_id", sort=False)
        pdf["_cs1"] = g0["_c"].cumsum()
        pdf["_cs2"] = g0["_c2"].cumsum()
        g = pdf.groupby("user_id", sort=False)
        s1 = (pdf["_cs1"] - g["_cs1"].shift(W).fillna(0)).astype("int64")
        s2 = (pdf["_cs2"] - g["_cs2"].shift(W).fillna(0)).astype("int64")
        n = np.minimum(g.cumcount() + 1, W).astype("int64")
        c = pdf["_c"]
        lhs = (c * n - s1) ** 2
        rhs = 4 * (n * s2 - s1 * s1)
        return pd.DataFrame(
            {
                "event_id": pdf["event_id"].values,
                "user_id": pdf["user_id"].values,
                "value": pdf["value"].values,
                "is_anomaly": (lhs > rhs).values,
            }
        )

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn, num_partitions=NP
    )


def q_lineitem_correlation(sf_dir: str):
    """Grouped Pearson correlation (quantity vs discount per returnflag)
    from exact integer moments — see stages/analytics.py:group_correlation."""
    from arlas_proc_ray.stages.analytics import group_correlation

    ds = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_discount"],
    )

    def to_cents(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": pdf["l_returnflag"].values,
                "qty_c": _cents(pdf["l_quantity"]).values,
                "disc_c": _cents(pdf["l_discount"]).values,
            }
        )

    cents = ds.map_batches(to_cents, batch_format="pandas", batch_size=None)
    return group_correlation(
        cents, group_col="l_returnflag", x_col="qty_c", y_col="disc_c",
        num_partitions=4,
    )


def q_user_lifetime_value(sf_dir: str):
    """Per-user feature profile (the feature-engineering shape a
    training-data pipeline emits): event count, exact total spend,
    first/last activity, distinct active days — one keyed exchange,
    all aggregates vectorized across users in-partition."""
    ds = _events(sf_dir, columns=["event_id", "user_id", "ts", "value"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf["_c"] = _cents(pdf["value"])
        pdf["_day"] = pdf["ts"].dt.strftime("%Y-%m-%d")
        g = pdf.groupby("user_id", sort=False)
        days = (
            pdf.drop_duplicates(["user_id", "_day"])
            .groupby("user_id", sort=False)
            .size()
        )
        out = pd.DataFrame(
            {
                "n_events": g.size().astype("int64"),
                "total_spend": g["_c"].sum() / 100.0,
                "first_ts": g["ts"].min(),
                "last_ts": g["ts"].max(),
                "active_days": days.astype("int64"),
            }
        ).reset_index()
        return out

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn, num_partitions=NP
    )


def q_daily_revenue_delta(sf_dir: str):
    """Period-over-period: daily revenue (exact cents) with the delta vs
    the previous day. Per-batch combiner shrinks the exchange to
    (day, partial_cents); the final day table is bounded by the
    calendar, so the cross-day lag runs on the collected result."""
    ds = _events(sf_dir, columns=["ts", "value"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {
                "day": pdf["ts"].dt.strftime("%Y-%m-%d"),
                "rev_cents": _cents(pdf["value"]).values,
            }
        )
        return tmp.groupby("day", sort=False).sum().reset_index()

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=None)

    def final(pdf: pd.DataFrame) -> pd.DataFrame:
        return (
            pdf.groupby("day", sort=False)["rev_cents"].sum().reset_index()
        )

    days = keyed_partition_map(
        partials, keys=["day"], order_col="rev_cents", fn=final,
        num_partitions=4,
    ).to_pandas()  # bounded: one row per calendar day
    days = days.sort_values("day").reset_index(drop=True)
    days["delta_cents"] = (
        days["rev_cents"] - days["rev_cents"].shift(1).fillna(0)
    ).astype("int64")
    return days


def q_user_session_stats(sf_dir: str):
    """Two keyed operators FUSED into one exchange via ``chain=``:
    (1) sessionize (gap > 43200 s) to per-session rows, (2) per-user
    session statistics — the same key partitioning serves both, so the
    second operator costs zero additional shuffles (stages/keyed.py
    chain contract). Durations are exact integer microseconds; the
    average is int/int double division, bitwise-equal to the oracle."""
    ds = _events(sf_dir, columns=["event_id", "user_id", "ts"])

    def sessions(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("user_id", sort=False)
        prev = g["ts"].shift(1)
        new_session = prev.isna() | (_dur_s(pdf["ts"], prev) > GAP_S)
        tmp = pdf.assign(_seg=new_session.cumsum())
        gb = tmp.groupby("_seg", sort=False)
        dur_us = (
            (gb["ts"].max() - gb["ts"].min())
            .to_numpy()
            .astype("timedelta64[us]")
            .astype("int64")
        )
        return pd.DataFrame(
            {
                "user_id": gb["user_id"].first(),
                # session start id keeps the chain's order_col name so the
                # fused re-sort between stages has its column
                "event_id": gb["event_id"].min().astype("int64"),
                "n_events": gb.size().astype("int64"),
                "dur_us": dur_us,
            }
        ).reset_index(drop=True)

    def stats(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("user_id", sort=False)
        n_sessions = g.size().astype("int64")
        sum_dur = g["dur_us"].sum().astype("int64")
        return pd.DataFrame(
            {
                "n_sessions": n_sessions,
                "total_events": g["n_events"].sum().astype("int64"),
                "max_session_events": g["n_events"].max().astype("int64"),
                "avg_session_s": sum_dur / n_sessions / 1000000.0,
            }
        ).reset_index()

    return keyed_partition_map(
        ds,
        keys=["user_id"],
        order_col="event_id",
        chain=[sessions, stats],
        num_partitions=NP,
    )


def q_rolling_active_users(sf_dir: str):
    """Trailing 7-day active users per day (the WAU product-analytics
    shape). Windowed COUNT(DISTINCT) has no SQL frame form, so both
    sides compute it as coverage fan-out: distinct (user, day) pairs →
    each pair covers days d..d+6 (vectorized ×7 repeat) → exact distinct
    count per covered day. Two exchanges total, both over pair-deduped
    rows (bounded by users × days, not event count)."""
    from arlas_proc_ray.stages.setops import distinct
    from arlas_proc_ray.stages.summarize import grouped_count_distinct

    ds = _events(sf_dir, columns=["user_id", "ts"])

    def to_day(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": pdf["user_id"].values,
                "d": pdf["ts"].dt.normalize().values,
            }
        )

    pairs = distinct(
        ds.map_batches(to_day, batch_format="pandas", batch_size=None),
        ["user_id", "d"],
        num_partitions=NP,
    )

    def fan_out(pdf: pd.DataFrame) -> pd.DataFrame:
        rep = pdf.loc[pdf.index.repeat(7)].reset_index(drop=True)
        offs = np.tile(np.arange(7), len(pdf))
        day = rep["d"] + pd.to_timedelta(offs, unit="D")
        return pd.DataFrame(
            {
                "user_id": rep["user_id"].values,
                "day": day.dt.strftime("%Y-%m-%d").values,
            }
        )

    covered = pairs.map_batches(fan_out, batch_format="pandas", batch_size=None)
    return grouped_count_distinct(
        covered, keys=["day"], value_col="user_id", target="active_users",
        num_partitions=NP,
    )


def q_table_profile(sf_dir: str):
    """Data-profiling operator: per-column row count, null count and
    EXACT distinct count over the events table — the ingest-validation
    shape (schema drift / cardinality checks) run before committing a
    snapshot. One scan emits per-batch (column, repr) pairs ALREADY
    deduped, so the exchange is bounded by per-column cardinality, not
    row count; repr is injective per column type (float repr
    round-trips), so distinct-of-repr == distinct-of-value."""
    from arlas_proc_ray.stages.summarize import grouped_count_distinct

    cols = ["event_id", "ts", "user_id", "event_type", "value", "props"]
    ds = _events(sf_dir, columns=cols)

    def counts(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "col_name": cols,
                "n": np.int64(len(pdf)),
                "n_null": [int(pdf[c].isna().sum()) for c in cols],
            }
        )

    count_partials = ds.map_batches(counts, batch_format="pandas", batch_size=None)

    def total(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("col_name", sort=False, as_index=False)[["n", "n_null"]].sum()
        return g

    totals = keyed_partition_map(
        count_partials, keys=["col_name"], order_col="n", fn=total,
        num_partitions=4,
    ).to_pandas()  # 6 rows

    def pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in cols:
            s = pdf[c].dropna()
            frames.append(
                pd.DataFrame({"col_name": c, "v": s.astype(str).drop_duplicates().values})
            )
        return pd.concat(frames, ignore_index=True)

    distinct = grouped_count_distinct(
        ds.map_batches(pairs, batch_format="pandas", batch_size=None),
        keys=["col_name"], value_col="v", target="n_distinct",
        num_partitions=NP,
    ).to_pandas()  # 6 rows

    out = totals.merge(distinct, on="col_name")
    for c in ("n", "n_null", "n_distinct"):
        out[c] = out[c].astype("int64")
    return out.sort_values("col_name").reset_index(drop=True)


def q_embedding_position_stats(sf_dir: str):
    """Vector-column explode: per-position min/max/count over the
    embedding list column. Each batch reduces the ragged column to ONE
    64-row partial (zero-copy flatten → reshape → axis-0 min/max), so
    the exchange carries dims × blocks rows — never the vectors. min and
    max are order-free, so float parity with SQL is exact."""
    ds = _rp(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def partial(t: pa.Table) -> pd.DataFrame:
        col = t.column("embedding").combine_chunks()
        flat = col.flatten()
        arr = np.asarray(flat).reshape(len(col), -1)
        dims = arr.shape[1]
        return pd.DataFrame(
            {
                "pos": np.arange(1, dims + 1, dtype=np.int64),
                "mn": arr.min(axis=0),
                "mx": arr.max(axis=0),
                "n": np.int64(len(col)),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)

    def combine(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("pos", sort=False)
        return pd.DataFrame(
            {
                "mn": g["mn"].min(),
                "mx": g["mx"].max(),
                "n": g["n"].sum().astype("int64"),
            }
        ).reset_index()

    return keyed_partition_map(
        partials, keys=["pos"], order_col="n", fn=combine, num_partitions=4
    )


def q_value_mad_by_type(sf_dir: str):
    """Robust statistics: per-type median and median-absolute-deviation
    in exact integer cents (DuckDB quantile_disc rule: sorted element at
    ceil(q·n)−1). One keyed exchange; the median gather, the deviation,
    and the MAD gather are all vectorized across the partition's groups
    (the in-partition re-sort of deviations is an O(n log n) mergesort,
    free next to the shuffle it shares)."""
    ds = _events(sf_dir, columns=["event_type", "value"])

    def to_cents(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": pdf["event_type"].values,
                "_c": _cents(pdf["value"]).values,
            }
        )

    cents = ds.map_batches(to_cents, batch_format="pandas", batch_size=None)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("event_type", sort=False)
        sizes = g.size().to_numpy().astype(np.int64)
        firsts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        idx = firsts + np.maximum(np.ceil(0.5 * sizes).astype(np.int64) - 1, 0)
        vals = pdf["_c"].to_numpy()
        med = vals[idx]
        dev = np.abs(vals - np.repeat(med, sizes))
        # groups arrive key-sorted, so re-sorting (key, dev) preserves the
        # same group order and the same firsts/sizes alignment
        tmp = pd.DataFrame({"k": pdf["event_type"].values, "_d": dev})
        dvals = tmp.sort_values(["k", "_d"], kind="mergesort")["_d"].to_numpy()
        out = g.head(1)[["event_type"]].reset_index(drop=True)
        out["med_cents"] = med
        out["mad_cents"] = dvals[idx]
        return out

    return keyed_partition_map(
        cents, keys=["event_type"], order_col="_c", fn=fn, num_partitions=4
    )


def q_inverted_postings(sf_dir: str):
    """Inverted-index build: top-3 postings (tf desc, id asc) per corpus
    term — one keyed exchange carrying (doc, term, tf) rows only."""
    from arlas_proc_ray.functions.text import inverted_postings

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return inverted_postings(ds, k=3)


def q_cdc_change_stats(sf_dir: str):
    """Per-repo change-stream statistics over the SAME deterministic
    events→changelog mapping the flagship replay uses (q_cdc_engine_replay):
    change counts, delete counts, last applied lsn, distinct paths — the
    per-partition lineage/metrics view of the change log, SQL-oracled."""
    ds = _events(sf_dir, columns=["event_id", "user_id", "event_type", "value"])

    def combine(t: pa.Table) -> pa.Table:
        uid = t.column("user_id")
        mod = pc.subtract(uid, pc.multiply(pc.divide(uid, 200), 200))
        repo = pc.binary_join_element_wise(
            pa.array(["u"] * t.num_rows, pa.string()), pc.cast(mod, pa.string()), ""
        )
        pdf = pd.DataFrame(
            {
                "repo": repo.to_pandas().to_numpy(object),
                "path": t.column("event_type").to_pandas().to_numpy(object),
                "lsn": t.column("event_id").to_numpy(),
                "is_del": (t.column("value").to_numpy() < 0.15).astype(np.int64),
            }
        )
        out = pdf.groupby(["repo", "path"], as_index=False, sort=False).agg(
            n=("lsn", "size"), n_del=("is_del", "sum"), last=("lsn", "max")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    partial = ds.map_batches(combine, batch_format="pyarrow", batch_size=None)

    def finalize(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby("repo", as_index=False, sort=False).agg(
            n_changes=("n", "sum"),
            n_deletes=("n_del", "sum"),
            last_lsn=("last", "max"),
            n_paths=("path", "nunique"),
        )

    return keyed_partition_map(
        partial, keys=["repo"], order_col="path", fn=finalize, num_partitions=8
    )


def q_kmeans_clusters(sf_dir: str):
    """Distributed spherical k-means cluster sizes (broadcast-combiner
    Lloyd's, deterministic content-hash init) — rows-only entry; the
    Python oracle replicates the full iteration in tests."""
    import pandas as pd

    from arlas_proc_ray.ann.kmeans import distributed_kmeans, kmeans_assign

    ds = _rp(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    centroids = distributed_kmeans(ds, k=8, n_iter=5)
    assigned = kmeans_assign(ds, centroids)

    def counts(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby("cluster", as_index=False, sort=False).agg(
            n_members=("cluster", "size")
        )

    parts = assigned.map_batches(counts, batch_format="pandas", batch_size=None).to_pandas()
    return (
        parts.groupby("cluster", as_index=False, sort=False)["n_members"]
        .sum()
        .sort_values("cluster")
        .reset_index(drop=True)
    )


def q_semdedup(sf_dir: str):
    """SemDeDup semantic near-dup removal decision per vector (cluster +
    greedy leader keep/drop) — rows-only entry; exact Python oracle in
    tests/test_kmeans_semdedup.py."""
    from arlas_proc_ray.ann.kmeans import semdedup

    ds = _rp(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return semdedup(ds, threshold=0.4, n_clusters=8, n_iter=5)


def q_bm25_scores(sf_dir: str):
    """Okapi BM25 of every document against a fixed query (two passes:
    tiny stats reduce → broadcast-constant vectorized score map)."""
    from arlas_proc_ray.functions.text import bm25_scores

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return bm25_scores(ds, ["batch", "window", "scan", "merge"])


def q_duplicated_spans(sf_dir: str):
    """Exact substring-duplication pairs: documents sharing ≥1 identical
    50-byte span (windowed suffix-dedup contract, dedup/spans.py) with the
    count of distinct shared spans per pair."""
    from arlas_proc_ray.dedup.spans import duplicated_span_pairs

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return duplicated_span_pairs(ds, length=50, num_partitions=8)


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sample: the 20 events with the smallest
    sha256(event_id) per event type — stable across reruns/cluster sizes,
    per-batch top-k combiner before the (tiny) keyed exchange."""
    from arlas_proc_ray.stages.sampling import stratified_sample

    ds = _events(sf_dir, columns=["event_id", "event_type", "value"])
    return stratified_sample(
        ds, group_cols=["event_type"], key_col="event_id", k=20
    )


def q_length_quantile_filter(sf_dir: str):
    """Corpus-length floor filter: drop documents below the EXACT global
    p25 of n_chars. The quantile comes from distributed value-counts
    partials (only (value, count) pairs move), then a stateless filter."""
    from arlas_proc_ray.stages.summarize import global_quantile_disc

    docs = _docs(sf_dir, columns=["doc_id", "n_chars"])
    thr = global_quantile_disc(docs, value_col="n_chars", q=0.25)
    return _docs(sf_dir, columns=["doc_id", "n_chars"]).filter(
        expr=f"n_chars >= {int(thr)}"
    )


def q_group_zscore(sf_dir: str):
    """Per-event-type z-score of value from exact integer-cent moments
    (partial-moment combiner → k-row broadcast stats → stateless
    normalize) — bit-identical to the SQL expression."""
    from arlas_proc_ray.stages.summarize import grouped_zscore

    ds = _events(sf_dir, columns=["event_id", "event_type", "value"])
    return grouped_zscore(ds, keys=["event_type"], value_col="value")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def q_value_quantiles(sf_dir: str):
    """Per-event-type exact discrete quantiles of value (p50/p90) —
    DuckDB quantile_disc rule, one keyed exchange, vectorized gather."""
    from arlas_proc_ray.stages.summarize import grouped_quantile_disc

    ds = _events(sf_dir, columns=["event_type", "value"])
    return grouped_quantile_disc(
        ds, keys=["event_type"], value_col="value",
        quantiles={"p50": 0.5, "p90": 0.9},
    )


def q_distinct_users_per_type(sf_dir: str):
    """Exact distinct-user count per event type with a pre-shuffle pair
    dedup combiner (combiner-before-groupby at scale)."""
    from arlas_proc_ray.stages.summarize import grouped_count_distinct

    ds = _events(sf_dir, columns=["event_type", "user_id"])
    return grouped_count_distinct(
        ds, keys=["event_type"], value_col="user_id", target="n_users"
    )


def q_sequence_packing(sf_dir: str):
    """LLM-training sequence packing: documents assigned to fixed-capacity
    packs by GLOBAL cumulative size (distributed two-pass prefix scan,
    stages/scan.py) — deterministic shard assignment."""
    from arlas_proc_ray.stages.scan import sequence_packing

    ds = _docs(sf_dir, columns=["doc_id", "n_chars"])
    return sequence_packing(
        ds, order_col="doc_id", size_col="n_chars", capacity=8192
    )


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (13-gram overlap vs an eval set — here the
    doc_id<10 docs stand in for the benchmark), broadcast window set."""
    import pyarrow.parquet as pq

    from arlas_proc_ray.dedup.decontaminate import decontaminate

    bench = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        filters=[("doc_id", "<", 10)],
    )
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return decontaminate(ds, bench.column("text").to_pylist(), n=13)


def q_decontaminate_hashed(sf_dir: str):
    """Same decontamination contract through the SCALE broadcast mode
    (``mode="hashed"``: 8-byte code-point Karp-Rabin window hashes, 8 B
    per distinct window instead of raw strings). Deterministically equal
    to the exact mode absent a 64-bit collision, so it shares the exact
    mode's SQL oracle — driver-visible verification of the hashed path."""
    import pyarrow.parquet as pq

    from arlas_proc_ray.dedup.decontaminate import decontaminate

    bench = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        filters=[("doc_id", "<", 10)],
    )
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return decontaminate(
        ds, bench.column("text").to_pylist(), n=13, mode="hashed"
    )


def q_repetition_metrics(sf_dir: str):
    """Gopher-style line-repetition quality signals per document."""
    from arlas_proc_ray.functions.text import repetition_metrics

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(
        lambda t: repetition_metrics(t), batch_format="pyarrow", batch_size=None
    )


def q_time_in_state_per_day(sf_dir: str):
    """Seconds per UTC day in each event_type 'state' (per-user interval
    chain split at midnights, exact integer-µs overlaps)."""
    from arlas_proc_ray.stages.windows import time_in_state_per_day

    ds = _events(sf_dir, columns=["user_id", "ts", "event_type"])
    return time_in_state_per_day(
        ds, keys=["user_id"], ts_col="ts", state_col="event_type",
        num_partitions=NP,
    )


def q_props_field_stats(sf_dir: str):
    """JSON metadata extraction (flat side-column fast path): pull the
    integer field from every event's props via one RE2 pass, then a
    combiner + tiny keyed aggregate per event type."""
    from arlas_proc_ray.functions.text import extract_json_int_field

    ds = _events(sf_dir, columns=["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        return t.append_column(
            "k_val", extract_json_int_field(t.column("props"), "k")
        ).drop_columns(["props"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.dropna(subset=["k_val"]).groupby("event_type", sort=False)
        out = g["k_val"].agg(["count", "sum", "max"]).reset_index()
        out.columns = ["event_type", "n_with_k", "sum_k", "max_k"]
        return out

    partials = ds.map_batches(extract, batch_format="pyarrow", batch_size=None).map_batches(
        partial, batch_format="pandas", batch_size=None
    )

    def merge(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.groupby("event_type", as_index=False, sort=False).agg(
            n_with_k=("n_with_k", "sum"), sum_k=("sum_k", "sum"),
            max_k=("max_k", "max"),
        )
        for c in ("n_with_k", "sum_k", "max_k"):
            out[c] = out[c].astype("int64")
        return out

    return keyed_partition_map(
        partials, keys=["event_type"], order_col="n_with_k", fn=merge,
        num_partitions=4,
    )


def q_user_journeys(sf_dir: str):
    """Per-user ordered event-type path string (path analysis): one keyed
    exchange, vectorized in-partition fold."""
    from arlas_proc_ray.stages.analytics import journey_paths

    ds = _events(sf_dir, columns=["user_id", "event_type", "event_id"])
    return journey_paths(
        ds, key_col="user_id", step_col="event_type", order_col="event_id",
        num_partitions=NP,
    )


def q_lineitem_covariance(sf_dir: str):
    """Population covariance of (quantity, extendedprice-cents) per
    returnflag from exact integer moments — combiner partials, one tiny
    keyed merge, double-from-exact-int final division."""
    from arlas_proc_ray.stages.analytics import group_covariance

    ds = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )

    def ints(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf["q"] = pdf["l_quantity"].astype("int64")
        pdf["cents"] = _cents(pdf["l_extendedprice"])
        return pdf[["l_returnflag", "q", "cents"]]

    return group_covariance(
        ds.map_batches(ints, batch_format="pandas", batch_size=None),
        group_col="l_returnflag", x_col="q", y_col="cents",
        num_partitions=4,
    )


def q_pivot_event_counts(sf_dir: str):
    """Pivot: per-user event-type counts as one column per type —
    combiner-first (≤ |batch users| wide partials per block), one keyed
    exchange regardless of category count."""
    from arlas_proc_ray.stages.analytics import pivot_agg

    ds = _events(sf_dir, columns=["user_id", "event_type"])
    return pivot_agg(
        ds, key_col="user_id", category_col="event_type", value_col="user_id",
        categories=["click", "error", "purchase", "signup", "view"],
        agg="count", num_partitions=NP,
    )


def q_unpivot_lineitem(sf_dir: str):
    """Unpivot/melt: lineitem quantity+price columns into long form —
    a pure per-batch reshape, zero shuffle."""
    from arlas_proc_ray.stages.analytics import unpivot

    ds = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"],
    )
    return unpivot(
        ds, id_cols=["l_orderkey", "l_linenumber"],
        value_cols=["l_quantity", "l_extendedprice"],
        var_name="measure", value_name="value",
    )


def q_rollup_revenue(sf_dir: str):
    """GROUP BY ROLLUP(returnflag, linestatus) with exact integer-cents
    revenue — one finest-level aggregation, coarser levels derived from
    the aggregate (raw data shuffles once for N levels)."""
    from arlas_proc_ray.stages.analytics import rollup_counts

    ds = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_extendedprice"],
    )

    def cents(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf["cents"] = _cents(pdf["l_extendedprice"])
        return pdf[["l_returnflag", "l_linestatus", "cents"]]

    out = rollup_counts(
        ds.map_batches(cents, batch_format="pandas", batch_size=None),
        group_cols=["l_returnflag", "l_linestatus"], cents_col="cents",
        num_partitions=NP,
    )
    out["revenue"] = out.pop("sum_cents") / 100.0
    return out


def q_customer_order_outer(sf_dir: str):
    """Shuffled FULL OUTER equi-join: positive-balance customers × their
    orders — exercises null fabrication in BOTH directions (customers
    without orders keep null order payload; orders of non-positive-
    balance customers keep null customer payload)."""
    from arlas_proc_ray.stages.joins import equi_join

    cust = _rp(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"],
        filter_expr=pc.field("c_acctbal") > 0.0,
    ).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_acctbal"]),
        batch_format="pyarrow", batch_size=None,
    )
    orders = _rp(f"{sf_dir}/orders.parquet",
                 columns=["o_custkey", "o_orderkey", "o_totalprice"])
    out = equi_join(
        cust, orders, on=["o_custkey"],
        right_cols=["o_orderkey", "o_totalprice"], how="outer",
        num_partitions=NP,
        # sub-crossover volume at catalog scale: the two-phase staged
        # exchange beats the Dataset sort below ~1M rows (stages/keyed.py)
        exchange="staged",
    )

    def typed(pdf: pd.DataFrame) -> pd.DataFrame:
        # outer-join payloads are nullable: pin float64 at every sf (a
        # fixture where one side never misses would otherwise stay int64
        # on the oracle side only)
        for c in ("c_acctbal", "o_orderkey", "o_totalprice"):
            pdf[c] = pdf[c].astype("float64")
        return pdf

    return out.map_batches(typed, batch_format="pandas", batch_size=None)


def q_supplier_semi_lineitem(sf_dir: str):
    """Shuffled LEFT SEMI join (no broadcast side): suppliers that appear
    on at least one lineitem; left columns/dtypes only."""
    from arlas_proc_ray.stages.joins import equi_join

    sup = _rp(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name", "s_acctbal"]
    ).map_batches(
        lambda t: t.rename_columns(["l_suppkey", "s_name", "s_acctbal"]),
        batch_format="pyarrow", batch_size=None,
    )
    li = _rp(f"{sf_dir}/lineitem.parquet", columns=["l_suppkey"])
    return equi_join(sup, li, on=["l_suppkey"], right_cols=[], how="semi",
                     num_partitions=NP, exchange="staged")


def q_customer_anti_events(sf_dir: str):
    """Shuffled LEFT ANTI join: customers with no activity in the events
    stream (the orders pair is empty on this fixture — every customer
    has orders — so the anti path is exercised against events)."""
    from arlas_proc_ray.stages.joins import equi_join

    cust = _rp(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda t: t.rename_columns(["user_id", "c_mktsegment"]),
        batch_format="pyarrow", batch_size=None,
    )
    ev = _rp(f"{sf_dir}/events.parquet", columns=["user_id"])
    return equi_join(cust, ev, on=["user_id"], right_cols=[],
                     how="anti", num_partitions=NP, exchange="staged")


def q_equi_join_order_lines(sf_dir: str):
    """Large×large shuffled hash equi-join: every lineitem row enriched
    with its order's customer / date / status — NO broadcast side; both
    tables are exchanged once, co-partitioned on the order key, and merged
    per partition (`stages/joins.py:equi_join`).
    """
    from arlas_proc_ray.stages.joins import equi_join

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"],
    )
    orders = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"],
    ).map_batches(
        lambda t: t.rename_columns(
            ["l_orderkey" if c == "o_orderkey" else c for c in t.column_names]
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
    return equi_join(
        li,
        orders,
        on=["l_orderkey"],
        right_cols=["o_custkey", "o_orderstatus", "o_totalprice"],
        how="inner",
        num_partitions=NP,
        # sub-crossover volume at catalog scale: the two-phase staged
        # exchange beats the Dataset sort below ~1M rows (stages/keyed.py)
        exchange="staged",
    )


def q_resample_hourly_ffill(sf_dir: str):
    """Gap-filled keyed resampling: each user's event stream regularized
    to an hourly grid, forward-filling the last value / event_type
    (`stages/windows.py:resample_ffill`)."""
    from arlas_proc_ray.stages.windows import resample_ffill

    ds = _events(sf_dir, columns=["user_id", "ts", "value", "event_type"])
    out = resample_ffill(
        ds,
        keys=["user_id"],
        ts_col="ts",
        step_s=3600,
        value_cols=["value", "event_type"],
        grid_col="gts",
        num_partitions=NP,
    )
    return out.map_batches(
        lambda t: t.rename_columns(
            [
                {"value": "last_value", "event_type": "last_event_type"}.get(c, c)
                for c in t.column_names
            ]
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def q_snapshot_diff(sf_dir: str):
    """Snapshot diff — the INVERSE of CDC apply (cdc/diff.py): the minimal
    I/U/D changelog between the LWW state of the change stream's first half
    and its second half, computed from the two RAW streams in ONE hash
    co-partition (per-side LWW reduce inside the partition, byte-exact key
    codes, no broadcast). Same events→(repo,path,lsn,content) mapping as
    the flagship ``cdc_engine_replay``."""
    from arlas_proc_ray.cdc.diff import snapshot_diff

    ds = _events(sf_dir, columns=["event_id", "user_id", "event_type", "props"])

    def to_stream(t: pa.Table) -> pa.Table:
        uid = t.column("user_id")
        mod = pc.subtract(uid, pc.multiply(pc.divide(uid, 200), 200))
        repo = pc.binary_join_element_wise(
            pa.array(["u"] * t.num_rows, pa.string()), pc.cast(mod, pa.string()), ""
        )
        return pa.table(
            {
                "repo": repo,
                "path": t.column("event_type"),
                "lsn": pc.cast(t.column("event_id"), pa.int64()),
                "content": t.column("props"),
            }
        )

    stream = ds.map_batches(to_stream, batch_format="pyarrow", batch_size=None)
    mid = int(ds.max("event_id") or 0) // 2
    return snapshot_diff(
        stream.filter(expr=f"lsn <= {mid}"),
        stream.filter(expr=f"lsn > {mid}"),
        key=["repo", "path"],
        compare=["content"],
        lsn_col="lsn",
        num_partitions=NP,
    )


def q_hll_registers(sf_dir: str):
    """HyperLogLog sketch state (stages/sketch.py): per-event_type sparse
    register table for distinct-user cardinality — values never shuffle,
    only (group, bucket, max-rank) partials take the one keyed exchange.
    Register construction is exact integer math on the repo's
    sha256-prefix hash, so DuckDB reproduces it bit-for-bit; the derived
    ESTIMATE's accuracy/mergeability is pinned in tests/test_sketch.py."""
    from arlas_proc_ray.stages.sketch import hll_registers

    ds = _events(sf_dir, columns=["event_type", "user_id"])
    return hll_registers(
        ds, group_col="event_type", value_col="user_id", p=12, num_partitions=NP
    )


def q_skew_safe_join(sf_dir: str):
    """Skew-safe equi-join (stages/joins.py:equi_join_skew_safe): a
    derived key holding ~50% of the left side would make one straggler
    partition in the plain shuffled join; here detect_hot_keys routes
    that key's rows through a broadcast map-side join and only the cold
    tail shuffles. Result is the exact inner join (parity with
    equi_join pinned in tests/test_skew_join.py)."""
    from arlas_proc_ray.stages.joins import equi_join_skew_safe

    ds = _events(sf_dir, columns=["event_id", "user_id", "value"])

    def mk_left(t: pa.Table) -> pa.Table:
        mod = pc.subtract(
            t.column("user_id"),
            pc.multiply(pc.divide(t.column("user_id"), 100), 100),
        )
        k = pc.if_else(pc.less(mod, 50), pa.scalar(0, pa.int64()), mod)
        return pa.table(
            {
                "event_id": pc.cast(t.column("event_id"), pa.int64()),
                "k": pc.cast(k, pa.int64()),
                "value": t.column("value"),
            }
        )

    left = ds.map_batches(mk_left, batch_format="pyarrow", batch_size=None)
    right = rd.from_pandas(
        pd.DataFrame({"k": np.arange(100, dtype=np.int64)}).assign(
            v=lambda d: d["k"] * 7 + 1
        )
    )
    return equi_join_skew_safe(
        left,
        right,
        on=["k"],
        right_cols=["v"],
        num_partitions=NP,
        hot_fraction=0.05,
    )


def q_hist_quantiles(sf_dir: str):
    """Two-pass histogram quantiles (stages/sketch.py): p50/p95/p99 of
    event value per event_type — one scan for [lo,hi], one scan of
    (group,bin) count partials, a tiny keyed exchange; raw values never
    shuffle and the error bound is one bin width. Every float op is
    IEEE-identical to the SQL oracle."""
    from arlas_proc_ray.stages.sketch import histogram_quantiles

    ds = _events(sf_dir, columns=["event_type", "value"])
    return histogram_quantiles(
        ds,
        group_col="event_type",
        value_col="value",
        qs=[0.5, 0.95, 0.99],
        bins=1024,
        num_partitions=NP,
    )


def q_temporal_join(sf_dir: str):
    """Temporal dimension join (cdc/history.py): every changelog event
    paired with the SCD2 version of its key valid AT the event's LSN —
    the "dimension as of transaction time" warehouse pattern, composed
    as keyed as-of join + liveness filter (one co-partition exchange).
    DELETE events land in a closed interval and drop out."""
    from arlas_proc_ray.cdc.history import scd2_history, temporal_join

    ch = _events_changelog(sf_dir)
    versions = scd2_history(
        ch, keys=["repo", "path"], lsn_col="lsn", op_col="op",
        num_partitions=NP,
    ).drop_columns(["is_current"])
    out = temporal_join(
        _events_changelog(sf_dir),
        versions,
        keys=["repo", "path"],
        lsn_col="lsn",
        version_value_cols=["content"],
        num_partitions=NP,
    )
    return out.select_columns(
        ["lsn", "op", "repo", "path", "content_v", "version_from_v"]
    )


def q_event_transitions(sf_dir: str):
    """First-order event-type transition matrix (stages/analytics.py):
    consecutive-event pairs per user in LSN order, counted globally —
    vectorized groupby.shift per partition, only (from, to, n) partials
    cross the second exchange."""
    from arlas_proc_ray.stages.analytics import transition_counts

    ds = _events(sf_dir, columns=["user_id", "event_id", "event_type"])
    return transition_counts(
        ds,
        key_col="user_id",
        order_col="event_id",
        state_col="event_type",
        num_partitions=NP,
    )


def q_changelog_audit(sf_dir: str):
    """Stream-quality audit (cdc/audit.py): per-user out-of-order
    deliveries, duplicate LSNs and sequence gaps — the alerting metrics
    in front of the ingest engine. One keyed exchange, vectorized
    shift/nunique across all keys per partition."""
    from arlas_proc_ray.cdc.audit import changelog_audit

    ds = _events(sf_dir, columns=["user_id", "event_id", "ts"])
    return changelog_audit(
        ds,
        key_col="user_id",
        lsn_col="event_id",
        delivery_order_col="ts",
        num_partitions=NP,
    )


def q_doc_chunks(sf_dir: str):
    """Overlapping document chunking (stages/chunking.py): 32-token
    windows every 24 tokens — a fully vectorized ragged explode inside
    one stateless map_batches (split_pattern + ragged-arange + take +
    binary_join; no keyed exchange, no Python row loop)."""
    from arlas_proc_ray.stages.chunking import chunk_documents

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return chunk_documents(ds, id_col="doc_id", text_col="text", window=32, stride=24)


def q_zorder_values(sf_dir: str):
    """Z-order clustering (stages/zorder.py): lineitem clustered by the
    Morton interleave of (part, supplier) — the z-map is a stateless
    vectorized map_batches and the cluster is Ray's range-partitioned
    sort, the one all-to-all a global reorder requires. Values are exact
    integer math (SQL-reproducible); the locality property of the sorted
    layout is pinned in tests/test_zorder.py."""
    from arlas_proc_ray.stages.zorder import zorder_sort

    ds = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"],
    )
    return zorder_sort(ds, cols=["l_partkey", "l_suppkey"], bits=16).select_columns(
        ["l_orderkey", "l_linenumber", "z_value"]
    )


def _events_changelog(sf_dir: str):
    """events → (lsn, op, repo, path, content) I/U/D stream — the same
    key mapping as the flagship ``cdc_engine_replay`` / ``snapshot_diff``
    fixtures (value < 0.15 marks a delete)."""
    ds = _events(
        sf_dir, columns=["event_id", "user_id", "event_type", "value", "props"]
    )

    def to_changelog(t: pa.Table) -> pa.Table:
        uid = t.column("user_id")
        mod = pc.subtract(uid, pc.multiply(pc.divide(uid, 200), 200))
        repo = pc.binary_join_element_wise(
            pa.array(["u"] * t.num_rows, pa.string()),
            pc.cast(mod, pa.string()),
            "",
        )
        return pa.table(
            {
                "lsn": pc.cast(t.column("event_id"), pa.int64()),
                "op": pc.if_else(
                    pc.less(t.column("value"), pa.scalar(0.15)),
                    pa.scalar("DELETE"),
                    pa.scalar("UPDATE"),
                ),
                "repo": repo,
                "path": t.column("event_type"),
                "content": t.column("props"),
            }
        )

    return ds.map_batches(to_changelog, batch_format="pyarrow", batch_size=None)


_CHANGELOG_SQL = """
          SELECT event_id AS lsn,
                 CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
                 'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
                 event_type AS path,
                 props AS content
          FROM events"""


def q_scd2_history(sf_dir: str):
    """SCD Type-2 version table (cdc/history.py): every non-delete event
    of the changelog with its [valid_from, valid_to) LSN interval — lead
    over the key computed as one vectorized groupby.shift per partition,
    one keyed exchange, nothing on the driver."""
    from arlas_proc_ray.cdc.history import scd2_history

    out = scd2_history(
        _events_changelog(sf_dir),
        keys=["repo", "path"],
        lsn_col="lsn",
        op_col="op",
        num_partitions=NP,
    )

    # driver-compare parity: DuckDB's .df() renders nullable BIGINT as
    # float64; mirror that for the open intervals (the operator itself
    # keeps exact Int64)
    def float_valid_to(t: pa.Table) -> pa.Table:
        i = t.column_names.index("valid_to")
        t = t.set_column(
            i, "valid_to", pc.cast(t.column("valid_to"), pa.float64())
        )
        # the pandas-origin schema metadata still says Int64 — strip it or
        # to_pandas() will faithfully restore the extension dtype
        return t.replace_schema_metadata(None)

    return out.map_batches(float_valid_to, batch_format="pyarrow", batch_size=None)


def q_time_travel_asof(sf_dir: str):
    """As-of-LSN time travel (cdc/history.py): the changelog's state at
    3/4 of the stream — last event per key at or before the cut, deletes
    dropped. Finer-grained than the engine's epoch-fenced
    ``final_state(epoch=)``; the LSN predicate prunes the scan side of
    the one keyed exchange."""
    from arlas_proc_ray.cdc.history import as_of_state

    ds = _events(sf_dir, columns=["event_id"])
    cut = int(ds.max("event_id") or 0) * 3 // 4
    return as_of_state(
        _events_changelog(sf_dir),
        keys=["repo", "path"],
        lsn_col="lsn",
        op_col="op",
        as_of_lsn=cut,
        num_partitions=NP,
    )


def q_funnel_steps(sf_dir: str):
    """Strictly-ordered conversion funnel (stages/analytics.py): per user
    the first view, the first click after that view, and the first
    purchase after that click — one keyed exchange, all per-user mins
    computed as vectorized pandas groupbys across every user in the
    partition at once."""
    from arlas_proc_ray.stages.analytics import funnel

    ds = _events(sf_dir, columns=["user_id", "event_type", "ts"])
    return funnel(
        ds,
        user_col="user_id",
        type_col="event_type",
        ts_col="ts",
        steps=["view", "click", "purchase"],
        num_partitions=NP,
    )


def q_cohort_retention(sf_dir: str):
    """Weekly cohort retention matrix (stages/analytics.py): users
    cohorted by Monday-start week of first event, counted per activity-
    week offset. Users are disjoint across the keyed partitions so the
    per-partition distinct counts sum exactly; only tiny
    (cohort, offset) partials take the second exchange."""
    from arlas_proc_ray.stages.analytics import cohort_retention

    ds = _events(sf_dir, columns=["user_id", "ts"])
    return cohort_retention(
        ds, user_col="user_id", ts_col="ts", num_partitions=NP
    )


def q_bloom_filter_probe(sf_dir: str):
    """Bloom-filter join prefilter (stages/bloom.py): lineitem rows whose
    order key tests positive against a bloom built over URGENT orders.
    The build side collapses to one 16 KiB bitmap per batch (driver ORs
    the partials), the bitmap broadcasts once, and the big side streams
    through it with zero shuffle. Salted sha256-prefix hashing makes the
    survivor set — false positives included — SQL-exact; the end-to-end
    exact semi-join variant is pinned in tests/test_bloom.py."""
    from arlas_proc_ray.stages.bloom import bloom_semi_join

    urgent = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority"],
        filter_expr=pc.field("o_orderpriority") == "1-URGENT",
        min_parallelism=4,
    ).select_columns(["o_orderkey"])
    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"],
        min_parallelism=16,
    )
    return bloom_semi_join(
        li,
        urgent,
        big_key="l_orderkey",
        build_key="o_orderkey",
        num_bits=1 << 17,
        num_hashes=3,
        exact=False,
    )


def q_cms_counters(sf_dir: str):
    """Count-min sketch counter table (stages/sketch.py): per-user_id
    frequency sketch over events — batches collapse to ≤ depth×width
    partials in the combiner, one tiny keyed exchange sums them, the
    raw values never shuffle. Salted sha256-prefix hashing makes every
    cell SQL-exact; the derived min-estimator's overestimate bound and
    merge-by-sum are pinned in tests/test_sketch.py."""
    from arlas_proc_ray.stages.sketch import cms_counters

    ds = _events(sf_dir, columns=["user_id"])
    return cms_counters(ds, value_col="user_id", depth=4, width=1024)


def q_ivm_group_stats(sf_dir: str):
    """Incremental view maintenance (cdc/ivm.py): per-group live count +
    value sum of the state the change stream replays to, computed purely
    from signed I/U/D deltas — the state table is NEVER materialized
    (the DuckDB oracle materializes it; matching proves the delta
    algebra). The group is a content-length bucket, so updates MOVE keys
    between groups and deletions retract them."""
    from arlas_proc_ray.cdc.ivm import incremental_agg_view

    ds = _events(
        sf_dir, columns=["event_id", "user_id", "event_type", "value", "props"]
    )

    def to_changelog(t: pa.Table) -> pa.Table:
        n = t.num_rows
        uid = t.column("user_id")
        mod = pc.subtract(uid, pc.multiply(pc.divide(uid, 200), 200))
        repo = pc.binary_join_element_wise(
            pa.array(["u"] * n, pa.string()), pc.cast(mod, pa.string()), ""
        )
        plen = pc.cast(pc.utf8_length(t.column("props")), pa.int64())
        bucket = pc.divide(plen, pa.scalar(100, pa.int64()))
        grp = pc.binary_join_element_wise(
            pa.array(["len"] * n, pa.string()), pc.cast(bucket, pa.string()), ""
        )
        return pa.table(
            {
                "lsn": pc.cast(t.column("event_id"), pa.int64()),
                "op": pc.if_else(
                    pc.less(t.column("value"), pa.scalar(0.15)),
                    pa.scalar("DELETE"),
                    pa.scalar("UPDATE"),
                ),
                "repo": repo,
                "path": t.column("event_type"),
                "grp": grp,
                "val": plen,
            }
        )

    changelog = ds.map_batches(
        to_changelog, batch_format="pyarrow", batch_size=None
    )
    return incremental_agg_view(
        changelog,
        key=["repo", "path"],
        order_col="lsn",
        op_col="op",
        group_col="grp",
        value_col="val",
        num_partitions=NP,
    )


QUERIES = {
    "df_term_filter": q_df_term_filter,
    "snapshot_diff": q_snapshot_diff,
    "hll_registers": q_hll_registers,
    "cms_counters": q_cms_counters,
    "bloom_filter_probe": q_bloom_filter_probe,
    "funnel_steps": q_funnel_steps,
    "scd2_history": q_scd2_history,
    "zorder_values": q_zorder_values,
    "doc_chunks": q_doc_chunks,
    "changelog_audit": q_changelog_audit,
    "event_transitions": q_event_transitions,
    "temporal_join": q_temporal_join,
    "hist_quantiles": q_hist_quantiles,
    "skew_safe_join": q_skew_safe_join,
    "time_travel_asof": q_time_travel_asof,
    "cohort_retention": q_cohort_retention,
    "ivm_group_stats": q_ivm_group_stats,
    "resample_hourly_ffill": q_resample_hourly_ffill,
    "equi_join_order_lines": q_equi_join_order_lines,
    "customer_order_outer": q_customer_order_outer,
    "pivot_event_counts": q_pivot_event_counts,
    "user_journeys": q_user_journeys,
    "props_field_stats": q_props_field_stats,
    "time_in_state_per_day": q_time_in_state_per_day,
    "value_ntile": q_value_ntile,
    "tpch_q3": q_tpch_q3,
    "running_user_spend": q_running_user_spend,
    "moving_avg_value": q_moving_avg_value,
    "orders_above_cust_avg": q_orders_above_cust_avg,
    "purchase_not_error_users": q_purchase_not_error_users,
    "mode_event_type": q_mode_event_type,
    "rolling_zscore_anomaly": q_rolling_zscore_anomaly,
    "lineitem_correlation": q_lineitem_correlation,
    "user_lifetime_value": q_user_lifetime_value,
    "daily_revenue_delta": q_daily_revenue_delta,
    "user_session_stats": q_user_session_stats,
    "rolling_active_users": q_rolling_active_users,
    "table_profile": q_table_profile,
    "embedding_position_stats": q_embedding_position_stats,
    "value_mad_by_type": q_value_mad_by_type,
    "lineitem_covariance": q_lineitem_covariance,
    "unpivot_lineitem": q_unpivot_lineitem,
    "rollup_revenue": q_rollup_revenue,
    "supplier_semi_lineitem": q_supplier_semi_lineitem,
    "customer_anti_events": q_customer_anti_events,
    "global_value_rank": q_global_value_rank,
    "training_shuffle": q_training_shuffle,
    "inverted_postings": q_inverted_postings,
    "cdc_change_stats": q_cdc_change_stats,
    "kmeans_clusters": q_kmeans_clusters,
    "semdedup": q_semdedup,
    "bm25_scores": q_bm25_scores,
    "duplicated_spans": q_duplicated_spans,
    "stratified_sample": q_stratified_sample,
    "length_quantile_filter": q_length_quantile_filter,
    "group_zscore": q_group_zscore,
    "decontaminate": q_decontaminate,
    "decontaminate_hashed": q_decontaminate_hashed,
    "repetition_metrics": q_repetition_metrics,
    "sequence_packing": q_sequence_packing,
    "value_quantiles": q_value_quantiles,
    "distinct_users_per_type": q_distinct_users_per_type,
    "train_val_split": q_train_val_split,
    "vocab_top_terms": q_vocab_top_terms,
    "heavy_hitter_terms": q_heavy_hitter_terms,
    "redact_text": q_redact_text,
    "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
    "nul_key_segments": q_nul_key_segments,
    "cdc_engine_replay": q_cdc_engine_replay,
    "cdc_autosplit_replay": q_cdc_autosplit_replay,
    "cdc_warm_replay": q_cdc_warm_replay,
    "snapshot_pruned_scan": q_snapshot_pruned_scan,
    "clustered_scan": q_clustered_scan,
    "incremental_feed": q_incremental_feed,
    "cdc_lww_upsert": q_cdc_lww_upsert,
    "dedup_first_per_key": q_dedup_first_per_key,
    "gap_state": q_gap_state,
    "state_id_on_change": q_state_id_on_change,
    "fragments": q_fragments,
    "duration_from_id": q_duration_from_id,
    "run_collapse": q_run_collapse,
    "rolling_median_outlier": q_rolling_median_outlier,
    "sample_id": q_sample_id,
    "visibility_change": q_visibility_change,
    "sessionize": q_sessionize,
    "time_partition_counts": q_time_partition_counts,
    "value_range_filter": q_value_range_filter,
    "tpch_q1": q_tpch_q1,
    "broadcast_enrich": q_broadcast_enrich,
    "topk_orders": q_topk_orders,
    "token_count": q_token_count,
    "doc_dedup_exact": q_doc_dedup_exact,
    "quality_metrics": q_quality_metrics,
    "lang_id": q_lang_id,
    "simhash": q_simhash,
    "fingerprint": q_fingerprint,
    "minhash_near_dup": q_minhash_near_dup,
    "ann_topk": q_ann_topk,
    "embedding_norms": q_embedding_norms,
    "hmm_moving_state": q_hmm_moving_state,
    "segment_revenue": q_segment_revenue,
    "ann_lsh_topk": q_ann_lsh_topk,
    "movement_courses": q_movement_courses,
    "enriched_events": q_enriched_events,
    "char_jaccard": q_char_jaccard,
    "events_period": q_events_period,
    "dedup_documents": q_dedup_documents,
    "tempo": q_tempo,
    "ann_ivf_topk": q_ann_ivf_topk,
    "topk_per_group": q_topk_per_group,
    "brand_revenue": q_brand_revenue,
    "tempo_proportion_collapse": q_tempo_proportion_collapse,
    "embedding_near_dup": q_embedding_near_dup,
    "embedding_near_dup_ivf": q_embedding_near_dup_ivf,
    "quality_filter": q_quality_filter,
    "curation": q_curation,
    "bpe_token_count": q_bpe_token_count,
    "asof_purchase": q_asof_purchase,
    "interval_join_error_span": q_interval_join_error_span,
    "tumbling_daily_value": q_tumbling_daily_value,
    "sliding_window_counts": q_sliding_window_counts,
    "global_range_join": q_global_range_join,
}

_W = "WINDOW w AS (PARTITION BY user_id ORDER BY event_id)"

ORACLE_SQL = {
    "ivm_group_stats": """
        WITH ch AS (
          SELECT event_id AS lsn,
                 CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
                 'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
                 event_type AS path,
                 'len' || CAST(length(props) // 100 AS VARCHAR) AS grp,
                 CAST(length(props) AS BIGINT) AS val
          FROM events),
        last AS (
          SELECT *, row_number() OVER (PARTITION BY repo, path
                                       ORDER BY lsn DESC) AS rn
          FROM ch),
        state AS (SELECT * FROM last WHERE rn = 1 AND op <> 'DELETE')
        SELECT grp,
               CAST(count(*) AS BIGINT) AS n_live,
               CAST(sum(val) AS BIGINT) AS value_sum
        FROM state GROUP BY grp
    """,
    "skew_safe_join": """
        WITH l AS (
          SELECT event_id,
                 CASE WHEN user_id % 100 < 50 THEN 0
                      ELSE user_id % 100 END AS k,
                 value
          FROM events),
        r AS (
          SELECT k, k * 7 + 1 AS v
          FROM (SELECT unnest(generate_series(0, 99)) AS k))
        SELECT l.event_id, l.k, l.value, r.v
        FROM l JOIN r USING (k)
    """,
    "hist_quantiles": """
        WITH mm AS (SELECT min(value) AS lo, max(value) AS hi FROM events),
        b AS (
          SELECT event_type,
                 CAST(LEAST(floor((value - mm.lo) * 1024 / (mm.hi - mm.lo)),
                            1023) AS BIGINT) AS bin
          FROM events, mm WHERE value IS NOT NULL),
        counts AS (
          SELECT event_type, bin, count(*) AS c FROM b GROUP BY 1, 2),
        t AS (SELECT event_type, sum(c) AS n FROM counts GROUP BY 1),
        cum AS (
          SELECT event_type, bin,
                 sum(c) OVER (PARTITION BY event_type ORDER BY bin) AS cum
          FROM counts),
        qq AS (SELECT unnest([0.5, 0.95, 0.99]) AS q),
        sel AS (
          SELECT c.event_type, qq.q, min(c.bin) AS bin
          FROM cum c JOIN t USING (event_type) CROSS JOIN qq
          WHERE c.cum >= ceil(qq.q * t.n)
          GROUP BY 1, 2)
        SELECT event_type, q,
               mm.lo + bin * (mm.hi - mm.lo) / 1024 AS est
        FROM sel, mm
    """,
    "temporal_join": """
        WITH ch AS ({CHANGELOG}),
        d AS (
          SELECT repo, path, content, lsn AS valid_from, valid_to
          FROM (SELECT ch.*,
                       lead(lsn) OVER (PARTITION BY repo, path
                                       ORDER BY lsn) AS valid_to
                FROM ch)
          WHERE op <> 'DELETE')
        SELECT f.lsn, f.op, f.repo, f.path,
               d.content AS content_v,
               CAST(d.valid_from AS DOUBLE) AS version_from_v
        FROM ch f
        JOIN d
          ON f.repo = d.repo AND f.path = d.path
         AND d.valid_from <= f.lsn
         AND (d.valid_to IS NULL OR d.valid_to > f.lsn)
    """.replace("{CHANGELOG}", _CHANGELOG_SQL),
    "event_transitions": """
        WITH o AS (
          SELECT user_id, event_type,
                 lag(event_type) OVER (PARTITION BY user_id
                                       ORDER BY event_id) AS prev_type
          FROM events)
        SELECT prev_type AS from_state,
               event_type AS to_state,
               CAST(count(*) AS BIGINT) AS n
        FROM o WHERE prev_type IS NOT NULL
        GROUP BY from_state, to_state
    """,
    "changelog_audit": """
        WITH o AS (
          SELECT user_id, event_id,
                 lag(event_id) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS prev_id
          FROM events)
        SELECT user_id,
               CAST(count(*) AS BIGINT) AS n_events,
               CAST(sum(CASE WHEN prev_id > event_id THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_ooo,
               min(event_id) AS lsn_min,
               max(event_id) AS lsn_max,
               CAST(count(*) - count(DISTINCT event_id) AS BIGINT)
                 AS n_dup_lsn,
               CAST(max(event_id) - min(event_id) + 1
                    - count(DISTINCT event_id) AS BIGINT) AS lsn_gaps
        FROM o GROUP BY user_id
    """,
    "doc_chunks": """
        WITH t AS (
          SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
        n AS (SELECT doc_id, toks, len(toks) AS n FROM t),
        c AS (
          SELECT doc_id, toks, n,
                 unnest(generate_series(
                   0, GREATEST((n - 32 + 23) // 24, 0))) AS chunk_index
          FROM n)
        SELECT doc_id, chunk_index,
               array_to_string(
                 toks[chunk_index * 24 + 1 : chunk_index * 24 + 32],
                 ' ') AS chunk_text,
               CAST(LEAST(32, n - chunk_index * 24) AS BIGINT) AS n_tokens
        FROM c
    """,
    # row-preserving closed form (no GROUP BY: the synthetic lineitem is
    # not unique on (orderkey, linenumber))
    "zorder_values": """
        WITH q AS (
          SELECT l_orderkey, l_linenumber,
                 l_partkey % 65536 AS x, l_suppkey % 65536 AS y
          FROM lineitem)
        SELECT l_orderkey, l_linenumber,
               CAST(({Z_EXPR}) AS BIGINT) AS z_value
        FROM q
    """.replace(
        "{Z_EXPR}",
        " + ".join(
            f"(((x >> {b}) & 1) << {2 * b}) + (((y >> {b}) & 1) << {2 * b + 1})"
            for b in range(16)
        ),
    ),
    "scd2_history": """
        WITH ch AS ({CHANGELOG}),
        v AS (
          SELECT *, lead(lsn) OVER (PARTITION BY repo, path
                                    ORDER BY lsn) AS valid_to
          FROM ch)
        SELECT repo, path, content,
               lsn AS valid_from,
               valid_to,
               valid_to IS NULL AS is_current
        FROM v WHERE op <> 'DELETE'
    """.replace("{CHANGELOG}", _CHANGELOG_SQL),
    "time_travel_asof": """
        WITH cut AS (SELECT 3 * max(event_id) // 4 AS c FROM events),
        ch AS ({CHANGELOG}),
        last AS (
          SELECT ch.*, row_number() OVER (PARTITION BY repo, path
                                          ORDER BY lsn DESC) AS rn
          FROM ch, cut WHERE lsn <= cut.c)
        SELECT lsn, repo, path, content
        FROM last WHERE rn = 1 AND op <> 'DELETE'
    """.replace("{CHANGELOG}", _CHANGELOG_SQL),
    "funnel_steps": """
        WITH s1 AS (
          SELECT user_id, min(ts) AS view_ts
          FROM events WHERE event_type = 'view' GROUP BY user_id),
        s2 AS (
          SELECT e.user_id, min(e.ts) AS click_ts
          FROM events e JOIN s1 ON e.user_id = s1.user_id
          WHERE e.event_type = 'click' AND e.ts > s1.view_ts
          GROUP BY e.user_id),
        s3 AS (
          SELECT e.user_id, min(e.ts) AS purchase_ts
          FROM events e JOIN s2 ON e.user_id = s2.user_id
          WHERE e.event_type = 'purchase' AND e.ts > s2.click_ts
          GROUP BY e.user_id)
        SELECT s1.user_id, view_ts, click_ts, purchase_ts
        FROM s1
        LEFT JOIN s2 ON s1.user_id = s2.user_id
        LEFT JOIN s3 ON s1.user_id = s3.user_id
    """,
    "cohort_retention": """
        WITH f AS (
          SELECT user_id, date_trunc('week', min(ts)) AS cw
          FROM events GROUP BY user_id),
        a AS (
          SELECT DISTINCT user_id, date_trunc('week', ts) AS aw
          FROM events)
        SELECT CAST(cw AS TIMESTAMP) AS cohort_week,
               CAST(date_diff('day', cw, aw) // 7 AS BIGINT) AS week_offset,
               CAST(count(*) AS BIGINT) AS active_users
        FROM a JOIN f USING (user_id)
        GROUP BY cohort_week, week_offset
    """,
    # Kirsch-Mitzenmacher double hashing: pos_i = (h1 + i*h2) mod m with
    # h1 = hv mod m, h2 = (hv // m) mod m | 1 — one sha256 per key
    "bloom_filter_probe": """
        WITH hr AS (SELECT unnest(generate_series(0, 2)) AS r),
        bh AS (
          SELECT DISTINCT
                 CAST('0x' || substr(sha256(CAST(o_orderkey AS VARCHAR)),
                                     1, 15) AS BIGINT) AS hv
          FROM orders WHERE o_orderpriority = '1-URGENT'),
        bits AS (
          SELECT DISTINCT
                 ((hv % 131072)
                  + hr.r * (((hv // 131072) % 131072) | 1)) % 131072 AS bit
          FROM bh CROSS JOIN hr),
        keys AS (SELECT DISTINCT l_orderkey AS key FROM lineitem),
        ph AS (
          SELECT key,
                 CAST('0x' || substr(sha256(CAST(key AS VARCHAR)),
                                     1, 15) AS BIGINT) AS hv
          FROM keys),
        kh AS (
          SELECT key,
                 ((hv % 131072)
                  + hr.r * (((hv // 131072) % 131072) | 1)) % 131072 AS bit
          FROM ph CROSS JOIN hr),
        pass AS (
          SELECT key FROM kh JOIN bits USING (bit)
          GROUP BY key HAVING count(*) = 3)
        SELECT l_orderkey, l_linenumber, l_quantity
        FROM lineitem JOIN pass ON l_orderkey = pass.key
    """,
    "cms_counters": """
        WITH h AS (
          SELECT CAST('0x' || substr(sha256(CAST(t.r AS VARCHAR) || ':'
                                            || CAST(user_id AS VARCHAR)),
                                     1, 15) AS BIGINT) % 1024 AS cell,
                 t.r AS depth_row
          FROM events
          CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS r) t
          WHERE user_id IS NOT NULL)
        SELECT depth_row, cell, CAST(count(*) AS BIGINT) AS cnt
        FROM h GROUP BY depth_row, cell
    """,
    "hll_registers": """
        WITH h AS (
          SELECT event_type,
                 CAST('0x' || substr(sha256(CAST(user_id AS VARCHAR)), 1, 15)
                      AS BIGINT) AS hv
          FROM events WHERE user_id IS NOT NULL),
        b AS (
          SELECT event_type,
                 hv // 281474976710656 AS bucket,     -- >> 48  (p = 12)
                 hv %  281474976710656 AS rem
          FROM h)
        SELECT event_type, bucket,
               max(CASE WHEN rem = 0 THEN 49
                        ELSE 49 - length(bin(rem)) END) AS register
        FROM b GROUP BY event_type, bucket
    """,
    "snapshot_diff": """
        WITH ch AS (
          SELECT event_id AS lsn,
                 'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
                 event_type AS path,
                 props AS content
          FROM events),
        mid AS (SELECT max(event_id) // 2 AS m FROM events),
        old_last AS (
          SELECT repo, path, content FROM (
            SELECT ch.*, row_number() OVER (PARTITION BY repo, path
                                            ORDER BY lsn DESC) AS rn
            FROM ch, mid WHERE lsn <= mid.m) WHERE rn = 1),
        new_last AS (
          SELECT repo, path, content FROM (
            SELECT ch.*, row_number() OVER (PARTITION BY repo, path
                                            ORDER BY lsn DESC) AS rn
            FROM ch, mid WHERE lsn > mid.m) WHERE rn = 1)
        SELECT coalesce(n.repo, o.repo) AS repo,
               coalesce(n.path, o.path) AS path,
               CASE WHEN n.repo IS NULL THEN o.content
                    ELSE n.content END AS content,
               CASE WHEN o.repo IS NULL THEN 'I'
                    WHEN n.repo IS NULL THEN 'D'
                    ELSE 'U' END AS op
        FROM old_last o
        FULL OUTER JOIN new_last n ON o.repo = n.repo AND o.path = n.path
        WHERE o.repo IS NULL OR n.repo IS NULL
           OR o.content IS DISTINCT FROM n.content
    """,
    "df_term_filter": """
        WITH base AS (
          SELECT doc_id,
                 list_filter(string_split(coalesce(text, ''), ' '),
                             t -> t <> '') AS arr
          FROM documents),
        toks AS (
          SELECT doc_id, unnest(arr) AS term,
                 unnest(generate_series(1, len(arr))) AS pos
          FROM base),
        df AS (SELECT term, count(DISTINCT doc_id) AS df_n
               FROM toks GROUP BY term),
        stop AS (SELECT term FROM df
                 WHERE df_n > 0.3 * (SELECT count(*) FROM documents)),
        kept AS (
          SELECT doc_id, string_agg(term, ' ' ORDER BY pos) AS text2
          FROM toks WHERE term NOT IN (SELECT term FROM stop)
          GROUP BY doc_id)
        SELECT d.doc_id, coalesce(k.text2, '') AS text
        FROM documents d LEFT JOIN kept k USING (doc_id)
    """,
    "resample_hourly_ffill": """
        WITH b AS (
          SELECT user_id,
                 CAST(ceil(epoch_us(min(ts)) / 3600000000.0) AS BIGINT) AS k0,
                 CAST(floor(epoch_us(max(ts)) / 3600000000.0) AS BIGINT) AS k1
          FROM events GROUP BY user_id),
        grid AS (
          SELECT user_id,
                 make_timestamp(unnest(generate_series(k0, k1)) * 3600000000)
                   AS gts
          FROM b WHERE k1 >= k0)
        SELECT g.user_id, g.gts, e.value AS last_value,
               e.event_type AS last_event_type
        FROM grid g ASOF JOIN events e
          ON g.user_id = e.user_id AND g.gts >= e.ts
    """,
    "equi_join_order_lines": """
        SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice,
               o_custkey, o_orderstatus, o_totalprice
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    """,
    "value_ntile": """
        SELECT event_id, value,
               CAST(ntile(10) OVER (ORDER BY value, event_id) AS BIGINT)
                 AS decile
        FROM events
    """,
    "tpch_q3": """
        WITH li AS (
          SELECT l_orderkey AS o_orderkey,
                 sum(CAST(round(l_extendedprice * 100) AS BIGINT) *
                     (100 - CAST(round(l_discount * 100) AS BIGINT))) AS rev_c4
          FROM lineitem
          WHERE l_shipdate > TIMESTAMP '1998-01-01'
          GROUP BY 1)
        SELECT o.o_orderkey,
               CAST(li.rev_c4 AS DOUBLE) / 10000.0 AS revenue,
               o.o_orderdate, o.o_orderpriority
        FROM orders o
        JOIN li USING (o_orderkey)
        JOIN customer c ON c.c_custkey = o.o_custkey
        WHERE c.c_mktsegment = 'BUILDING'
          AND o.o_orderdate < TIMESTAMP '1998-01-01'
        ORDER BY revenue DESC, o_orderkey ASC
        LIMIT 10
    """,
    "running_user_spend": """
        SELECT event_id, user_id, value,
               CAST(sum(CAST(round(value * 100) AS BIGINT))
                      OVER (PARTITION BY user_id ORDER BY event_id
                            ROWS UNBOUNDED PRECEDING) AS BIGINT)
                 AS spend_cents
        FROM events
    """,
    "moving_avg_value": """
        WITH c AS (SELECT event_id, user_id,
                          CAST(round(value * 100) AS BIGINT) AS c
                   FROM events)
        SELECT event_id, user_id,
               CAST(sum(c) OVER w4 AS BIGINT) AS wsum_cents,
               CAST(CAST(sum(c) OVER w4 AS BIGINT) AS DOUBLE)
                 / count(*) OVER w4 AS avg4_cents
        FROM c
        WINDOW w4 AS (PARTITION BY user_id ORDER BY event_id
                      ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
    """,
    "orders_above_cust_avg": """
        WITH agg AS (
          SELECT o_custkey,
                 sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS sum_c,
                 count(*) AS cnt
          FROM orders GROUP BY o_custkey)
        SELECT o_orderkey, o_custkey, o_totalprice
        FROM orders JOIN agg USING (o_custkey)
        WHERE CAST(round(o_totalprice * 100) AS BIGINT) * cnt > sum_c
    """,
    "purchase_not_error_users": """
        SELECT DISTINCT user_id, strftime(ts, '%Y-%m-%d') AS day
        FROM events WHERE event_type = 'purchase'
        EXCEPT
        SELECT DISTINCT user_id, strftime(ts, '%Y-%m-%d') AS day
        FROM events WHERE event_type = 'error'
    """,
    "mode_event_type": """
        WITH c AS (SELECT user_id, event_type, count(*) AS cnt
                   FROM events GROUP BY 1, 2)
        SELECT user_id, event_type AS mode_event_type, cnt
        FROM (SELECT *, row_number() OVER (PARTITION BY user_id
                                           ORDER BY cnt DESC,
                                                    event_type ASC) AS rn
              FROM c)
        WHERE rn = 1
    """,
    "value_mad_by_type": """
        WITH c AS (SELECT event_type,
                          CAST(round(value * 100) AS BIGINT) AS c
                   FROM events),
        m AS (SELECT event_type, quantile_disc(c, 0.5) AS med_cents
              FROM c GROUP BY 1)
        SELECT c.event_type, m.med_cents,
               quantile_disc(abs(c.c - m.med_cents), 0.5) AS mad_cents
        FROM c JOIN m USING (event_type)
        GROUP BY c.event_type, m.med_cents
    """,
    "embedding_position_stats": """
        SELECT CAST(i AS BIGINT) AS pos,
               min(embedding[i]) AS mn,
               max(embedding[i]) AS mx,
               count(*) AS n
        FROM embeddings, range(1, 65) t(i)
        GROUP BY 1
    """,
    "table_profile": """
        SELECT col_name, n, n_null, n_distinct FROM (
          SELECT 'event_id' AS col_name, count(*) AS n,
                 count(*) - count(event_id) AS n_null,
                 count(DISTINCT event_id) AS n_distinct FROM events
          UNION ALL
          SELECT 'ts', count(*), count(*) - count(ts),
                 count(DISTINCT ts) FROM events
          UNION ALL
          SELECT 'user_id', count(*), count(*) - count(user_id),
                 count(DISTINCT user_id) FROM events
          UNION ALL
          SELECT 'event_type', count(*), count(*) - count(event_type),
                 count(DISTINCT event_type) FROM events
          UNION ALL
          SELECT 'value', count(*), count(*) - count(value),
                 count(DISTINCT value) FROM events
          UNION ALL
          SELECT 'props', count(*), count(*) - count(props),
                 count(DISTINCT props) FROM events)
        ORDER BY col_name
    """,
    "rolling_active_users": """
        WITH p AS (SELECT DISTINCT user_id, CAST(ts AS DATE) AS d
                   FROM events),
        f AS (SELECT DISTINCT user_id,
                     strftime(d + to_days(CAST(i AS INT)), '%Y-%m-%d') AS day
              FROM p, range(7) t(i))
        SELECT day, count(*) AS active_users
        FROM f GROUP BY day
    """,
    "user_session_stats": f"""
        WITH o AS (
          SELECT user_id, event_id, ts,
                 CASE WHEN lag(ts) OVER w IS NULL
                       OR date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0 > 43200
                      THEN 1 ELSE 0 END AS brk
          FROM events {_W}),
        s AS (
          SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY event_id
                                   ROWS UNBOUNDED PRECEDING) AS seg
          FROM o),
        sess AS (
          SELECT user_id, count(*) AS n_events,
                 date_diff('microsecond', min(ts), max(ts)) AS dur_us
          FROM s GROUP BY user_id, seg)
        SELECT user_id,
               count(*) AS n_sessions,
               CAST(sum(n_events) AS BIGINT) AS total_events,
               CAST(max(n_events) AS BIGINT) AS max_session_events,
               CAST(sum(dur_us) AS BIGINT) / count(*) / 1000000.0
                 AS avg_session_s
        FROM sess GROUP BY user_id
    """,
    "user_lifetime_value": """
        SELECT user_id,
               count(*) AS n_events,
               CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                 / 100.0 AS total_spend,
               min(ts) AS first_ts, max(ts) AS last_ts,
               count(DISTINCT strftime(ts, '%Y-%m-%d')) AS active_days
        FROM events GROUP BY user_id
    """,
    "daily_revenue_delta": """
        WITH d AS (
          SELECT strftime(ts, '%Y-%m-%d') AS day,
                 CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                   AS rev_cents
          FROM events GROUP BY 1)
        SELECT day, rev_cents,
               rev_cents - coalesce(lag(rev_cents) OVER (ORDER BY day), 0)
                 AS delta_cents
        FROM d
    """,
    "rolling_zscore_anomaly": """
        WITH c AS (SELECT event_id, user_id, value,
                          CAST(round(value * 100) AS BIGINT) AS c
                   FROM events),
        w AS (SELECT event_id, user_id, value, c,
                     sum(c) OVER w8 AS s1,
                     sum(c * c) OVER w8 AS s2,
                     count(*) OVER w8 AS n
              FROM c
              WINDOW w8 AS (PARTITION BY user_id ORDER BY event_id
                            ROWS BETWEEN 7 PRECEDING AND CURRENT ROW))
        SELECT event_id, user_id, value,
               (c * n - s1) * (c * n - s1) > 4 * (n * s2 - s1 * s1)
                 AS is_anomaly
        FROM w
    """,
    "lineitem_correlation": """
        WITH c AS (SELECT l_returnflag,
                          CAST(round(l_quantity * 100) AS BIGINT) AS x,
                          CAST(round(l_discount * 100) AS BIGINT) AS y
                   FROM lineitem),
        m AS (SELECT l_returnflag, count(*) AS n,
                     sum(x) AS sx, sum(y) AS sy, sum(x * y) AS sxy,
                     sum(x * x) AS sxx, sum(y * y) AS syy
              FROM c GROUP BY 1)
        SELECT l_returnflag, CAST(n AS BIGINT) AS n,
               CAST(n * sxy - sx * sy AS DOUBLE)
                 / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                        * CAST(n * syy - sy * sy AS DOUBLE)) AS corr
        FROM m
    """,
    "time_in_state_per_day": """
        WITH iv AS (
          SELECT event_type AS state,
                 epoch_us(ts) AS s,
                 lead(epoch_us(ts)) OVER (PARTITION BY user_id
                                          ORDER BY ts) AS e
          FROM events
          QUALIFY e IS NOT NULL
        ),
        ex AS (
          SELECT state,
                 unnest(generate_series(s // 86400000000,
                                        (e - 1) // 86400000000)) AS day_idx,
                 s, e
          FROM iv
        )
        SELECT to_timestamp((day_idx * 86400)::BIGINT)::TIMESTAMP AS day,
               state,
               sum(least(e, (day_idx + 1) * 86400000000)
                   - greatest(s, day_idx * 86400000000)) / 1e6 AS total_s
        FROM ex GROUP BY day_idx, state
    """,
    "props_field_stats": """
        WITH x AS (
          SELECT event_type,
                 CAST(NULLIF(regexp_extract(props,
                        '"k"\\s*:\\s*(-?\\d+)', 1), '') AS BIGINT) AS k_val
          FROM events)
        SELECT event_type,
               CAST(count(k_val) AS BIGINT) AS n_with_k,
               CAST(sum(k_val) AS BIGINT) AS sum_k,
               CAST(max(k_val) AS BIGINT) AS max_k
        FROM x WHERE k_val IS NOT NULL
        GROUP BY event_type
    """,
    "user_journeys": """
        SELECT user_id,
               string_agg(event_type, '>' ORDER BY event_id) AS journey,
               count(*) AS n_steps
        FROM events GROUP BY user_id
    """,
    "lineitem_covariance": """
        WITH m AS (
          SELECT l_returnflag,
                 count(*) AS n,
                 sum(CAST(l_quantity AS BIGINT)) AS sx,
                 sum(cast(round(l_extendedprice * 100) AS BIGINT)) AS sy,
                 sum(CAST(l_quantity AS BIGINT)
                     * cast(round(l_extendedprice * 100) AS BIGINT)) AS sxy
          FROM lineitem GROUP BY l_returnflag)
        SELECT l_returnflag, n,
               CAST(n * sxy - sx * sy AS DOUBLE)
                 / CAST(n * n AS DOUBLE) AS cov_pop
        FROM m
    """,
    "pivot_event_counts": """
        SELECT user_id,
               CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT)
                 AS event_type_click,
               CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT)
                 AS event_type_error,
               CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT)
                 AS event_type_purchase,
               CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT)
                 AS event_type_signup,
               CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT)
                 AS event_type_view
        FROM events GROUP BY user_id
    """,
    "unpivot_lineitem": """
        SELECT l_orderkey, l_linenumber,
               'l_quantity' AS measure, l_quantity AS value
        FROM lineitem
        UNION ALL
        SELECT l_orderkey, l_linenumber,
               'l_extendedprice' AS measure, l_extendedprice AS value
        FROM lineitem
    """,
    "rollup_revenue": """
        SELECT l_returnflag, l_linestatus,
               count(*) AS n_rows,
               sum(cast(round(l_extendedprice * 100) AS BIGINT)) / 100.0
                 AS revenue
        FROM lineitem
        GROUP BY ROLLUP (l_returnflag, l_linestatus)
    """,
    "customer_order_outer": """
        SELECT coalesce(c.c_custkey, o.o_custkey) AS o_custkey,
               c.c_acctbal,
               CAST(o.o_orderkey AS DOUBLE) AS o_orderkey,
               o.o_totalprice
        FROM (SELECT c_custkey, c_acctbal FROM customer
              WHERE c_acctbal > 0) c
        FULL OUTER JOIN orders o ON o.o_custkey = c.c_custkey
    """,
    "supplier_semi_lineitem": """
        SELECT s_suppkey AS l_suppkey, s_name, s_acctbal FROM supplier s
        WHERE EXISTS (SELECT 1 FROM lineitem l
                      WHERE l.l_suppkey = s.s_suppkey)
    """,
    "customer_anti_events": """
        SELECT c_custkey AS user_id, c_mktsegment FROM customer c
        WHERE NOT EXISTS (SELECT 1 FROM events e
                          WHERE e.user_id = c.c_custkey)
    """,
    "cdc_lww_upsert": """
        SELECT user_id, event_type, event_id AS last_event_id, ts AS last_ts,
               value AS last_value, sha256(props) AS props_sha256
        FROM (SELECT *, row_number() OVER (PARTITION BY user_id, event_type
                                           ORDER BY event_id DESC) AS rn
              FROM events)
        WHERE rn = 1 AND value >= 0.05
    """,
    "dedup_first_per_key": """
        SELECT user_id, event_type, event_id AS first_event_id,
               value AS first_value
        FROM (SELECT *, row_number() OVER (PARTITION BY user_id, event_type
                                           ORDER BY event_id ASC) AS rn
              FROM events)
        WHERE rn = 1
    """,
    "gap_state": f"""
        SELECT event_id, user_id,
               date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0 AS duration_s,
               CASE WHEN date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0 > 43200
                    THEN 'GAP' ELSE 'NOTGAP' END AS gap_state
        FROM events {_W}
    """,
    "state_id_on_change": f"""
        WITH chg AS (
          SELECT event_id, user_id, event_type,
                 CASE WHEN lag(event_type) OVER w IS DISTINCT FROM event_type
                      THEN 1 ELSE 0 END AS brk
          FROM events {_W}),
        seg AS (
          SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY event_id
                                   ROWS UNBOUNDED PRECEDING) AS s
          FROM chg)
        SELECT event_id, user_id, event_type,
               cast(user_id AS VARCHAR) || '#' ||
               cast(min(event_id) OVER (PARTITION BY user_id, s) AS VARCHAR)
                 AS state_id
        FROM seg
    """,
    "fragments": f"""
        SELECT cast(user_id AS VARCHAR) || '#' ||
                 cast(lag(event_id) OVER w AS VARCHAR) || '_' ||
                 cast(event_id AS VARCHAR) AS fragment_id,
               user_id,
               lag(ts) OVER w AS t_start,
               ts AS t_end,
               date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0 AS duration_s,
               value - lag(value) OVER w AS value_delta,
               (value + lag(value) OVER w) / 2.0 AS value_avg,
               2 AS nb_points
        FROM events {_W}
        QUALIFY lag(ts) OVER w IS NOT NULL
    """,
    "duration_from_id": """
        SELECT user_id, count(*) AS n_events,
               date_diff('microsecond', min(ts), max(ts)) / 1000000.0 AS span_s
        FROM events GROUP BY user_id
    """,
    "run_collapse": f"""
        WITH chg AS (
          SELECT *, CASE WHEN lag(event_type) OVER w IS DISTINCT FROM event_type
                         THEN 1 ELSE 0 END AS brk
          FROM events {_W}),
        seg AS (
          SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY event_id
                                   ROWS UNBOUNDED PRECEDING) AS s
          FROM chg)
        SELECT user_id, min(event_id) AS event_id, 'view' AS event_type,
               count(*) AS n_rows,
               sum(cast(round(value*100) AS BIGINT)) / 100.0 AS value_sum,
               min(ts) AS t_start, max(ts) AS t_end
        FROM seg WHERE event_type = 'view' GROUP BY user_id, s
        UNION ALL
        SELECT user_id, event_id, event_type, 1 AS n_rows,
               cast(round(value*100) AS BIGINT) / 100.0 AS value_sum,
               ts AS t_start, ts AS t_end
        FROM events WHERE event_type <> 'view'
    """,
    "rolling_median_outlier": f"""
        SELECT event_id, user_id, value,
               round(median(value) OVER (PARTITION BY user_id ORDER BY event_id
                     ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING), 6)
                 AS rolling_median,
               abs(value - median(value) OVER (PARTITION BY user_id
                     ORDER BY event_id
                     ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING)) > 5.0
                 AS is_outlier
        FROM events
    """,
    "sample_id": f"""
        WITH d AS (
          SELECT event_id, user_id,
                 coalesce(date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0, 0.0) AS duration_s
          FROM events {_W})
        SELECT event_id, user_id, duration_s,
               cast(floor((sum(duration_s) OVER (PARTITION BY user_id
                      ORDER BY event_id ROWS UNBOUNDED PRECEDING) - 1) / 86400.0)
                    - floor((duration_s - 1) / 86400.0) AS BIGINT) AS sample_seq
        FROM d
    """,
    "visibility_change": f"""
        WITH v AS (
          SELECT event_id, user_id,
                 CASE WHEN value >= 1.0 THEN 1 ELSE 0 END AS visible
          FROM events)
        SELECT event_id, user_id, visible,
               CASE
                 WHEN visible = 1
                      AND coalesce(lag(visible)  OVER w2, 0) = 0
                      AND coalesce(lead(visible) OVER w2, 0) = 0
                   THEN 'APPEAR_DISAPPEAR'
                 WHEN visible = 1 AND coalesce(lag(visible) OVER w2, 0) = 0
                   THEN 'APPEAR'
                 WHEN visible = 1 AND coalesce(lead(visible) OVER w2, 0) = 0
                   THEN 'DISAPPEAR'
                 ELSE NULL
               END AS visibility_change
        FROM v WINDOW w2 AS (PARTITION BY user_id ORDER BY event_id)
    """,
    "sessionize": f"""
        WITH o AS (
          SELECT user_id, event_id, ts, value,
                 CASE WHEN lag(ts) OVER w IS NULL
                       OR date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0 > 43200
                      THEN 1 ELSE 0 END AS brk
          FROM events {_W}),
        s AS (
          SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY event_id
                                   ROWS UNBOUNDED PRECEDING) AS seg
          FROM o)
        SELECT user_id,
               cast(user_id AS VARCHAR) || '#' || cast(min(event_id) AS VARCHAR)
                 AS session_id,
               count(*) AS n_events, min(ts) AS t_start, max(ts) AS t_end,
               sum(cast(round(value*100) AS BIGINT)) / 100.0 AS value_sum
        FROM s GROUP BY user_id, seg
    """,
    "time_partition_counts": """
        SELECT cast(strftime(ts, '%Y%m%d') AS INT) AS time_partition,
               count(*) AS n_events,
               sum(cast(round(value*100) AS BIGINT)) / 100.0 AS value_sum
        FROM events GROUP BY 1
    """,
    "value_range_filter": """
        SELECT event_id, user_id, value FROM events
        WHERE value >= 1.0 AND value <= 100.0
    """,
    "tpch_q1": """
        SELECT l_returnflag, l_linestatus,
               sum(cast(round(l_quantity*100) AS BIGINT)) / 100.0 AS sum_qty,
               sum(cast(round(l_extendedprice*100) AS BIGINT)) / 100.0
                 AS sum_base_price,
               sum(cast(round(l_extendedprice*100) AS BIGINT)
                   * (100 - cast(round(l_discount*100) AS BIGINT))) / 10000.0
                 AS sum_disc_price,
               sum(cast(round(l_extendedprice*100) AS BIGINT)
                   * (100 - cast(round(l_discount*100) AS BIGINT))
                   * (100 + cast(round(l_tax*100) AS BIGINT))) / 1000000.0
                 AS sum_charge,
               (sum(cast(round(l_quantity*100) AS BIGINT)) / 100.0) / count(*)
                 AS avg_qty,
               (sum(cast(round(l_extendedprice*100) AS BIGINT)) / 100.0) / count(*)
                 AS avg_price,
               (sum(cast(round(l_discount*100) AS BIGINT)) / 100.0) / count(*)
                 AS avg_disc,
               count(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
    """,
    "broadcast_enrich": """
        SELECT c_custkey, c_name, n_name, r_name
        FROM customer
        LEFT JOIN nation ON c_nationkey = n_nationkey
        LEFT JOIN region ON n_regionkey = r_regionkey
    """,
    "topk_orders": """
        SELECT o_orderkey, o_custkey, o_totalprice
        FROM orders
        ORDER BY o_totalprice DESC, o_orderkey ASC
        LIMIT 10
    """,
    "token_count": r"""
        SELECT doc_id,
               CASE WHEN text IS NULL OR trim(text) = '' THEN 0
                    ELSE len(regexp_split_to_array(trim(text), '\s+')) END
                 AS n_tokens
        FROM documents
    """,
    "doc_dedup_exact": """
        SELECT sha256(text) AS text_sha256, min(doc_id) AS doc_id,
               count(*) AS n_dups
        FROM documents GROUP BY sha256(text)
    """,
    "quality_metrics": r"""
        SELECT doc_id,
               length(text) AS n_chars_m,
               CASE WHEN text IS NULL OR trim(text) = '' THEN 0
                    ELSE len(regexp_split_to_array(trim(text), '\s+')) END
                 AS n_tokens,
               round((length(text) -
                      length(regexp_replace(text, '[.,!?;:]', '', 'g')))
                     / cast(greatest(length(text), 1) AS DOUBLE), 6)
                 AS punct_ratio,
               round(length(regexp_replace(text, '\s+', '', 'g'))
                     / cast(greatest(
                         CASE WHEN text IS NULL OR trim(text) = '' THEN 0
                              ELSE len(regexp_split_to_array(trim(text), '\s+'))
                         END, 1) AS DOUBLE), 6)
                 AS mean_token_len
        FROM documents
    """,
    "ann_topk": """
        WITH d AS (SELECT vec_id,
                          list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
                   FROM embeddings)
        SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
               round(list_cosine_similarity(q.emb, e.emb), 6) AS cos_sim
        FROM d e
        CROSS JOIN (SELECT * FROM d WHERE vec_id < 5) q
        QUALIFY row_number() OVER (
            PARTITION BY q.vec_id
            ORDER BY list_cosine_similarity(q.emb, e.emb) DESC,
                     e.vec_id ASC) <= 3
    """,
    "embedding_norms": """
        SELECT vec_id,
               round(sqrt(list_sum(list_transform(embedding,
                     x -> cast(x AS DOUBLE) * cast(x AS DOUBLE)))), 6)
                 AS l2_norm
        FROM embeddings
    """,
    "char_jaccard": """
        SELECT d.doc_id,
               round(jaccard(d.text, (SELECT text FROM documents WHERE doc_id = 0)), 6)
                 AS jac
        FROM documents d
    """,
    "events_period": """
        SELECT event_id, user_id, ts, value FROM events
        WHERE ts >= TIMESTAMP '2024-01-10' AND ts < TIMESTAMP '2024-01-20'
    """,
    "topk_per_group": """
        SELECT l_orderkey, l_linenumber, l_returnflag, l_linestatus,
               l_extendedprice
        FROM lineitem
        QUALIFY row_number() OVER (
            PARTITION BY l_returnflag, l_linestatus
            ORDER BY l_extendedprice DESC, l_orderkey ASC, l_linenumber ASC
        ) <= 2
    """,
    "brand_revenue": """
        SELECT p_brand, count(*) AS n_items,
               sum(cast(round(l_extendedprice*100) AS BIGINT)
                   * (100 - cast(round(l_discount*100) AS BIGINT))) / 10000.0
                 AS revenue
        FROM lineitem JOIN part ON l_partkey = p_partkey
        GROUP BY p_brand
    """,
    "segment_revenue": """
        SELECT c_mktsegment, count(*) AS n_orders,
               sum(cast(round(o_totalprice*100) AS BIGINT)) / 100.0 AS revenue
        FROM orders JOIN customer ON o_custkey = c_custkey
        GROUP BY c_mktsegment
    """,
    "tempo_proportion_collapse": """
        WITH d AS (
          SELECT user_id, event_id,
                 date_diff('microsecond',
                           lag(ts) OVER (PARTITION BY user_id ORDER BY event_id),
                           ts) AS dur_us
          FROM events
        ), t AS (
          SELECT user_id,
                 COALESCE(dur_us, 0) AS dur0,
                 CASE WHEN dur_us IS NULL THEN 'tempo_irregular'
                      WHEN dur_us < 3600000000 THEN 'tempo_fast'
                      WHEN dur_us < 43200000000 THEN 'tempo_medium'
                      ELSE 'tempo_slow' END AS tempo
          FROM d
        ), p AS (
          SELECT user_id,
                 count(*) AS n_events,
                 sum(dur0) / 1000000.0 AS duration_total_s,
                 sum(CASE WHEN tempo='tempo_fast' THEN dur0 ELSE 0 END) * 1.0
                   / NULLIF(sum(dur0), 0) AS tempo_fast_proportion,
                 sum(CASE WHEN tempo='tempo_medium' THEN dur0 ELSE 0 END) * 1.0
                   / NULLIF(sum(dur0), 0) AS tempo_medium_proportion,
                 sum(CASE WHEN tempo='tempo_slow' THEN dur0 ELSE 0 END) * 1.0
                   / NULLIF(sum(dur0), 0) AS tempo_slow_proportion,
                 sum(CASE WHEN tempo='tempo_irregular' THEN dur0 ELSE 0 END) * 1.0
                   / NULLIF(sum(dur0), 0) AS tempo_irregular_proportion
          FROM t GROUP BY user_id
        )
        SELECT user_id,
               tempo_fast_proportion, tempo_medium_proportion,
               tempo_slow_proportion, tempo_irregular_proportion,
               CASE WHEN greatest(tempo_fast_proportion,
                                  tempo_medium_proportion,
                                  tempo_slow_proportion) IS NULL
                      OR greatest(tempo_fast_proportion,
                                  tempo_medium_proportion,
                                  tempo_slow_proportion) = 0
                    THEN 'tempo_irregular'
                    WHEN tempo_fast_proportion = greatest(
                         tempo_fast_proportion, tempo_medium_proportion,
                         tempo_slow_proportion) THEN 'tempo_fast'
                    WHEN tempo_medium_proportion = greatest(
                         tempo_fast_proportion, tempo_medium_proportion,
                         tempo_slow_proportion) THEN 'tempo_medium'
                    ELSE 'tempo_slow' END AS main_tempo,
               (COALESCE((tempo_fast_proportion > 0.1)::INT, 0)
                + COALESCE((tempo_medium_proportion > 0.1)::INT, 0)
                + COALESCE((tempo_slow_proportion > 0.1)::INT, 0)
                + COALESCE((tempo_irregular_proportion > 0.1)::INT, 0)) > 1
                 AS tempo_is_multi,
               n_events, duration_total_s
        FROM p
    """,
    "embedding_near_dup": """
        WITH d AS (SELECT vec_id,
                          list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
                   FROM embeddings)
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
               round(list_cosine_similarity(a.emb, b.emb), 6) AS cos_sim
        FROM d a JOIN d b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.emb, b.emb) >= 0.4
    """,
    "global_range_join": """
        WITH bands AS (
          SELECT event_type AS band_type, min(value) AS band_lo,
                 max(value) AS band_hi
          FROM events GROUP BY event_type)
        SELECT e.event_id, e.value, b.band_type
        FROM events e JOIN bands b
          ON e.value BETWEEN b.band_lo AND b.band_hi
    """,
    "tumbling_daily_value": """
        SELECT user_id,
               make_timestamp((epoch_us(ts) // 86400000000) * 86400000000)
                 AS window_start,
               count(*) AS n_events,
               sum(cast(round(value * 100) AS BIGINT)) / 100.0 AS value_sum
        FROM events
        GROUP BY user_id, window_start
    """,
    "sliding_window_counts": """
        SELECT user_id, make_timestamp(w) AS window_start,
               count(*) AS n_events
        FROM (SELECT user_id,
                     ((epoch_us(ts) // 86400000000) - o.k) * 86400000000 AS w,
                     epoch_us(ts) AS t
              FROM events, (VALUES (0), (1)) AS o(k))
        WHERE t < w + 172800000000 AND t >= w
        GROUP BY user_id, w
    """,
    "interval_join_error_span": """
        WITH spans AS (
          SELECT user_id, min(ts) AS span_start, max(ts) AS span_end
          FROM events WHERE event_type = 'error' GROUP BY user_id)
        SELECT v.event_id, v.user_id, v.ts,
               s.span_start AS span_start_right, s.span_end AS span_end_right
        FROM (SELECT event_id, user_id, ts FROM events
              WHERE event_type = 'view') v
        JOIN spans s ON v.user_id = s.user_id
         AND v.ts BETWEEN s.span_start AND s.span_end
    """,
    "asof_purchase": """
        SELECT a.event_id, a.user_id, a.ts,
               b.event_id AS event_id_purchase,
               b.value AS value_purchase
        FROM (SELECT event_id, user_id, ts FROM events
              WHERE event_type <> 'purchase') a
        ASOF LEFT JOIN (SELECT event_id, user_id, ts, value FROM events
                        WHERE event_type = 'purchase') b
          ON a.user_id = b.user_id AND a.ts > b.ts
    """,
    "bpe_token_count": r"""
        SELECT doc_id,
               CASE WHEN text IS NULL THEN 0
                    ELSE len(regexp_extract_all(text,
                      '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-zÀ-ɏ]+| ?[0-9]+| ?[^\sA-Za-z0-9À-ɏ]+|\s+'''))
               END AS bpe_tokens
        FROM documents
    """,
    "quality_filter": r"""
        WITH m AS (
          SELECT doc_id,
                 length(text) AS n_chars_m,
                 CASE WHEN text IS NULL OR trim(text) = '' THEN 0
                      ELSE len(regexp_split_to_array(trim(text), '\s+')) END
                   AS n_tokens_raw,
                 (length(text) -
                  length(regexp_replace(text, '[.,!?;:]', '', 'g')))
                   / cast(greatest(length(text), 1) AS DOUBLE) AS pr_raw,
                 length(regexp_replace(text, '\s+', '', 'g'))
                   / cast(greatest(
                       CASE WHEN text IS NULL OR trim(text) = '' THEN 0
                            ELSE len(regexp_split_to_array(trim(text), '\s+'))
                       END, 1) AS DOUBLE) AS mtl_raw
          FROM documents)
        SELECT doc_id, n_chars_m, n_tokens_raw AS n_tokens,
               round(pr_raw, 6) AS punct_ratio,
               round(mtl_raw, 6) AS mean_token_len
        FROM m
        WHERE n_tokens_raw BETWEEN 20 AND 1000000
          AND pr_raw <= 0.05 AND mtl_raw >= 3.0
    """,
    "nul_key_segments": """
        WITH e AS (
          SELECT 'u' || chr(0) || cast(user_id % 50 AS VARCHAR) AS k,
                 event_id, event_type
          FROM events),
        w AS (
          SELECT *,
                 CASE WHEN lag(event_type) OVER
                          (PARTITION BY k ORDER BY event_id) IS NOT NULL
                       AND lag(event_type) OVER
                          (PARTITION BY k ORDER BY event_id)
                          IS DISTINCT FROM event_type
                      THEN 1 ELSE 0 END AS chg
          FROM e)
        SELECT k, count(*) AS n_events, min(event_id) AS first_event_id,
               max(event_id) AS last_event_id,
               cast(sum(chg) + 1 AS BIGINT) AS n_segments,
               k || '#' || cast(min(event_id) AS VARCHAR) AS first_seg_id
        FROM w GROUP BY k
    """,
    "cdc_engine_replay": """
        WITH ch AS (
          SELECT event_id AS lsn,
                 CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
                 'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
                 event_type AS path,
                 CAST(event_id AS VARCHAR) AS commit_id,
                 event_type AS language,
                 props AS content
          FROM events),
        last AS (
          SELECT *, row_number() OVER (PARTITION BY repo, path
                                       ORDER BY lsn DESC) AS rn
          FROM ch)
        SELECT repo, path, commit_id AS "commit", language, content,
               CAST(length(content) AS BIGINT) AS content_size,
               sha256(content) AS content_sha256,
               lsn AS last_lsn
        FROM last WHERE rn = 1 AND op <> 'DELETE'
    """,
    "snapshot_pruned_scan": """
        WITH ch AS (
          SELECT event_id AS lsn,
                 CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
                 'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
                 event_type AS path,
                 props AS content
          FROM events),
        last AS (
          SELECT *, row_number() OVER (PARTITION BY repo, path
                                       ORDER BY lsn DESC) AS rn
          FROM ch)
        SELECT repo, path, sha256(content) AS content_sha256,
               lsn AS last_lsn
        FROM last WHERE rn = 1 AND op <> 'DELETE' AND repo = 'u7'
    """,
    "clustered_scan": """
        WITH ch AS (
          SELECT event_id AS lsn,
                 CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
                 'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
                 event_type AS path,
                 props AS content
          FROM events),
        last AS (
          SELECT *, row_number() OVER (PARTITION BY repo, path
                                       ORDER BY lsn DESC) AS rn
          FROM ch)
        SELECT repo, path, sha256(content) AS content_sha256,
               lsn AS last_lsn
        FROM last WHERE rn = 1 AND op <> 'DELETE' AND path = 'error'
    """,
    "incremental_feed": """
        WITH ch AS (
          SELECT event_id AS lsn,
                 CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
                 'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
                 event_type AS path,
                 props AS content
          FROM events),
        last AS (
          SELECT *, row_number() OVER (PARTITION BY repo, path
                                       ORDER BY lsn DESC) AS rn
          FROM ch)
        SELECT repo, path, sha256(content) AS content_sha256,
               lsn AS last_lsn
        FROM last
        WHERE rn = 1 AND op <> 'DELETE'
          AND lsn > (SELECT max(event_id) // 2 FROM events)
    """,
    "lang_id": """
        WITH w AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(coalesce(text, '')),
                        '[a-zàâçéèêëîïôûùüÿñæœäöüß]+')) AS word
          FROM documents),
        nw AS (SELECT doc_id, count(*) AS n_words FROM w GROUP BY doc_id),
        prof(lang, prio, word) AS (VALUES
          ('en',0,'the'),('en',0,'and'),('en',0,'of'),('en',0,'to'),
          ('en',0,'a'),('en',0,'in'),('en',0,'is'),('en',0,'it'),
          ('en',0,'that'),('en',0,'was'),
          ('fr',1,'le'),('fr',1,'la'),('fr',1,'les'),('fr',1,'de'),
          ('fr',1,'des'),('fr',1,'et'),('fr',1,'est'),('fr',1,'une'),
          ('fr',1,'dans'),('fr',1,'que'),
          ('de',2,'der'),('de',2,'die'),('de',2,'das'),('de',2,'und'),
          ('de',2,'ist'),('de',2,'ein'),('de',2,'eine'),('de',2,'nicht'),
          ('de',2,'mit'),('de',2,'zu'),
          ('es',3,'el'),('es',3,'la'),('es',3,'los'),('es',3,'de'),
          ('es',3,'y'),('es',3,'es'),('es',3,'una'),('es',3,'en'),
          ('es',3,'que'),('es',3,'por')),
        hits AS (
          SELECT w.doc_id, p.lang, p.prio, count(*) AS h
          FROM w JOIN prof p ON p.word = w.word
          GROUP BY w.doc_id, p.lang, p.prio),
        best AS (
          SELECT doc_id, lang, h,
                 row_number() OVER (PARTITION BY doc_id
                                    ORDER BY h DESC, prio ASC) AS rn
          FROM hits)
        SELECT d.doc_id,
               coalesce(b.lang, 'unknown') AS lang_pred,
               CAST(coalesce(b.h, 0) AS DOUBLE)
                 / greatest(coalesce(nw.n_words, 0), 1) AS lang_score
        FROM documents d
        LEFT JOIN (SELECT * FROM best WHERE rn = 1) b ON b.doc_id = d.doc_id
        LEFT JOIN nw ON nw.doc_id = d.doc_id
    """,
    "enriched_events": """
        WITH h AS (
          SELECT event_id, user_id, event_type,
                 CAST('0x' || substr(sha256(CAST(user_id AS VARCHAR)), 1, 15)
                      AS BIGINT) AS hv
          FROM events)
        SELECT event_id, user_id, event_type,
               ['alphaville','betatown','gammaburg','deltaport'][CAST(hv % 4 AS INTEGER) + 1]
                 AS geo_city,
               ['AA','BB','CC'][CAST((hv // 256) % 3 AS INTEGER) + 1]
                 AS geo_country
        FROM h
    """,
    "ngram_jaccard_pairs": """
        WITH d AS (
          SELECT doc_id, coalesce(text, '') AS t
          FROM documents WHERE doc_id < 150),
        sh AS (
          SELECT DISTINCT doc_id,
                 CASE WHEN length(t) < 5 THEN t
                      ELSE substr(t, CAST(i AS INTEGER), 5) END AS s
          FROM (SELECT doc_id, t,
                       unnest(generate_series(1,
                              CAST(greatest(length(t) - 4, 1) AS BIGINT))) AS i
                FROM d)),
        sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
          FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
          GROUP BY a.doc_id, b.doc_id)
        SELECT doc_a, doc_b,
               CAST(i AS DOUBLE) / (sa.n + sb.n - i) AS jaccard
        FROM inter
        JOIN sizes sa ON sa.doc_id = doc_a
        JOIN sizes sb ON sb.doc_id = doc_b
        WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.2
    """,
    "decontaminate": """
        WITH bench AS (
          SELECT DISTINCT substr(t, CAST(i AS INTEGER), 13) AS w
          FROM (SELECT t, unnest(generate_series(1,
                       CAST(greatest(length(t) - 12, 0) AS BIGINT))) AS i
                FROM (SELECT coalesce(text, '') AS t
                      FROM documents WHERE doc_id < 10))),
        docw AS (
          SELECT doc_id, substr(t, CAST(i AS INTEGER), 13) AS w
          FROM (SELECT doc_id, t, unnest(generate_series(1,
                       CAST(greatest(length(t) - 12, 0) AS BIGINT))) AS i
                FROM (SELECT doc_id, coalesce(text, '') AS t
                      FROM documents)))
        SELECT d.doc_id, coalesce(h.hit, false) AS contaminated
        FROM documents d
        LEFT JOIN (SELECT DISTINCT dw.doc_id, true AS hit
                   FROM docw dw JOIN bench b ON b.w = dw.w) h
          ON h.doc_id = d.doc_id
    """,
    "repetition_metrics": """
        WITH l AS (
          SELECT doc_id,
                 unnest(string_split(coalesce(text, ''), chr(10))) AS line
          FROM documents),
        per AS (
          SELECT doc_id, line, count(*) AS cnt, length(line) AS chars
          FROM l GROUP BY doc_id, line),
        agg AS (
          SELECT doc_id,
                 sum(cnt) AS n_lines,
                 count(*) AS n_distinct,
                 sum(CASE WHEN cnt > 1 THEN cnt * chars ELSE 0 END) AS dup_chars,
                 sum(cnt * chars) AS total_chars
          FROM per GROUP BY doc_id)
        SELECT doc_id,
               CAST(n_lines - n_distinct AS DOUBLE) / greatest(n_lines, 1)
                 AS frac_dup_lines,
               CAST(dup_chars AS DOUBLE) / greatest(total_chars, 1)
                 AS frac_chars_dup_lines
        FROM agg
    """,
    "sequence_packing": """
        WITH s AS (
          SELECT doc_id, n_chars,
                 CAST(sum(n_chars) OVER (ORDER BY doc_id
                                    ROWS UNBOUNDED PRECEDING) AS BIGINT)
                   AS cum_size
          FROM documents)
        SELECT doc_id, n_chars, cum_size,
               CAST((cum_size - n_chars) // 8192 AS BIGINT) AS pack_id
        FROM s
    """,
    "value_quantiles": """
        SELECT event_type,
               quantile_disc(value, 0.5) AS p50,
               quantile_disc(value, 0.9) AS p90
        FROM events GROUP BY event_type
    """,
    "distinct_users_per_type": """
        SELECT event_type, count(DISTINCT user_id) AS n_users
        FROM events GROUP BY event_type
    """,
    "train_val_split": """
        WITH b AS (
          SELECT doc_id,
                 CAST('0x' || substr(sha256(CAST(doc_id AS VARCHAR)), 1, 15)
                      AS BIGINT) % 1000 AS bucket
          FROM documents)
        SELECT doc_id, bucket,
               CASE WHEN bucket < 100 THEN 'val'
                    WHEN bucket < 150 THEN 'test'
                    ELSE 'train' END AS split
        FROM b
    """,
    "vocab_top_terms": """
        SELECT word AS term, count(*) AS n
        FROM (SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                            '[a-z]+')) AS word
              FROM documents)
        GROUP BY word
        ORDER BY n DESC, term ASC
        LIMIT 50
    """,
    "heavy_hitter_terms": """
        SELECT word AS term, count(*) AS freq
        FROM (SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                            '[a-z]+')) AS word
              FROM documents)
        GROUP BY word
        ORDER BY freq DESC, term ASC
        LIMIT 20
    """,
    "redact_text": """
        SELECT doc_id,
               regexp_replace(
                 regexp_replace(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+',
                                '<EMAIL>', 'g'),
                 '[0-9]+', '<NUM>', 'g') AS redacted
        FROM documents
    """,
    "global_value_rank": """
        SELECT event_id, value,
               row_number() OVER (ORDER BY value, event_id) AS rnk
        FROM events
    """,
    "training_shuffle": """
        SELECT event_id,
               row_number() OVER (
                 ORDER BY CAST('0x' || substr(
                     sha256(CAST(event_id AS VARCHAR) || '#7'), 1, 15)
                   AS BIGINT),
                   event_id) AS shuffle_pos
        FROM events
    """,
    "inverted_postings": """
        WITH tf AS (
          SELECT doc_id, term, count(*) AS tf
          FROM (SELECT doc_id,
                       unnest(regexp_extract_all(lower(coalesce(text, '')),
                                                 '[a-z0-9]+')) AS term
                FROM documents)
          GROUP BY doc_id, term)
        SELECT term, doc_id, tf, rank FROM (
          SELECT term, doc_id, tf,
                 row_number() OVER (PARTITION BY term
                                    ORDER BY tf DESC, doc_id ASC) AS rank
          FROM tf)
        WHERE rank <= 3
    """,
    "cdc_change_stats": """
        WITH ch AS (
          SELECT event_id AS lsn,
                 'u' || cast(user_id % 200 AS VARCHAR) AS repo,
                 event_type AS path,
                 CASE WHEN value < 0.15 THEN 1 ELSE 0 END AS is_del
          FROM events)
        SELECT repo, count(*) AS n_changes,
               CAST(sum(is_del) AS BIGINT) AS n_deletes,
               max(lsn) AS last_lsn, count(DISTINCT path) AS n_paths
        FROM ch GROUP BY repo
    """,
    "bm25_scores": """
        WITH tok AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(coalesce(text, '')),
                                           '[a-z0-9]+')) AS term
          FROM documents),
        dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
        consts AS (
          SELECT (SELECT count(*) FROM documents) * 1.0 AS n,
                 (SELECT count(*) FROM tok) * 1.0
                   / (SELECT count(*) FROM documents) AS avgdl),
        qt AS (SELECT unnest(['batch', 'window', 'scan', 'merge']) AS term),
        df AS (SELECT term, count(DISTINCT doc_id) AS df
               FROM tok JOIN qt USING (term) GROUP BY term),
        tf AS (SELECT doc_id, term, count(*) AS tf
               FROM tok JOIN qt USING (term) GROUP BY doc_id, term)
        SELECT tf.doc_id,
               round(sum(ln((n - df + 0.5) / (df + 0.5) + 1)
                         * (tf * (1.2 + 1)) /
                         (tf + 1.2 * ((1 - 0.75) + 0.75 * dl / avgdl))), 6)
                 AS bm25
        FROM tf JOIN df USING (term) JOIN dl USING (doc_id), consts
        GROUP BY tf.doc_id
    """,
    "duplicated_spans": """
        WITH pos AS (
          SELECT doc_id, text,
                 unnest(generate_series(1, greatest(length(text) - 49, 0))) AS i
          FROM documents),
        spans AS (SELECT DISTINCT doc_id, substr(text, i, 50) AS span FROM pos)
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               count(*) AS n_shared_spans
        FROM spans a JOIN spans b ON a.span = b.span AND a.doc_id < b.doc_id
        GROUP BY 1, 2
    """,
    "stratified_sample": """
        SELECT event_id, event_type, value FROM (
          SELECT event_id, event_type, value,
                 row_number() OVER (
                   PARTITION BY event_type
                   ORDER BY CAST('0x' || substr(sha256(cast(event_id AS VARCHAR)), 1, 15)
                                 AS BIGINT),
                            event_id) AS rn
          FROM events)
        WHERE rn <= 20
    """,
    "length_quantile_filter": """
        SELECT doc_id, n_chars FROM documents
        WHERE n_chars >= (SELECT quantile_disc(n_chars, 0.25) FROM documents)
    """,
    "group_zscore": """
        WITH st AS (
          SELECT event_type,
                 count(*) AS n,
                 sum(cast(round(value * 100) AS BIGINT)) AS s,
                 sum(cast(round(value * 100) AS BIGINT)
                     * cast(round(value * 100) AS BIGINT)) AS q
          FROM events GROUP BY event_type)
        SELECT e.event_id, e.event_type, e.value,
               (cast(round(e.value * 100) AS BIGINT) - s * 1.0 / n)
                 / sqrt(q * 1.0 / n - (s * 1.0 / n) * (s * 1.0 / n)) AS zscore
        FROM events e JOIN st USING (event_type)
    """,
    # Remaining rows-only entries (each with an independent Python
    # oracle or recall bound in tests/): kmeans_clusters / semdedup
    # (iterative float k-means — ulp-chaotic, no exact SQL),
    # ann_lsh_topk / ann_ivf_topk / embedding_near_dup_ivf (seeded
    # numpy RNG hyperplanes / trained coarse quantizers — the PRNG is
    # not SQL-reproducible and the result is recall-bounded by design).
    # Everything else below is appended programmatically.
}


# ---------------------------------------------------------------------------
# SQL oracles for the mod-2^64 hash kernels (fingerprint / simhash)
#
# Both kernels are pure modular arithmetic (Karp-Rabin rolling hash,
# splitmix64 finisher), so DuckDB can reproduce them bit-for-bit with
# HUGEINT: values stay in [0, 2^64) and every product is split so no
# intermediate exceeds 2^96. xor / >> / << are native on HUGEINT.
# ---------------------------------------------------------------------------

_KR_B = 0x100000001B3  # functions/text.py:_FP_B
_M64 = 1 << 64
_M64_SQL = "18446744073709551616::HUGEINT"
_T32_SQL = "4294967296::HUGEINT"


def _sql_mulmod64(a_expr: str, c: int) -> str:
    """(a * c) mod 2^64 for a in [0,2^64), 64-bit constant c — the 32-bit
    split keeps every HUGEINT intermediate under 2^96 (no overflow)."""
    return (
        f"((({a_expr}) % {_T32_SQL}) * {c}::HUGEINT"
        f" + (((({a_expr}) >> 32) * {c}::HUGEINT) % {_T32_SQL}) * {_T32_SQL})"
        f" % {_M64_SQL}"
    )


_HEX64 = (
    "printf('%08x%08x', ({v} >> 32)::BIGINT, ({v} % " + _T32_SQL + ")::BIGINT)"
)

# fingerprint: min over all 64-byte windows of the Karp-Rabin hash
# H[j] = sum_i byte[j+i] * B^(w-1-i) mod 2^64 (functions/text.py:250).
# Fixture text is ASCII (unicode(char) == byte); w = min(64, n).
_KR_POWS = ",".join(f"({i},{pow(_KR_B, i, _M64)}::HUGEINT)" for i in range(64))

ORACLE_SQL["fingerprint"] = f"""
    WITH pw(k, p) AS (VALUES {_KR_POWS}),
    docs AS (
      SELECT doc_id, text, octet_length(encode(text)) AS n,
             least(64, octet_length(encode(text))) AS w
      FROM documents
    ),
    bytes AS (
      SELECT doc_id, i, unicode(substr(text, i+1, 1))::HUGEINT AS b
      FROM (SELECT doc_id, text, unnest(generate_series(0, n-1)) AS i
            FROM docs)
    ),
    wins AS (
      SELECT doc_id, unnest(generate_series(0, n - w)) AS j, w FROM docs
    ),
    h AS (
      SELECT y.doc_id,
             sum(b.b * pw.p)::HUGEINT % {_M64_SQL} AS hv
      FROM wins y
      JOIN bytes b ON b.doc_id = y.doc_id
                  AND b.i BETWEEN y.j AND y.j + y.w - 1
      JOIN pw ON pw.k = y.w - 1 - (b.i - y.j)
      GROUP BY y.doc_id, y.j
    )
    SELECT doc_id, {_HEX64.format(v="min(hv)")} AS fingerprint_hex
    FROM h GROUP BY doc_id
"""

# simhash: 64-bit SimHash over DISTINCT char-4-gram hashes
# (dedup/minhash.py:565): Karp-Rabin window hash -> splitmix64 finish ->
# per-bit +1/-1 vote over the distinct shingle set -> sign bits.
_SM_Z1 = "xor(z, z >> 30)"
_SM_Z2 = "xor(z, z >> 27)"

ORACLE_SQL["simhash"] = f"""
    WITH docs AS (
      SELECT doc_id, lower(text) AS t,
             octet_length(encode(lower(text))) AS n
      FROM documents
    ),
    bytes AS (
      SELECT doc_id, i, unicode(substr(t, i+1, 1))::HUGEINT AS b
      FROM (SELECT doc_id, t, unnest(generate_series(0, n-1)) AS i
            FROM docs)
    ),
    raw AS (
      SELECT doc_id,
             (b * {pow(_KR_B, 3, _M64)}::HUGEINT
              + lead(b,1) OVER w * {pow(_KR_B, 2, _M64)}::HUGEINT
              + lead(b,2) OVER w * {_KR_B}::HUGEINT
              + lead(b,3) OVER w) % {_M64_SQL} AS r
      FROM bytes
      WINDOW w AS (PARTITION BY doc_id ORDER BY i)
      QUALIFY lead(b,3) OVER w IS NOT NULL
    ),
    s1 AS (SELECT doc_id,
                  (r + 11400714819323198485::HUGEINT) % {_M64_SQL} AS z
           FROM raw),
    s2 AS (SELECT doc_id,
                  {_sql_mulmod64(_SM_Z1, 0xBF58476D1CE4E5B9)} AS z FROM s1),
    s3 AS (SELECT doc_id,
                  {_sql_mulmod64(_SM_Z2, 0x94D049BB133111EB)} AS z FROM s2),
    sh AS (SELECT DISTINCT doc_id, xor(z, z >> 31) AS z FROM s3),
    votes AS (
      SELECT doc_id, bit,
             sum(CASE WHEN (z >> bit) % 2 = 1 THEN 1 ELSE -1 END) AS v
      FROM sh, (SELECT unnest(generate_series(0, 63)) AS bit)
      GROUP BY doc_id, bit
    ),
    sim AS (
      SELECT doc_id,
             sum(CASE WHEN v > 0 THEN 1::HUGEINT << bit
                      ELSE 0::HUGEINT END)::HUGEINT AS s
      FROM votes GROUP BY doc_id
    )
    SELECT doc_id, {_HEX64.format(v="s")} AS simhash_hex FROM sim
"""


# ---------------------------------------------------------------------------
# SQL oracle for Viterbi decoding (hmm_moving_state / tempo)
#
# Viterbi is a max-plus recurrence over IEEE doubles: embedding the
# numpy-computed log-probabilities as literals and replicating the exact
# add order makes DuckDB's forward pass bitwise-identical to
# HmmModel.viterbi (stages/ml.py:56). The backtrace is carried as a state
# string per (key, state) in a recursive CTE and exploded at the end.
# Assumes per-key runs < the 5000-row window cap — true for the sf
# fixtures (max 88 events/user), asserted nowhere cheaper than here.
# ---------------------------------------------------------------------------


def _viterbi_sql(model_json: str, *, key: str, order: str, em_cte: str,
                 final_select: str) -> str:
    """Recursive-CTE Viterbi over an ``em`` CTE that must provide
    (key, t starting at 1, e0..e{S-1} per-state log-emissions).

    Argmax ties break to the LOWEST state index on both sides
    (np.argmax first-max ↔ chained >= CASE).
    """
    import numpy as np

    spec = json.loads(model_json)
    S = len(spec["states"])
    LI = np.log(np.asarray(spec["initial"], dtype=np.float64) + 1e-300)
    LT = np.log(np.asarray(spec["transition"], dtype=np.float64) + 1e-300)
    # string-literal cast, NOT a bare numeric literal: DuckDB parses a bare
    # 17-digit literal as DECIMAL then casts (double rounding, off-by-1-ULP
    # on e.g. -0.36594965513194083), while a VARCHAR→DOUBLE cast is
    # correctly rounded — required for bit-exact parity with numpy Viterbi
    lit = lambda x: f"'{float(x)!r}'::DOUBLE"  # noqa: E731

    init_cols = ", ".join(
        f"{lit(LI[s])} + e{s} AS d{s}, '{s}' AS p{s}" for s in range(S)
    )

    def cand(p, s):
        return f"v.d{p} + {lit(LT[p, s])}"

    step_cols = []
    for s in range(S):
        cs = [cand(p, s) for p in range(S)]
        step_cols.append(f"greatest({', '.join(cs)}) + o.e{s} AS d{s}")
        # first-max-wins backpointer: state p beats all later states
        whens = " ".join(
            "WHEN " + " AND ".join(
                f"{cs[p]} >= {cs[q]}" for q in range(p + 1, S)
            ) + f" THEN v.p{p}"
            for p in range(S - 1)
        )
        step_cols.append(f"(CASE {whens} ELSE v.p{S-1} END) || '{s}' AS p{s}")

    fin_whens = " ".join(
        "WHEN " + " AND ".join(
            f"d{p} >= d{q}" for q in range(p + 1, S)
        ) + f" THEN p{p}"
        for p in range(S - 1)
    )
    state_case = " ".join(
        f"WHEN '{s}' THEN '{name}'" for s, name in enumerate(spec["states"])
    )

    return f"""
    WITH RECURSIVE {em_cte},
    v AS (
      SELECT {key}, t, {init_cols} FROM em WHERE t = 1
      UNION ALL
      SELECT o.{key}, o.t, {', '.join(step_cols)}
      FROM v JOIN em o ON o.{key} = v.{key} AND o.t = v.t + 1
    ),
    fin AS (
      SELECT v.{key}, CASE {fin_whens} ELSE p{S-1} END AS path
      FROM v JOIN (SELECT {key}, max(t) AS tn FROM em GROUP BY {key}) n
        ON n.{key} = v.{key} AND v.t = n.tn
    ),
    vit AS (
      SELECT {key}, i AS t,
             CASE substr(path, i, 1) {state_case} END AS vit_state
      FROM (SELECT {key}, path, unnest(generate_series(1, length(path))) AS i
            FROM fin)
    )
    {final_select}
    """


def _emit_case(model_json: str, state: int) -> str:
    import numpy as np

    spec = json.loads(model_json)
    LE = np.log(np.asarray(spec["emission"], dtype=np.float64) + 1e-300)
    return ("CASE bin " + " ".join(
        f"WHEN {b} THEN '{float(LE[state, b])!r}'::DOUBLE"
        for b in range(LE.shape[1])
    ) + " END")


def _bin_case(model_json: str, obs: str) -> str:
    """searchsorted(edges, obs, 'right')-1 clipped to [0, n_bins-1] as a
    descending >= CASE (negatives fall to ELSE 0, overflow to the top)."""
    spec = json.loads(model_json)
    edges = spec["bin_edges"]
    n_bins = len(edges) - 1
    whens = " ".join(
        f"WHEN {obs} >= '{float(edges[b])!r}'::DOUBLE THEN {b}"
        for b in range(n_bins - 1, 0, -1)
    )
    return f"CASE {whens} ELSE 0 END"


def _hmm_oracle() -> str:
    from arlas_proc_ray.stages.ml import STILLMOVE_MODEL_JSON as MJ

    em_cte = f"""obs AS (
      SELECT event_id, user_id, value,
             row_number() OVER (PARTITION BY user_id ORDER BY event_id) AS t,
             {_bin_case(MJ, "coalesce(value, 0)")} AS bin
      FROM events
    ),
    em AS (SELECT *, {_emit_case(MJ, 0)} AS e0, {_emit_case(MJ, 1)} AS e1
           FROM obs)"""
    final = """
    SELECT o.event_id, o.user_id, o.value, s.vit_state AS moving_state
    FROM obs o JOIN vit s ON s.user_id = o.user_id AND s.t = o.t
    """
    return _viterbi_sql(MJ, key="user_id", order="event_id",
                        em_cte=em_cte, final_select=final)


def _tempo_oracle() -> str:
    from arlas_proc_ray.stages.ml import TEMPO_MODEL_JSON as MJ

    # (epoch_us(a)-epoch_us(b))/1e6 is bitwise pandas' total_seconds()
    # on datetime64[us] (plain epoch(interval) differs by 1 ulp on ~1% of
    # rows); first row per key decodes with dur=0 then gets the
    # irregular label (ml/WithTempo.scala:60-64 null→irregular fill).
    em_cte = f"""obs AS (
      SELECT event_id, user_id, ts,
             row_number() OVER (PARTITION BY user_id ORDER BY event_id) AS t,
             (epoch_us(ts) - lag(epoch_us(ts)) OVER
                (PARTITION BY user_id ORDER BY event_id)) / 1e6 AS dur
      FROM events
    ),
    em AS (SELECT *,
             {_emit_case(MJ, 0)} AS e0, {_emit_case(MJ, 1)} AS e1,
             {_emit_case(MJ, 2)} AS e2
           FROM (SELECT *, {_bin_case(MJ, "coalesce(dur, 0)")} AS bin
                 FROM obs))"""
    final = """
    SELECT o.event_id, o.user_id, o.ts,
           CASE WHEN o.dur IS NULL THEN 'tempo_irregular'
                ELSE s.vit_state END AS tempo
    FROM obs o JOIN vit s ON s.user_id = o.user_id AND s.t = o.t
    """
    return _viterbi_sql(MJ, key="user_id", order="event_id",
                        em_cte=em_cte, final_select=final)


ORACLE_SQL["hmm_moving_state"] = _hmm_oracle()
ORACLE_SQL["tempo"] = _tempo_oracle()


# ---------------------------------------------------------------------------
# SQL oracles for the near-dup family (minhash_near_dup / dedup_documents /
# curation)
#
# The LSH+verify pipelines emit pairs verified at EXACT jaccard ≥ τ, so
# output ⊆ exact all-pairs always; the fixtures' true pairs all have
# jaccard ≥ 0.92 → per-pair LSH miss probability (1-0.92^4)^32 ≈ 3e-18
# (bands=32, r=4), making the verified output deterministically equal to
# the exact all-pairs set DuckDB computes below. Jaccard is over DISTINCT
# lowercase char-5-grams (the 64-bit shingle-hash sets are collision-free
# at fixture scale), and the division of exact ints is IEEE-identical on
# both sides. Connected components = transitive closure (tiny pair sets).
# ---------------------------------------------------------------------------


def _shingle_pairs_sql(src: str, threshold: float) -> str:
    """CTE chain ``sh``→``cnt``→``ix``→``pairs`` over ``src(doc_id,text)``."""
    return f"""sh AS (
      SELECT DISTINCT doc_id, substr(t, i+1, 5) AS g
      FROM (SELECT doc_id, t, unnest(generate_series(0, n-5)) AS i
            FROM (SELECT doc_id, lower(text) AS t, length(text) AS n
                  FROM {src}))
    ),
    cnt AS (SELECT doc_id, count(*) AS c FROM sh GROUP BY doc_id),
    ix AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
      FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
      GROUP BY 1, 2
    ),
    pairs AS (
      SELECT doc_a, doc_b, i * 1.0 / (ca.c + cb.c - i) AS jaccard
      FROM ix JOIN cnt ca ON ca.doc_id = ix.doc_a
              JOIN cnt cb ON cb.doc_id = ix.doc_b
      WHERE i * 1.0 / (ca.c + cb.c - i) >= {threshold}
    )"""


_COMPONENTS_SQL = """edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
              UNION ALL SELECT doc_b, doc_a FROM pairs),
    reach(a, b) AS (
      SELECT a, b FROM edges
      UNION
      SELECT r.a, e.b FROM reach r JOIN edges e ON e.a = r.b
      WHERE e.b <> r.a
    ),
    clus AS (SELECT a AS doc_id, least(a, min(b)) AS lbl
             FROM reach GROUP BY a)"""


ORACLE_SQL["minhash_near_dup"] = (
    "WITH " + _shingle_pairs_sql("documents", 0.5)
    + " SELECT doc_a, doc_b, jaccard FROM pairs"
)


def _flagship_oracle() -> str:
    """SQL oracle for the flagship CDC replay itself.

    The synthetic changelog is a counter-based PRNG (splitmix64 over
    lsn ^ seed_mix, cdc/events.py:84,136) — pure mod-2^64 arithmetic plus
    C-level string assembly, so DuckDB regenerates the EXACT event stream
    from generate_series and reduces it to final LWW state: per-key
    argmax-lsn row, tombstones dropped, sha256 of the regenerated
    content. Sizing derives from count(events) (flagship config:
    num_events = 2e6·sf = 2·|events|, num_keys = max(200, n/10),
    num_repos = 50 → `% 49`, pipelines/flagship.py:21-30), so the same
    SQL is correct at every sf fixture. Out-of-order delivery and the v1/
    v2 schema split affect only the engine's path to the state, not the
    state — LWW by lsn is delivery-order-free, which is exactly the
    invariant the engine suites assert.
    """
    from arlas_proc_ray.cdc.events import _FILLER

    mu = "18446744073709551616::HUGEINT"
    t32 = "4294967296::HUGEINT"
    g = 0x9E3779B97F4A7C15
    c1 = 0xBF58476D1CE4E5B9
    c2 = 0x94D049BB133111EB
    seed_mix = (42 * 0x5851F42D4C957F2D) % (1 << 64)  # flagship seed=42
    filler_sql = "'" + _FILLER.replace("'", "''") + "'"
    flen = len(_FILLER)
    u01 = "CAST(({h} >> 11) AS DOUBLE) / 9007199254740992.0"

    def mm(a, c):
        return (f"((({a}) % {t32}) * {c}::HUGEINT"
                f" + (((({a}) >> 32) * {c}::HUGEINT) % {t32}) * {t32}) % {mu}")

    hashes = ["hk", "ho", "hl", "cm"]

    def rep(tpl):
        return ", ".join(tpl.format(h=h) + f" AS {h}" for h in hashes)

    return f"""
    WITH params AS (
      SELECT 2 * (SELECT count(*) FROM events) AS n_events,
             greatest(200, (2 * (SELECT count(*) FROM events)) // 10) AS n_keys
    ),
    p2 AS (SELECT n_events, n_keys, n_keys // 20 AS hot_keys,
                  greatest(1, n_keys - n_keys // 20) AS n_cold
           FROM params),
    ev AS (SELECT unnest(generate_series(0, n_events - 1))::HUGEINT AS lsn,
                  hot_keys, n_cold
           FROM p2),
    h0 AS (SELECT lsn, hot_keys, n_cold,
             (xor(lsn, {seed_mix}::HUGEINT) + {g}::HUGEINT) % {mu} AS hk,
             (xor(xor(lsn, {seed_mix}::HUGEINT), 1::HUGEINT)
                + {g}::HUGEINT) % {mu} AS ho,
             (xor(xor(lsn, {seed_mix}::HUGEINT), 2::HUGEINT)
                + {g}::HUGEINT) % {mu} AS hl,
             (lsn + {g}::HUGEINT) % {mu} AS cm
           FROM ev),
    h1 AS (SELECT lsn, hot_keys, n_cold,
                  {rep(mm("xor({h}, {h} >> 30)", c1))} FROM h0),
    h2 AS (SELECT lsn, hot_keys, n_cold,
                  {rep(mm("xor({h}, {h} >> 27)", c2))} FROM h1),
    h3 AS (SELECT lsn, hot_keys, n_cold,
                  {rep("xor({h}, {h} >> 31)")} FROM h2),
    attrs AS (
      SELECT lsn, cm,
             CASE WHEN {u01.format(h="hk")} < 0.5::DOUBLE
                  THEN CAST(hk % hot_keys::HUGEINT AS BIGINT)
                  ELSE CAST(hot_keys + hk % n_cold::HUGEINT AS BIGINT)
             END AS key_id,
             {u01.format(h="ho")} < '0.1'::DOUBLE AS is_delete,
             CAST(trunc(200::DOUBLE
                  + ({u01.format(h="hl")}) * ({u01.format(h="hl")})
                  * 1800::DOUBLE) AS BIGINT) AS len,
             hot_keys
      FROM h3),
    lu(idx, ext) AS (VALUES (0,'py'),(1,'rs'),(2,'scala'),
                            (3,'ts'),(4,'go'),(5,'md')),
    shaped AS (
      SELECT a.lsn, a.key_id, a.is_delete,
             CASE WHEN a.key_id < a.hot_keys THEN 'org0/monorepo'
                  ELSE 'org' || ((1 + a.key_id % 49) % 10)::VARCHAR
                       || '/repo' || (1 + a.key_id % 49)::VARCHAR END AS repo,
             'src/d' || ((a.key_id // 97) % 31)::VARCHAR
               || '/m' || ((a.key_id // 7) % 13)::VARCHAR
               || '/file_' || a.key_id::VARCHAR || '.' || lu.ext AS path,
             lu.ext AS language,
             printf('%08x%08x', (a.cm >> 32)::BIGINT,
                    (a.cm % {t32})::BIGINT) AS commit,
             a.len,
             CAST(a.lsn % greatest(1, {flen} - a.len - 1)::HUGEINT
                  AS BIGINT) AS strt
      FROM attrs a JOIN lu ON lu.idx = a.key_id % 6),
    content_ev AS (
      SELECT lsn, key_id, is_delete, repo, path, language, commit,
             CASE WHEN is_delete THEN NULL
                  ELSE '// ' || repo || ':' || path || ' @ lsn='
                       || CAST(lsn AS BIGINT)::VARCHAR || chr(10)
                       || substr({filler_sql}, strt + 1, len) END AS content
      FROM shaped),
    last_ev AS (
      SELECT * FROM content_ev
      QUALIFY row_number() OVER (PARTITION BY key_id ORDER BY lsn DESC) = 1)
    SELECT repo, path, commit, language, content,
           length(content) AS content_size,
           sha256(content) AS content_sha256,
           CAST(lsn AS BIGINT) AS last_lsn
    FROM last_ev WHERE NOT is_delete
    """


ORACLE_SQL["cdc_replay_final_state"] = _flagship_oracle()


def _movement_oracle() -> str:
    """SQL oracle for the fused movement chain (pipelines/movement.py:50).

    Every stage is deterministic: Viterbi via the shared recursive-CTE
    builder; durations/sums in integer microseconds (associative — group
    sums are order-free on both sides, the implementation was aligned to
    sum µs ints); run collapse + neighbor pull + greedy mission merge as
    window functions. Run ordering ties on t_start break by
    first_event_id, which equals pandas' stable sort because event ids
    increase along each user's segment sequence.
    """
    from arlas_proc_ray.stages.ml import STILLMOVE_MODEL_JSON as MJ

    em_cte = f"""obs AS (
      SELECT event_id, user_id, ts, value,
             row_number() OVER (PARTITION BY user_id ORDER BY event_id) AS t,
             {_bin_case(MJ, "value")} AS bin,
             coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER
                 (PARTITION BY user_id ORDER BY event_id), 0) AS dur_us
      FROM events
    ),
    em AS (SELECT *, {_emit_case(MJ, 0)} AS e0, {_emit_case(MJ, 1)} AS e1
           FROM obs)"""

    final = """
    , base AS (
      SELECT o.event_id, o.user_id, o.ts, o.value, o.t, o.dur_us,
             s.vit_state AS moving
      FROM obs o JOIN vit s ON s.user_id = o.user_id AND s.t = o.t),
    seg0 AS (
      SELECT *,
             CASE WHEN lag(moving) OVER w_ms IS NULL
                    OR moving <> lag(moving) OVER w_ms THEN 1 ELSE 0 END AS chg
      FROM base WINDOW w_ms AS (PARTITION BY user_id ORDER BY t)),
    seg AS (
      SELECT *, sum(chg) OVER (PARTITION BY user_id ORDER BY t
                               ROWS UNBOUNDED PRECEDING) AS motion_seg
      FROM seg0),
    kinds AS (
      SELECT *,
             CASE WHEN moving = 'STILL'
                    AND sum(dur_us) OVER (PARTITION BY user_id, motion_seg)
                        > 600000000
                  THEN 'STOP' ELSE 'COURSE' END AS kind
      FROM seg),
    cseg0 AS (
      SELECT *,
             CASE WHEN lag(kind) OVER w_cs IS NULL
                    OR kind <> lag(kind) OVER w_cs THEN 1 ELSE 0 END AS kchg
      FROM kinds WINDOW w_cs AS (PARTITION BY user_id ORDER BY t)),
    cseg AS (
      SELECT *, sum(kchg) OVER (PARTITION BY user_id ORDER BY t
                                ROWS UNBOUNDED PRECEDING) AS cs_seg
      FROM cseg0),
    runs AS (
      SELECT user_id, cs_seg, min(kind) AS kind,
             min(ts) AS t_start, max(ts) AS t_end,
             count(*)::BIGINT AS n_events,
             sum(dur_us) AS dur_us_sum,
             sum(CAST(round(value * 100) AS BIGINT)) AS cents,
             min(event_id)::BIGINT AS first_event_id
      FROM cseg GROUP BY user_id, cs_seg),
    nb AS (
      SELECT *,
             lag(kind) OVER u_nb AS prev_kind,
             lead(kind) OVER u_nb AS next_kind,
             lag(t_end) OVER u_nb AS prev_end,
             lead(t_start) OVER u_nb AS next_start,
             lag(dur_us_sum) OVER u_nb AS prev_dur,
             lead(dur_us_sum) OVER u_nb AS next_dur
      FROM runs
      WINDOW u_nb AS (PARTITION BY user_id
                      ORDER BY t_start, first_event_id)),
    courses AS (SELECT * FROM nb WHERE kind = 'COURSE'),
    m AS (
      SELECT *,
             epoch_us(t_start) - lag(epoch_us(t_end)) OVER u_m AS gap_us
      FROM courses
      WINDOW u_m AS (PARTITION BY user_id
                     ORDER BY t_start, first_event_id)),
    m2 AS (
      SELECT *,
             sum(CASE WHEN gap_us IS NULL OR gap_us > 6000000000
                      THEN 1 ELSE 0 END)
               OVER (PARTITION BY user_id
                     ORDER BY t_start, first_event_id
                     ROWS UNBOUNDED PRECEDING) AS mseg
      FROM m),
    m3 AS (SELECT *, min(first_event_id)
                       OVER (PARTITION BY user_id, mseg) AS first_course
           FROM m2)
    SELECT user_id, t_start, t_end, n_events,
           dur_us_sum / 1e6 AS duration_s,
           cents / 100.0 AS value_sum,
           first_event_id,
           CASE WHEN prev_kind = 'STOP' THEN prev_end END AS departure_ts,
           CASE WHEN next_kind = 'STOP' THEN next_start END AS arrival_ts,
           CASE WHEN prev_kind = 'STOP' THEN prev_dur / 1e6 END
             AS departure_stop_duration_s,
           CASE WHEN next_kind = 'STOP' THEN next_dur / 1e6 END
             AS arrival_stop_duration_s,
           user_id::VARCHAR || '#' || first_event_id::VARCHAR AS course_id,
           user_id::VARCHAR || '#M' || first_course::VARCHAR AS mission_id
    FROM m3
    """
    return _viterbi_sql(MJ, key="user_id", order="event_id",
                        em_cte=em_cte, final_select=final)


ORACLE_SQL["movement_courses"] = _movement_oracle()

# Scale-path queries share the exact paths' oracles: auto-split and
# two-epoch staged replays must be hash-identical to the single-path LWW
# state, and hashed decontamination to the exact string mode.
ORACLE_SQL["cdc_autosplit_replay"] = ORACLE_SQL["cdc_engine_replay"]
ORACLE_SQL["cdc_warm_replay"] = ORACLE_SQL["cdc_engine_replay"]
ORACLE_SQL["decontaminate_hashed"] = ORACLE_SQL["decontaminate"]

ORACLE_SQL["dedup_documents"] = f"""
    WITH RECURSIVE ex AS (
      SELECT min(doc_id) AS doc_id FROM documents GROUP BY sha256(text)
    ),
    ed AS (SELECT d.doc_id, d.text FROM documents d JOIN ex USING (doc_id)),
    {_shingle_pairs_sql("ed", 0.5)},
    {_COMPONENTS_SQL}
    SELECT e.doc_id, e.text, CAST(c.lbl AS DOUBLE) AS dup_cluster_id
    FROM ed e LEFT JOIN clus c ON c.doc_id = e.doc_id
    WHERE c.lbl IS NULL OR c.lbl = e.doc_id
"""

# curation: quality filter (raw metrics, thresholds from q_curation's
# CurationConfig) → language ID (same profile table as the lang_id
# oracle; the configured language set admits every possible prediction,
# matching the pipeline) → exact + near dedup over the filtered corpus.
ORACLE_SQL["curation"] = rf"""
    WITH RECURSIVE q AS (
      SELECT doc_id, text,
             CASE WHEN text IS NULL OR trim(text) = '' THEN 0
                  ELSE len(regexp_split_to_array(trim(text), '\s+')) END
               AS n_tokens
      FROM documents
      WHERE CASE WHEN text IS NULL OR trim(text) = '' THEN 0
                 ELSE len(regexp_split_to_array(trim(text), '\s+')) END
              BETWEEN 5 AND 1000000
        AND (length(text) - length(regexp_replace(text, '[.,!?;:]', '', 'g')))
              / cast(greatest(length(text), 1) AS DOUBLE) <= 0.3
        AND length(regexp_replace(text, '\s+', '', 'g'))
              / cast(greatest(
                  CASE WHEN text IS NULL OR trim(text) = '' THEN 0
                       ELSE len(regexp_split_to_array(trim(text), '\s+')) END,
                  1) AS DOUBLE) >= 2.0
    ),
    w AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '[a-zàâçéèêëîïôûùüÿñæœäöüß]+')) AS word
      FROM q),
    prof(lang, prio, word) AS (VALUES
      ('en',0,'the'),('en',0,'and'),('en',0,'of'),('en',0,'to'),
      ('en',0,'a'),('en',0,'in'),('en',0,'is'),('en',0,'it'),
      ('en',0,'that'),('en',0,'was'),
      ('fr',1,'le'),('fr',1,'la'),('fr',1,'les'),('fr',1,'de'),
      ('fr',1,'des'),('fr',1,'et'),('fr',1,'est'),('fr',1,'une'),
      ('fr',1,'dans'),('fr',1,'que'),
      ('de',2,'der'),('de',2,'die'),('de',2,'das'),('de',2,'und'),
      ('de',2,'ist'),('de',2,'ein'),('de',2,'eine'),('de',2,'nicht'),
      ('de',2,'mit'),('de',2,'zu'),
      ('es',3,'el'),('es',3,'la'),('es',3,'los'),('es',3,'de'),
      ('es',3,'y'),('es',3,'es'),('es',3,'una'),('es',3,'en'),
      ('es',3,'que'),('es',3,'por')),
    hits AS (
      SELECT w.doc_id, p.lang, p.prio, count(*) AS h
      FROM w JOIN prof p ON p.word = w.word
      GROUP BY w.doc_id, p.lang, p.prio),
    best AS (
      SELECT doc_id, lang,
             row_number() OVER (PARTITION BY doc_id
                                ORDER BY h DESC, prio ASC) AS rn
      FROM hits),
    lng AS (
      SELECT q.doc_id, coalesce(b.lang, 'unknown') AS lang_pred
      FROM q LEFT JOIN (SELECT * FROM best WHERE rn = 1) b
        ON b.doc_id = q.doc_id),
    ex AS (SELECT min(doc_id) AS doc_id FROM q GROUP BY sha256(text)),
    ed AS (SELECT d.doc_id, d.text, d.n_tokens FROM q d JOIN ex USING (doc_id)),
    {_shingle_pairs_sql("ed", 0.5)},
    {_COMPONENTS_SQL}
    SELECT e.doc_id, e.n_tokens, l.lang_pred,
           CAST(c.lbl AS DOUBLE) AS dup_cluster_id
    FROM ed e
    JOIN lng l ON l.doc_id = e.doc_id
    LEFT JOIN clus c ON c.doc_id = e.doc_id
    WHERE c.lbl IS NULL OR c.lbl = e.doc_id
"""


# ---------------------------------------------------------------------------
# round-3 session-4 additions: LEAD window, quota sampling, dense rank,
# grouped linear regression
# ---------------------------------------------------------------------------


def q_next_event_gap(sf_dir: str):
    """Per-key LEAD window: each event joined with its successor's type
    and the exact integer-µs gap to it (LEAD(...) OVER (PARTITION BY
    user ORDER BY event_id)). One keyed exchange; the lead is a
    vectorized groupby shift inside the partition — at 100 TB this is
    the same single co-partition shuffle every keyed window here uses,
    never a self-join."""
    ds = _events(sf_dir, columns=["event_id", "ts", "user_id", "event_type"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("user_id", sort=False)
        nxt_ts = g["ts"].shift(-1)
        nxt_ty = g["event_type"].shift(-1)
        keep = nxt_ts.notna().to_numpy()
        gap = (
            nxt_ts.to_numpy()[keep].astype("datetime64[us]").astype("int64")
            - pdf["ts"].to_numpy()[keep].astype("datetime64[us]").astype("int64")
        )
        return pd.DataFrame(
            {
                "event_id": pdf["event_id"].to_numpy()[keep],
                "user_id": pdf["user_id"].to_numpy()[keep],
                "next_type": nxt_ty.to_numpy()[keep],
                "gap_us": gap,
            }
        )

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn, num_partitions=NP
    )


def q_source_quota_sample(sf_dir: str):
    """Per-domain quota sampling (training-data curation: cap any one
    source's contribution). Keeps at most K docs per source, elected by
    a DETERMINISTIC splitmix64 hash of doc_id — an unbiased sample that
    is reproducible across runs/retries and needs no RNG state. One
    keyed exchange; the per-source head() is vectorized."""
    from arlas_proc_ray.cdc.events import _splitmix64

    K = 15
    ds = _docs(sf_dir, columns=["doc_id", "source"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        h = _splitmix64(pdf["doc_id"].to_numpy().astype(np.uint64))
        pdf = pdf.assign(_h=h).sort_values(
            ["source", "_h", "doc_id"], kind="mergesort"
        )
        return pdf.groupby("source", sort=False).head(K)[["doc_id", "source"]]

    return keyed_partition_map(
        ds, keys=["source"], order_col="doc_id", fn=fn, num_partitions=NP
    )


def q_user_spend_rank(sf_dir: str):
    """DENSE_RANK of users by total spend within each event_type.

    Combiner-first: every batch collapses to (type, user) partial sums
    in exact integer cents BEFORE the one keyed exchange; the dense
    rank is a vectorized in-partition groupby rank over the aggregated
    (small) domain — the fact table itself is never re-shuffled."""
    ds = _events(sf_dir, columns=["user_id", "event_type", "value"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        return (
            pdf.assign(_c=_cents(pdf["value"]))
            .groupby(["event_type", "user_id"], sort=False)["_c"]
            .sum()
            .reset_index()
            .rename(columns={"_c": "spend_cents"})
        )

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=None)

    def fin(pdf: pd.DataFrame) -> pd.DataFrame:
        s = (
            pdf.groupby(["event_type", "user_id"], sort=False, as_index=False)[
                "spend_cents"
            ].sum()
        )
        s["spend_rank"] = (
            s.groupby("event_type", sort=False)["spend_cents"]
            .rank(method="dense", ascending=False)
            .astype("int64")
        )
        return s

    return keyed_partition_map(
        partials, keys=["event_type"], order_col="user_id", fn=fin,
        num_partitions=NP,
    )


def q_value_trend(sf_dir: str):
    """Grouped least-squares regression (slope + intercept) of event
    value-cents against event time in epoch-HOURS, from EXACT integer
    moments: per-batch int64 partials (hour-scale x keeps Σx² in-range),
    Python-int merge (overflow-free at any corpus size), one
    double-from-exact-int expression at the end — bitwise-identical to
    the SQL oracle's HUGEINT computation."""
    ds = _events(sf_dir, columns=["ts", "event_type", "value"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        x = (
            pdf["ts"].to_numpy().astype("datetime64[us]").astype("int64")
            // 3_600_000_000
        )
        y = _cents(pdf["value"]).to_numpy()
        tmp = pd.DataFrame(
            {
                "event_type": pdf["event_type"].to_numpy(),
                "_x": x,
                "_y": y,
                "_xy": x * y,
                "_xx": x * x,
            }
        )
        g = tmp.groupby("event_type", sort=False)
        out = pd.DataFrame(
            {
                "n": g.size(),
                "sx": g["_x"].sum(),
                "sy": g["_y"].sum(),
                "sxy": g["_xy"].sum(),
                "sxx": g["_xx"].sum(),
            }
        ).reset_index()
        for c in ("n", "sx", "sy", "sxy", "sxx"):
            out[c] = out[c].astype(np.int64)
        return out

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=None)
    cols = ["n", "sx", "sy", "sxy", "sxx"]

    def finalize(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.copy()
        pdf[cols] = pdf[cols].astype(object)  # Python-int exact merge
        m = pdf.groupby("event_type", sort=False, as_index=False)[cols].sum()
        num = m["n"] * m["sxy"] - m["sx"] * m["sy"]
        den = m["n"] * m["sxx"] - m["sx"] * m["sx"]
        slope = [float(a) / float(b) for a, b in zip(num, den)]
        icept = [
            (float(sy) - sl * float(sx)) / float(n)
            for sy, sl, sx, n in zip(m["sy"], slope, m["sx"], m["n"])
        ]
        return pd.DataFrame(
            {
                "event_type": m["event_type"],
                "n": m["n"].astype("int64"),
                "slope_cents_per_hour": slope,
                "intercept_cents": icept,
            }
        )

    return keyed_partition_map(
        partials, keys=["event_type"], order_col="n", fn=finalize,
        num_partitions=NP,
    )


QUERIES["next_event_gap"] = q_next_event_gap
QUERIES["source_quota_sample"] = q_source_quota_sample
QUERIES["user_spend_rank"] = q_user_spend_rank
QUERIES["value_trend"] = q_value_trend

ORACLE_SQL["next_event_gap"] = """
    WITH w AS (
      SELECT event_id, user_id, ts,
             lead(event_type) OVER (PARTITION BY user_id
                                    ORDER BY event_id) AS next_type,
             lead(ts) OVER (PARTITION BY user_id
                            ORDER BY event_id) AS next_ts
      FROM events)
    SELECT event_id, user_id, next_type,
           CAST(epoch_us(next_ts) - epoch_us(ts) AS BIGINT) AS gap_us
    FROM w WHERE next_ts IS NOT NULL
"""

_SQS_C2 = 0xBF58476D1CE4E5B9
_SQS_C3 = 0x94D049BB133111EB
ORACLE_SQL["source_quota_sample"] = f"""
    WITH s0 AS (
      SELECT doc_id, source,
             (doc_id::HUGEINT + 11400714819323198485::HUGEINT)
               % {_M64_SQL} AS z
      FROM documents),
    s1 AS (SELECT doc_id, source,
                  {_sql_mulmod64("xor(z, z >> 30)", _SQS_C2)} AS z FROM s0),
    s2 AS (SELECT doc_id, source,
                  {_sql_mulmod64("xor(z, z >> 27)", _SQS_C3)} AS z FROM s1),
    h AS (SELECT doc_id, source, xor(z, z >> 31) AS z FROM s2)
    SELECT doc_id, source FROM h
    QUALIFY row_number() OVER (PARTITION BY source ORDER BY z, doc_id) <= 15
"""

ORACLE_SQL["user_spend_rank"] = """
    WITH s AS (
      SELECT event_type, user_id,
             CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
               AS spend_cents
      FROM events GROUP BY 1, 2)
    SELECT event_type, user_id, spend_cents,
           CAST(dense_rank() OVER (PARTITION BY event_type
                                   ORDER BY spend_cents DESC) AS BIGINT)
             AS spend_rank
    FROM s
"""

ORACLE_SQL["value_trend"] = """
    WITH c AS (
      SELECT event_type,
             epoch_us(ts) // 3600000000 AS x,
             CAST(round(value * 100) AS BIGINT) AS y
      FROM events),
    m AS (SELECT event_type, count(*) AS n,
                 sum(x) AS sx, sum(y) AS sy,
                 sum(x * y) AS sxy, sum(x * x) AS sxx
          FROM c GROUP BY 1)
    SELECT event_type, CAST(n AS BIGINT) AS n,
           CAST(n * sxy - sx * sy AS DOUBLE)
             / CAST(n * sxx - sx * sx AS DOUBLE) AS slope_cents_per_hour,
           (CAST(sy AS DOUBLE)
            - (CAST(n * sxy - sx * sy AS DOUBLE)
               / CAST(n * sxx - sx * sx AS DOUBLE)) * CAST(sx AS DOUBLE))
             / CAST(n AS DOUBLE) AS intercept_cents
    FROM m
"""


# ---------------------------------------------------------------------------
# partial-image PATCH upsert (cdc/patch.py) — SQL-oracled
# ---------------------------------------------------------------------------


def q_cdc_patch_upsert(sf_dir: str):
    """Partial-image PATCH upsert over an events-derived changelog.

    Derivation (mirrored bit-for-bit in the DuckDB oracle): with
    m = event_id % 10 → m=0 DELETE, m=1–4 UPDATE (full image: value AND
    props), m=5–7 PATCH touching value only, m=8–9 PATCH touching props
    only; key=user_id, LSN=event_id. NULL columns of a PATCH mean
    "untouched" (cdc/patch.py contract). Runs the REAL kernels end to
    end: adaptive pre-shuffle combiner (patch-safe prune) per batch, ONE
    keyed exchange, per-partition vectorized overlay fold.
    """
    from arlas_proc_ray.cdc.patch import patch_fold_table
    from arlas_proc_ray.cdc.replay import lww_reduce_table
    from arlas_proc_ray.functions.hashing import partition_ids

    ds = _events(sf_dir, columns=["event_id", "user_id", "value", "props"])

    def to_changelog(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy()
        m = eid % 10
        op = np.where(m == 0, "DELETE", np.where(m <= 4, "UPDATE", "PATCH"))
        value = t.column("value").to_numpy(zero_copy_only=False)
        props = t.column("props").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "lsn": t.column("event_id"),
                "op": pa.array(op.astype(object), pa.string()),
                "value": pa.array(
                    value, pa.float64(), mask=~((m >= 1) & (m <= 7))
                ),
                "props": pa.array(
                    props, pa.string(), mask=~(((m >= 1) & (m <= 4)) | (m >= 8))
                ),
            }
        )

    ds = ds.map_batches(to_changelog, batch_format="pyarrow", batch_size=None)
    # adaptive combiner: dispatches to the patch-safe prune (patch rows
    # survive the pre-shuffle reduction unfolded)
    ds = ds.map_batches(
        lambda t: lww_reduce_table(t, ["user_id"], "lsn"), batch_format="pyarrow"
    , batch_size=None)

    def add_part(t: pa.Table) -> pa.Table:
        pid = partition_ids(t, ["user_id"], NP)
        return t.append_column("_part", pa.array(pid, pa.int32()))

    ds = ds.map_batches(add_part, batch_format="pyarrow", batch_size=None)

    def finalize(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["_part"])
        folded = patch_fold_table(g, ["user_id"], "lsn")
        live = folded.filter(
            pc.invert(
                pc.is_in(
                    folded.column("op"),
                    value_set=pa.array(["DELETE", "PATCH"], pa.string()),
                )
            )
        )
        return pa.table(
            {
                "user_id": live.column("user_id"),
                "last_lsn": live.column("lsn"),
                "last_value": live.column("value"),
                "last_props": live.column("props"),
            }
        )

    return ds.groupby("_part").map_groups(finalize, batch_format="pyarrow")


QUERIES["cdc_patch_upsert"] = q_cdc_patch_upsert
ORACLE_SQL["cdc_patch_upsert"] = """
    WITH ev AS (
      SELECT event_id AS lsn, user_id,
             CASE WHEN event_id % 10 = 0 THEN 'DELETE'
                  WHEN event_id % 10 <= 4 THEN 'UPDATE'
                  ELSE 'PATCH' END AS op,
             CASE WHEN event_id % 10 BETWEEN 1 AND 7 THEN value END AS value,
             CASE WHEN event_id % 10 BETWEEN 1 AND 4 OR event_id % 10 >= 8
                  THEN props END AS props
      FROM events),
    b AS (SELECT user_id, max(lsn) FILTER (WHERE op <> 'PATCH') AS b_lsn
          FROM ev GROUP BY user_id)
    SELECT ev.user_id,
           max(ev.lsn) AS last_lsn,
           arg_max(ev.value, ev.lsn) FILTER (WHERE ev.value IS NOT NULL)
             AS last_value,
           arg_max(ev.props, ev.lsn) FILTER (WHERE ev.props IS NOT NULL)
             AS last_props
    FROM ev JOIN b USING (user_id)
    WHERE b.b_lsn IS NOT NULL AND ev.lsn >= b.b_lsn
    GROUP BY ev.user_id
    HAVING arg_max(ev.op, ev.lsn) FILTER (WHERE ev.op <> 'PATCH') <> 'DELETE'
"""


# ---------------------------------------------------------------------------
# incrementally-maintained materialized view (cdc/views.py) — SQL-oracled
# ---------------------------------------------------------------------------


def q_materialized_view(sf_dir: str):
    """Store-resident materialized view maintained by DELTA PROPAGATION
    (cdc/views.py): per-path live-row count + content-size sum of the
    events-derived engine snapshot, bootstrapped at epoch 1 and then
    REFRESHED to epoch 2 by folding signed I/U/D deltas from shuffle-free
    per-partition epoch diffs — the state table is never re-aggregated
    (the DuckDB oracle recomputes the GROUP BY from scratch; matching
    proves the fold). Reference parity: ARLAS-proc recomputes every
    aggregate per run (fragments/FragmentSummaryTransformer.scala); this
    is the CDC-native replacement."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.views import refresh_group_view

    snap = tempfile.mkdtemp(prefix="materialized_view_")
    try:
        eng, _ = _events_engine_snapshot(sf_dir, snap)
        refresh_group_view(
            eng.store, view_id="by_path", group_cols=["path"],
            sum_cols=["content_size"], epoch=1,
        )
        r = refresh_group_view(
            eng.store, view_id="by_path", group_cols=["path"],
            sum_cols=["content_size"], epoch=2,
        )
        assert r["mode"] == "incremental"
        return r["state"]
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["materialized_view"] = q_materialized_view
ORACLE_SQL["materialized_view"] = """
    WITH ch AS (
      SELECT event_id AS lsn,
             CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
             'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
             event_type AS path,
             props AS content
      FROM events),
    last AS (
      SELECT *, row_number() OVER (PARTITION BY repo, path
                                   ORDER BY lsn DESC) AS rn
      FROM ch)
    SELECT path,
           CAST(count(*) AS BIGINT) AS n_live,
           CAST(sum(length(content)) AS BIGINT) AS content_size_sum
    FROM last WHERE rn = 1 AND op <> 'DELETE'
    GROUP BY path
"""


# ---------------------------------------------------------------------------
# change data feed between epochs (cdc/feed.py) — SQL-oracled
# ---------------------------------------------------------------------------


def q_change_feed(sf_dir: str):
    """Delta-CDF-shaped change data feed (cdc/feed.py): the I/U/D
    changelog between epoch 1 and epoch 2 of the events-derived engine
    snapshot, with old_<col> pre-images — per-partition shuffle-free
    diffs, manifest pruning, nothing resident. I/U rows carry the new
    image, D rows the final old image; pre-images are NULL on I (the
    oracle encodes the same contract with a FULL OUTER JOIN of the two
    LWW states). Reference parity: ARLAS-proc can only re-ship a full
    run output; this ships what changed."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.feed import change_feed

    cols = ["content_sha256", "last_lsn"]
    snap = tempfile.mkdtemp(prefix="change_feed_")
    try:
        eng, _ = _events_engine_snapshot(sf_dir, snap)
        ds = change_feed(
            eng.store, base=1, target=2,
            compare_cols=cols, columns=cols, include_old=cols,
        )

        def finish(pdf):
            if not len(pdf):
                return pdf.iloc[:0][
                    ["repo", "path", "op", "content_sha256", "last_lsn",
                     "old_content_sha256", "old_last_lsn"]
                ]
            # NULL pre-image LSN on I rows -> -1 (keeps the column int64;
            # the oracle coalesces identically)
            pdf = pdf.copy()
            pdf["old_last_lsn"] = (
                pdf["old_last_lsn"].fillna(-1).astype("int64")
            )
            pdf["old_content_sha256"] = pdf["old_content_sha256"].where(
                pdf["old_content_sha256"].notna(), None
            ).astype(object)
            return pdf[
                ["repo", "path", "op", "content_sha256", "last_lsn",
                 "old_content_sha256", "old_last_lsn"]
            ]

        return ds.map_batches(finish, batch_format="pandas", batch_size=None).to_pandas()
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["change_feed"] = q_change_feed
ORACLE_SQL["change_feed"] = """
    WITH ch AS (
      SELECT event_id AS lsn,
             CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
             'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
             event_type AS path,
             props AS content
      FROM events),
    mid AS (SELECT max(lsn) // 2 AS m FROM ch),
    s1 AS (
      SELECT repo, path, sha256(content) AS sha, lsn FROM (
        SELECT ch.*, row_number() OVER (PARTITION BY repo, path
                                        ORDER BY lsn DESC) AS rn
        FROM ch, mid WHERE ch.lsn <= mid.m)
      WHERE rn = 1 AND op <> 'DELETE'),
    s2 AS (
      SELECT repo, path, sha256(content) AS sha, lsn FROM (
        SELECT ch.*, row_number() OVER (PARTITION BY repo, path
                                        ORDER BY lsn DESC) AS rn
        FROM ch)
      WHERE rn = 1 AND op <> 'DELETE')
    SELECT coalesce(s2.repo, s1.repo) AS repo,
           coalesce(s2.path, s1.path) AS path,
           CASE WHEN s1.repo IS NULL THEN 'I'
                WHEN s2.repo IS NULL THEN 'D' ELSE 'U' END AS op,
           CASE WHEN s2.repo IS NULL THEN s1.sha ELSE s2.sha END
             AS content_sha256,
           CAST(CASE WHEN s2.repo IS NULL THEN s1.lsn ELSE s2.lsn END
                AS BIGINT) AS last_lsn,
           s1.sha AS old_content_sha256,
           CAST(coalesce(s1.lsn, -1) AS BIGINT) AS old_last_lsn
    FROM s1 FULL JOIN s2 ON s1.repo = s2.repo AND s1.path = s2.path
    WHERE s1.repo IS NULL OR s2.repo IS NULL
       OR s1.sha <> s2.sha OR s1.lsn <> s2.lsn
"""


def q_dup_groups_view(sf_dir: str):
    """Exact-duplicate groups maintained INCREMENTALLY (cdc/views.py over
    content_sha256): bootstrap the per-content-hash live-count view at
    epoch 1, delta-refresh to epoch 2, keep groups with >= 2 live rows —
    cross-key duplicate detection that never re-aggregates the state
    (the oracle recomputes GROUP BY sha from the final LWW state)."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.views import refresh_group_view

    snap = tempfile.mkdtemp(prefix="dup_groups_view_")
    try:
        eng, _ = _events_engine_snapshot(sf_dir, snap)
        refresh_group_view(
            eng.store, view_id="dups", group_cols=["content_sha256"], epoch=1,
        )
        r = refresh_group_view(
            eng.store, view_id="dups", group_cols=["content_sha256"], epoch=2,
        )
        assert r["mode"] == "incremental"
        state = r["state"]
        return state[state["n_live"] >= 2].reset_index(drop=True)
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["dup_groups_view"] = q_dup_groups_view
ORACLE_SQL["dup_groups_view"] = """
    WITH ch AS (
      SELECT event_id AS lsn,
             CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
             'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
             event_type AS path,
             props AS content
      FROM events),
    last AS (
      SELECT *, row_number() OVER (PARTITION BY repo, path
                                   ORDER BY lsn DESC) AS rn
      FROM ch)
    SELECT sha256(content) AS content_sha256,
           CAST(count(*) AS BIGINT) AS n_live
    FROM last WHERE rn = 1 AND op <> 'DELETE'
    GROUP BY 1 HAVING count(*) >= 2
"""


def q_incremental_near_dup(sf_dir: str):
    """Incrementally-maintained LSH near-dup index (dedup/incremental.py):
    documents doc_id<150 are ingested as epoch 1 and indexed; doc_id in
    [150,300) arrive as epoch 2, the index refreshes from the change feed
    (signing ONLY the new docs), and the probe answers "which epoch-2
    docs are near-dups of anything in the corpus" without re-scanning or
    re-signing epoch 1. Exact-Jaccard verified (threshold 0.5, classic
    signatures — short-doc fixture, see q_minhash_near_dup). Rows-only
    driver check; the pytest Python oracle
    (test_incremental_neardup.py::test_catalog_query_matches_batch_minhash)
    proves pair-for-pair equality with the from-scratch batch pipeline."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1
    from arlas_proc_ray.dedup.incremental import (
        epoch_near_duplicates,
        refresh_neardup_index,
    )
    from arlas_proc_ray.model import DataModel

    ds = _docs(sf_dir, columns=["doc_id", "text"]).filter(expr="doc_id < 300")

    def to_events(t: pa.Table) -> pa.Table:
        did = pc.cast(t.column("doc_id"), pa.int64())
        n = t.num_rows
        return pa.Table.from_arrays(
            [
                did,
                pa.array(["UPDATE"] * n, pa.string()),
                pc.cast(did, pa.string()),
                pa.array(["d"] * n, pa.string()),
                pc.cast(did, pa.string()),
                pa.array(["txt"] * n, pa.string()),
                pc.cast(t.column("text"), pa.string()),
                pa.array(np.ones(n, np.int32)),
                did,
            ],
            schema=EVENT_SCHEMA_V1,
        )

    ev = ds.map_batches(to_events, batch_format="pyarrow", batch_size=None).materialize()
    idx = dict(num_perm=128, bands=32, ngram=5, algo="classic",
               num_partitions=8)
    snap = tempfile.mkdtemp(prefix="incremental_near_dup_")
    try:
        eng = CdcEngine(snap, DataModel(num_partitions=8))
        eng.apply_epoch(ev.filter(expr="lsn < 150"), 1)
        refresh_neardup_index(eng.store, index_id="docs", **idx)
        eng.apply_epoch(ev.filter(expr="lsn >= 150"), 2)
        r = refresh_neardup_index(eng.store, index_id="docs", **idx)
        assert r["mode"] == "incremental"
        pairs = epoch_near_duplicates(
            eng.store, index_id="docs", base=1, target=2,
            jaccard_threshold=0.5,
        ).to_pandas()
        if not len(pairs):
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype=np.int64),
                 "doc_b": pd.Series([], dtype=np.int64),
                 "jaccard": pd.Series([], dtype=np.float64)}
            )
        a = pairs["doc_a"].str.split("#").str[0].astype(np.int64)
        b = pairs["doc_b"].str.split("#").str[0].astype(np.int64)
        out = pd.DataFrame(
            {"doc_a": np.minimum(a, b), "doc_b": np.maximum(a, b),
             "jaccard": pairs["jaccard"].to_numpy()}
        )
        return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["incremental_near_dup"] = q_incremental_near_dup


def q_incremental_ann_search(sf_dir: str):
    """Incrementally-maintained IVF vector index (ann/incremental.py):
    embeddings vec_id<200 are ingested as epoch 1 (vectors ride the CDC
    store's string payload as base64 float32) and indexed; vec_id in
    [200,400) arrive as epoch 2 and the index refreshes from the change
    feed (assigning ONLY the new vectors against the pinned bootstrap
    centroids). The search probes n_probe == n_centroids — exact brute
    force over the indexed corpus, so DuckDB's list_cosine_similarity
    over the same 400 vectors is a hash-exact oracle (rank on
    full-precision sims, round output to 6dp, vec_id tie-break)."""
    import shutil
    import tempfile

    from arlas_proc_ray.ann.incremental import (
        encode_vec_f32,
        refresh_vector_index,
        vector_index_topk,
    )
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1
    from arlas_proc_ray.model import DataModel

    ds = _rp(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]) \
        .filter(expr="vec_id < 400")

    def to_events(t: pa.Table) -> pa.Table:
        from arlas_proc_ray.ann.search import _as_matrix

        vid = pc.cast(t.column("vec_id"), pa.int64())
        enc = encode_vec_f32(_as_matrix(t.column("embedding")))
        n = t.num_rows
        return pa.Table.from_arrays(
            [
                vid,
                pa.array(["UPDATE"] * n, pa.string()),
                pc.cast(vid, pa.string()),
                pa.array(["v"] * n, pa.string()),
                pc.cast(vid, pa.string()),
                pa.array(["vec"] * n, pa.string()),
                pa.array(enc, pa.string()),
                pa.array(np.ones(n, np.int32)),
                vid,
            ],
            schema=EVENT_SCHEMA_V1,
        )

    ev = ds.map_batches(to_events, batch_format="pyarrow", batch_size=None).materialize()
    idx = dict(n_centroids=8, num_partitions=4, train_sample=512, seed=17)
    ids, qmat = _query_vectors(sf_dir, 5)
    snap = tempfile.mkdtemp(prefix="incremental_ann_")
    try:
        eng = CdcEngine(snap, DataModel(num_partitions=4))
        eng.apply_epoch(ev.filter(expr="lsn < 200"), 1)
        refresh_vector_index(eng.store, index_id="emb", **idx)
        eng.apply_epoch(ev.filter(expr="lsn >= 200"), 2)
        r = refresh_vector_index(eng.store, index_id="emb", **idx)
        assert r["mode"] == "incremental"
        hits = vector_index_topk(
            eng.store, ids, qmat, index_id="emb", k=3, n_probe=8,
        )
        return pd.DataFrame(
            {
                "query_id": hits["query_id"].astype(np.int64),
                "vec_id": hits["key"].str.split("#").str[0].astype(np.int64),
                "cos_sim": hits["cos_sim"].round(6),
            }
        ).sort_values(["query_id", "vec_id"]).reset_index(drop=True)
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["incremental_ann_search"] = q_incremental_ann_search

ORACLE_SQL["incremental_ann_search"] = """
    WITH d AS (SELECT vec_id,
                      list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
               FROM embeddings WHERE vec_id < 400)
    SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
           round(list_cosine_similarity(q.emb, e.emb), 6) AS cos_sim
    FROM d e
    CROSS JOIN (SELECT * FROM d WHERE vec_id < 5) q
    QUALIFY row_number() OVER (
        PARTITION BY q.vec_id
        ORDER BY list_cosine_similarity(q.emb, e.emb) DESC,
                 e.vec_id ASC) <= 3
"""


def _orders_as_events(sf_dir: str, *, limit_key: int):
    """orders rows → CDC events: key (o_orderkey,'o'), fk=o_custkey rides
    the lang payload column, o_orderpriority rides content."""
    from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1

    ds = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderpriority"],
    ).filter(expr=f"o_orderkey < {limit_key}")

    def to_events(t: pa.Table) -> pa.Table:
        ok = pc.cast(t.column("o_orderkey"), pa.int64())
        n = t.num_rows
        return pa.Table.from_arrays(
            [
                ok,
                pa.array(["UPDATE"] * n, pa.string()),
                pc.cast(ok, pa.string()),
                pa.array(["o"] * n, pa.string()),
                pc.cast(ok, pa.string()),
                pc.cast(t.column("o_custkey"), pa.string()),
                pc.cast(t.column("o_orderpriority"), pa.string()),
                pa.array(np.ones(n, np.int32)),
                ok,
            ],
            schema=EVENT_SCHEMA_V1,
        )

    return ds.map_batches(to_events, batch_format="pyarrow", batch_size=None).materialize()


def q_secondary_lookup(sf_dir: str):
    """Incrementally-maintained secondary (value→key) index
    (cdc/secondary.py): orders o_orderkey<600 ingest as epoch 1 and the
    index on the priority payload bootstraps; o_orderkey in [600,1200)
    arrive as epoch 2 and the index refreshes from the change feed
    (indexing ONLY the changed rows). lookup_keys('1-URGENT') then reads
    ONLY the partitions that value hashes into — hash-exact against a
    SQL WHERE over the same rows."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.secondary import (
        lookup_keys,
        refresh_secondary_index,
    )
    from arlas_proc_ray.model import DataModel

    ev = _orders_as_events(sf_dir, limit_key=1200)
    snap = tempfile.mkdtemp(prefix="secondary_lookup_")
    try:
        eng = CdcEngine(snap, DataModel(num_partitions=4))
        eng.apply_epoch(ev.filter(expr="lsn < 600"), 1)
        refresh_secondary_index(
            eng.store, index_id="prio", value_col="content",
            num_partitions=8,
        )
        eng.apply_epoch(ev.filter(expr="lsn >= 600"), 2)
        r = refresh_secondary_index(
            eng.store, index_id="prio", value_col="content",
            num_partitions=8,
        )
        assert r["mode"] == "incremental"
        hit = lookup_keys(
            eng.store, ["1-URGENT"], index_id="prio", expect_epoch=2
        )
        return pd.DataFrame(
            {
                "o_orderkey": hit["key"].str.split("#").str[0]
                .astype(np.int64),
                "o_orderpriority": hit["val"].astype(object),
            }
        ).sort_values("o_orderkey").reset_index(drop=True)
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["secondary_lookup"] = q_secondary_lookup

ORACLE_SQL["secondary_lookup"] = """
    SELECT o_orderkey, o_orderpriority
    FROM orders
    WHERE o_orderkey < 1200 AND o_orderpriority = '1-URGENT'
    ORDER BY o_orderkey
"""


def q_incremental_join_view(sf_dir: str):
    """Incrementally-maintained materialized JOIN view (cdc/joinview.py):
    orders (fact, fk = o_custkey) and customer (dimension) ingest as two
    CDC stores over two epochs each — orders split by key range,
    customers by key range (<100 then the rest) — and the view orders⟕customer refreshes
    by delta propagation (ΔA via pruned B point lookups, ΔB via the fk
    secondary index; never a re-join of the tables). Hash-exact against
    the SQL LEFT JOIN. The epoch-2 refresh is asserted incremental on
    BOTH sides."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1
    from arlas_proc_ray.cdc.joinview import read_join_view, refresh_join_view
    from arlas_proc_ray.model import DataModel

    a_ev = _orders_as_events(sf_dir, limit_key=1200)

    cust = _rp(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )

    def to_b_events(t: pa.Table) -> pa.Table:
        ck = pc.cast(t.column("c_custkey"), pa.int64())
        n = t.num_rows
        return pa.Table.from_arrays(
            [
                ck,
                pa.array(["UPDATE"] * n, pa.string()),
                pc.cast(ck, pa.string()),
                pa.array(["d"] * n, pa.string()),
                pc.cast(ck, pa.string()),
                pa.array(["seg"] * n, pa.string()),
                pc.cast(t.column("c_mktsegment"), pa.string()),
                pa.array(np.ones(n, np.int32)),
                ck,
            ],
            schema=EVENT_SCHEMA_V1,
        )

    b_ev = cust.map_batches(to_b_events, batch_format="pyarrow", batch_size=None).materialize()

    snap = tempfile.mkdtemp(prefix="incremental_join_")
    view = dict(fk_col="language", a_cols=["content"],
                b_cols=["content"], num_partitions=8)
    try:
        ea = CdcEngine(os.path.join(snap, "a"), DataModel(num_partitions=4))
        eb = CdcEngine(
            os.path.join(snap, "b"),
            DataModel(key_cols=("repo",), num_partitions=4),
        )
        ea.apply_epoch(a_ev.filter(expr="lsn < 600"), 1)
        eb.apply_epoch(b_ev.filter(expr="lsn < 100"), 1)
        refresh_join_view(ea, eb, view_id="oc", **view)
        ea.apply_epoch(a_ev.filter(expr="lsn >= 600"), 2)
        eb.apply_epoch(b_ev.filter(expr="lsn >= 100"), 2)
        r = refresh_join_view(ea, eb, view_id="oc", **view)
        assert r["mode"] == "incremental" and r["b_epoch"] == 2
        v = read_join_view(ea.store, "oc")
        return pd.DataFrame(
            {
                "o_orderkey": v["key"].str.split("#").str[0].astype(np.int64),
                "o_custkey": v["language"].astype(np.int64),
                "o_orderpriority": v["content"].astype(object),
                "c_mktsegment": v["b_content"].astype(object),
            }
        ).sort_values("o_orderkey").reset_index(drop=True)
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["incremental_join_view"] = q_incremental_join_view

ORACLE_SQL["incremental_join_view"] = """
    SELECT o.o_orderkey, o.o_custkey, o.o_orderpriority, c.c_mktsegment
    FROM orders o
    LEFT JOIN customer c ON o.o_custkey = c.c_custkey
    WHERE o.o_orderkey < 1200
    ORDER BY o.o_orderkey
"""


def q_wire_roundtrip(sf_dir: str):
    """Debezium JSON wire roundtrip (cdc/wire.py): export the
    events-derived changelog as Debezium envelopes (vectorized C-escaped
    encode), decode it back through the C++ JSON fast path, and return
    the change stream — which must equal the changelog itself (oracle:
    the plain SQL events→changelog mapping). Exercises both wire
    directions end-to-end on real string content (props JSON)."""
    from arlas_proc_ray.cdc.wire import decode_debezium, encode_debezium

    decoded = decode_debezium(encode_debezium(_events_changelog(sf_dir)))
    return decoded.select_columns(["lsn", "op", "repo", "path", "content"])


QUERIES["wire_roundtrip"] = q_wire_roundtrip

ORACLE_SQL["wire_roundtrip"] = """
    SELECT event_id AS lsn,
           CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
           'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
           event_type AS path,
           props AS content
    FROM events
"""


def q_merge_upsert(sf_dir: str):
    """MERGE INTO the events-derived snapshot (cdc/merge.py): a source of
    even-user keys with replacement content upserts (WHEN MATCHED UPDATE /
    WHEN NOT MATCHED INSERT) through the fenced epoch path. Oracle: source
    image UNION target-rows-not-in-source over the SQL LWW state."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.merge import merge_into

    snap = tempfile.mkdtemp(prefix="merge_upsert_")
    try:
        eng, _ = _events_engine_snapshot(sf_dir, snap)

        ev = _events(sf_dir, columns=["user_id", "event_type"])

        def to_source(t: pa.Table) -> pa.Table:
            uid = t.column("user_id")
            keep = pc.equal(
                pc.subtract(uid, pc.multiply(pc.divide(uid, 2), 2)),
                pa.scalar(0, uid.type),
            )
            t = t.filter(keep)
            uid = t.column("user_id")
            mod = pc.subtract(uid, pc.multiply(pc.divide(uid, 200), 200))
            repo = pc.binary_join_element_wise(
                "u", pc.cast(mod, pa.string()), ""
            )
            path = pc.cast(t.column("event_type"), pa.string())
            content = pc.binary_join_element_wise("M:", repo, "/", path, "")
            return pa.table(
                {
                    "repo": repo,
                    "path": path,
                    "commit": pa.array(["m"] * t.num_rows, pa.string()),
                    "language": pa.array(["x"] * t.num_rows, pa.string()),
                    "content": content,
                    "lsn": pc.add(pc.cast(mod, pa.int64()), pa.scalar(1_000_000)),
                }
            )

        src = ev.map_batches(to_source, batch_format="pyarrow", batch_size=None)
        merge_into(eng, src, epoch=3)
        out = eng.final_state()
        return out.to_pandas() if hasattr(out, "to_pandas") else out
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["merge_upsert"] = q_merge_upsert

ORACLE_SQL["merge_upsert"] = """
    WITH ch AS (
      SELECT event_id AS lsn,
             CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
             'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
             event_type AS path,
             CAST(event_id AS VARCHAR) AS commit_id,
             event_type AS language,
             props AS content
      FROM events),
    last AS (
      SELECT *, row_number() OVER (PARTITION BY repo, path
                                   ORDER BY lsn DESC) AS rn
      FROM ch),
    tgt AS (
      SELECT repo, path, commit_id, language, content,
             CAST(length(content) AS BIGINT) AS content_size,
             sha256(content) AS content_sha256,
             lsn AS last_lsn
      FROM last WHERE rn = 1 AND op <> 'DELETE'),
    src AS (
      SELECT DISTINCT
             'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
             event_type AS path,
             1000000 + (user_id % 200) AS lsn
      FROM events WHERE user_id % 2 = 0)
    SELECT s.repo, s.path, 'm' AS "commit", 'x' AS language,
           'M:' || s.repo || '/' || s.path AS content,
           CAST(length('M:' || s.repo || '/' || s.path) AS BIGINT)
             AS content_size,
           sha256('M:' || s.repo || '/' || s.path) AS content_sha256,
           s.lsn AS last_lsn
    FROM src s
    UNION ALL
    SELECT t.repo, t.path, t.commit_id AS "commit", t.language, t.content,
           t.content_size, t.content_sha256, t.last_lsn
    FROM tgt t LEFT JOIN src s USING (repo, path)
    WHERE s.repo IS NULL
"""


def q_snapshot_stats(sf_dir: str):
    """Manifest-only table statistics (cdc/snapshot.py table_stats): row
    count, per-column global [min,max] zone bounds and the LSN range of
    the events-derived snapshot — computed from P tiny JSON manifests,
    ZERO data files read. Oracle: the same aggregates over the SQL LWW
    state."""
    import shutil
    import tempfile

    snap = tempfile.mkdtemp(prefix="snapshot_stats_")
    try:
        eng, _ = _events_engine_snapshot(sf_dir, snap)
        s = eng.store.table_stats()
        cols = s["columns"]
        return pd.DataFrame(
            {
                "row_count": [np.int64(s["row_count"])],
                "repo_min": [cols["repo"][0]],
                "repo_max": [cols["repo"][1]],
                "path_min": [cols["path"][0]],
                "path_max": [cols["path"][1]],
                "lsn_min": [np.int64(cols["last_lsn"][0])],
                "lsn_max": [np.int64(cols["last_lsn"][1])],
            }
        )
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["snapshot_stats"] = q_snapshot_stats

ORACLE_SQL["snapshot_stats"] = """
    WITH ch AS (
      SELECT event_id AS lsn,
             CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
             'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
             event_type AS path
      FROM events),
    last AS (
      SELECT *, row_number() OVER (PARTITION BY repo, path
                                   ORDER BY lsn DESC) AS rn
      FROM ch),
    tgt AS (
      SELECT repo, path, lsn AS last_lsn
      FROM last WHERE rn = 1 AND op <> 'DELETE')
    SELECT CAST(count(*) AS BIGINT) AS row_count,
           min(repo) AS repo_min, max(repo) AS repo_max,
           min(path) AS path_min, max(path) AS path_max,
           CAST(min(last_lsn) AS BIGINT) AS lsn_min,
           CAST(max(last_lsn) AS BIGINT) AS lsn_max
    FROM tgt
"""


def q_minmax_view(sf_dir: str):
    """Incremental MIN/MAX materialized view (cdc/views.py minmax_cols):
    per-path count + sum + min/max of content_size, bootstrapped at
    epoch 1 then refreshed to epoch 2 — asserts fold, groups whose
    current extreme was retracted (epoch-2 deletes/updates) are
    recomputed exactly from the state in one column-pruned pass. The
    DuckDB oracle recomputes the GROUP BY from scratch; matching proves
    the semi-incremental maintenance."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.views import refresh_group_view

    snap = tempfile.mkdtemp(prefix="minmax_view_")
    try:
        eng, _ = _events_engine_snapshot(sf_dir, snap)
        kw = dict(
            view_id="mm_path", group_cols=["path"],
            sum_cols=["content_size"], minmax_cols=["content_size"],
        )
        refresh_group_view(eng.store, epoch=1, **kw)
        r = refresh_group_view(eng.store, epoch=2, **kw)
        assert r["mode"] == "incremental"
        out = r["state"].copy()
        for c in ("content_size_min", "content_size_max"):
            out[c] = out[c].astype(np.int64)
        return out
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["minmax_view"] = q_minmax_view

ORACLE_SQL["minmax_view"] = """
    WITH ch AS (
      SELECT event_id AS lsn,
             CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
             'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
             event_type AS path,
             props AS content
      FROM events),
    last AS (
      SELECT *, row_number() OVER (PARTITION BY repo, path
                                   ORDER BY lsn DESC) AS rn
      FROM ch)
    SELECT path,
           CAST(count(*) AS BIGINT) AS n_live,
           CAST(sum(length(content)) AS BIGINT) AS content_size_sum,
           CAST(min(length(content)) AS BIGINT) AS content_size_min,
           CAST(max(length(content)) AS BIGINT) AS content_size_max
    FROM last WHERE rn = 1 AND op <> 'DELETE'
    GROUP BY path
"""


def q_lm_perplexity(sf_dir: str):
    """Bigram-LM perplexity quality scores (functions/lm.py): train the
    add-k model on the documents corpus itself (distributed partial
    counts, bounded vocab), broadcast once, score every document
    vectorized. Rows-only entry (ln/exp ULP drift makes a SQL hash
    oracle unsound); the exact Python oracle lives in
    tests/test_lm.py::test_catalog_query_matches_python_oracle."""
    from arlas_proc_ray.functions.lm import perplexity_scores, train_bigram_lm

    ds = _rp(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    model = train_bigram_lm(ds, vocab_size=5000, k=0.5)
    return perplexity_scores(ds, model).select_columns(
        ["doc_id", "perplexity"]
    )


QUERIES["lm_perplexity"] = q_lm_perplexity


def q_bpe_trained_tokens(sf_dir: str):
    """Real BPE (functions/bpe.py): train Sennrich merges on the
    documents corpus' distributed word-frequency table, then count each
    document's learned-subword tokens (cached per-distinct-word encode).
    Rows-only entry; reference-trainer and tiling oracles live in
    tests/test_bpe.py (the merge loop is not SQL-expressible)."""
    from arlas_proc_ray.functions.bpe import (
        train_bpe,
        with_bpe_token_count,
        word_frequencies,
    )

    ds = _rp(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    merges = train_bpe(
        word_frequencies(ds, max_words=20_000), num_merges=200
    )
    return with_bpe_token_count(ds, merges).select_columns(
        ["doc_id", "bpe_tokens"]
    )


QUERIES["bpe_trained_tokens"] = q_bpe_trained_tokens


def q_distinct_view(sf_dir: str):
    """Incremental COUNT DISTINCT view (cdc/views.py
    refresh_distinct_view): per-path distinct content hashes of the
    events-derived snapshot, maintained as a (path, sha) pair sub-view
    refreshed by delta propagation across the two epochs. Oracle:
    from-scratch COUNT(DISTINCT sha256(content)) per path."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.views import refresh_distinct_view

    snap = tempfile.mkdtemp(prefix="distinct_view_")
    try:
        eng, _ = _events_engine_snapshot(sf_dir, snap)
        kw = dict(
            view_id="dv_path", group_cols=["path"],
            value_col="content_sha256",
        )
        refresh_distinct_view(eng.store, epoch=1, **kw)
        r = refresh_distinct_view(eng.store, epoch=2, **kw)
        assert r["mode"] == "incremental"
        return r["state"]
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["distinct_view"] = q_distinct_view

ORACLE_SQL["distinct_view"] = """
    WITH ch AS (
      SELECT event_id AS lsn,
             CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
             'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
             event_type AS path,
             props AS content
      FROM events),
    last AS (
      SELECT *, row_number() OVER (PARTITION BY repo, path
                                   ORDER BY lsn DESC) AS rn
      FROM ch)
    SELECT path,
           CAST(count(DISTINCT sha256(content)) AS BIGINT) AS n_distinct
    FROM last WHERE rn = 1 AND op <> 'DELETE'
    GROUP BY path
"""


def q_constraint_filtered_state(sf_dir: str):
    """Declarative table constraints at ingest (cdc/constraints.py): the
    events-derived engine snapshot with CHECK path <> 'error' declared on
    the table and on_violation='dead_letter' — violating upserts
    quarantine (reason check:<name>) and the epochs commit WITHOUT them.
    DELETE events are exempt (a tombstone carries no payload contract),
    so a delete of a key whose path is 'error' still applies. Hash-exact
    against the SQL LWW state over the stream with the violating upserts
    removed up front."""
    import shutil
    import tempfile

    snap = tempfile.mkdtemp(prefix="constraint_state_")
    dlq = tempfile.mkdtemp(prefix="constraint_dlq_")
    try:
        eng, _ = _events_engine_snapshot(
            sf_dir, snap,
            constraints={"no_error_path": [("path", "!=", "error")]},
            on_violation="dead_letter",
            apply_kwargs={"dead_letter_dir": dlq},
        )
        from arlas_proc_ray.cdc.replay import read_dead_letters

        dl = read_dead_letters(dlq)
        assert dl.num_rows > 0  # the fixture must actually exercise it
        out = eng.final_state()
        return out.to_pandas() if hasattr(out, "to_pandas") else out
    finally:
        shutil.rmtree(snap, ignore_errors=True)
        shutil.rmtree(dlq, ignore_errors=True)


QUERIES["constraint_filtered_state"] = q_constraint_filtered_state

ORACLE_SQL["constraint_filtered_state"] = """
    WITH ch AS (
      SELECT event_id AS lsn,
             CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
             'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
             event_type AS path,
             CAST(event_id AS VARCHAR) AS commit_id,
             event_type AS language,
             props AS content
      FROM events),
    kept AS (  -- CHECK path <> 'error': violating UPSERTS removed up front
      SELECT * FROM ch WHERE NOT (op <> 'DELETE' AND path = 'error')),
    last AS (
      SELECT *, row_number() OVER (PARTITION BY repo, path
                                   ORDER BY lsn DESC) AS rn
      FROM kept)
    SELECT repo, path, commit_id AS "commit", language, content,
           CAST(length(content) AS BIGINT) AS content_size,
           sha256(content) AS content_sha256,
           lsn AS last_lsn
    FROM last WHERE rn = 1 AND op <> 'DELETE'
"""


def q_mixture_sample(sf_dir: str):
    """Deterministic domain-mixture sampling (stages/sampling.py
    mixture_sample): resample documents to a 50/20/15/10/5 lang mixture
    — the largest total reachable without upsampling any domain — via
    per-domain sha256-bucket acceptance thresholds. Pure integer
    arithmetic end to end, so the SQL oracle reproduces the exact row
    set (hash parity), and the sample is stable under repartitioning or
    cluster resize."""
    from arlas_proc_ray.stages.sampling import mixture_sample

    ds = _docs(sf_dir, columns=["doc_id", "lang"])
    return mixture_sample(
        ds, domain_col="lang", key_col="doc_id",
        weights={"en": 50, "fr": 20, "de": 15, "es": 10, "zh": 5},
    )


QUERIES["mixture_sample"] = q_mixture_sample

ORACLE_SQL["mixture_sample"] = """
    WITH w(domain, wt) AS (VALUES ('en', 50), ('fr', 20), ('de', 15),
                                  ('es', 10), ('zh', 5)),
    mass AS (SELECT lang AS domain, count(*) AS m
             FROM documents GROUP BY lang),
    b AS (SELECT min((m * 100) // wt) AS B
          FROM mass JOIN w USING (domain)),
    thr AS (SELECT domain, (wt * B * 1000000) // (100 * m) AS t
            FROM mass JOIN w USING (domain) CROSS JOIN b),
    docs AS (SELECT doc_id, lang,
                    CAST('0x' || substr(sha256(CAST(doc_id AS VARCHAR)),
                                        1, 15) AS BIGINT)
                      % 1000000 AS bucket
             FROM documents)
    SELECT d.doc_id, d.lang
    FROM docs d JOIN thr ON thr.domain = d.lang
    WHERE d.bucket < thr.t
"""


def q_topk_view(sf_dir: str):
    """Incremental per-group TOP-K view (cdc/views.py refresh_topk_view):
    for each repo of the events-derived snapshot, the 2 languages with
    the most live paths — maintained as the (repo, language) live-count
    pair view refreshed by delta propagation across the two epochs,
    rolled up with a deterministic tie-break (count desc, value asc).
    Oracle: from-scratch row_number() OVER (… ORDER BY n DESC, v) <= 2
    on the SQL LWW state."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.views import refresh_topk_view

    snap = tempfile.mkdtemp(prefix="topk_view_")
    try:
        eng, _ = _events_engine_snapshot(sf_dir, snap)
        kw = dict(view_id="tk_repo", group_cols=["repo"],
                  value_col="language", k=2)
        refresh_topk_view(eng.store, epoch=1, **kw)
        r = refresh_topk_view(eng.store, epoch=2, **kw)
        assert r["mode"] == "incremental"
        return r["state"]
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["topk_view"] = q_topk_view

ORACLE_SQL["topk_view"] = """
    WITH ch AS (
      SELECT event_id AS lsn,
             CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
             'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
             event_type AS path,
             event_type AS language
      FROM events),
    last AS (
      SELECT *, row_number() OVER (PARTITION BY repo, path
                                   ORDER BY lsn DESC) AS rn
      FROM ch),
    counts AS (
      SELECT repo, language, CAST(count(*) AS BIGINT) AS n_live
      FROM last WHERE rn = 1 AND op <> 'DELETE'
      GROUP BY repo, language),
    ranked AS (
      SELECT *, row_number() OVER (PARTITION BY repo
                                   ORDER BY n_live DESC, language) AS rk
      FROM counts)
    SELECT repo, language, n_live FROM ranked WHERE rk <= 2
"""


def q_wap_replay(sf_dir: str):
    """Write-audit-publish replay (cdc/engine.py apply_epoch_audited):
    the same two-epoch events-derived snapshot as ``cdc_engine_replay``,
    but every epoch is STAGED (no commit marker), audited (row bounds +
    a mass-delete guard + a not_null expectation over the staged state)
    and only then published through the optimistic fence. Hash parity
    with the plain replay oracle proves the staged-then-published
    lineage is byte-identical to a direct commit."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1
    from arlas_proc_ray.model import DataModel

    snap = tempfile.mkdtemp(prefix="wap_replay_")
    try:
        ds = _events(
            sf_dir,
            columns=["event_id", "user_id", "event_type", "value", "props"],
        )

        def to_changelog(t: pa.Table) -> pa.Table:
            n = t.num_rows
            eid = pc.cast(t.column("event_id"), pa.int64())
            uid = t.column("user_id")
            mod = pc.subtract(uid, pc.multiply(pc.divide(uid, 200), 200))
            repo = pc.binary_join_element_wise(
                pa.array(["u"] * n, pa.string()), pc.cast(mod, pa.string()),
                "",
            )
            op = pc.if_else(
                pc.less(t.column("value"), pa.scalar(0.15)),
                pa.scalar("DELETE"),
                pa.scalar("UPDATE"),
            )
            return pa.Table.from_arrays(
                [eid, op, repo, t.column("event_type"),
                 pc.cast(eid, pa.string()), t.column("event_type"),
                 t.column("props"), pa.array(np.ones(n, np.int32)), eid],
                schema=EVENT_SCHEMA_V1,
            )

        changelog = ds.map_batches(
            to_changelog, batch_format="pyarrow", batch_size=None
        ).materialize()
        mid = int(changelog.max("lsn") or 0) // 2
        eng = CdcEngine(snap, DataModel(num_partitions=NP))
        audits = {
            "min_rows": 1,
            "max_shrink_fraction": 0.9,
            "expect": {"content_set": [("content", "not_null")]},
        }
        eng.apply_epoch_audited(
            changelog.filter(expr=f"lsn <= {mid}"), 1, audits=audits
        )
        eng.apply_epoch_audited(
            changelog.filter(expr=f"lsn > {mid}"), 2, audits=audits
        )
        out = eng.final_state()
        return out.to_pandas() if hasattr(out, "to_pandas") else out
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["wap_replay"] = q_wap_replay

ORACLE_SQL["wap_replay"] = """
    WITH ch AS (
      SELECT event_id AS lsn,
             CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
             'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
             event_type AS path,
             CAST(event_id AS VARCHAR) AS commit_id,
             event_type AS language,
             props AS content
      FROM events),
    last AS (
      SELECT *, row_number() OVER (PARTITION BY repo, path
                                   ORDER BY lsn DESC) AS rn
      FROM ch)
    SELECT repo, path, commit_id AS "commit", language, content,
           CAST(length(content) AS BIGINT) AS content_size,
           sha256(content) AS content_sha256,
           lsn AS last_lsn
    FROM last WHERE rn = 1 AND op <> 'DELETE'
"""


def q_ann_pq_topk(sf_dir: str):
    """Product-quantized ADC top-k (ann/pq.py — Jégou 2011): 16-byte
    codes instead of 256-byte float vectors, asymmetric-distance lookup
    tables per query, per-block partials merged on the driver.
    Approximate by construction → rows-only check; the recall bound vs
    brute force is pinned in tests/test_ann.py."""
    from arlas_proc_ray.ann.pq import pq_encode, pq_topk, train_pq

    ids, mat = _query_vectors(sf_dir, 5)
    ds = _rp(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()
    books = train_pq(ds, m=16, k=64, train_sample=2000)
    codes = pq_encode(ds, books)
    out = pq_topk(codes, ids, mat, books, k=3)
    out["cos_est"] = out["cos_est"].round(6)
    return out


QUERIES["ann_pq_topk"] = q_ann_pq_topk


def q_ann_ivfpq_topk(sf_dir: str):
    """IVFADC top-k (ann/pq.py ivfpq_*): coarse quantizer prunes to
    n_probe buckets, residual PQ codes refine inside them — the
    canonical billion-scale layout (Jégou 2011 §IV). Approximate →
    rows-only; recall bound pinned in tests/test_ann.py."""
    from arlas_proc_ray.ann.pq import ivfpq_build, ivfpq_encode, ivfpq_topk

    ids, mat = _query_vectors(sf_dir, 5)
    ds = _rp(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()
    model = ivfpq_build(ds, n_centroids=32, m=32, k=64, train_sample=2000)
    codes = ivfpq_encode(ds, model)
    out = ivfpq_topk(codes, ids, mat, model, k=3, n_probe=8)
    out["cos_est"] = out["cos_est"].round(6)
    return out


QUERIES["ann_ivfpq_topk"] = q_ann_ivfpq_topk


def q_incremental_pq_search(sf_dir: str):
    """Incrementally-maintained IVFADC index (ann/incremental.py
    _PqVectorIndex): same two-epoch ingest as incremental_ann_search,
    but the index rows hold m-byte RESIDUAL PQ codes instead of raw
    float32 vectors (16–32× smaller parts; the FAISS IVFADC layout with
    the model pinned at bootstrap). ADC distances are approximate by
    construction → rows-only; the recall bound vs the raw-vector index
    is pinned in tests/test_incremental_vecindex.py."""
    import shutil
    import tempfile

    from arlas_proc_ray.ann.incremental import (
        encode_vec_f32,
        pq_vector_index_topk,
        refresh_pq_vector_index,
    )
    from arlas_proc_ray.ann.search import _as_matrix
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1
    from arlas_proc_ray.model import DataModel

    ds = _rp(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]) \
        .filter(expr="vec_id < 400")

    def to_events(t: pa.Table) -> pa.Table:
        vid = pc.cast(t.column("vec_id"), pa.int64())
        enc = encode_vec_f32(_as_matrix(t.column("embedding")))
        n = t.num_rows
        return pa.Table.from_arrays(
            [
                vid,
                pa.array(["UPDATE"] * n, pa.string()),
                pc.cast(vid, pa.string()),
                pa.array(["v"] * n, pa.string()),
                pc.cast(vid, pa.string()),
                pa.array(["vec"] * n, pa.string()),
                pa.array(enc, pa.string()),
                pa.array(np.ones(n, np.int32)),
                vid,
            ],
            schema=EVENT_SCHEMA_V1,
        )

    ev = ds.map_batches(
        to_events, batch_format="pyarrow", batch_size=None
    ).materialize()
    idx = dict(n_centroids=8, pq_m=32, pq_k=64, num_partitions=4,
               train_sample=512, seed=17)
    ids, qmat = _query_vectors(sf_dir, 5)
    snap = tempfile.mkdtemp(prefix="incremental_pq_")
    try:
        eng = CdcEngine(snap, DataModel(num_partitions=4))
        eng.apply_epoch(ev.filter(expr="lsn < 200"), 1)
        refresh_pq_vector_index(eng.store, index_id="pq", **idx)
        eng.apply_epoch(ev.filter(expr="lsn >= 200"), 2)
        r = refresh_pq_vector_index(eng.store, index_id="pq", **idx)
        assert r["mode"] == "incremental"
        hits = pq_vector_index_topk(
            eng.store, ids, qmat, index_id="pq", k=3, n_probe=8,
        )
        return pd.DataFrame(
            {
                "query_id": hits["query_id"].astype(np.int64),
                "vec_id": hits["key"].str.split("#").str[0].astype(np.int64),
                "cos_est": hits["cos_est"].round(6),
            }
        ).sort_values(["query_id", "vec_id"]).reset_index(drop=True)
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["incremental_pq_search"] = q_incremental_pq_search


def q_epoch_history(sf_dir: str):
    """Per-epoch lineage time series (cdc/snapshot.py epoch_history —
    manifest-only, no data read): the two-epoch events-derived snapshot
    reports each committed epoch's surviving row count and applied-LSN
    watermark. Hash-exact against SQL recomputing the LWW state at each
    epoch's cut."""
    import shutil
    import tempfile

    snap = tempfile.mkdtemp(prefix="epoch_history_")
    try:
        eng, _ = _events_engine_snapshot(sf_dir, snap)
        hist = eng.store.epoch_history()
        return pd.DataFrame(
            {
                "epoch": [int(h["epoch"]) for h in hist],
                "row_count": [int(h["row_count"]) for h in hist],
                "last_lsn": [int(h["last_lsn"]) for h in hist],
            }
        )
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["epoch_history"] = q_epoch_history

ORACLE_SQL["epoch_history"] = """
    WITH ch AS (
      SELECT event_id AS lsn,
             CASE WHEN value < 0.15 THEN 'DELETE' ELSE 'UPDATE' END AS op,
             'u' || CAST(user_id % 200 AS VARCHAR) AS repo,
             event_type AS path
      FROM events),
    m AS (SELECT max(lsn) // 2 AS mid FROM ch),
    cut1 AS (
      SELECT *, row_number() OVER (PARTITION BY repo, path
                                   ORDER BY lsn DESC) AS rn
      FROM ch WHERE lsn <= (SELECT mid FROM m)),
    cut2 AS (
      SELECT *, row_number() OVER (PARTITION BY repo, path
                                   ORDER BY lsn DESC) AS rn
      FROM ch)
    SELECT 1 AS epoch,
           (SELECT CAST(count(*) AS BIGINT) FROM cut1
            WHERE rn = 1 AND op <> 'DELETE') AS row_count,
           (SELECT max(lsn) FROM ch
            WHERE lsn <= (SELECT mid FROM m)) AS last_lsn
    UNION ALL
    SELECT 2,
           (SELECT CAST(count(*) AS BIGINT) FROM cut2
            WHERE rn = 1 AND op <> 'DELETE'),
           (SELECT max(lsn) FROM ch)
"""


def q_cube_revenue(sf_dir: str):
    """GROUP BY CUBE(returnflag, linestatus) with exact integer-cents
    revenue — one finest-level aggregation; all 2^k subsets derived from
    the aggregate (raw data scans and shuffles exactly once)."""
    from arlas_proc_ray.stages.analytics import cube_counts

    ds = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_extendedprice"],
    )

    def cents(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf["cents"] = _cents(pdf["l_extendedprice"])
        return pdf[["l_returnflag", "l_linestatus", "cents"]]

    out = cube_counts(
        ds.map_batches(cents, batch_format="pandas", batch_size=None),
        group_cols=["l_returnflag", "l_linestatus"], cents_col="cents",
        num_partitions=NP,
    )
    out["revenue"] = out.pop("sum_cents") / 100.0
    return out


QUERIES["cube_revenue"] = q_cube_revenue

ORACLE_SQL["cube_revenue"] = """
    SELECT l_returnflag, l_linestatus,
           count(*) AS n_rows,
           sum(cast(round(l_extendedprice * 100) AS BIGINT)) / 100.0
             AS revenue
    FROM lineitem
    GROUP BY CUBE (l_returnflag, l_linestatus)
"""


# ---------------------------------------------------------------------------
# iterative graph analytics (stages/graph.py)
# ---------------------------------------------------------------------------


def q_pagerank_interactions(sf_dir: str):
    """PageRank over the undirected user↔event-type interaction
    multigraph (3 power iterations, exact int64 fixed-point — see
    stages/graph.py determinism contract). Edge construction is one
    stateless map_batches (events mirrored, duplicates kept: PageRank
    is linear over edge rows so a multigraph needs no DISTINCT
    exchange); each iteration = one in-block partial + one node-sized
    groupby. The rank vector is the broadcast small side."""
    from arlas_proc_ray.stages.graph import pagerank

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    return pagerank(edges, src_col="src", dst_col="dst", iterations=3)


QUERIES["pagerank_interactions"] = q_pagerank_interactions


def _pagerank_oracle(iterations: int = 3) -> str:
    """Chained-CTE power iteration: same int64 fixed-point formula as
    stages/graph.py (85·c//100 split as 85·(c//100)+(85·(c%100))//100,
    exact and overflow-safe on both sides)."""
    sql = """
    WITH pw AS (
      SELECT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t,
             CAST(count(*) AS BIGINT) AS w
      FROM events GROUP BY 1, 2),
    edges AS (SELECT u AS src, t AS dst, w FROM pw
              UNION ALL SELECT t, u, w FROM pw),
    deg AS (SELECT src AS node, SUM(w) AS d FROM edges GROUP BY 1),
    r0 AS (SELECT node, 1000000000::BIGINT AS r FROM deg)"""
    prev = "r0"
    for i in range(1, iterations + 1):
        sql += f""",
    c{i} AS (SELECT e.dst AS node, SUM(e.w * (r.r // d.d)) AS c
             FROM edges e
             JOIN {prev} r ON r.node = e.src
             JOIN deg d ON d.node = e.src
             GROUP BY 1),
    r{i} AS (SELECT d.node,
                    150000000 + 85 * (COALESCE(c.c, 0) // 100)
                              + (85 * (COALESCE(c.c, 0) % 100)) // 100 AS r
             FROM deg d LEFT JOIN c{i} c ON c.node = d.node)"""
        prev = f"r{i}"
    sql += f"""
    SELECT node, CAST(r AS BIGINT) AS pagerank FROM {prev}
"""
    return sql


ORACLE_SQL["pagerank_interactions"] = _pagerank_oracle()


def q_weighted_sample(sf_dir: str):
    """Length-weighted priority sample: K docs elected by the smallest
    DETERMINISTIC priority ``splitmix64(doc_id) // n_chars`` — longer
    docs draw smaller priorities more often (the integer cousin of
    priority sampling's u^(1/w) keys), reproducible across runs and
    cluster resizes with no RNG state. Per-block bottom-K combiner,
    then a tiny global sort — the same two-level shape as topk."""
    from arlas_proc_ray.cdc.events import _splitmix64

    K = 25
    ds = _docs(sf_dir, columns=["doc_id", "source", "n_chars"])

    def local_k(pdf: pd.DataFrame) -> pd.DataFrame:
        h = _splitmix64(pdf["doc_id"].to_numpy().astype(np.uint64))
        # weight clamp ≥2 keeps priority < 2^63 for ANY doc (int64-safe)
        w = np.maximum(pdf["n_chars"].to_numpy(), 2).astype(np.uint64)
        pdf = pdf.assign(priority=(h // w).astype("uint64"))
        return pdf.nsmallest(K, ["priority", "doc_id"])

    allp = ds.map_batches(
        local_k, batch_format="pandas", batch_size=None
    ).to_pandas()
    out = allp.sort_values(["priority", "doc_id"]).head(K)
    out["priority"] = out["priority"].astype("int64")  # < 2^63 by the clamp
    return out.reset_index(drop=True)


QUERIES["weighted_sample"] = q_weighted_sample

ORACLE_SQL["weighted_sample"] = f"""
    WITH s0 AS (
      SELECT doc_id, source, n_chars,
             (doc_id::HUGEINT + 11400714819323198485::HUGEINT)
               % {_M64_SQL} AS z
      FROM documents),
    s1 AS (SELECT doc_id, source, n_chars,
                  {_sql_mulmod64("xor(z, z >> 30)", _SQS_C2)} AS z FROM s0),
    s2 AS (SELECT doc_id, source, n_chars,
                  {_sql_mulmod64("xor(z, z >> 27)", _SQS_C3)} AS z FROM s1),
    h AS (SELECT doc_id, source, n_chars, xor(z, z >> 31) AS z FROM s2)
    SELECT doc_id, source, n_chars,
           CAST(z // GREATEST(n_chars, 2)::HUGEINT AS BIGINT) AS priority
    FROM h
    ORDER BY priority, doc_id
    LIMIT 25
"""


def q_hops_from_user(sf_dir: str):
    """Multi-source BFS hop distance over the user↔event-type
    interaction graph (stages/graph.py:shortest_hops), rooted at the
    smallest user_id. Level-synchronous frontier expansion: per hop one
    broadcast-frontier map_batches + one node-sized dedup exchange —
    edges never leave their blocks."""
    from arlas_proc_ray.stages.graph import shortest_hops

    ds = _events(sf_dir, columns=["user_id", "event_type"])
    root = int(ds.min("user_id"))

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    return shortest_hops(
        edges, src_col="src", dst_col="dst", sources=[f"u:{root}"], max_hops=3
    )


QUERIES["hops_from_user"] = q_hops_from_user


def _hops_oracle(max_hops: int = 3) -> str:
    """Chained frontier CTEs (level-synchronous BFS, dedup per level) —
    no recursive walk enumeration, so no combinatorial blow-up."""
    sql = """
    WITH pw AS (
      SELECT DISTINCT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t
      FROM events),
    edges AS (SELECT u AS src, t AS dst FROM pw
              UNION ALL SELECT t, u FROM pw),
    d0 AS (SELECT 'u:' || CAST(min(user_id) AS VARCHAR) AS node,
                  0 AS hops FROM events)"""
    prev = "d0"
    for i in range(1, max_hops + 1):
        sql += f""",
    f{i} AS (SELECT DISTINCT e.dst AS node
             FROM edges e JOIN {prev} p ON p.node = e.src
             WHERE p.hops = {i - 1}),
    d{i} AS (SELECT node, hops FROM {prev}
             UNION ALL
             SELECT f.node, {i} FROM f{i} f
             WHERE f.node NOT IN (SELECT node FROM {prev}))"""
        prev = f"d{i}"
    sql += f"""
    SELECT node, CAST(hops AS BIGINT) AS hops FROM {prev}
"""
    return sql


ORACLE_SQL["hops_from_user"] = _hops_oracle()


def q_typo_pairs(sf_dir: str):
    """Edit-distance-1 similarity join (dedup/editdist.py): every pair
    of customer names one substitution/insert/delete apart. FastSS k=1
    deletion-neighborhood bucketing sharpened to be exact (position-
    keyed substitution buckets, variant-keyed insert/delete buckets) —
    one keyed exchange, no verification stage, no all-pairs scan."""
    from arlas_proc_ray.dedup.editdist import edit_distance_pairs

    ds = _rp(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    return edit_distance_pairs(
        ds, id_col="c_custkey", term_col="c_name", num_partitions=NP
    )


QUERIES["typo_pairs"] = q_typo_pairs

ORACLE_SQL["typo_pairs"] = """
    SELECT a.c_custkey AS id_a, b.c_custkey AS id_b,
           a.c_name AS term_a, b.c_name AS term_b
    FROM customer a
    JOIN customer b
      ON a.c_custkey < b.c_custkey
     AND levenshtein(a.c_name, b.c_name) = 1
"""


def q_throttled_events(sf_dir: str):
    """Debounce/rate-limit filter (stages/windows.py:throttle_events):
    per (user, event_type), drop events within 6 h of their predecessor
    (LAG semantics, event_id tie-break). One keyed exchange."""
    from arlas_proc_ray.stages.windows import throttle_events

    ds = _events(sf_dir, columns=["event_id", "ts", "user_id", "event_type"])
    out = throttle_events(
        ds,
        keys=["user_id", "event_type"],
        ts_col="ts",
        min_gap_us=6 * 3600 * 1_000_000,
        order_cols=["event_id"],
        num_partitions=NP,
    )
    return out


QUERIES["throttled_events"] = q_throttled_events

ORACLE_SQL["throttled_events"] = """
    WITH w AS (
      SELECT event_id, ts, user_id, event_type,
             lag(ts) OVER (PARTITION BY user_id, event_type
                           ORDER BY ts, event_id) AS prev_ts
      FROM events)
    SELECT event_id, ts, user_id, event_type
    FROM w
    WHERE prev_ts IS NULL
       OR epoch_us(ts) - epoch_us(prev_ts) > 21600000000
"""


def q_ppr_from_user(sf_dir: str):
    """Personalized PageRank (teleport mass pinned to the smallest
    user's node) over the mirrored interaction multigraph — the
    recommendation-flavored variant: ranks measure proximity to the
    source. Same int64 fixed-point contract as pagerank_interactions."""
    from arlas_proc_ray.stages.graph import pagerank

    ds = _events(sf_dir, columns=["user_id", "event_type"])
    root = int(ds.min("user_id"))

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    return pagerank(
        edges, src_col="src", dst_col="dst", iterations=3,
        teleport_nodes=[f"u:{root}"],
    )


QUERIES["ppr_from_user"] = q_ppr_from_user


def _ppr_oracle(iterations: int = 3) -> str:
    """Personalized variant of the pagerank CTE chain: teleport mass
    (init + base term) concentrated on the min-user node."""
    sql = """
    WITH pw AS (
      SELECT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t,
             CAST(count(*) AS BIGINT) AS w
      FROM events GROUP BY 1, 2),
    edges AS (SELECT u AS src, t AS dst, w FROM pw
              UNION ALL SELECT t, u, w FROM pw),
    deg AS (SELECT src AS node, SUM(w) AS d FROM edges GROUP BY 1),
    root AS (SELECT 'u:' || CAST(min(user_id) AS VARCHAR) AS node FROM events),
    r0 AS (SELECT d.node,
                  CASE WHEN d.node = (SELECT node FROM root)
                       THEN 1000000000::BIGINT ELSE 0::BIGINT END AS r
           FROM deg d)"""
    prev = "r0"
    for i in range(1, iterations + 1):
        sql += f""",
    c{i} AS (SELECT e.dst AS node, SUM(e.w * (r.r // d.d)) AS c
             FROM edges e
             JOIN {prev} r ON r.node = e.src
             JOIN deg d ON d.node = e.src
             GROUP BY 1),
    r{i} AS (SELECT d.node,
                    CASE WHEN d.node = (SELECT node FROM root)
                         THEN 150000000 ELSE 0 END
                    + 85 * (COALESCE(c.c, 0) // 100)
                    + (85 * (COALESCE(c.c, 0) % 100)) // 100 AS r
             FROM deg d LEFT JOIN c{i} c ON c.node = d.node)"""
        prev = f"r{i}"
    sql += f"""
    SELECT node, CAST(r AS BIGINT) AS pagerank FROM {prev}
"""
    return sql


ORACLE_SQL["ppr_from_user"] = _ppr_oracle()


def q_kmv_distinct(sf_dir: str):
    """Bottom-k (KMV / theta) distinct sketch per event_type over users
    (stages/sketch.py:kmv_distinct): values never shuffle — per-block
    bottom-64 distinct-hash partials, one keyed merge exchange, estimate
    derived in-partition. Hash is the repo-wide sha256-prefix kernel, so
    DuckDB reproduces the retained set and the integer estimator
    bit-for-bit."""
    from arlas_proc_ray.stages.sketch import kmv_distinct

    ds = _events(sf_dir, columns=["event_type", "user_id"])
    return kmv_distinct(
        ds, group_col="event_type", value_col="user_id", k=64,
        num_partitions=NP,
    )


QUERIES["kmv_distinct"] = q_kmv_distinct

ORACLE_SQL["kmv_distinct"] = """
    WITH h AS (
      SELECT DISTINCT event_type,
             CAST('0x' || substr(sha256(CAST(user_id AS VARCHAR)), 1, 15)
                  AS BIGINT) AS hv
      FROM events WHERE user_id IS NOT NULL),
    r AS (SELECT event_type, hv,
                 row_number() OVER (PARTITION BY event_type ORDER BY hv) AS rn
          FROM h),
    k AS (SELECT event_type, count(*) AS n_kmv, max(hv) AS kth_hash
          FROM r WHERE rn <= 64 GROUP BY 1)
    SELECT event_type, n_kmv, kth_hash,
           CAST(CASE WHEN n_kmv < 64 THEN n_kmv
                     ELSE (63::HUGEINT * 1152921504606846976::HUGEINT)
                          // kth_hash END AS BIGINT) AS distinct_est
    FROM k
"""


def q_type_affinity(sf_dir: str):
    """Pairwise event-type affinity over user sets
    (stages/analytics.py:category_affinity): co-occurrence counts +
    exact-integer Jaccard for every unordered type pair. One keyed
    exchange on user_id (users disjoint per partition → per-partition
    distinct is global); only |types|²-sized partials leave a
    partition."""
    from arlas_proc_ray.stages.analytics import category_affinity

    ds = _events(sf_dir, columns=["user_id", "event_type"])
    return category_affinity(
        ds, id_col="user_id", cat_col="event_type", num_partitions=NP
    )


QUERIES["type_affinity"] = q_type_affinity

ORACLE_SQL["type_affinity"] = """
    WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
    n AS (SELECT event_type, count(*) AS n FROM ut GROUP BY 1),
    p AS (SELECT a.event_type AS type_a, b.event_type AS type_b,
                 count(*) AS co_users
          FROM ut a JOIN ut b
            ON a.user_id = b.user_id AND a.event_type < b.event_type
          GROUP BY 1, 2)
    SELECT type_a, type_b, co_users,
           na.n + nb.n - co_users AS union_users,
           CAST(co_users AS DOUBLE) / (na.n + nb.n - co_users) AS jaccard
    FROM p
    JOIN n na ON na.event_type = type_a
    JOIN n nb ON nb.event_type = type_b
"""


def q_cusum_alarms(sf_dir: str):
    """Per-user CUSUM change-point alarms
    (stages/windows.py:cusum_alarm_points): one-sided Page detector on
    exact integer cents (ref 55.00, threshold 200.00), computed
    closed-form (running sum − clamped running min — no sequential
    loop); emits upcrossing rows only. One keyed exchange."""
    from arlas_proc_ray.stages.windows import cusum_alarm_points

    ds = _events(sf_dir, columns=["user_id", "event_id", "value"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)), pa.int64())
        return t.append_column("_cents", c)

    return cusum_alarm_points(
        ds.map_batches(cents, batch_format="pyarrow", batch_size=None),
        key_col="user_id",
        order_col="event_id",
        value_int_col="_cents",
        ref=5500,
        threshold=20000,
        num_partitions=NP,
    )


QUERIES["cusum_alarms"] = q_cusum_alarms

ORACLE_SQL["cusum_alarms"] = """
    WITH v AS (
      SELECT user_id, event_id,
             CAST(round(value * 100) AS BIGINT) - 5500 AS d
      FROM events),
    cw AS (SELECT user_id, event_id, SUM(d) OVER w AS c FROM v
           WINDOW w AS (PARTITION BY user_id ORDER BY event_id
                        ROWS UNBOUNDED PRECEDING)),
    s AS (SELECT user_id, event_id,
                 c - LEAST(0, MIN(c) OVER w) AS cusum FROM cw
          WINDOW w AS (PARTITION BY user_id ORDER BY event_id
                       ROWS UNBOUNDED PRECEDING))
    SELECT user_id, event_id, CAST(cusum AS BIGINT) AS cusum
    FROM (SELECT *, LAG(cusum, 1, 0) OVER (PARTITION BY user_id
                                           ORDER BY event_id) AS p
          FROM s)
    WHERE cusum > 20000 AND p <= 20000
"""


def q_twap_user_day(sf_dir: str):
    """Time-weighted average value per (user, day)
    (stages/windows.py:time_weighted_avg): each event weighted by its
    µs holding time to the user's next event that day; integer-exact
    numerator/denominator, one final division. One keyed exchange."""
    from arlas_proc_ray.stages.windows import time_weighted_avg

    ds = _events(sf_dir, columns=["user_id", "event_id", "ts", "value"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)), pa.int64())
        return t.append_column("_cents", c)

    out = time_weighted_avg(
        ds.map_batches(cents, batch_format="pyarrow", batch_size=None),
        key_col="user_id",
        ts_col="ts",
        order_col="event_id",
        value_int_col="_cents",
        bucket_us=86_400_000_000,
        num_partitions=NP,
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.rename(columns={"twap": "twap_cents"})

    return out.map_batches(finish, batch_format="pandas", batch_size=None)


QUERIES["twap_user_day"] = q_twap_user_day

ORACLE_SQL["twap_user_day"] = """
    WITH e AS (
      SELECT user_id, event_id, ts,
             epoch_us(ts) // 86400000000 AS bucket,
             CAST(round(value * 100) AS BIGINT) AS cents
      FROM events),
    g AS (SELECT user_id, bucket, cents,
                 date_diff('microseconds', ts,
                           LEAD(ts) OVER (PARTITION BY user_id, bucket
                                          ORDER BY ts, event_id)) AS dur
          FROM e),
    a AS (SELECT user_id, bucket,
                 SUM(cents * dur) AS wsum, SUM(dur) AS dur_us
          FROM g WHERE dur IS NOT NULL GROUP BY 1, 2
          HAVING SUM(dur) > 0)
    SELECT user_id,
           make_timestamp(bucket * 86400000000) AS window_start,
           CAST(wsum AS DOUBLE) / CAST(dur_us AS DOUBLE) AS twap_cents,
           CAST(dur_us AS BIGINT) AS dur_us
    FROM a
"""


def q_attribution_last_touch(sf_dir: str):
    """Last-touch conversion attribution
    (stages/analytics.py:last_touch_attribution): every purchase is
    credited to the user's most recent prior non-purchase event type;
    per-type conversion counts + exact-cents value totals. One keyed
    exchange; only |types|-sized partials leave each partition."""
    from arlas_proc_ray.stages.analytics import last_touch_attribution

    ds = _events(sf_dir, columns=["user_id", "event_id", "event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)), pa.int64())
        return t.append_column("_cents", c)

    return last_touch_attribution(
        ds.map_batches(cents, batch_format="pyarrow", batch_size=None),
        key_col="user_id",
        order_col="event_id",
        type_col="event_type",
        conv_type="purchase",
        cents_col="_cents",
        num_partitions=NP,
    )


QUERIES["attribution_last_touch"] = q_attribution_last_touch

ORACLE_SQL["attribution_last_touch"] = """
    WITH e AS (
      SELECT user_id, event_id, event_type,
             CAST(round(value * 100) AS BIGINT) AS cents
      FROM events),
    m AS (SELECT *,
                 last_value(CASE WHEN event_type <> 'purchase'
                                 THEN event_type END IGNORE NULLS)
                   OVER (PARTITION BY user_id ORDER BY event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS touch_type
          FROM e)
    SELECT touch_type, count(*) AS conversions,
           SUM(cents) / 100.0 AS attributed_value
    FROM m
    WHERE event_type = 'purchase' AND touch_type IS NOT NULL
    GROUP BY 1
"""


def q_bigram_collocations(sf_dir: str):
    """Corpus collocations with exact-arithmetic association lift
    (functions/text.py:bigram_collocations): per-block unigram+bigram
    count combiner, one keyed sum exchange, vocabulary-sized driver
    finalize; lift = n_ab·N_uni² / (N_bi·n_a·n_b) evaluated in big-int
    then rounded once to double — bit-identical to the HUGEINT oracle."""
    from arlas_proc_ray.functions.text import bigram_collocations

    ds = _docs(sf_dir, columns=["text"], min_parallelism=4)
    return bigram_collocations(
        ds, text_col="text", min_frac_denom=5000, num_partitions=8
    )


QUERIES["bigram_collocations"] = q_bigram_collocations

ORACLE_SQL["bigram_collocations"] = """
    WITH d AS (SELECT string_split(text, ' ') AS l FROM documents),
    uni AS (SELECT w, count(*) AS n
            FROM (SELECT unnest(l) AS w FROM d) GROUP BY 1),
    nu AS (SELECT sum(n) AS t FROM uni),
    bi AS (SELECT l[i] AS w1, l[i+1] AS w2, count(*) AS n
           FROM d, UNNEST(range(1, len(l))) AS r(i) GROUP BY 1, 2),
    nb AS (SELECT sum(n) AS t FROM bi)
    SELECT b.w1, b.w2, b.n AS n_ab,
           CAST(b.n::HUGEINT * nu.t * nu.t AS DOUBLE)
             / CAST(nb.t::HUGEINT * ua.n * ub.n AS DOUBLE) AS lift
    FROM bi b
    JOIN uni ua ON ua.w = b.w1
    JOIN uni ub ON ub.w = b.w2
    CROSS JOIN nu CROSS JOIN nb
    WHERE b.n * 5000 > nb.t
"""


def q_ema_user_value(sf_dir: str):
    """Final per-user EMA (α=1/8) in exact integer fixed-point
    (stages/windows.py:ema_last): round-half-up integer recurrence —
    bit-reproducible by a recursive-CTE oracle where a float EMA would
    drift; vectorized as a jagged scan (one numpy pass per sequence
    position across all users). One keyed exchange."""
    from arlas_proc_ray.stages.windows import ema_last

    ds = _events(sf_dir, columns=["user_id", "event_id", "value"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)), pa.int64())
        return t.append_column("_cents", c)

    out = ema_last(
        ds.map_batches(cents, batch_format="pyarrow", batch_size=None),
        key_col="user_id",
        order_col="event_id",
        value_int_col="_cents",
        alpha_denom=8,
        num_partitions=NP,
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.rename(columns={"ema": "ema_cents"})

    return out.map_batches(finish, batch_format="pandas", batch_size=None)


QUERIES["ema_user_value"] = q_ema_user_value

ORACLE_SQL["ema_user_value"] = """
    WITH RECURSIVE e AS (
      SELECT user_id, CAST(round(value * 100) AS BIGINT) AS cents,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY event_id) AS rn
      FROM events),
    rec AS (
      SELECT user_id, rn, cents AS s FROM e WHERE rn = 1
      UNION ALL
      SELECT e.user_id, e.rn, (7 * rec.s + e.cents + 4) // 8
      FROM rec JOIN e ON e.user_id = rec.user_id AND e.rn = rec.rn + 1),
    lastn AS (SELECT user_id, max(rn) AS n_events FROM e GROUP BY 1)
    SELECT l.user_id, CAST(l.n_events AS BIGINT) AS n_events,
           CAST(r.s AS BIGINT) AS ema_cents
    FROM lastn l
    JOIN rec r ON r.user_id = l.user_id AND r.rn = l.n_events
"""


def q_kmv_intersection(sf_dir: str):
    """Theta-sketch distinct set estimates between the click and
    purchase user populations (stages/sketch.py:kmv_state +
    kmv_intersect_estimate): the distributed work builds two bottom-64
    sketches (values never shuffle); intersection/union/Jaccard are an
    integer driver finalize over ≤ 2k sketch rows — exact below k, the
    scale-free theta estimator above it."""
    from arlas_proc_ray.stages.sketch import kmv_intersect_estimate, kmv_state

    ds = _events(sf_dir, columns=["event_type", "user_id"]).filter(
        expr="event_type == 'click' or event_type == 'purchase'"
    )
    state = kmv_state(
        ds, group_col="event_type", value_col="user_id", k=64,
        num_partitions=NP,
    ).to_pandas()
    return kmv_intersect_estimate(
        state, "click", "purchase", group_col="event_type", k=64
    )


QUERIES["kmv_intersection"] = q_kmv_intersection

ORACLE_SQL["kmv_intersection"] = """
    WITH h AS (
      SELECT DISTINCT event_type,
             CAST('0x' || substr(sha256(CAST(user_id AS VARCHAR)), 1, 15)
                  AS BIGINT) AS hv
      FROM events
      WHERE event_type IN ('click', 'purchase') AND user_id IS NOT NULL),
    r AS (SELECT event_type, hv,
                 row_number() OVER (PARTITION BY event_type ORDER BY hv) AS rn
          FROM h),
    keep AS (SELECT event_type, hv FROM r WHERE rn <= 64),
    th AS (SELECT CAST(min(CASE WHEN n >= 64 THEN kth
                               ELSE 1152921504606846976 END) AS BIGINT) AS theta
           FROM (SELECT event_type, count(*) AS n, max(hv) AS kth
                 FROM keep GROUP BY 1)),
    ab AS (SELECT hv, count(*) AS c FROM keep, th
           WHERE hv < th.theta GROUP BY hv),
    cnt AS (SELECT count(*) FILTER (c = 2) AS ci, count(*) AS cu FROM ab)
    SELECT 'click' AS type_a, 'purchase' AS type_b,
           CAST(cnt.ci::HUGEINT * 1152921504606846976 // th.theta
                AS BIGINT) AS inter_est,
           CAST(cnt.cu::HUGEINT * 1152921504606846976 // th.theta
                AS BIGINT) AS union_est,
           CAST(cnt.ci AS DOUBLE) / cnt.cu AS jaccard_est
    FROM cnt, th
"""


def q_sequence_pattern(sf_dir: str):
    """CEP-style sequence pattern counting
    (stages/analytics.py:sequence_pattern_counts): per user, the ordered
    event-type sequence is encoded one char per event (types have
    distinct initials) and non-overlapping matches of 'view, then any
    clicks, then purchase' (``vc*p``) are counted. One keyed exchange;
    key-sized output, zero-match users dropped."""
    from arlas_proc_ray.stages.analytics import sequence_pattern_counts

    ds = _events(sf_dir, columns=["user_id", "event_id", "event_type"])
    return sequence_pattern_counts(
        ds,
        key_col="user_id",
        order_col="event_id",
        type_col="event_type",
        symbol_of={
            "click": "c", "error": "e", "purchase": "p",
            "signup": "s", "view": "v",
        },
        pattern="vc*p",
        num_partitions=NP,
    )


QUERIES["sequence_pattern"] = q_sequence_pattern

ORACLE_SQL["sequence_pattern"] = """
    WITH s AS (SELECT user_id,
                      string_agg(left(event_type, 1), ''
                                 ORDER BY event_id) AS seq
               FROM events GROUP BY 1)
    SELECT user_id,
           CAST(len(regexp_extract_all(seq, 'vc*p')) AS BIGINT) AS n_matches
    FROM s WHERE len(regexp_extract_all(seq, 'vc*p')) > 0
"""


def q_embedding_covariance(sf_dir: str):
    """Exact covariance matrix of the (quantized) embedding corpus
    (stages/linalg.py:embedding_covariance): each block collapses to ONE
    partial row (count, sum vector, D² outer-product sums) — a pure
    combiner, no shuffle; finalization is one big-int division per
    upper-triangle cell. floor-quantization keeps every sum integer-
    exact and SQL-reproducible."""
    from arlas_proc_ray.stages.linalg import embedding_covariance

    ds = _rp(f"{sf_dir}/embeddings.parquet", columns=["embedding"],
             min_parallelism=4)
    return embedding_covariance(ds, col="embedding", scale=1_000_000)


QUERIES["embedding_covariance"] = q_embedding_covariance

ORACLE_SQL["embedding_covariance"] = """
    WITH q AS (
      SELECT vec_id, i,
             CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000000)
                  AS BIGINT) AS v
      FROM embeddings, UNNEST(range(1, len(embedding) + 1)) AS r(i)),
    p AS (SELECT a.i AS i1, b.i AS j1, count(*) AS n,
                 SUM(a.v::HUGEINT * b.v) AS sxy,
                 SUM(a.v::HUGEINT) AS sx, SUM(b.v::HUGEINT) AS sy
          FROM q a JOIN q b ON a.vec_id = b.vec_id AND a.i <= b.i
          GROUP BY 1, 2)
    SELECT CAST(i1 - 1 AS BIGINT) AS i, CAST(j1 - 1 AS BIGINT) AS j,
           CAST(n * sxy - sx * sy AS DOUBLE)
             / CAST(n::HUGEINT * n AS DOUBLE) AS cov
    FROM p
"""


def q_pca_projection(sf_dir: str):
    """Top-4 PCA projection of the embedding corpus
    (stages/linalg.py:pca_project): exact-integer covariance combiner →
    driver eigh on the D×D matrix (D = embedding width, the small side)
    → ray.put-broadcast components → one matmul per block. Projection
    norms are emitted as scalar columns (deterministic: eig sign fixed
    per component). Rows-only for the driver (eigendecomposition is not
    SQL-expressible); exact Python oracle in tests/test_linalg.py."""
    import numpy as np

    from arlas_proc_ray.stages.linalg import pca_project

    ds = _rp(f"{sf_dir}/embeddings.parquet",
             columns=["vec_id", "embedding"], min_parallelism=4)
    out = pca_project(ds, col="embedding", id_col="vec_id", k=4)

    def widen(pdf: pd.DataFrame) -> pd.DataFrame:
        m = np.vstack(pdf["proj"].to_numpy())
        return pd.DataFrame(
            {
                "vec_id": pdf["vec_id"].to_numpy(),
                **{f"pc{r}": m[:, r] for r in range(m.shape[1])},
            }
        )

    return out.map_batches(widen, batch_format="pandas", batch_size=None)


QUERIES["pca_projection"] = q_pca_projection


def _coengagement_edges(sf_dir: str):
    """User co-engagement multigraph: an edge joins two users sharing a
    (event_type, props.k, day) engagement cell — one keyed exchange on
    the cell key with a per-cell vectorized self-merge (bounded-cell
    contract, same as every blocking join here)."""
    ds = _events(sf_dir, columns=["user_id", "event_type", "ts", "props"])

    def cells(pdf: pd.DataFrame) -> pd.DataFrame:
        k = pdf["props"].str.extract(r'"k":\s*(\d+)')[0]
        day = (
            pdf["ts"].to_numpy().astype("datetime64[us]").astype("int64")
            // 86_400_000_000
        )
        ck = pdf["event_type"] + ":" + k + ":" + pd.Series(
            day, index=pdf.index
        ).astype(str)
        return pd.DataFrame(
            {"user_id": pdf["user_id"], "ck": ck}
        ).drop_duplicates()

    def pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        ut = pdf.drop_duplicates()
        m = ut.merge(ut, on="ck")
        m = m[m["user_id_x"] < m["user_id_y"]]
        return pd.DataFrame(
            {"x": m["user_id_x"].to_numpy(), "y": m["user_id_y"].to_numpy()}
        )

    return keyed_partition_map(
        ds.map_batches(cells, batch_format="pandas", batch_size=None),
        keys=["ck"],
        order_col="user_id",
        fn=pairs,
        num_partitions=NP,
    )


def q_triangle_count(sf_dir: str):
    """Exact triangle count (stages/graph.py:triangle_count) over the
    co-engagement graph (_coengagement_edges): degree-ordered
    orientation → wedge exchange → distributed semi join for big sparse
    graphs; auto-switches to the broadcast adjacency-bitset AND+popcount
    closure in the dense/small-node regime."""
    from arlas_proc_ray.stages.graph import triangle_count

    edges = _coengagement_edges(sf_dir)
    return triangle_count(edges, src_col="x", dst_col="y", num_partitions=NP)


QUERIES["triangle_count"] = q_triangle_count

ORACLE_SQL["triangle_count"] = """
    WITH ek AS (
      SELECT DISTINCT user_id,
             event_type || ':' || json_extract_string(props, '$.k') || ':'
               || CAST(epoch_us(ts) // 86400000000 AS VARCHAR) AS ck
      FROM events),
    ed AS (SELECT DISTINCT a.user_id AS u, b.user_id AS v
           FROM ek a JOIN ek b
             ON a.ck = b.ck AND a.user_id < b.user_id),
    tri AS (SELECT count(*) AS n
            FROM ed e1
            JOIN ed e2 ON e2.u = e1.u AND e2.v > e1.v
            JOIN ed e3 ON e3.u = e1.v AND e3.v = e2.v)
    SELECT (SELECT count(*) FROM
              (SELECT u FROM ed UNION SELECT v FROM ed)) AS n_nodes,
           (SELECT count(*) FROM ed) AS n_edges,
           tri.n AS n_triangles
    FROM tri
"""


def q_benford_digits(sf_dir: str):
    """Leading-digit distribution of value cents per event type (the
    Benford data-quality profile): per-block (type, digit) count
    combiner → one keyed sum exchange. Digits are taken from the exact
    integer cents' decimal string — no float log10 edge cases."""
    ds = _events(sf_dir, columns=["event_type", "value"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        cents = (pdf["value"] * 100).round().astype("int64")
        m = cents > 0
        digit = cents[m].astype(str).str[0]
        vc = (
            pd.DataFrame({"event_type": pdf.loc[m, "event_type"], "digit": digit})
            .groupby(["event_type", "digit"], sort=False)
            .size()
        )
        out = vc.reset_index(name="n")
        out["n"] = out["n"].astype("int64")
        return out

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=None)

    def reduce_sum(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby(
            ["event_type", "digit"], as_index=False, sort=False
        )["n"].sum()

    return keyed_partition_map(
        partials, keys=["event_type", "digit"], order_col="n",
        fn=reduce_sum, num_partitions=NP,
    )


QUERIES["benford_digits"] = q_benford_digits

ORACLE_SQL["benford_digits"] = """
    WITH c AS (SELECT event_type,
                      CAST(round(value * 100) AS BIGINT) AS cents
               FROM events)
    SELECT event_type, left(CAST(cents AS VARCHAR), 1) AS digit,
           count(*) AS n
    FROM c WHERE cents > 0 GROUP BY 1, 2
"""


def q_lead_lag_correlation(sf_dir: str):
    """Lead-lag Pearson correlation between the daily click and purchase
    count series (lags −3..3), zero-filled on the shared day grid
    (stages/analytics.py:lead_lag_correlation). Daily counts are a
    per-block combiner + one tiny keyed sum; the lag scan is a
    driver-side finalize over tick-sized series. All sums integer; the
    single r expression is bit-identical to the SQL oracle's."""
    from arlas_proc_ray.stages.analytics import lead_lag_correlation

    ds = _events(sf_dir, columns=["event_type", "ts"]).filter(
        expr="event_type == 'click' or event_type == 'purchase'"
    )

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        day = (
            pdf["ts"].to_numpy().astype("datetime64[us]").astype("int64")
            // 86_400_000_000
        )
        vc = (
            pd.DataFrame({"event_type": pdf["event_type"], "day": day})
            .groupby(["event_type", "day"], sort=False)
            .size()
        )
        out = vc.reset_index(name="n")
        out["n"] = out["n"].astype("int64")
        return out

    daily = (
        ds.map_batches(partial, batch_format="pandas", batch_size=None)
        .to_pandas()
        .groupby(["event_type", "day"], sort=False)["n"]
        .sum()
    )
    x = daily.xs("click", level="event_type")
    y = daily.xs("purchase", level="event_type")
    return lead_lag_correlation(x, y, lags=range(-3, 4))


QUERIES["lead_lag_correlation"] = q_lead_lag_correlation

ORACLE_SQL["lead_lag_correlation"] = """
    WITH d AS (SELECT event_type,
                      epoch_us(ts) // 86400000000 AS day
               FROM events
               WHERE event_type IN ('click', 'purchase')),
    bounds AS (SELECT min(day) AS lo, max(day) AS hi FROM d),
    grid AS (SELECT lo + u AS day
             FROM bounds, UNNEST(range(0, hi - lo + 1)) AS r(u)),
    x AS (SELECT g.day, coalesce(c.n, 0) AS n FROM grid g
          LEFT JOIN (SELECT day, count(*) AS n FROM d
                     WHERE event_type = 'click' GROUP BY 1) c USING (day)),
    y AS (SELECT g.day, coalesce(c.n, 0) AS n FROM grid g
          LEFT JOIN (SELECT day, count(*) AS n FROM d
                     WHERE event_type = 'purchase' GROUP BY 1) c USING (day)),
    l AS (SELECT * FROM (VALUES (-3), (-2), (-1), (0), (1), (2), (3))
          AS t(lag)),
    p AS (SELECT l.lag, x.n AS xv, y.n AS yv
          FROM l JOIN x ON TRUE JOIN y ON y.day = x.day + l.lag),
    s AS (SELECT lag, count(*) AS n, sum(xv) AS sx, sum(yv) AS sy,
                 sum(xv * xv) AS sxx, sum(yv * yv) AS syy,
                 sum(xv * yv) AS sxy
          FROM p GROUP BY 1)
    SELECT CAST(lag AS BIGINT) AS lag, CAST(n AS BIGINT) AS n_days,
           CAST(n * sxy - sx * sy AS DOUBLE)
             / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                * sqrt(CAST(n * syy - sy * sy AS DOUBLE))) AS r
    FROM s
    WHERE n * sxx - sx * sx <> 0 AND n * syy - sy * sy <> 0
"""


_IMV_DIM_SQL = [
    "CAST(round(value * 100) AS BIGINT)",
    "CAST(hour(ts) AS BIGINT)",
    "CAST(ascii(left(event_type, 1)) AS BIGINT)",
    "CAST(json_extract_string(props, '$.k') AS BIGINT)",
]


def q_incremental_covariance(sf_dir: str):
    """Covariance state maintained by delta propagation from the events
    changelog (cdc/ivm.py:incremental_moment_view): key (user_id,
    event_type), LSN event_id, tombstone value < 0.05; each change
    retracts its key's previous live 4-dim feature vector (cents, hour,
    type-initial code, props.k) and asserts the new one — all int64, so
    retractions cancel exactly. The oracle computes the same covariance
    FROM the final LWW state; this operator never materializes it."""
    from arlas_proc_ray.cdc.ivm import incremental_moment_view

    ds = _events(sf_dir)
    code = {"click": 99, "error": 101, "purchase": 112,
            "signup": 115, "view": 118}  # ascii(initial); initials distinct

    def feats(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": pdf["user_id"],
                "event_type": pdf["event_type"],
                "event_id": pdf["event_id"],
                "_live": (pdf["value"] >= 0.05),
                "d0": (pdf["value"] * 100).round().astype("int64"),
                "d1": pdf["ts"].dt.hour.astype("int64"),
                "d2": pdf["event_type"].map(code).astype("int64"),
                "d3": pdf["props"]
                .str.extract(r'"k":\s*(\d+)')[0]
                .astype("int64"),
            }
        )

    chg = ds.map_batches(feats, batch_format="pandas", batch_size=None)
    return incremental_moment_view(
        chg,
        key=["user_id", "event_type"],
        order_col="event_id",
        live_col="_live",
        vec_cols=["d0", "d1", "d2", "d3"],
        num_partitions=NP,
    )


QUERIES["incremental_covariance"] = q_incremental_covariance


def _imv_oracle() -> str:
    dims = _IMV_DIM_SQL
    sums = ["count(*) AS n"]
    for i in range(4):
        sums.append(f"sum(d{i}::HUGEINT) AS s{i}")
        for j in range(i, 4):
            sums.append(f"sum(d{i}::HUGEINT * d{j}) AS p{i}{j}")
    cells = []
    for i in range(4):
        for j in range(i, 4):
            cells.append(
                f"SELECT {i}::BIGINT AS i, {j}::BIGINT AS j, "
                f"CAST(n::HUGEINT * p{i}{j} - s{i} * s{j} AS DOUBLE) "
                f"/ CAST(n::HUGEINT * n AS DOUBLE) AS cov FROM s"
            )
    dim_sel = ", ".join(f"{expr} AS d{k}" for k, expr in enumerate(dims))
    return f"""
    WITH ranked AS (
      SELECT *, row_number() OVER (PARTITION BY user_id, event_type
                                   ORDER BY event_id DESC) AS rn
      FROM events),
    live AS (SELECT {dim_sel}
             FROM ranked WHERE rn = 1 AND value >= 0.05),
    s AS (SELECT {', '.join(sums)} FROM live)
    {' UNION ALL '.join(cells)}
    """


ORACLE_SQL["incremental_covariance"] = _imv_oracle()


def q_doc_compression_ratio(sf_dir: str):
    """zlib compression-ratio quality signal per document
    (functions/text.py:compression_ratio_fn) + the downstream filter
    shape: docs whose ratio marks degenerate repetition (< 0.3) or
    near-random noise (> 0.9) are flagged. Rows-only for the driver
    (zlib is not SQL-expressible); same-library oracle in
    tests/test_sampling_vocab.py."""
    ds = _docs(sf_dir, columns=["doc_id", "text"], min_parallelism=4)
    from arlas_proc_ray.functions.text import compression_ratio_fn

    out = ds.map_batches(
        compression_ratio_fn("text"), batch_format="pyarrow",
        batch_size=None,
    )

    def finish(t: pa.Table) -> pa.Table:
        r = t.column("zlib_ratio")
        flag = pc.or_(pc.less(r, 0.3), pc.greater(r, 0.9))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "zlib_ratio": r,
                "flagged": flag,
            }
        )

    return out.map_batches(finish, batch_format="pyarrow", batch_size=None)


QUERIES["doc_compression_ratio"] = q_doc_compression_ratio


def q_trailing_window_spend(sf_dir: str):
    """Per-event trailing 7-day same-user activity (SQL RANGE frame:
    peers at the same timestamp included): event count + exact-cents
    spend over [ts−7d, ts] (stages/windows.py:trailing_range_agg — two
    global searchsorted calls + a prefix-sum difference per partition,
    no per-row work). One keyed exchange."""
    from arlas_proc_ray.stages.windows import trailing_range_agg

    ds = _events(sf_dir, columns=["user_id", "event_id", "ts", "value"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)), pa.int64())
        return t.append_column("_cents", c)

    return trailing_range_agg(
        ds.map_batches(cents, batch_format="pyarrow", batch_size=None),
        key_col="user_id",
        ts_col="ts",
        order_col="event_id",
        value_int_col="_cents",
        window_us=7 * 86_400_000_000,
        n_name="trailing_n",
        sum_name="trailing_cents",
        num_partitions=NP,
    )


QUERIES["trailing_window_spend"] = q_trailing_window_spend

ORACLE_SQL["trailing_window_spend"] = """
    WITH e AS (SELECT user_id, event_id, ts,
                      CAST(round(value * 100) AS BIGINT) AS cents
               FROM events)
    SELECT user_id, event_id, COUNT(*) OVER w AS trailing_n,
           CAST(SUM(cents) OVER w AS BIGINT) AS trailing_cents
    FROM e
    WINDOW w AS (PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 7 DAY PRECEDING AND CURRENT ROW)
"""


def q_clustering_coefficient(sf_dir: str):
    """Per-user triangle counts + local clustering coefficient over the
    co-engagement graph (stages/graph.py:clustering_coefficients):
    adjacency-bitset closure with per-edge common-neighbor counts
    scattered to both endpoints (Σ incident = 2·tri(v)); the coefficient
    is one exact-int division — bit-identical to the oracle's."""
    from arlas_proc_ray.stages.graph import clustering_coefficients

    edges = _coengagement_edges(sf_dir)
    out = clustering_coefficients(
        edges, src_col="x", dst_col="y", num_partitions=NP
    )
    return out.rename(columns={"node": "user_id"})


QUERIES["clustering_coefficient"] = q_clustering_coefficient

ORACLE_SQL["clustering_coefficient"] = """
    WITH ek AS (
      SELECT DISTINCT user_id,
             event_type || ':' || json_extract_string(props, '$.k') || ':'
               || CAST(epoch_us(ts) // 86400000000 AS VARCHAR) AS ck
      FROM events),
    ed AS (SELECT DISTINCT a.user_id AS u, b.user_id AS v
           FROM ek a JOIN ek b
             ON a.ck = b.ck AND a.user_id < b.user_id),
    deg AS (SELECT node, count(*) AS d FROM
              (SELECT u AS node FROM ed UNION ALL SELECT v FROM ed)
            GROUP BY 1),
    tri3 AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
             FROM ed e1
             JOIN ed e2 ON e2.u = e1.u AND e2.v > e1.v
             JOIN ed e3 ON e3.u = e1.v AND e3.v = e2.v),
    pn AS (SELECT node, count(*) AS t FROM
             (SELECT a AS node FROM tri3
              UNION ALL SELECT b FROM tri3
              UNION ALL SELECT c FROM tri3)
           GROUP BY 1)
    SELECT deg.node AS user_id, deg.d AS degree,
           coalesce(pn.t, 0) AS triangles,
           CASE WHEN deg.d > 1
                THEN CAST(2 * coalesce(pn.t, 0) AS DOUBLE)
                     / (deg.d * (deg.d - 1))
                ELSE 0.0 END AS clustering
    FROM deg LEFT JOIN pn ON pn.node = deg.node
"""


def q_weighted_sssp(sf_dir: str):
    """Weighted shortest distances from the smallest user over the
    user↔event-type interaction graph (weight = interaction count,
    mirrored), 4 synchronous Bellman-Ford rounds
    (stages/graph.py:bellman_ford_dists — per round one in-block relax +
    a node-sized tree collect; exact int64 mins)."""
    from arlas_proc_ray.stages.graph import bellman_ford_dists

    ds = _events(sf_dir, columns=["user_id", "event_type"])
    root = f"u:{int(ds.min('user_id'))}"

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        g = (
            pdf.groupby(["user_id", "event_type"], sort=False)
            .size()
            .reset_index(name="w")
        )
        u = "u:" + g["user_id"].astype("int64").astype(str)
        t = "t:" + g["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
                "w": pd.concat([g["w"], g["w"]], ignore_index=True).astype(
                    "int64"
                ),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)

    def combine_w(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby(["src", "dst"], sort=False, as_index=False)["w"].sum()

    edges = keyed_partition_map(
        edges, keys=["src", "dst"], order_col="w", fn=combine_w,
        num_partitions=NP,
    )
    return bellman_ford_dists(
        edges, src_col="src", dst_col="dst", weight_col="w",
        sources=[root], rounds=4,
    )


QUERIES["weighted_sssp"] = q_weighted_sssp


def q_weighted_sssp_exchange(sf_dir: str):
    """q_weighted_sssp on the NO-driver-state path
    (stages/graph.py:bellman_ford_exchange): the distance vector lives
    as a hash-partitioned Dataset, each round = two co-partition
    exchanges + a streaming chg aggregate — the scale route for reached
    sets too large to broadcast. Bit-identical to the broadcast path
    (parity-pinned in tests), so it shares weighted_sssp's SQL oracle."""
    from arlas_proc_ray.stages.graph import bellman_ford_exchange

    ds = _events(sf_dir, columns=["user_id", "event_type"])
    root = f"u:{int(ds.min('user_id'))}"

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        g = (
            pdf.groupby(["user_id", "event_type"], sort=False)
            .size()
            .reset_index(name="w")
        )
        u = "u:" + g["user_id"].astype("int64").astype(str)
        t = "t:" + g["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
                "w": pd.concat([g["w"], g["w"]], ignore_index=True).astype(
                    "int64"
                ),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)

    def combine_w(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby(["src", "dst"], sort=False, as_index=False)["w"].sum()

    edges = keyed_partition_map(
        edges, keys=["src", "dst"], order_col="w", fn=combine_w,
        num_partitions=NP,
    )
    return bellman_ford_exchange(
        edges, src_col="src", dst_col="dst", weight_col="w",
        sources=[root], rounds=4, num_partitions=NP,
    )


QUERIES["weighted_sssp_exchange"] = q_weighted_sssp_exchange


def q_hops_from_user_exchange(sf_dir: str):
    """q_hops_from_user on the NO-driver-frontier path
    (stages/graph.py:shortest_hops_exchange — the unit-weight
    Bellman-Ford specialization over Dataset-resident state).
    Bit-identical to the broadcast BFS (parity-pinned), so it shares
    hops_from_user's SQL oracle."""
    from arlas_proc_ray.stages.graph import shortest_hops_exchange

    ds = _events(sf_dir, columns=["user_id", "event_type"])
    root = int(ds.min("user_id"))

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    return shortest_hops_exchange(
        edges, src_col="src", dst_col="dst", sources=[f"u:{root}"],
        max_hops=3, num_partitions=NP,
    )


QUERIES["hops_from_user_exchange"] = q_hops_from_user_exchange


def q_label_communities(sf_dir: str):
    """Deterministic synchronous label propagation (2 rounds) over the
    mirrored user↔event-type interaction multigraph
    (stages/graph.py:label_propagation): label₀ = own id; each round a
    node adopts its most frequent in-neighbor label (raw event rows
    count — multigraph, no DISTINCT), smallest label on ties. The
    per-node argmax folds through one keyed exchange per round (the
    (node, label) count table is edge-sized in round 1, never
    driver-held); the final label vector is node-sized. Exact integer
    counts + byte-order min ⇒ hash-exact vs the chained-CTE oracle."""
    from arlas_proc_ray.stages.graph import label_propagation

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    return label_propagation(
        edges, src_col="src", dst_col="dst", rounds=2, num_partitions=NP,
    )


QUERIES["label_communities"] = q_label_communities


def _lpa_oracle(rounds: int = 2) -> str:
    sql = """
    WITH pw AS (
      SELECT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t
      FROM events),
    edges AS (SELECT u AS src, t AS dst FROM pw
              UNION ALL SELECT t, u FROM pw),
    l0 AS (SELECT node, node AS label
           FROM (SELECT DISTINCT src AS node FROM edges
                 UNION SELECT DISTINCT dst FROM edges))"""
    prev = "l0"
    for r in range(1, rounds + 1):
        sql += f""",
    c{r} AS (SELECT e.dst AS node, l.label,
                    CAST(count(*) AS BIGINT) AS c
             FROM edges e JOIN {prev} l ON l.node = e.src
             GROUP BY 1, 2),
    p{r} AS (SELECT node, min(label) AS label
             FROM (SELECT node, label, c,
                          max(c) OVER (PARTITION BY node) AS m
                   FROM c{r})
             WHERE c = m GROUP BY node),
    l{r} AS (SELECT {prev}.node,
                    COALESCE(p{r}.label, {prev}.label) AS label
             FROM {prev} LEFT JOIN p{r} USING (node))"""
        prev = f"l{r}"
    return sql + f"\n    SELECT node, label FROM {prev} ORDER BY node"


ORACLE_SQL["label_communities"] = _lpa_oracle()


def _sssp_oracle(rounds: int = 4) -> str:
    sql = """
    WITH pw AS (
      SELECT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t,
             CAST(count(*) AS BIGINT) AS w
      FROM events GROUP BY 1, 2),
    edges AS (SELECT u AS src, t AS dst, w FROM pw
              UNION ALL SELECT t, u, w FROM pw),
    root AS (SELECT 'u:' || CAST(min(user_id) AS VARCHAR) AS node
             FROM events),
    d0 AS (SELECT node, 0::BIGINT AS dist FROM root)"""
    prev = "d0"
    for i in range(1, rounds + 1):
        sql += f""",
    d{i} AS (SELECT node, min(dist) AS dist FROM (
        SELECT e.dst AS node, d.dist + e.w AS dist
        FROM edges e JOIN {prev} d ON d.node = e.src
        UNION ALL SELECT node, dist FROM {prev}) GROUP BY 1)"""
        prev = f"d{i}"
    sql += f"""
    SELECT node, CAST(dist AS BIGINT) AS dist FROM {prev}
"""
    return sql


ORACLE_SQL["weighted_sssp"] = _sssp_oracle()
# the exchange-mode variant is bit-identical by contract (parity test);
# the driver verifies it against the SAME chained-CTE oracle
ORACLE_SQL["weighted_sssp_exchange"] = _sssp_oracle()
ORACLE_SQL["hops_from_user_exchange"] = _hops_oracle()


def q_k_core_users(sf_dir: str):
    """3-core of the co-engagement graph
    (stages/graph.py:k_core): iterative peel — per round a node-sized
    degree tree-collect + one broadcast survivor filter over the edge
    Dataset. SQL-oracled by a fixed-depth chained-CTE peel (see
    _k_core_oracle): one peel round is MONOTONE (survivors only shrink)
    and IDEMPOTENT at fixpoint, so a chained oracle with rounds ≥ the
    true peel depth is exact — measured depth on the co-engagement
    fixture is ≤ 2 at sf0.001/0.01/0.1, and the oracle chains 8 rounds
    (4× headroom; extra rounds are no-ops). The exact Python peel
    oracle additionally pins the data-dependent-depth general case in
    tests/test_graph.py."""
    from arlas_proc_ray.stages.graph import k_core

    edges = _coengagement_edges(sf_dir)
    return k_core(edges, src_col="x", dst_col="y", k=3, num_partitions=NP)


QUERIES["k_core_users"] = q_k_core_users


def _k_core_oracle(k: int = 3, rounds: int = 8) -> str:
    """Chained-CTE peel: s0 = all nodes; s_{i+1} = nodes with degree ≥ k
    in the s_i-induced subgraph. Same chained shape as _sssp_oracle —
    a fixed unroll of a monotone fixpoint, exact whenever ``rounds``
    covers the true peel depth (idempotent past it)."""
    # every CTE is MATERIALIZED: each round references its predecessor
    # four times, so default inlining would expand s_n into 4^n scans
    # of the base parquet (observed as a too-many-open-files explosion)
    sql = """
    WITH ek AS MATERIALIZED (
      SELECT DISTINCT user_id,
             event_type || ':' || json_extract_string(props, '$.k') || ':'
               || CAST(epoch_us(ts) // 86400000000 AS VARCHAR) AS ck
      FROM events),
    ed AS MATERIALIZED (
           SELECT DISTINCT a.user_id AS u, b.user_id AS v
           FROM ek a JOIN ek b ON a.ck = b.ck AND a.user_id < b.user_id),
    s0 AS MATERIALIZED (SELECT u AS node FROM ed UNION SELECT v FROM ed)"""
    prev = "s0"
    for i in range(1, rounds + 1):
        sql += f""",
    s{i} AS MATERIALIZED (
      SELECT node FROM (
        SELECT node, count(*) AS d FROM (
          SELECT e.u AS node FROM ed e
          JOIN {prev} a ON a.node = e.u JOIN {prev} b ON b.node = e.v
          UNION ALL
          SELECT e.v FROM ed e
          JOIN {prev} a ON a.node = e.u JOIN {prev} b ON b.node = e.v
        ) GROUP BY 1) WHERE d >= {k})"""
        prev = f"s{i}"
    sql += f"""
    SELECT node, CAST(d AS BIGINT) AS core_degree FROM (
      SELECT node, count(*) AS d FROM (
        SELECT e.u AS node FROM ed e
        JOIN {prev} a ON a.node = e.u JOIN {prev} b ON b.node = e.v
        UNION ALL
        SELECT e.v FROM ed e
        JOIN {prev} a ON a.node = e.u JOIN {prev} b ON b.node = e.v
      ) GROUP BY 1)
"""
    return sql


ORACLE_SQL["k_core_users"] = _k_core_oracle()


def q_rrf_user_rank(sf_dir: str):
    """Reciprocal-rank fusion (Cormack et al. 2009, k=60) of two user
    leaderboards — total exact-cents spend and event count. The
    aggregation is one keyed-exchange combiner; the fusion is a
    node-sized driver finalize (two argsort ranks + the fixed two-term
    1/(60+r) sum, evaluated in the same order as the SQL oracle —
    bit-identical doubles).

    Driver-finalize cardinality contract (mirrors graph.py's node-sized
    broadcast bound): the finalize holds one row per DISTINCT USER —
    entity cardinality, not event cardinality — the same small-side
    rule as every broadcast join here. The numpy argsort/rank kernels
    handle 10⁶ keys in well under a second (pinned by
    test_leaderboard_finalize_1m_keys); if user cardinality ever
    approaches event cardinality, rank assignment itself becomes a
    distributed sort (stages/scan.py global rank) and this finalize is
    the wrong shape."""
    ds = _events(sf_dir, columns=["user_id", "value"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        cents = (pdf["value"] * 100).round().astype("int64")
        g = (
            pd.DataFrame({"user_id": pdf["user_id"], "c": cents})
            .groupby("user_id", sort=False)["c"]
            .agg(["sum", "size"])
        )
        return pd.DataFrame(
            {
                "user_id": g.index.to_numpy(),
                "spend": g["sum"].to_numpy(np.int64),
                "n": g["size"].to_numpy(np.int64),
            }
        )

    def reduce_sum(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby("user_id", as_index=False, sort=False)[
            ["spend", "n"]
        ].sum()

    agg = keyed_partition_map(
        ds.map_batches(partial, batch_format="pandas", batch_size=None),
        keys=["user_id"], order_col="spend", fn=reduce_sum,
        num_partitions=NP,
    ).to_pandas()
    agg = agg.sort_values(["spend", "user_id"], ascending=[False, True],
                          kind="mergesort").reset_index(drop=True)
    agg["r1"] = np.arange(1, len(agg) + 1, dtype=np.int64)
    agg = agg.sort_values(["n", "user_id"], ascending=[False, True],
                          kind="mergesort").reset_index(drop=True)
    agg["r2"] = np.arange(1, len(agg) + 1, dtype=np.int64)
    agg["rrf"] = 1.0 / (60 + agg["r1"]) + 1.0 / (60 + agg["r2"])
    return agg[["user_id", "r1", "r2", "rrf"]]


QUERIES["rrf_user_rank"] = q_rrf_user_rank

ORACLE_SQL["rrf_user_rank"] = """
    WITH agg AS (
      SELECT user_id,
             SUM(CAST(round(value * 100) AS BIGINT)) AS spend,
             count(*) AS n
      FROM events GROUP BY 1),
    r AS (SELECT user_id,
                 row_number() OVER (ORDER BY spend DESC, user_id) AS r1,
                 row_number() OVER (ORDER BY n DESC, user_id) AS r2
          FROM agg)
    SELECT user_id, r1, r2,
           1.0 / (60 + r1) + 1.0 / (60 + r2) AS rrf
    FROM r
"""


def q_gini_spend(sf_dir: str):
    """Gini concentration of per-user spend: the exact-integer form
    ``G = (2·Σ i·x_(i)) / (n·Σx) − (n+1)/n`` over cents sorted ascending
    (deterministic user_id tiebreak is irrelevant — the statistic only
    uses sorted VALUES). Per-user totals are a keyed-combiner aggregate;
    the rank-weighted sums are exact big-ints on the node-sized result,
    rounded once per term — same two-term expression as the oracle.
    Finalize bounded by DISTINCT USER cardinality (entity-sized, ≪
    events — see q_rrf_user_rank's cardinality contract; 10⁶-key
    stress-pinned)."""
    ds = _events(sf_dir, columns=["user_id", "value"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        cents = (pdf["value"] * 100).round().astype("int64")
        g = (
            pd.DataFrame({"user_id": pdf["user_id"], "c": cents})
            .groupby("user_id", sort=False)["c"]
            .sum()
        )
        return pd.DataFrame(
            {"user_id": g.index.to_numpy(), "c": g.to_numpy(np.int64)}
        )

    def reduce_sum(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby("user_id", as_index=False, sort=False)["c"].sum()

    agg = keyed_partition_map(
        ds.map_batches(partial, batch_format="pandas", batch_size=None),
        keys=["user_id"], order_col="c", fn=reduce_sum, num_partitions=NP,
    ).to_pandas()
    x = np.sort(agg["c"].to_numpy(np.int64))
    n = len(x)
    tot = int(x.sum())
    weighted = int((np.arange(1, n + 1, dtype=np.int64) * x).sum())
    gini = float(2 * weighted) / float(n * tot) - float(n + 1) / float(n)
    return pd.DataFrame(
        {
            "n_users": np.array([n], dtype=np.int64),
            "total_cents": np.array([tot], dtype=np.int64),
            "gini": np.array([gini], dtype=np.float64),
        }
    )


QUERIES["gini_spend"] = q_gini_spend

ORACLE_SQL["gini_spend"] = """
    WITH agg AS (
      SELECT user_id,
             SUM(CAST(round(value * 100) AS BIGINT)) AS c
      FROM events GROUP BY 1),
    r AS (SELECT c, row_number() OVER (ORDER BY c) AS i FROM agg),
    s AS (SELECT CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(c) AS BIGINT) AS tot,
                 CAST(sum(i * c) AS HUGEINT) AS w
          FROM r)
    SELECT n AS n_users, tot AS total_cents,
           CAST(2 * w AS DOUBLE) / CAST(n::HUGEINT * tot AS DOUBLE)
             - CAST(n + 1 AS DOUBLE) / CAST(n AS DOUBLE) AS gini
    FROM s
"""


def q_spearman_spend_activity(sf_dir: str):
    """Spearman rank correlation between the spend and activity user
    rankings (strict total orders — deterministic user_id tiebreak on
    BOTH sides, documented; no fractional tie ranks): ρ = 1 −
    6·Σd²/(n·(n²−1)), exact integer Σd² and ONE fixed-order float
    expression — bit-identical to the oracle. Same keyed-combiner
    aggregation as rrf_user_rank; the finalize is bounded by DISTINCT
    USER cardinality (entity-sized, ≪ events — see q_rrf_user_rank's
    cardinality contract; 10⁶-key stress-pinned)."""
    ranks = q_rrf_user_rank(sf_dir)
    d = ranks["r1"].to_numpy(np.int64) - ranks["r2"].to_numpy(np.int64)
    n = len(ranks)
    sd2 = int((d * d).sum())
    rho = 1.0 - float(6 * sd2) / float(n * (n * n - 1))
    return pd.DataFrame(
        {
            "n_users": np.array([n], dtype=np.int64),
            "sum_d2": np.array([sd2], dtype=np.int64),
            "spearman_rho": np.array([rho], dtype=np.float64),
        }
    )


QUERIES["spearman_spend_activity"] = q_spearman_spend_activity

ORACLE_SQL["spearman_spend_activity"] = """
    WITH agg AS (
      SELECT user_id,
             SUM(CAST(round(value * 100) AS BIGINT)) AS spend,
             count(*) AS n
      FROM events GROUP BY 1),
    r AS (SELECT user_id,
                 row_number() OVER (ORDER BY spend DESC, user_id) AS r1,
                 row_number() OVER (ORDER BY n DESC, user_id) AS r2
          FROM agg),
    s AS (SELECT CAST(count(*) AS BIGINT) AS n,
                 CAST(sum((r1 - r2) * (r1 - r2)) AS BIGINT) AS sd2
          FROM r)
    SELECT n AS n_users, sd2 AS sum_d2,
           1.0 - CAST(6 * sd2 AS DOUBLE)
                 / CAST(n::HUGEINT * (n * n - 1) AS DOUBLE) AS spearman_rho
    FROM s
"""


# the level-vectorized merge counter moved to stages/inversions.py
# (alongside its distributed twin); re-exported here for the property
# tests and the driver-side finalizes below.
from arlas_proc_ray.stages.inversions import (  # noqa: E402
    count_inversions as _count_inversions,
)


def q_kendall_spend_activity(sf_dir: str):
    """Kendall τ between the spend and activity rankings (strict
    deterministic orders, as in spearman_spend_activity): τ = 1 −
    4·inv/(n·(n−1)) where ``inv`` is the exact inversion count of the
    activity rank sequence read in spend order — level-vectorized
    merge-counted (O(n log² n), no per-segment Python) on the rank
    table; the oracle counts discordant pairs with an O(n²) self-join
    (tiny at oracle scales). Finalize bounded by DISTINCT USER
    cardinality (entity-sized, ≪ events — see q_rrf_user_rank's
    cardinality contract); 10⁶ keys count in ~3 s, stress-pinned."""
    ranks = q_rrf_user_rank(sf_dir).sort_values("r1", kind="mergesort")
    seq = ranks["r2"].to_numpy(np.int64)
    n = len(seq)
    inv = _count_inversions(seq)
    tau = 1.0 - float(4 * inv) / float(n * (n - 1))
    return pd.DataFrame(
        {
            "n_users": np.array([n], dtype=np.int64),
            "discordant": np.array([inv], dtype=np.int64),
            "kendall_tau": np.array([tau], dtype=np.float64),
        }
    )


QUERIES["kendall_spend_activity"] = q_kendall_spend_activity

ORACLE_SQL["kendall_spend_activity"] = """
    WITH agg AS (
      SELECT user_id,
             SUM(CAST(round(value * 100) AS BIGINT)) AS spend,
             count(*) AS n
      FROM events GROUP BY 1),
    r AS (SELECT user_id,
                 row_number() OVER (ORDER BY spend DESC, user_id) AS r1,
                 row_number() OVER (ORDER BY n DESC, user_id) AS r2
          FROM agg),
    s AS (SELECT CAST(count(*) AS BIGINT) AS n FROM r),
    d AS (SELECT CAST(count(*) AS BIGINT) AS inv
          FROM r a JOIN r b ON a.r1 < b.r1 AND a.r2 > b.r2)
    SELECT s.n AS n_users, d.inv AS discordant,
           1.0 - CAST(4 * d.inv AS DOUBLE)
                 / CAST(s.n::HUGEINT * (s.n - 1) AS DOUBLE) AS kendall_tau
    FROM s, d
"""


def q_chi2_cells(sf_dir: str):
    """Independence profile of event_type × hour-of-day: per-cell
    observed counts and the expected count under independence
    (row_total·col_total/n — ONE division of exact big-ints per cell,
    bit-identical to the oracle; the χ² reduction is left to the
    consumer since a float SUM over cells is summation-order-sensitive).
    Per-block (type, hour) combiner → one keyed sum exchange →
    cell-sized driver finalize for the marginals."""
    ds = _events(sf_dir, columns=["event_type", "ts"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        vc = (
            pd.DataFrame(
                {
                    "event_type": pdf["event_type"],
                    "hour": pdf["ts"].dt.hour.astype("int64"),
                }
            )
            .groupby(["event_type", "hour"], sort=False)
            .size()
        )
        out = vc.reset_index(name="observed")
        out["observed"] = out["observed"].astype("int64")
        return out

    def reduce_sum(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby(
            ["event_type", "hour"], as_index=False, sort=False
        )["observed"].sum()

    cells = keyed_partition_map(
        ds.map_batches(partial, batch_format="pandas", batch_size=None),
        keys=["event_type", "hour"], order_col="observed", fn=reduce_sum,
        num_partitions=NP,
    ).to_pandas()
    rt = cells.groupby("event_type")["observed"].sum()
    ct = cells.groupby("hour")["observed"].sum()
    n = int(cells["observed"].sum())
    exp = [
        float(int(rt[t]) * int(ct[h])) / float(n)
        for t, h in zip(cells["event_type"], cells["hour"])
    ]
    cells["expected"] = np.array(exp, dtype=np.float64)
    return cells


QUERIES["chi2_cells"] = q_chi2_cells

ORACLE_SQL["chi2_cells"] = """
    WITH c AS (SELECT event_type, CAST(hour(ts) AS BIGINT) AS hour,
                      count(*) AS observed
               FROM events GROUP BY 1, 2),
    rt AS (SELECT event_type, sum(observed) AS r FROM c GROUP BY 1),
    ct AS (SELECT hour, sum(observed) AS t FROM c GROUP BY 1),
    n AS (SELECT sum(observed) AS n FROM c)
    SELECT c.event_type, c.hour, c.observed,
           CAST(rt.r::HUGEINT * ct.t AS DOUBLE) / CAST(n.n AS DOUBLE)
             AS expected
    FROM c JOIN rt USING (event_type) JOIN ct USING (hour) CROSS JOIN n
"""


_ENTROPY_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_user_type_entropy(sf_dir: str):
    """Shannon entropy of each user's event-type mix (behavioral
    diversity signal). The five per-type terms are evaluated in a FIXED
    written order on both sides (left-associated sum, identical ln
    inputs); ln itself may differ by ≤1–2 ulp between numpy and DuckDB,
    so the output is rounded to 6 dp on both sides — the same
    documented policy as the cosine similarities. Distributed pivot in
    the keyed partition fn; one exchange."""
    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def part(pdf: pd.DataFrame) -> pd.DataFrame:
        piv = (
            pdf.groupby(["user_id", "event_type"], sort=False)
            .size()
            .unstack(fill_value=0)
        )
        for t in _ENTROPY_TYPES:
            if t not in piv.columns:
                piv[t] = 0
        n = piv[_ENTROPY_TYPES].sum(axis=1).to_numpy(np.int64)
        h = np.zeros(len(piv), dtype=np.float64)
        for t in _ENTROPY_TYPES:  # fixed order — same sum tree as the SQL
            c = piv[t].to_numpy(np.int64)
            p = c / n
            term = np.where(c > 0, p * np.log(np.where(c > 0, p, 1.0)), 0.0)
            h = h + term
        return pd.DataFrame(
            {
                "user_id": piv.index.to_numpy(np.int64),
                "n_events": n,
                "entropy": np.round(-h, 6) + 0.0,  # -0.0 → 0.0
            }
        )

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_type", fn=part,
        num_partitions=NP,
    )


QUERIES["user_type_entropy"] = q_user_type_entropy

_ENTROPY_TERMS = " + ".join(
    f"CASE WHEN c_{t} > 0 THEN (c_{t} / nn) * ln(c_{t} / nn) ELSE 0.0 END"
    for t in _ENTROPY_TYPES
)
_ENTROPY_COUNTS = ", ".join(
    f"CAST(count(*) FILTER (event_type = '{t}') AS DOUBLE) AS c_{t}"
    for t in _ENTROPY_TYPES
)

ORACLE_SQL["user_type_entropy"] = f"""
    WITH piv AS (
      SELECT user_id, {_ENTROPY_COUNTS},
             CAST(count(*) AS DOUBLE) AS nn,
             count(*) AS n_events
      FROM events GROUP BY user_id)
    SELECT user_id, n_events,
           round(-({_ENTROPY_TERMS}), 6) + 0.0 AS entropy
    FROM piv
"""


# ---------------------------------------------------------------------------
# round-5 additions: market-basket rules, CDC op-sequence audit,
# degree distribution, RFM segmentation
# ---------------------------------------------------------------------------


def q_assoc_rules(sf_dir: str):
    """Market-basket association rules over per-user event-type sets
    (reference analogue: the co-occurrence summaries ARLAS derives per
    object, transform/FragmentSummaryTransformer.scala:1): for every
    ordered pair (ante, conseq) of event types, the number of users who
    did both, each marginal, and support / confidence / lift.

    Scale shape: block-level (user, type) dedup combiner → ONE keyed
    exchange on user_id; inside each partition the pair expansion is a
    self-merge of the per-user distinct-type table (≤ T types per user,
    so ≤ T² rows per user) reduced to partition-local (ante, conseq)
    counts before leaving the task. The partial table the driver folds
    is ≤ NP × (T² + T + 1) rows — TYPE-cardinality bounded, never
    user- or event-sized. Per-partition distinct-user counts sum
    exactly because the exchange makes user partitions disjoint.

    Determinism: ratios are parts-per-million INTEGERS via
    floor((1e6 · a) / b) with identical float64 op order on both sides
    (counts ≪ 2^53, so every intermediate is exactly representable).
    """
    ds = _events(sf_dir, columns=["user_id", "event_type"])
    pre = ds.map_batches(
        lambda pdf: pdf.drop_duplicates(),
        batch_format="pandas",
        batch_size=None,
    )

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.drop_duplicates()  # global distinct: user rows co-located
        m = pdf.merge(pdf, on="user_id")
        m = m[m["event_type_x"] != m["event_type_y"]]
        pairs = (
            m.groupby(["event_type_x", "event_type_y"], sort=False)
            .size()
            .reset_index(name="n")
        )
        pairs.columns = ["a", "b", "n"]
        marg = (
            pdf.groupby("event_type", sort=False)
            .size()
            .reset_index(name="n")
        )
        marg = pd.DataFrame(
            {"a": marg["event_type"], "b": "*", "n": marg["n"]}
        )
        tot = pd.DataFrame(
            {"a": ["*"], "b": ["*"], "n": [pdf["user_id"].nunique()]}
        )
        out = pd.concat([pairs, marg, tot], ignore_index=True)
        out["n"] = out["n"].astype("int64")
        return out

    part = keyed_partition_map(
        pre,
        keys=["user_id"],
        order_col="event_type",
        fn=partial,
        num_partitions=NP,
    )
    pdf = part.to_pandas()  # type-cardinality bounded (see docstring)
    agg = pdf.groupby(["a", "b"], as_index=False)["n"].sum()
    n_users = int(agg.loc[agg["a"] == "*", "n"].sum())
    marg = (
        agg[(agg["b"] == "*") & (agg["a"] != "*")]
        .set_index("a")["n"]
        .astype("int64")
    )
    out = agg[agg["b"] != "*"].copy()
    out = out.rename(columns={"a": "ante", "b": "conseq", "n": "n_both"})
    out["n_both"] = out["n_both"].astype("int64")
    out["n_a"] = out["ante"].map(marg).astype("int64")
    out["n_b"] = out["conseq"].map(marg).astype("int64")
    out["n_users"] = np.int64(n_users)
    n_ab = out["n_both"].to_numpy(np.float64)
    n_a = out["n_a"].to_numpy(np.float64)
    n_b = out["n_b"].to_numpy(np.float64)
    out["support_ppm"] = np.floor(1000000.0 * n_ab / float(n_users)).astype(
        "int64"
    )
    out["confidence_ppm"] = np.floor(1000000.0 * n_ab / n_a).astype("int64")
    lift_num = 1000000.0 * (
        out["n_both"].to_numpy() * np.int64(n_users)
    ).astype(np.float64)
    out["lift_ppm"] = np.floor(lift_num / (n_a * n_b)).astype("int64")
    return out[
        [
            "ante",
            "conseq",
            "n_both",
            "n_a",
            "n_b",
            "n_users",
            "support_ppm",
            "confidence_ppm",
            "lift_ppm",
        ]
    ].reset_index(drop=True)


QUERIES["assoc_rules"] = q_assoc_rules

ORACLE_SQL["assoc_rules"] = """
    WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
    tot AS (SELECT count(DISTINCT user_id) AS n_users FROM events),
    marg AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
             FROM ut GROUP BY event_type),
    pairs AS (SELECT x.event_type AS ante, y.event_type AS conseq,
                     CAST(count(*) AS BIGINT) AS n_both
              FROM ut x JOIN ut y
                ON x.user_id = y.user_id
               AND x.event_type <> y.event_type
              GROUP BY 1, 2)
    SELECT p.ante, p.conseq, p.n_both,
           ma.n AS n_a, mb.n AS n_b, t.n_users,
           CAST(floor(1000000.0 * p.n_both / t.n_users) AS BIGINT)
             AS support_ppm,
           CAST(floor(1000000.0 * p.n_both / ma.n) AS BIGINT)
             AS confidence_ppm,
           CAST(floor(1000000.0 * (p.n_both * t.n_users)
                      / (ma.n * mb.n)) AS BIGINT) AS lift_ppm
    FROM pairs p
    JOIN marg ma ON ma.event_type = p.ante
    JOIN marg mb ON mb.event_type = p.conseq
    CROSS JOIN tot t
    ORDER BY ante, conseq
"""


def q_cdc_delete_reinsert(sf_dir: str):
    """CDC op-sequence audit over the flagship changelog mapping
    (cdc/replay.py delete-then-reinsert semantics, reference analogue
    transform/DataFrameFormatter.scala:1 keyed cleanup): per (repo,
    path) key, total ops, deletes, delete→reinsert episodes (a DELETE
    immediately followed in LSN order by an UPDATE — the tombstone
    resurrection case the engine's chaos tests replay), last applied
    LSN and the op that applied it.

    One keyed exchange; inside the partition everything is one
    vectorized groupby (shift for the previous op, named aggs) across
    all keys at once — no per-key Python loop. LSNs are unique, so
    last_op is deterministic."""
    cl = _events_changelog(sf_dir)

    def audit(pdf: pd.DataFrame) -> pd.DataFrame:
        prev = pdf.groupby(["repo", "path"], sort=False)["op"].shift(1)
        pdf = pdf.assign(
            is_del=(pdf["op"] == "DELETE").astype("int64"),
            re_ins=((prev == "DELETE") & (pdf["op"] == "UPDATE")).astype(
                "int64"
            ),
        )
        return pdf.groupby(["repo", "path"], sort=False, as_index=False).agg(
            n_ops=("lsn", "size"),
            n_deletes=("is_del", "sum"),
            n_reinserts=("re_ins", "sum"),
            last_lsn=("lsn", "max"),
            last_op=("op", "last"),
        )

    return keyed_partition_map(
        cl,
        keys=["repo", "path"],
        order_col="lsn",
        fn=audit,
        num_partitions=NP,
    )


QUERIES["cdc_delete_reinsert"] = q_cdc_delete_reinsert

ORACLE_SQL["cdc_delete_reinsert"] = f"""
    WITH cl AS ({_CHANGELOG_SQL}),
    seq AS (SELECT repo, path, op, lsn,
                   lag(op) OVER (PARTITION BY repo, path
                                 ORDER BY lsn) AS prev_op
            FROM cl)
    SELECT repo, path,
           CAST(count(*) AS BIGINT) AS n_ops,
           CAST(count(*) FILTER (op = 'DELETE') AS BIGINT) AS n_deletes,
           CAST(count(*) FILTER (prev_op = 'DELETE' AND op = 'UPDATE')
                AS BIGINT) AS n_reinserts,
           max(lsn) AS last_lsn,
           arg_max(op, lsn) AS last_op
    FROM seq GROUP BY repo, path ORDER BY repo, path
"""


def q_degree_histogram(sf_dir: str):
    """Degree distribution of the mirrored user↔event-type interaction
    graph (stages/graph.py topology): node degree = count of DISTINCT
    neighbors, histogrammed as (deg, n_nodes).

    Scale shape: block-level pair-dedup combiner, then one keyed
    exchange per side of the bipartition (all copies of a pair meet in
    the keyed partition, so the in-partition dedup is globally exact);
    per-partition degree tables collapse to block-local histograms
    before the driver folds a degree-support-sized partial table (≤
    blocks × distinct degree values — never node- or event-sized)."""
    ds = _events(sf_dir, columns=["user_id", "event_type"])
    pre = ds.map_batches(
        lambda pdf: pdf.drop_duplicates(),
        batch_format="pandas",
        batch_size=None,
    )

    def deg_u(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.drop_duplicates()
        out = pdf.groupby("user_id", sort=False, as_index=False).size()
        return pd.DataFrame({"deg": out["size"].astype("int64")})

    def deg_t(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.drop_duplicates()
        out = pdf.groupby("event_type", sort=False, as_index=False).size()
        return pd.DataFrame({"deg": out["size"].astype("int64")})

    du = keyed_partition_map(
        pre, keys=["user_id"], order_col="event_type", fn=deg_u,
        num_partitions=NP,
    )
    dt = keyed_partition_map(
        pre, keys=["event_type"], order_col="user_id", fn=deg_t,
        num_partitions=NP,
    )

    def hist_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.groupby("deg", as_index=False, sort=False).size()
        return out.rename(columns={"size": "n_nodes"})

    partial = du.union(dt).map_batches(
        hist_partial, batch_format="pandas", batch_size=None
    )
    pdf = partial.to_pandas()  # degree-support sized (see docstring)
    out = pdf.groupby("deg", as_index=False)["n_nodes"].sum()
    out["n_nodes"] = out["n_nodes"].astype("int64")
    return out


QUERIES["degree_histogram"] = q_degree_histogram

ORACLE_SQL["degree_histogram"] = """
    WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
    deg AS (SELECT CAST(count(*) AS BIGINT) AS deg FROM ut GROUP BY user_id
            UNION ALL
            SELECT CAST(count(*) AS BIGINT) FROM ut GROUP BY event_type)
    SELECT deg, CAST(count(*) AS BIGINT) AS n_nodes
    FROM deg GROUP BY deg ORDER BY deg
"""


def q_rfm_segments(sf_dir: str):
    """RFM (recency / frequency / monetary) quartile segmentation per
    user — the classic curation/analytics segmentation, composed from
    proven pieces: per-user aggregates fold through block combiners +
    ONE keyed exchange (exact integer cents, µs-integer recency), then
    the NTILE(4) assignment reuses q_value_ntile's exact integer rank
    arithmetic.

    Driver-finalize cardinality contract (same bound as q_gini_spend /
    q_spearman_spend_activity, stated per VERDICT r4): the ntile pass
    sorts the per-USER aggregate — distinct-user-sized, orders of
    magnitude smaller than the event stream it summarizes; at 100 TB
    user cardinality is the broadcastable side. Orders are fully
    deterministic: every metric is an exact integer and user_id breaks
    ties."""
    ds = _events(sf_dir, columns=["user_id", "ts", "value"])

    def upartial(pdf: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {
                "user_id": pdf["user_id"].values,
                "ts_us": pdf["ts"].astype("datetime64[us]").astype("int64"),
                "cents": _cents(pdf["value"]).values,
            }
        )
        return tmp.groupby("user_id", sort=False, as_index=False).agg(
            last_us=("ts_us", "max"),
            n_events=("ts_us", "size"),
            cents=("cents", "sum"),
        )

    partial = ds.map_batches(upartial, batch_format="pandas", batch_size=None)

    def ucombine(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby("user_id", sort=False, as_index=False).agg(
            last_us=("last_us", "max"),
            n_events=("n_events", "sum"),
            cents=("cents", "sum"),
        )

    agg = keyed_partition_map(
        partial,
        keys=["user_id"],
        order_col="last_us",
        fn=ucombine,
        num_partitions=NP,
    ).to_pandas()  # distinct-user sized (contract in docstring)

    max_us = int(agg["last_us"].max())
    agg["r_us"] = np.int64(max_us) - agg["last_us"].to_numpy()
    n = len(agg)
    k = 4
    q, rem = divmod(n, k)
    cut = rem * (q + 1)

    def ntile_of(order_cols: list[str]) -> np.ndarray:
        idx = np.lexsort(
            tuple(agg[c].to_numpy() for c in reversed(order_cols))
        )
        r0 = np.empty(n, dtype=np.int64)
        r0[idx] = np.arange(n, dtype=np.int64)
        big = r0 // (q + 1) + 1
        small = rem + (r0 - cut) // max(q, 1) + 1
        return np.where(r0 < cut, big, small).astype("int64")

    agg["r_score"] = ntile_of(["r_us", "user_id"])
    agg["f_score"] = ntile_of(["n_events", "user_id"])
    agg["m_score"] = ntile_of(["cents", "user_id"])
    agg["rfm"] = (
        agg["r_score"] * 100 + agg["f_score"] * 10 + agg["m_score"]
    ).astype("int64")
    agg["monetary"] = agg["cents"].to_numpy(np.float64) / 100.0
    return agg[
        [
            "user_id",
            "r_us",
            "n_events",
            "monetary",
            "r_score",
            "f_score",
            "m_score",
            "rfm",
        ]
    ].reset_index(drop=True)


QUERIES["rfm_segments"] = q_rfm_segments

ORACLE_SQL["rfm_segments"] = """
    WITH agg AS (
      SELECT user_id,
             max(epoch_us(ts)) AS last_us,
             CAST(count(*) AS BIGINT) AS n_events,
             CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
               AS cents
      FROM events GROUP BY user_id),
    mx AS (SELECT max(last_us) AS max_us FROM agg),
    sc AS (
      SELECT user_id,
             (SELECT max_us FROM mx) - last_us AS r_us,
             n_events, cents,
             ntile(4) OVER (ORDER BY (SELECT max_us FROM mx) - last_us,
                            user_id) AS r_score,
             ntile(4) OVER (ORDER BY n_events, user_id) AS f_score,
             ntile(4) OVER (ORDER BY cents, user_id) AS m_score
      FROM agg)
    SELECT user_id, r_us, n_events,
           cents / 100.0 AS monetary,
           CAST(r_score AS BIGINT) AS r_score,
           CAST(f_score AS BIGINT) AS f_score,
           CAST(m_score AS BIGINT) AS m_score,
           CAST(r_score * 100 + f_score * 10 + m_score AS BIGINT) AS rfm
    FROM sc ORDER BY user_id
"""


def q_kendall_distributed(sf_dir: str):
    """q_kendall_spend_activity's twin on the DISTRIBUTED inversion
    counter (stages/inversions.py) — nothing sequence-sized on the
    driver: cross-chunk/cross-bucket pairs fold through a C×B count
    matrix, same-chunk and same-bucket pairs count inside two keyed
    exchanges. Bit-identical finalize formula, so it shares the
    kendall_spend_activity oracle. The rank fixture itself is the
    user-sized leaderboard (from_pandas is the fixture side, not the
    operator); the event-scale path is pinned by the 10⁶-row
    equivalence test in tests/test_inversions.py."""
    from arlas_proc_ray.stages.inversions import distributed_inversion_count

    ranks = q_rrf_user_rank(sf_dir)
    ds = rd.from_pandas(ranks[["r1", "r2"]]).repartition(8)
    n = len(ranks)
    inv = distributed_inversion_count(
        ds, x_col="r1", y_col="r2", num_chunks=8, num_buckets=8,
        num_partitions=8,
    )
    tau = 1.0 - float(4 * inv) / float(n * (n - 1))
    return pd.DataFrame(
        {
            "n_users": np.array([n], dtype=np.int64),
            "discordant": np.array([inv], dtype=np.int64),
            "kendall_tau": np.array([tau], dtype=np.float64),
        }
    )


QUERIES["kendall_distributed"] = q_kendall_distributed
ORACLE_SQL["kendall_distributed"] = ORACLE_SQL["kendall_spend_activity"]


def _ranked_leaderboard_ds(sf_dir: str):
    """Dataset-resident (user_id, r1, r2): the rrf/spearman leaderboard
    with BOTH strict ranks assigned by two chained global_rank passes
    (stages/scan.py two-pass range-partitioned rank — per-block bucket
    partials, driver holds only bucket offsets) instead of a driver
    argsort. Ascending rank over (−metric, user_id) is exactly
    row_number() OVER (ORDER BY metric DESC, user_id) for integer
    metrics, so the ranks are bit-identical to the driver-side fixture."""
    from arlas_proc_ray.stages.scan import global_rank

    ds = _events(sf_dir, columns=["user_id", "value"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        cents = (pdf["value"] * 100).round().astype("int64")
        g = (
            pd.DataFrame({"user_id": pdf["user_id"], "c": cents})
            .groupby("user_id", sort=False)["c"]
            .agg(["sum", "size"])
        )
        return pd.DataFrame(
            {
                "user_id": g.index.to_numpy(),
                "spend": g["sum"].to_numpy(np.int64),
                "n": g["size"].to_numpy(np.int64),
            }
        )

    def reduce_sum(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.groupby("user_id", as_index=False, sort=False)[
            ["spend", "n"]
        ].sum()
        out["neg_spend"] = -out["spend"]
        out["neg_n"] = -out["n"]
        return out

    agg = keyed_partition_map(
        ds.map_batches(partial, batch_format="pandas", batch_size=None),
        keys=["user_id"], order_col="spend", fn=reduce_sum,
        num_partitions=NP,
    )
    r1 = global_rank(
        agg, order_cols=["neg_spend", "user_id"], target="r1",
        num_partitions=8,
    )
    return global_rank(
        r1, order_cols=["neg_n", "user_id"], target="r2", num_partitions=8
    )


def q_rrf_distributed(sf_dir: str):
    """q_rrf_user_rank's twin with NOTHING user-sized on the driver: the
    two leaderboard ranks come from chained distributed global_rank
    passes and the fusion is a stateless per-block expression (same
    fixed two-term 1/(60+r) sum as the oracle — bit-identical doubles).
    Shares rrf_user_rank's oracle."""
    ranked = _ranked_leaderboard_ds(sf_dir)

    def fuse(pdf: pd.DataFrame) -> pd.DataFrame:
        r1 = pdf["r1"].to_numpy(np.int64)
        r2 = pdf["r2"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "user_id": pdf["user_id"].to_numpy(),
                "r1": r1,
                "r2": r2,
                "rrf": 1.0 / (60 + r1) + 1.0 / (60 + r2),
            }
        )

    return ranked.map_batches(fuse, batch_format="pandas", batch_size=None)


QUERIES["rrf_distributed"] = q_rrf_distributed
ORACLE_SQL["rrf_distributed"] = ORACLE_SQL["rrf_user_rank"]


def q_spearman_distributed(sf_dir: str):
    """q_spearman_spend_activity's twin on distributed ranks: Σd² folds
    as per-block int64 partials (the driver sees two scalars per block,
    never a row), finalized with the SAME fixed-order float expression.
    Shares the spearman oracle."""
    ranked = _ranked_leaderboard_ds(sf_dir)

    def d2_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        d = pdf["r1"].to_numpy(np.int64) - pdf["r2"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "nn": [np.int64(len(pdf))],
                "sd2": [np.int64((d * d).sum())],
            }
        )

    parts = ranked.map_batches(
        d2_partial, batch_format="pandas", batch_size=None
    ).to_pandas()
    n = int(parts["nn"].sum())
    sd2 = int(parts["sd2"].sum())
    rho = 1.0 - float(6 * sd2) / float(n * (n * n - 1))
    return pd.DataFrame(
        {
            "n_users": np.array([n], dtype=np.int64),
            "sum_d2": np.array([sd2], dtype=np.int64),
            "spearman_rho": np.array([rho], dtype=np.float64),
        }
    )


QUERIES["spearman_distributed"] = q_spearman_distributed
ORACLE_SQL["spearman_distributed"] = ORACLE_SQL["spearman_spend_activity"]


def q_gini_distributed(sf_dir: str):
    """q_gini_spend's twin on a distributed ascending rank: the
    rank-weighted sum Σ i·x_(i) folds as per-block int64 partials over
    the ranked Dataset (equal values commute under the weight sum, so
    the user_id tiebreak cannot change it), finalized with the SAME
    two-term expression. Shares the gini oracle."""
    from arlas_proc_ray.stages.scan import global_rank

    ds = _events(sf_dir, columns=["user_id", "value"])

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        cents = (pdf["value"] * 100).round().astype("int64")
        g = (
            pd.DataFrame({"user_id": pdf["user_id"], "c": cents})
            .groupby("user_id", sort=False)["c"]
            .sum()
        )
        return pd.DataFrame(
            {"user_id": g.index.to_numpy(), "c": g.to_numpy(np.int64)}
        )

    def reduce_sum(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby("user_id", as_index=False, sort=False)["c"].sum()

    agg = keyed_partition_map(
        ds.map_batches(partial, batch_format="pandas", batch_size=None),
        keys=["user_id"], order_col="c", fn=reduce_sum, num_partitions=NP,
    )
    ranked = global_rank(
        agg, order_cols=["c", "user_id"], target="rnk", num_partitions=8
    )

    def g_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        c = pdf["c"].to_numpy(np.int64)
        r = pdf["rnk"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "nn": [np.int64(len(pdf))],
                "tot": [np.int64(c.sum())],
                "wsum": [np.int64((r * c).sum())],
            }
        )

    parts = ranked.map_batches(
        g_partial, batch_format="pandas", batch_size=None
    ).to_pandas()
    n = int(parts["nn"].sum())
    tot = int(parts["tot"].sum())
    weighted = int(parts["wsum"].sum())
    gini = float(2 * weighted) / float(n * tot) - float(n + 1) / float(n)
    return pd.DataFrame(
        {
            "n_users": np.array([n], dtype=np.int64),
            "total_cents": np.array([tot], dtype=np.int64),
            "gini": np.array([gini], dtype=np.float64),
        }
    )


QUERIES["gini_distributed"] = q_gini_distributed
ORACLE_SQL["gini_distributed"] = ORACLE_SQL["gini_spend"]


def q_tpch_q6(sf_dir: str):
    """TPC-H Q6 shape (forecast-revenue delta) adapted to this schema:
    Σ l_extendedprice·l_discount over one shipdate year, a discount
    band and a quantity cap. Pure pruned read (3 columns + shipdate
    row-group pushdown) → per-block exact integer partials (cents ×
    cents = 10⁻⁴-dollar units) → one scalar on the driver. The discount
    band is evaluated on ROUNDED CENTS on both sides, so float literal
    representation cannot split the predicate."""
    import pyarrow.dataset as pads

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-01-01")
    ds = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"],
        filter_expr=(
            (pads.field("l_shipdate") >= pa.scalar(lo))
            & (pads.field("l_shipdate") < pa.scalar(hi))
        ),
    )

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        disc_c = _cents(pdf["l_discount"])
        keep = (
            (pdf["l_shipdate"] >= lo)
            & (pdf["l_shipdate"] < hi)
            & disc_c.between(5, 7)
            & (pdf["l_quantity"] < 24)
        )
        price_c = _cents(pdf["l_extendedprice"][keep])
        c4 = (price_c * disc_c[keep]).sum()
        return pd.DataFrame({"revenue_c4": [np.int64(c4)]})

    parts = ds.map_batches(
        partial, batch_format="pandas", batch_size=None
    ).to_pandas()
    c4 = int(parts["revenue_c4"].sum())
    return pd.DataFrame(
        {
            "revenue_c4": np.array([c4], dtype=np.int64),
            "revenue": np.array([c4 / 10000.0], dtype=np.float64),
        }
    )


QUERIES["tpch_q6"] = q_tpch_q6

ORACLE_SQL["tpch_q6"] = """
    WITH f AS (
      SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS price_c,
             CAST(round(l_discount * 100) AS BIGINT) AS disc_c
      FROM lineitem
      WHERE l_shipdate >= TIMESTAMP '1996-01-01'
        AND l_shipdate < TIMESTAMP '1997-01-01'
        AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
        AND l_quantity < 24)
    SELECT CAST(sum(price_c * disc_c) AS BIGINT) AS revenue_c4,
           CAST(sum(price_c * disc_c) AS BIGINT) / 10000.0 AS revenue
    FROM f
"""


def q_tpch_q4(sf_dir: str):
    """TPC-H Q4 shape (order-priority checking) adapted: orders of one
    quarter-year window counted per priority when AT LEAST ONE line
    shipped more than 90 days after the order date — a correlated
    EXISTS, i.e. a semi join whose predicate spans BOTH tables, so the
    broadcast semi (stages/lookup.py) can't express it: both sides
    co-partition on the order key in ONE equi_join exchange and the
    cross-table filter + per-order dedup run inside the join partition
    (post_fn — zero extra exchanges). The surviving (order, priority)
    rows fold through per-block priority-count partials to a 5-row
    driver merge."""
    import pyarrow.dataset as pads

    from arlas_proc_ray.stages.joins import equi_join

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1996-07-01")
    orders = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter_expr=(
            (pads.field("o_orderdate") >= pa.scalar(lo))
            & (pads.field("o_orderdate") < pa.scalar(hi))
        ),
    )

    def o_exact(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf[(pdf["o_orderdate"] >= lo) & (pdf["o_orderdate"] < hi)]

    orders = orders.map_batches(o_exact, batch_format="pandas", batch_size=None)

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate"],
        # conservative prune: a late line for this window ships after
        # lo + 90d; exact predicate re-applies inside the join
        filter_expr=pads.field("l_shipdate") > pa.scalar(lo),
    ).map_batches(
        lambda pdf: pdf.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas",
        batch_size=None,
    )

    def late_semi(pdf: pd.DataFrame) -> pd.DataFrame:
        late = pdf[
            pdf["l_shipdate"] > pdf["o_orderdate"] + pd.Timedelta(days=90)
        ]
        return late.drop_duplicates("o_orderkey")[
            ["o_orderkey", "o_orderpriority"]
        ]

    joined = equi_join(
        orders,
        li,
        on=["o_orderkey"],
        right_cols=["l_shipdate"],
        num_partitions=NP,
        post_fn=late_semi,
        # sub-crossover volume at catalog scale: the two-phase staged
        # exchange beats the Dataset sort below ~1M rows (stages/keyed.py)
        exchange="staged",
    )

    def prio_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.groupby("o_orderpriority", sort=False, as_index=False).size()
        return out.rename(columns={"size": "n_orders"})

    parts = joined.map_batches(
        prio_partial, batch_format="pandas", batch_size=None
    ).to_pandas()  # ≤ blocks × 5 priorities
    out = parts.groupby("o_orderpriority", as_index=False)["n_orders"].sum()
    out["n_orders"] = out["n_orders"].astype("int64")
    return out


QUERIES["tpch_q4"] = q_tpch_q4

ORACLE_SQL["tpch_q4"] = """
    SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders
    FROM orders o
    WHERE o_orderdate >= TIMESTAMP '1996-01-01'
      AND o_orderdate < TIMESTAMP '1996-07-01'
      AND EXISTS (SELECT 1 FROM lineitem l
                  WHERE l.l_orderkey = o.o_orderkey
                    AND l.l_shipdate > o.o_orderdate + INTERVAL 90 DAY)
    GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def q_tpch_q12(sf_dir: str):
    """TPC-H Q12 shape (shipping-mode priority split) adapted: per
    l_returnflag over one shipdate year, how many lines belong to
    URGENT/HIGH-priority orders vs the rest. Fact⋈fact equi join on the
    order key with the two conditional counts fused into the join
    partition (post_fn combiner) — the exchange moves each side once
    and what leaves the partitions is flag-cardinality sized."""
    import pyarrow.dataset as pads

    from arlas_proc_ray.stages.joins import equi_join

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-01-01")
    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_shipdate"],
        filter_expr=(
            (pads.field("l_shipdate") >= pa.scalar(lo))
            & (pads.field("l_shipdate") < pa.scalar(hi))
        ),
    )

    def li_exact(pdf: pd.DataFrame) -> pd.DataFrame:
        keep = (pdf["l_shipdate"] >= lo) & (pdf["l_shipdate"] < hi)
        out = pdf[keep].rename(columns={"l_orderkey": "o_orderkey"})
        return out[["o_orderkey", "l_returnflag"]]

    li = li.map_batches(li_exact, batch_format="pandas", batch_size=None)

    orders = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority"],
    )

    def split_counts(pdf: pd.DataFrame) -> pd.DataFrame:
        high = pdf["o_orderpriority"].isin(["1-URGENT", "2-HIGH"])
        tmp = pd.DataFrame(
            {
                "l_returnflag": pdf["l_returnflag"],
                "high_line_count": high.astype("int64"),
                "low_line_count": (~high).astype("int64"),
            }
        )
        return tmp.groupby("l_returnflag", sort=False, as_index=False).sum()

    joined = equi_join(
        li,
        orders,
        on=["o_orderkey"],
        right_cols=["o_orderpriority"],
        num_partitions=NP,
        post_fn=split_counts,
        # sub-crossover volume at catalog scale: the two-phase staged
        # exchange beats the Dataset sort below ~1M rows (stages/keyed.py)
        exchange="staged",
    )
    parts = joined.to_pandas()  # ≤ partitions × 3 flags
    out = parts.groupby("l_returnflag", as_index=False)[
        ["high_line_count", "low_line_count"]
    ].sum()
    for c in ("high_line_count", "low_line_count"):
        out[c] = out[c].astype("int64")
    return out


QUERIES["tpch_q12"] = q_tpch_q12

ORACLE_SQL["tpch_q12"] = """
    SELECT l_returnflag,
           CAST(count(*) FILTER (o_orderpriority IN ('1-URGENT', '2-HIGH'))
                AS BIGINT) AS high_line_count,
           CAST(count(*) FILTER (o_orderpriority NOT IN ('1-URGENT', '2-HIGH'))
                AS BIGINT) AS low_line_count
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    WHERE l_shipdate >= TIMESTAMP '1996-01-01'
      AND l_shipdate < TIMESTAMP '1997-01-01'
    GROUP BY l_returnflag ORDER BY l_returnflag
"""


def q_tpch_q14(sf_dir: str):
    """TPC-H Q14 shape (promo revenue share): one shipdate year of
    lineitem broadcast-joined against the part dimension (dimension
    tables broadcast by contract — ray.put once, shared-memory per
    worker, zero shuffle), folding exact-cents c4 revenue into two
    scalars (promo / total) per block. The share is ONE float division
    of the two exact integers — bit-identical to the oracle."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.lookup import broadcast_join

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-01-01")
    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter_expr=(
            (pads.field("l_shipdate") >= pa.scalar(lo))
            & (pads.field("l_shipdate") < pa.scalar(hi))
        ),
    )
    part = (
        pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
        .to_pandas()
        .rename(columns={"p_partkey": "l_partkey"})
    )
    joined = broadcast_join(li, part, on=["l_partkey"])

    def rev_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        keep = (pdf["l_shipdate"] >= lo) & (pdf["l_shipdate"] < hi)
        pdf = pdf[keep]
        c4 = (
            _cents(pdf["l_extendedprice"])
            * (100 - _cents(pdf["l_discount"]))
        ).to_numpy(np.int64)
        promo = (pdf["p_type"] == "PROMO").to_numpy()
        return pd.DataFrame(
            {
                "promo_c4": [np.int64(c4[promo].sum())],
                "total_c4": [np.int64(c4.sum())],
            }
        )

    parts = joined.map_batches(
        rev_partial, batch_format="pandas", batch_size=None
    ).to_pandas()
    promo_c4 = int(parts["promo_c4"].sum())
    total_c4 = int(parts["total_c4"].sum())
    return pd.DataFrame(
        {
            "promo_c4": np.array([promo_c4], dtype=np.int64),
            "total_c4": np.array([total_c4], dtype=np.int64),
            "promo_share_pct": np.array(
                [(100.0 * promo_c4) / total_c4], dtype=np.float64
            ),
        }
    )


QUERIES["tpch_q14"] = q_tpch_q14

ORACLE_SQL["tpch_q14"] = """
    WITH f AS (
      SELECT CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS c4,
             p_type
      FROM lineitem JOIN part ON l_partkey = p_partkey
      WHERE l_shipdate >= TIMESTAMP '1996-01-01'
        AND l_shipdate < TIMESTAMP '1997-01-01')
    SELECT CAST(sum(c4) FILTER (p_type = 'PROMO') AS BIGINT) AS promo_c4,
           CAST(sum(c4) AS BIGINT) AS total_c4,
           (100.0 * CAST(sum(c4) FILTER (p_type = 'PROMO') AS BIGINT))
             / CAST(sum(c4) AS BIGINT) AS promo_share_pct
    FROM f
"""


def q_tpch_q5(sf_dir: str):
    """TPC-H Q5 shape (local-supplier revenue by nation, region =
    EUROPE, orders of 1996): the dimension chain region→nation→
    customer / supplier is THREE broadcast lookups (each entity-sized
    by contract, ray.put once); the only exchange is the one fact⋈fact
    equi join of date-filtered orders against lineitem, with the
    same-nation filter (c_nationkey = s_nationkey) and the per-nation
    exact-cents revenue fold fused into the join partitions via
    post_fn. What leaves each partition is nation-cardinality sized."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.joins import equi_join
    from arlas_proc_ray.stages.lookup import broadcast_join

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-01-01")

    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    ).to_pandas()
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    ).to_pandas()
    europe = nation.merge(
        region[region["r_name"] == "EUROPE"],
        left_on="n_regionkey",
        right_on="r_regionkey",
    )[["n_nationkey", "n_name"]]
    cust = (
        pq.read_table(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        )
        .to_pandas()
        .merge(europe, left_on="c_nationkey", right_on="n_nationkey")[
            ["c_custkey", "c_nationkey"]
        ]
        .rename(columns={"c_custkey": "o_custkey"})
    )
    supp = (
        pq.read_table(
            f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
        )
        .to_pandas()
        .rename(columns={"s_suppkey": "l_suppkey"})
    )

    orders = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter_expr=(
            (pads.field("o_orderdate") >= pa.scalar(lo))
            & (pads.field("o_orderdate") < pa.scalar(hi))
        ),
    )

    def o_exact(pdf: pd.DataFrame) -> pd.DataFrame:
        keep = (pdf["o_orderdate"] >= lo) & (pdf["o_orderdate"] < hi)
        return pdf[keep][["o_orderkey", "o_custkey"]]

    orders = broadcast_join(
        orders.map_batches(o_exact, batch_format="pandas", batch_size=None),
        cust,
        on=["o_custkey"],
        how="inner",
    ).select_columns(["o_orderkey", "c_nationkey"])

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda pdf: pdf.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas",
        batch_size=None,
    )
    li = broadcast_join(li, supp, on=["l_suppkey"], how="inner")

    def local_rev(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[pdf["c_nationkey"] == pdf["s_nationkey"]]
        c4 = _cents(pdf["l_extendedprice"]) * (
            100 - _cents(pdf["l_discount"])
        )
        tmp = pd.DataFrame(
            {"n_nationkey": pdf["c_nationkey"].to_numpy(np.int64), "c4": c4}
        )
        return tmp.groupby("n_nationkey", sort=False, as_index=False)[
            "c4"
        ].sum()

    joined = equi_join(
        orders,
        li,
        on=["o_orderkey"],
        right_cols=["l_suppkey", "s_nationkey", "l_extendedprice", "l_discount"],
        num_partitions=NP,
        post_fn=local_rev,
        # sub-crossover volume at catalog scale: the two-phase staged
        # exchange beats the Dataset sort below ~1M rows (stages/keyed.py)
        exchange="staged",
    )
    parts = joined.to_pandas()  # ≤ partitions × nations
    out = parts.groupby("n_nationkey", as_index=False)["c4"].sum()
    out = out.merge(europe, on="n_nationkey")[["n_name", "c4"]]
    out = out.rename(columns={"c4": "revenue_c4"})
    out["revenue_c4"] = out["revenue_c4"].astype("int64")
    out["revenue"] = out["revenue_c4"].to_numpy(np.float64) / 10000.0
    return out.reset_index(drop=True)


QUERIES["tpch_q5"] = q_tpch_q5

ORACLE_SQL["tpch_q5"] = """
    SELECT n_name,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                AS BIGINT) AS revenue_c4,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                AS BIGINT) / 10000.0 AS revenue
    FROM customer
    JOIN orders   ON c_custkey = o_custkey
    JOIN lineitem ON l_orderkey = o_orderkey
    JOIN supplier ON l_suppkey = s_suppkey
    JOIN nation   ON c_nationkey = n_nationkey
    JOIN region   ON n_regionkey = r_regionkey
    WHERE r_name = 'EUROPE'
      AND s_nationkey = c_nationkey
      AND o_orderdate >= TIMESTAMP '1996-01-01'
      AND o_orderdate < TIMESTAMP '1997-01-01'
    GROUP BY n_name ORDER BY n_name
"""


def q_tpch_q10(sf_dir: str):
    """TPC-H Q10 shape (returned-item reporting): top-20 customers by
    exact-cents revenue from RETURNED lines of one order quarter.
    Returned lineitem pre-aggregates revenue per order INSIDE
    map_batches (combiner), the fact⋈fact equi join on the order key is
    the one exchange (per-customer fold fused via post_fn), the
    customer dimension broadcast-attaches names to the 20 survivors.
    Top-20 is a per-block nlargest combiner with a deterministic
    (revenue desc, custkey asc) tie-break on exact integers."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.joins import equi_join

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1996-04-01")
    orders = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter_expr=(
            (pads.field("o_orderdate") >= pa.scalar(lo))
            & (pads.field("o_orderdate") < pa.scalar(hi))
        ),
    )

    def o_exact(pdf: pd.DataFrame) -> pd.DataFrame:
        keep = (pdf["o_orderdate"] >= lo) & (pdf["o_orderdate"] < hi)
        return pdf[keep][["o_orderkey", "o_custkey"]]

    orders = orders.map_batches(o_exact, batch_format="pandas", batch_size=None)

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    )

    def rev_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[pdf["l_returnflag"] == "R"]
        tmp = pd.DataFrame(
            {
                "o_orderkey": pdf["l_orderkey"].to_numpy(np.int64),
                "rev_c4": (
                    _cents(pdf["l_extendedprice"])
                    * (100 - _cents(pdf["l_discount"]))
                ).to_numpy(np.int64),
            }
        )
        return tmp.groupby("o_orderkey", sort=False, as_index=False)[
            "rev_c4"
        ].sum()

    li = li.map_batches(rev_partial, batch_format="pandas", batch_size=None)

    def cust_fold(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby("o_custkey", sort=False, as_index=False)[
            "rev_c4"
        ].sum()

    joined = equi_join(
        orders,
        li,
        on=["o_orderkey"],
        right_cols=["rev_c4"],
        num_partitions=NP,
        post_fn=cust_fold,
        # sub-crossover volume at catalog scale: the two-phase staged
        # exchange beats the Dataset sort below ~1M rows (stages/keyed.py)
        exchange="staged",
    )

    # NO per-block top-k here: the join partitions by ORDER key, so one
    # customer's revenue is split across partitions and a block-local
    # head(20) could drop a true top-20 customer. The per-partition
    # per-customer partials are ≤ NP × distinct customers — entity-sized
    # (the q_rrf_user_rank cardinality contract) — so the driver folds
    # them exactly before ranking.
    parts = joined.to_pandas()
    agg = parts.groupby("o_custkey", as_index=False)["rev_c4"].sum()
    top = agg.sort_values(
        ["rev_c4", "o_custkey"], ascending=[False, True], kind="mergesort"
    ).head(20)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).to_pandas()
    out = top.rename(columns={"o_custkey": "c_custkey"}).merge(
        cust, on="c_custkey"
    )
    out["revenue_c4"] = out["rev_c4"].astype("int64")
    out["revenue"] = out["revenue_c4"].to_numpy(np.float64) / 10000.0
    return out[["c_custkey", "c_name", "revenue_c4", "revenue"]].reset_index(
        drop=True
    )


QUERIES["tpch_q10"] = q_tpch_q10

ORACLE_SQL["tpch_q10"] = """
    WITH rev AS (
      SELECT o_custkey,
             CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                      * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                  AS BIGINT) AS revenue_c4
      FROM orders JOIN lineitem ON l_orderkey = o_orderkey
      WHERE o_orderdate >= TIMESTAMP '1996-01-01'
        AND o_orderdate < TIMESTAMP '1996-04-01'
        AND l_returnflag = 'R'
      GROUP BY o_custkey)
    SELECT c_custkey, c_name, revenue_c4, revenue_c4 / 10000.0 AS revenue
    FROM rev JOIN customer ON c_custkey = o_custkey
    ORDER BY revenue_c4 DESC, c_custkey
    LIMIT 20
"""


def q_tpch_q7(sf_dir: str):
    """TPC-H Q7 shape (volume shipping between two nations): two years
    of lineitem revenue exchanged between NATION_3 and NATION_13 in
    either direction, per (supplier nation, customer nation, ship
    year). Supplier and (customer→nation) are broadcast dimension
    attaches (ray.put once, by the entity-size contract); the one
    exchange is the fact⋈fact order-key equi join with the
    direction filter and the 3-key exact-cents fold fused into the
    join partitions (post_fn). What leaves each partition is
    (2 directions × 2 years) rows."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.joins import equi_join
    from arlas_proc_ray.stages.lookup import broadcast_join

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1998-01-01")
    n_a, n_b = 3, 13

    supp = (
        pq.read_table(
            f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
        )
        .to_pandas()
        .rename(columns={"s_suppkey": "l_suppkey"})
    )
    supp = supp[supp["s_nationkey"].isin([n_a, n_b])]
    cust = (
        pq.read_table(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        )
        .to_pandas()
        .rename(columns={"c_custkey": "o_custkey"})
    )
    cust = cust[cust["c_nationkey"].isin([n_a, n_b])]

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
            "l_shipdate",
        ],
        filter_expr=(
            (pads.field("l_shipdate") >= pa.scalar(lo))
            & (pads.field("l_shipdate") < pa.scalar(hi))
        ),
    )

    def li_exact(pdf: pd.DataFrame) -> pd.DataFrame:
        keep = (pdf["l_shipdate"] >= lo) & (pdf["l_shipdate"] < hi)
        return pdf[keep].rename(columns={"l_orderkey": "o_orderkey"})

    li = broadcast_join(
        li.map_batches(li_exact, batch_format="pandas", batch_size=None),
        supp,
        on=["l_suppkey"],
        how="inner",
    )

    orders = broadcast_join(
        _rp(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]),
        cust,
        on=["o_custkey"],
        how="inner",
    ).select_columns(["o_orderkey", "c_nationkey"])

    def direction_fold(pdf: pd.DataFrame) -> pd.DataFrame:
        keep = (
            ((pdf["s_nationkey"] == n_a) & (pdf["c_nationkey"] == n_b))
            | ((pdf["s_nationkey"] == n_b) & (pdf["c_nationkey"] == n_a))
        )
        pdf = pdf[keep]
        tmp = pd.DataFrame(
            {
                "supp_nationkey": pdf["s_nationkey"].to_numpy(np.int64),
                "cust_nationkey": pdf["c_nationkey"].to_numpy(np.int64),
                "l_year": pdf["l_shipdate"].dt.year.to_numpy(np.int64),
                "c4": (
                    _cents(pdf["l_extendedprice"])
                    * (100 - _cents(pdf["l_discount"]))
                ).to_numpy(np.int64),
            }
        )
        return tmp.groupby(
            ["supp_nationkey", "cust_nationkey", "l_year"],
            sort=False,
            as_index=False,
        )["c4"].sum()

    joined = equi_join(
        orders,
        li,
        on=["o_orderkey"],
        right_cols=[
            "s_nationkey", "l_extendedprice", "l_discount", "l_shipdate",
        ],
        num_partitions=NP,
        post_fn=direction_fold,
        # sub-crossover volume at catalog scale: the two-phase staged
        # exchange beats the Dataset sort below ~1M rows (stages/keyed.py)
        exchange="staged",
    )
    parts = joined.to_pandas()  # ≤ partitions × 2 directions × 2 years
    out = parts.groupby(
        ["supp_nationkey", "cust_nationkey", "l_year"], as_index=False
    )["c4"].sum()
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    names = dict(zip(nation["n_nationkey"], nation["n_name"]))
    out["supp_nation"] = out["supp_nationkey"].map(names)
    out["cust_nation"] = out["cust_nationkey"].map(names)
    out["revenue_c4"] = out["c4"].astype("int64")
    out["revenue"] = out["revenue_c4"].to_numpy(np.float64) / 10000.0
    return out[
        ["supp_nation", "cust_nation", "l_year", "revenue_c4", "revenue"]
    ].reset_index(drop=True)


QUERIES["tpch_q7"] = q_tpch_q7

ORACLE_SQL["tpch_q7"] = """
    WITH f AS (
      SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
             CAST(year(l_shipdate) AS BIGINT) AS l_year,
             CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS c4
      FROM lineitem
      JOIN orders   ON l_orderkey = o_orderkey
      JOIN supplier ON l_suppkey = s_suppkey
      JOIN customer ON o_custkey = c_custkey
      JOIN nation sn ON sn.n_nationkey = s_nationkey
      JOIN nation cn ON cn.n_nationkey = c_nationkey
      WHERE l_shipdate >= TIMESTAMP '1996-01-01'
        AND l_shipdate < TIMESTAMP '1998-01-01'
        AND ((s_nationkey = 3 AND c_nationkey = 13)
             OR (s_nationkey = 13 AND c_nationkey = 3)))
    SELECT supp_nation, cust_nation, l_year,
           CAST(sum(c4) AS BIGINT) AS revenue_c4,
           CAST(sum(c4) AS BIGINT) / 10000.0 AS revenue
    FROM f GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


def q_tpch_q8(sf_dir: str):
    """TPC-H Q8 shape (national market share): within the ASIA
    customer market for ECONOMY parts over two order years, the share
    of exact-cents volume supplied by NATION_12, per order year. Part,
    supplier and (customer⋈nation region filter) are broadcast
    dimension attaches; the one exchange is the order-key fact⋈fact
    join with per-year (nation_c4, total_c4) folded inside the join
    partitions. The share is ONE float division of two exact integers
    per year — bit-identical to the oracle."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.joins import equi_join
    from arlas_proc_ray.stages.lookup import broadcast_join

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1998-01-01")
    target_nation = 12
    region_key = 2  # ASIA

    part = (
        pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
        .to_pandas()
        .rename(columns={"p_partkey": "l_partkey"})
    )
    part = part[part["p_type"] == "ECONOMY"][["l_partkey"]]
    supp = (
        pq.read_table(
            f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
        )
        .to_pandas()
        .rename(columns={"s_suppkey": "l_suppkey"})
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    ).to_pandas()
    asia = nation[nation["n_regionkey"] == region_key]["n_nationkey"]
    cust = (
        pq.read_table(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        )
        .to_pandas()
        .rename(columns={"c_custkey": "o_custkey"})
    )
    cust = cust[cust["c_nationkey"].isin(asia)][["o_custkey"]]

    orders = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter_expr=(
            (pads.field("o_orderdate") >= pa.scalar(lo))
            & (pads.field("o_orderdate") < pa.scalar(hi))
        ),
    )

    def o_exact(pdf: pd.DataFrame) -> pd.DataFrame:
        keep = (pdf["o_orderdate"] >= lo) & (pdf["o_orderdate"] < hi)
        return pdf[keep][["o_orderkey", "o_custkey", "o_orderdate"]]

    orders = broadcast_join(
        orders.map_batches(o_exact, batch_format="pandas", batch_size=None),
        cust,
        on=["o_custkey"],
        how="inner",
    ).select_columns(["o_orderkey", "o_orderdate"])

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
                 "l_discount"],
    ).map_batches(
        lambda pdf: pdf.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas",
        batch_size=None,
    )
    li = broadcast_join(li, part, on=["l_partkey"], how="inner")
    li = broadcast_join(li, supp, on=["l_suppkey"], how="inner")

    def share_fold(pdf: pd.DataFrame) -> pd.DataFrame:
        c4 = (
            _cents(pdf["l_extendedprice"]) * (100 - _cents(pdf["l_discount"]))
        ).to_numpy(np.int64)
        tmp = pd.DataFrame(
            {
                "o_year": pdf["o_orderdate"].dt.year.to_numpy(np.int64),
                "nation_c4": np.where(
                    pdf["s_nationkey"].to_numpy() == target_nation, c4, 0
                ),
                "total_c4": c4,
            }
        )
        return tmp.groupby("o_year", sort=False, as_index=False).sum()

    joined = equi_join(
        orders,
        li,
        on=["o_orderkey"],
        right_cols=["s_nationkey", "l_extendedprice", "l_discount"],
        num_partitions=NP,
        post_fn=share_fold,
        # sub-crossover volume at catalog scale: the two-phase staged
        # exchange beats the Dataset sort below ~1M rows (stages/keyed.py)
        exchange="staged",
    )
    parts = joined.to_pandas()  # ≤ partitions × 2 years
    out = parts.groupby("o_year", as_index=False)[
        ["nation_c4", "total_c4"]
    ].sum()
    for c in ("nation_c4", "total_c4"):
        out[c] = out[c].astype("int64")
    out["mkt_share"] = out["nation_c4"].to_numpy(np.float64) / out[
        "total_c4"
    ].to_numpy(np.float64)
    return out.reset_index(drop=True)


QUERIES["tpch_q8"] = q_tpch_q8

ORACLE_SQL["tpch_q8"] = """
    WITH f AS (
      SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
             CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS c4,
             s_nationkey
      FROM lineitem
      JOIN orders   ON l_orderkey = o_orderkey
      JOIN supplier ON l_suppkey = s_suppkey
      JOIN customer ON o_custkey = c_custkey
      JOIN nation   ON n_nationkey = c_nationkey
      JOIN part     ON p_partkey = l_partkey
      WHERE n_regionkey = 2 AND p_type = 'ECONOMY'
        AND o_orderdate >= TIMESTAMP '1996-01-01'
        AND o_orderdate < TIMESTAMP '1998-01-01')
    SELECT o_year,
           CAST(COALESCE(sum(c4) FILTER (s_nationkey = 12), 0) AS BIGINT)
             AS nation_c4,
           CAST(sum(c4) AS BIGINT) AS total_c4,
           CAST(COALESCE(sum(c4) FILTER (s_nationkey = 12), 0) AS BIGINT)
             / CAST(CAST(sum(c4) AS BIGINT) AS DOUBLE) AS mkt_share
    FROM f GROUP BY o_year ORDER BY o_year
"""


def q_tpch_q9(sf_dir: str):
    """TPC-H Q9 shape (product-type profit by nation and year), adapted
    to this schema: no partsupp table, so cost = p_retailprice ×
    l_quantity (both exact cents → 10⁻⁴-dollar units, same scale as
    price×(100−disc)). ZERO exchanges: part and supplier are broadcast
    dimension attaches, profit folds per block into (nation × year)
    partials, and the driver merge is nation×year-sized. The profit can
    be NEGATIVE — the fold is exact signed int64."""
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.lookup import broadcast_join

    part = (
        pq.read_table(
            f"{sf_dir}/part.parquet",
            columns=["p_partkey", "p_type", "p_retailprice"],
        )
        .to_pandas()
        .rename(columns={"p_partkey": "l_partkey"})
    )
    part = part[part["p_type"] == "STANDARD"][["l_partkey", "p_retailprice"]]
    supp = (
        pq.read_table(
            f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
        )
        .to_pandas()
        .rename(columns={"s_suppkey": "l_suppkey"})
    )

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_extendedprice",
                 "l_discount", "l_shipdate"],
    )
    li = broadcast_join(li, part, on=["l_partkey"], how="inner")
    li = broadcast_join(li, supp, on=["l_suppkey"], how="inner")

    def profit_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        revenue = _cents(pdf["l_extendedprice"]) * (
            100 - _cents(pdf["l_discount"])
        )
        cost = _cents(pdf["p_retailprice"]) * _cents(pdf["l_quantity"])
        tmp = pd.DataFrame(
            {
                "s_nationkey": pdf["s_nationkey"].to_numpy(np.int64),
                "l_year": pdf["l_shipdate"].dt.year.to_numpy(np.int64),
                "profit_c4": (revenue - cost).to_numpy(np.int64),
            }
        )
        return tmp.groupby(
            ["s_nationkey", "l_year"], sort=False, as_index=False
        )["profit_c4"].sum()

    parts = li.map_batches(
        profit_partial, batch_format="pandas", batch_size=None
    ).to_pandas()  # ≤ blocks × nations × years
    out = parts.groupby(["s_nationkey", "l_year"], as_index=False)[
        "profit_c4"
    ].sum()
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    out["n_name"] = out["s_nationkey"].map(
        dict(zip(nation["n_nationkey"], nation["n_name"]))
    )
    out["profit_c4"] = out["profit_c4"].astype("int64")
    out["profit"] = out["profit_c4"].to_numpy(np.float64) / 10000.0
    return out[["n_name", "l_year", "profit_c4", "profit"]].reset_index(
        drop=True
    )


QUERIES["tpch_q9"] = q_tpch_q9

ORACLE_SQL["tpch_q9"] = """
    WITH f AS (
      SELECT s_nationkey, CAST(year(l_shipdate) AS BIGINT) AS l_year,
             CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))
             - CAST(round(p_retailprice * 100) AS BIGINT)
             * CAST(round(l_quantity * 100) AS BIGINT) AS profit_c4
      FROM lineitem
      JOIN part     ON p_partkey = l_partkey
      JOIN supplier ON s_suppkey = l_suppkey
      WHERE p_type = 'STANDARD')
    SELECT n_name, l_year, CAST(sum(profit_c4) AS BIGINT) AS profit_c4,
           CAST(sum(profit_c4) AS BIGINT) / 10000.0 AS profit
    FROM f JOIN nation ON n_nationkey = s_nationkey
    GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_tpch_q13(sf_dir: str):
    """TPC-H Q13 shape (customer order-count distribution): how many
    customers placed exactly k qualifying orders (priority given, i.e.
    not '4-NOT SPECIFIED'), INCLUDING the zero bucket — the left-join
    semantics. Orders fold per block into per-customer count partials
    (combiner; the driver merge is ≤ blocks × distinct customers,
    entity-sized under the q_rrf_user_rank cardinality contract); the
    customer dimension supplies the zero-order keys by reindex. The
    histogram is exact integer counts."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    orders = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority"],
        filter_expr=(pads.field("o_orderpriority") != "4-NOT SPECIFIED"),
    )

    def count_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[pdf["o_orderpriority"] != "4-NOT SPECIFIED"]
        out = pdf.groupby("o_custkey", sort=False, as_index=False).size()
        return out.rename(columns={"size": "c_count"})

    parts = orders.map_batches(
        count_partial, batch_format="pandas", batch_size=None
    ).to_pandas()
    counts = parts.groupby("o_custkey")["c_count"].sum()

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    ).to_pandas()
    # reindex over the customer dimension: customers with no qualifying
    # orders land in the k=0 bucket (LEFT JOIN semantics)
    per_cust = counts.reindex(cust["c_custkey"], fill_value=0)
    hist = per_cust.value_counts().sort_index()
    return pd.DataFrame(
        {
            "c_count": hist.index.to_numpy(np.int64),
            "custdist": hist.to_numpy(np.int64),
        }
    )


QUERIES["tpch_q13"] = q_tpch_q13

ORACLE_SQL["tpch_q13"] = """
    WITH co AS (
      SELECT c_custkey, count(o_orderkey) AS c_count
      FROM customer LEFT JOIN orders
        ON c_custkey = o_custkey AND o_orderpriority <> '4-NOT SPECIFIED'
      GROUP BY c_custkey)
    SELECT CAST(c_count AS BIGINT) AS c_count,
           CAST(count(*) AS BIGINT) AS custdist
    FROM co GROUP BY c_count ORDER BY c_count
"""


def q_tpch_q15(sf_dir: str):
    """TPC-H Q15 shape (top supplier): exact-cents revenue per supplier
    over one ship quarter; return the supplier(s) achieving the MAX
    (the view + subquery in the original — ties kept, exact integer
    compare so no float-equality hazard). Revenue folds per block into
    per-supplier partials (supplier dimension is entity-sized); the
    max + filter runs on the folded table; names broadcast-attach."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1996-04-01")
    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter_expr=(
            (pads.field("l_shipdate") >= pa.scalar(lo))
            & (pads.field("l_shipdate") < pa.scalar(hi))
        ),
    )

    def rev_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        keep = (pdf["l_shipdate"] >= lo) & (pdf["l_shipdate"] < hi)
        pdf = pdf[keep]
        tmp = pd.DataFrame(
            {
                "l_suppkey": pdf["l_suppkey"].to_numpy(np.int64),
                "rev_c4": (
                    _cents(pdf["l_extendedprice"])
                    * (100 - _cents(pdf["l_discount"]))
                ).to_numpy(np.int64),
            }
        )
        return tmp.groupby("l_suppkey", sort=False, as_index=False)[
            "rev_c4"
        ].sum()

    parts = li.map_batches(
        rev_partial, batch_format="pandas", batch_size=None
    ).to_pandas()  # ≤ blocks × suppliers (entity-sized)
    agg = parts.groupby("l_suppkey", as_index=False)["rev_c4"].sum()
    best = agg[agg["rev_c4"] == agg["rev_c4"].max()]
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).to_pandas()
    out = best.rename(columns={"l_suppkey": "s_suppkey"}).merge(
        supp, on="s_suppkey"
    )
    out["total_revenue_c4"] = out["rev_c4"].astype("int64")
    out["total_revenue"] = out["total_revenue_c4"].to_numpy(np.float64) / 10000.0
    return out[
        ["s_suppkey", "s_name", "total_revenue_c4", "total_revenue"]
    ].sort_values("s_suppkey").reset_index(drop=True)


QUERIES["tpch_q15"] = q_tpch_q15

ORACLE_SQL["tpch_q15"] = """
    WITH rev AS (
      SELECT l_suppkey AS s_suppkey,
             CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                      * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                  AS BIGINT) AS total_revenue_c4
      FROM lineitem
      WHERE l_shipdate >= TIMESTAMP '1996-01-01'
        AND l_shipdate < TIMESTAMP '1996-04-01'
      GROUP BY l_suppkey)
    SELECT s_suppkey, s_name, total_revenue_c4,
           total_revenue_c4 / 10000.0 AS total_revenue
    FROM rev JOIN supplier USING (s_suppkey)
    WHERE total_revenue_c4 = (SELECT max(total_revenue_c4) FROM rev)
    ORDER BY s_suppkey
"""


def q_tpch_q17(sf_dir: str):
    """TPC-H Q17 shape (small-quantity-order revenue): revenue from
    lines of two brands (size ≤ 25) whose quantity is below 20% of the
    part's average line quantity. The correlated AVG subquery is made
    EXACT-INTEGER: qty < sum/(5n) ⇔ 5·n·qty_c < sum_qc, so no float
    average ever exists to disagree on. Two pruned passes over
    lineitem (exactly the two scans the SQL performs), both map-side:
    the filtered part keys broadcast-prune pass 1's per-part
    (Σqty, n) partials (driver fold is filtered-part-sized), then the
    folded stats broadcast back for pass 2's threshold filter +
    exact-cents revenue fold. Zero exchanges."""
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.lookup import broadcast_join

    part = (
        pq.read_table(
            f"{sf_dir}/part.parquet",
            columns=["p_partkey", "p_brand", "p_size"],
        )
        .to_pandas()
        .rename(columns={"p_partkey": "l_partkey"})
    )
    part = part[
        part["p_brand"].isin(["Brand#13", "Brand#2"]) & (part["p_size"] <= 25)
    ][["l_partkey"]]

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )

    pruned = broadcast_join(li, part, on=["l_partkey"], how="inner")

    def qty_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {
                "l_partkey": pdf["l_partkey"].to_numpy(np.int64),
                "sum_qc": _cents(pdf["l_quantity"]).to_numpy(np.int64),
                "n": np.ones(len(pdf), dtype=np.int64),
            }
        )
        return tmp.groupby("l_partkey", sort=False, as_index=False).sum()

    stats = (
        pruned.map_batches(qty_partial, batch_format="pandas", batch_size=None)
        .to_pandas()  # ≤ blocks × filtered parts
        .groupby("l_partkey", as_index=False)
        .sum()
    )

    pruned2 = broadcast_join(li, stats, on=["l_partkey"], how="inner")

    def rev_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        qty_c = _cents(pdf["l_quantity"]).to_numpy(np.int64)
        keep = 5 * pdf["n"].to_numpy(np.int64) * qty_c < pdf[
            "sum_qc"
        ].to_numpy(np.int64)
        price_c = _cents(pdf["l_extendedprice"][keep]).sum()
        return pd.DataFrame({"total_price_c": [np.int64(price_c)]})

    parts = pruned2.map_batches(
        rev_partial, batch_format="pandas", batch_size=None
    ).to_pandas()
    total = int(parts["total_price_c"].sum())
    return pd.DataFrame(
        {
            "total_price_c": np.array([total], dtype=np.int64),
            "avg_yearly": np.array([total / 700.0], dtype=np.float64),
        }
    )


QUERIES["tpch_q17"] = q_tpch_q17

ORACLE_SQL["tpch_q17"] = """
    WITH keys AS (
      SELECT p_partkey FROM part
      WHERE p_brand IN ('Brand#13', 'Brand#2') AND p_size <= 25),
    stats AS (
      SELECT l_partkey,
             CAST(sum(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT)
               AS sum_qc,
             CAST(count(*) AS BIGINT) AS n
      FROM lineitem JOIN keys ON p_partkey = l_partkey
      GROUP BY l_partkey)
    SELECT CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
             AS total_price_c,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
             / 700.0 AS avg_yearly
    FROM lineitem JOIN stats USING (l_partkey)
    WHERE 5 * n * CAST(round(l_quantity * 100) AS BIGINT) < sum_qc
"""


def q_tpch_q18(sf_dir: str):
    """TPC-H Q18 shape (large-volume customers): top-10 orders by total
    price whose total line quantity exceeds 120. Lineitem pre-folds
    per-order quantity partials INSIDE map_batches (combiner), the one
    exchange is the order-key equi join against orders where the final
    per-order fold + HAVING filter run co-partitioned (post_fn); the
    driver receives only qualifying orders (survivor-sized), ranks by
    exact-cents total price with a deterministic orderkey tie-break,
    and broadcast-attaches customer names to the 10 winners."""
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.joins import equi_join

    threshold_qc = 120 * 100  # quantity cents

    orders = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
    )

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_quantity"],
    )

    def qty_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {
                "o_orderkey": pdf["l_orderkey"].to_numpy(np.int64),
                "qty_c": _cents(pdf["l_quantity"]).to_numpy(np.int64),
            }
        )
        return tmp.groupby("o_orderkey", sort=False, as_index=False).sum()

    li = li.map_batches(qty_partial, batch_format="pandas", batch_size=None)

    def having_fold(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = pdf.groupby("o_orderkey", sort=False, as_index=False).agg(
            o_custkey=("o_custkey", "first"),
            o_totalprice=("o_totalprice", "first"),
            o_orderdate=("o_orderdate", "first"),
            qty_c=("qty_c", "sum"),
        )
        return agg[agg["qty_c"] > threshold_qc]

    joined = equi_join(
        orders,
        li,
        on=["o_orderkey"],
        right_cols=["qty_c"],
        num_partitions=NP,
        post_fn=having_fold,
        # sub-crossover volume at catalog scale: the two-phase staged
        # exchange beats the Dataset sort below ~1M rows (stages/keyed.py)
        exchange="staged",
    )
    surv = joined.to_pandas()  # qualifying orders only (survivor-sized)
    surv["totalprice_c"] = _cents(surv["o_totalprice"])
    top = surv.sort_values(
        ["totalprice_c", "o_orderkey"], ascending=[False, True],
        kind="mergesort",
    ).head(10)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).to_pandas()
    out = top.rename(columns={"o_custkey": "c_custkey"}).merge(
        cust, on="c_custkey"
    )
    out["total_qty"] = (out["qty_c"] // 100).astype("int64")
    out["totalprice_c"] = out["totalprice_c"].astype("int64")
    return out[
        ["c_custkey", "c_name", "o_orderkey", "o_orderdate", "totalprice_c",
         "total_qty"]
    ].reset_index(drop=True)


QUERIES["tpch_q18"] = q_tpch_q18

ORACLE_SQL["tpch_q18"] = """
    WITH oq AS (
      SELECT l_orderkey,
             CAST(sum(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT)
               AS qty_c
      FROM lineitem GROUP BY l_orderkey
      HAVING CAST(sum(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT)
             > 12000)
    SELECT c_custkey, c_name, o_orderkey, o_orderdate,
           CAST(round(o_totalprice * 100) AS BIGINT) AS totalprice_c,
           CAST(qty_c // 100 AS BIGINT) AS total_qty
    FROM oq
    JOIN orders   ON o_orderkey = l_orderkey
    JOIN customer ON c_custkey = o_custkey
    ORDER BY totalprice_c DESC, o_orderkey
    LIMIT 10
"""


def q_tpch_q19(sf_dir: str):
    """TPC-H Q19 shape (discounted revenue, disjunctive predicate):
    exact-cents revenue of lines matching any of three (brand, size
    band, quantity band) branches. Part is a broadcast dimension
    attach; the disjunction evaluates vectorized per block and folds to
    ONE scalar partial per block — zero exchanges."""
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.lookup import broadcast_join

    part = (
        pq.read_table(
            f"{sf_dir}/part.parquet",
            columns=["p_partkey", "p_brand", "p_size"],
        )
        .to_pandas()
        .rename(columns={"p_partkey": "l_partkey"})
    )
    part = part[
        part["p_brand"].isin(["Brand#1", "Brand#2", "Brand#3"])
    ]

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    joined = broadcast_join(li, part, on=["l_partkey"], how="inner")

    def rev_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        qty = pdf["l_quantity"]
        size = pdf["p_size"]
        brand = pdf["p_brand"]
        keep = (
            ((brand == "Brand#1") & size.between(1, 10) & qty.between(1, 15))
            | ((brand == "Brand#2") & size.between(1, 20) & qty.between(10, 25))
            | ((brand == "Brand#3") & size.between(1, 30) & qty.between(20, 35))
        )
        pdf = pdf[keep]
        c4 = (
            _cents(pdf["l_extendedprice"]) * (100 - _cents(pdf["l_discount"]))
        ).sum()
        return pd.DataFrame({"revenue_c4": [np.int64(c4)]})

    parts = joined.map_batches(
        rev_partial, batch_format="pandas", batch_size=None
    ).to_pandas()
    c4 = int(parts["revenue_c4"].sum())
    return pd.DataFrame(
        {
            "revenue_c4": np.array([c4], dtype=np.int64),
            "revenue": np.array([c4 / 10000.0], dtype=np.float64),
        }
    )


QUERIES["tpch_q19"] = q_tpch_q19

ORACLE_SQL["tpch_q19"] = """
    WITH f AS (
      SELECT CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS c4
      FROM lineitem JOIN part ON p_partkey = l_partkey
      WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 10
             AND l_quantity BETWEEN 1 AND 15)
         OR (p_brand = 'Brand#2' AND p_size BETWEEN 1 AND 20
             AND l_quantity BETWEEN 10 AND 25)
         OR (p_brand = 'Brand#3' AND p_size BETWEEN 1 AND 30
             AND l_quantity BETWEEN 20 AND 35))
    SELECT CAST(sum(c4) AS BIGINT) AS revenue_c4,
           CAST(sum(c4) AS BIGINT) / 10000.0 AS revenue
    FROM f
"""


def q_tpch_q21(sf_dir: str):
    """TPC-H Q21 shape (suppliers who kept orders waiting), adapted to
    this schema (no commit/receipt dates): on orders served by ≥2
    distinct suppliers, count per supplier the orders where that
    supplier was the ONLY one shipping late (> 60 days after the order
    date) — the EXISTS / NOT-EXISTS pair of the original collapses to
    per-order supplier-set logic. All lines of an order co-locate in
    the one order-key equi join exchange, so the whole multi-supplier /
    sole-late analysis runs inside the join partitions (post_fn) and
    emits per-supplier count partials; the driver fold is
    supplier-entity-sized."""
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.joins import equi_join

    orders = _rp(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    )
    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    ).map_batches(
        lambda pdf: pdf.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas",
        batch_size=None,
    )

    def sole_late_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        late = (
            pdf["l_shipdate"] > pdf["o_orderdate"] + pd.Timedelta(days=60)
        ).astype("int64")
        per = pd.DataFrame(
            {
                "o_orderkey": pdf["o_orderkey"].to_numpy(np.int64),
                "l_suppkey": pdf["l_suppkey"].to_numpy(np.int64),
                "late": late.to_numpy(np.int64),
            }
        ).groupby(["o_orderkey", "l_suppkey"], sort=False, as_index=False)[
            "late"
        ].max()
        ordagg = per.groupby("o_orderkey", sort=False).agg(
            nsupp=("l_suppkey", "size"), nlate=("late", "sum")
        )
        per = per.join(ordagg, on="o_orderkey")
        waiters = per[
            (per["late"] == 1) & (per["nsupp"] >= 2) & (per["nlate"] == 1)
        ]
        out = waiters.groupby("l_suppkey", sort=False, as_index=False).size()
        return out.rename(columns={"size": "numwait"})

    joined = equi_join(
        orders,
        li,
        on=["o_orderkey"],
        right_cols=["l_suppkey", "l_shipdate"],
        num_partitions=NP,
        post_fn=sole_late_partial,
        # sub-crossover volume at catalog scale: the two-phase staged
        # exchange beats the Dataset sort below ~1M rows (stages/keyed.py)
        exchange="staged",
    )
    parts = joined.to_pandas()  # ≤ partitions × suppliers
    agg = parts.groupby("l_suppkey", as_index=False)["numwait"].sum()
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).to_pandas()
    out = agg.rename(columns={"l_suppkey": "s_suppkey"}).merge(
        supp, on="s_suppkey"
    )
    out["numwait"] = out["numwait"].astype("int64")
    return out[["s_suppkey", "s_name", "numwait"]].sort_values(
        "s_suppkey"
    ).reset_index(drop=True)


QUERIES["tpch_q21"] = q_tpch_q21

ORACLE_SQL["tpch_q21"] = """
    WITH l AS (
      SELECT l_orderkey, l_suppkey,
             CASE WHEN l_shipdate > o_orderdate + INTERVAL 60 DAY
                  THEN 1 ELSE 0 END AS late
      FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
    per AS (
      SELECT l_orderkey, l_suppkey, max(late) AS late
      FROM l GROUP BY 1, 2),
    ord AS (
      SELECT l_orderkey, count(*) AS nsupp, sum(late) AS nlate
      FROM per GROUP BY 1)
    SELECT s_suppkey, s_name, CAST(count(*) AS BIGINT) AS numwait
    FROM per JOIN ord USING (l_orderkey)
    JOIN supplier ON s_suppkey = l_suppkey
    WHERE per.late = 1 AND ord.nsupp >= 2 AND ord.nlate = 1
    GROUP BY 1, 2 ORDER BY 1
"""


def q_tpch_q22(sf_dir: str):
    """TPC-H Q22 shape (global sales opportunity), adapted to this
    schema (no phone column): per nation in a 5-nation set, the count
    and exact-cents balance of customers whose balance exceeds the
    set-wide average POSITIVE balance and who never placed an URGENT
    order. The average comparison is made exact-integer
    (bal > sum/n ⇔ bal_c·n > sum_c); the scalar (sum_c, n) folds from
    per-block partials; the NOT EXISTS is the large×large shuffled
    ANTI join against urgent orders (the broadcast anti's complement);
    the final per-nation fold is nation-sized."""
    import pyarrow.dataset as pads

    from arlas_proc_ray.stages.joins import equi_join

    nations = [1, 3, 5, 7, 9]

    cust = _rp(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"],
    )

    def in_set(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf[pdf["c_nationkey"].isin(nations)]

    cust = cust.map_batches(in_set, batch_format="pandas", batch_size=None)

    def bal_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        pos = pdf[pdf["c_acctbal"] > 0]
        return pd.DataFrame(
            {
                "sum_c": [np.int64(_cents(pos["c_acctbal"]).sum())],
                "n": [np.int64(len(pos))],
            }
        )

    scal = cust.map_batches(
        bal_partial, batch_format="pandas", batch_size=None
    ).to_pandas()
    sum_c, n = int(scal["sum_c"].sum()), int(scal["n"].sum())

    def above_avg(pdf: pd.DataFrame) -> pd.DataFrame:
        bal_c = _cents(pdf["c_acctbal"])
        return pdf[bal_c * n > sum_c]

    rich = cust.map_batches(above_avg, batch_format="pandas", batch_size=None)

    urgent = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority"],
        filter_expr=(pads.field("o_orderpriority") == "1-URGENT"),
    ).map_batches(
        lambda pdf: pdf[pdf["o_orderpriority"] == "1-URGENT"].rename(
            columns={"o_custkey": "c_custkey"}
        )[["c_custkey"]],
        batch_format="pandas",
        batch_size=None,
    )

    no_urgent = equi_join(
        rich,
        urgent,
        on=["c_custkey"],
        right_cols=[],
        how="anti",
        num_partitions=NP,
        # sub-crossover volume at catalog scale: the two-phase staged
        # exchange beats the Dataset sort below ~1M rows (stages/keyed.py)
        exchange="staged",
    )

    def nation_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {
                "c_nationkey": pdf["c_nationkey"].to_numpy(np.int64),
                "numcust": np.ones(len(pdf), dtype=np.int64),
                "totacctbal_c": _cents(pdf["c_acctbal"]).to_numpy(np.int64),
            }
        )
        return tmp.groupby("c_nationkey", sort=False, as_index=False).sum()

    parts = no_urgent.map_batches(
        nation_partial, batch_format="pandas", batch_size=None
    ).to_pandas()  # ≤ blocks × 5 nations
    out = parts.groupby("c_nationkey", as_index=False)[
        ["numcust", "totacctbal_c"]
    ].sum()
    for c in ("numcust", "totacctbal_c"):
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


QUERIES["tpch_q22"] = q_tpch_q22

ORACLE_SQL["tpch_q22"] = """
    WITH pos AS (
      SELECT CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT)
               AS sum_c,
             count(*) AS n
      FROM customer
      WHERE c_nationkey IN (1, 3, 5, 7, 9) AND c_acctbal > 0)
    SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
           CAST(count(*) AS BIGINT) AS numcust,
           CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT)
             AS totacctbal_c
    FROM customer, pos
    WHERE c_nationkey IN (1, 3, 5, 7, 9)
      AND CAST(round(c_acctbal * 100) AS BIGINT) * n > sum_c
      AND NOT EXISTS (SELECT 1 FROM orders
                      WHERE o_custkey = c_custkey
                        AND o_orderpriority = '1-URGENT')
    GROUP BY c_nationkey ORDER BY c_nationkey
"""


def q_tpch_q2(sf_dir: str):
    """TPC-H Q2 shape (minimum-cost supplier). No partsupp table exists
    in this schema, so the supply cost of a (part, supplier) pair is
    derived from the fact stream: min exact-cents l_extendedprice over
    that pair's lineitems (the same adaptation every partsupp-family
    shape here uses). Parts are filtered (p_type = 'LARGE', p_size
    <= 10) and suppliers restricted to region EUROPE via the
    nation→region dimension chain; for each filtered part the
    region-supplier(s) achieving the MINIMUM cost win (exact integer
    compare — ties kept), top 100 by (s_acctbal desc, n_name, s_name,
    p_partkey), a unique sort key so the LIMIT is deterministic.

    Scale shape: both dimension filters broadcast-prune the fact read
    (filtered-part keys ≈ catalog/30, region suppliers ≈ base/5); the
    per-pair min is a per-block combiner whose driver fold is bounded
    by filtered-parts × region-suppliers (dimension-product-sized, the
    same contract as the Q17/Q15 folds). Zero exchanges.
    """
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.lookup import broadcast_join

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type", "p_size"]
    ).to_pandas()
    part = part[(part["p_type"] == "LARGE") & (part["p_size"] <= 10)][
        ["p_partkey"]
    ].rename(columns={"p_partkey": "l_partkey"})

    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    ).to_pandas()
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    ).to_pandas()
    europe = nation.merge(
        region[region["r_name"] == "EUROPE"],
        left_on="n_regionkey",
        right_on="r_regionkey",
    )[["n_nationkey", "n_name"]]
    supp = (
        pq.read_table(
            f"{sf_dir}/supplier.parquet",
            columns=["s_suppkey", "s_name", "s_acctbal", "s_nationkey"],
        )
        .to_pandas()
        .merge(europe, left_on="s_nationkey", right_on="n_nationkey")
    )

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    )
    li = broadcast_join(li, part, on=["l_partkey"], how="inner")
    li = broadcast_join(
        li,
        supp[["s_suppkey"]].rename(columns={"s_suppkey": "l_suppkey"}),
        on=["l_suppkey"],
        how="inner",
    )

    def pair_min(pdf: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {
                "l_partkey": pdf["l_partkey"].to_numpy(np.int64),
                "l_suppkey": pdf["l_suppkey"].to_numpy(np.int64),
                "cost_c": _cents(pdf["l_extendedprice"]).to_numpy(np.int64),
            }
        )
        return tmp.groupby(
            ["l_partkey", "l_suppkey"], sort=False, as_index=False
        ).min()

    pairs = (
        li.map_batches(pair_min, batch_format="pandas", batch_size=None)
        .to_pandas()  # ≤ blocks × (filtered parts × region suppliers)
        .groupby(["l_partkey", "l_suppkey"], as_index=False)["cost_c"]
        .min()
    )
    if pairs.empty:
        return pd.DataFrame(
            columns=["s_acctbal", "s_name", "n_name", "p_partkey", "cost_c"]
        )
    best = pairs.groupby("l_partkey")["cost_c"].transform("min")
    win = pairs[pairs["cost_c"] == best].rename(
        columns={"l_suppkey": "s_suppkey", "l_partkey": "p_partkey"}
    )
    out = win.merge(supp[["s_suppkey", "s_name", "s_acctbal", "n_name"]],
                    on="s_suppkey")
    out = out.sort_values(
        ["s_acctbal", "n_name", "s_name", "p_partkey"],
        ascending=[False, True, True, True],
    ).head(100)
    out["cost_c"] = out["cost_c"].astype("int64")
    return out[
        ["s_acctbal", "s_name", "n_name", "p_partkey", "cost_c"]
    ].reset_index(drop=True)


QUERIES["tpch_q2"] = q_tpch_q2

ORACLE_SQL["tpch_q2"] = """
    WITH pairs AS (
      SELECT l_partkey, l_suppkey,
             CAST(min(CAST(round(l_extendedprice * 100) AS BIGINT))
                  AS BIGINT) AS cost_c
      FROM lineitem
      JOIN part ON p_partkey = l_partkey
      JOIN supplier ON s_suppkey = l_suppkey
      JOIN nation ON s_nationkey = n_nationkey
      JOIN region ON n_regionkey = r_regionkey
      WHERE p_type = 'LARGE' AND p_size <= 10 AND r_name = 'EUROPE'
      GROUP BY l_partkey, l_suppkey)
    SELECT s_acctbal, s_name, n_name,
           l_partkey AS p_partkey, cost_c
    FROM pairs
    JOIN supplier ON s_suppkey = l_suppkey
    JOIN nation ON s_nationkey = n_nationkey
    WHERE cost_c = (SELECT min(cost_c) FROM pairs p2
                    WHERE p2.l_partkey = pairs.l_partkey)
    ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
    LIMIT 100
"""


def q_tpch_q11(sf_dir: str):
    """TPC-H Q11 shape (important stock). partsupp-free adaptation: a
    part's "stock value" held by NATION_7's suppliers is the exact-c4
    sum of l_extendedprice·(100−l_discount) over that nation's
    lineitems; keep parts whose value exceeds 0.1% of the nation
    total — the HAVING-vs-global-scalar comparison is kept EXACT
    INTEGER (value_c4 · 1000 > total_c4), so no float fraction exists
    to disagree on.

    Scale shape: the nation's supplier keys broadcast-prune the fact
    read to ~1/25 of the stream; the per-part value is a per-block
    combiner (driver fold ≤ blocks × touched parts, catalog-sized by
    contract); the global total is a sum of the same fold. Zero
    exchanges.
    """
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.lookup import broadcast_join

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nk = int(nation[nation["n_name"] == "NATION_7"]["n_nationkey"].iloc[0])
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    supp = supp[supp["s_nationkey"] == nk][["s_suppkey"]].rename(
        columns={"s_suppkey": "l_suppkey"}
    )

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    li = broadcast_join(li, supp, on=["l_suppkey"], how="inner")

    def val_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        c4 = _cents(pdf["l_extendedprice"]) * (100 - _cents(pdf["l_discount"]))
        tmp = pd.DataFrame(
            {
                "p_partkey": pdf["l_partkey"].to_numpy(np.int64),
                "value_c4": c4.to_numpy(np.int64),
            }
        )
        return tmp.groupby("p_partkey", sort=False, as_index=False).sum()

    parts = li.map_batches(
        val_partial, batch_format="pandas", batch_size=None
    ).to_pandas()  # ≤ blocks × touched parts (catalog-sized)
    if parts.empty:  # the nation may own no suppliers at tiny scales
        return pd.DataFrame(columns=["p_partkey", "value_c4", "value"])
    parts = parts.groupby("p_partkey", as_index=False)["value_c4"].sum()
    total = int(parts["value_c4"].sum())
    out = parts[parts["value_c4"] * 1000 > total].copy()
    out["value_c4"] = out["value_c4"].astype("int64")
    out["value"] = out["value_c4"].to_numpy(np.float64) / 10000.0
    return out.sort_values("p_partkey").reset_index(drop=True)


QUERIES["tpch_q11"] = q_tpch_q11

ORACLE_SQL["tpch_q11"] = """
    WITH vals AS (
      SELECT l_partkey AS p_partkey,
             CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                      * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                  AS BIGINT) AS value_c4
      FROM lineitem
      JOIN supplier ON s_suppkey = l_suppkey
      JOIN nation ON s_nationkey = n_nationkey
      WHERE n_name = 'NATION_7'
      GROUP BY l_partkey)
    SELECT p_partkey, value_c4, value_c4 / 10000.0 AS value
    FROM vals
    WHERE value_c4 * 1000 > (SELECT sum(value_c4) FROM vals)
    ORDER BY p_partkey
"""


def q_tpch_q16(sf_dir: str):
    """TPC-H Q16 shape (supplier-count by part descriptor). partsupp-
    free adaptation: a supplier "offers" a part iff a lineitem pairs
    them. Parts are filtered (brand <> 'Brand#1', type <> 'PROMO',
    size IN 8 values), suppliers with negative account balance are
    excluded (the complaints anti-join of the original), and the
    answer is the DISTINCT supplier count per (p_brand, p_type,
    p_size).

    Scale shape: filtered part attrs broadcast-prune the fact read;
    each block emits its UNIQUE (partkey, suppkey) pairs (per-block
    dedup combiner), the driver dedups the union — bounded by
    filtered-parts × suppliers (dimension-product-sized, stated
    contract) — and counts distinct suppliers per descriptor on the
    deduped pair table. Zero exchanges.
    """
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.lookup import broadcast_join

    sizes = [1, 4, 9, 14, 23, 36, 45, 49]
    part = pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
    ).to_pandas()
    part = part[
        (part["p_brand"] != "Brand#1")
        & (part["p_type"] != "PROMO")
        & part["p_size"].isin(sizes)
    ].rename(columns={"p_partkey": "l_partkey"})

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_acctbal"]
    ).to_pandas()
    ok_supp = supp[supp["s_acctbal"] >= 0][["s_suppkey"]].rename(
        columns={"s_suppkey": "l_suppkey"}
    )

    li = _rp(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )
    li = broadcast_join(li, part[["l_partkey"]], on=["l_partkey"], how="inner")
    li = broadcast_join(li, ok_supp, on=["l_suppkey"], how="inner")

    def pair_unique(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf[["l_partkey", "l_suppkey"]].drop_duplicates()

    pairs = (
        li.map_batches(pair_unique, batch_format="pandas", batch_size=None)
        .to_pandas()  # ≤ blocks × block-local pairs; dedup next
        .drop_duplicates()  # ≤ filtered parts × suppliers
    )
    merged = pairs.merge(part, on="l_partkey")
    out = (
        merged.groupby(["p_brand", "p_type", "p_size"], as_index=False)[
            "l_suppkey"
        ]
        .nunique()
        .rename(columns={"l_suppkey": "supplier_cnt"})
    )
    out["supplier_cnt"] = out["supplier_cnt"].astype("int64")
    out["p_size"] = out["p_size"].astype("int64")
    return out.sort_values(
        ["supplier_cnt", "p_brand", "p_type", "p_size"],
        ascending=[False, True, True, True],
    ).reset_index(drop=True)


QUERIES["tpch_q16"] = q_tpch_q16

ORACLE_SQL["tpch_q16"] = """
    SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
           CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
    FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem) pairs
    JOIN part ON p_partkey = l_partkey
    JOIN supplier ON s_suppkey = l_suppkey
    WHERE p_brand <> 'Brand#1' AND p_type <> 'PROMO'
      AND p_size IN (1, 4, 9, 14, 23, 36, 45, 49)
      AND s_acctbal >= 0
    GROUP BY p_brand, p_type, p_size
    ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
"""


def q_tpch_q20(sf_dir: str):
    """TPC-H Q20 shape (suppliers with excess stock). partsupp-free
    adaptation: a region-EUROPE supplier qualifies iff for some part
    named 'small%' it shipped MORE THAN HALF of that part's total 1996
    quantity (2·qty_pair > qty_part, exact quantity-cents integers —
    the availqty > 0.5·sum(qty) correlated subquery of the original
    re-expressed as a dominant-supplier share).

    Scale shape: the name-filtered part keys broadcast-prune the
    1996-pruned fact read (row-group pruning on l_shipdate + exact
    re-filter); per-(part, supplier) quantity is a per-block combiner
    whose driver fold is bounded by filtered parts × suppliers; the
    part total and the dominance filter run on that folded table; the
    survivor supplier set is distinct-supplier-sized. Zero exchanges.
    """
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from arlas_proc_ray.stages.lookup import broadcast_join

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-01-01")

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    ).to_pandas()
    part = part[part["p_name"].str.startswith("small")][["p_partkey"]].rename(
        columns={"p_partkey": "l_partkey"}
    )

    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    ).to_pandas()
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    ).to_pandas()
    europe = nation.merge(
        region[region["r_name"] == "EUROPE"],
        left_on="n_regionkey",
        right_on="r_regionkey",
    )[["n_nationkey"]]
    supp = (
        pq.read_table(
            f"{sf_dir}/supplier.parquet",
            columns=["s_suppkey", "s_name", "s_acctbal", "s_nationkey"],
        )
        .to_pandas()
        .merge(europe, left_on="s_nationkey", right_on="n_nationkey")
    )

    li = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
        filter_expr=(
            (pads.field("l_shipdate") >= pa.scalar(lo))
            & (pads.field("l_shipdate") < pa.scalar(hi))
        ),
    )
    li = broadcast_join(li, part, on=["l_partkey"], how="inner")

    def qty_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        keep = (pdf["l_shipdate"] >= lo) & (pdf["l_shipdate"] < hi)
        pdf = pdf[keep]
        tmp = pd.DataFrame(
            {
                "l_partkey": pdf["l_partkey"].to_numpy(np.int64),
                "l_suppkey": pdf["l_suppkey"].to_numpy(np.int64),
                "qty_c": _cents(pdf["l_quantity"]).to_numpy(np.int64),
            }
        )
        return tmp.groupby(
            ["l_partkey", "l_suppkey"], sort=False, as_index=False
        ).sum()

    pairs = (
        li.map_batches(qty_partial, batch_format="pandas", batch_size=None)
        .to_pandas()  # ≤ blocks × (filtered parts × suppliers)
        .groupby(["l_partkey", "l_suppkey"], as_index=False)["qty_c"]
        .sum()
    )
    if pairs.empty:
        return pd.DataFrame(columns=["s_name", "s_acctbal"])
    part_tot = pairs.groupby("l_partkey")["qty_c"].transform("sum")
    dominant = pairs[2 * pairs["qty_c"] > part_tot]
    winners = dominant[["l_suppkey"]].drop_duplicates().rename(
        columns={"l_suppkey": "s_suppkey"}
    )
    out = winners.merge(supp[["s_suppkey", "s_name", "s_acctbal"]],
                        on="s_suppkey")
    return out[["s_name", "s_acctbal"]].sort_values("s_name").reset_index(
        drop=True
    )


QUERIES["tpch_q20"] = q_tpch_q20

ORACLE_SQL["tpch_q20"] = """
    WITH pairs AS (
      SELECT l_partkey, l_suppkey,
             CAST(sum(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT)
               AS qty_c
      FROM lineitem
      JOIN part ON p_partkey = l_partkey
      WHERE p_name LIKE 'small%'
        AND l_shipdate >= TIMESTAMP '1996-01-01'
        AND l_shipdate < TIMESTAMP '1997-01-01'
      GROUP BY l_partkey, l_suppkey),
    tot AS (
      SELECT l_partkey, CAST(sum(qty_c) AS BIGINT) AS part_qty_c
      FROM pairs GROUP BY l_partkey)
    SELECT DISTINCT s_name, s_acctbal
    FROM pairs
    JOIN tot USING (l_partkey)
    JOIN supplier ON s_suppkey = l_suppkey
    JOIN nation ON s_nationkey = n_nationkey
    JOIN region ON n_regionkey = r_regionkey
    WHERE 2 * qty_c > part_qty_c AND r_name = 'EUROPE'
    ORDER BY s_name
"""


def q_neighborhood_growth(sf_dir: str):
    """Neighborhood function N(h) over the mirrored user↔event-type
    interaction graph (stages/neighborhood.py, mode="exact"): for
    h = 0..3, how many (source, node) pairs lie within h hops. Runs on
    the resident-edge Pregel kit — edges hash-stage once, per-node
    REACHABILITY BITSETS live co-partitioned in the object store, each
    hop is 2·P raw tasks OR-merging neighbor sketches (node-sized
    movement only), and the driver sees one popcount partial per
    partition per hop. Exact int64, reproducible by a bounded
    recursive-CTE oracle; the HLL twin (anf_hll_growth) is the
    unbounded-node-count scale path."""
    from arlas_proc_ray.stages.neighborhood import neighborhood_function

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    return neighborhood_function(
        edges, src_col="src", dst_col="dst", max_hops=3, mode="exact",
        num_partitions=NP,
    )


QUERIES["neighborhood_growth"] = q_neighborhood_growth

ORACLE_SQL["neighborhood_growth"] = """
    WITH RECURSIVE pw AS (
      SELECT DISTINCT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t
      FROM events),
    edges AS (SELECT u AS src, t AS dst FROM pw
              UNION SELECT t, u FROM pw),
    nodes AS (SELECT src AS node FROM edges
              UNION SELECT dst FROM edges),
    reach(src, node, h) AS (
      SELECT node, node, 0 FROM nodes
      UNION
      SELECT r.src, e.dst, r.h + 1
      FROM reach r JOIN edges e ON e.src = r.node
      WHERE r.h < 3),
    md AS (SELECT src, node, min(h) AS d FROM reach GROUP BY 1, 2),
    hs AS (SELECT * FROM (VALUES (0), (1), (2), (3)) AS t(hops))
    SELECT CAST(hops AS BIGINT) AS hops,
           CAST(count(*) AS BIGINT) AS pairs
    FROM hs JOIN md ON md.d <= hs.hops
    GROUP BY hops ORDER BY hops
"""


def q_anf_hll_growth(sf_dir: str):
    """q_neighborhood_growth on the HLL sketch path (HyperANF,
    Boldi/Rosa/Vigna WWW 2011): per-node 64-register HLL sketches
    replace the n-bit reachability bitsets, making state n·64 bytes
    TOTAL — the path for node counts past any bitset budget. Same
    resident-edge Pregel loop (max-merge instead of OR). Approximate by
    construction (rows-only here; the ≤15% error bound vs the exact
    bitset path is pinned in tests/test_neighborhood.py), deterministic
    across runs and cluster resizes (value-stable hashes, no RNG)."""
    from arlas_proc_ray.stages.neighborhood import neighborhood_function

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    return neighborhood_function(
        edges, src_col="src", dst_col="dst", max_hops=3, mode="hll",
        log2m=6, num_partitions=NP,
    )


QUERIES["anf_hll_growth"] = q_anf_hll_growth


def q_user_components(sf_dir: str):
    """Connected components of the STRONG-interaction graph: user↔type
    edges only where the user emitted that event type ≥ 12 times, via
    fixed-depth (6-round) synchronous min-label propagation on the
    resident-edge Pregel kit (stages/graph.py:min_label_exchange —
    edges staged once, node-sized label movement per round, zero driver
    node state; the dedup family's pointer-doubling components remain
    the unbounded-diameter path). Both sides run EXACTLY 6 steps, so
    the chained-CTE oracle is bit-exact regardless of convergence.
    Output: the full per-node assignment (node, component) — one row
    per graph node, so the driver hash covers every label.

    The qualifying (user, type) pair table is entity-sized (users ×
    5 types) — per-block count combiner, driver fold under the stated
    small-side contract, edge list built dimension-sized."""
    from arlas_proc_ray.stages.graph import min_label_exchange

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def pair_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {
                "u": pdf["user_id"].to_numpy(np.int64),
                "t": pdf["event_type"].to_numpy(),
                "c": np.ones(len(pdf), dtype=np.int64),
            }
        )
        return tmp.groupby(["u", "t"], sort=False, as_index=False).sum()

    pairs = (
        ds.map_batches(pair_partial, batch_format="pandas", batch_size=None)
        .to_pandas()  # ≤ blocks × (users × 5 types), entity-sized
        .groupby(["u", "t"], as_index=False)["c"]
        .sum()
    )
    pairs = pairs[pairs["c"] >= 12]
    u = "u:" + pairs["u"].astype(str)
    t = "t:" + pairs["t"].astype(str)
    edges = pd.DataFrame(
        {
            "src": pd.concat([u, t], ignore_index=True),
            "dst": pd.concat([t, u], ignore_index=True),
        }
    )
    labels = min_label_exchange(
        rd.from_pandas(edges), src_col="src", dst_col="dst", rounds=6,
        num_partitions=NP,
    ).to_pandas()
    out = labels.rename(columns={"label": "component"})
    return out.sort_values("node").reset_index(drop=True)


QUERIES["user_components"] = q_user_components


def _components_oracle(rounds: int = 6) -> str:
    """Chained-CTE fixed-depth min propagation: lbₖ₊₁(v) = least(lbₖ(v),
    min over in-edges of lbₖ(src)) — the same 6 synchronous steps the
    Ray side runs (binary string collation on both sides)."""
    sql = """
    WITH pw AS (
      SELECT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t
      FROM events GROUP BY 1, 2 HAVING count(*) >= 12),
    edges AS (SELECT u AS src, t AS dst FROM pw
              UNION ALL SELECT t, u FROM pw),
    l0 AS (SELECT src AS node, src AS lb FROM edges
           UNION SELECT dst, dst FROM edges)"""
    prev = "l0"
    for i in range(1, rounds + 1):
        sql += f""",
    c{i} AS (SELECT e.dst AS node, min(l.lb) AS ml
             FROM edges e JOIN {prev} l ON l.node = e.src
             GROUP BY 1),
    l{i} AS (SELECT l.node, least(l.lb, coalesce(c.ml, l.lb)) AS lb
             FROM {prev} l LEFT JOIN c{i} c ON c.node = l.node)"""
        prev = f"l{i}"
    sql += f"""
    SELECT node, lb AS component FROM {prev} ORDER BY node
"""
    return sql


ORACLE_SQL["user_components"] = _components_oracle()


def q_hits_interactions(sf_dir: str):
    """HITS hubs/authorities (2 iterations) over the DIRECTED
    user→event-type interaction multigraph — hubs score active users,
    authorities score popular event types
    (stages/graph.py:hits_exchange on the resident-edge Pregel kit:
    edges stage twice — once per propagation direction — then every
    half-step moves only node-sized scores; renormalization is the
    EXACT integer x·scale//max(x), big-int product, so the chained-CTE
    oracle reproduces every score bit-for-bit via HUGEINT)."""
    from arlas_proc_ray.stages.graph import hits_exchange

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def direct(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": "u:" + pdf["user_id"].astype("int64").astype(str),
                "dst": "t:" + pdf["event_type"].astype(str),
            }
        )

    edges = ds.map_batches(direct, batch_format="pandas", batch_size=None)
    out = (
        hits_exchange(
            edges, src_col="src", dst_col="dst", iterations=2,
            num_partitions=NP,
        )
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    return out


QUERIES["hits_interactions"] = q_hits_interactions


def _hits_oracle(iterations: int = 2, scale: int = 10**9) -> str:
    """Chained-CTE HITS: the multigraph edge rows compress to (src,
    dst, w) — both propagation sums are linear, so Σ_rows h(u) =
    Σ_pairs w·h(u). Rescale products run in HUGEINT (they pass int64
    exactly as the Ray side's big-int rescale does)."""
    sql = f"""
    WITH pw AS (
      SELECT 'u:' || CAST(user_id AS VARCHAR) AS src,
             't:' || event_type AS dst,
             CAST(count(*) AS BIGINT) AS w
      FROM events GROUP BY 1, 2),
    nodes AS (SELECT src AS node FROM pw UNION SELECT dst FROM pw),
    h0 AS (SELECT node, CAST({scale} AS BIGINT) AS h FROM nodes)"""
    prev_h = "h0"
    for i in range(1, iterations + 1):
        sql += f""",
    a{i}r AS (SELECT p.dst AS node, CAST(SUM(p.w * h.h) AS BIGINT) AS x
              FROM pw p JOIN {prev_h} h ON h.node = p.src GROUP BY 1),
    a{i}m AS (SELECT max(x) AS mx FROM a{i}r),
    a{i} AS (SELECT n.node,
                    CAST((CAST(COALESCE(r.x, 0) AS HUGEINT) * {scale})
                         // m.mx AS BIGINT) AS a
             FROM nodes n
             LEFT JOIN a{i}r r ON r.node = n.node, a{i}m m),
    h{i}r AS (SELECT p.src AS node, CAST(SUM(p.w * a.a) AS BIGINT) AS x
              FROM pw p JOIN a{i} a ON a.node = p.dst GROUP BY 1),
    h{i}m AS (SELECT max(x) AS mx FROM h{i}r),
    h{i} AS (SELECT n.node,
                    CAST((CAST(COALESCE(r.x, 0) AS HUGEINT) * {scale})
                         // m.mx AS BIGINT) AS h
             FROM nodes n
             LEFT JOIN h{i}r r ON r.node = n.node, h{i}m m)"""
        prev_h = f"h{i}"
    sql += f"""
    SELECT n.node, h.h AS hub, a.a AS authority
    FROM nodes n
    JOIN h{iterations} h ON h.node = n.node
    JOIN a{iterations} a ON a.node = n.node
    ORDER BY n.node
"""
    return sql


ORACLE_SQL["hits_interactions"] = _hits_oracle()


def q_label_communities_exchange(sf_dir: str):
    """q_label_communities on the NO-driver-label-vector path
    (stages/graph.py:label_propagation_exchange — the fourth
    exchange-mode twin, labels Dataset-resident on the resident-edge
    Pregel kit, edges staged once instead of re-read per round).
    Bit-identical to the broadcast LPA (parity-pinned), so it shares
    label_communities' chained-CTE oracle."""
    from arlas_proc_ray.stages.graph import label_propagation_exchange

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    return (
        label_propagation_exchange(
            edges, src_col="src", dst_col="dst", rounds=2,
            num_partitions=NP,
        )
        .to_pandas()
        .sort_values("node", kind="mergesort")
        .reset_index(drop=True)
    )


QUERIES["label_communities_exchange"] = q_label_communities_exchange
ORACLE_SQL["label_communities_exchange"] = ORACLE_SQL["label_communities"]


def q_walk_corpus(sf_dir: str):
    """Deterministic 4-step walk corpus over the mirrored user↔type
    interaction graph (stages/graph.py:deterministic_walks — DeepWalk-
    style training-data generation with a counter-based PRNG instead of
    RNG state): walk w's step s moves to sorted-distinct-neighbor index
    splitmix64(w·1000003 + s) % degree, so every walk is reproducible
    across runs, cluster resizes, AND by a HUGEINT splitmix64 SQL
    oracle (ROW_NUMBER over the byte-ordered neighbor list). One walk
    per user, rooted at the user's node. Edges stage once on the
    resident-edge Pregel kit; walk state hops between partitions as
    node-sized rows; every intermediate position is retained as object-
    store refs — the result Dataset reads them zero-copy."""
    from arlas_proc_ray.stages.graph import deterministic_walks

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)

    def user_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"walk": pdf["user_id"].astype("int64").unique()}
        )

    users = (
        ds.map_batches(user_partial, batch_format="pandas", batch_size=None)
        .to_pandas()["walk"]  # ≤ blocks × users (entity-sized)
        .unique()
    )
    starts = pd.DataFrame({"walk": np.sort(users).astype(np.int64)})
    starts["node"] = "u:" + starts["walk"].astype(str)
    out = (
        deterministic_walks(
            edges, src_col="src", dst_col="dst", starts=starts, length=4,
            num_partitions=NP,
        )
        .to_pandas()
        .sort_values(["walk", "step"])
        .reset_index(drop=True)
    )
    return out


QUERIES["walk_corpus"] = q_walk_corpus


def _walks_oracle(length: int = 4, K: int = 1_000_003) -> str:
    """Chained-CTE walk steps: the splitmix64 counter runs in HUGEINT
    (same 32-bit-split mulmod as the fingerprint kernels), the neighbor
    pick is ROW_NUMBER over the byte-ordered DISTINCT out-list."""

    def smx(x_expr: str, tag: str) -> str:
        # returns CTE fragments computing z = splitmix64(x) as hz_{tag}
        return f"""
    z0_{tag} AS (SELECT *, (({x_expr})::HUGEINT
                   + 11400714819323198485::HUGEINT) % {_M64_SQL} AS z
                 FROM w{tag}_in),
    z1_{tag} AS (SELECT * REPLACE ({_sql_mulmod64('xor(z, z >> 30)', _SQS_C2)} AS z)
                 FROM z0_{tag}),
    z2_{tag} AS (SELECT * REPLACE ({_sql_mulmod64('xor(z, z >> 27)', _SQS_C3)} AS z)
                 FROM z1_{tag}),
    h_{tag} AS (SELECT * REPLACE (xor(z, z >> 31) AS z) FROM z2_{tag})"""

    sql = """
    WITH pw AS (
      SELECT DISTINCT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t
      FROM events),
    edges AS (SELECT u AS a, t AS b FROM pw
              UNION SELECT t, u FROM pw),
    adj AS (SELECT a, b,
                   ROW_NUMBER() OVER (PARTITION BY a ORDER BY b) - 1 AS rn,
                   COUNT(*) OVER (PARTITION BY a) AS d
            FROM edges),
    w0 AS (SELECT DISTINCT CAST(user_id AS BIGINT) AS walk,
                  'u:' || CAST(user_id AS VARCHAR) AS node
           FROM events)"""
    for i in range(1, length + 1):
        sql += f""",
    w{i}_in AS (SELECT w.walk, w.node FROM w{i - 1} w),"""
        sql += smx(f"walk * {K} + {i}", str(i)) + ","
        sql += f"""
    w{i} AS (SELECT h.walk, a.b AS node
             FROM h_{i} h
             JOIN adj a ON a.a = h.node
                       AND a.rn = (h.z % a.d::HUGEINT)::BIGINT)"""
    steps = "\n      UNION ALL ".join(
        f"SELECT walk, {i}::BIGINT AS step, node FROM w{i}"
        for i in range(length + 1)
    )
    sql += f"""
    SELECT walk, step, node FROM (
      {steps}
    ) ORDER BY walk, step
"""
    return sql


ORACLE_SQL["walk_corpus"] = _walks_oracle()


def q_pareto_customers(sf_dir: str):
    """Skyline (Pareto frontier) of customers maximizing (total spend,
    order count, recency) — stages/analytics.py:skyline. The per-
    customer aggregate folds through one keyed exchange; the skyline
    then exploits skyline(A∪B) = skyline(skyline(A)∪skyline(B)): each
    partition block reduces to its LOCAL frontier inside map_batches
    and the driver finishes on the union of frontiers (skyline-sized,
    never customer-sized). All three dims exact integers (cents, count,
    epoch seconds), so the NOT-EXISTS oracle matches bit-for-bit."""
    from arlas_proc_ray.stages.analytics import skyline

    ds = _rp(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_totalprice", "o_orderdate"],
    )

    def agg_fn(pdf: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {
                "custkey": pdf["o_custkey"].to_numpy(np.int64),
                "spend_c": _cents(pdf["o_totalprice"]).to_numpy(np.int64),
                "n_orders": np.ones(len(pdf), dtype=np.int64),
                "last_ts": (
                    pdf["o_orderdate"].astype("int64") // 10**6  # µs→s
                ).to_numpy(np.int64),
            }
        )
        return tmp.groupby("custkey", sort=False, as_index=False).agg(
            spend_c=("spend_c", "sum"),
            n_orders=("n_orders", "sum"),
            last_ts=("last_ts", "max"),
        )

    per_cust = keyed_partition_map(
        ds.map_batches(
            lambda pdf: pdf.rename(columns={"o_custkey": "custkey"}),
            batch_format="pandas",
            batch_size=None,
        ),
        keys=["custkey"],
        order_col="o_totalprice",
        fn=lambda pdf: agg_fn(
            pdf.rename(columns={"custkey": "o_custkey"})
        ),
        num_partitions=NP,
    )
    out = skyline(
        per_cust,
        dims=["spend_c", "n_orders", "last_ts"],
        keep_cols=["custkey"],
    )
    for c in ("custkey", "spend_c", "n_orders", "last_ts"):
        out[c] = out[c].astype("int64")
    return out.sort_values("custkey").reset_index(drop=True)


QUERIES["pareto_customers"] = q_pareto_customers

ORACLE_SQL["pareto_customers"] = """
    WITH agg AS (
      SELECT o_custkey AS custkey,
             CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
               AS spend_c,
             CAST(count(*) AS BIGINT) AS n_orders,
             CAST(epoch(max(o_orderdate)) AS BIGINT) AS last_ts
      FROM orders GROUP BY 1)
    SELECT custkey, spend_c, n_orders, last_ts
    FROM agg c
    WHERE NOT EXISTS (
      SELECT 1 FROM agg d
      WHERE d.spend_c >= c.spend_c AND d.n_orders >= c.n_orders
        AND d.last_ts >= c.last_ts
        AND (d.spend_c > c.spend_c OR d.n_orders > c.n_orders
             OR d.last_ts > c.last_ts))
    ORDER BY custkey
"""


def q_user_trend_mk(sf_dir: str):
    """Mann-Kendall trend statistic per user over the DAILY value
    series: S = Σ_{i<j} sign(v_j − v_i) across day pairs (exact integer
    — the classic non-parametric monotone-trend test statistic), with
    the day count. The daily series is bounded (≤ the date span), so
    the O(days²) pairwise sign sum is a per-user vectorized triangle
    inside ONE keyed exchange — pre-folded per (user, day) by a
    per-block combiner so what shuffles is days-per-user-sized, never
    event-sized."""
    ds = _events(sf_dir, columns=["user_id", "ts", "value"])

    def day_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {
                "user_id": pdf["user_id"].to_numpy(np.int64),
                "d": pdf["ts"].dt.floor("D").astype("int64"),
                "v": _cents(pdf["value"]).to_numpy(np.int64),
            }
        )
        return tmp.groupby(["user_id", "d"], sort=False, as_index=False)[
            "v"
        ].sum()

    def mk_fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(["user_id", "d"], sort=False, as_index=False)[
            "v"
        ].sum()
        rows = []
        for uid, sub in g.groupby("user_id", sort=False):
            v = sub.sort_values("d")["v"].to_numpy(np.int64)
            n = len(v)
            diff = np.sign(v[None, :] - v[:, None])
            s = int(diff[np.triu_indices(n, k=1)].sum())
            rows.append((int(uid), np.int64(s), np.int64(n)))
        return pd.DataFrame(rows, columns=["user_id", "s_stat", "n_days"])

    out = keyed_partition_map(
        ds.map_batches(day_partial, batch_format="pandas", batch_size=None),
        keys=["user_id"],
        order_col="d",
        fn=mk_fn,
        num_partitions=NP,
    ).to_pandas()  # one row per user
    for c in ("user_id", "s_stat", "n_days"):
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


QUERIES["user_trend_mk"] = q_user_trend_mk

ORACLE_SQL["user_trend_mk"] = """
    WITH daily AS (
      SELECT user_id, date_trunc('day', ts) AS d,
             CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS v
      FROM events GROUP BY 1, 2),
    pairs AS (
      SELECT a.user_id,
             CAST(sum(CASE WHEN b.v > a.v THEN 1
                           WHEN b.v < a.v THEN -1 ELSE 0 END)
                  AS BIGINT) AS s_stat
      FROM daily a JOIN daily b
        ON b.user_id = a.user_id AND b.d > a.d
      GROUP BY 1),
    nd AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_days
           FROM daily GROUP BY 1)
    SELECT nd.user_id, CAST(COALESCE(p.s_stat, 0) AS BIGINT) AS s_stat,
           nd.n_days
    FROM nd LEFT JOIN pairs p ON p.user_id = nd.user_id
    ORDER BY nd.user_id
"""


def q_effective_diameter(sf_dir: str):
    """90%-effective diameter of the mirrored interaction graph from
    the exact neighborhood function (stages/neighborhood.py): the
    smallest h ≤ 4 with 10·N(h) ≥ 9·N(4) — integer-exact comparison,
    no float interpolation, so the recursive-CTE oracle matches
    bit-for-bit. One extra scalar fold over neighborhood_growth's
    Pregel sketch loop."""
    from arlas_proc_ray.stages.neighborhood import neighborhood_function

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    nf = neighborhood_function(
        edges, src_col="src", dst_col="dst", max_hops=4, mode="exact",
        num_partitions=NP,
    )
    total = int(nf["pairs"].iloc[-1])
    ok = nf[10 * nf["pairs"] >= 9 * total]
    d90 = int(ok["hops"].iloc[0])
    return pd.DataFrame(
        {
            "d90": np.array([d90], dtype=np.int64),
            "pairs_total": np.array([total], dtype=np.int64),
        }
    )


QUERIES["effective_diameter"] = q_effective_diameter

ORACLE_SQL["effective_diameter"] = """
    WITH RECURSIVE pw AS (
      SELECT DISTINCT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t
      FROM events),
    edges AS (SELECT u AS src, t AS dst FROM pw
              UNION SELECT t, u FROM pw),
    nodes AS (SELECT src AS node FROM edges
              UNION SELECT dst FROM edges),
    reach(src, node, h) AS (
      SELECT node, node, 0 FROM nodes
      UNION
      SELECT r.src, e.dst, r.h + 1
      FROM reach r JOIN edges e ON e.src = r.node
      WHERE r.h < 4),
    md AS (SELECT src, node, min(h) AS d FROM reach GROUP BY 1, 2),
    nf AS (SELECT hops, CAST(count(*) AS BIGINT) AS pairs
           FROM (SELECT * FROM (VALUES (0),(1),(2),(3),(4)) AS t(hops)) hs
           JOIN md ON md.d <= hs.hops GROUP BY hops),
    tot AS (SELECT pairs AS total FROM nf WHERE hops = 4)
    SELECT CAST(min(hops) AS BIGINT) AS d90,
           CAST(min(total) AS BIGINT) AS pairs_total
    FROM nf, tot WHERE 10 * pairs >= 9 * total
"""


def q_covered_time_per_user(sf_dir: str):
    """Interval-union coverage per user: each event opens a 5-minute
    activity window [ts, ts+300s); overlapping windows merge, and the
    answer is each user's TOTAL covered seconds and merged-interval
    count — the classic sweep-line interval union, per key. Inside one
    keyed exchange the sweep is vectorized across each user's sorted
    events (gap = max(0, next_start − current_end) in exact µs); the
    SQL oracle expresses the same sweep with a window max of running
    interval ends. Integer µs end-to-end — no float time arithmetic."""
    W_US = 300 * 10**6  # 5 minutes in µs

    ds = _events(sf_dir, columns=["user_id", "ts"])

    def cover_fn(pdf: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for uid, sub in pdf.groupby("user_id", sort=False):
            s = np.sort(sub["ts"].astype("int64").to_numpy())
            e = s + W_US
            # merged coverage: sum of window, minus overlaps with the
            # running max end (the sweep line)
            run_end = np.maximum.accumulate(e)
            prev_end = np.concatenate([[np.int64(-(2**62))], run_end[:-1]])
            overlap = np.minimum(e, np.maximum(prev_end, s)) - s
            covered = int((e - s - np.maximum(overlap, 0)).sum())
            n_intervals = int((s > prev_end).sum())
            rows.append((int(uid), covered // 10**6, n_intervals))
        return pd.DataFrame(
            rows, columns=["user_id", "covered_s", "n_intervals"]
        )

    out = keyed_partition_map(
        ds,
        keys=["user_id"],
        order_col="ts",
        fn=cover_fn,
        num_partitions=NP,
    ).to_pandas()
    for c in ("user_id", "covered_s", "n_intervals"):
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


QUERIES["covered_time_per_user"] = q_covered_time_per_user

ORACLE_SQL["covered_time_per_user"] = """
    WITH iv AS (
      SELECT user_id,
             CAST(epoch_us(ts) AS BIGINT) AS s,
             CAST(epoch_us(ts) AS BIGINT) + 300000000 AS e
      FROM events),
    sw AS (
      SELECT user_id, s, e,
             max(e) OVER (PARTITION BY user_id ORDER BY s, e
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING) AS prev_end
      FROM iv)
    SELECT user_id,
           CAST(sum(e - s - GREATEST(
                  LEAST(e, GREATEST(COALESCE(prev_end, -4611686018427387904),
                                    s)) - s, 0)) // 1000000 AS BIGINT)
             AS covered_s,
           CAST(sum(CASE WHEN prev_end IS NULL OR s > prev_end
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_intervals
    FROM sw GROUP BY user_id ORDER BY user_id
"""


def q_weighted_median_price(sf_dir: str):
    """Exact weighted median of l_extendedprice per l_returnflag,
    weighted by quantity: the smallest price where twice the running
    weight reaches the group total (2·cumw ≥ totw — the integer lower
    weighted median, no float halves). Per-block combiner pre-folds
    (flag, price) weight cells — the shuffle moves distinct-price cells
    per flag, never lineitem rows; the in-partition finalize is one
    sorted cumsum per flag. Exact quantity-cents weights and price
    cents on both sides."""
    ds = _rp(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_quantity"],
    )

    def cell_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {
                "flag": pdf["l_returnflag"].to_numpy(),
                "price_c": _cents(pdf["l_extendedprice"]).to_numpy(np.int64),
                "w": _cents(pdf["l_quantity"]).to_numpy(np.int64),
            }
        )
        return tmp.groupby(["flag", "price_c"], sort=False, as_index=False)[
            "w"
        ].sum()

    def median_fn(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(["flag", "price_c"], sort=False, as_index=False)[
            "w"
        ].sum()
        rows = []
        for flag, sub in g.groupby("flag", sort=False):
            sub = sub.sort_values("price_c")
            cw = sub["w"].cumsum().to_numpy(np.int64)
            tot = int(cw[-1])
            i = int(np.searchsorted(2 * cw, tot))
            rows.append((flag, int(sub["price_c"].iloc[i]), tot))
        return pd.DataFrame(
            rows, columns=["l_returnflag", "median_price_c", "total_w"]
        )

    out = keyed_partition_map(
        ds.map_batches(cell_partial, batch_format="pandas", batch_size=None),
        keys=["flag"],
        order_col="price_c",
        fn=median_fn,
        num_partitions=NP,
    ).to_pandas()
    out["median_price_c"] = out["median_price_c"].astype("int64")
    out["total_w"] = out["total_w"].astype("int64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


QUERIES["weighted_median_price"] = q_weighted_median_price

ORACLE_SQL["weighted_median_price"] = """
    WITH cells AS (
      SELECT l_returnflag AS flag,
             CAST(round(l_extendedprice * 100) AS BIGINT) AS price_c,
             CAST(sum(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT)
               AS w
      FROM lineitem GROUP BY 1, 2),
    cum AS (
      SELECT flag, price_c,
             sum(w) OVER (PARTITION BY flag ORDER BY price_c) AS cw,
             sum(w) OVER (PARTITION BY flag) AS tot
      FROM cells)
    SELECT flag AS l_returnflag,
           CAST(min(price_c) AS BIGINT) AS median_price_c,
           CAST(min(tot) AS BIGINT) AS total_w
    FROM cum WHERE 2 * cw >= tot
    GROUP BY flag ORDER BY flag
"""


def q_value_ks_drift(sf_dir: str):
    """Exact two-sample Kolmogorov-Smirnov statistic between every pair
    of event types' value distributions — the classic drift detector
    between data slices. Cross-multiplied form: D_num = max over the
    value support of |cumA·nB − cumB·nA| (exact integers; the float
    D = D_num/(nA·nB) is ONE division, identical on both sides).

    Scale shape: values collapse to (type, value-cent, count) cells in
    a per-block combiner — the driver fold is SUPPORT-sized (distinct
    cents × 5 types, bounded by the value domain, the same small-side
    contract as the histogram family), never event-sized; cumulative
    curves and the 10 pairwise maxima are one numpy pass."""
    ds = _events(sf_dir, columns=["event_type", "value"])

    def cell_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {
                "t": pdf["event_type"].to_numpy(),
                "v": _cents(pdf["value"]).to_numpy(np.int64),
                "c": np.ones(len(pdf), dtype=np.int64),
            }
        )
        return tmp.groupby(["t", "v"], sort=False, as_index=False)["c"].sum()

    cells = (
        ds.map_batches(cell_partial, batch_format="pandas", batch_size=None)
        .to_pandas()  # ≤ blocks × (support × types): support-sized
        .groupby(["t", "v"], as_index=False)["c"]
        .sum()
    )
    support = np.sort(cells["v"].unique())
    types = sorted(cells["t"].unique())
    cum = {}
    n = {}
    for t in types:
        sub = cells[cells["t"] == t].sort_values("v")
        idx = np.searchsorted(support, sub["v"].to_numpy())
        arr = np.zeros(len(support), dtype=np.int64)
        arr[idx] = sub["c"].to_numpy(np.int64)
        cum[t] = np.cumsum(arr)
        n[t] = int(cum[t][-1])
    rows = []
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            d_num = int(np.abs(cum[a] * n[b] - cum[b] * n[a]).max())
            rows.append(
                (a, b, d_num, n[a], n[b], d_num / (n[a] * n[b]))
            )
    out = pd.DataFrame(
        rows, columns=["type_a", "type_b", "d_num", "n_a", "n_b", "ks"]
    )
    for c in ("d_num", "n_a", "n_b"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


QUERIES["value_ks_drift"] = q_value_ks_drift

ORACLE_SQL["value_ks_drift"] = """
    WITH cells AS (
      SELECT event_type AS t,
             CAST(round(value * 100) AS BIGINT) AS v,
             CAST(count(*) AS BIGINT) AS c
      FROM events GROUP BY 1, 2),
    grid AS (
      SELECT s.v, tt.t
      FROM (SELECT DISTINCT v FROM cells) s
      CROSS JOIN (SELECT DISTINCT t FROM cells) tt),
    cum AS (
      SELECT g.v, g.t,
             sum(COALESCE(c.c, 0))
               OVER (PARTITION BY g.t ORDER BY g.v) AS cc
      FROM grid g LEFT JOIN cells c ON c.t = g.t AND c.v = g.v),
    tot AS (SELECT t, CAST(sum(c) AS BIGINT) AS n FROM cells GROUP BY 1)
    SELECT a.t AS type_a, b.t AS type_b,
           CAST(max(abs(a.cc * tb.n - b.cc * ta.n)) AS BIGINT) AS d_num,
           CAST(min(ta.n) AS BIGINT) AS n_a,
           CAST(min(tb.n) AS BIGINT) AS n_b,
           CAST(max(abs(a.cc * tb.n - b.cc * ta.n)) AS BIGINT)
             / (min(ta.n) * min(tb.n)) AS ks
    FROM cum a
    JOIN cum b ON b.v = a.v AND a.t < b.t
    JOIN tot ta ON ta.t = a.t
    JOIN tot tb ON tb.t = b.t
    GROUP BY a.t, b.t
    ORDER BY type_a, type_b
"""


def q_user_ols_slope(sf_dir: str):
    """Exact per-user OLS trend slope over the daily value series:
    x = epoch day, y = daily value cents; slope = (n·Σxy − Σx·Σy) /
    (n·Σx² − (Σx)²) emitted as EXACT int64 numerator/denominator plus
    the one-division float. All five moments are SUMS, so the whole
    statistic is a per-block combiner over (user, day) cells followed
    by one entity-sized fold — no sort, no window, repartition-
    invariant. Single-day users report 0/0 with slope NULL."""
    ds = _events(sf_dir, columns=["user_id", "ts", "value"])

    def day_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {
                "user_id": pdf["user_id"].to_numpy(np.int64),
                "x": (
                    pdf["ts"].dt.floor("D").astype("int64")
                    // (86_400 * 10**6)
                ).to_numpy(np.int64),
                "y": _cents(pdf["value"]).to_numpy(np.int64),
            }
        )
        return tmp.groupby(["user_id", "x"], sort=False, as_index=False)[
            "y"
        ].sum()

    cells = (
        ds.map_batches(day_partial, batch_format="pandas", batch_size=None)
        .to_pandas()  # ≤ blocks × (users × days): entity-sized cells
        .groupby(["user_id", "x"], as_index=False)["y"]
        .sum()
    )
    g = cells.assign(
        n=np.int64(1),
        sx=cells["x"],
        sy=cells["y"],
        sxy=cells["x"] * cells["y"],
        sxx=cells["x"] * cells["x"],
    ).groupby("user_id", as_index=False)[["n", "sx", "sy", "sxy", "sxx"]].sum()
    num = g["n"] * g["sxy"] - g["sx"] * g["sy"]
    den = g["n"] * g["sxx"] - g["sx"] * g["sx"]
    out = pd.DataFrame(
        {
            "user_id": g["user_id"].astype("int64"),
            "slope_num": num.astype("int64"),
            "slope_den": den.astype("int64"),
            "slope": np.where(
                den.to_numpy() != 0,
                num.to_numpy(np.float64) / np.where(
                    den.to_numpy() != 0, den.to_numpy(np.float64), 1.0
                ),
                np.nan,
            ),
        }
    )
    return out.sort_values("user_id").reset_index(drop=True)


QUERIES["user_ols_slope"] = q_user_ols_slope

ORACLE_SQL["user_ols_slope"] = """
    WITH daily AS (
      SELECT user_id,
             CAST(epoch_us(date_trunc('day', ts)) // 86400000000 AS BIGINT)
               AS x,
             CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS y
      FROM events GROUP BY 1, 2),
    m AS (
      SELECT user_id, CAST(count(*) AS BIGINT) AS n,
             CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
             CAST(sum(x * y) AS BIGINT) AS sxy,
             CAST(sum(x * x) AS BIGINT) AS sxx
      FROM daily GROUP BY 1)
    SELECT user_id,
           CAST(n * sxy - sx * sy AS BIGINT) AS slope_num,
           CAST(n * sxx - sx * sx AS BIGINT) AS slope_den,
           CASE WHEN n * sxx - sx * sx <> 0
                THEN CAST(n * sxy - sx * sy AS DOUBLE)
                     / CAST(n * sxx - sx * sx AS DOUBLE)
                ELSE NULL END AS slope
    FROM m ORDER BY user_id
"""


def q_influence_cone(sf_dir: str):
    """Temporal earliest-arrival reachability (influence cone) from the
    smallest user over the timestamped user↔type interaction graph:
    an edge is traversable only at-or-after the traverser's arrival
    (time-respecting paths — stages/graph.py:earliest_arrival_exchange
    on the resident-edge Pregel kit). 4 fixed rounds on both sides make
    the chained-CTE oracle bit-exact; arrivals are exact int64 µs."""
    from arlas_proc_ray.stages.graph import earliest_arrival_exchange

    ds = _events(sf_dir, columns=["user_id", "event_type", "ts"])
    root = int(ds.min("user_id"))

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        ts = pdf["ts"].astype("int64")
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
                "ts": pd.concat([ts, ts], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    return (
        earliest_arrival_exchange(
            edges, src_col="src", dst_col="dst", ts_col="ts",
            sources=[f"u:{root}"], start_ts=0, rounds=4,
            num_partitions=NP,
        )
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )


QUERIES["influence_cone"] = q_influence_cone


def _influence_oracle(rounds: int = 4) -> str:
    sql = """
    WITH roots AS (SELECT min(user_id) AS r FROM events),
    pw AS (
      SELECT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t,
             CAST(epoch_us(ts) AS BIGINT) AS ts
      FROM events),
    edges AS (SELECT u AS src, t AS dst, ts FROM pw
              UNION ALL SELECT t, u, ts FROM pw),
    a0 AS (SELECT 'u:' || CAST(r AS VARCHAR) AS node,
                  CAST(0 AS BIGINT) AS arr
           FROM roots)"""
    prev = "a0"
    for i in range(1, rounds + 1):
        sql += f""",
    c{i} AS (SELECT e.dst AS node, min(e.ts) AS arr
             FROM edges e JOIN {prev} s
               ON s.node = e.src AND e.ts >= s.arr
             GROUP BY 1),
    a{i} AS (SELECT node, CAST(min(arr) AS BIGINT) AS arr FROM (
               SELECT node, arr FROM {prev}
               UNION ALL SELECT node, arr FROM c{i})
             GROUP BY 1)"""
        prev = f"a{i}"
    sql += f"""
    SELECT node, arr AS arrival FROM {prev} ORDER BY node
"""
    return sql


ORACLE_SQL["influence_cone"] = _influence_oracle()


def q_peak_concurrency(sf_dir: str):
    """Global peak concurrency via a distributed sweep-line: every event
    opens a 5-minute window [ts, ts+300s); the answer is the maximum
    number of simultaneously-open windows and the earliest µs instant
    achieving it. Each event emits a +1 delta at the open and a -1 at
    the close; deltas are run through the bucketed two-pass
    global_cumsum (stages/scan.py — no global sort, no materialize) over
    the composite order key ord = instant·2 + is_open, which makes
    closes sort BEFORE opens at the same instant (half-open interval
    semantics, int64-exact). Tie runs share one ord and one sign, so
    intra-run cumsum order is irrelevant to the max: +1-run
    intermediates are strictly below the run final, -1-run
    intermediates are strictly below the preceding row's value. The
    per-block max/argmin partial folds to two ints on the driver."""
    from arlas_proc_ray.stages.scan import global_cumsum

    W_US = 300 * 10**6

    ds = _events(sf_dir, columns=["ts"])

    def deltas(pdf: pd.DataFrame) -> pd.DataFrame:
        t = pdf["ts"].astype("int64").to_numpy()
        return pd.DataFrame(
            {
                "ord": np.concatenate([t * 2 + 1, (t + W_US) * 2]),
                "delta": np.concatenate(
                    [
                        np.ones(len(t), dtype=np.int64),
                        -np.ones(len(t), dtype=np.int64),
                    ]
                ),
            }
        )

    cc = global_cumsum(
        ds.map_batches(deltas, batch_format="pandas", batch_size=None),
        order_col="ord",
        value_col="delta",
        target="cc",
        num_partitions=NP,
    )

    def block_peak(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty:
            return pd.DataFrame({"peak": pd.Series([], dtype="int64"),
                                 "at_ord": pd.Series([], dtype="int64")})
        v = pdf["cc"].to_numpy(np.int64)
        m = int(v.max())
        at = int(pdf["ord"].to_numpy(np.int64)[v == m].min())
        return pd.DataFrame({"peak": [m], "at_ord": [at]})

    parts = cc.map_batches(
        block_peak, batch_format="pandas", batch_size=None
    ).to_pandas()
    peak = int(parts["peak"].max())
    at_us = int(parts.loc[parts["peak"] == peak, "at_ord"].min()) // 2
    return pd.DataFrame({"peak": [peak], "at_us": [at_us]}).astype("int64")


QUERIES["peak_concurrency"] = q_peak_concurrency

ORACLE_SQL["peak_concurrency"] = """
    WITH ev AS (SELECT CAST(epoch_us(ts) AS BIGINT) AS t FROM events),
    d AS (SELECT t * 2 + 1 AS ord, 1 AS delta FROM ev
          UNION ALL
          SELECT (t + 300000000) * 2 AS ord, -1 AS delta FROM ev),
    cc AS (SELECT ord,
                  sum(delta) OVER (ORDER BY ord) AS cc
           FROM d),
    m AS (SELECT max(cc) AS peak FROM cc)
    SELECT CAST(m.peak AS BIGINT) AS peak,
           CAST(min(cc.ord) // 2 AS BIGINT) AS at_us
    FROM cc, m WHERE cc.cc = m.peak GROUP BY m.peak
"""


def q_value_bars_ohlc(sf_dir: str):
    """OHLC bars per (user, day): open/close are the value at the first/
    last event of the day (deterministic (ts, event_id) tie-break),
    high/low the extremes, vol the exact-cents sum. The per-block
    combiner collapses each (user, day) slice of a block to ONE partial
    row carrying both endpoint candidates ((ts, event_id, value) argmin
    and argmax) plus the mergeable extremes; the exchange moves
    bar-sized partials, never events, and the finalize re-elects
    endpoints by the same lexicographic rule."""
    ds = _events(
        sf_dir, columns=["user_id", "event_id", "ts", "value"]
    )
    DAY_US = 86_400_000_000

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        t = pdf["ts"].astype("int64").to_numpy()
        df = pd.DataFrame(
            {
                "user_id": pdf["user_id"].to_numpy(np.int64),
                "day": t // DAY_US,
                "t": t,
                "eid": pdf["event_id"].to_numpy(np.int64),
                "v": _cents(pdf["value"]).to_numpy(np.int64),
            }
        )
        df = df.sort_values(["user_id", "day", "t", "eid"], kind="stable")
        g = df.groupby(["user_id", "day"], sort=False)
        first = g.nth(0)
        last = g.nth(-1)
        agg = g.agg(
            high_c=("v", "max"), low_c=("v", "min"),
            vol_c=("v", "sum"), n=("v", "size"),
        ).reset_index()
        agg["o_t"] = first["t"].to_numpy()
        agg["o_eid"] = first["eid"].to_numpy()
        agg["open_c"] = first["v"].to_numpy()
        agg["c_t"] = last["t"].to_numpy()
        agg["c_eid"] = last["eid"].to_numpy()
        agg["close_c"] = last["v"].to_numpy()
        return agg

    def finalize(pdf: pd.DataFrame) -> pd.DataFrame:
        a = pdf.sort_values(
            ["user_id", "day", "o_t", "o_eid"], kind="stable"
        ).groupby(["user_id", "day"], sort=False)
        z = pdf.sort_values(
            ["user_id", "day", "c_t", "c_eid"], kind="stable"
        ).groupby(["user_id", "day"], sort=False)
        # sort=True everywhere so all three groupbys enumerate (user, day)
        # groups in the same (sorted) order — nth() outputs align by row
        agg = pdf.groupby(["user_id", "day"], sort=True).agg(
            high_c=("high_c", "max"), low_c=("low_c", "min"),
            vol_c=("vol_c", "sum"), n=("n", "sum"),
        ).reset_index()
        agg["open_c"] = a["open_c"].nth(0).to_numpy()
        agg["close_c"] = z["close_c"].nth(-1).to_numpy()
        return agg[
            ["user_id", "day", "open_c", "high_c", "low_c",
             "close_c", "vol_c", "n"]
        ]

    out = keyed_partition_map(
        ds.map_batches(partial, batch_format="pandas", batch_size=None),
        keys=["user_id"],
        order_col="day",
        fn=finalize,
        num_partitions=NP,
    ).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["user_id", "day"]).reset_index(drop=True)


QUERIES["value_bars_ohlc"] = q_value_bars_ohlc

ORACLE_SQL["value_bars_ohlc"] = """
    WITH b AS (
      SELECT user_id, event_id,
             CAST(epoch_us(ts) AS BIGINT) AS t,
             CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day,
             CAST(round(value * 100) AS BIGINT) AS v
      FROM events),
    r AS (
      SELECT *,
             row_number() OVER (PARTITION BY user_id, day
                                ORDER BY t, event_id) AS rn_a,
             row_number() OVER (PARTITION BY user_id, day
                                ORDER BY t DESC, event_id DESC) AS rn_d
      FROM b)
    SELECT user_id, day,
           CAST(max(CASE WHEN rn_a = 1 THEN v END) AS BIGINT) AS open_c,
           CAST(max(v) AS BIGINT) AS high_c,
           CAST(min(v) AS BIGINT) AS low_c,
           CAST(max(CASE WHEN rn_d = 1 THEN v END) AS BIGINT) AS close_c,
           CAST(sum(v) AS BIGINT) AS vol_c,
           CAST(count(*) AS BIGINT) AS n
    FROM r GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_mad_value(sf_dir: str):
    """Exact median absolute deviation of value-cents per event_type —
    the CELL-COUNT plan twin of ``value_mad_by_type`` (same statistic,
    different exchange contract: that query ships raw events through
    one keyed exchange and sorts in-partition; this one pre-folds
    (type, value) distinct-value cells inside map_batches so the
    exchanges move |distinct values| rows — the right plan when values
    repeat heavily at scale): two passes of
    the integer lower median (smallest x with 2·cum ≥ tot — the same
    rule as weighted_median_price), the second over |v − median|.
    Each pass pre-folds (type, value) count cells inside map_batches,
    so both exchanges move distinct-value cells per type, never events;
    the pass-1 medians are an event-type-sized dict captured into the
    pass-2 combiner (broadcast by closure — type cardinality is tiny by
    contract). Integer cents end-to-end."""
    ds = _events(sf_dir, columns=["event_type", "value"])

    def cells(pdf: pd.DataFrame, value_np: np.ndarray) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {"event_type": pdf["event_type"].to_numpy(), "v": value_np}
        )
        g = tmp.groupby(["event_type", "v"], sort=False).size()
        out = g.reset_index()
        out.columns = ["event_type", "v", "cnt"]
        return out

    def lower_median(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(["event_type", "v"], sort=False, as_index=False)[
            "cnt"
        ].sum()
        rows = []
        for et, sub in g.groupby("event_type", sort=False):
            sub = sub.sort_values("v")
            cw = sub["cnt"].cumsum().to_numpy(np.int64)
            i = int(np.searchsorted(2 * cw, int(cw[-1])))
            rows.append((et, int(sub["v"].iloc[i])))
        return pd.DataFrame(rows, columns=["event_type", "med"])

    def median_of(mk_value) -> pd.DataFrame:
        return (
            keyed_partition_map(
                ds.map_batches(
                    lambda pdf: cells(pdf, mk_value(pdf)),
                    batch_format="pandas",
                    batch_size=None,
                ),
                keys=["event_type"],
                order_col="v",
                fn=lower_median,
                num_partitions=NP,
            )
            .to_pandas()
            .sort_values("event_type")
            .reset_index(drop=True)
        )

    med1 = median_of(lambda pdf: _cents(pdf["value"]).to_numpy(np.int64))
    meds = dict(zip(med1["event_type"], med1["med"].astype(np.int64)))

    def abs_dev(pdf: pd.DataFrame) -> np.ndarray:
        m = pdf["event_type"].map(meds).to_numpy(np.int64)
        return np.abs(_cents(pdf["value"]).to_numpy(np.int64) - m)

    med2 = median_of(abs_dev).rename(columns={"med": "mad_c"})
    out = med1.rename(columns={"med": "median_c"}).merge(
        med2, on="event_type"
    )
    out["median_c"] = out["median_c"].astype("int64")
    out["mad_c"] = out["mad_c"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


QUERIES["mad_value"] = q_mad_value

ORACLE_SQL["mad_value"] = """
    WITH v AS (SELECT event_type,
                      CAST(round(value * 100) AS BIGINT) AS v
               FROM events),
    c1 AS (SELECT event_type, v, count(*) AS cnt FROM v GROUP BY 1, 2),
    w1 AS (SELECT event_type, v,
                  sum(cnt) OVER (PARTITION BY event_type ORDER BY v) AS cw,
                  sum(cnt) OVER (PARTITION BY event_type) AS tot
           FROM c1),
    med AS (SELECT event_type, CAST(min(v) AS BIGINT) AS median_c
            FROM w1 WHERE 2 * cw >= tot GROUP BY 1),
    a AS (SELECT v.event_type, abs(v.v - med.median_c) AS av
          FROM v JOIN med USING (event_type)),
    c2 AS (SELECT event_type, av, count(*) AS cnt FROM a GROUP BY 1, 2),
    w2 AS (SELECT event_type, av,
                  sum(cnt) OVER (PARTITION BY event_type ORDER BY av) AS cw,
                  sum(cnt) OVER (PARTITION BY event_type) AS tot
           FROM c2),
    mad AS (SELECT event_type, CAST(min(av) AS BIGINT) AS mad_c
            FROM w2 WHERE 2 * cw >= tot GROUP BY 1)
    SELECT event_type, median_c, mad_c
    FROM med JOIN mad USING (event_type) ORDER BY event_type
"""


def q_user_max_drawdown(sf_dir: str):
    """Maximum drawdown per user over the cumulative value-cents curve
    in (ts, event_id) order: drawdown at t = running-max − running-sum;
    the answer is each user's deepest drawdown and the peak it fell
    from. Classic per-key scan — one keyed exchange, then a vectorized
    cumsum/cummax per user inside the partition (exact int64 cents; ties
    are impossible because event_id is unique)."""
    ds = _events(sf_dir, columns=["user_id", "event_id", "ts", "value"])

    def dd_fn(pdf: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "user_id": pdf["user_id"].to_numpy(np.int64),
                "t": pdf["ts"].astype("int64").to_numpy(),
                "eid": pdf["event_id"].to_numpy(np.int64),
                "v": _cents(pdf["value"]).to_numpy(np.int64),
            }
        ).sort_values(["user_id", "t", "eid"], kind="stable")
        g = df.groupby("user_id", sort=False)["v"]
        run = g.cumsum().to_numpy(np.int64)
        df["_run"] = run
        peak = df.groupby("user_id", sort=False)["_run"].cummax().to_numpy(
            np.int64
        )
        df["_dd"] = peak - run
        df["_peak"] = peak
        out = df.groupby("user_id", sort=False).agg(
            max_drawdown_c=("_dd", "max"), peak_c=("_peak", "max")
        ).reset_index()
        return out

    out = keyed_partition_map(
        ds,
        keys=["user_id"],
        order_col="ts",
        fn=dd_fn,
        num_partitions=NP,
    ).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


QUERIES["user_max_drawdown"] = q_user_max_drawdown

ORACLE_SQL["user_max_drawdown"] = """
    WITH b AS (SELECT user_id, event_id,
                      CAST(epoch_us(ts) AS BIGINT) AS t,
                      CAST(round(value * 100) AS BIGINT) AS v
               FROM events),
    r AS (SELECT user_id,
                 sum(v) OVER (PARTITION BY user_id ORDER BY t, event_id
                              ROWS UNBOUNDED PRECEDING) AS run
          FROM b)
    SELECT user_id,
           CAST(max(peak - run) AS BIGINT) AS max_drawdown_c,
           CAST(max(peak) AS BIGINT) AS peak_c
    FROM (SELECT user_id, run,
                 max(run) OVER (PARTITION BY user_id
                                ROWS UNBOUNDED PRECEDING) AS peak
          FROM r)
    GROUP BY user_id ORDER BY user_id
"""


def q_interarrival_stats(sf_dir: str):
    """Inter-arrival gap statistics per user (burstiness profile): the
    count, min, max, and exact lower-median of the µs gaps between
    consecutive events in (ts, event_id) order. One keyed exchange;
    gaps + median are vectorized per user inside the partition (sorted
    diff + one index pick — the (n−1)//2-th order statistic, identical
    to the SQL 2·rank ≥ n rule). Users with fewer than two events are
    absent by definition."""
    ds = _events(sf_dir, columns=["user_id", "event_id", "ts"])

    def gaps_fn(pdf: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "user_id": pdf["user_id"].to_numpy(np.int64),
                "t": pdf["ts"].astype("int64").to_numpy(),
                "eid": pdf["event_id"].to_numpy(np.int64),
            }
        ).sort_values(["user_id", "t", "eid"], kind="stable")
        rows = []
        for uid, sub in df.groupby("user_id", sort=False):
            t = sub["t"].to_numpy(np.int64)
            if len(t) < 2:
                continue
            g = np.sort(np.diff(t))
            rows.append(
                (
                    int(uid), len(g), int(g[0]), int(g[-1]),
                    int(g[(len(g) - 1) // 2]),
                )
            )
        return pd.DataFrame(
            rows,
            columns=[
                "user_id", "n_gaps", "min_gap_us", "max_gap_us",
                "median_gap_us",
            ],
        )

    out = keyed_partition_map(
        ds,
        keys=["user_id"],
        order_col="ts",
        fn=gaps_fn,
        num_partitions=NP,
    ).to_pandas()
    cols = ["user_id", "n_gaps", "min_gap_us", "max_gap_us", "median_gap_us"]
    if out.empty:  # every user has < 2 events (SQL: 0 rows)
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


QUERIES["interarrival_stats"] = q_interarrival_stats

ORACLE_SQL["interarrival_stats"] = """
    WITH b AS (SELECT user_id, event_id,
                      CAST(epoch_us(ts) AS BIGINT) AS t
               FROM events),
    g AS (SELECT user_id,
                 t - lag(t) OVER (PARTITION BY user_id
                                  ORDER BY t, event_id) AS gap
          FROM b),
    gg AS (SELECT user_id, gap,
                  row_number() OVER (PARTITION BY user_id
                                     ORDER BY gap) AS rn,
                  count(*) OVER (PARTITION BY user_id) AS n
           FROM g WHERE gap IS NOT NULL)
    SELECT user_id,
           CAST(count(*) AS BIGINT) AS n_gaps,
           CAST(min(gap) AS BIGINT) AS min_gap_us,
           CAST(max(gap) AS BIGINT) AS max_gap_us,
           CAST(min(gap) FILTER (WHERE 2 * rn >= n) AS BIGINT)
             AS median_gap_us
    FROM gg GROUP BY user_id ORDER BY user_id
"""


def q_activity_streaks(sf_dir: str):
    """Gaps-and-islands per user: the longest run of CONSECUTIVE active
    days (and the day it starts, earliest on ties) plus the distinct
    active-day count. The classic sessionization-adjacent scan shape:
    each block pre-folds to distinct (user, day) pairs inside
    map_batches (the combiner — exchange volume is user-day pairs, not
    events), one keyed exchange on user, then a vectorized island
    split (diff > 1 on the sorted unique day vector) per user."""
    ds = _events(sf_dir, columns=["user_id", "ts"])
    DAY_US = 86_400_000_000

    def pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "user_id": pdf["user_id"].to_numpy(np.int64),
                "day": pdf["ts"].astype("int64").to_numpy() // DAY_US,
            }
        )
        return out.drop_duplicates()

    def streaks(pdf: pd.DataFrame) -> pd.DataFrame:
        df = pdf.drop_duplicates().sort_values(["user_id", "day"])
        u = df["user_id"].to_numpy(np.int64)
        d = df["day"].to_numpy(np.int64)
        # island starts: first row, user change, or day gap > 1
        brk = np.ones(len(d), dtype=bool)
        if len(d) > 1:
            brk[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1] + 1)
        isl = np.cumsum(brk) - 1
        g = pd.DataFrame({"user_id": u, "isl": isl, "day": d}).groupby(
            ["user_id", "isl"], sort=False
        )["day"]
        s = g.agg(["size", "min"]).reset_index()
        s.columns = ["user_id", "isl", "len", "start"]
        gg = s.groupby("user_id", sort=False)
        out = gg.agg(
            n_active_days=("len", "sum"), longest_streak=("len", "max")
        ).reset_index()
        mx = s.merge(
            out[["user_id", "longest_streak"]], on="user_id"
        )
        mx = mx[mx["len"] == mx["longest_streak"]]
        out = out.merge(
            mx.groupby("user_id", sort=False)["start"]
            .min()
            .rename("streak_start_day")
            .reset_index(),
            on="user_id",
        )
        return out

    out = keyed_partition_map(
        ds.map_batches(pairs, batch_format="pandas", batch_size=None),
        keys=["user_id"],
        order_col="day",
        fn=streaks,
        num_partitions=NP,
    ).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


QUERIES["activity_streaks"] = q_activity_streaks

ORACLE_SQL["activity_streaks"] = """
    WITH d AS (SELECT DISTINCT user_id,
                      CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day
               FROM events),
    i AS (SELECT user_id, day,
                 day - row_number() OVER (PARTITION BY user_id
                                          ORDER BY day) AS grp
          FROM d),
    s AS (SELECT user_id, count(*) AS len, min(day) AS start
          FROM i GROUP BY user_id, grp),
    sel AS (SELECT user_id, len, start,
                   max(len) OVER (PARTITION BY user_id) AS mx
            FROM s)
    SELECT user_id,
           CAST(sum(len) AS BIGINT) AS n_active_days,
           CAST(max(len) AS BIGINT) AS longest_streak,
           CAST(min(CASE WHEN len = mx THEN start END) AS BIGINT)
             AS streak_start_day
    FROM sel GROUP BY user_id ORDER BY user_id
"""


def q_sliding_distinct_users(sf_dir: str):
    """Exact 7-day sliding DISTINCT-user count per observed day — the
    windowed-cardinality shape that defeats naive groupbys (distinct is
    not mergeable across window positions). Plan: per-block dedup to
    (user, day) pairs (combiner), bounded ×7 fan-out of each pair to
    the window-end days it covers, one keyed exchange on the window-end
    day with a second in-partition dedup, then a size fold. Exchange
    volume is 7 × |user-day pairs| — independent of event count.
    Window ends are restricted to OBSERVED days via a broadcast
    day-set (day cardinality ≪ data by contract)."""
    import ray

    ds = _events(sf_dir, columns=["user_id", "ts"])
    DAY_US = 86_400_000_000
    W = 7

    def pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": pdf["user_id"].to_numpy(np.int64),
                "day": pdf["ts"].astype("int64").to_numpy() // DAY_US,
            }
        ).drop_duplicates()

    dedup = ds.map_batches(pairs, batch_format="pandas", batch_size=None)

    day_parts = dedup.map_batches(
        lambda pdf: pd.DataFrame({"day": pdf["day"].unique()}),
        batch_format="pandas",
        batch_size=None,
    ).to_pandas()
    days_ref = ray.put(np.sort(day_parts["day"].unique().astype(np.int64)))

    def fan_out(pdf: pd.DataFrame) -> pd.DataFrame:
        observed = ray.get(days_ref)
        u = np.repeat(pdf["user_id"].to_numpy(np.int64), W)
        w = (
            np.repeat(pdf["day"].to_numpy(np.int64), W)
            + np.tile(np.arange(W, dtype=np.int64), len(pdf))
        )
        keep = np.isin(w, observed)
        return pd.DataFrame({"w": w[keep], "user_id": u[keep]}).drop_duplicates()

    def count_fn(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.drop_duplicates()
            .groupby("w", sort=False)
            .size()
            .rename("n_users_7d")
            .reset_index()
        )
        out.columns = ["day", "n_users_7d"]
        return out

    out = keyed_partition_map(
        dedup.map_batches(fan_out, batch_format="pandas", batch_size=None),
        keys=["w"],
        order_col="user_id",
        fn=count_fn,
        num_partitions=NP,
    ).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("day").reset_index(drop=True)


QUERIES["sliding_distinct_users"] = q_sliding_distinct_users

ORACLE_SQL["sliding_distinct_users"] = """
    WITH d AS (SELECT DISTINCT user_id,
                      CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day
               FROM events),
    days AS (SELECT DISTINCT day FROM d)
    SELECT days.day,
           CAST(count(DISTINCT d.user_id) AS BIGINT) AS n_users_7d
    FROM days JOIN d ON d.day BETWEEN days.day - 6 AND days.day
    GROUP BY days.day ORDER BY days.day
"""


def q_daily_autocov(sf_dir: str):
    """Lag-1 autocovariance components of the per-type DAILY COUNT
    series, exact int64 end-to-end: for every consecutive observed-day
    pair (d, d+1) of a type, accumulate (x, y) = (count(d), count(d+1))
    into n_pairs / Σx / Σy / Σxy / Σx² / Σy² — the mergeable moment set
    from which covariance and Pearson r are one driver division.
    Per-block (type, day) count partials (combiner), one keyed exchange
    on type, vectorized consecutive-day masking per type. Exchange
    volume is type×day cells, never events."""
    ds = _events(sf_dir, columns=["event_type", "ts"])
    DAY_US = 86_400_000_000

    def cells(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pd.DataFrame(
                {
                    "event_type": pdf["event_type"].to_numpy(),
                    "day": pdf["ts"].astype("int64").to_numpy() // DAY_US,
                }
            )
            .groupby(["event_type", "day"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        return out

    def autocov(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(["event_type", "day"], sort=False, as_index=False)[
            "n"
        ].sum()
        g = g.sort_values(["event_type", "day"])
        et = g["event_type"].to_numpy()
        d = g["day"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        if len(g) < 2:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype=object),
                    **{
                        c: pd.Series([], dtype="int64")
                        for c in ("n_pairs", "sx", "sy", "sxy", "sxx", "syy")
                    },
                }
            )
        m = (et[1:] == et[:-1]) & (d[1:] == d[:-1] + 1)
        x, y = n[:-1][m], n[1:][m]
        out = pd.DataFrame(
            {
                "event_type": et[:-1][m],
                "n_pairs": np.ones(m.sum(), dtype=np.int64),
                "sx": x, "sy": y, "sxy": x * y, "sxx": x * x, "syy": y * y,
            }
        )
        return out.groupby("event_type", sort=False, as_index=False).sum()

    out = keyed_partition_map(
        ds.map_batches(cells, batch_format="pandas", batch_size=None),
        keys=["event_type"],
        order_col="day",
        fn=autocov,
        num_partitions=NP,
    ).to_pandas()
    if out.empty:  # no consecutive-day pair anywhere (SQL: 0 rows)
        return pd.DataFrame(
            {
                "event_type": pd.Series([], dtype=object),
                **{
                    c: pd.Series([], dtype="int64")
                    for c in ("n_pairs", "sx", "sy", "sxy", "sxx", "syy")
                },
            }
        )
    for c in out.columns:
        if c != "event_type":
            out[c] = out[c].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


QUERIES["daily_autocov"] = q_daily_autocov

ORACLE_SQL["daily_autocov"] = """
    WITH c AS (SELECT event_type,
                      CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day,
                      count(*) AS n
               FROM events GROUP BY 1, 2),
    p AS (SELECT a.event_type, a.n AS x, b.n AS y
          FROM c a JOIN c b
            ON a.event_type = b.event_type AND b.day = a.day + 1)
    SELECT event_type,
           CAST(count(*) AS BIGINT) AS n_pairs,
           CAST(sum(x) AS BIGINT) AS sx,
           CAST(sum(y) AS BIGINT) AS sy,
           CAST(sum(x * y) AS BIGINT) AS sxy,
           CAST(sum(x * x) AS BIGINT) AS sxx,
           CAST(sum(y * y) AS BIGINT) AS syy
    FROM p GROUP BY event_type ORDER BY event_type
"""


def q_range_splitters(sf_dir: str):
    """Exact global 16-way range-partition splitters of value-cents —
    the PLANNING step of a balanced range partitioner (what a
    distributed sort samples approximately, computed exactly): splitter
    k (1..15) is the smallest v with 16·cum(v) ≥ k·n. Per-block
    (value, count) cell partials fold inside map_batches; the driver
    merges DISTINCT-VALUE cells (2-decimal data ⇒ cell cardinality is
    price-grid-sized, ≪ events, the same bounded-finalize contract as
    mad_value) and picks all 15 order statistics from one cumsum —
    no global sort, no event ever leaves its block."""
    ds = _events(sf_dir, columns=["value"])
    K = 16

    def cells(pdf: pd.DataFrame) -> pd.DataFrame:
        v = _cents(pdf["value"]).to_numpy(np.int64)
        out = (
            pd.DataFrame({"v": v})
            .groupby("v", sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )
        return out

    parts = ds.map_batches(
        cells, batch_format="pandas", batch_size=None
    ).to_pandas()
    g = parts.groupby("v", as_index=False)["cnt"].sum().sort_values("v")
    v = g["v"].to_numpy(np.int64)
    cw = g["cnt"].to_numpy(np.int64).cumsum()
    n = int(cw[-1])
    ks = np.arange(1, K, dtype=np.int64)
    idx = np.searchsorted(16 * cw, ks * n, side="left")
    return pd.DataFrame(
        {"k": ks, "splitter_c": v[idx].astype(np.int64)}
    )


QUERIES["range_splitters"] = q_range_splitters

ORACLE_SQL["range_splitters"] = """
    WITH v AS (SELECT CAST(round(value * 100) AS BIGINT) AS v FROM events),
    c AS (SELECT v, count(*) AS cnt FROM v GROUP BY v),
    w AS (SELECT v,
                 sum(cnt) OVER (ORDER BY v) AS cw,
                 sum(cnt) OVER () AS tot
          FROM c),
    k AS (SELECT k FROM generate_series(1, 15) t(k))
    SELECT CAST(k.k AS BIGINT) AS k,
           CAST(min(w.v) AS BIGINT) AS splitter_c
    FROM k JOIN w ON 16 * w.cw >= k.k * w.tot
    GROUP BY k.k ORDER BY k.k
"""


def q_weekly_churn(sf_dir: str):
    """Growth accounting over 7-day periods: per period the active-user
    count, the NEW users (not active the previous period) and the
    CHURNED users (active now, gone next period). Per-block dedup to
    distinct (user, period) pairs (combiner), ONE keyed exchange on
    user — each user's period set is then complete in one partition, so
    new/churned flags are a vectorized sorted-membership test — and a
    period-sized partial fold (periods ≪ users ≪ events) merged on the
    driver. The user axis never needs a second exchange."""
    ds = _events(sf_dir, columns=["user_id", "ts"])
    WEEK_US = 7 * 86_400_000_000

    def pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": pdf["user_id"].to_numpy(np.int64),
                "p": pdf["ts"].astype("int64").to_numpy() // WEEK_US,
            }
        ).drop_duplicates()

    def flags(pdf: pd.DataFrame) -> pd.DataFrame:
        df = pdf.drop_duplicates().sort_values(["user_id", "p"])
        u = df["user_id"].to_numpy(np.int64)
        p = df["p"].to_numpy(np.int64)
        same_prev = np.zeros(len(p), dtype=bool)
        same_next = np.zeros(len(p), dtype=bool)
        if len(p) > 1:
            # rows are (user, period)-sorted and distinct: the previous/
            # next period of the same user is adjacent iff it exists
            same_prev[1:] = (u[1:] == u[:-1]) & (p[1:] == p[:-1] + 1)
            same_next[:-1] = same_prev[1:]
        out = pd.DataFrame(
            {
                "p": p,
                "active": np.ones(len(p), dtype=np.int64),
                "new": (~same_prev).astype(np.int64),
                "churn": (~same_next).astype(np.int64),
            }
        )
        return out.groupby("p", sort=False, as_index=False).sum()

    parts = keyed_partition_map(
        ds.map_batches(pairs, batch_format="pandas", batch_size=None),
        keys=["user_id"],
        order_col="p",
        fn=flags,
        num_partitions=NP,
    ).to_pandas()
    out = parts.groupby("p", as_index=False).sum().sort_values("p")
    out.columns = ["period", "n_active", "n_new", "n_churned"]
    return out.reset_index(drop=True).astype("int64")


QUERIES["weekly_churn"] = q_weekly_churn

ORACLE_SQL["weekly_churn"] = """
    WITH d AS (SELECT DISTINCT user_id,
                      CAST(epoch_us(ts) AS BIGINT) // 604800000000 AS p
               FROM events)
    SELECT d.p AS period,
           CAST(count(*) AS BIGINT) AS n_active,
           CAST(sum(CASE WHEN prev.user_id IS NULL THEN 1 ELSE 0 END)
                AS BIGINT) AS n_new,
           CAST(sum(CASE WHEN nxt.user_id IS NULL THEN 1 ELSE 0 END)
                AS BIGINT) AS n_churned
    FROM d
    LEFT JOIN d prev ON prev.user_id = d.user_id AND prev.p = d.p - 1
    LEFT JOIN d nxt  ON nxt.user_id  = d.user_id AND nxt.p  = d.p + 1
    GROUP BY d.p ORDER BY d.p
"""


def q_session_type_pairs(sf_dir: str):
    """Session-level event-type co-occurrence: for every unordered type
    pair, in how many (user, session) windows both occur — the
    session-granular twin of ``type_affinity`` (user-level sets), and a
    composite of two catalog shapes: 30-minute-gap sessionization THEN
    within-group pair emission. One keyed exchange on user (sessions
    are user-local, so assignment is a vectorized cumsum of gap>30min
    breaks); per session the DISTINCT type set emits its ≤|T|²/2 pairs;
    |types|²-sized count partials fold on the driver."""
    ds = _events(sf_dir, columns=["user_id", "event_type", "ts", "event_id"])
    GAP_US = 1_800_000_000

    def pair_counts(pdf: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "user_id": pdf["user_id"].to_numpy(np.int64),
                "t": pdf["ts"].astype("int64").to_numpy(),
                "eid": pdf["event_id"].to_numpy(np.int64),
                "event_type": pdf["event_type"].to_numpy(),
            }
        ).sort_values(["user_id", "t", "eid"], kind="stable")
        u = df["user_id"].to_numpy(np.int64)
        t = df["t"].to_numpy(np.int64)
        brk = np.ones(len(df), dtype=np.int64)
        if len(df) > 1:
            brk[1:] = (
                (u[1:] != u[:-1]) | (t[1:] - t[:-1] > GAP_US)
            ).astype(np.int64)
        df["sess"] = np.cumsum(brk)
        d = df[["sess", "event_type"]].drop_duplicates()
        m = d.merge(d, on="sess")
        m = m[m["event_type_x"] < m["event_type_y"]]
        out = (
            m.groupby(["event_type_x", "event_type_y"], sort=False)
            .size()
            .rename("n_sessions")
            .reset_index()
        )
        out.columns = ["type_a", "type_b", "n_sessions"]
        return out

    parts = keyed_partition_map(
        ds,
        keys=["user_id"],
        order_col="ts",
        fn=pair_counts,
        num_partitions=NP,
    ).to_pandas()
    if parts.empty:  # no session has two distinct types (SQL: 0 rows)
        return pd.DataFrame(
            {
                "type_a": pd.Series([], dtype=object),
                "type_b": pd.Series([], dtype=object),
                "n_sessions": pd.Series([], dtype="int64"),
            }
        )
    out = (
        parts.groupby(["type_a", "type_b"], as_index=False)["n_sessions"]
        .sum()
        .sort_values(["type_a", "type_b"])
        .reset_index(drop=True)
    )
    out["n_sessions"] = out["n_sessions"].astype("int64")
    return out


QUERIES["session_type_pairs"] = q_session_type_pairs

ORACLE_SQL["session_type_pairs"] = """
    WITH e AS (SELECT user_id, event_type, event_id,
                      CAST(epoch_us(ts) AS BIGINT) AS t
               FROM events),
    f AS (SELECT user_id, event_type, t, event_id,
                 CASE WHEN t - lag(t) OVER (PARTITION BY user_id
                                            ORDER BY t, event_id)
                          > 1800000000
                      THEN 1 ELSE 0 END AS brk
          FROM e),
    s AS (SELECT user_id, event_type,
                 sum(brk) OVER (PARTITION BY user_id ORDER BY t, event_id
                                ROWS UNBOUNDED PRECEDING) AS sess
          FROM f),
    d AS (SELECT DISTINCT user_id, sess, event_type FROM s)
    SELECT a.event_type AS type_a, b.event_type AS type_b,
           CAST(count(*) AS BIGINT) AS n_sessions
    FROM d a JOIN d b
      ON a.user_id = b.user_id AND a.sess = b.sess
     AND a.event_type < b.event_type
    GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_nearest_centroid_confusion(sf_dir: str):
    """Nearest-centroid classification confusion matrix over the
    embeddings table, EXACT end-to-end (the first fully SQL-oracled
    embedding-space op — the ANN family is recall-bounded by nature):
    coordinates quantize to round(x·10⁶) int64, each label's centroid
    is the exact floor(Σq/n) integer vector (a 1/n ≥ 10⁻⁴ gap from any
    integer boundary keeps double division's floor exact on both
    engines), squared distances are pure int64 (|q| ≤ ~10⁶, d = 64 ⇒
    ≪ 2⁶³), ties break to the smallest label. Two broadcast passes:
    per-block per-label (Σq, n) partials fold driver-side
    (labels × dim — tiny), the centroid matrix ships once via ray.put,
    and each block assigns with one int64 matmul; the confusion
    partials are labels²-sized."""
    import ray

    ds = _rp(f"{sf_dir}/embeddings.parquet",
             columns=["vec_id", "embedding", "label"])

    def _qmat(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        from arlas_proc_ray.ann.search import _as_matrix

        mat = _as_matrix(t.column("embedding")).astype(np.float64)
        q = np.round(mat * 1e6).astype(np.int64)
        lab = t.column("label").to_numpy().astype(np.int64)
        return q, lab

    def sums(t: pa.Table) -> pa.Table:
        q, lab = _qmat(t)
        labels = np.unique(lab)
        rows = []
        for l in labels:
            m = lab == l
            rows.append((int(l), int(m.sum()), q[m].sum(axis=0).tolist()))
        return pa.table(
            {
                "label": pa.array([r[0] for r in rows], pa.int64()),
                "n": pa.array([r[1] for r in rows], pa.int64()),
                "s": pa.array([r[2] for r in rows], pa.list_(pa.int64())),
            }
        )

    parts = ds.map_batches(
        sums, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    labels = np.sort(parts["label"].unique().astype(np.int64))
    cent = {}
    for l in labels:
        sub = parts[parts["label"] == l]
        s = np.sum(np.stack(sub["s"].to_numpy()), axis=0).astype(np.int64)
        n = int(sub["n"].sum())
        cent[int(l)] = np.floor(s / n).astype(np.int64)
    C = np.stack([cent[int(l)] for l in labels])
    cref = ray.put((labels, C))

    def assign(t: pa.Table) -> pa.Table:
        labs, cm = ray.get(cref)
        q, lab = _qmat(t)
        d2 = (
            (q * q).sum(axis=1)[:, None]
            - 2 * (q @ cm.T)
            + (cm * cm).sum(axis=1)[None, :]
        )
        got = labs[np.argmin(d2, axis=1)]  # first index ⇒ smallest label
        out = (
            pd.DataFrame({"label": lab, "assigned": got})
            .groupby(["label", "assigned"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    cm = ds.map_batches(
        assign, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    out = (
        cm.groupby(["label", "assigned"], as_index=False)["n"]
        .sum()
        .sort_values(["label", "assigned"])
        .reset_index(drop=True)
    )
    return out.astype("int64")


QUERIES["nearest_centroid_confusion"] = q_nearest_centroid_confusion

ORACLE_SQL["nearest_centroid_confusion"] = """
    WITH q AS (SELECT vec_id, CAST(label AS BIGINT) AS label,
                      CAST(round(CAST(unnest(embedding) AS DOUBLE)
                                 * 1000000) AS BIGINT) AS x,
                      generate_subscripts(embedding, 1) AS i
               FROM embeddings),
    cent AS (SELECT label, i,
                    CAST(floor(CAST(sum(x) AS DOUBLE) / count(*))
                         AS BIGINT) AS c
             FROM q GROUP BY label, i),
    dist AS (SELECT q.vec_id, q.label, cent.label AS cand,
                    sum((q.x - cent.c) * (q.x - cent.c)) AS d2
             FROM q JOIN cent ON cent.i = q.i
             GROUP BY 1, 2, 3),
    best AS (SELECT vec_id, label, cand,
                    row_number() OVER (PARTITION BY vec_id
                                       ORDER BY d2, cand) AS rn
             FROM dist)
    SELECT label, cand AS assigned, CAST(count(*) AS BIGINT) AS n
    FROM best WHERE rn = 1 GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_window_novelty(sf_dir: str):
    """Per-document window-novelty profile — the doc-level aggregate of
    the span-dedup machinery (dedup/spans.py gives PAIRS; this gives
    each doc's contamination rate): of a doc's DISTINCT 20-char
    windows, how many also occur in at least one other document.
    Plan: vectorized Karp-Rabin code-point window hashes per doc
    (functions/text.py — 8-byte rows through the exchanges, never
    window strings; the SQL oracle compares true substrings, pinning
    the no-collision contract at test scale), one keyed exchange on
    the window hash to count holder docs, one keyed exchange on doc_id
    to fold each doc's (n_windows, n_shared). Docs shorter than the
    window emit nothing (SQL contract)."""
    from arlas_proc_ray.functions.text import _char_window_hashes

    L = 20
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def window_rows(pdf: pd.DataFrame) -> pd.DataFrame:
        hashes, ids = [], []
        for i, t in zip(pdf["doc_id"], pdf["text"]):
            h = np.unique(_char_window_hashes(t, L))
            if not len(h):
                continue
            hashes.append(h)
            ids.append(np.full(len(h), i, dtype=np.int64))
        if not hashes:
            return pd.DataFrame(
                {"whash": pd.Series([], dtype=np.int64),
                 "doc_id": pd.Series([], dtype=np.int64)}
            )
        return pd.DataFrame(
            {
                "whash": np.concatenate(hashes).view(np.int64),
                "doc_id": np.concatenate(ids),
            }
        )

    def holders(pdf: pd.DataFrame) -> pd.DataFrame:
        nd = pdf.groupby("whash", sort=False)["doc_id"].transform("size")
        out = pd.DataFrame(
            {
                "doc_id": pdf["doc_id"].to_numpy(np.int64),
                "n_windows": np.ones(len(pdf), dtype=np.int64),
                "n_shared": (nd.to_numpy(np.int64) >= 2).astype(np.int64),
            }
        )
        return out.groupby("doc_id", sort=False, as_index=False).sum()

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby("doc_id", sort=False, as_index=False).sum()

    rows = ds.map_batches(
        window_rows, batch_format="pandas", batch_size=None
    )
    partials = keyed_partition_map(
        rows, keys=["whash"], order_col="doc_id", fn=holders,
        num_partitions=NP,
    )
    out = keyed_partition_map(
        partials, keys=["doc_id"], order_col="n_windows", fn=fold,
        num_partitions=NP,
    ).to_pandas()
    return (
        out.astype("int64").sort_values("doc_id").reset_index(drop=True)
    )


QUERIES["window_novelty"] = q_window_novelty

# The 8192 series bound is an oracle-side constant comfortably above the
# synthetic corpus's max doc length (~600 chars at every sf) — DuckDB's
# generate_series cannot be laterally sized per row.
ORACLE_SQL["window_novelty"] = """
    WITH g AS (SELECT i FROM generate_series(1, 8192) t(i)),
    w AS (
      SELECT DISTINCT d.doc_id,
             substr(d.text, CAST(g.i AS INTEGER), 20) AS win
      FROM documents d JOIN g ON g.i <= length(d.text) - 19
    ),
    c AS (SELECT win, count(*) AS nd FROM w GROUP BY win)
    SELECT w.doc_id,
           CAST(count(*) AS BIGINT) AS n_windows,
           CAST(sum(CASE WHEN c.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_shared
    FROM w JOIN c USING (win) GROUP BY w.doc_id ORDER BY w.doc_id
"""


def q_closest_spend_pair(sf_dir: str):
    """Global 1-D closest pair over per-user total spend: the two
    DISTINCT user spend totals closest together (smallest upper
    endpoint on ties). Two stages: the usual per-user exact-cents sum
    (combiner + one keyed exchange), then the closest-pair search as a
    RANGE-bucketed exchange — a bounds pass fixes equal-width buckets,
    each bucket computes its own sorted adjacent gaps locally, and only
    per-bucket (min, max) envelopes return to the driver, which
    stitches the ≤P cross-boundary candidate gaps in bucket order.
    Nothing event- or user-sized ever sits on the driver."""
    ds = _events(sf_dir, columns=["user_id", "value"])

    def spend_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": pdf["user_id"].to_numpy(np.int64),
                "s": _cents(pdf["value"]).to_numpy(np.int64),
            }
        ).groupby("user_id", sort=False, as_index=False).sum()

    def spend_fold(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("user_id", sort=False, as_index=False)["s"].sum()
        return pd.DataFrame({"v": g["s"].unique()})

    totals = keyed_partition_map(
        ds.map_batches(spend_partial, batch_format="pandas", batch_size=None),
        keys=["user_id"],
        order_col="s",
        fn=spend_fold,
        num_partitions=NP,
    )

    bounds = totals.map_batches(
        lambda pdf: pd.DataFrame(
            {"lo": [pdf["v"].min()], "hi": [pdf["v"].max()]}
        )
        if len(pdf)
        else pd.DataFrame({"lo": pd.Series([], dtype="int64"),
                           "hi": pd.Series([], dtype="int64")}),
        batch_format="pandas",
        batch_size=None,
    ).to_pandas()
    lo, hi = int(bounds["lo"].min()), int(bounds["hi"].max())
    width = max(1, (hi - lo) // NP + 1)

    def tag(pdf: pd.DataFrame) -> pd.DataFrame:
        v = pdf["v"].to_numpy(np.int64)
        return pd.DataFrame({"b": (v - lo) // width, "v": v})

    def bucket_gaps(pdf: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for b, sub in pdf.groupby("b", sort=False):
            u = np.unique(sub["v"].to_numpy(np.int64))
            if len(u) > 1:
                d = np.diff(u)
                i = int(d.argmin())
                rows.append((int(b), int(d[i]), int(u[i + 1]),
                             int(u[0]), int(u[-1])))
            else:
                rows.append((int(b), -1, -1, int(u[0]), int(u[-1])))
        return pd.DataFrame(
            rows, columns=["b", "gap", "v_hi", "bmin", "bmax"]
        ).astype("int64")

    parts = keyed_partition_map(
        totals.map_batches(tag, batch_format="pandas", batch_size=None),
        keys=["b"],
        order_col="v",
        fn=bucket_gaps,
        num_partitions=NP,
    ).to_pandas().sort_values("b")
    # stitch: candidate gaps inside buckets plus each adjacent
    # boundary pair (next bucket's min − this bucket's max)
    cand = []
    for _, r in parts.iterrows():
        if r["gap"] >= 0:
            cand.append((int(r["gap"]), int(r["v_hi"])))
    bm = parts["bmin"].to_numpy(np.int64)
    bx = parts["bmax"].to_numpy(np.int64)
    for i in range(len(parts) - 1):
        cand.append((int(bm[i + 1] - bx[i]), int(bm[i + 1])))
    if not cand:  # fewer than two distinct totals: no pair (SQL: 0 rows)
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64") for c in ("gap", "v_lo", "v_hi")}
        )
    gap, v_hi = min(cand)
    return pd.DataFrame(
        {"gap": [gap], "v_lo": [v_hi - gap], "v_hi": [v_hi]}
    ).astype("int64")


QUERIES["closest_spend_pair"] = q_closest_spend_pair

ORACLE_SQL["closest_spend_pair"] = """
    WITH s AS (SELECT user_id,
                      CAST(sum(CAST(round(value * 100) AS BIGINT))
                           AS BIGINT) AS v
               FROM events GROUP BY user_id),
    u AS (SELECT DISTINCT v FROM s),
    d AS (SELECT v, v - lag(v) OVER (ORDER BY v) AS gap FROM u),
    m AS (SELECT min(gap) AS g FROM d WHERE gap IS NOT NULL)
    SELECT CAST(m.g AS BIGINT) AS gap,
           CAST(min(d.v) - m.g AS BIGINT) AS v_lo,
           CAST(min(d.v) AS BIGINT) AS v_hi
    FROM d, m WHERE d.gap = m.g GROUP BY m.g
"""


def q_user_modal_share(sf_dir: str):
    """Per-user modal event type and its exact share: the type the user
    emits most (lexicographically smallest on count ties), with
    n_events / n_modal as the two integers the share divides from.
    Per-block (user, type) count partials, one keyed exchange on user,
    vectorized idxmax election per user."""
    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def cells(pdf: pd.DataFrame) -> pd.DataFrame:
        return (
            pdf.groupby(["user_id", "event_type"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )

    def elect(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(["user_id", "event_type"], sort=False,
                        as_index=False)["n"].sum()
        # sort by (user, -n, type): the first row per user is the winner
        g = g.sort_values(
            ["user_id", "n", "event_type"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        tot = g.groupby("user_id", sort=False)["n"].sum()
        win = g.drop_duplicates("user_id").set_index("user_id")
        out = pd.DataFrame(
            {
                "user_id": tot.index.to_numpy(np.int64),
                "n_events": tot.to_numpy(np.int64),
                "modal_type": win["event_type"].reindex(tot.index).to_numpy(),
                "n_modal": win["n"].reindex(tot.index).to_numpy(np.int64),
            }
        )
        return out

    out = keyed_partition_map(
        ds.map_batches(cells, batch_format="pandas", batch_size=None),
        keys=["user_id"],
        order_col="event_type",
        fn=elect,
        num_partitions=NP,
    ).to_pandas()
    for c in ("user_id", "n_events", "n_modal"):
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)[
        ["user_id", "n_events", "modal_type", "n_modal"]
    ]


QUERIES["user_modal_share"] = q_user_modal_share

ORACLE_SQL["user_modal_share"] = """
    WITH c AS (SELECT user_id, event_type, count(*) AS n
               FROM events GROUP BY 1, 2),
    r AS (SELECT user_id, event_type, n,
                 row_number() OVER (PARTITION BY user_id
                                    ORDER BY n DESC, event_type) AS rn,
                 sum(n) OVER (PARTITION BY user_id) AS tot
          FROM c)
    SELECT user_id,
           CAST(tot AS BIGINT) AS n_events,
           event_type AS modal_type,
           CAST(n AS BIGINT) AS n_modal
    FROM r WHERE rn = 1 ORDER BY user_id
"""


def q_fk_audit(sf_dir: str):
    """Referential-integrity audit across the star schema: for each
    declared FK edge, how many child rows point at a missing parent.
    Each edge is one distributed ANTI join (stages/joins.py) counted —
    parents are key-projected at the read so only key columns move.
    The constraint axis is metadata-sized; edges run as independent
    streaming pipelines."""
    from arlas_proc_ray.stages.joins import equi_join

    edges = [
        ("orders.o_custkey->customer", "orders", "o_custkey",
         "customer", "c_custkey"),
        ("lineitem.l_orderkey->orders", "lineitem", "l_orderkey",
         "orders", "o_orderkey"),
        ("lineitem.l_partkey->part", "lineitem", "l_partkey",
         "part", "p_partkey"),
    ]
    rows = []
    for name, child, ckey, parent, pkey in edges:
        c = _rp(f"{sf_dir}/{child}.parquet", columns=[ckey])
        p = _rp(f"{sf_dir}/{parent}.parquet", columns=[pkey]).map_batches(
            lambda t, _k=pkey, _c=ckey: t.rename_columns([_c]),
            batch_format="pyarrow",
            batch_size=None,
        )
        missing = equi_join(
            c, p, on=[ckey], right_cols=[], how="anti",
            num_partitions=NP,
        )
        rows.append((name, int(missing.count())))
    return pd.DataFrame(rows, columns=["fk", "n_violations"]).astype(
        {"n_violations": "int64"}
    )


QUERIES["fk_audit"] = q_fk_audit

ORACLE_SQL["fk_audit"] = """
    SELECT fk, n_violations FROM (
      SELECT 'orders.o_custkey->customer' AS fk,
             CAST(count(*) AS BIGINT) AS n_violations
      FROM orders o WHERE NOT EXISTS
        (SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey)
      UNION ALL
      SELECT 'lineitem.l_orderkey->orders',
             CAST(count(*) AS BIGINT)
      FROM lineitem l WHERE NOT EXISTS
        (SELECT 1 FROM orders o WHERE o.o_orderkey = l.l_orderkey)
      UNION ALL
      SELECT 'lineitem.l_partkey->part',
             CAST(count(*) AS BIGINT)
      FROM lineitem l WHERE NOT EXISTS
        (SELECT 1 FROM part p WHERE p.p_partkey = l.l_partkey)
    ) ORDER BY fk
"""


def q_value_decile_conversion(sf_dir: str):
    """Calibration curve: view events bucketed into GLOBAL value
    deciles (exact rank rule decile = ⌈10·cum/n⌉, computed from
    distinct-value cells and broadcast as 9 thresholds), against the
    fraction followed by a same-user purchase within one hour. The
    conversion test is one keyed exchange on user (views + purchases
    co-partitioned; a per-user searchsorted window probe), folding to
    decile-sized partials. Composite of the range-splitter and
    temporal-follow shapes; all counts exact int64."""
    import ray

    ds = _events(
        sf_dir, columns=["user_id", "ts", "event_type", "value"]
    )
    W_US = 3_600_000_000

    def view_cells(pdf: pd.DataFrame) -> pd.DataFrame:
        m = pdf["event_type"].to_numpy() == "view"
        v = _cents(pdf["value"][m]).to_numpy(np.int64)
        return (
            pd.DataFrame({"v": v})
            .groupby("v", sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )

    cells = ds.map_batches(
        view_cells, batch_format="pandas", batch_size=None
    ).to_pandas()
    if cells.empty:  # no view events at all: no curve (SQL: 0 rows)
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("decile", "n_views", "n_converted")}
        )
    g = cells.groupby("v", as_index=False)["cnt"].sum().sort_values("v")
    v = g["v"].to_numpy(np.int64)
    cw = g["cnt"].to_numpy(np.int64).cumsum()
    tot = int(cw[-1])
    dec_of_cell = (10 * cw + tot - 1) // tot  # decile per distinct value
    # threshold t_k = largest value still in decile ≤ k ⇒ decile(v) =
    # 1 + #thresholds < v (searchsorted left on the 9 interior bounds).
    # Heavy ties can leave deciles ≤ k EMPTY (the smallest cell already
    # covers >k/10 of the mass); those prefix positions take a sentinel
    # below min(v), which contributes '< v' for every value — correct,
    # since every value then sits in a decile > k.
    thresholds = np.array(
        [
            v[dec_of_cell <= k].max()
            if bool((dec_of_cell <= k).any())
            else v[0] - 1
            for k in range(1, 10)
        ],
        dtype=np.int64,
    )
    thr_ref = ray.put(thresholds)

    def probe(pdf: pd.DataFrame) -> pd.DataFrame:
        thr = ray.get(thr_ref)
        et = pdf["event_type"].to_numpy()
        t = pdf["ts"].astype("int64").to_numpy()
        u = pdf["user_id"].to_numpy(np.int64)
        vm = et == "view"
        pm = et == "purchase"
        out_dec, out_conv = [], []
        vdf = pd.DataFrame(
            {"u": u[vm], "t": t[vm],
             "v": _cents(pdf["value"][vm]).to_numpy(np.int64)}
        )
        pdf2 = pd.DataFrame({"u": u[pm], "t": t[pm]}).sort_values(["u", "t"])
        pu = pdf2.groupby("u", sort=False)["t"].apply(
            lambda s: s.to_numpy(np.int64)
        )
        for uu, sub in vdf.groupby("u", sort=False):
            pt = pu.get(uu, np.empty(0, dtype=np.int64))
            tv = sub["t"].to_numpy(np.int64)
            conv = (
                np.searchsorted(pt, tv + W_US, side="right")
                > np.searchsorted(pt, tv, side="right")
            )
            out_dec.append(
                np.searchsorted(thr, sub["v"].to_numpy(np.int64),
                                side="left") + 1
            )
            out_conv.append(conv.astype(np.int64))
        if not out_dec:
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64")
                 for c in ("decile", "n_views", "n_converted")}
            )
        out = pd.DataFrame(
            {
                "decile": np.concatenate(out_dec),
                "n_views": 1,
                "n_converted": np.concatenate(out_conv),
            }
        )
        return out.groupby("decile", sort=False, as_index=False).sum()

    parts = keyed_partition_map(
        ds, keys=["user_id"], order_col="ts", fn=probe,
        num_partitions=NP,
    ).to_pandas()
    out = (
        parts.groupby("decile", as_index=False)[["n_views", "n_converted"]]
        .sum()
        .sort_values("decile")
        .reset_index(drop=True)
    )
    return out.astype("int64")


QUERIES["value_decile_conversion"] = q_value_decile_conversion

ORACLE_SQL["value_decile_conversion"] = """
    WITH vw AS (SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS t,
                       CAST(round(value * 100) AS BIGINT) AS v
                FROM events WHERE event_type = 'view'),
    pu AS (SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS t
           FROM events WHERE event_type = 'purchase'),
    c AS (SELECT v, count(*) AS cnt FROM vw GROUP BY v),
    w AS (SELECT v, sum(cnt) OVER (ORDER BY v) AS cw,
                 sum(cnt) OVER () AS tot
          FROM c),
    dec AS (SELECT v, (10 * cw + tot - 1) // tot AS decile FROM w)
    SELECT CAST(dec.decile AS BIGINT) AS decile,
           CAST(count(*) AS BIGINT) AS n_views,
           CAST(sum(CASE WHEN EXISTS (
                  SELECT 1 FROM pu
                  WHERE pu.user_id = vw.user_id
                    AND pu.t > vw.t AND pu.t <= vw.t + 3600000000)
                THEN 1 ELSE 0 END) AS BIGINT) AS n_converted
    FROM vw JOIN dec ON dec.v = vw.v
    GROUP BY 1 ORDER BY 1
"""


def q_katz_centrality(sf_dir: str):
    """Bounded-horizon Katz centrality (3 rounds, α = 1/4) over the
    DISTINCT mirrored user↔event-type interaction graph, on the
    resident-edge Pregel kit (stages/graph.py:katz_centrality_exchange —
    zero driver node state). Scores are exact int64 scaled by 4³: the
    attenuated walk sum folds through ``s_k = 4·s_{k-1} + w_k``, so the
    chained-CTE oracle reproduces every bit. One dedup exchange builds
    the simple graph (keeps ``max_degree^3`` inside int64 headroom);
    edges hash-stage once; each round moves node-sized state only."""
    from arlas_proc_ray.stages.graph import katz_centrality_exchange

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf[["user_id", "event_type"]].drop_duplicates()
        u = "u:" + g["user_id"].astype("int64").astype(str)
        t = "t:" + g["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = keyed_partition_map(
        ds.map_batches(mirror, batch_format="pandas", batch_size=None),
        keys=["src", "dst"], order_col="src",
        fn=lambda pdf: pdf.drop_duplicates(), num_partitions=NP,
    )
    return katz_centrality_exchange(
        edges, src_col="src", dst_col="dst", rounds=3, alpha_den=4,
        num_partitions=NP,
    )


QUERIES["katz_centrality"] = q_katz_centrality


def _katz_oracle(rounds: int = 3, alpha_den: int = 4) -> str:
    """Chained-CTE walk counting with the same exact-integer
    attenuation recurrence as katz_centrality_exchange."""
    sql = """
    WITH pw AS (
      SELECT DISTINCT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t
      FROM events),
    edges AS (SELECT u AS src, t AS dst FROM pw
              UNION ALL SELECT t, u FROM pw),
    nodes AS (SELECT DISTINCT src AS node FROM edges),
    s0 AS (SELECT node, 1::BIGINT AS w, 0::BIGINT AS s FROM nodes)"""
    prev = "s0"
    for i in range(1, rounds + 1):
        sql += f""",
    c{i} AS (SELECT e.dst AS node, SUM(p.w) AS w
             FROM edges e JOIN {prev} p ON p.node = e.src
             GROUP BY 1),
    s{i} AS (SELECT n.node,
                    CAST(COALESCE(c.w, 0) AS BIGINT) AS w,
                    CAST({alpha_den} * p.s + COALESCE(c.w, 0) AS BIGINT) AS s
             FROM nodes n
             LEFT JOIN c{i} c ON c.node = n.node
             JOIN {prev} p ON p.node = n.node)"""
        prev = f"s{i}"
    sql += f"""
    SELECT node, CAST(s AS BIGINT) AS katz FROM {prev}
"""
    return sql


ORACLE_SQL["katz_centrality"] = _katz_oracle()


def q_harmonic_centrality(sf_dir: str):
    """Exact 3-hop harmonic centrality ``H(v) = Σ 6 // d(u,v)``
    (L = lcm(1..3) = 6 — integer-exact reciprocals) over the mirrored
    user↔event-type interaction graph via the adjacency-bitset
    all-sources BFS (stages/graph.py:harmonic_centrality — one edge-
    Dataset pass per hop, n²/8 broadcast budget with a loud contract
    past 8192 nodes; the testdata graph is ≤ ~1.6k nodes at sf0.1)."""
    from arlas_proc_ray.stages.graph import harmonic_centrality

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    return harmonic_centrality(
        edges, src_col="src", dst_col="dst", max_hops=3,
        num_partitions=NP,
    )


QUERIES["harmonic_centrality"] = q_harmonic_centrality

ORACLE_SQL["harmonic_centrality"] = """
    WITH pw AS (
      SELECT DISTINCT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t
      FROM events),
    d1 AS (SELECT u AS src, t AS dst FROM pw
           UNION ALL SELECT t, u FROM pw),
    f2 AS (SELECT DISTINCT d1.src, e.dst
           FROM d1 JOIN d1 e ON e.src = d1.dst),
    d2 AS (SELECT src, dst FROM f2 WHERE src <> dst
           EXCEPT SELECT src, dst FROM d1),
    f3 AS (SELECT DISTINCT d2.src, e.dst
           FROM d2 JOIN d1 e ON e.src = d2.dst),
    d3 AS (SELECT src, dst FROM f3 WHERE src <> dst
           EXCEPT SELECT src, dst FROM d2
           EXCEPT SELECT src, dst FROM d1),
    deg AS (SELECT src AS node, count(*) AS degree FROM d1 GROUP BY 1),
    h AS (SELECT src AS node, 6 * count(*) AS s FROM d1 GROUP BY 1
          UNION ALL SELECT src, 3 * count(*) FROM d2 GROUP BY 1
          UNION ALL SELECT src, 2 * count(*) FROM d3 GROUP BY 1)
    SELECT deg.node, CAST(deg.degree AS BIGINT) AS degree,
           CAST(sum(h.s) AS BIGINT) AS harmonic
    FROM deg JOIN h ON h.node = deg.node
    GROUP BY 1, 2
"""


def q_degree_assortativity(sf_dir: str):
    """Newman degree assortativity of the user↔event-type interaction
    graph (stages/graph.py:degree_assortativity): one dedup exchange,
    broadcast degree table, one-row moment partials per edge block,
    arbitrary-precision driver fold — the coefficient is ONE division
    of two exact integers (mirrored pairs ⇒ identical marginals ⇒ no
    sqrt), bit-identical to the HUGEINT SQL oracle."""
    from arlas_proc_ray.stages.graph import degree_assortativity

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    return degree_assortativity(
        edges, src_col="src", dst_col="dst", num_partitions=NP,
    )


QUERIES["degree_assortativity"] = q_degree_assortativity

ORACLE_SQL["degree_assortativity"] = """
    WITH pw AS (
      SELECT DISTINCT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t
      FROM events),
    deg AS (SELECT node, CAST(count(*) AS BIGINT) AS d
            FROM (SELECT u AS node FROM pw
                  UNION ALL SELECT t FROM pw)
            GROUP BY 1),
    mom AS (SELECT CAST(count(*) AS HUGEINT) AS m,
                   CAST(SUM(du.d + dt.d) AS HUGEINT) AS s1,
                   CAST(SUM(du.d * dt.d) AS HUGEINT) AS sp,
                   CAST(SUM(du.d * du.d + dt.d * dt.d) AS HUGEINT) AS s2
            FROM pw
            JOIN deg du ON du.node = pw.u
            JOIN deg dt ON dt.node = pw.t)
    SELECT CAST(2 * m AS BIGINT) AS n_pairs,
           CAST(s1 AS BIGINT) AS sum_deg,
           CAST(2 * sp AS BIGINT) AS sum_prod,
           CAST(4 * m * sp - s1 * s1 AS DOUBLE)
             / CAST(2 * m * s2 - s1 * s1 AS DOUBLE) AS assortativity
    FROM mom
"""


def q_tfidf_top_terms(sf_dir: str):
    """Per-document top-3 tf-idf terms with EXACT integer scores
    (functions/text.py:tfidf_top_terms — idf is ``10^12 // df``, one
    integer division per term, no float log): per-block distinct
    (doc, term) partials → one keyed df sum → vocab-sized broadcast →
    block-local tf·idf scoring and (score DESC, term ASC) top-3."""
    from arlas_proc_ray.functions.text import tfidf_top_terms

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return tfidf_top_terms(
        ds, doc_col="doc_id", text_col="text", k=3, num_partitions=NP,
    )


QUERIES["tfidf_top_terms"] = q_tfidf_top_terms

ORACLE_SQL["tfidf_top_terms"] = """
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(coalesce(text, '')),
                    '[a-z]+')) AS term
      FROM documents),
    tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2),
    df AS (SELECT term, count(DISTINCT doc_id) AS df_n FROM tf GROUP BY 1),
    sc AS (SELECT tf.doc_id, tf.term,
                  CAST(tf.tf AS BIGINT) AS tf,
                  CAST(df.df_n AS BIGINT) AS df_n,
                  CAST(tf.tf * (1000000000000 // df.df_n) AS BIGINT)
                    AS tfidf_scaled,
                  row_number() OVER (
                    PARTITION BY tf.doc_id
                    ORDER BY tf.tf * (1000000000000 // df.df_n) DESC,
                             tf.term ASC) AS rk
           FROM tf JOIN df USING (term))
    SELECT doc_id, term, tf, df_n, tfidf_scaled
    FROM sc WHERE rk <= 3
"""


def q_late_arrival_lag(sf_dir: str):
    """Per-user watermark lag — the streaming out-of-orderness metric:
    with arrival order = event_id and event time = ts, each event's lag
    is ``running_max(ts) − ts`` in arrival order; the query reports each
    user's max lag, exact integer-µs lag sum and late-event count
    (lag > 0). One keyed exchange (the same co-partition scan shape as
    every per-key window here); the running max is a vectorized
    ``cummax`` inside the partition. At CDC scale this is the per-key
    input a watermark/allowed-lateness policy needs — how deep
    out-of-order delivery actually runs per partition."""
    ds = _events(sf_dir, columns=["event_id", "ts", "user_id"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        ts = pdf["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        runmax = (
            pd.Series(ts).groupby(
                pdf["user_id"].to_numpy(), sort=False
            ).cummax().to_numpy()
        )
        lag = runmax - ts
        out = pd.DataFrame(
            {"user_id": pdf["user_id"].to_numpy(), "lag": lag,
             "late": (lag > 0).astype(np.int64)}
        )
        return out.groupby("user_id", sort=False, as_index=False).agg(
            max_lag_us=("lag", "max"),
            sum_lag_us=("lag", "sum"),
            n_late=("late", "sum"),
            n_events=("late", "size"),
        )

    return keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn,
        num_partitions=NP,
    )


QUERIES["late_arrival_lag"] = q_late_arrival_lag

ORACLE_SQL["late_arrival_lag"] = """
    WITH lagt AS (
      SELECT user_id,
             max(epoch_us(ts)) OVER (
               PARTITION BY user_id ORDER BY event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
             - epoch_us(ts) AS lag
      FROM events)
    SELECT user_id,
           CAST(max(lag) AS BIGINT) AS max_lag_us,
           CAST(sum(lag) AS BIGINT) AS sum_lag_us,
           CAST(sum(CASE WHEN lag > 0 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_late,
           CAST(count(*) AS BIGINT) AS n_events
    FROM lagt GROUP BY 1
"""


def q_harmonic_centrality_resident(sf_dir: str):
    """q_harmonic_centrality on the NO-driver-state path
    (stages/neighborhood.py:harmonic_centrality_sketch, mode="exact"):
    per-node reachability bitsets live co-partitioned in the object
    store (n²/8 bytes ACROSS THE CLUSTER, 65536-node budget vs the
    driver path's 8192), per-hop newly-reached counts fold next to the
    sketch. Bit-identical to the driver-bitset path (parity-pinned in
    tests/test_neighborhood.py), so it shares harmonic_centrality's
    frontier-CTE SQL oracle."""
    from arlas_proc_ray.stages.neighborhood import harmonic_centrality_sketch

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    return harmonic_centrality_sketch(
        edges, src_col="src", dst_col="dst", max_hops=3, mode="exact",
        num_partitions=NP,
    )


QUERIES["harmonic_centrality_resident"] = q_harmonic_centrality_resident

ORACLE_SQL["harmonic_centrality_resident"] = ORACLE_SQL["harmonic_centrality"]


def q_harmonic_centrality_hll(sf_dir: str):
    """q_harmonic_centrality on the UNBOUNDED-node-count sketch path
    (HyperANF registers, n·64 bytes total state): rounded estimates,
    rows-only in the driver protocol — the ≤15% aggregate error bound
    vs the exact path is pinned in tests/test_neighborhood.py.
    Deterministic across runs and resizes (value-stable hashes)."""
    from arlas_proc_ray.stages.neighborhood import harmonic_centrality_sketch

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    return harmonic_centrality_sketch(
        edges, src_col="src", dst_col="dst", max_hops=3, mode="hll",
        log2m=6, num_partitions=NP,
    )


QUERIES["harmonic_centrality_hll"] = q_harmonic_centrality_hll


def q_stress_from_user(sf_dir: str):
    """Bounded-horizon (3-hop) single-source STRESS centrality — the
    number of shortest root→target paths through each node — rooted at
    the smallest user_id over the DISTINCT mirrored user↔event-type
    graph (stages/graph.py:stress_centrality_exchange). The Brandes
    two-phase shape with division-free EXACT-int64 arithmetic
    (stress = σ·φ): forward level-synchronous path counts + backward
    DAG-suffix counts, each hop one resident-edge Pregel step — so the
    chained-CTE oracle matches bit-for-bit."""
    from arlas_proc_ray.stages.graph import stress_centrality_exchange

    ds = _events(sf_dir, columns=["user_id", "event_type"])
    root = f"u:{int(ds.min('user_id'))}"

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf[["user_id", "event_type"]].drop_duplicates()
        u = "u:" + g["user_id"].astype("int64").astype(str)
        t = "t:" + g["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = keyed_partition_map(
        ds.map_batches(mirror, batch_format="pandas", batch_size=None),
        keys=["src", "dst"], order_col="src",
        fn=lambda pdf: pdf.drop_duplicates(), num_partitions=NP,
    )
    return stress_centrality_exchange(
        edges, src_col="src", dst_col="dst", source=root, max_hops=3,
        num_partitions=NP,
    )


QUERIES["stress_from_user"] = q_stress_from_user


def _stress_oracle(max_hops: int = 3) -> str:
    """Forward sigma level CTEs + backward phi level CTEs — both
    division-free integer DPs, mirroring stress_centrality_exchange."""
    sql = """
    WITH pw AS (
      SELECT DISTINCT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t
      FROM events),
    edges AS (SELECT u AS src, t AS dst FROM pw
              UNION ALL SELECT t, u FROM pw),
    l0 AS (SELECT 'u:' || CAST(min(user_id) AS VARCHAR) AS node,
                  1::BIGINT AS sigma
           FROM events)"""
    seen = ["l0"]
    for d in range(1, max_hops + 1):
        prev = seen[-1]
        seen_union = " UNION ".join(f"SELECT node FROM {s}" for s in seen)
        sql += f""",
    c{d} AS (SELECT e.dst AS node, SUM(p.sigma) AS sigma
             FROM edges e JOIN {prev} p ON p.node = e.src
             GROUP BY 1),
    l{d} AS (SELECT node, sigma FROM c{d}
             WHERE node NOT IN ({seen_union}))"""
        seen.append(f"l{d}")
    sql += f""",
    p{max_hops} AS (SELECT node, 0::BIGINT AS phi FROM l{max_hops})"""
    for d in range(max_hops - 1, -1, -1):
        sql += f""",
    p{d} AS (SELECT v.node, COALESCE(SUM(1 + p.phi), 0) AS phi
             FROM l{d} v
             LEFT JOIN edges e ON e.src = v.node
             LEFT JOIN p{d + 1} p ON p.node = e.dst
             GROUP BY 1)"""
    lev_union = " UNION ALL ".join(
        f"SELECT node, {d} AS dist, sigma FROM l{d}"
        for d in range(max_hops + 1)
    )
    phi_union = " UNION ALL ".join(
        f"SELECT node, phi FROM p{d}" for d in range(max_hops + 1)
    )
    sql += f""",
    lev AS ({lev_union}),
    ph AS ({phi_union})
    SELECT lev.node, CAST(lev.dist AS BIGINT) AS dist,
           CAST(lev.sigma AS BIGINT) AS sigma,
           CAST(CASE WHEN lev.dist = 0 THEN 0
                ELSE lev.sigma * ph.phi END AS BIGINT) AS stress
    FROM lev JOIN ph ON ph.node = lev.node
"""
    return sql


ORACLE_SQL["stress_from_user"] = _stress_oracle()


def q_closeness_from_interactions(sf_dir: str):
    """Bounded-horizon (3-hop) closeness ingredients per node — exact
    int64 ``n_reached`` (nodes within horizon) and ``sum_dist``
    (Σ shortest distances) — from the SAME adjacency-bitset all-sources
    BFS pass as harmonic_centrality (include_closeness=True: zero extra
    passes). Exact division-free columns; any closeness convention
    derives downstream."""
    from arlas_proc_ray.stages.graph import harmonic_centrality

    ds = _events(sf_dir, columns=["user_id", "event_type"])

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        u = "u:" + pdf["user_id"].astype("int64").astype(str)
        t = "t:" + pdf["event_type"].astype(str)
        return pd.DataFrame(
            {
                "src": pd.concat([u, t], ignore_index=True),
                "dst": pd.concat([t, u], ignore_index=True),
            }
        )

    edges = ds.map_batches(mirror, batch_format="pandas", batch_size=None)
    out = harmonic_centrality(
        edges, src_col="src", dst_col="dst", max_hops=3,
        num_partitions=NP, include_closeness=True,
    )
    return out[["node", "n_reached", "sum_dist"]]


QUERIES["closeness_from_interactions"] = q_closeness_from_interactions

ORACLE_SQL["closeness_from_interactions"] = """
    WITH pw AS (
      SELECT DISTINCT 'u:' || CAST(user_id AS VARCHAR) AS u,
             't:' || event_type AS t
      FROM events),
    d1 AS (SELECT u AS src, t AS dst FROM pw
           UNION ALL SELECT t, u FROM pw),
    f2 AS (SELECT DISTINCT d1.src, e.dst
           FROM d1 JOIN d1 e ON e.src = d1.dst),
    d2 AS (SELECT src, dst FROM f2 WHERE src <> dst
           EXCEPT SELECT src, dst FROM d1),
    f3 AS (SELECT DISTINCT d2.src, e.dst
           FROM d2 JOIN d1 e ON e.src = d2.dst),
    d3 AS (SELECT src, dst FROM f3 WHERE src <> dst
           EXCEPT SELECT src, dst FROM d2
           EXCEPT SELECT src, dst FROM d1),
    h AS (SELECT src AS node, count(*) AS n, 1 * count(*) AS s
          FROM d1 GROUP BY 1
          UNION ALL SELECT src, count(*), 2 * count(*) FROM d2 GROUP BY 1
          UNION ALL SELECT src, count(*), 3 * count(*) FROM d3 GROUP BY 1)
    SELECT node, CAST(sum(n) AS BIGINT) AS n_reached,
           CAST(sum(s) AS BIGINT) AS sum_dist
    FROM h GROUP BY 1
"""


def q_cdc_fanin_replay(sf_dir: str):
    """The SAME deterministic events-derived replay as
    ``cdc_engine_replay``, delivered as THREE mutually-skewed source
    shards (lsn % 3) through watermark-cut fan-in (cdc/fanin.py): each
    round every shard has durably delivered a different prefix of its
    feed, the epoch cuts at W = min over shards of high-water, drained
    shards lift their gate (closed-source convention). The final state
    must be hash-identical to the single-feed SQL LWW oracle —
    driver-visible verification that sharded fan-in under skew
    preserves exactly-once semantics."""
    import shutil
    import tempfile

    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.fanin import fanin_cut
    from arlas_proc_ray.model import DataModel

    K = 3
    m = int(_events(sf_dir, columns=["event_id"]).max("event_id"))
    changelog = _events_changelog_v1(sf_dir).materialize()

    def shard_prefix(s: int, frac: float):
        thr = int(m * frac) + 1

        def pick(t: pa.Table) -> pa.Table:
            lsn = t.column("lsn")
            own = pc.equal(
                pc.subtract(lsn, pc.multiply(pc.divide(lsn, K), K)), s
            )
            return t.filter(pc.and_(own, pc.less(lsn, thr)))

        return changelog.map_batches(
            pick, batch_format="pyarrow", batch_size=None
        )

    # deterministic skewed schedule: (delivered fraction per shard);
    # everyone drains by the last round, shard 2 trails hard
    rounds = [(0.6, 0.35, 0.1), (1.0, 0.8, 0.45), (1.0, 1.0, 1.0)]
    snap = tempfile.mkdtemp(prefix="cdc_fanin_replay_")
    try:
        eng = CdcEngine(snap, DataModel(num_partitions=NP))
        cut, epoch = -1, 0
        for fr in rounds:
            sources = {f"s{s}": shard_prefix(s, fr[s]) for s in range(K)}
            # a drained shard reports the global max (closed-source
            # convention), so the final cut lands exactly on it
            hw = {
                f"s{s}": (m if fr[s] >= 1.0 else int(m * fr[s]))
                for s in range(K)
            }
            ds, new_cut = fanin_cut(sources, hw, prev_cut=cut)
            if ds is None:
                continue
            epoch += 1
            if epoch % 2:
                eng.apply_epoch_staged(ds, epoch)
            else:
                eng.apply_epoch(ds, epoch)
            cut = new_cut
        if cut < m:
            raise RuntimeError(f"fan-in did not drain: cut={cut} max={m}")
        out = eng.final_state()
        return out.to_pandas() if hasattr(out, "to_pandas") else out
    finally:
        shutil.rmtree(snap, ignore_errors=True)


QUERIES["cdc_fanin_replay"] = q_cdc_fanin_replay

ORACLE_SQL["cdc_fanin_replay"] = ORACLE_SQL["cdc_engine_replay"]


def q_link_prediction_features(sf_dir: str):
    """Per-edge link-prediction features (common neighbors, endpoint
    degrees, neighborhood-union size — all exact int64) over the user
    co-engagement graph (stages/graph.py:common_neighbor_features): one
    dedup exchange + distributed bitset build + ONE AND+popcount pass
    emitting a feature row per edge; Jaccard/overlap derive downstream
    from the exact integers."""
    from arlas_proc_ray.stages.graph import common_neighbor_features

    edges = _coengagement_edges(sf_dir)
    return common_neighbor_features(
        edges, src_col="x", dst_col="y", num_partitions=NP,
    )


QUERIES["link_prediction_features"] = q_link_prediction_features

ORACLE_SQL["link_prediction_features"] = """
    WITH ek AS (
      SELECT DISTINCT user_id,
             event_type || ':' || json_extract_string(props, '$.k') || ':'
               || CAST(epoch_us(ts) // 86400000000 AS VARCHAR) AS ck
      FROM events),
    ed AS (SELECT DISTINCT a.user_id AS u, b.user_id AS v
           FROM ek a JOIN ek b
             ON a.ck = b.ck AND a.user_id < b.user_id),
    und AS (SELECT u AS s, v AS d FROM ed
            UNION ALL SELECT v, u FROM ed),
    deg AS (SELECT s AS node, CAST(count(*) AS BIGINT) AS dg
            FROM und GROUP BY 1),
    cn AS (SELECT e.u, e.v, CAST(count(*) AS BIGINT) AS common
           FROM ed e
           JOIN und a ON a.s = e.u
           JOIN und b ON b.s = e.v AND b.d = a.d
           GROUP BY 1, 2)
    SELECT e.u, e.v,
           CAST(COALESCE(cn.common, 0) AS BIGINT) AS common,
           du.dg AS deg_u, dv.dg AS deg_v,
           CAST(du.dg + dv.dg - COALESCE(cn.common, 0) AS BIGINT)
             AS union_n
    FROM ed e
    LEFT JOIN cn ON cn.u = e.u AND cn.v = e.v
    JOIN deg du ON du.node = e.u
    JOIN deg dv ON dv.node = e.v
"""


def q_scd3_current_prev(sf_dir: str):
    """SCD Type-3 view of the changelog — per LIVE key the current
    value plus the immediately-prior non-delete version (prev_*
    NULL-filled when the key has a single version): completes the SCD
    family next to scd2_history (full interval history) and
    time_travel_asof (point-in-time). One keyed exchange; inside each
    partition the per-key current/prev pick is a vectorized
    sort + groupby.nth — nothing driver-side."""
    ds = _events_changelog(sf_dir)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("lsn", kind="mergesort")
        g = pdf.groupby(["repo", "path"], sort=False)
        last = g.tail(1)
        live = last[last["op"] != "DELETE"][["repo", "path"]]
        ups = pdf[pdf["op"] != "DELETE"]
        gu = ups.groupby(["repo", "path"], sort=False)
        cur = gu.tail(1).rename(
            columns={"lsn": "lsn_current", "content": "content_current"}
        )
        prev = gu.nth(-2).rename(
            columns={"lsn": "lsn_prev", "content": "content_prev"}
        )
        out = live.merge(
            cur[["repo", "path", "lsn_current", "content_current"]],
            on=["repo", "path"], how="inner",
        ).merge(
            prev[["repo", "path", "lsn_prev", "content_prev"]],
            on=["repo", "path"], how="left",
        )
        # single-version keys carry sentinel prevs (-1 / '') so both
        # sides stay typed int64/str — no nullable-dtype render drift
        out["lsn_prev"] = (
            out["lsn_prev"].fillna(-1).astype("int64")
        )
        out["content_prev"] = out["content_prev"].fillna("")
        return out

    return keyed_partition_map(
        ds, keys=["repo", "path"], order_col="lsn", fn=fn,
        num_partitions=NP,
    )


QUERIES["scd3_current_prev"] = q_scd3_current_prev

ORACLE_SQL["scd3_current_prev"] = f"""
    WITH ch AS ({_CHANGELOG_SQL}),
    last AS (SELECT repo, path, op,
                    row_number() OVER (PARTITION BY repo, path
                                       ORDER BY lsn DESC) AS rn
             FROM ch),
    live AS (SELECT repo, path FROM last WHERE rn = 1 AND op <> 'DELETE'),
    ups AS (SELECT repo, path, lsn, content,
                   row_number() OVER (PARTITION BY repo, path
                                      ORDER BY lsn DESC) AS rn
            FROM ch WHERE op <> 'DELETE')
    SELECT l.repo, l.path,
           c.lsn AS lsn_current, c.content AS content_current,
           CAST(COALESCE(p.lsn, -1) AS BIGINT) AS lsn_prev,
           COALESCE(p.content, '') AS content_prev
    FROM live l
    JOIN ups c ON c.repo = l.repo AND c.path = l.path AND c.rn = 1
    LEFT JOIN ups p ON p.repo = l.repo AND p.path = l.path AND p.rn = 2
"""


def q_markov_next_accuracy(sf_dir: str):
    """Markov next-event prediction eval — how predictable is each
    user's stream under the corpus-wide first-order model: the global
    transition matrix (exact integer counts, one keyed exchange via
    stages/analytics.transition_counts) elects argmax(count, tie →
    lexicographically smallest next type) per current type; the
    broadcast predictor then scores every consecutive pair in a second
    per-key pass. Output per user: pairs, hits, exact ppm accuracy —
    all int64 (the eval loop is two groupby.shifts, never a row loop)."""
    from arlas_proc_ray.stages.analytics import transition_counts

    ds = _events(sf_dir, columns=["user_id", "event_id", "event_type"])
    tm = transition_counts(
        ds, key_col="user_id", order_col="event_id",
        state_col="event_type", num_partitions=NP,
    )
    if hasattr(tm, "to_pandas"):
        tm = tm.to_pandas()
    best = (
        tm.sort_values(["from_state", "n", "to_state"],
                       ascending=[True, False, True], kind="mergesort")
        .groupby("from_state", sort=False)
        .head(1)
    )
    pred = dict(zip(best["from_state"], best["to_state"]))
    import ray as _ray

    pred_ref = _ray.put(pred)

    def score(pdf: pd.DataFrame) -> pd.DataFrame:
        p = _ray.get(pred_ref)
        pdf = pdf.sort_values("event_id", kind="mergesort")
        g = pdf.groupby("user_id", sort=False)
        nxt = g["event_type"].shift(-1)
        keep = nxt.notna().to_numpy()
        guessed = pdf["event_type"].map(p)
        hits = (nxt.to_numpy() == guessed.to_numpy()) & keep
        out = pd.DataFrame(
            {
                "user_id": pdf["user_id"].to_numpy(),
                "pairs": keep.astype(np.int64),
                "hits": hits.astype(np.int64),
            }
        )
        return out.groupby("user_id", sort=False, as_index=False).sum()

    parts = keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=score,
        num_partitions=NP,
    ).to_pandas()
    out = parts.groupby("user_id", as_index=False)[["pairs", "hits"]].sum()
    out["accuracy_ppm"] = (
        out["hits"] * 1_000_000 // out["pairs"].clip(lower=1)
    ).astype("int64")
    return out.astype({"pairs": "int64", "hits": "int64"})


QUERIES["markov_next_accuracy"] = q_markov_next_accuracy

ORACLE_SQL["markov_next_accuracy"] = """
    WITH seq AS (
      SELECT user_id, event_type AS cur,
             lead(event_type) OVER (PARTITION BY user_id
                                    ORDER BY event_id) AS nxt
      FROM events),
    tc AS (SELECT cur AS from_type, nxt AS to_type, count(*) AS n
           FROM seq WHERE nxt IS NOT NULL GROUP BY 1, 2),
    best AS (SELECT from_type, to_type,
                    row_number() OVER (PARTITION BY from_type
                                       ORDER BY n DESC, to_type ASC) AS rk
             FROM tc),
    pred AS (SELECT from_type, to_type FROM best WHERE rk = 1)
    SELECT s.user_id,
           CAST(count(*) AS BIGINT) AS pairs,
           CAST(sum(CASE WHEN s.nxt = p.to_type THEN 1 ELSE 0 END)
                AS BIGINT) AS hits,
           CAST(sum(CASE WHEN s.nxt = p.to_type THEN 1 ELSE 0 END)
                * 1000000 // GREATEST(count(*), 1) AS BIGINT)
             AS accuracy_ppm
    FROM seq s JOIN pred p ON p.from_type = s.cur
    WHERE s.nxt IS NOT NULL
    GROUP BY 1
"""


def q_write_amplification(sf_dir: str):
    """Per-repo write amplification of the change stream — total change
    events vs surviving live rows (the compaction-planning metric: a
    repo at 50× amplification wants delta epochs + tighter vacuum).
    Exact integers: one combiner pass counts (repo, path)-level events
    and final ops; live rows derive from the same per-key last-op scan
    the LWW engine performs; amplification reported as exact ppm."""
    ds = _events_changelog(sf_dir)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("lsn", kind="mergesort")
        g = pdf.groupby(["repo", "path"], sort=False)
        last = g.tail(1)
        per_key = g.size().reset_index(name="n")
        live = last[last["op"] != "DELETE"][["repo", "path"]].assign(
            live=np.int64(1)
        )
        out = per_key.merge(live, on=["repo", "path"], how="left")
        out["live"] = out["live"].fillna(0).astype("int64")
        return (
            out.groupby("repo", sort=False, as_index=False)
            .agg(n_changes=("n", "sum"), live_rows=("live", "sum"))
        )

    parts = keyed_partition_map(
        ds, keys=["repo", "path"], order_col="lsn", fn=fn,
        num_partitions=NP,
    ).to_pandas()
    out = parts.groupby("repo", as_index=False)[
        ["n_changes", "live_rows"]
    ].sum()
    out["amplification_ppm"] = (
        out["n_changes"] * 1_000_000 // out["live_rows"].clip(lower=1)
    ).astype("int64")
    return out.astype({"n_changes": "int64", "live_rows": "int64"})


QUERIES["write_amplification"] = q_write_amplification

ORACLE_SQL["write_amplification"] = f"""
    WITH ch AS ({_CHANGELOG_SQL}),
    per_key AS (SELECT repo, path, count(*) AS n,
                       arg_max(op, lsn) AS last_op
                FROM ch GROUP BY 1, 2)
    SELECT repo,
           CAST(sum(n) AS BIGINT) AS n_changes,
           CAST(sum(CASE WHEN last_op <> 'DELETE' THEN 1 ELSE 0 END)
                AS BIGINT) AS live_rows,
           CAST(sum(n) * 1000000
                // GREATEST(sum(CASE WHEN last_op <> 'DELETE'
                                THEN 1 ELSE 0 END), 1) AS BIGINT)
             AS amplification_ppm
    FROM per_key GROUP BY 1
"""


def q_session_entry_exit(sf_dir: str):
    """Distribution of (entry event type, exit event type) over gap
    sessions (same 43200 s definition as `sessionize`): which type
    opens a session and which closes it — the funnel-boundary profile.
    One keyed exchange; entry/exit are vectorized first/last per
    session segment inside the partition, then a tiny (pair, n) fold."""
    ds = _events(sf_dir, columns=["event_id", "user_id", "ts", "event_type"])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        # the kit delivers (user_id, event_id)-sorted rows — each user's
        # sessions are CONTIGUOUS, which the break-cumsum segmentation
        # requires (re-sorting by event_id alone would interleave users)
        g = pdf.groupby("user_id", sort=False)
        prev = g["ts"].shift(1)
        dur = _dur_s(pdf["ts"], prev)
        seg = (prev.isna() | (dur > GAP_S)).cumsum()
        gb = pdf.groupby(seg, sort=False)
        pairs = pd.DataFrame(
            {
                "entry_type": gb["event_type"].first(),
                "exit_type": gb["event_type"].last(),
            }
        )
        return (
            pairs.groupby(["entry_type", "exit_type"], sort=False)
            .size()
            .reset_index(name="n_sessions")
        )

    parts = keyed_partition_map(
        ds, keys=["user_id"], order_col="event_id", fn=fn,
        num_partitions=NP,
    ).to_pandas()
    out = parts.groupby(
        ["entry_type", "exit_type"], as_index=False
    )["n_sessions"].sum()
    return out.astype({"n_sessions": "int64"})


QUERIES["session_entry_exit"] = q_session_entry_exit

ORACLE_SQL["session_entry_exit"] = f"""
    WITH o AS (
      SELECT user_id, event_id, event_type,
             CASE WHEN lag(ts) OVER w IS NULL
                   OR date_diff('microsecond', lag(ts) OVER w, ts)
                      / 1000000.0 > 43200
                  THEN 1 ELSE 0 END AS brk
      FROM events {{_W}}),
    s AS (
      SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY event_id
                               ROWS UNBOUNDED PRECEDING) AS seg
      FROM o),
    se AS (SELECT user_id, seg,
                  arg_min(event_type, event_id) AS entry_type,
                  arg_max(event_type, event_id) AS exit_type
           FROM s GROUP BY 1, 2)
    SELECT entry_type, exit_type,
           CAST(count(*) AS BIGINT) AS n_sessions
    FROM se GROUP BY 1, 2
"""
ORACLE_SQL["session_entry_exit"] = ORACLE_SQL["session_entry_exit"].replace(
    "{_W}", _W
)
