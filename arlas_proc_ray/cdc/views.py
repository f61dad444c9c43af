"""Incrementally-maintained materialized views over the snapshot store.

``refresh_group_view`` keeps a per-group aggregate (live-row count +
column sums) of a snapshot store's state table, refreshed epoch-over-
epoch by DELTA PROPAGATION instead of recomputation: each refresh takes
the I/U/D rows and old images between the last REFRESHED epoch and the
target from the change feed's per-partition step
(``cdc/feed.py:partition_feed``, the same shuffle-free, index-pruned
diff the search-index publish sends), turns every row into signed
deltas — retract the OLD image from its group, assert the NEW image
into its (possibly different) group — pre-aggregates them per
partition, and folds the tiny per-partition partials into the persisted
view state. A bootstrap is the feed from nothing: every live row is an
assert.

This is the store-resident sibling of ``cdc/ivm.py`` (which maintains
the same algebra from a flowing changelog): ``ivm.py`` never sees the
state table; this module never sees the changelog — it derives exact
deltas from two immutable snapshot epochs, so it also absorbs
compaction, rollback and out-of-band rewrites that never appeared as
change events.

Reference parity: ARLAS-proc recomputes every aggregate from scratch
each run (e.g. fragments/FragmentSummaryTransformer.scala's groupBy
over the re-read slice); maintaining the aggregate from epoch diffs is
the CDC-native replacement.

Scale shape (the 100 TB argument):

- **No shuffle.** Both epochs share the store's hash fan-out; one Ray
  task per partition runs the feed's diff of its two immutable
  partitions and pre-aggregates. Only ``partitions x groups`` tiny
  partial rows reach the driver fold.
- **Metadata pruning.** A partition whose resolved source epoch is
  unchanged since the last refresh is skipped without reading a byte —
  a sparse epoch over a 100 TB table refreshes only the partitions its
  events touched.
- **Exact fold.** Count deltas are signed int64; integer sum columns
  stay int64, so a group retracted to zero members cancels exactly and
  is dropped (float sums carry the usual residue — documented, and the
  catalog oracle uses an integer measure).
- **Crash-safe.** The view state parquet is written atomically and the
  checkpoint (epoch, fan-out, column spec, state file) moves only after
  the state is durable; a crashed refresh re-runs the same diff from
  the same base. The refreshed epoch is pinned with a store ref
  (``view-<id>``) so vacuum keeps the next refresh's base readable.
- **Fan-out changes** (``repartition_snapshot``) break per-partition
  file alignment; the refresh falls back to a full recompute — the feed
  from nothing, still one shuffle-free partial-agg pass — and re-aligns
  from there.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from arlas_proc_ray.cdc.feed import partition_feed
from arlas_proc_ray.cdc.snapshot import (
    SnapshotStore,
    _atomic_write_bytes,
    _read_json,
)


def _view_dir(store: SnapshotStore) -> str:
    return os.path.join(store.root, "views")


def _checkpoint_path(store: SnapshotStore, view_id: str) -> str:
    return os.path.join(_view_dir(store), f"{view_id}.json")


def _state_path(store: SnapshotStore, view_id: str, epoch: int) -> str:
    return os.path.join(_view_dir(store), f"{view_id}-state-{epoch}.parquet")


def read_view_checkpoint(store: SnapshotStore, view_id: str) -> dict | None:
    return _read_json(_checkpoint_path(store, view_id))


def read_view(store: SnapshotStore, view_id: str) -> pd.DataFrame:
    """The persisted view state at its last refreshed epoch."""
    import pyarrow.parquet as pq

    ckpt = read_view_checkpoint(store, view_id)
    if ckpt is None:
        raise RuntimeError(f"view {view_id!r} has never been refreshed")
    return pq.read_table(
        os.path.join(_view_dir(store), ckpt["state_file"])
    ).to_pandas()


def _agg_partial(
    pdf: pd.DataFrame, group_cols: list[str], sum_cols: list[str]
) -> pd.DataFrame:
    """Per-group (count, sums) partial over one frame of signed rows.

    ``pdf`` must carry ``_n`` (+1 assert / -1 retract) and the sum
    columns already signed. NULL sum values contribute 0 (SQL SUM skips
    NULLs; an all-NULL group folds to 0 here where SQL yields NULL —
    the one documented divergence). Grouping is byte-exact (Arrow-backed
    strings) so NUL-embedded group keys stay distinct.
    """
    from arlas_proc_ray.stages.keyed import (
        byte_exact_group_cols,
        restore_object_cols,
    )

    for c in sum_cols:
        signed = pd.to_numeric(pdf[c], errors="raise")
        if pd.api.types.is_float_dtype(signed):
            pdf[c] = signed.fillna(0.0)
        else:
            # nullable Int64 -> exact int64 with NULLs as 0
            pdf[c] = signed.astype("Int64").fillna(0).astype(np.int64)
    pdf = byte_exact_group_cols(pdf, group_cols)
    out = (
        pdf.groupby(group_cols, dropna=False, sort=False, as_index=False)[
            ["_n"] + sum_cols
        ]
        .sum()
        .reset_index(drop=True)
    )
    return restore_object_cols(out, group_cols)


def _minmax_partial(
    pdf: pd.DataFrame, group_cols: list[str], minmax_cols: list[str]
) -> pd.DataFrame:
    """Per-group min/max partial (columns ``<c>_min`` / ``<c>_max``).

    NaN-skipping like SQL MIN/MAX; an all-NULL group yields NULL.
    Byte-exact grouping as in ``_agg_partial``.
    """
    from arlas_proc_ray.stages.keyed import (
        byte_exact_group_cols,
        restore_object_cols,
    )

    pdf = byte_exact_group_cols(pdf[group_cols + minmax_cols], group_cols)
    g = pdf.groupby(group_cols, dropna=False, sort=False)
    lo = g[minmax_cols].min()
    hi = g[minmax_cols].max()
    out = lo.rename(columns={c: f"{c}_min" for c in minmax_cols}).join(
        hi.rename(columns={c: f"{c}_max" for c in minmax_cols})
    ).reset_index()
    return restore_object_cols(out, group_cols)


def _fold_minmax(
    frames: list[pd.DataFrame], group_cols: list[str], minmax_cols: list[str]
) -> pd.DataFrame:
    """Fold per-group min/max partials (semilattice: min of mins…)."""
    from arlas_proc_ray.stages.keyed import (
        byte_exact_group_cols,
        restore_object_cols,
    )

    cat = pd.concat(frames, ignore_index=True)
    cat = byte_exact_group_cols(cat, group_cols)
    g = cat.groupby(group_cols, dropna=False, sort=False)
    lo = g[[f"{c}_min" for c in minmax_cols]].min()
    hi = g[[f"{c}_max" for c in minmax_cols]].max()
    return restore_object_cols(lo.join(hi).reset_index(), group_cols)


def _deltas_from_diff(
    diff: pd.DataFrame,
    old_images: pd.DataFrame,
    group_cols: list[str],
    sum_cols: list[str],
) -> pd.DataFrame | None:
    """Signed delta rows from one partition's I/U/D changelog.

    I/U rows assert the NEW image (+1, +values) into the new group; U/D
    rows retract the OLD image (-1, -values) from the old group — an
    update that moves a key between groups decrements one and increments
    the other, exactly the IVM algebra of ``cdc/ivm.py``.
    """
    ops = diff["op"].to_numpy()
    cols = group_cols + sum_cols
    parts = []
    new_mask = (ops == "I") | (ops == "U")
    if new_mask.any():
        a = diff.loc[new_mask, cols].copy()
        a["_n"] = np.int64(1)
        parts.append(a)
    old_mask = (ops == "U") | (ops == "D")
    if old_mask.any():
        # positional: old_images carries the reindex labels (-1 on I rows)
        r = old_images.iloc[np.flatnonzero(old_mask)][cols].copy()
        r.reset_index(drop=True, inplace=True)
        for c in sum_cols:
            r[c] = -pd.to_numeric(r[c], errors="raise").fillna(0)
        r["_n"] = np.int64(-1)
        parts.append(r)
    if not parts:
        return None
    return pd.concat(parts, ignore_index=True)


def refresh_group_view(
    store: SnapshotStore,
    *,
    view_id: str,
    group_cols: Sequence[str],
    sum_cols: Sequence[str] = (),
    minmax_cols: Sequence[str] = (),
    key_cols: Sequence[str] = ("repo", "path"),
    epoch: int | str | None = None,
    count_name: str = "n_live",
    full: bool = False,
    commit_checkpoint: bool = True,
) -> dict:
    """Refresh (or bootstrap) a per-group aggregate view of the state.

    Returns ``{"state": DataFrame(group_cols + [count_name] +
    ["<c>_sum" ...] + ["<c>_min", "<c>_max" ...]), "epoch",
    "base_epoch", "mode", "partitions_refreshed",
    "partitions_skipped"}``. The state equals
    ``SELECT group_cols, count(*), sum(c)..., min(m)..., max(m)...
    FROM <state at epoch> GROUP BY group_cols`` (groups with zero live
    rows absent), however it was reached — bootstrap and any chain of
    incremental refreshes agree exactly for integer measures.

    ``minmax_cols``: MIN/MAX are only SEMI-incremental — an assert
    folds (``min(old_min, new)``), but a retraction that removes the
    current extreme cannot be undone from the aggregate alone. The
    refresh therefore folds asserts cheaply and RECOMPUTES exactly the
    groups that received any retraction, in one column-pruned pass over
    the target state filtered to those groups (``recomputed_groups`` in
    the result counts them). Retraction-free epochs pay nothing extra.
    """
    import ray

    group_cols = list(group_cols)
    sum_cols = list(sum_cols)
    minmax_cols = list(minmax_cols)
    key_cols = list(key_cols)
    target = store._resolve_epoch_arg(epoch)
    if target is None:
        raise RuntimeError("no committed epoch to refresh from")
    tgt = store.partition_layouts(target)
    num_partitions = len(tgt)

    ckpt = None if full else read_view_checkpoint(store, view_id)
    spec = {
        "group_cols": group_cols,
        "sum_cols": sum_cols,
        "key_cols": key_cols,
    }
    if minmax_cols:  # absent key keeps old checkpoints (no forced rebuild)
        spec["minmax_cols"] = minmax_cols
    if ckpt is not None and (
        ckpt.get("spec") != spec
        or not os.path.exists(
            os.path.join(_view_dir(store), ckpt["state_file"])
        )
    ):
        ckpt = None  # column-spec drift -> full recompute
    base = ckpt["epoch"] if ckpt else None

    if base == target:
        return {
            "view_id": view_id, "epoch": target, "base_epoch": base,
            "mode": "noop", "partitions_refreshed": 0,
            "partitions_skipped": num_partitions,
            "state": read_view(store, view_id),
        }

    image_cols = list(dict.fromkeys(group_cols + sum_cols + minmax_cols))
    feed_args = {
        "key_cols": key_cols,
        "compare_cols": sorted(set(image_cols) - set(key_cols)),
        "columns": image_cols,
        "include_old": image_cols,
    }
    plan = None if base is None else partition_feed(
        store, base, target, **feed_args
    )
    if plan is None:  # bootstrap, or a fan-out change -> full recompute
        base = None
        plan = partition_feed(store, None, target, **feed_args)
    todo, diff_partition = plan
    skipped = num_partitions - len(todo)

    @ray.remote(num_cpus=0.5)
    def partition_partial(part: int):
        """Returns (sum_partial, minmax_assert_partial, retracted_groups)."""
        diff = diff_partition(part)
        if not len(diff):
            return None, None, None
        old_images = diff[[f"old_{c}" for c in image_cols]].set_axis(
            image_cols, axis=1
        )
        deltas = _deltas_from_diff(diff, old_images, group_cols, sum_cols)
        mm = None
        retracted = None
        if minmax_cols:
            ops = diff["op"].to_numpy()
            new_mask = (ops == "I") | (ops == "U")
            if new_mask.any():
                mm = _minmax_partial(
                    diff.loc[new_mask, group_cols + minmax_cols],
                    group_cols,
                    minmax_cols,
                )
            old_mask = (ops == "U") | (ops == "D")
            if old_mask.any():
                retracted = (
                    old_images.iloc[np.flatnonzero(old_mask)][group_cols]
                    .drop_duplicates()
                    .reset_index(drop=True)
                )
        if deltas is None and mm is None and retracted is None:
            return None, None, None
        sum_p = (
            _agg_partial(deltas, group_cols, sum_cols)
            if deltas is not None
            else None
        )
        return sum_p, mm, retracted

    triples = ray.get([partition_partial.remote(p) for p in todo])
    partials = [s for s, _, _ in triples if s is not None and len(s)]
    mm_asserts = [m for _, m, _ in triples if m is not None and len(m)]
    retracted_frames = [r for _, _, r in triples if r is not None and len(r)]
    prior_full = read_view(store, view_id) if base is not None else None
    prior = None
    if prior_full is not None:
        prior = prior_full[
            group_cols + [count_name] + [f"{c}_sum" for c in sum_cols]
        ].rename(
            columns={count_name: "_n", **{f"{c}_sum": c for c in sum_cols}}
        )
    frames = ([prior] if prior is not None else []) + partials
    if frames:
        folded = _agg_partial(
            pd.concat(frames, ignore_index=True), group_cols, sum_cols
        )
        folded = folded[folded["_n"] != 0].reset_index(drop=True)
    else:
        folded = pd.DataFrame(
            {**{c: [] for c in group_cols}, "_n": pd.Series([], dtype=np.int64),
             **{c: [] for c in sum_cols}}
        )
    state = folded.rename(
        columns={"_n": count_name, **{c: f"{c}_sum" for c in sum_cols}}
    )

    n_recomputed = 0
    if minmax_cols:
        mm_cols = [f"{c}_min" for c in minmax_cols] + [
            f"{c}_max" for c in minmax_cols
        ]
        mm_frames = list(mm_asserts)
        if prior_full is not None:
            mm_frames.append(prior_full[group_cols + mm_cols])
        assert_fold = (
            _fold_minmax(mm_frames, group_cols, minmax_cols)
            if mm_frames
            else pd.DataFrame(columns=group_cols + mm_cols)
        )
        if retracted_frames:
            affected = (
                pd.concat(retracted_frames, ignore_index=True)
                .drop_duplicates()
                .reset_index(drop=True)
            )
            n_recomputed = len(affected)
            recomputed = _recompute_group_minmax(
                store, tgt, affected, group_cols, minmax_cols,
            )
            # recomputed values REPLACE the fold for affected groups
            # (merge-based anti-join: byte-exact on object strings)
            marked = assert_fold.merge(
                affected.assign(_aff=1), on=group_cols, how="left"
            )
            assert_fold = marked[marked["_aff"].isna()].drop(columns=["_aff"])
            assert_fold = pd.concat(
                [assert_fold, recomputed], ignore_index=True
            )
        state = state.merge(assert_fold, on=group_cols, how="left")

    state = state.sort_values(group_cols, kind="stable").reset_index(drop=True)

    out = {
        "view_id": view_id,
        "epoch": target,
        "base_epoch": base,
        "mode": "bootstrap" if base is None else "incremental",
        "partitions_refreshed": len(todo),
        "partitions_skipped": skipped,
        "recomputed_groups": n_recomputed,
        "state": state,
    }
    if commit_checkpoint:
        _commit_view(store, view_id, out, num_partitions, spec)
    return out


def _recompute_group_minmax(
    store: SnapshotStore,
    tgt: list,
    affected: pd.DataFrame,
    group_cols: list[str],
    minmax_cols: list[str],
) -> pd.DataFrame:
    """Exact min/max for the retraction-affected groups: one
    column-pruned pass over the target state, filtered per partition to
    those groups (group columns are NOT the partition key, so every
    partition may hold their rows — this pass is the honest price of
    retraction-sensitive aggregates; the affected-group table is tiny
    and broadcast once)."""
    import ray

    aff_ref = ray.put(affected)
    read_cols = sorted(set(group_cols + minmax_cols))

    @ray.remote(num_cpus=0.5)
    def part_minmax(part: int) -> pd.DataFrame | None:
        t = store.read_resolved(tgt[part], part)
        if t is None or t.num_rows == 0:
            return None
        pdf = t.select(
            [c for c in read_cols if c in t.column_names]
        ).to_pandas()
        pdf = pdf.merge(ray.get(aff_ref), on=group_cols, how="inner")
        if not len(pdf):
            return None
        return _minmax_partial(pdf, group_cols, minmax_cols)

    parts = [
        r
        for r in ray.get(
            [part_minmax.remote(p) for p in range(len(tgt))]
        )
        if r is not None and len(r)
    ]
    if not parts:
        cols = group_cols + [f"{c}_min" for c in minmax_cols] + [
            f"{c}_max" for c in minmax_cols
        ]
        return pd.DataFrame(columns=cols)
    return _fold_minmax(parts, group_cols, minmax_cols)


def _commit_view(
    store: SnapshotStore,
    view_id: str,
    out: dict,
    num_partitions: int,
    spec: dict,
) -> None:
    import pyarrow.parquet as pq

    os.makedirs(_view_dir(store), exist_ok=True)
    state_file = os.path.basename(_state_path(store, view_id, out["epoch"]))
    sink = pa.BufferOutputStream()
    pq.write_table(pa.Table.from_pandas(out["state"], preserve_index=False), sink)
    _atomic_write_bytes(
        os.path.join(_view_dir(store), state_file), sink.getvalue().to_pybytes()
    )
    ckpt = {
        "view_id": view_id,
        "epoch": out["epoch"],
        "num_partitions": num_partitions,
        "spec": spec,
        "state_file": state_file,
        "last_refresh": {
            k: out[k]
            for k in ("base_epoch", "mode", "partitions_refreshed",
                      "partitions_skipped")
        },
    }
    _atomic_write_bytes(
        _checkpoint_path(store, view_id), json.dumps(ckpt).encode()
    )
    # pin the refreshed epoch so vacuum keeps the next refresh's base readable
    store.tag(f"view-{view_id}", out["epoch"])
    # drop superseded state files (the checkpoint already points away)
    for f in os.listdir(_view_dir(store)):
        if (
            f.startswith(f"{view_id}-state-")
            and f.endswith(".parquet")
            and f != state_file
        ):
            try:
                os.remove(os.path.join(_view_dir(store), f))
            except OSError:
                pass


def refresh_distinct_view(
    store: SnapshotStore,
    *,
    view_id: str,
    group_cols: Sequence[str],
    value_col: str,
    key_cols: Sequence[str] = ("repo", "path"),
    epoch: int | str | None = None,
    full: bool = False,
) -> dict:
    """Exact incremental COUNT(DISTINCT value_col) per group.

    Composition, not new machinery: the maintained state is the
    (group…, value) live-row count view — delta propagation keeps each
    pair's count exact through I/U/D and group/value moves — and the
    distinct count is the per-group row count of that state (pairs with
    zero live rows drop out of it, so presence == "value still occurs").
    The rollup is a tiny driver groupby over the pair table; the pair
    table itself is the honest cost of EXACT distinct counting (an
    approximate sketch cannot retract — see ROADMAP for the HLL
    trade-off note).

    Returns the ``refresh_group_view`` dict with ``state`` replaced by
    ``DataFrame(group_cols + ["n_distinct"])`` and the pair view kept
    under ``pair_state``.
    """
    group_cols = list(group_cols)
    r = refresh_group_view(
        store,
        view_id=view_id,
        group_cols=group_cols + [value_col],
        key_cols=key_cols,
        epoch=epoch,
        full=full,
    )
    pairs = r["state"]
    from arlas_proc_ray.stages.keyed import (
        byte_exact_group_cols,
        restore_object_cols,
    )

    g = byte_exact_group_cols(pairs.copy(), group_cols)
    out = (
        g.groupby(group_cols, dropna=False, sort=False)
        .size()
        .rename("n_distinct")
        .reset_index()
    )
    out["n_distinct"] = out["n_distinct"].astype(np.int64)
    out = restore_object_cols(out, group_cols)
    out = out.sort_values(group_cols, kind="stable").reset_index(drop=True)
    return {**r, "pair_state": pairs, "state": out}


def refresh_topk_view(
    store: SnapshotStore,
    *,
    view_id: str,
    group_cols: Sequence[str],
    value_col: str,
    k: int,
    key_cols: Sequence[str] = ("repo", "path"),
    epoch: int | str | None = None,
    full: bool = False,
) -> dict:
    """Exact incremental per-group top-``k`` heavy hitters of
    ``value_col`` by live-row count.

    Same composition as ``refresh_distinct_view``: the maintained state
    is the (group…, value) live-row-count pair view — delta propagation
    keeps every pair's count exact through I/U/D and group/value moves,
    and retractions just work (the failure mode that forces approximate
    top-k sketches like SpaceSaving to over-report) — and the top-k is
    a rollup of that state: per group, the ``k`` values with the
    largest counts, ties broken by ascending value bytes so the result
    is deterministic and SQL-reproducible
    (``row_number() OVER (PARTITION BY g ORDER BY n DESC, v) <= k``).

    Returns the ``refresh_group_view`` dict with ``state`` replaced by
    ``DataFrame(group_cols + [value_col, "n_live"])`` (≤ k rows per
    group) and the pair view kept under ``pair_state``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    group_cols = list(group_cols)
    r = refresh_group_view(
        store,
        view_id=view_id,
        group_cols=group_cols + [value_col],
        key_cols=key_cols,
        epoch=epoch,
        full=full,
    )
    pairs = r["state"]
    from arlas_proc_ray.stages.keyed import (
        byte_exact_group_cols,
        restore_object_cols,
    )

    g = byte_exact_group_cols(pairs.copy(), group_cols + [value_col])
    g = g.sort_values(
        group_cols + ["n_live", value_col],
        ascending=[True] * len(group_cols) + [False, True],
        kind="mergesort",
    )
    out = (
        g.groupby(group_cols, dropna=False, sort=False)
        .head(k)
        .reset_index(drop=True)
    )
    out = restore_object_cols(out, group_cols + [value_col])
    out = out.sort_values(
        group_cols + ["n_live", value_col],
        ascending=[True] * len(group_cols) + [False, True],
        kind="mergesort",
    ).reset_index(drop=True)
    out["n_live"] = out["n_live"].astype(np.int64)
    return {**r, "pair_state": pairs, "state": out}
