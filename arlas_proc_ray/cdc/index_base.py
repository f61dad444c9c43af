"""Shared machinery for incrementally-maintained partitioned indexes.

Three index families ride the same skeleton over a snapshot store — the
MinHash-LSH near-dup index (``dedup/incremental.py``), the IVF vector
index (``ann/incremental.py``) and the secondary value→key index
(``cdc/secondary.py``): rows live in ``<store.root>/<kind>/<index_id>/
part-<p>-<epoch>.parquet`` files; a ``checkpoint.json`` (written LAST,
atomically) records the indexed epoch, the spec and the per-partition
source epochs; a refresh computes ±delta rows (from the full state at
bootstrap, from the change data feed afterwards), routes them to their
partitions with ONE keyed exchange, and each touched partition applies
removals as a byte-exact anti-join and additions as a dedup-append,
rewritten atomically under the new epoch suffix.

The contract every subclass inherits:

- **Refresh cost ∝ changed rows** after bootstrap (the feed is
  index-pruned; only touched partitions rewrite).
- **Byte-exact identity.** Anti-joins encode string identity columns to
  UTF-8 bytes (pandas object-string merges collapse NUL-distinct keys).
- **Crash-safe / idempotent.** Parts first, checkpoint last; a rerun
  recomputes the same deltas from the same base and overwrites the same
  files. ``commit_checkpoint=False`` simulates the crash in tests.
- **Spec drift / store fan-out change → full rebuild**, never silent
  corruption (a repartitioned store breaks the feed's pre-images).
- **Vacuum on commit**: part files no longer referenced by the new
  checkpoint are deleted (the checkpoint already points away).

Subclasses define the row schema, the identity columns, how state /
feed batches become ±delta rows, and how rows route to partitions.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from arlas_proc_ray.cdc.snapshot import (
    SnapshotStore,
    _atomic_write_bytes,
    _read_json,
)


def state_dataset(store: SnapshotStore, epoch: int, columns):
    """The store's live state at ``epoch`` as a pruned-column Dataset.

    One read task per part file: the store's partitions ARE the
    parallelism unit (their count is sized to the cluster), and letting
    Ray shard small files into dozens of sliver blocks multiplies the
    downstream exchange's ref bookkeeping (measured: a 4-part store read
    ballooned to 128 blocks → 0.8 s of split/gather submission for a
    16-partition fold that does ~10 ms of work per task)."""
    return store.state_dataset(
        epoch, list(columns),
        override_num_blocks=max(1, len(store.epoch_files(epoch))),
    )


class IncrementalPartitionedIndex:
    """Template for an epoch-maintained partitioned index over a store.

    Subclasses set ``kind`` (directory name, doubles as the ref prefix),
    ``schema`` (the part-file Arrow schema), ``identity_cols`` (what a
    removal matches on; string/binary columns compare byte-exact) and
    ``keep`` ("first": re-adds of an existing identity are dropped;
    "last": they replace — use "last" when a row carries a payload that
    updates), and implement ``bootstrap_deltas`` / ``feed_deltas`` /
    ``route``.
    """

    kind: str = "index"
    schema: pa.Schema
    identity_cols: Sequence[str]
    keep: str = "first"
    # Optional shared inputs a fused orchestrator may inject before the
    # delta build (subclasses that support them read these in
    # bootstrap_deltas / feed_deltas). They are CLEARED once deltas are
    # built: the fold closures capture ``self``, and a materialized
    # Dataset riding in a task closure re-ships with every group task.
    shared_state = None
    shared_feed = None

    def __init__(self, store: SnapshotStore, index_id: str,
                 spec: dict, num_partitions: int):
        self.store = store
        self.index_id = index_id
        self.spec = spec
        self.num_partitions = num_partitions

    # ----------------------------------------------------------- hooks
    def bootstrap_deltas(self, target: int):
        """Dataset of schema rows + ``delta`` (+1) from the full state."""
        raise NotImplementedError

    def feed_deltas(self, base: int, target: int):
        """Dataset of schema rows + ``delta`` (±1) from the change feed."""
        raise NotImplementedError

    def route(self, table: pa.Table) -> np.ndarray:
        """int32 partition id per row (must be stable across epochs)."""
        raise NotImplementedError

    def extra_checkpoint(self) -> dict:
        """Subclass-owned payload persisted beside the spec."""
        return {}

    def on_loaded_checkpoint(self, ckpt: dict) -> None:
        """Called when an existing checkpoint is adopted for a refresh."""

    def is_noop(self, base: int, target: int, ckpt: dict) -> bool:
        """Whether nothing changed since ``base`` (override when the
        index also tracks state outside the host store, e.g. a second
        store's epoch)."""
        return base == target

    # ------------------------------------------------------------ paths
    def dir(self) -> str:
        return os.path.join(self.store.root, self.kind, self.index_id)

    def part_path(self, p: int, epoch: int) -> str:
        return os.path.join(self.dir(), f"part-{p}-{epoch}.parquet")

    def ref_name(self) -> str:
        return f"{self.kind}-{self.index_id}"

    # ------------------------------------------------------- empty rows
    def _empty_pd(self) -> pd.DataFrame:
        cols = {}
        for f in self.schema:
            if pa.types.is_integer(f.type):
                cols[f.name] = pd.Series([], dtype=f.type.to_pandas_dtype())
            elif pa.types.is_floating(f.type):
                cols[f.name] = pd.Series([], dtype=np.float64)
            else:
                cols[f.name] = pd.Series([], dtype=object)
        return pd.DataFrame(cols)

    def empty_rows_arrow(self, delta: bool = False) -> pa.Table:
        """Arrow typed empty (Ray's pandas block sizing chokes on
        zero-length object columns)."""
        cols = {f.name: pa.array([], f.type) for f in self.schema}
        if delta:
            cols["delta"] = pa.array([], pa.int8())
        return pa.table(cols)

    # --------------------------------------------------------- part io
    def read_part(self, p: int, epoch) -> pd.DataFrame:
        import pyarrow.parquet as pq

        if epoch is None:
            return self._empty_pd()
        path = self.part_path(p, int(epoch))
        if not os.path.exists(path):
            return self._empty_pd()
        pdf = pq.read_table(path).to_pandas()
        for f in self.schema:  # preserve unsigned width through pandas
            if pa.types.is_unsigned_integer(f.type):
                pdf[f.name] = pdf[f.name].astype(f.type.to_pandas_dtype())
        return pdf

    def write_part(self, p: int, epoch: int, pdf: pd.DataFrame) -> None:
        import pyarrow.parquet as pq

        os.makedirs(self.dir(), exist_ok=True)
        arrays = []
        for f in self.schema:
            if pa.types.is_integer(f.type):
                arrays.append(pa.array(
                    pdf[f.name].to_numpy(f.type.to_pandas_dtype()), f.type
                ))
            elif pa.types.is_binary(f.type):
                arrays.append(pa.array(list(pdf[f.name]), f.type))
            else:
                arrays.append(pa.array(pdf[f.name].astype(object), f.type))
        tbl = pa.Table.from_arrays(arrays, schema=self.schema)
        sink = pa.BufferOutputStream()
        pq.write_table(tbl, sink)
        _atomic_write_bytes(self.part_path(p, epoch),
                            sink.getvalue().to_pybytes())

    # ------------------------------------------------------- checkpoint
    def read_checkpoint(self) -> dict | None:
        return _read_json(os.path.join(self.dir(), "checkpoint.json"))

    # ---------------------------------------------------------- refresh
    _STATS_SCHEMA = pa.schema(
        [("part", pa.int64()), ("rows", pa.int64()),
         ("added", pa.int64()), ("removed", pa.int64())]
    )

    def _staged_fold(self, deltas, fold, *, bootstrap: bool) -> pd.DataFrame:
        """Route deltas by the precomputed ``_part`` id and fold per
        partition through ``stages.keyed.staged_partition_apply``.

        The delta volume per refresh is changed-rows-sized (tiny in the
        incremental steady state, state-sized only at bootstrap), so the
        Dataset sort-groupby's sample/sort/re-block machinery dominated
        the actual routing work (measured ~1.4 s to route 1200 rows to 8
        partitions). Untouched partitions short-circuit without a part
        rewrite (refresh cost stays ∝ changed rows); at bootstrap every
        partition folds so every part file exists. Stats
        rows (one per partition) are the only driver traffic.
        """
        from arlas_proc_ray.stages.keyed import staged_partition_apply

        def fold_wrap(p: int, group):
            if group is None:  # bootstrap partition with zero delta rows
                group = self._empty_pd().assign(
                    delta=pd.Series([], dtype=np.int8)
                )
            return fold(p, group)

        stats = staged_partition_apply(
            deltas,
            num_partitions=self.num_partitions,
            fn=fold_wrap,
            empty_result=(
                None if bootstrap
                else self._STATS_SCHEMA.empty_table()
            ),
        ).to_pandas()
        return stats.reset_index(drop=True)

    def _identity_key(self, pdf: pd.DataFrame) -> pd.DataFrame:
        """Byte-exact comparable copies of the identity columns."""
        out = {}
        for c in self.identity_cols:
            s = pdf[c]
            if s.dtype == object:
                f = self.schema.field(c)
                if pa.types.is_binary(f.type):
                    out[f"_id_{c}"] = s.map(bytes)
                else:
                    out[f"_id_{c}"] = s.astype(str).str.encode("utf-8")
            else:
                out[f"_id_{c}"] = s
        return pdf.assign(**out)

    def plan(self, *, epoch=None, full: bool = False) -> dict:
        """Resolve the refresh endpoints WITHOUT doing any work:
        ``{"target", "base", "ckpt", "noop"}`` — ``base`` is None when a
        bootstrap is required (no/drifted/fan-out-broken checkpoint),
        ``noop`` carries the short-circuit result dict when nothing
        changed. Split out of :meth:`refresh` so :func:`fused_refresh`
        can plan several kits before building any deltas."""
        store = self.store
        target = store._resolve_epoch_arg(epoch)
        if target is None:
            raise RuntimeError("no committed epoch to index")
        ckpt = None if full else self.read_checkpoint()
        if ckpt is not None and ckpt.get("spec") != self.spec:
            ckpt = None  # parameter drift: rows incomparable -> rebuild
        base = ckpt["epoch"] if ckpt else None
        if base is not None and store.changed_partitions(base, target) is None:
            # store fan-out changed: the feed cannot supply pre-images
            # for removals across the boundary -> rebuild from state
            ckpt, base = None, None
        if ckpt is not None:
            self.on_loaded_checkpoint(ckpt)

        noop = None
        if base is not None and self.is_noop(base, target, ckpt):
            noop = {
                "index_id": self.index_id, "epoch": target,
                "base_epoch": base, "mode": "noop",
                "partitions_touched": 0, "sources": dict(ckpt["sources"]),
            }
        return {"target": target, "base": base, "ckpt": ckpt, "noop": noop}

    def tagged_deltas(self, base, target):
        """The refresh's delta Dataset aligned to ``schema + delta``,
        with the routed ``_part`` id appended."""
        deltas = (
            self.bootstrap_deltas(target) if base is None
            else self.feed_deltas(base, target)
        )

        def add_part(t: pa.Table) -> pa.Table:
            # align to the index schema first: a pandas all-None column
            # arrives null-typed from the delta map, and the resulting
            # block-schema drift would make every downstream unify warn
            arrays = [t.column(f.name).cast(f.type) for f in self.schema]
            arrays.append(t.column("delta").cast(pa.int8()))
            t = pa.Table.from_arrays(
                arrays,
                schema=pa.schema(
                    list(self.schema) + [pa.field("delta", pa.int8())]
                ),
            )
            pid = self.route(t)
            return t.append_column(
                "_part", pa.array(np.asarray(pid, np.int32), pa.int32())
            )

        return deltas.map_batches(
            add_part, batch_format="pyarrow", batch_size=None
        )

    def make_fold(self, sources: dict, target: int):
        """Per-partition fold closure: apply removals/adds over the old
        part image, write the new part at ``target``, return a stats
        row. ``sources`` is the live per-partition epoch map the caller
        later commits."""
        row_cols = [f.name for f in self.schema]
        id_tmp = [f"_id_{c}" for c in self.identity_cols]

        def fold(p: int, group: pd.DataFrame) -> pd.DataFrame:
            old = self.read_part(p, sources.get(str(p)))
            d = group["delta"].to_numpy()
            adds = group.loc[d > 0, row_cols]
            rems = group.loc[d < 0, row_cols]
            if len(rems) and len(old):
                ok_ = self._identity_key(old)
                rk = self._identity_key(rems)
                m = ok_.merge(
                    rk[id_tmp].drop_duplicates(),
                    on=id_tmp, how="left", indicator=True,
                )
                old = m.loc[m["_merge"] == "left_only", row_cols]
                old = old.reset_index(drop=True)
            new = pd.concat([old, adds], ignore_index=True)
            if len(new):
                dup = self._identity_key(new).duplicated(id_tmp,
                                                         keep=self.keep)
                new = new.loc[~dup].reset_index(drop=True)
            self.write_part(p, target, new)
            return pd.DataFrame(
                {"part": [p], "rows": [len(new)],
                 "added": [int(len(adds))], "removed": [int(len(rems))]}
            )

        return fold

    def refresh(self, *, epoch=None, full: bool = False,
                commit_checkpoint: bool = True) -> dict:
        plan = self.plan(epoch=epoch, full=full)
        if plan["noop"] is not None:
            return plan["noop"]
        base, target, ckpt = plan["base"], plan["target"], plan["ckpt"]
        deltas = self.tagged_deltas(base, target)
        self.shared_state = None  # never let a Dataset ride the fold
        self.shared_feed = None   # closure (re-shipped per group task)
        sources = dict(ckpt["sources"]) if ckpt else {}
        fold = self.make_fold(sources, target)
        stats = self._staged_fold(deltas, fold, bootstrap=base is None)
        return self.commit(
            stats, sources, base, target, commit_checkpoint
        )

    def commit(self, stats: pd.DataFrame, sources: dict, base, target,
               commit_checkpoint: bool) -> dict:
        """Adopt the fold's stats rows into the per-partition source
        map, fill bootstrap holes with empty parts, write the
        checkpoint + ref tag, GC dead part files."""
        store = self.store
        for _, r in stats.iterrows():
            sources[str(int(r["part"]))] = target
        if base is None:
            # partitions with no rows still need a defined (empty) source
            for p in range(self.num_partitions):
                if str(p) not in sources:
                    self.write_part(p, target, self._empty_pd())
                    sources[str(p)] = target

        out = {
            "index_id": self.index_id,
            "epoch": target,
            "base_epoch": base,
            "mode": "bootstrap" if base is None else "incremental",
            "partitions_touched": int(len(stats)),
            "rows_added": int(stats["added"].sum()) if len(stats) else 0,
            "rows_removed": int(stats["removed"].sum()) if len(stats) else 0,
            "sources": sources,
        }
        if commit_checkpoint:
            ckpt_out = {
                "index_id": self.index_id, "epoch": target,
                "spec": self.spec, "sources": sources,
                **self.extra_checkpoint(),
                "last_refresh": {
                    k: out[k]
                    for k in ("base_epoch", "mode", "partitions_touched",
                              "rows_added", "rows_removed")
                },
            }
            _atomic_write_bytes(
                os.path.join(self.dir(), "checkpoint.json"),
                json.dumps(ckpt_out).encode(),
            )
            store.tag(self.ref_name(), target)
            live = {f"part-{p}-{e}.parquet" for p, e in sources.items()}
            for f in os.listdir(self.dir()):
                if f.startswith("part-") and f not in live:
                    try:
                        os.remove(os.path.join(self.dir(), f))
                    except OSError:
                        pass
        return out

    def read_all(self) -> pd.DataFrame:
        """The whole index as one frame (tests / small corpora only)."""
        ckpt = self.read_checkpoint()
        if ckpt is None:
            raise RuntimeError(
                f"index {self.index_id!r} has never been refreshed"
            )
        parts = [
            self.read_part(int(p), e)
            for p, e in sorted(ckpt["sources"].items(),
                               key=lambda kv: int(kv[0]))
        ]
        return (
            pd.concat(parts, ignore_index=True) if parts else self._empty_pd()
        )


def fused_refresh(planned, *, commit_checkpoint: bool = True) -> list[dict]:
    """Refresh several kits through ONE routed exchange.

    ``planned``: list of ``(kit, plan)`` pairs where ``plan`` came from
    ``kit.plan()`` and is not a noop. Kits may live on different stores;
    each keeps its own partition space — kit *i*'s rows route to the
    global partition id ``offset_i + local_part`` (offsets are the
    running sum of earlier kits' ``num_partitions``). Delta schemas are
    unioned by column NAME into one envelope (same-named columns must
    carry the same Arrow type; columns a kit lacks ride as nulls) plus
    an int64 ``kind`` for the fold dispatch and per-kit stats split.

    Why: every staged fold costs one Dataset materialize plus one
    raw-task exchange of fixed overhead; N index refreshes driven off
    the same epoch collapse to ONE of each. The join view's fk
    secondary index and view rows previously paid two full rounds
    back-to-back per refresh — the fused path halves that (measured at
    sf0.1: see BASELINE.md round-5 addendum).

    Incremental semantics are preserved per kit: when no kit
    bootstraps, untouched partitions short-circuit without a part
    rewrite; when some kit bootstraps, only THAT kit's empty partitions
    fold (feed-mode kits' untouched partitions still cost nothing).
    """
    from arlas_proc_ray.stages.keyed import staged_partition_apply

    if not planned:
        return []
    offsets, off = [], 0
    for kit, _ in planned:
        offsets.append(off)
        off += kit.num_partitions
    total_p = off

    fields: dict[str, pa.DataType] = {}
    for kit, _ in planned:
        for f in list(kit.schema) + [pa.field("delta", pa.int8())]:
            prev = fields.get(f.name)
            if prev is not None and prev != f.type:
                raise ValueError(
                    f"fused_refresh: column {f.name!r} has conflicting "
                    f"types {prev} vs {f.type}"
                )
            fields[f.name] = f.type
    env_schema = pa.schema(
        [pa.field(n, t) for n, t in fields.items()]
        + [pa.field("kind", pa.int64()), pa.field("_part", pa.int32())]
    )

    union = None
    for i, (kit, plan) in enumerate(planned):
        d = kit.tagged_deltas(plan["base"], plan["target"])

        def to_env(t: pa.Table, i=i, offi=offsets[i]) -> pa.Table:
            import pyarrow.compute as pc

            arrays = []
            for n, typ in fields.items():
                if n in t.column_names:
                    arrays.append(t.column(n).cast(typ))
                else:
                    arrays.append(pa.nulls(t.num_rows, typ))
            arrays.append(
                pa.array(np.full(t.num_rows, i, np.int64), pa.int64())
            )
            arrays.append(
                pc.add(t.column("_part").cast(pa.int32()),
                       pa.scalar(offi, pa.int32())).cast(pa.int32())
            )
            return pa.Table.from_arrays(arrays, schema=env_schema)

        d = d.map_batches(to_env, batch_format="pyarrow", batch_size=None)
        union = d if union is None else union.union(d)

    all_sources, folds, boot = [], [], []
    for kit, _ in planned:
        kit.shared_state = None  # see class attr note: fold closures
        kit.shared_feed = None   # capture the kits
    for kit, plan in planned:
        src = dict(plan["ckpt"]["sources"]) if plan["ckpt"] else {}
        all_sources.append(src)
        folds.append(kit.make_fold(src, plan["target"]))
        boot.append(plan["base"] is None)
    any_bootstrap = any(boot)
    empty_stats = pa.table(
        {
            "part": pa.array([], pa.int64()),
            "rows": pa.array([], pa.int64()),
            "added": pa.array([], pa.int64()),
            "removed": pa.array([], pa.int64()),
            "kind": pa.array([], pa.int64()),
        }
    )

    def fold_wrap(p: int, group):
        i = 0
        for j, o in enumerate(offsets):
            if p >= o:
                i = j
        kit, _ = planned[i]
        local = p - offsets[i]
        if group is None or not len(group):
            if not boot[i]:  # feed-mode kit: untouched partition is free
                return empty_stats
            group = kit._empty_pd().assign(
                delta=pd.Series([], dtype=np.int8)
            )
        else:
            cols = [f.name for f in kit.schema] + ["delta"]
            group = group[cols].reset_index(drop=True)
        out = folds[i](local, group)
        out["kind"] = np.int64(i)
        return out

    stats_all = staged_partition_apply(
        union,
        num_partitions=total_p,
        fn=fold_wrap,
        empty_result=None if any_bootstrap else empty_stats,
    ).to_pandas()

    outs = []
    for i, (kit, plan) in enumerate(planned):
        s = (
            stats_all[stats_all["kind"] == i]
            .drop(columns=["kind"])
            .reset_index(drop=True)
            if len(stats_all)
            else stats_all.drop(columns=["kind"], errors="ignore")
        )
        outs.append(
            kit.commit(s, all_sources[i], plan["base"], plan["target"],
                       commit_checkpoint)
        )
    return outs
