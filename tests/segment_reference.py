"""A test-only copy of the per-partition steps a CDC epoch ran before its
group pass: ``cdc_segment`` per partition, then a ``write_delta_group``
that overlays, hashes, bounds and blooms each partition on its own; and
every base (a first epoch, a fold, a carry-forward, a PATCH) through
``reference_base``, the kernel ``apply_partition`` with the fold
``cdc_fold`` as they were: concat, fence, prior read, finalize, hash,
then ``write_partition`` deriving each manifest field from its own rows.

``reference_apply_group`` has ``staged._apply_group``'s signature, so a
test swaps it in (``monkeypatch.setattr(staged, "_apply_group", ...)``)
for an in-process exchange and compares the store it writes with the
group pass's: the same group file rows, base file rows and index rows,
``apply_s`` aside. Nothing in the package imports this module.
"""

from __future__ import annotations

import json
import os
import time
from typing import NamedTuple

import pyarrow as pa
import pyarrow.compute as pc

from arlas_proc_ray.cdc.engine import _events_as_merge_rows, _state_as_merge_rows
from arlas_proc_ray.cdc.events import FINAL_STATE_SCHEMA
from arlas_proc_ray.cdc.patch import table_has_patches
from arlas_proc_ray.cdc.replay import finalize_partition_table, lww_reduce_table
from arlas_proc_ray.cdc.snapshot import (
    _SEGMENT_BLOOM_MIN_BITS,
    _SEGMENTS_KEY,
    _STATS_MAX_STR,
    DELETED,
    Segment,
    _bloom_build,
    _delta_name,
    _durable_parquet,
    _overlay,
    _segment_manifest,
    _version,
    _zone_maps,
)
from arlas_proc_ray.exchange import partition_views
from arlas_proc_ray.functions.hashing import sha256_hex, sha256_rollup


class DeltaWrite(NamedTuple):
    part: int
    rows: pa.Table
    prior: object
    last_lsn: int
    metrics: dict


def cdc_segment(dm, ev, prior_last: int):
    """One partition's segment: fence, LWW, hash, tombstone rows."""
    events_in = ev.num_rows
    watermark = max(prior_last, int(pc.max(ev.column("lsn")).as_py()))
    if prior_last >= 0:
        ev = ev.filter(pc.greater(ev.column("lsn"), pa.scalar(prior_last)))
    applied = ev.num_rows
    if not applied:
        return None, watermark, (events_in, events_in, 0)
    ev = lww_reduce_table(ev, dm.key_cols, dm.order_col)
    deleted = pc.equal(ev.column("op"), pa.scalar("DELETE")).combine_chunks()
    live = pc.invert(deleted)
    sha = pa.nulls(ev.num_rows, pa.string())
    if pc.any(live).as_py():
        sha = pc.replace_with_mask(
            sha, live, sha256_hex(ev.column("content").filter(live)).combine_chunks())
    arrays = []
    for f in FINAL_STATE_SCHEMA:
        if f.name == "content_sha256":
            arrays.append(sha)
            continue
        col = ev.column(dm.order_col if f.name == "last_lsn" else f.name)
        col = col if col.type == f.type else pc.cast(col, f.type)
        if f.name not in (*dm.key_cols, "last_lsn"):
            col = pc.if_else(deleted, pa.scalar(None, f.type), col)
        arrays.append(col)
    arrays.append(deleted)
    rows = pa.Table.from_arrays(
        arrays, schema=FINAL_STATE_SCHEMA.append(pa.field(DELETED, pa.bool_())))
    return rows, watermark, (events_in, events_in - applied, applied)


def cdc_fold(dm, ev, prior, prior_last: int):
    """One partition's fold: fence, then finalize of events ∪ prior."""
    if ev is None:
        return None, prior_last, (0, 0, 0)
    events_in = ev.num_rows
    watermark = max(prior_last, int(pc.max(ev.column("lsn")).as_py()))
    if prior_last >= 0:
        ev = ev.filter(pc.greater(ev.column("lsn"), pa.scalar(prior_last)))
    applied = ev.num_rows
    if not applied:
        return None, watermark, (events_in, events_in, 0)
    inputs = [_events_as_merge_rows(ev)]
    if prior is not None and prior.num_rows:
        inputs.append(_state_as_merge_rows(prior))
    final = finalize_partition_table(
        pa.concat_tables(inputs, promote_options="default"), dm)
    return final, watermark, (events_in, events_in - applied, applied)


def reference_base(ctx, dm, p: int, views: list, resumed: dict):
    """One partition as a base: resume fence, prior read, ``cdc_fold``,
    reference or carry-forward when nothing applies, ``fault_hook``,
    then ``write_partition`` on the partition's own rows."""
    store, epoch, prior = ctx.store, ctx.epoch, ctx.prior.get(p)
    if p in resumed:
        return resumed[p]
    if store.base_done(epoch, p):
        return store.read_manifest(epoch, p)
    t0 = time.perf_counter()
    prior_last = -1 if prior is None else prior.last_lsn
    live = [t for t in views if t.num_rows]
    ev = pa.concat_tables(live, promote_options="default") if live else None
    state = None if prior is None else store.read_resolved(prior, p)
    final, watermark, (e_in, dropped, applied) = cdc_fold(
        dm, ev, state, prior_last)
    if final is None:
        if ctx.delta_for(p) and prior is not None:
            return int(prior.epoch)
        final = state if state is not None else FINAL_STATE_SCHEMA.empty_table()
    if ctx.fault_hook is not None:
        ctx.fault_hook(epoch, p)
    return store.write_partition(epoch, p, final, last_lsn=watermark, metrics={
        "events_in": e_in, "fence_dropped": dropped, "events_applied": applied,
        "apply_s": round(time.perf_counter() - t0, 4)})


def _exact_stats(live: pa.Table) -> dict:
    import pyarrow.types as pt

    stats = {}
    for name in live.column_names:
        t = live.schema.field(name).type
        if not (pt.is_integer(t) or pt.is_string(t) or pt.is_large_string(t)):
            continue
        mm = pc.min_max(live.column(name))
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        if lo is None or (isinstance(lo, str) and (
                len(lo) > _STATS_MAX_STR or len(hi) > _STATS_MAX_STR)):
            continue
        stats[name] = [lo, hi]
    return stats


def write_delta_group(store, epoch: int, key_cols, segments: list) -> list:
    """The group file, its manifest fields derived partition by partition."""
    keys = list(key_cols)
    cols = list(dict.fromkeys([*keys, "content_sha256", "last_lsn"]))
    fetched = store._read_segments(
        [s for w in segments for s in w.prior.chain], [*cols, DELETED])
    entries = []
    for w in segments:
        pieces = [w.rows.select([*cols, DELETED])]
        pieces += [fetched[s.place()] for s in reversed(w.prior.chain)]
        if w.prior.base_rows:
            pieces.append(store.read_partition(w.prior.epoch, w.part, columns=cols))
        live = _overlay(pieces, keys)
        n = live.num_rows
        surviving = int(pc.max(live.column("last_lsn")).as_py()) if n else -1
        entries.append({
            "col_stats": _exact_stats(live),
            "partition": w.part, "rows": w.rows.num_rows,
            "base": w.prior.epoch, "base_rows": w.prior.base_rows,
            "chain": [[s.epoch, s.file, s.row_group, s.rows]
                      for s in w.prior.chain],
            "last_lsn": max(int(w.last_lsn), surviving),
            "max_surviving_lsn": surviving, "row_count": n,
            "sha256_rollup": sha256_rollup(
                live.column("content_sha256") if n else []),
            "metrics": dict(w.metrics),
        })
    footer = {"keys": keys, "segments": entries}
    rows = pa.concat_tables([w.rows for w in segments]).replace_schema_metadata(
        {_SEGMENTS_KEY: json.dumps(footer).encode()})
    name = _delta_name(epoch, [w.part for w in segments])
    path = os.path.join(store.epoch_dir(epoch), name)
    md = _durable_parquet(path, rows, compression=store.compression,
                          group_rows=[w.rows.num_rows for w in segments])
    store._remember_footer(path, _version(path), md, footer)
    return [
        _segment_manifest(entry, Segment(
            epoch, name, rg, entry["rows"],
            {c: _bloom_build(w.rows.column(c), w.rows.num_rows,
                             _SEGMENT_BLOOM_MIN_BITS) for c in keys}),
            _zone_maps(md, rows.schema, [rg]), w.prior)
        for rg, (w, entry) in enumerate(zip(segments, entries))
    ]


def reference_apply_group(ctx, parts, *inputs) -> list:
    """The group body with the per-partition segment and base steps, for
    a CDC epoch (the epoch's other writers keep their own folds)."""
    dm = ctx.segment.args[0] if ctx.segment is not None else None
    resumed = ctx.store.delta_manifests(ctx.epoch, ctx.prior)
    results = []
    for p in parts:
        views = partition_views(inputs, p)
        if (dm is not None and ctx.segments(p) and p not in resumed
                and not ctx.store.base_done(ctx.epoch, p)):
            t0 = time.perf_counter()
            live = [t for t in views if t.num_rows]
            ev = pa.concat_tables(live, promote_options="default") if live else None
            if ev is not None and not table_has_patches(ev):
                prior = ctx.prior[p]
                rows, watermark, (e_in, dropped, applied) = cdc_segment(
                    dm, ev, prior.last_lsn)
                if rows is not None:
                    if ctx.fault_hook is not None:
                        ctx.fault_hook(ctx.epoch, p)
                    results.append(DeltaWrite(p, rows, prior, watermark, {
                        "events_in": e_in, "fence_dropped": dropped,
                        "events_applied": applied,
                        "apply_s": round(time.perf_counter() - t0, 4)}))
                    continue
                if ctx.delta_for(p):
                    results.append(int(prior.epoch))
                    continue
        results.append(reference_base(ctx, dm, p, views, resumed))
    deltas = [r for r in results if isinstance(r, DeltaWrite)]
    if not deltas:
        return results
    written = iter(write_delta_group(ctx.store, ctx.epoch, ctx.key_list, deltas))
    return [next(written) if isinstance(r, DeltaWrite) else r for r in results]
