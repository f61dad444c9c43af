"""Watermark-cut fan-in of sharded change feeds.

A sharded upstream (per-shard WALs, Debezium topic partitions) delivers
one logical change log as K individually-ordered but mutually SKEWED
source feeds — one shard can lag whole epochs behind the others. The
engine's exactly-once fence drops any event at or below a partition's
applied ``last_lsn`` (cdc/engine.py apply contract) — that is exactly
what makes epoch re-application idempotent after a crash — so epochs
must be GLOBALLY LSN-monotone: feeding skewed shards straight in lets a
lagging shard's genuinely-new low-LSN events arrive below an
already-advanced watermark and be silently dropped as replay
duplicates. Both behaviors are pinned in
tests/test_fanin_invariance.py.

:func:`fanin_cut` is the standard fix (the same move as Kafka consumer
group offsets / Flink's min-over-inputs watermark): an epoch may carry
exactly the events with ``prev_cut < lsn ≤ W`` where ``W = min`` over
sources of the high-water mark each source has durably DELIVERED.
Everything above W stays in the sources' spools for a later epoch.

Scale shape: the cut itself is pure metadata — one int per source on
the driver, nothing buffers driver-side. Event rows stream through one
vectorized lsn-range filter per source Dataset plus a union, materialized
once in the object store to read the highest lsn the cut carries; the
per-source Datasets are whatever the caller's spool serves (the
directory tailer's parquet-bytes segments, a read_parquet over spool
files, a decoded wire feed), re-servable by range exactly like
cdc/tailer.py's two-phase file cursor.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def fanin_cut(
    sources: dict,
    highwater: dict,
    *,
    prev_cut: int = -1,
    lsn_col: str = "lsn",
):
    """One consistent epoch from K skewed source feeds.

    ``sources`` maps source name → Dataset of change events (any engine
    schema version, each ordered or not — only the range filter cares);
    ``highwater`` maps the SAME names → the highest lsn that source has
    durably delivered so far (its spool cursor). Returns
    ``(epoch_ds, new_cut)`` with ``epoch_ds`` (materialized) carrying
    exactly the rows ``prev_cut < lsn ≤ new_cut`` across all sources, or
    ``(None, prev_cut)`` when no source progress is cuttable yet (the
    lagging shard gates the watermark — correctness over freshness) or
    the cuttable range holds no event. ``new_cut`` is the highest lsn
    the epoch carries — a real log position, never a high-water sentinel.

    Applying each returned epoch in order keeps every partition's
    applied-lsn watermark monotone, so the engine's idempotency fence
    never mistakes late shard data for replay duplicates.

    Closed-source convention: a source that has reached end-of-stream
    must report the GLOBAL max (or any larger value, conceptually +∞) as
    its high-water — otherwise its last own lsn gates W forever and the
    other shards' tail events never cut (pinned in the drain test).
    """
    if set(sources) != set(highwater):
        raise ValueError("sources and highwater must cover the same keys")
    if not sources:
        return None, prev_cut
    w = min(int(v) for v in highwater.values())
    if w <= prev_cut:
        return None, prev_cut

    lo, hi = prev_cut, w

    def in_range(t: pa.Table) -> pa.Table:
        col = t.column(lsn_col)
        return t.filter(
            pc.and_(pc.greater(col, lo), pc.less_equal(col, hi))
        )

    out = None
    for name in sorted(sources):
        sl = sources[name].map_batches(
            in_range, batch_format="pyarrow", batch_size=None
        )
        out = sl if out is None else out.union(sl)
    # clamp W to the highest REAL lsn the cut carries (as FaninTailer
    # does), so a closed source's +inf high-water never becomes the cut:
    # a persisted sentinel cut would gate every later epoch for ever
    out = out.materialize()
    real = out.max(lsn_col) if out.count() else None
    if real is None:
        return None, prev_cut
    return out, int(real)


class FaninTailer:
    """K shard segment DIRECTORIES → watermark-cut epochs on one engine:
    :class:`~arlas_proc_ray.cdc.tailer.SegmentTailer`'s two-phase
    exactly-once file accounting composed with :func:`fanin_cut`'s
    watermark math.

    Each shard is a directory parquet segments keep landing in,
    LSN-ORDERED PER SHARD (the binlog-segment guarantee; mutually the
    shards are arbitrarily skewed). A shard's delivered high-water is
    the max ``lsn`` statistic over its landed segments — read from
    parquet FOOTER METADATA, zero data bytes; a ``_CLOSED`` sentinel
    file lifts the shard's gate to +∞ (end-of-stream). Every poll cuts
    at ``W = min`` over shards and applies exactly the rows
    ``cut < lsn ≤ W`` — a straddling segment is read again next poll,
    but its already-applied rows fall below the advanced cut, so no row
    ever applies twice (and the engine's LSN fences would absorb it
    even if it did).

    Crash accounting mirrors SegmentTailer: an INTENT ``{epoch, lo, hi,
    files}`` lands atomically before the apply — resume re-applies the
    SAME cut under the SAME epoch (partition fences skip finished
    partitions); the cursor ``{cut, consumed-per-shard}`` advances only
    after the commit, marking fully-below-cut segments consumed so a
    10^10-event tail never re-reads applied terabytes.
    """

    def __init__(
        self,
        engine,
        shard_dirs: dict,
        *,
        lsn_col: str = "lsn",
        apply=None,
        committed_fn=None,
    ):
        if not shard_dirs:
            raise ValueError("shard_dirs must be non-empty")
        self.engine = engine
        self.shard_dirs = dict(shard_dirs)
        self.lsn_col = lsn_col
        self.apply = apply
        self.committed_fn = committed_fn

    # ---- state -----------------------------------------------------------

    @property
    def _state_dir(self) -> str:
        import os

        return os.path.join(self.engine.store.root, "_fanin_tailer")

    @property
    def _cursor_path(self) -> str:
        import os

        return os.path.join(self._state_dir, "cursor.json")

    @property
    def _intent_path(self) -> str:
        import os

        return os.path.join(self._state_dir, "intent.json")

    def _read(self, path: str):
        import json
        import os

        if not os.path.exists(path):
            return None
        with open(path) as f:
            return json.load(f)

    def _cursor(self) -> dict:
        c = self._read(self._cursor_path)
        if c is None:
            return {"cut": -1, "consumed": {s: [] for s in self.shard_dirs}}
        c["consumed"] = {
            s: list(c["consumed"].get(s, [])) for s in self.shard_dirs
        }
        return c

    def _committed(self):
        if self.committed_fn is not None:
            return self.committed_fn()
        return self.engine.store.latest_committed_epoch()

    # ---- segment metadata --------------------------------------------------

    def _segment_range(self, path: str):
        """(min, max) of the lsn column from the parquet footer — no
        data pages touched."""
        import pyarrow.parquet as pq

        md = pq.read_metadata(path)
        idx = md.schema.to_arrow_schema().get_field_index(self.lsn_col)
        lo, hi = None, None
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(idx).statistics
            if st is None or not st.has_min_max:  # fall back to a read
                import pyarrow.parquet as _pq

                col = _pq.read_table(path, columns=[self.lsn_col]).column(0)
                import pyarrow.compute as pc

                return (
                    pc.min(col).as_py(),
                    pc.max(col).as_py(),
                )
            lo = st.min if lo is None else min(lo, st.min)
            hi = st.max if hi is None else max(hi, st.max)
        return int(lo), int(hi)

    def _list(self, shard: str):
        import os

        d = self.shard_dirs[shard]
        if not os.path.isdir(d):
            return []
        return sorted(
            f for f in os.listdir(d)
            if f.endswith(".parquet") and not f.endswith(".tmp")
        )

    def _closed(self, shard: str) -> bool:
        import os

        return os.path.exists(os.path.join(self.shard_dirs[shard], "_CLOSED"))

    # ---- one cadence -------------------------------------------------------

    def _dataset_for(self, files: dict, lo: int, hi: int):
        import os

        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data as rd

        def in_range(t: pa.Table) -> pa.Table:
            col = t.column(self.lsn_col)
            return t.filter(
                pc.and_(pc.greater(col, lo), pc.less_equal(col, hi))
            )

        out = None
        for shard in sorted(files):
            if not files[shard]:
                continue
            paths = [
                os.path.join(self.shard_dirs[shard], f) for f in files[shard]
            ]
            ds = rd.read_parquet(paths).map_batches(
                in_range, batch_format="pyarrow", batch_size=None
            )
            out = ds if out is None else out.union(ds)
        return out

    def _apply(self, ds, epoch: int) -> dict:
        if self.apply is not None:
            return self.apply(self.engine, ds, epoch)
        return self.engine.apply_epoch(ds, epoch)

    def _advance(self, files: dict, cut: int) -> None:
        import os

        cur = self._cursor()
        for shard, fl in files.items():
            done = [
                f for f in fl
                if self._segment_range(
                    os.path.join(self.shard_dirs[shard], f)
                )[1] <= cut
            ]
            cur["consumed"][shard] = sorted(
                set(cur["consumed"][shard]) | set(done)
            )
        cur["cut"] = cut
        _fanin_atomic_write(self._cursor_path, cur)

    def poll(self) -> dict:
        """One cadence: ``{epoch, lo, hi, files, applied}``."""
        import os

        committed = self._committed()
        intent = self._read(self._intent_path)
        if intent is not None:
            e, lo, hi = int(intent["epoch"]), int(intent["lo"]), int(intent["hi"])
            files = {s: list(v) for s, v in intent["files"].items()}
            if committed is None or committed < e:
                self._apply(self._dataset_for(files, lo, hi), e)
            self._advance(files, hi)
            os.unlink(self._intent_path)
            return {"epoch": e, "lo": lo, "hi": hi, "files": files,
                    "applied": True, "resumed": True}

        cur = self._cursor()
        cut = int(cur["cut"])
        pending: dict = {}
        hws: dict = {}
        for shard in self.shard_dirs:
            seen = set(cur["consumed"][shard])
            fresh = [f for f in self._list(shard) if f not in seen]
            ranges = {
                f: self._segment_range(
                    os.path.join(self.shard_dirs[shard], f)
                )
                for f in fresh
            }
            hw = max([cut] + [r[1] for r in ranges.values()])
            if self._closed(shard):
                hw = 1 << 62
            hws[shard] = hw
            pending[shard] = ranges
        # clamp the closed-shard +inf gates to the highest REAL delivered
        # lsn, so the cursor's cut stays a true log position (all-closed
        # polls cut exactly at the global max, not at the sentinel)
        real = [
            r[1] for rngs in pending.values() for r in rngs.values()
        ] + [cut]
        w = min(min(hws.values()), max(real))
        if w <= cut:
            return {"epoch": committed, "lo": cut, "hi": cut, "files": {},
                    "applied": False}

        files = {
            shard: sorted(f for f, r in rngs.items() if r[0] <= w)
            for shard, rngs in pending.items()
        }
        epoch = (committed or 0) + 1
        _fanin_atomic_write(
            self._intent_path,
            {"epoch": epoch, "lo": cut, "hi": w, "files": files},
        )
        self._apply(self._dataset_for(files, cut, w), epoch)
        self._advance(files, w)
        os.unlink(self._intent_path)
        return {"epoch": epoch, "lo": cut, "hi": w, "files": files,
                "applied": True}

    def run_until_idle(self, max_polls: int = 1_000_000) -> list:
        out = []
        for _ in range(max_polls):
            r = self.poll()
            out.append(r)
            if not r["applied"]:
                break
        return out


def _fanin_atomic_write(path: str, payload: dict) -> None:
    from arlas_proc_ray.cdc.tailer import _atomic_write_json

    _atomic_write_json(path, payload)
