"""Streaming CDC variant: long-lived merge actors holding Arrow state.

The batch engine (cdc/engine.py) keeps state on disk (merge-on-read); this
variant keeps each partition's current state IN a long-lived actor — the
north-star's "pool of stateful merge actors that each maintain an
Arrow-backed last-writer-wins table (commit-ordered LSN per key)". Use it
when epochs are small and frequent (tailing), where re-reading the prior
snapshot per epoch would dominate; use the batch engine for bulk replay.

Routing: a ``map_batches`` task splits each incoming batch by partition id
and ships sub-tables to the owning actor (``ingest``), awaiting the acks
before the task returns — so when the routing dataset finishes, every event
of the epoch is buffered at its actor. ``commit_epoch`` then applies the
buffer in LSN order (out-of-order delivery within the epoch is tolerated by
construction), merges into the actor's state table, and writes the same
epoch-fenced snapshot + manifest as the batch engine — both engines are
interchangeable on one snapshot store, and crash-recovery reloads actor
state from the last committed epoch.

Why raw actors (not a Dataset op): a shared mutable per-partition index
that must SURVIVE across epochs is exactly the case the Dataset API cannot
express (Ray Data actor pools are per-execution).
"""

from __future__ import annotations

import time

import pyarrow as pa
import pyarrow.compute as pc

import ray

from arlas_proc_ray.cdc.engine import _events_as_merge_rows, _state_as_merge_rows
from arlas_proc_ray.cdc.events import FINAL_STATE_SCHEMA, default_registry
from arlas_proc_ray.cdc.replay import (
    PART_COL,
    finalize_partition_table,
    lww_reduce_table,
)
from arlas_proc_ray.cdc.snapshot import SnapshotStore
from arlas_proc_ray.functions.hashing import partition_ids
from arlas_proc_ray.model import DataModel


# num_cpus=0: a long-lived actor must not hold CPU that the epoch's
# tasks wait for — with a reservation, P actors on a 1-CPU session
# starve the routing task and the epoch never finishes.
@ray.remote(num_cpus=0)
class MergeActor:
    """Owns one partition: buffered epoch events + current LWW state.

    The ingest buffer is BOUNDED two ways:

    - ``compact_rows`` (combinable merges): once buffered rows exceed it,
      the buffer is collapsed with the LWW combiner (associative — keep
      the max-lsn event per key, DELETEs included), so actor memory is
      O(live keys in the partition), not O(epoch events).
    - ``spill_bytes`` (any merge, incl. NON-combinable ones where
      compaction cannot shrink the payload): past the byte budget the
      buffer spills to Parquet under ``<snapshot_dir>/.spill/`` and is
      read back at commit. Spill files are epoch-scratch only — they are
      wiped on actor (re)construction and after every commit; a crash
      before commit just re-delivers the epoch (at-least-once + the
      watermark fence), so stale spill must never be replayed.

    Set ``combinable=False`` to disable LWW compaction (e.g. when the
    buffered rows feed a custom non-associative merge) — memory is then
    bounded by ``spill_bytes`` alone. The epoch watermark is tracked at
    ingest time, before any combine or tombstone drop, so the fence never
    regresses.
    """

    def __init__(
        self,
        partition_id: int,
        snapshot_dir: str,
        dm: DataModel,
        compact_rows: int = 100_000,
        spill_bytes: int = 256 * 1024 * 1024,
        combinable: bool = True,
    ):
        import os
        import shutil

        self.part = partition_id
        self.dm = dm
        self.store = SnapshotStore(snapshot_dir, bloom_cols=dm.key_list)
        self.compact_rows = compact_rows
        self.spill_bytes = spill_bytes
        self.combinable = combinable
        self.spill_dir = os.path.join(snapshot_dir, ".spill", f"part={partition_id}")
        shutil.rmtree(self.spill_dir, ignore_errors=True)  # stale scratch
        self.spill_seq = 0
        self.spilled_files: list[str] = []
        self.buffer: list[pa.Table] = []
        self.buffered_rows = 0
        self.buffered_bytes = 0
        self.epoch_max_lsn = -1  # max lsn SEEN this epoch (pre-combine)
        self.state: pa.Table | None = None
        self.last_lsn = -1
        e = self.store.latest_committed_epoch()
        if e is not None:
            self.state = self.store.read_partition_resolved(e, self.part)
            m = self.store.read_manifest_resolved(e, self.part)
            self.last_lsn = m.last_lsn if m else -1

    def _spill(self):
        import os

        import pyarrow.parquet as pq

        os.makedirs(self.spill_dir, exist_ok=True)
        path = os.path.join(self.spill_dir, f"buf-{self.spill_seq}.parquet")
        pq.write_table(
            pa.concat_tables(self.buffer, promote_options="default"), path
        )
        self.spill_seq += 1
        self.spilled_files.append(path)
        self.buffer = []
        self.buffered_rows = 0
        self.buffered_bytes = 0

    def ingest(self, table: pa.Table) -> int:
        if table.num_rows:
            self.epoch_max_lsn = max(
                self.epoch_max_lsn, int(pc.max(table.column("lsn")).as_py())
            )
            self.buffer.append(table)
            self.buffered_rows += table.num_rows
            self.buffered_bytes += table.nbytes
            if self.combinable and self.buffered_rows > self.compact_rows:
                combined = lww_reduce_table(
                    pa.concat_tables(self.buffer, promote_options="default"),
                    self.dm.key_cols,
                    self.dm.order_col,
                )
                self.buffer = [combined]
                self.buffered_rows = combined.num_rows
                self.buffered_bytes = combined.nbytes
            if self.buffered_bytes > self.spill_bytes and self.buffer:
                self._spill()
        return table.num_rows

    def _buffered_tables(self) -> list[pa.Table]:
        import pyarrow.parquet as pq

        return [pq.read_table(p) for p in self.spilled_files] + list(self.buffer)

    def _reset_epoch_buffer(self):
        import shutil

        self.buffer.clear()
        self.buffered_rows = 0
        self.buffered_bytes = 0
        self.epoch_max_lsn = -1
        if self.spilled_files:
            self.spilled_files = []
            shutil.rmtree(self.spill_dir, ignore_errors=True)

    def commit_epoch(self, epoch: int) -> dict:
        if self.store.partition_done(epoch, self.part):  # resume fence
            m = self.store.read_manifest(epoch, self.part)
            self._reset_epoch_buffer()
            self.state = self.store.read_partition(epoch, self.part)
            self.last_lsn = m.last_lsn
            return {"partition_id": self.part, "row_count": m.row_count}

        t0 = time.perf_counter()
        watermark = max(self.last_lsn, self.epoch_max_lsn)
        inputs = []
        events_in = applied = 0
        buffered = self._buffered_tables()
        if buffered:
            ev = pa.concat_tables(buffered, promote_options="default")
            events_in = ev.num_rows
            if self.last_lsn >= 0:
                ev = ev.filter(pc.greater(ev.column("lsn"), pa.scalar(self.last_lsn)))
            applied = ev.num_rows
            inputs.append(_events_as_merge_rows(ev))
        if self.state is not None and self.state.num_rows:
            inputs.append(_state_as_merge_rows(self.state))
        merged = (
            pa.concat_tables(inputs, promote_options="default")
            if inputs
            else None
        )
        final = (
            finalize_partition_table(merged, self.dm)
            if merged is not None
            else FINAL_STATE_SCHEMA.empty_table()
        )
        m = self.store.write_partition(
            epoch, self.part, final, last_lsn=watermark,
            metrics={
                # the kernel's schema (engine.apply_partition) over the
                # buffered rows that reach commit — compaction may have
                # collapsed the raw epoch events — plus spill telemetry
                "events_in": events_in,
                "fence_dropped": events_in - applied,
                "events_applied": applied,
                "apply_s": round(time.perf_counter() - t0, 4),
                "spilled_files": len(self.spilled_files),
            },
        )
        self._reset_epoch_buffer()
        self.state = final
        self.last_lsn = m.last_lsn
        return {"partition_id": self.part, "row_count": m.row_count}

    def buffer_stats(self) -> dict:
        """Test/introspection hook: current buffer shape."""
        return {
            "tables": len(self.buffer),
            "rows": self.buffered_rows,
            "bytes": self.buffered_bytes,
            "spilled_files": len(self.spilled_files),
            "epoch_max_lsn": self.epoch_max_lsn,
        }


class StreamingCdcEngine:
    """Epoch tailing over a pool of long-lived merge actors."""

    def __init__(
        self,
        snapshot_dir: str,
        dm: DataModel | None = None,
        registry=None,
        compact_rows: int = 100_000,
        spill_bytes: int = 256 * 1024 * 1024,
        combinable: bool = True,
        constraints: dict | None = None,
        on_violation: str = "fail",
    ):
        self.dm = dm or DataModel()
        self.store = SnapshotStore(snapshot_dir)
        self.registry = registry or default_registry()
        # same table-constraint handshake as CdcEngine (persisted set
        # binds every writer; cdc/constraints.py)
        from arlas_proc_ray.cdc.constraints import (
            resolve_constraints,
            validate_spec,
        )

        if on_violation not in ("fail", "dead_letter"):
            raise ValueError(f"unknown on_violation: {on_violation!r}")
        self.on_violation = on_violation
        self.constraints = resolve_constraints(self.store, constraints)
        if self.constraints:
            validate_spec(self.constraints, self.registry.latest_schema)
        self.actors = [
            MergeActor.remote(
                p, snapshot_dir, self.dm, compact_rows, spill_bytes, combinable
            )
            for p in range(self.dm.num_partitions)
        ]

    def apply_epoch(
        self, events_ds, epoch: int, *, dead_letter_dir: str | None = None
    ) -> dict:
        dm = self.dm
        actors = self.actors
        from arlas_proc_ray.cdc.constraints import make_ingest_head

        align = make_ingest_head(
            self.registry, dm, epoch=epoch,
            dead_letter_dir=dead_letter_dir,
            constraints=self.constraints,
            on_violation=self.on_violation,
        )

        def route(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:  # empty blocks are legal in Ray Data
                return pa.table({"routed": pa.array([0], pa.int64())})
            batch = align(batch)
            if batch.num_rows == 0:  # dead-letter align may quarantine ALL
                return pa.table({"routed": pa.array([0], pa.int64())})
            batch = lww_reduce_table(batch, dm.key_cols, dm.order_col)
            pids = partition_ids(batch, dm.key_list, dm.num_partitions)
            refs = []
            import numpy as np

            order = np.argsort(pids, kind="stable")
            sorted_pids = pids[order]
            bounds = np.flatnonzero(np.diff(sorted_pids)) + 1
            starts = np.concatenate([[0], bounds])
            ends = np.concatenate([bounds, [len(sorted_pids)]])
            for s, e in zip(starts, ends):
                p = int(sorted_pids[s])
                # take(), not slice(): a sliced table pickles its WHOLE
                # underlying buffers — one per actor would P-plicate the batch
                sub = batch.take(pa.array(order[s:e]))
                refs.append(actors[p].ingest.remote(sub))
            ray.get(refs)  # ack: events are buffered before the task returns
            return pa.table({"routed": pa.array([batch.num_rows], pa.int64())})

        routed = events_ds.map_batches(route, batch_format="pyarrow", batch_size=None).sum("routed")
        results = ray.get([a.commit_epoch.remote(epoch) for a in self.actors])
        summary = self.store.commit_epoch(epoch, dm.num_partitions)
        summary["routed_events"] = int(routed or 0)
        return summary

    def tail(
        self,
        batches,
        *,
        epoch_every_events: int | str,
        start_epoch: int | None = None,
        dead_letter_dir: str | None = None,
        ooo_holdback: int = 0,
        budget_bytes: int | None = None,
    ):
        """Commit-cadence tailing: ingest an iterable of event tables,
        committing a fenced epoch whenever ``epoch_every_events`` events
        have been routed (plus a final flush). Yields each epoch's commit
        summary as it happens — the long-running-tail usage the batch
        engine's one-epoch-per-call API doesn't express.

        ``epoch_every_events="auto"`` derives the cadence from the
        object-store budget instead of an event count: an epoch commits
        once the routed BYTES reach ``sizing.auto_epoch_bytes()`` (the
        ~4×-bytes rule, BASELINE.md round-3 addendum) so the operator
        never has to translate the documented sizing rule into an event
        count by hand. ``budget_bytes`` overrides the detected store
        size (tests).

        Out-of-order arrival WITHIN an epoch window is tolerated (LSN
        ordering at commit); events older than the last committed
        watermark are fenced exactly once, as everywhere else.

        ``ooo_holdback``: watermark alignment for sources that deliver
        out of order ACROSS window boundaries (|delivery position − lsn|
        ≤ holdback). Events above ``max_seen_lsn − holdback`` are HELD at
        the coordinator and only routed once the horizon passes them, so
        a committed fence never outruns a not-yet-delivered lower LSN —
        without this, a cross-boundary straggler lands below its
        partition's fence and is dropped as already-applied. Held rows
        are bounded by holdback × arrival rate; the final flush routes
        everything. With the default 0, the source contract is that
        commit windows partition the LSN domain (the batch engine's
        contract). Crash-replay cursor: replay ``lsn >`` the last
        committed summary's ``last_lsn``.

        ``dead_letter_dir``: quarantine invalid rows (same vectorized
        split as everywhere, replay.make_dead_letter_fn) under the epoch
        window that was open when they ARRIVED.
        """
        dm = self.dm
        epoch = (
            start_epoch
            if start_epoch is not None
            else (self.store.latest_committed_epoch() or 0) + 1
        )
        from arlas_proc_ray.cdc.constraints import make_ingest_head

        def make_align(ep: int):
            return make_ingest_head(
                self.registry, dm, epoch=ep,
                dead_letter_dir=dead_letter_dir,
                constraints=self.constraints,
                on_violation=self.on_violation,
            )

        auto_cadence = epoch_every_events == "auto"
        if auto_cadence:
            from arlas_proc_ray.cdc.sizing import auto_epoch_bytes

            bytes_cadence = auto_epoch_bytes(budget_bytes)
        elif not isinstance(epoch_every_events, int):
            raise ValueError(
                f"epoch_every_events must be an int or 'auto', got "
                f"{epoch_every_events!r}"
            )

        align = make_align(epoch)
        pending = 0
        pending_bytes = 0
        held: list[pa.Table] = []  # aligned rows above the ooo horizon
        max_seen = -1

        def route_table(batch: pa.Table) -> int:
            nonlocal max_seen
            if batch.num_rows == 0:
                return 0
            batch = align(batch)
            if batch.num_rows == 0:  # dead-letter may quarantine ALL
                return 0
            if ooo_holdback > 0:
                max_seen = max(
                    max_seen, int(pc.max(batch.column("lsn")).as_py())
                )
                horizon = max_seen - ooo_holdback
                late = pc.greater(batch.column("lsn"), pa.scalar(horizon))
                above = batch.filter(late)
                if above.num_rows:
                    held.append(above)
                batch = batch.filter(pc.invert(late))
                if batch.num_rows == 0:
                    return 0
            return _route_aligned(batch)

        def _route_aligned(batch: pa.Table) -> int:
            nonlocal pending_bytes
            pending_bytes += batch.nbytes
            batch = lww_reduce_table(batch, dm.key_cols, dm.order_col)
            pids = partition_ids(batch, dm.key_list, dm.num_partitions)
            import numpy as np

            order = np.argsort(pids, kind="stable")
            sorted_pids = pids[order]
            bounds = np.flatnonzero(np.diff(sorted_pids)) + 1
            starts = np.concatenate([[0], bounds])
            ends = np.concatenate([bounds, [len(sorted_pids)]])
            refs = []
            for s, e in zip(starts, ends):
                p = int(sorted_pids[s])
                refs.append(
                    self.actors[p].ingest.remote(batch.take(pa.array(order[s:e])))
                )
            ray.get(refs)
            return batch.num_rows

        def release_held(flush: bool = False) -> int:
            """Route held rows that fell at or below the horizon."""
            nonlocal held
            if not held:
                return 0
            t = pa.concat_tables(held, promote_options="default")
            if flush:
                held = []
                return _route_aligned(t)
            horizon = max_seen - ooo_holdback
            ready = t.filter(
                pc.less_equal(t.column("lsn"), pa.scalar(horizon))
            )
            rest = t.filter(pc.greater(t.column("lsn"), pa.scalar(horizon)))
            held = [rest] if rest.num_rows else []
            return _route_aligned(ready) if ready.num_rows else 0

        def commit(ep: int) -> dict:
            ray.get([a.commit_epoch.remote(ep) for a in self.actors])
            return self.store.commit_epoch(ep, dm.num_partitions)

        for batch in batches:
            # a producer may hand a list of tables (e.g. mixed schema
            # versions) — route each; alignment normalizes per table
            parts = batch if isinstance(batch, (list, tuple)) else [batch]
            for part in parts:
                pending += route_table(part)
            due = (
                pending_bytes >= bytes_cadence
                if auto_cadence
                else pending >= epoch_every_events
            )
            if due and pending:
                pending += release_held()
                summary = commit(epoch)
                summary["routed_events"] = pending
                yield summary
                epoch += 1
                pending = 0
                pending_bytes = 0
                align = make_align(epoch)  # DLQ files follow the window
        pending += release_held(flush=True)
        if pending:
            summary = commit(epoch)
            summary["routed_events"] = pending
            yield summary

    def final_state(self, epoch: int | None = None) -> pa.Table:
        t = self.store.read_state(epoch)
        if t is None:
            return FINAL_STATE_SCHEMA.empty_table()
        idx = pc.sort_indices(
            t, sort_keys=[("repo", "ascending"), ("path", "ascending")]
        )
        return t.take(idx)

    def shutdown(self):
        for a in self.actors:
            ray.kill(a)
        self.actors = []
