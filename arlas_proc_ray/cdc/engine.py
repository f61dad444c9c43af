"""CdcEngine — epoch-driven incremental ingest with crash-resume.

One `apply_epoch` call = one fenced unit of exactly-once work, run by the
staged exchange (cdc/staged.py) in raw Ray tasks:

    events (Dataset, any schema version, out-of-order within the epoch)
      → materialize; one split task per block:
          normalize (schema registry align) → per-block LWW combiner
          → _part_id = hash(repo, path) % P → ONE argsort by partition
      → G = min(P, CPUs) merge tasks, each over a contiguous group of
        partitions, each partition that writes a base through
        ``apply_partition`` — the one kernel of every store writer
        (vectorized, whole partition), here with CDC's fold
        (``cdc_fold``):
              · fence: if this epoch's base file for p exists, or a
                delta group file of this epoch lists p → skip (resume)
              · drop events with lsn <= its last_lsn in the previous
                epoch's index (an event is never applied twice across runs)
              · a partition with a base whose fold is not due: the
                surviving events, LWW-reduced and hashed, tombstones
                kept, become its delta SEGMENT, made for the whole
                group in one pass (``cdc_segments``); the group's
                segments are written last as ONE delta file, its
                manifests in the footer
              · otherwise (no base, or a fold): read partition p of the
                previous committed snapshot, its chain overlaid; union
                prior state (as lsn=last_lsn upsert rows) + events,
                exact LWW by lsn, drop DELETE tombstones, sha256 only the
                newly-surviving rows; atomic write of part-p.parquet,
                its manifest in the footer
      → driver writes the epoch index, then the _COMMITTED marker

With one merge group (a 1-CPU session, or P = 1) and at most
``sizing.INLINE_BYTES`` (64 MiB) of input, the split and the merge run as
plain calls in the calling process instead: the same route, exchange
object and group body, without the two task round trips.

State lives in the partitioned snapshot on disk (merge-on-read compaction,
lakehouse-style), never in a worker's memory, so a crashed run loses
nothing: rerunning the same epoch skips finished partitions and
re-executes unfinished ones idempotently. This is the design that survives
a 256-node cluster: per-partition work is independent, the only all-to-all
exchange is the single hash partition, and the combiner has already
collapsed the event volume (and any hot-key skew) before it.

Reference analogue: the "resume" story there is re-reading a time slice and
appending Parquet (/root/reference/src/main/scala/io/arlas/data/sql/
package.scala:41-66, WritableDataFrame.scala:68-76) — no fencing, no
manifests, no idempotence; those are the capabilities the north rule adds.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from arlas_proc_ray.cdc import sizing
from arlas_proc_ray.cdc.events import FINAL_STATE_SCHEMA, default_registry
from arlas_proc_ray.cdc.replay import finalize_partition_table, lww_order
from arlas_proc_ray.cdc.snapshot import DELETED, SnapshotStore
from arlas_proc_ray.functions.hashing import sha256_hex
from arlas_proc_ray.model import DataModel


def _state_as_merge_rows(state: pa.Table) -> pa.Table:
    """Prior final-state rows re-shaped as upsert events for the LWW union.

    Keeps their content_sha256 so unchanged rows are never re-hashed.
    """
    cols = {
        "lsn": state.column("last_lsn"),
        "op": pa.repeat(pa.scalar("UPDATE", pa.string()), state.num_rows),
        "repo": state.column("repo"),
        "path": state.column("path"),
        "commit": state.column("commit"),
        "language": state.column("language"),
        "content": state.column("content"),
        "content_size": state.column("content_size"),
        "content_sha256": state.column("content_sha256"),
    }
    return pa.table(cols)


def _events_as_merge_rows(events: pa.Table) -> pa.Table:
    cols = {
        "lsn": events.column("lsn"),
        "op": events.column("op"),
        "repo": events.column("repo"),
        "path": events.column("path"),
        "commit": events.column("commit"),
        "language": events.column("language"),
        "content": events.column("content"),
        "content_size": events.column("content_size"),
        "content_sha256": pa.chunked_array(
            [pa.nulls(events.num_rows, pa.string())]
        ),
    }
    return pa.table(cols)


def cdc_fold(dm: DataModel, ev, prior, prior_last: int):
    """CDC's fold (see ``apply_partition``): the exactly-once fence, then
    LWW of the surviving events over the prior state.

    - watermark: ``max(prior, max event lsn)`` taken BEFORE tombstone drop
      and the fence filter, so a DELETE holding the top LSN still advances
      it;
    - fence: events with lsn ≤ the prior watermark are dropped and counted
      in ``fence_dropped`` (an event never applies twice);
    - nothing survives the fence: the state is unchanged;
    - else finalize events ∪ prior (LWW, tombstones out, hash new rows).
    """
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
        pa.concat_tables(inputs, promote_options="default"), dm
    )
    return final, watermark, (events_in, events_in - applied, applied)


def cdc_segments(dm: DataModel, ev: pa.Table, tags: np.ndarray,
                 prior_last: np.ndarray, reduced: bool):
    """CDC's delta step, over the rows of many partitions at once: the
    fence of :func:`cdc_fold`, then the events that survive it as each
    partition's segment: LWW-reduced, content hashed, each DELETE kept as
    a tombstone row (``DELETED``), in the order finalize would keep them.
    A segment row beats every older row of its key, so no prior state is
    read.

    ``ev`` holds the events partition by partition; ``tags`` is each
    row's partition index ``i`` (non-decreasing) and ``prior_last[i]``
    that partition's applied watermark. ``reduced``: no key has two
    events (one exchange input, which the per-block combine reduced), so
    LWW has nothing to do. Returns ``(rows, row tags, watermarks,
    events_in, events_applied)``, the last three one entry per
    partition; a partition's watermark is ``max(prior, max event lsn)``,
    taken before the fence."""
    n = len(prior_last)
    lsn = ev.column("lsn").to_numpy()
    events_in = np.bincount(tags, minlength=n)
    top = np.full(n, -1, dtype=np.int64)
    np.maximum.at(top, tags, lsn)
    watermark = np.maximum(prior_last, top)
    fence = prior_last[tags]
    keep = (fence < 0) | (lsn > fence)
    ev, tags = ev.filter(pa.array(keep)), tags[keep]
    applied = np.bincount(tags, minlength=n)
    if not reduced:
        kept = lww_order(ev, dm.key_cols, dm.order_col, tags)
        ev, tags = ev.take(pa.array(kept)), tags[kept]
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
    return rows, tags, watermark, events_in, applied


def copy_fold(watermark: int, ev, prior, prior_last: int):
    """``repartition_snapshot``'s fold: the routed live rows as they are,
    under the source epoch's global watermark. No event is applied."""
    rows = (
        ev.replace_schema_metadata(None) if ev is not None
        else FINAL_STATE_SCHEMA.empty_table()
    )
    return rows, watermark, (0, 0, 0)


def apply_partition(store: SnapshotStore, epoch: int, part: int, events,
                    prior, fold, *, delta: bool = False, fault_hook=None,
                    resumed=None):
    """Apply one partition of one epoch as a base: the step every writer
    of the store ends in (CDC epochs, ``merge_into``,
    ``repartition_snapshot``), after the staged exchange (cdc/staged.py)
    routed ``events`` to it. A CDC epoch's delta segments are not
    written here but by its exchange group at once
    (``staged._apply_group``).

    ``events`` is a list of tables routed to ``part`` (any may be empty);
    ``prior`` is the partition's manifest in the previous epoch's index
    (``None`` on an empty store, or for a writer that reads no prior
    state). ``fold(events, prior, prior_last)`` is the writer's own step:
    it gets the concatenated events (``None`` if there are none), the
    prior state and its applied-LSN watermark, and returns ``(final,
    watermark, (events_in, fence_dropped, events_applied))``, where
    ``final`` is the new state or ``None`` for "unchanged". In order:

    - fence: this epoch's base file for ``part`` exists, or a delta group
      file of this epoch lists it (``resumed``, its manifest) → return
      its manifest (resume);
    - prior read: the prior state with its chain overlaid;
    - fold;
    - unchanged: with ``delta`` and a prior file, return the prior base's
      epoch (reference it, no rewrite); otherwise carry the prior state
      forward;
    - ``fault_hook(epoch, part)``, then the atomic base write.

    Every manifest carries the same metrics: ``events_in``,
    ``fence_dropped``, ``events_applied`` and ``apply_s``.
    """
    if resumed and part in resumed:  # crash-resume fence, delta group
        return resumed[part]
    if store.base_done(epoch, part):  # crash-resume fence, base file
        return store.read_manifest(epoch, part)
    t0 = time.perf_counter()
    prior_last = -1 if prior is None else prior.last_lsn
    live = [t for t in events if t.num_rows]
    ev = pa.concat_tables(live, promote_options="default") if live else None
    state = None if prior is None else store.read_resolved(prior, part)
    final, watermark, counts = fold(ev, state, prior_last)
    if final is None:
        if delta and prior is not None:
            return int(prior.epoch)
        final = state if state is not None else FINAL_STATE_SCHEMA.empty_table()
    if fault_hook is not None:
        fault_hook(epoch, part)
    return store.write_partition(
        epoch, part, final, last_lsn=watermark,
        metrics=apply_metrics(counts, time.perf_counter() - t0),
    )


def apply_metrics(counts, seconds: float) -> dict:
    """A manifest's apply metrics from ``(events_in, fence_dropped,
    events_applied)`` and the seconds spent."""
    events_in, dropped, applied = counts
    return {
        "events_in": int(events_in),
        "fence_dropped": int(dropped),
        "events_applied": int(applied),
        "apply_s": round(seconds, 4),
    }


def open_epoch(store: SnapshotStore, dm: DataModel, epoch: int):
    """Check that ``epoch`` may be applied on top of the store; return
    ``(prev_epoch, prior)``: the latest committed epoch and, from its
    index, each partition's manifest (its base, chain and applied
    watermark; empty on an empty store)."""
    prev = store.latest_committed_epoch()
    if prev is not None and prev >= epoch:
        raise ValueError(f"epoch {epoch} already committed (latest {prev})")
    prior = {}
    if prev is not None:  # one index: the fan-out, layouts and fences
        index = store.epoch_index(prev)
        check_committed_fanout(dm, prev, len(index))
        prior = dict(enumerate(index))
    return prev, prior


class EpochAuditError(RuntimeError):
    """A write-audit-publish audit failed; ``.report`` has the checks."""

    def __init__(self, report: dict):
        self.report = report
        failed = [c["name"] for c in report["checks"] if not c["ok"]]
        super().__init__(
            f"epoch {report['epoch']} audit failed: {', '.join(failed)}"
        )


class CdcEngine:
    """Incremental CDC ingest over a snapshot store.

    Parameters
    ----------
    snapshot_dir: root of the snapshot store (epoch-fenced layout).
    dm: DataModel naming key/order columns and the partition fan-out P.
    fault_hook: test-only callable ``(epoch, partition_id) -> None`` invoked
        before a partition commits — raising simulates a mid-epoch crash.
    """

    def __init__(
        self,
        snapshot_dir: str,
        dm: DataModel | None = None,
        registry=None,
        fault_hook=None,
        cluster_by: list[str] | None = None,
        cluster_zorder: list[str] | None = None,
        row_group_rows: int | None = None,
        compression: str = "snappy",
        constraints: dict | None = None,
        on_violation: str = "fail",
    ):
        self.dm = dm or DataModel()
        # blooms over the key columns: == point lookups prune partitions
        # zone maps never can (hash partitioning spreads every key range).
        # cluster_by sorts each partition file by the given columns at
        # write time so scan() predicates also prune ROW GROUPS inside
        # surviving files (see SnapshotStore.cluster_by).
        self.store = SnapshotStore(
            snapshot_dir,
            bloom_cols=self.dm.key_list,
            cluster_by=cluster_by,
            cluster_zorder=cluster_zorder,
            row_group_rows=row_group_rows,
            compression=compression,
        )
        self.registry = registry or default_registry()
        self.fault_hook = fault_hook
        # table constraints (cdc/constraints.py): persisted with the
        # store on first declaration so every writer — resumed runs,
        # other engines on the same table — enforces the same contract
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

    # ------------------------------------------------------------------

    def _ingest_fn(self, epoch: int, dead_letter_dir: str | None):
        """The canonical per-batch ingest head, run by the split tasks of
        both staged exchanges: structural validity (DLQ) or plain schema
        alignment, then table-constraint enforcement
        (cdc/constraints.py:make_ingest_head)."""
        from arlas_proc_ray.cdc.constraints import make_ingest_head

        return make_ingest_head(
            self.registry, self.dm,
            epoch=epoch,
            dead_letter_dir=dead_letter_dir,
            constraints=self.constraints,
            on_violation=self.on_violation,
        )

    def apply_epoch(
        self,
        events_ds,
        epoch: int,
        *,
        delta: bool = False,
        delta_max_age: int | None = None,
        dead_letter_dir: str | None = None,
        publish: bool = True,
    ) -> dict:
        """Apply one epoch of events; idempotent, resumable, exactly-once.

        Runs the staged exchange (cdc/staged.py) and commits exactly
        ``epoch``: unlike ``apply_epoch_staged`` it never splits an
        oversized input into sub-epochs, so a caller that numbers epochs
        itself (jobs, tailers, demux) stays in lockstep with the store.

        ``publish=False`` (write-audit-publish): every partition file is
        written exactly as usual, but the epoch index and the
        ``_COMMITTED`` marker are withheld — a ``_STAGED`` marker records
        the pending commit arguments instead. The cut is invisible to every reader
        (snapshot isolation) until ``publish_epoch``; ``audit_staged``
        inspects it, ``discard_staged`` drops it. Re-running the same
        staged epoch resumes through the normal partition fences.

        ``delta=True``: a partition with no surviving events this epoch
        (untouched, or every event at or below its fence) is NOT
        rewritten — the epoch index's row for it points at the epoch
        that last wrote it (metadata-chained compaction). At low change
        rates this removes the dominant copy-forward cost;
        ``SnapshotStore.vacuum`` respects the chain.

        ``delta_max_age`` (with ``delta=True``): automatic compaction
        policy — such a partition whose file lives in an epoch older
        than ``epoch - delta_max_age`` is refreshed (carried forward into
        this epoch) instead of referenced, bounding how far back the
        source map reaches so ``vacuum`` can reclaim old epoch dirs. Cost
        amortizes: each partition is rewritten at most once per
        ``delta_max_age`` epochs even if never touched.
        """
        from arlas_proc_ray.cdc.staged import cdc_epoch

        # validate BEFORE any upstream work: retrying a committed epoch
        # must reject without reading or generating the input
        writer = cdc_epoch(self, epoch, dead_letter_dir, delta, delta_max_age,
                           opened=open_epoch(self.store, self.dm, epoch))
        return self._staged_exchange(
            _materialized(events_ds), epoch, writer=writer, publish=publish,
        )

    # ---------------------------------------------------- write-audit-publish
    def _staged_marker_path(self, epoch: int) -> str:
        return os.path.join(self.store.epoch_dir(epoch), "_STAGED")

    def _stage_epoch(self, epoch: int, sources, expected_prev) -> dict:
        """Withhold the commit: persist the pending commit arguments so
        ``publish_epoch`` (possibly another process) can finish the
        write-audit-publish handshake. Crash-safe: a staged epoch has no
        ``_COMMITTED`` marker, so it is invisible; ``gc_orphans`` keeps
        ``_STAGED`` dirs."""
        import json

        from arlas_proc_ray.cdc.snapshot import _atomic_write_bytes

        payload = {
            "epoch": int(epoch),
            "num_partitions": int(self.dm.num_partitions),
            "sources": {
                str(p): int(e) for p, e in (sources or {}).items()
            },
            "expected_prev": expected_prev,
        }
        _atomic_write_bytes(
            self._staged_marker_path(epoch), json.dumps(payload).encode()
        )
        return {**payload, "staged": True, "row_count": self._staged_rows(epoch)}

    def read_staged(self, epoch: int) -> dict | None:
        import json

        p = self._staged_marker_path(epoch)
        if not os.path.exists(p):
            return None
        with open(p) as f:
            return json.load(f)

    def _staged_files(self, epoch: int) -> list[str]:
        """The base files of the staged cut; a partition its delta group
        files list is chained (``SnapshotStore.delta_manifests``)."""
        st = self.read_staged(epoch)
        if st is None:
            raise RuntimeError(f"epoch {epoch} is not staged")
        chained = self.store.delta_manifests(epoch)
        files = [
            self.store.part_data_path(
                int(st["sources"].get(str(p), epoch)), p
            )
            for p in range(st["num_partitions"]) if p not in chained
        ]
        return [f for f in files if os.path.exists(f)]

    def _staged_rows(self, epoch: int) -> int:
        """Rows of the staged cut, from its files' Parquet footers."""
        import pyarrow.parquet as pq

        return sum(pq.read_metadata(f).num_rows
                   for f in self._staged_files(epoch)) + sum(
            m.row_count for m in self.store.delta_manifests(epoch).values())

    def _staged_tables(self, epoch: int, columns=None) -> list:
        """The staged cut's chained partitions' rows, each resolved."""
        return [self.store.read_resolved(m, p, columns)
                for p, m in sorted(self.store.delta_manifests(epoch).items())]

    def staged_state(self, epoch: int, columns=None):
        """The staged (uncommitted) cut as a pruned-column Dataset."""
        import ray.data as rd

        files = self._staged_files(epoch)
        kwargs = {"columns": list(columns)} if columns else {}
        ds = rd.read_parquet(files, **kwargs) if files else None
        chained = self._staged_tables(epoch, columns)
        if chained:
            extra = rd.from_arrow([t.replace_schema_metadata(None)
                                   for t in chained])
            ds = extra if ds is None else ds.union(extra)
        return ds

    def publish_epoch(self, epoch: int) -> dict:
        """Commit a staged epoch (the P of write-audit-publish). The
        optimistic fence recorded at stage time still applies — a commit
        that raced past us raises instead of publishing a mixed lineage."""
        st = self.read_staged(epoch)
        if st is None:
            raise RuntimeError(f"epoch {epoch} is not staged")
        out = self.store.commit_epoch(
            epoch,
            st["num_partitions"],
            sources={int(p): int(e) for p, e in st["sources"].items()},
            expected_prev=st["expected_prev"],
        )
        try:
            os.unlink(self._staged_marker_path(epoch))
        except OSError:
            pass
        return out

    def discard_staged(self, epoch: int) -> dict:
        """Drop a staged epoch (audit failed): the whole uncommitted
        epoch dir goes; committed state is untouched by construction."""
        import shutil

        if self.read_staged(epoch) is None:
            raise RuntimeError(f"epoch {epoch} is not staged")
        d = self.store.epoch_dir(epoch)
        shutil.rmtree(d, ignore_errors=True)
        return {"epoch": epoch, "discarded": True}

    def audit_staged(
        self,
        epoch: int,
        *,
        min_rows: int | None = None,
        max_rows: int | None = None,
        max_shrink_fraction: float | None = None,
        expect: dict | None = None,
    ) -> dict:
        """Audit a staged cut before publishing (the A of WAP).

        Footer-only checks (no data read): ``min_rows`` / ``max_rows``
        bounds on the staged total, and ``max_shrink_fraction`` — the
        classic mass-delete guard: fail when the staged cut lost more
        than that fraction of the previously committed rows (a buggy
        upstream emitting DELETEs for everything must not publish).

        ``expect``: ``{name: [(col, op, value), ...]}`` constraint-style
        predicates (cdc/constraints.py clause language, same null
        semantics) that every live STATE row must satisfy — violations
        are counted in one pruned column read of the staged cut only.
        """
        checks: list[dict] = []
        st = self.read_staged(epoch)
        if st is None:
            raise RuntimeError(f"epoch {epoch} is not staged")
        rows = self._staged_rows(epoch)
        if min_rows is not None:
            checks.append({"name": "min_rows", "ok": rows >= min_rows,
                           "detail": f"{rows} >= {min_rows}"})
        if max_rows is not None:
            checks.append({"name": "max_rows", "ok": rows <= max_rows,
                           "detail": f"{rows} <= {max_rows}"})
        if max_shrink_fraction is not None:
            prev = self.store.latest_committed_epoch()
            prev_rows = (
                self.store.table_stats(prev)["row_count"]
                if prev is not None else 0
            )
            floor = int(prev_rows * (1.0 - max_shrink_fraction))
            checks.append({
                "name": "max_shrink_fraction",
                "ok": rows >= floor,
                "detail": f"{rows} staged vs {prev_rows} committed "
                          f"(floor {floor})",
            })
        if expect:
            import numpy as np

            from arlas_proc_ray.cdc.constraints import _clause_false_mask

            cols = sorted({c[0] for cl in expect.values() for c in cl})

            def count_bad(batch: pa.Table) -> pa.Table:
                outs = {}
                for name, clauses in expect.items():
                    bad = np.zeros(batch.num_rows, dtype=bool)
                    for clause in clauses:
                        col, op = clause[0], clause[1]
                        val = clause[2] if len(clause) > 2 else None
                        bad |= _clause_false_mask(
                            batch, col, op, val
                        ).to_numpy(zero_copy_only=False)
                    outs[name] = [int(bad.sum())]
                return pa.table(outs)

            files = self._staged_files(epoch)
            total_bytes = sum(os.path.getsize(f) for f in files)
            if total_bytes <= 64 * 1024 * 1024:
                # small cut: one local pruned read beats a Ray Dataset
                # execution's fixed cost (~0.3-1 s) by ~10×
                import pyarrow.parquet as pq

                tables = [pq.read_table(f, columns=cols) for f in files]
                tables += self._staged_tables(epoch, cols)
                tbl = (
                    pa.concat_tables(
                        [t.replace_schema_metadata(None) for t in tables],
                        promote_options="default")
                    if tables else pa.table({c: [] for c in cols})
                )
                partials = count_bad(tbl).to_pandas()
            else:
                import ray.data as rd

                state = self.staged_state(epoch, cols)
                partials = state.map_batches(
                    count_bad, batch_format="pyarrow", batch_size=None
                ).to_pandas()  # one tiny row per block
            for name in expect:
                n_bad = int(partials[name].sum()) if len(partials) else 0
                checks.append({
                    "name": f"expect:{name}", "ok": n_bad == 0,
                    "detail": f"{n_bad} violating rows",
                })
        return {
            "epoch": epoch,
            "row_count": rows,
            "ok": all(c["ok"] for c in checks),
            "checks": checks,
        }

    def apply_epoch_audited(
        self,
        events_ds,
        epoch: int,
        *,
        audits: dict,
        on_fail: str = "discard",
        **apply_kwargs,
    ) -> dict:
        """One-call write-audit-publish: stage the epoch, audit the cut,
        publish on success. On failure the staged cut is discarded
        (``on_fail="discard"``) or kept for inspection
        (``on_fail="keep"``), and ``EpochAuditError`` carries the report
        — committed state is untouched either way."""
        if on_fail not in ("discard", "keep"):
            raise ValueError(f"unknown on_fail: {on_fail!r}")
        self.apply_epoch(events_ds, epoch, publish=False, **apply_kwargs)
        report = self.audit_staged(epoch, **audits)
        if report["ok"]:
            out = self.publish_epoch(epoch)
            return {**out, "audit": report, "published": True}
        if on_fail == "discard":
            self.discard_staged(epoch)
        raise EpochAuditError(report)

    def apply_epoch_staged(
        self, events_ds, epoch: int, *,
        dead_letter_dir: str | None = None, publish: bool = True,
        auto_split: bool | int | None = None,
        budget_bytes: int | None = None,
        delta: bool = False,
    ) -> dict:
        """``apply_epoch`` with the exchange's knobs, and the one entry
        point that may split an oversized epoch into sub-epochs.

        Same exchange and guarantees (fences, manifests, exactly-once).
        The exchange runs G = min(P, CPUs in ``ray.cluster_resources()``)
        merge tasks, each applying a contiguous group of partitions in
        turn, and creates ``blocks × G`` intermediate objects (one per
        block per group, not per partition). Each object is ``(first
        partition, table, bounds)``: the group's rows as one contiguous
        table sorted by partition, plus the offsets where each partition
        starts; the merge task cuts per-partition views from it locally.
        Not a ``{partition: table}`` dict, because Ray pays a fixed cost
        per serialized table (see cdc/staged.py). Per-object overhead
        dominates past ~10k objects, so when ``blocks × G > 10 000`` this
        auto-switches to the TWO-LEVEL exchange (``blocks × √P + √P``
        objects — measured 2.3× at P=256/B=128, 2.0× at P=512; the extra
        level costs a re-materialization, so below the knee one level
        wins: 3.1 s vs 5.2 s at P=64/B=64, 20M events).

        **Object-store auto-sizing** (cdc/sizing.py): the exchange holds
        ≈4× the epoch's bytes in flight; an epoch past the plasma budget
        spills and falls off a measured 4× cliff (BASELINE.md round-3
        addendum). When ``4×bytes > 0.85×object_store`` this call
        auto-splits the epoch into LSN-range chunks and commits each as
        its own fenced sub-epoch ``epoch, epoch+1, …`` (chunk boundaries
        are LSN values, so every later chunk carries strictly higher LSNs
        — the per-partition fence semantics are exactly the multi-epoch
        contract). The returned summary is the LAST sub-epoch's, with
        ``epochs`` listing all committed sub-epochs and ``auto_split``
        the chunk count. Callers deriving the next epoch number must use
        ``store.latest_committed_epoch() + 1`` (the documented pattern).
        Crash mid-split resumes the same way: re-apply the full event set
        at ``latest+1`` — already-applied LSNs are fenced per partition.

        ``auto_split``: None = size automatically (default); False =
        never split (as ``apply_epoch``); int = force that many chunks.
        Splitting needs sequential commits, so with ``publish=False``
        an oversized epoch warns and runs unsplit. ``budget_bytes``
        overrides the detected object-store size (tests).
        """
        from arlas_proc_ray.cdc.sizing import plan_epoch_chunks
        from arlas_proc_ray.cdc.staged import cdc_epoch

        # validate BEFORE any execution: retrying an already-committed
        # epoch (the documented resume pattern) must reject with zero
        # upstream work, not after generating/reading the whole input
        opened = open_epoch(self.store, self.dm, epoch)

        # materialize ONCE: on a lazy dataset num_blocks() executes the
        # whole upstream and to_arrow_refs() would then re-execute it —
        # measured 2× the generation cost on the 2M-event headline. The
        # staged exchange needs the blocks resident anyway (its split
        # tasks consume the refs); oversized epochs are split below. A
        # held read is not run: its tables are decoded in this process.
        events_ds = _materialized(events_ds)

        plan = None
        if auto_split is not False:
            plan = plan_epoch_chunks(
                events_ds.size_bytes() or 0, budget_bytes
            )
            if isinstance(auto_split, int) and not isinstance(auto_split, bool):
                from arlas_proc_ray.cdc.sizing import EpochPlan

                plan = EpochPlan(
                    "inmem" if plan.strategy != "scratch" else "scratch",
                    max(1, auto_split), plan.epoch_bytes, plan.budget_bytes,
                )
            if plan.chunks > 1 and not publish:
                import warnings

                warnings.warn(
                    f"epoch {epoch}: {plan.epoch_bytes} bytes exceeds the "
                    f"object-store sizing rule (4x bytes > 0.85x "
                    f"{plan.budget_bytes}) but publish=False forbids "
                    "sub-epoch commits; running unsplit — expect spill",
                    RuntimeWarning,
                )
                plan = None
        if plan is not None and plan.chunks > 1:
            # hand ownership through a box so this frame drops its
            # reference — the chunked path frees the pinned input once
            # the chunk copies exist
            box = [sizing.stored(events_ds)]
            events_ds = None
            return self._apply_epoch_chunked(
                box, epoch, plan,
                dead_letter_dir=dead_letter_dir, delta=delta,
            )
        writer = cdc_epoch(self, epoch, dead_letter_dir, delta, opened=opened)
        return self._staged_exchange(events_ds, epoch, writer=writer,
                                     publish=publish)

    def _staged_exchange(self, events_ds, epoch: int, *, writer=None,
                         **kwargs) -> dict:
        """Apply and commit exactly ``epoch`` from a materialized input
        with the staged exchange: two-level when the one-level exchange
        would create more than ``staged.TWO_LEVEL_OBJECTS`` (10 000)
        objects — blocks × G, with G = min(P, session CPUs) merge
        groups. ``writer`` is the epoch's ``staged._Epoch`` (a CDC epoch
        when ``None``; ``merge_into`` and ``repartition_snapshot`` pass
        their own). The exchange is looked up on the module at call
        time, so wrappers installed there see every epoch."""
        from arlas_proc_ray.cdc import staged

        P = writer.num_partitions if writer else self.dm.num_partitions
        G = len(staged.session_groups(P))
        run = (staged.staged_apply_epoch_two_level
               if events_ds.num_blocks() * G > staged.TWO_LEVEL_OBJECTS
               else staged.staged_apply_epoch)
        return run(self, events_ds, epoch, writer=writer, **kwargs)

    def _apply_epoch_chunked(
        self, events_box, epoch: int, plan, *, dead_letter_dir,
        delta: bool = False,
    ) -> dict:
        """Apply an oversized epoch as LSN-range sub-epochs (see
        ``apply_epoch_staged``). ``events_box`` is a 1-list holding the
        materialized input — popped so this path owns the only reference
        and can FREE the pinned blocks before the chunk applies (the
        whole point: the exchange's ≈4×/K in-flight bytes must not sit
        on top of a pinned full input).

        ``inmem``: every chunk is filtered out of the blocks up front
        (one cheap task per block per chunk, 1× total extra bytes —
        admissible because the inmem plan requires ``2×bytes ≤ budget``),
        then the input is released and chunks apply sequentially, each
        freed as it commits.
        ``scratch``: the input is streamed once to a chunk-partitioned
        parquet scratch, released, and each chunk is applied from disk —
        only ≈4×/K bytes ever in flight.
        """
        import numpy as np
        import pyarrow as pa
        import ray
        import ray.data as rd

        from arlas_proc_ray.cdc.sizing import lsn_cutpoints, lsn_range_refs

        events_mat = events_box.pop()
        refs = events_mat.to_arrow_refs()
        cuts = lsn_cutpoints(refs, plan.chunks)
        bounds = [None, *cuts, None]
        n_chunks = len(bounds) - 1

        scratch = None
        chunk_refs: list = []
        if plan.strategy == "scratch":
            import tempfile

            scratch = tempfile.mkdtemp(prefix="cdc_epoch_chunks_")
            cuts_arr = np.asarray(cuts, dtype=np.int64)

            def tag(t: pa.Table) -> pa.Table:
                lsn = t.column("lsn").to_numpy(zero_copy_only=False)
                cid = np.searchsorted(cuts_arr, lsn, side="left")
                return t.append_column(
                    "_chunk", pa.array(cid.astype(np.int64))
                ).replace_schema_metadata(None)

            events_mat.map_batches(
                tag, batch_format="pyarrow", batch_size=None
            ).write_parquet(scratch, partition_cols=["_chunk"])
        else:
            # cut ALL chunks first so the input can be released before
            # any apply starts — sequential filtering would keep the
            # full input pinned under every chunk's exchange
            chunk_refs = [
                lsn_range_refs(refs, bounds[i], bounds[i + 1])
                for i in range(n_chunks)
            ]
            flat = [r for c in chunk_refs for r in c]
            ray.wait(flat, num_returns=len(flat), fetch_local=False)
        # release the pinned input before the chunk applies
        events_mat = None
        refs = None

        committed: list[int] = []
        summary: dict = {}
        e = epoch
        try:
            for i in range(n_chunks):
                if scratch is not None:
                    import os as _os

                    d = _os.path.join(scratch, f"_chunk={i}")
                    if not _os.path.isdir(d):
                        continue  # empty chunk: no events in this range
                    # hive inference re-adds _chunk (as string) from the
                    # path segment — drop it before the ingest head
                    chunk_ds = (
                        rd.read_parquet(d)
                        .drop_columns(["_chunk"])
                        .materialize()
                    )
                else:
                    chunk_ds = rd.from_arrow_refs(chunk_refs[i])
                    chunk_refs[i] = None  # ownership to chunk_ds
                if chunk_ds.count() == 0:
                    del chunk_ds
                    continue
                summary = self._staged_exchange(
                    chunk_ds, e,
                    dead_letter_dir=dead_letter_dir, delta=delta,
                )
                committed.append(e)
                e += 1
                del chunk_ds  # unpin this chunk before the next
        finally:
            if scratch is not None:
                import shutil

                shutil.rmtree(scratch, ignore_errors=True)
        if not committed:
            raise ValueError("auto-split epoch contained no events")
        summary = dict(summary)
        summary["auto_split"] = len(committed)
        summary["split_strategy"] = plan.strategy
        summary["epochs"] = committed
        return summary

    # ------------------------------------------------------------------

    def repartition_snapshot(
        self, new_num_partitions: int, epoch: int | None = None
    ) -> dict:
        """Change the hash fan-out P → P′ by rewriting the snapshot once.

        A growing table eventually outgrows its partition count (and a
        shrunken one wastes it); this rewrites the latest committed state
        as ONE full epoch hash-routed over ``new_num_partitions`` through
        the staged exchange and ``apply_partition`` that every epoch runs
        (its fold is :func:`copy_fold`) — one all-to-all exchange of the
        LIVE rows only (tombstones are long gone), fenced and
        crash-resumable exactly like ``apply_epoch``: finished partitions
        of a crashed rewrite are skipped on re-run, and the epoch is
        invisible until ``_COMMITTED``. Its manifests carry the kernel's
        metrics with no event applied.

        Every new partition's applied watermark is set to the GLOBAL
        watermark of the source epoch (per-source-partition fences cannot
        be carried across a re-hash). This is the standard table-
        maintenance contract: run it BETWEEN epochs, with no in-flight
        tail delivering lsns at or below the current global watermark —
        such stragglers would afterwards be treated as already applied.

        After the commit, subsequent engines must be constructed with
        ``DataModel(num_partitions=new_num_partitions)``; ``apply_epoch``
        enforces this (fan-out mismatch raises), and ``lookup`` reads the
        committed fan-out from the epoch index automatically.

        Returns the commit summary of the rewrite epoch.
        """
        from functools import partial

        from arlas_proc_ray.cdc.staged import _Epoch

        store = self.store
        latest = store.latest_committed_epoch()
        if latest is None:
            raise RuntimeError("no committed epoch to repartition")
        if epoch is None:
            epoch = latest + 1
        elif epoch <= latest:
            # never rewrite an already-committed epoch's summary: the fence
            # partition_done skips all writes and the new fan-out would be
            # published for data routed with the OLD one (silent key loss
            # for time travel / tagged reads of that epoch)
            raise ValueError(
                f"epoch {epoch} already committed (latest {latest}); "
                f"repartition writes a NEW epoch"
            )
        new_p = int(new_num_partitions)
        if new_p < 1:
            raise ValueError("new_num_partitions must be >= 1")
        watermark = store.table_stats(latest)["applied_lsn"]
        writer = _Epoch(
            self, epoch, partial(copy_fold, watermark), prev_epoch=latest,
            num_partitions=new_p,
        )
        return self._staged_exchange(
            _materialized(store.scan(epoch=latest)), epoch, writer=writer
        )

    # ------------------------------------------------------------------

    def rollback(self, to_epoch, epoch: int | None = None) -> dict:
        """Roll the table back to a committed epoch — metadata only.

        Commits a NEW epoch whose index points at the target epoch's
        partition files (the same chain mechanism delta epochs use): no
        data is copied, the rollback is one index and one marker write, and
        ``vacuum`` keeps the chain reachable. Because the new epoch's
        per-partition fences are the TARGET's manifests, the applied-LSN
        watermarks rewind with the state — events from the undone epochs
        can be replayed (repaired, re-ordered, DLQ-fixed) and will apply
        normally instead of being dropped as already-seen.

        This completes the repair loop: quarantine garbage
        (``dead_letter_dir``) → ``rollback`` past the bad epoch → replay
        the corrected events. ``to_epoch`` may be an epoch number or a
        ref name (``store.tag``).
        """
        store = self.store
        latest = store.latest_committed_epoch()
        if latest is None:
            raise RuntimeError("no committed epoch to roll back")
        target = store._resolve_epoch_arg(to_epoch)
        if not (0 <= target <= latest) or not os.path.exists(
            store.commit_marker_path(target)
        ):
            raise ValueError(f"epoch {target} is not committed")
        if epoch is None:
            epoch = latest + 1
        elif epoch <= latest:
            raise ValueError(
                f"epoch {epoch} already committed (latest {latest})"
            )
        index = store.epoch_index(target)
        return store.commit_epoch(
            epoch, len(index), sources={p: m.epoch for p, m in enumerate(index)},
            expected_prev=latest, _manifests=dict(enumerate(index)),
        )

    # ------------------------------------------------------------------

    def purge_where(self, predicate, epoch: int | None = None) -> dict:
        """Predicate purge: hard-delete every live row matching a
        conjunctive ``[(col, op, value), ...]`` predicate (the
        ``plan_scan`` clause language) — retention policies, bulk GDPR
        ("every row of repo X"), bad-ingest rollbacks.

        Two phases, each already scale-proven: the matching KEYS are
        found with the pruned ``scan`` (zone maps / blooms / row-group
        pruning decide what is read — a selective predicate touches a
        sliver of a 100 TB table), then ``purge_keys`` applies them as
        a fenced tombstone epoch. Key extraction streams; only the key
        columns of MATCHING rows materialize.
        """
        key_cols = list(self.dm.key_cols)
        matches = self.store.scan(predicate=predicate, columns=key_cols)
        keys = matches.to_pandas() if hasattr(matches, "to_pandas") else matches
        if len(keys) == 0:
            latest = self.store.latest_committed_epoch()
            return {"purged_keys": 0, "epoch": latest, "noop": True}
        out = self.purge_keys(keys, epoch=epoch)
        out["purged_keys"] = int(len(keys.drop_duplicates()))
        return out

    def purge_keys(self, keys, epoch: int | None = None) -> dict:
        """GDPR-style hard delete of whole keys from the snapshot.

        Purge IS an epoch: one DELETE tombstone per key is synthesized
        with an LSN ABOVE the store's applied watermark and run through
        the normal ``apply_epoch`` — so the purge is exactly-once,
        crash-resumable, idempotent on retry, and wins LWW against any
        late replay of the purged keys' older events (their LSN is below
        the tombstone's). Nothing new to trust: it is the engine's own
        delete path. ``delta=True`` keeps untouched partitions as
        metadata references — a purge of K keys rewrites at most K
        partition files regardless of table size.

        ``keys``: pandas DataFrame or pyarrow Table carrying exactly
        ``dm.key_cols``. ``epoch`` defaults to latest committed + 1.
        Returns the ``apply_epoch`` summary.
        """
        import numpy as np
        import ray.data as rd

        from arlas_proc_ray.cdc.events import CANONICAL_EVENT_SCHEMA

        if isinstance(keys, pa.Table):
            keys = keys.to_pandas()
        key_cols = list(self.dm.key_cols)
        keys = keys[key_cols].drop_duplicates().reset_index(drop=True)
        latest = self.store.latest_committed_epoch()
        if epoch is None:
            epoch = (latest if latest is not None else 0) + 1
        watermark = (
            self.store.table_stats(latest)["applied_lsn"]
            if latest is not None
            else -1
        )
        n = len(keys)
        lsns = watermark + 1 + np.arange(n, dtype=np.int64)
        cols = {
            "lsn": pa.array(lsns, pa.int64()),
            "op": pa.array(["DELETE"] * n, pa.string()),
        }
        for k in key_cols:
            cols[k] = pa.array(keys[k].tolist(), CANONICAL_EVENT_SCHEMA.field(k).type)
        for f in CANONICAL_EVENT_SCHEMA:
            if f.name in cols:
                continue
            if f.name == "delivery_index":
                cols[f.name] = pa.array(np.arange(n, dtype=np.int64), f.type)
            elif f.name == "schema_version":
                cols[f.name] = pa.array([2] * n, f.type)
            elif pa.types.is_integer(f.type):
                cols[f.name] = pa.array([0] * n, f.type)
            else:
                cols[f.name] = pa.array([""] * n, f.type)
        tomb = pa.table({f.name: cols[f.name] for f in CANONICAL_EVENT_SCHEMA})
        return self.apply_epoch(rd.from_arrow(tomb), epoch=epoch, delta=True)

    # ------------------------------------------------------------------

    def replay_dead_letters(
        self,
        dead_letter_dir: str,
        *,
        repair_fn=None,
        dlq_epoch: int | None = None,
        epoch: int | None = None,
        bump_lsn: bool = True,
    ) -> dict | None:
        """Re-apply quarantined rows after repair — one normal epoch.

        Reads the DLQ (optionally one quarantine window), strips the
        ``dlq_reason``/``dlq_epoch`` bookkeeping, applies ``repair_fn``
        (table → table; fix the op, fill the key, register the schema —
        whatever made the rows invalid), and applies the result through
        the ordinary ``apply_epoch`` (fenced, exactly-once, LWW).

        ``bump_lsn=True`` (default) re-stamps LSNs contiguously ABOVE the
        store's applied watermark, preserving the original (lsn,
        delivery_index) order: a quarantined row's original LSN is
        usually already below the fence (its window committed without
        it), so replaying it verbatim would be silently dropped as
        already-applied. Pass ``bump_lsn=False`` only after a rollback
        below the rows' LSNs. Returns the commit summary, or None when
        the DLQ (window) is empty.
        """
        import numpy as np
        import ray.data as rd

        from arlas_proc_ray.cdc.replay import read_dead_letters

        t = read_dead_letters(dead_letter_dir, epoch=dlq_epoch)
        if t.num_rows == 0:
            return None
        t = t.drop_columns(
            [c for c in ("dlq_reason", "dlq_epoch") if c in t.column_names]
        )
        if repair_fn is not None:
            t = repair_fn(t)
        latest = self.store.latest_committed_epoch()
        if epoch is None:
            epoch = (latest if latest is not None else 0) + 1
        if bump_lsn:
            lsn = t.column("lsn").to_pandas()
            dlv = (
                t.column("delivery_index").to_pandas()
                if "delivery_index" in t.column_names
                else lsn
            )
            # original order preserved; null LSNs (the null_order rows)
            # deterministically last by delivery index
            order = np.lexsort((dlv.to_numpy(na_value=0), lsn.to_numpy(
                na_value=np.iinfo(np.int64).max)))
            watermark = (
                self.store.table_stats(latest)["applied_lsn"]
                if latest is not None
                else -1
            )
            new_lsn = np.empty(len(order), dtype=np.int64)
            new_lsn[order] = watermark + 1 + np.arange(len(order))
            t = t.set_column(
                t.schema.get_field_index("lsn"), "lsn",
                pa.array(new_lsn, pa.int64()),
            )
        return self.apply_epoch(rd.from_arrow(t), epoch=epoch, delta=True)

    # ------------------------------------------------------------------

    def lookup(self, keys, epoch: int | str | None = None) -> pa.Table:
        """Point reads with partition pruning — the serving path.

        ``keys`` is a list of key tuples (ordered as ``dm.key_cols``).
        The requested keys are hash-routed with the SAME ``partition_ids``
        kernel every write uses, so only the ≤ ``len(keys)`` partition
        files that can contain them are candidates — at P=64 a point read
        touches 1/64th of a 100-TB snapshot, independent of table size.
        Within a candidate, its delta segments are probed newest first by
        their blooms, and only a segment that may hold a key has its one
        row group read; the first segment holding a key decides it, and
        the base file is read only for keys no segment holds and its
        blooms do not exclude (``SnapshotStore.lookup_rows``). Each read
        happens in this process and keeps the rows whose key columns
        match (byte-exact), in the resolved partition's order, partitions
        ascending.
        Missing and deleted keys simply return no row; a repeated key
        returns its row once. ``epoch`` (an epoch number or a ref name; default latest)
        time-travels to any committed epoch (merge-on-read resolved).
        """
        import numpy as np

        from arlas_proc_ray.functions.hashing import partition_ids

        key_cols = list(self.dm.key_cols)
        if not keys:
            return FINAL_STATE_SCHEMA.empty_table()
        req = pa.table(
            {c: pa.array([k[i] for k in keys]) for i, c in enumerate(key_cols)}
        )
        e = self.store._resolve_epoch_arg(epoch)
        if e is None:
            raise RuntimeError("no committed epoch")
        # route with the fan-out the snapshot was COMMITTED with (may differ
        # from dm.num_partitions after a repartition_snapshot)
        index = self.store.epoch_index(e)
        pids = partition_ids(req, key_cols, len(index))
        out = []
        for p in np.unique(pids).tolist():
            m = index[p]
            if m.row_count == 0:
                continue
            hit = self.store.lookup_rows(m, p, req.filter(pa.array(pids == p)))
            if hit is not None:
                out.append(hit)
        if not out:
            return FINAL_STATE_SCHEMA.empty_table()
        return pa.concat_tables(out)

    def scan(self, **kwargs):
        """Pruned streaming read of the committed snapshot (see
        SnapshotStore.scan): zone-map + applied-LSN partition pruning from
        the epoch index only, pushdown residual filter, lazy Ray Dataset
        out."""
        return self.store.scan(**kwargs)

    def final_state(self, epoch: int | None = None) -> pa.Table:
        t = self.store.read_state(epoch)
        if t is None:
            return FINAL_STATE_SCHEMA.empty_table()
        idx = pc.sort_indices(
            t, sort_keys=[("repo", "ascending"), ("path", "ascending")]
        )
        return t.take(idx)


def _materialized(ds):
    """``ds`` with its blocks at hand. A held read, or a union of held
    reads (``sizing.held``), comes back as a ``sizing.HeldDataset`` over
    the same plan: its tables are decoded in this process and its size
    and block count are theirs, so nothing runs and nothing is put in the
    object store. Any other Dataset comes back with its blocks in the
    object store; a ``MaterializedDataset`` (``from_arrow``, a small
    ``scan``, a prior ``materialize``) already is one, and materializing
    it again only deep-copies its plan."""
    from ray.data.dataset import Dataset, MaterializedDataset

    if isinstance(ds, MaterializedDataset):
        return ds
    if sizing.held(ds) is not None:
        return Dataset.copy(ds, _as=sizing.HeldDataset)
    return ds.materialize()


def check_committed_fanout(dm: DataModel, prev_epoch: int,
                           committed_p: int) -> None:
    """Reject writes whose DataModel fan-out disagrees with the snapshot,
    given ``committed_p``, the partition count of ``prev_epoch``.

    After ``repartition_snapshot`` the committed fan-out changes; an engine
    still configured with the old ``num_partitions`` would route keys to
    the wrong partitions (silent key splits). Guard every write path.
    """
    if committed_p != dm.num_partitions:
        raise ValueError(
            f"snapshot fan-out is {committed_p} partitions (epoch "
            f"{prev_epoch}) but DataModel says {dm.num_partitions}; "
            f"construct the engine with num_partitions={committed_p} "
            f"or repartition_snapshot() first"
        )

