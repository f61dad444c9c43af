"""CdcEngine — epoch-driven incremental ingest with crash-resume.

One `apply_epoch` call = one fenced unit of exactly-once work, run by the
staged exchange (cdc/staged.py) in raw Ray tasks:

    events (Dataset, any schema version, out-of-order within the epoch)
      → materialize; one split task per block:
          normalize (schema registry align) → per-block LWW combiner
          → _part_id = hash(repo, path) % P → ONE argsort by partition
      → G = min(P, CPUs) merge tasks, each over a contiguous group of
        partitions, each partition through ``apply_partition`` — the
        one kernel (vectorized, whole partition):
              · fence: if this epoch's manifest for p exists → skip (resume)
              · read partition p of the previous committed snapshot
              · drop events with lsn <= prior manifest last_lsn
                (an event is never applied twice across runs)
              · union prior state (as lsn=last_lsn upsert rows) + events,
                exact LWW by lsn, drop DELETE tombstones, sha256 only the
                newly-surviving rows
              · atomic write part-p.parquet then manifest-p.json
      → driver writes the epoch _COMMITTED marker

State lives in the partitioned snapshot on disk (merge-on-read compaction,
lakehouse-style) — NOT in long-lived actors — so a crashed run loses
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

import pyarrow as pa
import pyarrow.compute as pc

from arlas_proc_ray.cdc.events import FINAL_STATE_SCHEMA, default_registry
from arlas_proc_ray.cdc.replay import PART_COL, finalize_partition_table
from arlas_proc_ray.cdc.snapshot import SnapshotStore
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


def apply_partition(store: SnapshotStore, dm: DataModel, epoch: int,
                    part: int, events, prior_src, *, delta: bool = False,
                    fault_hook=None):
    """Apply one partition's events of one epoch: the step both staged
    exchanges (one- and two-level) end in.

    ``events`` is a list of event tables routed to ``part`` (any may be
    empty); ``prior_src`` is the epoch holding the partition's committed
    file (``None`` on an empty store). In order:

    - fence: this epoch's manifest for ``part`` exists → return it (resume);
    - prior read: state and applied-LSN watermark of ``prior_src``;
    - watermark: ``max(prior, max event lsn)`` taken BEFORE tombstone drop
      and the dedup filter, so a DELETE holding the top LSN still advances it;
    - dedup filter: events with lsn ≤ the prior watermark are dropped and
      counted in ``fence_dropped`` (an event never applies twice);
    - nothing survives the filter: with ``delta`` and a prior file, return
      ``int(prior_src)`` (reference it, no rewrite); otherwise carry the
      prior state forward unchanged;
    - else finalize events ∪ prior (LWW, tombstones out, hash new rows);
    - ``fault_hook(epoch, part)``, then the atomic write + manifest.

    Every written manifest carries the same metrics: ``events_in``,
    ``fence_dropped``, ``events_applied`` and ``apply_s``.
    """
    if store.partition_done(epoch, part):  # crash-resume fence
        return store.read_manifest(epoch, part)
    t0 = time.perf_counter()
    prior, prior_last = None, -1
    if prior_src is not None:
        prior = store.read_partition(prior_src, part)
        pm = store.read_manifest(prior_src, part)
        prior_last = pm.last_lsn if pm else -1
    live = [t for t in events if t.num_rows]
    ev = pa.concat_tables(live, promote_options="default") if live else None
    events_in = ev.num_rows if ev is not None else 0
    watermark = prior_last
    if ev is not None:
        watermark = max(prior_last, int(pc.max(ev.column("lsn")).as_py()))
        if prior_last >= 0:
            ev = ev.filter(pc.greater(ev.column("lsn"), pa.scalar(prior_last)))
    applied = ev.num_rows if ev is not None else 0
    if applied:
        inputs = [_events_as_merge_rows(ev)]
        if prior is not None and prior.num_rows:
            inputs.append(_state_as_merge_rows(prior))
        final = finalize_partition_table(
            pa.concat_tables(inputs, promote_options="default"), dm
        )
    elif delta and prior_src is not None:
        return int(prior_src)
    else:
        final = prior if prior is not None else FINAL_STATE_SCHEMA.empty_table()
    if fault_hook is not None:
        fault_hook(epoch, part)
    return store.write_partition(
        epoch, part, final, last_lsn=watermark,
        metrics={
            "events_in": events_in,
            "fence_dropped": events_in - applied,
            "events_applied": applied,
            "apply_s": round(time.perf_counter() - t0, 4),
        },
    )


def open_epoch(store: SnapshotStore, dm: DataModel, epoch: int):
    """Check that ``epoch`` may be applied on top of the store; return
    ``(prev_epoch, prior_src)``: the latest committed epoch and a function
    mapping a partition to the epoch holding its committed file (``None``
    on an empty store)."""
    prev = store.latest_committed_epoch()
    if prev is not None and prev >= epoch:
        raise ValueError(f"epoch {epoch} already committed (latest {prev})")
    check_committed_fanout(store, dm, prev)
    sources = store.resolve_sources(prev) if prev is not None else {}

    def prior_src(part: int):
        return None if prev is None else sources.get(part, prev)

    return prev, prior_src


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

        ``publish=False`` (write-audit-publish): every partition file and
        manifest is written exactly as usual, but the ``_COMMITTED``
        marker is withheld — a ``_STAGED`` marker records the pending
        commit arguments instead. The cut is invisible to every reader
        (snapshot isolation) until ``publish_epoch``; ``audit_staged``
        inspects it, ``discard_staged`` drops it. Re-running the same
        staged epoch resumes through the normal partition fences.

        ``delta=True``: a partition with no surviving events this epoch
        (untouched, or every event at or below its fence) is NOT
        rewritten — the commit marker's source map points at the epoch
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
        # validate BEFORE any upstream work: retrying a committed epoch
        # must reject without reading or generating the input
        open_epoch(self.store, self.dm, epoch)
        return self._staged_exchange(
            events_ds.materialize(), epoch, dead_letter_dir=dead_letter_dir,
            publish=publish, delta=delta, delta_max_age=delta_max_age,
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
        rows = sum(
            m.row_count
            for m in (
                self.store.read_manifest(
                    payload["sources"].get(str(p), epoch), p
                )
                for p in range(self.dm.num_partitions)
            )
            if m is not None
        )
        return {**payload, "staged": True, "row_count": rows}

    def read_staged(self, epoch: int) -> dict | None:
        import json

        p = self._staged_marker_path(epoch)
        if not os.path.exists(p):
            return None
        with open(p) as f:
            return json.load(f)

    def _staged_files(self, epoch: int) -> list[str]:
        st = self.read_staged(epoch)
        if st is None:
            raise RuntimeError(f"epoch {epoch} is not staged")
        files = [
            self.store.part_data_path(
                int(st["sources"].get(str(p), epoch)), p
            )
            for p in range(st["num_partitions"])
        ]
        return [f for f in files if os.path.exists(f)]

    def staged_state(self, epoch: int, columns=None):
        """The staged (uncommitted) cut as a pruned-column Dataset."""
        import ray.data as rd

        files = self._staged_files(epoch)
        kwargs = {"columns": list(columns)} if columns else {}
        return rd.read_parquet(files, **kwargs)

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

        Manifest-only checks (no data read): ``min_rows`` / ``max_rows``
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
        rows = sum(
            m.row_count
            for m in (
                self.store.read_manifest(
                    int(st["sources"].get(str(p), epoch)), p
                )
                for p in range(st["num_partitions"])
            )
            if m is not None
        )
        if min_rows is not None:
            checks.append({"name": "min_rows", "ok": rows >= min_rows,
                           "detail": f"{rows} >= {min_rows}"})
        if max_rows is not None:
            checks.append({"name": "max_rows", "ok": rows <= max_rows,
                           "detail": f"{rows} <= {max_rows}"})
        if max_shrink_fraction is not None:
            prev = self.store.latest_committed_epoch()
            prev_rows = (
                self.store.read_epoch_summary(prev)["row_count"]
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

                tbl = (
                    pa.concat_tables(
                        [pq.read_table(f, columns=cols) for f in files]
                    )
                    if files else pa.table({c: [] for c in cols})
                )
                partials = count_bad(tbl).to_pandas()
            else:
                import ray.data as rd

                state = rd.read_parquet(files, columns=cols)
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
        self, events_ds, epoch: int, *, two_level: bool | None = None,
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
        wins: 3.1 s vs 5.2 s at P=64/B=64, 20M events). Pass
        ``two_level=`` to override.

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

        # validate BEFORE any execution: retrying an already-committed
        # epoch (the documented resume pattern) must reject with zero
        # upstream work, not after generating/reading the whole input
        open_epoch(self.store, self.dm, epoch)

        # materialize ONCE: on a lazy dataset num_blocks() executes the
        # whole upstream and to_arrow_refs() would then re-execute it —
        # measured 2× the generation cost on the 2M-event headline. The
        # staged exchange needs the blocks resident anyway (its split
        # tasks consume the refs); oversized epochs are split below.
        events_ds = events_ds.materialize()

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
            box = [events_ds]
            events_ds = None
            return self._apply_epoch_chunked(
                box, epoch, plan,
                dead_letter_dir=dead_letter_dir, two_level=two_level,
                delta=delta,
            )
        return self._staged_exchange(
            events_ds, epoch, two_level=two_level,
            dead_letter_dir=dead_letter_dir, publish=publish, delta=delta,
        )

    def _staged_exchange(self, events_ds, epoch: int, *,
                         two_level: bool | None = None, **kwargs) -> dict:
        """Apply and commit exactly ``epoch`` from a materialized input
        with the staged exchange: two-level when the one-level exchange
        would create more than ``staged.TWO_LEVEL_OBJECTS`` (10 000)
        objects — blocks × G, with G = min(P, session CPUs) merge
        groups — or when forced. The exchange is looked up on the module
        at call time, so wrappers installed there see every epoch."""
        from arlas_proc_ray.cdc import staged

        if two_level is None:
            G = len(staged.session_groups(self.dm.num_partitions))
            two_level = events_ds.num_blocks() * G > staged.TWO_LEVEL_OBJECTS
        run = (staged.staged_apply_epoch_two_level if two_level
               else staged.staged_apply_epoch)
        return run(self, events_ds, epoch, **kwargs)

    def _apply_epoch_chunked(
        self, events_box, epoch: int, plan, *, dead_letter_dir, two_level,
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
                    chunk_ds, e, two_level=two_level,
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
        as ONE full epoch hash-routed over ``new_num_partitions`` with the
        same ``partition_ids`` kernel every write uses — one all-to-all
        exchange of the LIVE rows only (tombstones are long gone), fenced
        and crash-resumable exactly like ``apply_epoch``: finished
        partitions of a crashed rewrite are skipped on re-run, and the
        epoch is invisible until ``_COMMITTED``.

        Every new partition's applied watermark is set to the GLOBAL
        watermark of the source epoch (per-source-partition fences cannot
        be carried across a re-hash). This is the standard table-
        maintenance contract: run it BETWEEN epochs, with no in-flight
        tail delivering lsns at or below the current global watermark —
        such stragglers would afterwards be treated as already applied.

        After the commit, subsequent engines must be constructed with
        ``DataModel(num_partitions=new_num_partitions)``; ``apply_epoch``
        enforces this (fan-out mismatch raises), and ``lookup`` reads the
        committed fan-out from the epoch summary automatically.

        Returns the commit summary of the rewrite epoch.
        """
        import ray

        from arlas_proc_ray.functions.hashing import partition_ids

        store = self.store
        fault_hook = self.fault_hook
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
        summary = store.read_epoch_summary(latest)
        watermark = int(summary.get("last_lsn", -1))
        new_p = int(new_num_partitions)
        if new_p < 1:
            raise ValueError("new_num_partitions must be >= 1")
        key_cols = self.dm.key_list

        ds = store.scan(epoch=latest)

        def route(batch: pa.Table) -> pa.Table:
            pids = partition_ids(batch, key_cols, new_p)
            batch = batch.append_column(PART_COL, pa.array(pids, pa.int32()))
            return batch.replace_schema_metadata(None)

        ds = ds.map_batches(route, batch_format="pyarrow", batch_size=None)

        def write_part(group: pa.Table) -> pa.Table:
            p = int(group.column(PART_COL)[0].as_py())
            if store.partition_done(epoch, p):  # crash-resume fence
                return _manifest_row(store.read_manifest(epoch, p))
            if fault_hook is not None:
                fault_hook(epoch, p)
            m = store.write_partition(
                epoch, p, group.drop_columns([PART_COL]),
                last_lsn=watermark,
                metrics={"repartitioned_from": latest, "source_fanout":
                         int(summary["num_partitions"])},
            )
            return _manifest_row(m)

        manifests = ds.groupby(PART_COL).map_groups(
            write_part, batch_format="pyarrow"
        )
        done = {r["partition_id"] for r in manifests.take_all()}

        @ray.remote(num_cpus=0.25)
        def write_empty(p: int):
            if not store.partition_done(epoch, p):
                if fault_hook is not None:
                    fault_hook(epoch, p)
                store.write_partition(
                    epoch, p, FINAL_STATE_SCHEMA.empty_table(),
                    last_lsn=watermark,
                    metrics={"repartitioned_from": latest},
                )
            return p

        pending = [
            p for p in range(new_p)
            if p not in done and not store.partition_done(epoch, p)
        ]
        if pending:
            ray.get([write_empty.remote(p) for p in pending])
        return store.commit_epoch(epoch, new_p, expected_prev=latest)

    # ------------------------------------------------------------------

    def rollback(self, to_epoch, epoch: int | None = None) -> dict:
        """Roll the table back to a committed epoch — metadata only.

        Commits a NEW epoch whose source map points at the target epoch's
        partition files (the same chain mechanism delta epochs use): no
        data is copied, the rollback is one atomic marker write, and
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
        sources = store.resolve_sources(target)
        num_p = int(store.read_epoch_summary(target)["num_partitions"])
        return store.commit_epoch(
            epoch, num_p, sources=sources, expected_prev=latest
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
            int(self.store.read_epoch_summary(latest).get("last_lsn", -1))
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
                int(self.store.read_epoch_summary(latest).get("last_lsn", -1))
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
        touches 1/64th of a 100-TB snapshot, independent of table size. A
        candidate whose manifest blooms prove every key routed to it
        absent is not opened. Each opened file is read in this process and
        its matching rows kept with an Arrow semi join on the key columns
        (byte-exact), in file order, partitions ascending. Missing and
        deleted keys simply return no row; a repeated key returns its row
        once. ``epoch`` (an epoch number or a ref name; default latest)
        time-travels to any committed epoch (merge-on-read resolved).
        """
        import numpy as np

        from arlas_proc_ray.cdc.snapshot import blooms_exclude, summary_sources
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
        summary = self.store.read_epoch_summary(e)
        sources = summary_sources(summary, e)
        pids = partition_ids(req, key_cols, int(summary["num_partitions"]))
        out = []
        for p in np.unique(pids).tolist():
            routed = req.filter(pa.array(pids == p))
            m = self.store.read_manifest(sources.get(p, e), p)
            if m is not None and (
                m.row_count == 0 or blooms_exclude(m.blooms, routed)
            ):
                continue
            t = self.store.read_partition_resolved(e, p)
            if t is None or t.num_rows == 0:
                continue
            hit = _rows_with_keys(t, routed)
            if hit.num_rows:
                out.append(hit)
        if not out:
            return FINAL_STATE_SCHEMA.empty_table()
        return pa.concat_tables(out)

    def scan(self, **kwargs):
        """Pruned streaming read of the committed snapshot (see
        SnapshotStore.scan): zone-map + applied-LSN partition pruning from
        manifests only, pushdown residual filter, lazy Ray Dataset out."""
        return self.store.scan(**kwargs)

    def final_state(self, epoch: int | None = None) -> pa.Table:
        t = self.store.read_state(epoch)
        if t is None:
            return FINAL_STATE_SCHEMA.empty_table()
        idx = pc.sort_indices(
            t, sort_keys=[("repo", "ascending"), ("path", "ascending")]
        )
        return t.take(idx)


def _rows_with_keys(table: pa.Table, keys: pa.Table) -> pa.Table:
    """The rows of ``table`` whose key columns equal some row of ``keys``,
    byte for byte, in ``table``'s row order."""
    import numpy as np

    cols = keys.column_names
    keys = keys.cast(pa.schema([(c, table.schema.field(c).type) for c in cols]))
    rows = table.select(cols).append_column(
        "_row", pa.array(np.arange(table.num_rows))
    )
    hit = rows.join(keys, keys=cols, join_type="left semi")
    return table.take(np.sort(hit.column("_row").to_numpy()))


def check_committed_fanout(store: SnapshotStore, dm: DataModel, prev_epoch) -> None:
    """Reject writes whose DataModel fan-out disagrees with the snapshot.

    After ``repartition_snapshot`` the committed fan-out changes; an engine
    still configured with the old ``num_partitions`` would route keys to
    the wrong partitions (silent key splits). Guard every write path.
    """
    if prev_epoch is None:
        return
    committed_p = int(store.read_epoch_summary(prev_epoch)["num_partitions"])
    if committed_p != dm.num_partitions:
        raise ValueError(
            f"snapshot fan-out is {committed_p} partitions (epoch "
            f"{prev_epoch}) but DataModel says {dm.num_partitions}; "
            f"construct the engine with num_partitions={committed_p} "
            f"or repartition_snapshot() first"
        )


def _manifest_row(m) -> pa.Table:
    return pa.table(
        {
            "partition_id": pa.array([m.partition_id], type=pa.int32()),
            "epoch": pa.array([m.epoch], type=pa.int64()),
            "last_lsn": pa.array([m.last_lsn], type=pa.int64()),
            "row_count": pa.array([m.row_count], type=pa.int64()),
            "sha256_rollup": pa.array([m.sha256_rollup], type=pa.string()),
        }
    )
