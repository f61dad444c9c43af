"""Job entry points for ``ray job submit`` (the north-rule run mode).

Usage (each command owns the Ray session; on a cluster, submit with
``ray job submit --working-dir . -- python -m arlas_proc_ray.jobs …``):

    # apply one epoch of a Parquet changelog to a snapshot store
    python -m arlas_proc_ray.jobs replay \
        --events /data/changelog/epoch3/*.parquet \
        --snapshot /data/snapshot --epoch 3 [--delta] \
        [--partitions 256]

    # synthesize a deterministic changelog slice to Parquet (drills/bench)
    python -m arlas_proc_ray.jobs synthesize \
        --out /data/changelog/epoch1 --events 1000000 [--lo 0 --hi N]

    # verify a committed snapshot's manifests (row counts + sha256 rollups)
    python -m arlas_proc_ray.jobs verify --snapshot /data/snapshot

    # GDPR purge: hard-delete keys via a fenced tombstone epoch
    python -m arlas_proc_ray.jobs purge \
        --keys /data/victims.parquet --snapshot /data/snapshot

    # consume a growing segment dir (Debezium jsonl / parquet) until idle
    python -m arlas_proc_ray.jobs tail-dir --segments /wal --snapshot /s

    # MERGE INTO from a Parquet source; clone/rollback/tag for table ops
    python -m arlas_proc_ray.jobs merge --snapshot /s --source src.parquet
    python -m arlas_proc_ray.jobs clone --snapshot /s --dest /backup

    # declare table constraints at ingest (persisted with the store);
    # inspect or explicitly update the contract later
    python -m arlas_proc_ray.jobs replay … \
        --check no_md:language:!=:md --on-violation dead_letter \
        --dead-letter-dir /data/dlq
    python -m arlas_proc_ray.jobs constraints --snapshot /s

    # write-audit-publish: stage, then audit + publish (or discard)
    python -m arlas_proc_ray.jobs replay … --stage
    python -m arlas_proc_ray.jobs publish --snapshot /s --epoch 3 \
        --min-rows 1 --max-shrink 0.5 --expect ok:content:not_null

    # refresh an incrementally-maintained index; run the curation chain
    python -m arlas_proc_ray.jobs index --snapshot /s --kind secondary --value-col language
    python -m arlas_proc_ray.jobs curate --input docs.parquet --out /curated --mixture en:70,fr:30

    # introspection: index-only stats/history, ad-hoc SQL, views, GC
    python -m arlas_proc_ray.jobs stats --snapshot /s
    python -m arlas_proc_ray.jobs history --snapshot /s
    python -m arlas_proc_ray.jobs sql --snapshot /s --query "SELECT count(*) FROM snapshot"
    python -m arlas_proc_ray.jobs view --snapshot /s --view-id v --group-by language --sum content_size
    python -m arlas_proc_ray.jobs gc --snapshot /s --dry-run

Re-running ``replay`` with the same ``--epoch`` is safe: finished
partitions are skipped by the manifest fence, unfinished ones re-execute
idempotently (crash-resume is the same command again). Every mutating
command above shares that property (fenced epochs + idempotent writes).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


_OWNS_SESSION = False


def _ray_session(num_cpus: int | None):
    global _OWNS_SESSION
    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False}
        if num_cpus is not None:
            kwargs["num_cpus"] = num_cpus
            kwargs["address"] = "local"
        ray.init(**kwargs)  # on a cluster: RAY_ADDRESS from the job env
        _OWNS_SESSION = True


def _parse_checks(specs) -> dict | None:
    """``--check name:col:op[:value]`` clauses → a constraints dict
    (cdc/constraints.py). Repeated names AND together; ``in`` values are
    ``|``-separated; numeric-looking values become int/float."""
    out: dict = {}
    for s in specs or []:
        parts = s.split(":", 3)
        if len(parts) < 3:
            raise SystemExit(
                f"bad --check {s!r}: expected name:col:op[:value]"
            )
        name, col, op = parts[:3]
        val = parts[3] if len(parts) > 3 else None
        if op == "in":
            val = (val or "").split("|")
        elif val is not None:
            for cast in (int, float):
                try:
                    val = cast(val)
                    break
                except ValueError:
                    pass
        clause = (col, op) if val is None else (col, op, val)
        out.setdefault(name, []).append(clause)
    return out or None


def cmd_replay(args) -> dict:
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.model import DataModel
    from arlas_proc_ray.sources.io import read_parquet

    _ray_session(args.num_cpus)
    dm = DataModel(num_partitions=args.partitions)
    engine = CdcEngine(
        args.snapshot, dm,
        constraints=_parse_checks(getattr(args, "check", None)),
        on_violation=getattr(args, "on_violation", "fail"),
    )
    # job-level idempotence: a retried/resubmitted job whose epoch already
    # COMMITTED is a successful no-op (the engine rejects re-applying a
    # committed epoch; partial epochs resume via the manifest fence)
    latest = engine.store.latest_committed_epoch()
    if latest is not None and args.epoch <= latest:
        return {
            "epoch": args.epoch,
            "already_committed": True,
            "latest_committed": latest,
        }
    # apply_epoch commits exactly args.epoch (it never auto-splits), so
    # the idempotence check above stays true for the next job's epoch
    ds = read_parquet(args.events)
    return engine.apply_epoch(
        ds, epoch=args.epoch, delta=args.delta,
        dead_letter_dir=args.dead_letter_dir,
        publish=not getattr(args, "stage", False),
    )


def cmd_publish_epoch(args) -> dict:
    """Audit and publish (or discard) a STAGED epoch — the A+P of
    write-audit-publish (`replay --stage` wrote the W)."""
    from arlas_proc_ray.cdc.engine import CdcEngine, EpochAuditError
    from arlas_proc_ray.model import DataModel

    engine = CdcEngine(args.snapshot, DataModel(num_partitions=args.partitions))
    if args.discard:
        return engine.discard_staged(args.epoch)
    audits = {}
    if args.min_rows is not None:
        audits["min_rows"] = args.min_rows
    if args.max_rows is not None:
        audits["max_rows"] = args.max_rows
    if args.max_shrink is not None:
        audits["max_shrink_fraction"] = args.max_shrink
    if args.expect:
        audits["expect"] = _parse_checks(args.expect)
    if audits:
        _ray_session(args.num_cpus)  # expect predicates scan the cut
        report = engine.audit_staged(args.epoch, **audits)
        if not report["ok"]:
            if args.on_fail == "discard":
                engine.discard_staged(args.epoch)
            raise EpochAuditError(report)
        out = engine.publish_epoch(args.epoch)
        return {**out, "audit": report, "published": True}
    return {**engine.publish_epoch(args.epoch), "published": True}


def cmd_tail_dir(args) -> dict:
    """Consume a growing segment directory (jsonl Debezium envelopes or
    parquet event segments) into fenced epochs until idle
    (cdc/tailer.py SegmentTailer — two-phase exactly-once cursor)."""
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.tailer import SegmentTailer
    from arlas_proc_ray.model import DataModel

    _ray_session(args.num_cpus)
    engine = CdcEngine(
        args.snapshot, DataModel(num_partitions=args.partitions),
        constraints=_parse_checks(getattr(args, "check", None)),
        on_violation=getattr(args, "on_violation", "fail"),
    )
    tailer = SegmentTailer(
        engine, args.segments, fmt=args.format,
        dead_letter_dir=args.dead_letter_dir,
    )
    results = (
        [tailer.poll()] if args.once else tailer.run_until_idle()
    )
    applied = [r for r in results if r["applied"]]
    return {
        "polls": len(results),
        "epochs_applied": [r["epoch"] for r in applied],
        "files": sum(len(r["files"]) for r in applied),
        "latest_committed": engine.store.latest_committed_epoch(),
    }


def cmd_tail_fanin(args) -> dict:
    """Consume K mutually-skewed shard segment directories into
    watermark-cut fenced epochs until idle (cdc/fanin.py FaninTailer —
    per-shard parquet-footer high-water marks, min-over-shards cut,
    the same two-phase exactly-once file accounting as tail-dir)."""
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.fanin import FaninTailer
    from arlas_proc_ray.model import DataModel

    _ray_session(args.num_cpus)
    engine = CdcEngine(
        args.snapshot, DataModel(num_partitions=args.partitions),
    )
    dirs = {}
    for spec in args.shard:
        name, _, path = spec.partition("=")
        if not path:
            name, path = f"s{len(dirs)}", name
        dirs[name] = path
    tailer = FaninTailer(engine, dirs)
    results = (
        [tailer.poll()] if args.once else tailer.run_until_idle()
    )
    applied = [r for r in results if r["applied"]]
    return {
        "polls": len(results),
        "epochs_applied": [r["epoch"] for r in applied],
        "cut": tailer._cursor()["cut"],
        "latest_committed": engine.store.latest_committed_epoch(),
    }


def cmd_synthesize(args) -> dict:
    from arlas_proc_ray.cdc.events import ChangelogConfig, changelog_dataset

    _ray_session(args.num_cpus)
    cfg = ChangelogConfig(
        num_events=args.events,
        num_keys=args.keys or max(1_000, args.events // 20),
        seed=args.seed,
    )
    hi = args.hi if args.hi is not None else args.events
    ds = changelog_dataset(cfg, lo=args.lo, hi=hi)
    ds.write_parquet(args.out)
    return {"out": args.out, "events": hi - args.lo, "seed": args.seed}


def cmd_purge(args) -> dict:
    """GDPR-style key purge (see CdcEngine.purge_keys): reads the victim
    keys from a Parquet/CSV file carrying the key columns and applies one
    fenced tombstone epoch. Resubmitting the same job after a crash
    resumes via the manifest fence; resubmitting after success is a
    committed-epoch no-op like replay."""
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.model import DataModel

    _ray_session(args.num_cpus)
    import pyarrow.csv as pacsv
    import pyarrow.parquet as pq

    dm = DataModel(num_partitions=args.partitions)
    engine = CdcEngine(args.snapshot, dm)
    latest = engine.store.latest_committed_epoch()
    epoch = args.epoch if args.epoch is not None else None
    if epoch is not None and latest is not None and epoch <= latest:
        return {
            "epoch": epoch,
            "already_committed": True,
            "latest_committed": latest,
        }
    if args.where:
        predicate = []
        for clause in args.where:
            col, op, val = clause.split(":", 2)
            try:
                val = int(val)
            except ValueError:
                try:
                    val = float(val)
                except ValueError:
                    pass
            predicate.append((col, op, val))
        return engine.purge_where(predicate, epoch=epoch)
    if not args.keys:
        raise SystemExit("purge: pass --keys FILE or --where COL:OP:VALUE")
    if args.keys.endswith(".csv"):
        keys = pacsv.read_csv(args.keys)
    else:
        keys = pq.read_table(args.keys)
    return engine.purge_keys(keys, epoch=epoch)


def cmd_lineage(args) -> dict:
    """Dump the per-partition manifest history (SnapshotStore.lineage)
    as JSON rows — from the epoch indexes, no data read."""
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    lin = SnapshotStore(args.snapshot).lineage()
    return {
        "rows": lin.num_rows,
        "lineage": lin.to_pylist() if args.full else lin.to_pylist()[: args.head],
    }


def cmd_clone(args) -> dict:
    """Materialize a committed epoch/ref as an independent store
    (cdc/clone.py — parallel byte-for-byte copy, resumable, vacuum-safe
    backup or fork)."""
    from arlas_proc_ray.cdc.clone import clone_snapshot
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    _ray_session(args.num_cpus)
    epoch = args.epoch
    if epoch is not None and epoch.lstrip("-").isdigit():
        epoch = int(epoch)
    return clone_snapshot(SnapshotStore(args.snapshot), args.dest, epoch=epoch)


def cmd_merge(args) -> dict:
    """MERGE INTO the snapshot from a Parquet source (cdc/merge.py):
    matched update/delete/ignore (optional s_*/t_* condition),
    not-matched insert/ignore, not-matched-by-source delete = full
    sync. Fenced + resumable like replay."""
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.merge import merge_into
    from arlas_proc_ray.model import DataModel
    from arlas_proc_ray.sources.io import read_parquet

    _ray_session(args.num_cpus)
    engine = CdcEngine(args.snapshot, DataModel(num_partitions=args.partitions))
    latest = engine.store.latest_committed_epoch()
    epoch = args.epoch if args.epoch is not None else (latest or 0) + 1
    if latest is not None and epoch <= latest:
        return {"epoch": epoch, "already_committed": True,
                "latest_committed": latest}
    return merge_into(
        engine,
        read_parquet(args.source),
        epoch,
        when_matched=args.when_matched,
        when_not_matched=args.when_not_matched,
        when_not_matched_by_source=args.when_not_matched_by_source,
        matched_condition=args.condition,
        source_lsn_col=args.lsn_col,
    )


def cmd_sync(args) -> dict:
    """Incremental clone (cdc/clone.py sync_snapshot): bring a backup /
    DR destination up to the source's committed cut, copying only the
    partitions whose backing file moved since the last sync."""
    from arlas_proc_ray.cdc.clone import sync_snapshot
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    _ray_session(args.num_cpus)
    epoch = args.epoch
    if epoch is not None and str(epoch).lstrip("-").isdigit():
        epoch = int(epoch)
    return sync_snapshot(
        SnapshotStore(args.snapshot), args.dest, epoch=epoch
    )


def cmd_index(args) -> dict:
    """Refresh one of the incrementally-maintained indexes over the
    snapshot store (secondary value→key, MinHash-LSH near-dup, IVF
    vector, IVFADC PQ vector) — `kind` picks the family; every refresh
    is feed-driven past bootstrap (cost ∝ changed rows)."""
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    _ray_session(args.num_cpus)
    store = SnapshotStore(args.snapshot)
    common = dict(index_id=args.index_id, epoch=None, full=args.rebuild)
    if args.kind == "secondary":
        from arlas_proc_ray.cdc.secondary import refresh_secondary_index

        if not args.value_col:
            raise SystemExit("index --kind secondary needs --value-col")
        return refresh_secondary_index(
            store, value_col=args.value_col,
            num_partitions=args.partitions, **common,
        )
    if args.kind == "neardup":
        from arlas_proc_ray.dedup.incremental import refresh_neardup_index

        return refresh_neardup_index(
            store, text_col=args.value_col or "content",
            num_partitions=args.partitions, **common,
        )
    if args.kind == "vector":
        from arlas_proc_ray.ann.incremental import refresh_vector_index

        return refresh_vector_index(
            store, vec_col=args.value_col or "content",
            num_partitions=args.partitions, **common,
        )
    if args.kind == "pq":
        from arlas_proc_ray.ann.incremental import refresh_pq_vector_index

        return refresh_pq_vector_index(
            store, vec_col=args.value_col or "content",
            num_partitions=args.partitions, **common,
        )
    raise SystemExit(f"unknown index kind {args.kind!r}")


def cmd_curate(args) -> dict:
    """Run the end-to-end training-data curation pipeline
    (pipelines/curation.py) over a documents Parquet table and write the
    surviving rows as partitioned Parquet."""
    from arlas_proc_ray.pipelines.curation import (
        CurationConfig,
        curate_documents,
    )
    from arlas_proc_ray.sources.io import (
        read_parquet_stored,
        write_partitioned_parquet,
    )

    _ray_session(args.num_cpus)
    mixture = None
    if args.mixture:
        mixture = {}
        for part in args.mixture.split(","):
            dom, w = part.rsplit(":", 1)
            mixture[dom] = int(w)
    cfg = CurationConfig(
        min_tokens=args.min_tokens,
        max_punct_ratio=args.max_punct_ratio,
        languages=tuple(args.languages.split(",")) if args.languages
        else None,
        jaccard_threshold=args.jaccard,
        num_partitions=args.partitions,
        text_col=args.text_col,
        id_col=args.id_col,
        max_perplexity=args.max_perplexity,
        mixture_weights=mixture,
        mixture_budget=args.mixture_budget,
    )
    ds = read_parquet_stored(args.input)
    survivors, stats = curate_documents(ds, cfg)
    write_partitioned_parquet(survivors, args.out)
    return stats


def cmd_view(args) -> dict:
    """Refresh or read an incrementally-maintained materialized view
    (cdc/views.py): per-group count/sum/min-max aggregates or exact
    COUNT DISTINCT, maintained by delta propagation from epoch diffs."""
    from arlas_proc_ray.cdc.snapshot import SnapshotStore
    from arlas_proc_ray.cdc.views import (
        read_view,
        refresh_distinct_view,
        refresh_group_view,
    )

    store = SnapshotStore(args.snapshot)
    if args.read:
        df = read_view(store, args.view_id)
        rows = df.to_dict("records")
        return {"rows": len(df), "data": rows if args.full else rows[: args.head]}
    _ray_session(args.num_cpus)
    epoch = args.epoch
    if epoch is not None and epoch.lstrip("-").isdigit():
        epoch = int(epoch)
    group_cols = args.group_by.split(",")
    if getattr(args, "topk", None):
        from arlas_proc_ray.cdc.views import refresh_topk_view

        if not args.distinct_value:
            raise SystemExit("--topk needs --distinct-value COL (the "
                             "ranked value column)")
        r = refresh_topk_view(
            store, view_id=args.view_id, group_cols=group_cols,
            value_col=args.distinct_value, k=args.topk,
            epoch=epoch, full=args.recompute,
        )
    elif args.distinct_value:
        r = refresh_distinct_view(
            store, view_id=args.view_id, group_cols=group_cols,
            value_col=args.distinct_value, epoch=epoch, full=args.recompute,
        )
    else:
        r = refresh_group_view(
            store, view_id=args.view_id, group_cols=group_cols,
            sum_cols=args.sum.split(",") if args.sum else (),
            minmax_cols=args.minmax.split(",") if args.minmax else (),
            epoch=epoch, full=args.recompute,
        )
    out = {k: v for k, v in r.items() if k not in ("state", "pair_state")}
    out["rows"] = len(r["state"])
    rows = r["state"].to_dict("records")
    out["data"] = rows if args.full else rows[: args.head]
    return out


def cmd_sql(args) -> dict:
    """Ad-hoc DuckDB SQL over a committed cut (SnapshotStore.sql) —
    operational introspection; time travel via --epoch <n|ref>."""
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    store = SnapshotStore(args.snapshot)
    epoch = args.epoch
    if epoch is not None and epoch.lstrip("-").isdigit():
        epoch = int(epoch)
    t = store.sql(args.query, epoch=epoch, view=args.view)
    rows = t.to_pylist()
    return {
        "rows": t.num_rows,
        "columns": t.column_names,
        "data": rows if args.full else rows[: args.head],
    }


def cmd_gc(args) -> dict:
    """Remove crashed-run litter (uncommitted epoch dirs above the tip,
    stale .tmp files) — SnapshotStore.gc_orphans; complements vacuum."""
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    return SnapshotStore(args.snapshot).gc_orphans(
        min_age_s=args.min_age, dry_run=args.dry_run,
        include_staged=getattr(args, "include_staged", False),
    )


def cmd_history(args) -> dict:
    """Per-epoch lineage time series (index-only; cdc/snapshot.py
    epoch_history): rows, watermark, events applied, rewritten vs
    referenced partitions for every committed epoch."""
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    hist = SnapshotStore(args.snapshot).epoch_history()
    return {"epochs": len(hist), "history": hist}


def cmd_constraints(args) -> dict:
    """Show the persisted constraint set, or replace it explicitly
    (``--set --check …`` — the loud contract-update path; ingest-time
    declarations that DISAGREE with the persisted set are rejected)."""
    from arlas_proc_ray.cdc.constraints import (
        load_constraints,
        save_constraints,
    )
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    store = SnapshotStore(args.snapshot)
    if args.set:
        checks = _parse_checks(args.check)
        if not checks:
            raise SystemExit("constraints --set needs at least one --check")
        save_constraints(store, checks)
    current = load_constraints(store)
    return {
        "constraints": {
            name: [list(c) for c in clauses]
            for name, clauses in (current or {}).items()
        }
    }


def cmd_stats(args) -> dict:
    """Manifest-only table statistics (SnapshotStore.table_stats): row
    count, watermark, per-column global zone bounds — no data reads."""
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    store = SnapshotStore(args.snapshot)
    epoch = args.epoch
    if epoch is not None and epoch.lstrip("-").isdigit():
        epoch = int(epoch)
    return store.table_stats(epoch)


def cmd_scan(args) -> dict:
    """Pruned snapshot export: zone-map + watermark partition pruning from
    manifests only (SnapshotStore.scan), predicate pushed down into the
    parquet read, result streamed to ``--out`` as partitioned Parquet.
    ``--where`` clauses are ``col:op:value`` (op in ==,!=,<,<=,>,>=;
    value parsed as int/float when it looks numeric)."""
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    _ray_session(args.num_cpus)
    predicate = []
    for clause in args.where or []:
        col, op, val = clause.split(":", 2)
        try:
            val = int(val)
        except ValueError:
            try:
                val = float(val)
            except ValueError:
                pass
        predicate.append((col, op, val))
    store = SnapshotStore(args.snapshot)
    epoch = args.epoch
    if epoch is not None and epoch.lstrip("-").isdigit():
        epoch = int(epoch)  # otherwise a ref name ("prod", "v1", ...)
    plan = store.plan_scan(
        epoch=epoch,
        predicate=predicate or None,
        changed_since_lsn=args.changed_since_lsn,
    )
    ds = store.scan(
        epoch=epoch,
        predicate=predicate or None,
        changed_since_lsn=args.changed_since_lsn,
        changed_rows_only=args.changed_rows_only,
        columns=args.columns.split(",") if args.columns else None,
    )
    out = {k: v for k, v in plan.items() if k != "files"}
    out["files_read"] = len(plan["files"])
    if args.explain and predicate and plan["files"]:
        # footer-only row-group pruning estimate inside surviving files
        # (tight when the store was written with cluster_by sort keys)
        from arlas_proc_ray.cdc.snapshot import row_group_pruning_stats

        out["row_groups"] = row_group_pruning_stats(plan["files"], predicate)
    if args.out:
        ds.write_parquet(args.out)
        out["out"] = args.out
    else:
        out["rows"] = ds.count()
    return out


def cmd_feed(args) -> dict:
    """Change data feed between two epochs (cdc/feed.py): stream the
    I/U/D changelog — optionally with old_<col> pre-images — to ``--out``
    as partitioned Parquet, or just count it."""
    from arlas_proc_ray.cdc.feed import change_feed
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    _ray_session(args.num_cpus)

    def _epoch(v):
        return int(v) if v.lstrip("-").isdigit() else v

    store = SnapshotStore(args.snapshot)
    ds = change_feed(
        store,
        base=_epoch(args.base),
        target=_epoch(args.target) if args.target else None,
        key_cols=args.key.split(","),
        columns=args.columns.split(",") if args.columns else None,
        include_old=args.include_old.split(",") if args.include_old else (),
    )
    out = {
        "snapshot": args.snapshot,
        "base": args.base,
        "target": args.target or "latest",
    }
    if args.out:
        ds.write_parquet(args.out)
        out["out"] = args.out
    else:
        out["rows"] = ds.count()
    return out


def cmd_repartition(args) -> dict:
    """Fan-out evolution (see CdcEngine.repartition_snapshot): rewrite the
    latest committed snapshot over ``--new-partitions`` as one fenced full
    epoch. Resubmitting after a crash resumes finished partitions;
    resubmitting after success is a committed-epoch no-op."""
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.snapshot import SnapshotStore
    from arlas_proc_ray.model import DataModel

    _ray_session(args.num_cpus)
    store = SnapshotStore(args.snapshot)
    latest = store.latest_committed_epoch()
    if latest is None:
        return {"ok": False, "error": "no committed epoch"}
    current_p = len(store.epoch_index(latest))
    if args.epoch is not None and args.epoch <= latest:
        return {
            "epoch": args.epoch,
            "already_committed": True,
            "latest_committed": latest,
        }
    engine = CdcEngine(args.snapshot, DataModel(num_partitions=current_p))
    summary = engine.repartition_snapshot(args.new_partitions, epoch=args.epoch)
    return {
        "epoch": summary["epoch"],
        "partitions": summary["num_partitions"],
        "was_partitions": current_p,
        "rows": summary["row_count"],
        "last_lsn": summary["last_lsn"],
    }


def cmd_rollback(args) -> dict:
    """Metadata-only rollback (see CdcEngine.rollback): commit a new epoch
    whose source map points at the target epoch's files. Rewinds the
    applied-LSN fences so repaired events from the undone epochs can be
    replayed."""
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.snapshot import SnapshotStore
    from arlas_proc_ray.model import DataModel

    store = SnapshotStore(args.snapshot)
    latest = store.latest_committed_epoch()
    if latest is None:
        return {"ok": False, "error": "no committed epoch"}
    to = args.to
    if to.lstrip("-").isdigit():
        to = int(to)
    current_p = len(store.epoch_index(latest))
    engine = CdcEngine(args.snapshot, DataModel(num_partitions=current_p))
    summary = engine.rollback(to)
    return {
        "epoch": summary["epoch"],
        "rolled_back_to": store._resolve_epoch_arg(to),
        "rows": summary["row_count"],
        "last_lsn": summary["last_lsn"],
    }


def cmd_tag(args) -> dict:
    """Manage named refs: pin a name to a committed epoch (``--set``),
    delete one (``--delete``), or list all. A tag is an atomic pointer
    flip — promotion without a data copy; ``vacuum`` keeps every tagged
    epoch's source chain reachable."""
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    store = SnapshotStore(args.snapshot)
    if args.set:
        e = store.tag(args.set, epoch=args.epoch)
        return {"ref": args.set, "epoch": e}
    if args.delete:
        store.delete_ref(args.delete)
        return {"deleted": args.delete}
    return {"refs": store.list_refs()}


def cmd_txn(args) -> dict:
    """Inspect cross-table transaction records (cdc/txn.py): list every
    committed txn id, or resolve one cut (``--id``, default latest) to its
    {table: epoch} map for snapshot-isolated multi-table reads."""
    from arlas_proc_ray.cdc.txn import TxnLog

    log = TxnLog(args.txn_dir)
    if args.list:
        return {"txns": log.list_txns()}
    return {"cut": log.cut(args.id)}


def cmd_optimize(args) -> dict:
    """Lakehouse-style OPTIMIZE: rewrite the latest committed snapshot in
    place (same fan-out) with sort-key clustering and bounded row groups —
    compacts delta chains into one epoch and tightens row-group statistics
    so subsequent predicate scans prune inside every file. Same fenced,
    crash-resumable rewrite as ``repartition_snapshot``."""
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.snapshot import SnapshotStore
    from arlas_proc_ray.model import DataModel

    _ray_session(args.num_cpus)
    store = SnapshotStore(args.snapshot)
    latest = store.latest_committed_epoch()
    if latest is None:
        return {"ok": False, "error": "no committed epoch"}
    current_p = len(store.epoch_index(latest))
    if args.epoch is not None and args.epoch <= latest:
        return {
            "epoch": args.epoch,
            "already_committed": True,
            "latest_committed": latest,
        }
    compression = args.compression
    if compression is None:
        # preserve the store's current codec: sniff one live file's footer
        # (a recluster-only run must not silently transcode zstd→snappy)
        import pyarrow.parquet as pq

        for path in store.epoch_files(latest):
            md = pq.ParquetFile(path).metadata
            if md.num_row_groups:
                compression = md.row_group(0).column(0).compression.lower()
                break
        if compression in (None, "uncompressed"):
            compression = "none"
    engine = CdcEngine(
        args.snapshot,
        DataModel(num_partitions=current_p),
        cluster_by=args.cluster_by.split(",") if args.cluster_by else None,
        cluster_zorder=args.zorder.split(",") if args.zorder else None,
        row_group_rows=args.row_group_rows,
        compression=compression,
    )
    summary = engine.repartition_snapshot(current_p, epoch=args.epoch)
    out = {
        "epoch": summary["epoch"],
        "partitions": summary["num_partitions"],
        "rows": summary["row_count"],
        "clustered_by": args.cluster_by or None,
        "zordered_by": args.zorder or None,
    }
    if args.vacuum_keep is not None:
        out["vacuumed_epochs"] = engine.store.vacuum(keep_last=args.vacuum_keep)
    return out


def cmd_verify(args) -> dict:
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    store = SnapshotStore(args.snapshot)
    epoch = store.latest_committed_epoch()
    if epoch is None:
        return {"ok": False, "error": "no committed epoch"}
    if getattr(args, "deep", False):
        _ray_session(args.num_cpus)
        return store.verify_deep(
            epoch,
            recompute_hashes=getattr(args, "recompute_hashes", False),
            changed_since_epoch=getattr(args, "changed_since_epoch", None),
        )
    try:
        index = store.epoch_index(epoch)
    except RuntimeError as e:  # an old store with a manifest missing
        return {"ok": False, "error": str(e)}
    return {"ok": True, "epoch": epoch, "partitions": len(index),
            "rows": sum(m.row_count for m in index)}


def cmd_publish_es(args) -> dict:
    """Incremental search-index publish (cdc/publish.py): diff the last
    PUBLISHED epoch against the target per partition — unchanged
    partitions skipped from manifests alone — and send only I/U/D
    ``_bulk`` actions. ``--es-url`` posts to a real endpoint;
    ``--dry-run`` computes and counts the actions without sending."""
    from arlas_proc_ray.cdc.publish import publish_to_elasticsearch
    from arlas_proc_ray.cdc.snapshot import SnapshotStore
    from arlas_proc_ray.sources.elastic import CountingTransport, HttpTransport

    _ray_session(args.num_cpus)
    store = SnapshotStore(args.snapshot)
    if args.dry_run:
        factory = CountingTransport
    elif args.es_url:
        url = args.es_url

        def factory():
            return HttpTransport(url)
    else:
        raise SystemExit("publish-es: need --es-url or --dry-run")
    epoch = args.epoch
    if epoch is not None and str(epoch).lstrip("-").isdigit():
        epoch = int(epoch)
    return publish_to_elasticsearch(
        store,
        index=args.index,
        transport_factory=factory,
        key_cols=args.key.split(","),
        sink_id=args.sink_id,
        epoch=epoch,
        full=args.full,
        commit_checkpoint=not args.dry_run,
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="arlas_proc_ray.jobs")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("replay", help="apply one changelog epoch")
    r.add_argument("--events", required=True, help="changelog parquet path/glob")
    r.add_argument("--snapshot", required=True)
    r.add_argument("--epoch", type=int, required=True)
    r.add_argument("--partitions", type=int, default=64)
    r.add_argument("--stage", action="store_true",
                   help="write-audit-publish: withhold the commit marker; "
                        "finish with `jobs publish`")
    r.add_argument("--delta", action="store_true")
    r.add_argument("--check", action="append", default=None,
                   metavar="NAME:COL:OP[:VALUE]",
                   help="declare a table constraint (repeatable; ops "
                        "== != < <= > >= in not_null; in values are "
                        "|-separated)")
    r.add_argument("--on-violation", default="fail",
                   choices=["fail", "dead_letter"])
    r.add_argument("--dead-letter-dir", default=None,
                   help="quarantine invalid rows here instead of failing")
    r.add_argument("--num-cpus", type=int, default=None)
    r.set_defaults(fn=cmd_replay)

    s = sub.add_parser("synthesize", help="write a deterministic changelog")
    s.add_argument("--out", required=True)
    s.add_argument("--events", type=int, required=True)
    s.add_argument("--keys", type=int, default=None)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--lo", type=int, default=0)
    s.add_argument("--hi", type=int, default=None)
    s.add_argument("--num-cpus", type=int, default=None)
    s.set_defaults(fn=cmd_synthesize)

    g = sub.add_parser("purge", help="hard-delete keys via a tombstone epoch")
    g.add_argument("--keys", default=None,
                   help="parquet/csv file with the key columns (repo, path)")
    g.add_argument("--where", action="append", default=None,
                   metavar="COL:OP:VALUE",
                   help="predicate purge instead of --keys (pruned scan "
                        "finds the matching keys); repeatable, ANDed")
    g.add_argument("--snapshot", required=True)
    g.add_argument("--epoch", type=int, default=None,
                   help="target epoch (default: latest committed + 1)")
    g.add_argument("--partitions", type=int, default=64)
    g.add_argument("--num-cpus", type=int, default=None)
    g.set_defaults(fn=cmd_purge)

    rp = sub.add_parser("repartition", help="rewrite snapshot at a new fan-out")
    rp.add_argument("--snapshot", required=True)
    rp.add_argument("--new-partitions", type=int, required=True)
    rp.add_argument("--epoch", type=int, default=None,
                    help="target epoch (default: latest committed + 1)")
    rp.add_argument("--num-cpus", type=int, default=None)
    rp.set_defaults(fn=cmd_repartition)

    rb = sub.add_parser("rollback", help="metadata-only rollback to an epoch/ref")
    rb.add_argument("--snapshot", required=True)
    rb.add_argument("--to", required=True,
                    help="target epoch number or ref name")
    rb.set_defaults(fn=cmd_rollback)

    tg = sub.add_parser("tag", help="manage named epoch refs")
    tg.add_argument("--snapshot", required=True)
    tg.add_argument("--set", default=None, metavar="NAME")
    tg.add_argument("--delete", default=None, metavar="NAME")
    tg.add_argument("--epoch", type=int, default=None,
                    help="with --set: epoch to pin (default: latest)")
    tg.set_defaults(fn=cmd_tag)

    tx = sub.add_parser("txn", help="inspect cross-table transaction cuts")
    tx.add_argument("--txn-dir", required=True)
    tx.add_argument("--id", type=int, default=None,
                    help="txn id to resolve (default: latest)")
    tx.add_argument("--list", action="store_true")
    tx.set_defaults(fn=cmd_txn)

    op = sub.add_parser("optimize", help="recluster + compact the snapshot in place")
    op.add_argument("--snapshot", required=True)
    op.add_argument("--zorder", default=None,
                    help="comma-separated z-order columns (multi-dim clustering)")
    op.add_argument("--cluster-by", default=None,
                    help="comma-separated sort keys for the rewrite")
    op.add_argument("--row-group-rows", type=int, default=None)
    op.add_argument("--compression", default=None,
                    help="parquet codec for the rewrite (snappy|zstd|gzip|"
                         "lz4; default: keep the store's current codec)")
    op.add_argument("--epoch", type=int, default=None)
    op.add_argument("--vacuum-keep", type=int, default=None,
                    help="after commit, vacuum to the last N committed epochs")
    op.add_argument("--num-cpus", type=int, default=None)
    op.set_defaults(fn=cmd_optimize)

    v = sub.add_parser("verify", help="check a committed snapshot")
    v.add_argument("--snapshot", required=True)
    v.add_argument("--deep", action="store_true",
                   help="re-read every partition and check rollups (Ray tasks)")
    v.add_argument("--recompute-hashes", action="store_true",
                   help="with --deep: re-hash content and compare per row")
    v.add_argument("--changed-since-epoch", type=int, default=None,
                   help="with --deep: skip partition files physically "
                        "written at or below this already-audited epoch")
    v.add_argument("--num-cpus", type=int, default=None)
    v.set_defaults(fn=cmd_verify)

    td = sub.add_parser("tail-dir", help="consume a segment directory into epochs")
    td.add_argument("--segments", required=True, help="directory of segment files")
    td.add_argument("--snapshot", required=True)
    td.add_argument("--partitions", type=int, default=16)
    td.add_argument("--format", choices=["jsonl", "parquet"], default="jsonl")
    td.add_argument("--check", action="append", default=None,
                    metavar="NAME:COL:OP[:VALUE]",
                    help="declare a table constraint (repeatable)")
    td.add_argument("--on-violation", default="fail",
                    choices=["fail", "dead_letter"])
    td.add_argument("--dead-letter-dir", default=None)
    td.add_argument("--once", action="store_true", help="one poll instead of until-idle")
    td.add_argument("--num-cpus", type=int, default=None)
    td.set_defaults(fn=cmd_tail_dir)

    tf = sub.add_parser(
        "tail-fanin",
        help="consume K skewed shard directories via watermark cuts",
    )
    tf.add_argument(
        "--shard", action="append", required=True,
        metavar="[NAME=]DIR",
        help="shard segment directory (repeatable, parquet segments)",
    )
    tf.add_argument("--snapshot", required=True)
    tf.add_argument("--partitions", type=int, default=16)
    tf.add_argument("--once", action="store_true",
                    help="one poll instead of until-idle")
    tf.add_argument("--num-cpus", type=int, default=None)
    tf.set_defaults(fn=cmd_tail_fanin)

    pe = sub.add_parser(
        "publish", help="audit + publish (or discard) a staged epoch"
    )
    pe.add_argument("--snapshot", required=True)
    pe.add_argument("--epoch", type=int, required=True)
    pe.add_argument("--partitions", type=int, default=64)
    pe.add_argument("--discard", action="store_true",
                    help="drop the staged epoch instead of publishing")
    pe.add_argument("--min-rows", type=int, default=None)
    pe.add_argument("--max-rows", type=int, default=None)
    pe.add_argument("--max-shrink", type=float, default=None,
                    help="mass-delete guard: max fraction of committed "
                         "rows the staged cut may lose")
    pe.add_argument("--expect", action="append", default=None,
                    metavar="NAME:COL:OP[:VALUE]",
                    help="predicate every live state row must satisfy")
    pe.add_argument("--on-fail", default="discard",
                    choices=["discard", "keep"])
    pe.add_argument("--num-cpus", type=int, default=None)
    pe.set_defaults(fn=cmd_publish_epoch)

    ck = sub.add_parser(
        "constraints", help="show or update the table's constraint set"
    )
    ck.add_argument("--snapshot", required=True)
    ck.add_argument("--set", action="store_true",
                    help="with --check: REPLACE the persisted set "
                         "(explicit contract update)")
    ck.add_argument("--check", action="append", default=None,
                    metavar="NAME:COL:OP[:VALUE]")
    ck.set_defaults(fn=cmd_constraints)

    cl = sub.add_parser("clone", help="copy a committed epoch/ref to a new store")
    cl.add_argument("--snapshot", required=True, help="source store root")
    cl.add_argument("--dest", required=True, help="destination store root")
    cl.add_argument("--epoch", default=None,
                    help="epoch number or ref name (default: latest committed)")
    cl.add_argument("--num-cpus", type=int, default=None)
    cl.set_defaults(fn=cmd_clone)

    sy = sub.add_parser(
        "sync", help="incremental clone to a backup/DR destination"
    )
    sy.add_argument("--snapshot", required=True, help="source store root")
    sy.add_argument("--dest", required=True, help="destination store root")
    sy.add_argument("--epoch", default=None,
                    help="source epoch or ref (default: latest committed)")
    sy.add_argument("--num-cpus", type=int, default=None)
    sy.set_defaults(fn=cmd_sync)

    ix = sub.add_parser(
        "index", help="refresh an incrementally-maintained index"
    )
    ix.add_argument("--snapshot", required=True)
    ix.add_argument("--kind", required=True,
                    choices=["secondary", "neardup", "vector", "pq"])
    ix.add_argument("--index-id", default="default")
    ix.add_argument("--value-col", default=None,
                    help="indexed column (value/text/vector source)")
    ix.add_argument("--partitions", type=int, default=8,
                    help="index fan-out (NOT the store's)")
    ix.add_argument("--rebuild", action="store_true",
                    help="ignore the checkpoint; full rebuild/retrain")
    ix.add_argument("--num-cpus", type=int, default=None)
    ix.set_defaults(fn=cmd_index)

    cu = sub.add_parser(
        "curate", help="run the training-data curation pipeline"
    )
    cu.add_argument("--input", required=True, help="documents parquet")
    cu.add_argument("--out", required=True, help="output parquet dir")
    cu.add_argument("--min-tokens", type=int, default=5)
    cu.add_argument("--max-punct-ratio", type=float, default=0.30)
    cu.add_argument("--languages", default=None,
                    help="comma-separated lang_pred whitelist")
    cu.add_argument("--jaccard", type=float, default=0.8)
    cu.add_argument("--partitions", type=int, default=16)
    cu.add_argument("--text-col", default="text")
    cu.add_argument("--id-col", default="doc_id")
    cu.add_argument("--max-perplexity", type=float, default=None)
    cu.add_argument("--mixture", default=None,
                    metavar="DOM:W[,DOM:W...]",
                    help="domain-mixture weights over lang_pred")
    cu.add_argument("--mixture-budget", type=int, default=None,
                    help="token budget for the mixture stage")
    cu.add_argument("--num-cpus", type=int, default=None)
    cu.set_defaults(fn=cmd_curate)

    mg = sub.add_parser("merge", help="MERGE INTO the snapshot from Parquet")
    mg.add_argument("--snapshot", required=True)
    mg.add_argument("--source", required=True, help="parquet file/dir of source rows")
    mg.add_argument("--epoch", type=int, default=None,
                    help="epoch to commit as (default: tip+1)")
    mg.add_argument("--partitions", type=int, default=16)
    mg.add_argument("--when-matched", default="update",
                    choices=["update", "delete", "ignore"])
    mg.add_argument("--when-not-matched", default="insert",
                    choices=["insert", "ignore"])
    mg.add_argument("--when-not-matched-by-source", default="ignore",
                    choices=["ignore", "delete"])
    mg.add_argument("--condition", default=None,
                    help='matched guard over s_*/t_* cols, e.g. "s_content != t_content"')
    mg.add_argument("--lsn-col", default="lsn")
    mg.add_argument("--num-cpus", type=int, default=None)
    mg.set_defaults(fn=cmd_merge)

    vw = sub.add_parser("view", help="refresh/read a materialized view")
    vw.add_argument("--snapshot", required=True)
    vw.add_argument("--view-id", required=True)
    vw.add_argument("--group-by", default=None, help="comma-separated group columns")
    vw.add_argument("--sum", default=None, help="comma-separated sum columns")
    vw.add_argument("--minmax", default=None, help="comma-separated min/max columns")
    vw.add_argument("--distinct-value", default=None,
                    help="exact COUNT DISTINCT of this column per group")
    vw.add_argument("--topk", type=int, default=None,
                    help="with --distinct-value: per-group top-k heavy "
                         "hitters of that column by live-row count")
    vw.add_argument("--epoch", default=None,
                    help="epoch number or ref name (default: latest committed)")
    vw.add_argument("--recompute", action="store_true",
                    help="ignore the checkpoint; full recompute")
    vw.add_argument("--read", action="store_true",
                    help="read the persisted state only, no refresh")
    vw.add_argument("--head", type=int, default=50)
    vw.add_argument("--full", action="store_true")
    vw.add_argument("--num-cpus", type=int, default=None)
    vw.set_defaults(fn=cmd_view)

    sq = sub.add_parser("sql", help="ad-hoc DuckDB SQL over a committed cut")
    sq.add_argument("--snapshot", required=True)
    sq.add_argument("--query", required=True,
                    help="SQL; the cut is the view 'snapshot' (see --view)")
    sq.add_argument("--epoch", default=None,
                    help="epoch number or ref name (default: latest committed)")
    sq.add_argument("--view", default="snapshot")
    sq.add_argument("--head", type=int, default=50)
    sq.add_argument("--full", action="store_true")
    sq.set_defaults(fn=cmd_sql)

    gcp = sub.add_parser("gc", help="remove crashed-run orphans (not vacuum)")
    gcp.add_argument("--snapshot", required=True)
    gcp.add_argument("--min-age", type=float, default=3600.0,
                     help="seconds a file must be untouched before removal")
    gcp.add_argument("--dry-run", action="store_true")
    gcp.add_argument("--include-staged", action="store_true",
                     help="also reclaim abandoned write-audit-publish "
                          "cuts (default: _STAGED dirs are protected)")
    gcp.set_defaults(fn=cmd_gc)

    hi = sub.add_parser("history", help="per-epoch lineage time series")
    hi.add_argument("--snapshot", required=True)
    hi.set_defaults(fn=cmd_history)

    st = sub.add_parser("stats", help="index-only table statistics")
    st.add_argument("--snapshot", required=True)
    st.add_argument("--epoch", default=None,
                    help="epoch number or ref name (default: latest committed)")
    st.set_defaults(fn=cmd_stats)

    sc = sub.add_parser("scan", help="pruned snapshot export (zone maps + LSN)")
    sc.add_argument("--snapshot", required=True)
    sc.add_argument("--out", default=None, help="parquet dir (omit: count only)")
    sc.add_argument("--where", action="append", default=None,
                    metavar="COL:OP:VALUE", help="conjunctive clause, repeatable")
    sc.add_argument("--columns", default=None, help="comma-separated projection")
    sc.add_argument("--epoch", default=None,
                    help="epoch number or ref name (default: latest committed)")
    sc.add_argument("--changed-since-lsn", type=int, default=None)
    sc.add_argument("--changed-rows-only", action="store_true")
    sc.add_argument("--explain", action="store_true",
                    help="report footer-only row-group pruning stats")
    sc.add_argument("--num-cpus", type=int, default=None)
    sc.set_defaults(fn=cmd_scan)

    pe = sub.add_parser(
        "publish-es", help="incremental search-index publish (diff since last publish)"
    )
    pe.add_argument("--snapshot", required=True)
    pe.add_argument("--index", required=True)
    pe.add_argument("--es-url", default=None, help="http(s)://host:9200")
    pe.add_argument("--dry-run", action="store_true",
                    help="compute and count actions; send nothing, move no checkpoint")
    pe.add_argument("--key", default="repo,path", help="comma-separated key columns")
    pe.add_argument("--sink-id", default="default")
    pe.add_argument("--epoch", default=None,
                    help="epoch number or ref name (default: latest committed)")
    pe.add_argument("--full", action="store_true",
                    help="ignore the checkpoint; re-index every live row")
    pe.add_argument("--num-cpus", type=int, default=None)
    pe.set_defaults(fn=cmd_publish_es)

    fd = sub.add_parser(
        "feed", help="change data feed (I/U/D changelog) between two epochs"
    )
    fd.add_argument("--snapshot", required=True)
    fd.add_argument("--base", required=True, help="epoch number or ref name")
    fd.add_argument("--target", default=None,
                    help="epoch number or ref name (default: latest committed)")
    fd.add_argument("--key", default="repo,path", help="comma-separated key columns")
    fd.add_argument("--columns", default=None, help="comma-separated projection")
    fd.add_argument("--include-old", default=None,
                    help="comma-separated pre-image columns (old_<col>)")
    fd.add_argument("--out", default=None, help="parquet dir (omit: count only)")
    fd.add_argument("--num-cpus", type=int, default=None)
    fd.set_defaults(fn=cmd_feed)

    ln = sub.add_parser("lineage", help="dump per-partition manifest history")
    ln.add_argument("--snapshot", required=True)
    ln.add_argument("--head", type=int, default=50)
    ln.add_argument("--full", action="store_true")
    ln.set_defaults(fn=cmd_lineage)

    args = p.parse_args(argv)
    out = args.fn(args)
    print(json.dumps(out, default=str))
    # only tear down a session THIS process created (never a caller's —
    # e.g. the pytest session fixture when main() is driven in-process)
    if _OWNS_SESSION:
        import ray

        if ray.is_initialized():
            ray.shutdown()
    return 0 if out.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
