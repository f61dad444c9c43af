"""Multi-table changelog demux: one stream, many tables, one read.

A production binlog/WAL tail multiplexes change events for MANY tables
into one stream (the Debezium-relay shape). Applying it naively costs one
full scan per table; this module splits ONCE:

    multiplexed events ──map_batches──▶ split by ``table_col`` →
        per-table content-addressed Parquet spool
        ``spool_dir/table=<t>/epoch=<e>/``             [ONE pass]
    then, per table: ``engine.apply_epoch(read_parquet(spool slice))``
        — the ordinary fenced, exactly-once epoch.

Exactly-once composition:

- spool files are content-addressed and atomically replaced — a retried
  split task rewrites identical bytes (the DLQ sink's contract);
- a rerun whose upstream BLOCKING differs can spool duplicate event rows,
  which the engines' LWW reduction absorbs by construction (same
  ``(key, lsn)`` → one survivor) — duplicates are correctness-neutral;
- each table's epoch is fenced independently by its own store: a demux
  rerun skips tables whose epoch already committed (reported as
  ``already_committed``) and resumes the rest.

Events whose ``table_col`` names no registered engine are quarantined to
the dead-letter sink with reason ``unknown_table`` when one is given,
else the epoch fails loudly.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def _spool_write(table: pa.Table, out_dir: str) -> str:
    """Content-addressed atomic Parquet write (idempotent under retries).

    The address is the sha256 of the SERIALIZED parquet bytes — one
    in-memory write, hash, rename. (The round-3 version hashed
    ``str(table.to_pydict())``: a whole-table Python-object string that
    dominated the demux split at volume — measured as the 20M-event
    composed-tail bottleneck.) Parquet serialization is deterministic
    for identical input tables with fixed writer options, so a retried
    split task still lands on the same path."""
    import io

    buf = io.BytesIO()
    pq.write_table(table, buf, compression="snappy")
    data = buf.getbuffer()
    h = hashlib.sha256(data)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"part-{h.hexdigest()[:32]}.parquet")
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".parquet.tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def demux_epoch(
    events_ds,
    engines: dict,
    epoch: int,
    *,
    spool_dir: str,
    table_col: str = "table",
    dead_letter_dir: str | None = None,
    delta: bool = True,
    txn_log=None,
    apply_fn=None,
    parallel_tables: bool = False,
) -> dict:
    """Apply one multiplexed epoch across per-table engines; one scan.

    ``engines``: table name → ``CdcEngine`` (each with its own snapshot
    dir, DataModel and registry). Returns ``{table: commit summary}``;
    a table whose epoch already committed reports
    ``{"already_committed": True}`` (demux rerun = resume).
    ``delta=True`` (default): tables see independent streams, so
    untouched partitions stay metadata references.

    ``parallel_tables=True``: the per-table applies run concurrently
    from driver threads (each is an independent Ray execution over its
    own store — fences and commits are per-table already). Serial is the
    default: at low core counts concurrent applies just contend.

    ``apply_fn``: per-table apply override ``(engine, slice_ds, epoch) ->
    summary``. Default is ``apply_epoch(..., delta=delta)``, which runs
    the staged exchange and commits exactly ``epoch``; an override must
    keep that contract (see the lockstep guard below).

    ``txn_log`` (a ``cdc.txn.TxnLog``): after EVERY table committed, one
    atomic cross-table record ``{table: epoch}`` is published under
    ``txn_id = epoch`` — readers resolving ``txn_log.cut()`` never see a
    torn multi-table cut even while a demux run is mid-flight (a crash
    between per-table commits leaves the record unwritten; the rerun
    resumes the remaining tables, then publishes).
    """
    import ray.data as rd

    known = sorted(engines)

    def split(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"spooled": pa.array([0], pa.int64())})
        col = batch.column(table_col)
        names = pc.unique(col).to_pylist()
        bad_names = [n for n in names if n not in engines]
        if bad_names:
            mask = pc.is_in(
                col, value_set=pa.array(bad_names, col.type)
            )
            bad = batch.filter(mask)
            if dead_letter_dir is None:
                raise ValueError(
                    f"events for unregistered table(s) {bad_names[:5]}; "
                    f"pass dead_letter_dir to quarantine instead"
                )
            q = bad.append_column(
                "dlq_reason",
                pa.array(["unknown_table"] * bad.num_rows, pa.string()),
            )
            _spool_write(
                q, os.path.join(dead_letter_dir, f"epoch={epoch}")
            )
            batch = batch.filter(pc.invert(mask))
            col = batch.column(table_col)
        n = 0
        for name in (x for x in names if x in engines):
            sub = batch.filter(pc.equal(col, pa.scalar(name, col.type)))
            if sub.num_rows == 0:
                continue
            _spool_write(
                sub.drop_columns([table_col]),
                os.path.join(spool_dir, f"table={name}", f"epoch={epoch}"),
            )
            n += sub.num_rows
        return pa.table({"spooled": pa.array([n], pa.int64())})

    # ONE pass over the multiplexed stream
    spooled = events_ds.map_batches(
        split, batch_format="pyarrow", batch_size=None
    ).sum("spooled")

    def slice_for(name: str):
        """Driver-side dataset CREATION — kept serial even under
        parallel_tables: Ray's read_parquet path resolution lazily
        imports fsspec modules, and that import races across threads
        (measured: both 20M tail processes died with a partial
        fsspec.implementations.http import)."""
        d = os.path.join(spool_dir, f"table={name}", f"epoch={epoch}")
        files = (
            [os.path.join(d, f) for f in sorted(os.listdir(d))
             if f.endswith(".parquet")]
            if os.path.isdir(d)
            else []
        )
        if files:
            return rd.read_parquet(files, partitioning=None)
        # no events for this table this epoch: typed empty stream —
        # the engine still commits the epoch (carry-forward)
        from arlas_proc_ray.cdc.events import CANONICAL_EVENT_SCHEMA

        return rd.from_arrow(CANONICAL_EVENT_SCHEMA.empty_table())

    def apply_table(name: str, slice_ds):
        eng = engines[name]
        if slice_ds is None:
            latest = eng.store.latest_committed_epoch()
            return name, {"epoch": epoch, "already_committed": True,
                          "latest_committed": latest}
        if apply_fn is not None:
            res = apply_fn(eng, slice_ds, epoch)
        else:
            res = eng.apply_epoch(slice_ds, epoch, delta=delta)
        committed_now = eng.store.latest_committed_epoch()
        if committed_now != epoch:
            # Lockstep guard: demux fences on shared epoch numbers, so an
            # apply that commits PAST `epoch` (an auto-split apply_fn —
            # apply_epoch_staged splitting an oversized slice into
            # sub-epochs) would make every FUTURE demux epoch for this
            # table look already-committed and silently skip its events.
            # Fail loudly at the first overshoot instead; size demux
            # epochs within budget or pass auto_split=False in apply_fn.
            raise RuntimeError(
                f"demux lockstep broken for table {name!r}: apply "
                f"committed through epoch {committed_now}, expected "
                f"{epoch} (auto-split apply_fn? oversized slice?)"
            )
        return name, res

    # serial phase: fences + dataset creation (thread-unsafe lazy imports)
    slices = {}
    for name in known:
        eng = engines[name]
        latest = eng.store.latest_committed_epoch()
        slices[name] = (
            None  # already committed: resume no-op
            if latest is not None and latest >= epoch
            else slice_for(name)
        )
    out: dict = {}
    if parallel_tables and len(known) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(known)) as ex:
            for name, res in ex.map(
                lambda n: apply_table(n, slices[n]), known
            ):
                out[name] = res
    else:
        for name in known:
            n, res = apply_table(name, slices[name])
            out[n] = res
    out["_spooled_events"] = int(spooled or 0)
    if txn_log is not None:
        # publish the consistent cut LAST — its existence certifies that
        # every table's epoch is fully committed (same marker discipline
        # as the per-partition manifests inside each store)
        out["_txn"] = txn_log.record(epoch, {name: epoch for name in known})
    return out
