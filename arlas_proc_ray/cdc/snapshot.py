"""Epoch-fenced Parquet snapshot store with per-partition manifests.

The exactly-once sink (BASELINE.json north_star): Ray tasks are
at-least-once, so correctness comes from *idempotent* writes —

- each epoch writes under ``snapshot_dir/epoch=<e>/``: one Parquet file and
  one JSON manifest per partition, each written to a ``.tmp`` path, fsynced,
  then atomically ``os.replace``d (a retried task overwrites with identical
  bytes — harmless);
- a partition whose manifest for epoch e already exists is SKIPPED on
  re-run (crash-resume: finished partitions cost nothing);
- the epoch becomes visible only when the ``_COMMITTED`` marker (written
  last, atomically) exists; readers resolve ``latest_committed_epoch``.

Manifest per partition (FIXTURES.md §4): ``partition_id, last_lsn,
row_count, sha256_rollup`` — the rollup is an order-free hash of the
partition's per-row content sha256s, giving a cheap cross-run lineage
check without re-reading data.

Analogue in the reference: the append-mode daily-partitioned Parquet sink
(/root/reference/src/main/scala/io/arlas/data/sql/WritableDataFrame.scala:68-76)
— which has no fencing and no manifests; those are the new capabilities the
north rule mandates.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from arlas_proc_ray.functions.hashing import sha256_rollup


@dataclass
class PartitionManifest:
    partition_id: int
    epoch: int
    # Applied high-water mark: max LSN ever APPLIED to this partition —
    # monotone across epochs and computed BEFORE tombstone drop, so a
    # DELETE holding the partition's top LSN cannot lower the fence and
    # let a redelivered older upsert resurrect the deleted key.
    last_lsn: int
    row_count: int
    sha256_rollup: str
    # Max last_lsn among SURVIVING rows (-1 if empty) — introspection only,
    # never used for fencing. May lag last_lsn when the newest event was a
    # DELETE.
    max_surviving_lsn: int = -1
    # Free-form per-partition apply metrics (events_applied, apply_s, …) —
    # the north-rule's "per-partition lineage + metrics"; purely
    # observational, never read by the fence/resume logic.
    metrics: dict = field(default_factory=dict)
    # Zone maps: {column: [min, max]} over the partition's surviving rows,
    # for int/float columns and short strings (both bounds ≤ 64 chars).
    # Purely an OPTIMIZATION surface for scan-time partition pruning —
    # absence (older manifests) just means "cannot prune".
    col_stats: dict = field(default_factory=dict)
    # Bloom filters: {column: {"m": bits, "k": hashes, "b64": bitmap}} over
    # the partition's surviving rows, for point-lookup (==) pruning. Zone
    # maps cannot prune equality predicates on hash-partitioned key columns
    # (every partition spans the full key domain); blooms can. Same
    # optimization-only contract as col_stats: absence = cannot prune.
    blooms: dict = field(default_factory=dict)


_STATS_MAX_STR = 64


def _column_stats(table: pa.Table) -> dict:
    """JSON-serializable per-column [min, max] zone maps.

    Collected with the Arrow min_max kernel (vectorized, no Python rows).
    Long strings (e.g. file content) are skipped: a truncated max is not a
    valid upper bound, and nobody range-filters on them anyway."""
    import pyarrow.compute as pc
    import pyarrow.types as pt

    stats: dict = {}
    if table.num_rows == 0:
        return stats
    for name in table.column_names:
        col = table.column(name)
        t = col.type
        if not (pt.is_integer(t) or pt.is_floating(t) or pt.is_string(t)
                or pt.is_large_string(t)):
            continue
        try:
            mm = pc.min_max(col)
        except pa.ArrowNotImplementedError:  # pragma: no cover
            continue
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        if lo is None or hi is None:  # all-null column
            continue
        if isinstance(lo, str) and (
            len(lo) > _STATS_MAX_STR or len(hi) > _STATS_MAX_STR
        ):
            continue
        if isinstance(lo, float) and (lo != lo or hi != hi):  # NaN bounds
            continue
        stats[name] = [lo, hi]
    return stats


_ZORDER_BITS = 16


def _zorder_cluster(table: pa.Table, cols: list[str]) -> pa.Table:
    """Reorder one partition's rows by the Morton code of the columns'
    per-file ranks (stages/zorder.py kernel).

    Rank quantization: ``np.unique(return_inverse)`` gives each column a
    dense 0..n ordinal (works for ints, floats and strings alike), scaled
    into ``_ZORDER_BITS`` bits — monotone per column, so the interleave
    preserves locality regardless of the raw value range. Deterministic:
    ties broken by a stable argsort of the z-values.
    """
    import numpy as np

    from arlas_proc_ray.stages.zorder import morton_interleave

    present = [c for c in cols if c in table.column_names]
    if not present:
        return table
    bits = min(_ZORDER_BITS, 62 // len(present))
    span = (1 << bits) - 1
    dims = []
    for c in present:
        vals = table.column(c).to_pandas().to_numpy()
        _, inv = np.unique(vals, return_inverse=True)
        hi = int(inv.max())
        dims.append(
            np.zeros(len(inv), np.int64)
            if hi == 0
            else inv.astype(np.int64) * span // hi
        )
    z = morton_interleave(dims, bits)
    return table.take(pa.array(np.argsort(z, kind="stable")))


_BLOOM_MIN_BITS = 1 << 13  # 1 KiB
_BLOOM_MAX_BITS = 1 << 20  # 128 KiB
_BLOOM_HASHES = 3


def _bloom_hashes(vals):
    """One sha256-prefix int per value (-1 for null), the input of
    ``_hash_positions``. Values are cast to string first (one canonical
    byte form per value)."""
    import pyarrow.compute as pc

    from arlas_proc_ray.functions.hashing import sha256_prefix_int

    if vals.type != pa.string():
        vals = pc.cast(vals, pa.string())
    return sha256_prefix_int(vals)


def _hash_positions(hv, num_bits: int, num_hashes: int):
    """Kirsch-Mitzenmacher double hashing of ``_bloom_hashes`` output —
    the SAME published scheme as stages/bloom.py:_salted_positions, so a
    bloom built here is reproducible from SQL the same way. Returns a
    ``(num_hashes, len(hv))`` array; null values get position -1."""
    import numpy as np

    h1 = hv % num_bits
    h2 = (hv // num_bits) % num_bits | np.int64(1)
    pos = (h1 + np.arange(num_hashes, dtype=np.int64)[:, None] * h2) % num_bits
    pos[:, hv < 0] = -1
    return pos


def _bloom_positions(vals, num_bits: int, num_hashes: int):
    return _hash_positions(_bloom_hashes(vals), num_bits, num_hashes)


def _bloom_build(col, num_rows: int) -> dict:
    """One packed base64 bitmap for a column; ~8 bits/row (FP ≈ 3% at
    k=3), clamped to [1 KiB, 128 KiB] and rounded up to a power of two
    (h2 is odd, hence coprime with a power-of-two m)."""
    import base64

    import numpy as np

    bits = _BLOOM_MIN_BITS
    while bits < num_rows * 8 and bits < _BLOOM_MAX_BITS:
        bits <<= 1
    hit = np.zeros(bits, dtype=bool)
    for pos in _bloom_positions(col, bits, _BLOOM_HASHES):
        hit[pos[pos >= 0]] = True
    # bit p lives in byte p >> 3 at position p & 7
    bm = np.packbits(hit, bitorder="little")
    return {
        "m": bits,
        "k": _BLOOM_HASHES,
        "b64": base64.b64encode(bm.tobytes()).decode(),
    }


def _bloom_absent(bloom: dict, positions):
    """Per probe value, True only where ``bloom`` PROVES it absent.

    ``positions`` is ``_hash_positions(hashes, bloom["m"], bloom["k"])``;
    a null probe (position -1) says nothing, so it is never absent."""
    import base64

    import numpy as np

    bm = np.frombuffer(base64.b64decode(bloom["b64"]), dtype=np.uint8)
    p = np.maximum(positions, 0)
    unset = ((bm[p >> 3] >> (p & 7).astype(np.uint8)) & 1) == 0
    return (unset & (positions >= 0)).any(axis=0)


def blooms_exclude(blooms: dict, keys: pa.Table) -> bool:
    """True when a partition's manifest ``blooms`` prove every row of
    ``keys`` absent: for each key, some column's bloom misses its value."""
    import numpy as np

    absent = np.zeros(keys.num_rows, dtype=bool)
    for col in keys.column_names:
        bloom = blooms.get(col)
        if bloom is not None:
            positions = _hash_positions(
                _bloom_hashes(keys.column(col)), int(bloom["m"]), int(bloom["k"])
            )
            absent |= _bloom_absent(bloom, positions)
    return bool(absent.all())


class _BloomProbes:
    """The ``==`` clauses of one scan plan, tested against many manifests.

    Each probe value is hashed once per plan and its bit positions are
    computed once per bloom shape ``(m, k)``; a manifest then costs only
    the bit tests on its decoded bitmap."""

    def __init__(self, predicate):
        self.eq = [(col, val) for col, op, val in predicate or () if op == "=="]
        self._hashes: dict = {}
        self._positions: dict = {}

    def __call__(self, blooms: dict) -> bool:
        """True when some ``==`` clause's bloom proves its value absent."""
        for i, (col, val) in enumerate(self.eq):
            bloom = blooms.get(col)
            if bloom is None:
                continue
            shape = (i, int(bloom["m"]), int(bloom["k"]))
            if shape not in self._positions:
                if i not in self._hashes:
                    self._hashes[i] = _bloom_hashes(pa.array([val]))
                self._positions[shape] = _hash_positions(
                    self._hashes[i], shape[1], shape[2])
            if _bloom_absent(bloom, self._positions[shape])[0]:
                return True
        return False


def _stats_may_match(col_stats: dict, predicate) -> bool:
    """Conservative zone-map overlap test for a conjunctive predicate.

    ``predicate`` is a list of ``(column, op, value)`` with op in
    {==, !=, <, <=, >, >=}. Returns False only when the partition's
    [min, max] PROVES no row can satisfy every clause; missing stats for
    a column mean "may match"."""
    for col, op, val in predicate:
        bounds = col_stats.get(col)
        if bounds is None:
            continue
        lo, hi = bounds
        if op == "==":
            if val < lo or val > hi:
                return False
        elif op == "!=":
            if lo == hi == val:
                return False
        elif op == "<":
            if lo >= val:
                return False
        elif op == "<=":
            if lo > val:
                return False
        elif op == ">":
            if hi <= val:
                return False
        elif op == ">=":
            if hi < val:
                return False
        else:
            raise ValueError(f"unknown predicate op: {op!r}")
    return True


def row_group_pruning_stats(files, predicate) -> dict:
    """Footer-only estimate of row-group pruning for a conjunctive predicate.

    Reads ONLY Parquet footers (KBs per file) and applies the same
    conservative zone-map test as partition pruning to each row group's
    column statistics — the set of row groups a pushed-down ``scan()``
    filter must actually read. With sort-key clustering
    (``SnapshotStore(cluster_by=...)``), row-group min/max ranges on the
    cluster columns are near-disjoint and selective predicates prune most
    groups; on unclustered data every group spans the whole domain and
    nothing prunes. Returns row-group and row counts, total vs matching.
    """
    total_rgs = match_rgs = 0
    total_rows = match_rows = 0
    for f in files:
        md = pq.ParquetFile(f).metadata
        for rg in range(md.num_row_groups):
            rgm = md.row_group(rg)
            stats: dict = {}
            for ci in range(rgm.num_columns):
                col = rgm.column(ci)
                st = col.statistics
                if st is not None and st.has_min_max:
                    stats[col.path_in_schema] = [st.min, st.max]
            total_rgs += 1
            total_rows += rgm.num_rows
            if _stats_may_match(stats, predicate):
                match_rgs += 1
                match_rows += rgm.num_rows
    return {
        "row_groups_total": total_rgs,
        "row_groups_matching": match_rgs,
        "rows_total": total_rows,
        "rows_matching": match_rows,
    }


def _predicate_to_expr(predicate):
    """Conjunctive (col, op, value) list → pyarrow dataset expression."""
    import operator

    import pyarrow.dataset as pads

    ops = {
        "==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    }
    expr = None
    for col, op, val in predicate:
        e = ops[op](pads.field(col), val)
        expr = e if expr is None else expr & e
    return expr


# Plans up to this many bytes on disk are read in the calling process. After
# decompression that is at most about one Ray Data target block (128 MiB),
# and it skips the streaming executor's start-up, which costs far more
# than reading a few MB: the perfbench scans read 1-2 MB. A file count
# would not bound that process's memory (at P=64 and 100 TB one file is
# ~1.5 TB).
SMALL_SCAN_BYTES = 32 << 20


def _read_small(files, columns, clauses, expr) -> pa.Table:
    """``scan``'s in-process read: each file at the ``ParquetFile.read``
    floor, then the residual filter and projection in Arrow."""
    need = None
    if columns is not None:
        need = list(dict.fromkeys([*columns, *(c for c, _, _ in clauses)]))
    tables = []
    for f in files:
        with pq.ParquetFile(f) as pf:
            tables.append(pf.read(columns=need))
    table = pa.concat_tables(tables, promote_options="default")
    if expr is not None:
        table = table.filter(expr)
    if columns is not None:
        table = table.select(columns)
    # one chunk per column: Ray serializes every chunk as its own array
    return table.combine_chunks()


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def summary_sources(summary: dict, epoch: int) -> dict[int, int]:
    """partition → epoch holding its current file, from an epoch summary."""
    if "sources" in summary:
        return {int(p): int(e) for p, e in summary["sources"].items()}
    return {p: epoch for p in range(summary["num_partitions"])}


class ConcurrentCommitError(RuntimeError):
    """Another writer committed an epoch since this writer planned its own."""


class SnapshotStore:
    """Filesystem layout + atomic commit protocol for compacted snapshots."""

    def __init__(
        self,
        root: str,
        *,
        bloom_cols: list[str] | None = None,
        cluster_by: list[str] | None = None,
        cluster_zorder: list[str] | None = None,
        row_group_rows: int | None = None,
        compression: str = "snappy",
    ):
        if cluster_by and cluster_zorder:
            raise ValueError("pass cluster_by or cluster_zorder, not both")
        self.root = root
        # Columns to build per-partition bloom filters over at write time
        # (typically the key columns — zone maps cannot prune == on
        # hash-partitioned keys, blooms can). None → no blooms.
        self.bloom_cols = list(bloom_cols) if bloom_cols else []
        # Sort-key clustering: every partition's rows are sorted by these
        # columns before the Parquet write, so row-group min/max statistics
        # become TIGHT (disjoint ranges instead of each row group spanning
        # the whole domain) and the predicate pushed down by ``scan()``
        # prunes row groups inside surviving files, not just whole
        # partitions. Costs one in-memory sort per partition at write time;
        # changes row ORDER only (LWW content, manifests, rollups and scan
        # results are order-free).
        self.cluster_by = list(cluster_by) if cluster_by else []
        # Z-order clustering: the multi-dimensional alternative to
        # cluster_by (Delta/Iceberg OPTIMIZE ZORDER BY). Rows are ordered
        # by the Morton interleave of the columns' per-file RANKS, so
        # row-group min/max stay selective on EVERY listed column at
        # once — a lexicographic sort only prunes on its leading column.
        # Rank quantization (not raw values) makes the interleave
        # scale-free and works for strings; it is an ORDER, zone maps
        # still store raw values. Same order-only contract as cluster_by.
        self.cluster_zorder = list(cluster_zorder) if cluster_zorder else []
        # Parquet row-group size (rows). Smaller groups = finer pruning
        # granularity for clustered scans; None = pyarrow default.
        self.row_group_rows = row_group_rows
        # Parquet codec per partition file. snappy = cheapest CPU (hot
        # ingest default); zstd ≈ 2× smaller files for cold/archival
        # tables — at 100 TB that is the difference between 100 and 50 TB
        # of object-store footprint and scan I/O. A store can be rewritten
        # to a new codec with `jobs optimize --compression`.
        self.compression = compression
        os.makedirs(root, exist_ok=True)

    # ---- paths -----------------------------------------------------------

    def epoch_dir(self, epoch: int) -> str:
        return os.path.join(self.root, f"epoch={epoch}")

    def part_data_path(self, epoch: int, part: int) -> str:
        return os.path.join(self.epoch_dir(epoch), f"part-{part:05d}.parquet")

    def part_manifest_path(self, epoch: int, part: int) -> str:
        return os.path.join(self.epoch_dir(epoch), f"manifest-{part:05d}.json")

    def commit_marker_path(self, epoch: int) -> str:
        return os.path.join(self.epoch_dir(epoch), "_COMMITTED")

    # ---- write path ------------------------------------------------------

    def partition_done(self, epoch: int, part: int) -> bool:
        return os.path.exists(self.part_manifest_path(epoch, part))

    def write_partition(
        self, epoch: int, part: int, table: pa.Table, *, last_lsn: int | None = None,
        metrics: dict | None = None,
    ) -> PartitionManifest:
        """Idempotent atomic write of one partition's compacted state.

        ``last_lsn`` is the applied watermark for the fence —
        ``max(prior manifest last_lsn, max event lsn applied this epoch)``,
        computed by the caller BEFORE tombstones are dropped. When omitted
        (legacy/bootstrap callers) it falls back to the max surviving row
        lsn, which is only safe when no DELETE can hold the top LSN.
        """
        if self.cluster_zorder and table.num_rows > 1:
            table = _zorder_cluster(table, self.cluster_zorder)
        elif self.cluster_by and table.num_rows > 1:
            sort_keys = [
                (c, "ascending") for c in self.cluster_by
                if c in table.column_names
            ]
            if sort_keys:
                table = table.sort_by(sort_keys)
        surviving = (
            int(pa.compute.max(table.column("last_lsn")).as_py())
            if table.num_rows
            else -1
        )
        manifest = PartitionManifest(
            partition_id=part,
            epoch=epoch,
            last_lsn=surviving if last_lsn is None else max(int(last_lsn), surviving),
            row_count=table.num_rows,
            sha256_rollup=sha256_rollup(
                table.column("content_sha256") if table.num_rows else []
            ),
            max_surviving_lsn=surviving,
            metrics=dict(metrics or {}),
            col_stats=_column_stats(table),
            blooms={
                c: _bloom_build(table.column(c), table.num_rows)
                for c in self.bloom_cols
                if c in table.column_names and table.num_rows
            },
        )
        data_path = self.part_data_path(epoch, part)
        os.makedirs(os.path.dirname(data_path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(data_path), suffix=".parquet.tmp"
        )
        try:
            pq.write_table(
                table, tmp, compression=self.compression,
                row_group_size=self.row_group_rows,
            )
            # durable before it is visible: the manifest written next
            # certifies these bytes
            os.fsync(fd)
            os.replace(tmp, data_path)
        finally:
            os.close(fd)
            if os.path.exists(tmp):
                os.unlink(tmp)
        # manifest LAST: its existence certifies the data file is complete
        _atomic_write_bytes(
            self.part_manifest_path(epoch, part),
            json.dumps(vars(manifest)).encode(),
        )
        return manifest

    def commit_epoch(
        self,
        epoch: int,
        num_partitions: int,
        sources: dict[int, int] | None = None,
        expected_prev: int | None | type(...) = ...,
    ) -> dict:
        """Write the _COMMITTED marker once every partition manifest exists.

        ``sources`` (delta epochs): partition → epoch whose file holds that
        partition's current state. Partitions untouched by this epoch point
        at an older epoch instead of being rewritten (lakehouse-style
        metadata chain); omitted → every partition lives in this epoch.

        ``expected_prev``: optimistic concurrency fence — the latest
        committed epoch this writer PLANNED against (None for a bootstrap
        write). If anything else was committed since — including this
        epoch NUMBER by a racing duplicate writer, whose partitions may
        interleave with ours through the partition_done fences — this
        commit raises ``ConcurrentCommitError`` instead of publishing a
        silently mixed state. A single-writer retry never reaches here
        (the engine rejects re-applying a committed epoch earlier).
        Default ``...`` skips the check (legacy callers).
        """
        if expected_prev is not ...:
            latest = self.latest_committed_epoch()
            if latest != expected_prev:
                raise ConcurrentCommitError(
                    f"planned against epoch {expected_prev} but latest "
                    f"committed is now {latest}; replay this epoch's events "
                    f"on top of the current state"
                )
        sources = {int(p): int(e) for p, e in (sources or {}).items()}
        manifests = [
            self.read_manifest(sources.get(p, epoch), p)
            for p in range(num_partitions)
        ]
        missing = [p for p, m in enumerate(manifests) if m is None]
        if missing:
            raise RuntimeError(f"epoch {epoch}: partitions not done: {missing[:10]}")
        summary = {
            "epoch": epoch,
            "num_partitions": num_partitions,
            "row_count": sum(m.row_count for m in manifests),
            "last_lsn": max((m.last_lsn for m in manifests), default=-1),
            "rollup": sha256_rollup([m.sha256_rollup for m in manifests]),
            "sources": {str(p): sources.get(p, epoch) for p in range(num_partitions)},
        }
        _atomic_write_bytes(
            self.commit_marker_path(epoch), json.dumps(summary).encode()
        )
        return summary

    # ---- read path -------------------------------------------------------

    def read_manifest(self, epoch: int, part: int) -> PartitionManifest | None:
        p = self.part_manifest_path(epoch, part)
        if not os.path.exists(p):
            return None
        with open(p) as f:
            return PartitionManifest(**json.load(f))

    def latest_committed_epoch(self) -> int | None:
        """Highest epoch with a ``_COMMITTED`` marker. Markers are checked
        newest first, so the usual call stats one file however many
        epochs the store keeps (uncommitted leftovers cost one each)."""
        if not os.path.isdir(self.root):
            return None
        epochs = sorted(
            (int(name.split("=", 1)[1]) for name in os.listdir(self.root)
             if name.startswith("epoch=")),
            reverse=True,
        )
        for e in epochs:
            if os.path.exists(self.commit_marker_path(e)):
                return e
        return None

    def read_partition(self, epoch: int, part: int) -> pa.Table | None:
        p = self.part_data_path(epoch, part)
        if not os.path.exists(p):
            return None
        with pq.ParquetFile(p) as f:
            return f.read()

    def read_epoch_summary(self, epoch: int) -> dict:
        with open(self.commit_marker_path(epoch)) as f:
            return json.load(f)

    def resolve_sources(self, epoch: int) -> dict[int, int]:
        """partition → epoch holding its current file, for a committed epoch."""
        return summary_sources(self.read_epoch_summary(epoch), epoch)

    def read_partition_resolved(self, epoch: int, part: int) -> pa.Table | None:
        return self.read_partition(self.resolve_sources(epoch).get(part, epoch), part)

    def read_manifest_resolved(self, epoch: int, part: int) -> PartitionManifest | None:
        return self.read_manifest(self.resolve_sources(epoch).get(part, epoch), part)

    def _resolve_epoch_arg(self, epoch) -> int | None:
        """int passes through; a str is a ref name; None = latest."""
        if isinstance(epoch, str):
            return self.resolve_ref(epoch)
        return self.latest_committed_epoch() if epoch is None else epoch

    def sql(self, query: str, *, epoch: int | str | None = None, view: str = "snapshot"):
        """Ad-hoc SQL over a committed cut with DuckDB (returns pa.Table).

        The resolved partition files of ``epoch`` (or ref; default
        latest) register as a read-only view named ``view`` — time
        travel is just ``epoch="prod"``. An operational introspection
        surface, not the distributed query path: DuckDB scans the
        Parquet directly (its own projection/filter pushdown applies),
        single-node — use ``scan()`` for cluster-scale pipelines.
        """
        import duckdb

        e = self._resolve_epoch_arg(epoch)
        if e is None:
            raise RuntimeError("no committed epoch")
        sources = self.resolve_sources(e)
        num_parts = self.read_epoch_summary(e)["num_partitions"]
        files = [
            p
            for p in (
                self.part_data_path(sources.get(i, e), i)
                for i in range(num_parts)
            )
            if os.path.exists(p)
        ]
        if not files:
            raise RuntimeError(f"epoch {e} has no data files to query")
        con = duckdb.connect()
        try:
            file_list = ", ".join("'" + f.replace("'", "''") + "'" for f in files)
            con.execute(
                f"CREATE VIEW {view} AS SELECT * FROM read_parquet([{file_list}])"
            )
            return con.execute(query).arrow()
        finally:
            con.close()

    def gc_orphans(self, *, min_age_s: float = 3600.0, dry_run: bool = False,
                   include_staged: bool = False) -> dict:
        """Remove crashed-run litter: uncommitted epoch dirs above the
        committed tip, and stray ``*.tmp`` files anywhere in the store.

        Complements ``vacuum`` (which reclaims epochs BELOW the tip once
        nothing references them): a writer that died mid-epoch leaves an
        epoch dir with partition files but no commit marker — invisible
        to readers, but at 100 TB it is real object-store money.

        Safety: an uncommitted epoch is removed only when its newest
        file is older than ``min_age_s`` (a LIVE writer's in-flight
        epoch keeps getting younger files; a crashed one never does).
        The epoch exactly at tip+1 is additionally assumed in-flight
        unless stale. ``dry_run`` reports without deleting.
        """
        import time as _time

        now = _time.time()
        latest = self.latest_committed_epoch()
        removed: list[str] = []
        kept: list[str] = []
        n_bytes = 0

        def newest_mtime(d: str) -> float:
            newest = 0.0
            for base, _, files in os.walk(d):
                for f in files:
                    try:
                        newest = max(newest, os.path.getmtime(os.path.join(base, f)))
                    except OSError:
                        pass
            return newest

        for name in sorted(os.listdir(self.root)):
            full = os.path.join(self.root, name)
            if name.startswith("epoch=") and os.path.isdir(full):
                try:
                    e = int(name.split("=", 1)[1])
                except ValueError:
                    continue
                committed = os.path.exists(self.commit_marker_path(e))
                if committed or (latest is not None and e <= latest):
                    continue  # vacuum's jurisdiction, not ours
                if (not include_staged
                        and os.path.exists(os.path.join(full, "_STAGED"))):
                    # write-audit-publish cut awaiting publish/discard
                    # (engine.apply_epoch(publish=False)) — not litter
                    # unless the caller opts in (abandoned-cut cleanup)
                    kept.append(name)
                    continue
                if now - newest_mtime(full) < min_age_s:
                    kept.append(name)
                    continue
                size = sum(
                    os.path.getsize(os.path.join(b, f))
                    for b, _, fs in os.walk(full)
                    for f in fs
                )
                n_bytes += size
                removed.append(name)
                if not dry_run:
                    shutil.rmtree(full, ignore_errors=True)

        # stray tmp files (atomic-write leftovers) under any surviving dir
        for base, _, files in os.walk(self.root):
            for f in files:
                if f.endswith(".tmp"):
                    p = os.path.join(base, f)
                    try:
                        if now - os.path.getmtime(p) < min_age_s:
                            continue
                        n_bytes += os.path.getsize(p)
                        removed.append(os.path.relpath(p, self.root))
                        if not dry_run:
                            os.unlink(p)
                    except OSError:
                        pass

        return {
            "removed": removed,
            "kept_inflight": kept,
            "bytes": n_bytes,
            "dry_run": dry_run,
        }

    def epoch_history(self) -> list[dict]:
        """Per-epoch lineage time series from commit markers + manifests
        ONLY — no data files read: for every committed epoch, the row
        count, applied-LSN watermark, events applied and rewritten vs
        referenced partition counts (delta epochs reference untouched
        partitions instead of rewriting them). The ops answer to "what
        did each ingest cycle actually do?"."""
        out: list[dict] = []
        if not os.path.isdir(self.root):
            return out
        epochs = sorted(
            int(n.split("=", 1)[1])
            for n in os.listdir(self.root)
            if n.startswith("epoch=")
            and os.path.exists(
                self.commit_marker_path(int(n.split("=", 1)[1]))
            )
        )
        for e in epochs:
            summary = self.read_epoch_summary(e)
            sources = self.resolve_sources(e)
            num_parts = summary["num_partitions"]
            rewritten = sum(
                1 for p in range(num_parts) if sources.get(p, e) == e
            )
            events = 0
            for p in range(num_parts):
                if sources.get(p, e) != e:
                    continue  # referenced partition: no work this epoch
                m = self.read_manifest(e, p)
                if m is not None:
                    events += int(m.metrics.get("events_applied", 0) or 0)
            out.append({
                "epoch": e,
                "row_count": summary["row_count"],
                "last_lsn": summary["last_lsn"],
                "num_partitions": num_parts,
                "partitions_rewritten": rewritten,
                "partitions_referenced": num_parts - rewritten,
                "events_applied": events,
            })
        return out

    def table_stats(self, epoch: int | str | None = None) -> dict:
        """Table-level statistics from MANIFESTS ONLY — no data files read.

        The ANALYZE / information-schema surface a query planner wants:
        row count, applied-LSN watermark, per-column global [min, max].
        At 100 TB this is P small JSON reads (KBs), the same plan-time
        cost class as ``plan_scan`` — never a data scan.

        A column's global bounds are reported only when EVERY non-empty
        partition carries zone maps for it (manifest absence means
        "unknown", and a bound built from a subset would be wrong).
        """
        e = self._resolve_epoch_arg(epoch)
        if e is None:
            raise RuntimeError("no committed epoch")
        sources = self.resolve_sources(e)
        num_parts = self.read_epoch_summary(e)["num_partitions"]

        row_count = 0
        applied_lsn = -1
        max_surviving = -1
        events_applied = 0
        nonempty = 0
        col_lo: dict = {}
        col_hi: dict = {}
        col_seen: dict = {}
        for p in range(num_parts):
            m = self.read_manifest(sources.get(p, e), p)
            if m is None:
                continue
            row_count += m.row_count
            applied_lsn = max(applied_lsn, m.last_lsn)
            max_surviving = max(max_surviving, m.max_surviving_lsn)
            events_applied += int(m.metrics.get("events_applied", 0) or 0)
            if m.row_count == 0:
                continue
            nonempty += 1
            for c, (lo, hi) in (m.col_stats or {}).items():
                col_seen[c] = col_seen.get(c, 0) + 1
                col_lo[c] = lo if c not in col_lo else min(col_lo[c], lo)
                col_hi[c] = hi if c not in col_hi else max(col_hi[c], hi)
        columns = {
            c: [col_lo[c], col_hi[c]]
            for c in col_seen
            if col_seen[c] == nonempty
        }
        return {
            "epoch": e,
            "partitions": num_parts,
            "nonempty_partitions": nonempty,
            "row_count": row_count,
            "applied_lsn": applied_lsn,
            "max_surviving_lsn": max_surviving,
            "events_applied": events_applied,
            "columns": columns,
        }

    def read_state(self, epoch: int | str | None = None) -> pa.Table:
        """Whole final state of a committed epoch (small-scale helper)."""
        e = self._resolve_epoch_arg(epoch)
        if e is None:
            raise RuntimeError("no committed epoch")
        sources = self.resolve_sources(e)
        parts = []
        for p in range(self.read_epoch_summary(e)["num_partitions"]):
            t = self.read_partition(sources.get(p, e), p)
            if t is not None and t.num_rows:
                parts.append(t)
        return pa.concat_tables(parts) if parts else None

    def plan_scan(
        self,
        *,
        epoch: int | str | None = None,
        predicate: list[tuple] | None = None,
        changed_since_lsn: int | None = None,
    ) -> dict:
        """Manifest-only pruning plan for a snapshot scan.

        Decides, from manifests alone (KBs, no data I/O), which partition
        files a scan must read:

        - ``changed_since_lsn``: partitions whose applied watermark
          (``last_lsn``) is ≤ the given LSN provably received no event
          after it — skipped (incremental consumption).
        - ``predicate``: conjunctive ``(col, op, value)`` clauses tested
          against each partition's zone maps (``col_stats``); a partition
          whose [min, max] proves no row can match is skipped. Manifests
          written before zone maps existed simply never prune.
        - empty partitions (row_count 0) are always skipped.

        - bloom filters (when the manifest carries them) prune ``==``
          clauses zone maps cannot — hash-partitioned key columns span
          the full domain in every partition, but a bloom miss proves
          the key absent (false-positive keeps, never false prunes).
          Each ``==`` value is hashed once per plan, not once per
          manifest.

        Returns ``{"epoch", "files", "partitions_total", "pruned_lsn",
        "pruned_stats", "pruned_bloom", "pruned_empty"}``. Pruning is
        conservative: a
        surviving file may still contain no matching row; ``scan()``
        applies the predicate as a residual row filter.
        """
        e = self._resolve_epoch_arg(epoch)
        if e is None:
            raise RuntimeError("no committed epoch")
        summary = self.read_epoch_summary(e)
        sources = summary_sources(summary, e)
        num_partitions = summary["num_partitions"]
        bloom_prunes = _BloomProbes(predicate)
        files: list[str] = []
        pruned_lsn = pruned_stats = pruned_empty = pruned_bloom = 0
        for p in range(num_partitions):
            src = sources.get(p, e)
            m = self.read_manifest(src, p)
            if m is None:  # pragma: no cover - commit_epoch guarantees
                raise RuntimeError(f"epoch {e}: missing manifest for part {p}")
            if m.row_count == 0:
                pruned_empty += 1
                continue
            if changed_since_lsn is not None and m.last_lsn <= changed_since_lsn:
                pruned_lsn += 1
                continue
            if predicate and not _stats_may_match(m.col_stats, predicate):
                pruned_stats += 1
                continue
            if m.blooms and bloom_prunes(m.blooms):
                pruned_bloom += 1
                continue
            files.append(self.part_data_path(src, p))
        return {
            "epoch": e,
            "files": files,
            "partitions_total": num_partitions,
            "pruned_lsn": pruned_lsn,
            "pruned_stats": pruned_stats,
            "pruned_bloom": pruned_bloom,
            "pruned_empty": pruned_empty,
        }

    def scan(
        self,
        *,
        epoch: int | str | None = None,
        predicate: list[tuple] | None = None,
        changed_since_lsn: int | None = None,
        changed_rows_only: bool = False,
        columns: list[str] | None = None,
    ):
        """Pruned read of a committed snapshot as a Ray Dataset.

        Partition files are pruned by ``plan_scan`` (zone maps, blooms and
        applied-LSN watermarks, manifests only). How the surviving files
        are read depends on their size on disk:

        - up to ``SMALL_SCAN_BYTES``, eagerly in this process: each file
          with ``pq.ParquetFile.read`` (``columns=`` plus the predicate's
          columns), the predicate applied as an Arrow filter, and the
          table wrapped with ``ray.data.from_arrow``. A selective scan
          then costs its I/O, not the streaming executor's start-up;
        - above it, lazily with ``ray.data.read_parquet``, the SAME
          predicate pushed down as a pyarrow dataset filter (row-group/
          page pruning inside each file) and ``columns=`` projection, so
          at 100 TB a selective scan touches only the partitions, row
          groups and columns it needs and the streaming executor
          pipelines the rest.

        Both reads return the same rows with the file schema (no hive
        ``epoch`` column).

        ``changed_rows_only=True`` (requires ``changed_since_lsn``) further
        filters to rows with ``last_lsn > changed_since_lsn`` — a true
        incremental changed-row feed for downstream consumers.
        """
        import ray.data as rd

        if changed_rows_only and changed_since_lsn is None:
            raise ValueError("changed_rows_only requires changed_since_lsn")
        plan = self.plan_scan(
            epoch=epoch, predicate=predicate, changed_since_lsn=changed_since_lsn
        )
        clauses = list(predicate or [])
        if changed_rows_only:
            clauses.append(("last_lsn", ">", int(changed_since_lsn)))
        expr = _predicate_to_expr(clauses) if clauses else None
        if not plan["files"]:
            # typed empty dataset: schema from any live partition file
            sources = self.resolve_sources(plan["epoch"])
            schema = None
            for p, src in sorted(sources.items()):
                path = self.part_data_path(src, p)
                if os.path.exists(path):
                    schema = pq.read_schema(path)
                    break
            if schema is None:
                raise RuntimeError("no partition files to derive schema from")
            empty = schema.empty_table()
            if columns:
                empty = empty.select(columns)
            return rd.from_arrow(empty)
        if sum(os.stat(f).st_size for f in plan["files"]) <= SMALL_SCAN_BYTES:
            return rd.from_arrow(_read_small(plan["files"], columns, clauses, expr))
        # partitioning=None: the hive-style ``epoch=N`` path segment must
        # not be inferred as a column — scan schema equals file schema.
        # (Ray 2.49 can't combine partitioning=None with columns=; with a
        # projection the hive column is excluded anyway unless requested.)
        if columns is None:
            return rd.read_parquet(plan["files"], filter=expr, partitioning=None)
        return rd.read_parquet(plan["files"], columns=columns, filter=expr)

    def lineage(self) -> pa.Table:
        """Every partition manifest ever committed, as one queryable table.

        The north-rule's per-partition lineage surface: one row per
        (epoch, partition) with the fence watermark, row count, sha256
        rollup, whether the file is live in the latest committed epoch's
        source map, and the apply metrics as a JSON string. Reads only
        manifests (KBs), never data files — constant-cost introspection
        at any table size.
        """
        latest = self.latest_committed_epoch()
        live = self.resolve_sources(latest) if latest is not None else {}
        rows = {
            "epoch": [], "partition_id": [], "last_lsn": [],
            "row_count": [], "max_surviving_lsn": [], "sha256_rollup": [],
            "committed": [], "live": [], "metrics_json": [],
        }
        if os.path.isdir(self.root):
            for name in sorted(os.listdir(self.root)):
                if not name.startswith("epoch="):
                    continue
                e = int(name.split("=", 1)[1])
                committed = os.path.exists(self.commit_marker_path(e))
                for f in sorted(os.listdir(os.path.join(self.root, name))):
                    if not (f.startswith("manifest-") and f.endswith(".json")):
                        continue
                    p = int(f[len("manifest-"):-len(".json")])
                    m = self.read_manifest(e, p)
                    if m is None:
                        continue
                    rows["epoch"].append(e)
                    rows["partition_id"].append(p)
                    rows["last_lsn"].append(m.last_lsn)
                    rows["row_count"].append(m.row_count)
                    rows["max_surviving_lsn"].append(m.max_surviving_lsn)
                    rows["sha256_rollup"].append(m.sha256_rollup)
                    rows["committed"].append(committed)
                    rows["live"].append(live.get(p) == e)
                    rows["metrics_json"].append(json.dumps(m.metrics, sort_keys=True))
        return pa.table(
            {
                "epoch": pa.array(rows["epoch"], pa.int64()),
                "partition_id": pa.array(rows["partition_id"], pa.int32()),
                "last_lsn": pa.array(rows["last_lsn"], pa.int64()),
                "row_count": pa.array(rows["row_count"], pa.int64()),
                "max_surviving_lsn": pa.array(rows["max_surviving_lsn"], pa.int64()),
                "sha256_rollup": pa.array(rows["sha256_rollup"], pa.string()),
                "committed": pa.array(rows["committed"], pa.bool_()),
                "live": pa.array(rows["live"], pa.bool_()),
                "metrics_json": pa.array(rows["metrics_json"], pa.string()),
            }
        )

    # ---- integrity ---------------------------------------------------------

    def verify_deep(
        self,
        epoch: int | str | None = None,
        *,
        recompute_hashes: bool = False,
        changed_since_epoch: int | None = None,
    ) -> dict:
        """Distributed integrity check of a committed snapshot.

        One Ray task per live partition re-reads its data file and checks,
        against the manifest: row count and the order-free
        ``sha256_rollup`` of the ``content_sha256`` column (detects a
        swapped/truncated/bit-rotted file). ``recompute_hashes=True``
        additionally re-hashes the ``content`` column with the same
        buffer-sliced sha256 kernel the writer used and compares per row —
        catching a file whose content was altered consistently with its
        stored hashes column being stale (stronger, ~1 read + 1 hash pass
        per partition; still embarrassingly parallel and driver receives
        only small verdict dicts).

        ``changed_since_epoch``: incremental audit — a partition whose
        file physically lives in an epoch at or below the given
        (already-audited) epoch is skipped (reported in ``skipped``). The
        skip keys on the SOURCE epoch, not the LSN fence: carry-forward,
        repartition and OPTIMIZE rewrite files WITHOUT advancing
        ``last_lsn``, and freshly written bytes must be re-verified. At
        100 TB a nightly audit re-reads only the files written since the
        last audit.
        """
        import ray

        from arlas_proc_ray.functions.hashing import sha256_rollup

        e = self._resolve_epoch_arg(epoch)
        if e is None:
            raise RuntimeError("no committed epoch")
        sources = self.resolve_sources(e)
        store = self

        @ray.remote(num_cpus=0.5)
        def check(part: int, src: int) -> dict:
            m = store.read_manifest(src, part)
            if m is None:
                return {"partition": part, "ok": False, "error": "no manifest"}
            t = store.read_partition(src, part)
            if t is None:
                return {"partition": part, "ok": False, "error": "no data file"}
            errs = []
            if t.num_rows != m.row_count:
                errs.append(f"row_count {t.num_rows} != manifest {m.row_count}")
            shas = (
                t.column("content_sha256").to_pylist() if t.num_rows else []
            )
            if sha256_rollup(shas) != m.sha256_rollup:
                errs.append("sha256_rollup mismatch")
            if recompute_hashes and t.num_rows:
                from arlas_proc_ray.functions.hashing import sha256_hex

                fresh = sha256_hex(t.column("content")).to_pylist()
                bad = sum(
                    1 for a, b in zip(fresh, shas) if a != b and b is not None
                )
                if bad:
                    errs.append(f"{bad} rows: content != content_sha256")
            return {
                "partition": part,
                "ok": not errs,
                "errors": errs,
                "rows": t.num_rows,
            }

        todo = []
        skipped = 0
        for p, src in sorted(sources.items()):
            if changed_since_epoch is not None and src <= changed_since_epoch:
                skipped += 1
                continue
            todo.append((p, src))
        results = ray.get([check.remote(p, src) for p, src in todo])
        bad = [r for r in results if not r["ok"]]
        return {
            "ok": not bad,
            "epoch": e,
            "partitions": len(results),
            "skipped": skipped,
            "rows": sum(r.get("rows", 0) for r in results),
            "failed": bad,
        }

    # ---- named refs (tags) -------------------------------------------------

    def refs_dir(self) -> str:
        return os.path.join(self.root, "_refs")

    def tag(self, name: str, epoch: int | None = None) -> int:
        """Pin a name to a committed epoch (lakehouse-style tag).

        Tags make time travel operational: a consumer scans ``epoch=
        store.resolve_ref("prod")`` and a promotion is one atomic pointer
        flip, never a data copy. ``vacuum`` keeps every tagged epoch (and
        its delta source chain) reachable. Default epoch: latest committed.
        """
        if "/" in name or os.sep in name or name.startswith("."):
            raise ValueError(f"invalid ref name: {name!r}")
        if name.lstrip("-").isdigit():
            # digit-only names would shadow epoch numbers in every CLI
            # that accepts "epoch number or ref" (scan --epoch,
            # rollback --to) and silently target the wrong state
            raise ValueError(f"ref name must not be numeric: {name!r}")
        e = self.latest_committed_epoch() if epoch is None else int(epoch)
        if e is None or not os.path.exists(self.commit_marker_path(e)):
            raise ValueError(f"epoch {e} is not committed")
        _atomic_write_bytes(
            os.path.join(self.refs_dir(), f"{name}.json"),
            json.dumps({"epoch": e}).encode(),
        )
        return e

    def resolve_ref(self, name: str) -> int:
        p = os.path.join(self.refs_dir(), f"{name}.json")
        if not os.path.exists(p):
            raise KeyError(f"no such ref: {name!r}")
        with open(p) as f:
            return int(json.load(f)["epoch"])

    def list_refs(self) -> dict[str, int]:
        d = self.refs_dir()
        if not os.path.isdir(d):
            return {}
        return {
            n[: -len(".json")]: self.resolve_ref(n[: -len(".json")])
            for n in sorted(os.listdir(d))
            if n.endswith(".json")
        }

    def delete_ref(self, name: str) -> None:
        p = os.path.join(self.refs_dir(), f"{name}.json")
        if os.path.exists(p):
            os.unlink(p)

    # ---- retention -------------------------------------------------------

    def vacuum(self, keep_last: int = 1) -> list[int]:
        """Delete epoch directories not reachable from the last ``keep_last``
        committed epochs (their markers or their delta source chains).

        Returns the list of deleted epoch numbers. Uncommitted (crashed)
        epoch dirs NEWER than the latest commit are kept (they may be
        resumed); older uncommitted dirs are garbage and removed.
        """
        committed = sorted(
            int(n.split("=", 1)[1])
            for n in os.listdir(self.root)
            if n.startswith("epoch=")
            and os.path.exists(
                self.commit_marker_path(int(n.split("=", 1)[1]))
            )
        )
        if not committed:
            return []
        keep_commits = committed[-keep_last:]
        referenced: set[int] = set(keep_commits)
        # tagged epochs are pinned: a tag is a promise a consumer can still
        # time-travel there, so its whole source chain stays reachable
        referenced.update(
            e for e in self.list_refs().values() if e in set(committed)
        )
        for e in sorted(referenced):
            referenced.update(self.resolve_sources(e).values())
        latest = committed[-1]
        deleted = []
        for name in list(os.listdir(self.root)):
            if not name.startswith("epoch="):
                continue
            e = int(name.split("=", 1)[1])
            if e in referenced or e > latest:
                continue
            import shutil

            shutil.rmtree(os.path.join(self.root, name))
            deleted.append(e)
        return sorted(deleted)
