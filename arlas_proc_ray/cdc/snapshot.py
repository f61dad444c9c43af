"""Epoch-fenced Parquet snapshot store: one data file per partition, one
index per epoch.

The exactly-once sink (BASELINE.json north_star): Ray tasks are
at-least-once, so correctness comes from *idempotent* writes. An epoch
``e`` lives under ``snapshot_dir/epoch=<e>/``:

- ``part-<p>.parquet``, one per partition written this epoch, is the only
  durable file a partition write makes: written to a ``.tmp`` path,
  fsynced, then atomically ``os.replace``d (a retried task overwrites
  with identical bytes — harmless). Its Parquet key-value footer carries
  what the rows cannot give back (``_FOOTER_KEY``): the applied-LSN
  watermark ``last_lsn``, ``max_surviving_lsn``, ``row_count``, the
  apply ``metrics`` and which columns have blooms;
- a partition whose data file exists with that footer is SKIPPED on
  re-run (crash-resume: finished partitions cost nothing), and only
  then is its manifest rebuilt, from the footer plus the same rollup,
  bloom and zone-map function the write ran;
- ``_index.arrow`` (``INDEX_NAME``), written by ``commit_epoch`` just
  before the marker, is the epoch's columnar index: an Arrow IPC table
  with one row per partition — source epoch, counts, LSNs, rollup, zone
  maps, raw bloom bitmaps and metrics — from the manifests the kernels
  returned and, for partitions a delta epoch references, from the
  previous index. It is the only record of the epoch's layout that is
  read: planning, lookups, stats, history and audits read it, and so
  does every other module, through ``epoch_index``, ``epoch_files`` and
  ``changed_partitions``; never a per-partition file;
- the epoch becomes visible only when the ``_COMMITTED`` marker (written
  last, atomically) exists; readers resolve ``latest_committed_epoch``.
  The marker also holds the epoch's summary and source map, for readers
  older than the index.

So a 64-partition epoch is 66 files. Each store handle keeps the last
index it committed or read in memory, checked against the marker's inode
and mtime; it is never pickled into a task.

Stores written before the index kept one ``manifest-<p>.json`` beside
each data file and no ``_index.arrow``. They still read: such a manifest
is returned as it is, and an epoch without an index has its index built
in memory from its manifests (``_load_index``).

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
    # for int/float columns and short strings (both bounds ≤ 64 chars),
    # taken from the Parquet writer's row-group statistics (``_zone_maps``).
    # Purely an OPTIMIZATION surface for scan-time partition pruning —
    # absence (older manifests) just means "cannot prune".
    col_stats: dict = field(default_factory=dict)
    # Bloom filters: {column: {"m": bits, "k": hashes, "h": "siphash:<key>",
    # "bits": bitmap bytes}} over the partition's surviving rows, for
    # point-lookup (==) pruning. Zone maps cannot prune equality
    # predicates on hash-partitioned key columns (every partition spans
    # the full key domain); blooms can. "h" names the value hash:
    # pandas' siphash under the named 16-byte key, a key apart from the
    # one partition routing uses; a bloom without it (written before the
    # tag) hashed with a sha256 prefix and is still probed that way. A
    # bloom read from an old JSON manifest holds its bitmap base64-encoded
    # as "b64" instead of "bits" (``_bloom_bytes``). Same
    # optimization-only contract as col_stats: absence = cannot prune.
    blooms: dict = field(default_factory=dict)


_STATS_MAX_STR = 64
# the Parquet writer's default statistics size limit: a string bound
# longer than this many bytes is not kept, and reads back as "" with
# has_min_max true, which row-group pruning would take for real bounds
_STATS_MAX_BYTES = 4096


def _sound_statistics(table: pa.Table):
    """``pq.write_table``'s ``write_statistics=``: every column, unless a
    string or binary column holds a value longer than
    ``_STATS_MAX_BYTES``; then every column but those, so no reader of
    the file (pyarrow dataset filters, ``read_parquet(filter=)``, DuckDB)
    can prune by a dropped bound."""
    import pyarrow.types as pt

    long = {
        f.name for f in table.schema
        if (pt.is_string(f.type) or pt.is_large_string(f.type)
            or pt.is_binary(f.type) or pt.is_large_binary(f.type))
        and (pa.compute.max(pa.compute.binary_length(table.column(f.name)))
             .as_py() or 0) > _STATS_MAX_BYTES
    }
    return [n for n in table.column_names if n not in long] if long else True


def _zone_maps(md: pq.FileMetaData, schema: pa.Schema) -> dict:
    """JSON-serializable per-column [min, max] zone maps of one file, from
    the row-group statistics its writer kept: no pass over the rows.

    The same bounds the Arrow ``min_max`` kernel gives over the whole
    table, for int, float and string columns: NaN never bounds (a column
    whose only values are NaN gets ``[inf, -inf]``, which nothing
    matches), an all-null column has none, and strings are kept only when
    both bounds are at most 64 chars (a truncated max is not a valid
    upper bound, and nobody range-filters on file content). A string
    bound over ``_STATS_MAX_BYTES`` is not stored by the writer and reads
    back as "", so a row group whose bounds read "" for a column chunk of
    more than that many bytes leaves the column unbounded."""
    import pyarrow.types as pt

    stats: dict = {}
    if md.num_rows == 0:
        return stats
    leaf = {md.schema.column(i).path: i for i in range(md.num_columns)}
    for f in schema:
        t = f.type
        is_str = pt.is_string(t) or pt.is_large_string(t)
        is_float = pt.is_floating(t)
        if f.name not in leaf or not (pt.is_integer(t) or is_float or is_str):
            continue
        ci = leaf[f.name]
        lo = hi = None
        known, valued = True, False
        for rg in range(md.num_row_groups):
            col = md.row_group(rg).column(ci)
            st = col.statistics
            if st is None:
                known = False
                break
            if st.num_values == 0:  # only nulls
                continue
            valued = True
            if not st.has_min_max:
                known = is_float  # floats: every value was NaN
                if not known:
                    break
                continue
            a, b = st.min, st.max
            if is_str and b == "" and (
                a != "" or col.total_uncompressed_size > _STATS_MAX_BYTES
            ):
                known = False  # a dropped long bound
                break
            lo = a if lo is None else min(lo, a)
            hi = b if hi is None else max(hi, b)
        if not known or not valued:
            continue
        if lo is None:  # NaN-only, as min_max reports it
            lo, hi = float("inf"), float("-inf")
        if is_str and (len(lo) > _STATS_MAX_STR or len(hi) > _STATS_MAX_STR):
            continue
        stats[f.name] = [lo, hi]
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


# the value hash of new blooms, tagged as "h" in each: pandas' siphash
# under a key of its own. Under the router's key a partition's values
# would share the low hash bits that picked the partition, and with them
# part of every position. A bloom without the tag hashed with "sha256".
_BLOOM_KEY = "arlas.cdc.bloom1"
_BLOOM_SCHEME = "siphash:" + _BLOOM_KEY


def _bloom_hashes(vals, scheme: str = _BLOOM_SCHEME):
    """One non-negative 60-bit int per value (-1 for null), the input of
    ``_hash_positions``. Values are cast to string first (one canonical
    byte form per value). ``"siphash:<key>"`` is ``pd.util.hash_array``
    under that 16-byte key, shifted to 60 bits; ``"sha256"`` is the first
    15 hex digits of the value's sha256 (``sha256_prefix_int``), which
    blooms written before the scheme tag used."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from arlas_proc_ray.functions.hashing import sha256_prefix_int

    if isinstance(vals, pa.ChunkedArray):
        vals = vals.combine_chunks()
    if vals.type != pa.string():
        vals = pc.cast(vals, pa.string())
    if scheme == "sha256":
        return sha256_prefix_int(vals)
    hv = pd.util.hash_array(
        vals.to_numpy(zero_copy_only=False),
        hash_key=scheme.removeprefix("siphash:"), categorize=False,
    )
    hv = (hv >> np.uint64(4)).astype(np.int64)
    if vals.null_count:
        hv[~vals.is_valid().to_numpy(zero_copy_only=False)] = -1
    return hv


def _scheme(bloom: dict) -> str:
    return bloom.get("h", "sha256")


def _hash_positions(hv, num_bits: int, num_hashes: int):
    """Kirsch-Mitzenmacher double hashing of ``_bloom_hashes`` output —
    the same published scheme as stages/bloom.py:_salted_positions. The
    positions are reproducible wherever the value hash is: pandas'
    keyed ``hash_array`` for ``"siphash:<key>"`` blooms, and SQL's
    ``sha256`` for the untagged ones. Returns a ``(num_hashes, len(hv))`` array; null
    values get position -1."""
    import numpy as np

    h1 = hv % num_bits
    h2 = (hv // num_bits) % num_bits | np.int64(1)
    pos = (h1 + np.arange(num_hashes, dtype=np.int64)[:, None] * h2) % num_bits
    pos[:, hv < 0] = -1
    return pos


def _bloom_positions(vals, num_bits: int, num_hashes: int,
                     scheme: str = _BLOOM_SCHEME):
    return _hash_positions(_bloom_hashes(vals, scheme), num_bits, num_hashes)


def _bloom_build(col, num_rows: int) -> dict:
    """One packed bitmap for a column; ~8 bits/row (FP ≈ 3% at k=3),
    clamped to [1 KiB, 128 KiB] and rounded up to a power of two (h2 is
    odd, hence coprime with a power-of-two m). Tagged ``"h"`` with its
    value hash, ``_BLOOM_SCHEME``."""
    import numpy as np

    bits = _BLOOM_MIN_BITS
    while bits < num_rows * 8 and bits < _BLOOM_MAX_BITS:
        bits <<= 1
    hit = np.zeros(bits, dtype=bool)
    for pos in _bloom_positions(col, bits, _BLOOM_HASHES):
        hit[pos[pos >= 0]] = True
    # bit p lives in byte p >> 3 at position p & 7
    bm = np.packbits(hit, bitorder="little")
    return {"m": bits, "k": _BLOOM_HASHES, "h": _BLOOM_SCHEME,
            "bits": bm.tobytes()}


def _bloom_bytes(bloom: dict) -> bytes:
    """A bloom's packed bitmap: ``"bits"``, or an old JSON manifest's
    base64 ``"b64"``."""
    import base64

    bits = bloom.get("bits")
    return base64.b64decode(bloom["b64"]) if bits is None else bits


def _bloom_absent(bloom: dict, positions):
    """Per probe value, True only where ``bloom`` PROVES it absent.

    ``positions`` is ``_bloom_positions(values, bloom["m"], bloom["k"],
    _scheme(bloom))``; a null probe (position -1) says nothing, so it is
    never absent."""
    import numpy as np

    bm = np.frombuffer(_bloom_bytes(bloom), dtype=np.uint8)
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
            positions = _bloom_positions(
                keys.column(col), int(bloom["m"]), int(bloom["k"]),
                _scheme(bloom),
            )
            absent |= _bloom_absent(bloom, positions)
    return bool(absent.all())


class _BloomProbes:
    """The ``==`` clauses of one scan plan, tested against many manifests.

    Each probe value is hashed once per plan and hash scheme, and its bit
    positions are computed once per bloom shape ``(scheme, m, k)``; a
    manifest then costs only the bit tests on its decoded bitmap."""

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
            scheme = _scheme(bloom)
            shape = (i, scheme, int(bloom["m"]), int(bloom["k"]))
            if shape not in self._positions:
                if (i, scheme) not in self._hashes:
                    self._hashes[i, scheme] = _bloom_hashes(
                        pa.array([val]), scheme)
                self._positions[shape] = _hash_positions(
                    self._hashes[i, scheme], shape[2], shape[3])
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


# the footer key-value entry holding a partition's non-derivable manifest
# fields, and the file name of an epoch's index
_FOOTER_KEY = b"arlas.cdc.manifest"
INDEX_NAME = "_index.arrow"


def _derived_manifest(epoch: int, part: int, footer: dict, rows: pa.Table,
                      md: pq.FileMetaData, schema: pa.Schema) -> PartitionManifest:
    """A partition's manifest from its footer fields plus what they leave
    out: the rollup of the ``content_sha256`` column, the blooms of the
    footer's ``bloom_cols`` and the zone maps of the file's row-group
    statistics ``md``. The one derivation of both the write and a
    resume, so a rebuilt manifest equals the written one."""
    n = footer["row_count"]
    return PartitionManifest(
        partition_id=part,
        epoch=epoch,
        last_lsn=footer["last_lsn"],
        row_count=n,
        sha256_rollup=sha256_rollup(rows.column("content_sha256") if n else []),
        max_surviving_lsn=footer["max_surviving_lsn"],
        metrics=footer["metrics"],
        col_stats=_zone_maps(md, schema),
        blooms={c: _bloom_build(rows.column(c), n) for c in footer["bloom_cols"]},
    )


_BLOOM_TYPE = pa.list_(pa.struct([
    ("column", pa.string()), ("m", pa.int64()), ("k", pa.int64()),
    ("h", pa.string()), ("bits", pa.binary()),
]))


def _index_bytes(manifests: list[PartitionManifest]) -> pa.Buffer:
    """An epoch index as an Arrow IPC file: row p is partition p, its
    ``source_epoch`` the epoch holding the file. Zone maps and metrics are
    JSON text, blooms their raw bitmaps."""
    table = pa.table({
        "partition_id": pa.array([m.partition_id for m in manifests], pa.int32()),
        "source_epoch": pa.array([m.epoch for m in manifests], pa.int64()),
        "row_count": pa.array([m.row_count for m in manifests], pa.int64()),
        "last_lsn": pa.array([m.last_lsn for m in manifests], pa.int64()),
        "max_surviving_lsn": pa.array(
            [m.max_surviving_lsn for m in manifests], pa.int64()),
        "sha256_rollup": pa.array([m.sha256_rollup for m in manifests], pa.string()),
        "col_stats": pa.array([json.dumps(m.col_stats) for m in manifests], pa.string()),
        "blooms": pa.array([
            [{"column": c, "m": int(b["m"]), "k": int(b["k"]), "h": _scheme(b),
              "bits": _bloom_bytes(b)} for c, b in m.blooms.items()]
            for m in manifests
        ], _BLOOM_TYPE),
        "metrics": pa.array([json.dumps(m.metrics) for m in manifests], pa.string()),
    })
    sink = pa.BufferOutputStream()
    with pa.ipc.new_file(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue()


def _index_manifests(table: pa.Table) -> list[PartitionManifest]:
    """The manifests of an epoch index table, in partition order."""
    cols = table.to_pydict()
    return [
        PartitionManifest(
            partition_id=p, epoch=e, last_lsn=lsn, row_count=n,
            sha256_rollup=rollup, max_surviving_lsn=surviving,
            metrics=json.loads(metrics), col_stats=json.loads(stats),
            blooms={b.pop("column"): b for b in blooms},
        )
        for p, e, n, lsn, surviving, rollup, stats, blooms, metrics in zip(
            cols["partition_id"], cols["source_epoch"], cols["row_count"],
            cols["last_lsn"], cols["max_surviving_lsn"], cols["sha256_rollup"],
            cols["col_stats"], cols["blooms"], cols["metrics"],
        )
    ]


def _version(path: str) -> tuple:
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns


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
        # (epoch, marker version, index) of the last index committed or
        # read through this handle (``epoch_index``)
        self._index = None
        os.makedirs(root, exist_ok=True)

    # ---- paths -----------------------------------------------------------

    def epoch_dir(self, epoch: int) -> str:
        return os.path.join(self.root, f"epoch={epoch}")

    def part_data_path(self, epoch: int, part: int) -> str:
        return os.path.join(self.epoch_dir(epoch), f"part-{part:05d}.parquet")

    def part_manifest_path(self, epoch: int, part: int) -> str:
        """Where a store written before the epoch index kept a partition's
        JSON manifest (read, never written)."""
        return os.path.join(self.epoch_dir(epoch), f"manifest-{part:05d}.json")

    def index_path(self, epoch: int) -> str:
        return os.path.join(self.epoch_dir(epoch), INDEX_NAME)

    def commit_marker_path(self, epoch: int) -> str:
        return os.path.join(self.epoch_dir(epoch), "_COMMITTED")

    def __getstate__(self):
        # a task reads what it needs itself: the cached index stays here
        return {**self.__dict__, "_index": None}

    # ---- write path ------------------------------------------------------

    def partition_done(self, epoch: int, part: int) -> bool:
        """Whether ``part`` of ``epoch`` is written: its data file exists
        and carries its manifest, in the footer or, in an old store, as a
        JSON file beside it."""
        path = self.part_data_path(epoch, part)
        if not os.path.exists(path):
            return False
        if os.path.exists(self.part_manifest_path(epoch, part)):
            return True
        return _FOOTER_KEY in (pq.read_metadata(path).metadata or {})

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

        One durable file: the manifest's non-derivable fields ride in its
        footer, and the rest is derived from the rows and the writer's
        own statistics (``_derived_manifest``).
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
        footer = {
            "last_lsn": surviving if last_lsn is None else max(int(last_lsn), surviving),
            "max_surviving_lsn": surviving,
            "row_count": table.num_rows,
            "metrics": dict(metrics or {}),
            "bloom_cols": [c for c in self.bloom_cols
                           if c in table.column_names and table.num_rows],
        }
        table = table.replace_schema_metadata({
            **(table.schema.metadata or {}),
            _FOOTER_KEY: json.dumps(footer).encode(),
        })
        data_path = self.part_data_path(epoch, part)
        os.makedirs(os.path.dirname(data_path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(data_path), suffix=".parquet.tmp"
        )
        written: list = []
        try:
            pq.write_table(
                table, tmp, compression=self.compression,
                row_group_size=self.row_group_rows, metadata_collector=written,
                write_statistics=_sound_statistics(table),
            )
            # durable before it is visible: its existence is the fence
            os.fsync(fd)
            os.replace(tmp, data_path)
        finally:
            os.close(fd)
            if os.path.exists(tmp):
                os.unlink(tmp)
        return _derived_manifest(epoch, part, footer, table, written[0],
                                 table.schema)

    def commit_epoch(
        self,
        epoch: int,
        num_partitions: int,
        sources: dict[int, int] | None = None,
        expected_prev: int | None | type(...) = ...,
        *,
        _manifests: dict | None = None,
    ) -> dict:
        """Write the epoch index, then the _COMMITTED marker, once every
        partition is written.

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

        ``_manifests``: partition → the manifest its kernel returned for
        this epoch, handed over by the exchange so that no metadata is
        read back. A written partition missing from it (a clone, a
        staged publish) has its manifest rebuilt from its file; a
        referenced one comes from the index that lists it.

        Every reader here takes the epoch's layout from the index. The
        marker still carries the summary and the whole source map for
        code written before the index: that code reads the layout from
        the marker, and takes a marker without ``sources`` to mean that
        every partition lives in this epoch, which is wrong for a delta
        epoch and raises no error. Keeping these bytes keeps a store
        written here correct under such code.
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
        written = _manifests or {}
        indexes: dict = {}
        manifests = []
        for p in range(num_partitions):
            src = sources.get(p, epoch)
            if src != epoch:
                m = self._indexed_manifest(src, p, indexes)
            else:
                m = written.get(p) or self.read_manifest(epoch, p)
            manifests.append(m)
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
        _atomic_write_bytes(self.index_path(epoch), _index_bytes(manifests))
        marker = self.commit_marker_path(epoch)
        _atomic_write_bytes(marker, json.dumps(summary).encode())
        self._index = (epoch, _version(marker), manifests)
        return summary

    def _indexed_manifest(self, src: int, part: int, indexes: dict):
        """The manifest of ``part`` as written by epoch ``src``: from the
        cached index when it lists that file, else from ``src``'s own
        index (loaded once per commit into ``indexes``), else from the
        file."""
        if src not in indexes:
            cached = self._index[2] if self._index else None
            if cached and part < len(cached) and cached[part].epoch == src:
                return cached[part]
            indexes[src] = (self._load_index(src)
                            if os.path.exists(self.commit_marker_path(src))
                            else None)
        idx = indexes[src]
        if idx is not None and part < len(idx) and idx[part].epoch == src:
            return idx[part]
        return self.read_manifest(src, part)

    # ---- read path -------------------------------------------------------

    def read_manifest(self, epoch: int, part: int) -> PartitionManifest | None:
        """The manifest of the file ``epoch`` wrote for ``part``, or None:
        an old store's JSON manifest as it is, else one rebuilt from the
        data file's footer and rows (``_derived_manifest``). For the cold
        callers and resume; planning and lookups read the epoch index."""
        p = self.part_manifest_path(epoch, part)
        if os.path.exists(p):
            with open(p) as f:
                return PartitionManifest(**json.load(f))
        path = self.part_data_path(epoch, part)
        if not os.path.exists(path):
            return None
        with pq.ParquetFile(path) as f:
            meta = f.metadata.metadata or {}
            if _FOOTER_KEY not in meta:
                return None
            footer = json.loads(meta[_FOOTER_KEY])
            cols = ["content_sha256", *footer["bloom_cols"]]
            rows = f.read(columns=list(dict.fromkeys(cols))
                          if footer["row_count"] else [])
            return _derived_manifest(epoch, part, footer, rows, f.metadata,
                                     f.schema_arrow)

    def epoch_index(self, epoch: int) -> list[PartitionManifest]:
        """The committed ``epoch``'s index: partition p's manifest at
        position p, its ``epoch`` being the epoch that holds the file.

        The last index this handle committed or loaded is kept in memory
        and reused while the ``_COMMITTED`` marker has the same inode and
        mtime. Callers must not modify the list."""
        marker = self.commit_marker_path(epoch)
        try:
            version = _version(marker)
        except FileNotFoundError:
            raise RuntimeError(f"epoch {epoch} is not committed") from None
        if self._index is not None and self._index[:2] == (epoch, version):
            return self._index[2]
        manifests = self._load_index(epoch)
        self._index = (epoch, version, manifests)
        return manifests

    def _load_index(self, epoch: int) -> list[PartitionManifest]:
        """A committed epoch's index from its ``_index.arrow``, or, for an
        epoch committed before the index existed, built from its JSON
        manifests by way of the marker's source map."""
        path = self.index_path(epoch)
        if os.path.exists(path):
            with pa.OSFile(path) as f:
                return _index_manifests(pa.ipc.open_file(f).read_all())
        summary = self.read_epoch_summary(epoch)
        sources = summary.get("sources") or {
            p: epoch for p in range(summary["num_partitions"])}
        manifests = []
        for p, src in sorted((int(p), int(e)) for p, e in sources.items()):
            m = self.read_manifest(src, p)
            if m is None:
                raise RuntimeError(f"epoch {epoch}: missing manifest for part {p}")
            manifests.append(m)
        return manifests

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
        """The committed ``epoch``'s ``_COMMITTED`` marker. Readers take
        the layout from ``epoch_index``; the marker is read only for an
        epoch committed before the index existed (``_load_index``)."""
        with open(self.commit_marker_path(epoch)) as f:
            return json.load(f)

    def read_partition_resolved(self, epoch: int, part: int) -> pa.Table | None:
        """Partition ``part``'s rows as of the committed ``epoch``."""
        return self.read_partition(self.epoch_index(epoch)[part].epoch, part)

    def epoch_files(self, epoch: int) -> list[str]:
        """The data file holding each partition at the committed
        ``epoch``, in partition order; a partition whose file is missing
        is left out."""
        paths = (self.part_data_path(m.epoch, p)
                 for p, m in enumerate(self.epoch_index(epoch)))
        return [f for f in paths if os.path.exists(f)]

    def changed_partitions(self, base: int, target: int) -> list[int] | None:
        """The partitions whose file at the committed ``target`` is not
        the one at ``base``, in partition order; None when the two epochs
        have different fan-outs, so partition p holds other keys on each
        side. A partition whose file is unchanged has unchanged rows:
        files are immutable, named by (epoch, partition)."""
        old = [m.epoch for m in self.epoch_index(base)]
        new = [m.epoch for m in self.epoch_index(target)]
        if len(old) != len(new):
            return None
        return [p for p, (a, b) in enumerate(zip(old, new)) if a != b]

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
        files = self.epoch_files(e)
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
        """Per-epoch lineage time series from the epoch indexes ONLY — no
        data files read: for every committed epoch, the row count,
        applied-LSN watermark, events applied and rewritten vs referenced
        partition counts (delta epochs reference untouched partitions
        instead of rewriting them). The ops answer to "what did each
        ingest cycle actually do?"."""
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
            index = self.epoch_index(e)
            # a referenced partition did no work this epoch
            written = [m for m in index if m.epoch == e]
            out.append({
                "epoch": e,
                "row_count": sum(m.row_count for m in index),
                "last_lsn": max((m.last_lsn for m in index), default=-1),
                "num_partitions": len(index),
                "partitions_rewritten": len(written),
                "partitions_referenced": len(index) - len(written),
                "events_applied": sum(
                    int(m.metrics.get("events_applied", 0) or 0)
                    for m in written),
            })
        return out

    def table_stats(self, epoch: int | str | None = None) -> dict:
        """Table-level statistics from the EPOCH INDEX ONLY — no data
        files read.

        The ANALYZE / information-schema surface a query planner wants:
        row count, applied-LSN watermark, per-column global [min, max].
        At 100 TB this is one index read of P rows, the same plan-time
        cost class as ``plan_scan`` — never a data scan.

        A column's global bounds are reported only when EVERY non-empty
        partition carries zone maps for it (manifest absence means
        "unknown", and a bound built from a subset would be wrong).
        """
        e = self._resolve_epoch_arg(epoch)
        if e is None:
            raise RuntimeError("no committed epoch")
        index = self.epoch_index(e)

        row_count = 0
        applied_lsn = -1
        max_surviving = -1
        events_applied = 0
        nonempty = 0
        col_lo: dict = {}
        col_hi: dict = {}
        col_seen: dict = {}
        for m in index:
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
            "partitions": len(index),
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
        parts = []
        for f in self.epoch_files(e):
            with pq.ParquetFile(f) as pf:
                t = pf.read()
            if t.num_rows:
                parts.append(t)
        return pa.concat_tables(parts) if parts else None

    def plan_scan(
        self,
        *,
        epoch: int | str | None = None,
        predicate: list[tuple] | None = None,
        changed_since_lsn: int | None = None,
    ) -> dict:
        """Index-only pruning plan for a snapshot scan.

        Decides, from the epoch index alone (no data I/O), which
        partition files a scan must read:

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
        index = self.epoch_index(e)
        bloom_prunes = _BloomProbes(predicate)
        files: list[str] = []
        pruned_lsn = pruned_stats = pruned_empty = pruned_bloom = 0
        for p, m in enumerate(index):
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
            files.append(self.part_data_path(m.epoch, p))
        return {
            "epoch": e,
            "files": files,
            "partitions_total": len(index),
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
        applied-LSN watermarks, from the epoch index only). How the surviving files
        are read depends on their size on disk:

        - up to ``SMALL_SCAN_BYTES``, eagerly in this process: each file
          with ``pq.ParquetFile.read`` (``columns=`` plus the predicate's
          columns), the predicate applied as an Arrow filter, and the
          table wrapped as one block (``ray.data.from_blocks``, which,
          unlike ``from_arrow``, starts no task). A selective scan
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
            files = self.epoch_files(plan["epoch"])
            if not files:
                raise RuntimeError("no partition files to derive schema from")
            empty = pq.read_schema(files[0]).empty_table()
            if columns:
                empty = empty.select(columns)
            return rd.from_blocks([empty])
        if sum(os.stat(f).st_size for f in plan["files"]) <= SMALL_SCAN_BYTES:
            return rd.from_blocks(
                [_read_small(plan["files"], columns, clauses, expr)])
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
        index, and the apply metrics as a JSON string. A committed
        epoch's rows come from its index; an uncommitted epoch's from its
        files' manifests.
        """
        latest = self.latest_committed_epoch()
        live = ({p: m.epoch for p, m in enumerate(self.epoch_index(latest))}
                if latest is not None else {})
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
                if committed:
                    written = [m for m in self.epoch_index(e) if m.epoch == e]
                else:
                    parts = sorted({
                        int(f.split("-", 1)[1].split(".", 1)[0])
                        for f in os.listdir(os.path.join(self.root, name))
                        if f.startswith(("part-", "manifest-"))
                        and f.endswith((".parquet", ".json"))
                    })
                    written = [m for m in (self.read_manifest(e, p)
                                           for p in parts) if m is not None]
                for m in written:
                    p = m.partition_id
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
        against the epoch index: row count and the order-free
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
        index = self.epoch_index(e)
        store = self

        @ray.remote(num_cpus=0.5)
        def check(part: int, m: PartitionManifest) -> dict:
            t = store.read_partition(m.epoch, part)
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
        for p, m in enumerate(index):
            if changed_since_epoch is not None and m.epoch <= changed_since_epoch:
                skipped += 1
                continue
            # the task needs the counts, not the blooms
            todo.append((p, PartitionManifest(
                p, m.epoch, m.last_lsn, m.row_count, m.sha256_rollup)))
        results = ray.get([check.remote(p, m) for p, m in todo])
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
            referenced.update(m.epoch for m in self.epoch_index(e))
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
