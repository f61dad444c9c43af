"""Epoch-fenced Parquet snapshot store: one base file per partition, one
delta file per exchange group, one index per epoch.

The exactly-once sink (BASELINE.json north_star): Ray tasks are
at-least-once, so correctness comes from *idempotent* writes. An epoch
``e`` lives under ``snapshot_dir/epoch=<e>/``:

- ``part-<p>.parquet``, a BASE file, is a partition's whole state:
  written for a partition that has no base yet, for a fold (below), by
  ``merge_into`` and ``repartition_snapshot``, and for an untouched
  partition carried forward by a non-delta epoch. It goes to a ``.tmp``
  path, is fsynced, then atomically ``os.replace``d (a retried task
  overwrites with identical bytes — harmless). Its Parquet key-value
  footer carries what the rows cannot give back (``_FOOTER_KEY``): the
  applied-LSN watermark ``last_lsn``, ``max_surviving_lsn``,
  ``row_count``, the apply ``metrics`` and which columns have blooms;
- ``delta-<e>-<first>-<digest>.parquet``, a DELTA GROUP file (named by
  its epoch, first partition and a digest of its partition set), holds
  one exchange group's delta segments, one row group per partition:
  each touched partition's fence-surviving, LWW-reduced events of a CDC
  epoch, hashed, DELETEs kept as tombstone rows (``DELETED``). Every
  segment row has an LSN above the partition's watermark, so it beats
  its base and every older segment: the newest segment that holds a key
  decides it (``_overlay``). The file goes through the same tmp, fsync and
  rename, all or nothing; its footer (``_SEGMENTS_KEY``) lists each
  segment's partition and manifest fields, computed from the key,
  ``content_sha256`` and ``last_lsn`` columns of the base and chain
  (never ``content``), so the partition's ``row_count`` and
  ``sha256_rollup`` are exact;
- the FENCE: a partition is done when a base file of this epoch exists
  with its footer, or when some delta group file of this epoch lists it.
  A re-run skips exactly those partitions (crash-resume: finished
  partitions cost nothing), under whatever group layout wrote them;
  base files resume per partition, a delta group file is redone whole.
  A group task of a failed attempt that renames its file late leaves a
  file the index does not name, under a name of its own;
- ``_index.arrow`` (``INDEX_NAME``), written by ``commit_epoch`` just
  before the marker, is the epoch's columnar index: an Arrow IPC table
  with one row per partition — its base's epoch, its ``chain`` of
  segments (epoch, file, row group, rows, zone maps, key blooms), counts,
  LSNs, rollup, the base's zone maps and raw bloom bitmaps, and metrics —
  from the manifests the kernels returned and, for partitions a delta
  epoch references, from the previous index. It is the only record of
  the epoch's layout that is read: planning, lookups, stats, history and
  audits read it, and so does every other module, through
  ``epoch_index``, ``read_partition_resolved``, ``state_dataset`` and
  ``changed_partitions``; never a per-partition file;
- the epoch becomes visible only when the ``_COMMITTED`` marker (written
  last, atomically) exists; readers resolve ``latest_committed_epoch``.
  The marker also holds the epoch's summary and source map (each
  partition's base epoch), for code older than the index; no reader here
  takes the layout from it.

FOLDS: a partition's chain grows by one segment per epoch that touches
it, until its fold is due (``staged._Epoch._fold_due``: the chain holds
``sizing.FOLD_SEGMENTS`` segments, its rows reach
``sizing.FOLD_ROWS_RATIO`` × its base's, or ``delta_max_age`` passes);
then the epoch reads the resolved state and writes a new base.
``jobs optimize`` folds every chain.

So a bootstrap epoch at P=64 is 66 files, and a tail epoch that touches
every partition in one exchange group (one CPU) is 3: the group file,
the index and the marker. Each store handle keeps the last two indexes
it committed or read in memory, each checked against its marker's inode
and mtime, and the footers of delta group files it wrote or read; they
are never pickled into a task.

This is the one layout a store is read in. A committed epoch without
``_index.arrow`` (written before the index, with a JSON manifest per
data file), an index without the ``chain`` and ``base_rows`` columns
(before chains) and a bloom not tagged ``_BLOOM_SCHEME`` (a sha256-prefix
bloom) raise ``StoreLayoutError`` on the epoch's first read, never a
short or stale answer. ``jobs optimize --snapshot S --vacuum-keep 1``
run at commit ``f13d266`` migrates such a store: it rewrites the latest
epoch in this layout and deletes the older ones (an epoch a ref pins is
kept, and reading it raises).

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
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from arlas_proc_ray.functions.hashing import sha256_rollup, sha256_rollups


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
    # Rows in the base file ``epoch`` holds, tombstones never included;
    # ``row_count`` is the partition's rows once ``chain`` is overlaid.
    base_rows: int
    # Max last_lsn among SURVIVING rows (-1 if empty) — introspection only,
    # never used for fencing. May lag last_lsn when the newest event was a
    # DELETE.
    max_surviving_lsn: int = -1
    # Free-form per-partition apply metrics (events_applied, apply_s, …) —
    # the north-rule's "per-partition lineage + metrics"; purely
    # observational, never read by the fence/resume logic. A partition
    # its exchange group wrote as a delta segment gets, as ``apply_s``,
    # the group pass's seconds ÷ the segments it wrote, so the epoch's
    # sum still adds up.
    metrics: dict = field(default_factory=dict)
    # Zone maps: {column: [min, max]} over the partition's surviving rows,
    # for int/float columns and short strings (both bounds ≤ 64 chars),
    # taken from the Parquet writer's row-group statistics (``_zone_maps``).
    # For a chained partition they bound its live rows: exact for the
    # columns a delta write reads (keys, ``content_sha256``, ``last_lsn``),
    # the union of the base's and its segments' bounds for the others.
    # Purely an OPTIMIZATION surface for scan-time partition pruning —
    # a column without bounds (a string over ``_STATS_MAX_BYTES``, which
    # the writer keeps no statistics for) just means "cannot prune".
    col_stats: dict = field(default_factory=dict)
    # Bloom filters: {column: {"m": bits, "k": hashes, "h": "siphash:<key>",
    # "bits": bitmap bytes}} over the partition's surviving rows, for
    # point-lookup (==) pruning. Zone maps cannot prune equality
    # predicates on hash-partitioned key columns (every partition spans
    # the full key domain); blooms can. "h" names the value hash:
    # pandas' siphash under the named 16-byte key, a key apart from the
    # one partition routing uses (``_BLOOM_SCHEME``; an index holding any
    # other raises ``StoreLayoutError``). Same optimization-only contract
    # as col_stats: absence = cannot prune.
    blooms: dict = field(default_factory=dict)
    # The partition's delta segments over its base, oldest first
    # (``Segment``): the newest segment that holds a key decides it.
    # ``blooms`` above describe the base alone.
    chain: list = field(default_factory=list)

    def layout(self) -> tuple:
        """What identifies the partition's rows: its base file and chain
        (files are immutable, named by epoch and partition or group)."""
        return (self.epoch, *(s.place() for s in self.chain))

    def written_in(self) -> int:
        """The epoch that last wrote this partition: the newest segment's,
        else the base's."""
        return self.chain[-1].epoch if self.chain else self.epoch

    def without_blooms(self) -> "PartitionManifest":
        """This manifest with no blooms, its base's or its segments': what
        a task needs to read or extend the partition, small to ship
        (``commit_epoch`` fills a segment's blooms back in)."""
        return replace(self, blooms=None, chain=[
            replace(s, blooms=None) for s in self.chain])


@dataclass
class Segment:
    """One partition's delta segment: row group ``row_group`` of the group
    file ``file`` in ``epoch``'s directory, ``rows`` rows (tombstones
    included), and the blooms of its key columns: ``None`` in a manifest
    a task or a resume built, until ``commit_epoch`` takes them from the
    previous index."""
    epoch: int
    file: str
    row_group: int
    rows: int
    blooms: dict | None = None

    def place(self) -> tuple:
        return self.epoch, self.file, self.row_group


_STATS_MAX_STR = 64
# the Parquet writer's default statistics size limit: a string bound
# longer than this many bytes is not kept, and reads back as "" with
# has_min_max true, which row-group pruning would take for real bounds
_STATS_MAX_BYTES = 4096


def _sound_statistics(table: pa.Table, bounds) -> list:
    """``pq.write_table``'s ``write_statistics=`` for each slice
    ``table[bounds[i]:bounds[i + 1]]`` written as a file of its own:
    every column, unless a string or binary column holds a value longer
    than ``_STATS_MAX_BYTES``; then every column but those, so no reader
    of the file (pyarrow dataset filters, ``read_parquet(filter=)``,
    DuckDB) can prune by a dropped bound. One length pass per column
    over the whole table."""
    import pyarrow.types as pt

    cuts = np.asarray(bounds)
    long: list = [set() for _ in cuts[1:]]
    for f in table.schema:
        if not (pt.is_string(f.type) or pt.is_large_string(f.type)
                or pt.is_binary(f.type) or pt.is_large_binary(f.type)):
            continue
        lengths = pa.compute.fill_null(
            pa.compute.binary_length(table.column(f.name)), 0)
        over = np.flatnonzero(lengths.to_numpy() > _STATS_MAX_BYTES)
        for i in np.unique(np.searchsorted(cuts, over, side="right") - 1):
            long[i].add(f.name)
    return [[n for n in table.column_names if n not in lg] if lg else True
            for lg in long]


def _zone_maps(md: pq.FileMetaData, schema: pa.Schema,
               row_groups=None) -> dict:
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
    more than that many bytes leaves the column unbounded. ``row_groups``
    limits the maps to those row groups (a delta segment's)."""
    groups = range(md.num_row_groups) if row_groups is None else row_groups
    rgs = [md.row_group(rg) for rg in groups]
    if not sum(rg.num_rows for rg in rgs):
        return {}
    return _bounded(_zone_fields(md, schema), rgs)


def _row_group_zone_maps(md: pq.FileMetaData, schema: pa.Schema) -> list:
    """``_zone_maps(md, schema, [rg])`` of every row group ``rg``, from one
    walk of the footer (a delta group file's segments)."""
    fields = _zone_fields(md, schema)
    out = []
    for i in range(md.num_row_groups):
        rg = md.row_group(i)
        out.append(_bounded(fields, [rg]) if rg.num_rows else {})
    return out


def _zone_fields(md: pq.FileMetaData, schema: pa.Schema) -> list:
    """``(name, leaf column index, is string, is float)`` of the columns
    ``_zone_maps`` bounds: int, float and string columns of ``schema``
    that ``md`` stores."""
    import pyarrow.types as pt

    leaf = {md.schema.column(i).path: i for i in range(md.num_columns)}
    fields = []
    for f in schema:
        t = f.type
        is_str = pt.is_string(t) or pt.is_large_string(t)
        is_float = pt.is_floating(t)
        if f.name in leaf and (pt.is_integer(t) or is_float or is_str):
            fields.append((f.name, leaf[f.name], is_str, is_float))
    return fields


def _bounded(fields: list, rgs: list) -> dict:
    """The zone maps of ``fields`` (``_zone_fields``) over the row groups
    ``rgs`` (``RowGroupMetaData``), by ``_zone_maps``' rules."""
    stats: dict = {}
    for name, ci, is_str, is_float in fields:
        lo = hi = None
        known, valued = True, False
        for rg in rgs:
            col = rg.column(ci)
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


# the value hash of every bloom, tagged as "h" in each: pandas' siphash
# under a key of its own. Under the router's key a partition's values
# would share the low hash bits that picked the partition, and with them
# part of every position.
_BLOOM_KEY = "arlas.cdc.bloom1"
_BLOOM_SCHEME = "siphash:" + _BLOOM_KEY


def _bloom_hashes(vals):
    """One non-negative 60-bit int per value (-1 for null), the input of
    ``_hash_positions``: ``pd.util.hash_array`` under ``_BLOOM_KEY``,
    shifted to 60 bits. Values are cast to string first (one canonical
    byte form per value)."""
    import pandas as pd
    import pyarrow.compute as pc

    if isinstance(vals, pa.ChunkedArray):
        vals = vals.combine_chunks()
    if vals.type != pa.string():
        vals = pc.cast(vals, pa.string())
    hv = pd.util.hash_array(
        vals.to_numpy(zero_copy_only=False),
        hash_key=_BLOOM_KEY, categorize=False,
    )
    hv = (hv >> np.uint64(4)).astype(np.int64)
    if vals.null_count:
        hv[~vals.is_valid().to_numpy(zero_copy_only=False)] = -1
    return hv


def _hash_positions(hv, num_bits: int, num_hashes: int):
    """Kirsch-Mitzenmacher double hashing of ``_bloom_hashes`` output —
    the same published scheme as stages/bloom.py:_salted_positions. The
    positions are reproducible wherever pandas' keyed ``hash_array`` is.
    Returns a ``(num_hashes, len(hv))`` array; null values get position
    -1."""
    h1 = hv % num_bits
    h2 = (hv // num_bits) % num_bits | np.int64(1)
    pos = (h1 + np.arange(num_hashes, dtype=np.int64)[:, None] * h2) % num_bits
    pos[:, hv < 0] = -1
    return pos


def _bloom_positions(vals, num_bits: int, num_hashes: int):
    return _hash_positions(_bloom_hashes(vals), num_bits, num_hashes)


def _bloom_build(col, num_rows: int, min_bits: int = _BLOOM_MIN_BITS) -> dict:
    """One packed bitmap for a column; ~8 bits/row (FP ≈ 3% at k=3),
    clamped to [``min_bits``, 128 KiB] and rounded up to a power of two
    (h2 is odd, hence coprime with a power-of-two m). Tagged ``"h"`` with
    its value hash, ``_BLOOM_SCHEME``."""
    return _bloom_of_hashes(_bloom_hashes(col), num_rows, min_bits)


def _bloom_of_hashes(hv, num_rows: int, min_bits: int) -> dict:
    """``_bloom_build`` from the column's ``_bloom_hashes``: a caller that
    cuts one hashed column into many blooms hashes it once."""
    bits = min_bits
    while bits < num_rows * 8 and bits < _BLOOM_MAX_BITS:
        bits <<= 1
    hit = np.zeros(bits, dtype=bool)
    for pos in _hash_positions(hv, bits, _BLOOM_HASHES):
        hit[pos[pos >= 0]] = True
    # bit p lives in byte p >> 3 at position p & 7
    bm = np.packbits(hit, bitorder="little")
    return {"m": bits, "k": _BLOOM_HASHES, "h": _BLOOM_SCHEME,
            "bits": bm.tobytes()}


def _bloom_absent(bloom: dict, positions):
    """Per probe value, True only where ``bloom`` PROVES it absent.

    ``positions`` is ``_bloom_positions(values, bloom["m"],
    bloom["k"])``; a null probe (position -1) says nothing, so it is
    never absent."""
    bits = bloom["bits"]
    if positions.shape[1] == 1:  # one probe: a few bit tests in Python
        return np.array([any(p >= 0 and not bits[p >> 3] >> (p & 7) & 1
                             for p in positions[:, 0].tolist())])
    bm = np.frombuffer(bits, dtype=np.uint8)
    p = np.maximum(positions, 0)
    unset = ((bm[p >> 3] >> (p & 7).astype(np.uint8)) & 1) == 0
    return (unset & (positions >= 0)).any(axis=0)


class _KeyProbes:
    """The rows of a key table, tested against many blooms: each column
    is hashed once and its bit positions computed once per bloom shape,
    so a bloom costs only its bit tests."""

    def __init__(self, keys: pa.Table):
        self.keys = keys
        self._hashes: dict = {}
        self._positions: dict = {}

    def excludes(self, blooms: dict) -> bool:
        """True when ``blooms`` prove every key absent: for each key, some
        column's bloom misses its value."""
        absent = np.zeros(self.keys.num_rows, dtype=bool)
        for col in self.keys.column_names:
            bloom = blooms.get(col)
            if bloom is None:
                continue
            shape = (col, int(bloom["m"]), int(bloom["k"]))
            if shape not in self._positions:
                if col not in self._hashes:
                    self._hashes[col] = _bloom_hashes(self.keys.column(col))
                self._positions[shape] = _hash_positions(
                    self._hashes[col], shape[1], shape[2])
            absent |= _bloom_absent(bloom, self._positions[shape])
        return bool(absent.all())


class _BloomProbes:
    """The ``==`` clauses of one scan plan, tested against many manifests.

    Each probe value is hashed once per plan, and its bit positions are
    computed once per bloom shape ``(m, k)``; a manifest then costs only
    the bit tests on its bitmap."""

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


def _conjunction(predicate, term):
    """A conjunctive (col, op, value) list through the compute kernels,
    each column given by ``term(col)``: a dataset field gives an
    expression, a table column a mask. A null comparison drops its row
    either way."""
    pc = pa.compute
    fns = {"==": pc.equal, "!=": pc.not_equal, "<": pc.less,
           "<=": pc.less_equal, ">": pc.greater, ">=": pc.greater_equal}
    out = None
    for col, op, val in predicate:
        e = fns[op](term(col), val)
        out = e if out is None else pc.and_kleene(out, e)
    return out


def _predicate_mask(table: pa.Table, predicate):
    """The rows of ``table`` a conjunctive (col, op, value) list keeps, as
    a mask: an in-process filter."""
    return _conjunction(predicate, table.column)


# Plans up to this many bytes on disk are read in the calling process. After
# decompression that is at most about one Ray Data target block (128 MiB),
# and it skips the streaming executor's start-up, which costs far more
# than reading a few MB: the perfbench scans read 1-2 MB. A file count
# would not bound that process's memory (at P=64 and 100 TB one file is
# ~1.5 TB).
SMALL_SCAN_BYTES = 32 << 20


def _read_small(files, columns, clauses) -> pa.Table:
    """``scan``'s in-process read: each file at the ``ParquetFile.read``
    floor, then the residual filter (``_predicate_mask``) and projection
    in Arrow."""
    need = None
    if columns is not None:
        need = list(dict.fromkeys([*columns, *(c for c, _, _ in clauses)]))
    tables = []
    for f in files:
        with pq.ParquetFile(f) as pf:
            tables.append(pf.read(columns=need))
    table = pa.concat_tables(tables, promote_options="default")
    if clauses:
        table = table.filter(_predicate_mask(table, clauses))
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


def _read_json(path: str):
    """The JSON document ``_atomic_write_bytes`` left at ``path``; None
    when there is none yet."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


# the footer key-value entry holding a partition's non-derivable manifest
# fields, and the file name of an epoch's index
_FOOTER_KEY = b"arlas.cdc.manifest"
INDEX_NAME = "_index.arrow"


class StoreLayoutError(RuntimeError):
    """A committed epoch in an older layout (see the module docstring),
    raised by ``epoch_index`` before any of the epoch's data is read."""

    def __init__(self, epoch_dir: str, what: str):
        super().__init__(
            f"{epoch_dir}: {what}. This store layout is no longer read; "
            f"rewrite the store with `jobs optimize --snapshot <store> "
            f"--vacuum-keep 1` at commit f13d266, then open it here")


def _derived_fields(rows: pa.Table, bounds, bloom_cols: list[str]) -> list:
    """``(sha256_rollup, blooms)`` of each base ``rows[bounds[i]:bounds[i
    + 1]]``, the manifest fields its footer leaves out but its rows give:
    the rollup of its ``content_sha256`` column and the blooms of
    ``bloom_cols`` (none for an empty base). One ``sha256_rollups`` and
    one ``_bloom_hashes`` pass per bloom column over the whole table, cut
    per base, so a rebuilt manifest equals the written one however many
    bases were written together."""
    cuts = np.asarray(bounds)
    sizes = np.diff(cuts)
    sha = rows.column("content_sha256")
    rollups = sha256_rollups([sha.slice(a, k) for a, k in zip(cuts[:-1], sizes)])
    hashed = [(c, _bloom_hashes(rows.column(c))) for c in bloom_cols]
    return [
        (rollup, {c: _bloom_of_hashes(hv[a:a + k], int(k), _BLOOM_MIN_BITS)
                  for c, hv in hashed} if k else {})
        for rollup, a, k in zip(rollups, cuts[:-1], sizes)
    ]


class BaseFields(NamedTuple):
    """What a base's write derives from its rows: its manifest's
    ``sha256_rollup`` and ``blooms``, its ``max_surviving_lsn`` and the
    Parquet writer's ``write_statistics`` (``SnapshotStore.base_fields``)."""
    sha256_rollup: str
    blooms: dict
    max_surviving_lsn: int
    write_statistics: object


def _derived_manifest(epoch: int, part: int, footer: dict, derived: tuple,
                      md: pq.FileMetaData, schema: pa.Schema) -> PartitionManifest:
    """A partition's manifest from its footer fields plus what they leave
    out: ``derived``, its rows' ``(sha256_rollup, blooms)``
    (``_derived_fields``), and the zone maps of the file's row-group
    statistics ``md``. The one derivation of both the write and a
    resume, so a rebuilt manifest equals the written one."""
    n = footer["row_count"]
    return PartitionManifest(
        partition_id=part,
        epoch=epoch,
        last_lsn=footer["last_lsn"],
        row_count=n,
        sha256_rollup=derived[0],
        base_rows=n,
        max_surviving_lsn=footer["max_surviving_lsn"],
        metrics=footer["metrics"],
        col_stats=_zone_maps(md, schema),
        blooms=derived[1],
    )


_BLOOM_TYPE = pa.list_(pa.struct([
    ("column", pa.string()), ("m", pa.int64()), ("k", pa.int64()),
    ("h", pa.string()), ("bits", pa.binary()),
]))
_CHAIN_TYPE = pa.list_(pa.struct([
    ("epoch", pa.int64()), ("file", pa.string()), ("row_group", pa.int32()),
    ("rows", pa.int64()), ("blooms", _BLOOM_TYPE),
]))


def _bloom_rows(blooms: dict) -> list:
    return [{"column": c, "m": int(b["m"]), "k": int(b["k"]), "h": b["h"],
             "bits": b["bits"]} for c, b in blooms.items()]


def _index_bytes(manifests: list[PartitionManifest]) -> pa.Buffer:
    """An epoch index as an Arrow IPC file: row p is partition p, its
    ``source_epoch`` the epoch holding its base file and ``chain`` its
    delta segments, oldest first. Zone maps and metrics are JSON text,
    blooms their raw bitmaps."""
    table = pa.table({
        "partition_id": pa.array([m.partition_id for m in manifests], pa.int32()),
        "source_epoch": pa.array([m.epoch for m in manifests], pa.int64()),
        "row_count": pa.array([m.row_count for m in manifests], pa.int64()),
        "last_lsn": pa.array([m.last_lsn for m in manifests], pa.int64()),
        "max_surviving_lsn": pa.array(
            [m.max_surviving_lsn for m in manifests], pa.int64()),
        "sha256_rollup": pa.array([m.sha256_rollup for m in manifests], pa.string()),
        "col_stats": pa.array([json.dumps(m.col_stats) for m in manifests], pa.string()),
        "blooms": pa.array([_bloom_rows(m.blooms) for m in manifests],
                           _BLOOM_TYPE),
        "metrics": pa.array([json.dumps(m.metrics) for m in manifests], pa.string()),
        "base_rows": pa.array([m.base_rows for m in manifests], pa.int64()),
        "chain": pa.array([
            [{"epoch": s.epoch, "file": s.file, "row_group": s.row_group,
              "rows": s.rows, "blooms": _bloom_rows(s.blooms)}
             for s in m.chain]
            for m in manifests
        ], _CHAIN_TYPE),
    })
    sink = pa.BufferOutputStream()
    with pa.ipc.new_file(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue()


def _tagged_blooms(blooms: list, epoch_dir: str) -> dict:
    for b in blooms:
        if b["h"] != _BLOOM_SCHEME:
            raise StoreLayoutError(
                epoch_dir, f"a bloom of column {b['column']!r} hashed with "
                f"{b['h']!r}, not {_BLOOM_SCHEME!r}")
    return {b.pop("column"): b for b in blooms}


def _index_manifests(table: pa.Table, epoch_dir: str) -> list[PartitionManifest]:
    """The manifests of the epoch index table read from ``epoch_dir``, in
    partition order. An index without the ``base_rows`` and ``chain``
    columns, or holding a bloom of another value hash, raises
    ``StoreLayoutError``."""
    missing = {"base_rows", "chain"} - set(table.column_names)
    if missing:
        raise StoreLayoutError(
            epoch_dir, f"an epoch index without {sorted(missing)} "
            f"(written before delta chains)")
    cols = table.to_pydict()
    return [
        PartitionManifest(
            partition_id=p, epoch=e, last_lsn=lsn, row_count=n,
            sha256_rollup=rollup, base_rows=rows, max_surviving_lsn=surviving,
            metrics=json.loads(metrics), col_stats=json.loads(stats),
            blooms=_tagged_blooms(blooms, epoch_dir),
            chain=[Segment(
                s["epoch"], s["file"], s["row_group"], s["rows"],
                _tagged_blooms(s["blooms"], epoch_dir),
            ) for s in chain],
        )
        for p, e, n, lsn, surviving, rollup, stats, blooms, metrics, rows,
        chain in zip(
            cols["partition_id"], cols["source_epoch"], cols["row_count"],
            cols["last_lsn"], cols["max_surviving_lsn"], cols["sha256_rollup"],
            cols["col_stats"], cols["blooms"], cols["metrics"],
            cols["base_rows"], cols["chain"],
        )
    ]


# the footer key-value entry of a delta group file: its key columns and,
# per row group, the segment's partition and manifest fields
_SEGMENTS_KEY = b"arlas.cdc.segments"
# a segment row's tombstone flag, the one column a segment adds to the
# final-state rows
DELETED = "_deleted"
# segments hold a few rows each: their blooms start smaller than a base's
_SEGMENT_BLOOM_MIN_BITS = 1 << 10
# delta group files a store handle keeps open (``_group_file``): a chain
# spans at most FOLD_SEGMENTS epochs' files per exchange group
_OPEN_GROUP_FILES = 64


def _delta_name(epoch: int, parts: list[int]) -> str:
    """A group file's name: its epoch, its first partition and a digest of
    the partitions it holds. Group files of different epochs never share
    a name (``clone`` copies them into one directory), and neither do
    two files of one epoch that hold different partition sets: a group
    task of a failed attempt may rename its file after a resume under
    another group layout wrote its own, and must not replace it. Files
    that do share a name hold the same partitions' segments, from the
    same events over the same prior state."""
    import hashlib

    digest = hashlib.blake2b(",".join(map(str, parts)).encode(),
                             digest_size=6).hexdigest()
    return f"delta-{epoch}-{parts[0]:05d}-{digest}.parquet"


def _overlay(pieces: list[pa.Table], key_cols: list[str],
             where: list | None = None) -> pa.Table:
    """Overlay a partition's pieces, NEWEST FIRST (segments, then the
    base): each key's row comes from the first piece that holds it, and a
    tombstone there removes the key. Rows come out in piece order, so the
    result is row for row what a full rewrite after each epoch would hold.
    The tombstone column is dropped. ``where``, clauses on key columns
    only, keeps the keys that match first (exact: all of a key's rows
    share its key values)."""
    table = _tombstoned(pieces)
    if where:
        table = table.filter(_predicate_mask(table, where))
    if table.num_rows:
        table = table.take(pa.array(_first_rows(table, key_cols)))
        table = table.filter(pa.compute.invert(table.column(DELETED)))
    return table.drop_columns([DELETED])


def _tombstoned(pieces: list[pa.Table]) -> pa.Table:
    """``pieces`` as one table with a ``DELETED`` column (False where a
    piece has none)."""
    return pa.concat_tables(
        [(t if DELETED in t.column_names else t.append_column(
            DELETED, pa.repeat(pa.scalar(False), t.num_rows)))
         .replace_schema_metadata(None) for t in pieces],
        promote_options="default")


def _first_rows(table: pa.Table, key_cols: list[str],
                tags: np.ndarray | None = None) -> np.ndarray:
    """The position of each key's first row, ascending. With ``tags`` (a
    partition per row), a key is one per partition: rows of different
    partitions never decide each other."""
    from arlas_proc_ray.cdc.replay import group_ids

    _, first = np.unique(group_ids(table, key_cols, tags), return_index=True)
    return np.sort(first)


def _group_overlay(pieces: list[pa.Table], tags: list[np.ndarray],
                   key_cols: list[str], num_parts: int) -> tuple:
    """``_overlay`` of many partitions at once: ``tags[i]`` is the
    partition index (``0 .. num_parts - 1``) of each row of
    ``pieces[i]``, and a partition's pieces come newest first. Returns
    ``(rows, bounds)``: every partition's live rows, gathered by ONE
    ``take`` partition by partition, each partition's in ``_overlay``'s
    row order, and the ``num_parts + 1`` offsets where each starts."""
    table = _tombstoned(pieces)
    tag = np.concatenate(tags).astype(np.int64)
    keep = _first_rows(table, key_cols, tag) if table.num_rows else tag[:0]
    dead = table.column(DELETED).combine_chunks().to_numpy(zero_copy_only=False)
    keep = keep[~dead[keep]]
    tag = tag[keep]
    order = np.argsort(tag, kind="stable")
    bounds = np.searchsorted(tag[order], np.arange(num_parts + 1))
    return table.drop_columns([DELETED]).take(pa.array(keep[order])), bounds


def _key_in(table: pa.Table, others: pa.Table) -> pa.ChunkedArray:
    """Per row of ``table``, whether some row of ``others`` holds its key
    (``others``' columns), byte for byte: one hash-set probe of the
    exact composite key, as LWW keys rows. On a 1 vCPU host it costs
    0.08-0.11 ms at 20-150 rows and 1-64 keys, and 0.28-0.35 ms at 2 000
    rows; a per-key column compare costs 0.10 ms at one key but 2.1 ms
    at 64, an Arrow semi join 0.33-0.45 ms throughout."""
    from arlas_proc_ray.cdc.replay import _combined_key

    cols = others.column_names
    return pa.compute.is_in(_combined_key(table, cols),
                            value_set=_combined_key(others, cols))


def _rows_with_keys(table: pa.Table, keys: pa.Table) -> pa.Table:
    """The rows of ``table`` whose key columns equal some row of ``keys``,
    byte for byte, in ``table``'s row order."""
    cols = keys.column_names
    keys = keys.cast(pa.schema([(c, table.schema.field(c).type) for c in cols]))
    return table.filter(_key_in(table, keys))


def _keys_without(keys: pa.Table, rows: pa.Table) -> pa.Table:
    """The rows of ``keys`` that no row of ``rows`` holds."""
    rows = rows.select(keys.column_names).cast(keys.schema)
    return keys.filter(pa.compute.invert(_key_in(keys, rows)))


class DeltaGroup(NamedTuple):
    """One exchange group's delta segments for
    ``SnapshotStore.write_delta_group``. ``rows`` holds every segment's
    rows, partition by partition in the ascending order of ``parts``;
    segment ``i`` is rows ``bounds[i]`` to ``bounds[i + 1]``. Per
    partition: its manifest in the previous index (``priors``), its
    applied watermark (``last_lsn``) and its apply metrics."""
    parts: list
    rows: pa.Table
    bounds: np.ndarray
    priors: list
    last_lsn: list
    metrics: list


def _segment_blooms(rows: pa.Table, keys: list[str],
                    bounds: np.ndarray) -> list[dict]:
    """The key blooms of each segment ``rows[bounds[i]:bounds[i + 1]]``:
    each key column hashed once, cut per segment."""
    hashed = [(c, _bloom_hashes(rows.column(c))) for c in keys]
    return [{c: _bloom_of_hashes(hv[a:b], int(b - a), _SEGMENT_BLOOM_MIN_BITS)
             for c, hv in hashed}
            for a, b in zip(bounds[:-1], bounds[1:])]


def _exact_stats(live: pa.Table, bounds: np.ndarray) -> list[dict]:
    """Per partition ``live[bounds[i]:bounds[i + 1]]``, the ``_zone_maps``
    bounds of its int and string columns, computed over the rows
    themselves by one group-by over all of them."""
    import pyarrow.types as pt

    names = [f.name for f in live.schema
             if pt.is_integer(f.type) or pt.is_string(f.type)
             or pt.is_large_string(f.type)]
    whole = live.select(names).append_column(
        "_part", pa.array(np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))))
    agg = whole.group_by("_part", use_threads=False).aggregate(
        [(c, f) for c in names for f in ("min", "max")]).to_pydict()
    stats: list[dict] = [{} for _ in bounds[1:]]
    for i, part in enumerate(agg["_part"]):
        for c in names:
            lo, hi = agg[c + "_min"][i], agg[c + "_max"][i]
            if lo is None or (isinstance(lo, str) and (
                    len(lo) > _STATS_MAX_STR or len(hi) > _STATS_MAX_STR)):
                continue
            stats[part][c] = [lo, hi]
    return stats


def _chained_stats(exact: dict, prior: dict | None, segment: dict) -> dict:
    """A chained partition's zone maps: ``exact`` (the live rows' bounds of
    the columns the delta write read), and for every other column the
    union of ``prior`` (the partition's before this segment) and
    ``segment`` (the segment's rows', tombstones included), kept only
    where both bound it. Without ``prior``, the exact columns alone."""
    union = {
        c: [min(lo, segment[c][0]), max(hi, segment[c][1])]
        for c, (lo, hi) in (prior or {}).items() if c in segment
    }
    return {**union, **exact}


def _segment_manifest(entry: dict, seg: Segment, seg_stats: dict,
                      prior: PartitionManifest | None) -> PartitionManifest:
    """A partition's manifest once ``seg`` (whose rows' zone maps are
    ``seg_stats``) joins its chain: the group footer's ``entry``, and the
    base and older segments from ``prior``, the previous index's manifest
    of the partition (or, without it, their layout with no blooms, and
    zone maps of the exact columns only)."""
    chain = (list(prior.chain) if prior is not None else
             [Segment(e, f, rg, n) for e, f, rg, n in entry["chain"]])
    return PartitionManifest(
        partition_id=entry["partition"], epoch=entry["base"],
        last_lsn=entry["last_lsn"], row_count=entry["row_count"],
        sha256_rollup=entry["sha256_rollup"],
        max_surviving_lsn=entry["max_surviving_lsn"],
        metrics=entry["metrics"],
        col_stats=_chained_stats(entry["col_stats"],
                                 prior.col_stats if prior else None, seg_stats),
        blooms=None if prior is None else prior.blooms,
        base_rows=entry["base_rows"], chain=[*chain, seg],
    )


def _durable_parquet(path: str, table: pa.Table, *, compression: str,
                     row_group_size: int | None = None,
                     group_rows: list[int] | None = None,
                     write_statistics=None) -> pq.FileMetaData:
    """Write ``table`` (footer metadata included) as one Parquet file at
    ``path`` through tmp, fsync and rename, and return its footer.
    ``group_rows``: the row count of each row group, in order.
    ``write_statistics``: the table's ``_sound_statistics``, when the caller
    has it."""
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".parquet.tmp")
    written: list = []
    try:
        with pq.ParquetWriter(
            tmp, table.schema, compression=compression,
            write_statistics=(_sound_statistics(table, [0, table.num_rows])[0]
                              if write_statistics is None
                              else write_statistics),
            metadata_collector=written,
        ) as w:
            if group_rows is None:
                w.write_table(table, row_group_size=row_group_size)
            start = 0
            for n in group_rows or ():
                w.write_table(table.slice(start, n), row_group_size=max(1, n))
                start += n
        # durable before it is visible: its existence is the fence
        os.fsync(fd)
        os.replace(tmp, path)
    finally:
        os.close(fd)
        if os.path.exists(tmp):
            os.unlink(tmp)
    return written[0]


def _version(path: str) -> tuple:
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns, st.st_size


class _Previous:
    """The index of the newest epoch committed below ``epoch``, read on
    first need: a referenced partition's manifest, and the blooms a
    written partition's manifest inherits, come from it."""

    def __init__(self, store, epoch: int):
        self.store, self.epoch = store, epoch
        self._index = None

    def index(self) -> list:
        if self._index is None:
            below = [e for e in self.store.committed_epochs() if e < self.epoch]
            self._index = self.store.epoch_index(below[-1]) if below else []
        return self._index

    def referenced(self, part: int, src: int):
        """The previous index's manifest of ``part`` if its base is
        ``src``'s file, else None."""
        idx = self.index()
        if part < len(idx) and idx[part].epoch == src:
            return idx[part]
        return None

    def inherit(self, part: int, m: PartitionManifest) -> PartitionManifest:
        """``m`` with every bloom that is ``None`` (a task or a resume
        built it) taken from the previous index, or rebuilt from the file
        when that index does not list the piece."""
        if m.blooms is not None and all(s.blooms is not None for s in m.chain):
            return m
        idx = self.index()
        old = idx[part] if part < len(idx) else None
        if m.blooms is None:
            base = (old if old is not None and old.epoch == m.epoch
                    else self.store.read_manifest(m.epoch, part))
            m = replace(m, blooms=base.blooms)
        known = {s.place(): s for s in (old.chain if old is not None else [])}
        return replace(m, chain=[
            seg if seg.blooms is not None else replace(seg, blooms=(
                known.get(seg.place()) or self.store._segment_meta(seg)).blooms)
            for seg in m.chain])


# ``SnapshotStore.lineage``'s columns
_LINEAGE_SCHEMA = pa.schema([
    ("epoch", pa.int64()), ("partition_id", pa.int32()),
    ("last_lsn", pa.int64()), ("row_count", pa.int64()),
    ("max_surviving_lsn", pa.int64()), ("sha256_rollup", pa.string()),
    ("committed", pa.bool_()), ("live", pa.bool_()),
    ("metrics_json", pa.string()),
])


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
        # {epoch: (marker version, index)} of the last two indexes
        # committed or read through this handle (``epoch_index``): a diff
        # reads two epochs
        self._index = None
        # {group file path: (version, open ParquetFile, footer, segment
        # entries)}, seeded by this handle's own delta writes
        # (``_group_file``)
        self._footers: dict = {}
        # {partition: (layout, file versions, live key, content_sha256 and
        # last_lsn columns)} as this handle's last committed delta write
        # of the partition left them, oldest first, at most
        # ``sizing.LIVE_CACHE_ROWS`` rows (``write_delta_group``), and
        # {partition: (epoch, *entry)} of the writes not committed yet
        # (``_promote_live``)
        self._live: dict = {}
        self._live_pending: dict = {}
        os.makedirs(root, exist_ok=True)

    # ---- paths -----------------------------------------------------------

    def epoch_dir(self, epoch: int) -> str:
        return os.path.join(self.root, f"epoch={epoch}")

    def part_data_path(self, epoch: int, part: int) -> str:
        return os.path.join(self.epoch_dir(epoch), f"part-{part:05d}.parquet")

    def index_path(self, epoch: int) -> str:
        return os.path.join(self.epoch_dir(epoch), INDEX_NAME)

    def commit_marker_path(self, epoch: int) -> str:
        return os.path.join(self.epoch_dir(epoch), "_COMMITTED")

    def segment_path(self, seg: Segment) -> str:
        return os.path.join(self.epoch_dir(seg.epoch), seg.file)

    def __getstate__(self):
        # a task reads what it needs itself: the caches stay here
        return {**self.__dict__, "_index": None, "_footers": {}, "_live": {},
                "_live_pending": {}}

    def _cache_index(self, epoch: int, version: tuple, manifests: list) -> None:
        cache = {e: v for e, v in (self._index or {}).items() if e != epoch}
        cache[epoch] = (version, manifests)
        self._index = dict(list(cache.items())[-2:])

    def _cached_indexes(self) -> list:
        return [m for _, m in (self._index or {}).values()]

    def _group_file(self, path: str) -> tuple:
        """``(open ParquetFile, footer, segment entries)`` of a delta group
        file, kept open on this handle and checked against the file's
        inode and mtime (a discarded staged epoch may be written again):
        a group file's footer holds a row group per partition, so parsing
        it (~2 ms at P=64), or even opening the file with a parsed footer
        (~0.6 ms), costs more than reading one row group; a lookup pays
        only the read."""
        version = _version(path)
        hit = self._footers.get(path)
        if hit is None or hit[0] != version:
            md = pq.read_metadata(path)
            hit = self._remember_footer(
                path, version, md, json.loads(md.metadata[_SEGMENTS_KEY]))
        return hit[1:]

    def _remember_footer(self, path: str, version: tuple,
                         md: pq.FileMetaData, footer: dict) -> tuple:
        old = self._footers.pop(path, None)
        if old is not None:
            old[1].close()
        if len(self._footers) >= _OPEN_GROUP_FILES:
            self._footers.pop(next(iter(self._footers)))[1].close()
        hit = (version, pq.ParquetFile(path, metadata=md), md, footer)
        self._footers[path] = hit
        return hit

    # ---- write path ------------------------------------------------------

    def partition_done(self, epoch: int, part: int) -> bool:
        """Whether ``part`` of ``epoch`` is written: a base file of this
        epoch exists and carries its manifest in the footer, or some delta
        group file of this epoch lists it."""
        return (self.base_done(epoch, part)
                or part in self._delta_listing(epoch))

    def base_done(self, epoch: int, part: int) -> bool:
        """Whether ``epoch`` wrote a base file for ``part``."""
        path = self.part_data_path(epoch, part)
        if not os.path.exists(path):
            return False
        return _FOOTER_KEY in (pq.read_metadata(path).metadata or {})

    def _delta_files(self, epoch: int) -> list[str]:
        d = self.epoch_dir(epoch)
        if not os.path.isdir(d):
            return []
        return sorted(n for n in os.listdir(d)
                      if n.startswith("delta-") and n.endswith(".parquet"))

    def _delta_listing(self, epoch: int) -> dict:
        """``{partition: (group file name, row group, footer entry)}`` of
        every segment the delta group files of ``epoch`` hold (footers
        only)."""
        out = {}
        for name in self._delta_files(epoch):
            footer = self._group_file(os.path.join(self.epoch_dir(epoch), name))[2]
            for rg, entry in enumerate(footer["segments"]):
                out[entry["partition"]] = (name, rg, entry)
        return out

    def delta_manifests(self, epoch: int,
                        prior=None) -> dict[int, PartitionManifest]:
        """``{partition: manifest}`` of every partition a delta group file
        of ``epoch`` lists (resume, a staged publish): the footer's
        fields, zone maps from them, the segment's row-group statistics
        and ``prior`` (partition → its manifest in the previous index),
        and the segment's key blooms rebuilt from its key columns. The
        blooms it inherits (the base's and older segments') are ``None``
        until ``commit_epoch`` fills them in."""
        out = {}
        for name in self._delta_files(epoch):
            path = os.path.join(self.epoch_dir(epoch), name)
            f, md, footer = self._group_file(path)
            keys = footer["keys"]
            entries = footer["segments"]
            blooms = _segment_blooms(f.read(columns=keys), keys, np.cumsum(
                [0] + [e["rows"] for e in entries]))
            zone_maps = _row_group_zone_maps(md, md.schema.to_arrow_schema())
            for rg, entry in enumerate(entries):
                part = entry["partition"]
                out[part] = _segment_manifest(
                    entry, Segment(epoch, name, rg, entry["rows"], blooms[rg]),
                    zone_maps[rg], prior.get(part) if prior else None)
                # a resumed partition's live columns are this attempt's to
                # recompute, never an earlier attempt's to keep
                self._live_pending.pop(part, None)
        return out

    def base_fields(self, rows: pa.Table, bounds) -> list[BaseFields]:
        """The ``BaseFields`` of each base ``rows[bounds[i]:bounds[i +
        1]]``, each computed once over ``rows``' columns and cut per base:
        what an exchange group's bases hand ``write_partition``."""
        cuts = np.asarray(bounds)
        derived = _derived_fields(
            rows, cuts, [c for c in self.bloom_cols if c in rows.column_names])
        lsn = rows.column("last_lsn")
        surviving = [
            pa.compute.max(lsn.slice(a, b - a)).as_py() if b > a else None
            for a, b in zip(cuts[:-1], cuts[1:])]
        return [
            BaseFields(rollup, blooms, -1 if top is None else int(top), stats)
            for (rollup, blooms), top, stats in zip(
                derived, surviving, _sound_statistics(rows, cuts))
        ]

    def write_partition(
        self, epoch: int, part: int, table: pa.Table, *, last_lsn: int | None = None,
        metrics: dict | None = None, fields: BaseFields | None = None,
    ) -> PartitionManifest:
        """Idempotent atomic write of one partition's compacted state.

        ``last_lsn`` is the applied watermark for the fence —
        ``max(prior manifest last_lsn, max event lsn applied this epoch)``,
        computed by the caller BEFORE tombstones are dropped. When omitted
        (legacy/bootstrap callers) it falls back to the max surviving row
        lsn, which is only safe when no DELETE can hold the top LSN.

        One durable file: the manifest's non-derivable fields ride in its
        footer, and the rest is derived from the rows and the writer's
        own statistics (``_derived_manifest``). ``fields``: the table's
        ``base_fields``, when its exchange group computed them with its
        other bases'.
        """
        if fields is None:
            fields = self.base_fields(table, [0, table.num_rows])[0]
        if self.cluster_zorder and table.num_rows > 1:
            table = _zorder_cluster(table, self.cluster_zorder)
        elif self.cluster_by and table.num_rows > 1:
            sort_keys = [
                (c, "ascending") for c in self.cluster_by
                if c in table.column_names
            ]
            if sort_keys:
                table = table.sort_by(sort_keys)
        surviving = fields.max_surviving_lsn
        footer = {
            "last_lsn": surviving if last_lsn is None else max(int(last_lsn), surviving),
            "max_surviving_lsn": surviving,
            "row_count": table.num_rows,
            "metrics": dict(metrics or {}),
            "bloom_cols": list(fields.blooms),
        }
        table = table.replace_schema_metadata({
            **(table.schema.metadata or {}),
            _FOOTER_KEY: json.dumps(footer).encode(),
        })
        md = _durable_parquet(
            self.part_data_path(epoch, part), table,
            compression=self.compression, row_group_size=self.row_group_rows,
            write_statistics=fields.write_statistics,
        )
        return _derived_manifest(epoch, part, footer, fields[:2], md,
                                 table.schema)

    def write_delta_group(self, epoch: int, key_cols: list[str],
                          group: DeltaGroup) -> list[PartitionManifest]:
        """Write one exchange group's delta segments as ONE Parquet file,
        one row group per partition, and return each partition's
        manifest.

        A segment's rows are its partition's fence-surviving, LWW-reduced
        events, hashed, tombstones kept (``DELETED``); each has an LSN
        above the partition's watermark, so it beats every base and
        older-segment row. Each partition's exact ``row_count``,
        ``max_surviving_lsn``, ``sha256_rollup`` and key zone maps come
        from its live key, ``content_sha256`` and ``last_lsn`` columns
        once the segment is overlaid, never from ``content``; each is
        computed once over the whole group's columns, not per partition.
        A partition's prior live columns come from this handle's cache
        (``_cached_live``) or from its chain and base.

        The file goes through tmp, fsync and rename: all or nothing. Its
        footer (``_SEGMENTS_KEY``) lists each segment's partition and
        manifest fields, so a partition it lists is done
        (``partition_done``) and resume rebuilds its manifest from it
        (``delta_manifests``)."""
        keys = list(key_cols)
        cols = list(dict.fromkeys([*keys, "content_sha256", "last_lsn"]))
        # one overlay over the whole group's pieces, newest first per
        # partition: the segments, then each partition's prior live columns
        versions, cached = self._cached_live(group)
        fetched = self._read_segments(
            [s for i, m in enumerate(group.priors) if i not in cached
             for s in m.chain], [*cols, DELETED])
        pieces = [group.rows.select([*cols, DELETED])]
        tags = [np.repeat(np.arange(len(group.parts)), np.diff(group.bounds))]
        for i, (part, m) in enumerate(zip(group.parts, group.priors)):
            if i in cached:
                prior = [cached[i]]
            else:
                prior = [fetched[s.place()] for s in reversed(m.chain)]
                base = (self.read_partition(m.epoch, part, columns=cols)
                        if m.base_rows else None)
                prior += [] if base is None else [base]
            pieces += prior
            tags += [np.full(t.num_rows, i) for t in prior]
        live, cuts = _group_overlay(pieces, tags, keys, len(group.parts))
        stats = _exact_stats(live, cuts)
        sha = live.column("content_sha256")
        rollups = sha256_rollups(
            [sha.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])])
        entries = []
        for i, (part, prior) in enumerate(zip(group.parts, group.priors)):
            n = int(cuts[i + 1] - cuts[i])
            surviving = stats[i]["last_lsn"][1] if "last_lsn" in stats[i] else -1
            entries.append({
                "col_stats": stats[i],
                "partition": part,
                "rows": int(group.bounds[i + 1] - group.bounds[i]),
                "base": prior.epoch, "base_rows": prior.base_rows,
                "chain": [[s.epoch, s.file, s.row_group, s.rows]
                          for s in prior.chain],
                "last_lsn": max(int(group.last_lsn[i]), surviving),
                "max_surviving_lsn": surviving, "row_count": n,
                "sha256_rollup": rollups[i],
                "metrics": dict(group.metrics[i]),
            })
        footer = {"keys": keys, "segments": entries}
        rows = group.rows.replace_schema_metadata(
            {_SEGMENTS_KEY: json.dumps(footer).encode()})
        name = _delta_name(epoch, list(group.parts))
        path = os.path.join(self.epoch_dir(epoch), name)
        md = _durable_parquet(path, rows, compression=self.compression,
                              group_rows=[e["rows"] for e in entries])
        version = _version(path)
        self._remember_footer(path, version, md, footer)
        blooms = _segment_blooms(rows, keys, group.bounds)
        zone_maps = _row_group_zone_maps(md, rows.schema)
        out = []
        for rg, (entry, prior) in enumerate(zip(entries, group.priors)):
            m = _segment_manifest(entry, Segment(
                epoch, name, rg, entry["rows"], blooms[rg]), zone_maps[rg], prior)
            out.append(m)
            if versions[rg] is not None:  # its own copy, not a view
                self._live_pending[m.partition_id] = (
                    epoch, m.layout(), {**versions[rg], path: version},
                    live.take(pa.array(np.arange(cuts[rg], cuts[rg + 1]))))
        return out

    def _cached_live(self, group: DeltaGroup) -> tuple:
        """``{path: version}`` of the files of each prior layout of
        ``group`` (None for one with a file missing), and ``{i: live
        columns}`` for each partition ``i`` whose prior live columns this
        handle caches for that layout under the same file versions (an
        epoch number can be reused: ``discard_staged``)."""
        stat: dict = {}
        versions, hits = [], {}
        for i, (part, m) in enumerate(zip(group.parts, group.priors)):
            files = [self.segment_path(s) for s in m.chain]
            if m.base_rows:
                files.append(self.part_data_path(m.epoch, part))
            try:
                v = {f: stat[f] if f in stat else stat.setdefault(
                    f, _version(f)) for f in files}
            except FileNotFoundError:
                v = None
            versions.append(v)
            hit = self._live.get(part)
            if v is not None and hit is not None and hit[:2] == (m.layout(), v):
                hits[i] = hit[2]
        return versions, hits

    def _promote_live(self, epoch: int) -> None:
        """Cache the live columns this handle's delta writes of ``epoch``
        computed, now that ``epoch`` is committed, dropping the oldest
        past ``sizing.LIVE_CACHE_ROWS`` rows. Columns of an epoch that was
        never committed here (a crash, ``discard_staged``) are dropped."""
        from arlas_proc_ray.cdc import sizing

        for part, (e, *entry) in self._live_pending.items():
            if e == epoch:
                self._live.pop(part, None)
                self._live[part] = tuple(entry)
        self._live_pending = {}
        total = sum(t.num_rows for *_, t in self._live.values())
        while total > sizing.LIVE_CACHE_ROWS:
            total -= self._live.pop(next(iter(self._live)))[2].num_rows

    def _segment_rows(self, seg: Segment, columns: list[str] | None = None
                      ) -> pa.Table:
        """Segment ``seg``'s rows: its one row group."""
        f = self._group_file(self.segment_path(seg))[0]
        return f.read_row_group(seg.row_group, columns=columns)

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
        this epoch (or, referenced, the previous index's), handed over by
        the exchange so that no metadata is read back. A written
        partition missing from it (a clone, a staged publish) has its
        manifest rebuilt from its base file or from the delta group file
        that lists it; a referenced one comes from the previous index.
        The blooms a segment's manifest inherits (its base's and older
        segments') are taken from the previous index.

        Every reader here takes the epoch's layout from the index, and
        refuses an epoch without one (``StoreLayoutError``). The marker
        still carries the summary and the whole source map for code
        written before the index: that code reads the layout from the
        marker, and takes a marker without ``sources`` to mean that every
        partition lives in this epoch, which is wrong for a delta epoch
        and raises no error. A chained partition (a base plus delta
        segments) is listed there by its base's epoch, so such code reads
        that base alone: stale rows. Run ``jobs optimize`` (which folds
        every chain) before running such code on a store.
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
        written = dict(_manifests or {})
        prev = _Previous(self, epoch)
        if len(written) < num_partitions and any(
                sources.get(p, epoch) == epoch and p not in written
                for p in range(num_partitions)):
            written = {**self.delta_manifests(
                epoch, dict(enumerate(prev.index()))), **written}
        indexes: dict = {}
        manifests = []
        for p in range(num_partitions):
            src = sources.get(p, epoch)
            m = written.get(p)
            if m is None and src != epoch:
                m = prev.referenced(p, src) or self._indexed_manifest(
                    src, p, indexes)
            elif m is None:
                m = self.read_manifest(epoch, p)
            manifests.append(m if m is None else prev.inherit(p, m))
        missing = [p for p, m in enumerate(manifests) if m is None]
        if missing:
            raise RuntimeError(f"epoch {epoch}: partitions not done: {missing[:10]}")
        summary = {
            "epoch": epoch,
            "num_partitions": num_partitions,
            "row_count": sum(m.row_count for m in manifests),
            "last_lsn": max((m.last_lsn for m in manifests), default=-1),
            "rollup": sha256_rollup([m.sha256_rollup for m in manifests]),
            "sources": {str(p): m.epoch for p, m in enumerate(manifests)},
        }
        _atomic_write_bytes(self.index_path(epoch), _index_bytes(manifests))
        marker = self.commit_marker_path(epoch)
        _atomic_write_bytes(marker, json.dumps(summary).encode())
        self._cache_index(epoch, _version(marker), manifests)
        self._promote_live(epoch)
        return summary

    def _indexed_manifest(self, src: int, part: int, indexes: dict):
        """The manifest of ``part`` as written by epoch ``src``: from a
        cached index when it lists that file, else from ``src``'s own
        index (loaded once per commit into ``indexes``), else from the
        file."""
        if src not in indexes:
            for cached in self._cached_indexes():
                if part < len(cached) and cached[part].epoch == src:
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
        """The manifest of what ``epoch`` wrote for ``part``, or None: one
        rebuilt from the base file's footer and rows
        (``_derived_manifest``), else from the delta group file that
        lists it (``delta_manifests``). For the cold callers and resume;
        planning and lookups read the epoch index."""
        path = self.part_data_path(epoch, part)
        if not os.path.exists(path):
            if part not in self._delta_listing(epoch):
                return None
            below = [e for e in self.committed_epochs() if e < epoch]
            prior = dict(enumerate(self.epoch_index(below[-1]))) if below else None
            return self.delta_manifests(epoch, prior)[part]
        with pq.ParquetFile(path) as f:
            meta = f.metadata.metadata or {}
            if _FOOTER_KEY not in meta:
                return None
            footer = json.loads(meta[_FOOTER_KEY])
            cols = ["content_sha256", *footer["bloom_cols"]]
            rows = f.read(columns=list(dict.fromkeys(cols)))
            derived = _derived_fields(rows, [0, rows.num_rows],
                                      footer["bloom_cols"])[0]
            return _derived_manifest(epoch, part, footer, derived, f.metadata,
                                     f.schema_arrow)

    def epoch_index(self, epoch: int) -> list[PartitionManifest]:
        """The committed ``epoch``'s index: partition p's manifest at
        position p, its ``epoch`` being the epoch that holds the file.

        The last two indexes this handle committed or loaded are kept in
        memory, each reused while its ``_COMMITTED`` marker has the same
        inode and mtime. Callers must not modify the list."""
        marker = self.commit_marker_path(epoch)
        try:
            version = _version(marker)
        except FileNotFoundError:
            raise RuntimeError(f"epoch {epoch} is not committed") from None
        hit = (self._index or {}).get(epoch)
        manifests = (hit[1] if hit is not None and hit[0] == version
                     else self._load_index(epoch))
        self._cache_index(epoch, version, manifests)
        return manifests

    def _load_index(self, epoch: int) -> list[PartitionManifest]:
        """A committed epoch's index from its ``_index.arrow``; an epoch
        committed without one raises ``StoreLayoutError``."""
        try:
            f = pa.OSFile(self.index_path(epoch))
        except FileNotFoundError:
            raise StoreLayoutError(
                self.epoch_dir(epoch), "a committed epoch without "
                f"{INDEX_NAME} (written before the epoch index)") from None
        with f:
            return _index_manifests(pa.ipc.open_file(f).read_all(),
                                    self.epoch_dir(epoch))

    def committed_epochs(self) -> list[int]:
        """Every committed epoch, ascending."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            e for e in (int(n.split("=", 1)[1]) for n in os.listdir(self.root)
                        if n.startswith("epoch="))
            if os.path.exists(self.commit_marker_path(e))
        )

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

    def read_partition(self, epoch: int, part: int,
                       columns: list[str] | None = None) -> pa.Table | None:
        """The rows of the base file ``epoch`` wrote for ``part``, without
        any chain: the raw read under the resolving readers
        (``read_resolved``, ``lookup_rows``, ``write_delta_group``)."""
        p = self.part_data_path(epoch, part)
        if not os.path.exists(p):
            return None
        with pq.ParquetFile(p) as f:
            return f.read(columns=columns)

    def _segment_meta(self, seg: Segment) -> Segment:
        """``seg`` with its key blooms rebuilt from its group file."""
        keys = self._segment_keys(seg)
        rows = self._segment_rows(seg, keys)
        return replace(seg, blooms=_segment_blooms(
            rows, keys, np.array([0, rows.num_rows]))[0])

    def _read_segments(self, segments: list,
                       columns: list[str] | None = None) -> dict:
        """``{segment.place(): rows}`` of ``segments``, each group file's
        row groups in one read."""
        by_file: dict = {}
        for s in segments:
            by_file.setdefault((s.epoch, s.file), set()).add(s.row_group)
        out = {}
        for (e, name), rgs in by_file.items():
            f, _, footer = self._group_file(os.path.join(self.epoch_dir(e), name))
            rgs = sorted(rgs)
            table = f.read_row_groups(rgs, columns=columns)
            start = 0
            for rg in rgs:
                n = footer["segments"][rg]["rows"]
                out[e, name, rg] = table.slice(start, n)
                start += n
        return out

    def _segment_keys(self, seg: Segment) -> list[str]:
        return self._group_file(self.segment_path(seg))[2]["keys"]

    def read_resolved(self, m: PartitionManifest, part: int,
                      columns: list[str] | None = None,
                      segments: list | None = None,
                      base: bool = True,
                      fetched: dict | None = None,
                      where: list | None = None) -> pa.Table | None:
        """Partition ``part``'s rows as manifest ``m`` describes them: its
        base with its chain overlaid, newest segment first (``_overlay``).
        ``segments`` overlays only those and ``base=False`` leaves the
        base out (a scan's pruned pieces); ``columns`` projects the
        result; ``fetched`` holds segments already read
        (``_read_segments``). ``where``'s clauses on key columns filter
        the pieces before the overlay (``_overlay``); the caller applies
        the rest. None when the base file is missing and there is no
        chain."""
        chain = m.chain if segments is None else segments
        base = (self.read_partition(m.epoch, part)
                if base and (m.base_rows or not chain) else None)
        if chain:
            keys = self._segment_keys(chain[0])
            fetched = fetched or {}
            pieces = [fetched[s.place()] if s.place() in fetched
                      else self._segment_rows(s) for s in reversed(chain)]
            pieces += [] if base is None else [base]
            base = _overlay(pieces, keys,
                            [c for c in where or () if c[0] in keys])
        if base is None or columns is None:
            return base
        return base.select(columns)

    def read_epoch_summary(self, epoch: int) -> dict:
        """The committed ``epoch``'s ``_COMMITTED`` marker: its summary
        and source map. No reader in the package takes the layout from
        it; ``epoch_index`` does."""
        with open(self.commit_marker_path(epoch)) as f:
            return json.load(f)

    def read_partition_resolved(self, epoch: int, part: int) -> pa.Table | None:
        """Partition ``part``'s rows as of the committed ``epoch``: its base
        with its chain overlaid."""
        return self.read_resolved(self.epoch_index(epoch)[part], part)

    def lookup_rows(self, m: PartitionManifest, part: int,
                    keys: pa.Table) -> pa.Table | None:
        """The rows of partition ``part`` (as manifest ``m`` has it) whose
        keys are in ``keys``, or None. Segments are probed newest first
        by their blooms; a segment that may hold a key has its one row
        group read (through the cached footer), and the first segment
        that holds a key decides it: its row, or none for a tombstone.
        Keys no segment holds are read from the base, unless its blooms
        prove them absent. Rows come out in the resolved partition's
        order."""
        probes = _KeyProbes(keys)
        out = []
        for seg in reversed(m.chain):
            if not keys.num_rows:
                break
            if seg.blooms and probes.excludes(seg.blooms):
                continue
            hit = _rows_with_keys(self._segment_rows(seg), keys)
            if hit.num_rows:
                keys = _keys_without(keys, hit)
                probes = _KeyProbes(keys)
                out.append(hit.filter(pa.compute.invert(hit.column(DELETED)))
                           .drop_columns([DELETED]))
        if keys.num_rows and m.base_rows and not (
                m.blooms and probes.excludes(m.blooms)):
            base = self.read_partition(m.epoch, part)
            if base is not None:
                out.append(_rows_with_keys(base, keys))
        out = [t.replace_schema_metadata(None) for t in out if t.num_rows]
        return pa.concat_tables(out, promote_options="default") if out else None

    def epoch_files(self, epoch: int) -> list[str]:
        """The base file of each partition at the committed ``epoch``, in
        partition order; a partition whose file is missing is left out.
        Metadata only (a schema, a codec): a chained partition's rows are
        not its base's, so row readers use ``read_partition_resolved``,
        ``read_state`` or ``state_dataset``."""
        paths = (self.part_data_path(m.epoch, p)
                 for p, m in enumerate(self.epoch_index(epoch)))
        return [f for f in paths if os.path.exists(f)]

    def changed_partitions(self, base: int, target: int) -> list[int] | None:
        """The partitions whose base file or chain at the committed
        ``target`` is not the one at ``base``, in partition order (a
        chain that grew counts); None when the two epochs have different
        fan-outs, so partition p holds other keys on each side. A
        partition whose files are unchanged has unchanged rows: files are
        immutable, named by epoch and partition or group."""
        old = [m.layout() for m in self.epoch_index(base)]
        new = [m.layout() for m in self.epoch_index(target)]
        if len(old) != len(new):
            return None
        return [p for p, (a, b) in enumerate(zip(old, new)) if a != b]

    def partition_layouts(self, epoch: int) -> list[PartitionManifest]:
        """The committed ``epoch``'s manifests without zone maps or
        blooms: what a task needs to read a partition
        (``read_resolved``), small to ship."""
        return [replace(m.without_blooms(), col_stats={})
                for m in self.epoch_index(epoch)]

    def state_dataset(self, epoch: int, columns: list[str] | None = None,
                      **read_kwargs):
        """The committed ``epoch``'s live state as a Ray Dataset:
        ``read_parquet`` of the base files (with ``read_kwargs``) when no
        partition has a chain, else one read task per partition that
        overlays its chain."""
        import ray
        import ray.data as rd

        index = self.partition_layouts(epoch)
        if not any(m.chain for m in index):
            kwargs = {"columns": list(columns)} if columns else {}
            return rd.read_parquet(self.epoch_files(epoch), **kwargs,
                                   **read_kwargs)
        store = self

        @ray.remote(num_cpus=0.25)
        def read(part: int, m: PartitionManifest) -> pa.Table:
            t = store.read_resolved(m, part, columns)
            return t.combine_chunks() if t is not None else None

        refs = [read.remote(p, m) for p, m in enumerate(index)
                if m.chain or os.path.exists(self.part_data_path(m.epoch, p))]
        return rd.from_arrow_refs(refs)

    def _resolve_epoch_arg(self, epoch) -> int | None:
        """int passes through; a str is a ref name; None = latest."""
        if isinstance(epoch, str):
            return self.resolve_ref(epoch)
        return self.latest_committed_epoch() if epoch is None else epoch

    def sql(self, query: str, *, epoch: int | str | None = None, view: str = "snapshot"):
        """Ad-hoc SQL over a committed cut with DuckDB (returns pa.Table).

        The resolved state of ``epoch`` (or ref; default latest)
        registers as a read-only view named ``view`` — time travel is
        just ``epoch="prod"``. DuckDB reads the Parquet files itself,
        lazily, with its own projection and filter pushdown: an
        unchained partition is its base file; a chained one is
        ``_overlay`` in SQL, its chain's segments (each a row range of
        its group file) newest first per key, tombstones dropped, over
        the rows of its base that no segment holds. An operational
        introspection surface, not the distributed query path:
        single-node — use ``scan()`` for cluster-scale pipelines.
        """
        import duckdb

        e = self._resolve_epoch_arg(epoch)
        if e is None:
            raise RuntimeError("no committed epoch")
        plain, based, segments = [], [], []
        for p, m in enumerate(self.epoch_index(e)):
            path = self.part_data_path(m.epoch, p)
            if (m.base_rows or not m.chain) and os.path.exists(path):
                (based if m.chain else plain).append(path)
            for prio, seg in enumerate(m.chain):
                path = self.segment_path(seg)
                footer = self._group_file(path)[2]
                lo = sum(s["rows"] for s in footer["segments"][:seg.row_group])
                segments.append((path, lo, lo + seg.rows, prio))
                keys = ", ".join(f'"{k}"' for k in footer["keys"])
        if not (plain or based or segments):
            raise RuntimeError(f"epoch {e} has no data files to query")

        def files(paths) -> str:
            # the state's columns only: no hive ``epoch`` column from the path
            return "[" + ", ".join(
                "'" + f.replace("'", "''") + "'" for f in paths
            ) + "], hive_partitioning = false"

        pieces = [f"SELECT * FROM read_parquet({files(plain)})"] if plain else []
        con = duckdb.connect()
        try:
            if segments:
                path, lo, hi, prio = zip(*segments)
                con.register(f"{view}_segments", pa.table(
                    {"file": path, "lo": lo, "hi": hi, "prio": prio}))
                # per key, the row of the newest segment that holds it
                con.execute(
                    f"CREATE VIEW {view}_newest AS SELECT s.* EXCLUDE "
                    f"(filename, file_row_number) FROM read_parquet("
                    f"{files(sorted(set(path)))}, filename = true, "
                    f"file_row_number = true) s JOIN {view}_segments m "
                    f"ON s.filename = m.file AND s.file_row_number >= m.lo "
                    f"AND s.file_row_number < m.hi QUALIFY row_number() "
                    f"OVER (PARTITION BY {keys} ORDER BY m.prio DESC) = 1")
                pieces.append(f"SELECT * EXCLUDE ({DELETED}) FROM "
                              f"{view}_newest WHERE NOT {DELETED}")
                if based:
                    pieces.append(f"SELECT * FROM read_parquet({files(based)}) "
                                  f"ANTI JOIN {view}_newest USING ({keys})")
            con.execute(f"CREATE VIEW {view} AS "
                        + " UNION ALL BY NAME ".join(pieces))
            return con.execute(query).arrow()
        finally:
            con.close()

    def gc_orphans(self, *, min_age_s: float = 3600.0, dry_run: bool = False,
                   include_staged: bool = False) -> dict:
        """Remove crashed-run litter: uncommitted epoch dirs above the
        committed tip, stray ``*.tmp`` files anywhere in the store, and
        delta group files in a committed epoch's dir that its index does
        not name (a group task of a failed attempt renamed its file after
        the resume wrote its own).

        Complements ``vacuum`` (which reclaims epochs BELOW the tip once
        nothing references them): a writer that died mid-epoch leaves an
        epoch dir with partition files but no commit marker — invisible
        to readers, but at 100 TB it is real object-store money.

        Safety: an uncommitted epoch is removed only when its newest
        file is older than ``min_age_s`` (a LIVE writer's in-flight
        epoch keeps getting younger files; a crashed one never does),
        and a file only when it is older than that.
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

        def drop_stale(p: str) -> None:
            nonlocal n_bytes
            try:
                if now - os.path.getmtime(p) < min_age_s:
                    return
                n_bytes += os.path.getsize(p)
                removed.append(os.path.relpath(p, self.root))
                if not dry_run:
                    os.unlink(p)
            except OSError:
                pass

        for name in sorted(os.listdir(self.root)):
            full = os.path.join(self.root, name)
            if name.startswith("epoch=") and os.path.isdir(full):
                try:
                    e = int(name.split("=", 1)[1])
                except ValueError:
                    continue
                if os.path.exists(self.commit_marker_path(e)):
                    named = {s.file for m in self.epoch_index(e)
                             for s in m.chain if s.epoch == e}
                    for f in self._delta_files(e):
                        if f not in named:
                            drop_stale(os.path.join(full, f))
                    continue
                if latest is not None and e <= latest:
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
        # (one a dry run would remove does not survive)
        for base, dirs, files in os.walk(self.root):
            dirs[:] = [d for d in dirs if d not in removed]
            for f in files:
                if f.endswith(".tmp"):
                    drop_stale(os.path.join(base, f))

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
        for e in self.committed_epochs():
            index = self.epoch_index(e)
            # a referenced partition did no work this epoch
            written = [m for m in index if m.written_in() == e]
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
        for p, m in enumerate(self.epoch_index(e)):
            t = self.read_resolved(m, p)
            if t is not None and t.num_rows:
                parts.append(t)
        return (pa.concat_tables(parts, promote_options="default")
                if parts else None)

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
          whose [min, max] proves no row can match is skipped. A column
          without bounds (a string over ``_STATS_MAX_BYTES``) never
          prunes.
        - empty partitions (row_count 0) are always skipped.

        - bloom filters (when the manifest carries them) prune ``==``
          clauses zone maps cannot — hash-partitioned key columns span
          the full domain in every partition, but a bloom miss proves
          the key absent (false-positive keeps, never false prunes).
          Each ``==`` value is hashed once per plan, not once per
          manifest.

        A chained partition's zone maps bound its live rows, so they
        prune it as a whole. Its blooms prune it when the base's and
        every segment's do. A surviving partition's base is read only if
        its blooms may match, and its segments are pruned by their key
        blooms for ``==`` on a key column alone (a segment without the
        value holds no row of its keys); every other segment is overlaid,
        since a segment row that does not match may hide a base row that
        does.

        Returns ``{"epoch", "files", "chains", "partitions_total",
        "pruned_lsn", "pruned_stats", "pruned_bloom", "pruned_empty"}``:
        ``files`` the base files to read, ``chains`` ``{partition:
        (base file or None, [segments])}`` for each surviving partition
        that has segments to overlay. Pruning is conservative: a
        surviving file may still contain no matching row; ``scan()``
        applies the predicate as a residual row filter.
        """
        e = self._resolve_epoch_arg(epoch)
        if e is None:
            raise RuntimeError("no committed epoch")
        index = self.epoch_index(e)
        bloom_prunes = _BloomProbes(predicate)
        files: list[str] = []
        chains: dict = {}
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
            base_ok = m.base_rows > 0 and not (
                m.blooms and bloom_prunes(m.blooms))
            segs = [s for s in m.chain
                    if not (s.blooms and bloom_prunes(s.blooms))]
            if not base_ok and not segs:
                pruned_bloom += 1
                continue
            path = self.part_data_path(m.epoch, p)
            if segs:
                chains[p] = (path if base_ok else None, segs)
            if base_ok:
                files.append(path)
        return {
            "epoch": e,
            "files": files,
            "chains": chains,
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
        import pyarrow.dataset as pads
        import ray.data as rd

        if changed_rows_only and changed_since_lsn is None:
            raise ValueError("changed_rows_only requires changed_since_lsn")
        plan = self.plan_scan(
            epoch=epoch, predicate=predicate, changed_since_lsn=changed_since_lsn
        )
        clauses = list(predicate or [])
        if changed_rows_only:
            clauses.append(("last_lsn", ">", int(changed_since_lsn)))
        # the filter pushed into ``read_parquet``
        expr = _conjunction(clauses, pads.field) if clauses else None
        if plan["chains"]:
            return self._scan_chains(plan, columns, clauses, expr)
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
                [_read_small(plan["files"], columns, clauses)])
        # partitioning=None: the hive-style ``epoch=N`` path segment must
        # not be inferred as a column — scan schema equals file schema.
        # (Ray 2.49 can't combine partitioning=None with columns=; with a
        # projection the hive column is excluded anyway unless requested.)
        if columns is None:
            return rd.read_parquet(plan["files"], filter=expr, partitioning=None)
        return rd.read_parquet(plan["files"], columns=columns, filter=expr)

    def _scan_chains(self, plan: dict, columns, clauses, expr):
        """``scan`` of a plan with chained partitions: a partition without
        segments to overlay reads its base file as ``scan`` does, and a
        chained one overlays its surviving pieces, then the residual
        filter and projection. Up to ``SMALL_SCAN_BYTES`` on disk in this
        process (each group file's row groups in one read), else one Ray
        task per partition."""
        import ray
        import ray.data as rd

        index = self.epoch_index(plan["epoch"])
        chains = plan["chains"]
        chained = {base for base, _ in chains.values()}
        plain = [f for f in plan["files"] if f not in chained]
        seg_files = {self.segment_path(s) for _, segs in chains.values()
                     for s in segs}
        size = sum(os.stat(f).st_size for f in
                   [*plan["files"], *seg_files])

        def resolved(part, base, segs, fetched=None):
            t = self.read_resolved(index[part], part, segments=segs,
                                   base=base is not None, fetched=fetched,
                                   where=clauses)
            if clauses:
                t = t.filter(_predicate_mask(t, clauses))
            return t if columns is None else t.select(columns)

        if size <= SMALL_SCAN_BYTES:
            fetched = self._read_segments(
                [s for _, segs in chains.values() for s in segs])
            tables = [resolved(p, b, s, fetched)
                      for p, (b, s) in sorted(chains.items())]
            if plain:
                tables.append(_read_small(plain, columns, clauses))
            return rd.from_blocks([pa.concat_tables(
                [t.replace_schema_metadata(None) for t in tables],
                promote_options="default").combine_chunks()])
        task = ray.remote(num_cpus=0.25)(
            lambda p, b, s: resolved(p, b, s).combine_chunks())
        ds = rd.from_arrow_refs([task.remote(p, b, s)
                                 for p, (b, s) in sorted(chains.items())])
        if plain:
            kwargs = ({"partitioning": None} if columns is None
                      else {"columns": columns})
            ds = ds.union(rd.read_parquet(plain, filter=expr, **kwargs))
        return ds

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
        live = ({p: {m.epoch, *(s.epoch for s in m.chain)}
                 for p, m in enumerate(self.epoch_index(latest))}
                if latest is not None else {})
        rows = []
        if os.path.isdir(self.root):
            for name in sorted(os.listdir(self.root)):
                if not name.startswith("epoch="):
                    continue
                e = int(name.split("=", 1)[1])
                committed = os.path.exists(self.commit_marker_path(e))
                if committed:
                    written = [m for m in self.epoch_index(e)
                               if m.written_in() == e]
                else:
                    parts = sorted({
                        int(f[len("part-"):-len(".parquet")])
                        for f in os.listdir(os.path.join(self.root, name))
                        if f.startswith("part-") and f.endswith(".parquet")
                    } | set(self._delta_listing(e)))
                    written = [m for m in (self.read_manifest(e, p)
                                           for p in parts) if m is not None]
                rows += [(e, m.partition_id, m.last_lsn, m.row_count,
                          m.max_surviving_lsn, m.sha256_rollup, committed,
                          e in live.get(m.partition_id, ()),
                          json.dumps(m.metrics, sort_keys=True))
                         for m in written]
        return pa.Table.from_pylist(
            [dict(zip(_LINEAGE_SCHEMA.names, r)) for r in rows],
            schema=_LINEAGE_SCHEMA)

    # ---- integrity ---------------------------------------------------------

    def verify_deep(
        self,
        epoch: int | str | None = None,
        *,
        recompute_hashes: bool = False,
        changed_since_epoch: int | None = None,
    ) -> dict:
        """Distributed integrity check of a committed snapshot.

        One Ray task per live partition re-reads its data (its base with
        its chain overlaid) and checks, against the epoch index: row
        count and the order-free
        ``sha256_rollup`` of the ``content_sha256`` column (detects a
        swapped/truncated/bit-rotted file). ``recompute_hashes=True``
        additionally re-hashes the ``content`` column with the same
        buffer-sliced sha256 kernel the writer used and compares per row —
        catching a file whose content was altered consistently with its
        stored hashes column being stale (stronger, ~1 read + 1 hash pass
        per partition; still embarrassingly parallel and driver receives
        only small verdict dicts).

        ``changed_since_epoch``: incremental audit — a partition whose
        base and segments all live in epochs at or below the given
        (already-audited) epoch is skipped (reported in ``skipped``). The
        skip keys on the SOURCE epoch, not the LSN fence: carry-forward,
        repartition and OPTIMIZE rewrite files WITHOUT advancing
        ``last_lsn``, and freshly written bytes must be re-verified. At
        100 TB a nightly audit re-reads only the files written since the
        last audit.
        """
        import ray

        e = self._resolve_epoch_arg(epoch)
        if e is None:
            raise RuntimeError("no committed epoch")
        index = self.epoch_index(e)
        layouts = self.partition_layouts(e)
        store = self

        @ray.remote(num_cpus=0.5)
        def check(part: int, m: PartitionManifest) -> dict:
            t = store.read_resolved(m, part)
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
            if (changed_since_epoch is not None
                    and m.written_in() <= changed_since_epoch):
                skipped += 1
                continue
            # the task needs the counts and the layout, not the blooms
            todo.append((p, layouts[p]))
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
        committed = self.committed_epochs()
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
            for m in self.epoch_index(e):
                referenced.add(m.epoch)
                referenced.update(s.epoch for s in m.chain)
        latest = committed[-1]
        deleted = []
        for name in list(os.listdir(self.root)):
            if not name.startswith("epoch="):
                continue
            e = int(name.split("=", 1)[1])
            if e in referenced or e > latest:
                continue
            shutil.rmtree(os.path.join(self.root, name))
            deleted.append(e)
        return sorted(deleted)
