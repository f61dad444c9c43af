"""Hashing kernels: content sha256, stable key hashing, partition routing.

``sha256_hex`` is the CDC engine's per-row invariant (BASELINE.json
input_hint: "per-row invariant vs the reference: content sha256 equality").
It slices the Arrow string array's data buffer directly (utf-8 bytes are
already materialized there) so no per-row decode/encode happens — only the
unavoidable hashlib call.

``key_hash`` must be deterministic ACROSS PROCESSES (it decides partition
routing, and manifests record per-partition state), so it never uses
Python's salted ``hash()``; it uses pandas' fixed-key siphash
(``pd.util.hash_array``), which is stable for a given pandas version.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _sha256_string_array(arr: pa.Array) -> list[str | None]:
    """sha256 hexdigest of each utf-8 string in a single Arrow array chunk."""
    if not pa.types.is_string(arr.type) and not pa.types.is_large_string(arr.type):
        arr = arr.cast(pa.string())
    n = len(arr)
    if n == 0:
        return []
    buffers = arr.buffers()
    offset_width = 8 if pa.types.is_large_string(arr.type) else 4
    dtype = np.int64 if offset_width == 8 else np.int32
    offs = np.frombuffer(
        buffers[1], dtype=dtype, count=n + 1, offset=arr.offset * offset_width
    )
    data = memoryview(buffers[2])
    sha = hashlib.sha256
    if arr.null_count == 0:
        return [sha(data[offs[i] : offs[i + 1]]).hexdigest() for i in range(n)]
    valid = np.asarray(arr.is_valid())
    return [
        sha(data[offs[i] : offs[i + 1]]).hexdigest() if valid[i] else None
        for i in range(n)
    ]


def sha256_hex(col: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    """Vectorized-as-possible sha256 hexdigest over an Arrow string column."""
    if isinstance(col, pa.ChunkedArray):
        return pa.chunked_array(
            [pa.array(_sha256_string_array(c), type=pa.string()) for c in col.chunks]
            or [pa.array([], type=pa.string())]
        )
    return pa.array(_sha256_string_array(col), type=pa.string())


def sha256_rollup(hex_digests) -> str:
    """Order-free rollup of per-row sha256 hex digests for a manifest.

    sha256 over the *sorted* digests — deterministic regardless of row order
    (FIXTURES.md §4: "xor/sorted-concat hash of row sha256s"). Takes any
    iterable of hex strings (``None`` skipped) or an Arrow string column
    (nulls skipped): the column's digests are sorted in Arrow and the
    sorted data buffer is hashed in one call — the same bytes, so the
    same hex, as the iterable form.
    """
    h = hashlib.sha256()
    if isinstance(hex_digests, (pa.Array, pa.ChunkedArray)):
        arr = pc.drop_null(hex_digests)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = arr.cast(pa.string()).sort()
        if len(arr):
            offs = np.frombuffer(arr.buffers()[1], dtype=np.int32,
                                 count=len(arr) + 1)
            h.update(memoryview(arr.buffers()[2])[offs[0] : offs[-1]])
        return h.hexdigest()
    for d in sorted(x for x in hex_digests if x is not None):
        h.update(d.encode("ascii"))
    return h.hexdigest()


def sha256_rollups(columns: list) -> list[str]:
    """``sha256_rollup`` of each Arrow digest column of ``columns``, from
    ONE sort of all of them by (column, digest) and one hash per column:
    the same bytes, so the same hex, as a call per column."""
    chunks = []
    for c in columns:
        c = c.cast(pa.string())
        chunks += c.chunks if isinstance(c, pa.ChunkedArray) else [c]
    t = pa.table({
        "i": np.repeat(np.arange(len(columns)), [len(c) for c in columns]),
        "d": pa.chunked_array(chunks, pa.string()),
    })
    t = t.filter(pc.is_valid(t.column("d")))
    if not t.num_rows:
        return [hashlib.sha256().hexdigest() for _ in columns]
    t = t.take(pc.sort_indices(t, [("i", "ascending"), ("d", "ascending")]))
    d = t.column("d").combine_chunks()
    cuts = np.searchsorted(t.column("i").to_numpy(), np.arange(len(columns) + 1))
    offs = np.frombuffer(d.buffers()[1], dtype=np.int32, count=len(d) + 1,
                         offset=d.offset * 4)
    data = memoryview(d.buffers()[2])
    out = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        h = hashlib.sha256()
        h.update(data[offs[lo] : offs[hi]])
        out.append(h.hexdigest())
    return out


def sha256_prefix_int(col: pa.Array | pa.ChunkedArray, chars: int = 15) -> np.ndarray:
    """First ``chars`` hex digits of sha256 per row, as int64 — vectorized.

    The deterministic-assignment kernel (train/val splits, sampling,
    SQL-reproducible fakes): DuckDB computes the identical value as
    ``CAST('0x' || substr(sha256(x), 1, chars) AS BIGINT)``. 15 hex chars
    = 60 bits, safely inside int64. Nulls hash to -1.
    """
    assert chars <= 15, "more than 15 hex chars overflows int64"
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
        col = col.cast(pa.string())
    n = len(col)
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out
    # the first `chars` hex digits are the top 4*chars bits of the raw
    # digest: parse digest()[:8] as big-endian uint64 and shift — no hex
    # string, no 64-wide byte matrix (that parse dominated this kernel)
    buffers = col.buffers()
    offset_width = 8 if pa.types.is_large_string(col.type) else 4
    odtype = np.int64 if offset_width == 8 else np.int32
    offs = np.frombuffer(
        buffers[1], dtype=odtype, count=n + 1, offset=col.offset * offset_width
    )
    data = memoryview(buffers[2])
    sha = hashlib.sha256
    if col.null_count == 0:
        raw = b"".join(
            sha(data[offs[i] : offs[i + 1]]).digest()[:8] for i in range(n)
        )
        valid = None
    else:
        valid = np.asarray(col.is_valid())
        raw = b"".join(
            sha(data[offs[i] : offs[i + 1]]).digest()[:8]
            if valid[i]
            else b"\0" * 8
            for i in range(n)
        )
    nums = (
        np.frombuffer(raw, dtype=">u8").astype(np.uint64)
        >> np.uint64(64 - 4 * chars)
    ).astype(np.int64)
    if valid is None:
        return nums
    out[valid] = nums[valid]
    return out


def key_hash(table: pa.Table | pd.DataFrame, key_cols: list[str]) -> np.ndarray:
    """Stable uint64 hash of composite key columns, vectorized.

    Uses pandas' fixed-key siphash so routing is identical in every worker
    process (Python's builtin hash() is salted per process — never use it
    for partition routing).
    """
    out: np.ndarray | None = None
    for i, col in enumerate(key_cols):
        vals = (
            table[col].to_numpy(zero_copy_only=False)
            if isinstance(table, pa.Table)
            else table[col].to_numpy()
        )
        h = pd.util.hash_array(vals, categorize=False)
        # combine with a distinct ODD multiplier per column position.
        # The golden-ratio constant is itself odd, so the offset must be
        # EVEN (2i): an even multiplier zeroes the product's low bit and
        # hash % P could then only ever reach the even partitions —
        # half the cluster idle on every keyed exchange.
        h = h * np.uint64(0x9E3779B97F4A7C15 + 2 * i)
        out = h if out is None else (out ^ h)
    assert out is not None, "key_cols must be non-empty"
    return out


def partition_ids(
    table: pa.Table | pd.DataFrame, key_cols: list[str], num_partitions: int
) -> np.ndarray:
    """Partition id per row: hash(key) % P, stable across processes."""
    return (key_hash(table, key_cols) % np.uint64(num_partitions)).astype(np.int32)
