"""Sources / sinks (SURVEY.md §2.1 parity).

Reference surface: readFromCsv / readFromParquet
(sql/DataFrameReader.scala:27-46), writeToParquet (repartition by partition
column, snappy, partitioned layout — sql/WritableDataFrame.scala:68-76),
writeToCsv (coalesce(1), stringified arrays — sql/WritableDataFrame.scala:109-127).
The Scylla/Elasticsearch connectors are out of scope here (no services in
this environment); ``ray.data.read_datasource``/custom ``Datasink`` is the
seam where they would plug in.

Reads always take ``columns=`` — prune at the read; a read that loads all
columns for a 2-column transform is wrong at any scale.

``read_parquet`` has two paths, chosen by the one in-process rule of the
package, ``cdc.sizing.runs_in_process(tasks, nbytes)``:

  * in the caller: a list of local files (no directory, no ``k=v`` path
    segment Ray would read hive columns from, no ``min_parallelism`` past
    1, no other ``ray.data.read_parquet`` option) that Ray would read as
    one task — ``tasks = min(files, session CPUs)`` — and whose footers
    state at most ``sizing.INLINE_BYTES`` decoded (the row groups'
    ``total_byte_size``) is decoded here with ``pyarrow.dataset``, one
    block per non-empty file, and comes back as a ``from_blocks`` Dataset
    held with its tables (``sizing.hold``): no sampling task, no read
    task, no executor;
  * every other read goes through ``ray.data.read_parquet``.

Both read under the same schema (the first file's, metadata stripped),
columns and filter.
"""

from __future__ import annotations

import os
from typing import Sequence

import pyarrow as pa
import pyarrow.csv as pacsv

import ray.data as rd


_MIN_BLOCK_BYTES = 16 * 1024 * 1024  # target ≥16 MB per block


def read_parquet(paths, *, columns: Sequence[str] | None = None, filter_expr=None,
                 min_parallelism: int = 1, **kwargs):
    """Column-pruned, predicate-pushdown Parquet read.

    The file schema is passed explicitly with its metadata STRIPPED:
    pandas-written parquet carries a metadata dict that makes the Arrow
    schema unhashable, which defeats Ray's schema deduplication in every
    downstream shuffle (one warning per block, and a real risk of masking
    actual schema drift).

    A read Ray would run as one task over at most ``sizing.INLINE_BYTES``
    is decoded in this process (module docstring).
    """
    from arlas_proc_ray.cdc import sizing

    files = None if kwargs or min_parallelism > 1 else _local_files(paths)
    if files is not None and sizing.runs_in_process(
            min(len(files), sizing.session_cpus()), _decoded_bytes(files)):
        return _read_in_process(files, columns, filter_expr)
    opts = dict(kwargs)
    if columns is not None:
        opts["columns"] = list(columns)
    if filter_expr is not None:
        opts["filter"] = filter_expr  # pyarrow dataset expression pushdown
    if "schema" not in opts:
        try:
            first = paths if isinstance(paths, str) else list(paths)[0]
            file_schema = _read_schema(first, columns, filter_expr)
            if file_schema is not None:
                opts["schema"] = file_schema
        except Exception:
            pass  # directories / remote stores: let Ray infer
    if "override_num_blocks" not in opts:
        # Block-size targeting: Ray defaults to ~2 blocks/CPU regardless of
        # input size, so a 10 MB table becomes 64 near-empty blocks and
        # every downstream task/shuffle pays per-block overhead. Cap the
        # block count so blocks average ≥ _MIN_BLOCK_BYTES; for inputs past
        # cpus × _MIN_BLOCK_BYTES (i.e. any real workload) this never
        # triggers and Ray's own parallelism wins.
        try:
            if isinstance(paths, str) and os.path.isfile(paths):
                size = os.path.getsize(paths)
                # floor: callers feeding compute-heavy per-row stages
                # (minhash signatures, model scoring) ask for
                # min_parallelism so a small input still fans out
                cap = max(int(min_parallelism), size // _MIN_BLOCK_BYTES, 1)
                import ray

                cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
                if cap < 2 * cpus:
                    opts["override_num_blocks"] = int(cap)
        except Exception:
            pass
    return rd.read_parquet(paths, **opts)


def _read_schema(path: str, columns, filter_expr) -> pa.Schema | None:
    """The schema ``read_parquet`` gives Ray for a read of ``path``: the
    file's, metadata stripped, pruned to ``columns``. None (Ray infers)
    when the filter references a column outside ``columns`` — legal in a
    plain read, but the pruned schema would fail the scan."""
    import pyarrow.parquet as pq

    file_schema = pq.read_schema(path).remove_metadata()
    if columns is None:
        return file_schema
    expr_s = str(filter_expr) if filter_expr is not None else ""
    if any(f.name in expr_s for f in file_schema if f.name not in columns):
        return None
    return pa.schema([file_schema.field(c) for c in columns])


def _local_files(paths) -> list[str] | None:
    """``paths`` as a list of local files, or None when Ray's read must
    resolve them: a directory, a URI, a missing path, or a ``k=v`` path
    segment, from which Ray would add hive partition columns."""
    listed = [paths] if isinstance(paths, (str, os.PathLike)) else list(paths)
    files = []
    for p in listed:
        if not isinstance(p, (str, os.PathLike)):
            return None
        p = os.fspath(p)
        if "://" in p or not os.path.isfile(p):
            return None
        if any("=" in seg for seg in os.path.abspath(p).split(os.sep)):
            return None
        files.append(p)
    return files or None


def _decoded_bytes(files: list[str]) -> int:
    """Decoded bytes of ``files`` as their footers state them: the sum of
    every row group's ``total_byte_size``."""
    import pyarrow.parquet as pq

    total = 0
    for f in files:
        md = pq.read_metadata(f)
        total += sum(md.row_group(i).total_byte_size
                     for i in range(md.num_row_groups))
    return total


def _read_in_process(files: list[str], columns, filter_expr):
    """Decode ``files`` here with ``pyarrow.dataset``, under the first
    file's schema (metadata stripped), ``columns`` and ``filter_expr``:
    one block per file that has rows, a typed empty one when none has.
    The Dataset is held with its blocks (``sizing.hold``), so an
    in-process exchange over it takes them directly."""
    import pyarrow.dataset as pds

    from arlas_proc_ray.cdc import sizing

    # the whole file schema: a filter may reference non-projected columns
    schema = _read_schema(files[0], None, None)
    cols = list(columns) if columns is not None else None
    tables = [
        pds.dataset(f, schema=schema, format="parquet").to_table(
            columns=cols, filter=filter_expr)
        for f in files
    ]
    blocks = [t for t in tables if t.num_rows] or tables[:1]
    return sizing.hold(rd.from_blocks(blocks), blocks)


def read_csv(paths, *, delimiter: str = ",", header: bool = True,
             schema: pa.Schema | None = None, columns=None):
    """CSV read with optional explicit schema (readFromCsv parity).

    ``header=False`` + ``schema`` mirrors the reference's headerless mode
    with a caller-declared schema.
    """
    parse_options = pacsv.ParseOptions(delimiter=delimiter)
    read_options = pacsv.ReadOptions(
        column_names=None if header else [f.name for f in (schema or [])] or None,
    )
    convert_options = pacsv.ConvertOptions(
        column_types={f.name: f.type for f in schema} if schema else None,
        include_columns=list(columns) if columns else None,
    )
    return rd.read_csv(
        paths,
        parse_options=parse_options,
        read_options=read_options,
        convert_options=convert_options,
    )


def write_partitioned_parquet(ds, path: str, *, partition_col: str | None = None,
                              min_rows_per_file: int | None = None):
    """Partitioned snappy Parquet sink (writeToParquet parity).

    One directory per partition value (resumable layout: a rerun can skip
    finished partitions); never one giant file. For the exactly-once CDC
    sink with manifests use ``cdc.snapshot.SnapshotStore`` instead.
    """
    kwargs = {}
    if partition_col is not None:
        kwargs["partition_cols"] = [partition_col]
    if min_rows_per_file is not None:
        kwargs["min_rows_per_file"] = min_rows_per_file
    ds.write_parquet(path, **kwargs)


def write_csv_single(ds, path: str, *, stringify_lists: bool = True):
    """Debug sink: single CSV file, list columns stringified as "[a,b]".

    Mirror of writeToCsv's coalesce(1) + array stringification
    (sql/WritableDataFrame.scala:109-127). Driver-side single-file write —
    ONLY for small results (the reference's is equally single-threaded).
    """
    import pandas as pd

    df = ds.to_pandas()
    if stringify_lists:
        for c in df.columns:
            if df[c].map(lambda v: isinstance(v, (list, tuple))).any():
                df[c] = df[c].map(
                    lambda v: "[" + ",".join(map(str, v)) + "]"
                    if isinstance(v, (list, tuple))
                    else v
                )
    df.to_csv(path, index=False)
    return path
