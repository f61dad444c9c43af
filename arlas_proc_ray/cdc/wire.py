"""Debezium-style JSON wire format for change events: decode + encode.

A production CDC tail rarely arrives as clean Parquet — it arrives as a
stream of JSON envelopes (Debezium's ``{"payload": {op, before, after,
source}}`` shape is the de-facto public standard for binlog/WAL tails).
This module converts between that wire shape and the engine's canonical
Arrow event schema (``events.CANONICAL_EVENT_SCHEMA``), completing the
tail→decode→upsert→snapshot loop from raw bytes.

Reference parity note: ARLAS-proc ingests CSV/Parquet and writes ES bulk
NDJSON (``transform/ArlasTransformer.scala``, ``load/`` sinks); it has no
binlog decoder. This is a from-scratch design for the CDC-replay
reimagining — the envelope layout follows Debezium's PUBLIC documented
format, not any reference code.

Design (100-TB discipline):

- **Decode fast path is C++, not Python.** A batch of JSON lines is
  newline-joined and handed to ``pyarrow.json.read_json`` once — Arrow's
  SIMD JSON parser — with an explicit envelope schema so output types
  never drift by inference. Python-per-row parsing happens ONLY for
  batches that contain at least one malformed line (the C++ parse
  fails), and then only to isolate the bad rows into the dead-letter
  queue; clean batches never touch a Python loop.
- **Envelope → canonical columns is pure ``pyarrow.compute``**:
  ``struct_field`` projections, ``coalesce`` for before/after row
  images, dictionary-free string ops.
- **Malformed input quarantines, never kills the epoch.** Unparseable
  JSON, missing op/lsn/key fields → content-addressed dead-letter
  Parquet via the same idempotent writer the engines use
  (``replay.write_quarantine``), with a ``dlq_reason`` and the raw line
  preserved for repair-and-replay.
- **Encode is vectorized string assembly**: the row image is serialized
  by ``pandas.DataFrame.to_json`` (C escaping), the envelope is glued
  around it with Arrow ``binary_join_element_wise`` — no per-row
  ``json.dumps``.

Op mapping (Debezium public semantics): ``c`` (create) and ``r``
(snapshot read) → INSERT, ``u`` → UPDATE, ``d`` → DELETE. The engine's
LWW merge treats INSERT/UPDATE identically, so ``r``-seeded snapshots
replay correctly.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.json as pj

from arlas_proc_ray.cdc import sizing
from arlas_proc_ray.cdc.events import (
    CANONICAL_EVENT_SCHEMA,
    EVENT_SCHEMA_V1,
    EVENT_SCHEMA_V2,
)

# decode: c (create) and r (snapshot read) → INSERT, u → UPDATE,
# d → DELETE; encode is the inverse. PATCH is NOT encodable: Debezium's
# `u` carries a full post-image, but a PATCH event's nulls mean
# "unchanged" — exporting one as `u` would decode into an UPDATE that
# overwrites those fields with null. Encode PATCH streams via the
# engine's materialized change feed (cdc/publish.py) instead.
_OP_ENCODE = {"INSERT": "c", "UPDATE": "u", "DELETE": "d"}

# the row image as it travels inside the envelope (v2-superset: a v1
# producer simply leaves `language`/`content_size` absent and fills
# `lang`; read_json explicit_schema nulls absent fields — no inference)
_IMAGE_SCHEMA = pa.struct(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("language", pa.string()),
        ("content", pa.string()),
        ("content_size", pa.int64()),
    ]
)

_SOURCE_SCHEMA = pa.struct(
    [
        ("lsn", pa.int64()),
        ("schema_version", pa.int32()),
        ("delivery_index", pa.int64()),
        ("ts_ms", pa.int64()),
        ("table", pa.string()),  # multiplexed streams (Debezium source.table)
    ]
)

_ENVELOPE_SCHEMA = pa.schema(
    [
        (
            "payload",
            pa.struct(
                [
                    ("op", pa.string()),
                    ("before", _IMAGE_SCHEMA),
                    ("after", _IMAGE_SCHEMA),
                    ("source", _SOURCE_SCHEMA),
                ]
            ),
        )
    ]
)

_PARSE_OPTS = pj.ParseOptions(
    explicit_schema=_ENVELOPE_SCHEMA, unexpected_field_behavior="ignore"
)
# block_size: one batch is parsed as ONE Arrow JSON block (we already
# control batch sizing upstream); 512 MiB is the pa.json hard cap
_READ_OPTS = pj.ReadOptions(use_threads=False, block_size=1 << 29)


def _parse_lines_cpp(raw: "pa.Array | pa.ChunkedArray") -> pa.Table:
    """One C++ parse of all lines; raises on any malformed line.

    The newline join happens in Arrow (``binary_join`` over a single
    list wrapping the whole column) — no per-row Python strings on the
    clean path.
    """
    flat = pa.chunked_array([raw]).combine_chunks()
    if pa.types.is_large_string(flat.type):
        flat = pc.cast(flat, pa.string())
    lst = pa.ListArray.from_arrays(
        pa.array([0, len(flat)], pa.int32()), flat
    )
    joined = pc.binary_join(lst, pa.scalar("\n"))
    buf = io.BytesIO(joined[0].as_py().encode("utf-8"))
    return pj.read_json(buf, read_options=_READ_OPTS, parse_options=_PARSE_OPTS)


def _parse_lines_isolating(lines: list) -> tuple[pa.Table, np.ndarray]:
    """Python fallback for batches with malformed lines.

    Returns (envelope table for good lines, bool mask of bad lines).
    Each good line is re-serialized compactly and handed back to the C++
    parser so BOTH paths produce byte-identical typed envelopes.
    """
    good_lines: list[str] = []
    bad = np.zeros(len(lines), dtype=bool)
    for i, line in enumerate(lines):
        if line is None or not str(line).strip():
            bad[i] = True
            continue
        try:
            obj = json.loads(line)
        except (ValueError, TypeError):
            bad[i] = True
            continue
        if not isinstance(obj, dict):
            bad[i] = True
            continue
        good_lines.append(json.dumps(obj, separators=(",", ":")))
    if good_lines:
        tbl = _parse_lines_cpp(pa.array(good_lines, pa.string()))
    else:
        tbl = _ENVELOPE_SCHEMA.empty_table()
    return tbl, bad


def _envelope_to_events(env: pa.Table) -> pa.Table:
    """Envelope struct table → canonical-superset event columns.

    Output carries BOTH ``lang`` and ``language`` plus a ``_decode_bad``
    null-violation mask; ``decode_debezium`` applies validation/DLQ and
    the v1/v2 projection after this.
    """
    payload = env.column("payload").combine_chunks()
    op_raw = pc.struct_field(payload, "op")
    before = pc.struct_field(payload, "before")
    after = pc.struct_field(payload, "after")
    source = pc.struct_field(payload, "source")

    is_delete = pc.equal(op_raw, pa.scalar("d"))
    # row image: after for c/r/u, before for d (Debezium ships the
    # deleted row's last image in `before`)
    def img(field: str):
        return pc.if_else(
            is_delete,
            pc.struct_field(before, field),
            pc.struct_field(after, field),
        )

    # op decode without a Python map: chained if_else over 4 codes
    op = pc.if_else(
        pc.is_in(op_raw, value_set=pa.array(["c", "r"], pa.string())),
        pa.scalar("INSERT"),
        pc.if_else(
            pc.equal(op_raw, pa.scalar("u")),
            pa.scalar("UPDATE"),
            pc.if_else(is_delete, pa.scalar("DELETE"), pa.scalar(None, pa.string())),
        ),
    )

    lsn = pc.struct_field(source, "lsn")
    lang = img("lang")
    language = img("language")
    sv = pc.struct_field(source, "schema_version")
    # absent schema_version: infer from the image shape — a row image
    # with `language` populated is v2, else v1 (mirrors the generator's
    # rename fixture, events.py EVENT_SCHEMA_V1/V2)
    sv = pc.coalesce(
        sv,
        pc.if_else(
            pc.is_valid(language),
            pa.scalar(2, pa.int32()),
            pa.scalar(1, pa.int32()),
        ),
    )
    delivery = pc.coalesce(pc.struct_field(source, "delivery_index"), lsn)

    return pa.table(
        {
            "lsn": lsn,
            "op": op,
            "repo": img("repo"),
            "path": img("path"),
            "commit": img("commit"),
            "lang": lang,
            "language": language,
            "content": img("content"),
            "content_size": img("content_size"),
            "schema_version": sv,
            "delivery_index": delivery,
            "table": pc.struct_field(source, "table"),
        }
    )


def _project_versions(tbl: pa.Table, extra_cols: "list[str] | None" = None):
    """Split the superset decode onto the registry's versioned schemas.

    Yields one physically version-shaped table per schema version present
    in the batch — v1 rows keep ``lang`` (the alignment stage renames
    later, exactly as for Parquet-sourced batches); v2 rows keep
    ``language`` + ``content_size``. This mirrors the generator's
    contract (events.generate_changelog_tables): a decoded stream is
    block-for-block indistinguishable from a natively generated one, so
    every engine path (normalize, DLQ, demux) applies unchanged.
    """
    extra = list(extra_cols or [])
    sv = tbl.column("schema_version")
    is_v1 = pc.equal(sv, pa.scalar(1, sv.type))
    n_v1 = pc.sum(pc.cast(is_v1, pa.int64())).as_py() or 0
    if n_v1:
        yield tbl.filter(is_v1).select(
            [f.name for f in EVENT_SCHEMA_V1] + extra
        )
    if n_v1 < tbl.num_rows:
        rest = tbl.filter(pc.invert(is_v1))
        # non-v1 rows (v2 or foreign versions): canonical layout; a
        # foreign producer that only filled `lang` still surfaces it
        language = pc.coalesce(rest.column("language"), rest.column("lang"))
        rest = rest.set_column(
            rest.schema.get_field_index("language"), "language", language
        )
        yield rest.select([f.name for f in EVENT_SCHEMA_V2] + extra)


def decode_debezium(
    ds,
    *,
    json_col: str = "value",
    dead_letter_dir: str | None = None,
    epoch: int = 0,
    batch_size: int | None = None,
    table_col: str | None = None,
):
    """Decode a Dataset with a JSON-envelope string column into canonical
    change events.

    ``table_col``: for MULTIPLEXED streams (one topic, many tables —
    Debezium's ``source.table``), surface the envelope's table name as
    this output column; feed the result to ``cdc/demux.py:demux_epoch``
    to fan it out into per-table stores.

    Returns a Dataset shaped like the generator's changelog (v1 / v2 /
    canonical mixed layout per batch) — feed it straight to
    ``CdcEngine.apply_epoch`` / ``staged_apply_epoch`` / ``demux``.

    ``dead_letter_dir``: malformed JSON and rows failing the event
    contract (null op / lsn / repo / path, unknown op code) quarantine
    there (content-addressed, idempotent, with the raw line and a
    reason). Without it, the first bad row raises — same STRICT-or-DLQ
    contract as the engines.
    """
    fn = make_decode_fn(
        json_col=json_col,
        dead_letter_dir=dead_letter_dir,
        epoch=epoch,
        table_col=table_col,
    )
    return ds.map_batches(
        fn, batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True
    )


def make_decode_fn(
    *,
    json_col: str = "value",
    dead_letter_dir: str | None = None,
    epoch: int = 0,
    table_col: str | None = None,
):
    """The per-batch decode generator behind ``decode_debezium`` —
    callable directly on a ``pa.Table`` (tests, non-Ray consumers)."""

    def fn(batch: pa.Table):
        n = batch.num_rows
        if n == 0:
            yield CANONICAL_EVENT_SCHEMA.empty_table()
            return
        raw = batch.column(json_col).combine_chunks()
        env = None
        if raw.null_count == 0:
            try:
                env = _parse_lines_cpp(raw)
                bad_parse = np.zeros(n, dtype=bool)
            except (pa.ArrowInvalid, pa.ArrowCapacityError):
                env = None
        if env is None or env.num_rows != n:
            # nulls, malformed lines, or lines the C++ parser silently
            # skipped (blank rows): isolate per row
            env, bad_parse = _parse_lines_isolating(raw.to_pylist())

        if bad_parse.any() and dead_letter_dir is None:
            first = int(np.flatnonzero(bad_parse)[0])
            raise ValueError(
                f"malformed JSON change event (row {first} of batch): "
                f"{raw[first].as_py()!r:.120}"
            )

        events = _envelope_to_events(env)
        # contract checks on the PARSED rows (vectorized)
        viol = pc.or_kleene(
            pc.is_null(events.column("op")),
            pc.is_null(events.column("lsn")),
        )
        viol = pc.or_kleene(viol, pc.is_null(events.column("repo")))
        viol = pc.or_kleene(viol, pc.is_null(events.column("path")))
        viol_np = viol.to_numpy(zero_copy_only=False).astype(bool)
        if viol_np.any():
            if dead_letter_dir is None:
                first = int(np.flatnonzero(viol_np)[0])
                raise ValueError(
                    "change event violates contract (null op/lsn/key) at "
                    f"parsed row {first}"
                )
            # map parsed-row violations back to raw lines for the DLQ
            parsed_pos = np.flatnonzero(~bad_parse)
            bad_parse[parsed_pos[viol_np]] = True
            events = events.filter(pa.array(~viol_np))

        if bad_parse.any():
            from arlas_proc_ray.cdc.replay import write_quarantine

            quarantined = pa.table(
                {
                    "raw": pc.cast(
                        raw.filter(pa.array(bad_parse)), pa.string()
                    ),
                    "dlq_reason": pa.array(
                        ["wire_decode_error"] * int(bad_parse.sum()),
                        pa.string(),
                    ),
                }
            )
            write_quarantine(quarantined, dead_letter_dir, epoch)

        if table_col is not None:
            events = events.rename_columns(
                [table_col if c == "table" else c for c in events.column_names]
            )
            yield from _project_versions(events, extra_cols=[table_col])
        else:
            yield from _project_versions(events)

    return fn


def _jsonl_range_plans(paths, target_bytes: int) -> list[dict]:
    """Byte-range shards over the segment files: every range owns the
    lines whose FIRST byte falls inside it (a line starts at offset 0 or
    right after a newline), so the union over ranges is exactly the file
    with no duplicates — the standard splittable-text contract."""
    import os

    files = []
    for p in paths:
        if os.path.isdir(p):  # read_text parity: a directory means its files
            files.extend(
                os.path.join(p, f) for f in sorted(os.listdir(p))
                if not f.startswith(".")
            )
        else:
            files.append(p)
    plans = []
    for p in files:
        size = os.path.getsize(p)
        k = max(1, -(-size // target_bytes))
        for i in range(k):
            plans.append(
                {"path": p, "lo": size * i // k, "hi": size * (i + 1) // k}
            )
    return plans


def _read_jsonl_range(path: str, lo: int, hi: int) -> pa.Array:
    """One range's complete lines as an Arrow string array. Line
    splitting is one C++ ``split_pattern`` over the raw buffer — no
    per-line Python objects (``ray.data.read_text`` materializes a
    Python str per line, measured 10× slower than the decode it feeds
    at 20M events)."""
    import pyarrow.compute as pc

    with open(path, "rb") as f:
        start = lo
        if lo > 0:
            # starting mid-line iff the previous byte is not a newline:
            # skip forward to the first line that STARTS in [lo, hi)
            f.seek(lo - 1)
            prev = f.read(1)
            if prev != b"\n":
                chunk = f.read(hi - lo)
                nl = chunk.find(b"\n")
                if nl < 0:
                    return pa.array([], pa.string())  # interior of one line
                start = lo + nl + 1
        f.seek(start)
        data = f.read(hi - start)
        if not data:
            return pa.array([], pa.string())
        # the last owned line may continue past hi: extend to its newline
        if not data.endswith(b"\n"):
            tail = f.read(1 << 20)
            while tail:
                nl = tail.find(b"\n")
                if nl >= 0:
                    data += tail[: nl + 1]
                    break
                data += tail
                tail = f.read(1 << 20)
    lines = pc.list_flatten(
        pc.split_pattern(pa.array([data], pa.large_binary()), pattern=b"\n")
    )
    lines = pc.cast(lines, pa.string())
    return lines.filter(pc.not_equal(lines, pa.scalar("")))


def read_changelog_jsonl(paths, *, target_bytes: int = 64 * 1024 * 1024,
                         **decode_kwargs):
    """Tail a directory/file list of JSON-lines change events → canonical
    events Dataset. Files are sharded into ``target_bytes`` byte ranges
    (newline-aligned, so one 10 GB segment parallelizes like 160 small
    ones) and each range splits its lines with one Arrow kernel; decode
    runs per batch with the C++ fast path.

    A read that would be one task (one range, or one CPU in the session)
    over at most ``sizing.INLINE_BYTES`` is read and decoded in this
    process (``sizing.runs_in_process``), one decode and one block per
    range as the Ray Data path runs them, and comes back as a
    ``from_blocks`` Dataset, which starts no task (unless ``batch_size``
    asks for Ray Data's re-batching). The Dataset is held with its tables
    (``sizing.hold``), so an in-process exchange over it reads them
    directly."""
    import ray.data as rd

    plans = _jsonl_range_plans(
        [paths] if isinstance(paths, str) else list(paths), target_bytes
    )
    if not plans:  # empty directory: typed empty stream
        return decode_debezium(
            rd.from_blocks([pa.table({"text": pa.array([], pa.string())})]),
            json_col="text", **decode_kwargs,
        )
    tasks = min(len(plans), sizing.session_cpus())
    if decode_kwargs.get("batch_size") is None and sizing.runs_in_process(
            tasks, sum(p["hi"] - p["lo"] for p in plans)):
        kw = {k: v for k, v in decode_kwargs.items() if k != "batch_size"}
        decode = make_decode_fn(json_col="text", **kw)
        decoded = [
            list(decode(pa.table(
                {"text": _read_jsonl_range(p["path"], p["lo"], p["hi"])})))
            for p in plans
        ]
        # one block per range that decoded to anything, its version
        # tables concatenated as Ray Data's block builder does; an
        # in-process exchange takes them back without the object store
        blocks = [
            pa.concat_tables(tables, promote_options="default")
            for tables in decoded if tables
        ] or [CANONICAL_EVENT_SCHEMA.empty_table()]
        return sizing.hold(rd.from_blocks(blocks), blocks)

    def read_ranges(batch: pa.Table) -> pa.Table:
        parts = [
            _read_jsonl_range(p, int(lo), int(hi))
            for p, lo, hi in zip(
                batch.column("path").to_pylist(),
                batch.column("lo").to_pylist(),
                batch.column("hi").to_pylist(),
            )
        ]
        out = (
            pa.concat_arrays([p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p for p in parts])
            if parts
            else pa.array([], pa.string())
        )
        return pa.table({"text": out})

    text = rd.from_items(plans, override_num_blocks=max(1, len(plans))).map_batches(
        read_ranges, batch_format="pyarrow", batch_size=None
    )
    return decode_debezium(text, json_col="text", **decode_kwargs)


def encode_debezium(
    ds,
    *,
    target_col: str = "value",
    batch_size: int | None = None,
    table_col: str | None = None,
):
    """Encode canonical/v1/v2 change events into Debezium JSON envelopes.

    Vectorized: the per-row image object is serialized by
    ``pandas.DataFrame.to_json(orient="records", lines=True)`` (C code,
    correct escaping), envelopes are assembled around the image strings
    with Arrow ``binary_join_element_wise``. DELETE rows ship the image
    as ``before`` with ``after: null``; INSERT/UPDATE ship ``after``
    with ``before: null`` (Debezium's documented shapes).

    ``table_col``: write this column as the envelope's
    ``source.table`` (multiplexed-stream export); decode it back with
    ``decode_debezium(table_col=...)``. Names are fully JSON-escaped
    (the Hypothesis roundtrip property covers arbitrary unicode incl.
    control characters).

    Roundtrip contract: ``decode_debezium(encode_debezium(ev))``
    reproduces ``ev`` exactly (same columns, same values) for v1, v2 and
    canonical layouts — pinned by tests/test_wire.py.
    """
    fn = make_encode_fn(target_col=target_col, table_col=table_col)
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


def make_encode_fn(*, target_col: str = "value", table_col: str | None = None):
    """The per-batch encode function behind ``encode_debezium`` —
    callable directly on a ``pa.Table`` (tests, non-Ray consumers)."""

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({target_col: pa.array([], pa.string())})
        names = set(batch.column_names)
        image_cols = [
            c
            for c in ("repo", "path", "commit", "lang", "language", "content", "content_size")
            if c in names
        ]
        pdf = batch.select(image_cols).to_pandas()
        if "content_size" in pdf.columns:
            # nullable Int64, not float64: a null must encode as JSON
            # null and a value as an integer (123, never 123.0)
            pdf["content_size"] = pdf["content_size"].astype("Int64")
        # one C-serialized JSON object per row; to_json(lines=True)
        # escapes embedded newlines so the split below is row-aligned
        images = pa.array(
            pdf.to_json(orient="records", lines=True, force_ascii=False)
            .rstrip("\n")
            .split("\n"),
            pa.string(),
        )
        assert len(images) == n

        op = batch.column("op")
        op_code = pc.case_when(
            pc.make_struct(
                pc.equal(op, pa.scalar("INSERT")),
                pc.equal(op, pa.scalar("UPDATE")),
                pc.equal(op, pa.scalar("DELETE")),
            ),
            pa.scalar("c"),
            pa.scalar("u"),
            pa.scalar("d"),
        )
        if op_code.null_count:
            bad = pc.is_null(op_code)
            raise ValueError(
                "encode_debezium: unknown op "
                f"{op.filter(bad)[0].as_py()!r} — valid: {sorted(_OP_ENCODE)}"
            )
        is_del = pc.equal(op_code, pa.scalar("d"))

        null_lit = pa.scalar("null")
        before = pc.if_else(is_del, images, null_lit)
        after = pc.if_else(is_del, null_lit, images)

        lsn_s = pc.cast(batch.column("lsn"), pa.string())
        if "schema_version" in names:
            sv_s = pc.cast(batch.column("schema_version"), pa.string())
        else:
            # generic changelog without explicit versioning: the image
            # shape decides (language-shaped = v2, lang-shaped = v1)
            sv_s = pa.scalar("2" if "language" in names else "1")
        delivery_s = (
            pc.cast(batch.column("delivery_index"), pa.string())
            if "delivery_index" in names
            else lsn_s
        )

        source_tail: list = [pa.scalar("}}}")]
        if table_col is not None and table_col in names:
            # full JSON escaping (incl. control chars) via the same C
            # to_json path the image uses: serialize {"t": name} per
            # row, slice off the fixed 5-char prefix and 1-char suffix —
            # what remains is the quoted escaped literal (or `null`)
            tj = (
                pd.DataFrame({"t": batch.column(table_col).to_pandas()})
                .to_json(orient="records", lines=True, force_ascii=False)
                .rstrip("\n")
                .split("\n")
            )
            tlit = pc.utf8_slice_codeunits(pa.array(tj, pa.string()), 5, -1)
            source_tail = [
                pa.scalar(',"table":'),
                tlit,
                pa.scalar("}}}"),
            ]

        # Arrow-native assembly: one varchar output buffer, no numpy
        # UTF-32 intermediates (content strings can be large)
        value = pc.binary_join_element_wise(
            pa.scalar('{"payload":{"op":"'),
            op_code,
            pa.scalar('","before":'),
            before,
            pa.scalar(',"after":'),
            after,
            pa.scalar(',"source":{"lsn":'),
            lsn_s,
            pa.scalar(',"schema_version":'),
            sv_s,
            pa.scalar(',"delivery_index":'),
            delivery_s,
            *source_tail,
            pa.scalar(""),  # separator
        )
        return pa.table({target_col: value})

    return fn


def write_changelog_jsonl(ds, out_dir: str, **encode_kwargs) -> None:
    """Export a change stream as sharded JSON-lines files (one file per
    block — resumable, never one giant file)."""
    import os
    import uuid

    encoded = encode_debezium(ds, **encode_kwargs)
    os.makedirs(out_dir, exist_ok=True)

    def write_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"n": pa.array([], pa.int64())})
        payload = "\n".join(batch.column("value").to_pylist()) + "\n"
        name = os.path.join(out_dir, f"part-{uuid.uuid4().hex[:16]}.jsonl")
        tmp = name + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(payload)
        os.replace(tmp, name)
        return pa.table({"n": pa.array([batch.num_rows], pa.int64())})

    encoded.map_batches(
        write_block, batch_format="pyarrow", batch_size=None
    ).materialize()
