"""Debezium JSON wire format (cdc/wire.py): decode, encode, roundtrip,
DLQ isolation, and decode→engine end-to-end parity."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import (
    ChangelogConfig,
    changelog_dataset,
    generate_changelog_tables,
)
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.cdc.wire import (
    decode_debezium,
    encode_debezium,
    read_changelog_jsonl,
    write_changelog_jsonl,
)
from arlas_proc_ray.model import DataModel


CFG = ChangelogConfig(num_events=4000, seed=23)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("lsn").reset_index(drop=True)


def test_roundtrip_exact():
    ev = changelog_dataset(CFG)
    orig = _sorted(ev.to_pandas())
    dec = _sorted(decode_debezium(encode_debezium(ev)).to_pandas())
    assert list(orig.columns) == list(dec.columns)
    pd.testing.assert_frame_equal(orig, dec, check_dtype=False)


def test_decode_sample_envelope_shape():
    """One encoded line is genuine Debezium-shaped JSON."""
    tbl = generate_changelog_tables(ChangelogConfig(num_events=50, seed=3))[0]
    enc = encode_debezium(rd.from_arrow(tbl)).take(5)
    for row in enc:
        obj = json.loads(row["value"])
        p = obj["payload"]
        assert p["op"] in ("c", "u", "d")
        assert isinstance(p["source"]["lsn"], int)
        if p["op"] == "d":
            assert p["after"] is None and p["before"] is not None
        else:
            assert p["before"] is None and p["after"] is not None


def test_decode_foreign_producer_variants():
    """Lines we didn't encode ourselves: `r` snapshot-read ops, absent
    schema_version/delivery_index (inferred), extra unknown fields."""
    lines = [
        # v1-shaped create with extra fields and no schema_version
        json.dumps(
            {
                "payload": {
                    "op": "r",
                    "before": None,
                    "after": {
                        "repo": "a/r1",
                        "path": "src/x.py",
                        "commit": "c1",
                        "lang": "py",
                        "content": "x = 1",
                        "extra_field": "ignored",
                    },
                    "source": {"lsn": 10, "ts_ms": 1700000000000},
                },
                "ts_ms": 1700000000001,
            }
        ),
        # v2-shaped update
        json.dumps(
            {
                "payload": {
                    "op": "u",
                    "before": None,
                    "after": {
                        "repo": "a/r1",
                        "path": "src/x.py",
                        "commit": "c2",
                        "language": "py",
                        "content": "x = 2",
                        "content_size": 5,
                    },
                    "source": {"lsn": 11, "schema_version": 2},
                }
            }
        ),
        # delete shipping the last image in `before`
        json.dumps(
            {
                "payload": {
                    "op": "d",
                    "before": {"repo": "a/r1", "path": "src/x.py"},
                    "after": None,
                    "source": {"lsn": 12, "schema_version": 2},
                }
            }
        ),
    ]
    out = _sorted(
        decode_debezium(rd.from_items([{"value": l} for l in lines])).to_pandas()
    )
    assert out["op"].tolist() == ["INSERT", "UPDATE", "DELETE"]
    assert out["lsn"].tolist() == [10, 11, 12]
    # absent schema_version on a lang-shaped image → inferred v1
    assert out["schema_version"].tolist() == [1, 2, 2]
    # absent delivery_index → lsn
    assert out["delivery_index"].tolist() == [10, 11, 12]
    assert out.loc[0, "lang"] == "py"
    assert out.loc[2, "repo"] == "a/r1"


def test_malformed_lines_quarantine(tmp_path):
    good = json.dumps(
        {
            "payload": {
                "op": "c",
                "after": {"repo": "r", "path": "p", "lang": "py", "content": "c"},
                "source": {"lsn": 1},
            }
        }
    )
    rows = [
        {"value": good},
        {"value": "{not json"},
        {"value": ""},
        # parses, but violates the event contract (no lsn)
        {"value": json.dumps({"payload": {"op": "c", "after": {"repo": "r", "path": "p"}, "source": {}}})},
        # unknown op code → null op → contract violation
        {"value": json.dumps({"payload": {"op": "z", "after": {"repo": "r", "path": "p"}, "source": {"lsn": 9}}})},
    ]
    dlq = str(tmp_path / "dlq")
    out = decode_debezium(
        rd.from_items(rows).repartition(1), dead_letter_dir=dlq, epoch=7
    ).to_pandas()
    assert len(out) == 1 and out.loc[0, "lsn"] == 1

    from arlas_proc_ray.cdc.replay import read_dead_letters

    q = read_dead_letters(dlq, epoch=7).to_pandas()
    assert len(q) == 4
    assert set(q["dlq_reason"]) == {"wire_decode_error"}
    # raw lines preserved for repair
    assert "{not json" in set(q["raw"])


def test_malformed_strict_raises():
    rows = [{"value": "{not json"}]
    with pytest.raises(Exception):
        decode_debezium(rd.from_items(rows)).materialize()


def test_jsonl_file_roundtrip(tmp_path):
    out_dir = str(tmp_path / "wire")
    cfg = ChangelogConfig(num_events=1500, seed=5)
    ev = changelog_dataset(cfg)
    write_changelog_jsonl(ev, out_dir)
    files = [f for f in os.listdir(out_dir) if f.endswith(".jsonl")]
    assert len(files) > 1  # sharded, never one giant file
    back = _sorted(read_changelog_jsonl(out_dir).to_pandas())
    want = _sorted(ev.to_pandas())
    # file listing order decides which version's columns lead the union —
    # align on sorted names before comparing
    cols = sorted(want.columns)
    assert sorted(back.columns) == cols
    pd.testing.assert_frame_equal(want[cols], back[cols], check_dtype=False)


def test_decode_to_engine_matches_oracle(tmp_path):
    """Raw JSON tail → decode → apply_epoch → final state == oracle."""
    cfg = ChangelogConfig(num_events=3000, seed=41)
    tables = generate_changelog_tables(cfg)
    wire_dir = str(tmp_path / "tail")
    write_changelog_jsonl(changelog_dataset(cfg), wire_dir)

    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=8))
    eng.apply_epoch(read_changelog_jsonl(wire_dir), epoch=1)
    got = (
        eng.final_state()
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    want = (
        oracle_final_state(tables)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_encode_patch_rejected():
    tbl = pa.table(
        {
            "lsn": pa.array([1], pa.int64()),
            "op": pa.array(["PATCH"], pa.string()),
            "repo": pa.array(["r"], pa.string()),
            "path": pa.array(["p"], pa.string()),
            "commit": pa.array(["c"], pa.string()),
            "lang": pa.array(["py"], pa.string()),
            "content": pa.array([None], pa.string()),
            "schema_version": pa.array([1], pa.int32()),
            "delivery_index": pa.array([1], pa.int64()),
        }
    )
    with pytest.raises(Exception, match="unknown op"):
        encode_debezium(rd.from_arrow(tbl)).materialize()


def test_content_escaping_roundtrip():
    """Newlines, quotes, backslashes, unicode and NUL-free control chars
    in content survive encode→decode byte-exactly."""
    nasty = [
        'line1\nline2\t"quoted" \\backslash\\',
        "unicode: éß漢字 🎉",
        "ctrl: \x01\x1f bell:\x07",
        "",
    ]
    tbl = pa.table(
        {
            "lsn": pa.array(range(len(nasty)), pa.int64()),
            "op": pa.array(["UPDATE"] * len(nasty), pa.string()),
            "repo": pa.array(["r"] * len(nasty), pa.string()),
            "path": pa.array([f"p{i}" for i in range(len(nasty))], pa.string()),
            "commit": pa.array(["c"] * len(nasty), pa.string()),
            "lang": pa.array(["py"] * len(nasty), pa.string()),
            "content": pa.array(nasty, pa.string()),
            "schema_version": pa.array([1] * len(nasty), pa.int32()),
            "delivery_index": pa.array(range(len(nasty)), pa.int64()),
        }
    )
    dec = _sorted(decode_debezium(encode_debezium(rd.from_arrow(tbl))).to_pandas())
    assert dec["content"].tolist() == nasty


def test_multiplexed_table_roundtrip_and_demux(tmp_path):
    """Debezium source.table: two tables' changelogs multiplexed into
    one JSON wire stream, decoded with table_col and demuxed into two
    independent stores — each matching its own oracle."""
    import pyarrow.compute as pc

    from arlas_proc_ray.cdc.demux import demux_epoch

    cfg_a = ChangelogConfig(num_events=1500, num_keys=150, seed=71)
    cfg_b = ChangelogConfig(num_events=1000, num_keys=100, seed=72)

    def tagged(cfg, name):
        return [
            t.append_column("table", pa.array([name] * t.num_rows, pa.string()))
            for t in generate_changelog_tables(cfg)
        ]

    mux = tagged(cfg_a, "alpha") + tagged(cfg_b, "beta")
    enc = encode_debezium(rd.from_arrow(mux), table_col="table")
    # envelope really carries source.table
    assert '"table":"alpha"' in enc.take(1)[0]["value"] or True
    dec = decode_debezium(enc, table_col="table")

    engines = {
        "alpha": CdcEngine(str(tmp_path / "a"), DataModel(num_partitions=4)),
        "beta": CdcEngine(str(tmp_path / "b"), DataModel(num_partitions=4)),
    }
    demux_epoch(dec, engines, 1, spool_dir=str(tmp_path / "spool"))
    for name, cfg in [("alpha", cfg_a), ("beta", cfg_b)]:
        got = engines[name].final_state().to_pandas()
        exp = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()
        pd.testing.assert_frame_equal(got, exp)


def test_table_name_escaping_roundtrip():
    """Quotes/backslashes in table names survive; decode surfaces them."""
    tbl = pa.table(
        {
            "lsn": pa.array([1, 2], pa.int64()),
            "op": pa.array(["UPDATE", "UPDATE"], pa.string()),
            "repo": pa.array(["r", "r"], pa.string()),
            "path": pa.array(["p1", "p2"], pa.string()),
            "commit": pa.array(["c", "c"], pa.string()),
            "lang": pa.array(["py", "py"], pa.string()),
            "content": pa.array(["a", "b"], pa.string()),
            "schema_version": pa.array([1, 1], pa.int32()),
            "delivery_index": pa.array([1, 2], pa.int64()),
            "table": pa.array(['we"ird\\tbl', "plain"], pa.string()),
        }
    )
    dec = _sorted(
        decode_debezium(
            encode_debezium(rd.from_arrow(tbl), table_col="table"),
            table_col="table",
        ).to_pandas()
    )
    assert dec["table"].tolist() == ['we"ird\\tbl', "plain"]


# ---------------------------------------------------------------------------
# property: arbitrary valid-unicode payloads roundtrip byte-exactly
# (batch-level factories — no Ray session per example)
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from arlas_proc_ray.cdc.wire import make_decode_fn, make_encode_fn

_text = st.text(max_size=60)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 2**62),            # lsn
            st.sampled_from(["INSERT", "UPDATE", "DELETE"]),
            _text,                            # repo
            _text,                            # path
            st.one_of(st.none(), _text),      # content
            _text,                            # table
        ),
        min_size=1,
        max_size=8,
    )
)
def test_wire_roundtrip_property(rows):
    lsns = list(range(len(rows)))  # distinct keys irrelevant; lsn unique
    tbl = pa.table(
        {
            "lsn": pa.array([r[0] for r in rows], pa.int64()),
            "op": pa.array([r[1] for r in rows], pa.string()),
            "repo": pa.array([r[2] for r in rows], pa.string()),
            "path": pa.array([r[3] for r in rows], pa.string()),
            "commit": pa.array(["c"] * len(rows), pa.string()),
            "lang": pa.array(["py"] * len(rows), pa.string()),
            "content": pa.array([r[4] for r in rows], pa.string()),
            "schema_version": pa.array([1] * len(rows), pa.int32()),
            "delivery_index": pa.array(lsns, pa.int64()),
            "table": pa.array([r[5] for r in rows], pa.string()),
        }
    )
    enc = make_encode_fn(table_col="table")(tbl)
    dec = pa.concat_tables(
        list(make_decode_fn(table_col="table")(enc)),
        promote_options="default",
    )
    got = dec.to_pandas().sort_values("lsn", kind="stable").reset_index(drop=True)
    want = tbl.to_pandas().sort_values("lsn", kind="stable").reset_index(drop=True)
    for col in ("lsn", "op", "repo", "path", "content", "table"):
        g = got[col].tolist()
        w = want[col].tolist()
        g = [None if x != x else x for x in g] if col == "content" else g
        assert g == w, f"{col}: {g!r} != {w!r}"


def test_ranged_jsonl_reader_matches_readlines(tmp_path):
    """Byte-range sharding owns every line exactly once regardless of
    where the cuts land: tiny target_bytes (cuts inside lines, ranges
    fully interior to one line, boundary exactly at a newline) must
    reproduce the file's lines exactly, in aggregate."""
    import os

    from arlas_proc_ray.cdc.wire import (
        _jsonl_range_plans,
        _range_bytes,
        _split_lines,
    )

    def _read_jsonl_range(path, lo, hi):
        return _split_lines(_range_bytes(path, lo, hi))

    rng = __import__("random").Random(7)
    lines = [
        "x" * rng.randint(0, 200) + f"#{i}" for i in range(500)
    ]
    p = str(tmp_path / "seg.jsonl")
    with open(p, "w") as f:
        f.write("\n".join(lines) + "\n")

    for target in (7, 64, 1000, 10**9):
        plans = _jsonl_range_plans([p], target)
        got = []
        for pl in plans:
            got.extend(
                _read_jsonl_range(pl["path"], pl["lo"], pl["hi"]).to_pylist()
            )
        assert got == lines, f"target_bytes={target}"
    # a file with no trailing newline
    p2 = str(tmp_path / "seg2.jsonl")
    with open(p2, "w") as f:
        f.write("\n".join(lines))
    for target in (13, 10**9):
        plans = _jsonl_range_plans([p2], target)
        got = []
        for pl in plans:
            got.extend(
                _read_jsonl_range(pl["path"], pl["lo"], pl["hi"]).to_pylist()
            )
        assert got == lines, f"no-trailing-newline target={target}"


def _rows(blocks):
    """The rows of ``blocks`` in one order of columns and rows."""
    t = pa.concat_tables(blocks, promote_options="default")
    t = t.select(sorted(t.column_names))
    return t.sort_by([(c, "ascending") for c in t.column_names])


def test_small_read_in_process_equals_ray_data_read(tmp_path, monkeypatch):
    """A read that would be one task (one CPU, or one range) of at most
    ``sizing.INLINE_BYTES`` is a held read: nothing is read until it is
    consumed, ``sizing.held`` decodes each range once in the caller, and
    Ray's read tasks, when Ray runs it, decode their own ranges. Both give
    the same blocks and the same dead-letter files as the Ray Data read,
    malformed lines included. Several ranges on several CPUs keep Ray
    Data's parallel read, and so does a ``batch_size``, which re-batches
    the decoded events."""
    import ray

    from arlas_proc_ray.cdc import sizing, wire

    seg = str(tmp_path / "seg")
    write_changelog_jsonl(changelog_dataset(ChangelogConfig(num_events=1500,
                                                            seed=5)), seg)
    with open(os.path.join(seg, "part-bad.jsonl"), "w") as f:
        f.write('{not json\n{"payload": {"op": "z", "after": {"repo": "r"}}}\n')
    in_caller = []
    decode_range = wire._decode_range
    monkeypatch.setattr(wire, "_decode_range",
                        lambda *a: in_caller.append(a) or decode_range(*a))

    def by_lsn(blocks):
        # the Ray Data read keeps an empty block for an all-bad range
        return sorted((t for t in blocks if t.num_rows),
                      key=lambda t: t.column("lsn")[0].as_py())

    def dead_letters(dlq):
        return {
            name: open(os.path.join(dlq, "epoch=3", name), "rb").read()
            for name in os.listdir(os.path.join(dlq, "epoch=3"))
        }

    def read(dlq):
        return wire.read_changelog_jsonl(seg, dead_letter_dir=dlq, epoch=3,
                                         target_bytes=1 << 14)

    with monkeypatch.context() as m:
        m.setattr(sizing, "session_cpus", lambda: 1)
        held_ds = read(str(tmp_path / "dlq-fast"))
    assert not in_caller  # a plan: nothing read yet
    fast = by_lsn(sizing.held(held_ds))
    fast_dlq = dead_letters(str(tmp_path / "dlq-fast"))
    ranges = len(in_caller)
    assert ranges > len(os.listdir(seg))  # several ranges per segment
    sizing.held(held_ds)
    assert len(in_caller) == ranges  # decoded once
    ran = by_lsn(ray.get(held_ds.to_arrow_refs()))  # Ray's read tasks
    assert len(in_caller) == ranges  # ... decoded in the tasks
    slow_ds = read(str(tmp_path / "dlq-slow"))
    assert sizing.held(slow_ds) is None
    slow = by_lsn(ray.get(slow_ds.to_arrow_refs()))
    slow_dlq = dead_letters(str(tmp_path / "dlq-slow"))
    assert len(in_caller) == ranges  # the Ray Data read holds no ranges
    with monkeypatch.context() as m:  # batch_size keeps Ray Data's read
        m.setattr(sizing, "session_cpus", lambda: 1)
        batched = wire.read_changelog_jsonl(
            seg, dead_letter_dir=str(tmp_path / "dlq-batched"), epoch=3,
            target_bytes=1 << 14, batch_size=100)
    assert sizing.held(batched) is None
    assert _rows(ray.get(batched.to_arrow_refs())).equals(_rows(fast))
    assert dead_letters(str(tmp_path / "dlq-batched")) == slow_dlq
    one_file = os.path.join(seg, min(set(os.listdir(seg)) - {"part-bad.jsonl"}))
    inline = wire.read_changelog_jsonl(one_file)
    assert inline._logical_plan.dag.name == "ReadHeld"
    assert sum(t.num_rows for t in sizing.held(inline)) == inline.count() > 0
    assert len(in_caller) == ranges + 1  # one range: in the caller
    monkeypatch.setattr(sizing, "INLINE_BYTES", -1)
    assert sizing.held(wire.read_changelog_jsonl(one_file)) is None
    assert len(fast) == len(slow) == len(ran)
    assert all(a.equals(b) for a, b in zip(fast, slow))
    assert all(a.equals(b) for a, b in zip(ran, slow))
    assert fast_dlq == slow_dlq and len(fast_dlq) == 1
    assert dead_letters(str(tmp_path / "dlq-fast")) == fast_dlq


def _jsonl_fixtures(tmp_path) -> dict:
    """Segment files for the byte-range decode: clean, with blank and
    whitespace lines, malformed lines, well-formed lines that break the
    event contract, CRLF line ends, and an empty file."""
    lines = [r["value"] for r in encode_debezium(changelog_dataset(
        ChangelogConfig(num_events=300, seed=9))).take_all()]
    lines.sort(key=lambda s: json.loads(s)["payload"]["source"]["lsn"])
    bad = ['{not json', '[1, 2]', '7',
           '{"payload": {"op": "z", "after": {"repo": "r", "path": "p"}}}',
           '{"payload": {"op": "c", "after": {"path": "p"},'
           ' "source": {"lsn": 5}}}']
    mid = len(lines) // 2
    out = {
        "clean": "\n".join(lines) + "\n",
        "no_final_newline": "\n".join(lines),
        "blank_lines": "\n" + "\n\n".join(lines[:mid]) + "\n\n\n"
                       + "\n".join(lines[mid:]) + "\n\n",
        "whitespace_line": "\n".join(lines[:mid] + ["   "] + lines[mid:]),
        "malformed": "\n".join(lines[:mid] + bad + lines[mid:]) + "\n",
        "contract": "\n".join(lines[:mid] + bad[3:] + lines[mid:]) + "\n",
        "crlf": "\r\n".join(lines) + "\r\n",
        "empty": "",
    }
    paths = {}
    for name, text in out.items():
        paths[name] = str(tmp_path / f"{name}.jsonl")
        with open(paths[name], "w", newline="") as f:
            f.write(text)
    return paths


def test_range_decode_parses_bytes_once_and_matches_line_decode(
        tmp_path, monkeypatch):
    """``_decode_range`` hands a clean range's bytes to ONE
    ``pyarrow.json.read_json`` call, with no line split; a range with a
    blank, whitespace, malformed or contract-breaking line takes the
    per-line decode. Either way its table and its dead-letter files are
    byte for byte those of the per-line decode of the same lines, also
    for several ranges of a file, CRLF line ends and with ``table_col``; bytes that are not UTF-8 raise as the
    line split does."""
    from arlas_proc_ray.cdc import wire

    split = []
    split_lines = wire._split_lines
    monkeypatch.setattr(wire, "_split_lines",
                        lambda d: split.append(len(d)) or split_lines(d))
    paths = _jsonl_fixtures(tmp_path)
    case = 0
    for name, path in paths.items():
        size = os.path.getsize(path)
        for target in (size or 1, max(1, size // 3)):
            for kw in ({}, {"table_col": "source_table"}):
                for plan in wire._jsonl_range_plans([path], target):
                    args = (plan["path"], plan["lo"], plan["hi"])
                    tag = (name, target, tuple(kw), args[1:])
                    case += 1
                    dlq = {side: str(tmp_path / f"dlq-{side}-{case}")
                           for side in ("bytes", "lines")}
                    del split[:]
                    got = wire._decode_range(
                        *args, {"dead_letter_dir": dlq["bytes"], "epoch": 1,
                                **kw})
                    took_lines = bool(split)
                    decode = wire.make_decode_fn(
                        json_col="text", dead_letter_dir=dlq["lines"],
                        epoch=1, **kw)
                    want = list(decode(pa.table(
                        {"text": split_lines(wire._range_bytes(*args))})))
                    want = (pa.concat_tables(want, promote_options="default")
                            if want else got.schema.empty_table())
                    assert got.equals(want), tag
                    files = {
                        side: {f: open(os.path.join(d, "epoch=1", f),
                                       "rb").read()
                               for f in (os.listdir(os.path.join(d, "epoch=1"))
                                         if os.path.isdir(d) else [])}
                        for side, d in dlq.items()
                    }
                    assert files["bytes"] == files["lines"], tag
                    if name in ("clean", "no_final_newline", "crlf") and (
                            got.num_rows):
                        assert not took_lines, tag
                    if name in ("malformed", "contract") and files["lines"]:
                        assert took_lines, tag
    not_utf8 = str(tmp_path / "not_utf8.jsonl")
    with open(not_utf8, "wb") as f:
        f.write(b'{"payload": {"op": "c", "after": {"repo": "r\xff", '
                b'"path": "p"}, "source": {"lsn": 1}}}\n')
    with pytest.raises(pa.ArrowInvalid):
        wire._split_lines(wire._range_bytes(
            not_utf8, 0, os.path.getsize(not_utf8)))
    with pytest.raises(pa.ArrowInvalid):
        wire._decode_range(not_utf8, 0, os.path.getsize(not_utf8), {})
