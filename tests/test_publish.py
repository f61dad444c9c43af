"""Incremental search-index publish (cdc/publish.py).

The CDC-native replacement for the reference's full re-index
(``writeToElasticsearch`` at the end of every pipeline): only the rows
that changed since the last published epoch travel to the sink, deletes
included, with a crash-safe checkpoint.
"""

import json
import os

import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from arlas_proc_ray.cdc import (
    CdcEngine,
    ChangelogConfig,
    generate_changelog_tables,
    publish_to_elasticsearch,
    read_publish_checkpoint,
)
from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1
from arlas_proc_ray.cdc.diff import diff_state_tables
from arlas_proc_ray.cdc.publish import stable_doc_ids
from arlas_proc_ray.model import DataModel
from arlas_proc_ray.sources.elastic import ActorTransport, MockElasticsearch

DM = DataModel(num_partitions=8)
KEY = ["repo", "path"]


def _one_event(lsn: int, *, repo="org9/solo", path="only.py", op="UPDATE",
               content="x") -> pa.Table:
    return pa.Table.from_pylist(
        [{
            "lsn": lsn, "op": op, "repo": repo, "path": path,
            "commit": f"c{lsn}", "lang": "py",
            "content": None if op == "DELETE" else content,
            "schema_version": 1, "delivery_index": lsn,
        }],
        schema=EVENT_SCHEMA_V1,
    )


def _es_docs(es) -> dict:
    return {
        _id: src
        for (_ix, _id), src in (
            ((d["_index"], d["_id"]), d["_source"])
            for d in ray.get(es.search_all.remote())
        )
    }


def _expected_docs(state: pa.Table) -> dict:
    pdf = state.to_pandas()
    ids = stable_doc_ids(pdf, KEY)
    out = {}
    for (_, row), _id in zip(pdf.iterrows(), ids):
        out[_id] = {
            k: (None if pd.isna(v) else (v.item() if hasattr(v, "item") else v))
            for k, v in row.items()
        }
    return out


@pytest.fixture
def es(ray_session):
    return MockElasticsearch.remote()


@pytest.fixture
def transport_factory(es):
    def factory():
        return ActorTransport(es)

    return factory


def test_bootstrap_incremental_delete_and_noop(tmp_path, es, transport_factory):
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    tables = generate_changelog_tables(
        ChangelogConfig(num_events=4_000, num_keys=300, seed=11)
    )
    engine.apply_epoch(rd.from_arrow(tables), epoch=1)

    # --- bootstrap: every live row becomes one index action
    r1 = publish_to_elasticsearch(
        engine.store, index="code", transport_factory=transport_factory,
        key_cols=KEY,
    )
    state1 = engine.final_state()
    assert r1["mode"] == "bootstrap"
    assert r1["indexed"] == state1.num_rows and r1["deleted"] == 0
    assert _es_docs(es) == _expected_docs(state1)

    # --- incremental: ONE key updated in a delta epoch → 7 of 8 partitions
    # skipped from manifests alone, one U action
    engine.apply_epoch(
        rd.from_arrow([_one_event(10_000, content="v2")]), epoch=2, delta=True
    )
    r2 = publish_to_elasticsearch(
        engine.store, index="code", transport_factory=transport_factory,
        key_cols=KEY,
    )
    state2 = engine.final_state()
    assert r2["mode"] == "incremental"
    assert r2["partitions_skipped"] == DM.num_partitions - 1
    assert r2["partitions_published"] == 1
    assert r2["indexed"] == 1 and r2["deleted"] == 0
    assert _es_docs(es) == _expected_docs(state2)

    # --- delete: the key leaves the state AND the index
    engine.apply_epoch(
        rd.from_arrow([_one_event(10_001, op="DELETE")]), epoch=3, delta=True
    )
    r3 = publish_to_elasticsearch(
        engine.store, index="code", transport_factory=transport_factory,
        key_cols=KEY,
    )
    state3 = engine.final_state()
    assert r3["deleted"] == 1 and r3["indexed"] == 0
    docs = _es_docs(es)
    assert docs == _expected_docs(state3)
    assert "org9/solo#only.py" not in docs

    # --- republish with no new epoch: noop, nothing sent
    calls_before = ray.get(es.stats.remote())["bulk_calls"]
    r4 = publish_to_elasticsearch(
        engine.store, index="code", transport_factory=transport_factory,
        key_cols=KEY,
    )
    assert r4["mode"] == "noop"
    assert ray.get(es.stats.remote())["bulk_calls"] == calls_before

    # checkpoint + vacuum pin follow the published epoch
    ckpt = read_publish_checkpoint(engine.store, "default")
    assert ckpt["epoch"] == 3
    assert engine.store.resolve_ref("published-default") == 3


def test_crash_before_checkpoint_replays_idempotently(
    tmp_path, es, transport_factory
):
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    tables = generate_changelog_tables(
        ChangelogConfig(num_events=2_000, num_keys=200, seed=5)
    )
    engine.apply_epoch(rd.from_arrow(tables), epoch=1)
    publish_to_elasticsearch(
        engine.store, index="code", transport_factory=transport_factory,
        key_cols=KEY,
    )
    engine.apply_epoch(
        rd.from_arrow([_one_event(9_000, content="v2"),
                       _one_event(9_001, repo="org0/monorepo",
                                  path="src/d0/m0/file_0.py", op="DELETE")]),
        epoch=2, delta=True,
    )
    r2 = publish_to_elasticsearch(
        engine.store, index="code", transport_factory=transport_factory,
        key_cols=KEY,
    )
    state2 = engine.final_state()
    assert _es_docs(es) == _expected_docs(state2)

    # simulate a crash between "actions posted" and "checkpoint written":
    # rewind the checkpoint to base epoch 1 and re-run. The rerun re-sends
    # the same idempotent actions (delete-of-missing is a 404 no-op) and
    # converges to the same sink state.
    ckpt_path = os.path.join(engine.store.root, "publish", "default.json")
    with open(ckpt_path) as f:
        ckpt = json.load(f)
    ckpt["epoch"] = 1
    with open(ckpt_path, "w") as f:
        json.dump(ckpt, f)
    r2b = publish_to_elasticsearch(
        engine.store, index="code", transport_factory=transport_factory,
        key_cols=KEY,
    )
    assert r2b["mode"] == "incremental"
    assert r2b["indexed"] == r2["indexed"] and r2b["deleted"] == r2["deleted"]
    assert _es_docs(es) == _expected_docs(state2)
    assert read_publish_checkpoint(engine.store, "default")["epoch"] == 2


def test_fanout_change_falls_back_to_global_diff(tmp_path, es, transport_factory):
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    tables = generate_changelog_tables(
        ChangelogConfig(num_events=2_000, num_keys=200, seed=7)
    )
    engine.apply_epoch(rd.from_arrow(tables), epoch=1)
    publish_to_elasticsearch(
        engine.store, index="code", transport_factory=transport_factory,
        key_cols=KEY,
    )
    engine.repartition_snapshot(16, epoch=2)
    engine.dm = DataModel(num_partitions=16)
    engine.apply_epoch(
        rd.from_arrow([_one_event(9_100, content="after-repartition")]),
        epoch=3, delta=True,
    )
    r = publish_to_elasticsearch(
        engine.store, index="code", transport_factory=transport_factory,
        key_cols=KEY,
    )
    assert r["mode"] == "global-diff"
    assert _es_docs(es) == _expected_docs(engine.final_state())
    # next publish is per-partition incremental again (aligned fan-outs)
    engine.apply_epoch(
        rd.from_arrow([_one_event(9_101, content="v3")]), epoch=4, delta=True
    )
    r2 = publish_to_elasticsearch(
        engine.store, index="code", transport_factory=transport_factory,
        key_cols=KEY,
    )
    assert r2["mode"] == "incremental"
    assert r2["partitions_skipped"] == 15
    assert _es_docs(es) == _expected_docs(engine.final_state())


def test_diff_state_tables_classification():
    old = pa.table({
        "k": ["a", "b", "c", "d\x00", "d"],
        "v": [1, 2, 3, 4, 5],
        "s": ["x", None, "z", "w", "q"],
    })
    new = pa.table({
        "k": ["a", "b", "e", "d\x00", "d"],
        "v": [1, 20, 6, 4, 5],
        "s": ["x", None, "y", "W", "q"],
    })
    out = diff_state_tables(old, new, key_cols=["k"])
    by_op = {op: sorted(g["k"]) for op, g in out.groupby("op")}
    # NUL-embedded key 'd\x00' is distinct from 'd' and updates independently
    assert by_op == {"I": ["e"], "U": ["b", "d\x00"], "D": ["c"]}
    # U carries the NEW image, D the OLD image
    assert out.loc[out["k"] == "b", "v"].item() == 20
    assert out.loc[out["k"] == "c", "v"].item() == 3
    # null == null is NOT a change (IS DISTINCT FROM semantics): 'b' changed
    # only because v did; a row differing only null-vs-null emits nothing
    out2 = diff_state_tables(old, old, key_cols=["k"])
    assert len(out2) == 0
    with pytest.raises(ValueError, match="not unique"):
        diff_state_tables(pa.table({"k": ["a", "a"], "v": [1, 2]}), new.select(["k", "v"]), key_cols=["k"])


def test_stable_doc_ids_no_composite_collision():
    pdf = pd.DataFrame({"a": ["x#y", "x"], "b": ["z", "y#z"]})
    ids = stable_doc_ids(pdf, ["a", "b"])
    assert ids.nunique() == 2


def test_bulk_body_bytes_are_pinned():
    """``send_change_actions`` encodes its ``_bulk`` NDJSON with the
    connector's encoder: index actions with a source line for I/U rows,
    a bare delete action for D rows, nulls as ``null``, timestamps in ISO
    form, excluded columns left out. The bodies are pinned byte for
    byte, chunked at 3 rows."""
    import numpy as np

    from arlas_proc_ray.cdc.publish import send_change_actions

    pdf = pd.DataFrame({
        "repo": ["r1", "r1", "r2", "r/3"],
        "path": ["a.py", "b|c.py", "d.py", "é.py"],
        "op": ["I", "U", "D", "U"],
        "commit": ["c1", None, "c3", "c4"],
        "lsn": np.array([1, 2, 3, 2**53 + 1], dtype=np.int64),
        "content_size": [10.0, np.nan, 3.0, 0.5],
        "updated": [
            pd.Timestamp("2024-01-02 03:04:05"), pd.NaT,
            pd.Timestamp("2024-05-06", tz="UTC"),
            pd.Timestamp("2024-07-08 09:10:11.123456"),
        ],
        "secret": ["x", "y", "z", "w"],
    })
    bodies = []

    class Capture:
        def bulk(self, body):
            bodies.append(body)
            return {"errors": False, "items": []}

    out = send_change_actions(
        pdf, transport=Capture(), index="idx", key_cols=KEY,
        mapping_excluded=["secret"], chunk_rows=3,
    )
    assert out == {"indexed": 3, "deleted": 1, "rejected": 0}
    assert bodies == [
        '{"index": {"_index": "idx", "_id": "r1#a.py"}}\n'
        '{"repo": "r1", "path": "a.py", "commit": "c1", "lsn": 1, '
        '"content_size": 10.0, "updated": "2024-01-02T03:04:05"}\n'
        '{"index": {"_index": "idx", "_id": "r1#b|c.py"}}\n'
        '{"repo": "r1", "path": "b|c.py", "commit": null, "lsn": 2, '
        '"content_size": null, "updated": null}\n'
        '{"delete": {"_index": "idx", "_id": "r2#d.py"}}\n',
        '{"index": {"_index": "idx", "_id": "r/3#\\u00e9.py"}}\n'
        '{"repo": "r/3", "path": "\\u00e9.py", "commit": "c4", '
        '"lsn": 9007199254740993, "content_size": 0.5, '
        '"updated": "2024-07-08T09:10:11.123456"}\n',
    ]
