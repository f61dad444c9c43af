"""Change data feed between epochs (cdc/feed.py).

The Delta-CDF-shaped changelog scan: I/U/D rows between two committed
epochs as a streaming Dataset — per-partition shuffle-free diffs,
manifest pruning, optional old_<col> pre-images, global-diff fallback
on fan-out change.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from arlas_proc_ray.cdc import CdcEngine, ChangelogConfig, generate_changelog_tables
from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1
from arlas_proc_ray.cdc.feed import change_feed
from arlas_proc_ray.model import DataModel

DM = DataModel(num_partitions=8)
KEY = ["repo", "path"]


def _event(lsn, *, repo="org9/solo", path="only.py", op="UPDATE",
           content="x" * 40) -> pa.Table:
    return pa.Table.from_pylist(
        [{
            "lsn": lsn, "op": op, "repo": repo, "path": path,
            "commit": f"c{lsn}", "lang": "py",
            "content": None if op == "DELETE" else content,
            "schema_version": 1, "delivery_index": lsn,
        }],
        schema=EVENT_SCHEMA_V1,
    )


def _expected_feed(s1: pa.Table, s2: pa.Table, compare) -> pd.DataFrame:
    """Independent classifier: outer-merge the two states in pandas."""
    a = s1.to_pandas()
    b = s2.to_pandas()
    m = a.merge(b, on=KEY, how="outer", suffixes=("_o", "_n"), indicator=True)
    rows = []
    for _, r in m.iterrows():
        if r["_merge"] == "right_only":
            rows.append((r["repo"], r["path"], "I"))
        elif r["_merge"] == "left_only":
            rows.append((r["repo"], r["path"], "D"))
        elif any(r[f"{c}_o"] != r[f"{c}_n"] for c in compare):
            rows.append((r["repo"], r["path"], "U"))
    return (
        pd.DataFrame(rows, columns=KEY + ["op"])
        .sort_values(KEY)
        .reset_index(drop=True)
    )


COMPARE = ["content_sha256", "last_lsn"]


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df[KEY + ["op"]].sort_values(KEY).reset_index(drop=True)


def test_feed_matches_outer_merge_classification(tmp_path, ray_session):
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    tables = generate_changelog_tables(
        ChangelogConfig(num_events=4_000, num_keys=300, seed=41)
    )
    import pyarrow.compute as pc

    mid = max(int(pc.max(t.column("lsn")).as_py()) for t in tables) // 2
    engine.apply_epoch(
        rd.from_arrow([t.filter(pc.less_equal(t.column("lsn"), mid)) for t in tables]),
        epoch=1,
    )
    engine.apply_epoch(
        rd.from_arrow([t.filter(pc.greater(t.column("lsn"), mid)) for t in tables]),
        epoch=2,
    )
    s1, s2 = engine.store.read_state(1), engine.store.read_state(2)
    feed = change_feed(
        engine.store, base=1, target=2, compare_cols=COMPARE,
        columns=COMPARE,
    ).to_pandas()
    exp = _expected_feed(s1, s2, COMPARE)
    pd.testing.assert_frame_equal(_norm(feed), exp)
    assert len(exp) > 0
    # image contract: I/U rows carry the NEW state, D rows the OLD one
    s2_sha = s2.to_pandas().set_index(KEY)["content_sha256"]
    s1_sha = s1.to_pandas().set_index(KEY)["content_sha256"]
    for _, r in feed.iterrows():
        k = (r["repo"], r["path"])
        want = s1_sha[k] if r["op"] == "D" else s2_sha[k]
        assert r["content_sha256"] == want


def test_pre_images_and_manifest_pruning(tmp_path, ray_session):
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    tables = generate_changelog_tables(
        ChangelogConfig(num_events=3_000, num_keys=200, seed=43)
    )
    engine.apply_epoch(
        rd.from_arrow(tables + [_event(8_000, content="v1" * 30)]), epoch=1
    )
    # delta touching ONE key: update with new content
    engine.apply_epoch(
        rd.from_arrow([_event(9_000, content="v2" * 30)]), epoch=2, delta=True
    )
    # pruning precondition: exactly one partition's files differ (a
    # segment joined its chain)
    src1 = [m.layout() for m in engine.store.epoch_index(1)]
    src2 = [m.layout() for m in engine.store.epoch_index(2)]
    changed_parts = [p for p in range(DM.num_partitions)
                     if src1[p] != src2[p]]
    assert len(changed_parts) == 1

    feed = change_feed(
        engine.store, base=1, target=2, compare_cols=COMPARE,
        include_old=COMPARE,
    ).to_pandas()
    touched = feed[feed["op"].isin(["I", "U", "D"])]
    u = touched[(touched["repo"] == "org9/solo") & (touched["path"] == "only.py")]
    assert len(u) == 1 and u["op"].iloc[0] == "U"
    assert u["old_content_sha256"].iloc[0] != u["content_sha256"].iloc[0]
    assert int(u["old_last_lsn"].iloc[0]) < int(u["last_lsn"].iloc[0])
    # every other changed row lives in the same single partition;
    # a second fresh epoch pair can't leak unchanged keys
    from arlas_proc_ray.functions.hashing import partition_ids

    pid = partition_ids(
        pa.table({"repo": feed["repo"], "path": feed["path"]}),
        KEY, DM.num_partitions,
    )
    assert set(np.unique(pid)) <= set(changed_parts)

    # insert brand-new key -> I with NULL pre-images
    engine.apply_epoch(
        rd.from_arrow([_event(9_100, repo="orgX/new", path="n.py")]),
        epoch=3, delta=True,
    )
    feed3 = change_feed(
        engine.store, base=2, target=3, compare_cols=COMPARE,
        include_old=COMPARE,
    ).to_pandas()
    i = feed3[feed3["op"] == "I"]
    assert len(i) == 1
    assert pd.isna(i["old_content_sha256"].iloc[0])
    assert pd.isna(i["old_last_lsn"].iloc[0])

    # delete -> D carrying the final (old) image
    engine.apply_epoch(
        rd.from_arrow([_event(9_200, repo="orgX/new", path="n.py", op="DELETE")]),
        epoch=4, delta=True,
    )
    feed4 = change_feed(
        engine.store, base=3, target=4, compare_cols=COMPARE,
        include_old=COMPARE,
    ).to_pandas()
    d = feed4[feed4["op"] == "D"]
    assert len(d) == 1 and d["repo"].iloc[0] == "orgX/new"
    assert d["content_sha256"].iloc[0] == d["old_content_sha256"].iloc[0]


def test_identical_epochs_feed_is_empty_with_schema(tmp_path, ray_session):
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    engine.apply_epoch(rd.from_arrow([_event(1)]), epoch=1)
    # untouched delta epoch: every partition resolves to the same file
    engine.apply_epoch(
        rd.from_arrow([_event(2, content="x" * 40)]), epoch=2, delta=True
    )
    feed = change_feed(
        engine.store, base=2, target=2, compare_cols=COMPARE,
        include_old=COMPARE,
    )
    pdf = feed.to_pandas()
    assert len(pdf) == 0


def test_feed_from_nothing_is_every_live_row_inserted(tmp_path, ray_session):
    """``base=None`` diffs against nothing: the feed is the target's
    state, every row an I, every pre-image NULL."""
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    engine.apply_epoch(
        rd.from_arrow(generate_changelog_tables(
            ChangelogConfig(num_events=2_000, num_keys=150, seed=53)
        )),
        epoch=1,
    )
    engine.apply_epoch(
        rd.from_arrow([_event(9_000, content="v2" * 30)]), epoch=2, delta=True
    )
    state = (
        engine.store.read_state(2).to_pandas()
        .sort_values(KEY).reset_index(drop=True)
    )
    feed = (
        change_feed(engine.store, base=None, target=2).to_pandas()
        .sort_values(KEY).reset_index(drop=True)
    )
    assert (feed["op"] == "I").all()
    pd.testing.assert_frame_equal(feed[state.columns.tolist()], state)

    with_old = change_feed(
        engine.store, base=None, target=2, include_old=COMPARE,
    ).to_pandas()
    assert len(with_old) == len(state)
    for c in COMPARE:
        assert with_old[f"old_{c}"].isna().all()


def test_refs_as_epoch_args(tmp_path, ray_session):
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    engine.apply_epoch(rd.from_arrow([_event(1)]), epoch=1)
    engine.apply_epoch(
        rd.from_arrow([_event(2, content="y" * 40)]), epoch=2, delta=True
    )
    engine.store.tag("v1", 1)
    engine.store.tag("prod", 2)
    feed = change_feed(
        engine.store, base="v1", target="prod", compare_cols=COMPARE
    ).to_pandas()
    assert list(feed["op"]) == ["U"]


def test_fanout_change_falls_back_to_global_diff(tmp_path, ray_session):
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    tables = generate_changelog_tables(
        ChangelogConfig(num_events=2_000, num_keys=150, seed=47)
    )
    engine.apply_epoch(rd.from_arrow(tables), epoch=1)
    engine.repartition_snapshot(16, epoch=2)
    engine.dm = DataModel(num_partitions=16)
    engine.apply_epoch(
        rd.from_arrow([_event(9_000, content="z" * 50)]), epoch=3, delta=True
    )
    # pre-images across a fan-out change are refused, not silently wrong
    with pytest.raises(ValueError, match="fan-out"):
        change_feed(engine.store, base=1, target=3, include_old=COMPARE)
    feed = change_feed(
        engine.store, base=1, target=3, compare_cols=COMPARE,
        columns=COMPARE,
    ).to_pandas()
    s1, s3 = engine.store.read_state(1), engine.store.read_state(3)
    exp = _expected_feed(s1, s3, COMPARE)
    pd.testing.assert_frame_equal(_norm(feed), exp)
    # the fallback classifies on compare_cols but its rows carry the
    # columns the per-partition path's rows carry (epochs 2 and 3 share a
    # fan-out): the whole read set, new images on I/U, old ones on D
    for kw in ({}, {"columns": COMPARE}, {"columns": ["content"]}):
        across = change_feed(engine.store, base=1, target=3,
                             compare_cols=COMPARE, **kw).to_pandas()
        aligned = change_feed(engine.store, base=2, target=3,
                              compare_cols=COMPARE, **kw).to_pandas()
        assert len(aligned) and list(across.columns) == list(aligned.columns)
        pd.testing.assert_frame_equal(_norm(across), exp)
        for op, state in (("U", s3), ("I", s3), ("D", s1)):
            rows = across[across["op"] == op].drop(columns="op")
            want = state.to_pandas().merge(rows[KEY], on=KEY)[rows.columns]
            pd.testing.assert_frame_equal(
                rows.sort_values(KEY).reset_index(drop=True),
                want.sort_values(KEY).reset_index(drop=True), obj=(op, kw))
